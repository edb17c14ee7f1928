#include "client/block_device.h"

#include <algorithm>
#include <utility>

#include "sim/logging.h"

namespace reflex::client {

BlockDevice::BlockDevice(sim::Simulator& sim, core::ReflexServer& server,
                         net::Machine* machine, uint32_t tenant_handle,
                         Options options)
    : sim_(sim),
      server_(server),
      options_(options),
      rng_(options.seed, "block_device"),
      contexts_(options.num_contexts) {
  REFLEX_CHECK(options_.num_contexts >= 1);
  // One socket per hardware context; the kernel path is modeled here,
  // so the underlying user-level library runs with a null stack.
  ReflexClient::Options client_options;
  client_options.stack = net::StackCosts::Null();
  client_options.num_connections = options_.num_contexts;
  client_options.seed = options_.seed ^ 0xb10c;
  client_options.retry = options_.retry;
  client_ = std::make_unique<ReflexClient>(sim, server, machine,
                                           client_options);
  session_ = client_->AttachSession(tenant_handle);
  REFLEX_CHECK(session_ != nullptr);
}

uint64_t BlockDevice::CapacityBytes() const {
  return server_.device().profile().capacity_sectors * core::kSectorBytes;
}

sim::Future<IoResult> BlockDevice::SubmitSplit(bool is_read,
                                               uint64_t byte_offset,
                                               uint32_t bytes,
                                               uint8_t* data) {
  REFLEX_CHECK(bytes > 0);
  if (data != nullptr) {
    REFLEX_CHECK(byte_offset % core::kSectorBytes == 0);
    REFLEX_CHECK(bytes % core::kSectorBytes == 0);
  }
  const uint64_t first_lba = byte_offset / core::kSectorBytes;
  const uint64_t end_lba =
      (byte_offset + bytes + core::kSectorBytes - 1) / core::kSectorBytes;
  auto total_sectors = static_cast<uint32_t>(end_lba - first_lba);

  sim::Promise<IoResult> promise(sim_);
  auto future = promise.GetFuture();
  RunSplit(is_read, first_lba, total_sectors, data, std::move(promise));
  return future;
}

sim::Task BlockDevice::RunSplit(bool is_read, uint64_t first_lba,
                                uint32_t total_sectors, uint8_t* data,
                                sim::Promise<IoResult> promise) {
  const sim::TimeNs issue_time = sim_.Now();
  // Split into chunks of at most max_request_sectors, one blk-mq
  // context per chunk (round robin). The join state lives in this
  // frame, which outlives every chunk: each chunk's last act is
  // Arrive(), and this frame resumes only after the last one.
  const uint32_t max_chunk = options_.max_request_sectors;
  const auto num_chunks =
      static_cast<int64_t>((uint64_t{total_sectors} + max_chunk - 1) /
                           max_chunk);
  sim::Barrier barrier(sim_, num_chunks);
  core::ReqStatus status = core::ReqStatus::kOk;

  uint64_t lba = first_lba;
  uint32_t remaining = total_sectors;
  uint8_t* chunk_data = data;
  while (remaining > 0) {
    const uint32_t chunk = std::min(remaining, max_chunk);
    const int ctx = next_ctx_;
    next_ctx_ = (next_ctx_ + 1) % options_.num_contexts;
    DoChunk(ctx, is_read, lba, chunk, chunk_data, &barrier, &status);
    lba += chunk;
    remaining -= chunk;
    if (chunk_data != nullptr) {
      chunk_data += static_cast<size_t>(chunk) * core::kSectorBytes;
    }
  }

  co_await barrier.Done();
  co_await sim::Delay(sim_, options_.app_wakeup);
  IoResult result;
  result.status = status;
  result.issue_time = issue_time;
  result.complete_time = sim_.Now();
  promise.Set(result);
}

sim::Task BlockDevice::DoChunk(int ctx_index, bool is_read, uint64_t lba,
                               uint32_t sectors, uint8_t* data,
                               sim::Barrier* barrier,
                               core::ReqStatus* status_out) {
  Context& ctx = contexts_[ctx_index];

  // Submission path: bio + blk-mq + kernel TCP tx, serialized on the
  // context's core.
  const uint32_t wire_tx =
      is_read ? core::kRequestHeaderBytes
              : core::kRequestHeaderBytes + sectors * core::kSectorBytes;
  const sim::TimeNs submit_cost =
      options_.block_submit_cost + options_.stack.TxCost(wire_tx);
  const sim::TimeNs submit_start = std::max(sim_.Now(), ctx.core_free);
  ctx.core_free = submit_start + submit_cost;
  co_await sim::Delay(sim_, ctx.core_free - sim_.Now());

  IoResult r;
  if (is_read) {
    r = co_await session_->Read(lba, sectors, data, ctx_index);
  } else {
    r = co_await session_->Write(lba, sectors, data, ctx_index);
  }
  // blk-mq requeue: transient failures (device error, allocation
  // pressure, timeout) put the request back on the hardware context
  // after a delay; permanent errors (bad range, no such tenant) are
  // completed with the error immediately.
  int requeues_left = options_.max_requeues;
  while (!r.ok() && requeues_left > 0 &&
         (r.status == core::ReqStatus::kDeviceError ||
          r.status == core::ReqStatus::kOutOfResources ||
          r.status == core::ReqStatus::kTimedOut ||
          r.status == core::ReqStatus::kUnknownOutcome)) {
    --requeues_left;
    ++requeues_;
    co_await sim::Delay(sim_, options_.requeue_delay);
    if (is_read) {
      r = co_await session_->Read(lba, sectors, data, ctx_index);
    } else {
      r = co_await session_->Write(lba, sectors, data, ctx_index);
    }
  }
  if (!r.ok()) *status_out = r.status;

  // Completion path: interrupt delivery, then the context's completion
  // kthread processes responses serially.
  const uint32_t payload = is_read ? sectors * core::kSectorBytes : 0;
  const sim::TimeNs after_irq =
      sim_.Now() + options_.stack.SampleDeliveryDelay(rng_);
  const sim::TimeNs rx_cost =
      options_.stack.RxCost(payload) + options_.block_complete_cost;
  const sim::TimeNs rx_start = std::max(after_irq, ctx.core_free);
  ctx.core_free = rx_start + rx_cost;
  co_await sim::Delay(sim_, ctx.core_free - sim_.Now());

  barrier->Arrive();
}

}  // namespace reflex::client
