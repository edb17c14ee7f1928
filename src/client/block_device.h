#ifndef REFLEX_CLIENT_BLOCK_DEVICE_H_
#define REFLEX_CLIENT_BLOCK_DEVICE_H_

#include <cstdint>
#include <memory>
#include <vector>

#include "client/io_result.h"
#include "client/reflex_client.h"
#include "client/storage_backend.h"
#include "sim/random.h"
#include "sim/task.h"

namespace reflex::client {

/**
 * The legacy-application path: a Linux block-device driver that
 * exposes a ReFlex server as /dev/reflexN (paper section 4.2). The
 * driver implements the multi-queue (blk-mq) model: one hardware
 * context per core, each with its own socket to the server and a
 * kernel thread that receives and completes responses. Requests are
 * issued to the server without coalescing.
 *
 * Costs modeled per context: the block-layer (bio + blk-mq) CPU cost,
 * the kernel TCP stack cost, interrupt-coalescing delivery delay, and
 * the completion kthread's serialized receive processing. Each context
 * therefore tops out near 70K messages/s, matching the paper's
 * observation that ~6 contexts are needed to fill a 10GbE link with
 * 4KB requests.
 */
class BlockDevice : public StorageBackend {
 public:
  struct Options {
    /** Number of blk-mq hardware contexts (one per client core). */
    int num_contexts = 6;

    /** Kernel socket stack model for the per-context connection. */
    net::StackCosts stack = net::StackCosts::LinuxEpoll();

    /** bio + blk-mq submission-path CPU cost per request. */
    sim::TimeNs block_submit_cost = sim::Micros(3.0);

    /** blk-mq completion-path CPU cost per request. */
    sim::TimeNs block_complete_cost = sim::Micros(2.0);

    /** Application wakeup after completion (blocking callers). */
    sim::TimeNs app_wakeup = sim::Micros(4.0);

    /** Requests larger than this are split (Linux max_sectors_kb). */
    uint32_t max_request_sectors = 512;  // 256KB

    uint64_t seed = 21;

    /**
     * blk-mq error handling: requeue a chunk that failed with a
     * transient status (kDeviceError / kOutOfResources / kTimedOut /
     * kUnknownOutcome) up to this many times before completing the
     * request with the error. Re-issuing a kUnknownOutcome write is
     * the block layer's call to make, not the client library's: blk-mq
     * owns request ordering, and replaying identical sector contents
     * is idempotent at this layer. 0 (default) disables requeueing.
     */
    int max_requeues = 0;
    sim::TimeNs requeue_delay = sim::Micros(100);

    /** Failure policy forwarded to the underlying client library. */
    ReflexClient::RetryPolicy retry;
  };

  BlockDevice(sim::Simulator& sim, core::ReflexServer& server,
              net::Machine* machine, uint32_t tenant_handle,
              Options options);

  /**
   * StorageBackend interface. When `data` is non-null, `offset` and
   * `bytes` must be 512-aligned. The future resolves when the
   * application would observe the completion.
   */
  sim::Future<IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                  uint8_t* data) override {
    return SubmitSplit(/*is_read=*/true, offset, bytes, data);
  }
  sim::Future<IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                   const uint8_t* data) override {
    return SubmitSplit(/*is_read=*/false, offset, bytes,
                       const_cast<uint8_t*>(data));
  }
  uint64_t CapacityBytes() const override;
  const char* name() const override { return "ReFlex (block device)"; }

  /** Chunks re-issued after a transient failure. */
  int64_t requeues() const { return requeues_; }

  /** The underlying user-level client (fault counters live there). */
  ReflexClient& client() { return *client_; }

 private:
  struct Context {
    /** Single CPU timeline: submission and completion processing of a
     * context run on the same core, so they serialize together. */
    sim::TimeNs core_free = 0;
  };

  sim::Future<IoResult> SubmitSplit(bool is_read, uint64_t byte_offset,
                                    uint32_t bytes, uint8_t* data);
  sim::Task DoChunk(int ctx_index, bool is_read, uint64_t lba,
                    uint32_t sectors, uint8_t* data, sim::Barrier* barrier,
                    core::ReqStatus* status_out);
  /** Issues the chunks of one request and resolves `promise` once
   * every chunk completed (plus the application wakeup). */
  sim::Task RunSplit(bool is_read, uint64_t first_lba,
                     uint32_t total_sectors, uint8_t* data,
                     sim::Promise<IoResult> promise);

  sim::Simulator& sim_;
  core::ReflexServer& server_;
  Options options_;
  sim::Rng rng_;
  std::unique_ptr<ReflexClient> client_;
  std::unique_ptr<TenantSession> session_;
  std::vector<Context> contexts_;
  int next_ctx_ = 0;
  int64_t requeues_ = 0;
};

}  // namespace reflex::client

#endif  // REFLEX_CLIENT_BLOCK_DEVICE_H_
