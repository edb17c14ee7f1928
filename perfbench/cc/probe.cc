#include "probe.h"

#include <algorithm>
#include <utility>

namespace perfbench {
namespace {

sim::Task Relay(sim::Future<client::IoResult> in,
                sim::Promise<client::IoResult> out, IoLog* all, IoLog* own,
                bool is_read) {
  const client::IoResult r = co_await in;
  all->Record(r, is_read);
  if (own != nullptr) own->Record(r, is_read);
  out.Set(r);
}

/**
 * Calls `submit` (timed as a span), then returns a future the caller
 * awaits instead of the program's, resolved after logging.
 */
template <typename Submit>
sim::Future<client::IoResult> Track(sim::Simulator& sim, IoLog& all,
                                    IoLog* own, SpanRecorder* spans,
                                    const char* span_name, bool is_read,
                                    const Submit& submit) {
  sim::Future<client::IoResult> in;
  {
    ScopedSpan span(spans, span_name);
    in = submit();
  }
  ++all.issued;
  if (own != nullptr) ++own->issued;
  sim::Promise<client::IoResult> out(sim);
  sim::Future<client::IoResult> result = out.GetFuture();
  Relay(std::move(in), std::move(out), &all, own, is_read);
  return result;
}

}  // namespace

void IoLog::Record(const client::IoResult& r, bool is_read) {
  ++completed;
  if (!r.ok()) {
    ++failed;
    return;
  }
  max_latency = std::max(max_latency, r.Latency());
  if (r.complete_time < warm_end || r.complete_time >= end) return;
  ++ok_in_window;
  if (r.issue_time >= warm_end) {
    (is_read ? read_ns : write_ns).push_back(r.Latency());
  }
}

ProbeSession::ProbeSession(sim::Simulator& sim, client::IoSession& inner,
                           IoLog& all, IoLog* own, SpanRecorder* spans,
                           const char* span_name)
    : sim_(sim),
      inner_(inner),
      all_(all),
      own_(own),
      spans_(spans),
      span_name_(span_name) {}

sim::Future<client::IoResult> ProbeSession::Read(uint64_t lba,
                                                 uint32_t sectors,
                                                 uint8_t* data, int lane) {
  return Track(sim_, all_, own_, spans_, span_name_, /*is_read=*/true,
               [&] { return inner_.Read(lba, sectors, data, lane); });
}

sim::Future<client::IoResult> ProbeSession::Write(uint64_t lba,
                                                  uint32_t sectors,
                                                  uint8_t* data, int lane) {
  return Track(sim_, all_, own_, spans_, span_name_, /*is_read=*/false,
               [&] { return inner_.Write(lba, sectors, data, lane); });
}

ProbeBackend::ProbeBackend(sim::Simulator& sim,
                           client::StorageBackend& inner, IoLog& all,
                           SpanRecorder* spans)
    : sim_(sim), inner_(inner), all_(all), spans_(spans) {}

sim::Future<client::IoResult> ProbeBackend::ReadBytes(uint64_t offset,
                                                      uint32_t bytes,
                                                      uint8_t* data) {
  return Track(sim_, all_, nullptr, spans_, "client.submit", /*is_read=*/true,
               [&] { return inner_.ReadBytes(offset, bytes, data); });
}

sim::Future<client::IoResult> ProbeBackend::WriteBytes(uint64_t offset,
                                                       uint32_t bytes,
                                                       const uint8_t* data) {
  return Track(sim_, all_, nullptr, spans_, "client.submit",
               /*is_read=*/false,
               [&] { return inner_.WriteBytes(offset, bytes, data); });
}

}  // namespace perfbench
