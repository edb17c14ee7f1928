#ifndef PERFBENCH_PROBE_H_
#define PERFBENCH_PROBE_H_

#include <cstdint>
#include <limits>
#include <vector>

#include "client/io_result.h"
#include "client/io_session.h"
#include "client/storage_backend.h"
#include "sim/simulator.h"
#include "sim/task.h"
#include "spans.h"

namespace perfbench {

namespace client = ::reflex::client;
namespace obs = ::reflex::obs;
namespace sim = ::reflex::sim;

/**
 * Every I/O the benchmark handed to the program, as its caller saw it.
 * Latency samples are exact (ns) and cover I/Os issued at or after
 * `warm_end` that completed successfully before `end` -- the window
 * rule of client::LoadGenerator.
 */
struct IoLog {
  sim::TimeNs warm_end = 0;
  sim::TimeNs end = std::numeric_limits<sim::TimeNs>::max();

  int64_t issued = 0;
  int64_t completed = 0;
  int64_t failed = 0;
  /** Successful completions inside [warm_end, end). */
  int64_t ok_in_window = 0;
  sim::TimeNs max_latency = 0;
  std::vector<int64_t> read_ns;
  std::vector<int64_t> write_ns;

  void Record(const client::IoResult& r, bool is_read);
};

/**
 * Forwarding IoSession: hands every call to `inner` unchanged and logs
 * the completion into a shared IoLog and a per-session one. It adds
 * one zero-delay simulator event per I/O (the relay back to the
 * caller) and no simulated time. With a SpanRecorder, the host time of
 * each call into `inner` is recorded as a `span_name` span.
 */
class ProbeSession : public client::IoSession {
 public:
  ProbeSession(sim::Simulator& sim, client::IoSession& inner, IoLog& all,
               IoLog* own, SpanRecorder* spans, const char* span_name);

  sim::Future<client::IoResult> Read(uint64_t lba, uint32_t sectors,
                                     uint8_t* data, int lane) override;
  sim::Future<client::IoResult> Write(uint64_t lba, uint32_t sectors,
                                      uint8_t* data, int lane) override;

  uint32_t tenant_handle() const override { return inner_.tenant_handle(); }
  int num_lanes() const override { return inner_.num_lanes(); }
  uint64_t capacity_sectors() const override {
    return inner_.capacity_sectors();
  }
  uint32_t sector_bytes() const override { return inner_.sector_bytes(); }
  uint32_t sectors_per_page() const override {
    return inner_.sectors_per_page();
  }

 private:
  sim::Simulator& sim_;
  client::IoSession& inner_;
  IoLog& all_;
  IoLog* own_;
  SpanRecorder* spans_;
  const char* span_name_;
};

/** Forwarding StorageBackend; see ProbeSession. */
class ProbeBackend : public client::StorageBackend {
 public:
  ProbeBackend(sim::Simulator& sim, client::StorageBackend& inner,
               IoLog& all, SpanRecorder* spans);

  sim::Future<client::IoResult> ReadBytes(uint64_t offset, uint32_t bytes,
                                          uint8_t* data) override;
  sim::Future<client::IoResult> WriteBytes(uint64_t offset, uint32_t bytes,
                                           const uint8_t* data) override;
  uint64_t CapacityBytes() const override { return inner_.CapacityBytes(); }
  const char* name() const override { return inner_.name(); }

 private:
  sim::Simulator& sim_;
  client::StorageBackend& inner_;
  IoLog& all_;
  SpanRecorder* spans_;
};

}  // namespace perfbench

#endif  // PERFBENCH_PROBE_H_
