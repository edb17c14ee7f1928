#ifndef PERFBENCH_WORKLOAD_H_
#define PERFBENCH_WORKLOAD_H_

#include <chrono>
#include <cstdint>
#include <functional>
#include <string>
#include <vector>

#include "core/dataplane.h"
#include "core/reflex_server.h"
#include "flash/flash_device.h"
#include "probe.h"
#include "report.h"
#include "sim/simulator.h"
#include "spans.h"

namespace perfbench {

namespace core = ::reflex::core;
namespace flash = ::reflex::flash;

/** How one repetition of a workload runs. */
struct RepOptions {
  uint64_t seed = 1;
  /** Client trace sampling on, spans recorded into `spans`. */
  bool traced = false;
  SpanRecorder* spans = nullptr;
  /** Return right after set-up (extra set-up-time samples). */
  bool setup_only = false;
};

/** One repetition: a fresh world, set up and measured once. */
struct RepResult {
  /** Host seconds from the start of the repetition to the first
   * measured I/O. */
  double setup_s = 0.0;
  /** Host seconds of the measured phase. */
  double measure_s = 0.0;
  /** Client I/Os completed in the measured phase. */
  int64_t measured_ios = 0;
  int64_t attempted = 0;
  int64_t failed = 0;
  /** Deterministic metrics (end-to-end and per-layer). */
  Report sim;
  /** Sim metrics that exist only with tracing on (stage breakdown). */
  Report traced_sim;
  /** Host-time per-layer metrics of this repetition. */
  Report host;
  /** Output checks that failed, one line each. */
  std::vector<std::string> check_failures;
  /** Findings that do not fail the run (e.g. a missed tail target). */
  std::vector<std::string> notes;
};

struct Workload {
  const char* name;
  /** Runs one repetition. */
  RepResult (*run)(const RepOptions&);
  /**
   * Canonical description of the inputs generated from `seed` (seeds
   * handed to the program, hashes of generated data).
   */
  std::string (*inputs)(uint64_t seed);
};

const Workload& TenantScale();
const Workload& QosMixed();
const Workload& GraphRemote();
const Workload& ClusterR3();

// ---- helpers shared by the workloads ----

/** Host seconds since an arbitrary epoch (steady clock). */
inline double HostNow() {
  return std::chrono::duration<double>(
             std::chrono::steady_clock::now().time_since_epoch())
      .count();
}

/** Derives an independent 64-bit seed for stream `stream` of `seed`. */
uint64_t SubSeed(uint64_t seed, uint64_t stream);

/**
 * Advances `sim` in 1 ms slices (one "sim.run_until" span each) until
 * `done()` holds; returns false if `deadline` (simulated) passes first.
 */
bool RunUntilDone(sim::Simulator& sim, const std::function<bool()>& done,
                  sim::TimeNs deadline, SpanRecorder* spans);

/** Server-side counters at one instant, for measured-phase deltas. */
struct ServerSnapshot {
  core::DataplaneStats dp;
  flash::FlashDeviceStats flash;
  int64_t neg_limit_hits = 0;
  int64_t tx_bytes = 0;
  int64_t rx_bytes = 0;
  sim::TimeNs now = 0;
  int threads = 0;
};

ServerSnapshot Snapshot(core::ReflexServer& server);

/**
 * Adds the core.*, flash.* and net.* layer metrics of the measured
 * phase (per-server deltas `before` -> `after`, summed over servers).
 */
void AddServerLayers(Report& r, const std::vector<ServerSnapshot>& before,
                     const std::vector<ServerSnapshot>& after,
                     int64_t measured_ios);

/** Adds sim.events, sim.events_per_io and sim.peak_pending. */
void AddSimLayers(Report& r, int64_t events, int64_t measured_ios,
                  int64_t peak_pending);

/**
 * Adds stage.<interval>_us (mean per traced request, weighted by span
 * count across servers) from the servers' trace collectors.
 */
void AddStageLayers(Report& r, const std::vector<obs::BreakdownTable>& tables);

/** Adds the client.{timeouts,retries,failures} counters. */
void AddClientFaults(Report& r, int64_t timeouts, int64_t retries,
                     int64_t failures);

/**
 * Adds, as 0, the cache.*, graph.* and cluster.* counters a workload
 * without that layer does not report, so every workload reports the
 * same per-layer set.
 */
void AddAbsentLayers(Report& r);

/** Adds attempted/failed counts and failed_io_frac from a log. */
void AddFailures(Report& r, const IoLog& log);

}  // namespace perfbench

#endif  // PERFBENCH_WORKLOAD_H_
