#include "workload.h"

#include <algorithm>

#include "stats.h"

namespace perfbench {

uint64_t SubSeed(uint64_t seed, uint64_t stream) {
  // splitmix64 over (seed, stream).
  uint64_t z = seed * 0x9e3779b97f4a7c15ULL + stream + 0x632be59bd9b4e019ULL;
  z = (z ^ (z >> 30)) * 0xbf58476d1ce4e5b9ULL;
  z = (z ^ (z >> 27)) * 0x94d049bb133111ebULL;
  return z ^ (z >> 31);
}

bool RunUntilDone(sim::Simulator& sim, const std::function<bool()>& done,
                  sim::TimeNs deadline, SpanRecorder* spans) {
  while (!done()) {
    if (sim.Now() >= deadline) return false;
    ScopedSpan span(spans, "sim.run_until");
    sim.RunUntil(sim.Now() + sim::Millis(1));
  }
  return true;
}

ServerSnapshot Snapshot(core::ReflexServer& server) {
  ServerSnapshot s;
  s.dp = server.AggregateStats();
  s.flash = server.device().stats();
  for (const core::Tenant* t : server.tenants()) {
    s.neg_limit_hits += t->neg_limit_hits;
  }
  s.tx_bytes = server.machine()->tx_bytes();
  s.rx_bytes = server.machine()->rx_bytes();
  s.now = server.sim().Now();
  s.threads = server.num_active_threads();
  return s;
}

void AddServerLayers(Report& r, const std::vector<ServerSnapshot>& before,
                     const std::vector<ServerSnapshot>& after,
                     int64_t measured_ios) {
  int64_t iterations = 0, rounds = 0, batch = 0, errors = 0, neg = 0;
  int64_t reads = 0, writes = 0, gc = 0, qfull = 0, tx = 0, rx = 0;
  double busy_ns = 0, sched_ns = 0, tcp_ns = 0, thread_ns = 0;
  for (size_t i = 0; i < before.size(); ++i) {
    const ServerSnapshot& a = before[i];
    const ServerSnapshot& b = after[i];
    iterations += b.dp.iterations - a.dp.iterations;
    rounds += b.dp.sched_rounds - a.dp.sched_rounds;
    batch += b.dp.batch_sum - a.dp.batch_sum;
    errors += b.dp.error_responses - a.dp.error_responses;
    busy_ns += static_cast<double>(b.dp.busy_ns - a.dp.busy_ns);
    sched_ns += static_cast<double>(b.dp.sched_ns - a.dp.sched_ns);
    tcp_ns += static_cast<double>(b.dp.tcp_ns - a.dp.tcp_ns);
    thread_ns += static_cast<double>(b.now - a.now) * b.threads;
    neg += b.neg_limit_hits - a.neg_limit_hits;
    reads += b.flash.reads_completed - a.flash.reads_completed;
    writes += b.flash.writes_completed - a.flash.writes_completed;
    gc += b.flash.gc_stalls - a.flash.gc_stalls;
    qfull += b.flash.queue_full_rejections - a.flash.queue_full_rejections;
    tx += b.tx_bytes - a.tx_bytes;
    rx += b.rx_bytes - a.rx_bytes;
  }
  const auto d = [](int64_t v) { return static_cast<double>(v); };
  const Kind S = Kind::kSim;
  const Scope L = Scope::kLayer;
  const std::string per_io = "base: " + std::to_string(measured_ios) + " I/Os";
  r.Add("core.sched_rounds", d(rounds), "count", S, L);
  r.Add("core.iterations", d(iterations), "count", S, L);
  r.Add("core.mean_batch", Ratio(d(batch), d(iterations)), "req/iter", S, L,
        "base: " + std::to_string(iterations) + " iterations");
  r.Add("core.busy_frac", Ratio(busy_ns, thread_ns), "fraction", S, L,
        "base: thread-time of the measured phase");
  r.Add("core.sched_frac", Ratio(sched_ns, busy_ns), "fraction", S, L,
        "base: busy time");
  r.Add("core.tcp_frac", Ratio(tcp_ns, busy_ns), "fraction", S, L,
        "base: busy time");
  r.Add("core.neg_limit_hits", d(neg), "count", S, L);
  r.Add("core.error_responses", d(errors), "count", S, L);
  r.Add("flash.reads", d(reads), "count", S, L);
  r.Add("flash.writes", d(writes), "count", S, L);
  r.Add("flash.gc_stalls", d(gc), "count", S, L);
  r.Add("flash.queue_full_rejections", d(qfull), "count", S, L);
  r.Add("net.tx_bytes_per_io", Ratio(d(tx), d(measured_ios)), "B/io", S, L,
        per_io + ", server NIC");
  r.Add("net.rx_bytes_per_io", Ratio(d(rx), d(measured_ios)), "B/io", S, L,
        per_io + ", server NIC");
}

void AddSimLayers(Report& r, int64_t events, int64_t measured_ios,
                  int64_t peak_pending) {
  r.Add("sim.events", static_cast<double>(events), "count", Kind::kSim,
        Scope::kLayer, "measured phase");
  r.Add("sim.events_per_io",
        Ratio(static_cast<double>(events), static_cast<double>(measured_ios)),
        "events/io", Kind::kSim, Scope::kLayer,
        "base: " + std::to_string(measured_ios) + " I/Os");
  r.Add("sim.peak_pending", static_cast<double>(peak_pending), "count",
        Kind::kSim, Scope::kLayer, "whole repetition");
}

void AddStageLayers(Report& r, const std::vector<obs::BreakdownTable>& tables) {
  // Weighted by span count, so a multi-server workload reports the
  // mean over all traced requests.
  std::vector<std::string> order;
  std::vector<double> sum;
  int64_t spans = 0;
  for (const obs::BreakdownTable& t : tables) {
    spans += t.spans;
    for (const obs::BreakdownRow& row : t.rows) {
      auto it = std::find(order.begin(), order.end(), row.interval);
      if (it == order.end()) {
        order.push_back(row.interval);
        sum.push_back(0.0);
        it = order.end() - 1;
      }
      sum[it - order.begin()] += row.mean_per_span_us * t.spans;
    }
  }
  for (size_t i = 0; i < order.size(); ++i) {
    r.Add("stage." + order[i] + "_us", Ratio(sum[i], spans), "us",
          Kind::kSim, Scope::kLayer,
          "mean per traced request, n=" + std::to_string(spans));
  }
  r.Add("stage.spans", static_cast<double>(spans), "count", Kind::kSim,
        Scope::kLayer);
}

void AddClientFaults(Report& r, int64_t timeouts, int64_t retries,
                     int64_t failures) {
  r.Add("client.timeouts", static_cast<double>(timeouts), "count", Kind::kSim,
        Scope::kLayer);
  r.Add("client.retries", static_cast<double>(retries), "count", Kind::kSim,
        Scope::kLayer);
  r.Add("client.failures", static_cast<double>(failures), "count", Kind::kSim,
        Scope::kLayer);
}

void AddAbsentLayers(Report& r) {
  static const std::pair<const char*, const char*> kLayers[] = {
      {"cache.hit_ratio", "fraction"},
      {"cache.evictions", "count"},
      {"cache.invalidated_refetches", "count"},
      {"graph.edges_scanned", "count"},
      {"graph.wcc.flash_reads", "count"},
      {"graph.pagerank.flash_reads", "count"},
      {"graph.bfs.flash_reads", "count"},
      {"graph.scc.flash_reads", "count"},
      {"cluster.requests_split", "count"},
      {"cluster.read_failovers", "count"},
      {"cluster.wrong_shard_retries", "count"},
      {"cluster.read_imbalance", "ratio"},
  };
  for (const auto& [name, unit] : kLayers) {
    if (r.Find(name) == nullptr) {
      r.Add(name, 0.0, unit, Kind::kSim, Scope::kLayer,
            "layer not used by this workload");
    }
  }
}

void AddFailures(Report& r, const IoLog& log) {
  r.Add("io_attempted", static_cast<double>(log.issued), "count", Kind::kSim,
        Scope::kEndToEnd);
  r.Add("io_failed", static_cast<double>(log.failed), "count", Kind::kSim,
        Scope::kEndToEnd, "timeouts, refusals and error responses");
  r.Add("failed_io_frac",
        Ratio(static_cast<double>(log.failed), static_cast<double>(log.issued)),
        "fraction", Kind::kSim, Scope::kEndToEnd,
        "base: " + std::to_string(log.issued) + " I/Os attempted");
}

}  // namespace perfbench
