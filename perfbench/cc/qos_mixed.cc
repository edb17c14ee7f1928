// qos_mixed: Figure 5 scenario 1 with the QoS scheduler on, one
// dataplane thread and 4KB I/O. Two latency-critical tenants send paced
// load (A: 120K IOPS, 100% reads; B: 70K IOPS, 80% reads; both p95 <=
// 500us) beside two best-effort closed loops at QD32 (C: 95% reads,
// D: 25% reads). Exercises Algorithm 1 and the flash write model with
// a handful of token-bound tenants.

#include <cstdio>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "client/load_generator.h"
#include "client/reflex_client.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace reflex;

constexpr sim::TimeNs kWarm = sim::Millis(150);
/** Twice the Figure 5 window, for enough write tail samples. */
constexpr sim::TimeNs kEnd = sim::Millis(1150);
constexpr sim::TimeNs kSloP95 = sim::Micros(500);
/** Twice the SLO: far below the >2 ms tail of an unisolated tenant. */
constexpr sim::TimeNs kIsolationP95 = 2 * kSloP95;

struct TenantSpec {
  const char* name;
  core::TenantClass cls;
  core::SloSpec slo;
  double offered_iops;  // paced open loop (LC); 0 => closed loop QD32
  double read_fraction;
};

// SLO reservations carry ~8% headroom over the offered load, as in
// Figure 5 (a bucket drained at exactly its fill rate queues without
// bound).
const TenantSpec kTenants[] = {
    {"A", core::TenantClass::kLatencyCritical,
     {130000, 1.0, kSloP95, 0.95, 4096}, 120000, 1.0},
    {"B", core::TenantClass::kLatencyCritical,
     {76000, 0.8, kSloP95, 0.95, 4096}, 70000, 0.8},
    {"C", core::TenantClass::kBestEffort, {}, 0, 0.95},
    {"D", core::TenantClass::kBestEffort, {}, 0, 0.25},
};
constexpr int kNumTenants = 4;

uint64_t DeviceSeed(uint64_t seed) { return SubSeed(seed, 1); }
uint64_t ClientSeed(uint64_t seed, int i) { return SubSeed(seed, 100 + i); }
uint64_t GenSeed(uint64_t seed, int i) { return SubSeed(seed, 200 + i); }

std::string Inputs(uint64_t seed) {
  std::string s = "device=" + std::to_string(DeviceSeed(seed));
  for (int i = 0; i < kNumTenants; ++i) {
    s += " client" + std::to_string(i) + "=" +
         std::to_string(ClientSeed(seed, i)) + " gen" + std::to_string(i) +
         "=" + std::to_string(GenSeed(seed, i));
  }
  return s;
}

RepResult Run(const RepOptions& opt) {
  RepResult res;
  const double t0 = HostNow();
  SpanRecorder* spans = opt.spans;
  double register_s = 0.0;

  core::ServerOptions options;
  options.num_threads = 1;
  options.qos.enforce = true;
  // Figure 5's burst allowance: absorbs runs of 10-token writes from B
  // without queueing its reads.
  options.qos.neg_limit = -150.0;
  std::unique_ptr<bench::BenchWorld> world;
  {
    ScopedSpan span(spans, "setup.world");
    world = std::make_unique<bench::BenchWorld>(options, 4,
                                                DeviceSeed(opt.seed));
  }

  IoLog all;
  IoLog per_tenant[kNumTenants];
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<ProbeSession>> probes;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
  for (int i = 0; i < kNumTenants; ++i) {
    const TenantSpec& t = kTenants[i];
    core::Tenant* tenant = nullptr;
    {
      ScopedSpan span(spans, "setup.register");
      const double r0 = HostNow();
      tenant = world->server->RegisterTenant(t.slo, t.cls);
      register_s += HostNow() - r0;
    }
    if (tenant == nullptr) {
      res.check_failures.push_back(std::string("tenant ") + t.name +
                                   " not admitted");
      return res;
    }
    ScopedSpan span(spans, "setup.connect");
    client::ReflexClient::Options copts;
    copts.stack = net::StackCosts::IxDataplane();
    copts.num_connections = 8;
    copts.seed = ClientSeed(opt.seed, i);
    copts.trace_sample_every = opt.traced ? 1 : 0;
    clients.push_back(std::make_unique<client::ReflexClient>(
        world->sim, *world->server,
        world->client_machines[i % world->client_machines.size()], copts));
    sessions.push_back(clients.back()->AttachSession(tenant->handle()));
    probes.push_back(std::make_unique<ProbeSession>(
        world->sim, *sessions.back(), all, &per_tenant[i], spans,
        "client.submit"));
    client::LoadGenSpec spec;
    spec.read_fraction = t.read_fraction;
    spec.request_bytes = 4096;
    if (t.offered_iops > 0) {
      spec.offered_iops = t.offered_iops;
      spec.poisson_arrivals = false;  // paced, as mutilate agents
    } else {
      spec.queue_depth = 32;
    }
    spec.seed = GenSeed(opt.seed, i);
    generators.push_back(std::make_unique<client::LoadGenerator>(
        world->sim, *probes.back(), spec));
  }
  res.host.Add("core.register_host_s", register_s, "s", Kind::kHost,
               Scope::kLayer, "4 RegisterTenant calls");
  if (opt.setup_only) {
    res.setup_s = HostNow() - t0;
    return res;
  }

  sim::Simulator& sim = world->sim;
  sim.ScheduleAt(kWarm, [&world] { world->server->tracer().Reset(kWarm); });
  obs::BreakdownTable table;
  sim.ScheduleAt(kEnd, [&world, &table] { table = world->server->tracer().Table(); });
  for (IoLog* l : {&all, &per_tenant[0], &per_tenant[1], &per_tenant[2],
                   &per_tenant[3]}) {
    l->warm_end = kWarm;
    l->end = kEnd;
  }
  const std::vector<ServerSnapshot> before = {Snapshot(*world->server)};
  const int64_t events0 = sim.EventsProcessed();
  res.setup_s = HostNow() - t0;

  const double m0 = HostNow();
  for (auto& g : generators) g->Run(kWarm, kEnd);
  const bool drained = RunUntilDone(
      sim,
      [&generators] {
        for (auto& g : generators) {
          if (!g->Done().Ready()) return false;
        }
        return true;
      },
      kEnd + sim::Seconds(5), spans);
  res.measure_s = HostNow() - m0;
  if (!drained) res.check_failures.push_back("load generators did not drain");

  const std::vector<ServerSnapshot> after = {Snapshot(*world->server)};
  res.measured_ios = all.completed;
  res.attempted = all.issued;
  res.failed = all.failed;

  Report& r = res.sim;
  const double window_s = sim::ToSeconds(kEnd - kWarm);
  r.Add("sim_iops", all.ok_in_window / window_s, "IOPS", Kind::kSim,
        Scope::kEndToEnd);
  AddLatency(r, "sim_read", all.read_ns);
  AddLatency(r, "sim_write", all.write_ns);
  AddFailures(r, all);

  int lc_met = 0;
  double be_iops = 0.0;
  for (int i = 0; i < kNumTenants; ++i) {
    const TenantSpec& t = kTenants[i];
    IoLog& l = per_tenant[i];
    const double iops = l.ok_in_window / window_s;
    const std::string p = std::string("tenant_") + t.name;
    r.Add(p + ".iops", iops, "IOPS", Kind::kSim, Scope::kEndToEnd);
    std::vector<int64_t> reads = l.read_ns;
    const std::optional<int64_t> p95 = Percentile(reads, 0.95);
    r.Add(p + ".read_p95_us", p95.value_or(0) / 1e3, "us", Kind::kSim,
          Scope::kEndToEnd, "n=" + std::to_string(l.read_ns.size()));
    if (t.cls != core::TenantClass::kLatencyCritical) {
      be_iops += iops;
      continue;
    }
    const bool got_iops = iops >= 0.97 * t.offered_iops;
    const bool met = got_iops && p95 && *p95 <= t.slo.latency;
    lc_met += met ? 1 : 0;
    char detail[128];
    std::snprintf(detail, sizeof detail,
                  "%s: read p95 %.1f us, %.0f IOPS of %.0f offered", t.name,
                  p95.value_or(0) / 1e3, iops, t.offered_iops);
    // Fatal: the tenant lost reserved throughput, or its tail left the
    // isolated regime (without the scheduler it exceeds 2 ms). The
    // 500 us target itself sits at the calibrated device limit, so
    // misses by a few percent are seed-dependent; they are counted in
    // lc_slo_met_frac and listed, not failed.
    if (!got_iops || !p95 || *p95 > kIsolationP95) {
      res.check_failures.push_back(std::string("LC tenant ") + detail);
    } else if (!met) {
      res.notes.push_back(
          std::string("LC tenant missed its 500 us p95 SLO: ") + detail);
    }
  }
  r.Add("lc_slo_met_frac", lc_met / 2.0, "fraction", Kind::kSim,
        Scope::kEndToEnd, "base: 2 LC tenants (p95 and offered IOPS)");
  r.Add("be_iops", be_iops, "IOPS", Kind::kSim, Scope::kEndToEnd,
        "tenants C and D");

  AddSimLayers(r, sim.EventsProcessed() - events0, res.measured_ios,
               static_cast<int64_t>(sim.PeakPendingEvents()));
  AddServerLayers(r, before, after, res.measured_ios);
  int64_t timeouts = 0, retries = 0, failures = 0;
  for (const auto& c : clients) {
    timeouts += c->fault_stats().timeouts;
    retries += c->fault_stats().retries;
    failures += c->fault_stats().failures;
  }
  AddClientFaults(r, timeouts, retries, failures);
  if (opt.traced) AddStageLayers(res.traced_sim, {table});
  if (all.failed != 0) {
    res.check_failures.push_back(std::to_string(all.failed) + " I/Os failed");
  }
  return res;
}

}  // namespace

const Workload& QosMixed() {
  static const Workload w{"qos_mixed", &Run, &Inputs};
  return w;
}

}  // namespace perfbench
