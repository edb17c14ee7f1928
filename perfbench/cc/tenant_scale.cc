// tenant_scale: the Figure 6b point with 6000 best-effort tenants on a
// 4-core server, each an open loop of 100 Poisson 1KB reads/s over its
// own connection. Below the ~2.5K tenants/core knee, so every tenant
// must get its offered load; per-tenant host cost dominates.

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

constexpr int kTenants = 6000;
constexpr int kCores = 4;
constexpr int kTenantsPerClient = 250;
constexpr int kClientMachines = 8;
constexpr double kTenantIops = 100.0;
constexpr sim::TimeNs kWarm = sim::Millis(60);
constexpr sim::TimeNs kEnd = sim::Millis(260);
/**
 * A tenant served below its offered rate builds a backlog; one request
 * waiting longer than the tenant's mean inter-arrival gap (10 ms) is
 * the first sign of it.
 */
constexpr auto kMaxLatency = static_cast<sim::TimeNs>(1e9 / kTenantIops);

uint64_t DeviceSeed(uint64_t seed) { return SubSeed(seed, 1); }
uint64_t ClientSeed(uint64_t seed, int c) { return SubSeed(seed, 100 + c); }
uint64_t TenantSeed(uint64_t seed, int t) { return SubSeed(seed, 10000 + t); }

std::string Inputs(uint64_t seed) {
  uint64_t h = DeviceSeed(seed);
  for (int c = 0; c < kTenants / kTenantsPerClient; ++c) {
    h = SubSeed(h, ClientSeed(seed, c));
  }
  for (int t = 0; t < kTenants; ++t) h = SubSeed(h, TenantSeed(seed, t));
  return "tenants=" + std::to_string(kTenants) + " seeds_hash=" +
         std::to_string(h);
}

RepResult Run(const RepOptions& opt) {
  RepResult res;
  const double t0 = HostNow();
  SpanRecorder* spans = opt.spans;
  double register_s = 0.0;

  core::ServerOptions options;
  options.num_threads = kCores;
  std::unique_ptr<bench::BenchWorld> world;
  {
    ScopedSpan span(spans, "setup.world");
    world = std::make_unique<bench::BenchWorld>(options, kClientMachines,
                                                DeviceSeed(opt.seed));
  }

  IoLog all;
  std::vector<IoLog> per_tenant(kTenants);
  std::vector<std::unique_ptr<client::ReflexClient>> clients;
  std::vector<std::unique_ptr<client::TenantSession>> sessions;
  std::vector<std::unique_ptr<ProbeSession>> probes;
  std::vector<std::unique_ptr<client::LoadGenerator>> generators;
  sessions.reserve(kTenants);
  probes.reserve(kTenants);
  generators.reserve(kTenants);
  for (int made = 0; made < kTenants; made += kTenantsPerClient) {
    const int c = made / kTenantsPerClient;
    client::ReflexClient::Options copts;
    copts.stack = net::StackCosts::IxDataplane();
    copts.num_connections = kTenantsPerClient;
    copts.seed = ClientSeed(opt.seed, c);
    copts.trace_sample_every = opt.traced ? 1 : 0;
    {
      ScopedSpan span(spans, "setup.connect");
      clients.push_back(std::make_unique<client::ReflexClient>(
          world->sim, *world->server,
          world->client_machines[c % world->client_machines.size()], copts));
      // One shared (tenant-unbound) connection per tenant, as Figure
      // 6b: sessions attach to this pool.
      for (int i = 0; i < kTenantsPerClient; ++i) {
        clients.back()->OpenConnection();
      }
    }
    for (int i = 0; i < kTenantsPerClient; ++i) {
      const int t = made + i;
      core::Tenant* tenant = nullptr;
      {
        ScopedSpan span(spans, "setup.register");
        const double r0 = HostNow();
        tenant = world->server->RegisterTenant(
            core::SloSpec{}, core::TenantClass::kBestEffort);
        register_s += HostNow() - r0;
      }
      if (tenant == nullptr) {
        res.check_failures.push_back("best-effort tenant not admitted");
        return res;
      }
      ScopedSpan span(spans, "setup.session");
      sessions.push_back(clients.back()->AttachSession(tenant->handle()));
      probes.push_back(std::make_unique<ProbeSession>(
          world->sim, *sessions.back(), all, &per_tenant[t], spans,
          "client.submit"));
      client::LoadGenSpec spec;
      spec.offered_iops = kTenantIops;
      spec.read_fraction = 1.0;
      spec.request_bytes = 1024;
      spec.seed = TenantSeed(opt.seed, t);
      generators.push_back(std::make_unique<client::LoadGenerator>(
          world->sim, *probes.back(), spec));
    }
  }
  res.host.Add("core.register_host_s", register_s, "s", Kind::kHost,
               Scope::kLayer, std::to_string(kTenants) + " RegisterTenant calls");
  if (opt.setup_only) {
    res.setup_s = HostNow() - t0;
    return res;
  }

  sim::Simulator& sim = world->sim;
  // The same two events run with tracing on or off, so the event
  // stream (and every sim metric) is identical in both runs.
  sim.ScheduleAt(kWarm, [&world] { world->server->tracer().Reset(kWarm); });
  obs::BreakdownTable table;
  sim.ScheduleAt(kEnd, [&world, &table] { table = world->server->tracer().Table(); });
  all.warm_end = kWarm;
  all.end = kEnd;
  for (IoLog& l : per_tenant) {
    l.warm_end = kWarm;
    l.end = kEnd;
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
  const double offered = kTenants * kTenantIops;
  const double achieved = all.ok_in_window / window_s;
  r.Add("sim_iops", achieved, "IOPS", Kind::kSim, Scope::kEndToEnd,
        "offered " + std::to_string(static_cast<int64_t>(offered)));
  AddLatency(r, "sim_read", all.read_ns);
  AddFailures(r, all);
  r.Add("offered_load_met_frac", Ratio(achieved, offered), "fraction",
        Kind::kSim, Scope::kEndToEnd, "achieved / offered IOPS");
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

  // Output checks: no I/O fails, every tenant is served without
  // backlog, and the aggregate matches the offered load.
  if (all.failed != 0) {
    res.check_failures.push_back(std::to_string(all.failed) + " I/Os failed");
  }
  int starved = 0;
  for (const IoLog& l : per_tenant) {
    if (l.issued == 0 || l.completed != l.issued || l.failed != 0 ||
        l.max_latency > kMaxLatency) {
      ++starved;
    }
  }
  if (starved > 0) {
    res.check_failures.push_back(
        std::to_string(starved) +
        " tenants not given their offered load (an I/O failed, never "
        "completed or waited over 10 ms)");
  }
  if (achieved < 0.97 * offered) {
    res.check_failures.push_back("aggregate IOPS " + std::to_string(achieved) +
                                 " below 97% of offered " +
                                 std::to_string(offered));
  }
  return res;
}

}  // namespace

const Workload& TenantScale() {
  static const Workload w{"tenant_scale", &Run, &Inputs};
  return w;
}

}  // namespace perfbench
