// cluster_r3: the Figure 6d replication config with 4 shards and R=3.
// Four latency-critical tenants with Zipf skew (tenant k offers rate
// proportional to 1/(k+1), 50K IOPS per shard in total) send 99% reads
// over Zipf-popular stripes. Reads use power-of-two steering, writes
// fan out to every replica, and one replica's link is cut for 50 ms
// mid-window and stays out of read steering afterwards (no resync is
// modelled, so it is not reinstated). Every payload is version-stamped and every read is
// checked against the consistency oracle. No autoscaler or migration.

#include <algorithm>
#include <cstring>
#include <deque>
#include <memory>
#include <string>
#include <vector>

#include "bench/common.h"
#include "cluster/cluster_client.h"
#include "cluster/flash_cluster.h"
#include "sim/fault.h"
#include "simtest/oracle.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace reflex;

constexpr int kShards = 4;
constexpr int kReplication = 3;
constexpr int kNumTenants = 4;
constexpr double kPerShardIops = 50000.0;
constexpr double kReadFraction = 0.99;
constexpr double kZipfTheta = 0.99;
constexpr uint32_t kIoSectors = 8;
constexpr sim::TimeNs kSloP95 = sim::Micros(500);
constexpr sim::TimeNs kWarm = sim::Millis(50);
/** 1.5x the Figure 6d window, for enough write tail samples. */
constexpr sim::TimeNs kEnd = kWarm + sim::Millis(600);
constexpr sim::TimeNs kKillStart = kWarm + sim::Millis(100);
constexpr sim::TimeNs kKillDuration = sim::Millis(50);
/**
 * A payload buffer is reused only this long after its I/O completed,
 * far beyond any retry or failover of that I/O, so a late copy from an
 * abandoned attempt cannot land in a buffer that a newer I/O owns.
 */
constexpr sim::TimeNs kBufferQuarantine = sim::Millis(100);

uint64_t ClusterSeed(uint64_t seed) { return SubSeed(seed, 1); }
uint64_t FaultSeed(uint64_t seed) { return SubSeed(seed, 2); }
uint64_t ClientSeed(uint64_t seed, int k) { return SubSeed(seed, 100 + k); }
uint64_t LoadSeed(uint64_t seed, int k) { return SubSeed(seed, 200 + k); }

std::string Inputs(uint64_t seed) {
  std::string s = "cluster=" + std::to_string(ClusterSeed(seed)) +
                  " fault=" + std::to_string(FaultSeed(seed));
  for (int k = 0; k < kNumTenants; ++k) {
    s += " client" + std::to_string(k) + "=" +
         std::to_string(ClientSeed(seed, k)) + " load" + std::to_string(k) +
         "=" + std::to_string(LoadSeed(seed, k));
  }
  return s;
}

/** 4KB payload buffers, recycled after kBufferQuarantine. */
class BufferPool {
 public:
  explicit BufferPool(sim::Simulator& sim) : sim_(sim) {}

  uint8_t* Acquire() {
    if (!free_.empty() && free_.front().since + kBufferQuarantine <= sim_.Now()) {
      uint8_t* b = free_.front().buf;
      free_.pop_front();
      return b;
    }
    owned_.push_back(std::make_unique<uint8_t[]>(kIoSectors * 512));
    return owned_.back().get();
  }
  void Release(uint8_t* buf) { free_.push_back({buf, sim_.Now()}); }

 private:
  struct Freed {
    uint8_t* buf;
    sim::TimeNs since;
  };
  sim::Simulator& sim_;
  std::vector<std::unique_ptr<uint8_t[]>> owned_;
  std::deque<Freed> free_;
};

/**
 * Open-loop Poisson load of one tenant: Zipf stripe popularity
 * scrambled by a per-tenant salt (each tenant has its own hot set),
 * version-stamped writes and oracle-checked reads.
 */
class TenantLoad {
 public:
  TenantLoad(sim::Simulator& sim, client::IoSession& session,
         simtest::ConsistencyOracle& oracle, BufferPool& pool, int tenant,
         double iops, uint64_t num_stripes, uint32_t stripe_sectors,
         uint64_t seed)
      : sim_(sim),
        session_(session),
        oracle_(oracle),
        pool_(pool),
        tenant_(tenant),
        rng_(seed, "perfbench_cluster_r3"),
        mean_gap_(1e9 / iops),
        num_stripes_(num_stripes),
        stripe_sectors_(stripe_sectors),
        salt_(1 + static_cast<uint64_t>(tenant) * 7919) {}

  void Start() { ScheduleNext(); }
  bool Idle() const { return outstanding_ == 0; }

 private:
  void ScheduleNext() {
    const auto gap = static_cast<sim::TimeNs>(rng_.NextExponential(mean_gap_));
    sim_.ScheduleAfter(gap, [this] {
      if (sim_.Now() >= kEnd) return;
      ++outstanding_;
      IssueOne();
      ScheduleNext();
    });
  }

  sim::Task IssueOne() {
    const uint64_t rank = rng_.NextZipf(num_stripes_, kZipfTheta);
    const uint64_t stripe = (rank * 2654435761ULL + salt_) % num_stripes_;
    const uint64_t lba = stripe * stripe_sectors_ +
                         rng_.NextBounded(stripe_sectors_ / kIoSectors) *
                             kIoSectors;
    const bool is_read = rng_.NextBernoulli(kReadFraction);
    uint8_t* buf = pool_.Acquire();
    // if/else rather than a conditional inside co_await: GCC 12 would
    // materialise both operand futures (see bench/fig6d_replication.cc).
    if (is_read) {
      std::memset(buf, 0, kIoSectors * 512);
      const client::IoResult r = co_await session_.Read(lba, kIoSectors, buf);
      oracle_.EndRead(lba, kIoSectors, buf, r);
    } else {
      const uint64_t version =
          oracle_.BeginWrite(tenant_, lba, kIoSectors, sim_.Now());
      simtest::ConsistencyOracle::StampPayload(buf, version, lba, kIoSectors);
      const client::IoResult r =
          co_await session_.Write(lba, kIoSectors, buf);
      oracle_.EndWrite(version, r);
    }
    pool_.Release(buf);
    --outstanding_;
  }

  sim::Simulator& sim_;
  client::IoSession& session_;
  simtest::ConsistencyOracle& oracle_;
  BufferPool& pool_;
  int tenant_;
  sim::Rng rng_;
  double mean_gap_;
  uint64_t num_stripes_;
  uint32_t stripe_sectors_;
  uint64_t salt_;
  int64_t outstanding_ = 0;
};

RepResult Run(const RepOptions& opt) {
  RepResult res;
  const double t0 = HostNow();
  SpanRecorder* spans = opt.spans;

  std::unique_ptr<sim::Simulator> sim_owner;
  std::unique_ptr<net::Network> net;
  std::unique_ptr<cluster::FlashCluster> flash_cluster;
  {
    ScopedSpan span(spans, "setup.world");
    sim_owner = std::make_unique<sim::Simulator>();
    net = std::make_unique<net::Network>(*sim_owner);
    cluster::FlashClusterOptions options;
    options.num_shards = kShards;
    options.calibration = bench::CalibrationA();
    options.shard_map.replication = kReplication;
    // Mixed LC load: same burst allowance as Figure 5.
    options.server.qos.neg_limit = -150.0;
    options.seed = ClusterSeed(opt.seed);
    flash_cluster =
        std::make_unique<cluster::FlashCluster>(*sim_owner, *net, options);
  }
  sim::Simulator& sim = *sim_owner;
  const uint32_t stripe_sectors =
      flash_cluster->shard_map().options().stripe_sectors;
  const uint64_t num_stripes =
      flash_cluster->shard_map().capacity_sectors() / stripe_sectors;

  double weight_sum = 0.0;
  for (int k = 0; k < kNumTenants; ++k) weight_sum += 1.0 / (k + 1);
  const double total_iops = kShards * kPerShardIops;

  IoLog all;
  IoLog per_tenant[kNumTenants];
  simtest::ConsistencyOracle oracle;
  BufferPool pool(sim);
  std::vector<double> rates;
  std::vector<std::unique_ptr<cluster::ClusterClient>> clients;
  std::vector<std::unique_ptr<cluster::ClusterSession>> sessions;
  std::vector<std::unique_ptr<ProbeSession>> probes;
  std::vector<std::unique_ptr<TenantLoad>> loads;
  double register_s = 0.0;
  for (int k = 0; k < kNumTenants; ++k) {
    const double rate = total_iops * (1.0 / (k + 1)) / weight_sum;
    rates.push_back(rate);
    // Reservation headroom over the offered rate, write fan-out over R
    // shards, and N/(N-1) failover headroom for the kill window (the
    // Figure 6d provisioning).
    core::SloSpec slo;
    slo.iops = static_cast<uint32_t>(rate * 1.3 * kShards / (kShards - 1));
    slo.read_fraction = 1.0 - (1.0 - kReadFraction) * kReplication;
    slo.latency = kSloP95;
    cluster::AdmitResult admit;
    cluster::ClusterTenant tenant;
    {
      ScopedSpan span(spans, "setup.register");
      const double r0 = HostNow();
      tenant = flash_cluster->control_plane().RegisterTenant(
          slo, core::TenantClass::kLatencyCritical, &admit);
      register_s += HostNow() - r0;
    }
    if (!tenant.valid()) {
      res.check_failures.push_back(std::string("tenant not admitted: ") +
                                   cluster::AdmitKindName(admit.kind));
      return res;
    }
    ScopedSpan span(spans, "setup.connect");
    cluster::ClusterClient::Options copts;
    copts.client.stack = net::StackCosts::IxDataplane();
    copts.client.num_connections = 2;
    copts.client.seed = ClientSeed(opt.seed, k);
    copts.client.retry.request_timeout = sim::Millis(2);
    copts.client.retry.max_retries = 5;
    copts.client.retry.backoff_base = sim::Micros(100);
    copts.client.retry.reconnect_after_timeouts = 2;
    copts.client.trace_sample_every = opt.traced ? 1 : 0;
    copts.steering = cluster::SteeringPolicy::kPowerOfTwo;
    clients.push_back(std::make_unique<cluster::ClusterClient>(
        *flash_cluster, net->AddMachine("client-" + std::to_string(k)),
        copts));
    sessions.push_back(clients.back()->AttachSession(tenant));
    if (sessions.back() == nullptr) {
      res.check_failures.push_back("cluster session refused");
      return res;
    }
    probes.push_back(std::make_unique<ProbeSession>(
        sim, *sessions.back(), all, &per_tenant[k], spans, "cluster.submit"));
    loads.push_back(std::make_unique<TenantLoad>(
        sim, *probes.back(), oracle, pool, k, rate, num_stripes,
        stripe_sectors, LoadSeed(opt.seed, k)));
  }
  res.host.Add("core.register_host_s", register_s, "s", Kind::kHost,
               Scope::kLayer, "4 cluster-wide registrations");
  if (opt.setup_only) {
    res.setup_s = HostNow() - t0;
    return res;
  }

  const int kill_shard = kShards - 1;
  sim::FaultPlan plan(sim, FaultSeed(opt.seed));
  net->SetFaultPlan(&plan);
  plan.ScheduleWindow(
      sim::FaultKind::kNetLinkFlap, kKillStart, kKillDuration,
      static_cast<uint64_t>(flash_cluster->machine(kill_shard)->id()));
  // The cut replica is never reinstated: ClusterClient::ReinstateShard
  // declares an out-of-band resync done, and nothing here performs one,
  // so a reinstated replica would serve the writes it missed as stale.
  sim.ScheduleAt(kWarm, [&flash_cluster] {
    for (int s = 0; s < kShards; ++s) {
      flash_cluster->server(s).tracer().Reset(kWarm);
    }
  });
  std::vector<obs::BreakdownTable> tables(kShards);
  sim.ScheduleAt(kEnd, [&flash_cluster, &tables] {
    for (int s = 0; s < kShards; ++s) {
      tables[s] = flash_cluster->server(s).tracer().Table();
    }
  });
  for (IoLog* l : {&all, &per_tenant[0], &per_tenant[1], &per_tenant[2],
                   &per_tenant[3]}) {
    l->warm_end = kWarm;
    l->end = kEnd;
  }
  std::vector<ServerSnapshot> before;
  for (int s = 0; s < kShards; ++s) {
    before.push_back(Snapshot(flash_cluster->server(s)));
  }
  const int64_t events0 = sim.EventsProcessed();
  res.setup_s = HostNow() - t0;

  const double m0 = HostNow();
  for (auto& l : loads) l->Start();
  const bool drained = RunUntilDone(
      sim,
      [&sim, &loads] {
        if (sim.Now() < kEnd) return false;
        for (auto& l : loads) {
          if (!l->Idle()) return false;
        }
        return true;
      },
      kEnd + sim::Seconds(5), spans);
  res.measure_s = HostNow() - m0;
  net->SetFaultPlan(nullptr);
  if (!drained) res.check_failures.push_back("tenant loads did not drain");

  std::vector<ServerSnapshot> after;
  for (int s = 0; s < kShards; ++s) {
    after.push_back(Snapshot(flash_cluster->server(s)));
  }
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
  for (int k = 0; k < kNumTenants; ++k) {
    std::vector<int64_t> reads = per_tenant[k].read_ns;
    const std::optional<int64_t> p95 = Percentile(reads, 0.95);
    const double iops = per_tenant[k].ok_in_window / window_s;
    lc_met += p95 && *p95 <= kSloP95 && iops >= 0.97 * rates[k];
  }
  r.Add("lc_slo_met_frac", lc_met / static_cast<double>(kNumTenants),
        "fraction", Kind::kSim, Scope::kEndToEnd,
        "base: 4 LC tenants (read p95 and offered IOPS over the window)");

  AddSimLayers(r, sim.EventsProcessed() - events0, res.measured_ios,
               static_cast<int64_t>(sim.PeakPendingEvents()));
  AddServerLayers(r, before, after, res.measured_ios);
  int64_t timeouts = 0, retries = 0, failures = 0;
  for (auto& c : clients) {
    for (int s = 0; s < kShards; ++s) {
      const client::ReflexClient::FaultStats& fs =
          c->shard_client(s).fault_stats();
      timeouts += fs.timeouts;
      retries += fs.retries;
      failures += fs.failures;
    }
  }
  AddClientFaults(r, timeouts, retries, failures);
  int64_t split = 0, failovers = 0, wrong_shard = 0;
  std::vector<int64_t> served(kShards, 0);
  for (auto& s : sessions) {
    split += s->requests_split();
    failovers += s->read_failovers();
    wrong_shard += s->wrong_shard_retries();
    for (int i = 0; i < kShards; ++i) served[i] += s->shard_reads_served(i);
  }
  const auto [lo, hi] = std::minmax_element(served.begin(), served.end());
  r.Add("cluster.requests_split", static_cast<double>(split), "count",
        Kind::kSim, Scope::kLayer);
  r.Add("cluster.read_failovers", static_cast<double>(failovers), "count",
        Kind::kSim, Scope::kLayer);
  r.Add("cluster.wrong_shard_retries", static_cast<double>(wrong_shard),
        "count", Kind::kSim, Scope::kLayer);
  r.Add("cluster.read_imbalance",
        Ratio(static_cast<double>(*hi), static_cast<double>(*lo)), "ratio",
        Kind::kSim, Scope::kLayer, "max/min reads served per shard");
  r.Add("cluster.reads_checked", static_cast<double>(oracle.reads_checked()),
        "count", Kind::kSim, Scope::kLayer, "oracle-validated payloads");
  if (opt.traced) AddStageLayers(res.traced_sim, tables);

  if (all.failed != 0) {
    res.check_failures.push_back(std::to_string(all.failed) + " I/Os failed");
  }
  if (oracle.reads_checked() == 0) {
    res.check_failures.push_back("no read payload was checked");
  }
  for (size_t i = 0; i < oracle.violations().size() && i < 5; ++i) {
    const simtest::DataViolation& v = oracle.violations()[i];
    res.check_failures.push_back(
        "read of lba " + std::to_string(v.lba) + " at " + std::to_string(v.time) + " ns returned version " +
        std::to_string(v.observed) + ", newest committed " +
        std::to_string(v.expected) + " (" + v.kind + ")");
  }
  if (oracle.violations().size() > 5) {
    res.check_failures.push_back(
        std::to_string(oracle.violations().size()) + " violations in all");
  }
  return res;
}

}  // namespace

const Workload& ClusterR3() {
  static const Workload w{"cluster_r3", &Run, &Inputs};
  return w;
}

}  // namespace perfbench
