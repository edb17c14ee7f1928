// Pinned golden for Algorithm 1's best-effort walk. A seeded
// bare-scheduler run -- two schedulers sharing one device, ~2,000 BE
// tenants at one shared fair share, a few LC tenants at random rates,
// sparse random arrivals and membership churn -- is recorded per round
// (a hash of the (tenant, cookie) submission sequence, the global
// bucket's micro-token balance and the SchedulerShared ledger totals
// printed %.17g) and compared against
// testdata/be_walk_golden.txt, which was produced by the per-tenant
// walk that visited every BE tenant every round. Any change to the
// walk's arithmetic, ordering or rotation shows up as the first
// diverging round.

#include <gtest/gtest.h>

#include <cinttypes>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <memory>
#include <string>
#include <vector>

#include "core/cost_model.h"
#include "core/qos_policy.h"
#include "core/qos_scheduler.h"
#include "core/tenant.h"
#include "obs/hooks.h"
#include "obs/metrics.h"
#include "sim/random.h"
#include "sim/time.h"

namespace reflex::core {
namespace {

constexpr int kRounds = 300;
constexpr int kBeTenants = 2000;
constexpr int kLcTenants = 4;

uint64_t Fnv1a(uint64_t h, uint64_t v) {
  for (int i = 0; i < 8; ++i) {
    h ^= (v >> (8 * i)) & 0xff;
    h *= 0x100000001b3ULL;
  }
  return h;
}

std::string Fmt(const char* fmt, auto... args) {
  char buf[512];
  std::snprintf(buf, sizeof(buf), fmt, args...);
  return buf;
}

struct DeviceIo {
  Tenant* tenant;
  int64_t bytes;
};

struct Scenario {
  std::vector<std::string> lines;
  /** Rounds in which some BE tenant's claim came up short: the global
   * bucket ran dry during the walk. */
  int dry_rounds = 0;
};

Scenario RunScenario(QosPolicyKind kind) {
  Scenario out;
  sim::Rng rng(20261017, "be_walk_golden");
  SchedulerShared shared;
  shared.num_threads = 2;
  // A non-dyadic read-only price makes queued-cost sums inexact, so
  // drained queues can leave rounding residue behind.
  RequestCostModel cost_model(10.0, 0.7);
  obs::MetricsRegistry registry;
  QosScheduler::Config config;
  config.policy = kind;
  QosScheduler sched0(shared, cost_model, config);
  QosScheduler sched1(shared, cost_model, config);
  sched0.set_metrics(obs::SchedulerMetrics::ForThread(registry, 0));
  sched1.set_metrics(obs::SchedulerMetrics::ForThread(registry, 1));
  QosScheduler* scheds[2] = {&sched0, &sched1};

  shared.be_token_rate = 1000.0 + rng.NextDouble() * 3000.0;

  std::vector<std::unique_ptr<Tenant>> tenants;  // index = handle - 1
  std::vector<int> home;  // scheduler per tenant, -1 once dropped
  std::vector<uint64_t> next_cookie;
  auto add = [&](TenantClass cls, int s) {
    SloSpec slo;
    slo.latency = sim::Micros(500);
    tenants.push_back(std::make_unique<Tenant>(
        static_cast<uint32_t>(tenants.size() + 1), cls, slo));
    Tenant* t = tenants.back().get();
    if (t->IsLatencyCritical()) {
      t->set_token_rate(20000.0 + rng.NextDouble() * 180000.0);
    }
    scheds[s]->AddTenant(t);
    home.push_back(s);
    next_cookie.push_back(0);
  };
  for (int i = 0; i < kBeTenants; ++i) add(TenantClass::kBestEffort, i % 2);
  for (int i = 0; i < kLcTenants; ++i) {
    add(TenantClass::kLatencyCritical, i % 2);
  }

  std::vector<DeviceIo> device;
  uint64_t hash = 0;
  auto submit = [&](Tenant& t, PendingIo&& io) {
    hash = Fnv1a(Fnv1a(hash, t.handle()), io.msg.cookie);
    if (io.msg.type == ReqType::kBarrier) return;
    const int64_t bytes = int64_t{io.msg.sectors} * kSectorBytes;
    ++t.inflight;
    QosScheduler::BookDeviceBytes(t, bytes, 0);
    device.push_back(DeviceIo{&t, bytes});
  };
  auto random_live = [&](bool be_only) -> size_t {
    for (;;) {
      const size_t idx = rng.NextBounded(tenants.size());
      if (home[idx] < 0) continue;
      if (be_only && tenants[idx]->IsLatencyCritical()) continue;
      return idx;
    }
  };

  sim::TimeNs now = 0;
  for (int round = 0; round < kRounds; ++round) {
    // Device completions: a random prefix of the in-flight I/Os.
    const size_t done = rng.NextBounded(device.size() + 1);
    for (size_t i = 0; i < done; ++i) {
      --device[i].tenant->inflight;
      QosScheduler::BookDeviceBytes(*device[i].tenant, -device[i].bytes,
                                    device[i].bytes);
    }
    device.erase(device.begin(), device.begin() + static_cast<long>(done));

    // Sparse arrivals: a handful of requests over thousands of tenants.
    const int arrivals = static_cast<int>(rng.NextBounded(7));
    for (int a = 0; a < arrivals; ++a) {
      const size_t idx = random_live(/*be_only=*/false);
      PendingIo io;
      if (rng.NextBernoulli(0.05)) {
        io.msg.type = ReqType::kBarrier;
      } else {
        io.msg.type =
            rng.NextBernoulli(0.7) ? ReqType::kRead : ReqType::kWrite;
      }
      io.msg.sectors = static_cast<uint32_t>(2 * (1 + rng.NextBounded(16)));
      io.msg.cookie = next_cookie[idx]++;
      scheds[home[idx]]->Enqueue(now, tenants[idx].get(), std::move(io));
    }

    // Membership churn: move, drop and add BE tenants mid-rotation.
    if (round % 37 == 36) {
      const size_t idx = random_live(/*be_only=*/true);
      scheds[home[idx]]->RemoveTenant(tenants[idx].get());
      home[idx] ^= 1;
      scheds[home[idx]]->AddTenant(tenants[idx].get());
    }
    if (round % 53 == 52) {
      // Prefer a backlogged tenant, so its balance retires with it.
      size_t idx = random_live(/*be_only=*/true);
      for (size_t k = 0; k < tenants.size(); ++k) {
        const size_t j = (idx + k) % tenants.size();
        if (home[j] >= 0 && !tenants[j]->IsLatencyCritical() &&
            tenants[j]->queue_depth() > 0) {
          idx = j;
          break;
        }
      }
      scheds[home[idx]]->RemoveTenant(tenants[idx].get());
      tenants[idx]->TakeQueue();
      home[idx] = -1;
    }
    if (round % 71 == 70) {
      add(TenantClass::kBestEffort, static_cast<int>(rng.NextBounded(2)));
    }

    now += static_cast<sim::TimeNs>(rng.NextBounded(60)) * 1000;
    hash = 0xcbf29ce484222325ULL;
    sched0.RunRound(now, submit);
    // Thread 1 sometimes skips a round, so the bucket survives into
    // the next one instead of resetting every round.
    if (!rng.NextBernoulli(0.2)) sched1.RunRound(now, submit);

    bool dry = false;
    for (size_t i = 0; i < tenants.size(); ++i) {
      const Tenant& t = *tenants[i];
      if (home[i] >= 0 && !t.IsLatencyCritical() && t.queue_depth() > 0 &&
          t.tokens() < t.queued_cost() - 1e-6) {
        dry = true;
      }
    }
    if (dry) ++out.dry_rounds;

    out.lines.push_back(Fmt(
        "%d %016" PRIx64 " %lld %.17g %.17g %.17g %.17g %.17g %.17g", round,
        hash, std::llround(shared.global_bucket.Tokens() * 1e6),
        shared.tokens_generated_total, shared.tokens_donated_total,
        shared.tokens_claimed_total, shared.tokens_discarded_total,
        shared.tokens_retired_total, shared.tokens_spent_total));
  }
  for (int s = 0; s < 2; ++s) {
    const obs::LabelSet labels = obs::Label("thread", s);
    out.lines.push_back(Fmt(
        "counters thread=%d generated=%.17g donated=%.17g claimed=%.17g "
        "spent=%.17g",
        s, registry.GetCounter("sched_tokens_generated", labels)->value(),
        registry.GetCounter("sched_tokens_donated", labels)->value(),
        registry.GetCounter("sched_tokens_claimed", labels)->value(),
        registry.GetCounter("sched_tokens_spent", labels)->value()));
  }
  return out;
}

std::vector<std::string> ReadGolden() {
  std::ifstream in(REFLEX_TESTDATA_DIR "/be_walk_golden.txt");
  std::vector<std::string> lines;
  for (std::string line; std::getline(in, line);) lines.push_back(line);
  return lines;
}

TEST(BeWalkGoldenTest, EveryPolicyMatchesThePerTenantWalk) {
  const std::vector<std::string> golden = ReadGolden();
  ASSERT_FALSE(golden.empty()) << "missing testdata/be_walk_golden.txt";
  size_t cursor = 0;
  for (QosPolicyKind kind :
       {QosPolicyKind::kTokenBucket, QosPolicyKind::kQwin,
        QosPolicyKind::kAdaptiveBe}) {
    SCOPED_TRACE(QosPolicyKindName(kind));
    const Scenario run = RunScenario(kind);
    ASSERT_LT(cursor, golden.size());
    ASSERT_EQ(golden[cursor], std::string("policy ") + QosPolicyKindName(kind));
    ++cursor;
    for (const std::string& line : run.lines) {
      ASSERT_LT(cursor, golden.size()) << "golden ends before: " << line;
      ASSERT_EQ(line, golden[cursor]) << "first diverging round";
      ++cursor;
    }
    // The scenario must exercise claims that outrun the bucket.
    EXPECT_GE(run.dry_rounds, 10);
  }
  EXPECT_EQ(cursor, golden.size());
}

}  // namespace
}  // namespace reflex::core
