// Seed-sweep driver: expands and runs N seeded stress scenarios; on
// the first failure, shrinks the op budget by bisection and writes a
// deterministic repro artifact (replayable with simtest_repro).
//
//   simtest_sweep [--seeds N] [--start S] [--mutation NAME]
//                 [--max-ops M] [--out PATH] [--policy NAME]
//                 [--replication R] [--migrate] [--keep-going]
//
// --policy overrides the QoS policy every seed would otherwise draw
// (token_bucket, qwin, adaptive_be) and forces enforcement on, so a
// sweep can pin coverage of one enforcement algorithm. --replication
// likewise overrides the drawn replication factor (e.g. to force a
// replicated sweep), and --migrate forces every seed to schedule its
// drawn live migration (raced against the drawn fault plan). All
// overrides are applied post-expansion (the RNG stream is untouched)
// and recorded in the repro artifact ("forced_policy" /
// "forced_replication" / "forced_migration") so replays regenerate
// the identical scenario.
//
// --keep-going runs every seed instead of stopping at the first
// failure. Each failing seed is shrunk and written to its own repro
// file (see ReproPath), and the sweep ends by printing the failing
// seeds and, per failure kind, how many of them showed it.
//
// Exit status: 0 when every seed passed, 1 on a (shrunken, persisted)
// failure, 2 on usage errors.

#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <map>
#include <set>
#include <string>
#include <vector>

#include "simtest/repro.h"
#include "simtest/runner.h"
#include "simtest/scenario.h"

namespace {

using namespace reflex;  // NOLINT(build/namespaces)

/** --policy override; applied identically to every expanded seed. */
bool g_force_policy = false;
core::QosPolicyKind g_policy = core::QosPolicyKind::kTokenBucket;

/** --replication override; applied identically to every seed. */
bool g_force_replication = false;
int g_replication = 1;

/** --migrate override: every seed schedules its drawn migration. */
bool g_force_migration = false;

simtest::ScenarioSpec Expand(uint64_t seed) {
  simtest::ScenarioSpec spec = simtest::GenerateScenario(seed);
  if (g_force_policy) {
    // Override after expansion: the RNG stream (and so every other
    // field of the scenario) is untouched, only the policy differs.
    spec.policy = g_policy;
    spec.enforce_qos = true;
  }
  if (g_force_replication) {
    spec.replication = g_replication;
  }
  if (g_force_migration) {
    spec.migrate = true;
  }
  return spec;
}

simtest::RunReport Run(uint64_t seed, simtest::Mutation mutation,
                       int64_t max_ops) {
  return simtest::RunScenario(Expand(seed), mutation, max_ops);
}

/**
 * Bisects for the smallest op budget that still fails. Failure is not
 * guaranteed monotone in the budget (dropping ops can change every
 * later draw), so the result is re-validated and the original budget
 * is kept when shrinking went astray.
 */
int64_t Shrink(uint64_t seed, simtest::Mutation mutation, int64_t failing) {
  int64_t lo = 1;
  int64_t hi = failing;
  while (lo < hi) {
    const int64_t mid = lo + (hi - lo) / 2;
    if (!Run(seed, mutation, mid).ok()) {
      hi = mid;
    } else {
      lo = mid + 1;
    }
  }
  return Run(seed, mutation, lo).ok() ? failing : lo;
}

void PrintViolations(const simtest::RunReport& report) {
  if (!report.completed) {
    std::fprintf(stderr, "  stall: not every issued op resolved\n");
  }
  for (const auto& v : report.data_violations) {
    std::fprintf(stderr, "  data: %s lba=%llu %s\n", v.kind.c_str(),
                 static_cast<unsigned long long>(v.lba), v.detail.c_str());
  }
  for (const auto& v : report.invariant_violations) {
    std::fprintf(stderr, "  invariant: %s %s\n", v.name.c_str(),
                 v.detail.c_str());
  }
}

/**
 * The distinct kinds of failure in `report`: "stall", each data
 * violation kind ("stale_read", ...) and each invariant name.
 */
std::set<std::string> FailureKinds(const simtest::RunReport& report) {
  std::set<std::string> kinds;
  if (!report.completed) kinds.insert("stall");
  for (const auto& v : report.data_violations) kinds.insert(v.kind);
  for (const auto& v : report.invariant_violations) kinds.insert(v.name);
  return kinds;
}

/**
 * Where the repro of a failing `seed` goes. A sweep that stops at its
 * first failure writes --out as given; a --keep-going sweep writes one
 * file per failing seed, so --out gets the seed spliced in before its
 * ".json" ("repro.json" -> "repro_177.json").
 */
std::string ReproPath(const std::string& out_path, uint64_t seed,
                      bool keep_going) {
  const std::string tag = std::to_string(seed);
  if (out_path.empty()) return "simtest_repro_" + tag + ".json";
  if (!keep_going) return out_path;
  const std::string ext = ".json";
  if (out_path.size() >= ext.size() &&
      out_path.compare(out_path.size() - ext.size(), ext.size(), ext) == 0) {
    return out_path.substr(0, out_path.size() - ext.size()) + "_" + tag +
           ext;
  }
  return out_path + "_" + tag;
}

}  // namespace

int main(int argc, char** argv) {
  int64_t seeds = 10;
  uint64_t start = 1;
  int64_t max_ops = -1;
  simtest::Mutation mutation = simtest::Mutation::kNone;
  std::string out_path;
  bool keep_going = false;

  for (int i = 1; i < argc; ++i) {
    const std::string arg = argv[i];
    auto value = [&]() -> const char* {
      if (i + 1 >= argc) {
        std::fprintf(stderr, "missing value for %s\n", arg.c_str());
        std::exit(2);
      }
      return argv[++i];
    };
    if (arg == "--seeds") {
      seeds = std::strtoll(value(), nullptr, 10);
    } else if (arg == "--start") {
      start = std::strtoull(value(), nullptr, 10);
    } else if (arg == "--max-ops") {
      max_ops = std::strtoll(value(), nullptr, 10);
    } else if (arg == "--mutation") {
      mutation = simtest::MutationFromName(value());
    } else if (arg == "--out") {
      out_path = value();
    } else if (arg == "--policy") {
      const char* name = value();
      if (!core::QosPolicyKindFromName(name, &g_policy)) {
        std::fprintf(stderr,
                     "unknown policy '%s' (token_bucket, qwin, "
                     "adaptive_be)\n",
                     name);
        return 2;
      }
      g_force_policy = true;
    } else if (arg == "--replication") {
      g_replication = static_cast<int>(std::strtol(value(), nullptr, 10));
      if (g_replication < 1) {
        std::fprintf(stderr, "--replication must be >= 1\n");
        return 2;
      }
      g_force_replication = true;
    } else if (arg == "--migrate") {
      g_force_migration = true;
    } else if (arg == "--keep-going") {
      keep_going = true;
    } else {
      std::fprintf(stderr,
                   "usage: simtest_sweep [--seeds N] [--start S] "
                   "[--mutation NAME] [--max-ops M] [--out PATH] "
                   "[--policy NAME] [--replication R] [--migrate] "
                   "[--keep-going]\n");
      return 2;
    }
  }

  std::vector<uint64_t> failed_seeds;
  // Failure kind -> number of failing seeds that showed it.
  std::map<std::string, int64_t> kind_counts;
  for (int64_t i = 0; i < seeds; ++i) {
    const uint64_t seed = start + static_cast<uint64_t>(i);
    const simtest::ScenarioSpec spec = Expand(seed);
    const int64_t budget = max_ops >= 0 ? max_ops : spec.TotalOps();
    simtest::RunReport report =
        simtest::RunScenario(spec, mutation, budget);
    if (report.ok()) {
      std::printf("seed %llu: ok (%lld ops, %lld reads checked)\n",
                  static_cast<unsigned long long>(seed),
                  static_cast<long long>(report.ops_executed),
                  static_cast<long long>(report.reads_checked));
      // A sanitizer abort in the next seed's run must not swallow this
      // line: the last seed printed then names the seed that crashed.
      std::fflush(stdout);
      continue;
    }

    std::fprintf(stderr, "seed %llu: FAILED at %lld ops\n",
                 static_cast<unsigned long long>(seed),
                 static_cast<long long>(budget));
    PrintViolations(report);
    failed_seeds.push_back(seed);
    for (const std::string& kind : FailureKinds(report)) {
      ++kind_counts[kind];
    }

    const int64_t shrunk = Shrink(seed, mutation, budget);
    if (shrunk < budget) {
      report = simtest::RunScenario(spec, mutation, shrunk);
      std::fprintf(stderr, "  shrunk to %lld ops\n",
                   static_cast<long long>(shrunk));
    }

    const std::string path = ReproPath(out_path, seed, keep_going);
    const std::string json =
        simtest::ReproToJson(spec, report, mutation, shrunk, g_force_policy,
                             g_force_replication, g_force_migration);
    if (!simtest::WriteRepro(path, json)) {
      std::fprintf(stderr, "  (could not write %s)\n", path.c_str());
    } else {
      std::fprintf(stderr, "  repro written to %s -- replay with:\n"
                           "    simtest_repro %s\n",
                   path.c_str(), path.c_str());
    }
    if (!keep_going) return 1;
  }
  if (!failed_seeds.empty()) {
    std::printf("%zu of %lld seeds failed:", failed_seeds.size(),
                static_cast<long long>(seeds));
    for (uint64_t seed : failed_seeds) {
      std::printf(" %llu", static_cast<unsigned long long>(seed));
    }
    std::printf("\nfailure kinds (seeds showing each):");
    for (const auto& [kind, count] : kind_counts) {
      std::printf(" %s=%lld", kind.c_str(), static_cast<long long>(count));
    }
    std::printf("\n");
    return 1;
  }
  std::printf("%lld seeds passed\n", static_cast<long long>(seeds));
  return 0;
}
