// graph_remote: Figure 7b on the ReFlex backend only. An R-MAT graph
// (100K vertices, 1.6M edges) is built on a remote BlockDevice and the
// engine runs WCC, PageRank(10), BFS and SCC through a 512-page cache
// with 128 I/O slots. The graph is ~6x the cache and the cache starts
// empty, as users pay that cost on every run. One tenant, so the QoS
// walk costs nothing: host work sits in the page cache, the payload
// path and the application.

#include <algorithm>
#include <functional>
#include <memory>
#include <numeric>
#include <string>
#include <vector>

#include "apps/graph/engine.h"
#include "apps/graph/graph_gen.h"
#include "apps/graph/graph_store.h"
#include "bench/common.h"
#include "client/block_device.h"
#include "stats.h"
#include "workload.h"

namespace perfbench {
namespace {

using namespace reflex;
using apps::graph::Edge;

constexpr uint32_t kVertices = 100000;
constexpr uint64_t kEdges = 1600000;
constexpr uint64_t kGraphBase = 1ULL << 30;
constexpr sim::TimeNs kPhaseDeadline = sim::Seconds(1200);

uint64_t DeviceSeed(uint64_t seed) { return SubSeed(seed, 1); }
uint64_t GraphSeed(uint64_t seed) { return SubSeed(seed, 2); }
uint64_t BlockSeed(uint64_t seed) { return SubSeed(seed, 3); }

uint64_t HashEdges(const std::vector<Edge>& edges) {
  uint64_t h = edges.size();
  for (const Edge& e : edges) {
    h = SubSeed(h, (static_cast<uint64_t>(e.first) << 32) | e.second);
  }
  return h;
}

std::string Inputs(uint64_t seed) {
  return "device=" + std::to_string(DeviceSeed(seed)) +
         " blockdev=" + std::to_string(BlockSeed(seed)) + " rmat_hash=" +
         std::to_string(HashEdges(apps::graph::GenerateRmat(
             kVertices, kEdges, GraphSeed(seed))));
}

/** In-memory reference results for one edge list. */
struct Reference {
  uint64_t wcc = 0;
  uint64_t bfs_reached = 0;
  uint64_t scc = 0;
};

uint32_t Find(std::vector<uint32_t>& parent, uint32_t v) {
  while (parent[v] != v) {
    parent[v] = parent[parent[v]];
    v = parent[v];
  }
  return v;
}

/** CSR adjacency of `edges`, forward or reversed. */
void BuildCsr(const std::vector<Edge>& edges, bool reverse,
              std::vector<uint32_t>* offsets, std::vector<uint32_t>* targets) {
  offsets->assign(kVertices + 1, 0);
  for (const Edge& e : edges) ++(*offsets)[(reverse ? e.second : e.first) + 1];
  std::partial_sum(offsets->begin(), offsets->end(), offsets->begin());
  targets->assign(edges.size(), 0);
  std::vector<uint32_t> cursor(offsets->begin(), offsets->end() - 1);
  for (const Edge& e : edges) {
    const uint32_t src = reverse ? e.second : e.first;
    (*targets)[cursor[src]++] = reverse ? e.first : e.second;
  }
}

Reference ComputeReference(const std::vector<Edge>& edges) {
  Reference ref;
  // WCC: union-find over the undirected edges; isolated vertices are
  // components of their own.
  std::vector<uint32_t> parent(kVertices);
  std::iota(parent.begin(), parent.end(), 0);
  for (const Edge& e : edges) {
    const uint32_t a = Find(parent, e.first);
    const uint32_t b = Find(parent, e.second);
    if (a != b) parent[std::max(a, b)] = std::min(a, b);
  }
  for (uint32_t v = 0; v < kVertices; ++v) ref.wcc += Find(parent, v) == v;

  std::vector<uint32_t> off, adj, roff, radj;
  BuildCsr(edges, false, &off, &adj);
  BuildCsr(edges, true, &roff, &radj);

  // BFS from vertex 0 along forward edges, source included.
  std::vector<char> seen(kVertices, 0);
  std::vector<uint32_t> queue = {0};
  seen[0] = 1;
  for (size_t i = 0; i < queue.size(); ++i) {
    const uint32_t v = queue[i];
    for (uint32_t k = off[v]; k < off[v + 1]; ++k) {
      if (!seen[adj[k]]) {
        seen[adj[k]] = 1;
        queue.push_back(adj[k]);
      }
    }
  }
  ref.bfs_reached = queue.size();

  // SCC: Kosaraju with explicit stacks. Pass 1 records finish order on
  // the forward graph; pass 2 sweeps the reverse graph in reverse
  // finish order, one component per new root.
  std::vector<uint32_t> order;
  order.reserve(kVertices);
  std::fill(seen.begin(), seen.end(), 0);
  std::vector<std::pair<uint32_t, uint32_t>> stack;  // (vertex, next edge)
  for (uint32_t s = 0; s < kVertices; ++s) {
    if (seen[s]) continue;
    seen[s] = 1;
    stack.push_back({s, off[s]});
    while (!stack.empty()) {
      auto& [v, k] = stack.back();
      if (k < off[v + 1]) {
        const uint32_t u = adj[k++];
        if (!seen[u]) {
          seen[u] = 1;
          stack.push_back({u, off[u]});
        }
      } else {
        order.push_back(v);
        stack.pop_back();
      }
    }
  }
  std::fill(seen.begin(), seen.end(), 0);
  std::vector<uint32_t> todo;
  for (auto it = order.rbegin(); it != order.rend(); ++it) {
    if (seen[*it]) continue;
    ++ref.scc;
    seen[*it] = 1;
    todo.push_back(*it);
    while (!todo.empty()) {
      const uint32_t v = todo.back();
      todo.pop_back();
      for (uint32_t k = roff[v]; k < roff[v + 1]; ++k) {
        if (!seen[radj[k]]) {
          seen[radj[k]] = 1;
          todo.push_back(radj[k]);
        }
      }
    }
  }
  return ref;
}

/** The reference for the most recent seed, computed once per process. */
const Reference& ReferenceFor(uint64_t seed, const std::vector<Edge>& edges) {
  static uint64_t cached_seed = 0;
  static bool have = false;
  static Reference ref;
  if (!have || cached_seed != seed) {
    ref = ComputeReference(edges);
    cached_seed = seed;
    have = true;
  }
  return ref;
}

RepResult Run(const RepOptions& opt) {
  RepResult res;
  const double t0 = HostNow();
  SpanRecorder* spans = opt.spans;
  Report& host = res.host;
  const auto timed = [&host, spans](const char* span_name,
                                    const std::string& metric,
                                    const auto& fn) {
    ScopedSpan span(spans, span_name);
    const double s0 = HostNow();
    fn();
    host.Add(metric, HostNow() - s0, "s", Kind::kHost, Scope::kLayer);
  };

  std::vector<Edge> edges;
  timed("setup.graph_gen", "graph.gen.host_s", [&] {
    edges = apps::graph::GenerateRmat(kVertices, kEdges, GraphSeed(opt.seed));
  });

  std::unique_ptr<bench::BenchWorld> world;
  {
    ScopedSpan span(spans, "setup.world");
    world = std::make_unique<bench::BenchWorld>(core::ServerOptions(), 4,
                                                DeviceSeed(opt.seed));
  }
  sim::Simulator& sim = world->sim;
  core::Tenant* tenant = nullptr;
  timed("setup.register", "core.register_host_s", [&] {
    tenant = world->server->RegisterTenant(core::SloSpec{},
                                           core::TenantClass::kBestEffort);
  });
  std::unique_ptr<client::BlockDevice> bdev;
  {
    ScopedSpan span(spans, "setup.connect");
    client::BlockDevice::Options bopts;
    bopts.seed = BlockSeed(opt.seed);
    bdev = std::make_unique<client::BlockDevice>(
        sim, *world->server, world->client_machines[0], tenant->handle(),
        bopts);
  }
  IoLog all;
  ProbeBackend backend(sim, *bdev, all, spans);

  const auto await = [&sim, spans, &res](auto future, const char* what) {
    if (!RunUntilDone(sim, [&future] { return future.Ready(); },
                      sim.Now() + kPhaseDeadline, spans)) {
      res.check_failures.push_back(std::string(what) + " did not finish");
      return false;
    }
    return true;
  };

  apps::graph::GraphMeta meta;
  bool ok = true;
  timed("setup.graph_build", "graph.build.host_s", [&] {
    auto f = apps::graph::BuildGraphOnFlash(sim, backend, edges, kVertices,
                                            kGraphBase);
    ok = await(f, "graph build");
    if (ok) meta = f.Get();
  });
  if (!ok) return res;
  apps::graph::GraphEngine engine(sim, backend, meta,
                                  apps::graph::GraphEngine::Options{});
  timed("setup.graph_init", "graph.init.host_s",
        [&] { ok = await(engine.Init(), "engine init"); });
  if (!ok) return res;
  if (opt.setup_only) {
    res.setup_s = HostNow() - t0;
    return res;
  }

  all = IoLog{};
  all.warm_end = sim.Now();
  const std::vector<ServerSnapshot> before = {Snapshot(*world->server)};
  const int64_t events0 = sim.EventsProcessed();
  const sim::TimeNs sim0 = sim.Now();
  res.setup_s = HostNow() - t0;

  using AlgoStats = apps::graph::GraphEngine::AlgoStats;
  struct Phase {
    const char* name;
    const char* span;
    std::function<sim::Future<AlgoStats>()> start;
    AlgoStats stats;
  };
  Phase phases[] = {
      {"wcc", "app.wcc", [&engine] { return engine.RunWcc(); }, {}},
      {"pagerank", "app.pagerank", [&engine] { return engine.RunPageRank(10); },
       {}},
      {"bfs", "app.bfs", [&engine] { return engine.RunBfs(0); }, {}},
      {"scc", "app.scc", [&engine] { return engine.RunScc(); }, {}},
  };
  const double m0 = HostNow();
  for (Phase& p : phases) {
    timed(p.span, std::string("graph.") + p.name + ".host_s", [&] {
      sim::Future<AlgoStats> f = p.start();
      ok = await(f, p.name);
      if (ok) p.stats = f.Get();
    });
    if (!ok) return res;
  }
  res.measure_s = HostNow() - m0;

  const std::vector<ServerSnapshot> after = {Snapshot(*world->server)};
  res.measured_ios = all.completed;
  res.attempted = all.issued;
  res.failed = all.failed;

  Report& r = res.sim;
  const sim::TimeNs exec = sim.Now() - sim0;
  r.Add("sim_iops", Ratio(all.ok_in_window, sim::ToSeconds(exec)), "IOPS",
        Kind::kSim, Scope::kEndToEnd, "block-device reads / algorithm time");
  AddLatency(r, "sim_read", all.read_ns);
  r.Add("sim_exec_ms", sim::ToMillis(exec), "ms", Kind::kSim,
        Scope::kEndToEnd, "WCC + PageRank(10) + BFS + SCC");
  AddFailures(r, all);
  int64_t edges_scanned = 0;
  for (const Phase& p : phases) {
    r.Add(std::string("graph.") + p.name + ".exec_ms",
          sim::ToMillis(p.stats.exec_time), "ms", Kind::kSim, Scope::kLayer);
    r.Add(std::string("graph.") + p.name + ".flash_reads",
          static_cast<double>(p.stats.flash_reads), "count", Kind::kSim,
          Scope::kLayer, "page-cache misses");
    edges_scanned += p.stats.edges_scanned;
  }
  r.Add("graph.edges_scanned", static_cast<double>(edges_scanned), "count",
        Kind::kSim, Scope::kLayer);
  const client::PageCache::Stats& cs = engine.cache_stats();
  r.Add("cache.hit_ratio",
        Ratio(static_cast<double>(cs.hits),
              static_cast<double>(cs.hits + cs.misses)),
        "fraction", Kind::kSim, Scope::kLayer,
        "base: " + std::to_string(cs.hits + cs.misses) + " lookups");
  r.Add("cache.evictions", static_cast<double>(cs.evictions), "count",
        Kind::kSim, Scope::kLayer);
  r.Add("cache.invalidated_refetches",
        static_cast<double>(cs.invalidated_refetches), "count", Kind::kSim,
        Scope::kLayer);
  AddSimLayers(r, sim.EventsProcessed() - events0, res.measured_ios,
               static_cast<int64_t>(sim.PeakPendingEvents()));
  AddServerLayers(r, before, after, res.measured_ios);
  const client::ReflexClient::FaultStats& fs = bdev->client().fault_stats();
  AddClientFaults(r, fs.timeouts, fs.retries, fs.failures);

  // Output checks against the in-memory reference.
  const Reference& ref = ReferenceFor(opt.seed, edges);
  const auto check = [&res](const char* what, uint64_t got, uint64_t want) {
    if (got != want) {
      res.check_failures.push_back(std::string(what) + " " +
                                   std::to_string(got) + " != reference " +
                                   std::to_string(want));
    }
  };
  check("WCC components", phases[0].stats.result_value, ref.wcc);
  check("BFS reached", phases[2].stats.result_value, ref.bfs_reached);
  check("SCC count", phases[3].stats.result_value, ref.scc);
  if (all.failed != 0) {
    res.check_failures.push_back(std::to_string(all.failed) + " I/Os failed");
  }
  return res;
}

}  // namespace

const Workload& GraphRemote() {
  static const Workload w{"graph_remote", &Run, &Inputs};
  return w;
}

}  // namespace perfbench
