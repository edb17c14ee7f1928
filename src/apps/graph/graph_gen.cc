#include "apps/graph/graph_gen.h"

#include <bit>
#include <cmath>

#include "sim/logging.h"
#include "sim/random.h"

namespace reflex::apps::graph {

namespace {

/**
 * The integer form of the test `NextDouble() < x`: NextDouble() is
 * k * 2^-53 for k = Next() >> 11, so it is below x exactly when k is
 * below ceil(x * 2^53). Requires 0 <= x < 1.
 */
uint64_t DrawThreshold(double x) {
  return static_cast<uint64_t>(std::ceil(std::ldexp(x, 53)));
}

}  // namespace

std::vector<Edge> GenerateRmat(uint32_t num_vertices, uint64_t num_edges,
                               uint64_t seed, double a, double b,
                               double c) {
  REFLEX_CHECK(num_vertices >= 2);
  REFLEX_CHECK(a >= 0.0 && b >= 0.0 && c >= 0.0);
  REFLEX_CHECK(a + b + c < 1.0);
  // Cumulative quadrant boundaries, a + b + c summed as (a + b) + c.
  const uint64_t t_a = DrawThreshold(a);
  const uint64_t t_ab = DrawThreshold(a + b);
  const uint64_t t_abc = DrawThreshold(a + b + c);
  sim::Rng rng(seed, "rmat");
  const int levels = 64 - std::countl_zero(
                              static_cast<uint64_t>(num_vertices - 1));
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    uint64_t src = 0, dst = 0;
    for (int l = 0; l < levels; ++l) {
      const uint64_t k = rng.Next() >> 11;
      const uint64_t ge_a = k >= t_a;
      const uint64_t ge_ab = k >= t_ab;
      const uint64_t ge_abc = k >= t_abc;
      // Quadrants in draw order: top-left, top-right (dst bit),
      // bottom-left (src bit), bottom-right (both). The thresholds
      // ascend, so ge_ab implies ge_a.
      src = (src << 1) | ge_ab;
      dst = (dst << 1) | ((ge_a ^ ge_ab) | ge_abc);
    }
    if (src >= num_vertices || dst >= num_vertices || src == dst) continue;
    edges.emplace_back(static_cast<uint32_t>(src),
                       static_cast<uint32_t>(dst));
  }
  return edges;
}

std::vector<Edge> GenerateUniform(uint32_t num_vertices,
                                  uint64_t num_edges, uint64_t seed) {
  REFLEX_CHECK(num_vertices >= 2);
  sim::Rng rng(seed, "uniform_graph");
  std::vector<Edge> edges;
  edges.reserve(num_edges);
  while (edges.size() < num_edges) {
    const auto src = static_cast<uint32_t>(rng.NextBounded(num_vertices));
    const auto dst = static_cast<uint32_t>(rng.NextBounded(num_vertices));
    if (src == dst) continue;
    edges.emplace_back(src, dst);
  }
  return edges;
}

}  // namespace reflex::apps::graph
