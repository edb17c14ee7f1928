#ifndef REFLEX_APPS_GRAPH_GRAPH_GEN_H_
#define REFLEX_APPS_GRAPH_GRAPH_GEN_H_

#include <cstdint>
#include <utility>
#include <vector>

namespace reflex::apps::graph {

using Edge = std::pair<uint32_t, uint32_t>;

/**
 * Generates a directed R-MAT graph (Chakrabarti et al.): a synthetic
 * power-law graph standing in for the paper's SOC-LiveJournal1 (see
 * DESIGN.md substitution table). Self-loops are dropped; duplicate
 * edges may remain, as in real crawls.
 *
 * Each level of the recursion picks a quadrant with probabilities a,
 * b, c and 1 - a - b - c. The pick is made on integers, and gives the
 * same graph as comparing a uniform double u = NextDouble() against a,
 * a + b and a + b + c. u is exactly k * 2^-53 with k = Next() >> 11,
 * and multiplying a double by 2^53 is exact, so u < x holds exactly
 * when k < ceil(x * 2^53). The three integer thresholds are computed
 * once per graph. Requires a, b, c >= 0 and a + b + c < 1.
 */
std::vector<Edge> GenerateRmat(uint32_t num_vertices, uint64_t num_edges,
                               uint64_t seed, double a = 0.57,
                               double b = 0.19, double c = 0.19);

/** Uniform random directed graph (for tests). */
std::vector<Edge> GenerateUniform(uint32_t num_vertices,
                                  uint64_t num_edges, uint64_t seed);

}  // namespace reflex::apps::graph

#endif  // REFLEX_APPS_GRAPH_GRAPH_GEN_H_
