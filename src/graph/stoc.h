// SToC: attributed-graph clustering for very large graphs — the third
// GraphClustering method of the paper (Baroni, Conte, Patrignani, Ruggieri,
// ASONAM 2017 [3]).
//
// Faithful-in-spirit reimplementation: nodes are clustered by a *combined*
// similarity mixing topology and attributes,
//
//     sim(u,v) = alpha * J_top(u,v) + (1 - alpha) * J_att(u,v)
//
// where J_top is the Jaccard similarity of closed neighbourhoods and J_att
// the Jaccard similarity of attribute-token sets. The algorithm repeatedly
// picks an unassigned seed and grows a bounded-radius BFS ball of unassigned
// nodes whose combined similarity to the seed reaches the threshold tau.
// (The original accelerates J_* with LSH sketches; at this repository's
// scales exact similarities are computed instead — same clustering
// semantics, different constant factor.)

#ifndef SCUBE_GRAPH_STOC_H_
#define SCUBE_GRAPH_STOC_H_

#include "common/random.h"
#include "common/result.h"
#include "graph/clustering.h"
#include "graph/graph.h"

namespace scube {
namespace graph {

/// \brief SToC parameters.
struct StocOptions {
  /// Similarity threshold in [0,1]: a node joins the seed's cluster when
  /// sim(seed, node) >= tau.
  double tau = 0.3;

  /// Topology/attribute mix in [0,1]; 1 = pure topology, 0 = pure attributes.
  double alpha = 0.5;

  /// BFS ball radius around the seed (the original uses small radii).
  uint32_t max_radius = 2;

  /// Seed for the random seed-selection order (deterministic given this).
  uint64_t rng_seed = 0x570CULL;
};

/// InvalidArgument unless an SToC fraction (`name` is "tau" or "alpha")
/// lies in [0,1] (NaN too).
Status CheckStocFraction(const char* name, double value);

/// Runs SToC. `attributes` must cover every node of `graph`.
Result<Clustering> StocClustering(const Graph& graph,
                                  const NodeAttributes& attributes,
                                  const StocOptions& options);

/// The combined similarity used by SToC (exposed for tests/benches).
double StocSimilarity(const Graph& graph, const NodeAttributes& attributes,
                      NodeId u, NodeId v, double alpha);

}  // namespace graph
}  // namespace scube

#endif  // SCUBE_GRAPH_STOC_H_
