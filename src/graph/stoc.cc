#include "graph/stoc.h"

#include <algorithm>
#include <numeric>
#include <queue>

namespace scube {
namespace graph {

namespace {

// Jaccard similarity of closed neighbourhoods N[u], N[v]. Self-loops are
// rejected by Graph, so inserting the node itself never duplicates.
double TopologicalJaccard(const Graph& graph, NodeId u, NodeId v) {
  thread_local std::vector<NodeId> cu, cv;
  cu.clear();
  cv.clear();
  for (const Graph::Neighbor& n : graph.Neighbors(u)) cu.push_back(n.node);
  cu.insert(std::lower_bound(cu.begin(), cu.end(), u), u);
  for (const Graph::Neighbor& n : graph.Neighbors(v)) cv.push_back(n.node);
  cv.insert(std::lower_bound(cv.begin(), cv.end(), v), v);

  size_t i = 0, j = 0, inter = 0;
  while (i < cu.size() && j < cv.size()) {
    if (cu[i] == cv[j]) {
      ++inter;
      ++i;
      ++j;
    } else if (cu[i] < cv[j]) {
      ++i;
    } else {
      ++j;
    }
  }
  size_t uni = cu.size() + cv.size() - inter;
  return static_cast<double>(inter) / static_cast<double>(uni);
}

}  // namespace

double StocSimilarity(const Graph& graph, const NodeAttributes& attributes,
                      NodeId u, NodeId v, double alpha) {
  double topo = TopologicalJaccard(graph, u, v);
  double attr = attributes.Jaccard(u, v);
  return alpha * topo + (1.0 - alpha) * attr;
}

Status CheckStocFraction(const char* name, double value) {
  if (!(value >= 0.0 && value <= 1.0)) {
    return Status::InvalidArgument(std::string(name) + " must be in [0,1]");
  }
  return Status::OK();
}

Result<Clustering> StocClustering(const Graph& graph,
                                  const NodeAttributes& attributes,
                                  const StocOptions& options) {
  SCUBE_RETURN_IF_ERROR(CheckStocFraction("tau", options.tau));
  SCUBE_RETURN_IF_ERROR(CheckStocFraction("alpha", options.alpha));
  if (attributes.NumNodes() < graph.NumNodes()) {
    return Status::InvalidArgument(
        "attributes cover " + std::to_string(attributes.NumNodes()) +
        " nodes, graph has " + std::to_string(graph.NumNodes()));
  }

  constexpr uint32_t kUnassigned = 0xFFFFFFFFu;
  std::vector<uint32_t> labels(graph.NumNodes(), kUnassigned);
  std::vector<uint32_t> depth(graph.NumNodes(), 0);

  // Random seed order (deterministic given rng_seed).
  std::vector<NodeId> order(graph.NumNodes());
  std::iota(order.begin(), order.end(), 0);
  Rng rng(options.rng_seed);
  rng.Shuffle(&order);

  uint32_t next_label = 0;
  std::queue<NodeId> frontier;
  for (NodeId seed : order) {
    if (labels[seed] != kUnassigned) continue;
    labels[seed] = next_label;
    depth[seed] = 0;
    frontier.push(seed);
    while (!frontier.empty()) {
      NodeId u = frontier.front();
      frontier.pop();
      if (depth[u] >= options.max_radius) continue;
      for (const Graph::Neighbor& n : graph.Neighbors(u)) {
        if (labels[n.node] != kUnassigned) continue;
        double sim =
            StocSimilarity(graph, attributes, seed, n.node, options.alpha);
        if (sim >= options.tau) {
          labels[n.node] = next_label;
          depth[n.node] = depth[u] + 1;
          frontier.push(n.node);
        }
      }
    }
    ++next_label;
  }

  Clustering out;
  out.labels = std::move(labels);
  out.num_clusters = next_label;
  return out;
}

}  // namespace graph
}  // namespace scube
