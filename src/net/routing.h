// Deterministic Dijkstra shortest paths over the router graph.
#pragma once

#include <span>
#include <vector>

#include "net/packet.h"
#include "sim/time.h"

namespace ups::net {

struct routing_edge {
  node_id to;
  sim::time_ps weight;
};

using routing_graph = std::vector<std::vector<routing_edge>>;

// Shortest path from s to t (inclusive of both) over positive edge weights
// (network uses propagation delay + 1ps). Ties are broken toward the
// smaller predecessor id so routes are deterministic across runs.
// Returns an empty vector when t is unreachable.
[[nodiscard]] std::vector<node_id> shortest_path(const routing_graph& g,
                                                 node_id s, node_id t);

// Single-source shortest-path tree from s, written into the caller's row
// (prev.size() == g.size()): prev[v] is v's predecessor on the shortest
// s->v path (tie-broken exactly as shortest_path), kInvalidNode when v is
// unreachable and for s itself. A path is the walk from t back along prev
// to s; network keeps one such row per source router that is not a stub,
// computed on its first route lookup. A node whose only edge leads back to
// the node relaxing it is settled without entering the heap.
void shortest_path_tree(const routing_graph& g, node_id s,
                        std::span<node_id> prev);

}  // namespace ups::net
