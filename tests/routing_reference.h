// Shared test helper: a textbook Dijkstra to check the routing code against.
// No heap, no stub shortcut, no incremental tie-breaking: each round settles
// the closest unsettled node, and each predecessor is read off the final
// distances as the smallest u on any shortest path into v.
#pragma once

#include <algorithm>
#include <limits>
#include <vector>

#include "net/routing.h"

namespace ups::testing {

inline std::vector<net::node_id> reference_prev_row(
    const net::routing_graph& g, net::node_id s) {
  constexpr sim::time_ps inf = std::numeric_limits<sim::time_ps>::max();
  const auto n = static_cast<net::node_id>(g.size());
  std::vector<sim::time_ps> dist(g.size(), inf);
  std::vector<bool> settled(g.size(), false);
  dist[s] = 0;
  for (;;) {
    net::node_id u = net::kInvalidNode;
    for (net::node_id v = 0; v < n; ++v) {
      if (!settled[v] && dist[v] != inf &&
          (u == net::kInvalidNode || dist[v] < dist[u])) {
        u = v;
      }
    }
    if (u == net::kInvalidNode) break;
    settled[u] = true;
    for (const auto& e : g[u]) {
      dist[e.to] = std::min(dist[e.to], dist[u] + e.weight);
    }
  }
  std::vector<net::node_id> prev(g.size(), net::kInvalidNode);
  for (net::node_id u = 0; u < n; ++u) {
    if (dist[u] == inf) continue;
    for (const auto& e : g[u]) {
      if (dist[u] + e.weight == dist[e.to] &&
          (prev[e.to] == net::kInvalidNode || u < prev[e.to])) {
        prev[e.to] = u;
      }
    }
  }
  return prev;
}

// The s..t path in a reference row from s, or empty when t is unreachable.
inline std::vector<net::node_id> reference_path(
    const std::vector<net::node_id>& prev, net::node_id s, net::node_id t) {
  std::vector<net::node_id> path;
  if (t != s && prev[t] == net::kInvalidNode) return path;
  for (net::node_id v = t; v != s; v = prev[v]) path.push_back(v);
  path.push_back(s);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ups::testing
