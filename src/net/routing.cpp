#include "net/routing.h"

#include <algorithm>
#include <cassert>
#include <limits>
#include <queue>

namespace ups::net {

void shortest_path_tree(const routing_graph& g, node_id s,
                        std::span<node_id> prev) {
  assert(prev.size() == g.size());
  constexpr sim::time_ps inf = std::numeric_limits<sim::time_ps>::max();
  std::vector<sim::time_ps> dist(g.size(), inf);
  std::fill(prev.begin(), prev.end(), kInvalidNode);
  using item = std::pair<sim::time_ps, node_id>;
  std::priority_queue<item, std::vector<item>, std::greater<>> pq;
  dist[s] = 0;
  pq.emplace(0, s);
  while (!pq.empty()) {
    const auto [d, u] = pq.top();
    pq.pop();
    if (d > dist[u]) continue;
    for (const auto& e : g[u]) {
      const sim::time_ps nd = d + e.weight;
      if (nd < dist[e.to] ||
          (nd == dist[e.to] && prev[e.to] != kInvalidNode && u < prev[e.to])) {
        dist[e.to] = nd;
        prev[e.to] = u;
        // A node whose only edge leads back to u is settled here: popping
        // it could only relax that edge to u, already settled with a
        // smaller distance, so it stays off the heap.
        const auto& back = g[e.to];
        if (back.size() != 1 || back.front().to != u) pq.emplace(nd, e.to);
      }
    }
  }
  // Unreachable nodes keep prev == kInvalidNode; so does s (dist 0, no
  // predecessor), which is where a path walk stops.
}

std::vector<node_id> shortest_path(const routing_graph& g, node_id s,
                                   node_id t) {
  std::vector<node_id> prev(g.size());
  shortest_path_tree(g, s, prev);
  std::vector<node_id> path;
  if (t != s && prev[t] == kInvalidNode) return path;  // unreachable
  for (node_id v = t; v != s; v = prev[v]) path.push_back(v);
  path.push_back(s);
  std::reverse(path.begin(), path.end());
  return path;
}

}  // namespace ups::net
