// Unit tests for deterministic shortest-path routing.
#include <gtest/gtest.h>

#include "net/routing.h"

namespace ups::net {
namespace {

routing_graph make_graph(int n,
                         std::initializer_list<std::tuple<int, int, long>> e) {
  routing_graph g(n);
  for (const auto& [a, b, w] : e) {
    g[a].push_back(routing_edge{static_cast<node_id>(b), w});
    g[b].push_back(routing_edge{static_cast<node_id>(a), w});
  }
  return g;
}

TEST(routing, trivial_self_path) {
  const auto g = make_graph(2, {{0, 1, 1}});
  const auto p = shortest_path(g, 0, 0);
  EXPECT_EQ(p, (std::vector<node_id>{0}));
}

TEST(routing, direct_edge) {
  const auto g = make_graph(2, {{0, 1, 5}});
  EXPECT_EQ(shortest_path(g, 0, 1), (std::vector<node_id>{0, 1}));
}

TEST(routing, prefers_lower_total_weight) {
  // 0-1-2 costs 2, 0-2 costs 5.
  const auto g = make_graph(3, {{0, 1, 1}, {1, 2, 1}, {0, 2, 5}});
  EXPECT_EQ(shortest_path(g, 0, 2), (std::vector<node_id>{0, 1, 2}));
}

TEST(routing, deterministic_tie_break_prefers_smaller_predecessor) {
  // Two equal-cost 2-hop paths 0-1-3 and 0-2-3: must pick via node 1.
  const auto g =
      make_graph(4, {{0, 1, 1}, {0, 2, 1}, {1, 3, 1}, {2, 3, 1}});
  EXPECT_EQ(shortest_path(g, 0, 3), (std::vector<node_id>{0, 1, 3}));
}

TEST(routing, unreachable_returns_empty) {
  routing_graph g(3);
  g[0].push_back(routing_edge{1, 1});
  g[1].push_back(routing_edge{0, 1});
  EXPECT_TRUE(shortest_path(g, 0, 2).empty());
}

TEST(routing, tree_row_is_filled_in_place) {
  // 0-1-2 chain plus an isolated node 3.
  const auto g = make_graph(4, {{0, 1, 1}, {1, 2, 1}});
  std::vector<node_id> prev(4, 99);  // stale contents are overwritten
  shortest_path_tree(g, 0, prev);
  EXPECT_EQ(prev, (std::vector<node_id>{kInvalidNode, 0, 1, kInvalidNode}));
}

TEST(routing, long_chain) {
  routing_graph g(50);
  for (node_id i = 0; i + 1 < 50; ++i) {
    g[i].push_back(routing_edge{i + 1, 1});
    g[i + 1].push_back(routing_edge{i, 1});
  }
  const auto p = shortest_path(g, 0, 49);
  ASSERT_EQ(p.size(), 50u);
  for (node_id i = 0; i < 50; ++i) EXPECT_EQ(p[i], i);
}

}  // namespace
}  // namespace ups::net
