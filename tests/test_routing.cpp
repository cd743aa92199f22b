// Unit tests for deterministic shortest-path routing.
#include <gtest/gtest.h>

#include <random>

#include "net/routing.h"
#include "routing_reference.h"

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

TEST(routing, one_way_edge_into_a_single_edge_node_is_still_relaxed) {
  // 0 -> 1 is one-way and 1's only edge leads to 2, not back to 0: the
  // shortest 0 -> 2 path goes through 1, so 1 must enter the heap.
  routing_graph g(3);
  g[0].push_back(routing_edge{1, 1});
  g[0].push_back(routing_edge{2, 10});
  g[1].push_back(routing_edge{2, 1});
  g[2].push_back(routing_edge{0, 1});
  EXPECT_EQ(shortest_path(g, 0, 2), (std::vector<node_id>{0, 1, 2}));
}

// Random graphs mixing the shapes the stub shortcut must not disturb:
// single-homed nodes, one-way edges (into and out of single-edge nodes),
// parallel links (two edges to one neighbour: not single-homed) and weights
// drawn from {1, 2, 3} so equal-cost paths are common.
routing_graph random_graph(std::mt19937_64& gen) {
  const auto n = static_cast<node_id>(2 + gen() % 30);
  const auto core = static_cast<node_id>(1 + gen() % n);
  const auto pick = [&gen](node_id below) {
    return static_cast<node_id>(gen() % static_cast<std::uint64_t>(below));
  };
  const auto weight = [&gen] {
    return static_cast<sim::time_ps>(1 + gen() % 3);
  };
  routing_graph g(n);
  for (int i = 0; i < 2 * core; ++i) {
    const node_id a = pick(core);
    const node_id b = pick(core);
    if (a == b) continue;
    // Mostly duplex; otherwise one-way. Now and then a parallel link.
    const auto w = weight();
    g[a].push_back(routing_edge{b, w});
    if (gen() % 4 != 0) g[b].push_back(routing_edge{a, w});
    if (gen() % 8 == 0) g[a].push_back(routing_edge{b, weight()});
  }
  for (node_id v = core; v < n; ++v) {
    // Single-homed: one edge to an earlier node, usually mirrored, now and
    // then with an extra one-way edge in, or a parallel link out (which
    // makes it not single-homed).
    const node_id r = pick(v);
    const auto w = weight();
    g[v].push_back(routing_edge{r, w});
    if (gen() % 5 != 0) g[r].push_back(routing_edge{v, w});
    if (gen() % 5 == 0) g[pick(v)].push_back(routing_edge{v, weight()});
    if (gen() % 10 == 0) g[v].push_back(routing_edge{r, w});
  }
  return g;
}

TEST(routing, tree_rows_match_textbook_dijkstra_on_random_graphs) {
  std::mt19937_64 gen(20151030);
  std::size_t single_edge_nodes = 0;
  for (int trial = 0; trial < 400; ++trial) {
    const auto g = random_graph(gen);
    const auto n = static_cast<node_id>(g.size());
    for (node_id v = 0; v < n; ++v) single_edge_nodes += g[v].size() == 1;
    std::vector<node_id> prev(g.size());
    for (node_id s = 0; s < n; ++s) {
      shortest_path_tree(g, s, prev);
      ASSERT_EQ(prev, testing::reference_prev_row(g, s))
          << "trial " << trial << " source " << s;
    }
  }
  EXPECT_GT(single_edge_nodes, 1000u);  // the generator exercised the shortcut
}

}  // namespace
}  // namespace ups::net
