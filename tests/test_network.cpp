// Integration tests for the store-and-forward network substrate: exact link
// timing, ingress/egress hooks, tmin, buffer drops, and forwarding.
#include <gtest/gtest.h>

#include <algorithm>
#include <memory>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "net/network.h"
#include "net/trace.h"
#include "routing_reference.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/internet2.h"
#include "topo/rocketfuel.h"
#include "topo/topology.h"
#include "traffic/workload.h"

namespace ups::net {
namespace {

using core::make_factory;
using core::sched_kind;

packet_ptr make_packet(std::uint64_t id, node_id src, node_id dst,
                       std::uint32_t bytes) {
  packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = bytes;
  p->src_host = src;
  p->dst_host = dst;
  return p;
}

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;

  explicit fixture(topo::topology t, sched_kind k = sched_kind::fifo,
                   std::int64_t buffer = 0)
      : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_buffer_bytes(buffer);
    net.set_scheduler_factory(make_factory(k, 1, &net));
    net.build();
  }
};

TEST(network, single_hop_timing_is_exact) {
  // host -> r0 -> r1 -> host over 1 Gbps links with 1 us propagation.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1;
  sim::time_ps egress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };

  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.sim.run();

  // Host NIC: 12 us transmit + 1 us prop -> ingress (last bit) at 13 us.
  EXPECT_EQ(ingress, 13 * sim::kMicrosecond);
  // r0: 12 us transmit + 1 us prop + r1: 12 us transmit -> egress at 38 us.
  EXPECT_EQ(egress, 38 * sim::kMicrosecond);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(network, queueing_delay_accumulates_only_when_waiting) {
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  std::vector<sim::time_ps> qdelays;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    qdelays.push_back(p.queueing_delay);
  };
  // Two back-to-back packets: the second waits one transmission time at the
  // host NIC (and then nowhere else: downstream it is paced).
  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.net.send_from_host(make_packet(2, h0, h1, 1500));
  f.sim.run();

  ASSERT_EQ(qdelays.size(), 2u);
  EXPECT_EQ(qdelays[0], 0);
  EXPECT_EQ(qdelays[1], 12 * sim::kMicrosecond);
}

TEST(network, tmin_matches_observed_uncongested_traversal) {
  fixture f(topo::line(4, sim::kGbps, 3 * sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1, egress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };

  auto p = make_packet(1, h0, h1, 1000);
  f.net.route(h0, h1, p->path);
  const auto tmin = f.net.tmin(*p, 0);
  f.net.send_from_host(std::move(p));
  f.sim.run();

  // In an empty network the traversal from ingress to egress equals tmin.
  EXPECT_EQ(egress - ingress, tmin);
}

TEST(network, inject_at_ingress_bypasses_host_link) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);

  sim::time_ps ingress = -1;
  f.net.hooks().on_ingress = [&](const packet&, sim::time_ps t) {
    ingress = t;
  };
  auto p = make_packet(1, h0, h1, 1500);
  f.net.route(h0, h1, p->path);
  f.net.inject_at_ingress(std::move(p), 777 * sim::kMicrosecond);
  f.sim.run();
  EXPECT_EQ(ingress, 777 * sim::kMicrosecond);
}

TEST(network, drop_tail_on_full_buffer) {
  // Buffer sized for exactly two 1500 B packets; send four simultaneously.
  // Admission happens before the (deferred) service decision, so exactly
  // two packets are admitted and two drop.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond), sched_kind::fifo,
            3000);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  int drops = 0;
  f.net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                              drop_kind) { ++drops; };
  for (int i = 0; i < 4; ++i) {
    f.net.send_from_host(make_packet(i + 1, h0, h1, 1500));
  }
  f.sim.run();
  EXPECT_EQ(drops, 2);
  EXPECT_EQ(f.net.stats().delivered, 2u);
}

TEST(network, buffer_admits_again_once_service_drains) {
  // Same buffer, but the packets arrive spaced by one transmission time:
  // the queue never exceeds its capacity and nothing drops.
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond), sched_kind::fifo,
            3000);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  int drops = 0;
  f.net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                              drop_kind) { ++drops; };
  for (int i = 0; i < 4; ++i) {
    auto p = make_packet(i + 1, h0, h1, 1500);
    f.net.route(h0, h1, p->path);
    f.net.inject_at_ingress(std::move(p),
                            i * 12 * sim::kMicrosecond);
  }
  f.sim.run();
  EXPECT_EQ(drops, 0);
  EXPECT_EQ(f.net.stats().delivered, 4u);
}

TEST(network, hosts_on_same_router_single_router_path) {
  topo::topology t = topo::line(1, sim::kGbps, sim::kMicrosecond, 2);
  fixture f(std::move(t));
  const auto h0 = f.topo.host_id(0);
  // Hosts alternate ends in line(); with 1 router both attach to router 0.
  const auto h1 = f.topo.host_id(1);
  std::vector<node_id> path;
  f.net.route(h0, h1, path);
  EXPECT_EQ(path.size(), 1u);

  sim::time_ps egress = -1;
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps t) { egress = t; };
  f.net.send_from_host(make_packet(1, h0, h1, 1500));
  f.sim.run();
  EXPECT_GT(egress, 0);
  EXPECT_EQ(f.net.stats().delivered, 1u);
}

TEST(network, trace_recorder_captures_schedule) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  net::trace_recorder rec(f.net, /*with_hop_times=*/false);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  for (int i = 0; i < 5; ++i) {
    f.net.send_from_host(make_packet(i + 1, h0, h1, 1500));
  }
  f.sim.run();
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 5u);
  for (const auto& r : tr.packets) {
    EXPECT_GT(r.egress_time, r.ingress_time);
    EXPECT_EQ(r.path.size(), 3u);
    EXPECT_GE(r.ingress_time, 0);
  }
}

TEST(network, per_hop_departure_recording) {
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  net::trace_recorder rec(f.net, /*with_hop_times=*/true);
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  auto p = make_packet(1, h0, h1, 1500);
  p->record_hops = true;
  f.net.send_from_host(std::move(p));
  f.sim.run();
  const auto tr = rec.take();
  ASSERT_EQ(tr.packets.size(), 1u);
  ASSERT_EQ(tr.packets[0].hop_departs.size(), 3u);
  EXPECT_LT(tr.packets[0].hop_departs[0], tr.packets[0].hop_departs[1]);
  EXPECT_LT(tr.packets[0].hop_departs[1], tr.packets[0].hop_departs[2]);
  EXPECT_EQ(tr.packets[0].hop_departs[2], tr.packets[0].egress_time);
}

TEST(network, infinite_rate_port_transmits_instantly) {
  topo::topology t;
  t.name = "inf";
  t.routers = 2;
  t.core_links.push_back(topo::link_spec{0, 1, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{0, sim::kInfiniteRate, 0});
  t.hosts.push_back(topo::host_spec{1, sim::kInfiniteRate, 0});
  fixture f(std::move(t));
  sim::time_ps egress = -1;
  f.net.hooks().on_egress = [&](const packet&, sim::time_ps tm) {
    egress = tm;
  };
  f.net.send_from_host(make_packet(1, f.topo.host_id(0), f.topo.host_id(1),
                                   125));
  f.sim.run();
  EXPECT_EQ(egress, 0);
}

// Differential test for the lazy, stub-sharing route rows: for every
// (strided) host pair, route() must return exactly the textbook reference
// Dijkstra's path over the node-indexed router-only graph (weight =
// propagation delay + 1ps) between the two attachment routers — same
// paths, same tie-breaks.
void expect_routes_match_reference(topo::topology t, std::size_t stride = 1) {
  fixture f(std::move(t));
  routing_graph g(f.net.node_count());
  for (const auto& p : f.net.ports()) {
    if (f.net.is_router(p->from()) && f.net.is_router(p->to())) {
      g[p->from()].push_back(routing_edge{p->to(), p->prop_delay() + 1});
    }
  }
  std::vector<node_id> path;
  for (std::size_t i = 0; i < f.topo.host_count(); i += stride) {
    const auto hi = f.topo.host_id(i);
    const auto s = f.net.attachment(hi);
    const auto row = ups::testing::reference_prev_row(g, s);
    for (std::size_t j = 0; j < f.topo.host_count(); j += stride) {
      const auto hj = f.topo.host_id(j);
      const auto expected =
          ups::testing::reference_path(row, s, f.net.attachment(hj));
      ASSERT_FALSE(expected.empty());
      f.net.route(hi, hj, path);
      EXPECT_EQ(path, expected)
          << f.topo.name << " host " << i << " -> " << j;
    }
  }
}

TEST(network, idle_port_decision_keeps_its_reserved_place) {
  // X = a -> c finishes p0 at t with nothing queued, so it reserves its
  // service decision's number instead of posting it. Still at t, q reaches
  // the idle port Y = b -> c (which posts a decision), then r reaches X,
  // which must decide under its reserved number: ahead of Y, as it would
  // with an empty decision posted at its completion. r and q then finish
  // together and meet at the FIFO port c -> d in that order.
  topo::topology t;
  t.routers = 4;  // a b c d
  for (const auto& [from, to] : {std::pair{0, 2}, {1, 2}, {2, 3}}) {
    t.core_links.push_back(
        topo::link_spec{from, to, sim::kGbps, sim::kMicrosecond});
  }
  t.hosts.push_back(topo::host_spec{3, sim::kGbps, sim::kMicrosecond});
  fixture f(t);
  const auto h = f.topo.host_id(0);
  auto packet_via = [&](std::uint64_t id, node_id first) {
    packet_ptr p = make_packet(id, h, h, 1500);
    p->path = {first, 2, 3};
    return p;
  };
  std::vector<std::uint64_t> egress_order;
  f.net.hooks().on_egress = [&](const packet& p, sim::time_ps) {
    egress_order.push_back(p.id);
  };
  const sim::time_ps t_done = 12 * sim::kMicrosecond;  // p0 leaves a
  f.sim.schedule_at(0, [&] { f.net.inject_now(packet_via(1, 0)); });
  // Posted after X's completion event, so both run after it at t_done.
  f.sim.schedule_at(1, [&] {
    f.sim.schedule_at(t_done, [&] { f.net.inject_now(packet_via(2, 1)); });
    f.sim.schedule_at(t_done, [&] { f.net.inject_now(packet_via(3, 0)); });
  });
  f.sim.run();
  EXPECT_EQ(egress_order, (std::vector<std::uint64_t>{1, 3, 2}));
}

TEST(network, route_table_matches_lazy_reference_line) {
  expect_routes_match_reference(
      topo::line(4, sim::kGbps, sim::kMicrosecond, 6));
}

TEST(network, route_table_matches_lazy_reference_parking_lot) {
  expect_routes_match_reference(
      topo::parking_lot(5, sim::kGbps, sim::kMicrosecond));
}

TEST(network, route_table_matches_lazy_reference_internet2) {
  expect_routes_match_reference(topo::internet2());
}

TEST(network, route_table_matches_lazy_reference_fattree) {
  // 128 hosts: a strided sample still covers intra-edge, intra-pod and
  // cross-pod pairs while keeping the reference Dijkstras cheap.
  expect_routes_match_reference(topo::fattree(), /*stride=*/5);
}

TEST(network, route_table_matches_lazy_reference_rocketfuel) {
  // 830 hosts on 913 routers: every 41st host gives 21 sources (each a
  // stub reusing its neighbour's row), each checked against 21
  // destinations spread over the whole topology.
  expect_routes_match_reference(topo::rocketfuel(), /*stride=*/41);
}

TEST(network, replay_network_computes_no_route_tree) {
  // The recording network routes its one host pair once; the replay network
  // takes every path from the trace and must never build a tree.
  const auto t = topo::line(3, sim::kGbps, sim::kMicrosecond);
  fixture f(t);
  net::trace_recorder rec(f.net, /*with_hop_times=*/false);
  for (int i = 0; i < 5; ++i) {
    f.net.send_from_host(
        make_packet(i + 1, f.topo.host_id(0), f.topo.host_id(1), 1500));
  }
  f.sim.run();
  EXPECT_EQ(f.net.stats().route_trees, 1u);

  // replay_trace owns its network; an ingress hook installed by the
  // topology builder samples the counter after every injection.
  std::uint64_t ingresses = 0;
  std::uint64_t trees = 0;
  const auto res = core::replay_trace(
      rec.take(),
      [&](network& n) {
        topo::populate(t, n);
        n.hooks().on_ingress = [&n, &ingresses, &trees](const packet&,
                                                        sim::time_ps) {
          ++ingresses;
          trees = std::max(trees, n.stats().route_trees);
        };
      },
      core::replay_options{});
  EXPECT_EQ(res.total, 5u);
  EXPECT_EQ(ingresses, 5u);
  EXPECT_EQ(trees, 0u);
}

TEST(network, route_row_is_computed_once_per_source_router) {
  fixture f(topo::fattree());
  EXPECT_EQ(f.net.stats().route_trees, 0u);  // build() routes nothing
  // Hosts 0 and 1 share an edge switch; host 15 sits in another pod.
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  const auto h15 = f.topo.host_id(15);
  std::vector<node_id> path;
  f.net.route(h0, h15, path);
  f.net.route(h0, h1, path);
  f.net.route(h1, h15, path);
  f.net.route(h0, h15, path);
  EXPECT_EQ(f.net.stats().route_trees, 1u);
  f.net.route(h15, h0, path);
  EXPECT_EQ(f.net.stats().route_trees, 2u);
}

TEST(network, stub_routers_share_their_neighbours_tree) {
  // Internet2: each of the 100 host routers is a stub on one of the 10
  // backbone routers, so every host pair routes from 10 trees.
  fixture f(topo::internet2());
  std::vector<node_id> path;
  for (std::size_t i = 0; i < f.topo.host_count(); ++i) {
    for (std::size_t j = 0; j < f.topo.host_count(); ++j) {
      f.net.route(f.topo.host_id(i), f.topo.host_id(j), path);
    }
  }
  EXPECT_EQ(f.net.stats().route_trees, 10u);
}

TEST(network, rocketfuel_calibration_computes_one_tree_per_core_router) {
  // The 20,000 sampled pairs reach nearly every one of the 830 stub host
  // routers; their trees are the 83 of their neighbours.
  fixture f(topo::rocketfuel());
  static_cast<void>(traffic::calibrate_per_host_rate(f.net, f.topo, {}));
  EXPECT_EQ(f.net.stats().route_trees, 83u);
}

TEST(network, two_stubs_facing_each_other_route_both_ways) {
  // line(2): routers 0 and 1 are each other's only neighbour. Each source
  // walks the other's own row (one level of stub sharing, no recursion).
  fixture f(topo::line(2, sim::kGbps, sim::kMicrosecond));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  const auto r0 = f.net.attachment(h0);
  const auto r1 = f.net.attachment(h1);
  std::vector<node_id> path;
  f.net.route(h0, h1, path);
  EXPECT_EQ(path, (std::vector<node_id>{r0, r1}));
  EXPECT_EQ(f.net.stats().route_trees, 1u);
  f.net.route(h1, h0, path);
  EXPECT_EQ(path, (std::vector<node_id>{r1, r0}));
  EXPECT_EQ(f.net.stats().route_trees, 2u);
  f.net.route(h0, h1, path);
  f.net.route(h1, h0, path);
  EXPECT_EQ(f.net.stats().route_trees, 2u);
}

TEST(network, self_route_is_the_attachment_router) {
  // line(1, .., 2): both hosts hang off router 0.
  fixture f(topo::line(1, sim::kGbps, sim::kMicrosecond, 2));
  const auto h0 = f.topo.host_id(0);
  const auto r0 = f.net.attachment(h0);
  std::vector<node_id> path{7, 7, 7};  // stale contents are replaced
  f.net.route(h0, f.topo.host_id(1), path);
  EXPECT_EQ(path, std::vector<node_id>{r0});
  f.net.route(h0, h0, path);
  EXPECT_EQ(path, std::vector<node_id>{r0});
  EXPECT_EQ(f.net.stats().route_trees, 0u);  // a self route needs no tree
}

TEST(network, unreachable_pair_throws_on_fresh_and_cached_row) {
  // Two disconnected routers; hosts 0 and 2 on router 0, host 1 on router 1.
  topo::topology t;
  t.name = "split";
  t.routers = 2;
  for (const std::int32_t r : {0, 1, 0}) {
    t.hosts.push_back(topo::host_spec{r, sim::kGbps, sim::kMicrosecond});
  }
  fixture f(std::move(t));
  const auto h0 = f.topo.host_id(0);
  const auto h1 = f.topo.host_id(1);
  std::vector<node_id> path{42};
  EXPECT_THROW(f.net.route(h0, h1, path), std::runtime_error);
  EXPECT_EQ(f.net.stats().route_trees, 1u);
  EXPECT_THROW(f.net.route(h0, h1, path), std::runtime_error);
  EXPECT_EQ(f.net.stats().route_trees, 1u);  // second miss reused the row
  EXPECT_EQ(path, std::vector<node_id>{42});  // a miss leaves out untouched
  f.net.route(h0, f.topo.host_id(2), path);
  EXPECT_EQ(path, std::vector<node_id>{f.net.attachment(h0)});
}

}  // namespace
}  // namespace ups::net
