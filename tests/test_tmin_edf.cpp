// Tests for tmin (Appendix A) and EDF's per-router priority derivation
// (Appendix E), including mid-path evaluations.
#include <gtest/gtest.h>

#include <memory>

#include "core/edf.h"
#include "core/registry.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/internet2.h"

namespace ups::core {
namespace {

struct fixture {
  sim::simulator sim;
  net::network net{sim};
  topo::topology topo;

  explicit fixture(topo::topology t) : topo(std::move(t)) {
    topo::populate(topo, net);
    net.set_scheduler_factory(make_factory(sched_kind::fifo, 1));
    net.build();
  }
};

TEST(tmin, line_decomposes_per_hop) {
  // tmin(from hop k) telescopes: dropping the first hop removes exactly
  // that hop's transmission time plus its outgoing propagation delay.
  fixture f(topo::line(4, sim::kGbps, 3 * sim::kMicrosecond));
  net::packet p;
  p.size_bytes = 1500;
  p.src_host = f.topo.host_id(0);
  p.dst_host = f.topo.host_id(1);
  f.net.route(p.src_host, p.dst_host, p.path);
  ASSERT_EQ(p.path.size(), 4u);
  for (std::size_t k = 0; k + 1 < p.path.size(); ++k) {
    const auto full = f.net.tmin(p, k);
    const auto rest = f.net.tmin(p, k + 1);
    // Each router hop: 12 us transmission + 3 us propagation.
    EXPECT_EQ(full - rest, 15 * sim::kMicrosecond);
  }
  // The last hop is transmission only (egress link prop excluded).
  EXPECT_EQ(f.net.tmin(p, p.path.size() - 1), 12 * sim::kMicrosecond);
}

TEST(tmin, paper_slack_equation_terms) {
  // Appendix A: tmin(p, src, dest) includes transmission at both endpoints
  // and everything between. On a single-router path it is exactly T(p, a).
  fixture f(topo::line(1, sim::kGbps, sim::kMicrosecond, 2));
  net::packet p;
  p.size_bytes = 1500;
  p.src_host = f.topo.host_id(0);
  p.dst_host = f.topo.host_id(1);
  f.net.route(p.src_host, p.dst_host, p.path);
  ASSERT_EQ(p.path.size(), 1u);
  EXPECT_EQ(f.net.tmin(p, 0), 12 * sim::kMicrosecond);
}

TEST(tmin, heterogeneous_rates) {
  topo::topology t;
  t.name = "hetero";
  t.routers = 3;
  t.core_links.push_back(topo::link_spec{0, 1, sim::kGbps, 0});
  t.core_links.push_back(topo::link_spec{1, 2, 2 * sim::kGbps, 0});
  t.hosts.push_back(topo::host_spec{0, 10 * sim::kGbps, 0});
  t.hosts.push_back(topo::host_spec{2, 10 * sim::kGbps, 0});
  fixture f(std::move(t));
  net::packet p;
  p.size_bytes = 1500;
  p.src_host = f.topo.host_id(0);
  p.dst_host = f.topo.host_id(1);
  f.net.route(p.src_host, p.dst_host, p.path);
  // r0 at 1G (12us) + r1 at 2G (6us) + r2 egress at 10G (1.2us).
  EXPECT_EQ(f.net.tmin(p, 0), 19'200 * sim::kNanosecond);
}

TEST(edf, priority_equals_deadline_minus_remaining_tmin_plus_t) {
  fixture f(topo::line(3, sim::kGbps, 2 * sim::kMicrosecond));
  net::packet_ptr p = net::make_packet();
  p->size_bytes = 1500;
  p->src_host = f.topo.host_id(0);
  p->dst_host = f.topo.host_id(1);
  f.net.route(p->src_host, p->dst_host, p->path);
  p->deadline = sim::kMillisecond;  // o(p)
  p->hop = 1;  // as if arriving at the port of path[0]

  edf sched(7, f.net, sim::kGbps);
  const auto expected = p->deadline - f.net.tmin(*p, 0) +
                        sim::transmission_time(1500, sim::kGbps);
  sched.enqueue(std::move(p), 0);
  auto out = sched.dequeue(0);
  ASSERT_NE(out, nullptr);
  EXPECT_EQ(out->sched_key, expected);
}

TEST(edf, deadline_header_never_rewritten) {
  // Unlike LSTF's slack, EDF's o(p) header is static: run a packet through
  // a congested network and confirm the field is untouched.
  fixture f(topo::line(3, sim::kGbps, sim::kMicrosecond));
  sim::time_ps deadline_at_egress = -1;
  f.net.hooks().on_egress = [&](const net::packet& p, sim::time_ps) {
    deadline_at_egress = p.deadline;
  };
  net::packet_ptr p = net::make_packet();
  p->id = 1;
  p->size_bytes = 1500;
  p->src_host = f.topo.host_id(0);
  p->dst_host = f.topo.host_id(1);
  p->deadline = 42 * sim::kMillisecond;
  f.net.send_from_host(std::move(p));
  f.sim.run();
  EXPECT_EQ(deadline_at_egress, 42 * sim::kMillisecond);
}

TEST(tmin, matches_on_internet2_sampled_paths) {
  // Cross-check tmin against an actual uncongested traversal for sampled
  // host pairs on the full Internet2 topology.
  fixture f(topo::internet2());
  sim::rng rng(5);
  for (int trial = 0; trial < 10; ++trial) {
    const auto s = rng.next_below(f.topo.host_count());
    auto d = rng.next_below(f.topo.host_count() - 1);
    if (d >= s) ++d;

    sim::simulator sim2;
    net::network net2(sim2);
    topo::populate(f.topo, net2);
    net2.set_scheduler_factory(make_factory(sched_kind::fifo, 1));
    net2.build();
    sim::time_ps ingress = -1, egress = -1;
    net2.hooks().on_ingress = [&](const net::packet&, sim::time_ps t) {
      ingress = t;
    };
    net2.hooks().on_egress = [&](const net::packet&, sim::time_ps t) {
      egress = t;
    };
    net::packet_ptr p = net::make_packet();
    p->id = 1;
    p->size_bytes = 1500;
    p->src_host = f.topo.host_id(s);
    p->dst_host = f.topo.host_id(d);
    net2.route(p->src_host, p->dst_host, p->path);
    const auto expect = net2.tmin(*p, 0);
    net2.send_from_host(std::move(p));
    sim2.run();
    EXPECT_EQ(egress - ingress, expect) << "pair " << s << "->" << d;
  }
}

}  // namespace
}  // namespace ups::core
