// Fault-model subsystem: spec parsing, the counter-based per-link RNG, the
// network's wire-drop path and drop accounting across every scheduler
// family, drop records surviving every trace format round-trip,
// replay-under-loss semantics, and cross-backend determinism of the whole
// lossy pipeline.
#include <gtest/gtest.h>

#include <cstdio>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/fault.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_io.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/topology.h"
#include "traffic/source.h"

namespace ups::net {
namespace {

using ups::testing::expect_identical_results;

// --- spec parsing ----------------------------------------------------------

TEST(fault_spec, parse_and_label_round_trip) {
  const fault_spec off = fault_spec::parse("");
  EXPECT_FALSE(off.enabled());
  EXPECT_EQ(off.label(), "");
  EXPECT_FALSE(fault_spec::parse("none").enabled());

  const fault_spec b = fault_spec::parse("bernoulli:0.01");
  EXPECT_EQ(b.kind, fault_kind::bernoulli);
  EXPECT_DOUBLE_EQ(b.p, 0.01);
  EXPECT_EQ(b.label(), "bern:0.01");
  // The compact label parses back to the same spec.
  EXPECT_EQ(fault_spec::parse(b.label()).p, b.p);

  const fault_spec g = fault_spec::parse("ge:0.001,0.25,0.1");
  EXPECT_EQ(g.kind, fault_kind::gilbert_elliott);
  EXPECT_DOUBLE_EQ(g.p, 0.001);
  EXPECT_DOUBLE_EQ(g.p_bad, 0.25);
  EXPECT_DOUBLE_EQ(g.flip, 0.1);
  EXPECT_EQ(g.label(), "ge:0.001,0.25,0.1");

  const fault_spec j = fault_spec::parse("jam:100,0.2");
  EXPECT_EQ(j.kind, fault_kind::jam);
  EXPECT_EQ(j.jam_period, 100 * sim::kMicrosecond);
  EXPECT_DOUBLE_EQ(j.jam_duty, 0.2);
  EXPECT_DOUBLE_EQ(j.jam_speedup, 1.0);
  EXPECT_EQ(j.label(), "jam:100,0.2");

  const fault_spec js = fault_spec::parse("jam:100,0.2,2");
  EXPECT_DOUBLE_EQ(js.jam_speedup, 2.0);
  EXPECT_EQ(js.label(), "jam:100,0.2,s2");
}

TEST(fault_spec, rejects_malformed_input) {
  EXPECT_THROW((void)fault_spec::parse("bernoulli:1.5"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("bernoulli:-0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("bernoulli:"), std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("bernoulli:0.1,0.2"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("ge:0.1"), std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("ge:0.1,2,0.1"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("jam:0,0.5"), std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("jam:100,0.5,0.5"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("jam:100"), std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("lightning:1"),
               std::invalid_argument);
  EXPECT_THROW((void)fault_spec::parse("bernoulli:zap"),
               std::invalid_argument);
}

// --- counter-based RNG -----------------------------------------------------

TEST(link_fault, decisions_are_a_pure_function_of_seed_link_counter) {
  const fault_spec spec = fault_spec::parse("bernoulli:0.3");
  link_fault a(spec, 42, 7);
  link_fault b(spec, 42, 7);
  link_fault other_link(spec, 42, 8);
  link_fault other_seed(spec, 43, 7);
  bool link_diverged = false;
  bool seed_diverged = false;
  std::uint64_t losses = 0;
  for (int i = 0; i < 4096; ++i) {
    const bool la = a.lose(0);
    ASSERT_EQ(la, b.lose(0)) << "decision " << i;
    losses += la ? 1 : 0;
    link_diverged = link_diverged || other_link.lose(0) != la;
    seed_diverged = seed_diverged || other_seed.lose(0) != la;
  }
  // Streams keyed on different links/seeds must not alias.
  EXPECT_TRUE(link_diverged);
  EXPECT_TRUE(seed_diverged);
  // The marginal rate is p (loose 4-sigma band around 0.3 * 4096).
  EXPECT_GT(losses, 1100u);
  EXPECT_LT(losses, 1350u);
  EXPECT_EQ(a.decisions(), 4096u);
}

TEST(link_fault, gilbert_elliott_losses_arrive_in_bursts) {
  // p = 0 in Good and p_bad = 1 in Bad makes the loss sequence the state
  // sequence itself: runs of consecutive losses are Bad-state sojourns,
  // expected length 1/flip = 10.
  const fault_spec spec = fault_spec::parse("ge:0,1,0.1");
  link_fault f(spec, 1, 0);
  std::uint64_t losses = 0, bursts = 0, run = 0;
  double run_sum = 0;
  for (int i = 0; i < 20000; ++i) {
    if (f.lose(0)) {
      ++losses;
      ++run;
    } else if (run > 0) {
      ++bursts;
      run_sum += static_cast<double>(run);
      run = 0;
    }
  }
  ASSERT_GT(losses, 0u);
  ASSERT_GT(bursts, 10u);
  // Mean burst length ~10; a memoryless (iid) process at the same loss
  // rate would average ~2. The band is loose but cleanly separates them.
  const double mean_burst = run_sum / static_cast<double>(bursts);
  EXPECT_GT(mean_burst, 5.0);
  EXPECT_LT(mean_burst, 20.0);
}

TEST(link_fault, jam_windows_are_deterministic_in_time) {
  const fault_spec spec = fault_spec::parse("jam:100,0.2");
  link_fault f(spec, 9, 3);
  const sim::time_ps period = 100 * sim::kMicrosecond;
  const sim::time_ps duty = period / 5;
  EXPECT_TRUE(f.lose(0));
  EXPECT_TRUE(f.lose(duty - 1));
  EXPECT_FALSE(f.lose(duty));
  EXPECT_FALSE(f.lose(period - 1));
  EXPECT_TRUE(f.lose(period));
  EXPECT_TRUE(f.lose(7 * period + duty / 2));
  EXPECT_FALSE(f.lose(7 * period + duty));
}

// --- network wire-drop path ------------------------------------------------

packet_ptr make_packet(std::uint64_t id, node_id src, node_id dst) {
  packet_ptr p = net::make_packet();
  p->id = id;
  p->flow_id = id;
  p->size_bytes = 1500;
  p->src_host = src;
  p->dst_host = dst;
  return p;
}

TEST(fault_network, wire_drops_fire_on_router_links_and_are_accounted) {
  // bernoulli:1 loses every packet on the single router->router hop of a
  // 2-router line; host access links stay reliable by construction, so
  // every packet still ingresses before dying on the wire.
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.set_fault(fault_spec::parse("bernoulli:1"), 1);
  net.build();

  std::uint64_t wire_drops = 0;
  std::vector<node_id> drop_sites;
  net.hooks().on_drop = [&](const packet&, node_id at, sim::time_ps,
                            drop_kind kind) {
    wire_drops += kind == drop_kind::wire ? 1 : 0;
    drop_sites.push_back(at);
  };
  const auto h0 = topo.host_id(0);
  const auto h1 = topo.host_id(1);
  for (int i = 0; i < 5; ++i) net.send_from_host(make_packet(i + 1, h0, h1));
  sim.run();

  EXPECT_EQ(net.stats().injected, 5u);
  EXPECT_EQ(net.stats().delivered, 0u);
  EXPECT_EQ(net.stats().dropped, 5u);
  EXPECT_EQ(net.stats().dropped_wire, 5u);
  EXPECT_EQ(wire_drops, 5u);
  for (const node_id at : drop_sites) {
    EXPECT_TRUE(net.is_router(at));  // the transmitting router, never a host
  }
}

TEST(fault_network, set_fault_after_build_throws) {
  sim::simulator sim;
  network net(sim);
  auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
  topo::populate(topo, net);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  EXPECT_THROW(net.set_fault(fault_spec::parse("bernoulli:0.5"), 1),
               std::logic_error);
}

// --- drop accounting across scheduler families (satellite audit) -----------

TEST(fault_accounting, every_scheduler_family_conserves_packets) {
  // A congested burst into a 3000-byte buffer: every family must agree on
  // the three drop ledgers — the network counter, the per-port counters,
  // and the on_drop hook — and conserve injected == delivered + dropped,
  // whether it tail-drops or evicts by rank.
  for (int k = 0; k <= static_cast<int>(core::sched_kind::omniscient); ++k) {
    const auto kind = static_cast<core::sched_kind>(k);
    sim::simulator sim;
    network net(sim);
    auto topo = topo::line(2, sim::kGbps, sim::kMicrosecond);
    topo::populate(topo, net);
    net.set_buffer_bytes(3000);
    net.set_scheduler_factory(core::make_factory(kind, 1, &net));
    net.build();
    std::uint64_t hook_drops = 0;
    net.hooks().on_drop = [&](const packet&, node_id, sim::time_ps,
                              drop_kind) { ++hook_drops; };
    const auto h0 = topo.host_id(0);
    const auto h1 = topo.host_id(1);
    for (int i = 0; i < 8; ++i) {
      net.send_from_host(make_packet(i + 1, h0, h1));
    }
    sim.run();
    const auto& st = net.stats();
    std::uint64_t port_drops = 0;
    for (const auto& port : net.ports()) {
      port_drops += port->stats().packets_dropped;
    }
    const char* name = core::to_string(kind);
    EXPECT_EQ(st.injected, 8u) << name;
    EXPECT_EQ(st.delivered + st.dropped, st.injected) << name;
    EXPECT_EQ(st.dropped, hook_drops) << name;
    EXPECT_EQ(st.dropped, port_drops) << name;
    EXPECT_EQ(st.dropped_wire, 0u) << name;  // no fault process attached
    EXPECT_GT(st.dropped, 0u) << name;       // the burst must congest
  }
}

// --- recorded drops: trace round-trips and replay-under-loss ---------------

exp::original_run lossy_original(const char* fault, std::uint64_t budget) {
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = budget;
  sc.fault = fault_spec::parse(fault);
  return exp::run_original(sc);
}

void expect_same_drop_records(const trace& a, const trace& b) {
  ASSERT_EQ(a.packets.size(), b.packets.size());
  for (std::size_t i = 0; i < a.packets.size(); ++i) {
    const auto& x = a.packets[i];
    const auto& y = b.packets[i];
    ASSERT_EQ(x.id, y.id);
    EXPECT_EQ(x.drop_hop, y.drop_hop) << "packet " << x.id;
    EXPECT_EQ(x.dropped_kind, y.dropped_kind) << "packet " << x.id;
    EXPECT_EQ(x.drop_time, y.drop_time) << "packet " << x.id;
    EXPECT_EQ(x.egress_time, y.egress_time) << "packet " << x.id;
  }
}

trace load_via_cursor(const std::string& path) {
  trace t;
  const auto cur = open_trace_cursor(path);
  while (const packet_record* r = cur->next()) t.packets.push_back(*r);
  return t;
}

TEST(fault_trace, drop_records_survive_every_format_round_trip) {
  auto orig = lossy_original("bernoulli:0.02", 4000);
  sort_by_ingress(orig.trace);
  std::uint64_t recorded_drops = 0;
  for (const auto& r : orig.trace.packets) {
    recorded_drops += r.dropped() ? 1 : 0;
  }
  ASSERT_GT(recorded_drops, 0u) << "2% loss on 4000 packets must drop some";

  const std::string base = ::testing::TempDir() + "/ups_fault_rt";
  const std::string v1 = base + ".v1.trace";
  const std::string v3 = base + ".v3.trace";
  save_trace(v1, orig.trace);
  save_trace_v3(v3, orig.trace);
  EXPECT_TRUE(trace_file_has_drop_records(v1));
  EXPECT_TRUE(trace_file_has_drop_records(v3));

  expect_same_drop_records(orig.trace, load_via_cursor(v1));
  expect_same_drop_records(orig.trace, load_via_cursor(v3));
  std::remove(v1.c_str());
  std::remove(v3.c_str());
}

TEST(fault_replay, replay_under_loss_conserves_every_packet) {
  auto orig = lossy_original("ge:0.0005,0.02,0.05", 4000);
  std::uint64_t recorded_drops = 0;
  for (const auto& r : orig.trace.packets) {
    recorded_drops += r.dropped() ? 1 : 0;
  }
  ASSERT_GT(recorded_drops, 0u);

  const auto rep =
      exp::run_replay(orig, core::replay_mode::lstf, /*keep_outcomes=*/true);
  EXPECT_EQ(rep.dropped, recorded_drops);
  EXPECT_EQ(rep.total + rep.dropped, orig.trace.packets.size());
  // Outcomes exist only for delivered packets: a dropped packet has no
  // o(p) to be late against.
  EXPECT_EQ(rep.outcomes.size(), rep.total);
}

TEST(fault_replay, forced_buffer_drops_are_reenacted_too) {
  // Wire drops come from live fault processes; buffer-kind drop records
  // (lossy originals with tiny buffers) must re-enact through the same
  // forced-drop path. Synthesize one: demote a delivered record to a
  // buffer drop at its egress hop.
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = 2000;
  auto orig = exp::run_original(sc);
  ASSERT_FALSE(orig.trace.packets.empty());
  auto& victim = orig.trace.packets.front();
  ASSERT_FALSE(victim.dropped());
  victim.drop_hop = static_cast<std::int32_t>(victim.path.size()) - 1;
  victim.dropped_kind = drop_kind::buffer;
  victim.drop_time = victim.egress_time;
  victim.egress_time = -1;

  const auto rep =
      exp::run_replay(orig, core::replay_mode::lstf, /*keep_outcomes=*/true);
  EXPECT_EQ(rep.dropped, 1u);
  EXPECT_EQ(rep.total + rep.dropped, orig.trace.packets.size());
  for (const auto& o : rep.outcomes) {
    EXPECT_NE(o.id, victim.id);  // the forced drop never reaches egress
  }
}

// --- cross-backend determinism of the lossy pipeline -----------------------

TEST(fault_dispatch, lossy_lanes_identical_across_serial_thread_process) {
  std::vector<exp::shard_task> tasks;
  for (const char* f : {"bernoulli:0.01", "ge:0.0005,0.02,0.05", "jam:100,0.2"}) {
    exp::shard_task t;
    t.sc.topo = exp::topo_kind::i2_default;
    t.sc.utilization = 0.7;
    t.sc.sched = core::sched_kind::random;
    t.sc.seed = 7;
    t.sc.packet_budget = 1500;
    t.sc.fault = fault_spec::parse(f);
    t.modes = {core::replay_mode::lstf, core::replay_mode::edf};
    tasks.push_back(std::move(t));
  }
  exp::shard_options opt;
  opt.keep_outcomes = true;
  const auto plan = exp::dispatch::job_plan::from_tasks(tasks, opt);
  const auto run_on = [&](exp::dispatch::backend_kind kind,
                          std::size_t workers) {
    exp::dispatch::backend_spec spec;
    spec.kind = kind;
    spec.workers = workers;
    auto rep = exp::dispatch::run(plan, spec);
    rep.throw_if_failed();
    return std::move(rep.results);
  };
  const auto serial = run_on(exp::dispatch::backend_kind::serial, 0);
  ASSERT_EQ(serial.size(), tasks.size());
  for (const auto& r : serial) {
    ASSERT_GT(r.replays.front().result.dropped, 0u)
        << "lane recorded no drops — the fault axis tested nothing";
  }
  std::vector<std::vector<exp::shard_result>> others;
  others.push_back(run_on(exp::dispatch::backend_kind::thread, 4));
#if defined(__unix__) || defined(__APPLE__)
  others.push_back(run_on(exp::dispatch::backend_kind::process, 4));
#endif
  for (const auto& got : others) {
    ASSERT_EQ(got.size(), serial.size());
    for (std::size_t i = 0; i < serial.size(); ++i) {
      EXPECT_EQ(serial[i].trace_packets, got[i].trace_packets);
      ASSERT_EQ(serial[i].replays.size(), got[i].replays.size());
      for (std::size_t m = 0; m < serial[i].replays.size(); ++m) {
        expect_identical_results(serial[i].replays[m].result,
                                 got[i].replays[m].result);
      }
    }
  }
}

TEST(fault_tcp, closed_loop_tcp_flows_complete_under_loss) {
  // The retransmitting source must survive a lossy fabric: every flow the
  // run accounts as completed genuinely delivered all its packets despite
  // 1% wire loss, and the run terminates (no stuck window slots).
  exp::scenario sc;
  sc.topo = exp::topo_kind::i2_default;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = 7;
  sc.packet_budget = 2000;
  sc.workload_kind =
      traffic::parse_workload("closed-loop-tcp", sc.workload_spec);
  sc.fault = fault_spec::parse("bernoulli:0.01");
  const auto orig = exp::run_original(sc);
  EXPECT_GT(orig.flows_completed, 0u);
  EXPECT_FALSE(orig.trace.packets.empty());
}

}  // namespace
}  // namespace ups::net
