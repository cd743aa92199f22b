// Unit/integration tests for the replay engine itself: header
// initialization, packet conservation, threshold accounting, and simple
// known-outcome replays.
#include <gtest/gtest.h>

#include <memory>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "gadget_runner.h"
#include "net/network.h"
#include "net/trace.h"
#include "replay_test_util.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/gadgets.h"
#include "traffic/size_dist.h"
#include "traffic/udp_app.h"
#include "traffic/workload.h"

namespace ups::core {
namespace {

struct recorded {
  topo::topology topology;
  net::trace trace;
};

// Runs a workload under `kind` on the given topology and records the trace.
recorded record_run(topo::topology topo, sched_kind kind,
                    std::uint64_t packets, double util = 0.6,
                    bool hop_times = false, std::uint64_t seed = 3) {
  recorded out;
  out.topology = std::move(topo);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(out.topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(make_factory(kind, seed, &net));
  net.build();
  net::trace_recorder rec(net, hop_times);
  traffic::fixed_size dist(15'000);
  traffic::workload_config wcfg;
  wcfg.utilization = util;
  wcfg.seed = seed;
  wcfg.packet_budget = packets;
  auto wl = traffic::generate(net, out.topology, dist, wcfg);
  traffic::udp_app::options aopt;
  aopt.record_hops = hop_times;
  traffic::udp_app app(net, std::move(wl.flows), aopt);
  sim.run();
  out.trace = rec.take();
  return out;
}

replay_result do_replay(const recorded& r, replay_mode mode,
                        sim::time_ps threshold = 0) {
  replay_options opt;
  opt.mode = mode;
  opt.threshold_T = threshold;
  opt.keep_outcomes = true;
  const auto& topology = r.topology;
  return replay_trace(
      r.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

TEST(replay_engine, conserves_every_packet) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 3'000);
  const auto res = do_replay(r, replay_mode::lstf);
  EXPECT_EQ(res.total, r.trace.packets.size());
  EXPECT_EQ(res.outcomes.size(), r.trace.packets.size());
}

TEST(replay_engine, uncongested_schedule_replays_exactly) {
  // At 1% utilization packets rarely queue; the original schedule is almost
  // everywhere tmin-tight and the replay must reproduce it exactly.
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 500, 0.01);
  const auto res = do_replay(r, replay_mode::lstf);
  EXPECT_EQ(res.overdue, 0u);
  for (const auto& o : res.outcomes) {
    EXPECT_LE(o.replay_out, o.original_out);
  }
}

TEST(replay_engine, preemptive_lstf_perfect_on_single_congestion_point) {
  // Dumbbell: the only congestion point is the bottleneck port (host NICs
  // are bypassed by ingress injection; egress ports are fed serialized
  // traffic at or below their own rate). Appendix G: LSTF replays <= 2
  // congestion points perfectly.
  const auto r = record_run(topo::dumbbell(6, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 8'000, 0.8);
  const auto res = do_replay(r, replay_mode::lstf_preemptive);
  EXPECT_EQ(res.overdue, 0u);
}

TEST(replay_engine, edf_matches_lstf_exactly) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.7);
  const auto a = do_replay(r, replay_mode::lstf);
  const auto b = do_replay(r, replay_mode::edf);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].replay_out, b.outcomes[i].replay_out);
  }
}

TEST(replay_engine, pheap_backed_lstf_matches_map_backed_exactly) {
  // §5: the pipelined-heap implementation is a drop-in replacement.
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.7);
  const auto a = do_replay(r, replay_mode::lstf);
  const auto b = do_replay(r, replay_mode::lstf_pheap);
  ASSERT_EQ(a.outcomes.size(), b.outcomes.size());
  for (std::size_t i = 0; i < a.outcomes.size(); ++i) {
    EXPECT_EQ(a.outcomes[i].replay_out, b.outcomes[i].replay_out);
    EXPECT_EQ(a.outcomes[i].replay_queueing, b.outcomes[i].replay_queueing);
  }
}

TEST(replay_engine, quantized_omniscient_degrades_gracefully) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.8, /*hop_times=*/true);
  replay_options opt;
  opt.mode = replay_mode::omniscient;
  opt.keep_outcomes = false;
  const auto& topology = r.topology;
  const auto builder = [&topology](net::network& n) {
    topo::populate(topology, n);
  };
  opt.omniscient_quantum = 0;
  const auto exact = replay_trace(r.trace, builder, opt);
  EXPECT_EQ(exact.overdue, 0u);
  // Sub-transmission-time quantization cannot change any ordering between
  // packets whose original service start times differ by >= one slot.
  opt.omniscient_quantum = sim::kNanosecond;
  const auto fine = replay_trace(r.trace, builder, opt);
  EXPECT_EQ(fine.overdue, 0u);
  // Very coarse quantization collapses most ranks and must hurt.
  opt.omniscient_quantum = 100 * sim::kMillisecond;
  const auto coarse = replay_trace(r.trace, builder, opt);
  EXPECT_GE(coarse.overdue, fine.overdue);
}

TEST(replay_engine, omniscient_requires_hop_times) {
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 200, 0.3, /*hop_times=*/false);
  EXPECT_THROW(do_replay(r, replay_mode::omniscient), std::invalid_argument);
}

TEST(replay_engine, omniscient_perfect_with_hop_times) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.8, /*hop_times=*/true);
  const auto res = do_replay(r, replay_mode::omniscient);
  EXPECT_EQ(res.overdue, 0u);
}

TEST(replay_engine, threshold_accounting_monotone) {
  const auto r = record_run(topo::dumbbell(6, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::lifo, 6'000, 0.8);
  const auto strict = do_replay(r, replay_mode::priority_output_time, 0);
  const auto loose = do_replay(r, replay_mode::priority_output_time,
                               12 * sim::kMicrosecond);
  EXPECT_GE(strict.overdue, strict.overdue_beyond_T);
  EXPECT_GE(loose.overdue, loose.overdue_beyond_T);
  EXPECT_GE(strict.overdue_beyond_T, loose.overdue_beyond_T);
  EXPECT_EQ(strict.overdue, loose.overdue);  // threshold only affects >T
}

TEST(replay_engine, fractions_are_consistent) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::lifo, 3'000, 0.8);
  const auto res = do_replay(r, replay_mode::lstf, 12 * sim::kMicrosecond);
  EXPECT_NEAR(res.frac_overdue(),
              static_cast<double>(res.overdue) / res.total, 1e-12);
  EXPECT_LE(res.frac_overdue_beyond_T(), res.frac_overdue());
}

TEST(replay_engine, lstf_slack_initialization_formula) {
  // Manually verify slack(p) = o(p) - i(p) - tmin(p) for a recorded packet
  // by reconstructing tmin on a fresh network.
  const auto r = record_run(topo::dumbbell(2, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 300, 0.5);
  sim::simulator sim;
  net::network net(sim);
  topo::populate(r.topology, net);
  net.set_scheduler_factory(make_factory(sched_kind::fifo, 1));
  net.build();
  for (const auto& rec : r.trace.packets) {
    net::packet probe;
    probe.size_bytes = rec.size_bytes;
    probe.dst_host = rec.dst_host;
    probe.path = rec.path;
    const auto tmin = net.tmin(probe, 0);
    const auto slack = rec.egress_time - rec.ingress_time - tmin;
    EXPECT_GE(slack, 0) << "viable schedules never have negative slack";
  }
}

using ups::testing::expect_identical_results;

replay_result replay_with_injection(const recorded& r, replay_mode mode,
                                    injection_mode injection) {
  replay_options opt;
  opt.mode = mode;
  opt.keep_outcomes = true;
  opt.injection = injection;
  const auto& topology = r.topology;
  return replay_trace(
      r.trace, [&topology](net::network& n) { topo::populate(topology, n); },
      opt);
}

TEST(replay_engine, streaming_injection_matches_upfront) {
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::random, 4'000, 0.8);
  for (const auto mode : {replay_mode::lstf, replay_mode::lstf_preemptive,
                          replay_mode::edf,
                          replay_mode::priority_output_time}) {
    const auto streamed =
        replay_with_injection(r, mode, injection_mode::streaming);
    const auto upfront =
        replay_with_injection(r, mode, injection_mode::upfront);
    expect_identical_results(streamed, upfront);
  }
}

TEST(replay_engine, streaming_injection_matches_upfront_on_gadget_trace) {
  // The theory gadgets prescribe exact per-hop schedules, so any injection
  // artifact (reordered same-instant arrivals, a shifted service decision)
  // shows up as a hard outcome diff rather than statistical noise.
  for (const int c : {1, 2}) {
    const auto g = topo::fig5_case(c);
    const auto run = testing::run_gadget_original(g);
    recorded rec;
    rec.topology = run.topology;
    rec.trace = run.trace;
    for (const auto mode : {replay_mode::lstf, replay_mode::edf,
                            replay_mode::omniscient}) {
      const auto streamed =
          replay_with_injection(rec, mode, injection_mode::streaming);
      const auto upfront =
          replay_with_injection(rec, mode, injection_mode::upfront);
      expect_identical_results(streamed, upfront);
    }
  }
}

TEST(replay_engine, streaming_preserves_injection_order_on_rank_ties) {
  // Regression: an injection landing at the exact instant a forwarded
  // packet arrives at the same router, with equal ranks (EDF deadlines
  // here). Up-front injection pre-schedules all deliveries, so the injected
  // packet enqueues first and wins the FCFS tie-break; streaming must
  // reproduce that via early-phase delivery, not lose it to event-sequence
  // ordering.
  const auto delay = sim::kMicrosecond;
  recorded r;
  r.topology = topo::parking_lot(3, sim::kGbps, delay);

  net::packet_record b;  // forwarded packet: crosses r1 mid-path
  b.id = 1;
  b.flow_id = 1;
  b.size_bytes = 1500;
  b.src_host = r.topology.host_id(0);
  b.dst_host = r.topology.host_id(2);
  b.path = {0, 1, 2};
  b.ingress_time = 0;
  b.egress_time = sim::kMillisecond;  // rank tie with `a` under EDF

  net::packet_record a;  // injected at r1 exactly when b arrives there
  a.id = 2;
  a.flow_id = 2;
  a.size_bytes = 1500;
  a.src_host = r.topology.host_id(1);
  a.dst_host = r.topology.host_id(2);
  a.path = {1, 2};
  a.ingress_time = sim::transmission_time(1500, sim::kGbps) + delay;
  a.egress_time = sim::kMillisecond;

  r.trace.packets = {b, a};
  for (const auto mode :
       {replay_mode::edf, replay_mode::priority_output_time}) {
    const auto streamed =
        replay_with_injection(r, mode, injection_mode::streaming);
    const auto upfront =
        replay_with_injection(r, mode, injection_mode::upfront);
    expect_identical_results(streamed, upfront);
    // The injected packet must win the tie at the shared port, as it does
    // under up-front injection: it transmits first and egresses earlier.
    ASSERT_EQ(streamed.outcomes[0].id, 1u);
    ASSERT_EQ(streamed.outcomes[1].id, 2u);
    EXPECT_LT(streamed.outcomes[1].replay_out, streamed.outcomes[0].replay_out);
  }
}

TEST(replay_engine, streaming_injection_cuts_peak_residency) {
  // Long trace over a short-RTT topology: only the in-flight window should
  // ever be resident under streaming, while up-front injection always
  // materializes the whole trace.
  const auto r = record_run(topo::dumbbell(4, 10 * sim::kGbps, sim::kGbps),
                            sched_kind::fifo, 6'000, 0.5);
  const auto streamed =
      replay_with_injection(r, replay_mode::lstf, injection_mode::streaming);
  const auto upfront =
      replay_with_injection(r, replay_mode::lstf, injection_mode::upfront);
  expect_identical_results(streamed, upfront);
  EXPECT_EQ(upfront.peak_pool_packets, r.trace.packets.size());
  EXPECT_LT(streamed.peak_pool_packets, upfront.peak_pool_packets / 4);
  EXPECT_LT(streamed.peak_event_slots, upfront.peak_event_slots / 4);
}

TEST(replay_engine, kernel_events_per_packet_and_slot_high_water) {
  // A fixed small I2 trace (seed 16, ~5k packets) under streaming LSTF.
  // Each router hop costs a wire-head event, a completion, and a service
  // decision only when the port has something to pick; injections are
  // inline and no host-delivery event is posted. Posting one kernel event
  // per packet on a wire, per injection, per empty decision and per host
  // delivery cost 91,251 events here (18.2 per packet) with a 4,162-slot
  // high-water that tracked the packets in flight.
  exp::scenario sc;
  sc.seed = 16;
  sc.packet_budget = 5'000;
  auto orig = exp::run_original(sc);
  net::sort_by_ingress(orig.trace);
  const auto r = exp::run_replay(orig, replay_mode::lstf);
  const std::size_t packets = orig.trace.packets.size();
  ASSERT_EQ(packets, 5'023u);
  EXPECT_EQ(r.total, packets);
  EXPECT_EQ(r.events, 67'716u);  // 13.5 per packet
  EXPECT_LT(static_cast<double>(r.events) / static_cast<double>(packets),
            14.0);
  // At most a wire head and a completion per port (plus the feeder):
  // bounded by the port count, not by the ~4.7k packets in flight.
  const std::size_t ports =
      2 * (orig.topology.core_links.size() + orig.topology.hosts.size());
  EXPECT_EQ(r.peak_event_slots, 167u);
  EXPECT_LE(r.peak_event_slots, ports);
  EXPECT_GT(r.peak_pool_packets, 10 * r.peak_event_slots);
}

TEST(replay_engine, replay_mode_names) {
  EXPECT_STREQ(to_string(replay_mode::lstf), "LSTF");
  EXPECT_STREQ(to_string(replay_mode::lstf_preemptive), "LSTF(preempt)");
  EXPECT_STREQ(to_string(replay_mode::edf), "EDF");
  EXPECT_STREQ(to_string(replay_mode::priority_output_time),
               "Priority(o(p))");
  EXPECT_STREQ(to_string(replay_mode::omniscient), "Omniscient");
}

}  // namespace
}  // namespace ups::core
