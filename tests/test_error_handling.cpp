// Failure-injection tests: the library must fail loudly and precisely on
// misuse rather than silently producing wrong schedules.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "topo/basic.h"
#include "topo/fattree.h"
#include "topo/gadgets.h"
#include "traffic/size_dist.h"
#include "traffic/workload.h"

namespace ups {
namespace {

TEST(errors, network_requires_factory_before_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  EXPECT_THROW(n.build(), std::logic_error);
}

TEST(errors, network_rejects_double_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(n.build(), std::logic_error);
}

TEST(errors, network_rejects_topology_changes_after_build) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(static_cast<void>(n.add_router("late")), std::logic_error);
  EXPECT_THROW(static_cast<void>(n.add_host("late")), std::logic_error);
  EXPECT_THROW(n.add_link(0, 0, sim::kGbps, 0), std::logic_error);
}

TEST(errors, missing_port_lookup_throws) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  EXPECT_THROW(static_cast<void>(n.port_between(0, 1)), std::out_of_range);
}

TEST(errors, unreachable_route_throws) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");  // disconnected from r0
  const auto h0 = n.add_host("h0");
  const auto h1 = n.add_host("h1");
  n.add_link(0, h0, sim::kGbps, 0);
  n.add_link(1, h1, sim::kGbps, 0);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  std::vector<net::node_id> path;
  EXPECT_THROW(n.route(h0, h1, path), std::runtime_error);
}

TEST(errors, host_with_two_uplinks_rejected_in_routing) {
  sim::simulator sim;
  net::network n(sim);
  n.add_router("r0");
  n.add_router("r1");
  const auto h = n.add_host("h");
  const auto h2 = n.add_host("h2");
  n.add_link(0, 1, sim::kGbps, 0);
  n.add_link(0, h, sim::kGbps, 0);
  n.add_link(1, h, sim::kGbps, 0);  // second uplink: ambiguous attachment
  n.add_link(1, h2, sim::kGbps, 0);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  std::vector<net::node_id> path;
  EXPECT_THROW(n.route(h, h2, path), std::logic_error);
}

TEST(errors, replay_of_empty_trace_is_empty_result) {
  net::trace empty;
  core::replay_options opt;
  const auto topo = topo::line(2);
  const auto res = core::replay_trace(
      empty, [&topo](net::network& n) { topo::populate(topo, n); }, opt);
  EXPECT_EQ(res.total, 0u);
  EXPECT_DOUBLE_EQ(res.frac_overdue(), 0.0);
  EXPECT_DOUBLE_EQ(res.frac_overdue_beyond_T(), 0.0);
}

TEST(errors, gadget_case_index_validated) {
  EXPECT_THROW(static_cast<void>(topo::fig5_case(0)), std::invalid_argument);
  EXPECT_THROW(static_cast<void>(topo::fig5_case(3)), std::invalid_argument);
}

TEST(errors, workload_requires_two_hosts) {
  sim::simulator sim;
  net::network n(sim);
  topo::topology t;
  t.routers = 1;
  t.hosts.push_back(topo::host_spec{0, sim::kGbps, 0});
  topo::populate(t, n);
  n.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  n.build();
  traffic::fixed_size dist(1500);
  EXPECT_THROW(static_cast<void>(traffic::generate(n, t, dist, {})),
               std::invalid_argument);
}

TEST(errors, bounded_pareto_validates_parameters) {
  EXPECT_THROW(traffic::bounded_pareto(1.0, 10, 100), std::invalid_argument);
  EXPECT_THROW(traffic::bounded_pareto(1.2, 0, 100), std::invalid_argument);
  EXPECT_THROW(traffic::bounded_pareto(1.2, 100, 100), std::invalid_argument);
}

TEST(errors, empirical_dist_validates_cdf) {
  EXPECT_THROW(traffic::empirical({{100.0, 0.5}}, "bad"),
               std::invalid_argument);
  EXPECT_THROW(traffic::empirical({{100.0, 0.2}, {200.0, 0.9}}, "bad"),
               std::invalid_argument);
}

TEST(errors, fattree_requires_even_k) {
  topo::fattree_config cfg;
  cfg.k = 3;
  EXPECT_THROW(static_cast<void>(topo::fattree(cfg)), std::invalid_argument);
}

TEST(errors, all_infinite_topology_has_no_bottleneck) {
  topo::topology t;
  t.routers = 1;
  t.hosts.push_back(topo::host_spec{0, sim::kInfiniteRate, 0});
  EXPECT_THROW(static_cast<void>(t.bottleneck_rate()), std::logic_error);
}

// A trace is input: a node id its topology does not have (out of range, or
// a host where a router belongs and vice versa) is a typed replay error,
// never an index past the network's tables.
exp::original_run small_i2_run(bool record_hops = false) {
  exp::scenario sc;
  sc.packet_budget = 200;
  sc.record_hops = record_hops;
  auto orig = exp::run_original(sc);
  net::sort_by_ingress(orig.trace);
  return orig;
}

// Each entry corrupts the first record one way.
const std::vector<void (*)(net::packet_record&)>& bad_node_ids() {
  static const std::vector<void (*)(net::packet_record&)> edits = {
      [](net::packet_record& r) { r.path.front() = 99999; },
      [](net::packet_record& r) { r.path.back() = -1; },
      [](net::packet_record& r) { r.path.front() = r.src_host; },
      [](net::packet_record& r) {
        r.path.clear();
        r.src_host = 99999;
      },
      [](net::packet_record& r) { r.dst_host = 99999; },
      [](net::packet_record& r) { r.dst_host = r.path.back(); },
  };
  return edits;
}

TEST(errors, replay_rejects_node_ids_outside_the_topology) {
  const auto orig = small_i2_run();
  for (std::size_t i = 0; i < bad_node_ids().size(); ++i) {
    auto bad = orig;
    bad_node_ids()[i](bad.trace.packets.front());
    EXPECT_THROW(static_cast<void>(
                     exp::run_replay(bad, core::replay_mode::lstf)),
                 std::invalid_argument)
        << "edit " << i;
  }
}

TEST(errors, replay_file_rejects_node_ids_outside_the_topology) {
  const auto orig = small_i2_run();
  const std::string path = ::testing::TempDir() + "/ups_bad_node_ids.v1";
  for (std::size_t i = 0; i < bad_node_ids().size(); ++i) {
    auto bad = orig.trace;
    bad_node_ids()[i](bad.packets.front());
    net::save_trace(path, bad);
    EXPECT_THROW(static_cast<void>(exp::run_replay_file(
                     path, orig.topology, orig.threshold_T,
                     core::replay_mode::lstf)),
                 std::invalid_argument)
        << "edit " << i;
  }
  std::remove(path.c_str());
}

// A path of valid router ids can still name a hop that is not a link: a
// skipped router, or a last router the destination host is not attached
// to. Each is a typed error naming the record, in every mode, raised before
// the packet enters the network (no mode may fail later, inside tmin or the
// event loop, with an untyped one).
constexpr core::replay_mode kAllModes[] = {
    core::replay_mode::lstf,           core::replay_mode::lstf_preemptive,
    core::replay_mode::lstf_pheap,     core::replay_mode::edf,
    core::replay_mode::priority_output_time, core::replay_mode::omniscient};

// The edits hit late records, so the replay is mid-run (packets queued, on
// wires, and under up-front injection all posted) when it throws.
std::vector<net::trace> broken_path_traces(const exp::original_run& orig) {
  std::vector<net::trace> out;
  const auto& recs = orig.trace.packets;
  const auto three_hop = std::find_if(recs.rbegin(), recs.rend(), [](auto& r) {
    return r.path.size() >= 3;
  });
  EXPECT_NE(three_hop, recs.rend());
  out.push_back(orig.trace);
  auto& skipped =
      out.back().packets[recs.rend() - three_hop - 1].path;
  skipped.erase(skipped.begin() + 1);
  // A destination host attached to some other router than path.back().
  out.push_back(orig.trace);
  auto& r = out.back().packets.back();
  const auto& hosts = orig.topology.hosts;
  for (std::size_t h = 0; h < hosts.size(); ++h) {
    if (hosts[h].router != r.path.back()) {
      r.dst_host = orig.topology.host_id(h);
      break;
    }
  }
  return out;
}

void expect_broken_path_error(const std::function<void()>& replay,
                              const std::string& where) {
  try {
    replay();
    ADD_FAILURE() << where << ": replayed a broken path";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("replay: record "),
              std::string::npos)
        << where << ": " << e.what();
  }
}

TEST(errors, replay_rejects_paths_that_skip_a_link) {
  const auto orig = small_i2_run(/*record_hops=*/true);  // omniscient too
  const auto bad = broken_path_traces(orig);
  const std::string path = ::testing::TempDir() + "/ups_broken_path.v1";
  for (std::size_t i = 0; i < bad.size(); ++i) {
    auto in_memory = orig;
    in_memory.trace = bad[i];
    net::save_trace(path, bad[i]);
    for (const auto mode : kAllModes) {
      const std::string where =
          "edit " + std::to_string(i) + " " + core::to_string(mode);
      expect_broken_path_error(
          [&] { static_cast<void>(exp::run_replay(in_memory, mode)); },
          where + " (memory)");
      expect_broken_path_error(
          [&] {
            static_cast<void>(exp::run_replay(
                in_memory, mode, false, core::injection_mode::upfront));
          },
          where + " (memory, up-front)");
      expect_broken_path_error(
          [&] {
            static_cast<void>(exp::run_replay_file(
                path, orig.topology, orig.threshold_T, mode));
          },
          where + " (v1 file)");
    }
  }
  std::remove(path.c_str());
}

// Runs exp::args::parse over one argv built from `flags`.
exp::args parse_args(std::vector<std::string> flags) {
  flags.insert(flags.begin(), "prog");
  std::vector<char*> argv;
  for (auto& f : flags) argv.push_back(f.data());
  return exp::args::parse(static_cast<int>(argv.size()), argv.data());
}

TEST(errors, numeric_flags_reject_malformed_values) {
  const char* const bad[] = {
      "--packets=12k",         // trailing garbage: used to record 13
      "--packets=-5",          // sign on a count: used to die in bad_alloc
      "--packets=",            // empty
      "--packets= 7",          // leading space
      "--seed=x1",             // used to run seed 0
      "--seed=1.5",
      "--seed=18446744073709551616",  // overflows 64 bits
      "--kill-worker-after=-1",
      "--hang-worker-after=2x",
      "--worker-timeout-ms=-100",
      "--worker-timeout-ms=9223372036854775808",  // overflows int64
      "--scale=abc",
      "--scale=",
      "--scale=inf",
      "--utilization=abc",     // used to fail deep inside the simulator
      "--utilization=1.5",     // used to record at 150%
      "--utilization=0",
      "--utilization=1",
      "--utilization=-0.5",
      "--utilization=0.7x",
  };
  for (const char* flag : bad) {
    EXPECT_THROW(static_cast<void>(parse_args({flag})), std::invalid_argument)
        << flag;
  }
  // The message names the flag and echoes the value.
  try {
    static_cast<void>(parse_args({"--packets=12k"}));
    FAIL() << "--packets=12k parsed";
  } catch (const std::invalid_argument& e) {
    EXPECT_NE(std::string(e.what()).find("--packets"), std::string::npos);
    EXPECT_NE(std::string(e.what()).find("12k"), std::string::npos);
  }
  // tracec's own flags go through the same helpers.
  EXPECT_THROW(static_cast<void>(exp::parse_utilization_flag("--util", "1.5")),
               std::invalid_argument);
  EXPECT_THROW(
      static_cast<void>(exp::parse_flag_number<std::uint64_t>("--records", "")),
      std::invalid_argument);
}

TEST(errors, numeric_flags_parse_valid_values_as_before) {
  const auto a = parse_args({"--packets=12000", "--seed=42", "--scale=0.5",
                             "--utilization=0.7", "--kill-worker-after=3",
                             "--hang-worker-after=1",
                             "--worker-timeout-ms=2000", "--quick",
                             "--workload=closed-loop:8", "--dispatch=thread:2",
                             "--fault=none", "--flow=credit:15000"});
  EXPECT_EQ(a.packets, 12000u);
  EXPECT_EQ(a.seed, 42u);
  EXPECT_EQ(a.scale, 0.5);
  EXPECT_EQ(a.utilization, 0.7);
  EXPECT_EQ(a.kill_worker_after, 3u);
  EXPECT_EQ(a.hang_worker_after, 1u);
  EXPECT_EQ(a.worker_timeout_ms, 2000);
  EXPECT_TRUE(a.quick);
  EXPECT_EQ(a.workload, "closed-loop:8");
  EXPECT_EQ(a.dispatch, "thread:2");
  EXPECT_EQ(a.fault, "none");
  EXPECT_EQ(a.flow, "credit:15000");
  EXPECT_EQ(parse_args({"--seed=0"}).seed, 0u);
  EXPECT_EQ(parse_args({"--seed=18446744073709551615"}).seed, UINT64_MAX);
  EXPECT_EQ(parse_args({"--scale=2e-1"}).scale, 0.2);
  EXPECT_EQ(parse_args({"--utilization=.25"}).utilization, 0.25);
  // Unset flags keep their defaults; unknown flags are still ignored.
  const auto d = parse_args({"--unknown=12k", "positional"});
  EXPECT_EQ(d.packets, 0u);
  EXPECT_EQ(d.seed, 1u);
  EXPECT_EQ(d.scale, 1.0);
  EXPECT_EQ(d.utilization, 0.0);
  EXPECT_EQ(exp::parse_utilization_flag("--util", "0.7"), 0.7);
  EXPECT_EQ(exp::parse_flag_number<std::uint64_t>("--records", "5"), 5u);
}

}  // namespace
}  // namespace ups
