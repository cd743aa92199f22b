// Golden ordering hashes: the exact per-packet outcomes of small replays
// where same-instant ties are common, pinned as FNV-1a digests.
//
// The simulator's dispatch order is the global (time, phase, sequence)
// order; any change to how events are posted (delay-line wires, reserved
// sequence numbers, inline injection, skipped no-op events) must leave it
// untouched. These digests were taken before such a change and must never
// move: a tie resolved the other way changes some packet's egress time or
// queueing delay, and with it the hash.
//
// Covered: the fat tree (equal link delays and rates: heavy ties), I2, a
// theory gadget whose white routers are infinitely fast (same-instant
// cut-through chains over zero-delay links), a bernoulli-lossy trace, a
// credit-stalled trace (re-enacted holds, and once more under live flow
// control), every replay mode, streaming and up-front injection, plus the
// v3 bytes of every original run.
#include <gtest/gtest.h>

#include <cstdint>
#include <cstdio>
#include <random>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace.h"
#include "net/trace_binary.h"
#include "sim/simulator.h"
#include "topo/gadgets.h"
#include "traffic/source.h"

namespace ups {
namespace {

using core::replay_mode;

constexpr replay_mode kModes[] = {
    replay_mode::lstf, replay_mode::lstf_preemptive, replay_mode::lstf_pheap,
    replay_mode::edf,  replay_mode::priority_output_time,
    replay_mode::omniscient};

struct fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(std::uint64_t v) {
    for (int i = 0; i < 8; ++i) {
      h ^= (v >> (8 * i)) & 0xff;
      h *= 1099511628211ull;
    }
  }
  void add_bytes(const std::string& s) {
    for (const char c : s) {
      h ^= static_cast<unsigned char>(c);
      h *= 1099511628211ull;
    }
  }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string outcome_digest(const core::replay_result& r) {
  fnv d;
  d.add(r.total);
  d.add(r.overdue);
  d.add(r.overdue_beyond_T);
  d.add(r.dropped);
  for (const auto& o : r.outcomes) {
    d.add(o.id);
    d.add(static_cast<std::uint64_t>(o.replay_out));
    d.add(static_cast<std::uint64_t>(o.replay_queueing));
  }
  return d.hex();
}

std::string v3_digest(const net::trace& t) {
  std::ostringstream os;
  net::write_trace_v3(os, t);
  fnv d;
  d.add_bytes(os.str());
  return d.hex();
}

struct golden_trace {
  topo::topology topology;
  net::trace trace;
  sim::time_ps threshold_T = 0;
};

golden_trace from_scenario(const exp::scenario& sc) {
  auto orig = exp::run_original(sc);
  net::sort_by_ingress(orig.trace);
  return golden_trace{orig.topology, std::move(orig.trace), orig.threshold_T};
}

exp::scenario base_scenario(exp::topo_kind topo, std::uint64_t packets) {
  exp::scenario sc;
  sc.topo = topo;
  sc.packet_budget = packets;
  sc.record_hops = true;  // omniscient mode needs per-hop departures
  sc.seed = 7;
  return sc;
}

// Figure 7's topology (infinitely fast white routers on zero-delay links)
// carrying a random mix of the figure's paths, injected on a quarter-unit
// grid so many packets meet at the same instant, recorded under FIFO.
golden_trace gadget_stress() {
  const topo::gadget g = topo::fig7_lstf_failure();
  sim::simulator sim;
  net::network net(sim);
  topo::populate(g.topo, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(core::make_factory(core::sched_kind::fifo, 1));
  net.build();
  net::trace_recorder recorder(net, /*with_hop_times=*/true);
  std::mt19937_64 rng(11);
  for (std::uint64_t id = 1; id <= 2000; ++id) {
    const auto& gp = g.packets[rng() % g.packets.size()];
    net::packet_ptr p = net.pool().make();
    p->id = id;
    p->flow_id = id;
    p->size_bytes = topo::kGadgetBytes;
    p->src_host = g.topo.host_id(gp.src_host);
    p->dst_host = g.topo.host_id(gp.dst_host);
    for (const auto r : gp.path) p->path.push_back(r);
    p->record_hops = true;
    const sim::time_ps at =
        static_cast<sim::time_ps>(rng() % 2000) * (topo::kUnit / 4);
    net::packet* raw = p.release();
    sim.schedule_at(at, [&net, raw, pool = &net.pool()] {
      net.send_from_host(net::packet_ptr(raw, net::packet_recycler{pool}));
    });
  }
  sim.run();
  golden_trace out{g.topo, recorder.take(), topo::kUnit};
  net::sort_by_ingress(out.trace);
  return out;
}

// Replays `g` in every mode, streaming and up-front (which must agree), and
// returns one digest per mode.
std::vector<std::string> replay_digests(const golden_trace& g,
                                        const net::flow_spec& flow = {}) {
  std::vector<std::string> out;
  for (const auto mode : kModes) {
    core::replay_options opt;
    opt.mode = mode;
    opt.threshold_T = g.threshold_T;
    opt.flow = flow;
    const auto& topology = g.topology;
    const auto build = [&topology](net::network& n) {
      topo::populate(topology, n);
    };
    const auto streamed = core::replay_trace(g.trace, build, opt);
    opt.injection = core::injection_mode::upfront;
    const auto upfront = core::replay_trace(g.trace, build, opt);
    EXPECT_EQ(outcome_digest(streamed), outcome_digest(upfront))
        << core::to_string(mode) << ": up-front != streaming";
    EXPECT_GT(streamed.total, 0u);
    out.push_back(outcome_digest(streamed));
  }
  return out;
}

struct golden {
  const char* v3;
  std::vector<std::string> modes;  // kModes order
};

void expect_golden(const golden_trace& g, const golden& want,
                   const net::flow_spec& flow = {}) {
  if (want.v3 != nullptr) {
    EXPECT_EQ(v3_digest(g.trace), want.v3) << "original v3 bytes";
  }
  const auto got = replay_digests(g, flow);
  ASSERT_EQ(got.size(), want.modes.size());
  for (std::size_t i = 0; i < got.size(); ++i) {
    EXPECT_EQ(got[i], want.modes[i]) << core::to_string(kModes[i]);
  }
}

TEST(replay_golden, fattree_equal_links) {
  const golden want{"f06d31ef7dd730ed",
                    {"1e7dab1a5b1dccde", "cdd687bec3585203",
                     "1e7dab1a5b1dccde", "1e7dab1a5b1dccde",
                     "1a8034c8019cf292", "79691e86f06755e1"}};
  expect_golden(from_scenario(base_scenario(exp::topo_kind::fattree, 12000)),
                want);
}

TEST(replay_golden, internet2) {
  const golden want{"2512b0177263c511",
                    {"37cb43c541ec30f7", "8b9b3233548832c2",
                     "37cb43c541ec30f7", "37cb43c541ec30f7",
                     "e73d8dc6e58e763e", "c6b4bff9739344c6"}};
  expect_golden(
      from_scenario(base_scenario(exp::topo_kind::i2_default, 12000)), want);
}

TEST(replay_golden, gadget_cut_through) {
  const golden want{"6eff9d1731977ca6",
                    {"df85c96f6bfd7043", "ec9cd5c8d3d580e3",
                     "df85c96f6bfd7043", "df85c96f6bfd7043",
                     "bfc1a45ae93837cd", "8f87c2868d1c9568"}};
  expect_golden(gadget_stress(), want);
}

TEST(replay_golden, bernoulli_lossy) {
  auto sc = base_scenario(exp::topo_kind::i2_default, 6000);
  sc.fault = net::fault_spec::parse("bernoulli:0.05");
  const golden want{"913d6bc5d4f30df5",
                    {"1640dafef2abeb29", "4232853c9b608bae",
                     "1640dafef2abeb29", "1640dafef2abeb29",
                     "10b4f5bfa96dd186", "a6dbac0045c3aba3"}};
  expect_golden(from_scenario(sc), want);
}

TEST(replay_golden, credit_stalled) {
  auto sc = base_scenario(exp::topo_kind::fattree, 6000);
  sc.flow = net::flow_spec::parse("credit:15000");
  const auto g = from_scenario(sc);
  const golden reenacted{"c5b0cdc66d9253c3",
                         {"c1f4de57075b1322", "cfc0b582c603dbc3",
                          "c1f4de57075b1322", "ef2b6d5a26aa960c",
                          "eaa8c61bf3c000ab", "76f9d4c29d44eb05"}};
  expect_golden(g, reenacted);
  // The same trace with live credit governance on the replay's own links.
  const golden governed{nullptr,
                        {"1a8837f846d92e5c", "3ac4dfb5ce40118c",
                         "1a8837f846d92e5c", "87e00cbe91457bbf",
                         "8a79c40b9bc36913", "7271da0ecb807da0"}};
  expect_golden(g, governed, net::flow_spec::parse("credit:15000"));
}

// Closed-loop sources install host handlers (a delivered packet completes
// its flow and releases the next request), so these originals keep every
// host delivery; TCP adds acks and retransmit timers on top.
TEST(replay_golden, closed_loop_originals) {
  const std::pair<const char*, const char*> cases[] = {
      {"closed-loop:8", "9bf8a06f57a7e0aa"},
      {"closed-loop-tcp:8", "a515202912d6a6a6"},
  };
  for (const auto& [workload, want] : cases) {
    auto sc = base_scenario(exp::topo_kind::i2_default, 4000);
    sc.workload_kind = traffic::parse_workload(workload, sc.workload_spec);
    EXPECT_EQ(v3_digest(from_scenario(sc).trace), want) << workload;
  }
}

}  // namespace
}  // namespace ups
