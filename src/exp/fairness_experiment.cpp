#include "exp/fairness_experiment.h"

#include <algorithm>
#include <map>
#include <memory>
#include <utility>

#include "core/heuristics.h"
#include "core/registry.h"
#include "net/network.h"
#include "sim/rng.h"
#include "sim/simulator.h"
#include "stats/summary.h"
#include "topo/basic.h"
#include "topo/internet2.h"
#include "transport/tcp.h"

namespace ups::exp {

namespace {

struct placement {
  topo::topology topology;
  std::vector<std::pair<net::node_id, net::node_id>> pairs;
  std::vector<sim::time_ps> starts;
};

// Places `flows` host pairs (distinct edge routers, seeded) and sizes each
// core link to (#crossing flows x fair_share).
placement make_placement(const fairness_config& cfg) {
  topo::internet2_config icfg;
  icfg.access_rate = 10 * sim::kGbps;
  icfg.host_rate = 10 * sim::kGbps;
  placement out;
  out.topology = topo::internet2(icfg);
  out.topology.name = "Internet2-fairness";
  out.topology.scale_delays(cfg.prop_delay_scale);

  sim::rng rng(cfg.seed ^ 0xFA17);
  const std::size_t hosts = out.topology.host_count();
  for (int i = 0; i < cfg.flows; ++i) {
    const auto s = rng.next_below(hosts);
    auto d = rng.next_below(hosts - 1);
    if (d >= s) ++d;
    out.pairs.emplace_back(out.topology.host_id(s), out.topology.host_id(d));
    out.starts.push_back(static_cast<sim::time_ps>(
        rng.uniform() * static_cast<double>(cfg.start_jitter)));
  }

  // Count flows crossing each core link (either direction) using a scratch
  // network: routing depends only on delays, which are final already.
  sim::simulator scratch_sim;
  net::network scratch(scratch_sim);
  topo::populate(out.topology, scratch);
  scratch.set_scheduler_factory(
      core::make_factory(core::sched_kind::fifo, 0));
  scratch.build();
  std::map<std::pair<net::node_id, net::node_id>, int> crossing;
  std::vector<net::node_id> path;
  for (const auto& [s, d] : out.pairs) {
    scratch.route(s, d, path);
    for (std::size_t j = 0; j + 1 < path.size(); ++j) {
      const auto a = std::min(path[j], path[j + 1]);
      const auto b = std::max(path[j], path[j + 1]);
      crossing[{a, b}] += 1;
    }
  }
  for (auto& l : out.topology.core_links) {
    const auto a = std::min(l.a, l.b);
    const auto b = std::max(l.a, l.b);
    const auto it = crossing.find({a, b});
    const int n = it == crossing.end() ? 1 : std::max(1, it->second);
    // Only resize links between core routers and core<->edge trunks that
    // carry flows; idle links keep their rate.
    if (it != crossing.end()) l.rate = n * cfg.fair_share;
  }
  return out;
}

}  // namespace

fairness_result run_fairness(fairness_variant v, sim::bits_per_sec r_est,
                             const fairness_config& cfg) {
  auto pl = make_placement(cfg);

  sim::simulator sim;
  net::network net(sim);
  topo::populate(pl.topology, net);
  net.set_buffer_bytes(0);  // paper: buffers kept large
  core::sched_kind kind = core::sched_kind::fifo;
  switch (v) {
    case fairness_variant::fifo: kind = core::sched_kind::fifo; break;
    case fairness_variant::fq: kind = core::sched_kind::fq; break;
    case fairness_variant::lstf: kind = core::sched_kind::lstf; break;
  }
  net.set_scheduler_factory(core::make_factory(kind, cfg.seed, &net));
  net.build();

  transport::tcp_config tcfg;
  tcfg.rto_min = sim::kMillisecond;
  tcfg.rto_init = 5 * sim::kMillisecond;
  tcfg.max_cwnd_pkts = 1'000;  // receive-window stand-in (lossless run)
  transport::tcp_manager tcp(net, tcfg);

  auto vc = std::make_shared<core::fairness_slack>(r_est);
  constexpr std::uint64_t kLongLived = 1ull << 40;  // effectively unbounded
  for (int i = 0; i < cfg.flows; ++i) {
    const std::uint64_t flow_id = 1000 + i;
    transport::header_stamper stamper;
    if (v == fairness_variant::lstf) {
      stamper = [vc, flow_id, &net](net::packet& p) {
        p.slack = vc->next(flow_id, p.size_bytes, net.sim().now());
      };
    }
    tcp.start_flow(flow_id, pl.pairs[i].first, pl.pairs[i].second, kLongLived,
                   pl.starts[i], std::move(stamper));
  }

  fairness_result res;
  res.label = v == fairness_variant::fifo  ? "FIFO"
              : v == fairness_variant::fq  ? "FQ"
                                           : "LSTF";
  res.r_est = v == fairness_variant::lstf ? r_est : 0;

  std::vector<std::uint64_t> last_bytes(cfg.flows, 0);
  for (sim::time_ps t = cfg.sample_every; t <= cfg.horizon;
       t += cfg.sample_every) {
    sim.run_until(t);
    std::vector<double> tput(cfg.flows);
    for (int i = 0; i < cfg.flows; ++i) {
      const std::uint64_t now_bytes = tcp.delivered_bytes(1000 + i);
      tput[i] = static_cast<double>(now_bytes - last_bytes[i]);
      last_bytes[i] = now_bytes;
    }
    res.time_ms.push_back(sim::to_millis(t));
    res.jain.push_back(stats::jain_index(tput));
  }
  res.final_jain = res.jain.empty() ? 0.0 : res.jain.back();
  return res;
}

weighted_fairness_result run_weighted_fairness(double weight,
                                               sim::bits_per_sec r_est,
                                               const fairness_config& cfg) {
  // A single shared bottleneck isolates the weighted allocation: every
  // flow crosses it, and its capacity equals the sum of the per-flow rate
  // estimates, so virtual-clock slack converges each flow to exactly its
  // reservation (class 1's being weight x class 0's).
  const auto weighted_rate =
      static_cast<sim::bits_per_sec>(static_cast<double>(r_est) * weight);
  const int n1 = cfg.flows / 2;
  const int n0 = cfg.flows - n1;
  const sim::bits_per_sec bottleneck =
      n0 * r_est + n1 * weighted_rate;
  auto topology =
      topo::dumbbell(cfg.flows, 10 * sim::kGbps, bottleneck,
                     static_cast<sim::time_ps>(10 * sim::kMicrosecond));

  sim::simulator sim;
  net::network net(sim);
  topo::populate(topology, net);
  net.set_buffer_bytes(0);
  net.set_scheduler_factory(
      core::make_factory(core::sched_kind::lstf, cfg.seed, &net));
  net.build();

  transport::tcp_config tcfg;
  tcfg.rto_min = sim::kMillisecond;
  tcfg.rto_init = 5 * sim::kMillisecond;
  tcfg.max_cwnd_pkts = 1'000;
  transport::tcp_manager tcp(net, tcfg);

  // Odd-indexed flows form class 1 with a weight-scaled rate estimate.
  sim::rng rng(cfg.seed ^ 0x3EA7);
  auto vc0 = std::make_shared<core::fairness_slack>(r_est);
  auto vc1 = std::make_shared<core::fairness_slack>(weighted_rate);
  for (int i = 0; i < cfg.flows; ++i) {
    const std::uint64_t flow_id = 1000 + i;
    auto vc = (i % 2 == 1) ? vc1 : vc0;
    const auto start = static_cast<sim::time_ps>(
        rng.uniform() * static_cast<double>(cfg.start_jitter) / 5.0);
    tcp.start_flow(flow_id, topology.host_id(i),
                   topology.host_id(cfg.flows + i), 1ull << 40, start,
                   [vc, flow_id, &net](net::packet& p) {
                     p.slack =
                         vc->next(flow_id, p.size_bytes, net.sim().now());
                   });
  }

  // Measure class throughput over the second half of the horizon (after
  // convergence).
  sim.run_until(cfg.horizon / 2);
  std::vector<std::uint64_t> mid(cfg.flows);
  for (int i = 0; i < cfg.flows; ++i) mid[i] = tcp.delivered_bytes(1000 + i);
  sim.run_until(cfg.horizon);

  weighted_fairness_result out;
  double class_bytes[2] = {0, 0};
  int class_count[2] = {0, 0};
  for (int i = 0; i < cfg.flows; ++i) {
    const double delta =
        static_cast<double>(tcp.delivered_bytes(1000 + i) - mid[i]);
    class_bytes[i % 2] += delta;
    ++class_count[i % 2];
  }
  const double span_s = sim::to_seconds(cfg.horizon - cfg.horizon / 2);
  out.class0_mbps =
      class_bytes[0] / class_count[0] * 8.0 / span_s / 1e6;
  out.class1_mbps =
      class_bytes[1] / class_count[1] * 8.0 / span_s / 1e6;
  out.measured_ratio =
      out.class0_mbps > 0 ? out.class1_mbps / out.class0_mbps : 0.0;
  return out;
}

}  // namespace ups::exp
