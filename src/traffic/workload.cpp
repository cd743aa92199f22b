#include "traffic/workload.h"

#include <algorithm>
#include <stdexcept>
#include <vector>

#include "sim/rng.h"

namespace ups::traffic {

namespace {

// Accumulates per-directed-port load (in units of one source-destination
// pair's rate share) along the route of a host pair, including the source
// host's NIC and the egress router's port. `load` is indexed by port id;
// `path` is route() scratch.
void add_pair_load(net::network& net, net::node_id src, net::node_id dst,
                   double w, std::vector<double>& load,
                   std::vector<net::node_id>& path) {
  net.route(src, dst, path);
  load[net.port_between(src, path.front()).id()] += w;
  for (std::size_t j = 0; j + 1 < path.size(); ++j) {
    load[net.port_between(path[j], path[j + 1]).id()] += w;
  }
  load[net.port_between(path.back(), dst).id()] += w;
}

}  // namespace

double calibrate_per_host_rate(net::network& net, const topo::topology& topo,
                               const workload_config& cfg) {
  const std::size_t hosts = topo.host_count();
  if (hosts < 2) throw std::invalid_argument("workload: need >= 2 hosts");

  sim::rng calib_rng(cfg.seed ^ 0xCA11B8A7Eull);

  // --- calibration: per-port load per unit of per-host offered rate ---
  std::vector<double> load(net.ports().size(), 0.0);
  std::vector<net::node_id> path;
  if (hosts <= cfg.exact_pair_limit) {
    const double w = 1.0 / static_cast<double>(hosts - 1);
    for (std::size_t s = 0; s < hosts; ++s) {
      for (std::size_t d = 0; d < hosts; ++d) {
        if (s == d) continue;
        add_pair_load(net, topo.host_id(s), topo.host_id(d), w, load, path);
      }
    }
  } else {
    // Sampled estimate: each sampled pair stands in for its share of the
    // uniform matrix; a source sends 1 unit split across (hosts-1) peers,
    // so the network-wide unit mass is `hosts`, spread over the samples.
    const double w =
        static_cast<double>(hosts) / static_cast<double>(cfg.sampled_pairs);
    for (std::size_t i = 0; i < cfg.sampled_pairs; ++i) {
      const auto s = calib_rng.next_below(hosts);
      auto d = calib_rng.next_below(hosts - 1);
      if (d >= s) ++d;
      add_pair_load(net, topo.host_id(s), topo.host_id(d), w, load, path);
    }
  }

  double max_ratio = 0.0;  // load (in per-host-rate units) / link rate
  for (const auto& pt : net.ports()) {
    if (pt->rate() == sim::kInfiniteRate) continue;
    max_ratio =
        std::max(max_ratio, load[pt->id()] / static_cast<double>(pt->rate()));
  }
  if (max_ratio <= 0) throw std::logic_error("workload: calibration failed");
  return cfg.utilization / max_ratio;
}

workload generate(net::network& net, const topo::topology& topo,
                  const flow_size_dist& dist, const workload_config& cfg) {
  const std::size_t hosts = topo.host_count();
  const double per_host_bps = calibrate_per_host_rate(net, topo, cfg);

  // --- Poisson flow arrivals until the packet budget ---
  const double mean_flow_bits = dist.mean_bytes() * 8.0;
  const double agg_flows_per_sec =
      per_host_bps * static_cast<double>(hosts) / mean_flow_bits;
  const double mean_gap_ps =
      static_cast<double>(sim::kSecond) / agg_flows_per_sec;

  workload out;
  out.per_host_rate_bps = per_host_bps;
  out.max_link_utilization = cfg.utilization;

  sim::rng rng(cfg.seed);
  double t = 0.0;
  std::uint64_t next_flow = 1;
  while (out.total_packets < cfg.packet_budget) {
    t += rng.exponential(mean_gap_ps);
    const auto s = rng.next_below(hosts);
    auto d = rng.next_below(hosts - 1);
    if (d >= s) ++d;
    const std::uint64_t size = dist.sample(rng);
    flow_spec f;
    f.id = next_flow++;
    f.src = topo.host_id(s);
    f.dst = topo.host_id(d);
    f.size_bytes = size;
    f.start = static_cast<sim::time_ps>(t);
    out.total_packets += (size + cfg.mtu_bytes - 1) / cfg.mtu_bytes;
    out.flows.push_back(f);
  }
  return out;
}

incast_workload generate_incast(net::network& net, const topo::topology& topo,
                                const flow_size_dist& dist,
                                const workload_config& cfg,
                                std::uint32_t degree,
                                sim::time_ps barrier_jitter) {
  const std::size_t hosts = topo.host_count();
  const double per_host_bps = calibrate_per_host_rate(net, topo, cfg);
  if (degree == 0) throw std::invalid_argument("incast: degree must be >= 1");
  const auto fan_in = static_cast<std::size_t>(
      std::min<std::uint64_t>(degree, hosts - 1));

  // Epoch rate keeps aggregate offered load equal to the open-loop
  // calibration: one epoch carries `fan_in` flows of mean size.
  const double mean_flow_bits = dist.mean_bytes() * 8.0;
  const double epochs_per_sec =
      per_host_bps * static_cast<double>(hosts) /
      (mean_flow_bits * static_cast<double>(fan_in));
  const double mean_gap_ps =
      static_cast<double>(sim::kSecond) / epochs_per_sec;

  incast_workload out;
  out.per_host_rate_bps = per_host_bps;
  out.max_link_utilization = cfg.utilization;

  // Distinct stream from generate(): an incast schedule with the same seed
  // should not be a reshuffled copy of the Poisson flow list.
  sim::rng rng(cfg.seed ^ 0x1CA57ull);
  double t = 0.0;
  std::uint64_t next_flow = 1;
  std::vector<std::size_t> picks;
  while (out.total_packets < cfg.packet_budget) {
    t += rng.exponential(mean_gap_ps);
    incast_epoch e;
    e.barrier = static_cast<sim::time_ps>(t);
    const std::size_t victim = rng.next_below(hosts);
    e.dst = topo.host_id(victim);
    e.first_flow_id = next_flow;
    // `fan_in` distinct senders, none the victim: partial Fisher-Yates over
    // host indices with the victim excluded by remapping.
    picks.resize(hosts - 1);
    for (std::size_t i = 0; i < picks.size(); ++i) {
      picks[i] = i < victim ? i : i + 1;
    }
    for (std::size_t k = 0; k < fan_in; ++k) {
      const std::size_t j = k + rng.next_below(picks.size() - k);
      std::swap(picks[k], picks[j]);
      e.srcs.push_back(topo.host_id(picks[k]));
      const std::uint64_t size = dist.sample(rng);
      e.sizes.push_back(size);
      e.offsets.push_back(
          barrier_jitter <= 0
              ? 0
              : static_cast<sim::time_ps>(rng.uniform() *
                                          static_cast<double>(barrier_jitter)));
      out.total_packets += (size + cfg.mtu_bytes - 1) / cfg.mtu_bytes;
      ++next_flow;
    }
    out.epochs.push_back(std::move(e));
  }
  out.flow_count = next_flow - 1;
  return out;
}

double measured_peak_utilization(const net::network& net, sim::time_ps span) {
  if (span <= 0) return 0.0;
  double peak = 0.0;
  for (const auto& p : net.ports()) {
    if (p->rate() == sim::kInfiniteRate) continue;
    const double sent_bits = static_cast<double>(p->stats().bytes_sent) * 8.0;
    const double capacity_bits = static_cast<double>(p->rate()) *
                                 static_cast<double>(span) /
                                 static_cast<double>(sim::kSecond);
    if (capacity_bits > 0) peak = std::max(peak, sent_bits / capacity_bits);
  }
  return peak;
}

}  // namespace ups::traffic
