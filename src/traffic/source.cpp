#include "traffic/source.h"

#include <algorithm>
#include <cassert>
#include <stdexcept>

#include "transport/tcp.h"

namespace ups::traffic {

namespace {

// Shared open-loop burst: chunks one flow into MTU-sized packets and hands
// them to the source NIC. Every burst-emitting source goes through here so
// packet-field initialization cannot drift between kinds (the legacy
// udp_app equivalence test pins the behavior itself).
std::uint64_t emit_burst_packets(net::network& net, const source_options& opt,
                                 std::uint64_t& next_packet_id,
                                 std::uint64_t flow_id, net::node_id src,
                                 net::node_id dst, std::uint64_t size_bytes) {
  std::uint64_t remaining = size_bytes;
  std::uint32_t seq = 0;
  std::uint64_t emitted = 0;
  while (remaining > 0) {
    const std::uint32_t sz = static_cast<std::uint32_t>(
        std::min<std::uint64_t>(remaining, opt.mtu_bytes));
    net::packet_ptr p = net.pool().make();
    p->id = next_packet_id++;
    p->flow_id = flow_id;
    p->seq_in_flow = seq++;
    p->size_bytes = sz;
    p->src_host = src;
    p->dst_host = dst;
    p->flow_size_bytes = size_bytes;
    p->remaining_flow_bytes = remaining;
    p->record_hops = opt.record_hops;
    if (opt.stamper) opt.stamper(*p);
    remaining -= sz;
    ++emitted;
    net.send_from_host(std::move(p));
  }
  return emitted;
}

// Knob suffix parsers that reject garbage instead of folding it to zero:
// "paced:o.5" must fail loudly, not run at pacing_fraction = 0.
double parse_knob_double(const std::string& knob, const std::string& whole) {
  char* end = nullptr;
  const double v = std::strtod(knob.c_str(), &end);
  if (end == knob.c_str() || *end != '\0') {
    throw std::invalid_argument("bad workload knob in: " + whole);
  }
  return v;
}

std::uint32_t parse_knob_uint(const std::string& knob,
                              const std::string& whole) {
  char* end = nullptr;
  const unsigned long v = std::strtoul(knob.c_str(), &end, 10);
  if (end == knob.c_str() || *end != '\0') {
    throw std::invalid_argument("bad workload knob in: " + whole);
  }
  return static_cast<std::uint32_t>(v);
}

}  // namespace

const char* to_string(source_kind k) {
  switch (k) {
    case source_kind::open_loop: return "open-loop";
    case source_kind::paced: return "paced";
    case source_kind::closed_loop: return "closed-loop";
    case source_kind::incast: return "incast";
    case source_kind::mixed: return "mixed";
  }
  return "?";
}

source_kind parse_workload(const std::string& s, source_tuning& tune) {
  std::string name = s;
  for (auto& c : name) {
    if (c == '_') c = '-';
  }
  std::string knob;
  if (const auto colon = name.find(':'); colon != std::string::npos) {
    knob = name.substr(colon + 1);
    name.resize(colon);
    if (knob.empty()) {
      throw std::invalid_argument("bad workload knob in: " + s);
    }
  }
  if (name == "open-loop") {
    if (!knob.empty()) {
      throw std::invalid_argument("open-loop takes no knob: " + s);
    }
    return source_kind::open_loop;
  }
  if (name == "paced") {
    if (!knob.empty()) tune.pacing_fraction = parse_knob_double(knob, s);
    return source_kind::paced;
  }
  if (name == "closed-loop" || name == "closed-loop-tcp") {
    tune.via_tcp = name == "closed-loop-tcp";
    if (!knob.empty()) tune.outstanding = parse_knob_uint(knob, s);
    return source_kind::closed_loop;
  }
  if (name == "incast") {
    if (!knob.empty()) tune.incast_degree = parse_knob_uint(knob, s);
    return source_kind::incast;
  }
  if (name == "mixed") {
    // Up to three colon-separated knobs: degree, outstanding, share.
    std::string rest = knob;
    std::string parts[3];
    std::size_t np = 0;
    while (!rest.empty() && np < 3) {
      const auto colon = rest.find(':');
      parts[np++] = rest.substr(0, colon);
      rest = colon == std::string::npos ? "" : rest.substr(colon + 1);
    }
    if (!rest.empty()) {
      throw std::invalid_argument("bad workload knob in: " + s);
    }
    if (!parts[0].empty()) tune.incast_degree = parse_knob_uint(parts[0], s);
    if (!parts[1].empty()) tune.outstanding = parse_knob_uint(parts[1], s);
    if (!parts[2].empty()) tune.incast_share = parse_knob_double(parts[2], s);
    return source_kind::mixed;
  }
  throw std::invalid_argument("unknown workload kind: " + s);
}

// --- open_loop_source --------------------------------------------------------
// Byte-identical to the legacy traffic::udp_app (which tests keep as the
// equivalence reference): same event per flow at start time, same packet-id
// assignment, same burst loop.

open_loop_source::open_loop_source(net::network& net,
                                   std::vector<flow_spec> flows,
                                   source_options opt)
    : net_(net), flows_(std::move(flows)), opt_(std::move(opt)) {
  next_packet_id_ = opt_.first_packet_id;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    net_.sim().schedule_at(flows_[i].start,
                           [this, i] { emit_flow(flows_[i]); });
  }
}

void open_loop_source::emit_flow(const flow_spec& f) {
  packets_emitted_ += emit_burst_packets(net_, opt_, next_packet_id_, f.id,
                                         f.src, f.dst, f.size_bytes);
  ++flows_emitted_;
}

// --- paced_source ------------------------------------------------------------

paced_source::paced_source(net::network& net, std::vector<flow_spec> flows,
                           double pacing_fraction, source_options opt)
    : net_(net),
      flows_(std::move(flows)),
      state_(flows_.size()),
      hosts_(net.node_count()),
      fraction_(pacing_fraction),
      opt_(std::move(opt)) {
  if (!(fraction_ > 0.0)) {
    throw std::invalid_argument("paced_source: pacing fraction must be > 0");
  }
  next_packet_id_ = opt_.first_packet_id;
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    net_.sim().schedule_at(flows_[i].start, [this, i] { start_flow(i); });
  }
}

void paced_source::start_flow(std::size_t i) {
  const flow_spec& f = flows_[i];
  flow_state& st = state_[i];
  st.remaining = f.size_bytes;
  st.seq = 0;
  // Path bottleneck: tightest finite link on the flow's route, NIC and
  // egress access included. Pacing against the NIC alone would under-pace
  // on topologies whose access tier is slower than the host links.
  net_.route(f.src, f.dst, path_);
  sim::bits_per_sec bottleneck = sim::kInfiniteRate;
  const auto tighten = [&bottleneck](const net::port& pt) {
    if (pt.rate() != sim::kInfiniteRate) {
      bottleneck = std::min(bottleneck, pt.rate());
    }
  };
  tighten(net_.port_between(f.src, path_.front()));
  for (std::size_t j = 0; j + 1 < path_.size(); ++j) {
    tighten(net_.port_between(path_[j], path_[j + 1]));
  }
  tighten(net_.port_between(path_.back(), f.dst));
  st.pace_rate =
      bottleneck == sim::kInfiniteRate
          ? sim::kInfiniteRate
          : static_cast<sim::bits_per_sec>(
                std::max(1.0, static_cast<double>(bottleneck) * fraction_));
  ++active_;
  peak_active_ = std::max(peak_active_, active_);
  host_state& hs = hosts_[f.src];
  hs.active.push_back(i);
  if (!hs.pacing) {
    hs.pacing = true;
    emit_host(f.src);
  }
}

void paced_source::emit_host(net::node_id h) {
  host_state& hs = hosts_[h];
  assert(!hs.active.empty());
  if (hs.cursor >= hs.active.size()) hs.cursor = 0;
  const std::size_t i = hs.active[hs.cursor];
  const flow_spec& f = flows_[i];
  flow_state& st = state_[i];
  assert(st.remaining > 0);
  const std::uint32_t sz = static_cast<std::uint32_t>(
      std::min<std::uint64_t>(st.remaining, opt_.mtu_bytes));
  net::packet_ptr p = net_.pool().make();
  p->id = next_packet_id_++;
  p->flow_id = f.id;
  p->seq_in_flow = st.seq++;
  p->size_bytes = sz;
  p->src_host = f.src;
  p->dst_host = f.dst;
  p->flow_size_bytes = f.size_bytes;
  p->remaining_flow_bytes = st.remaining;
  p->record_hops = opt_.record_hops;
  if (opt_.stamper) opt_.stamper(*p);
  st.remaining -= sz;
  ++packets_emitted_;
  const sim::bits_per_sec pace = st.pace_rate;
  net_.send_from_host(std::move(p));
  if (st.remaining == 0) {
    ++flows_done_;
    --active_;
    // Swap-erase; the cursor then points at the swapped-in flow, so the
    // round-robin continues without skipping anyone.
    hs.active[hs.cursor] = hs.active.back();
    hs.active.pop_back();
  } else {
    ++hs.cursor;
  }
  if (hs.active.empty()) {
    hs.pacing = false;
    hs.cursor = 0;
    return;
  }
  // Sleep one serialization time of the packet just sent at its flow's
  // paced rate: one flow alone is paced exactly at its bottleneck, and
  // overlapping flows share the pacer round-robin so the host aggregate
  // never exceeds the bottleneck tier. An all-infinite-rate path has no
  // line rate to pace against; degrade to a same-instant burst.
  const sim::time_ps gap = pace == sim::kInfiniteRate
                               ? 0
                               : sim::transmission_time(sz, pace);
  net_.sim().schedule_in(gap, [this, h] { emit_host(h); });
}

// --- closed_loop_source ------------------------------------------------------

closed_loop_source::closed_loop_source(net::network& net,
                                       std::vector<flow_spec> flows,
                                       std::uint32_t max_outstanding,
                                       bool via_tcp, source_options opt)
    : net_(net),
      flows_(std::move(flows)),
      opt_(std::move(opt)),
      bound_(max_outstanding),
      hooked_(net.node_count(), false) {
  if (bound_ == 0) {
    throw std::invalid_argument("closed_loop_source: outstanding must be >= 1");
  }
  next_packet_id_ = opt_.first_packet_id;
  if (via_tcp) {
    tcp_ = std::make_unique<transport::tcp_manager>(net_,
                                                    transport::tcp_config{});
    tcp_->set_on_complete([this](const transport::fct_sample& s) {
      for (std::size_t k = 0; k < active_.size(); ++k) {
        if (active_[k].flow_id == s.flow_id) {
          finish_one(k);
          return;
        }
      }
    });
  } else {
    // On a finite-buffer network a dropped packet never reaches the
    // receiver; without accounting it the flow's window slot would leak
    // and the closed loop would stall with flows silently unlaunched.
    // Chain onto any existing drop hook and count the loss as this
    // packet's exit from the network. (TCP mode retransmits instead.)
    auto prev = net_.hooks().on_drop;
    net_.hooks().on_drop = [this, prev = std::move(prev)](
                               const net::packet& p, net::node_id at,
                               sim::time_ps now, net::drop_kind kind) {
      if (prev) prev(p, at, now, kind);
      on_delivered(p);
    };
  }
  active_.reserve(bound_);
  waiting_.reserve(flows_.size());
  for (std::size_t i = 0; i < flows_.size(); ++i) {
    net_.sim().schedule_at(flows_[i].start, [this, i] { on_start_time(i); });
  }
}

closed_loop_source::~closed_loop_source() = default;

std::uint64_t closed_loop_source::packets_emitted() const noexcept {
  return packets_emitted_;
}

void closed_loop_source::on_start_time(std::size_t i) {
  if (active_.size() < bound_) {
    launch(i);
  } else {
    waiting_.push_back(i);
  }
}

void closed_loop_source::launch(std::size_t i) {
  const flow_spec& f = flows_[i];
  active_flow af;
  af.flow_id = f.id;
  af.packets_left = static_cast<std::uint32_t>(
      (f.size_bytes + opt_.mtu_bytes - 1) / opt_.mtu_bytes);
  active_.push_back(af);
  peak_active_ = std::max<std::uint64_t>(peak_active_, active_.size());
  if (tcp_) {
    // The data-segment stamper doubles as the emission counter; it fires
    // for every segment, retransmissions included.
    tcp_->start_flow(f.id, f.src, f.dst, f.size_bytes, net_.sim().now(),
                     [this](net::packet& p) {
                       p.record_hops = opt_.record_hops;
                       if (opt_.stamper) opt_.stamper(p);
                       ++packets_emitted_;
                     });
    return;
  }
  hook_dst(f.dst);
  emit_burst(f);
}

void closed_loop_source::emit_burst(const flow_spec& f) {
  packets_emitted_ += emit_burst_packets(net_, opt_, next_packet_id_, f.id,
                                         f.src, f.dst, f.size_bytes);
}

void closed_loop_source::hook_dst(net::node_id host) {
  if (hooked_[host]) return;
  hooked_[host] = true;
  net_.set_host_handler(
      host, [this](net::packet_ptr p) { on_delivered(*p); });
}

void closed_loop_source::on_delivered(const net::packet& p) {
  for (std::size_t k = 0; k < active_.size(); ++k) {
    if (active_[k].flow_id == p.flow_id) {
      assert(active_[k].packets_left > 0);
      if (--active_[k].packets_left == 0) finish_one(k);
      return;
    }
  }
}

void closed_loop_source::finish_one(std::size_t active_idx) {
  active_[active_idx] = active_.back();
  active_.pop_back();
  ++flows_done_;
  if (waiting_head_ < waiting_.size()) {
    const std::size_t i = waiting_[waiting_head_++];
    launch(i);
  }
}

// --- incast_source -----------------------------------------------------------

incast_source::incast_source(net::network& net,
                             std::vector<incast_epoch> epochs,
                             source_options opt)
    : net_(net), epochs_(std::move(epochs)), opt_(std::move(opt)) {
  next_packet_id_ = opt_.first_packet_id;
  for (std::size_t e = 0; e < epochs_.size(); ++e) {
    net_.sim().schedule_at(epochs_[e].barrier, [this, e] { fire_epoch(e); });
  }
}

void incast_source::fire_epoch(std::size_t e) {
  ++epochs_fired_;
  const incast_epoch& ep = epochs_[e];
  for (std::size_t s = 0; s < ep.srcs.size(); ++s) {
    if (ep.offsets[s] == 0) {
      emit_sender(e, s);
    } else {
      net_.sim().schedule_in(ep.offsets[s],
                             [this, e, s] { emit_sender(e, s); });
    }
  }
}

void incast_source::emit_sender(std::size_t e, std::size_t s) {
  const incast_epoch& ep = epochs_[e];
  packets_emitted_ +=
      emit_burst_packets(net_, opt_, next_packet_id_, ep.first_flow_id + s,
                         ep.srcs[s], ep.dst, ep.sizes[s]);
  ++flows_emitted_;
}

// --- mixed_source ------------------------------------------------------------

mixed_source::mixed_source(net::network& net,
                           std::vector<flow_spec> background_flows,
                           std::uint32_t max_outstanding, bool via_tcp,
                           std::vector<incast_epoch> epochs,
                           source_options background_opt,
                           source_options incast_opt)
    : background_(net, std::move(background_flows), max_outstanding, via_tcp,
                  std::move(background_opt)),
      incast_(net, std::move(epochs), std::move(incast_opt)) {}

// --- make_source -------------------------------------------------------------

namespace {

// Calibrates and constructs the two halves of a mixed workload. Each half
// is generated against its share of the offered load and packet budget so
// the aggregate stays at the scenario's utilization; flow-id and packet-id
// ranges are made disjoint afterwards (the closed loop matches completions
// by flow id; replay sorts outcomes by packet id).
source_run make_mixed_source(net::network& net, const topo::topology& topo,
                             const flow_size_dist& dist,
                             const workload_config& cfg,
                             const source_tuning& tune, source_options opt) {
  const double share = tune.incast_share;
  if (!(share >= 0.0) || !(share < 1.0)) {
    throw std::invalid_argument(
        "mixed workload: incast share must be in [0, 1)");
  }
  workload_config bg_cfg = cfg;
  bg_cfg.utilization = cfg.utilization * (1.0 - share);
  const auto incast_budget =
      static_cast<std::uint64_t>(static_cast<double>(cfg.packet_budget) *
                                 share);
  bg_cfg.packet_budget = cfg.packet_budget - incast_budget;
  auto bg = generate(net, topo, dist, bg_cfg);

  workload_config in_cfg = cfg;
  in_cfg.utilization = cfg.utilization * share;
  in_cfg.packet_budget = incast_budget;
  in_cfg.seed = cfg.seed + 1;  // independent stream from the background
  auto in = share > 0.0
                ? generate_incast(net, topo, dist, in_cfg, tune.incast_degree,
                                  tune.barrier_jitter)
                : incast_workload{};

  // Both generators number flows from 1; shift the epochs past the
  // background's range.
  const std::uint64_t bg_flows = bg.flows.size();
  for (auto& ep : in.epochs) ep.first_flow_id += bg_flows;

  source_options bg_opt = opt;
  source_options in_opt = std::move(opt);
  in_opt.first_packet_id = bg_opt.first_packet_id + bg.total_packets;

  source_run out;
  out.per_host_rate_bps = bg.per_host_rate_bps + in.per_host_rate_bps;
  out.max_link_utilization =
      bg.max_link_utilization + in.max_link_utilization;
  out.planned_packets = bg.total_packets + in.total_packets;
  out.planned_flows = bg_flows + in.flow_count;
  out.src = std::make_unique<mixed_source>(
      net, std::move(bg.flows), tune.outstanding, tune.via_tcp,
      std::move(in.epochs), std::move(bg_opt), std::move(in_opt));
  return out;
}

}  // namespace

source_run make_source(net::network& net, const topo::topology& topo,
                       const flow_size_dist& dist, const workload_config& cfg,
                       source_kind kind, const source_tuning& tune,
                       source_options opt) {
  source_run out;
  if (kind == source_kind::mixed) {
    return make_mixed_source(net, topo, dist, cfg, tune, std::move(opt));
  }
  if (kind == source_kind::incast) {
    auto wl = generate_incast(net, topo, dist, cfg, tune.incast_degree,
                              tune.barrier_jitter);
    out.per_host_rate_bps = wl.per_host_rate_bps;
    out.max_link_utilization = wl.max_link_utilization;
    out.planned_packets = wl.total_packets;
    out.planned_flows = wl.flow_count;
    out.src = std::make_unique<incast_source>(net, std::move(wl.epochs),
                                              std::move(opt));
    return out;
  }
  auto wl = generate(net, topo, dist, cfg);
  out.per_host_rate_bps = wl.per_host_rate_bps;
  out.max_link_utilization = wl.max_link_utilization;
  out.planned_packets = wl.total_packets;
  out.planned_flows = wl.flows.size();
  switch (kind) {
    case source_kind::open_loop:
      out.src = std::make_unique<open_loop_source>(net, std::move(wl.flows),
                                                   std::move(opt));
      break;
    case source_kind::paced:
      out.src = std::make_unique<paced_source>(
          net, std::move(wl.flows), tune.pacing_fraction, std::move(opt));
      break;
    case source_kind::closed_loop:
      out.src = std::make_unique<closed_loop_source>(
          net, std::move(wl.flows), tune.outstanding, tune.via_tcp,
          std::move(opt));
      break;
    case source_kind::incast:
    case source_kind::mixed:
      break;  // handled above
  }
  return out;
}

}  // namespace ups::traffic
