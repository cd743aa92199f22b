#include "net/network.h"

#include <algorithm>
#include <cassert>
#include <span>
#include <stdexcept>
#include <utility>

#include "net/routing.h"

namespace ups::net {

node_id network::add_router(std::string name) {
  if (built_) throw std::logic_error("network: add_router after build");
  const auto id = static_cast<node_id>(nodes_.size());
  nodes_.push_back(node{id, node_kind::router, std::move(name)});
  return id;
}

node_id network::add_host(std::string name) {
  if (built_) throw std::logic_error("network: add_host after build");
  const auto id = static_cast<node_id>(nodes_.size());
  nodes_.push_back(node{id, node_kind::host, std::move(name)});
  return id;
}

void network::add_link(node_id a, node_id b, sim::bits_per_sec rate,
                       sim::time_ps prop_delay) {
  if (built_) throw std::logic_error("network: add_link after build");
  links_.push_back(link_spec{a, b, rate, prop_delay});
}

void network::set_fault(const fault_spec& f, std::uint64_t seed) {
  if (built_) throw std::logic_error("network: set_fault after build");
  fault_ = f;
  fault_seed_ = seed;
}

void network::set_flow(const flow_spec& f) {
  if (built_) throw std::logic_error("network: set_flow after build");
  flow_ = f;
}

void network::build() {
  if (built_) throw std::logic_error("network: build called twice");
  if (!factory_) throw std::logic_error("network: no scheduler factory");
  built_ = true;
  out_ports_.resize(nodes_.size());
  host_handlers_.resize(nodes_.size());
  auto make_port = [&](node_id from, node_id to, sim::bits_per_sec rate,
                       sim::time_ps delay) {
    const auto pid = static_cast<std::int32_t>(ports_.size());
    const port_info info{pid, from, to, nodes_[from].kind, rate};
    auto p = std::make_unique<port>(*this, sim_, pid, from, to, rate, delay,
                                    factory_(info), buffer_bytes_);
    p->set_preemption(preemption_);
    out_ports_[from].emplace_back(to, pid);
    ports_.push_back(std::move(p));
  };
  for (const auto& l : links_) {
    make_port(l.a, l.b, l.rate, l.delay);
    make_port(l.b, l.a, l.rate, l.delay);
  }

  // Fault processes attach only to router->router ports, keyed by port id —
  // stable across builds because ports are created in link-declaration
  // order above.
  if (fault_.enabled()) {
    link_faults_.resize(ports_.size());
    for (const auto& pt : ports_) {
      if (nodes_[pt->from()].kind == node_kind::router &&
          nodes_[pt->to()].kind == node_kind::router) {
        link_faults_[static_cast<std::size_t>(pt->id())] =
            link_fault(fault_, fault_seed_, pt->id());
      }
    }
  }

  // Flow control mirrors the fault attach: router->router ports only, keyed
  // by (stable) port id. The watchdog interval is a few credit round trips
  // on the slowest governed link so one check window always spans several
  // chances for a return to land.
  if (flow_.enabled()) {
    link_flows_.resize(ports_.size());
    sim::time_ps max_rtt = 0;
    for (const auto& pt : ports_) {
      if (nodes_[pt->from()].kind == node_kind::router &&
          nodes_[pt->to()].kind == node_kind::router) {
        const auto pid = static_cast<std::size_t>(pt->id());
        link_flows_[pid] = link_flow(flow_, pt->prop_delay());
        pt->set_flow(&link_flows_[pid]);
        governed_ports_.push_back(pt->id());
        const sim::time_ps rtt =
            pt->prop_delay() + link_flows_[pid].return_delay();
        if (rtt > max_rtt) max_rtt = rtt;
      }
    }
    flow_watchdog_interval_ = 4 * max_rtt;
    if (flow_watchdog_interval_ < sim::kMicrosecond) {
      flow_watchdog_interval_ = sim::kMicrosecond;
    }
  }

  // Topology is final: index the router-only graph (host links excluded,
  // so paths are router sequences). Dense indices follow node id order, so
  // Dijkstra's tie-breaks match a node-indexed run. Rows come later, on
  // demand (route()).
  router_index_.assign(nodes_.size(), -1);
  for (const auto& n : nodes_) {
    if (n.kind != node_kind::router) continue;
    router_index_[n.id] = static_cast<std::int32_t>(router_ids_.size());
    router_ids_.push_back(n.id);
  }
  route_graph_.resize(router_ids_.size());
  route_row_.assign(router_ids_.size(), -1);
  for (const auto& p : ports_) {
    const auto from = router_index_[p->from()];
    const auto to = router_index_[p->to()];
    if (from >= 0 && to >= 0) {
      route_graph_[from].push_back(routing_edge{to, p->prop_delay() + 1});
    }
  }
}

port& network::port_between(node_id from, node_id to) {
  const port* p = find_port(from, to);
  if (p == nullptr) throw std::out_of_range("network: no such port");
  return const_cast<port&>(*p);
}

const port* network::find_port(node_id from, node_id to) const {
  for (const auto& [nbr, pid] : out_ports_[from]) {
    if (nbr == to) return ports_[pid].get();
  }
  return nullptr;
}

node_id network::attachment(node_id host) const {
  assert(nodes_[host].kind == node_kind::host);
  if (out_ports_[host].size() != 1) {
    throw std::logic_error("network: host must have exactly one uplink");
  }
  return out_ports_[host].front().first;
}

void network::route(node_id src_host, node_id dst_host,
                    std::vector<node_id>& out) {
  const std::int32_t s = router_index_[attachment(src_host)];
  const std::int32_t t = router_index_[attachment(dst_host)];
  // A host "attached" to another host has no router row: unroutable too.
  if (s < 0 || t < 0) throw std::runtime_error("network: no route");
  if (t == s) {
    out.assign(1, router_ids_[s]);
    return;
  }
  // A stub (exactly one router edge) starts every path with that edge, so
  // its neighbour's row, with the stub prepended, is its own row. One
  // level only: a stub whose neighbour is a stub too uses the neighbour's
  // own row.
  const auto& edges = route_graph_[s];
  const std::int32_t root = edges.size() == 1 ? edges.front().to : s;
  const std::size_t n = router_ids_.size();
  if (route_row_[root] < 0) {
    const std::size_t slot = route_prev_.size() / n;
    route_prev_.resize((slot + 1) * n);
    shortest_path_tree(route_graph_, root, std::span(route_prev_).last(n));
    route_row_[root] = static_cast<std::int32_t>(slot);
    ++stats_.route_trees;
  }
  const node_id* prev =
      route_prev_.data() + static_cast<std::size_t>(route_row_[root]) * n;
  if (t != root && prev[t] == kInvalidNode) {
    throw std::runtime_error("network: no route");
  }
  out.clear();
  for (node_id v = t; v != root; v = prev[v]) out.push_back(router_ids_[v]);
  out.push_back(router_ids_[root]);
  if (root != s) out.push_back(router_ids_[s]);
  std::reverse(out.begin(), out.end());
}

sim::time_ps network::tmin(const packet& p, std::size_t from_hop) const {
  assert(!p.path.empty());
  sim::time_ps total = 0;
  for (std::size_t j = from_hop; j < p.path.size(); ++j) {
    const node_id here = p.path[j];
    const node_id next =
        (j + 1 < p.path.size()) ? p.path[j + 1] : p.dst_host;
    const port* pt = find_port(here, next);
    if (pt == nullptr) throw std::logic_error("network: broken path");
    total += pt->transmission_time(p.size_bytes);
    if (j + 1 < p.path.size()) total += pt->prop_delay();
  }
  return total;
}

void network::send_from_host(packet_ptr p) {
  assert(built_);
  if (p->path.empty()) route(p->src_host, p->dst_host, p->path);
  p->hop = 0;
  p->created_at = sim_.now();
  ++stats_.injected;
  port_between(p->src_host, p->path.front()).receive(std::move(p));
}

node_id network::admit(packet& p, sim::time_ps at) {
  assert(built_);
  if (p.path.empty()) route(p.src_host, p.dst_host, p.path);
  p.hop = 0;
  p.created_at = at;
  ++stats_.injected;
  return p.path.front();
}

void network::inject_at_ingress(packet_ptr p, sim::time_ps at) {
  const node_id ingress = admit(*p, at);
  // Early-phase delivery: injected packets enter ahead of any same-instant
  // forwarded arrival, whenever their delivery event was scheduled. This
  // makes injection order depend only on (time, injection sequence), so
  // streaming a trace in during the run is outcome-identical to
  // pre-scheduling the whole trace before it.
  post(std::move(p), ingress, at, /*early=*/true);
}

void network::inject_now(packet_ptr p) {
  const node_id ingress = admit(*p, sim_.now());
  deliver(std::move(p), ingress);
}

void network::post(packet_ptr p, node_id to, sim::time_ps at, bool early) {
  auto deliver_cb = [this, to, q = std::move(p)]() mutable {
    deliver(std::move(q), to);
  };
  if (early) {
    sim_.schedule_early(at, std::move(deliver_cb));
  } else {
    sim_.schedule_at(at, std::move(deliver_cb));
  }
}

void network::transmitted(packet_ptr p, port& from_port, sim::time_ps now) {
  const node_id to = from_port.to();
  // Credit held at the *previous* hop becomes returnable the instant the
  // packet's last bit leaves this router — before any drop decision below,
  // because the upstream buffer space is free either way.
  if (p->credit_prev_port >= 0) {
    flow_schedule_release(p->credit_prev_port, p->size_bytes);
    p->credit_prev_port = -1;
  }
  // Replay-under-loss: a wire drop recorded at hop j in the original run is
  // re-enacted when the packet's last bit leaves path[j] (hop == j + 1 by
  // then: deliver() increments before the forwarding port).
  if (p->forced_drop_hop >= 0 && p->forced_drop_kind == drop_kind::wire &&
      p->hop == static_cast<std::size_t>(p->forced_drop_hop) + 1) {
    flow_release_all(*p);
    count_drop(*p, from_port.from(), now, drop_kind::wire);
    return;
  }
  // Live fault process on this link (router->router only; last-bit exit is
  // the loss instant, so jamming windows are judged at `now`).
  if (fault_.enabled() && nodes_[from_port.from()].kind == node_kind::router &&
      nodes_[to].kind == node_kind::router &&
      link_faults_[static_cast<std::size_t>(from_port.id())].lose(now)) {
    flow_release_all(*p);
    count_drop(*p, from_port.from(), now, drop_kind::wire);
    return;
  }
  if (nodes_[to].kind == node_kind::host) {
    // Last bit left the egress router: this is o(p).
    if (hooks_.on_egress) hooks_.on_egress(*p, now);
    if (!host_handlers_installed_ && link_flows_.empty()) {
      // Nothing observes the host delivery (no handler, no flow-control
      // progress count): deliver here and release the packet.
      assert(to == p->dst_host);
      ++stats_.delivered;
      return;
    }
  }
  from_port.launch(std::move(p), now + from_port.prop_delay());
}

void network::deliver(packet_ptr p, node_id at) {
  if (nodes_[at].kind == node_kind::router) {
    assert(p->hop < p->path.size() && p->path[p->hop] == at);
    // A forced-stall re-post re-delivers at the same hop, so ingress may
    // only be marked on the packet's first arrival.
    if (p->hop == 0 && p->ingress_time < 0) {
      p->ingress_time = sim_.now();
      if (hooks_.on_ingress) hooks_.on_ingress(*p, sim_.now());
    }
    // Replay-under-backpressure: a packet recorded as stalled is held at
    // its longest-stall router for the full recorded stall time, then
    // re-delivered here to forward normally. The delay is exogenous
    // re-enactment (the original upstream head-park), so it adjusts
    // arrival, not this run's queueing accounting.
    if (p->forced_stall_hop >= 0 &&
        p->hop == static_cast<std::size_t>(p->forced_stall_hop)) {
      const sim::time_ps hold = p->forced_stall_time;
      p->forced_stall_hop = -1;
      post(std::move(p), at, sim_.now() + hold);
      return;
    }
    // Replay-under-loss: a buffer drop recorded at hop j is re-enacted on
    // arrival at path[j] (before hop increments), standing in for the
    // original run's output-queue eviction there.
    if (p->forced_drop_hop >= 0 && p->forced_drop_kind == drop_kind::buffer &&
        p->hop == static_cast<std::size_t>(p->forced_drop_hop)) {
      flow_release_all(*p);
      count_drop(*p, at, sim_.now(), drop_kind::buffer);
      return;
    }
    const node_id next = p->at_last_router() ? p->dst_host : p->path[p->hop + 1];
    ++p->hop;
    port_between(at, next).receive(std::move(p));
    return;
  }
  // Host delivery.
  assert(at == p->dst_host);
  ++stats_.delivered;
  ++flow_progress_;
  if (host_handlers_[at]) {
    host_handlers_[at](std::move(p));
  }
}

void network::count_drop(const packet& p, node_id at, sim::time_ps now,
                         drop_kind kind) {
  ++stats_.dropped;
  ++flow_progress_;
  if (kind == drop_kind::wire) ++stats_.dropped_wire;
  if (hooks_.on_drop) hooks_.on_drop(p, at, now, kind);
}

void network::flow_port_blocked(const port& blocked) {
  (void)blocked;
  ++stats_.flow_blocks;
  flow_watchdog_arm();
}

void network::flow_resumed(sim::time_ps stalled) {
  ++stats_.flow_resumes;
  stats_.flow_stall_time += stalled;
  ++flow_progress_;
}

void network::flow_release_all(packet& p) {
  if (link_flows_.empty()) return;
  if (p.credit_prev_port >= 0) {
    flow_schedule_release(p.credit_prev_port, p.size_bytes);
    p.credit_prev_port = -1;
  }
  if (p.credit_port >= 0) {
    flow_schedule_release(p.credit_port, p.size_bytes);
    p.credit_port = -1;
  }
}

void network::flow_schedule_release(std::int32_t port_id, std::int64_t bytes) {
  const auto pid = static_cast<std::size_t>(port_id);
  ++flow_returns_in_flight_;
  sim_.schedule_in(link_flows_[pid].return_delay(), [this, pid, bytes] {
    --flow_returns_in_flight_;
    ++flow_progress_;
    link_flows_[pid].release(bytes);
    ports_[pid]->flow_credits_returned();
  });
}

void network::flow_watchdog_arm() {
  if (flow_watchdog_armed_) return;
  flow_watchdog_armed_ = true;
  flow_watchdog_seen_ = flow_progress_;
  flow_watchdog_stuck_ = 0;
  sim_.schedule_in(flow_watchdog_interval_, [this] { flow_watchdog_check(); });
}

void network::flow_watchdog_check() {
  bool any_blocked = false;
  for (const auto pid : governed_ports_) {
    if (ports_[static_cast<std::size_t>(pid)]->flow_blocked()) {
      any_blocked = true;
      break;
    }
  }
  if (!any_blocked) {
    // Everything drained: disarm so an idle simulation can end. The next
    // blocked port re-arms.
    flow_watchdog_armed_ = false;
    return;
  }
  if (flow_progress_ != flow_watchdog_seen_) {
    // Blocked ports exist but packets are still moving: ordinary transient
    // backpressure.
    flow_watchdog_seen_ = flow_progress_;
    flow_watchdog_stuck_ = 0;
    ++stats_.watchdog_transient;
    sim_.schedule_in(flow_watchdog_interval_,
                     [this] { flow_watchdog_check(); });
    return;
  }
  ++flow_watchdog_stuck_;
  // Several full check windows (each a few credit RTTs) with zero global
  // progress: look for a wait-for cycle among blocked routers. An edge
  // A -> B means A's output toward B is parked waiting for B to drain; a
  // cycle with no credit return left in flight cannot ever resolve.
  constexpr std::uint32_t kCycleCheckAfter = 4;
  constexpr std::uint32_t kHardStallCap = 64;
  if (flow_watchdog_stuck_ >= kCycleCheckAfter &&
      flow_returns_in_flight_ == 0) {
    std::vector<std::vector<node_id>> adj(nodes_.size());
    std::vector<node_id> blocked_from;
    for (const auto pid : governed_ports_) {
      const port& pt = *ports_[static_cast<std::size_t>(pid)];
      if (pt.flow_blocked()) {
        adj[static_cast<std::size_t>(pt.from())].push_back(pt.to());
        blocked_from.push_back(pt.from());
      }
    }
    // Colored DFS over the blocked-edge graph; reconstructs one cycle for
    // the error message when found.
    std::vector<std::uint8_t> color(nodes_.size(), 0);  // 0 new 1 open 2 done
    std::vector<node_id> stack;
    auto dfs = [&](auto&& self, node_id v) -> node_id {
      color[static_cast<std::size_t>(v)] = 1;
      stack.push_back(v);
      for (const node_id w : adj[static_cast<std::size_t>(v)]) {
        if (color[static_cast<std::size_t>(w)] == 1) return w;
        if (color[static_cast<std::size_t>(w)] == 0) {
          const node_id hit = self(self, w);
          if (hit >= 0) return hit;
        }
      }
      stack.pop_back();
      color[static_cast<std::size_t>(v)] = 2;
      return kInvalidNode;
    };
    for (const node_id v : blocked_from) {
      if (color[static_cast<std::size_t>(v)] != 0) continue;
      stack.clear();
      const node_id entry = dfs(dfs, v);
      if (entry < 0) continue;
      std::string cycle;
      bool in_cycle = false;
      for (const node_id n : stack) {
        if (n == entry) in_cycle = true;
        if (!in_cycle) continue;
        cycle += nodes_[static_cast<std::size_t>(n)].name;
        cycle += " -> ";
      }
      cycle += nodes_[static_cast<std::size_t>(entry)].name;
      throw flow_deadlock_error(
          "flow: credit deadlock — wait-for cycle " + cycle + " (" +
          std::to_string(blocked_from.size()) +
          " blocked ports, no credit returns in flight)");
    }
  }
  if (flow_watchdog_stuck_ >= kHardStallCap) {
    throw flow_stall_error(
        "flow: persistent stall — blocked ports made no progress for " +
        std::to_string(kHardStallCap) +
        " watchdog windows without a detectable wait-for cycle");
  }
  ++stats_.watchdog_persistent;
  sim_.schedule_in(flow_watchdog_interval_, [this] { flow_watchdog_check(); });
}

void network::set_host_handler(node_id host,
                               std::function<void(packet_ptr)> h) {
  assert(built_);
  host_handlers_[host] = std::move(h);
  host_handlers_installed_ = true;
}

}  // namespace ups::net
