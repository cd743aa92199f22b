// Store-and-forward network: nodes, directed ports, static shortest-path
// routing, packet forwarding, and measurement hooks.
//
// Matches the paper's model (§2.1): the input is a set of packets with
// ingress arrival times and fixed paths; every router runs a per-port
// scheduling algorithm; i(p) is the last-bit arrival at the ingress router
// and o(p) the last-bit departure from the egress router.
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <stdexcept>
#include <string>
#include <vector>

#include "net/fault.h"
#include "net/flow_control.h"
#include "net/node.h"
#include "net/packet.h"
#include "net/packet_pool.h"
#include "net/port.h"
#include "net/routing.h"
#include "net/scheduler.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace ups::net {

// Context handed to the scheduler factory for each port, so experiments can
// assign different algorithms to different routers (e.g. half FQ, half
// FIFO+) or treat host NICs specially.
struct port_info {
  std::int32_t port_id;
  node_id from;
  node_id to;
  node_kind from_kind;
  sim::bits_per_sec rate;
};

using scheduler_factory =
    std::function<std::unique_ptr<scheduler>(const port_info&)>;

struct network_hooks {
  // Last bit of p arrived at its ingress router (defines i(p)).
  std::function<void(const packet&, sim::time_ps)> on_ingress;
  // Last bit of p left its egress router (defines o(p)).
  std::function<void(const packet&, sim::time_ps)> on_egress;
  // A packet died: evicted/tail-dropped at a full buffer (`at` = the node
  // whose output port dropped it) or consumed by a link fault process on
  // the wire (`at` = the transmitting node).
  std::function<void(const packet&, node_id at, sim::time_ps, drop_kind)>
      on_drop;
};

struct network_stats {
  std::uint64_t injected = 0;
  std::uint64_t delivered = 0;
  std::uint64_t dropped = 0;       // all drops, buffer + wire
  std::uint64_t dropped_wire = 0;  // link-fault (and forced wire) drops only
  // Flow control / backpressure. flow_blocks counts head packets parking on
  // a credit-starved link, flow_resumes the matching unblocks, and
  // flow_stall_time their summed parked duration. The watchdog counters
  // classify its no-progress checks: transient = blocked ports exist but
  // the network made progress since the last check; persistent = a full
  // stuck window passed without progress and without a detectable wait-for
  // cycle (a true cycle throws flow_deadlock_error instead of counting).
  std::uint64_t flow_blocks = 0;
  std::uint64_t flow_resumes = 0;
  sim::time_ps flow_stall_time = 0;
  std::uint64_t watchdog_transient = 0;
  std::uint64_t watchdog_persistent = 0;
  // Dijkstra trees computed by route(): at most one per source router that
  // is not a stub (stubs reuse their neighbour's), and zero for a network
  // that only replays recorded paths.
  std::uint64_t route_trees = 0;
};

class network {
 public:
  explicit network(sim::simulator& sim) : sim_(sim) {}
  // Discards the simulation's pending events: some hold this network's
  // packets (up-front injections, stall holds), and every one of them may
  // reach into the network when run.
  ~network() { sim_.discard_pending(); }
  network(const network&) = delete;
  network& operator=(const network&) = delete;

  // --- construction (before build()) ---
  node_id add_router(std::string name);
  node_id add_host(std::string name);
  // Adds a duplex link (two directed ports once built).
  void add_link(node_id a, node_id b, sim::bits_per_sec rate,
                sim::time_ps prop_delay);
  void set_scheduler_factory(scheduler_factory f) { factory_ = std::move(f); }
  // Buffer capacity per port in bytes; <= 0 means unlimited. A packet
  // strictly larger than a finite buffer can never be admitted — it tail-
  // drops even at an idle port — so finite budgets should be >= the MTU.
  void set_buffer_bytes(std::int64_t b) {
    if (built_) {
      throw std::logic_error("network: set_buffer_bytes after build()");
    }
    buffer_bytes_ = b;
  }
  void set_preemption(bool on) { preemption_ = on; }
  // Attaches a fault process to every router->router port at build() time,
  // seeded so drop decisions are a pure function of (seed, port id,
  // decision index). Host uplinks stay reliable: every traced packet still
  // has a well-defined i(p).
  void set_fault(const fault_spec& f, std::uint64_t seed);
  [[nodiscard]] const fault_spec& fault() const noexcept { return fault_; }
  // Attaches credit-based flow control to every router->router port at
  // build() time (host uplinks stay ungoverned so i(p) is always
  // well-defined). Fully deterministic: no RNG, so stall patterns are
  // identical across dispatch backends.
  void set_flow(const flow_spec& f);
  [[nodiscard]] const flow_spec& flow() const noexcept { return flow_; }
  // Materializes ports. Must be called exactly once before any traffic.
  void build();

  // --- traffic entry points ---
  // Sends from the source host NIC (normal operation: host link pacing
  // included, path stamped from static routing if absent).
  void send_from_host(packet_ptr p);
  // Replay injection: delivers p at its ingress router at time `at`,
  // bypassing the host link exactly as the paper's replay model does.
  void inject_at_ingress(packet_ptr p, sim::time_ps at);
  // Replay injection at the current instant, delivered inline rather than
  // through an early-phase event. Same outcome as inject_at_ingress(p,
  // now()) only when nothing else runs in the early phase of this instant:
  // the streaming feeder's case (its own early event is the first and only
  // one at its instant).
  void inject_now(packet_ptr p);

  // --- forwarding internals (used by port) ---
  // The last bit of p left from_port: re-enacts recorded wire drops, runs
  // live fault processes, fires on_egress at the egress router, then puts p
  // on the wire — or, when nothing can observe the host delivery, counts it
  // delivered right here.
  void transmitted(packet_ptr p, port& from_port, sim::time_ps now);
  // p's last bit arrived at node `at`.
  void deliver(packet_ptr p, node_id at);
  void count_drop(const packet& p, node_id at, sim::time_ps now,
                  drop_kind kind);
  // A governed port's head packet parked for lack of credits: count it and
  // arm the stall watchdog.
  void flow_port_blocked(const port& blocked);
  // The matching unblock, with how long the head sat parked.
  void flow_resumed(sim::time_ps stalled);
  // Returns every credit a packet still holds (called on any drop path so
  // fault+flow combinations cannot leak occupancy and wedge the link).
  void flow_release_all(packet& p);

  // --- lookup ---
  [[nodiscard]] const node& node_at(node_id id) const { return nodes_[id]; }
  [[nodiscard]] std::size_t node_count() const noexcept {
    return nodes_.size();
  }
  [[nodiscard]] bool is_router(node_id id) const {
    return nodes_[id].kind == node_kind::router;
  }
  // Directed port from -> to; throws if absent.
  [[nodiscard]] port& port_between(node_id from, node_id to);
  [[nodiscard]] bool has_port(node_id from, node_id to) const {
    return find_port(from, to) != nullptr;
  }
  [[nodiscard]] const std::vector<std::unique_ptr<port>>& ports() const {
    return ports_;
  }
  // Router attached to a host.
  [[nodiscard]] node_id attachment(node_id host) const;

  // Stores in `out` (reusing its capacity) the router-level shortest path
  // between the routers serving two hosts (weight = propagation delay + 1ps
  // per hop; deterministic tie-breaks). A self route is the one router and
  // computes nothing. A stub source router (exactly one router edge) walks
  // its neighbour's predecessor row and prepends itself; any other source
  // router walks its own. The first lookup that needs a row computes it;
  // later ones only walk it. Throws std::runtime_error, leaving `out`
  // untouched, when no route exists.
  void route(node_id src_host, node_id dst_host, std::vector<node_id>& out);

  // Minimum remaining network traversal time for p from path[from_hop] to
  // egress: per-hop transmission plus inter-router propagation (Appendix A's
  // tmin; excludes the egress link's propagation, matching o(p)).
  [[nodiscard]] sim::time_ps tmin(const packet& p, std::size_t from_hop) const;
  [[nodiscard]] sim::time_ps tmin_from_ingress(const packet& p) const {
    return tmin(p, 0);
  }

  // Arena every traffic source and transport should draw packets from; in
  // steady state packet create/destroy is a freelist pop/push.
  [[nodiscard]] packet_pool& pool() noexcept { return pool_; }

  network_hooks& hooks() noexcept { return hooks_; }
  [[nodiscard]] const network_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] sim::simulator& sim() noexcept { return sim_; }

  // Registers a per-host packet consumer (transport endpoints). Without a
  // handler delivered packets are counted and destroyed; a network that
  // never had one (and runs no flow control) does so as the last bit
  // leaves the egress router, skipping the host link.
  void set_host_handler(node_id host, std::function<void(packet_ptr)> h);

 private:
  struct link_spec {
    node_id a;
    node_id b;
    sim::bits_per_sec rate;
    sim::time_ps delay;
  };

  // Counts p injected and stamps its entry state (routing it if needed);
  // returns its ingress router.
  node_id admit(packet& p, sim::time_ps at);
  // Delivers p to `to` at `at` through its own kernel event (up-front
  // injection and stall holds; wires go through port::launch). `early`:
  // ahead of same-instant normal events (replay injection).
  void post(packet_ptr p, node_id to, sim::time_ps at, bool early = false);
  [[nodiscard]] const port* find_port(node_id from, node_id to) const;
  // Schedules the delayed credit-return for one (port, bytes) release.
  void flow_schedule_release(std::int32_t port_id, std::int64_t bytes);
  void flow_watchdog_arm();
  void flow_watchdog_check();

  sim::simulator& sim_;
  // Declared before every member that can hold packets (ports_ and their
  // wires) so it is destroyed last: pooled packets return here on
  // destruction.
  packet_pool pool_;
  std::vector<node> nodes_;
  std::vector<link_spec> links_;
  std::vector<std::unique_ptr<port>> ports_;
  // per-node outgoing ports: (to, index into ports_)
  std::vector<std::vector<std::pair<node_id, std::int32_t>>> out_ports_;
  scheduler_factory factory_;
  std::int64_t buffer_bytes_ = 0;
  bool preemption_ = false;
  bool built_ = false;
  fault_spec fault_;
  std::uint64_t fault_seed_ = 0;
  std::vector<link_fault> link_faults_;  // indexed by port id; built_ only

  // Flow control: occupancy ledgers indexed by port id (router->router
  // only), plus the stall watchdog. The watchdog arms lazily on the first
  // blocked port, checks every watchdog_interval_ (a few credit RTTs), and
  // classifies: progress since last check = transient backpressure; a full
  // stuck window without progress = persistent stall; a wait-for cycle
  // among blocked routers with no credit return in flight = deadlock
  // (typed throw). flow_progress_ advances on resumes, credit returns,
  // deliveries, and drops.
  flow_spec flow_;
  std::vector<link_flow> link_flows_;        // indexed by port id
  std::vector<std::int32_t> governed_ports_;
  sim::time_ps flow_watchdog_interval_ = 0;
  bool flow_watchdog_armed_ = false;
  std::uint64_t flow_progress_ = 0;
  std::uint64_t flow_watchdog_seen_ = 0;  // progress at last check
  std::uint32_t flow_watchdog_stuck_ = 0;
  std::int64_t flow_returns_in_flight_ = 0;

  // Lazy predecessor rows over the router-only graph (dense router indices,
  // host links excluded). route_row_[i] is the slot of router i's row in
  // route_prev_, -1 until the first route() that needs it (stubs never get
  // one); a row holds one predecessor per router from one Dijkstra tree, so
  // a network that never routes (replay) computes no tree and holds no
  // row.
  std::vector<std::int32_t> router_index_;  // node_id -> dense router index
  std::vector<node_id> router_ids_;         // dense router index -> node_id
  routing_graph route_graph_;
  std::vector<std::int32_t> route_row_;
  std::vector<node_id> route_prev_;
  std::vector<std::function<void(packet_ptr)>> host_handlers_;
  // No host handler was ever installed: a packet leaving its egress router
  // has no observer left, so (flow control off) it is delivered there.
  bool host_handlers_installed_ = false;

  network_hooks hooks_;
  network_stats stats_;
};

}  // namespace ups::net
