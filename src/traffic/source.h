// Composable traffic sources: the event-driven generation layer between a
// calibrated workload and the network.
//
// Every source schedules its wake events on the simulator's slab kernel and
// draws packets from the network's pool, so steady-state generation is
// allocation-free like the rest of the hot path. Four concrete kinds:
//
//   open_loop    each flow's packets enter the source NIC queue as one burst
//                at flow start (the pre-source-subsystem behavior, kept
//                byte-identical — traffic::udp_app remains as the legacy
//                reference the equivalence test compares against)
//   paced        per-flow NIC pacing: packets are emitted one serialization
//                time apart at a configurable fraction of the flow's line
//                rate — the tightest link on its path, NIC included — so
//                elephants no longer park whole flows in one egress queue
//                and WAN scenarios reach steady state
//   closed_loop  request-response: at most `outstanding` flows are in
//                flight; a flow whose scheduled start finds the window full
//                waits for a completion (receiver-side, all bytes
//                delivered). Optionally driven through transport/tcp so
//                originals are TCP-generated
//   incast       synchronized N-to-1 fan-in epochs: `incast_degree` senders
//                aim one flow each at a shared victim, starting within
//                `barrier_jitter` of the epoch barrier
//   mixed        incast epochs layered over a closed-loop background: the
//                offered load and packet budget split by `incast_share`,
//                each half calibrated independently so the aggregate stays
//                at the scenario's utilization. The RocketFuel-scale bench
//                workload — steady request-response traffic punctuated by
//                fan-in bursts
#pragma once

#include <cstdint>
#include <functional>
#include <memory>
#include <string>
#include <vector>

#include "net/network.h"
#include "topo/topology.h"
#include "traffic/size_dist.h"
#include "traffic/workload.h"

namespace ups::transport {
class tcp_manager;
}

namespace ups::traffic {

// Applied to every emitted data packet: the hook where the §3 slack
// heuristics (or priority stamping) initialize the scheduling header.
using header_stamper = std::function<void(net::packet&)>;

enum class source_kind : std::uint8_t {
  open_loop,
  paced,
  closed_loop,
  incast,
  mixed,
};

[[nodiscard]] const char* to_string(source_kind k);

// Per-kind knobs beyond the calibrated workload itself.
struct source_tuning {
  // paced: per-flow emission rate as a fraction of the flow's line rate
  // (the minimum link rate along its path, NIC included). 1.0 paces each
  // flow exactly at its bottleneck: queues never build beyond the
  // bandwidth-delay product, which is what lets WAN scenarios reach steady
  // state. Pacing against the NIC alone would be meaningless on topologies
  // whose access tier is slower than the host links (I2 default).
  double pacing_fraction = 1.0;
  // closed_loop: bound on simultaneously in-flight flows.
  std::uint32_t outstanding = 8;
  // closed_loop: drive flows through transport::tcp_manager (TCP Reno
  // originals) instead of UDP bursts.
  bool via_tcp = false;
  // incast: senders per fan-in epoch (clamped to host_count() - 1).
  std::uint32_t incast_degree = 8;
  // incast: sender starts are jittered uniformly in [0, barrier_jitter].
  sim::time_ps barrier_jitter = 10 * sim::kMicrosecond;
  // mixed: fraction of the offered load (and packet budget) carried by the
  // incast epochs; the rest runs as the closed-loop background.
  double incast_share = 0.25;
};

// Parses a workload name into a kind, applying any ":knob" suffix to
// `tune`: "open-loop", "paced[:frac]", "closed-loop[:outstanding]",
// "closed-loop-tcp[:outstanding]", "incast[:degree]",
// "mixed[:degree[:outstanding[:share]]]". Throws std::invalid_argument on
// an unknown name.
[[nodiscard]] source_kind parse_workload(const std::string& s,
                                         source_tuning& tune);

struct source_options {
  std::uint32_t mtu_bytes = 1500;
  bool record_hops = false;
  header_stamper stamper;  // optional
  // First packet id this source assigns (then increments per packet).
  // Composite sources give each member a disjoint range: replay sorts
  // outcomes by packet id, so duplicate ids across members would break the
  // serial-vs-sharded identity invariant.
  std::uint64_t first_packet_id = 1;
};

// Event-driven traffic source. Construction arms the wake events; the
// source must outlive the simulation run.
class source {
 public:
  virtual ~source() = default;
  [[nodiscard]] virtual source_kind kind() const noexcept = 0;
  [[nodiscard]] virtual std::uint64_t packets_emitted() const noexcept = 0;
  // Flows fully handled: delivered end-to-end for closed_loop, fully
  // emitted for the open kinds.
  [[nodiscard]] virtual std::uint64_t flows_completed() const noexcept = 0;
  // High-water mark of simultaneously active flows. closed_loop keeps this
  // <= source_tuning::outstanding by construction.
  [[nodiscard]] virtual std::uint64_t peak_outstanding() const noexcept = 0;
};

// Open-loop burst emission (legacy behavior): whole flows enter the source
// NIC queue at flow start.
class open_loop_source final : public source {
 public:
  open_loop_source(net::network& net, std::vector<flow_spec> flows,
                   source_options opt);

  [[nodiscard]] source_kind kind() const noexcept override {
    return source_kind::open_loop;
  }
  [[nodiscard]] std::uint64_t packets_emitted() const noexcept override {
    return packets_emitted_;
  }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept override {
    return flows_emitted_;
  }
  // Bursts are emitted whole and the source never observes delivery, so
  // there is no outstanding-flow notion to report.
  [[nodiscard]] std::uint64_t peak_outstanding() const noexcept override {
    return 0;
  }

 private:
  void emit_flow(const flow_spec& f);

  net::network& net_;
  std::vector<flow_spec> flows_;
  source_options opt_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t flows_emitted_ = 0;
};

// NIC pacing: each host runs one pacer that round-robins across its active
// flows, materializing one packet per wake and sleeping one serialization
// time of that packet at pacing_fraction x the flow's path-bottleneck rate
// (the tightest link on its route, NIC included). The host aggregate is
// therefore shaped to the bottleneck tier no matter how many flows overlap
// — bytes a real NIC would hold in application buffers are simply not
// materialized yet, which is what lets WAN originals reach steady state.
// Per-flow and per-host state live in flat slabs sized at construction;
// the steady state runs allocation-free.
class paced_source final : public source {
 public:
  paced_source(net::network& net, std::vector<flow_spec> flows,
               double pacing_fraction, source_options opt);

  [[nodiscard]] source_kind kind() const noexcept override {
    return source_kind::paced;
  }
  [[nodiscard]] std::uint64_t packets_emitted() const noexcept override {
    return packets_emitted_;
  }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept override {
    return flows_done_;
  }
  [[nodiscard]] std::uint64_t peak_outstanding() const noexcept override {
    return peak_active_;
  }

 private:
  struct flow_state {
    std::uint64_t remaining = 0;
    std::uint32_t seq = 0;
    sim::bits_per_sec pace_rate = 0;  // path bottleneck x pacing fraction
  };
  struct host_state {
    std::vector<std::size_t> active;  // flow indices, round-robin ring
    std::size_t cursor = 0;
    bool pacing = false;  // wake event armed
  };

  void start_flow(std::size_t i);
  void emit_host(net::node_id h);

  net::network& net_;
  std::vector<flow_spec> flows_;
  std::vector<flow_state> state_;  // parallel to flows_
  std::vector<host_state> hosts_;  // indexed by node_id
  std::vector<net::node_id> path_;  // start_flow's route() scratch
  double fraction_;
  source_options opt_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t flows_done_ = 0;
  std::uint64_t active_ = 0;
  std::uint64_t peak_active_ = 0;
};

// Bounded-outstanding request-response. Flow start times are treated as
// earliest-start requests: a flow launches at its start time when the
// window has room, otherwise on the completion that frees a slot (FIFO).
// UDP mode detects completion at the receiver (every one of the flow's
// packets delivered — or dropped: the source chains onto the network's
// drop hook so finite-buffer runs cannot leak window slots); via_tcp
// delegates windowing, retransmission, and completion to
// transport::tcp_manager.
class closed_loop_source final : public source {
 public:
  closed_loop_source(net::network& net, std::vector<flow_spec> flows,
                     std::uint32_t max_outstanding, bool via_tcp,
                     source_options opt);
  ~closed_loop_source() override;

  [[nodiscard]] source_kind kind() const noexcept override {
    return source_kind::closed_loop;
  }
  [[nodiscard]] std::uint64_t packets_emitted() const noexcept override;
  [[nodiscard]] std::uint64_t flows_completed() const noexcept override {
    return flows_done_;
  }
  [[nodiscard]] std::uint64_t peak_outstanding() const noexcept override {
    return peak_active_;
  }

 private:
  struct active_flow {
    std::uint64_t flow_id = 0;
    std::uint32_t packets_left = 0;  // UDP mode: undelivered packets
  };

  void on_start_time(std::size_t i);
  void launch(std::size_t i);
  void emit_burst(const flow_spec& f);
  void hook_dst(net::node_id host);
  void on_delivered(const net::packet& p);
  void finish_one(std::size_t active_idx);

  net::network& net_;
  std::vector<flow_spec> flows_;
  source_options opt_;
  std::uint32_t bound_;
  std::unique_ptr<transport::tcp_manager> tcp_;  // null in UDP mode
  std::vector<active_flow> active_;   // <= bound_ entries, reserved upfront
  std::vector<std::size_t> waiting_;  // deferred flow indices, FIFO
  std::size_t waiting_head_ = 0;
  std::vector<bool> hooked_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t flows_done_ = 0;
  std::uint64_t peak_active_ = 0;
};

// Synchronized N-to-1 fan-in: one event per epoch at its barrier, which
// arms each sender's jittered burst.
class incast_source final : public source {
 public:
  incast_source(net::network& net, std::vector<incast_epoch> epochs,
                source_options opt);

  [[nodiscard]] source_kind kind() const noexcept override {
    return source_kind::incast;
  }
  [[nodiscard]] std::uint64_t packets_emitted() const noexcept override {
    return packets_emitted_;
  }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept override {
    return flows_emitted_;
  }
  // Fan-in bursts are open-loop; no delivery feedback, nothing outstanding
  // to bound.
  [[nodiscard]] std::uint64_t peak_outstanding() const noexcept override {
    return 0;
  }
  [[nodiscard]] std::uint64_t epochs_fired() const noexcept {
    return epochs_fired_;
  }

 private:
  void fire_epoch(std::size_t e);
  void emit_sender(std::size_t e, std::size_t s);

  net::network& net_;
  std::vector<incast_epoch> epochs_;
  source_options opt_;
  std::uint64_t next_packet_id_ = 1;
  std::uint64_t packets_emitted_ = 0;
  std::uint64_t flows_emitted_ = 0;
  std::uint64_t epochs_fired_ = 0;
};

// Incast epochs over a closed-loop background, each pre-calibrated to its
// share of the offered load (make_source does the split). The members get
// disjoint packet-id and flow-id ranges — the closed loop matches
// completions by flow id, so a collision would let an incast delivery free
// a background window slot.
class mixed_source final : public source {
 public:
  mixed_source(net::network& net, std::vector<flow_spec> background_flows,
               std::uint32_t max_outstanding, bool via_tcp,
               std::vector<incast_epoch> epochs, source_options background_opt,
               source_options incast_opt);

  [[nodiscard]] source_kind kind() const noexcept override {
    return source_kind::mixed;
  }
  [[nodiscard]] std::uint64_t packets_emitted() const noexcept override {
    return background_.packets_emitted() + incast_.packets_emitted();
  }
  [[nodiscard]] std::uint64_t flows_completed() const noexcept override {
    return background_.flows_completed() + incast_.flows_completed();
  }
  // The incast half is open-loop (nothing outstanding to bound); the
  // closed-loop window is the interesting high-water mark.
  [[nodiscard]] std::uint64_t peak_outstanding() const noexcept override {
    return background_.peak_outstanding();
  }
  [[nodiscard]] std::uint64_t epochs_fired() const noexcept {
    return incast_.epochs_fired();
  }
  [[nodiscard]] std::uint64_t background_packets() const noexcept {
    return background_.packets_emitted();
  }
  [[nodiscard]] std::uint64_t incast_packets() const noexcept {
    return incast_.packets_emitted();
  }

 private:
  closed_loop_source background_;
  incast_source incast_;
};

// A constructed source plus the calibration facts experiments report.
struct source_run {
  std::unique_ptr<source> src;
  double per_host_rate_bps = 0.0;
  double max_link_utilization = 0.0;
  std::uint64_t planned_packets = 0;
  std::uint64_t planned_flows = 0;
};

// Calibrates the workload for `kind` on the built network and constructs
// the matching source: the one entry point experiments use.
[[nodiscard]] source_run make_source(net::network& net,
                                     const topo::topology& topo,
                                     const flow_size_dist& dist,
                                     const workload_config& cfg,
                                     source_kind kind,
                                     const source_tuning& tune = {},
                                     source_options opt = {});

}  // namespace ups::traffic
