// Packet model with dynamic packet state (§2.1 of the paper).
//
// The "scheduling header" block mirrors what the paper allows a UPS to carry:
// a slack value rewritten hop by hop (LSTF), a static priority (simple
// priority / SJF / SRPT), a static deadline (EDF), cumulative queueing
// (FIFO+), and — for the omniscient-initialization existence proof — a
// per-hop vector of target departure times. Bookkeeping fields below the
// header are measurement-only and are never consulted by schedulers.
#pragma once

#include <cstdint>
#include <memory>
#include <vector>

#include "net/fault.h"
#include "sim/time.h"

namespace ups::net {

using node_id = std::int32_t;
inline constexpr node_id kInvalidNode = -1;

enum class packet_kind : std::uint8_t { data, ack };

struct packet;
class packet_pool;

// Deleter for pooled packets: returns the packet to its owning pool, or
// frees it outright when it was created without one (tests, ad-hoc tools).
// Defined in packet_pool.cpp so that packet.h stays dependency-free.
struct packet_recycler {
  packet_pool* pool = nullptr;
  void operator()(packet* p) const noexcept;
};

using packet_ptr = std::unique_ptr<packet, packet_recycler>;

struct packet {
  // --- identity ---
  std::uint64_t id = 0;
  std::uint64_t flow_id = 0;
  std::uint32_t seq_in_flow = 0;
  std::uint32_t size_bytes = 0;
  packet_kind kind = packet_kind::data;

  node_id src_host = kInvalidNode;
  node_id dst_host = kInvalidNode;

  // Router-level path: ingress router .. egress router. `hop` is the index
  // of the next router the packet has yet to be delivered to.
  std::vector<node_id> path;
  std::size_t hop = 0;

  // --- scheduling header (dynamic packet state) ---
  sim::time_ps slack = 0;            // LSTF: remaining slack
  std::int64_t priority = 0;         // static priority / SJF / SRPT rank
  sim::time_ps deadline = 0;         // EDF: o(p), never rewritten
  sim::time_ps fifo_plus_wait = 0;   // FIFO+: cumulative queueing delay
  std::vector<sim::time_ps> hop_deadlines;  // omniscient per-hop targets
  std::uint64_t flow_size_bytes = 0;        // stamped at ingress (SJF)
  std::uint64_t remaining_flow_bytes = 0;   // stamped at ingress (SRPT)

  // --- transport header (simplified TCP) ---
  std::uint64_t tseq = 0;  // first byte offset carried by this segment
  std::uint64_t tack = 0;  // cumulative ack (next expected byte)

  // --- per-port scratch used by schedulers and the transmitter ---
  std::int64_t sched_key = 0;        // rank cached by the port's scheduler
  std::int32_t sched_key_port = -1;  // port that owns sched_key
  sim::time_ps tx_remaining = -1;    // <0: not in service at current port
  sim::time_ps port_enqueue_time = 0;

  // --- measurement bookkeeping (not part of any header) ---
  sim::time_ps created_at = 0;      // handed to the source NIC
  sim::time_ps ingress_time = -1;   // last-bit arrival at ingress router, i(p)
  sim::time_ps queueing_delay = 0;  // total waiting across all ports
  std::vector<sim::time_ps> hop_departs;  // last-bit exit per router
  bool record_hops = false;
  // Replay accounting: the recorded o(p) and queueing delay this packet is
  // measured against. The streaming replay engine settles overdue counters
  // at egress, after the packet's record has left the trace cursor, so the
  // reference values must travel with the packet. -1 = not a replay packet.
  sim::time_ps ref_egress_time = -1;
  sim::time_ps ref_queueing_delay = 0;
  // Replay-under-loss: a packet recorded as dropped in the original run is
  // force-dropped at the same hop in replay (wire: leaving path[hop],
  // buffer: at path[hop]'s output queue). -1 = delivered normally.
  std::int32_t forced_drop_hop = -1;
  drop_kind forced_drop_kind = drop_kind::buffer;

  // --- flow-control scratch + stall bookkeeping ---
  // Credit ledger: which governed port's occupancy this packet currently
  // holds (consumed at fresh tx start) and which it held at the previous
  // hop (released once the last bit leaves the downstream router). -1 =
  // no credit held.
  std::int32_t credit_port = -1;
  std::int32_t credit_prev_port = -1;
  // Backpressure measurement: how often and how long this packet sat as a
  // blocked head waiting for downstream credits, and the hop where its
  // single longest wait happened (stall_max is the running max interval
  // backing that choice).
  std::uint32_t stall_count = 0;
  sim::time_ps stall_time = 0;
  std::int32_t stall_hop = -1;
  sim::time_ps stall_max = 0;
  // Replay-under-backpressure: a packet recorded as stalled is re-delayed
  // by its total recorded stall time at its longest-stall hop. -1 = never
  // stalled in the original run.
  std::int32_t forced_stall_hop = -1;
  sim::time_ps forced_stall_time = 0;

  // --- delay-line link, set while the packet propagates on a wire ---
  // The sending port's wire is a FIFO threaded through its packets: the
  // next packet behind this one, this one's arrival time at the far end,
  // and the kernel sequence number its arrival event would have taken.
  packet_ptr wire_next;
  sim::time_ps wire_arrival = 0;
  std::uint64_t wire_seq = 0;

  [[nodiscard]] bool at_last_router() const noexcept {
    return hop + 1 >= path.size();
  }

  // Restores a recycled packet to the freshly-constructed state while
  // keeping the capacity of the embedded vectors, so pooled reuse performs
  // no heap allocation. Must cover every field above — scratch fields like
  // sched_key_port and tx_remaining are load-bearing for correctness, not
  // just hygiene.
  void reset() noexcept {
    id = 0;
    flow_id = 0;
    seq_in_flow = 0;
    size_bytes = 0;
    kind = packet_kind::data;
    src_host = kInvalidNode;
    dst_host = kInvalidNode;
    path.clear();
    hop = 0;
    slack = 0;
    priority = 0;
    deadline = 0;
    fifo_plus_wait = 0;
    hop_deadlines.clear();
    flow_size_bytes = 0;
    remaining_flow_bytes = 0;
    tseq = 0;
    tack = 0;
    sched_key = 0;
    sched_key_port = -1;
    tx_remaining = -1;
    port_enqueue_time = 0;
    created_at = 0;
    ingress_time = -1;
    queueing_delay = 0;
    hop_departs.clear();
    record_hops = false;
    ref_egress_time = -1;
    ref_queueing_delay = 0;
    forced_drop_hop = -1;
    forced_drop_kind = drop_kind::buffer;
    credit_port = -1;
    credit_prev_port = -1;
    stall_count = 0;
    stall_time = 0;
    stall_hop = -1;
    stall_max = 0;
    forced_stall_hop = -1;
    forced_stall_time = 0;
    wire_next.reset();
    wire_arrival = 0;
    wire_seq = 0;
  }
};

// Creates an unpooled packet (destroyed with delete). Hot paths should use
// packet_pool::make() instead; this exists for tests and one-off tooling.
[[nodiscard]] inline packet_ptr make_packet() {
  return packet_ptr(new packet, packet_recycler{});
}

}  // namespace ups::net
