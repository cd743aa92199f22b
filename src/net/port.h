// Output port: one directed transmitter with a scheduler-managed queue,
// feeding its link.
//
// Implements the paper's store-and-forward model: the next node receives a
// packet only after its last bit arrives. Slack accounting follows §2.1 —
// slack is consumed by *waiting* only, never by transmission or propagation —
// and works uniformly for preemptive and non-preemptive service because the
// wait is computed as (departure − enqueue) − total transmission time.
//
// The link is a delay line: packets whose last bit has left wait on the
// wire in FIFO order (propagation is constant and last bits leave in order,
// so arrivals never decrease), and only the wire's head holds a kernel
// event; landing it arms the next.
#pragma once

#include <cstdint>
#include <memory>

#include "net/flow_control.h"
#include "net/packet.h"
#include "net/scheduler.h"
#include "sim/simulator.h"
#include "sim/units.h"

namespace ups::net {

class network;

struct port_stats {
  std::uint64_t packets_sent = 0;
  std::uint64_t bytes_sent = 0;
  std::uint64_t packets_dropped = 0;
  std::uint64_t preemptions = 0;
  // Backpressure accounting: a pause is a head packet parking because the
  // downstream link had no credit; the matching resume happens when a
  // credit return unblocks it. stalled_time is the summed park duration.
  std::uint64_t pauses = 0;
  std::uint64_t resumes = 0;
  sim::time_ps stalled_time = 0;
};

class port {
 public:
  port(network& net, sim::simulator& sim, std::int32_t id, node_id from,
       node_id to, sim::bits_per_sec rate, sim::time_ps prop_delay,
       std::unique_ptr<scheduler> sched, std::int64_t buffer_bytes);

  port(const port&) = delete;
  port& operator=(const port&) = delete;
  ~port();

  // Enqueues a packet for transmission (may drop on buffer overflow or
  // preempt the packet in service when the scheduler supports it).
  void receive(packet_ptr p);

  // Puts a packet whose last bit just left onto the wire; it is delivered
  // to to() at `arrival`, under the kernel sequence number it takes now —
  // the place its own arrival event would have had.
  void launch(packet_ptr p, sim::time_ps arrival);

  // Enables resume-style preemption (used by preemptive LSTF): the packet in
  // service is paused, already-transmitted bits are kept, and the remainder
  // re-contends through the scheduler.
  void set_preemption(bool on) noexcept { preemption_ = on; }

  // Attaches the credit ledger governing this link (network::build wires
  // router->router ports only). A governed port starts a fresh transmission
  // only while the downstream occupancy admits it; otherwise the head
  // packet parks in blocked_head_ and everything behind it HoL-blocks.
  void set_flow(link_flow* flow) noexcept { flow_ = flow; }
  [[nodiscard]] const link_flow* flow() const noexcept { return flow_; }
  [[nodiscard]] bool flow_blocked() const noexcept {
    return blocked_head_ != nullptr;
  }
  [[nodiscard]] sim::time_ps flow_blocked_since() const noexcept {
    return blocked_since_;
  }

  // Called by the network when a delayed credit return lands for this
  // link: retries the parked head via the usual late-phase service event.
  void flow_credits_returned() {
    if (blocked_head_ != nullptr) schedule_start();
  }

  [[nodiscard]] std::int32_t id() const noexcept { return id_; }
  [[nodiscard]] node_id from() const noexcept { return from_; }
  [[nodiscard]] node_id to() const noexcept { return to_; }
  [[nodiscard]] sim::bits_per_sec rate() const noexcept { return rate_; }
  [[nodiscard]] sim::time_ps prop_delay() const noexcept { return delay_; }
  [[nodiscard]] bool busy() const noexcept { return current_ != nullptr; }
  [[nodiscard]] const port_stats& stats() const noexcept { return stats_; }
  [[nodiscard]] scheduler& queue() noexcept { return *sched_; }
  [[nodiscard]] std::size_t backlog_bytes() const noexcept {
    return sched_->bytes();
  }

  [[nodiscard]] sim::time_ps transmission_time(
      std::int64_t bytes) const noexcept {
    if (rate_ == sim::kInfiniteRate) return 0;
    return sim::transmission_time(bytes, rate_);
  }

 private:
  // Service decisions are deferred by a zero-delay event so that every
  // packet arriving at the same instant is visible to the scheduler before
  // it picks — without this, simultaneous arrivals would be served in event
  // insertion order regardless of rank.
  void schedule_start();
  void start_next();
  void on_complete();
  void arm_wire();
  void land();
  void maybe_preempt();
  void drop(packet_ptr p);

  network& net_;
  sim::simulator& sim_;
  std::int32_t id_;
  node_id from_;
  node_id to_;
  sim::bits_per_sec rate_;
  sim::time_ps delay_;
  std::unique_ptr<scheduler> sched_;
  std::int64_t buffer_bytes_;  // <= 0: unlimited
  bool preemption_ = false;
  link_flow* flow_ = nullptr;  // nullptr: ungoverned link

  // Head packet already dequeued but denied by flow control; it keeps the
  // head position (head-of-line blocking) until credits return.
  packet_ptr blocked_head_;
  sim::time_ps blocked_since_ = 0;

  packet_ptr current_;
  std::int64_t current_rank_ = 0;
  sim::time_ps tx_started_ = 0;
  sim::simulator::handle completion_{};
  bool pending_start_ = false;
  // A completion that left nothing to send posts no service decision; it
  // reserves the decision's sequence number instead (idle_seq_, 0 = none),
  // and a schedule_start at the same instant posts under it while that
  // slot is still ahead — the decision the empty one would have been.
  std::uint64_t idle_seq_ = 0;
  sim::time_ps idle_at_ = 0;
  // The wire: head (holding the one kernel event) and tail of the FIFO
  // threaded through packet::wire_next.
  packet_ptr wire_head_;
  packet* wire_tail_ = nullptr;
  port_stats stats_;
};

}  // namespace ups::net
