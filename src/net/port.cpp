#include "net/port.h"

#include <cassert>
#include <utility>

#include "net/network.h"

namespace ups::net {

port::port(network& net, sim::simulator& sim, std::int32_t id, node_id from,
           node_id to, sim::bits_per_sec rate, sim::time_ps prop_delay,
           std::unique_ptr<scheduler> sched, std::int64_t buffer_bytes)
    : net_(net),
      sim_(sim),
      id_(id),
      from_(from),
      to_(to),
      rate_(rate),
      delay_(prop_delay),
      sched_(std::move(sched)),
      buffer_bytes_(buffer_bytes) {}

port::~port() {
  // Unlink one packet at a time: destroying the head with its chain
  // attached would recurse once per packet on the wire.
  while (wire_head_ != nullptr) wire_head_ = std::move(wire_head_->wire_next);
}

void port::receive(packet_ptr p) {
  const sim::time_ps now = sim_.now();
  p->port_enqueue_time = now;
  // Infinitely fast ports (the theory gadgets' "white" routers) forward
  // synchronously: zero transmission time means they can never queue, and
  // cutting through inline keeps same-instant arrivals visible to the next
  // congested port before its (late-phase) service decision runs.
  if (rate_ == sim::kInfiniteRate && flow_ == nullptr && !busy() &&
      sched_->empty()) {
    ++stats_.packets_sent;
    stats_.bytes_sent += p->size_bytes;
    if (p->record_hops && net_.is_router(from_)) {
      p->hop_departs.push_back(now);
    }
    // Cut-through still completes a hop for the credit ledger: any credit
    // held from the previous governed port becomes releasable once the
    // packet leaves this router.
    p->credit_prev_port = p->credit_port;
    p->credit_port = -1;
    net_.transmitted(std::move(p), *this, now);
    return;
  }
  if (buffer_bytes_ > 0 &&
      static_cast<std::int64_t>(sched_->bytes()) + p->size_bytes >
          buffer_bytes_) {
    packet_ptr victim = sched_->evict_for(*p, now);
    if (victim == nullptr) {
      drop(std::move(p));
      return;
    }
    drop(std::move(victim));
  }
  sched_->enqueue(std::move(p), now);
  if (!busy()) {
    schedule_start();
  } else if (preemption_ && sched_->supports_preemption()) {
    maybe_preempt();
  }
}

void port::schedule_start() {
  if (pending_start_ || busy()) return;
  pending_start_ = true;
  auto decide = [this] {
    pending_start_ = false;
    if (!busy()) start_next();
  };
  constexpr auto late = sim::simulator::phase::late;
  if (idle_seq_ != 0 && sim_.slot_pending(idle_at_, late, idle_seq_)) {
    sim_.schedule_reserved(idle_at_, late, idle_seq_, decide);
  } else {
    sim_.schedule_late(sim_.now(), decide);
  }
  idle_seq_ = 0;
}

void port::start_next() {
  const sim::time_ps now = sim_.now();
  // A head denied by flow control keeps its position: nothing behind it may
  // overtake (head-of-line blocking), so retries always pick it back up
  // before consulting the scheduler.
  const bool resumed = blocked_head_ != nullptr;
  packet_ptr p =
      resumed ? std::move(blocked_head_) : sched_->dequeue(now);
  if (p == nullptr) return;
  // Only a *fresh* transmission consumes downstream credit; a
  // preemption-resumed packet (tx_remaining >= 0) already holds its credit
  // from the initial start.
  const bool fresh = p->tx_remaining < 0;
  if (fresh && flow_ != nullptr && !flow_->can_send(p->size_bytes)) {
    blocked_head_ = std::move(p);
    if (!resumed) {
      // First denial: record the pause; re-denied retries keep the
      // original blocked_since_ so stalled time is counted once.
      blocked_since_ = now;
      ++stats_.pauses;
      net_.flow_port_blocked(*this);
    }
    return;
  }
  if (resumed) {
    const sim::time_ps stalled = now - blocked_since_;
    stats_.stalled_time += stalled;
    ++stats_.resumes;
    ++p->stall_count;
    p->stall_time += stalled;
    if (stalled > p->stall_max) {
      p->stall_max = stalled;
      p->stall_hop = static_cast<std::int32_t>(p->hop) - 1;
    }
    net_.flow_resumed(stalled);
  }
  if (fresh) {
    p->tx_remaining = transmission_time(p->size_bytes);
    p->credit_prev_port = p->credit_port;
    p->credit_port = flow_ != nullptr ? id_ : -1;
    if (flow_ != nullptr) flow_->consume(p->size_bytes);
  }
  current_rank_ = p->sched_key;
  tx_started_ = now;
  current_ = std::move(p);
  completion_ =
      sim_.schedule_in(current_->tx_remaining, [this] { on_complete(); });
}

void port::maybe_preempt() {
  assert(current_ != nullptr);
  const auto rank = sched_->peek_rank();
  if (!rank.has_value() || *rank >= current_rank_) return;
  const sim::time_ps elapsed = sim_.now() - tx_started_;
  const sim::time_ps remaining = current_->tx_remaining - elapsed;
  if (remaining <= 0) return;  // finishing at this instant anyway
  sim_.cancel(completion_);
  current_->tx_remaining = remaining;
  ++stats_.preemptions;
  // Re-enqueue the paused packet; its per-hop rank is preserved because the
  // scheduler caches it in sched_key / sched_key_port.
  sched_->enqueue(std::move(current_), sim_.now());
  schedule_start();
}

void port::on_complete() {
  assert(current_ != nullptr);
  packet_ptr p = std::move(current_);
  const sim::time_ps now = sim_.now();
  // Waiting = total residence at this port minus pure transmission time;
  // correct under preemption because pauses count as waiting.
  const sim::time_ps waited =
      (now - p->port_enqueue_time) - transmission_time(p->size_bytes);
  assert(waited >= 0);
  p->queueing_delay += waited;
  p->slack -= waited;
  p->fifo_plus_wait += waited;
  p->tx_remaining = -1;
  ++stats_.packets_sent;
  stats_.bytes_sent += p->size_bytes;
  if (p->record_hops && net_.is_router(from_)) {
    p->hop_departs.push_back(now);
  }
  net_.transmitted(std::move(p), *this, now);
  if (!pending_start_ && sched_->empty() && blocked_head_ == nullptr) {
    // A decision now would find nothing to send: reserve its place only.
    idle_seq_ = sim_.reserve_seq();
    idle_at_ = now;
    return;
  }
  schedule_start();
}

void port::launch(packet_ptr p, sim::time_ps arrival) {
  assert(wire_tail_ == nullptr || wire_tail_->wire_arrival <= arrival);
  p->wire_arrival = arrival;
  p->wire_seq = sim_.reserve_seq();
  packet* const tail = p.get();
  if (wire_tail_ == nullptr) {
    wire_head_ = std::move(p);
    arm_wire();
  } else {
    wire_tail_->wire_next = std::move(p);
  }
  wire_tail_ = tail;
}

void port::arm_wire() {
  sim_.schedule_reserved(wire_head_->wire_arrival,
                         sim::simulator::phase::normal, wire_head_->wire_seq,
                         [this] { land(); });
}

void port::land() {
  packet_ptr p = std::move(wire_head_);
  wire_head_ = std::move(p->wire_next);
  if (wire_head_ != nullptr) {
    arm_wire();
  } else {
    wire_tail_ = nullptr;
  }
  net_.deliver(std::move(p), to_);
}

void port::drop(packet_ptr p) {
  ++stats_.packets_dropped;
  net_.flow_release_all(*p);
  net_.count_drop(*p, from_, sim_.now(), drop_kind::buffer);
}

}  // namespace ups::net
