// Reference event kernel: the pre-wheel 4-ary flat-key heap.
//
// This is the simulator's previous ordering structure (slab of
// generation-stamped slots over a 4-ary min-heap of (time, phase, seq)
// keys), kept as a self-contained header with the simulator's scheduling
// API (reserved sequence numbers included) so that
//   * the randomized kernel-equivalence suite (tests/test_sim_wheel.cpp)
//     can drive both kernels with one fuzz script and assert identical
//     dispatch order, and
//   * bench_micro_queues can measure heap-vs-wheel packets/sec side by
//     side in the same binary (the ratio CI gates on is machine-local).
//
// Production code must use sim::simulator (the timing wheel); nothing
// outside tests and benches should include this header.
#pragma once

#include <cassert>
#include <cstdint>
#include <limits>
#include <stdexcept>
#include <vector>

#include "sim/callback.h"
#include "sim/time.h"

namespace ups::sim {

class heap_simulator {
 public:
  using callback = inline_callback;
  enum class phase : std::uint8_t { early = 0, normal = 1, late = 2 };

  struct handle {
    std::uint64_t id = 0;
    [[nodiscard]] bool valid() const noexcept { return id != 0; }
  };

  heap_simulator() = default;
  heap_simulator(const heap_simulator&) = delete;
  heap_simulator& operator=(const heap_simulator&) = delete;

  [[nodiscard]] time_ps now() const noexcept { return now_; }

  handle schedule_at(time_ps t, callback cb) {
    return schedule(t, phase::normal, std::move(cb));
  }

  // Saturates on signed overflow of now + dt, mirroring simulator: a
  // far-future relative timer lands at the end of time instead of wrapping
  // into the past (the two kernels must stay dispatch-order identical).
  handle schedule_in(time_ps dt, callback cb) {
    return schedule(future_time(now_, dt), phase::normal, std::move(cb));
  }

  handle schedule_early(time_ps t, callback cb) {
    return schedule(t, phase::early, std::move(cb));
  }

  handle schedule_late(time_ps t, callback cb) {
    return schedule(t, phase::late, std::move(cb));
  }

  // Reserved sequence numbers, with simulator's contract.
  [[nodiscard]] std::uint64_t reserve_seq() noexcept { return next_seq_++; }

  handle schedule_reserved(time_ps t, phase ph, std::uint64_t seq,
                           callback cb) {
    const std::uint64_t order = order_of(ph, seq);
    if (!slot_pending(t, order)) {
      throw std::logic_error(
          "heap_simulator: posting a reserved slot that has already come up");
    }
    return push_new(t, order, std::move(cb));
  }

  [[nodiscard]] bool slot_pending(time_ps t, phase ph,
                                  std::uint64_t seq) const noexcept {
    return slot_pending(t, order_of(ph, seq));
  }

  void cancel(handle h) {
    if (!h.valid()) return;
    const std::uint32_t slot =
        static_cast<std::uint32_t>((h.id & kSlotMask) - 1);
    const std::uint64_t generation = h.id >> kSlotBits;
    if (slot >= slots_.size()) return;
    event_slot& s = slots_[slot];
    if (s.generation != generation || !s.queued || s.cancelled) return;
    s.cancelled = true;
    s.cb.reset();
    assert(live_ > 0);
    --live_;
  }

  bool run_next() {
    for (;;) {
      if (heap_.empty()) {
        mark_drained();
        return false;
      }
      const heap_entry top = heap_[0];
      event_slot& s = slots_[top.slot];
      if (s.cancelled) {
        heap_pop_top();
        retire(top.slot);
        continue;
      }
      assert(top.at >= now_);
      now_ = top.at;
      dispatch_order_ = top.order;
      ++processed_;
      --live_;
      callback cb = std::move(s.cb);
      heap_pop_top();
      retire(top.slot);
      cb();
      return true;
    }
  }

  void run() {
    while (run_next()) {
    }
  }

  void run_until(time_ps t) {
    purge_cancelled_top();
    while (!heap_.empty() && heap_[0].at <= t) {
      run_next();
      purge_cancelled_top();
    }
    if (now_ < t) now_ = t;
    mark_drained();
  }

  [[nodiscard]] bool empty() const noexcept { return live_ == 0; }
  [[nodiscard]] std::size_t pending() const noexcept { return live_; }
  [[nodiscard]] std::uint64_t events_processed() const noexcept {
    return processed_;
  }
  [[nodiscard]] std::size_t slot_capacity() const noexcept {
    return slots_.size();
  }

  // Shared by both kernels: next_time = now + dt, saturating to the latest
  // representable instant instead of overflowing (now >= 0 always, so only
  // the positive direction can wrap).
  [[nodiscard]] static time_ps future_time(time_ps now, time_ps dt) noexcept {
    if (dt > 0 && now > std::numeric_limits<time_ps>::max() - dt) {
      return std::numeric_limits<time_ps>::max();
    }
    return now + dt;
  }

 private:
  static constexpr std::uint64_t kSlotBits = 24;
  static constexpr std::uint64_t kSlotMask = (1ull << kSlotBits) - 1;
  static constexpr std::uint64_t kGenMask = (1ull << 40) - 1;
  static constexpr std::uint64_t kSeqMask = (1ull << 62) - 1;

  struct event_slot {
    callback cb;
    std::uint64_t generation = 0;
    bool queued = false;
    bool cancelled = false;
  };

  struct heap_entry {
    time_ps at;
    std::uint64_t order;
    std::uint32_t slot;
  };
  [[nodiscard]] static bool before(const heap_entry& a,
                                   const heap_entry& b) noexcept {
    if (a.at != b.at) return a.at < b.at;
    return a.order < b.order;
  }

  static constexpr std::size_t kArity = 4;

  [[nodiscard]] static std::uint64_t order_of(phase ph,
                                              std::uint64_t seq) noexcept {
    return (static_cast<std::uint64_t>(ph) << 62) | seq;
  }

  [[nodiscard]] bool slot_pending(time_ps t,
                                  std::uint64_t order) const noexcept {
    if (t != now_) return t > now_;
    if (t == drained_at_ && (order & kSeqMask) < drained_below_) return false;
    return order > dispatch_order_;
  }

  void mark_drained() noexcept {
    drained_at_ = now_;
    drained_below_ = next_seq_;
    dispatch_order_ = 0;
  }

  handle schedule(time_ps t, phase ph, callback cb) {
    return push_new(t, order_of(ph, next_seq_++), std::move(cb));
  }

  handle push_new(time_ps t, std::uint64_t order, callback cb) {
    if (t < now_) {
      throw std::logic_error("heap_simulator: scheduling into the past");
    }
    std::uint32_t slot;
    if (!free_slots_.empty()) {
      slot = free_slots_.back();
      free_slots_.pop_back();
    } else {
      if (slots_.size() >= kSlotMask) {
        throw std::length_error(
            "heap_simulator: more than 2^24 concurrent events");
      }
      slot = static_cast<std::uint32_t>(slots_.size());
      slots_.emplace_back();
    }
    event_slot& s = slots_[slot];
    s.cb = std::move(cb);
    s.queued = true;
    s.cancelled = false;
    heap_push(heap_entry{t, order, slot});
    ++live_;
    return handle{(s.generation << kSlotBits) |
                  (static_cast<std::uint64_t>(slot) + 1)};
  }

  void heap_push(heap_entry e) {
    std::size_t pos = heap_.size();
    heap_.push_back(e);
    while (pos > 0) {
      const std::size_t up = (pos - 1) / kArity;
      if (!before(e, heap_[up])) break;
      heap_[pos] = heap_[up];
      pos = up;
    }
    heap_[pos] = e;
  }

  void heap_pop_top() {
    const heap_entry filler = heap_.back();
    heap_.pop_back();
    const std::size_t n = heap_.size();
    if (n == 0) return;
    std::size_t pos = 0;
    for (;;) {
      const std::size_t first = pos * kArity + 1;
      if (first >= n) break;
      const std::size_t last = first + kArity < n ? first + kArity : n;
      std::size_t best = first;
      for (std::size_t c = first + 1; c < last; ++c) {
        if (before(heap_[c], heap_[best])) best = c;
      }
      if (!before(heap_[best], filler)) break;
      heap_[pos] = heap_[best];
      pos = best;
    }
    heap_[pos] = filler;
  }

  void retire(std::uint32_t slot) {
    event_slot& s = slots_[slot];
    s.queued = false;
    s.cancelled = false;
    s.generation = (s.generation + 1) & kGenMask;
    free_slots_.push_back(slot);
  }

  void purge_cancelled_top() {
    while (!heap_.empty() && slots_[heap_[0].slot].cancelled) {
      const std::uint32_t slot = heap_[0].slot;
      heap_pop_top();
      retire(slot);
    }
  }

  time_ps now_ = 0;
  std::uint64_t next_seq_ = 1;
  std::uint64_t processed_ = 0;
  std::size_t live_ = 0;
  std::uint64_t dispatch_order_ = 0;
  time_ps drained_at_ = -1;
  std::uint64_t drained_below_ = 0;
  std::vector<event_slot> slots_;
  std::vector<std::uint32_t> free_slots_;
  std::vector<heap_entry> heap_;
};

}  // namespace ups::sim
