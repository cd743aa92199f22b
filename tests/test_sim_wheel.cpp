// Timing-wheel kernel verification.
//
// The simulator's ordering structure moved from a 4-ary flat-key heap to a
// hierarchical timing wheel; the contract (generation-stamped handles,
// early/normal/late phase ordering, cancel-by-generation, deterministic
// (time, phase, seq) dispatch) must be indistinguishable. The old kernel
// survives verbatim as sim::heap_simulator (sim/heap_kernel.h) and the fuzz
// suite here drives both kernels with one randomized script — schedules
// across bucket and wheel-span boundaries, same-instant phase ties,
// cancel/reschedule churn, stale cancels, zero-delay chains, run_until
// peeks, sequence numbers reserved now and posted later (from the script
// and from inside callbacks, at the instant being dispatched, in the normal
// and late phases) — asserting identical dispatch order, identical
// slot_pending verdicts and identical observable state after every
// operation. Deterministic regressions cover wheel cascades at
// bucket-boundary times, overflow-heap migration order, run_instant
// batching, and schedule_in saturation.
#include <gtest/gtest.h>

#include <algorithm>
#include <cstdint>
#include <limits>
#include <random>
#include <stdexcept>
#include <unordered_set>
#include <utility>
#include <vector>

#include "sim/heap_kernel.h"
#include "sim/simulator.h"
#include "sim/time.h"

namespace ups::sim {
namespace {

// ---------------------------------------------------------------------------
// Randomized kernel-equivalence fuzz: one op script, two kernels, lockstep.

enum class op_kind {
  schedule,
  cancel_live,
  cancel_stale,
  run_next,
  run_until,
  run_instant,
  reserve,        // take a sequence number for (now + dt, phase)
  post_reserved,  // post a reservation if its slot is still pending
};

// What a fired callback does besides logging itself.
enum class child_kind { none, schedule, reserve, post_reserved };

struct op {
  op_kind kind = op_kind::run_next;
  int phase = 1;             // 0 early, 1 normal, 2 late
  time_ps dt = 0;            // schedule/reserve/run_until: delta from now
  child_kind child = child_kind::none;
  time_ps child_dt = 0;      // child schedule/reserve: delta from now
  int child_phase = 1;
  std::size_t pick = 0;      // cancel/post target selector
  int count = 1;             // run_next burst size
};

struct dispatch {
  std::uint64_t token;
  time_ps at;
  bool operator==(const dispatch&) const = default;
};

template <class Kernel>
class driver {
 public:
  std::vector<dispatch> log;

  void apply(const op& o) {
    switch (o.kind) {
      case op_kind::schedule:
        schedule(o.phase, heap_simulator::future_time(k_.now(), o.dt),
                 child{o.child, o.child_dt, o.child_phase, o.pick});
        break;
      case op_kind::cancel_live: {
        prune_fired();
        if (live_.empty()) break;
        auto& victim = live_[o.pick % live_.size()];
        k_.cancel(victim.second);
        stale_.push_back(victim.second);
        victim = live_.back();
        live_.pop_back();
        break;
      }
      case op_kind::cancel_stale:
        if (!stale_.empty()) k_.cancel(stale_[o.pick % stale_.size()]);
        break;
      case op_kind::run_next:
        for (int i = 0; i < o.count; ++i) {
          if (!k_.run_next()) break;
        }
        break;
      case op_kind::run_until:
        k_.run_until(heap_simulator::future_time(k_.now(), o.dt));
        break;
      case op_kind::run_instant:
        run_one_instant();
        break;
      case op_kind::reserve:
        reserve(o.phase, heap_simulator::future_time(k_.now(), o.dt));
        break;
      case op_kind::post_reserved:
        post_reserved(o.pick);
        break;
    }
  }

  // slot_pending verdicts of every post_reserved, in order.
  std::vector<bool> verdicts;

  void drain() { k_.run(); }
  [[nodiscard]] time_ps now() const { return k_.now(); }
  [[nodiscard]] std::size_t pending() const { return k_.pending(); }
  [[nodiscard]] std::uint64_t processed() const {
    return k_.events_processed();
  }

 private:
  // heap_simulator has no run_instant; emulate it as "run events while the
  // clock does not advance past the first one" so both kernels can replay
  // the same script. (simulator::run_instant's batch semantics are covered
  // by dedicated tests below; here both kernels take this portable path.)
  void run_one_instant() {
    if (!k_.run_next()) return;
    const time_ps t = k_.now();
    while (k_.pending() > 0) {
      const std::size_t before = log.size();
      // Peek by running: any event at a later instant still runs, which is
      // fine for equivalence — both kernels do the identical thing.
      if (!k_.run_next()) break;
      if (log.size() > before && log.back().at != t) break;
    }
  }

  struct child {
    child_kind kind = child_kind::none;
    time_ps dt = 0;
    int phase = 1;
    std::size_t pick = 0;
  };

  void schedule(int phase, time_ps at, const child& c) {
    if (at < k_.now()) return;  // both drivers skip identically
    const std::uint64_t token = next_token_++;
    auto cb = [this, token, c] { fire(token, c); };
    typename Kernel::handle h;
    switch (phase) {
      case 0: h = k_.schedule_early(at, cb); break;
      case 2: h = k_.schedule_late(at, cb); break;
      default: h = k_.schedule_at(at, cb); break;
    }
    live_.emplace_back(token, h);
  }

  void fire(std::uint64_t token, const child& c) {
    log.push_back(dispatch{token, k_.now()});
    fired_.insert(token);
    const time_ps at = heap_simulator::future_time(k_.now(), c.dt);
    switch (c.kind) {
      case child_kind::none: break;
      case child_kind::schedule: schedule(c.phase, at, child{}); break;
      case child_kind::reserve: reserve(c.phase, at); break;
      case child_kind::post_reserved: post_reserved(c.pick); break;
    }
  }

  [[nodiscard]] static typename Kernel::phase phase_of(int phase) {
    return phase == 2 ? Kernel::phase::late : Kernel::phase::normal;
  }

  void reserve(int phase, time_ps at) {
    reserved_.push_back(reservation{at, phase, k_.reserve_seq()});
  }

  // Posts one reservation (and forgets it) if its slot is still ahead of
  // the dispatch position; a passed slot must refuse the post.
  void post_reserved(std::size_t pick) {
    if (reserved_.empty()) return;
    const std::size_t i = pick % reserved_.size();
    const reservation r = reserved_[i];
    reserved_[i] = reserved_.back();
    reserved_.pop_back();
    const bool pending = k_.slot_pending(r.at, phase_of(r.phase), r.seq);
    verdicts.push_back(pending);
    if (!pending) {
      EXPECT_THROW(
          k_.schedule_reserved(r.at, phase_of(r.phase), r.seq, [] {}),
          std::logic_error);
      return;
    }
    const std::uint64_t token = next_token_++;
    live_.emplace_back(
        token, k_.schedule_reserved(r.at, phase_of(r.phase), r.seq,
                                    [this, token] { fire(token, child{}); }));
  }

  void prune_fired() {
    for (std::size_t i = 0; i < live_.size();) {
      if (fired_.count(live_[i].first) != 0) {
        live_[i] = live_.back();
        live_.pop_back();
      } else {
        ++i;
      }
    }
  }

  struct reservation {
    time_ps at;
    int phase;  // 1 normal, 2 late
    std::uint64_t seq;
  };

  Kernel k_;
  std::uint64_t next_token_ = 0;
  std::vector<reservation> reserved_;
  std::vector<std::pair<std::uint64_t, typename Kernel::handle>> live_;
  std::vector<typename Kernel::handle> stale_;
  std::unordered_set<std::uint64_t> fired_;
};

// Deltas biased toward wheel stress points: same-instant ties, the 256-slot
// level boundaries (2^8, 2^16, 2^24), off-by-one straddles of each, the
// wheel span edge (2^48), beyond-span overflow traffic, and saturation.
time_ps pick_dt(std::mt19937_64& rng) {
  static constexpr time_ps table[] = {
      0,
      0,
      1,
      3,
      17,
      200,
      255,
      256,
      257,
      1000,
      65535,
      65536,
      65537,
      262144,
      (1ll << 24) - 1,
      1ll << 24,
      (1ll << 24) + 1,
      1ll << 30,
      (1ll << 48) - 2,
      1ll << 48,
      (1ll << 48) + 3,
      1ll << 52,
      std::numeric_limits<time_ps>::max(),
  };
  const auto r = rng() % 100;
  if (r < 70) {
    return table[rng() % (sizeof(table) / sizeof(table[0]))];
  }
  if (r < 90) return static_cast<time_ps>(rng() % 10'000);
  return static_cast<time_ps>(rng() % (1ull << 50));
}

std::vector<op> make_script(std::uint64_t seed, std::size_t n) {
  std::mt19937_64 rng(seed);
  std::vector<op> script;
  script.reserve(n);
  for (std::size_t i = 0; i < n; ++i) {
    op o;
    const auto r = rng() % 100;
    static constexpr time_ps child_dts[] = {0, 0, 1, 7, 64, 100};
    if (r < 40) {
      o.kind = op_kind::schedule;
      const auto p = rng() % 10;
      o.phase = p < 2 ? 0 : (p < 8 ? 1 : 2);
      o.dt = pick_dt(rng);
      const auto c = rng() % 12;
      if (c < 3) {
        o.child = child_kind::schedule;
        o.child_dt = child_dts[rng() % 6];
        o.child_phase = static_cast<int>(rng() % 3);
      } else if (c < 5) {
        // A callback reserving for its own instant or just after, normal
        // or late phase: what a wire push and an idle port do.
        o.child = child_kind::reserve;
        o.child_dt = child_dts[rng() % 6];
        o.child_phase = 1 + static_cast<int>(rng() % 2);
      } else if (c < 7) {
        o.child = child_kind::post_reserved;
        o.pick = rng();
      }
    } else if (r < 45) {
      o.kind = rng() % 2 == 0 ? op_kind::reserve : op_kind::post_reserved;
      o.phase = 1 + static_cast<int>(rng() % 2);
      o.dt = rng() % 3 == 0 ? pick_dt(rng) : child_dts[rng() % 6];
      o.pick = rng();
    } else if (r < 57) {
      o.kind = op_kind::cancel_live;
      o.pick = rng();
    } else if (r < 62) {
      o.kind = op_kind::cancel_stale;
      o.pick = rng();
    } else if (r < 85) {
      o.kind = op_kind::run_next;
      o.count = static_cast<int>(1 + rng() % 4);
    } else if (r < 95) {
      o.kind = op_kind::run_until;
      // Mostly short hops (peeks that land between events), sometimes far.
      o.dt = static_cast<time_ps>(rng() % (rng() % 2 ? 50 : 500'000));
    } else {
      o.kind = op_kind::run_instant;
    }
    script.push_back(o);
  }
  return script;
}

void run_equivalence(std::uint64_t seed, std::size_t ops) {
  const auto script = make_script(seed, ops);
  driver<simulator> wheel;
  driver<heap_simulator> heap;
  for (std::size_t i = 0; i < script.size(); ++i) {
    wheel.apply(script[i]);
    heap.apply(script[i]);
    ASSERT_EQ(wheel.now(), heap.now()) << "op " << i << " seed " << seed;
    ASSERT_EQ(wheel.pending(), heap.pending()) << "op " << i;
    ASSERT_EQ(wheel.log.size(), heap.log.size()) << "op " << i;
    ASSERT_EQ(wheel.verdicts, heap.verdicts) << "op " << i;
    if (!wheel.log.empty()) {
      ASSERT_EQ(wheel.log.back(), heap.log.back()) << "op " << i;
    }
  }
  wheel.drain();
  heap.drain();
  EXPECT_EQ(wheel.log, heap.log) << "seed " << seed;
  EXPECT_EQ(wheel.verdicts, heap.verdicts);
  // The script reaches both sides of slot_pending.
  const auto posted = std::count(wheel.verdicts.begin(),
                                 wheel.verdicts.end(), true);
  EXPECT_GT(posted, 0);
  EXPECT_LT(static_cast<std::size_t>(posted), wheel.verdicts.size());
  EXPECT_EQ(wheel.now(), heap.now());
  EXPECT_EQ(wheel.processed(), heap.processed());
  EXPECT_EQ(wheel.pending(), 0u);
  EXPECT_EQ(heap.pending(), 0u);
}

TEST(sim_wheel_equivalence, fuzz_seed_1) { run_equivalence(1, 4000); }
TEST(sim_wheel_equivalence, fuzz_seed_2) { run_equivalence(0xdecafbad, 4000); }
TEST(sim_wheel_equivalence, fuzz_seed_3) { run_equivalence(20260730, 4000); }

// ---------------------------------------------------------------------------
// Deterministic wheel regressions.

TEST(sim_wheel, cascade_dispatches_in_time_order_across_bucket_boundaries) {
  // Times straddling every wheel-level boundary (levels are 256 slots wide:
  // 2^8, 2^16, 2^24, ... ps), scheduled shuffled; the cascade path must
  // reproduce exact ascending order.
  simulator s;
  const std::vector<time_ps> times = {
      255,         256,       257,        65535,    65536,
      65537,       (1ll << 24) - 1, 1ll << 24, (1ll << 24) + 1,
      (1ll << 32) - 1, 1ll << 32, (1ll << 40) + 5,
      (1ll << 48) - 1, 1ll << 48,
      (1ll << 48) + 1,  // past the wheel span: overflow heap
      1ll << 52,
  };
  std::vector<time_ps> shuffled = times;
  std::mt19937_64 rng(7);
  std::shuffle(shuffled.begin(), shuffled.end(), rng);
  std::vector<time_ps> seen;
  for (const time_ps t : shuffled) {
    s.schedule_at(t, [&seen, &s] { seen.push_back(s.now()); });
  }
  s.run();
  std::vector<time_ps> expected = times;
  std::sort(expected.begin(), expected.end());
  EXPECT_EQ(seen, expected);
}

TEST(sim_wheel, same_instant_run_at_bucket_boundary_keeps_phase_order) {
  // A full early/normal/late tie exactly at the level-1 boundary (t = 256,
  // placed at level 1 and reached through a cascade), must still dispatch
  // phase-then-seq.
  simulator s;
  std::vector<int> order;
  s.schedule_late(256, [&] { order.push_back(5); });
  s.schedule_at(256, [&] {
    order.push_back(3);
    s.schedule_in(0, [&] { order.push_back(4); });  // joins the live run
  });
  s.schedule_early(256, [&] { order.push_back(1); });
  s.schedule_at(256, [&] { order.push_back(3); });
  s.schedule_early(256, [&] { order.push_back(2); });
  s.schedule_at(1, [&] { order.push_back(0); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 3, 3, 4, 5}));
}

TEST(sim_wheel, overflow_events_migrate_into_wheel_in_order) {
  // e2 is beyond the wheel span when scheduled (parks in the overflow
  // heap); after the wheel advances, an event scheduled between the wheel
  // population and the parked one must still run in global time order.
  simulator s;
  std::vector<int> order;
  s.schedule_at(100, [&] {
    order.push_back(1);
    s.schedule_at((1ll << 50) - 1, [&] { order.push_back(2); });
  });
  s.schedule_at(1ll << 50, [&] { order.push_back(3); });
  s.schedule_at((1ll << 50) + 5, [&] { order.push_back(4); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
  EXPECT_EQ(s.now(), (1ll << 50) + 5);
}

TEST(sim_wheel, run_until_peek_then_earlier_schedule_keeps_order) {
  // run_until stops between events; a later schedule landing between the
  // stop point and the already-known next event must not be lost or
  // reordered (the wheel clock may never overshoot the run_until horizon).
  simulator s;
  std::vector<int> order;
  s.schedule_at(1000, [&] { order.push_back(2); });
  s.run_until(500);
  EXPECT_EQ(s.now(), 500);
  s.schedule_at(600, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));
  EXPECT_EQ(s.now(), 1000);
}

TEST(sim_wheel, run_until_boundary_peeks_across_levels) {
  // One event per wheel level (256-slot levels: boundaries at 2^8, 2^16,
  // 2^24) plus the overflow heap; horizons land just short of each.
  simulator s;
  std::vector<time_ps> seen;
  for (const time_ps t : {255ll, 256ll, 65536ll, 1ll << 24, 1ll << 48}) {
    s.schedule_at(t, [&] { seen.push_back(s.now()); });
  }
  s.run_until(255);
  EXPECT_EQ(seen.size(), 1u);
  s.run_until(256);
  EXPECT_EQ(seen.size(), 2u);
  s.run_until(60000);
  EXPECT_EQ(seen.size(), 2u);
  EXPECT_EQ(s.now(), 60000);
  // Lands between the peek horizon and the already-pending event at 2^16.
  s.schedule_at(61000, [&] { seen.push_back(s.now()); });
  s.run_until(1ll << 24);
  EXPECT_EQ(seen,
            (std::vector<time_ps>{255, 256, 61000, 65536, 1ll << 24}));
  s.run();
  EXPECT_EQ(seen.back(), 1ll << 48);
}

TEST(sim_wheel, run_instant_batches_one_instant_including_chained) {
  simulator s;
  std::vector<int> order;
  for (int i = 0; i < 3; ++i) {
    s.schedule_at(10, [&order, i] { order.push_back(i); });
  }
  s.schedule_at(10, [&] {
    s.schedule_in(0, [&] { order.push_back(9); });  // same-instant chain
  });
  s.schedule_at(20, [&] { order.push_back(100); });
  EXPECT_EQ(s.run_instant(), 5u);  // 4 scheduled + 1 chained, one batch
  EXPECT_EQ(order, (std::vector<int>{0, 1, 2, 9}));
  EXPECT_EQ(s.now(), 10);
  EXPECT_EQ(s.run_instant(), 1u);
  EXPECT_EQ(order.back(), 100);
  EXPECT_EQ(s.run_instant(), 0u);
  EXPECT_TRUE(s.empty());
}

TEST(sim_wheel, run_instant_skips_fully_cancelled_instants) {
  simulator s;
  auto h = s.schedule_at(10, [] {});
  bool ran = false;
  s.schedule_at(20, [&] { ran = true; });
  s.cancel(h);
  EXPECT_EQ(s.run_instant(), 1u);  // consumed the cancelled 10, ran the 20
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), 20);
}

TEST(sim_wheel, schedule_in_saturates_instead_of_overflowing) {
  // Regression: now + dt used to overflow (UB) for far-future relative
  // timers, e.g. an idle retransmit clock at WAN scale. The sum now
  // saturates to the end of time: schedulable, ordered after everything
  // finite, still cancellable.
  simulator s;
  s.schedule_at(1000, [] {});
  s.run();
  ASSERT_EQ(s.now(), 1000);
  std::vector<int> order;
  auto far = s.schedule_in(std::numeric_limits<time_ps>::max(),
                           [&] { order.push_back(2); });
  s.schedule_at(kTimeInfinity, [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2}));  // saturated sorts last
  EXPECT_EQ(s.now(), std::numeric_limits<time_ps>::max());

  // And cancellation of a saturated timer keeps accounting exact.
  order.clear();
  far = s.schedule_in(std::numeric_limits<time_ps>::max() - 1,
                      [&] { order.push_back(3); });
  EXPECT_EQ(s.pending(), 1u);
  s.cancel(far);
  EXPECT_EQ(s.pending(), 0u);
  s.run();
  EXPECT_TRUE(order.empty());
}

TEST(sim_wheel, heap_reference_saturates_identically) {
  heap_simulator s;
  s.schedule_at(5, [] {});
  s.run();
  bool ran = false;
  s.schedule_in(std::numeric_limits<time_ps>::max(), [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  EXPECT_EQ(s.now(), std::numeric_limits<time_ps>::max());
}

TEST(sim_wheel, reserved_number_keeps_its_place_in_the_order) {
  // A number reserved before two same-instant events are scheduled runs
  // ahead of them when posted after them; one reserved after runs behind.
  simulator s;
  std::vector<int> order;
  const auto first = s.reserve_seq();
  s.schedule_at(10, [&] { order.push_back(2); });
  const auto middle = s.reserve_seq();
  s.schedule_at(10, [&] { order.push_back(4); });
  s.schedule_reserved(10, simulator::phase::normal, middle,
                      [&] { order.push_back(3); });
  s.schedule_reserved(10, simulator::phase::normal, first,
                      [&] { order.push_back(1); });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4}));
}

TEST(sim_wheel, late_reservation_posted_at_the_dispatching_instant) {
  // An event at t reserves a late slot at t (an idle port's decision); a
  // later normal event at t posts it, and it runs after every normal event
  // at t but ahead of a late event scheduled after the reservation.
  simulator s;
  std::vector<int> order;
  std::uint64_t seq = 0;
  s.schedule_at(10, [&] {
    order.push_back(1);
    seq = s.reserve_seq();
    s.schedule_late(10, [&] { order.push_back(5); });
  });
  s.schedule_at(10, [&] {
    order.push_back(2);
    EXPECT_TRUE(s.slot_pending(10, simulator::phase::late, seq));
    s.schedule_reserved(10, simulator::phase::late, seq,
                        [&] { order.push_back(4); });
    s.schedule_at(10, [&] { order.push_back(3); });
  });
  s.run();
  EXPECT_EQ(order, (std::vector<int>{1, 2, 3, 4, 5}));
}

TEST(sim_wheel, passed_reserved_slot_refuses_the_post) {
  simulator s;
  std::uint64_t seq = 0;
  s.schedule_at(10, [&] {
    seq = s.reserve_seq();  // for (10, late): nothing posts it
    s.schedule_late(10, [] {});
  });
  s.schedule_at(20, [] {});
  s.run_until(10);
  // The instant drained: its reserved slots have come up.
  EXPECT_FALSE(s.slot_pending(10, simulator::phase::late, seq));
  EXPECT_THROW(s.schedule_reserved(10, simulator::phase::late, seq, [] {}),
               std::logic_error);
  // A number reserved after the drain is still ahead at the same instant.
  const auto fresh = s.reserve_seq();
  EXPECT_TRUE(s.slot_pending(10, simulator::phase::normal, fresh));
  bool ran = false;
  s.schedule_reserved(10, simulator::phase::normal, fresh,
                      [&] { ran = true; });
  s.run();
  EXPECT_TRUE(ran);
  // Within an instant: a late slot behind the dispatch position is gone,
  // one ahead of it is not.
  s.schedule_at(30, [&] {
    const auto mine = s.reserve_seq();
    s.schedule_late(30, [&s, mine] {
      EXPECT_FALSE(s.slot_pending(30, simulator::phase::late, mine));
      EXPECT_TRUE(
          s.slot_pending(30, simulator::phase::late, s.reserve_seq()));
    });
  });
  s.run();
}

TEST(sim_wheel, dense_timer_churn_stays_exact) {
  // Adversarial-jamming-style dense timers: thousands of events packed
  // into adjacent instants with heavy cancel/reschedule churn; the wheel's
  // accounting and ordering must stay exact. (Mirrors the workload shape
  // of Böhm et al.'s jamming sweeps, cheap under bucketed time.)
  simulator s;
  std::mt19937_64 rng(99);
  std::vector<simulator::handle> handles;
  std::uint64_t fired = 0;
  time_ps last = 0;
  for (int round = 0; round < 2000; ++round) {
    for (int j = 0; j < 4; ++j) {
      handles.push_back(s.schedule_in(static_cast<time_ps>(rng() % 16), [&] {
        EXPECT_GE(s.now(), last);
        last = s.now();
        ++fired;
      }));
    }
    if (rng() % 2 == 0) {
      s.cancel(handles[rng() % handles.size()]);
    }
    s.run_next();
  }
  s.run();
  EXPECT_EQ(s.pending(), 0u);
  EXPECT_EQ(fired, s.events_processed());
}

}  // namespace
}  // namespace ups::sim
