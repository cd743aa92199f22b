// Macro replay throughput: the second perf trajectory next to
// bench_micro_queues' per-hop numbers. Drives a full Table-1-style
// experiment end to end — record original schedules across scenarios/seeds,
// replay each with a 4-mode candidate-UPS sweep — twice: once on the
// dispatch fabric's serial backend (the reference) and once sharded
// (--dispatch, default thread:N), and emits BENCH_macro_replay.json with
// end-to-end packets/sec, the sharded speedup, per-mode overdue fractions,
// and a peak-residency proxy comparing streaming vs up-front injection on
// the largest scenario.
//
// A dispatch lane runs the same memory plan on the multi-process backend
// at worker counts {1, 2, 4} — each point gated byte-identical to the
// serial reference — and records the process-count speedup curve. With
// --kill-worker-after=K an extra process:2 pass injects a deterministic
// worker SIGKILL mid-range and gates that the recovered (reassigned or
// respawned) run still merges byte-identical, with the failure classified
// in the report.
//
// A disk-replay lane measures the v3 binary trace format against v1 text:
// the largest scenario's trace is written in both formats, drained through
// both readers (ingestion packets/sec and MB/s — the number that bounds
// how large a workload the replay framework can evaluate), and replayed
// end-to-end from both files across every mode, v3 serial and sharded
// (every sharded worker mmaps the same v3 file read-only; the OS shares
// one physical copy). The v3 cursor additionally runs an allocation probe (a
// warmed block decode must run allocation-free — counted with a global
// operator-new hook, gated at zero) and a block-seek walk (every block
// visited out of order through the leading index with MADV_RANDOM advice;
// the fold must equal the sequential drain's).
//
// A WAN-bytes lane records an Internet2 trace with per-hop data and writes
// it in both formats: bytes/packet per format is the compression
// trajectory, and v3 must come in at or under --max-v3-bytes-ratio
// (default 0.75) of the fixed-width record size (fixed_width_bytes below)
// — the headline claim of the block format.
//
// A RocketFuel lane sweeps the mixed workload (incast epochs over a
// closed-loop background) across fan-in degree {8,16,32} x outstanding
// window {4,16,64} on the RocketFuel WAN topology — original record +
// LSTF replay throughput, overdue fractions, and residency per cell. With
// --rf-packets=N it additionally builds an N-packet v3 trace by tiling a
// recorded mixed base along the time axis (disjoint packet/flow ids per
// tile, O(1 block) writer memory) and measures bytes, warm and cold-cache
// ingest, and end-to-end LSTF replay at a scale that only fits because of
// the disk format (N=1e8 is the headline run).
//
// A workload lane sweeps the traffic-source kinds {open-loop, paced,
// closed-loop, incast} over the WAN scenario at 70% utilization, recording
// per-workload original-run and replay packets/sec plus the original run's
// in-flight residency (pool high-water mark), at the base budget and — for
// the gated kinds — at twice the budget. The steady-state story, measured:
// open-loop residency grows with the trace (heavy-tailed bursts pile into
// the 1 Gbps access tier and the WAN wire); paced emission stays strictly
// below that baseline but cannot beat the bandwidth×delay floor, because a
// WAN path's propagation delay rivals an elephant's serialization span, so
// a fully-paced flow is still almost entirely on the wire at once; the
// bounded-outstanding closed-loop source is what actually plateaus — its
// peak residency is flat in trace length (measured ~1.2k packets whether
// the trace is 30k or 120k) and sits far below the open-loop baseline.
//
// A loss-sweep lane re-records the WAN reference scenario under each
// per-link fault process (iid Bernoulli at two rates, bursty
// Gilbert-Elliott, adversarial jamming) and replays every lane with the
// 4-mode candidate sweep — the per-heuristic degradation curves under
// loss. The drop schedule is part of the recorded trace
// (replay-under-loss), so the lanes are byte-identity-gated across the
// serial, thread, and process backends, and the zero-loss lane must match
// the plain sweep's first scenario exactly (faults-off == faults-absent).
//
// A backpressure lane re-records the datacenter reference scenario under
// per-link flow control (two credit budgets and a PFC-style pause/resume
// threshold pair) and replays every lane with the 4-mode sweep — the
// per-heuristic HoL-degradation curves under backpressure. The fat tree
// is where this is physically honest: up-down routing has no cyclic
// channel dependencies, so credit flow control backpressures without
// wormhole deadlock (a bench-scale trace on the cyclic WAN genuinely
// wedges a credit cycle — the deadlock watchdog's own test owns that
// gadget). The stall schedule is part of the recorded trace and replay
// re-enacts it, so the lanes are byte-identity-gated across serial,
// thread, and process backends; the flow-off lane must match the plain
// sweep's fat-tree scenario exactly (flow-off == flow-absent); every
// governed lane must actually stall; and flow control is lossless by
// construction, so injected == delivered with zero drops on every
// lane x mode.
//
// Gates (process exits non-zero on violation):
//   identity      sharded results must be byte-identical to the serial run
//                 (counters, thresholds, and per-packet outcomes for every
//                 scenario × mode cell) — always on
//   process       every process-backend run — worker counts {1,2,4}, plus
//                 the --kill-worker-after fault pass and the disk-lane
//                 process:2 replay — must be byte-identical to serial, and
//                 the fault pass must actually record a classified worker
//                 failure — always on (unix); the process-count *speedup*
//                 bar (--min-process-speedup, default 1.2) is enforced only
//                 on machines with >= 2 hardware threads
//   steady-state  on the WAN 70% scenario: closed-loop peak residency at 2x
//                 budget must stay within --max-workload-plateau (default
//                 1.1x) of its 1x-budget peak (the plateau) AND below
//                 --max-workload-residency (default 0.5) × the open-loop
//                 baseline at 2x; paced peak residency must stay strictly
//                 below the open-loop baseline (0.97x directional bar)
//   speedup       sharded packets/sec >= --min-speedup × serial packets/sec;
//                 enforced only when the machine actually has >= 2 hardware
//                 threads and --threads >= 2 (a 1-core box cannot exhibit a
//                 wall-clock speedup; the gate reports SKIPPED instead of
//                 producing a meaningless failure)
//   loss sweep    every loss-sweep lane byte-identical across serial,
//                 thread, and process backends; the zero-loss lane
//                 byte-identical to the plain sweep; every lossy lane
//                 records > 0 drops; delivered + dropped == injected for
//                 every lane x mode — always on
//   backpressure  every backpressure lane byte-identical across serial,
//                 thread, and process backends; the flow-off lane
//                 byte-identical to the plain sweep's fat-tree scenario;
//                 every governed lane records > 0 stalls; and every
//                 lane x mode is lossless — delivered == injected with
//                 zero drops — always on
//   residency     streaming peak packet-pool residency on the largest
//                 scenario <= --max-residency × the up-front peak — the
//                 O(in-flight) vs O(trace) claim, measured, not assumed
//   disk identity replaying the v3 binary, serial and sharded, must produce
//                 byte-identical results to the v1 text path for every
//                 replay mode — always on
//   disk speedup  v3 (mmap) replay ingestion >= --min-disk-speedup × the
//                 text reader's packets/sec (default 3x) — always on:
//                 ingestion is single-threaded I/O work, measurable even on
//                 a 1-core box
//   v3 warm       with --min-warm-baseline-ratio=X, warm-cache v3 decode
//                 packets/sec must stay >= X × the committed baseline's
//                 v3_warm_packets_per_sec anchor (SKIPs when the baseline
//                 lacks the anchor). Keeps the SWAR columnar decoder from
//                 silently regressing.
//   v3 cold       the tiled lane's cold-cache (evicted) v3 drain must fold
//                 to the warm drain's checksum — always on when eviction is
//                 available. Its packets/sec is reported, not gated.
//   v3 bytes      WAN-trace v3 bytes/packet <= --max-v3-bytes-ratio × the
//                 fixed-width record size (default 0.75)
//   v3 allocs     a warmed v3 cursor decodes the whole file with zero
//                 heap allocations — always on
//   v3 seek       the out-of-order block-seek walk folds to the same
//                 checksum as the sequential drain — always on
//
//   baseline      with --baseline=FILE (a committed heap-kernel-era
//                 BENCH_macro_replay.json from bench/baselines/), serial
//                 packets/sec must stay >= --min-baseline-ratio x the
//                 recorded serial packets/sec — the in-repo perf-smoke
//                 trajectory for the timing-wheel event kernel. The ratio
//                 is deliberately loose (machines differ); it exists to
//                 catch a kernel swap that tanks end-to-end throughput,
//                 while the within-binary micro gates own the tight bars.
//
// Usage: bench_macro_replay [--packets=N] [--seed=N] [--scale=F] [--quick]
//                           [--threads=N] [--out=FILE] [--min-speedup=X]
//                           [--dispatch=serial|thread[:N]|process[:N]]
//                           [--kill-worker-after=K] [--min-process-speedup=X]
//                           [--max-residency=F] [--min-disk-speedup=X]
//                           [--max-workload-residency=F]
//                           [--max-workload-plateau=F]
//                           [--baseline=FILE] [--min-baseline-ratio=X]
//                           [--max-v3-bytes-ratio=X] [--rf-packets=N]
//                           [--min-warm-baseline-ratio=X]

#include <algorithm>
#include <atomic>
#include <chrono>

#if defined(__unix__)
#include <fcntl.h>
#include <unistd.h>
#endif
#include <cstdarg>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <fstream>
#include <iterator>
#include <new>
#include <string>
#include <thread>
#include <vector>

#include "exp/args.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "net/fault.h"
#include "net/flow_control.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "page_cache.h"

// Global operator-new hook for the v3 zero-allocation gate: counts every
// scalar/array heap allocation in the process. The count is only *read*
// around the probe's steady-state window, so the hook stays trivial (one
// relaxed fetch_add) and the rest of the bench is unaffected.
namespace {
std::atomic<std::uint64_t> g_heap_allocs{0};
}  // namespace

// noinline: when these bodies inline into callers GCC pairs the visible
// std::free with the library's operator new declaration and emits a
// spurious -Wmismatched-new-delete; out-of-line they pair as replaced
// global operators, which is what they are.
__attribute__((noinline)) void* operator new(std::size_t n) {
  g_heap_allocs.fetch_add(1, std::memory_order_relaxed);
  if (void* p = std::malloc(n ? n : 1)) return p;
  throw std::bad_alloc();
}
void* operator new[](std::size_t n) { return ::operator new(n); }
__attribute__((noinline)) void operator delete(void* p) noexcept {
  std::free(p);
}
void operator delete[](void* p) noexcept { ::operator delete(p); }
void operator delete(void* p, std::size_t) noexcept { ::operator delete(p); }
void operator delete[](void* p, std::size_t) noexcept {
  ::operator delete(p);
}

namespace {

using namespace ups;

// Gate verdicts (FAIL / SKIPPED) go to stderr. Flushing stdout first keeps
// them from landing mid-row in the stdout tables when both streams share a
// terminal or log.
[[gnu::format(printf, 1, 2)]] void gate_print(const char* fmt, ...) {
  std::fflush(stdout);
  std::va_list args;
  va_start(args, fmt);
  std::vfprintf(stderr, fmt, args);
  va_end(args);
}

// Result identity compares everything deterministic: aggregate counters AND
// the per-packet outcome vectors (all passes run with keep_outcomes on), so
// a divergence that happens to preserve the overdue counts still fails the
// gate. Timings are the only fields excluded.
bool same_result(const core::replay_result& x, const core::replay_result& y) {
  if (x.total != y.total || x.overdue != y.overdue ||
      x.overdue_beyond_T != y.overdue_beyond_T || x.dropped != y.dropped ||
      x.threshold_T != y.threshold_T) {
    return false;
  }
  if (x.outcomes.size() != y.outcomes.size()) return false;
  for (std::size_t k = 0; k < x.outcomes.size(); ++k) {
    const auto& ox = x.outcomes[k];
    const auto& oy = y.outcomes[k];
    if (ox.id != oy.id || ox.original_out != oy.original_out ||
        ox.replay_out != oy.replay_out ||
        ox.original_queueing != oy.original_queueing ||
        ox.replay_queueing != oy.replay_queueing) {
      return false;
    }
  }
  return true;
}

bool identical(const std::vector<exp::shard_result>& a,
               const std::vector<exp::shard_result>& b) {
  if (a.size() != b.size()) return false;
  for (std::size_t i = 0; i < a.size(); ++i) {
    if (a[i].trace_packets != b[i].trace_packets) return false;
    if (a[i].threshold_T != b[i].threshold_T) return false;
    if (a[i].replays.size() != b[i].replays.size()) return false;
    for (std::size_t m = 0; m < a[i].replays.size(); ++m) {
      if (!same_result(a[i].replays[m].result, b[i].replays[m].result)) {
        return false;
      }
    }
  }
  return true;
}

// Drains every record from a cursor — the pure ingestion cost of a trace
// format, with zero simulation work attached. The per-record fold (sum of
// a few fields) keeps the decode from being optimized away.
struct ingest_stats {
  std::uint64_t records = 0;
  std::uint64_t checksum = 0;
  double wall_seconds = 0;
};

ingest_stats drain(net::trace_cursor& cur) {
  ingest_stats s;
  std::vector<const net::packet_record*> run;
  const auto t0 = std::chrono::steady_clock::now();
  for (;;) {
    run.clear();
    if (cur.next_run(run) == 0) break;
    for (const net::packet_record* r : run) {
      ++s.records;
      s.checksum += r->id + static_cast<std::uint64_t>(r->ingress_time) +
                    r->path.size() + r->hop_departs.size();
    }
  }
  s.wall_seconds = exp::wall_seconds_since(t0);
  return s;
}

[[nodiscard]] std::uint64_t file_bytes(const std::string& path) {
  std::ifstream is(path, std::ios::binary | std::ios::ate);
  return is ? static_cast<std::uint64_t>(is.tellg()) : 0;
}

// What a trace costs as fixed-width binary records — the yardstick the v3
// bytes gate measures compression against: a 32-byte file header, then
// per record a 4-byte length prefix, 72 bytes of fixed fields, 4 bytes per
// hop, 8 per hop departure, an 8-byte ingress-index slot, and 16/20 bytes
// when the record carries a drop/stall.
[[nodiscard]] std::uint64_t fixed_width_bytes(const net::trace& t) {
  std::uint64_t bytes = 32;
  for (const auto& r : t.packets) {
    bytes += 84 + 4 * r.path.size() + 8 * r.hop_departs.size() +
             (r.dropped() ? 16 : 0) + (r.stalled() ? 20 : 0);
  }
  return bytes;
}

using ups::bench::drop_page_cache;

// Pulls a numeric field out of a committed BENCH_macro_replay.json: the
// number after `"<key>": ` at/after the first occurrence of `anchor`
// (pass "" to search from the start). Returns 0 when absent/unparseable.
[[nodiscard]] double baseline_field(const std::string& path,
                                    const char* anchor, const char* key) {
  std::ifstream is(path);
  if (!is) return 0.0;
  std::string text((std::istreambuf_iterator<char>(is)),
                   std::istreambuf_iterator<char>());
  std::size_t from = 0;
  if (anchor[0] != '\0') {
    from = text.find(anchor);
    if (from == std::string::npos) return 0.0;
  }
  const std::string k = std::string("\"") + key + "\": ";
  const auto pp = text.find(k, from);
  if (pp == std::string::npos) return 0.0;
  return std::strtod(text.c_str() + pp + k.size(), nullptr);
}

// The committed baseline's serial packets/sec: inside the "serial" object.
[[nodiscard]] double baseline_serial_pps(const std::string& path) {
  return baseline_field(path, "\"serial\"", "packets_per_sec");
}

// Streams `target` records into `writer` by tiling `base` (ingress-sorted)
// along the time axis: tile k shifts every timestamp by k periods (one
// period > the base's last ingress, so ingress order holds across the
// seam) and offsets packet/flow ids so every tile's id ranges are
// disjoint. One record is resident at a time; its vectors' capacities
// persist across iterations, so the loop itself is allocation-free after
// the first tile.
std::uint64_t write_tiled(net::trace_v3_writer& writer,
                          const net::trace& base, std::uint64_t target) {
  const auto& b = base.packets;
  const sim::time_ps last = b.back().ingress_time;
  const sim::time_ps gap =
      (last - b.front().ingress_time) /
          static_cast<sim::time_ps>(b.size()) +
      1;
  const sim::time_ps period = last + gap;
  std::uint64_t max_id = 0;
  std::uint64_t max_flow = 0;
  for (const auto& r : b) {
    max_id = std::max(max_id, r.id);
    max_flow = std::max(max_flow, r.flow_id);
  }
  std::uint64_t written = 0;
  net::packet_record rec;
  for (std::uint64_t k = 0; written < target; ++k) {
    const sim::time_ps shift = static_cast<sim::time_ps>(k) * period;
    for (const auto& r : b) {
      if (written == target) break;
      rec = r;
      rec.id += k * max_id;
      rec.flow_id += k * max_flow;
      rec.ingress_time += shift;
      rec.egress_time += shift;
      for (auto& d : rec.hop_departs) d += shift;
      writer.append(rec);
      ++written;
    }
  }
  writer.finish();
  return written;
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = exp::args::parse(argc, argv);
  std::size_t threads = 4;
  std::string out_path = "BENCH_macro_replay.json";
  double min_speedup = 2.0;
  double min_process_speedup = 1.2;
  double max_residency = 0.5;
  double min_disk_speedup = 3.0;
  double max_workload_residency = 0.5;
  double max_workload_plateau = 1.1;
  std::string baseline_path;
  double min_baseline_ratio = 0.25;
  double max_v3_bytes_ratio = 0.75;
  double min_warm_baseline_ratio = 0.0;  // 0: report only, no gate
  std::uint64_t rf_packets = 0;
  for (int i = 1; i < argc; ++i) {
    if (std::strncmp(argv[i], "--threads=", 10) == 0) {
      threads = std::strtoull(argv[i] + 10, nullptr, 10);
    } else if (std::strncmp(argv[i], "--out=", 6) == 0) {
      out_path = argv[i] + 6;
    } else if (std::strncmp(argv[i], "--min-speedup=", 14) == 0) {
      min_speedup = std::strtod(argv[i] + 14, nullptr);
    } else if (std::strncmp(argv[i], "--min-process-speedup=", 22) == 0) {
      min_process_speedup = std::strtod(argv[i] + 22, nullptr);
    } else if (std::strncmp(argv[i], "--max-residency=", 16) == 0) {
      max_residency = std::strtod(argv[i] + 16, nullptr);
    } else if (std::strncmp(argv[i], "--min-disk-speedup=", 19) == 0) {
      min_disk_speedup = std::strtod(argv[i] + 19, nullptr);
    } else if (std::strncmp(argv[i], "--max-workload-residency=", 25) == 0) {
      max_workload_residency = std::strtod(argv[i] + 25, nullptr);
    } else if (std::strncmp(argv[i], "--max-workload-plateau=", 23) == 0) {
      max_workload_plateau = std::strtod(argv[i] + 23, nullptr);
    } else if (std::strncmp(argv[i], "--baseline=", 11) == 0) {
      baseline_path = argv[i] + 11;
    } else if (std::strncmp(argv[i], "--min-baseline-ratio=", 21) == 0) {
      min_baseline_ratio = std::strtod(argv[i] + 21, nullptr);
    } else if (std::strncmp(argv[i], "--max-v3-bytes-ratio=", 21) == 0) {
      max_v3_bytes_ratio = std::strtod(argv[i] + 21, nullptr);
    } else if (std::strncmp(argv[i], "--min-warm-baseline-ratio=", 26) == 0) {
      min_warm_baseline_ratio = std::strtod(argv[i] + 26, nullptr);
    } else if (std::strncmp(argv[i], "--rf-packets=", 13) == 0) {
      rf_packets = std::strtoull(argv[i] + 13, nullptr, 10);
    }
  }
  if (threads == 0) threads = 4;
  const std::uint64_t budget = a.budget(60'000);
  const unsigned hw = std::thread::hardware_concurrency();

  // The 4-mode candidate sweep of every shard: the paper's main replayer,
  // its preemptive variant, and the two simpler headers of §2.3.
  const std::vector<core::replay_mode> modes = {
      core::replay_mode::lstf,
      core::replay_mode::lstf_preemptive,
      core::replay_mode::edf,
      core::replay_mode::priority_output_time,
  };

  // Table-1-flavored shard set spanning every fan-out axis: topology,
  // utilization, original scheduler, seed — and, since the traffic stack
  // became composable, the source kind (the identity gate then covers the
  // paced/closed-loop/incast generators too).
  struct task_spec {
    exp::topo_kind topo;
    double util;
    core::sched_kind sched;
    std::uint64_t seed_offset;
    const char* workload;  // parse_workload name; nullptr = open-loop
  };
  const task_spec specs[] = {
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::random, 0, nullptr},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::random, 1, nullptr},
      {exp::topo_kind::i2_default, 0.5, core::sched_kind::random, 0, nullptr},
      {exp::topo_kind::i2_default, 0.9, core::sched_kind::fifo, 0, nullptr},
      {exp::topo_kind::i2_1g_1g, 0.7, core::sched_kind::random, 0, nullptr},
      {exp::topo_kind::fattree, 0.7, core::sched_kind::random, 0, nullptr},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::random, 0, "paced"},
      {exp::topo_kind::i2_default, 0.7, core::sched_kind::random, 0,
       "closed-loop"},
      {exp::topo_kind::fattree, 0.7, core::sched_kind::random, 0, "incast"},
  };
  std::vector<exp::shard_task> tasks;
  for (const auto& s : specs) {
    exp::shard_task t;
    t.sc.topo = s.topo;
    t.sc.utilization = s.util;
    t.sc.sched = s.sched;
    t.sc.seed = a.seed + s.seed_offset;
    t.sc.packet_budget = budget;
    if (s.workload != nullptr) {
      t.sc.workload_kind =
          traffic::parse_workload(s.workload, t.sc.workload_spec);
    }
    t.modes = modes;
    tasks.push_back(std::move(t));
  }

  std::printf("macro replay: %zu scenarios x %zu modes, %llu packets each, "
              "%zu threads (hw=%u)\n",
              tasks.size(), modes.size(),
              static_cast<unsigned long long>(budget), threads, hw);

  // keep_outcomes so the identity gate can compare per-packet results, not
  // just counters (outcome memory is ~40B per replayed packet, well within
  // bench budgets). Both passes go through the unified dispatch API: serial
  // is the reference backend, the sharded pass takes --dispatch (default
  // thread:threads).
  exp::shard_options mem_opt;
  mem_opt.keep_outcomes = true;
  const auto mem_plan = exp::dispatch::job_plan::from_tasks(tasks, mem_opt);
  const auto run_plan = [&](const exp::dispatch::backend_spec& spec) {
    auto rep = exp::dispatch::run(mem_plan, spec);
    rep.throw_if_failed();
    return rep;
  };
  exp::dispatch::backend_spec serial_spec;
  serial_spec.kind = exp::dispatch::backend_kind::serial;
  const auto t_serial = std::chrono::steady_clock::now();
  const auto serial_rep = run_plan(serial_spec);
  const double serial_wall = exp::wall_seconds_since(t_serial);
  const auto& serial = serial_rep.results;

  exp::dispatch::backend_spec sharded_spec;
  sharded_spec.kind = exp::dispatch::backend_kind::thread;
  sharded_spec.workers = threads;
  if (!a.dispatch.empty()) {
    sharded_spec = exp::dispatch::backend_spec::parse(a.dispatch);
  }
  const auto t_sharded = std::chrono::steady_clock::now();
  const auto sharded_rep = run_plan(sharded_spec);
  const double sharded_wall = exp::wall_seconds_since(t_sharded);
  const auto& sharded = sharded_rep.results;

  // Work unit for the throughput trajectory: one replayed packet (each
  // recorded packet is replayed once per mode).
  std::uint64_t replayed = 0;
  for (const auto& r : serial) {
    replayed += r.trace_packets * r.replays.size();
  }
  const double serial_pps = static_cast<double>(replayed) / serial_wall;
  const double sharded_pps = static_cast<double>(replayed) / sharded_wall;
  const double speedup = sharded_pps / serial_pps;

  // --- dispatch lane: the multi-process fabric on the same memory plan ------
  // Worker counts {1, 2, 4}, every point gated byte-identical to the serial
  // reference above; the walls give the process-count speedup curve. The
  // fork cost and result-codec round-trip are part of what is measured.
#if defined(__unix__) || defined(__APPLE__)
  const bool process_available = true;
#else
  const bool process_available = false;
#endif
  struct process_point {
    std::size_t workers = 0;
    double wall_seconds = 0;
    double speedup_vs_serial = 0;
    bool identical = true;
  };
  std::vector<process_point> process_curve;
  bool process_same = true;
  if (process_available) {
    for (const std::size_t nproc : {1u, 2u, 4u}) {
      exp::dispatch::backend_spec pspec;
      pspec.kind = exp::dispatch::backend_kind::process;
      pspec.workers = nproc;
      const auto t0 = std::chrono::steady_clock::now();
      const auto prep = run_plan(pspec);
      process_point pt;
      pt.workers = nproc;
      pt.wall_seconds = exp::wall_seconds_since(t0);
      pt.speedup_vs_serial = serial_wall / pt.wall_seconds;
      pt.identical = identical(serial, prep.results);
      process_same = process_same && pt.identical;
      process_curve.push_back(pt);
    }
  }
  // Fault-injection pass (--kill-worker-after=K): process:2 with the first
  // worker SIGKILLed after computing its K-th job but before reporting it.
  // The merged output must still be byte-identical, and the report must
  // show the classified failure — otherwise the injection never fired and
  // the recovery path went untested.
  bool fault_same = true;
  bool fault_fired = true;
  std::size_t fault_failures = 0;
  bool fault_respawned = false;
  if (process_available && a.kill_worker_after > 0) {
    exp::dispatch::backend_spec fspec;
    fspec.kind = exp::dispatch::backend_kind::process;
    fspec.workers = 2;
    fspec.kill_worker_after = a.kill_worker_after;
    const auto frep = run_plan(fspec);
    fault_same = identical(serial, frep.results);
    fault_fired = !frep.worker_failures.empty();
    fault_failures = frep.worker_failures.size();
    for (const auto& wf : frep.worker_failures) {
      fault_respawned = fault_respawned || wf.respawned;
    }
  }

  // --- loss-sweep lane: fault model x loss rate x replay heuristic ----------
  // The WAN reference scenario re-recorded under each per-link fault
  // process, replayed with every candidate mode. The drop schedule is part
  // of the recorded trace (replay-under-loss: replay re-enacts the original
  // run's drops rather than sampling a live fault process), so every
  // backend must reproduce the exact same counters and outcome vectors.
  // Lane 0 runs with the fault axis disabled and must be byte-identical to
  // the plain sweep's first scenario — the faults-off == faults-absent
  // gate.
  const char* const loss_axis[] = {
      "",                     // zero-loss reference
      "bernoulli:0.001",      // iid 0.1%
      "bernoulli:0.01",       // iid 1%
      "ge:0.0005,0.02,0.05",  // bursty ~1% avg, expected burst 20 decisions
      "jam:100,0.2",          // adversary jams 20% of every 100 us cycle
  };
  std::vector<exp::shard_task> loss_tasks;
  for (const char* f : loss_axis) {
    exp::shard_task t;
    t.sc.topo = exp::topo_kind::i2_default;
    t.sc.utilization = 0.7;
    t.sc.sched = core::sched_kind::random;
    t.sc.seed = a.seed;
    t.sc.packet_budget = budget;
    if (*f != '\0') t.sc.fault = net::fault_spec::parse(f);
    t.modes = modes;
    loss_tasks.push_back(std::move(t));
  }
  const auto loss_plan =
      exp::dispatch::job_plan::from_tasks(loss_tasks, mem_opt);
  const auto run_loss = [&](const exp::dispatch::backend_spec& spec) {
    auto rep = exp::dispatch::run(loss_plan, spec);
    rep.throw_if_failed();
    return std::move(rep.results);
  };
  const auto loss_serial = run_loss(serial_spec);
  bool loss_backends_same = identical(loss_serial, run_loss(sharded_spec));
  if (process_available) {
    for (const std::size_t nproc : {2u, 4u}) {
      exp::dispatch::backend_spec pspec;
      pspec.kind = exp::dispatch::backend_kind::process;
      pspec.workers = nproc;
      loss_backends_same =
          loss_backends_same && identical(loss_serial, run_loss(pspec));
    }
  }
  bool loss_zero_same =
      loss_serial[0].trace_packets == serial[0].trace_packets &&
      loss_serial[0].threshold_T == serial[0].threshold_T &&
      loss_serial[0].replays.size() == serial[0].replays.size();
  for (std::size_t m = 0; loss_zero_same && m < serial[0].replays.size();
       ++m) {
    loss_zero_same = same_result(loss_serial[0].replays[m].result,
                                 serial[0].replays[m].result);
  }
  // Every lossy lane must actually lose packets (a fault process that
  // never fires tests nothing), and replay must conserve them: delivered +
  // dropped == injected, for every lane and mode.
  bool loss_fired = true;
  bool loss_conserved = true;
  for (std::size_t i = 0; i < loss_serial.size(); ++i) {
    std::uint64_t lane_dropped = 0;
    for (const auto& rep : loss_serial[i].replays) {
      lane_dropped = rep.result.dropped;
      loss_conserved = loss_conserved &&
                       rep.result.total + rep.result.dropped ==
                           loss_serial[i].trace_packets;
    }
    if (i > 0 && lane_dropped == 0) loss_fired = false;
  }

  // --- backpressure lane: flow control x budget x replay heuristic ----------
  // The datacenter reference scenario re-recorded under per-link flow
  // control, replayed with every candidate mode. The stall schedule is
  // part of the recorded trace (replay re-enacts the original run's
  // stalls), and flow control itself draws no randomness, so every
  // backend must reproduce identical counters and outcome vectors.
  // Backpressure defers packets instead of dropping them: injected ==
  // delivered with zero drops is a hard invariant of every lane.
  const char* const flow_axis[] = {
      "",                   // ungoverned reference
      "credit:30000",       // 20-packet per-link credit budget
      "credit:15000",       // 10-packet budget — deeper backpressure
      "pause:30000,15000",  // PFC-style pause/resume thresholds
  };
  // The plain sweep's fat-tree open-loop scenario (specs[] index 5): the
  // flow-off lane must be byte-identical to it — flow-off == flow-absent.
  constexpr std::size_t kFlowReference = 5;
  std::vector<exp::shard_task> flow_tasks;
  for (const char* f : flow_axis) {
    exp::shard_task t;
    t.sc.topo = exp::topo_kind::fattree;
    t.sc.utilization = 0.7;
    t.sc.sched = core::sched_kind::random;
    t.sc.seed = a.seed;
    t.sc.packet_budget = budget;
    if (*f != '\0') t.sc.flow = net::flow_spec::parse(f);
    t.modes = modes;
    flow_tasks.push_back(std::move(t));
  }
  const auto flow_plan =
      exp::dispatch::job_plan::from_tasks(flow_tasks, mem_opt);
  const auto run_flow = [&](const exp::dispatch::backend_spec& spec) {
    auto rep = exp::dispatch::run(flow_plan, spec);
    rep.throw_if_failed();
    return std::move(rep.results);
  };
  const auto flow_serial = run_flow(serial_spec);
  bool flow_backends_same = identical(flow_serial, run_flow(sharded_spec));
  if (process_available) {
    for (const std::size_t nproc : {2u, 4u}) {
      exp::dispatch::backend_spec pspec;
      pspec.kind = exp::dispatch::backend_kind::process;
      pspec.workers = nproc;
      flow_backends_same =
          flow_backends_same && identical(flow_serial, run_flow(pspec));
    }
  }
  bool flow_zero_same =
      flow_serial[0].trace_packets == serial[kFlowReference].trace_packets &&
      flow_serial[0].threshold_T == serial[kFlowReference].threshold_T &&
      flow_serial[0].replays.size() ==
          serial[kFlowReference].replays.size();
  for (std::size_t m = 0;
       flow_zero_same && m < serial[kFlowReference].replays.size(); ++m) {
    flow_zero_same = same_result(flow_serial[0].replays[m].result,
                                 serial[kFlowReference].replays[m].result);
  }
  bool flow_lossless = true;
  for (const auto& lane : flow_serial) {
    for (const auto& rep : lane.replays) {
      flow_lossless = flow_lossless && rep.result.dropped == 0 &&
                      rep.result.total == lane.trace_packets;
    }
  }
  // Stall evidence, read off the recorded traces themselves: a budget so
  // loose it never parks a transmitter tests nothing. One serial original
  // per governed lane; the stalled-record counts and total stall time are
  // the lane's trajectory data.
  struct flow_lane_stalls {
    std::uint64_t stalled_records = 0;
    sim::time_ps stall_time = 0;
  };
  std::vector<flow_lane_stalls> flow_stalls(std::size(flow_axis));
  bool flow_fired = true;
  for (std::size_t i = 1; i < std::size(flow_axis); ++i) {
    const auto forig = exp::run_original(flow_tasks[i].sc);
    for (const auto& r : forig.trace.packets) {
      if (!r.stalled()) continue;
      ++flow_stalls[i].stalled_records;
      flow_stalls[i].stall_time += r.stall_time;
    }
    if (flow_stalls[i].stalled_records == 0) flow_fired = false;
  }

  // Residency proxy: replay the bench's largest trace once with up-front
  // injection and once streaming, and compare pool/event high-water marks.
  // Streaming keeps O(in-flight) packets resident, so the comparison runs
  // where in-flight is genuinely small relative to the trace: the
  // datacenter fabric (microsecond propagation — WAN topologies keep a
  // bandwidth×delay product of thousands of packets on the wire no matter
  // how they are injected) with light fixed-size flows at moderate load
  // (the heavy-tailed open-loop elephants of the sweep above park most of
  // a short trace in one egress queue by construction).
  exp::scenario big_sc;
  big_sc.topo = exp::topo_kind::fattree;
  big_sc.utilization = 0.5;
  big_sc.sched = core::sched_kind::random;
  big_sc.seed = a.seed;
  big_sc.flows = exp::flow_dist_kind::fixed;
  big_sc.packet_budget = 2 * budget;  // the largest trace in this bench
  auto orig_big = exp::run_original(big_sc);  // sorted by the disk lane below
  core::replay_options ropt;
  ropt.mode = core::replay_mode::lstf;
  ropt.threshold_T = orig_big.threshold_T;
  ropt.keep_outcomes = false;
  const auto& topology = orig_big.topology;
  const auto builder = [&topology](net::network& n) {
    topo::populate(topology, n);
  };
  ropt.injection = core::injection_mode::upfront;
  const auto res_upfront = core::replay_trace(orig_big.trace, builder, ropt);
  ropt.injection = core::injection_mode::streaming;
  const auto res_stream = core::replay_trace(orig_big.trace, builder, ropt);
  const double residency_ratio =
      static_cast<double>(res_stream.peak_pool_packets) /
      static_cast<double>(res_upfront.peak_pool_packets);

  // --- workload lane: traffic-source kinds on the WAN scenario --------------
  // Same scenario (I2 at 70%, Random, heavy-tailed), four source kinds at
  // the base budget (perf-trajectory data), plus a 2x-budget original for
  // the three gated kinds so the plateau is measured, not assumed: a source
  // that reaches steady state has a residency curve that is flat in trace
  // length, not merely lower.
  struct workload_lane {
    const char* name;
    std::uint64_t trace_packets = 0;
    double original_wall = 0;
    double replay_wall = 0;
    std::uint64_t peak_pool = 0;
    std::uint64_t peak_pool_2x = 0;  // 0: not measured for this kind
    std::uint64_t flows_completed = 0;
    double frac_overdue = 0;
    double frac_overdue_beyond_T = 0;
  };
  const auto wan_scenario = [&](const char* wname, std::uint64_t pkts) {
    exp::scenario wsc;
    wsc.topo = exp::topo_kind::i2_default;
    wsc.utilization = 0.7;
    wsc.sched = core::sched_kind::random;
    wsc.seed = a.seed;
    wsc.packet_budget = pkts;
    wsc.workload_kind = traffic::parse_workload(wname, wsc.workload_spec);
    return wsc;
  };
  std::vector<workload_lane> lanes;
  for (const char* wname : {"open-loop", "paced", "closed-loop", "incast"}) {
    workload_lane l;
    l.name = wname;
    const auto t_orig = std::chrono::steady_clock::now();
    const auto worig = exp::run_original(wan_scenario(wname, budget));
    l.original_wall = exp::wall_seconds_since(t_orig);
    l.trace_packets = worig.trace.packets.size();
    l.peak_pool = worig.peak_pool_packets;
    l.flows_completed = worig.flows_completed;
    const auto t_rep = std::chrono::steady_clock::now();
    const auto wrep =
        exp::run_replay(worig, core::replay_mode::lstf, /*keep_outcomes=*/false);
    l.replay_wall = exp::wall_seconds_since(t_rep);
    l.frac_overdue = wrep.frac_overdue();
    l.frac_overdue_beyond_T = wrep.frac_overdue_beyond_T();
    if (std::strcmp(wname, "incast") != 0) {
      l.peak_pool_2x =
          exp::run_original(wan_scenario(wname, 2 * budget)).peak_pool_packets;
    }
    lanes.push_back(l);
  }
  const std::uint64_t open_loop_peak_2x = lanes[0].peak_pool_2x;

  // --- disk-replay lane: v1 text vs v3 binary -------------------------------
  // Same workload trace written in both formats; sorted once at "record
  // time" so the text file streams (the v3 writer sorts on its own).
  net::sort_by_ingress(orig_big.trace);
  const std::string v1_path = "bench_macro_disk.v1.trace";
  const std::string v3_path = "bench_macro_disk.v3.trace";
  net::save_trace(v1_path, orig_big.trace);
  net::save_trace_v3(v3_path, orig_big.trace);
  const std::uint64_t v1_bytes = file_bytes(v1_path);
  const std::uint64_t v3_bytes = file_bytes(v3_path);

  // Ingestion: drain each reader with no simulation attached — the cost the
  // format itself imposes on replay, and the disk-speedup gate's metric
  // (parse throughput is deterministic single-threaded work; end-to-end
  // replay adds identical simulation cost to every lane and dilutes the
  // format difference).
  ingest_stats text_ingest, v3_ingest;
  {
    net::trace_stream_reader reader(v1_path);
    text_ingest = drain(reader);
    net::trace_v3_cursor v3cur(v3_path);
    v3_ingest = drain(v3cur);
  }
  if (text_ingest.checksum != v3_ingest.checksum ||
      text_ingest.records != v3_ingest.records) {
    gate_print("FAIL: text/v3 readers disagree on the same trace's "
               "contents\n");
    std::remove(v1_path.c_str());
    std::remove(v3_path.c_str());
    return 1;
  }
  const double text_ingest_pps =
      static_cast<double>(text_ingest.records) / text_ingest.wall_seconds;
  const double v3_ingest_pps =
      static_cast<double>(v3_ingest.records) / v3_ingest.wall_seconds;
  const double disk_speedup = v3_ingest_pps / text_ingest_pps;

  // Cold-cache (disk-lane) ingest is measured on the RocketFuel tiled
  // lane below: its files are large enough (tens of MB up to GBs) that an
  // evicted open+drain actually measures storage, whereas this lane's
  // sub-MB files re-warm during the cursor open's readahead.

  // Allocation probe: after one warming pass (the SoA scratch and record
  // slots reach their high-water capacities), a full re-decode of the file
  // must perform zero heap allocations — the v3 cursor's steady-state
  // contract, counted by the global operator-new hook.
  std::uint64_t v3_steady_allocs = 0;
  {
    net::trace_v3_cursor cur(v3_path);
    std::vector<const net::packet_record*> run;
    const auto drain_once = [&run](net::trace_v3_cursor& c) {
      std::uint64_t fold = 0;
      for (;;) {
        run.clear();
        if (c.next_run(run) == 0) break;
        for (const net::packet_record* r : run) fold += r->id;
      }
      return fold;
    };
    const auto warm_fold = drain_once(cur);
    cur.seek_to_block(0);
    const auto before = g_heap_allocs.load(std::memory_order_relaxed);
    const auto steady_fold = drain_once(cur);
    v3_steady_allocs =
        g_heap_allocs.load(std::memory_order_relaxed) - before;
    if (warm_fold != steady_fold) {
      gate_print("FAIL: v3 re-decode after seek diverged\n");
      return 1;
    }
  }

  // Block-seek walk: every block visited in reverse order through the
  // leading index (seek, decode to the block fence) with MADV_RANDOM
  // advice — the mid-file entry path sharded workers rely on, which must
  // fold to exactly the sequential drain's checksum.
  ingest_stats v3_seek;
  {
    net::trace_v3_cursor cur(v3_path, net::trace_access::random);
    const auto t0 = std::chrono::steady_clock::now();
    for (std::uint64_t b = cur.block_count(); b-- > 0;) {
      cur.seek_to_block(b);
      while (cur.current_block() == b) {
        const net::packet_record* r = cur.next();
        if (r == nullptr) break;
        ++v3_seek.records;
        v3_seek.checksum += r->id +
                            static_cast<std::uint64_t>(r->ingress_time) +
                            r->path.size() + r->hop_departs.size();
      }
    }
    v3_seek.wall_seconds = exp::wall_seconds_since(t0);
  }
  const bool v3_seek_same = v3_seek.checksum == v3_ingest.checksum &&
                            v3_seek.records == v3_ingest.records;

  // End-to-end disk replay across every mode: text serial, then v3 serial,
  // thread-sharded, and a process:2 pass (each worker — thread or forked
  // process — maps the same file read-only; the kernel shares one physical
  // copy). All four runs must be byte-identical.
  exp::disk_shard_task disk_task;
  disk_task.topology = orig_big.topology;
  disk_task.threshold_T = orig_big.threshold_T;
  disk_task.modes = modes;
  exp::shard_options disk_opt;
  disk_opt.keep_outcomes = true;
  const auto run_disk = [&](const std::string& path,
                            const exp::dispatch::backend_spec& spec) {
    disk_task.trace_path = path;
    auto rep = exp::dispatch::run(
        exp::dispatch::job_plan::from_disk(disk_task, disk_opt), spec);
    rep.throw_if_failed();
    return std::move(rep.disk_replays);
  };
  exp::dispatch::backend_spec disk_serial_spec;
  disk_serial_spec.kind = exp::dispatch::backend_kind::serial;
  exp::dispatch::backend_spec disk_sharded_spec;
  disk_sharded_spec.kind = exp::dispatch::backend_kind::thread;
  disk_sharded_spec.workers = threads;
  exp::dispatch::backend_spec disk_process_spec;
  disk_process_spec.kind = exp::dispatch::backend_kind::process;
  disk_process_spec.workers = 2;

  const auto t_text = std::chrono::steady_clock::now();
  const auto disk_text = run_disk(v1_path, disk_serial_spec);
  const double text_replay_wall = exp::wall_seconds_since(t_text);
  const auto t_v3 = std::chrono::steady_clock::now();
  const auto disk_v3 = run_disk(v3_path, disk_serial_spec);
  const double v3_replay_wall = exp::wall_seconds_since(t_v3);
  const auto disk_v3_sharded = run_disk(v3_path, disk_sharded_spec);
  const auto disk_v3_process =
      process_available ? run_disk(v3_path, disk_process_spec) : disk_v3;

  bool disk_same = disk_text.size() == disk_v3.size() &&
                   disk_text.size() == disk_v3_sharded.size() &&
                   disk_text.size() == disk_v3_process.size();
  for (std::size_t m = 0; disk_same && m < disk_text.size(); ++m) {
    disk_same = same_result(disk_text[m].result, disk_v3[m].result) &&
                same_result(disk_text[m].result, disk_v3_sharded[m].result) &&
                same_result(disk_text[m].result, disk_v3_process[m].result);
  }
  const std::uint64_t disk_replayed =
      orig_big.trace.packets.size() * modes.size();
  const double text_replay_pps =
      static_cast<double>(disk_replayed) / text_replay_wall;
  const double v3_replay_pps =
      static_cast<double>(disk_replayed) / v3_replay_wall;
  std::remove(v1_path.c_str());
  std::remove(v3_path.c_str());

  // --- WAN-bytes lane: compression against fixed-width records --------------
  // An Internet2 trace recorded *with* per-hop data (path + per-router
  // departure columns populated — the widest records the recorder emits,
  // and the representative WAN-archive shape). v3's delta-varint columns
  // must land at or under max_v3_bytes_ratio x the fixed-width size.
  std::uint64_t wan_records = 0;
  std::uint64_t wan_v1_bytes = 0, wan_fixed_bytes = 0, wan_v3_bytes = 0;
  {
    exp::scenario wan_sc;
    wan_sc.topo = exp::topo_kind::i2_default;
    wan_sc.utilization = 0.7;
    wan_sc.sched = core::sched_kind::random;
    wan_sc.seed = a.seed;
    wan_sc.packet_budget = budget;
    wan_sc.record_hops = true;
    auto wan_orig = exp::run_original(wan_sc);
    net::sort_by_ingress(wan_orig.trace);
    wan_records = wan_orig.trace.packets.size();
    const std::string w1 = "bench_macro_wan.v1.trace";
    const std::string w3 = "bench_macro_wan.v3.trace";
    net::save_trace(w1, wan_orig.trace);
    net::save_trace_v3(w3, wan_orig.trace);
    wan_v1_bytes = file_bytes(w1);
    wan_fixed_bytes = fixed_width_bytes(wan_orig.trace);
    wan_v3_bytes = file_bytes(w3);
    std::remove(w1.c_str());
    std::remove(w3.c_str());
  }
  const double wan_v3_ratio = static_cast<double>(wan_v3_bytes) /
                              static_cast<double>(wan_fixed_bytes);

  // --- RocketFuel lane: mixed workloads at WAN scale -------------------------
  // Sweep axes: incast fan-in degree x closed-loop outstanding window, the
  // two knobs that shape a mixed trace's burstiness and steady-state
  // residency. Each cell records an original on the RocketFuel topology
  // and replays it with LSTF.
  struct rf_cell {
    std::uint32_t fan_in = 0;
    std::uint32_t outstanding = 0;
    std::uint64_t trace_packets = 0;
    std::uint64_t peak_pool = 0;
    std::uint64_t peak_outstanding = 0;
    double original_wall = 0;
    double replay_wall = 0;
    double frac_overdue = 0;
    double frac_overdue_beyond_T = 0;
  };
  std::vector<rf_cell> rf_sweep;
  for (const std::uint32_t fan : {8u, 16u, 32u}) {
    for (const std::uint32_t win : {4u, 16u, 64u}) {
      exp::scenario sc;
      sc.topo = exp::topo_kind::rocketfuel;
      sc.utilization = 0.7;
      sc.sched = core::sched_kind::random;
      sc.seed = a.seed;
      sc.packet_budget = budget;
      char wname[48];
      std::snprintf(wname, sizeof(wname), "mixed:%u:%u:0.25", fan, win);
      sc.workload_kind = traffic::parse_workload(wname, sc.workload_spec);
      rf_cell c;
      c.fan_in = fan;
      c.outstanding = win;
      const auto t_orig = std::chrono::steady_clock::now();
      const auto orig = exp::run_original(sc);
      c.original_wall = exp::wall_seconds_since(t_orig);
      c.trace_packets = orig.trace.packets.size();
      c.peak_pool = orig.peak_pool_packets;
      c.peak_outstanding = orig.peak_outstanding_flows;
      const auto t_rep = std::chrono::steady_clock::now();
      const auto rep = exp::run_replay(orig, core::replay_mode::lstf,
                                       /*keep_outcomes=*/false);
      c.replay_wall = exp::wall_seconds_since(t_rep);
      c.frac_overdue = rep.frac_overdue();
      c.frac_overdue_beyond_T = rep.frac_overdue_beyond_T();
      rf_sweep.push_back(c);
    }
  }

  // Tiled scale lane (--rf-packets=N, headline N=1e8): a recorded mixed
  // base trace tiled along the time axis into an N-packet v3 file (O(1
  // block) writer memory — the whole point of the streaming path), then
  // warm and cold-cache ingest and end-to-end LSTF replay of it.
  struct rf_tiled_stats {
    std::uint64_t records = 0;
    std::uint64_t base_records = 0;
    std::uint64_t v3_bytes = 0;
    double v3_write_wall = 0;
    ingest_stats v3_ingest;
    // Cold-cache open+drain of the same file after page-cache eviction.
    // cold_available is false where eviction is unsupported.
    ingest_stats v3_cold;
    bool cold_available = false;
    double v3_replay_wall = 0;
    double frac_overdue = 0;
    double frac_overdue_beyond_T = 0;
  };
  rf_tiled_stats rft;
  bool rf_cold_same = true;
  if (rf_packets > 0) {
    exp::scenario base_sc;
    base_sc.topo = exp::topo_kind::rocketfuel;
    base_sc.utilization = 0.7;
    base_sc.sched = core::sched_kind::random;
    base_sc.seed = a.seed;
    base_sc.packet_budget = std::min<std::uint64_t>(rf_packets, 2'000'000);
    base_sc.workload_kind =
        traffic::parse_workload("mixed:16:16:0.25", base_sc.workload_spec);
    auto base = exp::run_original(base_sc);
    net::sort_by_ingress(base.trace);
    rft.base_records = base.trace.packets.size();
    const std::string r3 = "bench_macro_rf.v3.trace";
    {
      std::ofstream os(r3, std::ios::binary);
      net::trace_v3_writer w(os, rf_packets);
      const auto t0 = std::chrono::steady_clock::now();
      rft.records = write_tiled(w, base.trace, rf_packets);
      rft.v3_write_wall = exp::wall_seconds_since(t0);
    }
    rft.v3_bytes = file_bytes(r3);
    {
      net::trace_v3_cursor c3(r3);
      rft.v3_ingest = drain(c3);
    }
    // Cold-cache ingest: evict the file (fsync + POSIX_FADV_DONTNEED), then
    // time open + drain — opening is part of the cost (v3 faults only the
    // leading block index before the first block).
    rft.cold_available = drop_page_cache(r3);
    if (rft.cold_available) {
      const auto t0 = std::chrono::steady_clock::now();
      net::trace_v3_cursor c3(r3);
      rft.v3_cold = drain(c3);
      rft.v3_cold.wall_seconds = exp::wall_seconds_since(t0);
      rf_cold_same = rft.v3_cold.checksum == rft.v3_ingest.checksum &&
                     rft.v3_cold.records == rft.v3_ingest.records;
    }
    const auto t_r3 = std::chrono::steady_clock::now();
    const auto rep3 = exp::run_replay_file(r3, base.topology,
                                           base.threshold_T,
                                           core::replay_mode::lstf);
    rft.v3_replay_wall = exp::wall_seconds_since(t_r3);
    rft.frac_overdue = rep3.frac_overdue();
    rft.frac_overdue_beyond_T = rep3.frac_overdue_beyond_T();
    std::remove(r3.c_str());
  }
  const bool cold_available = rf_packets > 0 && rft.cold_available;
  const double v3_cold_pps =
      cold_available
          ? static_cast<double>(rft.v3_cold.records) /
                rft.v3_cold.wall_seconds
          : 0.0;
  // Bandwidth of the post-eviction drain. A genuinely cold medium measures
  // tens to a few hundred MB/s here; when the "evicted" file still reads
  // at GB/s, a cache below the page cache served the bytes — a VM host
  // caching the block device, or fadvise advice silently ignored — and the
  // number is not a storage-bound measurement.
  const double v3_cold_mbps =
      cold_available ? static_cast<double>(rft.v3_bytes) /
                           rft.v3_cold.wall_seconds / (1024.0 * 1024.0)
                     : 0.0;
  constexpr double kColdCredibleMBps = 750.0;
  const bool cold_is_credible =
      cold_available && v3_cold_mbps <= kColdCredibleMBps;
  const double rf_v3_warm_pps =
      rf_packets > 0 ? static_cast<double>(rft.v3_ingest.records) /
                           rft.v3_ingest.wall_seconds
                     : 0.0;

  // --- report --------------------------------------------------------------
  std::printf("\n%-22s %6s %-12s %9s", "scenario", "util", "workload",
              "packets");
  for (const auto m : modes) std::printf(" %16s", core::to_string(m));
  std::printf("\n");
  for (const auto& r : serial) {
    std::printf("%-22s %5.0f%% %-12s %9llu", exp::to_string(r.sc.topo),
                r.sc.utilization * 100,
                traffic::to_string(r.sc.workload_kind),
                static_cast<unsigned long long>(r.trace_packets));
    for (const auto& rep : r.replays) {
      std::printf("   %6.4f/%7.4f", rep.result.frac_overdue(),
                  rep.result.frac_overdue_beyond_T());
    }
    std::printf("\n");
  }
  std::printf("\nloss sweep (I2 @70%% Random, original recorded under fault, "
              "replay-under-loss across modes):\n");
  std::printf("  %-22s %9s %8s", "fault", "packets", "dropped");
  for (const auto m : modes) std::printf(" %16s", core::to_string(m));
  std::printf("\n");
  for (std::size_t i = 0; i < loss_serial.size(); ++i) {
    const auto& r = loss_serial[i];
    const std::uint64_t lane_dropped =
        r.replays.empty() ? 0 : r.replays[0].result.dropped;
    std::printf("  %-22s %9llu %8llu",
                loss_axis[i][0] != '\0' ? loss_axis[i] : "none",
                static_cast<unsigned long long>(r.trace_packets),
                static_cast<unsigned long long>(lane_dropped));
    for (const auto& rep : r.replays) {
      std::printf("   %6.4f/%7.4f", rep.result.frac_overdue(),
                  rep.result.frac_overdue_beyond_T());
    }
    std::printf("\n");
  }
  std::printf("  backends identical: %s, zero-loss lane == plain sweep: %s\n",
              loss_backends_same ? "yes" : "NO",
              loss_zero_same ? "yes" : "NO");
  std::printf("\nbackpressure lane (fat tree @70%% Random, original recorded "
              "under flow control, stalls re-enacted across modes):\n");
  std::printf("  %-18s %9s %9s %10s", "flow", "packets", "stalled",
              "stall ms");
  for (const auto m : modes) std::printf(" %16s", core::to_string(m));
  std::printf("\n");
  for (std::size_t i = 0; i < flow_serial.size(); ++i) {
    const auto& r = flow_serial[i];
    std::printf("  %-18s %9llu %9llu %10.3f",
                flow_axis[i][0] != '\0' ? flow_axis[i] : "none",
                static_cast<unsigned long long>(r.trace_packets),
                static_cast<unsigned long long>(
                    flow_stalls[i].stalled_records),
                static_cast<double>(flow_stalls[i].stall_time) / 1e9);
    for (const auto& rep : r.replays) {
      std::printf("   %6.4f/%7.4f", rep.result.frac_overdue(),
                  rep.result.frac_overdue_beyond_T());
    }
    std::printf("\n");
  }
  std::printf("  backends identical: %s, flow-off lane == plain sweep: %s, "
              "lossless (injected == delivered, zero drops): %s\n",
              flow_backends_same ? "yes" : "NO",
              flow_zero_same ? "yes" : "NO", flow_lossless ? "yes" : "NO");
  std::printf("\nworkload lane (I2 @70%% Random, per-kind original + LSTF "
              "replay; peak@2x gates the plateau):\n");
  std::printf("  %-14s %9s %14s %14s %12s %12s %10s\n", "workload", "packets",
              "orig pkt/s", "replay pkt/s", "peak pool", "peak@2x",
              "vs open@2x");
  for (const auto& l : lanes) {
    std::printf("  %-14s %9llu %14.0f %14.0f %12llu", l.name,
                static_cast<unsigned long long>(l.trace_packets),
                static_cast<double>(l.trace_packets) / l.original_wall,
                static_cast<double>(l.trace_packets) / l.replay_wall,
                static_cast<unsigned long long>(l.peak_pool));
    if (l.peak_pool_2x != 0) {
      std::printf(" %12llu %9.3fx\n",
                  static_cast<unsigned long long>(l.peak_pool_2x),
                  static_cast<double>(l.peak_pool_2x) /
                      static_cast<double>(open_loop_peak_2x));
    } else {
      std::printf(" %12s %10s\n", "-", "-");
    }
  }
  std::printf("\nserial : %7.2fs  %12.0f packets/sec\n", serial_wall,
              serial_pps);
  std::printf("sharded: %7.2fs  %12.0f packets/sec  (%.2fx, %s:%zu)\n",
              sharded_wall, sharded_pps, speedup,
              exp::dispatch::to_string(sharded_spec.kind),
              sharded_spec.workers);
  if (process_available) {
    for (const auto& pt : process_curve) {
      std::printf("process:%zu  %7.2fs  %12.0f packets/sec  (%.2fx vs "
                  "serial, identical: %s)\n",
                  pt.workers, pt.wall_seconds,
                  static_cast<double>(replayed) / pt.wall_seconds,
                  pt.speedup_vs_serial, pt.identical ? "yes" : "NO");
    }
    if (a.kill_worker_after > 0) {
      std::printf("process:2 +kill-worker-after=%llu: %zu worker "
                  "failure(s)%s, identical: %s\n",
                  static_cast<unsigned long long>(a.kill_worker_after),
                  fault_failures, fault_respawned ? " (respawned)" : "",
                  fault_same ? "yes" : "NO");
    }
  } else {
    std::printf("process backend unavailable on this platform; dispatch "
                "lane skipped\n");
  }
  const double committed_pps =
      baseline_path.empty() ? 0.0 : baseline_serial_pps(baseline_path);
  if (committed_pps > 0.0) {
    std::printf("vs committed baseline (%s): %.2fx serial packets/sec\n",
                baseline_path.c_str(), serial_pps / committed_pps);
  } else if (!baseline_path.empty()) {
    std::printf("baseline %s: no serial packets/sec found, comparison "
                "skipped\n",
                baseline_path.c_str());
  }
  const double committed_warm_pps =
      baseline_path.empty() ? 0.0
                            : baseline_field(baseline_path, "\"disk\"",
                                             "v3_warm_packets_per_sec");
  if (committed_warm_pps > 0.0) {
    std::printf("vs committed baseline: %.2fx v3 warm-decode packets/sec "
                "(disk lane)\n",
                v3_ingest_pps / committed_warm_pps);
  }
  std::printf("residency (largest scenario, %llu packets): upfront peak "
              "%llu pkts / %llu event slots -> streaming peak %llu pkts / "
              "%llu event slots (%.4fx)\n",
              static_cast<unsigned long long>(orig_big.trace.packets.size()),
              static_cast<unsigned long long>(res_upfront.peak_pool_packets),
              static_cast<unsigned long long>(res_upfront.peak_event_slots),
              static_cast<unsigned long long>(res_stream.peak_pool_packets),
              static_cast<unsigned long long>(res_stream.peak_event_slots),
              residency_ratio);
  std::printf("\ndisk lane (%llu-packet trace):\n",
              static_cast<unsigned long long>(orig_big.trace.packets.size()));
  std::printf("  v1 text   %9llu bytes  ingest %12.0f packets/sec "
              "%8.1f MB/s   replay(4 modes) %12.0f packets/sec\n",
              static_cast<unsigned long long>(v1_bytes), text_ingest_pps,
              static_cast<double>(v1_bytes) / text_ingest.wall_seconds / 1e6,
              text_replay_pps);
  std::printf("  v3 blocks %9llu bytes  ingest %12.0f packets/sec "
              "%8.1f MB/s   replay(4 modes) %12.0f packets/sec\n",
              static_cast<unsigned long long>(v3_bytes), v3_ingest_pps,
              static_cast<double>(v3_bytes) / v3_ingest.wall_seconds / 1e6,
              v3_replay_pps);
  std::printf("  v3 ingest speedup %.2fx, end-to-end replay speedup "
              "%.2fx, results identical: %s\n",
              disk_speedup, v3_replay_pps / text_replay_pps,
              disk_same ? "yes" : "NO");
  std::printf("  v3 steady-state allocations: %llu; block-seek walk %llu "
              "records in %.3fs (%.0f packets/sec), fold identical: %s\n",
              static_cast<unsigned long long>(v3_steady_allocs),
              static_cast<unsigned long long>(v3_seek.records),
              v3_seek.wall_seconds,
              static_cast<double>(v3_seek.records) / v3_seek.wall_seconds,
              v3_seek_same ? "yes" : "NO");
  std::printf("\nWAN bytes lane (I2 @70%%, hops recorded, %llu packets):\n",
              static_cast<unsigned long long>(wan_records));
  std::printf("  v1 %10llu bytes (%6.1f B/pkt)  fixed-width %10llu bytes "
              "(%6.1f B/pkt)  v3 %10llu bytes (%6.1f B/pkt)  v3/fixed "
              "%.3f\n",
              static_cast<unsigned long long>(wan_v1_bytes),
              static_cast<double>(wan_v1_bytes) /
                  static_cast<double>(wan_records),
              static_cast<unsigned long long>(wan_fixed_bytes),
              static_cast<double>(wan_fixed_bytes) /
                  static_cast<double>(wan_records),
              static_cast<unsigned long long>(wan_v3_bytes),
              static_cast<double>(wan_v3_bytes) /
                  static_cast<double>(wan_records),
              wan_v3_ratio);
  std::printf("\nRocketFuel lane (mixed workload, fan-in x outstanding "
              "sweep):\n");
  std::printf("  %4s %4s %9s %12s %12s %10s %8s %8s\n", "fan", "win",
              "packets", "orig pkt/s", "replay pkt/s", "peak pool",
              "peak out", "overdue");
  for (const auto& c : rf_sweep) {
    std::printf("  %4u %4u %9llu %12.0f %12.0f %10llu %8llu %8.4f\n",
                c.fan_in, c.outstanding,
                static_cast<unsigned long long>(c.trace_packets),
                static_cast<double>(c.trace_packets) / c.original_wall,
                static_cast<double>(c.trace_packets) / c.replay_wall,
                static_cast<unsigned long long>(c.peak_pool),
                static_cast<unsigned long long>(c.peak_outstanding),
                c.frac_overdue);
  }
  if (rf_packets > 0) {
    std::printf("  tiled scale: %llu packets (base %llu, mixed:16:16:0.25)\n",
                static_cast<unsigned long long>(rft.records),
                static_cast<unsigned long long>(rft.base_records));
    std::printf("    v3 %12llu bytes  write %7.2fs  warm ingest %12.0f "
                "pkt/s  lstf replay %12.0f pkt/s  overdue %.4f\n",
                static_cast<unsigned long long>(rft.v3_bytes),
                rft.v3_write_wall, rf_v3_warm_pps,
                static_cast<double>(rft.records) / rft.v3_replay_wall,
                rft.frac_overdue);
    if (cold_available) {
      std::printf("    cold-cache (open+drain): v3 %12.0f pkt/s (%.0f MB/s)"
                  "%s, fold identical: %s\n",
                  v3_cold_pps, v3_cold_mbps,
                  cold_is_credible ? "" : "  [cache-served]",
                  rf_cold_same ? "yes" : "NO");
    } else {
      std::printf("    cold-cache: SKIPPED — page-cache eviction "
                  "unavailable on this platform\n");
    }
  }

  // --- JSON trajectory -----------------------------------------------------
  const bool same = identical(serial, sharded);
  {
    std::ofstream out(out_path);
    out << "{\n  \"benchmark\": \"macro_replay\",\n"
        << "  \"threads\": " << threads << ",\n"
        << "  \"hardware_concurrency\": " << hw << ",\n"
        << "  \"packet_budget\": " << budget << ",\n"
        << "  \"replayed_packets\": " << replayed << ",\n"
        << "  \"serial\": {\"wall_seconds\": " << serial_wall
        << ", \"packets_per_sec\": " << serial_pps << "},\n"
        << "  \"sharded\": {\"wall_seconds\": " << sharded_wall
        << ", \"packets_per_sec\": " << sharded_pps << "},\n"
        << "  \"speedup\": " << speedup << ",\n"
        << "  \"identical\": " << (same ? "true" : "false") << ",\n"
        << "  \"process\": {\"available\": "
        << (process_available ? "true" : "false") << ", \"curve\": [";
    for (std::size_t i = 0; i < process_curve.size(); ++i) {
      const auto& pt = process_curve[i];
      out << (i ? ", " : "") << "{\"workers\": " << pt.workers
          << ", \"wall_seconds\": " << pt.wall_seconds
          << ", \"packets_per_sec\": "
          << static_cast<double>(replayed) / pt.wall_seconds
          << ", \"speedup_vs_serial\": " << pt.speedup_vs_serial
          << ", \"identical\": " << (pt.identical ? "true" : "false") << "}";
    }
    out << "],\n    \"kill_worker_after\": " << a.kill_worker_after
        << ", \"fault_worker_failures\": " << fault_failures
        << ", \"fault_respawned\": " << (fault_respawned ? "true" : "false")
        << ", \"fault_identical\": " << (fault_same ? "true" : "false")
        << "},\n"
        << "  \"residency\": {\"trace_packets\": "
        << orig_big.trace.packets.size()
        << ", \"upfront_peak_packets\": " << res_upfront.peak_pool_packets
        << ", \"streaming_peak_packets\": " << res_stream.peak_pool_packets
        << ", \"upfront_peak_event_slots\": " << res_upfront.peak_event_slots
        << ", \"streaming_peak_event_slots\": " << res_stream.peak_event_slots
        << ", \"ratio\": " << residency_ratio << "},\n"
        << "  \"disk\": {\"trace_packets\": " << orig_big.trace.packets.size()
        << ", \"text_bytes\": " << v1_bytes
        << ",\n    \"text_ingest\": {\"wall_seconds\": "
        << text_ingest.wall_seconds
        << ", \"packets_per_sec\": " << text_ingest_pps
        << ", \"mb_per_sec\": "
        << static_cast<double>(v1_bytes) / text_ingest.wall_seconds / 1e6
        << "},\n    \"v3_bytes\": " << v3_bytes
        << ", \"v3_ingest\": {\"wall_seconds\": " << v3_ingest.wall_seconds
        << ", \"packets_per_sec\": " << v3_ingest_pps
        << ", \"mb_per_sec\": "
        << static_cast<double>(v3_bytes) / v3_ingest.wall_seconds / 1e6
        << "},\n    \"v3_warm_packets_per_sec\": " << v3_ingest_pps
        << ",\n    \"v3_steady_state_allocs\": " << v3_steady_allocs
        << ",\n    \"v3_block_seek\": {\"records\": " << v3_seek.records
        << ", \"wall_seconds\": " << v3_seek.wall_seconds
        << ", \"identical\": " << (v3_seek_same ? "true" : "false")
        << "},\n    \"ingest_speedup\": " << disk_speedup
        << ",\n    \"text_replay_packets_per_sec\": " << text_replay_pps
        << ", \"v3_replay_packets_per_sec\": " << v3_replay_pps
        << ", \"replay_speedup\": " << v3_replay_pps / text_replay_pps
        << ", \"identical\": " << (disk_same ? "true" : "false") << "},\n"
        << "  \"wan_bytes\": {\"trace_packets\": " << wan_records
        << ", \"v1_bytes\": " << wan_v1_bytes
        << ", \"fixed_width_bytes\": " << wan_fixed_bytes
        << ", \"v3_bytes\": " << wan_v3_bytes
        << ", \"v3_fixed_width_ratio\": " << wan_v3_ratio << "},\n"
        << "  \"rocketfuel\": {\"sweep\": [\n";
    for (std::size_t i = 0; i < rf_sweep.size(); ++i) {
      const auto& c = rf_sweep[i];
      out << "    {\"fan_in\": " << c.fan_in
          << ", \"outstanding\": " << c.outstanding
          << ", \"trace_packets\": " << c.trace_packets
          << ", \"original_packets_per_sec\": "
          << static_cast<double>(c.trace_packets) / c.original_wall
          << ", \"replay_packets_per_sec\": "
          << static_cast<double>(c.trace_packets) / c.replay_wall
          << ", \"peak_pool_packets\": " << c.peak_pool
          << ", \"peak_outstanding_flows\": " << c.peak_outstanding
          << ", \"frac_overdue\": " << c.frac_overdue
          << ", \"frac_overdue_beyond_T\": " << c.frac_overdue_beyond_T
          << "}" << (i + 1 < rf_sweep.size() ? "," : "") << "\n";
    }
    out << "  ]";
    if (rf_packets > 0) {
      out << ",\n  \"tiled\": {\"records\": " << rft.records
          << ", \"base_records\": " << rft.base_records
          << ", \"v3_bytes\": " << rft.v3_bytes
          << ", \"v3_write_seconds\": " << rft.v3_write_wall
          << ", \"v3_ingest_packets_per_sec\": " << rf_v3_warm_pps
          << ",\n    \"cold_ingest\": {\"available\": "
          << (cold_available ? "true" : "false")
          << ", \"v3_packets_per_sec\": " << v3_cold_pps
          << ", \"v3_mb_per_sec\": " << v3_cold_mbps
          << ", \"storage_bound\": " << (cold_is_credible ? "true" : "false")
          << ", \"identical\": " << (rf_cold_same ? "true" : "false")
          << "},\n    \"v3_replay_packets_per_sec\": "
          << static_cast<double>(rft.records) / rft.v3_replay_wall
          << ", \"frac_overdue\": " << rft.frac_overdue
          << ", \"frac_overdue_beyond_T\": " << rft.frac_overdue_beyond_T
          << "}";
    }
    out << "},\n"
        << "  \"loss_sweep\": {\"identical_across_backends\": "
        << (loss_backends_same ? "true" : "false")
        << ", \"zero_loss_identical\": "
        << (loss_zero_same ? "true" : "false") << ", \"lanes\": [\n";
    for (std::size_t i = 0; i < loss_serial.size(); ++i) {
      const auto& r = loss_serial[i];
      out << "    {\"fault\": \""
          << (loss_axis[i][0] != '\0' ? loss_axis[i] : "none")
          << "\", \"trace_packets\": " << r.trace_packets
          << ", \"dropped\": "
          << (r.replays.empty() ? 0 : r.replays[0].result.dropped)
          << ", \"modes\": [";
      for (std::size_t m = 0; m < r.replays.size(); ++m) {
        const auto& rep = r.replays[m];
        out << (m ? ", " : "") << "{\"mode\": \""
            << core::to_string(rep.mode)
            << "\", \"frac_overdue\": " << rep.result.frac_overdue()
            << ", \"frac_overdue_beyond_T\": "
            << rep.result.frac_overdue_beyond_T() << "}";
      }
      out << "]}" << (i + 1 < loss_serial.size() ? "," : "") << "\n";
    }
    out << "  ]},\n"
        << "  \"backpressure\": {\"identical_across_backends\": "
        << (flow_backends_same ? "true" : "false")
        << ", \"zero_flow_identical\": "
        << (flow_zero_same ? "true" : "false")
        << ", \"lossless\": " << (flow_lossless ? "true" : "false")
        << ", \"lanes\": [\n";
    for (std::size_t i = 0; i < flow_serial.size(); ++i) {
      const auto& r = flow_serial[i];
      out << "    {\"flow\": \""
          << (flow_axis[i][0] != '\0' ? flow_axis[i] : "none")
          << "\", \"trace_packets\": " << r.trace_packets
          << ", \"stalled_records\": " << flow_stalls[i].stalled_records
          << ", \"stall_ms\": "
          << static_cast<double>(flow_stalls[i].stall_time) / 1e9
          << ", \"modes\": [";
      for (std::size_t m = 0; m < r.replays.size(); ++m) {
        const auto& rep = r.replays[m];
        out << (m ? ", " : "") << "{\"mode\": \""
            << core::to_string(rep.mode)
            << "\", \"frac_overdue\": " << rep.result.frac_overdue()
            << ", \"frac_overdue_beyond_T\": "
            << rep.result.frac_overdue_beyond_T() << "}";
      }
      out << "]}" << (i + 1 < flow_serial.size() ? "," : "") << "\n";
    }
    out << "  ]},\n"
        << "  \"workloads\": [\n";
    for (std::size_t i = 0; i < lanes.size(); ++i) {
      const auto& l = lanes[i];
      out << "    {\"kind\": \"" << l.name
          << "\", \"trace_packets\": " << l.trace_packets
          << ", \"original_packets_per_sec\": "
          << static_cast<double>(l.trace_packets) / l.original_wall
          << ", \"replay_packets_per_sec\": "
          << static_cast<double>(l.trace_packets) / l.replay_wall
          << ", \"peak_pool_packets\": " << l.peak_pool
          << ", \"peak_pool_packets_2x\": " << l.peak_pool_2x
          << ", \"flows_completed\": " << l.flows_completed
          << ", \"frac_overdue\": " << l.frac_overdue
          << ", \"frac_overdue_beyond_T\": " << l.frac_overdue_beyond_T
          << "}" << (i + 1 < lanes.size() ? "," : "") << "\n";
    }
    out << "  ],\n"
        << "  \"scenarios\": [\n";
    for (std::size_t i = 0; i < serial.size(); ++i) {
      const auto& r = serial[i];
      out << "    {\"topo\": \"" << exp::to_string(r.sc.topo)
          << "\", \"utilization\": " << r.sc.utilization
          << ", \"scheduler\": \"" << core::to_string(r.sc.sched)
          << "\", \"seed\": " << r.sc.seed
          << ", \"workload\": \"" << traffic::to_string(r.sc.workload_kind)
          << "\", \"original_peak_pool_packets\": "
          << r.original_peak_pool_packets
          << ", \"trace_packets\": " << r.trace_packets << ", \"modes\": [";
      for (std::size_t m = 0; m < r.replays.size(); ++m) {
        const auto& rep = r.replays[m];
        out << (m ? ", " : "") << "{\"mode\": \""
            << core::to_string(rep.mode)
            << "\", \"frac_overdue\": " << rep.result.frac_overdue()
            << ", \"frac_overdue_beyond_T\": "
            << rep.result.frac_overdue_beyond_T() << "}";
      }
      out << "]}" << (i + 1 < serial.size() ? "," : "") << "\n";
    }
    out << "  ]\n}\n";
  }

  // --- gates ---------------------------------------------------------------
  int failures = 0;
  if (!same) {
    gate_print("FAIL: sharded results differ from the serial run "
               "(determinism violation)\n");
    ++failures;
  }
  if (!process_same) {
    gate_print("FAIL: a process-backend run differs from the serial "
               "reference (dispatch fabric determinism violation)\n");
    ++failures;
  }
  if (!fault_same) {
    gate_print("FAIL: the fault-injected process run merged differently "
               "from serial — worker recovery corrupted a result slot\n");
    ++failures;
  }
  if (!fault_fired) {
    gate_print("FAIL: --kill-worker-after injection recorded no worker "
               "failure — the recovery path went untested\n");
    ++failures;
  }
  if (!loss_backends_same) {
    gate_print("FAIL: a loss-sweep lane differs across dispatch backends "
               "— the fault RNG is not counter-deterministic\n");
    ++failures;
  }
  if (!loss_zero_same) {
    gate_print("FAIL: the zero-loss lane differs from the plain sweep — "
               "a disabled fault process perturbed the schedule\n");
    ++failures;
  }
  if (!loss_fired) {
    gate_print("FAIL: a lossy lane recorded zero drops — its fault "
               "process never fired\n");
    ++failures;
  }
  if (!loss_conserved) {
    gate_print("FAIL: replay-under-loss leaked packets: delivered + "
               "dropped != injected on some lane/mode\n");
    ++failures;
  }
  if (!flow_backends_same) {
    gate_print("FAIL: a backpressure lane differs across dispatch "
               "backends — flow control or stall re-enactment is not "
               "deterministic\n");
    ++failures;
  }
  if (!flow_zero_same) {
    gate_print("FAIL: the flow-off lane differs from the plain sweep — "
               "a disabled flow spec perturbed the schedule\n");
    ++failures;
  }
  if (!flow_fired) {
    gate_print("FAIL: a governed backpressure lane recorded zero stalls "
               "— its flow budget never parked a transmitter\n");
    ++failures;
  }
  if (!flow_lossless) {
    gate_print("FAIL: a flow-controlled replay lost packets: delivered "
               "!= injected or drops > 0 — backpressure must be "
               "lossless\n");
    ++failures;
  }
  // The process-count speedup bar, like the thread one, needs real cores.
  if (process_available && hw >= 2) {
    double best = 0;
    for (const auto& pt : process_curve) {
      best = std::max(best, pt.speedup_vs_serial);
    }
    if (best < min_process_speedup) {
      gate_print("FAIL: best process-backend speedup %.2fx < %.2fx bar\n",
                 best, min_process_speedup);
      ++failures;
    }
  } else if (process_available) {
    std::printf("process speedup gate SKIPPED: %u hardware thread(s)\n", hw);
  }
  if (res_stream.peak_pool_packets >
      static_cast<std::uint64_t>(
          max_residency *
          static_cast<double>(res_upfront.peak_pool_packets))) {
    gate_print("FAIL: streaming peak residency %llu > %.2f x upfront peak "
               "%llu\n",
               static_cast<unsigned long long>(res_stream.peak_pool_packets),
               max_residency,
               static_cast<unsigned long long>(
               res_upfront.peak_pool_packets));
    ++failures;
  }
  // Steady-state gates (lanes: 0 open-loop, 1 paced, 2 closed-loop; incast
  // is open-loop fan-in by design and carries no bound). The closed-loop
  // source must genuinely plateau — flat residency in trace length, far
  // below the open-loop baseline. Paced emission is gated directionally:
  // strictly below the baseline, because on a WAN the bandwidth×delay
  // product floors what any open-ended source can achieve (a paced elephant
  // is still almost entirely on the wire at once when propagation delay
  // rivals its serialization span — measured, not a guess).
  const auto& paced_lane = lanes[1];
  const auto& closed_lane = lanes[2];
  if (static_cast<double>(closed_lane.peak_pool_2x) >
      max_workload_plateau * static_cast<double>(closed_lane.peak_pool)) {
    gate_print("FAIL: closed-loop residency did not plateau: %llu at 2x "
               "budget vs %llu at 1x (> %.2fx) — outstanding bound leak?\n",
               static_cast<unsigned long long>(closed_lane.peak_pool_2x),
               static_cast<unsigned long long>(closed_lane.peak_pool),
               max_workload_plateau);
    ++failures;
  }
  if (static_cast<double>(closed_lane.peak_pool_2x) >
      max_workload_residency * static_cast<double>(open_loop_peak_2x)) {
    gate_print("FAIL: closed-loop peak residency %llu > %.2f x open-loop "
               "baseline %llu — WAN scenario did not reach steady state\n",
               static_cast<unsigned long long>(closed_lane.peak_pool_2x),
               max_workload_residency,
               static_cast<unsigned long long>(open_loop_peak_2x));
    ++failures;
  }
  if (static_cast<double>(paced_lane.peak_pool_2x) >
      0.97 * static_cast<double>(open_loop_peak_2x)) {
    gate_print("FAIL: paced peak residency %llu is not below the open-loop "
               "baseline %llu — pacing is not shaping emission\n",
               static_cast<unsigned long long>(paced_lane.peak_pool_2x),
               static_cast<unsigned long long>(open_loop_peak_2x));
    ++failures;
  }
  if (!disk_same) {
    gate_print("FAIL: v3 disk replay differs from the text path "
               "(format round-trip or cursor bug)\n");
    ++failures;
  }
  if (disk_speedup < min_disk_speedup) {
    gate_print("FAIL: v3 replay ingestion %.2fx text reader < %.2fx bar\n",
               disk_speedup, min_disk_speedup);
    ++failures;
  }
  // Warm-decode anchor vs the committed baseline (skip when the baseline
  // predates the anchor field): catches a decoder change that tanks warm
  // throughput.
  if (min_warm_baseline_ratio > 0.0 && !baseline_path.empty()) {
    if (committed_warm_pps <= 0.0) {
      std::printf("warm-baseline gate SKIPPED: %s has no "
                  "v3_warm_packets_per_sec anchor\n",
                  baseline_path.c_str());
    } else if (v3_ingest_pps < min_warm_baseline_ratio * committed_warm_pps) {
      gate_print("FAIL: v3 warm decode %.0f packets/sec < %.2f x committed "
                 "baseline %.0f — columnar decoder regression\n",
                 v3_ingest_pps, min_warm_baseline_ratio,
                 committed_warm_pps);
      ++failures;
    }
  }
  if (wan_v3_ratio > max_v3_bytes_ratio) {
    gate_print("FAIL: WAN v3 trace is %.3fx the fixed-width bytes (> %.2fx "
               "bar): %llu vs %llu bytes\n",
               wan_v3_ratio, max_v3_bytes_ratio,
               static_cast<unsigned long long>(wan_v3_bytes),
               static_cast<unsigned long long>(wan_fixed_bytes));
    ++failures;
  }
  if (v3_steady_allocs != 0) {
    gate_print("FAIL: warmed v3 decode performed %llu heap allocations "
               "(contract: zero)\n",
               static_cast<unsigned long long>(v3_steady_allocs));
    ++failures;
  }
  if (!v3_seek_same) {
    gate_print("FAIL: v3 block-seek walk folded differently from the "
               "sequential drain (index/seek bug)\n");
    ++failures;
  }
  if (!rf_cold_same) {
    gate_print("FAIL: cold-cache v3 drain diverged from the warm drain\n");
    ++failures;
  }
  // Skip only on a *known* single-core box; hardware_concurrency() == 0
  // means "unknown", and an unknown machine must still enforce the bar
  // (CI runners report their count correctly).
  if (hw != 1 && threads >= 2) {
    if (speedup < min_speedup) {
      gate_print("FAIL: sharded speedup %.2fx < %.2fx bar\n",
                 speedup, min_speedup);
      ++failures;
    }
  } else {
    std::printf("speedup gate SKIPPED: %u hardware thread(s), %zu bench "
                "threads — a wall-clock speedup is not physically "
                "measurable here\n",
                hw, threads);
  }
  // Perf smoke vs the committed heap-kernel baseline: catches an event-
  // kernel (or other hot-path) swap that tanks end-to-end replay. The
  // ratio is loose because the committed numbers came from one machine;
  // the tight kernel bars live in bench_micro_queues where both kernels
  // run in the same binary.
  if (committed_pps > 0.0 && serial_pps < min_baseline_ratio * committed_pps) {
    gate_print("FAIL: serial %.0f packets/sec < %.2f x committed baseline "
               "%.0f — event-kernel or replay hot-path regression\n",
               serial_pps, min_baseline_ratio, committed_pps);
    ++failures;
  }
  if (failures == 0) {
    std::printf("all macro-replay gates passed\n");
  }
  return failures == 0 ? 0 : 1;
}
