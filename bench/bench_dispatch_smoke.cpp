// Dispatch and trace-ingest perf smoke: three speed ratios, each measured
// inside this one binary so that it holds on any machine. Correctness of
// the same paths (byte identity across backends, worker-kill recovery,
// v1/v3 replay identity) is owned by ctest: test_dispatch,
// test_replay_shard and test_trace_v3.
//
//   thread    thread:N memory sweep wall >= 1.3x faster than serial
//   process   process:N memory sweep wall >= 1.1x faster than serial
//   ingest    v3 cursor drain >= 3x the v1 text reader's packets/sec
//
// N is the hardware thread count (at least 2). The two speedup bars need
// real cores and report SKIPPED on a single-core machine; ingest is
// single-threaded work and always runs. Each wall is the best of three
// runs, so one stall on a shared machine does not fail a bar.
//
// Usage: bench_dispatch_smoke [--quick] [--packets=N] [--seed=N] [--scale=F]

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <functional>
#include <string>
#include <thread>
#include <vector>

#include "exp/args.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"

namespace {

using namespace ups;

constexpr double kMinThreadSpeedup = 1.3;
constexpr double kMinProcessSpeedup = 1.1;
constexpr double kMinIngestSpeedup = 3.0;
constexpr int kRuns = 3;

// Best wall of kRuns calls.
double best_wall(const std::function<void()>& fn) {
  double best = 0;
  for (int i = 0; i < kRuns; ++i) {
    const auto t0 = std::chrono::steady_clock::now();
    fn();
    const double wall = exp::wall_seconds_since(t0);
    best = i == 0 ? wall : std::min(best, wall);
  }
  return best;
}

// Drains a trace file through its cursor; the fold keeps the decode from
// being optimized away and must match across formats.
std::uint64_t drain(const std::string& path) {
  const auto cur = net::open_trace_cursor(path);
  std::uint64_t fold = 0;
  std::vector<const net::packet_record*> run;
  for (;;) {
    run.clear();
    if (cur->next_run(run) == 0) break;
    for (const net::packet_record* r : run) {
      fold += r->id + static_cast<std::uint64_t>(r->ingress_time) +
              r->path.size();
    }
  }
  return fold;
}

int gate(const char* name, double got, double bar) {
  const bool ok = got >= bar;
  std::printf("%-8s %6.2fx  (bar %.1fx)  %s\n", name, got, bar,
              ok ? "ok" : "FAIL");
  return ok ? 0 : 1;
}

}  // namespace

int main(int argc, char** argv) {
  const auto a = exp::args::parse_or_exit(argc, argv);
  const std::uint64_t budget = a.budget(60'000);
  const unsigned hw = std::thread::hardware_concurrency();
  const std::size_t workers = std::max(2u, hw);

  // Eight equal jobs (I2 at 70%, one seed each, the 4-mode candidate
  // sweep), so N workers can split them evenly.
  std::vector<exp::shard_task> tasks;
  for (std::uint64_t k = 0; k < 8; ++k) {
    exp::shard_task t;
    t.sc.seed = a.seed + k;
    t.sc.packet_budget = budget;
    t.modes = {core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
               core::replay_mode::edf,
               core::replay_mode::priority_output_time};
    tasks.push_back(std::move(t));
  }
  const auto plan = exp::dispatch::job_plan::from_tasks(std::move(tasks));
  const auto sweep = [&plan](exp::dispatch::backend_kind kind,
                             std::size_t n) {
    exp::dispatch::backend_spec spec;
    spec.kind = kind;
    spec.workers = n;
    return best_wall(
        [&] { exp::dispatch::run(plan, spec).throw_if_failed(); });
  };
  std::printf("dispatch smoke: 8 jobs x 4 modes, %llu packets each, "
              "%zu workers (hw=%u), best of %d\n",
              static_cast<unsigned long long>(budget), workers, hw, kRuns);

  int failures = 0;
  // hardware_concurrency() == 0 means unknown, which still runs the bars.
  if (hw != 1) {
    const double serial = sweep(exp::dispatch::backend_kind::serial, 1);
    const double thread =
        sweep(exp::dispatch::backend_kind::thread, workers);
    const double process =
        sweep(exp::dispatch::backend_kind::process, workers);
    std::printf("serial %.3fs, thread:%zu %.3fs, process:%zu %.3fs\n",
                serial, workers, thread, workers, process);
    failures += gate("thread", serial / thread, kMinThreadSpeedup);
    failures += gate("process", serial / process, kMinProcessSpeedup);
  } else {
    std::printf("speedup bars SKIPPED: 1 hardware thread\n");
  }

  // Ingest: one 2x-budget trace in both formats, drained with no
  // simulation attached.
  exp::scenario sc;
  sc.seed = a.seed;
  sc.packet_budget = 2 * budget;
  auto orig = exp::run_original(sc);
  net::sort_by_ingress(orig.trace);
  const std::string v1 = "bench_dispatch_smoke.v1.trace";
  const std::string v3 = "bench_dispatch_smoke.v3.trace";
  net::save_trace(v1, orig.trace);
  net::save_trace_v3(v3, orig.trace);
  std::uint64_t v1_fold = 0, v3_fold = 0;
  const double text = best_wall([&] { v1_fold = drain(v1); });
  const double block = best_wall([&] { v3_fold = drain(v3); });
  std::remove(v1.c_str());
  std::remove(v3.c_str());
  const double n = static_cast<double>(orig.trace.packets.size());
  std::printf("ingest %zu records: v1 %.0f pkt/s, v3 %.0f pkt/s\n",
              orig.trace.packets.size(), n / text, n / block);
  if (v1_fold != v3_fold) {
    std::printf("FAIL: v1 and v3 readers disagree on the same trace\n");
    ++failures;
  }
  failures += gate("ingest", text / block, kMinIngestSpeedup);
  return failures == 0 ? 0 : 1;
}
