// upsbench — the repository benchmark: the record -> replay sweep of §2.3
// (Table 1) driven through the library's public API, timed from outside
// around each layer's entry point, with its simulated outputs checked.
//
//   upsbench --workload NAME [--seed N] [--seconds S] [--trace 0|1]
//            [--size full|tiny] [--expect-digest HEX] [--out-dir DIR]
//
// One iteration runs the workload's whole plan: record every original, then
// replay each trace with the four-mode sweep (LSTF, preemptive LSTF, EDF,
// Priority(o(p))). Iterations repeat until --seconds is spent. Times are
// medians across iterations (the throughputs take each job's median), and
// set-up is sampled before every iteration. Every iteration must reproduce
// the first one's digest exactly (the simulation is deterministic), and the
// digest must equal --expect-digest when one is given.
//
// --trace 0 prints the end-to-end metrics. --trace 1 additionally runs a
// serial layer pass each iteration with a span around every public call
// (topology, build, record, encode, decode, replay, dispatch), prints the
// per-layer metrics, and writes the spans to DIR/spans-<workload>.jsonl.
//
// The last stdout line is one JSON object
//   {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
// printed only when every check passed; a failed check prints its reason
// on stderr (after flushing stdout) and exits 1.
#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cstdint>
#include <cstdio>
#include <cstdlib>
#include <fstream>
#include <iterator>
#include <map>
#include <set>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/registry.h"
#include "core/replay.h"
#include "exp/dispatch/backend.h"
#include "exp/replay_experiment.h"
#include "exp/scenario.h"
#include "net/network.h"
#include "net/trace_binary.h"
#include "net/trace_io.h"
#include "sim/simulator.h"
#include "topo/topology.h"
#include "traffic/source.h"

namespace {

using namespace ups;
using clk = std::chrono::steady_clock;

[[noreturn]] void fail(const std::string& why) {
  std::fflush(stdout);  // never split a metric line with the failure message
  std::fprintf(stderr, "upsbench: FAIL: %s\n", why.c_str());
  std::exit(1);
}

double seconds_between(clk::time_point a, clk::time_point b) {
  return std::chrono::duration<double>(b - a).count();
}

double median(std::vector<double> v) {
  if (v.empty()) return 0.0;
  std::sort(v.begin(), v.end());
  const std::size_t n = v.size();
  return n % 2 == 1 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

#ifdef __clang__
constexpr const char* kCompiler = "clang " __clang_version__;
#else
constexpr const char* kCompiler = "g++ " __VERSION__;
#endif

const std::vector<core::replay_mode> kModes = {
    core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
    core::replay_mode::edf, core::replay_mode::priority_output_time};

// Metric-name spelling of a replay mode (parallel to kModes).
const char* slug(core::replay_mode m) {
  switch (m) {
    case core::replay_mode::lstf: return "lstf";
    case core::replay_mode::lstf_preemptive: return "lstf_preempt";
    case core::replay_mode::edf: return "edf";
    case core::replay_mode::priority_output_time: return "priority";
    default: return "other";
  }
}

// --- workloads ---------------------------------------------------------------

struct workload {
  std::string name;
  exp::topo_kind topo = exp::topo_kind::i2_default;
  std::string backend;  // exp::dispatch::backend_spec::parse syntax
  // Disk workloads record one original, save it as v3 and replay the file
  // through a disk plan; memory workloads dispatch one job per cell.
  bool disk = false;
  // Appendix E: LSTF and EDF replays give identical overdue counts.
  bool gate_lstf_edf = true;
  std::vector<exp::scenario> cells;
};

// Cell `index` of a workload gets its own seed, so the cells of one run
// average over independent traffic draws instead of repeating one.
exp::scenario base_cell(exp::topo_kind topo, std::uint64_t seed,
                        std::size_t index, std::uint64_t packets) {
  exp::scenario sc;
  sc.topo = topo;
  sc.utilization = 0.7;
  sc.sched = core::sched_kind::random;
  sc.seed = seed * 16 + index;
  sc.packet_budget = packets;
  return sc;
}

workload make_workload(const std::string& name, std::uint64_t seed,
                       bool tiny) {
  workload w;
  w.name = name;
  if (name == "wan-table1") {
    // Per-packet replay cost: queues are deep, the routing build is under
    // 1% of job time, and there is no dispatch or disk cost.
    w.topo = exp::topo_kind::i2_default;
    w.backend = "serial";
    const std::size_t cells = tiny ? 2 : 4;
    for (std::size_t i = 0; i < cells; ++i) {
      auto sc = base_cell(w.topo, seed, i, tiny ? 2'000 : 50'000);
      sc.sched = i % 2 == 0 ? core::sched_kind::random : core::sched_kind::fifo;
      w.cells.push_back(sc);
    }
  } else if (name == "rocketfuel-mixed") {
    // Routing-table build dominates: short cells on a large WAN, and many
    // short jobs put dispatch overhead in the critical path.
    w.topo = exp::topo_kind::rocketfuel;
    w.backend = "process:2";
    const std::vector<std::pair<int, int>> knobs =
        tiny ? std::vector<std::pair<int, int>>{{8, 4}}
             : std::vector<std::pair<int, int>>{{8, 4},  {8, 64},  {16, 4},
                                                {16, 64}, {32, 4},  {32, 64},
                                                {64, 4},  {64, 64}};
    for (const auto& [fan_in, outstanding] : knobs) {
      auto sc = base_cell(w.topo, seed, w.cells.size(), tiny ? 1'500 : 6'000);
      sc.workload_kind = traffic::parse_workload(
          "mixed:" + std::to_string(fan_in) + ":" +
              std::to_string(outstanding) + ":0.25",
          sc.workload_spec);
      w.cells.push_back(sc);
    }
  } else if (name == "fattree-disk-credit") {
    // The only workload that writes and reads the trace layer, and the
    // only one with flow control: replay re-enacts the recorded stalls.
    w.topo = exp::topo_kind::fattree;
    w.backend = "thread:2";
    w.disk = true;
    // Re-enacted stalls are not charged to header slack, so LSTF replays
    // with stale slack and Appendix E's equivalence does not hold here
    // (ROADMAP: "Paper invariants in every lane"). The gap is reported,
    // not gated, until that semantics is decided.
    w.gate_lstf_edf = false;
    auto sc = base_cell(w.topo, seed, 0, tiny ? 2'000 : 200'000);
    sc.flow = net::flow_spec::parse("credit:30000");
    w.cells.push_back(sc);
  } else {
    fail("unknown workload '" + name +
         "' (wan-table1 | rocketfuel-mixed | fattree-disk-credit)");
  }
  return w;
}

// --- spans -------------------------------------------------------------------

// In-memory span recorder: spans are appended as they close and written
// out once at the end. It times its own bookkeeping so the traced run can
// report the tracing overhead as a measured number.
class tracer {
 public:
  struct span {
    std::string name;
    double start = 0;  // seconds since the tracer was created
    double end = 0;
    int parent = -1;  // index into spans(), -1 for a root
  };

  explicit tracer(bool on) : on_(on), t0_(clk::now()) {}

  int begin(const std::string& name, int parent) {
    if (!on_) return -1;
    const auto a = clk::now();
    spans_.push_back({name, seconds_between(t0_, a), 0, parent});
    overhead_ += seconds_between(a, clk::now());
    return static_cast<int>(spans_.size()) - 1;
  }
  void end(int id) {
    if (!on_ || id < 0) return;
    const auto a = clk::now();
    spans_[static_cast<std::size_t>(id)].end = seconds_between(t0_, a);
    overhead_ += seconds_between(a, clk::now());
  }

  [[nodiscard]] double overhead_s() const noexcept { return overhead_; }
  [[nodiscard]] const std::vector<span>& spans() const noexcept {
    return spans_;
  }

 private:
  bool on_;
  clk::time_point t0_;
  double overhead_ = 0;
  std::vector<span> spans_;
};

// Runs fn() inside a span and returns its wall seconds (measured even when
// tracing is off, so untraced runs time the same calls).
template <typename Fn>
double timed(tracer& tr, const std::string& name, int parent, Fn&& fn) {
  const int id = tr.begin(name, parent);
  const auto a = clk::now();
  fn();
  const double s = seconds_between(a, clk::now());
  tr.end(id);
  return s;
}

// --- digest ------------------------------------------------------------------

struct fnv {
  std::uint64_t h = 1469598103934665603ull;
  void add(const void* data, std::size_t n) {
    const auto* p = static_cast<const unsigned char*>(data);
    for (std::size_t i = 0; i < n; ++i) {
      h ^= p[i];
      h *= 1099511628211ull;
    }
  }
  void add(const std::string& s) { add(s.data(), s.size() + 1); }
  void add(std::uint64_t v) { add(&v, sizeof v); }
  [[nodiscard]] std::string hex() const {
    char buf[17];
    std::snprintf(buf, sizeof buf, "%016llx",
                  static_cast<unsigned long long>(h));
    return buf;
  }
};

std::string read_file(const std::string& path) {
  std::ifstream in(path, std::ios::binary);
  if (!in) fail("cannot read " + path);
  return {std::istreambuf_iterator<char>(in),
          std::istreambuf_iterator<char>()};
}

// --- one iteration -----------------------------------------------------------

// One cell's replay, as every backend reports it.
struct cell_result {
  std::string label;
  std::uint64_t trace_packets = 0;
  std::vector<exp::shard_replay> replays;  // kModes order
};

struct iteration {
  double experiment_s = 0;
  double record_s = 0;  // summed original-run seconds
  double record_pkts = 0;
  double replay_s = 0;  // summed per-replay seconds (each includes a build)
  double replay_pkts = 0;
  // Per-job seconds in plan order (replays cell-major, mode-minor). The
  // throughputs divide by the sum over jobs of each job's median across
  // iterations, so a burst of host noise in one job of one iteration drops
  // out.
  std::vector<double> record_job_s, replay_job_s;
  double dispatch_s = 0;
  double cpu_s = 0;  // process + children CPU seconds over the experiment
  std::size_t jobs = 0;
  std::size_t jobs_failed = 0;  // failed + not_run
  std::size_t worker_failures = 0;
  std::vector<cell_result> cells;
  // Disk workloads: the saved v3 trace.
  std::uint64_t trace_bytes = 0;
  std::uint64_t stalled_pkts = 0;
  double stall_time_s = 0;
  std::string digest;
};

// Replays are in kModes order: [0] LSTF, [1] preemptive LSTF, [2] EDF.
void check_outputs(const workload& w, const iteration& it) {
  for (const auto& c : it.cells) {
    for (const auto& rep : c.replays) {
      const auto& r = rep.result;
      if (r.total + r.dropped != c.trace_packets) {
        fail(c.label + " " + core::to_string(rep.mode) +
             ": conservation broken, total " + std::to_string(r.total) +
             " + dropped " + std::to_string(r.dropped) + " != trace " +
             std::to_string(c.trace_packets));
      }
    }
    const auto lstf = c.replays[0].result.overdue;
    const auto edf = c.replays[2].result.overdue;
    if (w.gate_lstf_edf && lstf != edf) {
      fail(c.label + ": LSTF overdue " + std::to_string(lstf) +
           " != EDF overdue " + std::to_string(edf) + " (Appendix E)");
    }
  }
}

std::string digest_of(const iteration& it) {
  fnv d;
  for (const auto& c : it.cells) {
    d.add(c.label);
    d.add(c.trace_packets);
    for (const auto& rep : c.replays) {
      const auto& r = rep.result;
      d.add(std::string(core::to_string(rep.mode)));
      for (const std::uint64_t v :
           {r.total, r.overdue, r.overdue_beyond_T, r.dropped,
            static_cast<std::uint64_t>(r.threshold_T)}) {
        d.add(v);
      }
    }
  }
  d.add(it.trace_bytes);
  d.add(it.stalled_pkts);
  return d.hex();
}

struct context {
  workload w;
  exp::dispatch::backend_spec spec;
  std::string trace_path;  // disk workloads
  tracer tr;
};

iteration run_experiment(context& cx) {
  const workload& w = cx.w;
  tracer& tr = cx.tr;
  iteration it;
  const int root = tr.begin("experiment", -1);
  const auto t0 = clk::now();
  exp::dispatch::run_report rep;
  std::string trace_file_bytes;
  if (w.disk) {
    const exp::scenario& sc = w.cells.front();
    exp::original_run orig;
    it.record_s = timed(tr, "record", root,
                        [&] { orig = exp::run_original(sc); });
    it.record_job_s.push_back(it.record_s);
    it.record_pkts = static_cast<double>(orig.trace.packets.size());
    timed(tr, "trace.encode", root,
          [&] { net::save_trace_v3(cx.trace_path, orig.trace); });
    exp::disk_shard_task task{cx.trace_path, orig.topology,
                              orig.threshold_T, kModes};
    const auto plan = exp::dispatch::job_plan::from_disk(std::move(task));
    it.dispatch_s = timed(tr, "dispatch.run", root, [&] {
      rep = exp::dispatch::run(plan, cx.spec);
    });
    it.experiment_s = seconds_between(t0, clk::now());
    tr.end(root);
    for (const auto& p : orig.trace.packets) {
      if (!p.stalled()) continue;
      ++it.stalled_pkts;
      it.stall_time_s += static_cast<double>(p.stall_time) * 1e-12;
    }
    trace_file_bytes = read_file(cx.trace_path);
    it.trace_bytes = trace_file_bytes.size();
    cell_result c{sc.label(), orig.trace.packets.size(), rep.disk_replays};
    for (const auto& r : c.replays) {
      it.replay_job_s.push_back(r.wall_seconds);
      it.replay_s += r.wall_seconds;
      it.replay_pkts += static_cast<double>(c.trace_packets);
    }
    it.cells.push_back(std::move(c));
  } else {
    std::vector<exp::shard_task> tasks;
    for (const auto& sc : w.cells) tasks.push_back({sc, kModes});
    const auto plan = exp::dispatch::job_plan::from_tasks(std::move(tasks));
    it.dispatch_s = timed(tr, "dispatch.run", root, [&] {
      rep = exp::dispatch::run(plan, cx.spec);
    });
    it.experiment_s = seconds_between(t0, clk::now());
    tr.end(root);
    for (const auto& r : rep.results) {
      it.record_job_s.push_back(r.original_wall_seconds);
      it.record_s += r.original_wall_seconds;
      it.record_pkts += static_cast<double>(r.trace_packets);
      for (const auto& x : r.replays) {
        it.replay_job_s.push_back(x.wall_seconds);
        it.replay_s += x.wall_seconds;
        it.replay_pkts += static_cast<double>(r.trace_packets);
      }
      it.cells.push_back({r.sc.label(), r.trace_packets, r.replays});
    }
  }
  it.jobs = rep.status.size();
  it.jobs_failed = rep.jobs_failed();
  it.worker_failures = rep.worker_failures.size();
  if (it.jobs_failed != 0) {
    for (std::size_t j = 0; j < rep.status.size(); ++j) {
      if (rep.status[j] != exp::dispatch::job_status::ok) {
        fail("dispatch job " + std::to_string(j) + " " +
             exp::dispatch::to_string(rep.status[j]) + ": " + rep.errors[j]);
      }
    }
  }
  check_outputs(w, it);
  it.digest = digest_of(it);
  if (!trace_file_bytes.empty()) {
    fnv f;
    f.add(it.digest);
    f.add(trace_file_bytes.data(), trace_file_bytes.size());
    it.digest = f.hex();
  }
  return it;
}

// --- set-up: make_topology plus one network build ----------------------------

struct setup_sample {
  double make_s = 0;
  double build_s = 0;
};

setup_sample run_setup(context& cx, int parent) {
  setup_sample s;
  topo::topology t;
  s.make_s = timed(cx.tr, "topo.make", parent,
                   [&] { t = exp::make_topology(cx.w.topo); });
  s.build_s = timed(cx.tr, "net.build", parent, [&] {
    sim::simulator sim;
    net::network net(sim);
    topo::populate(t, net);
    net.set_scheduler_factory(
        core::make_factory(core::sched_kind::fifo, 1, &net));
    net.build();
  });
  return s;
}

// --- traced layer pass -------------------------------------------------------

// Per-iteration layer numbers from the serial pass (one public call per
// span, no dispatch).
struct layer_sample {
  double record_s = 0;
  double record_pkts = 0;
  std::uint64_t record_peak_pool = 0;
  std::uint64_t record_peak_slots = 0;
  double encode_s = 0;
  double bytes_per_pkt = 0;
  double decode_pkts_per_s = 0;
  std::map<std::string, double> replay_s;  // by mode
  std::map<std::string, std::uint64_t> overdue, overdue_beyond_T;
  std::uint64_t replay_peak_pool = 0;
  std::uint64_t replay_peak_slots = 0;
  std::uint64_t dropped = 0;
};

layer_sample run_layer_pass(context& cx) {
  const workload& w = cx.w;
  tracer& tr = cx.tr;
  layer_sample ls;
  const int root = tr.begin("layers", -1);
  for (std::size_t ci = 0; ci < w.cells.size(); ++ci) {
    exp::original_run orig;
    ls.record_s += timed(tr, "record", root,
                         [&] { orig = exp::run_original(w.cells[ci]); });
    ls.record_pkts += static_cast<double>(orig.trace.packets.size());
    ls.record_peak_pool =
        std::max(ls.record_peak_pool, orig.peak_pool_packets);
    ls.record_peak_slots =
        std::max(ls.record_peak_slots, orig.peak_event_slots);
    // The trace layer is timed on the first cell of every workload; only
    // the disk workload's experiment pays it.
    if (ci == 0) {
      ls.encode_s = timed(tr, "trace.encode", root, [&] {
        net::save_trace_v3(cx.trace_path, orig.trace);
      });
      std::uint64_t decoded = 0;
      const double dec_s = timed(tr, "trace.decode", root, [&] {
        const auto cur = net::open_trace_cursor(cx.trace_path);
        std::vector<const net::packet_record*> run;
        std::size_t n = 0;
        while ((n = cur->next_run(run)) != 0) {
          decoded += n;
          run.clear();
        }
      });
      if (decoded != orig.trace.packets.size()) {
        fail("decoded " + std::to_string(decoded) + " of " +
             std::to_string(orig.trace.packets.size()) + " records");
      }
      ls.decode_pkts_per_s = static_cast<double>(decoded) / dec_s;
      ls.bytes_per_pkt = static_cast<double>(read_file(cx.trace_path).size()) /
                         static_cast<double>(decoded);
    }
    for (const auto mode : kModes) {
      const std::string m = slug(mode);
      core::replay_result r;
      ls.replay_s[m] += timed(tr, "replay." + m, root, [&] {
        r = w.disk ? exp::run_replay_file(cx.trace_path, orig.topology,
                                          orig.threshold_T, mode)
                   : exp::run_replay(orig, mode);
      });
      ls.overdue[m] += r.overdue;
      ls.overdue_beyond_T[m] += r.overdue_beyond_T;
      ls.dropped += r.dropped;
      ls.replay_peak_pool = std::max(ls.replay_peak_pool, r.peak_pool_packets);
      ls.replay_peak_slots = std::max(ls.replay_peak_slots, r.peak_event_slots);
    }
  }
  tr.end(root);
  return ls;
}

// --- output ------------------------------------------------------------------

struct metric {
  std::string name;
  double value;
  std::string unit;
};

std::string json_escape(const std::string& s) {
  std::string o;
  for (const char c : s) {
    if (c == '"' || c == '\\') o += '\\';
    if (static_cast<unsigned char>(c) < 0x20) continue;
    o += c;
  }
  return o;
}

std::string cpu_model() {
  std::ifstream in("/proc/cpuinfo");
  std::string line;
  while (std::getline(in, line)) {
    if (line.rfind("model name", 0) == 0) {
      const auto colon = line.find(':');
      if (colon != std::string::npos) return line.substr(colon + 2);
    }
  }
  return "unknown";
}

double peak_rss_mb() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  return static_cast<double>(std::max(self.ru_maxrss, children.ru_maxrss)) /
         1024.0;
}

// CPU seconds of this process and its reaped children (process workers).
double cpu_seconds() {
  rusage self{}, children{};
  getrusage(RUSAGE_SELF, &self);
  getrusage(RUSAGE_CHILDREN, &children);
  const auto sec = [](const timeval& t) {
    return static_cast<double>(t.tv_sec) +
           1e-6 * static_cast<double>(t.tv_usec);
  };
  return sec(self.ru_utime) + sec(self.ru_stime) + sec(children.ru_utime) +
         sec(children.ru_stime);
}

// One JSON object per line: every span, then the per-layer metrics.
void write_spans(const context& cx, const std::vector<metric>& counts,
                 const std::string& path) {
  std::FILE* f = std::fopen(path.c_str(), "w");
  if (f == nullptr) fail("cannot write " + path);
  for (const auto& s : cx.tr.spans()) {
    std::fprintf(f,
                 "{\"name\": \"%s\", \"start\": %.9f, \"end\": %.9f, "
                 "\"parent\": %d, \"workload\": \"%s\"}\n",
                 json_escape(s.name).c_str(), s.start, s.end, s.parent,
                 cx.w.name.c_str());
  }
  std::fprintf(f, "{\"metrics\": {");
  for (std::size_t i = 0; i < counts.size(); ++i) {
    std::fprintf(f, "%s\"%s\": %.17g", i ? ", " : "", counts[i].name.c_str(),
                 counts[i].value);
  }
  std::fprintf(f, "}, \"workload\": \"%s\"}\n", cx.w.name.c_str());
  if (std::fclose(f) != 0) fail("cannot write " + path);
}

struct options {
  std::string workload;
  std::uint64_t seed = 1;
  double seconds = 10;
  bool trace = false;
  bool tiny = false;
  std::string expect_digest;
  std::string out_dir = ".";
};

options parse_options(int argc, char** argv) {
  options o;
  for (int i = 1; i < argc; ++i) {
    const std::string k = argv[i];
    if (i + 1 >= argc) fail("missing value for " + k);
    const std::string v = argv[++i];
    try {
      if (k == "--workload") {
        o.workload = v;
      } else if (k == "--seed") {
        o.seed = std::stoull(v);
      } else if (k == "--seconds") {
        o.seconds = std::stod(v);
      } else if (k == "--trace") {
        if (v != "0" && v != "1") fail("--trace takes 0 or 1");
        o.trace = v == "1";
      } else if (k == "--size") {
        if (v != "full" && v != "tiny") fail("--size takes full or tiny");
        o.tiny = v == "tiny";
      } else if (k == "--expect-digest") {
        o.expect_digest = v;
      } else if (k == "--out-dir") {
        o.out_dir = v;
      } else {
        fail("unknown option " + k);
      }
    } catch (const std::logic_error&) {
      fail("bad value '" + v + "' for " + k);
    }
  }
  if (o.workload.empty()) fail("--workload is required");
  return o;
}

}  // namespace

int main(int argc, char** argv) {
  const options opt = parse_options(argc, argv);
  context cx{make_workload(opt.workload, opt.seed, opt.tiny),
             {},
             opt.out_dir + "/" + opt.workload + ".v3",
             tracer(opt.trace)};
  cx.spec = exp::dispatch::backend_spec::parse(cx.w.backend);

  std::printf(
      "# context: {\"workload\": \"%s\", \"seed\": %llu, \"size\": \"%s\", "
      "\"backend\": \"%s\", \"nproc\": %u, \"cpu\": \"%s\", "
      "\"compiler\": \"%s\", \"build_type\": \"%s\"}\n",
      cx.w.name.c_str(), static_cast<unsigned long long>(opt.seed),
      opt.tiny ? "tiny" : "full", cx.w.backend.c_str(),
      std::thread::hardware_concurrency(), json_escape(cpu_model()).c_str(),
      json_escape(kCompiler).c_str(), UPS_BENCH_BUILD_TYPE);
  std::fflush(stdout);

  const topo::topology topology = exp::make_topology(cx.w.topo);
  std::set<std::int32_t> host_routers;
  for (const auto& h : topology.hosts) host_routers.insert(h.router);

  // Iterations until the time budget is spent; at least one.
  std::vector<iteration> its;
  std::vector<layer_sample> layers;
  std::vector<double> iter_s, setup_s, make_s, build_s;
  const auto start = clk::now();
  do {
    const auto a = clk::now();
    // Set-up cost, sampled before every iteration so its median spans the
    // whole run: at least two rounds, and 0.1 s of them where one round
    // takes well under a millisecond.
    const int setup = cx.tr.begin("setup", -1);
    for (std::size_t n = 0;
         n < 2 || (n < 100 && seconds_between(a, clk::now()) < 0.1); ++n) {
      const auto s = run_setup(cx, setup);
      make_s.push_back(s.make_s);
      build_s.push_back(s.build_s);
      setup_s.push_back(s.make_s + s.build_s);
    }
    cx.tr.end(setup);
    const double cpu0 = cpu_seconds();
    its.push_back(run_experiment(cx));
    its.back().cpu_s = cpu_seconds() - cpu0;
    if (its.back().digest != its.front().digest) {
      fail("iteration " + std::to_string(its.size()) + " digest " +
           its.back().digest + " != first iteration's " +
           its.front().digest + " (nondeterministic outputs)");
    }
    if (opt.trace) layers.push_back(run_layer_pass(cx));
    iter_s.push_back(seconds_between(a, clk::now()));
  } while (seconds_between(start, clk::now()) + median(iter_s) <=
           opt.seconds);
  std::remove(cx.trace_path.c_str());

  const iteration& first = its.front();
  std::printf("# digest: %s\n", first.digest.c_str());
  if (!opt.expect_digest.empty() && opt.expect_digest != first.digest) {
    fail("digest " + first.digest + " != expected " + opt.expect_digest +
         " for " + cx.w.name + " seed " + std::to_string(opt.seed));
  }
  // Reported, not gated: preemptive LSTF leaves packets overdue beyond T in
  // some cells of every workload (the fat tree with or without flow
  // control), so "never beyond T" does not hold for this simulator as it
  // stands.
  for (const auto& c : first.cells) {
    std::printf("# %s: preemptive LSTF overdue beyond T %llu (reported, "
                "not gated)\n",
                c.label.c_str(),
                static_cast<unsigned long long>(
                    c.replays[1].result.overdue_beyond_T));
    if (!cx.w.gate_lstf_edf) {
      std::printf("# %s: LSTF overdue %.4f vs EDF %.4f (reported, not "
                  "gated)\n",
                  c.label.c_str(), c.replays[0].result.frac_overdue(),
                  c.replays[2].result.frac_overdue());
    }
  }

  const auto sum_of_job_medians = [&](std::vector<double> iteration::*jobs) {
    double total = 0;
    for (std::size_t j = 0; j < (first.*jobs).size(); ++j) {
      std::vector<double> v;
      for (const auto& it : its) v.push_back((it.*jobs)[j]);
      total += median(v);
    }
    return total;
  };
  const auto med = [&](auto field) {
    std::vector<double> v;
    for (const auto& it : its) v.push_back(field(it));
    return median(v);
  };
  std::uint64_t attempted = 0, failed = 0, lstf_overdue = 0, lstf_total = 0;
  for (const auto& it : its) {
    attempted += it.jobs;
    failed += it.jobs_failed;
  }
  for (const auto& c : first.cells) {
    lstf_overdue += c.replays[0].result.overdue;
    lstf_total += c.replays[0].result.total;
  }

  std::vector<metric> ms;
  if (!opt.trace) {
    ms = {
        {"setup_s", median(setup_s), "s"},
        {"record_pkts_per_s",
         first.record_pkts / sum_of_job_medians(&iteration::record_job_s),
         "pkt/s"},
        {"replay_pkts_per_s",
         first.replay_pkts / sum_of_job_medians(&iteration::replay_job_s),
         "pkt/s"},
        {"experiment_s",
         med([](const iteration& i) { return i.experiment_s; }), "s"},
        {"peak_rss_mb", peak_rss_mb(), "MB"},
        // The replay-fidelity number: the share of packets the LSTF replay
        // delivers by their original output time. Its complement, the
        // overdue fraction, is a per-layer number: it moves 20-30% from
        // seed to seed, the on-time share under 2%.
        {"lstf_ontime_frac",
         1.0 - static_cast<double>(lstf_overdue) /
                   static_cast<double>(lstf_total),
         "frac"},
        {"jobs_ok_frac",
         1.0 - static_cast<double>(failed) / static_cast<double>(attempted),
         "frac"},
    };
  } else {
    const double builds =
        static_cast<double>(cx.w.cells.size() * (1 + kModes.size()));
    const double build = median(build_s);
    const double workers =
        cx.spec.kind == exp::dispatch::backend_kind::serial
            ? 1.0
            : static_cast<double>(cx.spec.workers);
    const auto lmed = [&](auto field) {
      std::vector<double> v;
      for (const auto& l : layers) v.push_back(field(l));
      return median(v);
    };
    ms = {
        {"topo.make_s", median(make_s), "s"},
        {"topo.routers", static_cast<double>(topology.routers), "count"},
        {"topo.host_routers", static_cast<double>(host_routers.size()),
         "count"},
        {"net.build_s", build, "s"},
        {"net.builds", builds, "count"},
        {"net.build_share", med([&](const iteration& i) {
           return builds * build / (i.record_s + i.replay_s);
         }),
         "frac"},
        {"record.s", lmed([](const layer_sample& l) { return l.record_s; }),
         "s"},
        {"record.pkts", layers.front().record_pkts, "count"},
        {"record.peak_pool_packets",
         static_cast<double>(layers.front().record_peak_pool), "count"},
        {"record.peak_event_slots",
         static_cast<double>(layers.front().record_peak_slots), "count"},
        {"trace.encode_s",
         lmed([](const layer_sample& l) { return l.encode_s; }), "s"},
        {"trace.bytes_per_pkt", layers.front().bytes_per_pkt, "B/pkt"},
        {"trace.decode_pkts_per_s",
         lmed([](const layer_sample& l) { return l.decode_pkts_per_s; }),
         "pkt/s"},
        {"trace.stalled_pkts", static_cast<double>(first.stalled_pkts),
         "count"},
        {"trace.stall_time_s", first.stall_time_s, "s"},
    };
    for (const auto mode : kModes) {
      const std::string m = slug(mode);
      const double replay = lmed(
          [&](const layer_sample& l) { return l.replay_s.at(m); });
      ms.push_back({"core.replay_s." + m, replay, "s"});
      ms.push_back({"core.replay_self_s." + m,
                    replay - static_cast<double>(cx.w.cells.size()) * build,
                    "s"});
    }
    ms.push_back({"core.peak_pool_packets",
                  static_cast<double>(layers.front().replay_peak_pool),
                  "count"});
    ms.push_back({"core.peak_event_slots",
                  static_cast<double>(layers.front().replay_peak_slots),
                  "count"});
    for (const auto mode : kModes) {
      const std::string m = slug(mode);
      ms.push_back({"core.overdue." + m,
                    static_cast<double>(layers.front().overdue.at(m)),
                    "count"});
      ms.push_back({"core.overdue_beyond_T." + m,
                    static_cast<double>(layers.front().overdue_beyond_T.at(m)),
                    "count"});
    }
    ms.push_back({"core.dropped", static_cast<double>(layers.front().dropped),
                  "count"});
    ms.push_back({"core.lstf_overdue_frac",
                  static_cast<double>(lstf_overdue) /
                      static_cast<double>(lstf_total),
                  "frac"});
    ms.push_back({"dispatch.wall_s",
                  med([](const iteration& i) { return i.dispatch_s; }), "s"});
    const auto job_s = [&](const iteration& i) {
      return (cx.w.disk ? 0.0 : i.record_s) + i.replay_s;
    };
    ms.push_back({"dispatch.job_s_sum", med(job_s), "s"});
    ms.push_back({"dispatch.busy_frac", med([&](const iteration& i) {
                    return job_s(i) / (i.dispatch_s * workers);
                  }),
                  "frac"});
    ms.push_back({"dispatch.jobs", static_cast<double>(first.jobs), "count"});
    ms.push_back({"dispatch.jobs_failed", static_cast<double>(failed),
                  "count"});
    std::size_t worker_failures = 0;
    for (const auto& it : its) worker_failures += it.worker_failures;
    ms.push_back({"dispatch.worker_failures",
                  static_cast<double>(worker_failures), "count"});
    ms.push_back({"trace.experiment_s",
                  med([](const iteration& i) { return i.experiment_s; }),
                  "s"});
    ms.push_back({"trace.overhead_s",
                  cx.tr.overhead_s() / static_cast<double>(its.size()), "s"});
    ms.push_back({"trace.spans", static_cast<double>(cx.tr.spans().size()),
                  "count"});
    const std::string spans_path =
        opt.out_dir + "/spans-" + cx.w.name + ".jsonl";
    write_spans(cx, ms, spans_path);
    std::printf("# spans: %s\n", spans_path.c_str());
  }

  std::printf("# iterations: %zu\n", its.size());
  for (std::size_t i = 0; i < its.size(); ++i) {
    std::printf("# iteration %zu: experiment %.4f s, cpu %.4f s, record "
                "%.4f s, replay %.4f s\n",
                i + 1, its[i].experiment_s, its[i].cpu_s, its[i].record_s,
                its[i].replay_s);
  }
  for (const auto& m : ms) {
    std::printf("%-34s %.17g %s\n", m.name.c_str(), m.value, m.unit.c_str());
  }
  std::string json = "{\"correct\": true, \"attempted\": " +
                     std::to_string(attempted) +
                     ", \"failed\": " + std::to_string(failed) +
                     ", \"metrics\": {";
  for (std::size_t i = 0; i < ms.size(); ++i) {
    char val[64];
    std::snprintf(val, sizeof val, "%.17g", ms[i].value);
    json += (i ? ", \"" : "\"") + ms[i].name + "\": {\"value\": " + val +
            ", \"unit\": \"" + ms[i].unit + "\"}";
  }
  json += "}}";
  std::printf("%s\n", json.c_str());
  return 0;
}
