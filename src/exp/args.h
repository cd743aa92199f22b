// Minimal CLI flag parsing shared by bench and example binaries.
//
//   --packets=N       override the per-scenario packet budget
//   --seed=N          RNG seed
//   --scale=F         multiply default packet budgets by F
//   --quick           shrink budgets ~10x for smoke runs
//   --utilization=F   override the scenario's target utilization (0 < F < 1)
//   --workload=NAME   traffic source kind: open-loop, paced[:frac],
//                     closed-loop[:outstanding], closed-loop-tcp[:outstanding],
//                     incast[:degree] (see traffic::parse_workload)
//   --dispatch=SPEC   replay fabric backend: serial | thread[:N] |
//                     process[:N] (see dispatch::backend_spec::parse);
//                     empty means the binary's default
//   --fault=SPEC      per-link fault process for the original run:
//                     bernoulli:p | ge:p_g,p_b,r | jam:period_us,duty[,speedup]
//                     (see net::fault_spec::parse); empty means lossless
//   --flow=SPEC       per-link flow control for the original run:
//                     credit:bytes[,rtt_us] | pause:high,low | none
//                     (see net::flow_spec::parse); empty means ungoverned
//   --kill-worker-after=K
//                     fault injection for the process backend: the first
//                     worker SIGKILLs itself after computing its K-th job
//                     but before reporting it (0 = off)
//   --hang-worker-after=K
//                     stall injection for the process backend: the first
//                     worker hangs forever after computing its K-th job
//                     but before reporting it (0 = off); exercises the
//                     coordinator's assign->result watchdog
//   --worker-timeout-ms=N
//                     process-backend watchdog: a worker silent for N ms
//                     after an assignment is classified timed_out and its
//                     range reassigned (0 = backend default)
//
// Numeric values are checked: a count (N, K) is digits only, a real (F)
// is a whole finite number, and a utilization lies in (0, 1). Anything
// else — empty, trailing garbage, a sign on a count — throws
// std::invalid_argument naming the flag.
#pragma once

#include <charconv>
#include <cmath>
#include <cstdint>
#include <stdexcept>
#include <string>
#include <string_view>
#include <system_error>
#include <type_traits>

namespace ups::exp {

// Parses one numeric flag value: an integral T is a count, which takes no
// sign, and a floating-point T a finite real. The whole of `text` must be
// the number (from_chars takes no leading space and no '+'), in T's range.
template <class T>
[[nodiscard]] T parse_flag_number(std::string_view flag,
                                  std::string_view text) {
  T v{};
  const char* end = text.data() + text.size();
  const auto [ptr, ec] = std::from_chars(text.data(), end, v);
  bool ok = !text.empty() && ec == std::errc() && ptr == end;
  if constexpr (std::is_integral_v<T>) ok = ok && text.front() != '-';
  if constexpr (std::is_floating_point_v<T>) ok = ok && std::isfinite(v);
  if (!ok) {
    throw std::invalid_argument(std::string(flag) + ": bad value '" +
                                std::string(text) + "'");
  }
  return v;
}

// A target link utilization, which must lie strictly inside (0, 1).
[[nodiscard]] inline double parse_utilization_flag(std::string_view flag,
                                                   std::string_view text) {
  const double u = parse_flag_number<double>(flag, text);
  if (!(u > 0.0 && u < 1.0)) {
    throw std::invalid_argument(std::string(flag) + ": '" +
                                std::string(text) +
                                "' is outside (0, 1)");
  }
  return u;
}

struct args {
  std::uint64_t packets = 0;  // 0: use the experiment default
  std::uint64_t seed = 1;
  double scale = 1.0;
  bool quick = false;
  double utilization = 0.0;  // <= 0: use the experiment default
  std::string workload;      // empty: use the experiment default
  std::string dispatch;      // empty: use the binary's default backend
  std::string fault;         // empty: lossless links
  std::string flow;          // empty: ungoverned links
  std::uint64_t kill_worker_after = 0;  // 0: fault injection off
  std::uint64_t hang_worker_after = 0;  // 0: stall injection off
  std::int64_t worker_timeout_ms = 0;   // 0: backend default

  [[nodiscard]] static args parse(int argc, char** argv) {
    args a;
    for (int i = 1; i < argc; ++i) {
      const std::string s = argv[i];
      const auto value = [&s] {
        return std::string_view(s).substr(s.find('=') + 1);
      };
      const auto count = [&value](std::string_view flag) {
        return parse_flag_number<std::uint64_t>(flag, value());
      };
      if (s.rfind("--packets=", 0) == 0) {
        a.packets = count("--packets");
      } else if (s.rfind("--seed=", 0) == 0) {
        a.seed = count("--seed");
      } else if (s.rfind("--scale=", 0) == 0) {
        a.scale = parse_flag_number<double>("--scale", value());
      } else if (s.rfind("--utilization=", 0) == 0) {
        a.utilization = parse_utilization_flag("--utilization", value());
      } else if (s.rfind("--workload=", 0) == 0) {
        a.workload = s.substr(11);
      } else if (s.rfind("--dispatch=", 0) == 0) {
        a.dispatch = s.substr(11);
      } else if (s.rfind("--fault=", 0) == 0) {
        a.fault = s.substr(8);
      } else if (s.rfind("--flow=", 0) == 0) {
        a.flow = s.substr(7);
      } else if (s.rfind("--kill-worker-after=", 0) == 0) {
        a.kill_worker_after = count("--kill-worker-after");
      } else if (s.rfind("--hang-worker-after=", 0) == 0) {
        a.hang_worker_after = count("--hang-worker-after");
      } else if (s.rfind("--worker-timeout-ms=", 0) == 0) {
        a.worker_timeout_ms =
            parse_flag_number<std::int64_t>("--worker-timeout-ms", value());
      } else if (s == "--quick") {
        a.quick = true;
      }
    }
    return a;
  }

  // Applies overrides to an experiment's default budget.
  [[nodiscard]] std::uint64_t budget(std::uint64_t def) const {
    if (packets != 0) return packets;
    double b = static_cast<double>(def) * scale;
    if (quick) b /= 10.0;
    return static_cast<std::uint64_t>(b < 1000 ? 1000 : b);
  }
};

}  // namespace ups::exp
