// Ablation (§2.3(7)): how close is each candidate UPS to universal?
//
// Replays the same default-scenario schedule with every candidate: LSTF,
// preemptive LSTF, EDF (must equal LSTF), simple priorities with
// priority = o(p), and the omniscient initialization (must be perfect).
//
// Usage: bench_ablation_priority_replay [--packets=N] [--seed=N] [--scale=F]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/replay_experiment.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace ups;
  const auto a = exp::args::parse_or_exit(argc, argv);

  exp::scenario sc;
  sc.seed = a.seed;
  sc.packet_budget = a.budget(100'000);
  sc.record_hops = true;  // omniscient replay needs per-hop times

  std::printf("Candidate-UPS comparison on %s (%llu packets)\n\n",
              sc.label().c_str(),
              static_cast<unsigned long long>(sc.packet_budget));
  const auto orig = exp::run_original(sc);

  stats::table t({"Replay mode", "Frac overdue", "Frac overdue > T"});
  for (const auto mode :
       {core::replay_mode::lstf, core::replay_mode::lstf_preemptive,
        core::replay_mode::edf, core::replay_mode::priority_output_time,
        core::replay_mode::omniscient}) {
    const auto res = exp::run_replay(orig, mode);
    t.add_row({core::to_string(mode),
               stats::table::fmt_frac(res.frac_overdue()),
               stats::table::fmt_frac(res.frac_overdue_beyond_T())});
    std::printf(".");
    std::fflush(stdout);
  }
  std::printf("\n\n");
  t.print(std::cout);
  std::printf("\nPaper §2.3(7): simple priorities 21%% overdue / 20.69%% >T"
              " vs LSTF 0.21%% / 0.02%%.\nEDF must match LSTF exactly"
              " (Appendix E); omniscient must be 0 (Appendix B).\n");
  return 0;
}
