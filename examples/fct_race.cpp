// FCT race (§3.1 / Figure 2): TCP flows on Internet2 under FIFO, SRPT, SJF
// and LSTF with slack = flow_size x D; prints mean FCT bucketed by flow
// size.
//
// Usage: fct_race [--packets=N] [--seed=N] [--quick]
#include <cstdio>
#include <iostream>

#include "exp/args.h"
#include "exp/fct_experiment.h"
#include "stats/table.h"

int main(int argc, char** argv) {
  using namespace ups;
  const auto a = exp::args::parse_or_exit(argc, argv);

  exp::fct_config cfg;
  cfg.seed = a.seed;
  // The heavy-tailed sizes mean ~1.5 MB/flow: keep enough packets that the
  // schedulers genuinely contend (see DESIGN.md on the Figure 2 regime).
  cfg.packet_budget = a.budget(120'000);

  std::printf("running 4 schedulers x TCP on %s @%d%%...\n\n",
              exp::to_string(cfg.topo),
              static_cast<int>(cfg.utilization * 100));

  std::vector<exp::fct_result> results;
  for (const auto v : {exp::fct_variant::fifo, exp::fct_variant::srpt,
                       exp::fct_variant::sjf, exp::fct_variant::lstf}) {
    results.push_back(exp::run_fct(v, cfg));
    std::printf("  %-5s mean FCT %.3f s over %llu flows (%llu drops)\n",
                results.back().label.c_str(),
                results.back().overall_mean_fct_s,
                static_cast<unsigned long long>(results.back().flows),
                static_cast<unsigned long long>(results.back().drops));
  }

  std::printf("\nmean FCT (s) bucketed by flow size:\n");
  stats::table t({"flow size <=", "FIFO", "SRPT", "SJF", "LSTF"});
  const auto& edges = results.front().bucket_edges;
  for (std::size_t b = 0; b < edges.size(); ++b) {
    if (results.front().bucket_counts[b] == 0) continue;
    std::vector<std::string> row{std::to_string(edges[b]) + " B"};
    for (const auto& r : results) {
      row.push_back(stats::table::fmt(r.bucket_mean_fct_s[b], 4));
    }
    t.add_row(std::move(row));
  }
  t.print(std::cout);
  std::printf("\nFigure 2's shape: SJF ~ SRPT << FIFO on the mean, and LSTF"
              " tracks SJF.\n");
  return 0;
}
