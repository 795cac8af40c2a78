// Fig. 4c/4d — "TAA vs Amoeba" under fixed uniform bandwidth.
//
// Following the paper's setup ("we set the bandwidth of links in the B4
// network to 100Gbps, i.e., 10 units of bandwidth"), every link gets 10
// units and the request count sweeps until capacity binds.  Fig. 4c is the
// service revenue, Fig. 4d the number of accepted requests; the paper
// reports TAA up to 50.4% more revenue and up to 33% more acceptances.
#include <iostream>

#include "bench_util.h"
#include "sim/experiments.h"
#include "util/table.h"

int run(int argc, char** argv) {
  using namespace metis;
  const bench::TableFlags flags = bench::parse_table_flags(
      argc, argv,
      "bench_fig4cd_taa_vs_amoeba: "
      "Fig. 4c/4d: TAA vs Amoeba under uniform 100 Gbps links",
      /*parallel=*/false);
  if (flags.help) return 0;
  sim::Fig4cdConfig config;
  config.sweep.request_counts = {200, 400, 600, 800, 1000};
  config.sweep.seed = 1;
  config.sweep.repetitions = 2;
  config.uniform_capacity = 10;

  std::cout << "=== Fig. 4c/4d: TAA vs Amoeba, B4 with 100 Gbps links ===\n\n";
  const auto rows = sim::run_fig4cd(config);

  TablePrinter revenue({"requests", "TAA revenue", "Amoeba revenue",
                        "TAA/Amoeba", "LP bound"});
  for (const auto& r : rows) {
    revenue.add_row({static_cast<long long>(r.num_requests), r.taa_revenue,
                     r.amoeba_revenue,
                     r.amoeba_revenue > 0 ? r.taa_revenue / r.amoeba_revenue : 0.0,
                     r.lp_revenue_bound});
  }
    bench::emit(revenue, flags.csv, "Fig. 4c: service revenue");

  TablePrinter accepted({"requests", "TAA accepted", "Amoeba accepted",
                         "TAA/Amoeba"});
  for (const auto& r : rows) {
    accepted.add_row({static_cast<long long>(r.num_requests), r.taa_accepted,
                      r.amoeba_accepted,
                      r.amoeba_accepted > 0 ? r.taa_accepted / r.amoeba_accepted
                                            : 0.0});
  }
    bench::emit(accepted, flags.csv, "Fig. 4d: accepted requests");
  bench::write_telemetry(flags.telemetry_path);
  return 0;
}

int main(int argc, char** argv) { return metis::run_guarded(argc, argv, run); }
