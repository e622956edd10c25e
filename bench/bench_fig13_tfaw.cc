/**
 * @file
 * Figure 13: impact of the tFAW activation-rate limit on pLUTo
 * performance, at 0% (no constraint, the paper's default), 50% and
 * 100% (nominal 13.328 ns) of the window, for every Figure 7
 * workload on pLUTo-BSA DDR4 at 16-subarray parallelism.
 */

#include "bench_common.hh"

using namespace pluto;
using namespace pluto::bench;

int
main()
{
    section("Figure 13: relative performance under tFAW scaling "
            "(100% = unconstrained performance)");

    const PlutoConfig cfg{core::Design::Bsa, dram::MemoryKind::Ddr4};
    AsciiTable t({"Workload", "tFAW=0% (none)", "tFAW=50%",
                  "tFAW=100% (nominal)"});
    std::vector<double> rel50, rel100;

    for (const auto &w : workloads::figure7Workloads()) {
        const double t0 = runOn(*w, cfg, 0.0).timeNs;
        const double t50 = runOn(*w, cfg, 0.5).timeNs;
        const double t100 = runOn(*w, cfg, 1.0).timeNs;
        rel50.push_back(t0 / t50);
        rel100.push_back(t0 / t100);
        t.addRow({w->name(), "100.0%", fmtPct(t0 / t50),
                  fmtPct(t0 / t100)});
    }
    t.addRow({"GMEAN", "100.0%", fmtPct(geomean(rel50)),
              fmtPct(geomean(rel100))});
    std::printf("%s", t.render().c_str());
    std::printf("\nPaper reference: ~90%% at tFAW=50%% and ~80%% at "
                "nominal. Our strict sliding-window enforcement at "
                "16-subarray parallelism yields a larger penalty for "
                "pure-LUT workloads; the monotonic shape "
                "holds.\n");
    return 0;
}
