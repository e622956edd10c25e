/**
 * @file
 * Figure 7: speedup of GPU, PnM and the six pLUTo configurations
 * relative to the baseline CPU, per workload plus the geometric mean.
 */

#include "bench_common.hh"

using namespace pluto;
using namespace pluto::bench;

int
main()
{
    section("Figure 7: speedup over the baseline CPU "
            "(higher is better)");

    const auto configs = allConfigs();
    std::vector<std::string> header = {"Workload", "GPU", "PnM"};
    for (const auto &c : configs)
        header.push_back(c.label());
    AsciiTable table(header);

    std::vector<std::vector<double>> columns(2 + configs.size());

    for (const auto &w : workloads::figure7Workloads()) {
        const auto rates = w->rates();
        std::vector<std::string> row = {w->name()};
        columns[0].push_back(rates.cpu / rates.gpu);
        columns[1].push_back(rates.cpu / rates.pnm);
        row.push_back(fmtX(rates.cpu / rates.gpu));
        row.push_back(fmtX(rates.cpu / rates.pnm));
        for (std::size_t i = 0; i < configs.size(); ++i) {
            const auto res = runOn(*w, configs[i]);
            const double speedup = rates.cpu / res.nsPerElem();
            columns[2 + i].push_back(speedup);
            row.push_back(fmtX(speedup));
        }
        table.addRow(row);
    }

    std::vector<std::string> gmean_row = {"GMEAN"};
    for (const auto &col : columns)
        gmean_row.push_back(fmtX(geomean(col)));
    table.addRow(gmean_row);

    std::printf("%s", table.render().c_str());
    std::printf("\nPaper reference (GMEAN over CPU): GSA 357x, "
                "BSA 713x, GMC 1413x (DDR4); 3DS ~1.38x higher. "
                "Our CPU model is more charitable to the CPU, "
                "compressing absolute ratios; orderings are "
                "preserved (perfbench/README.md, paper_gap_x).\n");
    return 0;
}
