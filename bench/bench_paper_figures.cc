/**
 * @file
 * `bench_paper_figures examples/scenarios/paper_figures.ini` runs the
 * scenario once, prints Figures 7-10, 13 and 14 from its report, then
 * checks them against the paper (see Ledger); exit 1 on a failed row.
 */

#include <cstdio>
#include <map>
#include <optional>
#include <tuple>

#include "area/model.hh"
#include "bench_common.hh"
#include "common/logging.hh"
#include "common/stats.hh"
#include "common/table.hh"
#include "sim/runner.hh"

using namespace pluto;
using namespace pluto::bench;
using core::Design;
using dram::MemoryKind;
using workloads::BaselineRates;

namespace
{

constexpr Design kDesigns[] = {Design::Gsa, Design::Bsa, Design::Gmc};
constexpr MemoryKind kDdr4 = MemoryKind::Ddr4;
constexpr MemoryKind k3ds = MemoryKind::Hmc3ds;
constexpr MemoryKind kMemories[] = {kDdr4, k3ds};

/** Column label of one pLUTo configuration ("pLUTo-BSA-3DS"). */
std::string
label(Design d, MemoryKind m)
{
    return std::string(core::designName(d)) + (m == k3ds ? "-3DS" : "");
}

/** The campaign's runs by (design, memory, tFAW scale, workload). */
using Grid = std::map<std::tuple<Design, MemoryKind, double, std::string>,
                      const sim::RunRecord *>;

const sim::RunRecord &
cell(const Grid &grid, Design d, MemoryKind m, const std::string &w,
     double faw = 0.0)
{
    const auto it = grid.find({d, m, faw, w});
    if (it == grid.end())
        fatal("scenario has no run of %s on %s at tFAW scale %g",
              w.c_str(), label(d, m).c_str(), faw);
    return *it->second;
}

/** A figure: a value per (row, column), printed with a GMEAN row.
 *  header[0] titles the row-name column. */
struct Figure
{
    std::vector<std::string> header;
    std::vector<std::string> rows;
    std::map<std::string, std::vector<double>> columns;

    void
    add(const std::string &row, const std::vector<double> &values)
    {
        rows.push_back(row);
        for (std::size_t c = 0; c < values.size(); ++c)
            columns[header[c + 1]].push_back(values[c]);
    }

    void
    print(std::string (*fmt)(double)) const
    {
        AsciiTable t(header);
        for (std::size_t i = 0; i <= rows.size(); ++i) {
            const bool mean = i == rows.size();
            std::vector<std::string> cells = {mean ? "GMEAN" : rows[i]};
            for (std::size_t c = 1; c < header.size(); ++c)
                cells.push_back(fmt(mean ? gmean(header[c])
                                         : columns.at(header[c])[i]));
            t.addRow(cells);
        }
        std::printf("%s", t.render().c_str());
    }

    double gmean(const std::string &c) const { return geomean(columns.at(c)); }

    double gmean(Design d, MemoryKind m = kDdr4) const
    {
        return gmean(label(d, m));
    }
};

/** Per-element cost of one system on one workload. */
struct Cost
{
    double ns;
    double pj;
    AreaMm2 area;
};

/** A host column: label, system and its ns/element rate. */
using Host =
    std::tuple<std::string, baselines::HostSpec, double BaselineRates::*>;

/** Print Figure 7, 8, 9 or 10: per workload of `set`, `ratio` of its
 *  host rates and the cost of each host in `hosts` and each pLUTo
 *  configuration (whose area is its whole chip). */
template <typename Ratio>
Figure
ratioFigure(const Grid &grid, const std::string &title,
            const std::vector<workloads::WorkloadPtr> &set,
            const std::vector<Host> &hosts, Ratio ratio)
{
    section(title);
    const area::AreaModel areas;
    Figure fig;
    fig.header = {"Workload"};
    for (const Host &h : hosts)
        fig.header.push_back(std::get<0>(h));
    for (const MemoryKind m : kMemories)
        for (const Design d : kDesigns)
            fig.header.push_back(label(d, m));
    for (const auto &w : set) {
        const BaselineRates r = w->rates();
        std::vector<double> values;
        for (const auto &[name, spec, rate] : hosts) {
            const auto c = baselines::costAt(r.*rate, spec);
            values.push_back(ratio(r, {c.timeNs, c.energyPj, spec.dieArea}));
        }
        for (const MemoryKind m : kMemories)
            for (const Design d : kDesigns) {
                const auto &res = cell(grid, d, m, w->name()).result;
                values.push_back(ratio(r, {res.nsPerElem(), res.pjPerElem(),
                                           areas.plutoChipArea(m, d)}));
            }
        fig.add(w->name(), values);
    }
    fig.print(fmtX);
    return fig;
}

/**
 * The paper claims ledger, one printed row per claim. An ordering row
 * requires columns `cols` of a figure to rise strictly on every row;
 * its factor is the tightest step. A gap row is ours / paper, pinned
 * at its current value +-1%: the simulator is deterministic, so a
 * model change that moves a figure edits a pin.
 */
struct Ledger
{
    AsciiTable table{
        {"Claim", "Paper", "Ours", "Factor", "Bound", "Verdict"}};
    int failed = 0;

    void
    add(const std::string &claim, const std::string &paper,
        const std::string &ours, double factor, const std::string &bound,
        bool ok)
    {
        table.addRow({claim, paper, ours, fmtSig(factor, 4), bound,
                      ok ? "ok" : "FAIL"});
        failed += ok ? 0 : 1;
    }

    void
    gap(const std::string &claim, double paper, double ours,
        double pinned, std::string (*fmt)(double) = fmtX)
    {
        const double factor = ours / paper;
        add(claim, fmt(paper), fmt(ours), factor,
            fmtSig(pinned, 4) + " +-1%",
            factor >= pinned * 0.99 && factor <= pinned * 1.01);
    }

    void
    ordering(const std::string &claim, const std::string &paper,
             const Figure &fig, const std::vector<std::string> &cols,
             std::string (*fmt)(double) = fmtX)
    {
        const auto at = [&](std::size_t c, std::size_t row) {
            return fig.columns.at(cols[c])[row];
        };
        double tightest = at(1, 0) / at(0, 0);
        std::size_t worst = 0;
        for (std::size_t i = 0; i < fig.rows.size(); ++i)
            for (std::size_t c = 1; c < cols.size(); ++c)
                if (at(c, i) / at(c - 1, i) < tightest) {
                    tightest = at(c, i) / at(c - 1, i);
                    worst = i;
                }
        std::string ours = fig.rows[worst] + ":";
        for (std::size_t c = 0; c < cols.size(); ++c)
            ours += (c ? " < " : " ") + fmt(at(c, worst));
        add(claim, paper, ours, tightest, "> 1", tightest > 1.0);
    }
};

} // namespace

int
main(int argc, char **argv)
{
    std::string err = "usage: bench_paper_figures SCENARIO.ini";
    const auto cfg =
        argc == 2 ? sim::SimConfig::load(argv[1], err) : std::nullopt;
    if (!cfg) {
        std::fprintf(stderr, "%s\n", err.c_str());
        return 1;
    }
    const sim::ScenarioReport report = sim::ScenarioRunner(*cfg).run();

    std::map<std::string, const runtime::DeviceConfig *> devices;
    for (const auto &d : cfg->devices)
        devices[d.name] = &d.config;
    Grid grid;
    for (const auto &r : report.runs) {
        const runtime::DeviceConfig *dc = devices.at(r.variant);
        if (!grid.try_emplace({dc->design, dc->memory, dc->fawScale,
                               r.workload},
                              &r)
                 .second)
            fatal("scenario has more than one run of %s on %s at tFAW "
                  "scale %g", r.workload.c_str(),
                  label(dc->design, dc->memory).c_str(), dc->fawScale);
    }

    using enum Design;
    const auto cpu = baselines::cpuSpec();
    const Host gpu{"GPU", baselines::gpuSpec(), &BaselineRates::gpu};
    const Host pnm{"PnM", baselines::pnmSpec(), &BaselineRates::pnm};
    const auto fig7set = workloads::figure7Workloads();
    using R = const BaselineRates &;
    using C = const Cost &;

    const Figure fig7 = ratioFigure(
        grid, "Figure 7: speedup over the baseline CPU (higher is better)",
        fig7set, {gpu, pnm}, [](R r, C c) { return r.cpu / c.ns; });
    const Figure fig8 = ratioFigure(
        grid, "Figure 8: speedup per unit area over CPU (higher is better)",
        fig7set, {gpu}, [&](R r, C c) {
            return (1.0 / (c.ns * c.area)) / (1.0 / (r.cpu * cpu.dieArea));
        });
    const Figure fig9 = ratioFigure(
        grid, "Figure 9: speedup over the FPGA baseline (higher is better)",
        workloads::figure9Workloads(), {},
        [](R r, C c) { return r.fpga / c.ns; });
    const Figure fig10 = ratioFigure(
        grid,
        "Figure 10: CPU-normalized energy savings (CPU energy / system "
        "energy; higher is better)",
        fig7set, {gpu}, [&](R r, C c) {
            return units::energyFromPower(cpu.power, r.cpu) / c.pj;
        });

    // Figure 13: BSA-DDR4 time with no tFAW limit over its time at 50%
    // and 100% of the nominal window.
    section("Figure 13: relative performance under tFAW scaling "
            "(100% = unconstrained performance)");
    Figure fig13;
    fig13.header = {"Workload", "tFAW=0% (none)", "tFAW=50%",
                    "tFAW=100% (nominal)"};
    for (const auto &w : fig7set) {
        std::vector<double> t;
        for (const double faw : {0.0, 0.5, 1.0})
            t.push_back(cell(grid, Bsa, kDdr4, w->name(), faw).result.timeNs);
        fig13.add(w->name(), {1.0, t[0] / t[1], t[0] / t[2]});
    }
    fig13.print(fmtPct);

    // Figure 14: a run's in-DRAM time scales inversely with subarrays
    // from its device's effective SALP (about proportionally for large
    // inputs, in the paper); its host-serial part (the CRC combine)
    // does not. fig14 has a row per design, a column per table row.
    section("Figure 14: GMEAN speedup over CPU vs subarray-level "
            "parallelism");
    AsciiTable t14({"Memory", "Subarrays", "pLUTo-GSA", "pLUTo-BSA",
                    "pLUTo-GMC"});
    Figure fig14;
    std::map<MemoryKind, std::vector<std::string>> salpCols;
    for (const Design d : kDesigns)
        fig14.rows.push_back(core::designName(d));
    const std::pair<MemoryKind, std::vector<u32>> sweeps[] = {
        {kDdr4, {1, 16, 256, 2048}}, {k3ds, {512, 8192}}};
    for (const auto &[m, salps] : sweeps)
        for (const u32 salp : salps) {
            std::vector<std::string> row = {dram::memoryKindName(m),
                                            std::to_string(salp)};
            salpCols[m].push_back(row[0] + " " + row[1]);
            for (const Design d : kDesigns) {
                std::vector<double> speedups;
                for (const auto &w : fig7set) {
                    const sim::RunRecord &r = cell(grid, d, m, w->name());
                    const auto &res = r.result;
                    const double def = devices.at(r.variant)->effectiveSalp();
                    speedups.push_back(
                        r.rates.cpu * res.elements /
                        (res.hostNs + (res.timeNs - res.hostNs) * def / salp));
                }
                const double g = geomean(speedups);
                fig14.columns[salpCols[m].back()].push_back(g);
                row.push_back(fmtX(g));
            }
            t14.addRow(row);
        }
    std::printf("%s", t14.render().c_str());

    const auto over3ds = [](const Figure &f, Design d) {
        return f.gmean(d, k3ds) / f.gmean(d);
    };
    Ledger l;
    const std::pair<const char *, const Figure *> ratioFigures[] = {
        {"Fig 7", &fig7}, {"Fig 8", &fig8}, {"Fig 9", &fig9},
        {"Fig 10", &fig10}};
    for (const auto &[name, fig] : ratioFigures)
        for (const MemoryKind m : kMemories)
            l.ordering(std::string(name) + " " + dram::memoryKindName(m) +
                           ", every workload",
                       "GSA < BSA < GMC", *fig,
                       {label(Gsa, m), label(Bsa, m), label(Gmc, m)});
    for (const Design d : kDesigns) {
        const std::string ddr4 = label(d, kDdr4), hmc = label(d, k3ds);
        l.ordering("Fig 7 " + ddr4 + ", every workload", "DDR4 < 3DS",
                   fig7, {ddr4, hmc});
        l.ordering("Fig 10 " + ddr4 + ", every workload", "3DS < DDR4",
                   fig10, {hmc, ddr4});
    }
    const auto &tfaw = fig13.header;
    l.ordering("Fig 13, every workload", "tFAW 100% < 50% < 0%", fig13,
               {tfaw[3], tfaw[2], tfaw[1]}, fmtPct);
    for (const MemoryKind m : kMemories)
        l.ordering(std::string("Fig 14 ") + dram::memoryKindName(m) +
                       ", every design",
                   "rises with subarrays", fig14, salpCols.at(m));

    // Gaps against host baselines, whose hand-set rates
    // (src/workloads/*.cc) favour the CPU more than the paper's. The
    // abstract's "713x and 1.2x" speedup and "1855x and 39.5x" energy
    // saving over CPU and GPU are pLUTo-BSA's on DDR4.
    l.gap("Fig 7 GMEAN GSA", 357, fig7.gmean(Gsa), 0.2372);
    l.gap("Fig 7 GMEAN BSA", 713, fig7.gmean(Bsa), 0.2118);
    l.gap("Fig 7 GMEAN GMC", 1413, fig7.gmean(Gmc), 0.1799);
    l.gap("Fig 8 GMEAN GSA", 426, fig8.gmean(Gsa), 1.245);
    l.gap("Fig 8 GMEAN BSA", 801, fig8.gmean(Bsa), 1.115);
    l.gap("Fig 8 GMEAN GMC", 1504, fig8.gmean(Gmc), 0.9478);
    l.gap("Fig 9 GMEAN GSA", 160, fig9.gmean(Gsa), 0.1277);
    l.gap("Fig 9 GMEAN BSA", 274, fig9.gmean(Bsa), 0.1370);
    l.gap("Fig 9 GMEAN GMC", 459, fig9.gmean(Gmc), 0.1425);
    l.gap("Fig 10 GMEAN GSA", 1361, fig10.gmean(Gsa), 0.1488);
    l.gap("Fig 10 GMEAN BSA", 1855, fig10.gmean(Bsa), 0.1737);
    l.gap("Fig 10 GMEAN GMC", 3071, fig10.gmean(Gmc), 0.1621);
    l.gap("Abstract: BSA / GPU speedup", 1.2,
          fig7.gmean(Bsa) / fig7.gmean("GPU"), 1.199);
    l.gap("Abstract: BSA / GPU energy saving", 39.5,
          fig10.gmean(Bsa) / fig10.gmean("GPU"), 0.9068);

    // Gaps that cancel the host baseline. (Fig 8's 3DS / DDR4 is
    // Fig 7's times plutoChipArea's 21x 3DS area calibration.)
    l.gap("Fig 7 BSA / GSA", 713.0 / 357,
          fig7.gmean(Bsa) / fig7.gmean(Gsa), 0.8927);
    l.gap("Fig 7 GMC / GSA", 1413.0 / 357,
          fig7.gmean(Gmc) / fig7.gmean(Gsa), 0.7585);
    l.gap("Fig 7 3DS / DDR4, GSA", 1.38, over3ds(fig7, Gsa), 0.9684);
    l.gap("Fig 7 3DS / DDR4, BSA", 1.38, over3ds(fig7, Bsa), 0.9532);
    l.gap("Fig 7 3DS / DDR4, GMC", 1.38, over3ds(fig7, Gmc), 0.9385);
    l.gap("Fig 10 DDR4 / 3DS, GSA", 8, 1 / over3ds(fig10, Gsa), 0.8991);
    l.gap("Fig 10 DDR4 / 3DS, BSA", 8, 1 / over3ds(fig10, Bsa), 0.8308);
    l.gap("Fig 10 DDR4 / 3DS, GMC", 8, 1 / over3ds(fig10, Gmc), 0.7857);

    // Gaps with no host baseline. Strict sliding-window tFAW costs
    // pure-LUT workloads at 16 subarrays more than the paper reports.
    l.gap("Fig 13 GMEAN at tFAW 50%", 0.90, fig13.gmean(tfaw[2]),
          0.6876, fmtPct);
    l.gap("Fig 13 GMEAN at tFAW 100%", 0.80, fig13.gmean(tfaw[3]),
          0.5613, fmtPct);

    section("Paper claims ledger");
    std::printf("%s\n%d failed\n", l.table.render().c_str(), l.failed);
    if (!report.allVerified())
        std::printf("A run failed functional verification (see the "
                    "verified column of pluto_sim on this scenario).\n");
    return l.failed || !report.allVerified() ? 1 : 0;
}
