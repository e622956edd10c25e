/**
 * @file
 * Ablation studies over the model's calibrated design choices:
 *  1. LISA-RBM latency calibration -> the GSA : BSA slowdown;
 *  2. GMC activation-energy discount -> the BSA : GMC energy ratio;
 *  3. LUT partitioning degree -> Table 6-style 4-bit mul latency;
 *  4. refresh-interference modeling -> kernel-time overhead;
 *  5. compiler optimization passes -> ISA instructions and simulated
 *     execution time of a redundancy-heavy program.
 */

#include <cstdio>

#include "common/table.hh"
#include "compiler/compiler.hh"
#include "compiler/passes.hh"
#include "pluto/analysis.hh"
#include "runtime/device.hh"
#include "workloads/workload.hh"

using namespace pluto;

namespace
{

void
ablateLisa()
{
    std::printf("1) LISA-RBM latency vs GSA:BSA slowdown "
                "(paper's Figure 7 ratio ~2.0; we calibrate "
                "lisaRbm = 3 x tRCD)\n");
    AsciiTable t({"lisaRbm (x tRCD)", "GSA/BSA latency @ N=256"});
    for (const double f : {1.0, 2.0, 3.0, 4.0, 5.0}) {
        auto timing = dram::TimingParams::ddr4_2400();
        timing.lisaRbm = f * timing.tRCD;
        const double ratio =
            core::queryLatency(core::Design::Gsa, timing, 256) /
            core::queryLatency(core::Design::Bsa, timing, 256);
        t.addRow({fmtSig(f, 2), fmtX(ratio)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablateGmcDiscount()
{
    std::printf("2) GMC activation-energy discount vs BSA:GMC energy "
                "ratio (paper's Figure 10 ratio ~1.66; we calibrate "
                "0.77)\n");
    AsciiTable t({"discount", "BSA/GMC energy @ N=256"});
    for (const double d : {1.0, 0.9, 0.77, 0.6, 0.5}) {
        auto energy = dram::EnergyParams::ddr4();
        energy.gmcActDiscount = d;
        const double ratio =
            core::queryEnergy(core::Design::Bsa, energy, 256) /
            core::queryEnergy(core::Design::Gmc, energy, 256);
        t.addRow({fmtSig(d, 3), fmtX(ratio)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablatePartitioning()
{
    std::printf("3) LUT partitioning degree vs 256-entry query "
                "latency (Section 5.6; Table 6 uses 4)\n");
    const auto timing = dram::TimingParams::ddr4_2400();
    AsciiTable t({"partitions", "rows/partition", "sweep+move (ns)"});
    for (const u32 parts : {1u, 2u, 4u, 8u, 16u}) {
        const u32 n = 256 / parts;
        const double lat =
            (timing.tRCD + timing.tRP) * n + timing.lisaRbm;
        t.addRow({std::to_string(parts), std::to_string(n),
                  fmtSig(lat, 4)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablateRefresh()
{
    std::printf("4) Refresh interference (tRFC every tREFI) on "
                "ImgBin kernel time\n");
    const auto w = workloads::makeImageBinarization();
    AsciiTable t({"refresh", "time (us)", "overhead"});
    double base = 0.0;
    for (const bool refresh : {false, true}) {
        runtime::DeviceConfig cfg;
        cfg.modelRefresh = refresh;
        runtime::PlutoDevice dev(cfg);
        const auto res = w->run(dev, 936000ull * 3);
        if (!refresh)
            base = res.timeNs;
        t.addRow({refresh ? "on" : "off (paper)",
                  fmtSig(res.timeNs * 1e-3, 4),
                  fmtPct(res.timeNs / base - 1.0)});
    }
    std::printf("%s\n", t.render().c_str());
}

void
ablateCompilerPasses()
{
    std::printf("5) Compiler optimization passes on a "
                "redundancy-heavy program\n");
    // A program with duplicated subexpressions, dead code and shift
    // chains (as naive front-ends emit).
    compiler::Graph g(100000);
    const auto a = g.input("a", 8);
    const auto b = g.input("b", 8);
    const auto x1 = g.bitwiseXor(a, b);
    const auto x2 = g.bitwiseXor(a, b);          // CSE victim
    const auto s1 = g.shiftLeft(x1, 2);
    const auto s2 = g.shiftLeft(s1, 2);          // fuses to << 4
    g.bitwiseAnd(x2, b);                         // dead
    const auto q1 = g.lutQuery(s2, "bc8", 8, 256);
    const auto q2 = g.lutQuery(s2, "bc8", 8, 256); // CSE victim
    const auto out = g.bitwiseOr(q1, q2);
    g.markOutput(out, "out");

    AsciiTable t({"pipeline", "graph nodes", "ISA instrs",
                  "sim time (us)"});
    for (const bool optimize_first : {false, true}) {
        compiler::OptStats ostats;
        const compiler::Graph used =
            optimize_first ? compiler::optimize(g, {}, &ostats) : g;
        const auto compiled = compiler::compile(used);
        runtime::PlutoDevice dev;
        dev.resetStats();
        dev.controller().execute(compiled.program);
        t.addRow({optimize_first ? "optimized" : "naive",
                  std::to_string(used.size()),
                  std::to_string(compiled.program.size()),
                  fmtSig(dev.stats().timeNs * 1e-3, 4)});
    }
    std::printf("%s", t.render().c_str());
}

} // namespace

int
main()
{
    std::printf("=== Ablation studies (design-choice sensitivity) "
                "===\n\n");
    ablateLisa();
    ablateGmcDiscount();
    ablatePartitioning();
    ablateRefresh();
    ablateCompilerPasses();
    return 0;
}
