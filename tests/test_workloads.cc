/**
 * @file
 * Integration tests: every workload executes end-to-end on the
 * simulated device (at reduced scale for the heavy ones), verifies
 * functionally, and exhibits the paper's cross-design and
 * cross-memory orderings.
 */

#include <gtest/gtest.h>

#include <tuple>

#include "workloads/workload.hh"

namespace pluto::workloads
{
namespace
{

using core::Design;
using dram::MemoryKind;

runtime::DeviceConfig
deviceConfig(Design d = Design::Bsa, MemoryKind m = MemoryKind::Ddr4)
{
    runtime::DeviceConfig cfg;
    cfg.design = d;
    cfg.memory = m;
    return cfg;
}

/** Reduced scales keep the suite fast while covering full paths. */
u64
testScale(const Workload &w)
{
    const std::string n = w.name();
    if (n.rfind("CRC", 0) == 0)
        return 2048ull * 128; // 2048 packets
    if (n == "Salsa20" || n == "VMPC")
        return 64ull * 512; // 64 packets
    if (n == "ImgBin" || n == "ColorGrade")
        return 200000;
    return 65536;
}

class AllWorkloads
    : public ::testing::TestWithParam<std::tuple<std::string, Design>>
{
};

TEST_P(AllWorkloads, VerifiesOnDdr4)
{
    const auto &[name, design] = GetParam();
    const auto w = makeWorkload(name);
    runtime::PlutoDevice dev(deviceConfig(design));
    const auto res = w->run(dev, testScale(*w));
    EXPECT_TRUE(res.verified) << w->name() << " on "
                              << core::designName(design);
    EXPECT_GT(res.timeNs, 0.0);
    EXPECT_GT(res.energyPj, 0.0);
    EXPECT_GT(res.elements, 0u);
}

INSTANTIATE_TEST_SUITE_P(
    Names, AllWorkloads,
    ::testing::Combine(
        ::testing::Values("CRC-8", "CRC-16", "CRC-32", "Salsa20", "VMPC",
                          "ImgBin", "ColorGrade", "ADD4", "ADD8", "MUL4",
                          "MUL8", "MUL16", "MULQ1.7", "BC4", "BC8",
                          "Bitwise-AND", "Bitwise-XOR"),
        ::testing::Values(Design::Bsa, Design::Gsa, Design::Gmc)),
    [](const auto &info) {
        // "CRC-8" on pLUTo-GSA -> "CRC_8_GSA".
        std::string n = std::get<0>(info.param) + "_" +
                        std::string(core::designName(
                                        std::get<1>(info.param)))
                            .substr(6);
        for (auto &c : n)
            if (!isalnum(static_cast<unsigned char>(c)))
                c = '_';
        return n;
    });

TEST(WorkloadOrdering, DesignsOrderAsTable1)
{
    // GSA slowest, GMC fastest, on a pure-LUT workload.
    const auto w = makeWorkload("ColorGrade");
    std::map<Design, double> t;
    for (const auto d : {Design::Gsa, Design::Bsa, Design::Gmc}) {
        runtime::PlutoDevice dev(deviceConfig(d));
        t[d] = w->run(dev, 200000).timeNs;
    }
    EXPECT_GT(t[Design::Gsa], t[Design::Bsa]);
    EXPECT_GT(t[Design::Bsa], t[Design::Gmc]);
    // GSA ~2x BSA, BSA ~2x GMC (Figure 7's ratios).
    EXPECT_NEAR(t[Design::Gsa] / t[Design::Bsa], 2.0, 0.5);
    EXPECT_NEAR(t[Design::Bsa] / t[Design::Gmc], 2.0, 0.5);
}

TEST(WorkloadOrdering, ThreeDsFasterThanDdr4)
{
    // Section 8.2: 3DS outperforms DDR4 by ~38% at equal data volume
    // per sweep step.
    const auto w = makeWorkload("ImgBin");
    runtime::PlutoDevice d4(deviceConfig(Design::Bsa, MemoryKind::Ddr4));
    runtime::PlutoDevice d3(
        deviceConfig(Design::Bsa, MemoryKind::Hmc3ds));
    const double t4 = w->run(d4, 1048576).nsPerElem();
    const double t3 = w->run(d3, 1048576).nsPerElem();
    EXPECT_NEAR(t4 / t3, 1.38, 0.1);
}

TEST(WorkloadOrdering, TfawThrottlingMonotonic)
{
    const auto w = makeWorkload("ImgBin");
    double prev = 0.0;
    for (const double scale : {0.0, 0.5, 1.0}) {
        runtime::DeviceConfig cfg;
        cfg.fawScale = scale;
        runtime::PlutoDevice dev(cfg);
        const double t = w->run(dev, 500000).timeNs;
        EXPECT_GE(t, prev);
        prev = t;
    }
}

TEST(WorkloadOrdering, EnergyInvariantUnderTfaw)
{
    // Throttling delays commands but does not change their count.
    const auto w = makeWorkload("ImgBin");
    runtime::DeviceConfig a, b;
    a.fawScale = 0.0;
    b.fawScale = 1.0;
    runtime::PlutoDevice da(a), db(b);
    const auto ra = w->run(da, 500000);
    const auto rb = w->run(db, 500000);
    // Command energy identical; total differs only via background
    // power over the longer elapsed time.
    EXPECT_GT(rb.timeNs, ra.timeNs);
}

TEST(WorkloadOrdering, CrcHostCombineDoesNotScale)
{
    // The CRC serial reduction is host time; it must be visible in
    // the result so Figure 14's scaling flattens.
    const auto w = makeWorkload("CRC-8");
    runtime::PlutoDevice dev(deviceConfig());
    const auto res = w->run(dev, 2048ull * 128);
    EXPECT_GT(res.hostNs, 0.0);
    EXPECT_LT(res.hostNs, res.timeNs);
}

TEST(Registry, AllNamesConstruct)
{
    for (const auto &name : workloadNames())
        EXPECT_EQ(makeWorkload(name)->name(), name);
}

TEST(Registry, Figure7SetMatchesPaper)
{
    const auto set = figure7Workloads();
    ASSERT_EQ(set.size(), 7u);
    EXPECT_EQ(set[0]->name(), "CRC-8");
    EXPECT_EQ(set[6]->name(), "ColorGrade");
}

TEST(Rates, AllPositive)
{
    for (const auto &name : workloadNames()) {
        const auto w = makeWorkload(name);
        const auto r = w->rates();
        EXPECT_GT(r.cpu, 0.0) << name;
        EXPECT_GT(r.gpu, 0.0) << name;
        EXPECT_GT(r.fpga, 0.0) << name;
        EXPECT_GT(r.pnm, 0.0) << name;
    }
}

} // namespace
} // namespace pluto::workloads
