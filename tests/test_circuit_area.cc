/**
 * @file
 * Tests for the circuit-level bitline simulator (Figure 6's claims)
 * and the area model (Table 5).
 */

#include <gtest/gtest.h>

#include "area/model.hh"
#include "circuit/monte_carlo.hh"

namespace pluto
{
namespace
{

using namespace circuit;

class VariantTest : public ::testing::TestWithParam<CircuitVariant>
{
  protected:
    BitlineSim sim;
};

TEST_P(VariantTest, MatchedChargedCellSensesToVdd)
{
    const auto tr = sim.simulate(GetParam(), true, true);
    EXPECT_GT(tr.finalBitline(), 0.95 * sim.params().vdd);
    // The cell is restored through the open access transistor.
    EXPECT_GT(tr.finalCell(), 0.95 * sim.params().vdd);
}

TEST_P(VariantTest, MatchedEmptyCellSensesToZero)
{
    const auto tr = sim.simulate(GetParam(), false, true);
    EXPECT_LT(tr.finalBitline(), 0.05 * sim.params().vdd);
    EXPECT_LT(tr.finalCell(), 0.05 * sim.params().vdd);
}

TEST_P(VariantTest, ActivationWithinTrcdClassTime)
{
    // Figure 6 observation 2: pLUTo modifications do not slow the
    // activation. 90% swing within ~tRCD (14.16 ns).
    const auto tr = sim.simulate(GetParam(), true, true);
    const double t90 = tr.activationTime(sim.params().vdd, true);
    EXPECT_GT(t90, 0.0);
    EXPECT_LT(t90, 14.16);
}

INSTANTIATE_TEST_SUITE_P(AllVariants, VariantTest,
                         ::testing::ValuesIn(allVariants),
                         [](const auto &info) {
                             std::string n = variantName(info.param);
                             for (auto &c : n)
                                 if (c == '-')
                                     c = '_';
                             return n;
                         });

TEST(Gmc, UnmatchedBitlineStaysPrecharged)
{
    // GMC gates the cell: an unmatched activation must not disturb
    // the bitline beyond ~1% of VDD (Section 8.1: 0.9%).
    BitlineSim sim;
    const auto tr = sim.simulate(CircuitVariant::Gmc, true, false);
    EXPECT_LT(tr.maxDisturbance(sim.params().vdd),
              0.01 * sim.params().vdd);
    // And the cell keeps its charge (non-destructive).
    EXPECT_GT(tr.finalCell(), 0.9 * sim.params().vdd);
}

TEST(Gsa, UnmatchedReadIsDestructive)
{
    // GSA shares charge but never restores: the cell ends near the
    // charge-shared level, far from its original value.
    BitlineSim sim;
    const auto tr = sim.simulate(CircuitVariant::Gsa, true, false);
    EXPECT_LT(tr.finalCell(), 0.7 * sim.params().vdd);
    EXPECT_GT(tr.finalCell(), 0.2 * sim.params().vdd);
}

TEST(Bsa, MatchedBehaviorIdenticalToBaseline)
{
    BitlineSim sim;
    const auto base = sim.simulate(CircuitVariant::Baseline, true, true);
    const auto bsa = sim.simulate(CircuitVariant::Bsa, true, true);
    ASSERT_EQ(base.vBitline.size(), bsa.vBitline.size());
    for (std::size_t i = 0; i < base.vBitline.size(); ++i)
        EXPECT_DOUBLE_EQ(base.vBitline[i], bsa.vBitline[i]);
}

TEST(MonteCarloRuns, AllVariantsSenseCorrectlyUnderVariation)
{
    MonteCarlo mc;
    for (const auto v : allVariants) {
        const auto s = mc.run(v, 100);
        EXPECT_TRUE(s.allCorrect()) << variantName(v);
        EXPECT_LT(s.worstActivationNs, 14.16) << variantName(v);
    }
}

TEST(MonteCarloRuns, GsaIsNoisiest)
{
    // Section 8.1 observation 3.
    MonteCarlo mc;
    const auto gsa = mc.run(CircuitVariant::Gsa, 100);
    const auto gmc = mc.run(CircuitVariant::Gmc, 100);
    EXPECT_GT(gsa.unmatchedDisturbanceFrac,
              gmc.unmatchedDisturbanceFrac);
    EXPECT_LT(gmc.unmatchedDisturbanceFrac, 0.01);
}

TEST(MonteCarloRuns, Deterministic)
{
    MonteCarlo a, b;
    const auto sa = a.run(CircuitVariant::Bsa, 20);
    const auto sb = b.run(CircuitVariant::Bsa, 20);
    EXPECT_DOUBLE_EQ(sa.worstActivationNs, sb.worstActivationNs);
}

// ---- Area model (Table 5) ----

TEST(Area, BaselineMatchesTable5)
{
    const area::AreaModel m;
    EXPECT_NEAR(m.baseline().total(), 70.23, 0.05);
}

TEST(Area, DesignTotalsMatchTable5)
{
    const area::AreaModel m;
    const auto base = m.baseline();
    const auto gsa = m.forDesign(core::Design::Gsa);
    const auto bsa = m.forDesign(core::Design::Bsa);
    const auto gmc = m.forDesign(core::Design::Gmc);
    EXPECT_NEAR(gsa.total(), 77.44, 0.1);
    EXPECT_NEAR(bsa.total(), 82.00, 0.1);
    EXPECT_NEAR(gmc.total(), 86.47, 0.1);
    EXPECT_NEAR(gsa.overheadVs(base), 0.102, 0.005);
    EXPECT_NEAR(bsa.overheadVs(base), 0.167, 0.005);
    EXPECT_NEAR(gmc.overheadVs(base), 0.231, 0.005);
}

TEST(Area, OrderingGsaBelowBsaBelowGmc)
{
    // Section 5.4: GSA_area < BSA_area < GMC_area.
    const area::AreaModel m;
    EXPECT_LT(m.forDesign(core::Design::Gsa).total(),
              m.forDesign(core::Design::Bsa).total());
    EXPECT_LT(m.forDesign(core::Design::Bsa).total(),
              m.forDesign(core::Design::Gmc).total());
}

TEST(Area, GmcModifiesOnlyTheCell)
{
    const area::AreaModel m;
    const auto base = m.baseline();
    const auto gmc = m.forDesign(core::Design::Gmc);
    EXPECT_GT(gmc.components.at("DRAM Cell"),
              base.components.at("DRAM Cell"));
    EXPECT_DOUBLE_EQ(gmc.components.at("Sense Amp"),
                     base.components.at("Sense Amp"));
}

TEST(Area, OverheadAreaSmallerFor3ds)
{
    const area::AreaModel m;
    for (const auto d : core::allDesigns)
        EXPECT_LT(
            m.plutoChipArea(dram::MemoryKind::Hmc3ds, d),
            m.plutoChipArea(dram::MemoryKind::Ddr4, d));
}

} // namespace
} // namespace pluto
