/**
 * @file
 * Tests for the quantized-NN case study: layer primitives, the
 * XNOR-popcount identity, quantizers, synthetic MNIST, LeNet-5
 * inference determinism, and the pLUTo QNN cost model (Table 7).
 * The convolution and fully connected kernels are checked at every
 * SIMD tier against naive nested loops kept here as the oracle.
 */

#include <gtest/gtest.h>

#include <iterator>
#include <limits>

#include "common/cpuid.hh"
#include "common/random.hh"
#include "nn/pluto_qnn.hh"

namespace pluto::nn
{
namespace
{

TEST(Layers, Conv2dValidShapeAndValues)
{
    Tensor in(1, 4, 4);
    for (u32 y = 0; y < 4; ++y)
        for (u32 x = 0; x < 4; ++x)
            in.at(0, y, x) = static_cast<i32>(y * 4 + x);
    // 2x2 all-ones kernel, one output channel.
    const std::vector<i32> k = {1, 1, 1, 1};
    const Tensor out = conv2dValid(in, k, 1, 2);
    EXPECT_EQ(out.h, 3u);
    EXPECT_EQ(out.w, 3u);
    EXPECT_EQ(out.at(0, 0, 0), 0 + 1 + 4 + 5);
    EXPECT_EQ(out.at(0, 2, 2), 10 + 11 + 14 + 15);
}

TEST(Layers, ConvMultiChannelAccumulates)
{
    Tensor in(2, 2, 2);
    for (auto &v : in.data)
        v = 1;
    const std::vector<i32> k(2 * 2 * 2, 2); // 1 out-ch, 2 in-ch, 2x2
    const Tensor out = conv2dValid(in, k, 1, 2);
    EXPECT_EQ(out.at(0, 0, 0), 16); // 8 taps x 1 x 2
}

constexpr i32 kMin = std::numeric_limits<i32>::min();
constexpr i32 kMax = std::numeric_limits<i32>::max();

/*
 * Oracles: direct nested loops, one i64 product per tap. The sum
 * runs modulo 2^64 so extreme vectors stay defined; the i32 result
 * is the low 32 bits of the exact sum.
 */

Tensor
naiveConv2dValid(const Tensor &in, const std::vector<i32> &kernels,
                 u32 out_ch, u32 k)
{
    Tensor out(out_ch, in.h - k + 1, in.w - k + 1);
    for (u32 o = 0; o < out_ch; ++o)
        for (u32 y = 0; y < out.h; ++y)
            for (u32 x = 0; x < out.w; ++x) {
                u64 acc = 0;
                for (u32 ci = 0; ci < in.c; ++ci)
                    for (u32 dy = 0; dy < k; ++dy)
                        for (u32 dx = 0; dx < k; ++dx) {
                            const i32 wv =
                                kernels[((static_cast<std::size_t>(o) *
                                          in.c + ci) * k + dy) * k + dx];
                            acc += static_cast<u64>(
                                static_cast<i64>(wv) *
                                in.at(ci, y + dy, x + dx));
                        }
                out.at(o, y, x) = static_cast<i32>(acc);
            }
    return out;
}

std::vector<i32>
naiveFullyConnected(const std::vector<i32> &x, const std::vector<i32> &w,
                    u32 out_n)
{
    std::vector<i32> out(out_n);
    for (u32 o = 0; o < out_n; ++o) {
        u64 acc = 0;
        for (std::size_t i = 0; i < x.size(); ++i)
            acc += static_cast<u64>(
                static_cast<i64>(w[o * x.size() + i]) * x[i]);
        out[o] = static_cast<i32>(acc);
    }
    return out;
}

/** Value mixes: 4-bit range, any i32, and the wraparound corners. */
i32
drawValue(Rng &rng, u32 mode)
{
    static constexpr i32 kCorners[] = {kMin, kMax, kMin + 1, kMax - 1,
                                       -1, 0, 1};
    switch (mode) {
      case 0:
        return static_cast<i32>(rng.below(16)) - 8;
      case 1:
        return static_cast<i32>(static_cast<u32>(rng.next()));
      default:
        return kCorners[rng.below(std::size(kCorners))];
    }
}

/** Runs each case with tier() capped at the parameter. */
class KernelTiers : public ::testing::TestWithParam<simd::Tier>
{
  protected:
    void SetUp() override { simd::overrideTier(GetParam()); }
    void TearDown() override { simd::clearTierOverride(); }
};

TEST_P(KernelTiers, ConvMatchesNaiveOnRandomShapes)
{
    Rng rng(1234);
    // LeNet-5's own layers, then random shapes: non-square inputs,
    // output widths off the vector width, blocks and tails.
    std::vector<std::array<u32, 5>> shapes = {{1, 28, 28, 5, 6},
                                              {6, 12, 12, 5, 16}};
    for (int trial = 0; trial < 300; ++trial) {
        const u32 k = 1 + static_cast<u32>(rng.below(5));
        shapes.push_back({1 + static_cast<u32>(rng.below(8)),
                          k + static_cast<u32>(rng.below(12)),
                          k + static_cast<u32>(rng.below(20)), k,
                          1 + static_cast<u32>(rng.below(17))});
    }
    for (std::size_t i = 0; i < shapes.size(); ++i) {
        const auto [c, h, w, k, out_ch] = shapes[i];
        const u32 mode = static_cast<u32>(i % 3);
        Tensor in(c, h, w);
        for (auto &v : in.data)
            v = drawValue(rng, mode);
        std::vector<i32> kernels(static_cast<std::size_t>(out_ch) * c *
                                 k * k);
        for (auto &v : kernels)
            v = drawValue(rng, mode);
        const Tensor got = conv2dValid(in, kernels, out_ch, k);
        const Tensor want = naiveConv2dValid(in, kernels, out_ch, k);
        ASSERT_EQ(got.c, want.c);
        ASSERT_EQ(got.h, want.h);
        ASSERT_EQ(got.w, want.w);
        ASSERT_EQ(got.data, want.data)
            << "c=" << c << " h=" << h << " w=" << w << " k=" << k
            << " out_ch=" << out_ch << " mode=" << mode;
    }
}

TEST_P(KernelTiers, FullyConnectedMatchesNaiveOnRandomShapes)
{
    Rng rng(4321);
    for (int trial = 0; trial < 300; ++trial) {
        const u32 mode = static_cast<u32>(trial % 3);
        const u32 out_n = 1 + static_cast<u32>(rng.below(17));
        std::vector<i32> x(1 + rng.below(420));
        std::vector<i32> w(out_n * x.size());
        for (auto &v : x)
            v = drawValue(rng, mode);
        for (auto &v : w)
            v = drawValue(rng, mode);
        ASSERT_EQ(fullyConnected(x, w, out_n),
                  naiveFullyConnected(x, w, out_n))
            << "n=" << x.size() << " out_n=" << out_n << " mode=" << mode;
    }
}

TEST_P(KernelTiers, SumsWrapModulo2To32)
{
    // (2^31-1)^2 = 2^62 - 2^32 + 1 has low word 1; -2^31 * (2^31-1)
    // = -2^62 + 2^31 has low word 2^31, so two of them wrap to 0;
    // (-2^31)^2 = 2^62 has low word 0; -2^31 * -1 = 2^31 wraps to
    // INT32_MIN.
    EXPECT_EQ(fullyConnected({kMax, kMax}, {kMax, kMax, kMin, kMin}, 2),
              (std::vector<i32>{2, 0}));
    EXPECT_EQ(fullyConnected({kMin}, {kMin, -1, kMax}, 3),
              (std::vector<i32>{0, kMin, kMin}));

    // 200 taps of (-2^31)^2 each: the exact sum is 200 * 2^62.
    Tensor in(8, 5, 13);
    for (auto &v : in.data)
        v = kMin;
    const std::vector<i32> kernels(3 * 8 * 5 * 5, kMin);
    const Tensor out = conv2dValid(in, kernels, 3, 5);
    EXPECT_EQ(out.data, std::vector<i32>(3 * 1 * 9, 0));
    EXPECT_EQ(out.data, naiveConv2dValid(in, kernels, 3, 5).data);
}

INSTANTIATE_TEST_SUITE_P(
    Tiers, KernelTiers,
    ::testing::Values(simd::Tier::Scalar, simd::Tier::Ssse3,
                      simd::Tier::Avx2),
    [](const auto &info) { return simd::tierName(info.param); });

TEST(Layers, AvgPoolFloorsTowardNegInfinity)
{
    Tensor in(1, 2, 2);
    in.at(0, 0, 0) = -1;
    in.at(0, 0, 1) = -1;
    in.at(0, 1, 0) = -1;
    in.at(0, 1, 1) = -1;
    EXPECT_EQ(avgPool2x2(in).at(0, 0, 0), -1);
}

TEST(Layers, FullyConnected)
{
    const std::vector<i32> x = {1, 2, 3};
    const std::vector<i32> w = {1, 0, 0, 0, 1, 1};
    const auto out = fullyConnected(x, w, 2);
    EXPECT_EQ(out[0], 1);
    EXPECT_EQ(out[1], 5);
}

TEST(Layers, Quantizers)
{
    EXPECT_EQ(binarize(5), 1);
    EXPECT_EQ(binarize(-5), -1);
    EXPECT_EQ(binarize(0), 1);
    EXPECT_EQ(quantize4(100, 3), 7);  // clamps at +7
    EXPECT_EQ(quantize4(-100, 3), -8);
    EXPECT_EQ(quantize4(16, 2), 4);
}

TEST(Layers, XnorPopcountIdentityRandom)
{
    // The 1-bit in-DRAM mapping's core identity, over random vectors.
    Rng rng(99);
    for (int trial = 0; trial < 200; ++trial) {
        const u64 n = 1 + rng.below(64);
        std::vector<i32> a(n), w(n);
        std::vector<u8> ab(n), wb(n);
        for (u64 i = 0; i < n; ++i) {
            ab[i] = static_cast<u8>(rng.below(2));
            wb[i] = static_cast<u8>(rng.below(2));
            a[i] = ab[i] ? 1 : -1;
            w[i] = wb[i] ? 1 : -1;
        }
        EXPECT_EQ(binaryDotDirect(a, w),
                  binaryDotXnorPopcount(ab, wb));
    }
}

TEST(MnistSynthTest, ImagesAreWellFormed)
{
    MnistSynth synth;
    for (u32 label = 0; label < 10; ++label) {
        const auto img = synth.image(label);
        EXPECT_EQ(img.label, label);
        EXPECT_EQ(img.pixels.size(), 784u);
        u32 lit = 0;
        for (const u8 p : img.pixels)
            lit += p > 100;
        // A digit stroke lights a meaningful fraction of the canvas.
        EXPECT_GT(lit, 20u) << "label " << label;
        EXPECT_LT(lit, 500u) << "label " << label;
    }
}

TEST(MnistSynthTest, DifferentClassesDiffer)
{
    MnistSynth a(123), b(123);
    const auto i0 = a.image(0);
    const auto i1 = b.image(1);
    EXPECT_NE(i0.pixels, i1.pixels);
}

class LenetBits : public ::testing::TestWithParam<u32>
{
};

TEST_P(LenetBits, InferenceDeterministic)
{
    const LeNet5 n1(GetParam()), n2(GetParam());
    MnistSynth synth;
    const auto img = synth.image(3);
    EXPECT_EQ(n1.infer(img), n2.infer(img));
}

TEST_P(LenetBits, MacCountMatchesTopology)
{
    const LeNet5 net(GetParam());
    // conv1 86400 + conv2 153600 + fc 58920 = 298920.
    EXPECT_EQ(net.totalMacs(), 298920u);
}

TEST_P(LenetBits, LogitsWithinQuantizedRange)
{
    const LeNet5 net(GetParam());
    MnistSynth synth;
    for (u32 k = 0; k < 10; ++k) {
        const auto logits = net.infer(synth.image(k));
        for (const i32 v : logits) {
            // fc3: 84 inputs of magnitude <= 8 x weights <= 8.
            EXPECT_LE(std::abs(v), 84 * 8 * 8);
        }
    }
}

INSTANTIATE_TEST_SUITE_P(Bits, LenetBits, ::testing::Values(1u, 4u),
                         [](const auto &info) {
                             return std::to_string(info.param) + "bit";
                         });

TEST(PlutoQnn, CostsOrderAsTable7)
{
    // pLUTo-BSA beats CPU, GPU and FPGA in time and energy for both
    // bit widths; 1-bit is cheaper than 4-bit.
    std::map<u32, QnnCost> pluto;
    for (const u32 bits : {1u, 4u}) {
        const LeNet5 net(bits);
        runtime::PlutoDevice dev;
        pluto[bits] = plutoQnnCost(dev, net);
        for (const auto &h : hostQnnCosts(bits, net.totalMacs())) {
            EXPECT_GT(h.timeNs, pluto[bits].timeNs) << h.system;
            EXPECT_GT(h.energyPj, pluto[bits].energyPj) << h.system;
        }
    }
    EXPECT_LT(pluto[1].timeNs, pluto[4].timeNs);
    EXPECT_LT(pluto[1].energyPj, pluto[4].energyPj);
}

TEST(PlutoQnn, HostCostsMatchTable7Times)
{
    const LeNet5 net(1);
    const auto hosts = hostQnnCosts(1, net.totalMacs());
    // CPU 249 us, P100 56 us, FPGA 141 us for 1-bit inference.
    EXPECT_NEAR(hosts[0].timeNs * 1e-3, 249.0, 15.0);
    EXPECT_NEAR(hosts[1].timeNs * 1e-3, 56.0, 5.0);
    EXPECT_NEAR(hosts[2].timeNs * 1e-3, 141.0, 10.0);
}

TEST(PlutoQnn, PaperAccuracies)
{
    EXPECT_DOUBLE_EQ(paperAccuracy(1), 0.974);
    EXPECT_DOUBLE_EQ(paperAccuracy(4), 0.991);
}

} // namespace
} // namespace pluto::nn
