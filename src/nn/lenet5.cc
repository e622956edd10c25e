#include "nn/lenet5.hh"

#include <algorithm>

#include "common/random.hh"

namespace pluto::nn
{

namespace
{

std::vector<i32>
randomWeights(u64 n, u32 bits, Rng &rng)
{
    std::vector<i32> w(n);
    for (auto &v : w) {
        if (bits == 1) {
            v = static_cast<i32>(rng.below(2)) * 2 - 1; // {-1, +1}
        } else {
            v = static_cast<i32>(rng.below(16)) - 8; // [-8, 7]
        }
    }
    return w;
}

} // namespace

LeNet5::LeNet5(u32 bits, u64 seed)
    : bits_(bits)
{
    if (bits != 1 && bits != 4)
        fatal("LeNet5: quantization must be 1 or 4 bits");
    Rng rng(seed);
    conv1_ = randomWeights(6ull * 1 * 5 * 5, bits, rng);
    conv2_ = randomWeights(16ull * 6 * 5 * 5, bits, rng);
    fc1_ = randomWeights(120ull * 400, bits, rng);
    fc2_ = randomWeights(84ull * 120, bits, rng);
    fc3_ = randomWeights(10ull * 84, bits, rng);
}

Tensor
LeNet5::quantizeInput(const DigitImage &img) const
{
    Tensor t = img.toTensor();
    for (auto &v : t.data) {
        if (bits_ == 1)
            v = binarize(v, 128);
        else
            v = quantize4(v - 128, 4); // center, scale to [-8, 7]
    }
    return t;
}

void
LeNet5::requantize(std::vector<i32> &v, u32 shift) const
{
    for (auto &e : v) {
        if (bits_ == 1)
            e = binarize(e);
        else
            e = quantize4(e, shift);
    }
}

std::array<i32, 10>
LeNet5::infer(const DigitImage &img) const
{
    const Tensor in = quantizeInput(img);

    Tensor x = conv2dValid(in, conv1_, 6, 5); // 6 x 24 x 24
    x = avgPool2x2(x);                        // 6 x 12 x 12
    requantize(x.data, 3);

    x = conv2dValid(x, conv2_, 16, 5); // 16 x 8 x 8
    x = avgPool2x2(x);                 // 16 x 4 x 4
    requantize(x.data, 5);

    std::vector<i32> flat = std::move(x.data); // 256
    // LeNet-5's canonical fc1 input is 400 (16 x 5 x 5); with valid
    // convolutions on 28x28 we reach 16 x 4 x 4 = 256 and pad the
    // remainder with zeros, preserving fc1's 400-wide MAC count.
    flat.resize(400, 0);

    std::vector<i32> h1 = fullyConnected(flat, fc1_, 120);
    requantize(h1, 5);
    std::vector<i32> h2 = fullyConnected(h1, fc2_, 84);
    requantize(h2, 4);
    const std::vector<i32> logits = fullyConnected(h2, fc3_, 10);

    std::array<i32, 10> out{};
    std::copy(logits.begin(), logits.end(), out.begin());
    return out;
}

u32
LeNet5::classify(const DigitImage &img) const
{
    const auto logits = infer(img);
    return static_cast<u32>(
        std::max_element(logits.begin(), logits.end()) -
        logits.begin());
}

std::vector<LayerMacs>
LeNet5::layerMacs() const
{
    return {
        {"conv1", 6ull * 24 * 24 * 25},
        {"conv2", 16ull * 8 * 8 * 6 * 25},
        {"fc1", 120ull * 400},
        {"fc2", 84ull * 120},
        {"fc3", 10ull * 84},
    };
}

u64
LeNet5::totalMacs() const
{
    u64 total = 0;
    for (const auto &l : layerMacs())
        total += l.macs;
    return total;
}

} // namespace pluto::nn
