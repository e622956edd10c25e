/**
 * @file
 * Synthetic MNIST substitute (README, "NN mode"): deterministic,
 * procedurally drawn 28x28 8-bit digit images. Each digit class has
 * a coarse 7x7 stroke template that is upscaled with jitter, stroke
 * thickening and additive noise, producing MNIST-like inputs that
 * exercise the identical inference compute path. Table 7 measures
 * inference time/energy, not accuracy, so template realism is
 * sufficient.
 */

#ifndef PLUTO_NN_MNIST_SYNTH_HH
#define PLUTO_NN_MNIST_SYNTH_HH

#include <vector>

#include "common/types.hh"
#include "nn/tensor.hh"

namespace pluto::nn
{

/** A 28x28 8-bit grayscale image with its class label. */
struct DigitImage
{
    u32 label = 0;
    std::vector<u8> pixels; // 784 values

    /** As a 1 x 28 x 28 tensor of [0, 255] values. */
    Tensor toTensor() const;
};

/** Deterministic synthetic digit generator. */
class MnistSynth
{
  public:
    explicit MnistSynth(u64 seed = 60000);

    /** Generate one image of digit class `label` (0-9). */
    DigitImage image(u32 label);

    /** Generate `n` images with round-robin labels. */
    std::vector<DigitImage> batch(u32 n);

  private:
    u64 seed_;
    u64 counter_ = 0;
};

} // namespace pluto::nn

#endif // PLUTO_NN_MNIST_SYNTH_HH
