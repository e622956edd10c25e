/**
 * @file
 * Quantized LeNet-5 [140] for the Section 9 case study: 1-bit
 * (binary, XNOR-popcount) and 4-bit variants.
 *
 * Topology: conv1 5x5 (1->6) -> avgpool -> conv2 5x5 (6->16) ->
 * avgpool -> fc1 (400->120) -> fc2 (120->84) -> fc3 (84->10).
 * Weights are deterministic pseudo-random quantized values: Table 7
 * evaluates inference time and energy (accuracies are quoted from
 * [138] in the paper), so the compute path — not trained weights —
 * is what must be faithful.
 */

#ifndef PLUTO_NN_LENET5_HH
#define PLUTO_NN_LENET5_HH

#include <array>

#include "nn/layers.hh"
#include "nn/mnist_synth.hh"

namespace pluto::nn
{

/** Per-layer multiply-accumulate counts. */
struct LayerMacs
{
    std::string name;
    u64 macs = 0;
};

/** Quantized LeNet-5 inference engine. */
class LeNet5
{
  public:
    /**
     * @param bits Quantization width: 1 (binary) or 4.
     * @param seed Weight-generation seed.
     */
    LeNet5(u32 bits, u64 seed = 5);

    u32 bits() const { return bits_; }

    /** @return the 10 output logits for one image. */
    std::array<i32, 10> infer(const DigitImage &img) const;

    /** @return argmax class. */
    u32 classify(const DigitImage &img) const;

    /** Per-layer MAC counts (for the pLUTo mapping). */
    std::vector<LayerMacs> layerMacs() const;

    /** Total MACs per inference. */
    u64 totalMacs() const;

  private:
    Tensor quantizeInput(const DigitImage &img) const;
    /** Binarize, or 4-bit quantize with `shift`, in place. */
    void requantize(std::vector<i32> &v, u32 shift) const;

    u32 bits_;
    std::vector<i32> conv1_; // 6 x 1 x 5 x 5
    std::vector<i32> conv2_; // 16 x 6 x 5 x 5
    std::vector<i32> fc1_;   // 120 x 400
    std::vector<i32> fc2_;   // 84 x 120
    std::vector<i32> fc3_;   // 10 x 84
};

} // namespace pluto::nn

#endif // PLUTO_NN_LENET5_HH
