/**
 * @file
 * Quantized layer primitives for LeNet-5 (Section 9): valid 2-D
 * convolution, 2x2 average pooling, fully connected layers, and the
 * 1-bit / 4-bit quantizers. Also exposes the XNOR-popcount binary
 * dot product identity that pLUTo's 1-bit mapping relies on
 * (verified against the direct +-1 sum in tests).
 */

#ifndef PLUTO_NN_LAYERS_HH
#define PLUTO_NN_LAYERS_HH

#include <vector>

#include "nn/tensor.hh"

namespace pluto::nn
{

/** Quantize to {-1, +1} by sign (>= threshold maps to +1). */
i32 binarize(i32 v, i32 threshold = 0);

/** Quantize to signed 4-bit [-8, 7] with a right-shift scale. */
i32 quantize4(i32 v, u32 shift);

/**
 * Valid 2-D convolution: input C x H x W, kernels O x C x K x K
 * (flattened), output O x (H-K+1) x (W-K+1). Any shape with
 * H, W >= K is accepted. Each output is the low 32 bits of the
 * exact sum of products (wrapping arithmetic, never undefined), for
 * any i32 weights and activations; quantized inputs never wrap.
 * Dispatches on simd::tier() with identical results at every tier.
 */
Tensor conv2dValid(const Tensor &in, const std::vector<i32> &kernels,
                   u32 out_ch, u32 k);

/** 2x2 average pooling (floor division by 4). */
Tensor avgPool2x2(const Tensor &in);

/**
 * Fully connected: out[o] = sum_i w[o*in+i] * x[i], for any input
 * length, with the same result contract and dispatch as
 * conv2dValid.
 */
std::vector<i32> fullyConnected(const std::vector<i32> &x,
                                const std::vector<i32> &w, u32 out_n);

/**
 * Binary dot product via the XNOR-popcount identity:
 * sum(a_i * w_i) over +-1 values equals n - 2 * popcount(a ^ w) when
 * the values are encoded as bits (+1 -> 1, -1 -> 0). This is the
 * form pLUTo executes with 4-entry XNOR LUTs + BC-8 bit counting.
 */
i32 binaryDotXnorPopcount(const std::vector<u8> &a_bits,
                          const std::vector<u8> &w_bits);

/** Reference +-1 dot product for the identity check. */
i32 binaryDotDirect(const std::vector<i32> &a, const std::vector<i32> &w);

} // namespace pluto::nn

#endif // PLUTO_NN_LAYERS_HH
