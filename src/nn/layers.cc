#include "nn/layers.hh"

#include <algorithm>

#include "common/cpuid.hh"

namespace pluto::nn
{

namespace
{

/*
 * The two hot kernels are written once as portable C++ and compiled
 * twice: a baseline copy and an AVX2 copy (the always-inline body
 * takes the caller's target, so the vectorizer uses 256-bit lanes
 * there). simd::tier() picks the copy; PLUTO_NO_SIMD keeps the
 * baseline one exercised.
 *
 * Sums wrap in u32: the low 32 bits of a sum of products depend only
 * on the low 32 bits of each term, so the result equals the exact
 * sum truncated to i32 for every input, with no overflow anywhere.
 */

/** `acc + w * x` modulo 2^32. */
inline i32
mac(i32 acc, i32 w, i32 x)
{
    return static_cast<i32>(static_cast<u32>(acc) +
                            static_cast<u32>(w) * static_cast<u32>(x));
}

/**
 * out[o][p] = sum_t w[o][t] * cols[t][p], rows of n positions. Whole
 * blocks of kBlock positions accumulate in a local array the
 * compiler keeps in vector registers across all taps; the tail
 * accumulates in place.
 */
[[gnu::always_inline]] inline void
convBody(const i32 *__restrict w, const i32 *__restrict cols,
         std::size_t taps, std::size_t n, u32 out_ch,
         i32 *__restrict out)
{
    constexpr std::size_t kBlock = 32;
    for (u32 o = 0; o < out_ch; ++o, w += taps, out += n) {
        std::size_t p0 = 0;
        for (; p0 + kBlock <= n; p0 += kBlock) {
            i32 acc[kBlock] = {};
            for (std::size_t t = 0; t < taps; ++t) {
                const i32 *row = cols + t * n + p0;
                for (std::size_t j = 0; j < kBlock; ++j)
                    acc[j] = mac(acc[j], w[t], row[j]);
            }
            std::copy_n(acc, kBlock, out + p0);
        }
        std::fill(out + p0, out + n, 0);
        for (std::size_t t = 0; t < taps; ++t)
            for (std::size_t p = p0; p < n; ++p)
                out[p] = mac(out[p], w[t], cols[t * n + p]);
    }
}

/** out[o] = sum_i w[o][i] * x[i], rows of n inputs. */
[[gnu::always_inline]] inline void
fcBody(const i32 *__restrict w, const i32 *__restrict x, std::size_t n,
       u32 out_n, i32 *__restrict out)
{
    for (u32 o = 0; o < out_n; ++o, w += n) {
        i32 acc = 0;
        for (std::size_t i = 0; i < n; ++i)
            acc = mac(acc, w[i], x[i]);
        out[o] = acc;
    }
}

void
convBase(const i32 *w, const i32 *cols, std::size_t taps, std::size_t n,
         u32 out_ch, i32 *out)
{
    convBody(w, cols, taps, n, out_ch, out);
}

void
fcBase(const i32 *w, const i32 *x, std::size_t n, u32 out_n, i32 *out)
{
    fcBody(w, x, n, out_n, out);
}

#if (defined(__x86_64__) || defined(__i386__)) && \
    (defined(__GNUC__) || defined(__clang__))

__attribute__((target("avx2"))) void
convAvx2(const i32 *w, const i32 *cols, std::size_t taps, std::size_t n,
         u32 out_ch, i32 *out)
{
    convBody(w, cols, taps, n, out_ch, out);
}

__attribute__((target("avx2"))) void
fcAvx2(const i32 *w, const i32 *x, std::size_t n, u32 out_n, i32 *out)
{
    fcBody(w, x, n, out_n, out);
}

#else

// tier() never reports Avx2 off x86.
constexpr auto convAvx2 = convBase;
constexpr auto fcAvx2 = fcBase;

#endif

} // namespace

i32
binarize(i32 v, i32 threshold)
{
    return v >= threshold ? 1 : -1;
}

i32
quantize4(i32 v, u32 shift)
{
    const i32 scaled = v >> shift;
    return std::clamp(scaled, -8, 7);
}

Tensor
conv2dValid(const Tensor &in, const std::vector<i32> &kernels, u32 out_ch,
            u32 k)
{
    PLUTO_ASSERT(in.h >= k && in.w >= k);
    PLUTO_ASSERT(kernels.size() ==
                 static_cast<std::size_t>(out_ch) * in.c * k * k);
    Tensor out(out_ch, in.h - k + 1, in.w - k + 1);
    const std::size_t taps = static_cast<std::size_t>(in.c) * k * k;
    const std::size_t n = static_cast<std::size_t>(out.h) * out.w;

    // im2col: row t = (ci, dy, dx) holds that tap's input for every
    // output position, so each output channel is a sum of weight-
    // scaled contiguous rows. The scratch is reused per thread.
    thread_local std::vector<i32> cols;
    cols.resize(taps * n);
    i32 *row = cols.data();
    for (u32 ci = 0; ci < in.c; ++ci)
        for (u32 dy = 0; dy < k; ++dy)
            for (u32 dx = 0; dx < k; ++dx)
                for (u32 y = 0; y < out.h; ++y, row += out.w)
                    std::copy_n(&in.data[(static_cast<std::size_t>(ci) *
                                              in.h + y + dy) * in.w + dx],
                                out.w, row);

    const auto conv =
        simd::tier() >= simd::Tier::Avx2 ? convAvx2 : convBase;
    conv(kernels.data(), cols.data(), taps, n, out_ch, out.data.data());
    return out;
}

Tensor
avgPool2x2(const Tensor &in)
{
    Tensor out(in.c, in.h / 2, in.w / 2);
    for (u32 ci = 0; ci < out.c; ++ci)
        for (u32 y = 0; y < out.h; ++y)
            for (u32 x = 0; x < out.w; ++x) {
                i32 sum = in.at(ci, 2 * y, 2 * x) +
                          in.at(ci, 2 * y, 2 * x + 1) +
                          in.at(ci, 2 * y + 1, 2 * x) +
                          in.at(ci, 2 * y + 1, 2 * x + 1);
                // Floor toward negative infinity for negative sums so
                // the 1-bit path is sign-stable.
                out.at(ci, y, x) =
                    sum >= 0 ? sum / 4 : -(((-sum) + 3) / 4);
            }
    return out;
}

std::vector<i32>
fullyConnected(const std::vector<i32> &x, const std::vector<i32> &w,
               u32 out_n)
{
    PLUTO_ASSERT(w.size() == static_cast<std::size_t>(out_n) * x.size());
    std::vector<i32> out(out_n);
    const auto fc = simd::tier() >= simd::Tier::Avx2 ? fcAvx2 : fcBase;
    fc(w.data(), x.data(), x.size(), out_n, out.data());
    return out;
}

i32
binaryDotXnorPopcount(const std::vector<u8> &a_bits,
                      const std::vector<u8> &w_bits)
{
    PLUTO_ASSERT(a_bits.size() == w_bits.size());
    u32 mismatches = 0;
    for (std::size_t i = 0; i < a_bits.size(); ++i)
        mismatches += (a_bits[i] ^ w_bits[i]) & 1;
    return static_cast<i32>(a_bits.size()) -
           2 * static_cast<i32>(mismatches);
}

i32
binaryDotDirect(const std::vector<i32> &a, const std::vector<i32> &w)
{
    PLUTO_ASSERT(a.size() == w.size());
    i32 acc = 0;
    for (std::size_t i = 0; i < a.size(); ++i)
        acc += a[i] * w[i];
    return acc;
}

} // namespace pluto::nn
