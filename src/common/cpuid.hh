/**
 * @file
 * Runtime SIMD dispatch for the bulk kernels and the nn kernels.
 *
 * The bulk kernels (bitvec_bulk.cc) carry explicit SSSE3/AVX2 paths
 * compiled with per-function target attributes, so one binary runs
 * everywhere and picks the widest instruction set the machine
 * actually has. The nn convolution and fully connected kernels
 * (nn/layers.cc) compile one portable body twice, baseline and
 * AVX2, and pick the copy the same way. This header is the single
 * source of that decision:
 *
 *  - tier() returns the active tier, computed once: the detected CPU
 *    capability, downgraded to Scalar when the PLUTO_NO_SIMD
 *    environment variable is set (to anything but "0" or "") — the
 *    switch CI uses to keep the scalar fallback exercised;
 *  - overrideTier() lets tests force a lower tier and compare every
 *    implementation against the scalar oracle on one machine.
 *
 * Dispatch never changes results: each SIMD path is bit-exact
 * against the scalar reference (property-tested per tier), so
 * --deterministic outputs are byte-identical across tiers.
 */

#ifndef PLUTO_COMMON_CPUID_HH
#define PLUTO_COMMON_CPUID_HH

#include "common/types.hh"

namespace pluto::simd
{

/** Instruction-set tiers the kernels dispatch over, widest
 *  last. Comparable: a machine at tier T runs every path <= T. */
enum class Tier : u8
{
    Scalar = 0,
    Ssse3 = 1,
    Avx2 = 2,
};

/** @return the active tier: min(detected CPU tier, override),
 *  or Scalar when PLUTO_NO_SIMD is set. Cached after the first
 *  call (the env var is read once per process). */
Tier tier();

/** @return the raw CPU capability, ignoring env and override. */
Tier detectedTier();

/** @return lower-case tier name ("scalar", "ssse3", "avx2"). */
const char *tierName(Tier t);

/**
 * Test hook: cap tier() at `t` (clamped to detectedTier(), so
 * forcing Avx2 on an SSE-only box stays safe). Not thread-safe;
 * call only from single-threaded test setup.
 */
void overrideTier(Tier t);

/** Remove the overrideTier() cap. */
void clearTierOverride();

} // namespace pluto::simd

#endif // PLUTO_COMMON_CPUID_HH
