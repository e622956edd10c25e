/**
 * @file
 * Shared helpers for the bench harnesses.
 */

#ifndef PLUTO_BENCH_BENCH_COMMON_HH
#define PLUTO_BENCH_BENCH_COMMON_HH

#include <cstdio>
#include <string>

namespace pluto::bench
{

/** Print a titled section. */
inline void
section(const std::string &title)
{
    std::printf("\n=== %s ===\n\n", title.c_str());
}

} // namespace pluto::bench

#endif // PLUTO_BENCH_BENCH_COMMON_HH
