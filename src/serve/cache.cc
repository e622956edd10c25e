/**
 * @file
 * Service-outcome cache key (see cache.hh).
 */

#include "serve/cache.hh"

#include <sstream>

namespace pluto::serve
{

namespace
{

/** Bump when the serving model changes cached semantics.
 *  v3: tail-latency attribution (phase sums, SLO tracking, tail
 *  groups, latency histogram, virtual-time series). */
// v4: batches charge from a canonical per-batch scheduler epoch
// (batch-signature memoization), which moves outcomes by FP ulps
// and drops inter-batch tFAW carry-in relative to v3.
// v5: the P² tenant fields are gone and the cell quantiles read the
// latency histogram.
// v6: the tail threshold is the latency histogram's quantile and the
// tail set is every request in or above the threshold's bucket.
constexpr u32 kServeSchema = 6;

} // namespace

std::string
ServiceCache::key(const runtime::DeviceConfig &cfg,
                  const sim::ServiceSpec &svc,
                  const std::vector<RequestClass> &mix)
{
    std::ostringstream d;
    d << 'v' << kServeSchema << '|' << deviceDescriptor(cfg) << '|'
      << sim::keyDescriptor(svc, ',');
    for (const auto &c : mix)
        d << '|' << c.workload << ',' << c.elements << ',' << c.seed
          << ',' << c.tenant << ',' << fmtDoubleExact(c.weight)
          << ',' << fmtDoubleExact(c.sloMs);
    return keyFor(d.str());
}

} // namespace pluto::serve
