/**
 * @file
 * RunCache: the batch scenario engine's content-addressed run cache —
 * a campaign::JsonlCache over the sim field table.
 *
 * Every (device config, workload, elements, seed, repeat) run is
 * identified by a content key over a canonical descriptor string
 * (namespaced `sim/`, see campaign/cache.hh for the shared on-disk
 * discipline: append-only JSONL, torn-line tolerance, last-wins
 * load, version header). Simulated results are deterministic, so
 * replaying a cache hit is bit-identical to recomputation.
 */

#ifndef PLUTO_SIM_CACHE_HH
#define PLUTO_SIM_CACHE_HH

#include "campaign/cache.hh"
#include "runtime/device.hh"
#include "workloads/workload.hh"

namespace pluto::sim
{

/** One cached simulated outcome: the workload result plus wall. */
struct CachedRun : workloads::WorkloadResult
{
    /** Host wall-clock of the run that computed the result. */
    double wallMs = 0.0;
};

/** Cache field table of batch-run outcomes (see campaign/cache.hh). */
struct RunCacheTable
{
    static constexpr const char *kKind = "sim";
    static constexpr auto kFields = std::make_tuple(
        campaign::field("elements", &CachedRun::elements),
        campaign::field("time_ns", &CachedRun::timeNs),
        campaign::field("energy_pj", &CachedRun::energyPj),
        campaign::field("host_ns", &CachedRun::hostNs),
        campaign::field("verified", &CachedRun::verified),
        campaign::field("wall_ms", &CachedRun::wallMs));
};

/** Append-only JSONL result cache for one scenario's batch runs. */
class RunCache
    : public campaign::JsonlCache<CachedRun, RunCacheTable>
{
  public:
    using JsonlCache::JsonlCache;

    /**
     * @return the content key of one run. Everything that can change
     * a simulated result participates: the full device
     * configuration, the workload name, the resolved element count,
     * the input seed and the repeat index, plus a schema version.
     */
    static std::string key(const runtime::DeviceConfig &cfg,
                           const std::string &workload, u64 elements,
                           u64 seed, u32 repeat);
};

} // namespace pluto::sim

#endif // PLUTO_SIM_CACHE_HH
