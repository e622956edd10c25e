/**
 * @file
 * ServiceCache: the serving counterpart of sim::RunCache — a
 * campaign::JsonlCache over the serve field tables.
 *
 * One (device config, service spec, request mix) cell is identified
 * by a content key over a canonical descriptor (namespaced `serve/`);
 * outcomes share the campaign cache's on-disk discipline (append-only
 * JSONL, torn-line tolerance, last-wins load, version header), so
 * sharded service campaigns share one cache and a merge pass replays
 * every cell bit-identically.
 */

#ifndef PLUTO_SERVE_CACHE_HH
#define PLUTO_SERVE_CACHE_HH

#include <vector>

#include "campaign/cache.hh"
#include "serve/loadgen.hh"
#include "serve/metrics.hh"

namespace pluto::serve
{

/** Cache field table of service outcomes (see campaign/cache.hh). */
struct ServiceCacheTable
{
    static constexpr const char *kKind = "serve";

    static constexpr auto kTailFields = std::make_tuple(
        campaign::field("tenant", &TailGroup::tenant),
        campaign::field("class", &TailGroup::cls),
        campaign::field("workload", &TailGroup::workload),
        campaign::field("requests", &TailGroup::requests),
        campaign::field("mean_ms", &TailGroup::meanMs),
        campaign::field("phase_ms", &TailGroup::phaseMs));

    /** Written positionally: one JSON array per window. */
    static constexpr auto kSeriesFields = std::make_tuple(
        campaign::field("arrivals", &SeriesWindow::arrivals),
        campaign::field("completions", &SeriesWindow::completions),
        campaign::field("max_queue_depth", &SeriesWindow::maxQueueDepth),
        campaign::field("max_in_flight", &SeriesWindow::maxInFlight),
        campaign::field("busy_ns", &SeriesWindow::busyNs),
        campaign::field("p50_ms", &SeriesWindow::p50Ms),
        campaign::field("p99_ms", &SeriesWindow::p99Ms));

    static constexpr auto kTenantFields = std::make_tuple(
        campaign::field("tenant", &TenantSummary::tenant),
        campaign::field("requests", &TenantSummary::requests),
        campaign::field("mean_ms", &TenantSummary::meanMs),
        campaign::field("p50_ms", &TenantSummary::p50Ms),
        campaign::field("p95_ms", &TenantSummary::p95Ms),
        campaign::field("p99_ms", &TenantSummary::p99Ms),
        campaign::field("p999_ms", &TenantSummary::p999Ms),
        campaign::field("max_ms", &TenantSummary::maxMs),
        campaign::field("slo_ms", &TenantSummary::sloMs),
        campaign::field("slo_attainment", &TenantSummary::sloAttainment),
        campaign::field("slo_burn_rate", &TenantSummary::sloBurnRate),
        campaign::field("slo_good", &TenantSummary::sloGood),
        campaign::field("slo_violations", &TenantSummary::sloViolations),
        campaign::field("phase_ms", &TenantSummary::phaseMs));

    static constexpr auto kFields = std::make_tuple(
        campaign::field("requests", &ServiceOutcome::requests),
        campaign::field("batches", &ServiceOutcome::batches),
        campaign::field("mean_batch", &ServiceOutcome::meanBatch),
        campaign::field("makespan_ms", &ServiceOutcome::makespanMs),
        campaign::field("throughput_rps", &ServiceOutcome::throughputRps),
        campaign::field("mean_ms", &ServiceOutcome::meanMs),
        campaign::field("p50_ms", &ServiceOutcome::p50Ms),
        campaign::field("p95_ms", &ServiceOutcome::p95Ms),
        campaign::field("p99_ms", &ServiceOutcome::p99Ms),
        campaign::field("p999_ms", &ServiceOutcome::p999Ms),
        campaign::field("max_ms", &ServiceOutcome::maxMs),
        campaign::field("mean_queue_depth", &ServiceOutcome::meanQueueDepth),
        campaign::field("max_queue_depth", &ServiceOutcome::maxQueueDepth),
        campaign::field("utilization", &ServiceOutcome::utilization),
        campaign::field("pj_per_request", &ServiceOutcome::pjPerRequest),
        campaign::field("slo_ms", &ServiceOutcome::sloMs),
        campaign::field("slo_target", &ServiceOutcome::sloTarget),
        campaign::field("slo_attainment", &ServiceOutcome::sloAttainment),
        campaign::field("slo_burn_rate", &ServiceOutcome::sloBurnRate),
        campaign::field("tail_quantile", &ServiceOutcome::tailQuantile),
        campaign::field("tail_threshold_ms",
                        &ServiceOutcome::tailThresholdMs),
        campaign::field("series_interval_ms",
                        &ServiceOutcome::seriesIntervalMs),
        campaign::field("slo_good", &ServiceOutcome::sloGood),
        campaign::field("slo_violations", &ServiceOutcome::sloViolations),
        campaign::field("tail_requests", &ServiceOutcome::tailRequests),
        campaign::field("phase_ms", &ServiceOutcome::phaseMs),
        campaign::field("verified", &ServiceOutcome::verified),
        campaign::field("lat_hist", &ServiceOutcome::latHist),
        campaign::objects("tail", &ServiceOutcome::tail, kTailFields),
        campaign::arrays("series", &ServiceOutcome::series,
                         kSeriesFields),
        campaign::objects("tenants", &ServiceOutcome::tenants,
                          kTenantFields));
};

/** Append-only JSONL outcome cache for one scenario's service runs. */
class ServiceCache
    : public campaign::JsonlCache<ServiceOutcome, ServiceCacheTable>
{
  public:
    using JsonlCache::JsonlCache;

    /**
     * @return the content key of one (variant, service, mix) cell;
     * its service part is every [service] key (sim::keyDescriptor).
     */
    static std::string key(const runtime::DeviceConfig &cfg,
                           const sim::ServiceSpec &svc,
                           const std::vector<RequestClass> &mix);
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_CACHE_HH
