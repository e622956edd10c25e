/**
 * @file
 * ServiceMetrics: streaming metric collection of one serving
 * simulation and the CSV/JSON report writers of --service mode.
 *
 * v2 adds tail-latency attribution: every completed request carries a
 * phase breakdown on the virtual clock (queue wait behind a busy
 * device, policy batch wait, LUT reload, tFAW stall, execution), the
 * phases sum exactly to the end-to-end latency, and onComplete folds
 * them into per-tenant aggregates, per-class tail-blame sums, an
 * exactly mergeable latency Histogram (obs/histogram), a
 * fixed-interval virtual-time series (obs/timeseries) and SLO
 * attainment/burn-rate when a [service] slo_ms is configured.
 *
 * Nothing is kept per request, so a cell's memory is
 * O(tenants + classes x latency buckets + windows), not O(requests).
 * Every reported mean, max and quantile reads a histogram, so all
 * quantiles share one nearest-rank estimator. The tail-blame
 * threshold is that estimator too: the tail is every request whose
 * latency bucket is at or above the bucket holding the threshold
 * rank, which the per-(class, bucket) sums answer exactly. Every
 * other sum is accumulated in completion order; a tail row adds its
 * buckets' completion-order sums in bucket order.
 *
 * Everything in a ServiceOutcome derives from the virtual clock and
 * the devices' command schedulers, so outcomes are bit-identical
 * across host thread counts and replay bit-identically from the
 * service cache. All analysis is computed unconditionally into the
 * outcome; CLI flags only choose which files get written, keeping
 * --deterministic outputs byte-identical with the flags on or off.
 */

#ifndef PLUTO_SERVE_METRICS_HH
#define PLUTO_SERVE_METRICS_HH

#include <string>
#include <vector>

#include "obs/histogram.hh"
#include "obs/timeseries.hh"
#include "serve/loadgen.hh"
#include "sim/config.hh"

namespace pluto::serve
{

/** Latency phases of one request, in breakdown order. */
enum class Phase : u32
{
    /** Waiting because the device was still serving earlier work. */
    QueueWait = 0,
    /** Waiting on the batching policy while the device sat idle. */
    BatchWait,
    /** LUT reload commands of the request's batch (GSA re-loads per
     *  query; BSA/GMC serve from residency and charge none). */
    LutReload,
    /** tFAW rolling-window activation stalls of the batch. */
    TfawStall,
    /** Remaining batch service time (waves, sweeps, host work). */
    Exec,
};

/** Number of Phase values (array extents, render loops). */
constexpr u32 kPhaseCount = 5;

/** @return the report spelling of a phase ("queue_wait", ...). */
const char *phaseName(u32 phase);

/**
 * Latency digest of a set of completed requests (a whole cell's, or
 * one tenant's): what the report rows of both have in common.
 */
struct LatencyDigest
{
    /** Completed requests in the set. */
    u64 requests = 0;
    /** Mean, quantiles and max from the set's latency histogram
     *  (exact bucket rank, <= 1/64 relative bucket width), ms. */
    double meanMs = 0.0;
    double p50Ms = 0.0;
    double p95Ms = 0.0;
    double p99Ms = 0.0;
    double p999Ms = 0.0;
    double maxMs = 0.0;
    /** Phase sums over the set's requests, ms (Phase order). */
    double phaseMs[kPhaseCount] = {};
    /** Effective SLO, ms (0 = untracked): the service's SLO for a
     *  whole cell, the tightest of its requests' SLOs for a tenant. */
    double sloMs = 0.0;
    /** Requests within / beyond their effective SLO. */
    u64 sloGood = 0;
    u64 sloViolations = 0;
    /** good / tracked (0 when untracked). */
    double sloAttainment = 0.0;
    /** (1 - attainment) / (1 - target): 1.0 = exactly at target. */
    double sloBurnRate = 0.0;
};

/** Latency digest of one tenant's completed requests. */
struct TenantSummary : LatencyDigest
{
    u32 tenant = 0;
};

/** One (tenant, class) row of the tail-blame table. */
struct TailGroup
{
    u32 tenant = 0;
    u32 cls = 0;
    std::string workload;
    /** Requests of this group in the tail set. */
    u64 requests = 0;
    /** Mean end-to-end latency of those requests, ms. */
    double meanMs = 0.0;
    /** Phase sums over those requests, ms (Phase order). */
    double phaseMs[kPhaseCount] = {};

    /** @return Phase index with the largest summed share. */
    u32 dominantPhase() const;
};

/** One fixed-interval window of the virtual-time series. */
struct SeriesWindow
{
    u64 arrivals = 0;
    u64 completions = 0;
    double maxQueueDepth = 0.0;
    /** Devices concurrently busy (max within the window). */
    double maxInFlight = 0.0;
    /** Summed device busy time inside the window, ns. */
    double busyNs = 0.0;
    /** Windowed completion-latency quantiles, ms (0 when none). */
    double p50Ms = 0.0;
    double p99Ms = 0.0;
};

/** Simulated outcome of one (variant, service) cell; the digest
 *  covers every completed request. */
struct ServiceOutcome : LatencyDigest
{
    /** Dispatched batches. */
    u64 batches = 0;
    /** Mean dispatched batch size. */
    double meanBatch = 0.0;
    /** Virtual time from t=0 to the last completion, ms. */
    double makespanMs = 0.0;
    /** Completed requests per second of virtual time. */
    double throughputRps = 0.0;
    /** Total queued requests, sampled at each arrival. */
    double meanQueueDepth = 0.0;
    double maxQueueDepth = 0.0;
    /** Busy time over devices x makespan. */
    double utilization = 0.0;
    /** Scheduler command energy per completed request, pJ. */
    double pjPerRequest = 0.0;
    /** Every calibration run passed functional verification. */
    bool verified = false;
    /** Host wall-clock spent inside the simulation loop itself,
     *  pool setup and calibration excluded (bench_serve_scale's
     *  engine comparison). Diagnostic only: never written to any
     *  output file, so deterministic outputs are unaffected. */
    double loopHostMs = 0.0;

    /** SLO attainment target echo. */
    double sloTarget = 0.0;
    /** Tail-blame cutoff echo and the threshold it resolved to:
     *  latHist.quantile(tailQuantile). */
    double tailQuantile = 0.0;
    double tailThresholdMs = 0.0;
    /** Requests in or above the threshold's histogram bucket (the
     *  blamed population). */
    u64 tailRequests = 0;
    /** Virtual-time series window width echo, ms. */
    double seriesIntervalMs = 0.0;

    /** Exactly mergeable end-to-end latency histogram, ms (the
     *  source of the digest above). */
    obs::Histogram latHist;
    /** Tail-blame rows, (tenant, class)-ascending. */
    std::vector<TailGroup> tail;
    /** Virtual-time series windows, time-ascending from t=0. */
    std::vector<SeriesWindow> series;
    /** Per-tenant latency digests, tenant-ascending. */
    std::vector<TenantSummary> tenants;
};

/** One --service run: labels + spec echo + outcome. */
struct ServiceRunRecord
{
    std::string variant;
    std::string service;
    /** Spec echo (redundant with the config; kept for the report). */
    std::string policy;
    std::string mode;
    u32 devices = 1;
    double ratePerSec = 0.0;
    u32 clients = 0;
    ServiceOutcome out;
    /** Outcome was replayed from the service cache. */
    bool fromCache = false;
};

/** Analysis knobs of one cell, resolved from spec and mix. */
struct MetricsConfig
{
    /** Service-level SLO, ms (0 = no SLO tracking). */
    double sloMs = 0.0;
    /** SLO attainment target in (0,1). */
    double sloTarget = 0.99;
    /** Tail-blame cutoff quantile in (0,1). */
    double tailQuantile = 0.99;
    /** Virtual-time series window width, ms. */
    double seriesIntervalMs = 1.0;
    /** Effective SLO per request class (override or service SLO). */
    std::vector<double> classSloMs;
    /** Workload name per class (tail-report labels). */
    std::vector<std::string> classNames;
    /** Tenant of each class's requests. */
    std::vector<u32> classTenants;

    /** Resolve the knobs of one (spec, mix) cell. */
    static MetricsConfig from(const sim::ServiceSpec &spec,
                              const std::vector<RequestClass> &mix);
};

/** Per-request phase breakdown handed to onComplete, ns. */
struct PhaseBreakdownNs
{
    double ns[kPhaseCount] = {};
};

/** Streaming collector filled by the simulator's event loop. */
class ServiceMetrics
{
  public:
    explicit ServiceMetrics(MetricsConfig cfg = {});

    /** Record one arrival (time on the virtual clock). */
    void onArrival(TimeNs at);

    /** Record a queue-depth sample (taken at each arrival). */
    void onQueueDepth(TimeNs at, u64 depth);

    /** Record one dispatched batch. `busyDevices` counts devices in
     *  service right after the dispatch; `serviceNs` is the batch's
     *  scheduler time (spread over the series windows it spans). */
    void onBatch(TimeNs at, u32 size, u32 busyDevices,
                 TimeNs serviceNs);

    /** Record one completed request with its phase breakdown; the
     *  phases must sum to finishNs - r.arriveNs, and r.cls must be a
     *  class of the config. */
    void onComplete(const Request &r, TimeNs finishNs,
                    const PhaseBreakdownNs &ph);

    /** Fold the collected streams into an outcome. `busyNs` is the
     *  summed busy time of all devices, `energyPj` the summed
     *  scheduler command energy. */
    ServiceOutcome finish(u32 devices, TimeNs busyNs,
                          double energyPj, bool verified) const;

  private:
    /** Tail-blame sums of one (class, latency bucket). */
    struct TailSlot
    {
        u64 requests = 0;
        double latMs = 0.0;
        double phaseMs[kPhaseCount] = {};
    };

    /** Running digest of one tenant. */
    struct TenantAcc
    {
        u32 tenant = 0;
        obs::Histogram lat;
        double phaseMs[kPhaseCount] = {};
        /** Tightest effective SLO among its completed requests. */
        double sloMs = 0.0;
        u64 sloGood = 0;
        u64 sloViolations = 0;
    };

    /** Per-class state, resolved once from the config. */
    struct ClassAcc
    {
        /** Index into tenants_. */
        u32 tenantSlot = 0;
        /** Effective SLO of the class, ms (0 = untracked). */
        double sloMs = 0.0;
        obs::Histogram::Slots<TailSlot> tail;
    };

    MetricsConfig cfg_;
    obs::Histogram latHist_;
    double phaseMs_[kPhaseCount] = {};
    u64 sloGood_ = 0;
    u64 sloViolations_ = 0;
    /** Tenant-ascending. */
    std::vector<TenantAcc> tenants_;
    /** Class index -> accumulators. */
    std::vector<ClassAcc> classes_;
    obs::TimeSeries series_;
    u64 queueDepthSamples_ = 0;
    u64 queueDepthSum_ = 0;
    u64 queueDepthMax_ = 0;
    u64 batches_ = 0;
    u64 batchedRequests_ = 0;
    TimeNs lastFinishNs_ = 0.0;
};

/** Output writer for --service mode results. */
class ServiceMetricsSink
{
  public:
    /**
     * @return the service CSV document: per record one `tenant=all`
     * row plus one row per tenant.
     */
    static std::string
    renderCsv(const sim::SimConfig &cfg,
              const std::vector<ServiceRunRecord> &runs);

    /** @return the JSON summary document. */
    static std::string
    renderJson(const sim::SimConfig &cfg,
               const std::vector<ServiceRunRecord> &runs,
               double wallMs);

    /**
     * @return the tail-blame JSON document (--tail-report): per run
     * the (tenant, class) groups above the tail threshold with phase
     * sums, shares and the dominant phase, plus a per-variant rollup
     * across all of the variant's cells.
     */
    static std::string
    renderTailReport(const sim::SimConfig &cfg,
                     const std::vector<ServiceRunRecord> &runs);

    /**
     * @return the virtual-time series CSV (--timeseries): one row
     * per (run, window) with rates, depths, utilization and windowed
     * latency quantiles.
     */
    static std::string
    renderTimeseriesCsv(const sim::SimConfig &cfg,
                        const std::vector<ServiceRunRecord> &runs);

    /**
     * Write `<outDir>/<name><suffix>_service_runs.csv` and
     * `<outDir>/<name><suffix>_service_summary.json`. On success
     * @return empty string and append both paths to `written`.
     */
    static std::string
    write(const sim::SimConfig &cfg,
          const std::vector<ServiceRunRecord> &runs, double wallMs,
          std::vector<std::string> &written,
          const std::string &suffix = {});
};

} // namespace pluto::serve

#endif // PLUTO_SERVE_METRICS_HH
