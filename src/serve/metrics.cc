/**
 * @file
 * Service metric folding and report rendering (see metrics.hh).
 */

#include "serve/metrics.hh"

#include <algorithm>
#include <cmath>
#include <map>
#include <numeric>

#include "campaign/columns.hh"
#include "common/logging.hh"

namespace pluto::serve
{

namespace
{

/** Column slots of the internal TimeSeries (declaration order). */
enum SeriesColId : std::size_t
{
    kColArrivals = 0,
    kColCompletions,
    kColQueueDepth,
    kColInflight,
    kColBusyNs,
    kColLatencyMs,
};

std::vector<obs::SeriesCol>
seriesSchema()
{
    return {{"arrivals", obs::SeriesAgg::Sum},
            {"completions", obs::SeriesAgg::Sum},
            {"queue_depth", obs::SeriesAgg::Max},
            {"inflight", obs::SeriesAgg::Max},
            {"busy_ns", obs::SeriesAgg::Sum},
            {"latency_ms", obs::SeriesAgg::Hist}};
}

/** Fill the latency digest of `d` from histogram `h`. */
void
setDigest(LatencyDigest &d, const obs::Histogram &h)
{
    d.requests = h.count();
    d.meanMs = h.mean();
    d.p50Ms = h.quantile(0.50);
    d.p95Ms = h.quantile(0.95);
    d.p99Ms = h.quantile(0.99);
    d.p999Ms = h.quantile(0.999);
    d.maxMs = h.max();
}

/** attainment over tracked requests; 0 when nothing was tracked. */
double
attainmentOf(u64 good, u64 violations)
{
    const u64 tracked = good + violations;
    return tracked ? static_cast<double>(good) /
                         static_cast<double>(tracked)
                   : 0.0;
}

/** Error-budget burn: 1.0 = exactly at target, >1 = burning. */
double
burnOf(u64 good, u64 violations, double target)
{
    if (good + violations == 0 || !(target < 1.0))
        return 0.0;
    return (1.0 - attainmentOf(good, violations)) / (1.0 - target);
}

} // namespace

const char *
phaseName(u32 phase)
{
    static constexpr const char *kNames[kPhaseCount] = {
        "queue_wait", "batch_wait", "lut_reload", "tfaw_stall", "exec"};
    return phase < kPhaseCount ? kNames[phase] : "unknown";
}

u32
TailGroup::dominantPhase() const
{
    u32 best = 0;
    for (u32 i = 1; i < kPhaseCount; ++i)
        if (phaseMs[i] > phaseMs[best])
            best = i;
    return best;
}

MetricsConfig
MetricsConfig::from(const sim::ServiceSpec &spec,
                    const std::vector<RequestClass> &mix)
{
    MetricsConfig c;
    c.sloMs = spec.sloMs;
    c.sloTarget = spec.sloTarget;
    c.tailQuantile = spec.tailQuantile;
    c.seriesIntervalMs = spec.timeseriesMs;
    c.classSloMs.reserve(mix.size());
    c.classNames.reserve(mix.size());
    c.classTenants.reserve(mix.size());
    for (const auto &m : mix) {
        c.classSloMs.push_back(m.sloMs > 0.0 ? m.sloMs : spec.sloMs);
        c.classNames.push_back(m.workload);
        c.classTenants.push_back(m.tenant);
    }
    return c;
}

ServiceMetrics::ServiceMetrics(MetricsConfig cfg)
    : cfg_(std::move(cfg)),
      series_(std::max(cfg_.seriesIntervalMs, 1e-6) * 1e6,
              seriesSchema())
{
    const std::vector<u32> &owner = cfg_.classTenants;
    std::vector<u32> ids = owner;
    std::sort(ids.begin(), ids.end());
    ids.erase(std::unique(ids.begin(), ids.end()), ids.end());
    tenants_.resize(ids.size());
    for (std::size_t i = 0; i < ids.size(); ++i)
        tenants_[i].tenant = ids[i];

    classes_.resize(owner.size());
    for (u32 c = 0; c < owner.size(); ++c) {
        classes_[c].tenantSlot = static_cast<u32>(
            std::lower_bound(ids.begin(), ids.end(), owner[c]) -
            ids.begin());
        classes_[c].sloMs = c < cfg_.classSloMs.size()
                                ? cfg_.classSloMs[c]
                                : cfg_.sloMs;
    }
}

void
ServiceMetrics::onArrival(TimeNs at)
{
    series_.record(at, kColArrivals, 1.0);
}

void
ServiceMetrics::onQueueDepth(TimeNs at, u64 depth)
{
    ++queueDepthSamples_;
    queueDepthSum_ += depth;
    queueDepthMax_ = std::max(queueDepthMax_, depth);
    series_.record(at, kColQueueDepth,
                   static_cast<double>(depth));
}

void
ServiceMetrics::onBatch(TimeNs at, u32 size, u32 busyDevices,
                        TimeNs serviceNs)
{
    ++batches_;
    batchedRequests_ += size;
    series_.record(at, kColInflight,
                   static_cast<double>(busyDevices));
    series_.recordSpan(at, at + serviceNs, kColBusyNs, serviceNs);
}

void
ServiceMetrics::onComplete(const Request &r, TimeNs finishNs,
                           const PhaseBreakdownNs &ph)
{
    PLUTO_ASSERT(r.cls < classes_.size());
    ClassAcc &c = classes_[r.cls];
    TenantAcc &t = tenants_[c.tenantSlot];
    PLUTO_ASSERT(t.tenant == r.tenant);
    const double ms = (finishNs - r.arriveNs) * 1e-6;
    latHist_.add(ms);
    t.lat.add(ms);
    TailSlot &tail = c.tail.at(obs::Histogram::bucketOf(ms));
    ++tail.requests;
    tail.latMs += ms;
    for (u32 i = 0; i < kPhaseCount; ++i) {
        const double phMs = ph.ns[i] * 1e-6;
        phaseMs_[i] += phMs;
        t.phaseMs[i] += phMs;
        tail.phaseMs[i] += phMs;
    }
    if (c.sloMs > 0.0) {
        // The tightest SLO among a tenant's classes is the one
        // reported: mixed-SLO tenants show the strictest bound.
        t.sloMs = t.sloMs > 0.0 ? std::min(t.sloMs, c.sloMs) : c.sloMs;
        const bool good = ms <= c.sloMs;
        t.sloGood += good;
        t.sloViolations += !good;
        sloGood_ += good;
        sloViolations_ += !good;
    }

    series_.record(finishNs, kColCompletions, 1.0);
    series_.record(finishNs, kColLatencyMs, ms);
    lastFinishNs_ = std::max(lastFinishNs_, finishNs);
}

ServiceOutcome
ServiceMetrics::finish(u32 devices, TimeNs busyNs, double energyPj,
                       bool verified) const
{
    ServiceOutcome out;
    out.latHist = latHist_;
    setDigest(out, latHist_);
    for (u32 i = 0; i < kPhaseCount; ++i)
        out.phaseMs[i] = phaseMs_[i];
    out.sloGood = sloGood_;
    out.sloViolations = sloViolations_;
    out.sloAttainment = attainmentOf(out.sloGood, out.sloViolations);
    out.sloBurnRate =
        burnOf(out.sloGood, out.sloViolations, cfg_.sloTarget);

    out.batches = batches_;
    out.meanBatch =
        batches_ ? static_cast<double>(batchedRequests_) /
                       static_cast<double>(batches_)
                 : 0.0;
    out.makespanMs = lastFinishNs_ * 1e-6;
    out.throughputRps = lastFinishNs_ > 0.0
                            ? static_cast<double>(out.requests) /
                                  (lastFinishNs_ * 1e-9)
                            : 0.0;
    out.meanQueueDepth =
        queueDepthSamples_
            ? static_cast<double>(queueDepthSum_) /
                  static_cast<double>(queueDepthSamples_)
            : 0.0;
    out.maxQueueDepth = static_cast<double>(queueDepthMax_);
    out.utilization =
        lastFinishNs_ > 0.0 && devices > 0
            ? busyNs / (static_cast<double>(devices) * lastFinishNs_)
            : 0.0;
    out.pjPerRequest =
        out.requests ? energyPj / static_cast<double>(out.requests)
                     : 0.0;
    out.verified = verified;
    out.sloMs = cfg_.sloMs;
    out.sloTarget = cfg_.sloTarget;
    out.tailQuantile = cfg_.tailQuantile;
    out.seriesIntervalMs = cfg_.seriesIntervalMs;

    // ---- Tail blame: the threshold is the histogram's quantile, the
    //      tail every request in or above its bucket; (tenant, class)
    //      rows sum their classes' buckets from the cut up.
    if (!latHist_.empty()) {
        out.tailThresholdMs = latHist_.quantile(cfg_.tailQuantile);
        const i32 cut = latHist_.quantileBucket(cfg_.tailQuantile);
        // Rows go (tenant, class)-ascending.
        std::vector<u32> order(classes_.size());
        std::iota(order.begin(), order.end(), 0u);
        std::stable_sort(order.begin(), order.end(),
                         [&](u32 a, u32 b) {
                             return classes_[a].tenantSlot <
                                    classes_[b].tenantSlot;
                         });
        for (const u32 cls : order) {
            const ClassAcc &c = classes_[cls];
            TailGroup g;
            g.tenant = tenants_[c.tenantSlot].tenant;
            g.cls = cls;
            if (cls < cfg_.classNames.size())
                g.workload = cfg_.classNames[cls];
            c.tail.forEach([&](i32 idx, const TailSlot &slot) {
                if (idx < cut || slot.requests == 0)
                    return;
                g.requests += slot.requests;
                g.meanMs += slot.latMs;
                for (u32 i = 0; i < kPhaseCount; ++i)
                    g.phaseMs[i] += slot.phaseMs[i];
            });
            if (g.requests == 0)
                continue;
            g.meanMs /= static_cast<double>(g.requests);
            out.tailRequests += g.requests;
            out.tail.push_back(std::move(g));
        }
    }

    // ---- Per-tenant digests, tenant-ascending.
    for (const TenantAcc &acc : tenants_) {
        if (acc.lat.empty())
            continue;
        TenantSummary t;
        t.tenant = acc.tenant;
        setDigest(t, acc.lat);
        for (u32 i = 0; i < kPhaseCount; ++i)
            t.phaseMs[i] = acc.phaseMs[i];
        t.sloMs = acc.sloMs;
        t.sloGood = acc.sloGood;
        t.sloViolations = acc.sloViolations;
        t.sloAttainment = attainmentOf(t.sloGood, t.sloViolations);
        t.sloBurnRate =
            burnOf(t.sloGood, t.sloViolations, cfg_.sloTarget);
        out.tenants.push_back(t);
    }

    // ---- Virtual-time series: flatten the window store.
    out.series.reserve(series_.windows());
    for (std::size_t w = 0; w < series_.windows(); ++w) {
        SeriesWindow win;
        win.arrivals = static_cast<u64>(
            std::llround(series_.value(w, kColArrivals)));
        win.completions = static_cast<u64>(
            std::llround(series_.value(w, kColCompletions)));
        win.maxQueueDepth = series_.value(w, kColQueueDepth);
        win.maxInFlight = series_.value(w, kColInflight);
        win.busyNs = series_.value(w, kColBusyNs);
        const obs::Histogram &h = series_.hist(w, kColLatencyMs);
        if (!h.empty()) {
            win.p50Ms = h.quantile(0.50);
            win.p99Ms = h.quantile(0.99);
        }
        out.series.push_back(win);
    }
    return out;
}

namespace
{

using campaign::Column;

/**
 * One row of a run's reports: the run itself (`t` null: its
 * `tenant=all` CSV row and its summary JSON result) or one of its
 * tenants. The row carries that set's latency digest.
 */
struct RunRow : LatencyDigest
{
    const sim::SimConfig &cfg;
    const ServiceRunRecord &r;
    const TenantSummary *t = nullptr;
};

/** One window of a run's virtual-time series. */
struct WindowRow : SeriesWindow
{
    const sim::SimConfig &cfg;
    const ServiceRunRecord &r;
    u64 w;
};

/**
 * @return one column per Phase, named prefix + phaseName + suffix,
 * whose cell is `get(row, phase)`.
 */
template <typename Get>
auto
phaseColumns(const std::string &prefix, const std::string &suffix,
             Get get, const char *fmt = "%.17g")
{
    return [&]<u32... P>(std::integer_sequence<u32, P...>) {
        return campaign::columns(Column{
            prefix + phaseName(P) + suffix,
            [get](const auto &row) { return get(row, P); }, fmt}...);
    }(std::make_integer_sequence<u32, kPhaseCount>{});
}

/** @return the getter of run-wide member `m`: blank on tenant rows,
 *  where batching, queueing and load have no meaning. */
template <typename M>
auto
poolWide(M ServiceOutcome::*m)
{
    return [m](const RunRow &v) -> std::variant<campaign::Blank, M> {
        if (v.t)
            return {};
        return v.r.out.*m;
    };
}

/** @return the getter of run member `m` (every row of a run). */
template <typename M>
auto
ofRun(M ServiceOutcome::*m)
{
    return [m](const auto &v) { return v.r.out.*m; };
}

// Columns shared by the tables below. kScenario, kVariant and
// kService read any row with a config and a run; the rest a RunRow.
const auto kScenario =
    Column{"scenario", [](auto &v) { return v.cfg.name; }};
const auto kVariant =
    Column{"variant", [](auto &v) { return v.r.variant; }};
const auto kService =
    Column{"service", [](auto &v) { return v.r.service; }};
const auto kSpec = campaign::columns(
    kVariant, kService,
    Column{"policy", [](auto &v) { return v.r.policy; }},
    Column{"mode", [](auto &v) { return v.r.mode; }},
    Column{"devices", [](auto &v) { return v.r.devices; }},
    Column{"rate_rps", [](auto &v) { return v.r.ratePerSec; }, "%.4f"},
    Column{"clients", [](auto &v) { return v.r.clients; }});
const auto kTenant = Column{
    "tenant", [](const RunRow &v) -> std::variant<u32, const char *> {
        if (v.t)
            return v.t->tenant;
        return "all";
    }};
const auto kRequests = Column{"requests", &RunRow::requests};
const auto kBatches =
    Column{"batches", poolWide(&ServiceOutcome::batches)};
const auto kMeanBatch =
    Column{"mean_batch", poolWide(&ServiceOutcome::meanBatch), "%.4f"};
const auto kMakespan =
    Column{"makespan_ms", poolWide(&ServiceOutcome::makespanMs), "%.6f"};
const auto kThroughput = Column{
    "throughput_rps",
    [](const RunRow &v) {
        const double ms = v.r.out.makespanMs;
        return !v.t ? v.r.out.throughputRps
               : ms > 0.0 ? static_cast<double>(v.requests) / (ms * 1e-3)
                          : 0.0;
    },
    "%.4f"};
const auto kLatency = campaign::columns(
    Column{"mean_ms", &RunRow::meanMs, "%.6f"},
    Column{"p50_ms", &RunRow::p50Ms, "%.6f"},
    Column{"p95_ms", &RunRow::p95Ms, "%.6f"},
    Column{"p99_ms", &RunRow::p99Ms, "%.6f"},
    Column{"p999_ms", &RunRow::p999Ms, "%.6f"},
    Column{"max_ms", &RunRow::maxMs, "%.6f"});
const auto kPoolLoad = campaign::columns(
    Column{"mean_queue_depth", poolWide(&ServiceOutcome::meanQueueDepth),
           "%.4f"},
    Column{"max_queue_depth", poolWide(&ServiceOutcome::maxQueueDepth),
           "%.4f"},
    Column{"utilization", poolWide(&ServiceOutcome::utilization), "%.6f"},
    Column{"pj_per_request", poolWide(&ServiceOutcome::pjPerRequest),
           "%.6f"});
const auto kVerified =
    Column{"verified", ofRun(&ServiceOutcome::verified)};
const auto kSlo = campaign::columns(
    Column{"slo.good", &RunRow::sloGood},
    Column{"slo.violations", &RunRow::sloViolations},
    Column{"slo.attainment", &RunRow::sloAttainment, "%.6f"},
    Column{"slo.burn_rate", &RunRow::sloBurnRate, "%.6f"});
/** JSON phase sums and SLO object of a run or tenant. */
const auto kPhaseSlo = campaign::columns(
    phaseColumns("phase_ms.", "",
                 [](const RunRow &v, u32 p) { return v.phaseMs[p]; }),
    Column{"slo.slo_ms", &RunRow::sloMs},
    Column{"slo.target", ofRun(&ServiceOutcome::sloTarget)}, kSlo);

/** The service CSV: per run its `tenant=all` row, then its tenants.
 *  Phase columns are per-request means, so rows at different
 *  request counts stay comparable. */
const auto kCsvColumns = campaign::columns(
    kScenario, kSpec, kTenant, kRequests, kBatches, kMeanBatch,
    kThroughput, kLatency,
    phaseColumns(
        "", "_ms",
        [](const RunRow &v, u32 p) {
            return v.requests
                       ? v.phaseMs[p] / static_cast<double>(v.requests)
                       : 0.0;
        },
        "%.6f"),
    Column{"slo_ms", &RunRow::sloMs, "%.6f"}, kSlo, kPoolLoad,
    kMakespan, kVerified);

/** A summary JSON result (its tenants follow as sub-rows). */
const auto kRunJsonColumns = campaign::columns(
    kSpec, kRequests, kBatches, kMeanBatch, kMakespan, kThroughput,
    kLatency, kPoolLoad, kVerified, kPhaseSlo,
    Column{"tail.quantile", ofRun(&ServiceOutcome::tailQuantile)},
    Column{"tail.threshold_ms", ofRun(&ServiceOutcome::tailThresholdMs)},
    Column{"tail.requests", ofRun(&ServiceOutcome::tailRequests)});

/** A summary JSON tenant sub-row. */
const auto kTenantJsonColumns =
    campaign::columns(kTenant, kRequests, kLatency, kPhaseSlo);

/** A run of the tail report (its groups follow as sub-rows). */
const auto kTailRunColumns = campaign::columns(
    kVariant, kService,
    Column{"tail_quantile", ofRun(&ServiceOutcome::tailQuantile)},
    Column{"tail_threshold_ms", ofRun(&ServiceOutcome::tailThresholdMs)},
    Column{"tail_requests", ofRun(&ServiceOutcome::tailRequests)});

/** Phase sums, shares and the dominant phase of a TailGroup. */
const auto kBlameColumns = campaign::columns(
    phaseColumns("phase_ms.", "",
                 [](const TailGroup &g, u32 p) { return g.phaseMs[p]; }),
    phaseColumns("share.", "",
                 [](const TailGroup &g, u32 p) {
                     double total = 0.0;
                     for (const double ms : g.phaseMs)
                         total += ms;
                     return total > 0.0 ? g.phaseMs[p] / total : 0.0;
                 }),
    Column{"dominant_phase", [](const TailGroup &g) {
        return phaseName(g.dominantPhase());
    }});

/** A tail-report group. */
const auto kTailGroupColumns = campaign::columns(
    Column{"tenant", &TailGroup::tenant},
    Column{"class", &TailGroup::cls},
    Column{"workload", &TailGroup::workload},
    Column{"requests", &TailGroup::requests},
    Column{"mean_ms", &TailGroup::meanMs}, kBlameColumns);

/** The virtual-time series CSV, over WindowRow. */
const auto kWindowColumns = campaign::columns(
    kScenario, kVariant, kService, Column{"window", &WindowRow::w},
    Column{"start_ms",
           [](const WindowRow &v) {
               return static_cast<double>(v.w) * v.r.out.seriesIntervalMs;
           },
           "%.6f"},
    Column{"window_ms", ofRun(&ServiceOutcome::seriesIntervalMs), "%.6f"},
    Column{"arrivals", &WindowRow::arrivals},
    Column{"completions", &WindowRow::completions},
    Column{"queue_depth_max", &WindowRow::maxQueueDepth, "%.4f"},
    Column{"inflight_max", &WindowRow::maxInFlight, "%.4f"},
    Column{"utilization",
           [](const WindowRow &v) {
               const double winNs = v.r.out.seriesIntervalMs * 1e6;
               return v.r.devices > 0 && winNs > 0.0
                          ? v.busyNs / (static_cast<double>(v.r.devices) *
                                        winNs)
                          : 0.0;
           },
           "%.6f"},
    Column{"p50_ms", &WindowRow::p50Ms, "%.6f"},
    Column{"p99_ms", &WindowRow::p99Ms, "%.6f"});

} // namespace

std::string
ServiceMetricsSink::renderCsv(const sim::SimConfig &cfg,
                              const std::vector<ServiceRunRecord> &runs)
{
    std::string csv = campaign::csvHeader(kCsvColumns);
    for (const auto &r : runs) {
        campaign::csvLine(csv, kCsvColumns, RunRow{r.out, cfg, r});
        for (const auto &t : r.out.tenants)
            campaign::csvLine(csv, kCsvColumns, RunRow{t, cfg, r, &t});
    }
    return csv;
}

std::string
ServiceMetricsSink::renderJson(const sim::SimConfig &cfg,
                               const std::vector<ServiceRunRecord> &runs,
                               double wallMs)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("mode", "service");
    root.set("total_runs",
             static_cast<unsigned long long>(runs.size()));
    bool allVerified = !runs.empty();
    for (const auto &r : runs)
        allVerified = allVerified && r.out.verified;
    root.set("all_verified", allVerified);
    root.set("wall_ms", wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : runs) {
        JsonValue &row = results.push(JsonValue::object());
        campaign::setJson(row, kRunJsonColumns, RunRow{r.out, cfg, r});
        JsonValue &tenants = row.set("tenants", JsonValue::array());
        for (const auto &t : r.out.tenants)
            campaign::setJson(tenants.push(JsonValue::object()),
                              kTenantJsonColumns, RunRow{t, cfg, r, &t});
    }
    return root.dump();
}

std::string
ServiceMetricsSink::renderTailReport(
    const sim::SimConfig &cfg,
    const std::vector<ServiceRunRecord> &runs)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("mode", "tail_report");

    // Per-variant rollup across every cell of the variant: single
    // cells at low rates can have degenerate tails, the rollup is
    // what cross-variant assertions should read.
    std::map<std::string, TailGroup> rollup;

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : runs) {
        JsonValue &row = results.push(JsonValue::object());
        campaign::setJson(row, kTailRunColumns, RunRow{r.out, cfg, r});
        JsonValue &groups = row.set("groups", JsonValue::array());
        for (const auto &g : r.out.tail) {
            campaign::setJson(groups.push(JsonValue::object()),
                              kTailGroupColumns, g);
            TailGroup &roll = rollup[r.variant];
            roll.requests += g.requests;
            for (u32 i = 0; i < kPhaseCount; ++i)
                roll.phaseMs[i] += g.phaseMs[i];
        }
    }

    JsonValue &variants = root.set("variants", JsonValue::array());
    for (const auto &[name, roll] : rollup) {
        JsonValue &vrow = variants.push(JsonValue::object());
        vrow.set("variant", name);
        vrow.set("tail_requests", static_cast<unsigned long long>(
                                      roll.requests));
        campaign::setJson(vrow, kBlameColumns, roll);
    }
    return root.dump();
}

std::string
ServiceMetricsSink::renderTimeseriesCsv(
    const sim::SimConfig &cfg,
    const std::vector<ServiceRunRecord> &runs)
{
    std::string csv = campaign::csvHeader(kWindowColumns);
    for (const auto &r : runs)
        for (u64 w = 0; w < r.out.series.size(); ++w)
            campaign::csvLine(csv, kWindowColumns,
                              WindowRow{r.out.series[w], cfg, r, w});
    return csv;
}

std::string
ServiceMetricsSink::write(const sim::SimConfig &cfg,
                          const std::vector<ServiceRunRecord> &runs,
                          double wallMs,
                          std::vector<std::string> &written,
                          const std::string &suffix)
{
    return campaign::writeOutputs(
        cfg.outDir + "/" + cfg.name + suffix + "_service",
        renderCsv(cfg, runs), renderJson(cfg, runs, wallMs), written);
}

} // namespace pluto::serve
