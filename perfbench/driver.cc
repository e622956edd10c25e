/**
 * @file
 * perfbench_driver: runs one benchmark workload of perfbench/run.py in
 * this process and writes its raw measurements as one JSON document.
 *
 *   perfbench_driver --mode batch|nn|service --scenario FILE
 *                    --phase measure|trace --seconds S --threads N
 *                    --setup-reps N --out DIR --result FILE
 *
 * measure: after one untimed warm-up iteration, alternate
 *   --setup-reps set-ups with one repetition of the product path --
 *   the calls pluto_sim makes: scenario load, campaign run, report
 *   writers -- until --seconds have passed. Every
 *   repetition starts cold: fresh devices, no result cache, an empty
 *   serve memo, LUTs unloaded until set-up.
 * trace: one untraced product repetition, then one traced repetition
 *   that calls the layer entry points itself, records spans around
 *   them and reads the program's counter registry; then timings of
 *   single layer operations (device construction, LUT load, bulk LUT
 *   gather) on fresh objects.
 *
 * All timing is host time taken here, around calls into the library;
 * nothing inside src/ is instrumented for the benchmark. The one
 * in-library timer read is ServiceOutcome::loopHostMs, which the
 * serving simulator already keeps.
 */

#include <sys/resource.h>

#include <algorithm>
#include <chrono>
#include <cmath>
#include <cstdio>
#include <cstdlib>
#include <map>
#include <memory>
#include <mutex>
#include <random>
#include <string>
#include <vector>

#include "baselines/systems.hh"
#include "campaign/runner.hh"
#include "common/arena.hh"
#include "common/bitvec_bulk.hh"
#include "common/digest.hh"
#include "common/units.hh"
#include "nn/campaign.hh"
#include "obs/registry.hh"
#include "runtime/device.hh"
#include "serve/loadgen.hh"
#include "serve/runner.hh"
#include "serve/simulator.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

using namespace pluto;

namespace
{

using Clock = std::chrono::steady_clock;

/**
 * Arrival window of the zero-length serve cells timed as set-up, ms.
 * At the benchmark's rates it admits (almost always) no request, so
 * the cell is calibration plus pool build.
 */
constexpr double kZeroLengthMs = 1e-6;

/** The canonical LUT the serving pool loads on every device. */
constexpr const char *kServeLut = "colorgrade";

double
msBetween(Clock::time_point a, Clock::time_point b)
{
    return std::chrono::duration<double, std::milli>(b - a).count();
}

double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

double
sum(const std::vector<double> &v)
{
    double s = 0.0;
    for (const double x : v)
        s += x;
    return s;
}

[[noreturn]] void
die(const std::string &what)
{
    std::fprintf(stderr, "perfbench_driver: %s\n", what.c_str());
    std::exit(1);
}

std::string
jsonString(const std::string &s)
{
    std::string out = "\"";
    for (const char c : s) {
        if (c == '"' || c == '\\')
            out += '\\';
        if (static_cast<unsigned char>(c) < 0x20)
            continue;
        out += c;
    }
    return out + "\"";
}

/** Minimal JSON object builder; keys keep insertion order. */
class JsonObject
{
  public:
    JsonObject &num(const std::string &key, double v)
    {
        return raw(key, std::isfinite(v) ? fmtDoubleExact(v) : "null");
    }
    JsonObject &text(const std::string &key, const std::string &v)
    {
        return raw(key, jsonString(v));
    }
    JsonObject &flag(const std::string &key, bool v)
    {
        return raw(key, v ? "true" : "false");
    }
    JsonObject &nums(const std::string &key, const std::vector<double> &v)
    {
        std::string arr = "[";
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                arr += ',';
            arr += fmtDoubleExact(v[i]);
        }
        return raw(key, arr + "]");
    }
    JsonObject &raw(const std::string &key, const std::string &json)
    {
        if (!body_.empty())
            body_ += ',';
        body_ += jsonString(key) + ":" + json;
        return *this;
    }
    std::string str() const { return "{" + body_ + "}"; }

  private:
    std::string body_;
};

/** Command-line options. */
struct Options
{
    std::string mode;
    std::string scenario;
    std::string phase = "measure";
    double seconds = 10.0;
    u32 threads = 4;
    u32 setupReps = 3;
    std::string outDir = ".";
    std::string result;
};

Options
parseArgs(int argc, char **argv)
{
    Options o;
    for (int i = 1; i < argc; ++i) {
        const std::string arg = argv[i];
        if (i + 1 >= argc)
            die("option " + arg + " needs a value");
        const std::string val = argv[++i];
        if (arg == "--mode")
            o.mode = val;
        else if (arg == "--scenario")
            o.scenario = val;
        else if (arg == "--phase")
            o.phase = val;
        else if (arg == "--seconds")
            o.seconds = std::atof(val.c_str());
        else if (arg == "--threads")
            o.threads = static_cast<u32>(std::atoi(val.c_str()));
        else if (arg == "--setup-reps")
            o.setupReps = static_cast<u32>(std::atoi(val.c_str()));
        else if (arg == "--out")
            o.outDir = val;
        else if (arg == "--result")
            o.result = val;
        else
            die("unknown option " + arg);
    }
    if (o.mode != "batch" && o.mode != "nn" && o.mode != "service")
        die("--mode must be batch, nn or service");
    if (o.phase != "measure" && o.phase != "trace")
        die("--phase must be measure or trace");
    if (o.scenario.empty() || o.result.empty())
        die("--scenario and --result are required");
    if (o.threads == 0 || o.setupReps == 0 || !(o.seconds > 0.0))
        die("--threads, --setup-reps and --seconds must be positive");
    return o;
}

sim::SimConfig
loadScenario(const Options &o)
{
    std::string err;
    auto cfg = sim::SimConfig::load(o.scenario, err);
    if (!cfg)
        die(o.scenario + ": " + err);
    cfg->outDir = o.outDir;
    return std::move(*cfg);
}

campaign::RunOptions
runOptions(const Options &o)
{
    campaign::RunOptions opt;
    opt.threads = o.threads;
    return opt;
}

/**
 * Spans the driver records around its calls into the library. Each
 * worker slot is written by one thread only (forEachTask hands out
 * stable worker indices); the extra last slot belongs to the main
 * thread. Times are ms since the log was created.
 */
class SpanLog
{
  public:
    explicit SpanLog(u32 workers)
        : slots_(workers + 1), origin_(Clock::now())
    {
    }

    u32 mainSlot() const { return static_cast<u32>(slots_.size() - 1); }

    /** Open a span `name` nested in `parent` (-1: none) of the same slot. */
    int begin(u32 slot, const char *name, int parent = -1)
    {
        const double now = msBetween(origin_, Clock::now());
        return add(slot, name, now, now, parent);
    }

    void end(u32 slot, int id)
    {
        slots_[slot][id].t1 = msBetween(origin_, Clock::now());
    }

    /** Record a finished span with known bounds. */
    int add(u32 slot, const char *name, double t0, double t1, int parent)
    {
        slots_[slot].push_back({name, parent, t0, t1});
        return static_cast<int>(slots_[slot].size() - 1);
    }

    double durationMs(u32 slot, int id) const
    {
        const Span &s = slots_[slot][id];
        return s.t1 - s.t0;
    }

    double endMs(u32 slot, int id) const { return slots_[slot][id].t1; }

    /** Per span name: count, total and self time (total minus the
     *  time its direct children cover), as a JSON array. */
    std::string tableJson() const
    {
        struct Row
        {
            u64 count = 0;
            double totalMs = 0.0;
            double selfMs = 0.0;
        };
        std::map<std::string, Row> rows;
        for (const auto &slot : slots_) {
            std::vector<double> childMs(slot.size(), 0.0);
            for (const auto &s : slot)
                if (s.parent >= 0)
                    childMs[s.parent] += s.t1 - s.t0;
            for (std::size_t i = 0; i < slot.size(); ++i) {
                Row &r = rows[slot[i].name];
                const double d = slot[i].t1 - slot[i].t0;
                ++r.count;
                r.totalMs += d;
                r.selfMs += d - childMs[i];
            }
        }
        std::string out = "[";
        for (const auto &[name, r] : rows) {
            if (out.size() > 1)
                out += ',';
            out += JsonObject()
                       .text("name", name)
                       .num("count", static_cast<double>(r.count))
                       .num("total_ms", r.totalMs)
                       .num("self_ms", r.selfMs)
                       .str();
        }
        return out + "]";
    }

  private:
    struct Span
    {
        const char *name;
        int parent;
        double t0;
        double t1;
    };
    std::vector<std::vector<Span>> slots_;
    Clock::time_point origin_;
};

/** One campaign cell of a product repetition. */
struct Cell
{
    std::string name;
    /** Digest of the cell's deterministic CSV rows. */
    std::string digest;
    bool ok = false;
    /** Elements, inferences or completed requests of the cell. */
    u64 items = 0;
    /** Host wall of the cell from the record (batch and nn). */
    double wallMs = 0.0;
    /** Batch only: variant, workload and simulated ratios over the
     *  CPU baseline (speedup; CPU energy / pLUTo energy). */
    std::string variant;
    std::string workload;
    double speedupCpu = 0.0;
    double energyX = 0.0;
};

/** Outcome of one product repetition. */
struct Product
{
    double wallS = 0.0;
    double emitMs = 0.0;
    /** Campaign wall reported by the runner, ms. */
    double campaignMs = 0.0;
    /** Elements (batch), inferences (nn) or completed requests. */
    u64 items = 0;
    /** Whole-report digest with host-time fields zeroed. */
    std::string digest;
    std::vector<Cell> cells;
};

// ---- batch mode ----

std::string
batchDigest(const sim::SimConfig &cfg, sim::ScenarioReport report,
            std::vector<Cell> *cells)
{
    report.wallMs = 0.0;
    for (auto &r : report.runs)
        r.wallMs = 0.0;
    if (cells) {
        const double cpuPower = baselines::cpuSpec().power;
        for (const auto &r : report.runs) {
            sim::ScenarioReport one;
            one.runs = {r};
            Cell c;
            c.name = r.variant + "/" + r.workload + "#" +
                     std::to_string(r.repeat);
            c.digest = fnv1aHex(sim::MetricsSink::renderCsv(cfg, one));
            c.ok = r.result.verified;
            c.items = r.result.elements;
            c.variant = r.variant;
            c.workload = r.workload;
            const double ns = r.result.nsPerElem();
            const double pj = r.result.pjPerElem();
            c.speedupCpu = ns > 0.0 ? r.rates.cpu / ns : 0.0;
            c.energyX =
                pj > 0.0
                    ? units::energyFromPower(cpuPower, r.rates.cpu) / pj
                    : 0.0;
            cells->push_back(std::move(c));
        }
    }
    return fnv1aHex(sim::MetricsSink::renderCsv(cfg, report) +
                    sim::MetricsSink::renderJson(cfg, report));
}

Product
batchProduct(const Options &o)
{
    Product p;
    const auto t0 = Clock::now();
    const sim::SimConfig cfg = loadScenario(o);
    const sim::ScenarioRunner runner(cfg);
    const auto report = runner.run(runOptions(o));
    const auto t2 = Clock::now();
    std::vector<std::string> written;
    const std::string err = sim::MetricsSink::write(cfg, report, written);
    const auto t3 = Clock::now();
    if (!err.empty())
        die(err);
    p.wallS = msBetween(t0, t3) * 1e-3;
    p.emitMs = msBetween(t2, t3);
    p.campaignMs = report.wallMs;
    p.digest = batchDigest(cfg, report, &p.cells);
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        p.items += p.cells[i].items;
        p.cells[i].wallMs = report.runs[i].wallMs;
    }
    return p;
}

/** Set-up of batch and nn modes: scenario load plus grid expansion. */
double
gridSetupS(const Options &o)
{
    const auto t0 = Clock::now();
    const sim::SimConfig cfg = loadScenario(o);
    const u64 cells =
        o.mode == "nn" ? cfg.totalNnRuns() : cfg.totalRuns();
    const auto t1 = Clock::now();
    if (cells == 0)
        die("scenario expands to no cells");
    return msBetween(t0, t1) * 1e-3;
}

// ---- nn mode ----

std::string
nnDigest(const sim::SimConfig &cfg, nn::NnReport report,
         std::vector<Cell> *cells)
{
    report.wallMs = 0.0;
    for (auto &r : report.runs)
        r.out.wallMs = 0.0;
    if (cells) {
        for (const auto &r : report.runs) {
            nn::NnReport one;
            one.runs = {r};
            Cell c;
            c.name = r.variant + "/" + r.cell;
            c.digest = fnv1aHex(nn::NnMetricsSink::renderCsv(cfg, one));
            c.ok = r.out.verified;
            c.items = r.out.images;
            cells->push_back(std::move(c));
        }
    }
    return fnv1aHex(nn::NnMetricsSink::renderCsv(cfg, report) +
                    nn::NnMetricsSink::renderJson(cfg, report));
}

Product
nnProduct(const Options &o)
{
    Product p;
    const auto t0 = Clock::now();
    const sim::SimConfig cfg = loadScenario(o);
    const nn::NnRunner runner(cfg);
    const auto report = runner.run(runOptions(o));
    const auto t2 = Clock::now();
    std::vector<std::string> written;
    const std::string err = nn::NnMetricsSink::write(cfg, report, written);
    const auto t3 = Clock::now();
    if (!err.empty())
        die(err);
    p.wallS = msBetween(t0, t3) * 1e-3;
    p.emitMs = msBetween(t2, t3);
    p.campaignMs = report.wallMs;
    p.digest = nnDigest(cfg, report, &p.cells);
    for (std::size_t i = 0; i < report.runs.size(); ++i) {
        p.items += p.cells[i].items;
        p.cells[i].wallMs = report.runs[i].out.wallMs;
    }
    return p;
}

// ---- service mode ----

std::string
serveDigest(const sim::SimConfig &cfg,
            const std::vector<serve::ServiceRunRecord> &runs,
            std::vector<Cell> *cells)
{
    // loopHostMs is never rendered, so the writers' output is already
    // free of host time once the report wall is passed as 0.
    if (cells) {
        for (const auto &r : runs) {
            Cell c;
            c.name = r.variant + "/" + r.service;
            c.digest = fnv1aHex(
                serve::ServiceMetricsSink::renderCsv(cfg, {r}));
            c.ok = r.out.verified;
            c.items = r.out.requests;
            cells->push_back(std::move(c));
        }
    }
    return fnv1aHex(serve::ServiceMetricsSink::renderCsv(cfg, runs) +
                    serve::ServiceMetricsSink::renderJson(cfg, runs, 0.0));
}

Product
serveProduct(const Options &o)
{
    Product p;
    const auto t0 = Clock::now();
    const sim::SimConfig cfg = loadScenario(o);
    const serve::ServiceRunner runner(cfg);
    const auto report = runner.run(runOptions(o));
    const auto t2 = Clock::now();
    std::vector<std::string> written;
    const std::string err = serve::ServiceMetricsSink::write(
        cfg, report.runs, report.wallMs, written);
    const auto t3 = Clock::now();
    if (!err.empty())
        die(err);
    p.wallS = msBetween(t0, t3) * 1e-3;
    p.emitMs = msBetween(t2, t3);
    p.campaignMs = report.wallMs;
    p.digest = serveDigest(cfg, report.runs, &p.cells);
    for (const auto &c : p.cells)
        p.items += c.items;
    return p;
}

/** Set-up of service mode: the same cells cut to zero length. */
double
serveSetupS(const Options &o)
{
    const auto t0 = Clock::now();
    sim::SimConfig cfg = loadScenario(o);
    for (auto &svc : cfg.services)
        svc.durationMs = kZeroLengthMs;
    const serve::ServiceRunner runner(cfg);
    const auto report = runner.run(runOptions(o));
    const auto t1 = Clock::now();
    if (!report.allVerified())
        die("zero-length serve cells failed calibration");
    return msBetween(t0, t1) * 1e-3;
}

/** Requests the load generator issues per cell, counted on its own. */
u64
generatedRequests(const sim::SimConfig &cfg, u32 threads)
{
    for (const auto &svc : cfg.services)
        if (svc.closedLoop)
            die("the benchmark's serve cells are open-loop only");
    const std::size_t nSvc = cfg.services.size();
    std::vector<u64> counts(cfg.devices.size() * nSvc, 0);
    campaign::forEachTask(counts.size(), threads, [&](std::size_t i,
                                                      u32) {
        const auto &ds = cfg.devices[i / nSvc];
        const auto &svc = cfg.services[i % nSvc];
        serve::LoadGen gen(svc, serve::buildMix(cfg, ds.config));
        serve::Request r;
        // Walk virtual time in 1 us steps so the pending heap stays
        // small even for millions of arrivals.
        const TimeNs stepNs = 1e3;
        const TimeNs endNs = svc.durationMs * 1e6 + stepNs;
        for (TimeNs until = 0.0; until <= endNs; until += stepNs)
            while (gen.poll(until, r))
                ++counts[i];
    });
    u64 total = 0;
    for (const u64 c : counts)
        total += c;
    return total;
}

// ---- single-operation timings on fresh objects (trace phase) ----

/** Median ms to construct a device of each variant. */
std::vector<double>
deviceCtorMs(const sim::SimConfig &cfg)
{
    std::vector<double> out;
    for (const auto &ds : cfg.devices) {
        std::vector<double> t;
        for (int k = 0; k < 3; ++k) {
            ScratchArena arena;
            runtime::DeviceConfig dc = ds.config;
            dc.arena = &arena;
            const auto t0 = Clock::now();
            runtime::PlutoDevice dev(dc);
            t.push_back(msBetween(t0, Clock::now()));
        }
        out.push_back(median(t));
    }
    return out;
}

/**
 * Host ms per LUT byte loaded: loadLut(kServeLut) on a fresh device of
 * `cfg`, divided by the bytes the load wrote (median of 3).
 */
double
lutLoadMsPerByte(const runtime::DeviceConfig &cfg)
{
    std::vector<double> t;
    for (int k = 0; k < 3; ++k) {
        ScratchArena arena;
        runtime::DeviceConfig dc = cfg;
        dc.arena = &arena;
        runtime::PlutoDevice dev(dc);
        const auto t0 = Clock::now();
        dev.loadLut(kServeLut);
        const double ms = msBetween(t0, Clock::now());
        const double bytes =
            dev.stats().counters.get("pluto.lut_load.bytes");
        if (!(bytes > 0.0))
            die("loadLut recorded no LUT bytes");
        t.push_back(ms / bytes);
    }
    return median(t);
}

/** Median host ns per element of bulk::LutGather at `width` bits. */
double
gatherNsPerElem(u32 width)
{
    constexpr u64 kElems = u64{1} << 20;
    std::mt19937_64 rng(width);
    const u64 lutSize = u64{1} << width;
    std::vector<u64> lut(lutSize);
    for (auto &v : lut)
        v = rng();
    const bulk::LutGather gather(lut, width, "perfbench");
    std::vector<u64> idx(kElems);
    for (auto &v : idx)
        v = rng() & (lutSize - 1);
    std::vector<u8> src((kElems * width + 7) / 8);
    bulk::packBulk(idx, width, src);
    std::vector<u8> dst(src.size());
    std::vector<double> t;
    for (int k = 0; k < 7; ++k) {
        const auto t0 = Clock::now();
        gather.apply(src, dst, kElems);
        t.push_back(msBetween(t0, Clock::now()) * 1e6 /
                    static_cast<double>(kElems));
    }
    return median(t);
}

// ---- traced repetitions ----

/** Outcome of one traced repetition. */
struct Traced
{
    double wallS = 0.0;
    std::string digest;
    /** Host wall per campaign cell, ms. */
    std::vector<double> cellMs;
    /** Sum of the product repetition's per-cell wallMs the traced
     *  cells correspond to (batch; 0 elsewhere). */
    double productCellSumMs = 0.0;
    /** Worker threads the cell phase ran on. */
    u32 threads = 1;
    /** Wall of the cell phase, ms. */
    double phaseMs = 0.0;
    u64 devicesBuilt = 0;
    double deviceCtorMs = 0.0;
    double workloadRunSumMs = 0.0;
    double workloadRunP50Ms = 0.0;
    double calibrateMs = 0.0;
    double poolSetupMs = 0.0;
    double loopMs = 0.0;
    double nnCellMs = 0.0;
    std::string spans = "[]";
};

Traced
batchTraced(const Options &o, const Product &untraced)
{
    Traced tr;
    SpanLog log(o.threads);
    const auto t0 = Clock::now();
    const int load = log.begin(log.mainSlot(), "sim.config_load");
    const sim::SimConfig cfg = loadScenario(o);
    log.end(log.mainSlot(), load);

    struct Task
    {
        u32 device, workload, repeat;
    };
    std::vector<Task> tasks;
    for (u32 d = 0; d < cfg.devices.size(); ++d)
        for (u32 w = 0; w < cfg.workloads.size(); ++w)
            for (u32 r = 0; r < cfg.workloads[w].repeats * cfg.repeats;
                 ++r)
                tasks.push_back({d, w, r});

    sim::ScenarioReport report;
    report.runs.resize(tasks.size());
    tr.threads = campaign::resolveThreads(tasks.size(), o.threads);
    std::vector<ScratchArena> arenas(tr.threads);
    std::vector<double> ctorMs(tasks.size(), 0.0);
    std::vector<double> runMs(tasks.size(), 0.0);
    const int phase = log.begin(log.mainSlot(), "campaign.phase");
    const auto p0 = Clock::now();
    campaign::forEachTask(tasks.size(), o.threads, [&](std::size_t i,
                                                       u32 w) {
        const Task &t = tasks[i];
        const sim::DeviceSpec &ds = cfg.devices[t.device];
        const sim::WorkloadSpec &ws = cfg.workloads[t.workload];
        sim::RunRecord &rec = report.runs[i];
        const int cell = log.begin(w, "campaign.cell");
        const auto wl = workloads::makeWorkload(ws.name);
        const u64 elements =
            ws.elements ? ws.elements : wl->defaultElements(ds.config.memory);
        rec.variant = ds.name;
        rec.workload = ws.name;
        rec.repeat = t.repeat;
        rec.seed = ws.seed;
        rec.rates = wl->rates();
        runtime::DeviceConfig dc = ds.config;
        dc.arena = &arenas[w];
        const int ctor = log.begin(w, "runtime.device_ctor", cell);
        auto dev = std::make_unique<runtime::PlutoDevice>(dc);
        log.end(w, ctor);
        const int run = log.begin(w, "workloads.run", cell);
        rec.result = wl->run(*dev, elements, ws.seed);
        log.end(w, run);
        log.end(w, cell);
        if (auto *sh = obs::shard())
            sh->absorb("device", dev->stats().counters);
        rec.wallMs = log.durationMs(w, cell);
        ctorMs[i] = log.durationMs(w, ctor);
        runMs[i] = log.durationMs(w, run);
    });
    tr.phaseMs = msBetween(p0, Clock::now());
    log.end(log.mainSlot(), phase);
    const int emit = log.begin(log.mainSlot(), "sim.emit");
    std::vector<std::string> written;
    const std::string err = sim::MetricsSink::write(cfg, report, written);
    log.end(log.mainSlot(), emit);
    if (!err.empty())
        die(err);
    tr.wallS = msBetween(t0, Clock::now()) * 1e-3;

    tr.digest = batchDigest(cfg, report, nullptr);
    for (const auto &r : report.runs)
        tr.cellMs.push_back(r.wallMs);
    for (const auto &c : untraced.cells)
        tr.productCellSumMs += c.wallMs;
    tr.devicesBuilt = tasks.size();
    tr.deviceCtorMs = sum(ctorMs);
    tr.workloadRunSumMs = sum(runMs);
    tr.workloadRunP50Ms = median(runMs);
    tr.spans = log.tableJson();
    return tr;
}

Traced
nnTraced(const Options &o, const sim::SimConfig &cfg)
{
    // The cells run inside NnRunner, so this is the product path with
    // the registry on; the per-cell walls come from its records.
    Traced tr;
    SpanLog log(o.threads);
    const auto t0 = Clock::now();
    const int run = log.begin(log.mainSlot(), "nn.product");
    const Product p = nnProduct(o);
    log.end(log.mainSlot(), run);
    tr.wallS = msBetween(t0, Clock::now()) * 1e-3;
    for (const auto &c : p.cells) {
        tr.cellMs.push_back(c.wallMs);
        log.add(log.mainSlot(), "campaign.cell", 0.0, c.wallMs, -1);
    }
    tr.phaseMs = p.campaignMs;
    tr.digest = p.digest;
    tr.threads = campaign::resolveThreads(p.cells.size(), o.threads);
    tr.nnCellMs = sum(tr.cellMs);
    tr.devicesBuilt = p.cells.size();
    const auto ctor = deviceCtorMs(cfg);
    for (const double ms : ctor)
        tr.deviceCtorMs += ms * static_cast<double>(cfg.nnCells.size());
    tr.spans = log.tableJson();
    return tr;
}

Traced
serveTraced(const Options &o)
{
    Traced tr;
    SpanLog log(o.threads);
    const auto t0 = Clock::now();
    const int load = log.begin(log.mainSlot(), "sim.config_load");
    const sim::SimConfig cfg = loadScenario(o);
    log.end(log.mainSlot(), load);

    const std::size_t nDev = cfg.devices.size();
    const std::size_t nSvc = cfg.services.size();
    std::vector<std::vector<serve::RequestClass>> mixes;
    for (const auto &ds : cfg.devices)
        mixes.push_back(serve::buildMix(cfg, ds.config));

    // As in ServiceRunner, the first cell of a variant calibrates it
    // and the variant's other cells wait for that; the wait shows as
    // self time of their campaign.cell spans.
    struct VariantCal
    {
        std::once_flag once;
        serve::Calibration cal;
        double ms = 0.0;
    };
    std::vector<VariantCal> cals(nDev);

    std::vector<serve::ServiceRunRecord> runs(nDev * nSvc);
    tr.threads = campaign::resolveThreads(runs.size(), o.threads);
    std::vector<ScratchArena> arenas(tr.threads);
    std::vector<double> cellMs(runs.size(), 0.0);
    std::vector<double> runMs(runs.size(), 0.0);
    std::vector<double> loopMs(runs.size(), 0.0);
    const int phase = log.begin(log.mainSlot(), "campaign.phase");
    const auto p0 = Clock::now();
    campaign::forEachTask(runs.size(), o.threads, [&](std::size_t i,
                                                      u32 w) {
        const std::size_t d = i / nSvc;
        sim::DeviceSpec ds = cfg.devices[d];
        ds.config.arena = &arenas[w];
        const sim::ServiceSpec &svc = cfg.services[i % nSvc];
        serve::ServiceRunRecord &rec = runs[i];
        rec.variant = ds.name;
        rec.service = svc.name;
        rec.policy = sim::batchPolicyName(svc.policy);
        rec.mode = svc.closedLoop ? "closed" : "open";
        rec.devices = svc.devices;
        rec.ratePerSec = svc.closedLoop ? 0.0 : svc.ratePerSec;
        rec.clients = svc.closedLoop ? svc.clients : 0;
        const int cell = log.begin(w, "campaign.cell");
        VariantCal &vc = cals[d];
        std::call_once(vc.once, [&]() {
            const int c = log.begin(w, "serve.calibrate", cell);
            vc.cal = serve::ServeSimulator::calibrateAll(ds.config,
                                                         mixes[d]);
            log.end(w, c);
            vc.ms = log.durationMs(w, c);
            if (auto *sh = obs::shard())
                sh->inc("serve/calibrations");
        });
        const serve::ServeSimulator simulator(ds, svc, mixes[d]);
        const int run = log.begin(w, "serve.run", cell);
        rec.out = simulator.run(&vc.cal);
        log.end(w, run);
        log.end(w, cell);
        cellMs[i] = log.durationMs(w, cell);
        runMs[i] = log.durationMs(w, run);
        loopMs[i] = rec.out.loopHostMs;
        // The loop timer lives inside run(), so only its length is
        // known; its span is placed at the end of the run span.
        const double runEnd = log.endMs(w, run);
        log.add(w, "serve.loop", runEnd - loopMs[i], runEnd, run);
    });
    tr.phaseMs = msBetween(p0, Clock::now());
    log.end(log.mainSlot(), phase);
    const int emit = log.begin(log.mainSlot(), "sim.emit");
    std::vector<std::string> written;
    const std::string err = serve::ServiceMetricsSink::write(
        cfg, runs, msBetween(t0, Clock::now()), written);
    log.end(log.mainSlot(), emit);
    if (!err.empty())
        die(err);
    tr.wallS = msBetween(t0, Clock::now()) * 1e-3;

    tr.digest = serveDigest(cfg, runs, nullptr);
    tr.cellMs = cellMs;
    for (const auto &vc : cals)
        tr.calibrateMs += vc.ms;
    tr.loopMs = sum(loopMs);
    tr.poolSetupMs = sum(runMs) - tr.loopMs;
    const auto ctor = deviceCtorMs(cfg);
    for (std::size_t d = 0; d < nDev; ++d) {
        // Calibration builds one device for the wave time and one
        // per request class; every cell builds its pool.
        u64 built = 1 + mixes[d].size();
        for (const auto &svc : cfg.services)
            built += svc.devices;
        tr.devicesBuilt += built;
        tr.deviceCtorMs += ctor[d] * static_cast<double>(built);
    }
    tr.spans = log.tableJson();
    return tr;
}

// ---- phases ----

void
writeResult(const Options &o, const std::string &json)
{
    std::FILE *f = std::fopen(o.result.c_str(), "w");
    if (!f)
        die("cannot write " + o.result);
    const bool ok = std::fputs(json.c_str(), f) >= 0;
    if (std::fclose(f) != 0 || !ok)
        die("cannot write " + o.result);
}

double
peakRssMb()
{
    struct rusage ru = {};
    getrusage(RUSAGE_SELF, &ru);
    return static_cast<double>(ru.ru_maxrss) / 1024.0; // KiB on Linux
}

Product
productRep(const Options &o)
{
    if (o.mode == "batch")
        return batchProduct(o);
    if (o.mode == "nn")
        return nnProduct(o);
    return serveProduct(o);
}

double
setupRep(const Options &o)
{
    return o.mode == "service" ? serveSetupS(o) : gridSetupS(o);
}

std::string
cellsJson(const std::vector<Cell> &cells)
{
    std::string out = "[";
    for (std::size_t i = 0; i < cells.size(); ++i) {
        const Cell &c = cells[i];
        JsonObject j;
        j.text("name", c.name)
            .text("digest", c.digest)
            .flag("ok", c.ok)
            .num("items", static_cast<double>(c.items));
        if (!c.variant.empty())
            j.text("variant", c.variant)
                .text("workload", c.workload)
                .num("speedup_cpu", c.speedupCpu)
                .num("energy_x", c.energyX);
        if (i)
            out += ',';
        out += j.str();
    }
    return out + "]";
}

int
measurePhase(const Options &o)
{
    // One untimed warm-up iteration first: the first set-up and
    // product repetition in a process run slower (allocator and page
    // warm-up). Then each iteration times --setup-reps set-ups and one
    // product repetition, so both are sampled across the same stretch
    // of time. The warm-up counts against --seconds.
    constexpr std::size_t kMinReps = 3;
    std::vector<double> setup;
    std::vector<double> walls;
    const auto t0 = Clock::now();
    setupRep(o);
    Product first = productRep(o);
    std::vector<std::string> digests{first.digest};
    while (walls.size() < kMinReps ||
           msBetween(t0, Clock::now()) < o.seconds * 1e3) {
        for (u32 k = 0; k < o.setupReps; ++k)
            setup.push_back(setupRep(o));
        Product p = productRep(o);
        walls.push_back(p.wallS);
        digests.push_back(p.digest);
    }

    bool repsAgree = true;
    for (const auto &d : digests)
        repsAgree = repsAgree && d == digests.front();

    JsonObject j;
    j.text("phase", "measure")
        .nums("setup_s", setup)
        .nums("wall_s", walls)
        .num("items", static_cast<double>(first.items))
        .text("digest", first.digest)
        .flag("reps_agree", repsAgree)
        .raw("cells", cellsJson(first.cells));
    if (o.mode == "service") {
        const sim::SimConfig cfg = loadScenario(o);
        j.num("generated",
              static_cast<double>(generatedRequests(cfg, o.threads)));
    }
    j.num("peak_rss_mb", peakRssMb());
    writeResult(o, j.str());
    return 0;
}

int
tracePhase(const Options &o)
{
    std::vector<double> loads;
    for (int k = 0; k < 5; ++k) {
        const auto t0 = Clock::now();
        loadScenario(o);
        loads.push_back(msBetween(t0, Clock::now()));
    }
    const sim::SimConfig cfg = loadScenario(o);

    // Repetitions speed up over the first few in a process (allocator
    // and page warm-up), so a set-up and one product repetition run
    // first and are discarded. The traced repetition sits between two
    // untraced ones so that slow host drift cancels out of the
    // overhead.
    setupRep(o);
    productRep(o);
    const Product untraced = productRep(o);

    auto &reg = obs::Registry::get();
    reg.enable(true);
    reg.reset();
    Traced tr;
    if (o.mode == "batch")
        tr = batchTraced(o, untraced);
    else if (o.mode == "nn")
        tr = nnTraced(o, cfg);
    else
        tr = serveTraced(o);
    reg.mergeWorkers();
    const auto counters = reg.snapshot().counters();
    reg.enable(false);
    const double untraced2S = productRep(o).wallS;
    const double untracedWallS = 0.5 * (untraced.wallS + untraced2S);
    const auto counter = [&](const std::string &path) {
        const auto it = counters.find(path);
        return it == counters.end() ? 0.0 : it->second;
    };

    const double lutBytes = counter("device/pluto/lut_load/bytes");
    const double lutLoadMs =
        lutBytes > 0.0
            ? lutLoadMsPerByte(cfg.devices.front().config) * lutBytes
            : 0.0;
    const std::vector<u32> widths =
        o.mode == "batch" ? std::vector<u32>{8, 16}
        : o.mode == "nn"  ? std::vector<u32>{1, 4}
                          : std::vector<u32>{};
    std::map<u32, double> gather = {{1, 0.0}, {4, 0.0}, {8, 0.0}, {16, 0.0}};
    for (const u32 w : widths)
        gather[w] = gatherNsPerElem(w);

    const double cellSum = sum(tr.cellMs);
    const double requests = counter("serve/requests");
    const double memoHits = counter("serve/memo/hits");
    const double memoMisses = counter("serve/memo/misses");
    const double busy = tr.threads * tr.phaseMs;

    JsonObject layers;
    layers.num("sim.config_load_ms", median(loads))
        .num("sim.emit_ms", untraced.emitMs)
        .num("campaign.cells", static_cast<double>(tr.cellMs.size()))
        .num("campaign.cell_ms.p50", median(tr.cellMs))
        .num("campaign.cell_ms.max",
             tr.cellMs.empty()
                 ? 0.0
                 : *std::max_element(tr.cellMs.begin(), tr.cellMs.end()))
        .num("campaign.worker_idle_share",
             busy > 0.0 ? std::max(0.0, 1.0 - cellSum / busy) : 0.0)
        .num("runtime.devices_built", static_cast<double>(tr.devicesBuilt))
        .num("runtime.device_ctor_ms", tr.deviceCtorMs)
        .num("pluto.lut_load.bytes", lutBytes)
        .num("pluto.lut_load_ms", lutLoadMs)
        .num("pluto.lut_reload.total", counter("device/pluto/lut_reload"))
        .num("pluto.queries", counter("device/pluto/queries"))
        .num("pluto.sweep.rows", counter("device/pluto/sweep/rows"))
        .num("dram.acts", counter("device/dram/acts"))
        .num("dram.tfaw_stall_ns", counter("device/dram/tfaw_stall/ns"))
        .num("workloads.run_ms.sum", tr.workloadRunSumMs)
        .num("workloads.run_ms.p50", tr.workloadRunP50Ms)
        .num("common.gather_elems", counter("device/pluto/lookups"))
        .num("common.gather_ns_per_elem.w1", gather[1])
        .num("common.gather_ns_per_elem.w4", gather[4])
        .num("common.gather_ns_per_elem.w8", gather[8])
        .num("common.gather_ns_per_elem.w16", gather[16])
        .num("serve.calibrate_ms", tr.calibrateMs)
        .num("serve.pool_setup_ms", tr.poolSetupMs)
        .num("serve.loop_ms", tr.loopMs)
        .num("serve.host_ns_per_request",
             requests > 0.0 ? tr.loopMs * 1e6 / requests : 0.0)
        .num("serve.requests", requests)
        .num("serve.batches", counter("serve/batches"))
        .num("serve.events.fired", counter("serve/events/fired"))
        .num("serve.memo.hits", memoHits)
        .num("serve.memo.misses", memoMisses)
        .num("serve.memo.hit_ratio",
             memoHits + memoMisses > 0.0
                 ? memoHits / (memoHits + memoMisses)
                 : 0.0)
        .num("nn.cell_ms", tr.nnCellMs)
        .num("nn.inferences", counter("nn/images"))
        .num("obs.trace_overhead_share", tr.wallS / untracedWallS - 1.0);

    JsonObject j;
    j.text("phase", "trace")
        .num("untraced_wall_s", untracedWallS)
        .num("traced_wall_s", tr.wallS)
        .text("untraced_digest", untraced.digest)
        .text("traced_digest", tr.digest)
        .num("traced_cell_sum_ms", cellSum)
        .num("product_cell_sum_ms", tr.productCellSumMs)
        .num("items", static_cast<double>(untraced.items))
        .raw("cells", cellsJson(untraced.cells))
        .raw("layers", layers.str())
        .raw("spans", tr.spans)
        .num("peak_rss_mb", peakRssMb());
    writeResult(o, j.str());
    return 0;
}

} // namespace

int
main(int argc, char **argv)
{
    const Options o = parseArgs(argc, argv);
    return o.phase == "measure" ? measurePhase(o) : tracePhase(o);
}
