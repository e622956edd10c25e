/**
 * @file
 * NN campaign execution on the campaign core (see campaign.hh).
 */

#include "nn/campaign.hh"

#include <chrono>
#include <optional>
#include <sstream>

#include "campaign/columns.hh"
#include "common/logging.hh"
#include "nn/pluto_qnn.hh"
#include "obs/registry.hh"
#include "obs/trace.hh"

namespace pluto::nn
{

namespace
{

/** Bump when the inference cost model changes cached semantics. */
constexpr u32 kNnSchema = 1;

/** Static description of one cell, expanded from the config. */
struct CellTask
{
    u32 device = 0;
    u32 spec = 0;
};

/**
 * Simulated cost of one batch of `images` inferences on `dev`: one
 * LUT load per batch (so larger batches amortize it), then query
 * waves sized for the whole batch's MACs, then the per-image host
 * reduction. Mirrors plutoQnnCost's per-image mapping (see
 * pluto_qnn.hh) with the load cost kept in the measurement.
 */
void
chargeBatch(runtime::PlutoDevice &dev, const LeNet5 &net, u32 images)
{
    const auto &geom = dev.geometry();
    const u32 salp = dev.salp();
    const u64 macs = net.totalMacs() * images;
    const double hostNs = 2000.0 * images;

    dev.resetStats();
    if (net.bits() == 1) {
        // XNOR phase: 2-bit slots, one lookup per binary MAC;
        // popcount phase: BC-8 over packed XNOR outputs.
        const auto xnor_lut = dev.loadLut("xnor1");
        const auto bc_lut = dev.loadLut("bc8");
        const u64 xnor_slots = geom.rowBits() / 2 * salp;
        const u64 bc_slots = geom.rowBits() / 8 * salp;
        dev.lutOpTimedOnly(
            xnor_lut, (macs + xnor_slots - 1) / xnor_slots, salp);
        dev.lutOpTimedOnly(
            bc_lut, (macs / 8 + bc_slots - 1) / bc_slots, salp);
    } else {
        // 4-bit MACs: one mul4 query per MAC plus one chunked add4
        // query for the accumulation tree, 8-bit slots.
        const auto mul_lut = dev.loadLut("mul4");
        const auto add_lut = dev.loadLut("add4");
        const u64 slots = geom.rowBits() / 8 * salp;
        const u64 waves = (macs + slots - 1) / slots;
        dev.lutOpTimedOnly(mul_lut, waves, salp);
        dev.lutOpTimedOnly(add_lut, waves, salp);
    }
    dev.hostWork(hostNs, units::energyFromPower(2.0, hostNs));
}

} // namespace

bool
NnReport::allVerified() const
{
    for (const auto &r : runs)
        if (!r.out.verified)
            return false;
    return !runs.empty();
}

std::string
NnCache::key(const runtime::DeviceConfig &cfg,
             const sim::NnSpec &spec)
{
    std::ostringstream d;
    d << 'v' << kNnSchema << '|' << deviceDescriptor(cfg) << '|'
      << sim::keyDescriptor(spec, '|');
    return keyFor(d.str());
}

NnRunner::NnRunner(sim::SimConfig cfg) : cfg_(std::move(cfg)) {}

NnReport
NnRunner::run(const campaign::RunOptions &opt,
              const Progress &progress) const
{
    const std::string oerr = opt.validate();
    if (!oerr.empty())
        fatal("NnRunner: %s", oerr.c_str());
    if (cfg_.nnCells.empty())
        fatal("scenario '%s' declares no [nn] sections",
              cfg_.name.c_str());

    std::vector<CellTask> tasks;
    {
        u64 g = 0;
        for (u32 d = 0; d < cfg_.devices.size(); ++d)
            for (u32 s = 0; s < cfg_.nnCells.size(); ++s, ++g)
                if (opt.inShard(g))
                    tasks.push_back({d, s});
    }

    std::optional<NnCache> cache;
    if (!opt.cacheDir.empty()) {
        cache.emplace(opt.cacheDir, cfg_.name, opt.cacheFormat);
        const std::string cerr = cache->load();
        if (!cerr.empty())
            fatal("nn cache: %s", cerr.c_str());
    }

    NnReport report;
    const campaign::Stats stats = campaign::runCampaign(
        tasks.size(), opt, report.runs,
        [&](std::size_t i, NnRunRecord &rec, ScratchArena &arena) {
            const CellTask &t = tasks[i];
            const sim::DeviceSpec &ds = cfg_.devices[t.device];
            const sim::NnSpec &spec = cfg_.nnCells[t.spec];

            const auto t0 = std::chrono::steady_clock::now();
            rec.variant = ds.name;
            rec.cell = spec.name;
            rec.bits = spec.bits;
            rec.seed = spec.seed;

            std::string key;
            std::optional<NnOutcome> hit;
            if (cache) {
                key = NnCache::key(ds.config, spec);
                hit = cache->lookup(key);
            }
            if (hit) {
                rec.out = *hit;
                rec.out.wallMs =
                    opt.deterministic ? 0.0 : rec.out.wallMs;
                rec.fromCache = true;
                return true;
            }

            // Functional path: classify the batch on the host and
            // check the whole prediction vector reproduces with a
            // freshly built net — inference must be a pure function
            // of (bits, seed).
            const LeNet5 net(spec.bits, spec.seed);
            MnistSynth synth(spec.seed);
            const auto digits = synth.batch(spec.images);
            u32 correct = 0;
            std::vector<u32> preds;
            preds.reserve(digits.size());
            {
                const obs::Tracer::Span span("nn.infer");
                for (const auto &img : digits) {
                    preds.push_back(net.classify(img));
                    correct += preds.back() == img.label;
                }
            }
            bool verified = true;
            {
                const obs::Tracer::Span span("nn.verify");
                const LeNet5 replay(spec.bits, spec.seed);
                MnistSynth resynth(spec.seed);
                for (u32 k = 0; k < spec.images; ++k)
                    verified = verified &&
                               replay.classify(resynth.image(
                                   digits[k].label)) == preds[k];
            }

            // Cost path: charge the batch through the device's
            // query engine.
            runtime::ExecStats st;
            {
                const obs::Tracer::Span span("nn.charge");
                runtime::DeviceConfig cfg = ds.config;
                cfg.arena = &arena;
                runtime::PlutoDevice dev(cfg);
                chargeBatch(dev, net, spec.images);
                st = dev.stats();
            }
            if (auto *sh = obs::shard()) {
                sh->inc("nn/cells");
                sh->add("nn/images",
                        static_cast<double>(spec.images));
                sh->add("nn/macs", static_cast<double>(
                                       net.totalMacs() * spec.images));
                if (spec.images > 0)
                    sh->hist("nn/inference_ns")
                        .add(st.timeNs / spec.images);
                sh->absorb("device", st.counters);
            }

            rec.out.images = spec.images;
            rec.out.macs = net.totalMacs();
            rec.out.timeNs = st.timeNs;
            rec.out.energyPj = st.energyPj;
            rec.out.accuracy =
                static_cast<double>(correct) / spec.images;
            rec.out.verified = verified;
            rec.out.wallMs =
                opt.deterministic ? 0.0 : campaign::msSince(t0);
            if (cache) {
                const std::string err = cache->append(key, rec.out);
                if (!err.empty())
                    warn("nn cache: %s", err.c_str());
            }
            return false;
        },
        progress);

    report.wallMs = stats.wallMs;
    report.cacheHits = stats.cacheHits;
    report.cacheMisses = stats.cacheMisses;
    return report;
}

namespace
{

using campaign::Column;

/** One emitted nn cell: the record, its time per inference and the
 *  Table 7 host baselines (CPU, GPU, FPGA) at its MAC count. */
struct CellRow
{
    CellRow(const sim::SimConfig &cfg, const NnRunRecord &r)
        : cfg(cfg), r(r), nsInf(r.out.nsPerInference()),
          hosts(hostQnnCosts(r.bits, r.out.macs))
    {
    }

    const sim::SimConfig &cfg;
    const NnRunRecord &r;
    double nsInf;
    std::vector<QnnCost> hosts;
};

/** @return the getter of the speedup over host baseline `host`. */
auto
speedupOver(std::size_t host)
{
    return [host](const CellRow &v) {
        return v.nsInf > 0.0 ? v.hosts.at(host).timeNs / v.nsInf : 0.0;
    };
}

// Column groups of both documents; the two tables below order them.
const auto kLabels = campaign::columns(
    Column{"variant", [](auto &v) { return v.r.variant; }},
    Column{"cell", [](auto &v) { return v.r.cell; }},
    Column{"bits", [](auto &v) { return v.r.bits; }},
    Column{"images", [](auto &v) { return v.r.out.images; }},
    Column{"seed", [](auto &v) { return v.r.seed; }},
    Column{"macs", [](auto &v) { return v.r.out.macs; }});
const auto kTime = campaign::columns(
    Column{"time_ns", [](auto &v) { return v.r.out.timeNs; }, "%.6f"},
    Column{"ns_per_inference", &CellRow::nsInf, "%.6f"});
const auto kQuality = campaign::columns(
    Column{"pj_per_inference",
           [](auto &v) { return v.r.out.pjPerInference(); }, "%.6f"},
    Column{"accuracy", [](auto &v) { return v.r.out.accuracy; }, "%.4f"},
    Column{"paper_accuracy",
           [](auto &v) { return paperAccuracy(v.r.bits); }, "%.4f"});
const auto kSpeedups = campaign::columns(
    Column{"speedup.cpu", speedupOver(0), "%.4f"},
    Column{"speedup.gpu", speedupOver(1), "%.4f"},
    Column{"speedup.fpga", speedupOver(2), "%.4f"});
const auto kVerified =
    Column{"verified", [](auto &v) { return v.r.out.verified; }};
const auto kWallMs =
    Column{"wall_ms", [](auto &v) { return v.r.out.wallMs; }, "%.3f"};

/** The per-cell CSV, over CellRow. */
const auto kCsvColumns = campaign::columns(
    Column{"scenario", [](auto &v) { return v.cfg.name; }}, kLabels,
    kTime,
    Column{"energy_pj", [](auto &v) { return v.r.out.energyPj; }, "%.6f"},
    kQuality, kSpeedups, kVerified, kWallMs);

/** A summary JSON result, over CellRow. */
const auto kJsonColumns = campaign::columns(
    kLabels, kVerified, kTime, kQuality, kWallMs, kSpeedups);

} // namespace

std::string
NnMetricsSink::renderCsv(const sim::SimConfig &cfg,
                         const NnReport &report)
{
    std::string csv = campaign::csvHeader(kCsvColumns);
    for (const auto &r : report.runs)
        campaign::csvLine(csv, kCsvColumns, CellRow(cfg, r));
    return csv;
}

std::string
NnMetricsSink::renderJson(const sim::SimConfig &cfg,
                          const NnReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("total_runs",
             static_cast<unsigned long long>(report.runs.size()));
    root.set("all_verified", report.allVerified());
    root.set("wall_ms", report.wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    for (const auto &r : report.runs)
        campaign::setJson(results.push(JsonValue::object()),
                          kJsonColumns, CellRow(cfg, r));
    return root.dump();
}

std::string
NnMetricsSink::write(const sim::SimConfig &cfg,
                     const NnReport &report,
                     std::vector<std::string> &written,
                     const std::string &suffix)
{
    return campaign::writeOutputs(
        cfg.outDir + "/" + cfg.name + suffix + "_nn",
        renderCsv(cfg, report), renderJson(cfg, report), written);
}

} // namespace pluto::nn
