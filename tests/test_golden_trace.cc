/**
 * @file
 * Golden-trace tests: the ISA instruction streams (and the timing /
 * energy totals they produce) of a small fixed set of pLUTo Library
 * calls on Geometry::tiny() are pinned against checked-in golden
 * files. Every result in the repo derives from these command
 * streams, so aggressive refactors of the scheduler / query engine /
 * controller hot paths must keep them byte-stable — any intended
 * model change shows up as a reviewable golden diff.
 *
 * A second golden pins a whole serving cell: the deterministic
 * service outputs (runs CSV, summary JSON, tail report, timeseries)
 * and the device / serve counter fold of a multi-device pool with
 * the memo off, for a residency-keeping (GMC) and a residency-
 * destroying (GSA) design. Every batch there executes on the
 * device model, so the file guards what the pool charges per
 * device.
 *
 * A third golden pins the host LeNet-5 reference: the logits of ten
 * synthetic digits for both quantization widths and two weight
 * seeds. The nn campaign's `verified` column only replays the same
 * kernels, so a kernel that is consistently wrong passes it; this
 * file does not.
 *
 * Two more pin the batch and nn output documents (the deterministic
 * runs CSV and summary JSON) of small grids, so that a writer change
 * that alters every row the same way still shows up as a diff.
 *
 * The last pins what the scenario parser makes of every bundled
 * scenario: the expanded cells and the cache key of each, so a parser
 * or cache-key drift shows up even where no stored entry covers it.
 *
 * Regeneration: PLUTO_UPDATE_GOLDEN=1 ./test_golden_trace
 * rewrites tests/golden/ in the source tree (see tests/README.md).
 */

#include <gtest/gtest.h>

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <filesystem>
#include <fstream>
#include <functional>
#include <sstream>

#include "common/digest.hh"
#include "nn/campaign.hh"
#include "nn/lenet5.hh"
#include "obs/registry.hh"
#include "runtime/device.hh"
#include "serve/cache.hh"
#include "serve/loadgen.hh"
#include "serve/metrics.hh"
#include "serve/runner.hh"
#include "sim/cache.hh"
#include "sim/metrics.hh"
#include "sim/runner.hh"
#include "workloads/workload.hh"

#ifndef PLUTO_GOLDEN_DIR
#define PLUTO_GOLDEN_DIR "tests/golden"
#endif
#ifndef PLUTO_SCENARIO_DIR
#define PLUTO_SCENARIO_DIR "examples/scenarios"
#endif

namespace pluto::runtime
{
namespace
{

DeviceConfig
tinyConfig(core::Design d)
{
    DeviceConfig cfg;
    cfg.design = d;
    cfg.geometry = dram::Geometry::tiny();
    cfg.salp = 2;
    return cfg;
}

/** Deterministic operand values below `bound`. */
std::vector<u64>
operandValues(u64 n, u64 bound)
{
    std::vector<u64> v(n);
    for (u64 i = 0; i < n; ++i)
        v[i] = (i * 37 + 11) % bound;
    return v;
}

/**
 * Record one API call's instruction stream plus a stats footer. The
 * footer pins the command-level timing model: a refactor that keeps
 * the instruction list but changes scheduler accounting still fails
 * the golden comparison.
 */
std::string
recordTrace(core::Design design,
            const std::function<void(PlutoDevice &)> &body)
{
    PlutoDevice dev(tinyConfig(design));
    dev.startRecording();
    body(dev);
    const isa::Program prog = dev.stopRecording();
    EXPECT_TRUE(prog.validate().empty()) << prog.validate();

    const auto stats = dev.stats();
    std::ostringstream out;
    out << prog.disassemble();
    char buf[160];
    std::snprintf(buf, sizeof(buf),
                  "# elapsed_ns %.6f\n# energy_pj %.6f\n"
                  "# dram_acts %.0f\n# isa_instructions %.0f\n",
                  stats.timeNs, stats.energyPj,
                  stats.counters.get("dram.acts"),
                  stats.counters.get("isa.instructions"));
    out << buf;
    return out.str();
}

struct GoldenCase
{
    const char *name;
    core::Design design;
    std::function<void(PlutoDevice &)> body;
};

std::vector<GoldenCase>
goldenCases()
{
    return {
        {"api_pluto_add", core::Design::Bsa,
         [](PlutoDevice &dev) {
             const auto a = dev.alloc(16, 8);
             const auto b = dev.alloc(16, 8);
             const auto out = dev.alloc(16, 8);
             dev.write(a, operandValues(16, 16));
             dev.write(b, operandValues(16, 16));
             dev.apiAdd(out, a, b, 4);
         }},
        {"api_pluto_mul", core::Design::Gmc,
         [](PlutoDevice &dev) {
             const auto a = dev.alloc(16, 8);
             const auto b = dev.alloc(16, 8);
             const auto out = dev.alloc(16, 8);
             dev.write(a, operandValues(16, 16));
             dev.write(b, operandValues(16, 16));
             dev.apiMul(out, a, b, 4);
         }},
        {"bulk_lut_query", core::Design::Gsa,
         [](PlutoDevice &dev) {
             const auto lut = dev.loadLut("bc8");
             const auto src = dev.alloc(48, 8);
             const auto dst = dev.alloc(48, 8);
             dev.write(src, operandValues(48, 256));
             // Two back-to-back bulk queries: the second exercises
             // the pLUTo-GSA reload-per-query path.
             dev.lutOp(dst, src, lut);
             dev.lutOp(dst, src, lut);
         }},
    };
}

std::string
goldenPath(const std::string &name)
{
    return std::string(PLUTO_GOLDEN_DIR) + "/" + name + ".golden";
}

/**
 * Compare `got` against golden `name`, or rewrite the golden under
 * PLUTO_UPDATE_GOLDEN (the test then reports SKIPPED).
 */
void
expectGolden(const std::string &name, const std::string &got)
{
    const std::string path = goldenPath(name);
    if (std::getenv("PLUTO_UPDATE_GOLDEN")) {
        std::ofstream out(path, std::ios::binary | std::ios::trunc);
        ASSERT_TRUE(out) << "cannot write " << path;
        out << got;
        ASSERT_TRUE(out.good());
        GTEST_SKIP() << "golden updated: " << path;
    }

    std::ifstream in(path, std::ios::binary);
    ASSERT_TRUE(in) << path
                    << " missing — regenerate with "
                       "PLUTO_UPDATE_GOLDEN=1 ./test_golden_trace";
    std::ostringstream want;
    want << in.rdbuf();
    EXPECT_EQ(got, want.str())
        << "output drifted from " << path
        << "\nIf intended, regenerate with PLUTO_UPDATE_GOLDEN=1 and "
           "review the diff.";
}

class GoldenTrace : public ::testing::TestWithParam<std::size_t>
{
};

TEST_P(GoldenTrace, MatchesCheckedInFile)
{
    const auto cases = goldenCases();
    const GoldenCase &c = cases[GetParam()];
    expectGolden(c.name, recordTrace(c.design, c.body));
}

INSTANTIATE_TEST_SUITE_P(Cases, GoldenTrace,
                         ::testing::Range<std::size_t>(
                             0, goldenCases().size()),
                         [](const auto &info) {
                             const auto cases = goldenCases();
                             return std::string(
                                 cases[info.param].name);
                         });

/**
 * The recorded program must be re-executable: feeding the golden
 * instruction stream back through a fresh Controller reproduces the
 * same timing totals as the recording run (replay determinism).
 */
TEST(GoldenTrace, RecordedProgramReplaysIdentically)
{
    const auto cases = goldenCases();
    const GoldenCase &c = cases[0];
    PlutoDevice rec(tinyConfig(c.design));
    rec.startRecording();
    c.body(rec);
    const isa::Program prog = rec.stopRecording();

    PlutoDevice replay(tinyConfig(c.design));
    replay.controller().execute(prog);
    EXPECT_DOUBLE_EQ(replay.stats().timeNs, rec.stats().timeNs);
    EXPECT_DOUBLE_EQ(replay.stats().energyPj, rec.stats().energyPj);
}

/** One open-loop serving cell; `design` is substituted per run. */
constexpr const char *kServeScenario = R"(
[scenario]
name = golden_serve

[device]
memory = ddr4
design = %s
salp = 64

[workload ColorGrade]
elements = 1024
tenant = 0
slo_ms = 0.5

[workload CRC-8]
elements = 1024
tenant = 1
weight = 0.5
slo_ms = 2

[service pool]
mode = open
arrivals = poisson
rate = %s
duration_ms = 3
policy = adaptive
batch = 8
devices = 5
lanes = 16
seed = 5
memo = off
slo_ms = 1
timeseries_ms = 0.25
)";

/**
 * Run the single-cell serving scenario on `design` and render every
 * deterministic service output plus the device / serve counters.
 */
std::string
serveOutputs(const char *design, const char *rate)
{
    char text[1024];
    std::snprintf(text, sizeof(text), kServeScenario, design, rate);
    std::string err;
    const auto cfg = sim::SimConfig::parse(text, err);
    EXPECT_TRUE(cfg) << err;
    if (!cfg)
        return {};

    auto &reg = obs::Registry::get();
    reg.enable(true);
    reg.reset();
    sim::RunOptions opt;
    opt.threads = 1;
    opt.deterministic = true;
    const auto report = serve::ServiceRunner(*cfg).run(opt);
    const auto counters = reg.snapshot().counters();
    reg.enable(false);
    reg.reset();

    using Sink = serve::ServiceMetricsSink;
    std::string out = "## design " + std::string(design) + "\n";
    out += "## runs.csv\n" + Sink::renderCsv(*cfg, report.runs);
    out += "## summary.json\n" +
           Sink::renderJson(*cfg, report.runs, 0.0);
    out += "## tail_report.json\n" +
           Sink::renderTailReport(*cfg, report.runs);
    out += "## timeseries.csv\n" +
           Sink::renderTimeseriesCsv(*cfg, report.runs);
    out += "## counters\n";
    for (const auto &[path, value] : counters)
        if (path.rfind("device/", 0) == 0 ||
            path.rfind("serve/", 0) == 0)
            out += path + " " + fmtDoubleExact(value) + "\n";
    return out;
}

/**
 * A five-device pool with the memo off executes every batch on the
 * device model. GMC keeps its LUT resident across batches; GSA's
 * destructive sweep leaves it unloaded, so every batch pays the
 * reload. Service outputs and the counter fold are pinned for both.
 */
TEST(GoldenServe, PoolOutputsMatchCheckedInFile)
{
    expectGolden("serve_pool", serveOutputs("gmc", "60000") +
                                   serveOutputs("gsa", "20000"));
}

/** Logits of ten synthetic digits per (bits, weight seed). */
std::string
lenetLogits()
{
    std::ostringstream out;
    for (const u32 bits : {1u, 4u}) {
        for (const u64 seed : {5ull, 17ull}) {
            out << "## bits " << bits << " seed " << seed << "\n";
            const nn::LeNet5 net(bits, seed);
            nn::MnistSynth synth(60000);
            for (const auto &img : synth.batch(10)) {
                out << img.label << ":";
                for (const i32 v : net.infer(img))
                    out << " " << v;
                out << "\n";
            }
        }
    }
    return out.str();
}

TEST(GoldenNn, LeNet5LogitsMatchCheckedInFile)
{
    expectGolden("lenet5_logits", lenetLogits());
}

/** @return the scenario parsed from `text` (test failure if bad). */
sim::SimConfig
parseScenario(const char *text)
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(text, err);
    EXPECT_TRUE(cfg) << err;
    return cfg ? *cfg : sim::SimConfig{};
}

/**
 * Batch grid: two designs x one workload at two sizes, two repeats
 * each, so the summary JSON's folding of repeats into one cell is
 * pinned along with every CSV column.
 */
TEST(GoldenOutputs, BatchRunsCsvAndSummaryJson)
{
    const auto cfg = parseScenario(R"(
[scenario]
name = golden_batch
repeats = 2
[variant v]
sweep design = gsa, gmc
[workload CRC-8]
sweep elements = 512, 2048
)");
    sim::RunOptions opt;
    opt.threads = 1;
    opt.deterministic = true;
    const auto report = sim::ScenarioRunner(cfg).run(opt);
    ASSERT_EQ(report.runs.size(), 8u);
    expectGolden("batch_outputs",
                 "## runs.csv\n" +
                     sim::MetricsSink::renderCsv(cfg, report) +
                     "## summary.json\n" +
                     sim::MetricsSink::renderJson(cfg, report));
}

/** NN grid: one variant, LeNet-5 at bits 1 and 4. */
TEST(GoldenOutputs, NnRunsCsvAndSummaryJson)
{
    const auto cfg = parseScenario(R"(
[scenario]
name = golden_nn
[variant bsa]
design = bsa
[nn lenet]
sweep bits = 1, 4
images = 2
)");
    sim::RunOptions opt;
    opt.threads = 1;
    opt.deterministic = true;
    const auto report = nn::NnRunner(cfg).run(opt);
    ASSERT_EQ(report.runs.size(), 2u);
    expectGolden("nn_outputs",
                 "## runs.csv\n" +
                     nn::NnMetricsSink::renderCsv(cfg, report) +
                     "## summary.json\n" +
                     nn::NnMetricsSink::renderJson(cfg, report));
}

/**
 * @return the cells one scenario file expands to: each variant with
 * its device descriptor, every workload field, and the cache key of
 * every batch run, service cell and nn cell.
 */
std::string
scenarioCells(const sim::SimConfig &cfg)
{
    std::ostringstream out;
    out << "scenario " << cfg.name << " out_dir=" << cfg.outDir
        << " repeats=" << cfg.repeats << "\n";
    for (const auto &d : cfg.devices)
        out << "variant " << d.name << " " << deviceDescriptor(d.config)
            << "\n";
    for (const auto &w : cfg.workloads)
        out << "workload " << w.name << " elements=" << w.elements
            << " repeats=" << w.repeats << " seed=" << w.seed
            << " tenant=" << w.tenant
            << " weight=" << fmtDoubleExact(w.weight)
            << " slo_ms=" << fmtDoubleExact(w.sloMs) << "\n";
    for (const auto &d : cfg.devices) {
        for (const auto &w : cfg.workloads) {
            const u64 elements =
                w.elements ? w.elements
                           : workloads::makeWorkload(w.name)
                                 ->defaultElements(d.config.memory);
            for (u32 r = 0; r < w.repeats * cfg.repeats; ++r)
                out << "run " << d.name << " " << w.name << " " << r
                    << " "
                    << sim::RunCache::key(d.config, w.name, elements,
                                          w.seed, r)
                    << "\n";
        }
        const auto mix = serve::buildMix(cfg, d.config);
        for (const auto &s : cfg.services)
            out << "service " << d.name << " " << s.name << " "
                << serve::ServiceCache::key(d.config, s, mix) << "\n";
        for (const auto &n : cfg.nnCells)
            out << "nn " << d.name << " " << n.name << " "
                << nn::NnCache::key(d.config, n) << "\n";
    }
    return out.str();
}

/** Every bundled scenario file, parsed and expanded. */
TEST(GoldenScenarios, CellsAndCacheKeysOfEveryExample)
{
    std::vector<std::filesystem::path> files;
    for (const auto &e :
         std::filesystem::directory_iterator(PLUTO_SCENARIO_DIR))
        if (e.path().extension() == ".ini")
            files.push_back(e.path());
    std::sort(files.begin(), files.end());
    ASSERT_FALSE(files.empty());

    std::string got;
    for (const auto &f : files) {
        std::string err;
        const auto cfg = sim::SimConfig::load(f.string(), err);
        ASSERT_TRUE(cfg) << f << ": " << err;
        got += "## " + f.filename().string() + "\n" + scenarioCells(*cfg);
    }
    expectGolden("scenario_cells", got);
}

} // namespace
} // namespace pluto::runtime
