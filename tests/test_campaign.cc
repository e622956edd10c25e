/**
 * @file
 * Campaign-core tests: forEachTask edge cases (zero tasks, more
 * threads than tasks, worker-index stability/uniqueness, exception
 * propagation), the JsonlCache version header (legacy files load,
 * future formats are rejected with a clear error), per-mode key
 * namespacing (equal descriptors cannot collide across modes in a
 * shared --cache-dir), the per-mode cache field tables (every
 * member round-trips in both encodings, checked-in fixture files
 * re-encode byte for byte, out-of-range JSONL integers are corrupt),
 * the column tables behind every CSV and JSON writer, and the NN
 * campaign mode's sharded+cached byte-identity — the properties
 * every mode inherits from the core.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cmath>
#include <filesystem>
#include <fstream>
#include <iterator>
#include <limits>
#include <map>
#include <mutex>
#include <set>
#include <stdexcept>
#include <thread>
#include <utility>
#include <vector>

#include "campaign/cache.hh"
#include "campaign/columns.hh"
#include "campaign/runner.hh"
#include "nn/campaign.hh"
#include "serve/cache.hh"
#include "sim/cache.hh"

namespace pluto::campaign
{
namespace
{

namespace fs = std::filesystem;

/** Fresh scratch directory per test. */
std::string
scratchDir(const std::string &name)
{
    const auto dir = (fs::temp_directory_path() / name).string();
    fs::remove_all(dir);
    return dir;
}

// ---- forEachTask ----

TEST(ForEachTask, ZeroTasksRunsNothing)
{
    std::atomic<u64> calls{0};
    forEachTask(0, 0, [&](std::size_t, u32) { calls.fetch_add(1); });
    EXPECT_EQ(calls.load(), 0u);
}

TEST(ForEachTask, MoreThreadsThanTasksCoversEveryIndexOnce)
{
    // 64 requested workers, 5 tasks: the pool clamps to the task
    // count and still runs every index exactly once.
    EXPECT_EQ(resolveThreads(5, 64), 5u);
    std::vector<std::atomic<u32>> ran(5);
    forEachTask(5, 64, [&](std::size_t i, u32 w) {
        EXPECT_LT(w, 5u);
        ran[i].fetch_add(1);
    });
    for (const auto &r : ran)
        EXPECT_EQ(r.load(), 1u);
}

TEST(ForEachTask, WorkerIndicesAreStableAndUnique)
{
    // Every OS thread must observe exactly one worker index, and no
    // two threads may share one — the contract that makes per-worker
    // ScratchArena slots race-free.
    constexpr u32 kThreads = 4;
    constexpr std::size_t kTasks = 400;
    std::mutex mu;
    std::map<std::thread::id, std::set<u32>> seen;
    forEachTask(kTasks, kThreads, [&](std::size_t, u32 w) {
        EXPECT_LT(w, kThreads);
        std::lock_guard<std::mutex> lock(mu);
        seen[std::this_thread::get_id()].insert(w);
    });
    std::set<u32> workers;
    for (const auto &[tid, ws] : seen) {
        EXPECT_EQ(ws.size(), 1u) << "thread saw several indices";
        workers.insert(*ws.begin());
    }
    EXPECT_EQ(workers.size(), seen.size())
        << "two threads shared a worker index";
}

TEST(ForEachTask, SingleThreadUsesWorkerZero)
{
    forEachTask(17, 1,
                [&](std::size_t, u32 w) { EXPECT_EQ(w, 0u); });
}

TEST(ForEachTask, PropagatesWorkerExceptions)
{
    // A throwing cell must surface on the calling thread (not
    // std::terminate) and stop the queue early. Non-throwing cells
    // dawdle so the failure reliably outruns the healthy workers.
    std::atomic<u64> calls{0};
    const auto boom = [&](std::size_t i, u32) {
        calls.fetch_add(1);
        if (i == 3)
            throw std::runtime_error("cell 3 failed");
        std::this_thread::sleep_for(std::chrono::microseconds(200));
    };
    EXPECT_THROW(forEachTask(1000, 4, boom), std::runtime_error);
    EXPECT_LT(calls.load(), 1000u) << "queue was not drained early";

    // Single-threaded path propagates too, after exactly 4 cells.
    calls.store(0);
    EXPECT_THROW(forEachTask(10, 1, boom), std::runtime_error);
    EXPECT_EQ(calls.load(), 4u);
}

TEST(RunCampaign, CountsHitsAndZerosWallUnderDeterminism)
{
    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    std::vector<int> records;
    const Stats stats = runCampaign(
        10, opt, records,
        [&](std::size_t i, int &rec, ScratchArena &) {
            rec = static_cast<int>(i) + 1;
            return i % 2 == 0; // pretend even cells were cached
        });
    EXPECT_EQ(stats.cacheHits, 5u);
    EXPECT_EQ(stats.cacheMisses, 5u);
    EXPECT_EQ(stats.wallMs, 0.0);
    ASSERT_EQ(records.size(), 10u);
    for (std::size_t i = 0; i < records.size(); ++i)
        EXPECT_EQ(records[i], static_cast<int>(i) + 1);
}

// ---- JsonlCache format versioning ----

/** Minimal outcome + one-row field table for format tests. */
struct TinyOutcome
{
    double value = 0.0;
};

struct TinyTable
{
    static constexpr const char *kKind = "tiny";
    static constexpr auto kFields =
        std::make_tuple(field("value", &TinyOutcome::value));
};

using TinyCache = JsonlCache<TinyOutcome, TinyTable>;

TEST(JsonlCacheFormat, NewFilesLeadWithVersionHeader)
{
    const auto dir = scratchDir("pluto_campaign_header_test");
    TinyCache cache(dir, "hdr");
    ASSERT_TRUE(cache.append("aaaa", {1.5}).empty());

    std::ifstream in(cache.path());
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_EQ(first, "{\"cacheFormat\":2,\"kind\":\"tiny\"}");

    TinyCache reader(dir, "hdr");
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 1u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    EXPECT_EQ(reader.lookup("aaaa")->value, 1.5);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, AcceptsLegacyUnversionedFiles)
{
    // Pre-v2 cache files have no header: every line is an entry.
    const auto dir = scratchDir("pluto_campaign_legacy_test");
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/legacy.tiny.cache.jsonl",
                          std::ios::binary);
        out << "{\"key\":\"aaaa\",\"value\":0.25}\n";
        out << "{\"key\":\"bbbb\",\"value\":4}\n";
    }
    TinyCache cache(dir, "legacy");
    EXPECT_TRUE(cache.load().empty());
    EXPECT_EQ(cache.entries(), 2u);
    EXPECT_EQ(cache.corruptLines(), 0u);
    EXPECT_EQ(cache.lookup("bbbb")->value, 4.0);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, RejectsFutureFormatsWithClearError)
{
    // A future writer's file must fail loudly, not dissolve into
    // "every line is corrupt".
    const auto dir = scratchDir("pluto_campaign_future_test");
    fs::create_directories(dir);
    {
        std::ofstream out(dir + "/future.tiny.cache.jsonl",
                          std::ios::binary);
        out << "{\"cacheFormat\":99,\"kind\":\"tiny\"}\n";
        out << "{\"key\":\"aaaa\",\"value\":1}\n";
    }
    TinyCache cache(dir, "future");
    const std::string err = cache.load();
    EXPECT_NE(err.find("cacheFormat 99"), std::string::npos) << err;
    EXPECT_NE(err.find("formats <= 2"), std::string::npos) << err;
    EXPECT_EQ(cache.entries(), 0u);
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, DuplicateHeadersFromRacingCreatorsAreSkipped)
{
    // Two shard processes may both think they created the file; the
    // loader must skip headers wherever they appear.
    const auto dir = scratchDir("pluto_campaign_dup_header_test");
    TinyCache writer(dir, "race");
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());
    {
        std::ofstream out(writer.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"cacheFormat\":2,\"kind\":\"tiny\"}\n";
        out << "{\"key\":\"bbbb\",\"value\":2}\n";
    }
    TinyCache reader(dir, "race");
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 2u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    fs::remove_all(dir);
}

// ---- Binary (v3) cache format ----

TEST(BinaryCacheFormat, RoundTripsAndLeadsWithJsonVersionHeader)
{
    const auto dir = scratchDir("pluto_campaign_bin_test");
    TinyCache cache(dir, "bin", CacheFormat::Binary);
    // 1/3 has no finite decimal expansion; raw-bits storage must
    // still round-trip it exactly.
    ASSERT_TRUE(cache.append("aaaa", {1.0 / 3.0}).empty());
    ASSERT_TRUE(cache.append("bbbb", {-0.0}).empty());

    // The header stays an ASCII JSON line even though the records
    // are binary: that line is what makes a JSONL-only (or older)
    // build fail loudly instead of recomputing.
    std::ifstream in(cache.path(), std::ios::binary);
    std::string first;
    ASSERT_TRUE(std::getline(in, first));
    EXPECT_EQ(first, "{\"cacheFormat\":3,\"kind\":\"tiny\","
                     "\"encoding\":\"binary\"}");
    static_assert(kBinaryCacheFormat > kCacheFormat,
                  "binary format must look like the future to "
                  "builds that predate it");

    TinyCache reader(dir, "bin", CacheFormat::Binary);
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 2u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    EXPECT_EQ(reader.lookup("aaaa")->value, 1.0 / 3.0);
    EXPECT_TRUE(std::signbit(reader.lookup("bbbb")->value));
    fs::remove_all(dir);
}

TEST(BinaryCacheFormat, JsonlReaderFailsLoudlyOnBinaryFile)
{
    const auto dir = scratchDir("pluto_campaign_bin_mixed_test");
    TinyCache writer(dir, "mix", CacheFormat::Binary);
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());

    // The same path opened in (default) jsonl mode must error with
    // the fix by name — never silently recompute.
    TinyCache reader(dir, "mix");
    const std::string err = reader.load();
    EXPECT_NE(err.find("--cache-format binary"), std::string::npos)
        << err;
    EXPECT_EQ(reader.entries(), 0u);
    fs::remove_all(dir);
}

TEST(BinaryCacheFormat, BinaryReaderFailsLoudlyOnJsonlFile)
{
    const auto dir = scratchDir("pluto_campaign_jsonl_mixed_test");
    TinyCache writer(dir, "mix");
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());

    TinyCache reader(dir, "mix", CacheFormat::Binary);
    const std::string err = reader.load();
    EXPECT_NE(err.find("--cache-format jsonl"), std::string::npos)
        << err;
    EXPECT_EQ(reader.entries(), 0u);

    // Future formats stay future even to the binary reader.
    {
        std::ofstream out(writer.path(), std::ios::binary);
        out << "{\"cacheFormat\":99,\"kind\":\"tiny\","
               "\"encoding\":\"binary2\"}\n";
    }
    const std::string ferr = reader.load();
    EXPECT_NE(ferr.find("cacheFormat 99"), std::string::npos) << ferr;
    fs::remove_all(dir);
}

TEST(BinaryCacheFormat, TornTailRecordIsCountedCorrupt)
{
    const auto dir = scratchDir("pluto_campaign_bin_torn_test");
    TinyCache writer(dir, "torn", CacheFormat::Binary);
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());
    ASSERT_TRUE(writer.append("bbbb", {2.0}).empty());

    // Chop a few bytes off the last record, as an interrupted shard
    // append would: the intact prefix loads, the tail counts.
    const auto size = fs::file_size(writer.path());
    fs::resize_file(writer.path(), size - 3);

    TinyCache reader(dir, "torn", CacheFormat::Binary);
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 1u);
    EXPECT_EQ(reader.corruptLines(), 1u);
    EXPECT_EQ(reader.lookup("aaaa")->value, 1.0);
    EXPECT_FALSE(reader.lookup("bbbb"));
    fs::remove_all(dir);
}

TEST(BinaryCacheFormat, DuplicateHeadersFromRacingCreatorsAreSkipped)
{
    // Same race as the JSONL variant: a second creator's header may
    // land between records; the loader must skip it mid-stream.
    const auto dir = scratchDir("pluto_campaign_bin_race_test");
    TinyCache writer(dir, "race", CacheFormat::Binary);
    ASSERT_TRUE(writer.append("aaaa", {1.0}).empty());
    {
        std::ofstream out(writer.path(),
                          std::ios::binary | std::ios::app);
        out << "{\"cacheFormat\":3,\"kind\":\"tiny\","
               "\"encoding\":\"binary\"}\n";
    }
    ASSERT_TRUE(writer.append("bbbb", {2.0}).empty());

    TinyCache reader(dir, "race", CacheFormat::Binary);
    EXPECT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 2u);
    EXPECT_EQ(reader.corruptLines(), 0u);
    EXPECT_EQ(reader.lookup("bbbb")->value, 2.0);
    fs::remove_all(dir);
}

// ---- Every cached field of every mode, in both encodings ----

/** Hands out a fresh non-default value per call. */
struct Distinct
{
    u64 n = 100;
    u64 next() { return ++n; }
    double real() { return static_cast<double>(++n) / 3.0; }
};

sim::CachedRun
everySimField(Distinct &v)
{
    sim::CachedRun run;
    run.elements = 123456789ull + v.next();
    run.timeNs = v.real();
    run.energyPj = 2.5e300;
    run.hostNs = 5e-324; // smallest subnormal
    run.verified = true;
    run.wallMs = v.real();
    return run;
}

nn::NnOutcome
everyNnField(Distinct &v)
{
    nn::NnOutcome out;
    out.images = v.next();
    out.macs = v.next();
    out.timeNs = v.real();
    out.energyPj = v.real();
    out.accuracy = v.real();
    out.verified = true;
    out.wallMs = v.real();
    return out;
}

serve::ServiceOutcome
everyServeField(Distinct &v)
{
    serve::ServiceOutcome out;
    out.requests = v.next();
    out.batches = v.next();
    out.meanBatch = v.real();
    out.makespanMs = v.real();
    out.throughputRps = v.real();
    out.meanMs = v.real();
    out.p50Ms = v.real();
    out.p95Ms = v.real();
    out.p99Ms = v.real();
    out.p999Ms = v.real();
    out.maxMs = v.real();
    out.meanQueueDepth = 1e-310; // subnormal
    out.maxQueueDepth = std::numeric_limits<double>::max();
    out.utilization = v.real();
    out.pjPerRequest = v.real();
    out.verified = true;
    for (double &p : out.phaseMs)
        p = v.real();
    out.phaseMs[0] = 7.5e-320; // subnormal phase sum
    out.phaseMs[1] = 1.5e307;
    out.sloMs = v.real();
    out.sloTarget = v.real();
    out.sloGood = v.next();
    out.sloViolations = v.next();
    out.sloAttainment = v.real();
    out.sloBurnRate = v.real();
    out.tailQuantile = v.real();
    out.tailThresholdMs = v.real();
    out.tailRequests = v.next();
    out.seriesIntervalMs = v.real();
    out.latHist.addCount(v.real(), 3);
    out.latHist.add(v.real() * 1e3);
    out.latHist.add(v.real() * 1e-3);
    for (int i = 0; i < 2; ++i) {
        serve::TailGroup g;
        g.tenant = static_cast<u32>(v.next());
        g.cls = static_cast<u32>(v.next());
        g.workload = "CRC-8 \"q\\" + std::to_string(v.next());
        g.requests = v.next();
        g.meanMs = v.real();
        for (double &p : g.phaseMs)
            p = v.real();
        out.tail.push_back(g);

        serve::SeriesWindow w;
        w.arrivals = v.next();
        w.completions = v.next();
        w.maxQueueDepth = v.real();
        w.maxInFlight = v.real();
        w.busyNs = v.real();
        w.p50Ms = v.real();
        w.p99Ms = v.real();
        out.series.push_back(w);

        serve::TenantSummary t;
        t.tenant = static_cast<u32>(v.next());
        t.requests = v.next();
        t.meanMs = v.real();
        t.p50Ms = v.real();
        t.p95Ms = v.real();
        t.p99Ms = v.real();
        t.p999Ms = v.real();
        t.maxMs = v.real();
        for (double &p : t.phaseMs)
            p = v.real();
        t.sloMs = v.real();
        t.sloGood = v.next();
        t.sloViolations = v.next();
        t.sloAttainment = v.real();
        t.sloBurnRate = v.real();
        out.tenants.push_back(t);
    }
    return out;
}

void
expectSameSim(const sim::CachedRun &a, const sim::CachedRun &b)
{
    EXPECT_EQ(a.elements, b.elements);
    EXPECT_EQ(a.timeNs, b.timeNs);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.hostNs, b.hostNs);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.wallMs, b.wallMs);
}

void
expectSameNn(const nn::NnOutcome &a, const nn::NnOutcome &b)
{
    EXPECT_EQ(a.images, b.images);
    EXPECT_EQ(a.macs, b.macs);
    EXPECT_EQ(a.timeNs, b.timeNs);
    EXPECT_EQ(a.energyPj, b.energyPj);
    EXPECT_EQ(a.accuracy, b.accuracy);
    EXPECT_EQ(a.verified, b.verified);
    EXPECT_EQ(a.wallMs, b.wallMs);
}

void
expectSamePhases(const double (&a)[serve::kPhaseCount],
                 const double (&b)[serve::kPhaseCount])
{
    for (u32 p = 0; p < serve::kPhaseCount; ++p)
        EXPECT_EQ(a[p], b[p]) << "phase " << p;
}

void
expectSameServe(const serve::ServiceOutcome &a,
                const serve::ServiceOutcome &b)
{
    EXPECT_EQ(a.requests, b.requests);
    EXPECT_EQ(a.batches, b.batches);
    EXPECT_EQ(a.meanBatch, b.meanBatch);
    EXPECT_EQ(a.makespanMs, b.makespanMs);
    EXPECT_EQ(a.throughputRps, b.throughputRps);
    EXPECT_EQ(a.meanMs, b.meanMs);
    EXPECT_EQ(a.p50Ms, b.p50Ms);
    EXPECT_EQ(a.p95Ms, b.p95Ms);
    EXPECT_EQ(a.p99Ms, b.p99Ms);
    EXPECT_EQ(a.p999Ms, b.p999Ms);
    EXPECT_EQ(a.maxMs, b.maxMs);
    EXPECT_EQ(a.meanQueueDepth, b.meanQueueDepth);
    EXPECT_EQ(a.maxQueueDepth, b.maxQueueDepth);
    EXPECT_EQ(a.utilization, b.utilization);
    EXPECT_EQ(a.pjPerRequest, b.pjPerRequest);
    EXPECT_EQ(a.verified, b.verified);
    expectSamePhases(a.phaseMs, b.phaseMs);
    EXPECT_EQ(a.sloMs, b.sloMs);
    EXPECT_EQ(a.sloTarget, b.sloTarget);
    EXPECT_EQ(a.sloGood, b.sloGood);
    EXPECT_EQ(a.sloViolations, b.sloViolations);
    EXPECT_EQ(a.sloAttainment, b.sloAttainment);
    EXPECT_EQ(a.sloBurnRate, b.sloBurnRate);
    EXPECT_EQ(a.tailQuantile, b.tailQuantile);
    EXPECT_EQ(a.tailThresholdMs, b.tailThresholdMs);
    EXPECT_EQ(a.tailRequests, b.tailRequests);
    EXPECT_EQ(a.seriesIntervalMs, b.seriesIntervalMs);
    EXPECT_EQ(a.latHist.count(), b.latHist.count());
    EXPECT_EQ(a.latHist.sum(), b.latHist.sum());
    EXPECT_EQ(a.latHist.min(), b.latHist.min());
    EXPECT_EQ(a.latHist.max(), b.latHist.max());
    EXPECT_EQ(a.latHist.buckets(), b.latHist.buckets());
    ASSERT_EQ(a.tail.size(), b.tail.size());
    for (std::size_t i = 0; i < a.tail.size(); ++i) {
        EXPECT_EQ(a.tail[i].tenant, b.tail[i].tenant);
        EXPECT_EQ(a.tail[i].cls, b.tail[i].cls);
        EXPECT_EQ(a.tail[i].workload, b.tail[i].workload);
        EXPECT_EQ(a.tail[i].requests, b.tail[i].requests);
        EXPECT_EQ(a.tail[i].meanMs, b.tail[i].meanMs);
        expectSamePhases(a.tail[i].phaseMs, b.tail[i].phaseMs);
    }
    ASSERT_EQ(a.series.size(), b.series.size());
    for (std::size_t i = 0; i < a.series.size(); ++i) {
        EXPECT_EQ(a.series[i].arrivals, b.series[i].arrivals);
        EXPECT_EQ(a.series[i].completions, b.series[i].completions);
        EXPECT_EQ(a.series[i].maxQueueDepth, b.series[i].maxQueueDepth);
        EXPECT_EQ(a.series[i].maxInFlight, b.series[i].maxInFlight);
        EXPECT_EQ(a.series[i].busyNs, b.series[i].busyNs);
        EXPECT_EQ(a.series[i].p50Ms, b.series[i].p50Ms);
        EXPECT_EQ(a.series[i].p99Ms, b.series[i].p99Ms);
    }
    ASSERT_EQ(a.tenants.size(), b.tenants.size());
    for (std::size_t i = 0; i < a.tenants.size(); ++i) {
        const auto &x = a.tenants[i];
        const auto &y = b.tenants[i];
        EXPECT_EQ(x.tenant, y.tenant);
        EXPECT_EQ(x.requests, y.requests);
        EXPECT_EQ(x.meanMs, y.meanMs);
        EXPECT_EQ(x.p50Ms, y.p50Ms);
        EXPECT_EQ(x.p95Ms, y.p95Ms);
        EXPECT_EQ(x.p99Ms, y.p99Ms);
        EXPECT_EQ(x.p999Ms, y.p999Ms);
        EXPECT_EQ(x.maxMs, y.maxMs);
        expectSamePhases(x.phaseMs, y.phaseMs);
        EXPECT_EQ(x.sloMs, y.sloMs);
        EXPECT_EQ(x.sloGood, y.sloGood);
        EXPECT_EQ(x.sloViolations, y.sloViolations);
        EXPECT_EQ(x.sloAttainment, y.sloAttainment);
        EXPECT_EQ(x.sloBurnRate, y.sloBurnRate);
    }
}

TEST(BinaryCacheFormat, ModeCodecsRoundTripEveryFieldExactly)
{
    // Every member holds its own non-default value, so a field left
    // out of a mode's table (or read into the wrong member) fails.
    Distinct v;
    const auto run = everySimField(v);
    const auto net = everyNnField(v);
    const auto svc = everyServeField(v);

    for (const CacheFormat fmt : {CacheFormat::Jsonl, CacheFormat::Binary}) {
        SCOPED_TRACE(cacheFormatName(fmt));
        const auto dir = scratchDir(std::string("pluto_campaign_codec_") +
                                    cacheFormatName(fmt));
        sim::RunCache simc(dir, "scn", fmt);
        nn::NnCache nnc(dir, "scn", fmt);
        serve::ServiceCache servec(dir, "scn", fmt);
        ASSERT_TRUE(simc.append("k1", run).empty());
        ASSERT_TRUE(nnc.append("k2", net).empty());
        ASSERT_TRUE(servec.append("k3", svc).empty());

        sim::RunCache simr(dir, "scn", fmt);
        nn::NnCache nnr(dir, "scn", fmt);
        serve::ServiceCache server(dir, "scn", fmt);
        ASSERT_TRUE(simr.load().empty());
        ASSERT_TRUE(nnr.load().empty());
        ASSERT_TRUE(server.load().empty());
        EXPECT_EQ(simr.corruptLines() + nnr.corruptLines() +
                      server.corruptLines(),
                  0u);
        const auto r = simr.lookup("k1");
        const auto n = nnr.lookup("k2");
        const auto s = server.lookup("k3");
        ASSERT_TRUE(r && n && s);
        expectSameSim(*r, run);
        expectSameNn(*n, net);
        expectSameServe(*s, svc);
        fs::remove_all(dir);
    }
}

// ---- Cache files written before the field tables existed ----

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    return {std::istreambuf_iterator<char>(in),
            std::istreambuf_iterator<char>()};
}

/** @return the entry keys of a cache file in file order. */
std::vector<std::string>
keysInFileOrder(const std::string &path, const std::string &kind,
                CacheFormat fmt)
{
    std::vector<std::string> keys;
    u64 corrupt = 0;
    if (fmt == CacheFormat::Binary)
        detail::loadBinaryCache(path, kind, corrupt,
                                [&](const std::string &key, BinReader &) {
                                    keys.push_back(key);
                                    return true;
                                });
    else
        detail::loadJsonlCache(
            path, corrupt, [&](const std::string &key, const JsonValue &) {
                keys.push_back(key);
                return true;
            });
    return keys;
}

/**
 * Load the checked-in `scenario` fixture of one mode in both
 * encodings, then re-append every entry in file order to a fresh
 * cache: the result must equal the fixture byte for byte. Write-then
 * -read round trips cannot see a format drift that is consistent
 * with itself; a file written by an older build can.
 */
template <typename Cache>
void
expectFixtureReencodesExactly(const std::string &scenario,
                              const std::string &kind,
                              std::size_t entries)
{
    for (const CacheFormat fmt : {CacheFormat::Jsonl, CacheFormat::Binary}) {
        SCOPED_TRACE(cacheFormatName(fmt));
        Cache fixture(std::string(PLUTO_GOLDEN_DIR) + "/cache/" +
                          cacheFormatName(fmt),
                      scenario, fmt);
        ASSERT_TRUE(fixture.load().empty());
        EXPECT_EQ(fixture.entries(), entries);
        EXPECT_EQ(fixture.corruptLines(), 0u);

        const auto dir = scratchDir("pluto_campaign_fixture_" + kind +
                                    "_" + cacheFormatName(fmt));
        Cache copy(dir, scenario, fmt);
        const auto keys = keysInFileOrder(fixture.path(), kind, fmt);
        ASSERT_EQ(keys.size(), entries);
        for (const auto &key : keys) {
            const auto out = fixture.lookup(key);
            ASSERT_TRUE(out) << key;
            ASSERT_TRUE(copy.append(key, *out).empty());
        }
        EXPECT_EQ(slurp(copy.path()), slurp(fixture.path()));
        fs::remove_all(dir);
    }
}

TEST(CacheFixtures, SimCacheReencodesByteForByte)
{
    expectFixtureReencodesExactly<sim::RunCache>("sweep_designs", "sim",
                                                 18);
}

TEST(CacheFixtures, ServeCacheReencodesByteForByte)
{
    expectFixtureReencodesExactly<serve::ServiceCache>(
        "service_saturation", "serve", 4);
}

TEST(CacheFixtures, NnCacheReencodesByteForByte)
{
    expectFixtureReencodesExactly<nn::NnCache>("nn_lenet5", "nn", 18);
}

// ---- JSONL integers out of their field's range ----

/**
 * Append `valid` to a fresh `Cache`, then one copy of its JSONL line
 * per (from, to) text edit under a key of its own. Every edited line
 * must load as corrupt; only the valid entry may survive.
 */
template <typename Cache, typename Outcome>
void
expectEditedLinesCorrupt(
    const std::string &name, const Outcome &valid,
    const std::vector<std::pair<std::string, std::string>> &edits)
{
    const auto dir = scratchDir("pluto_campaign_range_" + name);
    Cache writer(dir, "range");
    ASSERT_TRUE(writer.append("good", valid).empty());
    const std::string text = slurp(writer.path());
    const auto at = text.find("{\"key\":\"good\"");
    ASSERT_NE(at, std::string::npos);
    const std::string line = text.substr(at);
    {
        std::ofstream out(writer.path(), std::ios::binary | std::ios::app);
        for (std::size_t i = 0; i < edits.size(); ++i) {
            std::string bad = line;
            const auto pos = bad.find(edits[i].first);
            ASSERT_NE(pos, std::string::npos) << edits[i].first;
            bad.replace(pos, edits[i].first.size(), edits[i].second);
            bad.replace(bad.find("good"), 4, "bad" + std::to_string(i));
            out << bad;
        }
    }
    Cache reader(dir, "range");
    ASSERT_TRUE(reader.load().empty());
    EXPECT_EQ(reader.entries(), 1u);
    EXPECT_EQ(reader.corruptLines(), edits.size());
    EXPECT_TRUE(reader.lookup("good"));
    fs::remove_all(dir);
}

TEST(JsonlCacheFormat, OutOfRangeIntegersAreCorruptInEveryMode)
{
    // Negative, huge, fractional and too-wide values used to load
    // through an unchecked double -> integer cast.
    sim::CachedRun run;
    run.elements = 77;
    expectEditedLinesCorrupt<sim::RunCache>(
        "sim", run,
        {{"\"elements\":77,", "\"elements\":-1,"},
         {"\"elements\":77,", "\"elements\":1e300,"},
         {"\"elements\":77,", "\"elements\":2.5,"},
         {"\"elements\":77,", "\"elements\":18446744073709551616,"}});

    nn::NnOutcome net;
    net.images = 77;
    expectEditedLinesCorrupt<nn::NnCache>(
        "nn", net,
        {{"\"images\":77,", "\"images\":-1,"},
         {"\"images\":77,", "\"images\":1e300,"},
         {"\"images\":77,", "\"images\":2.5,"}});

    serve::ServiceOutcome svc;
    svc.requests = 77;
    svc.tail.push_back({});
    svc.tail.back().tenant = 5;
    svc.tail.back().cls = 6;
    svc.series.push_back({});
    svc.series.back().arrivals = 11;
    svc.tenants.push_back({});
    svc.tenants.back().tenant = 3;
    expectEditedLinesCorrupt<serve::ServiceCache>(
        "serve", svc,
        {{"\"requests\":77,", "\"requests\":-1,"},
         {"\"requests\":77,", "\"requests\":1e300,"},
         {"\"requests\":77,", "\"requests\":2.5,"},
         {"{\"tenant\":3,", "{\"tenant\":4294967296,"},
         {"\"class\":6,", "\"class\":4294967296,"},
         {"\"series\":[[11,", "\"series\":[[2.5,"}});
}

TEST(JsonlCacheFormat, IntegersFrom2To53ReloadOnlyFromBinary)
{
    // JSON numbers parse to doubles, which round 2^53 + 1 to 2^53:
    // that JSONL line must miss and count as corrupt, while a binary
    // record replays all 64 bits. 2^53 - 1 is exact in both.
    sim::CachedRun wide;
    wide.elements = (u64{1} << 53) + 1;
    sim::CachedRun edge;
    edge.elements = (u64{1} << 53) - 1;
    for (const CacheFormat fmt :
         {CacheFormat::Jsonl, CacheFormat::Binary}) {
        const auto dir = scratchDir(std::string("pluto_campaign_2p53_") +
                                    cacheFormatName(fmt));
        sim::RunCache writer(dir, "wide", fmt);
        ASSERT_TRUE(writer.append("wide", wide).empty());
        ASSERT_TRUE(writer.append("edge", edge).empty());

        sim::RunCache reader(dir, "wide", fmt);
        ASSERT_TRUE(reader.load().empty());
        ASSERT_TRUE(reader.lookup("edge"));
        EXPECT_EQ(reader.lookup("edge")->elements, edge.elements);
        if (fmt == CacheFormat::Jsonl) {
            EXPECT_FALSE(reader.lookup("wide"));
            EXPECT_EQ(reader.corruptLines(), 1u);
        } else {
            ASSERT_TRUE(reader.lookup("wide"));
            EXPECT_EQ(reader.lookup("wide")->elements, wide.elements);
            EXPECT_EQ(reader.corruptLines(), 0u);
        }
        fs::remove_all(dir);
    }
}

// ---- Column tables ----

struct Shown
{
    std::string name;
    u32 count = 0;
    double ms = 0.0;
    bool ok = false;
    /** No value: a blank cell. */
    bool hidden = false;
};

TEST(ColumnTables, RenderEveryCellKindToCsvAndJson)
{
    const auto kStats = columns(Column{"stats.count", &Shown::count},
                                Column{"stats.ms", &Shown::ms, "%.2f"});
    const auto table = columns(
        Column{"name", &Shown::name}, kStats, Column{"ok", &Shown::ok},
        Column{"maybe",
               [](const Shown &s) -> std::variant<Blank, double> {
                   if (s.hidden)
                       return {};
                   return s.ms * 2.0;
               },
               "%.1f"});

    const Shown a{"a,b", 3, 1.25, true, false};
    const Shown b{"c", 0, 0.5, false, true};
    std::string csv = csvHeader(table);
    csvLine(csv, table, a);
    csvLine(csv, table, b);
    EXPECT_EQ(csv, "name,stats_count,stats_ms,ok,maybe\n"
                   "\"a,b\",3,1.25,yes,2.5\n"
                   "c,0,0.50,no,\n");

    // Dotted names nest where the group first appears; the blank
    // cell is left out and doubles keep every digit.
    JsonValue obj = JsonValue::object();
    setJson(obj, table, b);
    std::string err;
    const auto want = JsonValue::parse(
        R"({"name": "c", "stats": {"count": 0, "ms": 0.5},
            "ok": false})",
        err);
    ASSERT_TRUE(want) << err;
    EXPECT_EQ(obj.dump(), want->dump());
}

// ---- Per-mode key namespacing ----

TEST(CacheNamespacing, EqualDescriptorsCannotCollideAcrossModes)
{
    // The same descriptor string keys different content per mode:
    // a batch cell and a service cell that coincidentally describe
    // themselves identically must hash to different keys, so a
    // shared --cache-dir can never replay one as the other.
    const std::string descriptor = "v1|identical-descriptor";
    const auto simKey = sim::RunCache::keyFor(descriptor);
    const auto serveKey = serve::ServiceCache::keyFor(descriptor);
    const auto nnKey = nn::NnCache::keyFor(descriptor);
    EXPECT_NE(simKey, serveKey);
    EXPECT_NE(simKey, nnKey);
    EXPECT_NE(serveKey, nnKey);

    // And even with equal keys, the modes' files are disjoint in a
    // shared directory.
    const auto dir = scratchDir("pluto_campaign_ns_test");
    sim::RunCache simCache(dir, "scn");
    serve::ServiceCache serveCache(dir, "scn");
    nn::NnCache nnCache(dir, "scn");
    EXPECT_NE(simCache.path(), serveCache.path());
    EXPECT_NE(simCache.path(), nnCache.path());
    EXPECT_NE(serveCache.path(), nnCache.path());

    // Concretely: store a batch outcome under simKey; the service
    // and nn caches in the same directory must not see anything.
    sim::CachedRun run;
    run.elements = 7;
    run.timeNs = 1.0 / 3.0;
    ASSERT_TRUE(simCache.append(simKey, run).empty());
    EXPECT_TRUE(serveCache.load().empty());
    EXPECT_TRUE(nnCache.load().empty());
    EXPECT_EQ(serveCache.entries(), 0u);
    EXPECT_EQ(nnCache.entries(), 0u);
    EXPECT_FALSE(serveCache.lookup(simKey));
    EXPECT_FALSE(nnCache.lookup(simKey));
    fs::remove_all(dir);
}

// ---- The NN mode inherits the campaign discipline ----

/** Small 2-variant x 4-cell nn scenario. */
sim::SimConfig
nnScenario()
{
    std::string err;
    const auto cfg = sim::SimConfig::parse(R"(
[scenario]
name = nn_unit
[variant bsa]
design = bsa
[variant gsa]
design = gsa
[nn lenet]
sweep bits = 1, 4
images = 2
)",
                                           err);
    EXPECT_TRUE(cfg) << err;
    return *cfg;
}

TEST(NnCampaign, ShardedCachedRunsEqualColdRunByteForByte)
{
    const auto cfg = nnScenario();
    const auto dir = scratchDir("pluto_campaign_nn_test");
    const nn::NnRunner runner(cfg);

    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const auto cold = runner.run(opt);
    ASSERT_EQ(cold.runs.size(), 4u);
    EXPECT_TRUE(cold.allVerified());
    EXPECT_EQ(cold.cacheHits, 0u);

    // Three shards over a shared cache partition the grid...
    opt.cacheDir = dir;
    std::size_t shardRuns = 0;
    for (u32 i = 0; i < 3; ++i) {
        opt.shardIndex = i;
        opt.shardCount = 3;
        shardRuns += runner.run(opt).runs.size();
    }
    EXPECT_EQ(shardRuns, cold.runs.size());

    // ...and the merge pass replays every cell, emitting the same
    // bytes as the cold run.
    opt.shardIndex = 0;
    opt.shardCount = 1;
    const auto merged = runner.run(opt);
    EXPECT_EQ(merged.cacheHits, merged.runs.size());
    EXPECT_EQ(nn::NnMetricsSink::renderCsv(cfg, merged),
              nn::NnMetricsSink::renderCsv(cfg, cold));
    EXPECT_EQ(nn::NnMetricsSink::renderJson(cfg, merged),
              nn::NnMetricsSink::renderJson(cfg, cold));

    // Thread-count independence of the emitted bytes.
    RunOptions one;
    one.threads = 1;
    one.deterministic = true;
    const auto serial = runner.run(one);
    EXPECT_EQ(nn::NnMetricsSink::renderCsv(cfg, serial),
              nn::NnMetricsSink::renderCsv(cfg, cold));
    fs::remove_all(dir);
}

TEST(NnCampaign, ShardedBinaryCacheRunsEqualColdRunByteForByte)
{
    // The binary encoding must inherit the exact sharded+merged ==
    // cold discipline of the JSONL cache: same grid partition, every
    // merge cell a hit, byte-identical reports.
    const auto cfg = nnScenario();
    const auto dir = scratchDir("pluto_campaign_nn_bin_test");
    const nn::NnRunner runner(cfg);

    RunOptions opt;
    opt.threads = 2;
    opt.deterministic = true;
    const auto cold = runner.run(opt);

    opt.cacheDir = dir;
    opt.cacheFormat = CacheFormat::Binary;
    std::size_t shardRuns = 0;
    for (u32 i = 0; i < 3; ++i) {
        opt.shardIndex = i;
        opt.shardCount = 3;
        shardRuns += runner.run(opt).runs.size();
    }
    EXPECT_EQ(shardRuns, cold.runs.size());

    opt.shardIndex = 0;
    opt.shardCount = 1;
    const auto merged = runner.run(opt);
    EXPECT_EQ(merged.cacheHits, merged.runs.size());
    EXPECT_EQ(nn::NnMetricsSink::renderCsv(cfg, merged),
              nn::NnMetricsSink::renderCsv(cfg, cold));
    EXPECT_EQ(nn::NnMetricsSink::renderJson(cfg, merged),
              nn::NnMetricsSink::renderJson(cfg, cold));
    fs::remove_all(dir);
}

TEST(NnCampaign, ConfigParsesAndExpandsNnGrids)
{
    const auto cfg = nnScenario();
    ASSERT_EQ(cfg.nnCells.size(), 2u);
    EXPECT_EQ(cfg.nnCells[0].name, "lenet/bits=1");
    EXPECT_EQ(cfg.nnCells[0].bits, 1u);
    EXPECT_EQ(cfg.nnCells[1].name, "lenet/bits=4");
    EXPECT_EQ(cfg.nnCells[1].bits, 4u);
    EXPECT_EQ(cfg.nnCells[0].images, 2u);
    EXPECT_EQ(cfg.totalNnRuns(), 4u);

    // Bad keys fail with diagnostics, like every other section.
    std::string err;
    EXPECT_FALSE(
        sim::SimConfig::parse("[nn x]\nbits = 3\n", err));
    EXPECT_NE(err.find("bad bits"), std::string::npos) << err;
    EXPECT_FALSE(
        sim::SimConfig::parse("[nn x]\nwibble = 1\n", err));
    EXPECT_NE(err.find("unknown nn key"), std::string::npos) << err;

    // nn-only scenarios are legal; empty scenarios are not.
    EXPECT_TRUE(sim::SimConfig::parse("[nn x]\nbits = 1\n", err));
    EXPECT_FALSE(sim::SimConfig::parse("[scenario]\nname = x\n", err));
    EXPECT_NE(err.find("[workload] or [nn]"), std::string::npos)
        << err;
}

} // namespace
} // namespace pluto::campaign
