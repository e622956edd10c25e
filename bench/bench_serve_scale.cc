/**
 * @file
 * Serving-core scaling: the discrete-event engine vs the legacy
 * polling loop it replaced, on identical closed-loop specs at
 * growing pool sizes. Both engines simulate the same seeded arrival
 * stream through the same shared calibration, so their
 * ServiceOutcomes are bit-identical; only the wall-clock cost
 * differs — O((R+E)·log P) for the event engine vs the polling
 * loop's O(P) (and per-waiter O(P + queue)) rescans every tick.
 *
 * Emits one machine-readable row per (pool size, engine):
 *     serve_scale,<devices>,<engine>,<requests>,<wall_ms>,<sim_rps>
 * and one ratio row per pool size:
 *     serve_scale_speedup,<devices>,<ratio>
 * (scripts/bench_report.sh folds these into BENCH_report.json).
 *
 * A second section measures batch-signature memoization on the
 * fleet regime (open-loop Poisson, Zipf-skewed four-class mix,
 * adaptive batching — service_fleet.ini's shape): memo=on replay vs
 * the memo=off execute-everything oracle, same event engine, rows
 *     serve_memo,<devices>,<mode>,<requests>,<wall_ms>,<sim_rps>
 *     serve_memo_speedup,<devices>,<ratio>
 *
 * Exit-code-enforced invariants:
 *  1. both engines produce the identical outcome at every pool size
 *     (the event engine is an optimization, not an approximation);
 *  2. at 64+ devices the event engine sustains at least 10x the
 *     polling loop's simulated-requests per wall-second;
 *  3. memo on/off outcomes are bit-identical, and at 256 devices
 *     memo=on sustains at least 5x memo=off simulated throughput.
 */

#include "bench_common.hh"
#include "common/table.hh"
#include "serve/simulator.hh"

using namespace pluto;
using namespace pluto::bench;

namespace
{

sim::DeviceSpec
variant()
{
    sim::DeviceSpec ds;
    ds.name = "gmc-salp128";
    ds.config.design = core::Design::Gmc;
    ds.config.salp = 128;
    return ds;
}

sim::ServiceSpec
service(u32 devices)
{
    sim::ServiceSpec svc;
    svc.name = "scale-" + std::to_string(devices);
    // Closed-loop clients feeding gang-sized fixed batches: devices
    // spend most of the time filling deep queues, the regime where
    // the polling loop's per-tick rescans (an O(P) may-arrive probe
    // plus an O(queue) eligible-prefix walk per waiting device,
    // every tick) turn quadratic while the event engine touches
    // only the devices whose inputs changed.
    svc.policy = sim::BatchPolicyKind::FixedSize;
    svc.closedLoop = true;
    svc.clients = 512 * devices;
    svc.thinkMs = 1.0;
    // Constant total work across pool sizes: the per-request cost
    // comparison stays apples-to-apples as P grows.
    svc.durationMs = 160.0 / devices;
    svc.batch = 256;
    svc.devices = devices;
    svc.lanes = 1; // gang = salp: 128 requests per wave group
    svc.seed = 42;
    return svc;
}

std::vector<serve::RequestClass>
mix()
{
    serve::RequestClass c;
    c.workload = "ColorGrade";
    c.elements = 64; // minimal kernel: loop cost, not model cost
    c.tenant = 0;
    c.weight = 1.0;
    return {c};
}

bool
sameOutcome(const serve::ServiceOutcome &a,
            const serve::ServiceOutcome &b)
{
    return a.requests == b.requests && a.batches == b.batches &&
           a.makespanMs == b.makespanMs &&
           a.throughputRps == b.throughputRps &&
           a.meanMs == b.meanMs && a.p50Ms == b.p50Ms &&
           a.p99Ms == b.p99Ms && a.p999Ms == b.p999Ms &&
           a.maxMs == b.maxMs && a.pjPerRequest == b.pjPerRequest;
}

/** service_fleet.ini's serving shape, scaled to the pool size:
 *  open-loop Poisson arrivals just under capacity, Zipf-skewed
 *  tenants, adaptive batching. Constant total work across pools. */
sim::ServiceSpec
fleetService(u32 devices)
{
    sim::ServiceSpec svc;
    svc.name = "fleet-" + std::to_string(devices);
    svc.policy = sim::BatchPolicyKind::Adaptive;
    svc.ratePerSec = 34000.0 * devices;
    svc.durationMs = 4400.0 / devices;
    svc.batch = 64;
    svc.devices = devices;
    svc.lanes = 16;
    svc.seed = 11;
    svc.tenantSkew = 2.0;
    svc.sloMs = 2.0;
    return svc;
}

/** service_fleet.ini's four-tenant mix: three pixel classes plus
 *  the heavy CRC-8 cold tenant that shapes the tail. */
std::vector<serve::RequestClass>
fleetMix()
{
    const struct
    {
        const char *workload;
        u32 tenant;
        double weight;
    } defs[] = {
        {"ColorGrade", 0, 1.0},
        {"ImgBin", 1, 0.8},
        {"Bitwise-XOR", 2, 0.6},
        {"CRC-8", 3, 0.4},
    };
    std::vector<serve::RequestClass> m;
    for (const auto &d : defs) {
        serve::RequestClass c;
        c.workload = d.workload;
        c.elements = 1024;
        c.tenant = d.tenant;
        c.weight = d.weight;
        m.push_back(c);
    }
    return m;
}

} // namespace

int
main()
{
    section("Serving-core scaling: event engine vs polling loop "
            "(gmc salp 128, closed-loop clients, gang-sized fixed "
            "batches; loop-only wall time)");

    const auto ds = variant();
    const auto m = mix();
    const auto cal =
        serve::ServeSimulator::calibrateAll(ds.config, m);

    const u32 pools[] = {8, 64, 256};

    AsciiTable t({"devices", "requests", "poll loop ms",
                  "event loop ms", "poll req/s", "event req/s",
                  "speedup"});
    bool ok = true;
    std::string csv;
    for (const u32 devices : pools) {
        const serve::ServeSimulator sim(ds, service(devices), m);
        const auto poll =
            sim.run(&cal, serve::EngineKind::LegacyPolling);
        const auto event = sim.run(&cal, serve::EngineKind::Event);

        if (!sameOutcome(poll, event)) {
            std::printf("FAIL: engines disagree at %u devices "
                        "(poll %llu req, event %llu req)\n",
                        devices,
                        (unsigned long long)poll.requests,
                        (unsigned long long)event.requests);
            ok = false;
            continue;
        }

        // Loop-only wall time: pool construction and calibration
        // are identical across engines and excluded.
        const double req = static_cast<double>(poll.requests);
        const double pollRps = req / (poll.loopHostMs * 1e-3);
        const double eventRps = req / (event.loopHostMs * 1e-3);
        const double speedup = pollRps > 0 ? eventRps / pollRps : 0;
        t.addRow({std::to_string(devices),
                  std::to_string(poll.requests),
                  fmtSig(poll.loopHostMs), fmtSig(event.loopHostMs),
                  fmtSig(pollRps), fmtSig(eventRps),
                  fmtSig(speedup, 3)});
        char line[256];
        std::snprintf(line, sizeof line,
                      "serve_scale,%u,poll,%llu,%.3f,%.0f\n"
                      "serve_scale,%u,event,%llu,%.3f,%.0f\n"
                      "serve_scale_speedup,%u,%.2f\n",
                      devices,
                      (unsigned long long)poll.requests,
                      poll.loopHostMs, pollRps, devices,
                      (unsigned long long)event.requests,
                      event.loopHostMs, eventRps, devices, speedup);
        csv += line;

        if (devices >= 64 && speedup < 10.0) {
            std::printf("FAIL: event engine speedup %.2fx at %u "
                        "devices (expected >= 10x)\n",
                        speedup, devices);
            ok = false;
        }
    }
    std::printf("%s\n%s", t.render().c_str(), csv.c_str());

    section("Batch-signature memoization: replay vs the "
            "execute-everything oracle (fleet regime: open-loop "
            "Poisson, Zipf tenants, adaptive batching; event "
            "engine; loop-only wall time)");

    const auto fm = fleetMix();
    const auto fcal =
        serve::ServeSimulator::calibrateAll(ds.config, fm);
    AsciiTable mt({"devices", "requests", "off loop ms",
                   "on loop ms", "off req/s", "on req/s",
                   "speedup"});
    std::string mcsv;
    for (const u32 devices : pools) {
        auto offSpec = fleetService(devices);
        offSpec.memo = sim::MemoMode::Off;
        auto onSpec = fleetService(devices);
        onSpec.memo = sim::MemoMode::On;
        const auto off =
            serve::ServeSimulator(ds, offSpec, fm).run(&fcal);
        const auto on =
            serve::ServeSimulator(ds, onSpec, fm).run(&fcal);

        if (!sameOutcome(off, on)) {
            std::printf("FAIL: memo on/off outcomes disagree at %u "
                        "devices (off %llu req, on %llu req)\n",
                        devices,
                        (unsigned long long)off.requests,
                        (unsigned long long)on.requests);
            ok = false;
            continue;
        }

        const double req = static_cast<double>(off.requests);
        const double offRps = req / (off.loopHostMs * 1e-3);
        const double onRps = req / (on.loopHostMs * 1e-3);
        const double speedup = offRps > 0 ? onRps / offRps : 0;
        mt.addRow({std::to_string(devices),
                   std::to_string(off.requests),
                   fmtSig(off.loopHostMs), fmtSig(on.loopHostMs),
                   fmtSig(offRps), fmtSig(onRps),
                   fmtSig(speedup, 3)});
        char line[256];
        std::snprintf(line, sizeof line,
                      "serve_memo,%u,off,%llu,%.3f,%.0f\n"
                      "serve_memo,%u,on,%llu,%.3f,%.0f\n"
                      "serve_memo_speedup,%u,%.2f\n",
                      devices,
                      (unsigned long long)off.requests,
                      off.loopHostMs, offRps, devices,
                      (unsigned long long)on.requests,
                      on.loopHostMs, onRps, devices, speedup);
        mcsv += line;

        if (devices >= 256 && speedup < 5.0) {
            std::printf("FAIL: memo speedup %.2fx at %u devices "
                        "(expected >= 5x)\n",
                        speedup, devices);
            ok = false;
        }
    }
    std::printf("%s\n%s", mt.render().c_str(), mcsv.c_str());

    if (!ok)
        return 1;
    std::printf("OK: outcomes bit-identical across engines and "
                "memo modes; >=10x event sim-throughput at 64+ "
                "devices; >=5x memo sim-throughput at 256\n");
    return 0;
}
