/**
 * @file
 * Serving batch policies compared at fixed load: the four batching
 * disciplines (immediate / fixed-k / time-window / adaptive) serve
 * the same seeded open-loop arrival stream on the same device
 * configuration — one with SALP headroom (8 gangs of 16 lanes), so
 * batching genuinely buys capacity via lock-step wave sharing.
 *
 * Exit-code-enforced invariants:
 *  1. every policy completes the identical request count (the
 *     arrival stream is policy-independent);
 *  2. re-running a policy reproduces its outcome bit for bit
 *     (the serving simulation is deterministic);
 *  3. at saturating load, the adaptive batcher's throughput is at
 *     least the immediate server's (wave sharing cannot hurt
 *     capacity), and it forms real batches (mean batch > 1).
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
service(sim::BatchPolicyKind policy)
{
    sim::ServiceSpec svc;
    svc.name = sim::batchPolicyName(policy);
    svc.policy = policy;
    svc.ratePerSec = 600000.0; // far past immediate capacity
    svc.durationMs = 10.0;
    svc.batch = 8;
    svc.windowMs = 0.02;
    svc.devices = 1;
    svc.lanes = 16;
    svc.seed = 42;
    return svc;
}

std::vector<serve::RequestClass>
mix()
{
    serve::RequestClass c;
    c.workload = "ColorGrade";
    c.elements = 4096;
    c.tenant = 0;
    c.weight = 1.0;
    return {c};
}

serve::ServiceOutcome
runPolicy(sim::BatchPolicyKind policy)
{
    const serve::ServeSimulator sim(variant(), service(policy),
                                    mix());
    return sim.run();
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

} // namespace

int
main()
{
    section("Serving batch policies at fixed load "
            "(gmc, salp 128 = 8 gangs of 16 lanes, open loop far "
            "past the immediate-server knee)");

    const sim::BatchPolicyKind kinds[] = {
        sim::BatchPolicyKind::Immediate,
        sim::BatchPolicyKind::FixedSize,
        sim::BatchPolicyKind::TimeWindow,
        sim::BatchPolicyKind::Adaptive,
    };

    AsciiTable t({"policy", "req", "batches", "mean batch",
                  "req/s", "p50 ms", "p99 ms", "makespan ms"});
    std::vector<serve::ServiceOutcome> outs;
    for (const auto kind : kinds) {
        const auto out = runPolicy(kind);
        t.addRow({sim::batchPolicyName(kind),
                  std::to_string(out.requests),
                  std::to_string(out.batches),
                  fmtSig(out.meanBatch, 3),
                  fmtSig(out.throughputRps),
                  fmtSig(out.p50Ms), fmtSig(out.p99Ms),
                  fmtSig(out.makespanMs)});
        outs.push_back(out);
    }
    std::printf("%s\n", t.render().c_str());

    const auto &immediate = outs[0];
    const auto &adaptive = outs[3];

    bool ok = true;
    for (std::size_t i = 1; i < outs.size(); ++i)
        if (outs[i].requests != outs[0].requests) {
            std::fprintf(stderr,
                         "FAIL: %s completed %llu requests, "
                         "immediate %llu (arrival stream must be "
                         "policy-independent)\n",
                         sim::batchPolicyName(kinds[i]),
                         static_cast<unsigned long long>(
                             outs[i].requests),
                         static_cast<unsigned long long>(
                             outs[0].requests));
            ok = false;
        }

    const auto replay = runPolicy(sim::BatchPolicyKind::Adaptive);
    if (!sameOutcome(replay, adaptive)) {
        std::fprintf(stderr, "FAIL: adaptive outcome not "
                             "reproducible bit for bit\n");
        ok = false;
    }

    if (adaptive.throughputRps < immediate.throughputRps) {
        std::fprintf(stderr,
                     "FAIL: adaptive throughput %.0f req/s below "
                     "immediate %.0f req/s at saturating load\n",
                     adaptive.throughputRps,
                     immediate.throughputRps);
        ok = false;
    }
    if (adaptive.meanBatch <= 1.0) {
        std::fprintf(stderr,
                     "FAIL: adaptive formed no real batches "
                     "(mean batch %.3f)\n",
                     adaptive.meanBatch);
        ok = false;
    }

    std::printf("adaptive vs immediate capacity: %s\n",
                fmtX(adaptive.throughputRps /
                     immediate.throughputRps)
                    .c_str());
    if (!ok)
        return 1;
    std::printf("all invariants hold\n");
    return 0;
}
