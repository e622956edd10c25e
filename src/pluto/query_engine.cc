#include "pluto/query_engine.hh"

#include "common/bitvec.hh"
#include "common/logging.hh"

namespace pluto::core
{

QueryEngine::QueryEngine(dram::Module &mod, dram::CommandScheduler &sched,
                         ops::InDramOps &ops, LutStore &store, Design design,
                         ScratchArena *arena)
    : mod_(mod), sched_(sched), ops_(ops), store_(store), design_(design),
      traits_(DesignTraits::of(design)), arena_(arena ? *arena : own_)
{
}

const bulk::LutGather &
QueryEngine::gatherFor(const LutPlacement &p)
{
    const auto it = gather_.find(&p);
    if (it != gather_.end())
        return it->second;
    return gather_
        .emplace(&p, bulk::LutGather(p.lut.values(), p.lut.elemBits(),
                                     p.lut.name()))
        .first->second;
}

void
QueryEngine::chargeSweep(LutPlacement &p, u32 parallel)
{
    const auto &t = sched_.timing();
    const auto &e = sched_.energyParams();
    const u32 n = p.rowsPerPartition;
    const u32 lanes = p.partitionCount() * parallel;

    if (traits_.reloadPerQuery || !p.loaded) {
        // GSA destroyed the resident LUT (or it was never loaded):
        // restore it from the in-DRAM master copy, one LISA-RBM row
        // copy per LUT row per lane (Table 1: LISA_RBM x N).
        sched_.op("pluto.lut_reload", t.lisaRbm * n, e.eLisa * n, n,
                  lanes);
        // Cold reloads (non-GSA designs hitting an unloaded LUT) are
        // worth distinguishing from GSA's every-query restores.
        if (!traits_.reloadPerQuery)
            sched_.stats().inc("pluto.lut_reload.cold");
        if (p.materialized)
            store_.restore(p);
        p.loaded = true;
        ++p.loadCount;
    }

    switch (design_) {
      case Design::Bsa:
        // Full ACT + PRE per swept LUT row.
        sched_.sweep("pluto.sweep", n, t.tRCD + t.tRP, e.eAct + e.ePre,
                     lanes);
        break;
      case Design::Gsa:
        // Charge-sharing-only activations; one final PRE. Unmatched
        // cells are never restored: the sweep destroys the LUT.
        sched_.sweep("pluto.sweep", n, t.tRCD, e.eAct, lanes, t.tRP,
                     e.ePre);
        p.loaded = false;
        break;
      case Design::Gmc:
        // Back-to-back activations; gated cells keep unmatched
        // bitlines precharged, discounting activation energy.
        sched_.sweep("pluto.sweep", n, t.tRCD,
                     e.eAct * e.gmcActDiscount, lanes, t.tRP, e.ePre);
        break;
    }

    // Move the query result (FF buffer / gated row buffer) into the
    // destination subarray's row buffer with one LISA-RBM operation.
    sched_.op("pluto.result_move", t.lisaRbm, e.eLisa, 1, parallel);
    sched_.stats().add("pluto.queries", parallel);
}

void
QueryEngine::applyFunctional(LutPlacement &p, const dram::RowAddress &src,
                             const dram::RowAddress &dst)
{
    const u32 width = p.lut.elemBits();
    const bulk::LutGather &gather = gatherFor(p);
    // peekRow before rowAt: if src == dst and the row is untouched,
    // the peek must observe the all-zero image, not the fresh storage.
    const auto in = mod_.peekRow(src);
    auto out = mod_.rowAt(dst);
    const u64 slots = elementsPerBytes(in.size(), width);
    gather.apply(in, out, slots);
    sched_.stats().add("pluto.lookups", static_cast<double>(slots));
}

void
QueryEngine::query(LutPlacement &p, const dram::RowAddress &src,
                   const dram::RowAddress &dst)
{
    queryWave(p, {{src, dst}});
}

void
QueryEngine::queryWave(LutPlacement &p, const std::vector<QueryPair> &pairs)
{
    if (pairs.empty())
        return;
    for (const auto &[src, dst] : pairs)
        applyFunctional(p, src, dst);
    chargeSweep(p, static_cast<u32>(pairs.size()));
    if (traits_.destructiveReads) {
        for (const auto &sa : p.partitions) {
            auto &sub = mod_.subarrayAt(sa);
            for (u32 r = 0; r < p.rowsPerPartition; ++r)
                sub.destroyRow(p.baseRow + r);
        }
    }
}

void
QueryEngine::queryTimedOnly(LutPlacement &p, u32 parallel)
{
    PLUTO_ASSERT(parallel >= 1);
    chargeSweep(p, parallel);
    if (traits_.destructiveReads)
        p.loaded = false;
}

void
QueryEngine::queryTimedOnlyBatch(LutPlacement &p, u32 parallel, u64 count)
{
    PLUTO_ASSERT(parallel >= 1);
    if (count == 0)
        return;

    u64 reps = count;
    if (!traits_.reloadPerQuery && !p.loaded) {
        // Cold first query pays the one-time LUT load; the remaining
        // repetitions are then homogeneous.
        queryTimedOnly(p, parallel);
        if (--reps == 0)
            return;
    }

    const auto &t = sched_.timing();
    const auto &e = sched_.energyParams();
    const u32 n = p.rowsPerPartition;
    const u32 lanes = p.partitionCount() * parallel;

    // Mirror chargeSweep()'s per-query command group: [reload,] sweep,
    // result move — submitted once as a burst.
    std::vector<dram::BurstStep> steps;
    if (traits_.reloadPerQuery) {
        dram::BurstStep reload;
        reload.stat = "pluto.lut_reload";
        reload.latency = t.lisaRbm * n;
        reload.energy = e.eLisa * n;
        reload.numActs = n;
        reload.parallel = lanes;
        steps.push_back(reload);
    }
    dram::BurstStep sweep;
    sweep.stat = "pluto.sweep";
    sweep.isSweep = true;
    sweep.rows = n;
    sweep.parallel = lanes;
    switch (design_) {
      case Design::Bsa:
        sweep.latency = t.tRCD + t.tRP;
        sweep.energy = e.eAct + e.ePre;
        break;
      case Design::Gsa:
        sweep.latency = t.tRCD;
        sweep.energy = e.eAct;
        sweep.tailLatency = t.tRP;
        sweep.tailEnergy = e.ePre;
        break;
      case Design::Gmc:
        sweep.latency = t.tRCD;
        sweep.energy = e.eAct * e.gmcActDiscount;
        sweep.tailLatency = t.tRP;
        sweep.tailEnergy = e.ePre;
        break;
    }
    steps.push_back(sweep);
    dram::BurstStep move;
    move.stat = "pluto.result_move";
    move.latency = t.lisaRbm;
    move.energy = e.eLisa;
    move.numActs = 1;
    move.parallel = parallel;
    steps.push_back(move);

    sched_.burst(steps, reps);
    sched_.stats().add("pluto.queries",
                       static_cast<double>(parallel) * reps);
    if (traits_.reloadPerQuery) {
        p.loadCount += reps;
        if (p.materialized)
            store_.restore(p); // idempotent; once for the batch
        p.loaded = true;
    }
    if (traits_.destructiveReads)
        p.loaded = false;
}

void
QueryEngine::queryStacked(const std::vector<LutPlacement *> &luts,
                          const dram::RowAddress &src,
                          const dram::RowAddress &dst, u32 parallel)
{
    if (luts.empty())
        return;
    const u32 width = luts.front()->lut.elemBits();
    const auto sa = luts.front()->partitions.at(0);
    RowIndex first = luts.front()->baseRow;
    RowIndex last = first;
    for (const auto *p : luts) {
        if (p->partitionCount() != 1)
            fatal("queryStacked: LUT '%s' is partitioned",
                  p->lut.name().c_str());
        if (p->partitions[0] != sa)
            fatal("queryStacked: LUT '%s' lives in a different "
                  "subarray", p->lut.name().c_str());
        if (p->lut.elemBits() != width)
            fatal("queryStacked: LUT '%s' width %u != %u",
                  p->lut.name().c_str(), p->lut.elemBits(), width);
        first = std::min(first, p->baseRow);
        last = std::max<RowIndex>(
            last, p->baseRow + static_cast<RowIndex>(p->lut.size()));
    }

    if (last > (1ull << std::min<u32>(width, 63)))
        fatal("queryStacked: stacked region ends at row %u, beyond "
              "the %u-bit index range", last, width);

    // Functional: a slot's index is an absolute row of the stacked
    // region (i.e. already offset by its target LUT's base row); the
    // owning LUT is the one whose [base, base+size) contains it. The
    // stacked set varies per call, so this path stays scalar; it is
    // not on the campaign hot loops.
    const auto in = mod_.peekRow(src);
    auto out = mod_.rowAt(dst);
    ConstElementView iv(in, width);
    ElementView ov(out, width);
    for (u64 s = 0; s < iv.size(); ++s) {
        const u64 v = iv.get(s);
        const LutPlacement *owner = nullptr;
        for (const auto *p : luts) {
            if (v >= p->baseRow && v < p->baseRow + p->lut.size()) {
                owner = p;
                break;
            }
        }
        if (!owner)
            panic("queryStacked: slot %llu index %llu hits no LUT",
                  static_cast<unsigned long long>(s),
                  static_cast<unsigned long long>(v));
        ov.set(s, owner->lut.at(v - owner->baseRow));
    }

    // Timing: one sweep over the whole stacked region.
    const u32 rows = last - first;
    const auto &t = sched_.timing();
    const auto &e = sched_.energyParams();
    switch (design_) {
      case Design::Bsa:
        sched_.sweep("pluto.sweep_stacked", rows, t.tRCD + t.tRP,
                     e.eAct + e.ePre, parallel);
        break;
      case Design::Gsa:
        sched_.sweep("pluto.sweep_stacked", rows, t.tRCD, e.eAct,
                     parallel, t.tRP, e.ePre);
        break;
      case Design::Gmc:
        sched_.sweep("pluto.sweep_stacked", rows, t.tRCD,
                     e.eAct * e.gmcActDiscount, parallel, t.tRP,
                     e.ePre);
        break;
    }
    sched_.op("pluto.result_move", t.lisaRbm, e.eLisa, 1, parallel);
    sched_.stats().add("pluto.queries", parallel);
    if (traits_.destructiveReads) {
        auto &sub = mod_.subarrayAt(sa);
        for (RowIndex r = first; r < last; ++r)
            sub.destroyRow(r);
        for (auto *p : luts)
            p->loaded = false;
    }
}

void
QueryEngine::queryViaSweep(LutPlacement &p, const dram::RowAddress &src,
                           const dram::RowAddress &dst)
{
    const auto &geom = mod_.geometry();
    const u32 width = p.lut.elemBits();

    if (!p.loaded)
        panic("LUT '%s': sweep over a destroyed LUT", p.lut.name().c_str());
    if (!p.materialized)
        panic("LUT '%s': sweep emulation needs a materialized row "
              "image (LUT exceeds materializeLimitBytes)",
              p.lut.name().c_str());

    const auto in = mod_.peekRow(src);
    // The FF buffer (BSA) / gated row buffer (GSA, GMC) accumulates
    // matched elements over the sweep, starting from all-zero
    // (precharged) state.
    auto ff = arena_.bytes(ScratchArena::SweepFf, geom.rowBytes);
    std::fill(ff.begin(), ff.end(), 0);

    for (u32 part = 0; part < p.partitionCount(); ++part) {
        auto &sub = mod_.subarrayAt(p.partitions[part]);
        for (u32 r = 0; r < p.rowsPerPartition; ++r) {
            const u64 global =
                static_cast<u64>(part) * p.rowsPerPartition + r;
            // Activate LUT row `global`: its element appears,
            // replicated, in the pLUTo-enabled row buffer. The Match
            // Logic compares every source slot against the activated
            // row's index and latches matching slots — one
            // word-parallel select over the packed row.
            const auto lut_row = mod_.peekRow(
                p.partitions[part].rowAt(p.baseRow + r));
            bulk::bulkMatchSelect(in, lut_row, ff, width, global);
            if (traits_.destructiveReads)
                sub.destroyRow(p.baseRow + r);
        }
    }

    mod_.writeRow(dst, ff);
    if (traits_.destructiveReads)
        p.loaded = false;
}

} // namespace pluto::core
