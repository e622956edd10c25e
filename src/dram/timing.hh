/**
 * @file
 * DRAM timing parameter sets.
 *
 * Two presets mirror the paper's evaluated configurations (Table 3):
 *  - DDR4-2400, 17-17-17 (tRCD = tRP = tCL = 14.16 ns), 8 kB rows,
 *    512 rows per subarray, 16-subarray default parallelism;
 *  - HMC-style 3D-stacked ("3DS") memory with 256 B rows, 512-subarray
 *    default parallelism, and ~38% faster activations (Section 8.2).
 *
 * Derived latencies for the enhanced-DRAM substrate operations
 * (RowClone-FPM, LISA-RBM, Ambit AAP/TRA, DRISA shifts) are computed
 * from these primitives; see ops/costs.hh.
 */

#ifndef PLUTO_DRAM_TIMING_HH
#define PLUTO_DRAM_TIMING_HH

#include <string>

#include "common/types.hh"
#include "common/units.hh"

namespace pluto::dram
{

/** Memory technology family. */
enum class MemoryKind
{
    Ddr4,
    Hmc3ds,
};

/** @return short display name ("DDR4" / "3DS"). */
const char *memoryKindName(MemoryKind kind);

/** Core DRAM timing constants, all in nanoseconds. */
struct TimingParams
{
    std::string name;
    MemoryKind kind = MemoryKind::Ddr4;

    /** Clock period. */
    TimeNs tCK = 0.0;
    /** ACT-to-column command delay (sense completion). */
    TimeNs tRCD = 0.0;
    /** Precharge latency. */
    TimeNs tRP = 0.0;
    /** Minimum row-open time (ACT to PRE). */
    TimeNs tRAS = 0.0;
    /** CAS latency. */
    TimeNs tCL = 0.0;
    /**
     * Four-activation window: at most 4 ACTs may issue per rank within
     * any tFAW span. The paper models 13.328 ns as the nominal value
     * (Section 8.7) and evaluates pLUTo with tFAW = 0 (unthrottled,
     * Table 3) unless stated otherwise.
     */
    TimeNs tFAW = 0.0;
    /**
     * Latency of a LISA-RBM row-buffer-movement copy of one full row
     * between neighboring subarrays (activation + linked-bitline
     * transfer + restore). Calibrated to 3x tRCD so that the
     * pLUTo-GSA : pLUTo-BSA slowdown matches the paper's ~2x
     * (Figure 7).
     */
    TimeNs lisaRbm = 0.0;
    /** Average refresh interval (per-rank REF cadence). */
    TimeNs tREFI = 0.0;
    /** Refresh cycle time (bank unavailable during REF). */
    TimeNs tRFC = 0.0;

    /**
     * Fraction of time lost to refresh when refresh modeling is
     * enabled: commands stretch by 1 / (1 - tRFC/tREFI).
     */
    double
    refreshStretch() const
    {
        if (tREFI <= 0.0 || tRFC <= 0.0 || tRFC >= tREFI)
            return 1.0;
        return 1.0 / (1.0 - tRFC / tREFI);
    }

    /** DDR4-2400 17-17-17 preset (Table 3). */
    static TimingParams ddr4_2400();
    /** HMC-style 3D-stacked preset. */
    static TimingParams hmc3ds();

    /** Preset lookup by kind. */
    static TimingParams forKind(MemoryKind kind);
};

/** Per-command DRAM energies, in picojoules. */
struct EnergyParams
{
    /** Energy of one row activation (charge sharing + sensing). */
    EnergyPj eAct = 0.0;
    /** Energy of one precharge. */
    EnergyPj ePre = 0.0;
    /** Energy of one LISA-RBM full-row copy. */
    EnergyPj eLisa = 0.0;
    /** Per-byte energy of moving data over the channel (RD/WR I/O). */
    EnergyPj eIoPerByte = 0.0;
    /**
     * Activation-energy discount for pLUTo-GMC sweeps: in GMC only
     * matched bitlines share charge and enable their sense amplifiers
     * (Section 5.3.1), so a sweep activation moves less charge than a
     * full-row activation. Calibrated so the BSA:GMC energy ratio
     * matches the paper's ~1.66x (Figure 10).
     */
    double gmcActDiscount = 1.0;
    /**
     * Device background power (peripherals, refresh, the pLUTo
     * controller) charged over a workload's elapsed time in addition
     * to per-command energy. DDR4 is calibrated so pLUTo-BSA's total
     * power lands near Table 6's 11 W; the 3DS/HMC substrate is
     * notoriously power-hungry (logic layer + TSVs), which is why the
     * paper's 3DS energy savings are ~8x smaller than DDR4's
     * (Section 8.3).
     */
    PowerW backgroundPower = 0.0;

    /** DDR4 preset (CACTI-7-anchored magnitudes). */
    static EnergyParams ddr4();
    /** 3DS preset (rows are 32x smaller than DDR4's). */
    static EnergyParams hmc3ds();

    /** Preset lookup by kind. */
    static EnergyParams forKind(MemoryKind kind);
};

} // namespace pluto::dram

#endif // PLUTO_DRAM_TIMING_HH
