/**
 * @file
 * MetricsSink: renders a ScenarioReport as a per-run CSV table and an
 * aggregated JSON summary (mean timing/energy and baseline speedups
 * per variant x workload, geomean speedups per variant), and writes
 * both under the scenario's output directory.
 */

#ifndef PLUTO_SIM_METRICS_HH
#define PLUTO_SIM_METRICS_HH

#include <string>
#include <vector>

#include "sim/runner.hh"

namespace pluto::sim
{

/**
 * Mean-aggregated repeats of one (variant, workload, elements) cell.
 * The same workload may appear at several sizes; each size is its own
 * cell.
 */
struct CellSummary
{
    std::string variant;
    std::string workload;
    u64 elements = 0;
    /** Input-generation seed of the folded runs. */
    u64 seed = 0;
    /** Runs folded into this cell. */
    u64 runs = 0;
    /** Every folded run passed functional verification. */
    bool verified = false;
    double meanTimeNs = 0.0;
    double meanEnergyPj = 0.0;
    double nsPerElem = 0.0;
    double pjPerElem = 0.0;
    /** Total host wall-clock of the folded runs, milliseconds. */
    double wallMs = 0.0;
    /** Host baseline rates of the cell's workload. */
    workloads::BaselineRates rates;
};

/** Output writer for one scenario's results. */
class MetricsSink
{
  public:
    /**
     * Fold repeats into per-cell means, preserving first-appearance
     * order. Shared by the JSON summary and the CLI table.
     */
    static std::vector<CellSummary>
    aggregate(const ScenarioReport &report);

    /** @return the per-run CSV document. */
    static std::string renderCsv(const SimConfig &cfg,
                                 const ScenarioReport &report);

    /** @return the JSON summary document. */
    static std::string renderJson(const SimConfig &cfg,
                                  const ScenarioReport &report);

    /**
     * Write `<outDir>/<name><suffix>_runs.csv` and
     * `<outDir>/<name><suffix>_summary.json` (`suffix` distinguishes
     * shard outputs, e.g. ".shard0of3"). On success @return empty
     * string and append the two paths to `written`; else @return an
     * error description.
     */
    static std::string write(const SimConfig &cfg,
                             const ScenarioReport &report,
                             std::vector<std::string> &written,
                             const std::string &suffix = {});
};

} // namespace pluto::sim

#endif // PLUTO_SIM_METRICS_HH
