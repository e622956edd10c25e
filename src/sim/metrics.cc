/**
 * @file
 * CSV/JSON rendering of scenario results (see metrics.hh).
 */

#include "sim/metrics.hh"

#include <map>
#include <tuple>

#include "campaign/columns.hh"
#include "common/stats.hh"

namespace pluto::sim
{

namespace
{

using campaign::Column;
using workloads::BaselineRates;

/** Speedup of a simulated rate vs a host baseline rate. */
double
speedup(double baseline_ns_per_elem, double ns_per_elem)
{
    return ns_per_elem > 0.0 ? baseline_ns_per_elem / ns_per_elem
                             : 0.0;
}

/** One per-run CSV row. */
struct RunRow
{
    const SimConfig &cfg;
    const RunRecord &r;
    /** Named as in CellSummary, for kSpeedupColumns. */
    const BaselineRates &rates;
    double nsPerElem;
};

/** @return the getter of the speedup over host baseline `host` of a
 *  RunRow or CellSummary. */
auto
speedupOver(double BaselineRates::*host)
{
    return [host](const auto &v) {
        return speedup(v.rates.*host, v.nsPerElem);
    };
}

const auto kSpeedupColumns = campaign::columns(
    Column{"speedup.cpu", speedupOver(&BaselineRates::cpu), "%.4f"},
    Column{"speedup.gpu", speedupOver(&BaselineRates::gpu), "%.4f"},
    Column{"speedup.fpga", speedupOver(&BaselineRates::fpga), "%.4f"},
    Column{"speedup.pnm", speedupOver(&BaselineRates::pnm), "%.4f"});

/** The per-run CSV, over RunRow. */
const auto kRunColumns = campaign::columns(
    Column{"scenario", [](auto &v) { return v.cfg.name; }},
    Column{"variant", [](auto &v) { return v.r.variant; }},
    Column{"workload", [](auto &v) { return v.r.workload; }},
    Column{"repeat", [](auto &v) { return v.r.repeat; }},
    Column{"seed", [](auto &v) { return v.r.seed; }},
    Column{"elements", [](auto &v) { return v.r.result.elements; }},
    Column{"time_ns", [](auto &v) { return v.r.result.timeNs; }, "%.6f"},
    Column{"ns_per_elem", &RunRow::nsPerElem, "%.9f"},
    Column{"energy_pj", [](auto &v) { return v.r.result.energyPj; },
           "%.6f"},
    Column{"pj_per_elem", [](auto &v) { return v.r.result.pjPerElem(); },
           "%.9f"},
    Column{"host_ns", [](auto &v) { return v.r.result.hostNs; }, "%.6f"},
    Column{"verified", [](auto &v) { return v.r.result.verified; }},
    kSpeedupColumns,
    Column{"wall_ms", [](auto &v) { return v.r.wallMs; }, "%.3f"});

/** A summary JSON result: one (variant, workload, elements) cell. */
const auto kCellColumns = campaign::columns(
    Column{"variant", &CellSummary::variant},
    Column{"workload", &CellSummary::workload},
    Column{"runs", &CellSummary::runs},
    Column{"elements", &CellSummary::elements},
    Column{"seed", &CellSummary::seed},
    Column{"verified", &CellSummary::verified},
    Column{"mean_time_ns", &CellSummary::meanTimeNs},
    Column{"ns_per_elem", &CellSummary::nsPerElem},
    Column{"mean_energy_pj", &CellSummary::meanEnergyPj},
    Column{"pj_per_elem", &CellSummary::pjPerElem},
    Column{"wall_ms", &CellSummary::wallMs}, kSpeedupColumns);

} // namespace

std::string
MetricsSink::renderCsv(const SimConfig &cfg,
                       const ScenarioReport &report)
{
    std::string csv = campaign::csvHeader(kRunColumns);
    for (const auto &r : report.runs)
        campaign::csvLine(csv, kRunColumns,
                          RunRow{cfg, r, r.rates, r.result.nsPerElem()});
    return csv;
}

std::vector<CellSummary>
MetricsSink::aggregate(const ScenarioReport &report)
{
    using CellKey = std::tuple<std::string, std::string, u64, u64>;
    std::vector<CellKey> order;
    std::map<CellKey, CellSummary> cells;
    for (const auto &r : report.runs) {
        const auto key = CellKey(r.variant, r.workload,
                                 r.result.elements, r.seed);
        auto [it, inserted] = cells.try_emplace(key);
        CellSummary &c = it->second;
        if (inserted) {
            order.push_back(key);
            c.variant = r.variant;
            c.workload = r.workload;
            c.elements = r.result.elements;
            c.seed = r.seed;
            c.verified = true;
            c.rates = r.rates;
        }
        ++c.runs;
        c.verified = c.verified && r.result.verified;
        c.meanTimeNs += r.result.timeNs;
        c.meanEnergyPj += r.result.energyPj;
        c.wallMs += r.wallMs;
    }

    std::vector<CellSummary> out;
    out.reserve(order.size());
    for (const auto &key : order) {
        CellSummary c = cells.at(key);
        const double n = static_cast<double>(c.runs);
        c.meanTimeNs /= n;
        c.meanEnergyPj /= n;
        if (c.elements) {
            c.nsPerElem =
                c.meanTimeNs / static_cast<double>(c.elements);
            c.pjPerElem =
                c.meanEnergyPj / static_cast<double>(c.elements);
        }
        out.push_back(std::move(c));
    }
    return out;
}

std::string
MetricsSink::renderJson(const SimConfig &cfg,
                        const ScenarioReport &report)
{
    JsonValue root = JsonValue::object();
    root.set("scenario", cfg.name);
    root.set("total_runs",
             static_cast<unsigned long long>(report.runs.size()));
    root.set("all_verified", report.allVerified());
    root.set("wall_ms", report.wallMs);

    JsonValue &results = root.set("results", JsonValue::array());
    std::map<std::string, std::vector<double>> cpuSpeedups;
    for (const CellSummary &c : aggregate(report)) {
        campaign::setJson(results.push(JsonValue::object()),
                          kCellColumns, c);
        cpuSpeedups[c.variant].push_back(
            speedup(c.rates.cpu, c.nsPerElem));
    }

    JsonValue &variants = root.set("variants", JsonValue::array());
    for (const auto &d : cfg.devices) {
        JsonValue &row = variants.push(JsonValue::object());
        row.set("name", d.name);
        row.set("design", core::designName(d.config.design));
        row.set("memory", dram::memoryKindName(d.config.memory));
        row.set("salp", static_cast<unsigned long long>(
                            d.config.effectiveSalp()));
        row.set("faw", d.config.fawScale);
        const auto it = cpuSpeedups.find(d.name);
        row.set("geomean_speedup_cpu",
                it != cpuSpeedups.end() ? geomean(it->second) : 0.0);
    }
    return root.dump();
}

std::string
MetricsSink::write(const SimConfig &cfg, const ScenarioReport &report,
                   std::vector<std::string> &written,
                   const std::string &suffix)
{
    return campaign::writeOutputs(cfg.outDir + "/" + cfg.name + suffix,
                                  renderCsv(cfg, report),
                                  renderJson(cfg, report), written);
}

} // namespace pluto::sim
