/**
 * @file
 * Scenario-file parser (see config.hh).
 *
 * Every section kind declares one key table: a tuple of rows, each
 * naming an INI key, the member it sets, the rule its value text must
 * meet, the hint of its "bad KEY 'V' (HINT)" diagnostic, and whether
 * a `sweep KEY = ...` line may grid it. One set-or-sweep function and
 * one grid expansion serve every section, and the [service] and [nn]
 * tables also spell their cells' cache keys (keyDescriptor), so those
 * tables' row order is cache-key byte order. A new key is one row.
 */

#include "sim/config.hh"

#include <algorithm>
#include <array>
#include <cerrno>
#include <cmath>
#include <cstdlib>
#include <fstream>
#include <limits>
#include <sstream>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <utility>

#include "common/digest.hh"
#include "workloads/workload.hh"

namespace pluto::sim
{

namespace
{

/** Strip comments and surrounding whitespace. */
std::string
cleanLine(const std::string &raw)
{
    std::string s = raw;
    const auto hash = s.find_first_of("#;");
    if (hash != std::string::npos)
        s.erase(hash);
    const auto b = s.find_first_not_of(" \t\r");
    if (b == std::string::npos)
        return {};
    const auto e = s.find_last_not_of(" \t\r");
    return s.substr(b, e - b + 1);
}

bool
parseU64(const std::string &s, u64 &out)
{
    // Digits only: strtoull would silently wrap "-1" to ULLONG_MAX.
    if (s.empty() ||
        s.find_first_not_of("0123456789") != std::string::npos)
        return false;
    errno = 0;
    char *end = nullptr;
    const unsigned long long v = std::strtoull(s.c_str(), &end, 10);
    if (end != s.c_str() + s.size() || errno == ERANGE)
        return false;
    out = v;
    return true;
}

bool
parseDouble(const std::string &s, double &out)
{
    if (s.empty())
        return false;
    char *end = nullptr;
    const double v = std::strtod(s.c_str(), &end);
    // Non-finite values (strtod accepts "inf"/"nan") are never valid
    // config inputs: an infinite rate or weight hangs the serving
    // simulation instead of failing with a diagnostic.
    if (end != s.c_str() + s.size() || !std::isfinite(v))
        return false;
    out = v;
    return true;
}

// ---- Value rules: how a key's text parses into its member ----

/** Any text (names and paths). */
struct Text
{
};

/** An unsigned integer of at least `min` that fits the member. */
struct Count
{
    u64 min;
};

/** A finite double in a range whose ends are open or closed. */
struct Real
{
    double lo;
    bool loOpen;
    double hi;
    bool hiOpen;
};

constexpr double kInf = std::numeric_limits<double>::infinity();

/** @return the rule `v > lo`. */
constexpr Real
above(double lo)
{
    return {lo, true, kInf, false};
}

/** @return the rule `v >= lo`. */
constexpr Real
atLeast(double lo)
{
    return {lo, false, kInf, false};
}

/**
 * One of a list of (spelling, value) pairs. A value may have several
 * spellings (aliases); its first one names it.
 */
template <typename M, std::size_t N>
struct OneOf
{
    std::array<std::pair<const char *, M>, N> items;
};

/** @return a OneOf rule over member type M. */
template <typename M, std::size_t N>
constexpr OneOf<M, N>
oneOf(const std::pair<const char *, M> (&items)[N])
{
    return {std::to_array(items)};
}

/** Parse `text` by `rule` into `out`, which is left alone on failure. */
bool
parse(const Text &, const std::string &text, std::string &out)
{
    out = text;
    return true;
}

template <typename M>
bool
parse(const Count &rule, const std::string &text, M &out)
{
    u64 v = 0;
    if (!parseU64(text, v) || v < rule.min ||
        static_cast<M>(v) != v)
        return false;
    out = static_cast<M>(v);
    return true;
}

bool
parse(const Real &rule, const std::string &text, double &out)
{
    double v = 0.0;
    if (!parseDouble(text, v) || (rule.loOpen ? v <= rule.lo : v < rule.lo) ||
        (rule.hiOpen ? v >= rule.hi : v > rule.hi))
        return false;
    out = v;
    return true;
}

template <typename M, std::size_t N>
bool
parse(const OneOf<M, N> &rule, const std::string &text, M &out)
{
    // An integer member matches by value, so "04" reads as 4.
    u64 n = 0;
    const bool numeric = std::is_integral_v<M> &&
                         !std::is_same_v<M, bool> &&
                         parseU64(text, n);
    for (const auto &[spelling, v] : rule.items) {
        if (numeric ? n == static_cast<u64>(v) : text == spelling) {
            out = v;
            return true;
        }
    }
    return false;
}

/** @return the name of `v` under `rule`, or nullptr if it has none. */
template <typename Rule, typename M>
const char *
spell(const Rule &, M)
{
    return nullptr;
}

template <typename M, std::size_t N>
const char *
spell(const OneOf<M, N> &rule, M v)
{
    for (const auto &[spelling, value] : rule.items)
        if (value == v)
            return spelling;
    return nullptr;
}

// ---- Key tables ----

/** One row of a key table (see the file comment). */
template <typename Class, typename M, typename Rule>
struct Key
{
    std::string_view name;
    M Class::*member;
    Rule rule;
    /** Parenthesised part of the "bad KEY 'V' (HINT)" diagnostic. */
    const char *hint;
    bool sweepable;
};

constexpr bool kSweep = true;
constexpr bool kFixed = false;

/** on | true | 1, or off | false | 0. */
constexpr auto kOnOff =
    oneOf<bool>({{"on", true}, {"true", true}, {"1", true},
                 {"off", false}, {"false", false}, {"0", false}});

/** The key table of one section kind. */
template <typename Rows>
struct KeyTable
{
    /** Section word: "[WORD]", "unknown WORD key". */
    const char *word;
    /** Noun of one expanded cell in diagnostics ("nn cell"). */
    const char *cell;
    /** Expanded cells get `/key=value` name suffixes and must be
     *  uniquely named. */
    bool named;
    Rows rows;
};

using dram::MemoryKind;
using core::Design;
using core::LutLoadMethod;
using runtime::DeviceConfig;

constexpr KeyTable kScenarioKeys{
    "scenario", "scenario", false,
    std::make_tuple(
        Key{"name", &SimConfig::name, Text{}, "", kFixed},
        Key{"out_dir", &SimConfig::outDir, Text{}, "", kFixed},
        Key{"repeats", &SimConfig::repeats, Count{1}, "integer >= 1",
            kFixed})};

constexpr KeyTable kDeviceKeys{
    "device", "variant", true,
    std::make_tuple(
        Key{"memory", &DeviceConfig::memory,
            oneOf<MemoryKind>({{"ddr4", MemoryKind::Ddr4},
                               {"3ds", MemoryKind::Hmc3ds},
                               {"hmc3ds", MemoryKind::Hmc3ds}}),
            "ddr4 | 3ds", kSweep},
        Key{"design", &DeviceConfig::design,
            oneOf<Design>({{"bsa", Design::Bsa},
                           {"gsa", Design::Gsa},
                           {"gmc", Design::Gmc}}),
            "bsa | gsa | gmc", kSweep},
        Key{"salp", &DeviceConfig::salp, Count{0}, "unsigned integer",
            kSweep},
        Key{"faw", &DeviceConfig::fawScale, Real{0.0, false, 1.0, false},
            "0..1", kSweep},
        Key{"refresh", &DeviceConfig::modelRefresh, kOnOff, "on | off",
            kSweep},
        Key{"load_method", &DeviceConfig::loadMethod,
            oneOf<LutLoadMethod>(
                {{"generate", LutLoadMethod::FirstTimeGeneration},
                 {"memory", LutLoadMethod::FromMemory},
                 {"storage", LutLoadMethod::FromStorage}}),
            "generate | memory | storage", kSweep})};

constexpr KeyTable kWorkloadKeys{
    "workload", "workload", false,
    std::make_tuple(
        Key{"elements", &WorkloadSpec::elements, Count{1},
            "integer >= 1", kSweep},
        Key{"seed", &WorkloadSpec::seed, Count{0}, "unsigned integer",
            kSweep},
        Key{"repeats", &WorkloadSpec::repeats, Count{1},
            "integer >= 1", kFixed},
        Key{"tenant", &WorkloadSpec::tenant, Count{0},
            "unsigned integer", kFixed},
        Key{"weight", &WorkloadSpec::weight, above(0.0), "> 0", kFixed},
        Key{"slo_ms", &WorkloadSpec::sloMs, atLeast(0.0),
            "ms >= 0; 0 = service SLO", kFixed})};

/** Row order is ServiceCache::key's byte order. */
constexpr KeyTable kServiceKeys{
    "service", "service", true,
    std::make_tuple(
        Key{"mode", &ServiceSpec::closedLoop,
            oneOf<bool>({{"open", false}, {"closed", true}}),
            "open | closed", kSweep},
        Key{"arrivals", &ServiceSpec::uniformArrivals,
            oneOf<bool>({{"poisson", false}, {"uniform", true}}),
            "poisson | uniform", kSweep},
        Key{"rate", &ServiceSpec::ratePerSec, above(0.0),
            "requests/s > 0", kSweep},
        Key{"duration_ms", &ServiceSpec::durationMs, above(0.0),
            "ms > 0", kSweep},
        Key{"clients", &ServiceSpec::clients, Count{1}, "integer >= 1",
            kSweep},
        Key{"think_ms", &ServiceSpec::thinkMs, atLeast(0.0), "ms >= 0",
            kSweep},
        Key{"policy", &ServiceSpec::policy,
            oneOf<BatchPolicyKind>(
                {{"immediate", BatchPolicyKind::Immediate},
                 {"fixed", BatchPolicyKind::FixedSize},
                 {"window", BatchPolicyKind::TimeWindow},
                 {"adaptive", BatchPolicyKind::Adaptive}}),
            "immediate | fixed | window | adaptive", kSweep},
        Key{"batch", &ServiceSpec::batch, Count{1}, "integer >= 1",
            kSweep},
        Key{"window_ms", &ServiceSpec::windowMs, atLeast(0.0),
            "ms >= 0", kSweep},
        Key{"devices", &ServiceSpec::devices, Count{1}, "integer >= 1",
            kSweep},
        Key{"lanes", &ServiceSpec::lanes, Count{1}, "integer >= 1",
            kSweep},
        Key{"seed", &ServiceSpec::seed, Count{0}, "unsigned integer",
            kSweep},
        Key{"slo_ms", &ServiceSpec::sloMs, atLeast(0.0),
            "ms >= 0; 0 = off", kSweep},
        Key{"slo_target", &ServiceSpec::sloTarget,
            Real{0.0, true, 1.0, true}, "0 < q < 1", kSweep},
        Key{"tail_quantile", &ServiceSpec::tailQuantile,
            Real{0.0, true, 1.0, true}, "0 < q < 1", kSweep},
        Key{"timeseries_ms", &ServiceSpec::timeseriesMs, above(0.0),
            "ms > 0", kSweep},
        Key{"tenant_skew", &ServiceSpec::tenantSkew, atLeast(0.0),
            "Zipf exponent >= 0; 0 = uniform", kSweep},
        Key{"memo", &ServiceSpec::memo,
            oneOf<MemoMode>({{"on", MemoMode::On},
                             {"off", MemoMode::Off},
                             {"verify", MemoMode::Verify}}),
            "on | off | verify", kSweep})};

/** Row order is NnCache::key's byte order. */
constexpr KeyTable kNnKeys{
    "nn", "nn cell", true,
    std::make_tuple(
        Key{"bits", &NnSpec::bits, oneOf<u32>({{"1", 1}, {"4", 4}}),
            "1 | 4", kSweep},
        Key{"images", &NnSpec::images, Count{1}, "integer >= 1",
            kSweep},
        Key{"seed", &NnSpec::seed, Count{0}, "unsigned integer",
            kSweep})};

/** Call `fn(row)` for every row of `table`, in order. */
template <typename Rows, typename Fn>
void
forEachKey(const KeyTable<Rows> &table, Fn &&fn)
{
    std::apply([&](const auto &...row) { (fn(row), ...); }, table.rows);
}

/** Call `fn(row)` for the row named `name`. @return false if none. */
template <typename Rows, typename Fn>
bool
withKey(const KeyTable<Rows> &table, const std::string &name, Fn &&fn)
{
    return std::apply(
        [&](const auto &...row) {
            return ((name == row.name && (fn(row), true)) || ...);
        },
        table.rows);
}

/** @return the first name of enum value `v` in `table`, or "?". */
template <typename Rows, typename M>
const char *
spellingIn(const KeyTable<Rows> &table, M v)
{
    const char *out = nullptr;
    forEachKey(table, [&](const auto &row) {
        if (!out)
            out = spell(row.rule, v);
    });
    return out ? out : "?";
}

/** Parse `text` into `out` by `row`. @return error text or empty. */
template <typename Row, typename M>
std::string
assign(const Row &row, const std::string &text, M &out)
{
    if (parse(row.rule, text, out))
        return {};
    return "bad " + std::string(row.name) + " '" + text + "' (" +
           row.hint + ")";
}

/** @return the values of `spec`'s keys in `table` order, `sep`-joined. */
template <typename Rows, typename Spec>
std::string
describe(const KeyTable<Rows> &table, const Spec &spec, char sep)
{
    std::string out;
    bool first = true;
    forEachKey(table, [&](const auto &row) {
        const auto &v = spec.*row.member;
        using M = std::remove_cvref_t<decltype(v)>;
        if (!first)
            out += sep;
        first = false;
        if constexpr (std::is_enum_v<M>)
            out += spell(row.rule, v);
        else if constexpr (std::is_floating_point_v<M>)
            out += fmtDoubleExact(v);
        else
            out += std::to_string(v);
    });
    return out;
}

// ---- Drafts and grid expansion ----

/** One `sweep KEY = v1, v2, ...` line, kept until expansion. */
struct Sweep
{
    std::string key;
    std::vector<std::string> values;
    int lineno = 0;
};

/** A section before grid expansion. */
template <typename Spec>
struct Draft
{
    Spec spec;
    /** Keys plainly assigned in this section (a [variant]'s override
     *  inherited [device] sweeps). */
    std::vector<std::string> assigned;
    std::vector<Sweep> sweeps;
    int lineno = 0;
};

/** @return the object a section's key rows address within `spec`. */
template <typename Spec>
Spec &
fieldsOf(Spec &spec)
{
    return spec;
}

DeviceConfig &
fieldsOf(DeviceSpec &spec)
{
    return spec.config;
}

bool
contains(const std::vector<std::string> &v, const std::string &s)
{
    return std::find(v.begin(), v.end(), s) != v.end();
}

bool
sweepsKey(const std::vector<Sweep> &sweeps, const std::string &key)
{
    return std::any_of(sweeps.begin(), sweeps.end(),
                       [&](const Sweep &s) { return s.key == key; });
}

/**
 * Split a comma-separated sweep value list. @return error text or
 * empty; values are trimmed and non-empty on success.
 */
std::string
splitSweepValues(const std::string &text,
                 std::vector<std::string> &out)
{
    std::size_t start = 0;
    while (true) {
        const auto comma = text.find(',', start);
        const std::string raw =
            text.substr(start, comma == std::string::npos
                                   ? std::string::npos
                                   : comma - start);
        const auto b = raw.find_first_not_of(" \t");
        if (b == std::string::npos)
            return "empty value in sweep list";
        const auto e = raw.find_last_not_of(" \t");
        out.push_back(raw.substr(b, e - b + 1));
        if (comma == std::string::npos)
            return {};
        start = comma + 1;
    }
}

template <typename Rows>
std::string
unknownKey(const KeyTable<Rows> &table, const std::string &key)
{
    return "unknown " + std::string(table.word) + " key '" + key + "'";
}

/** @return why `table` refuses `sweep key = ...`, or empty. */
template <typename Rows>
std::string
sweepRefusal(const KeyTable<Rows> &table, const std::string &key)
{
    bool ok = false;
    if (withKey(table, key, [&](const auto &row) { ok = row.sweepable; }) &&
        ok)
        return {};
    std::string names;
    bool all = true;
    forEachKey(table, [&](const auto &row) {
        if (row.sweepable)
            names += (names.empty() ? "" : " | ") + std::string(row.name);
        all = all && row.sweepable;
    });
    const std::string word = table.word;
    if (names.empty())
        return "sweep is not allowed in [" + word + "]";
    if (all)
        return unknownKey(table, key);
    return "cannot sweep " + word + " key '" + key + "' (" + names + ")";
}

/**
 * Apply one `key = value` line, or with `sweep` one `sweep key = ...`
 * line (every grid value checked here, so a bad one fails on its own
 * line), to draft `d`. @return error text or empty.
 */
template <typename Rows, typename Spec>
std::string
setOrSweep(const KeyTable<Rows> &table, Draft<Spec> &d,
           const std::string &key, const std::string &value,
           std::optional<Sweep> sweep)
{
    const auto bothSetAndSwept = [&] {
        return "'" + key + "' is both set and swept in this section";
    };
    std::string err;
    if (!sweep) {
        if (sweepsKey(d.sweeps, key))
            return bothSetAndSwept();
        if (!withKey(table, key, [&](const auto &row) {
                err = assign(row, value, fieldsOf(d.spec).*row.member);
            }))
            return unknownKey(table, key);
        if (err.empty() && !contains(d.assigned, key))
            d.assigned.push_back(key);
        return err;
    }
    err = sweepRefusal(table, key);
    if (!err.empty())
        return err;
    if (sweepsKey(d.sweeps, key))
        return "duplicate sweep key '" + key + "'";
    if (contains(d.assigned, key))
        return bothSetAndSwept();
    withKey(table, key, [&](const auto &row) {
        for (const auto &v : sweep->values) {
            auto scratch = fieldsOf(d.spec).*row.member;
            err = assign(row, v, scratch);
            if (!err.empty())
                return;
        }
    });
    if (err.empty())
        d.sweeps.push_back(std::move(*sweep));
    return err;
}

/** @return "line N: msg". */
std::string
at(int lineno, const std::string &msg)
{
    return "line " + std::to_string(lineno) + ": " + msg;
}

/** Total combination count of a sweep list (0 on overflow). */
u64
gridSize(const std::vector<Sweep> &sweeps)
{
    u64 n = 1;
    for (const auto &s : sweeps) {
        if (s.values.size() > 4096 / n)
            return 0;
        n *= s.values.size();
    }
    return n;
}

/**
 * Append every cell of draft `d`'s grid to `out`, the first-declared
 * key varying slowest. @return a "line N: ..." diagnostic or empty.
 */
template <typename Rows, typename Spec>
std::string
expand(const KeyTable<Rows> &table, const Draft<Spec> &d,
       std::vector<Spec> &out)
{
    const std::string cell = table.cell;
    const u64 combos = gridSize(d.sweeps);
    if (combos == 0)
        return at(d.lineno, "sweep grid of " + cell + " '" + d.spec.name +
                                "' exceeds 4096 combinations");
    for (u64 c = 0; c < combos; ++c) {
        Spec spec = d.spec;
        u64 span = combos;
        for (const Sweep &s : d.sweeps) {
            span /= s.values.size();
            const std::string &v = s.values[c / span % s.values.size()];
            // Checked when the sweep line was read.
            withKey(table, s.key, [&](const auto &row) {
                assign(row, v, fieldsOf(spec).*row.member);
            });
            if (table.named)
                spec.name += "/" + s.key + "=" + v;
        }
        if (table.named)
            for (const auto &other : out)
                if (other.name == spec.name)
                    return at(d.lineno, "duplicate " + cell + " '" +
                                            spec.name +
                                            "' after grid expansion");
        out.push_back(std::move(spec));
    }
    return {};
}

/** Start draft `spec` of `table`'s section. @return error or empty. */
template <typename Rows, typename Spec>
std::string
openDraft(const KeyTable<Rows> &table, std::vector<Draft<Spec>> &drafts,
          Spec spec, int lineno)
{
    if (table.named)
        for (const auto &d : drafts)
            if (d.spec.name == spec.name)
                return "duplicate " + std::string(table.cell) + " '" +
                       spec.name + "'";
    drafts.push_back({std::move(spec), {}, {}, lineno});
    return {};
}

} // namespace

const char *
batchPolicyName(BatchPolicyKind kind)
{
    return spellingIn(kServiceKeys, kind);
}

std::string
keyDescriptor(const ServiceSpec &svc, char sep)
{
    return describe(kServiceKeys, svc, sep);
}

std::string
keyDescriptor(const NnSpec &nn, char sep)
{
    return describe(kNnKeys, nn, sep);
}

u64
SimConfig::totalRuns() const
{
    u64 per_variant = 0;
    for (const auto &w : workloads)
        per_variant += static_cast<u64>(w.repeats) * repeats;
    return per_variant * devices.size();
}

u64
SimConfig::totalServiceRuns() const
{
    return static_cast<u64>(devices.size()) * services.size();
}

u64
SimConfig::totalNnRuns() const
{
    return static_cast<u64>(devices.size()) * nnCells.size();
}

std::optional<SimConfig>
SimConfig::parse(const std::string &text, std::string &error)
{
    enum class Section
    {
        None,
        Scenario,
        Device,
        Variant,
        Workload,
        Service,
        Nn,
    };

    Draft<SimConfig> scenario;
    Draft<DeviceSpec> device;
    std::vector<Draft<DeviceSpec>> variants;
    std::vector<Draft<WorkloadSpec>> workloads;
    std::vector<Draft<ServiceSpec>> services;
    std::vector<Draft<NnSpec>> nnCells;
    Section section = Section::None;
    int lineno = 0;

    const auto fail = [&](const std::string &msg) {
        error = at(lineno, msg);
        return std::nullopt;
    };

    std::istringstream in(text);
    std::string raw;
    while (std::getline(in, raw)) {
        ++lineno;
        const std::string line = cleanLine(raw);
        if (line.empty())
            continue;

        if (line.front() == '[') {
            if (line.back() != ']')
                return fail("unterminated section header");
            const std::string inner = line.substr(1, line.size() - 2);
            const auto sp = inner.find_first_of(" \t");
            const std::string head =
                sp == std::string::npos ? inner : inner.substr(0, sp);
            std::string arg;
            if (sp != std::string::npos) {
                const auto b = inner.find_first_not_of(" \t", sp);
                if (b != std::string::npos)
                    arg = inner.substr(b);
            }
            std::string err;
            if (head == "scenario") {
                if (!arg.empty())
                    return fail("[scenario] takes no argument");
                section = Section::Scenario;
            } else if (head == "device") {
                if (!arg.empty())
                    return fail("[device] takes no argument");
                if (!variants.empty())
                    return fail(
                        "[device] must precede [variant] sections");
                section = Section::Device;
            } else if (head == "variant") {
                if (arg.empty())
                    return fail("[variant] needs a name");
                err = openDraft(kDeviceKeys, variants,
                                DeviceSpec{arg, device.spec.config},
                                lineno);
                section = Section::Variant;
            } else if (head == "workload") {
                if (arg.empty())
                    return fail("[workload] needs a name");
                if (!workloads::createWorkload(arg))
                    return fail("unknown workload '" + arg +
                                "' (available: " +
                                workloads::workloadNamesJoined() +
                                ")");
                err = openDraft(kWorkloadKeys, workloads,
                                WorkloadSpec{.name = arg}, lineno);
                section = Section::Workload;
            } else if (head == "service") {
                err = openDraft(
                    kServiceKeys, services,
                    ServiceSpec{.name = arg.empty() ? "service" : arg},
                    lineno);
                section = Section::Service;
            } else if (head == "nn") {
                err = openDraft(kNnKeys, nnCells,
                                NnSpec{.name = arg.empty() ? "nn" : arg},
                                lineno);
                section = Section::Nn;
            } else {
                return fail("unknown section [" + head + "]");
            }
            if (!err.empty())
                return fail(err);
            continue;
        }

        const auto eq = line.find('=');
        if (eq == std::string::npos)
            return fail("expected 'key = value'");
        std::string key = cleanLine(line.substr(0, eq));
        const std::string value = cleanLine(line.substr(eq + 1));
        if (key.empty())
            return fail("empty key");
        if (value.empty())
            return fail("empty value for '" + key + "'");

        // Grid lines: `sweep KEY = v1, v2, ...`.
        std::optional<Sweep> sweep;
        if (key == "sweep")
            return fail("sweep needs a key (sweep KEY = v1, v2, ...)");
        if (key.rfind("sweep", 0) == 0 &&
            (key[5] == ' ' || key[5] == '\t')) {
            key = cleanLine(key.substr(6));
            if (key.empty())
                return fail(
                    "sweep needs a key (sweep KEY = v1, v2, ...)");
            sweep.emplace(Sweep{key, {}, lineno});
            const std::string err =
                splitSweepValues(value, sweep->values);
            if (!err.empty())
                return fail(err);
        }

        std::string err;
        switch (section) {
          case Section::None:
            return fail("'" + key + "' outside any section");
          case Section::Scenario:
            err = setOrSweep(kScenarioKeys, scenario, key, value, sweep);
            break;
          case Section::Device:
            err = setOrSweep(kDeviceKeys, device, key, value, sweep);
            break;
          case Section::Variant:
            err = setOrSweep(kDeviceKeys, variants.back(), key, value,
                             sweep);
            break;
          case Section::Workload:
            err = setOrSweep(kWorkloadKeys, workloads.back(), key, value,
                             sweep);
            break;
          case Section::Service:
            err = setOrSweep(kServiceKeys, services.back(), key, value,
                             sweep);
            break;
          case Section::Nn:
            err = setOrSweep(kNnKeys, nnCells.back(), key, value, sweep);
            break;
        }
        if (!err.empty())
            return fail(err);
    }

    // [workload] sections feed batch and service mode; an nn-only
    // scenario legitimately has none.
    if (workloads.empty() && nnCells.empty()) {
        error = "scenario declares no [workload] or [nn] sections";
        return std::nullopt;
    }
    if (variants.empty())
        variants.push_back(
            {DeviceSpec{"default", device.spec.config}, {}, {}, lineno});

    // ---- Grid expansion ----

    for (auto &v : variants) {
        // Device-level sweeps are inherited unless the variant set or
        // swept the key itself; variant sweeps follow, in order.
        std::vector<Sweep> inherited;
        for (const auto &s : device.sweeps)
            if (!contains(v.assigned, s.key) &&
                !sweepsKey(v.sweeps, s.key))
                inherited.push_back(s);
        v.sweeps.insert(v.sweeps.begin(), inherited.begin(),
                        inherited.end());
    }
    SimConfig cfg = std::move(scenario.spec);
    const auto expandAll = [&](const auto &table, const auto &drafts,
                               auto &out) {
        for (const auto &d : drafts) {
            error = expand(table, d, out);
            if (!error.empty())
                return false;
        }
        return true;
    };
    if (!expandAll(kDeviceKeys, variants, cfg.devices) ||
        !expandAll(kWorkloadKeys, workloads, cfg.workloads) ||
        !expandAll(kServiceKeys, services, cfg.services) ||
        !expandAll(kNnKeys, nnCells, cfg.nnCells))
        return std::nullopt;
    return cfg;
}

std::optional<SimConfig>
SimConfig::load(const std::string &path, std::string &error)
{
    std::ifstream in(path, std::ios::binary);
    if (!in) {
        error = "cannot open scenario file '" + path + "'";
        return std::nullopt;
    }
    std::ostringstream buf;
    buf << in.rdbuf();
    return parse(buf.str(), error);
}

} // namespace pluto::sim
