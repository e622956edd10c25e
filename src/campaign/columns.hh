/**
 * @file
 * Column tables: the one schema behind every CSV and JSON row that a
 * campaign mode emits.
 *
 * A mode declares one table per kind of emitted row: a tuple of
 * (name, getter) columns in output order, walked by visitFields()
 * like a cache field table (campaign/cache.hh). A getter is a member
 * pointer or a callable on the row; columns() builds a table from
 * columns and sub-tables, splicing a sub-table in place, so a group
 * that several tables share (latency digest, speedups) is declared
 * once:
 *
 *   const auto kRows = campaign::columns(
 *       Column{"runs", &Summary::runs},
 *       Column{"time_ns", &Summary::timeNs, "%.6f"},
 *       Column{"ratio", [](auto &s) { return s.a / s.b; }},
 *       kSpeedupColumns);
 *
 * The getter's result type is the cell's type. An integer prints as
 * a decimal; a double with the column's printf format in CSV and as
 * the double itself in JSON; a string as a (CSV-escaped) string; a
 * bool as yes/no in CSV and true/false in JSON. A getter whose cell
 * type varies by row returns a std::variant of those, where Blank is
 * the empty CSV cell (a pool-wide column on a per-tenant row) and is
 * left out of JSON.
 *
 * Any table renders both ways. csvHeader() writes the header line,
 * each name with its dots as underscores (`speedup.cpu` is CSV column
 * `speedup_cpu`), and csvLine() one row's line. setJson() adds one
 * row's members to a JSON object, where a dotted name nests:
 * `slo.good` is member `good` of object `slo`, which is placed where
 * its first member appears.
 */

#ifndef PLUTO_CAMPAIGN_COLUMNS_HH
#define PLUTO_CAMPAIGN_COLUMNS_HH

#include <algorithm>
#include <functional>
#include <string>
#include <tuple>
#include <utility>
#include <variant>
#include <vector>

#include "campaign/cache.hh"
#include "common/emit.hh"

namespace pluto::campaign
{

/** The empty cell (see the file comment). */
using Blank = std::monostate;

/** One column of a table: name, getter and CSV number format. */
template <typename Get>
struct Column
{
    std::string name;
    Get get;
    /** printf format of the column's doubles in CSV. */
    const char *fmt = "%.17g";
};

/** @return one table of every Column and sub-table in `parts`. */
template <typename... Parts>
auto
columns(Parts... parts)
{
    const auto asTable = []<typename P>(P part) {
        if constexpr (requires { part.get; })
            return std::make_tuple(std::move(part));
        else
            return part;
    };
    return std::tuple_cat(asTable(std::move(parts))...);
}

namespace detail
{

template <typename T>
inline constexpr bool kIsVariant = false;
template <typename... A>
inline constexpr bool kIsVariant<std::variant<A...>> = true;

/** @return the CSV text of cell `v`, doubles printed with `fmt`. */
template <typename T>
std::string
csvText(const T &v, const char *fmt)
{
    if constexpr (kIsVariant<T>)
        return std::visit([&](const auto &x) { return csvText(x, fmt); },
                          v);
    else if constexpr (std::is_same_v<T, Blank>)
        return {};
    else if constexpr (std::is_same_v<T, bool>)
        return v ? "yes" : "no";
    else if constexpr (std::is_integral_v<T>)
        return std::to_string(v);
    else if constexpr (std::is_floating_point_v<T>)
        return fmtNum(fmt, v);
    else
        return std::string(v);
}

/** Nested objects of one JSON row: (dotted prefix, object). */
using JsonGroups = std::vector<std::pair<std::string_view, JsonValue *>>;

/**
 * @return the object that member `name` belongs in: `obj`, or for a
 * dotted name the nested object `groups` holds for its prefix (made
 * on first use). `key` is set to the member's own name.
 */
JsonValue &jsonParent(JsonValue &obj, JsonGroups &groups,
                      const std::string &name, std::string &key);

/** Add cell `v` to `obj` as member `name` (a Blank adds nothing). */
template <typename T>
void
setCell(JsonValue &obj, JsonGroups &groups, const std::string &name,
        const T &v)
{
    if constexpr (kIsVariant<T>) {
        std::visit([&](const auto &x) { setCell(obj, groups, name, x); },
                   v);
    } else if constexpr (!std::is_same_v<T, Blank>) {
        std::string key;
        JsonValue &parent = jsonParent(obj, groups, name, key);
        if constexpr (std::is_same_v<T, bool>)
            parent.set(key, v);
        else if constexpr (std::is_integral_v<T>)
            parent.set(key, static_cast<unsigned long long>(v));
        else if constexpr (std::is_floating_point_v<T>)
            parent.set(key, static_cast<double>(v));
        else
            parent.set(key, std::string(v));
    }
}

} // namespace detail

/** @return the CSV header line of `table` (dots written as '_'). */
template <typename Table>
std::string
csvHeader(const Table &table)
{
    std::string line;
    visitFields(table, [&](const auto &col) {
        line += (line.empty() ? "" : ",") + col.name;
        return true;
    });
    std::replace(line.begin(), line.end(), '.', '_');
    return line + '\n';
}

/** Append the CSV line of `row` under `table` to `csv`. */
template <typename Table, typename Row>
void
csvLine(std::string &csv, const Table &table, const Row &row)
{
    const char *sep = "";
    visitFields(table, [&](const auto &col) {
        csv += std::exchange(sep, ",");
        csv += csvEscape(
            detail::csvText(std::invoke(col.get, row), col.fmt));
        return true;
    });
    csv += '\n';
}

/** Add `row`'s members under `table` to JSON object `obj`. */
template <typename Table, typename Row>
void
setJson(JsonValue &obj, const Table &table, const Row &row)
{
    detail::JsonGroups groups;
    visitFields(table, [&](const auto &col) {
        detail::setCell(obj, groups, col.name, std::invoke(col.get, row));
        return true;
    });
}

/**
 * Write `<stem>_runs.csv` and `<stem>_summary.json`, the two output
 * documents of a campaign mode. On success @return empty string and
 * append both paths to `written`; else @return an error description.
 */
std::string writeOutputs(const std::string &stem,
                         const std::string &csv,
                         const std::string &json,
                         std::vector<std::string> &written);

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_COLUMNS_HH
