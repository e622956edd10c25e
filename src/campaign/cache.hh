/**
 * @file
 * JsonlCache: the one content-addressed result cache behind every
 * campaign mode.
 *
 * A cache is an append-only JSONL file
 * (`<dir>/<scenario>.<kind>.cache.jsonl`), one outcome object per
 * line, so several shard processes of one campaign may append
 * concurrently (whole-line writes) and an interrupted campaign
 * resumes from whatever lines made it to disk. Loading is last-wins
 * per key and skips corrupt (e.g. torn) lines, counting them.
 * Simulated outcomes are deterministic, so replaying a hit is
 * bit-identical to recomputation; doubles are stored with %.17g and
 * therefore round-trip exactly.
 *
 * Format v2 starts every file with a version-header line
 * (`{"cacheFormat":2,"kind":"sim"}`). Loading accepts legacy
 * unversioned files (every line an entry) and *rejects* files
 * written by a future format with a clear error instead of silently
 * skipping every line as corrupt.
 *
 * Format v3 is the optional binary encoding (--cache-format binary):
 * the same file path, but after an ASCII JSON header line that also
 * carries `"encoding":"binary"`, entries are length-prefixed
 * checksummed records ([u32 len][u32 fnv1a32][key string][field
 * values]) instead of JSON lines. Records are still append-only whole
 * writes (shard-merge compatible), doubles travel as raw bits (so
 * replay is exactly as bit-identical as JSONL's %.17g), and because
 * the header is a JSON line at the same path, a JSONL-only or older
 * build that opens a binary cache hits the versioned-format error
 * above instead of silently recomputing. Mixing formats in either
 * direction produces a clear error naming the --cache-format value
 * to pass.
 *
 * Modes plug in through a field table, one per outcome type:
 *
 *   struct Table {
 *     // Mode namespace: cache filename infix AND content-key prefix,
 *     // so equal descriptors from different modes can never collide
 *     // in a shared --cache-dir.
 *     static constexpr const char *kKind = "...";
 *     // (wire name, member) rows in wire order, for example
 *     // std::make_tuple(field("elements", &Outcome::elements), ...).
 *     static constexpr auto kFields = ...;
 *   };
 *
 * Each row's encoding follows from its member type: u32, u64,
 * double, bool, std::string, a fixed array of those (a JSON array),
 * obs::Histogram (its own encodeJson record), or a std::vector of a
 * sub-table's type (objects() rows write JSON objects, arrays()
 * rows positional JSON arrays). visitFields() walks a table once per
 * row, and that one walk drives all four encodings: JSONL write
 * (`,"name":value` after the key), JSONL read (lookup by name, extra
 * keys ignored, integers range-checked), binary write and binary
 * read (sequential, in table order). The table order is therefore
 * the wire order of both encodings.
 *
 * JSONL holds integers as JSON numbers, which parse to doubles: a
 * u64 member at or above 2^53 would replay rounded, so its line
 * loads as corrupt and the cell is recomputed. The binary encoding
 * stores all 64 bits and replays every value exactly.
 */

#ifndef PLUTO_CAMPAIGN_CACHE_HH
#define PLUTO_CAMPAIGN_CACHE_HH

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstring>
#include <functional>
#include <limits>
#include <map>
#include <mutex>
#include <optional>
#include <string>
#include <string_view>
#include <tuple>
#include <type_traits>
#include <vector>

#include "common/digest.hh"
#include "common/emit.hh"
#include "obs/histogram.hh"

namespace pluto::campaign
{

/** On-disk JSONL cache format this build reads and writes. */
constexpr u32 kCacheFormat = 2;

/**
 * On-disk format of the binary encoding. Deliberately above
 * kCacheFormat: a build that predates the binary cache rejects such
 * a file through its ordinary future-format check instead of
 * skipping every record as corrupt and silently recomputing.
 */
constexpr u32 kBinaryCacheFormat = 3;

/** Cache file encoding selected per campaign (--cache-format). */
enum class CacheFormat : u8
{
    Jsonl = 0,
    Binary = 1,
};

/** @return "jsonl" or "binary". */
const char *cacheFormatName(CacheFormat f);

/** Parse a --cache-format value; false = unrecognised. */
bool parseCacheFormat(const std::string &s, CacheFormat &out);

/**
 * Little-endian byte-buffer writer for binary cache bodies. Doubles
 * travel as raw IEEE-754 bits, so every value round-trips exactly.
 */
class BinWriter
{
  public:
    void putU32(u32 v) { putRaw(&v, sizeof(v)); }
    void putU64(u64 v) { putRaw(&v, sizeof(v)); }
    void putF64(double v) { putU64(std::bit_cast<u64>(v)); }
    void putBool(bool v) { buf_.push_back(v ? '\1' : '\0'); }
    void putString(const std::string &s)
    {
        putU32(static_cast<u32>(s.size()));
        buf_.append(s);
    }

    const std::string &bytes() const { return buf_; }

  private:
    void putRaw(const void *p, std::size_t n)
    {
        static_assert(std::endian::native == std::endian::little,
                      "binary cache assumes little-endian storage");
        buf_.append(static_cast<const char *>(p), n);
    }

    std::string buf_;
};

/**
 * Bounds-checked reader over one binary record body. Every getter
 * returns false (and stops advancing) once the record is exhausted,
 * so readers can chain reads and check once.
 */
class BinReader
{
  public:
    explicit BinReader(std::string_view data) : data_(data) {}

    bool getU32(u32 &v) { return getRaw(&v, sizeof(v)); }
    bool getU64(u64 &v) { return getRaw(&v, sizeof(v)); }
    bool getF64(double &v)
    {
        u64 bits;
        if (!getU64(bits))
            return false;
        v = std::bit_cast<double>(bits);
        return true;
    }
    bool getBool(bool &v)
    {
        if (pos_ >= data_.size())
            return false;
        v = data_[pos_++] != '\0';
        return true;
    }
    bool getString(std::string &s)
    {
        u32 len;
        if (!getU32(len) || data_.size() - pos_ < len)
            return false;
        s.assign(data_.substr(pos_, len));
        pos_ += len;
        return true;
    }

    /** @return true when the whole record was consumed. */
    bool atEnd() const { return pos_ == data_.size(); }

  private:
    bool getRaw(void *p, std::size_t n)
    {
        if (data_.size() - pos_ < n)
            return false;
        std::memcpy(p, data_.data() + pos_, n);
        pos_ += n;
        return true;
    }

    std::string_view data_;
    std::size_t pos_ = 0;
};

/**
 * One row of an outcome's field table: the wire name and the member
 * it carries. The member's type picks the encoding; `sub` is the
 * element table of a std::vector member.
 */
template <typename Class, typename Member, typename Sub = std::tuple<>>
struct Field
{
    const char *name;
    Member Class::*member;
    Sub sub{};
    /** Vector elements travel as positional JSON arrays. */
    bool positional = false;
};

/** @return a row of a scalar, fixed-array or histogram member. */
template <typename Class, typename Member>
constexpr Field<Class, Member>
field(const char *name, Member Class::*member)
{
    return {name, member};
}

/** @return a vector row whose elements are JSON objects. */
template <typename Class, typename Elem, typename Sub>
constexpr Field<Class, std::vector<Elem>, Sub>
objects(const char *name, std::vector<Elem> Class::*member, Sub sub)
{
    return {name, member, sub, false};
}

/** @return a vector row whose elements are positional JSON arrays. */
template <typename Class, typename Elem, typename Sub>
constexpr Field<Class, std::vector<Elem>, Sub>
arrays(const char *name, std::vector<Elem> Class::*member, Sub sub)
{
    return {name, member, sub, true};
}

/**
 * Call `fn(row)` for every row of `rows` in wire order, stopping at
 * the first false. @return true when every call returned true.
 */
template <typename Rows, typename Fn>
bool
visitFields(const Rows &rows, Fn &&fn)
{
    return std::apply(
        [&](const auto &...row) { return (fn(row) && ...); }, rows);
}

namespace detail
{

/**
 * Load one JSONL cache file: handle the version header (legacy
 * unversioned files load as pure entry streams; future formats
 * @return a non-empty error), call `onEntry(key, obj)` per entry
 * line, and count lines that are corrupt or whose `onEntry` returns
 * false in `corrupt`. A missing file is an empty cache.
 */
std::string
loadJsonlCache(const std::string &path, u64 &corrupt,
               const std::function<bool(const std::string &key,
                                        const JsonValue &obj)> &onEntry);

/**
 * Append one whole line, creating the directory and writing the
 * `kind` version header first when the file is new or empty.
 * @return empty string or an error description.
 */
std::string appendJsonlLine(const std::string &dir,
                            const std::string &path,
                            const std::string &kind,
                            const std::string &line);

/**
 * Load one binary (v3) cache file: verify the header, then call
 * `onEntry(key, body)` per checksummed record, counting bad records
 * in `corrupt` (framing damage ends the scan at that point — with
 * whole-record appends that only happens at a torn tail). A missing
 * file is an empty cache; a JSONL or future-format file @return a
 * non-empty error naming the fix.
 */
std::string
loadBinaryCache(const std::string &path, const std::string &kind,
                u64 &corrupt,
                const std::function<bool(const std::string &key,
                                         BinReader &body)> &onEntry);

/**
 * Append one [len][checksum][key][body] record, creating directory
 * and binary header like appendJsonlLine. One whole write per
 * record, so concurrent shard appends do not interleave.
 * @return empty string or an error description.
 */
std::string appendBinaryRecord(const std::string &dir,
                               const std::string &path,
                               const std::string &kind,
                               const std::string &key,
                               const std::string &body);

// ---- The four encodings of a field table (see the file comment) ----

template <typename T>
inline constexpr bool kIsVector = false;
template <typename E>
inline constexpr bool kIsVector<std::vector<E>> = true;
template <typename T>
inline constexpr bool kNoEncoding = false;

/** Minimal JSON string escape (cached strings are registry names). */
std::string jsonEscape(const std::string &s);

/** Binary record of a histogram: count, sum, min, max, then the
 *  (index, count) buckets. getHistogram @return false unless the
 *  buckets are valid and sum to the count. */
void putHistogram(BinWriter &w, const obs::Histogram &h);
bool getHistogram(BinReader &r, obs::Histogram &h);

/**
 * Read a JSON number into an unsigned integer. @return false for a
 * negative, NaN or fractional value, and for one at or above 2^53
 * or out of U's range: JSON numbers parse to doubles, which may have
 * rounded a larger integer already, and casting a value beyond U's
 * range is undefined.
 */
template <typename U>
bool
readJsonUint(const JsonValue &x, U &v)
{
    // The first value out of range, exact as a double: 2^digits,
    // capped at 2^53 (a double's mantissa).
    constexpr int kBits = std::min(std::numeric_limits<U>::digits, 53);
    constexpr double kLimit =
        2.0 * static_cast<double>(U{1} << (kBits - 1));
    if (!x.isNumber())
        return false;
    const double d = x.asNumber();
    if (!(d >= 0.0 && d < kLimit && d == std::floor(d)))
        return false;
    v = static_cast<U>(d);
    return true;
}

template <typename Rows, typename Obj>
void writeJson(std::string &out, const Rows &rows, const Obj &obj,
               bool named, bool leadingComma);
template <typename Rows, typename Obj>
bool readJson(const JsonValue &v, const Rows &rows, Obj &obj,
              bool named);
template <typename Rows, typename Obj>
void writeBinary(BinWriter &w, const Rows &rows, const Obj &obj);
template <typename Rows, typename Obj>
bool readBinary(BinReader &r, const Rows &rows, Obj &obj);

template <typename Row, typename M>
void
writeJsonValue(std::string &out, const Row &row, const M &v)
{
    if constexpr (std::is_same_v<M, bool>) {
        out += v ? "true" : "false";
    } else if constexpr (std::is_same_v<M, u32> ||
                         std::is_same_v<M, u64>) {
        out += std::to_string(v);
    } else if constexpr (std::is_same_v<M, double>) {
        out += fmtDoubleExact(v);
    } else if constexpr (std::is_same_v<M, std::string>) {
        out += '"' + jsonEscape(v) + '"';
    } else if constexpr (std::is_array_v<M>) {
        out += '[';
        for (std::size_t i = 0; i < std::extent_v<M>; ++i) {
            if (i)
                out += ',';
            writeJsonValue(out, row, v[i]);
        }
        out += ']';
    } else if constexpr (std::is_same_v<M, obs::Histogram>) {
        out += v.encodeJson();
    } else if constexpr (kIsVector<M>) {
        out += '[';
        for (std::size_t i = 0; i < v.size(); ++i) {
            if (i)
                out += ',';
            out += row.positional ? '[' : '{';
            writeJson(out, row.sub, v[i], !row.positional, false);
            out += row.positional ? ']' : '}';
        }
        out += ']';
    } else {
        static_assert(kNoEncoding<M>, "no cache encoding for member");
    }
}

template <typename Row, typename M>
bool
readJsonValue(const JsonValue &x, const Row &row, M &v)
{
    if constexpr (std::is_same_v<M, bool>) {
        if (!x.isBool())
            return false;
        v = x.asBool();
        return true;
    } else if constexpr (std::is_same_v<M, u32> ||
                         std::is_same_v<M, u64>) {
        return readJsonUint(x, v);
    } else if constexpr (std::is_same_v<M, double>) {
        if (!x.isNumber())
            return false;
        v = x.asNumber();
        return true;
    } else if constexpr (std::is_same_v<M, std::string>) {
        if (!x.isString())
            return false;
        v = x.asString();
        return true;
    } else if constexpr (std::is_array_v<M>) {
        if (!x.isArray() || x.size() != std::extent_v<M>)
            return false;
        for (std::size_t i = 0; i < std::extent_v<M>; ++i)
            if (!readJsonValue(x.at(i), row, v[i]))
                return false;
        return true;
    } else if constexpr (std::is_same_v<M, obs::Histogram>) {
        return v.decodeJson(x);
    } else if constexpr (kIsVector<M>) {
        if (!x.isArray())
            return false;
        v.clear();
        for (std::size_t i = 0; i < x.size(); ++i) {
            const JsonValue &e = x.at(i);
            const bool shaped =
                row.positional
                    ? e.isArray() && e.size() == std::tuple_size_v<
                                                     decltype(row.sub)>
                    : e.isObject();
            typename M::value_type elem{};
            if (!shaped || !readJson(e, row.sub, elem, !row.positional))
                return false;
            v.push_back(std::move(elem));
        }
        return true;
    } else {
        static_assert(kNoEncoding<M>, "no cache encoding for member");
    }
}

template <typename Row, typename M>
void
writeBinaryValue(BinWriter &w, const Row &row, const M &v)
{
    if constexpr (std::is_same_v<M, bool>) {
        w.putBool(v);
    } else if constexpr (std::is_same_v<M, u32>) {
        w.putU32(v);
    } else if constexpr (std::is_same_v<M, u64>) {
        w.putU64(v);
    } else if constexpr (std::is_same_v<M, double>) {
        w.putF64(v);
    } else if constexpr (std::is_same_v<M, std::string>) {
        w.putString(v);
    } else if constexpr (std::is_array_v<M>) {
        for (const auto &e : v)
            writeBinaryValue(w, row, e);
    } else if constexpr (std::is_same_v<M, obs::Histogram>) {
        putHistogram(w, v);
    } else if constexpr (kIsVector<M>) {
        w.putU32(static_cast<u32>(v.size()));
        for (const auto &e : v)
            writeBinary(w, row.sub, e);
    } else {
        static_assert(kNoEncoding<M>, "no cache encoding for member");
    }
}

template <typename Row, typename M>
bool
readBinaryValue(BinReader &r, const Row &row, M &v)
{
    if constexpr (std::is_same_v<M, bool>) {
        return r.getBool(v);
    } else if constexpr (std::is_same_v<M, u32>) {
        return r.getU32(v);
    } else if constexpr (std::is_same_v<M, u64>) {
        return r.getU64(v);
    } else if constexpr (std::is_same_v<M, double>) {
        return r.getF64(v);
    } else if constexpr (std::is_same_v<M, std::string>) {
        return r.getString(v);
    } else if constexpr (std::is_array_v<M>) {
        for (auto &e : v)
            if (!readBinaryValue(r, row, e))
                return false;
        return true;
    } else if constexpr (std::is_same_v<M, obs::Histogram>) {
        return getHistogram(r, v);
    } else if constexpr (kIsVector<M>) {
        u32 count;
        if (!r.getU32(count))
            return false;
        v.clear();
        for (u32 i = 0; i < count; ++i) {
            typename M::value_type elem{};
            if (!readBinary(r, row.sub, elem))
                return false;
            v.push_back(std::move(elem));
        }
        return true;
    } else {
        static_assert(kNoEncoding<M>, "no cache encoding for member");
    }
}

/**
 * Append `obj`'s fields: `"name":value` pairs when `named`, bare
 * values otherwise, comma-separated, with a comma before the first
 * when `leadingComma`.
 */
template <typename Rows, typename Obj>
void
writeJson(std::string &out, const Rows &rows, const Obj &obj,
          bool named, bool leadingComma)
{
    bool comma = leadingComma;
    visitFields(rows, [&](const auto &row) {
        if (comma)
            out += ',';
        comma = true;
        if (named) {
            out += '"';
            out += row.name;
            out += "\":";
        }
        writeJsonValue(out, row, obj.*row.member);
        return true;
    });
}

/**
 * Decode `obj` from object `v` by field name (extra keys ignored)
 * or, unless `named`, from array `v` by position (size checked by
 * the caller). @return false when a field is missing or ill-typed.
 */
template <typename Rows, typename Obj>
bool
readJson(const JsonValue &v, const Rows &rows, Obj &obj, bool named)
{
    std::size_t pos = 0;
    return visitFields(rows, [&](const auto &row) {
        const JsonValue *x = named ? v.find(row.name) : &v.at(pos++);
        return x && readJsonValue(*x, row, obj.*row.member);
    });
}

template <typename Rows, typename Obj>
void
writeBinary(BinWriter &w, const Rows &rows, const Obj &obj)
{
    visitFields(rows, [&](const auto &row) {
        writeBinaryValue(w, row, obj.*row.member);
        return true;
    });
}

template <typename Rows, typename Obj>
bool
readBinary(BinReader &r, const Rows &rows, Obj &obj)
{
    return visitFields(rows, [&](const auto &row) {
        return readBinaryValue(r, row, obj.*row.member);
    });
}

} // namespace detail

/** Append-only JSONL outcome cache for one scenario and mode. */
template <typename Outcome, typename Table>
class JsonlCache
{
  public:
    /**
     * Cache for scenario `scenario` under directory `dir` (created
     * if missing on first append), stored in `format`. Both formats
     * share one path per scenario/kind: a cache directory holds one
     * encoding per cell, and opening it with the other --cache-format
     * fails loudly instead of recomputing.
     */
    JsonlCache(std::string dir, const std::string &scenario,
               CacheFormat format = CacheFormat::Jsonl)
        : dir_(std::move(dir)),
          path_(dir_ + "/" + scenario + "." + Table::kKind +
                ".cache.jsonl"),
          format_(format)
    {
    }

    /**
     * @return the content key of `descriptor`, namespaced by the
     * table's kind — `sim/` and `serve/` cells with coincidentally
     * equal descriptors hash to different keys.
     */
    static std::string keyFor(const std::string &descriptor)
    {
        return fnv1aHex(std::string(Table::kKind) + "/" + descriptor);
    }

    /**
     * Load the cache file (missing file = empty cache). @return
     * empty string, or a clear error when the file was written by a
     * future cache format.
     */
    std::string load()
    {
        std::lock_guard<std::mutex> lock(mu_);
        entries_.clear();
        corrupt_ = 0;
        if (format_ == CacheFormat::Binary)
            return detail::loadBinaryCache(
                path_, Table::kKind, corrupt_,
                [&](const std::string &key, BinReader &body) {
                    Outcome out;
                    if (!detail::readBinary(body, Table::kFields, out) ||
                        !body.atEnd())
                        return false;
                    entries_[key] = std::move(out); // last wins
                    return true;
                });
        return detail::loadJsonlCache(
            path_, corrupt_,
            [&](const std::string &key, const JsonValue &obj) {
                Outcome out;
                if (!detail::readJson(obj, Table::kFields, out, true))
                    return false;
                entries_[key] = std::move(out); // last line wins
                return true;
            });
    }

    /**
     * Look up `key`. The returned copy (not a reference) keeps the
     * caller safe from concurrent append() map mutations.
     */
    std::optional<Outcome> lookup(const std::string &key) const
    {
        std::lock_guard<std::mutex> lock(mu_);
        const auto it = entries_.find(key);
        if (it == entries_.end())
            return std::nullopt;
        return it->second;
    }

    /**
     * Append one outcome (thread-safe; one whole line per write so
     * concurrent shard appends do not interleave). @return empty
     * string or an error description.
     */
    std::string append(const std::string &key, const Outcome &out)
    {
        std::string err;
        if (format_ == CacheFormat::Binary) {
            BinWriter body;
            detail::writeBinary(body, Table::kFields, out);
            std::lock_guard<std::mutex> lock(mu_);
            err = detail::appendBinaryRecord(dir_, path_, Table::kKind,
                                             key, body.bytes());
            if (err.empty())
                entries_[key] = out;
            return err;
        }
        std::string line = "{\"key\":\"" + key + "\"";
        detail::writeJson(line, Table::kFields, out, true, true);
        line += "}\n";
        std::lock_guard<std::mutex> lock(mu_);
        err = detail::appendJsonlLine(dir_, path_, Table::kKind, line);
        if (err.empty())
            entries_[key] = out;
        return err;
    }

    /** @return loaded entry count. */
    std::size_t entries() const
    {
        std::lock_guard<std::mutex> lock(mu_);
        return entries_.size();
    }

    /** @return lines skipped as corrupt during load(). */
    u64 corruptLines() const { return corrupt_; }

    /** @return the backing cache file path (shared by formats). */
    const std::string &path() const { return path_; }

    /** @return the encoding this cache reads and writes. */
    CacheFormat format() const { return format_; }

  private:
    std::string dir_;
    std::string path_;
    CacheFormat format_ = CacheFormat::Jsonl;
    /** Guards entries_ (lookup from worker threads vs append). */
    mutable std::mutex mu_;
    std::map<std::string, Outcome> entries_;
    u64 corrupt_ = 0;
};

} // namespace pluto::campaign

#endif // PLUTO_CAMPAIGN_CACHE_HH
