/**
 * @file
 * obs::Histogram: a log-bucketed (HDR-style) latency histogram whose
 * merges are *exact*: merging two histograms and then asking for p99
 * yields bit-identical buckets to recording every sample into one
 * histogram, in any merge order. That is the property sharded
 * campaigns need: per-worker/per-shard digests fold at the
 * forEachTask join (and across cache shards) without approximation
 * drift.
 *
 * Bucketing comes straight from the IEEE-754 double bits: the biased
 * exponent selects the octave and the top kSubBits mantissa bits
 * select one of 64 linear sub-buckets inside it, so every bucket
 * spans at most a 1/64 relative width (quantile lookups are within
 * ~0.8% of the exact sample). Bucket counts are u64 keyed by the
 * derived index, so merge = per-key sum, which is associative and
 * commutative exactly. Regular buckets live in one dense array over
 * the octaves seen so far (Slots), so recording a sample is an index
 * computation and an add, not a tree lookup. The `sum` field is a
 * double and therefore order-sensitive at ulp level in general;
 * campaign folds always run in deterministic task order, so rendered
 * bytes stay stable anyway.
 *
 * Values <= 0 (-inf included), subnormals and NaN land in a
 * dedicated underflow bucket; +inf in the overflow bucket. Quantile
 * answers are bucket midpoints clamped into [min, max], so they never
 * leave the observed range.
 */

#ifndef PLUTO_OBS_HISTOGRAM_HH
#define PLUTO_OBS_HISTOGRAM_HH

#include <map>
#include <string>
#include <utility>
#include <vector>

#include "common/logging.hh"
#include "common/types.hh"

namespace pluto
{
class JsonValue;
}

namespace pluto::obs
{

/** Exactly mergeable log-bucketed histogram (see file comment). */
class Histogram
{
  public:
    /** Mantissa bits per octave: 2^6 = 64 linear sub-buckets. */
    static constexpr int kSubBits = 6;
    /** Bucket of values <= 0, subnormal or NaN. */
    static constexpr i32 kUnderflowBucket = 0;
    /** Bucket of +inf (biased exponent 0x7ff). */
    static constexpr i32 kOverflowBucket = 0x7ff << kSubBits;

    /**
     * One T per bucket index (>= 0), the storage of a Histogram's
     * counts and of per-bucket accumulators built beside one (the
     * serve tail blame). Regular buckets sit in a dense array over
     * whole octaves [base, base + n), grown an octave at a time in
     * either direction; the underflow bucket is one slot and indices
     * from kOverflowBucket up go to a small map (+inf only, unless a
     * decoder restored more).
     */
    template <typename T>
    class Slots
    {
      public:
        /** @return the slot of bucket `idx`, materializing it. */
        T &at(i32 idx)
        {
            if (idx == kUnderflowBucket)
                return under_;
            if (idx >= kOverflowBucket)
                return over_[idx];
            const i32 off = idx - base_;
            if (off >= 0 && off < static_cast<i32>(dense_.size()))
                return dense_[static_cast<std::size_t>(off)];
            return grow(idx);
        }

        /** Visit every materialized slot, index-ascending:
         *  fn(i32 idx, const T &slot). Untouched slots read T{}. */
        template <typename Fn>
        void forEach(Fn &&fn) const
        {
            fn(kUnderflowBucket, under_);
            for (std::size_t i = 0; i < dense_.size(); ++i)
                fn(base_ + static_cast<i32>(i), dense_[i]);
            for (const auto &[idx, slot] : over_)
                fn(idx, slot);
        }

        void clear() { *this = Slots{}; }

      private:
        /** Extend the dense range to whole octaves covering `idx`. */
        T &grow(i32 idx)
        {
            PLUTO_ASSERT(idx > kUnderflowBucket &&
                         idx < kOverflowBucket);
            constexpr i32 kOctave = 1 << kSubBits;
            const i32 lo = idx & ~(kOctave - 1);
            if (dense_.empty()) {
                base_ = lo;
                dense_.resize(kOctave);
            } else if (idx < base_) {
                dense_.insert(dense_.begin(),
                              static_cast<std::size_t>(base_ - lo),
                              T{});
                base_ = lo;
            } else {
                dense_.resize(
                    static_cast<std::size_t>(lo + kOctave - base_));
            }
            return dense_[static_cast<std::size_t>(idx - base_)];
        }

        T under_{};
        i32 base_ = 0;
        std::vector<T> dense_;
        std::map<i32, T> over_;
    };

    /** Record one sample. */
    void add(double v) { addCount(v, 1); }

    /** Record `n` samples of value `v`. */
    void addCount(double v, u64 n);

    /** Fold `other` into this (bucket counts sum exactly). */
    void merge(const Histogram &other);

    /** Reset to empty. */
    void clear();

    /** @return recorded sample count. */
    u64 count() const { return count_; }

    /** @return true when no sample has been recorded. */
    bool empty() const { return count_ == 0; }

    /** @return exact sum of recorded samples (0 when empty). */
    double sum() const { return count_ ? sum_ : 0.0; }

    /** @return exact mean (0 when empty). */
    double mean() const
    {
        return count_ ? sum_ / static_cast<double>(count_) : 0.0;
    }

    /** @return exact minimum recorded sample (0 when empty). */
    double min() const { return count_ ? min_ : 0.0; }

    /** @return exact maximum recorded sample (0 when empty). */
    double max() const { return count_ ? max_ : 0.0; }

    /**
     * Nearest-rank quantile lookup: the midpoint of the bucket
     * holding sample rank ceil(q * count), clamped into [min, max].
     * `q` outside [0, 1] clamps; 0 when empty.
     */
    double quantile(double q) const;

    /** @return the index of the bucket quantile(q) reads
     *  (kUnderflowBucket when empty). */
    i32 quantileBucket(double q) const;

    /** Visit every non-empty bucket key-ascending: fn(idx, count). */
    template <typename Fn>
    void forEachBucket(Fn &&fn) const
    {
        counts_.forEach([&](i32 idx, u64 n) {
            if (n)
                fn(idx, n);
        });
    }

    /** @return the non-empty (index, count) pairs, key-ascending. */
    std::vector<std::pair<i32, u64>> buckets() const;

    /** @return the bucket index a value lands in. */
    static i32 bucketOf(double v);

    /** @return inclusive lower bound of a regular bucket. */
    static double bucketLo(i32 idx);

    /** @return exclusive upper bound of a regular bucket. */
    static double bucketHi(i32 idx);

    /**
     * Compact single-line JSON encoding, byte-stable (doubles via
     * fmtDoubleExact):
     * {"count":N,"sum":S,"min":m,"max":M,"buckets":[[idx,n],...]}
     */
    std::string encodeJson() const;

    /** Decode encodeJson() output (replaces contents). @return false
     *  on schema mismatch. */
    bool decodeJson(const JsonValue &v);

    // ---- Codec hooks (binary cache encodings) ----

    /** Restore the scalar digest of a non-empty histogram. */
    void restoreDigest(double sum, double mn, double mx);

    /** Restore one bucket (adds `n` to the total count). @return
     *  false for a negative index, which no value maps to. */
    bool restoreBucket(i32 idx, u64 n);

  private:
    Slots<u64> counts_;
    u64 count_ = 0;
    double sum_ = 0.0;
    double min_ = 0.0;
    double max_ = 0.0;
};

} // namespace pluto::obs

#endif // PLUTO_OBS_HISTOGRAM_HH
