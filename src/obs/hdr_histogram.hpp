/**
 * @file
 * Log-bucketed high-dynamic-range histogram for tail-latency and
 * wall-time distributions (p99/p999 in bounded memory).
 *
 * Values in [0, subBucketCount) are recorded exactly; above that,
 * each power-of-two range is split into subBucketCount/2 equal-width
 * sub-buckets, so the relative half-width of any bucket — and hence
 * the relative error of any reported quantile — is bounded by
 * 2^-subBucketBits (0.39% at the default 8 bits). Memory is fixed at
 * construction: ~(64 + maxValueBits/2) * 2^subBucketBits slots,
 * independent of sample count, unlike the linear-bin Histogram whose
 * resolution collapses into one overflow bin past its last edge.
 *
 * The same scheme as HdrHistogram (Gil Tene) restricted to what the
 * simulator needs: add / merge / percentile / max, all integer math
 * on the hot path (one bit_width, two shifts per add).
 */

#ifndef FOOTPRINT_OBS_HDR_HISTOGRAM_HPP
#define FOOTPRINT_OBS_HDR_HISTOGRAM_HPP

#include <algorithm>
#include <bit>
#include <cmath>
#include <cstdint>
#include <vector>

namespace footprint {

class HdrHistogram
{
  public:
    /**
     * @param max_value largest value tracked at full precision; larger
     *        samples clamp into the top bucket (and count as
     *        overflow). The default covers 2^30 ~ 1e9, enough for
     *        cycle latencies and nanosecond-scale barrier waits.
     * @param sub_bucket_bits log2 of the linear sub-bucket count per
     *        power-of-two range; relative quantile error is bounded by
     *        2^-sub_bucket_bits.
     */
    explicit HdrHistogram(std::uint64_t max_value = (1ULL << 30),
                          int sub_bucket_bits = 8)
        : subBucketBits_(sub_bucket_bits < 2 ? 2 : sub_bucket_bits),
          subBucketCount_(std::uint64_t{1} << subBucketBits_),
          subBucketHalf_(subBucketCount_ >> 1),
          maxValue_(max_value < subBucketCount_ ? subBucketCount_
                                                : max_value)
    {
        // Number of power-of-two ranges past the exact region.
        const int max_bits = std::bit_width(maxValue_);
        expBuckets_ = max_bits > subBucketBits_
            ? max_bits - subBucketBits_
            : 1;
        counts_.assign(
            static_cast<std::size_t>(subBucketCount_)
                + static_cast<std::size_t>(expBuckets_)
                    * static_cast<std::size_t>(subBucketHalf_),
            0);
    }

    void
    reset()
    {
        std::fill(counts_.begin(), counts_.end(), 0);
        count_ = 0;
        overflow_ = 0;
        maxRecorded_ = 0;
        sum_ = 0.0;
    }

    void
    add(std::uint64_t value)
    {
        sum_ += static_cast<double>(value);
        if (value > maxValue_) {
            ++overflow_;
            value = maxValue_;
        }
        maxRecorded_ = std::max(maxRecorded_, value);
        ++counts_[indexOf(value)];
        ++count_;
    }

    /** Negative samples clamp to 0; fractional ones round to nearest. */
    void
    add(double value)
    {
        add(value <= 0.0
                ? std::uint64_t{0}
                : static_cast<std::uint64_t>(std::llround(value)));
    }

    /** Merge @p other (must share bucket geometry) into this. */
    void
    merge(const HdrHistogram& other)
    {
        if (other.counts_.size() != counts_.size()
            || other.subBucketBits_ != subBucketBits_)
            return;  // incompatible geometry: drop rather than corrupt
        for (std::size_t i = 0; i < counts_.size(); ++i)
            counts_[i] += other.counts_[i];
        count_ += other.count_;
        overflow_ += other.overflow_;
        maxRecorded_ = std::max(maxRecorded_, other.maxRecorded_);
        sum_ += other.sum_;
    }

    std::uint64_t count() const { return count_; }
    /** Samples past maxValue (clamped into the top bucket). */
    std::uint64_t overflowCount() const { return overflow_; }
    /** Largest recorded value (after clamping), exact. */
    std::uint64_t max() const { return maxRecorded_; }
    double mean() const
    {
        return count_ == 0 ? 0.0 : sum_ / static_cast<double>(count_);
    }

    /** Relative quantile error bound of this geometry. */
    double
    relativeErrorBound() const
    {
        return 1.0 / static_cast<double>(subBucketCount_);
    }

    /**
     * Value below which @p fraction of samples fall: the midpoint of
     * the bucket containing the target rank (exact for values in the
     * linear region), capped at max() — a midpoint can lie above every
     * sample in its bucket. An empty histogram reports 0.
     */
    double
    percentile(double fraction) const
    {
        if (count_ == 0)
            return 0.0;
        fraction = std::clamp(fraction, 0.0, 1.0);
        const double target =
            fraction * static_cast<double>(count_);
        const double cap = static_cast<double>(maxRecorded_);
        double seen = 0.0;
        for (std::size_t i = 0; i < counts_.size(); ++i) {
            if (counts_[i] == 0)
                continue;
            seen += static_cast<double>(counts_[i]);
            if (target <= seen)
                return std::min(valueAt(i), cap);
        }
        return cap;
    }

  private:
    std::size_t
    indexOf(std::uint64_t v) const
    {
        if (v < subBucketCount_)
            return static_cast<std::size_t>(v);
        int k = std::bit_width(v) - subBucketBits_;  // >= 1
        if (k > expBuckets_)
            k = expBuckets_;  // clamp (v == maxValue_ top range)
        const std::uint64_t sub = v >> k;  // in [half, count)
        return static_cast<std::size_t>(
            subBucketCount_
            + static_cast<std::uint64_t>(k - 1) * subBucketHalf_
            + (sub - subBucketHalf_));
    }

    /** Midpoint of the value range bucket @p idx covers. */
    double
    valueAt(std::size_t idx) const
    {
        if (idx < subBucketCount_)
            return static_cast<double>(idx);
        const std::uint64_t r =
            static_cast<std::uint64_t>(idx) - subBucketCount_;
        const std::uint64_t k = r / subBucketHalf_ + 1;
        const std::uint64_t sub = subBucketHalf_ + r % subBucketHalf_;
        const std::uint64_t lower = sub << k;
        const std::uint64_t width = std::uint64_t{1} << k;
        return static_cast<double>(lower)
            + static_cast<double>(width) / 2.0;
    }

    int subBucketBits_;
    std::uint64_t subBucketCount_;
    std::uint64_t subBucketHalf_;
    std::uint64_t maxValue_;
    int expBuckets_ = 1;
    std::vector<std::uint64_t> counts_;
    std::uint64_t count_ = 0;
    std::uint64_t overflow_ = 0;
    std::uint64_t maxRecorded_ = 0;
    double sum_ = 0.0;
};

} // namespace footprint

#endif // FOOTPRINT_OBS_HDR_HISTOGRAM_HPP
