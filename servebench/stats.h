// Sample statistics shared by the benchmark and its self-test.
//
// Percentiles use the linear-rank convention: the p-th percentile of n
// sorted samples x[0..n-1] sits at rank (n - 1) * p / 100, interpolated
// between neighbouring ranks. The tail rule picks the highest
// percentile that still has at least `min_beyond` samples ranked above
// it, so a tail figure is never an extrapolation from one or two
// outliers.

#pragma once

#include <algorithm>
#include <cmath>
#include <cstddef>
#include <vector>

namespace servebench {

/// Linear-rank percentile p in [0, 100]; 0 for an empty sample.
inline double
percentile(std::vector<double> v, double p)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const double rank = (static_cast<double>(v.size()) - 1.0) * p / 100.0;
    const size_t lo = static_cast<size_t>(std::floor(rank));
    const size_t hi = std::min(lo + 1, v.size() - 1);
    const double frac = rank - static_cast<double>(lo);
    return v[lo] + (v[hi] - v[lo]) * frac;
}

inline double
median(std::vector<double> v)
{
    return percentile(std::move(v), 50.0);
}

/// A tail figure with the evidence behind it.
struct Tail
{
    double value = 0.0;      ///< sample value at the chosen rank
    double percentile = 0.0; ///< the percentile that rank represents
    size_t samples = 0;      ///< n
    size_t beyond = 0;       ///< samples ranked above the chosen one
};

/// The highest percentile with at least @p min_beyond samples ranked
/// above it: rank k = n - 1 - min_beyond, percentile 100 * k / (n - 1).
/// Ties are ranked by position, so a run of equal values still leaves
/// exactly min_beyond samples beyond the chosen rank. With too few
/// samples (n <= min_beyond) the rule falls back to the minimum
/// (percentile 0), which the caller reports with its sample count.
inline Tail
tailPercentile(std::vector<double> v, size_t min_beyond = 10)
{
    Tail t;
    t.samples = v.size();
    if (v.empty())
        return t;
    std::sort(v.begin(), v.end());
    const size_t n = v.size();
    const size_t k = n > min_beyond ? n - 1 - min_beyond : 0;
    t.value = v[k];
    t.percentile =
        n > 1 ? 100.0 * static_cast<double>(k) / static_cast<double>(n - 1)
              : 0.0;
    t.beyond = n - 1 - k;
    return t;
}

} // namespace servebench
