/**
 * @file
 * Order statistics the benchmark reports: median, quartiles and the
 * tail percentile.  perfbench/compare.py implements the same
 * definitions; both are tested against hand-computed values.
 */

#ifndef PERFBENCH_STATS_HH
#define PERFBENCH_STATS_HH

#include <algorithm>
#include <cstddef>
#include <vector>

namespace perfbench
{

/** Median (mean of the two middle values for an even count); 0 if empty. */
inline double
median(std::vector<double> v)
{
    if (v.empty())
        return 0.0;
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    return n % 2 ? v[n / 2] : 0.5 * (v[n / 2 - 1] + v[n / 2]);
}

/**
 * Quartiles by Python's statistics.quantiles(v, n=4) ("exclusive"
 * method): the p-quantile sits at position p*(n+1) in 1-based order,
 * linearly interpolated and clamped to the sample range.
 */
inline void
quartiles(std::vector<double> v, double &q1, double &q2, double &q3)
{
    q1 = q2 = q3 = 0.0;
    if (v.empty())
        return;
    std::sort(v.begin(), v.end());
    const double n = static_cast<double>(v.size());
    auto at = [&](double p) {
        double pos = p * (n + 1.0);   // 1-based
        if (pos <= 1.0)
            return v.front();
        if (pos >= n)
            return v.back();
        auto lo = static_cast<std::size_t>(pos);   // floor, >= 1
        double frac = pos - static_cast<double>(lo);
        return v[lo - 1] + frac * (v[lo] - v[lo - 1]);
    };
    q1 = at(0.25);
    q2 = at(0.5);
    q3 = at(0.75);
}

/** A tail latency: the value and the percentile it stands for. */
struct Tail
{
    double value = 0.0;
    double percentile = 0.0;   //!< 100 * (n - 10) / n
    std::size_t samples = 0;
};

/**
 * The highest percentile with at least ten samples beyond it: in
 * ascending order, the sample with exactly ten samples above it.  With
 * fewer than forty samples there is no tail worth the name, and the
 * median is returned at percentile 50.
 */
inline Tail
tail(std::vector<double> v)
{
    Tail t;
    t.samples = v.size();
    if (v.size() < 40) {
        t.value = median(std::move(v));
        t.percentile = 50.0;
        return t;
    }
    std::sort(v.begin(), v.end());
    const std::size_t n = v.size();
    t.value = v[n - 11];
    t.percentile = 100.0 * static_cast<double>(n - 10) /
                   static_cast<double>(n);
    return t;
}

} // namespace perfbench

#endif // PERFBENCH_STATS_HH
