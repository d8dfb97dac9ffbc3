#include "stats/running_stats.hh"

#include <cmath>

namespace avf::stats
{

void
RunningStats::add(double x)
{
    ++n;
    double delta = x - meanAcc;
    meanAcc += delta / static_cast<double>(n);
    m2 += delta * (x - meanAcc);
    if (x < minVal)
        minVal = x;
    if (x > maxVal)
        maxVal = x;
}

double
mean(const std::vector<double> &values)
{
    RunningStats acc;
    for (double x : values)
        acc.add(x);
    return acc.mean();
}

double
RunningStats::variance() const
{
    if (n < 2)
        return 0.0;
    return m2 / static_cast<double>(n - 1);
}

double
RunningStats::stddev() const
{
    return std::sqrt(variance());
}

double
RunningStats::populationVariance() const
{
    if (n == 0)
        return 0.0;
    return m2 / static_cast<double>(n);
}

void
RunningStats::merge(const RunningStats &other)
{
    if (other.n == 0)
        return;
    if (n == 0) {
        *this = other;
        return;
    }
    double delta = other.meanAcc - meanAcc;
    std::uint64_t total = n + other.n;
    double nA = static_cast<double>(n);
    double nB = static_cast<double>(other.n);
    double nT = static_cast<double>(total);
    m2 += other.m2 + delta * delta * nA * nB / nT;
    meanAcc += delta * nB / nT;
    n = total;
    if (other.minVal < minVal)
        minVal = other.minVal;
    if (other.maxVal > maxVal)
        maxVal = other.maxVal;
}

void
RunningStats::clear()
{
    *this = RunningStats();
}

} // namespace avf::stats
