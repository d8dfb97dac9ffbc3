#include "core/regression_estimator.hh"

#include <algorithm>
#include <cmath>

#include "trace/instruction.hh"
#include "util/logging.hh"

namespace avf::core
{

FeatureCollector::FeatureCollector(const cpu::Pipeline &pipe,
                                   Cycle intervalCycles)
    : pipeline(pipe), intervalLen(intervalCycles),
      boundaryTick(intervalCycles, intervalCycles - 1)
{
    avf_assert(intervalLen > 0, "interval length must be positive");
}

void
FeatureCollector::onRetire(const cpu::DynInstr &instr,
                           const cpu::RetireInfo &)
{
    using trace::OpClass;
    switch (instr.in.op) {
      case OpClass::Load: ++loads; break;
      case OpClass::Store: ++stores; break;
      case OpClass::BranchCond:
      case OpClass::BranchUncond: ++branches; break;
      default: break;
    }
}

void
FeatureCollector::onCycle(Cycle now)
{
    // Interval k covers cycles [k * len, (k+1) * len); close it at
    // the end of its last cycle.
    if (!boundaryTick.tick(now))
        return;

    const auto &stats = pipeline.stats();
    const auto &conf = pipeline.config();
    auto cycles = static_cast<double>(intervalLen);

    FeatureVector row{};
    row[0] = 1.0; // intercept
    row[1] = static_cast<double>(stats.iqOccupancySum - lastIqOcc) /
             (cycles * conf.totalIqEntries());
    row[2] = static_cast<double>(stats.robOccupancySum - lastRobOcc) /
             (cycles * conf.robEntries);
    auto busy = [&](cpu::FuClass cls) {
        int idx = static_cast<int>(cls);
        double delta = static_cast<double>(
            stats.busyUnitCycles[idx] - lastBusy[idx]);
        return delta / (cycles * conf.unitsIn(cls));
    };
    row[3] = busy(cpu::FuClass::Fxu);
    row[4] = busy(cpu::FuClass::Fpu);
    std::uint64_t retired = stats.retired - lastRetired;
    double instrs = std::max<double>(1.0,
                                     static_cast<double>(retired));
    row[5] = static_cast<double>(loads) / instrs;
    row[6] = static_cast<double>(stores) / instrs;
    row[7] = static_cast<double>(branches) / instrs;
    row[8] = static_cast<double>(retired) / cycles; // IPC
    // One feature row per estimation interval.
    // avflint: allow(hot-path-alloc)
    rows.push_back(row);

    lastIqOcc = stats.iqOccupancySum;
    lastRobOcc = stats.robOccupancySum;
    for (int c = 0; c < 4; ++c)
        lastBusy[c] = stats.busyUnitCycles[c];
    lastRetired = stats.retired;
    loads = stores = branches = 0;
}

void
LinearAvfModel::fit(const std::vector<FeatureVector> &features,
                    const std::vector<double> &targets, double ridge)
{
    avf_assert(features.size() == targets.size(),
               "feature/target count mismatch");
    avf_assert(!features.empty(), "cannot fit on zero samples");
    avf_assert(ridge > 0.0, "ridge must be positive");

    constexpr int n = numRegressionFeatures;
    double xtx[n][n] = {};
    double xty[n] = {};
    for (std::size_t r = 0; r < features.size(); ++r) {
        const auto &row = features[r];
        for (int i = 0; i < n; ++i) {
            xty[i] += row[static_cast<std::size_t>(i)] * targets[r];
            for (int j = 0; j < n; ++j)
                xtx[i][j] += row[static_cast<std::size_t>(i)] *
                             row[static_cast<std::size_t>(j)];
        }
    }
    for (int i = 0; i < n; ++i)
        xtx[i][i] += ridge;

    // Gaussian elimination with partial pivoting.
    for (int col = 0; col < n; ++col) {
        int pivot = col;
        for (int r = col + 1; r < n; ++r)
            if (std::fabs(xtx[r][col]) > std::fabs(xtx[pivot][col]))
                pivot = r;
        if (pivot != col) {
            for (int c = 0; c < n; ++c)
                std::swap(xtx[col][c], xtx[pivot][c]);
            std::swap(xty[col], xty[pivot]);
        }
        avf_assert(std::fabs(xtx[col][col]) > 1e-15,
                   "singular normal equations despite ridge");
        for (int r = col + 1; r < n; ++r) {
            double factor = xtx[r][col] / xtx[col][col];
            for (int c = col; c < n; ++c)
                xtx[r][c] -= factor * xtx[col][c];
            xty[r] -= factor * xty[col];
        }
    }
    for (int row = n - 1; row >= 0; --row) {
        double acc = xty[row];
        for (int c = row + 1; c < n; ++c)
            acc -= xtx[row][c] * coeff[static_cast<std::size_t>(c)];
        coeff[static_cast<std::size_t>(row)] = acc / xtx[row][row];
    }
    isTrained = true;
}

double
LinearAvfModel::predict(const FeatureVector &row) const
{
    avf_assert(isTrained, "predict() before fit()");
    double acc = 0.0;
    for (int i = 0; i < numRegressionFeatures; ++i)
        acc += coeff[static_cast<std::size_t>(i)] *
               row[static_cast<std::size_t>(i)];
    return std::clamp(acc, 0.0, 1.0);
}

std::vector<double>
LinearAvfModel::predictSeries(
    const std::vector<FeatureVector> &rows) const
{
    std::vector<double> out;
    out.reserve(rows.size());
    for (const auto &row : rows)
        out.push_back(predict(row));
    return out;
}

} // namespace avf::core
