#include "obs/metrics.hh"

#include "util/json.hh"
#include "util/logging.hh"

namespace avf::obs
{

namespace
{

void
writeHistogramJson(json::Writer &out,
                   const stats::HistogramSnapshot &hist)
{
    out.startObject()
        .member("lo").fixed(hist.lo, 6)
        .member("hi").fixed(hist.hi, 6)
        .member("bins").startArray();
    for (std::uint64_t bin : hist.bins)
        out.uint(bin);
    out.endArray()
        .member("underflow").uint(hist.underflow)
        .member("overflow").uint(hist.overflow)
        .member("total").uint(hist.total)
        .endObject();
}

} // namespace

bool
validMetricName(std::string_view name)
{
    if (name.empty() || name.front() < 'a' || name.front() > 'z')
        return false;
    for (char c : name) {
        bool ok = (c >= 'a' && c <= 'z') || (c >= '0' && c <= '9') ||
                  c == '_';
        if (!ok)
            return false;
    }
    return true;
}

std::uint64_t
MetricsSnapshot::counterValue(std::string_view name) const
{
    for (const auto &[n, v] : counters)
        if (n == name)
            return v;
    return 0;
}

const std::vector<double> *
MetricsSnapshot::findSeries(std::string_view name) const
{
    for (const auto &[n, v] : series)
        if (n == name)
            return &v;
    return nullptr;
}

void
MetricsSnapshot::mergeTotals(const MetricsSnapshot &other)
{
    enabled = enabled || other.enabled;
    for (const auto &[name, value] : other.counters) {
        bool found = false;
        for (auto &[mine, total] : counters) {
            if (mine == name) {
                total = saturatingAdd(total, value);
                found = true;
                break;
            }
        }
        if (!found)
            counters.emplace_back(name, value);
    }
    for (const auto &[name, hist] : other.histograms) {
        bool found = false;
        for (auto &[mine, total] : histograms) {
            if (mine != name)
                continue;
            avf_assert(total.bins.size() == hist.bins.size() &&
                           total.lo == hist.lo && total.hi == hist.hi,
                       "histogram '%s' merged across mismatched "
                       "shapes", name.c_str());
            for (std::size_t b = 0; b < hist.bins.size(); ++b)
                total.bins[b] =
                    saturatingAdd(total.bins[b], hist.bins[b]);
            total.underflow =
                saturatingAdd(total.underflow, hist.underflow);
            total.overflow =
                saturatingAdd(total.overflow, hist.overflow);
            total.total = saturatingAdd(total.total, hist.total);
            found = true;
            break;
        }
        if (!found)
            histograms.emplace_back(name, hist);
    }
    // Gauges and series deliberately not folded; see header.
}

void
MetricsSnapshot::writeJson(json::Writer &out) const
{
    using Layout = json::Writer::Layout;
    out.startObject(Layout::Lines).member("counters").startObject();
    for (const auto &[name, value] : counters)
        out.member(name).uint(value);
    out.endObject().member("gauges").startObject();
    for (const auto &[name, value] : gauges)
        out.member(name).fixed(value, 6);
    out.endObject().member("histograms").startObject(Layout::Lines);
    for (const auto &[name, hist] : histograms)
        writeHistogramJson(out.member(name), hist);
    out.endObject().member("series").startObject(Layout::Lines);
    for (const auto &[name, values] : series) {
        out.member(name).startArray();
        for (double v : values)
            out.fixed(v, 6);
        out.endArray();
    }
    out.endObject().endObject();
}

void
MetricsShard::claimName(const std::string &name)
{
    avf_assert(validMetricName(name),
               "metric name '%s' is not snake_case", name.c_str());
    avf_assert(names.insert(name).second,
               "metric '%s' registered twice", name.c_str());
}

MetricsShard::Id
MetricsShard::registerCounter(std::string name)
{
    claimName(name);
    counters.emplace_back(std::move(name), 0);
    return static_cast<Id>(counters.size() - 1);
}

MetricsShard::Id
MetricsShard::registerGauge(std::string name)
{
    claimName(name);
    gauges.emplace_back(std::move(name), 0.0);
    return static_cast<Id>(gauges.size() - 1);
}

MetricsShard::Id
MetricsShard::registerHistogram(std::string name, double lo, double hi,
                                std::size_t bins)
{
    claimName(name);
    hists.emplace_back(std::move(name),
                       stats::Histogram(lo, hi, bins));
    return static_cast<Id>(hists.size() - 1);
}

MetricsShard::Id
MetricsShard::registerSeries(std::string name)
{
    claimName(name);
    seriesData.emplace_back(std::move(name), std::vector<double>{});
    return static_cast<Id>(seriesData.size() - 1);
}

void
MetricsShard::inc(Id counter, std::uint64_t delta)
{
    auto &value = counters[counter].second;
    value = saturatingAdd(value, delta);
}

void
MetricsShard::set(Id gauge, double value)
{
    gauges[gauge].second = value;
}

void
MetricsShard::observe(Id histogram, double value)
{
    hists[histogram].second.add(value);
}

void
MetricsShard::push(Id series, double value)
{
    // Series grow by one point per closed estimation interval, not
    // per cycle; length is workload-dependent, so no bound to
    // reserve. avflint: allow(hot-path-alloc)
    seriesData[series].second.push_back(value);
}

const std::vector<double> &
MetricsShard::seriesValues(Id series) const
{
    avf_assert(series < seriesData.size(),
               "series id out of range");
    return seriesData[series].second;
}

std::uint64_t
MetricsShard::counterValue(Id counter) const
{
    avf_assert(counter < counters.size(),
               "counter id out of range");
    return counters[counter].second;
}

MetricsSnapshot
MetricsShard::snapshot() const
{
    MetricsSnapshot out;
    out.enabled = true;
    out.counters = counters;
    out.gauges = gauges;
    out.histograms.reserve(hists.size());
    for (const auto &[name, hist] : hists)
        out.histograms.emplace_back(name, hist.snapshot());
    out.series = seriesData;
    return out;
}

} // namespace avf::obs
