/**
 * @file
 * Hot paths of the obs/metrics registry: counter increments through a
 * pre-registered Id (the cost every instrumented site pays), histogram
 * observation, and the end-of-run snapshot + campaign merge +
 * serialization path that collect() executes once per task. The
 * acceptance bar for the observability layer is that recording stays
 * an array add — these numbers are the canary.
 */

#include "micro.hh"

#include <string>

#include "obs/metrics.hh"

namespace
{

using avf::obs::MetricsShard;
using avf::obs::MetricsSnapshot;

/** A shard shaped like collectRunMetrics() output: a realistic mix. */
MetricsShard
populatedShard()
{
    MetricsShard shard;
    auto cycles = shard.registerCounter("bm_cycles_total");
    auto retired = shard.registerCounter("bm_retired_total");
    auto ipc = shard.registerGauge("bm_ipc");
    auto hist = shard.registerHistogram("bm_avf_hist", 0.0, 1.0, 20);
    auto series = shard.registerSeries("bm_avf");
    for (int i = 0; i < 100; ++i) {
        shard.inc(cycles, 1000);
        shard.inc(retired, 800);
        shard.observe(hist, (i % 20) * 0.05);
        shard.push(series, (i % 20) * 0.05);
    }
    shard.set(ipc, 0.8);
    return shard;
}

} // namespace

AVF_MICROBENCH(metrics_counter_inc)
{
    MetricsShard shard;
    auto id = shard.registerCounter("bm_inc_total");
    b.setItems(64);
    while (b.next()) {
        for (int i = 0; i < 64; ++i)
            shard.inc(id);
        avf::micro::clobberMemory();
    }
    avf::micro::doNotOptimize(shard);
}

AVF_MICROBENCH(metrics_histogram_observe)
{
    MetricsShard shard;
    auto id = shard.registerHistogram("bm_obs_hist", 0.0, 1.0, 20);
    b.setItems(64);
    double x = 0.0;
    while (b.next()) {
        for (int i = 0; i < 64; ++i) {
            shard.observe(id, x);
            x += 0.0173;
            if (x >= 1.0)
                x -= 1.0;
        }
        avf::micro::clobberMemory();
    }
    avf::micro::doNotOptimize(shard);
}

AVF_MICROBENCH(metrics_snapshot_merge)
{
    MetricsShard shard = populatedShard();
    while (b.next()) {
        MetricsSnapshot totals = shard.snapshot();
        totals.mergeTotals(shard.snapshot());
        avf::micro::doNotOptimize(totals);
    }
}

AVF_MICROBENCH(metrics_write_json)
{
    MetricsSnapshot snap = populatedShard().snapshot();
    while (b.next()) {
        std::string text;
        avf::json::Writer out(text, avf::json::Writer::Style::Spaced);
        snap.writeJson(out);
        avf::micro::doNotOptimize(text);
    }
}
