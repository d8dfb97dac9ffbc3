/**
 * @file
 * Concurrency tests for the campaign engine (ctest label: engine; run
 * them under ThreadSanitizer via -DAVF_SANITIZE=thread). The engine's
 * contract: results are identical for any worker count, collect()
 * returns tasks in submission order, and a task that throws is
 * reported per-task without poisoning its siblings.
 */

#include <gtest/gtest.h>

#include <atomic>
#include <chrono>
#include <cstdlib>
#include <stdexcept>
#include <string>
#include <thread>
#include <vector>

#include "core/avf_estimator.hh"
#include "core/injection_port.hh"
#include "core/occupancy_estimator.hh"
#include "core/tlb_estimator.hh"
#include "core/utilization_estimator.hh"
#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::harness;
using core::Structure;

ExperimentConfig
tinyConfig(const std::string &bench, int intervals = 2)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile(bench);
    conf.online.m = 250;
    conf.online.n = 200; // 50k-cycle estimation intervals
    conf.numIntervals = intervals;
    conf.lookahead = 8192;
    return conf;
}

std::vector<TaskResult>
runSmallCampaign(unsigned threads, std::uint64_t salt = 0)
{
    RunOptions options;
    options.threads = threads;
    options.seedSalt = salt;
    ExperimentEngine engine(options);
    for (const char *bench : {"mesa", "bzip2", "swim", "perlbmk"})
        engine.submit(bench, tinyConfig(bench));
    return engine.collect();
}

void
expectIdentical(const std::vector<TaskResult> &a,
                const std::vector<TaskResult> &b)
{
    ASSERT_EQ(a.size(), b.size());
    for (std::size_t t = 0; t < a.size(); ++t) {
        EXPECT_EQ(a[t].name, b[t].name);
        EXPECT_TRUE(a[t].ok());
        EXPECT_TRUE(b[t].ok());
        const auto &ra = a[t].result;
        const auto &rb = b[t].result;
        ASSERT_EQ(ra.intervals.size(), rb.intervals.size());
        for (std::size_t k = 0; k < ra.intervals.size(); ++k) {
            for (int s = 0; s < core::numStructures; ++s) {
                EXPECT_DOUBLE_EQ(ra.intervals[k].online[s],
                                 rb.intervals[k].online[s]);
                EXPECT_DOUBLE_EQ(ra.intervals[k].softarch[s],
                                 rb.intervals[k].softarch[s]);
            }
            EXPECT_DOUBLE_EQ(ra.intervals[k].utilization[0],
                             rb.intervals[k].utilization[0]);
            EXPECT_DOUBLE_EQ(ra.intervals[k].occupancy,
                             rb.intervals[k].occupancy);
        }
        EXPECT_EQ(ra.summary.cycles, rb.summary.cycles);
        EXPECT_EQ(ra.summary.retired, rb.summary.retired);
    }
}

TEST(ExperimentEngine, ResultsIdenticalAcrossThreadCounts)
{
    auto serial = runSmallCampaign(1);
    auto two = runSmallCampaign(2);
    auto eight = runSmallCampaign(8);
    expectIdentical(serial, two);
    expectIdentical(serial, eight);
}

TEST(ExperimentEngine, CollectReturnsSubmissionOrder)
{
    RunOptions options;
    options.threads = 4;
    ExperimentEngine engine(options);
    // Later submissions finish first: earlier tasks sleep longer, so
    // completion order is the reverse of submission order.
    for (int i = 0; i < 6; ++i) {
        engine.submit("task" + std::to_string(i), [i] {
            std::this_thread::sleep_for(
                std::chrono::milliseconds(5 * (6 - i)));
            ExperimentResult result;
            result.benchmark = "task" + std::to_string(i);
            return result;
        });
    }
    auto tasks = engine.collect();
    ASSERT_EQ(tasks.size(), 6u);
    for (std::size_t i = 0; i < tasks.size(); ++i) {
        EXPECT_EQ(tasks[i].index, i);
        EXPECT_EQ(tasks[i].name, "task" + std::to_string(i));
        EXPECT_EQ(tasks[i].result.benchmark,
                  "task" + std::to_string(i));
        EXPECT_GE(tasks[i].wallMs, 0.0);
    }
}

TEST(ExperimentEngine, ThrowingTaskDoesNotPoisonSiblings)
{
    RunOptions options;
    options.threads = 2;
    ExperimentEngine engine(options);
    engine.submit("good-1", tinyConfig("mesa", 1));
    engine.submit("bad", []() -> ExperimentResult {
        throw std::runtime_error("deliberate task failure");
    });
    engine.submit("good-2", tinyConfig("bzip2", 1));

    auto tasks = engine.collect();
    ASSERT_EQ(tasks.size(), 3u);
    EXPECT_TRUE(tasks[0].ok());
    EXPECT_FALSE(tasks[1].ok());
    EXPECT_TRUE(tasks[2].ok());
    EXPECT_EQ(tasks[1].errorText, "deliberate task failure");
    EXPECT_TRUE(tasks[1].exception != nullptr);
    EXPECT_EQ(tasks[0].result.intervals.size(), 1u);
    EXPECT_EQ(tasks[2].result.intervals.size(), 1u);
}

TEST(ExperimentEngine, BadConfigIsReportedPerTask)
{
    ExperimentConfig bad = tinyConfig("mesa", 1);
    bad.numIntervals = 0;
    ExperimentEngine engine;
    engine.submit("bad-config", bad);
    engine.submit("good", tinyConfig("swim", 1));
    auto tasks = engine.collect();
    ASSERT_EQ(tasks.size(), 2u);
    EXPECT_FALSE(tasks[0].ok());
    EXPECT_NE(tasks[0].errorText.find("interval"), std::string::npos);
    EXPECT_TRUE(tasks[1].ok());
}

TEST(ExperimentEngine, ProgressCallbackFiresOncePerTask)
{
    RunOptions options;
    options.threads = 4;
    ExperimentEngine engine(options);
    std::atomic<int> calls{0};
    std::atomic<int> withCycles{0};
    engine.onTaskDone([&](const std::string &name, double wallMs,
                          const RunSummary &summary) {
        ++calls;
        EXPECT_FALSE(name.empty());
        EXPECT_GE(wallMs, 0.0);
        if (summary.cycles > 0)
            ++withCycles;
    });
    engine.submit("a", tinyConfig("mesa", 1));
    engine.submit("b", tinyConfig("art", 1));
    engine.submit("fails", []() -> ExperimentResult {
        throw std::runtime_error("boom");
    });
    auto tasks = engine.collect();
    ASSERT_EQ(tasks.size(), 3u);
    EXPECT_EQ(calls.load(), 3);
    // Failed tasks report a zeroed summary; the two real runs do not.
    EXPECT_EQ(withCycles.load(), 2);
}

TEST(ExperimentEngine, EngineIsReusableAcrossBatches)
{
    ExperimentEngine engine(RunOptions{.threads = 2});
    engine.submit("first", tinyConfig("mesa", 1));
    auto batch1 = engine.collect();
    ASSERT_EQ(batch1.size(), 1u);
    engine.submit("second", tinyConfig("bzip2", 1));
    engine.submit("third", tinyConfig("swim", 1));
    auto batch2 = engine.collect();
    ASSERT_EQ(batch2.size(), 2u);
    EXPECT_EQ(batch2[0].name, "second");
    EXPECT_EQ(batch2[1].name, "third");
    EXPECT_EQ(batch2[0].index, 0u);
}

TEST(ExperimentEngine, SeedSaltDerivesFromSubmissionIndex)
{
    // Same salt => same derived seeds => identical campaigns,
    // regardless of worker count.
    auto a = runSmallCampaign(1, 42);
    auto b = runSmallCampaign(8, 42);
    expectIdentical(a, b);
    // A different salt must actually change the sampled workloads.
    auto c = runSmallCampaign(1, 43);
    bool anyDifferent = false;
    for (std::size_t t = 0; t < a.size() && !anyDifferent; ++t)
        anyDifferent = a[t].result.summary.retired !=
                       c[t].result.summary.retired;
    EXPECT_TRUE(anyDifferent);
}

TEST(ExperimentEngine, RunExperimentWrapperMatchesEngine)
{
    auto direct = runExperiment(tinyConfig("mesa"));
    ExperimentEngine engine(RunOptions{.threads = 2});
    engine.submit("mesa", tinyConfig("mesa"));
    auto tasks = engine.collect();
    ASSERT_TRUE(tasks[0].ok());
    ASSERT_EQ(direct.intervals.size(),
              tasks[0].result.intervals.size());
    for (std::size_t k = 0; k < direct.intervals.size(); ++k)
        for (int s = 0; s < core::numStructures; ++s)
            EXPECT_DOUBLE_EQ(direct.intervals[k].online[s],
                             tasks[0].result.intervals[k].online[s]);
}

TEST(ExperimentResultApi, UtilizationSeriesEmptyForStorage)
{
    auto result = runExperiment(tinyConfig("mesa", 1));
    EXPECT_FALSE(result.utilizationSeries(Structure::FXU).empty());
    EXPECT_FALSE(result.utilizationSeries(Structure::FPU).empty());
    // Storage structures have no utilization data: empty, not zeros.
    EXPECT_TRUE(result.utilizationSeries(Structure::IQ).empty());
    EXPECT_TRUE(result.utilizationSeries(Structure::REG).empty());
    EXPECT_TRUE(result.utilizationSeries(Structure::FREG).empty());
    // The occupancy baseline and regression features ride along.
    EXPECT_EQ(result.occupancySeries().size(),
              result.intervals.size());
    EXPECT_EQ(result.features.size(), result.intervals.size());
}

TEST(RunOptionsResolution, EnvFallbacksAreValidated)
{
    ::unsetenv("AVF_FAST");
    ::unsetenv("AVF_INTERVALS");
    EXPECT_EQ(loadRunOptions(100).intervals, 100);
    EXPECT_FALSE(loadRunOptions().fastMode);

    ::setenv("AVF_INTERVALS", "37", 1);
    EXPECT_EQ(loadRunOptions(100).intervals, 37);

    ::setenv("AVF_FAST", "1", 1);
    EXPECT_TRUE(loadRunOptions().fastMode);
    EXPECT_EQ(loadRunOptions(100).intervals, 12);
    ::setenv("AVF_FAST", "off", 1);
    EXPECT_FALSE(loadRunOptions().fastMode);

    ::setenv("AVF_INTERVALS", "abc", 1);
    EXPECT_DEATH(loadRunOptions(), "not an integer");
    ::setenv("AVF_INTERVALS", "-5", 1);
    EXPECT_DEATH(loadRunOptions(), "must be positive");
    ::setenv("AVF_INTERVALS", "12moo", 1);
    EXPECT_DEATH(loadRunOptions(), "not an integer");
    ::unsetenv("AVF_INTERVALS");
    ::setenv("AVF_FAST", "banana", 1);
    EXPECT_DEATH(loadRunOptions(), "not a boolean");

    ::unsetenv("AVF_FAST");
    ::unsetenv("AVF_INTERVALS");
}

TEST(AvfEstimatorInterface, NamesIdentifyMethodAndTarget)
{
    // Every estimator family reports through the same interface.
    trace::SyntheticTraceGenerator gen(trace::specProfile("mesa"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);

    core::InjectionPort port(pipe);
    core::OnlineAvfEstimator online(pipe, Structure::IQ, {}, &port);
    core::UtilizationEstimator util(pipe, cpu::FuClass::Fxu, 10'000);
    core::OccupancyEstimator occ(pipe, 10'000);
    core::TlbAvfEstimator tlb(pipe, port);

    std::vector<core::AvfEstimator *> all = {&online, &util, &occ,
                                             &tlb};
    std::vector<std::string> expected = {
        "online:iq", "utilization:fxu", "occupancy:iq", "online:dtlb"};
    for (std::size_t i = 0; i < all.size(); ++i) {
        EXPECT_EQ(all[i]->name(), expected[i]);
        EXPECT_TRUE(all[i]->estimates().empty());
    }
}

} // namespace
