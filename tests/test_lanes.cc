/**
 * @file
 * Lane-vs-serial equivalence suite (ctest label `lanes`): pins the
 * InjectionPort contract's lane-independence guarantee. Four layers:
 * the ErrorPlane factors into 64 non-interacting single-lane planes;
 * a port window's outcome is unchanged by traffic on other lanes;
 * lane-parallel campaigns (lanes=64) agree statistically with the
 * serial estimator (lanes=1); and the METRICS.json bytes of a
 * lanes=64 campaign are identical at 1 and 8 workers. Plus the
 * AVF_LANES fail-fast validation contract.
 */

#include <gtest/gtest.h>

#include <stdlib.h>

#include <array>
#include <cstdio>
#include <fstream>
#include <map>
#include <sstream>
#include <string>
#include <utility>
#include <vector>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/error_plane.hh"
#include "util/random.hh"
#include "util/types.hh"

namespace
{

using namespace avf;
using namespace avf::harness;
using core::Site;
using core::Structure;

// ---------------------------------------------------------------- //
// ErrorPlane: lanes never interact                                  //
// ---------------------------------------------------------------- //

// The plane's documented invariant: the state of lane k after any
// operation sequence equals the state of a one-lane plane fed the
// same sequence masked to bit k. Checked against a full per-lane
// reference, all 64 lanes.
TEST(LaneEquivalence, PlaneStateFactorsIntoIndependentLanes)
{
    constexpr std::size_t kEntries = 48;
    Rng rng(20080624); // ISCA'08

    ErrorPlane full(kEntries);
    std::array<ErrorPlane, numErrorChannels> perLane;
    for (auto &plane : perLane)
        plane.resize(kEntries);

    for (int step = 0; step < 3000; ++step) {
        auto idx = static_cast<std::size_t>(rng.below(kEntries));
        ErrorMask mask = rng.next();
        switch (rng.below(3)) {
          case 0:
            full.orMask(idx, mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].orMask(idx, mask & laneBit(k));
            break;
          case 1:
            // setMask overwrites the whole word (the kill
            // discipline), which is the one op whose per-lane
            // projection also clears the lane's bit when absent
            // from the mask — the factoring must survive it.
            full.setMask(idx, mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].setMask(idx, mask & laneBit(k));
            break;
          default:
            full.clearChannels(mask);
            for (int k = 0; k < numErrorChannels; ++k)
                perLane[k].clearChannels(mask & laneBit(k));
            break;
        }
    }

    for (std::size_t idx = 0; idx < kEntries; ++idx)
        for (int k = 0; k < numErrorChannels; ++k)
            ASSERT_EQ(full.get(idx) & laneBit(k),
                      perLane[k].get(idx))
                << "entry " << idx << " lane " << k;
}

// ---------------------------------------------------------------- //
// InjectionPort: a window's outcome ignores other lanes             //
// ---------------------------------------------------------------- //

struct PortRig
{
    explicit PortRig(unsigned warmupCycles)
        : gen(trace::specProfile("mesa")),
          pipe(cpu::CpuConfig{}, gen),
          port(pipe)
    {
        pipe.addObserver(&port);
        for (unsigned c = 0; c < warmupCycles; ++c)
            pipe.step();
    }

    trace::SyntheticTraceGenerator gen;
    cpu::Pipeline pipe;
    core::InjectionPort port;
};

struct WindowResult
{
    bool failed = false;
    bool live = false;
    InjectOutcome inject = InjectOutcome::Rejected;
    Cycle openedAt = 0;
    Cycle failCycle = 0;
};

/**
 * Fresh deterministic pipeline, warm 2000 cycles, open every window
 * in @p opens at the same cycle, run 600 more cycles, close all in
 * lane order, and report the @p probe lane's outcome.
 */
WindowResult
probeWindow(const std::vector<std::pair<LaneId, Site>> &opens,
            LaneId probe)
{
    PortRig rig(2'000);
    for (const auto &[lane, site] : opens)
        rig.port.reserveLane(lane);

    Cycle now = rig.pipe.now();
    std::map<LaneId, core::WindowHandle> handles;
    for (const auto &[lane, site] : opens)
        handles[lane] = rig.port.open(lane, site, now);

    for (int c = 0; c < 600; ++c)
        rig.pipe.step();

    WindowResult result;
    for (auto &[lane, handle] : handles) {
        core::Outcome out = rig.port.closed(handle);
        if (lane == probe)
            result = {out.failed, out.live, handle.inject,
                      out.openedAt, out.failCycle};
    }
    rig.port.clearLanes(rig.port.reservedMask());
    return result;
}

Site
regSite(int entry)
{
    return {cpu::InjectTarget::IntReg, entry};
}

Site
structSite(Structure s, int entry)
{
    return {core::injectTargetOf(s, false), entry};
}

TEST(LaneEquivalence, WindowOutcomeUnaffectedByOtherLanes)
{
    // Probe several register sites so both fates (failure within the
    // window and masked-to-the-end) are exercised; whichever way a
    // solo window goes, the identical window in a crowded port must
    // go the same way with the same cycle stamps.
    for (int entry : {3, 5, 9, 17, 26}) {
        WindowResult solo = probeWindow({{2, regSite(entry)}}, 2);

        std::vector<std::pair<LaneId, Site>> crowded = {
            {0, regSite(entry + 1)},
            {2, regSite(entry)}, // the probe, same site and cycle
            {5, structSite(Structure::IQ, 3)},
            {7, structSite(Structure::FXU, 0)},
            {63, regSite(entry + 2)},
        };
        WindowResult busy = probeWindow(crowded, 2);

        EXPECT_EQ(solo.failed, busy.failed) << "reg " << entry;
        EXPECT_EQ(solo.live, busy.live) << "reg " << entry;
        // A register injection always lands on live state.
        EXPECT_EQ(solo.inject, InjectOutcome::Occupied) << "reg " << entry;
        EXPECT_EQ(busy.inject, InjectOutcome::Occupied) << "reg " << entry;
        EXPECT_EQ(solo.openedAt, busy.openedAt) << "reg " << entry;
        EXPECT_EQ(solo.failCycle, busy.failCycle) << "reg " << entry;
    }
}

// ---------------------------------------------------------------- //
// Campaign level: lanes=64 agrees with the serial estimator         //
// ---------------------------------------------------------------- //

ExperimentConfig
laneConfig(int lanes)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("bzip2");
    conf.online.m = 200;
    conf.online.n = 400;
    conf.online.lanes = lanes;
    conf.numIntervals = 2;
    conf.lookahead = 8'192;
    return conf;
}

ExperimentResult
runWithLanes(int lanes)
{
    return runExperiment(laneConfig(lanes));
}

// lanes = 0 is the default lane count on every path, the experiment
// body included, not the serial one lane.
TEST(LaneEquivalence, DirectLanesZeroIsTheDefaultLaneCount)
{
    const auto inherited = detail::runExperimentDirect(laneConfig(0));
    const auto explicitDefault =
        detail::runExperimentDirect(laneConfig(RunOptions{}.lanes));
    EXPECT_EQ(inherited.summary.cycles, explicitDefault.summary.cycles);
    ASSERT_EQ(inherited.intervals.size(),
              explicitDefault.intervals.size());
    for (std::size_t k = 0; k < inherited.intervals.size(); ++k)
        for (int s = 0; s < core::numStructures; ++s)
            EXPECT_EQ(inherited.intervals[k].online[s],
                      explicitDefault.intervals[k].online[s])
                << "interval " << k << " structure " << s;
}

TEST(LaneEquivalence, LaneParallelAvfMatchesSerialStatistically)
{
    auto serial = runWithLanes(1);
    auto parallel = runWithLanes(64);
    ASSERT_EQ(serial.intervals.size(), parallel.intervals.size());

    // Same M, same N, same round-robin site coverage — only the
    // window scheduling differs, so the two estimators sample the
    // same population and the per-structure run averages must agree
    // to sampling noise (N=400 per interval).
    for (int s = 0; s < core::numStructures; ++s) {
        double sumSerial = 0.0;
        double sumParallel = 0.0;
        for (std::size_t k = 0; k < serial.intervals.size(); ++k) {
            sumSerial += serial.intervals[k].online[s];
            sumParallel += parallel.intervals[k].online[s];
        }
        double count = static_cast<double>(serial.intervals.size());
        EXPECT_NEAR(sumSerial / count, sumParallel / count, 0.15)
            << core::structureName(static_cast<Structure>(s));
    }
}

// ---------------------------------------------------------------- //
// Worker invariance: lanes=64 METRICS.json bytes                    //
// ---------------------------------------------------------------- //

std::string
metricsJsonAtWorkers(unsigned threads)
{
    RunOptions options;
    options.threads = threads;
    options.lanes = 64;
    ExperimentEngine engine(options);
    for (const char *bench : {"mesa", "bzip2", "swim"}) {
        ExperimentConfig conf;
        conf.profile = trace::specProfile(bench);
        conf.online.m = 250;
        conf.online.n = 200;
        conf.numIntervals = 2;
        conf.lookahead = 8'192;
        conf.metrics = true;
        engine.submit(bench, conf);
    }
    auto tasks = engine.collect();
    std::string path = ::testing::TempDir() + "lanes_w" +
        std::to_string(threads) + "_METRICS.json";
    writeMetricsJson(path, "lanes-equivalence", tasks);
    std::ifstream in(path);
    std::stringstream ss;
    ss << in.rdbuf();
    std::remove(path.c_str());
    return ss.str();
}

TEST(LaneEquivalence, MetricsBytesIdenticalAcrossWorkerCounts)
{
    std::string one = metricsJsonAtWorkers(1);
    std::string eight = metricsJsonAtWorkers(8);
    ASSERT_FALSE(one.empty());
    EXPECT_EQ(one, eight);
    // The lane count itself is part of the snapshot.
    EXPECT_NE(one.find("\"injection_lanes\""), std::string::npos);
}

// ---------------------------------------------------------------- //
// AVF_LANES validation contract                                     //
// ---------------------------------------------------------------- //

TEST(LaneEquivalence, AvfLanesEnvIsValidatedFailFast)
{
    ::unsetenv("AVF_LANES");
    EXPECT_EQ(loadRunOptions().lanes, 64);

    ::setenv("AVF_LANES", "1", 1);
    EXPECT_EQ(loadRunOptions().lanes, 1);
    ::setenv("AVF_LANES", "8", 1);
    EXPECT_EQ(loadRunOptions().lanes, 8);
    ::setenv("AVF_LANES", "64", 1);
    EXPECT_EQ(loadRunOptions().lanes, 64);

    ::setenv("AVF_LANES", "0", 1);
    EXPECT_DEATH(loadRunOptions(), "must be positive");
    ::setenv("AVF_LANES", "-3", 1);
    EXPECT_DEATH(loadRunOptions(), "must be positive");
    ::setenv("AVF_LANES", "65", 1);
    EXPECT_DEATH(loadRunOptions(), "exceeds the 64-bit error plane");
    ::setenv("AVF_LANES", "8moo", 1);
    EXPECT_DEATH(loadRunOptions(), "not an integer");
    ::unsetenv("AVF_LANES");
}

// Out-of-range lane requests are rejected at the experiment layer
// too, not just at the env boundary.
TEST(LaneEquivalence, ExperimentRejectsOutOfRangeLanes)
{
    ExperimentConfig conf;
    conf.profile = trace::specProfile("mesa");
    conf.online.lanes = 65;
    conf.numIntervals = 1;
    EXPECT_THROW(runExperiment(conf), std::invalid_argument);
}

} // namespace
