/**
 * @file
 * The serve layer's contracts, bottom up: estimator snapshot/restore
 * round-trips per family, the wire codec's byte-exactness, protocol
 * validation (hostile lines must never reach fatal()), feed
 * byte-identity across shard counts, crash-resume byte-identity
 * (including a torn trailing line and a mid-campaign checkpoint),
 * and the daemon's malformed-request rejection over a real socket.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <ctime>
#include <fstream>
#include <sstream>
#include <stdexcept>
#include <thread>

#include <sys/stat.h>

#include "core/injection_port.hh"
#include "core/occupancy_estimator.hh"
#include "core/online_estimator.hh"
#include "core/regression_estimator.hh"
#include "core/tlb_estimator.hh"
#include "core/utilization_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/experiment.hh"
#include "harness/task_codec.hh"
#include "obs/attribution.hh"
#include "obs/coverage_probe.hh"
#include "obs/feed_writer.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/daemon.hh"
#include "serve/protocol.hh"
#include "serve/sharder.hh"
#include "trace/synthetic.hh"

namespace
{

using namespace avf;
using namespace avf::core;

/** A simple all-integer profile with controllable deadness. */
trace::WorkloadProfile
intProfile(double deadFrac, const char *name)
{
    trace::WorkloadProfile prof;
    prof.name = name;
    prof.base.fpFrac = 0.0;
    prof.base.fpLoadFrac = 0.0;
    prof.base.loadFrac = 0.2;
    prof.base.storeFrac = 0.15;
    prof.base.branchFrac = 0.08;
    prof.base.deadFrac = deadFrac;
    prof.base.footprint = 64 * 1024;
    return prof;
}

bool
sameState(const EstimatorState &a, const EstimatorState &b)
{
    return a.name == b.name && a.counters == b.counters &&
           a.values == b.values && a.estimates == b.estimates;
}

/** Small but multi-slice campaign used by the identity tests. */
serve::CampaignSpec
tinySpec(const char *name)
{
    serve::CampaignSpec spec;
    spec.name = name;
    spec.benchmark = "bzip2";
    spec.intervals = 6;
    spec.sliceIntervals = 2;
    spec.m = 200;
    spec.n = 40;
    spec.seedSalt = 7;
    spec.checkpointEverySlices = 1;
    return spec;
}

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

// ---------------------------------------------------------------- //
// Estimator snapshot/restore round-trips                            //
// ---------------------------------------------------------------- //

TEST(EstimatorSnapshot, OnlineRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "snap"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    OnlineConfig conf;
    conf.m = 10;
    conf.n = 20;
    OnlineAvfEstimator est(pipe, Structure::REG, conf);
    pipe.addObserver(&est);
    pipe.run(10 * 20 * 3 + 7); // three estimates plus a torn window

    EstimatorState state = est.snapshotState();
    EXPECT_EQ(state.name, est.name());
    EXPECT_GT(state.counterValue("lifetime_injections"), 0u);
    EXPECT_EQ(state.estimates.size(), 3u);

    trace::SyntheticTraceGenerator gen2(intProfile(0.2, "snap"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    OnlineAvfEstimator fresh(pipe2, Structure::REG, conf);
    fresh.restoreState(state);
    EXPECT_TRUE(sameState(fresh.snapshotState(), state));
    EXPECT_EQ(fresh.estimates(), est.estimates());
}

TEST(EstimatorSnapshot, UtilizationAndOccupancyRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.1, "util"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    UtilizationEstimator util(pipe, cpu::FuClass::Fxu, 150);
    OccupancyEstimator occ(pipe, 150);
    pipe.addObserver(&util);
    pipe.addObserver(&occ);
    pipe.run(700);

    for (AvfEstimator *est :
         {static_cast<AvfEstimator *>(&util),
          static_cast<AvfEstimator *>(&occ)}) {
        EstimatorState state = est->snapshotState();
        EXPECT_EQ(state.name, est->name());
        EXPECT_FALSE(state.estimates.empty());
    }

    trace::SyntheticTraceGenerator gen2(intProfile(0.1, "util"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    UtilizationEstimator util2(pipe2, cpu::FuClass::Fxu, 150);
    util2.restoreState(util.snapshotState());
    EXPECT_TRUE(
        sameState(util2.snapshotState(), util.snapshotState()));
    OccupancyEstimator occ2(pipe2, 150);
    occ2.restoreState(occ.snapshotState());
    EXPECT_TRUE(sameState(occ2.snapshotState(), occ.snapshotState()));
}

TEST(EstimatorSnapshot, TlbRoundTrip)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "tlb"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    TlbAvfEstimator est(pipe);
    pipe.addObserver(&est);
    pipe.run(3000);

    EstimatorState state = est.snapshotState();
    trace::SyntheticTraceGenerator gen2(intProfile(0.2, "tlb"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    TlbAvfEstimator fresh(pipe2);
    fresh.restoreState(state);
    EXPECT_TRUE(sameState(fresh.snapshotState(), state));
}

TEST(EstimatorSnapshot, CoverageProbeRoundTrip)
{
    obs::AttributionConfig at;
    at.enabled = true;
    at.phaseCycles = 1000;
    obs::CoverageProbeConfig conf;
    conf.m = 50;
    conf.n = 10;

    trace::SyntheticTraceGenerator gen(intProfile(0.2, "probe"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    InjectionPort port(pipe);
    pipe.addObserver(&port);
    obs::AttributionTracker tracker(at);
    obs::CoverageProbe probe(pipe, port, tracker,
                             obs::CoverageTarget::RenameMap, conf);
    pipe.addObserver(&probe);
    pipe.run(50 * 10 * 3 + 7); // three estimates plus a torn window

    EstimatorState state = probe.snapshotState();
    EXPECT_EQ(state.name, "probe:rename_map");
    EXPECT_EQ(state.counterValue("lifetime_injections"), 30u);
    EXPECT_EQ(state.estimates.size(), 3u);

    trace::SyntheticTraceGenerator gen2(intProfile(0.2, "probe"));
    cpu::Pipeline pipe2(cpu::CpuConfig{}, gen2);
    InjectionPort port2(pipe2);
    obs::AttributionTracker tracker2(at);
    obs::CoverageProbe fresh(pipe2, port2, tracker2,
                             obs::CoverageTarget::RenameMap, conf);
    fresh.restoreState(state);
    EXPECT_TRUE(sameState(fresh.snapshotState(), state));
    EXPECT_EQ(fresh.estimates(), probe.estimates());

    obs::CoverageProbe other(pipe2, port2, tracker2,
                             obs::CoverageTarget::BranchPred, conf);
    EXPECT_THROW(other.restoreState(state), std::invalid_argument);

    // A cursor past the target's slots is malformed input, not a site.
    EstimatorState corrupt = state;
    for (auto &[key, value] : corrupt.counters)
        if (key == "cursor")
            value = 1u << 20;
    EXPECT_THROW(fresh.restoreState(corrupt), std::invalid_argument);
}

TEST(EstimatorSnapshot, RegressionRoundTripKeepsCalibration)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "reg"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);

    LinearAvfModel model;
    FeatureVector weights{};
    for (std::size_t i = 0; i < weights.size(); ++i)
        weights[i] = 0.125 * static_cast<double>(i) - 0.25;
    model.setWeights(weights);
    RegressionEstimator trained(pipe, 100, model);

    EstimatorState state = trained.snapshotState();
    EXPECT_EQ(state.counterValue("trained"), 1u);

    RegressionEstimator fresh(pipe, 100);
    EXPECT_EQ(fresh.snapshotState().counterValue("trained"), 0u);
    fresh.restoreState(state);
    EstimatorState restored = fresh.snapshotState();
    EXPECT_TRUE(sameState(restored, state));
    for (std::size_t i = 0; i < weights.size(); ++i)
        EXPECT_EQ(restored.valueOf("w" + std::to_string(i)),
                  weights[i]);
}

TEST(EstimatorSnapshot, NameMismatchThrows)
{
    trace::SyntheticTraceGenerator gen(intProfile(0.2, "mismatch"));
    cpu::Pipeline pipe(cpu::CpuConfig{}, gen);
    OnlineConfig conf;
    OnlineAvfEstimator iq(pipe, Structure::IQ, conf);
    OnlineAvfEstimator reg(pipe, Structure::REG, conf);
    EXPECT_THROW(reg.restoreState(iq.snapshotState()),
                 std::invalid_argument);

    UtilizationEstimator util(pipe, cpu::FuClass::Fxu, 100);
    OccupancyEstimator occ(pipe, 100);
    EXPECT_THROW(util.restoreState(occ.snapshotState()),
                 std::invalid_argument);
}

// ---------------------------------------------------------------- //
// Wire codec                                                        //
// ---------------------------------------------------------------- //

TEST(TaskCodec, EncodeDecodeEncodeIsByteStable)
{
    serve::CampaignSpec spec = tinySpec("codec");
    harness::TaskResult task;
    task.index = 2;
    task.name = "codec:2";
    task.result = harness::detail::runExperimentDirect(
        serve::makeSliceConfig(spec, 2));

    const std::string wire = harness::codec::encodeTaskResult(task);
    harness::TaskResult decoded;
    std::string error;
    ASSERT_TRUE(harness::codec::decodeTaskResult(wire, decoded, error))
        << error;
    EXPECT_EQ(decoded.index, task.index);
    EXPECT_EQ(decoded.name, task.name);
    EXPECT_EQ(decoded.result.intervals.size(),
              task.result.intervals.size());
    EXPECT_EQ(decoded.result.estimatorStates.size(),
              task.result.estimatorStates.size());
    // The decisive property: a decoded result re-encodes to the same
    // bytes, so results can cross any number of process hops.
    EXPECT_EQ(harness::codec::encodeTaskResult(decoded), wire);
}

TEST(TaskCodec, CarriesFailuresWithoutResult)
{
    harness::TaskResult task;
    task.index = 5;
    task.name = "boom";
    task.errorText = "synthetic failure";

    const std::string wire = harness::codec::encodeTaskResult(task);
    harness::TaskResult decoded;
    std::string error;
    ASSERT_TRUE(
        harness::codec::decodeTaskResult(wire, decoded, error));
    EXPECT_FALSE(decoded.ok());
    EXPECT_EQ(decoded.errorText, "synthetic failure");
}

TEST(TaskCodec, RejectsMalformedLines)
{
    harness::TaskResult decoded;
    std::string error;
    for (const char *line :
         {"", "not json", "{}", "[1,2,3]",
          "{\"v\":\"wrong-version\",\"index\":0,\"name\":\"x\","
          "\"error_text\":\"e\"}",
          "{\"v\":\"avf-task-v1\",\"index\":0}"}) {
        EXPECT_FALSE(
            harness::codec::decodeTaskResult(line, decoded, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty());
    }
}

// ---------------------------------------------------------------- //
// Protocol validation                                               //
// ---------------------------------------------------------------- //

TEST(ServeProtocol, RequestRoundTrip)
{
    serve::Request request;
    request.op = serve::Request::Op::Submit;
    request.campaign = tinySpec("round_trip-1");
    request.campaign.metrics = true;

    serve::Request parsed;
    std::string error;
    ASSERT_TRUE(serve::parseRequest(serve::encodeRequest(request),
                                    parsed, error))
        << error;
    EXPECT_EQ(parsed.op, serve::Request::Op::Submit);
    EXPECT_EQ(parsed.campaign.name, "round_trip-1");
    EXPECT_EQ(parsed.campaign.benchmark, "bzip2");
    EXPECT_EQ(parsed.campaign.intervals, 6);
    EXPECT_EQ(parsed.campaign.seedSalt, 7u);
    EXPECT_TRUE(parsed.campaign.metrics);
}

TEST(ServeProtocol, RejectsMalformedRequests)
{
    const char *bad[] = {
        "",                          // not JSON
        "not json at all",           // not JSON
        "[]",                        // not an object
        "{\"op\":\"submit\"}",       // missing version
        "{\"v\":\"avf-serve-v9\",\"op\":\"status\"}", // bad version
        "{\"v\":\"avf-serve-v1\",\"op\":\"reboot\"}", // unknown op
        // submit without a campaign body
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\"}",
        // bad name charset (would escape the file-stem contract)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"../evil\",\"benchmark\":\"bzip2\"}}",
        // unknown benchmark (specProfile would fatal() on it)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"nope\"}}",
        // zero intervals
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"intervals\":0}}",
        // zero seed salt (would collapse per-slice seed derivation)
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"seed_salt\":0}}",
        // negative n
        "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
        "{\"name\":\"a\",\"benchmark\":\"bzip2\",\"n\":-4}}",
    };
    for (const char *line : bad) {
        serve::Request parsed;
        std::string error;
        EXPECT_FALSE(serve::parseRequest(line, parsed, error))
            << "accepted: " << line;
        EXPECT_FALSE(error.empty());
    }
}

// ---------------------------------------------------------------- //
// Shard-count and crash-resume byte-identity                        //
// ---------------------------------------------------------------- //

TEST(ServeCampaign, FeedBytesIdenticalAcrossShardCounts)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("shards");
    std::string error;

    // At every cadence the whole run is one fan-out with checkpoints
    // taken in its merge: the feed and the final checkpoint must not
    // depend on how many workers computed ahead.
    for (int every : {1, 2, static_cast<int>(spec.numSlices())}) {
        spec.checkpointEverySlices = every;
        const std::string tag = std::to_string(every);
        serve::StatePaths one(base + "serve_shard1_k" + tag);
        serve::StatePaths four(base + "serve_shard4_k" + tag);
        ASSERT_TRUE(::mkdir(one.dir.c_str(), 0775) == 0 ||
                    errno == EEXIST);
        ASSERT_TRUE(::mkdir(four.dir.c_str(), 0775) == 0 ||
                    errno == EEXIST);

        ASSERT_TRUE(serve::runCampaignFresh(spec, one, 1, error))
            << error;
        ASSERT_TRUE(serve::runCampaignFresh(spec, four, 4, error))
            << error;

        const std::string feed1 = slurp(one.feedPath(spec.name));
        ASSERT_FALSE(feed1.empty());
        EXPECT_EQ(feed1, slurp(four.feedPath(spec.name)))
            << "cadence " << every;
        EXPECT_EQ(slurp(one.checkpointPath(spec.name)),
                  slurp(four.checkpointPath(spec.name)))
            << "cadence " << every;
    }
}

TEST(ServeCampaign, SummaryCountsOnlyOnlineEstimators)
{
    const std::string base = ::testing::TempDir();
    std::string error;

    // Root cause adds coverage-probe states that carry lifetime
    // counters of their own; the summary must not count them.
    serve::Checkpoint done[2];
    for (int rootCause = 0; rootCause < 2; ++rootCause) {
        serve::CampaignSpec spec = tinySpec("summary");
        spec.rootCause = rootCause != 0;
        serve::StatePaths paths(base + "serve_summary_rc" +
                                std::to_string(rootCause));
        ASSERT_TRUE(::mkdir(paths.dir.c_str(), 0775) == 0 ||
                    errno == EEXIST);
        ASSERT_TRUE(serve::runCampaignFresh(spec, paths, 2, error))
            << error;
        ASSERT_TRUE(serve::loadCheckpoint(
            paths.checkpointPath(spec.name), done[rootCause], error))
            << error;
        ASSERT_TRUE(done[rootCause].complete);
    }
    EXPECT_GT(done[0].rollup.injections, 0u);
    EXPECT_EQ(done[0].rollup.injections, done[1].rollup.injections);
    EXPECT_EQ(done[0].rollup.failures, done[1].rollup.failures);
    EXPECT_EQ(serve::feedSummaryLine(done[0].rollup),
              serve::feedSummaryLine(done[1].rollup));
}

TEST(ServeCampaign, ResumeAfterTornTrailingLineMatchesUninterrupted)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("torn");
    std::string error;

    serve::StatePaths ref(base + "serve_torn_ref");
    serve::StatePaths cut(base + "serve_torn_cut");
    ASSERT_TRUE(::mkdir(ref.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    ASSERT_TRUE(::mkdir(cut.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);

    ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 2, error))
        << error;

    // Crash window 1: killed right after the accept — only the
    // header and the initial checkpoint are durable, plus a torn
    // half-row the dying process managed to buffer out.
    ASSERT_TRUE(serve::prepareCampaign(spec, cut, error)) << error;
    {
        std::ofstream torn(cut.feedPath(spec.name),
                           std::ios::binary | std::ios::app);
        torn << "{\"interval\":0,\"slice\":0,\"onl"; // no newline
    }
    ASSERT_TRUE(serve::resumeCampaign(spec.name, cut, 2, error))
        << error;
    EXPECT_EQ(slurp(cut.feedPath(spec.name)),
              slurp(ref.feedPath(spec.name)));
}

/**
 * Leave in @p paths the state a daemon killed right after the
 * checkpoint at @p killAfter slices would leave: header plus slices
 * [0, killAfter) in the feed, a matching checkpoint, and a torn line
 * from the next slice.
 */
void
writeKillState(const serve::CampaignSpec &spec,
               const serve::StatePaths &paths, std::uint64_t killAfter)
{
    std::string error;
    obs::FeedWriter feed;
    ASSERT_TRUE(feed.create(paths.feedPath(spec.name), error))
        << error;
    ASSERT_TRUE(feed.appendLine(serve::feedHeaderLine(spec), error));

    serve::Checkpoint checkpoint;
    checkpoint.campaign = spec;
    ASSERT_TRUE(serve::runShardedSlices(
        spec, 0, killAfter, 1,
        [&](const harness::TaskResult &task, std::string &out) {
            return serve::foldSlice(checkpoint, feed, task, out);
        },
        error))
        << error;
    ASSERT_TRUE(feed.flushSync(error));
    checkpoint.slicesDone = killAfter;
    checkpoint.feedBytes = feed.bytesWritten();
    ASSERT_TRUE(serve::saveCheckpoint(
        checkpoint, paths.checkpointPath(spec.name), error))
        << error;
    ASSERT_TRUE(feed.appendLine("{\"interval\":99,\"torn", error));
    feed.close();
}

TEST(ServeCampaign, ResumeFromMidCampaignCheckpointMatches)
{
    const std::string base = ::testing::TempDir();
    serve::CampaignSpec spec = tinySpec("midkill");
    spec.intervals = 10; // 5 slices: kill points 1..4
    std::string error;

    serve::StatePaths mid(base + "serve_mid_cut");
    ASSERT_TRUE(::mkdir(mid.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);

    for (int every : {1, 2}) {
        spec.checkpointEverySlices = every;
        serve::StatePaths ref(base + "serve_mid_ref_k" +
                              std::to_string(every));
        ASSERT_TRUE(::mkdir(ref.dir.c_str(), 0775) == 0 ||
                    errno == EEXIST);
        ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 1, error))
            << error;

        // Cadence 1 resumes from every kill point; cadence 2 from an
        // odd slice count, so the resumed run's checkpoints fall on
        // the other parity than the fresh run's.
        const std::uint64_t first = every == 1 ? 1 : 3;
        const std::uint64_t last =
            every == 1 ? spec.numSlices() - 1 : 3;
        for (std::uint64_t k = first; k <= last; ++k) {
            ASSERT_NO_FATAL_FAILURE(writeKillState(spec, mid, k));
            ASSERT_TRUE(
                serve::resumeCampaign(spec.name, mid, 4, error))
                << error;
            EXPECT_EQ(slurp(mid.feedPath(spec.name)),
                      slurp(ref.feedPath(spec.name)))
                << "cadence " << every << ", kill after " << k;
            // The resumed checkpoint is finished and equals the
            // uninterrupted run's, byte for byte.
            EXPECT_EQ(slurp(mid.checkpointPath(spec.name)),
                      slurp(ref.checkpointPath(spec.name)))
                << "cadence " << every << ", kill after " << k;
            serve::Checkpoint finalCkpt;
            ASSERT_TRUE(serve::loadCheckpoint(
                mid.checkpointPath(spec.name), finalCkpt, error));
            EXPECT_TRUE(finalCkpt.complete);
            EXPECT_EQ(finalCkpt.slicesDone, spec.numSlices());
        }
    }
}

TEST(ServeCheckpoint, EncodeDecodeRoundTrip)
{
    serve::Checkpoint checkpoint;
    checkpoint.campaign = tinySpec("ckpt");
    checkpoint.slicesDone = 2;
    checkpoint.feedBytes = 1234;
    checkpoint.rollup.intervals = 4;
    checkpoint.rollup.onlineSum[0] = 0.25;
    checkpoint.rollup.injections = 320;
    core::EstimatorState state;
    state.name = "online:iq";
    state.counters = {{"injections", 10}, {"failures", 2}};
    state.estimates = {0.2, 0.3};
    checkpoint.lastStates.push_back(state);

    const std::string text = serve::encodeCheckpoint(checkpoint);
    serve::Checkpoint decoded;
    std::string error;
    ASSERT_TRUE(serve::decodeCheckpoint(text, decoded, error))
        << error;
    EXPECT_EQ(serve::encodeCheckpoint(decoded), text);
    EXPECT_EQ(decoded.campaign.name, "ckpt");
    EXPECT_EQ(decoded.slicesDone, 2u);
    EXPECT_EQ(decoded.lastStates.size(), 1u);
    EXPECT_EQ(decoded.lastStates[0].counterValue("failures"), 2u);
}

// ---------------------------------------------------------------- //
// Daemon socket behaviour                                           //
// ---------------------------------------------------------------- //

TEST(ServeDaemon, RejectsMalformedRequestsOverTheSocket)
{
    const std::string dir =
        ::testing::TempDir() + "serve_daemon_sock";
    ASSERT_TRUE(::mkdir(dir.c_str(), 0775) == 0 || errno == EEXIST);

    serve::DaemonOptions options;
    options.stateDir = dir;
    options.workers = 1;
    std::thread daemon(
        [options] { (void)serve::runDaemon(options); });

    // Wait for the socket to come up (bounded poll, no clock reads).
    std::string response, error;
    bool up = false;
    for (int poll = 0; poll < 100 && !up; ++poll) {
        up = serve::sendRequest(
            dir, std::string(serve::encodeRequest(serve::Request{})),
            response, error);
        if (!up) {
            timespec pause{0, 50'000'000L};
            (void)::nanosleep(&pause, nullptr);
        }
    }
    ASSERT_TRUE(up) << error;
    EXPECT_EQ(response.rfind("{\"ok\":true", 0), 0u) << response;

    // Malformed lines get an error response, and the daemon lives on
    // to answer the next request.
    for (const char *line :
         {"this is not json",
          "{\"v\":\"avf-serve-v1\",\"op\":\"reboot\"}",
          "{\"v\":\"avf-serve-v1\",\"op\":\"submit\",\"campaign\":"
          "{\"name\":\"a\",\"benchmark\":\"nope\"}}"}) {
        ASSERT_TRUE(serve::sendRequest(dir, line, response, error))
            << error;
        EXPECT_EQ(response.rfind("{\"ok\":false", 0), 0u)
            << response;
    }

    serve::Request status;
    status.op = serve::Request::Op::Status;
    ASSERT_TRUE(serve::sendRequest(dir, serve::encodeRequest(status),
                                   response, error))
        << error;
    EXPECT_EQ(response.rfind("{\"ok\":true,\"campaigns\"", 0), 0u)
        << response;

    serve::Request shutdown;
    shutdown.op = serve::Request::Op::Shutdown;
    ASSERT_TRUE(serve::sendRequest(
        dir, serve::encodeRequest(shutdown), response, error))
        << error;
    daemon.join();
}

} // namespace
