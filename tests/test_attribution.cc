/**
 * @file
 * Root-cause attribution determinism, bottom up: tracker charging
 * and phase bucketing, snapshot merge behaviour, ROOTCAUSE.json
 * byte-identity at 1 vs 8 engine workers, serve feed + checkpoint
 * byte-identity at 1 vs 4 sharded processes with root-cause enabled,
 * and crash/resume byte-identity of the attribution rollup — the
 * whole "same bytes no matter how the campaign ran" contract from
 * DESIGN.md §14.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "core/structures.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "obs/attribution.hh"
#include "report.hh"
#include "serve/campaign.hh"
#include "serve/checkpoint.hh"
#include "serve/protocol.hh"
#include "trace/instruction.hh"
#include "trace/spec_profiles.hh"
#include "util/json.hh"

namespace
{

using namespace avf;

std::string
slurp(const std::string &path)
{
    std::ifstream in(path, std::ios::binary);
    std::ostringstream text;
    text << in.rdbuf();
    return text.str();
}

std::string
snapshotBytes(const obs::AttributionSnapshot &snapshot)
{
    std::string text;
    json::Writer out(text, json::Writer::Style::Spaced);
    snapshot.writeJson(out);
    return text;
}

// ---------------------------------------------------------------- //
// Tracker charging and phase bucketing                              //
// ---------------------------------------------------------------- //

obs::AttributionConfig
trackerConfig(Cycle phaseCycles = 100)
{
    obs::AttributionConfig conf;
    conf.enabled = true;
    conf.phaseCycles = phaseCycles;
    return conf;
}

TEST(AttributionTracker, ChargesWindowsByBlameSite)
{
    obs::AttributionTracker tracker(trackerConfig());
    const std::uint32_t iq = tracker.unitOf(core::Structure::IQ);

    // One failure blamed on a load at 0x400, then two masked windows
    // (one live, one dead) in the next phase bucket.
    tracker.recordWindow(iq, 50, true, true, 0x400,
                         static_cast<int>(trace::OpClass::Load));
    tracker.recordWindow(iq, 150, true, false, 0, -1);
    tracker.recordWindow(iq, 150, false, false, 0, -1);

    obs::AttributionSnapshot snap = tracker.snapshot();
    EXPECT_TRUE(snap.enabled);
    ASSERT_EQ(snap.rows.size(), 2u);
    // Canonical (unit, phase, pc, op) order: phase 0 first.
    EXPECT_EQ(snap.rows[0].phase, 0u);
    EXPECT_EQ(snap.rows[0].pc, 0x400u);
    EXPECT_EQ(snap.rows[0].op,
              static_cast<int>(trace::OpClass::Load));
    EXPECT_EQ(snap.rows[0].windows, 1u);
    EXPECT_EQ(snap.rows[0].failures, 1u);
    EXPECT_EQ(snap.rows[1].phase, 1u);
    EXPECT_EQ(snap.rows[1].pc, 0u);
    EXPECT_EQ(snap.rows[1].windows, 2u);
    EXPECT_EQ(snap.rows[1].live, 1u);
    EXPECT_EQ(snap.rows[1].failures, 0u);
    EXPECT_EQ(snap.totalWindows(), 3u);
    EXPECT_EQ(snap.totalFailures(), 1u);
}

TEST(AttributionTracker, PhaseBaseAndClampAreCampaignGlobal)
{
    obs::AttributionConfig conf = trackerConfig();
    conf.phaseBase = 10;
    conf.phaseCount = 2;
    obs::AttributionTracker tracker(conf);
    const std::uint32_t iq = tracker.unitOf(core::Structure::IQ);

    tracker.recordWindow(iq, 0, true, false, 0, -1);    // bucket 10
    tracker.recordWindow(iq, 150, true, false, 0, -1);  // bucket 11
    tracker.recordWindow(iq, 1000, true, false, 0, -1); // clamp: 11

    obs::AttributionSnapshot snap = tracker.snapshot();
    ASSERT_EQ(snap.rows.size(), 2u);
    EXPECT_EQ(snap.rows[0].phase, 10u);
    EXPECT_EQ(snap.rows[0].windows, 1u);
    EXPECT_EQ(snap.rows[1].phase, 11u);
    EXPECT_EQ(snap.rows[1].windows, 2u);
}

TEST(AttributionTracker, RegisteredUnitsExtendTheTable)
{
    obs::AttributionTracker tracker(trackerConfig());
    const std::uint32_t probe =
        tracker.registerBlameUnit("fetch_buf");
    EXPECT_EQ(probe,
              static_cast<std::uint32_t>(core::numStructures));
    tracker.recordWindow(probe, 0, true, true, 0x10,
                         static_cast<int>(trace::OpClass::Store));
    obs::AttributionSnapshot snap = tracker.snapshot();
    ASSERT_EQ(snap.units.size(),
              static_cast<std::size_t>(core::numStructures) + 1);
    EXPECT_EQ(snap.units.back(), "fetch_buf");
    ASSERT_EQ(snap.rows.size(), 1u);
    EXPECT_EQ(snap.rows[0].unit, probe);
}

TEST(AttributionSnapshot, MergeFoldsKeywiseAndAppendsUnknownUnits)
{
    obs::AttributionTracker a(trackerConfig());
    const std::uint32_t aIq = a.unitOf(core::Structure::IQ);
    a.recordWindow(aIq, 50, true, true, 0x400,
                   static_cast<int>(trace::OpClass::Load));
    a.recordWindow(aIq, 50, true, false, 0, -1);

    obs::AttributionTracker b(trackerConfig());
    const std::uint32_t bIq = b.unitOf(core::Structure::IQ);
    const std::uint32_t bProbe = b.registerBlameUnit("rename_map");
    b.recordWindow(bIq, 50, true, true, 0x400,
                   static_cast<int>(trace::OpClass::Load));
    b.recordWindow(bProbe, 150, false, false, 0, -1);

    obs::AttributionSnapshot merged = a.snapshot();
    merged.mergeFrom(b.snapshot());

    // The shared (iq, 0, 0x400, load) key folded; the masked row and
    // the appended rename_map unit survived.
    EXPECT_EQ(merged.units.back(), "rename_map");
    ASSERT_EQ(merged.rows.size(), 3u);
    // Canonical order: the masked (pc 0) row sorts ahead of the
    // folded failure row, and the appended unit's row closes.
    EXPECT_EQ(merged.rows[0].pc, 0u);
    EXPECT_EQ(merged.rows[0].windows, 1u);
    EXPECT_EQ(merged.rows[1].pc, 0x400u);
    EXPECT_EQ(merged.rows[1].windows, 2u);
    EXPECT_EQ(merged.rows[1].failures, 2u);
    EXPECT_EQ(merged.rows[2].unit,
              static_cast<std::uint32_t>(core::numStructures));
    EXPECT_EQ(merged.totalWindows(), 4u);

    // Merging into an empty enabled snapshot reproduces the source
    // bytes — the fold has an identity element.
    obs::AttributionSnapshot empty;
    empty.mergeFrom(merged);
    EXPECT_EQ(snapshotBytes(empty), snapshotBytes(merged));

    // A disabled snapshot never dirties the accumulator.
    obs::AttributionSnapshot disabled;
    obs::AttributionSnapshot target = a.snapshot();
    const std::string before = snapshotBytes(target);
    target.mergeFrom(disabled);
    EXPECT_EQ(snapshotBytes(target), before);
}

// ---------------------------------------------------------------- //
// Campaign-level byte identity: engine workers                      //
// ---------------------------------------------------------------- //

harness::ExperimentConfig
attributedConfig(const char *profile)
{
    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(profile);
    conf.numIntervals = 4;
    conf.online.m = 64;
    conf.online.n = 16;
    conf.lookahead = 512;
    conf.attribution.enabled = true;
    return conf;
}

std::string
campaignRootCauseAt(unsigned threads, const std::string &path)
{
    harness::RunOptions options;
    options.threads = threads;
    harness::ExperimentEngine engine(options);
    for (const char *name : {"mesa", "bzip2", "swim"})
        engine.submit(name, attributedConfig(name));
    auto tasks = engine.collect();
    for (const auto &task : tasks)
        EXPECT_TRUE(task.ok()) << task.errorText;
    harness::writeRootCauseJson(path, "identity", tasks);
    return slurp(path);
}

TEST(RootCauseExport, BytesIdenticalAcrossWorkerCounts)
{
    std::string serial = campaignRootCauseAt(
        1, ::testing::TempDir() + "rootcause_w1.json");
    std::string parallel = campaignRootCauseAt(
        8, ::testing::TempDir() + "rootcause_w8.json");
    ASSERT_FALSE(serial.empty());
    EXPECT_EQ(serial, parallel);

    // The export loads back through the avf-report validator, and
    // every grouping renders from it.
    json::Value doc;
    std::string error;
    ASSERT_TRUE(report::loadRootCauseDoc(serial, doc, error))
        << error;
    for (const char *by :
         {"instruction", "structure", "opcode", "phase"}) {
        std::ostringstream human;
        EXPECT_TRUE(
            report::printRootCause(human, doc, by, 10, false));
        EXPECT_FALSE(human.str().empty());
    }

    // --json output is itself valid JSON with deterministic bytes.
    std::ostringstream first, second;
    ASSERT_TRUE(
        report::printRootCause(first, doc, "structure", 10, true));
    ASSERT_TRUE(
        report::printRootCause(second, doc, "structure", 10, true));
    EXPECT_EQ(first.str(), second.str());
    json::Value rendered;
    ASSERT_TRUE(json::parse(first.str(), rendered, error)) << error;
    EXPECT_NE(rendered.find("rows", json::Value::Kind::Array),
              nullptr);

    EXPECT_FALSE(report::printRootCause(std::cerr, doc, "bogus", 10,
                                        false));
}

// ---------------------------------------------------------------- //
// Campaign-level byte identity: serve procs and crash/resume        //
// ---------------------------------------------------------------- //

serve::CampaignSpec
rootCauseSpec(const char *name)
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
    spec.rootCause = true;
    return spec;
}

serve::StatePaths
freshStateDir(const std::string &name)
{
    serve::StatePaths paths(::testing::TempDir() + name);
    EXPECT_TRUE(::mkdir(paths.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    return paths;
}

TEST(ServeRootCause, FeedAndCheckpointIdenticalAcrossProcs)
{
    serve::CampaignSpec spec = rootCauseSpec("rc_procs");
    std::string error;

    serve::StatePaths one = freshStateDir("serve_rc_procs1");
    serve::StatePaths four = freshStateDir("serve_rc_procs4");
    ASSERT_TRUE(serve::runCampaignFresh(spec, one, 1, error))
        << error;
    ASSERT_TRUE(serve::runCampaignFresh(spec, four, 4, error))
        << error;

    const std::string feed1 = slurp(one.feedPath(spec.name));
    const std::string feed4 = slurp(four.feedPath(spec.name));
    ASSERT_FALSE(feed1.empty());
    EXPECT_EQ(feed1, feed4);
    // The rollup row made it into the feed ahead of the summary.
    EXPECT_NE(feed1.find("\"attribution\":true"), std::string::npos);

    EXPECT_EQ(slurp(one.checkpointPath(spec.name)),
              slurp(four.checkpointPath(spec.name)));

    // The durable rollup decodes with blame mass in it.
    serve::Checkpoint checkpoint;
    ASSERT_TRUE(serve::loadCheckpoint(one.checkpointPath(spec.name),
                                      checkpoint, error))
        << error;
    EXPECT_TRUE(checkpoint.attributionTotals.enabled);
    EXPECT_GT(checkpoint.attributionTotals.totalWindows(), 0u);
}

TEST(ServeRootCause, ResumeReproducesAttributionBytes)
{
    serve::CampaignSpec spec = rootCauseSpec("rc_resume");
    std::string error;

    serve::StatePaths ref = freshStateDir("serve_rc_resume_ref");
    serve::StatePaths cut = freshStateDir("serve_rc_resume_cut");
    ASSERT_TRUE(serve::runCampaignFresh(spec, ref, 2, error))
        << error;

    // Crash window: killed right after the accept — header and
    // initial checkpoint durable, plus a torn half-row. Resume must
    // recompute every slice and land on the reference bytes,
    // attribution row included.
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
    EXPECT_EQ(slurp(cut.checkpointPath(spec.name)),
              slurp(ref.checkpointPath(spec.name)));
}

} // namespace
