/**
 * @file
 * Golden gate for the JSON exports: one small observed campaign
 * (lifecycle, attribution and metrics on) and one small serve
 * campaign, their exports pinned as FNV-1a digests. The stdout
 * golden files (tests/golden/) cover the text reports; this covers
 * the bytes scripts read: METRICS.json, ROOTCAUSE.json, the
 * lifecycle JSONL, a serve feed and its final checkpoint. TRACE.json
 * holds wall-clock data and is deliberately not pinned.
 *
 * A digest that changes means an export's bytes changed. That is
 * only acceptable in a change meant to alter the format; update the
 * constant from the failure message and say so in CHANGES.md.
 */

#include <gtest/gtest.h>

#include <cerrno>
#include <cstdio>
#include <fstream>
#include <sstream>

#include <sys/stat.h>

#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "harness/export.hh"
#include "serve/campaign.hh"
#include "serve/protocol.hh"
#include "trace/spec_profiles.hh"
#include "util/random.hh"

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

/** Digest of @p path's bytes, with the bytes in the failure text. */
::testing::AssertionResult
hasDigest(const std::string &path, std::uint64_t want)
{
    const std::string bytes = slurp(path);
    if (bytes.empty())
        return ::testing::AssertionFailure() << path << " is empty";
    const std::uint64_t got = hashString(bytes);
    if (got == want)
        return ::testing::AssertionSuccess();
    char digests[64];
    std::snprintf(digests, sizeof digests, "0x%016llx, pinned 0x%016llx",
                  static_cast<unsigned long long>(got),
                  static_cast<unsigned long long>(want));
    return ::testing::AssertionFailure()
           << path << ": digest " << digests << "\n"
           << bytes.substr(0, 2000);
}

harness::ExperimentConfig
observedConfig(const char *profile)
{
    harness::ExperimentConfig conf;
    conf.profile = trace::specProfile(profile);
    conf.numIntervals = 3;
    conf.online.m = 400;
    conf.online.n = 24;
    conf.lookahead = 512;
    conf.lifecycle.enabled = true;
    conf.attribution.enabled = true;
    conf.metrics = true;
    return conf;
}

TEST(ExportGolden, ObservedCampaignExportsMatchPinnedDigests)
{
    harness::RunOptions options;
    options.threads = 2;
    harness::ExperimentEngine engine(options);
    for (const char *name : {"mesa", "bzip2"})
        engine.submit(name, observedConfig(name));
    const auto tasks = engine.collect();
    for (const auto &task : tasks)
        ASSERT_TRUE(task.ok()) << task.errorText;

    const std::string dir = ::testing::TempDir();
    harness::writeMetricsJson(dir + "golden_METRICS.json", "golden",
                              tasks);
    harness::writeRootCauseJson(dir + "golden_ROOTCAUSE.json",
                                "golden", tasks);
    harness::writeLifecycleJsonl(tasks[1].result,
                                 dir + "golden_lifecycle.jsonl");

    EXPECT_TRUE(hasDigest(dir + "golden_METRICS.json",
                          0xefe2f8d147b862adull));
    EXPECT_TRUE(hasDigest(dir + "golden_ROOTCAUSE.json",
                          0x73d3768950d915e1ull));
    EXPECT_TRUE(hasDigest(dir + "golden_lifecycle.jsonl",
                          0x67b62a899654ab6bull));
}

TEST(ExportGolden, ServeFeedAndCheckpointMatchPinnedDigests)
{
    serve::CampaignSpec spec;
    spec.name = "golden";
    spec.benchmark = "swim";
    spec.intervals = 4;
    spec.sliceIntervals = 2;
    spec.m = 200;
    spec.n = 40;
    spec.seedSalt = 11;
    spec.metrics = true;
    spec.rootCause = true;

    serve::StatePaths paths(::testing::TempDir() + "serve_golden");
    ASSERT_TRUE(::mkdir(paths.dir.c_str(), 0775) == 0 ||
                errno == EEXIST);
    std::remove(paths.feedPath(spec.name).c_str());
    std::remove(paths.checkpointPath(spec.name).c_str());
    std::string error;
    ASSERT_TRUE(serve::runCampaignFresh(spec, paths, 1, error))
        << error;

    EXPECT_TRUE(hasDigest(paths.feedPath(spec.name),
                          0x2d2601606482686aull));
    EXPECT_TRUE(hasDigest(paths.checkpointPath(spec.name),
                          0x0d426615c4a6e025ull));
}

} // namespace
