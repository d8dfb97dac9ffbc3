/**
 * @file
 * Characterization of the injection-campaign families (ctest label
 * `campaign`): short fixed runs of the online estimator (serial and
 * lane-parallel, private and shared port, randomized timing,
 * field-granular IQ), the dTLB estimator, and every coverage probe,
 * pinned to recorded values. Each estimator's snapshotState() is
 * serialized through the task codec and compared by FNV-1a digest,
 * so any change to the window loop — site order, open timing,
 * interval counting, counter keys — shows up as a changed digest.
 * The attribution table the probes and estimators feed is pinned the
 * same way. A refactor of the window loop must leave every value
 * here unchanged.
 */

#include <gtest/gtest.h>

#include <cstdint>
#include <memory>
#include <sstream>
#include <string>
#include <vector>

#include "core/injection_port.hh"
#include "core/online_estimator.hh"
#include "core/tlb_estimator.hh"
#include "cpu/pipeline.hh"
#include "harness/task_codec.hh"
#include "obs/attribution.hh"
#include "obs/coverage_probe.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "util/random.hh"

namespace
{

using namespace avf;
using core::AvfEstimator;
using core::OnlineAvfEstimator;
using core::OnlineConfig;
using core::Structure;

/** One estimator's observed state after a run. */
struct Observed
{
    std::string name;
    std::uint64_t lifetimeInjections = 0;
    std::size_t estimates = 0;
    std::string bytes;
};

/** A recorded expectation for one estimator. */
struct Expected
{
    const char *name;
    std::uint64_t lifetimeInjections;
    std::size_t estimates;
    std::uint64_t digest;
};

Observed
observed(const AvfEstimator &est)
{
    core::EstimatorState state = est.snapshotState();
    Observed out;
    out.name = est.name();
    out.lifetimeInjections = state.counterValue("lifetime_injections");
    out.estimates = state.estimates.size();
    harness::codec::appendEstimatorState(out.bytes, state);
    return out;
}

void
expectMatches(const std::vector<Observed> &got,
              const std::vector<Expected> &want)
{
    ASSERT_EQ(got.size(), want.size());
    for (std::size_t i = 0; i < got.size(); ++i) {
        SCOPED_TRACE(got[i].bytes);
        EXPECT_EQ(got[i].name, want[i].name);
        EXPECT_EQ(got[i].lifetimeInjections, want[i].lifetimeInjections)
            << got[i].name;
        EXPECT_EQ(got[i].estimates, want[i].estimates) << got[i].name;
        EXPECT_EQ(hashString(got[i].bytes), want[i].digest)
            << got[i].name << " digest 0x" << std::hex
            << hashString(got[i].bytes);
    }
}

/** The pipeline every run drives: bzip2 on the Table 1 machine. */
struct Machine
{
    trace::SyntheticTraceGenerator gen{trace::specProfile("bzip2")};
    cpu::Pipeline pipe{cpu::CpuConfig{}, gen};
};

constexpr Cycle kM = 300;
constexpr std::uint32_t kN = 20;
/** Two full intervals at one lane, plus a torn window. */
constexpr Cycle kRun = kM * kN * 2 + 13;

/** Online estimators for @p structures, private ports. */
std::vector<Observed>
runPrivate(const std::vector<Structure> &structures, OnlineConfig conf)
{
    Machine m;
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (Structure s : structures) {
        ests.push_back(
            std::make_unique<OnlineAvfEstimator>(m.pipe, s, conf));
        m.pipe.addObserver(ests.back().get());
    }
    m.pipe.run(kRun);
    std::vector<Observed> out;
    for (const auto &est : ests) {
        EXPECT_EQ(est->laneCount(), conf.lanes > 0 ? conf.lanes : 1);
        out.push_back(observed(*est));
    }
    return out;
}

/** Online estimators for @p structures on one shared port. */
std::vector<Observed>
runShared(const std::vector<Structure> &structures, OnlineConfig conf)
{
    Machine m;
    core::InjectionPort port(m.pipe);
    m.pipe.addObserver(&port);
    std::vector<std::unique_ptr<OnlineAvfEstimator>> ests;
    for (Structure s : structures) {
        ests.push_back(std::make_unique<OnlineAvfEstimator>(
            m.pipe, s, conf, &port));
        m.pipe.addObserver(ests.back().get());
    }
    m.pipe.run(kRun);
    std::vector<Observed> out;
    for (const auto &est : ests)
        out.push_back(observed(*est));
    return out;
}

const std::vector<Structure> kAllStructures = {
    Structure::IQ, Structure::REG, Structure::FXU, Structure::FPU,
    Structure::FREG};

OnlineConfig
onlineConf(int lanes)
{
    OnlineConfig conf;
    conf.m = kM;
    conf.n = kN;
    conf.lanes = lanes;
    return conf;
}

TEST(CampaignCharacterization, OnlineSerialPrivatePorts)
{
    expectMatches(runPrivate(kAllStructures, onlineConf(1)), {
        {"online:iq", 41, 2, 0x41df2d5f500853c3},
        {"online:reg", 41, 2, 0x9c7060a7f4cf33ed},
        {"online:fxu", 41, 2, 0xfa5c20f869bcc6a0},
        {"online:fpu", 41, 2, 0xe2864381e889a780},
        {"online:freg", 41, 2, 0x14b838599db5b940},
    });
}

TEST(CampaignCharacterization, OnlineLanes12PrivatePorts)
{
    expectMatches(runPrivate(kAllStructures, onlineConf(12)), {
        {"online:iq", 412, 20, 0x94aca933452720d6},
        {"online:reg", 412, 20, 0x454708e115641159},
        {"online:fxu", 412, 20, 0xd2aa17b5e2d333db},
        {"online:fpu", 412, 20, 0x661af92ab282a2e6},
        {"online:freg", 412, 20, 0x3de13701944613d7},
    });
}

TEST(CampaignCharacterization, OnlineLanes12SharedPort)
{
    expectMatches(runShared(kAllStructures, onlineConf(12)), {
        {"online:iq", 412, 20, 0xd88d7be82f086549},
        {"online:reg", 412, 20, 0x9906a8928ab8b663},
        {"online:fxu", 412, 20, 0x7454c315fbd1c136},
        {"online:fpu", 412, 20, 0x61fbaf305614a0f7},
        {"online:freg", 412, 20, 0x3de13701944613d7},
    });
}

TEST(CampaignCharacterization, OnlineRandomizedTiming)
{
    OnlineConfig serial = onlineConf(1);
    serial.randomizeInjectionTiming = true;
    expectMatches(runPrivate({Structure::IQ, Structure::FXU}, serial), {
        {"online:iq", 40, 2, 0x589fe0a776fe3527},
        {"online:fxu", 40, 2, 0x9799c23274dcfca8},
    });
    OnlineConfig wide = onlineConf(12);
    wide.randomizeInjectionTiming = true;
    expectMatches(runShared({Structure::IQ, Structure::FXU}, wide), {
        {"online:iq", 400, 20, 0x9034163fe641666},
        {"online:fxu", 400, 20, 0xb92657723f1a2c58},
    });
}

TEST(CampaignCharacterization, OnlineFieldGranularIq)
{
    OnlineConfig serial = onlineConf(1);
    serial.fieldGranularIq = true;
    expectMatches(runPrivate({Structure::IQ}, serial), {
        {"online:iq", 41, 2, 0xadc4fb2228bd5c2f},
    });
    OnlineConfig wide = onlineConf(12);
    wide.fieldGranularIq = true;
    expectMatches(runPrivate({Structure::IQ}, wide), {
        {"online:iq", 412, 20, 0x2b763ebb0deaf3b7},
    });
}

TEST(CampaignCharacterization, Dtlb)
{
    Machine m;
    core::TlbEstimatorConfig conf;
    conf.m = 1000;
    conf.n = 10;
    core::TlbAvfEstimator est(m.pipe, conf);
    m.pipe.addObserver(&est);
    m.pipe.run(1000 * 10 * 3 + 50);
    expectMatches({observed(est)}, {
        {"online:dtlb", 31, 3, 0xe084b8c81fcfbbd3},
    });
    EXPECT_EQ(est.totalInjections(),
              est.snapshotState().counterValue("lifetime_injections"));
}

// The harness shape of a root-cause run: one shared port, the online
// estimators charging the attribution tracker through their sink,
// then one probe per CoverageTarget on the same port.
TEST(CampaignCharacterization, CoverageProbesWithAttribution)
{
    Machine m;
    core::InjectionPort port(m.pipe);
    m.pipe.addObserver(&port);

    obs::AttributionConfig at;
    at.enabled = true;
    at.phaseCycles = kM * kN;
    obs::AttributionTracker attribution(at);

    std::vector<std::unique_ptr<AvfEstimator>> ests;
    for (Structure s : kAllStructures) {
        auto est = std::make_unique<OnlineAvfEstimator>(
            m.pipe, s, onlineConf(4), &port);
        est->setLifecycleSink(&attribution);
        m.pipe.addObserver(est.get());
        ests.push_back(std::move(est));
    }
    obs::CoverageProbeConfig probeConf;
    probeConf.m = kM;
    probeConf.n = 10;
    std::vector<obs::CoverageProbe *> probes;
    for (int t = 0; t < obs::numCoverageTargets; ++t) {
        auto probe = std::make_unique<obs::CoverageProbe>(
            m.pipe, port, attribution,
            static_cast<obs::CoverageTarget>(t), probeConf);
        m.pipe.addObserver(probe.get());
        probes.push_back(probe.get());
        ests.push_back(std::move(probe));
    }
    m.pipe.run(kRun);

    // Lane reservation order: estimators first (4 lanes each), then
    // the probes on the next free lanes.
    for (int t = 0; t < obs::numCoverageTargets; ++t)
        EXPECT_EQ(probes[static_cast<std::size_t>(t)]->laneId(), 20 + t);

    std::vector<Observed> got;
    for (const auto &est : ests)
        got.push_back(observed(*est));
    expectMatches(got, {
        {"online:iq", 164, 8, 0xec2c51a99e5d361e},
        {"online:reg", 164, 8, 0x4a68016915be442f},
        {"online:fxu", 164, 8, 0x939c98c45ce830},
        {"online:fpu", 164, 8, 0x70a798d67a6afb65},
        {"online:freg", 164, 8, 0x5b342c11ffe35741},
        {"probe:fetch_buf", 40, 4, 0xd4f1b385777b08ca},
        {"probe:rename_map", 40, 4, 0x4e04647fbc8c2d45},
        {"probe:branch_pred", 40, 4, 0xe70dea2d70a8b8b8},
    });
    EXPECT_EQ(probes[2]->killedWindows(),
              ests[7]->snapshotState().counterValue("killed"));

    std::ostringstream table;
    attribution.snapshot().writeJson(table);
    EXPECT_EQ(hashString(table.str()), 0x1295b5322f2c8e92ull)
        << "attribution digest 0x" << std::hex
        << hashString(table.str()) << "\n" << table.str();
}

} // namespace
