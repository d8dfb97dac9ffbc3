#include "harness/config_loader.hh"

#include <algorithm>
#include <cstdio>
#include <cstdlib>
#include <cstring>
#include <iterator>
#include <limits>
#include <string>

#include "trace/spec_profiles.hh"
#include "util/logging.hh"

namespace avf::harness
{

namespace
{

/**
 * One section of a config document. Each getter leaves its field
 * unchanged when the key is absent and fatal()s on a value of the
 * wrong JSON kind or outside the field's range; an absent section
 * reads as empty.
 */
class Section
{
  public:
    Section(const json::Value &doc, const char *name,
            std::initializer_list<std::string_view> known)
        : name(name), body(doc.find(name))
    {
        if (body && !body->isObject())
            fatal("config: section '%s' is not an object", name);
        if (!body)
            return;
        for (const auto &member : body->members)
            if (std::find(known.begin(), known.end(), member.first) ==
                known.end())
                warn("config: unknown key '%s' in section '%s'",
                     member.first.c_str(), name);
    }

    /** A non-negative integer, times @p scale, that fits @p field. */
    template <typename T>
    void
    integer(const char *key, T &field, std::uint64_t scale = 1) const
    {
        const json::Value *value = find(key);
        if (!value)
            return;
        std::uint64_t n = 0;
        if (!json::exactInteger(*value, n))
            fatal("config: %s.%s must be a non-negative integer", name,
                  key);
        const std::uint64_t max =
            static_cast<std::uint64_t>(std::numeric_limits<T>::max()) /
            scale;
        if (n > max)
            fatal("config: %s.%s = %llu is out of range (max %llu)",
                  name, key, static_cast<unsigned long long>(n),
                  static_cast<unsigned long long>(max));
        field = static_cast<T>(n * scale);
    }

    void
    flag(const char *key, bool &field) const
    {
        if (const json::Value *value = find(key)) {
            if (!value->isBool())
                fatal("config: %s.%s must be true or false", name, key);
            field = value->boolean;
        }
    }

    /** A number in [0, 1]. */
    void
    fraction(const char *key, double &field) const
    {
        if (const json::Value *value = find(key)) {
            if (!value->isNumber())
                fatal("config: %s.%s must be a number", name, key);
            const double x = value->asDouble();
            if (!(x >= 0.0 && x <= 1.0))
                fatal("config: %s.%s = %g is outside [0, 1]", name, key,
                      x);
            field = x;
        }
    }

    void
    text(const char *key, std::string &field) const
    {
        if (const json::Value *value = find(key)) {
            if (!value->isString())
                fatal("config: %s.%s must be a string", name, key);
            field = value->text;
        }
    }

  private:
    const json::Value *
    find(const char *key) const
    {
        return body ? body->find(key) : nullptr;
    }

    const char *name;
    const json::Value *body;
};

/** Strict boolean env var: unset/empty = false, junk = fatal(). */
bool
envFlagStrict(const char *name)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return false;
    for (const char *t : {"1", "true", "yes", "on"})
        if (std::strcmp(val, t) == 0)
            return true;
    for (const char *f : {"0", "false", "no", "off"})
        if (std::strcmp(val, f) == 0)
            return false;
    fatal("%s='%s' is not a boolean (use 1/true/yes/on or "
          "0/false/no/off)", name, val);
}

/** Strict positive-integer env var; @return fallback when unset. */
int
envPositiveIntStrict(const char *name, int fallback)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return fallback;
    char *end = nullptr;
    long long parsed = std::strtoll(val, &end, 10);
    if (end == val || *end != '\0')
        fatal("%s='%s' is not an integer", name, val);
    if (parsed <= 0)
        fatal("%s=%lld must be positive", name, parsed);
    if (parsed > 1'000'000)
        fatal("%s=%lld is implausibly large", name, parsed);
    return static_cast<int>(parsed);
}

/** Strict positive-double env var; @return fallback when unset. */
double
envPositiveDoubleStrict(const char *name, double fallback)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return fallback;
    char *end = nullptr;
    double parsed = std::strtod(val, &end);
    if (end == val || *end != '\0')
        fatal("%s='%s' is not a number", name, val);
    if (!(parsed > 0.0) || parsed != parsed)
        fatal("%s='%s' must be a positive number", name, val);
    return parsed;
}

/**
 * Strict path-prefix env var: unset/empty = disabled (empty string),
 * whitespace or control characters = fatal(). The prefix becomes a
 * filename stem, where embedded newlines or blanks are invariably
 * quoting accidents, not intent.
 */
std::string
envPrefixStrict(const char *name)
{
    const char *val = std::getenv(name);
    if (!val || !*val)
        return {};
    for (const char *p = val; *p; ++p) {
        unsigned char c = static_cast<unsigned char>(*p);
        if (c <= 0x20 || c == 0x7f)
            fatal("%s='%s' contains whitespace or control "
                  "characters (expected a bare path prefix)",
                  name, val);
    }
    return val;
}

/** AVF_LANES: 1..64, default 64; fatal() outside that range. */
int
lanesFromEnv()
{
    int lanes = envPositiveIntStrict("AVF_LANES", 64);
    if (lanes > 64)
        fatal("AVF_LANES=%d exceeds the 64-bit error plane (1..64)",
              lanes);
    return lanes;
}

} // namespace

RunOptions
loadRunOptions(int paperDefaultIntervals)
{
    RunOptions options;
    // AVF_LOG_LEVEL is resolved lazily inside the logging sink; force
    // it here so a junk value fails at startup like every other knob.
    logLevel();
    options.fastMode = envFlagStrict("AVF_FAST");
    options.intervals = envPositiveIntStrict("AVF_INTERVALS",
                                             paperDefaultIntervals);
    options.lanes = lanesFromEnv();
    options.lifecycle = envFlagStrict("AVF_LIFECYCLE");
    options.metricsPrefix = envPrefixStrict("AVF_METRICS");
    options.mttfBudgetHours =
        envPositiveDoubleStrict("AVF_MTTF_BUDGET_HOURS", 0.0);
    if (options.fastMode)
        options.intervals = 12;
    return options;
}

ExperimentConfig
loadExperimentConfig(const std::string &path)
{
    std::FILE *file = std::fopen(path.c_str(), "rb");
    if (!file)
        fatal("cannot open config file '%s'", path.c_str());
    std::string text;
    char buf[4096];
    std::size_t got;
    while ((got = std::fread(buf, 1, sizeof(buf), file)) > 0)
        text.append(buf, got);
    bool truncated = std::ferror(file) != 0;
    if (std::fclose(file) != 0 || truncated)
        fatal("error reading config file '%s'", path.c_str());

    json::Value doc;
    std::string error;
    if (!json::parse(text, doc, error))
        fatal("config file '%s': %s", path.c_str(), error.c_str());
    return loadExperimentConfig(doc);
}

ExperimentConfig
loadExperimentConfig(const json::Value &doc)
{
    static constexpr std::string_view sections[] = {
        "experiment", "online", "cpu", "mem", "lifecycle", "workload"};
    if (!doc.isObject())
        fatal("config: top level is not an object");
    for (const auto &member : doc.members)
        if (std::find(std::begin(sections), std::end(sections),
                      member.first) == std::end(sections))
            warn("config: unknown section '%s'", member.first.c_str());

    ExperimentConfig conf;

    const Section experiment(doc, "experiment",
                             {"benchmark", "intervals", "lookahead"});
    std::string bench = "mesa";
    experiment.text("benchmark", bench);
    const auto &names = trace::specBenchmarkNames();
    if (std::find(names.begin(), names.end(), bench) != names.end())
        conf.profile = trace::specProfile(bench);
    else if (bench == "generic")
        conf.profile = trace::WorkloadProfile{};
    else
        fatal("config: unknown benchmark '%s'", bench.c_str());
    experiment.integer("intervals", conf.numIntervals);
    experiment.integer("lookahead", conf.lookahead);
    if (conf.numIntervals <= 0)
        fatal("config: intervals must be positive");

    const Section online(doc, "online", {"m", "n", "randomize", "seed"});
    online.integer("m", conf.online.m);
    online.integer("n", conf.online.n);
    online.flag("randomize", conf.online.randomizeInjectionTiming);
    online.integer("seed", conf.online.seed);
    if (conf.online.m == 0 || conf.online.n == 0)
        fatal("config: online m and n must be positive");

    const Section cpuSection(
        doc, "cpu",
        {"fetch_width", "dispatch_width", "retire_width",
         "rob_entries", "intls_iq", "fp_iq", "br_iq", "fxu", "fpu",
         "lsu", "bru", "int_regs", "fp_regs", "store_queue",
         "fetch_buffer", "redirect_penalty", "predictor_bits",
         "history_bits"});
    auto &cpu = conf.cpu;
    cpuSection.integer("fetch_width", cpu.fetchWidth);
    cpuSection.integer("dispatch_width", cpu.dispatchWidth);
    cpuSection.integer("retire_width", cpu.retireWidth);
    cpuSection.integer("rob_entries", cpu.robEntries);
    cpuSection.integer("intls_iq", cpu.intLsIqEntries);
    cpuSection.integer("fp_iq", cpu.fpIqEntries);
    cpuSection.integer("br_iq", cpu.brIqEntries);
    cpuSection.integer("fxu", cpu.numFxu);
    cpuSection.integer("fpu", cpu.numFpu);
    cpuSection.integer("lsu", cpu.numLsu);
    cpuSection.integer("bru", cpu.numBru);
    cpuSection.integer("int_regs", cpu.intPhysRegs);
    cpuSection.integer("fp_regs", cpu.fpPhysRegs);
    cpuSection.integer("store_queue", cpu.storeQueueEntries);
    cpuSection.integer("fetch_buffer", cpu.fetchBufferEntries);
    cpuSection.integer("redirect_penalty", cpu.redirectPenalty);
    cpuSection.integer("predictor_bits", cpu.predictorBits);
    cpuSection.integer("history_bits", cpu.historyBits);

    const Section memSection(doc, "mem",
                             {"l1d_kb", "l1d_ways", "l1i_kb",
                              "l1i_ways", "l2_kb", "l2_ways",
                              "line_bytes", "l1_lat", "l2_lat",
                              "mem_lat", "tlb_entries",
                              "tlb_penalty"});
    auto &mem = conf.cpu.mem;
    memSection.integer("l1d_kb", mem.l1d.sizeBytes, 1024);
    memSection.integer("l1d_ways", mem.l1d.ways);
    memSection.integer("l1i_kb", mem.l1i.sizeBytes, 1024);
    memSection.integer("l1i_ways", mem.l1i.ways);
    memSection.integer("l2_kb", mem.l2.sizeBytes, 1024);
    memSection.integer("l2_ways", mem.l2.ways);
    std::uint32_t line = mem.l1d.lineBytes;
    memSection.integer("line_bytes", line);
    mem.l1d.lineBytes = line;
    mem.l1i.lineBytes = line;
    mem.l2.lineBytes = line;
    memSection.integer("l1_lat", mem.l1Latency);
    memSection.integer("l2_lat", mem.l2Latency);
    memSection.integer("mem_lat", mem.memLatency);
    std::uint32_t tlb_entries = mem.dtlb.entries;
    memSection.integer("tlb_entries", tlb_entries);
    mem.dtlb.entries = tlb_entries;
    mem.itlb.entries = tlb_entries;
    std::uint32_t tlb_penalty = mem.dtlb.missPenalty;
    memSection.integer("tlb_penalty", tlb_penalty);
    mem.dtlb.missPenalty = tlb_penalty;
    mem.itlb.missPenalty = tlb_penalty;

    const Section lifecycle(doc, "lifecycle",
                            {"enabled", "max_records", "latency_bins",
                             "hop_bins"});
    auto &lc = conf.lifecycle;
    lifecycle.flag("enabled", lc.enabled);
    lifecycle.integer("max_records", lc.maxRecordsPerStructure);
    lifecycle.integer("latency_bins", lc.latencyBins);
    lifecycle.integer("hop_bins", lc.hopCountBins);
    if (lc.latencyBins == 0 || lc.hopCountBins == 0)
        fatal("config: lifecycle histogram bins must be positive");

    const Section workload(doc, "workload",
                           {"load_frac", "store_frac", "branch_frac",
                            "fp_frac", "dead_frac", "dep_recency",
                            "footprint_kb", "stream_frac",
                            "branch_noise", "seed"});
    auto apply = [&](trace::PhaseParams &p) {
        workload.fraction("load_frac", p.loadFrac);
        workload.fraction("store_frac", p.storeFrac);
        workload.fraction("branch_frac", p.branchFrac);
        workload.fraction("fp_frac", p.fpFrac);
        workload.fraction("dead_frac", p.deadFrac);
        workload.fraction("dep_recency", p.depRecency);
        workload.integer("footprint_kb", p.footprint, 1024);
        workload.fraction("stream_frac", p.streamFrac);
        workload.fraction("branch_noise", p.branchNoise);
    };
    apply(conf.profile.base);
    for (auto &phase : conf.profile.phases)
        apply(phase.params);
    workload.integer("seed", conf.profile.seed);

    conf.cpu.validate();
    return conf;
}

} // namespace avf::harness
