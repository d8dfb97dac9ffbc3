#include "harness/config_loader.hh"

#include <algorithm>
#include <cstdlib>
#include <cstring>
#include <set>
#include <string>
#include <vector>

#include "trace/spec_profiles.hh"
#include "util/logging.hh"

namespace avf::harness
{

namespace
{

void
warnUnknownKeys(const KeyValueFile &file, const std::string &section,
                const std::set<std::string> &known)
{
    for (const auto &key : file.keysIn(section)) {
        if (!known.count(key))
            warn("config: unknown key '%s' in section [%s]",
                 key.c_str(), section.c_str());
    }
}

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

int
tailPollMsFromEnv()
{
    // 200 ms default: fast enough to feel live on a terminal, slow
    // enough to cost nothing. 1..60000 keeps typos (0, ms-vs-s
    // confusions) from spinning a core or freezing the tail.
    int ms = envPositiveIntStrict("AVF_TAIL_POLL_MS", 200);
    if (ms > 60'000)
        fatal("AVF_TAIL_POLL_MS=%d exceeds 60000 (one minute)", ms);
    return ms;
}

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
    return loadExperimentConfig(KeyValueFile::fromFile(path));
}

ExperimentConfig
loadExperimentConfig(const KeyValueFile &file)
{
    ExperimentConfig conf;

    // ---- [experiment] ----
    warnUnknownKeys(file, "experiment",
                    {"benchmark", "intervals", "lookahead"});
    std::string bench = file.getString("experiment", "benchmark",
                                       "mesa");
    const auto &names = trace::specBenchmarkNames();
    if (std::find(names.begin(), names.end(), bench) != names.end())
        conf.profile = trace::specProfile(bench);
    else if (bench == "generic")
        conf.profile = trace::WorkloadProfile{};
    else
        fatal("config: unknown benchmark '%s'", bench.c_str());
    conf.numIntervals = static_cast<int>(
        file.getInt("experiment", "intervals", conf.numIntervals));
    conf.lookahead = static_cast<Cycle>(
        file.getInt("experiment", "lookahead",
                    static_cast<std::int64_t>(conf.lookahead)));
    if (conf.numIntervals <= 0)
        fatal("config: intervals must be positive");

    // ---- [online] ----
    warnUnknownKeys(file, "online", {"m", "n", "randomize", "seed"});
    conf.online.m = static_cast<Cycle>(
        file.getInt("online", "m",
                    static_cast<std::int64_t>(conf.online.m)));
    conf.online.n = static_cast<std::uint32_t>(
        file.getInt("online", "n", conf.online.n));
    conf.online.randomizeInjectionTiming =
        file.getBool("online", "randomize",
                     conf.online.randomizeInjectionTiming);
    conf.online.seed = static_cast<std::uint64_t>(
        file.getInt("online", "seed",
                    static_cast<std::int64_t>(conf.online.seed)));
    if (conf.online.m == 0 || conf.online.n == 0)
        fatal("config: online m and n must be positive");

    // ---- [cpu] ----
    warnUnknownKeys(
        file, "cpu",
        {"fetch_width", "dispatch_width", "retire_width",
         "rob_entries", "intls_iq", "fp_iq", "br_iq", "fxu", "fpu",
         "lsu", "bru", "int_regs", "fp_regs", "store_queue",
         "fetch_buffer", "redirect_penalty", "predictor_bits",
         "history_bits"});
    auto &cpu = conf.cpu;
    auto cpu_int = [&](const char *key, int current) {
        return static_cast<int>(file.getInt("cpu", key, current));
    };
    cpu.fetchWidth = cpu_int("fetch_width", cpu.fetchWidth);
    cpu.dispatchWidth = cpu_int("dispatch_width", cpu.dispatchWidth);
    cpu.retireWidth = cpu_int("retire_width", cpu.retireWidth);
    cpu.robEntries = cpu_int("rob_entries", cpu.robEntries);
    cpu.intLsIqEntries = cpu_int("intls_iq", cpu.intLsIqEntries);
    cpu.fpIqEntries = cpu_int("fp_iq", cpu.fpIqEntries);
    cpu.brIqEntries = cpu_int("br_iq", cpu.brIqEntries);
    cpu.numFxu = cpu_int("fxu", cpu.numFxu);
    cpu.numFpu = cpu_int("fpu", cpu.numFpu);
    cpu.numLsu = cpu_int("lsu", cpu.numLsu);
    cpu.numBru = cpu_int("bru", cpu.numBru);
    cpu.intPhysRegs = cpu_int("int_regs", cpu.intPhysRegs);
    cpu.fpPhysRegs = cpu_int("fp_regs", cpu.fpPhysRegs);
    cpu.storeQueueEntries = cpu_int("store_queue",
                                    cpu.storeQueueEntries);
    cpu.fetchBufferEntries = cpu_int("fetch_buffer",
                                     cpu.fetchBufferEntries);
    cpu.redirectPenalty = cpu_int("redirect_penalty",
                                  cpu.redirectPenalty);
    cpu.predictorBits = cpu_int("predictor_bits", cpu.predictorBits);
    cpu.historyBits = cpu_int("history_bits", cpu.historyBits);

    // ---- [mem] ----
    warnUnknownKeys(file, "mem",
                    {"l1d_kb", "l1d_ways", "l1i_kb", "l1i_ways",
                     "l2_kb", "l2_ways", "line_bytes", "l1_lat",
                     "l2_lat", "mem_lat", "tlb_entries",
                     "tlb_penalty"});
    auto &mem = conf.cpu.mem;
    auto mem_u64 = [&](const char *key, std::uint64_t current) {
        return static_cast<std::uint64_t>(
            file.getInt("mem", key,
                        static_cast<std::int64_t>(current)));
    };
    mem.l1d.sizeBytes = mem_u64("l1d_kb",
                                mem.l1d.sizeBytes / 1024) * 1024;
    mem.l1d.ways = static_cast<std::uint32_t>(
        mem_u64("l1d_ways", mem.l1d.ways));
    mem.l1i.sizeBytes = mem_u64("l1i_kb",
                                mem.l1i.sizeBytes / 1024) * 1024;
    mem.l1i.ways = static_cast<std::uint32_t>(
        mem_u64("l1i_ways", mem.l1i.ways));
    mem.l2.sizeBytes = mem_u64("l2_kb", mem.l2.sizeBytes / 1024) *
                       1024;
    mem.l2.ways = static_cast<std::uint32_t>(
        mem_u64("l2_ways", mem.l2.ways));
    std::uint32_t line = static_cast<std::uint32_t>(
        mem_u64("line_bytes", mem.l1d.lineBytes));
    mem.l1d.lineBytes = line;
    mem.l1i.lineBytes = line;
    mem.l2.lineBytes = line;
    mem.l1Latency = static_cast<std::uint32_t>(
        mem_u64("l1_lat", mem.l1Latency));
    mem.l2Latency = static_cast<std::uint32_t>(
        mem_u64("l2_lat", mem.l2Latency));
    mem.memLatency = static_cast<std::uint32_t>(
        mem_u64("mem_lat", mem.memLatency));
    std::uint32_t tlb_entries = static_cast<std::uint32_t>(
        mem_u64("tlb_entries", mem.dtlb.entries));
    mem.dtlb.entries = tlb_entries;
    mem.itlb.entries = tlb_entries;
    std::uint32_t tlb_penalty = static_cast<std::uint32_t>(
        mem_u64("tlb_penalty", mem.dtlb.missPenalty));
    mem.dtlb.missPenalty = tlb_penalty;
    mem.itlb.missPenalty = tlb_penalty;

    // ---- [lifecycle] ----
    warnUnknownKeys(file, "lifecycle",
                    {"enabled", "max_records", "latency_bins",
                     "hop_bins"});
    auto &lc = conf.lifecycle;
    lc.enabled = file.getBool("lifecycle", "enabled", lc.enabled);
    lc.maxRecordsPerStructure = static_cast<std::size_t>(
        file.getInt("lifecycle", "max_records",
                    static_cast<std::int64_t>(
                        lc.maxRecordsPerStructure)));
    lc.latencyBins = static_cast<std::size_t>(
        file.getInt("lifecycle", "latency_bins",
                    static_cast<std::int64_t>(lc.latencyBins)));
    lc.hopCountBins = static_cast<std::size_t>(
        file.getInt("lifecycle", "hop_bins",
                    static_cast<std::int64_t>(lc.hopCountBins)));
    if (lc.latencyBins == 0 || lc.hopCountBins == 0)
        fatal("config: lifecycle histogram bins must be positive");

    // ---- [workload] overrides ----
    warnUnknownKeys(file, "workload",
                    {"load_frac", "store_frac", "branch_frac",
                     "fp_frac", "dead_frac", "dep_recency",
                     "footprint_kb", "stream_frac", "branch_noise",
                     "seed"});
    auto apply = [&](trace::PhaseParams &p) {
        p.loadFrac = file.getDouble("workload", "load_frac",
                                    p.loadFrac);
        p.storeFrac = file.getDouble("workload", "store_frac",
                                     p.storeFrac);
        p.branchFrac = file.getDouble("workload", "branch_frac",
                                      p.branchFrac);
        p.fpFrac = file.getDouble("workload", "fp_frac", p.fpFrac);
        p.deadFrac = file.getDouble("workload", "dead_frac",
                                    p.deadFrac);
        p.depRecency = file.getDouble("workload", "dep_recency",
                                      p.depRecency);
        p.footprint = static_cast<std::uint64_t>(
            file.getInt("workload", "footprint_kb",
                        static_cast<std::int64_t>(
                            p.footprint / 1024))) * 1024;
        p.streamFrac = file.getDouble("workload", "stream_frac",
                                      p.streamFrac);
        p.branchNoise = file.getDouble("workload", "branch_noise",
                                       p.branchNoise);
    };
    apply(conf.profile.base);
    for (auto &phase : conf.profile.phases)
        apply(phase.params);
    conf.profile.seed = static_cast<std::uint64_t>(
        file.getInt("workload", "seed",
                    static_cast<std::int64_t>(conf.profile.seed)));

    conf.cpu.validate();
    return conf;
}

} // namespace avf::harness
