#include "micro.hh"

#include <algorithm>
#include <cmath>
#include <cstdio>
#include <fstream>
#include <sstream>
#include <string_view>

#include "util/json.hh"
#include "util/logging.hh"

namespace avf::micro
{

namespace
{

struct Registered
{
    std::string name;
    BenchFn fn;
};

/** Meyers singleton so registration works across TUs regardless of
 * static-init order. */
std::vector<Registered> &
registry()
{
    static std::vector<Registered> benches;
    return benches;
}

/** One timed repeat: @return ns per iteration and the items/iter. */
double
timeRepeat(BenchFn fn, std::uint64_t iters, std::uint64_t &itemsOut)
{
    Bench b;
    b.arm(iters);
    fn(b);
    itemsOut = b.itemsPerIter();
    avf_assert(b.nextCalls() == b.iterations() + 1,
               "benchmark body must drain the next() loop "
               "(%llu of %llu iterations)",
               static_cast<unsigned long long>(b.nextCalls()),
               static_cast<unsigned long long>(b.iterations()));
    return static_cast<double>(b.elapsedRawNs()) /
           static_cast<double>(iters ? iters : 1);
}

/**
 * Double the iteration count until one repeat takes at least
 * @p minTimeNs. Capped so a pathologically fast clock cannot spin
 * forever.
 */
std::uint64_t
calibrate(BenchFn fn, double minTimeNs)
{
    std::uint64_t iters = 1;
    for (int step = 0; step < 40; ++step) {
        Bench b;
        b.arm(iters);
        fn(b);
        if (static_cast<double>(b.elapsedRawNs()) >= minTimeNs)
            break;
        // Aim directly at the target once a measurable time exists,
        // else keep doubling.
        if (b.elapsedRawNs() > 1000) {
            double scale = minTimeNs /
                static_cast<double>(b.elapsedRawNs());
            auto next = static_cast<std::uint64_t>(
                static_cast<double>(iters) * scale * 1.2);
            iters = std::max(iters * 2, next);
        } else {
            iters *= 8;
        }
    }
    return iters;
}

Result
runOne(const Registered &bench, const Options &opts)
{
    const double min_time_ns = opts.minTimeMs * 1e6;
    const std::uint64_t iters = calibrate(bench.fn, min_time_ns);

    std::uint64_t items = 1;
    for (int w = 0; w < opts.warmupRepeats; ++w)
        timeRepeat(bench.fn, iters, items);

    std::vector<double> samples;
    samples.reserve(static_cast<std::size_t>(opts.repeats));
    for (int r = 0; r < opts.repeats; ++r)
        samples.push_back(timeRepeat(bench.fn, iters, items));
    std::sort(samples.begin(), samples.end());

    Result res;
    res.name = bench.name;
    res.iterations = iters;
    res.repeats = opts.repeats;
    res.minNs = samples.front();
    res.maxNs = samples.back();
    std::size_t n = samples.size();
    res.medianNs = n % 2 ? samples[n / 2]
                         : 0.5 * (samples[n / 2 - 1] + samples[n / 2]);

    // Trimmed mean: drop the top and bottom 20% (floor), keeping at
    // least one sample.
    std::size_t trim = n / 5;
    if (2 * trim >= n)
        trim = (n - 1) / 2;
    double total = 0.0;
    for (std::size_t i = trim; i < n - trim; ++i)
        total += samples[i];
    res.trimmedMeanNs = total / static_cast<double>(n - 2 * trim);

    double mean_all = 0.0;
    for (double s : samples)
        mean_all += s;
    mean_all /= static_cast<double>(n);
    double var = 0.0;
    for (double s : samples)
        var += (s - mean_all) * (s - mean_all);
    res.stddevNs = n > 1
        ? std::sqrt(var / static_cast<double>(n - 1))
        : 0.0;

    res.itemsPerSec = timing::ratePerSec(items, res.trimmedMeanNs);
    return res;
}

/**
 * Pull (name, trimmed_mean_ns) pairs out of a previous JSON report
 * (this harness's own avf-micro-v1 format).
 */
std::vector<std::pair<std::string, double>>
readBaseline(const std::string &path)
{
    std::vector<std::pair<std::string, double>> out;
    std::ifstream in(path);
    if (!in) {
        warn("bench/micro: cannot read baseline %s", path.c_str());
        return out;
    }
    std::ostringstream text;
    text << in.rdbuf();
    json::Value doc;
    std::string error;
    const json::Value *benches =
        json::parse(text.str(), doc, error)
            ? doc.find("benchmarks", json::Value::Kind::Array)
            : nullptr;
    if (!benches) {
        warn("bench/micro: %s is not an avf-micro report%s%s",
             path.c_str(), error.empty() ? "" : ": ", error.c_str());
        return out;
    }
    for (const json::Value &bench : benches->items) {
        const json::Value *name =
            bench.find("name", json::Value::Kind::String);
        const json::Value *mean = bench.find("trimmed_mean_ns");
        if (!name || !mean || !mean->isNumber()) {
            warn("bench/micro: malformed baseline entry in %s",
                 path.c_str());
            continue;
        }
        out.emplace_back(name->text, mean->asDouble());
    }
    return out;
}

void
writeJson(const std::vector<Result> &results, const Options &opts)
{
    using Layout = json::Writer::Layout;
    std::string text;
    json::Writer out(text, json::Writer::Style::Spaced);
    out.startObject(Layout::Lines)
        .member("schema").text("avf-micro-v1")
        .member("mode").text(opts.smoke ? "smoke" : "full")
        .member("benchmarks").startArray(Layout::Lines);
    for (const Result &r : results) {
        out.startObject()
            .member("name").text(r.name)
            .member("iterations").uint(r.iterations)
            .member("repeats").sint(r.repeats)
            .member("trimmed_mean_ns").fixed(r.trimmedMeanNs, 3)
            .member("median_ns").fixed(r.medianNs, 3)
            .member("min_ns").fixed(r.minNs, 3)
            .member("max_ns").fixed(r.maxNs, 3)
            .member("stddev_ns").fixed(r.stddevNs, 3)
            .member("items_per_sec").fixed(r.itemsPerSec, 3);
        if (r.baselineNs > 0.0)
            out.member("baseline_trimmed_mean_ns").fixed(r.baselineNs, 3)
                .member("speedup").fixed(r.speedup, 3);
        out.endObject();
    }
    out.endArray().endObject().newline();

    std::ofstream file(opts.outPath, std::ios::trunc);
    file << text;
    if (!file.flush())
        fatal("bench/micro: cannot write %s", opts.outPath.c_str());
}

int
usage(const char *argv0)
{
    std::fprintf(
        stderr,
        "usage: %s [--smoke] [--filter SUBSTR] [--out FILE]\n"
        "          [--compare FILE] [--repeats N] [--warmup N]\n"
        "          [--min-time-ms X] [--list]\n"
        "Runs the registered microbenchmarks and writes a JSON\n"
        "report (default BENCH_micro.json). --smoke shrinks the\n"
        "protocol for CI smoke jobs; --compare reads a previous\n"
        "report and adds baseline/speedup fields.\n",
        argv0);
    return 2;
}

} // namespace

bool
registerBench(const char *name, BenchFn fn)
{
    registry().push_back({name, fn});
    return true;
}

int
runMain(int argc, char **argv)
{
    Options opts;
    for (int i = 1; i < argc; ++i) {
        std::string_view arg = argv[i];
        auto value = [&]() -> const char * {
            if (i + 1 >= argc)
                fatal("bench/micro: %s needs a value",
                      std::string(arg).c_str());
            return argv[++i];
        };
        if (arg == "--smoke") {
            opts.smoke = true;
        } else if (arg == "--list") {
            opts.listOnly = true;
        } else if (arg == "--filter") {
            opts.filter = value();
        } else if (arg == "--out") {
            opts.outPath = value();
        } else if (arg == "--compare") {
            opts.comparePath = value();
        } else if (arg == "--repeats") {
            opts.repeats = std::atoi(value());
        } else if (arg == "--warmup") {
            opts.warmupRepeats = std::atoi(value());
        } else if (arg == "--min-time-ms") {
            opts.minTimeMs = std::atof(value());
        } else if (arg == "--help" || arg == "-h") {
            usage(argv[0]);
            return 0;
        } else {
            std::fprintf(stderr, "bench/micro: unknown option '%s'\n",
                         std::string(arg).c_str());
            return usage(argv[0]);
        }
    }
    if (opts.smoke) {
        // Smoke protocol: enough to catch crashes and gross
        // regressions, small enough for a CI job (<60 s total).
        opts.warmupRepeats = 1;
        opts.repeats = 5;
        opts.minTimeMs = 2.0;
    }
    if (opts.repeats < 1 || opts.warmupRepeats < 0 ||
        opts.minTimeMs <= 0.0)
        fatal("bench/micro: invalid protocol parameters");

    auto benches = registry();
    std::sort(benches.begin(), benches.end(),
              [](const Registered &a, const Registered &b) {
                  return a.name < b.name;
              });

    if (opts.listOnly) {
        for (const auto &bench : benches)
            std::printf("%s\n", bench.name.c_str());
        return 0;
    }

    auto baseline = opts.comparePath.empty()
        ? std::vector<std::pair<std::string, double>>{}
        : readBaseline(opts.comparePath);

    std::vector<Result> results;
    for (const auto &bench : benches) {
        if (!opts.filter.empty() &&
            bench.name.find(opts.filter) == std::string::npos)
            continue;
        Result res = runOne(bench, opts);
        for (const auto &[name, ns] : baseline) {
            if (name == res.name && ns > 0.0) {
                res.baselineNs = ns;
                res.speedup = ns / res.trimmedMeanNs;
                break;
            }
        }
        char vs_baseline[48] = "";
        if (res.speedup > 0.0)
            std::snprintf(vs_baseline, sizeof vs_baseline,
                          "  %.2fx vs baseline", res.speedup);
        std::fprintf(stderr,
                     "%-34s %12.1f ns/iter  (median %.1f, "
                     "stddev %.1f, %llu iters x %d)%s\n",
                     res.name.c_str(), res.trimmedMeanNs,
                     res.medianNs, res.stddevNs,
                     static_cast<unsigned long long>(res.iterations),
                     res.repeats, vs_baseline);
        results.push_back(std::move(res));
    }

    if (results.empty()) {
        std::fprintf(stderr, "bench/micro: no benchmarks matched\n");
        return 1;
    }
    writeJson(results, opts);
    std::fprintf(stderr, "bench/micro: wrote %zu result%s to %s\n",
                 results.size(), results.size() == 1 ? "" : "s",
                 opts.outPath.c_str());
    return 0;
}

} // namespace avf::micro
