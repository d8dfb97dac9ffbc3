/**
 * @file
 * Trace-file workflow, the role the Aria/MET trace repository plays
 * in the paper: capture a synthetic workload to a binary .avftrace
 * file, inspect it, and replay it through the simulator with the
 * online estimator attached.
 *
 *   trace_tools gen <benchmark> <path> <instruction-count>
 *   trace_tools info <path>
 *   trace_tools run <path> [intervals]
 */

#include <climits>
#include <cstdint>
#include <cstdio>
#include <cstring>
#include <map>
#include <memory>
#include <string>

#include "core/online_estimator.hh"
#include "cpu/pipeline.hh"
#include "trace/spec_profiles.hh"
#include "trace/synthetic.hh"
#include "trace/trace_file.hh"
#include "util/cli.hh"

namespace
{

using namespace avf;

int
cmdGen(const std::string &bench, const std::string &path,
       std::uint64_t count)
{
    trace::SyntheticTraceGenerator gen(trace::specProfile(bench));
    trace::TraceFileWriter writer(path);
    trace::TraceInstruction in;
    for (std::uint64_t i = 0; i < count; ++i) {
        gen.next(in);
        writer.append(in);
    }
    writer.close();
    std::printf("wrote %llu instructions of '%s' to %s\n",
                static_cast<unsigned long long>(count), bench.c_str(),
                path.c_str());
    return 0;
}

int
cmdInfo(const std::string &path)
{
    trace::TraceFileReader reader(path);
    std::printf("%s: %llu instructions\n", path.c_str(),
                static_cast<unsigned long long>(reader.count()));

    std::map<trace::OpClass, std::uint64_t> mix;
    std::uint64_t taken = 0, branches = 0;
    trace::TraceInstruction in;
    while (reader.next(in)) {
        ++mix[in.op];
        if (trace::isBranch(in.op)) {
            ++branches;
            taken += in.taken ? 1 : 0;
        }
    }
    std::printf("instruction mix:\n");
    for (const auto &[op, count] : mix)
        std::printf("  %-12s %8llu  (%.1f%%)\n",
                    std::string(trace::opClassName(op)).c_str(),
                    static_cast<unsigned long long>(count),
                    100.0 * static_cast<double>(count) /
                        static_cast<double>(reader.count()));
    if (branches)
        std::printf("branch taken rate: %.1f%%\n",
                    100.0 * static_cast<double>(taken) /
                        static_cast<double>(branches));
    return 0;
}

int
cmdRun(const std::string &path, int intervals)
{
    trace::TraceFileReader reader(path, /*loop=*/true);
    cpu::Pipeline pipe(cpu::CpuConfig{}, reader);

    core::OnlineConfig online;
    std::vector<std::unique_ptr<core::OnlineAvfEstimator>> ests;
    for (int s = 0; s < core::numPaperStructures; ++s) {
        ests.push_back(std::make_unique<core::OnlineAvfEstimator>(
            pipe, static_cast<core::Structure>(s), online));
        pipe.addObserver(ests.back().get());
    }

    std::printf("interval      iq     reg     fxu     fpu\n");
    for (int k = 0; k < intervals; ++k) {
        // +1 cycle: the estimate is published on the first cycle of
        // the following interval.
        pipe.run(online.m * online.n + 1);
        std::printf("%8d ", k);
        for (auto &est : ests) {
            if (est->estimates().size() >
                static_cast<std::size_t>(k))
                std::printf(" %6.3f", est->estimates()[k]);
            else
                std::printf("      -");
        }
        std::printf("\n");
    }
    std::printf("IPC %.2f over %llu cycles\n", pipe.stats().ipc(),
                static_cast<unsigned long long>(pipe.stats().cycles));
    return 0;
}

void
usage()
{
    std::fprintf(stderr,
                 "usage:\n"
                 "  trace_tools gen <benchmark> <path> <count>\n"
                 "  trace_tools info <path>\n"
                 "  trace_tools run <path> [intervals]\n");
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        usage();
        return 1;
    }
    std::string cmd = argv[1];
    std::uint64_t count = 3;
    if (cmd == "gen" && argc >= 5) {
        if (!parseCount("trace_tools", "count", argv[4], 1, UINT64_MAX,
                        count))
            return 1;
        return cmdGen(argv[2], argv[3], count);
    }
    if (cmd == "info")
        return cmdInfo(argv[2]);
    if (cmd == "run") {
        if (argc > 3 && !parseCount("trace_tools", "intervals", argv[3],
                                    1, INT_MAX, count))
            return 1;
        return cmdRun(argv[2], static_cast<int>(count));
    }
    usage();
    return 1;
}
