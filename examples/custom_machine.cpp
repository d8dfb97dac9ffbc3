/**
 * @file
 * AVF is a property of the machine as much as of the workload: run
 * the same benchmark on two machine configurations loaded from JSON
 * files and compare the structures' vulnerability. Demonstrates the
 * config-file front end (harness/config_loader.hh):
 *
 *   configs/table1.json    the paper's machine, Table 1 of Li et al.,
 *                          ISCA 2008 (POWER4-like). Every value matches
 *                          the built-in defaults; the file exists as a
 *                          template to copy and edit.
 *   configs/lowpower.json  a narrow low-power core: half the width, a
 *                          quarter of the window, smaller caches.
 *
 *   Usage: custom_machine <config-a.json> <config-b.json> [intervals]
 */

#include <cstdio>
#include <cstdlib>
#include <string>

#include "harness/config_loader.hh"
#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "stats/running_stats.hh"
#include "util/logging.hh"

namespace
{

using namespace avf;
using core::Structure;

harness::ExperimentConfig
configFrom(const std::string &path, int intervals)
{
    auto conf = harness::loadExperimentConfig(path);
    if (intervals > 0)
        conf.numIntervals = intervals;
    std::printf("running %s on machine '%s' (%d intervals, "
                "dispatch %d-wide, IQ %d entries, ROB %d)\n",
                conf.profile.name.c_str(), path.c_str(),
                conf.numIntervals, conf.cpu.dispatchWidth,
                conf.cpu.totalIqEntries(), conf.cpu.robEntries);
    return conf;
}

double
meanAvf(const harness::ExperimentResult &result, Structure s)
{
    stats::RunningStats acc;
    for (double v : result.softarchSeries(s))
        acc.add(v);
    return acc.mean();
}

} // namespace

int
main(int argc, char **argv)
{
    if (argc < 3) {
        std::fprintf(stderr,
                     "usage: custom_machine <config-a.json> "
                     "<config-b.json> [intervals]\n");
        return 1;
    }
    int intervals = argc > 3 ? std::atoi(argv[3]) : 8;

    // Both machine configurations simulate concurrently on one
    // engine; results come back in submission order.
    harness::ExperimentEngine engine;
    engine.submit("machine A", configFrom(argv[1], intervals));
    engine.submit("machine B", configFrom(argv[2], intervals));
    auto tasks = engine.collect();
    for (const auto &task : tasks)
        if (!task.ok())
            fatal("%s failed: %s", task.name.c_str(),
                  task.errorText.c_str());
    const auto &a = tasks[0].result;
    const auto &b = tasks[1].result;

    std::printf("\n%-6s %14s %14s\n", "struct", "machine A",
                "machine B");
    for (int s = 0; s < core::numPaperStructures; ++s) {
        auto structure = static_cast<Structure>(s);
        std::printf("%-6s %14.3f %14.3f\n",
                    std::string(core::structureName(structure))
                        .c_str(),
                    meanAvf(a, structure), meanAvf(b, structure));
    }
    std::printf("\nIPC: %.2f vs %.2f\n", a.summary.ipc, b.summary.ipc);
    std::printf("\nSame program, different machine, different "
                "vulnerability profile — which is why AVF must be "
                "estimated on the machine that will rely on it.\n");
    return 0;
}
