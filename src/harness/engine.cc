#include "harness/engine.hh"

#include <cstdio>
#include <stdexcept>
#include <utility>

#include "util/logging.hh"
#include "util/random.hh"
#include "util/timing.hh"

namespace avf::harness
{

ExperimentEngine::ExperimentEngine(RunOptions options)
    : opts(options), pool(options.threads)
{
}

ExperimentEngine::~ExperimentEngine()
{
    // Let in-flight tasks finish; abandoning them would leave workers
    // writing into freed slots.
    pool.wait();
}

unsigned
ExperimentEngine::threadCount() const
{
    return static_cast<unsigned>(pool.size());
}

ThreadPool::PoolStats
ExperimentEngine::poolStats() const
{
    return pool.stats();
}

void
ExperimentEngine::onTaskDone(ProgressFn callback)
{
    progress = std::move(callback);
}

void
deriveTaskSeeds(ExperimentConfig &config, std::uint64_t salt,
                std::size_t index)
{
    // Seeds derive from the submission index, never from scheduling
    // order, so re-seeded campaigns stay deterministic at any thread
    // (or, through the serve sharder, process) count.
    Rng derive(salt ^ (0x9e3779b97f4a7c15ull * (index + 1)));
    config.profile.seed = derive.next();
    config.online.seed = derive.next();
}

std::size_t
ExperimentEngine::submit(std::string name, ExperimentConfig config)
{
    if (opts.seedSalt != 0)
        deriveTaskSeeds(config, opts.seedSalt, batch.size());
    // A campaign-level metrics prefix or lifecycle flag opts every
    // task in; a config that already asked for either keeps it.
    if (!opts.metricsPrefix.empty())
        config.metrics = true;
    if (opts.lifecycle)
        config.lifecycle.enabled = true;
    // A campaign-level MTTF budget arms the control loop on every
    // task; a config that already configured control keeps its own
    // (more specific) settings untouched.
    if (opts.mttfBudgetHours > 0.0 && !config.control.enabled) {
        config.control.enabled = true;
        config.control.mttfBudgetHours = opts.mttfBudgetHours;
    }
    // lanes=0 means "inherit the campaign's lane count"; a config
    // with an explicit lane count keeps it.
    if (config.online.lanes == 0)
        config.online.lanes = opts.lanes;
    return submit(std::move(name),
                  [config = std::move(config)] {
                      return detail::runExperimentDirect(config);
                  });
}

std::size_t
ExperimentEngine::submit(std::string name, TaskFn task)
{
    std::size_t index = batch.size();
    batch.emplace_back();
    TaskResult &slot = batch.back();
    slot.index = index;
    slot.name = std::move(name);
    pool.submit([this, &slot, task = std::move(task)] {
        runTask(slot, task);
    });
    return index;
}

void
ExperimentEngine::runTask(TaskResult &slot, const TaskFn &task)
{
    // Wall time feeds only the wallMs progress metric and the trace
    // side channel, never the experiment results; steadyNowNs is the
    // sanctioned clock entry point.
    slot.worker = ThreadPool::currentWorkerId();
    slot.startNs = timing::steadyNowNs();
    try {
        slot.result = task();
    } catch (const std::exception &e) {
        slot.errorText = e.what();
        slot.exception = std::current_exception();
    } catch (...) {
        slot.errorText = "unknown exception";
        slot.exception = std::current_exception();
    }
    slot.endNs = timing::steadyNowNs();
    slot.wallMs =
        static_cast<double>(slot.endNs - slot.startNs) * 1e-6;
    if (progress) {
        std::lock_guard<std::mutex> lock(progressMutex);
        progress(slot.name, slot.wallMs,
                 slot.ok() ? slot.result.summary : RunSummary{});
    }
}

std::vector<TaskResult>
ExperimentEngine::collect()
{
    pool.wait();
    std::vector<TaskResult> out;
    out.reserve(batch.size());
    for (auto &slot : batch)
        out.push_back(std::move(slot));
    batch.clear();
    return out;
}

ExperimentEngine::ProgressFn
progressLine(const RunOptions &options)
{
    // stderr, not stdout: campaign stdout is byte-compared.
    return [lifecycle = options.lifecycle](const std::string &name,
                                           double wallMs,
                                           const RunSummary &s) {
        using ull = unsigned long long;
        std::fprintf(stderr, "finished %s in %.0f ms (%.2f IPC)\n",
                     name.c_str(), wallMs, s.ipc);
        if (lifecycle)
            std::fprintf(stderr,
                         "  lifecycle: %llu injections, %llu failures, "
                         "%llu killed, %llu expired\n",
                         ull{s.lifecycleRecords}, ull{s.lifecycleFailures},
                         ull{s.lifecycleKilled}, ull{s.lifecycleExpired});
    };
}

std::vector<TaskResult>
collectOrDie(ExperimentEngine &engine)
{
    auto tasks = engine.collect();
    for (const auto &task : tasks)
        if (!task.ok())
            fatal("%s failed: %s", task.name.c_str(),
                  task.errorText.c_str());
    return tasks;
}

} // namespace avf::harness
