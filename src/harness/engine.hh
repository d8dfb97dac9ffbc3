/**
 * @file
 * The campaign engine. Every figure and ablation in the paper is a
 * campaign — the same experiment repeated across workloads, M/N
 * sweeps, or sampling modes — and the per-(workload, config) runs are
 * embarrassingly parallel. Callers enqueue named ExperimentConfig
 * tasks with submit(), the engine fans them out over a fixed-size
 * worker pool, and collect() returns the results in submission order,
 * so campaign output is byte-identical regardless of thread count.
 *
 * Determinism contract: a task's result depends only on its config
 * (every RNG stream is seeded from the config, and optional re-seeding
 * derives from the task's submission index) — never on which worker
 * ran it or in what order the pool scheduled it.
 */

#ifndef AVF_HARNESS_ENGINE_HH
#define AVF_HARNESS_ENGINE_HH

#include <cstddef>
#include <cstdint>
#include <deque>
#include <exception>
#include <functional>
#include <memory>
#include <mutex>
#include <string>
#include <vector>

#include "harness/experiment.hh"
#include "util/thread_pool.hh"

namespace avf::harness
{

/**
 * Campaign-level run options, resolved once (see
 * config_loader.hh:loadRunOptions) instead of sprinkling env-var
 * reads through every bench.
 */
struct RunOptions
{
    /** Estimation intervals per task (benches scale figures by it). */
    int intervals = 100;
    /** Worker threads; 0 = std::thread::hardware_concurrency(). */
    unsigned threads = 0;
    /** Smoke-run mode: loadRunOptions() shrinks intervals to 12. */
    bool fastMode = false;
    /**
     * Concurrent injection windows requested per estimator
     * (error-plane bit lanes; AVF_LANES, 1..64). submit() copies this
     * into any task whose ExperimentConfig::online.lanes is 0
     * ("inherit"). 1 runs the paper's serial Algorithm 1 exactly —
     * campaign stdout at lanes=1 is byte-identical to the historical
     * serial runs. The experiment body caps each of its five online
     * estimators at 64/5 = 12 lanes, so any value from 12 to 64 (the
     * default) runs the same: each N-injection interval closes in
     * ceil(N/12) window boundaries.
     */
    int lanes = 64;
    /**
     * Injection-lifecycle tracing (resolved from AVF_LIFECYCLE by
     * loadRunOptions). True enables ExperimentConfig::lifecycle on
     * every task submit() builds from these options; exportCampaign()
     * (export.hh) then writes each task's record stream as
     * <campaign>_<task>_lifecycle.jsonl and progressLine() adds the
     * outcome digest to every task's line.
     */
    bool lifecycle = false;
    /**
     * When nonzero, submit() re-derives each task's workload and
     * estimator seeds from (seedSalt, submission index) — never from
     * scheduling order. Zero (the default) leaves the seeds in the
     * submitted config untouched, which keeps engine campaigns
     * byte-identical to the historical serial runExperiment() loops.
     */
    std::uint64_t seedSalt = 0;
    /**
     * Metrics export prefix (resolved from AVF_METRICS by
     * loadRunOptions). Non-empty enables ExperimentConfig::metrics on
     * every task submit() builds from these options, and
     * exportCampaign() (export.hh) writes <prefix>_METRICS.json
     * (deterministic snapshot) and <prefix>_TRACE.json (wall-clock
     * trace_event side channel).
     * Empty (the default) keeps the metrics layer fully disabled.
     */
    std::string metricsPrefix{};
    /**
     * MTTF budget in hours (resolved from AVF_MTTF_BUDGET_HOURS by
     * loadRunOptions; strict positive double, junk is fatal()).
     * Positive enables ExperimentConfig::control in budget mode on
     * every task submit() builds from these options. Zero (the
     * default) leaves the control loop fully disabled, keeping
     * campaign stdout byte-identical to uncontrolled runs.
     */
    double mttfBudgetHours = 0.0;
};

/** Outcome of one engine task. */
struct TaskResult
{
    /** Submission index (collect() returns tasks in this order). */
    std::size_t index = 0;
    /** Name given at submit(). */
    std::string name;
    /** The experiment output; meaningful only when ok(). */
    ExperimentResult result;
    /** Empty on success; the failure message otherwise. (Named
     *  errorText, not error: in this codebase bare `error` members
     *  are per-entry error-bit planes — avflint enforces that.) */
    std::string errorText;
    /** The captured exception, for callers who want to rethrow. */
    std::exception_ptr exception;
    /** Wall-clock time the task spent executing, in milliseconds. */
    double wallMs = 0.0;
    /** Execution span ticks (timing::steadyNowNs domain) and the
     *  pool worker that ran the task — trace side channel only,
     *  never part of deterministic exports. */
    std::uint64_t startNs = 0;
    std::uint64_t endNs = 0;
    int worker = -1;

    /** True when the task ran to completion. */
    bool ok() const { return errorText.empty(); }
};

/**
 * Re-derive @p config's workload and estimator seeds from
 * (@p salt, @p index) — the engine's seed rule for re-seeded
 * campaigns, factored out so other schedulers (the avf-serve slice
 * sharder) assign byte-identical seeds to the task at a given index
 * without going through submit(). @p salt must be nonzero.
 */
void deriveTaskSeeds(ExperimentConfig &config, std::uint64_t salt,
                     std::size_t index);

/**
 * Parallel, deterministic experiment runner.
 *
 * Usage:
 *     ExperimentEngine engine;               // or engine(options)
 *     for (...) engine.submit(name, config); // fans out immediately
 *     for (auto &task : engine.collect())    // submission order
 *         use(task.result);
 *
 * A task that throws is reported in its TaskResult without affecting
 * sibling tasks. The engine is reusable: submit/collect cycles may
 * repeat. Not itself thread-safe — drive it from one thread.
 */
class ExperimentEngine
{
  public:
    /** A task body; must be self-contained (no shared mutable state). */
    using TaskFn = std::function<ExperimentResult()>;
    /** Progress callback; see onTaskDone(). */
    using ProgressFn = std::function<void(
        const std::string &name, double wallMs, const RunSummary &)>;

    explicit ExperimentEngine(RunOptions options = RunOptions{});
    ~ExperimentEngine();

    ExperimentEngine(const ExperimentEngine &) = delete;
    ExperimentEngine &operator=(const ExperimentEngine &) = delete;

    /**
     * Enqueue a standard experiment; starts as soon as a worker is
     * free. With options.seedSalt nonzero the config's seeds are
     * re-derived from the submission index first.
     *
     * @return the task's submission index.
     */
    std::size_t submit(std::string name, ExperimentConfig config);

    /**
     * Enqueue an arbitrary task body (custom pipelines, fault
     * campaigns, tests). The body runs on a worker thread and must
     * not touch shared mutable state.
     */
    std::size_t submit(std::string name, TaskFn task);

    /**
     * Install a campaign-observability callback, invoked once per
     * finished task (in completion order, serialized) with the task's
     * name, wall-clock milliseconds, and run summary. Failed tasks
     * report a zeroed summary. The callback runs on worker threads —
     * keep it light. Set before the first submit().
     */
    void onTaskDone(ProgressFn callback);

    /**
     * Block until every submitted task finished and return their
     * results in submission order. Resets the engine for the next
     * submit/collect batch.
     */
    std::vector<TaskResult> collect();

    /** Resolved worker count (>= 1). */
    unsigned threadCount() const;

    /** Pool queue/dispatch counters (trace side channel). */
    ThreadPool::PoolStats poolStats() const;

    /** Options the engine was built with. */
    const RunOptions &options() const { return opts; }

  private:
    void runTask(TaskResult &slot, const TaskFn &task);

    RunOptions opts;
    ThreadPool pool;
    ProgressFn progress;
    std::mutex progressMutex;
    /** Slots for the current batch; deque keeps references stable
     *  while workers fill earlier slots and submit() appends. */
    std::deque<TaskResult> batch;
};

/**
 * The campaign progress callback every bench installs with
 * ExperimentEngine::onTaskDone: one stderr line per finished task
 * with its name, wall-clock milliseconds and IPC, followed by the
 * lifecycle outcome digest when @p options.lifecycle is set.
 */
ExperimentEngine::ProgressFn progressLine(const RunOptions &options);

/**
 * ExperimentEngine::collect() for campaigns that cannot use a
 * partial result: the tasks in submission order, or fatal() on the
 * first failed one, naming the task and its error.
 */
std::vector<TaskResult> collectOrDie(ExperimentEngine &engine);

} // namespace avf::harness

#endif // AVF_HARNESS_ENGINE_HH
