/**
 * @file
 * Build an ExperimentConfig from a JSON file, so machines and
 * workloads can be explored without recompiling. The document is one
 * object whose members are sections; every section and key is
 * optional (defaults = Table 1 and M = N = 1000):
 *
 *   "experiment" benchmark="mesa" intervals=100 lookahead=32768
 *   "online"     m=1000 n=1000 randomize=false seed=12345
 *   "cpu"        fetch_width, dispatch_width, retire_width,
 *                rob_entries, intls_iq, fp_iq, br_iq, fxu, fpu, lsu,
 *                bru, int_regs, fp_regs, store_queue, fetch_buffer,
 *                redirect_penalty, predictor_bits, history_bits
 *   "mem"        l1d_kb, l1d_ways, l1i_kb, l1i_ways, l2_kb, l2_ways,
 *                line_bytes, l1_lat, l2_lat, mem_lat, tlb_entries,
 *                tlb_penalty
 *   "lifecycle"  enabled=false max_records=2048 (injection-lifecycle
 *                tracing; see obs/lifecycle.hh)
 *   "workload"   (overrides applied on top of the named benchmark's
 *                profile) load_frac, store_frac, branch_frac,
 *                fp_frac, dead_frac, dep_recency, footprint_kb,
 *                stream_frac, branch_noise, seed
 *
 * For example {"cpu": {"fxu": 2}, "mem": {"l2_kb": 1024}}. Integers
 * must be JSON non-negative integers that fit the field they fill
 * (after the x1024 of the *_kb keys), booleans true or false, the
 * benchmark a string and the workload fractions (every workload key
 * but footprint_kb and seed) numbers in [0, 1]; anything else is
 * fatal(), and so is a key repeated within an object (a json::parse
 * error). Unknown sections and keys are reported via warn() so typos
 * do not silently do nothing. configs/table1.json and
 * configs/lowpower.json are worked examples.
 */

#ifndef AVF_HARNESS_CONFIG_LOADER_HH
#define AVF_HARNESS_CONFIG_LOADER_HH

#include <string>

#include "harness/engine.hh"
#include "harness/experiment.hh"
#include "util/json.hh"

namespace avf::harness
{

/** Read and parse the JSON file @p path into an ExperimentConfig;
 *  fatal() when it cannot be read, is not JSON, or holds bad values. */
ExperimentConfig loadExperimentConfig(const std::string &path);

/** Same, from an already-parsed document (tests). */
ExperimentConfig loadExperimentConfig(const json::Value &doc);

/**
 * Resolve campaign RunOptions once, here, instead of scattering
 * env-var reads through every bench. The explicit struct is the
 * contract; the environment variables are documented fallbacks:
 *
 *   AVF_INTERVALS=<n>  interval count (must be a positive integer)
 *   AVF_LANES=<n>      concurrent injection windows requested per
 *                      estimator (1..64; default 64). 1 = the paper's
 *                      serial Algorithm 1, byte-identical to
 *                      historical campaign output. An experiment
 *                      caps each of its five online estimators at
 *                      64/5 = 12 lanes, so 12..64 run identically
 *                      (see harness/experiment.cc)
 *   AVF_FAST=1         smoke mode: shrink intervals to 12 (wins over
 *                      AVF_INTERVALS; accepts 1/true/yes/on and
 *                      0/false/no/off)
 *   AVF_LIFECYCLE=1    injection-lifecycle tracing (obs/lifecycle.hh):
 *                      ExperimentEngine::submit enables
 *                      ExperimentConfig::lifecycle on every task of
 *                      every campaign bench, progressLine() reports
 *                      each task's outcome digest, and exportCampaign
 *                      writes <campaign>_<task>_lifecycle.jsonl per
 *                      task (same boolean syntax as AVF_FAST)
 *   AVF_METRICS=<p>    metrics layer (obs/metrics.hh): enable
 *                      ExperimentConfig::metrics on every task and
 *                      write <p>_METRICS.json plus <p>_TRACE.json
 *                      per campaign, and <p>_ROOTCAUSE.json when its
 *                      tasks carry attribution (see export.hh:
 *                      exportCampaign). The value is a path prefix;
 *                      whitespace/control characters are rejected.
 *   AVF_MTTF_BUDGET_HOURS=<h>
 *                      closed-loop control (control/
 *                      throttle_controller.hh): arm the budget-mode
 *                      controller on every task with an MTTF budget
 *                      of <h> hours (strict positive number; junk,
 *                      zero, or negative is fatal()). Unset keeps
 *                      the control loop fully disabled and campaign
 *                      stdout byte-identical to uncontrolled runs.
 *
 * Malformed values — non-numeric, negative, or zero AVF_INTERVALS,
 * unrecognized AVF_FAST / AVF_LIFECYCLE, malformed AVF_METRICS — are
 * rejected with fatal() instead of being silently ignored. Worker-thread count has NO env
 * var by design: override RunOptions::threads in code.
 *
 * @param paperDefaultIntervals interval count when no override is
 *        present (the paper uses 100-200 depending on the figure).
 */
RunOptions loadRunOptions(int paperDefaultIntervals = 100);

} // namespace avf::harness

#endif // AVF_HARNESS_CONFIG_LOADER_HH
