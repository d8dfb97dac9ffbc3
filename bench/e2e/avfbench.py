#!/usr/bin/env python3
"""End-to-end benchmark of avf-online.

Builds a Release copy of the libraries, avf-serve and the rep driver
into build-e2e/, runs each workload rep by rep in fresh processes,
checks every output, and prints each metric with its unit, median,
quartiles and sample count. The last line of stdout is one JSON
object: {"correct", "attempted", "failed", "metrics"}.

  python3 bench/e2e/avfbench.py [--workload NAME|all] [--seed N]
      [--seconds S] [--trace 0|1] [--smoke]
  python3 bench/e2e/avfbench.py compare PARENT CHANGE

PARENT and CHANGE are BENCH_RESULTS.json files or directories of them
(one file per run). Metric names, units, directions and bounds come from BENCHMARK.json at
the repo root. See bench/e2e/README.md for the workloads, the metrics
and the measurement protocol.
"""

import argparse
import json
import os
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

sys.dont_write_bytecode = True

ROOT = Path(__file__).resolve().parents[2]
HERE = ROOT / "bench" / "e2e"
BUILD = ROOT / "build-e2e"
REP_BIN = BUILD / "avfbench_rep"
SERVE_BIN = BUILD / "avf" / "tools" / "avf-serve" / "avf-serve"
WORKLOADS = ["fig3_paper", "fig3_observed", "ablation_sweep", "serve_stream"]
DEFAULT_SEED = 1
MIN_REPS = 5
REP_TIMEOUT_S = 150
BUILD_TIMEOUT_S = 850
# How a run's value of a metric comes from its reps; the default is
# the median. Other tenants of a shared host only ever slow a rep down,
# so a run's throughput is its best rep (as timeit takes the fastest
# time), which repeats across runs better than the median of reps
# does (bench/e2e/README.md, measured sets). A peak is the largest.
RUN_VALUE = {"sim_cycles_per_s": max, "peak_rss_mb": max}

_current = None  # the rep process running now, for signal cleanup


def die(message, code=2):
    print(f"avfbench: {message}", file=sys.stderr)
    sys.exit(code)


def load_benchmark():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    e2e = {m["name"]: m for m in spec["end_to_end"]}
    layers = {m["name"]: m for m in spec["per_layer"]}
    return spec, e2e, layers


# ------------------------------------------------------------------ #
# build                                                               #
# ------------------------------------------------------------------ #

def build(jobs):
    if not (ROOT / "CMakeLists.txt").is_file() or not (ROOT / "src").is_dir():
        die("the avf-online source tree is not here; nothing to build")
    BUILD.mkdir(exist_ok=True)
    steps = []
    if not (BUILD / "CMakeCache.txt").is_file():
        generator = ["-G", "Ninja"] if shutil.which("ninja") else []
        steps.append(["cmake", "-S", str(HERE), "-B", str(BUILD)] + generator)
    steps.append(["cmake", "--build", str(BUILD), "--target", "avfbench_rep",
                  "-j", str(jobs)])
    with open(BUILD / "build.log", "w") as log:
        for cmd in steps:
            try:
                rc = subprocess.run(cmd, stdout=log, stderr=subprocess.STDOUT,
                                    stdin=subprocess.DEVNULL,
                                    timeout=BUILD_TIMEOUT_S).returncode
            except subprocess.TimeoutExpired:
                rc = -1
            if rc != 0:
                log.flush()
                tail = (BUILD / "build.log").read_text().splitlines()[-30:]
                print("\n".join(tail), file=sys.stderr)
                die(f"build step failed: {' '.join(cmd)}")
    if not REP_BIN.is_file() or not SERVE_BIN.is_file():
        die("build finished without avfbench_rep or avf-serve")


# ------------------------------------------------------------------ #
# reps                                                                #
# ------------------------------------------------------------------ #

def kill_group(proc):
    """SIGKILL the rep's process group (the rep, a daemon it spawned,
    the daemon's workers) and wait until every member is gone."""
    try:
        os.killpg(proc.pid, signal.SIGKILL)
    except ProcessLookupError:
        return
    proc.wait()
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline:
        try:
            os.killpg(proc.pid, 0)
        except ProcessLookupError:
            return
        time.sleep(0.01)


def on_signal(signum, _frame):
    if _current is not None:
        kill_group(_current)
    sys.exit(128 + signum)


class Runner:
    """Starts reps, one fresh process each, and parses their results."""

    def __init__(self, args):
        self.args = args
        self.out = BUILD / "out"
        self.trace_dir = BUILD / "spans"
        self.out.mkdir(parents=True, exist_ok=True)
        if self.trace_dir.exists():
            shutil.rmtree(self.trace_dir)
        self.trace_dir.mkdir(parents=True)
        self.log = open(BUILD / "reps.log", "w")
        self.next_id = 0
        self.span_files = []
        self.started = time.monotonic()

    def run(self, mode, workload, traced=False):
        global _current
        rep = self.next_id
        self.next_id += 1
        cmd = [str(REP_BIN), mode, "--workload", workload,
               "--seed", str(self.args.seed), "--threads", str(self.args.threads),
               "--procs", str(self.args.procs), "--rep", str(rep),
               "--out", str(self.out.relative_to(ROOT))]
        if mode == "layers" or (mode == "run" and workload == "serve_stream"):
            # Relative, so the socket path stays short wherever the
            # checkout lives; wiped so every rep starts empty.
            state = BUILD / "state" / workload
            if state.exists():
                shutil.rmtree(state)
            state.mkdir(parents=True)
            cmd += ["--state", str(state.relative_to(ROOT)),
                    "--serve-bin", str(SERVE_BIN)]
        if traced:
            spans = self.trace_dir / f"rep{rep}.json"
            cmd += ["--spans", str(spans)]
            self.span_files.append(spans)
        if self.args.smoke:
            cmd.append("--smoke")
        self.log.write(f"== rep {rep}: {' '.join(cmd)}\n")
        self.log.flush()
        t0 = time.monotonic()
        cmd += ["--spawn-ns", str(time.monotonic_ns())]
        proc = subprocess.Popen(cmd, stdout=subprocess.PIPE, stderr=self.log,
                                stdin=subprocess.DEVNULL, cwd=ROOT,
                                start_new_session=True)
        _current = proc
        try:
            out, _ = proc.communicate(timeout=REP_TIMEOUT_S)
            crash = None if proc.returncode == 0 else f"exit {proc.returncode}"
        except subprocess.TimeoutExpired:
            out, crash = b"", f"timed out after {REP_TIMEOUT_S} s"
        finally:
            kill_group(proc)
            _current = None
        host_s = time.monotonic() - t0
        lines = out.decode(errors="replace").strip().splitlines()
        result = None
        if crash is None and lines:
            try:
                result = json.loads(lines[-1])
            except json.JSONDecodeError:
                crash = "unparseable result line"
        if result is None:
            result = {"ok": False, "errors": [crash or "no result"],
                      "ops": 1, "failed": 1, "digest": "", "metrics": {}}
        result.update(rep=rep, mode=mode, workload=workload, traced=traced,
                      host_s=host_s)
        return result


# ------------------------------------------------------------------ #
# statistics                                                          #
# ------------------------------------------------------------------ #

def summarize(samples):
    """Median and quartiles (statistics.quantiles, n=4)."""
    if len(samples) == 1:
        return samples[0], samples[0], samples[0]
    q1, q2, q3 = statistics.quantiles(samples, n=4)
    return q2, q1, q3


def e2e_samples(rep):
    """One value of every end-to-end metric from one rep."""
    wall_s = rep["wall_ns"] * 1e-9
    return {
        "setup_s": rep["setup_ns"] * 1e-9,
        "sim_cycles_per_s": rep["sim_cycles"] / wall_s if wall_s > 0 else 0.0,
        "peak_rss_mb": rep["peak_rss_kb"] / 1024.0,
    }


def self_times(span_files):
    """Self time per span name: duration minus the union of the
    span's children, summed over every traced rep."""
    events, totals = [], {}
    for path in span_files:
        if not path.is_file():
            continue
        spans = json.loads(path.read_text())
        events.extend(spans)
        children = {}
        for s in spans:
            children.setdefault(s["args"]["parent"], []).append(s)
        for s in spans:
            start, end = s["ts"], s["ts"] + s["dur"]
            covered, cursor = 0.0, start
            kids = sorted(children.get(s["args"]["id"], []),
                          key=lambda k: k["ts"])
            for k in kids:
                lo, hi = max(k["ts"], cursor), min(k["ts"] + k["dur"], end)
                if hi > lo:
                    covered += hi - lo
                    cursor = hi
            entry = totals.setdefault(s["name"], [0, 0.0, 0.0])
            entry[0] += 1
            entry[1] += s["dur"] * 1e-3
            entry[2] += (s["dur"] - covered) * 1e-3
    return events, totals


# ------------------------------------------------------------------ #
# the run                                                             #
# ------------------------------------------------------------------ #

def expected_digests():
    table = {}
    for line in (HERE / "expected_digests.txt").read_text().splitlines():
        line = line.strip()
        if line and not line.startswith("#"):
            workload, size, digest = line.split()
            table[(workload, size)] = digest
    return table


def check_digests(workload, reps, reference, args, problems):
    """Every rep must print the same digest; serve_stream's must equal
    the in-process reference; at the default seed, the committed one."""
    digests = [r["digest"] for r in reps if r.get("digest")]
    bad = 0
    if not digests:
        problems.append(f"{workload}: no rep produced a digest")
        return len(reps)
    want = digests[0]
    if reference is not None:
        want = reference["digest"]
    if args.seed == DEFAULT_SEED:
        size = "smoke" if args.smoke else "full"
        committed = expected_digests().get((workload, size))
        if committed is None:
            problems.append(f"{workload}: no expected digest for {size} size")
            bad += 1
        elif committed != want:
            problems.append(f"{workload}: digest {want} != expected {committed}")
            bad += 1
    for r in reps:
        if r.get("digest") and r["digest"] != want:
            problems.append(f"{workload}: rep {r['rep']} digest {r['digest']}"
                            f" != {want}")
            bad += 1
    return bad


def schedule(runner, workloads, args, traced_pairs):
    """Warm-up rep per workload, then measured reps round-robin across
    workloads until each has MIN_REPS and args.seconds of rep time.
    With traced_pairs, each turn runs an untraced then a traced rep
    and the budget is half the seconds."""
    reps = {w: [] for w in workloads}
    budget = args.seconds / 2 if traced_pairs else args.seconds
    min_reps = 1 if (args.smoke or traced_pairs) else MIN_REPS
    if not args.smoke:
        for w in workloads:
            reps[w].append(runner.run("run", w))
    spent = {w: 0.0 for w in workloads}
    measured = {w: 0 for w in workloads}
    # Keeps a single-workload run inside its 180 s allowance even on
    # a host slow enough that MIN_REPS would not fit.
    deadline = runner.started + 110 * len(workloads)
    active = list(workloads)
    while active:
        for w in list(active):
            turn = [False, True] if traced_pairs else [False]
            for traced in turn:
                r = runner.run("run", w, traced=traced)
                r["measured"] = True
                reps[w].append(r)
                spent[w] += r["host_s"]
            measured[w] += 1
            done = measured[w] >= min_reps and (
                args.smoke or spent[w] >= budget)
            if done or time.monotonic() > deadline:
                active.remove(w)
    return reps


def workload_metrics(reps, reference, layer_run, e2e, layers):
    """Per-rep samples of every metric the run reports for a workload:
    the end-to-end metrics from the untraced measured reps or, traced,
    the per-layer metrics from the traced reps (serve_stream: its
    reference), the layers run, and the traced/untraced gap."""
    measured = [r for r in reps if r.get("measured") and r.get("ok")]
    plain = [r for r in measured if not r["traced"]]
    if layer_run is None:
        per_rep = [e2e_samples(r) for r in plain]
        return {name: [s[name] for s in per_rep] for name in e2e}
    with_spans = [r for r in measured if r["traced"]]
    sources = ([reference] if reference else with_spans) + [layer_run]
    metrics = {}
    for name in layers:
        values = [r["metrics"][name] for r in sources
                  if name in r.get("metrics", {})]
        if values:
            metrics[name] = values
    speed = [e2e_samples(r)["sim_cycles_per_s"] for r in plain]
    speed_traced = [e2e_samples(r)["sim_cycles_per_s"] for r in with_spans]
    if speed and speed_traced:
        metrics["tracing.overhead_frac"] = [
            statistics.median(speed) / statistics.median(speed_traced) - 1.0]
    return metrics


def main_run(args):
    _, e2e, layers = load_benchmark()
    workloads = WORKLOADS if args.workload == "all" else [args.workload]
    build(args.threads)
    runner = Runner(args)
    traced = bool(args.trace)

    references = {}
    if "serve_stream" in workloads:
        references["serve_stream"] = runner.run("reference", "serve_stream",
                                                traced=traced)
    reps = schedule(runner, workloads, args, traced)
    layer_runs = {w: runner.run("layers", w, traced=True)
                  for w in workloads} if traced else {}

    problems, attempted, failed = [], 0, 0
    wanted = layers if traced else e2e
    rows = []
    for w in workloads:
        extra = [x for x in (references.get(w), layer_runs.get(w)) if x]
        for r in reps[w] + extra:
            attempted += int(r.get("ops", 0))
            failed += int(r.get("failed", 0))
            if not r.get("ok"):
                problems.extend(f"{w} rep {r['rep']}: {e}" for e in r["errors"])
                if not r.get("failed"):
                    failed += 1
        failed += check_digests(w, [r for r in reps[w] if r.get("digest")],
                                references.get(w), args, problems)
        samples = workload_metrics(reps[w], references.get(w),
                                   layer_runs.get(w), e2e, layers)
        for name, m in wanted.items():
            if not samples.get(name):
                problems.append(f"{w}: metric {name} was not measured")
                continue
            median, q1, q3 = summarize(samples[name])
            value = RUN_VALUE.get(name, statistics.median)(samples[name])
            rows.append({"workload": w, "name": name, "unit": m["unit"],
                         "better": m["better"], "value": value,
                         "median": median, "q1": q1, "q3": q3,
                         "n": len(samples[name]), "samples": samples[name]})

    print(f"avfbench: seed {args.seed}, {args.seconds} s per workload, "
          f"threads {args.threads}, procs {args.procs} (nproc {nproc()})"
          f"{', smoke' if args.smoke else ''}{', traced' if traced else ''}")
    print(f"{'workload':<14} {'metric':<28} {'unit':<9} {'value':>13} "
          f"{'q1':>13} {'median':>13} {'q3':>13} {'n':>4}")
    for r in rows:
        print(f"{r['workload']:<14} {r['name']:<28} {r['unit']:<9} "
              + " ".join(f"{r[k]:>13.6g}" for k in ("value", "q1", "median", "q3"))
              + f" {r['n']:>4}")

    saved = {"schema": "avfbench-results-v1", "seed": args.seed,
             "seconds": args.seconds, "trace": int(traced), "smoke": args.smoke,
             "threads": args.threads, "procs": args.procs, "nproc": nproc(),
             "workloads": {}}
    for w in workloads:
        saved["workloads"][w] = {
            "digest": next((r["digest"] for r in reps[w] if r.get("digest")), ""),
            "metrics": {r["name"]: {k: v for k, v in r.items()
                                    if k not in ("workload", "name")}
                        for r in rows if r["workload"] == w}}
    (BUILD / "BENCH_RESULTS.json").write_text(json.dumps(saved, indent=1) + "\n")

    if traced:
        events, selfs = self_times(runner.span_files)
        trace = {"traceEvents": events, "displayTimeUnit": "ns",
                 "otherData": {"self_ms": {k: v[2] for k, v in sorted(selfs.items())}}}
        (BUILD / "BENCH_TRACE.json").write_text(json.dumps(trace) + "\n")
        print(f"\n{'span':<28} {'count':>7} {'total_ms':>12} {'self_ms':>12}")
        for name, (count, total, own) in sorted(selfs.items(),
                                                key=lambda kv: -kv[1][2]):
            print(f"{name:<28} {count:>7} {total:>12.3f} {own:>12.3f}")
        print("wrote build-e2e/BENCH_TRACE.json")
    print("wrote build-e2e/BENCH_RESULTS.json")

    for p in problems:
        print(f"avfbench: FAIL {p}", file=sys.stderr)
    correct = not problems and failed == 0
    final = {(r["name"] if len(workloads) == 1 else f"{r['workload']}.{r['name']}"):
             {"value": r["value"], "unit": r["unit"]} for r in rows}
    print(json.dumps({"correct": correct, "attempted": max(attempted, 1),
                      "failed": failed, "metrics": final}), flush=True)
    return 0 if correct else 1


# ------------------------------------------------------------------ #
# compare                                                             #
# ------------------------------------------------------------------ #

def load_side(path):
    """One side of a comparison: a results file, whose samples are its
    reps, or a directory of results files, one sample per run (the
    run's value). Returns {(workload, metric): (better, samples)}."""
    path = Path(path)
    files = sorted(path.glob("*.json")) if path.is_dir() else [path]
    runs = [json.loads(f.read_text()) for f in files]
    if not runs:
        die(f"no results in {path}", 1)
    if any(run.get("smoke") for run in runs):
        die("smoke results are never compared", 1)
    side = {}
    for run in runs:
        for w, entry in run["workloads"].items():
            for name, m in entry["metrics"].items():
                better, samples = side.setdefault((w, name),
                                                  (m["better"], []))
                samples.extend(m["samples"] if len(runs) == 1
                               else [m["value"]])
    return side


def verdict(better, parent, change, bound):
    """The landing rule over paired samples: improved when the change
    wins >= 9/10 of the pairs (ties count for neither) and its median
    beats the parent's by more than the parent's IQR; unresolved when
    the parent's own IQR exceeds the bound (unless every change sample
    beats every parent sample); regressed when the change's median is
    worse by more than the bound; unchanged otherwise."""
    lower = better == "lower"

    def wins_over(a, b):
        return a < b if lower else a > b

    pairs = list(zip(parent, change))
    wins = sum(wins_over(c, p) for p, c in pairs)
    (p_med, p_q1, p_q3), (c_med, _, _) = summarize(parent), summarize(change)
    gap = p_med - c_med if lower else c_med - p_med
    iqr = p_q3 - p_q1
    if pairs and wins >= 0.9 * len(pairs) and gap > iqr:
        return "improved", wins, len(pairs)
    if bound is None:
        return "unchanged", wins, len(pairs)
    scale = abs(p_med) or 1.0
    all_better = all(wins_over(c, p) for p in parent for c in change)
    if iqr / scale > bound and not all_better:
        return "unresolved", wins, len(pairs)
    if -gap > bound * scale:
        return "regressed", wins, len(pairs)
    return "unchanged", wins, len(pairs)


def main_compare(parent_path, change_path):
    _, e2e, _ = load_benchmark()
    parent, change = load_side(parent_path), load_side(change_path)

    def cell(samples):
        median, q1, q3 = summarize(samples)
        return f"{median:.5g} [{q1:.5g}, {q3:.5g}]"

    print(f"{'workload':<14} {'metric':<28} {'parent median [q1, q3]':<36} "
          f"{'change median [q1, q3]':<36} {'wins':>7}  verdict")
    regressed = False
    for (w, name), (better, p) in parent.items():
        if (w, name) not in change:
            continue
        c = change[(w, name)][1]
        bound = e2e[name]["bound"] if name in e2e else None
        v, wins, n = verdict(better, p, c, bound)
        regressed |= v == "regressed"
        print(f"{w:<14} {name:<28} {cell(p):<36} {cell(c):<36} "
              f"{f'{wins}/{n}':>7}  {v}")
    return 1 if regressed else 0


# ------------------------------------------------------------------ #

def nproc():
    return len(os.sched_getaffinity(0))


def main(argv):
    if argv and argv[0] == "compare":
        if len(argv) != 3:
            die("usage: avfbench.py compare PARENT CHANGE", 1)
        return main_compare(argv[1], argv[2])
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", default="all",
                        choices=WORKLOADS + ["all"])
    parser.add_argument("--seed", type=int, default=DEFAULT_SEED)
    parser.add_argument("--seconds", type=int, default=None)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--smoke", action="store_true",
                        help="1 rep at shrunken sizes; proves the harness")
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = load_benchmark()[0]["run_seconds"]
    if args.seconds < 1:
        die("--seconds must be at least 1")
    args.seed %= 1 << 64
    # Engine threads and avf-serve --procs: 4, or fewer on a smaller
    # host.
    args.threads = args.procs = min(4, nproc())
    os.chdir(ROOT)
    signal.signal(signal.SIGTERM, on_signal)
    signal.signal(signal.SIGINT, on_signal)
    return main_run(args)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
