#!/usr/bin/env python3
"""Time-to-verdict benchmark for swa-sched.

Builds the benchmark binary (perfbench/CMakeLists.txt, Release) from the
checkout's sources, runs one workload and prints, as the last line of
standard output, one JSON object with the keys correct, attempted, failed
and metrics. With --trace 0 the metrics are the end-to-end metrics of
BENCHMARK.json, with --trace 1 its per-layer metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --self-check
    python3 perfbench/run.py --compare OLD.jsonl NEW.jsonl

--record FILE appends each result, with its host and build fingerprint, to
FILE; --compare reads two such files and reports each metric's change,
marking a comparison across hosts as informational.

Run it from the root of the checkout. The build goes to
$CARGO_TARGET_DIR/perfbench (default .bench_build/perfbench).
"""

import argparse
import json
import math
import os
import statistics
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)

# Set-up is sampled in separate processes (the measuring one included):
# at least SETUP_MIN of them, and more, up to SETUP_MAX, while the samples
# so far add up to less than SETUP_BUDGET_S. A quick set-up is noisy, and
# many samples of it cost little.
SETUP_MIN, SETUP_MAX, SETUP_BUDGET_S = 3, 7, 4.0
# A held-out seed, never used while the benchmark was tuned; --self-check
# confirms every workload stays in its regime on it.
HELD_OUT_SEED = 1009
# analyze-e2 at seed 1 executes exactly this many NSA actions.
E2_ACTIONS = 93622
# --self-check fails when the stages leave more of a traced answer's wall
# time uncovered than this.
MAX_UNATTRIBUTED = 0.15
# Every process the benchmark starts must end well within the 180 s limit.
PROCESS_TIMEOUT_S = 170


def fail(message):
    print("error: " + message, file=sys.stderr)
    sys.exit(1)


def load_spec():
    path = os.path.join(ROOT, "BENCHMARK.json")
    try:
        with open(path) as f:
            return json.load(f)
    except (OSError, ValueError) as e:
        fail("cannot read %s: %s" % (path, e))


def build():
    """Configures and builds the binary; returns the binary path. Configuring
    every time makes CMake refuse a build tree made from another source
    tree."""
    target = os.environ.get("CARGO_TARGET_DIR") or ".bench_build"
    build_dir = os.path.join(ROOT, target, "perfbench")
    os.makedirs(build_dir, exist_ok=True)
    log_path = os.path.join(build_dir, "build.log")
    jobs = str(max(1, min(4, os.cpu_count() or 1)))
    steps = [["cmake", "-S", HERE, "-B", build_dir, "-DCMAKE_BUILD_TYPE=Release"],
             ["cmake", "--build", build_dir, "--target", "swa_perfbench",
              "-j", jobs]]
    with open(log_path, "w") as log:
        for step in steps:
            try:
                code = subprocess.run(step, stdout=log, stderr=subprocess.STDOUT,
                                      timeout=850).returncode
            except (OSError, subprocess.TimeoutExpired) as e:
                fail("build step %s: %s" % (step[:2], e))
            if code != 0:
                log.flush()
                with open(log_path) as f:
                    sys.stderr.write("".join(f.readlines()[-30:]))
                fail("build failed (log: %s)" % log_path)
    return os.path.join(build_dir, "swa_perfbench")


def run_binary(binary, workload, seed, seconds, trace, extra=()):
    cmd = [binary, "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "1" if trace else "0"]
    cmd += list(extra)
    try:
        proc = subprocess.run(cmd, stdout=subprocess.PIPE, text=True,
                              timeout=PROCESS_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        fail("%s timed out" % " ".join(cmd[1:]))
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        fail("%s exited with %d" % (" ".join(cmd[1:]), proc.returncode))
    return json.loads(lines[-1])


def tail(samples):
    """The highest of p50/p90/p95/p99/p99.9 with >= 10 samples beyond it."""
    ordered = sorted(samples)
    n = len(ordered)
    for p in (99.9, 99, 95, 90, 50):
        if n * (1 - p / 100) >= 10:
            return p, ordered[min(n - 1, int(math.ceil(n * p / 100)) - 1)]
    return None, None


def measure(binary, spec, workload, seed, seconds, trace, quick=False):
    """Runs one workload; returns (result line, binary report). quick runs
    one round and one set-up (for --self-check)."""
    extra = ["--min-rounds", "1"] if quick else []
    rep = run_binary(binary, workload, seed, seconds, trace, extra)
    setups = [rep["setup_s"]]
    while not trace and not quick and len(setups) < SETUP_MAX and (
            len(setups) < SETUP_MIN or sum(setups) < SETUP_BUDGET_S):
        setups.append(run_binary(binary, workload, seed, seconds, False,
                                 ["--setup-only"])["setup_s"])

    if trace:
        layers = {}
        for name in rep["layers"][0]:
            layers[name] = statistics.median(r[name] for r in rep["layers"])
        layers["obs.overhead_frac"] = (
            statistics.median(rep["traced_round_s"]) /
            statistics.median(rep["round_s"]) - 1)
        layers["gen.config_s"] = rep["gen_s"]
        values = layers
        wanted = spec["per_layer"]
    else:
        values = {
            "setup_s": statistics.median(setups),
            "verdict_s": statistics.median(rep["round_s"]),
            "cpu_s": statistics.median(rep["round_cpu_s"]),
            "peak_rss_mb": rep["peak_rss_mb"],
        }
        wanted = spec["end_to_end"]
    metrics = {}
    for m in wanted:
        if m["name"] not in values:
            fail("the benchmark binary reported no %s" % m["name"])
        metrics[m["name"]] = {"value": values[m["name"]], "unit": m["unit"]}
    result = {
        "correct": rep["failed"] == 0 and rep["attempted"] >= 1,
        "attempted": rep["attempted"],
        "failed": rep["failed"],
        "metrics": metrics,
    }
    rep["setup_samples"] = setups
    return result, rep


def print_report(result, rep, seed, trace):
    out = sys.stdout
    host = rep["host"]
    out.write("workload  %s  seed %d  trace %d\n" % (rep["workload"], seed, trace))
    out.write("input     %s\n" % rep["input"])
    out.write("host      nproc=%s cpu=%r mhz=%s  build=%s  "
              "steal=%.1f%% while measuring\n" % (
                  host["nproc"], host["cpu_model"], host["cpu_mhz"],
                  rep["build_type"], 100 * rep["steal_frac"]))
    out.write("regime    %s  (answers out of regime: %d)\n" % (
        rep["regime"], rep["out_of_regime"]))
    out.write("check     %d answers, %d reference-checked pool inputs of %d\n" % (
        rep["attempted"], rep["reference_items"], rep["pool"]))
    for problem in rep["problems"]:
        out.write("problem   %s\n" % problem)
    for name, m in result["metrics"].items():
        out.write("%-36s %14.6g %s\n" % (name, m["value"], m["unit"]))
    out.write("%-36s %14.6g %s  (%d of %d answers)\n" % (
        "failed_frac", rep["failed"] / max(1, rep["attempted"]), "ratio",
        rep["failed"], rep["attempted"]))
    if not trace:
        out.write("verdict_s: median of %d rounds of %d answers each; "
                  "setup_s: median of %d processes\n" % (
                      len(rep["round_s"]), rep["pool"],
                      len(rep["setup_samples"])))
        p, value = tail(rep["answer_s"])
        if p is None:
            out.write("verdict tail: n/a (%d answers; p50 needs 20)\n" %
                      len(rep["answer_s"]))
        else:
            out.write("verdict tail: p%g = %.6g s over %d answers "
                      "(reported, not gated)\n" % (p, value, len(rep["answer_s"])))


def record(path, result, rep, seed, trace):
    entry = {"workload": rep["workload"], "seed": seed, "trace": trace,
             "host": rep["host"], "build_type": rep["build_type"],
             "attempted": result["attempted"], "failed": result["failed"],
             "metrics": {k: v["value"] for k, v in result["metrics"].items()}}
    with open(path, "a") as f:
        f.write(json.dumps(entry, sort_keys=True) + "\n")


def compare(spec, old_path, new_path):
    """Median of each metric per workload in two --record files."""
    def load(path):
        with open(path) as f:
            return [json.loads(line) for line in f if line.strip()]
    old, new = load(old_path), load(new_path)
    # The clock reading varies on hosts that scale frequency, so it is
    # reported but not part of a host's identity.
    hosts = {(e["host"]["nproc"], e["host"]["cpu_model"]) for e in old + new}
    same_host = len(hosts) == 1
    if not same_host:
        print("informational: the two files come from different hosts; "
              "no regression is judged")
    bounds = {m["name"]: m for m in spec["end_to_end"]}
    regressions = 0
    for workload in sorted({e["workload"] for e in old + new}):
        for name, m in bounds.items():
            a = [e["metrics"][name] for e in old
                 if e["workload"] == workload and name in e["metrics"]]
            b = [e["metrics"][name] for e in new
                 if e["workload"] == workload and name in e["metrics"]]
            if not a or not b:
                continue
            ma, mb = statistics.median(a), statistics.median(b)
            change = mb / ma - 1 if ma else float("inf")
            worse = change if m["better"] == "lower" else -change
            verdict = "ok"
            if worse > m["bound"]:
                verdict = "REGRESSION" if same_host else "worse (informational)"
                regressions += same_host
            print("%-22s %-12s %12.6g -> %12.6g %+7.1f%%  bound %.0f%%  %s" % (
                workload, name, ma, mb, 100 * change, 100 * m["bound"], verdict))
    return 1 if regressions else 0


def self_check(binary, spec):
    """Runs every workload briefly at the default and held-out seeds."""
    problems = []
    for w in spec["workloads"]:
        name = w["name"]
        for seed, trace in ((1, 0), (1, 1), (HELD_OUT_SEED, 0)):
            result, rep = measure(binary, spec, name, seed, 1, trace,
                                  quick=True)
            where = "%s seed %d trace %d" % (name, seed, trace)
            before = len(problems)
            wanted = spec["per_layer"] if trace else spec["end_to_end"]
            for m in wanted:
                got = result["metrics"].get(m["name"])
                if got is None or got["unit"] != m["unit"]:
                    problems.append("%s: %s missing or without unit %s" %
                                    (where, m["name"], m["unit"]))
                elif not math.isfinite(got["value"]) or (
                        not trace and got["value"] <= 0):
                    problems.append("%s: %s = %r" % (where, m["name"],
                                                     got["value"]))
            if result["failed"] or not result["correct"]:
                problems.append("%s: failed_frac %d/%d %s" % (
                    where, result["failed"], result["attempted"],
                    rep["problems"]))
            if rep["out_of_regime"]:
                problems.append("%s: %d answers out of regime (%s)" % (
                    where, rep["out_of_regime"], rep["regime"]))
            if trace:
                layers = result["metrics"]
                if layers["unattributed_frac"]["value"] > MAX_UNATTRIBUTED:
                    problems.append("%s: unattributed_frac %.3f" % (
                        where, layers["unattributed_frac"]["value"]))
                if name == "analyze-e2" and \
                        layers["nsa.actions"]["value"] != E2_ACTIONS:
                    problems.append("%s: nsa.actions %r, expected %d" % (
                        where, layers["nsa.actions"]["value"], E2_ACTIONS))
            print("%-44s %s  %s" % (where, rep["regime"],
                                    "ok" if len(problems) == before else
                                    "FAIL"))
    for p in problems:
        print("FAIL " + p)
    print("self-check %s" % ("failed" if problems else "passed"))
    return 1 if problems else 0


def main():
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=10)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--record", metavar="FILE")
    parser.add_argument("--self-check", action="store_true")
    parser.add_argument("--compare", nargs=2, metavar=("OLD", "NEW"))
    args = parser.parse_args()

    spec = load_spec()
    if args.compare:
        return compare(spec, *args.compare)
    binary = build()
    if args.self_check:
        return self_check(binary, spec)
    names = [w["name"] for w in spec["workloads"]]
    if args.workload not in names:
        fail("--workload must be one of %s" % ", ".join(names))
    if args.seed < 0:
        fail("--seed must be a non-negative integer")
    result, rep = measure(binary, spec, args.workload, args.seed,
                          args.seconds, args.trace)
    print_report(result, rep, args.seed, args.trace)
    if args.record:
        record(args.record, result, rep, args.seed, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
