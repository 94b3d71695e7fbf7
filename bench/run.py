#!/usr/bin/env python3
"""The repo's one benchmark command.

Three modes:

``run.py --workload W --seed N --seconds S --trace 0|1``
    One run of one workload in this process (what ``BENCHMARK.json``'s
    ``command`` expands to).  Repeats set-up + one *pass* over W's
    operation stream until S seconds of passes are measured, checks every
    answer against the naive-plan reference, and prints each metric by
    name and unit; the last stdout line is the result object.  ``--trace
    0`` reports the end-to-end metrics from untraced passes, ``--trace
    1`` the per-layer metrics from one extra traced pass.

``run.py [--seed 7] [--reps 5] [--quick]``
    The whole suite: every (workload, repetition) in a fresh subprocess,
    repetitions interleaved round-robin (order reversed on alternate
    rounds), then one traced run per workload; writes
    ``bench/results/latest.json``.

``run.py --compare A.json B.json``
    Per workload x end-to-end metric, B's median against A's and the
    metric's bound: ``within`` / ``worse`` / ``better`` / ``unresolved``.
    Exit status 1 on any ``worse``.

See ``bench/README.md`` for the protocol and what each metric means.
"""

from __future__ import annotations

import argparse
import cProfile
import gc
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
RESULTS = HERE / "results"
sys.path.insert(0, str(ROOT / "src"))
sys.path.insert(0, str(HERE))

import workloads  # noqa: E402  (bench/workloads.py; needs src/ on the path)
from repro.engine import percentile  # noqa: E402
from tracing import Tracer, layer_metrics  # noqa: E402  (bench/tracing.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
END_TO_END = {m["name"]: m for m in SPEC["end_to_end"]}
PER_LAYER = {m["name"]: m for m in SPEC["per_layer"]}
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]
#: Simulated-clock metrics and counts repeat exactly for one (commit, seed).
EXACT = {
    "py_calls_per_op", "virt_makespan_s", "virt_latency_ms_p95", "virt_bytes_moved",
}
#: At least this many passes per run, however short ``--seconds`` is.
MIN_PASSES = 2
#: Set-up is repeated until this many samples back its figure.
MIN_SETUPS = 15

_clock = time.perf_counter


# -- small statistics ---------------------------------------------------------
def best_quartile(values, better="lower"):
    """The quartile on the good side: second-fastest of five, fastest of
    three.  Host noise here only ever slows a run down (see README), so
    the fast quartile repeats where the median does not."""
    ordered = sorted(values, reverse=(better == "higher"))
    return ordered[(len(ordered) - 1) // 4]


def spread(values):
    """Interquartile range as a share of the median (0 for < 2 values)."""
    if len(values) < 2:
        return 0.0
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return (q3 - q1) / median if median else 0.0


def host_calib_ms():
    """A fixed pure-Python kernel: the host-noise canary (diagnostic only)."""
    start = _clock()
    total = 0
    for i in range(300_000):
        total += (i * i) % 7
    return (_clock() - start) * 1000.0


# -- one run of one workload ---------------------------------------------------
def timed_setup(workload, seed):
    gc.collect()  # the previous pass's garbage is not this set-up's cost
    start = _clock()
    state = workload.setup(seed)
    return _clock() - start, state


def timed_pass(workload, seed):
    """Set up, collect garbage, run one pass: (setup_s, start, wall_s, result)."""
    setup_s, state = timed_setup(workload, seed)
    gc.collect()
    start = _clock()
    result = workload.run(state)
    return setup_s, start, _clock() - start, result


def untraced_passes(workload, seed, seconds):
    setups, walls, results = [], [], []
    while len(walls) < MIN_PASSES or sum(walls) < seconds:
        setup_s, _start, wall, result = timed_pass(workload, seed)
        # keep the numbers, drop the report objects: they pin every plan
        # cache of the pass, and a growing heap slows the next pass's GC
        result.release()
        setups.append(setup_s)
        walls.append(wall)
        results.append(result)
    return setups, walls, results


def count_failures(results, references):
    """Operations that errored or answered differently from the reference."""
    failures = []
    for result in results:
        failures.extend(result.errors)
        failures.extend(
            f"{key}: answer differs from the naive plan"
            for key, answers in result.answers
            if references.get(key) != answers
        )
    return failures


def virtual_metrics(result):
    return {
        "virt_makespan_s": result.virt_makespan,
        "virt_latency_ms_p95": percentile(result.virt_latency, 95) * 1000.0,
        "virt_bytes_moved": result.virt_bytes,
    }


def counted_run(workload, seed):
    """Function calls per operation on the first quarter of the stream."""
    state = workload.setup(seed, quarter=True)
    profiler = cProfile.Profile()
    profiler.enable()
    result = workload.run(state)
    profiler.disable()
    calls = sum(entry.callcount for entry in profiler.getstats())
    return calls / len(result.ops)


def per_op_seconds(results):
    """Per operation, the fast-quartile wall time over the passes.

    Every pass runs the same operations in the same order, so operation i
    has one sample per pass.  Host noise comes in phases of seconds; a
    phase slows an operation in some passes and rarely in all of them,
    where it would slow any whole-pass figure.
    """
    return [best_quartile(samples) for samples in zip(*(r.wall for r in results))]


def run_end_to_end(workload, seed, seconds):
    calib = host_calib_ms()
    setups, walls, results = untraced_passes(workload, seed, seconds)
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    while len(setups) < MIN_SETUPS:
        setups.append(timed_setup(workload, seed)[0])
    failures = count_failures(results, workload.references(workload.setup(seed)))
    first = results[0]
    virtual = virtual_metrics(first)
    for other in results[1:]:
        if virtual_metrics(other) != virtual or other.answers != first.answers:
            failures.append("passes of one run disagree on virtual metrics or answers")
    ops = len(first.ops)
    values = {
        "setup_s": best_quartile(setups),
        "wall_ops_s": (ops - len(first.errors)) / sum(per_op_seconds(results)),
        "py_calls_per_op": counted_run(workload, seed),
        "peak_rss_mb": peak_rss_mb,
        **virtual,
    }
    detail = {
        "host_calib_ms": calib, "passes": len(walls), "pass_wall_s": walls,
        "setup_samples_s": setups, "ops_per_pass": ops, "failures": failures[:20],
    }
    return values, ops * len(results), failures, detail


def run_traced(workload, seed, seconds):
    _setups, walls, results = untraced_passes(workload, seed, seconds / 2.0)
    tracer = Tracer()
    tracer.install()
    try:
        _setup_s, start, wall, traced = timed_pass(workload, seed)
    finally:
        tracer.restore()
    values = layer_metrics(tracer, traced, start, wall)
    # one traced pass against the *typical* untraced pass, like for like:
    # against the fast quartile every noisy traced pass would read as overhead
    typical = sum(statistics.median(samples) for samples in zip(*(r.wall for r in results)))
    values["trace.overhead_ratio"] = sum(traced.wall) / typical
    per_op = per_op_seconds(results)
    values["wall_op_ms_p50"] = percentile(per_op, 50) * 1000.0
    values["wall_op_ms_p90"] = percentile(per_op, 90) * 1000.0
    RESULTS.mkdir(exist_ok=True)
    tracer.write_jsonl(RESULTS / f"trace-{workload.name}.jsonl", start)
    results.append(traced)
    references = workload.references(workload.setup(seed), thorough=True)
    failures = count_failures(results, references)
    detail = {
        "spans": len(tracer.names), "traced_wall_s": wall, "untraced_wall_s": walls,
        "failures": failures[:20],
    }
    ops = sum(len(r.ops) for r in results)
    return values, ops, failures, detail


def run_one(args):
    sizes = workloads.QUICK if args.quick else workloads.FULL
    workload = workloads.make(args.workload, sizes, args.content_seed)
    runner, declared = (run_traced, PER_LAYER) if args.trace else (run_end_to_end, END_TO_END)
    values, attempted, failures, detail = runner(workload, args.seed, args.seconds)
    if set(values) != set(declared):
        raise SystemExit(
            f"metrics differ from BENCHMARK.json: {sorted(set(values) ^ set(declared))}"
        )
    metrics = {}
    for name, spec in declared.items():
        metrics[name] = {"value": values[name], "unit": spec["unit"]}
        print(f"{args.workload:13s} {name:36s} {values[name]!r} {spec['unit']}")
    print(f"{args.workload:13s} {'failed_share':36s} {len(failures) / attempted!r} ratio")
    for failure in failures[:20]:
        print(f"FAILED {failure}", file=sys.stderr)
    print("#detail " + json.dumps(detail))
    print(json.dumps({
        "correct": not failures,
        "attempted": attempted,
        "failed": min(len(failures), attempted),
        "metrics": metrics,
    }))
    return 1 if failures else 0


# -- the whole suite ------------------------------------------------------------
def run_child(workload, args, trace):
    command = [
        sys.executable, str(HERE / "run.py"), "--workload", workload,
        "--seed", str(args.seed), "--content-seed", str(args.content_seed),
        "--seconds", str(args.seconds), "--trace", str(trace),
    ] + (["--quick"] if args.quick else [])
    done = subprocess.run(
        command, stdout=subprocess.PIPE, text=True, timeout=900,
        env=dict(os.environ, PYTHONHASHSEED="0"),
    )
    lines = done.stdout.strip().splitlines()
    if len(lines) < 2 or not lines[-1].startswith("{"):  # died before its result line
        raise SystemExit(f"{' '.join(command)} exited with {done.returncode}")
    outcome = json.loads(lines[-1])
    outcome["detail"] = json.loads(lines[-2].removeprefix("#detail "))
    return outcome


def summarize(values, spec):
    """All repetitions of one metric, with the figures --compare needs."""
    share = spread(values)
    return {
        "unit": spec["unit"],
        "values": values,
        "median": statistics.median(values),
        "iqr_share": share,
        "reported": best_quartile(values, spec["better"]),
        "unresolved": share > spec["bound"],
    }


def run_suite(args):
    runs = {name: [] for name in WORKLOAD_NAMES}
    for rep in range(args.reps):
        order = WORKLOAD_NAMES[::-1] if rep % 2 else WORKLOAD_NAMES
        for name in order:
            print(f"rep {rep + 1}/{args.reps} {name} ...", file=sys.stderr, flush=True)
            runs[name].append(run_child(name, args, trace=0))
    report = {
        "seed": args.seed, "content_seed": args.content_seed, "reps": args.reps,
        "seconds": args.seconds, "quick": args.quick, "workloads": {},
    }
    ok = True
    for name in WORKLOAD_NAMES:
        print(f"traced run {name} ...", file=sys.stderr, flush=True)
        traced = run_child(name, args, trace=1)
        outcomes = runs[name] + [traced]
        attempted = sum(o["attempted"] for o in outcomes)
        failed = sum(o["failed"] for o in outcomes)
        ok = ok and failed == 0 and all(o["correct"] for o in outcomes)
        end_to_end = {
            metric: summarize([o["metrics"][metric]["value"] for o in runs[name]], spec)
            for metric, spec in END_TO_END.items()
        }
        calib = [o["detail"]["host_calib_ms"] for o in runs[name]]
        report["workloads"][name] = {
            "end_to_end": end_to_end,
            "failed_share": failed / attempted,
            "host_calib_ms": calib,
            "per_layer": traced["metrics"],
            "detail": [o["detail"] for o in outcomes],
        }
        for metric, summary in end_to_end.items():
            flag = ""
            if metric in EXACT and len(set(summary["values"])) > 1:
                flag, ok = "NOT EXACT", False
            elif summary["unresolved"]:
                flag = "unresolved"
            print(
                f"{name:13s} {metric:22s} {summary['reported']:.6g} {summary['unit']:8s}"
                f" median {summary['median']:.6g} iqr {summary['iqr_share']:.1%} {flag}"
            )
        print(f"{name:13s} {'failed_share':22s} {failed / attempted:.6g} ratio")
        for metric, entry in traced["metrics"].items():
            print(f"{name:13s} {metric:36s} {entry['value']:.6g} {entry['unit']}")
        if (max(calib) - min(calib)) / statistics.median(calib) > 0.15:
            print(
                f"warning: host_calib_ms spread over {name}'s repetitions exceeds "
                f"15% ({min(calib):.1f}-{max(calib):.1f} ms): the host was noisy",
                file=sys.stderr,
            )
    out = Path(args.out) if args.out else RESULTS / "latest.json"
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(json.dumps(report, indent=1) + "\n")
    print(f"wrote {out}", file=sys.stderr)
    return 0 if ok else 1


# -- comparing two result files -----------------------------------------------------
def verdict(base, change, spec):
    """``(relative change toward worse, verdict)`` for one metric."""
    sign = 1.0 if spec["better"] == "lower" else -1.0
    worse_by = sign * (change["median"] - base["median"]) / base["median"]
    ordered = [sign * v for v in base["values"]], [sign * v for v in change["values"]]
    separated = max(ordered[1]) < min(ordered[0]) or min(ordered[1]) > max(ordered[0])
    noisy = max(base["iqr_share"], change["iqr_share"]) > spec["bound"]
    if noisy and not separated:
        return worse_by, "unresolved"
    if worse_by > spec["bound"]:
        return worse_by, "worse"
    if worse_by < -spec["bound"]:
        return worse_by, "better"
    return worse_by, "within"


def compare(base_path, change_path):
    base = json.loads(Path(base_path).read_text())["workloads"]
    change = json.loads(Path(change_path).read_text())["workloads"]
    any_worse = False
    for name in WORKLOAD_NAMES:
        for metric, spec in END_TO_END.items():
            a = base[name]["end_to_end"][metric]
            b = change[name]["end_to_end"][metric]
            worse_by, word = verdict(a, b, spec)
            any_worse = any_worse or word == "worse"
            print(
                f"{name:13s} {metric:22s} {a['median']:.6g} -> {b['median']:.6g} "
                f"{spec['unit']:8s} {worse_by:+.2%} toward worse "
                f"(bound {spec['bound']:.1%}) {word}"
            )
        a, b = base[name]["failed_share"], change[name]["failed_share"]
        word = "worse" if b > a else "within"
        any_worse = any_worse or word == "worse"
        print(f"{name:13s} {'failed_share':22s} {a:.6g} -> {b:.6g} ratio    {word}")
    return 1 if any_worse else 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=WORKLOAD_NAMES)
    parser.add_argument("--seed", type=int, default=7, help="operation order")
    parser.add_argument("--content-seed", type=int, default=7, help="scenario content")
    parser.add_argument("--seconds", type=float, default=float(SPEC["run_seconds"]))
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--reps", type=int, default=5)
    parser.add_argument("--quick", action="store_true", help="test sizes")
    parser.add_argument("--out", help="suite result file (default bench/results/latest.json)")
    parser.add_argument("--compare", nargs=2, metavar=("A.json", "B.json"))
    args = parser.parse_args(argv)
    if args.compare:
        return compare(*args.compare)
    if args.workload:
        return run_one(args)
    if args.reps < 3 and not args.quick:
        parser.error("--reps must be at least 3")
    return run_suite(args)


if __name__ == "__main__":
    sys.exit(main())
