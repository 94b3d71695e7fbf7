"""Checks on the benchmark itself, on ``--quick`` sizes.

Run with ``python -m pytest bench -q`` (not part of the tier-1
``testpaths``: it times real runs and takes most of a minute).
"""

import importlib
import json
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

import run  # noqa: E402  (bench/run.py)
import tracing  # noqa: E402  (bench/tracing.py)

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def cli(*args, cwd=ROOT):
    return subprocess.run(
        [sys.executable, "bench/run.py", *map(str, args)],
        cwd=cwd, stdout=subprocess.PIPE, stderr=subprocess.PIPE, text=True, timeout=300,
    )


def result_of(done):
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


@pytest.fixture(scope="module")
def quick_runs():
    """{(workload, trace): result object} for one quick run of each."""
    return {
        (name, trace): result_of(
            cli("--workload", name, "--seed", 5, "--seconds", 0, "--trace", trace, "--quick")
        )
        for name in run.WORKLOAD_NAMES
        for trace in (0, 1)
    }


def test_benchmark_json_is_within_the_contract():
    assert set(SPEC) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer",
    }
    assert SPEC["paths"] == ["bench"] and SPEC["command"][-1].startswith("bench/")
    assert isinstance(SPEC["run_seconds"], int) and 1 <= SPEC["run_seconds"] <= 60
    assert 2 <= len(SPEC["workloads"]) <= 8
    assert 1 <= len(SPEC["end_to_end"]) <= 16 and 1 <= len(SPEC["per_layer"]) <= 128
    names = []
    for workload in SPEC["workloads"]:
        assert set(workload) == {"name", "why"}
        assert len(workload["why"]) <= 200 and "\n" not in workload["why"]
        names.append(workload["name"])
    for metric in SPEC["end_to_end"]:
        assert set(metric) == {"name", "unit", "better", "bound"}
        assert 0 < metric["bound"] <= 0.25
    for metric in SPEC["per_layer"]:
        assert set(metric) == {"name", "unit", "better"}
    for metric in SPEC["end_to_end"] + SPEC["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
        names.append(metric["name"])
    assert all(NAME.fullmatch(name) for name in names)
    assert len(names) == len(set(names))
    setup = run.END_TO_END["setup_s"]
    assert (setup["unit"], setup["better"]) == ("s", "lower")
    assert setup["bound"] == max(m["bound"] for m in SPEC["end_to_end"])
    assert (ROOT / "BENCHMARK.json").stat().st_size <= 64 * 1024


def test_declared_names_are_the_ones_the_code_emits():
    import workloads

    assert list(workloads.WORKLOADS) == run.WORKLOAD_NAMES
    assert {w["name"]: w["why"] for w in SPEC["workloads"]} == workloads.WORKLOADS
    assert {m["name"]: m["unit"] for m in SPEC["per_layer"]} == tracing.LAYER_UNITS
    assert run.EXACT <= set(run.END_TO_END)


def test_every_run_emits_exactly_the_declared_metrics(quick_runs):
    for (name, trace), outcome in quick_runs.items():
        assert set(outcome) == {"correct", "attempted", "failed", "metrics"}
        assert outcome["correct"] is True and outcome["failed"] == 0, name
        assert outcome["attempted"] >= 1
        declared = run.PER_LAYER if trace else run.END_TO_END
        assert set(outcome["metrics"]) == set(declared), name
        for metric, entry in outcome["metrics"].items():
            assert entry["unit"] == declared[metric]["unit"]
            assert isinstance(entry["value"], (int, float))
            if not trace:
                assert entry["value"] > 0, (name, metric)


def test_virtual_metrics_and_counts_repeat_exactly(quick_runs):
    name = "rw_frag"
    again = result_of(
        cli("--workload", name, "--seed", 5, "--seconds", 0, "--trace", 0, "--quick")
    )
    for metric in run.EXACT:
        assert again["metrics"][metric] == quick_runs[name, 0]["metrics"][metric], metric


def test_layers_cover_the_timed_wall(quick_runs):
    for name in run.WORKLOAD_NAMES:
        assert quick_runs[name, 1]["metrics"]["trace.coverage"]["value"] >= 0.9, name


def test_every_wrapped_span_is_recorded_somewhere(quick_runs):
    seen = set()
    for name in run.WORKLOAD_NAMES:
        with open(HERE / "results" / f"trace-{name}.jsonl", encoding="utf-8") as lines:
            seen.update(json.loads(line)["name"] for line in lines)
    # a span that never fires means a patched namespace missed the
    # reference the program actually calls through — except the one whose
    # only callers fingerprint tree literals, which no generated query binds
    assert {span for span, *_ in tracing.TARGETS} - seen == {"xmlcore.fingerprint"}


def _target_attributes():
    for _span, module_name, qualname, _options in tracing.TARGETS:
        owner = importlib.import_module(module_name)
        *path, attr = qualname.split(".")
        for part in path:
            owner = getattr(owner, part)
        yield owner, attr


def test_wrappers_are_installed_and_restored():
    before = [vars(owner)[attr] for owner, attr in _target_attributes()]
    tracer = tracing.Tracer()
    tracer.install()
    try:
        during = [vars(owner)[attr] for owner, attr in _target_attributes()]
        assert all(new is not old for new, old in zip(during, before))
        # ``from .serialize import expression_fingerprint`` in another module
        from repro.core import planspace, serialize

        assert planspace.expression_fingerprint is serialize.expression_fingerprint
    finally:
        tracer.restore()
    after = [vars(owner)[attr] for owner, attr in _target_attributes()]
    assert all(new is old for new, old in zip(after, before))
    from repro.core import planspace, serialize

    assert planspace.expression_fingerprint is serialize.expression_fingerprint
    assert not hasattr(serialize.expression_fingerprint, "__wrapped__")


def test_self_times_sum_to_the_top_level_spans():
    tracer = tracing.Tracer()
    tracer.names = ["a", "b", "c", "b"]
    tracer.starts = [0.0, 1.0, 2.0, 6.0]
    tracer.ends = [10.0, 5.0, 3.0, 7.0]
    tracer.parents = [-1, 0, 1, 0]
    tracer.ops = [None] * 4
    assert tracer.self_times() == [5.0, 3.0, 1.0, 1.0]
    assert tracer.totals()["b"] == {"self": 4.0, "inclusive": 5.0, "calls": 2}
    assert tracer.top_level_seconds(since=0.0) == 10.0


def _summary(values, better="lower"):
    return run.summarize(values, {"unit": "ms", "better": better, "bound": 0.1})


def test_compare_verdicts():
    spec = {"better": "lower", "bound": 0.1}
    steady = _summary([100, 101, 102, 100, 101])
    assert run.verdict(steady, _summary([103, 104, 103, 102, 104]), spec)[1] == "within"
    assert run.verdict(steady, _summary([120, 121, 122, 120, 121]), spec)[1] == "worse"
    assert run.verdict(steady, _summary([80, 81, 82, 80, 81]), spec)[1] == "better"
    noisy = _summary([90, 130, 100, 140, 95])
    assert run.verdict(steady, noisy, spec)[1] == "unresolved"
    # wide spread, yet every run of the change beats every run of the base
    assert run.verdict(noisy, _summary([50, 70, 55, 75, 60]), spec)[1] == "better"
    higher = {"better": "higher", "bound": 0.1}
    assert run.verdict(steady, _summary([80, 81, 82, 80, 81]), higher)[1] == "worse"


def test_best_quartile_is_the_second_best_of_five():
    assert run.best_quartile([5, 3, 9, 4, 7]) == 4
    assert run.best_quartile([5, 3, 9, 4, 7], better="higher") == 7
    assert run.best_quartile([6, 2, 4]) == 2


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "bench", ignore=shutil.ignore_patterns("results", "__pycache__"))
    done = cli("--workload", "serve_repeat", "--seed", 1, "--seconds", 1, "--trace", 0, cwd=tmp_path)
    assert done.returncode != 0
    assert not done.stdout.strip().startswith("{")
