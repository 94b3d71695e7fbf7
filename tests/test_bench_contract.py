"""``bench/tracing.py`` patches ``repro`` callables by module path and name.

A missing function raises there, but a missing *method* is skipped
silently and its layer drops out of the per-layer report.  This test
resolves every target the way the tracer does, so a rename in ``src/``
fails tier-1 instead of quietly thinning the benchmark.

The benchmark also bounds virtual-clock metrics that repeat exactly per
commit; the last test pins one workload's, so a change to message-size
arithmetic fails a unit test before it fails the benchmark.
"""

import importlib
import importlib.util
from pathlib import Path

import repro
from repro.engine import ClosedLoopFeed, JobRequest
from repro.workloads import ScenarioGenerator, ScenarioSpec

TRACING = Path(__file__).resolve().parent.parent / "bench" / "tracing.py"


def _load_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


def _hierarchy(cls):
    yield cls
    for sub in cls.__subclasses__():
        yield from _hierarchy(sub)


def _resolves(module_name, qualname, options):
    module = importlib.import_module(module_name)
    owner_name, _, attr = qualname.rpartition(".")
    if not owner_name:
        return callable(getattr(module, attr, None))
    owner = getattr(module, owner_name, None)
    if owner is None:
        return False
    classes = _hierarchy(owner) if options.get("subclasses") else [owner]
    # the tracer wraps only what a class defines itself (``vars(cls)``)
    return any(callable(vars(cls).get(attr)) for cls in classes)


def test_every_bench_target_resolves():
    targets = _load_targets()
    assert targets
    missing = [
        f"{module_name}:{qualname}"
        for _span, module_name, qualname, options in targets
        if not _resolves(module_name, qualname, options)
    ]
    assert not missing, f"bench/tracing.py can no longer patch {missing}"


def test_serve_repeat_virtual_numbers_are_pinned():
    """``bench/workloads.py``'s ``serve_repeat`` set-up, seed 7: 24
    round-robin jobs from 4 closed-loop clients through a default session."""
    spec = ScenarioSpec(
        peers=6, topology="mesh", documents=4, axml_documents=1, items=20,
        services=2, replicas=2, queries=6,
    )
    scenario = ScenarioGenerator(7, spec).scenario(0)
    requests = [
        JobRequest(source=q.source, at=q.at, bind=q.bindings, name=f"{q.name}#{k}")
        for k, q in enumerate(scenario.queries * 4)
    ]
    report = repro.connect(scenario.system).serve(
        feed=ClosedLoopFeed(requests, 4), seed=7
    )
    assert all(job.status == "done" for job in report.jobs)
    assert report.network["bytes"] == 39177
    assert report.metrics.makespan == 0.10905200000000001
