#!/usr/bin/env python3
"""Which functions of ``src/repro`` no end-to-end input reaches.

Records, with ``sys.setprofile`` (no coverage tool needed), every
function of the package that runs while these inputs execute in this
process:

* a quick pass of each of the four ``bench/workloads.py`` workloads at
  content seeds 7 and 11, with its naive-plan reference answers;
* one traced quick pass of each workload through ``bench/tracing.py``'s
  ``Tracer`` and ``layer_metrics``, as ``bench/run.py --trace 1`` runs it;
* the ``examples/`` scripts;
* the command-line runs of :data:`SCRIPTS`: the CI gates
  (``chaos_sweep.py``, ``generate_workloads.py --check``) and the
  scripts README documents (``serve_load.py``, ``trace_view.py``);
* ``tests/test_paper_figures.py``.

It then prints, per package of ``src/repro`` (a subdirectory, or a
top-level module), how many functions and function-body lines never ran,
and lists the unreached functions.  A function is a named ``def``; the
lambdas, comprehensions and generator expressions inside it count as its
body.  Its body lines are the source lines that carry its bytecode, the
``def`` line excluded.  ``bench/`` is imported, never written; traces
and exports go to a temporary directory.

Run:  python scripts/reach.py [PACKAGE ...] [--summary]
      (e.g. ``python scripts/reach.py axml core``)
"""

from __future__ import annotations

import argparse
import contextlib
import dis
import io
import os
import runpy
import sys
import tempfile
import time
from collections import defaultdict
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")

#: ``(script under scripts/, arguments)``, run in order; ``{tmp}`` is a
#: temporary directory, so a trace written by one run is read by a later one.
SCRIPTS = (
    ("chaos_sweep.py", ("--trace", "{tmp}/chaos.jsonl")),
    ("generate_workloads.py",
     ("--seed", "7", "--count", "25", "--check", "--repro-dir", "{tmp}/repros")),
    ("serve_load.py", ("--jobs", "16", "--concurrency", "4")),
    ("serve_load.py", ("--jobs", "16", "--rate", "200")),
    ("serve_load.py",
     ("--jobs", "16", "--concurrency", "4", "--trace", "{tmp}/serve.jsonl")),
    ("trace_view.py", ("{tmp}/serve.jsonl", "--export", "{tmp}/serve.json")),
    ("trace_view.py", ("{tmp}/chaos.jsonl", "--export", "{tmp}/chaos.json")),
)

_OPTIMIZED = 0x1  # CO_OPTIMIZED: a function body (not a module or class body)


def _code_key(code: CodeType) -> Tuple[str, int, str]:
    return code.co_filename, code.co_firstlineno, code.co_name


def _lines(code: CodeType) -> Set[int]:
    return {line for _, line in dis.findlinestarts(code) if line is not None}


def _functions(code: CodeType, owner=None) -> Iterator[Tuple[CodeType, Set[int]]]:
    """``(function code, body lines)`` of every named function under
    ``code``; anonymous code objects add their lines to their owner."""
    named = code.co_flags & _OPTIMIZED and not code.co_name.startswith("<")
    body: Set[int] = set()
    if named:
        owner = body
        body.update(_lines(code) - {code.co_firstlineno})
    elif owner is not None:
        owner.update(_lines(code))
    for const in code.co_consts:
        if isinstance(const, CodeType):
            yield from _functions(const, owner)
    if named:
        yield code, body


def _package_functions() -> Dict[str, List[Tuple[CodeType, Set[int]]]]:
    """Package name -> its functions, compiled from the source files."""
    by_package: Dict[str, List[Tuple[CodeType, Set[int]]]] = defaultdict(list)
    for folder, _dirs, files in os.walk(PACKAGE):
        for name in sorted(files):
            if not name.endswith(".py"):
                continue
            path = os.path.join(folder, name)
            with open(path, encoding="utf-8") as handle:
                module = compile(handle.read(), path, "exec")
            relative = os.path.relpath(path, PACKAGE)
            package = relative.split(os.sep)[0]
            by_package[package].extend(_functions(module))
    return by_package


def _run_script(name: str, args, tmp: str) -> None:
    """Run ``scripts/<name>`` as ``__main__``; a non-zero exit is an error."""
    argv = [os.path.join(REPO_ROOT, "scripts", name)]
    argv.extend(arg.format(tmp=tmp) for arg in args)
    saved = sys.argv
    sys.argv = argv
    try:
        runpy.run_path(argv[0], run_name="__main__")
    except SystemExit as stop:
        if stop.code:
            raise RuntimeError(f"{' '.join(argv)} exited {stop.code}") from None
    finally:
        sys.argv = saved


def _run_inputs(tmp: str) -> None:
    """The end-to-end inputs, in this process (their output discarded)."""
    import workloads  # bench/workloads.py
    from tracing import Tracer, layer_metrics  # bench/tracing.py

    for content_seed in (7, 11):
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, workloads.QUICK, content_seed)
            workload.run(workload.setup(7))
            workload.references(workload.setup(7))
    for name in workloads.WORKLOADS:
        workload = workloads.make(name, workloads.QUICK, 7)
        state = workload.setup(7)
        tracer = Tracer()
        tracer.install()
        try:
            start = time.perf_counter()
            result = workload.run(state)
            wall = time.perf_counter() - start
        finally:
            tracer.restore()
        layer_metrics(tracer, result, start, wall)
        tracer.write_jsonl(os.path.join(tmp, f"trace-{name}.jsonl"), start)
        workload.references(workload.setup(7), thorough=True)
    examples = os.path.join(REPO_ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            with contextlib.suppress(SystemExit):
                runpy.run_path(os.path.join(examples, name), run_name="__main__")
    for name, args in SCRIPTS:
        _run_script(name, args, tmp)
    import pytest

    pytest.main(
        ["-q", "-p", "no:cacheprovider", "--rootdir", REPO_ROOT,
         os.path.join(REPO_ROOT, "tests", "test_paper_figures.py")]
    )


def record() -> Set[Tuple[str, int, str]]:
    """Keys of every code object that ran under :func:`_run_inputs`."""
    seen: Set[CodeType] = set()

    def profile(frame, event, _arg):
        if event == "call":
            seen.add(frame.f_code)

    with tempfile.TemporaryDirectory() as tmp:
        sys.setprofile(profile)
        try:
            with contextlib.redirect_stdout(io.StringIO()):
                _run_inputs(tmp)
        finally:
            sys.setprofile(None)
    return {_code_key(code) for code in seen}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument(
        "packages", nargs="*", help="list unreached functions of these only"
    )
    parser.add_argument(
        "--summary", action="store_true", help="print the table only"
    )
    args = parser.parse_args()
    sys.path[:0] = [SRC, os.path.join(REPO_ROOT, "bench")]
    sys.dont_write_bytecode = True  # the inputs write nothing under the repo
    reached = record()
    by_package = _package_functions()
    rows = []
    for package in sorted(by_package):
        functions = by_package[package]
        missed = [(c, b) for c, b in functions if _code_key(c) not in reached]
        total = sum(len(b) for _, b in functions)
        lost = sum(len(b) for _, b in missed)
        rows.append((package, functions, missed, total, lost))
    print(f"{'package':<16} {'functions unreached':>20} {'body lines unreached':>24}")
    for package, functions, missed, total, lost in rows:
        share = 100.0 * lost / total if total else 0.0
        print(
            f"{package:<16} {len(missed):>9} / {len(functions):<8}"
            f" {lost:>9} / {total:<6} ({share:3.0f} %)"
        )
    functions = sum(len(r[1]) for r in rows)
    missed = sum(len(r[2]) for r in rows)
    total = sum(r[3] for r in rows)
    lost = sum(r[4] for r in rows)
    print(
        f"{'all of src/':<16} {missed:>9} / {functions:<8}"
        f" {lost:>9} / {total:<6} ({100.0 * lost / total:3.0f} %)"
    )
    if args.summary:
        return 0
    for package, _functions, missed, _total, _lost in rows:
        if args.packages and package not in args.packages:
            continue
        if not missed:
            continue
        print(f"\n{package}:")
        for code, body in sorted(missed, key=lambda m: _code_key(m[0])):
            where = os.path.relpath(code.co_filename, SRC)
            name = getattr(code, "co_qualname", code.co_name)
            print(f"  {where}:{code.co_firstlineno} {name} ({len(body)} lines)")
    return 0


if __name__ == "__main__":
    sys.exit(main())
