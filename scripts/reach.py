#!/usr/bin/env python3
"""Which functions of ``src/repro`` no end-to-end input reaches.

Records, with ``sys.setprofile`` (no coverage tool needed), every
function of the package that runs while these inputs execute in this
process:

* a quick pass of each of the four ``bench/workloads.py`` workloads at
  content seeds 7 and 11, with its naive-plan reference answers;
* the four ``examples/`` scripts;
* ``tests/test_paper_figures.py``.

It then prints, per package of ``src/repro`` (a subdirectory, or a
top-level module), how many functions and function-body lines never ran,
and lists the unreached functions.  A function is a named ``def``; the
lambdas, comprehensions and generator expressions inside it count as its
body.  Its body lines are the source lines that carry its bytecode, the
``def`` line excluded.  ``bench/`` is imported, never written.

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
from collections import defaultdict
from types import CodeType
from typing import Dict, Iterator, List, Set, Tuple

REPO_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(REPO_ROOT, "src")
PACKAGE = os.path.join(SRC, "repro")
sys.path.insert(0, SRC)
sys.path.insert(0, os.path.join(REPO_ROOT, "bench"))

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


def _run_inputs() -> None:
    """The end-to-end inputs, in this process (their output discarded)."""
    import workloads  # bench/workloads.py

    for content_seed in (7, 11):
        for name in workloads.WORKLOADS:
            workload = workloads.make(name, workloads.QUICK, content_seed)
            workload.run(workload.setup(7))
            workload.references(workload.setup(7))
    examples = os.path.join(REPO_ROOT, "examples")
    for name in sorted(os.listdir(examples)):
        if name.endswith(".py"):
            with contextlib.suppress(SystemExit):
                runpy.run_path(os.path.join(examples, name), run_name="__main__")
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

    sys.setprofile(profile)
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            _run_inputs()
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
