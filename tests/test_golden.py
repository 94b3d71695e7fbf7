"""The benchmark workloads' results and the planner's choices are pinned.

``tests/golden/workloads.json`` holds, per ``bench/workloads.py`` workload
and content seed, what one counted-quarter pass produces exactly: every
``virt_*`` metric, the failed count, and digests of the answers and of the
serving event trace.  ``tests/golden/searches.json`` holds, per generated
search of the script's protocol, a sha256 of the chosen plan's XML text
and its site, its best and original costs and the rule that produced it.
A change that moves any of them must regenerate the files with ``python
scripts/golden.py --write`` and say why.
"""

import importlib.util
import json
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "golden.py"


def _golden():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_workloads_match_the_golden_file():
    golden = _golden()
    expected = json.loads(golden.GOLDEN.read_text())
    actual = golden.compute()
    assert sorted(actual) == sorted(expected)
    differing = {key: actual[key] for key in actual if actual[key] != expected[key]}
    assert not differing, f"regenerate with scripts/golden.py --write if intended: {differing}"


def test_searches_match_the_golden_file():
    golden = _golden()
    expected = json.loads(golden.SEARCHES.read_text())
    actual = golden.compute_searches()
    assert sorted(actual) == sorted(expected)
    differing = {key: actual[key] for key in actual if actual[key] != expected[key]}
    assert not differing, f"regenerate with scripts/golden.py --write if intended: {differing}"
