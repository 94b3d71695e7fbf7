"""Smoke tests: every example script runs to completion and prints the
headline facts it promises.  Keeps the examples from rotting as the API
evolves."""

import os
import re
import subprocess
import sys

import pytest

EXAMPLES_DIR = os.path.join(os.path.dirname(__file__), "..", "examples")
SRC_DIR = os.path.join(os.path.dirname(__file__), "..", "src")


def run_example(name, timeout=180):
    # the subprocess does not inherit pytest's pythonpath setting, so put
    # src/ on the child's PYTHONPATH explicitly
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (SRC_DIR, env.get("PYTHONPATH")) if p
    )
    result = subprocess.run(
        [sys.executable, os.path.join(EXAMPLES_DIR, name)],
        capture_output=True,
        text=True,
        timeout=timeout,
        env=env,
    )
    assert result.returncode == 0, result.stderr
    return result.stdout


@pytest.mark.slow
class TestExamples:
    def test_quickstart(self):
        out = run_example("quickstart.py")
        assert "equivalent?  True" in out
        assert "improvement" in out
        assert "<expensive>" in out

    def test_edos_distribution(self):
        out = run_example("edos_distribution.py")
        assert "mirrors equivalent: True" in out
        assert "mirrors still equivalent: True" in out
        assert "alice" in out and "bob" in out

    def test_continuous_dashboard(self):
        out = run_example("continuous_dashboard.py")
        assert "incremental" in out
        assert "quadratic" in out

    def test_optimizer_tour(self):
        out = run_example("optimizer_tour.py")
        # every rule section appears, and no rewrite was non-equivalent
        for rule in (
            "query-delegation(10)", "push-selection(11)", "reroute(12)",
            "transfer-reuse(13)", "delegate-expression(14)",
            "relocate-call(15)", "push-query-over-call(16)",
        ):
            assert rule in out
        assert "≠(!)" not in out
        # each cost model's search leaves its memo in the plan cache: the
        # oracle's query memo, the estimator's, or (hybrid) both
        assert re.search(r" 0 estimator entries, [1-9]\d* query memo entries", out)
        assert re.search(r" [1-9]\d* estimator entries, 0 query memo entries", out)
        assert re.search(r" [1-9]\d* estimator entries, [1-9]\d* query memo", out)
