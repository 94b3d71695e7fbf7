"""Fixtures shared across test modules."""

import contextlib

import pytest

from repro.core.cost import measure
from repro.core.costmodel import OracleCostModel


def _bare_score(self, plan):
    return measure(plan, self.system, self.pick_policy)


@pytest.fixture()
def bare_oracle(monkeypatch):
    """``with bare_oracle(): ...`` prices every candidate by a bare
    ``measure(plan, system, pick_policy)``: no query memo, no activation
    transcripts, and no simulation kept to execute the pick by.

    The unmemoised side of a cache on/off parity test: ``plan_cache=None``
    drops only the prepared table, and its optimizer keeps a private
    cache that memoises and replays like the default one.
    """

    @contextlib.contextmanager
    def bare():
        with monkeypatch.context() as patch:
            patch.setattr(OracleCostModel, "score", _bare_score)
            yield

    return bare
