"""Fixtures shared across test modules."""

import contextlib

import pytest

from repro.core.cost import Cost, lower_bound, measure
from repro.core.costmodel import OracleCostModel


def _bare_score(self, plan):
    return measure(plan, self.system, self.pick_policy)


def _bare_bound(self, plan):
    return lower_bound(plan, self.system, pick_policy=self.pick_policy)


@pytest.fixture()
def bare_oracle(monkeypatch):
    """``with bare_oracle(): ...`` prices every candidate by a bare
    ``measure(plan, system, pick_policy)``: no query memo, no activation
    transcripts, and no simulation kept to execute the pick by.  Its
    bound is as bare: ``lower_bound`` with no memo and no transcripts.

    The unmemoised side of a cache on/off parity test: ``plan_cache=None``
    drops only the prepared table, and its optimizer keeps a private
    cache that memoises and replays like the default one.
    """

    @contextlib.contextmanager
    def bare():
        with monkeypatch.context() as patch:
            patch.setattr(OracleCostModel, "score", _bare_score)
            patch.setattr(OracleCostModel, "bound", _bare_bound)
            yield

    return bare


def _zero_bound(self, plan):
    return Cost(0, 0, 0.0)


@pytest.fixture()
def no_bound(monkeypatch):
    """``with no_bound(): ...`` bounds every candidate by ``Cost(0, 0,
    0.0)``, so the oracle search prunes nothing: it scores every
    candidate, as it did before candidates were bounded.

    The unpruned side of a pruned/unpruned parity test.
    """

    @contextlib.contextmanager
    def unbounded():
        with monkeypatch.context() as patch:
            patch.setattr(OracleCostModel, "bound", _zero_bound)
            yield

    return unbounded
