"""Machine-checked equivalence of plans (Section 3.3's ``≡``).

The paper defines ``e1@p1 ≡ e2@p2`` as: for every system state Σ,
``eval@p1(e1)(Σ) = eval@p2(e2)(Σ)``.  Universal quantification over Σ is
checked here the empirical way — evaluate both plans on *clones* of one
or more concrete states and compare:

* the resulting values (forests, compared by unordered canonical form);
* the resulting Σ (document canonical forms per peer), with rewrite
  *artifacts* excluded: temporary documents and deployed helper services
  created by rules (8)/(13) carry reserved name prefixes (``tmp-``,
  ``recv-``, ``sent-``) and are not part of the observable state — a
  choice the paper makes implicitly when rule (13) invents document
  ``d@p``.

The property tests drive this over randomized states, which is as close
to "for any Σ" as an executable check gets.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, Optional, Tuple

from ..errors import ReproError
from ..peers.system import AXMLSystem
from ..xmlcore.canon import canonical_form
from .evaluator import EvalOutcome, ExpressionEvaluator
from .rules import Plan

__all__ = ["VerificationResult", "check_equivalence", "observable_state"]

#: Name prefixes marking rewrite artifacts, excluded from Σ comparison.
ARTIFACT_PREFIXES = ("tmp-", "recv-", "sent-")


@dataclass
class VerificationResult:
    """Outcome of one equivalence check, with a human-readable reason."""

    equivalent: bool
    reason: str = ""
    left_value: Optional[Tuple] = None
    right_value: Optional[Tuple] = None

    def __bool__(self) -> bool:
        return self.equivalent


def _is_artifact(name: str) -> bool:
    return any(name.startswith(prefix) for prefix in ARTIFACT_PREFIXES)


def observable_state(system: AXMLSystem) -> Dict[str, Tuple]:
    """Σ restricted to non-artifact documents and services."""
    image: Dict[str, Tuple] = {}
    for peer_id in sorted(system.peers):
        peer = system.peers[peer_id]
        docs = tuple(
            sorted(
                (name, canonical_form(tree))
                for name, tree in peer.documents.items()
                if not _is_artifact(name)
            )
        )
        services = tuple(
            sorted(
                name for name in peer.services if not _is_artifact(name)
            )
        )
        image[peer_id] = (docs, services)
    return image


def _value_image(outcome: EvalOutcome) -> Tuple:
    forest = tuple(sorted(repr(canonical_form(item)) for item in outcome.items))
    query = outcome.query.source if outcome.query is not None else None
    return (forest, query)


def check_equivalence(
    left: Plan,
    right: Plan,
    system: AXMLSystem,
    pick_policy=None,
    compare_values: bool = True,
) -> VerificationResult:
    """Evaluate both plans on clones of ``system``; compare value and Σ."""
    left_system = system.clone()
    right_system = system.clone()
    # a typed failure is a verdict; anything else is a bug and propagates
    try:
        left_outcome = ExpressionEvaluator(left_system, pick_policy).eval(
            left.expr, left.site
        )
    except ReproError as exc:
        return VerificationResult(False, f"left plan failed: {exc}")
    try:
        right_outcome = ExpressionEvaluator(right_system, pick_policy).eval(
            right.expr, right.site
        )
    except ReproError as exc:
        return VerificationResult(False, f"right plan failed: {exc}")

    left_value = _value_image(left_outcome)
    right_value = _value_image(right_outcome)
    if compare_values and left_value != right_value:
        return VerificationResult(
            False,
            "result values differ",
            left_value,
            right_value,
        )

    left_state = observable_state(left_system)
    right_state = observable_state(right_system)
    if left_state != right_state:
        differing = [
            peer
            for peer in left_state
            if left_state.get(peer) != right_state.get(peer)
        ]
        return VerificationResult(
            False, f"system state differs on peers {differing}"
        )
    return VerificationResult(True, "value and state match")
