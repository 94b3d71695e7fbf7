"""E6 — definition (9): generic documents and pick policies.

Workload: a catalog replicated on five mirrors at very different network
distances from the requester; the requester evaluates ``catalog@any``
under each pick policy.

Expected shape: ``nearest`` matches the best mirror's latency; ``first``
is whatever registration order gave (here: the worst mirror); ``random``
sits between; ``least-loaded`` tracks CPU pressure, not distance.
"""

import pytest

from repro.core import ExpressionEvaluator, GenericDoc
from repro.peers import (
    AXMLSystem,
    FirstPolicy,
    LeastLoadedPolicy,
    NearestPolicy,
    RandomPolicy,
)

from common import emit, format_table, make_catalog

MIRROR_LATENCIES = {  # requester -> mirror RTT one-way
    "mirror-0": 0.500,   # registered first, farthest (adversarial order)
    "mirror-1": 0.200,
    "mirror-2": 0.080,
    "mirror-3": 0.020,
    "mirror-4": 0.005,   # nearest
}


def build():
    peers = ["requester", *MIRROR_LATENCIES]
    system = AXMLSystem.with_peers(peers, bandwidth=1_000_000.0)
    catalog = make_catalog(60)
    mirrors = list(MIRROR_LATENCIES)
    # geography must be real: inter-mirror links are slow too, otherwise
    # shortest-path routing would tunnel through the nearest mirror and
    # flatten the distances the policies are supposed to exploit.
    for i, a in enumerate(mirrors):
        for b in mirrors[i + 1:]:
            system.network.add_link(a, b, latency=1.5, bandwidth=1_000_000.0)
    for mirror, latency in MIRROR_LATENCIES.items():
        system.network.add_link(
            "requester", mirror, latency=latency, bandwidth=1_000_000.0
        )
        system.peer(mirror).install_document("cat", catalog.copy())
        system.registry.register_document("catalog", "cat", mirror)
    return system


def fetch_time(system, policy):
    twin = system.clone()
    evaluator = ExpressionEvaluator(twin, policy)
    outcome = evaluator.eval(GenericDoc("catalog"), "requester")
    return outcome.completed_at


def run_sweep():
    system = build()
    rows = []
    policies = [
        ("first", FirstPolicy()),
        ("random(seed 1)", RandomPolicy(1)),
        ("random(seed 2)", RandomPolicy(2)),
        ("nearest", NearestPolicy()),
        ("least-loaded", LeastLoadedPolicy()),
    ]
    for name, policy in policies:
        times = [fetch_time(system, policy) for _ in range(3)]
        rows.append((name, min(times) * 1000, max(times) * 1000))
    return system, rows


def test_e6_generic_pick(benchmark):
    system, rows = run_sweep()
    emit(
        "E6",
        "generic document resolution (definition 9), fetch time by policy",
        format_table(["policy", "min ms", "max ms"], rows),
    )

    by_name = {row[0]: row[1] for row in rows}
    assert by_name["nearest"] < by_name["first"] / 5
    assert by_name["nearest"] <= min(
        by_name["random(seed 1)"], by_name["random(seed 2)"]
    )
    # replica consistency check is part of the protocol
    assert system.registry.check_document_equivalence("catalog", system)

    benchmark.pedantic(
        lambda: fetch_time(system, NearestPolicy()), rounds=3, iterations=1
    )
