"""E3 — rule (12): intermediary stops on data transfers.

Topology: the direct link client→far is low-latency but *thin* (a
capped WAN path); the path through the relay has higher latency but fat
links.  Shortest-path routing (latency-dominated) pins small transfers to
the direct link, so the *logical* rewrite — an explicit ``via`` stop —
is what exploits the fat path.

Sweep: payload size.  Expected shape (the paper's "while it may seem
that rule (12) should always be applied left to right, this is not
always true"): direct wins for small payloads, the relayed plan wins for
bulk, with a visible crossover.
"""

import pytest

from repro.core import DocDest, DocExpr, Plan, Send, check_equivalence, measure
from repro.peers import AXMLSystem
from repro.xmlcore import parse

from common import emit, format_table


def build(payload_bytes: int):
    system = AXMLSystem.with_peers(["src", "relay", "dst"])
    net = system.network
    # thin-but-snappy direct link
    net.add_link("src", "dst", latency=0.005, bandwidth=20_000.0)
    # fat-but-laggy relay path
    for a, b in (("src", "relay"), ("relay", "dst")):
        net.add_link(a, b, latency=0.040, bandwidth=10_000_000.0)
    blob = parse(f"<blob>{'x' * payload_bytes}</blob>")
    system.peer("src").install_document("blob", blob)
    direct = Plan(Send(DocDest("copy", "dst"), DocExpr("blob", "src")), "src")
    relayed = Plan(
        Send(DocDest("copy", "dst"), DocExpr("blob", "src"), via=("relay",)),
        "src",
    )
    return system, direct, relayed


def run_sweep():
    rows = []
    for size in (50, 500, 2_000, 20_000, 200_000):
        system, direct, relayed = build(size)
        direct_cost = measure(direct, system)
        relay_cost = measure(relayed, system)
        rows.append(
            (
                size,
                direct_cost.time * 1000,
                relay_cost.time * 1000,
                "direct" if direct_cost.time < relay_cost.time else "via relay",
            )
        )
    return rows


def test_e3_reroute(benchmark):
    rows = run_sweep()
    emit(
        "E3",
        "transfer rerouting (rule 12): thin direct link vs fat relay path",
        format_table(["payload B", "direct ms", "relay ms", "winner"], rows),
    )

    # the crossover the paper promises: each direction of the rule wins
    # somewhere
    winners = [row[3] for row in rows]
    assert winners[0] == "direct"
    assert winners[-1] == "via relay"
    assert "direct" in winners and "via relay" in winners

    system, direct, relayed = build(2_000)
    assert check_equivalence(direct, relayed, system).equivalent
    benchmark.pedantic(lambda: measure(relayed, system), rounds=3, iterations=1)
