#!/usr/bin/env python3
"""The eDos-style software-distribution application (paper Section 4 /
extended version): package catalogs replicated on mirrors as *generic
documents*, clients resolving dependencies with pushed selections, and a
continuous update feed keeping mirrors equivalent.

Scenario:

* a ``hub`` publishes package metadata updates as a continuous stream;
* two ``mirror-*`` peers replicate the catalog; the registry groups them
  into the generic document ``packages@any``;
* clients (``alice`` in Paris near mirror-eu, ``bob`` in Tokyo near
  mirror-ap) resolve package dependencies; each client's pick policy
  chooses its nearest mirror (definition (9));
* the dependency query runs through the optimizer, which pushes the
  selection to the mirror (Example 1) instead of downloading the catalog.

Run:  python examples/edos_distribution.py
"""

import repro
from repro.axml import StreamChannel
from repro.core import BeamSearchStrategy
from repro.peers import AXMLSystem, NearestPolicy
from repro.xmlcore import parse

N_PACKAGES = 400


def build_catalog():
    """Package metadata with a dependency edge every few packages."""
    items = []
    for i in range(N_PACKAGES):
        deps = "".join(
            f"<dep>pkg-{j}</dep>" for j in range(max(0, i - 2), i) if j % 3 == 0
        )
        items.append(
            f"<pkg><name>pkg-{i}</name><section>{'libs' if i % 2 else 'apps'}</section>"
            f"<size>{(i * 53) % 2048}</size>{deps}</pkg>"
        )
    return parse("<packages>" + "".join(items) + "</packages>")


def build_world() -> AXMLSystem:
    system = AXMLSystem.with_peers(
        ["hub", "mirror-eu", "mirror-ap", "alice", "bob"],
        bandwidth=300_000.0,
        latency=0.01,
    )
    # geography: alice near mirror-eu, bob near mirror-ap
    for a, b, ms in [
        ("alice", "mirror-ap", 0.28),
        ("bob", "mirror-eu", 0.28),
        ("alice", "mirror-eu", 0.008),
        ("bob", "mirror-ap", 0.008),
    ]:
        system.network.add_link(a, b, latency=ms, bandwidth=300_000.0)

    catalog = build_catalog()
    for mirror in ("mirror-eu", "mirror-ap"):
        system.peer(mirror).install_document("packages", catalog.copy())
        system.registry.register_document("packages", "packages", mirror)
    return system


DEPENDENCY_QUERY = (
    "for $p in $d//pkg where $p/section = 'apps' "
    "return <candidate name='{$p/name}' size='{$p/size}'/>"
)


def main() -> None:
    system = build_world()

    print("== replica consistency ==")
    consistent = system.registry.check_document_equivalence("packages", system)
    print("mirrors equivalent:", consistent)

    print("\n== per-client resolution (generic document + nearest pick) ==")
    # One session, one pick policy; each client's resolution is a batch
    # entry binding $d to the *generic* document packages@any (def. (9)).
    session = repro.connect(
        system,
        pick_policy=NearestPolicy(),
        strategy=BeamSearchStrategy(depth=2, beam=4),
    )
    reports = session.batch(
        [
            {"source": DEPENDENCY_QUERY, "at": client,
             "bind": {"d": "packages@any"}, "name": f"deps-{client}"}
            for client in ("alice", "bob")
        ]
    )
    for client, report in zip(("alice", "bob"), reports):
        print(
            f"{client:6s} naive {report.original_cost.describe():>32s}   "
            f"optimized {report.best_cost.describe():>30s}"
        )
        print(f"       {len(report.items)} candidate packages resolved")

    print("\n== continuous update feed ==")
    channel = StreamChannel("pkg-updates", "hub", system)
    for mirror in ("mirror-eu", "mirror-ap"):
        target = system.peer(mirror).document("packages")
        channel.subscribe(target.node_id)
    for version in range(3):
        channel.emit(parse(
            f"<pkg><name>hotfix-{version}</name><section>apps</section>"
            f"<size>10</size></pkg>"
        ))
    print("updates emitted:", len(channel.emitted))
    print(
        "mirrors still equivalent:",
        system.registry.check_document_equivalence("packages", system),
    )
    sizes = {
        mirror: len(system.peer(mirror).document("packages").element_children)
        for mirror in ("mirror-eu", "mirror-ap")
    }
    print("catalog sizes:", sizes)


if __name__ == "__main__":
    main()
