"""Peer churn: kills, joins, and catalog failover.

The paper's peers are autonomous — they may leave (or arrive) at any
moment, yet the system must keep answering what it still can answer and
*refuse loudly* what it cannot.  A run scripts its kills and rejoins as
the ``peer-crash`` / ``peer-rejoin`` events of the session's
:class:`~repro.faults.FaultPlan`; the serving scheduler applies each at
its instant through :class:`ChurnController`, the Σ-side reaction: a
kill marks the peer dead, scrubs it from the generic registry (admission
immediately routes around it), and *fails the catalog over* — every fragment
primaried on the victim promotes a surviving replica to primary; a
fragment whose last copy died keeps its entry, so reads raise the typed
:class:`~repro.errors.FragmentUnavailableError` instead of returning a
partial answer.  A join adds the peer (with links to every live peer)
or revives a known one.
"""

from __future__ import annotations

from dataclasses import replace
from typing import List

from ..peers.system import AXMLSystem

__all__ = ["ChurnController"]

class ChurnController:
    """Applies membership changes to one Σ and fails the catalog over."""

    def __init__(self, system: AXMLSystem) -> None:
        self.system = system

    # -- leave -----------------------------------------------------------------
    def kill(self, peer_id: str, now: float = 0.0) -> List[str]:
        """Peer ``peer_id`` leaves: mark dead, scrub registry, fail over.

        Idempotent; the peer object (and its documents) stay around so
        accounting can settle, but nothing routes to it any more.
        In-flight transfers on the victim's links are cancelled at
        ``now`` — a later rejoin must not find pre-crash traffic still
        queued for silent delivery.
        """
        peer = self.system.peer(peer_id)
        if not peer.alive:
            return [f"kill {peer_id}: already down"]
        peer.alive = False
        notes = [f"kill {peer_id}"]
        cancelled = self.system.network.cancel_peer_traffic(peer_id, now)
        if cancelled:
            notes.append(
                f"cancelled in-flight traffic on {cancelled} links "
                f"touching {peer_id}"
            )
        scrubbed = self.system.registry.remove_peer(peer_id)
        if scrubbed:
            notes.append(
                f"unregistered {scrubbed} generic memberships on {peer_id}"
            )
        for info in list(self.system.fragments):
            changed = False
            fragments = []
            for fragment in info.fragments:
                live_replicas = tuple(
                    p
                    for p in fragment.replicas
                    if p in self.system.peers and self.system.peers[p].alive
                )
                if fragment.home == peer_id:
                    if live_replicas:
                        new_home = live_replicas[0]
                        fragment = replace(
                            fragment,
                            home=new_home,
                            replicas=live_replicas[1:],
                        )
                        notes.append(
                            f"failover {fragment.name}: "
                            f"{peer_id} -> {new_home}"
                        )
                        changed = True
                    else:
                        # last copy died with the peer: the entry stays,
                        # so reads raise FragmentUnavailableError with
                        # the last-known peers instead of a partial answer
                        notes.append(
                            f"fragment {fragment.name} unavailable "
                            f"(last copy was on {peer_id})"
                        )
                elif live_replicas != fragment.replicas:
                    fragment = replace(fragment, replicas=live_replicas)
                    changed = True
                fragments.append(fragment)
            if changed:
                self.system.fragments.register(
                    replace(info, fragments=tuple(fragments)),
                    replace_existing=True,
                )
        return notes

    # -- join ------------------------------------------------------------------
    def join(
        self,
        peer_id: str,
        compute_speed: float = 100_000.0,
        latency: float = 0.01,
        bandwidth: float = 1_000_000.0,
    ) -> List[str]:
        """Peer ``peer_id`` joins (or re-joins) the system.

        A brand-new peer gets symmetric links to every live peer; a
        known dead peer is revived in place.  Its generic memberships
        and replica entries were scrubbed at kill time and stay gone; a
        fragment whose last copy it held kept its catalog entry, so that
        fragment reads again.
        """
        if peer_id in self.system.peers:
            peer = self.system.peers[peer_id]
            if peer.alive:
                return [f"join {peer_id}: already live"]
            peer.alive = True
            return [f"rejoin {peer_id}"]
        self.system.add_peer(peer_id, compute_speed)
        linked = []
        for other_id in self.system.live_peers():
            if other_id == peer_id:
                continue
            self.system.network.add_link(
                peer_id, other_id, latency, bandwidth, symmetric=True
            )
            linked.append(other_id)
        return [f"join {peer_id} (linked to {len(linked)} peers)"]
