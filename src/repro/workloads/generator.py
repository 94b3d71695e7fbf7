"""Seeded procedural generation of whole distributed-query scenarios.

The paper's claims are about behaviour across *many* configurations —
topologies, placements, query shapes — while hand-written examples can
only ever probe a few.  :class:`ScenarioGenerator` turns a seed into a
complete, ready-to-query :class:`~repro.peers.system.AXMLSystem`:

* a network on one of the standard topologies (star / ring / mesh /
  clustered, built through :mod:`repro.net.topology`) with drawn link
  quality;
* a peer population with heterogeneous compute speeds;
* plain XML documents with varied vocabularies, AXML documents with
  embedded service calls, declarative services over host documents, and
  optional generic-document replicas registered under ``name@any``;
* an XQuery workload of configurable size over those documents, spanning
  several shapes (projection, selection, construction, aggregation,
  joins).

Everything is drawn from one ``random.Random`` seeded by
``(seed, index)``, so the same seed reproduces the same scenario down to
the byte — :meth:`Scenario.serialize` is the canonical text form the
determinism tests compare.  No global randomness is touched.
"""

from __future__ import annotations

from dataclasses import dataclass, field, fields, replace
from random import Random
from typing import Dict, Iterator, List, Optional, Sequence, Tuple

from ..dist.fragmenter import Fragmenter
from ..errors import WorkloadError
from ..net import topology as topo
from ..net.network import Network
from ..axml.document import make_service_call
from ..peers.system import AXMLSystem
from ..xmlcore.model import Element, element
from ..xmlcore.serializer import serialize

__all__ = [
    "ScenarioSpec",
    "GeneratedDocument",
    "GeneratedService",
    "GeneratedQuery",
    "GeneratedWrite",
    "Scenario",
    "ScenarioGenerator",
    "TOPOLOGIES",
    "QUERY_SHAPES",
    "CHAOS_SPEC",
    "FRAGMENTED_SPEC",
    "WRITE_MIX_SPEC",
]

#: Topology names the generator draws from (`"any"` rotates over them).
TOPOLOGIES = ("star", "ring", "mesh", "clustered")

#: Query shapes the generator can emit.
QUERY_SHAPES = ("project", "filter", "construct", "let_filter", "count", "join")

_COMPUTE_SPEEDS = (20_000.0, 50_000.0, 100_000.0, 250_000.0, 500_000.0)
_LATENCIES = (0.005, 0.01, 0.02, 0.03)
_BANDWIDTHS = (100_000.0, 250_000.0, 1_000_000.0)
_ROOT_TAGS = ("catalog", "inventory", "feed", "library", "ledger")
_ITEM_TAGS = ("item", "entry", "record", "product", "row")
_NAME_TAGS = ("name", "title", "label", "id")
_NUM_TAGS = ("price", "score", "qty", "rank", "weight")
_WORDS = ("alpha", "beta", "gamma", "delta", "omega", "sigma", "kappa", "zeta")
#: How many times slower a ``slow_peers`` peer computes.
SLOW_FACTOR = 4.0


@dataclass(frozen=True)
class ScenarioSpec:
    """Shape parameters for one generated scenario (all sizes are targets).

    ``topology="any"`` rotates deterministically through
    :data:`TOPOLOGIES` by scenario index.  ``replicas`` documents are
    mirrored onto other peers and registered as generic documents, so
    some query bindings become ``name@any``.  ``axml_documents`` embed an
    immediate service call each (when at least one service exists).
    """

    peers: int = 4
    topology: str = "any"
    documents: int = 3
    axml_documents: int = 1
    items: int = 12
    payload_words: int = 3
    value_range: int = 25
    services: int = 2
    replicas: int = 1
    queries: int = 5
    query_shapes: Tuple[str, ...] = QUERY_SHAPES
    #: Number of passive documents to fragment horizontally across peers
    #: (the ``fragmented`` scenario family); their query bindings become
    #: ``name@dist``, evaluated scatter-gather through the catalog.
    fragments: int = 0
    #: Replicas of each fragment, mirrored onto other peers and resolved
    #: through the generic registry (pick policies choose the copy).
    fragment_replicas: int = 0
    #: Number of seeded write operations (:mod:`repro.writes`) to draw
    #: over the passive documents — the read/write-mix family.  Only
    #: drawn from the rng when > 0, so existing seeds reproduce
    #: byte-identically.
    writes: int = 0
    #: Correlated slow peers: this many peers (drawn together, one gated
    #: draw) get their compute speed divided by :data:`SLOW_FACTOR` — the
    #: "one rack is overloaded" long-tail family.  0 (the default) draws
    #: nothing and keeps scenarios byte-identical.
    slow_peers: int = 0

    def validate(self) -> None:
        if self.peers < 1:
            raise WorkloadError("a scenario needs at least one peer")
        if self.topology != "any" and self.topology not in TOPOLOGIES:
            raise WorkloadError(
                f"unknown topology {self.topology!r}; "
                f"pick one of {', '.join(TOPOLOGIES)} or 'any'"
            )
        for count_field in (
            "documents", "axml_documents", "services", "replicas",
            "payload_words", "value_range", "fragments", "fragment_replicas",
            "writes", "slow_peers",
        ):
            if getattr(self, count_field) < 0:
                raise WorkloadError(f"{count_field} cannot be negative")
        if self.slow_peers > self.peers:
            raise WorkloadError(
                f"slow_peers ({self.slow_peers}) cannot exceed "
                f"peers ({self.peers})"
            )
        if self.documents + self.axml_documents < 1:
            raise WorkloadError("a scenario needs at least one document")
        if self.items < 1:
            raise WorkloadError("documents need at least one item")
        if self.queries < 1:
            raise WorkloadError("a scenario needs at least one query")
        unknown = sorted(set(self.query_shapes) - set(QUERY_SHAPES))
        if unknown:
            raise WorkloadError(
                f"unknown query shapes {unknown}; "
                f"available: {', '.join(QUERY_SHAPES)}"
            )
        if self.replicas > self.documents:
            raise WorkloadError("cannot replicate more documents than exist")
        if self.fragments:
            if self.peers < 2:
                raise WorkloadError(
                    "fragmented scenarios need at least two peers"
                )
            if self.fragments + self.replicas > self.documents:
                raise WorkloadError(
                    "cannot fragment more passive documents than remain "
                    "after replication"
                )
            if self.fragment_replicas > self.peers - 1:
                raise WorkloadError(
                    "fragment_replicas cannot exceed peers - 1"
                )

    def to_kwargs(self) -> Dict[str, object]:
        """Literal kwargs reconstructing this spec (for repro scripts)."""
        return {f.name: getattr(self, f.name) for f in fields(self)}


@dataclass(frozen=True)
class GeneratedDocument:
    """One generated document plus the vocabulary queries need."""

    name: str
    peer: str
    item_tag: str
    name_tag: str
    num_tag: str
    n_items: int
    #: Generic name when the document was replicated (else None).
    generic: Optional[str] = None
    #: Whether the document embeds a service call (AXML).
    active: bool = False
    #: Whether the document was horizontally fragmented (queries then
    #: bind it as ``name@dist``; the whole document stays installed at
    #: its home peer as the unfragmented baseline).
    fragmented: bool = False


@dataclass(frozen=True)
class GeneratedService:
    name: str
    peer: str
    source: str


@dataclass(frozen=True)
class GeneratedQuery:
    """One workload query, ready for ``Session.query(**query.kwargs())``."""

    name: str
    shape: str
    source: str
    at: str
    #: parameter -> "doc@peer" / "generic@any" binding strings.
    bind: Tuple[Tuple[str, str], ...]

    @property
    def bindings(self) -> Dict[str, str]:
        return dict(self.bind)

    def kwargs(self) -> Dict[str, object]:
        return {
            "source": self.source,
            "at": self.at,
            "bind": self.bindings,
            "name": self.name,
        }


@dataclass(frozen=True)
class GeneratedWrite:
    """One seeded write op of the read/write-mix scenario family.

    Stored in provenance form (the inserted item as serialized XML) so
    :meth:`Scenario.serialize` stays pure text; :meth:`op` materializes
    the actual :mod:`repro.writes` operation on demand.
    """

    name: str
    doc: str
    #: ``"insert"`` / ``"update"`` / ``"delete"``.
    kind: str
    ordinal: int
    #: Field tag/value for updates.
    tag: Optional[str] = None
    value: Optional[str] = None
    #: Serialized item subtree for inserts.
    item_xml: Optional[str] = None

    def op(self):
        """The concrete write op this record describes."""
        from ..writes import DeleteOp, InsertOp, UpdateOp
        from ..xmlcore import parse

        if self.kind == "insert":
            return InsertOp(self.doc, parse(self.item_xml), self.ordinal)
        if self.kind == "update":
            return UpdateOp(self.doc, self.ordinal, self.tag, self.value)
        if self.kind == "delete":
            return DeleteOp(self.doc, self.ordinal)
        raise WorkloadError(f"unknown write kind {self.kind!r}")

    def describe(self) -> str:
        detail = ""
        if self.kind == "update":
            detail = f" {self.tag}={self.value}"
        elif self.kind == "insert":
            detail = f" {self.item_xml}"
        return f"{self.name} {self.kind} {self.doc}[{self.ordinal}]{detail}"


@dataclass
class Scenario:
    """A ready system plus its query workload and generation provenance."""

    seed: int
    index: int
    spec: ScenarioSpec
    topology: str
    system: AXMLSystem
    documents: List[GeneratedDocument]
    services: List[GeneratedService]
    queries: List[GeneratedQuery]
    #: Seeded write sequence (empty unless ``spec.writes > 0``); applied
    #: in order by the harness's write sweep.
    writes: List[GeneratedWrite] = field(default_factory=list)

    def query(self, name: str) -> GeneratedQuery:
        for query in self.queries:
            if query.name == name:
                return query
        raise WorkloadError(f"no generated query named {name!r}")

    def serialize(self) -> str:
        """Canonical text form of the whole scenario.

        Two scenarios generated from the same ``(seed, index, spec)`` are
        byte-identical here — the determinism contract the conformance
        tests pin down.  Everything observable is included: topology,
        link quality, peer speeds, full document trees, service sources,
        registry membership, and the query workload.
        """
        lines = [f"scenario seed={self.seed} index={self.index}"]
        spec_items = " ".join(
            f"{key}={value!r}" for key, value in sorted(self.spec.to_kwargs().items())
        )
        lines.append(f"spec {spec_items}")
        lines.append(f"topology {self.topology}")
        for peer_id in sorted(self.system.peers):
            peer = self.system.peer(peer_id)
            lines.append(f"peer {peer_id} speed={peer.compute_speed:.0f}")
        for link in sorted(
            self.system.network.links(), key=lambda l: (l.src, l.dst)
        ):
            lines.append(
                f"link {link.src}->{link.dst} "
                f"latency={link.latency:.6f} bandwidth={link.bandwidth:.0f}"
            )
        for peer_id in sorted(self.system.peers):
            peer = self.system.peer(peer_id)
            for doc_name in sorted(peer.documents):
                lines.append(
                    f"doc {doc_name}@{peer_id} {serialize(peer.documents[doc_name])}"
                )
        for service in self.services:
            lines.append(
                f"service {service.name}@{service.peer} {service.source}"
            )
        registry = self.system.registry
        for generic in sorted(
            doc.generic for doc in self.documents if doc.generic
        ):
            members = ", ".join(
                str(member) for member in registry.document_members(generic)
            )
            lines.append(f"generic {generic} -> {members}")
        for info in self.system.fragments:
            lines.append(f"fragmented {info.describe()}")
        for query in self.queries:
            binds = " ".join(f"{param}={target}" for param, target in query.bind)
            lines.append(f"query {query.name} shape={query.shape} at={query.at} {binds}")
            lines.append(f"  {query.source}")
        # write lines only appear for write-mix scenarios, so every
        # pre-existing spec serializes byte-identically
        for write in self.writes:
            lines.append(f"write {write.describe()}")
        return "\n".join(lines) + "\n"

    def describe(self) -> str:
        return (
            f"scenario#{self.index} (seed {self.seed}): "
            f"{len(self.system.peers)} peers on {self.topology}, "
            f"{len(self.documents)} docs, {len(self.services)} services, "
            f"{len(self.queries)} queries"
        )


class ScenarioGenerator:
    """Deterministic factory: ``(seed, index, spec) -> Scenario``.

    >>> gen = ScenarioGenerator(seed=7)
    >>> a = gen.scenario(0)
    >>> b = ScenarioGenerator(seed=7).scenario(0)
    >>> a.serialize() == b.serialize()
    True
    """

    def __init__(self, seed: int = 0, spec: Optional[ScenarioSpec] = None) -> None:
        self.seed = seed
        self.spec = spec or ScenarioSpec()
        self.spec.validate()

    def scenarios(
        self, count: int, start: int = 0, spec: Optional[ScenarioSpec] = None
    ) -> Iterator[Scenario]:
        """Lazily yield ``count`` scenarios with consecutive indices."""
        for index in range(start, start + count):
            yield self.scenario(index, spec)

    def scenario(self, index: int = 0, spec: Optional[ScenarioSpec] = None) -> Scenario:
        spec = spec or self.spec
        spec.validate()
        # one private stream per (seed, index): scenarios are independent
        # and insertion into a sweep never perturbs its neighbours.
        # (str seeding hashes via sha512, stable across processes/versions)
        rng = Random(f"{self.seed}:{index}")

        topology = spec.topology
        if topology == "any":
            topology = TOPOLOGIES[index % len(TOPOLOGIES)]
        peer_ids = [f"p{i}" for i in range(spec.peers)]
        network = self._build_network(rng, topology, peer_ids)
        system = AXMLSystem(network)
        for peer_id in peer_ids:
            system.add_peer(peer_id, compute_speed=rng.choice(_COMPUTE_SPEEDS))
        if spec.slow_peers:
            # gated draw: the knob at 0 consumes no randomness, so plain
            # scenarios stay byte-identical.  One sample draws the whole
            # correlated set — "the overloaded rack", not scattered picks.
            slowed = sorted(
                rng.sample(peer_ids, min(spec.slow_peers, len(peer_ids)))
            )
            for peer_id in slowed:
                peer = system.peers[peer_id]
                peer.compute_speed = peer.compute_speed / SLOW_FACTOR

        services = self._install_services(rng, spec, system, peer_ids)
        documents = self._install_documents(rng, spec, system, peer_ids, services)
        documents = self._fragment(rng, spec, system, peer_ids, documents)
        queries = self._generate_queries(rng, spec, documents, peer_ids)
        writes = self._generate_writes(rng, spec, system, documents)
        return Scenario(
            seed=self.seed,
            index=index,
            spec=spec,
            topology=topology,
            system=system,
            documents=documents,
            services=services,
            queries=queries,
            writes=writes,
        )

    # -- network -----------------------------------------------------------------
    def _build_network(
        self, rng: Random, topology: str, peer_ids: Sequence[str]
    ) -> Network:
        latency = rng.choice(_LATENCIES)
        bandwidth = rng.choice(_BANDWIDTHS)
        if topology == "mesh":
            return topo.full_mesh(peer_ids, latency, bandwidth)
        if topology == "star":
            return topo.star(peer_ids, latency=latency, bandwidth=bandwidth)
        if topology == "ring":
            if len(peer_ids) < 2:
                return topo.full_mesh(peer_ids, latency, bandwidth)
            return topo.ring(peer_ids, latency, bandwidth)
        if topology == "clustered":
            clusters = min(len(peer_ids), rng.choice((2, 3)))
            return topo.clustered(
                peer_ids,
                clusters=clusters,
                bridge_latency=latency * 2,
                bridge_bandwidth=bandwidth / 2,
            )
        raise WorkloadError(f"unknown topology {topology!r}")

    # -- services ----------------------------------------------------------------
    def _install_services(
        self,
        rng: Random,
        spec: ScenarioSpec,
        system: AXMLSystem,
        peer_ids: Sequence[str],
    ) -> List[GeneratedService]:
        """Declarative services closing over a private host document.

        Each service gets its own small backing document on its host
        peer, so delegating the service elsewhere is a genuine rewrite
        (the implementing query's ``doc()`` stays home-resolved).
        """
        services: List[GeneratedService] = []
        for k in range(spec.services):
            host = rng.choice(list(peer_ids))
            item_tag = rng.choice(_ITEM_TAGS)
            num_tag = rng.choice(_NUM_TAGS)
            backing = f"svcdoc{k}"
            n_items = rng.randint(2, max(2, spec.items // 2))
            tree = self._make_tree(
                rng, "store", item_tag, rng.choice(_NAME_TAGS), num_tag,
                n_items, spec.payload_words, spec.value_range,
            )
            system.peer(host).install_document(backing, tree)
            threshold = rng.randint(0, spec.value_range)
            source = (
                f'for $i in doc("{backing}")//{item_tag} '
                f"where $i/{num_tag} > {threshold} return $i"
            )
            system.peer(host).install_query_service(f"s{k}", source)
            services.append(GeneratedService(f"s{k}", host, source))
        return services

    # -- documents ---------------------------------------------------------------
    def _install_documents(
        self,
        rng: Random,
        spec: ScenarioSpec,
        system: AXMLSystem,
        peer_ids: Sequence[str],
        services: List[GeneratedService],
    ) -> List[GeneratedDocument]:
        documents: List[GeneratedDocument] = []
        total = spec.documents + spec.axml_documents
        for k in range(total):
            active = k >= spec.documents and bool(services)
            host = rng.choice(list(peer_ids))
            item_tag = rng.choice(_ITEM_TAGS)
            name_tag = rng.choice(_NAME_TAGS)
            num_tag = rng.choice(_NUM_TAGS)
            n_items = rng.randint(max(1, spec.items // 2), spec.items)
            tree = self._make_tree(
                rng, rng.choice(_ROOT_TAGS), item_tag, name_tag, num_tag,
                n_items, spec.payload_words, spec.value_range,
            )
            if active:
                service = rng.choice(services)
                tree.append(make_service_call(service.peer, service.name))
            name = f"d{k}"
            system.peer(host).install_document(name, tree)
            documents.append(
                GeneratedDocument(
                    name=name,
                    peer=host,
                    item_tag=item_tag,
                    name_tag=name_tag,
                    num_tag=num_tag,
                    n_items=n_items,
                    active=active,
                )
            )
        return self._replicate(rng, spec, system, peer_ids, documents)

    def _replicate(
        self,
        rng: Random,
        spec: ScenarioSpec,
        system: AXMLSystem,
        peer_ids: Sequence[str],
        documents: List[GeneratedDocument],
    ) -> List[GeneratedDocument]:
        """Mirror some plain documents and register the generic classes."""
        if spec.replicas == 0 or len(peer_ids) < 2:
            return documents
        # only passive documents replicate: an sc node firing on two
        # replicas would race the registry's equivalence promise.
        candidates = [doc for doc in documents if not doc.active]
        rng.shuffle(candidates)
        chosen = candidates[: spec.replicas]
        out: List[GeneratedDocument] = []
        for doc in documents:
            if doc not in chosen:
                out.append(doc)
                continue
            generic = f"g-{doc.name}"
            mirrors = [p for p in peer_ids if p != doc.peer]
            mirror_peer = rng.choice(mirrors)
            original = system.peer(doc.peer).document(doc.name)
            mirror_name = f"{doc.name}.r1"
            system.peer(mirror_peer).install_document(
                mirror_name, original.copy_without_ids()
            )
            system.registry.register_document(generic, doc.name, doc.peer)
            system.registry.register_document(generic, mirror_name, mirror_peer)
            out.append(replace(doc, generic=generic))
        return out

    def _fragment(
        self,
        rng: Random,
        spec: ScenarioSpec,
        system: AXMLSystem,
        peer_ids: Sequence[str],
        documents: List[GeneratedDocument],
    ) -> List[GeneratedDocument]:
        """The ``fragmented`` family: shard some passive documents.

        Chosen documents are split across 2–3 peers (never more than the
        document has items); the whole document stays installed at its
        home as the baseline the differential harness compares against.
        Only drawn from the rng when ``spec.fragments > 0``, so existing
        seeds reproduce byte-identically.
        """
        if spec.fragments == 0 or len(peer_ids) < 2:
            return documents
        candidates = [
            doc for doc in documents if not doc.active and not doc.generic
        ]
        rng.shuffle(candidates)
        chosen = {doc.name for doc in candidates[: spec.fragments]}
        fragmenter = Fragmenter(system)
        out: List[GeneratedDocument] = []
        for doc in documents:
            if doc.name not in chosen:
                out.append(doc)
                continue
            width = min(len(peer_ids), rng.choice((2, 3)), doc.n_items)
            across = rng.sample(list(peer_ids), width)
            replicas = min(spec.fragment_replicas, len(peer_ids) - 1)
            fragmenter.fragment(
                doc.name, doc.peer, across, replicas=replicas
            )
            out.append(replace(doc, fragmented=True))
        return out

    def _make_tree(
        self,
        rng: Random,
        root_tag: str,
        item_tag: str,
        name_tag: str,
        num_tag: str,
        n_items: int,
        payload_words: int,
        value_range: int,
    ) -> Element:
        root = element(root_tag)
        for i in range(n_items):
            payload = " ".join(
                rng.choice(_WORDS) for _ in range(payload_words)
            )
            item = element(
                item_tag,
                element(name_tag, f"{item_tag}-{i}"),
                element(num_tag, str(rng.randint(0, value_range))),
            )
            if payload_words:
                item.append(element("desc", payload))
            root.append(item)
        return root

    # -- queries -----------------------------------------------------------------
    def _generate_queries(
        self,
        rng: Random,
        spec: ScenarioSpec,
        documents: List[GeneratedDocument],
        peer_ids: Sequence[str],
    ) -> List[GeneratedQuery]:
        queries: List[GeneratedQuery] = []
        shapes = list(spec.query_shapes)
        for k in range(spec.queries):
            shape = shapes[k % len(shapes)]
            doc = rng.choice(documents)
            if shape == "join" and len(documents) < 2:
                shape = "filter"
            at = rng.choice(list(peer_ids))
            threshold = rng.randint(0, spec.value_range)
            bind: List[Tuple[str, str]] = [("d", self._target(rng, doc))]
            if shape == "project":
                source = f"for $x in $d//{doc.item_tag} return $x/{doc.name_tag}"
            elif shape == "filter":
                source = (
                    f"for $x in $d//{doc.item_tag} "
                    f"where $x/{doc.num_tag} > {threshold} return $x/{doc.name_tag}"
                )
            elif shape == "construct":
                source = (
                    f"for $x in $d//{doc.item_tag} "
                    f"where $x/{doc.num_tag} >= {threshold} "
                    f"return <hit>{{$x/{doc.name_tag}/text()}}</hit>"
                )
            elif shape == "let_filter":
                source = (
                    f"for $x in $d//{doc.item_tag} let $n := $x/{doc.name_tag} "
                    f"where $x/{doc.num_tag} > {threshold} return $n"
                )
            elif shape == "count":
                source = f"count($d//{doc.item_tag})"
            elif shape == "join":
                other = rng.choice([d for d in documents if d.name != doc.name])
                bind.append(("e", self._target(rng, other)))
                source = (
                    f"for $a in $d//{doc.item_tag}, $b in $e//{other.item_tag} "
                    f"where $a/{doc.num_tag} = $b/{other.num_tag} "
                    f"return $a/{doc.name_tag}"
                )
            else:  # pragma: no cover - spec.validate() rejects these
                raise WorkloadError(f"unknown query shape {shape!r}")
            queries.append(
                GeneratedQuery(
                    name=f"q{k}",
                    shape=shape,
                    source=source,
                    at=at,
                    bind=tuple(bind),
                )
            )
        return queries

    # -- writes ------------------------------------------------------------------
    def _generate_writes(
        self,
        rng: Random,
        spec: ScenarioSpec,
        system: AXMLSystem,
        documents: List[GeneratedDocument],
    ) -> List[GeneratedWrite]:
        """Seeded write sequence over the passive documents.

        Only drawn from the rng when ``spec.writes > 0``, so existing
        seeds reproduce byte-identically.  Ordinals are drawn against the
        running item count (earlier writes in the sequence shift later
        ones), and deletes never shrink a document below its fragment
        count — the rebuild-from-scratch baseline re-fragments with the
        original layout, which needs at least one item per target peer.
        Update values range up to twice ``value_range`` so refreshed
        ``(min, max)`` stats genuinely move (exercising prune soundness).
        """
        if spec.writes == 0:
            return []
        candidates = [doc for doc in documents if not doc.active]
        if not candidates:
            return []
        counts = {
            doc.name: len(system.peer(doc.peer).documents[doc.name].children)
            for doc in candidates
        }
        floors = {
            doc.name: (
                len(system.fragments.fragments(doc.name))
                if system.fragments.is_fragmented(doc.name)
                else 1
            )
            for doc in candidates
        }
        vocab = {doc.name: doc for doc in candidates}
        writes: List[GeneratedWrite] = []
        for k in range(spec.writes):
            doc = vocab[rng.choice(sorted(counts))]
            count = counts[doc.name]
            roll = rng.random()
            if roll < 0.4:
                kind = "insert"
            elif roll < 0.8:
                kind = "update"
            else:
                kind = "delete"
            if kind == "delete" and count - 1 < floors[doc.name]:
                kind = "update"
            if kind == "insert":
                ordinal = rng.randint(0, count)
                value = rng.randint(0, spec.value_range * 2)
                item = element(
                    doc.item_tag,
                    element(doc.name_tag, f"{doc.item_tag}-w{k}"),
                    element(doc.num_tag, str(value)),
                )
                writes.append(
                    GeneratedWrite(
                        name=f"w{k}",
                        doc=doc.name,
                        kind=kind,
                        ordinal=ordinal,
                        item_xml=serialize(item),
                    )
                )
                counts[doc.name] += 1
            elif kind == "update":
                ordinal = rng.randint(0, count - 1)
                value = rng.randint(0, spec.value_range * 2)
                writes.append(
                    GeneratedWrite(
                        name=f"w{k}",
                        doc=doc.name,
                        kind=kind,
                        ordinal=ordinal,
                        tag=doc.num_tag,
                        value=str(value),
                    )
                )
            else:
                ordinal = rng.randint(0, count - 1)
                writes.append(
                    GeneratedWrite(
                        name=f"w{k}", doc=doc.name, kind=kind, ordinal=ordinal
                    )
                )
                counts[doc.name] -= 1
        return writes

    def _target(self, rng: Random, doc: GeneratedDocument) -> str:
        """Concrete ``name@peer`` binding, or generic/fragmented views."""
        if doc.fragmented:
            return f"{doc.name}@dist"
        if doc.generic and rng.random() < 0.5:
            return f"{doc.generic}@any"
        return f"{doc.name}@{doc.peer}"


#: The ``fragmented`` scenario family: a wider peer set, two sharded
#: documents with one replica per fragment, and a query mix whose
#: fragmented bindings (``name@dist``) exercise scatter-gather on every
#: scenario.  The differential harness's ``fragmented`` sweep
#: (:meth:`~repro.workloads.harness.DifferentialHarness.sweep`)
#: asserts the answers stay byte-identical to the whole-document
#: baseline under every strategy.
FRAGMENTED_SPEC = ScenarioSpec(
    peers=5,
    documents=3,
    axml_documents=1,
    items=14,
    services=1,
    replicas=0,
    queries=6,
    fragments=2,
    fragment_replicas=1,
)

#: The read/write-mix scenario family: fragmented + replicated documents
#: plus a generic-replicated one, with a seeded write sequence woven
#: through.  The harness's ``write`` sweep
#: asserts that applying the writes incrementally
#: (:meth:`Session.write <repro.session.Session.write>`) then querying is
#: byte-identical, under every strategy, to rebuilding each written
#: document from scratch and re-distributing it.
WRITE_MIX_SPEC = ScenarioSpec(
    peers=5,
    documents=3,
    axml_documents=1,
    items=14,
    services=1,
    replicas=1,
    queries=6,
    fragments=1,
    fragment_replicas=1,
    writes=6,
)

#: The chaos scenario family: fragmented + replicated + service-call
#: documents with a correlated slow peer —
#: everything the fault-injection layer can break, with enough copies
#: that recovery has somewhere to fail over to.  Query shapes are
#: restricted to the *monotone* subset (no ``count``): dropping a
#: fragment from a monotone query provably yields a subset of the
#: fault-free answer, which is the partial-answer invariant the
#: harness's ``fault`` sweep asserts.  (A count over a partial document would be a silently wrong
#: number, not a subset — exactly what graceful degradation must never
#: produce.)
CHAOS_SPEC = ScenarioSpec(
    peers=5,
    documents=3,
    axml_documents=1,
    items=12,
    services=1,
    replicas=1,
    queries=6,
    query_shapes=("project", "filter", "construct", "let_filter", "join"),
    fragments=1,
    fragment_replicas=1,
    slow_peers=1,
)
