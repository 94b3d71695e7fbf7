"""Exception hierarchy for the repro library.

Every subsystem raises errors derived from :class:`ReproError`, so callers
can catch one base class at API boundaries.  Parsing layers raise the more
specific ``*SyntaxError`` subclasses carrying a position; execution layers
raise ``*EvaluationError`` subclasses carrying the offending construct.
"""

from __future__ import annotations


class ReproError(Exception):
    """Base class for all errors raised by the repro library."""


class XMLError(ReproError):
    """Base class for XML data-model and parsing errors."""


class XMLSyntaxError(XMLError):
    """Raised when XML text cannot be parsed.

    Attributes
    ----------
    line, column:
        1-based position of the first offending character.
    """

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class DocumentTooDeepError(XMLError):
    """Raised when XML nests deeper than ``limit``; parsing stopped at ``depth``."""

    def __init__(self, depth: int, limit: int) -> None:
        self.depth, self.limit = depth, limit
        super().__init__(f"element nesting depth {depth} exceeds the limit {limit}")


class SchemaError(XMLError):
    """Raised for malformed schema definitions."""


class ValidationError(XMLError):
    """Raised when a tree does not conform to a schema type."""


class FrozenTreeError(XMLError):
    """Raised when a mutator is called on a tree that two states Σ share.

    :meth:`AXMLSystem.clone <repro.peers.system.AXMLSystem.clone>` shares
    document trees by reference and freezes them; an in-place edit would
    show through to the other holder.  Nothing has been changed when this
    is raised.  Edit a stored document through
    :meth:`Peer.own_document <repro.peers.peer.Peer.own_document>` (or
    any public write path), or take a private ``tree.copy()`` first.
    """


class XQueryError(ReproError):
    """Base class for XQuery subsystem errors."""


class XQuerySyntaxError(XQueryError):
    """Raised when an XQuery expression cannot be tokenized or parsed."""

    def __init__(self, message: str, line: int = 0, column: int = 0) -> None:
        self.line = line
        self.column = column
        if line:
            message = f"{message} (line {line}, column {column})"
        super().__init__(message)


class XQueryTypeError(XQueryError):
    """Raised for static or dynamic type errors (e.g. bad atomization)."""


class XQueryEvaluationError(XQueryError):
    """Raised when evaluation fails (unknown variable, function, etc.)."""


class DecompositionError(XQueryError):
    """Raised when a query cannot be split as requested (rule 11)."""


class NetworkError(ReproError):
    """Base class for simulated-network errors."""


class NoRouteError(NetworkError):
    """Raised when two peers have no connecting path in the topology."""


class PeerError(ReproError):
    """Base class for peer / system-state errors."""


class UnknownPeerError(PeerError):
    """Raised when a peer identifier is not part of the system."""


class UnknownDocumentError(PeerError):
    """Raised when a document name is not present on the addressed peer."""


class UnknownServiceError(PeerError):
    """Raised when a service name is not provided by the addressed peer."""


class DuplicateNameError(PeerError):
    """Raised when installing a document/service under a name already used.

    The paper requires that no two documents agree on ``(d, p)``; this error
    enforces that constraint (and its analogue for services).
    """


class GenericResolutionError(PeerError):
    """Raised when a generic name (``d@any``) has no member to pick."""


class PeerDownError(PeerError):
    """Raised when an operation needs a peer that has left the system.

    Peers die under churn (:class:`repro.faults.ChurnController`): a dead
    peer keeps its identity (so in-flight accounting can settle) but can
    no longer host evaluations, serve documents, or answer service calls.
    """


class AXMLError(ReproError):
    """Base class for AXML-layer errors (sc nodes, activation)."""


class ServiceCallError(AXMLError):
    """Raised for malformed ``sc`` nodes or activation failures."""


class AlgebraError(ReproError):
    """Base class for expression-algebra errors."""


class ExpressionError(AlgebraError):
    """Raised for malformed expressions of the language E."""


class ActivationCycleError(ExpressionError):
    """Raised when evaluation nests past the activation depth bound.

    The typical cause is a service whose response embeds a call to
    itself (directly or through other services): activating it fires it
    again, without end.
    """


class EvaluationUndefinedError(AlgebraError):
    """Raised when ``eval@p(e)`` is undefined per the paper.

    Example: ``send_{p2->p1}(t@p0)`` is undefined when ``p2 != p0`` because a
    peer cannot send data it does not host (Section 3.2).
    """


class OptimizerError(AlgebraError):
    """Raised when plan search fails (no plan, budget exhausted, etc.)."""


class SessionError(ReproError):
    """Raised for misuse of the high-level :class:`repro.session.Session`.

    Examples: a binding string without a ``name@peer`` shape, a served
    request that is not a :class:`~repro.engine.jobs.JobRequest`, or
    ``connect()`` without a system.
    """


class WorkloadError(ReproError):
    """Base class for the workload generator / differential harness.

    Raised for malformed :class:`repro.workloads.ScenarioSpec` values
    (e.g. more clusters than peers, an unknown topology name) and other
    generator misuse.
    """


class FragmentationError(ReproError):
    """Raised by the :mod:`repro.dist` fragmentation layer.

    Examples: fragmenting a document across zero peers, a root whose
    children are not all elements (no well-defined horizontal split), or
    registering two catalogs entries for the same logical document.
    """


class FragmentUnavailableError(FragmentationError):
    """A fragment has no live copy left, so the query cannot be answered.

    Raised instead of returning a partial (wrong) answer when every peer
    holding a copy of a fragment has left the system.  Carries the
    fragment id and its last-known hosting peers so callers (and serving
    reports) can say exactly which slice of which document is gone.
    """

    def __init__(self, fragment: str, peers: tuple = ()) -> None:
        self.fragment = fragment
        self.peers = tuple(peers)
        known = ", ".join(self.peers) if self.peers else "no known peers"
        super().__init__(
            f"fragment {fragment!r} has no live copy (last known on: {known})"
        )


class FaultError(ReproError):
    """Base class for injected-fault and recovery errors (:mod:`repro.faults`).

    Every failure the fault-injection layer can produce — lost or
    corrupted transfers, failed or hung service calls, exhausted retry
    budgets, blown deadlines — surfaces as a subclass of this, so the
    serving engine (and callers) can distinguish "the environment broke"
    from "the query was wrong".  Instances carry ``at``, the virtual
    instant the failure was detected, so retries and deadlines are
    charged on the same clock everything else runs on.
    """

    def __init__(self, message: str, at: float = 0.0) -> None:
        self.at = at
        super().__init__(message)


class TransferFaultError(FaultError):
    """Base class for per-transfer faults raised inside the network."""


class MessageLostError(TransferFaultError):
    """A message was dropped in transit by an injected link-drop window.

    ``at`` is the virtual instant the loss is detected by the sender
    (the would-be hop completion) — the earliest a retry can start.
    """


class TransferCorruptionError(TransferFaultError):
    """A transfer arrived corrupted (content fingerprint mismatch).

    The bytes crossed the wire — link occupancy was charged — but the
    receiver's fingerprint check rejects the payload, so the transfer
    must be retried like a loss detected at arrival time.
    """


class TransferTimeoutError(FaultError):
    """A transfer (or call) kept failing until the retry budget ran out.

    The typed terminal outcome of :class:`repro.faults.RetryPolicy`
    exhaustion; ``__cause__`` carries the last underlying fault.
    """


class ServiceCallFaultError(FaultError):
    """An injected service-call failure or a cancelled hung call.

    Distinct from :class:`ServiceCallError` (malformed ``sc`` nodes /
    activation bugs): this is the *environment* failing a well-formed
    call — the provider errored out or did not answer within the
    per-kind timeout budget.
    """


class DeadlineExceededError(FaultError):
    """A job's deadline passed before its answer (or retries) settled.

    Raised by the engine when a :class:`~repro.engine.jobs.QueryJob`
    carries a ``deadline`` and the evaluation (including backoff charged
    on the virtual clock) runs past it; with ``partial=True`` the job
    degrades to a :class:`repro.faults.PartialAnswer` instead.
    """


class WriteError(ReproError):
    """Raised for invalid write operations (:mod:`repro.writes`).

    Examples: an ordinal outside the document's item range, an update
    addressing a non-element child, or an operation of an unknown kind.
    Routing failures keep their own types: a write whose every target
    copy is dead raises :class:`FragmentUnavailableError` (fragmented) or
    :class:`PeerDownError` (whole documents), never a bare ``KeyError``.
    """


class DifferentialMismatchError(WorkloadError):
    """Two optimizer strategies disagreed on a generated query's answer.

    Carries the :class:`repro.workloads.Mismatch` record (including the
    path of the written repro script) as ``mismatch`` when available.
    """

    def __init__(self, message: str, mismatch=None) -> None:
        super().__init__(message)
        self.mismatch = mismatch
