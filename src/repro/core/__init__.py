"""The paper's primary contribution: the algebra for AXML computations.

Contents: the expression language E (Section 3.1), the definitional
evaluator implementing eval definitions (1)–(9) (Section 3.2), the
equivalence rules (10)–(16) as rewrites plus a cost model and optimizer
(Section 3.3), and a machine-checked equivalence verifier.

Quick taste — Example 1 of the paper (pushing selections), end to end:

>>> from repro.core import (Plan, QueryApply, QueryRef, DocExpr,
...                         Optimizer, measure)
>>> from repro.peers import AXMLSystem
>>> from repro.xmlcore import parse
>>> from repro.xquery import Query
>>> system = AXMLSystem.with_peers(["client", "data"], bandwidth=20_000.0)
>>> _ = system.peer("data").install_document("cat", parse(
...     "<c>" + "".join(f"<i><p>{n}</p></i>" for n in range(50)) + "</c>"))
>>> q = Query("for $i in $d//i where $i/p > 47 return $i",
...           params=("d",), name="sel")
>>> plan = Plan(QueryApply(QueryRef(q, "client"), (DocExpr("cat", "data"),)),
...             "client")
>>> result = Optimizer(system).optimize_with("beam", plan, depth=2)
>>> result.best_cost.bytes < result.original_cost.bytes
True
"""

from .cost import Cost, CostEstimator, measure
from .costmodel import (
    AnalyticCostModel,
    CallableCostModel,
    CostModel,
    HybridCostModel,
    OracleCostModel,
    available_cost_models,
    make_cost_model,
    register_cost_model,
)
from .evaluator import EvalOutcome, ExpressionEvaluator
from .expressions import (
    ANY,
    DocDest,
    DocExpr,
    EvalAt,
    Expression,
    GenericDoc,
    GenericService,
    NodesDest,
    PeerDest,
    QueryApply,
    QueryRef,
    Send,
    Seq,
    ServiceCallExpr,
    TreeExpr,
    transform,
    walk,
)
from .optimizer import OptimizationResult, Optimizer
from .planspace import CacheStats, PlanCache, plan_fingerprint
from .strategies import (
    BeamSearchStrategy,
    ExhaustiveStrategy,
    GreedyStrategy,
    OptimizerStrategy,
    SearchSpace,
    available_strategies,
    make_strategy,
    register_strategy,
)
from .rules import (
    DEFAULT_RULES,
    DelegateExpression,
    Plan,
    PushQueryOverCall,
    PushSelection,
    QueryDelegation,
    RelocateCall,
    Reroute,
    Rewrite,
    RewriteRule,
    TransferReuse,
)
from .serialize import (
    expression_fingerprint,
    expression_size,
    from_xml,
    to_xml,
)
from .verify import VerificationResult, check_equivalence, observable_state

__all__ = [
    # expressions
    "Expression", "TreeExpr", "DocExpr", "GenericDoc", "QueryRef",
    "GenericService", "QueryApply", "ServiceCallExpr", "Send", "EvalAt",
    "Seq", "PeerDest", "NodesDest", "DocDest", "ANY", "walk", "transform",
    # evaluation
    "ExpressionEvaluator", "EvalOutcome",
    # rules / plans
    "Plan", "Rewrite", "RewriteRule", "DEFAULT_RULES",
    "QueryDelegation", "PushSelection", "Reroute", "TransferReuse",
    "DelegateExpression", "RelocateCall", "PushQueryOverCall",
    # cost / optimizer
    "Cost", "CostEstimator", "measure",
    "Optimizer", "OptimizationResult",
    # cost models
    "CostModel", "OracleCostModel", "AnalyticCostModel", "HybridCostModel",
    "CallableCostModel", "register_cost_model", "available_cost_models",
    "make_cost_model",
    # plan keys and the planner stores
    "PlanCache", "CacheStats", "plan_fingerprint",
    # strategies
    "OptimizerStrategy", "SearchSpace", "BeamSearchStrategy",
    "GreedyStrategy", "ExhaustiveStrategy", "register_strategy",
    "available_strategies", "make_strategy",
    # serialization
    "to_xml", "from_xml", "expression_size", "expression_fingerprint",
    # verification
    "check_equivalence", "VerificationResult", "observable_state",
]
