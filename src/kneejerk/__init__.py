"""Monotone multiplicative ascent for log-log-convex objectives on products
of weighted simplices, with certified per-step improvement bounds, curvature
probes, and spanning-tree discriminants as a ready-made objective family."""

from .expr import (
    Const,
    KneeJerkExpr,
    LogEval,
    MatrixPolynomial,
    Pow,
    Prod,
    Sum,
    Var,
    construct_expression,
    eval_log,
    expression_to_json_dict,
    hessian_log_u,
    polynomial_to_expression,
)
from .simplex import (
    BlockPoint,
    BlockStructure,
    barycenter,
    i_divergence,
    i_divergence_blocks,
    normalize,
    random_interior,
)
from .mapping import (
    IterationConfig,
    StepResult,
    Trace,
    TraceRecord,
    criticality_residual,
    iterate,
    knee_jerk_step,
)
from .diagnostics import (
    ArgmaxReport,
    ConvexityReport,
    InequalityReport,
    check_log_concavity,
    check_log_log_convexity,
    tangent_lower_bound,
    verify_argmax_property,
    verify_step_inequality,
)
from .discriminant import (
    Graph,
    discriminant_polynomial,
    enumerate_spanning_trees,
    eval_matrix_tree,
    eval_matrix_tree_log,
)
from .cli import (
    OracleResult,
    Problem,
    main,
    parse_problem,
    run_optimize,
    run_oracle,
    run_verify,
    serialize_problem,
)

__version__ = "0.1.0"

__all__ = [
    "KneeJerkExpr", "Var", "Const", "Sum", "Prod", "Pow", "MatrixPolynomial", "LogEval",
    "construct_expression", "expression_to_json_dict",
    "polynomial_to_expression", "eval_log", "hessian_log_u",
    "BlockStructure", "BlockPoint", "barycenter", "normalize",
    "i_divergence", "i_divergence_blocks", "random_interior",
    "StepResult", "IterationConfig", "TraceRecord", "Trace",
    "knee_jerk_step", "criticality_residual", "iterate",
    "InequalityReport", "ArgmaxReport", "ConvexityReport",
    "tangent_lower_bound", "verify_step_inequality", "verify_argmax_property",
    "check_log_log_convexity", "check_log_concavity",
    "Graph", "enumerate_spanning_trees", "discriminant_polynomial",
    "eval_matrix_tree", "eval_matrix_tree_log",
    "Problem", "OracleResult", "parse_problem", "serialize_problem",
    "run_optimize", "run_verify", "run_oracle", "main",
    "__version__",
]
