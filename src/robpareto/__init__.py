"""Robust multiobjective optimization over finite scenario sets.

Certify robust and convex-hull Pareto efficiency of candidate solutions,
evaluate and minimize worst-case scalarized objectives, reduce
distributionally robust problems to plain robust ones, and generate the
1-d dose phantom used for the qualitative p-norm study.
"""

from .core import (
    AffineFamilyObjectives,
    ExplicitCandidates,
    Instance,
    LinearScenarioObjectives,
    ObjectiveImage,
    ScenarioSet,
    SimplexCandidates,
    TableObjectives,
    builtin_instance,
    candidate_label,
    evaluate,
    image,
    instance_from_dict,
    instance_json,
    instance_to_dict,
    load_instance,
    objective_scale,
    save_instance,
    simplex_point,
    with_step,
)
from .distro import (
    AmbiguitySet,
    EmptyFeasibleSetError,
    ExpectationConstraint,
    che_equals_robust_check,
    to_robust,
)
from .efficiency import (
    CandidateResult,
    Dominator,
    EfficiencyReport,
    classify,
    pareto_filter_max,
    set_valued_minimizers,
)
from .geometry import (
    DominanceWitness,
    dominated_by_hull,
    dominated_by_point_set,
    image_dominates,
    is_hyperrectangle,
    signed_distance,
)
from .linprog import LpProblem, LpResult, SolverStalledError, lp_solve
from .phantom import PhantomConfig
from .phantom import generate as generate_phantom
from .scalarize import (
    Chebyshev,
    Scalarizer,
    SignedDistanceScalarizer,
    WeightedPNorm,
    WeightedSum,
    catalog,
    constructive_scalarizer,
    dual_reformulate,
    epigraph_form,
    worst_case,
)
from .solve import SolveResult, StudyEntry, minimize_scalarized, p_norm_study, sweep_front

__version__ = "0.1.0"

__all__ = [
    "AffineFamilyObjectives",
    "AmbiguitySet",
    "CandidateResult",
    "Chebyshev",
    "DominanceWitness",
    "Dominator",
    "EfficiencyReport",
    "EmptyFeasibleSetError",
    "ExpectationConstraint",
    "ExplicitCandidates",
    "Instance",
    "LinearScenarioObjectives",
    "LpProblem",
    "LpResult",
    "ObjectiveImage",
    "PhantomConfig",
    "ScenarioSet",
    "Scalarizer",
    "SignedDistanceScalarizer",
    "SimplexCandidates",
    "SolveResult",
    "SolverStalledError",
    "StudyEntry",
    "TableObjectives",
    "WeightedPNorm",
    "WeightedSum",
    "builtin_instance",
    "candidate_label",
    "catalog",
    "che_equals_robust_check",
    "classify",
    "constructive_scalarizer",
    "dominated_by_hull",
    "dominated_by_point_set",
    "dual_reformulate",
    "epigraph_form",
    "evaluate",
    "generate_phantom",
    "image",
    "image_dominates",
    "instance_from_dict",
    "instance_json",
    "instance_to_dict",
    "is_hyperrectangle",
    "load_instance",
    "lp_solve",
    "minimize_scalarized",
    "objective_scale",
    "p_norm_study",
    "pareto_filter_max",
    "save_instance",
    "set_valued_minimizers",
    "signed_distance",
    "simplex_point",
    "sweep_front",
    "with_step",
    "worst_case",
]
