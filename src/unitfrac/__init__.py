"""Workbench for counting representations of m/n as sums of unit fractions.

Exact enumeration of k-term representations, the pattern / relative-gcd
decomposition of 4-term solutions, a generated catalog of closure rules
and inequality templates over the decomposition parameters, fixpoint
closure and minimal defining sets, a Pareto search for multiplicative
bounds with replayable witnesses, soundness sweeps, asymptotic regime
analysis, and a certified enclosure of the Sylvester-sequence constant.
"""

from __future__ import annotations

from .asymptotics import (
    FORMULAS,
    BoundFormula,
    BoundReport,
    FkBound,
    LiftRow,
    Regime,
    SylvesterState,
    bound_report,
    breakpoint_alphas,
    breakpoints,
    fk_bound,
    fk_exponent,
    lift_report,
    regime,
    regime_table,
    sylvester,
)
from .boundsearch import (
    DerivedBound,
    MonomialInequality,
    Partition,
    SearchResult,
    combine,
    default_library,
    max_feasible_g,
    partition,
    pattern_reductions,
    replay_witness,
    search,
    simplify_pattern,
    witness_to_json,
)
from .catalog import (
    FAMILY_NAMES,
    ClosureRule,
    InequalityTemplate,
    Term,
    build_inequalities,
    build_rules,
    export_rules,
    family_counts,
    inequality_index,
    rule_index,
)
from .closure import (
    CORE_DEFINING_SETS,
    closure,
    closure_report,
    is_defining,
    minimal_defining_sets,
    sort_sets,
)
from .decomposition import (
    Decomposition,
    VerificationReport,
    decompose,
    pattern_of,
    reconstruct,
    relative_gcds,
    verify,
)
from .enumeration import (
    MAX_TERMS,
    EnumerationResult,
    SolutionTuple,
    count_representations,
    enumerate_naive,
    enumerate_representations,
)
from .errors import (
    InputError,
    IntegralityError,
    InvariantError,
    UnclearedDenominatorError,
    UnitfracError,
)
from .params import CONVENTIONS, PARAM_ORDER, X_PARAMS, Z_PARAMS
from .sweep import SweepFailure, SweepReport, sweep_soundness

__version__ = "0.1.0"

__all__ = [
    "BoundFormula",
    "BoundReport",
    "CONVENTIONS",
    "CORE_DEFINING_SETS",
    "ClosureRule",
    "Decomposition",
    "DerivedBound",
    "EnumerationResult",
    "FAMILY_NAMES",
    "FORMULAS",
    "FkBound",
    "InequalityTemplate",
    "InputError",
    "IntegralityError",
    "InvariantError",
    "LiftRow",
    "MAX_TERMS",
    "MonomialInequality",
    "PARAM_ORDER",
    "Partition",
    "Regime",
    "SearchResult",
    "SolutionTuple",
    "SweepFailure",
    "SweepReport",
    "SylvesterState",
    "Term",
    "UnclearedDenominatorError",
    "UnitfracError",
    "VerificationReport",
    "X_PARAMS",
    "Z_PARAMS",
    "bound_report",
    "breakpoint_alphas",
    "breakpoints",
    "build_inequalities",
    "build_rules",
    "closure",
    "closure_report",
    "combine",
    "count_representations",
    "decompose",
    "default_library",
    "enumerate_naive",
    "enumerate_representations",
    "export_rules",
    "family_counts",
    "fk_bound",
    "fk_exponent",
    "inequality_index",
    "is_defining",
    "lift_report",
    "max_feasible_g",
    "minimal_defining_sets",
    "partition",
    "pattern_of",
    "pattern_reductions",
    "reconstruct",
    "regime",
    "regime_table",
    "relative_gcds",
    "replay_witness",
    "rule_index",
    "search",
    "simplify_pattern",
    "sort_sets",
    "sweep_soundness",
    "sylvester",
    "verify",
    "witness_to_json",
]
