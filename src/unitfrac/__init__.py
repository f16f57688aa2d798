"""Workbench for counting representations of m/n as sums of unit fractions.

Exact enumeration of k-term representations, the pattern / relative-gcd
decomposition of 4-term solutions, a generated catalog of closure rules
and inequality templates over the decomposition parameters, fixpoint
closure and minimal defining sets, a Pareto search for multiplicative
bounds with replayable witnesses, soundness sweeps, asymptotic regime
analysis, and a certified enclosure of the Sylvester-sequence constant.

Each exported name is imported from its submodule on first use (PEP 562),
so a caller pays only for the modules it touches.
"""

from __future__ import annotations

from importlib import import_module

# `closure` is both an exported function and a submodule.  Only the first
# import of the submodule binds the package attribute to the module, so
# binding the function right after it wins in every import order
# (boundsearch imports the submodule too).
from .closure import closure

__version__ = "0.1.0"

_EXPORTS = {
    "asymptotics": """FORMULAS BoundFormula BoundReport FkBound LiftRow Regime
        SylvesterState bound_report breakpoint_alphas breakpoints fk_bound
        fk_exponent lift_report regime regime_table sylvester""",
    "boundsearch": """DerivedBound MonomialInequality Partition SearchResult
        combine default_library max_feasible_g partition pattern_reductions
        replay_witness search witness_to_json""",
    "catalog": """FAMILY_NAMES ClosureRule InequalityTemplate Term
        build_inequalities build_rules export_rules family_counts
        inequality_index""",
    "closure": """CORE_DEFINING_SETS closure closure_report is_defining
        minimal_defining_sets sort_sets""",
    "decomposition": """Decomposition VerificationReport decompose pattern_of
        reconstruct relative_gcds verify""",
    "enumeration": """MAX_TERMS EnumerationResult SolutionTuple
        count_representations enumerate_representations""",
    "errors": """InputError IntegralityError InvariantError
        UnclearedDenominatorError UnitfracError""",
    "params": "CONVENTIONS PARAM_ORDER X_PARAMS Z_PARAMS",
    "sweep": "SweepFailure SweepReport sweep_soundness",
}
_SOURCE = {name: module for module, names in _EXPORTS.items()
           for name in names.split()}

__all__ = sorted(_SOURCE)


def __getattr__(name: str):
    module = _SOURCE.get(name)
    if module is None:
        raise AttributeError("module %r has no attribute %r" % (__name__, name))
    value = getattr(import_module("." + module, __name__), name)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
