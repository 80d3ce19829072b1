"""Exact enumeration of words over [k] by refined descent/rise/level statistics.

Adjacent pairs of a word are descents, rises, or levels; each pair is
attributed to the block of an alphabet partition containing the pair's
first letter.  The package computes the resulting joint distributions four
independent ways (exhaustive enumeration, transfer dynamic program,
truncated generating-function expansion, closed-form alternating sums) and
ships the verification suites that pin them against each other.

Importing the package loads none of its modules.  A public name, or a
submodule such as ``wordstats.series``, is imported on first access
(``__getattr__``, PEP 562), from ``_EXPORTS``.  So a ``wordstats count`` or
``table`` process loads ``words``, ``combinat``, ``oracle``, ``formulas``
and ``cli`` only: ``series``, ``polynomials``, ``identities`` and
``verify`` load when a ``series`` or ``verify`` command, or a caller,
first asks for them.
"""

from importlib import import_module

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "BlockPartition": "words",
    "DistPolynomial": "words",
    "InputError": "words",
    "stat_key": "words",
    "BudgetExceededError": "oracle",
    "brute_distribution": "oracle",
    "rearrangement_distribution": "oracle",
    "statistic_distribution": "oracle",
    "transfer_distribution": "oracle",
    "Polynomial": "polynomials",
    "PowerSeries": "series",
    "TrackingSpec": "series",
    "build_ak_series": "series",
    "build_bk_series": "series",
    "coefficient_distribution": "series",
    "solve_block_system": "series",
    "count_des_gt": "formulas",
    "count_des_le": "formulas",
    "count_des_mod": "formulas",
    "count_des_mod_uncorrected": "formulas",
    "count_levels_blocks": "formulas",
    "count_levels_threshold": "formulas",
    "distribution": "formulas",
    "evaluate": "formulas",
    "hall_remmel_count": "formulas",
    "IdentityReport": "identities",
    "direct_count_top_letter": "identities",
    "direct_count_two_bottom": "identities",
}

_SUBMODULES = frozenset(
    {"cli", "combinat", "formulas", "identities", "oracle", "polynomials", "series", "verify", "words"}
)

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def __getattr__(name: str):
    """A public name or a submodule, imported on first access and then bound here."""
    if name in _EXPORTS:
        value = getattr(import_module(f".{_EXPORTS[name]}", __name__), name)
    elif name in _SUBMODULES:
        value = import_module(f".{name}", __name__)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
