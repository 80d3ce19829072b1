"""Exact enumeration of words over [k] by refined descent/rise/level statistics.

Adjacent pairs of a word are descents, rises, or levels; each pair is
attributed to the block of an alphabet partition containing the pair's
first letter.  The package computes the resulting joint distributions four
independent ways (exhaustive enumeration, transfer dynamic program,
truncated generating-function expansion, closed-form alternating sums) and
ships the verification suites that pin them against each other.

Importing the package loads none of its modules.  A public name, or a
submodule such as ``wordstats.series``, is imported on first access
(``__getattr__``, PEP 562), from ``_EXPORTS``, through ``_submodule``,
which ``cli`` loads its lazy names with too, so that ``python -X
importtime`` lists every module loaded this way.  So a closed-form
``wordstats count`` or ``table`` loads ``words``, ``combinat``,
``formulas`` and ``cli`` only, a usage error or ``-h`` adds ``usage``,
and a ``series`` command adds ``series`` and ``polynomials``.  ``oracle`` loads on ``--engine oracle``,
``--engine transfer`` and a ``verify`` command, which also loads
``verify`` and ``identities``; any module loads when a caller first asks
for it.  Where no bytecode cache is written, a cold process compiles
every module it loads, so loading fewer shortens its start.
"""

import sys

# Each public name, by the submodule that defines it.
_EXPORTS = {
    "BlockPartition": "words",
    "DistPolynomial": "words",
    "BudgetExceededError": "words",
    "InputError": "words",
    "stat_key": "words",
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
    {"cli", "combinat", "formulas", "identities", "oracle", "polynomials", "series", "usage", "verify", "words"}
)

__all__ = sorted(_EXPORTS)

__version__ = "0.1.0"


def _submodule(name: str):
    """The submodule ``name``, imported on first use.

    Unlike ``importlib.import_module``, ``__import__`` shows in ``python -X importtime``.
    """
    path = f"{__name__}.{name}"
    __import__(path)
    return sys.modules[path]


def __getattr__(name: str):
    """A public name or a submodule, imported on first access and then bound here."""
    if name in _EXPORTS:
        value = getattr(_submodule(_EXPORTS[name]), name)
    elif name in _SUBMODULES:
        value = _submodule(name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted(set(globals()) | set(__all__))
