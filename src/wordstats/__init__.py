"""Exact enumeration of words over [k] by refined descent/rise/level statistics.

Adjacent pairs of a word are descents, rises, or levels; each pair is
attributed to the block of an alphabet partition containing the pair's
first letter.  The package computes the resulting joint distributions four
independent ways (exhaustive enumeration, transfer dynamic program,
truncated generating-function expansion, closed-form alternating sums) and
ships the verification suites that pin them against each other.
"""

from .words import BlockPartition, InputError, stat_key
from .oracle import (
    BudgetExceededError,
    ConstraintSpec,
    DistPolynomial,
    brute_distribution,
    count_matching,
    rearrangement_distribution,
    statistic_distribution,
    transfer_distribution,
)
from .polynomials import Polynomial
from .series import (
    PowerSeries,
    TrackingSpec,
    build_ak_series,
    build_bk_series,
    coefficient_distribution,
    solve_block_system,
)
from .formulas import (
    CLOSED_FORMS,
    count_des_gt,
    count_des_le,
    count_des_mod,
    count_des_mod_uncorrected,
    count_levels_blocks,
    count_levels_threshold,
    distribution,
    evaluate,
    hall_remmel_count,
)
from .identities import (
    IdentityReport,
    check_top_letter_identity,
    check_two_bottom_identity,
    direct_count_top_letter,
    direct_count_two_bottom,
)

__all__ = [
    "BlockPartition",
    "BudgetExceededError",
    "CLOSED_FORMS",
    "ConstraintSpec",
    "DistPolynomial",
    "IdentityReport",
    "InputError",
    "Polynomial",
    "PowerSeries",
    "TrackingSpec",
    "brute_distribution",
    "build_ak_series",
    "build_bk_series",
    "check_top_letter_identity",
    "check_two_bottom_identity",
    "coefficient_distribution",
    "count_des_gt",
    "count_des_le",
    "count_des_mod",
    "count_des_mod_uncorrected",
    "count_levels_blocks",
    "count_levels_threshold",
    "count_matching",
    "direct_count_top_letter",
    "direct_count_two_bottom",
    "distribution",
    "evaluate",
    "hall_remmel_count",
    "rearrangement_distribution",
    "solve_block_system",
    "stat_key",
    "statistic_distribution",
    "transfer_distribution",
]

__version__ = "0.1.0"
