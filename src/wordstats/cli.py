"""Command-line surface: counts, tables, series coefficients, verification.

Output is one JSON record per invocation (CSV is available for tables).
Counts are serialized as decimal strings so arbitrary precision survives
any consumer.  Exit codes are part of the contract:

    0  success / all verifications passed
    1  a verification suite found a mismatch
    2  invalid usage or parameters
    3  enumeration budget exceeded

``FAMILIES`` is the one place a statistic family of ``count`` and
``table`` is defined: its options, its closed-form parameters, its query
on the oracle and transfer engines, and the shape of its table.  Every
engine checks a query with the closed forms' own checks
(``formulas.check_params``) before it does any work.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys
from dataclasses import dataclass
from typing import Callable

from . import verify
from .formulas import check_params, distribution, evaluate
from .oracle import (
    BudgetExceededError,
    ConstraintSpec,
    coordinate_distribution,
    count_matching,
    rearrangement_distribution,
)
from .series import TrackingSpec, build_ak_series, build_bk_series
from .words import BlockPartition, InputError

SCHEMA_VERSION = "wordstats-output/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_int_list(raw: str) -> tuple[int, ...]:
    try:
        return tuple(int(piece) for piece in raw.split(",") if piece != "")
    except ValueError:
        raise InputError(f"expected a comma-separated integer list, got {raw!r}")


def _parse_partition(raw: str, k: int) -> BlockPartition:
    """Grammar: threshold:<t> | mod:<s> | blocks:<b1,...,bk>."""
    kind, _, arg = raw.partition(":")
    if kind in ("threshold", "mod"):
        try:
            value = int(arg)
        except ValueError:
            raise InputError(f"partition {kind}:<int> needs an integer, got {arg!r}")
        if kind == "threshold":
            return BlockPartition.threshold(k, value)
        return BlockPartition.mod_residue(k, value)
    if kind == "blocks":
        blocks = _parse_int_list(arg)
        if len(blocks) != k:
            raise InputError(f"blocks list covers {len(blocks)} letters, alphabet has {k}")
        return BlockPartition.from_blocks(blocks)
    raise InputError(f"unknown partition spec {raw!r}")


def _parse_letter_set(raw: str, m: int) -> frozenset:
    """Grammar: all | <l1,...>, each letter in 1..m."""
    if raw == "all":
        return frozenset(range(1, m + 1))
    letters = frozenset(_parse_int_list(raw))
    for letter in sorted(letters):
        if not 1 <= letter <= m:
            raise InputError(f"letter {letter} outside 1..{m}")
    return letters


def _record(command: str, parameters: dict, engine: str, result) -> dict:
    return {
        "schema": SCHEMA_VERSION,
        "command": command,
        "parameters": parameters,
        "engine": engine,
        "result": result,
    }


def _emit(record: dict) -> None:
    print(json.dumps(record, indent=2, sort_keys=False))


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@dataclass(frozen=True)
class Family:
    """How ``count`` and ``table`` read, check and answer one statistic family.

    ``options`` are the (flag, type, help) of the query options, in the
    order the ``parameters`` echo lists them; ``statistic`` is the option
    ``count`` adds.  ``params`` builds the closed-form parameters from the
    parsed arguments, and ``dp_query`` turns them into (alphabet size,
    partition, coordinates) for the oracle and transfer engines; a family
    without one is answered by the rearrangement oracle.  A ``joint``
    table is keyed by target tuples, one per block; any other table has a
    row for each statistic value up to ``ceiling(params)``.
    """

    options: tuple[tuple[str, type | None, str | None], ...]
    statistic: tuple[str, type | None, str | None]
    params: Callable[[argparse.Namespace], tuple]
    dp_query: Callable[..., tuple] | None
    joint: bool = False
    ceiling: Callable[[tuple], int] = lambda params: params[-1]


def _threshold_family(coordinate: tuple[int, str]) -> Family:
    """A family read off one coordinate of the threshold partition at t."""
    return Family(
        options=(("--k", int, None), ("--t", int, None), ("--n", int, None)),
        statistic=("--s", int, None),
        params=lambda args: (args.k, args.t, args.n),
        dp_query=lambda k, t, n: (k, BlockPartition.threshold(k, t), [coordinate]),
    )


def _levels_blocks_query(sizes: tuple[int, ...], n: int):
    blocks = [block for block, size in enumerate(sizes, start=1) for _ in range(size)]
    coords = [(block, "lev") for block in range(1, len(sizes) + 1)]
    return sum(sizes), BlockPartition.from_blocks(blocks, t=len(sizes)), coords


def _hall_remmel_params(args) -> tuple:
    rho = _parse_int_list(args.rho)
    return rho, _parse_letter_set(args.x, len(rho)), _parse_letter_set(args.y, len(rho))


FAMILIES = {
    "levels-threshold": _threshold_family((1, "lev")),
    "levels-blocks": Family(
        options=(("--block-sizes", None, None), ("--n", int, None)),
        statistic=("--targets", None, None),
        params=lambda args: (_parse_int_list(args.block_sizes), args.n),
        dp_query=_levels_blocks_query,
        joint=True,
    ),
    "des-le": _threshold_family((1, "des")),
    "des-gt": _threshold_family((2, "des")),
    "des-mod": Family(
        options=(
            ("--s", int, "modulus (number of residue classes)"),
            ("--alphabet", int, None),
            ("--r", int, "residue class of the first letter"),
            ("--n", int, None),
        ),
        statistic=("--p", int, "descent count"),
        params=lambda args: (args.s, args.alphabet, args.r, args.n),
        dp_query=lambda s, alphabet, r, n: (
            alphabet, BlockPartition.mod_residue(alphabet, s), [(r, "des")]
        ),
    ),
    "hall-remmel": Family(
        options=(
            ("--rho", None, "comma-separated multiplicities"),
            ("--x", None, "top letter set, comma list or 'all'"),
            ("--y", None, "bottom letter set, comma list or 'all'"),
        ),
        statistic=("--s", int, None),
        params=_hall_remmel_params,
        dp_query=None,
        ceiling=lambda params: sum(params[0]),
    ),
}


def _statistic_value(family: Family, args):
    """The statistic value ``count`` asks for, as the family's closed form takes it."""
    value = getattr(args, _dest(family.statistic[0]))
    if family.joint:
        return _parse_int_list(value)
    if value is None:
        raise InputError("count needs the statistic value (--s / --p)")
    if value < 0:
        raise InputError("statistic value must be nonnegative")
    return value


def _checked_params(family: Family, args, value: tuple = ()) -> tuple:
    """A query's closed-form parameters, checked by the closed forms on every engine."""
    params = family.params(args)
    if family.dp_query is None and args.engine == "transfer":
        raise InputError(f"{args.family} supports the closed-form and oracle engines")
    check_params(args.family, params + value)
    return params


def _parameters(family: Family, args) -> dict:
    """The ``parameters`` echo: every option's value, then the family."""
    options = family.options + ((family.statistic,) if args.command == "count" else ())
    echo = {_dest(flag): getattr(args, _dest(flag)) for flag, _, _ in options}
    echo["family"] = args.family
    return echo


def _count(family: Family, args, params: tuple, value) -> int:
    if args.engine == "closed-form":
        return evaluate(args.family, params + (value,))
    if family.dp_query is None:
        return rearrangement_distribution(*params).get(value, 0)
    k, partition, coords = family.dp_query(*params)
    values = value if family.joint else (value,)
    spec = ConstraintSpec.of(*[(block, stat, v) for (block, stat), v in zip(coords, values)])
    return count_matching(k, args.n, partition, spec, engine=args.engine)


def _table(family: Family, args, params: tuple) -> dict:
    """Every row of a table from one engine call."""
    if args.engine == "closed-form":
        return distribution(args.family, params)
    if family.dp_query is None:
        return rearrangement_distribution(*params)
    k, partition, coords = family.dp_query(*params)
    dist = coordinate_distribution(k, args.n, partition, coords, engine=args.engine)
    return dist if family.joint else {key[0]: count for key, count in dist.items()}


def _cmd_count(args) -> int:
    family = FAMILIES[args.family]
    value = _statistic_value(family, args)
    params = _checked_params(family, args, (value,))
    count = _count(family, args, params, value)
    _emit(_record("count", _parameters(family, args), args.engine, {"count": str(count)}))
    return EXIT_OK


def _cmd_table(args) -> int:
    family = FAMILIES[args.family]
    params = _checked_params(family, args)
    dist = _table(family, args, params)
    if family.joint:
        rows = [
            {"value": list(targets), "count": str(count)}
            for targets, count in sorted(dist.items())
            if count
        ]
        total = sum(dist.values())
    else:
        counts = [dist.get(value, 0) for value in range(family.ceiling(params) + 1)]
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        rows = [
            {"value": value, "count": str(count)} for value, count in enumerate(counts)
        ]
        total = sum(counts)
    record = _record(
        "table", _parameters(family, args), args.engine, {"rows": rows, "total": str(total)}
    )
    if args.format == "csv":
        _emit_csv(rows, total)
    else:
        _emit(record)
    return EXIT_OK


def _emit_csv(rows, total) -> None:
    print("value,count")
    for row in rows:
        value = row["value"]
        if isinstance(value, list):
            value = " ".join(str(v) for v in value)
        print(f"{value},{row['count']}")
    print(f"total,{total}")


def _cmd_series(args) -> int:
    k = args.k
    partition = _parse_partition(args.partition, k)
    if args.track == "all":
        tracked = {
            f"{kind}{i}" for kind in "xyz" for i in range(1, partition.t + 1)
        }
    elif args.track == "none":
        tracked = set()
    else:
        tracked = {piece for piece in args.track.split(",") if piece}
    spec = TrackingSpec.only(partition.t, tracked, per_block_q=args.q == "per-block")
    if args.gf == "A":
        series = build_ak_series(k, partition, spec, args.order)
    else:
        series = build_bk_series(k, partition, spec, args.order)
    record = _record(
        "series",
        {
            "gf": args.gf,
            "k": k,
            "partition": args.partition,
            "track": args.track,
            "q": args.q,
            "order": args.order,
        },
        "series",
        {
            "variable": series.var,
            "coefficient_variables": list(series.names),
            "coefficients": [
                {"order": i, "polynomial": str(series.coefficient(i))}
                for i in range(series.order + 1)
            ],
        },
    )
    _emit(record)
    return EXIT_OK


# Per verify suite: its function in ``verify`` and the keyword(s) each
# CLI bound sets; a bound that is not given keeps the function's default.
VERIFY_SUITES = {
    "oracle-vs-transfer": ("oracle_vs_transfer", {"k_max": ("k_max",), "n_max": ("n_max",)}),
    "series-vs-oracle": ("series_vs_oracle", {"k_max": ("k_max",), "n_max": ("n_max",)}),
    "formulas-vs-oracle": (
        "formulas_vs_oracle",
        {"k_max": ("alphabet_max",), "n_max": ("n_max",), "inject_fault": ("corrupt",)},
    ),
    "identities": ("identities_suite", {"n_max": ("top_n_max", "two_bottom_n_max")}),
    "hall-remmel": (
        "hall_remmel_suite",
        {"m_max": ("m_max",), "weight_max": ("weight_max",), "n_max": ("even_n_max",)},
    ),
}


def _cmd_verify(args) -> int:
    name, bounds = VERIFY_SUITES[args.suite]
    if args.inject_fault and "inject_fault" not in bounds:
        raise InputError("--inject-fault applies to the formulas-vs-oracle suite")
    kwargs = {
        keyword: getattr(args, flag)
        for flag, keywords in bounds.items()
        if getattr(args, flag) is not None
        for keyword in keywords
    }
    # Looked up at call time, so a wrapper patched onto ``verify`` runs.
    result = getattr(verify, name)(**kwargs)
    record = _record(
        "verify",
        {"suite": args.suite},
        "verify",
        {
            "checked": result.checked,
            "failures": result.failures,
            "first_failure": result.first_failure,
        },
    )
    _emit(record)
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


def _add_count_subparsers(sub, command: str):
    parser = sub.add_parser(command, help=f"{command} one statistic family")
    families = parser.add_subparsers(dest="family", required=True)
    for name, entry in FAMILIES.items():
        p = families.add_parser(name)
        for flag, kind, text in entry.options:
            p.add_argument(flag, type=kind, required=True, help=text)
        if command == "count":
            # Targets are a joint family's statistic, so it must give them.
            flag, kind, text = entry.statistic
            p.add_argument(flag, type=kind, required=entry.joint, help=text)
        p.add_argument(
            "--engine",
            choices=("closed-form", "oracle", "transfer"),
            default="closed-form",
        )
        if command == "table":
            p.add_argument("--format", choices=("json", "csv"), default="json")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="wordstats",
        description="Count words over [k] by refined descent, rise, and level statistics.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    _add_count_subparsers(sub, "count")
    _add_count_subparsers(sub, "table")

    p = sub.add_parser("series", help="expand a generating function")
    p.add_argument("--gf", choices=("A", "B"), required=True,
                   help="A: words graded by length; B: compositions graded by weight")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--partition", required=True, help="threshold:<t> | mod:<s> | blocks:<b1,...>")
    p.add_argument("--order", type=int, required=True)
    p.add_argument("--track", default="all", help="'all', 'none', or comma list like x2,z1")
    p.add_argument("--q", choices=("common", "per-block"), default="common")

    p = sub.add_parser("verify", help="run a cross-engine verification suite")
    p.add_argument("suite", choices=sorted(VERIFY_SUITES))
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--weight-max", dest="weight_max", type=int, default=None)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        default=None,
        help="deliberately corrupt one closed form; the run must then fail (harness self-test)",
    )
    return parser


_COMMANDS = {"count": _cmd_count, "table": _cmd_table, "series": _cmd_series, "verify": _cmd_verify}


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argparse tree ``main`` parses with; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        return _COMMANDS[args.command](args)
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
