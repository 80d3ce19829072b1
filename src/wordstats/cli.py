"""Command-line surface: counts, tables, series coefficients, verification.

Output is one JSON record per invocation (CSV is available for tables).
Counts are serialized as decimal strings so arbitrary precision survives
any consumer.  Exit codes are part of the contract:

    0  success / all verifications passed
    1  a verification suite found a mismatch
    2  invalid usage or parameters
    3  enumeration budget exceeded
"""

from __future__ import annotations

import argparse
import functools
import json
import sys

from . import verify
from .formulas import check_modulus, check_threshold, distribution, evaluate
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
    if raw == "all":
        return frozenset(range(1, m + 1))
    return frozenset(_parse_int_list(raw))


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


# Per family: how to compute one count and the full table, on each engine.

# The one coordinate a threshold family reads off the transfer DP.
_THRESHOLD_COORDINATE = {
    "levels-threshold": (1, "lev"),
    "des-le": (1, "des"),
    "des-gt": (2, "des"),
}


def _dp_query(family: str, args):
    """(alphabet size, partition, coordinates) of a family on the oracle/transfer engines."""
    if family == "levels-blocks":
        sizes = _parse_int_list(args.block_sizes)
        coords = [(block, "lev") for block in range(1, len(sizes) + 1)]
        return sum(sizes), _partition_from_sizes(sizes), coords
    if family == "des-mod":
        check_modulus(args.s)
        partition = BlockPartition.mod_residue(args.alphabet, args.s)
        return args.alphabet, partition, [(args.r, "des")]
    if family in _THRESHOLD_COORDINATE:
        check_threshold(family, args.k, args.t)
        partition = BlockPartition.threshold(args.k, args.t)
        return args.k, partition, [_THRESHOLD_COORDINATE[family]]
    raise InputError(f"unknown family {family!r}")


def _hall_remmel_query(args):
    rho = _parse_int_list(args.rho)
    return rho, _parse_letter_set(args.x, len(rho)), _parse_letter_set(args.y, len(rho))


def _hall_remmel_distribution(rho, tops, bottoms, engine: str) -> dict[int, int]:
    if engine == "transfer":
        raise InputError("hall-remmel supports the closed-form and oracle engines")
    return rearrangement_distribution(rho, tops, bottoms)


def _closed_form_params(family: str, args) -> tuple:
    """A family's closed-form parameters, without the statistic value."""
    if family == "hall-remmel":
        return _hall_remmel_query(args)
    if family == "levels-blocks":
        return (_parse_int_list(args.block_sizes), args.n)
    if family == "des-mod":
        return (args.s, args.alphabet, args.r, args.n)
    return (args.k, args.t, args.n)


def _family_count(family: str, args, value: int, engine: str) -> int:
    if engine == "closed-form":
        params = _closed_form_params(family, args)
        if family == "levels-blocks":
            value = _parse_int_list(args.targets)
        return evaluate(family, params + (value,)).value
    if family == "hall-remmel":
        return _hall_remmel_distribution(*_hall_remmel_query(args), engine).get(value, 0)
    k, partition, coords = _dp_query(family, args)
    if family == "levels-blocks":
        values = _parse_int_list(args.targets)
        if len(values) != len(coords):
            raise InputError(f"{len(coords)} block sizes but {len(values)} level targets")
    else:
        values = (value,)
    spec = ConstraintSpec.of(*[(block, stat, v) for (block, stat), v in zip(coords, values)])
    return count_matching(k, args.n, partition, spec, engine=engine)


def _engine_table(family: str, args, engine: str) -> dict:
    """Every row of a table from one oracle or transfer engine call."""
    if family == "hall-remmel":
        return _hall_remmel_distribution(*_hall_remmel_query(args), engine)
    k, partition, coords = _dp_query(family, args)
    dist = coordinate_distribution(k, args.n, partition, coords, engine=engine)
    if family == "levels-blocks":
        return dist
    return {key[0]: count for key, count in dist.items()}


def _partition_from_sizes(sizes: tuple[int, ...]) -> BlockPartition:
    blocks: list[int] = []
    for index, size in enumerate(sizes, start=1):
        blocks.extend([index] * size)
    if not blocks:
        raise InputError("block sizes must cover at least one letter")
    return BlockPartition.from_blocks(blocks, t=len(sizes))


def _family_parameters(family: str, args, include_value: bool) -> dict:
    if family == "levels-threshold":
        params = {"k": args.k, "t": args.t, "n": args.n}
        if include_value:
            params["s"] = args.s
    elif family == "levels-blocks":
        params = {"block_sizes": args.block_sizes, "n": args.n}
        if include_value:
            params["targets"] = args.targets
    elif family in ("des-le", "des-gt"):
        params = {"k": args.k, "t": args.t, "n": args.n}
        if include_value:
            params["s"] = args.s
    elif family == "des-mod":
        params = {"s": args.s, "alphabet": args.alphabet, "r": args.r, "n": args.n}
        if include_value:
            params["p"] = args.p
    elif family == "hall-remmel":
        params = {"rho": args.rho, "x": args.x, "y": args.y}
        if include_value:
            params["s"] = args.s
    else:
        raise InputError(f"unknown family {family!r}")
    params["family"] = family
    return params


def _cmd_count(args) -> int:
    family = args.family
    if family == "levels-blocks":
        value = None  # targets carry the statistic for this family
    else:
        value = args.p if family == "des-mod" else args.s
        if value is None:
            raise InputError("count needs the statistic value (--s / --p)")
        if value < 0:
            raise InputError("statistic value must be nonnegative")
    count = _family_count(family, args, value, args.engine)
    record = _record(
        "count",
        _family_parameters(family, args, include_value=True),
        args.engine,
        {"count": str(count)},
    )
    _emit(record)
    return EXIT_OK


def _statistic_ceiling(family: str, args) -> int:
    if family == "hall-remmel":
        return sum(_parse_int_list(args.rho))
    return args.n


def _cmd_table(args) -> int:
    family = args.family
    engine = args.engine
    if engine == "closed-form":
        dist = distribution(family, _closed_form_params(family, args))
    else:
        dist = _engine_table(family, args, engine)
    if family == "levels-blocks":
        rows = [
            {"value": list(targets), "count": str(count)}
            for targets, count in sorted(dist.items())
            if count
        ]
        total = sum(dist.values())
    else:
        counts = [dist.get(value, 0) for value in range(_statistic_ceiling(family, args) + 1)]
        while len(counts) > 1 and counts[-1] == 0:
            counts.pop()
        rows = [
            {"value": value, "count": str(count)} for value, count in enumerate(counts)
        ]
        total = sum(counts)
    record = _record(
        "table",
        _family_parameters(family, args, include_value=False),
        engine,
        {"rows": rows, "total": str(total)},
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


def _cmd_verify(args) -> int:
    suite = args.suite
    if args.inject_fault and suite != "formulas-vs-oracle":
        raise InputError("--inject-fault applies to the formulas-vs-oracle suite")

    def bound(value, default):
        return default if value is None else value

    if suite == "oracle-vs-transfer":
        result = verify.oracle_vs_transfer(
            k_max=bound(args.k_max, 4), n_max=bound(args.n_max, 8)
        )
    elif suite == "series-vs-oracle":
        result = verify.series_vs_oracle(
            k_max=bound(args.k_max, 4), n_max=bound(args.n_max, 6)
        )
    elif suite == "formulas-vs-oracle":
        result = verify.formulas_vs_oracle(
            alphabet_max=bound(args.k_max, 6),
            n_max=bound(args.n_max, 7),
            corrupt=args.inject_fault,
        )
    elif suite == "identities":
        result = verify.identities_suite(
            top_n_max=bound(args.n_max, 12), two_bottom_n_max=bound(args.n_max, 10)
        )
    elif suite == "hall-remmel":
        result = verify.hall_remmel_suite(
            m_max=bound(args.m_max, 4),
            weight_max=bound(args.weight_max, 7),
            even_n_max=bound(args.n_max, 6),
        )
    else:
        raise InputError(f"unknown suite {suite!r}")
    record = _record(
        "verify",
        {"suite": suite},
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

    def common(p):
        p.add_argument(
            "--engine",
            choices=("closed-form", "oracle", "transfer"),
            default="closed-form",
        )
        if command == "table":
            p.add_argument("--format", choices=("json", "csv"), default="json")

    p = families.add_parser("levels-threshold")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--t", type=int, required=True)
    p.add_argument("--n", type=int, required=True)
    if command == "count":
        p.add_argument("--s", type=int, default=None)
    common(p)

    p = families.add_parser("levels-blocks")
    p.add_argument("--block-sizes", dest="block_sizes", required=True)
    p.add_argument("--n", type=int, required=True)
    if command == "count":
        p.add_argument("--targets", required=True)
    common(p)

    for name in ("des-le", "des-gt"):
        p = families.add_parser(name)
        p.add_argument("--k", type=int, required=True)
        p.add_argument("--t", type=int, required=True)
        p.add_argument("--n", type=int, required=True)
        if command == "count":
            p.add_argument("--s", type=int, default=None)
        common(p)

    p = families.add_parser("des-mod")
    p.add_argument("--s", type=int, required=True, help="modulus (number of residue classes)")
    p.add_argument("--alphabet", type=int, required=True)
    p.add_argument("--r", type=int, required=True, help="residue class of the first letter")
    p.add_argument("--n", type=int, required=True)
    if command == "count":
        p.add_argument("--p", type=int, default=None, help="descent count")
    common(p)

    p = families.add_parser("hall-remmel")
    p.add_argument("--rho", required=True, help="comma-separated multiplicities")
    p.add_argument("--x", required=True, help="top letter set, comma list or 'all'")
    p.add_argument("--y", required=True, help="bottom letter set, comma list or 'all'")
    if command == "count":
        p.add_argument("--s", type=int, default=None)
    common(p)


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
    p.add_argument("suite", choices=sorted(verify.SUITES))
    p.add_argument("--k-max", dest="k_max", type=int, default=None)
    p.add_argument("--n-max", dest="n_max", type=int, default=None)
    p.add_argument("--m-max", dest="m_max", type=int, default=None)
    p.add_argument("--weight-max", dest="weight_max", type=int, default=None)
    p.add_argument(
        "--inject-fault",
        action="store_true",
        help="deliberately corrupt one closed form; the run must then fail (harness self-test)",
    )
    return parser


@functools.cache
def _parser() -> argparse.ArgumentParser:
    """The one argparse tree ``main`` parses with; parsing leaves it unchanged."""
    return build_parser()


def main(argv=None) -> int:
    try:
        args = _parser().parse_args(argv)
        if args.command == "count":
            return _cmd_count(args)
        if args.command == "table":
            return _cmd_table(args)
        if args.command == "series":
            return _cmd_series(args)
        if args.command == "verify":
            return _cmd_verify(args)
        raise InputError(f"unknown command {args.command!r}")
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
