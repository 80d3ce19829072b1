"""Command-line surface: counts, tables, series coefficients, verification.

Output is one JSON record per invocation (CSV is available for tables).
Counts are serialized as decimal strings so arbitrary precision survives
any consumer.  Exit codes are part of the contract:

    0  success / all verifications passed
    1  a verification suite found a mismatch
    2  invalid usage or parameters
    3  enumeration budget exceeded

``FAMILIES`` holds a statistic family's command line for ``count`` and
``table``: its options, its closed-form parameters and the shape of its
table.  Its parameter checks, its closed-form table and its query on the
oracle and transfer engines are declared once, in ``formulas.FAMILIES``.
``count`` and ``table`` share one dispatch, ``_table``: it checks the
query with the closed forms' own checks (``formulas.check_params``), the
statistic value of a ``count`` included, and then makes the one engine
call that builds the query's whole table.  ``table`` prints every row of
it and ``count`` the one row it asks for, or 0 where the table has none.

``main`` parses an argv in one of two ways.  When its leading words are
``count <family>``, ``table <family>`` or ``series``, they select a leaf
parser (``build_parser``'s route table), and ``_canonical`` reads the
options that leaf declared (the actions ``add_argument`` returned)
without argparse's option matcher.  It takes only ``--flag value`` pairs,
each flag spelled in full and given once, converts each value with its
action's ``type``, checks its ``choices`` and fills in the defaults,
giving the namespace argparse gives.  It declines an abbreviated or
unknown flag (``-h`` included), ``--flag=value``, a repeated flag, a
value that starts with ``-``, a missing value or required option, a
value its type refuses and one outside its choices.  Every argv it
declines, every ``verify`` argv and every argv without a route goes to
the whole argparse tree, which alone writes usage, help and error text.
A record is written by ``_json``, which gives the text of
``json.dumps(record, indent=2)``.
"""

from __future__ import annotations

import argparse
import functools
import sys
from dataclasses import dataclass
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import formulas, verify
# evaluate and count_matching are not called here; bench/tracing.py counts calls at both.
from .formulas import check_params, distribution, evaluate
from .oracle import (
    BudgetExceededError,
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


def _json(value) -> str:
    """``value`` in the text ``json.dumps(value, indent=2)`` gives it.

    Takes dicts with str keys, lists, tuples, str, int, bool and None, and
    raises ``TypeError`` on anything else (``encode_basestring_ascii``
    refuses a key that is not a str).  ``json.dumps`` encodes in pure
    Python whenever it indents; this writer does the same job in less time.
    """
    out: list[str] = []
    _write(value, "\n", out)
    return "".join(out)


def _write(value, indent: str, out: list[str]) -> None:
    """Append the pieces of ``value``'s text to ``out``; ``indent`` starts its closing line."""
    if isinstance(value, str):
        out.append(encode_basestring_ascii(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{" + inner
        for key, item in value.items():
            out.extend((separator, encode_basestring_ascii(key), ": "))
            # A str or int item is written in place; a bool is not ``type`` int, so it recurses.
            if isinstance(item, str):
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write(item, inner, out)
            separator = "," + inner
        out.append(indent + "}")
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        separator = "[" + inner
        for item in value:
            out.append(separator)
            if isinstance(item, str):
                out.append(encode_basestring_ascii(item))
            elif type(item) is int:
                out.append(int.__repr__(item))
            else:
                _write(item, inner, out)
            separator = "," + inner
        out.append(indent + "]")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _emit(record: dict) -> None:
    print(_json(record))


def _dest(flag: str) -> str:
    return flag[2:].replace("-", "_")


@dataclass(frozen=True)
class Family:
    """How ``count`` and ``table`` read one statistic family's command line.

    ``options`` are the (flag, type, help) of the query options, in the
    order the ``parameters`` echo lists them; ``statistic`` is the option
    ``count`` adds.  ``params`` builds the closed-form parameters from the
    parsed arguments.  A ``joint`` table is keyed by target tuples, one per
    block; any other table has a row for each statistic value up to the
    largest one with a nonzero count.
    """

    options: tuple[tuple[str, type | None, str | None], ...]
    statistic: tuple[str, type | None, str | None]
    params: Callable[[argparse.Namespace], tuple]
    joint: bool = False


_THRESHOLD = Family(
    options=(("--k", int, None), ("--t", int, None), ("--n", int, None)),
    statistic=("--s", int, None),
    params=lambda args: (args.k, args.t, args.n),
)


def _hall_remmel_params(args) -> tuple:
    rho = _parse_int_list(args.rho)
    return rho, _parse_letter_set(args.x, len(rho)), _parse_letter_set(args.y, len(rho))


FAMILIES = {
    "levels-threshold": _THRESHOLD,
    "levels-blocks": Family(
        options=(("--block-sizes", None, None), ("--n", int, None)),
        statistic=("--targets", None, None),
        params=lambda args: (_parse_int_list(args.block_sizes), args.n),
        joint=True,
    ),
    "des-le": _THRESHOLD,
    "des-gt": _THRESHOLD,
    "des-mod": Family(
        options=(
            ("--s", int, "modulus (number of residue classes)"),
            ("--alphabet", int, None),
            ("--r", int, "residue class of the first letter"),
            ("--n", int, None),
        ),
        statistic=("--p", int, "descent count"),
        params=lambda args: (args.s, args.alphabet, args.r, args.n),
    ),
    "hall-remmel": Family(
        options=(
            ("--rho", None, "comma-separated multiplicities"),
            ("--x", None, "top letter set, comma list or 'all'"),
            ("--y", None, "bottom letter set, comma list or 'all'"),
        ),
        statistic=("--s", int, None),
        params=_hall_remmel_params,
    ),
}


def _parameters(family: Family, args) -> dict:
    """The ``parameters`` echo: every option's value, then the family."""
    options = family.options + ((family.statistic,) if args.command == "count" else ())
    echo = {_dest(flag): getattr(args, _dest(flag)) for flag, _, _ in options}
    echo["family"] = args.family
    return echo


def _table(family: Family, args, value: tuple = ()) -> dict:
    """A query's table from one engine call, after the closed forms' checks.

    ``value`` holds the statistic value ``count`` asks for, which is checked
    with the parameters on every engine.  A joint table is keyed by target
    tuples, any other by statistic value; a value may have no key.
    """
    params = family.params(args)
    check_params(args.family, params + value)
    if args.engine == "closed-form":
        return distribution(args.family, params)
    query = formulas.FAMILIES[args.family].query
    if query is None:
        # Only a query the closed forms accept meets an engine's refusal of the family.
        if args.engine == "transfer":
            raise InputError(f"{args.family} supports the closed-form and oracle engines")
        return rearrangement_distribution(*params)
    dist = coordinate_distribution(*query(*params), engine=args.engine)
    return dist if family.joint else {key[0]: count for key, count in dist.items()}


def _cmd_count(args) -> int:
    family = FAMILIES[args.family]
    value = getattr(args, _dest(family.statistic[0]))
    if family.joint:
        value = _parse_int_list(value)
    elif value is None:
        raise InputError("count needs the statistic value (--s / --p)")
    count = _table(family, args, (value,)).get(value, 0)
    _emit(_record("count", _parameters(family, args), args.engine, {"count": str(count)}))
    return EXIT_OK


def _cmd_table(args) -> int:
    family = FAMILIES[args.family]
    dist = _table(family, args)
    if family.joint:
        rows = [
            {"value": list(targets), "count": str(count)}
            for targets, count in sorted(dist.items())
            if count
        ]
    else:
        top = max((value for value, count in dist.items() if count), default=0)
        rows = [{"value": value, "count": str(dist.get(value, 0))} for value in range(top + 1)]
    total = sum(dist.values())
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
    for flag in ("k_max", "n_max", "m_max", "weight_max"):
        bound = getattr(args, flag)
        if bound is not None and bound < 0:
            raise InputError(f"--{flag.replace('_', '-')} must be nonnegative, got {bound}")
    for flag in ("k_max", "n_max", "m_max", "weight_max", "inject_fault"):
        if getattr(args, flag) is not None and flag not in bounds:
            takers = [suite for suite, (_, taken) in VERIFY_SUITES.items() if flag in taken]
            plural = "s" if len(takers) > 1 else ""
            raise InputError(f"--{flag.replace('_', '-')} applies to the {', '.join(takers)} suite{plural}")
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


def _add_count_subparsers(sub, command: str, routes: dict) -> None:
    parser = sub.add_parser(command, help=f"{command} one statistic family")
    families = parser.add_subparsers(dest="family", required=True)
    for name, entry in FAMILIES.items():
        p = routes[command, name] = families.add_parser(name)
        actions = [
            p.add_argument(flag, type=kind, required=True, help=text)
            for flag, kind, text in entry.options
        ]
        if command == "count":
            # Targets are a joint family's statistic, so it must give them.
            flag, kind, text = entry.statistic
            actions.append(p.add_argument(flag, type=kind, required=entry.joint, help=text))
        actions.append(p.add_argument(
            "--engine",
            choices=("closed-form", "oracle", "transfer"),
            default="closed-form",
        ))
        if command == "table":
            actions.append(p.add_argument("--format", choices=("json", "csv"), default="json"))
        _declare(p, actions)


def _declare(parser: argparse.ArgumentParser, actions: list[argparse.Action]) -> None:
    """Keep the ``actions`` ``parser.add_argument`` returned, by option string, for ``_canonical``."""
    parser.declared = {flag: action for action in actions for flag in action.option_strings}


def build_parser() -> argparse.ArgumentParser:
    """The whole argparse tree.

    Its ``routes`` map the leading argv words that select a leaf parser,
    ``(command, family)`` for ``count`` and ``table`` and ``("series",)``,
    to that leaf parser.  Each routed leaf keeps its ``add_argument``
    actions as ``declared`` (see ``_declare``).
    """
    parser = argparse.ArgumentParser(
        prog="wordstats",
        description="Count words over [k] by refined descent, rise, and level statistics.",
    )
    parser.routes = routes = {}
    sub = parser.add_subparsers(dest="command", required=True)

    _add_count_subparsers(sub, "count", routes)
    _add_count_subparsers(sub, "table", routes)

    p = routes[("series",)] = sub.add_parser("series", help="expand a generating function")
    _declare(p, [
        p.add_argument("--gf", choices=("A", "B"), required=True,
                       help="A: words graded by length; B: compositions graded by weight"),
        p.add_argument("--k", type=int, required=True),
        p.add_argument("--partition", required=True,
                       help="threshold:<t> | mod:<s> | blocks:<b1,...>"),
        p.add_argument("--order", type=int, required=True),
        p.add_argument("--track", default="all", help="'all', 'none', or comma list like x2,z1"),
        p.add_argument("--q", choices=("common", "per-block"), default="common"),
    ])

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


def _canonical(
    leaf: argparse.ArgumentParser, words: list[str], selected: dict
) -> argparse.Namespace | None:
    """The namespace ``leaf`` gives ``words`` when they are ``--flag value`` pairs, else None.

    Each flag must be one of ``leaf.declared``'s, in full and given once,
    and each value must not start with ``-``; the action's ``type`` and
    ``choices`` must take it, and every required option must be given.
    Options not given take their declared defaults.
    """
    if len(words) % 2:
        return None
    flags, values = leaf.declared, {}
    for flag, raw in zip(words[::2], words[1::2]):
        action = flags.get(flag)
        if action is None or action.dest in values or raw[:1] == "-":
            return None
        try:
            value = raw if action.type is None else action.type(raw)
        except (argparse.ArgumentTypeError, TypeError, ValueError):
            return None
        if action.choices is not None and value not in action.choices:
            return None
        values[action.dest] = value
    for action in flags.values():
        if action.dest not in values:
            if action.required:
                return None
            values[action.dest] = action.default
    return argparse.Namespace(**selected, **values)


def _parse(argv: list[str]) -> argparse.Namespace:
    """``argv`` parsed by the leaf parser its leading words route to, else by the whole tree.

    ``_canonical`` reads a routed leaf's ``--flag value`` argv.  Every argv
    it declines, and every argv without a route, goes to the whole tree,
    so usage, help and error text are argparse's own.
    """
    parser = _parser()
    for key in (tuple(argv[:2]), tuple(argv[:1])):
        leaf = parser.routes.get(key)
        if leaf is not None:
            args = _canonical(leaf, argv[len(key):], dict(zip(("command", "family"), key)))
            if args is not None:
                return args
            break
    return parser.parse_args(argv)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
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
