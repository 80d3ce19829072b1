"""Command-line surface: counts, tables, series coefficients, verification.

Output is one JSON record per invocation (CSV is available for tables).
Counts are serialized as decimal strings so arbitrary precision survives
any consumer.  Exit codes are part of the contract:

    0  success / all verifications passed
    1  a verification suite found a mismatch
    2  invalid usage or parameters; or, from ``entrypoint``, stdout closed or full
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

A record is written from its known shape, in the text
``json.dumps(record, indent=2)`` gives it.  ``_record`` writes the
five-key frame up to ``result`` from one template, the ``parameters``
echo (a flat object) included, and each command appends the pieces of its
``result``: a table row or a series coefficient is one string.  ``_emit``
joins the pieces once.  ``table`` turns its table into (value, count)
pairs once, and its JSON and CSV outputs both read them.  ``count`` and
``table`` print a count of any length in full: ``_AllDigits`` lifts
Python's limit on int-to-decimal digits while they write, and parsing
keeps it.

A ``count`` or ``table`` process loads no more than ``words``,
``combinat``, ``oracle``, ``formulas`` and this module: ``series`` loads
on the first ``series`` command and ``verify`` inside ``verify``.
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import os
import sys
from json.encoder import encode_basestring_ascii
from typing import Callable

from . import formulas
# evaluate and count_matching are not called here; bench/tracing.py counts calls at both.
from .formulas import check_params, distribution, evaluate
from .oracle import (
    BudgetExceededError,
    coordinate_distribution,
    count_matching,
    rearrangement_distribution,
)
from .words import BlockPartition, FrozenRecord, InputError

SCHEMA_VERSION = "wordstats-output/1"

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


def _parse_int_list(raw: str) -> tuple[int, ...]:
    """Grammar: <i1,...>, or "" for the empty list; an empty piece is refused."""
    if raw == "":
        return ()
    try:
        return tuple(int(piece) for piece in raw.split(","))
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


# Separates the targets of a joint table row's ``value``, a list five levels deep.
_TARGETS = ",\n          "


def _scalar(value) -> str:
    """An int, str, bool or None in the text ``json.dumps`` gives it; else ``TypeError``."""
    if type(value) is int:
        return int.__repr__(value)
    if isinstance(value, str):
        return encode_basestring_ascii(value)
    if value is None:
        return "null"
    if value is True:
        return "true"
    if value is False:
        return "false"
    raise TypeError(f"Object of type {type(value).__name__} is not a JSON scalar")


def _flat(value, indent: str = "\n") -> str:
    """A scalar, or a dict or list of scalars, as ``json.dumps(value, indent=2)`` writes it.

    ``indent`` starts the closing line of a dict or list at that depth.  A
    nested container, or a dict key that is not a str, raises ``TypeError``.
    """
    if isinstance(value, dict):
        brackets = "{}"
        items = [f"{encode_basestring_ascii(key)}: {_scalar(item)}" for key, item in value.items()]
    elif isinstance(value, (list, tuple)):
        brackets, items = "[]", [_scalar(item) for item in value]
    else:
        return _scalar(value)
    inner = indent + "  "
    body = inner + ("," + inner).join(items) + indent if items else ""
    return brackets[0] + body + brackets[1]


def _record(command: str, parameters: dict, engine: str) -> list[str]:
    """A record's text up to its ``result``, as the first piece of the list ``_emit`` prints.

    The command appends the pieces of its ``result``, an object at depth 1.
    """
    echo = _flat(parameters, "\n  ")
    return [
        f'{{\n  "schema": "{SCHEMA_VERSION}",\n  "command": "{command}",\n'
        f'  "parameters": {echo},\n  "engine": "{engine}",\n  "result": '
    ]


def _emit(pieces: list[str]) -> None:
    """Print a record's pieces, joined once, and close it."""
    pieces.append("\n}")
    print("".join(pieces))


class _AllDigits:
    """Inside ``with``, an int converts to decimal at any length.

    Python (3.10.7 on) refuses to convert an int of more than
    ``sys.get_int_max_str_digits()`` digits, 0 meaning no limit; an older
    one has no limit, which ``int()``'s 0 stands for.  Only the writer
    lifts the limit: parsing keeps it.
    """

    def __enter__(self) -> None:
        self.limit = getattr(sys, "get_int_max_str_digits", int)()
        if self.limit:
            sys.set_int_max_str_digits(0)

    def __exit__(self, *exc_info) -> None:
        if self.limit:
            sys.set_int_max_str_digits(self.limit)


class Family(FrozenRecord):
    """How ``count`` and ``table`` read one statistic family's command line.

    ``options`` are the (flag, type, help) of the query options, in the
    order the ``parameters`` echo lists them; ``statistic`` is the option
    ``count`` adds.  ``params`` builds the closed-form parameters from the
    parsed arguments.  A ``joint`` table is keyed by target tuples, one per
    block; any other table has a row for each statistic value up to the
    largest one with a nonzero count.
    """

    _fields = ("options", "statistic", "params", "joint")
    options: tuple[tuple[str, type | None, str | None], ...]
    statistic: tuple[str, type | None, str | None]
    params: Callable[[argparse.Namespace], tuple]
    joint: bool

    def __init__(self, options, statistic, params, joint: bool = False) -> None:
        object.__setattr__(self, "options", options)
        object.__setattr__(self, "statistic", statistic)
        object.__setattr__(self, "params", params)
        object.__setattr__(self, "joint", joint)

    @functools.cached_property
    def echo(self) -> dict[str, tuple[str, ...]]:
        """Per command, the dests of the options the ``parameters`` echo lists, in order."""
        query = tuple(flag[2:].replace("-", "_") for flag, _, _ in self.options)
        return {"table": query, "count": query + (self.statistic[0][2:].replace("-", "_"),)}


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
    echo = {dest: getattr(args, dest) for dest in family.echo[args.command]}
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
    value = getattr(args, family.echo["count"][-1])
    if family.joint:
        value = _parse_int_list(value)
    elif value is None:
        raise InputError("count needs the statistic value (--s / --p)")
    count = _table(family, args, (value,)).get(value, 0)
    out = _record("count", _parameters(family, args), args.engine)
    with _AllDigits():
        out.append(f'{{\n    "count": "{count}"\n  }}')
    _emit(out)
    return EXIT_OK


def _cmd_table(args) -> int:
    """Print the table as JSON or CSV, both read from one list of (value, count) pairs.

    Each JSON row is one string ending in a comma, which the last row
    drops; a joint row's ``value`` is the list of its targets.  A table has
    at least one row: value 0, or for a joint table a nonzero count among
    its alphabet**n >= 1 words.
    """
    family = FAMILIES[args.family]
    dist = _table(family, args)
    if family.joint:
        pairs = sorted((targets, count) for targets, count in dist.items() if count)
    else:
        top = max((value for value, count in dist.items() if count), default=0)
        pairs = [(value, dist.get(value, 0)) for value in range(top + 1)]
    total = sum(dist.values())
    del dist  # the pairs hold every key and count the output needs
    with _AllDigits():
        if args.format == "csv":
            lines = ["value,count"]
            if family.joint:
                lines += [f"{' '.join(map(str, targets))},{count}" for targets, count in pairs]
            else:
                lines += [f"{value},{count}" for value, count in pairs]
            lines.append(f"total,{total}")
            print("\n".join(lines))
            return EXIT_OK
        out = _record("table", _parameters(family, args), args.engine)
        out.append('{\n    "rows": [')
        if family.joint:
            out += [
                f'\n      {{\n        "value": [\n          {_TARGETS.join(map(str, targets))}'
                f'\n        ],\n        "count": "{count}"\n      }},'
                for targets, count in pairs
            ]
        else:
            out += [
                f'\n      {{\n        "value": {value},\n        "count": "{count}"\n      }},'
                for value, count in pairs
            ]
        out[-1] = out[-1][:-1]
        out.append(f'\n    ],\n    "total": "{total}"\n  }}')
    _emit(out)
    return EXIT_OK


# ``series`` loads on the first ``series`` command.  ``_cmd_series`` reads
# these names off this module when it runs, so a wrapper bound here runs
# (bench/tracing.py binds build_ak_series and build_bk_series).
_SERIES_NAMES = frozenset({"TrackingSpec", "build_ak_series", "build_bk_series"})


def __getattr__(name: str):
    """One of ``_SERIES_NAMES``, imported from ``series`` on first access and then bound here."""
    if name not in _SERIES_NAMES:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import series

    value = globals()[name] = getattr(series, name)
    return value


def _cmd_series(args) -> int:
    here = sys.modules[__name__]
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
    spec = here.TrackingSpec.only(partition.t, tracked, per_block_q=args.q == "per-block")
    build = here.build_ak_series if args.gf == "A" else here.build_bk_series
    series = build(k, partition, spec, args.order)
    parameters = {
        name: getattr(args, name) for name in ("gf", "k", "partition", "track", "q", "order")
    }
    out = _record("series", parameters, "series")
    names = _flat(series.names, "\n    ")
    out.append(
        f'{{\n    "variable": {_scalar(series.var)},\n    "coefficient_variables": {names},'
        '\n    "coefficients": ['
    )
    # Order 0 upward, so there is at least one coefficient.
    out += [
        f'\n      {{\n        "order": {i},\n        "polynomial": '
        f'{encode_basestring_ascii(str(series.coefficient(i)))}\n      }},'
        for i in range(series.order + 1)
    ]
    out[-1] = out[-1][:-1]
    out.append("\n    ]\n  }")
    _emit(out)
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
    from . import verify

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
    out = _record("verify", {"suite": args.suite}, "verify")
    out.append(_flat({
        "checked": result.checked,
        "failures": result.failures,
        "first_failure": result.first_failure,
    }, "\n  "))
    _emit(out)
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
    """Run ``main`` on the process's argv and exit with its code.

    Output that cannot be written, to a closed pipe or a full disk, exits 2
    with one ``error:`` line on stderr if stderr is still open, not with a
    traceback.  stdout then points at the null device, so that the
    interpreter's flush at exit does not fail again.
    """
    try:
        try:
            code = main()
        finally:
            if sys.stdout is not None:
                sys.stdout.flush()
    except OSError as exc:
        with contextlib.suppress(AttributeError, OSError, ValueError):
            os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        with contextlib.suppress(OSError, ValueError):
            print(f"error: cannot write the output: {exc}", file=sys.stderr)
        code = EXIT_USAGE
    sys.exit(code)


if __name__ == "__main__":
    entrypoint()
