"""Command-line surface: counts, tables, series coefficients, verification.

Output is one JSON record per invocation (CSV is available for tables).
Counts are serialized as decimal strings so arbitrary precision survives
any consumer.  Exit codes are part of the contract:

    0  success / all verifications passed
    1  a verification suite found a mismatch
    2  invalid usage or parameters; or, from ``entrypoint``, stdout closed or full
    3  enumeration budget exceeded

``count`` and ``table`` have one parser per family of ``formulas.FAMILIES``,
which declares each family once.  Its ``names`` are the parser's options and
the keys of the ``parameters`` echo, in order, each spelled ``--name``
with ``-`` for ``_``; ``table`` leaves out the last, the statistic value.
An option is an int unless the family reads it as text (``_TEXT``, with
the function that builds the closed-form parameters); ``_HELP`` holds the
help texts.  Its ``joint`` says that its table is keyed by target tuples.
``ENGINES`` maps each ``--engine`` name, in the order of its choices, to
the one function that builds a query's whole table on that engine; the
function holds the engine's refusal of a family and its charge, and a
word engine's function keys its answer by ``FamilyForms.keyed``.  ``count``
and ``table`` share one dispatch, ``_table``: it checks the query with the
closed forms' own checks (``formulas.check_params``), the statistic value
of a ``count`` included, and then makes that one engine call.  ``table``
prints every row of it and ``count`` the one row it asks for, or 0 where
the table has none.

``VERIFY_SUITES`` declares every suite of ``verify`` once, by its
function's name, with the keywords each bound sets; only its ``listed``
rows are ``verify`` choices, and an unlisted suite runs as a library call.

``main`` reads an argv with one parser tree, ``build_parser``'s, built
once: a ``_Reader`` per command, and per ``count`` or ``table`` family,
each declaring its arguments as ``Option`` records.  Its leading words,
``count <family>``, ``table <family>``, ``series`` or ``verify``, select
the parser that reads the rest, as the standard library's
``ArgumentParser`` reads it from parsers that declare the same arguments:
a flag in full or abbreviated, ``--flag=value``, a flag given again, the
last one winning, a negative number as a value, and ``--``.  One reading
differs: ``--flag=--`` gives the value ``--``, where ``ArgumentParser``
gives an empty list.  ``-h`` and a usage error are answered from the
same parsers; ``usage``, loaded only to write them, writes the text
Python 3.11's ``ArgumentParser`` writes in 80 columns, on every Python
and in any terminal.  No module of the package imports the standard
library's parser.

A record is written from its known shape, in the text
``json.dumps(record, indent=2)`` gives it.  ``_record`` writes the
five-key frame up to ``result`` from one template, the ``parameters``
echo (a flat object) included, and each command appends the pieces of its
``result``: a table row or a series coefficient is one string.  ``_emit``
joins the pieces once.  ``table`` turns its table into (value, count)
pairs once, and its JSON and CSV outputs both read them.  ``count`` and
``table`` print a count, and ``series`` a coefficient, of any length in
full: ``_AllDigits`` lifts Python's limit on int-to-decimal digits while
they write, and parsing keeps it.

A closed-form ``count`` or ``table``, a ``series`` command and a usage
error load no ``oracle``: ``--engine oracle``, ``--engine transfer`` and
``verify`` load it when they run, through the names of ``_LAZY``.
``series`` loads on the first ``series`` command and ``verify`` inside
``verify``.  Where no bytecode cache is written, a cold process compiles
every module it loads, so each module it skips shortens its start.
"""

from __future__ import annotations

import contextlib
import functools
import os
import re
import sys
from types import SimpleNamespace

# The json package would load its decoder too; json.encoder guards this import the same way.
try:
    from _json import encode_basestring_ascii
except ImportError:
    from json.encoder import encode_basestring_ascii

# evaluate is not called here; bench/tracing.py counts calls at it.  Importing from
# ``formulas`` first loads it by name, so ``python -X importtime`` lists it.
from .formulas import check_params, evaluate
from . import _submodule, formulas
from .words import BlockPartition, BudgetExceededError, FrozenRecord, InputError

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


# What a command line adds to ``formulas.FAMILIES``, whose ``names`` are a family's options:
# help texts by option, and the options a family reads as text, with the function that builds its
# closed-form parameters from its parameter options' values.  Every other option is an int.
_HELP = {
    "des-mod": {
        "s": "modulus (number of residue classes)",
        "r": "residue class of the first letter",
        "p": "descent count",
    },
    "hall-remmel": {
        "rho": "comma-separated multiplicities",
        "x": "top letter set, comma list or 'all'",
        "y": "bottom letter set, comma list or 'all'",
    },
}


def _hall_remmel_params(rho: str, x: str, y: str) -> tuple:
    sizes = _parse_int_list(rho)
    return sizes, _parse_letter_set(x, len(sizes)), _parse_letter_set(y, len(sizes))


_TEXT = {
    "levels-blocks": ({"block_sizes", "targets"}, lambda block_sizes, n: (_parse_int_list(block_sizes), n)),
    "hall-remmel": ({"rho", "x", "y"}, _hall_remmel_params),
}


# Names loaded from a sibling module on first access (``__getattr__``) and then bound here: the
# ``oracle`` module, and the functions bench/tracing.py binds wrappers to on ``cli``.  A module's
# own name maps to it.  count_matching is not called here; bench/tracing.py counts calls at it.
_LAZY = {
    "oracle": "oracle",
    "count_matching": "oracle",
    "rearrangement_distribution": "oracle",
    "build_ak_series": "series",
    "build_bk_series": "series",
}


def __getattr__(name: str):
    """One of ``_LAZY``, imported on first access and then bound here."""
    source = _LAZY.get(name)
    if source is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module = _submodule(source)
    value = globals()[name] = module if name == source else getattr(module, name)
    return value


# This module, whose ``_LAZY`` names the commands read off it when they run: a bare name would
# raise NameError before its first access, and a wrapper bound here or on ``oracle`` runs.
_HERE = sys.modules[__name__]


# Each engine builds a query's table in one call.
def _oracle(family: str, params: tuple) -> dict:
    forms = formulas.FAMILIES[family]
    if forms.query is None:
        return _HERE.rearrangement_distribution(*params)
    # The walk is charged before the query builds a partition, which holds one entry per letter.
    _HERE.oracle.charge_walk(*forms.words(*params))
    k, n, partition, coords = forms.query(*params)
    return forms.keyed(_HERE.oracle.brute_distribution(k, n, partition).joint(coords))


def _transfer(family: str, params: tuple) -> dict:
    forms = formulas.FAMILIES[family]
    if forms.query is None:
        raise InputError(f"{family} supports the closed-form and oracle engines")
    return forms.keyed(_HERE.oracle.statistic_distribution(*forms.query(*params)))


# In the order of ``--engine``'s choices; the first is its default.  ``_table`` has checked the
# query, so the closed forms' table is read without checking it again.
ENGINES = {
    "closed-form": lambda family, params: formulas.FAMILIES[family].table(*params),
    "oracle": _oracle,
    "transfer": _transfer,
}


def _parameters(args, names: tuple[str, ...]) -> dict:
    """The ``parameters`` echo: the value of each option in ``names``, then the family."""
    echo = {name: getattr(args, name) for name in names}
    echo["family"] = args.family
    return echo


def _table(args, *value) -> dict:
    """A query's table from one ``ENGINES`` call, after the closed forms' checks.

    ``value`` is the statistic value ``count`` asks for, if any, which is checked
    with the parameters on every engine, so only a query the closed forms
    accept meets an engine's refusal of the family.  A joint table is keyed
    by target tuples, any other by statistic value; a value may have no key.
    """
    params = tuple(getattr(args, name) for name in formulas.FAMILIES[args.family].names[:-1])
    if args.family in _TEXT:
        params = _TEXT[args.family][1](*params)
    check_params(args.family, (*params, *value))
    return ENGINES[args.engine](args.family, params)


def _cmd_count(args) -> int:
    family = formulas.FAMILIES[args.family]
    value = getattr(args, family.names[-1])
    if family.joint:
        value = _parse_int_list(value)
    elif value is None:
        raise InputError("count needs the statistic value (--s / --p)")
    count = _table(args, value).get(value, 0)
    out = _record("count", _parameters(args, family.names), args.engine)
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
    family = formulas.FAMILIES[args.family]
    dist = _table(args)
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
        out = _record("table", _parameters(args, family.names[:-1]), args.engine)
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


def _cmd_series(args) -> int:
    from .polynomials import render
    from .series import TrackingSpec

    k = args.k
    partition = _parse_partition(args.partition, k)
    if args.track == "all":
        tracked = {
            f"{kind}{i}" for kind in "xyz" for i in range(1, partition.t + 1)
        }
    elif args.track == "none":
        tracked = set()
    else:
        # <m1,...>, each piece nonempty: ``none``, not "", tracks nothing.
        tracked = set(args.track.split(","))
        if "" in tracked:
            raise InputError(f"expected a comma-separated marker list, got {args.track!r}")
    spec = TrackingSpec.only(partition.t, tracked, per_block_q=args.q == "per-block")
    build = _HERE.build_ak_series if args.gf == "A" else _HERE.build_bk_series
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
    with _AllDigits():
        out += [
            f'\n      {{\n        "order": {i},\n        "polynomial": '
            f'{encode_basestring_ascii(text)}\n      }},'
            for i, text in enumerate(render(series.coeffs))
        ]
    out[-1] = out[-1][:-1]
    out.append("\n    ]\n  }")
    _emit(out)
    return EXIT_OK


class Option(FrozenRecord):
    """One argument of a parser, a ``--flag`` or a positional's name, as ``add_argument`` declares it."""

    flag: str
    dest: str
    type: object = None
    choices: tuple | None = None
    required: bool = False
    default: object = None
    takes_value: bool = True
    help: str | None = None


# The options of the verify parser: the suites' bounds (see ``VERIFY_SUITES``) and the self-test.
_BOUNDS = (
    *(Option("--" + bound.replace("_", "-"), bound, int) for bound in ("k_max", "n_max", "m_max", "weight_max")),
    Option("--inject-fault", "inject_fault", takes_value=False,
           help="deliberately corrupt one closed form; the run must then fail (harness self-test)"),
)


# Every verify suite: its function in ``verify``, by name, the keyword(s) each CLI bound sets, and
# whether the CLI lists it; a bound that is not given keeps the function's default.  An unlisted
# suite is no ``verify`` choice and runs only as a library call with the same keywords.
VERIFY_SUITES = {
    "oracle-vs-transfer": ("oracle_vs_transfer", {"k_max": ("k_max",), "n_max": ("n_max",)}, True),
    "series-vs-oracle": ("series_vs_oracle", {"k_max": ("k_max",), "n_max": ("n_max",)}, True),
    "formulas-vs-oracle": (
        "formulas_vs_oracle",
        {"k_max": ("alphabet_max",), "n_max": ("n_max",), "inject_fault": ("corrupt",)},
        True,
    ),
    "identities": ("identities_suite", {"n_max": ("top_n_max", "two_bottom_n_max")}, True),
    "hall-remmel": (
        "hall_remmel_suite",
        {"m_max": ("m_max",), "weight_max": ("weight_max",), "n_max": ("even_n_max",)},
        True,
    ),
    "dualities": ("duality_suite", {"k_max": ("k_max",), "n_max": ("n_max",)}, False),
    "series-weight-compatibility": ("series_weight_suite", {"k_max": ("k_max",), "n_max": ("n_max",)}, False),
}
# The listed suites, in table order: the only rows the parser and the bound errors read.
_LISTED = tuple(suite for suite, (_, _, listed) in VERIFY_SUITES.items() if listed)


def _cmd_verify(args) -> int:
    from . import verify

    name, bounds, _ = VERIFY_SUITES[args.suite]
    for option in _BOUNDS:
        bound = getattr(args, option.dest)
        if option.takes_value and bound is not None and bound < 0:
            raise InputError(f"{option.flag} must be nonnegative, got {bound}")
    for option in _BOUNDS:
        if getattr(args, option.dest) is not None and option.dest not in bounds:
            takers = [suite for suite in _LISTED if option.dest in VERIFY_SUITES[suite][1]]
            plural = "s" if len(takers) > 1 else ""
            raise InputError(f"{option.flag} applies to the {', '.join(takers)} suite{plural}")
    kwargs = {keyword: getattr(args, dest) for dest, keywords in bounds.items()
              if getattr(args, dest) is not None for keyword in keywords}
    # Looked up at call time, so a wrapper patched onto ``verify`` runs.
    result = getattr(verify, name)(**kwargs)
    out = _record("verify", {"suite": args.suite}, "verify")
    result_fields = {"checked": result.checked, "failures": result.failures, "first_failure": result.first_failure}
    out.append(_flat(result_fields, "\n  "))
    _emit(out)
    return EXIT_OK if result.ok else EXIT_VERIFY_FAILED


_COMMANDS = {"count": _cmd_count, "table": _cmd_table, "series": _cmd_series, "verify": _cmd_verify}


# Every parser's first option; ``--help`` is its long flag.
_ASK_HELP = Option("-h", "help", takes_value=False, help="show this help message and exit")
_NEGATIVE = r"^-\d+$|^-\d*\.\d+$"  # a word that matches no flag reads as a value if it matches this
_SEPARATOR = object()  # how the first ``--`` of a parser's words reads


def _value_span(found: list, at: int) -> int:
    """The index after a positional's value read from ``at``, with a ``--`` just before or after it; ``at`` if none."""
    end = at + (found[at] is _SEPARATOR)
    if end == len(found) or found[end] is not None:
        return at
    end += 1
    return end + (end < len(found) and found[end] is _SEPARATOR)


class _Answer(Exception):
    """What ``main`` writes instead of running a command: ``reader``'s help, or a usage error's ``message``."""

    def __init__(self, reader: _Reader, message: str | None = None):
        super().__init__(message)
        self.reader, self.message = reader, message


def _name(option: Option) -> str:
    """An argument's name in an error message: its flags, or a positional's name."""
    return "-h/--help" if option is _ASK_HELP else option.flag


class _Reader:
    """One parser of the tree ``main`` reads an argv with, which reads it as an ``ArgumentParser`` would.

    ``arguments`` are ``Option`` records, after ``-h``, in the order they
    are declared; a positional's ``flag`` is its name.  With ``children``,
    the one positional names the child that reads the words after it;
    without, each positional is read in place.  ``summary`` is the
    parser's line in its parent's help, which ``usage`` writes.
    """

    def __init__(self, prog: str, arguments: tuple[Option, ...], children: dict | None = None,
                 summary: str | None = None, description: str | None = None):
        self.prog, self.children, self.summary, self.description = prog, children, summary, description
        self.arguments = (_ASK_HELP, *arguments)
        # How a word that is exactly a flag reads, by flag; and the positionals, required dests and defaults.
        self.flags = {"-h": (_ASK_HELP, "-h", None), "--help": (_ASK_HELP, "--help", None)}
        self.positionals, self.required, self.defaults = [], {}, {}
        for option in arguments:
            if option.flag[0] == "-":
                self.flags[option.flag] = option, option.flag, None
            else:
                self.positionals.append(option)
            if option.required or option.flag[0] != "-":
                self.required[option.dest] = _name(option)
            self.defaults[option.dest] = option.default
        # Every long flag a word before its "=" may abbreviate, in the order declared.
        self.prefixes = {}
        for flag in self.flags:
            for end in range(2, len(flag) + 1 if flag[1] == "-" else 0):
                self.prefixes.setdefault(flag[:end], []).append(flag)

    def _option(self, word: str) -> tuple | None:
        """(option, flag, value given with it or None) if ``word``, not a flag but starting with ``-``, reads as an option.

        The option is None for a word that looks like an option this parser
        does not declare.  ``--flag=value`` gives its value, and so does
        ``-hvalue``; a long flag may be abbreviated to any prefix that no
        other flag shares.  A word that matches no flag reads as a value,
        and this returns None, if it is ``-`` alone, looks like a negative
        number or holds a space.
        """
        if len(word) == 1:
            return None
        head, equals, value = word.partition("=")
        if equals and head in self.flags:
            return self.flags[head][0], head, value
        if word[1] == "-":
            matches, value = self.prefixes.get(head, ()), value if equals else None
        else:
            matches, value = [word[:2]] if word[:2] in self.flags else (), word[2:]
        if len(matches) > 1:
            raise _Answer(self, f"ambiguous option: {word} could match {', '.join(matches)}")
        if matches:
            return self.flags[matches[0]][0], matches[0], value
        if re.match(_NEGATIVE, word) or " " in word:
            return None
        return None, word, None

    def read(self, words: list[str], values: dict, extras: list[str]) -> None:
        """Read ``words`` into ``values`` by dest, defaults included, and add the words no parser reads to ``extras``.

        Every word is first read as an option, a value, or the first ``--``,
        after which every word is a value; a parser with children reads no
        word after its first value.  Then, in order, an option takes its
        value, the next word, which must read as a value; a positional takes
        a value, with a ``--`` just before or after it dropped, or names the
        child that reads every word after it; and any other value is an
        extra.  An error or ``-h`` raises ``_Answer`` at the first word that has it.
        """
        if self.children is not None and words and words[0] in self.children:  # as the loops below would read it
            values[self.positionals[0].dest] = words[0]
            return self.children[words[0]].read(words[1:], values, extras)
        found, flags = [], self.flags
        for at, word in enumerate(words):
            if word in flags:
                found.append(flags[word])
            elif word == "--":
                found += [_SEPARATOR, *[None] * (len(words) - at - 1)]
                break
            else:
                found.append(None if word[:1] != "-" else self._option(word))
                if found[at] is None and self.children is not None:
                    break
        given, positionals, at, stop = {}, self.positionals, 0, len(found)
        while at < stop:
            hit = found[at]
            if hit is not None and hit is not _SEPARATOR:
                option, flag, value = hit
                at += 1
                if option is None:
                    extras.append(words[at - 1])
                elif value is not None or not option.takes_value:
                    self._take(option, self._given(option, flag, value), given)
                elif at == stop or found[at] is not None:
                    raise _Answer(self, f"argument {_name(option)}: expected one argument")
                else:
                    self._take(option, words[at], given)
                    at += 1
                continue
            if self.children is not None and (hit is None or at + 1 < stop):
                self._take(positionals[0], words[at], values)  # refused unless it names a child
                return self.children[words[at]].read(words[at + 1:], values, extras)
            end = _value_span(found, at) if positionals else at
            if end == at:
                extras.append(words[at])
                at += 1
                continue
            raw = words[at:end]
            if len(raw) == 2:
                raw.remove("--")
            self._take(positionals[0], raw[0], given)
            positionals, at = positionals[1:], end
        if not self.required.keys() <= given.keys():
            missing = [name for dest, name in self.required.items() if dest not in given]
            raise _Answer(self, f"the following arguments are required: {', '.join(missing)}")
        values.update(self.defaults)
        values.update(given)

    def _given(self, option: Option, flag: str, value: str | None) -> str | None:
        """The value read with ``flag`` in its word, refused if ``option`` takes none.

        The one short flag, ``-h``, takes none but runs into itself: ``-hh`` reads as ``-h -h``.
        """
        rest = value.lstrip("h") or None if flag == "-h" and value else value
        if rest is not None and not option.takes_value:
            raise _Answer(self, f"argument {_name(option)}: ignored explicit argument {rest!r}")
        return value if option.takes_value else None

    def _take(self, option: Option, raw: str | None, given: dict) -> None:
        """Set ``option``'s dest in ``given`` from its raw value, converted and checked; ``-h`` raises ``_Answer``."""
        if not option.takes_value:
            if option is _ASK_HELP:
                raise _Answer(self)
            given[option.dest] = True
            return
        value = raw
        if option.type is not None:
            try:
                value = option.type(raw)
            except (TypeError, ValueError):
                raise _Answer(self, f"argument {_name(option)}: invalid {option.type.__name__} value: {raw!r}") from None
        if option.choices is not None and value not in option.choices:
            choices = ", ".join(map(repr, option.choices))
            raise _Answer(self, f"argument {_name(option)}: invalid choice: {value!r} (choose from {choices})")
        given[option.dest] = value


@functools.cache
def build_parser() -> _Reader:
    """The parser tree ``main`` reads every argv with, built once: the top parser, whose children are the commands'.

    ``count`` and ``table`` have a parser per family, which the family's
    name selects; ``series`` has one, and so has ``verify``, which reads its
    suite in place.
    """
    family = Option("family", "family", choices=tuple(formulas.FAMILIES))
    engine = Option("--engine", "engine", choices=tuple(ENGINES), default=next(iter(ENGINES)))
    table = Option("--format", "format", choices=("json", "csv"), default="json")
    families = {"count": {}, "table": {}}
    for name, forms in formulas.FAMILIES.items():
        text = _TEXT[name][0] if name in _TEXT else ()
        options = [
            # A count's statistic value, the last name, may be left out, save a joint family's targets.
            Option("--" + option.replace("_", "-"), option, None if option in text else int,
                   required=option != forms.names[-1] or forms.joint, help=_HELP.get(name, {}).get(option))
            for option in forms.names
        ]
        families["count"][name] = _Reader(f"wordstats count {name}", (*options, engine))
        families["table"][name] = _Reader(f"wordstats table {name}", (*options[:-1], engine, table))
    commands = {
        command: _Reader(f"wordstats {command}", (family,), readers, f"{command} one statistic family")
        for command, readers in families.items()
    }
    commands["series"] = _Reader("wordstats series", (
        Option("--gf", "gf", choices=("A", "B"), required=True,
               help="A: words graded by length; B: compositions graded by weight"),
        Option("--k", "k", int, required=True),
        Option("--partition", "partition", required=True, help="threshold:<t> | mod:<s> | blocks:<b1,...>"),
        Option("--order", "order", int, required=True),
        Option("--track", "track", default="all", help="'all', 'none', or comma list like x2,z1"),
        Option("--q", "q", choices=("common", "per-block"), default="common"),
    ), summary="expand a generating function")
    suite = Option("suite", "suite", choices=tuple(sorted(_LISTED)))
    commands["verify"] = _Reader("wordstats verify", (suite, *_BOUNDS), summary="run a cross-engine verification suite")
    command = Option("command", "command", choices=tuple(commands))
    return _Reader("wordstats", (command,), commands,
                   description="Count words over [k] by refined descent, rise, and level statistics.")


def _parse(argv: list[str]) -> SimpleNamespace:
    """``argv``'s namespace: each dest, ``command`` and its family or suite included, to its value.

    A usage error, including words no parser reads, and ``-h`` raise ``_Answer``.
    """
    values, extras = {}, []
    build_parser().read(argv, values, extras)
    if extras:
        raise _Answer(build_parser(), f"unrecognized arguments: {' '.join(extras)}")
    return SimpleNamespace(**values)


def main(argv=None) -> int:
    try:
        args = _parse(sys.argv[1:] if argv is None else argv)
        return _COMMANDS[args.command](args)
    except _Answer as answer:
        from . import usage  # the text no valid argv writes

        if answer.message is None:
            print(usage.help(answer.reader), end="")
            return EXIT_OK
        print(f"{usage.line(answer.reader)}{answer.reader.prog}: error: {answer.message}", file=sys.stderr)
        return EXIT_USAGE
    except BudgetExceededError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_BUDGET
    except InputError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_USAGE


def entrypoint() -> None:
    """Run ``main`` on the process's argv and exit with its code.

    Output that cannot be written, to a closed pipe, a full disk or a stdout
    closed at start (``sys.stdout`` is None), exits 2 with one ``error:``
    line on stderr if stderr is still open, not with a traceback.  stdout
    then points at the null device, so that the interpreter's flush at exit
    does not fail again.
    """
    try:
        if sys.stdout is None:  # print would drop the record without an error
            raise OSError("stdout is closed")
        try:
            code = main()
        finally:
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
