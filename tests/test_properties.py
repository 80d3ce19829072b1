"""Property tests over random small queries of the six families.

Each closed-form table of a word family must equal its per-value counts
and the transfer engine's table; a threshold or modulus outside a
family's range must be refused by every engine alike, and so must any
query with one parameter out of range.  The fully tracked word series
under a random ``blocks:`` partition must read back as the transfer
engine's distribution.  The CLI's parsers must read an argv as an
argparse tree that declares the same arguments reads it: into the same
namespace, or, on Python up to 3.12 in 80 columns, with the same exit code
and text.  Examples are derandomized so a run is repeatable.
"""

import argparse
import contextlib
import functools
import io
import itertools
import json
import os
import sys
from unittest import mock

import pytest

from hypothesis import given, settings
from hypothesis import strategies as st

from wordstats import (
    TrackingSpec,
    build_ak_series,
    cli,
    coefficient_distribution,
    formulas,
    transfer_distribution,
)

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

COUNTS = {
    "levels-threshold": formulas.count_levels_threshold,
    "levels-blocks": formulas.count_levels_blocks,
    "des-le": formulas.count_des_le,
    "des-gt": formulas.count_des_gt,
    "des-mod": formulas.count_des_mod,
}

# Smallest threshold t each threshold family accepts.
LOWEST_THRESHOLD = {"levels-threshold": 1, "des-le": 1, "des-gt": 0}


def call(*argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        code = cli.main([str(arg) for arg in argv])
    return code, out.getvalue(), err.getvalue()


@st.composite
def queries(draw):
    """(family, cli arguments, closed-form parameters) of a small valid query."""
    family = draw(st.sampled_from(sorted(COUNTS)))
    if family == "levels-blocks":
        sizes = draw(st.lists(st.integers(0, 3), min_size=1, max_size=3).filter(any))
        n = draw(st.integers(0, 5))
        return family, ["--block-sizes", ",".join(map(str, sizes)), "--n", n], (tuple(sizes), n)
    if family == "des-mod":
        s = draw(st.integers(2, 4))
        alphabet, r, n = draw(st.integers(1, 7)), draw(st.integers(1, s)), draw(st.integers(0, 6))
        return family, ["--s", s, "--alphabet", alphabet, "--r", r, "--n", n], (s, alphabet, r, n)
    k = draw(st.integers(1, 5))
    t, n = draw(st.integers(LOWEST_THRESHOLD[family], k)), draw(st.integers(0, 7))
    return family, ["--k", k, "--t", t, "--n", n], (k, t, n)


@PROPERTY
@given(queries())
def test_closed_form_table_equals_counts(query):
    family, _, params = query
    table = formulas.distribution(family, params)
    n = params[-1]
    if family == "levels-blocks":
        values = itertools.product(range(n + 1), repeat=len(params[0]))
    else:
        values = range(n + 2)
    for value in values:
        assert table.get(value, 0) == COUNTS[family](*params, value), value


@PROPERTY
@given(queries())
def test_closed_form_table_equals_transfer_table(query):
    family, args, _ = query
    closed = call("table", family, *args)
    transfer = call("table", family, *args, "--engine", "transfer")
    assert closed[0] == transfer[0] == 0
    assert json.loads(closed[1])["result"] == json.loads(transfer[1])["result"]


@st.composite
def range_queries(draw):
    """count queries whose threshold or modulus may lie outside the family's range."""
    family = draw(st.sampled_from(["levels-threshold", "des-le", "des-gt", "des-mod"]))
    n = draw(st.integers(0, 5))
    if family == "des-mod":
        s = draw(st.integers(-1, 4))
        return ["count", family, "--s", s, "--alphabet", draw(st.integers(1, 5)),
                "--r", 1, "--n", n, "--p", draw(st.integers(0, n))]
    k = draw(st.integers(1, 4))
    return ["count", family, "--k", k, "--t", draw(st.integers(-1, k + 1)), "--n", n,
            "--s", draw(st.integers(0, n))]


@PROPERTY
@given(range_queries())
def test_every_engine_accepts_the_same_thresholds_and_moduli(argv):
    outcomes = {call(*argv, "--engine", engine) for engine in cli.ENGINES}
    codes = {code for code, _, _ in outcomes}
    assert codes in ({0}, {cli.EXIT_USAGE}), outcomes
    if codes == {0}:
        assert len({json.loads(out)["result"]["count"] for _, out, _ in outcomes}) == 1
    else:
        assert len({err for _, _, err in outcomes}) == 1, outcomes


NEGATIVE = st.integers(-3, -1)


@st.composite
def invalid_queries(draw):
    """(count or table argv, engines serving the family) with one parameter out of range."""
    family = draw(st.sampled_from(sorted(COUNTS) + ["hall-remmel"]))
    command = draw(st.sampled_from(["count", "table"]))
    n = draw(st.integers(0, 4))
    if family == "hall-remmel":
        rho = draw(st.lists(st.integers(0, 2), min_size=1, max_size=3))
        letters = {"x": "all", "y": "all"}
        if draw(st.booleans()):
            rho[draw(st.integers(0, len(rho) - 1))] = draw(NEGATIVE)
        else:
            stray = draw(st.one_of(st.integers(-2, 0), st.integers(len(rho) + 1, len(rho) + 3)))
            letters[draw(st.sampled_from(["x", "y"]))] = f"1,{stray}"
        query = {"rho": ",".join(map(str, rho)), **letters}
        value = {"s": 0}
    elif family == "levels-blocks":
        sizes = draw(st.lists(st.integers(1, 3), min_size=1, max_size=3))
        targets = [0] * len(sizes)
        faults = ["length", "negative size", "no letters"]
        if command == "count":
            faults += ["negative target", "target count"]
        fault = draw(st.sampled_from(faults))
        if fault == "length":
            n = draw(NEGATIVE)
        elif fault == "negative size":
            sizes[draw(st.integers(0, len(sizes) - 1))] = draw(NEGATIVE)
        elif fault == "no letters":
            sizes = [0] * len(sizes)
        elif fault == "negative target":
            targets[draw(st.integers(0, len(targets) - 1))] = draw(NEGATIVE)
        else:
            targets = [0] * draw(st.integers(0, 4).filter(lambda count: count != len(sizes)))
        query = {"block-sizes": ",".join(map(str, sizes)), "n": n}
        value = {"targets": ",".join(map(str, targets))}
    elif family == "des-mod":
        s, alphabet = draw(st.integers(2, 4)), draw(st.integers(1, 5))
        r = draw(st.integers(1, s))
        fault = draw(st.sampled_from(["length", "modulus", "residue"]))
        if fault == "length":
            n = draw(NEGATIVE)
        elif fault == "modulus":
            s, r = draw(st.integers(-1, 1)), 1
        else:
            r = draw(st.one_of(st.integers(-1, 0), st.integers(s + 1, s + 3)))
        query = {"s": s, "alphabet": alphabet, "r": r, "n": n}
        value = {"p": 0}
    else:
        k = draw(st.integers(1, 4))
        t = draw(st.integers(LOWEST_THRESHOLD[family], k))
        if draw(st.booleans()):
            n = draw(NEGATIVE)
        else:
            t = draw(st.one_of(st.integers(-2, LOWEST_THRESHOLD[family] - 1),
                               st.integers(k + 1, k + 2)))
        query = {"k": k, "t": t, "n": n}
        value = {"s": 0}
    options = {**query, **value} if command == "count" else query
    argv = [command, family] + [f"--{flag}={arg}" for flag, arg in options.items()]
    engines = ["closed-form", "oracle"] + ([] if family == "hall-remmel" else ["transfer"])
    return argv, engines


@PROPERTY
@given(invalid_queries())
def test_every_engine_refuses_an_invalid_query_alike(query):
    argv, engines = query
    outcomes = {call(*argv, "--engine", engine) for engine in engines}
    assert len(outcomes) == 1, outcomes
    code, out, err = outcomes.pop()
    assert code == cli.EXIT_USAGE, err
    assert out == ""
    assert err.startswith("error: ")


@st.composite
def blocks_partitions(draw):
    """A partition in the series command's ``blocks:`` grammar, and a truncation order."""
    k = draw(st.integers(1, 4))
    blocks = draw(st.lists(st.integers(1, 3), min_size=k, max_size=k))
    return cli._parse_partition("blocks:" + ",".join(map(str, blocks)), k), draw(st.integers(0, 4))


@PROPERTY
@given(blocks_partitions())
def test_series_coefficients_equal_transfer_distribution(query):
    partition, order = query
    spec = TrackingSpec.all_tracked(partition.t)
    series = build_ak_series(partition.k, partition, spec, order)
    for n in range(order + 1):
        got = coefficient_distribution(series, spec, partition, n)
        assert got == transfer_distribution(partition.k, n, partition)


# Values a string-typed option of a routed leaf takes, keyed by its dest.
STRING_VALUES = {
    "block_sizes": ["1,1", "2,1", "0,1"],
    "targets": ["1,0", "0,1,1", ""],
    "rho": ["1,1", "2,1", "1,0,2"],
    "x": ["all", "1", "1,2"],
    "y": ["all", "2", "1,3"],
    "partition": ["threshold:1", "mod:2", "blocks:1,2"],
    "track": ["all", "none", "x1,z2"],
}

READ_LEAVES = sorted(cli.build_parser())


@functools.cache
def argparse_tree() -> argparse.ArgumentParser:
    """The reference: an argparse tree that declares the arguments of ``cli.build_parser()``'s records.

    ``count`` and ``table`` have a subparser per family, and ``verify`` one
    parser whose every suite's leaf declares the same arguments.
    """

    def leaf(parser, options) -> None:
        for option in options:
            kwargs = {"type": option.type, "choices": option.choices} if option.takes_value else {"action": "store_true"}
            if option.flag[0] == "-":
                kwargs.update(dest=option.dest, required=option.required)
            parser.add_argument(option.flag, default=option.default, help=option.help, **kwargs)

    routes = cli.build_parser()
    parser = argparse.ArgumentParser(prog="wordstats", description=cli._DESCRIPTION)
    sub = parser.add_subparsers(dest="command", required=True)
    for command in ("count", "table"):
        families = sub.add_parser(command, help=cli._SUMMARIES[command]).add_subparsers(dest="family", required=True)
        for name in formulas.FAMILIES:
            leaf(families.add_parser(name), routes[command, name][1:])
    leaf(sub.add_parser("series", help=cli._SUMMARIES["series"]), routes["series",])
    leaf(sub.add_parser("verify", help=cli._SUMMARIES["verify"]), routes["verify", min(cli.VERIFY_SUITES)])
    return parser


def argparse_reads(argv):
    """The reference's reading of ``argv``: its namespace's attributes, or its exit code, stdout and stderr in 80 columns."""
    out, err = io.StringIO(), io.StringIO()
    with mock.patch.dict(os.environ, {"COLUMNS": "80"}), \
            contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            return vars(argparse_tree().parse_args(list(argv)))
        except SystemExit as exc:
            return exc.code, out.getvalue(), err.getvalue()


def reads(argv):
    """``cli``'s reading of ``argv``: its namespace's attributes, or ``main``'s exit code, stdout and stderr."""
    try:
        return vars(cli._parse(list(argv)))
    except cli._Answer:
        return call(*argv)


# The text of Python 3.13's argparse wraps usage lines differently; ``cli`` keeps 3.12's.
OLD_ARGPARSE = pytest.mark.skipif(sys.version_info >= (3, 13), reason="Python 3.13's argparse wraps usage differently")


@st.composite
def leaf_argvs(draw):
    """An argv: the options of one routed leaf given plainly, maybe with one mutation.

    A flag that takes no value is drawn absent, present, repeated or as
    ``--flag=1``.  A verify leaf always gives the bounds its suite takes,
    and may give its suite after them.  A mutation abbreviates a flag,
    gives its value after ``=``, repeats it, gives it a value of the wrong
    kind or a negative one, drops it or its value, or adds ``-h`` or an
    unknown word.
    """
    key = draw(st.sampled_from(READ_LEAVES))
    taken = cli.VERIFY_SUITES[key[1]][1] if key[0] == "verify" else {}
    pairs = []
    for option in cli.build_parser()[key]:
        if option.flag[0] != "-":  # a positional is the route's own word
            continue
        if not option.takes_value:
            pairs += draw(st.sampled_from([[], [[option.flag]], [[option.flag]] * 2, [[option.flag + "=1"]]]))
            continue
        if not option.required and option.dest not in taken and draw(st.booleans()):
            continue
        if option.choices is not None:
            value = draw(st.sampled_from(option.choices))
        elif option.type is int:
            value = str(draw(st.integers(0, 3)))
        else:
            value = draw(st.sampled_from(STRING_VALUES[option.dest]))
        pairs.append([option.flag, value])
    pairs = draw(st.permutations(pairs))
    mutation = draw(st.none() | st.sampled_from(
        ["abbreviate", "equals", "repeat", "value", "negative", "drop", "bare", "help", "extra"]
    ))
    if pairs and mutation in ("abbreviate", "equals", "repeat", "value", "negative", "drop", "bare"):
        i = draw(st.integers(0, len(pairs) - 1))
        flag, *value = pairs[i]
        if mutation == "abbreviate":
            pairs[i] = [flag[:draw(st.integers(3, len(flag) - 1))] if len(flag) > 3 else flag, *value]
        elif mutation == "equals":
            pairs[i] = [f"{flag}={value[0] if value else 1}"]
        elif mutation == "repeat":
            again = [flag, draw(st.sampled_from([value[0], "2"]))] if value else [flag]
            pairs.insert(draw(st.integers(0, len(pairs))), again)
        elif mutation in ("value", "negative"):
            wrong = ["-x", "x", "1.5", "bogus", "--", "-"] if mutation == "value" else ["-1", "-4", "-.5"]
            pairs[i] = [flag, draw(st.sampled_from(wrong))]
        elif mutation == "bare":
            pairs[i] = [flag]
        else:
            del pairs[i]
    words = [word for pair in pairs for word in pair]
    if mutation in ("help", "extra"):
        words.insert(draw(st.integers(0, len(words))), "-h" if mutation == "help" else "extra")
    if key[0] == "verify" and draw(st.booleans()):
        return ["verify", *words, key[1]]
    return [*key, *words]


@OLD_ARGPARSE
@PROPERTY
@given(leaf_argvs())
def test_reader_reads_like_argparse(argv):
    assert reads(argv) == argparse_reads(argv)


@OLD_ARGPARSE
@pytest.mark.parametrize("key", [()] + sorted({key[:1] for key in READ_LEAVES} | set(READ_LEAVES)), ids=" ".join)
def test_help_of_every_parser_is_the_one_argparse_writes(key):
    argv = [*key, "-h"]
    code, out, err = reads(argv)
    assert (code, err) == (0, "") and out.startswith("usage: wordstats")
    assert (code, out, err) == argparse_reads(argv)
