"""Property tests over random small queries of the six families.

Each closed-form table of a word family must equal its per-value counts
and the transfer engine's table; a threshold or modulus outside a
family's range must be refused by every engine alike, and so must any
query with one parameter out of range.  Examples are derandomized so a
run is repeatable.
"""

import contextlib
import io
import itertools
import json

from hypothesis import given, settings
from hypothesis import strategies as st

from wordstats import cli, formulas
from wordstats.formulas import LOWEST_THRESHOLD

PROPERTY = settings(max_examples=100, deadline=None, derandomize=True, database=None)

COUNTS = {
    "levels-threshold": formulas.count_levels_threshold,
    "levels-blocks": formulas.count_levels_blocks,
    "des-le": formulas.count_des_le,
    "des-gt": formulas.count_des_gt,
    "des-mod": formulas.count_des_mod,
}


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
    outcomes = {call(*argv, "--engine", engine) for engine in ("closed-form", "transfer", "oracle")}
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
