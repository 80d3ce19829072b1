"""bench/checks.py's solve check, which compares series on every ``series-expand`` solve request, on this checkout."""

import itertools

import pytest

from test_golden import golden

checks, workloads = golden.checks, golden.workloads
ws = golden._program()

# The solve requests of the seed-1 series-expand stream's first rounds, two per round.
SOLVES = [
    request
    for batch in itertools.islice(workloads.rounds("series-expand", 1), 3)
    for request in batch
    if request.kind == "solve"
]


def test_the_rounds_hold_solve_requests():
    assert len(SOLVES) == 6


@pytest.mark.parametrize("solve", SOLVES, ids=lambda solve: " ".join(solve.argv[1:]))
def test_each_answer_passes_and_one_changed_coefficient_fails(solve):
    answer = ws.series.solve_block_system(*checks.solve_query(solve.argv, ws))
    assert checks.check(solve, checks.Response(0, value=answer), ws) is None
    # Double one term of the last letter's top coefficient; the changed series is built as the engine builds one.
    last = answer[-1]
    terms = [dict(coefficient.terms) for coefficient in last.coeffs]
    key = next(iter(terms[-1]))
    terms[-1][key] *= 2
    changed = [*answer[:-1], ws.series.PowerSeries(last.var, last.names, ws.polynomials.adopt(last.names, terms))]
    assert checks.check(solve, checks.Response(0, value=changed), ws) == checks.Failure(
        "1 + sum of first-letter series differs from the word series", wrong_answer=True
    )
