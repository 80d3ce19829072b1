"""Output checks for benchmark responses; they run outside the timed region.

``check`` returns ``None`` for a response that is as expected and a
``Failure`` otherwise.  A failure is a *wrong answer* when the program
reported success with an answer that is wrong or that should have been an
error; an unexpected error exit or an escaped exception is a failure but
not a wrong answer.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

SCHEMA = "wordstats-output/1"


@dataclass(frozen=True)
class Response:
    """What one request produced: exit code, captured streams, escaped exception.

    ``value`` holds the returned object of a direct library call.
    """

    code: int
    stdout: str = ""
    stderr: str = ""
    error: str | None = None
    value: object = None


@dataclass(frozen=True)
class Failure:
    reason: str
    wrong_answer: bool


def options(argv) -> dict[str, str]:
    """``--flag value`` pairs of an argv, ignoring bare switches."""
    out, index = {}, 0
    while index < len(argv):
        if argv[index].startswith("--") and index + 1 < len(argv) and not argv[index + 1].startswith("--"):
            out[argv[index]] = argv[index + 1]
            index += 2
        else:
            index += 1
    return out


def check(request, response: Response, ws) -> Failure | None:
    """Check ``response`` against ``request``; ``ws`` holds the wordstats modules."""
    if response.error is not None:
        return Failure(f"escaped {response.error}", wrong_answer=False)
    if response.code != request.expect:
        return Failure(
            f"exit {response.code}, expected {request.expect}: {response.stderr.strip()[:200]}",
            wrong_answer=response.code == 0,
        )
    try:
        reason = _content(request, response, ws)
    except (ValueError, KeyError, TypeError, IndexError) as exc:
        reason = f"unreadable output: {type(exc).__name__}: {exc}"
    return None if reason is None else Failure(reason, wrong_answer=True)


def _content(request, response: Response, ws) -> str | None:
    if request.kind == "error":
        return "error exit printed a record" if response.stdout.strip() else None
    if request.kind == "solve":
        return _solve(request, response.value, ws)
    record = json.loads(response.stdout)
    if record["schema"] != SCHEMA or record["command"] != request.argv[0]:
        return f"record header {record['schema']}/{record['command']}"
    result = record["result"]
    if request.kind == "table":
        total = sum(int(row["count"]) for row in result["rows"])
        if not total == int(result["total"]) == request.total:
            return f"rows sum to {total}, total {result['total']}, expected {request.total}"
    elif request.kind == "count":
        if int(result["count"]) < 0:
            return f"negative count {result['count']}"
    elif request.kind == "series":
        return _series(request, result)
    elif request.kind == "verify":
        if request.expect == 0 and result["failures"] != 0:
            return f"verify failed: {result['first_failure']}"
        if request.expect == 1 and result["failures"] == 0:
            return "injected fault went unnoticed"
    return None


def compositions(weight: int, k: int) -> int:
    """Number of compositions of ``weight`` with parts in 1..k."""
    ways = [1]
    for w in range(1, weight + 1):
        ways.append(sum(ways[w - part] for part in range(1, min(k, w) + 1)))
    return ways[weight]


def value_at_one(polynomial: str) -> int:
    """A canonically printed polynomial evaluated with every variable at 1."""
    total, sign = 0, 1
    for token in polynomial.split(" "):
        if token in "+-":
            sign = 1 if token == "+" else -1
            continue
        if token.startswith("-"):
            sign, token = -1, token[1:]
        head = token.split("*", 1)[0]
        total += sign * (int(head) if head.isdigit() else 1)
    return total


def _series(request, result) -> str | None:
    opts = options(request.argv)
    k, order = int(opts["--k"]), int(opts["--order"])
    coefficients = result["coefficients"]
    if [c["order"] for c in coefficients] != list(range(order + 1)):
        return f"coefficient orders {[c['order'] for c in coefficients]}"
    for n, coefficient in enumerate(coefficients):
        want = k**n if opts["--gf"] == "A" else compositions(n, k)
        got = value_at_one(coefficient["polynomial"])
        if got != want:
            return f"coefficient {n} sums to {got} at 1, expected {want}"
    return None


def solve_query(argv, ws):
    """(k, partition, tracking spec, order) of a ``solve-block-system`` request."""
    opts = options(argv)
    k = int(opts["--k"])
    kind, _, arg = opts["--partition"].partition(":")
    words = ws.words
    if kind == "threshold":
        partition = words.BlockPartition.threshold(k, int(arg))
    elif kind == "mod":
        partition = words.BlockPartition.mod_residue(k, int(arg))
    else:
        partition = words.BlockPartition.from_blocks(int(b) for b in arg.split(","))
    track = opts["--track"]
    t = partition.t
    if track == "all":
        tracked = {f"{kind}{i}" for kind in "xyz" for i in range(1, t + 1)}
    elif track == "none":
        tracked = set()
    else:
        tracked = set(track.split(","))
    spec = ws.series.TrackingSpec.only(t, tracked, per_block_q=opts["--q"] == "per-block")
    return k, partition, spec, int(opts["--order"])


def _solve(request, solved, ws) -> str | None:
    """1 + F(1) + ... + F(k) must equal the full word series G."""
    query = solve_query(request.argv, ws)
    full = ws.series.build_ak_series(*query)
    total = ws.series.PowerSeries.lift(full.var, full.names, [1], full.order)
    for part in solved:
        total = total + part
    if len(solved) != query[0] or total != full:
        return "1 + sum of first-letter series differs from the word series"
    return None


def same_answer(stdout: str, other: str) -> bool:
    """Two engines' records agree on parameters and result."""
    left, right = json.loads(stdout), json.loads(other)
    return left["parameters"] == right["parameters"] and left["result"] == right["result"]
