"""Seeded request streams for the wordstats benchmark.

A workload is a sequence of *rounds*.  A round is a short list of requests
with a fixed composition: the same families, commands and size classes
every round, with the concrete parameters drawn from the seed.  A run
issues ``rounds_for(workload, seconds)`` rounds, a fixed amount of work
that takes about ``seconds`` on the seed commit, so two commits are timed
on the same request list.

The parameters that set a request's cost (alphabet size, length, order,
grid bounds, and the threshold of levels-threshold, des-le and des-gt)
come from *ladders* listed cheap to expensive and walked in a seeded order
in which every prefix takes evenly from the whole ladder, so runs of
different seeds carry nearly the same amount of work.  The seed picks the
rest (other thresholds, residues, statistic values, letter sets,
partitions, malformed variants) and the order of requests in a round.

The program only ever receives the generated argv lists.  Every request
carries the exit code that ``docs/output_schema.md`` prescribes for it:
0 for a valid query, 1 for the ``--inject-fault`` self-test, 2 for usage
errors and 3 for work over the enumeration budget.  No two requests of one
stream are identical.

This module is pure: it imports nothing from wordstats, so the generator
can be tested and inspected without the program.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from math import comb
from typing import Iterator

WORKLOADS = ("tables-closed-form", "tables-transfer", "series-expand", "verify-grid")

FAMILIES = ("levels-threshold", "levels-blocks", "des-le", "des-gt", "des-mod", "hall-remmel")

# Default of WORDSTATS_ENUM_BUDGET; the benchmark unsets the variable.
ENUM_BUDGET = 1 << 24

EXIT_OK, EXIT_VERIFY_FAILED, EXIT_USAGE, EXIT_BUDGET = 0, 1, 2, 3


@dataclass(frozen=True)
class Request:
    """One benchmark request and what its answer must satisfy.

    ``kind`` selects the output check: ``table``, ``count``, ``series``,
    ``verify``, ``solve`` (a direct ``solve_block_system`` call, argv holds
    its query) or ``error`` (expected exit 2 or 3, nothing on stdout).
    """

    kind: str
    argv: tuple[str, ...]
    expect: int = EXIT_OK
    total: int | None = None
    alt: tuple[str, ...] | None = None


# Rounds per second of --seconds: calibrated so that a run measures about
# --seconds of request time on the seed commit (2-core Xeon, Python 3.11).
ROUNDS_PER_SECOND = {
    "tables-closed-form": 6.5,
    "tables-transfer": 1.3,
    "series-expand": 9.0,
    "verify-grid": 1.7,
}


def rounds_for(workload: str, seconds: float) -> int:
    return max(1, round(seconds * ROUNDS_PER_SECOND[workload]))


def rounds(workload: str, seed: int) -> Iterator[list[Request]]:
    """The request stream of ``workload`` for ``seed``, one round at a time."""
    if workload in ("tables-closed-form", "tables-transfer"):
        # Both tables workloads share one stream; only the engine differs.
        return _tables_rounds(random.Random(f"tables/{seed}"), workload)
    if workload == "series-expand":
        return _series_rounds(random.Random(f"series/{seed}"))
    if workload == "verify-grid":
        return _verify_rounds(random.Random(f"verify/{seed}"))
    raise ValueError(f"unknown workload {workload!r}, expected one of {WORKLOADS}")


_GOLDEN = (5**0.5 - 1) / 2


def _spread(rng: random.Random, ladder: list) -> list:
    """Seeded order of ``ladder`` (cheap to expensive) whose every prefix spans it evenly.

    Position i receives the ladder item whose rank matches the rank of the
    golden-ratio point (offset + i * golden) mod 1 among all the points.
    """
    offset = rng.random()
    keys = [(offset + i * _GOLDEN) % 1 for i in range(len(ladder))]
    order = [None] * len(ladder)
    for rank, position in enumerate(sorted(range(len(ladder)), key=keys.__getitem__)):
        order[position] = ladder[rank]
    return order


def _walk(rng: random.Random, ladder: list) -> Iterator:
    """Endless ``_spread`` passes over ``ladder``, each in a fresh seeded order."""
    while True:
        yield from _spread(rng, ladder)


class _Unique:
    """Redraws a request until its argv has not been issued before."""

    def __init__(self):
        self.seen: set[tuple[str, ...]] = set()

    def __call__(self, make) -> Request:
        for _ in range(10_000):
            request = make()
            if request.argv not in self.seen:
                self.seen.add(request.argv)
                return request
        raise RuntimeError("request space exhausted; widen the parameter ranges")


def _strs(*items) -> tuple[str, ...]:
    return tuple(str(item) for item in items)


def _subset(rng: random.Random, m: int) -> str:
    """'all' or a random nonempty comma list of letters in 1..m."""
    if rng.random() < 0.3:
        return "all"
    size = rng.randint(1, m)
    return ",".join(str(v) for v in sorted(rng.sample(range(1, m + 1), size)))


def _multinomial(parts) -> int:
    out, remaining = 1, sum(parts)
    for part in parts:
        out *= comb(remaining, part)
        remaining -= part
    return out


# --- tables-closed-form / tables-transfer -----------------------------------

def _des_le_share(k: int, t: int) -> float:
    """Transfer cost of a des-le table as a share of the t = k one, as timed on the seed commit.

    At t = 1 the DP tracks almost nothing; from t = 2 on its cost grows
    about linearly to the full one.
    """
    return 0.15 if t == 1 else 0.45 + 0.55 * (t - 1) / (k - 1)


def _threshold_ladder(t_values, share=lambda k, t: 1.0) -> list[tuple[int, int, int]]:
    """(k, n, t) triples ordered by transfer cost, ``share`` weighting the threshold."""
    return sorted(((k, n, t) for n in range(12, 29) for k in range(3, 8) for t in t_values(k)),
                  key=lambda knt: (knt[0] ** 2 * knt[1] ** 3 * share(knt[0], knt[2]), knt))


# Cost-setting parameters per family, cheap to expensive.  The transfer DP
# costs about alphabet**2 * n**3 per table; the closed forms depend on n.
# The threshold t is walked too: on des-le it moves the cost tenfold.
_LADDERS = {
    "levels-threshold": _threshold_ladder(lambda k: range(1, k + 1)),
    "des-le": _threshold_ladder(lambda k: range(1, k + 1), _des_le_share),
    "des-gt": _threshold_ladder(lambda k: range(k)),
    "levels-blocks": (
        [(1, n) for n in range(6, 21)] + [(4, 3), (3, 4), (2, 5), (2, 6), (4, 4), (2, 7), (3, 5), (2, 8)]
    ),
    "des-mod": sorted(((alphabet, n) for n in range(10, 19) for alphabet in range(2, 9)),
                      key=lambda an: (an[0] ** 2 * an[1] ** 3, an)),
    # Words in the class: the oracle walks n! arrangements per statistic value.
    "hall-remmel": [5, 6, 6, 7, 7],
}


def _family_query(rng: random.Random, family: str, size):
    """(query argv, number of words the table covers, value flag, value)."""
    if family in ("levels-threshold", "des-le", "des-gt"):
        k, n, t = size
        return _strs("--k", k, "--t", t, "--n", n), k**n, "--s", rng.randint(0, n - 1)
    if family == "levels-blocks":
        parts, n = size
        top = {1: 8, 2: 6, 3: 3, 4: 2}[parts]
        sizes = [rng.randint(1 if parts > 1 else 2, top) for _ in range(parts)]
        targets = ",".join(str(rng.randint(0, (n - 1) // parts)) for _ in range(parts))
        sizes_arg = ",".join(map(str, sizes))
        return _strs("--block-sizes", sizes_arg, "--n", n), sum(sizes) ** n, "--targets", targets
    if family == "des-mod":
        alphabet, n = size
        s = rng.randint(2, min(4, alphabet))
        query = _strs("--s", s, "--alphabet", alphabet, "--r", rng.randint(1, s), "--n", n)
        return query, alphabet**n, "--p", rng.randint(0, n - 1)
    if family == "hall-remmel":
        m = rng.randint(3, min(5, size))
        rho = [1] * m
        for _ in range(size - m):
            rho[rng.randrange(m)] += 1
        query = _strs("--rho", ",".join(map(str, rho)), "--x", _subset(rng, m), "--y", _subset(rng, m))
        return query, _multinomial(rho), "--s", rng.randint(0, size - 1)
    raise ValueError(family)


def _engines(workload: str, family: str) -> tuple[str, str]:
    """(engine under test, second engine its answers are compared with)."""
    # The transfer engine rejects hall-remmel; the oracle answers it instead.
    dp = "oracle" if family == "hall-remmel" else "transfer"
    if workload == "tables-closed-form":
        return "closed-form", dp
    return dp, "closed-form"


def _tables_answer(rng, workload: str, family: str, command: str, size) -> Request:
    query, total, flag, value = _family_query(rng, family, size)
    engine, other = _engines(workload, family)
    head = (command, family) + query
    if command == "count":
        head += (flag, str(value))
    return Request(
        command,
        head + ("--engine", engine),
        total=total if command == "table" else None,
        alt=head + ("--engine", other),
    )


def _tables_malformed(rng, index: int, engine: str) -> Request:
    k, n = rng.randint(3, 9), rng.randint(2, 30)
    kind = index % 5
    if kind == 0:
        argv = _strs("table", "des-le", "--k", k, "--t", "x", "--n", n)
    elif kind == 1:  # count without the statistic value
        argv = _strs("count", "levels-threshold", "--k", k, "--t", rng.randint(1, k), "--n", n)
    elif kind == 2:
        argv = _strs("count", "des-gt", "--k", k, "--t", 1, "--n", n, "--s", -rng.randint(1, 9))
    elif kind == 3:
        argv = _strs("table", "levels-blocks", "--block-sizes", f"{rng.randint(1, 4)},x", "--n", n)
    else:
        argv = _strs("table", "des-any", "--k", k, "--t", 1, "--n", n)
    return Request("error", argv + ("--engine", engine), expect=EXIT_USAGE)


def _tables_over_budget(rng, index: int) -> Request:
    """A brute-force query the budget check must refuse before any work."""
    if index % 2 == 0:
        k = rng.randint(4, 6)
        n = next(n for n in itertools.count(1) if k**n > ENUM_BUDGET) + rng.randint(0, 8)
        argv = _strs("count", "des-le", "--k", k, "--t", 2, "--n", n, "--s", rng.randint(0, n - 1))
    else:
        rho = [rng.randint(2, 4) for _ in range(4)]
        while sum(rho) < 11:  # 11! is the first factorial over the budget
            rho[rng.randrange(4)] += 1
        argv = _strs("count", "hall-remmel", "--rho", ",".join(map(str, rho)),
                     "--x", "all", "--y", "all", "--s", rng.randint(0, 9))
    return Request("error", argv + ("--engine", "oracle"), expect=EXIT_BUDGET)


def _tables_rounds(rng: random.Random, workload: str) -> Iterator[list[Request]]:
    unique = _Unique()
    walks = {
        (family, command): _walk(rng, _LADDERS[family])
        for family in FAMILIES for command in ("table", "count")
    }
    # Counts over a class of 8 letters: one oracle call walks 8! arrangements.
    walks["hall-remmel", "count"] = _walk(rng, [7, 8])
    engine = _engines(workload, "des-le")[0]
    for index in itertools.count():
        batch = []
        for family in FAMILIES:
            for command in ("table", "table", "count"):
                walk = walks[family, command]
                batch.append(unique(lambda: _tables_answer(rng, workload, family, command, next(walk))))
        batch.append(unique(lambda: _tables_malformed(rng, index, engine)))
        batch.append(unique(lambda: _tables_over_budget(rng, index)))
        rng.shuffle(batch)
        yield batch


# --- series-expand ---------------------------------------------------------

def _partition(rng: random.Random, k: int, shape: str) -> tuple[str, int]:
    """(partition spec, number of blocks t) of the given shape."""
    if shape == "threshold":
        return f"threshold:{rng.randint(0, k)}", 2
    kind, _, arg = shape.partition(":")
    if kind == "mod":
        return shape, int(arg)
    t = int(arg)
    blocks = [rng.randint(1, t) for _ in range(k)]
    blocks[rng.randrange(k)] = t
    return "blocks:" + ",".join(map(str, blocks)), t


def _tracking(rng: random.Random, t: int, mode: str) -> str:
    if mode in ("all", "none"):
        return mode
    markers = [f"{kind}{i}" for kind in "xyz" for i in range(1, t + 1)]
    return ",".join(sorted(rng.sample(markers, rng.randint(1, min(3, len(markers) - 1)))))


# Truncation orders by request kind, tracking and alphabet size: fully
# tracked builds grow much faster, and solve_block_system does several builds.
_ORDERS = {
    ("series", "all"): {2: (10, 14), 3: (6, 9), 4: (4, 6)},
    ("series", "partial"): {2: (12, 18), 3: (9, 13), 4: (7, 10)},
    ("series", "none"): {2: (16, 26), 3: (12, 18), 4: (10, 14)},
    ("solve", "all"): {2: (6, 9), 3: (4, 6), 4: (3, 5)},
    ("solve", "partial"): {2: (8, 12), 3: (6, 9), 4: (5, 7)},
}


def _series_ladder(kind: str, mode: str) -> list[tuple]:
    """(k, partition shape, q, order) for every cost class of a series request."""
    return [
        (k, shape, q, order)
        for k, (low, high) in _ORDERS[kind, mode].items()
        for shape in ["threshold", "blocks:2", "blocks:3"] + [f"mod:{s}" for s in range(1, k + 1)]
        for q in ("common", "per-block")
        for order in range(low, high + 1)
    ]


def _series_query(rng: random.Random, mode: str, size) -> tuple[str, ...]:
    k, shape, q, order = size
    partition, t = _partition(rng, k, shape)
    return _strs("--k", k, "--partition", partition, "--track", _tracking(rng, t, mode),
                 "--q", q, "--order", order)


def _series_malformed(rng: random.Random, index: int) -> Request:
    k, order = rng.randint(2, 6), rng.randint(0, 40)
    gf = rng.choice("AB")
    partition, track = f"mod:{rng.randint(1, k)}", "all"
    kind = index % 5
    if kind == 0:
        # Contract: exit 2.  The seed lets int() raise a bare ValueError here.
        partition = "threshold:abc"
    elif kind == 1:
        partition = f"ring:{rng.randint(1, k)}"
    elif kind == 2:
        track = f"w{rng.randint(1, 3)}"
    elif kind == 3:
        order = -rng.randint(1, 40)
    else:
        partition = "blocks:" + ",".join("1" for _ in range(k + rng.randint(1, 3)))
    argv = _strs("series", "--gf", gf, "--k", k, "--partition", partition,
                 "--track", track, "--order", order)
    return Request("error", argv, expect=EXIT_USAGE)


def _series_rounds(rng: random.Random) -> Iterator[list[Request]]:
    unique = _Unique()
    plan = (
        [("series", "A", "all")] * 3 + [("series", "A", "partial")] * 2
        + [("series", "A", "none")] * 2
        + [("series", "B", "all"), ("series", "B", "partial"), ("series", "B", "none")]
        + [("solve", "A", "all"), ("solve", "A", "partial")]
    )
    walks = {slot: _walk(rng, _series_ladder(slot[0], slot[2])) for slot in sorted(set(plan))}

    def make(slot):
        kind, gf, mode = slot
        query = _series_query(rng, mode, next(walks[slot]))
        head = ("series", "--gf", gf) if kind == "series" else ("solve-block-system",)
        return Request(kind, head + query)

    for index in itertools.count():
        batch = [unique(lambda: make(slot)) for slot in plan]
        batch.append(unique(lambda: _series_malformed(rng, index)))
        rng.shuffle(batch)
        yield batch


# --- verify-grid -------------------------------------------------------------

def _verify_catalog() -> dict[str, list[tuple[str, ...]]]:
    """Every grid-bound choice per suite, cheap to expensive, each well under a second."""
    def kn(limits, cost):
        pairs = [(k, n) for k, top in limits for n in range(top + 1)]
        return [_strs("--k-max", k, "--n-max", n) for k, n in sorted(pairs, key=lambda p: cost(*p))]

    hall_remmel = [(m, w, n) for m, top in ((1, 7), (2, 7), (3, 5), (4, 2))
                   for w in range(top + 1) for n in range(9)]
    hall_remmel.sort(key=lambda mwn: (4 ** mwn[0] * mwn[0] ** mwn[1], mwn[2]))
    return {
        "oracle-vs-transfer": kn([(1, 8), (2, 9), (3, 7), (4, 6), (5, 5)], lambda k, n: (k**n * n, k)),
        "series-vs-oracle": kn([(1, 9), (2, 9), (3, 8), (4, 6), (5, 5)], lambda k, n: (k * k * n * n, k)),
        "formulas-vs-oracle": kn([(1, 7), (2, 6), (3, 5), (4, 5), (5, 4), (6, 4)],
                                 lambda k, n: (k * 3**n, k)),
        "identities": [_strs("--n-max", n) for n in range(23)],
        "hall-remmel": [_strs("--m-max", m, "--weight-max", w, "--n-max", n) for m, w, n in hall_remmel],
    }


def _verify_malformed(rng: random.Random, index: int) -> Request:
    n = rng.randint(0, 99)
    kind = index % 3
    if kind == 0:
        argv = _strs("verify", rng.choice(("oracle-vs-series", "brute", "all")), "--n-max", n)
    elif kind == 1:  # the fault switch belongs to formulas-vs-oracle only
        suite = rng.choice(("oracle-vs-transfer", "series-vs-oracle", "identities", "hall-remmel"))
        argv = _strs("verify", suite, "--n-max", n, "--inject-fault")
    else:
        argv = _strs("verify", "identities", "--n-max", f"{n}x")
    return Request("error", argv, expect=EXIT_USAGE)


def _verify_rounds(rng: random.Random) -> Iterator[list[Request]]:
    """The suite catalogs interleaved in proportion to their sizes, ten checks per round.

    Each round also holds one malformed request; the first round holds the
    single ``--inject-fault`` self-test, which must exit 1.
    """
    keyed = []
    for suite, items in _verify_catalog().items():
        ordered = _spread(rng, items)
        for position, bounds in enumerate(ordered):
            keyed.append(((position + rng.random()) / len(ordered), ("verify", suite) + bounds))
    keyed.sort()
    stream = [Request("verify", argv) for _, argv in keyed]
    unique = _Unique()
    fault_bounds = _strs("--k-max", rng.randint(1, 3), "--n-max", rng.randint(1, 4))
    fault = Request("verify", ("verify", "formulas-vs-oracle") + fault_bounds + ("--inject-fault",),
                    expect=EXIT_VERIFY_FAILED)
    for index, start in enumerate(range(0, len(stream), 10)):
        batch = stream[start:start + 10] + [unique(lambda: _verify_malformed(rng, index))]
        if index == 0:
            batch.append(fault)
        rng.shuffle(batch)
        yield batch
