"""Spans and work counters recorded around the public functions of wordstats.

Nothing inside ``src/`` is changed: ``install`` replaces each public
function at the import site its callers use (``wordstats.cli.count_matching``,
``wordstats.formulas.binom``, ``Polynomial.__mul__``, ...) with a wrapper
that records a span, and ``uninstall`` puts the originals back.

A span has a name, a start and an end (``perf_counter_ns``), the index of
the span that was open when it started (its parent, -1 for none) and the
request id the benchmark set.  Spans are kept in flat arrays in memory and
written out once, by ``write_spans``.  A span's self time is its duration
minus the part of its interval that its child spans cover.

Layers are the modules of wordstats: ``words`` is folded into ``oracle``
and ``combinat`` into ``formulas``.  ``PER_LAYER`` lists every per-layer
metric; ``BENCHMARK.json`` declares the same list.
"""

from __future__ import annotations

import functools
from array import array
from collections import defaultdict
from time import perf_counter_ns

SUITES = {
    "oracle-vs-transfer": "oracle_vs_transfer",
    "series-vs-oracle": "series_vs_oracle",
    "formulas-vs-oracle": "formulas_vs_oracle",
    "identities": "identities_suite",
    "hall-remmel": "hall_remmel_suite",
}

CLOSED_FORMS = {
    "levels-threshold": "count_levels_threshold",
    "levels-blocks": "count_levels_blocks",
    "des-le": "count_des_le",
    "des-gt": "count_des_gt",
    "des-mod": "count_des_mod",
    "hall-remmel": "hall_remmel_count",
}

SPAN_METRICS = (
    ["cli.main"]
    + [f"formulas.{fn}" for fn in CLOSED_FORMS.values()]
    + ["oracle.statistic_distribution", "oracle.transfer_distribution",
       "oracle.brute_distribution", "oracle.rearrangement_distribution"]
    + ["series.build_ak_series", "series.build_bk_series", "series.solve_block_system",
       "series.PowerSeries.divide"]
    + ["polynomials.Polynomial.mul", "polynomials.Polynomial.str"]
    + ["identities.check"]
)

# (name, unit, better) of every per-layer metric, in report order.
PER_LAYER = (
    [(f"{span}.{field}", unit, "lower") for span in SPAN_METRICS
     for field, unit in (("calls", "count"), ("s", "s"))]
    + [
        ("cli.main.self_s", "s", "lower"),
        ("cli.engine_calls_per_table", "calls/request", "lower"),
        ("formulas.binom.calls", "count", "lower"),
        ("oracle.transfer_distribution.entries", "count", "lower"),
        ("oracle.brute_distribution.words", "count", "lower"),
        ("oracle.rearrangement_distribution.words", "count", "lower"),
        ("series.terms", "count", "lower"),
        ("polynomials.Polynomial.mul.term_pairs", "count", "lower"),
    ]
    + [(f"verify.{suite}.{field}", unit, better) for suite in SUITES
       for field, unit, better in (("s", "s", "lower"), ("checked", "count", "higher"))]
    + [("trace.overhead_ratio", "ratio", "lower")]
)


class Tracer:
    """In-memory span and counter store; records only while ``enabled``."""

    def __init__(self):
        self.enabled = False
        self.request = -1
        self.names: list[str] = []
        self._ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.request_id = array("i")
        self.start = array("q")
        self.end = array("q")
        self._open: list[int] = []
        self.counts: dict[str, int] = defaultdict(int)

    def span(self, name: str, fn, work=None):
        """``fn`` recorded as span ``name``; ``work(counts, args, result)`` adds counters."""
        name_id = self._ids.setdefault(name, len(self.names))
        if name_id == len(self.names):
            self.names.append(name)
        calls = f"{name}.calls"
        counts, stack = self.counts, self._open

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if not self.enabled:
                return fn(*args, **kwargs)
            index = len(self.start)
            self.name.append(name_id)
            self.parent.append(stack[-1] if stack else -1)
            self.request_id.append(self.request)
            self.end.append(0)
            counts[calls] += 1
            stack.append(index)
            self.start.append(perf_counter_ns())
            try:
                result = fn(*args, **kwargs)
            finally:
                self.end[index] = perf_counter_ns()
                stack.pop()
            if work is not None:
                work(counts, args, result)
            return result

        return traced

    def counter(self, key: str, fn):
        """``fn`` with each call counted under ``key``, without a span."""
        counts = self.counts

        @functools.wraps(fn)
        def counted(*args, **kwargs):
            if self.enabled:
                counts[key] += 1
            return fn(*args, **kwargs)

        return counted

    def self_times(self) -> list[int]:
        return self_times(self.start, self.end, self.parent)

    def metrics(self, table_requests: int, overhead_ratio: float) -> dict[str, float]:
        """Every ``PER_LAYER`` metric, zero for layers the run did not reach."""
        out: dict[str, float] = {name: 0 for name, _, _ in PER_LAYER}
        seconds: dict[str, int] = defaultdict(int)
        for name_id, start, end in zip(self.name, self.start, self.end):
            seconds[self.names[name_id]] += end - start
        for span in SPAN_METRICS:
            out[f"{span}.calls"] = self.counts.get(f"{span}.calls", 0)
            out[f"{span}.s"] = seconds.get(span, 0) / 1e9
        main_id = self._ids.get("cli.main")
        out["cli.main.self_s"] = sum(
            own for own, name_id in zip(self.self_times(), self.name) if name_id == main_id
        ) / 1e9
        out["cli.engine_calls_per_table"] = (
            self.counts.get("cli.table_engine_calls", 0) / table_requests if table_requests else 0
        )
        for key in ("formulas.binom.calls", "oracle.transfer_distribution.entries",
                    "oracle.brute_distribution.words", "oracle.rearrangement_distribution.words",
                    "series.terms", "polynomials.Polynomial.mul.term_pairs"):
            out[key] = self.counts.get(key, 0)
        for suite in SUITES:
            out[f"verify.{suite}.s"] = seconds.get(f"verify.{suite}", 0) / 1e9
            out[f"verify.{suite}.checked"] = self.counts.get(f"verify.{suite}.checked", 0)
        out["trace.overhead_ratio"] = overhead_ratio
        return out

    def write_spans(self, path) -> None:
        with open(path, "w", encoding="utf-8") as handle:
            handle.write("span,parent,request,name,start_ns,end_ns\n")
            for index, row in enumerate(zip(self.parent, self.request_id, self.name,
                                            self.start, self.end)):
                parent, request, name_id, start, end = row
                handle.write(f"{index},{parent},{request},{self.names[name_id]},{start},{end}\n")


def self_times(start, end, parent) -> list[int]:
    """Per span: its duration minus the union of its children's intervals within it."""
    children: dict[int, list[int]] = defaultdict(list)
    for index, up in enumerate(parent):
        if up >= 0:
            children[up].append(index)
    out = []
    for index, (lo, hi) in enumerate(zip(start, end)):
        covered, reach = 0, lo
        for c_lo, c_hi in sorted((start[c], end[c]) for c in children.get(index, ())):
            c_lo, c_hi = max(c_lo, reach), min(c_hi, hi)
            if c_hi > c_lo:
                covered += c_hi - c_lo
                reach = c_hi
        out.append(hi - lo - covered)
    return out


# --- work counters: (counts, args, result) -> None ---------------------------

def _entries(counts, args, result):
    counts["oracle.transfer_distribution.entries"] += len(result.entries)


def _brute_words(counts, args, result):
    counts["oracle.brute_distribution.words"] += result.total()


def _class_words(counts, args, result):
    counts["oracle.rearrangement_distribution.words"] += sum(result.values())


def _series_terms(counts, args, result):
    counts["series.terms"] += sum(len(c.terms) for c in result.coeffs)


def _term_pairs(counts, args, result):
    left, right = args
    counts["polynomials.Polynomial.mul.term_pairs"] += len(left.terms) * (
        len(right.terms) if hasattr(right, "terms") else 1
    )


def _suite_checked(suite):
    def work(counts, args, result):
        counts[f"verify.{suite}.checked"] += result.checked
    return work


class Patches:
    """Installs the tracer's wrappers at every import site and restores them."""

    def __init__(self, tracer: Tracer, ws):
        self.tracer = tracer
        self.ws = ws
        self._saved: list[tuple[object, str, object]] = []

    def _replace(self, owner, key: str, wrapper) -> None:
        if isinstance(owner, dict):
            original = owner[key]
            owner[key] = wrapper(original)
        else:
            original = getattr(owner, key)
            setattr(owner, key, wrapper(original))
        self._saved.append((owner, key, original))

    def install(self) -> None:
        tracer, ws = self.tracer, self.ws

        def span(name, work=None):
            return lambda fn: tracer.span(name, fn, work)

        self._replace(ws.cli, "main", span("cli.main"))

        for family, fn in CLOSED_FORMS.items():
            wrapped = tracer.span(f"formulas.{fn}", getattr(ws.formulas, fn))
            self._replace(ws.formulas, fn, lambda _, w=wrapped: w)
            self._replace(ws.formulas.CLOSED_FORMS, family, lambda _, w=wrapped: w)
        self._replace(ws.formulas, "binom", lambda fn: tracer.counter("formulas.binom.calls", fn))

        for owner in (ws.oracle, ws.verify):
            self._replace(owner, "statistic_distribution", span("oracle.statistic_distribution"))
            self._replace(owner, "brute_distribution", span("oracle.brute_distribution", _brute_words))
        self._replace(ws.verify, "transfer_distribution",
                      span("oracle.transfer_distribution", _entries))
        self._replace(ws.cli, "rearrangement_distribution",
                      span("oracle.rearrangement_distribution", _class_words))

        for owner in (ws.cli, ws.verify, ws.series):
            self._replace(owner, "build_ak_series", span("series.build_ak_series", _series_terms))
        for owner in (ws.cli, ws.verify):
            self._replace(owner, "build_bk_series", span("series.build_bk_series", _series_terms))
        self._replace(ws.series, "solve_block_system", span("series.solve_block_system"))
        self._replace(ws.series.PowerSeries, "divide", span("series.PowerSeries.divide"))

        mul = tracer.span("polynomials.Polynomial.mul", ws.polynomials.Polynomial.__mul__, _term_pairs)
        self._replace(ws.polynomials.Polynomial, "__mul__", lambda _: mul)
        self._replace(ws.polynomials.Polynomial, "__rmul__", lambda _: mul)
        self._replace(ws.polynomials.Polynomial, "__str__", span("polynomials.Polynomial.str"))

        for suite, fn in SUITES.items():
            self._replace(ws.verify, fn, span(f"verify.{suite}", _suite_checked(suite)))
        for fn in ("check_top_letter_identity", "check_two_bottom_identity"):
            self._replace(ws.identities, fn, span("identities.check"))

        # Engine calls the cli makes per answer; counted only inside table requests.
        for fn in ("evaluate", "count_matching", "rearrangement_distribution"):
            self._replace(ws.cli, fn, lambda f: tracer.counter("cli.engine_calls", f))

    def uninstall(self) -> None:
        while self._saved:
            owner, key, original = self._saved.pop()
            if isinstance(owner, dict):
                owner[key] = original
            else:
                setattr(owner, key, original)
