"""wordstats benchmark: seeded request workloads against the wordstats CLI.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from a checkout that holds ``src/wordstats``.  One client issues the
requests of one workload as a closed loop, in this process, on one thread:
each request is ``wordstats.cli.main(argv)`` with stdout and stderr
captured (or, for ``solve-block-system`` requests, a direct library call),
and the next starts when it returns.  A run issues a fixed list of rounds,
sized from ``--seconds`` (see ``workloads.ROUNDS_PER_SECOND``), and at
least 100 requests.  Every answer is checked outside the timed region.
Times are reported at the nominal host speed: ``yardstick.py`` reads the
host's speed right before and after each request and scales its time.

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` reports the
per-layer metrics: it replays the requests of an untraced pass with the
wrappers of ``tracing.py`` installed, and writes the spans to
``.bench_out/spans-<workload>-<seed>.csv``.

Human-readable lines come first; the last line of stdout is one JSON object
with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import contextlib
import io
import json
import os
import resource
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

import checks
import tracing
import workloads
import yardstick

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

MIN_REQUESTS = 100  # so that p90 has at least ten samples beyond it
SETUP_SPAWNS = 11
COMPARE_EVERY = 10  # every tenth tables answer is compared with a second engine
TRACE_SHARE = 0.4  # share of --seconds the untraced pass of a traced run measures
WALL_LIMIT_S = 120.0  # stop issuing rounds past this, however slow the program is

# What a cold CLI process pays before it can answer: import and parser,
# scaled to the nominal host speed by yardstick readings around it.
SETUP_CODE = """\
import sys, time
sys.path[:0] = sys.argv[1:3]
import yardstick
yardstick.reading()
before = yardstick.reading()
start = time.perf_counter()
import wordstats.cli
wordstats.cli.build_parser()
elapsed = time.perf_counter() - start
print(yardstick.scale(elapsed, before, yardstick.reading()))
"""

END_TO_END_UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "peak_rss_mb": "MB",
}


def load_program() -> SimpleNamespace:
    """Import wordstats from this checkout's ``src``, never from elsewhere."""
    if not (SRC / "wordstats" / "cli.py").is_file():
        raise SystemExit(f"error: no wordstats sources at {SRC}")
    sys.path.insert(0, str(SRC))
    # The budget refusals the workloads expect assume the default budget.
    os.environ.pop("WORDSTATS_ENUM_BUDGET", None)
    from wordstats import cli, formulas, identities, oracle, polynomials, series, verify, words

    if not Path(cli.__file__).resolve().is_relative_to(SRC):
        raise SystemExit(f"error: imported wordstats from {cli.__file__}, not {SRC}")
    return SimpleNamespace(cli=cli, formulas=formulas, identities=identities, oracle=oracle,
                           polynomials=polynomials, series=series, verify=verify, words=words)


def measure_setup() -> float:
    """Median over fresh interpreters; the first spawn only writes bytecode caches."""
    samples = []
    for _ in range(SETUP_SPAWNS + 1):
        done = subprocess.run(
            [sys.executable, "-c", SETUP_CODE, str(SRC), str(HERE)],
            cwd=ROOT, capture_output=True, text=True, timeout=60, check=True,
        )
        samples.append(float(done.stdout))
    return statistics.median(samples[1:])


def timed_call(request, ws) -> tuple[checks.Response, float]:
    """Issue one request; the returned time covers the call and nothing else."""
    if request.kind == "solve":
        query = checks.solve_query(request.argv, ws)
        start = time.perf_counter()
        try:
            value = ws.series.solve_block_system(*query)
        except Exception as exc:  # an escaped exception is a failed request
            elapsed = time.perf_counter() - start
            return checks.Response(1, error=f"{type(exc).__name__}: {exc}"), elapsed
        return checks.Response(0, value=value), time.perf_counter() - start
    out, err = io.StringIO(), io.StringIO()
    argv = list(request.argv)
    error = None
    start = time.perf_counter()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = ws.cli.main(argv)
        except SystemExit as exc:  # argparse exits 2 on usage errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:  # what a process would show as a traceback and exit 1
            code, error = 1, f"{type(exc).__name__}: {exc}"
    elapsed = time.perf_counter() - start
    return checks.Response(code, out.getvalue(), err.getvalue(), error), elapsed


@dataclass
class Tally:
    """Outcome of one or more passes over a list of requests."""

    requests: list = field(default_factory=list)
    latencies: list = field(default_factory=list)
    failed: int = 0
    wrong: int = 0
    reasons: list = field(default_factory=list)

    def record(self, request, response, elapsed, ws) -> bool:
        """Check and count one response; True when it is as expected."""
        self.requests.append(request)
        self.latencies.append(elapsed)
        failure = checks.check(request, response, ws)
        if failure is not None:
            self.fail(request, failure.reason, failure.wrong_answer)
        return failure is None

    def fail(self, request, reason: str, wrong_answer: bool) -> None:
        self.failed += 1
        self.wrong += wrong_answer
        self.reasons.append(f"{' '.join(request.argv)}: {reason}")


def serve(workload: str, seed: int, seconds: float, ws) -> tuple[Tally, list, yardstick.Scaler]:
    """Untraced closed loop over the run's rounds, and at least ``MIN_REQUESTS``.

    Latencies are recorded at the nominal host speed (``yardstick.py``).
    Also returns the sampled tables answers, as (request, stdout), that
    ``compare_engines`` re-asks on a second engine, and the scaler with
    the readings and the time as measured.
    """
    tally, sampled, answers = Tally(), [], 0
    target = workloads.rounds_for(workload, seconds)
    wall_start = time.monotonic()
    scaler = yardstick.Scaler()
    for index, batch in enumerate(workloads.rounds(workload, seed)):
        for request in batch:
            response, elapsed = timed_call(request, ws)
            if tally.record(request, response, scaler(elapsed), ws) and request.alt is not None:
                if answers % COMPARE_EVERY == 0:
                    sampled.append((request, response.stdout))
                answers += 1
        enough = index + 1 >= target and len(tally.latencies) >= MIN_REQUESTS
        if enough or time.monotonic() - wall_start > WALL_LIMIT_S:
            break
    return tally, sampled, scaler


def compare_engines(sampled, tally: Tally, ws) -> None:
    """Re-ask each sampled tables answer on its second engine (untimed)."""
    for request, stdout in sampled:
        other, _ = timed_call(workloads.Request("alt", request.alt), ws)
        if other.code != 0 or not checks.same_answer(stdout, other.stdout):
            tally.fail(request, f"disagrees with {request.alt[-1]}", wrong_answer=True)


def replay(requests, ws, tally: Tally, tracer: tracing.Tracer | None = None) -> tuple[float, int]:
    """The same requests again, checked into ``tally``; spans only around each call.

    Returns the request time of this pass, at the nominal host speed, and how
    many table requests were answered.
    """
    measured, table_requests, scaler = 0.0, 0, yardstick.Scaler()
    for index, request in enumerate(requests):
        if tracer is None:
            response, elapsed = timed_call(request, ws)
        else:
            tracer.request = index
            before = tracer.counts["cli.engine_calls"]
            tracer.enabled = True
            response, elapsed = timed_call(request, ws)
            tracer.enabled = False
            if request.kind == "table" and response.code == 0:
                table_requests += 1
                tracer.counts["cli.table_engine_calls"] += tracer.counts["cli.engine_calls"] - before
        elapsed = scaler(elapsed)
        measured += elapsed
        tally.record(request, response, elapsed, ws)
    return measured, table_requests


def p90(values) -> float:
    """Nearest-rank 90th percentile."""
    ordered = sorted(values)
    return ordered[(9 * len(ordered) + 9) // 10 - 1]


def end_to_end(args, ws) -> tuple[Tally, dict]:
    setup = measure_setup()
    tally, sampled, scaler = serve(args.workload, args.seed, args.seconds, ws)
    peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    latencies_ms = [t * 1000 for t in tally.latencies]
    values = {
        "setup_s": setup,
        "throughput_rps": len(latencies_ms) / sum(tally.latencies),
        "latency_p50_ms": statistics.median(latencies_ms),
        "latency_p90_ms": p90(latencies_ms),
        "peak_rss_mb": peak_kb / 1024,
    }
    print(f"latency samples {len(latencies_ms)}; request time {scaler.measured_s:.3f} s as measured, "
          f"{sum(tally.latencies):.3f} s at nominal speed; yardstick median "
          f"{statistics.median(scaler.readings) * 1000:.4f} ms, nominal {yardstick.NOMINAL_S * 1000} ms")
    compare_engines(sampled, tally, ws)  # after the memory reading: other engines use other memory
    return tally, {name: (value, END_TO_END_UNITS[name]) for name, value in values.items()}


def per_layer(args, ws) -> tuple[Tally, dict]:
    """Serve, replay untraced, replay traced; the two replays give the overhead."""
    tally, sampled, _ = serve(args.workload, args.seed, args.seconds * TRACE_SHARE, ws)
    compare_engines(sampled, tally, ws)
    requests = list(tally.requests)
    untraced, _ = replay(requests, ws, tally)
    tracer = tracing.Tracer()
    patches = tracing.Patches(tracer, ws)
    patches.install()
    try:
        traced, table_requests = replay(requests, ws, tally, tracer)
    finally:
        patches.uninstall()
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write_spans(out_dir / f"spans-{args.workload}-{args.seed}.csv")
    values = tracer.metrics(table_requests, traced / untraced)
    units = {name: unit for name, unit, _ in tracing.PER_LAYER}
    print(f"spans {len(tracer.start)}, requests {len(requests)} per pass, 3 passes")
    return tally, {name: (value, units[name]) for name, value in values.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=workloads.WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    ws = load_program()
    tally, metrics = (per_layer if args.trace else end_to_end)(args, ws)
    attempted = len(tally.latencies)
    print(f"workload {args.workload} seed {args.seed}: {attempted} requests, "
          f"{tally.failed} failed, {tally.wrong} wrong answers")
    print(f"failed_ratio {tally.failed / attempted!r} ratio")
    for reason in tally.reasons[:5]:
        print(f"  failed: {reason[:300]}")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value!r} {unit}")
    print(json.dumps({
        "correct": tally.wrong == 0,
        "attempted": attempted,
        "failed": tally.failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
