"""Byte-identical CLI output, checked against committed digests of the benchmark streams.

    python3 tools/golden.py            # compare with tools/golden.json
    python3 tools/golden.py --write    # rewrite tools/golden.json from this checkout

Every request stream of ``bench/workloads.py`` (each workload at seeds 11 and 12) is
replayed in this process, ``rounds_for(workload, 15)`` rounds of it, on this checkout's
``src``.  A request is ``wordstats.cli.main(argv)`` with stdout and stderr captured, or,
for a ``solve-block-system`` request, a direct ``solve_block_system`` call whose series
are printed coefficient by coefficient.  A round's digest covers each of its requests'
argv, exit code, stdout and stderr (a solve's printed coefficients as its stdout).

The streams never send ``--format csv`` and send ``--engine oracle`` only for
``hall-remmel``, so one more stream, ``argvs``, replays the fixed list ``ARGVS``, one argv
per round: a ``table`` per family, engine and format, and a ``count`` per family.

The script prints one line per stream and exits 0 when every round matches the file,
or 1 naming the first differing round of each stream that differs.  It imports
``bench/workloads.py`` and ``bench/checks.py`` without changing them, and uses the
standard library only.  Replies are taken without ``WORDSTATS_ENUM_BUDGET``.  No terminal
width is pinned: the CLI writes its help and usage errors itself, the same in any terminal.
The digests hold on Python 3.10 to 3.13, which CI checks.
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import io
import json
import os
import sys
import time
from pathlib import Path
from types import SimpleNamespace

ROOT = Path(__file__).resolve().parent.parent
DIGESTS = Path(__file__).resolve().parent / "golden.json"
SEEDS = (11, 12)
SECONDS = 15

sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]
import checks  # noqa: E402  (bench/checks.py: solve_query)
import workloads  # noqa: E402


# Per family: a small query, and the statistic value a count adds to it.
QUERIES = {
    "levels-threshold": ("--k 3 --t 1 --n 4", "--s 1"),
    "levels-blocks": ("--block-sizes 1,2 --n 4", "--targets 1,1"),
    "des-le": ("--k 3 --t 2 --n 4", "--s 1"),
    "des-gt": ("--k 3 --t 1 --n 4", "--s 2"),
    "des-mod": ("--s 2 --alphabet 4 --r 1 --n 4", "--p 1"),
    "hall-remmel": ("--rho 2,1,1 --x all --y 1,2", "--s 1"),
}
ARGV_STREAM = "argvs"
ARGVS = [
    ["table", family, *query.split(), "--engine", engine, "--format", form]
    for family, (query, _) in QUERIES.items()
    for engine in ("closed-form", "oracle", "transfer")
    for form in ("json", "csv")
] + [["count", family, *query.split(), *value.split()] for family, (query, value) in QUERIES.items()]


def _program() -> SimpleNamespace:
    from wordstats import cli, polynomials, series, words

    return SimpleNamespace(cli=cli, polynomials=polynomials, series=series, words=words)


@contextlib.contextmanager
def _pinned_environment():
    """The default enumeration budget, restored on exit."""
    saved = os.environ.pop("WORDSTATS_ENUM_BUDGET", None)
    try:
        yield
    finally:
        if saved is not None:
            os.environ["WORDSTATS_ENUM_BUDGET"] = saved


def _reply(kind: str, argv, ws) -> tuple[int, str, str]:
    """One request's (exit code, stdout, stderr); an escaped exception exits 1 and names itself.

    ``main`` returns every exit code, a usage error's 2 included.
    """
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if kind == "solve":
                for part in ws.series.solve_block_system(*checks.solve_query(argv, ws)):
                    print(part.var, part.names, *ws.polynomials.render(part.coeffs), sep="\n")
                code = 0
            else:
                code = ws.cli.main(list(argv))
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def _rounds(name: str):
    """The stream's rounds, each a list of (kind, argv) requests."""
    if name == ARGV_STREAM:
        return [[("cli", argv)] for argv in ARGVS]
    workload, seed = name.split("/")
    return ([(request.kind, request.argv) for request in batch] for batch in workloads.rounds(workload, int(seed)))


def full_length(name: str) -> int:
    """The number of rounds the full replay of a stream takes."""
    return len(ARGVS) if name == ARGV_STREAM else workloads.rounds_for(name.split("/")[0], SECONDS)


def stream_digests(name: str, rounds: int | None = None) -> list[str]:
    """Per round of the stream, the digest of its replies; ``rounds`` defaults to the full replay."""
    if rounds is None:
        rounds = full_length(name)
    ws = _program()
    digests = []
    with _pinned_environment():
        for _, batch in zip(range(rounds), _rounds(name)):
            digest = hashlib.sha256()
            for kind, argv in batch:
                code, out, err = _reply(kind, argv, ws)
                digest.update(json.dumps([argv, code, out, err]).encode())
            digests.append(digest.hexdigest()[:16])
    return digests


def streams() -> list[str]:
    """The stream names, ``<workload>/<seed>`` and then ``argvs``, in replay order."""
    return [f"{workload}/{seed}" for workload in workloads.WORKLOADS for seed in SEEDS] + [ARGV_STREAM]


def first_difference(got: list[str], want: list[str]) -> int | None:
    """The index of the first round that differs, or is missing on one side; None if none does."""
    for index, (left, right) in enumerate(zip(got, want)):
        if left != right:
            return index
    return None if len(got) == len(want) else min(len(got), len(want))


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--write", action="store_true", help=f"rewrite {DIGESTS.name} from this checkout")
    args = parser.parse_args(argv)
    want = {} if args.write else json.loads(DIGESTS.read_text(encoding="utf-8"))
    got, failed = {}, 0
    for name in streams():
        start = time.perf_counter()
        got[name] = stream_digests(name)
        line = f"{name}: {len(got[name])} rounds ({time.perf_counter() - start:.2f} s)"
        if not args.write:
            index = first_difference(got[name], want.get(name, []))
            if index is not None:
                failed += 1
                line = f"FAIL {line}: round {index} differs"
                if name == ARGV_STREAM and index < len(ARGVS):
                    line += f" ({' '.join(ARGVS[index])})"
        print(line, flush=True)
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.name}")
        return 0
    print(f"{len(got) - failed} of {len(got)} streams match {DIGESTS.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
