"""Byte-identical CLI output, checked against committed digests of the benchmark streams.

    python3 tools/golden.py            # compare with tools/golden.json
    python3 tools/golden.py --write    # rewrite tools/golden.json from this checkout

Every request stream of ``bench/workloads.py`` (each workload at seeds 11 and 12) is
replayed in this process, ``rounds_for(workload, 15)`` rounds of it, on this checkout's
``src``.  A request is ``wordstats.cli.main(argv)`` with stdout and stderr captured, or,
for a ``solve-block-system`` request, a direct ``solve_block_system`` call whose series
are printed coefficient by coefficient.  A round's digest covers each of its requests'
argv, exit code, stdout and stderr (a solve's printed coefficients as its stdout).

The script prints one line per stream and exits 0 when every round matches the file,
or 1 naming the first differing round of each stream that differs.  It imports
``bench/workloads.py`` and ``bench/checks.py`` without changing them, and uses the
standard library only.  Replies are taken without ``WORDSTATS_ENUM_BUDGET`` and with
``COLUMNS=80``, so argparse's text does not depend on the terminal; argparse's messages
also depend on the Python version (the digests were taken on Python 3.11).
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


def _program() -> SimpleNamespace:
    from wordstats import cli, polynomials, series, words

    return SimpleNamespace(cli=cli, polynomials=polynomials, series=series, words=words)


@contextlib.contextmanager
def _pinned_environment():
    """The default enumeration budget and an 80-column terminal, restored on exit."""
    saved = {name: os.environ.get(name) for name in ("WORDSTATS_ENUM_BUDGET", "COLUMNS")}
    os.environ.pop("WORDSTATS_ENUM_BUDGET", None)
    os.environ["COLUMNS"] = "80"
    try:
        yield
    finally:
        for name, value in saved.items():
            if value is None:
                os.environ.pop(name, None)
            else:
                os.environ[name] = value


def _reply(request, ws) -> tuple[int, str, str]:
    """One request's (exit code, stdout, stderr); an escaped exception exits 1 and names itself."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            if request.kind == "solve":
                for part in ws.series.solve_block_system(*checks.solve_query(request.argv, ws)):
                    print(part.var, part.names, *ws.polynomials.render(part.coeffs), sep="\n")
                code = 0
            else:
                code = ws.cli.main(list(request.argv))
        except SystemExit as exc:  # argparse exits 2 on usage errors
            code = exc.code if isinstance(exc.code, int) else (0 if exc.code is None else 1)
        except Exception as exc:
            code = 1
            print(f"{type(exc).__name__}: {exc}", file=sys.stderr)
    return code, out.getvalue(), err.getvalue()


def stream_digests(workload: str, seed: int, rounds: int | None = None) -> list[str]:
    """Per round of the stream, the digest of its replies; ``rounds`` defaults to the full replay."""
    if rounds is None:
        rounds = workloads.rounds_for(workload, SECONDS)
    ws = _program()
    digests = []
    with _pinned_environment():
        for _, batch in zip(range(rounds), workloads.rounds(workload, seed)):
            digest = hashlib.sha256()
            for request in batch:
                code, out, err = _reply(request, ws)
                digest.update(json.dumps([request.argv, code, out, err]).encode())
            digests.append(digest.hexdigest()[:16])
    return digests


def streams() -> list[str]:
    """The stream names, ``<workload>/<seed>``, in replay order."""
    return [f"{workload}/{seed}" for workload in workloads.WORKLOADS for seed in SEEDS]


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
        workload, seed = name.split("/")
        start = time.perf_counter()
        got[name] = stream_digests(workload, int(seed))
        line = f"{name}: {len(got[name])} rounds ({time.perf_counter() - start:.2f} s)"
        if not args.write:
            index = first_difference(got[name], want.get(name, []))
            if index is not None:
                failed += 1
                line = f"FAIL {line}: round {index} differs"
        print(line, flush=True)
    if args.write:
        DIGESTS.write_text(json.dumps(got, indent=1) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS.name}")
        return 0
    print(f"{len(got) - failed} of {len(got)} streams match {DIGESTS.name}")
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
