"""Console checks of the wordstats CLI, run against the checkout this file lives in.

    python3 tools/console_checks.py

The checks pin the engines against each other at sizes the unit tests never reach, and the
CLI's exit codes and output format.  Each one runs its argvs in fresh interpreters on this
checkout's ``src`` (prepended to ``PYTHONPATH``), so no install is needed, and without
``WORDSTATS_ENUM_BUDGET``, since the checks pin the default budget.  The script prints
one line per check and exits 1 if any check fails; it takes no arguments (exit 2 if given one).
It uses the standard library only.
"""

import json
import os
import subprocess
import sys
import time
from pathlib import Path
from typing import NamedTuple

SRC = Path(__file__).resolve().parent.parent / "src"
ENTRY = (sys.executable, "-c", "from wordstats.cli import entrypoint; entrypoint()")
# Reads one line of its stdin and exits, closing the pipe as `head -1` does.
HEAD = (sys.executable, "-c", "import sys; sys.stdin.buffer.readline()")


class Check(NamedTuple):
    """One check: every argv must exit with ``exit`` before ``timeout`` seconds, and then
    ``COMPARE[kind]`` must find the runs' output to match ``expect``."""

    name: str
    kind: str
    argvs: tuple[str, ...]
    exit: int = 0
    expect: object = None
    timeout: float = 10


def _exit_only(runs, expect):
    return None


def _closed_pipe(runs, expect):
    # The one line is the whole of stderr, so it holds no traceback.
    got = runs[0].stderr.decode().rstrip("\n")
    return None if got == expect else f"stderr {got!r}"


def _result(runs, expect):
    result = json.loads(runs[0].stdout)["result"]
    got = {field: result.get(field) for field in expect}
    return None if got == expect else f"result fields {str(got)[:200]}"


def _row(runs, expect):
    """The table's row ``expect[0]`` holds the count's answer, and its total is ``expect[1]``."""
    rows = dict(line.rsplit(",", 1) for line in runs[0].stdout.decode().splitlines()[1:])
    row, total = expect
    got = rows.get(row), rows.get("total")
    want = str(json.loads(runs[1].stdout)["result"]["count"]), str(total)
    return None if got == want else f"row {row!r} and total {str(got)[:200]} != {str(want)[:200]}"


def _same(runs, expect):
    """Every argv prints the same bytes, and if ``expect`` is set, they end in its total row."""
    if any(run.stdout != runs[0].stdout for run in runs):
        return "outputs differ"
    if expect is None:
        return None
    last = runs[0].stdout.decode().splitlines()[-1]
    return None if last == f"total,{expect}" else f"last line {last[:40]!r} is not that total"


def _json_tool(runs, expect):
    """The record is byte for byte what ``python -m json.tool --indent 2`` writes for it."""
    out = runs[0].stdout.decode()
    return None if out == json.dumps(json.loads(out), indent=2) + "\n" else "not json.tool's"


COMPARE = {
    "exit": _exit_only,
    "closed-pipe": _closed_pipe,
    "result": _result,
    "row": _row,
    "same": _same,
    "json-tool": _json_tool,
}


def _record(argv, exit=0):
    return Check(f"record {argv}", "json-tool", (argv,), exit)


def _suite(argv, checked):
    return Check(f"suite {argv}", "result", (argv,), 0, {"checked": checked, "failures": 0})


def _closed_is_transfer(query, total):
    argvs = (f"table {query} --format csv --engine transfer", f"table {query} --format csv")
    return Check(f"transfer = closed form: {query}", "same", argvs, 0, total)


def _count_is_row(query, option, row, total):
    argvs = (f"table {query} --format csv", f"count {query} {option}")
    return Check(f"count is a row: {query} {option}", "row", argvs, 0, (row, total))


CHECKS = [
    Check("count answers", "exit", ("count des-le --k 3 --t 1 --n 4 --s 1",)),
    # Closed-form tables at lengths no unit test reaches, one of them past degree 128; a
    # count reads its table's row on the transfer DP too, joint targets included.
    _count_is_row("des-mod --s 3 --alphabet 8 --r 2 --n 80", "--p 20", "20", 8**80),
    _count_is_row("levels-blocks --block-sizes 2,3,1 --n 30", "--targets 3,3,3", "3 3 3", 6**30),
    _count_is_row("des-gt --k 5 --t 2 --n 200", "--s 50", "50", 5**200),
    _count_is_row("des-mod --s 3 --alphabet 8 --r 2 --n 80 --engine transfer", "--p 20", "20",
                  8**80),
    _count_is_row("levels-blocks --block-sizes 2,3,1 --n 30 --engine transfer",
                  "--targets 3,3,3", "3 3 3", 6**30),
    _closed_is_transfer("des-mod --s 3 --alphabet 8 --r 2 --n 200", 8**200),
    # At n = 600 the closed forms run their packed recurrence on re-spaced fields.
    _closed_is_transfer("des-gt --k 6 --t 2 --n 600", 6**600),
    _closed_is_transfer("levels-threshold --k 6 --t 3 --n 600", 6**600),
    _closed_is_transfer("des-mod --s 3 --alphabet 8 --r 2 --n 600", 8**600),
    # Three and four blocks: the closed form's per-block recurrence against the DP, whose
    # first two blocks are dense bit fields and whose other blocks key its dicts.
    _closed_is_transfer("levels-blocks --block-sizes 2,3,1 --n 30", 6**30),
    _closed_is_transfer("levels-blocks --block-sizes 2,3,1 --n 60", 6**60),
    _closed_is_transfer("levels-blocks --block-sizes 1,1,2,2 --n 16", 6**16),
    # Byte-field edges: 3**5 = 243 fills one byte, 2**16 = 65,536 needs a third.
    _closed_is_transfer("des-le --k 3 --t 2 --n 5", 3**5),
    _closed_is_transfer("levels-threshold --k 2 --t 1 --n 16", 2**16),
    # One block of 1000 letters has fields of 1000**300 (2,990 bits).
    Check("one block is levels-threshold at t = k", "same",
          ("table levels-blocks --block-sizes 1000 --n 300 --format csv",
           "table levels-threshold --k 1000 --t 1000 --n 300 --format csv")),
    # 10**4400 has more digits than Python converts by default; the writer prints it whole.
    Check("count of 10**4400 in full", "result", ("count des-le --k 10 --t 1 --n 4400 --s 0",),
          0, {"count": "1" + "0" * 4400}),
    # With no marker tracked, [x^i] A is 10**i at k = 10; order 4300 has 4,301 digits.
    Check("series coefficients of 10**4300 in full", "result",
          ("series --gf A --k 10 --partition threshold:1 --track none --order 4300",), 0,
          {"coefficients": [{"order": i, "polynomial": "1" + "0" * i} for i in range(4301)]}),
    Check("hall-remmel refusal", "exit", ("count hall-remmel --rho 1,1 --x 5 --y 1 --s 0",), 2),
    # An empty piece of a --track list is refused, not dropped.
    Check("empty --track piece refusal", "exit",
          ("series --gf A --k 2 --partition mod:2 --track x1,,y1 --order 1",), 2),
    Check("injected fault found", "exit",
          ("verify formulas-vs-oracle --k-max 3 --n-max 4 --inject-fault",), 1),
    # An over-budget charge too large to print in decimal still exits 3, not a traceback.
    Check("over-budget count", "exit",
          ("count des-le --k 2 --t 1 --n 15000 --s 0 --engine oracle",), 3),
    # The walk's k x k table of steps is charged before it, or any partition, is built.
    Check("over-budget step table", "exit",
          ("table des-le --k 10000000 --t 1 --n 0 --engine oracle",), 3, timeout=10),
    # The table (186 kB) is larger than a pipe's buffer, so the writer meets the closed pipe
    # however its stdout is buffered.
    Check("broken pipe", "closed-pipe", ("table des-le --k 3 --t 2 --n 1000 --format csv",), 2,
          "error: cannot write the output: [Errno 32] Broken pipe"),
    # The series example of docs/output_schema.md, polynomial for polynomial.
    Check("series example", "result",
          ("series --gf A --k 2 --partition threshold:1 --track x2 --order 2",), 0,
          {"coefficients": [{"order": 0, "polynomial": "1"}, {"order": 1, "polynomial": "2"},
                            {"order": 2, "polynomial": "3 + x2"}]}),
    # The pinned counts of the two largest suites at their defaults, through the CLI.
    _suite("verify hall-remmel", 92824),
    _suite("verify formulas-vs-oracle", 12387),
    # The suites at depths no unit test or benchmark request reaches.
    _suite("verify identities --n-max 30", 21327),
    _suite("verify hall-remmel --m-max 5 --weight-max 6 --n-max 8", 532790),
    # The grouped counts through the CLI's bound mapping: many unused letters, then heavy classes.
    _suite("verify hall-remmel --m-max 4 --weight-max 2 --n-max 8", 4678),
    _suite("verify hall-remmel --m-max 2 --weight-max 7 --n-max 8", 698),
    # Most classes carry zeros, so most share their shape's derivation with a smaller m.
    _suite("verify hall-remmel --m-max 6 --weight-max 3 --n-max 0", 411826),
    # The even-words sum alone, its letter pass to n = 30.
    _suite("verify hall-remmel --m-max 0 --weight-max 0 --n-max 30", 992),
    _suite("verify formulas-vs-oracle --k-max 10 --n-max 10", 78185),
    _suite("verify oracle-vs-transfer --k-max 3 --n-max 10", 165),
    _suite("verify series-vs-oracle --k-max 4 --n-max 7", 176),
    # The largest joint grids a benchmark verify stream sends, through the CLI.
    _suite("verify series-vs-oracle --k-max 5 --n-max 5", 180),
    _suite("verify oracle-vs-transfer --k-max 5 --n-max 5", 180),
    _record("count des-le --k 3 --t 1 --n 4 --s 1"),
    _record("table levels-blocks --block-sizes 2,3,1 --n 5"),
    _record("series --gf A --k 2 --partition threshold:1 --track x2 --order 2"),
    _record("series --gf A --k 4 --partition blocks:1,2,3,4 --track all --q per-block --order 5"),
    _record("verify identities --n-max 3"),
    _record("table des-le --k 4 --t 2 --n 9"),
    _record("table hall-remmel --rho 2,1,2 --x 2,3 --y all"),
    _record("count levels-blocks --block-sizes 2,1 --n 3 --targets 1,0"),
    _record("table levels-blocks --block-sizes ２,1 --n 3"),
    # The run with an injected fault exits 1 and still prints its record.
    _record("verify formulas-vs-oracle --k-max 3 --n-max 4 --inject-fault", 1),
    # An option given as --flag=value or abbreviated reads as --flag value.
    Check("--flag=value reads as --flag value", "same",
          ("table des-mod --s 3 --alphabet 8 --r 2 --n 12 --engine closed-form",
           "table des-mod --s 3 --alphabet 8 --r 2 --n 12 --engine=closed-form")),
    Check("an abbreviated flag reads as the flag", "same",
          ("table des-mod --s 3 --alphabet 8 --r 2 --n 12 --engine closed-form",
           "table des-mod --s 3 --alphabet 8 --r 2 --n 12 --eng closed-form")),
    Check("verify --flag=value reads as --flag value", "same",
          ("verify identities --n-max 3", "verify identities --n-max=3")),
    Check("verify's abbreviated flag reads as the flag", "same",
          ("verify identities --n-max 3", "verify identities --n-m 3")),
]


def _spawn(argv: str, timeout: float, closed_pipe: bool) -> subprocess.CompletedProcess:
    env = {name: value for name, value in os.environ.items() if name != "WORDSTATS_ENUM_BUDGET"}
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(SRC), env.get("PYTHONPATH"))))
    with subprocess.Popen((*ENTRY, *argv.split()), stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE, env=env) as proc:
        reader = None
        if closed_pipe:
            reader = subprocess.Popen(HEAD, stdin=proc.stdout, stdout=subprocess.DEVNULL)
            proc.stdout.close()
        try:
            out, err = proc.communicate(timeout=timeout)
        finally:
            proc.kill()
            if reader:
                reader.wait()
    return subprocess.CompletedProcess(argv, proc.returncode, out, err)


def failure(check: Check) -> str | None:
    """What went wrong in ``check``, or None if it passes."""
    runs = []
    for argv in check.argvs:
        try:
            run = _spawn(argv, check.timeout, check.kind == "closed-pipe")
        except subprocess.TimeoutExpired:
            return f"{argv}: no exit within {check.timeout} s"
        if run.returncode != check.exit:
            err = run.stderr.decode(errors="replace")[-300:]
            return f"{argv}: exit {run.returncode}, expected {check.exit}: {err}"
        runs.append(run)
    try:
        return COMPARE[check.kind](runs, check.expect)
    except (ValueError, KeyError, IndexError, TypeError) as exc:
        return f"unreadable output: {exc!r}"


def run(checks) -> int:
    """Run ``checks`` in order, print one line each, and return 1 if any failed, else 0."""
    failed = 0
    for check in checks:
        start = time.perf_counter()
        problem = failure(check)
        seconds = time.perf_counter() - start
        failed += problem is not None
        line = f"{check.name} ({seconds:.2f} s)"
        print(f"FAIL {line}: {problem}" if problem else f"ok   {line}", flush=True)
    print(f"{len(checks) - failed} of {len(checks)} checks passed")
    return 1 if failed else 0


def main() -> int:
    if sys.argv[1:]:
        print("usage: python3 tools/console_checks.py (it takes no arguments)", file=sys.stderr)
        return 2
    return run(CHECKS)


if __name__ == "__main__":
    sys.exit(main())
