"""Every function in ``src/wordstats`` runs under the benchmark's own requests, or a ledger row says why not.

    python3 tools/reachability.py

Under ``sys.setprofile`` the script runs a declared list of calls and collects every
function under ``src/wordstats`` that ran:

- ``tools/golden.py``'s replay of each benchmark stream, ``ROUNDS`` rounds at each of its
  seeds, and its whole ``argvs`` stream;
- one call per row of the CLI's suite table, ``cli.VERIFY_SUITES``, with every bound the
  row takes set to 2: ``verify <suite>`` for a listed suite, and a library call with the
  same keywords for an unlisted one;
- ``verify.des_mod_errata(2, 2)``, with each case's ``resolved`` read: it returns cases,
  not a suite's result, so it has no row in the table;
- the self-test ``verify formulas-vs-oracle --inject-fault --k-max 2 --n-max 2``, ``-h``,
  and ``table des-le --k 3 --t 1 --n 66``, whose closed form widens its packed fields
  past length 64 (``combinat.respace``), which no benchmark request reaches;
- README's library example.

It compares them with every ``def`` it finds by parsing the sources, keyed by module and
qualified name (``oracle.count_matching``, ``series.PowerSeries.divide``), and with
``LEDGER``, which gives each function that does not run exactly one reason (``REASONS``)
and its evidence.  It exits 1, naming the function, when a function neither runs nor has
a row, when a row's function ran after all, when a row names no function, or when a row's
reason or evidence does not hold: a ``bench/`` or ``src/`` line that does not exist, an
``import-time`` row's ``src/`` line that does not name its function (for a class's
``__init_subclass__``, one that is no ``class`` statement with that class among its bases),
or a test that ``tests/`` does not define.  Otherwise it prints one summary line and exits 0.

A function is matched to the code object that ran by its file, its first line (a
decorated function's code starts at its first decorator) and its name, the same on
Python 3.10 to 3.13.  The modules are imported before the profile starts, so code that
runs only at import is not counted as run.  The CLI builds its parser tree once per
process, so the scan runs in a fresh interpreter and refuses to run in one that has
already imported ``wordstats``.  It uses the standard library only.
"""

from __future__ import annotations

import ast
import contextlib
import functools
import importlib
import importlib.util
import io
import pkgutil
import re
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SOURCES = ROOT / "src" / "wordstats"
README = ROOT / "README.md"
ROUNDS = 3  # per stream; at 2 the streams send no abbreviated flag, and cli._Reader._option would not run


def _load_golden():
    spec = importlib.util.spec_from_file_location("golden", ROOT / "tools" / "golden.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)  # puts src and bench on sys.path
    return module


golden = _load_golden()

REASONS = {
    "bench-pinned": "kept because bench/ names it or calls it (ROADMAP items 9, 13 and 32); cites the bench/ line",
    "failure-path": "runs only when a check fails; cites a test that makes the check fail",
    "import-time": "runs only while its module is imported; cites the src/ line that runs it",
    "subprocess": "runs only as the console script's process; cites a test that spawns it",
}

# What each reason's evidence cites: a bench/ or src/ line, ``path:line``, or a test, ``path::name``.
_CITES = {
    "bench-pinned": r"bench/[\w/]+\.py:\d+",
    "import-time": r"src/wordstats/\w+\.py:\d+",
}
_TEST = r"tests/\w+\.py::\w+(::\w+)?"

# Each function that no declared call runs: its reason and its evidence.
LEDGER: dict[str, tuple[str, str]] = {
    # Items 9 and 13: the tracer counts calls at cli.count_matching and cli.evaluate.
    "oracle.count_matching": ("bench-pinned", "bench/tracing.py:277"),
    "formulas.evaluate": ("bench-pinned", "bench/tracing.py:277"),
    # The tracer's brute-force word counter reads a distribution's total.
    "words.DistPolynomial.total": ("bench-pinned", "bench/tracing.py:196"),
    # Item 32: the series arithmetic only the tracer and the solve check call; from_keys and
    # constant are called by __mul__ and lift only, and _terms by __add__ and divide only.
    "polynomials.Polynomial.__mul__": ("bench-pinned", "bench/tracing.py:266"),
    "polynomials.Polynomial.from_keys": ("bench-pinned", "bench/tracing.py:266"),
    "polynomials.Polynomial.constant": ("bench-pinned", "bench/checks.py:156"),
    "series.PowerSeries.lift": ("bench-pinned", "bench/checks.py:156"),
    "series.PowerSeries.__add__": ("bench-pinned", "bench/checks.py:158"),
    "series.PowerSeries._terms": ("bench-pinned", "bench/checks.py:158"),
    "series.PowerSeries.divide": ("bench-pinned", "bench/tracing.py:264"),
    # The identities suite builds a report only for a row whose two sides differ.
    "identities.check_top_letter_identity": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    "identities.check_two_bottom_identity": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    "identities._report": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    "identities.top_letter_alternate": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    "identities.two_bottom_alternate": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    # The alternates' binomial, which takes negative arguments.
    "combinat.binom": (
        "failure-path", "tests/test_verify.py::TestIdentitiesSuite::test_wrong_identity_row_is_caught_and_named",
    ),
    "words.FrozenRecord.__setattr__": (
        "failure-path", "tests/test_words.py::TestBlockPartition::test_refuses_assignment_and_deletion",
    ),
    "words.FrozenRecord.__delattr__": (
        "failure-path", "tests/test_words.py::TestBlockPartition::test_refuses_assignment_and_deletion",
    ),
    "formulas._threshold_family": ("import-time", "src/wordstats/formulas.py:628"),
    "words.Record.__init_subclass__": ("import-time", "src/wordstats/words.py:119"),
    "cli.entrypoint": ("subprocess", "tests/test_cli.py::TestColdProcess::test_closed_stdout_exits_2_without_a_traceback"),
}


def definitions() -> dict[str, tuple[str, int, str]]:
    """Per ``def`` under ``src/wordstats``, by ``module.qualname``: its code object's (file, first line, name)."""
    found: dict[str, tuple[str, int, str]] = {}

    def visit(node, path: Path, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                if name in found:
                    raise ValueError(f"two functions are named {name}; the ledger could not tell them apart")
                first = min([child.lineno] + [decorator.lineno for decorator in child.decorator_list])
                found[name] = (str(path), first, child.name)
                visit(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                visit(child, path, prefix + child.name + ".")
            else:
                visit(child, path, prefix)

    for path in sorted(SOURCES.glob("*.py")):
        visit(ast.parse(path.read_text(encoding="utf-8")), path, path.stem + ".")
    return found


def _quiet(argv: list[str]):
    from wordstats import cli

    def call():
        with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
            cli.main(argv)

    return call


def _readme_example() -> None:
    section = README.read_text(encoding="utf-8").split("## Library example", 1)[1]
    code = re.search(r"```python\n(.*?)```", section, re.S).group(1)
    exec(compile(code, str(README), "exec"), {})


def _suite_calls() -> list:
    """A call per row of ``cli.VERIFY_SUITES``, with every bound the row takes set to 2.

    A listed suite runs as ``verify <suite>``, an unlisted one as a library call with the same keywords.
    """
    from wordstats import cli, verify

    flags = {option.dest: option.flag for option in cli._BOUNDS if option.takes_value}
    calls = []
    for suite, (name, bounds, listed) in cli.VERIFY_SUITES.items():
        taken = [dest for dest in bounds if dest in flags]
        if listed:
            calls.append(_quiet(["verify", suite, *(word for dest in taken for word in (flags[dest], "2"))]))
        else:
            kwargs = {keyword: 2 for dest in taken for keyword in bounds[dest]}
            calls.append(lambda name=name, kwargs=kwargs: getattr(verify, name)(**kwargs))
    return calls


def declared_calls() -> list:
    """The calls the scan runs, in order."""
    from wordstats import verify

    argvs = [
        ["verify", "formulas-vs-oracle", "--inject-fault", "--k-max", "2", "--n-max", "2"],
        ["-h"],
        ["table", "des-le", "--k", "3", "--t", "1", "--n", "66"],
    ]
    streams = [name for name in golden.streams() if name != golden.ARGV_STREAM]
    return [
        *(lambda name=name: golden.stream_digests(name, ROUNDS) for name in streams),
        lambda: golden.stream_digests(golden.ARGV_STREAM),
        *_suite_calls(),
        # The errata return cases, not a suite's result, so they have no suite row.
        lambda: [case.resolved for case in verify.des_mod_errata(2, 2)],
        *map(_quiet, argvs),
        _readme_example,
    ]


def reached() -> set[tuple[str, int, str]]:
    """The (file, first line, name) of every function under ``src/wordstats`` that a declared call ran."""
    if any(name == "wordstats" or name.startswith("wordstats.") for name in sys.modules):
        raise SystemExit("error: run the scan in a fresh interpreter: wordstats is already imported")
    import wordstats

    for module in pkgutil.iter_modules(wordstats.__path__, "wordstats."):
        importlib.import_module(module.name)
    calls = declared_calls()
    codes = set()
    add = codes.add

    def profile(frame, event, arg):
        if event == "call":
            add(frame.f_code)

    sys.setprofile(profile)
    try:
        for call in calls:
            call()
    finally:
        sys.setprofile(None)
    src = str(SOURCES)
    return {(code.co_filename, code.co_firstlineno, code.co_name) for code in codes if code.co_filename.startswith(src)}


@functools.cache
def _test_names(path: Path) -> set[str]:
    """``name`` and ``Class::name`` of every function a test file defines at its top or in a top-level class."""
    names = set()
    for node in ast.parse(path.read_text(encoding="utf-8")).body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            names.add(node.name)
        elif isinstance(node, ast.ClassDef):
            names.update(f"{node.name}::{item.name}" for item in node.body if isinstance(item, ast.FunctionDef))
    return names


def _evidence_problem(name: str, reason: str, evidence: str) -> str | None:
    """Why the evidence of ``name``'s row does not hold, or None."""
    if reason not in REASONS:
        return f"its reason {reason!r} is none of {', '.join(REASONS)}"
    pattern = _CITES.get(reason, _TEST)
    if not re.fullmatch(pattern, evidence):
        return f"its evidence {evidence!r} does not cite {'a line' if reason in _CITES else 'a test'} as {pattern}"
    if reason in _CITES:
        path, line = evidence.rsplit(":", 1)
        lines = (ROOT / path).read_text(encoding="utf-8").splitlines() if (ROOT / path).is_file() else []
        if not 1 <= int(line) <= len(lines) or not lines[int(line) - 1].strip():
            return f"{evidence} is no line of code"
        return _cited_line_problem(name, evidence, lines[int(line) - 1]) if reason == "import-time" else None
    path, _, test = evidence.partition("::")
    if not (ROOT / path).is_file() or test not in _test_names(ROOT / path):
        return f"{evidence} is no test"
    return None


def _cited_line_problem(name: str, evidence: str, code: str) -> str | None:
    """Why an import-time row's cited line does not run its function, or None.

    The line must name the function; a class's ``__init_subclass__`` runs
    at a ``class`` statement instead, which must list the class among its bases.
    """
    *_, owner, function = name.split(".")
    if function == "__init_subclass__":
        bases = re.match(r"\s*class\s+\w+\s*\((.*)\)\s*:", code)
        if bases is None or owner not in re.findall(r"\w+", bases.group(1)):
            return f"{evidence} is no class statement with {owner} among its bases"
        return None
    if not re.search(rf"\b{re.escape(function)}\b", code):
        return f"{evidence} does not name {function}"
    return None


def audit(defined: dict[str, tuple], ran: set[tuple], ledger: dict[str, tuple[str, str]]) -> list[str]:
    """One line per problem, each naming its function; none when every function runs or has one sound row."""
    problems = []
    for name, key in defined.items():
        if key not in ran and name not in ledger:
            problems.append(f"{name}: did not run and has no ledger row")
        elif key in ran and name in ledger:
            problems.append(f"{name}: ran, so its ledger row ({ledger[name][0]}) is stale")
    for name, (reason, evidence) in ledger.items():
        if name not in defined:
            problems.append(f"{name}: the ledger row names no function in src/wordstats")
        else:
            problem = _evidence_problem(name, reason, evidence)
            if problem:
                problems.append(f"{name}: {problem}")
    return problems


def main() -> int:
    start = time.perf_counter()
    ran = reached()
    seconds = time.perf_counter() - start
    defined = definitions()
    problems = audit(defined, ran, LEDGER)
    for problem in problems:
        print(f"FAIL {problem}")
    if problems:
        print(f"{len(problems)} problems; add a row to LEDGER in {Path(__file__).name} only with its reason and evidence")
        return 1
    rows = [reason for reason, _ in LEDGER.values()]
    counts = ", ".join(f"{reason} {rows.count(reason)}" for reason in REASONS)
    print(
        f"{len(defined)} functions in src/wordstats: {len(defined) - len(LEDGER)} ran under the declared calls "
        f"({seconds:.2f} s), and {len(LEDGER)} have a ledger row: {counts}"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
