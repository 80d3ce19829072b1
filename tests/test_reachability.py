"""tools/reachability.py: every function in src runs under the declared calls, or a ledger row says why not."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "reachability.py"


def _load():
    spec = importlib.util.spec_from_file_location("reachability", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


reachability = _load()
DEFINED = reachability.definitions()


def test_every_function_runs_or_has_one_ledger_row():
    # A fresh interpreter: the CLI's parser tree is built once per process, so a warm one would hide it.
    done = subprocess.run([sys.executable, str(SCRIPT)], capture_output=True, text=True, timeout=120)
    assert done.returncode == 0, done.stdout + done.stderr
    assert done.stdout.startswith(f"{len(DEFINED)} functions in src/wordstats: ")


@pytest.fixture
def scan(monkeypatch, capsys):
    """Run ``main`` on a given ledger, with the functions that ran given: by default all without a row."""
    monkeypatch.setattr(reachability, "definitions", lambda: DEFINED)

    def run(ledger, ran=None):
        if ran is None:
            ran = [name for name in DEFINED if name not in reachability.LEDGER]
        monkeypatch.setattr(reachability, "LEDGER", ledger)
        monkeypatch.setattr(reachability, "reached", lambda: {DEFINED[name] for name in ran})
        code = reachability.main()
        return code, capsys.readouterr().out.splitlines()

    return run


def test_the_committed_ledger_passes_on_its_own_functions(scan):
    code, lines = scan(dict(reachability.LEDGER))
    assert code == 0
    assert lines == [lines[0]] and lines[0].startswith(f"{len(DEFINED)} functions in src/wordstats: ")


def test_a_function_that_neither_runs_nor_has_a_row_fails(scan):
    ledger = dict(reachability.LEDGER)
    del ledger["oracle.count_matching"]
    code, lines = scan(ledger)
    assert code == 1
    assert lines[0] == "FAIL oracle.count_matching: did not run and has no ledger row"


def test_a_row_whose_function_ran_is_stale(scan):
    ran = [name for name in DEFINED if name not in reachability.LEDGER]
    code, lines = scan(dict(reachability.LEDGER), ran + ["formulas.evaluate"])
    assert code == 1
    assert lines[0] == "FAIL formulas.evaluate: ran, so its ledger row (bench-pinned) is stale"


def test_a_row_that_names_no_function_fails(scan):
    ledger = {**reachability.LEDGER, "oracle.statistic_lengths": ("failure-path", "tests/test_lengths.py::test_a_pass")}
    code, lines = scan(ledger)
    assert code == 1
    assert lines[0] == "FAIL oracle.statistic_lengths: the ledger row names no function in src/wordstats"


@pytest.mark.parametrize(
    "row, problem",
    [
        (("unused", "tests/test_formulas.py::TestCountDesLe::test_examples"),
         "its reason 'unused' is none of bench-pinned, failure-path, import-time, subprocess"),
        (("bench-pinned", "tests/test_formulas.py::TestCountDesLe::test_examples"),
         "its evidence 'tests/test_formulas.py::TestCountDesLe::test_examples' does not cite a line "
         r"as bench/[\w/]+\.py:\d+"),
        (("bench-pinned", "bench/tracing.py:100000"), "bench/tracing.py:100000 is no line of code"),
        (("failure-path", "tests/test_formulas.py::TestCountDesLe::test_no_such_test"),
         "tests/test_formulas.py::TestCountDesLe::test_no_such_test is no test"),
        (("subprocess", "tests/test_no_such_file.py::test_examples"), "tests/test_no_such_file.py::test_examples is no test"),
    ],
)
def test_a_row_must_cite_evidence_that_exists(scan, row, problem):
    code, lines = scan({**reachability.LEDGER, "cli.entrypoint": row})
    assert code == 1
    assert lines[0] == f"FAIL cli.entrypoint: {problem}"


def _line_of(module: str, text: str) -> str:
    """The ``path:line`` citation of the first line of ``src/wordstats/<module>`` that starts with ``text``."""
    lines = (reachability.SOURCES / module).read_text(encoding="utf-8").splitlines()
    return f"src/wordstats/{module}:{next(i for i, line in enumerate(lines, 1) if line.strip().startswith(text))}"


@pytest.mark.parametrize(
    "name, module, text, problem",
    [
        # A line of the levels-blocks entry of FAMILIES, which calls no _threshold_family.
        ("formulas._threshold_family", "formulas.py", '"levels-blocks": FamilyForms(', "does not name _threshold_family"),
        # The hook's own def names it, but runs at a class statement that subclasses Record.
        ("words.Record.__init_subclass__", "words.py", "def __init_subclass__", "is no class statement with Record among its bases"),
        # A subclass of FrozenRecord runs the hook too, but does not list Record among its bases.
        ("words.Record.__init_subclass__", "words.py", "class BlockPartition(", "is no class statement with Record among its bases"),
    ],
)
def test_an_import_time_row_must_cite_a_line_that_runs_its_function(scan, name, module, text, problem):
    evidence = _line_of(module, text)
    code, lines = scan({**reachability.LEDGER, name: ("import-time", evidence)})
    assert code == 1
    assert lines[0] == f"FAIL {name}: {evidence} {problem}"


def test_an_import_time_row_may_cite_any_line_that_runs_its_function(scan):
    ledger = {
        **reachability.LEDGER,
        "formulas._threshold_family": ("import-time", _line_of("formulas.py", '"des-gt": _threshold_family(')),
        "words.Record.__init_subclass__": ("import-time", _line_of("polynomials.py", "class Polynomial(Record):")),
    }
    code, lines = scan(ledger)
    assert code == 0, lines


def test_functions_are_keyed_by_module_and_qualified_name_at_their_first_line():
    path, line, name = DEFINED["words.BlockPartition.threshold"]  # under @classmethod and @lru_cache
    source = Path(path).read_text(encoding="utf-8").splitlines()
    assert (Path(path).name, name, source[line - 1].strip()) == ("words.py", "threshold", "@classmethod")
    assert DEFINED["formulas.hall_remmel_summed_rows.<locals>.column"][2] == "column"
    assert DEFINED["cli._Reader._option"][2] == "_option"


def test_the_scan_refuses_a_warm_interpreter():
    import wordstats  # noqa: F401  (pytest's process has imported it already)

    with pytest.raises(SystemExit, match="fresh interpreter"):
        reachability.reached()
