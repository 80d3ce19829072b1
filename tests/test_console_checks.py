"""The console checks' declarations hold, and their runner passes and fails checks as it should."""

import importlib.util
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "console_checks.py"


def _load():
    spec = importlib.util.spec_from_file_location("console_checks", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


console_checks = _load()


def test_every_check_is_named_once_with_a_bounded_timeout():
    names = [check.name for check in console_checks.CHECKS]
    assert len(names) == len(set(names))
    assert [check.name for check in console_checks.CHECKS if not 0 < check.timeout <= 10] == []
    assert {check.kind for check in console_checks.CHECKS} == set(console_checks.COMPARE)


def test_checks_expecting_a_nonzero_exit_pass(capsys):
    checks = [check for check in console_checks.CHECKS if check.exit != 0]
    assert {check.name for check in checks} >= {
        "hall-remmel refusal", "empty --track piece refusal", "injected fault found",
        "over-budget count", "broken pipe",
    }
    assert console_checks.run(checks) == 0, capsys.readouterr().out
    lines = capsys.readouterr().out.splitlines()
    assert [line.split(" (")[0] for line in lines[:-1]] == [f"ok   {c.name}" for c in checks]


def test_a_wrong_expectation_fails_by_name(capsys):
    over_budget = next(c for c in console_checks.CHECKS if c.name == "over-budget count")
    assert console_checks.run([over_budget._replace(exit=0)]) == 1
    out = capsys.readouterr().out
    assert out.startswith("FAIL over-budget count ("), out
    assert "exit 3, expected 0" in out


def test_importing_the_script_loads_only_the_standard_library():
    done = subprocess.run([sys.executable, "-c", f"""
import sys
before = set(sys.modules)
sys.path.insert(0, {str(SCRIPT.parent)!r})
import console_checks
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(sorted(loaded - set(sys.stdlib_module_names) - {{"console_checks"}}))
"""], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
