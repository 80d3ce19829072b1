"""tools/golden.py: the first round of every benchmark stream answers as its committed digest says."""

import importlib.util
import itertools
import json
import subprocess
import sys
from pathlib import Path

SCRIPT = Path(__file__).resolve().parent.parent / "tools" / "golden.py"


def _load():
    spec = importlib.util.spec_from_file_location("golden", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


golden = _load()
COMMITTED = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))


def test_the_file_holds_every_stream_at_its_full_length():
    assert list(COMMITTED) == golden.streams()
    for name, digests in COMMITTED.items():
        assert len(digests) == golden.full_length(name), name


def test_first_round_of_every_stream_matches():
    for name in golden.streams():
        assert golden.stream_digests(name, 1) == COMMITTED[name][:1], name


def test_every_declared_argv_matches():
    assert golden.stream_digests(golden.ARGV_STREAM) == COMMITTED[golden.ARGV_STREAM]


def test_the_argvs_cover_every_family_engine_and_format():
    tables = {(argv[1], argv[argv.index("--engine") + 1], argv[-1]) for argv in golden.ARGVS if argv[0] == "table"}
    counts = [argv[1] for argv in golden.ARGVS if argv[0] == "count"]
    families = list(golden.QUERIES)
    assert tables == set(itertools.product(families, ("closed-form", "oracle", "transfer"), ("json", "csv")))
    assert counts == families == list(golden._program().cli.formulas.FAMILIES)


def test_first_difference_names_the_round():
    assert golden.first_difference(["a", "b", "c"], ["a", "b", "c"]) is None
    assert golden.first_difference(["a", "x", "c"], ["a", "b", "y"]) == 1
    assert golden.first_difference(["a", "b"], ["a", "b", "c"]) == 2
    assert golden.first_difference([], ["a"]) == 0


def test_a_changed_digest_fails_by_stream_and_round(tmp_path, monkeypatch, capsys):
    monkeypatch.setattr(golden.workloads, "rounds_for", lambda workload, seconds: 1)
    monkeypatch.setattr(golden, "ARGVS", golden.ARGVS[:1])
    monkeypatch.setattr(golden, "DIGESTS", tmp_path / "golden.json")
    assert golden.main(["--write"]) == 0
    written = json.loads(golden.DIGESTS.read_text(encoding="utf-8"))
    assert written == {name: digests[:1] for name, digests in COMMITTED.items()}
    assert golden.main([]) == 0
    written["tables-transfer/12"] = ["0" * 16]
    golden.DIGESTS.write_text(json.dumps(written), encoding="utf-8")
    capsys.readouterr()
    assert golden.main([]) == 1
    lines = capsys.readouterr().out.splitlines()
    [failure] = [line for line in lines if line.startswith("FAIL")]
    assert failure.startswith("FAIL tables-transfer/12: 1 rounds ("), failure
    assert failure.endswith(" s): round 0 differs"), failure
    assert lines[-1] == "8 of 9 streams match golden.json"


def test_importing_the_script_loads_only_the_standard_library_and_the_program():
    done = subprocess.run([sys.executable, "-c", f"""
import sys
before = set(sys.modules)
sys.path.insert(0, {str(SCRIPT.parent)!r})
import golden
golden._program()
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(sorted(loaded - set(sys.stdlib_module_names)))
"""], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "['checks', 'golden', 'wordstats', 'workloads']\n"), done.stderr
