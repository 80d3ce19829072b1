"""The README's library example runs, and the package's public names resolve."""

import re
import subprocess
import sys
from pathlib import Path

import pytest

import wordstats

README = Path(__file__).resolve().parent.parent / "README.md"


def _library_example() -> str:
    section = README.read_text().split("## Library example", 1)[1]
    return re.search(r"```python\n(.*?)```", section, re.S).group(1)


def test_library_example_runs():
    exec(compile(_library_example(), str(README), "exec"), {})


def _listed_exports() -> dict[str, str]:
    """README's list of public names, each by the module it names: ``- `module`: `name`, ...``."""
    section = README.read_text().split("The public names, `wordstats.__all__`", 1)[1]
    listed = {}
    for module, names in re.findall(r"^- `(\w+)`: (.*)$", section, re.M):
        for name in re.findall(r"`(\w+)`", names):
            assert name not in listed, name
            listed[name] = module
    return listed


def test_readme_lists_the_public_names_by_module():
    listed = _listed_exports()
    assert sorted(listed) == wordstats.__all__
    assert listed == wordstats._EXPORTS


def test_every_export_resolves():
    assert [name for name in wordstats.__all__ if not hasattr(wordstats, name)] == []


def test_every_export_is_its_submodules_own():
    for name in wordstats.__all__:
        value = getattr(wordstats, name)
        assert getattr(sys.modules[value.__module__], name) is value, name


def test_star_import_binds_every_export():
    namespace = {}
    exec("from wordstats import *", namespace)
    assert set(wordstats.__all__) <= set(namespace)


def test_dir_lists_every_export():
    assert set(wordstats.__all__) <= set(dir(wordstats))


def test_unknown_name_is_refused():
    with pytest.raises(AttributeError, match="has no attribute 'no_such_name'"):
        wordstats.no_such_name
    with pytest.raises(ImportError):
        from wordstats import no_such_name  # noqa: F401


def test_import_loads_no_submodule_until_asked():
    """A fresh ``import wordstats`` loads no submodule; a name or a submodule loads on access."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", f"""
import sys
sys.path.insert(0, {str(src)!r})
import wordstats
assert [name for name in sys.modules if name.startswith("wordstats.")] == []
from wordstats import count_des_le, verify
assert sorted(name for name in sys.modules if name.startswith("wordstats.")) == [
    "wordstats.combinat", "wordstats.formulas", "wordstats.identities", "wordstats.oracle",
    "wordstats.polynomials", "wordstats.series", "wordstats.verify", "wordstats.words",
]
assert wordstats.series.build_ak_series is wordstats.build_ak_series
"""], capture_output=True, text=True, timeout=60)
    assert done.returncode == 0, done.stderr


def test_every_module_loads_only_the_standard_library():
    """The runtime dependency list is empty: importing every wordstats module loads nothing
    from outside the standard library, even where numpy or sympy is installed.  A fresh
    interpreter, so that modules pytest loaded cannot hide a stray import."""
    src = Path(__file__).resolve().parent.parent / "src"
    done = subprocess.run([sys.executable, "-c", f"""
import importlib, pkgutil, sys
before = set(sys.modules)
sys.path.insert(0, {str(src)!r})
import wordstats
for module in pkgutil.walk_packages(wordstats.__path__, "wordstats."):
    importlib.import_module(module.name)
loaded = {{name.partition(".")[0] for name in set(sys.modules) - before}}
print(sorted(loaded - set(sys.stdlib_module_names) - {{"wordstats"}}))
"""], capture_output=True, text=True, timeout=60)
    assert (done.returncode, done.stdout) == (0, "[]\n"), done.stderr
