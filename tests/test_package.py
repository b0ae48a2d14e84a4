"""What `import nfmatch` loads, and the names the package exports.

The load checks read `sys.modules` in a fresh interpreter: `-X importtime`
does not list a module loaded by `from . import lang` or by importlib."""

import os
import subprocess
import sys
import types
from pathlib import Path

import pytest

import nfmatch

SRC = Path(nfmatch.__file__).resolve().parent.parent
NOT_IN_CORE = ("nfmatch.lang", "nfmatch.bench", "nfmatch.examples", "multiprocessing")
HOMES = ("errors", "values", "pattern", "matchers", "engine", "lang", "examples", "bench")

# runs `python -m nfmatch eval "(+ 1 2)"`, then lists the loaded modules
CLI_EVAL = """\
import runpy, sys
sys.argv[1:] = ["eval", "(+ 1 2)"]
try:
    runpy.run_module("nfmatch", run_name="__main__", alter_sys=True)
except SystemExit as done:
    assert done.code == 0
"""


def _loaded_after(code: str) -> tuple:
    """(stdout, the names in sys.modules) after `python -c CODE` has run CODE."""
    done = subprocess.run(
        [sys.executable, "-c", code + "\nimport sys; print(*sys.modules, file=sys.stderr)"],
        capture_output=True, text=True, env={**os.environ, "PYTHONPATH": str(SRC)},
    )
    assert done.returncode == 0, done.stderr
    names = set(done.stderr.split())
    assert "nfmatch.engine" in names
    return done.stdout, names


@pytest.mark.parametrize("statement", ["import nfmatch", "import nfmatch.engine"],
                         ids=["nfmatch", "nfmatch.engine"])
def test_importing_the_package_loads_only_the_matching_core(statement):
    _, names = _loaded_after(statement)
    assert {"nfmatch.values", "nfmatch.pattern", "nfmatch.matchers"} <= names
    assert names.isdisjoint(NOT_IN_CORE)


def test_the_cli_loads_bench_only_for_the_bench_command():
    out, names = _loaded_after(CLI_EVAL)
    assert out == "3\n"
    assert "nfmatch.lang" in names and "nfmatch.bench" not in names


def test_every_export_is_its_defining_modules_object():
    homes = [getattr(nfmatch, m) for m in HOMES]
    assert len(nfmatch.__all__) == len(set(nfmatch.__all__)) > 80
    for name in nfmatch.__all__:
        value = getattr(nfmatch, name)
        assert any(vars(home).get(name, home) is value for home in homes), name


def test_a_lazy_export_is_what_its_module_holds_now(monkeypatch):
    sentinel = object()
    monkeypatch.setattr(nfmatch.examples, "sat", sentinel)
    assert nfmatch.sat is sentinel
    monkeypatch.undo()
    assert nfmatch.sat is nfmatch.examples.sat


def test_dir_and_star_import_cover_every_export():
    assert set(nfmatch.__all__) | {"lang", "examples", "bench", "cli"} <= set(dir(nfmatch))
    namespace = {}
    exec("from nfmatch import *", namespace)
    assert [name for name in nfmatch.__all__ if namespace.get(name, namespace)
            is not getattr(nfmatch, name)] == []


def test_an_unknown_name_raises_the_standard_attribute_error():
    with pytest.raises(AttributeError) as info:
        nfmatch.no_such_name
    with pytest.raises(AttributeError) as plain:
        types.ModuleType("nfmatch").no_such_name
    assert str(info.value) == str(plain.value) == "module 'nfmatch' has no attribute 'no_such_name'"
    with pytest.raises(ImportError):
        from nfmatch import no_such_name  # noqa: F401
