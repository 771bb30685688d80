"""The scripts under ``benchmarks/`` still compile and import against the package.

``bench_kernels.py`` imports private names such as ``netmodel._terms_of``, and
``yardstick.py`` imports ``cli._RUN_PARAMS`` and ``cli._build_params``, so
deleting or renaming one would break a script that no other test runs. Each
file is compiled and run here as source text under a name other than
``__main__``, so its imports run and its ``main`` does not.
"""

import sys
from pathlib import Path

import pytest

BENCHMARKS = Path(__file__).resolve().parent.parent / "benchmarks"


@pytest.mark.parametrize("script", ["bench_kernels.py", "yardstick.py"])
def test_script_imports_without_running_main(script, monkeypatch):
    path = BENCHMARKS / script
    # yardstick.py puts perfbench/ on sys.path to import its instance generator: keep that path out
    # of the other tests, and write no bytecode into perfbench/
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    namespace = {"__name__": f"benchmarks_{path.stem}", "__file__": str(path)}
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), namespace)
    assert callable(namespace["main"])
