"""The benchmark's tracer wraps package functions by name; each name must still resolve.

``perfbench/spans.py`` lists them in ``LAYERS``, and ``Tracer.install`` looks
each one up with ``getattr``, so deleting or renaming a listed function
breaks ``perfbench/run.py --trace 1``. The file is read and run here as
source text: nothing is imported from, or written to, ``perfbench/``.
"""

import importlib
from pathlib import Path

from conftest import run_stagnating, summary_without_clock

SPANS = Path(__file__).resolve().parent.parent / "perfbench" / "spans.py"


def _spans_namespace() -> dict:
    namespace = {"__name__": "perfbench_spans"}
    exec(compile(SPANS.read_text(encoding="utf-8"), str(SPANS), "exec"), namespace)
    return namespace


def test_every_traced_name_resolves_in_the_package():
    spans = _spans_namespace()
    missing = []
    for name in spans["SPAN_NAMES"]:
        layer, _, attr = name.partition(".")
        owner = importlib.import_module(f"survroute.{layer}")
        if "." in attr:  # a method, looked up on its class as Tracer.install does
            cls_name, _, attr = attr.partition(".")
            owner = getattr(owner, cls_name, None)
        if not callable(getattr(owner, attr, None)):
            missing.append(name)
    assert spans["SPAN_NAMES"] and missing == []


def test_install_then_uninstall_restores_every_binding():
    spans = _spans_namespace()
    modules = [importlib.import_module(f"survroute.{layer}") for layer in spans["LAYERS"]]
    before = [dict(vars(m)) for m in modules]
    tracer = spans["Tracer"]()
    try:
        tracer.install()
        assert tracer._undo  # it wrapped something
    finally:
        tracer.uninstall()
    assert [dict(vars(m)) for m in modules] == before


def test_a_traced_run_that_immigrates_counts_every_evaluation_and_writes_the_same_files(tmp_path, monkeypatch):
    # no benchmark workload stalls, so none reaches immigration; this run immigrates 9 times
    spans = _spans_namespace()
    plain, traced = tmp_path / "plain", tmp_path / "traced"
    plain.mkdir()
    traced.mkdir()
    run_stagnating(plain, monkeypatch, 1, "0.3", 3)
    tracer = spans["Tracer"]()
    tracer.call = 1
    try:
        tracer.install()
        run_stagnating(traced, monkeypatch, 1, "0.3", 3)
    finally:
        tracer.uninstall()
    metrics = tracer.layer_metrics(1)
    summary = summary_without_clock(traced / "out")
    assert sum(metrics[f"{stage}.evals"] for stage in spans["EVAL_STAGES"]) == summary["evaluations"]
    assert metrics["engine.random_immigrants.calls"] > 0
    assert (traced / "out" / "front.csv").read_bytes() == (plain / "out" / "front.csv").read_bytes()
    assert summary == summary_without_clock(plain / "out")
