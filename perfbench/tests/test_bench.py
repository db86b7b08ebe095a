"""Tests of the benchmark's own code (not of starkit).

Run from the repository root:  python3 -m pytest perfbench/tests -q
"""

import json
import os
import re
import shutil
import subprocess
import sys

import numpy as np
import pytest

import checks as ck
import harness
import tracing
from workloads import registry
from workloads.verify import KNOWN_FAILING_ROW, check_rows

from conftest import BENCH, ROOT

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def inputs_of(workload, index=0):
    return [op.inputs for op in workload.round(index)]


@pytest.mark.parametrize("name", ["algebra", "grid", "rk4", "verify"])
def test_seed_determines_inputs(sk, tmp_path, name):
    cls = registry()[name]
    first = inputs_of(cls(sk, 5, str(tmp_path / "a")))
    again = inputs_of(cls(sk, 5, str(tmp_path / "b")))
    other = inputs_of(cls(sk, 6, str(tmp_path / "c")))
    assert first == again
    assert first != other
    assert inputs_of(cls(sk, 5, str(tmp_path / "d")), 1) != first


def test_metric_names_and_units(spec):
    metrics = spec["end_to_end"] + spec["per_layer"]
    names = [m["name"] for m in metrics]
    assert len(names) == len(set(names))
    for m in metrics:
        assert NAME.fullmatch(m["name"]), m["name"]
        assert UNIT.fullmatch(m["unit"]), m
        assert m["better"] in ("higher", "lower")
    assert {"setup_s", "ops_per_s", "peak_rss_mb"} <= set(names)
    for m in spec["end_to_end"]:
        assert 0 < m["bound"] <= 0.25
    setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


def test_every_layer_metric_has_a_rule_and_a_group(sk, spec):
    values = tracing.layer_metrics(tracing.Tracer(sk), spec["per_layer"], 1.0)
    assert set(values) == {m["name"] for m in spec["per_layer"]}
    with open(os.path.join(BENCH, "layer_map.json"), encoding="utf-8") as fh:
        layer_map = json.load(fh)
    grouped = set()
    for group in layer_map["groups"]:
        for name in group["metrics"]:
            if "<suite>" in name:
                grouped |= {name.replace("<suite>", s) for s in sk.verify.SUITES}
            elif "<layer>" in name:
                grouped |= {name.replace("<layer>", x) for x in tracing.LAYERS}
            else:
                grouped.add(name)
    assert grouped == set(values)
    workloads = {w["name"] for w in spec["workloads"]}
    assert workloads == set(registry())
    for group in layer_map["groups"]:
        assert set(group["on"]) | set(group["flat_on"]) <= workloads


def _wrong(op, output):
    return harness.Op(op.kind, op.inputs, lambda: output, op.check)


def test_wrong_output_counts_as_failed(sk, tmp_path):
    rk4 = registry()["rk4"](sk, 3, str(tmp_path))
    op = rk4.round(0)[0]
    good = op.run()
    assert harness.execute(op).passed
    bad = sk.numerics.PhaseGrid(good.spec, good.values + 1e-3)
    algebra = registry()["algebra"](sk, 3, str(tmp_path))
    star_op = algebra.round(0)[0]
    shifted = sk.symbols.scale(star_op.run(), 1.0 + 1e-6)
    phase = harness.Phase(samples=[harness.execute(_wrong(op, bad)),
                                   harness.execute(_wrong(star_op, shifted)),
                                   harness.execute(op)])
    summary = harness.summarize(phase)
    assert summary["attempted"] == 3
    assert summary["failed"] == 2
    assert len(summary["unexplained"]) == 2


def test_raising_op_counts_as_failed():
    def boom():
        raise ValueError("no")

    sample = harness.execute(harness.Op("boom", (), boom, lambda out: (0.0, "")))
    assert not sample.passed and "ValueError" in sample.error


def test_only_the_documented_row_is_a_known_defect(sk):
    row = sk.verify.CheckResult
    known = [row(KNOWN_FAILING_ROW, 5e-6, 1e-6), row("other", 0.5, 1.0)]
    assert check_rows(known) == (pytest.approx(5.0), ck.CRITERION_11)
    other = [row(KNOWN_FAILING_ROW, 5e-6, 1e-6), row("other", 2.0, 1.0)]
    assert check_rows(other)[1] == ""


def test_nan_ratio_fails(sk):
    assert np.isnan(ck.worst([0.5, float("nan")]))
    row = sk.verify.CheckResult
    ratio, defect = check_rows([row("ok", 0.5, 1.0), row("bad", float("nan"), 1.0)])
    sample = harness.execute(harness.Op("nan", (), lambda: None,
                                        lambda out: (ratio, defect)))
    assert not sample.passed and not sample.defect


def test_tracer_reaches_from_imports_and_restores(sk):
    star_product = sk.star.star_product
    tracer = tracing.Tracer(sk)
    tracer.install()
    try:
        assert sk.transition.star_product is not star_product
        assert sk.oscillator.star_product is sk.star.star_product
        f = sk.symbols.poly_symbol({(2, 0): 1.0, (0, 1): 0.5})
        sk.transition.check_equivalence(
            f, f, sk.star.moyal_star(), sk.star.damped_star(0.1),
            sk.transition.damped_transition(0.1))
    finally:
        tracer.uninstall()
    assert sk.star.star_product is star_product
    assert sk.transition.star_product is star_product
    totals = tracer.totals()
    calls, incl, excl = totals["transition.check_equivalence"]
    assert calls == 1 and 0 <= excl <= incl
    assert totals["star.star_product.series"][0] == 2
    assert totals["transition.apply"][0] == 3
    name, parent, _, _ = tracer.span_arrays()
    roots = {tracer.names[i] for i in name[parent < 0]}
    assert roots == {"symbols.poly_symbol", "star.moyal_star",
                     "star.damped_star", "transition.damped_transition",
                     "transition.check_equivalence"}


def test_typed_errors_counted_once_in_their_layer(sk):
    tracer = tracing.Tracer(sk)
    tracer.install()
    try:
        with pytest.raises(sk.errors.NonTerminatingError):
            sk.transition.check_equivalence(
                sk.symbols.gaussian(1.0, app=-1.0), sk.symbols.ONE,
                sk.star.moyal_star(), sk.star.moyal_star(),
                sk.transition.damped_transition(0.1))
    finally:
        tracer.uninstall()
    assert tracer.errors["transition"] == 1
    assert sum(tracer.errors.values()) == 1


def test_percentile_tail_needs_ten_beyond():
    assert harness.tail(list(range(19)))[0] is None
    q, value, n = harness.tail(list(range(100)))
    assert (q, n) == (90.0, 100)
    assert value == pytest.approx(np.percentile(range(100), 90))


def test_refuses_checkout_without_sources(tmp_path):
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(BENCH, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "rk4", "--seed",
         "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
