"""benchmarks/run.py builds every row group and writes the BENCH schema."""

import importlib.util
import subprocess
import sys
from pathlib import Path

import pytest

import starkit

ROOT = Path(__file__).resolve().parent.parent


@pytest.fixture(scope="module")
def bench():
    spec = importlib.util.spec_from_file_location(
        "bench_run", ROOT / "benchmarks" / "run.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def no_subprocess(*args, **kwargs):
    raise AssertionError("building rows started a subprocess")


def test_every_row_group_builds_with_unique_labels(bench, tmp_path,
                                                   monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    assert set(bench.GROUPS) == {"perfbench", "verify", *bench.ROW_GROUPS}
    for group, build in bench.ROW_GROUPS.items():
        rows = build(starkit, str(tmp_path))
        labels = [label for label, call in rows]
        assert rows and len(set(labels)) == len(labels), group
        assert all(callable(call) for _, call in rows), group


def test_cold_interleave_gives_the_rows_schema(bench, tmp_path,
                                               monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    src = ROOT / "src"
    rows, control = bench.time_rows(
        ["cold"], {"parent": src, "change": src, "control": src}, 1, tmp_path)
    assert set(rows) == set(control) == {"cold"}
    assert list(rows["cold"]) == list(control["cold"])
    assert len(rows["cold"]) == 4
    for label, row in rows["cold"].items():
        assert label.endswith(" (ms)")
        assert row["parent"]["runs"] and row["change"]["runs"]
        assert row["median_ratio"] > 0 and row["noise_floor"] >= 0
        assert set(control["cold"][label]) >= {"parent", "control",
                                               "median_ratio"}


def test_src_lines_counts_the_package(bench):
    files = sorted((ROOT / "src" / "starkit").glob("*.py"))
    assert files
    assert bench.src_lines(ROOT) == sum(
        len(p.read_text(encoding="utf-8").splitlines()) for p in files)


def test_noise_floor_is_the_controls_paired_ratio(bench, tmp_path,
                                                  monkeypatch):
    # medians 3 and 2 (ratio 0.667); per-round ratios 1.2, 0.667 and 4
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(bench, "interleave", lambda sides, rounds: {
        "row (ms)": {"parent": [1.0, 3.0, 10.0], "change": [1.0, 3.0, 10.0],
                     "control": [1.2, 2.0, 40.0]}})
    src = ROOT / "src"
    rows, control = bench.time_rows(
        ["cold"], {"parent": src, "change": src, "control": src}, 3, tmp_path)
    row = control["cold"]["row (ms)"]
    assert (row["median_ratio"], row["paired_ratio_median"]) == (0.667, 1.2)
    assert rows["cold"]["row (ms)"]["noise_floor"] == 0.2


def test_workload_rows_rerun_perfbench_rounds(bench, tmp_path, monkeypatch):
    monkeypatch.setattr(sys, "path", list(sys.path))
    monkeypatch.setattr(subprocess, "run", no_subprocess)
    monkeypatch.setattr(subprocess, "Popen", no_subprocess)
    rows = bench.workload_cases(starkit, str(tmp_path))
    labels = [label for label, _ in rows]
    assert len(set(labels)) == len(labels) == 4
    assert [label.rsplit(",", 1)[0] for label in labels] == [
        "perfbench algebra, round 0", "perfbench algebra, round 1",
        "perfbench algebra, round 2", "perfbench rk4, round 0"]
    # each call clears the ladder-state cache first, so that it misses as
    # each round of a perfbench run does with its new keys
    ladder = starkit.oscillator.sho_offdiagonal
    for _ in range(2):
        rows[0][1]()
        info = ladder.cache_info()
        assert info.hits == 0 and info.misses > 0
