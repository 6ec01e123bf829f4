"""Tests of the benchmark's span arithmetic and binding patches.

    python3 -m pytest perfbench -q
"""

import json
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

from spans import PER_LAYER, Tracer, layer_metrics, merge  # noqa: E402


class FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


def test_self_time_subtracts_direct_children_only():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("a")           # a: 0..10
    clock.now = 2
    tr.enter("b")           # b: 2..5
    clock.now = 3
    tr.enter("c")           # c: 3..4, inside b
    clock.now = 4
    tr.exit()
    clock.now = 5
    tr.exit()
    clock.now = 6
    tr.enter("b")           # b again: 6..8
    clock.now = 8
    tr.exit()
    clock.now = 10
    tr.exit()
    assert tr.self_s == {"a": 5, "b": 4, "c": 1}
    assert tr.incl_s == {"a": 10, "b": 5, "c": 1}
    assert tr.calls == {"a": 1, "b": 2, "c": 1}
    assert sum(tr.self_s.values()) == 10


def test_recursive_span_counts_inclusive_time_once():
    clock = FakeClock()
    tr = Tracer(clock)
    tr.enter("f")
    clock.now = 1
    tr.enter("f")
    clock.now = 3
    tr.exit()
    clock.now = 4
    tr.exit()
    assert tr.incl_s["f"] == 4
    assert tr.self_s["f"] == 4
    assert tr.calls["f"] == 2


def test_wrapper_closes_span_and_reports_exception():
    clock = FakeClock()
    tr = Tracer(clock)
    seen = []

    def boom():
        clock.now += 2
        raise ValueError("bad cache")

    wrapped = tr.timed("x", boom, on_raise=lambda a, k, exc: seen.append(exc))
    with pytest.raises(ValueError):
        wrapped()
    assert tr.self_s["x"] == 2 and not tr._stack
    assert [str(e) for e in seen] == ["bad cache"]


def test_layer_metrics_arithmetic():
    raw = merge([{
        "wall_s": 10.0,
        "self_s": {"harness.suite.thm3": 1.0, "chartab.character_table": 2.0,
                   "chartab.class_matrix": 3.0, "permgroup.class_of": 0.5,
                   "permgroup.conjugacy_classes": 1.5},
        "incl_s": {"harness.suite.thm3": 9.0, "chartab.character_table": 5.5},
        "calls": {"permgroup.class_of": 100, "permgroup.conjugacy_classes": 2,
                  "chartab.class_matrix": 7},
        "counts": {"harness.cache.loaded": 1},
        "groups": ["g1"], "rejected": []}, {
        "wall_s": 2.0, "self_s": {"permgroup.conjugacy_classes": 0.5},
        "incl_s": {}, "calls": {"permgroup.conjugacy_classes": 2},
        "counts": {"harness.cache.loaded": 2}, "groups": ["g1", "g2"],
        "rejected": ["x"]}])
    m = layer_metrics(raw)
    assert set(m) == {n for n, _ in PER_LAYER} - {"trace.overhead_s"}
    assert m["harness.suite.thm3.s"] == 9.0
    assert m["chartab.character_table.s"] == 5.5
    assert m["chartab.lift.s"] == 2.0
    assert m["chartab.class_matrix.calls"] == 7
    assert m["permgroup.conjugacy_classes.s"] == 2.0
    assert m["permgroup.conjugacy_classes.useful_ratio"] == 0.5
    assert m["permgroup.class_of.per_s"] == 200.0
    assert m["harness.cache.loaded"] == 3
    assert m["liebounds.grid_certify.points"] == 0
    assert m["trace.wall_s"] == 12.0
    # suites are excluded from the attributed sum
    assert m["trace.unattributed_s"] == pytest.approx(12.0 - 7.5)


def test_install_rebinds_every_binding_and_records_cache_events(
        tmp_path, monkeypatch):
    from regclass import chartab, harness, permgroup
    original = permgroup.conjugacy_classes
    assert harness.conjugacy_classes is original
    monkeypatch.setenv("REGCLASS_CACHE_DIR", str(tmp_path))
    key = "dihedral(7)"
    # a corrupt class-table cache entry: the harness recomputes silently
    (tmp_path / f"classes-{key}-v{harness.__version__}.txt").write_text("junk\n")
    harness.class_table_for.cache_clear()
    tr = Tracer()
    tr.install()
    try:
        assert harness.conjugacy_classes is permgroup.conjugacy_classes
        assert harness.conjugacy_classes is not original
        assert harness.load_class_table is permgroup.load_class_table
        table = harness.class_table_for(key)
        chartab.character_table(table.group, table)
    finally:
        tr.uninstall()
        harness.class_table_for.cache_clear()
    assert harness.conjugacy_classes is original
    assert len(table) == 5
    assert tr.calls["permgroup.conjugacy_classes"] == 1
    assert tr.counts["harness.cache.rejected"] == 1
    assert tr.rejected[0].startswith("load_class_table: ValueError")
    assert tr.counts["harness.cache.saved"] == 1
    assert tr.counts["harness.cache.bytes"] > 0
    assert tr.counts["harness.cache.computed"] == 2
    assert tr.calls["chartab.class_matrix"] >= 1
    assert tr.calls["permgroup.class_of"] > 0


def test_wrong_frozen_value_fails_an_operation():
    from workloads import Ledger, check_report
    from regclass import harness
    report = harness.verify_lemma72()
    frozen = json.loads((HERE / "frozen.json").read_text())["small-sweep"]
    ledger = Ledger()
    check_report(ledger, report, frozen["lemma72"])
    assert (ledger.attempted, ledger.failed) == (3, 0)
    wrong = json.loads(json.dumps(frozen["lemma72"]))
    wrong["lemma72:C2-on-GF5"][1]["value"] += 1
    ledger = Ledger()
    check_report(ledger, report, wrong)
    assert (ledger.attempted, ledger.failed) == (3, 1)


def test_benchmark_json_lists_the_per_layer_metrics():
    bench = HERE.parent / "BENCHMARK.json"
    if not bench.is_file():
        pytest.skip("BENCHMARK.json is not in this checkout")
    doc = json.loads(bench.read_text())
    assert [(m["name"], m["unit"]) for m in doc["per_layer"]] == list(PER_LAYER)
