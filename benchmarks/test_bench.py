"""Tests of the benchmark's own code: input generation, reference checks and
span arithmetic.

    PYTHONPATH=src python -m pytest -q benchmarks
"""

import sys
from pathlib import Path

import pytest

SRC = str(Path(__file__).resolve().parent.parent / "src")
if SRC not in sys.path:
    sys.path.insert(0, SRC)

import json  # noqa: E402

import checks  # noqa: E402
import child  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
from surfcover.observables import spec_to_text  # noqa: E402
from surfcover.words import is_identity  # noqa: E402


# -- input generation ---------------------------------------------------------


def test_exact_specs_are_deterministic_per_seed():
    for seed in (0, 1, 17, 2**63 + 5):
        first = [spec_to_text(s) for s in child.exact_specs(seed)]
        again = [spec_to_text(s) for s in child.exact_specs(seed)]
        assert first == again
    texts = {tuple(spec_to_text(s) for s in child.exact_specs(seed)) for seed in range(20)}
    assert len(texts) == 20


def test_exact_specs_keep_their_shape_and_never_use_the_identity():
    for seed in range(300):
        specs = child.exact_specs(seed)
        assert len(specs) == checks.EXACT_SPECS
        for spec, shape in zip(specs, child.EXACT_SHAPES):
            assert [(g.exponents, g.power) for g in spec.groups] == list(shape)
            words = [g.word for g in spec.groups]
            assert len(set(words)) == len(words)
            for word in words:
                assert len(word) == child.EXACT_WORD_LENGTH
                assert not is_identity(word)


# -- reference checks -----------------------------------------------------------


def test_z_band_accepts_the_truth_and_rejects_a_wrong_value():
    assert checks.within_z_band(1.03, 0.0325, "1")
    assert not checks.within_z_band(1.03, 0.0325, "3/2")
    assert not checks.within_z_band(1.03, 0.0325, "4/5")


def test_enumeration_check_rejects_a_wrong_sum():
    assert checks.enumeration_matches("93/89", 34176, 35712)
    assert not checks.enumeration_matches("93/89", 34176, 35713)
    assert not checks.enumeration_matches("94/89", 34176, 35712)


def _sampling_report(traced=False, references=False, sums=None, exact="1"):
    report = {
        "traced": traced,
        "ops": {
            "plan": {"error": None, "result": {"total_weight": 10}},
            "estimate": {"error": None, "result": {"sums": sums or {"fix_a1": 103}}},
        },
        "references": None,
    }
    if references:
        report["references"] = {"estimate": {"mean": 1.03, "stderr": 0.0325, "exact": exact}}
    return report


def _exact_report(traced=False, references=False, visitor_sum=35712, identity=True):
    ops = {"buckets": {"error": None, "result": {"total_pairs": 576}}}
    for i in range(checks.EXACT_SPECS):
        if traced:
            result = {"visitor_sum": visitor_sum, "points": 34176, "limit": "1"}
        else:
            result = {"value": "93/89", "limit": "1"}
        ops[f"spec{i}"] = {"error": None, "result": result}
    report = {"traced": traced, "ops": ops, "references": None}
    if references:
        report["references"] = {
            f"spec{i}": {"factorization_identity": identity} for i in range(checks.EXACT_SPECS)
        }
    return report


def test_evaluate_accepts_consistent_children():
    reports = [_sampling_report(references=True), _sampling_report(), _sampling_report(traced=True)]
    assert checks.evaluate("mc_g2_n16", reports) == (6, 0, [])
    reports = [_exact_report(references=True), _exact_report(traced=True)]
    assert checks.evaluate("exact_g2_n4", reports) == (8, 0, [])


def test_evaluate_rejects_a_sampled_mean_far_from_the_exact_value():
    reports = [_sampling_report(references=True, exact="3/2"), _sampling_report()]
    attempted, failed, problems = checks.evaluate("plan_g2_n20", reports)
    assert (attempted, failed) == (4, 2)
    assert all("estimate" in p for p in problems)


def test_evaluate_rejects_a_traced_run_that_differs_from_the_runner():
    reports = [_sampling_report(references=True), _sampling_report(traced=True, sums={"fix_a1": 104})]
    assert checks.evaluate("mc_g2_n16", reports)[1] == 1


def test_evaluate_rejects_a_wrong_enumerated_sum():
    reports = [_exact_report(references=True), _exact_report(traced=True, visitor_sum=35713)]
    assert checks.evaluate("exact_g2_n4", reports)[1] == checks.EXACT_SPECS


def test_evaluate_rejects_a_failed_factorization_identity():
    reports = [_exact_report(references=True, identity=False)]
    assert checks.evaluate("exact_g2_n4", reports)[1] == checks.EXACT_SPECS


def test_evaluate_counts_raised_and_missing_operations():
    raised = _sampling_report()
    raised["ops"]["estimate"] = {"error": "BudgetExceededError: too big", "result": None}
    reports = [_sampling_report(references=True), raised, None]
    attempted, failed, _ = checks.evaluate("cycles_g3_n10", reports)
    assert (attempted, failed) == (6, 3)
    assert checks.evaluate("mc_g2_n16", [None]) == (
        2, 2, ["child 0 plan: no report", "child 0 estimate: no report"]
    )


# -- spans ------------------------------------------------------------------------


def test_self_time_subtracts_the_union_of_child_intervals():
    tree = [
        ["root", -1, 0.0, 10.0],
        ["a", 0, 1.0, 3.0],
        ["b", 0, 2.0, 4.0],  # overlaps a: the union 1..4 counts once
        ["c", 0, 5.0, 6.0],
        ["c.leaf", 3, 5.2, 5.7],
        ["late", 0, 9.5, 11.0],  # ends after its parent: clipped at 10
        ["other", -1, 20.0, 21.5],
    ]
    assert spans.self_times(tree) == pytest.approx([5.5, 2.0, 2.0, 0.5, 0.5, 1.5, 1.5])


def test_tracer_nests_spans_in_call_order():
    tracer = spans.Tracer()
    with tracer.span("outer"):
        with tracer.span("inner"):
            pass
        with tracer.span("inner"):
            pass
    with tracer.span("next"):
        pass
    assert [(name, parent) for name, parent, _, _ in tracer.spans] == [
        ("outer", -1), ("inner", 0), ("inner", 0), ("next", -1)
    ]
    assert all(end >= start for _, _, start, end in tracer.spans)


def test_layer_metrics_on_a_synthetic_sampling_trace():
    tree = []
    t = 0.0
    for i in range(20):
        duration = 1.0 if i == 0 else 0.5  # a slow first call, as a lazy build makes
        tree.append([spans.SAMPLE, -1, t, t + duration])
        tree.append([spans.FIXED, -1, t + duration, t + duration + 0.1])
        tree.append([spans.ADD, -1, t + duration + 0.1, t + duration + 0.125])
        t += duration + 0.125
    m = spans.layer_metrics(tree, classes=7, points=0)
    assert m["homspace.sample_hom.calls"] == 20
    assert m["homspace.sample_hom.self_s"] == pytest.approx(10.5)
    assert m["homspace.sample_hom.first_tenth_share"] == pytest.approx(1.5 / 10.5)
    assert m["homspace.sample_hom.p50_us"] == pytest.approx(0.5e6)
    assert m["homspace.sample_hom.p99_us"] == pytest.approx(1.0e6)
    assert m["observables.fixed_points.calls"] == 20
    assert m["homspace.SampledStats.add.self_s"] == pytest.approx(0.5)
    assert m["characters.classes"] == 7
    assert m["homspace.enumerate_homs.self_s"] == 0.0


def test_layer_metrics_enumeration_self_time_excludes_the_visitor():
    tree = [[spans.ENUMERATE, -1, 0.0, 4.0]]
    tree += [[spans.JOINT, 0, 0.5 + i, 1.0 + i] for i in range(3)]
    m = spans.layer_metrics(tree, classes=5, points=3)
    assert m["homspace.enumerate_homs.self_s"] == pytest.approx(2.5)
    assert m["observables.joint_moment.self_s"] == pytest.approx(1.5)
    assert m["homspace.enumerate_homs.points"] == 3


def test_the_metrics_produced_are_the_metrics_declared():
    config = json.loads((Path(run.ROOT) / "BENCHMARK.json").read_text())
    report = {"traced": False, "setup_s": 1.0, "wall_s": 2.0, "items": 10, "items_s": 0.5, "peak_rss_mb": 30.0}
    traced = dict(report, traced=True, layers=spans.layer_metrics([], classes=5, points=0))
    assert set(run.end_to_end([report])) == {m["name"] for m in config["end_to_end"]}
    assert set(run.per_layer([report, traced])) == {m["name"] for m in config["per_layer"]}
    assert set(checks.OPS) == {w["name"] for w in config["workloads"]}
