from fractions import Fraction
from functools import partial

import pytest

from surfcover import homspace, observables, perms, verify
from surfcover.cli import main
from surfcover.limits import limit_product_moment
from surfcover.observables import ObservableGroup, ObservableSpec
from surfcover.verify import (
    ENUMERATE,
    SAMPLE,
    ExperimentPlan,
    fit_inverse_n,
    run_convergence,
    run_cycle_convergence,
    run_independence,
)
from surfcover.words import IdentityWordError, word_from_text


def w(text):
    return word_from_text(text, 2)


def spec_of(*groups):
    return ObservableSpec(tuple(groups), 2)


F_A1 = spec_of(ObservableGroup(w("a1"), (1,)))


def test_fit_inverse_n():
    exact = fit_inverse_n([(n, 1.0 / n) for n in (2, 4, 8, 16)])
    assert abs(exact.coefficient - 1.0) < 1e-12
    assert all(abs(r) < 1e-12 for r in exact.residuals)
    zero = fit_inverse_n([(2, 0.0), (3, 0.0), (4, 0.0)])
    assert zero.coefficient == 0.0
    assert zero.max_n_times_error == 0.0
    with pytest.raises(ValueError):
        fit_inverse_n([(2, 0.1), (3, 0.2)])
    with pytest.raises(ValueError):
        fit_inverse_n([(2, -0.1), (3, 0.2), (4, 0.1)])


def test_plan_validation():
    with pytest.raises(ValueError):
        ExperimentPlan(F_A1, (3, 3))
    with pytest.raises(ValueError):
        ExperimentPlan(F_A1, (4, 3))
    with pytest.raises(ValueError):
        ExperimentPlan(F_A1, (2, 3), samples=1)
    with pytest.raises(ValueError, match="names no n"):
        ExperimentPlan(F_A1, ())
    plan = ExperimentPlan(F_A1, (2, 3), budget_visits=16)  # hom_count(2, 2)
    assert plan.method_for(2) == ENUMERATE
    assert plan.method_for(3) == SAMPLE
    auto = ExperimentPlan(F_A1, (2, 16), budget_visits=10**6)
    assert auto.method_for(2) == ENUMERATE
    assert auto.method_for(16) == SAMPLE


def test_run_convergence_exact_rows():
    plan = ExperimentPlan(F_A1, (2, 3, 4))
    report = run_convergence(plan)
    assert report.prediction == 1
    joints = [row.joint for row in report.rows]
    assert joints == [1, Fraction(10, 9), Fraction(97, 89)]
    assert all(row.method == ENUMERATE for row in report.rows)
    assert report.rows[1].n_times_error == pytest.approx(1 / 3)
    # single group: joint equals product, gap identically zero
    assert all(row.gap == 0.0 for row in report.rows)


def test_run_convergence_empty_spec():
    plan = ExperimentPlan(ObservableSpec((), 2), (2, 3))
    report = run_convergence(plan)
    assert [row.joint for row in report.rows] == [1, 1]
    assert report.prediction == 1


def test_report_is_reproducible():
    spec = spec_of(
        ObservableGroup(w("a1"), (1, 2)), ObservableGroup(w("a2"), (1,))
    )
    plan = ExperimentPlan(spec, (2, 3), samples=300, seed=4, budget_visits=16)
    first = run_convergence(plan)
    second = run_convergence(plan)
    assert [row.method for row in first.rows] == [ENUMERATE, SAMPLE]
    assert first == second


def test_run_independence_exact_gap():
    spec = spec_of(
        ObservableGroup(w("a1"), (1,)), ObservableGroup(w("a2"), (1,))
    )
    plan = ExperimentPlan(spec, (2, 3))
    report = run_independence(plan)
    for row in report.rows:
        assert row.gap == pytest.approx(
            abs(float(row.joint) - float(row.product_of_groups))
        )
    with pytest.raises(ValueError):
        run_independence(ExperimentPlan(F_A1, (2, 3)))


# exponents 1 and 2 of one word split into two fake groups: their dependence
# never fades, so the fake per-group product stays away from the joint moment
CONTROL = spec_of(ObservableGroup(w("a1"), (1,)), ObservableGroup(w("a1"), (2,)))


def test_negative_control_spec():
    assert len(CONTROL.groups) == 2
    fake_product = 1
    for sub in CONTROL.single_group_specs():
        fake_product *= limit_product_moment(sub).value
    truth = limit_product_moment(spec_of(ObservableGroup(w("a1"), (1, 2)))).value
    assert fake_product == 2  # d(1) * d(2)
    assert truth == 3  # the same-base second moment keeps the cross term
    assert truth != fake_product


def test_negative_control_gap_exact_small_n():
    plan = ExperimentPlan(CONTROL, (3, 4))
    report = run_convergence(plan)
    for row in report.rows:
        assert row.gap > 0.2  # dependence never fades


def test_exact_row_walks_the_space_once(monkeypatch):
    walks = []
    walk = homspace._walk

    def counted(n, genus, first):
        walks.append(n)
        return walk(n, genus, first)

    monkeypatch.setattr(homspace, "_walk", counted)
    spec = spec_of(ObservableGroup(w("a1"), (1, 2)), ObservableGroup(w("a2"), (1,)))
    report = run_convergence(ExperimentPlan(spec, (2, 3)))
    assert [row.method for row in report.rows] == [ENUMERATE, ENUMERATE]
    assert walks == [2, 3]  # joint and both groups from one enumeration per n
    for row in report.rows:
        exact = partial(homspace.exact_expectation, row.n, 2)
        first, second = map(exact, spec.single_group_specs())
        assert (row.joint, row.product_of_groups) == (exact(spec), first * second)


def test_run_cycle_convergence_sampled():
    report = run_cycle_convergence([w("a1"), w("a2")], 2, 5, 4000, seed=2)
    assert report.n == 5
    for row in report.rows:
        assert abs(row.mean - float(row.prediction)) < 5 * row.stderr + 0.05
    for cov in report.covariances:
        assert abs(cov.covariance) < 5 * cov.covariance_stderr + 0.05
    with pytest.raises(ValueError):
        run_cycle_convergence([w("a1")], 9, 5, 100)
    with pytest.raises(ValueError):
        run_cycle_convergence([], 2, 5, 100)


def test_cycle_convergence_refuses_bad_words_before_the_plan(monkeypatch, capsys):
    def no_plan(*args):
        raise AssertionError("the plan was built")

    monkeypatch.setattr(verify, "get_sampler", no_plan)
    with pytest.raises(IdentityWordError):
        run_cycle_convergence([w("a1"), w("a1 a1'")], 2, 22, 100)
    with pytest.raises(ValueError, match="same genus"):
        run_cycle_convergence([w("a1"), word_from_text("a3", 3)], 2, 22, 100)
    assert main(["verify-cycles", "-n", "22", "--words", "a1,"]) == 2
    assert capsys.readouterr().err == "error: cycle statistics need a non-identity word\n"


def test_cycle_convergence_evaluates_each_word_once_per_point(monkeypatch):
    calls = []

    def counting(h, word, evaluate=perms.evaluate_word):
        calls.append(word)
        return evaluate(h, word)

    for module in (perms, observables):
        monkeypatch.setattr(module, "evaluate_word", counting)
    words = [word_from_text(t, 3) for t in ("a1", "a2", "b3")]
    run_cycle_convergence(words, 3, 6, samples=40)
    assert len(calls) == 3 * 40


def test_sampled_row_stderr_scaling():
    spec = F_A1
    small = ExperimentPlan(spec, (4,), samples=1500, seed=9, budget_visits=1)
    large = ExperimentPlan(spec, (4,), samples=6000, seed=9, budget_visits=1)
    row_small = run_convergence(small).rows[0]
    row_large = run_convergence(large).rows[0]
    ratio = row_large.joint_stderr / row_small.joint_stderr
    assert 0.4 < ratio < 0.6
