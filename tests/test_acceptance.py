"""The acceptance gate: one test per criterion, at the stated tolerances.

Criteria 6, 7 and 8 test each sampled mean (1e5 samples, seed 0) against the
exact finite-n mean it estimates, computed by character sums: it must lie
within 3 standard errors of it. Criterion 8 tests each sampled cross-word
covariance the same way against its exact finite-n value. Convergence to the
n -> infinity limit is tested separately: criterion 6 by an O(1/n) fit of the
error against the limit 1, criteria 7 and 8 by exact moments that move
strictly towards their limits (15; 1/d and 0) over n = 8, 12, 16. Each
failure message is the criterion's details line, which gives the exact
centre, the estimate and the z-score for each n.
"""

import pytest

from surfcover import acceptance

SAMPLES = 100_000
SEED = 0


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext(samples=SAMPLES, seed=SEED)


def _report(result):
    status = "PASS" if result.passed else "FAIL"
    print(f"[{status}] criterion {result.number} ({result.name}): {result.details}")
    return result


def test_criterion_1_hom_counts(ctx):
    result = _report(acceptance.criterion_hom_counts(ctx))
    assert result.passed, result.details


def test_criterion_2_characters(ctx):
    result = _report(acceptance.criterion_characters(ctx))
    assert result.passed, result.details


def test_criterion_3_frobenius(ctx):
    result = _report(acceptance.criterion_frobenius(ctx))
    assert result.passed, result.details


def test_criterion_4_sampler_uniformity(ctx):
    result = _report(acceptance.criterion_sampler_uniformity(ctx))
    assert result.passed, result.details


def test_criterion_5_limit_oracle(ctx):
    result = _report(acceptance.criterion_limit_oracle(ctx))
    assert result.passed, result.details


def test_criterion_6_convergence(ctx):
    result = _report(acceptance.criterion_convergence(ctx))
    assert result.passed, result.details


def test_criterion_7_independence(ctx):
    result = _report(acceptance.criterion_independence(ctx))
    assert result.passed, result.details


def test_criterion_8_cycle_statistics(ctx):
    result = _report(acceptance.criterion_cycle_statistics(ctx))
    assert result.passed, result.details


def test_criterion_9_structural_identities(ctx):
    result = _report(acceptance.criterion_structural_identities(ctx))
    assert result.passed, result.details
