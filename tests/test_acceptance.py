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

import hashlib

import pytest

from surfcover import acceptance

SAMPLES = 100_000
SEED = 0
# SHA-256 of the sampled criteria's details at SAMPLES and SEED: every sampled
# mean, error and z-score is pinned byte for byte, whatever runs the sampling.
DETAILS_SHA256 = {
    6: "d8e39214b2ea1abde78eccb746701b384d7c6b52c78c92e1888b416f1f768bd7",
    7: "ee90c7b9d9d8d93a1b0579c8d52b72040fd931b0434ad18b402a8262dd02505b",
    8: "5c9dbe62cf3de6aad321de52e2fd6b4e3628bd34c6c403a1adf2919cf8432ae3",
}


@pytest.fixture(scope="module")
def ctx():
    return acceptance.AcceptanceContext(samples=SAMPLES, seed=SEED)


def _criterion_test(number):
    def test(ctx):
        result = acceptance.run_criterion(number, ctx)
        print(result.line())
        assert result.passed, result.details
        if number in DETAILS_SHA256:
            digest = hashlib.sha256(result.details.encode()).hexdigest()
            assert digest == DETAILS_SHA256[number], result.details

    return test


# one test per criterion, run in this order: 6, 7 and 8 reuse ctx's sampled passes
test_criterion_1_hom_counts = _criterion_test(1)
test_criterion_2_characters = _criterion_test(2)
test_criterion_3_frobenius = _criterion_test(3)
test_criterion_4_sampler_uniformity = _criterion_test(4)
test_criterion_5_limit_oracle = _criterion_test(5)
test_criterion_6_convergence = _criterion_test(6)
test_criterion_7_independence = _criterion_test(7)
test_criterion_8_cycle_statistics = _criterion_test(8)
test_criterion_9_structural_identities = _criterion_test(9)


def test_criterion_over_its_time_limit_fails(ctx, monkeypatch):
    name, check, _ = acceptance.CRITERIA[5]
    monkeypatch.setitem(acceptance.CRITERIA, 5, (name, check, 0.0))
    result = acceptance.run_criterion(5, ctx)
    assert not result.passed
    assert result.details.endswith(f"took {result.elapsed_s:.1f}s, limit 0s")
