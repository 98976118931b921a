"""Certification bounds, coverage ratios, collision baselines."""

import math
from fractions import Fraction
from itertools import permutations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from builders import epsilon_bar_bruteforce
from safeset.errors import (
    CollisionsPresent,
    DimensionMismatch,
    EmptySpace,
    InvalidBeta,
    InvalidCounts,
)
from safeset.metrics import (
    EpsilonResult,
    algorithm3_epsilon_bar,
    certify,
    count_trailing_safe,
    coverage,
    epsilon_bar_exact,
    epsilon_from_count,
    fatality_rate_bound,
    trailing_run_pmf,
    ttc_stats,
)


def exact_pmf_fraction(s, c):
    """Trailing-run distribution by brute-force enumeration in rationals."""
    labels = [True] * s + [False] * c
    counts = {}
    total = 0
    for order in set(permutations(labels)):
        n = 0
        for safe in order:
            n = n + 1 if safe else 0
        counts[n] = counts.get(n, 0) + 1
        total += 1
    return {n: Fraction(k, total) for n, k in counts.items()}


class TestEpsilonFromCount:
    def test_zero_is_vacuous(self):
        assert epsilon_from_count(0, 0.001) == 1.0

    def test_formula(self):
        assert epsilon_from_count(1, 0.5) == pytest.approx(0.5)
        assert epsilon_from_count(2, 0.25) == pytest.approx(0.5)
        n, beta = 6906, 0.001
        want = 1.0 - math.exp(math.log(beta) / n)
        got = epsilon_from_count(n, beta)
        assert got == pytest.approx(want, rel=1e-12)
        assert got == pytest.approx(9.9975e-4, abs=1e-7)

    def test_monotone_decreasing(self):
        vals = [epsilon_from_count(n, 0.001) for n in range(1, 200)]
        assert all(a > b for a, b in zip(vals, vals[1:]))

    def test_validation(self):
        with pytest.raises(InvalidBeta):
            epsilon_from_count(10, 0.0)
        with pytest.raises(InvalidBeta):
            epsilon_from_count(10, 1.0)
        with pytest.raises(InvalidCounts):
            epsilon_from_count(-1, 0.5)


class TestTrailingRunPmf:
    def test_hand_values(self):
        # one retained, one not: orders TF (N=0) and FT (N=1)
        assert trailing_run_pmf(1, 1).tolist() == pytest.approx([0.5, 0.5])
        # s=2, c=1: orders of TTF — N=0: TTF? trailing zero only when F last
        pmf21 = trailing_run_pmf(2, 1)
        assert pmf21 == pytest.approx([1 / 3, 1 / 3, 1 / 3])
        pmf22 = trailing_run_pmf(2, 2)
        assert pmf22 == pytest.approx([1 / 2, 1 / 3, 1 / 6])
        pmf30 = trailing_run_pmf(3, 0)
        assert pmf30.tolist() == [0.0, 0.0, 0.0, 1.0]

    def test_matches_enumeration(self):
        for s in range(0, 7):
            for c in range(0, 5):
                if s + c < 1:
                    continue
                want = exact_pmf_fraction(s, c)
                got = trailing_run_pmf(s, c)
                for n in range(s + 1):
                    assert got[n] == pytest.approx(
                        float(want.get(n, 0)), abs=1e-13
                    ), (s, c, n)

    @settings(max_examples=40, deadline=None)
    @given(s=st.integers(0, 100), c=st.integers(0, 100))
    def test_sums_to_one(self, s, c):
        if s + c < 1:
            s = 1
        assert trailing_run_pmf(s, c).sum() == pytest.approx(1.0, abs=1e-12)

    def test_validation(self):
        with pytest.raises(InvalidCounts):
            trailing_run_pmf(0, 0)
        with pytest.raises(InvalidCounts):
            trailing_run_pmf(-1, 2)


class TestEpsilonBarExact:
    def test_matches_bruteforce(self):
        for beta in (0.5, 0.1, 0.001):
            for s in range(0, 7):
                for c in range(0, 7 - s):
                    if s + c < 1:
                        continue
                    labels = [True] * s + [False] * c
                    want = epsilon_bar_bruteforce(labels, beta)
                    got = epsilon_bar_exact(s, c, beta)
                    assert got == pytest.approx(want, abs=1e-12), (s, c, beta)

    def test_c_zero_reduces_to_single(self):
        assert epsilon_bar_exact(5, 0, 0.01) == pytest.approx(
            epsilon_from_count(5, 0.01), rel=1e-12
        )

    def test_all_unsafe_gives_vacuous_bound(self):
        assert epsilon_bar_exact(0, 4, 0.001) == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=30, deadline=None)
    @given(
        s=st.integers(1, 500),
        c=st.integers(0, 500),
        beta=st.floats(1e-6, 0.99),
    )
    def test_within_unit_interval(self, s, c, beta):
        val = epsilon_bar_exact(s, c, beta)
        assert 0.0 < val <= 1.0


class TestPublishedVariant:
    def test_single_transition_trace(self):
        # s=1, |TD|=2: weight 1!(2-1)!/2! = 1/2 on epsilon(1) = 1 - beta...
        got = algorithm3_epsilon_bar(1, 2, 0.001)
        assert got == pytest.approx(0.4995, abs=1e-12)

    def test_two_of_three_trace(self):
        beta = 0.001
        e1 = -math.expm1(math.log(beta) / 1)
        e2 = -math.expm1(math.log(beta) / 2)
        # weights 1!2!/3! = 1/3 and 2!1!/3! = 1/3
        want = (e1 + e2) / 3.0
        assert algorithm3_epsilon_bar(2, 3, beta) == pytest.approx(want, rel=1e-12)

    def test_s_zero_is_zero(self):
        assert algorithm3_epsilon_bar(0, 5, 0.001) == 0.0

    def test_departs_from_run_model_at_2_2(self):
        beta = 0.001
        variant = algorithm3_epsilon_bar(2, 4, beta)
        run_model = epsilon_bar_exact(2, 2, beta)
        assert variant == pytest.approx(0.4111, abs=5e-5)
        assert run_model == pytest.approx(0.9944, abs=5e-5)
        # the variant weights i=1 by 1!(4-1)!/4! = 1/4, the run model by 1/3
        e1 = -math.expm1(math.log(beta))
        e2 = -math.expm1(math.log(beta) / 2)
        assert variant == pytest.approx(e1 / 4 + e2 / 6, rel=1e-12)
        assert abs(variant - run_model) > 0.5

    def test_weights_exceed_one_when_all_retained(self):
        # with c = 0 the variant's weights sum past 1: it is kept verbatim,
        # not patched, so document the wart
        s = 3
        weights = [
            math.factorial(i) * math.factorial(s - i) / math.factorial(s)
            for i in range(1, s + 1)
        ]
        assert sum(weights) > 1.0
        assert algorithm3_epsilon_bar(s, s, 0.5) > epsilon_bar_exact(s, 0, 0.5)

    def test_validation(self):
        with pytest.raises(InvalidCounts):
            algorithm3_epsilon_bar(3, 2, 0.5)
        with pytest.raises(InvalidCounts):
            algorithm3_epsilon_bar(-1, 2, 0.5)
        with pytest.raises(InvalidCounts):
            algorithm3_epsilon_bar(0, 0, 0.5)


class TestCertify:
    def test_trailing_count(self):
        assert count_trailing_safe(np.array([True, True, True])) == 3
        assert count_trailing_safe(np.array([True, False, True])) == 1
        assert count_trailing_safe(np.array([True, True, False])) == 0
        assert count_trailing_safe(np.zeros(0, dtype=bool)) == 0

    def test_full_result(self):
        res = certify(np.array([False, True, True]), beta=0.001)
        assert isinstance(res, EpsilonResult)
        assert (res.s_count, res.c_count) == (2, 1)
        assert res.n_trailing == 2
        assert res.epsilon_single == pytest.approx(epsilon_from_count(2, 0.001))
        assert res.epsilon_bar_exact == pytest.approx(epsilon_bar_exact(2, 1, 0.001))
        assert res.epsilon_bar_paper == pytest.approx(
            algorithm3_epsilon_bar(2, 3, 0.001)
        )
        assert res.confidence == pytest.approx(0.999)

    def test_empty_transition_set(self):
        res = certify(np.zeros(0, dtype=bool), beta=0.001)
        assert res.n_trailing == 0
        assert res.epsilon_single == 1.0
        assert res.epsilon_bar_exact == 1.0
        assert res.epsilon_bar_paper == 0.0

    def test_invalid_beta(self):
        with pytest.raises(InvalidBeta):
            certify(np.array([True]), beta=1.0)


class TestCoverage:
    def test_ratios(self):
        res = coverage(100, 2.0, 8.0)
        assert res.density == pytest.approx(50.0)
        assert res.occupancy == pytest.approx(0.25)

    def test_zero_measure_shape(self):
        res = coverage(10, 0.0, 4.0)
        assert res.density is None
        assert res.occupancy == 0.0

    def test_validation(self):
        with pytest.raises(EmptySpace):
            coverage(1, 1.0, 0.0)
        with pytest.raises(InvalidCounts):
            coverage(-1, 1.0, 1.0)
        with pytest.raises(InvalidCounts):
            coverage(1, -0.5, 1.0)


class TestTtc:
    def test_hand_values(self):
        states = np.array([(10.0, 8.0, 6.0), (10.0, 12.0, 6.0), (10.0, 8.0, 30.0)])
        res = ttc_stats(states)
        # valid: rows 1 and 3; ttc = 3.0 and min(15, 9) = 9.0
        assert res.n_valid == 2 and res.n_states == 3
        assert res.valid_rate == pytest.approx(2 / 3)
        assert res.mean == pytest.approx(6.0)
        assert res.std == pytest.approx(3.0)  # population std, not sample

    def test_clipping(self):
        assert ttc_stats(np.array([(10.0, 9.99, 50.0)])).mean == pytest.approx(9.0)

    def test_no_valid_states(self):
        res = ttc_stats(np.array([(5.0, 8.0, 10.0)]))
        assert res.mean is None and res.std is None
        assert res.valid_rate == 0.0 and res.n_states == 1

    def test_empty(self):
        res = ttc_stats(np.empty((0, 3)))
        assert res.n_states == 0 and res.mean is None

    @pytest.mark.parametrize("shape", [(3, 5), (5, 2), (3,), (0, 5)])
    def test_other_dimensions_refused(self, shape):
        # three 5-D states used to be read as five 3-D rows
        with pytest.raises(DimensionMismatch):
            ttc_stats(np.ones(shape))


class TestFatalityBound:
    FROZEN = [
        (3276.48, 0.003387),
        (551.81, 0.019945),
        (5725.99, 0.001940),
        (40.778, 0.238619),
        (399.195, 0.027464),
    ]

    @pytest.mark.parametrize("km,want", FROZEN)
    def test_frozen_values(self, km, want):
        assert fatality_rate_bound(km) == pytest.approx(want, abs=5e-4)

    def test_beta_dependence(self):
        assert fatality_rate_bound(100.0, beta=0.5) < fatality_rate_bound(
            100.0, beta=0.001
        )

    def test_rejects_collisions(self):
        with pytest.raises(CollisionsPresent):
            fatality_rate_bound(100.0, collision_count=2)

    def test_validation(self):
        with pytest.raises(InvalidCounts):
            fatality_rate_bound(0.0)
        with pytest.raises(InvalidBeta):
            fatality_rate_bound(10.0, beta=2.0)

    def test_mile_conversion(self):
        km = 321.8688  # exactly 200 miles
        want = 1.0 - math.exp(math.log(0.001) / 200.0)
        assert fatality_rate_bound(km) == pytest.approx(want, rel=1e-12)


class TestNumericalStability:
    def test_large_counts_underflow_free(self):
        pmf = trailing_run_pmf(5000, 3000)
        assert np.isfinite(pmf).all()
        assert pmf.sum() == pytest.approx(1.0, abs=1e-9)
        val = epsilon_bar_exact(5000, 3000, 0.001)
        assert 0.0 < val < 1.0

    def test_published_variant_large_counts(self):
        val = algorithm3_epsilon_bar(5000, 8000, 0.001)
        assert 0.0 <= val < 1.0 and math.isfinite(val)
