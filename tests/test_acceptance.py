"""Acceptance gate: one test per shipped guarantee, with runtime budgets.

Each test prints a single pass/fail verdict line outside pytest's output
capture so the gate's outcome stays visible in a plain ``pytest -v`` run.
Criteria that carry a wall-clock budget fail when the budget is exceeded.
"""

import math
import time
from contextlib import contextmanager

import numpy as np
import pytest
from scipy.spatial import ConvexHull

from builders import epsilon_bar_bruteforce, segment, table
from safeset.geometry import alpha_complex, delaunay, mc_volume, search_optimal_alpha
from safeset.ingest import Dataset, RawSample
from safeset.metrics import (
    algorithm3_epsilon_bar,
    epsilon_bar_exact,
    fatality_rate_bound,
    trailing_run_pmf,
)
from safeset.pipeline import AnalysisConfig, run_analysis
from safeset.safegraph import extract_safe_states
from safeset.simgen import IDM_0, IDM_1, ncap_battery, simulate_battery

BETAS = (0.5, 0.1, 0.001)


@pytest.fixture
def verdict(capfd):
    """Emit one line on the real terminal, bypassing output capture."""

    def _emit(num: int, label: str, outcome: str, elapsed: float) -> None:
        with capfd.disabled():
            print(
                f"\n[acceptance] criterion {num} ({label}): {outcome}"
                f" [{elapsed:.3f}s]",
                flush=True,
            )

    return _emit


@contextmanager
def criterion(emit, num: int, label: str, budget_s: float | None = None):
    """Print exactly one PASS/FAIL line for the enclosed criterion body."""
    t0 = time.perf_counter()
    try:
        yield
    except BaseException:
        emit(num, label, "FAIL", time.perf_counter() - t0)
        raise
    elapsed = time.perf_counter() - t0
    if budget_s is not None and elapsed > budget_s:
        emit(num, label, "FAIL", elapsed)
        pytest.fail(f"{label}: {elapsed:.2f}s exceeds the {budget_s:.0f}s budget")
    emit(num, label, "PASS", elapsed)


# --------------------------------------------------------------------------
# criterion 1: mileage fatality bound reproduces the reference values
# --------------------------------------------------------------------------


def test_fatality_bound_reference_values(verdict):
    with criterion(verdict, 1, "fatality-bound reference values"):
        distances_km = (3276.48, 551.81, 5725.99, 40.778, 399.195)
        expected = (0.0034, 0.0199, 0.0019, 0.2386, 0.0275)
        fatality_rate_bound(100.0, 0.001)  # warm the call path before timing
        t0 = time.perf_counter()
        got = [fatality_rate_bound(km, 0.001) for km in distances_km]
        elapsed = time.perf_counter() - t0
        for value, ref in zip(got, expected):
            assert value == pytest.approx(ref, abs=5e-4)
        assert elapsed < 1e-3, f"five bound evaluations took {elapsed * 1e3:.3f} ms"


# --------------------------------------------------------------------------
# criterion 2: exact order-averaged epsilon == permutation brute force
# --------------------------------------------------------------------------


def test_order_averaged_epsilon_matches_bruteforce(verdict):
    with criterion(verdict, 2, "order-averaged epsilon vs brute force", budget_s=10.0):
        for s in range(0, 9):
            for c in range(0, 9 - s):
                if s + c == 0:
                    continue
                labels = [True] * s + [False] * c
                for beta in BETAS:
                    exact = epsilon_bar_exact(s, c, beta)
                    brute = epsilon_bar_bruteforce(labels, beta)
                    assert abs(exact - brute) <= 1e-12, (s, c, beta)


# --------------------------------------------------------------------------
# criterion 3: published epsilon variant hand values and its divergence
# --------------------------------------------------------------------------


def test_published_epsilon_variant_hand_values_and_divergence(verdict):
    with criterion(verdict, 3, "published epsilon variant fidelity"):
        beta = 0.001

        def eps(i: int) -> float:
            return -math.expm1(math.log(beta) / i)

        assert algorithm3_epsilon_bar(1, 2, beta) == pytest.approx(0.4995, abs=1e-12)
        assert algorithm3_epsilon_bar(2, 3, beta) == pytest.approx(
            (eps(1) + eps(2)) / 3.0, abs=1e-12
        )
        # weights 1!2!/3! = 2!1!/3! = 1/3 and 3!0!/3! = 1 (they exceed 1
        # when no complement transitions exist; kept verbatim on purpose)
        assert algorithm3_epsilon_bar(3, 3, beta) == pytest.approx(
            eps(1) / 3.0 + eps(2) / 3.0 + eps(3), abs=1e-12
        )

        # Documented divergence at s=2, c=2 (four transitions total): the
        # published weight for a trailing run of 1 is 1!3!/4! = 1/4, while
        # the run-length distribution puts P(N=1) = 1/3 there.
        pmf = trailing_run_pmf(2, 2)
        assert pmf[1] == pytest.approx(1.0 / 3.0, abs=1e-13)
        variant = algorithm3_epsilon_bar(2, 4, beta)
        assert variant == pytest.approx(eps(1) / 4.0 + eps(2) / 6.0, abs=1e-12)
        exact = epsilon_bar_exact(2, 2, beta)
        assert exact == pytest.approx(0.5 + eps(1) / 3.0 + eps(2) / 6.0, abs=1e-12)
        assert exact - variant > 0.5


# --------------------------------------------------------------------------
# criterion 4: alpha-shape measures, tuned-alpha search, convex-hull limit
# --------------------------------------------------------------------------


def test_alpha_shape_square_and_hull_limit(verdict):
    with criterion(verdict, 4, "alpha-shape square and hull-limit measures", budget_s=30.0):
        square = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 1.0], [1.0, 1.0]])
        complex_ = delaunay(square)
        for alpha in (0.71, 1.0, 100.0):
            assert alpha_complex(complex_, alpha).measure == pytest.approx(
                1.0, rel=1e-12
            )
        assert alpha_complex(complex_, 0.4).measure == 0.0

        result = search_optimal_alpha(square, 0.01, 100.0, 0.1)
        assert 0.7071 - 0.1 <= result.alpha <= 0.7071 + 0.1

        for seed in range(20):
            pts = np.random.default_rng(seed).random((30, 3))
            hull_limit = alpha_complex(delaunay(pts), 1e9).measure
            assert hull_limit == pytest.approx(ConvexHull(pts).volume, rel=1e-9)


# --------------------------------------------------------------------------
# criterion 5: Monte-Carlo interval calibration on known volumes
# --------------------------------------------------------------------------


def test_monte_carlo_interval_calibration(verdict):
    with criterion(verdict, 5, "Monte-Carlo interval calibration", budget_s=60.0):
        def ball(q: np.ndarray) -> np.ndarray:
            return (q**2).sum(axis=1) <= 1.0

        fixtures = (
            ("quarter disc", 2, math.pi / 4.0),
            ("ball octant", 3, math.pi / 6.0),
        )
        for label, dim, exact in fixtures:
            bounds = [(0.0, 1.0)] * dim
            covered = 0
            for seed in range(100):
                res = mc_volume(ball, bounds, n_samples=20_000, seed=seed)
                if abs(res.estimate - exact) <= res.half_width_95:
                    covered += 1
            assert covered >= 93, f"{label}: interval covered {covered}/100"


# --------------------------------------------------------------------------
# criterion 6: safe-state extraction hand traces
# --------------------------------------------------------------------------


def _retained(extraction):
    kept = extraction.vertices[extraction.retained]
    return frozenset(tuple(v) for v in kept.tolist())


def test_safe_state_extraction_hand_traces(verdict):
    with criterion(verdict, 6, "safe-state extraction hand traces"):
        s1, s2, s3 = (1.0, 0.0), (2.0, 0.0), (3.0, 0.0)
        safe = segment([s1, s2, s3])
        crash = segment([s2], tid="crash", collisions=(0,))

        undirected = extract_safe_states(table(safe, crash), mode="undirected")
        assert _retained(undirected) == frozenset()

        ancestors = extract_safe_states(table(safe, crash), mode="ancestors")
        assert _retained(ancestors) == frozenset({s3})

        untouched = extract_safe_states(table(safe))
        assert _retained(untouched) == frozenset({s1, s2, s3})


# --------------------------------------------------------------------------
# criteria 7 and 8: AEB battery end-to-end properties and determinism
# --------------------------------------------------------------------------

_BATTERY_PRESETS = (("idm0", IDM_0), ("idm1", IDM_1))
_FIRST_PASS_REPORTS: dict[str, str] = {}


def _run_battery_analysis(name: str, params):
    dataset = simulate_battery(params, ncap_battery(grid_seed=0), recording_id=name)
    cfg = AnalysisConfig(preset="ncap-lead", seed=0)
    return dataset, run_analysis(cfg, dataset=dataset)


def test_aeb_battery_end_to_end_properties(verdict):
    with criterion(verdict, 7, "AEB battery end-to-end properties", budget_s=120.0):
        for name, params in _BATTERY_PRESETS:
            dataset, report = _run_battery_analysis(name, params)
            assert len(dataset.collision_events) >= 1, name
            data = report.data
            assert data["safe_set"]["exclusion_ok"] is True, name
            occupancy = data["coverage"]["occupancy"]
            assert 0.0 < occupancy <= 1.0, (name, occupancy)
            eps_bar = data["epsilon"]["epsilon_bar_exact"]
            assert 0.0 < eps_bar < 1.0, (name, eps_bar)
            _FIRST_PASS_REPORTS[name] = report.to_json()


def test_aeb_battery_reports_are_deterministic(verdict):
    with criterion(verdict, 8, "byte-identical reports on rerun"):
        for name, params in _BATTERY_PRESETS:
            if name not in _FIRST_PASS_REPORTS:
                _FIRST_PASS_REPORTS[name] = _run_battery_analysis(name, params)[
                    1
                ].to_json()
            rerun = _run_battery_analysis(name, params)[1].to_json()
            assert rerun == _FIRST_PASS_REPORTS[name], name


# --------------------------------------------------------------------------
# criterion 9: 13-D pipeline through clustering to a shape union
# --------------------------------------------------------------------------


def _scripted_neighbor_dataset(n_frames=2000, seed=0, dt=0.04) -> Dataset:
    """Three-lane scene: SV in the center lane plus six scripted neighbors
    (front/rear in each lane) with smoothly varying gaps and speeds."""
    rng = np.random.default_rng(np.random.SeedSequence(seed))
    t = np.arange(n_frames) * dt
    v_sv = 25.0 + 3.0 * np.sin(2.0 * np.pi * t / 30.0)
    x_sv = np.concatenate([[0.0], np.cumsum(v_sv[:-1] * dt)])
    lane_y = {"l": 7.5, "c": 3.75, "r": 0.0}
    lane_id = {"l": 3, "c": 2, "r": 1}
    neighbors = {
        "fl": ("l", +1, 0.8),
        "fc": ("c", +1, 0.3),
        "fr": ("r", +1, 1.9),
        "rl": ("l", -1, 2.7),
        "rc": ("c", -1, 4.0),
        "rr": ("r", -1, 5.2),
    }
    speed_phase = {"fl": 0.5, "fc": 1.5, "fr": 2.5, "rl": 3.5, "rc": 4.5, "rr": 5.5}

    samples = []
    for k in range(n_frames):
        samples.append(
            RawSample(
                recording_id="synth",
                trajectory_id="run0",
                frame=k,
                time=float(t[k]),
                agent_id="sv",
                agent_type="car",
                x=float(x_sv[k]),
                y=lane_y["c"],
                vx=float(v_sv[k]),
                vy=0.0,
                length=4.0,
                width=2.0,
                lane_id=lane_id["c"],
                sv_flag=True,
            )
        )
    for name, (lane, sign, phase) in neighbors.items():
        drift = rng.normal(0.0, 0.3, n_frames).cumsum() * 0.01
        gap = np.clip(14.0 + 8.0 * np.sin(2.0 * np.pi * t / 40.0 + phase) + drift, 5.0, 45.0)
        v_n = np.clip(
            25.0 + 3.5 * np.sin(2.0 * np.pi * t / 35.0 + speed_phase[name]), 20.2, 29.8
        )
        x_n = x_sv + sign * (gap + 4.0)
        for k in range(n_frames):
            samples.append(
                RawSample(
                    recording_id="synth",
                    trajectory_id="run0",
                    frame=k,
                    time=float(t[k]),
                    agent_id=name,
                    agent_type="car",
                    x=float(x_n[k]),
                    y=lane_y[lane],
                    vx=float(v_n[k]),
                    vy=0.0,
                    length=4.0,
                    width=2.0,
                    lane_id=lane_id[lane],
                    sv_flag=False,
                )
            )
    return Dataset(samples, dt=dt)


def test_multi_vehicle_13d_pipeline(verdict):
    with criterion(verdict, 9, "13-D pipeline through clustering and union", budget_s=300.0):
        dataset = _scripted_neighbor_dataset()
        cfg = AnalysisConfig(preset="highd-multi", seed=0, cluster_max=1000)
        report = run_analysis(cfg, dataset=dataset)
        data = report.data

        assert data["projection"]["dim"] == 13
        retained = data["safe_set"]["unique_count"]
        assert retained > 1000  # forces the clustering route
        assert data["shape"]["kind"] == "shape_union"
        assert data["shape"]["n_members"] >= 2
        assert all(m["n_points"] <= 1000 for m in data["shape"]["members"])
        assert data["safe_set"]["exclusion_ok"] is True

        inside = report.shape.contains_batch(report.spec.normalize(report.ds_values))
        assert len(inside) == retained
        assert bool(inside.all())
