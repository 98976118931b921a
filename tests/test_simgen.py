"""Synthetic car-following battery: controller law, episodes, determinism."""

import dataclasses
import math
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import HealthCheck, example, given, settings
from hypothesis import strategies as st

from builders import sample_rows
from safeset.errors import NonPositiveGap
from safeset.ingest import Dataset, RawSample, SampleTable, write_trajectory_csv
from safeset.simgen import (
    DEFAULT_DT,
    IDM_0,
    IDM_1,
    IDM_PRESETS,
    VEHICLE_LENGTH,
    VEHICLE_WIDTH,
    IdmParams,
    ScenarioSpec,
    idm_accel,
    ncap_battery,
    simulate_battery,
)


class TestControllerLaw:
    def test_free_flow_equilibrium(self):
        a = idm_accel(IDM_0, v=IDM_0.v_free, gap=1e6, dv=0.0)
        assert abs(a) < 1e-8

    def test_standstill_at_desired_gap(self):
        assert idm_accel(IDM_1, v=0.0, gap=IDM_1.s0, dv=0.0) == pytest.approx(0.0)

    def test_accelerates_from_rest_with_open_road(self):
        a = idm_accel(IDM_0, v=0.0, gap=1e6, dv=0.0)
        assert a == pytest.approx(IDM_0.a_max, rel=1e-6)

    def test_clamped_to_braking_limit(self):
        assert idm_accel(IDM_1, v=20.0, gap=0.5, dv=20.0) == -IDM_1.b_max
        assert idm_accel(IDM_0, v=20.0, gap=0.5, dv=20.0) == -IDM_0.b_max

    def test_never_exceeds_a_max(self):
        a = idm_accel(IDM_0, v=5.0, gap=1e9, dv=-50.0)
        assert a <= IDM_0.a_max

    def test_closing_term_only_when_closing(self):
        opening = idm_accel(IDM_0, v=10.0, gap=30.0, dv=-5.0)
        closing = idm_accel(IDM_0, v=10.0, gap=30.0, dv=5.0)
        assert closing < opening

    def test_rejects_contact(self):
        with pytest.raises(NonPositiveGap):
            idm_accel(IDM_0, v=1.0, gap=0.0, dv=0.0)
        with pytest.raises(NonPositiveGap):
            idm_accel(IDM_0, v=1.0, gap=-1.0, dv=0.0)


def reference_idm_accel(params, v, gap, dv):
    """idm_accel with the clamp written as float(np.clip(...))."""
    if gap <= 0.0:
        raise NonPositiveGap(gap)
    desired = params.s0 + max(
        0.0,
        v * params.headway + v * dv / (2.0 * math.sqrt(params.a_max * params.b_comf)),
    )
    a = params.a_max * (
        1.0 - (v / params.v_free) ** params.delta - (desired / gap) ** 2
    )
    return float(np.clip(a, -params.b_max, params.a_max))


def outcome(build):
    try:
        return build(), None
    except Exception as exc:  # the exception itself is what is compared
        return None, (type(exc), str(exc))


def same_float(a, b):
    return np.float64(a).tobytes() == np.float64(b).tobytes()


NAN = float("nan")
# a_max * (1 - (s0 / gap)**2) with s0 / gap just above 1 underflows to -0.0
TINY_A_MAX = dataclasses.replace(IDM_1, a_max=5e-324)


class TestClamp:
    @pytest.mark.parametrize(
        "params, v, gap, dv",
        [
            (IDM_0, 0.0, 1e200, 0.0),  # open road from rest: exactly a_max
            (dataclasses.replace(IDM_0, b_max=8.25), 20.0, 1.0, 20.0),  # below -b_max
            (TINY_A_MAX, 0.0, 3.6, 0.0),  # the product underflows to -0.0
            (dataclasses.replace(TINY_A_MAX, b_max=-0.0), 0.0, 3.6, 0.0),  # -0.0 against +0.0
            (IDM_0, NAN, 10.0, 0.0),
            (IDM_0, 5.0, NAN, 0.0),
            (dataclasses.replace(IDM_0, delta=3.0), -60.0, 1e6, 0.0),  # above a_max
            (dataclasses.replace(IDM_0, b_max=-1.0), 0.0, 1e200, 0.0),  # -b_max > a_max
        ],
        ids=["a_max", "below_b_max", "neg_zero", "neg_zero_bound", "nan_speed", "nan_gap",
             "above_a_max", "crossed_bounds"],
    )
    def test_matches_numpy_clip_bit_for_bit(self, params, v, gap, dv):
        got = idm_accel(params, v, gap, dv)
        assert same_float(got, reference_idm_accel(params, v, gap, dv))

    def test_exactly_at_lower_bound(self):
        loose = dataclasses.replace(IDM_1, b_max=1e9)
        a = idm_accel(loose, 20.0, 2.0, 20.0)
        tight = dataclasses.replace(IDM_1, b_max=-a)
        assert a < -IDM_1.b_max
        assert same_float(idm_accel(tight, 20.0, 2.0, 20.0), a)
        assert same_float(reference_idm_accel(tight, 20.0, 2.0, 20.0), a)

    def test_special_values(self):
        assert math.copysign(1.0, idm_accel(TINY_A_MAX, 0.0, 3.6, 0.0)) == -1.0
        assert math.isnan(idm_accel(IDM_0, NAN, 10.0, 0.0))
        assert idm_accel(IDM_0, 0.0, 1e200, 0.0) == IDM_0.a_max

    @settings(max_examples=300, deadline=None)
    @given(
        s0=st.floats(0.0, 10.0),
        headway=st.floats(0.0, 5.0),
        b_max=st.sampled_from([0.0, -0.0, 2.0, 9.0]) | st.floats(-5.0, 20.0),
        a_max=st.sampled_from([5e-324, 0.73]) | st.floats(5e-324, 5.0),
        delta=st.sampled_from([1.0, 2.0, 3.0, 4.0]),
        v=st.sampled_from([0.0, -0.0, NAN]) | st.floats(-100.0, 100.0),
        gap=st.sampled_from([NAN, 1e200, 3.6]) | st.floats(1e-3, 1e4),
        dv=st.sampled_from([0.0, -0.0, NAN]) | st.floats(-100.0, 100.0),
    )
    def test_random_inputs_match_numpy_clip(self, s0, headway, b_max, a_max, delta, v, gap, dv):
        params = IdmParams(s0=s0, headway=headway, b_max=b_max, v_free=25.0, a_max=a_max,
                           b_comf=1.67, delta=delta)
        # extreme inputs can overflow the law itself; both must then raise alike
        got, got_error = outcome(lambda: idm_accel(params, v, gap, dv))
        want, want_error = outcome(lambda: reference_idm_accel(params, v, gap, dv))
        assert got_error == want_error
        assert want_error is not None or same_float(got, want)


class TestScenarioSpec:
    def test_validation(self):
        with pytest.raises(ValueError):
            ScenarioSpec("x", 10.0, 0.0, 0.0)
        with pytest.raises(ValueError):
            ScenarioSpec("x", 10.0, 0.0, 10.0, dt=0.0)
        with pytest.raises(ValueError):
            ScenarioSpec("x", 10.0, 0.0, 10.0, dt=0.2)
        with pytest.raises(ValueError):
            ScenarioSpec("x", -1.0, 0.0, 10.0)

    @pytest.mark.parametrize("value", [NAN, math.inf, -math.inf])
    @pytest.mark.parametrize(
        "field", ["sv_speed0", "lead_speed0", "initial_gap", "lead_decel", "duration_s"]
    )
    def test_refuses_non_finite_numbers(self, field, value):
        kwargs = dict(sv_speed0=10.0, lead_speed0=5.0, initial_gap=10.0)
        kwargs[field] = value
        with pytest.raises(ValueError):
            ScenarioSpec("x", **kwargs)

    @pytest.mark.parametrize("duration", [0.0, -0.0, -1.0])
    def test_refuses_non_positive_duration(self, duration):
        with pytest.raises(ValueError):
            ScenarioSpec("x", 10.0, 5.0, 10.0, duration_s=duration)


def frame_rows(rows):
    by_frame = {}
    for r in rows:
        by_frame.setdefault(r.frame, {})[r.agent_id] = r
    return by_frame


class TestEpisode:
    def test_euler_stepping_first_frame(self):
        sc = ScenarioSpec("ep", sv_speed0=10.0, lead_speed0=5.0, initial_gap=30.0,
                          duration_s=1.0)
        rows = sample_rows(simulate_battery(IDM_0, [sc]).samples)
        by_frame = frame_rows(rows)
        f0, f1 = by_frame[0], by_frame[1]
        assert f0["sv"].x == 0.0
        assert f0["lead"].x == VEHICLE_LENGTH + 30.0
        # positions advance with pre-step speeds
        assert f1["sv"].x == pytest.approx(10.0 * sc.dt)
        assert f1["lead"].x == pytest.approx(f0["lead"].x + 5.0 * sc.dt)
        assert f1["sv"].time == pytest.approx(sc.dt)

    def test_speed_floor_at_zero(self):
        sc = ScenarioSpec("ep", sv_speed0=3.0, lead_speed0=0.0, initial_gap=4.0,
                          duration_s=20.0)
        rows = sample_rows(simulate_battery(IDM_1, [sc]).samples)
        assert all(r.vx >= 0.0 for r in rows)

    def test_kinematically_doomed_braking_case(self):
        # weak brakes (2 m/s^2) from 20 m/s need 100 m to stop; the lead
        # braking at 6 m/s^2 offers 20 + 20^2/12 < 54 m, so contact is
        # unavoidable no matter what the controller commands
        v0 = 20.0
        gap0 = 20.0
        sc = ScenarioSpec("doomed", sv_speed0=v0, lead_speed0=v0,
                          initial_gap=gap0, lead_decel=6.0, duration_s=60.0)
        available = gap0 + v0 ** 2 / (2 * 6.0)
        needed = v0 ** 2 / (2 * IDM_1.b_max)
        assert needed > available
        d = simulate_battery(IDM_1, [sc])
        ((traj, frame),) = d.collision_events
        assert traj == "doomed" and frame > 0
        by_frame = frame_rows(sample_rows(d.samples))
        last = by_frame[frame]
        assert last["lead"].x - last["sv"].x == pytest.approx(VEHICLE_LENGTH)
        assert max(by_frame) == frame  # nothing emitted past the contact

    def test_strong_brakes_stay_safe(self):
        sc = ScenarioSpec("safe", sv_speed0=10.0, lead_speed0=0.0,
                          initial_gap=20.0, duration_s=40.0)
        d = simulate_battery(IDM_0, [sc])
        assert d.collision_events == ()
        for fr in frame_rows(sample_rows(d.samples)).values():
            assert fr["lead"].x - fr["sv"].x > VEHICLE_LENGTH

    def test_collision_event_matches_last_frame(self):
        sc = ScenarioSpec("c", sv_speed0=25.0, lead_speed0=0.0, initial_gap=10.0,
                          duration_s=10.0)
        d = simulate_battery(IDM_1, [sc])
        assert d.collision_events == (("c", max(r.frame for r in sample_rows(d.samples))),)


class TestBattery:
    def test_48_cells_16_per_family(self):
        specs = ncap_battery()
        assert len(specs) == 48
        names = [s.name for s in specs]
        assert len(set(names)) == 48
        assert sum(n.startswith("aeb-stationary") for n in names) == 16
        assert sum(n.startswith("aeb-slower") for n in names) == 16
        assert sum(n.startswith("aeb-braking") for n in names) == 16

    def test_speed_sweep_and_families(self):
        specs = ncap_battery()
        for s in specs[:16]:
            assert s.lead_speed0 == 0.0 and s.lead_decel == 0.0
        for s in specs[16:32]:
            assert s.lead_speed0 == pytest.approx(0.4 * s.sv_speed0)
        for s in specs[32:]:
            assert s.lead_decel in (2.0, 4.0, 6.0)
            assert s.lead_speed0 == s.sv_speed0
        sweep = [s.sv_speed0 for s in specs[:16]]
        assert sweep == [float(v) for v in range(10, 26)]

    def test_gap_jitter_band(self):
        specs = ncap_battery(grid_seed=3)
        for s in specs[32:]:
            nominal = 4.0 + 4.5 * s.sv_speed0
            assert abs(s.initial_gap - nominal) <= 0.02 * nominal + 1e-12

    def test_grid_seed_determinism(self):
        assert ncap_battery(5) == ncap_battery(5)
        a = ncap_battery(0)
        b = ncap_battery(1)
        assert [s.name for s in a] == [s.name for s in b]
        assert any(x.initial_gap != y.initial_gap for x, y in zip(a, b))

    def test_battery_simulation_deterministic(self):
        battery = ncap_battery(0)[:6]
        d1 = simulate_battery(IDM_0, battery)
        d2 = simulate_battery(IDM_0, battery)
        assert d1 == d2
        assert isinstance(d1, Dataset)
        assert d1.dt == DEFAULT_DT

    def test_empty_battery_rejected(self):
        with pytest.raises(ValueError):
            simulate_battery(IDM_0, [])

    @pytest.mark.parametrize("name", sorted(IDM_PRESETS))
    def test_every_preset_collides_somewhere(self, name):
        params = IDM_PRESETS[name]
        d = simulate_battery(params, ncap_battery(0))
        assert len(d.collision_events) >= 1
        assert len({t for t, _ in d.collision_events}) == len(d.collision_events)

    def test_preset_collision_counts_frozen(self):
        # regression pins for the seed-0 battery
        assert len(simulate_battery(IDM_0, ncap_battery(0)).collision_events) == 9
        assert len(simulate_battery(IDM_1, ncap_battery(0)).collision_events) == 25

    def test_preset_table(self):
        assert set(IDM_PRESETS) == {"idm0", "idm1"}
        assert IDM_0.b_max > IDM_1.b_max  # idm0 brakes harder
        assert isinstance(IDM_0, IdmParams)


class TestStoppingDistanceSanity:
    def test_stationary_outcomes_follow_kinematics(self):
        """Cells whose slack gap dwarfs the stopping distance end clean."""
        specs = ncap_battery(0)[:16]
        d = simulate_battery(IDM_0, specs)
        crashed = {t for t, _ in d.collision_events}
        for s in specs:
            stopping = s.sv_speed0 ** 2 / (2.0 * IDM_0.b_max)
            if s.initial_gap > 3.0 * stopping + 10.0:
                assert s.name not in crashed
            if s.initial_gap < 0.75 * stopping:
                assert s.name in crashed


def reference_follow(params, scenario, recording_id="sim"):
    """One episode as RawSample rows: the row-building simulator the
    columnar one replaced, with the np.clip clamp."""
    dt = scenario.dt
    half_sum = VEHICLE_LENGTH
    sv_x = 0.0
    lead_x = half_sum + scenario.initial_gap
    v_sv = scenario.sv_speed0
    v_lead = scenario.lead_speed0
    n_steps = int(round(scenario.duration_s / dt))
    traj = scenario.name
    rows = []

    def emit(frame):
        t = frame * dt
        for agent, x, v, flag in (("sv", sv_x, v_sv, True), ("lead", lead_x, v_lead, False)):
            rows.append(RawSample(
                recording_id=recording_id, trajectory_id=traj, frame=frame, time=t,
                agent_id=agent, agent_type="car", x=x, y=0.0, vx=v, vy=0.0,
                length=VEHICLE_LENGTH, width=VEHICLE_WIDTH, lane_id=1, sv_flag=flag,
            ))

    emit(0)
    collision = None
    for k in range(1, n_steps + 1):
        gap = lead_x - sv_x - half_sum
        a = reference_idm_accel(params, v_sv, gap, v_sv - v_lead)
        sv_x += v_sv * dt
        lead_x += v_lead * dt
        v_sv = max(0.0, v_sv + a * dt)
        v_lead = max(0.0, v_lead - scenario.lead_decel * dt)
        if lead_x - sv_x - half_sum <= 0.0:
            sv_x = lead_x - half_sum
            emit(k)
            collision = (traj, k)
            break
        emit(k)
    return rows, collision


def reference_battery(params, battery, recording_id="aeb"):
    """Every episode's rows, concatenated, and the collision events."""
    samples, events = [], []
    for sc in battery:
        rows, collision = reference_follow(params, sc, recording_id)
        samples.extend(rows)
        if collision is not None:
            events.append(collision)
    return samples, events


def csv_bytes(dataset):
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp) / "d.csv"
        write_trajectory_csv(dataset, path)
        return path.read_bytes()


NAME_CHARS = "ab, \""


@st.composite
def batteries(draw):
    names = draw(st.lists(st.text(NAME_CHARS, max_size=3), min_size=1, max_size=4, unique=True))
    if len(names) > 1 and draw(st.integers(0, 3)) == 0:
        names[-1] = names[0]  # a duplicate name
    speeds = st.sampled_from([0.0, -0.0]) | st.floats(0.0, 30.0)
    return [
        ScenarioSpec(
            name=name,
            sv_speed0=draw(speeds),
            lead_speed0=draw(speeds),
            initial_gap=draw(st.sampled_from([0.05, 0.5, 2.0]) | st.floats(0.01, 60.0)),
            lead_decel=draw(st.sampled_from([0.0, 2.0, 6.0]) | st.floats(-1.0, 8.0)),
            duration_s=draw(st.sampled_from([1e-3, 0.04]) | st.floats(1e-3, 4.0)),
            dt=draw(st.sampled_from([DEFAULT_DT, 0.1, 0.01]) | st.floats(0.005, 0.1)),
        )
        for name in names
    ]


class TestColumnarBattery:
    @settings(max_examples=60, deadline=None, suppress_health_check=[HealthCheck.too_slow])
    @given(
        params=st.sampled_from([IDM_0, IDM_1]),
        battery=batteries(),
        recording_id=st.sampled_from(["aeb", "sim"]) | st.text(NAME_CHARS, max_size=4),
    )
    @example(params=IDM_1, recording_id="aeb",  # contact at frame 1
             battery=[ScenarioSpec("c", 25.0, 0.0, 0.5), ScenarioSpec("s", 10.0, 0.0, 50.0, duration_s=2.0)])
    @example(params=IDM_0, recording_id="r,1",  # standstill, 1-frame episodes
             battery=[ScenarioSpec("z", 0.0, 0.0, 5.0, duration_s=1.0),
                      ScenarioSpec("one", 10.0, -0.0, 5.0, duration_s=1e-3)])
    @example(params=IDM_0, recording_id="aeb",  # duplicate names
             battery=[ScenarioSpec("d", 10.0, 5.0, 20.0, duration_s=1.0),
                      ScenarioSpec("e", 10.0, 5.0, 20.0, duration_s=1.0),
                      ScenarioSpec("d", 10.0, 5.0, 20.0, duration_s=1.0)])
    def test_matches_row_reference(self, params, battery, recording_id):
        def reference():
            rows, events = reference_battery(params, battery, recording_id)
            return Dataset(rows, dt=battery[0].dt, collision_events=events)

        want, want_error = outcome(reference)
        got, got_error = outcome(lambda: simulate_battery(params, battery, recording_id))
        assert got_error == want_error
        if want is None:
            return
        assert got == want
        assert got.collision_events == want.collision_events
        assert csv_bytes(got) == csv_bytes(want)

    def test_episode_table_matches_reference_rows(self):
        sc = ScenarioSpec("doomed", 20.0, 20.0, 20.0, lead_decel=6.0, duration_s=60.0)
        d = simulate_battery(IDM_1, [sc], recording_id="r")
        table = d.samples
        rows, want = reference_follow(IDM_1, sc, recording_id="r")
        assert isinstance(table, SampleTable)
        assert table == SampleTable.from_rows(rows)
        assert want is not None and d.collision_events == (want,)
        assert sample_rows(table) == rows

    def test_battery_builds_no_row_objects(self, monkeypatch):
        built = []
        init = RawSample.__init__

        def counting_init(self, *args, **kwargs):
            built.append(1)
            init(self, *args, **kwargs)

        monkeypatch.setattr(RawSample, "__init__", counting_init)
        d = simulate_battery(IDM_0, ncap_battery(0))
        assert len(d.samples) == 109_368
        assert len(built) == 0
