import itertools
import json
import math
import re
import warnings

import numpy as np
import pytest

from unsharp_bell import operators, relativistic, verify
from unsharp_bell.relativistic import (
    CausalRelation,
    Measurement,
    MeasurementProgramme,
    SpacetimeEvent,
    Worldline,
    boost_event,
    causal_relation,
    check_consistency,
    in_backward_cone,
    in_forward_cone,
    influence_cover,
    information_cover,
    interval,
    lorentz_boost,
    observer_chart,
    programme_from_json_dict,
    programme_to_json_dict,
)

Z = np.array([0.0, 0.0, 1.0])
X = np.array([1.0, 0.0, 0.0])


def two_sided_programme(sharpness=0.8, outcomes=(1, -1), axis2=None, separation="spacelike"):
    e1 = SpacetimeEvent(0.0, 0.0, 0.0, 0.0)
    if separation == "spacelike":
        e2 = SpacetimeEvent(0.0, 5.0, 0.0, 0.0)
    elif separation == "timelike":
        e2 = SpacetimeEvent(4.0, 1.0, 0.0, 0.0)
    else:
        raise ValueError(separation)
    return MeasurementProgramme(
        initial="singlet",
        sharpness=sharpness,
        measurements=(
            Measurement(e1, Z, 1),
            Measurement(e2, Z if axis2 is None else axis2, 2),
        ),
        outcomes=outcomes,
    )


def test_interval_signs():
    o = SpacetimeEvent(0.0)
    assert interval(o, SpacetimeEvent(2.0, 1.0)) > 0
    assert interval(o, SpacetimeEvent(1.0, 2.0)) < 0
    assert interval(o, SpacetimeEvent(1.0, 1.0)) == 0.0


@pytest.mark.parametrize("scale", [1e155, 1e170, 1e200])
def test_interval_beyond_the_square_range(scale):
    # the squares overflow here; the sign comes from the rescaled separation
    o = SpacetimeEvent(0.0)
    cases = [
        ((scale, scale, 0.0, 0.0), 0.0, CausalRelation.LIGHTLIKE_FUTURE),
        ((-scale, 0.0, 0.0, scale), 0.0, CausalRelation.LIGHTLIKE_PAST),
        ((2.0 * scale, scale, 0.0, 0.0), math.inf, CausalRelation.TIMELIKE_FUTURE),
        ((-2.0 * scale, 0.0, scale, 0.0), math.inf, CausalRelation.TIMELIKE_PAST),
        ((scale, 0.0, 2.0 * scale, 0.0), -math.inf, CausalRelation.SPACELIKE),
    ]
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        for coords, value, relation in cases:
            point = SpacetimeEvent(*coords)
            assert interval(o, point) == value
            assert causal_relation(o, point) is relation
        # a nearly lightlike pair keeps its sign: about 4.4e294 at 1e155, +inf beyond
        near = interval(o, SpacetimeEvent(scale, scale * (1.0 - 2.0**-52)))
        assert near > 0.0 and math.isfinite(near) == (scale == 1e155)
        # a separation that itself overflows the float range
        a, b = SpacetimeEvent(-1e308, 1e308), SpacetimeEvent(1e308, -1e308)
        assert causal_relation(a, b) is CausalRelation.LIGHTLIKE_FUTURE


def test_interval_keeps_its_rounding_inside_the_square_range(rng):
    for coords in rng.normal(size=(200, 2, 4)) * 10.0 ** rng.integers(-3, 150, size=(200, 1, 1)):
        a, b = SpacetimeEvent(*coords[0]), SpacetimeEvent(*coords[1])
        dt, dx = b.t - a.t, b.coords[1:] - a.coords[1:]
        assert interval(a, b) == float(dt * dt - dx @ dx)


def test_far_observer_on_a_light_cone_is_informed():
    # 1e155 away the squared interval overflows; the observer still lies on
    # the light cones of both events and holds both outcomes
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        chart = observer_chart(two_sided_programme(), SpacetimeEvent(1e155, 1e155, 0.0, 0.0))
    assert chart.information_flags == (1, 1)
    assert chart.influence_flags == (1, 1)


def test_observer_chart_builds_one_cover(monkeypatch):
    # the information flags come from the flag rule, not from a second cover
    built = []
    cover = relativistic._cover
    monkeypatch.setattr(
        relativistic, "_cover", lambda kind, events: built.append(kind) or cover(kind, events)
    )
    chart = observer_chart(two_sided_programme(), SpacetimeEvent(3.0, 1.0))
    assert built == ["influence"]
    events = two_sided_programme().events()
    assert chart.information_flags == information_cover(events).flags_at(SpacetimeEvent(3.0, 1.0))


def test_causal_relation_cases():
    o = SpacetimeEvent(0.0)
    assert causal_relation(o, SpacetimeEvent(2.0, 1.0)) is CausalRelation.TIMELIKE_FUTURE
    assert causal_relation(o, SpacetimeEvent(-2.0, 1.0)) is CausalRelation.TIMELIKE_PAST
    assert causal_relation(o, SpacetimeEvent(1.0, 1.0)) is CausalRelation.LIGHTLIKE_FUTURE
    assert causal_relation(o, SpacetimeEvent(-1.0, 1.0)) is CausalRelation.LIGHTLIKE_PAST
    assert causal_relation(o, SpacetimeEvent(0.0, 3.0)) is CausalRelation.SPACELIKE
    assert causal_relation(o, SpacetimeEvent(0.0)) is CausalRelation.COINCIDENT


def test_cone_membership_closed():
    vertex = SpacetimeEvent(0.0)
    assert in_forward_cone(SpacetimeEvent(1.0, 1.0), vertex)  # boundary counts
    assert in_forward_cone(vertex, vertex)
    assert in_backward_cone(vertex, vertex)
    assert not in_forward_cone(SpacetimeEvent(-0.1), vertex)
    assert not in_backward_cone(SpacetimeEvent(0.0, 2.0), vertex)


def test_cover_partition_pointwise(rng):
    events = (SpacetimeEvent(0.0, 0.0), SpacetimeEvent(0.0, 3.0))
    for cover in (influence_cover(events), information_cover(events)):
        points = rng.uniform(-10, 10, size=(2000, 4))
        for row in points:
            point = SpacetimeEvent.from_sequence(row)
            region = cover.regions[cover.region_index(point)]
            assert region.flags == cover.flags_at(point)
            assert not region.empty


def test_partition_check_flags_match_cover_near_light_cone():
    # The battery's batched cover flags must be the flags charts use, bit
    # for bit, also on points within a few ulps of a light cone, where
    # differently rounded squared intervals change sign.
    rng = np.random.default_rng(0)
    for _ in range(200):
        vertex = rng.normal(size=4)
        dx = rng.normal(size=(500, 3))
        delta = rng.choice([0.0, 1e-16, -1e-16, 2e-16, -2e-16], size=500)
        dt = rng.choice([-1.0, 1.0], size=500) * np.linalg.norm(dx, axis=1) * (1.0 + delta)
        points = vertex + np.column_stack([dt, dx])
        event = SpacetimeEvent.from_sequence(vertex)
        for cover in (influence_cover([event]), information_cover([event])):
            batched = verify._cover_flags(cover, points)
            for row, point in zip(batched.tolist(), points):
                assert tuple(row) == cover.flags_at(SpacetimeEvent.from_sequence(point))


def test_cover_flag_order_two_events():
    events = (SpacetimeEvent(0.0, 0.0), SpacetimeEvent(0.0, 3.0))
    m_cover = influence_cover(events)
    n_cover = information_cover(events)
    assert tuple(r.flags for r in m_cover.regions) == ((0, 0), (0, 1), (1, 0), (1, 1))
    assert tuple(r.flags for r in n_cover.regions) == ((0, 0), (1, 0), (0, 1), (1, 1))


def test_cover_empty_regions_timelike():
    # second event inside the forward cone of the first
    events = (SpacetimeEvent(0.0, 0.0), SpacetimeEvent(5.0, 1.0))
    m_cover = influence_cover(events)
    # influenced by the second but not the first is impossible
    by_flags = {r.flags: r.empty for r in m_cover.regions}
    assert by_flags[(0, 1)]
    assert not by_flags[(1, 0)]
    n_cover = information_cover(events)
    by_flags = {r.flags: r.empty for r in n_cover.regions}
    assert by_flags[(0, 1)]
    assert not by_flags[(1, 0)]


def test_boost_preserves_interval(rng):
    for _ in range(100):
        velocity = rng.uniform(-0.6, 0.6, size=3)
        if np.linalg.norm(velocity) >= 0.95:
            continue
        boost = lorentz_boost(velocity)
        a = SpacetimeEvent.from_sequence(rng.uniform(-5, 5, size=4))
        b = SpacetimeEvent.from_sequence(rng.uniform(-5, 5, size=4))
        np.testing.assert_allclose(
            interval(boost_event(boost, a), boost_event(boost, b)),
            interval(a, b),
            atol=1e-9,
        )


def test_boost_preserves_causal_relation(rng):
    kept = 0
    while kept < 200:
        a = SpacetimeEvent.from_sequence(rng.uniform(-5, 5, size=4))
        b = SpacetimeEvent.from_sequence(rng.uniform(-5, 5, size=4))
        if abs(interval(a, b)) < 1e-3:
            continue  # stay away from the light cone where rounding can flip
        velocity = rng.uniform(-0.5, 0.5, size=3)
        boost = lorentz_boost(velocity)
        assert causal_relation(a, b) is causal_relation(
            boost_event(boost, a), boost_event(boost, b)
        )
        kept += 1


def test_worldline_timelike():
    line = Worldline(SpacetimeEvent(0.0), (0.5, 0.0, 0.0))
    e = line.event_at(2.0)
    assert e.t == 2.0 and e.x == 1.0
    with pytest.raises(ValueError, match="speed"):
        Worldline(SpacetimeEvent(0.0), (1.0, 0.0, 0.0))


def test_chart_before_everything():
    programme = two_sided_programme()
    early = SpacetimeEvent(-100.0, 0.0, 0.0, 0.0)
    chart = observer_chart(programme, early)
    assert chart.influence_flags == (0, 0)
    assert chart.information_flags == (0, 0)
    assert chart.applied == () and chart.informed == ()
    np.testing.assert_allclose(chart.state, programme.initial_state, atol=1e-14)
    assert chart.assertions == ()


def test_chart_after_everything():
    programme = two_sided_programme()
    late = SpacetimeEvent(100.0, 0.0, 0.0, 0.0)
    chart = observer_chart(programme, late)
    assert chart.applied == (0, 1)
    assert chart.informed == (0, 1)
    assert len(chart.assertions) == 4  # two registrations, two partner values
    np.testing.assert_allclose(np.trace(chart.state).real, 1.0, atol=1e-12)


def test_chart_applied_without_information():
    # observation spacelike to both measurements: the nonselective update
    # applies even though no outcome information has arrived
    programme = two_sided_programme()
    point = SpacetimeEvent(1.0, -2.0, 0.0, 0.0)
    chart = observer_chart(programme, point)
    assert chart.applied == (0, 1)
    assert chart.informed == ()
    assert chart.information_flags == (0, 0)
    np.testing.assert_allclose(np.trace(chart.state).real, 1.0, atol=1e-12)


def test_chart_one_sided_information():
    programme = two_sided_programme()
    point = SpacetimeEvent(3.0, 0.0, 0.0, 0.0)  # inside the first forward cone only
    chart = observer_chart(programme, point)
    assert chart.informed == (0,)
    assert 0 in chart.applied
    assert any("registered" in a for a in chart.assertions)


def test_chart_missing_outcome_rejected():
    programme = two_sided_programme(outcomes=(None, None))
    late = SpacetimeEvent(100.0, 0.0, 0.0, 0.0)
    with pytest.raises(ValueError, match="records no outcome"):
        observer_chart(programme, late)
    # but an uninformed point is fine
    early = SpacetimeEvent(-100.0, 0.0, 0.0, 0.0)
    chart = observer_chart(programme, early)
    assert chart.informed == ()


def test_singlet_anticorrelation_assertion():
    programme = two_sided_programme(sharpness=1.0)
    late = SpacetimeEvent(100.0, 0.0, 0.0, 0.0)
    chart = observer_chart(programme, late)
    partner_lines = [a for a in chart.assertions if "anticipated" in a]
    assert len(partner_lines) == 2
    # sharp singlet: partner value is certain
    assert all("probability 1" in a for a in partner_lines)


def test_sequential_order_invariance(rng):
    # spacelike measurements commute: both application orders agree
    for outcomes in itertools.product((1, -1), repeat=2):
        programme = two_sided_programme(outcomes=outcomes, axis2=X)
        late = SpacetimeEvent(100.0, 0.0, 0.0, 0.0)
        chart = observer_chart(programme, late)
        assert np.trace(chart.state).real == pytest.approx(1.0, abs=1e-12)


def test_chart_assigns_every_region():
    # observer inside the first forward cone only: the first measurement
    # acts selectively wherever it acts, the second nonselectively
    programme = two_sided_programme()
    chart = observer_chart(programme, SpacetimeEvent(3.0, 0.0, 0.0, 0.0))
    assert chart.information_flags == (1, 0)
    assert [a.flags for a in chart.assignments] == [(0, 0), (0, 1), (1, 0), (1, 1)]

    # hand-built oracle: both axes are z, so every effect is diagonal and
    # the Luders sandwich uses elementwise square roots
    s = programme.sharpness
    initial = programme.initial_state
    eye = np.eye(2)
    sigma_z = np.diag([1.0, -1.0])
    eff1 = {o: np.kron(0.5 * (eye + o * s * sigma_z), eye) for o in (1, -1)}
    eff2 = {o: np.kron(eye, 0.5 * (eye + o * s * sigma_z)) for o in (1, -1)}

    def sandwich(effect, state):
        root = np.diag(np.sqrt(np.diag(effect).real))
        return root @ state @ root

    only_b = sandwich(eff2[1], initial) + sandwich(eff2[-1], initial)
    only_a = sandwich(eff1[1], initial)
    prob_a = float(np.trace(only_a).real)
    both = (sandwich(eff2[1], only_a) + sandwich(eff2[-1], only_a)) / prob_a

    regions = {a.flags: a for a in chart.assignments}
    np.testing.assert_allclose(regions[(0, 0)].state, initial, atol=1e-12)
    np.testing.assert_allclose(regions[(0, 1)].state, only_b, atol=1e-12)
    np.testing.assert_allclose(regions[(1, 0)].state, only_a / prob_a, atol=1e-12)
    np.testing.assert_allclose(regions[(1, 1)].state, both, atol=1e-12)
    assert regions[(0, 0)].conditioned == () and regions[(0, 1)].conditioned == ()
    assert regions[(1, 0)].conditioned == (0,) and regions[(1, 1)].conditioned == (0,)
    assert regions[(1, 0)].selective and not regions[(0, 1)].selective
    assert regions[(1, 0)].probability == pytest.approx(prob_a, abs=1e-12)
    # the registered value is asserted exactly where the measurement acts
    assert regions[(0, 0)].assertions == () and regions[(0, 1)].assertions == ()
    assert any("registered +1" in line for line in regions[(1, 0)].assertions)
    assert any("registered +1" in line for line in regions[(1, 1)].assertions)


def test_chart_depends_on_information_only():
    programme = two_sided_programme()
    early = observer_chart(programme, SpacetimeEvent(-100.0, 0.0, 0.0, 0.0))
    spacelike = observer_chart(programme, SpacetimeEvent(1.0, -2.0, 0.0, 0.0))
    assert early.information_flags == spacelike.information_flags == (0, 0)
    assert early.region_index != spacelike.region_index
    # equal information: the observers disagree about which region they
    # occupy, never about the chart itself
    for mine, theirs in zip(early.assignments, spacelike.assignments):
        assert mine.conditioned == theirs.conditioned == ()
        np.testing.assert_allclose(mine.state, theirs.state, atol=1e-14)


def test_chart_all_zero_region_keeps_initial(rng):
    programme = two_sided_programme(axis2=X)
    for _ in range(20):
        point = SpacetimeEvent.from_sequence(rng.uniform(-30.0, 30.0, size=4))
        chart = observer_chart(programme, point)
        first = chart.assignments[0]
        assert first.flags == (0, 0) and first.applied == ()
        np.testing.assert_allclose(first.state, programme.initial_state, atol=1e-14)


def test_single_measurement_chart_two_regions():
    programme = MeasurementProgramme(
        initial="singlet",
        sharpness=0.6,
        measurements=(Measurement(SpacetimeEvent(0.0), Z, 1),),
        outcomes=(-1,),
    )
    late = observer_chart(programme, SpacetimeEvent(10.0, 0.0, 0.0, 0.0))
    assert [a.flags for a in late.assignments] == [(0,), (1,)]
    assert late.region_index == 1
    assert late.assignments[1].conditioned == (0,)
    np.testing.assert_allclose(late.assignments[0].state, programme.initial_state, atol=1e-14)
    early = observer_chart(programme, SpacetimeEvent(-10.0, 0.0, 0.0, 0.0))
    assert early.region_index == 0
    assert early.assignments[1].conditioned == ()
    assert np.trace(early.assignments[1].state).real == pytest.approx(1.0, abs=1e-12)


def test_chart_at_measurement_vertex():
    # closed cones: the vertex is informed of its own measurement, but its
    # region still predates it; the outcome conditions the later regions
    programme = two_sided_programme()
    chart = observer_chart(programme, programme.measurements[0].event)
    assert chart.information_flags[0] == 1
    assert chart.influence_flags[0] == 0
    assert 0 in chart.informed and 0 not in chart.applied
    assert chart.assertions == ()
    regions = {a.flags: a for a in chart.assignments}
    assert regions[(1, 0)].conditioned == (0,)
    assert any("registered" in line for line in regions[(1, 1)].assertions)


def test_consistency_report_spacelike():
    report = check_consistency(two_sided_programme(axis2=X))
    assert report.all_pass
    assert report.order_deviation <= 1e-12
    assert report.signalling_deviation <= 1e-9
    assert report.flags_monotone


def test_consistency_report_timelike():
    report = check_consistency(two_sided_programme(separation="timelike"))
    assert report.all_pass


@pytest.mark.parametrize("separation", ["spacelike", "timelike"])
def test_consistency_charts_from_shared_roots_equal_observer_charts(monkeypatch, separation):
    # check_consistency builds each measurement's roots once and charts every
    # worldline point from them; each chart equals observer_chart's, byte for byte
    programme = two_sided_programme(axis2=X, separation=separation)
    body = relativistic._chart
    built = []

    def recording(prog, observer, roots):
        chart = body(prog, observer, roots)
        built.append((prog, observer, chart))
        return chart

    roots_built = []
    sqrt_psd = operators.sqrt_psd
    monkeypatch.setattr(relativistic, "_chart", recording)
    monkeypatch.setattr(relativistic, "sqrt_psd", lambda m: roots_built.append(m) or sqrt_psd(m))
    offsets = np.linspace(-2.0, 12.0, 15)
    check_consistency(programme, Worldline(SpacetimeEvent(-3.0, 1.0, 0.0, 0.0)), offsets)
    monkeypatch.undo()
    assert len(roots_built) == 2 * len(programme.measurements)
    assert len(built) == 4 * len(offsets)  # every outcome pair at every point
    for prog, observer, chart in built:
        want = observer_chart(prog, observer).to_json_dict()
        assert json.dumps(chart.to_json_dict()) == json.dumps(want)


def test_consistency_regions_progress():
    report = check_consistency(two_sided_programme())
    flags = [m for m, _ in report.regions_visited]
    assert flags[0] == (0, 0)
    assert flags[-1] == (1, 1)


def test_programme_json_round_trip():
    programme = two_sided_programme(axis2=X)
    data = json.loads(json.dumps(programme_to_json_dict(programme)))
    back = programme_from_json_dict(data)
    assert back.sharpness == programme.sharpness
    assert back.outcomes == programme.outcomes
    for m1, m2 in zip(back.measurements, programme.measurements):
        assert m1.event == m2.event
        np.testing.assert_allclose(m1.axis, m2.axis, atol=0)
        assert m1.subsystem == m2.subsystem
    np.testing.assert_allclose(back.initial_state, programme.initial_state, atol=0)


def test_programme_validation():
    e = SpacetimeEvent(0.0)
    with pytest.raises(ValueError, match="subsystem"):
        MeasurementProgramme(
            initial="singlet",
            sharpness=0.5,
            measurements=(Measurement(e, Z, 1), Measurement(e, X, 1)),
            outcomes=(1, 1),
        )
    with pytest.raises(ValueError, match="sharpness"):
        MeasurementProgramme(
            initial="singlet",
            sharpness=1.5,
            measurements=(Measurement(e, Z, 1),),
            outcomes=(1,),
        )


@pytest.mark.parametrize("name", ["t", "x", "y", "z"])
@pytest.mark.parametrize("value", [float("nan"), float("inf"), float("-inf")])
def test_event_rejects_non_finite_coordinate(name, value):
    coords = {"t": 0.0, "x": 0.0, "y": 0.0, "z": 0.0, name: value}
    with pytest.raises(ValueError, match=f"coordinate {name} must be finite"):
        SpacetimeEvent(**coords)


def test_event_from_sequence_needs_four_coordinates():
    with pytest.raises(ValueError, match="four coordinates"):
        SpacetimeEvent.from_sequence([1.0, 0.0, 0.0])
    with pytest.raises(ValueError, match="coordinate t must be finite"):
        SpacetimeEvent.from_sequence(["nan", 0, 0, 0])


@pytest.mark.parametrize("field", ["event", "axis", "subsystem"])
def test_programme_json_names_missing_measurement_field(field):
    entry = {"event": [0, 0, 0, 0], "axis": [1, 0, 0], "subsystem": 1}
    del entry[field]
    data = {"initial": "singlet", "lambda": 0.5, "measurements": [entry]}
    with pytest.raises(ValueError, match=f"measurement 0 is missing a field: {field}"):
        programme_from_json_dict(data)


@pytest.mark.parametrize(
    "measurements",
    [3, [5], [{"event": 5, "axis": [1, 0, 0], "subsystem": 1}],
     [{"event": [0, 0, 0, 0], "axis": [1, 0, 0], "subsystem": None}]],
)
def test_programme_json_malformed_measurements_raise_value_error(measurements):
    data = {"initial": "singlet", "lambda": 0.5, "measurements": measurements}
    with pytest.raises(ValueError, match="measurement"):
        programme_from_json_dict(data)


def single_measurement_json(**fields) -> dict:
    data = {
        "initial": "singlet",
        "lambda": 0.5,
        "measurements": [{"event": [0, 0, 0, 0], "axis": [1, 0, 0], "subsystem": 1}],
        "outcomes": [1],
    }
    data["measurements"][0]["subsystem"] = fields.pop("subsystem", 1)
    data.update(fields)
    return data


@pytest.mark.parametrize(
    ("data", "message"),
    [
        ([1, 2], "programme JSON must be an object, got list"),
        (single_measurement_json(outcomes=5), "programme outcomes must be a list of +1, -1"),
        (single_measurement_json(initial=5), 'programme initial must be "singlet" or'),
        (single_measurement_json(**{"lambda": None}),
         "programme lambda must be a number, got None"),
        (single_measurement_json(subsystem=1.7),
         "programme measurement 0 subsystem must be an integer, got 1.7"),
        (single_measurement_json(outcomes=[1.5]), "programme outcome must be an integer, got 1.5"),
    ],
)
def test_programme_json_names_violated_precondition(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        programme_from_json_dict(data)


def test_programme_json_keeps_integral_numbers():
    programme = programme_from_json_dict(single_measurement_json(subsystem=2.0, outcomes=[-1.0]))
    assert type(programme.measurements[0].subsystem) is int
    assert programme.measurements[0].subsystem == 2
    assert programme.outcomes == (-1,)


@pytest.mark.parametrize(
    ("fields", "message"),
    [
        ({"measurements": [{"event": "0510", "axis": [0, 0, 1], "subsystem": 1}]},
         "programme measurement 0 event must be a list of numbers, got '0510'"),
        ({"measurements": [{"event": [True, 0, 0, 0], "axis": [0, 0, 1], "subsystem": 1}]},
         "programme measurement 0 event must be a list of numbers, got True"),
        ({"measurements": [{"event": [None, 0, 0, 0], "axis": [0, 0, 1], "subsystem": 1}]},
         "programme measurement 0 event must be a list of numbers, got None"),
        ({"measurements": [{"event": ["zero", 0, 0, 0], "axis": [0, 0, 1], "subsystem": 1}]},
         "programme measurement 0 event must be a list of numbers, got 'zero'"),
        ({"measurements": [{"event": [0, 0, 0, 0], "axis": "001", "subsystem": 1}]},
         "programme measurement 0 axis must be a list of numbers, got '001'"),
        ({"outcomes": "1"}, "programme outcomes must be a list of +1, -1 or null, got '1'"),
        ({"initial": "foo"}, 'programme initial must be "singlet" or [re, im] pairs, got \'foo\''),
        ({"initial": [[1, 0, 0]] * 16}, 'programme initial must be "singlet" or [re, im] pairs'),
        ({"subsystem": True}, "programme measurement 0 subsystem must be an integer, got True"),
        ({"outcomes": [True]}, "programme outcome must be an integer, got True"),
        ({"lambda": "0.5"}, "programme lambda must be a number, got '0.5'"),
    ],
)
def test_programme_json_refuses_text_and_booleans(fields, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        programme_from_json_dict(single_measurement_json(**fields))


def with_measurement_key(**fields) -> dict:
    data = single_measurement_json()
    data["measurements"][0].update(fields)
    return data


@pytest.mark.parametrize(
    ("data", "message"),
    [
        # "outcome" for "outcomes" used to chart with no outcomes, silently
        ({**{k: v for k, v in single_measurement_json().items() if k != "outcomes"},
          "outcome": [1]},
         "programme JSON has an unknown key 'outcome'"),
        (with_measurement_key(sharp=1), "programme measurement 0 has an unknown key 'sharp'"),
    ],
)
def test_programme_json_refuses_unknown_keys_by_name(data, message):
    with pytest.raises(ValueError, match=re.escape(message)):
        programme_from_json_dict(data)
