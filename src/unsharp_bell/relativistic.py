"""Observer-dependent state assignment for separated measurements.

Minkowski scaffolding (events, causal order, light cones, boosts) plus a
chart prescription for two-particle measurement programmes: every
observation point builds a full region-by-region chart.  Each region of
the influence cover carries the state updated by exactly the
measurements that bear on it, and the observer's information decides,
once for the whole chart, which of those updates are selective
(conditioned on a registered outcome) and which are nonselective.  The
boundaries are the measurement events' light cones, so the assignment is
a covariant partition of spacetime rather than a single global history.

Every cone question (cone membership, cover flags, region lookup, region
emptiness) is answered by ``causal_relation``'s classification, and every
state update is ``instruments.lueders_update``.

Conventions: units with c = 1, coordinates (t, x, y, z), metric
signature (+, -, -, -).  Cones are closed (boundary and vertex
included).
"""

from __future__ import annotations

import dataclasses
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .bell import singlet_state
from .instruments import NULL_PROBABILITY, lueders_update
from .operators import (
    I2,
    check_density,
    expectation,
    json_known_keys,
    json_list,
    json_number,
    matrix_from_pairs,
    matrix_to_pairs,
    partial_trace,
    sqrt_psd,
    tensor,
)
from .spin_povm import check_sharpness, unit_vector, unsharp_effect

__all__ = [
    "SpacetimeEvent",
    "CausalRelation",
    "interval",
    "causal_relation",
    "in_backward_cone",
    "in_forward_cone",
    "CoverRegion",
    "Cover",
    "influence_cover",
    "information_cover",
    "lorentz_boost",
    "boost_event",
    "Worldline",
    "Measurement",
    "MeasurementProgramme",
    "RegionAssignment",
    "ChartResult",
    "observer_chart",
    "ConsistencyReport",
    "check_consistency",
    "programme_to_json_dict",
    "programme_from_json_dict",
]

ORDER_TOL = 1e-12
MIXTURE_TOL = 1e-9
SIGNALLING_TOL = 1e-9
GROUPING_TOL = 1e-12


@dataclass(frozen=True)
class SpacetimeEvent:
    """A point of Minkowski spacetime, coordinates (t, x, y, z)."""

    t: float
    x: float = 0.0
    y: float = 0.0
    z: float = 0.0

    def __post_init__(self):
        for name in ("t", "x", "y", "z"):
            value = float(getattr(self, name))
            if not math.isfinite(value):
                raise ValueError(f"coordinate {name} must be finite, got {value!r}")
            object.__setattr__(self, name, value)

    @property
    def coords(self) -> np.ndarray:
        return np.array([self.t, self.x, self.y, self.z])

    @classmethod
    def from_sequence(cls, seq) -> "SpacetimeEvent":
        coords = [float(c) for c in seq]
        if len(coords) != 4:
            raise ValueError(f"an event needs four coordinates t,x,y,z, got {len(coords)}")
        return cls(*coords)


class CausalRelation(Enum):
    COINCIDENT = "coincident"
    TIMELIKE_FUTURE = "timelike future"
    TIMELIKE_PAST = "timelike past"
    LIGHTLIKE_FUTURE = "lightlike future"
    LIGHTLIKE_PAST = "lightlike past"
    SPACELIKE = "spacelike"


# A separation whose coordinates are all at most this large squares and
# sums to below the largest float (3 * 2**1020 < 2**1022).
_SQUARE_SAFE = 2.0 ** 510


def interval(a: SpacetimeEvent, b: SpacetimeEvent) -> float:
    """Squared invariant interval of the separation from a to b.

    Where the squares overflow (separations beyond about 1.3e154), the
    sign is decided on the separation divided by its largest coordinate
    and the value scaled back: 0, +-inf or the rescaled value, never NaN.
    """
    dt, dx, dy, dz = b.t - a.t, b.x - a.x, b.y - a.y, b.z - a.z
    space = np.array([dx, dy, dz])
    if max(abs(dt), abs(dx), abs(dy), abs(dz)) <= _SQUARE_SAFE:
        return float(dt * dt - space @ space)
    with np.errstate(over="ignore", invalid="ignore"):
        value = float(dt * dt - space @ space)
        if math.isfinite(value):
            return value
        # Halving is exact, so the halved separation rounds as b - a does, and
        # it stays finite where b - a overflows.
        half = 0.5 * b.coords - 0.5 * a.coords
        largest = float(np.max(np.abs(half)))
        unit = half / largest
        return float(unit[0] * unit[0] - unit[1:] @ unit[1:]) * largest * largest * 4.0


def causal_relation(a: SpacetimeEvent, b: SpacetimeEvent) -> CausalRelation:
    """How b lies relative to a.

    The classification is by the exact signs of the squared interval and
    the time separation; points on the light cone count as lightlike, not
    as a tolerance band around it.
    """
    dt = b.t - a.t
    s2 = interval(a, b)
    if dt == 0.0 and b.x == a.x and b.y == a.y and b.z == a.z:
        return CausalRelation.COINCIDENT
    if s2 > 0.0:
        return CausalRelation.TIMELIKE_FUTURE if dt > 0.0 else CausalRelation.TIMELIKE_PAST
    if s2 == 0.0:
        return CausalRelation.LIGHTLIKE_FUTURE if dt > 0.0 else CausalRelation.LIGHTLIKE_PAST
    return CausalRelation.SPACELIKE


_PAST_RELATIONS = frozenset(
    {CausalRelation.COINCIDENT, CausalRelation.TIMELIKE_PAST, CausalRelation.LIGHTLIKE_PAST}
)
_FUTURE_RELATIONS = frozenset(
    {CausalRelation.COINCIDENT, CausalRelation.TIMELIKE_FUTURE, CausalRelation.LIGHTLIKE_FUTURE}
)


def in_backward_cone(point: SpacetimeEvent, vertex: SpacetimeEvent) -> bool:
    """Whether a point lies in the closed backward cone of a vertex."""
    return causal_relation(vertex, point) in _PAST_RELATIONS


def in_forward_cone(point: SpacetimeEvent, vertex: SpacetimeEvent) -> bool:
    """Whether a point lies in the closed forward cone of a vertex."""
    return causal_relation(vertex, point) in _FUTURE_RELATIONS


@dataclass(frozen=True)
class CoverRegion:
    flags: tuple[int, ...]
    empty: bool


# Per cover kind: the flag of a point inside the closed cone each event's
# flag tests (0 inside a backward cone, 1 inside a forward cone), and the
# region order by event count (influence lists regions past-first,
# information the one-sided regions in event order).  The cone test is
# picked by name at each call, so a wrapper bound over the module's names
# (as the benchmark's tracer binds one) sees every test.
_COVER_KINDS = {
    "influence": (0, {1: ((0,), (1,)), 2: ((0, 0), (0, 1), (1, 0), (1, 1))}),
    "information": (1, {1: ((0,), (1,)), 2: ((0, 0), (1, 0), (0, 1), (1, 1))}),
}


@dataclass(frozen=True, eq=False)
class Cover:
    """A partition of spacetime by the light cones of measurement events.

    The influence cover flags, per event, whether a point lies outside
    the event's closed backward cone (flag 1: the measurement bears on
    state assignments at that point).  The information cover flags
    whether a point lies inside the event's closed forward cone (flag 1:
    the outcome is available there).
    """

    kind: str  # 'influence' or 'information'
    events: tuple[SpacetimeEvent, ...]
    regions: tuple[CoverRegion, ...]

    def flags_at(self, point: SpacetimeEvent) -> tuple[int, ...]:
        return _flags_at(self.kind, self.events, point)

    def region_index(self, point: SpacetimeEvent) -> int:
        flags = self.flags_at(point)
        for idx, region in enumerate(self.regions):
            if region.flags == flags:
                return idx
        raise ValueError(f"flags {flags} not in cover")  # unreachable by construction


def _flags_at(kind: str, events, point: SpacetimeEvent) -> tuple[int, ...]:
    """The point's flag for each event under the cover kind's rule."""
    inside, _ = _COVER_KINDS[kind]
    in_cone = in_forward_cone if inside else in_backward_cone
    return tuple(inside if in_cone(point, e) else 1 - inside for e in events)


def _as_events(events) -> tuple[SpacetimeEvent, ...]:
    out = tuple(
        e if isinstance(e, SpacetimeEvent) else SpacetimeEvent.from_sequence(e)
        for e in events
    )
    if len(out) not in (1, 2):
        raise ValueError(f"covers are implemented for 1 or 2 events, got {len(out)}")
    return out


def _cover(kind: str, events) -> Cover:
    """Partition by the kind's cones, with exact emptiness for each region.

    A one-sided region, inside event i's cone and outside event j's, is
    empty exactly when the first cone is contained in the second, which
    for equal-shape cones reduces to e_i lying in e_j's cone.
    """
    evts = _as_events(events)
    inside, orders = _COVER_KINDS[kind]
    in_cone = in_forward_cone if inside else in_backward_cone
    regions = []
    for flags in orders[len(evts)]:
        empty = False
        if len(evts) == 2 and flags[0] != flags[1]:
            i = flags.index(inside)
            empty = in_cone(evts[i], evts[1 - i])
        regions.append(CoverRegion(flags, empty))
    return Cover(kind, evts, tuple(regions))


def influence_cover(events) -> Cover:
    """Partition by backward cones, with exact emptiness for each region."""
    return _cover("influence", events)


def information_cover(events) -> Cover:
    """Partition by forward cones, with exact emptiness for each region."""
    return _cover("information", events)


def lorentz_boost(velocity) -> np.ndarray:
    """Boost matrix acting on (t, x, y, z) coordinate columns."""
    v = np.asarray(velocity, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"velocity must be a 3-vector, got shape {v.shape}")
    speed2 = float(v @ v)
    if speed2 >= 1.0:
        raise ValueError(f"speed {np.sqrt(speed2)!r} is not below 1")
    if speed2 == 0.0:
        return np.eye(4)
    gamma = 1.0 / np.sqrt(1.0 - speed2)
    boost = np.eye(4)
    boost[0, 0] = gamma
    boost[0, 1:] = -gamma * v
    boost[1:, 0] = -gamma * v
    boost[1:, 1:] += (gamma - 1.0) * np.outer(v, v) / speed2
    return boost


def boost_event(boost: np.ndarray, event: SpacetimeEvent) -> SpacetimeEvent:
    return SpacetimeEvent.from_sequence(np.asarray(boost) @ event.coords)


@dataclass(frozen=True, eq=False)
class Worldline:
    """Inertial observer worldline with subluminal coordinate velocity."""

    origin: SpacetimeEvent
    velocity: tuple[float, float, float] = (0.0, 0.0, 0.0)

    def __post_init__(self):
        v = np.asarray(self.velocity, dtype=float)
        if v.shape != (3,):
            raise ValueError("worldline velocity must be a 3-vector")
        if float(v @ v) >= 1.0:
            raise ValueError("worldline must be timelike (speed below 1)")
        object.__setattr__(self, "velocity", tuple(float(c) for c in v))

    def event_at(self, dt: float) -> SpacetimeEvent:
        vx, vy, vz = self.velocity
        o = self.origin
        return SpacetimeEvent(o.t + dt, o.x + vx * dt, o.y + vy * dt, o.z + vz * dt)

    def sample(self, offsets) -> tuple[SpacetimeEvent, ...]:
        return tuple(self.event_at(float(dt)) for dt in offsets)


@dataclass(frozen=True, eq=False)
class Measurement:
    """An unsharp spin measurement localized at a spacetime event."""

    event: SpacetimeEvent
    axis: np.ndarray
    subsystem: int

    def __post_init__(self):
        if not isinstance(self.event, SpacetimeEvent):
            object.__setattr__(self, "event", SpacetimeEvent.from_sequence(self.event))
        object.__setattr__(self, "axis", unit_vector(self.axis))
        if self.subsystem not in (1, 2):
            raise ValueError(f"subsystem must be 1 or 2, got {self.subsystem}")


@dataclass(frozen=True, eq=False)
class MeasurementProgramme:
    """One or two localized measurements on a two-particle state.

    ``initial`` is either the string ``'singlet'`` or a 4x4 density
    matrix.  ``outcomes`` optionally records the registered outcome of
    each measurement (entries +1, -1, or None for unrecorded).
    """

    initial: object
    sharpness: float
    measurements: tuple[Measurement, ...]
    outcomes: tuple | None = None

    def __post_init__(self):
        object.__setattr__(self, "measurements", tuple(self.measurements))
        if not 1 <= len(self.measurements) <= 2:
            raise ValueError("programme needs one or two measurements")
        if len(self.measurements) == 2:
            if self.measurements[0].subsystem == self.measurements[1].subsystem:
                raise ValueError("two measurements must address distinct subsystems")
        check_sharpness(self.sharpness)
        object.__setattr__(self, "sharpness", float(self.sharpness))
        if self.outcomes is not None:
            outs = tuple(self.outcomes)
            if len(outs) != len(self.measurements):
                raise ValueError("outcomes must match measurements one to one")
            for o in outs:
                if o not in (1, -1, None):
                    raise ValueError(f"outcomes must be +1, -1 or None, got {o!r}")
            object.__setattr__(self, "outcomes", outs)
        if not (isinstance(self.initial, str) and self.initial == "singlet"):
            object.__setattr__(self, "initial", check_density(self.initial, name="initial state"))
            if np.asarray(self.initial).shape != (4, 4):
                raise ValueError("initial state must be a two-particle (4x4) density matrix")

    @property
    def initial_state(self) -> np.ndarray:
        if isinstance(self.initial, str):
            return singlet_state()
        return np.asarray(self.initial)

    @property
    def is_singlet(self) -> bool:
        return isinstance(self.initial, str) or bool(
            np.allclose(self.initial_state, singlet_state(), atol=1e-12)
        )

    def events(self) -> tuple[SpacetimeEvent, ...]:
        return tuple(m.event for m in self.measurements)


def _embed(operator: np.ndarray, subsystem: int) -> np.ndarray:
    return tensor(operator, I2) if subsystem == 1 else tensor(I2, operator)


def _measurement_roots(measurement: Measurement, sharpness: float) -> dict:
    """Square roots of the two outcome effects, embedded in the pair."""
    return {
        o: _embed(sqrt_psd(unsharp_effect(o * measurement.axis, sharpness)), measurement.subsystem)
        for o in (1, -1)
    }


def _apply(roots: list, actions, order, state: np.ndarray) -> np.ndarray:
    """Apply measurements in ``order``, i selecting ``actions[i]`` (None: nonselective)."""
    for i in order:
        state = lueders_update(state, roots[i], actions[i])
    return state


@dataclass(frozen=True, eq=False)
class RegionAssignment:
    """State and definite values assigned to one influence region.

    ``applied`` lists the measurements acting in the region (region flag
    1) and ``conditioned`` the subset applied selectively because the
    observer holds the registered outcome.  ``probability`` is the trace
    before normalization, so the joint probability of the conditioned
    outcomes (1 up to rounding when nothing is conditioned).
    """

    flags: tuple[int, ...]
    empty: bool
    applied: tuple[int, ...]
    conditioned: tuple[int, ...]
    probability: float
    state: np.ndarray
    assertions: tuple[str, ...]

    @property
    def selective(self) -> bool:
        return bool(self.conditioned)

    def to_json_dict(self) -> dict:
        return {
            "flags": list(self.flags),
            "empty": bool(self.empty),
            "applied": list(self.applied),
            "conditioned": list(self.conditioned),
            "selective": self.selective,
            "probability": self.probability,
            "state": matrix_to_pairs(self.state),
            "assertions": list(self.assertions),
        }


@dataclass(eq=False)
class ChartResult:
    """Region-by-region state assignment built at one observation point.

    ``assignments`` covers every region of the influence cover in cover
    order; ``region_index`` points at the observer's own region, and the
    remaining fields copy that region's assignment (``informed`` lists
    all indices whose outcome the observer holds, whether or not their
    measurement acts in the own region).
    """

    observer: SpacetimeEvent
    influence_flags: tuple[int, ...]
    information_flags: tuple[int, ...]
    region_index: int
    assignments: tuple[RegionAssignment, ...]
    applied: tuple[int, ...]   # measurement indices acting in the own region
    informed: tuple[int, ...]  # indices with a registered outcome at hand
    probability: float         # joint probability of the conditioned outcomes
    state: np.ndarray
    assertions: tuple[str, ...]

    def to_json_dict(self) -> dict:
        return {
            "observer": [self.observer.t, self.observer.x, self.observer.y, self.observer.z],
            "influence_flags": list(self.influence_flags),
            "information_flags": list(self.information_flags),
            "region_index": self.region_index,
            "assignments": [a.to_json_dict() for a in self.assignments],
            "applied": list(self.applied),
            "informed": list(self.informed),
            "probability": self.probability,
            "state": matrix_to_pairs(self.state),
            "assertions": list(self.assertions),
        }


def _axis_text(axis: np.ndarray) -> str:
    return "(" + ", ".join(f"{c:g}" for c in axis) + ")"


def _partner_assertion(measurement: Measurement, roots: dict, outcome: int,
                       sharpness: float, initial: np.ndarray) -> str:
    """What the registered outcome implies for the other particle."""
    sub = lueders_update(initial, roots, outcome)
    prob = float(np.trace(sub).real)
    other = 2 if measurement.subsystem == 1 else 1
    reduced = partial_trace(sub / prob, keep=other)
    partner_prob = expectation(reduced, unsharp_effect(-outcome * measurement.axis, sharpness))
    return (
        f"subsystem {other} along {_axis_text(measurement.axis)}: value {-outcome:+d} "
        f"anticipated with probability {partner_prob:.6g} (anticorrelated partner)"
    )


def observer_chart(programme: MeasurementProgramme, observer) -> ChartResult:
    """Build the region-by-region state assignment of an observation point.

    Every region of the influence cover gets the initial state updated
    by exactly the measurements that bear on it (region flag 1).  The
    observation point fixes, once for the whole chart, how each
    measurement acts: selectively (conditioned on the registered
    outcome) when the point lies in the measurement's forward cone,
    nonselectively otherwise.  The all-zero region always keeps the
    initial state.  A point informed of a measurement without a recorded
    outcome is an error.  Cones are closed, so on a measurement's own
    vertex the point counts as informed while its own region still
    predates the measurement; the outcome then conditions the later
    regions only.
    """
    if not isinstance(observer, SpacetimeEvent):
        observer = SpacetimeEvent.from_sequence(observer)
    roots = [_measurement_roots(m, programme.sharpness) for m in programme.measurements]
    return _chart(programme, observer, roots)


def _chart(programme: MeasurementProgramme, observer: SpacetimeEvent, roots: list) -> ChartResult:
    """The body of ``observer_chart``, given the roots of the programme's measurements."""
    events = programme.events()
    cover = influence_cover(events)
    region_index = cover.region_index(observer)
    m_flags = cover.regions[region_index].flags
    n_flags = _flags_at("information", events, observer)
    k = len(programme.measurements)
    informed = tuple(i for i in range(k) if n_flags[i] == 1)

    outcomes = programme.outcomes or (None,) * k
    for i in informed:
        if outcomes[i] is None:
            raise ValueError(
                f"observation point is informed of measurement {i} but the programme "
                f"records no outcome for it"
            )

    initial = programme.initial_state
    # What a registered outcome asserts is fixed at the registration
    # itself, so the lines are built once from the initial state and
    # repeated in every region the outcome conditions.
    lines: dict[int, tuple[str, ...]] = {}
    for i in informed:
        m = programme.measurements[i]
        entry = [
            f"subsystem {m.subsystem} along {_axis_text(m.axis)}: registered {outcomes[i]:+d}"
        ]
        if programme.is_singlet:
            entry.append(
                _partner_assertion(m, roots[i], outcomes[i], programme.sharpness, initial)
            )
        lines[i] = tuple(entry)

    # Each measurement selects its registered outcome where the point is
    # informed of it and acts nonselectively otherwise.
    actions = tuple(outcomes[i] if n_flags[i] == 1 else None for i in range(k))
    assignments = []
    for region in cover.regions:
        applied = tuple(i for i in range(k) if region.flags[i] == 1)
        conditioned = tuple(i for i in applied if n_flags[i] == 1)
        forward = _apply(roots, actions, applied, initial)
        backward = _apply(roots, actions, reversed(applied), initial)
        deviation = float(np.max(np.abs(forward - backward)))
        if deviation > ORDER_TOL:
            raise ArithmeticError(
                f"application order changed the assignment by {deviation:.3e}"
            )
        probability = float(np.trace(forward).real)
        if conditioned and probability <= NULL_PROBABILITY:
            raise ValueError("registered outcomes have probability zero on this state")
        assignments.append(
            RegionAssignment(
                flags=region.flags,
                empty=region.empty,
                applied=applied,
                conditioned=conditioned,
                probability=probability,
                state=forward / probability if conditioned else forward,
                assertions=tuple(line for i in conditioned for line in lines[i]),
            )
        )

    own = assignments[region_index]
    return ChartResult(
        observer=observer,
        influence_flags=m_flags,
        information_flags=n_flags,
        region_index=region_index,
        assignments=tuple(assignments),
        applied=own.applied,
        informed=informed,
        probability=own.probability,
        state=own.state,
        assertions=own.assertions,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Internal consistency of a programme's chart prescription.

    Four checks: order independence of the applied operations, the
    outcome mixture reproducing the nonselective assignment, locality of
    the nonselective operations (no change to the other particle's
    reduced state), and agreement of the charts built along an observer
    worldline: observers holding the same information assign the same
    state to every region, the region flags grow monotonically, and a
    selective assignment never reverts to a nonselective one.
    """

    order_deviation: float
    mixture_deviation: float
    signalling_deviation: float
    grouping_deviation: float
    flags_monotone: bool
    regions_visited: tuple

    @property
    def order_independent(self) -> bool:
        return self.order_deviation <= ORDER_TOL

    @property
    def mixture_consistent(self) -> bool:
        return self.mixture_deviation <= MIXTURE_TOL

    @property
    def no_signalling(self) -> bool:
        return self.signalling_deviation <= SIGNALLING_TOL

    @property
    def worldline_consistent(self) -> bool:
        return self.grouping_deviation <= GROUPING_TOL and self.flags_monotone

    @property
    def all_pass(self) -> bool:
        return (
            self.order_independent
            and self.mixture_consistent
            and self.no_signalling
            and self.worldline_consistent
        )


def _default_worldline(events) -> tuple[Worldline, np.ndarray]:
    coords = np.stack([e.coords for e in events])
    center = coords.mean(axis=0)
    span = float(np.max(np.abs(coords - center))) + 1.0
    origin = SpacetimeEvent(center[0] - 3.0 * span, *center[1:])
    return Worldline(origin), np.linspace(0.0, 6.0 * span, 61)


def check_consistency(programme: MeasurementProgramme, worldline: Worldline | None = None,
                      offsets=None) -> ConsistencyReport:
    """Run the four chart-consistency checks over all outcome combinations."""
    initial = programme.initial_state
    k = len(programme.measurements)
    roots = [_measurement_roots(m, programme.sharpness) for m in programme.measurements]

    order_dev = 0.0
    mixture = np.zeros_like(initial)
    for combo in product((1, -1), repeat=k):
        forward = _apply(roots, combo, range(k), initial)
        backward = _apply(roots, combo, reversed(range(k)), initial)
        order_dev = max(order_dev, float(np.max(np.abs(forward - backward))))
        mixture = mixture + forward

    nonselective = _apply(roots, (None,) * k, range(k), initial)
    mixture_dev = float(np.max(np.abs(mixture - nonselective)))

    signalling_dev = 0.0
    for i, m in enumerate(programme.measurements):
        after = lueders_update(initial, roots[i])
        other = 2 if m.subsystem == 1 else 1
        dev = float(
            np.max(np.abs(partial_trace(after, keep=other) - partial_trace(initial, keep=other)))
        )
        signalling_dev = max(signalling_dev, dev)

    if worldline is None:
        worldline, default_offsets = _default_worldline(programme.events())
        if offsets is None:
            offsets = default_offsets
    elif offsets is None:
        offsets = np.linspace(-4.0, 4.0, 41)

    grouping_dev = 0.0
    monotone = True
    visited: list = []
    points = worldline.sample(offsets)
    for combo in product((1, -1), repeat=k):
        prog = dataclasses.replace(programme, outcomes=combo)
        charts: dict = {}
        previous = None
        for point in points:
            result = _chart(prog, point, roots)
            chart_states = np.stack([a.state for a in result.assignments])
            if result.information_flags in charts:
                grouping_dev = max(
                    grouping_dev,
                    float(np.max(np.abs(charts[result.information_flags] - chart_states))),
                )
            else:
                charts[result.information_flags] = chart_states
            key = (result.influence_flags, result.information_flags)
            if key not in visited:
                visited.append(key)
            conditioned = tuple(a.conditioned for a in result.assignments)
            if previous is not None:
                if any(f < g for f, g in zip(result.influence_flags, previous[0])):
                    monotone = False
                if any(f < g for f, g in zip(result.information_flags, previous[1])):
                    monotone = False
                # selective never reverts to nonselective along the line
                if any(not set(now) >= set(before)
                       for now, before in zip(conditioned, previous[2])):
                    monotone = False
            previous = (result.influence_flags, result.information_flags, conditioned)

    return ConsistencyReport(
        order_deviation=order_dev,
        mixture_deviation=mixture_dev,
        signalling_deviation=signalling_dev,
        grouping_deviation=grouping_dev,
        flags_monotone=monotone,
        regions_visited=tuple(visited),
    )


def programme_to_json_dict(programme: MeasurementProgramme) -> dict:
    initial = "singlet" if isinstance(programme.initial, str) else matrix_to_pairs(programme.initial)
    data = {
        "initial": initial,
        "lambda": programme.sharpness,
        "measurements": [
            {
                "event": [m.event.t, m.event.x, m.event.y, m.event.z],
                "axis": [float(c) for c in m.axis],
                "subsystem": m.subsystem,
            }
            for m in programme.measurements
        ],
    }
    if programme.outcomes is not None:
        data["outcomes"] = list(programme.outcomes)
    return data


def _integer(value, name: str) -> int:
    """An integer read from JSON, refusing a bool, a string or a fractional part."""
    number = json_number(value, f"programme {name}", "an integer")
    if not number.is_integer():
        raise ValueError(f"programme {name} must be an integer, got {value!r}")
    return int(number)


def _numbers(value, field: str, kind: str = "a list of numbers") -> list[float]:
    return [json_number(x, field, kind) for x in json_list(value, field, kind)]


def _initial_from_json(initial):
    """``"singlet"``, or a density matrix from its [re, im] pairs."""
    if initial == "singlet":
        return initial
    kind = '"singlet" or [re, im] pairs'
    field = "programme initial"
    pairs = [_numbers(pair, field, kind) for pair in json_list(initial, field, kind)]
    if any(len(pair) != 2 for pair in pairs):
        raise ValueError(f"programme initial must be {kind}, got {initial!r}")
    try:
        return matrix_from_pairs(pairs)
    except ValueError as exc:
        raise ValueError(f"{field}: {exc}") from None


def _measurement_from_json_dict(index: int, entry) -> Measurement:
    missing = [
        key for key in ("event", "axis", "subsystem")
        if not isinstance(entry, dict) or key not in entry
    ]
    if missing:
        raise ValueError(f"programme measurement {index} is missing a field: {', '.join(missing)}")
    where = f"programme measurement {index}"
    json_known_keys(entry, ("event", "axis", "subsystem"), where)
    event = _numbers(entry["event"], f"{where} event")
    try:
        event = SpacetimeEvent.from_sequence(event)
    except ValueError as exc:
        raise ValueError(f"{where} event: {exc}") from None
    axis = np.array(_numbers(entry["axis"], f"{where} axis"))
    subsystem = _integer(entry["subsystem"], f"measurement {index} subsystem")
    # Measurement checks its axis and its subsystem in one constructor and names
    # neither, so the axis is checked here first, where the message can name it.
    try:
        unit_vector(axis)
    except ValueError as exc:
        raise ValueError(f"{where} axis: {exc}") from None
    return Measurement(event=event, axis=axis, subsystem=subsystem)


def programme_from_json_dict(data: dict) -> MeasurementProgramme:
    if not isinstance(data, dict):
        raise ValueError(f"programme JSON must be an object, got {type(data).__name__}")
    json_known_keys(data, ("initial", "lambda", "measurements", "outcomes"), "programme JSON")
    try:
        initial = data["initial"]
        sharpness = json_number(data["lambda"], "programme lambda")
        raw_measurements = data["measurements"]
    except KeyError as exc:
        raise ValueError(f"programme JSON is missing a field: {exc}") from None
    initial = _initial_from_json(initial)
    measurements = tuple(
        _measurement_from_json_dict(index, entry)
        for index, entry in enumerate(json_list(raw_measurements, "programme measurements"))
    )
    outcomes = data.get("outcomes")
    if outcomes is not None:
        kind = "a list of +1, -1 or null"
        outcomes = tuple(
            None if o is None else _integer(o, "outcome")
            for o in json_list(outcomes, "programme outcomes", kind)
        )
    return MeasurementProgramme(
        initial=initial,
        sharpness=sharpness,
        measurements=measurements,
        outcomes=outcomes,
    )
