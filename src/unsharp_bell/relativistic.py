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

Every cone question (cover flags, region lookup, region emptiness) is
answered by ``causal_relation``'s classification, and one flag rule,
``_flags`` over ``_COVER_KINDS``, turns classifications into the flags of
``Cover.flags_at``, of charts and of the battery's batched flags.  A
programme builds its influence cover once, and its events are the cover's;
``_classify`` classifies a point (a chart's observer, a sampled worldline
point) against each event once and reads both kinds of flags off that one
list.  Every state update is ``instruments.lueders_update`` by the roots
``_programme_roots`` builds.  A chart applies each region's measurements
once, in programme order: they address distinct particles, so their
updates commute.  ``check_consistency`` measures that order independence
(``order_deviation``) on each outcome record, built once, and charts the
worldline only for the records that can occur.

Conventions: units with c = 1, coordinates (t, x, y, z), metric
signature (+, -, -, -).  Cones are closed (boundary and vertex
included).
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from enum import Enum
from itertools import product

import numpy as np

from .bell import singlet_state
from .instruments import NULL_PROBABILITY, _measurement_roots, lueders_update
from .operators import (
    _echo,
    check_density,
    json_known_keys,
    json_list,
    json_number,
    matrix_from_pairs,
    matrix_to_pairs,
    partial_trace,
)
from .spin_povm import check_sharpness, unit_vector

__all__ = [
    "SpacetimeEvent",
    "CausalRelation",
    "interval",
    "causal_relation",
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


@dataclass(frozen=True)
class CoverRegion:
    flags: tuple[int, ...]
    empty: bool


# Per cover kind: the flag of a point inside the closed cone each event's
# flag tests (0 inside a backward cone, 1 inside a forward cone), the
# relations ``causal_relation(event, point)`` that put a point inside that
# cone, and the region order by event count (influence lists regions
# past-first, information the one-sided regions in event order).
_COVER_KINDS = {
    "influence": (0, _PAST_RELATIONS, {1: ((0,), (1,)), 2: ((0, 0), (0, 1), (1, 0), (1, 1))}),
    "information": (1, _FUTURE_RELATIONS, {1: ((0,), (1,)), 2: ((0, 0), (1, 0), (0, 1), (1, 1))}),
}


def _flags(kind: str, relations) -> tuple[int, ...]:
    """A point's flag for each event under the cover kind's rule, given
    ``causal_relation(event, point)`` for each event."""
    inside, cone, _ = _COVER_KINDS[kind]
    return tuple(inside if relation in cone else 1 - inside for relation in relations)


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
        return _flags(self.kind, [causal_relation(e, point) for e in self.events])

    def _index_of(self, flags: tuple[int, ...]) -> int:
        """The index of the region with these flags; every flag tuple has one."""
        _, _, orders = _COVER_KINDS[self.kind]
        return orders[len(self.events)].index(flags)


def _cover(kind: str, events) -> Cover:
    """Partition by the kind's cones, with exact emptiness for each region.

    A one-sided region, inside event i's cone and outside event j's, is
    empty exactly when the first cone is contained in the second, which
    for equal-shape cones reduces to e_i lying in e_j's cone.
    """
    evts = tuple(e if isinstance(e, SpacetimeEvent) else SpacetimeEvent.from_sequence(e)
                 for e in events)
    if len(evts) not in (1, 2):
        raise ValueError(f"covers are implemented for 1 or 2 events, got {len(evts)}")
    inside, cone, orders = _COVER_KINDS[kind]
    regions = []
    for flags in orders[len(evts)]:
        empty = False
        if len(evts) == 2 and flags[0] != flags[1]:
            i = flags.index(inside)
            empty = causal_relation(evts[1 - i], evts[i]) in cone
        regions.append(CoverRegion(flags, empty))
    return Cover(kind, evts, tuple(regions))


def influence_cover(events) -> Cover:
    """Partition by backward cones, with exact emptiness for each region."""
    return _cover("influence", events)


def information_cover(events) -> Cover:
    """Partition by forward cones, with exact emptiness for each region."""
    return _cover("information", events)


def _subluminal(velocity, name: str) -> tuple[np.ndarray, float]:
    """A velocity as a float 3-vector, and its squared speed; a refusal names ``name``."""
    v = np.asarray(velocity, dtype=float)
    if v.shape != (3,):
        raise ValueError(f"{name} must be a 3-vector, got shape {v.shape}")
    if not np.isfinite(v).all():
        raise ValueError(f"{name} must be finite, got {v.tolist()}")
    speed = math.hypot(*v.tolist())  # without v @ v's overflow
    speed2 = float(v @ v) if speed < 1.0 else math.inf
    if speed2 >= 1.0:
        raise ValueError(f"{name} has speed {speed!r}, not below 1")
    return v, speed2


def lorentz_boost(velocity) -> np.ndarray:
    """Boost matrix acting on (t, x, y, z) coordinate columns."""
    v, speed2 = _subluminal(velocity, "velocity")
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
        v, _ = _subluminal(self.velocity, "worldline velocity")
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
        if isinstance(self.subsystem, (bool, np.bool_)) or self.subsystem not in (1, 2):
            raise ValueError(f"subsystem must be 1 or 2, got {_echo(self.subsystem)}")
        object.__setattr__(self, "subsystem", int(self.subsystem))


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
                if isinstance(o, (bool, np.bool_)) or o not in (1, -1, None):
                    raise ValueError(f"outcomes must be +1, -1 or None, got {_echo(o)}")
            object.__setattr__(self, "outcomes", tuple(o if o is None else int(o) for o in outs))
        if not (isinstance(self.initial, str) and self.initial == "singlet"):
            object.__setattr__(self, "initial", check_density(self.initial, name="initial state"))
            if np.asarray(self.initial).shape != (4, 4):
                raise ValueError("initial state must be a two-particle (4x4) density matrix")

    @functools.cached_property
    def initial_state(self) -> np.ndarray:
        """The initial density matrix, resolved once and read-only: a chart's
        all-zero region returns it as is."""
        state = singlet_state() if isinstance(self.initial, str) else np.array(self.initial)
        state.flags.writeable = False
        return state

    @functools.cached_property
    def cover(self) -> Cover:
        """The influence cover of the measurement events, built once: the programme's events."""
        return influence_cover([m.event for m in self.measurements])

    @functools.cached_property
    def is_singlet(self) -> bool:
        return isinstance(self.initial, str) or bool(
            np.allclose(self.initial_state, singlet_state(), atol=1e-12)
        )


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
    order; ``region_index`` points at the observer's own region, whose
    fields the attributes below return.  ``informed`` lists all
    indices whose outcome the observer holds, whether or not their
    measurement acts in the own region.
    """

    observer: SpacetimeEvent
    influence_flags: tuple[int, ...]
    information_flags: tuple[int, ...]
    region_index: int
    assignments: tuple[RegionAssignment, ...]
    informed: tuple[int, ...]  # indices with a registered outcome at hand

    # The own region's fields, read off its assignment when first asked for.  Unlike a
    # property's, a chart's value can be set in place (the benchmark's gate self-test does).
    applied = functools.cached_property(lambda c: c.assignments[c.region_index].applied)
    probability = functools.cached_property(lambda c: c.assignments[c.region_index].probability)
    state = functools.cached_property(lambda c: c.assignments[c.region_index].state)
    assertions = functools.cached_property(lambda c: c.assignments[c.region_index].assertions)

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
    return _chart(programme, observer, _programme_roots(programme), programme.outcomes)


def _programme_roots(programme: MeasurementProgramme) -> list:
    """The Lueders roots of each of the programme's measurements, in programme order."""
    return [_measurement_roots(m.axis, programme.sharpness, m.subsystem)
            for m in programme.measurements]


def _classify(programme: MeasurementProgramme, point: SpacetimeEvent) -> tuple[tuple, tuple]:
    """The point's influence and information flags, classifying it against each event once."""
    relations = [causal_relation(e, point) for e in programme.cover.events]
    return _flags("influence", relations), _flags("information", relations)


def _chart(programme: MeasurementProgramme, observer: SpacetimeEvent, roots: list,
           outcomes: tuple | None) -> ChartResult:
    """The body of ``observer_chart``, given the roots of the programme's measurements
    and the outcomes to chart in place of the programme's own."""
    m_flags, n_flags = _classify(programme, observer)
    cover = programme.cover
    region_index = cover._index_of(m_flags)
    k = len(programme.measurements)
    informed = tuple(i for i in range(k) if n_flags[i] == 1)

    outcomes = outcomes or (None,) * k
    for i in informed:
        if outcomes[i] is None:
            raise ValueError(
                f"observation point is informed of measurement {i} but the programme "
                f"records no outcome for it"
            )

    initial = programme.initial_state
    # What a registered outcome asserts is fixed at the registration, so the
    # lines are built once and repeated in every region the outcome conditions.
    lines: dict[int, tuple[str, ...]] = {}
    for i in informed:
        m = programme.measurements[i]
        entry = [
            f"subsystem {m.subsystem} along {_axis_text(m.axis)}: registered {outcomes[i]:+d}"
        ]
        if programme.is_singlet:  # the paper's (1 + lambda^2)/2; epr-calculus checks it
            entry.append(
                f"subsystem {3 - m.subsystem} along {_axis_text(m.axis)}: value {-outcomes[i]:+d} "
                f"anticipated with probability {0.5 * (1.0 + programme.sharpness**2):.6g} "
                f"(anticorrelated partner)"
            )
        lines[i] = tuple(entry)

    # Each measurement selects its registered outcome where the point is
    # informed of it and acts nonselectively otherwise.
    actions = tuple(outcomes[i] if n_flags[i] == 1 else None for i in range(k))
    assignments = []
    for region in cover.regions:
        applied = tuple(i for i in range(k) if region.flags[i] == 1)
        conditioned = tuple(i for i in applied if n_flags[i] == 1)
        state = _apply(roots, actions, applied, initial)
        probability = float(np.trace(state).real)
        if conditioned and probability <= NULL_PROBABILITY:
            raise ValueError("registered outcomes have probability zero on this state")
        assignments.append(
            RegionAssignment(
                flags=region.flags,
                empty=region.empty,
                applied=applied,
                conditioned=conditioned,
                probability=probability,
                state=state / probability if conditioned else state,
                assertions=tuple(line for i in conditioned for line in lines[i]),
            )
        )

    return ChartResult(
        observer=observer,
        influence_flags=m_flags,
        information_flags=n_flags,
        region_index=region_index,
        assignments=tuple(assignments),
        informed=informed,
    )


@dataclass(frozen=True)
class ConsistencyReport:
    """Internal consistency of a programme's chart prescription.

    Four checks: order independence of the applied operations, the
    outcome mixture reproducing the nonselective assignment, locality of
    the nonselective operations (no change to the other particle's
    reduced state), and agreement of the charts built along an observer
    worldline: observers holding the same information assign the same
    state to every region, and the region flags grow monotonically, so a
    selective assignment never reverts to a nonselective one.
    """

    order_deviation: float
    mixture_deviation: float
    signalling_deviation: float
    grouping_deviation: float
    flags_monotone: bool
    regions_visited: tuple

    @property
    def all_pass(self) -> bool:
        return (self.order_deviation <= ORDER_TOL and self.mixture_deviation <= MIXTURE_TOL
                and self.signalling_deviation <= SIGNALLING_TOL
                and self.grouping_deviation <= GROUPING_TOL and self.flags_monotone)


def _default_worldline(events) -> tuple[Worldline, np.ndarray]:
    """A worldline at rest at the events' centre, sampled from 3 spans before it to 3 after.

    A span is the events' largest coordinate deviation from the centre,
    plus 1.  Events so far apart that a sample leaves the float range are
    refused.
    """
    coords = np.stack([e.coords for e in events])
    with np.errstate(over="ignore", invalid="ignore"):  # an overflow is refused just below
        center = coords.mean(axis=0)
        if not np.isfinite(center).all():  # a sum beyond the float range: scale first
            center = (coords / len(coords)).sum(axis=0)
        span = float(np.max(np.abs(coords - center))) + 1.0
        start, length = center[0] - 3.0 * span, 6.0 * span
        if not np.isfinite([*center, start, length, start + length]).all():
            raise ValueError(
                "measurement events are too far apart for the default worldline: "
                "its sample times, 3 spans before and after their centre, leave the float range"
            )
    origin = SpacetimeEvent(start, *center[1:])
    return Worldline(origin), np.linspace(0.0, length, 61)


def check_consistency(programme: MeasurementProgramme, worldline: Worldline | None = None,
                      offsets=None) -> ConsistencyReport:
    """Run the four chart-consistency checks over the outcome records that can occur."""
    initial = programme.initial_state
    k = len(programme.measurements)
    roots = _programme_roots(programme)
    # Each outcome record, subnormalized, its trace the record's probability.
    records = {combo: _apply(roots, combo, range(k), initial)
               for combo in product((1, -1), repeat=k)}

    order_dev = max(
        float(np.max(np.abs(state - _apply(roots, combo, reversed(range(k)), initial))))
        for combo, state in records.items()
    )
    mixture = sum(records.values(), np.zeros_like(initial))
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
        worldline, default_offsets = _default_worldline(programme.cover.events)
        if offsets is None:
            offsets = default_offsets
    elif offsets is None:
        offsets = np.linspace(-4.0, 4.0, 41)

    points = worldline.sample(offsets)
    flags = [_classify(programme, point) for point in points]
    # A conditioned set (applied and informed) shrinks only where an information flag falls.
    joined = [m + n for m, n in flags]
    monotone = all(a <= b for before, now in zip(joined, joined[1:]) for a, b in zip(before, now))

    # Equal information, equal charts.  A record that cannot occur is not charted; a region
    # conditions on a sub-record, never less likely than the full record, so each can occur.
    grouping_dev = 0.0
    for combo, state in records.items():
        if float(np.trace(state).real) <= NULL_PROBABILITY:
            continue
        charts: dict = {}
        for point, (_, n_flags) in zip(points, flags):
            states = np.stack([a.state for a in _chart(programme, point, roots, combo).assignments])
            first = charts.setdefault(n_flags, states)
            grouping_dev = max(grouping_dev, float(np.max(np.abs(first - states))))

    return ConsistencyReport(
        order_deviation=order_dev,
        mixture_deviation=mixture_dev,
        signalling_deviation=signalling_dev,
        grouping_deviation=grouping_dev,
        flags_monotone=monotone,
        regions_visited=tuple(dict.fromkeys(flags)),
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
        raise ValueError(f"programme {name} must be an integer, got {_echo(value)}")
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
        raise ValueError(f"programme initial must be {kind}, got {_echo(initial)}")
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
