"""The benchmark's four workloads: seeded inputs, requests and correctness gates.

Each workload turns a seed into a stream of requests, runs one request by
calling the package's public interface (``execute``, the timed part) and
checks the answer against a closed form or an independent route
(``check``, untimed; it returns an error text or ``None``).  ``traits``
names the behaviour-deciding properties of a request, whose shares the
harness reports.

The input mixes are assumed, not observed traffic.  Wherever the workload
definition lists alternatives (commands, table kinds, separation classes,
sharpness regimes) each gets an equal share; the remaining choices (the
near-threshold band, count-table sizes, observers per programme) are the
constants below, and each workload's ``assumptions`` names them.  Apart from the battery, which reruns uncached, streams
never repeat an input, so a result cache in the package helps only where
inputs share work (the observers of one chart programme).
"""

from __future__ import annotations

import contextlib
import io
import json
import math
from itertools import product

import numpy as np

# Timed calls go through module attributes, so that a tracer that rebinds
# them sees every call; constructors for inputs are imported by name.
from unsharp_bell import cli, fine, relativistic, verify
from unsharp_bell.bell import BellConfiguration, coplanar_configuration, singlet_state
from unsharp_bell.relativistic import Measurement, MeasurementProgramme, SpacetimeEvent, Worldline

# The memoized battery itself, captured before any tracer wraps it.
MEMOIZED_BATTERY = verify.run_all
PAIR_LIMIT = 1.0 / math.sqrt(2.0)
CHSH_LIMIT = 2.0 ** -0.25
# Inputs whose closed-form decision lies within this band of its boundary
# may go either way in floating point; the gates accept both answers there.
BOUNDARY_BAND = 1e-9
TOL = 1e-9
I2 = np.eye(2)
PAULI = (
    np.array([[0, 1], [1, 0]], dtype=complex),
    np.array([[0, -1j], [1j, 0]], dtype=complex),
    np.array([[1, 0], [0, -1]], dtype=complex),
)


def _unit(rng) -> np.ndarray:
    while True:
        v = rng.normal(size=3)
        norm = float(np.linalg.norm(v))
        if norm > 1e-3:
            return v / norm


def _flag(name: str, v) -> str:
    """An axis flag; the ``=`` form lets a leading minus sign through argparse."""
    return f"--{name}=" + ",".join(repr(float(c)) for c in v)


def _effect(axis, sharpness) -> np.ndarray:
    return (I2 + sharpness * sum(c * p for c, p in zip(axis, PAULI))) / 2.0


def _matrix(pairs) -> np.ndarray:
    entries = np.array([complex(re, im) for re, im in pairs])
    dim = int(round(math.sqrt(len(entries))))
    return entries.reshape(dim, dim)


def _close(a, b, tol=TOL) -> bool:
    return bool(np.max(np.abs(np.asarray(a) - np.asarray(b))) <= tol)


def _blocks(rng, quotas: dict):
    """Endless sequence of labels: each block holds the quotas, shuffled."""
    block = [label for label, n in quotas.items() for _ in range(n)]
    while True:
        for index in rng.permutation(len(block)):
            yield block[index]


class Workload:
    """One seeded request stream with its timed call and its gate."""

    name = ""
    why = ""
    properties = ""  # the behaviour-deciding input properties and how they are drawn
    assumptions = ""  # the parts of the mix that no measurement or source fixes
    trace_requests = 0  # requests in one pass of the traced run
    minimum = 1  # fewest requests an untraced run serves, however short
    # Requests timed back to back before their answers are checked: about
    # half a second to a second of them, so that the few requests slowed by
    # the pause between batches stay well inside the slowest 1 %.
    batch = 256

    def __init__(self, seed: int):
        self.seed = seed

    def stream(self, purpose: int = 0):
        """Endless requests; ``purpose`` 1 gives the separate warm-up stream."""
        raise NotImplementedError

    def requests(self, n: int, purpose: int = 0) -> list:
        stream = self.stream(purpose)
        return [next(stream) for _ in range(n)]

    def warmup(self) -> None:
        """Untimed requests from a separate stream, run before timing starts."""
        for request in self.requests(20, purpose=1):
            self.execute(request)

    def execute(self, request):
        raise NotImplementedError

    def check(self, request, answer) -> str | None:
        raise NotImplementedError

    def traits(self, request, answer) -> tuple[str, ...]:
        return ()

    def check_seconds(self, answer) -> dict[str, float]:
        """Per-check times, for a workload whose answer is a check battery."""
        return {}


# ----------------------------------------------------------------------
class VerifyBattery(Workload):
    name = "verify-battery"
    why = (
        "time to a verified reproduction: the nine-check battery, uncached; reaches every "
        "layer but cli, and is the only workload running sampling and the batched checks"
    )
    properties = "nine fixed checks; the seed draws their random inputs"
    assumptions = "none: the battery's inputs are the package's own"
    trace_requests = 1
    minimum = 3
    batch = 1

    def stream(self, purpose: int = 0):
        while True:
            yield self.seed

    def warmup(self) -> None:
        """Cheap checks that load the code paths the battery runs."""
        verify.check_gap_region()
        verify.check_epr_calculus()
        verify.check_singlet_formula(np.random.default_rng([self.seed, 1]))

    def execute(self, request):
        MEMOIZED_BATTERY.cache_clear()
        misses = MEMOIZED_BATTERY.cache_info().misses
        results = verify.run_all(request)
        return results, MEMOIZED_BATTERY.cache_info().misses - misses

    def check(self, request, answer):
        results, misses = answer
        if misses != 1:
            return "battery answered from the memo instead of running"
        names = tuple(r.name for r in results)
        if names != verify.CHECK_NAMES:
            return f"battery ran {names}"
        failed = [r.name for r in results if not r.passed]
        return f"checks failed: {failed}" if failed else None

    def check_seconds(self, answer):
        return {r.name: r.seconds for r in answer[0]}


# ----------------------------------------------------------------------
# One share per CLI command; joint's share is split between pairs and quadruples.
POINT_QUOTAS = {
    "coexist": 2,
    "joint-pair": 1,
    "joint-quad": 1,
    "chsh": 2,
    "bell-op": 2,
    "lueders": 2,
    "epr": 2,
}
# Sharpness regimes, one share each: uniform on [0, 1), or within NEAR_BAND
# of one of the two thresholds.
SHARPNESS_CENTRES = (None, PAIR_LIMIT, CHSH_LIMIT)
NEAR_BAND = 2e-3


def _sharpness(rng) -> tuple[float, bool]:
    centre = SHARPNESS_CENTRES[int(rng.integers(len(SHARPNESS_CENTRES)))]
    if centre is None:
        return float(rng.random()), False
    return float(centre + rng.uniform(-NEAR_BAND, NEAR_BAND)), True


def _coplanar_axes(angle: float):
    def at(alpha):
        return np.array([math.sin(alpha), 0.0, math.cos(alpha)])

    return at(0.0), at(-2.0 * angle), at(angle), at(-angle)


def _margin(s, n1, n2) -> float:
    return 2.0 - s * (float(np.linalg.norm(n1 + n2)) + float(np.linalg.norm(n1 - n2)))


def _decided(value: float, threshold: float = 0.0):
    """True/False when clear of the boundary band, None inside it."""
    if abs(value - threshold) <= BOUNDARY_BAND:
        return None
    return value > threshold


class PointQueries(Workload):
    name = "point-queries"
    why = (
        "small CLI requests users send one at a time: coexist, joint, chsh, bell-op, "
        "lueders, epr; sharpness partly near 1/sqrt(2) and 2^(-1/4)"
    )
    properties = (
        f"equal shares per command (joint split between pairs and quadruples); "
        f"sharpness is uniform on [0, 1) or within {NEAR_BAND:g} of 1/sqrt(2) or of "
        f"2^(-1/4), one share each, so near-threshold draws make two shares in three; "
        f"expected-rejection: the closed "
        f"form predicts exit 1 (a non-coexistent joint, or a Lueders state on the far side "
        f"of the effect axis); axes and Lueders states are uniform on the sphere"
    )
    assumptions = f"equal shares per command and per sharpness regime; the {NEAR_BAND:g} band"
    trace_requests = 600

    def stream(self, purpose: int = 0):
        rng = np.random.default_rng([self.seed, 2, purpose])
        for kind in _blocks(rng, POINT_QUOTAS):
            yield self._request(rng, kind)

    def _request(self, rng, kind: str) -> dict:
        s, near = _sharpness(rng)
        req = {"kind": kind, "s": s, "near": near}
        if kind in ("coexist", "joint-pair"):
            req["axes"] = [_unit(rng), _unit(rng)]
            cmd = "coexist" if kind == "coexist" else "joint"
            argv = [cmd, "--lambda", repr(s), _flag("n1", req["axes"][0]),
                    _flag("n2", req["axes"][1])]
        elif kind == "joint-quad":
            req["axes"] = [_unit(rng) for _ in range(4)]
            argv = ["joint", "--lambda", repr(s)]
            for i, axis in enumerate(req["axes"], 1):
                argv.append(_flag(f"n{i}", axis))
        elif kind in ("chsh", "bell-op"):
            argv = [kind, "--lambda", repr(s)]
            if rng.random() < 0.25:
                angle = float(rng.uniform(0.0, math.pi))
                req["axes"] = list(_coplanar_axes(angle))
                argv += ["--angle", repr(angle)]
            else:
                req["axes"] = [_unit(rng) for _ in range(4)]
                for i, axis in enumerate(req["axes"], 1):
                    argv.append(_flag(f"n{i}", axis))
        elif kind == "lueders":
            # A state on the far side of the effect axis must be refused (exit 1).
            axis, state = _unit(rng), _unit(rng)
            req["axes"] = [axis, state]
            argv = ["lueders", "--lambda", repr(s), _flag("axis", axis),
                    _flag("state-axis", state)]
        else:  # epr
            req["axes"] = [_unit(rng)]
            argv = ["epr", "--lambda", repr(s), _flag("axis", req["axes"][0])]
        req["argv"] = argv
        return req

    def execute(self, request):
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            try:
                code = cli.main(request["argv"])
            except SystemExit as exc:  # argparse refusing the flags
                code = exc.code
        return code, out.getvalue(), err.getvalue()

    def expected_exit(self, request):
        """Closed-form exit code (0 or 1), or None inside the boundary band."""
        kind, s, axes = request["kind"], request["s"], request["axes"]
        if kind == "joint-pair":
            ok = _decided(_margin(s, *axes))
        elif kind == "joint-quad":
            pairs = (_decided(_margin(s, *axes[:2])), _decided(_margin(s, *axes[2:])))
            ok = False if False in pairs else (None if None in pairs else True)
        elif kind == "lueders":
            ok = _decided(s * float(axes[0] @ axes[1]))
        else:
            ok = True
        return None if ok is None else (0 if ok else 1)

    def traits(self, request, answer):
        traits = ["near-threshold"] if request["near"] else []
        if self.expected_exit(request) == 1:
            traits.append("expected-rejection")
        return tuple(traits)

    def check(self, request, answer):
        code, out, err = answer
        expected = self.expected_exit(request)
        if code not in (0, 1) or (expected is not None and code != expected):
            return f"{request['argv'][0]} exit {code}, expected {expected}"
        if code == 1:
            return None if err.startswith("error:") and not out else "rejection without message"
        data = json.loads(out)
        return getattr(self, "_check_" + request["kind"].replace("-", "_"))(request, data)

    def _check_coexist(self, req, data):
        margin = _margin(req["s"], *req["axes"])
        if abs(data["margin"] - margin) > TOL:
            return f"margin {data['margin']} vs closed form {margin}"
        if _decided(margin) is not None and data["coexistent"] != (margin > 0):
            return "coexistence decision disagrees with the margin sign"
        return None

    def _check_joint_pair(self, req, data):
        s, (n1, n2) = req["s"], req["axes"]
        effects = {tuple(int(x) for x in k.split(",")): _matrix(v)
                   for k, v in data["effects"].items()}
        if data["min_eigenvalue"] < -1e-12:
            return f"joint effect eigenvalue {data['min_eigenvalue']}"
        if not _close(sum(effects.values()), I2):
            return "joint effects do not sum to the identity"
        for sign in (1, -1):
            first = effects[(sign, 1)] + effects[(sign, -1)]
            second = effects[(1, sign)] + effects[(-1, sign)]
            if not (_close(first, _effect(sign * n1, s)) and _close(second, _effect(sign * n2, s))):
                return "joint marginals differ from the unsharp effects"
        return None

    def _check_joint_quad(self, req, data):
        s, axes = req["s"], req["axes"]
        effects = {tuple(int(x) for x in k.split(",")): _matrix(v)
                   for k, v in data["effects"].items()}
        if len(effects) != 16 or data["min_eigenvalue"] < -1e-12:
            return "quadruple joint observable malformed"
        if not _close(sum(effects.values()), np.eye(4)):
            return "quadruple effects do not sum to the identity"
        for s1, s3 in product((1, -1), repeat=2):
            marginal = sum(effects[(s1, s2, s3, s4)] for s2, s4 in product((1, -1), repeat=2))
            if not _close(marginal, np.kron(_effect(s1 * axes[0], s), _effect(s3 * axes[2], s))):
                return "quadruple marginal differs from the product effect"
        return None

    @staticmethod
    def _bell_norm(axes) -> float:
        c1 = float(np.linalg.norm(np.cross(axes[0], axes[1])))
        c2 = float(np.linalg.norm(np.cross(axes[2], axes[3])))
        return 2.0 * math.sqrt(1.0 + c1 * c2)

    def _operator_holds_ok(self, req, holds) -> bool:
        decided = _decided(2.0 - req["s"] ** 2 * self._bell_norm(req["axes"]))
        return decided is None or holds == decided

    def _check_chsh(self, req, data):
        s, (n1, n2, n3, n4) = req["s"], req["axes"]
        f = abs(n1 @ n3 + n1 @ n4 - n2 @ n3 + n2 @ n4)
        bound = math.inf if s == 0.0 else 2.0 / s**2
        if abs(data["f"] - f) > TOL or abs(data["epsilon"] - 0.5 * (1 - s**2)) > TOL:
            return f"f {data['f']} vs closed form {f}"
        if not (data["bound"] == bound or abs(data["bound"] - bound) <= TOL * bound):
            return f"bound {data['bound']} vs 2/lambda^2 = {bound}"
        violated = _decided(f, bound)
        if violated is not None and data["violated"] != violated:
            return "violation flag disagrees with f > F"
        if not self._operator_holds_ok(req, data["operator_chsh_holds"]):
            return "operator CHSH decision disagrees with lambda^2 |B| <= 2"
        signed = {1: n1, -1: -n1, 2: n2, -2: -n2, 3: n3, -3: -n3, 4: n4, -4: -n4}
        for key, value in data["pair_probs"].items():
            i, j = (int(x) for x in key.split(","))
            if abs(value - 0.25 * (1.0 - s**2 * float(signed[i] @ signed[j]))) > TOL:
                return f"singlet pair probability {key} off its closed form"
        return None

    def _check_bell_op(self, req, data):
        s, norm = req["s"], self._bell_norm(req["axes"])
        if abs(data["norm_closed_form"] - norm) > TOL or abs(data["norm_eigensolver"] - norm) > TOL:
            return f"Bell norm {data['norm_eigensolver']} vs closed form {norm}"
        spread = s**2 * norm / 4.0
        if abs(data["smeared_min_eig"] - (0.5 - spread)) > TOL or abs(
            data["smeared_max_eig"] - (0.5 + spread)
        ) > TOL:
            return "smeared spectrum off 1/2 -+ lambda^2 |B| / 4"
        if not self._operator_holds_ok(req, data["operator_chsh_holds"]):
            return "operator CHSH decision disagrees with lambda^2 |B| <= 2"
        return None

    def _check_lueders(self, req, data):
        s, (axis, state) = req["s"], req["axes"]
        cos = float(axis @ state)
        prob = 0.5 * (1.0 + s * cos)
        eps = max(0.0, 1.0 - prob)
        distance = math.sqrt(max(0.0, 1.0 - cos * cos)) * (1.0 - math.sqrt(1.0 - s * s))
        bound = 2.0 * (eps + math.sqrt(eps))
        if abs(data["probability"] - prob) > TOL or abs(data["bound"] - bound) > 1e-7:
            return f"probability {data['probability']} vs closed form {prob}"
        if abs(data["trace_distance"] - distance) > 1e-7:
            return f"trace distance {data['trace_distance']} vs closed form {distance}"
        return None if data["holds"] else "disturbance bound reported broken"

    def _check_epr(self, req, data):
        after = 0.5 * (1.0 + req["s"] ** 2)
        for outcome in ("1", "-1"):
            if abs(data["probabilities"][outcome] - 0.5) > TOL:
                return "singlet outcome probability differs from 1/2"
            if abs(data["outcome_prob_after"][outcome] - after) > TOL:
                return f"after-probability {data['outcome_prob_after'][outcome]} vs {after}"
        if not (_close(_matrix(data["reduced_pre"]), I2 / 2)
                and _close(_matrix(data["reduced_post_mixture"]), I2 / 2)):
            return "partner reduced state differs from I/2"
        return None


# ----------------------------------------------------------------------
TABLE_QUOTAS = dict.fromkeys(("jpd", "singlet", "mixed-state", "near-optimal", "count"), 1)
COUNT_RUNS = (8, 64)  # a count table's N is even and in this range


def _counts_table(rng) -> fine.ProbabilityTable:
    """A table of frequencies k/N, as an experiment with N runs reports them.

    Half are exact marginals of a multinomial sample (always feasible);
    half round a near-optimal singlet table to k/N (mostly infeasible).
    """
    runs = 2 * int(rng.integers(COUNT_RUNS[0] // 2, COUNT_RUNS[1] // 2 + 1))
    if rng.random() < 0.5:
        counts = rng.multinomial(runs, rng.dirichlet(np.ones(16)))
        return fine.marginals(fine.Jpd4((counts / runs).reshape(2, 2, 2, 2)))
    config = coplanar_configuration(
        float(1.0 - 0.1 * rng.random()), float(math.pi / 4 + 0.1 * rng.normal())
    )
    s = config.sharpness
    singles = {k: 0.5 for k in (1, -1, 2, -2, 3, -3, 4, -4)}
    pairs = {}
    for i, j in product((1, 2), (3, 4)):
        exact = 0.25 * (1.0 - s**2 * float(config.axes[i - 1] @ config.axes[j - 1]))
        block = round(exact * runs) / runs
        pairs[(i, j)] = pairs[(-i, -j)] = block
        pairs[(i, -j)] = pairs[(-i, j)] = 0.5 - block
    return fine.ProbabilityTable(singles, pairs).validate()


def _random_density(rng, dim: int) -> np.ndarray:
    g = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real


class TableDecisions(Workload):
    name = "table-decisions"
    why = (
        "probability tables decided three ways (CHSH, reconstruction, exact oracle); "
        "mixes feasible, infeasible and small-denominator count tables"
    )
    properties = (
        f"equal shares of jpd, singlet, mixed-state, near-optimal and count tables "
        f"(how the table was made; count = entries k/N, N even in {COUNT_RUNS[0]}..{COUNT_RUNS[1]}, "
        f"half multinomial samples, half rounded near-optimal singlet tables); "
        f"feasible: a joint distribution exists"
    )
    assumptions = (
        f"equal shares per table kind; count tables' N range {COUNT_RUNS[0]}..{COUNT_RUNS[1]} "
        f"and their even feasible/infeasible split"
    )
    trace_requests = 1500
    batch = 384

    def stream(self, purpose: int = 0):
        rng = np.random.default_rng([self.seed, 3, purpose])
        for kind in _blocks(rng, TABLE_QUOTAS):
            yield self._table(rng, kind)

    def _table(self, rng, kind: str) -> dict:
        if kind == "jpd":
            weights = rng.random(16) ** rng.choice([1.0, 3.0])
            values = (weights / weights.sum()).reshape(2, 2, 2, 2)
            return {"kind": kind, "table": fine.marginals(fine.Jpd4(values))}
        if kind == "count":
            return {"kind": kind, "table": _counts_table(rng)}
        if kind == "near-optimal":
            config = coplanar_configuration(
                float(1.0 - 0.1 * rng.random()), float(math.pi / 4 + 0.1 * rng.normal())
            )
            state = singlet_state()
        else:
            config = BellConfiguration(float(rng.random()), *(_unit(rng) for _ in range(4)))
            state = singlet_state() if kind == "singlet" else _random_density(rng, 4)
        return {"kind": kind, "table": fine.table_from_quantum(state, config)}

    def execute(self, request):
        table = request["table"]
        return fine.chsh_check(table), fine.reconstruct_jpd(table), fine.feasibility_oracle(table)

    def check(self, request, answer):
        check, rec, oracle = answer
        table = request["table"]
        if not check.all_hold == rec.feasible == oracle.feasible:
            return (f"routes disagree: chsh {check.all_hold}, reconstruction "
                    f"{rec.feasible}, oracle {oracle.feasible}")
        if not rec.feasible:
            return None if rec.witness is not None and oracle.witness is not None else (
                "infeasible table without a witness"
            )
        for result in (rec, oracle):
            back = fine.marginals(result.jpd)
            dev = max(
                max(abs(back.single(k) - table.single(k)) for k in fine.SINGLE_KEYS),
                max(abs(back.pair(i, j) - table.pair(i, j)) for i, j in fine.PAIR_KEYS),
            )
            if dev > 1e-8:
                return f"{result.method} marginal round trip off by {dev:.3e}"
        return None

    def traits(self, request, answer):
        traits = [request["kind"]]
        if answer[2].feasible:
            traits.append("feasible")
        return tuple(traits)


# ----------------------------------------------------------------------
SEPARATIONS = ("spacelike", "timelike", "lightlike", "coincident")
# Integer (a, b, c, d) with a^2 + b^2 + c^2 = d^2: exactly lightlike steps.
LIGHT_STEPS = ((1, 2, 2, 3), (2, 3, 6, 7), (1, 4, 8, 9), (4, 4, 7, 9), (0, 3, 4, 5), (2, 6, 9, 11))
FEW_OBSERVERS, MANY_OBSERVERS = 3, 40


def _dyadic(rng, size) -> np.ndarray:
    return rng.integers(-8, 9, size=size) / 4.0


def _second_event(rng, first: np.ndarray, separation: str) -> np.ndarray:
    if separation == "coincident":
        return first.copy()
    if separation == "lightlike":
        *space, time = LIGHT_STEPS[int(rng.integers(len(LIGHT_STEPS)))]
        space = rng.permutation(space) * rng.choice((-1, 1), size=3)
        step = np.array([time * rng.choice((-1, 1)), *space]) * (2.0 ** int(rng.integers(-2, 1)))
        return first + step
    while True:
        dx = _dyadic(rng, 3)
        if float(np.linalg.norm(dx)) > 0.5:
            break
    reach = float(np.linalg.norm(dx))
    if separation == "timelike":
        dt = (reach + 0.5 + float(rng.random())) * rng.choice((-1, 1))
    else:
        dt = float(rng.uniform(-1.0, 1.0)) * (reach - 0.25)
    return first + np.array([dt, *dx])


class ChartSweeps(Workload):
    name = "chart-sweeps"
    why = (
        "observer charts of measurement programmes at points along a worldline; "
        "varies separation class, initial state, measurement count and observers per programme"
    )
    properties = (
        f"equal shares of programmes per separation class (single = one measurement), "
        f"initial state (singlet or random 4x4) and observer count: half the programmes "
        f"have {FEW_OBSERVERS} observers, half {MANY_OBSERVERS}, so most requests come from "
        f"many-observer programmes; informed: the observer holds at least one registered outcome"
    )
    assumptions = (
        f"equal programme shares; {FEW_OBSERVERS} and {MANY_OBSERVERS} observers per programme"
    )
    trace_requests = 3000
    batch = 1024

    def stream(self, purpose: int = 0):
        rng = np.random.default_rng([self.seed, 4, purpose])
        # Each block holds every (separation, observers, initial state) once,
        # so every block of 20 programmes makes the same mix of requests.
        kinds = product(SEPARATIONS + ("single",), (FEW_OBSERVERS, MANY_OBSERVERS), (True, False))
        for separation, observers, singlet in _blocks(rng, dict.fromkeys(kinds, 1)):
            programme, reverse = self._programme(rng, separation, singlet)
            for observer in self._observers(rng, programme, observers):
                yield {"programme": programme, "reverse": reverse, "observer": observer,
                       "separation": separation, "many": observers == MANY_OBSERVERS,
                       "singlet": singlet}

    def _programme(self, rng, separation: str, singlet: bool):
        first = _dyadic(rng, 4)
        k = 1 if separation == "single" else 2
        events = [first] if k == 1 else [first, _second_event(rng, first, separation)]
        subsystems = rng.permutation([1, 2])[:k]
        measurements = tuple(
            Measurement(SpacetimeEvent.from_sequence(e), _unit(rng), int(sub))
            for e, sub in zip(events, subsystems)
        )
        initial = "singlet" if singlet else _random_density(rng, 4)
        sharpness = float(rng.uniform(0.05, 0.95))
        outcomes = tuple(int(o) for o in rng.choice((-1, 1), size=k))
        programme = MeasurementProgramme(initial, sharpness, measurements, outcomes)
        reverse = MeasurementProgramme(initial, sharpness, measurements[::-1], outcomes[::-1])
        return programme, reverse

    def _observers(self, rng, programme, n: int):
        coords = np.stack([m.event.coords for m in programme.measurements])
        centre = coords.mean(axis=0)
        speed = 0.5 * float(rng.random())
        origin = centre + np.array([-6.0, *rng.normal(size=3)])
        line = Worldline(SpacetimeEvent.from_sequence(origin), tuple(speed * _unit(rng)))
        return line.sample(np.sort(rng.uniform(0.0, 16.0, size=n)))

    def execute(self, request):
        return relativistic.observer_chart(request["programme"], request["observer"])

    def check(self, request, answer):
        for region in answer.assignments:
            if not -1e-12 <= region.probability <= 1.0 + 1e-12:
                return f"region probability {region.probability} outside [0, 1]"
            trace = float(np.trace(region.state).real)
            if abs(trace - 1.0) > TOL:
                return f"region state trace {trace}"
        mirrored = relativistic.observer_chart(request["reverse"], request["observer"])
        if not (_close(mirrored.state, answer.state, 1e-12)
                and abs(mirrored.probability - answer.probability) <= 1e-12):
            return "chart depends on the order the measurements are listed"
        return None

    def traits(self, request, answer):
        traits = [request["separation"], "many-observers" if request["many"] else "few-observers"]
        traits.append("singlet" if request["singlet"] else "mixed-state")
        if answer.informed:
            traits.append("informed")
        return tuple(traits)


WORKLOADS = {w.name: w for w in (VerifyBattery, PointQueries, TableDecisions, ChartSweeps)}
