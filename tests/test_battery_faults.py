"""The battery against the faults it claims to catch, held as data.

Each row of ``FAULTS`` names a package function, a fault and the checks that
must fail with it.  The fault is bound in place of the function in every
package module that binds it, and only the named checks run, with the random
streams ``run_all(SEED)`` gives them; unpatched, every check passes.  A closed
form a request path relies on adds a row here.  ``EQUIVALENT`` lists faults
that change no answer, so no check can catch them: each must leave its checks
passing.
"""

import dataclasses
import importlib
import operator
import pkgutil

import numpy as np
import pytest

import unsharp_bell
from unsharp_bell import verify
from unsharp_bell.bell import BellConfiguration
from unsharp_bell.relativistic import CausalRelation, SpacetimeEvent
from unsharp_bell.spin_povm import JointObservable

SEED = 101
PACKAGE = [unsharp_bell] + [importlib.import_module(f"unsharp_bell.{info.name}")
                            for info in pkgutil.iter_modules(unsharp_bell.__path__)]


def scaled(factor):
    return lambda f: lambda *args: f(*args) * factor


def shifted(offset):
    return lambda f: lambda *args: f(*args) + offset


def replaced(**fields):
    """The function's result with each named field mapped through its given function."""
    def fault(f):
        def call(*args):
            result = f(*args)
            changes = {name: change(getattr(result, name)) for name, change in fields.items()}
            if isinstance(result, tuple):  # a NamedTuple
                return result._replace(**changes)
            return dataclasses.replace(result, **changes)
        return call
    return fault


def squared_roots(selective: bool):
    """A Lueders update applying each effect E where its root sqrt(E) belongs, when the update's
    kind (selective: an outcome given) is ``selective``."""
    def fault(f):
        def update(state, roots, outcome=None):
            if (outcome is not None) == selective:
                roots = {k: root @ root for k, root in roots.items()}
            return f(state, roots, outcome)
        return update
    return fault


def at_sharpness(factor):
    def fault(f):
        def decide(config):
            sharpness = min(1.0, config.sharpness * factor)
            return f(BellConfiguration(sharpness, *config.axes))
        return decide
    return fault


def upper_entry(offset):
    """An operator with its (0, 1) entry alone off: eigh and eigvalsh read the lower triangle."""
    def fault(f):
        def build(*args):
            built = f(*args).copy()
            built[0, 1] += offset
            return built
        return build
    return fault


def mixed_signs_complemented(pair_probs):
    return {(i, j): 0.5 - p if i * j < 0 else p for (i, j), p in pair_probs.items()}


def reversed_outcomes(f):
    def build(*args):
        joint = f(*args)
        return JointObservable(dict(zip(reversed(list(joint.effects)), joint.effects.values())))
    return build


def lightlike_as_spacelike(f):
    def classify(a, b):
        relation = f(a, b)
        return CausalRelation.SPACELIKE if relation.name.startswith("LIGHTLIKE") else relation
    return classify


# (id, function as module.name, fault, the checks that must fail)
FAULTS = [
    ("margin*(1+1e-6)", "spin_povm.coexistence_margin", scaled(1 + 1e-6),
     ("coexistence-threshold",)),
    ("margin+1e-9", "spin_povm.coexistence_margin", shifted(1e-9), ("coexistence-threshold",)),
    ("pair-outcomes-relabelled", "spin_povm._pair_effects",
     lambda f: lambda *args: f(*args)[..., [1, 0, 3, 2], :, :], ("coexistence-threshold",)),
    ("quadruple-outcomes-reversed", "spin_povm.quadruple_joint", reversed_outcomes,
     ("coexistence-threshold",)),
    ("bell_norm*(1+1e-6)", "bell.bell_norm", scaled(1 + 1e-6), ("cirelson-bound",)),
    ("closed-form-at-sharpness*(1+1e-6)", "bell.operator_chsh_closed_form",
     at_sharpness(1 + 1e-6), ("cirelson-bound",)),
    ("max_eig*(1+1e-6)", "bell.operator_chsh_holds",
     replaced(max_eig=lambda v: v * (1 + 1e-6)), ("cirelson-bound",)),
    ("bell_operator-upper-entry+1e-9", "bell.bell_operator", upper_entry(1e-9),
     ("cirelson-bound",)),
    ("singlet_pair_prob+1e-6", "bell.singlet_pair_prob", shifted(1e-6), ("singlet-formula",)),
    ("chsh-f*(1+1e-6)", "bell.chsh_report", replaced(f=lambda v: v * (1 + 1e-6)),
     ("singlet-formula",)),
    ("chsh-bound*(1+1e-6)", "bell.chsh_report", replaced(bound=lambda v: v * (1 + 1e-6)),
     ("singlet-formula",)),
    ("chsh-violated-flipped", "bell.chsh_report", replaced(violated=operator.not_),
     ("singlet-formula",)),
    ("chsh-mixed-sign-pairs-complemented", "bell.chsh_report",
     replaced(pair_probs=mixed_signs_complemented), ("singlet-formula",)),
    ("effect_root*(1+1e-6)", "spin_povm.effect_root", scaled(1 + 1e-6),
     ("epr-calculus", "chart-consistency")),
    ("lueders-E-for-root-selective", "instruments.lueders_update", squared_roots(True),
     ("epr-calculus", "chart-consistency")),
    ("lueders-E-for-root-nonselective", "instruments.lueders_update", squared_roots(False),
     ("epr-calculus", "chart-consistency", "disturbance-bound")),
    ("epr-reduced_pre*(1+1e-6)", "instruments.epr_measurement",
     replaced(reduced_pre=lambda v: v * (1 + 1e-6)), ("epr-calculus",)),
    ("disturbance-bound*0.999", "instruments.disturbance_report",
     replaced(bound=lambda v: v * 0.999), ("disturbance-bound",)),
    ("disturbance-probability*(1+1e-6)", "instruments.disturbance_report",
     replaced(probability=lambda v: v * (1 + 1e-6)), ("disturbance-bound",)),
    ("reconstruction-margin+1e-6", "fine.reconstruct_jpd",
     replaced(margin=lambda v: v + 1e-6), ("fine-equivalence",)),
    ("reconstruction-near-flipped", "fine.reconstruct_jpd", replaced(near_boundary=operator.not_),
     ("fine-equivalence",)),
    # the oracle's margin off by far less than DECISION_TOL, or its near flag flipped
    ("oracle-margin+1e-6", "fine.feasibility_oracle", replaced(margin=lambda v: v + 1e-6),
     ("fine-equivalence",)),
    ("oracle-margin-1e-11", "fine.feasibility_oracle", replaced(margin=lambda v: v - 1e-11),
     ("fine-equivalence",)),
    ("oracle-near-flipped", "fine.feasibility_oracle", replaced(near_boundary=operator.not_),
     ("fine-equivalence",)),
    ("boost-identity", "relativistic.lorentz_boost", lambda f: lambda velocity: np.eye(4),
     ("chart-consistency",)),
    ("lightlike-as-spacelike", "relativistic.causal_relation", lightlike_as_spacelike,
     ("chart-consistency",)),
    ("rationalization_error*2", "fine.rationalization_error", scaled(2.0), ("fine-equivalence",)),
]

# (id, function, fault, arguments on which it answers otherwise, the checks it leaves passing)
EQUIVALENT = [
    # a positive factor keeps the sign of every squared interval, so every classification
    ("interval*2", "relativistic.interval", scaled(2.0),
     (SpacetimeEvent(0.0), SpacetimeEvent(1.0)), ("chart-consistency",)),
]


def run_check(name: str):
    """One battery check, uncached, with the random stream ``run_all(SEED)`` gives it."""
    index = verify.CHECK_NAMES.index(name)
    _, check, needs_rng = verify._CHECKS[index]
    return check(*((np.random.default_rng([SEED, index]),) if needs_rng else ()))


def patch_everywhere(monkeypatch, target: str, fault) -> tuple:
    """Bind ``fault(original)`` wherever a package module binds the original function, and
    return the original and the faulty function."""
    home, name = target.split(".")
    original = getattr(importlib.import_module(f"unsharp_bell.{home}"), name)
    faulty = fault(original)
    for module in PACKAGE:
        if vars(module).get(name) is original:
            monkeypatch.setattr(module, name, faulty)
    return original, faulty


@pytest.mark.parametrize("name", sorted({check for row in FAULTS + EQUIVALENT
                                         for check in row[-1]}))
def test_each_check_passes_unpatched(name):
    passed, _, _, detail = run_check(name)
    assert passed, detail
    if name == "fine-equivalence":  # the routes' margins part by rounding alone
        assert float(detail.rsplit(" ", 1)[1]) <= 1e-14


@pytest.mark.parametrize("target, fault, checks", [row[1:] for row in FAULTS],
                         ids=[row[0] for row in FAULTS])
def test_the_named_checks_catch_the_fault(monkeypatch, target, fault, checks):
    patch_everywhere(monkeypatch, target, fault)
    for name in checks:
        passed, _, _, detail = run_check(name)
        assert not passed, (name, detail)


@pytest.mark.parametrize("target, fault, arguments, checks", [row[1:] for row in EQUIVALENT],
                         ids=[row[0] for row in EQUIVALENT])
def test_an_equivalent_fault_leaves_its_checks_passing(monkeypatch, target, fault, arguments,
                                                        checks):
    original, faulty = patch_everywhere(monkeypatch, target, fault)
    assert faulty(*arguments) != original(*arguments)  # the fault is live
    for check in checks:
        passed, _, _, detail = run_check(check)
        assert passed, (check, detail)
