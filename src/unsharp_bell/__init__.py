"""Unsharp spin observables, Bell inequalities and relativistic observer charts.

The package splits into three layers.  ``operators`` and ``sampling`` hold
the matrix and randomness plumbing.  ``spin_povm``, ``bell``, ``fine``,
``instruments`` and ``relativistic`` carry the physics: coexistence of
unsharp spin pairs, operator and probabilistic CHSH inequalities, joint
distribution feasibility, Lueders state changes, and observer dependent
state assignment on Minkowski charts.  ``verify`` bundles the numeric
checks behind the ``verify-all`` CLI subcommand.
"""

from .bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_norm,
    bell_operator,
    chsh_report,
    coplanar_configuration,
    generalized_bell_operator,
    operator_chsh_holds,
    orthogonal_configuration,
    scan_lambda_threshold,
    singlet_pair_prob,
    singlet_state,
)
from .fine import (
    Jpd4,
    ProbabilityTable,
    chsh_check,
    feasibility_oracle,
    find_witness,
    marginals,
    reconstruct_jpd,
    table_from_quantum,
)
from .instruments import disturbance_report, epr_measurement
from .relativistic import (
    CausalRelation,
    Cover,
    MeasurementProgramme,
    Measurement,
    SpacetimeEvent,
    Worldline,
    causal_relation,
    check_consistency,
    influence_cover,
    information_cover,
    interval,
    lorentz_boost,
    observer_chart,
)
from .sampling import DEFAULT_SEED
from .spin_povm import (
    CoexistenceError,
    JointObservable,
    PAIR_SHARPNESS_LIMIT,
    coexistence_margin,
    joint_observable_pair,
    pair_coexistent,
    parse_direction,
    quadruple_joint,
    unsharp_effect,
)
from .verify import CHECK_NAMES, run_all

__version__ = "0.1.0"
