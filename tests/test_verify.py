"""The verification battery's batched arithmetic against the public API it stands for."""

import numpy as np
from hypothesis import example, given, settings
from hypothesis import strategies as st

from unsharp_bell import fine, verify
from unsharp_bell.bell import (
    THRESHOLDS,
    BellConfiguration,
    bell_operator,
    coplanar_configuration,
    orthogonal_configuration,
    singlet_state,
)
from unsharp_bell.sampling import random_density, random_unit_vectors

SPECIAL_SHARPNESS = (0.0, 1.0, 2.0 ** -0.5, 2.0 ** -0.25)


def bits(table: fine.ProbabilityTable) -> dict:
    """Every entry of a table, keyed as in its JSON, as the exact bits of its float."""
    data = table.to_json_dict()
    return {key: float.hex(value) for part in data.values() for key, value in part.items()}


@settings(max_examples=40, deadline=None)
@given(
    seed=st.integers(min_value=0, max_value=2**32 - 1),
    sharpness=st.lists(st.floats(min_value=0.0, max_value=1.0), min_size=1, max_size=6),
)
@example(seed=0, sharpness=list(SPECIAL_SHARPNESS))
@example(seed=1, sharpness=[2.0 ** -0.25 * (1 + 1e-9)])  # just past the CHSH threshold
def test_batched_quantum_tables_equal_table_from_quantum(seed, sharpness):
    # one Born-rule batch returns, bit for bit, the tables built one at a time
    rng = np.random.default_rng(seed)
    configs, states = [], []
    for s in sharpness:
        raw = rng.normal(size=(4, 3))  # unnormalized: BellConfiguration normalizes
        pair = [BellConfiguration(s, *raw), coplanar_configuration(s, rng.uniform(0, np.pi))]
        configs += pair * 2
        states += [singlet_state()] * 2 + [random_density(rng, 4)] * 2
    for config, state, table in zip(configs, states, verify._quantum_tables(configs, states)):
        assert bits(table) == bits(fine.table_from_quantum(state, config))


def test_magic_basis_is_unitary():
    magic = verify._MAGIC
    assert np.abs(magic.conj().T @ magic - np.eye(4)).max() <= 1e-15


def test_magic_basis_spectra_equal_bell_operator_spectra(rng):
    # the real magic-basis eigensolve against the complex Bell operator
    axes = np.stack([random_unit_vectors(rng, 200) for _ in range(4)])
    orthogonal = np.stack(orthogonal_configuration(1.0).axes)[:, None, :]
    coplanar = np.stack(coplanar_configuration(1.0, np.pi / 4).axes)[:, None, :]
    axes = np.concatenate([orthogonal, coplanar, axes], axis=1)
    spectra = verify._bell_spectra(axes)
    for i in range(axes.shape[1]):
        want = np.linalg.eigvalsh(bell_operator(BellConfiguration(1.0, *axes[:, i])))
        assert np.abs(spectra[i] - want).max() <= 1e-12
    # both optimal configurations reach 2*sqrt(2)
    assert np.abs(np.abs(spectra[:2]).max(axis=1) - THRESHOLDS.cirelson).max() <= 1e-12
