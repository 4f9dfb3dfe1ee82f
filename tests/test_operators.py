import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from unsharp_bell.operators import (
    PAULI,
    SIGMA_X,
    SIGMA_Y,
    SIGMA_Z,
    check_density,
    check_effect,
    check_hermitian,
    eigen_hermitian,
    expectation,
    json_list,
    json_number,
    matrix_from_pairs,
    matrix_to_pairs,
    partial_trace,
    pauli_dot,
    sqrt_psd,
    tensor,
    trace_norm,
)
from unsharp_bell.sampling import random_density

from random_operators import random_effect, random_hermitian


def test_pauli_algebra():
    # sigma_i sigma_j = delta_ij I + i eps_ijk sigma_k
    np.testing.assert_allclose(SIGMA_X @ SIGMA_X, np.eye(2), atol=1e-15)
    np.testing.assert_allclose(SIGMA_X @ SIGMA_Y, 1j * SIGMA_Z, atol=1e-15)
    np.testing.assert_allclose(SIGMA_Y @ SIGMA_Z, 1j * SIGMA_X, atol=1e-15)
    np.testing.assert_allclose(SIGMA_Z @ SIGMA_X, 1j * SIGMA_Y, atol=1e-15)
    for sigma in PAULI:
        assert abs(np.trace(sigma)) < 1e-15


def test_pauli_dot_components(rng):
    v = rng.normal(size=3)
    direct = v[0] * SIGMA_X + v[1] * SIGMA_Y + v[2] * SIGMA_Z
    np.testing.assert_allclose(pauli_dot(v), direct, atol=1e-15)


def test_tensor_matches_kron(rng):
    a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
    np.testing.assert_allclose(tensor(a, b), np.kron(a, b), atol=1e-15)


def test_tensor_is_kron_bit_for_bit_single_and_stacked(rng):
    a = rng.normal(size=(5, 3, 2, 2)) + 1j * rng.normal(size=(5, 3, 2, 2))
    b = rng.normal(size=(3, 2, 2)) + 1j * rng.normal(size=(3, 2, 2))
    a[0, 0] = [[-0.0, 1e-300], [np.inf, 1e300j]]  # signed zero, underflow, infinities
    stacked = tensor(a, b)
    assert stacked.shape == (5, 3, 4, 4)
    for i, j in np.ndindex(5, 3):
        want = np.kron(a[i, j], b[j]).tobytes()
        assert tensor(a[i, j], b[j]).tobytes() == want
        assert stacked[i, j].tobytes() == want
    # Real factors are products of complex entries, as np.kron of complex arrays gives.
    real = rng.normal(size=(2, 2))
    want = np.kron(real.astype(complex), np.eye(2, dtype=complex))
    assert tensor(real, np.eye(2)).tobytes() == want.tobytes()
    with pytest.raises(ValueError, match=r"two 2x2 operators, got \(4, 4\) and \(2, 2\)"):
        tensor(np.eye(4), np.eye(2))


def test_tensor_eigenvalue_products(rng):
    # spectrum of A (x) B is the multiset of eigenvalue products
    a = random_hermitian(rng, 2)
    b = random_hermitian(rng, 2)
    got = np.sort(np.linalg.eigvalsh(tensor(a, b)))
    want = np.sort(np.outer(np.linalg.eigvalsh(a), np.linalg.eigvalsh(b)).ravel())
    np.testing.assert_allclose(got, want, atol=1e-9)


def test_partial_trace_on_products(rng):
    # tr_2[A (x) B] = tr(B) A and tr_1[A (x) B] = tr(A) B
    for _ in range(20):
        a = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        b = rng.normal(size=(2, 2)) + 1j * rng.normal(size=(2, 2))
        m = np.kron(a, b)
        np.testing.assert_allclose(partial_trace(m, keep=1), a * np.trace(b), atol=1e-12)
        np.testing.assert_allclose(partial_trace(m, keep=2), b * np.trace(a), atol=1e-12)


def test_partial_trace_brute_force(rng):
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    want1 = np.zeros((2, 2), dtype=complex)
    want2 = np.zeros((2, 2), dtype=complex)
    for i in range(2):
        for j in range(2):
            for k in range(2):
                want1[i, j] += m[2 * i + k, 2 * j + k]
                want2[i, j] += m[2 * k + i, 2 * k + j]
    np.testing.assert_allclose(partial_trace(m, keep=1), want1, atol=1e-14)
    np.testing.assert_allclose(partial_trace(m, keep=2), want2, atol=1e-14)


def test_partial_trace_rejects_wrong_shape():
    with pytest.raises(ValueError, match="4x4"):
        partial_trace(np.eye(2), keep=1)
    with pytest.raises(ValueError, match="keep"):
        partial_trace(np.eye(4), keep=3)


def test_sqrt_psd_squares_back(rng):
    for dim in (2, 4):
        rho = random_density(rng, dim)
        root = sqrt_psd(rho)
        np.testing.assert_allclose(root @ root, rho, atol=1e-12)
        vals = np.linalg.eigvalsh(root)
        assert vals.min() >= -1e-12


def test_sqrt_psd_rejects_negative():
    with pytest.raises(ValueError, match="not positive semidefinite"):
        sqrt_psd(np.diag([1.0, -0.5]))


def test_trace_norm_hermitian_is_abs_eigenvalue_sum(rng):
    h = random_hermitian(rng, 4)
    vals = np.linalg.eigvalsh(h)
    np.testing.assert_allclose(trace_norm(h), np.abs(vals).sum(), atol=1e-12)


def test_expectation_real_for_hermitian_pair(rng):
    rho = random_density(rng, 2)
    e = random_effect(rng, 2)
    value = expectation(rho, e)
    assert isinstance(value, float)
    np.testing.assert_allclose(value, np.trace(rho @ e).real, atol=1e-14)


def test_eigen_hermitian_reconstructs(rng):
    h = random_hermitian(rng, 4)
    vals, vecs = eigen_hermitian(h)
    np.testing.assert_allclose(vecs @ np.diag(vals) @ vecs.conj().T, h, atol=1e-12)
    assert np.all(np.diff(vals) >= -1e-14)


def test_check_density_accepts_and_normalizes(rng):
    rho = random_density(rng, 4)
    out = check_density(rho)
    np.testing.assert_allclose(out, out.conj().T, atol=1e-15)


def test_check_density_rejects_trace():
    with pytest.raises(ValueError, match="trace"):
        check_density(np.eye(2))


def test_check_density_rejects_negative():
    with pytest.raises(ValueError):
        check_density(np.diag([1.5, -0.5]))


def test_check_effect_bounds():
    check_effect(np.diag([0.0, 1.0]))
    with pytest.raises(ValueError):
        check_effect(np.diag([1.2, 0.5]))
    with pytest.raises(ValueError):
        check_effect(np.diag([-0.2, 0.5]))


@pytest.mark.parametrize("entry", [np.nan, np.inf, complex(0.0, np.nan)])
def test_check_hermitian_refuses_non_finite_entries(entry):
    # A NaN entry makes the asymmetry NaN, which no tolerance comparison refuses.
    matrix = np.eye(4, dtype=complex)
    matrix[2, 2] = entry
    with pytest.raises(ValueError, match="^initial state must have finite entries$"):
        check_hermitian(matrix, name="initial state")


def test_check_hermitian_rejects_skew():
    with pytest.raises(ValueError, match="[Hh]ermitian"):
        check_hermitian(np.array([[0.0, 1.0], [-1.0, 0.0]]))


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1), st.sampled_from([2, 4]))
def test_matrix_pairs_round_trip(seed, dim):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    pairs = matrix_to_pairs(m)
    assert len(pairs) == dim * dim
    np.testing.assert_allclose(matrix_from_pairs(pairs), m, atol=0)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_density_is_density(seed):
    rng = np.random.default_rng(seed)
    rho = random_density(rng, 4)
    vals = np.linalg.eigvalsh(rho)
    assert vals.min() >= -1e-12
    np.testing.assert_allclose(np.trace(rho).real, 1.0, atol=1e-12)


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_random_effect_spectrum(seed):
    rng = np.random.default_rng(seed)
    e = random_effect(rng, 2)
    vals = np.linalg.eigvalsh(e)
    assert vals.min() >= -1e-12 and vals.max() <= 1.0 + 1e-12


@pytest.mark.parametrize("value", [10**400, -(10**400), 2**1024])
def test_json_number_refuses_integers_beyond_floats_by_field(value):
    # float() of such an int raises OverflowError, whose message names no field.
    with pytest.raises(ValueError) as refusal:
        json_number(value, "programme lambda")
    message = str(refusal.value)
    assert message.startswith("programme lambda must be a number, got an integer beyond the float range")
    assert "000000" not in message and len(message) < 120
    assert json_number(2**1023, "x") == float(2**1023)


@pytest.mark.parametrize(
    "value, quoted",
    [
        (10**5000, "an integer beyond the float range"),  # repr refuses past 4,300 digits
        ({"entry": -(10**5000)}, "{'entry': an integer beyond the float range}"),
        ("x" * 3000, "'xxxxxxxxxxxx...xxxxxxxxxxxxx'"),
    ],
    ids=["int", "nested-int", "text"],  # pytest's own ids would print the int's digits
)
def test_json_list_quotes_a_refused_value_shortened(value, quoted):
    with pytest.raises(ValueError) as refusal:
        json_list(value, "programme measurements")
    assert str(refusal.value) == f"programme measurements must be a list, got {quoted}"


def old_matrix_to_pairs(matrix):
    """The entry-by-entry serialization ``matrix_to_pairs`` replaced."""
    return [[float(z.real), float(z.imag)] for z in np.asarray(matrix, dtype=complex).ravel()]


def same_pair_bits(a, b) -> bool:
    return np.array(a).tobytes() == np.array(b).tobytes()


@settings(max_examples=50, deadline=None)
@given(st.integers(min_value=0, max_value=2**32 - 1))
def test_matrix_to_pairs_keeps_the_entrywise_bits(seed):
    rng = np.random.default_rng(seed)
    m = rng.normal(size=(4, 4)) + 1j * rng.normal(size=(4, 4))
    m.real[rng.random((4, 4)) < 0.2] = -0.0
    m.imag[rng.random((4, 4)) < 0.2] = np.nan
    m.imag[0, 1] = -0.0
    # contiguous, transposed, conjugate-transposed, sliced and strided views
    views = (m, m.T, m.conj().T, m[:2, :2], m[::2, ::2], m[1:3, 1:3].T, m.real.copy())
    for view in views:
        pairs = matrix_to_pairs(view)
        assert same_pair_bits(pairs, old_matrix_to_pairs(view))
        assert all(type(x) is float for pair in pairs for x in pair)
