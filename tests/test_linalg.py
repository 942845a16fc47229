import numpy as np
import pytest

from insep import (
    TOL_EIG,
    BlochVector,
    DensityOperator,
    HermitianOperator,
    bloch_from_density,
    density_from_bloch,
    hamming,
    hermitian_eigensystem,
    hermitian_eigenvalues,
    min_eigenvalue,
    partial_trace,
    tensor,
)
from insep.states import bell_state, Bell, horodecki_b


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def ketbra(i, d):
    m = np.zeros((d, d))
    m[i, i] = 1.0
    return m


# ---------------------------------------------------------------- types

def test_rejects_non_hermitian():
    with pytest.raises(ValueError, match="not Hermitian"):
        HermitianOperator([[0, 1], [0, 0]])


# numpy may warn of inf - inf before the ValueError; only the error counts.
@pytest.mark.filterwarnings("ignore:invalid value encountered:RuntimeWarning")
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_rejects_non_finite_entries(bad, where):
    m = np.eye(2, dtype=complex) / 2
    m[where] = bad
    with pytest.raises(ValueError, match="NaN or infinite"):
        HermitianOperator(m)


def test_rejects_non_square_and_bad_dimension():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(3))
    with pytest.raises(ValueError):
        HermitianOperator(np.array([[1.0]]))


def test_matrix_is_read_only():
    op = HermitianOperator(np.eye(2) / 2)
    with pytest.raises(ValueError):
        op.matrix[0, 0] = 9.0


def test_density_operator_validation():
    with pytest.raises(ValueError, match="trace"):
        DensityOperator(np.eye(2))
    with pytest.raises(ValueError, match="eigenvalue"):
        DensityOperator(np.diag([1.5, -0.5]))
    rho = DensityOperator(np.eye(4) / 4)
    assert rho.n_qubits == 2


def test_bloch_vector_ball_invariant():
    BlochVector(0.3, -0.3, 0.2)
    with pytest.raises(ValueError, match="Bloch ball"):
        BlochVector(0.5, 0.5, 0.0)


# ---------------------------------------------------------------- tensor

def test_tensor_identity_case():
    half = HermitianOperator(np.eye(2) / 2)
    out = tensor(half, half)
    assert out.n_qubits == 2
    assert np.allclose(out.matrix, np.eye(4) / 4)


def test_tensor_basis_product():
    out = tensor(HermitianOperator(ketbra(0, 2)), HermitianOperator(ketbra(1, 2)))
    assert np.allclose(out.matrix, np.diag([0, 1, 0, 0]))


def test_tensor_block_multiplication():
    # |0><0| (x) (all-entries-1/2): 1/2 in the top-left 2x2 block only
    plus = HermitianOperator(np.full((2, 2), 0.5))
    out = tensor(HermitianOperator(ketbra(0, 2)), plus)
    expected = np.zeros((4, 4))
    expected[:2, :2] = 0.5
    assert np.allclose(out.matrix, expected)


def test_tensor_associativity_and_trace():
    rng = np.random.default_rng(1)
    for _ in range(25):
        a = random_hermitian(rng, 2)
        b = random_hermitian(rng, 4)
        c = random_hermitian(rng, 2)
        left = tensor(tensor(a, b), c)
        right = tensor(a, tensor(b, c))
        assert np.max(np.abs(left.matrix - right.matrix)) <= 1e-12
        ab = tensor(a, b)
        assert abs(ab.trace() - a.trace() * b.trace()) <= 1e-10


# ---------------------------------------------------------------- partial trace

def test_partial_trace_basis_state():
    rho = HermitianOperator(ketbra(0, 4), 2)  # |00><00|
    out = partial_trace(rho, 2)
    assert np.allclose(out.matrix, ketbra(0, 2))


def test_partial_trace_bell_marginal():
    out = partial_trace(bell_state(Bell.PHI_PLUS), 1)
    assert np.allclose(out.matrix, np.eye(2) / 2)


def test_partial_trace_matches_block_sum():
    # tracing out the most significant qubit is literally summing the two
    # diagonal 4x4 blocks
    rho = horodecki_b(0.5)
    m = rho.matrix
    expected = m[:4, :4] + m[4:, 4:]
    out = partial_trace(rho, 1)
    assert np.max(np.abs(out.matrix - expected)) <= 1e-15


def test_partial_trace_preserves_trace_and_validates_k():
    rng = np.random.default_rng(2)
    for _ in range(20):
        op = random_hermitian(rng, 8)
        k = int(rng.integers(1, 4))
        assert abs(partial_trace(op, k).trace() - op.trace()) <= 1e-10
    with pytest.raises(ValueError):
        partial_trace(random_hermitian(rng, 4), 0)
    with pytest.raises(ValueError):
        partial_trace(random_hermitian(rng, 4), 3)
    with pytest.raises(ValueError):
        partial_trace(random_hermitian(rng, 2), 1)


# ---------------------------------------------------------------- eigenvalues

def test_eigenvalues_of_diagonal():
    op = HermitianOperator(np.eye(4) / 4)
    assert np.allclose(hermitian_eigenvalues(op), [0.25] * 4)
    assert min_eigenvalue(op) == pytest.approx(0.25, abs=1e-15)


def test_eigenvalues_quarter_diag_with_half_corners():
    # diag(1/4,...) plus 1/2 corners: eigenvalues -1/4, 1/4, 1/4, 3/4
    m = np.eye(4) / 4
    m[0, 3] = m[3, 0] = 0.5
    got = hermitian_eigenvalues(HermitianOperator(m))
    assert np.allclose(got, [-0.25, 0.25, 0.25, 0.75], atol=1e-12)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 8, 16, 32, 64):
        op = random_hermitian(rng, dim)
        w = hermitian_eigenvalues(op)
        assert abs(w.sum() - op.trace()) <= dim * TOL_EIG


def charpoly_coefficients(a):
    # Faddeev-LeVerrier: no eigendecomposition involved
    n = a.shape[0]
    coeffs = [1.0 + 0j]
    m = np.zeros_like(a)
    for k in range(1, n + 1):
        m = a @ m + coeffs[-1] * np.eye(n)
        coeffs.append(-np.trace(a @ m) / k)
    return coeffs


@pytest.mark.parametrize("dim", [2, 4])
def test_eigenvalues_match_characteristic_polynomial_roots(dim):
    rng = np.random.default_rng(4)
    for _ in range(50):
        op = random_hermitian(rng, dim)
        roots = np.roots(charpoly_coefficients(op.matrix))
        assert np.max(np.abs(np.sort(roots.real) - hermitian_eigenvalues(op))) <= 1e-8


def test_eigensystem_reconstruction_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        op = random_hermitian(rng, 16)
        w, v = hermitian_eigensystem(op)
        back = (v * w) @ v.conj().T
        assert np.max(np.abs(op.matrix - back)) <= TOL_EIG


def test_min_eigenvalue_is_first():
    rng = np.random.default_rng(6)
    op = random_hermitian(rng, 8)
    assert min_eigenvalue(op) == hermitian_eigenvalues(op)[0]


# ---------------------------------------------------------------- hamming

def test_hamming_values():
    assert hamming(7, 4, 3) == 2
    assert hamming(5, 5, 3) == 0
    for n in (1, 3, 6):
        assert hamming(0, (1 << n) - 1, n) == n


def test_hamming_range_checks():
    with pytest.raises(ValueError):
        hamming(8, 0, 3)
    with pytest.raises(ValueError):
        hamming(0, -1, 3)


# ---------------------------------------------------------------- bloch

def test_bloch_reference_points():
    north = DensityOperator(np.diag([1.0, 0.0]))
    assert tuple(bloch_from_density(north)) == pytest.approx((0, 0, 0.5), abs=1e-15)
    mixed = DensityOperator(np.eye(2) / 2)
    assert tuple(bloch_from_density(mixed)) == pytest.approx((0, 0, 0), abs=1e-15)
    plus = DensityOperator(np.full((2, 2), 0.5))
    assert tuple(bloch_from_density(plus)) == pytest.approx((0.5, 0, 0), abs=1e-15)


def test_bloch_round_trip():
    rng = np.random.default_rng(7)
    done = 0
    while done < 1000:
        v = rng.uniform(-0.5, 0.5, 3)
        if v @ v > 0.25:
            continue
        rho = density_from_bloch(tuple(v))
        back = density_from_bloch(bloch_from_density(rho))
        assert np.max(np.abs(rho.matrix - back.matrix)) <= 1e-12
        done += 1


def test_bloch_requires_single_qubit_and_ball():
    with pytest.raises(ValueError):
        bloch_from_density(DensityOperator(np.eye(4) / 4))
    with pytest.raises(ValueError):
        density_from_bloch((0.6, 0.0, 0.0))
