import re

import numpy as np
import pytest

from insep import (
    TOL_PSD,
    BlochVector,
    DensityOperator,
    HermitianOperator,
    bloch_from_density,
    density_from_bloch,
    hamming,
    min_eigenvalue,
    tensor,
)
from insep.criteria import Verdict, map_negativity_check
from insep.linalg import _psd_certified
from insep.maps import MapKind, MapSpec, apply_product

# Residual allowed to the eigensolver on the O(1) random matrices below.
EIG_RESIDUAL = 1e-10


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
    with pytest.raises(ValueError, match=r"^minimum eigenvalue -5\.000e-01 is below -1e-09$"):
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


# ---------------------------------------------------------------- eigenvalues

def test_eigenvalues_of_diagonal():
    op = HermitianOperator(np.eye(4) / 4)
    assert np.allclose(np.linalg.eigvalsh(op.matrix), [0.25] * 4)
    assert min_eigenvalue(op) == pytest.approx(0.25, abs=1e-15)


def test_eigenvalues_quarter_diag_with_half_corners():
    # diag(1/4,...) plus 1/2 corners: eigenvalues -1/4, 1/4, 1/4, 3/4
    m = np.eye(4) / 4
    m[0, 3] = m[3, 0] = 0.5
    got = np.linalg.eigvalsh(m)
    assert np.allclose(got, [-0.25, 0.25, 0.25, 0.75], atol=1e-12)


def test_eigenvalue_sum_equals_trace():
    rng = np.random.default_rng(3)
    for dim in (2, 4, 8, 16, 32, 64):
        op = random_hermitian(rng, dim)
        w = np.linalg.eigvalsh(op.matrix)
        assert abs(w.sum() - op.trace()) <= dim * EIG_RESIDUAL


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
        assert np.max(np.abs(np.sort(roots.real) - np.linalg.eigvalsh(op.matrix))) <= 1e-8


def test_eigensystem_reconstruction_residual():
    rng = np.random.default_rng(5)
    for _ in range(20):
        op = random_hermitian(rng, 16)
        w, v = np.linalg.eigh(op.matrix)
        back = (v * w) @ v.conj().T
        assert np.max(np.abs(op.matrix - back)) <= EIG_RESIDUAL


def test_min_eigenvalue_is_first():
    rng = np.random.default_rng(6)
    op = random_hermitian(rng, 8)
    assert min_eigenvalue(op) == np.linalg.eigvalsh(op.matrix)[0]


# ---------------------------------------------------------------- PSD certificate

# Minimum eigenvalues around the certificate's proven floor -3*tol/4 and the
# exact path's threshold -tol, at tol = TOL_PSD.
BOUNDARY = (
    -TOL_PSD * (1 + 1e-3),
    -TOL_PSD * (1 - 1e-3),
    -0.75 * TOL_PSD - 1e-12,
    -0.75 * TOL_PSD + 1e-12,
    -TOL_PSD / 2,
    0.0,
    TOL_PSD,
)


def planted_spectrum(rng, d, low):
    """Hermitian trace-one Q diag(lam) Q* whose smallest eigenvalue is low."""
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    q, _ = np.linalg.qr(g)
    lam = rng.uniform(0.5, 1.5, d)
    lam[0] = 0.0
    lam *= (1 - low) / lam.sum()
    lam[0] = low
    m = (q * lam) @ q.conj().T
    return (m + m.conj().T) / 2


@pytest.mark.parametrize("d", [2, 16, 256])
def test_psd_certificate_boundary(d):
    rng = np.random.default_rng(d)
    floor = -0.75 * TOL_PSD
    for low in BOUNDARY:
        m = planted_spectrum(rng, d, low)
        ref = float(np.linalg.eigvalsh(m)[0])
        certified = _psd_certified(m, TOL_PSD)
        # Sound: no certificate below the proven floor, planted or computed.
        if low < floor or ref < floor - 1e-12:
            assert not certified, (d, low, ref)
        # Not vacuous: PSD inputs are certified.
        if low >= 0:
            assert certified, (d, low, ref)

        accepts = ref >= -TOL_PSD
        if accepts:
            DensityOperator(m)
        else:
            message = f"minimum eigenvalue {ref:.3e} is below -{TOL_PSD}"
            with pytest.raises(ValueError, match=re.escape(message)):
                DensityOperator(m)

        op = HermitianOperator(m)
        spec = MapSpec.single(1, MapKind.IDENTITY)
        w, v = np.linalg.eigh(apply_product(op, spec).matrix)
        report = map_negativity_check(op, spec)
        if w[0] < -TOL_PSD:
            assert report.verdict is Verdict.INSEPARABLE
            assert report.witness.min_eigenvalue == float(w[0])
            assert report.witness.eigenvector.tobytes() == v[:, 0].tobytes()
        else:
            assert report.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("tol", [0.0, 5e-324])
def test_psd_certificate_declines_without_a_positive_shift(tol):
    # 5e-324 is the smallest subnormal double, so its half rounds to 0.
    assert _psd_certified(np.eye(4) / 4, TOL_PSD)
    assert not _psd_certified(np.eye(4) / 4, tol)


def test_psd_certificate_reads_the_lower_triangle():
    # eigh and eigvalsh read the lower triangle; the factorization must too.
    m = np.eye(4, dtype=complex) / 4
    m[0, 3] = 10.0
    assert _psd_certified(m, TOL_PSD)
    m = np.eye(4, dtype=complex) / 4
    m[3, 0] = 10.0
    assert np.linalg.eigvalsh(m)[0] < 0
    assert not _psd_certified(m, TOL_PSD)


def test_psd_certificate_declines_nan():
    m = np.eye(2) / 2
    m[1, 1] = np.nan
    assert not _psd_certified(m, TOL_PSD)


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
