import re
import warnings

import numpy as np
import pytest

from insep import (
    MAX_QUBITS,
    TOL_PSD,
    BlochVector,
    DensityOperator,
    HermitianOperator,
    bloch_from_density,
    hamming,
    min_eigenvalue,
    tensor,
)
from insep import criteria, linalg, maps
from insep.criteria import Verdict, map_negativity_check
from insep.linalg import _psd_certified, _validate_density_stack
from insep.maps import MapKind, MapSpec, apply_on_qubit, apply_product, lambda_p
from insep.states import ghz, product_state, random_multiseparable

# The dimension from which linalg checks real-valued matrices in real arithmetic.
_REAL_PATH = linalg._REAL_PATH_MIN_DIM

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


# Warnings are errors here, so numpy's warning of inf - inf may not escape.
@pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf, complex(0, np.inf)])
@pytest.mark.parametrize("where", [(0, 0), (0, 1)])
def test_rejects_non_finite_entries(bad, where):
    m = np.eye(2, dtype=complex) / 2
    m[where] = bad
    with pytest.raises(ValueError, match="^matrix has NaN or infinite entries$"):
        HermitianOperator(m)


# Each entry is finite, but A - A^H overflows to inf at (0, 1).
OVERFLOWING = [[0.5, 1e308], [-1e308, 0.5]]


def test_finite_matrix_whose_deviation_overflows_is_not_hermitian():
    with pytest.raises(ValueError, match=r"^matrix is not Hermitian \(max deviation inf\)$"):
        HermitianOperator(OVERFLOWING)


def test_rejects_non_square_and_bad_dimension():
    with pytest.raises(ValueError):
        HermitianOperator(np.zeros((2, 3)))
    with pytest.raises(ValueError):
        HermitianOperator(np.eye(3))
    # Given no count, a 1x1 or 0x0 matrix was refused as n_qubits 0 or -1,
    # a count the caller never gave.
    for dim in (0, 1):
        for cls in (HermitianOperator, DensityOperator):
            with pytest.raises(ValueError, match=rf"^dimension {dim} is not 2\^n for n >= 1 qubits$"):
                cls(np.eye(dim))


@pytest.mark.parametrize("count", [True, False, 1.0, "1"])
def test_qubit_count_takes_the_package_integer_rule(count):
    # True was stored as the count, and the file it saved held
    # "n_qubits": True, which no JSON reader accepts.
    with pytest.raises(TypeError, match=f"^n_qubits must be an integer, got {count!r}$"):
        HermitianOperator(np.eye(2) / 2, count)
    with pytest.raises(TypeError, match="^n_qubits must be an integer"):
        DensityOperator(np.eye(2) / 2, count)
    # True was taken as 1 qubit: hamming(3, 0, True) said "index 3 out of
    # range for True qubits" and all_qubits(True, P) gave the spec 1:P.
    with pytest.raises(TypeError, match=f"^n_qubits must be an integer, got {count!r}$"):
        hamming(3, 0, count)
    with pytest.raises(TypeError, match=f"^n_qubits must be an integer, got {count!r}$"):
        MapSpec.all_qubits(count, MapKind.P)


def test_numpy_qubit_count_is_stored_as_an_int(tmp_path):
    from insep.cli import load_operator, save_operator

    op = HermitianOperator(np.eye(4) / 4, np.int64(2))
    assert type(op.n_qubits) is int and op.n_qubits == 2
    save_operator(tmp_path / "op.json", op)
    assert load_operator(tmp_path / "op.json")[0].n_qubits == 2


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


def test_density_operator_shares_a_validated_matrix():
    op = HermitianOperator(np.eye(4) / 4)
    rho = DensityOperator(op)
    assert rho.matrix is op.matrix
    assert rho.n_qubits == 2
    with pytest.raises(ValueError, match=r"^trace 2\.0 is not 1 within 1e-10$"):
        DensityOperator(HermitianOperator(np.eye(2)))
    with pytest.raises(ValueError, match=r"^minimum eigenvalue -5\.000e-01 is below -1e-09$"):
        DensityOperator(HermitianOperator(np.diag([1.5, -0.5])))


def test_density_operator_shares_an_operator_of_its_own_count():
    op = HermitianOperator(np.eye(2) / 2)
    for n in (None, 1, np.int64(1)):
        rho = DensityOperator(op, n)
        assert rho.matrix is op.matrix and rho.n_qubits == 1
    # Was numpy's "must be real number, not HermitianOperator".
    with pytest.raises(ValueError, match=r"^dimension 2 is not 2\^n for n >= 1 qubits$"):
        DensityOperator(op, 2)


def test_density_operator_scans_imaginary_parts_once(monkeypatch):
    # Each matrix or stack is scanned once, where it enters the library
    # (HermitianOperator, _validate_density_stack); DensityOperator, the
    # maps and the map check read the view it kept or inherited.
    calls = []
    real_valued = linalg._real_valued

    def counting(m):
        calls.append(m.shape)
        return real_valued(m)

    monkeypatch.setattr(linalg, "_real_valued", counting)
    assert not hasattr(criteria, "_real_valued") and not hasattr(maps, "_real_valued")
    rho = random_multiseparable(6, 4, 1)
    assert calls == [(64, 64)]
    DensityOperator(rho)
    DensityOperator(HermitianOperator(rho.matrix))
    assert calls == [(64, 64)] * 2
    DensityOperator(apply_product(rho, MapSpec.single(1, MapKind.IDENTITY)))
    assert calls == [(64, 64)] * 2
    _validate_density_stack(np.stack([rho.matrix, ghz(6).matrix]))
    assert calls == [(64, 64)] * 3 + [(2, 64, 64)]
    g, qubit = ghz(6), HermitianOperator(np.eye(2) / 2)
    calls.clear()
    for kind in MapKind:
        # Every map keeps a product mixture PSD, so its images are states.
        DensityOperator(apply_on_qubit(rho, 2, kind))
        apply_on_qubit(g, 2, kind)
        for source in (rho, g):
            map_negativity_check(source, MapSpec.all_qubits(6, kind))
    lambda_p(qubit)
    assert calls == []


def test_bloch_vector_ball_invariant():
    # Each coordinate is stored as the float the number rule returns.
    v = BlochVector(np.float64(0.3), -0.3, np.int64(0))
    assert [type(c) for c in v] == [float] * 3 and tuple(v) == (0.3, -0.3, 0.0)
    nan = float("nan")
    # Each coordinate takes the package's number rule before the radius check.
    refusals = [((0.5, 0.5, 0.0), ValueError, "point (0.5, 0.5, 0.0) is outside the Bloch ball")]
    for i, name in enumerate("xyz"):
        for value, kind, message in [
            (nan, ValueError, f"{name} must be finite, got nan"),
            (10**400, ValueError, f"{name} must be finite, got {10**400!r}"),
            (True, TypeError, f"{name} must be a number, got True"),
            (np.True_, TypeError, f"{name} must be a number, got {np.True_!r}"),
            ("0.1", TypeError, f"{name} must be a number, got '0.1'"),
            (None, TypeError, f"{name} must be a number, got None"),
            (1j, TypeError, f"{name} must be a number, got 1j"),
        ]:
            v = [0.0, 0.0, 0.0]
            v[i] = value
            refusals.append((tuple(v), kind, message))
    for v, kind, message in refusals:
        for build in (lambda v: BlochVector(*v), lambda v: product_state([v])):
            with pytest.raises(kind, match=f"^{re.escape(message)}$"):
                build(v)


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


def planted_spectrum(rng, d, low, real=False, spread=None):
    """Hermitian trace-one Q diag(lam) Q* whose smallest eigenvalue is low.

    With real=True, Q is orthogonal, so the complex128 matrix is real-valued.
    With a spread, Q is the unitary factor of I + spread * G, rephased to lie
    within about spread of I, so the matrix is diagonally dominant.
    """
    g = rng.standard_normal((d, d))
    if not real:
        g = g + 1j * rng.standard_normal((d, d))
    if spread is None:
        q, _ = np.linalg.qr(g)
    else:
        q, r = np.linalg.qr(np.eye(d) + spread * g)
        q = q * (np.diag(r) / np.abs(np.diag(r)))
    lam = rng.uniform(0.5, 1.5, d)
    lam[0] = 0.0
    lam *= (1 - low) / lam.sum()
    lam[0] = low
    m = (q * lam) @ q.conj().T
    return ((m + m.conj().T) / 2).astype(np.complex128)


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

        spec = MapSpec.single(1, MapKind.IDENTITY)
        # The check takes states only; the certificate's soundness on the
        # rejected matrices is asserted above.
        with pytest.raises(TypeError, match="expected a DensityOperator, got HermitianOperator"):
            map_negativity_check(HermitianOperator(m), spec)
        if ref < -TOL_PSD:
            message = f"minimum eigenvalue {ref:.3e} is below -{TOL_PSD}"
            with pytest.raises(ValueError, match=re.escape(message)):
                DensityOperator(m)
            continue
        rho = DensityOperator(m)
        w, v = np.linalg.eigh(apply_product(rho, spec).matrix)
        report = map_negativity_check(rho, spec)
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
    # eigh and eigvalsh read the lower triangle; the factorization must too,
    # and from d = 64 so must the probe (an antidiagonal pair) and the
    # Gershgorin bound (any other pair).
    for d, low, high in ((4, 3, 0), (64, 63, 0), (64, 5, 3)):
        m = np.eye(d, dtype=complex) / d
        m[high, low] = 10.0
        assert _psd_certified(m, TOL_PSD), (d, low, high)
        m = np.eye(d, dtype=complex) / d
        m[low, high] = 10.0
        assert np.linalg.eigvalsh(m)[0] < 0
        assert not _psd_certified(m, TOL_PSD), (d, low, high)


def test_psd_certificate_declines_nan():
    # Each non-finite entry is declined by the factorization below d = 64
    # and by the screens and then the factorization from d = 64, with no
    # numpy warning (pytest makes one an error): on the diagonal, on the
    # antidiagonal and elsewhere below it.
    for d in (2, 64):
        for bad in (np.nan, np.inf, -np.inf):
            for where in ((1, 1), (d - 1, 0), (d - 1, d // 2 - 1)):
                m = np.eye(d) / d
                m[where] = bad
                assert not _psd_certified(m, TOL_PSD), (d, bad, where)
                assert not _psd_certified(np.stack([np.eye(d) / d, m]), TOL_PSD)[1]


def _bad_density(kind, rng, d):
    m = planted_spectrum(rng, d, 0.01)
    if kind == "nan":
        m[3, 5] = np.nan
    elif kind == "inf":
        # On the diagonal an inf meets inf - inf in the Hermiticity check.
        m[3, 3] = np.inf
    elif kind == "non-hermitian":
        m[0, 1] += 1e-6
    elif kind == "trace 0.9":
        m *= 0.9
    else:
        m = planted_spectrum(rng, d, -1e-6)
    return m


def _raised(validate, m):
    with pytest.raises(ValueError) as err:
        validate(m)
    return str(err.value)


@pytest.mark.parametrize("position", [0, 2, 4])
@pytest.mark.parametrize("kind", ["nan", "inf", "non-hermitian", "trace 0.9", "non-psd"])
def test_stacked_validation_raises_what_density_operator_raises(kind, position):
    rng = np.random.default_rng(17)
    good = [planted_spectrum(rng, 8, 0.01) for _ in range(4)]
    bad = _bad_density(kind, rng, 8)
    stack = np.stack(good[:position] + [bad] + good[position:])
    assert _raised(_validate_density_stack, stack) == _raised(DensityOperator, bad)
    _validate_density_stack(np.stack(good))


def test_stacked_validation_of_an_overflowing_deviation():
    stack = np.array([np.eye(2) / 2, OVERFLOWING], dtype=complex)
    assert _raised(_validate_density_stack, stack) == "matrix is not Hermitian (max deviation inf)"


def test_stacked_validation_raises_for_the_first_bad_matrix():
    rng = np.random.default_rng(18)
    first, second = _bad_density("trace 0.9", rng, 4), _bad_density("non-psd", rng, 4)
    stack = np.stack([planted_spectrum(rng, 4, 0.01), first, second])
    assert _raised(_validate_density_stack, stack) == _raised(DensityOperator, first)


@pytest.mark.parametrize("d", [2, 16])
def test_stacked_validation_decides_the_psd_boundary_as_density_operator(d):
    # Between -TOL_PSD and the certificate's floor -3*TOL_PSD/4 only the
    # eigensolve fallback accepts a matrix; below -TOL_PSD it rejects.
    rng = np.random.default_rng(d)
    for low in BOUNDARY:
        m = planted_spectrum(rng, d, low)
        stack = np.stack([planted_spectrum(rng, d, 0.0), m, planted_spectrum(rng, d, 0.01)])
        try:
            DensityOperator(m)
        except ValueError as exc:
            assert _raised(_validate_density_stack, stack) == str(exc)
        else:
            _validate_density_stack(stack)


def test_stacked_certificate_is_the_single_certificate_per_matrix(monkeypatch):
    # Every matrix factors, so one stacked factorization decides them all;
    # scaled by 1e5 a matrix still factors but fails the error bound.
    rng = np.random.default_rng(19)
    stack = np.stack([planted_spectrum(rng, 16, low) * scale for low in (0.0, TOL_PSD, 0.01) for scale in (1, 1e4, 1e5)])
    expected = [_psd_certified(m, TOL_PSD) for m in stack]
    assert True in expected and False in expected
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    assert _psd_certified(stack, TOL_PSD).tolist() == expected
    assert calls == [stack.shape]


def certificate_lows(tol):
    """Planted lambda_min around the certificate's floor -3*tol/4 and the cut -tol."""
    return (0.01, 0.0, -0.25 * tol, -0.7 * tol, -0.75 * tol, -0.8 * tol, -tol, -1.1 * tol)


CERTIFIED_LOWS = [True, True, True, False, False, False, False, False]


@pytest.mark.parametrize("tol", [TOL_PSD, 1e-6, 1e-3])
def test_stacked_certificate_at_any_tol(tol):
    # The certificate's floor is -3*tol/4 and map_negativity_check's cut is
    # -tol; a matrix below -tol/2 does not factor, so the stack falls back
    # to one certificate per matrix.
    rng = np.random.default_rng(21)
    stack = np.stack([planted_spectrum(rng, 16, low) for low in certificate_lows(tol)])
    expected = [_psd_certified(m, tol) for m in stack]
    assert expected == CERTIFIED_LOWS
    assert _psd_certified(stack, tol).tolist() == expected
    assert _psd_certified(stack.reshape(2, 4, 16, 16), tol).tolist() == [expected[:4], expected[4:]]


# Above every dimension, so _real_valued keeps each matrix complex.
COMPLEX_ONLY = 1 << (MAX_QUBITS + 1)


@pytest.mark.parametrize("d", [64, 128])
@pytest.mark.parametrize("tol", [TOL_PSD, 1e-6, 1e-3])
def test_real_valued_certificate_at_any_tol(monkeypatch, d, tol):
    # From d = 64 a real-valued matrix, as _real_valued hands it on, is
    # factored in real arithmetic; it is certified exactly where the complex
    # factorization certifies it.
    rng = np.random.default_rng(d)
    stack = np.stack([planted_spectrum(rng, d, low, real=True) for low in certificate_lows(tol)])
    assert linalg._real_valued(stack).dtype == np.float64
    assert [_psd_certified(linalg._real_valued(m), tol) for m in stack] == CERTIFIED_LOWS
    assert _psd_certified(linalg._real_valued(stack), tol).tolist() == CERTIFIED_LOWS
    monkeypatch.setattr(linalg, "_REAL_PATH_MIN_DIM", COMPLEX_ONLY)
    assert [_psd_certified(linalg._real_valued(m), tol) for m in stack] == CERTIFIED_LOWS


@pytest.mark.parametrize("real", [False, True])
@pytest.mark.parametrize("d", [64, 128, 256])
@pytest.mark.parametrize("tol", [TOL_PSD, 1e-6, 1e-3])
def test_gershgorin_certificate_of_diagonally_dominant_spectra(monkeypatch, tol, d, real):
    # Off-diagonal entries near 1e-3 tol / d leave the Gershgorin bound
    # within a small part of tol of lambda_min, so the screen certifies
    # exactly the planted lambda_min above the floor -3*tol/4, with no
    # factorization, and nothing below it: -0.7 tol, which the shifted
    # factorization cannot certify, is certified here.
    rng = np.random.default_rng(d + real)
    stack = np.stack([planted_spectrum(rng, d, low, real, spread=1e-3 * tol) for low in certificate_lows(tol)])
    if real:
        stack = linalg._real_valued(stack)
        assert stack.dtype == np.float64
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    floor = -0.75 * tol
    for low, m in zip(certificate_lows(tol), stack):
        del calls[:]
        certified = _psd_certified(m, tol)
        assert certified == (low > floor), (low, float(np.linalg.eigvalsh(m)[0]))
        assert calls == ([] if certified else [(d, d)])
    assert _psd_certified(stack, tol).tolist() == [low > floor for low in certificate_lows(tol)]


@pytest.mark.parametrize("phase", [1.0, np.exp(0.3j)])
@pytest.mark.parametrize("tol", [TOL_PSD, 1e-6, 1e-3])
def test_antidiagonal_pair_is_settled_by_a_screen_on_either_side(monkeypatch, tol, phase):
    # The 2x2 block on the pair (63, 0), with 1/4 on its diagonal, has
    # eigenvalue low; the rest of the diagonal is 1/124. Gershgorin's bound is
    # min(low, 1/124) up to rounding, so it certifies above the floor
    # -3*tol/4; the probe's v/2 is low, so it declines below -tol with no
    # factorization; only the lows in between are factored.
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    for low in certificate_lows(tol):
        m = np.diag(np.full(64, 0.5 / 62)).astype(complex)
        m[0, 0] = m[63, 63] = 0.25
        m[63, 0] = (0.25 - low) * phase
        m[0, 63] = np.conj(m[63, 0])
        assert abs(np.linalg.eigvalsh(m)[0] - min(low, 0.5 / 62)) < 1e-15
        if phase == 1.0:
            m = linalg._real_valued(m)
        del calls[:]
        certified = _psd_certified(m, tol)
        assert certified == (low > -0.75 * tol), low
        assert calls == ([] if certified or low < -tol else [(64, 64)]), low


@pytest.fixture
def cholesky_calls(monkeypatch):
    """The shapes np.linalg.cholesky is called with, in call order."""
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    return calls


def test_stack_of_screened_and_factored_matrices_is_certified_per_matrix(cholesky_calls):
    # At d = 64: GHZ is certified by Gershgorin's bound, its all:P image
    # fails the probe, and a product mixture and a matrix at lambda_min =
    # -0.9 TOL_PSD reach the factorization, where only the first factors.
    rng = np.random.default_rng(64)
    stack = np.stack([
        ghz(6).matrix,
        apply_product(ghz(6), MapSpec.all_qubits(6, MapKind.P)).matrix,
        random_multiseparable(6, 4, 1).matrix,
        planted_spectrum(rng, 64, -0.9 * TOL_PSD),
    ])
    expected = [_psd_certified(m, TOL_PSD) for m in stack]
    assert expected == [True, False, True, False]
    del cholesky_calls[:]
    assert _psd_certified(stack, TOL_PSD).tolist() == expected
    assert _psd_certified(stack.reshape(2, 2, 64, 64), TOL_PSD).tolist() == [expected[:2], expected[2:]]
    # From d = 64 a stack is certified matrix by matrix, so each of its two
    # open matrices is factored once, on its own.
    assert cholesky_calls == [(64, 64), (64, 64)] * 2


@pytest.mark.parametrize("planted_at", [0, 2, 3])
@pytest.mark.parametrize("n", [6, 7])
def test_stack_from_d_64_factors_each_open_matrix_once(cholesky_calls, n, planted_at):
    # Random-msep matrices and one at lambda_min = -0.9 TOL_PSD pass neither
    # screen, so all four are open; the planted one does not factor.
    d = 1 << n
    matrices = [random_multiseparable(n, 4, seed).matrix for seed in (1, 2, 3)]
    matrices.insert(planted_at, planted_spectrum(np.random.default_rng(d), d, -0.9 * TOL_PSD))
    stack = np.stack(matrices)
    del cholesky_calls[:]
    expected = [_psd_certified(m, TOL_PSD) for m in stack]
    assert expected == [i != planted_at for i in range(4)]
    assert cholesky_calls == [(d, d)] * 4
    del cholesky_calls[:]
    assert _psd_certified(stack, TOL_PSD).tolist() == expected
    assert cholesky_calls == [(d, d)] * 4


def test_stack_below_d_64_is_factored_in_one_call(cholesky_calls):
    # reproduce's soundness stacks are (50, 16, 16): one stacked Cholesky
    # certifies all of them, where 50 single calls took about 6x as long.
    stack = np.stack([random_multiseparable(4, 4, seed).matrix for seed in range(50)])
    del cholesky_calls[:]
    assert _psd_certified(stack, TOL_PSD).tolist() == [True] * 50
    assert cholesky_calls == [(50, 16, 16)]


def test_real_valued_takes_a_zero_imaginary_part_from_d_64():
    m = np.eye(64, dtype=complex) / 64
    m.imag[0, 1] = -0.0
    assert linalg._real_valued(m).dtype == np.float64
    assert linalg._real_valued(m[np.newaxis]).dtype == np.float64
    assert linalg._real_valued(m[:32, :32]).dtype == np.complex128
    m.imag[0, 1] = 5e-324
    assert linalg._real_valued(m) is m
    # Row 0 is read before the rest; either row alone keeps a matrix, and
    # a stack holding it, complex.
    for row in (0, 63):
        c = np.eye(64, dtype=complex) / 64
        c.imag[row, 1 - row % 2] = 1e-300
        stack = np.stack([np.eye(64, dtype=complex) / 64, c])
        assert linalg._real_valued(c) is c
        assert linalg._real_valued(stack) is stack
        assert linalg._real_valued(stack[:1]).dtype == np.float64


@pytest.mark.parametrize(
    "family, n, dtype",
    [("xz", 6, np.float64), ("xz", 8, np.float64), ("random-msep", 6, np.complex128), ("ghz", 5, np.complex128)],
)
def test_certificate_factors_real_valued_images_from_d_64_in_real_arithmetic(monkeypatch, family, n, dtype):
    # xz is a product state with Bloch vectors in the xz plane: real-valued,
    # and neither it nor its all:P image is settled by a screen. GHZ from
    # d = 64 is, so its d = 32 case alone is factored, in complex arithmetic.
    seen = []
    cholesky = np.linalg.cholesky

    def recording(a):
        seen.append(a.dtype)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", recording)
    rho = {
        "xz": lambda: product_state([(0.2, 0.0, 0.3)] * n),
        "ghz": lambda: ghz(n),
        "random-msep": lambda: random_multiseparable(n, 4, 1),
    }[family]()
    map_negativity_check(rho, MapSpec.all_qubits(n, MapKind.P))
    assert len(seen) == 2 and set(seen) == {np.dtype(dtype)}


def _real_valued_defect(kind):
    m = np.eye(64, dtype=complex) / 64
    if kind == "asymmetric":
        m[0, 1] = 1e-6
    elif kind == "nan":
        m[3, 5] = np.nan
    elif kind == "inf":
        m[3, 3] = np.inf
    else:
        m[0, 1], m[1, 0] = OVERFLOWING[0][1], OVERFLOWING[1][0]
    return m


@pytest.mark.parametrize(
    "kind, message",
    [
        ("asymmetric", "matrix is not Hermitian (max deviation 1.000e-06)"),
        ("nan", "matrix has NaN or infinite entries"),
        ("inf", "matrix has NaN or infinite entries"),
        ("overflow", "matrix is not Hermitian (max deviation inf)"),
    ],
)
def test_real_valued_defects_raise_the_complex_route_messages(monkeypatch, kind, message):
    m = _real_valued_defect(kind)
    stack = np.stack([np.eye(64, dtype=complex) / 64, m])
    for route in (_REAL_PATH, COMPLEX_ONLY):
        monkeypatch.setattr(linalg, "_REAL_PATH_MIN_DIM", route)
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            for validate in (HermitianOperator, DensityOperator, _validate_density_stack):
                assert _raised(validate, stack if validate is _validate_density_stack else m) == message


def test_certificate_of_an_empty_stack():
    for tol in (TOL_PSD, 0.0):
        assert _psd_certified(np.zeros((0, 4, 4), dtype=complex), tol).shape == (0,)


@pytest.mark.parametrize("position", [0, 3, 6])
def test_stacked_validation_hands_only_an_uncertified_matrix_to_density_operator(monkeypatch, position):
    # lambda_min = -0.9 TOL_PSD: the shifted factorization fails, so the
    # stacked one raises, yet the eigensolve accepts the matrix.
    rng = np.random.default_rng(20 + position)
    good = [planted_spectrum(rng, 8, 0.01) for _ in range(6)]
    low = planted_spectrum(rng, 8, -0.9 * TOL_PSD)
    stack = np.stack(good[:position] + [low] + good[position:])
    assert not _psd_certified(low, TOL_PSD)
    assert _psd_certified(stack, TOL_PSD).tolist() == [_psd_certified(m, TOL_PSD) for m in stack]
    handed = []
    density = linalg.DensityOperator

    def recording(matrix):
        handed.append(matrix)
        return density(matrix)

    monkeypatch.setattr(linalg, "DensityOperator", recording)
    _validate_density_stack(stack)
    assert len(handed) == 1
    assert np.array_equal(handed[0], low)


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
    # -1 was Python's "negative shift count"; a huge n built 1 << n first.
    for n in (-1, 0, MAX_QUBITS + 1):
        with pytest.raises(ValueError, match=f"^n_qubits {n} is outside 1..{MAX_QUBITS}$"):
            hamming(0, 0, n)
    assert hamming(0, (1 << MAX_QUBITS) - 1, MAX_QUBITS) == MAX_QUBITS


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
        rho = product_state([tuple(v)])
        back = product_state([bloch_from_density(rho)])
        assert np.max(np.abs(rho.matrix - back.matrix)) <= 1e-12
        done += 1


def test_bloch_requires_single_qubit_and_ball():
    with pytest.raises(ValueError):
        bloch_from_density(DensityOperator(np.eye(4) / 4))
    with pytest.raises(ValueError):
        product_state([(0.6, 0.0, 0.0)])
