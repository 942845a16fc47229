import hashlib
import math

import numpy as np
import pytest

from insep import (
    BlochVector,
    DensityOperator,
    MapKind,
    Verdict,
    apply_on_qubit,
    density_from_bloch,
    lz_antidiagonal_check,
    min_eigenvalue,
    tensor,
)
from insep import states
from insep.linalg import _bloch_matrix
from insep.states import (
    Bell,
    _bloch_points,
    bell_ket,
    bell_state,
    ghz,
    horodecki_b,
    isotropic,
    mixture_rng,
    product_state,
    pure_superposition,
    random_bloch,
    random_multiseparable,
)


def reference_b_matrix(b):
    # assembled straight from the closed form, element by element
    root = math.sqrt(1 - b * b) / 2
    half = (1 + b) / 2
    rows = [
        [b, 0, 0, 0, 0, b, 0, 0],
        [0, b, 0, 0, 0, 0, b, 0],
        [0, 0, b, 0, 0, 0, 0, b],
        [0, 0, 0, b, 0, 0, 0, 0],
        [0, 0, 0, 0, half, 0, 0, root],
        [b, 0, 0, 0, 0, b, 0, 0],
        [0, b, 0, 0, 0, 0, b, 0],
        [0, 0, b, 0, root, 0, 0, half],
    ]
    return np.array(rows) / (7 * b + 1)


# ---------------------------------------------------------------- b family

@pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
def test_horodecki_b_matches_reference_entries(b):
    got = horodecki_b(b).matrix
    assert np.array_equal(got, reference_b_matrix(b).astype(complex))


def test_horodecki_b_known_element_and_range():
    rho = horodecki_b(0.1)
    assert rho.matrix[7, 4].real == pytest.approx(math.sqrt(0.99) / 3.4, abs=1e-15)
    assert rho.trace() == pytest.approx(1.0, abs=1e-12)
    for bad in (0.0, 1.0, -0.2, 1.7):
        with pytest.raises(ValueError):
            horodecki_b(bad)


@pytest.mark.parametrize("b", [0.1, 0.5, 0.9])
def test_horodecki_b_positive_under_first_qubit_transpose(b):
    out = apply_on_qubit(horodecki_b(b), 1, MapKind.T)
    assert min_eigenvalue(out) >= -1e-9


# ---------------------------------------------------------------- isotropic

def test_isotropic_at_zero_is_bell_projector():
    for bell in Bell:
        assert np.allclose(isotropic(0.0, bell).matrix, bell_state(bell).matrix)


@pytest.mark.parametrize("bell", list(Bell))
@pytest.mark.parametrize("s", [0.0, 0.5, 2.0, 10.0, -4.0, -5.0])
def test_isotropic_partial_transpose_spectrum(s, bell):
    out = apply_on_qubit(isotropic(s, bell), 2, MapKind.T)
    got = np.linalg.eigvalsh(out.matrix)
    expected = np.sort([(s - 2) / (4 * s + 4)] + [(s + 2) / (4 * s + 4)] * 3)
    assert np.max(np.abs(got - expected)) <= 1e-12


def test_isotropic_large_s_approaches_maximally_mixed():
    rho = isotropic(1e6)
    assert np.max(np.abs(rho.matrix - np.eye(4) / 4)) <= 1e-5


def test_isotropic_rejects_forbidden_interval():
    for s in (-0.5, -2.0, -3.999):
        with pytest.raises(ValueError):
            isotropic(s)


# ---------------------------------------------------------------- pure superposition

def test_pure_superposition_structure():
    p = 0.3
    rho = pure_superposition(p)
    assert rho.matrix[0, 0].real == pytest.approx(p, abs=1e-15)
    assert rho.matrix[3, 3].real == pytest.approx(1 - p, abs=1e-15)
    assert rho.matrix[0, 3].real == pytest.approx(math.sqrt(p * (1 - p)), abs=1e-15)
    assert np.allclose(pure_superposition(0.5).matrix, bell_state(Bell.PHI_PLUS).matrix)
    for bad in (0.0, 1.0, -0.1, 2.0):
        with pytest.raises(ValueError):
            pure_superposition(bad)


def test_pure_superposition_partial_p_minimum():
    # 1/4 - sqrt(p(1-p)) at p = 0.9 is -0.05
    out = apply_on_qubit(apply_on_qubit(pure_superposition(0.9), 1, MapKind.P), 2, MapKind.P)
    assert min_eigenvalue(out) == pytest.approx(0.25 - math.sqrt(0.09), abs=1e-12)


# ---------------------------------------------------------------- ghz

def test_ghz_matches_bell_at_two_qubits():
    assert np.allclose(ghz(2).matrix, bell_state(Bell.PHI_PLUS).matrix)


def test_ghz_corner_and_detection():
    rho = ghz(3)
    assert rho.matrix[0, 7].real == pytest.approx(0.5, abs=1e-12)
    report = lz_antidiagonal_check(rho)
    assert report.verdict is Verdict.INSEPARABLE
    assert (report.witness.a, report.witness.b) == (7, 0)


def test_ghz_rejects_bad_sizes():
    with pytest.raises(ValueError):
        ghz(1)
    with pytest.raises(ValueError):
        ghz(13)


# ---------------------------------------------------------------- product & mixtures

def test_product_of_centered_bloch_vectors_is_maximally_mixed():
    for n in (1, 2, 3):
        rho = product_state([(0.0, 0.0, 0.0)] * n)
        assert np.allclose(rho.matrix, np.eye(1 << n) / (1 << n))


def test_product_state_matches_chained_tensor():
    blochs = [(0.1, 0.2, 0.3), (0.0, -0.4, 0.1), (0.2, 0.2, -0.2)]
    expected = density_from_bloch(blochs[0])
    for v in blochs[1:]:
        expected = tensor(expected, density_from_bloch(v))
    rho = product_state(blochs)
    assert isinstance(rho, DensityOperator)
    assert rho.n_qubits == 3
    assert np.array_equal(rho.matrix, expected.matrix)


def test_product_state_rejects_bad_input(monkeypatch):
    with pytest.raises(ValueError, match="Bloch ball"):
        product_state([(0.0, 0.0, 0.0), (0.4, 0.4, 0.0)])
    with pytest.raises(ValueError, match="at least one"):
        product_state([])
    # Over the qubit cap: rejected before any Kronecker product is built.
    monkeypatch.setattr(states, "_kron_chain", None)
    with pytest.raises(ValueError, match="cap"):
        product_state([(0.0, 0.0, 0.0)] * 13)
    monkeypatch.undo()
    # A point on the sphere within TOL_PSD is a valid pure factor.
    assert product_state([BlochVector(0.0, 0.0, 0.5)]).matrix[1, 1] == 0


def test_bell_kets_are_orthonormal():
    kets = [bell_ket(b) for b in Bell]
    gram = np.array([[np.vdot(u, v) for v in kets] for u in kets])
    assert np.allclose(gram, np.eye(4), atol=1e-15)


def test_random_multiseparable_is_deterministic_and_valid():
    a = random_multiseparable(3, 4, seed=42)
    b = random_multiseparable(3, 4, seed=42)
    c = random_multiseparable(3, 4, seed=43)
    assert np.array_equal(a.matrix, b.matrix)
    assert not np.array_equal(a.matrix, c.matrix)
    assert isinstance(a, DensityOperator)
    assert a.trace() == pytest.approx(1.0, abs=1e-12)


def test_random_multiseparable_validates_arguments():
    with pytest.raises(ValueError):
        random_multiseparable(0, 3, seed=1)
    with pytest.raises(ValueError):
        random_multiseparable(13, 3, seed=1)
    with pytest.raises(ValueError):
        random_multiseparable(2, 0, seed=1)


def test_random_multiseparable_bytes_are_pinned():
    # sha256 of the matrix bytes as first built, one factor at a time;
    # building the factors in bulk must not change a single bit.
    rho = random_multiseparable(4, 3, seed=7)
    digest = hashlib.sha256(rho.matrix.tobytes()).hexdigest()
    assert digest == "4e4c18b9f00bbdd29434b89b84c4121da4b34743c0229bb3b415963faac8e936"


def test_random_multiseparable_certifies_psd_with_one_cholesky(monkeypatch):
    # A product mixture is PSD, so its one validation is settled by the
    # shifted Cholesky certificate and needs no eigensolve.
    calls = []
    for name in ("cholesky", "eigvalsh", "eigh"):
        original = getattr(np.linalg, name)

        def counting(a, *args, _name=name, _original=original, **kwargs):
            calls.append((_name, a.shape))
            return _original(a, *args, **kwargs)

        monkeypatch.setattr(np.linalg, name, counting)
    rho = random_multiseparable(4, 5, seed=7)
    assert calls == [("cholesky", (16, 16))]
    assert isinstance(rho, DensityOperator)


class _CountingRng:
    """Passes uniform() through to a generator and counts the calls."""

    def __init__(self, rng):
        self.rng = rng
        self.calls = 0

    def uniform(self, *args):
        self.calls += 1
        return self.rng.uniform(*args)


def test_bloch_points_equal_successive_random_bloch_draws():
    redraws = 0
    for seed in (0, 1, 7, 42, 2**31 - 1):
        for count in range(1, 201):
            rng = _CountingRng(mixture_rng(seed))
            got = _bloch_points(rng, count)
            twin = mixture_rng(seed)
            expected = np.array([random_bloch(twin) for _ in range(count)])
            assert got.shape == (count, 3)
            assert got.tobytes() == expected.tobytes()
            redraws += rng.calls > 1
    # Some counts must have needed a second block.
    assert redraws > 0


def _reference_multiseparable(n, terms, seed):
    # The builder as first written: one factor at a time, chained np.kron.
    rng = mixture_rng(seed)
    weights = rng.uniform(0, 1, terms)
    weights /= weights.sum()
    acc = np.zeros((1 << n, 1 << n), dtype=np.complex128)
    for w in weights:
        out = _bloch_matrix(random_bloch(rng))
        for _ in range(n - 1):
            out = np.kron(out, _bloch_matrix(random_bloch(rng)))
        acc += w * out
    return acc


@pytest.mark.parametrize("n", range(1, 9))
def test_random_multiseparable_matches_reference_builder(n):
    for terms in range(1, 8):
        for seed in (3, 11):
            got = random_multiseparable(n, terms, seed).matrix
            assert got.tobytes() == _reference_multiseparable(n, terms, seed).tobytes()
