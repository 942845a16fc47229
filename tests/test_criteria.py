import math

import numpy as np
import pytest

from insep import (
    Criterion,
    DensityOperator,
    DetectionReport,
    HermitianOperator,
    MapKind,
    MapSpec,
    Verdict,
    apply_product,
    equal_argument_check,
    hamming_offdiagonal_check,
    lemma1_bound_check,
    lemma2_witness_value,
    lz_antidiagonal_check,
    map_negativity_check,
    min_eigenvalue,
)
from insep.criteria import _best_offdiagonal
from insep.states import (
    Bell,
    bell_state,
    ghz,
    horodecki_b,
    isotropic,
    product_state,
    pure_superposition,
    random_bloch,
    random_multiseparable,
    mixture_rng,
)


def exhaustive_bound_scan(matrix, n):
    # independent oracle: plain loops, bit strings via bin()
    hits = []
    d = 1 << n
    for a in range(d):
        for b in range(d):
            if a == b:
                continue
            h = bin(a ^ b).count("1")
            if abs(matrix[a, b]) > 0.5**h + 1e-9:
                hits.append((a, b))
    return hits


def nonneg_mixture(rng, n, terms):
    d = 1 << n
    acc = np.zeros((d, d))
    w = rng.uniform(0, 1, terms)
    w /= w.sum()
    for t in range(terms):
        v = rng.uniform(0, 1, d)
        v /= np.linalg.norm(v)
        acc += w[t] * np.outer(v, v)
    return DensityOperator(acc, n)


# ---------------------------------------------------------------- reports

def test_inseparable_report_requires_witness():
    with pytest.raises(ValueError, match="witness"):
        DetectionReport(Verdict.INSEPARABLE, Criterion.LZ_ANTIDIAGONAL)


# ---------------------------------------------------------------- antidiagonal check

def test_lz_detects_ghz():
    report = lz_antidiagonal_check(ghz(3))
    assert report.verdict is Verdict.INSEPARABLE
    assert report.criterion is Criterion.LZ_ANTIDIAGONAL
    w = report.witness
    assert (w.a, w.b) == (7, 0)
    assert abs(w.value) == pytest.approx(0.5, abs=1e-12)
    assert w.bound == pytest.approx(0.125)
    assert w.hamming_distance == 3


def test_lz_inconclusive_on_maximally_mixed():
    rho = DensityOperator(np.eye(8) / 8)
    assert lz_antidiagonal_check(rho).verdict is Verdict.INCONCLUSIVE


def test_lz_detects_two_qubit_corner():
    report = lz_antidiagonal_check(pure_superposition(0.5))
    assert report.verdict is Verdict.INSEPARABLE
    assert (report.witness.a, report.witness.b) == (3, 0)
    assert abs(report.witness.value) == pytest.approx(0.5, abs=1e-12)


# ---------------------------------------------------------------- hamming check

def test_hamming_detects_b_family_witness():
    report = hamming_offdiagonal_check(horodecki_b(0.1))
    assert report.verdict is Verdict.INSEPARABLE
    w = report.witness
    assert (w.a, w.b) == (7, 4)
    assert w.hamming_distance == 2
    assert w.bound == pytest.approx(0.25)
    assert abs(w.value) == pytest.approx(math.sqrt(0.99) / 3.4, abs=1e-14)


def test_hamming_inconclusive_matches_exhaustive_scan():
    rho = horodecki_b(0.2)
    assert exhaustive_bound_scan(rho.matrix, 3) == []
    assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE


def test_hamming_inconclusive_on_product_states():
    rng = mixture_rng(31)
    for _ in range(50):
        n = int(rng.integers(1, 5))
        rho = product_state(random_bloch(rng) for _ in range(n))
        assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE


def test_hamming_scan_cap():
    rho = DensityOperator(np.eye(512) / 512, 9)
    with pytest.raises(ValueError, match="capped"):
        hamming_offdiagonal_check(rho)


def test_subsumption_of_antidiagonal_check():
    rng = mixture_rng(32)
    fired = 0
    for _ in range(40):
        n = int(rng.integers(2, 5))
        q = float(rng.uniform(0, 1))
        noisy = (1 - q) * ghz(n).matrix + q * np.eye(1 << n) / (1 << n)
        rho = DensityOperator(noisy, n)
        lz = lz_antidiagonal_check(rho)
        if lz.verdict is Verdict.INSEPARABLE:
            fired += 1
            general = hamming_offdiagonal_check(rho)
            assert general.verdict is Verdict.INSEPARABLE
            assert general.witness.margin >= lz.witness.margin - 1e-15
    assert fired > 0


def test_witness_tie_breaks_lexicographically():
    # white-box: equal margins at (3,0) and (2,1); row-major scan picks (2,1)
    m = np.zeros((4, 4), dtype=complex)
    m[3, 0] = m[0, 3] = 0.3
    m[2, 1] = m[1, 2] = 0.3
    w = _best_offdiagonal(m, 2, antidiagonal_only=False)
    assert (w.a, w.b) == (2, 1)


# ---------------------------------------------------------------- map negativity

def test_map_negativity_on_isotropic():
    report = map_negativity_check(isotropic(0.5), MapSpec.single(2, MapKind.P))
    assert report.verdict is Verdict.INSEPARABLE
    assert report.criterion is Criterion.MAP_NEGATIVITY
    assert report.witness.min_eigenvalue == pytest.approx(-1 / 12, abs=1e-12)
    assert report.map_spec == MapSpec.single(2, MapKind.P)


def test_map_negativity_interval_is_narrower_for_p_than_t():
    rho = isotropic(1.5)
    assert map_negativity_check(rho, MapSpec.single(2, MapKind.P)).verdict is Verdict.INCONCLUSIVE
    report = map_negativity_check(rho, MapSpec.single(2, MapKind.T))
    assert report.verdict is Verdict.INSEPARABLE
    assert report.witness.min_eigenvalue == pytest.approx((1.5 - 2) / 10, abs=1e-12)


def test_map_negativity_misses_weakly_entangled_pure_state():
    report = map_negativity_check(pure_superposition(0.05), MapSpec.all_qubits(2, MapKind.P))
    assert report.verdict is Verdict.INCONCLUSIVE


def test_map_negativity_eigenvector_witness():
    report = map_negativity_check(isotropic(0.0), MapSpec.single(2, MapKind.P))
    sigma = apply_product(isotropic(0.0), MapSpec.single(2, MapKind.P))
    v = report.witness.eigenvector
    quad = np.vdot(v, sigma.matrix @ v).real
    assert quad == pytest.approx(report.witness.min_eigenvalue, abs=1e-12)


def test_map_negativity_tolerance_override():
    rho = isotropic(0.99)
    # min eigenvalue (s-1)/(4s+4) ~ -1.256e-3
    assert map_negativity_check(rho, MapSpec.single(2, MapKind.P)).verdict is Verdict.INSEPARABLE
    relaxed = map_negativity_check(rho, MapSpec.single(2, MapKind.P), tol=0.01)
    assert relaxed.verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize("tol", [-1.0, -1e-12, math.nan, math.inf])
def test_map_negativity_rejects_negative_or_non_finite_tol(tol):
    # With tol = -1 the identity map would call this product state inseparable.
    rho = random_multiseparable(2, terms=1, seed=3)
    with pytest.raises(ValueError, match="tolerance"):
        map_negativity_check(rho, MapSpec.single(1, MapKind.IDENTITY), tol=tol)
    assert map_negativity_check(rho, MapSpec.single(1, MapKind.IDENTITY), tol=0.0).verdict is Verdict.INCONCLUSIVE


# ---------------------------------------------------------------- lemma 2

def test_lemma2_on_fully_mapped_bell():
    sigma = apply_product(pure_superposition(0.5), MapSpec.all_qubits(2, MapKind.P))
    value = lemma2_witness_value(sigma, 0, 3)
    assert value == pytest.approx(2 * (0.25 - 0.5), abs=1e-12)
    assert min_eigenvalue(sigma) < -1e-9  # negative witness implies negative operator


def test_lemma2_small_and_boundary_elements():
    m = np.eye(4, dtype=complex) / 4
    m[1, 0] = m[0, 1] = 0.01
    assert lemma2_witness_value(HermitianOperator(m), 1, 0) == pytest.approx(2 * (0.25 - 0.01), abs=1e-15)
    m2 = np.eye(4, dtype=complex) / 4
    m2[3, 0] = m2[0, 3] = 0.25
    assert lemma2_witness_value(HermitianOperator(m2), 3, 0) == pytest.approx(0.0, abs=1e-15)


def test_lemma2_rejects_bad_indices():
    sigma = HermitianOperator(np.eye(4) / 4)
    with pytest.raises(ValueError, match="distinct"):
        lemma2_witness_value(sigma, 2, 2)
    with pytest.raises(ValueError, match="zero"):
        lemma2_witness_value(sigma, 0, 1)
    with pytest.raises(ValueError, match="range"):
        lemma2_witness_value(sigma, 0, 7)


def test_lemma2_agreement_with_min_eigenvalue():
    rng = mixture_rng(33)
    for _ in range(100):
        rho = nonneg_mixture(rng, 2, 2)
        sigma = apply_product(rho, MapSpec.all_qubits(2, MapKind.P))
        m = sigma.matrix
        for a in range(4):
            for b in range(4):
                if a == b or abs(m[a, b]) == 0:
                    continue
                if lemma2_witness_value(sigma, a, b) < -1e-9:
                    assert min_eigenvalue(sigma) < -1e-9


# ---------------------------------------------------------------- equal argument

def test_equal_argument_accepts_nonnegative_matrices():
    assert equal_argument_check(horodecki_b(0.3))


def test_equal_argument_rejects_mixed_phases():
    m = np.eye(4, dtype=complex) / 4
    m[2, 1] = 0.1 * np.exp(1j * np.pi / 4)
    m[1, 2] = np.conj(m[2, 1])
    m[3, 0] = -0.1
    m[0, 3] = -0.1
    assert not equal_argument_check(HermitianOperator(m))


def test_equal_argument_ignores_zero_elements_and_handles_wraparound():
    m = np.eye(4, dtype=complex) / 4
    m[3, 0] = -0.1  # argument pi
    m[0, 3] = -0.1
    m[2, 0] = -0.05 * np.exp(1e-12j)  # argument within tolerance of pi, other side
    m[0, 2] = np.conj(m[2, 0])
    assert equal_argument_check(HermitianOperator(m))


def test_full_p_map_preserves_equal_argument_structure():
    rng = mixture_rng(34)
    for _ in range(50):
        rho = nonneg_mixture(rng, 3, 3)
        assert equal_argument_check(rho)
        mapped = apply_product(rho, MapSpec.all_qubits(3, MapKind.P))
        assert equal_argument_check(mapped)
        # the map never rotates an element's phase
        keep = (np.abs(rho.matrix) > 1e-12) & (np.abs(mapped.matrix) > 1e-12)
        angles = np.angle(mapped.matrix[keep] * np.conj(rho.matrix[keep]))
        assert np.max(np.abs(angles), initial=0.0) <= 1e-9


# ---------------------------------------------------------------- lemma 1

def test_full_p_map_keeps_antidiagonal_elements_exactly():
    rng = mixture_rng(35)
    for _ in range(20):
        rho = nonneg_mixture(rng, 3, 2)
        mapped = apply_product(rho, MapSpec.all_qubits(3, MapKind.P))
        for a in range(8):
            assert mapped.matrix[a, 7 - a] == rho.matrix[a, 7 - a]


def test_lemma1_bound_on_b_family_element():
    rho = horodecki_b(0.1)
    assert lemma1_bound_check(rho, 7, 4)
    mapped = apply_product(rho, MapSpec.all_qubits(3, MapKind.P))
    assert abs(mapped.matrix[7, 4]) >= abs(rho.matrix[7, 4]) / 2 - 1e-12


def test_lemma1_preconditions():
    rho = horodecki_b(0.1)
    with pytest.raises(ValueError, match="a != b"):
        lemma1_bound_check(rho, 3, 3)
    m = np.eye(4, dtype=complex) / 4
    m[2, 1] = 0.1j
    m[1, 2] = -0.1j
    m[3, 0] = 0.1
    m[0, 3] = 0.1
    with pytest.raises(ValueError, match="equal-argument"):
        lemma1_bound_check(HermitianOperator(m), 3, 0)


# ---------------------------------------------------------------- consistency

def test_antidiagonal_violation_implies_full_p_negativity():
    rng = mixture_rng(36)
    fired = 0
    for _ in range(200):
        rho = nonneg_mixture(rng, 3, 1 + int(rng.integers(3)))
        lz = lz_antidiagonal_check(rho)
        if lz.verdict is Verdict.INSEPARABLE:
            fired += 1
            report = map_negativity_check(rho, MapSpec.all_qubits(3, MapKind.P))
            assert report.verdict is Verdict.INSEPARABLE
    assert fired > 10


def test_equal_argument_bound_violation_implies_full_p_negativity():
    rng = mixture_rng(37)
    fired = 0
    for _ in range(200):
        rho = nonneg_mixture(rng, 3, 1 + int(rng.integers(3)))
        report = hamming_offdiagonal_check(rho)
        if report.verdict is Verdict.INSEPARABLE:
            fired += 1
            mapped = map_negativity_check(rho, MapSpec.all_qubits(3, MapKind.P))
            assert mapped.verdict is Verdict.INSEPARABLE
    assert fired > 10


def test_soundness_on_random_product_mixtures():
    for n in (2, 3):
        for i in range(100):
            rho = random_multiseparable(n, terms=1 + i % 4, seed=1000 + i)
            assert lz_antidiagonal_check(rho).verdict is Verdict.INCONCLUSIVE
            assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE
            spec = MapSpec.all_qubits(n, MapKind.P)
            assert map_negativity_check(rho, spec).verdict is Verdict.INCONCLUSIVE


def test_criteria_inconclusive_on_bell_mixture_without_corner():
    # equal mixture of two Bell projectors has no off-diagonal excess and
    # stays positive under the full-P map
    rho = DensityOperator((bell_state(Bell.PHI_PLUS).matrix + bell_state(Bell.PHI_MINUS).matrix) / 2)
    assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE
    assert map_negativity_check(rho, MapSpec.all_qubits(2, MapKind.P)).verdict is Verdict.INCONCLUSIVE
