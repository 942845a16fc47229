import math

import numpy as np
import pytest

from insep import (
    Criterion,
    DensityOperator,
    DetectionReport,
    EigenvalueWitness,
    HermitianOperator,
    MapKind,
    MapSpec,
    Verdict,
    apply_product,
    equal_argument_check,
    hamming,
    hamming_offdiagonal_check,
    lemma1_bound_check,
    lemma2_witness_value,
    lz_antidiagonal_check,
    map_negativity_check,
    min_eigenvalue,
)
from insep.criteria import (
    _HALF_POWERS,
    TOL_CRIT,
    _best_offdiagonal,
    _hamming_blocks,
    _lemma1_holds,
    _lz_blocks,
    _violates,
)
from insep.linalg import TOL_PSD, _psd_certified
from insep.reproduce import _soundness_specs
from insep.states import (
    Bell,
    _multiseparable_stack,
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

def test_report_is_inseparable_exactly_when_it_holds_a_witness():
    spec = MapSpec.single(1, MapKind.T)
    witness = EigenvalueWitness(min_eigenvalue=-1.0, eigenvector=np.array([1.0, 0.0], dtype=complex))
    bare = DetectionReport(criterion=Criterion.MAP_NEGATIVITY, map_spec=spec)
    held = DetectionReport(criterion=Criterion.MAP_NEGATIVITY, witness=witness, map_spec=spec)
    assert bare.verdict is Verdict.INCONCLUSIVE
    assert held.verdict is Verdict.INSEPARABLE
    # The verdict is read, never stored: no call can contradict the witness.
    with pytest.raises(TypeError):
        DetectionReport(Verdict.INSEPARABLE, Criterion.LZ_ANTIDIAGONAL)
    with pytest.raises(TypeError, match="verdict"):
        DetectionReport(verdict=Verdict.INCONCLUSIVE, criterion=Criterion.MAP_NEGATIVITY, witness=witness)

    head = [("verdict", "inconclusive"), ("criterion", "map-negativity"), ("map-spec", spec)]
    assert bare.lines() == head
    assert held.lines() == [("verdict", "inseparable"), *head[1:], *witness.lines()]
    lz = lz_antidiagonal_check(ghz(3))
    assert lz.lines() == [("verdict", "inseparable"), ("criterion", "lz-antidiagonal"), *lz.witness.lines()]
    flat = hamming_offdiagonal_check(DensityOperator(np.eye(8) / 8))
    assert flat.lines() == [("verdict", "inconclusive"), ("criterion", "hamming-offdiagonal")]

    seen = set()
    for rho, spec in decision_sweep():
        for report in (map_negativity_check(rho, spec), lz_antidiagonal_check(rho), hamming_offdiagonal_check(rho)):
            assert (report.verdict is Verdict.INSEPARABLE) == (report.witness is not None)
            seen.add((report.criterion, report.verdict))
    assert len(seen) == 6


# The traceless matrix with 5 at (0, 3) and (3, 0) beats both off-diagonal
# bounds, and diag(1.5, -0.5, 0, 0) is negative under every map: neither is a state.
NOT_STATES = {
    "HermitianOperator": HermitianOperator(np.array([[0, 0, 0, 5], [0] * 4, [0] * 4, [5, 0, 0, 0]])),
    "ndarray": np.diag([1.5, -0.5, 0, 0]),
    "NoneType": None,
}


@pytest.mark.parametrize("kind", NOT_STATES)
@pytest.mark.parametrize(
    "check",
    [lz_antidiagonal_check, hamming_offdiagonal_check, lambda rho: map_negativity_check(rho, MapSpec.single(1, MapKind.T))],
    ids=["lz", "hamming", "map"],
)
def test_checks_take_only_a_state(check, kind):
    with pytest.raises(TypeError, match=f"^expected a DensityOperator, got {kind}$"):
        check(NOT_STATES[kind])
    with pytest.raises(TypeError, match="^expected a DensityOperator, got HermitianOperator$"):
        check(HermitianOperator(np.diag([1.5, -0.5, 0, 0])))


# ---------------------------------------------------------------- antidiagonal check

def test_witness_lines_give_the_report_labels_in_order():
    off = lz_antidiagonal_check(ghz(3)).witness
    assert off.lines() == [
        ("witness-element", (7, 0)),
        ("witness-value", off.value),
        ("witness-abs", abs(off.value)),
        ("hamming-distance", 3),
        ("bound", 0.125),
    ]
    eig = map_negativity_check(ghz(3), MapSpec.all_qubits(3, MapKind.P)).witness
    assert [label for label, _ in eig.lines()] == ["min-eigenvalue", "eigenvector"]
    assert eig.lines()[0][1] == eig.min_eigenvalue
    assert eig.lines()[1][1] is eig.eigenvector


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


def full_matrix_witness(m):
    """First maximal |m_ab| - 2^-h(a,b) over the whole lower triangle, or None."""
    a, b = np.tril_indices(m.shape[0], -1)
    margins = np.abs(m[a, b]) - 0.5 ** np.bitwise_count(a ^ b)
    k = int(np.argmax(margins))
    return None if margins[k] <= TOL_CRIT else (int(a[k]), int(b[k]))


def test_hamming_tie_across_row_blocks_goes_to_the_smaller_pair():
    # equal margins 0.2 - 2^-8 in the 256-row blocks 1 and 3, both with h = 8
    m = np.zeros((1024, 1024), dtype=complex)
    for a, b in ((467, 300), (1000, 791)):
        assert (a ^ b).bit_count() == 8
        m[a, a] = m[b, b] = 0.25
        m[a, b] = m[b, a] = 0.2
    w = hamming_offdiagonal_check(DensityOperator(m, 10)).witness
    assert (w.a, w.b, w.value, w.hamming_distance) == (467, 300, 0.2, 8)
    assert full_matrix_witness(m) == (467, 300)


@pytest.mark.parametrize("n", [9, 10])
def test_hamming_beyond_one_block_matches_the_full_matrix_scan(n):
    d = 1 << n
    noisy = DensityOperator(0.5 * ghz(n).matrix + 0.5 * np.eye(d) / d, n)
    w = hamming_offdiagonal_check(noisy).witness
    assert (w.a, w.b) == full_matrix_witness(noisy.matrix) == (d - 1, 0)
    for seed in (1, 2):
        rho = random_multiseparable(n, 3, seed)
        assert full_matrix_witness(rho.matrix) is None
        assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE


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


def test_half_power_table_is_bit_identical_to_the_float_power():
    assert len(_HALF_POWERS) == 13
    for h in range(13):
        assert _HALF_POWERS[h].tobytes() == np.float64(0.5**h).tobytes()


def test_witness_tie_breaks_lexicographically():
    # white-box: equal margins at (3,0) and (2,1); row-major scan picks (2,1)
    m = np.zeros((4, 4), dtype=complex)
    m[3, 0] = m[0, 3] = 0.3
    m[2, 1] = m[1, 2] = 0.3
    w = _best_offdiagonal(_hamming_blocks(m))
    assert (w.a, w.b) == (2, 1)


@pytest.mark.parametrize("n", [1, 2, 3, 4, 9])
def test_each_criterion_has_its_pairs_and_bounds_in_one_builder(n):
    # At n = 9 the hamming scan spans two blocks of 256 rows.
    d = 1 << n
    m = np.zeros((d, d))
    finite = []
    for values, a, b, bound in _hamming_blocks(m):
        assert a.ndim == b.ndim == bound.ndim == 2
        a, b, bound = np.broadcast_arrays(a, b, bound)
        assert values.shape == bound.shape
        keep = np.isfinite(bound)
        finite += zip(a[keep].tolist(), b[keep].tolist(), bound[keep].tolist())
    assert finite == [(a, b, 0.5 ** (a ^ b).bit_count()) for a in range(d) for b in range(a)]
    [(values, a, b, bound)] = _lz_blocks(m)
    assert values.shape == a.shape == b.shape == (d // 2, 1)
    assert list(zip(a.ravel().tolist(), b.ravel().tolist())) == [(a, d - 1 - a) for a in range(d // 2, d)]
    assert bound.shape == (1, 1) and bound.item() == 0.5**n


def test_antidiagonal_tie_breaks_lexicographically():
    # equal margins 0.2 - 1/8 at (5,2) and (4,3), both with h = 3
    m = np.zeros((8, 8), dtype=complex)
    for a in (2, 3, 4, 5):
        m[a, a] = 0.25
    m[5, 2] = m[2, 5] = 0.2
    m[4, 3] = m[3, 4] = 0.2
    rho = DensityOperator(m, 3)
    for check in (lz_antidiagonal_check, hamming_offdiagonal_check):
        w = check(rho).witness
        assert (w.a, w.b, w.hamming_distance, w.bound) == (4, 3, 3, 0.125)


def brute_force_witness(matrix, pairs):
    # plain loop over pairs given in lexicographic order; strict > keeps the
    # first, so the smallest (a, b) among the maximal margins wins. Also
    # counts the pairs that reach the maximal margin.
    best, tied = None, 0
    for a, b in pairs:
        h = bin(a ^ b).count("1")
        margin = abs(matrix[a, b]) - 0.5**h
        if margin <= TOL_CRIT:
            continue
        if best is None or margin > best[0]:
            best, tied = (margin, a, b, h), 1
        elif margin == best[0]:
            tied += 1
    return best, tied


def tied_state(rng, n):
    # (1-q) |psi><psi| + q I/d, psi spread over a random support with
    # magnitudes from {1, 2} and phases from {1, i, -1, -i}: every modulus
    # product is computed exactly, so pairs with equal products and equal h
    # have equal margins
    d = 1 << n
    support = set(rng.choice(d, size=min(d, int(rng.integers(1, 5))), replace=False).tolist())
    for a in rng.choice(d // 2, size=int(rng.integers(0, 3))).tolist():
        support |= {a, d - 1 - a}  # antidiagonal pairs, for lz ties
    psi = np.zeros(d, dtype=complex)
    for a in support:
        psi[a] = rng.choice([1, 2]) * rng.choice([1, 1j, -1, -1j])
    psi /= np.linalg.norm(psi)
    q = rng.choice([0.0, 0.1, 0.5])
    return DensityOperator((1 - q) * np.outer(psi, psi.conj()) + q * np.eye(d) / d, n)


def test_witnesses_match_brute_force_with_ties():
    rng = mixture_rng(4)
    ties = {"lz": 0, "hamming": 0}
    for n in range(1, 7):
        d = 1 << n
        lower = [(a, b) for a in range(d) for b in range(a)]
        antidiagonal = [(a, d - 1 - a) for a in range(d // 2, d)]
        for _ in range(40):
            rho = tied_state(rng, n)
            for name, check, pairs in (
                ("lz", lz_antidiagonal_check, antidiagonal),
                ("hamming", hamming_offdiagonal_check, lower),
            ):
                report = check(rho)
                expected, tied = brute_force_witness(rho.matrix, pairs)
                if expected is None:
                    assert report.verdict is Verdict.INCONCLUSIVE and report.witness is None
                    continue
                margin, a, b, h = expected
                w = report.witness
                assert report.verdict is Verdict.INSEPARABLE
                assert (w.a, w.b, w.hamming_distance, w.bound) == (a, b, h, 0.5**h)
                assert w.value == rho.matrix[a, b] and w.margin == margin
                ties[name] += tied > 1
    # the draw must exercise the tie-break of both scans
    assert ties["lz"] > 0 and ties["hamming"] > 0


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


@pytest.mark.parametrize("b, lam", [(0.1, -0.23967), (0.5, -0.035875), (0.9, -0.0035634)])
def test_b_family_is_ppt_on_qubit_1_and_npt_on_qubits_2_and_3(b, lam):
    rho = horodecki_b(b)
    assert map_negativity_check(rho, MapSpec.single(1, MapKind.T)).verdict is Verdict.INCONCLUSIVE
    for k in (2, 3):
        report = map_negativity_check(rho, MapSpec.single(k, MapKind.T))
        assert report.verdict is Verdict.INSEPARABLE
        assert report.witness.min_eigenvalue == pytest.approx(lam, rel=1e-4)


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


@pytest.mark.parametrize("tol", [-1.0, -1e-12, 0.0, 1e-10, math.nan, math.inf, pytest.param(10**400, id="1e400")])
def test_map_negativity_rejects_negative_or_non_finite_tol(tol):
    # With tol = -1 the identity map would call this product state inseparable;
    # below TOL_PSD, eigensolver rounding would. math.isfinite raised
    # OverflowError on an int too large for a float.
    rho = random_multiseparable(2, terms=1, seed=3)
    with pytest.raises(ValueError, match="tolerance"):
        map_negativity_check(rho, MapSpec.single(1, MapKind.IDENTITY), tol=tol)
    assert map_negativity_check(rho, MapSpec.single(1, MapKind.IDENTITY), tol=TOL_PSD).verdict is Verdict.INCONCLUSIVE


@pytest.mark.parametrize(
    "tol",
    [True, False, np.True_, np.False_, 1j, "1e-3", None],
    ids=["True", "False", "np.True_", "np.False_", "1j", "str", "None"],
)
def test_map_negativity_refuses_a_bool_tol(tol):
    # True ran at tol 1.0 and called GHZ inconclusive; 1j, a string and
    # None raised Python's own TypeError from the comparison.
    rho = ghz(3)
    with pytest.raises(TypeError, match=f"^tolerance must be a number, got {tol!r}$"):
        map_negativity_check(rho, MapSpec.all_qubits(3, MapKind.P), tol)
    assert map_negativity_check(rho, MapSpec.all_qubits(3, MapKind.P)).verdict is Verdict.INSEPARABLE


def test_lemma1_comparison_fails_on_nan():
    # A NaN on either side of the bound is a failure for both callers.
    c = np.array([1.0, np.nan, np.nan, 1.0])
    s = np.array([np.nan, 1.0, np.nan, 1.0])
    assert _lemma1_holds(c, s, 3, 2).tolist() == [False, False, False, True]
    assert not _lemma1_holds(np.nan, 0.5, 3, 3)


def decision_sweep():
    """(rho, spec) over the soundness specs, GHZ and the reproduce grids."""
    for n in range(2, 7):
        for i in range(8):
            rho = random_multiseparable(n, terms=1 + i % 5, seed=100 * n + i)
            for spec in _soundness_specs(n):
                yield rho, spec
    for n in range(2, 9):
        for spec in (
            MapSpec.all_qubits(n, MapKind.P),
            MapSpec.single(1, MapKind.P),
            MapSpec.single(n, MapKind.T),
        ):
            yield ghz(n), spec
    for s in (0, 0.5, 1, 1.5, 2, 5):  # reproduce.check_isotropic's grid
        for bell in Bell:
            for kind in (MapKind.P, MapKind.T):
                yield isotropic(s, bell), MapSpec.single(2, kind)
    for p in (0.05, 0.067, 0.1, 0.5, 0.9, 0.933, 0.95):  # check_pure_state's grid
        yield pure_superposition(p), MapSpec.all_qubits(2, MapKind.P)
        yield pure_superposition(p), MapSpec.single(2, MapKind.P)


def test_map_negativity_decisions_match_the_eigensolver():
    # The Cholesky certificate may only skip eigh where eigh says inconclusive.
    seen = {Verdict.INSEPARABLE: 0, Verdict.INCONCLUSIVE: 0}
    certified = 0
    for rho, spec in decision_sweep():
        sigma = apply_product(rho, spec).matrix
        w, v = np.linalg.eigh(sigma)
        report = map_negativity_check(rho, spec)
        seen[report.verdict] += 1
        certified += _psd_certified(sigma, TOL_PSD)
        if w[0] < -TOL_PSD:
            assert report.verdict is Verdict.INSEPARABLE, (rho, spec)
            assert report.witness.min_eigenvalue == float(w[0])
            assert report.witness.eigenvector.tobytes() == v[:, 0].tobytes()
        else:
            assert report.verdict is Verdict.INCONCLUSIVE, (rho, spec)
            assert report.witness is None
    assert min(seen.values()) > 0, seen
    assert certified == seen[Verdict.INCONCLUSIVE], (certified, seen)


@pytest.mark.parametrize("n", [6, 7, 8, 9])
def test_ghz_and_its_images_take_no_factorization(monkeypatch, n):
    # GHZ is settled by Gershgorin's bound and its P, T and H images by the
    # antidiagonal probe, so no Cholesky runs; eigh still gives the witness.
    calls = []
    cholesky = np.linalg.cholesky

    def counting(a):
        calls.append(a.shape)
        return cholesky(a)

    monkeypatch.setattr(np.linalg, "cholesky", counting)
    rho = ghz(n)
    specs = (
        MapSpec.all_qubits(n, MapKind.P),
        MapSpec.single(1, MapKind.P),
        MapSpec.single(n, MapKind.T),
        MapSpec.single(2, MapKind.H),
    )
    for spec in specs:
        report = map_negativity_check(rho, spec)
        w, v = np.linalg.eigh(apply_product(rho, spec).matrix)
        assert report.verdict is Verdict.INSEPARABLE
        assert report.witness.min_eigenvalue == float(w[0])
        assert report.witness.eigenvector.tobytes() == v[:, 0].tobytes()
    assert calls == []


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
    with pytest.raises(ValueError, match=r"^basis index 7 is outside 0\.\.3$"):
        lemma2_witness_value(sigma, 0, 7)


def hamming_of(rho, a, b):
    return hamming(a, b, rho.n_qubits)


@pytest.mark.parametrize("check", [lemma1_bound_check, lemma2_witness_value, hamming_of])
@pytest.mark.parametrize("index", [True, False, 1.5, 7.0])
def test_lemma_checks_take_basis_indices_by_map_spec_rule(check, index):
    # True was read as a boolean mask, 7.0 failed inside numpy's indexing;
    # hamming(True, 0, 3) returned 1.
    rho = horodecki_b(0.3)
    for a, b in ((index, 0), (0, index)):
        with pytest.raises(TypeError, match=f"^basis index must be an integer, got {index!r}$"):
            check(rho, a, b)
    assert check(rho, np.int64(7), np.int64(4)) == check(rho, 7, 4)


@pytest.mark.parametrize("spec", ["1:P", "all:P", None, ((1, MapKind.P),)])
def test_a_spec_that_is_not_a_map_spec_is_a_type_error(spec):
    # A str raised AttributeError: 'str' object has no attribute 'validate_for'.
    rho = ghz(2)
    message = f"^expected a MapSpec, got {type(spec).__name__}$"
    with pytest.raises(TypeError, match=message):
        apply_product(rho, spec)
    with pytest.raises(TypeError, match=message):
        map_negativity_check(rho, spec)


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


def test_equal_argument_accepts_diagonal_and_single_qubit_matrices():
    # no element above zero_tol: the empty selection passes
    assert equal_argument_check(HermitianOperator(np.diag([0.1, 0.2, 0.3, 0.4])))
    assert equal_argument_check(HermitianOperator(np.eye(2) / 2))
    # n = 1 has one lower element, which trivially shares its own argument
    assert equal_argument_check(HermitianOperator([[0.5, -0.3j], [0.3j, 0.5]]))
    assert equal_argument_check(HermitianOperator([[0.5, 1e-13j], [-1e-13j, 0.5]]))


def test_equal_argument_matches_plain_loop():
    def loop(m):
        ref = None
        for i in range(1, m.shape[0]):
            for j in range(i):
                c = m[i, j]
                if abs(c) <= 1e-12:
                    continue
                if ref is None:
                    ref = c
                elif abs(np.angle(c * np.conj(ref))) > 1e-9:
                    return False
        return True

    rng = mixture_rng(12)
    seen = set()
    for _ in range(200):
        n = int(rng.integers(1, 4))
        d = 1 << n
        low = np.tril(rng.choice([0, 0.1, 0.2], size=(d, d)), -1).astype(complex)
        low *= np.exp(1j * rng.choice([0.0, 1e-10, 0.5, np.pi, -np.pi + 1e-11], size=(d, d)))
        rho = HermitianOperator(low + low.conj().T + np.eye(d), n)
        expected = loop(rho.matrix)
        seen.add(expected)
        assert equal_argument_check(rho) is expected
    assert seen == {True, False}


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


def test_stacked_margins_agree_with_the_per_matrix_checks():
    # Product mixtures never fire. GHZ and most of the entrywise-nonnegative
    # mixtures fire both checks, horodecki_b(0.1) only the hamming one.
    rng = mixture_rng(8)
    stacks = [_multiseparable_stack(n, terms, range(10, 16)) for n in (2, 3, 4) for terms in (1, 3)]
    nonneg = [nonneg_mixture(rng, 3, 2).matrix for _ in range(30)]
    stacks.append(np.stack([ghz(3).matrix, horodecki_b(0.1).matrix, *nonneg]))
    stacks.append(np.stack([ghz(4).matrix, random_multiseparable(4, 2, 9).matrix]))
    fired = {Criterion.LZ_ANTIDIAGONAL: 0, Criterion.HAMMING_OFFDIAGONAL: 0}
    for stack in stacks:
        # Each matrix's largest margin per criterion, as reproduce.check_soundness takes it.
        stacked = [
            np.max([(np.abs(v) - bound).max(axis=(-2, -1)) for v, _, _, bound in blocks(stack)], axis=0)
            for blocks in (_lz_blocks, _hamming_blocks)
        ]
        for matrix, *margins in zip(stack, *stacked):
            rho = DensityOperator(matrix)
            for check, margin in zip((lz_antidiagonal_check, hamming_offdiagonal_check), margins):
                report = check(rho)
                assert _violates(margin) == (report.verdict is Verdict.INSEPARABLE)
                if report.verdict is Verdict.INSEPARABLE:
                    assert margin == report.witness.margin
                    fired[report.criterion] += 1
    assert fired[Criterion.LZ_ANTIDIAGONAL] >= 2
    assert fired[Criterion.HAMMING_OFFDIAGONAL] > fired[Criterion.LZ_ANTIDIAGONAL]


def test_criteria_inconclusive_on_bell_mixture_without_corner():
    # equal mixture of two Bell projectors has no off-diagonal excess and
    # stays positive under the full-P map
    rho = DensityOperator((isotropic(0.0, Bell.PHI_PLUS).matrix + isotropic(0.0, Bell.PHI_MINUS).matrix) / 2)
    assert hamming_offdiagonal_check(rho).verdict is Verdict.INCONCLUSIVE
    assert map_negativity_check(rho, MapSpec.all_qubits(2, MapKind.P)).verdict is Verdict.INCONCLUSIVE
