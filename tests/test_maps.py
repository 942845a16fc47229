import json

import numpy as np
import pytest

from insep import (
    HermitianOperator,
    MapKind,
    MapSpec,
    apply_on_qubit,
    apply_on_qubit_dense,
    apply_product,
    bloch_from_density,
    lambda_p,
    min_eigenvalue,
)
from insep.cli import serialize_operator
from insep.criteria import Verdict, map_negativity_check
from insep.linalg import TOL_HERM, TOL_PSD, _psd_certified, _real_valued
from insep.maps import _ON_2X2, _dense_map_qubit, _map_qubit
from insep.states import (
    ghz,
    horodecki_b,
    isotropic,
    mixture_rng,
    product_state,
    pure_superposition,
    random_bloch,
    random_multiseparable,
)


def random_hermitian(rng, dim):
    g = rng.standard_normal((dim, dim)) + 1j * rng.standard_normal((dim, dim))
    return HermitianOperator((g + g.conj().T) / 2)


def random_hermitian_stack(rng, n, count=7):
    return np.stack([random_hermitian(rng, 1 << n).matrix for _ in range(count)])


def random_density(rng, n):
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return HermitianOperator(m / m.trace().real, n)


# ---------------------------------------------------------------- 2x2 maps

def test_lambda_p_balances_populations():
    out = lambda_p(HermitianOperator(np.diag([1.0, 0.0])))
    assert np.allclose(out.matrix, np.eye(2) / 2)


def test_lambda_p_fixed_point():
    plus = HermitianOperator(np.full((2, 2), 0.5))
    assert np.allclose(lambda_p(plus).matrix, plus.matrix)


# The 2x2 rules in maps._ON_2X2 are criterion 7's dense reference.

def test_lambda_t_conjugates_off_diagonal():
    c = 0.2 + 0.3j
    sigma = np.array([[0.7, c], [np.conj(c), 0.3]])
    out = _ON_2X2[MapKind.T](sigma)
    assert out[0, 1] == np.conj(c)
    assert out[1, 0] == c
    assert out[0, 0] == 0.7


def test_lambda_h_and_x():
    mixed = np.eye(2) / 2
    assert np.allclose(_ON_2X2[MapKind.H](mixed), mixed)
    out = _ON_2X2[MapKind.X](np.diag([1.0, 0.0]))
    assert np.allclose(out, np.diag([0.0, 1.0]))


def test_maps_require_single_qubit():
    with pytest.raises(ValueError):
        lambda_p(HermitianOperator(np.eye(4) / 4))


def test_maps_are_linear_and_trace_preserving():
    rng = np.random.default_rng(10)
    for _ in range(30):
        a = random_hermitian(rng, 2).matrix
        b = random_hermitian(rng, 2).matrix
        alpha, beta = rng.standard_normal(2)
        for f in _ON_2X2.values():
            lhs = f(alpha * a + beta * b)
            rhs = alpha * f(a) + beta * f(b)
            assert np.max(np.abs(lhs - rhs)) <= 1e-12
            assert abs(np.trace(f(a)) - np.trace(a)) <= 1e-10


def test_lambda_p_projects_bloch_to_xy_plane():
    rng = mixture_rng(77)
    for _ in range(100):
        x, y, z = random_bloch(rng)
        image = bloch_from_density(lambda_p(product_state([(x, y, z)])))
        assert (image.x, image.y, image.z) == pytest.approx((x, y, 0.0), abs=1e-15)


# ---------------------------------------------------------------- MapSpec

def test_map_spec_validation():
    with pytest.raises(ValueError, match="more than once"):
        MapSpec(((1, MapKind.P), (1, MapKind.T)))
    with pytest.raises(ValueError, match=r"^qubit index 0 is outside 1\.\.12$"):
        MapSpec(((0, MapKind.P),))
    spec = MapSpec(((2, MapKind.P),))
    with pytest.raises(ValueError, match=r"^qubit index 2 is outside 1\.\.1$"):
        spec.validate_for(1)
    assert str(MapSpec(((2, MapKind.T), (1, MapKind.P)))) == "1:P,2:T"
    # Stored by qubit, so the order the entries are listed in does not matter.
    shuffled = MapSpec(((3, MapKind.X), (1, MapKind.T), (2, MapKind.T)))
    assert shuffled.assignments == ((1, MapKind.T), (2, MapKind.T), (3, MapKind.X))
    assert shuffled == MapSpec(((1, MapKind.T), (2, MapKind.T), (3, MapKind.X)))
    assert hash(shuffled) == hash(MapSpec(((2, MapKind.T), (3, MapKind.X), (1, MapKind.T))))


@pytest.mark.parametrize("n", [0, -2])
def test_all_qubits_needs_a_qubit(n):
    # Each was the empty spec, which printed as '' and mapped nothing.
    with pytest.raises(ValueError, match=f"^n_qubits {n} is outside 1..12$"):
        MapSpec.all_qubits(n, MapKind.P)


NOT_INTEGERS = [True, False, 1.5]


@pytest.mark.parametrize("q", NOT_INTEGERS)
def test_map_spec_rejects_qubit_indices_that_are_not_integers(q):
    # A bool would be qubit 1 (or 0) and print as True:P; 1.5 would fail only
    # inside the kernel's bit shift.
    with pytest.raises(TypeError, match="qubit index must be an integer"):
        MapSpec(((q, MapKind.P),))


@pytest.mark.parametrize("apply", [apply_on_qubit, apply_on_qubit_dense])
@pytest.mark.parametrize("q", NOT_INTEGERS + [1.0])
def test_single_qubit_maps_take_qubit_indices_by_map_spec_rule(apply, q):
    rho = ghz(2)
    with pytest.raises(TypeError, match=f"^qubit index must be an integer, got {q!r}$"):
        apply(rho, q, MapKind.P)
    assert np.array_equal(apply(rho, np.int64(2), MapKind.T).matrix, apply(rho, 2, MapKind.T).matrix)
    with pytest.raises(ValueError, match=r"^qubit index 3 is outside 1\.\.2$"):
        apply(rho, np.int64(3), MapKind.P)


def test_map_spec_stores_numpy_integer_indices_as_int():
    spec = MapSpec(((np.int64(2), MapKind.P), (1, MapKind.T)))
    assert str(spec) == "1:T,2:P"
    assert [type(q) for q, _ in spec.assignments] == [int, int]
    assert spec == MapSpec(((2, MapKind.P), (1, MapKind.T)))


# ---------------------------------------------------------------- partial application

def test_apply_identity_is_noop():
    rng = np.random.default_rng(11)
    op = random_hermitian(rng, 8)
    out = apply_on_qubit(op, 2, MapKind.IDENTITY)
    assert np.array_equal(out.matrix, op.matrix)


@pytest.mark.parametrize("kind", list(MapKind))
def test_apply_on_single_qubit_matches_2x2_rule(kind):
    rng = np.random.default_rng(19)
    for _ in range(10):
        op = random_hermitian(rng, 2)
        out = apply_on_qubit(op, 1, kind)
        assert np.max(np.abs(out.matrix - _ON_2X2[kind](op.matrix))) <= 1e-15


@pytest.mark.parametrize("kind", list(MapKind))
def test_apply_on_qubit_returns_a_fresh_read_only_array(kind):
    # At n = 1 the T and X kernels return strided views of the input, and
    # the I kernel returns a view at every n.
    for n in (1, 3):
        op = random_density(np.random.default_rng(20), n)
        for k in range(1, n + 1):
            out = apply_on_qubit(op, k, kind)
            assert out.matrix.flags.c_contiguous
            assert not out.matrix.flags.writeable
            assert not np.shares_memory(out.matrix, op.matrix)
            entries = json.loads(serialize_operator(out))["entries"]
            assert np.array_equal(np.array(entries).view(np.complex128)[..., 0], out.matrix)


def test_maps_reject_an_unvalidated_matrix():
    m = np.eye(2) / 2
    with pytest.raises(TypeError, match="HermitianOperator"):
        apply_on_qubit(m, 1, MapKind.P)
    with pytest.raises(TypeError, match="HermitianOperator"):
        apply_on_qubit_dense(m, 1, MapKind.P)
    with pytest.raises(TypeError, match="HermitianOperator"):
        lambda_p(m)
    with pytest.raises(TypeError, match="HermitianOperator"):
        apply_product(m, MapSpec.single(1, MapKind.T))


def test_map_spec_and_dense_route_take_only_a_map_kind():
    # The dense route indexed its 2x2 table with the kind: KeyError for "P".
    with pytest.raises(TypeError, match="^expected MapKind, got 'P'$"):
        MapSpec(((1, "P"),))
    with pytest.raises(TypeError, match="^expected MapKind, got 'P'$"):
        apply_on_qubit_dense(ghz(2), 1, "P")
    with pytest.raises(TypeError, match="^expected MapKind, got 'P'$"):
        apply_on_qubit(ghz(2), 1, "P")


def test_map_outputs_are_wrapped_without_a_hermiticity_pass(monkeypatch):
    rho = ghz(4)
    spec = MapSpec.all_qubits(4, MapKind.P)
    calls = []
    checked_init = HermitianOperator.__init__

    def counting_init(self, *args, **kwargs):
        calls.append(args)
        checked_init(self, *args, **kwargs)

    monkeypatch.setattr(HermitianOperator, "__init__", counting_init)
    out = apply_product(rho, spec)
    report = map_negativity_check(rho, spec)
    assert calls == []
    assert type(out) is HermitianOperator and out.n_qubits == 4
    assert report.verdict is Verdict.INSEPARABLE


@pytest.mark.parametrize("kind", list(MapKind))
def test_map_images_inherit_their_source_real_view(kind):
    # No map makes an imaginary part from real entries, so an image keeps
    # its source's real-or-complex view: a kind that did would fail here.
    sources = (ghz(6), random_multiseparable(6, 4, 1), horodecki_b(0.5))
    assert [rho._real is rho.matrix for rho in sources] == [False, True, True]
    for rho in sources:
        for k in range(1, rho.n_qubits + 1):
            image = apply_on_qubit(rho, k, kind)
            assert (image._real is image.matrix) == (rho._real is rho.matrix)
            if image._real is not image.matrix:
                assert image._real.dtype == np.float64 and np.shares_memory(image._real, image.matrix)
                assert np.array_equal(image._real, image.matrix.real)
                assert not image.matrix.imag.any()
            for tol in (TOL_PSD, 1e-3):
                assert _psd_certified(image._real, tol) == _psd_certified(_real_valued(image.matrix), tol)


def _hermiticity_deviation(m):
    return float(np.max(np.abs(m - m.conj().T)))


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_maps_do_not_increase_a_hermiticity_deviation(n):
    # T, X, H and I move and negate partner pairs, so the deviation is kept
    # exactly; P's averages add at most one rounding each, 2u max|in|.
    u = np.finfo(np.float64).eps / 2
    rng = np.random.default_rng(60 + n)
    d = 1 << n
    for _ in range(20):
        h = random_hermitian(rng, d).matrix
        noise = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
        near = h + noise * (TOL_HERM / 3 * rng.uniform() / np.max(np.abs(noise)))
        op = HermitianOperator(near, n)
        dev_in = _hermiticity_deviation(op.matrix)
        assert 0 < dev_in <= TOL_HERM
        exact = HermitianOperator(h, n)
        assert _hermiticity_deviation(exact.matrix) == 0
        for k in range(1, n + 1):
            for kind in MapKind:
                dev_out = _hermiticity_deviation(apply_on_qubit(op, k, kind).matrix)
                if kind is MapKind.P:
                    assert dev_out <= dev_in + 2 * u * np.max(np.abs(op.matrix))
                else:
                    assert dev_out <= dev_in
                assert _hermiticity_deviation(apply_on_qubit(exact, k, kind).matrix) == 0


def test_apply_out_of_range_qubit():
    op = HermitianOperator(np.eye(4) / 4)
    with pytest.raises(ValueError):
        apply_on_qubit(op, 3, MapKind.P)


def test_partial_p_on_pure_superposition_matches_element_rule():
    # averaging the qubit-2 populations of sqrt(p)|00> + sqrt(1-p)|11> gives
    # diag(p/2, p/2, (1-p)/2, (1-p)/2) with the sqrt(p(1-p)) corners kept
    p = 0.3
    out = apply_on_qubit(pure_superposition(p), 2, MapKind.P)
    expected = np.diag([p / 2, p / 2, (1 - p) / 2, (1 - p) / 2]).astype(complex)
    expected[0, 3] = expected[3, 0] = np.sqrt(p * (1 - p))
    assert np.max(np.abs(out.matrix - expected)) <= 1e-15


def test_partial_p_isotropic_spectrum():
    out = apply_on_qubit(isotropic(0.0), 2, MapKind.P)
    got = np.linalg.eigvalsh(out.matrix)
    assert np.allclose(got, [-0.25, 0.25, 0.25, 0.75], atol=1e-12)


def test_full_p_flattens_diagonal_keeps_corners():
    p = 0.3
    out = apply_product(pure_superposition(p), MapSpec.all_qubits(2, MapKind.P))
    expected = np.eye(4, dtype=complex) / 4
    expected[0, 3] = expected[3, 0] = np.sqrt(p * (1 - p))
    assert np.max(np.abs(out.matrix - expected)) <= 1e-15


def test_partial_transpose_flips_known_corner():
    rho = pure_superposition(0.5)
    out = apply_on_qubit(rho, 2, MapKind.T)
    # corner moves onto the (01,10) pair
    assert out.matrix[1, 2] == pytest.approx(0.5, abs=1e-15)
    assert out.matrix[0, 3] == pytest.approx(0.0, abs=1e-15)
    assert min_eigenvalue(out) == pytest.approx(-0.5, abs=1e-12)


@pytest.mark.parametrize("n", [2, 3, 4])
def test_element_rule_equals_dense_construction(n):
    rng = np.random.default_rng(12)
    for _ in range(20):
        rho = random_density(rng, n)
        for k in range(1, n + 1):
            for kind in MapKind:
                fast = apply_on_qubit(rho, k, kind).matrix
                dense = apply_on_qubit_dense(rho, k, kind).matrix
                assert np.max(np.abs(fast - dense)) <= 1e-12


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_stack_kernel_equals_apply_on_qubit_per_matrix(n):
    stack = random_hermitian_stack(np.random.default_rng(40 + n), n)
    ops = [HermitianOperator(m, n) for m in stack]
    for k in range(1, n + 1):
        for kind in MapKind:
            got = _map_qubit(stack, n, k, kind)
            expected = np.stack([apply_on_qubit(op, k, kind).matrix for op in ops])
            assert np.array_equal(got, expected)


def test_stack_kernel_leaves_a_read_only_input_unchanged():
    n = 3
    stack = random_hermitian_stack(np.random.default_rng(44), n)
    before = stack.copy()
    stack.setflags(write=False)
    for k in range(1, n + 1):
        for kind in MapKind:
            _map_qubit(stack, n, k, kind)
    assert np.array_equal(stack, before)


@pytest.mark.parametrize("n", [1, 2, 3, 4])
def test_dense_stack_kernel_equals_apply_on_qubit_dense_per_matrix(n):
    stack = random_hermitian_stack(np.random.default_rng(50 + n), n)
    ops = [HermitianOperator(m, n) for m in stack]
    for k in range(1, n + 1):
        for kind in MapKind:
            got = _dense_map_qubit(stack, n, k, kind)
            expected = np.stack([apply_on_qubit_dense(op, k, kind).matrix for op in ops])
            assert np.max(np.abs(got - expected)) <= 1e-15


def test_apply_product_identity_and_order_independence():
    rng = np.random.default_rng(13)
    rho = random_density(rng, 3)
    out = apply_product(rho, MapSpec.all_qubits(3, MapKind.IDENTITY))
    assert np.array_equal(out.matrix, rho.matrix)
    spec = MapSpec(((1, MapKind.P), (2, MapKind.T), (3, MapKind.X)))
    expected = apply_product(rho, spec).matrix
    for order in ((3, 2, 1), (2, 1, 3), (3, 1, 2)):
        step = rho
        kinds = dict(spec.assignments)
        for q in order:
            step = apply_on_qubit(step, q, kinds[q])
        assert np.max(np.abs(step.matrix - expected)) <= 1e-12


@pytest.mark.parametrize(
    "spec",
    [MapSpec.all_qubits(3, kind) for kind in MapKind]
    + [MapSpec(((1, MapKind.T), (2, MapKind.P), (3, MapKind.H))), MapSpec(((3, MapKind.X), (1, MapKind.P)))],
    ids=str,
)
def test_apply_product_equals_chained_apply_on_qubit(spec):
    rho = random_density(np.random.default_rng(16), 3)
    chained = rho
    for q, kind in sorted(spec.assignments):
        chained = apply_on_qubit(chained, q, kind)
    assert np.array_equal(apply_product(rho, spec).matrix, chained.matrix)


def test_apply_product_is_linear():
    rng = np.random.default_rng(14)
    spec = MapSpec(((1, MapKind.P), (2, MapKind.H)))
    for _ in range(10):
        a = random_hermitian(rng, 4)
        b = random_hermitian(rng, 4)
        alpha, beta = rng.standard_normal(2)
        combo = HermitianOperator(alpha * a.matrix + beta * b.matrix)
        lhs = apply_product(combo, spec).matrix
        rhs = alpha * apply_product(a, spec).matrix + beta * apply_product(b, spec).matrix
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_trace_preserved_by_every_kind():
    rng = np.random.default_rng(15)
    for _ in range(10):
        rho = random_density(rng, 3)
        for kind in MapKind:
            for k in (1, 2, 3):
                out = apply_on_qubit(rho, k, kind)
                assert abs(out.trace() - rho.trace()) <= 1e-10


# ---------------------------------------------------------------- structure

def test_positivity_preserved_on_product_inputs():
    rng = mixture_rng(21)
    kinds = list(MapKind)
    for _ in range(50):
        n = int(rng.integers(2, 5))
        rho = product_state(random_bloch(rng) for _ in range(n))
        chosen = [(q, kinds[int(rng.integers(len(kinds)))]) for q in range(1, n + 1) if rng.uniform() < 0.7]
        if not chosen:
            chosen = [(1, MapKind.P)]
        out = apply_product(rho, MapSpec(tuple(chosen)))
        assert min_eigenvalue(out) >= -1e-9


def test_decomposition_into_transpose_and_flip():
    # partial P equals the average of the input and its partially
    # transposed-then-flipped image
    rng = np.random.default_rng(16)
    for _ in range(50):
        g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
        h = (g + g.conj().T) / 2
        tr = h.trace().real
        if abs(tr) < 0.5:
            h += np.eye(4)
            tr = h.trace().real
        rho = HermitianOperator(h / tr, 2)
        lhs = apply_on_qubit(rho, 2, MapKind.P).matrix
        rhs = (rho.matrix + apply_on_qubit(apply_on_qubit(rho, 2, MapKind.T), 2, MapKind.X).matrix) / 2
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


def test_partial_transpose_fires_whenever_partial_p_does():
    rng = np.random.default_rng(17)
    fired = 0
    for _ in range(200):
        rho = random_density(rng, 2)
        neg_p = min_eigenvalue(apply_on_qubit(rho, 2, MapKind.P)) < -1e-9
        if neg_p:
            fired += 1
            assert min_eigenvalue(apply_on_qubit(rho, 2, MapKind.T)) < -1e-9
    assert fired > 0  # the sweep must actually exercise the implication
