"""The stacked bulk checks of insep.reproduce against their per-matrix loops.

Each reference below is the per-matrix loop the check ran before it mapped
stacks, built on the public apply_product, apply_on_qubit,
apply_on_qubit_dense and lemma2_witness_value. A check's rows report only extremes and zero counts,
which a lost or extra state seldom moves, so both sides also count every
matrix that reaches the map kernels and the eigensolver, by content: equal
rows and equal counts pin the RNG order and the batch boundaries. Batch
sizes other than the default leave a short last batch (7) or put every
state in one stack (1000).
"""

import math
import re
from collections import Counter

import numpy as np
import pytest

from insep import cli, linalg, maps, reproduce, states
from insep.criteria import (
    TOL_CRIT,
    Verdict,
    equal_argument_check,
    hamming_offdiagonal_check,
    lemma1_bound_check,
    lemma2_witness_value,
    lz_antidiagonal_check,
)
from insep.linalg import HermitianOperator, min_eigenvalue
from insep.maps import MapKind, MapSpec, apply_on_qubit, apply_on_qubit_dense, apply_product
from insep.reproduce import (
    Harness,
    _nonneg_mixture,
    _random_density,
    _random_hermitian_trace_one,
    _soundness_specs,
)
from insep.states import mixture_rng, random_multiseparable


def per_matrix_soundness(h):
    for n in (2, 3, 4):
        false_positives = 0
        lowest = math.inf
        for i in range(1000):
            rho = random_multiseparable(n, terms=1 + i % 5, seed=i)
            if lz_antidiagonal_check(rho).verdict is Verdict.INSEPARABLE:
                false_positives += 1
            if hamming_offdiagonal_check(rho).verdict is Verdict.INSEPARABLE:
                false_positives += 1
            for spec in _soundness_specs(n):
                low = min_eigenvalue(apply_product(rho, spec))
                lowest = min(lowest, low)
                if low < -1e-9:
                    false_positives += 1
        h.equals(f"soundness n={n}: false positives over 1000 product mixtures", false_positives, 0)
        h.at_least(f"soundness n={n}: min eigenvalue over all P/T specs", lowest, -1e-9)


def per_matrix_decomposition(h):
    rng = mixture_rng(20260808)
    dev = 0.0
    for _ in range(1000):
        rho = HermitianOperator(_random_hermitian_trace_one(rng), 2)
        lhs = apply_on_qubit(rho, 2, MapKind.P).matrix
        flipped = apply_on_qubit(apply_on_qubit(rho, 2, MapKind.T), 2, MapKind.X).matrix
        rhs = (rho.matrix + flipped) / 2
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    h.close_to(
        "decomposition identity (IxP) = ((I + IxX.IxT)/2), max deviation",
        dev,
        0.0,
        1e-12,
    )


def per_matrix_elementwise_vs_dense(h):
    rng = mixture_rng(11)
    for n in (2, 3, 4):
        dev = 0.0
        for _ in range(200):
            rho = HermitianOperator(_random_density(rng, n), n)
            for k in range(1, n + 1):
                for kind in MapKind:
                    fast = apply_on_qubit(rho, k, kind).matrix
                    dense = apply_on_qubit_dense(rho, k, kind).matrix
                    dev = max(dev, float(np.max(np.abs(fast - dense))))
        h.close_to(f"element-wise vs dense map application, n={n}, max deviation", dev, 0.0, 1e-12)


def per_matrix_lemmas(h):
    rng = mixture_rng(99)
    n = 3
    d = 1 << n
    idx = np.arange(d)
    hmat = np.bitwise_count(idx[:, None] ^ idx[None, :])
    off = idx[:, None] != idx[None, :]
    bound_violations = 0
    spot_failures = 0
    value_dev = 0.0
    sign_mismatches = 0
    for _ in range(500):
        rho = _nonneg_mixture(rng, n, terms=1 + int(rng.integers(4)))
        if not equal_argument_check(rho):  # lemma 1's precondition
            spot_failures += 1
            continue
        mapped = apply_product(rho, MapSpec.all_qubits(n, MapKind.P))
        lower = np.abs(rho.matrix) / 2.0 ** (n - hmat)
        bad = off & (np.abs(mapped.matrix) < lower - TOL_CRIT)
        bound_violations += int(bad.sum())
        # spot-check the function-level route on the largest off-diagonal element
        masked = np.where(off, np.abs(rho.matrix), -np.inf)
        a, b = map(int, np.argwhere(masked == masked.max())[0])
        if not lemma1_bound_check(rho, a, b):
            spot_failures += 1
        s = mapped.matrix
        for a in range(d):
            for b in range(d):
                if a == b or abs(s[a, b]) == 0:
                    continue
                value = lemma2_witness_value(mapped, a, b)
                closed = 2 * (0.5**n - abs(s[a, b]))
                value_dev = max(value_dev, abs(value - closed))
                if (value < 0) != (abs(s[a, b]) > 0.5**n):
                    sign_mismatches += 1
    h.equals("lemma-1 bound violations over 500 equal-argument states (n=3)", bound_violations, 0)
    h.equals("lemma-1 spot checks failed", spot_failures, 0)
    h.close_to("lemma-2 witness vs 2(1/2^n - |s_ab|), max deviation", value_dev, 0.0, 1e-12)
    h.equals("lemma-2 sign vs element-exceeds-bound mismatches", sign_mismatches, 0)


PAIRS = [
    (reproduce.check_soundness, per_matrix_soundness),
    (reproduce.check_decomposition, per_matrix_decomposition),
    (reproduce.check_elementwise_vs_dense, per_matrix_elementwise_vs_dense),
]


def recorded_run(check):
    """check's rows, and a count of each matrix its map kernels and eigensolves receive."""
    seen = Counter()

    def recording(fn):
        def wrapper(m, *args):
            for one in m.reshape(-1, *m.shape[-2:]):
                seen[fn.__name__, args, hash(one.tobytes())] += 1
            return fn(m, *args)

        return wrapper

    kernels = {name: getattr(maps, name) for name in ("_map_qubit", "_dense_map_qubit")}
    with pytest.MonkeyPatch.context() as mp:
        for module in (maps, reproduce):
            for name, fn in kernels.items():
                mp.setattr(module, name, recording(fn))
        mp.setattr(np.linalg, "eigvalsh", recording(np.linalg.eigvalsh))
        h = Harness()
        check(h)
    return h.rows, seen


@pytest.fixture(scope="module")
def per_matrix_runs():
    return {batched: recorded_run(reference) for batched, reference in PAIRS}


@pytest.mark.parametrize("batch", [reproduce._BATCH, 7, 1000])
@pytest.mark.parametrize("batched", [b for b, _ in PAIRS], ids=lambda f: f.__name__)
def test_batched_check_equals_the_per_matrix_loop(monkeypatch, per_matrix_runs, batched, batch):
    monkeypatch.setattr(reproduce, "_BATCH", batch)
    rows, seen = recorded_run(batched)
    expected_rows, expected_seen = per_matrix_runs[batched]
    assert rows == expected_rows
    assert seen == expected_seen


def test_stacked_lemma_suite_equals_the_per_matrix_loop():
    # Both sides map each kept state twice, once in the suite and once in
    # lemma1_bound_check's spot check, so the kernel counts match too.
    rows, seen = recorded_run(reproduce.check_lemmas)
    expected_rows, expected_seen = recorded_run(per_matrix_lemmas)
    assert rows == expected_rows
    assert seen == expected_seen
    assert sum(seen.values()) > 0


def test_each_closed_form_state_is_built_once(monkeypatch):
    # Four Bell states at each of six s values, and one state per p value.
    calls = Counter()

    def counting(name):
        build = getattr(reproduce, name)

        def wrapper(*args):
            calls[name] += 1
            return build(*args)

        return wrapper

    for name in ("isotropic", "pure_superposition"):
        monkeypatch.setattr(reproduce, name, counting(name))
    h = Harness()
    reproduce.check_isotropic(h)
    reproduce.check_pure_state(h)
    assert calls == {"isotropic": 24, "pure_superposition": 7}
    assert all(r.passed for r in h.rows)


def test_soundness_builds_validates_and_scans_stacks(monkeypatch):
    # The 3000 states are built as stacks, with no random_multiseparable call
    # and no DensityOperator apiece, yet every one of them is validated.
    calls = Counter()

    def counting(name, fn):
        def wrapper(*args):
            calls[name] += 1
            return fn(*args)

        return wrapper

    build = counting("build", states.random_multiseparable)
    for module in (states, reproduce):
        monkeypatch.setattr(module, "random_multiseparable", build, raising=False)
    monkeypatch.setattr(linalg.DensityOperator, "__init__", counting("wrap", linalg.DensityOperator.__init__))
    validate = reproduce._validate_density_stack

    def validating(stack):
        calls["validated"] += len(stack)
        validate(stack)

    monkeypatch.setattr(reproduce, "_validate_density_stack", validating)
    h = Harness()
    reproduce.check_soundness(h)
    assert calls == {"validated": 3000}
    assert all(r.passed for r in h.rows)


@pytest.mark.parametrize(
    "perturb", [math.nan, math.inf, -math.inf, 10**400, -(10**400)], ids=["nan", "inf", "-inf", "1e400", "-1e400"]
)
def test_run_all_rejects_a_non_finite_perturb(perturb):
    # math.isfinite raised OverflowError on an int too large for a float.
    with pytest.raises(ValueError, match=f"^perturb must be finite, got {perturb!r}$"):
        reproduce.run_all(perturb=perturb)


@pytest.mark.parametrize("perturb", [True, np.True_, "x", None, 1j], ids=["True", "np.True_", "str", "None", "1j"])
def test_run_all_refuses_a_perturb_that_is_not_a_number(perturb):
    # True ran with an offset of 1 (23/45 rows passed); the others raised
    # Python's own TypeError from math.isfinite.
    with pytest.raises(TypeError, match=f"^perturb must be a number, got {re.escape(repr(perturb))}$"):
        reproduce.run_all(perturb=perturb)


@pytest.mark.parametrize("text, shown", [("nan", "nan"), ("inf", "inf"), ("1e999", "inf"), ("-inf", "-inf")])
def test_reproduce_exits_2_on_a_non_finite_perturb(capsys, text, shown):
    # Exit 1 would say that some check failed; no check runs at all.
    assert cli.main(["reproduce", f"--perturb={text}"]) == 2
    assert capsys.readouterr() == ("", f"error: perturb must be finite, got {shown}\n")
