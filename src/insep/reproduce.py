"""Closed-form reference checks behind the ``reproduce`` CLI subcommand.

Each check recomputes a library result and compares it against an
independently stated closed form (eigenvalue formulas, detection thresholds,
exact identities) or against a property that must hold (positivity of mapped
product mixtures). The CLI renders one PASS/FAIL row per check.

Check k of ``run_all`` is acceptance criterion k, and these functions are the
only definition of criteria 2-9: ``tests/test_acceptance.py`` runs them and
fails on any failed row. Criterion 1's test keeps its own body, because it
asserts the b-family's threshold (4*sqrt(13)-7)/53 while
``check_b_family_threshold`` keeps the quoted constant (sqrt(57)-7)/4.

The ``perturb`` argument is a harness self-test hook: it offsets every
numeric comparison, so a nonzero value must produce FAIL rows.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .criteria import (
    Verdict,
    _lemma1_holds,
    _stack_best_margins,
    _violates,
    equal_argument_check,
    hamming_offdiagonal_check,
    lemma1_bound_check,
    map_negativity_check,
)
from .linalg import (
    TOL_PSD,
    HermitianOperator,
    _bloch_matrix,
    _finite_real,
    _lemma2_values,
    _validate_density_stack,
    bloch_from_density,
    min_eigenvalue,
)
from .maps import (
    MapKind,
    MapSpec,
    _dense_map_qubit,
    _map_qubit,
    apply_on_qubit,
    apply_product,
    lambda_p,
)
from .states import (
    Bell,
    _multiseparable_stack,
    horodecki_b,
    isotropic,
    mixture_rng,
    pure_superposition,
    random_bloch,
)

QUOTED_B_THRESHOLD = (math.sqrt(57) - 7) / 4
EXACT_B_THRESHOLD = (4 * math.sqrt(13) - 7) / 53

# States per stack in the bulk checks: a (50, 16, 16) complex stack and its
# mapped copies stay under 1 MB, where one stack of all 1000 states raised
# the peak RSS of a run by a third.
_BATCH = 50


@dataclass
class CheckRow:
    name: str
    computed: str
    expected: str
    passed: bool
    note: str = ""


@dataclass
class Harness:
    perturb: float = 0.0
    rows: list[CheckRow] = field(default_factory=list)

    def close_to(self, name, computed, expected, tol):
        c = computed + self.perturb
        self.rows.append(
            CheckRow(name, repr(float(c)), f"{float(expected)!r} (tol {tol:g})", abs(c - expected) <= tol)
        )

    def at_least(self, name, computed, floor):
        c = computed + self.perturb
        self.rows.append(CheckRow(name, repr(float(c)), f">= {float(floor)!r}", c >= floor))

    def equals(self, name, computed, expected, note=""):
        self.rows.append(CheckRow(name, str(computed), str(expected), computed == expected, note))


def _random_hermitian_trace_one(rng) -> np.ndarray:
    g = rng.standard_normal((4, 4)) + 1j * rng.standard_normal((4, 4))
    h = (g + g.conj().T) / 2
    tr = h.trace().real
    if abs(tr) < 0.5:  # keep the trace normalization well conditioned
        h += np.eye(4) * (1.0 if tr >= 0 else -1.0)
        tr = h.trace().real
    return h / tr


def _random_density(rng, n) -> np.ndarray:
    d = 1 << n
    g = rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))
    m = g @ g.conj().T
    return m / m.trace().real


def _nonneg_mixture(rng, n, terms) -> HermitianOperator:
    # Mixture of entrywise-nonnegative projectors: an equal-argument state
    # (every nonzero off-diagonal element has argument 0).
    w = rng.uniform(0, 1, terms)
    w /= w.sum()
    v = rng.uniform(0, 1, (terms, 1 << n))
    v /= np.sqrt(np.vecdot(v, v))[:, None]
    return HermitianOperator((w[:, None, None] * (v[:, :, None] * v[:, None, :])).sum(axis=0), n)


def _spectrum_gap(op: HermitianOperator, closed_form) -> float:
    """max |eigvalsh(op) - sort(closed_form)|: op's spectrum against a closed form."""
    return float(np.max(np.abs(np.linalg.eigvalsh(op.matrix) - np.sort(closed_form))))


def check_b_family_threshold(h: Harness) -> None:
    grid = {b: horodecki_b(b) for b in (0.10, 0.13, 0.137, 0.14, 0.2)}
    for b, rho in grid.items():
        report = hamming_offdiagonal_check(rho)
        expected = Verdict.INSEPARABLE if b < QUOTED_B_THRESHOLD else Verdict.INCONCLUSIVE
        note = ""
        if b == 0.14:
            note = (
                "quoted constant (sqrt(57)-7)/4 ~= 0.1374586 solves (1-b^2)/(14b+2)=1/4; "
                f"the matrix element sqrt(1-b^2)/(14b+2) crosses 1/4 at {EXACT_B_THRESHOLD:.7f}"
            )
        h.equals(f"b-family verdict at b={b}", report.verdict.value, expected.value, note)
        if report.verdict is Verdict.INSEPARABLE:
            w = report.witness
            h.equals(f"b-family witness at b={b}", f"({w.a},{w.b}) bound {w.bound}", "(7,4) bound 0.25")
    h.close_to(
        "b-family element (7,4) at b=0.1",
        abs(grid[0.1].matrix[7, 4]),
        math.sqrt(0.99) / 3.4,
        1e-12,
    )


def check_ppt_control(h: Harness) -> None:
    for b in (0.1, 0.5, 0.9):
        low = min_eigenvalue(apply_on_qubit(horodecki_b(b), 1, MapKind.T))
        h.at_least(f"b-family partial transpose on qubit 1, min eig at b={b}", low, -TOL_PSD)


def _isotropic_verdict(states: dict, spec: MapSpec) -> str:
    """The verdict all four Bell states share, or each one's if they differ."""
    by_bell = {bell.value: map_negativity_check(rho, spec).verdict.value for bell, rho in states.items()}
    if len(set(by_bell.values())) == 1:
        return by_bell[Bell.PHI_PLUS.value]
    return "Bell states disagree (" + ", ".join(f"{k}: {v}" for k, v in by_bell.items()) + ")"


def check_isotropic(h: Harness) -> None:
    s_grid = (0, 0.5, 1, 1.5, 2, 5)
    grid = [{bell: isotropic(s, bell) for bell in Bell} for s in s_grid]
    for s, states in zip(s_grid, grid):
        exp_p = [(s - 1) / (4 * s + 4), (s + 3) / (4 * s + 4), 0.25, 0.25]
        exp_t = [(s - 2) / (4 * s + 4)] + [(s + 2) / (4 * s + 4)] * 3
        dev_p = max(_spectrum_gap(apply_on_qubit(rho, 2, MapKind.P), exp_p) for rho in states.values())
        dev_t = max(_spectrum_gap(apply_on_qubit(rho, 2, MapKind.T), exp_t) for rho in states.values())
        h.close_to(f"isotropic (IxP) spectrum deviation at s={s}, all Bell states", dev_p, 0.0, 1e-10)
        h.close_to(f"isotropic (IxT) spectrum deviation at s={s}, all Bell states", dev_t, 0.0, 1e-10)
    for kind, flip in ((MapKind.P, 1.0), (MapKind.T, 2.0)):
        spec = MapSpec.single(2, kind)
        verdicts = [_isotropic_verdict(states, spec) for states in grid]
        expected = [
            Verdict.INSEPARABLE.value if s < flip else Verdict.INCONCLUSIVE.value for s in s_grid
        ]
        h.equals(f"isotropic Ix{kind.value} verdicts over s={s_grid}", verdicts, expected)


def check_pure_state(h: Harness) -> None:
    p_grid = (0.05, 0.067, 0.1, 0.5, 0.9, 0.933, 0.95)
    both = MapSpec.all_qubits(2, MapKind.P)
    states = [pure_superposition(p) for p in p_grid]
    dev_one = dev_both = 0.0
    for p, rho in zip(p_grid, states):
        disc = math.sqrt(-12 * p * p + 12 * p + 1) / 4
        closed_one = [p / 2, (1 - p) / 2, 0.25 - disc, 0.25 + disc]
        dev_one = max(dev_one, _spectrum_gap(apply_on_qubit(rho, 2, MapKind.P), closed_one))
        r = math.sqrt(p - p * p)
        dev_both = max(dev_both, _spectrum_gap(apply_product(rho, both), [0.25, 0.25, 0.25 - r, 0.25 + r]))
    h.close_to("pure-state (IxP) spectrum deviation over p grid", dev_one, 0.0, 1e-10)
    h.close_to("pure-state (PxP) spectrum deviation over p grid", dev_both, 0.0, 1e-10)
    lo, hi = 0.5 - math.sqrt(3) / 4, 0.5 + math.sqrt(3) / 4
    verdicts = [map_negativity_check(rho, both).verdict.value for rho in states]
    expected = [Verdict.INSEPARABLE.value if lo < p < hi else Verdict.INCONCLUSIVE.value for p in p_grid]
    h.equals(f"pure-state (PxP) verdicts over p={p_grid}", verdicts, expected)


def _soundness_specs(n: int):
    for k in range(1, n + 1):
        yield MapSpec.single(k, MapKind.P)
        yield MapSpec.single(k, MapKind.T)
    yield MapSpec.all_qubits(n, MapKind.P)


def _batches(count: int):
    """Consecutive ranges of at most _BATCH indices covering range(count)."""
    return (range(start, min(start + _BATCH, count)) for start in range(0, count, _BATCH))


def check_soundness(h: Harness) -> None:
    for n in (2, 3, 4):
        specs = [spec.assignments for spec in _soundness_specs(n)]
        false_positives = 0
        lowest = math.inf
        for batch in _batches(1000):
            # State i is random_multiseparable(n, 1 + i % 5, seed=i). The
            # batch's states of one term count are built as one stack, and
            # the whole batch is validated and scanned as one.
            by_terms = {}
            for i in batch:
                by_terms.setdefault(1 + i % 5, []).append(i)
            stack = np.concatenate([_multiseparable_stack(n, t, seeds) for t, seeds in by_terms.items()])
            _validate_density_stack(stack)
            for margins in _stack_best_margins(stack):
                false_positives += int(np.count_nonzero(_violates(margins)))
            for assignments in specs:
                mapped = stack
                for q, kind in assignments:
                    mapped = _map_qubit(mapped, n, q, kind)
                low = np.linalg.eigvalsh(mapped)[:, 0]
                lowest = min(lowest, float(low.min()))
                false_positives += int(np.count_nonzero(low < -TOL_PSD))
        h.equals(f"soundness n={n}: false positives over 1000 product mixtures", false_positives, 0)
        h.at_least(f"soundness n={n}: min eigenvalue over all P/T specs", lowest, -TOL_PSD)


def check_decomposition(h: Harness) -> None:
    rng = mixture_rng(20260808)
    dev = 0.0
    for batch in _batches(1000):
        rho = np.stack([_random_hermitian_trace_one(rng) for _ in batch])
        lhs = _map_qubit(rho, 2, 2, MapKind.P)
        flipped = _map_qubit(_map_qubit(rho, 2, 2, MapKind.T), 2, 2, MapKind.X)
        rhs = (rho + flipped) / 2
        dev = max(dev, float(np.max(np.abs(lhs - rhs))))
    h.close_to(
        "decomposition identity (IxP) = ((I + IxX.IxT)/2), max deviation",
        dev,
        0.0,
        1e-12,
    )


def check_elementwise_vs_dense(h: Harness) -> None:
    rng = mixture_rng(11)
    for n in (2, 3, 4):
        dev = 0.0
        for batch in _batches(200):
            rho = np.stack([_random_density(rng, n) for _ in batch])
            for k in range(1, n + 1):
                for kind in MapKind:
                    fast = _map_qubit(rho, n, k, kind)
                    dense = _dense_map_qubit(rho, n, k, kind)
                    dev = max(dev, float(np.max(np.abs(fast - dense))))
        h.close_to(f"element-wise vs dense map application, n={n}, max deviation", dev, 0.0, 1e-12)


def check_lemmas(h: Harness) -> None:
    rng = mixture_rng(99)
    n = 3
    d = 1 << n
    spot_failures = 0
    kept = []
    for _ in range(500):
        rho = _nonneg_mixture(rng, n, terms=1 + int(rng.integers(4)))
        if not equal_argument_check(rho):  # lemma 1's precondition
            spot_failures += 1
            continue
        kept.append(rho)
    # The states that meet the precondition are mapped and compared as one
    # stack; the function-level lemma1_bound_check is spot-checked on each
    # state's largest off-diagonal element.
    stack = np.array([rho.matrix for rho in kept]).reshape(-1, d, d)  # (0, d, d) if none is kept
    mapped = stack
    for q in range(1, n + 1):
        mapped = _map_qubit(mapped, n, q, MapKind.P)
    # Every off-diagonal pair (a, b), in row-major order.
    a, b = np.nonzero(~np.eye(d, dtype=bool))
    c_ab = np.abs(stack[:, a, b])
    s_ab = np.abs(mapped[:, a, b])
    bound_violations = int(np.count_nonzero(~_lemma1_holds(c_ab, s_ab, n, np.bitwise_count(a ^ b))))
    for rho, k in zip(kept, c_ab.argmax(axis=1).tolist()):
        if not lemma1_bound_check(rho, a[k], b[k]):
            spot_failures += 1
    # lemma2_witness_value's formula at every off-diagonal pair with s_ab != 0,
    # from the real diagonal and |s_ab|, which give its values bit for bit.
    nonzero = s_ab != 0
    diag = mapped.diagonal(axis1=1, axis2=2).real
    value = _lemma2_values(diag[:, a], diag[:, b], s_ab)[nonzero]
    closed = 2 * (0.5**n - s_ab[nonzero])
    value_dev = float(np.abs(value - closed).max(initial=0.0))
    sign_mismatches = int(np.count_nonzero((value < 0) != (s_ab[nonzero] > 0.5**n)))
    h.equals("lemma-1 bound violations over 500 equal-argument states (n=3)", bound_violations, 0)
    h.equals("lemma-1 spot checks failed", spot_failures, 0)
    h.close_to("lemma-2 witness vs 2(1/2^n - |s_ab|), max deviation", value_dev, 0.0, 1e-12)
    h.equals("lemma-2 sign vs element-exceeds-bound mismatches", sign_mismatches, 0)


def check_bloch_projection(h: Harness) -> None:
    rng = mixture_rng(5)
    dev = 0.0
    for _ in range(1000):
        x, y, z = random_bloch(rng)
        image = bloch_from_density(lambda_p(HermitianOperator(_bloch_matrix(x, y, z), 1)))
        dev = max(dev, abs(image.x - x), abs(image.y - y), abs(image.z))
    h.close_to("Bloch projection (x,y,z) -> (x,y,0), max deviation", dev, 0.0, 1e-12)


def run_all(perturb: float = 0.0) -> list[CheckRow]:
    # A NaN or infinite offset would fail rows by arithmetic, not by comparison.
    h = Harness(perturb=_finite_real(perturb, "perturb"))
    check_b_family_threshold(h)
    check_ppt_control(h)
    check_isotropic(h)
    check_pure_state(h)
    check_soundness(h)
    check_decomposition(h)
    check_elementwise_vs_dense(h)
    check_lemmas(h)
    check_bloch_projection(h)
    return h.rows
