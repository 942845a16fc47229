"""End-to-end acceptance checks against closed-form reference results.

Check k of ``insep.reproduce.run_all`` is acceptance criterion k. Criteria 2-9
are defined once, as those check functions: the test for criterion k runs its
``reproduce.check_*`` and fails on every row the check marks failed, so
``insep reproduce`` and this file run the same checks. Criterion 1 keeps its
own body: it asserts the b-family's threshold b* = (4*sqrt(13)-7)/53, while
``insep reproduce`` keeps the quoted constant (see README, "Known failing
check").

Each test prints a single PASS/FAIL line and asserts. Run with
``pytest tests/test_acceptance.py -v -s`` to see the lines.
"""

import math

from insep import Verdict, hamming_offdiagonal_check, reproduce
from insep.states import horodecki_b

QUOTED_B_THRESHOLD = (math.sqrt(57) - 7) / 4  # ~0.1374586
EXACT_B_THRESHOLD = (4 * math.sqrt(13) - 7) / 53  # ~0.1400416


def _report(num, label, failures):
    status = "PASS" if not failures else "FAIL"
    print(f"criterion {num} [{status}]: {label}")
    assert not failures, f"criterion {num} ({label}): " + " | ".join(failures)


def _run_check(num, label, check):
    h = reproduce.Harness()
    check(h)
    failures = [f"{r.name}: computed {r.computed}, expected {r.expected}" for r in h.rows if not r.passed]
    _report(num, label, failures)


def test_criterion_1_b_family_threshold():
    """Verdict flips at b* = (4*sqrt(13)-7)/53 with witness (7,4) and bound 1/4.

    The family's (7,4) element sqrt(1-b^2)/(14b+2) meets the bound
    2^-h(7,4) = 1/4 where 53b^2 + 14b - 3 = 0, i.e. at b* ~= 0.1400416, so
    the check reports inseparable for b < b* and inconclusive above it. The
    grid is scanned against b*, and b* -/+ 1e-6 (margins ~9.2e-7, far above
    the 1e-9 decision tolerance) bracket the flip.

    The quoted constant (sqrt(57)-7)/4 ~= 0.1374586 is not the flip point:
    it solves (1-b^2)/(14b+2) = 1/4, the element with its square root
    dropped. That discrepancy is asserted here as a passing check (the
    quoted constant solves the rootless equation, the element equals 1/4 at
    b*, and quoted < 0.14 < b*, so the two disagree at b = 0.14); the
    ``insep reproduce`` row at b = 0.14 keeps the quoted constant and fails.
    """
    failures = []
    quoted_gap = (1 - QUOTED_B_THRESHOLD**2) / (14 * QUOTED_B_THRESHOLD + 2) - 0.25
    if abs(quoted_gap) > 1e-15:
        failures.append(f"quoted constant misses (1-b^2)/(14b+2) = 1/4 by {quoted_gap:.3e}")
    exact_gap = abs(horodecki_b(EXACT_B_THRESHOLD).matrix[7, 4]) - 0.25
    if abs(exact_gap) > 1e-15:
        failures.append(f"|rho[7,4]| at b*={EXACT_B_THRESHOLD:.7f} misses 1/4 by {exact_gap:.3e}")
    if not QUOTED_B_THRESHOLD < 0.14 < EXACT_B_THRESHOLD:
        failures.append(
            f"expected quoted {QUOTED_B_THRESHOLD:.7f} < 0.14 < b* {EXACT_B_THRESHOLD:.7f}"
        )
    grid = (0.10, 0.13, 0.137, 0.14, 0.2, EXACT_B_THRESHOLD - 1e-6, EXACT_B_THRESHOLD + 1e-6)
    for b in grid:
        report = hamming_offdiagonal_check(horodecki_b(b))
        want = Verdict.INSEPARABLE if b < EXACT_B_THRESHOLD else Verdict.INCONCLUSIVE
        if report.verdict is not want:
            failures.append(
                f"b={b}: got {report.verdict.value}, expected {want.value}"
                f" (element crosses the bound at b={EXACT_B_THRESHOLD:.7f})"
            )
        if report.verdict is Verdict.INSEPARABLE:
            w = report.witness
            if (w.a, w.b) != (7, 4):
                failures.append(f"b={b}: witness ({w.a},{w.b}), expected (7,4)")
            if abs(w.bound - 0.25) > 1e-15:
                failures.append(f"b={b}: bound {w.bound}, expected 0.25")
    _report(1, "b-family detection threshold", failures)


def test_criterion_2_b_family_ppt_control():
    _run_check(2, "b-family stays positive under first-qubit transpose", reproduce.check_ppt_control)


def test_criterion_3_isotropic_spectra_and_flips():
    _run_check(3, "isotropic spectra and detection flips at s=1 (P) and s=2 (T)", reproduce.check_isotropic)


def test_criterion_4_pure_state_spectra_and_window():
    _run_check(4, "pure-superposition spectra and negativity window", reproduce.check_pure_state)


def test_criterion_5_soundness_sweep():
    _run_check(5, "1000 product mixtures per n in (2,3,4) stay undetected", reproduce.check_soundness)


def test_criterion_6_decomposition_identity():
    _run_check(
        6, "partial P equals (identity + flip∘transpose)/2 on 1000 operators", reproduce.check_decomposition
    )


def test_criterion_7_element_rule_equals_dense_construction():
    _run_check(7, "element-wise application equals dense construction", reproduce.check_elementwise_vs_dense)


def test_criterion_8_lemma_suite():
    _run_check(8, "magnitude lower bound and quadratic-form witness over 500 states", reproduce.check_lemmas)


def test_criterion_9_bloch_projection():
    _run_check(9, "population averaging projects (x,y,z) to (x,y,0)", reproduce.check_bloch_projection)
