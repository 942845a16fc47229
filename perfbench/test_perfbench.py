"""Quick tests of the benchmark's own arithmetic, tracing and oracles.

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import signal
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE), str(HERE.parent / "src")]

import calibrate  # noqa: E402
import oracle  # noqa: E402
import run  # noqa: E402
import tracing  # noqa: E402
import workloads  # noqa: E402
from insep import criteria, maps, states  # noqa: E402
from insep.linalg import HermitianOperator  # noqa: E402
from insep.maps import MapKind, MapSpec  # noqa: E402


def span(name, start, end, parent):
    return (name, start, end, parent, 0)


def test_self_time_subtracts_the_union_of_clipped_children():
    spans = [
        span("root", 0.0, 10.0, -1),
        span("a", 1.0, 3.0, 0),
        span("b", 2.0, 5.0, 0),  # overlaps a: [1, 5] is covered once
        span("c", 8.0, 12.0, 0),  # overhangs root: only [8, 10] counts
        span("a.child", 1.5, 2.0, 1),
    ]
    assert tracing.self_times(spans) == pytest.approx([4.0, 1.5, 3.0, 4.0, 0.5])


def test_tracer_counts_wraps_and_restores():
    rho = states.ghz(3)
    originals = (maps.apply_on_qubit, criteria.apply_product, np.linalg.eigh)
    tracer = tracing.Tracer()
    targets = tracing.TARGETS + (tracing.Target("gone", "insep.maps", "no_such_function"),)
    tracer.install(targets)
    try:
        assert criteria.apply_product is not originals[1]
        tracer.begin_op(0)
        report = criteria.map_negativity_check(rho, MapSpec.all_qubits(3, MapKind.P))
    finally:
        tracer.uninstall()
    assert (maps.apply_on_qubit, criteria.apply_product, np.linalg.eigh) == originals
    assert report.verdict.value == oracle.INSEPARABLE
    assert tracer.unobserved == ["insep.maps.no_such_function"]
    counts = tracer.counters
    assert counts["maps.apply_on_qubit"]["calls"] == 3
    assert counts["maps.apply_on_qubit"]["bytes_computed"] == 3 * 2 * 16 * 64
    assert counts["linalg.eigensolve"]["work_d3"] == 8**3
    names = [s[0] for s in tracer.spans]
    assert names[0] == "criteria.map_negativity_check"
    assert names.count("maps.apply_product") == 1
    # Every span but the outermost has a parent, and self times never exceed durations.
    assert [s[3] for s in tracer.spans].count(-1) == 1
    for s, own in zip(tracer.spans, tracing.self_times(tracer.spans)):
        assert 0 <= own <= s[2] - s[1]


def test_nested_constructor_spans_split_self_time():
    tracer = tracing.Tracer()
    tracer.install()
    try:
        states.ghz(2)
    finally:
        tracer.uninstall()
    by_name = {s[0]: s for s in tracer.spans}
    density = tracer.spans.index(by_name["linalg.DensityOperator"])
    assert by_name["linalg.HermitianOperator"][3] == density
    metrics = tracing.layer_metrics(tracer, tracer.layer_self_seconds(), busy=1.0, rounds=1, ops=1)
    assert metrics["linalg.DensityOperator.per_op"] == (1, "count/op")
    assert metrics["cli.load_operator.self_pct"] == (0.0, "%")


def test_tail_is_nearest_rank_with_count_beyond():
    samples = [float(i) for i in range(1, 1001)]
    assert run.tail(samples, 99) == (990.0, 10)
    assert run.tail(samples, 100) == (1000.0, 0)
    assert run.tail([3.0], 99) == (3.0, 0)


def test_calibration_drops_its_own_time_and_scales_by_the_nearby_mean():
    cal = calibrate.Calibration()
    w = calibrate.WINDOW_S
    # An op from 1 s to 3 s; two calibrations ran inside it, one just before
    # and one just after; the first and last are too far away to count.
    cal.times = [1 - 2 * w, 1 - w / 2, 1.5, 2.0, 3 + w / 2, 3 + 2 * w]
    cal.seconds = [0.1, 0.002, 0.004, 0.004, 0.002, 0.1]
    want = (2.0 - 0.008) * calibrate.REFERENCE_S / 0.003
    assert cal.scaled(1.0, 2.0) == pytest.approx(want)


def test_calibration_timer_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    with calibrate.Calibration() as cal:
        with cal.paused():
            assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
        assert signal.getitimer(signal.ITIMER_REAL)[1] == calibrate.PERIOD_S
        cal.settle()
    assert signal.getsignal(signal.SIGALRM) is before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert cal.seconds and all(t > 0 for t in cal.seconds)


@pytest.mark.parametrize("kind", "PT")
def test_oracle_map_matches_reference_construction(kind):
    rng = np.random.default_rng(1)
    g = rng.standard_normal((8, 8)) + 1j * rng.standard_normal((8, 8))
    rho = HermitianOperator(g + g.conj().T, 3)
    for qubit in (1, 2, 3):
        want = maps.apply_on_qubit_dense(rho, qubit, MapKind(kind)).matrix
        assert np.allclose(oracle.apply_map(rho.matrix, 3, qubit, kind), want, atol=1e-14)


def test_every_detect_lib_op_passes_its_oracle():
    checked: dict = {}
    with calibrate.Calibration() as calibration:
        phase = run.Phase(workloads.setup_detect_lib(7, HERE), 0.0, checked, calibration)
    assert phase.failures == []
    assert phase.rounds == 1


def test_oracle_rejects_forged_library_witnesses():
    m = states.ghz(3).matrix
    spec = MapSpec.all_qubits(3, MapKind.P)
    report = criteria.map_negativity_check(states.ghz(3), spec)
    lam = oracle.ghz_min_eigenvalue(3, "all:P")
    assert oracle.check_report(report, m, 3, "map", "all:P", oracle.INSEPARABLE, lam) == []
    assert oracle.check_report(report, m, 3, "map", "all:P", oracle.INCONCLUSIVE) != []
    forged = np.zeros(8, dtype=complex)
    forged[1] = 1
    assert oracle.check_eigen_witness(m, 3, "all:P", report.witness.min_eigenvalue, forged) != []
    # (7, 0) is the GHZ corner; (6, 1) is on the antidiagonal but holds 0.
    assert oracle.check_offdiagonal_witness(m, 3, 7, 0, 0.5, antidiagonal_only=True) == []
    assert oracle.check_offdiagonal_witness(m, 3, 6, 1, 0.0, antidiagonal_only=True) != []
    assert oracle.check_offdiagonal_witness(m, 3, 7, 1, 0.0, antidiagonal_only=True) != []


def test_oracle_checks_cli_detect_output(tmp_path):
    path = tmp_path / "ghz.json"
    assert workloads.run_cli(["gen", "ghz", "n=3", "--out", str(path)])[0] == 0
    m = oracle.ghz_matrix(3)
    rc, out, _ = workloads.run_cli(["detect", str(path), "map", "--spec", "1:T"])
    lam = oracle.ghz_min_eigenvalue(3, "1:T")
    assert oracle.check_detect_output(rc, out, m, 3, "map", "1:T", oracle.INSEPARABLE, lam) == []
    bad = out.replace("min-eigenvalue: ", "min-eigenvalue: -1")
    assert oracle.check_detect_output(rc, bad, m, 3, "map", "1:T", oracle.INSEPARABLE, lam) != []
    assert oracle.check_detect_output(1, out, m, 3, "map", "1:T", oracle.INSEPARABLE, lam) != []
    rc, out, _ = workloads.run_cli(["detect", str(path), "lz"])
    assert oracle.check_detect_output(rc, out, m, 3, "lz", None, oracle.INSEPARABLE) == []


def test_round_trip_check_catches_a_changed_file(tmp_path):
    path = tmp_path / "msep.json"
    assert workloads.run_cli(["gen", "random-msep", "n=2", "seed=3", "--out", str(path)])[0] == 0
    meta = {"generator": "random-msep", "parameters": {"n": 2, "terms": 4, "seed": 3}}
    assert workloads.check_round_trip(path, 2, meta) == []
    assert workloads.check_round_trip(path, 3, meta) != []
    path.write_text(path.read_text().replace("]\n}", "] \n}"))
    assert workloads.check_round_trip(path, 2, meta) != []


def test_reproduce_oracle_accepts_only_the_known_failure():
    rows = [f"[PASS] row {i}: computed 1, expected 1" for i in range(44)]
    known = f"[FAIL] {oracle.KNOWN_FAILING_ROW}: computed inseparable, expected inconclusive"
    good = "\n".join(rows + [known, "44/45 checks passed"])
    assert oracle.check_reproduce_output(1, good) == []
    perturbed = "\n".join([r.replace("[PASS]", "[FAIL]") for r in rows] + [known, "0/45 checks passed"])
    assert oracle.check_reproduce_output(1, perturbed) != []
    assert oracle.check_reproduce_output(0, good) != []


def test_apply_oracle_flags_negative_eigenvalues():
    assert oracle.check_apply_output(0, "trace 1.0\nmin-eigenvalue 0.001\n") == []
    assert oracle.check_apply_output(0, "trace 1.0\nmin-eigenvalue -0.01\n") != []
    assert oracle.check_apply_output(0, "trace 0.5\nmin-eigenvalue 0.001\n") != []
