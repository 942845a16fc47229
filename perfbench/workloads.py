"""The benchmark's workloads: set-up, the ops of one round, and their checks.

A workload's ``setup(seed, workdir)`` generates its inputs, writing any files
under ``workdir``, and returns the ops of one round. The runner repeats whole
rounds, so every run times the same mix of ops. Ops call the program only
through ``insep.cli.main``, or through ``DensityOperator`` and the
``insep.criteria`` checks. They look these up on their modules at call time,
so the traced run's wrappers see them.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Hashable

import numpy as np
from insep import cli, criteria, linalg, states
from insep.maps import MapKind, MapSpec

import oracle
from oracle import INCONCLUSIVE, INSEPARABLE


class SetupError(RuntimeError):
    """The program could not produce a workload's inputs."""


@dataclass
class Op:
    """One timed call into the program and the check of its output."""

    label: str
    run: Callable[[], object]
    check: Callable[[object], list[str]]
    # Outputs with equal keys are checked once per run.
    key: Callable[[object], Hashable]


@dataclass
class Workload:
    name: str
    why: str
    setup: Callable[[int, Path], list[Op]]
    # Percentile reported as op_tail_s: the highest one with at least ten
    # samples beyond it at the workload's ops per run. None where a run has
    # too few ops for that; op_tail_s is then the slowest op's median.
    tail_pct: float | None
    # Set-up whose ops the oracle must fail: shows that failures are counted.
    control: Callable[[int, Path], list[Op]] | None = None


def run_cli(argv: list[str]) -> tuple[int, str, str]:
    """Run ``insep.cli.main(argv)`` and capture its exit code and output."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            rc = cli.main(argv)
        except SystemExit as exc:
            rc = exc.code if isinstance(exc.code, int) else 2
    return rc, out.getvalue(), err.getvalue()


def _gen(path: Path, family: str, *params: str) -> None:
    rc, _, err = run_cli(["gen", family, *params, "--out", str(path)])
    if rc != 0:
        raise SetupError(f"gen {family} {' '.join(params)} exited {rc}: {err.strip()}")


def _file_digest(path) -> str:
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


def check_round_trip(path, n: int, meta: dict) -> list[str]:
    """A written file must re-load and re-serialize to the same bytes."""
    try:
        text = Path(path).read_text()
        op, loaded_meta = cli.load_operator(path)
    except (OSError, cli.CliError) as exc:
        return [f"{path} does not re-load: {exc}"]
    errors = []
    if cli.serialize_operator(op, loaded_meta) != text:
        errors.append(f"{path} does not re-serialize byte-identically")
    if op.n_qubits != n:
        errors.append(f"{path} has {op.n_qubits} qubits, expected {n}")
    for k, v in meta.items():
        if loaded_meta.get(k) != v:
            errors.append(f"{path} meta {k}={loaded_meta.get(k)!r}, expected {v!r}")
    return errors


# --- detect-files --------------------------------------------------------

ALL_METHODS = (("lz",), ("map", "all:P"), ("map", "1:P"), ("map", "1:T"))
# (family, n, methods). n=10 is left out: one op takes about 2 s, too few
# of them fit in one run for a steady median on a shared host, and a dense
# n=10 file takes about 7 s to write.
DETECT_FILES = (
    ("random-msep", 9, ALL_METHODS),
    ("ghz", 9, ALL_METHODS),
    ("random-msep", 8, ALL_METHODS[:2]),
    ("ghz", 8, ALL_METHODS[:2]),
)


def setup_detect_files(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    ops = []
    for family, n, methods in DETECT_FILES:
        if family == "ghz":
            params, matrix, expected = (f"n={n}",), oracle.ghz_matrix(n), INSEPARABLE
        else:
            params = (f"n={n}", "terms=4", f"seed={int(rng.integers(2**31))}")
            matrix, expected = None, INCONCLUSIVE
        path = workdir / f"{family}-{n}.json"
        _gen(path, family, *params)
        for method, *spec in methods:
            spec = spec[0] if spec else None
            argv = ["detect", str(path), method] + (["--spec", spec] if spec else [])
            lam = oracle.ghz_min_eigenvalue(n, spec) if spec and matrix is not None else None

            def check(out, matrix=matrix, n=n, method=method, spec=spec, expected=expected, lam=lam):
                rc, stdout, _ = out
                return oracle.check_detect_output(rc, stdout, matrix, n, method, spec, expected, lam)

            ops.append(Op(f"detect {family} n={n} {' '.join(argv[2:])}", lambda argv=argv: run_cli(argv), check,
                          key=lambda out: out[:2]))
    return ops


# --- detect-lib ----------------------------------------------------------


def _library_case(label, matrix, n, method, spec_text, expected, lam=None) -> Op:
    spec = None
    if spec_text is not None:
        qubit, kind = spec_text.split(":")
        kind = MapKind(kind)
        spec = MapSpec.all_qubits(n, kind) if qubit == "all" else MapSpec.single(int(qubit), kind)
    check_name = {"lz": "lz_antidiagonal_check", "hamming": "hamming_offdiagonal_check",
                  "map": "map_negativity_check"}[method]

    def run():
        rho = linalg.DensityOperator(matrix, n)
        check = getattr(criteria, check_name)
        return check(rho) if spec is None else check(rho, spec)

    def check(report):
        return oracle.check_report(report, matrix, n, method, spec_text, expected, lam)

    def key(report):
        w = report.witness
        if w is None:
            return (report.verdict,)
        if method == "map":
            return (report.verdict, w.min_eigenvalue, w.eigenvector.tobytes())
        return (report.verdict, w.a, w.b, w.value)

    suffix = f" {spec_text}" if spec_text else ""
    return Op(f"{label} {method}{suffix}", run, check, key)


def setup_detect_lib(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    ops = []
    for n in range(3, 9):
        msep = states.random_multiseparable(n, 4, int(rng.integers(2**31))).matrix
        ghz = states.ghz(n).matrix
        for method, spec in (("lz", None), ("hamming", None), ("map", "1:P"), ("map", f"{n}:T"), ("map", "all:P")):
            ops.append(_library_case(f"random-msep n={n}", msep, n, method, spec, INCONCLUSIVE))
            lam = oracle.ghz_min_eigenvalue(n, spec) if spec else None
            ops.append(_library_case(f"ghz n={n}", ghz, n, method, spec, INSEPARABLE, lam))
    # Parameters are drawn away from each family's verdict thresholds.
    b_lo, b_hi = rng.uniform(0.02, 0.12), rng.uniform(0.2, 0.9)
    for b, hamming in ((b_lo, INSEPARABLE), (b_hi, INCONCLUSIVE)):
        m = states.horodecki_b(b).matrix
        label = f"horodecki-b b={b:.4f}"
        ops.append(_library_case(label, m, 3, "hamming", None, hamming))
        ops.append(_library_case(label, m, 3, "lz", None, INCONCLUSIVE))
        ops.append(_library_case(label, m, 3, "map", "1:T", INCONCLUSIVE))
    for s in (rng.uniform(0.1, 0.8), rng.uniform(1.2, 1.8), rng.uniform(2.5, 5.0)):
        m = states.isotropic(s).matrix
        label = f"isotropic s={s:.4f}"
        below = {kind: INSEPARABLE if s < flip else INCONCLUSIVE for kind, flip in (("P", 1.0), ("T", 2.0))}
        ops.append(_library_case(label, m, 2, "lz", None, below["P"]))
        for spec, kind in (("2:P", "P"), ("1:T", "T")):
            lam = oracle.isotropic_min_eigenvalue(s, kind) if below[kind] == INSEPARABLE else None
            ops.append(_library_case(label, m, 2, "map", spec, below[kind], lam))
    lo, hi = 0.5 - np.sqrt(3) / 4, 0.5 + np.sqrt(3) / 4
    for p in (rng.uniform(0.15, 0.85), rng.uniform(0.01, 0.05)):
        m = states.pure_superposition(p).matrix
        label = f"pure-p p={p:.4f}"
        inside = INSEPARABLE if lo < p < hi else INCONCLUSIVE
        ops.append(_library_case(label, m, 2, "lz", None, inside))
        lam = oracle.pure_min_eigenvalue(p, "all:P") if inside == INSEPARABLE else None
        ops.append(_library_case(label, m, 2, "map", "all:P", inside, lam))
        ops.append(_library_case(label, m, 2, "map", "2:P", INSEPARABLE, oracle.pure_min_eigenvalue(p, "2:P")))
    return ops


# --- reproduce -------------------------------------------------------------


def _reproduce_ops(argv):
    def check(out):
        rc, stdout, _ = out
        return oracle.check_reproduce_output(rc, stdout)

    return [Op(" ".join(argv), lambda: run_cli(argv), check, key=lambda out: out[:2])]


def setup_reproduce(seed: int, workdir: Path):
    return _reproduce_ops(["reproduce"])


def control_reproduce(seed: int, workdir: Path):
    """Negative control: perturbed comparisons must be counted as failures."""
    return _reproduce_ops(["reproduce", "--perturb", "1e-3"])


# --- write-files -----------------------------------------------------------


def _write_op(label, argv, out_path, n, meta, check_stdout):
    def check(out):
        rc, stdout, _ = out
        errors = check_stdout(rc, stdout)
        return errors or check_round_trip(out_path, n, meta)

    return Op(label, lambda: run_cli(argv), check, key=lambda out: (out[:2], _file_digest(out_path)))


def _gen_stdout(rc, stdout):
    errors = [] if rc == 0 else [f"exit code {rc}, expected 0"]
    return errors + ([f"unexpected output {stdout[:80]!r}"] if stdout else [])


def setup_write_files(seed: int, workdir: Path):
    rng = np.random.default_rng(seed)
    ops = []
    # One n=9 op takes about 1 s, too long for a steady median within one
    # run on a shared host; n=7 and n=8 give two sizes and many rounds.
    for n in (7, 8):
        params = {"n": n, "terms": 4, "seed": int(rng.integers(2**31))}
        meta = {"generator": "random-msep", "parameters": params}
        path = workdir / f"written-{n}.json"
        argv = ["gen", "random-msep", *(f"{k}={v}" for k, v in params.items()), "--out", str(path)]
        ops.append(_write_op(f"gen random-msep n={n}", argv, path, n, meta, _gen_stdout))
        mapped = workdir / f"mapped-{n}.json"
        applied = ",".join(f"{q}:P" for q in range(1, n + 1))
        argv = ["apply", str(path), "all:P", "--out", str(mapped)]
        ops.append(_write_op(f"apply n={n} all:P", argv, mapped, n, {**meta, "applied": applied},
                             oracle.check_apply_output))
    return ops


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "detect-files",
            "insep detect on stored random-msep and GHZ files at n=8,9: JSON parsing, PSD validation, apply_product and eigh",
            setup_detect_files,
            tail_pct=None,
        ),
        Workload(
            "detect-lib",
            "library checks on in-memory closed-form states at n=2..8: wrapper copies, Hermiticity checks, popcount tables, call overhead",
            setup_detect_lib,
            tail_pct=99,
        ),
        Workload(
            "reproduce",
            "insep reproduce: thousands of n<=4 product-state builds and map applications through validated wrappers",
            setup_reproduce,
            tail_pct=None,
            control=control_reproduce,
        ),
        Workload(
            "write-files",
            "insep gen random-msep and insep apply all:P --out at n=7,8: the only workload that runs serialize_operator",
            setup_write_files,
            tail_pct=None,
        ),
    )
}
