"""Correctness checks for benchmark ops, written apart from the program.

Every check returns a list of error strings; an empty list means the op's
output is correct. The checks use closed-form verdicts and recompute each
witness from the op's input matrix with this module's own code:

* off-diagonal witnesses: the element, its Hamming bound 2^-h(a,b), its
  margin, and that no scanned pair has a larger margin;
* eigenvalue witnesses: the Rayleigh quotient and residual of the reported
  eigenvector under the mapped operator, built here by ``apply_map``.
"""

from __future__ import annotations

import json
import math

import numpy as np

# Margins within TOL_CRIT of a bound do not count as a violation, and a map
# check needs an eigenvalue below -TOL_PSD (the program's documented values).
TOL_CRIT = 1e-9
TOL_PSD = 1e-9
# Slack for comparing values recomputed here with the program's.
TOL_VALUE = 1e-9

INSEPARABLE = "inseparable"
INCONCLUSIVE = "inconclusive"

# Image of each matrix unit E_xy of a qubit under the maps the workloads use,
# as {(x', y'): weight}.
_UNIT_IMAGES = {
    "P": {
        (0, 0): {(0, 0): 0.5, (1, 1): 0.5},
        (1, 1): {(0, 0): 0.5, (1, 1): 0.5},
        (0, 1): {(0, 1): 1.0},
        (1, 0): {(1, 0): 1.0},
    },
    "T": {(x, y): {(y, x): 1.0} for x in (0, 1) for y in (0, 1)},
}


def _superoperator(kind: str) -> np.ndarray:
    s = np.zeros((2, 2, 2, 2))
    for (x, y), image in _UNIT_IMAGES[kind].items():
        for (u, v), w in image.items():
            s[u, v, x, y] = w
    return s


def apply_map(m: np.ndarray, n: int, qubit: int, kind: str) -> np.ndarray:
    """Apply a single-qubit map to ``qubit`` (1 = most significant bit)."""
    hi, lo = 1 << (qubit - 1), 1 << (n - qubit)
    r = m.reshape(hi, 2, lo, hi, 2, lo)
    out = np.einsum("uvxy,axbcyd->aubcvd", _superoperator(kind), r)
    return out.reshape(m.shape)


def parse_spec(text: str, n: int) -> list[tuple[int, str]]:
    """'all:KIND' or comma-separated 'QUBIT:KIND' entries."""
    out = []
    for part in text.split(","):
        qubit, kind = part.split(":")
        out += [(q, kind) for q in range(1, n + 1)] if qubit == "all" else [(int(qubit), kind)]
    return out


def apply_spec(m: np.ndarray, n: int, spec: str) -> np.ndarray:
    for qubit, kind in parse_spec(spec, n):
        m = apply_map(m, n, qubit, kind)
    return m


def check_offdiagonal_witness(m, n, a, b, value, antidiagonal_only) -> list[str]:
    """The witness must be a scanned pair a > b holding a maximal margin above TOL_CRIT."""
    d = 1 << n
    if not (0 <= b < a < d) or (antidiagonal_only and a + b != d - 1):
        return [f"witness ({a}, {b}) is not a scanned pair"]
    errors = []
    if abs(complex(m[a, b]) - value) > TOL_VALUE:
        errors.append(f"witness value {value} differs from rho[{a},{b}] = {complex(m[a, b])}")
    margin = abs(m[a, b]) - 0.5 ** bin(a ^ b).count("1")
    if margin <= TOL_CRIT:
        errors.append(f"witness margin {margin!r} does not exceed {TOL_CRIT}")
    best = best_offdiagonal_margin(m, n, antidiagonal_only)
    if margin < best - TOL_VALUE:
        errors.append(f"witness margin {margin!r} is below the best margin {best!r}")
    return errors


def best_offdiagonal_margin(m, n, antidiagonal_only) -> float:
    """max over scanned pairs a > b of |rho[a,b]| - 2^-h(a,b)."""
    d = 1 << n
    if antidiagonal_only:
        a = np.arange(d // 2, d)
        return float(np.max(np.abs(m[a, d - 1 - a])) - 0.5**n)
    popcount = np.array([bin(v).count("1") for v in range(d)])
    idx = np.arange(d)
    margins = np.abs(m) - 0.5 ** popcount[idx[:, None] ^ idx[None, :]]
    return float(np.max(np.where(idx[:, None] > idx[None, :], margins, -np.inf)))


def check_eigen_witness(m, n, spec, lam, vec, tol=TOL_PSD, expected_lam=None) -> list[str]:
    """The eigenvector must certify an eigenvalue below -tol of the mapped operator."""
    mapped = apply_spec(m, n, spec)
    vec = np.asarray(vec, dtype=np.complex128)
    errors = []
    if vec.shape != (1 << n,):
        return [f"eigenvector has shape {vec.shape}"]
    norm = float(np.linalg.norm(vec))
    if abs(norm - 1) > 1e-8:
        errors.append(f"eigenvector norm {norm!r} is not 1")
        vec = vec / norm
    mv = mapped @ vec
    rayleigh = float(np.vdot(vec, mv).real)
    if abs(rayleigh - lam) > TOL_VALUE:
        errors.append(f"Rayleigh quotient {rayleigh!r} differs from reported eigenvalue {lam!r}")
    if rayleigh >= -tol:
        errors.append(f"Rayleigh quotient {rayleigh!r} is not below -{tol}")
    residual = float(np.linalg.norm(mv - lam * vec))
    if residual > 1e-7:
        errors.append(f"eigen-residual {residual!r} is too large")
    if expected_lam is not None and abs(lam - expected_lam) > TOL_VALUE:
        errors.append(f"min eigenvalue {lam!r}, closed form {expected_lam!r}")
    return errors


def parse_detect_output(text: str) -> dict[str, str]:
    fields = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            fields[key] = value
    return fields


def check_detect_output(rc, stdout, m, n, method, spec, expected, expected_lam=None) -> list[str]:
    """Check one ``insep detect`` run: exit code, verdict and witness."""
    fields = parse_detect_output(stdout)
    verdict = fields.get("verdict")
    want_rc = 0 if expected == INSEPARABLE else 1
    errors = []
    if rc != want_rc:
        errors.append(f"exit code {rc}, expected {want_rc}")
    if verdict != expected:
        errors.append(f"verdict {verdict!r}, expected {expected!r}")
    if errors or verdict != INSEPARABLE:
        return errors
    try:
        if method == "map":
            lam = float(fields["min-eigenvalue"])
            vec = [complex(re, im) for re, im in json.loads(fields["eigenvector"])]
            return check_eigen_witness(m, n, spec, lam, vec, expected_lam=expected_lam)
        a, b = (int(x) for x in fields["witness-element"].strip("()").split(","))
        value = complex(fields["witness-value"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable witness: {exc!r}"]
    return check_offdiagonal_witness(m, n, a, b, value, antidiagonal_only=method == "lz")


def check_report(report, m, n, method, spec, expected, expected_lam=None) -> list[str]:
    """Check a library DetectionReport the way check_detect_output checks CLI text."""
    verdict = report.verdict.value
    if verdict != expected:
        return [f"verdict {verdict!r}, expected {expected!r}"]
    w = report.witness
    if verdict != INSEPARABLE:
        return []
    if w is None:
        return ["inseparable verdict without a witness"]
    if method == "map":
        return check_eigen_witness(m, n, spec, w.min_eigenvalue, w.eigenvector, expected_lam=expected_lam)
    return check_offdiagonal_witness(m, n, w.a, w.b, w.value, antidiagonal_only=method == "lz")


# The one reproduce row that fails by design (see README, "Known failing check").
KNOWN_FAILING_ROW = "b-family verdict at b=0.14"
REPRODUCE_ROWS = 45


def check_reproduce_output(rc, stdout) -> list[str]:
    lines = stdout.splitlines()
    failing = [line[len("[FAIL] "):].split(":")[0] for line in lines if line.startswith("[FAIL] ")]
    passing = [line for line in lines if line.startswith("[PASS] ")]
    errors = []
    if rc != 1:
        errors.append(f"exit code {rc}, expected 1")
    if failing != [KNOWN_FAILING_ROW]:
        errors.append(f"failing rows {failing}, expected [{KNOWN_FAILING_ROW!r}]")
    if len(passing) + len(failing) != REPRODUCE_ROWS:
        errors.append(f"{len(passing) + len(failing)} rows, expected {REPRODUCE_ROWS}")
    summary = f"{REPRODUCE_ROWS - 1}/{REPRODUCE_ROWS} checks passed"
    if not lines or lines[-1] != summary:
        errors.append(f"summary {lines[-1] if lines else ''!r}, expected {summary!r}")
    return errors


def check_apply_output(rc, stdout) -> list[str]:
    """``apply`` of positive maps to a separable state: trace 1 and no negative eigenvalue."""
    fields = dict(line.split(" ", 1) for line in stdout.splitlines() if " " in line)
    if rc != 0:
        return [f"exit code {rc}, expected 0"]
    try:
        trace = float(fields["trace"])
        low = float(fields["min-eigenvalue"])
    except (KeyError, ValueError) as exc:
        return [f"unreadable apply output: {exc!r}"]
    errors = []
    if abs(trace - 1) > 1e-9:
        errors.append(f"trace {trace!r} is not 1")
    if low < -TOL_PSD:
        errors.append(f"min eigenvalue {low!r} of a mapped separable state is below -{TOL_PSD}")
    return errors


def ghz_matrix(n: int) -> np.ndarray:
    d = 1 << n
    m = np.zeros((d, d), dtype=np.complex128)
    m[0, 0] = m[0, d - 1] = m[d - 1, 0] = m[d - 1, d - 1] = 0.5
    return m


def ghz_min_eigenvalue(n: int, spec: str) -> float:
    """Closed-form minimum eigenvalue of GHZ_n after 1:P, k:T or all:P."""
    if spec == "all:P":
        return 0.5**n - 0.5
    return {"P": -0.25, "T": -0.5}[spec.split(":")[1]]


def isotropic_min_eigenvalue(s: float, kind: str) -> float:
    """Minimum eigenvalue of the isotropic state after P or T on one qubit."""
    flip = {"P": 1.0, "T": 2.0}[kind]
    return (s - flip) / (4 * s + 4)


def pure_min_eigenvalue(p: float, spec: str) -> float:
    """Minimum eigenvalue of sqrt(p)|00> + sqrt(1-p)|11> after 1:P or all:P."""
    if spec == "all:P":
        return 0.25 - math.sqrt(p - p * p)
    return 0.25 - math.sqrt(-12 * p * p + 12 * p + 1) / 4
