"""Generators for the state families used by the detection criteria and tests."""

from __future__ import annotations

from enum import Enum

import numpy as np

from .linalg import MAX_QUBITS, DensityOperator, _bloch_matrix


class Bell(Enum):
    PHI_PLUS = "phi+"
    PHI_MINUS = "phi-"
    PSI_PLUS = "psi+"
    PSI_MINUS = "psi-"


def bell_ket(bell: Bell) -> np.ndarray:
    """One of (|00> +- |11>)/sqrt(2), (|01> +- |10>)/sqrt(2)."""
    v = np.zeros(4, dtype=np.complex128)
    if bell is Bell.PHI_PLUS:
        v[0] = v[3] = 1
    elif bell is Bell.PHI_MINUS:
        v[0], v[3] = 1, -1
    elif bell is Bell.PSI_PLUS:
        v[1] = v[2] = 1
    elif bell is Bell.PSI_MINUS:
        v[1], v[2] = 1, -1
    else:
        raise TypeError(f"unknown Bell state {bell!r}")
    return v / np.sqrt(2)


def bell_state(bell: Bell) -> DensityOperator:
    v = bell_ket(bell)
    return DensityOperator(np.outer(v, v.conj()), 2)


def horodecki_b(b: float) -> DensityOperator:
    """The three-qubit b-family: PSD, trace one, and PPT on qubit 1 for 0 < b < 1.

    The normalized matrix has diagonal (b,b,b,b,(1+b)/2,b,b,(1+b)/2)/(7b+1),
    b/(7b+1) at (0,5), (1,6), (2,7) and mirrors, and sqrt(1-b^2)/(14b+2) at
    (4,7) and (7,4).
    """
    if not 0 < b < 1:
        raise ValueError(f"b must be in (0, 1), got {b}")
    m = np.zeros((8, 8))
    for i in (0, 1, 2, 3, 5, 6):
        m[i, i] = b
    m[4, 4] = m[7, 7] = (1 + b) / 2
    m[4, 7] = m[7, 4] = np.sqrt(1 - b * b) / 2
    for i, j in ((0, 5), (1, 6), (2, 7)):
        m[i, j] = m[j, i] = b
    return DensityOperator(m / (7 * b + 1), 3)


def isotropic(s: float, bell: Bell = Bell.PHI_PLUS) -> DensityOperator:
    """Two-qubit isotropic state (|phi><phi| + s*I/4)/(1+s), s <= -4 or s >= 0."""
    if -4 < s < 0:
        raise ValueError(f"s must satisfy s <= -4 or s >= 0, got {s}")
    proj = bell_state(bell).matrix
    return DensityOperator((proj + s * np.eye(4) / 4) / (1 + s), 2)


def pure_superposition(p: float) -> DensityOperator:
    """Projector onto sqrt(p)|00> + sqrt(1-p)|11>, 0 < p < 1."""
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    v = np.zeros(4, dtype=np.complex128)
    v[0] = np.sqrt(p)
    v[3] = np.sqrt(1 - p)
    return DensityOperator(np.outer(v, v.conj()), 2)


def ghz(n: int) -> DensityOperator:
    """Projector onto (|0...0> + |1...1>)/sqrt(2); antidiagonal corners are 1/2."""
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    if n > MAX_QUBITS:
        raise ValueError(f"{n} qubits exceeds the cap of {MAX_QUBITS}")
    d = 1 << n
    v = np.zeros(d, dtype=np.complex128)
    v[0] = v[d - 1] = 1 / np.sqrt(2)
    return DensityOperator(np.outer(v, v.conj()), n)


def _kron_chain(factors) -> np.ndarray:
    """Kronecker product of square arrays, the first leftmost.

    Each step broadcasts out[i, k] * g[j, l] to index (i, j, k, l) and
    reshapes, which forms the same products as np.kron in the same order.
    """
    out = factors[0]
    for g in factors[1:]:
        m = out.shape[0] * g.shape[0]
        out = (out[:, None, :, None] * g[None, :, None, :]).reshape(m, m)
    return out


def _product_matrix(blochs) -> np.ndarray:
    """Kronecker product of the radius-checked 2x2 factors, qubit 1 leftmost."""
    factors = [_bloch_matrix(v) for v in blochs]
    if not factors:
        raise ValueError("need at least one Bloch vector")
    if len(factors) > MAX_QUBITS:
        # Checked before the 4^n-entry product is built, not after.
        raise ValueError(f"{len(factors)} qubits exceeds the cap of {MAX_QUBITS}")
    return _kron_chain(factors)


def product_state(blochs) -> DensityOperator:
    """Tensor product of single-qubit states given by their Bloch vectors."""
    return DensityOperator(_product_matrix(blochs))


def mixture_rng(seed: int) -> np.random.Generator:
    """The package's reproducible generator: Philox (counter-based), raw key."""
    return np.random.Generator(np.random.Philox(key=seed))


def random_bloch(rng: np.random.Generator) -> tuple[float, float, float]:
    """Uniform point in the radius-1/2 Bloch ball by rejection sampling."""
    while True:
        x, y, z = rng.uniform(-0.5, 0.5, 3)
        if x * x + y * y + z * z <= 0.25:
            return float(x), float(y), float(z)


def _bloch_points(rng: np.random.Generator, count: int) -> np.ndarray:
    """(count, 3) array of the points `count` successive random_bloch calls return.

    Triples are drawn in blocks and kept by the same test, in the same order;
    the generator may end further advanced than the single draws leave it.
    """
    kept = []
    need = count
    while need > 0:
        # About pi/6 of the cube lies in the ball, so this block usually suffices.
        xyz = rng.uniform(-0.5, 0.5, (2 * need + 16, 3))
        x, y, z = xyz[:, 0], xyz[:, 1], xyz[:, 2]
        inside = xyz[x * x + y * y + z * z <= 0.25][:need]
        kept.append(inside)
        need -= len(inside)
    return np.concatenate(kept)


def random_multiseparable(n: int, terms: int, seed: int) -> DensityOperator:
    """Convex mixture of `terms` random n-fold product states.

    Weights are normalized uniform(0,1) draws; every single-qubit factor is
    drawn uniformly from the Bloch ball. Deterministic given the seed.
    """
    if not 1 <= n <= MAX_QUBITS:
        raise ValueError(f"n must be in 1..{MAX_QUBITS}, got {n}")
    if terms < 1:
        raise ValueError(f"terms must be >= 1, got {terms}")
    rng = mixture_rng(seed)
    weights = rng.uniform(0, 1, terms)
    weights /= weights.sum()
    xyz = _bloch_points(rng, terms * n).reshape(terms, n, 3)
    x, y, z = xyz[..., 0], xyz[..., 1], xyz[..., 2]
    # _bloch_matrix's entries, for every factor at once; the accepted points
    # lie in the ball, so no factor needs its radius check.
    factors = np.empty((terms, n, 2, 2), dtype=np.complex128)
    factors[..., 0, 0] = 0.5 + z
    factors[..., 0, 1] = x - 1j * y
    factors[..., 1, 0] = x + 1j * y
    factors[..., 1, 1] = 0.5 - z
    d = 1 << n
    acc = np.zeros((d, d), dtype=np.complex128)
    # One term at a time keeps memory at O(d^2) rather than O(terms d^2).
    for w, term in zip(weights, factors):
        acc += w * _kron_chain(term)
    return DensityOperator(acc, n)
