"""Generators for the state families used by the detection criteria and tests."""

from __future__ import annotations

import math
from enum import Enum

import numpy as np

from .linalg import BlochVector, DensityOperator, _bloch_matrix, _finite_real, _integer_in, _qubit_count

__all__ = [
    "Bell",
    "bell_ket",
    "ghz",
    "horodecki_b",
    "isotropic",
    "mixture_rng",
    "product_state",
    "pure_superposition",
    "random_bloch",
    "random_multiseparable",
]


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


def horodecki_b(b: float) -> DensityOperator:
    """The three-qubit b-family: PSD, trace one, and PPT on qubit 1 for 0 < b < 1.

    The normalized matrix has diagonal (b,b,b,b,(1+b)/2,b,b,(1+b)/2)/(7b+1),
    b/(7b+1) at (0,5), (1,6), (2,7) and mirrors, and sqrt(1-b^2)/(14b+2) at
    (4,7) and (7,4).
    """
    b = _finite_real(b, "b")
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
    s = _finite_real(s, "s")
    if -4 < s < 0:
        raise ValueError(f"s must satisfy s <= -4 or s >= 0, got {s}")
    v = bell_ket(bell)
    proj = np.outer(v, v.conj())
    return DensityOperator((proj + s * np.eye(4) / 4) / (1 + s), 2)


def pure_superposition(p: float) -> DensityOperator:
    """Projector onto sqrt(p)|00> + sqrt(1-p)|11>, 0 < p < 1."""
    p = _finite_real(p, "p")
    if not 0 < p < 1:
        raise ValueError(f"p must be in (0, 1), got {p}")
    v = np.zeros(4, dtype=np.complex128)
    v[0] = np.sqrt(p)
    v[3] = np.sqrt(1 - p)
    return DensityOperator(np.outer(v, v.conj()), 2)


def ghz(n: int) -> DensityOperator:
    """Projector onto (|0...0> + |1...1>)/sqrt(2); antidiagonal corners are 1/2."""
    n = _qubit_count(n)
    if n < 2:
        raise ValueError(f"GHZ needs at least 2 qubits, got {n}")
    d = 1 << n
    v = np.zeros(d, dtype=np.complex128)
    v[0] = v[d - 1] = 1 / np.sqrt(2)
    return DensityOperator(np.outer(v, v.conj()), n)


def _kron_chain(factors) -> np.ndarray:
    """Kronecker product over the last two axes of (..., k, k) arrays, the first leftmost.

    Each step broadcasts out[..., i, k] * g[..., j, l] to index (..., i, j, k, l)
    and reshapes, which forms the same products as np.kron in the same order
    for every matrix of the leading axes.
    """
    out = factors[0]
    for g in factors[1:]:
        m = out.shape[-1] * g.shape[-1]
        prod = out[..., :, None, :, None] * g[..., None, :, None, :]
        out = prod.reshape(*prod.shape[:-4], m, m)
    return out


def product_state(blochs) -> DensityOperator:
    """Tensor product of single-qubit states given by their Bloch vectors, qubit 1 leftmost."""
    factors = [_bloch_matrix(*BlochVector(*v)) for v in blochs]
    # Checked before the 4^n-entry product is built, not after.
    _qubit_count(len(factors))
    return DensityOperator(_kron_chain(factors))


def mixture_rng(seed: int) -> np.random.Generator:
    """The package's reproducible generator: Philox (counter-based), raw key.

    A numpy integer seed gives the stream of the equal Python int; a bool or
    a non-integer is refused, as is a seed outside 0..2**128 - 1.
    """
    if type(seed) is not int and isinstance(seed, np.integer):
        seed = int(seed)
    if type(seed) is not int or not 0 <= seed < 2**128:
        raise ValueError(f"seed must be an integer in 0..2**128 - 1, got {seed}")
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


def _multiseparable_stack(n: int, terms: int, seeds) -> np.ndarray:
    """(len(seeds), 2^n, 2^n) array of random_multiseparable(n, terms, seed)'s matrices.

    Each seed draws from its own mixture_rng(seed), and the terms are added
    one at a time into zeros, so every matrix is bit for bit the one built
    for its seed alone. The matrices are not validated.
    """
    n = _qubit_count(n)
    terms = _integer_in(terms, 1, math.inf, "terms")
    count = len(seeds)
    weights = np.empty((terms, count))
    xyz = np.empty((count, terms * n, 3))
    for j, seed in enumerate(seeds):
        rng = mixture_rng(seed)
        w = rng.uniform(0, 1, terms)
        weights[:, j] = w / w.sum()
        xyz[j] = _bloch_points(rng, terms * n)
    # Axes (coordinate, term, qubit, seed): factors[t] is term t's chain of
    # (count, 2, 2) factors. The accepted points lie in the ball, so no
    # factor needs its radius check.
    factors = _bloch_matrix(*xyz.reshape(count, terms, n, 3).transpose(3, 1, 2, 0))
    d = 1 << n
    acc = np.zeros((count, d, d), dtype=np.complex128)
    # One term at a time keeps memory at O(count d^2) rather than O(terms count d^2).
    for w, term in zip(weights, factors):
        acc += w[:, None, None] * _kron_chain(term)
    return acc


def random_multiseparable(n: int, terms: int, seed: int) -> DensityOperator:
    """Convex mixture of `terms` random n-fold product states.

    Weights are normalized uniform(0,1) draws; every single-qubit factor is
    drawn uniformly from the Bloch ball. Deterministic given the seed.
    """
    return DensityOperator(_multiseparable_stack(n, terms, [seed])[0], n)
