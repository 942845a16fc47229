"""Single-qubit positive maps and their partial/product application.

The maps act on 2x2 Hermitian operators:

* P  -- population averaging: both diagonal entries become their mean,
        off-diagonal entries are untouched.
* T  -- transpose.
* H  -- reduction, sigma -> I*Tr(sigma) - sigma.
* X  -- NOT conjugation, sigma -> X sigma X.
* I  -- identity.

Each is linear and trace preserving, and each sends positive 2x2 operators
to positive 2x2 operators. Applied to one qubit of an entangled n-qubit
state, P and T can produce non-positive output, which is what the checks in
:mod:`insep.criteria` exploit. The maps are extended linearly to arbitrary
Hermitian input because compositions pass through non-positive
intermediates.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import Enum

import numpy as np

from .linalg import MAX_QUBITS, HermitianOperator, _integer_in, _qubit_count

__all__ = [
    "MapKind",
    "MapSpec",
    "apply_on_qubit",
    "apply_on_qubit_dense",
    "apply_product",
    "lambda_p",
]


class MapKind(Enum):
    P = "P"
    T = "T"
    H = "H"
    X = "X"
    IDENTITY = "I"


def _p2(m: np.ndarray) -> np.ndarray:
    out = m.copy()
    avg = (m[0, 0] + m[1, 1]) / 2
    out[0, 0] = avg
    out[1, 1] = avg
    return out


def _t2(m: np.ndarray) -> np.ndarray:
    return m.T.copy()


def _h2(m: np.ndarray) -> np.ndarray:
    return np.eye(2, dtype=m.dtype) * np.trace(m) - m


def _x2(m: np.ndarray) -> np.ndarray:
    # X E_xy X = E_{1-x,1-y}: reverse both axes.
    return m[::-1, ::-1].copy()


def _i2(m: np.ndarray) -> np.ndarray:
    return m.copy()


_ON_2X2 = {
    MapKind.P: _p2,
    MapKind.T: _t2,
    MapKind.H: _h2,
    MapKind.X: _x2,
    MapKind.IDENTITY: _i2,
}


def _require_operator(rho) -> None:
    # The outputs below are wrapped unchecked, so only a validated operator
    # may come in.
    if not isinstance(rho, HermitianOperator):
        raise TypeError(f"expected a HermitianOperator, got {type(rho).__name__}")


def _require_kind(kind) -> None:
    if not isinstance(kind, MapKind):
        raise TypeError(f"expected MapKind, got {kind!r}")


def _operator_and_qubit(rho, k) -> tuple[int, int]:
    """(n, k) for a single-qubit map on qubit k of a validated n-qubit rho."""
    _require_operator(rho)
    return rho.n_qubits, _integer_in(k, 1, rho.n_qubits, "qubit index")


def lambda_p(sigma: HermitianOperator) -> HermitianOperator:
    """Population averaging: diagonal entries -> their mean, coherences kept.

    The output is wrapped without a second Hermiticity check; see
    apply_on_qubit for why that is safe.
    """
    _require_operator(sigma)
    if sigma.n_qubits != 1:
        raise ValueError("map is defined on a single qubit (2x2 input)")
    return HermitianOperator._derived(_p2(sigma.matrix), sigma)


@dataclass(frozen=True)
class MapSpec:
    """Assignment of a MapKind to each of a distinct set of qubits.

    Unlisted qubits receive the identity. The assignments are stored in
    ascending qubit order, each index as a Python int, so specs that list the
    same entries compare equal. Validity against a concrete qubit count is
    checked at application time.
    """

    assignments: tuple[tuple[int, MapKind], ...]

    def __post_init__(self):
        seen = set()
        assignments = []
        for q, kind in self.assignments:
            q = _integer_in(q, 1, MAX_QUBITS, "qubit index")
            if q in seen:
                raise ValueError(f"qubit {q} assigned more than once")
            _require_kind(kind)
            seen.add(q)
            assignments.append((q, kind))
        # The qubit is the only key: two MapKinds do not compare.
        object.__setattr__(self, "assignments", tuple(sorted(assignments, key=lambda a: a[0])))

    @classmethod
    def single(cls, k: int, kind: MapKind) -> MapSpec:
        return cls(((k, kind),))

    @classmethod
    def all_qubits(cls, n: int, kind: MapKind) -> MapSpec:
        return cls(tuple((q, kind) for q in range(1, _qubit_count(n) + 1)))

    def validate_for(self, n: int) -> None:
        for q, _ in self.assignments:
            _integer_in(q, 1, n, "qubit index")

    def __str__(self):
        return ",".join(f"{q}:{kind.value}" for q, kind in self.assignments)


def _map_qubit(m: np.ndarray, n: int, k: int, kind: MapKind) -> np.ndarray:
    """apply_on_qubit's rules, applied to qubit k of every matrix in m[..., d, d].

    Never writes into m, which may be a read-only HermitianOperator matrix;
    the T, X and I results may be views of it. k is not range-checked.
    """
    hi = 1 << (k - 1)
    lo = 1 << (n - k)
    r = m.reshape(*m.shape[:-2], hi, 2, lo, hi, 2, lo)
    if kind is MapKind.P:
        out = r.copy()
        avg = (r[..., 0, :, :, 0, :] + r[..., 1, :, :, 1, :]) / 2
        out[..., 0, :, :, 0, :] = avg
        out[..., 1, :, :, 1, :] = avg
    elif kind is MapKind.T:
        out = r.swapaxes(-5, -2)
    elif kind is MapKind.H:
        out = -r
        out[..., 0, :, :, 0, :] = r[..., 1, :, :, 1, :]
        out[..., 1, :, :, 1, :] = r[..., 0, :, :, 0, :]
    elif kind is MapKind.X:
        out = r[..., ::-1, :, :, ::-1, :]
    elif kind is MapKind.IDENTITY:
        out = r
    else:
        _require_kind(kind)
    return out.reshape(m.shape)


def apply_on_qubit(rho: HermitianOperator, k: int, kind: MapKind) -> HermitianOperator:
    """Apply one single-qubit map to qubit k, identity on the rest.

    Works element-wise on the 2x2 block structure of qubit k: writing an
    element index pair as (..x.., ..y..) with x, y the k-th bits, the P rule
    averages the two x = y partner elements (k-th bits 00 and 11) and keeps
    x != y elements; T, H, X, I act by their direct block rules.

    k is an integer by MapSpec's rule, so a bool or a float is a TypeError.
    rho must be a HermitianOperator, already validated, and the output is
    wrapped without a second Hermiticity check. Write dev(A) = max|A - A^H|.
    T, X, H and I only move and negate entries, and they move each entry
    and its Hermitian partner to a pair of partners, so dev(out) = dev(rho)
    exactly. P replaces each pair of partner entries by their mean, whose
    only rounding is that of the sum: dev(out) <= dev(rho) + 2u max|rho|,
    with u = 2^-53 (one rounding per averaged entry). An input within
    TOL_HERM therefore gives an output within TOL_HERM + 2u max|rho|.
    """
    n, k = _operator_and_qubit(rho, k)
    # The T, X and I results may be views of rho's matrix; _derived copies
    # those, and keeps a fresh kernel output as it is.
    return HermitianOperator._derived(_map_qubit(rho.matrix, n, k, kind), rho)


def _dense_map_qubit(ms: np.ndarray, n: int, k: int, kind: MapKind) -> np.ndarray:
    """apply_on_qubit_dense's construction, broadcast over ms[..., d, d].

    The bit-insertion isometries V[x] are built here as one index, sharing
    no index logic with _map_qubit. Side by side they form the permutation
    U = [V[0] V[1]], whose column j is the basis vector |perm[j]>, so block
    (x, y) of U^T m U = m[perm][:, perm] is V[x]^T m V[y], the coefficient
    of qubit k's matrix unit |x><y|. One contraction with the map's images
    of the four units recombines those blocks, and reading the result
    through perm's inverse forms U (recombined blocks) U^T.
    """
    dr = 1 << (n - 1)
    lo = 1 << (n - k)
    # Entry x*dr + r of perm is V[x]|r>, and V[x] |ac> = |a x c> injects bit x at position k.
    a, c = np.divmod(np.arange(dr), lo)
    perm = ((a * 2 + np.arange(2)[:, None]) * lo + c).ravel()
    blocks = ms[..., perm[:, None], perm].reshape(*ms.shape[:-2], 2, dr, 2, dr)
    # images[x, y] is the map's image of the unit |x><y|.
    units = np.eye(4, dtype=np.complex128).reshape(4, 2, 2)
    images = np.array([_ON_2X2[kind](unit) for unit in units]).reshape(2, 2, 2, 2)
    mapped = np.einsum("xyab,...xiyj->...aibj", images, blocks).reshape(ms.shape)
    # A gather through the inverse, not a scatter through perm: numpy's
    # scatter into the last two axes took five times as long.
    inv = np.argsort(perm)
    return mapped[..., inv[:, None], inv]


def apply_on_qubit_dense(rho: HermitianOperator, k: int, kind: MapKind) -> HermitianOperator:
    """Reference construction of apply_on_qubit, kept as an independent route.

    Expands rho over the four matrix units of qubit k using explicit
    bit-insertion isometries and reassembles the result from the map's images
    of those units. Much slower than apply_on_qubit; used for cross-checks.
    Takes only a HermitianOperator, and its qubit index and kind by
    MapSpec's rules.
    """
    n, k = _operator_and_qubit(rho, k)
    _require_kind(kind)
    return HermitianOperator(_dense_map_qubit(rho.matrix, n, k, kind), n)


def apply_product(rho: HermitianOperator, spec: MapSpec) -> HermitianOperator:
    """Apply spec's single-qubit maps in ascending qubit order.

    The assignments act on disjoint qubits, so the order does not matter;
    ascending order just makes runs reproducible. Each step is one
    apply_on_qubit, so at most n P steps add at most 2 n u max|rho| to the
    input's Hermiticity deviation.
    """
    _require_operator(rho)
    if not isinstance(spec, MapSpec):
        raise TypeError(f"expected a MapSpec, got {type(spec).__name__}")
    spec.validate_for(rho.n_qubits)
    out = rho
    for q, kind in spec.assignments:
        out = apply_on_qubit(out, q, kind)
    return out
