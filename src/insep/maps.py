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

from .linalg import HermitianOperator


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


def lambda_p(sigma: HermitianOperator) -> HermitianOperator:
    """Population averaging: diagonal entries -> their mean, coherences kept."""
    if sigma.n_qubits != 1:
        raise ValueError("map is defined on a single qubit (2x2 input)")
    return HermitianOperator(_p2(sigma.matrix), 1)


@dataclass(frozen=True)
class MapSpec:
    """Assignment of a MapKind to each of a distinct set of qubits.

    Unlisted qubits receive the identity. Validity against a concrete qubit
    count is checked at application time.
    """

    assignments: tuple[tuple[int, MapKind], ...]

    def __post_init__(self):
        seen = set()
        for q, kind in self.assignments:
            if q < 1:
                raise ValueError(f"qubit index {q} must be >= 1")
            if q in seen:
                raise ValueError(f"qubit {q} assigned more than once")
            if not isinstance(kind, MapKind):
                raise TypeError(f"expected MapKind, got {kind!r}")
            seen.add(q)

    @classmethod
    def single(cls, k: int, kind: MapKind) -> MapSpec:
        return cls(((k, kind),))

    @classmethod
    def all_qubits(cls, n: int, kind: MapKind) -> MapSpec:
        return cls(tuple((q, kind) for q in range(1, n + 1)))

    def validate_for(self, n: int) -> None:
        for q, _ in self.assignments:
            if q > n:
                raise ValueError(f"qubit index {q} out of range for {n} qubits")

    def __str__(self):
        return ",".join(f"{q}:{kind.value}" for q, kind in sorted(self.assignments))


def apply_on_qubit(rho: HermitianOperator, k: int, kind: MapKind) -> HermitianOperator:
    """Apply one single-qubit map to qubit k, identity on the rest.

    Works element-wise on the 2x2 block structure of qubit k: writing an
    element index pair as (..x.., ..y..) with x, y the k-th bits, the P rule
    averages the two x = y partner elements (k-th bits 00 and 11) and keeps
    x != y elements; T, H, X, I act by their direct block rules.
    """
    n = rho.n_qubits
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    hi = 1 << (k - 1)
    lo = 1 << (n - k)
    r = rho.matrix.reshape(hi, 2, lo, hi, 2, lo)
    # Only P writes into a copy; the other rules are views of r, and
    # HermitianOperator copies whatever it is given into a fresh array.
    if kind is MapKind.P:
        out = r.copy()
        avg = (r[:, 0, :, :, 0, :] + r[:, 1, :, :, 1, :]) / 2
        out[:, 0, :, :, 0, :] = avg
        out[:, 1, :, :, 1, :] = avg
    elif kind is MapKind.T:
        out = r.swapaxes(1, 4)
    elif kind is MapKind.H:
        out = -r
        out[:, 0, :, :, 0, :] = r[:, 1, :, :, 1, :]
        out[:, 1, :, :, 1, :] = r[:, 0, :, :, 0, :]
    elif kind is MapKind.X:
        out = r[:, ::-1, :, :, ::-1, :]
    elif kind is MapKind.IDENTITY:
        out = r
    else:
        raise TypeError(f"unknown map kind {kind!r}")
    d = rho.dim
    return HermitianOperator(out.reshape(d, d), n)


def apply_on_qubit_dense(rho: HermitianOperator, k: int, kind: MapKind) -> HermitianOperator:
    """Reference construction of apply_on_qubit, kept as an independent route.

    Expands rho over the four matrix units of qubit k using explicit
    bit-insertion isometries and reassembles the result from the map's images
    of those units. Much slower than apply_on_qubit; used for cross-checks.
    """
    n = rho.n_qubits
    if not 1 <= k <= n:
        raise ValueError(f"qubit index {k} out of range 1..{n}")
    d = rho.dim
    dr = d // 2
    lo = 1 << (n - k)
    # V[x] injects bit x at position k: V[x] |ac> = |a x c>.
    V = [np.zeros((d, dr)) for _ in (0, 1)]
    for r in range(dr):
        a, c = divmod(r, lo)
        for x in (0, 1):
            V[x][(a * 2 + x) * lo + c, r] = 1.0
    out = np.zeros((d, d), dtype=np.complex128)
    for x in (0, 1):
        for y in (0, 1):
            block = V[x].T @ rho.matrix @ V[y]
            unit = np.zeros((2, 2), dtype=np.complex128)
            unit[x, y] = 1.0
            image = _ON_2X2[kind](unit)
            for xx in (0, 1):
                for yy in (0, 1):
                    w = image[xx, yy]
                    if w != 0:
                        out += w * (V[xx] @ block @ V[yy].T)
    return HermitianOperator(out, n)


def apply_product(rho: HermitianOperator, spec: MapSpec) -> HermitianOperator:
    """Apply spec's single-qubit maps in ascending qubit order.

    The assignments act on disjoint qubits, so the order does not matter;
    ascending order just makes runs reproducible.
    """
    spec.validate_for(rho.n_qubits)
    out = rho
    for q, kind in sorted(spec.assignments):
        out = apply_on_qubit(out, q, kind)
    return out
