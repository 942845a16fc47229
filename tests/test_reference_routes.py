"""The reference routes of insep.reproduce, pinned bit for bit.

The exact identities of run_all have a 1e-12 tolerance, which a rounding
change in a route would pass; their rows must read exactly 0.0. The
lemma checks' equal-argument states must be the ones the per-term loop
built, to the last bit.
"""

import numpy as np

from insep import reproduce
from insep.states import mixture_rng


def test_exact_identity_rows_compute_zero():
    h = reproduce.Harness()
    reproduce.check_decomposition(h)
    reproduce.check_elementwise_vs_dense(h)
    reproduce.check_bloch_projection(h)
    assert [row.name for row in h.rows] == [
        "decomposition identity (IxP) = ((I + IxX.IxT)/2), max deviation",
        "element-wise vs dense map application, n=2, max deviation",
        "element-wise vs dense map application, n=3, max deviation",
        "element-wise vs dense map application, n=4, max deviation",
        "Bloch projection (x,y,z) -> (x,y,0), max deviation",
    ]
    assert [row.computed for row in h.rows] == ["0.0"] * 5


def _per_term_mixture(rng, n, terms):
    d = 1 << n
    acc = np.zeros((d, d))
    w = rng.uniform(0, 1, terms)
    w /= w.sum()
    for t in range(terms):
        v = rng.uniform(0, 1, d)
        v /= np.linalg.norm(v)
        acc += w[t] * np.outer(v, v)
    return acc


def test_nonneg_mixture_matches_the_per_term_loop():
    # check_lemmas' 500 draws: each state and the generator's state after it.
    rng, twin = mixture_rng(99), mixture_rng(99)
    for _ in range(500):
        rho = reproduce._nonneg_mixture(rng, 3, terms=1 + int(rng.integers(4)))
        reference = _per_term_mixture(twin, 3, 1 + int(twin.integers(4)))
        assert rho.matrix.tobytes() == reference.astype(np.complex128).tobytes()
    assert rng.uniform() == twin.uniform()
