"""
Hot numeric kernels, in numpy.

Two computations dominate everything else at n = 6, 7:

- the pairwise Bruhat comparability matrix (all-pairs entrywise
  dominance comparison), and
- the dense Kazhdan-Lusztig coefficient fill over a whole symmetric
  group.

The fill is in the classical variable q and carries no grading; the
graded lift, and the degree shift on the z-th term of the parabolic
alternating sum (without it S_3 already gives a negative coefficient),
live in klcells.
"""

from __future__ import annotations

import numpy as np


# ---------------------------------------------------------------------------
# Bruhat comparability


def leq_matrix(dom: np.ndarray) -> np.ndarray:
    """All-pairs entrywise comparison of flattened dominance tables.

    dom has shape (N, m); the result L has L[x, y] = all(dom[x] <= dom[y]).
    Chunked along the first axis to keep the broadcast temporaries small.
    """
    N = dom.shape[0]
    out = np.empty((N, N), dtype=np.bool_)
    # ~64 MB of uint8 temporaries per chunk
    chunk = max(1, (64 << 20) // max(1, N * dom.shape[1]))
    for lo in range(0, N, chunk):
        hi = min(N, lo + chunk)
        out[lo:hi] = (dom[lo:hi, None, :] <= dom[None, :, :]).all(axis=2)
    return out


# ---------------------------------------------------------------------------
# Dense Kazhdan-Lusztig fill
#
# Classical recursion on the left descent s of w, with v = s w and
# c = [s x < x]:
#
#   P_{x,w} = q^{1-c} P_{sx,v} + q^c P_{x,v}
#             - sum over z < v with sz < z of
#                 mu(z, v) q^{(l(w)-l(z))/2} P_{x,z}   (for x <= z),
#
# where mu(z, v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}.
# The uniform c-formula only ever reads columns strictly shorter than w,
# so filling columns in any length-increasing order is safe.


def kl_fill(order, lengths, ldesc, lmul, leq, ncoef):
    """Dense KL table, vectorized over x one column at a time.

    order: element indices sorted by increasing length (identity first).
    lengths[i]: Coxeter length; ldesc[i]: one left descent (0-based
    generator index, -1 for the identity); lmul[s, i]: index of s_i+1
    composed with element i on the left; leq[x, y]: Bruhat x <= y.
    Returns an int32 array P of shape (N, N, ncoef) with
    P[x, w, d] = coefficient of q^d in P_{x,w}.
    """
    N = len(lengths)
    P = np.zeros((N, N, ncoef), dtype=np.int32)
    for w in order:
        s = ldesc[w]
        if s < 0:
            P[w, w, 0] = 1
            continue
        v = lmul[s, w]
        xs = np.nonzero(leq[:, w])[0]
        sx = lmul[s, xs]
        col = np.zeros((len(xs), ncoef), dtype=np.int32)
        up = lengths[sx] > lengths[xs]  # c = 0 rows
        # q^{1-c} P_{sx,v}: shift by one where c = 0
        col[up, 1:] += P[sx[up], v, :-1]
        col[~up, :] += P[sx[~up], v, :]
        # q^c P_{x,v}: shift by one where c = 1
        col[up, :] += P[xs[up], v, :]
        col[~up, 1:] += P[xs[~up], v, :-1]
        # correction terms over z < v with sz < z and mu(z, v) != 0
        lw = lengths[w]
        diff = lw - 1 - lengths  # l(v) - l(z)
        cand = np.nonzero(
            leq[:, v]
            & (diff % 2 == 1)
            & (diff > 0)
            & (lengths[lmul[s]] < lengths)
        )[0]
        for z in cand:
            mu = int(P[z, v, (lw - 2 - lengths[z]) // 2])
            if mu == 0:
                continue
            shift = (lw - lengths[z]) // 2
            rows = leq[xs, z]
            col[rows, shift:] -= mu * P[xs[rows], z, :ncoef - shift]
        P[xs, w, :] = col
    return P
