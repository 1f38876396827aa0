"""
Hot numeric kernels, in numpy.

Two computations dominate everything else at n = 6, 7:

- the pairwise Bruhat comparability matrix (all-pairs entrywise
  dominance comparison), which only selftest and the tests read, and
- the dense Kazhdan-Lusztig coefficient fill over a whole symmetric
  group.  It fills the columns of one length at a time, computes half
  of each column and copies it to the other half (P_{sx,w} = P_{x,w}
  for a left descent s of w), and needs no Bruhat matrix.  Columns are
  computed in int32 and stored as int8, after a range check.

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
# Columns w are filled one length level at a time: a column only reads
# strictly shorter ones, so a whole level is one set of array operations.
# With s the first left descent of w and v = s w:
#
#   P_{sx,w} = P_{x,w}, so only the half of the rows with s x > x is
#   computed, and each is copied to the row s x;
#
#   for s x > x,  P_{x,w} = P_{x,v} + q P_{sx,v}
#                           - sum over z with s z < z of
#                               mu(z, v) q^{(l(w)-l(z))/2} P_{x,z},
#
# where mu(z, v) is the coefficient of q^{(l(v)-l(z)-1)/2} in P_{z,v}, and
# z runs over l(z) < l(v) with l(v) - l(z) odd.  That coefficient is read
# from the table for every such z: it is zero unless z <= v, and P_{x,z}
# is zero unless x <= z, so no Bruhat matrix is needed.


def _narrow(vals: np.ndarray) -> np.ndarray:
    """vals as int8, or OverflowError if any value does not fit."""
    if vals.min() < -128 or vals.max() > 127:
        raise OverflowError(
            f'KL coefficient outside int8: {vals.min()}..{vals.max()}'
        )
    return vals.astype(np.int8)


def kl_fill(order, lengths, ldesc, lmul, ncoef):
    """Dense KL table, vectorized over the columns of one length.

    order: element indices sorted by increasing length (identity first).
    lengths[i]: Coxeter length; ldesc[i]: one left descent (0-based
    generator index, -1 for the identity); lmul[s, i]: index of s_i+1
    composed with element i on the left.
    Returns an int8 array Pt of shape (N, N, ncoef), column-major, with
    Pt[w, x, d] = coefficient of q^d in P_{x,w}; a coefficient outside
    the int8 range raises OverflowError.
    """
    N = len(lengths)
    Pt = np.zeros((N, N, ncoef), dtype=np.int8)
    rows = Pt.reshape(N * N, ncoef)
    Pt[order[0], order[0], 0] = 1
    up = lengths[lmul] > lengths
    # ups[s]: the x with s x > x, half of the group; sups[s]: their s x
    ups = np.nonzero(up)[1].reshape(len(lmul), N // 2)
    sups = np.take_along_axis(lmul, ups, axis=1)
    # ~256 kB per (columns, N/2, ncoef) temporary: a chunk of columns
    # stays in cache, and its temporaries stay out of the peak RSS
    chunk = max(1, (256 << 10) // (2 * N * ncoef))
    by_length = lengths[order]
    cuts = np.searchsorted(by_length, np.arange(by_length[-1] + 2))
    for lw in range(1, int(by_length[-1]) + 1):
        zs = np.flatnonzero((lengths <= lw - 2) & (lengths % 2 == lw % 2))
        shift = (lw - lengths[zs]) // 2  # mu(z, v) sits at degree shift - 1
        level = order[cuts[lw]:cuts[lw + 1]]
        for lo in range(0, len(level), chunk):
            w = level[lo:lo + chunk]
            s = ldesc[w]
            v = lmul[s, w][:, None]
            xs, sxs = ups[s], sups[s]
            col = rows.take(v * N + xs, axis=0).astype(np.int32)
            col[:, :, 1:] += rows.take(v * N + sxs, axis=0)[:, :, :-1]
            mu = Pt.reshape(-1).take((v * N + zs) * ncoef + shift - 1)
            mu *= ~up[s][:, zs]
            i, j = np.nonzero(mu)
            terms = rows.take(zs[j, None] * N + xs[i], axis=0)
            terms = terms * mu[i, j, None, None].astype(np.int32)
            # i comes sorted, so a (rank within its column, shift) group
            # names each column at most once
            rank = np.arange(len(i)) - np.searchsorted(i, i)
            key = rank * ncoef + shift[j]
            for group in sorted(set(key.tolist())):
                k = key == group
                sh = group % ncoef
                col[i[k], :, sh:] -= terms[k, :, :ncoef - sh]
            # write only x <= w, where P_{x,w}(0) = 1: pages of the zeroed
            # table that hold no such x are never touched
            i, j = np.nonzero(col[:, :, 0])
            vals = _narrow(col[i, j])
            rows[w[i] * N + xs[i, j]] = vals
            rows[w[i] * N + sxs[i, j]] = vals
    return Pt
