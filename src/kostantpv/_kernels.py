"""
Hot numeric kernels, in numpy.

Two computations dominate everything else at n = 6, 7:

- the pairwise Bruhat comparability matrix (all-pairs entrywise
  dominance comparison), which only selftest and the tests read, and
- the dense Kazhdan-Lusztig coefficient fill over the shortest coset
  representatives of a parabolic subgroup W_J (the whole group when J
  is empty).  It fills the columns of one length at a time, computes
  half of each column and copies it to the other half (S_{xs,w} =
  S_{x,w} for a right descent s of w), and needs no Bruhat matrix nor
  any index but the lengths and right action of groupindex.coset_index.
  Columns are computed in int32 and stored as int8, after a range
  check.

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
# Kazhdan-Lusztig fill over the shortest coset representatives
#
# The elements are the shortest reps W^J of the cosets W_J w (J = {}
# gives the whole group).  The sign parabolic module (Deodhar's u = -1
# family, in Soergel's normalisation C_s = H_s + v) has a basis m_x,
# x in W^J, on which H_s acts on the right by
#
#   m_x H_s = m_{xs}                      if xs > x is a rep,
#             m_{xs} + (v^-1 - v) m_x     if xs < x,
#             -v m_x                      if xs is not a rep.
#
# Its KL basis n_w = sum_x v^{l(w)-l(x)} S_{x,w}(v^-2) m_x is filled in
# the classical variable q, one length level of columns w at a time: a
# column only reads strictly shorter ones.  With s the first right
# descent of w and v = w s:
#
#   S_{xs,w} = S_{x,w}, so only the rows with xs > x a rep are computed,
#   and each is copied to the row xs; the rows with xs not a rep are 0;
#
#   for xs > x,  S_{x,w} = S_{x,v} + q S_{xs,v}
#                          - sum over z with z s < z of
#                              mu(z, v) q^{(l(w)-l(z))/2} S_{x,z},
#
# where mu(z, v) is the coefficient of q^{(l(v)-l(z)-1)/2} in S_{z,v}, and
# z runs over l(z) < l(v) with l(v) - l(z) odd.  That coefficient is read
# from the table for every such z: it is zero unless z <= v, and S_{x,z}
# is zero unless x <= z, so no Bruhat matrix is needed.  With J = {},
# S_{x,w} is the KL polynomial P_{x,w}; in general
#
#   S_{x,w} = sum over z in W_J of (-1)^{l(z)} P_{zx,w},
#
# the alternating sum that parabolic_sums, the reference kept in
# tests/oracles.py, takes from the whole-group table.


def _narrow(vals: np.ndarray) -> np.ndarray:
    """vals as int8, or OverflowError if any value does not fit."""
    if vals.min() < -128 or vals.max() > 127:
        raise OverflowError(
            f'KL coefficient outside int8: {vals.min()}..{vals.max()}'
        )
    return vals.astype(np.int8)


def kl_fill(lengths, mul, ncoef):
    """KL table over the shortest reps, vectorized over the columns of
    one length.

    lengths[i]: Coxeter length of rep i; mul[s, i]: index of rep i
    composed with s_{s+1} on the right, or -1 where that is not a rep
    (groupindex.coset_index); ncoef: the q-degrees kept.  Each column
    is filled from its first right descent, in order of length.
    Returns an int8 array Pt of shape (R, R, ncoef), column-major, with
    Pt[w, x, d] = coefficient of q^d in S_{x,w}: a view of an
    (R, R + 1, ncoef) buffer.  A coefficient outside the int8 range
    raises OverflowError.
    """
    R = len(lengths)
    order = np.argsort(lengths, kind='stable')
    # column w holds R + 1 rows: row R stays zero, and pads the row
    # lists below, which differ in length from one s to the next
    R1 = R + 1
    Pt = np.zeros((R, R1, ncoef), dtype=np.int8)
    rows = Pt.reshape(R * R1, ncoef)
    Pt[order[0], order[0], 0] = 1
    # the length of x s, -1 where it is not a rep (the value read at
    # index -1 is discarded)
    ml = np.where(mul >= 0, lengths[mul], -1)
    up = ml > lengths
    down = (ml >= 0) & (ml < lengths)
    # ups[s]: the x with x s > x a rep; sups[s]: their x s
    ups = np.full((len(mul), int(up.sum(axis=1).max(initial=0))), R)
    sups = ups.copy()
    for s, row in enumerate(up):
        x = np.flatnonzero(row)
        ups[s, :len(x)] = x
        sups[s, :len(x)] = mul[s, x]
    # a row of ncoef bytes, padded to whole int64 words, is tested for
    # zero in one comparison per word
    width = -(-ncoef // 8) * 8
    # ~256 kB per (columns, rows, ncoef) temporary: a chunk of columns
    # stays in cache, and its temporaries stay out of the peak RSS
    chunk = max(1, (256 << 10) // (4 * max(1, ups.shape[1]) * ncoef))
    by_length = lengths[order]
    cuts = np.searchsorted(by_length, np.arange(by_length[-1] + 2))
    for lw in range(1, int(by_length[-1]) + 1):
        zs = np.flatnonzero((lengths <= lw - 2) & (lengths % 2 == lw % 2))
        shift = (lw - lengths[zs]) // 2  # mu(z, v) sits at degree shift - 1
        level = order[cuts[lw]:cuts[lw + 1]]
        for lo in range(0, len(level), chunk):
            w = level[lo:lo + chunk]
            s = down[:, w].argmax(axis=0)  # the first right descent
            v = mul[s, w][:, None]
            xs, sxs = ups[s], sups[s]
            col = rows.take(v * R1 + xs, axis=0).astype(np.int32)
            col[:, :, 1:] += rows.take(v * R1 + sxs, axis=0)[:, :, :-1]
            mu = Pt.reshape(-1).take((v * R1 + zs) * ncoef + shift - 1)
            mu *= down[s][:, zs]
            i, j = np.nonzero(mu)
            terms = rows.take(zs[j, None] * R1 + xs[i], axis=0)
            terms = terms * mu[i, j, None, None].astype(np.int32)
            # i comes sorted, so a (rank within its column, shift) group
            # names each column at most once
            rank = np.arange(len(i)) - np.searchsorted(i, i)
            key = rank * ncoef + shift[j]
            for group in sorted(set(key.tolist())):
                k = key == group
                sh = group % ncoef
                col[i[k], :, sh:] -= terms[k, :, :ncoef - sh]
            # write only the nonzero rows: pages of the zeroed table that
            # hold none are never touched
            small = _narrow(col)
            wide = np.zeros(col.shape[:2] + (width,), dtype=np.int8)
            wide[:, :, :ncoef] = small
            i, j = np.nonzero(wide.view(np.int64).any(axis=2))
            vals = small[i, j]
            rows[w[i] * R1 + xs[i, j]] = vals
            rows[w[i] * R1 + sxs[i, j]] = vals
    return Pt[:, :R]
