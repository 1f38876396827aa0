"""
The two kernels: the Kazhdan-Lusztig fill, in plain Python, over the
shortest coset representatives of a parabolic subgroup W_J (the whole
group when J is empty), and the pairwise Bruhat comparability matrix,
which no command reads (only the tests), and which alone loads numpy.

The fill is in the classical variable q and carries no grading; the
graded lift, and the degree shift on the z-th term of the parabolic
alternating sum (without it S_3 already gives a negative coefficient),
live in klcells.
"""

from __future__ import annotations

from types import MappingProxyType


# ---------------------------------------------------------------------------
# Bruhat comparability


def leq_matrix(dom):
    """All-pairs entrywise comparison of flattened dominance tables.

    dom has shape (N, m); the result L has L[x, y] = all(dom[x] <= dom[y]).
    Chunked along the first axis to keep the broadcast temporaries small.
    """
    import numpy as np

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
# the classical variable q, a column w at a time, each after the
# strictly shorter columns it reads: v below, and each z with
# mu(z, v) != 0 and z s < z.  The caller names the columns it wants, and
# the fill computes those and the columns they read, no others; a column
# still missing waits on an explicit stack.  A whole table asks for every
# column in order of length, so that each finds what it reads filled and
# the stack holds it alone.  Thinness asks for the right cell of
# w_0^J w_0 alone (compositions): 84 of the 360 columns for min:3 at
# n = 6.  With s the first right descent of w and v = w s:
#
#   S_{xs,w} = S_{x,w}, so only the rows with xs > x a rep are computed,
#   and each is stored under x and xs; the rows with xs not a rep are 0;
#
#   for xs > x,  S_{x,w} = S_{x,v} + q S_{xs,v}
#                          - sum over z with z s < z of
#                              mu(z, v) q^{(l(w)-l(z))/2} S_{x,z},
#
# where mu(z, v) is the coefficient of q^{(l(v)-l(z)-1)/2} in S_{z,v}, and
# z runs over l(z) < l(v) with l(v) - l(z) odd.  It is read once per
# column v, from the entries column v holds: it is zero unless z <= v,
# and S_{x,z} is zero unless x <= z, so no Bruhat matrix is needed.
# With J = {}, S_{x,w} is the KL polynomial P_{x,w}; in general
#
#   S_{x,w} = sum over z in W_J of (-1)^{l(z)} P_{zx,w},
#
# the alternating sum that parabolic_sums, the reference kept in
# tests/oracles.py, takes from the whole-group table.
#
# Only nonzero entries are kept, each polynomial packed as the int sum
# of c_d << (BITS d) and stored once for x and xs (as F. du Cloux,
# Experiment. Math. 11 (2002), stores each once), so adding, q (<< BITS)
# and mu are int operations.  Each stored digit is checked to lie in
# 0 .. 2^(BITS-1) - 1, which is exact as the coefficients are >= 0 (for
# u = -1 they are KL polynomials, Deodhar 1987): a digit of S_{x,w}
# lies between 0 and that of S_{x,v} + q S_{xs,v}, whose digits, sums
# of two checked ones, stay below 2^BITS and carry into no other.

BITS = 8


class Table(tuple):
    """The columns of one fill: self[w] maps each x with S_{x,w} != 0 to
    S_{x,w} packed, read-only, and is None where column w was not
    filled.  size counts the entries stored, and itemsize is the packed
    width of ncoef coefficients, in bytes."""

    def __new__(cls, columns, ncoef):
        table = super().__new__(cls, (
            None if col is None else MappingProxyType(col)
            for col in columns))
        table.ncoef = ncoef
        table.size = sum(len(col) for col in columns if col is not None)
        table.itemsize = -(-BITS * ncoef // 8)
        return table

    @staticmethod
    def coefficients(P) -> list:
        """The q-coefficients of a packed polynomial, lowest degree
        first, up to its highest nonzero one."""
        mask = (1 << BITS) - 1
        out = []
        while P:
            out.append(P & mask)
            P >>= BITS
        return out


def kl_fill(lengths, mul, ncoef, columns=None) -> Table:
    """KL table over the shortest reps: the columns named, and the
    columns they read, alone.

    lengths[i]: Coxeter length of rep i; mul[s][i]: index of rep i
    composed with s_{s+1} on the right, or -1 where that is not a rep
    (klcells.coset_index, whose reps are in window order, so x s > x
    exactly when x s has the larger index); ncoef: the q-degrees kept;
    columns: the reps whose columns are wanted, by default every rep in
    order of length.  Each column is filled from its first right descent
    once the columns it reads are filled; the missing ones wait on a
    stack, not the call stack, as lengths reach several hundred.
    Returns the Table S with S[w][x] = S_{x,w} packed, and S[w] None
    for a column not filled.  A coefficient outside 0 .. 2^(BITS-1) - 1,
    or of a degree past ncoef, raises OverflowError.
    """
    B = BITS
    mask = (1 << B) - 1
    # the bits no stored polynomial may set (a negative one sets them all)
    bad = ~sum(((1 << B - 1) - 1) << B * d for d in range(ncoef))
    R = len(lengths)
    if columns is None:
        columns = sorted(range(R), key=lengths.__getitem__)
    cols = [None] * R
    mus = [None] * R
    for want in columns:
        stack = [want]
        while stack:
            w = stack[-1]
            if cols[w] is not None:
                stack.pop()
                continue
            s = next((s for s, row in enumerate(mul) if 0 <= row[w] < w),
                     None)
            if s is None:
                # the identity, the one rep with no right descent
                cols[w] = {w: 1}
                continue
            row = mul[s]
            v = row[w]
            if cols[v] is None:
                stack.append(v)
                continue
            if mus[v] is None:
                lv = lengths[v]
                mus[v] = [(z, m) for z, P in cols[v].items()
                          if (lv - lengths[z]) & 1
                          and (m := P >> B * ((lv - lengths[z]) >> 1) & mask)]
            # the z with mu(z, v) != 0 and z s < z a rep
            down = [(z, m) for z, m in mus[v] if 0 <= row[z] < z]
            missing = [z for z, _ in down if cols[z] is None]
            if missing:
                stack += missing
                continue
            lw = lengths[w]
            col = {}
            for y, P in cols[v].items():
                t = row[y]
                if t > y:
                    col[y] = col.get(y, 0) + P
                elif t >= 0:
                    col[t] = col.get(t, 0) + (P << B)
            for z, m in down:
                shift = B * ((lw - lengths[z]) >> 1)
                for x, P in cols[z].items():
                    if row[x] > x:
                        col[x] = col.get(x, 0) - (m * P << shift)
            out = cols[w] = {}
            for x, P in col.items():
                if P:
                    if P & bad:
                        raise OverflowError(
                            f'a KL coefficient of column {w} is outside '
                            f'0..{(1 << B - 1) - 1} or past degree '
                            f'{ncoef - 1}')
                    out[x] = out[row[x]] = P
    return Table(cols, ncoef)
