"""Averaging functions on the discrete cube, plus rank/unrank machinery.

``g_m`` maps m^2-bit strings onto {0, ..., m} through a quantile staircase of
the Hamming weight: the m cut points sit at the binomial (y/(m+1))-quantiles
(pushed apart where a single weight class is heavier than the quantile
spacing).  A single bit flip changes the weight by one and the cut points are
distinct, so every discrete gradient of g_m is 0 or 1/2; each level set is a
narrow band of weight classes carrying probability at most 1/(m+1) plus one
central binomial mass, which is below 2*c1/m for every m (verified exactly
through m = 32 by :func:`verify_averaging_properties`).

g_m depends on its bits only through their weight, so it is one
weight-indexed table of m^2 + 1 levels, built once per m.  :func:`g_m`,
:func:`random_vertex` and both level-set checks read that table.  Every
bit-taking function refuses an entry that is not equal to 0 or 1.

A block-slicing definition floor(rank(x)/ceil(2^(m^2)/m)) under a
weight-compatible rank order looks natural here but cannot work: any rank
order admits one-bit flips that shift the rank by nearly twice the central
binomial coefficient, which exceeds the block size for m >= 3, so that
variant violates the gradient property (exhaustively falsified at m = 3).

The weight-then-lexicographic ``rank``/``unrank`` bijection is kept as the
canonical cube ordering: g_m is nondecreasing along it, and a one-bit flip
moves the rank by at most the two adjacent weight-class sizes.

Only the checks of :mod:`fppvar.poincare` enumerate the cube, with
:func:`cube`, whose row i holds the bits of i, so :func:`flip` reads the
value at x with bit q flipped from row i XOR 2^q instead of evaluating the
function again.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cache
from itertools import accumulate
from math import comb, isqrt
from typing import Sequence

import numpy as np


def cube(n_bits: int) -> np.ndarray:
    """All 2^n_bits points of {0,1}^n_bits as float rows; bit q of row i is bit q of i."""
    ids = np.arange(1 << n_bits, dtype=np.int64)
    return ((ids[:, None] >> np.arange(n_bits)) & 1).astype(float)


def flip(vals: np.ndarray, q: int) -> np.ndarray:
    """f(x) - f(x with bit q flipped), from vals = f(cube rows) along axis 0."""
    return vals - vals[np.arange(len(vals)) ^ (1 << q)]


def _bits(vals: np.ndarray) -> np.ndarray:
    """The entries of ``vals`` as ints, refusing any not equal to 0 or 1."""
    if not ((vals == 0) | (vals == 1)).all():
        raise ValueError("bit vector entries must be 0 or 1")
    return vals.astype(int)


def rank(bits: Sequence[int]) -> int:
    """1-based rank under weight-then-lexicographic order.

    The all-zeros string has rank 1 and the all-ones string rank 2^n.
    """
    vals = _bits(np.asarray(bits)).tolist()
    n = len(vals)
    w = sum(vals)
    below = sum(comb(n, j) for j in range(w))
    within = 0
    remaining_ones = w
    for i, b in enumerate(vals):
        if b:
            # strings matching the prefix, 0 here, remaining ones to the right
            within += comb(n - i - 1, remaining_ones)
            remaining_ones -= 1
    return below + within + 1


def unrank(r: int, n: int) -> list[int]:
    """Inverse of :func:`rank` on {1, ..., 2^n}."""
    if not (1 <= r <= 1 << n):
        raise ValueError("rank out of range")
    w = 0
    acc = 0
    while acc + comb(n, w) < r:
        acc += comb(n, w)
        w += 1
    idx = r - acc - 1  # 0-based within the weight class
    bits = []
    remaining_ones = w
    for i in range(n):
        # once no ones remain, c = 1 > idx = 0 and every later bit is 0
        c = comb(n - i - 1, remaining_ones)
        if idx < c:
            bits.append(0)
        else:
            bits.append(1)
            idx -= c
            remaining_ones -= 1
    return bits


def max_flip_rank_shift(m: int) -> int:
    """Upper bound 2*C(m^2, floor(m^2/2)) on the rank change of one bit flip."""
    n = m * m
    return 2 * comb(n, n // 2)


def c1_constant(m: int) -> float:
    """max over m' <= m of max_flip_rank_shift(m') * m' / 2^(m'^2)."""
    return max((max_flip_rank_shift(mp) * mp / (1 << mp * mp) for mp in range(1, m + 1)),
               default=0.0)


@cache
def weight_boundaries(m: int) -> tuple[int, ...]:
    """The m staircase cut points b_1 < ... < b_m in {1, ..., m^2}.

    b_y is the smallest weight with cumulative mass >= y/(m+1), pushed up
    where needed to keep the cut points distinct.  Exact integer arithmetic.
    """
    if m < 1:
        raise ValueError("m must be >= 1")
    n = m * m
    total = 1 << n
    cums = list(accumulate(comb(n, w) for w in range(n + 1)))
    bounds = []
    prev = 0
    for y in range(1, m + 1):
        cand = next(w for w in range(n + 1) if (m + 1) * cums[w] >= y * total)
        b = max(cand, prev + 1, 1)
        if b > n:
            raise ValueError("staircase does not fit; m^2 bits are too few")
        bounds.append(b)
        prev = b
    return tuple(bounds)


@cache
def _levels(m: int) -> np.ndarray:
    """g_m as one read-only table: entry w counts the cut points at or below w."""
    levels = np.searchsorted(weight_boundaries(m), np.arange(m * m + 1), side="right")
    levels.flags.writeable = False
    return levels


def g_m(bits: Sequence[int], m: int) -> int:
    """Evaluate the averaging function for the given m.  m and the length are
    checked first: the table takes seconds to build for m in the tens."""
    if m < 1:
        raise ValueError("m must be >= 1")
    vals = np.asarray(bits)
    if vals.shape != (m * m,):
        raise ValueError(f"bit vector must have length {m * m}, got shape {vals.shape}")
    return int(_levels(m)[_bits(vals).sum()])


@dataclass(frozen=True)
class AveragingReport:
    m: int
    max_level_prob: float
    gradient_ok: bool
    c1_value: float
    level_bound_ok: bool


def verify_averaging_properties(m: int) -> AveragingReport:
    """Verify the flip-gradient and level-set bounds of g_m exactly, m <= 32.

    A flip moves the weight by one and every weight occurs, so every flip
    moves g_m by at most 1 exactly when neighbouring table entries differ by
    at most 1.  The largest level-set mass, from :func:`level_probabilities`,
    must be at most 2*c1/m with c1 computed numerically.
    """
    if m > 32:
        raise ValueError("the averaging check is limited to m <= 32")
    gradient_ok = bool(np.all(np.abs(np.diff(_levels(m))) <= 1))
    max_level_prob = max(level_probabilities(m))
    c1 = c1_constant(m)
    return AveragingReport(m=m, max_level_prob=max_level_prob,
                           gradient_ok=gradient_ok, c1_value=c1,
                           level_bound_ok=max_level_prob <= 2.0 * c1 / m)


def level_probabilities(m: int) -> list[float]:
    """Exact level-set probabilities of g_m via binomial counting (any m)."""
    n = m * m
    counts = [0] * (m + 1)
    for w, level in enumerate(_levels(m).tolist()):
        counts[level] += comb(n, w)
    # int/int true division stays exact-ish even when both exceed float range
    return [c / (1 << n) for c in counts]


def random_vertex(a, d: int) -> tuple[int, ...]:
    """Coordinate-wise averaging of a d x m^2 bit matrix into {0..m}^d."""
    mat = np.asarray(a)
    if mat.ndim != 2 or mat.shape[0] != d:
        raise ValueError(f"bit matrix must have shape ({d}, m^2)")
    n = mat.shape[1]
    m = isqrt(n)
    if m * m != n:
        raise ValueError("row length must be a perfect square m^2")
    return tuple(_levels(m)[_bits(mat).sum(axis=1)].tolist())
