"""Bitmask subset algebra over small finite carriers.

Carrier elements are integers 0..n-1 with 0 the additive identity and 1 the
multiplicative identity.  A subset of the carrier is a machine-word bitmask
(bit i set iff element i is a member), so n is capped at 64.  Hyperaddition
tables are n x n arrays of masks; single-valued tables are n x n arrays of
element indices.  The tables of + and x on a family of masks (family_tables)
are built with vectorized ORs over uint64 arrays; the pair loop over
extend_hyperop and mask_mul that they replace is the test oracle.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

import numpy as np

MAX_CARRIER = 64

# F(R) materializes 2^n - 1 operation tables, O(4^n) entries, so powerset
# constructions get a much lower cap.  F_obj also refuses a result over the
# fuzzy-ring carrier cap of 4096 elements, which makes 12 the effective limit.
DEFAULT_POWERSET_CAP = 8
HARD_POWERSET_CAP = 16


class CarrierTooLarge(ValueError):
    """Carrier size exceeds a hard cap."""


def powerset_cap() -> int:
    """Current cap on the base carrier size of powerset constructions."""
    cap = int(os.environ.get("HYPERALG_MAX_POWERSET", DEFAULT_POWERSET_CAP))
    return min(cap, HARD_POWERSET_CAP)


def bits(mask: int) -> Iterator[int]:
    """Iterate the element indices of a mask, ascending."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


def mask_of(elems: Iterable[int]) -> int:
    m = 0
    for e in elems:
        m |= 1 << e
    return m


def extend_hyperop(add: Sequence[Sequence[int]], a_mask: int, b_mask: int) -> int:
    """Union of x+y over x in A, y in B.

    Empty if either argument is empty, or if every pairwise sum is empty
    (partial hyperoperations store empty masks in their table).
    """
    out = 0
    for a in bits(a_mask):
        row = add[a]
        for b in bits(b_mask):
            out |= row[b]
    return out


def mask_mul(mul: Sequence[Sequence[int]], a_mask: int, b_mask: int) -> int:
    """Elementwise product set {x*y : x in A, y in B} as a mask."""
    out = 0
    for a in bits(a_mask):
        row = mul[a]
        for b in bits(b_mask):
            out |= 1 << row[b]
    return out


def units_mask(mul: Sequence[Sequence[int]]) -> int:
    """Mask of the elements with a multiplicative inverse in `mul`."""
    return mask_of(x for x, row in enumerate(mul) if 1 in row)


def family_tables(
    add: Sequence[Sequence[int]],
    mul: Sequence[Sequence[int]],
    family: Sequence[int],
) -> tuple[list[list[int]], list[list[int]]]:
    """Index tables of + (extend_hyperop) and x (mask_mul) on a mask family.

    Both mask tables are built together over uint64 arrays, with rows the
    base add table and 1 << mul: r[a, j] is the OR of rows[a][b] over b in
    family[j], and row i of a table is the OR of r[a] over a in family[i]
    (n vector ORs).  Positions come from a binary search in the sorted
    family, so no array over all 2^n masks is built.  The lower triangle
    mirrors the upper one, as in a commutative table, also for a hand-built
    table that is not commutative.  A sum or product outside the family
    raises KeyError(mask) for the first one in row-major order, + before x;
    with mirrored tables that is the first one in the upper triangle.
    """
    fam = np.array(family, dtype=np.uint64)
    n, m = len(add), len(fam)
    member = (fam[:, None] >> np.arange(n, dtype=np.uint64)) & np.uint64(1) == 1
    rows = np.stack(  # rows[0] for +, rows[1] for x
        [np.array(add, dtype=np.uint64), np.uint64(1) << np.array(mul, dtype=np.uint64)]
    )
    r = np.bitwise_or.reduce(np.where(member, rows[:, :, None, :], 0), axis=3)
    t = np.zeros((2, m, m), dtype=np.uint64)
    for a in range(n):
        np.bitwise_or(t, r[:, None, a], out=t, where=member[:, a, None])
    t = np.where(np.tri(m, k=-1, dtype=bool), t.swapaxes(1, 2), t)
    order = np.argsort(fam)
    at = order[np.minimum(np.searchsorted(fam[order], t), m - 1)]
    inside = fam[at] == t
    if not inside.all():
        i, j = np.argwhere(~inside.all(axis=0))[0]
        raise KeyError(int(t[1, i, j] if inside[0, i, j] else t[0, i, j]))
    add_t, mul_t = at.tolist()
    return add_t, mul_t


def iterated_hypersum(add: Sequence[Sequence[int]], elems: Sequence[int]) -> int:
    """Left fold of extend_hyperop over singletons of `elems`.

    The result is independent of fold order when the hyperoperation is
    associative; that is a tested property, not an assumption here.
    """
    if not elems:
        raise ValueError("iterated_hypersum needs at least one element")
    acc = 1 << elems[0]
    for e in elems[1:]:
        acc = extend_hyperop(add, acc, 1 << e)
    return acc


def subset_order(n: int, include_empty: bool = False) -> list[int]:
    """Canonical ordering of the subset masks of an n-element carrier.

    {0} comes first and {1} second so that powerset structures keep the
    additive/multiplicative identities at indices 0 and 1; the remaining
    masks (including the empty mask, for partial structures) follow in
    ascending order.
    """
    if n > MAX_CARRIER:
        raise CarrierTooLarge(f"carrier size {n} exceeds {MAX_CARRIER}")
    first = [1, 2]
    rest = [m for m in range(0 if include_empty else 1, 1 << n) if m not in (1, 2)]
    return first + rest
