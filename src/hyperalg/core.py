"""Bitmask subset algebra over small finite carriers.

Carrier elements are integers 0..n-1 with 0 the additive identity and 1 the
multiplicative identity.  A subset of the carrier is a machine-word bitmask
(bit i set iff element i is a member), so n is capped at 64.  Hyperaddition
tables are n x n arrays of masks; single-valued tables are n x n arrays of
element indices.
"""

from __future__ import annotations

import os
from typing import Iterable, Iterator, Sequence

MAX_CARRIER = 64

# F(R) materializes 2^n - 1 operation tables, O(4^n) entries, so powerset
# constructions get a much lower cap.
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
    index: dict[int, int],
) -> tuple[list[list[int]], list[list[int]]]:
    """Index tables of + (extend_hyperop) and x (mask_mul) on a mask family.

    `index` maps each member mask to its position in `family`; a sum or
    product outside the family raises KeyError.  The base tables are
    commutative, so only the upper triangle is computed and then mirrored.
    """
    m = len(family)
    add_t = [[0] * m for _ in range(m)]
    mul_t = [[0] * m for _ in range(m)]
    for i, mi in enumerate(family):
        for j in range(i, m):
            mj = family[j]
            add_t[i][j] = add_t[j][i] = index[extend_hyperop(add, mi, mj)]
            mul_t[i][j] = mul_t[j][i] = index[mask_mul(mul, mi, mj)]
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


def hypersum_masks(add: Sequence[Sequence[int]], masks: Sequence[int]) -> int:
    """Left fold of extend_hyperop over arbitrary masks."""
    if not masks:
        raise ValueError("hypersum_masks needs at least one mask")
    acc = masks[0]
    for m in masks[1:]:
        acc = extend_hyperop(add, acc, m)
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
