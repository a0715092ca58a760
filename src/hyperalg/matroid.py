"""Grassmann-Pluecker functions with coefficients in a hyperfield or a fuzzy
ring: the sign rule, one exchange-relation checker serving both coefficient
kinds (each supplies its own "is this sum null?" predicate), enumeration up to
unit scaling, pushforward along morphisms, the biconditional between the two
definitions, and an independent basis-exchange oracle.

Enumeration is a depth-first search over the slots in combinations order that
decides each exchange relation as soon as its last slot is assigned and prunes
at the first failing one; the loop over every assignment is the test oracle.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass

from .core import CarrierTooLarge
from .fuzzy import FiniteFuzzyRing
from .functors import PowersetFuzzyRing, g_carrier
from .hyper import AxiomReport, FiniteHyperring, _report


def _perm_parity(tup) -> int:
    """0 for even, 1 for odd; assumes no repeats."""
    inv = sum(
        1
        for i, j in itertools.combinations(range(len(tup)), 2)
        if tup[i] > tup[j]
    )
    return inv & 1


@functools.cache
def _slot_index(n: int, r: int) -> dict[tuple, int]:
    """Slot of each strictly increasing r-tuple over range(n)."""
    return {c: i for i, c in enumerate(itertools.combinations(range(n), r))}


def _slot_parity(slots: dict[tuple, int], tup: tuple) -> tuple[int, int]:
    """(slot of the sorted tuple, parity of the sort), or (-1, 0) when an
    entry repeats and the sign rule makes the value 0."""
    if len(set(tup)) != len(tup):
        return -1, 0
    return slots[tuple(sorted(tup))], _perm_parity(tup)


@dataclass(frozen=True)
class GPFunction:
    """Values are stored on strictly increasing rank-tuples only (aligned
    with itertools.combinations order); all other tuples are derived by the
    sign rule: repeated entries give 0, odd permutations flip the sign."""

    ground_size: int
    rank: int
    values: tuple[int, ...]
    coefficient: FiniteHyperring | FiniteFuzzyRing

    def __post_init__(self):
        slots = math.comb(self.ground_size, self.rank)
        if len(self.values) != slots:
            raise ValueError(f"expected {slots} values, got {len(self.values)}")
        if all(v == 0 for v in self.values):
            raise ValueError("identically zero")
        c = self.coefficient
        for v in self.values:
            if v != 0 and not (c.units_mask >> v) & 1:
                raise ValueError(f"value {v} is neither zero nor a unit")

    def value(self, tup) -> int:
        slots = _slot_index(self.ground_size, self.rank)
        slot, parity = _slot_parity(slots, tuple(tup))
        if slot < 0:
            return 0
        base = self.values[slot]
        if base != 0 and parity:
            return self.coefficient.mul[self.coefficient.minus_one][base]
        return base

    def support(self) -> tuple[tuple, ...]:
        combos = itertools.combinations(range(self.ground_size), self.rank)
        return tuple(c for c, v in zip(combos, self.values) if v != 0)


# exchange relations compiled per (n, r); enumeration reaches 225, at (6, 3)
MAX_GP_RELATIONS = 20_000


@functools.cache
def _gp_plan(n: int, r: int) -> tuple:
    """The exchange relations of rank r over range(n), compiled once: for
    each strictly increasing (r+1)-tuple x and (r-1)-tuple y, in
    combinations order, the witness (x, y) and the terms
    (parity k, slot of x without k, its parity, slot of (x_k, *y), its
    parity), slot -1 standing for a repeated entry.  Terms that are zero
    whatever the values are kept, so the sums are value()'s exactly.
    Rank 0 has no (r-1)-tuples, hence no relations: they hold vacuously.
    Raises CarrierTooLarge, before building anything, over
    MAX_GP_RELATIONS relations."""
    if r == 0:
        return ()
    relations = math.comb(n, r + 1) * math.comb(n, r - 1)
    if relations > MAX_GP_RELATIONS:
        raise CarrierTooLarge(
            f"rank {r} on {n} elements has {relations} exchange relations,"
            f" over {MAX_GP_RELATIONS}"
        )
    slots = _slot_index(n, r)
    plan = []
    for x in itertools.combinations(range(n), r + 1):
        for y in itertools.combinations(range(n), r - 1):
            terms = tuple(
                (
                    k & 1,
                    *_slot_parity(slots, x[:k] + x[k + 1 :]),
                    *_slot_parity(slots, (x[k],) + y),
                )
                for k in range(r + 1)
            )
            plan.append(((x, y), terms))
    return tuple(plan)


def _relation_test(c: FiniteHyperring | FiniteFuzzyRing):
    """holds(signed, terms): is the alternating sum of products of one
    compiled exchange relation null in c?  signed[parity][slot] is value()
    on a tuple sorting to slot; each row ends in an extra 0, which slot -1
    (a repeated entry) reads."""
    mul = c.mul
    neg = mul[c.minus_one]
    is_null = c.sum_is_null

    def holds(signed, terms) -> bool:
        summands = []
        for kp, ls, lp, rs, rp in terms:
            t = mul[signed[lp][ls]][signed[rp][rs]]
            summands.append(neg[t] if kp else t)
        return is_null(summands)

    return holds


def _gp_violations(phi: GPFunction):
    """Yield ("GP3", (x, y)) for each exchange relation whose alternating
    sum of products is not null, in plan order."""
    c = phi.coefficient
    neg = c.mul[c.minus_one]
    negated = [neg[v] if v != 0 else v for v in phi.values]
    signed = ([*phi.values, 0], [*negated, 0])
    holds = _relation_test(c)
    for witness, terms in _gp_plan(phi.ground_size, phi.rank):
        if not holds(signed, terms):
            yield "GP3", witness


def _gp_holds(phi: GPFunction) -> bool:
    """verify_gp(phi).passed, stopping at the first failing relation."""
    return next(_gp_violations(phi), None) is None


def verify_gp(phi: GPFunction) -> AxiomReport:
    """Exchange relations: every alternating sum of products must be null
    in the coefficient (0 lies in the hypersum over a hyperfield; the sum
    lies in K0 over a fuzzy ring).

    It suffices to sweep strictly increasing tuples: permuted or repeated
    tuples reduce to these by the sign rule built into value()."""
    return _report(list(_gp_violations(phi)))


@functools.cache
def _relations_by_last_slot(n: int, r: int) -> tuple[tuple[tuple, ...], ...]:
    """The terms of each relation of _gp_plan(n, r), grouped by the largest
    slot they read (every relation reads x without x_k, a valid slot)."""
    groups: list[list[tuple]] = [[] for _ in range(math.comb(n, r))]
    for _, terms in _gp_plan(n, r):
        groups[max(s for t in terms for s in (t[1], t[3]))].append(terms)
    return tuple(map(tuple, groups))


# search nodes (one per value tried at a slot) enumerate_gp may visit
ENUM_NODE_CAP = 2_000_000


def enumerate_gp(
    f: FiniteHyperring | FiniteFuzzyRing,
    n: int,
    r: int,
    normalize: bool = False,
) -> list[GPFunction]:
    """All valid value assignments (unit or zero per slot, not all zero);
    with normalize, keep one representative per unit-scaling class (first
    nonzero slot equal to 1).

    A depth-first search assigns the slots in combinations order, trying
    0 and then each unit; once slot s is set, the relations whose last slot
    is s are decided and the first failing one prunes the subtree.  The
    list and its order are those of a loop over every assignment in
    lexicographic order.  Raises ValueError after ENUM_NODE_CAP nodes."""
    if n > 6 or r > 3:
        raise ValueError("enumeration capped at n <= 6, r <= 3")
    slots = math.comb(n, r)
    choices = (0, *f.units)
    # under normalize, the first nonzero slot can only be 1
    leading = tuple(v for v in choices if v in (0, 1)) if normalize else choices
    by_slot = _relations_by_last_slot(n, r)
    holds = _relation_test(f)
    neg = f.mul[f.minus_one]
    signed = ([0] * (slots + 1), [0] * (slots + 1))
    values, negated = signed
    out: list[GPFunction] = []
    nodes = 0

    def extend(s: int, nonzero: bool) -> None:
        nonlocal nodes
        if s == slots:
            if nonzero:
                out.append(GPFunction(n, r, tuple(values[:slots]), f))
            return
        for v in choices if nonzero else leading:
            nodes += 1
            if nodes > ENUM_NODE_CAP:
                raise ValueError(
                    f"enumeration of rank {r} on {n} elements passed the"
                    f" search node cap ENUM_NODE_CAP = {ENUM_NODE_CAP}"
                )
            values[s] = v
            negated[s] = neg[v] if v != 0 else v
            for terms in by_slot[s]:
                if not holds(signed, terms):
                    break
            else:
                extend(s + 1, nonzero or v != 0)

    extend(0, False)
    return out


def scale_gp(phi: GPFunction, u: int) -> GPFunction:
    c = phi.coefficient
    if not (c.units_mask >> u) & 1:
        raise ValueError("scale factor must be a unit")
    return GPFunction(
        phi.ground_size,
        phi.rank,
        tuple(c.mul[u][v] for v in phi.values),
        c,
    )


def pushforward_gp(phi: GPFunction, fmap, target) -> GPFunction:
    """Compose the values with an element map (unit-and-zero preserving)."""
    if isinstance(fmap, dict):
        fmap = fmap.__getitem__
    return GPFunction(
        phi.ground_size,
        phi.rank,
        tuple(fmap(v) for v in phi.values),
        target,
    )


def transport_to_powerset(phi: GPFunction, fk: PowersetFuzzyRing) -> GPFunction:
    """Move a hyperfield-valued function into its powerset fuzzy ring
    through the singleton embedding."""
    emb = fk.embed
    return pushforward_gp(phi, lambda v: emb[v], fk.fuzzy)


def transport_to_g(phi: GPFunction, k: FiniteFuzzyRing, g: FiniteHyperring) -> GPFunction:
    """Move a fuzzy-ring-valued function onto the hyperfield carried by the
    units of k (the carrier order of g is [0, 1, sorted other units])."""
    carrier = g_carrier(k)
    idx = {e: i for i, e in enumerate(carrier)}
    return pushforward_gp(phi, lambda v: idx[v], g)


@dataclass(frozen=True)
class OneToOneReport:
    hyper_valid: bool
    fuzzy_valid: bool
    reduced_valid: bool | None
    agrees: bool


def cross_check_onetoone(
    phi: GPFunction,
    f: FiniteHyperring,
    fk: PowersetFuzzyRing,
    fbar: FiniteFuzzyRing | None = None,
    fbar_embed: tuple[int, ...] | None = None,
) -> OneToOneReport:
    """A function satisfies the hyperfield relations iff its singleton
    transport satisfies the fuzzy-ring relations (and iff the reduced-ring
    transport does, when the coefficient is doubly distributive)."""
    if phi.coefficient is not f:
        raise ValueError("coefficient mismatch")
    hv = _gp_holds(phi)
    fv = _gp_holds(transport_to_powerset(phi, fk))
    rv = None
    if fbar is not None:
        rv = _gp_holds(pushforward_gp(phi, lambda v: fbar_embed[v], fbar))
    agrees = (hv == fv) and (rv is None or rv == hv)
    return OneToOneReport(hv, fv, rv, agrees)


def cross_check_onetoone_G(
    phi: GPFunction, k: FiniteFuzzyRing, g: FiniteHyperring
) -> OneToOneReport:
    """The converse direction for a field-like fuzzy ring: fuzzy relations
    hold iff hyperfield relations hold over the unit hyperfield."""
    if phi.coefficient is not k:
        raise ValueError("coefficient mismatch")
    fv = _gp_holds(phi)
    hv = _gp_holds(transport_to_g(phi, k, g))
    return OneToOneReport(hv, fv, None, hv == fv)


# ---------------------------------------------------------------------------
# ordinary matroids: independent basis-exchange oracle


def underlying_matroid(phi: GPFunction) -> tuple[tuple, ...]:
    """Supports of the nonzero slots, as sorted rank-subsets."""
    return phi.support()


def _is_basis_family(family: tuple[tuple, ...]) -> bool:
    fam = set(family)
    for a, b in itertools.permutations(family, 2):
        for x in set(a) - set(b):
            rest = tuple(e for e in a if e != x)
            if not any(
                tuple(sorted(rest + (y,))) in fam for y in set(b) - set(a)
            ):
                return False
    return True


def basis_exchange_oracle(n: int, r: int) -> list[tuple[tuple, ...]]:
    """All nonempty families of r-subsets of an n-set satisfying the
    basis-exchange axiom, checked directly from the definition."""
    if n > 6:
        raise ValueError("oracle capped at n <= 6")
    combos = list(itertools.combinations(range(n), r))
    out = []
    for size in range(1, len(combos) + 1):
        for family in itertools.combinations(combos, size):
            if _is_basis_family(family):
                out.append(family)
    return out
