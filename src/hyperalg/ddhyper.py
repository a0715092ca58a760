"""Double distributivity machinery: the closure of a hyperfield under
iterated hypersums, the reduced powerset functor on that closure, partial
demifields, and the exact-interval triangle counterexample.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field, replace
from fractions import Fraction

from .core import extend_hyperop, family_tables, mask_mul, mask_of
from .hyper import (
    AxiomReport,
    FiniteHyperring,
    Violation,
    _report,
    check_doubly_distributive,
)
from .fuzzy import FiniteFuzzyRing, make_fuzzy_ring


@dataclass(frozen=True)
class SumClosure:
    """All subsets of F expressible as iterated hypersums, with a generator
    witness for each; contains every singleton and is closed under +."""

    family: tuple[int, ...]  # masks, singletons {0},{1} first
    index: dict[int, int] = field(hash=False)
    witnesses: dict[int, tuple[int, ...]] = field(hash=False)


def closure_S(f: FiniteHyperring) -> SumClosure:
    witnesses = _sum_closure(f.add)
    rest = sorted(m for m in witnesses if m not in (1, 2))
    family = (1, 2, *rest)
    index = {m: i for i, m in enumerate(family)}
    return SumClosure(family, index, witnesses)


def _sum_closure(add) -> dict[int, tuple[int, ...]]:
    """Every iterated hypersum of singletons under the mask table `add`, as
    a mask, with the elements whose sum it is."""
    witnesses: dict[int, tuple[int, ...]] = {1 << a: (a,) for a in range(len(add))}
    frontier = list(witnesses)
    while frontier:
        x = frontier.pop()
        for a in range(len(add)):
            y = extend_hyperop(add, x, 1 << a)
            if y not in witnesses:
                witnesses[y] = witnesses[x] + (a,)
                frontier.append(y)
    return witnesses


def check_mul_closure(f: FiniteHyperring) -> AxiomReport:
    """Is the sum closure also closed under elementwise products?"""
    sc = closure_S(f)
    v: list[Violation] = []
    fam = set(sc.family)
    for a, b in itertools.combinations_with_replacement(sc.family, 2):
        if mask_mul(f.mul, a, b) not in fam:
            v.append(("mul-closure", (a, b)))
    return _report(v)


class NotDoublyDistributive(ValueError):
    def __init__(self, witness):
        super().__init__(f"not doubly distributive, witness {witness}")
        self.witness = witness


def Fbar(f: FiniteHyperring) -> FiniteFuzzyRing:
    """The reduced fuzzy ring on the sum closure of a doubly-distributive
    hyperfield, built as F2(F1(f)); nulls are the members containing 0."""
    return replace(F2(F1(f)), name=f"Fbar({f.name or '?'})")


def fbar_embed(f: FiniteHyperring) -> tuple[int, ...]:
    """Base element -> its singleton's index in the Fbar carrier."""
    sc = closure_S(f)
    return tuple(sc.index[1 << x] for x in range(f.n))


def fbar_inclusion(f: FiniteHyperring, fk: dict[int, int]) -> tuple[int, ...]:
    """Map from Fbar(F) indices to F(F) indices (set-theoretic inclusion);
    `fk` maps masks to F(F) indices."""
    sc = closure_S(f)
    return tuple(fk[mask] for mask in sc.family)


# ---------------------------------------------------------------------------
# partial demifields


@dataclass(frozen=True)
class PartialDemifield:
    """(F, S): a hyperfield multiplicatively embedded in and generating a
    semiring; here S is always carried by a sum closure of F."""

    hyperfield: FiniteHyperring
    family: tuple[int, ...]  # masks
    add: tuple[tuple[int, ...], ...]  # single-valued, indices into family
    mul: tuple[tuple[int, ...], ...]
    embedding: tuple[int, ...]  # hyperfield element -> family index


def F1(f: FiniteHyperring) -> PartialDemifield:
    """(F, S(F)) for a doubly-distributive hyperfield."""
    rep = check_doubly_distributive(f)
    if not rep.passed:
        raise NotDoublyDistributive(rep.violations[0][1])
    sc = closure_S(f)
    try:
        add, mul = family_tables(f.add, f.mul, sc.family)
    except KeyError as e:  # a sum or product left the closure
        raise NotDoublyDistributive(e.args[0]) from e
    embed = tuple(sc.index[1 << x] for x in range(f.n))
    return PartialDemifield(
        f,
        sc.family,
        tuple(map(tuple, add)),
        tuple(map(tuple, mul)),
        embed,
    )


def check_partial_demifield(p: PartialDemifield) -> AxiomReport:
    v: list[Violation] = []
    f = p.hyperfield
    emb = p.embedding
    # F is a multiplicative submonoid
    for a, b in itertools.product(range(f.n), repeat=2):
        if p.mul[emb[a]][emb[b]] != emb[f.mul[a][b]]:
            v.append(("submonoid", (a, b)))
    # F generates S: close the embedded image under + and x
    gen = set(emb)
    frontier = list(gen)
    while frontier:
        x = frontier.pop()
        for y in list(gen):
            for z in (p.add[x][y], p.mul[x][y]):
                if z not in gen:
                    gen.add(z)
                    frontier.append(z)
    if len(gen) != len(p.family):
        v.append(("generates", (len(gen), len(p.family))))
    # compatibility: a +_S b lands in F  =>  it lies in a +_F b
    singleton_of = {e: x for x, e in enumerate(emb)}
    for a, b in itertools.product(range(f.n), repeat=2):
        s = p.add[emb[a]][emb[b]]
        if s in singleton_of and not (f.add[a][b] >> singleton_of[s]) & 1:
            v.append(("sum-compatible", (a, b)))
    return _report(v)


def check_addsame(p: PartialDemifield, max_len: int = 4) -> AxiomReport:
    """Iterated hyperfield sums must agree with iterated semiring sums for
    tuples up to max_len.

    Longer tuples are covered because both sides extend a length-k value by
    one element through the same one-step operation (the semiring + on the
    closure is the mask-level +), so agreement at one step is inductive.
    """
    v: list[Violation] = []
    f = p.hyperfield
    emb = p.embedding
    mask_to_idx = {m: i for i, m in enumerate(p.family)}
    for length in range(1, max_len + 1):
        for tup in itertools.combinations_with_replacement(range(f.n), length):
            hyper = f.hsum(tup)
            semi = emb[tup[0]]
            for a in tup[1:]:
                semi = p.add[semi][emb[a]]
            if mask_to_idx.get(hyper) != semi:
                v.append(("addsame", tup))
    return _report(v)


def F2(p: PartialDemifield) -> FiniteFuzzyRing:
    """The fuzzy ring of a partial demifield in the essential image of F1;
    table-for-table equal to Fbar of its hyperfield."""
    rep = check_addsame(p)
    if not rep.passed:
        raise ValueError(f"not in the essential image: {rep.violations[0]}")
    k0 = mask_of(i for i, mk in enumerate(p.family) if mk & 1)
    eps = p.embedding[p.hyperfield.neg[1]]
    return make_fuzzy_ring(
        p.add, p.mul, k0, epsilon=eps, name=f"F2({p.hyperfield.name or '?'})"
    )


# ---------------------------------------------------------------------------
# the triangle hyperfield counterexample, in exact rational intervals


@dataclass(frozen=True)
class RationalInterval:
    lo: Fraction
    hi: Fraction

    def __post_init__(self):
        if self.lo > self.hi or self.lo < 0:
            raise ValueError("need 0 <= lo <= hi")

    def __str__(self) -> str:
        return f"[{self.lo}, {self.hi}]"


def interval(lo, hi=None) -> RationalInterval:
    lo = Fraction(lo)
    return RationalInterval(lo, Fraction(hi) if hi is not None else lo)


def triangle_add(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    """x (+) y = [|x-y|, x+y], extended to intervals by taking the union."""
    lo = max(Fraction(0), a.lo - b.hi, b.lo - a.hi)
    return RationalInterval(lo, a.hi + b.hi)


def triangle_mul(a: RationalInterval, b: RationalInterval) -> RationalInterval:
    return RationalInterval(a.lo * b.lo, a.hi * b.hi)


@dataclass(frozen=True)
class TriangleReport:
    two_plus_three: RationalInterval
    square: RationalInterval
    expanded: RationalInterval
    equal: bool


def triangle_counterexample() -> TriangleReport:
    """(2(+)3)^2 versus 4(+)6(+)6(+)9: double distributivity fails in the
    triangle hyperfield."""
    s = triangle_add(interval(2), interval(3))
    sq = triangle_mul(s, s)
    exp = triangle_add(
        triangle_add(triangle_add(interval(4), interval(6)), interval(6)), interval(9)
    )
    return TriangleReport(s, sq, exp, sq == exp)
