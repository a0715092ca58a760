"""Finite fuzzy rings: axiom verification, weak/strong morphisms, and the
pair-reachability closure that decides the unbounded sum quantifiers in the
morphism definitions.

A fuzzy ring here is a carrier 0..n-1 with single-valued addition and
multiplication tables, a distinguished unit epsilon with epsilon^2 = 1, and a
null set K0 (a mask).  The morphism conditions quantify over sums of
arbitrary length; since sums of a fixed generator set only ever visit
finitely many (value, image-value) pairs, breadth-first closure over that
pair space decides them exactly.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .core import CarrierTooLarge, bits, mask_of, units_mask
from .hyper import AxiomReport, Violation, _report

MAX_FUZZY_CARRIER = 4096


@dataclass(frozen=True)
class FiniteFuzzyRing:
    n: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    epsilon: int
    k0: int  # mask
    name: str = ""

    def is_null(self, x: int) -> bool:
        return bool((self.k0 >> x) & 1)

    @cached_property
    def units_mask(self) -> int:
        return units_mask(self.mul)

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(bits(self.units_mask))

    @cached_property
    def _units_act(self) -> bool:
        """Do the units act on K by u(x+y) = ux+uy, u(xy) = (ux)y = x(uy),
        ux in K0 iff x in K0, u0 = 0 and 1x = x?  The strong-extension
        search closes its pairs up to this action (FR2 gives the first law
        on a fuzzy ring)."""
        # int16 holds every index up to MAX_FUZZY_CARRIER and keeps the
        # n x n gathers small
        add, mul = (np.array(t, dtype=np.int16) for t in (self.add, self.mul))
        nul = np.array([self.is_null(x) for x in range(self.n)])
        if (mul[1] != np.arange(self.n)).any():
            return False
        for u in self.units:
            mu = mul[u]
            prod = mu.take(mul)  # u(xy)
            if (
                mu[0] != 0
                or (nul[mu] != nul).any()
                or (mu.take(add) != add[mu][:, mu]).any()
                or (prod != mul[mu]).any()
                or (prod != mul[:, mu]).any()
            ):
                return False
        return True

    @property
    def minus_one(self) -> int:
        return self.epsilon

    def add_many(self, elems) -> int:
        acc = 0
        for e in elems:
            acc = self.add[acc][e]
        return acc

    def sum_is_null(self, elems) -> bool:
        """Is the sum of `elems` in K0?"""
        return self.is_null(self.add_many(elems))


def make_fuzzy_ring(add, mul, k0, epsilon=None, name: str = "") -> FiniteFuzzyRing:
    """Build a fuzzy ring, locating epsilon from FR5 (the unique unit a with
    1+a null) and cross-checking any supplied value."""
    n = len(add)
    # fuzzy tables are single-valued, so the carrier may exceed the
    # hyperring mask limit; masks over the carrier use arbitrary-size ints
    if n > MAX_FUZZY_CARRIER:
        raise CarrierTooLarge(f"carrier size {n} exceeds {MAX_FUZZY_CARRIER}")
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    k = FiniteFuzzyRing(n, add, mul, 0, k0, name)
    candidates = [a for a in k.units if (k0 >> add[1][a]) & 1]
    if len(candidates) != 1:
        raise ValueError(f"epsilon not determined by FR5: candidates {candidates}")
    eps = candidates[0]
    if epsilon is not None and epsilon != eps:
        raise ValueError(f"supplied epsilon {epsilon} but FR5 forces {eps}")
    return FiniteFuzzyRing(n, add, mul, eps, k0, name)


# ---------------------------------------------------------------------------
# axiom verification
#
# FR0-FR5 are vectorized table comparisons.  FR6 and FR7 quantify over
# quadruples; with N(s) = {x : s + x in K0}, row s of nul[add], they are read
# through null sets:
#   FR6  a+b, c+d null => ac + eps*bd null  is, for every a and c,
#        U(a, c) = union of eps*b*N(c) over b in N(a)  <=  N(ac).
#        This only unfolds the definitions, so it is tested on every ring.
#        The images eps*b*N(c) are bit sets scattered in blocks of b of at
#        most FR6_CHUNK_CELLS cells; then a runs in ascending order.  When
#        multiplication commutes, (a, b, c, d) fails iff (c, d, a, b) does,
#        so a failing quadruple with c < a has a smaller failing first index
#        c, and the first a that fails has a failure with c >= a: testing
#        c >= a finds the same first a.  The witness is read from the
#        images: the first b in N(a) with a failing c, that c, the first d.
#   FR7  a + b(c+d) null => a + bc + bd null  is  N(b(c+d)) <= N(bc + bd)
#        for all b, c, d, given that addition is associative,
#        (a + bc) + bd = a + (bc + bd), and commutative, a + s = s + a.
#        The inclusions are tested when the FR0 additive laws hold on the
#        whole carrier; otherwise a sweep over (a, b) slices of the
#        quadruples stops at the first slice that fails.
# Either way the witness is the first failing quadruple in row-major order.
#
# Every quantifier ranges over a domain D of carrier indices: the whole
# carrier, or a window of a tabulated infinite ring (ordgrp).  Products of
# elements of D stay in the carrier, so FR6 reads N(ac) over the carrier and
# N_D(c) = N(c) & D; bc and bd may leave D, hence FR7's additive laws on the
# whole carrier.


def _on(t, dom):
    """t on dom x dom; t itself when dom is the whole carrier."""
    return t if len(dom) == len(t) else t[np.ix_(dom, dom)]


def _tables(k: FiniteFuzzyRing):
    add = np.array(k.add, dtype=np.intp)
    mul = np.array(k.mul, dtype=np.intp)
    nul = np.zeros(k.n, dtype=bool)
    for x in bits(k.k0):
        nul[x] = True
    return add, mul, nul


def _assoc_witness(t: np.ndarray, dom: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) over dom in row-major order with (ab)c != a(bc),
    checked one a-slice at a time so that no n^3 array is built."""
    t_dom = _on(t, dom)
    cols = t if t_dom is t else t.take(dom, axis=1)  # C order: rows are gathered
    for i, a in enumerate(dom):
        bad = cols[t_dom[i]] != t[a][t_dom]
        if bad.any():
            b, c = np.argwhere(bad)[0]
            return int(a), int(dom[b]), int(dom[c])
    return None


def check_fuzzy_axioms(k: FiniteFuzzyRing) -> AxiomReport:
    return _report(_fuzzy_violations(k, np.arange(k.n)))


def _fuzzy_violations(k: FiniteFuzzyRing, dom: np.ndarray) -> list[Violation]:
    """FR0-FR7 with every quantifier over dom, increasing carrier indices;
    the first witness of each axiom, in dom order."""
    v: list[Violation] = []
    add, mul, nul = _tables(k)
    add_dom, mul_dom = _on(add, dom), _on(mul, dom)

    def witness(mask, label, *axes):
        where = np.argwhere(mask)
        if where.size:
            v.append((label, tuple(int(ax[i]) for ax, i in zip(axes, where[0]))))

    # FR0: commutative monoids
    witness(add_dom != add_dom.T, "FR0-add-commutative", dom, dom)
    witness(mul_dom != mul_dom.T, "FR0-mul-commutative", dom, dom)
    for t, label in ((add, "FR0-add-associative"), (mul, "FR0-mul-associative")):
        w = _assoc_witness(t, dom)
        if w is not None:
            v.append((label, w))
    witness(add[0, dom] != dom, "FR0-add-identity", dom)
    witness(mul[1, dom] != dom, "FR0-mul-identity", dom)
    # FR1
    witness(mul[0, dom] != 0, "FR1-absorbing", dom)
    # FR2: units distribute
    units = sorted(set(k.units) & set(dom.tolist()))
    for u in units:
        mu = mul[u, dom]
        witness(mul[u][add_dom] != add[np.ix_(mu, mu)], f"FR2-unit-{u}", dom, dom)
    # FR3
    if k.mul[k.epsilon][k.epsilon] != 1:
        v.append(("FR3", (k.epsilon,)))
    # FR4
    nz = dom[nul[dom]]
    if nz.size:
        witness(~nul[add[np.ix_(nz, nz)]], "FR4-add-closed", nz, nz)
        witness(~nul[mul[np.ix_(dom, nz)]], "FR4-mul-absorbing", dom, nz)
    if not k.is_null(0):
        v.append(("FR4-zero-null", ()))
    if k.is_null(1):
        v.append(("FR4-one-not-null", ()))
    # FR5, both directions over units
    for a in units:
        if nul[add[1][a]] != (a == k.epsilon):
            v.append(("FR5", (a,)))
    if len(dom) == k.n:
        additive = not any(label.startswith("FR0-add") for label, _ in v)
    else:
        additive = (add == add.T).all() and _assoc_witness(add, np.arange(k.n)) is None
    null_of = nul[add]  # row s is N(s)
    commutative = not any(label == "FR0-mul-commutative" for label, _ in v)
    v += _fr6_unions(null_of, mul, k.epsilon, dom, commutative)
    if additive:
        v += _fr7_inclusions(null_of, add, mul, dom)
    else:
        v += _fr7_slices(null_of, add, mul, dom, dom)
    return v


def _packed(rows):
    """Bool rows (..., n) as bit sets (..., w) of uint64 words."""
    p = np.packbits(rows, axis=-1)
    out = np.zeros(p.shape[:-1] + (-(-p.shape[-1] // 8) * 8,), dtype=np.uint8)
    out[..., : p.shape[-1]] = p
    return out.view(np.uint64)


# bool cells (b, c, x) per block of the FR6 image scatter, unless one b has
# more; its index array has one entry per null pair (c, d), so no more
FR6_CHUNK_CELLS = 2**16


def _fr6_unions(null_of, mul, epsilon, dom, commutative) -> list[Violation]:
    """FR6 as U(a, c) <= N(ac) for a in dom ascending and every c in dom,
    or every c >= a when multiplication commutes on dom; the witness is the
    first failing quadruple (a, b, c, d) in row-major order."""
    null_dom = _on(null_of, dom)
    m, n = null_dom.shape[0], len(mul)
    pc, pd = np.nonzero(null_dom)  # the null pairs (c, d)
    if not pc.size:
        return []
    mul_dom = _on(mul, dom)
    emul = mul[epsilon][mul_dom]  # emul[b,d] = eps*(b*d)
    null_bits = _packed(null_of)
    # image[b, c] = eps*b*N_D(c), scattered for blocks of b
    image = np.empty((m, m, null_bits.shape[1]), dtype=np.uint64)
    step = max(1, FR6_CHUNK_CELLS // (m * n))
    base = pc * n
    for lo in range(0, m, step):
        hi = min(lo + step, m)
        sets = np.zeros((hi - lo) * m * n, dtype=bool)
        cells = np.take(emul[lo:hi], pd, axis=1)  # cells[b - lo, pair]
        cells += base
        cells += np.arange(0, (hi - lo) * m * n, m * n)[:, None]
        sets[cells] = True
        image[lo:hi] = _packed(sets.reshape(hi - lo, m, n))
    for a in range(m):
        bs = np.flatnonzero(null_dom[a])
        if not bs.size:
            continue
        cs = a if commutative else 0
        outside = ~null_bits[mul_dom[a]]  # outside[c] = complement of N(ac)
        union = np.bitwise_or.reduce(image[bs, cs:], axis=0)
        if not (union & outside[cs:]).any():
            continue
        bad = (image[bs] & outside).any(axis=2)  # bad[b, c]
        r, c = np.argwhere(bad)[0]
        b = bs[r]
        d = np.flatnonzero(null_dom[c] & ~null_of[mul_dom[a, c], emul[b]])[0]
        return [("FR6", tuple(int(dom[x]) for x in (a, b, c, d)))]
    return []


def _fr7_inclusions(null_of, add, mul, dom) -> list[Violation]:
    """FR7 as N_D(b(c+d)) <= N_D(bc+bd) over b, c, d in dom, each distinct
    pair tested once; needs additive associativity and commutativity, so
    that (c, d) and (d, c) give the same pair and c <= d suffices."""
    n = len(add)
    c, d = np.triu_indices(len(dom))
    sums = _on(add, dom)[c, d]
    marked = np.zeros((n, n), dtype=bool)
    for b in dom:
        mb = mul[b, dom]
        marked[mul[b][sums], add[mb[c], mb[d]]] = True
    np.fill_diagonal(marked, False)
    p, q = np.nonzero(marked)
    null_bits = _packed(null_of[:, dom])  # row s is N_D(s)
    diff = null_bits[p] & ~null_bits[q]  # N_D(p) \ N_D(q)
    bad = diff.any(axis=1)
    if not bad.any():
        return []
    # the first a in some N_D(p) \ N_D(q) is the first a of a failing
    # quadruple; the slices of that a give its first (b, c, d)
    union = np.unpackbits(np.bitwise_or.reduce(diff[bad]).view(np.uint8))
    v = _fr7_slices(null_of, add, mul, dom, dom[np.flatnonzero(union)[:1]])
    if not v:
        raise AssertionError("FR7 inclusion failed but no quadruple does")
    return v


def _fr7_slices(null_of, add, mul, dom, firsts) -> list[Violation]:
    """The first FR7 quadruple (a, b, c, d) in row-major order with a from
    firsts and b, c, d from dom, one (a, b) slice of (c, d) cells at a time."""
    add_dom = _on(add, dom)
    for a in firsts:
        for b in dom:
            mb = mul[b, dom]
            lhs_null = null_of[a][mul[b][add_dom]]  # a + b(c+d)
            rhs_null = null_of[add[a, mb]][:, mb]  # (a+bc) + bd
            bad = lhs_null & ~rhs_null
            if bad.any():
                c, d = np.argwhere(bad)[0]
                return [("FR7", (int(a), int(b), int(dom[c]), int(dom[d])))]
    return []


# ---------------------------------------------------------------------------
# morphisms: pair-reachability closure


@dataclass(frozen=True)
class ClosureCertificate:
    accepted: bool
    violating: tuple[int, int] | None
    reachable: int  # number of explored (source, target) pairs

    def __bool__(self) -> bool:
        return self.accepted


@dataclass(frozen=True)
class MorphismTable:
    kind: str  # "weak" | "strong" | "hyperring-hom"
    map: tuple[tuple[int, int], ...]  # (source, target) pairs
    certificate: ClosureCertificate


def _null_closure(
    k: FiniteFuzzyRing, l: FiniteFuzzyRing, generators
) -> ClosureCertificate:
    """BFS over (sum-in-K, sum-in-L) pairs generated by `generators`.

    Accepts iff no reachable pair has a null first component and non-null
    second component.  Exact: the pair space is finite (|K| * |L|).
    """
    gens = sorted(set(generators))
    start = (0, 0)
    seen = {start}
    frontier = [start]
    while frontier:
        s, t = frontier.pop()
        if k.is_null(s) and not l.is_null(t):
            return ClosureCertificate(False, (s, t), len(seen))
        srow, trow = k.add[s], l.add[t]
        for x, y in gens:
            p = (srow[x], trow[y])
            if p not in seen:
                seen.add(p)
                frontier.append(p)
    return ClosureCertificate(True, None, len(seen))


def check_weak_morphism(
    k: FiniteFuzzyRing, l: FiniteFuzzyRing, unit_map: dict[int, int]
) -> ClosureCertificate:
    """Decide whether a unit-group homomorphism preserves nullity of all
    finite sums of units."""
    if set(unit_map) != set(k.units):
        raise ValueError("unit map must be defined exactly on the units")
    if unit_map[1] != 1:
        raise ValueError("unit map must send 1 to 1")
    for a, b in itertools.product(k.units, repeat=2):
        if unit_map[k.mul[a][b]] != l.mul[unit_map[a]][unit_map[b]]:
            raise ValueError(f"unit map not multiplicative at ({a},{b})")
    return _null_closure(k, l, ((a, unit_map[a]) for a in k.units))


def check_strong_morphism(
    k: FiniteFuzzyRing, l: FiniteFuzzyRing, g
) -> ClosureCertificate:
    """Decide the strong morphism conditions for a total map g.

    Condition (1) (g(ab) = g(a)g(b) for a unit) is checked directly; the
    sum-of-products condition is decided by closure with one generator per
    distinct (a*b, g(a)*g(b)) pair.
    """
    g = tuple(g)
    if len(g) != k.n:
        raise ValueError("g must be total")
    if g[0] != 0 or g[1] != 1:
        return ClosureCertificate(False, None, 0)
    for a in k.units:
        for b in range(k.n):
            if g[k.mul[a][b]] != l.mul[g[a]][g[b]]:
                return ClosureCertificate(False, (k.mul[a][b], l.mul[g[a]][g[b]]), 0)
    gens = {
        (k.mul[a][b], l.mul[g[a]][g[b]])
        for a in range(k.n)
        for b in range(a, k.n)
    }
    return _null_closure(k, l, gens)


def weak_violation_by_enumeration(
    k: FiniteFuzzyRing, l: FiniteFuzzyRing, unit_map: dict[int, int], max_len: int = 5
) -> tuple[int, ...] | None:
    """Independent oracle: search unit tuples of length <= max_len whose sum
    is null in K but whose image sum is not null in L."""
    units = list(k.units)
    for length in range(1, max_len + 1):
        for tup in itertools.combinations_with_replacement(units, length):
            if k.is_null(k.add_many(tup)) and not l.is_null(
                l.add_many(unit_map[a] for a in tup)
            ):
                return tup
    return None


def enumerate_unit_homs(k: FiniteFuzzyRing, l: FiniteFuzzyRing) -> list[dict[int, int]]:
    """All multiplicative maps K^x -> L^x sending 1 to 1 (brute force); on
    a table where a product of units is not a unit, there are none."""
    ku = [u for u in k.units if u != 1]
    out = []
    for images in itertools.product(l.units, repeat=len(ku)):
        f = {1: 1}
        f.update(zip(ku, images))
        if all(
            f.get(k.mul[a][b]) == l.mul[f[a]][f[b]]
            for a, b in itertools.product(k.units, repeat=2)
        ):
            out.append(f)
    return out


def enumerate_weak_morphisms(
    k: FiniteFuzzyRing, l: FiniteFuzzyRing
) -> list[MorphismTable]:
    out = []
    for f in enumerate_unit_homs(k, l):
        cert = check_weak_morphism(k, l, f)
        if cert.accepted:
            out.append(MorphismTable("weak", tuple(sorted(f.items())), cert))
    out.sort(key=lambda m: m.map)
    return out


def weak_iso(k: FiniteFuzzyRing, l: FiniteFuzzyRing) -> dict[int, int] | None:
    """A unit bijection that is a weak morphism in both directions."""
    if len(k.units) != len(l.units):
        return None
    for f in enumerate_unit_homs(k, l):
        if len(set(f.values())) != len(f):
            continue
        inv = {y: x for x, y in f.items()}
        if check_weak_morphism(k, l, f).accepted and check_weak_morphism(
            l, k, inv
        ).accepted:
            return f
    return None


# ---------------------------------------------------------------------------
# builtins


def krasner_fuzzy() -> FiniteFuzzyRing:
    """{0, 1, k0} with 1+1 = k0; the final object in both morphism categories."""
    add = ((0, 1, 2), (1, 2, 2), (2, 2, 2))
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 2))
    return make_fuzzy_ring(add, mul, k0=mask_of([0, 2]), name="krasnerfuzzy")


def sign_fuzzy() -> FiniteFuzzyRing:
    """{0, 1, -1, k0} (index 2 is -1) with 1+(-1) = k0 and epsilon = -1."""
    add = ((0, 1, 2, 3), (1, 1, 3, 3), (2, 3, 2, 3), (3, 3, 3, 3))
    mul = ((0, 0, 0, 0), (0, 1, 2, 3), (0, 2, 1, 3), (0, 3, 3, 3))
    return make_fuzzy_ring(add, mul, k0=mask_of([0, 3]), name="signfuzzy")


def ring_as_fuzzy(ring) -> FiniteFuzzyRing:
    """A commutative ring as a fuzzy ring with K0 = {0} and epsilon = -1."""
    return make_fuzzy_ring(ring.add, ring.mul, k0=1, name=ring.name or "ring")


BUILTIN_FUZZY = {
    "krasnerfuzzy": krasner_fuzzy,
    "signfuzzy": sign_fuzzy,
}


def builtin_fuzzy(name: str) -> FiniteFuzzyRing:
    try:
        return BUILTIN_FUZZY[name]()
    except KeyError:
        raise ValueError(f"unknown builtin fuzzy ring {name!r}") from None
