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
# quadruples; with N(s) = {x : s + x in K0}, row s of nul[add], each becomes an
# inclusion between null sets:
#   FR6  a+b, c+d null => ac + eps*bd null  is  eps*b*N(c) <= N(ac)
#        for every null pair (a, b) and every c;
#   FR7  a + b(c+d) null => a + bc + bd null  is  N(b(c+d)) <= N(bc + bd)
#        for all b, c, d, given that addition is associative,
#        (a + bc) + bd = a + (bc + bd), and commutative, a + s = s + a.
# The inclusions are tested when the FR0 additive checks pass; otherwise the
# quadruple sweep `_fr67_sweep` runs.  Either way the witness is the sweep's
# first failing quadruple.


def _tables(k: FiniteFuzzyRing):
    add = np.array(k.add, dtype=np.intp)
    mul = np.array(k.mul, dtype=np.intp)
    nul = np.zeros(k.n, dtype=bool)
    for x in bits(k.k0):
        nul[x] = True
    return add, mul, nul


def _assoc_witness(t: np.ndarray) -> tuple[int, int, int] | None:
    """First (a, b, c) in row-major order with (ab)c != a(bc), checked one
    a-slice at a time so that no n^3 array is built."""
    for a in range(len(t)):
        bad = np.argwhere(t[t[a]] != t[a][t])
        if bad.size:
            return a, int(bad[0][0]), int(bad[0][1])
    return None


def check_fuzzy_axioms(k: FiniteFuzzyRing) -> AxiomReport:
    v: list[Violation] = []
    n = k.n
    add, mul, nul = _tables(k)
    idx = np.arange(n)

    def witness(mask, label, arity):
        where = np.argwhere(mask)
        if where.size:
            v.append((label, tuple(int(x) for x in where[0][:arity])))

    # FR0: commutative monoids
    witness(add != add.T, "FR0-add-commutative", 2)
    witness(mul != mul.T, "FR0-mul-commutative", 2)
    for t, label in ((add, "FR0-add-associative"), (mul, "FR0-mul-associative")):
        w = _assoc_witness(t)
        if w is not None:
            v.append((label, w))
    witness(add[0] != idx, "FR0-add-identity", 1)
    witness(mul[1] != idx, "FR0-mul-identity", 1)
    # FR1
    witness(mul[0] != 0, "FR1-absorbing", 1)
    # FR2: units distribute
    for u in k.units:
        witness(mul[u][add] != add[np.ix_(mul[u], mul[u])], f"FR2-unit-{u}", 2)
    # FR3
    if k.mul[k.epsilon][k.epsilon] != 1:
        v.append(("FR3", (k.epsilon,)))
    # FR4
    nz = np.where(nul)[0]
    if nz.size:
        witness(~nul[add[np.ix_(nz, nz)]], "FR4-add-closed", 2)
        witness(~nul[mul[:, nz]], "FR4-mul-absorbing", 2)
    if not k.is_null(0):
        v.append(("FR4-zero-null", ()))
    if k.is_null(1):
        v.append(("FR4-one-not-null", ()))
    # FR5, both directions over units
    for a in k.units:
        if nul[add[1][a]] != (a == k.epsilon):
            v.append(("FR5", (a,)))
    if any(label.startswith("FR0-add") for label, _ in v):
        v += _fr67_sweep(add, mul, nul, k.epsilon)
    else:
        null_of = nul[add]  # row s is N(s)
        v += _fr6_inclusions(null_of, mul, k.epsilon)
        v += _fr7_inclusions(null_of, add, mul)
    return _report(v)


def _fr67_sweep(add, mul, nul, epsilon) -> list[Violation]:
    """FR6 and FR7 over all quadruples; the first witness of each."""
    v: list[Violation] = []
    n = len(add)
    # FR6: (a+b), (c+d) null  =>  ac + eps*bd null
    emul = mul[epsilon][mul]  # emul[b,d] = eps*(b*d)
    pairs = np.argwhere(nul[add])
    if pairs.size:
        pa, pb = pairs[:, 0], pairs[:, 1]
        chunk = max(1, 2_000_000 // max(1, len(pairs)))
        for i in range(0, len(pairs), chunk):
            a, b = pa[i : i + chunk], pb[i : i + chunk]
            vals = add[mul[a[:, None], pa[None, :]], emul[b[:, None], pb[None, :]]]
            bad = np.argwhere(~nul[vals])
            if bad.size:
                r, c = bad[0]
                v.append(("FR6", (int(a[r]), int(b[r]), int(pa[c]), int(pb[c]))))
                break
    # FR7: a + b(c+d) null  =>  a + bc + bd null
    p3 = mul[:, add]  # p3[b,c,d] = b*(c+d)
    bc = mul  # bc[b,c]
    for a in range(n):
        lhs_null = nul[add[a, p3]]
        rhs = add[add[a, bc][:, :, None], mul[:, None, :]]
        bad = np.argwhere(lhs_null & ~nul[rhs])
        if bad.size:
            b, c, d = bad[0]
            v.append(("FR7", (a, int(b), int(c), int(d))))
            break
    return v


def _packed(rows):
    """Bool rows (..., n) as bit sets (..., w) of uint64 words."""
    p = np.packbits(rows, axis=-1)
    out = np.zeros(p.shape[:-1] + (-(-p.shape[-1] // 8) * 8,), dtype=np.uint8)
    out[..., : p.shape[-1]] = p
    return out.view(np.uint64)


def _fr6_inclusions(null_of, mul, epsilon) -> list[Violation]:
    """FR6 as eps*b*N(c) <= N(ac) over null pairs (a, b) and all c."""
    n = len(mul)
    pairs = np.argwhere(null_of)
    if not pairs.size:
        return []
    pa, pb = pairs[:, 0], pairs[:, 1]
    emul = mul[epsilon][mul]  # emul[b,d] = eps*(b*d)
    null_bits = _packed(null_of)
    image = np.empty((n, n, null_bits.shape[1]), dtype=np.uint64)
    for b in range(n):  # image[b, c] = eps*b*N(c): the pairs are the (c, d)
        sets = np.zeros((n, n), dtype=bool)
        sets[pa, emul[b, pb]] = True
        image[b] = _packed(sets)
    chunk = max(1, 2_000_000 // image[0].size)
    for i in range(0, len(pairs), chunk):
        a, b = pa[i : i + chunk], pb[i : i + chunk]
        bad = (image[b] & ~null_bits[mul[a]]).any(axis=2)  # bad[pair, c]
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size:
            r = failing[0]
            a, b = int(a[r]), int(b[r])
            c = int(np.flatnonzero(bad[r])[0])
            d = np.flatnonzero(null_of[c] & ~null_of[mul[a, c], emul[b]])[0]
            return [("FR6", (a, b, c, int(d)))]
    return []


def _fr7_inclusions(null_of, add, mul) -> list[Violation]:
    """FR7 as N(b(c+d)) <= N(bc+bd), each distinct pair tested once; needs
    additive associativity and commutativity."""
    n = len(add)
    marked = np.zeros((n, n), dtype=bool)
    for b in range(n):
        mb = mul[b]
        marked[mb[add], add[mb[:, None], mb[None, :]]] = True
    np.fill_diagonal(marked, False)
    p, q = np.nonzero(marked)
    null_bits = _packed(null_of)
    diff = null_bits[p] & ~null_bits[q]  # N(p) \ N(q)
    bad = diff.any(axis=1)
    if not bad.any():
        return []
    # the smallest a in some N(p) \ N(q); then the sweep's first (b, c, d)
    union = np.unpackbits(np.bitwise_or.reduce(diff[bad]).view(np.uint8))
    a = int(np.flatnonzero(union)[0])
    for b in range(n):
        mb = mul[b]
        lhs_null = null_of[a, mb[add]]
        rhs_null = null_of[add[a, mb][:, None], mb[None, :]]
        where = np.argwhere(lhs_null & ~rhs_null)
        if where.size:
            c, d = where[0]
            return [("FR7", (a, b, int(c), int(d)))]
    raise AssertionError("FR7 inclusion failed but no quadruple does")


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
    """All multiplicative maps K^x -> L^x sending 1 to 1 (brute force)."""
    ku = [u for u in k.units if u != 1]
    out = []
    for images in itertools.product(l.units, repeat=len(ku)):
        f = {1: 1}
        f.update(zip(ku, images))
        if all(
            f[k.mul[a][b]] == l.mul[f[a]][f[b]]
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
