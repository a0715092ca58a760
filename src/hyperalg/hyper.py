"""Finite hyperrings and hyperfields: axiom checking, homomorphisms,
quotients of finite rings, and a gallery of builtin structures.

A structure lives on indices 0..n-1 with 0 the additive identity and 1 the
multiplicative identity.  Hyperaddition rows are subset masks; multiplication
is single-valued.  Partial structures (hypersums allowed to be empty) reuse
the same type with a flag.

Homomorphisms are enumerated by depth-first backtracking that checks each
pair of elements as soon as its images are assigned; the brute-force loop
over every map is the test oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .core import (
    MAX_CARRIER,
    CarrierTooLarge,
    bits,
    extend_hyperop,
    iterated_hypersum,
    mask_mul,
    mask_of,
    units_mask,
)

Violation = tuple[str, tuple]


@dataclass(frozen=True)
class AxiomReport:
    passed: bool
    violations: tuple[Violation, ...] = ()

    def __bool__(self) -> bool:
        return self.passed


def _report(violations: list[Violation]) -> AxiomReport:
    return AxiomReport(not violations, tuple(violations))


@dataclass(frozen=True)
class FiniteHyperring:
    n: int
    add: tuple[tuple[int, ...], ...]  # masks
    mul: tuple[tuple[int, ...], ...]  # element indices
    neg: tuple[int, ...]
    partial: bool = False
    name: str = ""

    @cached_property
    def units_mask(self) -> int:
        return units_mask(self.mul)

    @cached_property
    def units(self) -> tuple[int, ...]:
        return tuple(bits(self.units_mask))

    @property
    def minus_one(self) -> int:
        return self.neg[1]

    @cached_property
    def _fold_memo(self) -> dict[tuple[int, int], int]:
        """(acc_mask, e) -> extend_hyperop(add, acc_mask, 1 << e), filled as
        sums meet them: a dense 2^n x n table is out of reach at n = 64."""
        return {}

    def hsum(self, elems) -> int:
        """The left fold of core.iterated_hypersum, read through the memo."""
        elems = list(elems)
        if not elems:
            raise ValueError("hsum needs at least one element")
        acc, memo = 1 << elems[0], self._fold_memo
        for e in elems[1:]:
            try:
                acc = memo[acc, e]
            except KeyError:
                nxt = memo[acc, e] = extend_hyperop(self.add, acc, 1 << e)
                acc = nxt
        return acc

    def sum_is_null(self, elems) -> bool:
        """Does 0 lie in the hypersum of `elems`?"""
        return bool(self.hsum(elems) & 1)


def make_hyperring(
    add, mul, partial: bool = False, name: str = ""
) -> FiniteHyperring:
    """Build a hyperring-shaped structure, deriving the additive inverse map.

    The inverse of a is the unique x with 0 in a+x; non-uniqueness or absence
    is an error here (the axiom checkers report violations on structures that
    were built by hand around this constructor).
    """
    n = len(add)
    if n > MAX_CARRIER:
        raise CarrierTooLarge(f"carrier size {n} exceeds {MAX_CARRIER}")
    add = tuple(tuple(row) for row in add)
    mul = tuple(tuple(row) for row in mul)
    if any(len(row) != n for row in add) or len(mul) != n:
        raise ValueError("operation tables must be n x n")
    full = (1 << n) - 1
    for row in add:
        for m in row:
            if m < 0 or m > full:
                raise ValueError("addition mask out of range")
            if m == 0 and not partial:
                raise ValueError("empty hypersum in a non-partial structure")
    for row in mul:
        for v in row:
            if not 0 <= v < n:
                raise ValueError("multiplication index out of range")
    neg = []
    for a in range(n):
        inv = [x for x in range(n) if add[a][x] & 1]
        if len(inv) != 1:
            raise ValueError(f"element {a} has {len(inv)} additive inverses")
        neg.append(inv[0])
    return FiniteHyperring(n, add, mul, tuple(neg), partial, name)


# ---------------------------------------------------------------------------
# axiom checkers


def check_canonical_hypergroup(h: FiniteHyperring) -> AxiomReport:
    """Commutativity, identity, unique inverses, associativity, reversibility.

    In partial mode empty hypersums are allowed but the identity and inverse
    axioms are still enforced.
    """
    return _report(_hypergroup_violations(h.add, h.neg, h.partial))


def _hypergroup_violations(add, neg, partial: bool) -> list[Violation]:
    """The laws of check_canonical_hypergroup on the mask table `add`, with
    -b read as neg[b]; witnesses are carrier indices."""
    v: list[Violation] = []
    n = len(add)
    for a in range(n):
        for b in range(a, n):
            if add[a][b] != add[b][a]:
                v.append(("commutativity", (a, b)))
            if not partial and add[a][b] == 0:
                v.append(("nonempty", (a, b)))
    for a in range(n):
        if add[a][0] != 1 << a:
            v.append(("identity", (a,)))
    for a in range(n):
        invs = [x for x in range(n) if add[a][x] & 1]
        if len(invs) != 1:
            v.append(("unique-inverse", (a, tuple(invs))))
    for a, b, c in itertools.product(range(n), repeat=3):
        left = extend_hyperop(add, add[a][b], 1 << c)
        right = extend_hyperop(add, 1 << a, add[b][c])
        if left != right:
            # with empty hypersums allowed, one side of an association can
            # vanish while the other does not; the law is read as equality
            # whenever both sides are defined
            if partial and (left == 0 or right == 0):
                continue
            v.append(("associativity", (a, b, c)))
    for a, b, c in itertools.product(range(n), repeat=3):
        if bool(add[b][c] & (1 << a)) != bool(add[a][neg[b]] & (1 << c)):
            v.append(("reversibility", (a, b, c)))
    return v


def _check_mul_monoid(h: FiniteHyperring, v: list[Violation]) -> None:
    n, mul = h.n, h.mul
    for a in range(n):
        if mul[a][1] != a:
            v.append(("mul-identity", (a,)))
        if mul[a][0] != 0:
            v.append(("zero-absorbing", (a,)))
        for b in range(a, n):
            if mul[a][b] != mul[b][a]:
                v.append(("mul-commutativity", (a, b)))
    for a, b, c in itertools.product(range(n), repeat=3):
        if mul[mul[a][b]][c] != mul[a][mul[b][c]]:
            v.append(("mul-associativity", (a, b, c)))


def check_hyperring(h: FiniteHyperring) -> AxiomReport:
    rep = check_canonical_hypergroup(h)
    v = list(rep.violations)
    _check_mul_monoid(h, v)
    n, add, mul = h.n, h.add, h.mul
    for a, b, c in itertools.product(range(n), repeat=3):
        left = mask_of(mul[a][x] for x in bits(add[b][c]))
        right = add[mul[a][b]][mul[a][c]]
        if left != right:
            if h.partial and (left == 0 or right == 0):
                continue  # law read as equality where both sides are defined
            v.append(("distributivity", (a, b, c)))
    return _report(v)


def check_hyperfield(h: FiniteHyperring) -> AxiomReport:
    rep = check_hyperring(h)
    v = list(rep.violations)
    for a in range(1, h.n):
        if not (h.units_mask >> a) & 1:
            v.append(("nonzero-invertible", (a,)))
        for b in range(1, h.n):
            if h.mul[a][b] == 0:
                v.append(("nonzero-product", (a, b)))
    return _report(v)


def check_doubly_distributive(h: FiniteHyperring) -> AxiomReport:
    """(a+b)(c+d) = ac+ad+bc+bd as sets, exhaustive over quadruples."""
    v: list[Violation] = []
    n, add, mul = h.n, h.add, h.mul
    for a, b, c, d in itertools.product(range(n), repeat=4):
        left = mask_mul(mul, add[a][b], add[c][d])
        right = iterated_hypersum(add, [mul[a][c], mul[a][d], mul[b][c], mul[b][d]])
        if left != right:
            v.append(("doubly-distributive", (a, b, c, d)))
    return _report(v)


def check_hom(
    f, r: FiniteHyperring, s: FiniteHyperring, strict: bool = False
) -> AxiomReport:
    """f(0)=0, f(1)=1, multiplicative, and f(a+b) inside f(a)+f(b)
    (equality when strict)."""
    f = tuple(f)
    v: list[Violation] = []
    if len(f) != r.n or any(not 0 <= x < s.n for x in f):
        return AxiomReport(False, (("not-a-map", ()),))
    if f[0] != 0:
        v.append(("zero", ()))
    if f[1] != 1:
        v.append(("one", ()))
    for a, b in itertools.product(range(r.n), repeat=2):
        if f[r.mul[a][b]] != s.mul[f[a]][f[b]]:
            v.append(("multiplicative", (a, b)))
    for a, b in itertools.product(range(r.n), repeat=2):
        image = mask_of(f[x] for x in bits(r.add[a][b]))
        target = s.add[f[a]][f[b]]
        if strict:
            if image != target:
                v.append(("strict-additive", (a, b)))
        elif image & ~target:
            v.append(("additive", (a, b)))
    return _report(v)


# ---------------------------------------------------------------------------
# finite commutative rings and the quotient construction


@dataclass(frozen=True)
class FiniteRing:
    """Commutative unital ring on 0..n-1 with single-valued tables."""

    n: int
    add: tuple[tuple[int, ...], ...]
    mul: tuple[tuple[int, ...], ...]
    name: str = ""

    @cached_property
    def units_mask(self) -> int:
        return units_mask(self.mul)


def ring_as_hyperring(ring: FiniteRing) -> FiniteHyperring:
    """A ring is a hyperring with singleton hypersums."""
    add = tuple(tuple(1 << v for v in row) for row in ring.add)
    return make_hyperring(add, ring.mul, name=ring.name or "ring")


def quotient(ring: FiniteRing, u_mask: int) -> FiniteHyperring:
    """Quotient hyperring R/U for U a subgroup of the unit group.

    Carrier: U-orbits, [0] at index 0 and [1] at index 1.  Hyperaddition
    [a]+[b] = {[c] : c in aU + bU}, multiplication [a][b] = [ab].
    """
    u = list(bits(u_mask))
    if not u or u_mask & ~ring.units_mask:
        raise ValueError("U must consist of units")
    if not (u_mask >> 1) & 1:
        raise ValueError("U must contain 1")
    for a, b in itertools.product(u, repeat=2):
        if not (u_mask >> ring.mul[a][b]) & 1:
            raise ValueError("U is not multiplicatively closed")
    # orbits, with [0] first and [1] second
    orbit_of: dict[int, int] = {}
    orbits: list[tuple[int, ...]] = []
    for rep in [0, 1] + list(range(2, ring.n)):
        if rep in orbit_of:
            continue
        orb = sorted({ring.mul[rep][x] for x in u})
        for e in orb:
            orbit_of[e] = len(orbits)
        orbits.append(tuple(orb))
    m = len(orbits)
    add = [[0] * m for _ in range(m)]
    mul = [[0] * m for _ in range(m)]
    for i, oi in enumerate(orbits):
        for j, oj in enumerate(orbits):
            sums = {ring.add[a][b] for a in oi for b in oj}
            add[i][j] = mask_of(orbit_of[c] for c in sums)
            mul[i][j] = orbit_of[ring.mul[oi[0]][oj[0]]]
    return make_hyperring(add, mul, name=f"{ring.name or 'ring'}/U")


# ---------------------------------------------------------------------------
# builtin gallery


def krasner() -> FiniteHyperring:
    """{0,1} with 1+1 = {0,1}."""
    add = ((0b01, 0b10), (0b10, 0b11))
    mul = ((0, 0), (0, 1))
    return make_hyperring(add, mul, name="krasner")


def signs() -> FiniteHyperring:
    """{0,1,-1} (index 2 is -1) with 1+(-1) = {-1,0,1}."""
    add = (
        (0b001, 0b010, 0b100),
        (0b010, 0b010, 0b111),
        (0b100, 0b111, 0b100),
    )
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    return make_hyperring(add, mul, name="signs")


_IRREDUCIBLE = {4: (2, (1, 1, 1)), 8: (2, (1, 1, 0, 1)), 9: (3, (1, 0, 1))}


def galois_field(q: int) -> FiniteRing:
    """GF(q) for q prime or one of 4, 8, 9; zero at 0, one at 1."""

    def is_prime(p):
        return p > 1 and all(p % d for d in range(2, int(p**0.5) + 1))

    if is_prime(q):
        order = [0, 1] + list(range(2, q))
        add = [[(a + b) % q for b in order] for a in order]
        mul = [[(a * b) % q for b in order] for a in order]
        # order is already 0,1,2,...; tables are index tables directly
        return FiniteRing(q, tuple(map(tuple, add)), tuple(map(tuple, mul)), f"gf{q}")
    if q not in _IRREDUCIBLE:
        raise ValueError(f"no GF({q}) model available")
    p, poly = _IRREDUCIBLE[q]
    deg = len(poly) - 1
    elems = [tuple(t) for t in itertools.product(range(p), repeat=deg)]
    zero = (0,) * deg
    one = (1,) + (0,) * (deg - 1)
    order = [zero, one] + sorted(e for e in elems if e not in (zero, one))
    idx = {e: i for i, e in enumerate(order)}

    def padd(a, b):
        return tuple((x + y) % p for x, y in zip(a, b))

    def pmul(a, b):
        prod = [0] * (2 * deg - 1)
        for i, x in enumerate(a):
            for j, y in enumerate(b):
                prod[i + j] = (prod[i + j] + x * y) % p
        for k in range(len(prod) - 1, deg - 1, -1):
            c = prod[k]
            if c:
                prod[k] = 0
                for j in range(deg + 1):
                    prod[k - deg + j] = (prod[k - deg + j] - c * poly[j]) % p
        return tuple(prod[:deg])

    add = [[idx[padd(a, b)] for b in order] for a in order]
    mul = [[idx[pmul(a, b)] for b in order] for a in order]
    return FiniteRing(q, tuple(map(tuple, add)), tuple(map(tuple, mul)), f"gf{q}")


def field_hyperfield(q: int) -> FiniteHyperring:
    return ring_as_hyperring(galois_field(q))


def klein_four() -> tuple[tuple[int, ...], ...]:
    """Multiplication table of Z/2 x Z/2, identity at index 0."""
    return ((0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1), (3, 2, 1, 0))


def cyclic_group(k: int) -> tuple[tuple[int, ...], ...]:
    return tuple(tuple((a + b) % k for b in range(k)) for a in range(k))


def _check_group(table) -> int:
    k = len(table)
    if any(len(row) != k for row in table):
        raise ValueError("group table must be square")
    if any(table[0][b] != b for b in range(k)):
        raise ValueError("group identity must be at index 0")
    if any(table[a][b] != table[b][a] for a in range(k) for b in range(k)):
        raise ValueError("group must be abelian")
    return k


def _kh_tables(group, extra: int):
    """Tables on 0, H (identity at 1) and `extra` further nonzero elements:
    a+a = {0,a} and, for distinct nonzero a,b, a+b = (all nonzero) minus
    {a,b}.  Products on H follow the group; products with the extra
    elements are left 0 for the caller to fill in."""
    k = _check_group(group)
    if k < 4:
        raise ValueError("K[H] needs |H| >= 4")
    n = k + 1 + extra
    nonzero = ((1 << n) - 1) & ~1
    add = [[0] * n for _ in range(n)]
    mul = [[0] * n for _ in range(n)]
    for a in range(n):
        add[a][0] = add[0][a] = 1 << a
    for a in range(1, n):
        for b in range(1, n):
            if a == b:
                add[a][b] = 1 | (1 << a)
            else:
                add[a][b] = nonzero & ~(1 << a) & ~(1 << b)
    for a in range(1, k + 1):
        for b in range(1, k + 1):
            mul[a][b] = group[a - 1][b - 1] + 1
    return k, add, mul


def kh(group) -> FiniteHyperring:
    """K[H]: carrier H u {0}, a+a = {0,a}, a+b = H minus {a,b} otherwise."""
    k, add, mul = _kh_tables(group, 0)
    return make_hyperring(add, mul, name=f"KH{k}")


def khef(group) -> FiniteHyperring:
    """K[H] u {e,f}: adjoin idempotents e,f with ef=0 and ah=a for a in {e,f}.

    Carrier: 0, then H (identity at 1), then e, f at the last two indices.
    For distinct b,c in H u {e,f}: b+c = (H u {e,f}) minus {b,c}.
    """
    k, add, mul = _kh_tables(group, 2)
    e, f = k + 1, k + 2
    for x in (e, f):
        mul[x][x] = x
        for h in range(1, k + 1):
            mul[x][h] = mul[h][x] = x
    mul[e][f] = mul[f][e] = 0
    return make_hyperring(add, mul, name=f"KHef{k}")


BUILTIN_HYPERRINGS = {
    "krasner": krasner,
    "signs": signs,
    "gf2": lambda: field_hyperfield(2),
    "gf3": lambda: field_hyperfield(3),
    "gf4": lambda: field_hyperfield(4),
    "gf5": lambda: field_hyperfield(5),
    "gf7": lambda: field_hyperfield(7),
    "kh-klein4": lambda: kh(klein_four()),
    "khef-klein4": lambda: khef(klein_four()),
    "kh-c4": lambda: kh(cyclic_group(4)),
    "kh-c5": lambda: kh(cyclic_group(5)),
}


def builtin(name: str) -> FiniteHyperring:
    try:
        return BUILTIN_HYPERRINGS[name]()
    except KeyError:
        raise ValueError(f"unknown builtin hyperring {name!r}") from None


# ---------------------------------------------------------------------------
# homomorphism enumeration and isomorphism search

ENUM_CARRIER_CAP = 8


def enumerate_homs(
    r: FiniteHyperring,
    s: FiniteHyperring,
    strict: bool = False,
    fixed: dict[int, int] | None = None,
) -> list[tuple[int, ...]]:
    """All maps fixing 0 and 1 that pass check_hom, sorted, by depth-first
    search.

    `fixed` pins additional images (used e.g. to search for homs restricting
    to a given map on units); pinning 0 or 1 elsewhere leaves no map.
    Elements get images in the order 0, 1, the other fixed elements, then
    the free ones ascending; each pair (a, b) is checked as in check_hom at
    the first step where a, b, ab and every element of a+b have images, and
    a failing pair prunes the subtree.  Every pair is checked on the way to
    a complete map, so each one the search reaches passes check_hom.
    """
    if r.n > ENUM_CARRIER_CAP:
        raise CarrierTooLarge(f"carrier {r.n} over enumeration cap")
    fixed = dict(fixed or {})
    fixed.setdefault(0, 0)
    fixed.setdefault(1, 1)
    free = [x for x in range(r.n) if x not in fixed]
    if s.n ** len(free) > 5_000_000:
        raise CarrierTooLarge("hom search space too large")
    if fixed[0] != 0 or fixed[1] != 1:
        return []
    order = [0, 1, *(x for x in fixed if x > 1), *free]
    step = {x: k for k, x in enumerate(order)}
    pairs: list[list[tuple]] = [[] for _ in order]
    for a, b in itertools.product(range(r.n), repeat=2):
        ab, summands = r.mul[a][b], tuple(bits(r.add[a][b]))
        pairs[max(step[x] for x in (a, b, ab, *summands))].append((a, b, ab, summands))
    smul, sadd = s.mul, s.add
    f = [0] * r.n
    out = []

    def pair_holds(a, b, ab, summands) -> bool:
        fa, fb = f[a], f[b]
        if f[ab] != smul[fa][fb]:
            return False
        image = 0
        for x in summands:
            image |= 1 << f[x]
        target = sadd[fa][fb]
        return image == target if strict else not image & ~target

    def extend(k: int) -> None:
        if k == len(order):
            out.append(tuple(f))
            return
        x = order[k]
        for y in (fixed[x],) if x in fixed else range(s.n):
            f[x] = y
            if 0 <= y < s.n and all(pair_holds(*p) for p in pairs[k]):
                extend(k + 1)

    extend(0)
    out.sort()
    return out


def _addition_profile(h: FiniteHyperring, x: int) -> tuple:
    # invariant under isomorphism: multiset of hypersum sizes along x's row
    return tuple(sorted(bin(h.add[x][y]).count("1") for y in range(h.n)))


def iso_hyper(r: FiniteHyperring, s: FiniteHyperring) -> tuple[int, ...] | None:
    """A strict bijective hom with strict inverse, or None.

    Plain backtracking over permutations with unit-group-order and
    addition-profile pruning; carriers are small everywhere this is used.
    """
    if r.n != s.n or len(r.units) != len(s.units):
        return None
    if r.n > ENUM_CARRIER_CAP:
        raise CarrierTooLarge(f"carrier {r.n} over enumeration cap")
    prof_r = [_addition_profile(r, x) for x in range(r.n)]
    prof_s = [_addition_profile(s, x) for x in range(s.n)]
    if sorted(prof_r) != sorted(prof_s):
        return None
    rest = range(2, r.n)
    for perm in itertools.permutations(rest):
        f = (0, 1) + perm
        if any(prof_r[x] != prof_s[f[x]] for x in rest):
            continue
        if check_hom(f, r, s, strict=True).passed:
            inv = [0] * s.n
            for x, y in enumerate(f):
                inv[y] = x
            if check_hom(inv, s, r, strict=True).passed:
                return f
    return None
