"""The ordered-group hyperfield H over (Z, +), its companion fuzzy ring K
on singletons and down-intervals, window-bounded verification of their
agreement, and Zariski systems.

All infinite-carrier claims are checked on symmetric windows [-B, B]; every
report speaks only about the window it was computed on.  H keeps the window
{Bottom} u [-B, B] under hyperaddition, so its hypergroup laws and sum
closure are read from a finite mask table by the kernels of the finite
hyperrings, with witnesses rendered as window elements.  The fuzzy-ring laws
FR0-FR7 and double distributivity are checked on tables of K over uppers in
[-3B, 3B], by the kernel of `fuzzy.check_fuzzy_axioms`, with every quantifier
over [-B, B]; each report gives the first witness per axiom, rendered as
subsets, and is never truncated.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

import numpy as np

from .core import bits, extend_hyperop, mask_of
from .ddhyper import _sum_closure
from .fuzzy import FiniteFuzzyRing, _fuzzy_violations
from .hyper import AxiomReport, Violation, _hypergroup_violations, _report

# OGElem: an integer, or None for Bottom (the adjoined absorbing zero,
# smaller than every group element).
OGElem = int | None
BOTTOM: OGElem = None


def og_le(x: OGElem, y: OGElem) -> bool:
    if x is None:
        return True
    return y is not None and x <= y


def og_max(x: OGElem, y: OGElem) -> OGElem:
    return y if og_le(x, y) else x


def og_mul(x: OGElem, y: OGElem) -> OGElem:
    if x is None or y is None:
        return BOTTOM
    return x + y


@dataclass(frozen=True)
class OGSubset:
    """A singleton {upper} or the down-interval [Bottom, upper].

    DownInterval(Bottom) is normalised to Singleton(Bottom): both denote
    the one-element set {Bottom}.
    """

    tag: str  # "sing" | "down"
    upper: OGElem

    def __post_init__(self):
        if self.tag not in ("sing", "down"):
            raise ValueError(f"bad tag {self.tag!r}")

    def __str__(self) -> str:
        u = "_|_" if self.upper is None else str(self.upper)
        return "{%s}" % u if self.tag == "sing" else "[_|_, %s]" % u


def singleton(v: OGElem) -> OGSubset:
    return OGSubset("sing", v)


def down(v: OGElem) -> OGSubset:
    return OGSubset("sing", v) if v is None else OGSubset("down", v)


KG_ZERO = singleton(BOTTOM)
KG_ONE = singleton(0)
KG_EPSILON = singleton(0)  # -1 = 1 in H, so epsilon is the identity singleton


# ---------------------------------------------------------------------------
# the hyperfield H


def hgamma_add(x: OGElem, y: OGElem) -> OGSubset:
    """max of the two if distinct; the down-interval [Bottom, x] if equal."""
    if x == y:
        return down(x)
    return singleton(og_max(x, y))


def hgamma_mul(x: OGElem, y: OGElem) -> OGElem:
    return og_mul(x, y)


def hgamma_neg(x: OGElem) -> OGElem:
    """Every element is its own additive inverse (Bottom lies in x + x)."""
    return x


# ---------------------------------------------------------------------------
# the fuzzy ring K


def kgamma_add(a: OGSubset, b: OGSubset) -> OGSubset:
    if a.tag == "sing" and b.tag == "sing":
        # equal singletons sum to the down-interval, matching x + x in H
        if a.upper == b.upper:
            return down(a.upper)
        return singleton(og_max(a.upper, b.upper))
    if a.tag == "sing":  # b is a down-interval
        return b if og_le(a.upper, b.upper) else a
    return a if og_le(b.upper, a.upper) else b


def kgamma_mul(a: OGSubset, b: OGSubset) -> OGSubset:
    u = og_mul(a.upper, b.upper)
    if a.tag == "sing" and b.tag == "sing":
        return singleton(u)
    return down(u)


def kgamma_is_null(a: OGSubset) -> bool:
    """Null elements are exactly the subsets containing Bottom."""
    return a.tag == "down" or a.upper is None


def kgamma_is_unit(a: OGSubset) -> bool:
    return a.tag == "sing" and a.upper is not None


def og_subset_contains(a: OGSubset, b: OGSubset) -> bool:
    """Set containment a <= b of the denoted subsets of Z u {Bottom}."""
    if a.tag == "sing":
        if b.tag == "sing":
            return a.upper == b.upper
        return og_le(a.upper, b.upper)
    return b.tag == "down" and og_le(a.upper, b.upper)


# ---------------------------------------------------------------------------
# window realizations: OGSubset values as concrete frozensets over the
# finite carrier {Bottom} u [-W, W]; Bottom is represented by None


def window_elements(b: int) -> list[OGElem]:
    return [BOTTOM, *range(-b, b + 1)]


def window_subsets(b: int) -> list[OGSubset]:
    out = [KG_ZERO]
    out += [singleton(v) for v in range(-b, b + 1)]
    out += [down(v) for v in range(-b, b + 1)]
    return out


def kgamma_embed(a: OGSubset, window: int) -> frozenset:
    """Realize a symbolic value as the window-restricted concrete subset;
    this is the inclusion of K into the powerset fuzzy ring of H."""
    if a.tag == "sing":
        return frozenset([a.upper])
    return frozenset([BOTTOM, *range(-window, (a.upper or 0) + 1)])


def _set_mul(x: frozenset, y: frozenset) -> frozenset:
    return frozenset(og_mul(a, b) for a, b in itertools.product(x, y))


# ---------------------------------------------------------------------------
# window-bounded verification


def _window_table(b: int):
    """The window elements, the window mask of a value of K, and H's
    hyperaddition on the window (which it keeps) as a mask table."""
    elems = window_elements(b)
    index = {x: i for i, x in enumerate(elems)}

    def mask(a: OGSubset) -> int:
        return mask_of(index[e] for e in kgamma_embed(a, b))

    return elems, mask, [[mask(hgamma_add(x, y)) for y in elems] for x in elems]


def check_window_hypergroup(b: int = 4) -> AxiomReport:
    """The laws of `hyper.check_canonical_hypergroup` for H on the window,
    read from its mask table; witnesses are window elements."""
    elems, _, add = _window_table(b)

    def element(w):
        return tuple(map(element, w)) if isinstance(w, tuple) else elems[w]

    neg = [elems.index(hgamma_neg(x)) for x in elems]
    v = _hypergroup_violations(add, neg, False)
    return _report([(label, element(w)) for label, w in v])


def _kgamma_ring(b: int) -> tuple[list[OGSubset], dict, FiniteFuzzyRing]:
    """K tabulated on 0, 1, the rest of the window subsets, then every
    singleton and down-interval with upper in [-3B, 3B], where the products of
    three window subsets lie.  A value outside the carrier is the index n, so
    a table read through it raises IndexError."""
    r = 3 * max(b, 0)  # an empty window still needs 1 + 1 = [_|_, 0]
    wide = [f(v) for f in (singleton, down) for v in range(-r, r + 1)]
    subs = list(dict.fromkeys([KG_ZERO, KG_ONE, *window_subsets(b), *wide]))
    index = {s: i for i, s in enumerate(subs)}
    n = len(subs)

    def table(op):
        return tuple(tuple(index.get(op(x, y), n) for y in subs) for x in subs)

    k0 = mask_of(i for i, s in enumerate(subs) if kgamma_is_null(s))
    add, mul = table(kgamma_add), table(kgamma_mul)
    return subs, index, FiniteFuzzyRing(n, add, mul, index[KG_EPSILON], k0)


def check_window_doubly_distributive(b: int = 4) -> AxiomReport:
    """(x+y)(z+w) = xz + xw + yz + yw for all window quadruples, read from
    the tables of K (the singleton products folded into 0 in this order);
    the first failing quadruple is the witness."""
    _, index, k = _kgamma_ring(b)
    add, mul = np.array(k.add), np.array(k.mul)
    elems = window_elements(b)
    sing = np.array([index[singleton(x)] for x in elems])
    hs = np.array([[index[hgamma_add(x, y)] for y in elems] for x in elems])
    prod = mul[np.ix_(sing, sing)]  # prod[x, z] = {xz}
    for x in range(len(elems)):  # arrays indexed [y, z, w]
        lhs = mul[hs[x][:, None, None], hs]
        rhs = add[add[add[0, prod[x]][:, None], prod[x]], prod[:, :, None]]
        rhs = add[rhs, prod[:, None, :]]
        bad = np.argwhere(lhs != rhs)
        if bad.size:
            witness = tuple(elems[i] for i in (x, *bad[0]))
            return _report([("double-distributivity", witness)])
    return _report([])


def check_window_closure(b: int = 4) -> AxiomReport:
    """Every iterated hypersum of window elements, closed as in
    `ddhyper.closure_S` on the window's mask table, is a singleton or a
    down-interval (restricted to the window).  A witness lists its elements
    ascending, Bottom as -2B-1."""
    elems, mask, add = _window_table(b)
    representable = {mask(a) for a in window_subsets(b)}

    def key(m):
        return [-2 * b - 1 if i == 0 else elems[i] for i in bits(m)]

    bad = sorted(key(m) for m in _sum_closure(add) if m not in representable)
    return _report([("closure-shape", tuple(w)) for w in bad])


def check_fbar_hgamma_iso_kgamma(b: int) -> AxiomReport:
    """The window closure holds, the symbolic K operations agree with the
    set-level operations of the powerset construction on the window (sums
    as masks through `core.extend_hyperop` on H's mask table), nulls
    correspond, and epsilon is the identity singleton."""
    if b < 1:
        raise ValueError("window must be >= 1")
    v = list(check_window_closure(b).violations)
    _, mask, add = _window_table(b)
    subs = window_subsets(b)
    for a, c in itertools.product(subs, repeat=2):
        if mask(kgamma_add(a, c)) != extend_hyperop(add, mask(a), mask(c)):
            v.append(("add-agrees", (str(a), str(c))))
        p = kgamma_mul(a, c)
        # products can leave the window; realize the factors at width 3B so
        # that every product landing in [-2B, 2B] is produced, then compare
        # inside [-2B, 2B]
        w2 = 2 * b

        def clip(s):
            return frozenset(e for e in s if e is None or -w2 <= e <= w2)

        if clip(kgamma_embed(p, 3 * b)) != clip(
            _set_mul(kgamma_embed(a, 3 * b), kgamma_embed(c, 3 * b))
        ):
            v.append(("mul-agrees", (str(a), str(c))))
    for a in subs:
        if kgamma_is_null(a) != (BOTTOM in kgamma_embed(a, b)):
            v.append(("nulls-correspond", (str(a),)))
    if kgamma_add(KG_ONE, KG_EPSILON) != down(0) or not kgamma_is_null(down(0)):
        v.append(("epsilon", ()))
    return _report(v)


def check_window_fuzzy_axioms(b: int = 4) -> AxiomReport:
    """Fuzzy-ring laws FR0-FR7 for K with every quantifier over the window
    subsets (uppers in [-B, B]), checked on the tables of `_kgamma_ring`.
    The first witness per axiom, every carrier index rendered as its subset."""
    subs, _, k = _kgamma_ring(b)
    v = []
    for label, witness in _fuzzy_violations(k, np.arange(len(window_subsets(b)))):
        head, _, unit = label.rpartition("-")
        if head == "FR2-unit":
            label = f"FR2-unit-{subs[int(unit)]}"
        v.append((label, tuple(str(subs[i]) for i in witness)))
    return _report(v)


# ---------------------------------------------------------------------------
# Zariski systems


@dataclass(frozen=True)
class ZariskiSystem:
    """Points M with a multiplicatively closed family of functions M -> K
    such that every point has a function with non-null value there.

    Functions are stored as value tuples aligned with `points`; coefficient
    "kgamma" means symbolic OGSubset values, "window" means concrete
    frozenset values inside the powerset fuzzy ring of a window of H.
    """

    points: tuple
    functions: tuple[tuple, ...]
    coefficient: str = "kgamma"
    window: int = 0

    def is_null_value(self, val) -> bool:
        if self.coefficient == "kgamma":
            return kgamma_is_null(val)
        return BOTTOM in val

    def mul_values(self, x, y):
        if self.coefficient == "kgamma":
            return kgamma_mul(x, y)
        return _window_normalize(_set_mul(x, y), self.window)


def _window_normalize(s: frozenset, window: int) -> frozenset:
    """Re-truncate a concrete subset into the window realization family:
    a set containing Bottom denotes a down-interval, so realize the one up
    to its maximum element."""
    tops = [e for e in s if e is not None]
    if BOTTOM not in s or not tops:
        return s
    return kgamma_embed(down(max(tops)), window)


def generate_zariski(points, generators, cap: int = 1000) -> ZariskiSystem:
    """Close a generating list of symbolic functions under pointwise
    products; errors if the closure exceeds the cap (products of nonzero
    singletons can grow without bound)."""
    fns = list(dict.fromkeys(tuple(f) for f in generators))
    frontier = list(fns)
    while frontier:
        f = frontier.pop()
        for g in list(fns):
            prod = tuple(kgamma_mul(x, y) for x, y in zip(f, g))
            if prod not in fns:
                if len(fns) >= cap:
                    raise ValueError("multiplicative closure exceeds cap")
                fns.append(prod)
                frontier.append(prod)
    return ZariskiSystem(tuple(points), tuple(fns), "kgamma")


def check_zariski(s: ZariskiSystem) -> AxiomReport:
    v: list[Violation] = []
    fns = set(s.functions)
    for f, g in itertools.combinations_with_replacement(s.functions, 2):
        prod = tuple(s.mul_values(x, y) for x, y in zip(f, g))
        if prod not in fns:
            v.append(("Z1-mul-closed", (str(f), str(g))))
    for i, p in enumerate(s.points):
        if not any(not s.is_null_value(f[i]) for f in s.functions):
            v.append(("Z2-nonnull-function", (p,)))
    return _report(v)


def pushforward_zariski(s: ZariskiSystem, window: int) -> ZariskiSystem:
    """Compose every function with the inclusion of K into the window
    powerset fuzzy ring of H."""
    if s.coefficient != "kgamma":
        raise ValueError("pushforward expects symbolic coefficients")
    fns = tuple(
        tuple(kgamma_embed(val, window) for val in f) for f in s.functions
    )
    return ZariskiSystem(s.points, fns, "window", window)


def zero_set(s: ZariskiSystem, t) -> frozenset:
    """Points where every function of t takes a null value."""
    t = list(t)
    for f in t:
        if f not in s.functions:
            raise ValueError("zero_set: function not in the system")
    return frozenset(
        p
        for i, p in enumerate(s.points)
        if all(s.is_null_value(f[i]) for f in t)
    )


# ---------------------------------------------------------------------------
# the demifield side: H as a partial demifield, and the inclusion example


def check_demifield_morphism_to_hz(p, values: tuple[OGSubset, ...]) -> AxiomReport:
    """Is `values` (one symbolic K-value per semiring element of the partial
    demifield p) a morphism into the ordered-group demifield?

    Checks: semiring homomorphism for + and x, and the hyperfield
    restriction is a (containment) homomorphism into H.
    """
    v: list[Violation] = []
    m = len(p.family)
    for i, j in itertools.combinations_with_replacement(range(m), 2):
        if values[p.add[i][j]] != kgamma_add(values[i], values[j]):
            v.append(("semiring-add", (i, j)))
        if values[p.mul[i][j]] != kgamma_mul(values[i], values[j]):
            v.append(("semiring-mul", (i, j)))
    f = p.hyperfield
    emb = p.embedding
    if values[emb[0]] != KG_ZERO:
        v.append(("zero", ()))
    if values[emb[1]] != KG_ONE:
        v.append(("one", ()))
    for a, c in itertools.product(range(f.n), repeat=2):
        target = kgamma_add(values[emb[a]], values[emb[c]])
        for x in bits(f.add[a][c]):
            if not og_subset_contains(values[emb[x]], target):
                v.append(("hyperfield-restriction", (a, c, x)))
    return _report(v)


def strict_homs_krasner_to_hz(window: int = 4) -> tuple[list, AxiomReport]:
    """Search for strict homomorphisms from the two-element hyperfield with
    1+1={0,1} into H, with the image of 1 ranging over the window.

    Strictness requires the image of 1+1 to equal, as a set, the hypersum of
    the images; the former has two elements while the latter is an infinite
    down-interval, so the search provably returns no candidates."""
    found = []
    witnesses: list[Violation] = []
    for g1 in range(-window, window + 1):
        if g1 != 0:
            continue  # g(1) must be the multiplicative identity
        image = frozenset([BOTTOM, g1])  # g({0,1}), elementwise
        target = kgamma_embed(hgamma_add(g1, g1), window)
        if image == target:
            found.append({0: BOTTOM, 1: g1})
        else:
            witnesses.append(("strictness", (g1,)))
    return found, _report(witnesses)
