"""The powerset functor from hyperrings to fuzzy rings, its quasi-inverse on
field-like fuzzy rings, unit fields, roundtrip checks, and the search for
strong extensions of weak morphisms.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .core import (
    CarrierTooLarge,
    bits,
    family_tables,
    mask_of,
    powerset_cap,
    subset_order,
)
from .hyper import (
    AxiomReport,
    FiniteHyperring,
    Violation,
    _report,
    make_hyperring,
)
from .fuzzy import (
    MAX_FUZZY_CARRIER,
    FiniteFuzzyRing,
    MorphismTable,
    check_strong_morphism,
    check_weak_morphism,
    make_fuzzy_ring,
)


@dataclass(frozen=True)
class PowersetFuzzyRing:
    """F(R): the fuzzy ring on the nonempty subsets of a hyperring R.

    The carrier indexes subset masks of R (empty mask included when R is
    partial); `embed` maps base elements to their singleton indices.
    """

    base: FiniteHyperring
    fuzzy: FiniteFuzzyRing
    masks: tuple[int, ...]
    index: dict[int, int] = field(hash=False)
    embed: tuple[int, ...]


def F_obj(r: FiniteHyperring) -> PowersetFuzzyRing:
    """Subsets of R with union-extended addition and elementwise product;
    nulls are the subsets containing 0, epsilon is the singleton {-1}."""
    if r.n > powerset_cap():
        raise CarrierTooLarge(
            f"carrier {r.n} over powerset cap {powerset_cap()}"
            " (override with HYPERALG_MAX_POWERSET)"
        )
    size = (1 << r.n) - (0 if r.partial else 1)
    if size > MAX_FUZZY_CARRIER:
        raise CarrierTooLarge(
            f"F of a {r.n}-element carrier has {size} elements,"
            f" over {MAX_FUZZY_CARRIER}"
        )
    masks = subset_order(r.n, include_empty=r.partial)
    index = {m: i for i, m in enumerate(masks)}
    add, mul = family_tables(r.add, r.mul, masks)
    k0 = mask_of(i for i, mk in enumerate(masks) if mk & 1)
    eps = index[1 << r.neg[1]]
    fuzzy = make_fuzzy_ring(add, mul, k0, epsilon=eps, name=f"F({r.name or '?'})")
    embed = tuple(index[1 << x] for x in range(r.n))
    return PowersetFuzzyRing(r, fuzzy, tuple(masks), index, embed)


def F_mor(f, fr, fs) -> MorphismTable:
    """Elementwise image map F(f): A -> f(A), verified strong; the source
    and target may be given as hyperrings or as their powerset rings."""
    if isinstance(fr, FiniteHyperring):
        base, fr = fr, F_obj(fr)
        if fs is base:  # an endomorphism: F of the ring is built once
            fs = fr
    if isinstance(fs, FiniteHyperring):
        fs = F_obj(fs)
    f = tuple(f)
    g = []
    for mk in fr.masks:
        g.append(fs.index[mask_of(f[x] for x in bits(mk))])
    cert = check_strong_morphism(fr.fuzzy, fs.fuzzy, g)
    return MorphismTable("strong", tuple(enumerate(g)), cert)


def is_field_like(k: FiniteFuzzyRing) -> AxiomReport:
    """Every pair of units must admit c in units u {0} with a+b+c null."""
    v: list[Violation] = []
    completions = list(k.units) + [0]
    for a, b in itertools.combinations_with_replacement(k.units, 2):
        ab = k.add[a][b]
        if not any(k.is_null(k.add[ab][c]) for c in completions):
            v.append(("field-like", (a, b)))
    return _report(v)


def g_carrier(k: FiniteFuzzyRing | FiniteHyperring) -> tuple[int, ...]:
    """Carrier of G(K) (or of a unit field) as indices of K, in G's element
    order: 0, 1, then the other units ascending."""
    return tuple([0, 1] + sorted(u for u in k.units if u != 1))


def _on_units(k, contains, partial: bool, name: str) -> FiniteHyperring:
    """The hyperring on g_carrier(k) with k's products and c in a + b iff
    contains(a, b, c), for carrier elements a, b, c."""
    carrier = g_carrier(k)
    idx = {x: i for i, x in enumerate(carrier)}
    add = [
        [mask_of(i for i, c in enumerate(carrier) if contains(a, b, c)) for b in carrier]
        for a in carrier
    ]
    mul = [[idx[k.mul[a][b]] for b in carrier] for a in carrier]
    return make_hyperring(add, mul, partial=partial, name=name)


def G_obj(k: FiniteFuzzyRing) -> FiniteHyperring:
    """Hyperfield on units u {0} with a+b = {c : a+b+eps*c null}.

    When K is not field-like some hypersums are empty and the result is a
    partial hyperfield (the partial flag is set).
    """
    eps = k.mul[k.epsilon]
    return _on_units(
        k,
        lambda a, b, c: k.is_null(k.add[k.add[a][b]][eps[c]]),
        not is_field_like(k).passed,
        f"G({k.name or '?'})",
    )


def G_mor(
    f: dict[int, int], k: FiniteFuzzyRing, l: FiniteFuzzyRing
) -> tuple[int, ...]:
    """Extend a weak morphism by 0 -> 0 to a map G(K) -> G(L)."""
    src, dst = g_carrier(k), g_carrier(l)
    dst_idx = {x: i for i, x in enumerate(dst)}
    return tuple(dst_idx[f[x]] if x != 0 else 0 for x in src)


def unit_field(r: FiniteHyperring) -> FiniteHyperring:
    """The partial hyperfield R^x u {0}: sums intersected with the carrier."""
    return _on_units(
        r, lambda a, b, c: (r.add[a][b] >> c) & 1, True, f"unitfield({r.name or '?'})"
    )


def unit_field_z() -> FiniteHyperring:
    """The unit field of the integers: {0, 1, -1} with 1+1 and (-1)+(-1)
    empty and 1+(-1) = {0}."""
    add = (
        (0b001, 0b010, 0b100),
        (0b010, 0b000, 0b001),
        (0b100, 0b001, 0b000),
    )
    mul = ((0, 0, 0), (0, 1, 2), (0, 2, 1))
    return make_hyperring(add, mul, partial=True, name="unitfield(Z)")


# ---------------------------------------------------------------------------
# roundtrips


@dataclass(frozen=True)
class RoundtripReport:
    passed: bool
    detail: str = ""

    def __bool__(self) -> bool:
        return self.passed


def check_roundtrips(k: FiniteHyperring) -> RoundtripReport:
    """G(F(k)) must equal k table-for-table under the singleton relabeling,
    which makes the identity a strict hom both ways."""
    fk = F_obj(k)
    gfk = G_obj(fk.fuzzy)
    if gfk.n != k.n:
        return RoundtripReport(False, f"carrier size {gfk.n} != {k.n}")
    # G's carrier order is [0, 1, other units sorted]; for a hyperfield the
    # singleton indices sort like the base elements, so the identity map is
    # the canonical relabeling.
    if gfk.add != k.add or gfk.mul != k.mul:
        return RoundtripReport(False, "tables differ")
    return RoundtripReport(True)


def check_roundtrips_fuzzy(k: FiniteFuzzyRing) -> RoundtripReport:
    """K^x = (F(G(K)))^x via singletons must be a weak iso both ways."""
    gk = G_obj(k)
    fgk = F_obj(gk)
    carrier = g_carrier(k)
    alpha = {}
    for u in k.units:
        gi = carrier.index(u)
        alpha[u] = fgk.embed[gi]
    inv = {y: x for x, y in alpha.items()}
    fwd = check_weak_morphism(k, fgk.fuzzy, alpha)
    back = check_weak_morphism(fgk.fuzzy, k, inv)
    if not (fwd.accepted and back.accepted):
        return RoundtripReport(False, "unit map not a weak iso")
    return RoundtripReport(True)


# ---------------------------------------------------------------------------
# strong extension search


@dataclass(frozen=True)
class ExtensionSearchConfig:
    budget: int = 200_000  # DFS nodes
    full_check_limit: int = 200  # complete candidates run through the closure


@dataclass(frozen=True)
class ExtensionSearchResult:
    verdict: str  # "extends" | "refuted" | "unknown"
    witness: tuple[int, ...] | None = None
    nodes: int = 0
    full_checks: int = 0


def _unit_action(k: FiniteFuzzyRing, l: FiniteFuzzyRing, unit_map):
    """kact[x] = (u*x for u in K's units), lact[t] = (f(u)*t for the same
    u), f the unit map."""
    kact = list(zip(*(k.mul[u] for u in k.units)))
    lact = list(zip(*(l.mul[unit_map[u]] for u in k.units)))
    return kact, lact


def _unit_orbits(kact, g) -> list[list[int]]:
    """The orbits of the elements x with g[x] unset, each x, ux, ... led by
    its first element x, which 1x need not be."""
    seen = set()
    orbits = []
    for x, ux in enumerate(kact):
        if g[x] is None and x not in seen:
            orbit = list(dict.fromkeys((x, *ux)))
            seen.update(orbit)
            orbits.append(orbit)
    return orbits


class _OrbitClosure:
    """The pairs (s, t) that sums of generators (x, y) reach in K x L from
    (0, 0), as in `fuzzy._null_closure`, grown a generator at a time and
    undone a level at a time, with one pair kept per orbit of the units.

    A unit u of K acts by sigma_u(s, t) = (us, f(u)t), f the unit map.  When
    the laws of `FiniteFuzzyRing._units_act` hold on K and on L, sigma_u is
    an additive bijection that fixes (0, 0) and keeps (null, non-null)
    pairs.  A generator then comes with its orbit, and the pairs reached
    are a union of orbits: `seen` marks every pair of a reached orbit, and
    only the first pair reached in it is kept and added to.  That suffices:
    if p + s is reached for every kept p and every generator s, then so is
    sigma_u(p) + s = sigma_u(p + sigma_u^-1(s)).  Otherwise the group is {1},
    every orbit is one pair, and this is the plain closure.

    A closure over a subset of the generators of a complete candidate
    reaches a subset of its pairs, so a pair (null in K, non-null in L)
    found here refutes every completion.
    """

    def __init__(self, k: FiniteFuzzyRing, l: FiniteFuzzyRing, unit_map, kact, lact):
        self.kadd, self.ladd, self.width = k.add, l.add, l.n
        # the orbit of (s, t) is zip(self.kact[s], self.lact[t]), the unit
        # action of `_unit_action` or none
        if (
            len(k.units) > 1
            and set(unit_map.values()) <= set(l.units)
            and k._units_act
            and l._units_act
        ):
            self.kact, self.lact = kact, lact
        else:
            self.kact = [(s,) for s in range(k.n)]
            self.lact = [(t,) for t in range(l.n)]
        self.knull = [k.is_null(s) for s in range(k.n)]
        self.lnull = [l.is_null(t) for t in range(l.n)]
        self.seen = bytearray(k.n * l.n)  # pair (s, t) at s * width + t
        self.seen[0] = 1
        self.pairs = [(0, 0)]  # one per orbit, in insertion order
        self.gens: list[tuple[int, int]] = []
        self.levels: list[tuple[int, int]] = []

    def level(self, gens) -> bool:
        """Open a level and add `gens`; False at the first violating pair,
        with the level still open."""
        self.levels.append((len(self.pairs), len(self.gens)))
        return all(self._add(x, y) for x, y in gens)

    def undo(self) -> None:
        n_pairs, n_gens = self.levels.pop()
        kact, lact, seen, width = self.kact, self.lact, self.seen, self.width
        for s, t in self.pairs[n_pairs:]:
            for s2, t2 in zip(kact[s], lact[t]):
                seen[s2 * width + t2] = 0
        del self.pairs[n_pairs:]
        del self.gens[n_gens:]

    def _add(self, x: int, y: int) -> bool:
        kadd, ladd, knull, lnull = self.kadd, self.ladd, self.knull, self.lnull
        kact, lact = self.kact, self.lact
        seen, pairs, gens, width = self.seen, self.pairs, self.gens, self.width
        if seen[x * width + y]:
            return True  # sums of generators form a monoid: nothing new
        orbit = list(dict.fromkeys(zip(kact[x], lact[y])))
        gens += orbit
        # the pairs so far are closed under the other generators and get
        # only the orbit; a new pair gets every generator
        old = len(pairs)
        i = 0
        while i < len(pairs):
            s, t = pairs[i]
            krow, lrow = kadd[s], ladd[t]
            for gx, gy in gens if i >= old else orbit:
                s2, t2 = krow[gx], lrow[gy]
                if not seen[s2 * width + t2]:
                    for s3, t3 in zip(kact[s2], lact[t2]):
                        seen[s3 * width + t3] = 1
                    pairs.append((s2, t2))
                    if knull[s2] and not lnull[t2]:
                        return False
            i += 1
        return True

    def holds_closure_of(self, k: FiniteFuzzyRing, l: FiniteFuzzyRing, g) -> bool:
        """Are the pairs here closed under every product (ab, g(a)g(b))?
        These include the generators of `check_strong_morphism`, so the
        pairs then hold its closure, which has no (null, non-null) pair: it
        accepts g.  They are closed under the products added here; the
        others are tested on every kept pair.  When g meets condition (1),
        sigma_u maps (ab, g(a)g(b)) to ((ua)b, g(ua)g(b)), so the products
        are a union of orbits, as are those added, and that tests every
        pair."""
        w = self.width
        ga = np.array(g)
        codes = np.array(k.mul, dtype=np.int32)  # codes < |K| |L| <= 2^24
        codes *= w
        codes += np.array(l.mul, dtype=np.int32)[np.ix_(ga, ga)]
        todo = np.zeros(len(self.seen), dtype=bool)
        todo[codes] = True
        added = np.array(self.gens).T
        todo[added[0] * w + added[1]] = False
        xs, ys = np.divmod(np.flatnonzero(todo), w)
        rest = list(zip(xs.tolist(), ys.tolist()))
        kadd, ladd, seen = self.kadd, self.ladd, self.seen
        return all(
            seen[krow[x] * w + lrow[y]]
            for krow, lrow in ((kadd[s], ladd[t]) for s, t in self.pairs)
            for x, y in rest
        )


def strong_extension_search(
    k: FiniteFuzzyRing,
    l: FiniteFuzzyRing,
    unit_map: dict[int, int],
    cfg: ExtensionSearchConfig = ExtensionSearchConfig(),
) -> ExtensionSearchResult:
    """Does an accepted weak morphism extend to a strong morphism K -> L?

    K and L must be fuzzy rings: on tables that fail FR0-FR7 the search
    still ends without an error, but "refuted" may be wrong.

    The multiplicativity condition forces g on unit multiples, so candidates
    are enumerated per unit-orbit, subject to stabilizer consistency, all
    read from one table of the unit action; each orbit is led by its first
    element, so they cover the carrier even where 1x != x.  The
    pair closure of the generators (a*b, g(a)*g(b)) over the assigned
    elements prunes at its first (null, non-null) pair; it keeps one pair
    per orbit of the units when they act (`_OrbitClosure`).  Each orbit
    adds only rep * b for every assigned b: the products of the other
    members are unit multiples of these, and a subset of the generators
    still prunes soundly.  A complete candidate is accepted when it meets
    condition (1) and the closure is closed under every generator of
    `check_strong_morphism`; when the closure is not, that check decides.
    Exhausting the space refutes; exhausting the budget is reported as
    unknown.
    """
    cert = check_weak_morphism(k, l, unit_map)
    if not cert.accepted:
        # strong morphisms restrict to weak morphisms, so a unit map that is
        # not weak cannot extend; the violating pair is the witness
        return ExtensionSearchResult("refuted", cert.violating, 0, 0)
    g: list[int | None] = [None] * k.n
    g[0] = 0
    for a, fa in unit_map.items():
        g[a] = fa
    kact, lact = _unit_action(k, l, unit_map)
    orbits = _unit_orbits(kact, g)

    # candidate values per orbit representative: stabilizer-consistent and
    # null-preserving (a null element must map to a null element, by the
    # strong condition with a single summand)
    def candidates(rep: int) -> list[int]:
        stab = [i for i, x in enumerate(kact[rep]) if x == rep]
        out = []
        for val in range(l.n):
            if k.is_null(rep) and not l.is_null(val):
                continue
            if any(lact[val][i] != val for i in stab):
                continue
            out.append(val)
        return out

    cand = {o[0]: candidates(o[0]) for o in orbits}
    orbits.sort(key=lambda o: len(cand[o[0]]))

    def assign_orbit(rep: int, val: int) -> list[int] | None:
        """Set g on the orbit of rep; its elements, or None on a conflict."""
        new = []
        for x, y in ((rep, val), *zip(kact[rep], lact[val])):
            if g[x] is None:
                g[x] = y
                new.append(x)
            elif g[x] != y:
                for z in new:
                    g[z] = None
                return None
        return new

    def accepts(full: tuple[int, ...]) -> bool:
        """Condition (1) directly, then the sum condition from the closure
        when it holds the strong one, else by `check_strong_morphism`."""
        for a in k.units:
            lrow = l.mul[full[a]]
            if any(full[x] != lrow[full[b]] for b, x in enumerate(k.mul[a])):
                return False
        return closure.holds_closure_of(k, l, full) or check_strong_morphism(
            k, l, full
        ).accepted

    closure = _OrbitClosure(k, l, unit_map, kact, lact)
    # the unit pairs (u, g(u)) are the weak closure's generators, which
    # were just accepted, so this base level holds
    closure.level((u, unit_map[u]) for u in k.units)
    assigned = list(k.units)  # nonzero elements with g set; 0 adds (0, 0)
    state = {"nodes": 0, "checks": 0, "exhausted": False}

    def dfs(i: int) -> tuple[int, ...] | None:
        if state["nodes"] >= cfg.budget or state["checks"] >= cfg.full_check_limit:
            state["exhausted"] = True
            return None
        if i == len(orbits):
            state["checks"] += 1
            full = tuple(g)  # all slots assigned here
            return full if accepts(full) else None
        rep = orbits[i][0]
        for val in cand[rep]:
            state["nodes"] += 1
            if state["nodes"] >= cfg.budget:
                state["exhausted"] = True
                return None
            new = assign_orbit(rep, val)
            if new is None:
                continue
            assigned.extend(new)
            krow, lrow = k.mul[rep], l.mul[val]
            if closure.level((krow[b], lrow[g[b]]) for b in assigned):
                found = dfs(i + 1)
                if found is not None:
                    return found
            closure.undo()
            del assigned[len(assigned) - len(new) :]
            for x in new:
                g[x] = None
            if state["exhausted"]:
                return None
        return None

    witness = dfs(0)
    if witness is not None:
        return ExtensionSearchResult("extends", witness, state["nodes"], state["checks"])
    if state["exhausted"]:
        return ExtensionSearchResult("unknown", None, state["nodes"], state["checks"])
    return ExtensionSearchResult("refuted", None, state["nodes"], state["checks"])
