"""Grassmann-Pluecker functions with coefficients in a hyperfield or a fuzzy
ring: the sign rule, one exchange-relation checker serving both coefficient
kinds (each supplies its own "is this sum null?" predicate), brute-force
enumeration up to unit scaling, pushforward along morphisms, the biconditional
between the two definitions, and an independent basis-exchange oracle.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .fuzzy import FiniteFuzzyRing
from .functors import PowersetFuzzyRing, g_carrier
from .hyper import AxiomReport, FiniteHyperring, Violation, _report


def _perm_parity(tup) -> int:
    """0 for even, 1 for odd; assumes no repeats."""
    inv = sum(
        1
        for i, j in itertools.combinations(range(len(tup)), 2)
        if tup[i] > tup[j]
    )
    return inv & 1


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
        slots = _ncr(self.ground_size, self.rank)
        if len(self.values) != slots:
            raise ValueError(f"expected {slots} values, got {len(self.values)}")
        if all(v == 0 for v in self.values):
            raise ValueError("identically zero")
        c = self.coefficient
        for v in self.values:
            if v != 0 and not (c.units_mask >> v) & 1:
                raise ValueError(f"value {v} is neither zero nor a unit")

    @property
    def _slot_index(self) -> dict[tuple, int]:
        return {
            c: i
            for i, c in enumerate(
                itertools.combinations(range(self.ground_size), self.rank)
            )
        }

    def value(self, tup) -> int:
        tup = tuple(tup)
        if len(set(tup)) != len(tup):
            return 0
        base = self.values[self._slot_index[tuple(sorted(tup))]]
        if base != 0 and _perm_parity(tup):
            return self.coefficient.mul[self.coefficient.minus_one][base]
        return base

    def support(self) -> tuple[tuple, ...]:
        combos = itertools.combinations(range(self.ground_size), self.rank)
        return tuple(c for c, v in zip(combos, self.values) if v != 0)


def _ncr(n: int, r: int) -> int:
    import math

    return math.comb(n, r)


def _relation_terms(phi: GPFunction, x: tuple, y: tuple):
    """Signed term pairs of the exchange relation for an (r+1)-tuple x and
    an (r-1)-tuple y: (parity k, phi(x without k), phi(x_k, *y))."""
    for k in range(len(x)):
        left = phi.value(x[:k] + x[k + 1 :])
        right = phi.value((x[k],) + y)
        yield k & 1, left, right


def verify_gp(phi: GPFunction) -> AxiomReport:
    """Exchange relations: every alternating sum of products must be null
    in the coefficient (0 lies in the hypersum over a hyperfield; the sum
    lies in K0 over a fuzzy ring).

    It suffices to sweep strictly increasing tuples: permuted or repeated
    tuples reduce to these by the sign rule built into value()."""
    c = phi.coefficient
    neg1 = c.minus_one
    n, r = phi.ground_size, phi.rank
    v: list[Violation] = []
    for x in itertools.combinations(range(n), r + 1):
        for y in itertools.combinations(range(n), r - 1):
            terms = []
            for parity, left, right in _relation_terms(phi, x, y):
                t = c.mul[left][right]
                terms.append(c.mul[neg1][t] if parity else t)
            if not c.sum_is_null(terms):
                v.append(("GP3", (x, y)))
    return _report(v)


ENUM_SPACE_CAP = 2_000_000


def enumerate_gp(
    f: FiniteHyperring | FiniteFuzzyRing,
    n: int,
    r: int,
    normalize: bool = False,
) -> list[GPFunction]:
    """All valid value assignments (unit or zero per slot, not all zero);
    with normalize, keep one representative per unit-scaling class (first
    nonzero slot equal to 1)."""
    if n > 6 or r > 3:
        raise ValueError("enumeration capped at n <= 6, r <= 3")
    slots = _ncr(n, r)
    choices = [0, *f.units]
    if len(choices) ** slots > ENUM_SPACE_CAP:
        raise ValueError("enumeration space too large")
    out = []
    for values in itertools.product(choices, repeat=slots):
        if all(v == 0 for v in values):
            continue
        if normalize:
            first = next(v for v in values if v != 0)
            if first != 1:
                continue
        phi = GPFunction(n, r, values, f)
        if verify_gp(phi).passed:
            out.append(phi)
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
    hv = verify_gp(phi).passed
    fv = verify_gp(transport_to_powerset(phi, fk)).passed
    rv = None
    if fbar is not None:
        tr = pushforward_gp(phi, lambda v: fbar_embed[v], fbar)
        rv = verify_gp(tr).passed
    agrees = (hv == fv) and (rv is None or rv == hv)
    return OneToOneReport(hv, fv, rv, agrees)


def cross_check_onetoone_G(
    phi: GPFunction, k: FiniteFuzzyRing, g: FiniteHyperring
) -> OneToOneReport:
    """The converse direction for a field-like fuzzy ring: fuzzy relations
    hold iff hyperfield relations hold over the unit hyperfield."""
    if phi.coefficient is not k:
        raise ValueError("coefficient mismatch")
    fv = verify_gp(phi).passed
    hv = verify_gp(transport_to_g(phi, k, g)).passed
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
