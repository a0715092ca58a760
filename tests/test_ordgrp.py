"""The ordered-group hyperfield over the integers, its fuzzy-ring companion
on singletons and down-intervals, window-bounded verification, and Zariski
systems."""

import functools
import itertools
import random
import time

import pytest

from hyperalg import ddhyper, hyper, ordgrp
from hyperalg.ordgrp import (
    BOTTOM,
    KG_EPSILON,
    KG_ONE,
    KG_ZERO,
    down,
    singleton,
)


def test_hgamma_tables():
    assert ordgrp.hgamma_add(3, 5) == singleton(5)
    assert ordgrp.hgamma_add(5, 3) == singleton(5)
    assert ordgrp.hgamma_add(3, 3) == down(3)
    assert ordgrp.hgamma_add(3, BOTTOM) == singleton(3)
    assert ordgrp.hgamma_add(BOTTOM, BOTTOM) == singleton(BOTTOM)
    assert ordgrp.hgamma_mul(3, 5) == 8
    assert ordgrp.hgamma_mul(3, BOTTOM) is BOTTOM
    assert ordgrp.hgamma_neg(7) == 7


def test_kgamma_add():
    assert ordgrp.kgamma_add(singleton(3), down(5)) == down(5)
    assert ordgrp.kgamma_add(singleton(7), down(5)) == singleton(7)
    assert ordgrp.kgamma_add(down(2), down(2)) == down(2)
    assert ordgrp.kgamma_add(down(2), down(4)) == down(4)
    assert ordgrp.kgamma_add(singleton(4), singleton(4)) == down(4)
    assert ordgrp.kgamma_add(singleton(-1), singleton(2)) == singleton(2)
    assert ordgrp.kgamma_add(KG_ZERO, down(3)) == down(3)


def test_kgamma_mul_and_units():
    assert ordgrp.kgamma_mul(singleton(2), singleton(3)) == singleton(5)
    assert ordgrp.kgamma_mul(singleton(2), down(3)) == down(5)
    assert ordgrp.kgamma_mul(down(-1), down(1)) == down(0)
    assert ordgrp.kgamma_mul(KG_ZERO, down(3)) == KG_ZERO
    assert ordgrp.kgamma_is_unit(singleton(-2))
    assert not ordgrp.kgamma_is_unit(down(0))
    assert ordgrp.kgamma_is_null(down(0))
    assert ordgrp.kgamma_is_null(KG_ZERO)
    assert not ordgrp.kgamma_is_null(singleton(0))
    assert KG_EPSILON == KG_ONE  # -1 = 1: char-2-like additive inverses


def test_down_of_bottom_normalizes():
    assert down(BOTTOM) == singleton(BOTTOM) == KG_ZERO


def test_subset_containment():
    assert ordgrp.og_subset_contains(singleton(2), down(3))
    assert not ordgrp.og_subset_contains(singleton(4), down(3))
    assert ordgrp.og_subset_contains(down(1), down(3))
    assert not ordgrp.og_subset_contains(down(3), singleton(3))
    assert ordgrp.og_subset_contains(KG_ZERO, down(0))


def test_window_hypergroup():
    assert ordgrp.check_window_hypergroup(4).passed


def test_window_doubly_distributive():
    assert ordgrp.check_window_doubly_distributive(4).passed


def test_window_closure():
    assert ordgrp.check_window_closure(4).passed


def test_window_fuzzy_axioms():
    assert ordgrp.check_window_fuzzy_axioms(3).passed


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_reduced_powerset_agrees_with_symbolic(b):
    assert ordgrp.check_fbar_hgamma_iso_kgamma(b).passed


def test_embed_realizations():
    assert ordgrp.kgamma_embed(singleton(2), 3) == frozenset([2])
    assert ordgrp.kgamma_embed(down(1), 3) == frozenset([BOTTOM, -3, -2, -1, 0, 1])
    assert ordgrp.kgamma_embed(KG_ZERO, 3) == frozenset([BOTTOM])


# ---------------------------------------------------------------------------
# the window checks against symbolic oracles: every violation, evaluated on
# OGSubset values, in the labels and quantifier forms of the table kernel


def _oracle_fuzzy(b):
    subs = ordgrp.window_subsets(b)
    add, mul, nul = ordgrp.kgamma_add, ordgrp.kgamma_mul, ordgrp.kgamma_is_null
    units = [u for u in subs if any(mul(u, x) == KG_ONE for x in subs)]
    v = []

    def w(label, *args):
        v.append((label, tuple(str(x) for x in args)))

    for x, y in itertools.product(subs, repeat=2):
        if add(x, y) != add(y, x):
            w("FR0-add-commutative", x, y)
        if mul(x, y) != mul(y, x):
            w("FR0-mul-commutative", x, y)
    for x, y, z in itertools.product(subs, repeat=3):
        if add(add(x, y), z) != add(x, add(y, z)):
            w("FR0-add-associative", x, y, z)
        if mul(mul(x, y), z) != mul(x, mul(y, z)):
            w("FR0-mul-associative", x, y, z)
    for x in subs:
        if add(KG_ZERO, x) != x:
            w("FR0-add-identity", x)
        if mul(KG_ONE, x) != x:
            w("FR0-mul-identity", x)
        if mul(KG_ZERO, x) != KG_ZERO:
            w("FR1-absorbing", x)
    for u in units:
        for x, y in itertools.product(subs, repeat=2):
            if mul(u, add(x, y)) != add(mul(u, x), mul(u, y)):
                w(f"FR2-unit-{u}", x, y)
    if mul(KG_EPSILON, KG_EPSILON) != KG_ONE:
        w("FR3", KG_EPSILON)
    for x, y in itertools.product(subs, repeat=2):
        if nul(x) and nul(y) and not nul(add(x, y)):
            w("FR4-add-closed", x, y)
        if nul(y) and not nul(mul(x, y)):
            w("FR4-mul-absorbing", x, y)
    if not nul(KG_ZERO):
        w("FR4-zero-null")
    if nul(KG_ONE):
        w("FR4-one-not-null")
    for u in units:
        if nul(add(KG_ONE, u)) != (u == KG_EPSILON):
            w("FR5", u)
    pairs = [(x, y) for x, y in itertools.product(subs, repeat=2) if nul(add(x, y))]
    for (a, bb), (c, d) in itertools.product(pairs, repeat=2):
        if not nul(add(mul(a, c), mul(KG_EPSILON, mul(bb, d)))):
            w("FR6", a, bb, c, d)
    for a, bb, c, d in itertools.product(subs, repeat=4):
        if nul(add(a, mul(bb, add(c, d)))) and not nul(
            add(add(a, mul(bb, c)), mul(bb, d))
        ):
            w("FR7", a, bb, c, d)
    return v


def _oracle_dd(b):
    elems = ordgrp.window_elements(b)
    v = []
    for x, y, z, w in itertools.product(elems, repeat=4):
        lhs = ordgrp.kgamma_mul(ordgrp.hgamma_add(x, y), ordgrp.hgamma_add(z, w))
        terms = [
            ordgrp.kgamma_mul(singleton(p), singleton(q))
            for p, q in ((x, z), (x, w), (y, z), (y, w))
        ]
        if lhs != functools.reduce(ordgrp.kgamma_add, terms, KG_ZERO):
            v.append(("double-distributivity", (x, y, z, w)))
    return v


def _assert_matches_oracle(b):
    """The same violated axioms on both sides, and every kernel witness is
    one of the oracle's violations."""
    for kernel, oracle in (
        (ordgrp.check_window_fuzzy_axioms(b), _oracle_fuzzy(b)),
        (ordgrp.check_window_doubly_distributive(b), _oracle_dd(b)),
    ):
        assert {l for l, _ in kernel.violations} == {l for l, _ in oracle}
        assert kernel.passed == (not oracle)
        for violation in kernel.violations:
            assert violation in oracle


def _mutate(monkeypatch, name, x, y, z, symmetric):
    """Make ordgrp.<name>(x, y), and (y, x) if symmetric, return z."""
    orig = getattr(ordgrp, name)
    cases = {(x, y), (y, x)} if symmetric else {(x, y)}
    monkeypatch.setattr(
        ordgrp, name, lambda p, q: z if (p, q) in cases else orig(p, q)
    )


@pytest.mark.parametrize("b", [1, 2, 3, 4])
def test_window_checks_match_oracle(b):
    _assert_matches_oracle(b)
    assert ordgrp.check_window_fuzzy_axioms(b).passed
    assert ordgrp.check_window_doubly_distributive(b).passed


@pytest.mark.parametrize("seed", range(24))
def test_window_checks_match_oracle_mutated(seed, monkeypatch):
    rng = random.Random(seed)
    b = rng.choice((1, 2))
    name = rng.choice(("kgamma_add", "kgamma_mul"))
    subs = ordgrp.window_subsets(b)
    x, y = rng.choice(subs), rng.choice(subs)
    z = rng.choice([s for s in subs if s != getattr(ordgrp, name)(x, y)])
    _mutate(monkeypatch, name, x, y, z, symmetric=rng.random() < 0.5)
    _assert_matches_oracle(b)


# the frozenset versions of the window hypergroup and closure checks, from
# before they ran on H's mask table through the finite kernels


def _set_add(x, y, b):
    out = set()
    for p, q in itertools.product(x, y):
        out |= ordgrp.kgamma_embed(ordgrp.hgamma_add(p, q), b)
    return frozenset(out)


def _oracle_hypergroup(b):
    v = []
    elems = ordgrp.window_elements(b)
    sing = {x: frozenset([x]) for x in elems}

    def hsum(x, y):
        return ordgrp.kgamma_embed(ordgrp.hgamma_add(x, y), b)

    for x, y in itertools.product(elems, repeat=2):
        if ordgrp.hgamma_add(x, y) != ordgrp.hgamma_add(y, x):
            v.append(("commutativity", (x, y)))
        if hsum(x, BOTTOM) != sing[x]:
            v.append(("identity", (x,)))
        # unique inverses: Bottom in x + y iff y = x
        if (BOTTOM in hsum(x, y)) != (x == y):
            v.append(("inverses", (x, y)))
    for x, y, z in itertools.product(elems, repeat=3):
        if _set_add(hsum(x, y), sing[z], b) != _set_add(sing[x], hsum(y, z), b):
            v.append(("associativity", (x, y, z)))
        # reversibility: x in y + z iff z in x + (-y), and -y = y
        if (x in hsum(y, z)) != (z in hsum(y, x)):
            v.append(("reversibility", (x, y, z)))
    return v


def _oracle_closure(b):
    elems = ordgrp.window_elements(b)
    representable = {ordgrp.kgamma_embed(a, b) for a in ordgrp.window_subsets(b)}
    family = {frozenset([x]) for x in elems}
    frontier = list(family)
    while frontier:
        s = frontier.pop()
        for a in elems:
            t = _set_add(s, frozenset([a]), b)
            if t not in family:
                family.add(t)
                frontier.append(t)

    def sort_key(f):
        return sorted(-2 * b - 1 if e is None else e for e in f)

    bad = sorted((s for s in family if s not in representable), key=sort_key)
    return [("closure-shape", tuple(sort_key(s))) for s in bad]


def _assert_hypergroup_matches_oracle(b):
    """The same verdicts, and every kernel witness under a label the oracle
    shares is one of its violations.  Reversibility reads x + (-y) as y + x
    in the oracle and as x + y in the kernel, so it is compared only while
    addition commutes.  The closure reports are equal."""
    kernel, oracle = ordgrp.check_window_hypergroup(b), _oracle_hypergroup(b)
    assert kernel.passed == (not oracle)
    labels = {l for l, _ in oracle}
    if "commutativity" in labels:
        labels.discard("reversibility")
    for label, witness in kernel.violations:
        if label in labels:
            assert (label, witness) in oracle
    assert list(ordgrp.check_window_closure(b).violations) == _oracle_closure(b)


@pytest.mark.parametrize("b", [-1, 0, 1, 2, 3, 4])
def test_window_hypergroup_and_closure_match_oracles(b):
    assert not _oracle_hypergroup(b) and not _oracle_closure(b)
    _assert_hypergroup_matches_oracle(b)


@pytest.mark.parametrize("seed", range(24))
def test_window_hypergroup_matches_oracle_mutated(seed, monkeypatch):
    rng = random.Random(seed)
    b = rng.choice((1, 2))
    elems = ordgrp.window_elements(b)
    x, y = rng.choice(elems), rng.choice(elems)
    subs = ordgrp.window_subsets(b)
    z = rng.choice([s for s in subs if s != ordgrp.hgamma_add(x, y)])
    _mutate(monkeypatch, "hgamma_add", x, y, z, symmetric=rng.random() < 0.5)
    _assert_hypergroup_matches_oracle(b)


def test_window_hypergroup_failure_pinned(monkeypatch):
    # 1 + 1 = {1} leaves 1 without an inverse: the finite kernel's label and
    # witness (the element and its inverses), where the oracle reports
    # ("inverses", (1, 1))
    _mutate(monkeypatch, "hgamma_add", 1, 1, singleton(1), False)
    rep = ordgrp.check_window_hypergroup(1)
    assert rep.violations[0] == ("unique-inverse", (1, ()))
    assert {l for l, _ in rep.violations} == {"unique-inverse", "reversibility"}
    assert ("inverses", (1, 1)) in _oracle_hypergroup(1)


def test_window_fr7_ignores_elements_outside_window(monkeypatch):
    # with {1}{1} = {1}, b = c = d = {1} gives b(c+d) = [_|_, 2] and
    # bc + bd = [_|_, 1]; their null sets differ only at {2}, outside [-1, 1]
    _mutate(monkeypatch, "kgamma_mul", singleton(1), singleton(1), singleton(1), True)
    _assert_matches_oracle(1)
    assert "FR7" not in {l for l, _ in ordgrp.check_window_fuzzy_axioms(1).violations}


def test_window_fr6_failure_pinned(monkeypatch):
    # [_|_, 2] * [_|_, 0] = {2} loses Bottom; FR0-mul-associative alone has
    # more than 25 witnesses, and FR4 and FR6 are reported all the same
    _mutate(monkeypatch, "kgamma_mul", down(2), down(0), singleton(2), True)
    assert len(_oracle_fuzzy(2)) > 25
    assert list(ordgrp.check_window_fuzzy_axioms(2).violations) == [
        ("FR0-mul-associative", ("{-2}", "[_|_, 0]", "[_|_, 2]")),
        ("FR4-mul-absorbing", ("[_|_, 0]", "[_|_, 2]")),
        ("FR6", ("{_|_}", "[_|_, 0]", "{_|_}", "[_|_, 2]")),
    ]
    assert list(ordgrp.check_window_doubly_distributive(2).violations) == [
        ("double-distributivity", (0, 0, 2, 2))
    ]


def test_window_checks_empty_window():
    # [-B, B] holds only Bottom for B < 0
    assert ordgrp.check_window_fuzzy_axioms(-1).passed
    assert ordgrp.check_window_doubly_distributive(-1).passed


def test_window_checks_reach_16():
    start = time.perf_counter()
    assert ordgrp.check_window_fuzzy_axioms(16).passed
    assert ordgrp.check_window_doubly_distributive(16).passed
    assert time.perf_counter() - start < 10


# ---------------------------------------------------------------------------
# Zariski systems


def _example_system():
    s0, d0 = singleton(0), down(0)
    points = ("p", "q", "r")
    f = (s0, d0, KG_ZERO)
    g = (d0, s0, s0)
    return ordgrp.generate_zariski(points, [f, g]), f, g


def test_zariski_axioms():
    s, f, g = _example_system()
    assert ordgrp.check_zariski(s).passed
    assert f in s.functions and g in s.functions


def test_zariski_zero_sets():
    s, f, g = _example_system()
    assert ordgrp.zero_set(s, [f]) == frozenset({"q", "r"})
    assert ordgrp.zero_set(s, [g]) == frozenset({"p"})
    assert ordgrp.zero_set(s, [f, g]) == frozenset()


def test_zariski_zero_set_requires_membership():
    s, f, g = _example_system()
    with pytest.raises(ValueError):
        ordgrp.zero_set(s, [(singleton(1), singleton(1), singleton(1))])


def test_zariski_pushforward_preserves_zero_sets():
    s, f, g = _example_system()
    t = ordgrp.pushforward_zariski(s, window=3)
    assert ordgrp.check_zariski(t).passed
    for fn in s.functions:
        pushed = tuple(ordgrp.kgamma_embed(v, 3) for v in fn)
        assert ordgrp.zero_set(s, [fn]) == ordgrp.zero_set(t, [pushed])


def test_zariski_everywhere_null_fails_z2():
    s = ordgrp.ZariskiSystem(("p",), ((down(0),),))
    rep = ordgrp.check_zariski(s)
    assert not rep.passed
    assert any(tag == "Z2-nonnull-function" for tag, _ in rep.violations)


def test_zariski_closure_cap():
    # powers of a positive singleton grow without bound
    with pytest.raises(ValueError):
        ordgrp.generate_zariski(("p",), [(singleton(2),)], cap=10)


# ---------------------------------------------------------------------------
# the demifield side


def test_demifield_morphism_from_two_element_hyperfield():
    p = ddhyper.F1(hyper.krasner())
    # family is ({0}, {1}, {0,1}); send them to 0, the identity, and the
    # null down-interval
    idx = {m: i for i, m in enumerate(p.family)}
    values = [None] * len(p.family)
    values[idx[1]] = KG_ZERO
    values[idx[2]] = KG_ONE
    values[idx[3]] = down(0)
    assert ordgrp.check_demifield_morphism_to_hz(p, tuple(values)).passed


def test_demifield_morphism_rejects_bad_values():
    p = ddhyper.F1(hyper.krasner())
    idx = {m: i for i, m in enumerate(p.family)}
    values = [None] * len(p.family)
    values[idx[1]] = KG_ZERO
    values[idx[2]] = KG_ONE
    values[idx[3]] = singleton(0)  # not null, breaks the semiring sum
    assert not ordgrp.check_demifield_morphism_to_hz(p, tuple(values)).passed


def test_no_strict_hyperfield_homomorphisms():
    found, rep = ordgrp.strict_homs_krasner_to_hz(window=4)
    assert found == []
    assert not rep.passed
    assert rep.violations[0][0] == "strictness"
