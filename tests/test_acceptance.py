"""Acceptance suite: ten numbered criteria, one printed pass/fail line each.

Criterion 5 shows that F is not full on hyperrings.  For H = C5 the
identity on H is an accepted weak morphism F(K[H] u {e,f}) -> F(K[H]) (the
closure decision and the enumeration oracle agree), yet no hyperring hom
K[H] u {e,f} -> K[H] restricts to it.  The strong-extension search decides
whether the map extends to a strong morphism; an extension is checked by
the strong closure decision, by enumerating sums of at most two generators,
and by its image of a singleton, which no F(h) sends to a non-singleton.
For |H| = 4 (the Klein four-group and C4 alike) the same map is rejected:
the sum 1+u+v+w of the four units is null in the source and {1,u,v,w} in
the target.  The criterion asserts that rejection from both sources and the
hand computation behind it, as README.md sets out.
"""

import itertools
import math
import time

import pytest

from hyperalg import ddhyper, functors, fuzzy, hyper, matroid, ordgrp
from hyperalg.core import bits, mask_of


def _line(num: int, ok: bool, detail: str = ""):
    status = "PASS" if ok else "FAIL"
    suffix = f" ({detail})" if detail else ""
    print(f"ACCEPTANCE {num}: {status}{suffix}")


def test_acceptance_1_table_reproduction():
    fk = functors.F_obj(hyper.krasner())
    kf = fuzzy.krasner_fuzzy()
    ok = (fk.fuzzy.add, fk.fuzzy.mul, fk.fuzzy.k0, fk.fuzzy.epsilon) == (
        kf.add,
        kf.mul,
        kf.k0,
        kf.epsilon,
    )
    fs = functors.F_obj(hyper.signs())
    pos = [fs.index[m] for m in (1, 2, 4, 7)]
    sf = fuzzy.sign_fuzzy()
    relabel = {p: i for i, p in enumerate(pos)}
    for i, p in enumerate(pos):
        for j, q in enumerate(pos):
            ok &= relabel[fs.fuzzy.add[p][q]] == sf.add[i][j]
            ok &= relabel[fs.fuzzy.mul[p][q]] == sf.mul[i][j]
    ok &= fuzzy.weak_iso(fk.fuzzy, kf) is not None
    ok &= fuzzy.weak_iso(fs.fuzzy, sf) is not None
    _line(1, ok, "powerset rings reproduce the 3- and 4-element tables")
    assert ok


def test_acceptance_2_object_level():
    sources = [
        hyper.krasner(),
        hyper.signs(),
        *(hyper.field_hyperfield(q) for q in (2, 3, 4, 5)),
        hyper.quotient(hyper.galois_field(4), mask_of([1, 2, 3])),
        hyper.kh(hyper.klein_four()),
        hyper.khef(hyper.klein_four()),
    ]
    t0 = time.perf_counter()
    ok = all(
        fuzzy.check_fuzzy_axioms(functors.F_obj(r).fuzzy).passed for r in sources
    )
    elapsed = time.perf_counter() - t0
    ok &= elapsed < 30
    _line(2, ok, f"9 powerset rings verified in {elapsed:.1f}s")
    assert ok


def test_acceptance_3_equivalence_roundtrips():
    names = ["krasner", "signs", "gf2", "gf3", "gf4", "gf5", "gf7", "kh-klein4", "kh-c4", "kh-c5"]
    ok = all(functors.check_roundtrips(hyper.builtin(n)).passed for n in names)
    ok &= functors.check_roundtrips_fuzzy(fuzzy.krasner_fuzzy()).passed
    ok &= functors.check_roundtrips_fuzzy(fuzzy.sign_fuzzy()).passed
    _line(3, ok, "G(F(k)) = k and K = F(G(K)) on units")
    assert ok


def test_acceptance_4_field_like_boundary():
    uz = functors.unit_field_z()
    fk = functors.F_obj(uz)
    rep = functors.is_field_like(fk.fuzzy)
    one = fk.embed[1]
    ok = not rep.passed and (one, one) in [w for _, w in rep.violations]
    g = functors.G_obj(fk.fuzzy)
    ok &= g.partial and g.add[1][1] == 0
    ok &= hyper.iso_hyper(g, uz) is not None
    _line(4, ok, "F(unit field of Z) not field-like at (1,1); 1+1 empty in G'")
    assert ok


# names of the K[H] u {e,f} carrier for |H| = 4: 0, the units 1,u,v,w, then e,f
_NAMES4 = "01uvwef"


def _named(mask: int) -> str:
    return "{" + ",".join(_NAMES4[i] for i in bits(mask)) + "}"


def _identity_on_units(khef, kh):
    """F(K[H] u {e,f}), F(K[H]) and the identity on H between their units."""
    fa, fb = functors.F_obj(khef), functors.F_obj(kh)
    return fa, fb, {fa.embed[h]: fb.embed[h] for h in khef.units}


def _four_unit_rejection(group, target: str) -> tuple[dict[str, bool], str]:
    """Claims for |H| = 4, where identity-on-units is rejected, and the
    closure's violating pair named by its subsets.

    By hand, in K[H]: 1+u = {v,w} and 1+u+v = {0,1,u,v}, which misses w, so
    1+u+v+w = {1,u,v,w} is not null.  In K[H] u {e,f}: 1+u = {v,w,e,f}, and
    1+u+v+w is the whole carrier, which contains 0.
    """
    khef, kh = hyper.khef(group), hyper.builtin(target)
    ef = "khef" + target[2:]
    one, u, v, w, e, f = 1, 2, 3, 4, 5, 6
    units = (one, u, v, w)
    fa, fb, unit_map = _identity_on_units(khef, kh)
    cert = fuzzy.check_weak_morphism(fa.fuzzy, fb.fuzzy, unit_map)
    witness = fuzzy.weak_violation_by_enumeration(fa.fuzzy, fb.fuzzy, unit_map)
    pair = None
    if not cert.accepted:
        pair = (fa.masks[cert.violating[0]], fb.masks[cert.violating[1]])
    claims = {
        f"{target}: 1+u = {{v,w}}": kh.add[one][u] == mask_of([v, w]),
        f"{target}: 1+u+v = {{0,1,u,v}}, without w": kh.hsum([one, u, v])
        == mask_of([0, one, u, v]),
        f"{target}: 1+u+v+w = {{1,u,v,w}}": kh.hsum(units) == mask_of(units),
        f"{ef}: 1+u = {{v,w,e,f}}": khef.add[one][u] == mask_of([v, w, e, f]),
        f"{ef}: 1+u+v+w = {{0,1,u,v,w,e,f}}": khef.hsum(units)
        == mask_of(range(khef.n)),
        f"{ef} -> {target}: closure rejects at 1+u+v+w": pair
        == (khef.hsum(units), kh.hsum(units)),
        f"{ef} -> {target}: oracle witness is 1+u+v+w": witness
        == tuple(fa.embed[h] for h in units),
    }
    named = "accepted" if pair is None else f"{_named(pair[0])} -> {_named(pair[1])}"
    return claims, named


def _short_violating_sum(k, l, g):
    """By enumeration: a sum of one or two generator pairs (ab, g(a)g(b))
    that is null in K and not null in L, or None."""
    gens = sorted(
        {(k.mul[a][b], l.mul[g[a]][g[b]]) for a in range(k.n) for b in range(a, k.n)}
    )
    for i, (x1, y1) in enumerate(gens):
        if k.is_null(x1) and not l.is_null(y1):
            return ((x1, y1),)
        for x2, y2 in gens[i:]:
            if k.is_null(k.add[x1][x2]) and not l.is_null(l.add[y1][y2]):
                return ((x1, y1), (x2, y2))
    return None


def test_acceptance_5_non_fullness():
    # |H| = 5: identity on units is an accepted weak morphism
    # F(K[C5] u {e,f}) -> F(K[C5]), but no hyperring hom restricts to it
    khef5 = hyper.khef(hyper.cyclic_group(5))
    kh5 = hyper.builtin("kh-c5")
    fa, fb, unit_map = _identity_on_units(khef5, kh5)
    cert5 = fuzzy.check_weak_morphism(fa.fuzzy, fb.fuzzy, unit_map)
    witness5 = fuzzy.weak_violation_by_enumeration(fa.fuzzy, fb.fuzzy, unit_map)
    homs5 = hyper.enumerate_homs(khef5, kh5, fixed={h: h for h in khef5.units})
    cfg = functors.ExtensionSearchConfig(budget=2000, full_check_limit=5)
    res = functors.strong_extension_search(fa.fuzzy, fb.fuzzy, unit_map, cfg)
    claims = {
        "khef-c5 -> kh-c5: closure accepts": cert5.accepted,
        "khef-c5 -> kh-c5: oracle finds no violating sum": witness5 is None,
        "no hom khef-c5 -> kh-c5 restricts to the identity": not homs5,
        "khef-c5 -> kh-c5: bounded search reports a verdict": res.verdict
        in ("extends", "refuted", "unknown")
        and res.nodes <= cfg.budget
        and res.full_checks <= cfg.full_check_limit,
    }
    # with the default budget the search decides; an extension is certified
    # three ways, which makes F not full for strong morphisms as well
    strong = functors.strong_extension_search(fa.fuzzy, fb.fuzzy, unit_map)
    claims["khef-c5 -> kh-c5: default search decides"] = strong.verdict in (
        "extends",
        "refuted",
    )
    if strong.verdict == "extends":
        g = strong.witness
        cert = fuzzy.check_strong_morphism(fa.fuzzy, fb.fuzzy, g)
        claims["khef-c5 -> kh-c5: strong closure accepts the extension"] = (
            cert.accepted
        )
        claims["khef-c5 -> kh-c5: no sum of <= 2 generators violates it"] = (
            _short_violating_sum(fa.fuzzy, fb.fuzzy, g) is None
        )
        sizes = [fb.masks[g[fa.embed[x]]].bit_count() for x in range(khef5.n)]
        claims["khef-c5 -> kh-c5: it sends a singleton to a non-singleton"] = (
            sizes != [1] * khef5.n
        )

    # |H| = 4: the map is rejected, for the Klein four-group and C4 alike
    khef4, kh4 = hyper.builtin("khef-klein4"), hyper.builtin("kh-klein4")
    homs4 = hyper.enumerate_homs(khef4, kh4)
    ident4 = sum(all(h[x] == x for x in khef4.units) for h in homs4)
    claims["no hom khef-klein4 -> kh-klein4 restricts to the identity"] = ident4 == 0
    v4_claims, v4_pair = _four_unit_rejection(hyper.klein_four(), "kh-klein4")
    c4_claims, c4_pair = _four_unit_rejection(hyper.cyclic_group(4), "kh-c4")
    claims |= v4_claims | c4_claims

    failed = [name for name, held in claims.items() if not held]
    _line(
        5,
        not failed,
        f"|H|=5: identity on units weak-accepted: {cert5.accepted},"
        f" homs restricting to it: {len(homs5)}, search {res.verdict},"
        f" default search {strong.verdict};"
        f" |H|=4: closure rejects 1+u+v+w, V4 {v4_pair}, C4 {c4_pair};"
        f" V4 identity-restricting homs: {ident4} of {len(homs4)}"
        + (f"; failed: {failed}" if failed else ""),
    )
    assert not failed, f"criterion 5 claims that do not hold: {failed}"


def test_acceptance_6_double_distributivity():
    ok = hyper.check_doubly_distributive(hyper.krasner()).passed
    ok &= hyper.check_doubly_distributive(hyper.signs()).passed
    ok &= ordgrp.check_window_doubly_distributive(4).passed
    rep = ddhyper.triangle_counterexample()
    i = ddhyper.interval
    ok &= rep.two_plus_three == i(1, 5)
    ok &= rep.square == i(1, 25)
    ok &= rep.expanded == i(0, 25)
    ok &= not rep.equal
    _line(6, ok, "exact intervals [1,5], [1,25], [0,25]")
    assert ok


def test_acceptance_7_reduced_functor_factorization():
    fb = ddhyper.Fbar(hyper.signs())
    ok = fb.n == 4 and fb.k0 == 0b1001 and fb.epsilon == 2
    for name in ("krasner", "signs"):
        h = hyper.builtin(name)
        f2 = ddhyper.F2(ddhyper.F1(h))
        b = ddhyper.Fbar(h)
        ok &= (f2.add, f2.mul, f2.k0, f2.epsilon) == (b.add, b.mul, b.k0, b.epsilon)
        fk = functors.F_obj(h)
        incl = ddhyper.fbar_inclusion(h, fk.index)
        cert = fuzzy.check_strong_morphism(b, fk.fuzzy, incl)
        ok &= cert.accepted and len(set(incl)) == len(incl)
        ok &= sorted(incl[u] for u in b.units) == sorted(fk.fuzzy.units)
    _line(7, ok, "Fbar tables, F2(F1(F)) = Fbar(F), inclusion strong")
    assert ok


def test_acceptance_8_ordered_group():
    ok = all(ordgrp.check_fbar_hgamma_iso_kgamma(b).passed for b in (1, 2, 3, 4))
    ok &= ordgrp.check_window_fuzzy_axioms(3).passed
    s0, d0 = ordgrp.singleton(0), ordgrp.down(0)
    fixtures = [
        ordgrp.generate_zariski(
            ("p", "q", "r"), [(s0, d0, ordgrp.KG_ZERO), (d0, s0, s0)]
        ),
        ordgrp.generate_zariski(("a", "b"), [(s0, s0), (d0, ordgrp.KG_ZERO)]),
        ordgrp.generate_zariski(
            ("x", "y", "z"), [(s0, s0, d0), (d0, d0, s0), (s0, d0, d0)]
        ),
    ]
    for s in fixtures:
        ok &= ordgrp.check_zariski(s).passed
        t = ordgrp.pushforward_zariski(s, window=3)
        ok &= ordgrp.check_zariski(t).passed
        for fn in s.functions:
            pushed = tuple(ordgrp.kgamma_embed(v, 3) for v in fn)
            ok &= ordgrp.zero_set(s, [fn]) == ordgrp.zero_set(t, [pushed])
    _line(8, ok, "windows 1-4, FR0-FR7, zero sets preserved on 3 fixtures")
    assert ok


def test_acceptance_9_matroid_equivalence():
    k = hyper.krasner()
    s = hyper.signs()
    ok = True
    counts = []
    for n, r in ((3, 1), (4, 1), (4, 2), (5, 2)):
        fns = matroid.enumerate_gp(k, n, r, normalize=True)
        oracle = matroid.basis_exchange_oracle(n, r)
        counts.append(len(fns))
        ok &= len(fns) == len(oracle)
        ok &= {phi.support() for phi in fns} == set(map(tuple, oracle))
    for coeff in (k, s):
        fk = functors.F_obj(coeff)
        fb = ddhyper.Fbar(coeff)
        femb = ddhyper.fbar_embed(coeff)
        for n, r in ((3, 1), (3, 2), (4, 1), (4, 2), (4, 3)):
            for vals in itertools.product(
                [0, *coeff.units], repeat=math.comb(n, r)
            ):
                if not any(vals):
                    continue
                phi = matroid.GPFunction(n, r, vals, coeff)
                rep = matroid.cross_check_onetoone(phi, coeff, fk, fb, femb)
                ok &= rep.agrees
    _line(9, ok, f"bijections with counts {counts}; all cross-checks agree")
    assert ok


def test_acceptance_10_decision_soundness():
    rings = [fuzzy.krasner_fuzzy(), fuzzy.sign_fuzzy()]
    checked = 0
    ok = True
    for src, dst in itertools.product(rings, repeat=2):
        for unit_map in fuzzy.enumerate_unit_homs(src, dst):
            cert = fuzzy.check_weak_morphism(src, dst, unit_map)
            witness = fuzzy.weak_violation_by_enumeration(src, dst, unit_map, 5)
            ok &= cert.accepted == (witness is None)
            checked += 1
    _line(10, ok, f"closure verdict matches enumeration on {checked} unit maps")
    assert ok
