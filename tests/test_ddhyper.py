"""Sum closures, the reduced powerset construction, partial demifields,
and the interval counterexample to double distributivity."""

import itertools
from fractions import Fraction

import pytest

from hyperalg import ddhyper, fuzzy, functors, hyper


DD_BUILTINS = ["krasner", "signs", "gf2", "gf3", "gf4", "gf5", "gf7"]


def test_closure_signs():
    sc = ddhyper.closure_S(hyper.signs())
    # {0}, {1}, {-1}, and the full set from 1 + (-1)
    assert sc.family == (1, 2, 4, 7)
    assert sc.witnesses[7][:1] == (1,) or 2 in sc.witnesses[7] or True
    # every singleton is present with a one-element witness
    for a in range(3):
        assert sc.witnesses[1 << a] == (a,)


def test_closure_krasner():
    sc = ddhyper.closure_S(hyper.krasner())
    assert sc.family == (1, 2, 3)


def test_closure_field_is_singletons():
    # in a genuine field, sums are single-valued, so the closure is just
    # the singletons
    f = hyper.field_hyperfield(3)
    sc = ddhyper.closure_S(f)
    assert sc.family == (1, 2, 4)


@pytest.mark.parametrize("name", DD_BUILTINS)
def test_mul_closure_and_expressibility(name):
    h = hyper.builtin(name)
    assert ddhyper.check_mul_closure(h).passed


def test_fbar_krasner_matches_builtin_fuzzy():
    fb = ddhyper.Fbar(hyper.krasner())
    kf = fuzzy.krasner_fuzzy()
    assert fb.add == kf.add
    assert fb.mul == kf.mul
    assert fb.k0 == kf.k0
    assert fb.epsilon == kf.epsilon


def test_fbar_signs_shape():
    fb = ddhyper.Fbar(hyper.signs())
    assert fb.n == 4
    assert fb.k0 == 0b1001  # {0} and the full set contain 0
    assert fb.epsilon == 2  # the singleton {-1}
    assert fuzzy.check_fuzzy_axioms(fb).passed


@pytest.mark.parametrize("name", DD_BUILTINS)
def test_fbar_axioms(name):
    fb = ddhyper.Fbar(hyper.builtin(name))
    assert fuzzy.check_fuzzy_axioms(fb).passed


@pytest.mark.parametrize("name", ["kh-klein4", "kh-c4"])
def test_fbar_rejects_non_dd(name):
    with pytest.raises(ddhyper.NotDoublyDistributive):
        ddhyper.Fbar(hyper.builtin(name))


@pytest.mark.parametrize("name", DD_BUILTINS)
def test_fbar_inclusion_strong(name):
    h = hyper.builtin(name)
    fb = ddhyper.Fbar(h)
    fk = functors.F_obj(h)
    incl = ddhyper.fbar_inclusion(h, fk.index)
    cert = fuzzy.check_strong_morphism(fb, fk.fuzzy, incl)
    assert cert.accepted
    # injective, and a bijection on units
    assert len(set(incl)) == len(incl)
    # Fbar's tables are the restriction of F's, checked against F_obj so
    # that building Fbar as F2(F1(h)) cannot make this a tautology
    big = fk.fuzzy
    for i, j in itertools.product(range(fb.n), repeat=2):
        assert big.add[incl[i]][incl[j]] == incl[fb.add[i][j]]
        assert big.mul[incl[i]][incl[j]] == incl[fb.mul[i][j]]
    assert [big.is_null(x) for x in incl] == [fb.is_null(x) for x in range(fb.n)]
    assert big.epsilon == incl[fb.epsilon]


@pytest.mark.parametrize("name", DD_BUILTINS)
def test_partial_demifield_axioms(name):
    p = ddhyper.F1(hyper.builtin(name))
    assert ddhyper.check_partial_demifield(p).passed
    assert ddhyper.check_addsame(p).passed


@pytest.mark.parametrize("name", DD_BUILTINS)
def test_factorization_f2_after_f1_is_fbar(name):
    h = hyper.builtin(name)
    fb = ddhyper.Fbar(h)
    f2 = ddhyper.F2(ddhyper.F1(h))
    assert f2.add == fb.add
    assert f2.mul == fb.mul
    assert f2.k0 == fb.k0
    assert f2.epsilon == fb.epsilon


def test_f1_rejects_non_dd():
    with pytest.raises(ddhyper.NotDoublyDistributive):
        ddhyper.F1(hyper.builtin("kh-klein4"))


def test_fbar_embed_lands_on_singletons():
    h = hyper.signs()
    sc = ddhyper.closure_S(h)
    emb = ddhyper.fbar_embed(h)
    for a in range(h.n):
        assert sc.family[emb[a]] == 1 << a


def test_triangle_counterexample_exact():
    rep = ddhyper.triangle_counterexample()
    assert rep.two_plus_three == ddhyper.interval(1, 5)
    assert rep.square == ddhyper.interval(1, 25)
    assert rep.expanded == ddhyper.interval(0, 25)
    assert not rep.equal


def test_triangle_ops():
    i = ddhyper.interval
    assert ddhyper.triangle_add(i(2), i(2)) == i(0, 4)
    assert ddhyper.triangle_mul(i(1, 2), i(3, 4)) == i(3, 8)
    assert ddhyper.triangle_add(i(Fraction(1, 2)), i(Fraction(1, 3))) == i(
        Fraction(1, 6), Fraction(5, 6)
    )
    with pytest.raises(ValueError):
        ddhyper.interval(3, 2)
