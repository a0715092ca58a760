import signal

import pytest

import hyperalg as ha
from hyperalg.core import CarrierTooLarge, mask_of
from hyperalg.fuzzy import (
    check_fuzzy_axioms,
    check_weak_morphism,
    krasner_fuzzy,
    sign_fuzzy,
)
from hyperalg.functors import (
    F_mor,
    F_obj,
    G_mor,
    G_obj,
    check_roundtrips,
    check_roundtrips_fuzzy,
    is_field_like,
    strong_extension_search,
    unit_field,
    unit_field_z,
)
from hyperalg.hyper import builtin, check_hyperfield, iso_hyper, quotient, galois_field

HYPERFIELDS = ["krasner", "signs", "gf2", "gf3", "gf4", "gf5", "kh-klein4", "kh-c4"]


def test_F_krasner_reproduces_krasner_fuzzy():
    fk = F_obj(builtin("krasner"))
    kf = krasner_fuzzy()
    assert (fk.fuzzy.add, fk.fuzzy.mul, fk.fuzzy.k0, fk.fuzzy.epsilon) == (
        kf.add,
        kf.mul,
        kf.k0,
        kf.epsilon,
    )


def test_F_signs_restriction_matches_sign_fuzzy():
    fk = F_obj(builtin("signs"))
    # the closure {0},{1},{-1},{0,1,-1} sits at these carrier positions
    pos = [fk.index[m] for m in (1, 2, 4, 7)]
    sf = sign_fuzzy()
    relabel = {p: i for i, p in enumerate(pos)}
    for i, p in enumerate(pos):
        for j, q in enumerate(pos):
            assert relabel[fk.fuzzy.add[p][q]] == sf.add[i][j]
            assert relabel[fk.fuzzy.mul[p][q]] == sf.mul[i][j]
    assert fk.fuzzy.epsilon == fk.index[4]
    assert [fk.fuzzy.is_null(p) for p in pos] == [True, False, False, True]


@pytest.mark.parametrize("name", HYPERFIELDS)
def test_F_produces_fuzzy_rings(name):
    fk = F_obj(builtin(name))
    assert check_fuzzy_axioms(fk.fuzzy).passed


def test_F_carrier_size():
    r = builtin("signs")
    fk = F_obj(r)
    assert fk.fuzzy.n == 2**r.n - 1
    assert fk.fuzzy.units == tuple(sorted(fk.embed[u] for u in (1, 2)))


def test_F_powerset_cap(monkeypatch):
    monkeypatch.setenv("HYPERALG_MAX_POWERSET", "4")
    with pytest.raises(CarrierTooLarge):
        F_obj(builtin("kh-klein4"))


def test_F_size_guard_before_tables(monkeypatch):
    # F of a 13-element ring has 8191 elements, over the fuzzy-ring cap of
    # 4096: raised before any table is built (the pair loop took minutes)
    monkeypatch.setenv("HYPERALG_MAX_POWERSET", "13")

    def timed_out(signum, frame):
        raise TimeoutError("F_obj did not reject the carrier at once")

    previous = signal.signal(signal.SIGALRM, timed_out)
    signal.alarm(10)
    try:
        with pytest.raises(CarrierTooLarge, match="8191 elements"):
            F_obj(ha.field_hyperfield(13))
    finally:
        signal.alarm(0)
        signal.signal(signal.SIGALRM, previous)


def test_F_size_guard_boundary(monkeypatch):
    # 2^n - 1 elements, one more (the empty set) when the base is partial
    monkeypatch.setattr(ha.functors, "MAX_FUZZY_CARRIER", 7)
    assert F_obj(builtin("signs")).fuzzy.n == 7
    with pytest.raises(CarrierTooLarge):
        F_obj(unit_field_z())
    monkeypatch.setattr(ha.functors, "MAX_FUZZY_CARRIER", 8)
    assert F_obj(unit_field_z()).fuzzy.n == 8
    monkeypatch.setattr(ha.functors, "MAX_FUZZY_CARRIER", 6)
    with pytest.raises(CarrierTooLarge):
        F_obj(builtin("signs"))


def test_F_mor_functoriality():
    s, k = builtin("signs"), builtin("krasner")
    tab = F_mor((0, 1, 1), s, k)
    assert tab.kind == "strong"
    assert tab.certificate.accepted
    g = dict(tab.map)
    fs, fk = F_obj(s), F_obj(k)
    # elementwise image: {1,-1} maps to {1}
    assert g[fs.index[mask_of([1, 2])]] == fk.index[mask_of([1])]


@pytest.mark.parametrize("name", HYPERFIELDS)
def test_roundtrip_G_of_F(name):
    assert check_roundtrips(builtin(name)).passed


@pytest.mark.parametrize("k", [krasner_fuzzy(), sign_fuzzy()])
def test_roundtrip_F_of_G(k):
    assert check_roundtrips_fuzzy(k).passed


def test_field_like_builtins():
    assert is_field_like(krasner_fuzzy()).passed
    assert is_field_like(sign_fuzzy()).passed
    assert is_field_like(F_obj(builtin("kh-klein4")).fuzzy).passed


def test_G_on_sign_fuzzy_is_signs():
    g = G_obj(sign_fuzzy())
    assert not g.partial
    assert iso_hyper(g, builtin("signs")) is not None


def test_G_mor_restriction():
    f = G_mor({1: 1, 2: 1}, sign_fuzzy(), krasner_fuzzy())
    assert f == (0, 1, 1)


# --- the field-like boundary -------------------------------------------------


def test_unit_field_z_not_field_like():
    uz = unit_field_z()
    fk = F_obj(uz)
    rep = is_field_like(fk.fuzzy)
    assert not rep.passed
    # witness a = b = {1}
    one = fk.embed[1]
    assert (one, one) in [w for _, w in rep.violations]


def test_G_prime_has_empty_sum():
    uz = unit_field_z()
    g = G_obj(F_obj(uz).fuzzy)
    assert g.partial
    assert g.add[1][1] == 0  # 1 + 1 = empty
    assert g.add[1][2] == 1  # 1 + (-1) = {0}
    assert iso_hyper(g, uz) is not None


def test_unit_field_of_khef():
    uf = unit_field(builtin("khef-klein4"))
    assert uf.partial and uf.n == 5
    assert iso_hyper(uf, builtin("kh-klein4")) is not None


def test_unit_field_of_hyperfield_is_itself():
    s = builtin("signs")
    uf = unit_field(s)
    assert uf.n == 3 and check_hyperfield(uf).passed


def test_F_of_quotient():
    q = quotient(galois_field(4), mask_of([1, 2, 3]))
    assert check_fuzzy_axioms(F_obj(q).fuzzy).passed


# --- extension search ----------------------------------------------------------


def test_extension_search_identity_extends():
    s = sign_fuzzy()
    res = strong_extension_search(s, s, {1: 1, 2: 2})
    assert res.verdict == "extends"
    assert res.witness is not None


def test_extension_search_refutes_non_weak_map():
    res = strong_extension_search(krasner_fuzzy(), sign_fuzzy(), {1: 1})
    assert res.verdict == "refuted"


def test_extension_search_sign_collapse_extends():
    res = strong_extension_search(sign_fuzzy(), krasner_fuzzy(), {1: 1, 2: 1})
    assert res.verdict == "extends"
    assert tuple(res.witness) == (0, 1, 1, 2)
