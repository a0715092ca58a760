import itertools
import signal

import pytest

import hyperalg as ha
from hyperalg.core import CarrierTooLarge, bits, mask_of
from hyperalg.fuzzy import (
    check_fuzzy_axioms,
    check_strong_morphism,
    check_weak_morphism,
    enumerate_unit_homs,
    krasner_fuzzy,
    sign_fuzzy,
)
from hyperalg.functors import (
    ExtensionSearchConfig,
    ExtensionSearchResult,
    F_mor,
    F_obj,
    G_mor,
    G_obj,
    _unit_orbits,
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


def test_F_mor_builds_F_obj_once_for_an_endomorphism(monkeypatch):
    calls = []
    real = ha.functors.F_obj
    monkeypatch.setattr(ha.functors, "F_obj", lambda r: calls.append(r) or real(r))
    h = builtin("kh-klein4")
    assert F_mor(tuple(range(h.n)), h, h).certificate.accepted
    assert calls == [h]
    assert F_mor((0,) + (1,) * (h.n - 1), h, builtin("krasner")).certificate.accepted
    assert len(calls) == 3


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


# --- extension search against two oracles ------------------------------------


def _pairwise_search(k, l, unit_map, cfg=ExtensionSearchConfig()):
    """The search as it was before the pair closure: partial assignments
    are pruned only by pairwise null sums a + b (null in K, g(a) + g(b) not
    null in L), so most candidates reach the full check."""
    cert = check_weak_morphism(k, l, unit_map)
    if not cert.accepted:
        return ExtensionSearchResult("refuted", cert.violating, 0, 0)
    g = [None] * k.n
    g[0] = 0
    for a, fa in unit_map.items():
        g[a] = fa
    orbits = [o for o in _unit_orbits(k) if g[o[0]] is None]

    def candidates(rep):
        stab = [u for u in k.units if k.mul[u][rep] == rep]
        return [
            val
            for val in range(l.n)
            if (l.is_null(val) or not k.is_null(rep))
            and all(l.mul[unit_map[u]][val] == val for u in stab)
        ]

    cand = {o[0]: candidates(o[0]) for o in orbits}
    orbits.sort(key=lambda o: len(cand[o[0]]))
    null_pairs = [
        (a, b)
        for a in range(k.n)
        for b in range(a, k.n)
        if k.is_null(k.add[a][b]) and not (k.is_null(a) or k.is_null(b))
    ]
    state = {"nodes": 0, "checks": 0, "exhausted": False}

    def assign_orbit(rep, val):
        updates = []
        for u in k.units:
            x, y = k.mul[u][rep], l.mul[unit_map[u]][val]
            if g[x] is None:
                g[x] = y
                updates.append(x)
            elif g[x] != y:
                for z in updates:
                    g[z] = None
                return None
        return updates

    def consistent():
        return all(
            g[a] is None or g[b] is None or l.is_null(l.add[g[a]][g[b]])
            for a, b in null_pairs
        )

    def dfs(i):
        if state["nodes"] >= cfg.budget or state["checks"] >= cfg.full_check_limit:
            state["exhausted"] = True
            return None
        if i == len(orbits):
            state["checks"] += 1
            full = tuple(g)
            return full if check_strong_morphism(k, l, full).accepted else None
        rep = orbits[i][0]
        for val in cand[rep]:
            state["nodes"] += 1
            if state["nodes"] >= cfg.budget:
                state["exhausted"] = True
                return None
            updates = assign_orbit(rep, val)
            if updates is None:
                continue
            if consistent():
                found = dfs(i + 1)
                if found is not None:
                    return found
            for x in updates:
                g[x] = None
            if state["exhausted"]:
                return None
        return None

    witness = dfs(0)
    nodes, checks = state["nodes"], state["checks"]
    if witness is not None:
        return ExtensionSearchResult("extends", witness, nodes, checks)
    verdict = "unknown" if state["exhausted"] else "refuted"
    return ExtensionSearchResult(verdict, None, nodes, checks)


def _unit_subgroup(ring, d):
    """The subgroup {x : x^d = 1} of the cyclic unit group of a field."""
    def power(x):
        y = 1
        for _ in range(d):
            y = ring.mul[y][x]
        return y

    return mask_of(x for x in bits(ring.units_mask) if power(x) == 1)


def _decide_pool():
    """F of every builtin hyperring and every GF(q)/U (q <= 13, U a
    nontrivial unit subgroup) with 2-5 elements, and the two builtin fuzzy
    rings: the 27 rings of the benchmark's decide workload."""
    bases = {n: builtin(n) for n in HYPERFIELDS}
    for q in (3, 4, 5, 7, 8, 9, 11, 13):
        ring = galois_field(q)
        for d in range(2, q):
            if (q - 1) % d == 0 and 1 + (q - 1) // d <= 5:
                bases[f"gf{q}/U{d}"] = quotient(ring, _unit_subgroup(ring, d))
    pool = {f"F({n})": F_obj(h).fuzzy for n, h in bases.items()}
    return pool | {"krasnerfuzzy": krasner_fuzzy(), "signfuzzy": sign_fuzzy()}


DECIDE_POOL = _decide_pool()


def test_decide_pool_size():
    assert len(DECIDE_POOL) == 27


@pytest.mark.parametrize("src", sorted(DECIDE_POOL))
def test_extension_search_matches_pairwise_search(src):
    # on the 31-element sources the pairwise oracle spends seconds running
    # out of its 200 full checks, and decides no more with them than with 20
    k = DECIDE_POOL[src]
    cfg = ExtensionSearchConfig()
    if k.n > 15:
        cfg = ExtensionSearchConfig(full_check_limit=20)
    for dst, l in DECIDE_POOL.items():
        for unit_map in enumerate_unit_homs(k, l):
            new = strong_extension_search(k, l, unit_map)
            assert new.verdict != "unknown", (src, dst, unit_map)
            if new.verdict == "extends":
                assert check_strong_morphism(k, l, new.witness).accepted
            old = _pairwise_search(k, l, unit_map, cfg)
            if old.verdict != "unknown":
                assert new.verdict == old.verdict, (src, dst, unit_map)


BRUTE_FORCE_RINGS = {
    "F(krasner)": F_obj(builtin("krasner")).fuzzy,
    "F(signs)": F_obj(builtin("signs")).fuzzy,
    "F(gf3)": F_obj(builtin("gf3")).fuzzy,
    "krasnerfuzzy": krasner_fuzzy(),
    "signfuzzy": sign_fuzzy(),
}


def _some_strong_extension(k, l, unit_map):
    """Every total g agreeing with unit_map on the units, through the full
    check: is one of them a strong morphism?"""
    free = [x for x in range(k.n) if x not in unit_map]
    g = [None] * k.n
    for a, fa in unit_map.items():
        g[a] = fa
    for values in itertools.product(range(l.n), repeat=len(free)):
        for x, y in zip(free, values):
            g[x] = y
        if check_strong_morphism(k, l, g).accepted:
            return True
    return False


@pytest.mark.parametrize("src", sorted(BRUTE_FORCE_RINGS))
def test_extension_search_matches_brute_force(src):
    k = BRUTE_FORCE_RINGS[src]
    for dst, l in BRUTE_FORCE_RINGS.items():
        for unit_map in enumerate_unit_homs(k, l):
            res = strong_extension_search(k, l, unit_map)
            assert res.verdict != "unknown"
            assert (res.verdict == "extends") == _some_strong_extension(k, l, unit_map)
