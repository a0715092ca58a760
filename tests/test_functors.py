import itertools
import signal

import pytest

import hyperalg as ha
from hyperalg import functors
from hyperalg.core import CarrierTooLarge, bits, mask_of
from hyperalg.fuzzy import (
    FiniteFuzzyRing,
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
    _OrbitClosure,
    _unit_action,
    check_roundtrips,
    check_roundtrips_fuzzy,
    is_field_like,
    strong_extension_search,
    unit_field,
    unit_field_z,
)
from hyperalg.hyper import (
    builtin,
    check_hyperfield,
    cyclic_group,
    galois_field,
    iso_hyper,
    khef,
    quotient,
)

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
            F_obj(ha.hyper.field_hyperfield(13))
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


def _unit_orbits(k):
    """The orbits {ux : u a unit} of the first unseen x, as the search built
    them before its unit-action table; they miss x when 1x != x."""
    seen = set()
    orbits = []
    for x in range(k.n):
        if x in seen:
            continue
        orb = sorted({k.mul[u][x] for u in k.units})
        seen.update(orb)
        orbits.append(orb)
    return orbits


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


def test_extension_search_takes_one_entry_changes(signfuzzy_changes, f_signs_mul_1_2_zero):
    # tables that are not fuzzy rings: orbits led by their first element
    # cover x where 1x != x, and a unit product outside the units rejects
    # the unit map, so no search raises a TypeError or a KeyError
    verdicts = set()
    for m in [*signfuzzy_changes, f_signs_mul_1_2_zero]:
        pairs = [(m, o) for o in (sign_fuzzy(), krasner_fuzzy())]
        for k, l in pairs + [(l, k) for k, l in pairs]:
            for unit_map in enumerate_unit_homs(k, l):
                if set(unit_map) != set(k.units):  # 1 is not a unit of k
                    with pytest.raises(ValueError, match="exactly on the units"):
                        strong_extension_search(k, l, unit_map)
                    continue
                res = strong_extension_search(k, l, unit_map)
                verdicts.add(res.verdict)
                if res.verdict == "extends":
                    assert check_strong_morphism(k, l, res.witness).accepted
    assert verdicts == {"extends", "refuted"}


# --- the orbit closure against the plain one ------------------------------------


def _c5_search():
    """The K[C5] decision of acceptance 5: F(K[C5] u {e,f}) -> F(K[C5]),
    the identity on units."""
    src, dst = F_obj(khef(cyclic_group(5))), F_obj(builtin("kh-c5"))
    unit_map = {src.embed[u]: dst.embed[u] for u in src.base.units}
    return src.fuzzy, dst.fuzzy, unit_map


def _closure(k, l, unit_map):
    return _OrbitClosure(k, l, unit_map, *_unit_action(k, l, unit_map))


def _pool_searches():
    jobs = [
        (k, l, unit_map)
        for k in DECIDE_POOL.values()
        for l in DECIDE_POOL.values()
        for unit_map in enumerate_unit_homs(k, l)
    ]
    return jobs + [_c5_search()]


def test_orbit_closure_matches_trivial_group(monkeypatch):
    jobs = _pool_searches()
    acting = [len(k.units) > 1 and k._units_act and l._units_act for k, l, _ in jobs]
    assert sum(acting) > len(jobs) // 2 and acting[-1]
    orbits = [strong_extension_search(k, l, unit_map) for k, l, unit_map in jobs]
    # with the law flag False every search runs the plain closure
    monkeypatch.setattr(FiniteFuzzyRing, "_units_act", property(lambda k: False))
    plain = [strong_extension_search(k, l, unit_map) for k, l, unit_map in jobs]
    assert orbits == plain
    assert plain[-1].verdict == "extends"
    assert (plain[-1].nodes, plain[-1].full_checks) == (678, 1)


def _failing_laws(k):
    """The unit-action laws of `FiniteFuzzyRing._units_act` that fail on k,
    by loops over the tables."""
    n, add, mul = k.n, k.add, k.mul
    failed = set()
    if any(mul[1][x] != x for x in range(n)):
        failed.add("1x = x")
    for u in k.units:
        mu = mul[u]
        if mu[0] != 0:
            failed.add("u0 = 0")
        for x in range(n):
            if k.is_null(mu[x]) != k.is_null(x):
                failed.add("ux null iff x null")
            for y in range(n):
                if mu[add[x][y]] != add[mu[x]][mu[y]]:
                    failed.add("u(x+y) = ux+uy")
                if mu[mul[x][y]] != mul[mu[x]][y]:
                    failed.add("u(xy) = (ux)y")
                if mu[mul[x][y]] != mul[x][mu[y]]:
                    failed.add("u(xy) = x(uy)")
    return failed


# one entry of F(signs) changed; units and their products stay as they were,
# and every element stays in some unit orbit, as the search needs
LAW_BREAKERS = {
    "1x = x": ("mul", 1, 4, 1),
    "u0 = 0": ("mul", 3, 0, 2),
    "ux null iff x null": ("mul", 3, 2, 3),
    "u(x+y) = ux+uy": ("add", 0, 0, 1),
    "u(xy) = (ux)y": ("mul", 2, 0, 5),
    "u(xy) = x(uy)": ("mul", 0, 1, 5),
}


def _broken(law):
    k = DECIDE_POOL["F(signs)"]
    table, x, y, value = LAW_BREAKERS[law]
    tables = {"add": [list(r) for r in k.add], "mul": [list(r) for r in k.mul]}
    tables[table][x][y] = value
    add, mul = (tuple(map(tuple, tables[t])) for t in ("add", "mul"))
    return FiniteFuzzyRing(k.n, add, mul, k.epsilon, k.k0, f"F(signs) without {law}")


def test_units_act_matches_loops():
    for k in DECIDE_POOL.values():
        assert k._units_act == (not _failing_laws(k)), k.name


@pytest.mark.parametrize("law", sorted(LAW_BREAKERS))
def test_broken_law_gives_trivial_group(law):
    m = _broken(law)
    assert law in _failing_laws(m)
    assert not m._units_act
    k = DECIDE_POOL["F(signs)"]
    assert m.units == k.units and len(m.units) > 1
    small = [l for l in DECIDE_POOL.values() if l.n <= 7]
    for src, dst in [(m, l) for l in small] + [(l, m) for l in small]:
        for unit_map in enumerate_unit_homs(src, dst):
            closure = _closure(src, dst, unit_map)
            assert closure.kact == [(s,) for s in range(src.n)]
            new = strong_extension_search(src, dst, unit_map)
            old = _pairwise_search(src, dst, unit_map)
            assert new.verdict != "unknown"
            if old.verdict != "unknown":
                assert new.verdict == old.verdict, (src.name, dst.name, unit_map)


def _closed_by_sets(closure, k, l, g):
    """Is the set of pairs the closure marks closed under every product
    (ab, g(a)g(b)), by Python sets?"""
    w = closure.width
    reached = {divmod(c, w) for c, hit in enumerate(closure.seen) if hit}
    gens = {(k.mul[a][b], l.mul[g[a]][g[b]]) for a in range(k.n) for b in range(k.n)}
    return all((k.add[s][x], l.add[t][y]) in reached for s, t in reached for x, y in gens)


def test_leaf_test_matches_sets_on_partial_closures():
    # grow a closure by the products of one element at a time; the leaf's
    # test must say what the sets say at every step
    answers = set()
    jobs = [job for job in _pool_searches()[:-1] if 7 <= job[0].n <= 15]
    for k, l, unit_map in jobs[::8]:
        res = strong_extension_search(k, l, unit_map)
        if res.verdict != "extends":
            continue
        g = res.witness
        closure = _closure(k, l, unit_map)
        closure.level((u, unit_map[u]) for u in k.units)
        for a in range(k.n):
            closure.level((k.mul[a][b], l.mul[g[a]][g[b]]) for b in range(k.n))
            closed = closure.holds_closure_of(k, l, g)
            assert closed == _closed_by_sets(closure, k, l, g), (k.name, l.name, a)
            answers.add(closed)
    assert answers == {False, True}


def test_levels_mark_whole_orbits_and_undo_restores_them():
    k, l, unit_map = _c5_search()
    g = strong_extension_search(k, l, unit_map).witness
    closure = _closure(k, l, unit_map)
    assert len(closure.kact[1]) == len(k.units) == 5
    assert closure.level((u, unit_map[u]) for u in k.units)
    states = []
    for a in range(2, 40):
        states.append((bytes(closure.seen), list(closure.pairs), list(closure.gens)))
        assert closure.level((k.mul[a][b], l.mul[g[a]][g[b]]) for b in range(k.n))
        w = closure.width
        orbits = {
            s2 * w + t2
            for s, t in closure.pairs
            for s2, t2 in zip(closure.kact[s], closure.lact[t])
        }
        assert orbits == {c for c, hit in enumerate(closure.seen) if hit}
        assert 3 * len(closure.pairs) < len(orbits)
    for state in reversed(states):
        closure.undo()
        assert (bytes(closure.seen), closure.pairs, closure.gens) == state


def test_leaf_test_matches_sets_and_falls_back(monkeypatch):
    k, l, unit_map = _c5_search()
    res = strong_extension_search(k, l, unit_map)
    g = res.witness
    # only the base level: the closure misses most products of g
    closure = _closure(k, l, unit_map)
    assert closure.level((u, unit_map[u]) for u in k.units)
    assert not closure.holds_closure_of(k, l, g)
    assert not _closed_by_sets(closure, k, l, g)
    # a leaf whose closedness test fails goes through check_strong_morphism
    calls = []

    def counted(*args):
        calls.append(args)
        return check_strong_morphism(*args)

    monkeypatch.setattr(_OrbitClosure, "holds_closure_of", lambda *args: False)
    monkeypatch.setattr(functors, "check_strong_morphism", counted)
    assert strong_extension_search(k, l, unit_map) == res
    assert len(calls) == res.full_checks == 1
