"""Grassmann-Pluecker functions over hyperfields and fuzzy rings, the
enumeration counts, and cross-checks of the two verification routes."""

import itertools
import math
import random
import time
from dataclasses import replace

import pytest

from hyperalg import ddhyper, functors, fuzzy, hyper, matroid
from hyperalg.core import CarrierTooLarge


SIGN_RULE_COEFFS = {
    "krasner": hyper.krasner,
    "signs": hyper.signs,
    "krasnerfuzzy": fuzzy.krasner_fuzzy,
    "signfuzzy": fuzzy.sign_fuzzy,
}


@pytest.mark.parametrize("r", [2, 3])
@pytest.mark.parametrize("name", sorted(SIGN_RULE_COEFFS))
def test_sign_rule(name, r):
    # a transposition multiplies by -1 and a repeated entry gives 0, for
    # every value assignment on a 4-element ground set
    c = SIGN_RULE_COEFFS[name]()
    n = 4
    for vals in itertools.product([0, *c.units], repeat=math.comb(n, r)):
        if not any(vals):
            continue
        phi = matroid.GPFunction(n, r, vals, c)
        for t in itertools.combinations(range(n), r):
            swapped = (t[1], t[0]) + t[2:]
            assert phi.value(swapped) == c.mul[c.minus_one][phi.value(t)]
            assert phi.value((t[0],) + t[1:-1] + (t[0],)) == 0


def test_sign_rule_signs():
    s = hyper.signs()
    phi = matroid.GPFunction(3, 2, (1, 1, 1), s)
    assert phi.value((0, 1)) == 1
    assert phi.value((1, 0)) == 2  # odd permutation flips the sign
    assert phi.value((0, 0)) == 0


def test_gpfunction_rejects_zero_and_nonunits():
    k = hyper.krasner()
    with pytest.raises(ValueError):
        matroid.GPFunction(3, 2, (0, 0, 0), k)
    s = fuzzy.sign_fuzzy()
    with pytest.raises(ValueError):
        matroid.GPFunction(3, 2, (3, 1, 1), s)  # 3 is null, not a unit


def _stirling2(m, p):
    if m == p:
        return 1
    if p == 0 or p > m:
        return 0
    return p * _stirling2(m - 1, p) + _stirling2(m - 1, p - 1)


def _rank2_matroids(n):
    """Rank-2 matroids on n labelled elements: pick m nonloops and split
    them into p >= 2 parallel classes."""
    return sum(
        math.comb(n, m) * _stirling2(m, p)
        for m in range(2, n + 1)
        for p in range(2, m + 1)
    )


@pytest.mark.parametrize(
    "n,r,count",
    [(3, 1, 7), (4, 2, 36), (5, 2, 171), (6, 2, _rank2_matroids(6))],
)
def test_krasner_counts_match_matroid_counts(n, r, count):
    k = hyper.krasner()
    fns = matroid.enumerate_gp(k, n, r)
    assert len(fns) == count
    # over the two-element hyperfield a valid function is exactly a matroid
    oracle = matroid.basis_exchange_oracle(n, r)
    assert len(oracle) == count
    assert {phi.support() for phi in fns} == set(map(tuple, oracle))


def test_oracle_trivial_rank():
    assert len(matroid.basis_exchange_oracle(4, 4)) == 1


def test_signs_counts():
    s = hyper.signs()
    fns = matroid.enumerate_gp(s, 4, 2)
    assert len(fns) == 292
    normalized = matroid.enumerate_gp(s, 4, 2, normalize=True)
    assert len(normalized) == 146


def test_signs_of_minors_is_valid():
    # column signs of the 2x4 matrix [[1,0,1,1],[0,1,1,2]]
    s = hyper.signs()
    cols = [(1, 0), (0, 1), (1, 1), (1, 2)]
    vals = []
    for i, j in itertools.combinations(range(4), 2):
        det = cols[i][0] * cols[j][1] - cols[i][1] * cols[j][0]
        vals.append(0 if det == 0 else (1 if det > 0 else 2))
    phi = matroid.GPFunction(4, 2, tuple(vals), s)
    assert matroid.verify_gp(phi).passed


@pytest.mark.parametrize("slot", [2, 3])
def test_flipped_minor_sign_fails(slot):
    s = hyper.signs()
    vals = [1, 1, 1, 2, 2, 1]
    vals[slot] = {1: 2, 2: 1}[vals[slot]]
    phi = matroid.GPFunction(4, 2, tuple(vals), s)
    rep = matroid.verify_gp(phi)
    assert not rep.passed
    assert ((0, 1, 2), (3,)) in [w for _, w in rep.violations]


def _reference_violations(phi):
    """The exchange-relation sweep written out term by term through value():
    the oracle of the compiled relations in verify_gp."""
    c = phi.coefficient
    n, r = phi.ground_size, phi.rank
    out = []
    for x in itertools.combinations(range(n), r + 1):
        for y in itertools.combinations(range(n), r - 1):
            terms = []
            for k in range(len(x)):
                t = c.mul[phi.value(x[:k] + x[k + 1 :])][phi.value((x[k],) + y)]
                terms.append(c.mul[c.minus_one][t] if k & 1 else t)
            if not c.sum_is_null(terms):
                out.append(("GP3", (x, y)))
    return out


GP_SIZES = [(n, r) for n in range(1, 5) for r in range(1, n + 1)]
DIFFERENTIAL_COEFFS = {
    "krasner": hyper.krasner,
    "signs": hyper.signs,
    "gf3": lambda: hyper.builtin("gf3"),
    "krasnerfuzzy": fuzzy.krasner_fuzzy,
    "signfuzzy": fuzzy.sign_fuzzy,
}


def _assert_matches_reference(c, sizes):
    checked = 0
    for n, r in sizes:
        for vals in itertools.product([0, *c.units], repeat=math.comb(n, r)):
            if not any(vals):
                continue
            phi = matroid.GPFunction(n, r, vals, c)
            assert list(matroid.verify_gp(phi).violations) == _reference_violations(phi)
            checked += 1
    return checked


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_COEFFS))
def test_verify_gp_matches_reference(name):
    # every nonzero assignment for 1 <= r <= n <= 4
    assert _assert_matches_reference(DIFFERENTIAL_COEFFS[name](), GP_SIZES) > 0


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_COEFFS))
def test_verify_gp_matches_reference_perturbed(name, seed):
    # one mul entry changed, row and column 0 and the row of -1 included: on
    # a table that is not a field's the signs, the parities and the terms
    # that are zero on a field all show in the sums
    perturbed = _perturbed_mul(DIFFERENTIAL_COEFFS[name](), f"{name}-{seed}")
    assert _assert_matches_reference(perturbed, [(3, 2), (4, 2)]) > 0


def _perturbed_mul(c, seed):
    """c with one mul entry changed at random, keeping at least one unit."""
    rng = random.Random(seed)
    perturbed = c
    while perturbed.mul == c.mul or not perturbed.units:
        i, j = rng.randrange(c.n), rng.randrange(c.n)
        perturbed = _with_mul_entry(c, i, j, rng.randrange(c.n))
    return perturbed


@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_COEFFS))
def test_verify_gp_matches_reference_negated_zero(name):
    # (-1) * 0 = 1: the sign rule must leave a zero value alone
    c = DIFFERENTIAL_COEFFS[name]()
    perturbed = _with_mul_entry(c, c.minus_one, 0, 1)
    assert _assert_matches_reference(perturbed, [(3, 2), (4, 2)]) > 0


def _with_mul_entry(c, i, j, value):
    rows = [list(row) for row in c.mul]
    rows[i][j] = value
    return replace(c, mul=tuple(map(tuple, rows)))


def test_non_gp_witnesses_pinned():
    # slots (01, 02, 03, 12, 13, 23) = (+, +, -, -, -, +): in the one
    # three-term relation chi01 chi23 - chi02 chi13 + chi03 chi12 every term
    # is +, so each (x, y) with y outside x fails; with y inside x the
    # relation has two terms and holds by the sign rule
    s = hyper.signs()
    vals = (1, 1, 2, 2, 2, 1)
    phi = matroid.GPFunction(4, 2, vals, s)
    assert list(matroid.verify_gp(phi).violations) == [
        ("GP3", ((0, 1, 2), (3,))),
        ("GP3", ((0, 1, 3), (2,))),
        ("GP3", ((0, 2, 3), (1,))),
        ("GP3", ((1, 2, 3), (0,))),
    ]
    neg = s.mul[s.minus_one]
    chi = dict(zip(itertools.combinations(range(4), 2), vals))
    terms = [
        s.mul[chi[0, 1]][chi[2, 3]],
        neg[s.mul[chi[0, 2]][chi[1, 3]]],
        s.mul[chi[0, 3]][chi[1, 2]],
    ]
    assert terms == [1, 1, 1]


def _rank2_chirotopes(n):
    """Rank-2 chirotopes on n labelled elements, chi and -chi both counted.
    Pick m nonloops, split them into p >= 2 parallel classes, orient each
    class's members against its first one (2^(m-p)), and place the p lines
    around the circle with the other p-1 on either side of the first
    ((p-1)! 2^(p-1)); per partition that is 2^(m-1) (p-1)!."""
    return sum(
        math.comb(n, m) * 2 ** (m - 1) * _stirling2(m, p) * math.factorial(p - 1)
        for m in range(2, n + 1)
        for p in range(2, m + 1)
    )


def test_signs_reach_n5():
    # 3^10 candidates per rank; rank 2 and rank 3 correspond by duality
    assert _rank2_chirotopes(4) == 292
    s = hyper.signs()
    start = time.perf_counter()
    counts = [len(matroid.enumerate_gp(s, 5, r)) for r in (2, 3)]
    normalized = [len(matroid.enumerate_gp(s, 5, r, normalize=True)) for r in (2, 3)]
    elapsed = time.perf_counter() - start
    assert counts == [_rank2_chirotopes(5)] * 2 == [3604] * 2
    assert normalized == [c // 2 for c in counts]
    assert elapsed < 30


def test_signs_reach_n6_rank2():
    # 3^15 candidates, out of reach for a loop over every assignment
    s = hyper.signs()
    start = time.perf_counter()
    count = len(matroid.enumerate_gp(s, 6, 2))
    elapsed = time.perf_counter() - start
    assert count == _rank2_chirotopes(6) == 52326
    assert elapsed < 60


def test_enumeration_node_cap(monkeypatch):
    monkeypatch.setattr(matroid, "ENUM_NODE_CAP", 100)
    # krasner (3, 1) tries at most 2 + 4 + 8 values
    assert len(matroid.enumerate_gp(hyper.krasner(), 3, 1)) == 7
    with pytest.raises(ValueError, match="search node cap ENUM_NODE_CAP = 100"):
        matroid.enumerate_gp(hyper.signs(), 4, 2)
    with pytest.raises(ValueError, match="capped at n <= 6, r <= 3"):
        matroid.enumerate_gp(hyper.krasner(), 7, 1)


def _brute_force_gp(f, n, r, normalize=False):
    """Every assignment in itertools.product order, checked in full: the
    oracle of enumerate_gp's search."""
    slots = math.comb(n, r)
    choices = [0, *f.units]
    out = []
    for values in itertools.product(choices, repeat=slots):
        if all(v == 0 for v in values):
            continue
        if normalize:
            first = next(v for v in values if v != 0)
            if first != 1:
                continue
        phi = matroid.GPFunction(n, r, values, f)
        if matroid._gp_holds(phi):
            out.append(phi)
    return out


ENUM_COEFFS = {
    "krasner": hyper.krasner,
    "signs": hyper.signs,
    "gf3": lambda: hyper.builtin("gf3"),
    "F(krasner)": lambda: functors.F_obj(hyper.krasner()).fuzzy,
    "F(signs)": lambda: functors.F_obj(hyper.signs()).fuzzy,
    "Fbar(signs)": lambda: ddhyper.Fbar(hyper.signs()),
    "krasnerfuzzy": fuzzy.krasner_fuzzy,
    "signfuzzy": fuzzy.sign_fuzzy,
}


def _assert_enumeration_matches(c, sizes, normalize):
    found = 0
    for n, r in sizes:
        values = [phi.values for phi in matroid.enumerate_gp(c, n, r, normalize)]
        assert values == [
            phi.values for phi in _brute_force_gp(c, n, r, normalize)
        ], (n, r)
        found += len(values)
    return found


@pytest.mark.parametrize("normalize", [False, True])
@pytest.mark.parametrize("name", sorted(ENUM_COEFFS))
def test_enumerate_gp_matches_brute_force(name, normalize):
    # n <= 5 with one unit, n <= 4 with two (signs at n = 5 in reach tests);
    # r = n + 1 has no slots and gives an empty list
    c = ENUM_COEFFS[name]()
    top = 5 if len(c.units) == 1 else 4
    sizes = [(n, r) for n in range(top + 1) for r in range(min(n, 3) + 1)]
    assert _assert_enumeration_matches(c, sizes, normalize) > 0
    for n in range(3):
        assert matroid.enumerate_gp(c, n, n + 1, normalize) == []
        assert _brute_force_gp(c, n, n + 1, normalize) == []


@pytest.mark.parametrize("seed", range(4))
@pytest.mark.parametrize("name", sorted(DIFFERENTIAL_COEFFS))
def test_enumerate_gp_matches_brute_force_perturbed(name, seed):
    # on a table that is not a field's the pruning must still be exact: a
    # relation is decided from the slots up to its last one
    c = _perturbed_mul(DIFFERENTIAL_COEFFS[name](), f"{name}-{seed}")
    negated_zero = _with_mul_entry(DIFFERENTIAL_COEFFS[name](), c.minus_one, 0, 1)
    for coeff in (c, negated_zero):
        for normalize in (False, True):
            _assert_enumeration_matches(coeff, [(3, 2), (4, 2), (4, 3)], normalize)


def test_scaling_invariance():
    s = hyper.signs()
    for phi in matroid.enumerate_gp(s, 3, 2):
        for u in s.units:
            scaled = matroid.scale_gp(phi, u)
            assert matroid.verify_gp(scaled).passed == matroid.verify_gp(phi).passed


def test_pushforward_signs_to_krasner():
    # forgetting signs (collapsing both units to 1) keeps validity
    s, k = hyper.signs(), hyper.krasner()
    for phi in matroid.enumerate_gp(s, 4, 2, normalize=True):
        pushed = matroid.pushforward_gp(phi, {0: 0, 1: 1, 2: 1}, k)
        assert matroid.verify_gp(pushed).passed


@pytest.mark.parametrize(
    "name,n,r",
    [("krasner", 4, 2), ("signs", 3, 1), ("signs", 4, 2)],
)
def test_onetoone_hyper_vs_powerset(name, n, r):
    h = hyper.builtin(name)
    fk = functors.F_obj(h)
    fb = ddhyper.Fbar(h)
    femb = ddhyper.fbar_embed(h)
    space = itertools.product([0, *h.units], repeat=math.comb(n, r))
    for vals in space:
        if not any(vals):
            continue
        phi = matroid.GPFunction(n, r, vals, h)
        rep = matroid.cross_check_onetoone(phi, h, fk, fb, femb)
        assert rep.agrees
        assert rep.fuzzy_valid == rep.hyper_valid == rep.reduced_valid
        # the two coefficient kinds fail on the same relations, not only
        # on the same functions
        on_fk = matroid.verify_gp(matroid.transport_to_powerset(phi, fk))
        assert on_fk.violations == matroid.verify_gp(phi).violations


def test_onetoone_g_direction():
    k = fuzzy.sign_fuzzy()
    g = functors.G_obj(k)
    for vals in itertools.product([0, 1, 2], repeat=3):
        if not any(vals):
            continue
        phi = matroid.GPFunction(3, 1, vals, k)
        rep = matroid.cross_check_onetoone_G(phi, k, g)
        assert rep.agrees


def test_underlying_matroid_is_support():
    k = hyper.krasner()
    phi = matroid.GPFunction(4, 2, (1, 0, 1, 1, 0, 1), k)
    assert matroid.underlying_matroid(phi) == ((0, 1), (0, 3), (1, 2), (2, 3))


@pytest.mark.parametrize("name", sorted(SIGN_RULE_COEFFS))
def test_rank_0_relations_hold_vacuously(name):
    c = SIGN_RULE_COEFFS[name]()
    for n in (0, 1, 3):
        for u in c.units:
            assert matroid.verify_gp(matroid.GPFunction(n, 0, (u,), c)).passed
        assert [phi.values for phi in matroid.enumerate_gp(c, n, 0)] == [
            (u,) for u in c.units
        ]
        normalized = matroid.enumerate_gp(c, n, 0, normalize=True)
        assert [phi.values for phi in normalized] == [(1,)]


def test_gp_plan_size_bound():
    # every enumerable size is admitted: (6, 3) has 15 * 15 relations
    assert len(matroid._gp_plan(6, 3)) == 225 <= matroid.MAX_GP_RELATIONS
    cached = matroid._gp_plan.cache_info().currsize
    # (12, 6) is refused from the sizes alone, and nothing is cached
    with pytest.raises(CarrierTooLarge, match="627264 exchange relations"):
        matroid._gp_plan(12, 6)
    assert matroid._gp_plan.cache_info().currsize == cached
    phi = matroid.GPFunction(12, 6, (1,) * math.comb(12, 6), hyper.signs())
    with pytest.raises(CarrierTooLarge):
        matroid.verify_gp(phi)
