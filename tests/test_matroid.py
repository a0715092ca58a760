"""Grassmann-Pluecker functions over hyperfields and fuzzy rings, the
enumeration counts, and cross-checks of the two verification routes."""

import itertools

import pytest

from hyperalg import ddhyper, functors, fuzzy, hyper, matroid


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
    for vals in itertools.product([0, *c.units], repeat=matroid._ncr(n, r)):
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


@pytest.mark.parametrize(
    "n,r,count",
    [(3, 1, 7), (4, 2, 36), (5, 2, 171)],
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
    space = itertools.product([0, *h.units], repeat=matroid._ncr(n, r))
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
