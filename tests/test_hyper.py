import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

import hyperalg as ha
from hyperalg import ddhyper
from hyperalg.core import iterated_hypersum, mask_of
from hyperalg.hyper import (
    BUILTIN_HYPERRINGS,
    builtin,
    check_canonical_hypergroup,
    check_doubly_distributive,
    check_hom,
    check_hyperfield,
    check_hyperring,
    cyclic_group,
    enumerate_homs,
    field_hyperfield,
    galois_field,
    iso_hyper,
    kh,
    khef,
    klein_four,
    krasner,
    make_hyperring,
    quotient,
    ring_as_hyperring,
    signs,
)

ALL_BUILTINS = sorted(BUILTIN_HYPERRINGS)


@pytest.mark.parametrize("name", ALL_BUILTINS)
def test_builtins_are_hyperrings(name):
    assert check_hyperring(builtin(name)).passed


@pytest.mark.parametrize(
    "name", [n for n in ALL_BUILTINS if n != "khef-klein4"]
)
def test_builtin_hyperfields(name):
    assert check_hyperfield(builtin(name)).passed


def test_khef_is_not_a_hyperfield():
    # e and f are multiplicatively idempotent zero divisors
    rep = check_hyperfield(builtin("khef-klein4"))
    assert not rep.passed
    assert any(label == "nonzero-invertible" for label, _ in rep.violations)


def test_krasner_table():
    k = krasner()
    assert k.n == 2
    assert k.add[1][1] == 0b11  # 1+1 = {0,1}
    assert k.add[1][0] == 0b10
    assert k.mul[1][1] == 1


def test_signs_table():
    s = signs()
    assert s.n == 3
    assert s.neg[1] == 2
    assert s.add[1][2] == 0b111  # 1 + (-1) = {0,1,-1}
    assert s.add[1][1] == 0b010  # 1 + 1 = {1}
    assert s.mul[2][2] == 1  # (-1)(-1) = 1


@pytest.mark.parametrize("q", [2, 3, 4, 5, 7, 8, 9])
def test_galois_fields(q):
    f = field_hyperfield(q)
    assert f.n == q
    assert check_hyperfield(f).passed
    assert check_doubly_distributive(f).passed  # single-valued sums


def _dd_failures_brute_force(h):
    """Quadruples with (a+b)(c+d) != ac+ad+bc+bd, on Python sets."""
    def elems(mask):
        return {x for x in range(h.n) if mask >> x & 1}

    def hsum(xs):
        acc = {xs[0]}
        for y in xs[1:]:
            acc = set().union(*(elems(h.add[x][y]) for x in acc))
        return acc

    count = 0
    for a, b, c, d in itertools.product(range(h.n), repeat=4):
        left = {h.mul[x][y] for x in elems(h.add[a][b]) for y in elems(h.add[c][d])}
        right = hsum([h.mul[a][c], h.mul[a][d], h.mul[b][c], h.mul[b][d]])
        count += left != right
    return count


def test_doubly_distributive_reports_every_failure():
    h = builtin("kh-klein4")
    rep = check_doubly_distributive(h)
    assert len(rep.violations) == _dd_failures_brute_force(h) == 144
    assert rep.violations[0] == ("doubly-distributive", (1, 1, 1, 2))
    with pytest.raises(ddhyper.NotDoublyDistributive) as e:
        ddhyper.F1(h)
    assert e.value.args == ("not doubly distributive, witness (1, 1, 1, 2)",)


def test_gf4_has_characteristic_two():
    f = field_hyperfield(4)
    for a in range(4):
        assert f.add[a][a] == 1  # a + a = {0}
    assert f.neg == (0, 1, 2, 3)


def test_gf_rejects_non_prime_powers():
    with pytest.raises(ValueError):
        galois_field(6)


# --- quotient construction -------------------------------------------------


def test_quotient_gf4_by_full_units_is_krasner():
    # GF(4)^x is cyclic of order 3; collapsing it leaves {0, 1} with 1+1={0,1}
    q = quotient(galois_field(4), mask_of([1, 2, 3]))
    assert q.n == 2
    assert iso_hyper(q, krasner()) is not None
    assert check_hyperfield(q).passed


def test_quotient_gf5_by_squares():
    # U = {1,4}: three classes [0],[1],[2] with [1]+[1] = {[0],[2]}
    q = quotient(galois_field(5), mask_of([1, 4]))
    assert q.n == 3
    assert check_hyperfield(q).passed
    assert q.add[1][1] == 0b101  # {[0], [2]}


def test_quotient_rejects_non_subgroup():
    with pytest.raises(ValueError):
        quotient(galois_field(5), mask_of([1, 2]))


def test_ring_as_hyperring_roundtrip():
    h = ring_as_hyperring(galois_field(3))
    assert check_hyperring(h).passed
    for a, b in itertools.product(range(3), repeat=2):
        assert h.add[a][b].bit_count() == 1


# --- K[H] presentations ----------------------------------------------------


def test_kh_addition_rule():
    h = kh(klein_four())
    # distinct nonzero a,b: a+b = H minus {a,b}
    assert h.add[1][2] == mask_of([3, 4])
    assert h.add[1][1] == mask_of([0, 1])
    assert check_hyperfield(h).passed


def test_kh_requires_order_at_least_four():
    with pytest.raises(ValueError):
        kh(cyclic_group(3))


def test_khef_presentation():
    h = khef(klein_four())  # carrier: 0, H=1..4, e=5, f=6
    e, f = 5, 6
    assert h.mul[e][e] == e and h.mul[f][f] == f and h.mul[e][f] == 0
    for a in range(1, 5):
        assert h.mul[e][a] == e and h.mul[f][a] == f
    assert h.add[1][2] == mask_of([3, 4, e, f])
    assert h.add[e][e] == mask_of([0, e])
    assert h.add[e][f] == mask_of([1, 2, 3, 4])  # 1 in e+f
    assert check_hyperring(h).passed


# --- homomorphisms and isomorphism search ----------------------------------


def test_no_hom_krasner_to_signs():
    assert enumerate_homs(krasner(), signs()) == []


def test_hom_signs_to_krasner():
    homs = enumerate_homs(signs(), krasner())
    assert [dict(h) if isinstance(h, dict) else h for h in homs] == [(0, 1, 1)]
    assert check_hom((0, 1, 1), signs(), krasner()).passed


def _brute_force_homs(r, s, strict=False, fixed=None):
    """enumerate_homs before the backtracking: check_hom on every map in
    itertools.product order, sorted."""
    fixed = dict(fixed or {})
    fixed.setdefault(0, 0)
    fixed.setdefault(1, 1)
    free = [x for x in range(r.n) if x not in fixed]
    out = []
    for images in itertools.product(range(s.n), repeat=len(free)):
        f = [0] * r.n
        for x, y in fixed.items():
            f[x] = y
        for x, y in zip(free, images):
            f[x] = y
        if check_hom(f, r, s, strict=strict).passed:
            out.append(tuple(f))
    out.sort()
    return out


SMALL = ["krasner", "signs", "gf2", "gf3", "gf4", "gf5", "kh-klein4"]


@pytest.mark.parametrize("strict", [False, True])
@pytest.mark.parametrize("src, dst", list(itertools.product(SMALL, repeat=2)))
def test_enumerate_homs_matches_brute_force(src, dst, strict):
    r, s = builtin(src), builtin(dst)
    assert enumerate_homs(r, s, strict) == _brute_force_homs(r, s, strict)


@settings(max_examples=150, deadline=None)
@given(
    st.sampled_from(list(itertools.product(SMALL, repeat=2))),
    st.booleans(),
    st.data(),
)
def test_enumerate_homs_matches_brute_force_fixed(pair, strict, data):
    r, s = builtin(pair[0]), builtin(pair[1])
    keys = st.integers(min_value=0, max_value=r.n - 1)
    fixed = data.draw(st.dictionaries(keys, st.integers(-1, s.n), max_size=3))
    assert enumerate_homs(r, s, strict, fixed) == _brute_force_homs(
        r, s, strict, fixed
    )


def test_enumerate_homs_khef_to_kh():
    r, s = builtin("khef-klein4"), builtin("kh-klein4")
    homs = enumerate_homs(r, s)
    assert homs == _brute_force_homs(r, s)
    assert len(homs) == 2
    units = {h: h for h in r.units}
    assert enumerate_homs(r, s, fixed=units) == _brute_force_homs(r, s, fixed=units)


def test_strict_vs_nonstrict_hom():
    # signs -> krasner is a (containment) hom but not strict:
    # 1 + (-1) = {0,1,-1} maps onto {0,1} = 1+1, equality holds here;
    # 1 + 1 = {1} maps into 1+1 = {0,1} strictly
    assert check_hom((0, 1, 1), signs(), krasner(), strict=False).passed
    assert not check_hom((0, 1, 1), signs(), krasner(), strict=True).passed


def test_iso_rejects_different_structures():
    assert iso_hyper(krasner(), signs()) is None
    assert iso_hyper(field_hyperfield(4), kh(klein_four())) is None


def test_iso_finds_relabeling():
    s = signs()
    perm = (0, 1, 2)
    assert iso_hyper(s, s) == perm


def test_make_hyperring_rejects_missing_inverse():
    # 1+1={1} has no additive inverse for 1
    with pytest.raises(ValueError):
        make_hyperring(
            ((1, 2), (2, 2)),
            ((0, 0), (0, 1)),
        )


def test_partial_laws_read_where_defined():
    uz = ha.functors.unit_field_z()
    assert uz.partial
    assert check_canonical_hypergroup(uz).passed
    assert check_hyperring(uz).passed
    assert uz.add[1][1] == 0  # empty hypersum
    assert uz.add[1][2] == 1  # 1 + (-1) = {0}


@functools.cache
def _memo_ring(name):
    """One instance per name, so the fold memo stays warm across examples."""
    return ha.functors.unit_field_z() if name == "unitfield(Z)" else builtin(name)


MEMO_RINGS = [*sorted(BUILTIN_HYPERRINGS), "unitfield(Z)"]


@settings(max_examples=300, deadline=None)
@given(st.sampled_from(MEMO_RINGS), st.data())
def test_memoized_hsum_matches_iterated_hypersum(name, data):
    h = _memo_ring(name)
    elems = data.draw(st.lists(st.integers(0, h.n - 1), min_size=1, max_size=6))
    expected = iterated_hypersum(h.add, elems)
    for _ in range(2):  # cold, then warm memo
        assert h.hsum(elems) == expected
        assert h.sum_is_null(elems) == bool(expected & 1)


@pytest.mark.parametrize("name", MEMO_RINGS)
def test_memoized_hsum_rejects_empty_sum(name):
    h = _memo_ring(name)
    with pytest.raises(ValueError):
        h.hsum([])
    with pytest.raises(ValueError):
        h.sum_is_null([])


def test_memoized_hsum_keeps_partial_empty_sums_empty():
    uz = _memo_ring("unitfield(Z)")
    for _ in range(2):
        assert uz.hsum([1, 1]) == uz.hsum([1, 1, 2]) == 0  # 1 + 1 is empty
        assert not uz.sum_is_null([1, 1, 2])
