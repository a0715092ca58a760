import itertools

import pytest
from hypothesis import given, settings, strategies as st

from hyperalg import ddhyper, functors, hyper
from hyperalg.core import (
    bits,
    extend_hyperop,
    family_tables,
    iterated_hypersum,
    mask_mul,
    mask_of,
    powerset_cap,
    subset_order,
)
from hyperalg.hyper import BUILTIN_HYPERRINGS, builtin, krasner, signs


def test_bits_mask_roundtrip():
    assert list(bits(0b10110)) == [1, 2, 4]
    assert mask_of([1, 2, 4]) == 0b10110
    assert mask_of([]) == 0


@given(st.sets(st.integers(min_value=0, max_value=20)))
def test_mask_of_bits_inverse(s):
    assert set(bits(mask_of(s))) == s


def test_extend_hyperop_krasner():
    k = krasner()
    # {0,1} + {1} = (0+1) u (1+1) = {1} u {0,1} = {0,1}
    assert extend_hyperop(k.add, 0b11, 0b10) == 0b11
    assert extend_hyperop(k.add, 0, 0b10) == 0
    assert extend_hyperop(k.add, 0b10, 0) == 0


@given(
    st.integers(min_value=0, max_value=7),
    st.integers(min_value=0, max_value=7),
)
def test_extend_commutes_on_signs(a, b):
    s = signs()
    assert extend_hyperop(s.add, a, b) == extend_hyperop(s.add, b, a)
    assert mask_mul(s.mul, a, b) == mask_mul(s.mul, b, a)


@given(st.lists(st.integers(min_value=0, max_value=2), min_size=1, max_size=6))
def test_hypersum_permutation_invariant(elems):
    s = signs()
    base = iterated_hypersum(s.add, elems)
    for p in itertools.permutations(elems):
        assert iterated_hypersum(s.add, list(p)) == base


def test_iterated_hypersum_empty_rejected():
    with pytest.raises(ValueError):
        iterated_hypersum(signs().add, [])


def test_subset_order_zero_one_first():
    order = subset_order(3)
    assert order[:2] == [1, 2]
    assert sorted(order) == list(range(1, 8))
    with_empty = subset_order(3, include_empty=True)
    assert with_empty[:2] == [1, 2]
    assert 0 in with_empty and len(with_empty) == 8


def test_powerset_cap_env(monkeypatch):
    monkeypatch.setenv("HYPERALG_MAX_POWERSET", "10")
    assert powerset_cap() == 10
    monkeypatch.setenv("HYPERALG_MAX_POWERSET", "99")
    assert powerset_cap() == 16  # hard cap
    monkeypatch.delenv("HYPERALG_MAX_POWERSET")
    assert powerset_cap() == 8


# --- family tables: the pair loop is the oracle of the vectorized version ---


def _pair_loop_tables(add, mul, family):
    """family_tables before vectorization: extend_hyperop and mask_mul on
    every pair of the upper triangle, mirrored; KeyError on the first mask
    outside the family, + before x."""
    index = {m: i for i, m in enumerate(family)}
    m = len(family)
    add_t = [[0] * m for _ in range(m)]
    mul_t = [[0] * m for _ in range(m)]
    for i, mi in enumerate(family):
        for j in range(i, m):
            mj = family[j]
            add_t[i][j] = add_t[j][i] = index[extend_hyperop(add, mi, mj)]
            mul_t[i][j] = mul_t[j][i] = index[mask_mul(mul, mi, mj)]
    return add_t, mul_t


def _outcome(build, h, family):
    """The tables, or ("KeyError", mask) for a sum or product outside."""
    try:
        return build(h.add, h.mul, list(family))
    except KeyError as e:
        return "KeyError", e.args


PARTIAL = {
    "unitfield-z": functors.unit_field_z,
    "unitfield-gf5": lambda: functors.unit_field(builtin("gf5")),
}
ALL_RINGS = {**BUILTIN_HYPERRINGS, **PARTIAL}


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_family_tables_match_pair_loop_on_subset_order(name):
    h = ALL_RINGS[name]()
    family = subset_order(h.n, include_empty=h.partial)
    expected = _outcome(_pair_loop_tables, h, family)
    assert expected[0] != "KeyError"
    assert _outcome(family_tables, h, family) == expected


@pytest.mark.parametrize("name", sorted(ALL_RINGS))
def test_family_tables_match_pair_loop_on_closure(name):
    h = ALL_RINGS[name]()
    family = ddhyper.closure_S(h).family
    assert _outcome(family_tables, h, family) == _outcome(
        _pair_loop_tables, h, family
    )


def test_family_tables_key_error_is_first_outside_mask():
    s = signs()
    # {1} + {-1} = {0, 1, -1} is the first sum outside the singletons
    assert _outcome(family_tables, s, [1, 2, 4]) == ("KeyError", (7,))
    # every sum stays inside; {0, 1} x {-1} = {0, -1} is the first product out
    assert _outcome(family_tables, s, [3, 4, 7]) == ("KeyError", (5,))
    # {3} + {3} = {1} and {3} x {3} = {4} in GF(5): the sum is reported
    assert _outcome(family_tables, builtin("gf5"), [8]) == ("KeyError", (2,))


@settings(max_examples=200, deadline=None)
@given(
    st.sampled_from(["krasner", "signs", "gf3", "gf4", "kh-klein4", "unitfield-z"]),
    st.data(),
)
def test_family_tables_match_pair_loop_on_any_family(name, data):
    h = ALL_RINGS[name]()
    masks = subset_order(h.n, include_empty=h.partial)
    family = data.draw(st.lists(st.sampled_from(masks), min_size=1, unique=True))
    assert _outcome(family_tables, h, family) == _outcome(
        _pair_loop_tables, h, family
    )


def test_family_tables_mirror_upper_triangle():
    # a non-commutative hand-built table: both versions read the upper
    # triangle only, so the tables stay symmetric
    h = builtin("kh-klein4")
    add = [list(row) for row in h.add]
    add[3][2] ^= 1 << 4
    family = subset_order(h.n)
    tables = family_tables(add, h.mul, family)
    assert tables == _pair_loop_tables(add, h.mul, family)
    assert tables != family_tables(h.add, h.mul, family)


def test_family_tables_high_bits():
    # singletons of GF(61): masks up to bit 60, with no 2^61 array built
    h = hyper.field_hyperfield(61)
    family = ddhyper.closure_S(h).family
    assert _outcome(family_tables, h, family) == _outcome(
        _pair_loop_tables, h, family
    )


def test_family_tables_gf9(monkeypatch):
    monkeypatch.setenv("HYPERALG_MAX_POWERSET", "9")
    h = hyper.field_hyperfield(9)
    fk = functors.F_obj(h)
    add, mul = _pair_loop_tables(h.add, h.mul, fk.masks)
    assert fk.fuzzy.n == 511
    assert fk.fuzzy.add == tuple(map(tuple, add))
    assert fk.fuzzy.mul == tuple(map(tuple, mul))


def test_f1_witness_from_key_error(monkeypatch):
    # with the quadruple check passed over, F1 reports the first mask that
    # leaves the sum closure, as the pair loop meets it
    h = builtin("kh-klein4")
    _, (mask,) = _outcome(_pair_loop_tables, h, ddhyper.closure_S(h).family)
    monkeypatch.setattr(
        ddhyper, "check_doubly_distributive", lambda f: hyper.AxiomReport(True)
    )
    with pytest.raises(ddhyper.NotDoublyDistributive) as e:
        ddhyper.F1(h)
    assert e.value.witness == mask
