import itertools
import random
import time
from dataclasses import replace

import pytest

from hyperalg.core import bits, mask_of
from hyperalg.functors import F_obj
from hyperalg.fuzzy import (
    BUILTIN_FUZZY,
    _fr67_sweep,
    _tables,
    builtin_fuzzy,
    check_fuzzy_axioms,
    check_strong_morphism,
    check_weak_morphism,
    enumerate_unit_homs,
    enumerate_weak_morphisms,
    krasner_fuzzy,
    make_fuzzy_ring,
    ring_as_fuzzy,
    sign_fuzzy,
    weak_iso,
    weak_violation_by_enumeration,
)
from hyperalg.hyper import (
    BUILTIN_HYPERRINGS,
    builtin,
    field_hyperfield,
    galois_field,
    quotient,
)


@pytest.mark.parametrize("name", sorted(BUILTIN_FUZZY))
def test_builtin_fuzzy_axioms(name):
    assert check_fuzzy_axioms(builtin_fuzzy(name)).passed


def test_krasner_fuzzy_tables():
    k = krasner_fuzzy()
    assert k.n == 3
    assert k.epsilon == 1  # -1 = 1
    assert k.k0 == mask_of([0, 2])
    assert k.add[1][1] == 2  # 1 + 1 is the null element
    assert k.mul[2][2] == 2


def test_sign_fuzzy_tables():
    s = sign_fuzzy()
    assert s.n == 4
    assert s.epsilon == 2
    assert s.k0 == mask_of([0, 3])
    assert s.add[1][2] == 3  # 1 + (-1) null
    assert s.add[1][1] == 1
    assert s.mul[2][2] == 1


def test_epsilon_located_by_axiom():
    s = sign_fuzzy()
    rebuilt = make_fuzzy_ring(s.add, s.mul, s.k0)
    assert rebuilt.epsilon == 2
    with pytest.raises(ValueError):
        make_fuzzy_ring(s.add, s.mul, s.k0, epsilon=1)


def test_ring_as_fuzzy():
    k = ring_as_fuzzy(galois_field(5))
    assert check_fuzzy_axioms(k).passed
    assert k.k0 == 1  # only 0 is null
    assert k.epsilon == 4  # -1 mod 5


# --- FR6/FR7: null-set inclusions against the quadruple sweep ---------------


def _unit_subgroup(ring, d):
    """The subgroup {x : x^d = 1} of the cyclic unit group of a field."""
    def power(x):
        y = 1
        for _ in range(d):
            y = ring.mul[y][x]
        return y

    return mask_of(x for x in bits(ring.units_mask) if power(x) == 1)


def _small_corpus(max_carrier=6):
    """Builtin hyperrings and the quotients GF(q)/U (q <= 9, U a nontrivial
    unit subgroup) with at most `max_carrier` elements, so that F has at most
    63.  GF(q)/{1} is GF(q) itself, already a builtin."""
    out = {}
    for name in BUILTIN_HYPERRINGS:
        h = builtin(name)
        if h.n <= max_carrier:
            out[name] = h
    for q in (2, 3, 4, 5, 7, 8, 9):
        ring = galois_field(q)
        for d in range(2, q):
            if (q - 1) % d == 0 and 1 + (q - 1) // d <= max_carrier:
                out[f"gf{q}/U{d}"] = quotient(ring, _unit_subgroup(ring, d))
    return out


SMALL_CORPUS = _small_corpus()


def _sweep_violations(k):
    """The violation list with FR6 and FR7 taken from the quadruple sweep."""
    rep = check_fuzzy_axioms(k)
    head = [x for x in rep.violations if x[0] not in ("FR6", "FR7")]
    return head + _fr67_sweep(*_tables(k), k.epsilon)


def _perturbed(k, rng):
    """Change one symmetric add or mul entry off rows and columns 0 and 1, or
    toggle one K0 bit other than those of 0 and 1."""
    kind = rng.choice(("add", "mul", "k0"))
    if kind == "k0":
        return replace(k, k0=k.k0 ^ (1 << rng.randrange(2, k.n)))
    i, j = rng.randrange(2, k.n), rng.randrange(2, k.n)
    return _with_entry(k, kind, i, j, rng.randrange(k.n))


def _with_entry(k, table, i, j, value):
    rows = [list(row) for row in getattr(k, table)]
    rows[i][j] = rows[j][i] = value
    return replace(k, **{table: tuple(map(tuple, rows))})


@pytest.mark.parametrize("name", sorted(SMALL_CORPUS))
def test_fr67_inclusions_match_sweep(name):
    k = F_obj(SMALL_CORPUS[name]).fuzzy
    rng = random.Random(name)
    for copy in range(9):
        kk = k if copy == 0 else _perturbed(k, rng)
        assert list(check_fuzzy_axioms(kk).violations) == _sweep_violations(kk), copy


def test_fr6_failure_pinned():
    # F(krasner) = {0}, {1}, {0,1} as 0, 1, 2 with K0 = {0, 2} and eps = 1.
    # With {0,1}*{0,1} set to {0}: a=1, b=2 and c=1, d=2 are null pairs, but
    # ac + eps*bd = 1 + 0 = 1 is not null.
    k = _with_entry(F_obj(builtin("krasner")).fuzzy, "mul", 2, 2, 0)
    expected = [("FR6", (1, 2, 1, 2))]
    assert list(check_fuzzy_axioms(k).violations) == expected
    assert _sweep_violations(k) == expected


def _first_nonassociative(t):
    """The first (a, b, c) in row-major order with (ab)c != a(bc)."""
    n = len(t)
    return next(
        (
            (a, b, c)
            for a, b, c in itertools.product(range(n), repeat=3)
            if t[t[a][b]][c] != t[a][t[b][c]]
        ),
        None,
    )


def test_fr7_failure_pinned():
    k = _with_entry(F_obj(builtin("gf4")).fuzzy, "mul", 3, 7, 2)
    expected = [("FR0-mul-associative", (3, 3, 7)), ("FR7", (0, 3, 1, 3))]
    assert list(check_fuzzy_axioms(k).violations) == expected
    assert _sweep_violations(k) == expected
    a, b, c, d = expected[1][1]
    assert k.is_null(k.add[a][k.mul[b][k.add[c][d]]])
    assert not k.is_null(k.add[k.add[a][k.mul[b][c]]][k.mul[b][d]])
    assert _first_nonassociative(k.mul) == expected[0][1]


def test_fr0_add_associativity_failure_pinned():
    k = _with_entry(F_obj(builtin("gf4")).fuzzy, "add", 2, 5, 0)
    expected = [
        ("FR0-add-associative", (1, 2, 5)),
        ("FR2-unit-3", (2, 5)),
        ("FR2-unit-7", (2, 5)),
        ("FR7", (2, 1, 5, 1)),
    ]
    assert list(check_fuzzy_axioms(k).violations) == expected
    assert _first_nonassociative(k.add) == (1, 2, 5)


def test_fr4_witnesses_are_elements():
    # F(GF(3)) has K0 = {0, 2, 4, 6}: a witness names carrier elements, not
    # positions in K0
    k = F_obj(builtin("gf3")).fuzzy
    assert list(bits(k.k0)) == [0, 2, 4, 6]
    closed = check_fuzzy_axioms(_with_entry(k, "add", 4, 6, 1)).violations
    assert ("FR4-add-closed", (4, 6)) in closed
    absorbing = check_fuzzy_axioms(_with_entry(k, "mul", 3, 4, 1)).violations
    assert ("FR4-mul-absorbing", (3, 4)) in absorbing


def test_fuzzy_axioms_reach_gf8():
    # 255 elements: the quadruple sweep would take minutes
    k = F_obj(field_hyperfield(8)).fuzzy
    start = time.perf_counter()
    assert check_fuzzy_axioms(k).passed
    assert time.perf_counter() - start < 30


def test_axiom_checker_catches_broken_fr5():
    s = sign_fuzzy()
    # declare every element null: FR4-one-not-null must fire
    broken = s.__class__(s.n, s.add, s.mul, s.epsilon, 0b1111, s.name)
    rep = check_fuzzy_axioms(broken)
    assert not rep.passed


# --- morphisms ---------------------------------------------------------------


def test_weak_identity_accepted():
    s = sign_fuzzy()
    cert = check_weak_morphism(s, s, {1: 1, 2: 2})
    assert cert.accepted


def test_weak_morphism_signfuzzy_to_krasnerfuzzy():
    # collapse the sign: units {1,-1} -> {1}
    cert = check_weak_morphism(sign_fuzzy(), krasner_fuzzy(), {1: 1, 2: 1})
    assert cert.accepted


def test_no_weak_morphism_krasnerfuzzy_to_signfuzzy_hits_violation():
    # 1+1 is null in krasnerfuzzy but 1+1=1 in signfuzzy
    cert = check_weak_morphism(krasner_fuzzy(), sign_fuzzy(), {1: 1})
    assert not cert.accepted


def test_weak_morphism_demands_exact_unit_domain():
    with pytest.raises(ValueError):
        check_weak_morphism(sign_fuzzy(), sign_fuzzy(), {1: 1})


def test_closure_agrees_with_enumeration_oracle():
    pairs = [
        (sign_fuzzy(), krasner_fuzzy()),
        (krasner_fuzzy(), sign_fuzzy()),
        (sign_fuzzy(), sign_fuzzy()),
        (krasner_fuzzy(), krasner_fuzzy()),
    ]
    for k, l in pairs:
        for unit_map in _all_unit_maps(k, l):
            cert = check_weak_morphism(k, l, unit_map)
            witness = weak_violation_by_enumeration(k, l, unit_map)
            assert cert.accepted == (witness is None), (k.name, l.name, unit_map)


def _all_unit_maps(k, l):
    from hyperalg.fuzzy import enumerate_unit_homs

    return [dict(h) for h in enumerate_unit_homs(k, l)]


def test_strong_morphism_identity():
    s = sign_fuzzy()
    assert check_strong_morphism(s, s, range(s.n)).accepted


def test_strong_morphism_sign_collapse():
    # signfuzzy -> krasnerfuzzy: 0->0, 1->1, -1->1, k0->k0
    cert = check_strong_morphism(sign_fuzzy(), krasner_fuzzy(), (0, 1, 1, 2))
    assert cert.accepted


def test_strong_morphism_rejects_non_multiplicative():
    cert = check_strong_morphism(sign_fuzzy(), krasner_fuzzy(), (0, 1, 2, 2))
    assert not cert.accepted


def test_weak_iso():
    assert weak_iso(sign_fuzzy(), sign_fuzzy()) is not None
    assert weak_iso(sign_fuzzy(), krasner_fuzzy()) is None


def test_enumerate_weak_morphisms():
    tables = enumerate_weak_morphisms(sign_fuzzy(), krasner_fuzzy())
    assert len(tables) == 1
    assert all(t.certificate.accepted for t in tables)
