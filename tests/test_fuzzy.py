import itertools
import random
import time
from dataclasses import replace

import numpy as np
import pytest

from hyperalg import fuzzy, ordgrp
from hyperalg.core import bits, mask_of
from hyperalg.functors import F_obj
from hyperalg.fuzzy import (
    BUILTIN_FUZZY,
    _on,
    _packed,
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
    Violation,
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


def _fr67_sweep(add, mul, nul, epsilon, dom=None) -> list[Violation]:
    """FR6 and FR7 over quadruples from dom (default all); first witnesses."""
    v: list[Violation] = []
    dom = np.arange(len(add)) if dom is None else dom
    add_dom, mul_dom = _on(add, dom), _on(mul, dom)
    # FR6: (a+b), (c+d) null  =>  ac + eps*bd null
    emul = mul[epsilon][mul_dom]  # emul[b,d] = eps*(b*d)
    pairs = np.argwhere(nul[add_dom])
    if pairs.size:
        pa, pb = pairs[:, 0], pairs[:, 1]
        chunk = max(1, 2_000_000 // max(1, len(pairs)))
        for i in range(0, len(pairs), chunk):
            a, b = pa[i : i + chunk], pb[i : i + chunk]
            vals = add[mul_dom[a[:, None], pa[None, :]], emul[b[:, None], pb[None, :]]]
            bad = np.argwhere(~nul[vals])
            if bad.size:
                r, c = bad[0]
                v.append(("FR6", tuple(dom[[a[r], b[r], pa[c], pb[c]]].tolist())))
                break
    # FR7: a + b(c+d) null  =>  a + bc + bd null
    p3 = mul[dom][:, add_dom]  # p3[b,c,d] = b*(c+d)
    for a in dom:
        lhs_null = nul[add[a][p3]]
        rhs = add[add[a, mul_dom][:, :, None], mul_dom[:, None, :]]
        bad = np.argwhere(lhs_null & ~nul[rhs])
        if bad.size:
            v.append(("FR7", (int(a), *(int(dom[x]) for x in bad[0]))))
            break
    return v


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


def _one_sided(k, rng, flip):
    """Change one add entry i + j off rows 0 and 1 and column 0 (so epsilon,
    read from row 1, stays determined) and leave its mirror j + i: addition
    stops being commutative there.  The new entry is null exactly when the
    old one was not (flip) or exactly when it was."""
    i = rng.randrange(2, k.n)
    j = rng.choice([x for x in range(1, k.n) if x != i])
    old = k.add[i][j]
    choices = [
        x for x in range(k.n) if x != old and k.is_null(x) != (k.is_null(old) == flip)
    ]
    rows = [list(row) for row in k.add]
    rows[i][j] = rng.choice(choices)
    return replace(k, add=tuple(map(tuple, rows)))


@pytest.mark.parametrize("name", sorted(SMALL_CORPUS))
def test_fr67_inclusions_match_sweep(name):
    k = F_obj(SMALL_CORPUS[name]).fuzzy
    rng = random.Random(name)
    copies = [k] + [_perturbed(k, rng) for _ in range(8)]
    # non-additive copies: FR7 takes the sliced sweep; kh-c5 gives 63 elements
    copies += [_one_sided(k, rng, flip) for flip in (True, False) for _ in range(2)]
    for copy, kk in enumerate(copies):
        assert list(check_fuzzy_axioms(kk).violations) == _sweep_violations(kk), copy


def test_one_sided_change_pinned():
    # F(GF(5)): 31 elements, element i is the subset with mask i + 1, so K0
    # is the even indices.  add[9][17] goes from 20 (null) to 1 (not null)
    # and add[17][9] stays 20, the kind of change perfbench's refute inputs have.
    k = F_obj(builtin("gf5")).fuzzy
    assert k.add[9][17] == k.add[17][9] == 20 and not k.is_null(1)
    rows = [list(row) for row in k.add]
    rows[9][17] = 1
    k = replace(k, add=tuple(map(tuple, rows)))
    expected = [
        ("FR0-add-commutative", (9, 17)),
        ("FR0-add-associative", (1, 4, 17)),
        ("FR2-unit-3", (9, 17)),
        ("FR2-unit-7", (5, 11)),
        ("FR2-unit-15", (9, 17)),
        ("FR6", (1, 17, 9, 15)),
        ("FR7", (0, 3, 23, 11)),
    ]
    assert list(check_fuzzy_axioms(k).violations) == expected
    assert _sweep_violations(k) == expected
    a, b, c, d = expected[5][1]
    e = k.epsilon
    assert k.is_null(k.add[a][b]) and k.is_null(k.add[c][d])
    assert not k.is_null(k.add[k.mul[a][c]][k.mul[e][k.mul[b][d]]])
    a, b, c, d = expected[6][1]
    assert k.is_null(k.add[a][k.mul[b][k.add[c][d]]])
    assert not k.is_null(k.add[k.add[a][k.mul[b][c]]][k.mul[b][d]])
    assert _first_nonassociative(k.add) == expected[1][1]


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


# --- FR6: the per-a unions against the per-pair inclusions ------------------

# bit-set cells compared per chunk of null pairs at most
ORACLE_CHUNK_CELLS = 2_000_000


def _fr6_inclusions(null_of, mul, epsilon, dom) -> list[Violation]:
    """FR6 as eps*b*N_D(c) <= N(ac) over null pairs (a, b) and all c in dom,
    in the quadruple sweep's order: pairs (a, b), then c, then d."""
    null_dom = _on(null_of, dom)
    pairs = np.argwhere(null_dom)
    if not pairs.size:
        return []
    pa, pb = pairs[:, 0], pairs[:, 1]
    mul_dom = _on(mul, dom)
    emul = mul[epsilon][mul_dom]  # emul[b,d] = eps*(b*d)
    null_bits = _packed(null_of)
    # image[b, c] = eps*b*N_D(c), built for the b of each chunk when first met
    image = np.empty(null_dom.shape + null_bits.shape[1:], dtype=np.uint64)
    built = np.zeros(len(dom), dtype=bool)
    i, chunk, cap = 0, 1, max(1, ORACLE_CHUNK_CELLS // image[0].size)
    while i < len(pairs):
        a, b = pa[i : i + chunk], pb[i : i + chunk]
        for e in np.unique(b[~built[b]]):
            sets = np.zeros((len(dom), len(mul)), dtype=bool)
            sets[pa, emul[e, pb]] = True  # the pairs are (c, d)
            image[e] = _packed(sets)
        built[b] = True
        bad = (image[b] & ~null_bits[mul_dom[a]]).any(axis=2)  # bad[pair, c]
        failing = np.flatnonzero(bad.any(axis=1))
        if failing.size:
            r = failing[0]
            a, b = a[r], b[r]
            c = np.flatnonzero(bad[r])[0]
            d = np.flatnonzero(null_dom[c] & ~null_of[mul_dom[a, c], emul[b]])[0]
            return [("FR6", tuple(int(dom[x]) for x in (a, b, c, d)))]
        i, chunk = i + chunk, min(2 * chunk, cap)
    return []


def _oracle_fuzzy_violations(k, dom=None):
    """The violation list with FR6 from the per-pair inclusions."""
    dom = np.arange(k.n) if dom is None else dom
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(
            fuzzy,
            "_fr6_unions",
            lambda null_of, mul, eps, dom, commutative: _fr6_inclusions(
                null_of, mul, eps, dom
            ),
        )
        return fuzzy._fuzzy_violations(k, dom)


def _one_sided_mul(k, i, j, value):
    rows = [list(row) for row in k.mul]
    rows[i][j] = value
    return replace(k, mul=tuple(map(tuple, rows)))


def _fr6_witness(violations):
    return next((w for label, w in violations if label == "FR6"), None)


_GF13 = galois_field(13)
LARGE_CORPUS = {  # 127 elements each
    "gf7": lambda: builtin("gf7"),
    "gf13/U2": lambda: quotient(_GF13, _unit_subgroup(_GF13, 2)),
    "khef-klein4": lambda: builtin("khef-klein4"),
}
# F(gf7) with mul[68][65] changed alone: FR6 fails only where c < a, first
# at (31, 68, 1, 65), so a sweep over c >= a alone would report no FR6
NONCOMMUTATIVE_ENTRY = {"gf7": (68, 65, 86)}


@pytest.mark.parametrize("name", sorted(LARGE_CORPUS))
def test_fr6_unions_match_inclusions(name):
    k = F_obj(LARGE_CORPUS[name]()).fuzzy
    assert k.n == 127
    rng = random.Random(name)
    copies = [k] + [_perturbed(k, rng) for _ in range(4)]
    copies += [_one_sided(k, rng, flip) for flip in (True, False)]
    i, j, value = NONCOMMUTATIVE_ENTRY.get(
        name, (rng.randrange(2, k.n), rng.randrange(2, k.n), rng.randrange(k.n))
    )
    copies.append(_one_sided_mul(k, i, j, value))
    assert "FR0-mul-commutative" in {l for l, _ in check_fuzzy_axioms(copies[-1]).violations}
    failing = 0
    for copy, kk in enumerate(copies):
        expected = _oracle_fuzzy_violations(kk)
        assert list(check_fuzzy_axioms(kk).violations) == expected, copy
        failing += _fr6_witness(expected) is not None
    assert failing >= 3


def test_fr6_all_c_branch_pinned():
    k = F_obj(builtin("gf7")).fuzzy
    kk = _one_sided_mul(k, *NONCOMMUTATIVE_ENTRY["gf7"])
    assert _fr6_witness(check_fuzzy_axioms(kk).violations) == (31, 68, 1, 65)
    assert _fr6_witness(_oracle_fuzzy_violations(kk)) == (31, 68, 1, 65)


@pytest.mark.parametrize("b", [3, 4])
def test_fr6_unions_match_inclusions_on_window(b):
    _, _, k = ordgrp._kgamma_ring(b)
    dom = np.arange(len(ordgrp.window_subsets(b)))
    assert len(dom) < k.n
    rng = random.Random(b)
    copies = [k]
    while len(copies) < 4:
        i, j = rng.choice(dom[2:]), rng.choice(dom[2:])
        kk = _with_entry(k, "mul", i, j, rng.choice(dom))
        if _fr6_witness(_oracle_fuzzy_violations(kk, dom)) is not None:
            copies.append(kk)
    for copy, kk in enumerate(copies):
        expected = _oracle_fuzzy_violations(kk, dom)
        assert fuzzy._fuzzy_violations(kk, dom) == expected, copy


def _block_splits(k):
    """FR6_CHUNK_CELLS values for one b per block, and for two b per block
    with a last block of one."""
    assert k.n % 2
    return (1, 2 * k.n * k.n + 1)


@pytest.mark.parametrize("name", sorted(SMALL_CORPUS))
def test_fr6_block_boundaries(name, monkeypatch):
    k = F_obj(SMALL_CORPUS[name]).fuzzy
    rng = random.Random(name)
    copies = [k] + [_perturbed(k, rng) for _ in range(4)]
    expected = [check_fuzzy_axioms(kk).violations for kk in copies]
    for cells in _block_splits(k):
        monkeypatch.setattr(fuzzy, "FR6_CHUNK_CELLS", cells)
        assert [check_fuzzy_axioms(kk).violations for kk in copies] == expected


def test_fr6_block_boundaries_127(monkeypatch):
    k = F_obj(builtin("gf7")).fuzzy
    rng = random.Random(7)
    kk = _perturbed(k, rng)
    while _fr6_witness(check_fuzzy_axioms(kk).violations) is None:
        kk = _perturbed(k, rng)
    expected = check_fuzzy_axioms(kk).violations
    for cells in _block_splits(kk):
        monkeypatch.setattr(fuzzy, "FR6_CHUNK_CELLS", cells)
        assert check_fuzzy_axioms(kk).violations == expected


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
