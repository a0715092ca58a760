"""Structure-file serialization: canonical form, byte-identical round
trips, fixture agreement, and malformed-input rejection."""

import json
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

from hyperalg import ddhyper, functors, fuzzy, hyper, io, matroid, ordgrp

FIXTURES = Path(__file__).resolve().parents[1] / "src" / "hyperalg" / "fixtures"


def _roundtrip(obj, tmp_path):
    p = tmp_path / "s.json"
    io.save_structure(obj, p)
    first = p.read_bytes()
    io.save_structure(io.load_structure(p), p)
    assert p.read_bytes() == first
    return io.load_structure(p)


@pytest.mark.parametrize("name", sorted(hyper.BUILTIN_HYPERRINGS))
def test_hyperring_roundtrip(name, tmp_path):
    h = hyper.builtin(name)
    back = _roundtrip(h, tmp_path)
    assert back.add == h.add and back.mul == h.mul and back.neg == h.neg
    assert back.partial == h.partial


@pytest.mark.parametrize("name", sorted(fuzzy.BUILTIN_FUZZY))
def test_fuzzyring_roundtrip(name, tmp_path):
    k = fuzzy.builtin_fuzzy(name)
    back = _roundtrip(k, tmp_path)
    assert back.add == k.add and back.mul == k.mul
    assert back.k0 == k.k0 and back.epsilon == k.epsilon


def test_gp_roundtrip(tmp_path):
    phi = matroid.GPFunction(4, 2, (1, 1, 1, 2, 2, 1), hyper.signs())
    back = _roundtrip(phi, tmp_path)
    assert back.values == phi.values
    assert back.coefficient.add == phi.coefficient.add


def test_zariski_roundtrip(tmp_path):
    s0, d0 = ordgrp.singleton(0), ordgrp.down(0)
    s = ordgrp.generate_zariski(("p", "q"), [(s0, d0), (d0, s0)])
    back = _roundtrip(s, tmp_path)
    assert back.functions == s.functions
    assert tuple(back.points) == tuple(s.points)


def test_demifield_roundtrip(tmp_path):
    p = ddhyper.F1(hyper.signs())
    back = _roundtrip(p, tmp_path)
    assert back.family == p.family
    assert back.add == p.add and back.mul == p.mul
    assert back.embedding == p.embedding


def test_canonical_form_is_sorted_with_newline():
    d = io.structure_to_dict(hyper.krasner())
    text = io.dumps_canonical(d)
    assert text.endswith("\n")
    assert json.loads(text) == d
    keys = list(json.loads(text))
    assert keys == sorted(keys)


def _every_kind():
    s0, d0 = ordgrp.singleton(0), ordgrp.down(0)
    return {
        "hyperring": hyper.builtin("kh-klein4"),
        "partial hyperring": functors.unit_field_z(),
        "fuzzyring": functors.F_obj(hyper.builtin("gf5")).fuzzy,
        "gp": matroid.GPFunction(4, 2, (1, 1, 1, 2, 2, 1), hyper.signs()),
        "zariski": ordgrp.generate_zariski(("p", "q"), [(s0, d0), (d0, s0)]),
        "demifield": ddhyper.F1(hyper.signs()),
    }


@pytest.mark.parametrize("kind", sorted(_every_kind()))
def test_canonical_bytes_match_indented_json(kind):
    d = io.structure_to_dict(_every_kind()[kind])
    assert io.dumps_canonical(d) == json.dumps(d, sort_keys=True, indent=1) + "\n"


_json_values = st.recursive(
    st.none() | st.booleans() | st.integers() | st.text(),
    lambda inner: st.lists(inner, max_size=4)
    | st.dictionaries(st.text(max_size=3), inner, max_size=4),
    max_leaves=20,
)


@settings(max_examples=50, deadline=None)
@given(st.dictionaries(st.text(max_size=3), _json_values, max_size=4))
def test_canonical_bytes_match_indented_json_on_any_nesting(d):
    assert io.dumps_canonical(d) == json.dumps(d, sort_keys=True, indent=1) + "\n"


def test_schema_version_enforced(tmp_path):
    d = io.structure_to_dict(hyper.krasner())
    d["schema_version"] = "99"
    p = tmp_path / "bad.json"
    p.write_text(io.dumps_canonical(d))
    with pytest.raises(io.StructureError):
        io.load_structure(p)


def test_kind_mismatch_rejected(tmp_path):
    p = tmp_path / "k.json"
    io.save_structure(hyper.krasner(), p)
    with pytest.raises(io.StructureError):
        io.load_structure(p, kind="fuzzyring")


def test_malformed_table_rejected(tmp_path):
    d = io.structure_to_dict(hyper.krasner())
    d["add"][0][0] = 99  # mask outside the carrier
    p = tmp_path / "bad.json"
    p.write_text(io.dumps_canonical(d))
    with pytest.raises(io.StructureError):
        io.load_structure(p)


def test_fixtures_match_constructors():
    expected = {
        **{n: hyper.builtin(n) for n in hyper.BUILTIN_HYPERRINGS},
        **{n: fuzzy.builtin_fuzzy(n) for n in fuzzy.BUILTIN_FUZZY},
    }
    files = sorted(FIXTURES.glob("*.json"))
    assert len(files) == len(expected)
    for f in files:
        obj = expected[f.stem]
        assert f.read_text() == io.dumps_canonical(io.structure_to_dict(obj))


@pytest.mark.parametrize("path", sorted(FIXTURES.glob("*.json")))
def test_fixtures_load_and_pass(path):
    obj = io.load_structure(path)
    if isinstance(obj, hyper.FiniteHyperring):
        assert hyper.check_hyperring(obj).passed
    else:
        assert fuzzy.check_fuzzy_axioms(obj).passed
