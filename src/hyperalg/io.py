"""Structure files: a small JSON schema for hyperrings, fuzzy rings,
Grassmann-Pluecker functions, and Zariski systems.

Carrier elements are integers 0..n-1 with 0 the additive and 1 the
multiplicative identity.  Hyperaddition rows are arrays of arrays of
indices (subsets); fuzzy addition rows are arrays of indices; k0 is a
sorted index array; epsilon is an index.  Serialization is canonical
(sorted keys, fixed separators), so round-trips are byte-identical.
"""

from __future__ import annotations

import functools
import json
from pathlib import Path

from .core import bits, mask_of
from .fuzzy import FiniteFuzzyRing, make_fuzzy_ring
from .hyper import FiniteHyperring, make_hyperring
from .ddhyper import PartialDemifield
from .matroid import GPFunction
from .ordgrp import OGSubset, ZariskiSystem, singleton, down

SCHEMA_VERSION = "1"


class StructureError(ValueError):
    """Malformed or inconsistent structure file."""


def _require(cond: bool, msg: str):
    if not cond:
        raise StructureError(msg)


def _is_int(x) -> bool:
    # JSON true/false load as bool, a subclass of int
    return isinstance(x, int) and not isinstance(x, bool)


def _is_index(x, n: int) -> bool:
    return _is_int(x) and 0 <= x < n


def _is_index_array(xs, n: int) -> bool:
    # the cell types as one set (a JSON bool is not an int here), then the
    # bounds of the whole array
    return isinstance(xs, list) and (
        not xs or ({*map(type, xs)} == {int} and min(xs) >= 0 and max(xs) < n)
    )


def _are_index_arrays(xss, n: int) -> bool:
    return all(_is_index_array(xs, n) for xs in xss)


def _require_table(t, n: int, what: str, row_ok=_is_index_array) -> None:
    """`t` must be an n x n array of arrays whose rows pass row_ok(row, n)."""
    _require(
        isinstance(t, list)
        and len(t) == n
        and all(
            isinstance(row, list) and len(row) == n and row_ok(row, n) for row in t
        ),
        f"{what} must be an n x n table of indices",
    )


# ---------------------------------------------------------------------------
# object -> plain dict


def hyperring_to_dict(r: FiniteHyperring) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "hyperring",
        "name": r.name,
        "size": r.n,
        "add": [[sorted(bits(m)) for m in row] for row in r.add],
        "mul": [list(row) for row in r.mul],
        "partial": r.partial,
    }


def fuzzyring_to_dict(k: FiniteFuzzyRing) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "fuzzyring",
        "name": k.name,
        "size": k.n,
        "add": [list(row) for row in k.add],
        "mul": [list(row) for row in k.mul],
        "epsilon": k.epsilon,
        "k0": sorted(bits(k.k0)),
    }


def gp_to_dict(phi: GPFunction) -> dict:
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "gp",
        "ground_size": phi.ground_size,
        "rank": phi.rank,
        "values": list(phi.values),
        "coefficient": structure_to_dict(phi.coefficient),
    }


def _ogsubset_to_dict(a: OGSubset) -> dict:
    return {"tag": a.tag, "upper": a.upper}


def zariski_to_dict(s: ZariskiSystem) -> dict:
    _require(s.coefficient == "kgamma", "only symbolic systems serialize")
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "zariski",
        "points": list(s.points),
        "functions": [[_ogsubset_to_dict(v) for v in f] for f in s.functions],
        "coefficient": "kgamma",
    }


def demifield_to_dict(p: PartialDemifield) -> dict:
    # an extension kind beyond the four core ones; see README
    return {
        "schema_version": SCHEMA_VERSION,
        "kind": "demifield",
        "hyperfield": hyperring_to_dict(p.hyperfield),
        "family": [sorted(bits(m)) for m in p.family],
        "add": [list(row) for row in p.add],
        "mul": [list(row) for row in p.mul],
        "embedding": list(p.embedding),
    }


def structure_to_dict(obj) -> dict:
    if isinstance(obj, FiniteHyperring):
        return hyperring_to_dict(obj)
    if isinstance(obj, FiniteFuzzyRing):
        return fuzzyring_to_dict(obj)
    if isinstance(obj, GPFunction):
        return gp_to_dict(obj)
    if isinstance(obj, ZariskiSystem):
        return zariski_to_dict(obj)
    if isinstance(obj, PartialDemifield):
        return demifield_to_dict(obj)
    raise StructureError(f"unsupported object {type(obj).__name__}")


# ---------------------------------------------------------------------------
# plain dict -> object


def _check_header(d: dict, kind: str | None):
    _require(isinstance(d, dict), "top level must be an object")
    _require(d.get("schema_version") == SCHEMA_VERSION, "bad schema_version")
    _require("kind" in d, "missing kind")
    if kind is not None:
        _require(d["kind"] == kind, f"expected kind {kind}, found {d['kind']}")


def _require_name(d: dict) -> None:
    _require(isinstance(d.get("name", ""), str), "name must be a string")


def hyperring_from_dict(d: dict) -> FiniteHyperring:
    _check_header(d, "hyperring")
    _require_name(d)
    partial = d.get("partial", False)
    _require(isinstance(partial, bool), "partial must be true or false")
    n = d.get("size")
    _require(isinstance(n, int) and n >= 2, "size must be an integer >= 2")
    add, mul = d.get("add"), d.get("mul")
    _require_table(add, n, "add", row_ok=_are_index_arrays)
    _require_table(mul, n, "mul")
    masks = [[mask_of(cell) for cell in row] for row in add]
    try:
        return make_hyperring(masks, mul, partial=partial, name=d.get("name", ""))
    except ValueError as e:
        raise StructureError(str(e)) from e


def fuzzyring_from_dict(d: dict) -> FiniteFuzzyRing:
    _check_header(d, "fuzzyring")
    _require_name(d)
    n = d.get("size")
    _require(isinstance(n, int) and n >= 2, "size must be an integer >= 2")
    add, mul, k0 = d.get("add"), d.get("mul"), d.get("k0")
    _require_table(add, n, "add")
    _require_table(mul, n, "mul")
    _require(_is_index_array(k0, n), "k0 must be an index array")
    _require(
        "epsilon" not in d or _is_index(d["epsilon"], n), "epsilon must be an index"
    )
    try:
        return make_fuzzy_ring(
            add, mul, mask_of(k0), epsilon=d.get("epsilon"), name=d.get("name", "")
        )
    except ValueError as e:
        raise StructureError(str(e)) from e


def gp_from_dict(d: dict) -> GPFunction:
    _check_header(d, "gp")
    coeff = structure_from_dict(d.get("coefficient"))
    n, r, values = d.get("ground_size"), d.get("rank"), d.get("values", [])
    ints = isinstance(values, list) and all(map(_is_int, [n, r, *values]))
    _require(ints, "ground_size, rank and values must be integers")
    try:
        return GPFunction(n, r, tuple(values), coeff)
    except (TypeError, ValueError) as e:
        raise StructureError(str(e)) from e


def _ogsubset_from_dict(d: dict) -> OGSubset:
    _require(
        isinstance(d, dict) and d.get("tag") in ("sing", "down"),
        "bad ordered-group value",
    )
    u = d.get("upper")
    _require(
        u is None or _is_int(u),
        "upper must be an integer or null",
    )
    return singleton(u) if d["tag"] == "sing" else down(u)


def zariski_from_dict(d: dict) -> ZariskiSystem:
    _check_header(d, "zariski")
    _require(d.get("coefficient") == "kgamma", "unknown coefficient")
    points, functions = d.get("points"), d.get("functions", [])
    _require(isinstance(points, list) and points, "points must be a nonempty array")
    _require(isinstance(functions, list), "functions must be an array")
    fns = []
    for f in functions:
        _require(isinstance(f, list) and len(f) == len(points), "bad function row")
        fns.append(tuple(_ogsubset_from_dict(v) for v in f))
    return ZariskiSystem(tuple(points), tuple(fns), "kgamma")


def demifield_from_dict(d: dict) -> PartialDemifield:
    _check_header(d, "demifield")
    hf = hyperring_from_dict(d.get("hyperfield"))
    family, add, mul = d.get("family"), d.get("add"), d.get("mul")
    emb = d.get("embedding")
    _require(
        isinstance(family, list) and all(_is_index_array(c, hf.n) for c in family),
        "family must be an array of index arrays",
    )
    m = len(family)
    _require_table(add, m, "add")
    _require_table(mul, m, "mul")
    _require(_is_index_array(emb, m) and len(emb) == hf.n, "bad embedding")
    family = tuple(mask_of(cell) for cell in family)
    add, mul = tuple(map(tuple, add)), tuple(map(tuple, mul))
    return PartialDemifield(hf, family, add, mul, tuple(emb))


_PARSERS = {
    "hyperring": hyperring_from_dict,
    "fuzzyring": fuzzyring_from_dict,
    "gp": gp_from_dict,
    "zariski": zariski_from_dict,
    "demifield": demifield_from_dict,
}


def structure_from_dict(d: dict, kind: str | None = None):
    _check_header(d, kind)
    parser = _PARSERS.get(d["kind"])
    _require(parser is not None, f"unknown kind {d['kind']!r}")
    return parser(d)


# ---------------------------------------------------------------------------
# files


def dumps_canonical(d: dict) -> str:
    """The bytes of json.dumps(d, sort_keys=True, indent=1) plus a newline,
    for string keys.  That call runs the pure-Python encoder; here every
    list of scalars (a table row, say) goes through the C encoder, with the
    line break and indent of its items as the item separator."""
    return _dumps(d, "\n") + "\n"


def _dumps(x, nl: str) -> str:
    """x laid out as by indent=1, its own lines starting with nl."""
    if isinstance(x, dict):
        if not x:
            return "{}"
        inner = nl + " "
        items = (f"{json.dumps(k)}: {_dumps(v, inner)}" for k, v in sorted(x.items()))
        return "{" + inner + ("," + inner).join(items) + nl + "}"
    if isinstance(x, (list, tuple)):
        if not x:
            return "[]"
        inner = nl + " "
        if {*map(type, x)} <= _SCALARS:
            body = _row_encoder(inner)(x)[1:-1]
        else:
            body = ("," + inner).join(_dumps(v, inner) for v in x)
        return "[" + inner + body + nl + "]"
    return json.dumps(x)


_SCALARS = {int, bool, float, str, type(None)}


@functools.lru_cache(maxsize=16)  # one per nesting depth
def _row_encoder(inner: str):
    return json.JSONEncoder(separators=("," + inner, ": ")).encode


def save_structure(obj, path) -> None:
    Path(path).write_text(dumps_canonical(structure_to_dict(obj)))


def load_structure(path, kind: str | None = None):
    try:
        d = json.loads(Path(path).read_text())
    except (OSError, json.JSONDecodeError) as e:
        raise StructureError(f"cannot read {path}: {e}") from e
    return structure_from_dict(d, kind)
