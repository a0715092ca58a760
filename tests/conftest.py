"""Fuzzy-ring tables that are not fuzzy rings, for the tests that every
command and the strong-extension search take them without an error."""

import itertools

import pytest

from hyperalg import functors, fuzzy, hyper


def _changed(k, table, x, y, value):
    tables = {"add": [list(r) for r in k.add], "mul": [list(r) for r in k.mul]}
    tables[table][x][y] = value
    name = f"{k.name} {table}[{x}][{y}]={value}"
    return fuzzy.make_fuzzy_ring(tables["add"], tables["mul"], k.k0, name=name)


@pytest.fixture(scope="module")
def signfuzzy_changes():
    """signfuzzy with one add or mul entry changed: every such table that
    make_fuzzy_ring accepts (FR5 still determines epsilon)."""
    k = fuzzy.sign_fuzzy()
    out = []
    for table, x, y, value in itertools.product(("add", "mul"), *[range(k.n)] * 3):
        if getattr(k, table)[x][y] != value:
            try:
                out.append(_changed(k, table, x, y, value))
            except ValueError:
                pass
    return out


@pytest.fixture(scope="module")
def f_signs_mul_1_2_zero():
    """F(signs) with {1}{0,1} = {0}; the orbits of its units missed {0,1},
    which is not 1{0,1}, and the search ended in a TypeError."""
    return _changed(functors.F_obj(hyper.signs()).fuzzy, "mul", 1, 2, 0)
