"""Finite hyperrings and fuzzy rings, the powerset functor between them,
double distributivity and partial demifields, ordered-group structures with
window-bounded verification, and Grassmann-Pluecker matroids.

The modules are the API: `hyperalg.hyper.krasner()`, `hyperalg.fuzzy.
check_fuzzy_axioms(k)` and so on.
"""

from . import core, ddhyper, functors, fuzzy, hyper, io, matroid, ordgrp

__version__ = "1.0.0"
