"""Finite hyperrings and fuzzy rings, the powerset functor between them,
double distributivity and partial demifields, ordered-group structures with
window-bounded verification, and Grassmann-Pluecker matroids.
"""

from .core import (
    CarrierTooLarge,
    bits,
    extend_hyperop,
    hypersum_masks,
    iterated_hypersum,
    mask_mul,
    mask_of,
    powerset_cap,
    subset_order,
)
from .hyper import (
    AxiomReport,
    FiniteHyperring,
    FiniteRing,
    builtin,
    check_canonical_hypergroup,
    check_doubly_distributive,
    check_hom,
    check_hyperfield,
    check_hyperring,
    enumerate_homs,
    field_hyperfield,
    galois_field,
    iso_hyper,
    kh,
    khef,
    klein_four,
    cyclic_group,
    krasner,
    make_hyperring,
    quotient,
    ring_as_hyperring,
    signs,
)
from .fuzzy import (
    FiniteFuzzyRing,
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
from .functors import (
    F_mor,
    F_obj,
    G_mor,
    G_obj,
    check_roundtrips,
    check_roundtrips_fuzzy,
    is_field_like,
    strong_extension_search,
    unit_field,
    unit_field_z,
)
from .ddhyper import (
    F1,
    F2,
    Fbar,
    PartialDemifield,
    check_addsame,
    check_mul_closure,
    check_partial_demifield,
    closure_S,
    triangle_counterexample,
)
from .ordgrp import (
    BOTTOM,
    OGSubset,
    ZariskiSystem,
    check_fbar_hgamma_iso_kgamma,
    check_window_doubly_distributive,
    check_window_fuzzy_axioms,
    check_window_hypergroup,
    check_zariski,
    down,
    hgamma_add,
    hgamma_mul,
    kgamma_add,
    kgamma_embed,
    kgamma_is_null,
    kgamma_mul,
    pushforward_zariski,
    singleton,
    zero_set,
)
from .matroid import (
    GPFunction,
    basis_exchange_oracle,
    cross_check_onetoone,
    cross_check_onetoone_G,
    enumerate_gp,
    pushforward_gp,
    scale_gp,
    underlying_matroid,
    verify_gp,
)
from .io import load_structure, save_structure, structure_from_dict, structure_to_dict

__all__ = [n for n in dir() if not n.startswith("_")]

__version__ = "1.0.0"
