"""Write ``known_answers.json``: the expected verdict of every job, each with
its source.  The answers come from the paper, the README, the tests,
published counts, hand derivations and group theory; nothing here runs a
hyperalg check, it only uses the gallery tables of ``workloads``.

    python3 perfbench/known_answers.py
"""

from __future__ import annotations

import json
import math
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import workloads as w  # noqa: E402

SOURCES = {
    "paper-F": "Paper: F sends every hyperring to a fuzzy ring (FR0-FR7 hold for F(R)); "
    "'construct F' re-verifies and exits 0.",
    "paper-quotient": "Krasner: R/U is a hyperfield for a field R and a subgroup U of its "
    "units; 'construct quotient' re-verifies and exits 0.",
    "paper-KH": "K[H] is a hyperfield for an abelian group H with |H| >= 4, and "
    "K[H] u {e,f} is a hyperring; 'construct KH|KHef' re-verifies and exits 0.",
    "paper-hyperring": "Builtins and the paper's constructions are hyperrings (README "
    "gallery); 'check' and check_hyperring pass.",
    "paper-roundtrip": "Paper: G(F(K)) = K for a hyperfield K. K[H] u {e,f} is not a "
    "hyperfield: G(F(.)) lives on its 4 units plus 0, so its roundtrip fails.",
    "dd-known": "Double distributivity holds for Krasner and signs (acceptance 6), for "
    "fields (sums are singletons), and for GF(q)/GF(q)^x, the Krasner hyperfield.",
    "paper-Fbar": "Paper: Fbar = F2 o F1 on doubly distributive hyperfields (acceptance 7); "
    "the Fbar and F1 constructs re-verify and exit 0.",
    "paper-ordgrp": "Paper: the ordered-group hyperfield over Z is doubly distributive and "
    "its reduced powerset ring is the symbolic fuzzy ring (acceptance 6 and 8).",
    "perturbation": "Only add[i][j] was changed, i != j and i, j >= 2, so add[i][j] != "
    "add[j][i]: commutativity fails, check exits 1 and reports it.",
    "readme-klein4": "README 'Known discrepancy': identity on units F(KHef(V4)) -> "
    "F(KH(V4)) is rejected; 1+u+v+w is null in the source only (4 units).",
    "group-homs": "|Hom(A, B)|: gcd(m, n) for C_m -> C_n, gcd(2, n)^2 between V4 and C_n, "
    "16 for V4 -> V4, summed over the 27 rings of the pool (the units of F(R) are the "
    "singletons of R's units). Every verdict must agree with the independent oracle "
    "weak_violation_by_enumeration.",
    "paper-functor": "Paper: F is a functor, so F(f) is strong for every hyperring hom f; "
    "x -> 1 (x != 0) is a hom from any hyperfield onto Krasner.",
    "iso-facts": "Krasner has 1+1 = {0,1} and signs 3 elements; KH(V4) and KH(C4) have "
    "non-isomorphic unit groups; GF(3)/{+-1} is Krasner; GF(2) has 1+1 = 0. F(Krasner) "
    "and F(signs) reproduce krasnerfuzzy and signfuzzy (acceptance 1), which have 1 and "
    "2 units.",
    "hand-homs": "Homs KHef(V4) -> KH(V4): e, f are idempotent with ef = 0, so one maps "
    "to 0; e + f = H forces the other to 1 and all of H to 1. Two homs, neither the "
    "identity on V4 (acceptance 5).",
    "tests-cli": "tests/test_cli.py: 'morphisms signs krasner' finds 1; 'morphisms "
    "signfuzzy krasnerfuzzy --kind fuzzy-weak' finds 1; 'iso krasner signs' exits 1.",
    "readme-c5": "README: identity on units F(KHef(C5)) -> F(KH(C5)) is an accepted weak "
    "morphism. No independent answer is known for the extension search, so any of its "
    "three verdicts is accepted and only weak_accepted is checked; 'unknown' means its "
    "budget ran out and counts as undecided.",
    "oeis-A058673": "Matroids of rank r on n labelled elements (OEIS A058673): over Krasner "
    "a GP function is a matroid; krasnerfuzzy = F(Krasner) gives the same count (paper).",
    "chirotopes": "Sign GP functions are chirotopes: every nonzero assignment at r = 1 "
    "(3^n - 1), the same count at r = n-1 by duality, 2 at r = n, 292 at (4,2) "
    "(tests/test_matroid.py); normalising halves each. signfuzzy = Fbar(signs) gives the "
    "same counts (paper).",
    "paper-onetoone": "Paper / acceptance 9: a function satisfies the hyperfield relations "
    "iff its powerset and reduced transports satisfy the fuzzy ones.",
}

# OEIS A058673: matroids of rank r on n labelled elements
MATROIDS = {
    (1, 1): 1, (2, 1): 3, (2, 2): 1, (3, 1): 7, (3, 2): 7, (3, 3): 1,
    (4, 1): 15, (4, 2): 36, (4, 3): 15, (5, 1): 31, (5, 2): 171, (5, 3): 171,
}


def chirotopes(n: int, r: int) -> int:
    if r == n:
        return 2
    if r in (1, n - 1):
        return 3**n - 1
    if (n, r) == (4, 2):
        return 292
    raise ValueError(f"no count for ({n}, {r})")


def unit_homs(a: str, b: str) -> int:
    """|Hom(A, B)| for A, B among C<m> and V4."""
    def order(g):
        return 4 if g == "V4" else int(g[1:])

    if a == b == "V4":
        return 16
    if "V4" in (a, b):
        return math.gcd(2, order(b if a == "V4" else a)) ** 2
    return math.gcd(order(a), order(b))


def _ok(*lines: str) -> dict:
    return {"exit": 0, "stdout_contains": list(lines)}


def build() -> dict:
    answers: dict[str, dict] = {}

    def put(key, expect, source):
        assert key not in answers and source in SOURCES, key
        answers[key] = {"expect": expect, "source": source}

    names = sorted([*w.BUILTINS, *w.QUOTIENTS], key=lambda n: (w.carrier_size(n), n))
    for n in names:
        if n in w.QUOTIENTS:
            put(f"cli-construct-quotient:{n}", _ok("construct quotient: pass"), "paper-quotient")
        elif n.startswith("kh-"):
            put(f"cli-construct-KH:{n}", _ok("construct KH: pass"), "paper-KH")
        elif n.startswith("khef-"):
            put(f"cli-construct-KHef:{n}", _ok("construct KHef: pass"), "paper-KH")
        else:
            put(f"cli-check:{n}", _ok("hyperring axioms: pass"), "paper-hyperring")
        put(f"cli-construct-F:{n}", _ok("construct F: pass"), "paper-F")
        put(f"check_hyperring:{n}", {"passed": True}, "paper-hyperring")
        put(f"check_roundtrips:{n}", {"passed": w.is_hyperfield(n)}, "paper-roundtrip")
        if w.dd_known(n):
            put(f"check_dd:{n}", {"passed": True}, "dd-known")
            put(f"cli-construct-Fbar:{n}", _ok("construct Fbar: pass"), "paper-Fbar")
            put(f"cli-construct-F1:{n}", _ok("construct F1: pass"), "paper-Fbar")
            put(f"f2f1_eq_fbar:{n}", {"equal": True}, "paper-Fbar")
        if w.carrier_size(n) >= 3:
            failed = {"exit": 1, "stdout_contains": ["violated FR0-add-commutative"]}
            put(f"cli-check-perturbed-F:{n}", failed, "perturbation")
        if w.carrier_size(n) >= 4:
            failed = {"exit": 1, "stdout_contains": ["violated commutativity"]}
            put(f"cli-check-perturbed:{n}", failed, "perturbation")
        if w.carrier_size(n) <= 5:
            put(f"f_mor:{n}:identity", {"accepted": True}, "paper-functor")
            put(f"f_mor:{n}:krasner", {"accepted": True}, "paper-functor")
            put(f"iso_hyper_roundtrip:{n}", {"found": True}, "paper-roundtrip")
    for b in (3, 4):
        r = f"[-{b},{b}]"
        laws = ("hypergroup laws", "double distributivity", "fuzzy ring laws",
                "reduced powerset ring matches symbolic ring")
        put(f"cli-ordgrp-demo:{b}", _ok(*(f"{law} on {r}: pass" for law in laws)), "paper-ordgrp")
    put("weak_klein4_identity", {"accepted": False, "oracle_found": True}, "readme-klein4")

    pool = [w.unit_group(r) for r in w.decide_rings()]
    for a in sorted(set(pool)):
        expect = {"unit_homs": sum(unit_homs(a, b) for b in pool), "disagreements": 0}
        put(f"weak_from:{a}", expect, "group-homs")
    for a, b in w.ISO_PAIRS:
        put(f"iso_hyper:{a}:{b}", {"found": (a, b) == ("gf3/U2", "krasner")}, "iso-facts")
    for a, b in w.WEAK_ISO_PAIRS:
        put(f"weak_iso:{a}:{b}", {"found": a.startswith("F(")}, "iso-facts")
    put("enumerate_homs:khef-klein4:kh-klein4", {"count": 2, "identity_on_units": 0}, "hand-homs")
    put("cli-morphisms:signs:krasner", _ok("1 homomorphisms"), "tests-cli")
    put("cli-morphisms-weak:signfuzzy:krasnerfuzzy", _ok("1 weak morphisms"), "tests-cli")
    put("cli-iso:krasner:signs", {"exit": 1, "stdout_contains": ["no isomorphism"]}, "tests-cli")
    search = {"weak_accepted": True, "one_of": ["extends", "refuted", "unknown"]}
    put("strong_extension_search:c5", search, "readme-c5")
    put(f"strong_extension_search:c5:checks{w.SAMPLE_FULL_CHECKS}", search, "readme-c5")

    for coeff in ("krasner", "krasnerfuzzy"):
        for n, r in w.GP_KRASNER:
            put(f"enumerate_gp:{coeff}:{n}:{r}", {"count": MATROIDS[n, r]}, "oeis-A058673")
    for coeff in ("signs", "signfuzzy"):
        for n, r in w.GP_SIGNS:
            count = chirotopes(n, r)
            put(f"enumerate_gp:{coeff}:{n}:{r}", {"count": count}, "chirotopes")
            put(f"enumerate_gp:{coeff}:{n}:{r}:normalize", {"count": count // 2}, "chirotopes")
            line = f"{count} Grassmann-Pluecker functions over {coeff}"
            put(f"cli-matroids:{coeff}:{n}:{r}", _ok(line), "chirotopes")
    for n, r in w.GP_KRASNER:
        put(f"basis_exchange_oracle:{n}:{r}", {"count": MATROIDS[n, r]}, "oeis-A058673")
    for n, r in w.CLI_MATROIDS:
        line = f"{MATROIDS[n, r]} Grassmann-Pluecker functions over krasner"
        put(f"cli-matroids-oracle:{n}:{r}", _ok(line, "oracle agreement: pass"), "oeis-A058673")
    for coeff, units in (("krasner", 1), ("signs", 2)):
        for n, r in w.CROSS_CHECK:
            candidates = (1 + units) ** math.comb(n, r) - 1
            expect = {"candidates": candidates, "disagreements": 0}
            put(f"cross_check_onetoone:{coeff}:{n}:{r}", expect, "paper-onetoone")
    return {"sources": SOURCES, "answers": answers}


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=1, sort_keys=True) + "\n"


if __name__ == "__main__":
    (HERE / "known_answers.json").write_text(dumps(build()))
