"""The four workloads: seeded job lists, the inputs they need, and the code
that runs one job and returns its verdict.

A job is a JSON-serialisable dict with a ``key`` (its entry in
``known_answers.json``), an ``op`` and the op's arguments.  The same
workload and seed always give the same list, byte for byte.  Draws are
stratified by carrier size, so seeds change which structures are used and
not how many of each size.

Every call into ``hyperalg`` goes through a module attribute
(``fuzzy.check_weak_morphism(...)``), so the tracer in ``spans.py`` sees it
when it rebinds those attributes.
"""

from __future__ import annotations

import contextlib
import hashlib
import io as _io
import itertools
import json
import math
import random
from dataclasses import dataclass, field, replace
from pathlib import Path

from hyperalg import cli, ddhyper, functors, fuzzy, hyper, io, matroid

# ---------------------------------------------------------------------------
# gallery: the paper's hyperfields, by carrier size

BUILTINS = {
    "krasner": 2,
    "gf2": 2,
    "signs": 3,
    "gf3": 3,
    "gf4": 4,
    "gf5": 5,
    "kh-klein4": 5,
    "kh-c4": 5,
    "kh-c5": 6,
    "gf7": 7,
    "khef-klein4": 7,
}
QUOTIENT_FIELDS = (3, 4, 5, 7, 8, 9, 11, 13)
MAX_CARRIER = 7


def _quotients() -> dict[str, tuple[int, int, int]]:
    """GF(q)/U for every unit subgroup U of order d > 1 with carrier <= 7,
    as name -> (q, d, carrier size).  U = {1} only gives GF(q) back."""
    out = {}
    for q in QUOTIENT_FIELDS:
        for d in range(2, q):
            size = 1 + (q - 1) // d
            if (q - 1) % d == 0 and size <= MAX_CARRIER:
                out[f"gf{q}/U{d}"] = (q, d, size)
    return out


QUOTIENTS = _quotients()


def carrier_size(name: str) -> int:
    return BUILTINS[name] if name in BUILTINS else QUOTIENTS[name][2]


def dd_known(name: str) -> bool:
    """Double distributivity is known for Krasner, signs (acceptance 6),
    fields, and GF(q)/GF(q)^x, which is the Krasner hyperfield."""
    if name in ("krasner", "signs") or name in ("gf2", "gf3", "gf4", "gf5", "gf7"):
        return True
    q, d, _ = QUOTIENTS.get(name, (0, 0, 0))
    return d == q - 1


def is_hyperfield(name: str) -> bool:
    return name != "khef-klein4"  # e*f = 0 in K[H] u {e, f}


def stratum(size: int) -> list[str]:
    return sorted(n for n in [*BUILTINS, *QUOTIENTS] if carrier_size(n) == size)


_GROUPS = {"kh-klein4": "klein4", "kh-c4": "c4", "kh-c5": "c5", "khef-klein4": "klein4"}


def subgroup_mask(ring: hyper.FiniteRing, d: int) -> int:
    """The unique subgroup of order d of the cyclic group GF(q)^x, as the
    mask of {x : x^d = 1}."""
    mask = 0
    for x in range(1, ring.n):
        y = 1
        for _ in range(d):
            y = ring.mul[y][x]
        if y == 1:
            mask |= 1 << x
    return mask


def unit_indices(name: str) -> str:
    q, d, _ = QUOTIENTS[name]
    m = subgroup_mask(hyper.galois_field(q), d)
    return ",".join(str(i) for i in range(q) if (m >> i) & 1)


def build_structure(name: str) -> hyper.FiniteHyperring:
    if name in BUILTINS:
        return hyper.builtin(name)
    q, d, _ = QUOTIENTS[name]
    ring = hyper.galois_field(q)
    return hyper.quotient(ring, subgroup_mask(ring, d))


def file_name(name: str) -> str:
    return name.replace("/", "-") + ".json"


# ---------------------------------------------------------------------------
# job lists

# every structure of these carrier sizes is in every list: their jobs are
# most of it and cost from microseconds to tens of milliseconds, so a draw
# among them would move the percentiles from seed to seed
FIXED_SIZES = (2, 3, 4, 5)
# one of each drawn per seed; the powerset ring of the 7-element carrier has
# 127 elements and checking its axioms is most of the workload's time
DRAWN = {6: ("gf11/U2", "kh-c5"), 7: ("gf13/U2", "gf7", "khef-klein4")}
# perturbed copies of each refute input
REFUTE_COPIES = 4


def _rng(workload: str, seed: int) -> random.Random:
    return random.Random(f"{workload}:{seed}")


def draw_structures(workload: str, seed: int, min_size: int = 2) -> list[str]:
    rng = _rng(workload, seed)
    names = [n for size in FIXED_SIZES if size >= min_size for n in stratum(size)]
    return names + [rng.choice(choices) for choices in DRAWN.values()]


def _job(key: str, op: str, **args) -> dict:
    return {"key": key, "op": op, **args}


def _cli(key: str, *argv: str) -> dict:
    return _job(key, "cli", argv=list(argv))


def _source(name: str) -> str:
    """CLI argument naming a structure: a builtin name or its input file."""
    return name if name in BUILTINS else "{file:%s}" % name


def _construct(op: str, name: str, *src: str) -> dict:
    return _cli(f"cli-construct-{op}:{name}", "construct", op, *src, "--out", "{out}")


def _obtain(name: str) -> dict:
    """Build the structure through the CLI, or check it where it is a builtin
    with no construction."""
    if name in QUOTIENTS:
        q = QUOTIENTS[name][0]
        return _construct("quotient", name, "--in", f"gf{q}", "--units", unit_indices(name))
    if name.startswith("kh-"):
        return _construct("KH", name, "--in", _GROUPS[name])
    if name.startswith("khef-"):
        return _construct("KHef", name, "--in", _GROUPS[name])
    return _cli(f"cli-check:{name}", "check", name)


def verify_jobs(seed: int) -> list[dict]:
    jobs = []
    for name in draw_structures("verify", seed):
        jobs += [
            _obtain(name),
            _construct("F", name, "--in", _source(name)),
            _job(f"check_hyperring:{name}", "check_hyperring", struct=name),
            _job(f"check_roundtrips:{name}", "check_roundtrips", struct=name),
        ]
        if dd_known(name) and carrier_size(name) < MAX_CARRIER:
            jobs += [
                _job(f"check_dd:{name}", "check_dd", struct=name),
                _construct("Fbar", name, "--in", _source(name)),
                _construct("F1", name, "--in", _source(name)),
                _job(f"f2f1_eq_fbar:{name}", "f2f1_eq_fbar", struct=name),
            ]
    for window in ("3", "4"):
        jobs.append(_cli(f"cli-ordgrp-demo:{window}", "ordgrp-demo", "--window", window))
    return jobs + decision_sample()


# complete candidates the extension search may check in the decision sample;
# the default budget of 200 takes seconds
SAMPLE_FULL_CHECKS = 20


def decision_sample() -> list[dict]:
    """A fixed sample of the decide jobs.  Decide's timings swing with the
    host more than its bounds allow, so it is run on demand only; this
    sample keeps the decision layers in the traced runs of verify."""
    return [
        _job("weak_from:V4", "weak_from", src="F(kh-klein4)"),
        _job("weak_from:C4", "weak_from", src="F(gf5)"),
        _job("f_mor:kh-klein4:identity", "f_mor", struct="kh-klein4", target="identity"),
        _job("f_mor:kh-klein4:krasner", "f_mor", struct="kh-klein4", target="krasner"),
        _job("iso_hyper_roundtrip:kh-klein4", "iso_hyper", a="kh-klein4", b="G(F(kh-klein4))"),
        _job("iso_hyper:kh-klein4:kh-c4", "iso_hyper", a="kh-klein4", b="kh-c4"),
        _job("weak_iso:F(signs):signfuzzy", "weak_iso", a="F(signs)", b="signfuzzy"),
        _job("enumerate_homs:khef-klein4:kh-klein4", "homs_khef_kh"),
        _job(
            f"strong_extension_search:c5:checks{SAMPLE_FULL_CHECKS}",
            "strong_search_c5",
            full_checks=SAMPLE_FULL_CHECKS,
        ),
    ]


def refute_jobs(seed: int) -> list[dict]:
    jobs = []
    for name in draw_structures("refute", seed, min_size=3):
        for copy in range(REFUTE_COPIES):
            f_file = "{file:F(%s)~%d}" % (name, copy)
            jobs.append(
                _cli(f"cli-check-perturbed-F:{name}", "check", f_file, "--kind", "fuzzyring")
            )
            if carrier_size(name) >= 4:
                h_file = "{file:%s~%d}" % (name, copy)
                jobs.append(
                    _cli(f"cli-check-perturbed:{name}", "check", h_file, "--kind", "hyperring")
                )
    jobs.append(_job("weak_klein4_identity", "weak_klein4_identity"))
    return jobs


def decide_pool() -> list[str]:
    return [n for size in FIXED_SIZES for n in stratum(size)]


def decide_rings() -> list[str]:
    return [f"F({n})" for n in decide_pool()] + ["krasnerfuzzy", "signfuzzy"]


ISO_PAIRS = (
    ("krasner", "signs"),
    ("kh-klein4", "kh-c4"),
    ("gf3/U2", "krasner"),
    ("gf2", "krasner"),
)
WEAK_ISO_PAIRS = (
    ("F(krasner)", "krasnerfuzzy"),
    ("F(signs)", "signfuzzy"),
    ("krasnerfuzzy", "signfuzzy"),
)


def decide_jobs(seed: int) -> list[dict]:
    """Every base of size 2-5 and every ring of the pool, whatever the seed;
    the seed only orders the jobs.  Single pairs of rings take microseconds
    and vary by two orders of magnitude, so a job decides every unit hom
    from one ring into all 27."""
    jobs = [_job(f"weak_from:{unit_group(r)}", "weak_from", src=r) for r in decide_rings()]
    for name in decide_pool():
        for target in ("identity", "krasner"):
            jobs.append(_job(f"f_mor:{name}:{target}", "f_mor", struct=name, target=target))
        jobs.append(
            _job(f"iso_hyper_roundtrip:{name}", "iso_hyper", a=name, b=f"G(F({name}))")
        )
    for a, b in ISO_PAIRS:
        jobs.append(_job(f"iso_hyper:{a}:{b}", "iso_hyper", a=a, b=b))
    for a, b in WEAK_ISO_PAIRS:
        jobs.append(_job(f"weak_iso:{a}:{b}", "weak_iso", a=a, b=b))
    jobs += [
        _job("enumerate_homs:khef-klein4:kh-klein4", "homs_khef_kh"),
        _cli("cli-morphisms:signs:krasner", "morphisms", "signs", "krasner"),
        _cli(
            "cli-morphisms-weak:signfuzzy:krasnerfuzzy",
            "morphisms", "signfuzzy", "krasnerfuzzy", "--kind", "fuzzy-weak",
        ),
        _cli("cli-iso:krasner:signs", "iso", "krasner", "signs"),
        _job("strong_extension_search:c5", "strong_search_c5"),
    ]
    _rng("decide", seed).shuffle(jobs)
    return jobs


GP_KRASNER = [(n, r) for n in range(1, 6) for r in range(1, min(n, 3) + 1)]
GP_SIGNS = [(n, r) for n in range(1, 5) for r in range(1, min(n, 3) + 1)]
# acceptance criterion 9: every nonzero assignment at these sizes
CROSS_CHECK = [(3, 1), (3, 2), (4, 1), (4, 2), (4, 3)]
CLI_MATROIDS = [(n, r) for n, r in GP_KRASNER if n <= 4]


def _gp(coeff: str, n: int, r: int, normalize: bool = False) -> dict:
    key = f"enumerate_gp:{coeff}:{n}:{r}" + (":normalize" if normalize else "")
    return _job(key, "enumerate_gp", coeff=coeff, n=n, r=r, normalize=normalize)


def _matroids(key: str, coeff: str, n: int, r: int, *flags: str) -> dict:
    return _cli(key, "matroids", "--coeff", coeff, "-n", str(n), "-r", str(r), *flags)


def enumerate_jobs(seed: int) -> list[dict]:
    """The inputs are fixed (every size the enumeration reaches in seconds);
    the seed only orders the jobs."""
    jobs = [_gp(c, n, r) for c in ("krasner", "krasnerfuzzy") for n, r in GP_KRASNER]
    for coeff in ("signs", "signfuzzy"):
        jobs += [_gp(coeff, n, r, norm) for n, r in GP_SIGNS for norm in (False, True)]
        jobs += [_matroids(f"cli-matroids:{coeff}:{n}:{r}", coeff, n, r) for n, r in GP_SIGNS]
    for n, r in GP_KRASNER:
        jobs.append(_job(f"basis_exchange_oracle:{n}:{r}", "oracle", n=n, r=r))
    for n, r in CLI_MATROIDS:
        jobs.append(_matroids(f"cli-matroids-oracle:{n}:{r}", "krasner", n, r, "--oracle"))
    for coeff in ("krasner", "signs"):
        for n, r in CROSS_CHECK:
            key = f"cross_check_onetoone:{coeff}:{n}:{r}"
            jobs.append(_job(key, "cross_check", coeff=coeff, n=n, r=r))
    _rng("enumerate", seed).shuffle(jobs)
    return jobs


JOB_LISTS = {
    "verify": verify_jobs,
    "refute": refute_jobs,
    "decide": decide_jobs,
    "enumerate": enumerate_jobs,
}
WORKLOADS = tuple(JOB_LISTS)


def job_list(workload: str, seed: int) -> list[dict]:
    return JOB_LISTS[workload](seed)


def job_list_hash(jobs: list[dict]) -> str:
    blob = json.dumps(jobs, sort_keys=True, separators=(",", ":")).encode()
    return hashlib.sha256(blob).hexdigest()


# ---------------------------------------------------------------------------
# unit groups of the decide pool, for the known number of unit homs


def unit_group(ring: str) -> str:
    """Unit group of a powerset ring F(R) (the singletons of R's units) or a
    builtin fuzzy ring, as C<m> or V4."""
    if ring == "krasnerfuzzy":
        return "C1"
    if ring == "signfuzzy":
        return "C2"
    name = ring[2:-1]  # F(name)
    if name == "kh-klein4":
        return "V4"
    if name in ("krasner", "signs"):
        return "C1" if name == "krasner" else "C2"
    if name.startswith("kh-c"):
        return f"C{name[4:]}"
    if name in QUOTIENTS:
        q, d, _ = QUOTIENTS[name]
        return f"C{(q - 1) // d}"
    return f"C{int(name[2:]) - 1}"  # gf<q>


# ---------------------------------------------------------------------------
# inputs


@dataclass
class Context:
    """Inputs one job list needs, built once per run (set-up)."""

    workdir: Path
    structs: dict = field(default_factory=dict)  # name -> FiniteHyperring
    rings: dict = field(default_factory=dict)  # name -> FiniteFuzzyRing
    files: dict = field(default_factory=dict)  # label -> path


def _perturb_fuzzy(k: fuzzy.FiniteFuzzyRing, rng: random.Random):
    """Change one add entry off rows and columns 0 and 1 (so epsilon stays
    determined); the table stops being commutative there.

    The new entry is null exactly when the old one was not, so FR6 meets a
    witness in its first chunk and the check costs about the same wherever
    the entry is.  A change that keeps the nullity makes FR6 sweep every
    null pair and FR7 run to its first witness: 4-9 s on a 127-element ring
    depending on the entry, which would make the pass time depend on the
    seed."""
    i, j = rng.sample(range(2, k.n), 2)
    old = k.add[i][j]
    choices = [v for v in range(k.n) if k.is_null(v) != k.is_null(old)]
    add = [list(row) for row in k.add]
    add[i][j] = rng.choice(choices)
    return replace(k, add=tuple(map(tuple, add)), name=f"{k.name}~")


def _perturb_hyper(h: hyper.FiniteHyperring, rng: random.Random):
    """Toggle one nonzero element of an off-diagonal hypersum; bit 0 is kept,
    so every element keeps its unique inverse and the file still loads."""
    i, j = rng.sample(range(2, h.n), 2)
    bit = rng.choice([b for b in range(1, h.n) if h.add[i][j] ^ (1 << b)])
    add = [list(row) for row in h.add]
    add[i][j] ^= 1 << bit
    return replace(h, add=tuple(map(tuple, add)), name=f"{h.name}~")


def build_context(workload: str, seed: int, jobs: list[dict], workdir: Path) -> Context:
    workdir.mkdir(parents=True, exist_ok=True)
    ctx = Context(workdir)
    if workload == "verify":
        for job in jobs:
            name = job.get("struct")
            if name and name not in ctx.structs:
                ctx.structs[name] = build_structure(name)
                if name in QUOTIENTS:
                    path = workdir / file_name(name)
                    io.save_structure(ctx.structs[name], path)
                    ctx.files[name] = str(path)
        _decide_inputs(ctx)
    elif workload == "refute":
        rng = _rng("refute-inputs", seed)
        for name in draw_structures("refute", seed, min_size=3):
            base = build_structure(name)
            fk = functors.F_obj(base).fuzzy
            for copy in range(REFUTE_COPIES):
                _save(ctx, "F(%s)~%d" % (name, copy), _perturb_fuzzy(fk, rng))
                if base.n >= 4:
                    _save(ctx, "%s~%d" % (name, copy), _perturb_hyper(base, rng))
        for name in ("khef-klein4", "kh-klein4"):
            ctx.structs[name] = build_structure(name)
    elif workload == "decide":
        _decide_inputs(ctx)
    else:
        for name in ("krasner", "signs"):
            h = build_structure(name)
            ctx.structs[name] = h
            ctx.rings[f"F({name})"] = functors.F_obj(h)
            ctx.rings[f"Fbar({name})"] = (ddhyper.Fbar(h), ddhyper.fbar_embed(h))
        ctx.rings["krasnerfuzzy"] = fuzzy.krasner_fuzzy()
        ctx.rings["signfuzzy"] = fuzzy.sign_fuzzy()
    return ctx


def _decide_inputs(ctx: Context) -> None:
    for name in decide_pool() + ["khef-klein4"]:
        if name not in ctx.structs:
            ctx.structs[name] = build_structure(name)
    for name in decide_pool():
        ctx.rings[f"F({name})"] = functors.F_obj(ctx.structs[name]).fuzzy
    ctx.rings["krasnerfuzzy"] = fuzzy.krasner_fuzzy()
    ctx.rings["signfuzzy"] = fuzzy.sign_fuzzy()


def _save(ctx: Context, label: str, obj) -> None:
    path = ctx.workdir / file_name(label)
    io.save_structure(obj, path)
    ctx.files[label] = str(path)


# ---------------------------------------------------------------------------
# running one job


def run_job(job: dict, ctx: Context, index: int) -> dict:
    """Run one job and return its verdict as a dict of comparable fields."""
    return _OPS[job["op"]](job, ctx, index)


def _op_cli(job, ctx, index):
    argv = []
    for a in job["argv"]:
        if a == "{out}":
            a = str(ctx.workdir / f"out-{index}.json")
        elif a.startswith("{file:"):
            a = ctx.files[a[6:-1]]
        argv.append(a)
    out, err = _io.StringIO(), _io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        try:
            code = cli.main(argv)
        except SystemExit as e:  # argparse usage errors
            code = e.code
    return {"exit": code, "stdout": out.getvalue()}


def _op_check_hyperring(job, ctx, index):
    return {"passed": hyper.check_hyperring(ctx.structs[job["struct"]]).passed}


def _op_check_roundtrips(job, ctx, index):
    return {"passed": functors.check_roundtrips(ctx.structs[job["struct"]]).passed}


def _op_check_dd(job, ctx, index):
    return {"passed": hyper.check_doubly_distributive(ctx.structs[job["struct"]]).passed}


def _op_f2f1_eq_fbar(job, ctx, index):
    h = ctx.structs[job["struct"]]
    f2 = ddhyper.F2(ddhyper.F1(h))
    fb = ddhyper.Fbar(h)
    same = (f2.add, f2.mul, f2.k0, f2.epsilon) == (fb.add, fb.mul, fb.k0, fb.epsilon)
    return {"equal": same}


def _op_weak_klein4_identity(job, ctx, index):
    src = functors.F_obj(ctx.structs["khef-klein4"])
    dst = functors.F_obj(ctx.structs["kh-klein4"])
    unit_map = {src.embed[u]: dst.embed[u] for u in src.base.units}
    cert = fuzzy.check_weak_morphism(src.fuzzy, dst.fuzzy, unit_map)
    found = fuzzy.weak_violation_by_enumeration(src.fuzzy, dst.fuzzy, unit_map, 4)
    return {"accepted": cert.accepted, "oracle_found": found is not None}


# violating sums in the decide pool have at most 5 units (checked over every
# pair of the pool), so the enumeration oracle is exact there
ORACLE_MAX_LEN = 5


def _op_weak_from(job, ctx, index):
    k = ctx.rings[job["src"]]
    homs = accepted = disagree = 0
    for dst in decide_rings():
        l = ctx.rings[dst]
        for unit_map in fuzzy.enumerate_unit_homs(k, l):
            cert = fuzzy.check_weak_morphism(k, l, unit_map)
            witness = fuzzy.weak_violation_by_enumeration(k, l, unit_map, ORACLE_MAX_LEN)
            homs += 1
            accepted += cert.accepted
            disagree += cert.accepted != (witness is None)
    return {"unit_homs": homs, "accepted": accepted, "disagreements": disagree}


def _op_f_mor(job, ctx, index):
    h = ctx.structs[job["struct"]]
    if job["target"] == "identity":
        table = functors.F_mor(tuple(range(h.n)), h, h)
    else:  # every nonzero element to 1: a homomorphism onto Krasner
        table = functors.F_mor((0,) + (1,) * (h.n - 1), h, hyper.krasner())
    return {"accepted": table.certificate.accepted}


def _hyperring(name, ctx):
    if name.startswith("G(F("):
        base = ctx.structs[name[4:-2]]
        return functors.G_obj(functors.F_obj(base).fuzzy)
    return ctx.structs.get(name) or build_structure(name)


def _op_iso_hyper(job, ctx, index):
    a, b = _hyperring(job["a"], ctx), _hyperring(job["b"], ctx)
    return {"found": hyper.iso_hyper(a, b) is not None}


def _fuzzy_ring(name, ctx):
    if name in ctx.rings:
        return ctx.rings[name]
    return functors.F_obj(ctx.structs.get(name[2:-1]) or build_structure(name[2:-1])).fuzzy


def _op_weak_iso(job, ctx, index):
    a, b = _fuzzy_ring(job["a"], ctx), _fuzzy_ring(job["b"], ctx)
    return {"found": fuzzy.weak_iso(a, b) is not None}


def _op_homs_khef_kh(job, ctx, index):
    homs = hyper.enumerate_homs(ctx.structs["khef-klein4"], ctx.structs["kh-klein4"])
    identity = sum(all(h[x] == x for x in range(1, 5)) for h in homs)
    return {"count": len(homs), "identity_on_units": identity}


def _op_strong_search_c5(job, ctx, index):
    src = functors.F_obj(hyper.khef(hyper.cyclic_group(5)))
    dst = functors.F_obj(hyper.kh(hyper.cyclic_group(5)))
    unit_map = {src.embed[u]: dst.embed[u] for u in src.base.units}
    weak = fuzzy.check_weak_morphism(src.fuzzy, dst.fuzzy, unit_map)
    cfg = functors.ExtensionSearchConfig()
    if "full_checks" in job:
        cfg = functors.ExtensionSearchConfig(full_check_limit=job["full_checks"])
    res = functors.strong_extension_search(src.fuzzy, dst.fuzzy, unit_map, cfg)
    return {"weak_accepted": weak.accepted, "verdict": res.verdict}


def _coefficient(name, ctx):
    return ctx.structs[name] if name in ctx.structs else ctx.rings[name]


def _op_enumerate_gp(job, ctx, index):
    coeff = _coefficient(job["coeff"], ctx)
    found = matroid.enumerate_gp(coeff, job["n"], job["r"], normalize=job["normalize"])
    return {"count": len(found)}


def _op_oracle(job, ctx, index):
    return {"count": len(matroid.basis_exchange_oracle(job["n"], job["r"]))}


def _op_cross_check(job, ctx, index):
    h = ctx.structs[job["coeff"]]
    fk = ctx.rings[f"F({job['coeff']})"]
    fb, femb = ctx.rings[f"Fbar({job['coeff']})"]
    n, r = job["n"], job["r"]
    candidates = disagree = 0
    for vals in itertools.product([0, *h.units], repeat=math.comb(n, r)):
        if not any(vals):
            continue
        phi = matroid.GPFunction(n, r, vals, h)
        candidates += 1
        disagree += not matroid.cross_check_onetoone(phi, h, fk, fb, femb).agrees
    return {"candidates": candidates, "disagreements": disagree}


_OPS = {
    "cli": _op_cli,
    "check_hyperring": _op_check_hyperring,
    "check_roundtrips": _op_check_roundtrips,
    "check_dd": _op_check_dd,
    "f2f1_eq_fbar": _op_f2f1_eq_fbar,
    "weak_klein4_identity": _op_weak_klein4_identity,
    "weak_from": _op_weak_from,
    "f_mor": _op_f_mor,
    "iso_hyper": _op_iso_hyper,
    "weak_iso": _op_weak_iso,
    "homs_khef_kh": _op_homs_khef_kh,
    "strong_search_c5": _op_strong_search_c5,
    "enumerate_gp": _op_enumerate_gp,
    "oracle": _op_oracle,
    "cross_check": _op_cross_check,
}


# ---------------------------------------------------------------------------
# the correctness gate


def matches(expected: dict, got: dict) -> bool:
    """Does a verdict agree with its known answer?

    ``stdout_contains`` lists substrings of the CLI output; ``one_of`` lists
    the allowed values of ``verdict``; every other key must be equal."""
    for k, v in expected.items():
        if k == "stdout_contains":
            if not all(s in got.get("stdout", "") for s in v):
                return False
        elif k == "one_of":
            if got.get("verdict") not in v:
                return False
        elif got.get(k) != v:
            return False
    return True


def undecided(got: dict) -> bool:
    return got.get("verdict") == "unknown"
