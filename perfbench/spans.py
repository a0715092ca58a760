"""Tracing from outside the program: rebind each traced ``hyperalg``
function at every module attribute that holds it, record one span per call
(name, start, end, parent span, job id) and a few work counts taken from
arguments and return values.  Self time is a span's duration minus its
children's.
"""

from __future__ import annotations

import inspect
import json
import math
import os
import sys
import time
from collections import defaultdict

import numpy as np

# layer (module) -> traced functions -> extra counts beyond self_s and calls
TIMED = {
    "fuzzy": {
        "check_fuzzy_axioms": ("elements", "fr6_pairs_sq", "fr7_quadruples", "violations"),
        "check_weak_morphism": ("reachable", "accepted"),
        "check_strong_morphism": ("reachable", "accepted"),
        "weak_iso": (),
        "enumerate_unit_homs": (),
        "weak_violation_by_enumeration": (),
    },
    "functors": {
        "F_obj": ("elements",),
        "G_obj": (),
        "F_mor": (),
        "check_roundtrips": (),
        "strong_extension_search": ("nodes", "full_checks"),
    },
    "hyper": {
        "check_hyperring": (),
        "check_doubly_distributive": (),
        "quotient": (),
        "iso_hyper": (),
        "enumerate_homs": ("candidates", "accepted"),
    },
    "ddhyper": {
        "closure_S": (),
        "Fbar": (),
        "F1": (),
        "F2": (),
        "check_partial_demifield": (),
        "check_addsame": (),
    },
    "ordgrp": {
        "check_window_hypergroup": (),
        "check_window_doubly_distributive": (),
        "check_window_fuzzy_axioms": (),
        "check_fbar_hgamma_iso_kgamma": (),
    },
    "matroid": {
        "enumerate_gp": ("candidates", "accepted", "candidates_per_s"),
        "verify_gp": (),
        "basis_exchange_oracle": ("families",),
        "cross_check_onetoone": (),
    },
    "io": {"load_structure": ("bytes",), "save_structure": ("bytes",)},
    "cli": {"main": ()},
}
# too hot to time without distorting their callers: counted only
COUNTED = {"core": ("extend_hyperop", "mask_mul")}
# functions whose per-layer metrics leave out the plain call count
NO_CALLS = {"matroid.basis_exchange_oracle"}

UNITS = {
    "self_s": "s",
    "bytes": "B",
    "candidates_per_s": "1/s",
}
BETTER_HIGHER = {"candidates_per_s"}


def metric_names() -> list[tuple[str, str, str]]:
    """(name, unit, better) of every per-layer metric, in output order."""
    out = []
    for layer, fns in TIMED.items():
        for fn, extra in fns.items():
            base = f"{layer}.{fn}"
            kinds = ["self_s"] + ([] if base in NO_CALLS else ["calls"]) + list(extra)
            for k in kinds:
                better = "higher" if k in BETTER_HIGHER else "lower"
                out.append((f"{base}.{k}", UNITS.get(k, "count"), better))
    for layer, fns in COUNTED.items():
        for fn in fns:
            out.append((f"{layer}.{fn}.calls", "count", "lower"))
    out.append(("trace.overhead_frac", "ratio", "lower"))
    return out


def _nullity_pairs(k) -> int:
    nul = np.zeros(k.n, dtype=bool)
    nul[[x for x in range(k.n) if (k.k0 >> x) & 1]] = True
    return int(np.count_nonzero(nul[np.array(k.add, dtype=np.intp)]))


def _counts(name: str, args: dict, result) -> dict[str, float]:
    """Work counts from a call's arguments and result, never from inside."""
    if name == "fuzzy.check_fuzzy_axioms":
        k = args["k"]
        return {
            "elements": k.n,
            "fr6_pairs_sq": _nullity_pairs(k) ** 2,
            "fr7_quadruples": k.n**4,
            "violations": len(result.violations),
        }
    if name in ("fuzzy.check_weak_morphism", "fuzzy.check_strong_morphism"):
        return {"reachable": result.reachable, "accepted": int(result.accepted)}
    if name == "functors.F_obj":
        return {"elements": result.fuzzy.n}
    if name == "functors.strong_extension_search":
        return {"nodes": result.nodes, "full_checks": result.full_checks}
    if name == "hyper.enumerate_homs":
        fixed = {0, 1} | set(args.get("fixed") or {})
        return {
            "candidates": args["s"].n ** (args["r"].n - len(fixed)),
            "accepted": len(result),
        }
    if name == "matroid.enumerate_gp":
        slots = math.comb(args["n"], args["r"])
        return {
            "candidates": (1 + len(args["f"].units)) ** slots,
            "accepted": len(result),
        }
    if name == "matroid.basis_exchange_oracle":
        return {"families": 2 ** math.comb(args["n"], args["r"]) - 1}
    if name in ("io.load_structure", "io.save_structure"):
        path = args["path"]
        return {"bytes": os.path.getsize(path) if os.path.exists(path) else 0}
    return {}


class Tracer:
    """Spans kept in memory for one traced pass; ``install`` rebinds the
    traced functions, ``uninstall`` restores them."""

    def __init__(self):
        self.spans: list[list] = []  # [name, start, end, parent, job]
        self.counts: dict[str, float] = defaultdict(float)
        self.job = None
        self._stack: list[int] = []
        self._restore: list[tuple] = []

    # -- installing ---------------------------------------------------------

    def install(self) -> None:
        modules = [m for n, m in sys.modules.items() if n.split(".")[0] == "hyperalg"]
        for layer, fns in TIMED.items():
            for fn, extra in fns.items():
                original = getattr(sys.modules[f"hyperalg.{layer}"], fn)
                wrapper = self._timed(f"{layer}.{fn}", original, bool(extra))
                self._rebind(modules, original, wrapper)
        for layer, fns in COUNTED.items():
            for fn in fns:
                original = getattr(sys.modules[f"hyperalg.{layer}"], fn)
                self._rebind(modules, original, self._counted(f"{layer}.{fn}", original))

    def _rebind(self, modules, original, wrapper) -> None:
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    setattr(mod, attr, wrapper)
                    self._restore.append((mod, attr, original))

    def uninstall(self) -> None:
        for mod, attr, original in reversed(self._restore):
            setattr(mod, attr, original)
        self._restore.clear()

    def _counted(self, name: str, fn):
        counts = self.counts
        key = f"{name}.calls"

        def wrapper(*args, **kwargs):
            counts[key] += 1
            return fn(*args, **kwargs)

        return wrapper

    def _timed(self, name: str, fn, wants_counts: bool):
        signature = inspect.signature(fn)

        def wrapper(*args, **kwargs):
            index = self.open(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                self.close(index)
            self.counts[f"{name}.calls"] += 1
            if wants_counts:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                for k, v in _counts(name, bound.arguments, result).items():
                    self.counts[f"{name}.{k}"] += v
            return result

        return wrapper

    # -- spans --------------------------------------------------------------

    def open(self, name: str) -> int:
        parent = self._stack[-1] if self._stack else None
        self.spans.append([name, time.perf_counter(), None, parent, self.job])
        self._stack.append(len(self.spans) - 1)
        return len(self.spans) - 1

    def close(self, index: int) -> None:
        self.spans[index][2] = time.perf_counter()
        self._stack.pop()

    def self_times(self) -> list[float]:
        """Duration of each span minus the durations of its children."""
        own = [s[2] - s[1] for s in self.spans]
        for s in self.spans:
            if s[3] is not None:
                own[s[3]] -= s[2] - s[1]
        return own

    def write(self, path, origin: float) -> None:
        with open(path, "w") as f:
            for i, (name, start, end, parent, job) in enumerate(self.spans):
                row = {"id": i, "name": name, "start": start - origin, "end": end - origin}
                f.write(json.dumps({**row, "parent": parent, "job": job}) + "\n")


def layer_report(
    tracer: Tracer, origin: float, wall: float, untraced_wall: float
) -> tuple[dict, dict]:
    """Per-layer metrics of one traced pass that started at ``origin``, and a
    summary of its wall time.  The layers' self times plus the time no span
    covers add up to the wall time exactly when every span lies inside its
    parent, the top-level spans do not overlap and none ends after the pass;
    those three conditions are what is checked here."""
    for name, start, stop, parent, _ in tracer.spans:
        if parent is not None and not (
            tracer.spans[parent][1] <= start and stop <= tracer.spans[parent][2]
        ):
            raise RuntimeError(f"span {name} is not inside its parent")
    end = origin
    for s in tracer.spans:
        if s[3] is None:
            if s[1] < end:
                raise RuntimeError("top-level spans overlap")
            end = s[2]
    if end > origin + wall:
        raise RuntimeError("a span ends after the pass")
    by_name: dict[str, float] = defaultdict(float)
    inclusive: dict[str, float] = defaultdict(float)
    for s, t in zip(tracer.spans, tracer.self_times()):
        by_name[s[0]] += t
        inclusive[s[0]] += s[2] - s[1]
    uncovered = wall - sum(s[2] - s[1] for s in tracer.spans if s[3] is None)
    metrics = {}
    for name, unit, _ in metric_names():
        base, _, kind = name.rpartition(".")
        if name == "trace.overhead_frac":
            value = (wall - untraced_wall) / untraced_wall
        elif kind == "self_s":
            value = by_name.get(base, 0.0)
        elif kind == "candidates_per_s":
            t = inclusive.get(base, 0.0)
            value = tracer.counts.get(f"{base}.candidates", 0.0) / t if t else 0.0
        else:
            value = tracer.counts.get(name, 0)
        metrics[name] = {"value": value, "unit": unit}
    summary = {
        "wall_s": wall,
        "untraced_wall_s": untraced_wall,
        "uncovered_s": uncovered,
        "spans": len(tracer.spans),
        "share_of_wall": {k: v / wall for k, v in sorted(by_name.items(), key=lambda kv: -kv[1])},
    }
    return metrics, summary
