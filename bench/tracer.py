"""Span tracing at numrad's layer boundaries, from outside the program.

numrad imports functions by name (``from .radius import numerical_radius``),
so a wrapper must replace the name the *caller* looks up: the tracer patches
``numrad.bounds.numerical_radius`` rather than ``numrad.radius``'s own copy.
The numpy LAPACK entry points are patched on ``numpy.linalg``, which every
numrad module reaches through attribute lookup at call time.

A span is (id, name, start, end, parent id, root id, attrs).  Spans are kept
in memory and written out when the run ends.  A span's self time is its
duration minus the duration of its direct children.  Spans open only below a
root span, one per benchmark operation, so work done outside an operation
(set-up, oracles) is never traced.
"""

from __future__ import annotations

import json
import math
import os
import time
from collections import Counter, defaultdict

import numpy as np

import numrad.bounds
import numrad.cli
import numrad.ensembles
import numrad.matio
import numrad.radius

_perf = time.perf_counter
_svd = np.linalg.svd

# (module, attribute, span name); the name's first component is its layer
BOUNDARIES = (
    (numrad.cli, "main", "cli.main"),
    (numrad.cli, "numerical_radius", "radius.numerical_radius"),
    (numrad.matio, "load_matrix", "matio.load_matrix"),
    (numrad.ensembles, "run_study", "ensembles.run_study"),
    (numrad.ensembles, "generate", "ensembles.generate"),
    (numrad.bounds, "evaluate", "bounds.evaluate"),
    (numrad.bounds, "numerical_radius", "radius.numerical_radius"),
    (numrad.bounds, "operator_norm", "linalg.operator_norm"),
    (numrad.bounds, "svd", "linalg.svd"),
    (numrad.bounds, "herm_eigen", "linalg.herm_eigen"),
    (numrad.bounds, "apply_herm_fn", "linalg.apply_herm_fn"),
    (numrad.radius, "numerical_radius", "radius.numerical_radius"),
    (np.linalg, "eigvalsh", "kernel.eigvalsh"),
    (np.linalg, "eigh", "kernel.eigh"),
    (np.linalg, "svd", "kernel.svd"),
)

# Failure classes a study draw can end in: the three run_study records, then
# the four that escape it.
FAILURE_CLASSES = (
    "ConvergenceError",
    "EnclosureNotReached",
    "LinAlgError",
    "IdentityCheckError",
    "DomainError",
    "HypothesisFailed",
    "NotPositiveError",
)


def metric_id(bound_id: str) -> str:
    """Catalog id as a metric-name component: LEM1+ -> LEM1_plus, COR:2 -> COR_r2."""
    return bound_id.replace("+", "_plus").replace("-", "_minus").replace(":", "_r")


def _kernel_attrs(args, kwargs, result):
    shape = np.shape(args[0])
    m, n = shape[-2], shape[-1]
    return {"matrices": math.prod(shape[:-2]), "n3": m * n * min(m, n)}


def _radius_attrs(args, kwargs, est):
    # resolved after the run (see Tracer.finish): the target width needs ||A||,
    # and an SVD here would be charged to the caller's self time
    cfg = args[1] if len(args) > 1 else kwargs.get("cfg")
    return {"deferred": (args[0], cfg, est)}


def _resolve_radius(attrs: dict) -> dict:
    a, cfg, est = attrs["deferred"]
    cfg = cfg or numrad.radius.RadiusConfig()
    norm = float(_svd(np.asarray(a, dtype=np.complex128), compute_uv=False)[0])
    return {
        "levels": round(math.log2(est.grid_points / cfg.grid_points)),
        "ascent_steps": est.refinement_iters,
        "width_over_target": est.width / cfg.resolve_target(norm),
    }


def _load_attrs(args, kwargs, result):
    return {"bytes": os.path.getsize(args[0])}


_ATTRS = {
    "kernel.eigvalsh": _kernel_attrs,
    "kernel.eigh": _kernel_attrs,
    "kernel.svd": _kernel_attrs,
    "radius.numerical_radius": _radius_attrs,
    "matio.load_matrix": _load_attrs,
    "bounds.evaluate": lambda args, kwargs, result: {"bound_id": args[0]},
    "cli.main": lambda args, kwargs, status: {"status": status},
}


class Tracer:
    def __init__(self):
        self.spans: list[list] = []
        self._stack: list[int] = []
        self._patches: list[tuple] = []

    def _wrap(self, fn, name):
        attrs_of = _ATTRS.get(name)

        def traced(*args, **kwargs):
            if not self._stack:
                return fn(*args, **kwargs)
            rec = [len(self.spans), name, _perf(), None, self._stack[-1], self._stack[0], None]
            self.spans.append(rec)
            self._stack.append(rec[0])
            try:
                result = fn(*args, **kwargs)
            except BaseException as exc:
                rec[6] = {"error": type(exc).__name__}
                raise
            finally:
                rec[3] = _perf()
                self._stack.pop()
            if attrs_of is not None:
                rec[6] = attrs_of(args, kwargs, result)
            return result

        return traced

    def install(self) -> None:
        for module, attr, name in BOUNDARIES:
            original = getattr(module, attr)
            self._patches.append((module, attr, original))
            setattr(module, attr, self._wrap(original, name))

    def uninstall(self) -> None:
        while self._patches:
            module, attr, original = self._patches.pop()
            setattr(module, attr, original)

    def root(self, label: str, fn):
        """Run one benchmark operation under a root span."""
        rec = [len(self.spans), "op", _perf(), None, None, len(self.spans), {"slot": label}]
        self.spans.append(rec)
        self._stack.append(rec[0])
        try:
            return fn()
        finally:
            rec[3] = _perf()
            self._stack.pop()

    def finish(self) -> None:
        """Resolve attributes deferred until the run has ended."""
        for rec in self.spans:
            if rec[6] and "deferred" in rec[6]:
                rec[6] = _resolve_radius(rec[6])

    def write(self, path: str) -> None:
        keys = ("id", "name", "start", "end", "parent", "root", "attrs")
        with open(path, "w", encoding="utf-8") as fh:
            for rec in self.spans:
                fh.write(json.dumps(dict(zip(keys, rec))) + "\n")

    def metrics(
        self, ops: int, failures: Counter, overhead_share: float, bound_ids: tuple
    ) -> dict:
        """Per-layer metrics, normalised per operation or per radius call.

        Count metrics are integer totals divided by integer totals, so runs
        over whole cycles of the same inputs give bit-identical values."""
        spans = self.spans
        dur = [rec[3] - rec[2] for rec in spans]
        children = defaultdict(list)
        for rec in spans:
            if rec[4] is not None:
                children[rec[4]].append(rec[0])
        by_name = defaultdict(list)
        for rec in spans:
            by_name[rec[1]].append(rec[0])

        def total(name):
            return sum(dur[i] for i in by_name[name])

        def self_time(*layers):
            return sum(
                dur[rec[0]] - sum(dur[c] for c in children[rec[0]])
                for rec in spans
                if rec[1].split(".")[0] in layers
            )

        def attr_sum(ids, key):
            return sum(spans[i][6][key] for i in ids if spans[i][6] and key in spans[i][6])

        def per(x, base):
            return x / base if base else 0.0

        out = {}
        kernel_s = 0.0
        for k in ("eigvalsh", "eigh", "svd"):
            ids = by_name[f"kernel.{k}"]
            out[f"kernel.{k}.calls"] = (per(len(ids), ops), "count/op")
            if k == "eigvalsh":
                out["kernel.eigvalsh.matrices"] = (per(attr_sum(ids, "matrices"), ops), "count/op")
            out[f"kernel.{k}.s"] = (per(total(f"kernel.{k}"), ops), "s/op")
            kernel_s += total(f"kernel.{k}")
        n3 = sum(
            spans[i][6].get("matrices", 0) * spans[i][6].get("n3", 0)
            for k in ("eigvalsh", "eigh", "svd")
            for i in by_name[f"kernel.{k}"]
        )
        out["kernel.work_n3"] = (per(n3, ops), "n3/op")
        out["kernel.share"] = (per(kernel_s, total("op")), "share")

        radius = by_name["radius.numerical_radius"]
        calls = len(radius)
        sweep = refine = ascent = 0
        sweep_s = refine_s = ascent_s = 0.0
        for r in radius:
            eig = [c for c in children[r] if spans[c][1] == "kernel.eigvalsh"]
            for j, c in enumerate(eig):
                if j == 0:
                    sweep += spans[c][6].get("matrices", 0)
                    sweep_s += dur[c]
                else:
                    refine += spans[c][6].get("matrices", 0)
                    refine_s += dur[c]
            for c in children[r]:
                if spans[c][1] == "kernel.eigh":
                    ascent += spans[c][6].get("matrices", 0)
                    ascent_s += dur[c]
        out["radius.calls"] = (per(calls, ops), "count/op")
        out["radius.s"] = (per(total("radius.numerical_radius"), ops), "s/op")
        out["radius.self_s"] = (per(self_time("radius"), ops), "s/op")
        out["radius.eigensolves_per_call"] = (per(sweep + refine + ascent, calls), "count/call")
        out["radius.sweep_eigensolves_per_call"] = (per(sweep, calls), "count/call")
        out["radius.refine_eigensolves_per_call"] = (per(refine, calls), "count/call")
        out["radius.ascent_eigensolves_per_call"] = (per(ascent, calls), "count/call")
        out["radius.sweep_s"] = (per(sweep_s, calls), "s/call")
        out["radius.refine_s"] = (per(refine_s, calls), "s/call")
        out["radius.ascent_s"] = (per(ascent_s, calls), "s/call")
        out["radius.levels_per_call"] = (per(attr_sum(radius, "levels"), calls), "count/call")
        out["radius.ascent_steps_per_call"] = (
            per(attr_sum(radius, "ascent_steps"), calls),
            "count/call",
        )
        out["radius.width_over_target"] = (
            per(attr_sum(radius, "width_over_target"), calls),
            "ratio",
        )

        evaluate = by_name["bounds.evaluate"]
        draws = len(by_name["ensembles.run_study"])
        out["bounds.evaluate.calls"] = (per(len(evaluate), ops), "count/op")
        # the linalg helpers are bounds' own: their certification checks count here
        out["bounds.self_s"] = (per(self_time("bounds", "linalg"), ops), "s/op")
        radius_by_id = Counter()
        seconds_by_id = Counter()
        for e in evaluate:
            bid = (spans[e][6] or {}).get("bound_id")
            seconds_by_id[bid] += dur[e]
            radius_by_id[bid] += sum(
                1 for c in children[e] if spans[c][1] == "radius.numerical_radius"
            )
        out["bounds.radius_calls_per_draw"] = (
            per(sum(radius_by_id.values()), draws),
            "count/draw",
        )
        for bid in bound_ids:
            out[f"bounds.{metric_id(bid)}.s"] = (per(seconds_by_id[bid], draws), "s/draw")
            out[f"bounds.{metric_id(bid)}.radius_calls"] = (
                per(radius_by_id[bid], draws),
                "count/draw",
            )

        generate = by_name["ensembles.generate"]
        out["ensembles.generate.calls"] = (per(len(generate), ops), "count/op")
        out["ensembles.generate.s"] = (per(total("ensembles.generate"), ops), "s/op")
        out["ensembles.self_s"] = (per(self_time("ensembles"), ops), "s/op")
        for cls in FAILURE_CLASSES:
            out[f"ensembles.failures.{cls}"] = (per(failures[cls], ops), "count/op")
        other = sum(
            n
            for cls, n in failures.items()
            if cls not in FAILURE_CLASSES and not cls.startswith("oracle:")
        )
        out["ensembles.failures.Other"] = (per(other, ops), "count/op")

        loads = by_name["matio.load_matrix"]
        load_s = total("matio.load_matrix")
        out["matio.load.calls"] = (per(len(loads), ops), "count/op")
        out["matio.load.s"] = (per(load_s, ops), "s/op")
        out["matio.load.mb_per_s"] = (per(attr_sum(loads, "bytes") / 1e6, load_s), "MB/s")

        cli = by_name["cli.main"]
        out["cli.calls"] = (per(len(cli), ops), "count/op")
        out["cli.self_s"] = (per(self_time("cli"), ops), "s/op")
        nonzero = sum(1 for i in cli if not spans[i][6] or spans[i][6].get("status") != 0)
        out["cli.exit_nonzero"] = (per(nonzero, ops), "count/op")

        out["trace.overhead_share"] = (overhead_share, "share")
        return out
