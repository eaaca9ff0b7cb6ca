"""Span tracing of the lie2 layers, installed from outside the package.

Every public function of a ``lie2`` module is wrapped in every ``lie2``
namespace that binds it (``from .paths import pointwise_bracket`` makes a
second binding in ``linfty``, ``kacmoody``, ``models``, ``suites`` and
``su2grid``), together with a few class hooks and the suite runners held in
``lie2.suites.REGISTRY``.  ``signs`` is imported lazily inside
``generalized_jacobi_residual``, so patching its module attributes is enough.

A span records (id, name, start, end, parent id, pass id).  Calls, self time
(duration minus the time covered by child spans) and inclusive time are
accumulated per span name and per pass while the spans themselves are kept in
flat arrays and written out once, when the run ends.
"""

from __future__ import annotations

import dataclasses
import functools
import importlib
import inspect
import json
import math
import time
from array import array
from pathlib import Path

import numpy as np

# Layer = lie2 module.  A sub-layer is a span name "<module>.<sub>" given to the
# functions listed here; every other public function of the module, and each
# class hook not listed, gets the span name "<module>".
SUB_LAYERS: dict[str, dict[str, tuple[str, ...]]] = {
    "liealg": {},
    "signs": {},
    "paths": {
        "bracket": ("pointwise_bracket",),
        "pairing": ("integral_pairing",),
        "construct": ("PolyPath.__post_init__",),
        "random": ("random_path", "random_splitting"),
    },
    "linfty": {
        "jacobi": ("generalized_jacobi_residual",),
        "hom": ("hom_residuals", "hom_residuals_once"),
        "two_hom": ("two_hom_residual", "two_hom_residuals_once"),
    },
    "models": {
        "build": ("build_models", "make_gk", "make_pkg", "make_el", "make_el_vectors",
                  "make_phi", "make_psi", "make_lambda", "make_tau",
                  "trivializing_homotopy"),
        "exactness": ("exactness_check",),
        "equivalence": ("equivalence_report",),
    },
    "kacmoody": {},
    "su2grid": {
        "sample": ("GroupPathCoeffs.sample", "LoopFieldCoeffs.sample"),
        "product": ("product_field", "conjugate_field"),
        "maurer_cartan": ("maurer_cartan_t", "maurer_cartan_theta_right"),
        "kappa": ("kappa",),
        "unitarize": ("unitarize",),
        "validate": ("SampledGroupPath.__post_init__",
                     "SampledPathOfLoops.__post_init__", "unitary_drift"),
    },
    "twogroups": {},
    "suites": {},
}

# Methods that are entry points into a layer; module-level functions are
# found by inspection.
CLASS_HOOKS: dict[str, tuple[str, ...]] = {
    "liealg": ("LieAlgebraPresentation.__post_init__",),
    "paths": ("PolyPath.__post_init__",),
    "su2grid": ("SampledGroupPath.__post_init__", "SampledPathOfLoops.__post_init__",
                "GroupPathCoeffs.sample", "LoopFieldCoeffs.sample"),
    "twogroups": ("FiniteTwoGroup.__post_init__", "FiniteCrossedModule.violations",
                  "FiniteTwoGroup.violations"),
}

COMPLEX_BYTES = 16
MAX_SPANS = 2_000_000  # about 52 MB of span arrays; later spans are only counted


def suite_names() -> list[str]:
    from lie2.suites import REGISTRY
    return list(REGISTRY)


def span_names() -> list[str]:
    names = []
    for module, subs in SUB_LAYERS.items():
        names.append(module)
        names += [f"{module}.{sub}" for sub in subs]
    names += [f"suites.{name}" for name in suite_names()]
    return names


def metric_names() -> list[str]:
    """Every per-layer metric a traced run emits, in output order."""
    out = []
    for module, subs in SUB_LAYERS.items():
        out += [f"{module}.calls", f"{module}.self_s"]
        for sub in subs:
            out += [f"{module}.{sub}.calls", f"{module}.{sub}.self_s"]
    out += [f"suites.{name}.s" for name in suite_names()]
    out += ["linfty.jacobi.useful_ratio", "su2grid.grid_mb", "trace.overhead_ratio"]
    return out


METRIC_UNITS = {"calls": "count", "self_s": "s", "s": "s", "useful_ratio": "ratio",
                "grid_mb": "MB_computed", "overhead_ratio": "ratio"}


def metric_unit(name: str) -> str:
    return METRIC_UNITS[name.rsplit(".", 1)[1]]


class Tracer:
    """Collects spans while installed; ``install``/``uninstall`` bracket one
    traced pass, so untraced passes run the unmodified code."""

    def __init__(self):
        self.names = span_names()
        self.index = {n: i for i, n in enumerate(self.names)}
        self.span_start = array("d")
        self.span_end = array("d")
        self.span_name = array("H")
        self.span_parent = array("i")
        self.span_pass = array("i")
        self.dropped = 0
        self.passes: list[dict] = []
        self._stack: list[list] = []
        self._patches: list[tuple[object, str, object, bool]] = []
        self._wrappers: dict[int, object] = {}

    # -- per-pass accumulation ---------------------------------------------

    def _begin_pass(self, pass_id: int) -> None:
        n = len(self.names)
        self._pass = {"id": pass_id, "calls": [0] * n, "self": [0.0] * n,
                      "total": [0.0] * n, "jacobi_useful": 0, "grid_bytes": 0}
        self.passes.append(self._pass)

    def _wrap(self, name: str, fn):
        key = id(fn)
        if key in self._wrappers:
            return self._wrappers[key]
        nid = self.index[name]
        clock = time.perf_counter
        stack = self._stack
        tracer = self
        hook = _HOOKS.get(fn.__qualname__)

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            p = tracer._pass
            if hook is not None:
                hook(p, args)
            sid = len(tracer.span_start)
            if sid < MAX_SPANS:
                tracer.span_start.append(0.0)
                tracer.span_end.append(0.0)
                tracer.span_name.append(nid)
                tracer.span_parent.append(stack[-1][2] if stack else -1)
                tracer.span_pass.append(p["id"])
            else:
                tracer.dropped += 1
                sid = -1
            frame = [clock(), 0.0, sid]
            stack.append(frame)
            try:
                return fn(*args, **kwargs)
            finally:
                end = clock()
                stack.pop()
                duration = end - frame[0]
                p["calls"][nid] += 1
                p["self"][nid] += duration - frame[1]
                p["total"][nid] += duration
                if stack:
                    stack[-1][1] += duration
                if sid >= 0:
                    tracer.span_start[sid] = frame[0]
                    tracer.span_end[sid] = end

        self._wrappers[key] = traced
        return traced

    # -- installation -------------------------------------------------------

    def _targets(self) -> dict[int, tuple[object, str]]:
        """id(original) -> (original, span name) for every traced callable."""
        import lie2.suites
        targets = {}
        for module, subs in SUB_LAYERS.items():
            mod = importlib.import_module(f"lie2.{module}")
            sub_of = {q: f"{module}.{sub}" for sub, qs in subs.items() for q in qs}
            for attr, obj in vars(mod).items():
                if (inspect.isfunction(obj) and not attr.startswith("_")
                        and obj.__module__ == mod.__name__):
                    targets[id(obj)] = (obj, sub_of.get(attr, module))
            for qual in CLASS_HOOKS.get(module, ()):
                cls_name, meth = qual.split(".")
                obj = vars(getattr(mod, cls_name))[meth]
                targets[id(obj)] = (obj, sub_of.get(qual, module))
        for name, spec in lie2.suites.REGISTRY.items():
            targets[id(spec.runner)] = (spec.runner, f"suites.{name}")
        return targets

    def install(self, pass_id: int) -> None:
        """Patch every binding of every traced callable for one pass."""
        import lie2
        self._begin_pass(pass_id)
        targets = self._targets()

        def wrap(obj):
            return self._wrap(targets[id(obj)][1], obj)

        modules = {m: importlib.import_module(f"lie2.{m}") for m in SUB_LAYERS}
        for ns in [lie2, *modules.values()]:
            for attr, obj in list(vars(ns).items()):
                if id(obj) in targets:
                    self._patch(ns, attr, wrap(obj))
        for module, quals in CLASS_HOOKS.items():
            for qual in quals:
                cls_name, meth = qual.split(".")
                cls = getattr(modules[module], cls_name)
                self._patch(cls, meth, wrap(vars(cls)[meth]))
        registry = modules["suites"].REGISTRY
        for name, spec in list(registry.items()):
            self._patch(registry, name, dataclasses.replace(spec, runner=wrap(spec.runner)),
                        item=True)

    def _patch(self, owner, attr, value, item: bool = False) -> None:
        old = owner[attr] if item else vars(owner)[attr]
        self._patches.append((owner, attr, old, item))
        if item:
            owner[attr] = value
        else:
            setattr(owner, attr, value)

    def uninstall(self) -> None:
        for owner, attr, old, item in reversed(self._patches):
            if item:
                owner[attr] = old
            else:
                setattr(owner, attr, old)
        self._patches.clear()

    # -- results ------------------------------------------------------------

    def pass_metrics(self, p: dict) -> dict[str, float]:
        """Per-layer figures of one traced pass."""
        out: dict[str, float] = {}
        for module, subs in SUB_LAYERS.items():
            ids = [i for i, n in enumerate(self.names)
                   if n == module or n.startswith(module + ".")]
            out[f"{module}.calls"] = sum(p["calls"][i] for i in ids)
            out[f"{module}.self_s"] = sum(p["self"][i] for i in ids)
            for sub in subs:
                i = self.index[f"{module}.{sub}"]
                out[f"{module}.{sub}.calls"] = p["calls"][i]
                out[f"{module}.{sub}.self_s"] = p["self"][i]
        for name in suite_names():
            out[f"suites.{name}.s"] = p["total"][self.index[f"suites.{name}"]]
        jacobi_calls = p["calls"][self.index["linfty.jacobi"]]
        out["linfty.jacobi.useful_ratio"] = (p["jacobi_useful"] / jacobi_calls
                                             if jacobi_calls else 0.0)
        out["su2grid.grid_mb"] = p["grid_bytes"] / 1e6
        return out

    def write_spans(self, path: Path) -> None:
        """Write the recorded spans as flat arrays; ``names`` maps name ids."""
        path.parent.mkdir(parents=True, exist_ok=True)
        n = len(self.span_start)
        np.savez(path, id=np.arange(n, dtype=np.int32),
                 start=np.frombuffer(self.span_start, dtype=np.float64),
                 end=np.frombuffer(self.span_end, dtype=np.float64),
                 name=np.frombuffer(self.span_name, dtype=np.uint16),
                 parent=np.frombuffer(self.span_parent, dtype=np.int32),
                 pass_id=np.frombuffer(self.span_pass, dtype=np.int32),
                 names=np.array(json.dumps(self.names)),
                 dropped=np.array(self.dropped))


def _jacobi_useful(p: dict, args) -> None:
    # generalized_jacobi_residual(L, inputs): only target degrees 0 and 1 do work
    inputs = args[1]
    if sum(d for d, _ in inputs) + len(inputs) - 3 in (0, 1):
        p["jacobi_useful"] += 1


def _grid_bytes(p: dict, args) -> None:
    # SampledPathOfLoops.__post_init__(self): computed size of its complex128 grid
    p["grid_bytes"] = max(p["grid_bytes"], math.prod(np.shape(args[0].grid)) * COMPLEX_BYTES)


_HOOKS = {"generalized_jacobi_residual": _jacobi_useful,
          "SampledPathOfLoops.__post_init__": _grid_bytes}
