"""Witnesses: their JSON format, written by ``serialize_element`` when a suite
fails and read by ``deserialize_element`` when a report is replayed, and the
replay that evaluates every witness of a report again and returns each
replayed residual beside its entry's ``max_residual``, for ``lie2 replay``
to compare.

A report comes from outside the program, so it is checked where it enters.
Its ``version`` must be the integer ``suites.REPORT_VERSION``, and its config
entries must have the types of ``RunConfig``'s defaults, its
suites must be a list of named entries, every witness element must carry a
known type and the entries of that type (a central element's loop a path),
the inputs must have the form of a trial the suite samples at that config
(a splitting in a universality witness also admissible, as the sampled ones
are by construction), the component must be one the suite reports, and an
entry with a witness must carry its ``max_residual`` as a number.
Anything else is an ``InputError``, exit code 2 from the CLI.  Witnesses are
evaluated with numpy's warnings off, so an overflow shows only as a NaN.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path
from typing import Any

import numpy as np

from .liealg import InputError, LieAlgebraPresentation
from .paths import CentralVector, PolyPath, validate_splitting
from .suites import NOTES, REGISTRY, REPORT_VERSION, UNIVERSALITY, RunConfig
from .worstcase import trial


def _finite(value, what: str) -> np.ndarray:
    """A witness's numbers enter here: real and finite, or an input error."""
    try:
        arr = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise InputError(f"witness {what} is not numeric: {exc}") from exc
    if not np.isfinite(arr).all():
        raise InputError(f"witness {what} is not finite")
    return arr


def _scalar(value, what: str) -> float:
    arr = _finite(value, what)
    if arr.ndim:
        raise InputError(f"witness {what} is not a number")
    return float(arr)


# the entries each witness element type needs besides "type"
ELEMENT_ENTRIES = {"path": ("kind", "coeffs"), "central": ("loop", "c"), "vector": ("value",),
                   "real": ("value",), "int": ("value",), "name": ("value",)}


def serialize_element(v) -> dict | list:
    """A witness element in its JSON form, in the coefficient formats of the
    owning modules."""
    if isinstance(v, PolyPath):
        return {"type": "path", "kind": v.kind, "coeffs": v.coeffs.tolist()}
    if isinstance(v, CentralVector):
        return {"type": "central", "loop": serialize_element(v.loop), "c": float(v.c)}
    if isinstance(v, np.ndarray):
        return {"type": "vector", "value": v.tolist()}
    if isinstance(v, (float, np.floating)):
        return {"type": "real", "value": float(v)}
    if isinstance(v, (int, np.integer)):
        return {"type": "int", "value": int(v)}
    if isinstance(v, str):
        return {"type": "name", "value": v}
    if isinstance(v, (tuple, list)):
        return [serialize_element(x) for x in v]
    raise TypeError(f"cannot serialize witness element of type {type(v)!r}")


def deserialize_element(doc, algebra: LieAlgebraPresentation):
    """A witness element from its JSON form, checked as it enters: a malformed
    element is an input error."""
    if isinstance(doc, list):
        return [deserialize_element(x, algebra) for x in doc]
    if not isinstance(doc, dict):
        raise InputError(f"witness element {doc!r} is neither a list nor an object")
    if not isinstance(doc.get("type"), str) or doc["type"] not in ELEMENT_ENTRIES:
        raise InputError(f"witness element type {doc.get('type')!r} is not one of "
                         f"{', '.join(ELEMENT_ENTRIES)}")
    missing = [key for key in ELEMENT_ENTRIES[doc["type"]] if key not in doc]
    if missing:
        raise InputError(f"witness {doc['type']} element lacks {', '.join(missing)}")
    if doc["type"] == "path":
        return PolyPath(algebra, _finite(doc["coeffs"], "path coefficients"), doc["kind"])
    if doc["type"] == "central":
        loop = deserialize_element(doc["loop"], algebra)
        if not isinstance(loop, PolyPath):
            raise InputError("witness central element's loop is not a path element")
        return CentralVector(loop, _scalar(doc["c"], "central term"))
    if doc["type"] == "vector":
        return _finite(doc["value"], "vector")
    if doc["type"] == "real":
        return _scalar(doc["value"], "real")
    value = doc["value"]
    wanted = int if doc["type"] == "int" else str
    if not isinstance(value, wanted) or isinstance(value, bool):
        raise InputError(f"witness {doc['type']} value {value!r} is not of type "
                         f"{wanted.__name__}")
    return value


def _form(inputs) -> Any:
    """What replay requires of a witness: its nesting, the kind and shape of
    each carrier and array, and the tags (degrees, law and fixture names)."""
    if isinstance(inputs, (tuple, list)):
        return tuple(_form(x) for x in inputs)
    if isinstance(inputs, PolyPath):
        return ("path", inputs.kind, inputs.coeffs.shape)
    if isinstance(inputs, CentralVector):
        return ("central", _form(inputs.loop), np.shape(inputs.c))
    if isinstance(inputs, (int, str)):
        return inputs
    return ("array", np.shape(inputs))


def _sampled_forms(name: str, config: RunConfig) -> set:
    """The forms of the trials the suite samples at this configuration: of
    each block of one trial, and of that block as one trial of a batch."""
    blocks = REGISTRY[name].sample(replace(config, trials=1),
                                    np.random.default_rng(config.seed))
    return {form for block in blocks for form in (_form(block), _form(trial(block, 0)))}


def replay_suite(name: str, witness: dict, config: RunConfig) -> float:
    """Re-evaluate a recorded worst-case witness and return its residual.
    The witness must have the form of a trial the suite samples and name a
    component it reports."""
    if name not in REGISTRY:
        raise InputError(f"unknown suite {name!r}")
    try:
        component, doc = witness["component"], witness["inputs"]
    except (KeyError, TypeError) as exc:
        raise InputError(f"malformed witness for suite {name!r}: {exc}") from exc
    inputs = deserialize_element(doc, config.presentation)
    if _form(inputs) not in _sampled_forms(name, config):
        raise InputError(f"witness inputs do not have the form of a trial of {name}")
    if isinstance(inputs, list) and isinstance(inputs[0], str) and inputs[0] == UNIVERSALITY:
        validate_splitting(inputs[1])
    residuals = REGISTRY[name].evaluate(config, inputs)
    residuals.pop(NOTES, None)
    if not isinstance(component, str) or component not in residuals:
        raise InputError(f"witness component {component!r} is not one of {name}'s: "
                         f"{', '.join(residuals)}")
    residual = residuals[component]
    if np.shape(residual) != ():
        raise InputError(f"witness inputs of {name} are a batch, not one trial")
    return float(residual)


def _report_config(doc) -> RunConfig:
    """A report's configuration, every entry of the type of its default."""
    if not isinstance(doc, dict):
        raise InputError("report config is not an object")
    suites = doc.get("suites", ["all"])
    if not isinstance(suites, list) or not all(isinstance(n, str) for n in suites):
        raise InputError(f"report config suites {suites!r} is not a list of names")
    doc["suites"] = tuple(suites)
    defaults = asdict(RunConfig())
    for key, value in doc.items():
        if key not in defaults:
            raise InputError(f"unknown report config entry {key!r}")
        wanted = type(defaults[key])
        kinds = (int, float) if wanted is float else (wanted,)
        if not isinstance(value, kinds) or isinstance(value, bool):
            raise InputError(f"report config {key} = {value!r} is not of type "
                             f"{wanted.__name__}")
        if wanted is float:
            try:
                doc[key] = float(value)
            except OverflowError as exc:
                raise InputError(f"report config {key} = {value!r} is out of range") from exc
    return RunConfig(**doc)


def _reported(entry: dict) -> float:
    """The ``max_residual`` of a report entry that holds a witness: the
    number its witness must replay to."""
    value = entry.get("max_residual")
    if not isinstance(value, (int, float)) or isinstance(value, bool):
        raise InputError(f"report entry {entry['name']} has a witness but its "
                         f"max_residual {value!r} is not a number")
    try:
        return float(value)
    except OverflowError as exc:
        raise InputError(f"report entry {entry['name']} max_residual {value!r} "
                         "is out of range") from exc


def replay_report(path: str | Path) -> list[tuple[str, float, float]]:
    """Re-run every witness recorded in a report; returns (suite, replayed
    residual, the entry's ``max_residual``)."""
    try:
        doc = json.loads(Path(path).read_text(encoding="utf-8"))
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read report {path}: {exc}") from exc
    if not isinstance(doc, dict) or "config" not in doc or "suites" not in doc:
        raise InputError(f"malformed report {path}: it needs a config and suites")
    version = doc.get("version")
    if type(version) is not int or version != REPORT_VERSION:
        raise InputError(f"report {path} has version {version!r}; this lie2 replays "
                         f"version {REPORT_VERSION} only")
    config = _report_config(doc["config"])
    entries = doc["suites"]
    if not isinstance(entries, list) or not all(
            isinstance(e, dict) and isinstance(e.get("name"), str) for e in entries):
        raise InputError(f"malformed report {path}: suites must be a list of named entries")
    witnessed = [entry for entry in entries if entry.get("witness") is not None]
    reported = [_reported(entry) for entry in witnessed]
    config.validate()
    with np.errstate(all="ignore"):
        return [(entry["name"], replay_suite(entry["name"], entry["witness"], config), value)
                for entry, value in zip(witnessed, reported)]
