"""Witnesses and replay: the witness format, written by ``serialize_element``
when a suite fails, and the replay that runs every suite a report holds a
witness of again, at the report's configuration, and compares each entry of
the run with the reported one, for ``lie2 replay``.

A report comes from outside the program, so it is checked where it enters.
Its ``version`` must be the integer ``suites.REPORT_VERSION``, its config
entries must have the types of ``RunConfig``'s defaults and make a valid
configuration, and its suites must be a list of named entries, each witnessed
one naming a suite.  Anything else is an ``InputError``, exit code 2 from the
CLI.  The witnesses themselves are not read back: the run draws the same
blocks in the same order, so an entry reproduces exactly under whichever
BLAS kernel the report was written with, or differs in some key, its witness
included.
"""

from __future__ import annotations

import json
from dataclasses import asdict, replace
from pathlib import Path

import numpy as np

from .liealg import InputError
from .paths import CentralVector, PolyPath
from .suites import REGISTRY, REPORT_VERSION, RunConfig, run


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


def _first_difference(entry: dict, reported: dict) -> str | None:
    """The first key whose JSON text differs between the run's entry and the
    reported one (a NaN equals a NaN there), or None if none does."""
    def text(value) -> str:
        return json.dumps(value, sort_keys=True)
    if text(entry) == text(reported):
        return None
    return next(key for key in entry | reported if key not in entry or key not in reported
                or text(entry[key]) != text(reported[key]))


def replay_report(path: str | Path) -> list[tuple[str, float, str | None]]:
    """Run every suite that holds a witness in a report again; returns, per
    witnessed entry, (suite, the run's ``max_residual``, the first key in
    which the run's entry differs from the reported one, or None)."""
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
    names = tuple(dict.fromkeys(entry["name"] for entry in witnessed))
    unknown = [name for name in names if name not in REGISTRY]
    if unknown:
        raise InputError(f"report {path} holds witnesses of unknown suites: "
                         f"{', '.join(unknown)}")
    if not names:
        config.validate()
        return []
    rerun = {entry["name"]: entry for entry in run(replace(config, suites=names))["suites"]}
    return [(entry["name"], rerun[entry["name"]]["max_residual"],
             _first_difference(rerun[entry["name"]], entry)) for entry in witnessed]
