"""Fuzzing of the command line, in process through ``cli.main``: mutated
algebra files under ``lie2 verify``, tampered reports under ``lie2 replay``,
and random flag lists at small trial counts and grids.  A tampered witnessed
entry must not replay to 0.

Every example must end with exit code 0, 1 or 2 (argparse's usage error,
``SystemExit(2)``, counts as 2); any other exception fails it.  The examples
are derandomized, so every run draws the same ones; the fixed example count
is the only setting.
"""

import json
import math

import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from lie2 import cli
from lie2.suites import REGISTRY

FUZZ = settings(max_examples=50, derandomize=True, database=None, deadline=None,
                suppress_health_check=[HealthCheck.too_slow])
# a full verify at these sizes takes under 60 ms (2 vCPUs)
SMALL = ["--trials", "2", "--nt", "8", "--ntheta", "8"]

SCALARS = st.one_of(st.none(), st.booleans(), st.integers(-3, 40),
                    st.floats(allow_nan=True, allow_infinity=True), st.text(max_size=4))
JSON_VALUES = st.recursive(SCALARS, lambda inner: st.one_of(
    st.lists(inner, max_size=4), st.dictionaries(st.text(max_size=4), inner, max_size=3)),
    max_leaves=8)
FACTORS = [-1.0, 0.0, 1e-300, 1e6, 1e300, math.inf, math.nan]

SU2_FILE = {"name": "su2", "dim": 3, "structure": [[1, 2, 3, 1], [2, 3, 1, 1], [3, 1, 2, 1]],
            "form": [[1, 0, 0], [0, 1, 0], [0, 0, 1]]}
SL2_FILE = {"name": "sl2", "dim": 3, "structure": [[1, 2, 2, 2], [1, 3, 3, -2], [2, 3, 1, 1]],
            "form": [[2, 0, 0], [0, 0, 1], [0, 1, 0]]}


def exit_code(argv: list[str]) -> int:
    try:
        code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code
    assert code in (0, 1, 2), (argv, code)
    return code


def mutate(doc, data, field=None):
    """The document with one node, reached by a random walk from the root (or
    from its entry ``field``), replaced by a drawn JSON value, scaled by an
    extreme factor, or deleted."""
    parent, key, node = (None, None, doc) if field is None else (doc, field, doc[field])
    while isinstance(node, (dict, list)) and node and data.draw(st.integers(0, 3)):
        parent, key = node, data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
    if parent is None:
        return data.draw(JSON_VALUES)
    action = data.draw(st.sampled_from(["replace", "scale", "delete"]))
    if action == "delete":
        del parent[key]
    elif action == "scale" and isinstance(node, (int, float)) and not isinstance(node, bool):
        parent[key] = node * data.draw(st.sampled_from(FACTORS))
    else:
        parent[key] = data.draw(JSON_VALUES)
    return doc


def mutated(base, data):
    doc = json.loads(json.dumps(base))
    for _ in range(data.draw(st.integers(1, 3))):
        doc = mutate(doc, data)
    return json.dumps(doc)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    return tmp_path_factory.mktemp("fuzz")


@pytest.fixture(scope="module")
def failing_report(files):
    """A report in which every suite with a nonzero tolerance fails, so it
    holds a witness of each of them."""
    path = files / "failing.json"
    assert cli.main(["verify", "--tol-exact", "1e-20", "--tol-quad", "1e-30", *SMALL,
                     "--report", str(path)]) == 1
    return json.loads(path.read_text())


@FUZZ
@given(base=st.sampled_from([SU2_FILE, SL2_FILE]), suite=st.sampled_from(list(REGISTRY)),
       data=st.data())
def test_mutated_algebra_files_exit_0_1_or_2(files, base, suite, data):
    path = files / "algebra.json"
    path.write_text(mutated(base, data))
    exit_code(["verify", "--algebra", str(path), "--suite", suite, *SMALL])


@FUZZ
@given(data=st.data())
def test_tampered_reports_exit_0_1_or_2_under_replay(files, failing_report, data):
    path = files / "tampered.json"
    path.write_text(mutated(failing_report, data))
    exit_code(["replay", "--report", str(path)])


@FUZZ
@given(data=st.data())
def test_a_tampered_witnessed_entry_never_replays_to_0(files, failing_report, data):
    # a report of one witnessed entry replays to 0; with one field of the
    # entry tampered, replay exits 1 or 2 unless the entry's JSON is
    # unchanged.  An entry left without a witness holds nothing to replay
    entry = data.draw(st.sampled_from([e for e in failing_report["suites"] if e["witness"]]))
    tampered = mutate(json.loads(json.dumps(entry)), data, data.draw(st.sampled_from(list(entry))))
    path = files / "tampered-entry.json"
    path.write_text(json.dumps(dict(failing_report, suites=[tampered])))
    code = exit_code(["replay", "--report", str(path)])
    if tampered.get("witness") is not None:
        unchanged = json.dumps(tampered, sort_keys=True) == json.dumps(entry, sort_keys=True)
        assert (code == 0) == unchanged, (tampered, code)


TOLERANCES = st.sampled_from(["1e-10", "1e-3", "0", "-1", "1e-300", "nan", "inf"])
FLAG_VALUES = {
    "--algebra": st.sampled_from(["su2", "so3", "sl2", "e8"]),
    "--k": st.sampled_from(["0", "1", "-2", "0.5", "1e9", "1e13", "nan", "-inf", "x"]),
    "--degree": st.integers(-1, 6).map(str),
    "--splitting": st.sampled_from(["linear", "0,1", "0,0,3,-2", "1,0", "0,2", "", ",",
                                    "0,nan", "0,1e308,-1e308"]),
    "--nt": st.integers(-1, 20).map(str),
    "--ntheta": st.integers(-1, 20).map(str),
    "--seed": st.integers(-2, 5).map(str),
    "--trials": st.integers(-1, 3).map(str),
    "--tol-exact": TOLERANCES,
    "--tol-quad": TOLERANCES,
    "--suite": st.sampled_from([*REGISTRY, "all", "none"]),
}
FLAG = st.sampled_from(sorted(FLAG_VALUES)).flatmap(
    lambda flag: FLAG_VALUES[flag].map(lambda value: [flag, value]))
FLAG_LISTS = st.lists(st.one_of(FLAG, st.sampled_from([["--form-scale", "2"], ["--bogus"],
                                                       ["-1"], ["verify"], ["--k"]])),
                      max_size=5).map(lambda pairs: [token for pair in pairs for token in pair])


@FUZZ
@given(flags=FLAG_LISTS)
def test_random_flag_lists_exit_0_1_or_2(flags):
    exit_code(["verify", *SMALL, *flags])
