"""The trial axis of the polynomial carriers: blocks are sized by the
``BLOCK_NUMBERS`` budget, block draws equal per-trial draws, a trial evaluated
alone equals its row of the block bit for bit, and the block fold keeps the
first trial holding the maximum."""

import math
import tracemalloc

import numpy as np
import pytest

from lie2 import linfty, suites
from lie2.linfty import (
    BLOCK_NUMBERS,
    CentralSpace,
    CoordSpace,
    PathSpace,
    RealLine,
    all_signatures,
    generalized_jacobi_residual,
    hom_samples,
    jacobi_samples,
    jacobi_target,
    random_elements,
    two_hom_samples,
)
from lie2.models import build_models, equivalence_samples
from lie2.paths import (
    BASED,
    LOOP,
    CentralVector,
    PolyPath,
    derivative_pairing,
    pointwise_bracket,
    zero_central,
    zero_path,
)
from lie2.replay import replay_report
from lie2.suites import GRID_SUITES, REGISTRY, RunConfig, report_json, run
from lie2.worstcase import WorstCase, largest, trial

POLYNOMIAL_SUITES = ("gk-jacobi", "pkg-jacobi", "phi-hom", "psi-hom", "lambda-hom",
                     "tau-2hom", "equivalence", "omega-cocycle", "extended-jacobi",
                     "dalpha-action")
TRIALS = 30  # one partial block of every sampler


def draw(space, rng):
    """One element drawn on its own, as the per-trial samplers drew it."""
    if isinstance(space, CoordSpace):
        return rng.uniform(-1.0, 1.0, space.dim)
    if isinstance(space, RealLine):
        return float(rng.uniform(-1.0, 1.0))
    if isinstance(space, CentralSpace):
        return (draw(space.loops, rng), float(rng.uniform(-1.0, 1.0)))
    c = rng.uniform(-1.0, 1.0, size=(space.algebra.dim, space.degree + 1))
    c[:, 0] = 0.0
    if space.kind == LOOP:
        c[:, 1] -= c.sum(axis=1)
    return c


def numbers(element):
    """The arrays an element is made of, for exact comparison."""
    if isinstance(element, PolyPath):
        return [element.coeffs]
    if isinstance(element, CentralVector):
        return [element.loop.coeffs, np.asarray(element.c)]
    if isinstance(element, tuple):
        return [np.asarray(x) for x in element]
    return [np.asarray(element)]


def assert_block_matches(blocks, spaces_of, rng):
    """Every trial of every block equals the elements drawn one at a time."""
    trials = 0
    for block in blocks:
        elements = [x for x in block if not isinstance(x, str)]
        rows = len(numbers(elements[0])[0])
        for r in range(rows):
            for space, element in zip(spaces_of(block), elements):
                for got, want in zip(numbers(element[r]), numbers(draw(space, rng))):
                    assert np.array_equal(got, want)
        trials += rows
    return trials


@pytest.fixture
def bundle(g):
    return build_models(g, 1.0, np.array([0.0, 0.0, 3.0, -2.0]))


def stacked(draws):
    """Per-trial draws of one slot, stacked along a leading trial axis."""
    return [np.stack(parts) for parts in zip(*map(numbers, draws))]


LIVE_SIGNATURES = [sig for sig in all_signatures() if jacobi_target(sig) is not None]
# numbers a trial draws for the live signatures, and trials per block
JACOBI_WIDTHS = {"gk": (52, 1260), "pkg": (337, 194)}


def test_jacobi_block_draws_equal_per_trial_draws(bundle):
    # only the 8 live signatures are drawn, and a block holds
    # max(1, BLOCK_NUMBERS // width) trials: gk draws 52 numbers a trial,
    # pkg 337
    live = LIVE_SIGNATURES
    assert (len(all_signatures()), len(live)) == (30, 8)
    for name, (width, step) in JACOBI_WIDTHS.items():
        L = getattr(bundle, name)
        assert sum(L.space(d).width for sig in live for d in sig) == width
        assert max(1, BLOCK_NUMBERS // width) == step  # the budget rule
        rng, reference = np.random.default_rng(1), np.random.default_rng(1)
        samples = jacobi_samples(L, rng, step + 5)
        sizes = []
        while (first := next(samples, None)) is not None:
            # one block: every live signature, in order
            block = [first] + [next(samples) for _ in live[1:]]
            assert [tuple(d for d, _ in inputs) for inputs in block] == live
            rows = len(numbers(first[0][1])[0])
            want = {sig: [[] for _ in sig] for sig in live}
            for _ in range(rows):  # every live signature, trial after trial
                for sig in live:
                    for slot, d in enumerate(sig):
                        want[sig][slot].append(draw(L.space(d), reference))
            for sig, inputs in zip(live, block):
                for (d, element), drawn in zip(inputs, want[sig]):
                    for got, expected in zip(numbers(element), stacked(drawn)):
                        assert np.array_equal(got, expected)
            sizes.append(rows)
        assert sizes == [step, 5]
        assert rng.uniform() == reference.uniform()


@pytest.mark.parametrize("trials", [1, 7, 200])
def test_jacobi_samples_draw_only_the_live_numbers(bundle, trials):
    # after k trials the generator has given k * width numbers, no more
    for name, (width, step) in JACOBI_WIDTHS.items():
        rng, reference = np.random.default_rng(11), np.random.default_rng(11)
        blocks = -(-trials // step)
        assert len(list(jacobi_samples(getattr(bundle, name), rng, trials))) == 8 * blocks
        reference.uniform(-1.0, 1.0, trials * width)
        assert rng.uniform() == reference.uniform()


@pytest.mark.parametrize("name", ["gk-jacobi", "pkg-jacobi"])
def test_jacobi_suites_evaluate_only_live_signatures(monkeypatch, name):
    evaluated = []

    def counting(L, inputs):
        evaluated.append(tuple(d for d, _ in inputs))
        return generalized_jacobi_residual(L, inputs)

    monkeypatch.setattr(suites, "generalized_jacobi_residual", counting)
    report = run(RunConfig(suites=(name,), trials=60))
    assert report["summary"]["all_passed"]
    # target degree sum(degrees) + n - 3 in {0, 1}: 3 signatures of two
    # inputs, 4 of three and 1 of four
    assert evaluated and all(sum(sig) + len(sig) - 3 in (0, 1) for sig in evaluated)
    assert len(set(evaluated)) == 8
    blocks = 2 if name == "pkg-jacobi" else 1  # the trials, then the control's
    assert len(evaluated) == 8 * blocks


@pytest.mark.parametrize("budget", [BLOCK_NUMBERS, 1000, 1])
def test_no_block_draws_more_than_the_budget_unless_it_is_one_trial(
        bundle, monkeypatch, budget):
    monkeypatch.setattr(linfty, "BLOCK_NUMBERS", budget)
    for spaces in [(bundle.pkg.space0,) * 3 + (bundle.pkg.space1,),
                   [bundle.pkg.space(d) for sig in all_signatures() for d in sig]]:
        width = sum(space.width for space in spaces)
        step = max(1, budget // width)
        trials = 2 * step + 1
        sizes = [len(numbers(block[0])[0])
                 for block in random_elements(np.random.default_rng(6), trials, spaces)]
        assert sizes == [step, step, 1]
        assert all(rows * width <= budget or rows == 1 for rows in sizes)


@pytest.mark.parametrize("hom", ["phi", "psi", "lam"])
def test_hom_block_draws_equal_per_trial_draws(bundle, hom):
    src = getattr(bundle, hom).src
    spaces = (src.space0, src.space0, src.space0, src.space1)
    rng, reference = np.random.default_rng(2), np.random.default_rng(2)
    blocks = hom_samples(getattr(bundle, hom), rng, TRIALS)
    assert assert_block_matches(blocks, lambda b: spaces, reference) == TRIALS
    assert rng.uniform() == reference.uniform()


def test_two_hom_and_equivalence_block_draws_equal_per_trial_draws(bundle):
    src = bundle.tau.from_hom.src
    rng, reference = np.random.default_rng(3), np.random.default_rng(3)
    blocks = two_hom_samples(bundle.tau, rng, TRIALS)
    assert assert_block_matches(blocks, lambda b: (src.space0, src.space0, src.space1),
                                reference) == TRIALS
    structures = {"round_trip_identity": bundle.gk,
                  "trivializer": bundle.trivializer.from_hom.src}

    def spaces(block):
        L = structures[block[0]]
        return (L.space0, L.space0, L.space1)

    blocks = equivalence_samples(bundle, rng, TRIALS)
    assert assert_block_matches(blocks, spaces, reference) == 2 * TRIALS
    assert rng.uniform() == reference.uniform()


def test_dalpha_block_draws_equal_per_trial_draws():
    config = RunConfig(trials=TRIALS)
    pkg, el = config.models.pkg, config.models.el
    spaces = (pkg.space0, el.space0, pkg.space1, pkg.space1)
    rng, reference = np.random.default_rng(4), np.random.default_rng(4)
    blocks = REGISTRY["dalpha-action"].sample(config, rng)
    assert assert_block_matches(blocks, lambda b: spaces, reference) == TRIALS


@pytest.mark.parametrize("name", POLYNOMIAL_SUITES)
def test_a_trial_alone_equals_its_row_of_the_block(name):
    # a trial's residual is a value of the trial, not of the block it is drawn in
    config = RunConfig(k=-1.0, splitting="0,0,3,-2", trials=TRIALS)
    spec = REGISTRY[name]
    checked = 0
    for inputs in spec.sample(config, np.random.default_rng(5)):
        residuals = spec.evaluate(config, inputs)
        shape = np.broadcast_shapes(*map(np.shape, residuals.values()))
        if shape == ():
            continue  # unbatched (splitting functions)
        for r in range(shape[0]):
            alone = spec.evaluate(config, trial(inputs, r))
            for component, value in residuals.items():
                assert np.shape(alone[component]) == ()
                assert np.broadcast_to(value, shape)[r] == alone[component]
                checked += 1
    assert checked >= TRIALS


BATCH_SHAPES = [(), (1,), (7,), (200,), (2, 3)]


@pytest.mark.parametrize("shape", BATCH_SHAPES, ids=str)
@pytest.mark.parametrize("against", ["batch", "one path"])
def test_every_kernel_gives_each_trial_what_it_gives_that_trial_alone(g, rng, shape, against):
    # each kernel flattens the batch into the rows of one 2-D product; a row
    # must not depend on how many rows the product has, or a trial's residual
    # would depend on the block it is drawn in
    p = PathSpace(g, LOOP, 4).element(rng.uniform(-1, 1, shape + (15,)))
    q = PathSpace(g, BASED, 3).element(rng.uniform(-1, 1, (shape if against == "batch" else ())
                                                    + (12,)))
    bracket, norms = pointwise_bracket(p, q), p.l2_norm_sq()
    pq, qp = derivative_pairing(p, q), derivative_pairing(q, p)
    assert bracket.coeffs.shape == shape + (3, 8) and bracket.kind == LOOP
    assert np.shape(pq) == np.shape(qp) == np.shape(norms) == shape
    for r in np.ndindex(shape):
        q_r = q[r] if against == "batch" else q
        assert np.array_equal(bracket.coeffs[r], pointwise_bracket(p[r], q_r).coeffs)
        assert pq[r] == derivative_pairing(p[r], q_r)
        assert qp[r] == derivative_pairing(q_r, p[r])
        assert norms[r] == p[r].l2_norm_sq()


def test_running_maximum_keeps_the_first_trial_and_counts_trials():
    worst = WorstCase()
    worst.add({"a": np.array([0.1, 0.3, 0.3]), "b": 0.2}, "first")
    assert (worst.max_residual, worst.component, worst.row, worst.count) == (0.3, "a", 1, 3)
    worst.add({"a": np.array([0.3, 0.0]), "b": np.array([0.0, 0.3])}, "tie")
    assert (worst.inputs, worst.row) == ("first", 1)
    block = (np.array([[1.0, 2.0], [3.0, 4.0]]), "law")
    worst.add({"a": np.array([0.5, math.nan]), "b": np.array([math.nan, 0.0])}, block)
    assert (worst.inputs, worst.row, worst.component) == (block, 0, "b")
    assert math.isnan(worst.maxima["a"]) and math.isnan(worst.maxima["b"])
    worst.add({"a": 7.0, "b": math.nan}, "later")
    assert worst.inputs is block and worst.count == 8
    vector, law = worst.witness
    assert vector.tolist() == [1.0, 2.0] and law == "law"
    # the first trial holding the maximum wins over the first component
    # holding it: here b holds it at an earlier trial than a
    worst = WorstCase()
    worst.add({"a": np.array([0.1, 0.2, 0.9]), "b": np.array([0.1, 0.9, 0.0])}, "earlier")
    assert (worst.max_residual, worst.component, worst.row) == (0.9, "b", 1)
    # a tie across the components of one trial goes to the first of them
    worst.add({"a": np.array([0.0, 2.0]), "b": np.array([1.0, 2.0]), "c": 0.5}, "tie")
    assert (worst.max_residual, worst.component, worst.inputs, worst.row) == (2.0, "a", "tie", 1)
    assert worst.maxima == {"a": 2.0, "b": 2.0, "c": 0.5} and worst.count == 5


def test_the_count_is_that_of_the_most_sampled_component():
    # blocks that check different laws add to each law's count, not to one sum
    worst = WorstCase()
    worst.add({"a": np.zeros(4)})
    worst.add({"b": np.zeros(2)})
    worst.add({"b": 0.0, "c": np.zeros(2)})
    assert worst.counts == {"a": 4, "b": 4, "c": 2} and worst.count == 4
    assert WorstCase().count == 0


LIVE_JACOBI = {f"jacobi[{','.join(map(str, sig))}]"
               for sig in all_signatures() if jacobi_target(sig) is not None}


@pytest.mark.parametrize("trials", [1, 7, 50, 400])
def test_every_suite_reports_the_trials_its_fold_counted(trials):
    # one rule for every suite: the trials of its most-sampled component.
    # equivalence's universality law always checks 20 splittings, exactness
    # one rank check per degree 2..degree, and each finite suite one count
    # per bundled module or pair
    config = RunConfig(trials=trials, nt=16, ntheta=16)
    report = run(config)
    expected = {name: trials for name in REGISTRY} | {name: 1 for name in GRID_SUITES} | {
        "equivalence": max(trials, 20), "exactness": config.degree - 1,
        "crossed-axioms": 5, "two-group-axioms": 5, "strict-exactness": 3}
    assert {s["name"]: s["trials"] for s in report["suites"]} == expected
    assert {s["name"]: s["details"]["mutation_trials"] for s in report["suites"]
            if s["details"].get("mutation_trials") is not None} \
        == {name: min(trials, 50) for name, spec in REGISTRY.items() if spec.mutant}
    for entry in report["suites"][:2]:  # gk-jacobi and pkg-jacobi
        assert {key for key in entry["details"] if key.startswith("jacobi")} == LIVE_JACOBI
    # the grid suites fail on this coarse grid; every other suite passes, also
    # over several blocks of trials (pkg-jacobi takes 194 per block)
    assert [s["name"] for s in report["suites"]
            if not s["passed"] and s["name"] not in GRID_SUITES] == []


def test_a_jacobi_failure_replays_under_its_signature(tmp_path):
    report = run(RunConfig(trials=10, tol_exact=1e-300, suites=("gk-jacobi", "pkg-jacobi")))
    for entry in report["suites"]:
        component = entry["witness"]["component"]
        assert not entry["passed"] and component in LIVE_JACOBI
        assert entry["details"][component] == entry["max_residual"]
    report_path = tmp_path / "jacobi.json"
    report_path.write_text(report_json(report))
    assert replay_report(report_path) == [(entry["name"], entry["max_residual"], None)
                                          for entry in report["suites"]]


def test_largest_is_element_wise_and_keeps_nan():
    out = largest(np.array([1.0, 2.0, 0.0]), np.array([3.0, math.nan, -1.0]), 0.5)
    assert out[0] == 3.0 and math.isnan(out[1]) and out[2] == 0.5
    assert math.isnan(largest(0.0, math.nan))



def pkg_slots(bundle):
    """Every slot of the 30 signatures of a pkg-jacobi trial, all built: 98
    elements of two distinct spaces."""
    return [bundle.pkg.space(d) for sig in all_signatures() for d in sig]


@pytest.mark.parametrize("budget, trials", [
    (BLOCK_NUMBERS, 43),  # one block of 43 trials: sub-blocks of 5, the last of 3
    (BLOCK_NUMBERS, 87),  # two full blocks and a block of one trial
    (1, 3),  # blocks of one trial, each drawn in one sub-block
])
def test_sub_block_draws_equal_one_whole_block_draw(bundle, monkeypatch, budget, trials):
    monkeypatch.setattr(linfty, "BLOCK_NUMBERS", budget)
    slots = pkg_slots(bundle)
    edges = np.cumsum([space.width for space in slots])
    step = max(1, budget // int(edges[-1]))
    rng, reference = np.random.default_rng(7), np.random.default_rng(7)
    drawn = 0
    for block in random_elements(rng, trials, slots):
        whole = reference.uniform(-1.0, 1.0, (min(step, trials - drawn), edges[-1]))
        for space, element, cols in zip(slots, block, np.split(whole, edges[:-1], axis=1)):
            for got, want in zip(numbers(element), numbers(space.element(cols.copy()))):
                assert got.shape == want.shape and np.array_equal(got, want)
        drawn += len(whole)
    assert drawn == trials
    assert rng.uniform() == reference.uniform()


def test_sampled_blocks_and_zeros_run_no_entry_check(bundle, g, monkeypatch):
    # their numbers come from the generator (or are zeros) and the projection
    # makes the endpoint constraints hold, so they are built as derived ones
    checked = []
    for cls in (PolyPath, CentralVector):
        monkeypatch.setattr(cls, "__post_init__", lambda self: checked.append(self))
    slots = pkg_slots(bundle) + [PathSpace(g, LOOP, 5)] * 2
    assert len(set(map(id, slots))) == 3  # based paths, loops, central vectors
    block = next(random_elements(np.random.default_rng(8), 43, slots))
    assert len(block) == 100
    zeros = [zero_path(g, BASED), zero_path(g, LOOP), zero_central(g),
             bundle.pkg.space0.zero(), bundle.pkg.space1.zero()]
    assert checked == []
    assert [z.kind for z in zeros[:2]] == [BASED, LOOP] and zeros[2].loop.kind == LOOP
    assert not any(np.any(numbers(z)[0]) for z in zeros)
    assert zeros[2].c == 0.0 and zeros[2].c.dtype == np.float64


@pytest.mark.parametrize("degree", range(2, 9))
def test_sampled_blocks_meet_the_endpoint_constraints(g, degree):
    # the guard the entry check gave: a constant term of exactly 0, and loops
    # that end at 0 to roundoff relative to their coefficients
    spaces = (PathSpace(g, BASED, degree), PathSpace(g, LOOP, degree),
              CentralSpace(g, degree))
    based, loop, central = next(random_elements(np.random.default_rng(degree), 500, spaces))
    for path in (based, loop, central.loop):
        assert not path.coeffs[..., 0].any()
    for path in (loop, central.loop):
        scale = np.maximum(np.abs(path.coeffs).max(axis=(-2, -1)), 1.0)
        assert (np.abs(path.endpoint()).max(axis=-1) <= 1e-14 * scale).all()


def test_drawing_a_block_holds_its_numbers_about_once(bundle):
    # a pkg-jacobi block of 194 trials draws 194 * 337 numbers, within the
    # budget; with every signature's slots drawn, 43 trials fill it
    live = [bundle.pkg.space(d) for sig in LIVE_SIGNATURES for d in sig]
    for slots, trials, built in [(live, 194, 22), (pkg_slots(bundle), 43, 98)]:
        next(random_elements(np.random.default_rng(9), trials, slots))  # warm caches
        tracemalloc.start()
        try:
            block = next(random_elements(np.random.default_rng(9), trials, slots))
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert len(block) == built
        assert peak < 1.75 * 8 * BLOCK_NUMBERS
