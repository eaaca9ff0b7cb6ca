import json

import numpy as np
import pytest

from lie2.liealg import InputError
from lie2.twogroups import (
    FiniteCrossedModule,
    FiniteGroup,
    FiniteTwoGroup,
    TwoGroupHom,
    build_two_group,
    conjugation_module,
    cyclic_group,
    dump_crossed_module,
    dump_group,
    identity_kernel_pair,
    inclusion_module,
    indiscrete_collapse_pair,
    kernel_inclusion_pair,
    load_crossed_module,
    load_group,
    quaternion_group,
    quotient_group,
    strict_kernel,
    strict_kernel_exactness,
    symmetric_group_3,
    trivial_action_module,
    unique_morphism_count_violations,
)


def test_cyclic_group_structure():
    z6 = cyclic_group(6)
    assert z6.identity == 0
    assert z6.mul(4, 5) == 3
    assert z6.inverse[2] == 4


def test_symmetric_group_3():
    s3 = symmetric_group_3()
    assert s3.order == 6
    non_abelian = any(s3.mul(a, b) != s3.mul(b, a)
                      for a in range(6) for b in range(6))
    assert non_abelian


def test_quaternion_relations():
    q8 = quaternion_group()
    one, minus, i, _, j, _, k, _ = range(8)
    assert q8.mul(i, i) == minus
    assert q8.mul(j, j) == minus
    assert q8.mul(i, j) == k
    assert q8.mul(j, i) == q8.mul(minus, k)


def test_group_table_validation_rejects_bad_tables():
    with pytest.raises(InputError):
        FiniteGroup("bad", np.array([[0, 1], [0, 1]]))  # no inverse structure
    with pytest.raises(InputError):
        FiniteGroup("bad", np.array([[0, 1], [1, 5]]))  # out of range


def test_bundled_crossed_modules_are_valid():
    for cm in (
        conjugation_module(cyclic_group(5)),
        conjugation_module(symmetric_group_3()),
        conjugation_module(quaternion_group()),
        trivial_action_module(symmetric_group_3(), cyclic_group(3)),
        inclusion_module(quaternion_group(), [0, 1, 2, 3]),
    ):
        assert cm.violations() == []


def test_tampered_module_is_caught():
    cm = conjugation_module(symmetric_group_3())
    alpha = cm.alpha.copy()
    alpha[1] = np.roll(alpha[1], 1)
    broken = FiniteCrossedModule("broken", cm.G, cm.H, cm.partial, alpha)
    assert broken.violations() != []
    with pytest.raises(InputError):
        build_two_group(broken)


def test_trivial_action_module_needs_abelian_directions():
    with pytest.raises(InputError):
        trivial_action_module(cyclic_group(2), symmetric_group_3())


def test_inclusion_module_requires_normal_subgroup():
    s3 = symmetric_group_3()
    # a two-element subgroup generated by a transposition is not normal
    flip = next(a for a in range(6) if a != 0 and s3.mul(a, a) == 0
                and any(s3.conj(b, a) != a for b in range(6)))
    with pytest.raises(InputError):
        inclusion_module(s3, [0, flip])


def test_two_group_axioms_exhaustive():
    for cm in (
        conjugation_module(symmetric_group_3()),
        trivial_action_module(symmetric_group_3(), cyclic_group(3)),
        inclusion_module(quaternion_group(), [0, 1, 2, 3]),
    ):
        assert build_two_group(cm).violations() == []


def loop_law_violations(grp):
    """Reference: the unit and associativity laws as scalar loops."""
    out = []
    s, t, nM = grp.source, grp.target, grp.n_morphisms

    def compose(m1, m2):
        assert s[m1] == t[m2]
        (_, h1), (p2, h2) = grp.pair(m1), grp.pair(m2)
        return grp.morphism(p2, grp.cm.H.mul(h1, h2))

    for m in range(nM):
        if compose(m, int(grp.unit[s[m]])) != m:
            out.append(f"right unit law fails at {m}")
            break
        if compose(int(grp.unit[t[m]]), m) != m:
            out.append(f"left unit law fails at {m}")
            break
    for m1 in range(nM):
        for m2 in range(nM):
            if s[m1] == t[m2] and any(
                    compose(compose(m1, m2), m3) != compose(m1, compose(m2, m3))
                    for m3 in range(nM) if s[m2] == t[m3]):
                out.append("composition is not associative")
    return out


@pytest.mark.parametrize("entry, first", [
    ((0, 0), "right unit law fails at 0"),  # both sides fail at 0; right is checked first
    ((0, 1), "left unit law fails at 1"),
    ((1, 0), "right unit law fails at 1"),
    ((1, 2), "composition is not associative"),
    ((2, 2), "composition is not associative"),
])
def test_unit_and_associativity_laws_fail_on_a_tampered_table(entry, first):
    # trivial boundary: every composite exists, so the reference loop never raises
    grp = FiniteTwoGroup(trivial_action_module(cyclic_group(2), cyclic_group(3)))
    assert grp.violations() == []
    grp.cm.H.table[entry] = (grp.cm.H.table[entry] + 1) % 3
    laws = [v for v in grp.violations() if "unit law" in v or "associative" in v]
    assert laws[0] == first
    assert laws == loop_law_violations(grp)


def test_identity_with_wrong_endpoints_fails_the_unit_law():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(3)))
    grp.unit[2] = grp.morphism(0, 0)  # the identity of object 0 stands in for 2
    # m = (0, 2) ends at 2; unit o m is m by the formula but is not composable
    assert "left unit law fails at 2" in grp.violations()


def test_indiscrete_two_group_has_unique_morphisms():
    grp = build_two_group(conjugation_module(quaternion_group()))
    assert unique_morphism_count_violations(grp) == []
    # source/target read off the boundary: t(p, h) = partial(h) p
    q8 = quaternion_group()
    m = grp.morphism(2, 4)
    assert grp.source[m] == 2
    assert grp.target[m] == q8.mul(4, 2)


def test_trivial_action_composability_is_equality_of_objects():
    grp = build_two_group(trivial_action_module(symmetric_group_3(), cyclic_group(3)))
    for m1 in range(grp.n_morphisms):
        for m2 in range(grp.n_morphisms):
            p1, _ = grp.pair(m1)
            p2, _ = grp.pair(m2)
            assert grp.composable(m1, m2) == (p1 == p2)


def test_composition_worked_example():
    grp = build_two_group(conjugation_module(cyclic_group(5)))
    m2 = grp.morphism(1, 2)  # 1 -> 3
    m1 = grp.morphism(3, 1)  # 3 -> 4
    assert grp.target[m2] == grp.source[m1]
    c = grp.compose(m1, m2)
    assert grp.pair(c) == (1, 3)
    assert grp.source[c] == 1 and grp.target[c] == 4


def test_compose_rejects_non_matching():
    grp = build_two_group(conjugation_module(cyclic_group(5)))
    with pytest.raises(InputError):
        grp.compose(grp.morphism(0, 1), grp.morphism(0, 1))


def test_interchange_concrete_instance():
    grp = build_two_group(conjugation_module(symmetric_group_3()))
    # pick two composable pairs and check the law on them directly
    m2, m4 = grp.morphism(1, 2), grp.morphism(2, 5)
    m1 = grp.morphism(int(grp.target[m2]), 3)
    m3 = grp.morphism(int(grp.target[m4]), 4)
    left = grp.mor_table[grp.compose(m1, m2), grp.compose(m3, m4)]
    right = grp.compose(int(grp.mor_table[m1, m3]), int(grp.mor_table[m2, m4]))
    assert left == right


def test_quotient_group():
    q8 = quaternion_group()
    q, proj = quotient_group(q8, [0, 1, 2, 3])
    assert q.order == 2
    assert proj[0] == proj[2]
    assert proj[4] != proj[0]


def test_strict_kernel_of_quotient():
    iota, pi = kernel_inclusion_pair(quaternion_group(), [0, 1, 2, 3])
    objs, mors = strict_kernel(pi)
    assert objs == {0, 1, 2, 3}
    assert len(mors) == 4 * 4


def test_strict_exactness_cases():
    cases = [
        kernel_inclusion_pair(quaternion_group(), [0, 1, 2, 3]),
        indiscrete_collapse_pair(symmetric_group_3()),
        identity_kernel_pair(cyclic_group(4)),
    ]
    for iota, pi in cases:
        record = strict_kernel_exactness(iota, pi)
        assert record.passed


def test_exactness_sizes_for_collapse():
    iota, pi = indiscrete_collapse_pair(symmetric_group_3())
    record = strict_kernel_exactness(iota, pi)
    assert record.kernel_objects == 6
    assert record.kernel_morphisms == 36
    assert record.image_objects == 6


def test_exactness_sizes_for_identity():
    iota, pi = identity_kernel_pair(cyclic_group(4))
    record = strict_kernel_exactness(iota, pi)
    assert record.kernel_objects == 1
    assert record.kernel_morphisms == 1


def test_non_composable_homs_rejected():
    iota, _ = indiscrete_collapse_pair(symmetric_group_3())
    _, pi = identity_kernel_pair(cyclic_group(4))
    with pytest.raises(InputError):
        strict_kernel_exactness(iota, pi)


def test_bad_hom_rejected():
    grp = build_two_group(conjugation_module(cyclic_group(4)))
    scrambled = TwoGroupHom(
        grp, grp,
        np.roll(np.arange(grp.n_objects), 1),
        np.arange(grp.n_morphisms),
        name="scrambled",
    )
    assert scrambled.violations() != []
    with pytest.raises(InputError):
        scrambled.validate()


def test_hom_that_breaks_composition_is_caught():
    grp = build_two_group(trivial_action_module(cyclic_group(2), cyclic_group(3)))
    mor_map = np.arange(grp.n_morphisms)
    mor_map[grp.morphism(0, 1)] = grp.morphism(0, 0)  # (0, 1) o (0, 1) = (0, 2)
    hom = TwoGroupHom(grp, grp, np.arange(grp.n_objects), mor_map)
    assert "composition is not preserved" in hom.violations()


def test_group_json_roundtrip(tmp_path):
    q8 = quaternion_group()
    path = tmp_path / "q8.json"
    path.write_text(json.dumps(dump_group(q8)))
    loaded = load_group(path)
    assert np.array_equal(loaded.table, q8.table)


def test_crossed_module_json_roundtrip(tmp_path):
    cm = inclusion_module(quaternion_group(), [0, 1, 2, 3])
    path = tmp_path / "cm.json"
    path.write_text(json.dumps(dump_crossed_module(cm)))
    loaded = load_crossed_module(path)
    assert loaded.violations() == []
    assert np.array_equal(loaded.partial, cm.partial)


def test_malformed_fixture_rejected(tmp_path):
    path = tmp_path / "junk.json"
    path.write_text("{not json")
    with pytest.raises(InputError):
        load_group(path)
    with pytest.raises(InputError):
        load_crossed_module(path)
