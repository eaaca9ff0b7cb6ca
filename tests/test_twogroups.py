import itertools
import re

import numpy as np
import pytest

from lie2.twogroups import (
    FiniteCrossedModule,
    FiniteGroup,
    FiniteTwoGroup,
    TwoGroupHom,
    conjugation_module,
    cyclic_group,
    identity_kernel_pair,
    inclusion_module,
    indiscrete_collapse_pair,
    kernel_inclusion_pair,
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
    assert z6.table[4, 5] == 3
    assert z6.inverse[2] == 4


def test_symmetric_group_3():
    s3 = symmetric_group_3()
    assert s3.order == 6
    non_abelian = any(s3.table[a, b] != s3.table[b, a]
                      for a in range(6) for b in range(6))
    assert non_abelian


def test_quaternion_relations():
    q8 = quaternion_group()
    one, minus, i, _, j, _, k, _ = range(8)
    assert q8.table[i, i] == minus
    assert q8.table[j, j] == minus
    assert q8.table[i, j] == k
    assert q8.table[j, i] == q8.table[minus, k]


def hamilton_product(p, q):
    """Quaternion product of (w, x, y, z) = w + x i + y j + z k."""
    (w1, x1, y1, z1), (w2, x2, y2, z2) = p, q
    return (w1 * w2 - x1 * x2 - y1 * y2 - z1 * z2,
            w1 * x2 + x1 * w2 + y1 * z2 - z1 * y2,
            w1 * y2 - x1 * z2 + y1 * w2 + z1 * x2,
            w1 * z2 + x1 * y2 - y1 * x2 + z1 * w2)


def test_quaternion_table_is_quaternion_arithmetic():
    # element 2a + s is (-1)^s times the a-th unit of (1, i, j, k)
    units = [tuple((-1) ** s * int(a == b) for b in range(4))
             for a in range(4) for s in range(2)]
    q8 = quaternion_group()
    for x, y in itertools.product(range(8), repeat=2):
        assert units[q8.table[x, y]] == hamilton_product(units[x], units[y])


@pytest.mark.parametrize("table, law", [
    ([[0, 1], [0, 1]], "table has no identity"),  # a b = b: associative, no right unit
    ([[0, 1], [1, 5]], "table entries out of range"),
    ([[0, 1, 2], [1, 2, 0]], "table has shape (2, 3), not (2, 2)"),
    (np.zeros((0, 0)), "table is empty"),
], ids=["no-identity", "out-of-range", "not-square", "empty"])
def test_a_bad_group_table_is_built_and_fails_its_laws(table, law):
    group = FiniteGroup("bad", table)
    assert group.violations() == [law]
    assert FiniteCrossedModule("bad", group, cyclic_group(1), [0],
                               np.zeros((group.order, 1))).violations()[0] == f"bad: {law}"


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


# -- the vectorized table checks against their scalar-loop definitions -------

def conj(group, g, x):
    """g x g^-1 in a finite group, read off its table."""
    return group.table[group.table[g, x], group.inverse[g]]


def loop_group_violations(t):
    """Reference: the identity, inverse and associativity laws of a group
    table as scalar loops, each at its first failure; no inverse law without
    an identity."""
    n = len(t)
    out = []
    ident = [e for e in range(n) if all(t[e, x] == x and t[x, e] == x for x in range(n))]
    if not ident:
        out.append("table has no identity")
    for a in range(n) if ident else ():
        where = np.nonzero(t[a] == ident[0])[0]
        if len(where) != 1 or t[where[0], a] != ident[0]:
            out.append(f"element {a} lacks a two-sided inverse")
            break
    for a, b in itertools.product(range(n), repeat=2):
        if not np.array_equal(t[t[a, b]], t[a, t[b]]):
            out.append(f"associativity fails at ({a}, {b})")
            break
    return out


def loop_module_violations(cm):
    """Reference: the crossed-module laws as scalar loops, in report order."""
    out = []
    G, H, d, a = cm.G, cm.H, cm.partial, cm.alpha
    for h1, h2 in itertools.product(range(H.order), repeat=2):
        if d[H.table[h1, h2]] != G.table[int(d[h1]), int(d[h2])]:
            out.append(f"partial not a homomorphism at ({h1}, {h2})")
    for g in range(G.order):
        if sorted(a[g]) != list(range(H.order)):
            out.append(f"alpha({g}) is not a bijection")
        for h1, h2 in itertools.product(range(H.order), repeat=2):
            if a[g, H.table[h1, h2]] != H.table[int(a[g, h1]), int(a[g, h2])]:
                out.append(f"alpha({g}) not a homomorphism at ({h1}, {h2})")
                break
    for g1, g2 in itertools.product(range(G.order), repeat=2):
        if not np.array_equal(a[G.table[g1, g2]], a[g1][a[g2]]):
            out.append(f"alpha not an action at ({g1}, {g2})")
    if not np.array_equal(a[G.identity], np.arange(H.order)):
        out.append("alpha(identity) is not the identity")
    for g in range(G.order):
        for h in range(H.order):
            if d[a[g, h]] != conj(G, g, int(d[h])):
                out.append(f"equivariance fails at (g={g}, h={h})")
    for h1 in range(H.order):
        for h2 in range(H.order):
            if a[int(d[h1]), h2] != conj(H, h1, h2):
                out.append(f"conjugation law fails at (h1={h1}, h2={h2})")
    return out


def tampered_tables(t, rng):
    """Copies of a group table with one or two entries set at random, two
    rows swapped, or two non-identity entries of a row swapped (which keeps
    the identity and the inverses and breaks associativity)."""
    n = len(t)
    for _ in range(12):
        bad = t.copy()
        for _ in range(rng.integers(1, 3)):
            bad[rng.integers(n), rng.integers(n)] = rng.integers(n)
        yield bad
        bad = t.copy()
        r = rng.choice(n, 2, replace=False)
        bad[r] = bad[r[::-1]]
        yield bad
        a = rng.integers(1, n)
        cols = [b for b in range(1, n) if t[a, b] != 0]
        b, c = rng.choice(cols, 2, replace=False)
        bad = t.copy()
        bad[a, [b, c]] = bad[a, [c, b]]
        yield bad


def test_group_checks_match_the_loop_reference_on_tampered_tables(rng):
    seen = set()
    for group in (cyclic_group(5), symmetric_group_3(), quaternion_group()):
        assert loop_group_violations(group.table) == group.violations() == []
        for bad in tampered_tables(group.table, rng):
            got = FiniteGroup(group.name, bad).violations()
            assert got == loop_group_violations(bad)
            seen |= {re.sub(r"\d+", "#", v) for v in got} or {"a group"}
    assert seen == {"a group", "table has no identity", "element # lacks a two-sided inverse",
                    "associativity fails at (#, #)"}


def test_crossed_module_violations_match_the_loop_reference_on_tampered_tables(rng):
    modules = [conjugation_module(symmetric_group_3()), conjugation_module(quaternion_group()),
               trivial_action_module(symmetric_group_3(), cyclic_group(3)),
               inclusion_module(quaternion_group(), [0, 1, 2, 3])]
    kinds = set()
    for cm in modules:
        nG, nH = cm.G.order, cm.H.order
        for _ in range(15):
            partial, alpha = cm.partial.copy(), cm.alpha.copy()
            for _ in range(rng.integers(1, 4)):
                alpha[rng.integers(nG), rng.integers(nH)] = rng.integers(nH)
            if rng.uniform() < 0.5:
                partial[rng.integers(nH)] = rng.integers(nG)
            if rng.uniform() < 0.3:
                g = rng.integers(nG)
                alpha[g] = np.roll(alpha[g], 1)
            bad = FiniteCrossedModule("tampered", cm.G, cm.H, partial, alpha)
            got = bad.violations()
            assert got == loop_module_violations(bad)
            kinds |= {re.sub(r"\d+", "#", v) for v in got}
    assert len(kinds) == 7  # every law fails somewhere


def test_crossed_module_entries_out_of_range_are_its_one_violation():
    cm = conjugation_module(symmetric_group_3())
    partial = cm.partial + 6
    bad = FiniteCrossedModule("bad", cm.G, cm.H, partial, cm.alpha)
    assert bad.violations() == ["partial entries out of range"]
    # each entry at or past the order is stored as -1, which indexes the last
    # entry, so the 2-group is built; its laws are not checked, and its one
    # violation is the module's
    assert FiniteTwoGroup(bad).violations() == ["partial entries out of range"]
    assert np.all(bad.partial == -1)
    assert np.array_equal(partial, cm.partial + 6)  # in a new array
    bad = FiniteCrossedModule("bad", cm.G, cm.H, cm.partial, cm.alpha - 1)
    assert bad.violations() == ["alpha entries out of range"]
    assert FiniteTwoGroup(bad).violations() == ["alpha entries out of range"]
    bad = FiniteCrossedModule("bad", cm.G, cm.H, cm.partial[1:], cm.alpha)
    assert bad.violations() == ["partial has shape (5,), not (6,)"]
    assert FiniteTwoGroup(bad).violations() == ["partial has shape (5,), not (6,)"]


def test_a_table_entry_at_its_groups_order_is_a_range_violation_of_all_built_on_it():
    table = cyclic_group(3).table.copy()
    table[1, 1] = 3
    group = FiniteGroup("bad", table)
    assert group.violations() == ["table entries out of range"]
    cm = conjugation_module(group)
    assert cm.violations()[0] == "bad: table entries out of range"
    grp = FiniteTwoGroup(cm)
    assert grp.violations()[0] == "bad: table entries out of range"
    assert TwoGroupHom(grp, grp, np.arange(3), np.arange(9)).violations()[0] == (
        "conj[bad]: bad: table entries out of range")
    assert group.table[1, 1] == -1 and table[1, 1] == 3


def test_trivial_action_on_non_abelian_directions_fails_the_conjugation_law():
    # alpha(partial h1) h2 = h2 against h1 h2 h1^-1: the 36 - 18 pairs of S3
    # that do not commute
    got = trivial_action_module(cyclic_group(2), symmetric_group_3()).violations()
    assert len(got) == 18
    assert all(v.startswith("conjugation law fails at") for v in got)


def test_inclusion_of_a_non_normal_subgroup_has_alpha_out_of_range():
    s3 = symmetric_group_3()
    # a two-element subgroup generated by a transposition is not normal
    flip = next(a for a in range(6) if a != 0 and s3.table[a, a] == 0
                and any(conj(s3, b, a) != a for b in range(6)))
    cm = inclusion_module(s3, [0, flip])
    assert cm.violations() == ["alpha entries out of range"]
    assert FiniteTwoGroup(cm).violations() == ["alpha entries out of range"]


def test_two_group_axioms_exhaustive():
    for cm in (
        conjugation_module(symmetric_group_3()),
        trivial_action_module(symmetric_group_3(), cyclic_group(3)),
        inclusion_module(quaternion_group(), [0, 1, 2, 3]),
    ):
        assert cm.violations() == []
        assert FiniteTwoGroup(cm).violations() == []


def loop_law_violations(grp):
    """Reference: every law of ``FiniteTwoGroup.violations`` as scalar loops
    over Python ints, in report order.  Associativity runs over the composable
    triples and interchange over all pairs of composable pairs; a composite
    that does not exist is None and breaks the law it enters."""
    s, t, unit = grp.source.tolist(), grp.target.tolist(), grp.unit.tolist()
    T, G, H = grp.mor_table.tolist(), grp.cm.G.table.tolist(), grp.cm.H.table.tolist()
    nH, nM = len(H), grp.n_morphisms

    def compose(m1, m2):
        if m1 is None or m2 is None or s[m1] != t[m2]:
            return None
        (_, h1), (p2, h2) = divmod(m1, nH), divmod(m2, nH)
        return p2 * nH + H[h1][h2]

    out = []
    every = list(itertools.product(range(nM), repeat=2))
    if any(s[T[a][b]] != G[s[a]][s[b]] for a, b in every):
        out.append("source is not a homomorphism")
    if any(t[T[a][b]] != G[t[a]][t[b]] for a, b in every):
        out.append("target is not a homomorphism")
    if any(unit[G[x][y]] != T[unit[x]][unit[y]]
           for x, y in itertools.product(range(len(G)), repeat=2)):
        out.append("identity-assignment is not a homomorphism")
    pairs = [(m1, m2) for m1, m2 in every if s[m1] == t[m2]]
    for m1, m2 in pairs:
        c = compose(m1, m2)
        if s[c] != s[m2] or t[c] != t[m1]:
            out.append(f"composite of ({m1}, {m2}) has wrong endpoints")
            break
    for m in range(nM):
        if compose(m, unit[s[m]]) != m:
            out.append(f"right unit law fails at {m}")
            break
        if compose(unit[t[m]], m) != m:
            out.append(f"left unit law fails at {m}")
            break
    for m1, m2 in pairs:
        triples = [(compose(compose(m1, m2), m3), compose(m1, compose(m2, m3)))
                   for m3 in range(nM) if s[m2] == t[m3]]
        if any(lhs is None or lhs != rhs for lhs, rhs in triples):
            out.append("composition is not associative")
    quads = list(itertools.product(pairs, repeat=2))
    if any(s[T[m1][m3]] != t[T[m2][m4]] for (m1, m2), (m3, m4) in quads):
        out.append("products of composable pairs fail to stay composable")
    elif any(T[compose(m1, m2)][compose(m3, m4)] != compose(T[m1][m3], T[m2][m4])
             for (m1, m2), (m3, m4) in quads):
        out.append("interchange law fails")
    return out


@pytest.mark.parametrize("entry, first", [
    ((0, 0), "right unit law fails at 0"),  # both sides fail at 0; right is checked first
    ((0, 1), "left unit law fails at 1"),
    ((1, 0), "right unit law fails at 1"),
    ((1, 2), "composition is not associative"),
    ((2, 2), "composition is not associative"),
])
def test_unit_and_associativity_laws_fail_on_a_tampered_table(entry, first):
    grp = FiniteTwoGroup(trivial_action_module(cyclic_group(2), cyclic_group(3)))
    assert grp.violations() == []
    grp.cm.H.table[entry] = (grp.cm.H.table[entry] + 1) % 3
    laws = [v for v in grp.violations() if "unit law" in v or "associative" in v]
    assert laws[0] == first
    assert grp.violations() == loop_law_violations(grp)


@pytest.mark.parametrize("make", [
    lambda: conjugation_module(symmetric_group_3()),
    lambda: inclusion_module(quaternion_group(), [0, 1, 2, 3]),
    lambda: trivial_action_module(symmetric_group_3(), cyclic_group(3)),
], ids=["conj[S3]", "incl[Z4<Q8]", "trivial[S3,Z3]"])
def test_two_group_laws_match_the_loop_reference_on_tampered_tables(make, rng):
    # composability is partial in all three; one entry of the direction table,
    # the morphism table or the source map is set at random, or a product is
    # replaced by another morphism with the same target (in the trivial module
    # that keeps both endpoints, so only the interchange law can see it)
    grp = FiniteTwoGroup(make())
    assert loop_law_violations(grp) == grp.violations() == []
    kinds = set()
    for _ in range(12):
        grp = FiniteTwoGroup(make())
        nH, nM, tab = grp.cm.H.order, grp.n_morphisms, grp.mor_table
        x, y = rng.integers(nM, size=2)
        how = rng.integers(4)
        if how == 0:
            grp.cm.H.table[tuple(rng.integers(nH, size=2))] = rng.integers(nH)
        elif how == 1:
            tab[x, y] = rng.integers(nM)
        elif how == 2:
            tab[x, y] = rng.choice(np.flatnonzero(grp.target == grp.target[tab[x, y]]))
        else:
            grp.source[x] = rng.integers(grp.n_objects)
        got = grp.violations()
        assert got == loop_law_violations(grp)
        kinds |= {re.sub(r"\d+", "#", v) for v in got}
    assert {"composition is not associative", "interchange law fails",
            "products of composable pairs fail to stay composable"} <= kinds


def test_a_triple_with_neither_composite_defined_breaks_associativity():
    # with the source of morphism 0 moved to object 1, some composable
    # triples have neither (m1 o m2) o m3 nor m1 o (m2 o m3) defined; two of
    # the four pairs that break the law do so only on such triples
    grp = FiniteTwoGroup(trivial_action_module(cyclic_group(2), cyclic_group(3)))
    grp.source[0] = 1
    got = grp.violations()
    assert got.count("composition is not associative") == 4
    assert got == loop_law_violations(grp)


def test_identity_with_wrong_endpoints_fails_the_unit_law():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(3)))
    grp.unit[2] = grp.morphism(0, 0)  # the identity of object 0 stands in for 2
    # m = (0, 2) ends at 2; unit o m is m by the formula but is not composable
    assert "left unit law fails at 2" in grp.violations()


def test_indiscrete_two_group_has_unique_morphisms():
    grp = FiniteTwoGroup(conjugation_module(quaternion_group()))
    assert grp.violations() == []
    assert unique_morphism_count_violations(grp) == []
    # source/target read off the boundary: t(p, h) = partial(h) p
    q8 = quaternion_group()
    m = grp.morphism(2, 4)
    assert grp.source[m] == 2
    assert grp.target[m] == q8.table[4, 2]


def test_trivial_action_composability_is_equality_of_objects():
    grp = FiniteTwoGroup(trivial_action_module(symmetric_group_3(), cyclic_group(3)))
    assert grp.violations() == []
    n_h = grp.cm.H.order
    for m1 in range(grp.n_morphisms):
        for m2 in range(grp.n_morphisms):
            p1, _ = divmod(m1, n_h)
            p2, _ = divmod(m2, n_h)
            assert (grp.source[m1] == grp.target[m2]) == (p1 == p2)


def test_composition_worked_example():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(5)))
    assert grp.violations() == []
    m2 = grp.morphism(1, 2)  # 1 -> 3
    m1 = grp.morphism(3, 1)  # 3 -> 4
    assert grp.target[m2] == grp.source[m1]
    c = int(grp._composite(m1, m2))
    assert divmod(c, grp.cm.H.order) == (1, 3)
    assert grp.source[c] == 1 and grp.target[c] == 4


def test_non_matching_morphisms_are_not_composable():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(5)))
    m = grp.morphism(0, 1)  # 0 -> 1
    assert grp.source[m] != grp.target[m]


def test_interchange_concrete_instance():
    grp = FiniteTwoGroup(conjugation_module(symmetric_group_3()))
    assert grp.violations() == []
    # pick two composable pairs and check the law on them directly
    m2, m4 = grp.morphism(1, 2), grp.morphism(2, 5)
    m1 = grp.morphism(int(grp.target[m2]), 3)
    m3 = grp.morphism(int(grp.target[m4]), 4)
    m13, m24 = int(grp.mor_table[m1, m3]), int(grp.mor_table[m2, m4])
    assert (grp.source[[m1, m3, m13]] == grp.target[[m2, m4, m24]]).all()
    left = grp.mor_table[grp._composite(m1, m2), grp._composite(m3, m4)]
    assert left == grp._composite(m13, m24)


def test_quotient_group():
    q8 = quaternion_group()
    q, proj = quotient_group(q8, [0, 1, 2, 3])
    assert q.order == 2
    assert proj[0] == proj[2]
    assert proj[4] != proj[0]


@pytest.mark.parametrize("group, members, law, exact", [
    (cyclic_group(5), [0, 1], "sub[Z5]: table entries out of range", False),
    (cyclic_group(4), [0, 1], "sub[Z4]: table entries out of range", False),
    (cyclic_group(4), [1], "sub[Z4]: table entries out of range", False),
    (symmetric_group_3(), [0, 1], "alpha entries out of range", True),  # 1 is (0 2 1)
], ids=["Z5-not-closed", "Z4-not-closed", "Z4-without-identity", "S3-not-normal"])
def test_a_member_list_that_is_not_a_normal_subgroup_fails_the_laws_of_its_pair(
        group, members, law, exact):
    # the pair N -> G -> G/N is built all the same; the inclusion module holds
    # a -1 for each product or conjugate outside the list, and every law of
    # the pair over it is the one out-of-range violation
    total = FiniteTwoGroup(inclusion_module(group, members))
    iota, pi = kernel_inclusion_pair(total)
    assert total.cm.violations() == [law]
    assert total.violations() == [law]
    assert pi.violations() == [f"{total.cm.name}: {law}"]
    assert strict_kernel_exactness(iota, pi).passed is exact


def test_kernel_of_the_quotient_is_the_conjugation_two_group_of_the_subgroup():
    members = [0, 1, 4, 5]  # {1, -1, j, -j}
    cm = inclusion_module(quaternion_group(), members)
    iota, _ = kernel_inclusion_pair(FiniteTwoGroup(cm))
    sub = cm.H
    conj = FiniteTwoGroup(conjugation_module(sub))
    assert conj.violations() == []
    assert np.array_equal(iota.src.cm.G.table, conj.cm.G.table)
    for table in ("mor_table", "source", "target", "unit"):
        assert np.array_equal(getattr(iota.src, table), getattr(conj, table))
    assert iota.obj_map.tolist() == members
    for m in range(iota.src.n_morphisms):  # (n, h) -> (n, h)
        p, h = divmod(m, iota.src.cm.H.order)
        assert divmod(int(iota.mor_map[m]), iota.dst.cm.H.order) == (members[p], h)


def incl_z4_q8() -> FiniteTwoGroup:
    return FiniteTwoGroup(inclusion_module(quaternion_group(), [0, 1, 2, 3]))


def conj_s3() -> FiniteTwoGroup:
    return FiniteTwoGroup(conjugation_module(symmetric_group_3()))


def point() -> FiniteTwoGroup:
    return FiniteTwoGroup(conjugation_module(cyclic_group(1)))


def test_strict_kernel_of_quotient():
    iota, pi = kernel_inclusion_pair(incl_z4_q8())
    objs, mors = strict_kernel(pi)
    assert objs == {0, 1, 2, 3}
    assert len(mors) == 4 * 4


def test_strict_exactness_cases():
    cases = [
        kernel_inclusion_pair(incl_z4_q8()),
        indiscrete_collapse_pair(conj_s3(), point()),
        identity_kernel_pair(cyclic_group(4), point()),
    ]
    for iota, pi in cases:
        assert iota.violations() == pi.violations() == []
        record = strict_kernel_exactness(iota, pi)
        assert record.passed


def test_exactness_sizes_for_collapse():
    iota, pi = indiscrete_collapse_pair(conj_s3(), point())
    record = strict_kernel_exactness(iota, pi)
    assert record.kernel_objects == 6
    assert record.kernel_morphisms == 36
    assert record.image_objects == 6


def test_exactness_sizes_for_identity():
    iota, pi = identity_kernel_pair(cyclic_group(4), point())
    record = strict_kernel_exactness(iota, pi)
    assert record.kernel_objects == 1
    assert record.kernel_morphisms == 1


def test_a_pair_that_does_not_compose_fails_exactness():
    # the image of a map into conj[S3] against the kernel of the identity of conj[Z4]
    iota, _ = indiscrete_collapse_pair(conj_s3(), point())
    _, pi = identity_kernel_pair(cyclic_group(4), point())
    assert not strict_kernel_exactness(iota, pi).passed


def test_bad_hom_rejected():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(4)))
    assert grp.violations() == []
    scrambled = TwoGroupHom(
        grp, grp,
        np.roll(np.arange(grp.n_objects), 1),
        np.arange(grp.n_morphisms),
        name="scrambled",
    )
    assert scrambled.violations() != []


def test_hom_that_breaks_composition_is_caught():
    grp = FiniteTwoGroup(trivial_action_module(cyclic_group(2), cyclic_group(3)))
    assert grp.violations() == []
    mor_map = np.arange(grp.n_morphisms)
    mor_map[grp.morphism(0, 1)] = grp.morphism(0, 0)  # (0, 1) o (0, 1) = (0, 2)
    hom = TwoGroupHom(grp, grp, np.arange(grp.n_objects), mor_map)
    assert "composition is not preserved" in hom.violations()


def test_hom_entries_out_of_range_are_its_one_violation():
    grp = FiniteTwoGroup(conjugation_module(cyclic_group(3)))
    objects, morphisms = np.arange(grp.n_objects), np.arange(grp.n_morphisms)
    for bad in (np.r_[morphisms[:-1], grp.n_morphisms], np.r_[morphisms[:-1], -1]):
        assert TwoGroupHom(grp, grp, objects, bad).violations() == [
            "morphism map entries out of range"]
    for bad in (np.r_[objects[:-1], grp.n_objects], np.r_[-1, objects[1:]]):
        assert TwoGroupHom(grp, grp, bad, morphisms).violations() == [
            "object map entries out of range"]
    assert TwoGroupHom(grp, grp, objects[1:], morphisms).violations() == [
        "object map has shape (2,), not (3,)"]
    assert TwoGroupHom(grp, grp, objects, morphisms).violations() == []
