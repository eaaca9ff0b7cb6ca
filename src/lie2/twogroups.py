"""Finite crossed modules and the strict 2-groups they generate.

Everything here is exact integer table arithmetic: groups are multiplication
tables, and morphisms of the 2-group are pairs (object, direction) indexed as
p * |H| + h.  The constructors refuse malformed tables (shapes, ranges, and a
group table's identity, inverses and associativity) with ``InputError``.
Every law of a crossed module, a 2-group or a homomorphism - source / target
/ identity homomorphisms, composability, associativity, units, interchange,
preservation of composition - is reported by ``violations``, exhaustively and
with zero tolerance, never raised; exactness is image = kernel, an
``ExactnessRecord``.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field

import numpy as np

from .liealg import InputError


# ---------------------------------------------------------------------------
# finite groups as multiplication tables
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FiniteGroup:
    name: str
    table: np.ndarray  # table[a, b] = a * b

    def __post_init__(self):
        t = np.asarray(self.table, dtype=int)
        n = t.shape[0]
        if t.shape != (n, n) or n == 0:
            raise InputError("group table must be square and non-empty")
        if t.min() < 0 or t.max() >= n:
            raise InputError("group table entries out of range")
        object.__setattr__(self, "table", t)
        idx = np.arange(n)
        ident = np.flatnonzero((t == idx).all(axis=1) & (t == idx[:, None]).all(axis=0))
        if len(ident) != 1:
            raise InputError(f"{self.name}: table has no unique identity")
        self.identity = int(ident[0])
        # a's inverse is the one b with a b = e, and b a = e must hold too
        is_e = t == self.identity
        inv = is_e.argmax(axis=1)
        bad = np.flatnonzero((is_e.sum(axis=1) != 1) | (t[inv, idx] != self.identity))
        if bad.size:
            raise InputError(f"{self.name}: element {bad[0]} lacks a two-sided inverse")
        self.inverse = inv
        # associativity, exhaustive: (a b) c against a (b c), axes (a, b, c)
        bad = np.argwhere((t[t] != t[idx[:, None, None], t]).any(axis=2))
        if bad.size:
            raise InputError(f"{self.name}: associativity fails at ({bad[0, 0]}, {bad[0, 1]})")

    @property
    def order(self) -> int:
        return self.table.shape[0]


def cyclic_group(n: int) -> FiniteGroup:
    idx = np.arange(n)
    return FiniteGroup(f"Z{n}", (idx[:, None] + idx[None, :]) % n)


def symmetric_group_3() -> FiniteGroup:
    """Permutations of (0, 1, 2) in lexicographic order; (a b)(i) = a(b(i))."""
    perms = np.array(sorted(itertools.permutations(range(3))))
    code = perms @ [9, 3, 1]  # increasing, as the order is lexicographic
    return FiniteGroup("S3", np.searchsorted(code, perms[:, perms] @ [9, 3, 1]))


def quaternion_group() -> FiniteGroup:
    """Units {1, -1, i, -i, j, -j, k, -k} in that order: element 2a + s is
    (-1)^s e_a for the basis units (e_0, e_1, e_2, e_3) = (1, i, j, k)."""
    # e_a e_b = sign * e_c written as sign * (c + 1)
    hamilton = np.array([[1, 2, 3, 4], [2, -1, 4, -3], [3, -4, -1, 2], [4, 3, -2, -1]])
    a, s = np.divmod(np.arange(8), 2)
    signed = hamilton[a[:, None], a[None, :]]
    negative = (signed < 0) ^ s[:, None] ^ s[None, :]
    return FiniteGroup("Q8", 2 * (np.abs(signed) - 1) + negative)


# ---------------------------------------------------------------------------
# crossed modules
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FiniteCrossedModule:
    """(G, H, partial: H -> G, alpha: G acting on H) with the two
    compatibility laws checked exhaustively by ``violations``."""

    name: str
    G: FiniteGroup
    H: FiniteGroup
    partial: np.ndarray  # (|H|,) values in G
    alpha: np.ndarray  # (|G|, |H|) values in H

    def __post_init__(self):
        partial = np.asarray(self.partial, dtype=int)
        alpha = np.asarray(self.alpha, dtype=int)
        if partial.shape != (self.H.order,):
            raise InputError("partial must list one image per element of H")
        if alpha.shape != (self.G.order, self.H.order):
            raise InputError("alpha must be a |G| x |H| table")
        if partial.min() < 0 or partial.max() >= self.G.order:
            raise InputError("partial entries out of range")
        if alpha.min() < 0 or alpha.max() >= self.H.order:
            raise InputError("alpha entries out of range")
        object.__setattr__(self, "partial", partial)
        object.__setattr__(self, "alpha", alpha)

    def violations(self) -> list[str]:
        G, H, d, a = self.G, self.H, self.partial, self.alpha
        g_idx, h_idx = np.arange(G.order), np.arange(H.order)
        out = [f"partial not a homomorphism at ({h1}, {h2})"
               for h1, h2 in np.argwhere(d[H.table] != G.table[d][:, d])]
        # alpha(g)(h1 h2) against alpha(g)(h1) alpha(g)(h2), axes (g, h1, h2)
        hom_bad = a[:, H.table] != H.table[a[:, :, None], a[:, None, :]]
        not_bijective = (np.sort(a, axis=1) != h_idx).any(axis=1)
        for g in g_idx:
            if not_bijective[g]:
                out.append(f"alpha({g}) is not a bijection")
            if hom_bad[g].any():
                h1, h2 = np.argwhere(hom_bad[g])[0]
                out.append(f"alpha({g}) not a homomorphism at ({h1}, {h2})")
        # alpha(g1 g2) against alpha(g1) after alpha(g2), axes (g1, g2, h)
        action_bad = (a[G.table] != a[g_idx[:, None, None], a[None, :, :]]).any(axis=2)
        out += [f"alpha not an action at ({g1}, {g2})" for g1, g2 in np.argwhere(action_bad)]
        if not np.array_equal(a[G.identity], h_idx):
            out.append("alpha(identity) is not the identity")
        # partial(alpha(g)(h)) against g partial(h) g^-1, axes (g, h)
        conj_d = G.table[G.table[g_idx[:, None], d[None, :]], G.inverse[:, None]]
        out += [f"equivariance fails at (g={g}, h={h})" for g, h in np.argwhere(d[a] != conj_d)]
        # alpha(partial(h1))(h2) against h1 h2 h1^-1, axes (h1, h2)
        conj_h = H.table[H.table, H.inverse[:, None]]
        out += [f"conjugation law fails at (h1={h1}, h2={h2})"
                for h1, h2 in np.argwhere(a[d] != conj_h)]
        return out


def conjugation_module(G: FiniteGroup) -> FiniteCrossedModule:
    """(G, G, identity, conjugation): generates the 2-group with exactly one
    morphism between any two objects."""
    alpha = G.table[G.table, G.inverse[:, None]]  # (g h) g^-1
    return FiniteCrossedModule(f"conj[{G.name}]", G, G,
                               np.arange(G.order), alpha)


def trivial_action_module(G: FiniteGroup, H: FiniteGroup) -> FiniteCrossedModule:
    """Trivial boundary and trivial action; requires H abelian."""
    if not np.array_equal(H.table, H.table.T):
        raise InputError("trivial-action module needs an abelian direction group")
    return FiniteCrossedModule(
        f"trivial[{G.name},{H.name}]", G, H,
        np.full(H.order, G.identity, dtype=int),
        np.tile(np.arange(H.order), (G.order, 1)),
    )


def inclusion_module(G: FiniteGroup, members: list[int],
                     name: str = "") -> FiniteCrossedModule:
    """Normal subgroup inclusion with the conjugation action."""
    members = np.array(members, dtype=int)
    pos = np.full(G.order, -1)  # pos[g] = index of g among the members, or -1
    pos[members] = np.arange(members.size)
    if pos[G.identity] < 0:
        raise InputError("subgroup must contain the identity")
    sub_table = pos[G.table[np.ix_(members, members)]]
    if (sub_table < 0).any():
        raise InputError("member list is not closed under the product")
    H = FiniteGroup(name or f"sub[{G.name}]", sub_table)
    alpha = pos[G.table[G.table[:, members], G.inverse[:, None]]]  # (g h) g^-1
    if (alpha < 0).any():
        raise InputError("subgroup is not normal")
    return FiniteCrossedModule(f"incl[{H.name}<{G.name}]", G, H, members, alpha)


# ---------------------------------------------------------------------------
# the 2-group of a crossed module
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class FiniteTwoGroup:
    """Objects G; morphisms G x H indexed p * |H| + h with the twisted
    product; source p, target partial(h) p, identities (p, 1); composition
    (p1, h1) o (p2, h2) = (p2, h1 h2) exactly when p1 = partial(h2) p2."""

    cm: FiniteCrossedModule
    mor_table: np.ndarray = field(init=False)
    source: np.ndarray = field(init=False)
    target: np.ndarray = field(init=False)
    unit: np.ndarray = field(init=False)

    def __post_init__(self):
        cm = self.cm
        nG, nH = cm.G.order, cm.H.order
        p = np.repeat(np.arange(nG), nH)
        h = np.tile(np.arange(nH), nG)
        self.source = p
        self.target = cm.G.table[cm.partial[h], p]
        self.unit = np.arange(nG) * nH + cm.H.identity
        # (p1, h1)(p2, h2) = (p1 p2, h1 * alpha(p1)(h2))
        pp = cm.G.table[p][:, p]
        hh = np.take_along_axis(cm.H.table[h], cm.alpha[p][:, h], axis=1)
        self.mor_table = pp * nH + hh

    @property
    def n_objects(self) -> int:
        return self.cm.G.order

    @property
    def n_morphisms(self) -> int:
        return self.cm.G.order * self.cm.H.order

    def morphism(self, p: int, h: int) -> int:
        return p * self.cm.H.order + h

    def _composite(self, m1, m2):
        """m1 o m2 (m2 first), (p1, h1) o (p2, h2) = (p2, h1 h2), defined iff
        ``source[m1] == target[m2]``, which is not checked; element-wise over
        integer arrays of morphisms."""
        nH = self.cm.H.order
        return m2 - m2 % nH + self.cm.H.table[m1 % nH, m2 % nH]

    def _composable_pairs(self) -> tuple[np.ndarray, np.ndarray]:
        """Every composable (m1, m2), in row-major order of (m1, m2)."""
        return np.nonzero(self.source[:, None] == self.target[None, :])

    def mor_identity(self) -> int:
        return self.morphism(self.cm.G.identity, self.cm.H.identity)

    # -- exhaustive axioms ---------------------------------------------------

    def violations(self) -> list[str]:
        out, nM, G = [], self.n_morphisms, self.cm.G.table
        s, t, table, unit = self.source, self.target, self.mor_table, self.unit
        if not np.array_equal(s[table], G[s][:, s]):
            out.append("source is not a homomorphism")
        if not np.array_equal(t[table], G[t][:, t]):
            out.append("target is not a homomorphism")
        if not np.array_equal(unit[G], table[unit][:, unit]):
            out.append("identity-assignment is not a homomorphism")

        # A law that composes a pair which is not composable fails.
        a1, a2 = self._composable_pairs()
        comp_of = self._composite(a1, a2)
        wrong = np.flatnonzero((s[comp_of] != s[a2]) | (t[comp_of] != t[a1]))
        if wrong.size:
            out.append(f"composite of ({a1[wrong[0]]}, {a2[wrong[0]]}) has wrong endpoints")
        m = np.arange(nM)
        right_unit, left_unit = unit[s], unit[t]
        right_bad = (s != t[right_unit]) | (self._composite(m, right_unit) != m)
        left_bad = (s[left_unit] != t) | (self._composite(left_unit, m) != m)
        first = np.flatnonzero(right_bad | left_bad)
        if first.size:
            side = "right" if right_bad[first[0]] else "left"
            out.append(f"{side} unit law fails at {first[0]}")
        # comp[m1, m2] = m1 o m2 where composable, else the sentinel nM (also all
        # of row and column nM), in the smallest dtype holding (nM + 1)^2, so
        # the flat indices of the interchange gather fit it too
        dt = np.min_scalar_type((nM + 1) ** 2)
        comp = np.full((nM + 1, nM + 1), nM, dtype=dt)
        comp[a1, a2] = comp_of = comp_of.astype(dt)
        # associativity over the composable triples: pair i = (a1, a2) meets
        # every pair j = (a2, m3); pairs run in order of their first morphism
        start = np.searchsorted(a1, a2)
        runs = np.searchsorted(a1, a2, side="right") - start
        i = np.repeat(np.arange(a1.size), runs)
        j = np.arange(i.size) - np.repeat(np.cumsum(runs) - runs - start, runs)
        lhs = comp[comp_of[i], a2[j]]
        broken = (lhs != comp[a1[i], comp_of[j]]) | (lhs == nM)
        out += ["composition is not associative"] * np.unique(i[broken]).size

        # interchange over all pairs of composable pairs:
        # (m1 o m2)(m3 o m4) = (m1 m3) o (m2 m4)
        T = table.astype(dt)
        right = comp.ravel()[T[a1][:, a1] * (nM + 1) + T[a2][:, a2]]
        if (right == nM).any():
            out.append("products of composable pairs fail to stay composable")
        elif not np.array_equal(T[comp_of][:, comp_of], right):
            out.append("interchange law fails")
        return out


def unique_morphism_count_violations(grp: FiniteTwoGroup) -> list[str]:
    """For the conjugation module there is exactly one morphism between any
    ordered pair of objects."""
    counts = np.zeros((grp.n_objects, grp.n_objects), dtype=int)
    np.add.at(counts, (grp.source, grp.target), 1)
    if np.all(counts == 1):
        return []
    return [f"morphism count matrix is not constant 1 (min {counts.min()}, max {counts.max()})"]


# ---------------------------------------------------------------------------
# strict homomorphisms, kernels, exactness
# ---------------------------------------------------------------------------

@dataclass(eq=False)
class TwoGroupHom:
    src: FiniteTwoGroup
    dst: FiniteTwoGroup
    obj_map: np.ndarray
    mor_map: np.ndarray
    name: str = ""

    def __post_init__(self):
        obj_map = np.asarray(self.obj_map, dtype=int)
        mor_map = np.asarray(self.mor_map, dtype=int)
        if obj_map.shape != (self.src.n_objects,):
            raise InputError("object map has the wrong length")
        if mor_map.shape != (self.src.n_morphisms,):
            raise InputError("morphism map has the wrong length")
        if obj_map.min() < 0 or obj_map.max() >= self.dst.n_objects:
            raise InputError("object map entries out of range")
        if mor_map.min() < 0 or mor_map.max() >= self.dst.n_morphisms:
            raise InputError("morphism map entries out of range")
        object.__setattr__(self, "obj_map", obj_map)
        object.__setattr__(self, "mor_map", mor_map)

    def violations(self) -> list[str]:
        out = []
        src, dst, f0, f1 = self.src, self.dst, self.obj_map, self.mor_map
        if not np.array_equal(f0[src.cm.G.table], dst.cm.G.table[f0][:, f0]):
            out.append("object map is not a homomorphism")
        if not np.array_equal(f1[src.mor_table], dst.mor_table[f1][:, f1]):
            out.append("morphism map is not a homomorphism")
        if not np.array_equal(f0[src.source], dst.source[f1]):
            out.append("source squares do not commute")
        if not np.array_equal(f0[src.target], dst.target[f1]):
            out.append("target squares do not commute")
        if not np.array_equal(f1[src.unit], dst.unit[f0]):
            out.append("identity squares do not commute")
        a1, a2 = src._composable_pairs()
        b1, b2 = f1[a1], f1[a2]
        if not (np.array_equal(dst.source[b1], dst.target[b2])
                and np.array_equal(f1[src._composite(a1, a2)], dst._composite(b1, b2))):
            out.append("composition is not preserved")
        return out


def strict_kernel(pi: TwoGroupHom) -> tuple[set[int], set[int]]:
    """Objects and morphisms mapped to the identity object / morphism."""
    return (set(np.flatnonzero(pi.obj_map == pi.dst.cm.G.identity).tolist()),
            set(np.flatnonzero(pi.mor_map == pi.dst.mor_identity()).tolist()))


@dataclass
class ExactnessRecord:
    kernel_objects: int
    kernel_morphisms: int
    image_objects: int
    image_morphisms: int
    passed: bool


def strict_kernel_exactness(iota: TwoGroupHom, pi: TwoGroupHom) -> ExactnessRecord:
    """For a composable pair iota, pi of strict homomorphisms, compare
    image(iota) with kernel(pi) on objects and on morphisms, exactly; the
    laws of the pair are their ``violations``."""
    if iota.dst is not pi.src:
        raise InputError("homomorphisms are not composable")
    ker_obj, ker_mor = strict_kernel(pi)
    im_obj, im_mor = set(iota.obj_map.tolist()), set(iota.mor_map.tolist())
    return ExactnessRecord(len(ker_obj), len(ker_mor), len(im_obj), len(im_mor),
                           passed=im_obj == ker_obj and im_mor == ker_mor)


# ---------------------------------------------------------------------------
# standard exact sequences at finite scale
# ---------------------------------------------------------------------------

def quotient_group(G: FiniteGroup, members: list[int] | np.ndarray
                   ) -> tuple[FiniteGroup, np.ndarray]:
    """G / N for a normal subgroup given by its member list; returns the
    quotient, whose elements are the cosets numbered by least element, and
    the projection map."""
    # row g is the coset g N, sorted, so unique rows come in order of least element
    cosets, proj = np.unique(np.sort(G.table[:, members], axis=1), axis=0,
                             return_inverse=True)
    if not np.array_equal(np.sort(cosets, axis=None), np.arange(G.order)):
        raise InputError("member list does not induce a partition")
    if G.identity not in members:  # else g N need not contain g
        raise InputError("subgroup must contain the identity")
    reps = cosets[:, 0]
    return FiniteGroup(f"{G.name}/N", proj[G.table[np.ix_(reps, reps)]]), proj


def _identity_hom(grp: FiniteTwoGroup) -> TwoGroupHom:
    return TwoGroupHom(grp, grp, np.arange(grp.n_objects), np.arange(grp.n_morphisms),
                       name="identity")


def kernel_inclusion_pair(total: FiniteTwoGroup) -> tuple[TwoGroupHom, TwoGroupHom]:
    """The finite analogue of loops -> paths -> group: ``total``, the 2-group
    of a normal-subgroup inclusion N -> G (an ``inclusion_module``),
    projected onto the discrete quotient G / N; its strict kernel is the
    conjugation 2-group of N, included on objects by N -> G and on morphisms
    (n, h) -> (n, h)."""
    cm = total.cm
    q, proj = quotient_group(cm.G, cm.partial)
    discrete = FiniteTwoGroup(trivial_action_module(q, cyclic_group(1)))
    pi = TwoGroupHom(total, discrete, proj, proj[total.source], name="quotient")

    kernel = FiniteTwoGroup(conjugation_module(cm.H))
    n = cm.H.order
    mor_map = cm.partial[kernel.source] * n + np.arange(kernel.n_morphisms) % n
    iota = TwoGroupHom(kernel, total, cm.partial, mor_map, name="kernel-inclusion")
    return iota, pi


def indiscrete_collapse_pair(total: FiniteTwoGroup, point: FiniteTwoGroup
                             ) -> tuple[TwoGroupHom, TwoGroupHom]:
    """Identity into ``total``, the indiscrete 2-group of a
    ``conjugation_module``, followed by the collapse onto the one-object,
    one-morphism 2-group ``point``; the kernel of the collapse is everything."""
    pi = TwoGroupHom(total, point, np.zeros(total.n_objects, dtype=int),
                     np.zeros(total.n_morphisms, dtype=int), name="collapse")
    return _identity_hom(total), pi


def identity_kernel_pair(G: FiniteGroup, point: FiniteTwoGroup
                         ) -> tuple[TwoGroupHom, TwoGroupHom]:
    """The trivial 2-group ``point`` into the 2-group of conj[G] followed by
    its identity; the kernel of the identity is trivial."""
    total = FiniteTwoGroup(conjugation_module(G))
    iota = TwoGroupHom(point, total, np.array([total.cm.G.identity]),
                       np.array([total.mor_identity()]), name="unit")
    return iota, _identity_hom(total)
