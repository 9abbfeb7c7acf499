"""Symmetries of a map as flag permutations.

A symmetry is a permutation of flags commuting with the three involutions.
The action is semiregular, so an element is pinned down by the image of
flag 0; a group is therefore in bijection with the set of images of flag 0,
and all group arithmetic here happens on those integer images.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass, field
from typing import Iterable, Optional

from .core import (
    CELL_KINDS,
    DART,
    EDGE,
    FACE,
    VERTEX,
    WEDGE,
    FlagMap,
    Perm,
    cells,
    face_bipartition,
    orbits,
    _rotation_table,
)
from .errors import GroupNotSubgroup, GroupTooLarge, UnknownCell
from .operators import _propagate


@dataclass(frozen=True, eq=False)
class SymGroup:
    """A group of map symmetries, materialized as an element list.

    Elements are sorted lexicographically, which for a semiregular action
    coincides with sorting by the image of flag 0.  Group arithmetic works
    from generators and cosets on those images: subgroups are spanned from
    generator images, and stabilizers come from orbits and Schreier
    generators rather than from a scan of every element.

    Whether the elements are map symmetries is checked once per group and
    memoized.  Groups returned by :func:`automorphism_group` are symmetries
    by construction, and :meth:`subgroup_from_images` passes that on, so
    only groups built directly from permutations pay for the full check.
    """

    map: FlagMap
    elements: tuple[Perm, ...]
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        elems = tuple(sorted(set(tuple(p) for p in self.elements)))
        if not elems:
            raise GroupNotSubgroup("a group needs at least the identity")
        object.__setattr__(self, "elements", elems)

    @property
    def order(self) -> int:
        return len(self.elements)

    def images(self) -> tuple[int, ...]:
        """Images of flag 0, one per element, ascending."""
        return tuple(p[0] for p in self.elements)

    def _by_image(self) -> dict:
        cache = self._cache
        if "by_image" not in cache:
            cache["by_image"] = {p[0]: p for p in self.elements}
        return cache["by_image"]

    def element_with_image(self, f: int) -> Perm:
        return self._by_image()[f]

    def __contains__(self, perm) -> bool:
        p = tuple(perm)
        e = self._by_image().get(p[0])
        return e == p

    def mul_images(self, f: int, h: int) -> int:
        """Image of the product (element with image f, then the one with h)."""
        return self._by_image()[h][f]

    def inv_image(self, f: int) -> int:
        cache = self._cache
        if "inv" not in cache:
            cache["inv"] = {p[0]: p.index(0) for p in self.elements}
        return cache["inv"][f]

    def subgroup_from_images(self, images: Iterable[int]) -> "SymGroup":
        by = self._by_image()
        sub = SymGroup(self.map, tuple(by[f] for f in sorted(set(images))))
        if self._cache.get("is_sym"):
            sub._cache["is_sym"] = True
        return sub

    def generator_images(self) -> tuple[int, ...]:
        """A small generating set, found by greedy orbit growth."""
        cache = self._cache
        if "gen_images" not in cache:
            cache["gen_images"] = _greedy_generator_images(self)
        return cache["gen_images"]

    @property
    def generators(self) -> tuple[Perm, ...]:
        by = self._by_image()
        gens = tuple(by[f] for f in self.generator_images())
        return gens if gens else (self.elements[0],)

    def is_map_symmetry_group(self) -> bool:
        """Whether every element commutes with r0, r1 and r2 (memoized)."""
        cache = self._cache
        if "is_sym" not in cache:
            cache["is_sym"] = _commutes_with_involutions(self.map, self.elements)
        return cache["is_sym"]

    def __str__(self):
        return f"SymGroup(order={self.order})"


def _commutes_with_involutions(m: FlagMap, elements: Iterable[Perm]) -> bool:
    rs = m.involutions()
    for p in elements:
        for r in rs:
            if any(p[r[f]] != r[p[f]] for f in m.flags()):
                return False
    return True


def _span_images(G: SymGroup, gen_images: Iterable[int], start=(0,)) -> set:
    """Images of the subgroup generated by ``gen_images``.

    The orbit of flag 0 under right multiplication by the generators; in a
    finite group that is the whole generated subgroup.  ``start`` may hold
    the images of a subgroup already known to lie inside the result.
    """
    by = G._by_image()
    perms = [by[f] for f in set(gen_images)]
    reached = set(start)
    frontier = list(reached)
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def _greedy_generator_images(G: SymGroup) -> tuple[int, ...]:
    """Generators chosen one at a time by the key (-growth, involution, image).

    The growth of <R, f> over the reached subgroup R is the same for every
    f in the double coset R f R, so it is computed once per double coset.
    """
    by = G._by_image()
    inv = G.inv_image
    gens: list[int] = []
    reached = {0}
    while len(reached) < G.order:
        seen = set(reached)
        best_key = None
        for f in G.images():
            if f in seen:
                continue
            # R f R: close {f} under multiplication by R's generators on
            # either side
            coset = [f]
            seen.add(f)
            for x in coset:
                px = by[x]
                for g in gens:
                    for y in (by[g][x], px[g]):
                        if y not in seen:
                            seen.add(y)
                            coset.append(y)
            grown = _span_images(G, gens + [f], reached)
            # larger growth first, involutions preferred, then smallest image
            key = min((-len(grown), 0 if inv(h) == h else 1, h) for h in coset)
            if best_key is None or key < best_key:
                best_key, best_grown = key, grown
        gens.append(best_key[2])
        reached = best_grown
    return tuple(gens)


def automorphism_group(m: FlagMap) -> SymGroup:
    """All flag permutations commuting with the three involutions.

    Each flag is tried as the image of flag 0 and propagated along the
    involutions; the successful propagations are exactly the symmetries,
    so the group is marked as checked.  Raises :class:`InvalidMapError`
    when ``m`` violates the map axioms.
    """
    m.require_valid()

    def build():
        elems = []
        for target in range(m.n_flags):
            phi = _propagate(m, m, target)
            if phi is not None:
                elems.append(phi)
        G = SymGroup(m, tuple(elems))
        G._cache["is_sym"] = True
        return G

    return m._memo(("aut",), build)


def is_reflexible(m: FlagMap) -> bool:
    """Whether the symmetry group is transitive on flags."""
    return automorphism_group(m).order == m.n_flags


def flag_orbit_index(G: SymGroup) -> tuple[int, ...]:
    """Array mapping each flag to the minimum flag of its G-orbit."""
    cache = G._cache
    if "flag_orbits" not in cache:
        parts = orbits(G.map.n_flags, G.generators)
        index = [0] * G.map.n_flags
        for part in parts:
            for f in part:
                index[f] = part[0]
        cache["flag_orbits"] = tuple(index)
    return cache["flag_orbits"]


def orbits_on(G: SymGroup, what: str) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of flags or of cells of one kind under ``G``.

    ``what`` is ``"flags"`` or a cell kind; cells are identified by their
    ids and the induced action sends a cell to the cell of its image flag.
    """
    aliases = {
        "flags": "flags",
        "flag": "flags",
        "vertices": VERTEX,
        "edges": EDGE,
        "faces": FACE,
        "darts": DART,
        "wedges": WEDGE,
    }
    what = aliases.get(str(what).lower(), str(what).lower())
    if what == "flags":
        parts = orbits(G.map.n_flags, G.generators)
        return tuple(tuple(p) for p in parts)
    if what not in CELL_KINDS:
        raise ValueError(f"unknown orbit domain {what!r}")
    index = G.map.cell_index(what)
    ids = sorted(c.id for c in cells(G.map, what))
    id_pos = {c: i for i, c in enumerate(ids)}
    perms = []
    for g in G.generators:
        perms.append(tuple(id_pos[index[g[c]]] for c in ids))
    parts = orbits(len(ids), perms)
    return tuple(tuple(ids[i] for i in part) for part in parts)


def is_transitive_on(G: SymGroup, what: str) -> bool:
    return len(orbits_on(G, what)) == 1


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------


def subgroups_up_to_index(
    G: SymGroup, k: int, element_bound: int = 20000
) -> list[SymGroup]:
    """All subgroups of index at most ``k``, up to equality.

    Index 2 subgroups are kernels of homomorphisms onto a group of order
    two and are read off the quotient modulo squares and commutators.
    Larger indices come from enumerating the coset actions: every index-d
    subgroup is the point stabilizer of a transitive homomorphism into the
    symmetric group on d points.
    """
    if G.order > element_bound:
        raise GroupTooLarge(
            f"group of order {G.order} exceeds the bound {element_bound}; "
            "supply generators or raise the bound"
        )
    if k < 1:
        return []
    cache_key = ("subgroups", k)
    if cache_key in G._cache:
        return G._cache[cache_key]

    found = {frozenset(G.images())}
    if k >= 2:
        for sub in _index_two_image_sets(G):
            found.add(sub)
    for d in range(3, k + 1):
        if G.order % d != 0:
            continue
        for sub in _stabilizers_of_degree(G, d):
            found.add(sub)
    out = [G.subgroup_from_images(s) for s in sorted(found, key=sorted)]
    out.sort(key=lambda H: (-H.order, H.images()))
    G._cache[cache_key] = out
    return out


def _index_two_image_sets(G: SymGroup) -> list[frozenset]:
    images = G.images()
    mul = G.mul_images
    inv = G.inv_image
    # G^2, the kernel of the largest elementary abelian 2-quotient, is the
    # normal closure of the generators' squares and commutators
    gens = G.generator_images()
    normal_gens = [mul(a, a) for a in gens]
    normal_gens += [mul(mul(inv(a), inv(b)), mul(a, b)) for a in gens for b in gens]
    N = _span_images(G, normal_gens)
    pending = list(normal_gens)
    while pending:
        x = pending.pop()
        for a in gens:
            y = mul(mul(inv(a), x), a)
            if y not in N:
                normal_gens.append(y)
                pending.append(y)
                N = _span_images(G, normal_gens, N)
    if len(N) == len(images):
        return []
    # cosets of N form an elementary abelian 2-group
    coset_of = {}
    reps = []
    for f in images:
        if f in coset_of:
            continue
        rep = len(reps)
        reps.append(f)
        for nimg in N:
            coset_of[mul(nimg, f)] = rep
    r = 0
    basis = []
    coords = {0: 0}  # coset rep index -> bitvector
    for rep in range(len(reps)):
        if rep in coords:
            continue
        basis.append(rep)
        bit = 1 << r
        r += 1
        for known, vec in list(coords.items()):
            combined = coset_of[mul(reps[known], reps[rep])]
            coords[combined] = vec | bit
    subs = []
    for chi in range(1, 1 << r):
        keep = {
            f
            for f in images
            if bin(coords[coset_of[f]] & chi).count("1") % 2 == 0
        }
        subs.append(frozenset(keep))
    return subs


def _perm_order_image(G: SymGroup, f: int) -> int:
    o = 1
    x = f
    while x != 0:
        x = G.mul_images(x, f)
        o += 1
    return o


_SYM_CACHE: dict = {}


def _symmetric_group(d: int):
    if d not in _SYM_CACHE:
        elems = [tuple(p) for p in itertools.permutations(range(d))]
        index = {p: i for i, p in enumerate(elems)}
        table = [
            [index[tuple(q[p[i]] for i in range(d))] for q in elems] for p in elems
        ]
        orders = []
        for p in elems:
            o = 1
            x = p
            ident = tuple(range(d))
            while x != ident:
                x = tuple(p[x[i]] for i in range(d))
                o += 1
            orders.append(o)
        _SYM_CACHE[d] = (elems, index, table, orders)
    return _SYM_CACHE[d]


def _stabilizers_of_degree(G: SymGroup, d: int) -> list[frozenset]:
    """Point stabilizers of all transitive homomorphisms G -> Sym(d)."""
    images = G.images()
    n = len(images)
    pos = {f: i for i, f in enumerate(images)}
    gen_images = G.generator_images()
    m = len(gen_images)
    if m == 0:
        return []
    if m > 4:
        raise GroupTooLarge(
            f"generating set of size {m} makes degree-{d} coset search too wide"
        )
    by = G._by_image()
    gen_perms = [by[f] for f in gen_images]

    # BFS factorization of every element as (parent element, generator)
    parent = [-1] * n
    via = [-1] * n
    order_of_visit = []
    seen = [False] * n
    seen[pos[0]] = True
    order_of_visit.append(pos[0])
    queue = [0]
    while queue:
        f = queue.pop(0)
        for gi, gp in enumerate(gen_perms):
            h = gp[f]  # right-multiply by generator gi
            hp = pos[h]
            if not seen[hp]:
                seen[hp] = True
                parent[hp] = pos[f]
                via[hp] = gi
                order_of_visit.append(hp)
                queue.append(h)

    sd_elems, sd_index, sd_table, sd_orders = _symmetric_group(d)
    identity_idx = sd_index[tuple(range(d))]
    candidates = []
    for f in gen_images:
        o = _perm_order_image(G, f)
        candidates.append([i for i, po in enumerate(sd_orders) if o % po == 0])

    # image of right-multiplication by each generator, in element positions
    mulgen = [[pos[gp[f]] for f in images] for gp in gen_perms]

    stabs = []
    phi = [-1] * n
    for assignment in itertools.product(*candidates):
        for i in range(n):
            phi[i] = -1
        phi[pos[0]] = identity_idx
        ok = True
        for ep in order_of_visit[1:]:
            phi[ep] = sd_table[phi[parent[ep]]][assignment[via[ep]]]
        for ep in order_of_visit:
            row = sd_table[phi[ep]]
            for gi in range(m):
                if phi[mulgen[gi][ep]] != row[assignment[gi]]:
                    ok = False
                    break
            if not ok:
                break
        if not ok:
            continue
        # transitivity of the image on the d points
        reached = {0}
        frontier = [0]
        while frontier:
            x = frontier.pop()
            for gi in range(m):
                y = sd_elems[assignment[gi]][x]
                if y not in reached:
                    reached.add(y)
                    frontier.append(y)
        if len(reached) != d:
            continue
        stab = frozenset(
            images[i] for i in range(n) if sd_elems[phi[i]][0] == 0
        )
        stabs.append(stab)
    return stabs


# ---------------------------------------------------------------------------
# reflexibility families
# ---------------------------------------------------------------------------


def is_half_reflexible(m: FlagMap, G: SymGroup) -> bool:
    """Not flag-transitive, yet transitive on the flags of every face.

    The stabilizer of a face is transitive on that face's flags exactly
    when the face's flags lie in a single G-orbit, because cells are
    blocks of the action.
    """
    if G.order == m.n_flags:
        return False
    orbit_of = flag_orbit_index(G)
    for face in cells(m, FACE):
        first = orbit_of[face.flags[0]]
        if any(orbit_of[f] != first for f in face.flags):
            return False
    return True


def is_face_reflexible(m: FlagMap) -> Optional[SymGroup]:
    """A half-reflexible subgroup of the symmetry group, or None.

    For a reflexible map this is the subgroup preserving the two face
    color classes, which exists exactly when the map is face-bipartite.
    Otherwise all subgroups of index at most 2 are scanned.
    """
    A = automorphism_group(m)
    if A.order == m.n_flags:
        coloring = face_bipartition(m)
        if coloring is None:
            return None
        face_of = m.cell_index(FACE)
        f0 = cells(m, FACE)[0].id
        keep = [g[0] for g in A.elements if coloring[face_of[g[f0]]] == coloring[f0]]
        G = A.subgroup_from_images(keep)
        if is_half_reflexible(m, G):
            return G
        return None
    for H in subgroups_up_to_index(A, 2):
        if is_half_reflexible(m, H):
            return H
    return None


# ---------------------------------------------------------------------------
# local actions
# ---------------------------------------------------------------------------

HD = "HD"
HC = "HC"
QD = "QD"
OTHER = "Other"


@dataclass(frozen=True)
class LocalAction:
    """The vertex stabilizer as permutations of the rotation positions."""

    vertex: int
    rotation: tuple[int, ...]
    permutations: tuple[Perm, ...]
    tag: str


def local_action_group(G: SymGroup, v: int) -> LocalAction:
    """Stabilizer of ``v`` acting on the dart positions around it.

    Tags: HD for the dihedral group of order q generated by the squared
    rotation and the odd reflections, HC for the squared-rotation cyclic
    group alone, QD for the order-q/2 dihedral group whose rotations are
    fourth powers and whose reflection offsets are odd.  Reflection
    offsets keep their parity under any renumbering of the rotation, so
    the tags do not depend on the choice of starting dart.
    """
    m = G.map
    table = _rotation_table(m)
    if v not in table:
        raise UnknownCell(f"no vertex cell with id {v}")
    flags, darts, _ = table[v]
    q = len(darts)
    pos = {d: i for i, d in enumerate(darts)}
    vertex_of = m.cell_index(VERTEX)
    dart_of = m.cell_index(DART)

    perms = []
    for g in G.elements:
        if vertex_of[g[v]] != v:
            continue
        sigma = tuple(pos[dart_of[g[f]]] for f in flags)
        perms.append(sigma)
    perms = tuple(sorted(set(perms)))

    rotations = set()
    reflections = set()
    unknown = False
    for sigma in perms:
        matched = False
        for s in range(q):
            if all(sigma[i] == (i + s) % q for i in range(q)):
                rotations.add(s)
                matched = True
        for f in range(q):
            if all(sigma[i] == (f - i) % q for i in range(q)):
                reflections.add(f)
                matched = True
        if not matched:
            unknown = True

    tag = OTHER
    if not unknown and q % 2 == 0:
        evens = set(range(0, q, 2))
        odds = set(range(1, q, 2))
        if rotations == evens and reflections == odds:
            tag = HD
        elif rotations == evens and not reflections:
            tag = HC
        elif q % 4 == 0:
            quarters = set(range(0, q, 4))
            ones = {f for f in range(q) if f % 4 == 1}
            threes = {f for f in range(q) if f % 4 == 3}
            if rotations == quarters and reflections in (ones, threes):
                tag = QD
    return LocalAction(v, darts, perms, tag)
