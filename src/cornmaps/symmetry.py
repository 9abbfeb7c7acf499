"""Symmetries of a map as flag permutations.

A symmetry is a permutation of flags commuting with the three involutions.
The action is semiregular, so an element is pinned down by the image of
flag 0; a group is therefore in bijection with the set of images of flag 0,
and all group arithmetic here happens on those integer images.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from operator import itemgetter
from typing import Iterable, Optional

from .core import (
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
    _normalize_kind,
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


def _close_orbit(orbit: set, perms, frontier: list) -> set:
    """Grow ``orbit`` by everything ``perms`` reach from ``frontier``."""
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in orbit:
                orbit.add(y)
                frontier.append(y)
    return orbit


def _span_images(G: SymGroup, gen_images: Iterable[int], start=(0,)) -> set:
    """Images of the subgroup generated by ``gen_images``.

    The orbit of flag 0 under right multiplication by the generators; in a
    finite group that is the whole generated subgroup.  ``start`` may hold
    the images of a subgroup already known to lie inside the result.
    """
    by = G._by_image()
    perms = [by[f] for f in set(gen_images)]
    return _close_orbit(set(start), perms, list(start))


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

    Found by orbit growth over generators (Holt, Eick and O'Brien,
    *Handbook of Computational Group Theory*, 2005, section 4.1).  A flag is
    tried as the image of flag 0, by propagation along the involutions,
    only while it is undecided: outside the orbit of flag 0 under the
    symmetries found so far, and outside the orbits, under those, of the
    flags that already failed.  The flags that succeed are the orbit of
    flag 0 under the whole group, a union of orbits of any subgroup, so
    each success is a new generator that grows the orbit of flag 0, and
    each failure rules out its whole orbit.  A torus with a flag-transitive
    group takes three propagations.  The elements are then closed
    breadth-first from the identity, one product per new image of flag 0.
    The group is marked as checked.  Raises :class:`InvalidMapError` when
    ``m`` violates the map axioms.
    """
    m.require_valid()

    def build():
        n = m.n_flags
        gens: list[Perm] = []
        reached = {0}
        dead: set = set()
        # targets start at 1, so generators exist only for n >= 2; an
        # itemgetter over a single index would return an int, not a tuple
        for target in range(1, n):
            if target in reached or target in dead:
                continue
            phi = _propagate(m, m, target)
            if phi is None:
                dead.add(target)
                _close_orbit(dead, gens, [target])
            else:
                gens.append(phi)
                _close_orbit(reached, gens, list(reached))
        products = [(g[0], itemgetter(*g)) for g in gens]
        identity = tuple(range(n))
        seen = {0}
        elems = [identity]
        for e in elems:
            for g0, times_g in products:
                f = e[g0]
                if f not in seen:
                    seen.add(f)
                    elems.append(times_g(e))
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
    what = aliases.get(str(what).lower(), what)
    if what == "flags":
        parts = orbits(G.map.n_flags, G.generators)
        return tuple(tuple(p) for p in parts)
    what = _normalize_kind(what)
    index = G.map.cell_index(what)
    ids = sorted(c.id for c in cells(G.map, what))
    id_pos = {c: i for i, c in enumerate(ids)}
    perms = []
    for g in G.generators:
        perms.append(tuple(id_pos[index[g[c]]] for c in ids))
    parts = orbits(len(ids), perms)
    return tuple(tuple(ids[i] for i in part) for part in parts)


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------


def subgroups_up_to_index(
    G: SymGroup, k: int, element_bound: int = 20000
) -> list[SymGroup]:
    """All subgroups of index at most ``k``, up to equality.

    A low-index coset-table search (Sims, *Computation with Finitely
    Presented Groups*, ch. 5).  Every element gets a coset label in
    ``0..k-1``, the identity ``0``, and the table ``coset x generator ->
    coset`` is filled while the Cayley-graph edges ``(x, g, x g)`` are
    scanned in breadth-first order; the group is concrete, so its Cayley
    graph stands in for the relators.  An open table entry branches over
    the cosets its generator does not hit yet, plus one new coset while
    fewer than ``k`` exist; a defined entry labels ``x g``, or prunes the
    branch when ``x g`` already carries another label.  Each completed
    scan gives the subgroup ``{x : label(x) = 0}``, whose index is the
    number of cosets used.  New cosets are numbered in order of first
    appearance, so every subgroup comes out exactly once.
    """
    if G.order > element_bound:
        raise GroupTooLarge(
            f"group of order {G.order} exceeds the bound {element_bound}; "
            "raise element_bound (--element-bound of corn enumerate and verify)"
        )
    if k < 1:
        return []
    cache_key = ("subgroups", k)
    if cache_key in G._cache:
        return G._cache[cache_key]

    by = G._by_image()
    gens = [by[f] for f in G.generator_images()]
    # (x, generator, x g, whether this edge reaches x g first), in BFS order;
    # which elements are labelled before an edge does not depend on the
    # branch, so backtracking only has to undo table entries
    edges = []
    reached = {0}
    queue = [0]
    for x in queue:
        for gi, p in enumerate(gens):
            y = p[x]
            edges.append((x, gi, y, y not in reached))
            if y not in reached:
                reached.add(y)
                queue.append(y)
    label = [0] * G.map.n_flags
    table = [[None] * len(gens) for _ in range(k)]
    found = []

    def scan(e: int, n_cosets: int) -> None:
        while e < len(edges):
            x, gi, y, first = edges[e]
            t = table[label[x]][gi]
            if t is None:
                break
            if first:
                label[y] = t
            elif label[y] != t:
                return
            e += 1
        else:
            found.append([f for f in queue if label[f] == 0])
            return
        row = table[label[x]]
        hit = {r[gi] for r in table[:n_cosets]}
        for t in range(min(n_cosets + 1, k)):
            if t not in hit:
                row[gi] = t
                scan(e, max(n_cosets, t + 1))
        row[gi] = None

    scan(0, 1)
    out = [G.subgroup_from_images(images) for images in found]
    out.sort(key=lambda H: (-H.order, H.images()))
    G._cache[cache_key] = out
    return out


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
