"""Symmetries of a map as flag permutations.

A symmetry is a permutation of flags commuting with the three involutions.
The action is semiregular, so an element is pinned down by the image of
flag 0; a group is therefore in bijection with the set of images of flag 0,
and all group arithmetic here happens on those integer images.
"""

from __future__ import annotations

from dataclasses import dataclass
from math import gcd
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
    orbits,
    _KIND_GENERATORS,
    _normalize_kind,
    _require_map,
    _rotation_table,
    rotation_at_vertex,
)
from .errors import DegenerateParameters, GroupNotSubgroup
from .operators import _propagate


class SymGroup:
    """A group of map symmetries, stored as its images of flag 0.

    A symmetry commutes with r0, r1 and r2, and the flags are connected,
    so a symmetry g is pinned down by h = g(0): a flag reached from flag 0
    by a word w in the involutions goes to w applied to h.  A group is
    therefore its sorted images of flag 0; nothing is stored per element.
    Group arithmetic reads the words of a breadth-first tree of the flags
    from flag 0, memoized on the map (Schreier vectors: Holt, Eick and
    O'Brien, *Handbook of Computational Group Theory*, 2005, section 4.1;
    Seress, *Permutation Group Algorithms*, 2003).

    ``SymGroup(m, perms)`` is checked once, when built: each element must
    be a permutation of the flags given as ints, their images of flag 0
    must be closed under each of them, and each must commute with r0, r1
    and r2, or :class:`GroupNotSubgroup` is raised.  Only the images are kept.
    Groups returned by :func:`automorphism_group` and
    :meth:`subgroup_from_images` are symmetries by construction.
    """

    __slots__ = ("map", "_images", "_cache")

    def __init__(self, map: FlagMap, elements: Iterable[Perm]):
        _require_map(map)
        try:
            perms = {tuple(p) for p in elements}
        except TypeError:
            raise GroupNotSubgroup("the elements must be an iterable of flag sequences") from None
        if not perms:
            raise GroupNotSubgroup("a group needs at least the identity")
        flags = set(map.flags())
        ints = all(type(x) is int for p in perms for x in p)
        if not ints or any(len(p) != map.n_flags or set(p) != flags for p in perms):
            raise GroupNotSubgroup(
                f"an element is not a permutation of the {map.n_flags} flags as ints"
            )
        images = {p[0] for p in perms}
        if not all(images.issuperset(p[x] for x in images) for p in perms):
            raise GroupNotSubgroup(
                "the permutations are not closed: they send flag 0 to a flag "
                "that none of them has as its image"
            )
        if not _commutes_with_involutions(map, perms):
            raise GroupNotSubgroup("elements do not commute with the involutions")
        self.map = map
        self._images = tuple(sorted(images))
        self._cache = {}

    @classmethod
    def _of_symmetries(cls, m: FlagMap, images: tuple) -> "SymGroup":
        """A group of known symmetries, given by its sorted images."""
        G = cls.__new__(cls)
        G.map = m
        G._images = images
        G._cache = {}
        return G

    @property
    def order(self) -> int:
        return len(self._images)

    def images(self) -> tuple[int, ...]:
        """Images of flag 0, one per element, ascending."""
        return self._images

    def _image_set(self) -> frozenset:
        cache = self._cache
        if "image_set" not in cache:
            cache["image_set"] = frozenset(self._images)
        return cache["image_set"]

    def _apply(self, h: int, x: int) -> int:
        """Image of flag ``x`` under the element with image ``h``."""
        for r in _flag_words(self.map)[0][x]:
            h = r[h]
        return h

    def _inverse(self, f: int) -> int:
        """Image of the inverse of the element with image ``f``: the word of
        ``f`` read backwards."""
        words, _, inverse = _flag_words(self.map)
        if f not in inverse:
            x = 0
            for r in reversed(words[f]):
                x = r[x]
            inverse[f] = x
        return inverse[f]

    def subgroup_from_images(self, images: Iterable[int]) -> "SymGroup":
        """The subgroup with these images; :class:`GroupNotSubgroup` for an
        image outside the group or ``images`` that are no set of flag ids."""
        try:
            images = tuple(sorted(set(images)))
        except TypeError:
            raise GroupNotSubgroup(f"not a set of images of flag 0: {images!r}") from None
        if not self._image_set().issuperset(images):
            raise GroupNotSubgroup("an image of flag 0 lies outside the group")
        return SymGroup._of_symmetries(self.map, images)

    def generator_images(self) -> tuple[int, ...]:
        """An irredundant generating set, read off the group's own images.

        The images are walked involutions first, then by decreasing order,
        then ascending; each one that grows the orbit of flag 0 is kept,
        and a kept one that the others span is dropped again (see
        :func:`_generating_images`); orders (:func:`_orders`) are walked only
        when the involutions do not generate the group.  Nothing computed
        from a group depends on which generators it gets.
        """
        cache = self._cache
        if "gen_images" not in cache:
            span = {0}

            def candidates():  # lazy: it reads span as _generating_images grows it
                yield from (h for h in self._images if h not in span and self._apply(h, h) == 0)
                order = _orders(self)
                yield from sorted((h for h in self._images if order[h] > 2), key=lambda h: (-order[h], h))

            cache["gen_images"] = _generating_images(self, candidates(), span)[0]
        return cache["gen_images"]

    @property
    def generators(self) -> tuple[Perm, ...]:
        gens = tuple(_element(self.map, f) for f in self.generator_images())
        return gens if gens else (tuple(self.map.flags()),)

    def is_map_symmetry_group(self) -> bool:
        """Always true: a group is checked when built from permutations, and
        any other group is one of symmetries by construction."""
        return True

    def __str__(self):
        return f"SymGroup(order={self.order})"

    __repr__ = __str__


def _require_group(G, m=...) -> None:
    """Raise :class:`GroupNotSubgroup` unless ``G`` is a :class:`SymGroup`, and
    one of ``m`` (checked by :func:`_require_map`) when a map is passed."""
    if m is not ...:
        _require_map(m)
    if not isinstance(G, SymGroup):
        raise GroupNotSubgroup(f"not a symmetry group: {G!r}")
    if m is not ... and G.map is not m and G.map != m:
        raise GroupNotSubgroup("the group belongs to a different map")


def _commutes_with_involutions(m: FlagMap, elements: Iterable[Perm]) -> bool:
    rs = m.involutions()
    for p in elements:
        for r in rs:
            if any(p[r[f]] != r[p[f]] for f in m.flags()):
                return False
    return True


def _flag_words(m: FlagMap) -> tuple:
    """A breadth-first tree of the flags from flag 0, memoized on the map.

    ``(words, steps, inverse)``.  ``words[f]`` holds the involutions that
    carry flag 0 to ``f``, in the order they are applied; a symmetry with
    image h sends f to ``words[f]`` applied to h.  ``steps`` lists the tree
    edges ``(f, i, parent)``, ``f = r_i[parent]``, in breadth-first order.
    ``inverse`` is filled by :meth:`SymGroup._inverse`.
    """

    def build():
        m.require_valid()
        words = [None] * m.n_flags
        words[0] = ()
        steps = []
        queue = [0]
        for x in queue:
            for i, r in enumerate(m.involutions()):
                y = r[x]
                if words[y] is None:
                    words[y] = words[x] + (r,)
                    steps.append((y, i, x))
                    queue.append(y)
        return words, steps, {}

    return m._memo(("flag_words",), build)


def _element(m: FlagMap, h: int) -> Perm:
    """The symmetry with image ``h``, one tree edge per flag.

    Memoized on the map: subgroups share generators.
    """
    table = m._memo(("elements",), dict)
    if h not in table:
        rs = m.involutions()
        image = [h] * m.n_flags
        for y, i, x in _flag_words(m)[1]:
            image[y] = rs[i][image[x]]
        table[h] = tuple(image)
    return table[h]


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


def _generating_images(G: SymGroup, candidates: Iterable[int], span: set) -> tuple:
    """``(generators, span)`` for the images ``candidates`` of ``G``.

    The candidates are walked in order, and each one outside the orbit of
    flag 0 under those kept so far is kept; in a finite group that orbit
    is the generated subgroup, grown in ``span`` from ``{0}`` up to ``G``.
    A second pass, in the same order, drops each kept image that the
    other remaining ones already span, so no generator left is redundant.
    """
    m = G.map
    kept = []
    perms = []
    for f in candidates:
        if f not in span:
            kept.append(f)
            perms.append(_element(m, f))
            _close_orbit(span, perms, list(span))
            if len(span) == G.order:
                break
    for f in tuple(kept):
        others = [_element(m, g) for g in kept if g != f]
        if f in _close_orbit({0}, others, [0]):
            kept.remove(f)
    return tuple(kept), span


def _orders(G: SymGroup) -> dict:
    """Order of every element of ``G``, keyed by image; memoized on the map.

    The cycle 0, f, f^2, ... of the first element f of unknown order is
    walked, and every power f^k of an order-n element gets n / gcd(k, n).
    """
    order = G.map._memo(("orders",), dict)
    for f in G.images():
        if f not in order:
            cycle = _cycle(G, f)
            n = len(cycle)
            for k, y in enumerate(cycle):
                order[y] = n // gcd(k, n)
    return order


def _cycle(G: SymGroup, f: int) -> list:
    """Images of the powers of the element with image ``f``, in order."""
    cycle = [0]
    x = f
    while x:
        cycle.append(x)
        x = G._apply(f, x)
    return cycle


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
    group takes three propagations.  The group is the reached orbit of
    flag 0 with the generators found; no element is built.  Raises
    :class:`InvalidMapError` when ``m`` violates the map axioms.
    """
    _require_map(m)
    m.require_valid()

    def build():
        n = m.n_flags
        gens: list[Perm] = []
        reached = {0}
        dead: set = set()
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
        return SymGroup._of_symmetries(m, tuple(sorted(reached)))

    return m._memo(("aut",), build)


def is_reflexible(m: FlagMap) -> bool:
    """Whether the symmetry group is transitive on flags."""
    return automorphism_group(m).order == m.n_flags


def flag_orbit_index(G: SymGroup) -> tuple[int, ...]:
    """Array mapping each flag to the minimum flag of its G-orbit."""
    node = _node_of_flag(G)
    least = {}
    for f, x in enumerate(node):
        least.setdefault(x, f)
    return tuple(least[x] for x in node)


def orbits_on(G: SymGroup, what: str) -> tuple[tuple[int, ...], ...]:
    """Orbit partition of flags or of cells of one kind under ``G``.

    ``what`` is ``"flags"`` or a cell kind; cells are identified by their
    ids (least flags).  The orbits are classes of nodes of
    :func:`_orbit_graph` under the involutions that form the kind (none for
    flags), each listed ascending, in order of their least member.
    """
    _require_group(G)
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
        members, involutions = G.map.flags(), ()
    else:
        what = _normalize_kind(what)
        members, involutions = [c.id for c in cells(G.map, what)], _KIND_GENERATORS[what]
    rs = _orbit_graph(G)
    classes = orbits(len(rs[0]), [rs[i] for i in involutions])
    class_of = {node: k for k, part in enumerate(classes) for node in part}
    node = _node_of_flag(G)
    parts: dict = {}
    for c in members:
        parts.setdefault(class_of[node[c]], []).append(c)
    return tuple(map(tuple, parts.values()))


# ---------------------------------------------------------------------------
# subgroup enumeration
# ---------------------------------------------------------------------------


def subgroups_up_to_index(G: SymGroup, k: int) -> list[SymGroup]:
    """All subgroups of index at most ``k``, up to equality.

    A low-index coset-table search (Sims, *Computation with Finitely
    Presented Groups*, ch. 5).  Every element gets a coset label in
    ``0..k-1``, the identity ``0``, and the table ``coset x generator ->
    coset`` is filled while the Cayley-graph edges ``(x, g, x g)`` are
    scanned in breadth-first order; the group is concrete, so its Cayley
    graph stands in for the relators.  An open table entry branches over
    the cosets its generator does not hit yet, plus one new coset while
    fewer than ``k`` exist; a defined entry labels ``x g``, or prunes the
    branch when ``x g`` already carries another label.  Involutions'
    columns are filled in pairs, so their edges are scanned once.  Each
    completed scan gives the subgroup ``{x : label(x) = 0}``, whose index
    is the number of cosets used.  New cosets are numbered in order of
    first appearance, so every subgroup comes out exactly once.  Each
    subgroup keeps the coset table of its scan, the action of ``G``'s
    generators on its cosets, and its flag orbits are read off that table
    (:func:`_orbit_graph`), never off the flags.  A branch scans each Cayley
    edge at most once, so the cost is linear in |G| and needs no size limit.
    """
    _require_group(G)
    if not isinstance(k, int):
        raise DegenerateParameters(f"the index bound must be an int, got {k!r}")
    if k < 1:
        return []
    cache_key = ("subgroups", k)
    if cache_key in G._cache:
        return G._cache[cache_key]

    # which elements are labelled before an edge does not depend on the
    # branch, so backtracking only has to undo table entries
    edges = _cayley_edges(G)
    paired = [p[p[0]] == 0 for p in G.generators]
    label = [0] * G.map.n_flags
    table = [[None] * len(G.generators) for _ in range(k)]
    found = []

    def scan(e: int, n_cosets: int) -> None:
        for e in range(e, len(edges)):
            x, gi, y, first = edges[e]
            t = table[label[x]][gi]
            if t is None:
                break
            if first:
                label[y] = t
            elif label[y] != t:
                return
        else:
            H = SymGroup._of_symmetries(G.map, tuple(f for f in G.images() if label[f] == 0))
            H._cache["cosets"] = (G, tuple(map(tuple, table[:n_cosets])))
            found.append(H)
            return
        row = table[label[x]]
        # in a column filled in pairs, t is hit exactly when t's entry is set
        hit = {r[gi] for r in table[:n_cosets]}
        for t in range(min(n_cosets + 1, k)):
            if t not in hit:
                row[gi] = t
                if paired[gi]:
                    table[t][gi] = label[x]
                scan(e, max(n_cosets, t + 1))
                if paired[gi]:
                    table[t][gi] = None
        row[gi] = None

    scan(0, 1)
    found.sort(key=lambda H: (-H.order, H.images()))
    G._cache[cache_key] = found
    return found


def _cayley_edges(G: SymGroup) -> list[tuple]:
    """``(x, generator index, x g, first)`` per element x of ``G``, breadth-first
    from the identity, bar an involution's edge back to an element scanned
    before x; the edges marked ``first`` form a spanning tree.  Memoized."""
    if "cayley_edges" not in G._cache:
        gens = G.generators
        involution = [p[p[0]] == 0 for p in gens]
        G._cache["cayley_edges"] = edges = []
        place = {0: 0}  # element -> its place in the queue
        queue = [0]
        for i, x in enumerate(queue):
            for gi, p in enumerate(gens):
                y = p[x]
                if not involution[gi] or place.get(y, i) >= i:
                    edges.append((x, gi, y, y not in place))
                if y not in place:
                    place[y] = len(queue)
                    queue.append(y)
    return G._cache["cayley_edges"]


def _orbit_graph(H: SymGroup) -> tuple[list, list, list]:
    """r0, r1 and r2 on the flag orbits of ``H``: the symmetry type graph of
    the map under ``H`` (Orbanić, Pellicer and Weiss, *Map operations and
    k-orbit maps*, JCTA 2010), and the one place a group's orbits are
    worked out.  Memoized on ``H``.

    Node 0 holds flag 0, and each node |H| flags.  A subgroup of index k
    found by :func:`subgroups_up_to_index` in G reads the graph off its
    coset table: a flag e(f_o), e in G and f_o the least flag of its
    G-orbit o, lies in node ``o k + label(e^-1)``, and r_i sends node
    ``o k + c`` to ``o' k + label(b^-1 y_c)``, where ``r_i f_o = b(f_o')``
    and y_c is labelled c; the word of b^-1 (:func:`_voltages`) walks the
    table from c.  Other groups get their flag orbits under their
    generators, numbered by least flag.
    """
    cache = H._cache
    if "orbit_graph" in cache:
        return cache["orbit_graph"]
    if "cosets" in cache:
        G, cosets = cache["cosets"]
        rs = [[] for _ in range(3)]
        for r, moves in zip(rs, _voltages(G)):
            for o, word in moves:
                image = range(len(cosets))
                for gi in word:
                    image = [cosets[c][gi] for c in image]
                r.extend(o * len(cosets) + c for c in image)
    else:
        parts = orbits(H.map.n_flags, H.generators)
        node = [0] * H.map.n_flags
        for i, part in enumerate(parts):
            for f in part:
                node[f] = i
        rs = [[node[r[part[0]]] for part in parts] for r in H.map.involutions()]
    cache["orbit_graph"] = rs
    return rs


def _voltages(G: SymGroup) -> list[list]:
    """``(o', word of b^-1)`` per involution r_i and G-orbit o, where
    ``r_i f_o = b(f_o')`` (see :func:`_orbit_graph`); a word lists generator
    indices along the tree of :func:`_cayley_edges`, the first applied first
    (Gross and Tucker, *Topological Graph Theory*, 1987, ch. 2).  Memoized."""
    if "voltages" not in G._cache:
        orbit_of = flag_orbit_index(G)
        reps = sorted(set(orbit_of))
        parent = {y: (x, gi) for x, gi, y, first in _cayley_edges(G) if first}
        words = _flag_words(G.map)[0]
        G._cache["voltages"] = out = []
        for r in G.map.involutions():
            out.append([])
            for x in (r[rep] for rep in reps):
                # b^-1 sends x to f_o', so its image is the word of x, read
                # backwards, applied to f_o'
                h = orbit_of[x]
                for s in reversed(words[x]):
                    h = s[h]
                word = []
                while h:
                    h, gi = parent[h]
                    word.insert(0, gi)
                out[-1].append((reps.index(orbit_of[x]), word))
    return G._cache["voltages"]


def _orbit_classes(H: SymGroup, j: int, straight: bool) -> tuple[list, list]:
    """The H-orbits of darts and of j-corners, as classes of nodes of
    :func:`_orbit_graph`: under r2, and under r2 (r1 r2)^j, r1 first, which
    moves a flag to the flag of its corner on the other dart (and under r2
    for a straight corner)."""
    r0, r1, r2 = _orbit_graph(H)
    turn = range(len(r0))
    for _ in range(j):
        turn = [r2[r1[node]] for node in turn]
    return orbits(len(r0), [r2]), orbits(len(r0), [[r2[node] for node in turn]] + [r2] * straight)


def _node_of_flag(H: SymGroup) -> list[int]:
    """The node of :func:`_orbit_graph` of each flag, one lookup per flag."""
    rs = _orbit_graph(H)
    node = [0] * H.map.n_flags
    for y, i, x in _flag_words(H.map)[1]:
        node[y] = rs[i][node[x]]
    return node


# ---------------------------------------------------------------------------
# reflexibility families
# ---------------------------------------------------------------------------


def is_half_reflexible(m: FlagMap, G: SymGroup) -> bool:
    """Not flag-transitive, yet transitive on the flags of every face.

    The stabilizer of a face is transitive on that face's flags exactly
    when the face's flags lie in a single G-orbit, because cells are
    blocks of the action; that holds for every face exactly when r0 and
    r1, which generate the faces, fix every node of :func:`_orbit_graph`.
    """
    _require_group(G, m)
    r0, r1, _ = _orbit_graph(G)
    return len(r0) > 1 and all(r0[x] == x == r1[x] for x in range(len(r0)))


def is_face_reflexible(m: FlagMap) -> Optional[SymGroup]:
    """A half-reflexible subgroup of the symmetry group, or None.

    Such a group has two flag orbits, which properly 2-color the faces, so
    it is the whole symmetry group or, for a reflexible map, a subgroup of
    index 2: the subgroups of index at most 2 are scanned.  A connected
    map's proper face 2-coloring is unique up to swap, so at most one
    subgroup qualifies.
    """
    for H in subgroups_up_to_index(automorphism_group(m), 2):
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

    The permutations are read off :func:`_vertex_moves`, built once per map
    and vertex, keeping those whose image of flag 0 lies in ``G``.
    :class:`UnknownCell` for a ``v`` that is no vertex id.

    Tags: HD for the dihedral group of order q generated by the squared
    rotation and the odd reflections, HC for the squared-rotation cyclic
    group alone, QD for the order-q/2 dihedral group whose rotations are
    fourth powers and whose reflection offsets are odd.  Reflection
    offsets keep their parity under any renumbering of the rotation, so
    the tags do not depend on the choice of starting dart.
    """
    _require_group(G)
    m = G.map
    darts = rotation_at_vertex(m, v)
    q = len(darts)
    moves = m._memo(("local_moves", v), _vertex_moves, m, v)
    kept = {moves[h] for h in G._image_set().intersection(moves)}
    perms = tuple(sorted(sigma for sigma, _, _, _ in kept))
    rotations = {s for _, s, rotation, _ in kept if rotation}
    reflections = {s for _, s, _, reflection in kept if reflection}

    tag = OTHER
    if q % 2 == 0 and rotations == set(range(0, q, 2)):
        if reflections == set(range(1, q, 2)):
            tag = HD
        elif not reflections:
            tag = HC
    elif q % 4 == 0 and rotations == set(range(0, q, 4)):
        if reflections in ({f for f in range(q) if f % 4 == k} for k in (1, 3)):
            tag = QD
    return LocalAction(v, darts, perms, tag)


def _vertex_moves(m: FlagMap, v: int) -> dict:
    """``{h: (sigma, s, rotation, reflection)}`` over the 2q flags x at ``v``:
    h is the image of flag 0 under the symmetry sending v to x, which moves
    the rotation positions by sigma, the rotation ``i -> i + s`` for an x of
    the walk from v, else the reflection ``i -> s - i`` (for q <= 2 both)."""
    flags, darts, _ = _rotation_table(m)[v]
    q = len(darts)
    pos = {d: i for i, d in enumerate(darts)}
    dart_of = m.cell_index(DART)
    word = _flag_words(m)[0][v]
    shared = m._memo(("local_sigmas",), dict)
    moves = {}
    for x in flags + tuple(m.r1[f] for f in flags):
        h = x
        for r in reversed(word):
            h = r[h]
        sigma = []
        for _ in range(q):
            sigma.append(pos[dart_of[x]])
            x = m.r2[m.r1[x]]
        sigma = tuple(sigma)
        if sigma not in shared:
            s = sigma[0]
            rotation = all(sigma[i] == (i + s) % q for i in range(q))
            shared[sigma] = (sigma, s, rotation, all(sigma[i] == (s - i) % q for i in range(q)))
        moves[h] = shared[sigma]
    return moves
