"""Corners, cornerations, their circuits, local analysis and enumeration.

A corner is an unordered pair of darts at a common vertex on distinct
edges; a corneration is a set of corners covering every dart exactly once.
Corners are canonically encoded as ``(vertex id, sorted dart pair)`` and
compared by that encoding alone; everything else is derived data.
"""

from __future__ import annotations

import itertools
from typing import Collection, Iterable, Iterator, NamedTuple, Optional, Sequence, Union

from .core import (
    DART,
    EDGE,
    FACE,
    VERTEX,
    Circuit,
    FlagMap,
    _Frozen,
    _set,
    cells,
    face_boundary_wedges,
    orbits,
    _face_adjacency,
    other_dart,
    _require_map,
    uniform_valence,
    rotation_at_vertex,
    _rotation_table,
)
from .errors import (
    CircuitTooShort,
    CornerationMismatch,
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidCircuits,
    InvalidCorner,
    NoHalfReflexiveGroup,
    NonUniformValence,
    NotWedgeCorneration,
    StraightCornerHasNoSide,
    StraightHasNoComplement,
    UnknownCell,
    WidthMismatch,
    WidthOutOfRange,
)
from .operators import OperatorResult, petrie
from .symmetry import (
    SymGroup,
    automorphism_group,
    is_face_reflexible,
    subgroups_up_to_index,
    _generating_images,
    _node_of_flag,
    _orbit_classes,
    _orbit_graph,
    _require_group,
)

CONVEX = "Convex"
INFLECTION = "Inflection"
NOT_ALIGNED = "NotAligned"

STANDARD_ODD = "StandardOdd"
STANDARD_EVEN = "StandardEven"
OTHER_LOCAL = "Other"


class Corner(_Frozen):
    """A j-corner: two darts at one vertex, ``j`` wedges on its short side.

    ``interior_wedges`` is empty exactly for straight corners (both sides
    of the vertex rotation have the same length, so no side is canonical);
    ``boundary_wedges`` are the up-to-four wedges containing either dart.
    """

    __slots__ = ("vertex", "darts", "width", "straight", "interior_wedges", "boundary_wedges")

    def __init__(
        self,
        vertex: int,
        darts: tuple[int, int],
        width: int,
        straight: bool,
        interior_wedges: frozenset,
        boundary_wedges: frozenset,
    ):
        _set(self, "vertex", vertex)
        _set(self, "darts", darts)
        _set(self, "width", width)
        _set(self, "straight", straight)
        _set(self, "interior_wedges", interior_wedges)
        _set(self, "boundary_wedges", boundary_wedges)

    @property
    def interior_boundary_wedges(self) -> frozenset:
        return self.boundary_wedges & self.interior_wedges

    @property
    def exterior_boundary_wedges(self) -> frozenset:
        return self.boundary_wedges - self.interior_wedges

    def key(self) -> tuple:
        return (self.vertex, self.darts)

    _key = key  # equality and hash read the key alone

    def __str__(self):
        return f"corner(v={self.vertex}, darts={self.darts}, j={self.width})"


def corner_from_darts(m: FlagMap, darts: Sequence[int]) -> Corner:
    """The corner of ``m`` spanned by two darts at a common vertex.

    It is the corner of the pair's number (:func:`_corner_numbering`),
    built on its first read, so requests in either order return one
    object, which is safe to share as corners are frozen.  Raises
    :class:`InvalidCorner` for anything but a pair and for darts that span
    no corner, and :class:`UnknownCell` for an id that is not a dart of ``m``.
    """
    n = _pair_number(m, darts)
    return _corner_numbering(m)[4][n] or _decode(m, (n,))[0]


def _pair_number(m: FlagMap, darts: Sequence[int]) -> int:
    """The number of the corner on ``darts`` in ``m``'s :func:`_corner_numbering`,
    building none: the one check of a dart pair, raising as :func:`corner_from_darts`
    does for darts that span no corner."""
    first, rank, keys, spans, _ = _corner_numbering(m)
    try:
        d1, d2 = darts
    except (TypeError, ValueError):
        raise InvalidCorner(f"a corner needs a pair of darts, got {darts!r}") from None
    if not (isinstance(d1, int) and isinstance(d2, int)):
        bad = d2 if isinstance(d1, int) else d1
        raise UnknownCell(f"no dart cell with id {bad!r}")
    a, b = (d1, d2) if d1 < d2 else (d2, d1)
    n = first[a] + rank[b] if 0 <= a and b < m.n_flags else -1
    if 0 <= n < len(keys) and keys[n][1] == (a, b) and spans[n][1]:  # a number is one pair's
        return n
    dart_of = m.cell_index(DART)
    for d in (d1, d2):
        if not (0 <= d < m.n_flags and dart_of[d] == d):
            raise UnknownCell(f"no dart cell with id {d}")
    if d1 == d2:
        raise InvalidCorner("a corner needs two distinct darts")
    vertex_of = m.cell_index(VERTEX)
    if vertex_of[d1] != vertex_of[d2]:
        raise InvalidCorner(f"darts {d1} and {d2} do not share a vertex")
    raise InvalidCorner(f"darts {d1} and {d2} lie on the same edge")  # its span has width 0


def _corner_numbering(m: FlagMap) -> tuple[list, list, list, list, list]:
    """``(first, rank, keys, spans, table)``: the corners of ``m`` numbered in key order.

    The pairs of distinct darts at a vertex, vertex by vertex and then in
    ascending order, follow :meth:`Corner.key`; pair ``(a, b)``, ``a < b``,
    is number ``first[a] + rank[b]``, ``rank`` being a dart's position
    among the sorted darts at its vertex.  ``keys`` lists the keys
    ``(vertex, (a, b))`` by number; ``spans`` their spans ``(start, width)``,
    the short side running ``width`` wedges round the vertex rotation
    (:func:`~cornmaps.core.rotation_at_vertex`) from position ``start``, the
    lower of a straight corner's two, and ``width`` 0 for the two darts of a
    loop, which span no corner; and ``table`` their corners, each None until
    :func:`_decode` builds it.  Memoized on ``m``.
    """
    try:  # read the memo directly: a corner lookup reads it twice
        return m._cache[("corner_numbers",)]
    except KeyError:
        return m._memo(("corner_numbers",), _number_corners, m)
    except AttributeError:  # no map, as in :func:`~cornmaps.core.rotation_at_vertex`
        _require_map(m)
        raise


def _number_corners(m: FlagMap) -> tuple[list, list, list, list, list]:
    first = [0] * m.n_flags
    rank = [0] * m.n_flags
    keys, spans = [], []
    edge_of = m.cell_index(EDGE)
    for v, (_, rotation, _) in _rotation_table(m).items():
        q = len(rotation)
        positions = sorted(range(q), key=rotation.__getitem__)  # by dart
        for i, p in enumerate(positions):
            d = rotation[p]
            rank[d] = i
            first[d] = len(keys) - i - 1
            for r in positions[i + 1 :]:
                keys.append((v, (d, rotation[r])))
                s = (r - p) % q  # wedges from p round to r; q - s from r round to p
                width, start = min((s, p), (q - s, r))  # a tie, straight: the lower start
                spans.append((start, width if edge_of[d] != edge_of[rotation[r]] else 0))
    return first, rank, keys, spans, [None] * len(keys)


def _decode(m: FlagMap, numbers: Iterable[int]) -> list[Corner]:
    """The corners of ``m`` with these numbers, each built on its first read
    from its key and span: the only place a :class:`Corner` is built."""
    _, _, keys, spans, table = _corner_numbering(m)

    def build(n: int) -> Corner:
        ((interior, boundary),) = _sides(m, (n,))
        v, darts = keys[n]
        interior = frozenset(interior)
        table[n] = Corner(v, darts, spans[n][1], not interior, interior, frozenset(boundary))
        return table[n]

    return [table[n] or build(n) for n in numbers]


def _sides(m: FlagMap, numbers: Iterable[int]) -> Iterator[tuple[tuple, tuple]]:
    """``(interior, boundary)`` of each corner number, read off its span: the
    wedges of its short side, none if it is straight, and the four wedges
    next to either of its darts (fewer distinct ones at a small valence)."""
    _, _, keys, spans, _ = _corner_numbering(m)
    rotations = _rotation_table(m)
    for n in numbers:
        wedges = rotations[keys[n][0]][2]
        start, width = spans[n]
        end, q = start + width, len(wedges)  # the darts sit at start and end, mod q
        interior = (wedges + wedges)[start:end] if 2 * width < q else ()
        yield interior, (wedges[start - 1], wedges[start], wedges[end - 1 - q], wedges[end - q])


def corner_of_wedge(m: FlagMap, wedge_id: int) -> Corner:
    """The 1-corner spanned by the two flags of a wedge cell.

    Raises :class:`UnknownCell` for an id that is not a wedge of ``m``.
    """
    # a wedge cell is the r1-orbit {f, r1 f}, and its id is the smaller flag
    _require_map(m)
    if not (
        isinstance(wedge_id, int) and 0 <= wedge_id < m.n_flags and wedge_id <= m.r1[wedge_id]
    ):
        raise UnknownCell(f"no wedge cell with id {wedge_id!r}")
    dart_of = m.cell_index(DART)
    return corner_from_darts(m, (dart_of[wedge_id], dart_of[m.r1[wedge_id]]))


def all_j_corners(m: FlagMap, j: int) -> list[Corner]:
    """Every corner of width exactly ``j``, in canonical order."""
    _require_map(m)
    if not (isinstance(j, int) and j >= 1):
        raise WidthOutOfRange(f"corner width must be at least 1, got {j!r}")
    return _decode(m, _corner_flags(m, j))


def _corner_flags(m: FlagMap, j: int) -> dict[int, int]:
    """The number of each j-corner, in ascending order, to the flag starting
    its span, from which j turns (r1, r2) reach its other dart; memoized.
    :class:`WidthOutOfRange` if ``j`` exceeds half the valence at a vertex."""

    def build():
        _, _, keys, spans, _ = _corner_numbering(m)
        rotations = _rotation_table(m)
        q, v = min((len(darts), v) for v, (_, darts, _) in rotations.items())
        if j > q // 2:
            raise WidthOutOfRange(f"width {j} exceeds half the valence {q} at vertex {v}")
        pairs = enumerate(zip(keys, spans))
        return {n: rotations[v][0][start] for n, ((v, _), (start, width)) in pairs if width == j}

    return m._memo(("corner_flags", j), build)


def _width_masks(m: FlagMap) -> dict[int, int]:
    """Per width, the :class:`Corneration` int of all corners of ``m`` of
    that width, read off their spans; memoized."""

    def build():
        widths = [width for _, width in _corner_numbering(m)[3]]
        return {  # width 0 is a loop's two darts, no corner
            j: _mask_of(m, (n for n, w in enumerate(widths) if w == j)) for j in set(widths) if j
        }

    return m._memo(("width_masks",), build)


def _interior_flag_on_dart(m: FlagMap, c: Corner, dart: int) -> int:
    """The flag of ``c``'s interior-boundary wedge lying on ``dart``."""
    if c.straight:
        raise StraightCornerHasNoSide(f"{c} has no interior side")
    if dart not in c.darts:
        raise InvalidCorner(f"dart {dart} is not part of {c}")
    dart_of = m.cell_index(DART)
    for w in c.interior_boundary_wedges:
        for f in (w, m.r1[w]):
            if dart_of[f] == dart:
                return f
    raise InternalInvariantError("interior boundary wedge misses its own dart")


def alignment(m: FlagMap, c1: Corner, c2: Corner) -> str:
    """Convex, Inflection or NotAligned for two corners of equal width.

    Convex means the interior sides of the two corners agree along a
    shared edge; straight corners have no side and never align.  Corners
    sharing two edges only align if both edges agree on the verdict.
    """
    c1, c2 = _corner_items((c1, c2))
    if c1.width != c2.width:
        raise WidthMismatch("alignment is defined for corners of equal width")
    if c1.straight or c2.straight or c1.vertex == c2.vertex:
        return NOT_ALIGNED
    edge_of = m.cell_index(EDGE)
    shared = {edge_of[d] for d in c1.darts} & {edge_of[d] for d in c2.darts}
    if not shared:
        return NOT_ALIGNED
    verdicts = set()
    for e in shared:
        d1 = next(d for d in c1.darts if edge_of[d] == e)
        d2 = next(d for d in c2.darts if edge_of[d] == e)
        f1 = _interior_flag_on_dart(m, c1, d1)
        f2 = _interior_flag_on_dart(m, c2, d2)
        verdicts.add(CONVEX if m.r0[f1] == f2 else INFLECTION)
    if len(verdicts) == 1:
        return verdicts.pop()
    return NOT_ALIGNED


class CoverReport(NamedTuple):
    ok: bool
    witness: Optional[int]
    reason: Optional[str]


def is_corneration(m: FlagMap, corners: Iterable[Corner]) -> CoverReport:
    """Whether the corners cover every dart of ``m`` exactly once;
    :class:`InvalidCorner` for an item that is no :class:`Corner`."""
    _require_map(m)
    return _dart_cover(m, (c.key() for c in _corner_items(corners)))


def _dart_cover(m: FlagMap, keys: Iterable[tuple]) -> CoverReport:
    """:func:`is_corneration` of the corners with these keys."""
    count = dict.fromkeys(m._memo(("dart_ids",), lambda: [c.id for c in cells(m, DART)]), 0)
    for _, darts in keys:
        for d in darts:
            if d not in count:
                return CoverReport(False, d, "not a dart of the map")
            count[d] += 1
    for d in count:  # the darts come in ascending id order
        if count[d] == 0:
            return CoverReport(False, d, "uncovered dart")
        if count[d] > 1:
            return CoverReport(False, d, f"dart covered {count[d]} times")
    return CoverReport(True, None, None)


def _require_cover(
    m: FlagMap, numbers: Collection[int], error=CornerationMismatch, what="not a corneration"
):
    """Raise ``error`` unless the corners with these numbers, a repeated one counted
    twice, cover every dart of ``m`` exactly once; read off keys, building no corner."""
    keys = _corner_numbering(m)[2]
    darts = [d for n in numbers for d in keys[n][1]]
    if len(set(darts)) == len(darts) == len(cells(m, DART)):  # all of m's darts, none twice
        return
    report = _dart_cover(m, map(keys.__getitem__, numbers))
    if not report.ok:
        raise error(f"{what}: {report.reason} at dart {report.witness}")


def _corner_items(corners: Iterable[Corner]):
    """The items of ``corners``; :class:`InvalidCorner` for one that is no
    :class:`Corner`, or for ``corners`` that is no iterable."""
    try:
        corners = iter(corners)
    except TypeError:
        raise InvalidCorner(f"not a corner set: {corners!r}") from None
    for c in corners:
        if not isinstance(c, Corner):
            raise InvalidCorner(f"not a corner: {c!r}")
        yield c


def _corner_numbers(m: FlagMap, corners: Iterable[Corner]) -> list[int]:
    """The number (:func:`_corner_numbering`) of each of ``corners`` in ``m``;
    :class:`InvalidCorner` or :class:`UnknownCell` for one that is not a
    corner of ``m``, and :class:`InvalidCorner` as :func:`_corner_items` raises it."""
    first, rank, keys, _, table = _corner_numbering(m)
    out = []
    for c in _corner_items(corners):
        try:  # a number is only one key's, that of two darts at one vertex
            n = first[c.darts[0]] + rank[c.darts[1]]
            own = table[n] is c or keys[n] == (c.vertex, c.darts)
        except (IndexError, TypeError):
            own = False
        if not own:
            _pair_number(m, c.darts)  # raises for darts that span no corner
            raise InvalidCorner(f"{c} is not a corner of the map")
        out.append(n)
    return out


def _mask_of(m: FlagMap, numbers: Iterable[int]) -> int:
    """The :class:`Corneration` int of the corners of ``m`` with these numbers,
    read from its binary digits in one pass, as :meth:`Corneration._digits` writes them."""
    digits = bytearray(b"0" * (len(_corner_numbering(m)[2]) + 1))  # a leading 0: int(b"") fails
    for n in numbers:
        digits[n + 1] = 49  # ord("1"), the digit of corner n
    return int(digits, 2)


_BINARY_DIGITS = bytes.maketrans(b"01", b"\0\1")


class Corneration:
    """A dart-exact set of corners of one map, stored as one int.

    Bit ``n-1-i`` is set for the corner numbered ``i`` of the map's ``n``
    (:func:`_corner_numbering`), so the first corner in key order holds the
    highest bit.  All cornerations of a map have #darts/2 corners, so of
    two of them the larger int has the smaller :meth:`key`.  :attr:`corners`,
    a frozenset of the map's own corners, is decoded when read; the map keeps the last.
    ``Corneration(m, corners)`` is checked once, when built: it raises
    :class:`CornerationMismatch` for an item that is not a corner of ``m`` and
    for corners that leave a dart uncovered or cover one twice (a corner
    listed twice counts once).  Its readers trust it to be a cover.
    """

    __slots__ = ("map", "_mask")  # an enumeration holds tens of thousands

    def __init__(self, map: FlagMap, corners: Iterable[Corner]):
        try:
            numbers = set(_corner_numbers(map, corners))
        except (AttributeError, InvalidCorner, UnknownCell) as exc:
            raise CornerationMismatch(f"not a corner of the map: {exc.args[0]}") from None
        _require_cover(map, numbers)
        self.map, self._mask = map, _mask_of(map, numbers)

    def __eq__(self, other):
        return isinstance(other, Corneration) and self._mask == other._mask and self.map == other.map

    def __hash__(self):
        return hash(self._mask)

    @property
    def corners(self) -> frozenset:
        cache = self.map._cache  # not in the split-graph state: K's corners keep L's
        held, corners = cache.get("corners", (None, None))
        if held != self._mask:
            cache["corners"] = (self._mask, corners := frozenset(self.sorted_corners()))
        return corners

    @property
    def width(self) -> Optional[int]:
        """The uniform width, or None for a mixed corneration."""
        mask = self._mask  # the width whose corners hold all of L's
        widths = _width_masks(self.map).items()
        return next((j for j, all_j in widths if mask and mask | all_j == all_j), None)

    def _digits(self) -> bytes:
        n = len(_corner_numbering(self.map)[2])
        # byte i, of the n-digit binary form, is bit n-1-i: 1 for corner number i
        return format(self._mask, f"0{n}b").encode().translate(_BINARY_DIGITS)

    def _numbers(self) -> Iterable[int]:
        """The numbers of the corners, ascending."""
        return itertools.compress(itertools.count(), self._digits())

    def _keys(self) -> list[tuple]:
        """The keys of the corners, in order, building no corner."""
        keys = _corner_numbering(self.map)[2]
        return [keys[n] for n in self._numbers()]

    def sorted_corners(self) -> list[Corner]:
        return _decode(self.map, self._numbers())

    def key(self) -> tuple:
        return tuple(self._keys())

    def _by_dart(self) -> dict[int, tuple[int, int]]:
        """Each dart's corner as its dart pair, building no corner; kept in the
        map's one-entry state, so a walk over the darts reads it once."""
        return _one_entry(
            self.map._cache,
            self._mask,
            "by_dart",
            lambda: {dart: darts for _, darts in self._keys() for dart in darts},
        )

    def corner_of_dart(self, d: int) -> Corner:
        """The corner holding dart ``d``; :class:`UnknownCell` if none does."""
        try:
            darts = self._by_dart()[d]
        except (KeyError, TypeError):
            raise UnknownCell(f"no corner of the corneration holds dart {d!r}") from None
        return corner_from_darts(self.map, darts)

    def in_wedges(self) -> frozenset:
        """Wedge ids of the corners, defined for width-1 cornerations."""
        if self.width != 1:
            raise NotWedgeCorneration("in-wedges exist only for width-1 cornerations")
        return frozenset(w for interior, _ in _sides(self.map, self._numbers()) for w in interior)

    def __len__(self):
        return self._mask.bit_count()

    def __iter__(self):
        return iter(self.sorted_corners())

    def __str__(self):
        j = self.width
        return f"corneration<{len(self)} corners, width {'mixed' if j is None else j}>"


def _cornerations(m: FlagMap, masks: Iterable[int]) -> list[Corneration]:
    """The cornerations of ``m`` with these ints, unchecked, built in one loop."""
    new, out = Corneration.__new__, []
    for mask in masks:
        L = new(Corneration)
        L.map, L._mask = m, mask
        out.append(L)
    return out


def _corneration_from(
    m: FlagMap, numbers: Iterable[int], error=CornerationMismatch, what="not a corneration"
) -> Corneration:
    """The :class:`Corneration` of ``m`` with the corners of these numbers, checked
    by :func:`_require_cover`; it builds no corner."""
    numbers = list(numbers)
    _require_cover(m, numbers, error, what)
    return _cornerations(m, [_mask_of(m, numbers)])[0]


def _require_corneration(L) -> None:
    """Raise :class:`CornerationMismatch` unless ``L`` is a :class:`Corneration`."""
    if not isinstance(L, Corneration):
        raise CornerationMismatch(f"not a corneration: {L!r}")


class CircuitDecomposition(_Frozen):
    """A partition of the edge set into circuits."""

    __slots__ = ("circuits",)

    def __init__(self, circuits: tuple[Circuit, ...]):
        _set(self, "circuits", circuits)

    def __len__(self):
        return len(self.circuits)


def circuits_of(L: Corneration) -> CircuitDecomposition:
    """The circuit decomposition traced by following corners dart to dart.

    From a dart, the corner covering it selects the continuing edge; the
    walk continues from that edge's far end.  Every circuit is traced by
    two opposite dart cycles, and the reverse of a cycle is the other dart
    of each of its corners.  Each circuit is walked once, from the least
    dart not yet walked, so it starts at its least dart, and circuits come
    in ascending order of their first dart.
    """
    _require_corneration(L)
    m = L.map
    edge_of = m.cell_index(EDGE)
    by_dart = L._by_dart()

    def partner(d: int) -> int:
        a, b = by_dart[d]
        return b if d == a else a

    walked = set()
    circuits = []
    for start in sorted(c.id for c in cells(m, DART)):
        if start in walked:
            continue
        cycle = [start]
        d = other_dart(m, partner(start))
        while d != start:
            cycle.append(d)
            d = other_dart(m, partner(d))
        edges = frozenset(edge_of[d] for d in cycle)
        if len(edges) != len(cycle):
            raise InternalInvariantError("corner chain revisited an edge")
        walked.update(cycle)
        walked.update(map(partner, cycle))
        circuits.append(Circuit(darts=tuple(cycle), edges=edges))
    return CircuitDecomposition(tuple(circuits))


def corneration_of(m: FlagMap, decomposition) -> Corneration:
    """The corners read off consecutive edge-vertex-edge triples of circuits.

    Accepts a :class:`CircuitDecomposition` or an iterable of circuits.
    The circuits must be closed walks with pairwise distinct edges whose
    edge sets partition the edges of ``m``.
    """
    _require_map(m)
    if isinstance(decomposition, CircuitDecomposition):
        circuits = decomposition.circuits
    else:
        try:
            circuits = tuple(decomposition)
        except TypeError:
            raise InvalidCircuits(f"not a circuit decomposition: {decomposition!r}") from None
    if not all(isinstance(c, Circuit) for c in circuits):
        raise InvalidCircuits("an item of the decomposition is not a Circuit")
    vertex_of = m.cell_index(VERTEX)
    edge_of = m.cell_index(EDGE)
    covered = set()
    numbers = []
    for circuit in circuits:
        ds = circuit.darts
        k = len(ds)
        if k < 2:
            raise CircuitTooShort("a circuit in a loopless graph has at least 2 edges")
        edges = [edge_of[d] for d in ds]
        if len(set(edges)) != k:
            raise InvalidCircuits("circuit repeats an edge")
        for e in edges:
            if e in covered:
                raise InvalidCircuits(f"edge {e} appears in two circuits")
            covered.add(e)
        for i in range(k):
            d_here = ds[i]
            d_next_far = ds[(i + 1) % k]
            d_next_near = other_dart(m, d_next_far)
            if vertex_of[d_next_near] != vertex_of[d_here]:
                raise InvalidCircuits("consecutive circuit edges do not share a vertex")
            numbers.append(_pair_number(m, (d_here, d_next_near)))
    if covered != {c.id for c in cells(m, EDGE)}:
        raise InvalidCircuits("circuits do not cover every edge")
    return _corneration_from(m, numbers, InternalInvariantError, "circuit corners")


def j_complement(L: Corneration) -> Corneration:
    """All corners of the same width not in ``L``; again a corneration."""
    _require_corneration(L)
    j = L.width
    if j is None:
        raise WidthMismatch("the complement needs a uniform corneration")
    q = uniform_valence(L.map)
    if q is None:
        raise NonUniformValence("the complement needs a uniform valence")
    if 2 * j == q:
        raise StraightHasNoComplement("straight cornerations have no width complement")
    # every corner of L is a j-corner, so the complement flips L's bits
    m = L.map
    K = _cornerations(m, [_width_masks(m)[j] ^ L._mask])[0]
    if not _dart_cover(m, K._keys()).ok:
        raise InternalInvariantError("width complement failed to cover darts")
    return K


class LocalCorneration(NamedTuple):
    """The corners of a corneration at one vertex, up to renumbering.

    ``pairs`` lists the corner dart positions in the canonical rotation.
    ``classification`` names the standard local corneration the pairs are
    equivalent to (over all 2q numberings), if any; straight local
    cornerations are reported as Other with the flag set.
    """

    vertex: int
    pairs: tuple[tuple[int, int], ...]
    classification: str
    straight: bool


def local_corneration(L: Corneration, v: int) -> LocalCorneration:
    """The corners of ``L`` at vertex ``v``, read off its darts there.
    :class:`CornerationMismatch` for a non-corneration, :class:`WidthMismatch`
    for a mixed one and :class:`UnknownCell` for a ``v`` that is no vertex."""
    _require_corneration(L)
    j = L.width
    if j is None:
        raise WidthMismatch("local classification needs a uniform corneration")
    rotation = rotation_at_vertex(L.map, v)
    q = len(rotation)
    pos = {d: i for i, d in enumerate(rotation)}
    darts = set(map(L._by_dart().__getitem__, rotation))  # each corner's, twice
    pairs = tuple(sorted(tuple(sorted((pos[a], pos[b]))) for a, b in darts))
    if 2 * j == q:
        return LocalCorneration(v, pairs, OTHER_LOCAL, True)

    # standard when, read from some start s, the first dart of each pair (the
    # one +j carries to the other) sits on the target; read backwards they
    # are mirrored, and each target is a rotation of its mirror image
    firsts = {a if (b - a) % q == j else b for a, b in pairs}
    starts = {frozenset((p - s) % q for p in firsts) for s in range(q)}
    classification = OTHER_LOCAL
    if frozenset(range(0, q, 2)) in starts:
        classification = STANDARD_ODD
    elif q % 4 == 0 and frozenset(i for i in range(q) if i % 4 in (0, 3)) in starts:
        classification = STANDARD_EVEN
    return LocalCorneration(v, pairs, classification, False)


# ---------------------------------------------------------------------------
# face patterns of wedge cornerations
# ---------------------------------------------------------------------------

PATTERN_TILES = {
    "A": (True,),
    "E": (False,),
    "B": (True, False),
    "C": (True, True, False),
    "D": (True, True, False, False),
}


class FacePatternReport(NamedTuple):
    per_face: dict
    configuration: Optional[int]

    @property
    def letters(self) -> frozenset:
        return frozenset(self.per_face.values())


def _matches_tile(seq: Sequence[bool], tile: Sequence[bool]) -> bool:
    t = len(tile)
    if len(seq) % t != 0:
        return False
    return any(
        all(seq[i] == tile[(i + r) % t] for i in range(len(seq))) for r in range(t)
    )


def face_patterns(L: Corneration) -> FacePatternReport:
    """Per-face in-wedge patterns of a width-1 corneration.

    Patterns: A all wedges in, B alternating, C two in one out, D two in
    two out, E all out; anything else is reported as "Other".  The global
    configuration (1) bipartite A/E, (2) all B, (3) C with E, (4) all D
    follows the classification of faces meeting a transitive corneration.
    """
    _require_corneration(L)
    m = L.map
    if L.width != 1:
        raise NotWedgeCorneration("face patterns are defined for width-1 cornerations")
    inw = L.in_wedges()
    per_face = {}
    for face in cells(m, FACE):
        seq = [w in inw for w in face_boundary_wedges(m, face.id)]
        if all(seq):
            letter = "A"
        elif not any(seq):
            letter = "E"
        else:
            letter = next((x for x in "BCD" if _matches_tile(seq, PATTERN_TILES[x])), "Other")
        per_face[face.id] = letter

    letters = set(per_face.values())
    neighbors = _face_adjacency(m)

    configuration = None
    if letters == {"A", "E"}:
        proper = all(
            per_face[a] != per_face[b] for a in neighbors for b in neighbors[a]
        )
        if proper:
            configuration = 1
    elif letters == {"B"}:
        configuration = 2
    elif letters == {"C", "E"}:
        e_ok = all(
            per_face[b] == "C"
            for a in neighbors
            if per_face[a] == "E"
            for b in neighbors[a]
        )
        c_ok = all(
            {per_face[b] for b in neighbors[a]} == {"C", "E"}
            for a in neighbors
            if per_face[a] == "C"
        )
        if e_ok and c_ok:
            configuration = 3
    elif letters == {"D"}:
        configuration = 4
    return FacePatternReport(per_face, configuration)


# ---------------------------------------------------------------------------
# enumeration
# ---------------------------------------------------------------------------


def _pair_action(G: SymGroup) -> tuple[list, ...]:
    """Per generator g of ``G``, a list from each pair number of :func:`_corner_numbering`
    to the number of its image: pair ``(a, b)`` goes to the darts of ``g[a]`` and ``g[b]``.
    The only group action on corners.  Memoized on the group, and each list on the
    map by the generator's image of flag 0."""
    if "pair_action" not in G._cache:
        m = G.map
        first, rank, keys, _, _ = _corner_numbering(m)
        dart_of = m.cell_index(DART)
        tables = m._memo(("pair_action",), dict)
        todo = [g for g in G.generators if g[0] not in tables]
        for g in todo:
            moved = ((dart_of[g[a]], dart_of[g[b]]) for _, (a, b) in keys)
            tables[g[0]] = [first[x] + rank[y] if x < y else first[y] + rank[x] for x, y in moved]
        G._cache["pair_action"] = tuple(tables[g[0]] for g in G.generators)
    return G._cache["pair_action"]


def _require_width(m: FlagMap, j) -> int:
    """The uniform valence q of ``m``, unless it is mixed or ``j`` is no int
    in ``1..q // 2`` (:class:`NonUniformValence`, :class:`WidthOutOfRange`)."""
    _require_map(m)
    q = uniform_valence(m)
    if q is None:
        raise NonUniformValence("corneration enumeration needs a uniform valence")
    if not (isinstance(j, int) and 1 <= j <= q // 2):
        raise WidthOutOfRange(f"width must satisfy 1 <= j <= {q // 2}, got {j!r}")
    return q


def enumerate_invariant_cornerations(
    m: FlagMap, H: SymGroup, j: int
) -> list[Corneration]:
    """All j-uniform cornerations invariant under ``H``, in key order.

    Exact cover on orbits: rows are H-orbits of j-corners, columns are
    H-orbits of darts, both classes of nodes of the quotient of the flags
    by ``H`` (:func:`_orbit_classes`); a row covers each column a constant
    number of times, and a corneration is a row selection covering every
    column exactly once.  A corner's two darts lie at one vertex, so each
    H-orbit of vertices is a block of rows and columns of its own, solved
    once by :func:`_exact_cover`; the cornerations are the product of the
    blocks' covers.  Only then are flags looked up, to give each row the
    :class:`Corneration` bits of its corners; the bits of a product are the
    sum of its blocks', and descending ints are ascending
    :meth:`Corneration.key`.  Blocks multiply least significant first, so
    the sort mostly meets the product as one run.
    """
    _require_group(H, m)
    return _cornerations(m, _invariant_covers(m, H, j)[0])


def _invariant_covers(m: FlagMap, H: SymGroup, j: int) -> tuple[list[int], set, int]:
    """The masks of :func:`enumerate_invariant_cornerations`, those that are
    one row, and the number of columns."""
    q = _require_width(m, j)
    if q % 2 != 0:
        return [], set(), 0
    dart_orbits, corner_orbits, vertex_orbits = _orbit_classes(H, j, 2 * j == q)
    col_of = {node: col for col, orbit in enumerate(dart_orbits) for node in orbit}
    block_of = {node: b for b, orbit in enumerate(vertex_orbits) for node in orbit}
    columns = [sum({1 << col_of[node] for node in orbit}) for orbit in vertex_orbits]
    # a node has |H| flags, each on one dart of its corner, and a column
    # |H| / 2 darts per node; a straight corner has two flags per dart
    per_node = 1 if 2 * j == q else 2
    row_orbits, blocks = [], [{} for _ in vertex_orbits]  # a block's rows: number -> columns
    for orbit in corner_orbits:
        cover = {}
        for node in orbit:
            cover[col_of[node]] = cover.get(col_of[node], 0) + per_node
        if any(total > len(dart_orbits[col]) for col, total in cover.items()):
            continue
        if any(total < len(dart_orbits[col]) for col, total in cover.items()):
            raise InternalInvariantError("orbit coverage is not constant on a dart orbit")
        blocks[block_of[orbit[0]]][len(row_orbits)] = sum(1 << col for col in cover)
        row_orbits.append(orbit)

    covers = [_exact_cover(rows, cols) for rows, cols in zip(blocks, columns)]
    if not all(covers):
        return [], set(), len(dart_orbits)
    row_of = {node: ri for ri, orbit in enumerate(row_orbits) for node in orbit}
    numbers = [[] for _ in row_orbits]
    node_of = _node_of_flag(H)
    for number, f in _corner_flags(m, j).items():
        if node_of[f] in row_of:
            numbers[row_of[node_of[f]]].append(number)
    row_masks = [_mask_of(m, row) for row in numbers]
    keys = (sorted((sum(map(row_masks.__getitem__, s)) for s in c), reverse=True) for c in covers)
    # least significant block first, neighbours paired as in a balanced tree with the
    # more significant varying slowest: only the last level makes an addition per result
    level = sorted(keys, key=lambda block: block[0])
    while len(level) > 1:  # an odd one out, the most significant block, waits a level
        pairs = zip(level[::2], level[1::2])
        level[: len(level) & ~1] = [[hi + lo for hi in high for lo in low] for low, high in pairs]
    level[0].sort(reverse=True)
    one_row = {row_masks[s[0]] for s in covers[0] if len(s) == 1} if len(covers) == 1 else set()
    return level[0], one_row, len(dart_orbits)


def _exact_cover(rows: dict[int, int], columns: int) -> list[tuple[int, ...]]:
    """Every selection of rows covering each column exactly once.

    A row is its number and the int whose bits are its columns, and
    ``columns`` is the int of the columns to cover.  A plain backtracking
    search that branches on the lowest open column: the enumeration runs
    it once per vertex orbit, whose block has at most q rows and q columns.
    """
    solutions = []

    def search(covered: int, chosen: tuple[int, ...]) -> None:
        if covered == columns:
            solutions.append(chosen)
            return
        low = columns & ~covered
        low &= -low
        for ri, cols in rows.items():
            if cols & low and not cols & covered:
                search(covered | cols, chosen + (ri,))

    search(0, ())
    return solutions


def corner_orbits(G: SymGroup, corners: Iterable[Corner]) -> list[list[Corner]]:
    """Orbit partition of a corner set under the induced action of ``G``.

    Raises :class:`GroupDoesNotPreserveCorneration` when ``G`` moves a
    corner out of the set, or for a corner of another map;
    :class:`InvalidCorner` for an item that is no :class:`Corner`.
    """
    _require_group(G)
    pool = sorted({c.darts: c for c in _corner_items(corners)}.values(), key=Corner.key)
    try:
        numbers = _corner_numbers(G.map, pool)
    except (InvalidCorner, UnknownCell):
        raise GroupDoesNotPreserveCorneration("a corner is not one of the group's map") from None
    return [[pool[i] for i in orbit] for orbit in orbits(len(pool), _corner_perms(G, numbers))]


def _corner_perms(G: SymGroup, numbers: Sequence[int]) -> list[list[int]]:
    """Per generator of ``G``, the positions in ``numbers`` of its images.

    ``numbers`` are distinct corner numbers of ``G``'s map.  Raises
    :class:`GroupDoesNotPreserveCorneration` when ``G`` moves one off the list.
    """
    pos = {n: i for i, n in enumerate(numbers)}
    try:
        return [[pos[table[n]] for n in numbers] for table in _pair_action(G)]
    except KeyError:
        raise GroupDoesNotPreserveCorneration(
            "the corner set is not invariant under the group"
        ) from None


def _one_entry(cache: dict, mask: int, key, producer, *args):
    """``producer(*args)``, kept in ``cache`` for the corneration ``mask`` until another's
    replaces it: callers walk one corneration at a time, so one entry keeps memory flat."""
    held, state = cache.get("one_entry", (None, None))
    if held != mask:
        cache["one_entry"] = (mask, state := {})
    if key not in state:
        state[key] = producer(*args)
    return state[key]


def _base_perms(G: SymGroup, L: Corneration) -> tuple[list[list[int]], bool]:
    """:func:`_corner_perms` of ``L``'s corners under ``G``, and whether ``G``
    is transitive on them; kept on ``G`` for the last ``L``."""

    def build():
        perms = _corner_perms(G, list(L._numbers()))
        return perms, len(orbits(len(L), perms)) == 1

    return _one_entry(G._cache, L._mask, "perms", build)


def corneration_stabilizer(A: SymGroup, L: Corneration) -> SymGroup:
    """The setwise stabilizer of ``L`` inside the group ``A``, from the orbit
    walk of :func:`_orbit_and_stabilizer`: its cost follows the orbit length
    and the stabilizer order, not |A|, and ``L`` need not be invariant under
    any part of ``A``.  :class:`CornerationMismatch` for a non-corneration,
    :class:`GroupNotSubgroup` for one of another map."""
    return _orbit_and_stabilizer(A, L)[1]


def _orbit_and_stabilizer(A: SymGroup, L: Corneration) -> tuple[list[int], SymGroup]:
    """``(orbit, stabilizer)``: the masks of L's images under ``A``, L's first,
    and Stab_A(L).  The orbit of L's corner numbers under one pair table per
    generator (:func:`_pair_action`) is walked with a transversal, and the
    Schreier generators span the stabilizer."""
    _require_corneration(L)
    _require_group(A, L.map)
    gens = list(zip(A.generators, _pair_action(A)))
    start = frozenset(L._numbers())
    transversal = {start: 0}  # number set -> image of an element sending L to it
    orbit = [start]
    schreier = set()
    for numbers in orbit:
        t = transversal[numbers]
        for g, table in gens:
            moved = frozenset(map(table.__getitem__, numbers))
            st = g[t]  # t then g sends L to moved; undoing moved's t fixes L
            if moved not in transversal:
                transversal[moved] = st
                orbit.append(moved)
            elif transversal[moved] != st:  # else the identity; both images lie in A
                schreier.add(A._apply(A._inverse(transversal[moved]), st))
    masks = [_mask_of(L.map, numbers) for numbers in orbit]
    return masks, A.subgroup_from_images(_generating_images(A, schreier, {0})[1])


def is_transitive_on_corners(G: SymGroup, L: Corneration) -> bool:
    """Whether ``G`` has one orbit on the corners of ``L``, read off its mask.

    Raises :class:`GroupDoesNotPreserveCorneration` when ``G`` moves ``L``
    or ``L`` belongs to another map.
    """
    _require_group(G)
    _require_corneration(L)
    if L.map is not G.map and L.map != G.map:  # its numbers are another map's
        raise GroupDoesNotPreserveCorneration("the corneration belongs to a different map")
    return _base_perms(G, L)[1]


class TransitiveCornerationRecord(_Frozen):
    __slots__ = ("corneration", "aut", "transitive", "symmetric")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __init__(self, corneration: Corneration, aut: SymGroup, transitive: bool, symmetric: bool):
        _set(self, "corneration", corneration)
        _set(self, "aut", aut)
        _set(self, "transitive", transitive)
        _set(self, "symmetric", symmetric)


def enumerate_transitive_cornerations(m: FlagMap, j: int) -> list[TransitiveCornerationRecord]:
    """Every j-corneration invariant under a subgroup of index at most 4.

    A corneration has #darts / 2 = #flags / 4 corners, and Aut acts
    semiregularly on the flags, so a group transitive on its corners has
    order at least |Aut| / 4.  Every transitive corneration is therefore
    invariant under a subgroup of index at most 4 (its stabilizer), and
    sweeping those subgroups finds all of them.  Each distinct corneration
    is returned once with its setwise stabilizer and transitivity flags
    (transitive on its corners, transitive on all darts).  The valence and
    width are checked before any search.
    """
    _require_width(m, j)
    A = automorphism_group(m)
    found: dict = {}
    # the subgroups come by decreasing order, and every H that leaves L
    # invariant lies in Stab(L), itself of index <= 4 and listed:
    # so the first H to yield L is its stabilizer
    for H in subgroups_up_to_index(A, 4):
        masks, one_row, n_dart_orbits = _invariant_covers(m, H, j)
        for mask in masks:
            if mask not in found:
                transitive = mask in one_row
                found[mask] = (H, transitive, transitive and n_dart_orbits == 1)
    # descending masks are ascending keys, and no duplicate decodes a corner
    masks = sorted(found, reverse=True)
    return [TransitiveCornerationRecord(L, *found[L._mask]) for L in _cornerations(m, masks)]


# ---------------------------------------------------------------------------
# symmetric cornerations from half-reflexible colorings
# ---------------------------------------------------------------------------


def symmetric_cornerations_from_coloring(m: FlagMap, j: int):
    """The two symmetric j-cornerations from a half-reflexible flag coloring.

    A half-reflexible group (of the map or of its Petrie dual) has two
    flag orbits; faces are monochromatic and adjacent faces differ.  For
    odd ``j`` the two interior boundary wedges of any j-corner share a
    color, and collecting the corners of each color yields two invariant,
    dart-transitively preserved cornerations.
    """
    _require_map(m)
    q = uniform_valence(m)
    if q is None:
        raise NonUniformValence("the construction needs a uniform valence")
    if q % 2 != 0:
        raise WidthOutOfRange("odd valence admits no corneration")
    if not isinstance(j, int) or j % 2 == 0 or not 1 <= j < q / 2:
        raise WidthOutOfRange(
            f"symmetric cornerations need an odd width below {q // 2}, got {j!r}"
        )
    G = is_face_reflexible(m)
    if G is None:
        pm = petrie(m)
        Gp = is_face_reflexible(pm)
        if Gp is None:
            raise NoHalfReflexiveGroup(
                "neither the map nor its Petrie dual is face-reflexible"
            )
        # the Petrie dual keeps the flag numbering, and its symmetries are m's
        G = automorphism_group(m).subgroup_from_images(Gp.images())
    node = _node_of_flag(G)
    if len(_orbit_graph(G)[0]) != 2:
        raise InternalInvariantError("a half-reflexible group must have two flag orbits")

    piles = {True: [], False: []}
    numbers = list(_corner_flags(m, j))
    for n, (interior, boundary) in zip(numbers, _sides(m, numbers)):
        colors = {node[f] for w in boundary if w in interior for f in (w, m.r1[w])}
        if len(colors) != 1:
            raise InternalInvariantError("interior boundary wedges of an odd corner differ in color")
        piles[colors.pop() == 0].append(n)  # node 0 is the color of flag 0
    return tuple(
        _corneration_from(m, piles[side], InternalInvariantError, "color class")
        for side in (True, False)
    )


# ---------------------------------------------------------------------------
# transfer along operators
# ---------------------------------------------------------------------------


def transfer(L: Corneration, target: Union[FlagMap, OperatorResult]):
    """Reinterpret a corneration on a Petrie dual or on hole components.

    A Petrie target shares darts and vertices, hence the corner numbering,
    so the corner set carries over unchanged (widths included).  A hole
    result of width j turns each j-corner into a 1-corner of the component
    containing its vertex; the result is one corneration per component.
    """
    _require_corneration(L)
    m = L.map
    if isinstance(target, FlagMap):
        if target.r1 != m.r1 or target.r2 != m.r2:
            raise CornerationMismatch("target map does not share darts with the corneration")
        return _cornerations(target, [L._mask])[0]

    result = target
    if not isinstance(result, OperatorResult):
        raise CornerationMismatch(f"not a map or an operator result: {target!r}")
    if result.source != m:
        raise CornerationMismatch("the operator result belongs to a different map")
    if L.width != result.width:
        raise WidthMismatch(
            f"corneration width {L.width} does not match operator width {result.width}"
        )
    corr = result.correspondence
    piles: dict[int, set] = {i: set() for i in range(len(result.maps))}  # corner numbers
    for _, darts in L._keys():
        images = []
        for d in darts:
            comp_a, fa = corr[d]
            comp_b, fb = corr[m.r2[d]]
            if comp_a != comp_b:
                raise InternalInvariantError("a dart was split across components")
            images.append((comp_a, min(fa, fb)))
        comps = {comp for comp, _ in images}
        if len(comps) != 1:
            raise InternalInvariantError("a corner was split across components")
        comp = comps.pop()
        n = _pair_number(result.maps[comp], tuple(d for _, d in images))
        if _corner_numbering(result.maps[comp])[3][n][1] != 1:  # its span's width
            raise InternalInvariantError("hole transfer must produce wedges")
        piles[comp].add(n)
    return [
        _corneration_from(component, piles[ci], InternalInvariantError, "hole transfer")
        for ci, component in enumerate(result.maps)
    ]
