"""Split graphs on the corners of a corneration.

The split graph of a corneration L and a disjoint corner set K is the
simple graph whose vertices are the corners of L, with an old edge for
each pair of L-corners sharing exactly one map edge and a new edge for
each K-corner joining the L-corners covering its two darts.  Old and new
pairs that coincide are merged into one edge with both provenances kept.
"""

from __future__ import annotations

import binascii
import math
from typing import Iterable, NamedTuple, Optional

from .core import DART, EDGE, FlagMap, cells, uniform_valence
from .cornerations import (
    Corner,
    Corneration,
    _base_perms,
    _corner_flags,
    _corner_numbering,
    _corner_numbers,
    _one_entry,
    _pair_action,
    _require_corneration,
    _sides,
    corner_from_darts,
    j_complement,
)
from .errors import (
    CornerationMismatch,
    DegenerateParameters,
    InternalInvariantError,
    InvalidSplitGraph,
    KIntersectsL,
    KNotInvariant,
    NotTransitive,
    UnknownConstruction,
    WidthOutOfRange,
)
from .symmetry import SymGroup, _require_group

OLD = "old"
NEW = "new"


class EdgeProvenance(NamedTuple):
    """Where a split-graph edge comes from: shared map edges, K-corners."""

    old: tuple
    new: tuple

    @property
    def kinds(self) -> tuple[str, ...]:
        return (OLD,) * bool(self.old) + (NEW,) * bool(self.new)


class SplitGraph:
    """A split graph as its corner keys in sorted order (``vertices``), the
    (larger, smaller) positions of each edge's ends in edge order, and its
    new-corner set K as sorted dart pairs.  ``edges``, ``{frozenset of two
    corner keys: EdgeProvenance}``, is packed from a re-run :func:`_pass` on
    first read; ``SplitGraph(map, base, vertices, edges)`` takes it as given, and
    raises :class:`InvalidSplitGraph` unless each key of ``edges`` joins two ``vertices``."""

    __slots__ = ("map", "base", "vertices", "_pairs", "_k", "_edges")

    def __init__(self, map: FlagMap, base: Corneration, vertices: tuple, edges: dict):
        try:
            pos = {key: i for i, key in enumerate(vertices)}
            ends = [(pos[x], pos[y]) for x, y in edges.keys()]
        except (AttributeError, KeyError, TypeError, ValueError) as exc:
            raise InvalidSplitGraph(f"the edges must map pairs of the vertices: {exc!r}") from None
        self.map, self.base, self.vertices, self._k, self._edges = map, base, vertices, None, edges
        self._pairs = [(a, b) if a > b else (b, a) for a, b in ends]

    @classmethod
    def _of_pass(cls, L: Corneration, k_darts: list) -> "SplitGraph":
        """The graph of ``L`` and K from one :func:`_pass`, keeping only its position pairs."""
        S = cls.__new__(cls)
        S.vertices, found = _pass(L, k_darts)
        S.map, S.base, S._k, S._edges, S._pairs = L.map, L, k_darts, None, list(found)
        return S

    @property
    def edges(self) -> dict:
        if self._edges is None:
            first, rank, keys, _, _ = _corner_numbering(self.map)
            vertices, provenance = self.vertices, {}
            _pass(self.base, self._k, provenance)
            # each frozenset is built in its pair's first-met order, as its iteration can follow it
            self._edges = {
                frozenset((vertices[a], vertices[b])): EdgeProvenance(
                    tuple(old), tuple(keys[first[x] + rank[y]] for x, y in new)
                )
                for (a, b), old, new in provenance.values()
            }
        return self._edges

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self._pairs)

    def degrees(self) -> dict:
        counts = [0] * len(self.vertices)
        for a, b in self._pairs:
            counts[a] += 1
            counts[b] += 1
        return dict(zip(self.vertices, counts))

    def regular_valence(self) -> Optional[int]:
        degs = set(self.degrees().values())
        return degs.pop() if len(degs) == 1 else None

    def is_connected(self) -> bool:
        return not self.vertices or not any(_disconnected(self, [range(self.n_vertices)]))


def _require_split_graph(S) -> None:
    """Raise :class:`InvalidSplitGraph` unless ``S`` is a :class:`SplitGraph`."""
    if not isinstance(S, SplitGraph):
        raise InvalidSplitGraph(f"not a split graph: {S!r}")


def _disconnected(S: SplitGraph, runs: Iterable) -> Iterable:
    """The runs of positions, in order, that induce a disconnected subgraph."""
    adj = [[] for _ in S.vertices]
    for a, b in S._pairs:
        adj[a].append(b)
        adj[b].append(a)
    for run in runs:
        seen = {run[0]}
        stack = [run[0]]
        while stack:
            for y in adj[stack.pop()]:
                if y in run and y not in seen:
                    seen.add(y)
                    stack.append(y)
        if len(seen) < len(run):
            yield run


def _pass(L: Corneration, k_darts: Iterable[tuple], provenance: Optional[dict] = None) -> tuple:
    """The split graph of ``L`` and K (sorted dart pairs) as the keys of ``L``'s
    corners in order (indices are positions) and ``{(larger, smaller) position
    pair: None}`` with old edges first.  Fills ``provenance``, if given, in the same
    order with ``{pair: (the pair as first met, [map edges], [K dart pairs])}``."""
    if provenance is None:
        keys, slot, old, _ = _one_entry(L.map._cache, L._mask, "old_edges", _old_edges, L)
    else:
        keys, slot, old, _ = _old_edges(L, provenance)
    found = dict(old)
    for darts in k_darts:
        s1, s2 = slot[darts[0]], slot[darts[1]]
        if s1 == s2:
            raise KIntersectsL(f"the corner on darts {darts} belongs to the corneration")
        pair = (s1, s2) if s1 > s2 else (s2, s1)
        found[pair] = None
        if provenance is not None:
            provenance.setdefault(pair, ((s1, s2), [], []))[2].append(darts)
    return keys, found


def _old_edges(L: Corneration, provenance: Optional[dict] = None) -> tuple:
    """The part of :func:`_pass` that K does not change, kept on the map for the last ``L``:
    the keys, ``{dart: position of the corner covering it}``, old edges and deficit."""
    m = L.map
    keys = tuple(L._keys())
    edge_of, dart_of = m.cell_index(EDGE), m.cell_index(DART)
    slot = {}  # dart -> position of the L-corner covering it
    far = {}  # dart -> map edge of the other dart of that corner
    for i, (_, (a, b)) in enumerate(keys):
        slot[a] = slot[b] = i
        far[a] = edge_of[b]
        far[b] = edge_of[a]
    found: dict = {}
    deficit = 0
    ends = ((c.id, dart_of[c.id], dart_of[m.r0[c.id]]) for c in cells(m, EDGE))
    # each edge of m with its two darts, listed once per map
    for e, d1, d2 in m._memo(("edge_darts",), list, ends):
        s1, s2 = slot[d1], slot[d2]
        if s1 == s2:
            raise InternalInvariantError("one corner covered both darts of an edge")
        if far[d1] == far[d2]:
            deficit += s1 == 0 or s2 == 0  # position 0: the least-key corner
            continue
        pair = (s1, s2) if s1 > s2 else (s2, s1)
        found[pair] = None
        if provenance is not None:
            provenance.setdefault(pair, ((s1, s2), [], []))[1].append(e)
    return keys, slot, found, deficit


def split(L: Corneration, K: Iterable[Corner]) -> SplitGraph:
    """The split graph of ``L`` and a disjoint corner set ``K``, from one
    :func:`_pass`.  Unlike the constructions, looks each K-corner's number up
    (:class:`UnknownCell` or :class:`InvalidCorner` for one of another map or a
    ``K`` that is no iterable)."""
    _require_corneration(L)
    keys = _corner_numbering(L.map)[2]
    return SplitGraph._of_pass(L, [keys[n][1] for n in _corner_numbers(L.map, K)])


def _uniform_width(L: Corneration) -> tuple[int, int]:
    _require_corneration(L)
    j = L.width
    q = uniform_valence(L.map)
    if j is None or q is None:
        raise WidthOutOfRange("split constructions need a uniform corneration")
    return j, q


def _k_darts(L: Corneration, kind: str) -> list[tuple[int, int]]:
    """The new-corner set K of ``kind`` as sorted dart pairs, kept with :func:`_old_edges`."""
    return _one_entry(L.map._cache, L._mask, kind, _find_k_darts, L, kind)


def _find_k_darts(L: Corneration, kind: str) -> list[tuple[int, int]]:
    if kind == "A":  # in the order of the complement's `.corners`, as a Corner hashes as its key
        return [darts for _, darts in frozenset(j_complement(L)._keys())]
    m = L.map
    if kind == "B":
        keys = _corner_numbering(m)[2]
        return [keys[n][1] for n in _corner_flags(m, 1)]
    inside = kind == "Ci"
    sides = _sides(m, L._numbers())
    wedges = {w for interior, boundary in sides for w in boundary if (w in interior) == inside}
    dart_of = m.cell_index(DART)
    pairs = ((dart_of[w], dart_of[m.r1[w]]) for w in sorted(wedges))
    return [(a, b) if a < b else (b, a) for a, b in pairs]


def new_corners(L: Corneration, kind: str) -> list[Corner]:
    """The new-corner set K of construction ``kind`` on ``L``, in the order
    its split graph meets them: the complement of ``L`` (A), all wedges (B),
    or the interior (Ci) or exterior (Cx) boundary wedges of its corners."""
    _require_corneration(L)
    _require_kind(kind)
    return [corner_from_darts(L.map, darts) for darts in _k_darts(L, kind)]


def _construct(L: Corneration, kind: str, widths: str) -> SplitGraph:
    j, q = _uniform_width(L)
    if kind not in predicted_valences(q, j):
        raise WidthOutOfRange(widths)
    k_darts = _k_darts(L, kind)
    return _one_entry(L.map._cache, L._mask, ("graph", kind), SplitGraph._of_pass, L, k_darts)


def graph_A(L: Corneration) -> SplitGraph:
    """Split against the width complement of ``L`` (widths below q/2)."""
    return _construct(L, "A", "the complement construction needs a width below q/2")


def graph_B(L: Corneration) -> SplitGraph:
    """Split against the set of all wedges (widths from 2 up to q/2)."""
    return _construct(L, "B", "the wedge construction needs 2 <= width <= q/2")


def graph_Ci(L: Corneration) -> SplitGraph:
    """Split against the interior boundary wedges of the corners of ``L``."""
    return _construct(L, "Ci", "the interior construction needs 2 <= width < q/2")


def graph_Cx(L: Corneration) -> SplitGraph:
    """Split against the exterior boundary wedges of the corners of ``L``."""
    return _construct(L, "Cx", "the exterior construction needs 2 <= width < q/2")


def is_locally_connected(S: SplitGraph) -> tuple[bool, Optional[int]]:
    """Whether the induced subgraph on the corners at each vertex connects:
    ``(True, None)`` or ``(False, first failing vertex)``."""
    _require_split_graph(S)
    runs: dict = {}  # vertex -> positions of its corners
    for i, key in enumerate(S.vertices):
        runs.setdefault(key[0], []).append(i)
    bad = next(_disconnected(S, [runs[v] for v in sorted(runs)]), None)
    return (True, None) if bad is None else (False, S.vertices[bad[0]][0])


def verify_vertex_transitive(S: SplitGraph, G: SymGroup, K: Iterable[Corner]) -> bool:
    """Witness that ``G`` acts on the split graph vertex-transitively.

    Checks that ``G`` preserves the corneration and ``K`` setwise, maps
    edges to edges and is transitive on the vertices, without computing the
    graph's automorphism group.  Each generator moves the vertices and K by
    corner number through its pair table (:func:`_pair_action`).
    """
    _require_split_graph(S)
    _require_group(G, S.map)
    perms, transitive = _base_perms(G, S.base)  # the vertices are the base's corners
    if not transitive:
        raise NotTransitive("the group is not transitive on the corneration")
    k_numbers = set(_corner_numbers(S.map, K))
    edge_set = set(S._pairs)
    for table, perm in zip(_pair_action(G), perms):
        if not k_numbers.issuperset(map(table.__getitem__, k_numbers)):
            raise KNotInvariant("the new-corner set is not group-invariant")
        for a, b in S._pairs:
            x, y = perm[a], perm[b]
            if ((x, y) if x > y else (y, x)) not in edge_set:
                return False
    return True


class CubicEntry(NamedTuple):
    construction: str
    measured_valence: Optional[int]
    predicted_valence: int
    cubic: bool


class CubicReport(NamedTuple):
    entries: tuple[CubicEntry, ...]


def predicted_valences(q: int, j: int, deficit: int = 0) -> dict:
    """Expected valences of the constructions defined for a transitive
    width-j L: two old edges less any deficit, plus the new-edge degree.

    New-edge degrees follow from the standard local cornerations.  The
    complement construction joins a corner to the corners 2j positions
    away, merging when ``4j = q``.  For odd widths the interior and
    exterior wedge sets are disjoint and contribute two neighbors each (the
    exterior pair merging at ``j = q/2 - 1``); for even widths they overlap
    in the wedges tying the consecutive corner pairs together, which caps
    the all-wedge degree one below the sum of the two counts.
    """
    if not (isinstance(q, int) and isinstance(j, int) and isinstance(deficit, int)):
        raise DegenerateParameters(
            f"the valence, width and deficit must be ints, got {q!r}, {j!r}, {deficit!r}"
        )
    new = {}
    if 2 * j < q:
        new["A"] = 1 if 4 * j == q else 2
    if 2 <= j <= q // 2:
        if 2 * j == q:
            new["B"] = 1 if q == 4 else 2
        elif j % 2 == 1:
            new["B"] = 3 if (q % 4 == 0 and j == q // 2 - 1) else 4
        else:
            new["B"] = 2 if j == 2 else 3
    if 2 <= j < q / 2:
        if j % 2 == 1:
            new["Ci"] = 2
            new["Cx"] = 1 if j == q // 2 - 1 else 2
        else:
            new["Ci"] = 1 if j == 2 else 2
            new["Cx"] = 2
    return {kind: 2 - deficit + degree for kind, degree in new.items()}


def old_degree_deficit(L: Corneration) -> int:
    """How many old edges each corner loses to fully shared corner pairs.

    An old edge requires the two corners covering a map edge to share
    exactly that edge; when they share both of their edges (a pair of
    parallel edges spanned the same way at both ends) no old edge forms.
    Counted at the least-key corner (:func:`_old_edges`); for a transitive
    corneration the count is the same at every corner.
    """
    _require_corneration(L)
    return _one_entry(L.map._cache, L._mask, "old_edges", _old_edges, L)[3]


def predicted_local_connectivity(q: int, j: int) -> dict:
    """Expected local connectivity of the four constructions."""
    if not (isinstance(q, int) and isinstance(j, int)):
        raise DegenerateParameters(f"the valence and width must be ints, got {q!r}, {j!r}")
    out = {}
    if 2 * j < q:
        out["A"] = math.gcd(q, j) == 1
    if 2 <= j <= q // 2:
        out["B"] = True
    if 2 <= j < q / 2:
        if j % 2 == 1:
            out["Ci"] = math.gcd(q, j - 1) == 2
            out["Cx"] = math.gcd(q, j + 1) == 2
        else:
            out["Ci"] = math.gcd(q, j - 2) == 4
            out["Cx"] = math.gcd(q, j + 2) == 4
    return out


_BUILDERS = {"A": graph_A, "B": graph_B, "Ci": graph_Ci, "Cx": graph_Cx}


def _require_kind(kind) -> None:
    if not (isinstance(kind, str) and kind in _BUILDERS):
        raise UnknownConstruction(f"unknown construction {kind!r}; expected one of A, B, Ci, Cx")


def build_construction(L: Corneration, kind: str) -> SplitGraph:
    _require_kind(kind)
    return _BUILDERS[kind](L)


def cubic_filter(m: FlagMap, L: Corneration) -> CubicReport:
    """Which of the four constructions are cubic for this corneration.

    Reads each construction's valence off its position pairs (no edge is
    packed) against the valence predicted with the deficit of ``L``.
    :class:`CornerationMismatch` unless ``L`` is one of ``m``.
    """
    _require_corneration(L)
    if L.map is not m and L.map != m:
        raise CornerationMismatch("the corneration belongs to a different map")
    j, q = _uniform_width(L)
    entries = []
    for kind, predicted in predicted_valences(q, j, old_degree_deficit(L)).items():
        measured = build_construction(L, kind).regular_valence()
        entries.append(CubicEntry(kind, measured, predicted, measured == 3))
    return CubicReport(tuple(entries))


# base64 writes the 6-bit groups 0..63 as these characters, graph6 as chr(63 + group)
_SIX_BIT_GROUPS = bytes.maketrans(
    b"ABCDEFGHIJKLMNOPQRSTUVWXYZabcdefghijklmnopqrstuvwxyz0123456789+/", bytes(range(63, 127))
)


def _six_bit_chars(bits) -> str:
    """A bit string, a multiple of 6 long, as characters 63 + each 6-bit group."""
    pad = -len(bits) % 24  # base64 reads 3 bytes at a time
    data = (int(bits or "0", 2) << pad).to_bytes((len(bits) + pad) // 8, "big")
    chars = binascii.b2a_base64(data, newline=False)[: len(bits) // 6]
    return chars.translate(_SIX_BIT_GROUPS).decode("ascii")


def _size_field(n: int) -> str:
    """N(n) of the graph6 and sparse6 formats (McKay, formats.txt).

    The 18-bit form ends at 258047, the last n whose first 6-bit group is
    below 63, so that its first character never reads as a second ``~``.
    """
    if n < 63:
        return chr(63 + n)
    if n < 258048:
        return "~" + _six_bit_chars(format(n, "018b"))
    return "~~" + _six_bit_chars(format(n, "036b"))


def to_graph6(S: SplitGraph) -> str:
    """graph6 encoding of the split graph with canonically sorted vertices: the
    upper triangle of the adjacency matrix, column by column, packed into
    6-bit groups (McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt)."""
    _require_split_graph(S)
    n = S.n_vertices
    bits = bytearray(b"0" * (-(-n * (n - 1) // 12) * 6))
    for b, a in S._pairs:
        bits[b * (b - 1) // 2 + a] = ord("1")
    return _size_field(n) + _six_bit_chars(bits)


def to_sparse6(S: SplitGraph) -> str:
    """sparse6 encoding, for catalogs preferring the sparse format: edges
    (v, u) with u <= v in ascending order, each as a flag bit (0: same v, 1:
    next v) and u in k bits, with a jump to v written out when v skips ahead."""
    _require_split_graph(S)
    n = S.n_vertices
    k = max(1, (n - 1).bit_length())
    code = [format(i, f"0{k}b") for i in range(n)]
    bits = []
    v = 0
    for b, a in sorted(S._pairs):
        if b > v + 1:
            bits += "1", code[b], "0", code[a]
        else:
            bits += str(b - v), code[a]
        v = b
    data = "".join(bits)
    pad = -len(data) % 6
    # padding 1s could decode as an edge to vertex n - 1 when n = 2^k
    if k < 6 and n == 1 << k and pad >= k and v < n - 1:
        data += "0"
        pad = -len(data) % 6
    return ":" + _size_field(n) + _six_bit_chars(data + "1" * pad)
