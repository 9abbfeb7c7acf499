"""Split graphs on the corners of a corneration.

The split graph of a corneration L and a disjoint corner set K is the
simple graph whose vertices are the corners of L, with an old edge for
each pair of L-corners sharing exactly one map edge and a new edge for
each K-corner joining the L-corners covering its two darts.  Old and new
pairs that coincide are merged into one edge with both provenances kept.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Optional

from .core import DART, EDGE, FlagMap, cells, orbits, uniform_valence
from .cornerations import (
    Corner,
    Corneration,
    _corner_perms,
    _own_corners,
    _pair_action,
    _pair_numbers,
    _require_corneration,
    all_j_corners,
    corner_of_wedge,
    j_complement,
)
from .errors import (
    CornerationMismatch,
    InternalInvariantError,
    KIntersectsL,
    KNotInvariant,
    NotTransitive,
    UnknownConstruction,
    WidthOutOfRange,
)
from .symmetry import SymGroup, _require_group

OLD = "old"
NEW = "new"


@dataclass(frozen=True)
class EdgeProvenance:
    """Where a split-graph edge comes from: shared map edges, K-corners."""

    old: tuple
    new: tuple

    @property
    def kinds(self) -> tuple[str, ...]:
        out = []
        if self.old:
            out.append(OLD)
        if self.new:
            out.append(NEW)
        return tuple(out)


@dataclass(frozen=True, eq=False)
class SplitGraph:
    map: FlagMap
    base: Corneration
    vertices: tuple  # corner keys, sorted
    edges: dict  # frozenset of two corner keys -> EdgeProvenance

    @property
    def n_vertices(self) -> int:
        return len(self.vertices)

    @property
    def n_edges(self) -> int:
        return len(self.edges)

    def adjacency(self) -> dict:
        adj = {v: set() for v in self.vertices}
        for pair in self.edges:
            a, b = tuple(pair)
            adj[a].add(b)
            adj[b].add(a)
        return adj

    def degrees(self) -> dict:
        degs = dict.fromkeys(self.vertices, 0)
        for a, b in self.edges:
            degs[a] += 1
            degs[b] += 1
        return degs

    def regular_valence(self) -> Optional[int]:
        degs = set(self.degrees().values())
        return degs.pop() if len(degs) == 1 else None

    def is_connected(self) -> bool:
        adj = self.adjacency()
        return not adj or len(_reach(adj, self.vertices[0], adj)) == len(adj)


def _reach(adj: dict, start, allowed) -> set:
    """The vertices reachable from ``start`` through vertices in ``allowed``."""
    seen = {start}
    stack = [start]
    while stack:
        for y in adj[stack.pop()]:
            if y in allowed and y not in seen:
                seen.add(y)
                stack.append(y)
    return seen


def split(L: Corneration, K: Iterable[Corner]) -> SplitGraph:
    """The split graph of ``L`` and a disjoint corner set ``K``.

    The corners of ``L`` are listed once in key order (their positions,
    not the map's corner numbers), each dart gets the position of its
    L-corner and the map edge of that corner's other dart, and edges are
    gathered as position pairs before the graph is built in one pass.
    Each K-corner is looked up in the map's corner table
    (:func:`_own_corners`), so one that is not a corner of ``L.map``
    raises :class:`UnknownCell` or :class:`InvalidCorner`, and an ``L``
    that leaves a dart uncovered raises :class:`CornerationMismatch`.
    """
    _require_corneration(L)
    m = L.map
    vertices = L.key()
    edge_of = m.cell_index(EDGE)
    slot = {}  # dart -> position of the L-corner covering it
    far = {}  # dart -> map edge of the other dart of that corner
    for i, (_, (a, b)) in enumerate(vertices):
        slot[a] = slot[b] = i
        far[a] = edge_of[b]
        far[b] = edge_of[a]

    # sorted position pair -> (the pair as first met, old tokens, new tokens);
    # each frozenset key is built in the order first met, as the iteration
    # order of a two-key frozenset can follow it
    found: dict = {}
    dart_of = m.cell_index(DART)
    try:
        for ecell in cells(m, EDGE):
            e = ecell.id
            d1, d2 = dart_of[e], dart_of[m.r0[e]]
            s1, s2 = slot[d1], slot[d2]
            if s1 == s2:
                raise InternalInvariantError("one corner covered both darts of an edge")
            if far[d1] != far[d2]:
                pair = (s1, s2) if s1 < s2 else (s2, s1)
                if pair in found:
                    found[pair][1].append(e)
                else:
                    found[pair] = ((s1, s2), [e], [])
    except KeyError as missing:
        raise CornerationMismatch(
            f"not a corneration: uncovered dart {missing.args[0]}"
        ) from None

    for own in _own_corners(m, K):
        d1, d2 = own.darts
        s1, s2 = slot[d1], slot[d2]
        if s1 == s2:
            raise KIntersectsL(f"{own} belongs to the corneration")
        pair = (s1, s2) if s1 < s2 else (s2, s1)
        if pair in found:
            found[pair][2].append(own.key())
        else:
            found[pair] = ((s1, s2), [], [own.key()])

    edges = {
        frozenset((vertices[a], vertices[b])): EdgeProvenance(tuple(old), tuple(new))
        for (a, b), old, new in found.values()
    }
    return SplitGraph(map=m, base=L, vertices=vertices, edges=edges)


def _uniform_width(L: Corneration) -> tuple[int, int]:
    _require_corneration(L)
    j = L.width
    q = uniform_valence(L.map)
    if j is None or q is None:
        raise WidthOutOfRange("split constructions need a uniform corneration")
    return j, q


def graph_A(L: Corneration) -> SplitGraph:
    """Split against the width complement of ``L`` (widths below q/2)."""
    j, q = _uniform_width(L)
    if 2 * j >= q:
        raise WidthOutOfRange("the complement construction needs a width below q/2")
    return split(L, j_complement(L).corners)


def graph_B(L: Corneration) -> SplitGraph:
    """Split against the set of all wedges (widths from 2 up to q/2)."""
    j, q = _uniform_width(L)
    if not 2 <= j <= q // 2:
        raise WidthOutOfRange("the wedge construction needs 2 <= width <= q/2")
    return split(L, all_j_corners(L.map, 1))


def _boundary_wedge_corners(L: Corneration, interior: bool) -> list[Corner]:
    m = L.map
    wedge_ids = set()
    for c in L.corners:
        chosen = c.interior_boundary_wedges if interior else c.exterior_boundary_wedges
        wedge_ids.update(chosen)
    return [corner_of_wedge(m, w) for w in sorted(wedge_ids)]


def graph_Ci(L: Corneration) -> SplitGraph:
    """Split against the interior boundary wedges of the corners of ``L``."""
    j, q = _uniform_width(L)
    if not 2 <= j < q / 2:
        raise WidthOutOfRange("the interior construction needs 2 <= width < q/2")
    return split(L, _boundary_wedge_corners(L, interior=True))


def graph_Cx(L: Corneration) -> SplitGraph:
    """Split against the exterior boundary wedges of the corners of ``L``."""
    j, q = _uniform_width(L)
    if not 2 <= j < q / 2:
        raise WidthOutOfRange("the exterior construction needs 2 <= width < q/2")
    return split(L, _boundary_wedge_corners(L, interior=False))


def is_locally_connected(S: SplitGraph) -> tuple[bool, Optional[int]]:
    """Whether the induced subgraph on the corners at each vertex connects.

    Returns ``(True, None)`` or ``(False, first failing vertex)``.
    """
    adj = S.adjacency()
    by_vertex: dict = {}
    for key in S.vertices:
        by_vertex.setdefault(key[0], []).append(key)
    for v in sorted(by_vertex):
        local = set(by_vertex[v])
        if _reach(adj, by_vertex[v][0], local) != local:
            return False, v
    return True, None


def verify_vertex_transitive(S: SplitGraph, G: SymGroup, K: Iterable[Corner]) -> bool:
    """Witness that ``G`` acts on the split graph vertex-transitively.

    Checks that ``G`` preserves the corneration and ``K`` setwise, that
    its induced action maps split-graph edges to edges, and that it is
    transitive on the vertices.  This certifies vertex-transitivity
    without computing the full automorphism group of the graph.  Each
    generator moves the vertices and K by their corner numbers through its
    pair table (:func:`_pair_action`); edges are tested as vertex pairs.
    """
    _require_group(G, S.map)
    perms = _corner_perms(G, _pair_numbers(S.map, (darts for _, darts in S.vertices)))
    if len(orbits(S.n_vertices, perms)) != 1:
        raise NotTransitive("the group is not transitive on the corneration")
    k_numbers = set(_pair_numbers(S.map, (c.darts for c in _own_corners(S.map, K))))
    number = {key: i for i, key in enumerate(S.vertices)}
    ends = [(number[a], number[b]) for a, b in S.edges]
    edge_set = {(a, b) if a < b else (b, a) for a, b in ends}
    for table, perm in zip(_pair_action(G), perms):
        if not k_numbers.issuperset(map(table.__getitem__, k_numbers)):
            raise KNotInvariant("the new-corner set is not group-invariant")
        for a, b in ends:
            x, y = perm[a], perm[b]
            if ((x, y) if x < y else (y, x)) not in edge_set:
                return False
    return True


@dataclass(frozen=True)
class CubicEntry:
    construction: str
    measured_valence: Optional[int]
    predicted_valence: int
    cubic: bool

    @property
    def matches(self) -> bool:
        return self.measured_valence == self.predicted_valence


@dataclass(frozen=True)
class CubicReport:
    entries: tuple[CubicEntry, ...]

    def cubic_constructions(self) -> tuple[str, ...]:
        return tuple(e.construction for e in self.entries if e.cubic)

    def all_match(self) -> bool:
        return all(e.matches for e in self.entries)


def predicted_new_degrees(q: int, j: int) -> dict:
    """New-edge degree of each construction for a transitive width-j L.

    Derived from the standard local cornerations.  The complement
    construction joins a corner to the corners 2j positions away, merging
    when ``4j = q``.  For odd widths the interior and exterior wedge sets
    are disjoint and contribute two neighbors each (the exterior pair
    merging at ``j = q/2 - 1``); for even widths they overlap in the
    wedges tying the consecutive corner pairs together, which caps the
    all-wedge degree one below the sum of the two counts.
    """
    out = {}
    if 2 * j < q:
        out["A"] = 1 if 4 * j == q else 2
    if 2 <= j <= q // 2:
        if 2 * j == q:
            out["B"] = 1 if q == 4 else 2
        elif j % 2 == 1:
            out["B"] = 3 if (q % 4 == 0 and j == q // 2 - 1) else 4
        else:
            out["B"] = 2 if j == 2 else 3
    if 2 <= j < q / 2:
        if j % 2 == 1:
            out["Ci"] = 2
            out["Cx"] = 1 if j == q // 2 - 1 else 2
        else:
            out["Ci"] = 1 if j == 2 else 2
            out["Cx"] = 2
    return out


def old_degree_deficit(L: Corneration) -> int:
    """How many old edges each corner loses to fully shared corner pairs.

    An old edge requires the two corners covering a map edge to share
    exactly that edge; when they share both of their edges (a pair of
    parallel edges spanned the same way at both ends) no old edge forms.
    For a transitive corneration the count is the same at every corner.
    """
    m = L.map
    edge_of = m.cell_index(EDGE)
    dart_of = m.cell_index(DART)
    c = min(L.corners, key=Corner.key)
    deficit = 0
    for d in c.darts:
        partner = L.corner_of_dart(dart_of[m.r0[d]])
        if {edge_of[x] for x in partner.darts} == {edge_of[x] for x in c.darts}:
            deficit += 1
    return deficit


def predicted_valences(q: int, j: int, deficit: int = 0) -> dict:
    """Expected split-graph valences: two old edges less any deficit,
    plus the construction's new-edge degree."""
    return {
        kind: 2 - deficit + new
        for kind, new in predicted_new_degrees(q, j).items()
    }


def predicted_local_connectivity(q: int, j: int) -> dict:
    """Expected local connectivity of the four constructions."""
    import math

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


def build_construction(L: Corneration, kind: str) -> SplitGraph:
    if kind not in _BUILDERS:
        raise UnknownConstruction(
            f"unknown construction {kind!r}; expected one of A, B, Ci, Cx"
        )
    return _BUILDERS[kind](L)


def cubic_filter(m: FlagMap, L: Corneration) -> CubicReport:
    """Which of the four constructions are cubic for this corneration.

    Builds every construction defined at the corneration's width and
    compares the measured valence with the predicted one (accounting for
    parallel-edge deficits in the old edges).  Raises
    :class:`CornerationMismatch` when ``L`` is not a corneration of ``m``.
    """
    _require_corneration(L)
    if L.map is not m and L.map != m:
        raise CornerationMismatch("the corneration belongs to a different map")
    j, q = _uniform_width(L)
    predictions = predicted_valences(q, j, old_degree_deficit(L))
    entries = []
    for kind in ("A", "B", "Ci", "Cx"):
        if kind not in predictions:
            continue
        S = build_construction(L, kind)
        measured = S.regular_valence()
        predicted = predictions[kind]
        entries.append(
            CubicEntry(kind, measured, predicted, measured == 3)
        )
    return CubicReport(tuple(entries))


def _six_bit_chars(bits: str) -> str:
    """A bit string, a multiple of 6 long, as characters 63 + each 6-bit group."""
    return "".join(chr(63 + int(bits[i : i + 6], 2)) for i in range(0, len(bits), 6))


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


def _index_edges(S: SplitGraph) -> list[tuple[int, int]]:
    """Edges as (larger, smaller) positions in the sorted vertices, ascending."""
    pos = {key: i for i, key in enumerate(S.vertices)}
    return sorted(tuple(sorted((pos[a] for a in pair), reverse=True)) for pair in S.edges)


def to_graph6(S: SplitGraph) -> str:
    """graph6 encoding of the split graph with canonically sorted vertices.

    The upper triangle of the adjacency matrix, column by column, packed
    into 6-bit groups (McKay, https://users.cecs.anu.edu.au/~bdm/data/formats.txt).
    """
    n = S.n_vertices
    bits = bytearray(b"0" * (-(-n * (n - 1) // 12) * 6))
    for b, a in _index_edges(S):
        bits[b * (b - 1) // 2 + a] = ord("1")
    return _size_field(n) + _six_bit_chars(bits.decode("ascii"))


def to_sparse6(S: SplitGraph) -> str:
    """sparse6 encoding, for catalogs preferring the sparse format.

    Edges (v, u) with u <= v in ascending order, each as a flag bit (0: same
    v, 1: next v) and u in k bits, with a jump to v written out when v
    skips ahead (McKay's formats.txt).
    """
    n = S.n_vertices
    k = max(1, (n - 1).bit_length())
    bits = []
    v = 0
    for b, a in _index_edges(S):
        if b == v:
            bits.append("0" + format(a, f"0{k}b"))
        elif b == v + 1:
            v = b
            bits.append("1" + format(a, f"0{k}b"))
        else:
            v = b
            bits.append("1" + format(b, f"0{k}b") + "0" + format(a, f"0{k}b"))
    data = "".join(bits)
    pad = -len(data) % 6
    # padding 1s could decode as an edge to vertex n - 1 when n = 2^k
    if k < 6 and n == 1 << k and pad >= k and v < n - 1:
        data += "0"
        pad = -len(data) % 6
    return ":" + _size_field(n) + _six_bit_chars(data + "1" * pad)
