"""Maps on surfaces encoded as flag systems.

A map is stored as a finite set of flags ``{0, ..., n_flags - 1}`` together
with three fixed-point-free involutions ``r0``, ``r1``, ``r2``.  Two flags
exchanged by ``r_i`` share the side of the barycentric triangle opposite to
the cell of dimension ``i``:

* ``r0`` moves along an edge to the other end, inside the same face,
* ``r1`` moves to the other edge of the same corner of a face,
* ``r2`` moves across an edge to the other face side, at the same vertex.

Every incidence cell of the map is an orbit of flags under a subgroup of
``<r0, r1, r2>``; cells are identified by the minimum flag of their orbit.
"""

from __future__ import annotations

import math
from collections import deque
from dataclasses import dataclass, field
from typing import Optional, Sequence

from .errors import (
    InvalidMapError,
    InvalidModulus,
    MalformedFlagSystem,
    UnknownCell,
    UnknownCellKind,
)

Perm = tuple[int, ...]

VERTEX = "vertex"
EDGE = "edge"
FACE = "face"
DART = "dart"
WEDGE = "wedge"
CELL_KINDS = (VERTEX, EDGE, FACE, DART, WEDGE)

# Generating involutions of the orbit that forms each kind of cell.
_KIND_GENERATORS = {
    VERTEX: (1, 2),
    EDGE: (0, 2),
    FACE: (0, 1),
    DART: (2,),
    WEDGE: (1,),
}


def compose(p: Sequence[int], q: Sequence[int]) -> Perm:
    """Permutation applying ``p`` first and then ``q``."""
    return tuple(q[p[i]] for i in range(len(p)))


def orbits(n: int, perms: Sequence[Sequence[int]]) -> list[list[int]]:
    """Orbits of ``{0..n-1}`` under the group generated by ``perms``.

    Each orbit is sorted ascending; orbits come in order of their minima.
    """
    seen = [False] * n
    out = []
    for start in range(n):
        if seen[start]:
            continue
        orbit = [start]
        seen[start] = True
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for p in perms:
                y = p[x]
                if not seen[y]:
                    seen[y] = True
                    orbit.append(y)
                    queue.append(y)
        orbit.sort()
        out.append(orbit)
    return out


def order_mod(a: int, n: int) -> int:
    """Additive order of ``a`` modulo ``n``, i.e. ``n // gcd(n, a)``."""
    if not (isinstance(a, int) and isinstance(n, int)) or n < 1:
        raise InvalidModulus(f"order_mod needs an int and a positive int modulus, got {a!r}, {n!r}")
    return n // math.gcd(n, a)


@dataclass(frozen=True)
class Cell:
    """An incidence cell of a map: an orbit of flags.

    The id is the minimum flag of the orbit, which is stable under any
    re-listing of cells and survives serialization.
    """

    kind: str
    id: int
    flags: tuple[int, ...]

    def __len__(self) -> int:
        return len(self.flags)


@dataclass(frozen=True, eq=False)
class Skeleton:
    """Vertex and edge cells of a map with the incidence between them."""

    vertices: tuple[int, ...]
    edges: tuple[int, ...]
    endpoints: dict

    def is_simple(self) -> bool:
        seen = set()
        for e in self.edges:
            pair = self.endpoints[e]
            if pair in seen:
                return False
            seen.add(pair)
        return True


@dataclass(frozen=True)
class Circuit:
    """A closed walk with pairwise distinct edges, stored as a dart cycle.

    ``darts`` lists one traversal direction; consecutive darts share a
    vertex and each edge of the circuit appears under exactly one dart.
    """

    darts: tuple[int, ...]
    edges: frozenset

    def __len__(self) -> int:
        return len(self.darts)


@dataclass(frozen=True)
class Violation:
    code: str
    witness: Optional[int]
    message: str


@dataclass(frozen=True)
class ValidationReport:
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


@dataclass(frozen=True)
class EulerData:
    chi: int
    orientable: bool
    genus: int


@dataclass(frozen=True)
class FlagMap:
    """A map on a surface given by its flag set and the involutions r0/r1/r2.

    Instances are immutable; derived data (cells, rotations, skeleton) is
    memoized internally, so all operations are safe to share across threads.
    Construction performs only structural checks; :func:`validate` decides
    whether the axioms of a map hold.
    """

    n_flags: int
    r0: Perm
    r1: Perm
    r2: Perm
    name: Optional[str] = None
    _cache: dict = field(default_factory=dict, init=False, repr=False, compare=False)

    def __post_init__(self):
        for attr in ("r0", "r1", "r2"):
            p = tuple(int(x) for x in getattr(self, attr))
            if len(p) != self.n_flags:
                raise MalformedFlagSystem(f"{attr} has length {len(p)}, expected {self.n_flags}")
            if any(x < 0 or x >= self.n_flags for x in p):
                raise MalformedFlagSystem(f"{attr} contains an out-of-range image")
            object.__setattr__(self, attr, p)
        if self.n_flags <= 0:
            raise MalformedFlagSystem("a map needs a positive number of flags")

    # -- basic access -----------------------------------------------------

    def involutions(self) -> tuple[Perm, Perm, Perm]:
        return (self.r0, self.r1, self.r2)

    def r(self, i: int) -> Perm:
        return (self.r0, self.r1, self.r2)[i]

    def flags(self) -> range:
        return range(self.n_flags)

    def _memo(self, key, producer, *args):
        cache = self._cache
        if key not in cache:
            cache[key] = producer(*args)
        return cache[key]

    # -- cells ------------------------------------------------------------

    def cells(self, kind: str) -> tuple[Cell, ...]:
        return cells(self, kind)

    def cell_index(self, kind: str) -> tuple[int, ...]:
        """Array mapping each flag to the id of its cell of ``kind``."""
        kind = _normalize_kind(kind)

        def build():
            index = [0] * self.n_flags
            for cell in cells(self, kind):
                for f in cell.flags:
                    index[f] = cell.id
            return tuple(index)

        return self._memo(("index", kind), build)

    def require_valid(self) -> "FlagMap":
        report = validate(self)
        if not report.ok:
            first = report.violations[0]
            raise InvalidMapError(
                f"invalid flag system: {first.code} ({first.message})", report
            )
        return self

    def __str__(self):
        label = self.name or "map"
        return f"{label}<{self.n_flags} flags>"


def _require_map(m) -> None:
    """Raise :class:`MalformedFlagSystem` unless ``m`` is a :class:`FlagMap`."""
    if not isinstance(m, FlagMap):
        raise MalformedFlagSystem(f"not a flag map: {m!r}")


def _normalize_kind(kind: str) -> str:
    k = str(kind).lower()
    if k not in CELL_KINDS:
        raise UnknownCellKind(f"unknown cell kind {kind!r}")
    return k


def cells(m: FlagMap, kind: str) -> tuple[Cell, ...]:
    """The orbit partition of the flag set for the requested cell kind."""
    kind = _normalize_kind(kind)

    def build():
        perms = [m.r(i) for i in _KIND_GENERATORS[kind]]
        return tuple(
            Cell(kind, orbit[0], tuple(orbit)) for orbit in orbits(m.n_flags, perms)
        )

    return m._memo(("cells", kind), build)


def validate(m: FlagMap) -> ValidationReport:
    """Check the map axioms, reporting every violated one with a witness.

    Checks, in order: each ``r_i`` is an involution, acts without fixed
    points, ``r0 r2 = r2 r0`` with ``r0 r2`` fixed-point free, no edge is a
    loop, and ``<r0, r1, r2>`` is transitive on flags.
    """
    _require_map(m)

    def build():
        violations = []
        names = ("r0", "r1", "r2")
        involutions_ok = True
        for idx, name in enumerate(names):
            p = m.r(idx)
            bad = next((f for f in m.flags() if p[p[f]] != f), None)
            if bad is not None:
                involutions_ok = False
                violations.append(
                    Violation("NotInvolution", bad, f"{name} is not an involution at flag {bad}")
                )
                continue
            fixed = next((f for f in m.flags() if p[f] == f), None)
            if fixed is not None:
                violations.append(
                    Violation("FixedPointR_i", fixed, f"{name} fixes flag {fixed}")
                )
        if involutions_ok:
            r0, r2 = m.r0, m.r2
            bad = next((f for f in m.flags() if r0[r2[f]] != r2[r0[f]]), None)
            if bad is not None:
                violations.append(
                    Violation("R0R2NotCommuting", bad, f"r0 r2 != r2 r0 at flag {bad}")
                )
            else:
                fixed = next((f for f in m.flags() if r0[r2[f]] == f), None)
                if fixed is not None:
                    violations.append(
                        Violation(
                            "EdgeDegenerate",
                            fixed,
                            f"r0 r2 fixes flag {fixed}: an edge with fewer than 4 flags",
                        )
                    )
        if m.n_flags % 4 != 0:
            violations.append(
                Violation("EdgeDegenerate", None, f"{m.n_flags} flags is not a multiple of 4")
            )
        if not violations:
            vertex_of = m.cell_index(VERTEX)
            loop = next((f for f in m.flags() if vertex_of[f] == vertex_of[m.r0[f]]), None)
            if loop is not None:
                violations.append(
                    Violation("EdgeDegenerate", loop, f"edge at flag {loop} is a loop")
                )
        parts = orbits(m.n_flags, [m.r0, m.r1, m.r2])
        if len(parts) > 1:
            witness = parts[1][0]
            violations.append(
                Violation(
                    "Disconnected",
                    witness,
                    f"flag {witness} is not reachable from flag 0",
                )
            )
        return ValidationReport(not violations, tuple(violations))

    return m._memo(("validation",), build)


def skeleton(m: FlagMap) -> Skeleton:
    """Vertex/edge cells of ``m`` with each edge's two end vertices."""
    _require_map(m)

    def build():
        vertex_of = m.cell_index(VERTEX)
        endpoints = {}
        for e in cells(m, EDGE):
            f = e.id
            ends = tuple(sorted({vertex_of[f], vertex_of[m.r0[f]]}))
            endpoints[e.id] = ends
        return Skeleton(
            vertices=tuple(c.id for c in cells(m, VERTEX)),
            edges=tuple(c.id for c in cells(m, EDGE)),
            endpoints=endpoints,
        )

    return m._memo(("skeleton",), build)


def valence(m: FlagMap, v: int) -> int:
    """Number of edge ends at the vertex cell ``v``."""
    cell = _cell_by_id(m, VERTEX, v)
    return len(cell) // 2


def face_length(m: FlagMap, f: int) -> int:
    """Number of edge sides on the boundary walk of face ``f``.

    Equals the number of wedges inside the face orbit; an edge bordering
    the face on both sides is counted twice.
    """
    cell = _cell_by_id(m, FACE, f)
    return len(cell) // 2


def _cell_by_id(m: FlagMap, kind: str, cid: int) -> Cell:
    _require_map(m)
    table = m._memo(("cell_by_id", kind), lambda: {c.id: c for c in cells(m, kind)})
    try:
        return table[cid]
    except (KeyError, TypeError):
        raise UnknownCell(f"no {kind} cell with id {cid!r}") from None


def uniform_valence(m: FlagMap) -> Optional[int]:
    """The common valence of all vertices, or None for mixed valences."""
    _require_map(m)
    qs = m._memo(("valences",), lambda: {len(v) // 2 for v in cells(m, VERTEX)})
    return next(iter(qs)) if len(qs) == 1 else None


def euler_and_genus(m: FlagMap) -> EulerData:
    """Euler characteristic, orientability and genus of the carrier surface.

    Orientability is bipartiteness of the flag adjacency graph (flags as
    nodes, one link per ``r_i`` pair); the genus is ``(2 - chi) / 2`` for
    orientable surfaces and the cross-cap count ``2 - chi`` otherwise.
    """
    _require_map(m)

    def build():
        chi = (
            len(cells(m, VERTEX))
            - len(cells(m, EDGE))
            + len(cells(m, FACE))
        )
        color = [-1] * m.n_flags
        color[0] = 0
        queue = deque([0])
        orientable = True
        while queue and orientable:
            x = queue.popleft()
            for p in m.involutions():
                y = p[x]
                if color[y] == -1:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    orientable = False
                    break
        genus = (2 - chi) // 2 if orientable else 2 - chi
        return EulerData(chi, orientable, genus)

    return m._memo(("euler",), build)


def _bipartition(adjacency: dict) -> Optional[dict]:
    """Proper 2-coloring of a graph given as id -> iterable of neighbor ids."""
    color = {}
    for start in adjacency:
        if start in color:
            continue
        color[start] = 0
        queue = deque([start])
        while queue:
            x = queue.popleft()
            for y in adjacency[x]:
                if y == x:
                    return None
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def face_bipartition(m: FlagMap) -> Optional[dict]:
    """2-coloring of faces with adjacent faces colored differently, or None.

    Two faces are adjacent when they lie on the two sides of a common edge;
    a face meeting itself across an edge blocks any proper coloring.
    """
    _require_map(m)

    def build():
        face_of = m.cell_index(FACE)
        adjacency = {c.id: set() for c in cells(m, FACE)}
        for e in cells(m, EDGE):
            f = e.id
            a, b = face_of[f], face_of[m.r2[f]]
            adjacency[a].add(b)
            adjacency[b].add(a)
        return _bipartition(adjacency)

    return m._memo(("face2col",), build)


def vertex_bipartition(m: FlagMap) -> Optional[dict]:
    """2-coloring of the skeleton's vertices, or None if not bipartite."""
    _require_map(m)

    def build():
        sk = skeleton(m)
        adjacency = {v: set() for v in sk.vertices}
        for e in sk.edges:
            a, b = sk.endpoints[e]
            adjacency[a].add(b)
            adjacency[b].add(a)
        return _bipartition(adjacency)

    return m._memo(("vertex2col",), build)


def _rotation_table(m: FlagMap) -> dict:
    """Per vertex: darts and wedges in canonical cyclic order.

    Entry ``v -> (flags, darts, wedges)`` where ``flags[k]`` starts dart
    ``darts[k]`` and ``wedges[k]`` is the wedge between ``darts[k]`` and
    ``darts[k+1]``.  The walk starts at the minimum flag of the vertex and
    advances by ``r1`` then ``r2``.
    """

    def build():
        dart_of = m.cell_index(DART)
        wedge_of = m.cell_index(WEDGE)
        table = {}
        for cell in cells(m, VERTEX):
            q = len(cell) // 2
            f = cell.id
            flags, darts, wedges = [], [], []
            for _ in range(q):
                flags.append(f)
                darts.append(dart_of[f])
                wedges.append(wedge_of[f])
                f = m.r2[m.r1[f]]
            table[cell.id] = (tuple(flags), tuple(darts), tuple(wedges))
        return table

    try:
        return m._memo(("rotation",), build)
    except AttributeError:  # no map; a check on the way in would cost every call
        _require_map(m)
        raise


def rotation_at_vertex(m: FlagMap, v: int) -> tuple[int, ...]:
    """Darts at ``v`` in the cyclic order induced by the surface.

    The representative starts at the dart of the vertex's minimum flag and
    advances by applying ``r1`` first; the reversed sequence and any
    rotation of it describe the same embedding.
    """
    table = _rotation_table(m)
    if not isinstance(v, int) or v not in table:
        raise UnknownCell(f"no vertex cell with id {v!r}")
    return table[v][1]


def wedges_at_vertex(m: FlagMap, v: int) -> tuple[int, ...]:
    """Wedges at ``v`` aligned with :func:`rotation_at_vertex`.

    ``wedges[k]`` lies between darts ``k`` and ``k+1`` of the rotation.
    """
    table = _rotation_table(m)
    if not isinstance(v, int) or v not in table:
        raise UnknownCell(f"no vertex cell with id {v!r}")
    return table[v][2]


def face_boundary_wedges(m: FlagMap, f: int) -> tuple[int, ...]:
    """Wedge ids around the face ``f`` in boundary-walk order."""
    cell = _cell_by_id(m, FACE, f)
    wedge_of = m.cell_index(WEDGE)
    p = len(cell) // 2
    out = []
    flag = cell.id
    for _ in range(p):
        out.append(wedge_of[flag])
        flag = m.r1[m.r0[flag]]
    return tuple(out)


def face_boundary_edges(m: FlagMap, f: int) -> tuple[int, ...]:
    """Edge ids along the boundary walk of face ``f`` (repeats possible)."""
    cell = _cell_by_id(m, FACE, f)
    edge_of = m.cell_index(EDGE)
    p = len(cell) // 2
    out = []
    flag = cell.id
    for _ in range(p):
        out.append(edge_of[flag])
        flag = m.r1[m.r0[flag]]
    return tuple(out)


def other_dart(m: FlagMap, d: int) -> int:
    """The dart at the other end of the edge carrying dart ``d``;
    :class:`UnknownCell` for a ``d`` that is no dart id."""
    _require_map(m)
    dart_of = m.cell_index(DART)
    if not (isinstance(d, int) and 0 <= d < m.n_flags and dart_of[d] == d):
        raise UnknownCell(f"no dart cell with id {d!r}")
    return dart_of[m.r0[d]]
