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
from typing import NamedTuple, Optional, Sequence

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


_set = object.__setattr__  # how a frozen record's ``__init__`` sets its fields


class _Record:
    """A slotted record whose ``__slots__`` are its fields; a leading ``_``
    marks private state.  It is shown as ``Name(field=value, ...)`` and equals
    another record of its class with the same :meth:`_key`, the tuple of its fields."""

    __slots__ = ()
    __hash__ = None  # mutable

    def _key(self) -> tuple:
        return tuple(getattr(self, name) for name in self.__slots__ if name[0] != "_")

    def __eq__(self, other):
        return self._key() == other._key() if other.__class__ is self.__class__ else NotImplemented

    def __repr__(self):
        fields = (f"{n}={getattr(self, n)!r}" for n in self.__slots__ if n[0] != "_")
        return f"{type(self).__name__}({', '.join(fields)})"


class _Frozen(_Record):
    """A record whose fields ``__init__`` sets once, with :data:`_set`; it
    hashes as its :meth:`_key`."""

    __slots__ = ()

    def __hash__(self):
        return hash(self._key())

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


class Cell(_Frozen):
    """An incidence cell of a map: an orbit of flags.

    The id is the minimum flag of the orbit, which is stable under any
    re-listing of cells and survives serialization.
    """

    __slots__ = ("kind", "id", "flags")

    def __init__(self, kind: str, id: int, flags: tuple[int, ...]):
        _set(self, "kind", kind)
        _set(self, "id", id)
        _set(self, "flags", flags)

    def __len__(self) -> int:
        return len(self.flags)


class Skeleton(_Frozen):
    """Vertex and edge cells of a map with the incidence between them."""

    __slots__ = ("vertices", "edges", "endpoints")
    __eq__, __hash__ = object.__eq__, object.__hash__  # compared by identity

    def __init__(self, vertices: tuple[int, ...], edges: tuple[int, ...], endpoints: dict):
        _set(self, "vertices", vertices)
        _set(self, "edges", edges)
        _set(self, "endpoints", endpoints)

    def is_simple(self) -> bool:
        seen = set()
        for e in self.edges:
            pair = self.endpoints[e]
            if pair in seen:
                return False
            seen.add(pair)
        return True


class Circuit(_Frozen):
    """A closed walk with pairwise distinct edges, stored as a dart cycle.

    ``darts`` lists one traversal direction; consecutive darts share a
    vertex and each edge of the circuit appears under exactly one dart.
    """

    __slots__ = ("darts", "edges")

    def __init__(self, darts: tuple[int, ...], edges: frozenset):
        _set(self, "darts", darts)
        _set(self, "edges", edges)

    def __len__(self) -> int:
        return len(self.darts)


class Violation(NamedTuple):
    code: str
    witness: Optional[int]
    message: str


class ValidationReport(NamedTuple):
    ok: bool
    violations: tuple[Violation, ...]

    def codes(self) -> tuple[str, ...]:
        return tuple(v.code for v in self.violations)


class EulerData(NamedTuple):
    chi: int
    orientable: bool
    genus: int


class FlagMap(_Frozen):
    """A map on a surface given by its flag set and the involutions r0/r1/r2.

    Instances are immutable; derived data (cells, rotations, skeleton) is
    memoized internally, so all operations are safe to share across threads.
    Construction performs only structural checks; :func:`validate` decides
    whether the axioms of a map hold.
    """

    __slots__ = ("n_flags", "r0", "r1", "r2", "name", "_cache")

    def __init__(self, n_flags: int, r0: Perm, r1: Perm, r2: Perm, name: Optional[str] = None):
        _set(self, "n_flags", n_flags)
        for attr, r in (("r0", r0), ("r1", r1), ("r2", r2)):
            try:
                p = tuple(int(x) for x in r)
            except (TypeError, ValueError):
                raise MalformedFlagSystem(f"{attr} is not a sequence of flag ids") from None
            if len(p) != n_flags:
                raise MalformedFlagSystem(f"{attr} has length {len(p)}, expected {n_flags}")
            if any(x < 0 or x >= n_flags for x in p):
                raise MalformedFlagSystem(f"{attr} contains an out-of-range image")
            _set(self, attr, p)
        if n_flags <= 0:
            raise MalformedFlagSystem("a map needs a positive number of flags")
        _set(self, "name", name)
        _set(self, "_cache", {})

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

    try:
        return m._memo(("cells", kind), build)
    except AttributeError:  # no map, as in :func:`_rotation_table`
        _require_map(m)
        raise


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
    orientable surfaces and the cross-cap count ``2 - chi`` otherwise.  On a
    flag system that is not connected (no map) the verdict covers every
    component.
    """
    _require_map(m)

    def build():
        chi = len(cells(m, VERTEX)) - len(cells(m, EDGE)) + len(cells(m, FACE))
        orientable = _flags_bipartite(m)
        genus = (2 - chi) // 2 if orientable else 2 - chi
        return EulerData(chi, orientable, genus)

    return m._memo(("euler",), build)


def _flags_bipartite(m: FlagMap) -> bool:
    """Whether every component of the flag graph has a proper 2-coloring."""
    r0, r1, r2 = m.involutions()
    color = [-1] * m.n_flags  # by flag: a list, where _bipartition keeps a dict
    for start in m.flags():
        if color[start] < 0:
            color[start], component = 0, [start]
            for x in component:  # breadth first: the list grows while it is read
                for y in (r0[x], r1[x], r2[x]):
                    if color[y] < 0:
                        color[y] = 1 - color[x]
                        component.append(y)
                    elif color[y] == color[x]:
                        return False
    return True


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
                if y not in color:
                    color[y] = 1 - color[x]
                    queue.append(y)
                elif color[y] == color[x]:
                    return None
    return color


def _face_adjacency(m: FlagMap) -> dict[int, set]:
    """Face id -> ids of the faces across its edges (itself, where a face meets
    itself across an edge); memoized, so read it and never change it."""

    def build():
        face_of = m.cell_index(FACE)
        adjacency = {c.id: set() for c in cells(m, FACE)}
        for e in cells(m, EDGE):
            f = e.id
            a, b = face_of[f], face_of[m.r2[f]]
            adjacency[a].add(b)
            adjacency[b].add(a)
        return adjacency

    return m._memo(("face_adjacency",), build)


def face_bipartition(m: FlagMap) -> Optional[dict]:
    """2-coloring of faces with adjacent faces colored differently, or None.

    Two faces are adjacent when they lie on the two sides of a common edge;
    a face meeting itself across an edge blocks any proper coloring.
    """
    _require_map(m)
    return m._memo(("face2col",), lambda: _bipartition(_face_adjacency(m)))


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


def face_boundary_wedges(m: FlagMap, f: int) -> tuple[int, ...]:
    """Wedge ids around the face ``f`` in boundary-walk order."""
    return _face_walk(m, f, WEDGE)


def face_boundary_edges(m: FlagMap, f: int) -> tuple[int, ...]:
    """Edge ids along the boundary walk of face ``f`` (repeats possible)."""
    return _face_walk(m, f, EDGE)


def _face_walk(m: FlagMap, f: int, kind: str) -> tuple[int, ...]:
    """The ``kind`` cell of each flag met walking the boundary of face ``f``
    from its id by ``r0`` then ``r1``, one flag per side."""
    cell = _cell_by_id(m, FACE, f)
    index = m.cell_index(kind)
    out = []
    flag = cell.id
    for _ in range(len(cell) // 2):
        out.append(index[flag])
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
