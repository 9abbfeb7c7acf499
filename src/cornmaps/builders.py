"""Constructors for the named example maps and for rotation systems.

All builders produce validated :class:`~cornmaps.core.FlagMap` values with a
deterministic flag numbering: vertices are laid out in the order given (or
documented), each vertex of valence ``q`` owns ``2 q`` consecutive flags,
two per dart in rotation order.
"""

from __future__ import annotations

from typing import Optional

from . import cornerations as corn
from .core import FlagMap
from .errors import (
    DegenerateParameters,
    InconsistentRotation,
    InternalInvariantError,
    InvalidMapError,
)


def _from_rotation_system(rotations, twists=None, name=None):
    """Build a flag system from per-vertex rotations; return ``(map, base)``.

    ``rotations`` maps a vertex label to the cyclic sequence of edge labels
    around it; ``twists`` maps an edge label to +1 (orientation-consistent
    gluing) or -1.  ``base[v]`` is the first flag of vertex ``v``, so the
    k-th edge end at ``v`` is the dart cell with id ``base[v] + 2 * k``.
    """
    if not rotations:
        raise InconsistentRotation("empty rotation system")
    try:
        twists = dict(twists or {})
        occurrences: dict = {}
        for v, around in rotations.items():
            if len(around) == 0:
                raise InconsistentRotation(f"vertex {v!r} has no incident edges")
            for k, e in enumerate(around):
                occurrences.setdefault(e, []).append((v, k))
    except (AttributeError, TypeError, ValueError) as exc:
        raise InconsistentRotation(
            f"rotations must map vertices to edge label sequences, twists edges to signs: {exc}"
        ) from None
    for e, occ in occurrences.items():
        if len(occ) != 2:
            raise InconsistentRotation(
                f"edge {e!r} appears {len(occ)} times, expected exactly 2"
            )
        if occ[0][0] == occ[1][0]:
            raise InconsistentRotation(f"edge {e!r} is a loop at vertex {occ[0][0]!r}")
    for e, twist in twists.items():
        if e not in occurrences:
            raise InconsistentRotation(f"twist given for unknown edge {e!r}")
        if twist not in (1, -1):
            raise InconsistentRotation(f"twist {twist!r} of edge {e!r} is neither +1 nor -1")

    base = {}
    n = 0
    for v, around in rotations.items():
        base[v] = n
        n += 2 * len(around)

    def flag(v, k, side):
        return base[v] + 2 * k + side

    r0 = [0] * n
    r1 = [0] * n
    r2 = [0] * n
    for v, around in rotations.items():
        q = len(around)
        for k in range(q):
            # side 0 faces the previous edge of the rotation, side 1 the next
            r2[flag(v, k, 0)] = flag(v, k, 1)
            r2[flag(v, k, 1)] = flag(v, k, 0)
            r1[flag(v, k, 1)] = flag(v, (k + 1) % q, 0)
            r1[flag(v, (k + 1) % q, 0)] = flag(v, k, 1)
    for e, occ in occurrences.items():
        (va, ka), (vb, kb) = occ
        if twists.get(e, 1) >= 0:
            pairs = [((va, ka, 1), (vb, kb, 0)), ((va, ka, 0), (vb, kb, 1))]
        else:
            pairs = [((va, ka, 1), (vb, kb, 1)), ((va, ka, 0), (vb, kb, 0))]
        for (u, i, s), (w, j, t) in pairs:
            r0[flag(u, i, s)] = flag(w, j, t)
            r0[flag(w, j, t)] = flag(u, i, s)

    m = FlagMap(n, tuple(r0), tuple(r1), tuple(r2), name=name)
    try:
        m.require_valid()
    except InvalidMapError as exc:
        raise InconsistentRotation(f"rotation system yields an invalid map: {exc}") from exc
    return m, base


def from_rotation_system(rotations, twists=None, name=None) -> FlagMap:
    """The unique flag system whose vertex rotations match the input.

    See :func:`_from_rotation_system` for the input conventions;
    :class:`InconsistentRotation` for input that follows none.  The
    rotations of the result agree with the input up to the choice of
    starting dart and direction at each vertex.
    """
    return _from_rotation_system(rotations, twists, name)[0]


def _torus_rotations(rows: int, cols: int) -> dict:
    """Rotations of the torus grid; at ``(r, c)`` the edges run east,
    north, west, south."""
    if not (isinstance(rows, int) and isinstance(cols, int)) or rows < 2 or cols < 2:
        raise DegenerateParameters(
            f"torus grid needs int rows >= 2 and cols >= 2, got {rows!r} and {cols!r}"
        )
    return {
        (r, c): [
            ("h", r, c),
            ("v", r, c),
            ("h", r, (c - 1) % cols),
            ("v", (r - 1) % rows, c),
        ]
        for r in range(rows)
        for c in range(cols)
    }


def build_torus_grid(rows: int, cols: int, name: Optional[str] = None) -> FlagMap:
    """The 4-valent quadrangulated torus on ``rows x cols`` vertices.

    Vertices are ``(r, c)`` with horizontal edges to ``(r, c+1)`` and
    vertical edges to ``(r+1, c)``, indices wrapping around.  Both sizes
    must be at least 2, otherwise wraparound creates loops.
    """
    rotations = _torus_rotations(rows, cols)
    try:
        return from_rotation_system(rotations, name=name or f"torus{rows}x{cols}")
    except InconsistentRotation as exc:
        raise DegenerateParameters(str(exc)) from exc


def _antiprism_rotations(n: int) -> dict:
    """Rotations of the n-antiprism: the ring ``u`` first, then ``w``."""
    if not isinstance(n, int) or n < 3:
        raise DegenerateParameters(f"antiprism needs an int n >= 3, got {n!r}")
    rotations = {}
    for k in range(n):
        rotations[("u", k)] = [("p", k), ("t", k), ("t", (k - 1) % n), ("q", (k - 1) % n)]
    for k in range(n):
        rotations[("w", k)] = [("b", k), ("q", k), ("p", k), ("b", (k - 1) % n)]
    return rotations


def build_antiprism(n: int, name: Optional[str] = None) -> FlagMap:
    """The n-antiprism on the sphere: two n-gons joined by 2n triangles.

    Vertices ``u_0..u_{n-1}`` form one n-gon and ``w_0..w_{n-1}`` the
    other, with ``w_k`` adjacent to ``u_k`` and ``u_{k+1}``.
    """
    rotations = _antiprism_rotations(n)
    try:
        return from_rotation_system(rotations, name=name or f"antiprism{n}")
    except InconsistentRotation as exc:
        raise DegenerateParameters(str(exc)) from exc


def build_cube(name: str = "cube") -> FlagMap:
    """The spherical cube map: 8 vertices, 12 edges, 6 squares."""
    rotations = {}
    for i in range(4):
        rotations[("in", i)] = [("m", i), ("t", i), ("t", (i - 1) % 4)]
    for i in range(4):
        rotations[("out", i)] = [("b", i), ("m", i), ("b", (i - 1) % 4)]
    return from_rotation_system(rotations, name=name)


def build_tetrahedron(name: str = "tetrahedron") -> FlagMap:
    """The spherical tetrahedron map: 4 vertices, 4 triangles."""
    rotations = {
        3: [("s", 0), ("s", 1), ("s", 2)],
        0: [("o", 0), ("s", 0), ("o", 2)],
        1: [("o", 1), ("s", 1), ("o", 0)],
        2: [("o", 2), ("s", 2), ("o", 1)],
    }
    return from_rotation_system(rotations, name=name)


def build_theta(k: int, name: Optional[str] = None) -> FlagMap:
    """Two vertices joined by ``k`` parallel edges; all faces are 2-gons."""
    if not isinstance(k, int) or k < 2:
        raise DegenerateParameters(f"a theta map needs an int k >= 2 (parallel edges), got {k!r}")
    rotations = {
        "u": [("e", i) for i in reversed(range(k))],
        "w": [("e", i) for i in range(k)],
    }
    return from_rotation_system(rotations, name=name or f"theta{k}")


def build_antiprism_corneration(n: int):
    """The n-antiprism with its band corneration; returns ``(map, L)``.

    ``L`` consists of the two wedges of every triangle that touch the edge
    shared with an n-gon; the n-gons contribute no wedges.
    """
    m, base = _from_rotation_system(_antiprism_rotations(n), name=f"antiprism{n}")
    pairs = []
    for k in range(n):
        for ring in ("u", "w"):
            d = base[(ring, k)]  # darts d, d + 2, d + 4 and d + 6 in rotation order
            pairs += [(d, d + 2), (d + 4, d + 6)]
    numbers = [corn._pair_number(m, darts) for darts in pairs]
    return m, corn._corneration_from(m, numbers, InternalInvariantError, "antiprism band corners")


def build_torus_grid_corneration(rows: int, cols: int):
    """Torus grid with the row-consistent, column-alternating corneration.

    Every square face selects one of its two vertical edges (the left one
    on even rows, the right one on odd rows) and contributes the two face
    wedges at that edge.  ``rows`` must be even for the alternation to
    close up around the torus; returns ``(map, L)``.
    """
    rotations = _torus_rotations(rows, cols)
    if rows % 2 != 0:
        raise DegenerateParameters("the alternating corneration needs an even number of rows")
    m, base = _from_rotation_system(rotations, name=f"torus{rows}x{cols}")
    # at (r, c) the darts east, north, west and south are base[(r, c)] + 0, 2, 4 and 6
    pairs = []
    for r in range(rows):
        for c in range(cols):
            if r % 2 == 0:
                a, b = base[(r, c)], base[((r + 1) % rows, c)]
                pairs += [(a, a + 2), (b + 6, b)]
            else:
                a, b = base[(r, (c + 1) % cols)], base[((r + 1) % rows, (c + 1) % cols)]
                pairs += [(a + 2, a + 4), (b + 4, b + 6)]
    numbers = [corn._pair_number(m, darts) for darts in pairs]
    return m, corn._corneration_from(m, numbers, InternalInvariantError, "grid corners")
