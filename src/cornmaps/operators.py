"""Operators relating maps on the same skeleton, and map isomorphism.

The Petrie operator is realized on flags by replacing ``r0`` with
``r0 r2`` (the alternative convention would replace ``r2``; the two give
isomorphic results, and every check in this package is isomorphism-level).
"""

from __future__ import annotations

from typing import NamedTuple, Optional

from .core import (
    DART,
    EDGE,
    FACE,
    VERTEX,
    FlagMap,
    _require_map,
    cells,
    compose,
    face_length,
    orbits,
    uniform_valence,
    valence,
    validate,
)
from .errors import DegenerateResult, NonUniformValence, WidthOutOfRange


class OperatorResult(NamedTuple):
    """Maps produced by an operator together with the flag correspondence.

    ``correspondence[f] = (component, flag)`` locates each original flag in
    the disjoint union of the component flag sets.  ``width`` records the
    hole width for the j-hole operator (1 otherwise).
    """

    source: FlagMap
    maps: tuple[FlagMap, ...]
    correspondence: tuple[tuple[int, int], ...]
    width: int = 1


def _checked(m: FlagMap, operator: str) -> FlagMap:
    report = validate(m)
    if not report.ok:
        first = report.violations[0]
        raise DegenerateResult(f"{operator} produced an invalid map: {first.message}")
    return m


def dual(m: FlagMap) -> FlagMap:
    """Swap the roles of vertices and faces: exchange ``r0`` and ``r2``."""
    _require_map(m)
    out = FlagMap(m.n_flags, m.r2, m.r1, m.r0, name=_wrap_name("dual", m.name))
    return _checked(out, "dual")


def petrie(m: FlagMap) -> FlagMap:
    """Respan the skeleton along zigzag paths: replace ``r0`` by ``r0 r2``.

    Vertices, edges and darts are untouched, so the skeleton of the result
    is identical to that of ``m``; the faces become the zigzag circuits.
    """
    _require_map(m)
    out = FlagMap(
        m.n_flags,
        compose(m.r0, m.r2),
        m.r1,
        m.r2,
        name=_wrap_name("petrie", m.name),
    )
    return _checked(out, "petrie")


def opposite(m: FlagMap) -> FlagMap:
    """dual(petrie(dual(m))): keeps the faces, reglues them edge-reversed."""
    out = dual(petrie(dual(m)))
    return FlagMap(out.n_flags, out.r0, out.r1, out.r2, name=_wrap_name("opp", m.name))


def _wrap_name(op: str, name: Optional[str]) -> Optional[str]:
    return f"{op}({name})" if name else None


def hole(m: FlagMap, j: int) -> OperatorResult:
    """Respan the skeleton with holes of the given width.

    Replaces ``r1`` by ``r1 (r2 r1)^(j-1)``.  When ``gcd(j, q) > 1`` the
    new flag system decomposes into several maps; each vertex splits into
    ``gcd(j, q)`` vertices of valence ``q / gcd(j, q)``.  Components are
    returned with flags renumbered in increasing original-flag order.
    """
    _require_map(m)
    q = uniform_valence(m)
    if q is None:
        raise NonUniformValence("the hole operator needs a uniform valence")
    if not (isinstance(j, int) and 1 <= j < q):
        raise WidthOutOfRange(f"hole width must satisfy 1 <= j < {q}, got {j!r}")

    word = m.r1
    step = compose(m.r2, m.r1)
    for _ in range(j - 1):
        word = compose(word, step)
    new_r1 = word

    parts = orbits(m.n_flags, [m.r0, new_r1, m.r2])
    maps = []
    correspondence: list[tuple[int, int]] = [(-1, -1)] * m.n_flags
    for ci, part in enumerate(parts):
        local = {f: i for i, f in enumerate(part)}
        size = len(part)
        r0 = tuple(local[m.r0[f]] for f in part)
        r1 = tuple(local[new_r1[f]] for f in part)
        r2 = tuple(local[m.r2[f]] for f in part)
        name = _wrap_name(f"hole{j}", m.name)
        if name and len(parts) > 1:
            name = f"{name}[{ci}]"
        component = FlagMap(size, r0, r1, r2, name=name)
        _checked(component, f"hole(j={j})")
        maps.append(component)
        for f in part:
            correspondence[f] = (ci, local[f])
    return OperatorResult(m, tuple(maps), tuple(correspondence), width=j)


def is_isomorphic(a: FlagMap, b: FlagMap) -> Optional[tuple[int, ...]]:
    """A flag bijection intertwining the involutions, or None.

    The action of ``<r0, r1, r2>`` is transitive, so the image of flag 0
    determines the whole bijection; every candidate image in ``b`` is
    tried in increasing order and the first consistent one is returned.
    """
    _require_map(a)
    _require_map(b)
    if a.n_flags != b.n_flags:
        return None
    if not _invariants_agree(a, b):
        return None
    for target in range(b.n_flags):
        phi = _propagate(a, b, target)
        if phi is not None:
            return phi
    return None


def _invariants_agree(a: FlagMap, b: FlagMap) -> bool:
    for kind in (VERTEX, EDGE, FACE, DART):
        if len(cells(a, kind)) != len(cells(b, kind)):
            return False
    if sorted(valence(a, v.id) for v in cells(a, VERTEX)) != sorted(
        valence(b, v.id) for v in cells(b, VERTEX)
    ):
        return False
    if sorted(face_length(a, f.id) for f in cells(a, FACE)) != sorted(
        face_length(b, f.id) for f in cells(b, FACE)
    ):
        return False
    return True


def _propagate(a: FlagMap, b: FlagMap, target: int) -> Optional[tuple[int, ...]]:
    n = a.n_flags
    phi = [-1] * n
    phi[0] = target
    stack = [0]
    ra = a.involutions()
    rb = b.involutions()
    while stack:
        f = stack.pop()
        for i in range(3):
            g = ra[i][f]
            image = rb[i][phi[f]]
            if phi[g] == -1:
                phi[g] = image
                stack.append(g)
            elif phi[g] != image:
                return None
    if len(set(phi)) != n:
        return None
    return tuple(phi)
