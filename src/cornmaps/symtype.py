"""Symmetry-type graphs of wedge cornerations and their classification.

The quotient of the flag graph by a symmetry group has exactly one dart
per node and color, so an edge-3-colored quotient is fully described by
three involutions on the node set (fixed points are semiedges) plus the
box/oval shape of each node.  Diagrams are stored in exactly that form.
"""

from __future__ import annotations

import itertools
from typing import Iterable, NamedTuple, Optional

from .core import VERTEX, FlagMap, _Frozen, _set, cells, orbits
from .cornerations import Corneration, _require_corneration, face_patterns
from .errors import (
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidDiagram,
    NotTransitive,
    NotWedgeCorneration,
)
from .symmetry import (
    HC, HD, QD, SymGroup, _node_of_flag, _orbit_graph, _require_group, local_action_group
)

BOX = "B"
OVAL = "O"


class Diagram(_Frozen):
    """A vertex-shaped edge-3-colored pregraph with one dart per color.

    ``sigma[c]`` sends each node to the far end of its color-``c`` edge;
    a fixed point is a semiedge.  ``shapes[n]`` is ``"B"`` or ``"O"``.
    """

    __slots__ = ("shapes", "sigma")

    def __init__(self, shapes: tuple[str, ...], sigma: tuple[tuple[int, ...], ...]):
        try:
            _set(self, "shapes", tuple(shapes))
            _set(self, "sigma", tuple(tuple(s) for s in sigma))
        except TypeError:
            raise InvalidDiagram("shapes and sigma must be sequences") from None
        n = len(self.shapes)
        if any(shape not in (BOX, OVAL) for shape in self.shapes):
            raise InvalidDiagram("node shapes must be 'B' or 'O'")
        if len(self.sigma) != 3:
            raise InvalidDiagram("a diagram needs involutions for colors 0, 1, 2")
        for s in self.sigma:
            if len(s) != n or any(type(x) is not int or not 0 <= x < n for x in s):
                raise InvalidDiagram("edge involution does not match the node count")
            if any(s[s[i]] != i for i in range(n)):
                raise InvalidDiagram("edge structure of a color must be an involution")

    @property
    def n_nodes(self) -> int:
        return len(self.shapes)

    def semiedges(self, color: int) -> tuple[int, ...]:
        s = self.sigma[color]
        return tuple(i for i in range(self.n_nodes) if s[i] == i)

    def links(self, color: int) -> tuple[tuple[int, int], ...]:
        s = self.sigma[color]
        return tuple(
            (i, s[i]) for i in range(self.n_nodes) if s[i] > i
        )

    def components(self, colors: Iterable[int]) -> int:
        """Number of connected components of the chosen color subdiagram."""
        return len(orbits(self.n_nodes, [self.sigma[c] for c in colors]))

    def is_connected(self) -> bool:
        return self.components((0, 1, 2)) == 1


def _require_diagram(*diagrams) -> None:
    """Raise :class:`InvalidDiagram` unless each argument is a :class:`Diagram`."""
    for d in diagrams:
        if not isinstance(d, Diagram):
            raise InvalidDiagram(f"not a diagram: {d!r}")


def diagram_isomorphic(a: Diagram, b: Diagram) -> Optional[tuple[int, ...]]:
    """A shape- and color-preserving node bijection, or None."""
    _require_diagram(a, b)
    if a.n_nodes != b.n_nodes:
        return None
    if sorted(a.shapes) != sorted(b.shapes):
        return None
    for pi in itertools.permutations(range(a.n_nodes)):
        if any(a.shapes[i] != b.shapes[pi[i]] for i in range(a.n_nodes)):
            continue
        if all(
            pi[a.sigma[c][i]] == b.sigma[c][pi[i]]
            for c in range(3)
            for i in range(a.n_nodes)
        ):
            return pi
    return None


def satisfies_diagram_constraints(d: Diagram) -> tuple[bool, Optional[str]]:
    """The five requirements a transitive wedge-corneration quotient meets.

    (1) connected with 2 or 4 nodes, (2) 2-edges join different shapes and
    are never semiedges, (3) 1-edges join equal shapes, (4) two distinct
    boxes are 1-adjacent, (5) alternating 0-2 walks of length 4 close up.
    """
    _require_diagram(d)
    n = d.n_nodes
    if n not in (2, 4):
        return False, f"rule 1: diagram has {n} nodes, expected 2 or 4"
    if not d.is_connected():
        return False, "rule 1: diagram is not connected"
    s0, s1, s2 = d.sigma
    for i in range(n):
        if s2[i] == i:
            return False, f"rule 2: color-2 semiedge at node {i}"
        if d.shapes[i] == d.shapes[s2[i]]:
            return False, f"rule 2: color-2 edge at node {i} joins equal shapes"
    for i in range(n):
        if s1[i] != i and d.shapes[i] != d.shapes[s1[i]]:
            return False, f"rule 3: color-1 edge at node {i} joins different shapes"
    boxes = [i for i in range(n) if d.shapes[i] == BOX]
    if len(boxes) == 2 and s1[boxes[0]] != boxes[1]:
        return False, "rule 4: the two boxes are not 1-adjacent"
    for i in range(n):
        if s2[s0[s2[s0[i]]]] != i:
            return False, f"rule 5: 0-2 walk of length 4 from node {i} is not closed"
    return True, None


def enumerate_valid_diagrams() -> list[Diagram]:
    """All diagrams passing the constraints, up to isomorphism."""
    out: list[Diagram] = []
    for n in (2, 4):
        involutions = [
            p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n))
        ]
        for shapes in itertools.product((BOX, OVAL), repeat=n):
            # rules 2 and 3 each read one involution, so they prune the
            # product; every survivor is still checked against all five
            color1 = [
                p for p in involutions
                if all(p[i] == i or shapes[i] == shapes[p[i]] for i in range(n))
            ]
            color2 = [
                p for p in involutions
                if all(p[i] != i and shapes[i] != shapes[p[i]] for i in range(n))
            ]
            for s0, s1, s2 in itertools.product(involutions, color1, color2):
                d = Diagram(shapes, (s0, s1, s2))
                ok, _ = satisfies_diagram_constraints(d)
                if not ok:
                    continue
                if any(diagram_isomorphic(d, seen) for seen in out):
                    continue
                out.append(d)
    return out


class DiagramAttributes(NamedTuple):
    """The classification row of a transitive wedge corneration."""

    node_count: int
    v_orbits: int
    e_orbits: int
    f_orbits: int
    patterns: frozenset
    local_type: str

    def as_tuple(self):
        return (
            self.node_count,
            self.v_orbits,
            self.e_orbits,
            self.f_orbits,
            tuple(sorted(self.patterns)),
            self.local_type,
        )


def _attrs(node_count, v, e, f, patterns, local) -> DiagramAttributes:
    return DiagramAttributes(node_count, v, e, f, frozenset(patterns), local)


# The twelve classification rows.  Orbit counts are the component counts of
# the {1,2}/{0,2}/{0,1} subdiagrams and were cross-derived from the quotient
# structure; the three counts marked in the decisions ledger differ from a
# published rendition of the same table, which is internally inconsistent
# (a pattern-B group is always face-transitive).
ROW_ATTRIBUTES: dict[str, DiagramAttributes] = {
    "a": _attrs(2, 1, 1, 2, "AE", HD),
    "b": _attrs(4, 1, 1, 2, "AE", HC),
    "c": _attrs(4, 1, 2, 2, "AE", HC),
    "d": _attrs(4, 1, 1, 2, "AE", QD),
    "e": _attrs(4, 1, 2, 3, "AE", QD),
    "f": _attrs(2, 1, 1, 1, "B", HD),
    "g": _attrs(4, 1, 1, 1, "B", HC),
    "h": _attrs(4, 1, 2, 1, "B", HC),
    "i": _attrs(4, 1, 1, 1, "B", QD),
    "j": _attrs(4, 1, 2, 1, "B", QD),
    "k": _attrs(4, 1, 2, 2, "CE", QD),
    "l": _attrs(4, 1, 2, 1, "D", HC),
}

# Explicit canonical diagrams, one per row.  Four-node diagrams use nodes
# 0, 1 for the boxes and 2, 3 for the ovals, with the color-2 matching
# fixed as (0 2)(1 3); the color-1 structure distinguishes HC (ovals
# linked) from QD (ovals carrying semiedges).
_S2_4 = (2, 3, 0, 1)
_S1_HC = (1, 0, 3, 2)
_S1_QD = (1, 0, 2, 3)
_ID_4 = (0, 1, 2, 3)

CANONICAL_DIAGRAMS: dict[str, Diagram] = {
    "a": Diagram((BOX, OVAL), ((0, 1), (0, 1), (1, 0))),
    "f": Diagram((BOX, OVAL), ((1, 0), (0, 1), (1, 0))),
    "b": Diagram((BOX, BOX, OVAL, OVAL), ((1, 0, 3, 2), _S1_HC, _S2_4)),
    "c": Diagram((BOX, BOX, OVAL, OVAL), (_ID_4, _S1_HC, _S2_4)),
    "d": Diagram((BOX, BOX, OVAL, OVAL), ((1, 0, 3, 2), _S1_QD, _S2_4)),
    "e": Diagram((BOX, BOX, OVAL, OVAL), (_ID_4, _S1_QD, _S2_4)),
    "g": Diagram((BOX, BOX, OVAL, OVAL), ((3, 2, 1, 0), _S1_HC, _S2_4)),
    "h": Diagram((BOX, BOX, OVAL, OVAL), ((2, 3, 0, 1), _S1_HC, _S2_4)),
    "i": Diagram((BOX, BOX, OVAL, OVAL), ((3, 2, 1, 0), _S1_QD, _S2_4)),
    "j": Diagram((BOX, BOX, OVAL, OVAL), ((2, 3, 0, 1), _S1_QD, _S2_4)),
    "k": Diagram((BOX, BOX, OVAL, OVAL), ((2, 1, 0, 3), _S1_QD, _S2_4)),
    "l": Diagram((BOX, BOX, OVAL, OVAL), ((2, 1, 0, 3), _S1_HC, _S2_4)),
}


def diagram_orbit_counts(d: Diagram) -> tuple[int, int, int]:
    """(vertex, edge, face) orbit counts read off the subdiagrams."""
    return (
        d.components((1, 2)),
        d.components((0, 2)),
        d.components((0, 1)),
    )


def _match_catalog(derived: list[Diagram]) -> None:
    """Raise :class:`InternalInvariantError` unless ``derived`` is the
    catalog up to isomorphism."""
    if len(derived) != 12:
        raise InternalInvariantError(f"expected 12 valid diagrams, derived {len(derived)}")
    unmatched = list(CANONICAL_DIAGRAMS.items())
    for d in derived:
        hit = next(
            (k for k, cd in unmatched if diagram_isomorphic(d, cd) is not None), None
        )
        if hit is None:
            raise InternalInvariantError("derived a diagram missing from the catalog")
        unmatched = [(k, cd) for k, cd in unmatched if k != hit]
    if unmatched:
        raise InternalInvariantError(f"catalog rows not derived: {[k for k, _ in unmatched]}")


def symmetry_type_graph(m: FlagMap, G: SymGroup, L: Corneration) -> Diagram:
    """The quotient of the flag graph by ``G``, shaped by the corneration.

    Nodes are the G-orbits of flags (:func:`~cornmaps.symmetry._orbit_graph`),
    numbered by least flag, and boxes when their flags sit in wedges of
    ``L``.  The group must preserve ``L``, an ``L`` of ``m``, otherwise the
    shape of some orbit is ill-defined.
    """
    _require_corneration(L)
    if L.width != 1:
        raise NotWedgeCorneration("symmetry-type graphs are built over wedge cornerations")
    _require_group(G, m)
    if L.map is not m and L.map != m:  # its wedges are another map's
        raise GroupDoesNotPreserveCorneration("the corneration belongs to a different map")
    in_wedges = L.in_wedges()
    wedge_of = m.cell_index("wedge")
    inside = {}  # node -> whether its flags sit in wedges of L, by least flag
    for f, node in enumerate(_node_of_flag(G)):
        box = wedge_of[f] in in_wedges
        if inside.setdefault(node, box) != box:
            raise GroupDoesNotPreserveCorneration(
                f"orbit of flag {f} mixes wedges inside and outside the corneration"
            )
    number = {node: i for i, node in enumerate(inside)}
    sigma = tuple(tuple(number[r[node]] for node in inside) for r in _orbit_graph(G))
    return Diagram(tuple(BOX if box else OVAL for box in inside.values()), sigma)


class ClassificationResult(NamedTuple):
    letter: Optional[str]
    attributes: DiagramAttributes
    diagram: Diagram

    @property
    def classified(self) -> bool:
        return self.letter is not None


def classify(m: FlagMap, G: SymGroup, L: Corneration) -> ClassificationResult:
    """Match a transitive wedge corneration against the twelve rows.

    Transitivity, and orbit counts as subdiagram components, come from the
    quotient (:func:`symmetry_type_graph`, whose errors come first): a
    corner of ``L`` is its wedge, whose two flags lie in a box b and in
    sigma1(b), so G is transitive on the corners exactly when the boxes are
    {b, sigma1(b)}, else :class:`NotTransitive`.  The pattern letters come
    from the faces of ``L`` and the local type from the vertex stabilizer;
    the full attribute tuple picks a unique row.
    """
    diagram = symmetry_type_graph(m, G, L)
    boxes = [node for node, shape in enumerate(diagram.shapes) if shape == BOX]
    if set(boxes) != {boxes[0], diagram.sigma[1][boxes[0]]}:
        raise NotTransitive("classification needs a group transitive on the corners")
    v, e, f = diagram_orbit_counts(diagram)
    patterns = face_patterns(L).letters
    v0 = min(c.id for c in cells(m, VERTEX))
    local = local_action_group(G, v0).tag
    attrs = DiagramAttributes(
        diagram.n_nodes, v, e, f, frozenset(patterns), local
    )
    letter = next(
        (k for k, row in ROW_ATTRIBUTES.items() if row == attrs), None
    )
    return ClassificationResult(letter, attrs, diagram)
