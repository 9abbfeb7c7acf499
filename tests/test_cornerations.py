import random
from collections import Counter
import tracemalloc
from itertools import combinations

import pytest

import cornmaps.cornerations as corn
from cornmaps.builders import (
    build_antiprism,
    build_antiprism_corneration,
    build_cube,
    build_tetrahedron,
    build_theta,
    build_torus_grid,
    build_torus_grid_corneration,
    from_rotation_system,
)
from cornmaps.core import (
    FlagMap,
    _rotation_table,
    cells,
    face_boundary_edges,
    face_length,
    order_mod,
    other_dart,
    rotation_at_vertex,
    uniform_valence,
    valence,
)
from cornmaps.errors import (
    CircuitTooShort,
    CornMapsError,
    CornerationMismatch,
    DegenerateParameters,
    GroupDoesNotPreserveCorneration,
    GroupNotSubgroup,
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
from cornmaps.fileio import parse_corneration, write_corneration
from cornmaps.operators import hole, opposite, petrie
from cornmaps.splitgraph import (
    build_construction,
    cubic_filter,
    graph_A,
    predicted_local_connectivity,
    split,
    verify_vertex_transitive,
)
from cornmaps.symmetry import (
    SymGroup,
    automorphism_group,
    local_action_group,
    subgroups_up_to_index,
)
from cornmaps.symtype import classify, symmetry_type_graph
from cornmaps.verify import _all_cornerations_mixed, _vertex_covers_all_widths
from conftest import relabelled


def trivial_group(m):
    return SymGroup(m, (tuple(range(m.n_flags)),))


def straight_corneration(m):
    A = automorphism_group(m)
    q = {len(v.flags) // 2 for v in cells(m, "vertex")}.pop()
    (L,) = corn.enumerate_invariant_cornerations(m, A, q // 2)
    return L


# -- corners ----------------------------------------------------------------


def test_all_j_corners_returns_a_fresh_list(torus44):
    first = corn.all_j_corners(torus44, 1)
    assert len(first) == 16 * 4
    first.clear()
    assert len(corn.all_j_corners(torus44, 1)) == 16 * 4


def test_all_j_corners_counts(cube, torus44, opp44):
    assert len(corn.all_j_corners(cube, 1)) == 24  # all corners at valence 3
    assert len(corn.all_j_corners(torus44, 2)) == 16 * 2  # straight pairs
    assert len(corn.all_j_corners(opp44, 3)) == 8 * 8
    with pytest.raises(WidthOutOfRange):
        corn.all_j_corners(cube, 2)
    with pytest.raises(WidthOutOfRange):
        corn.all_j_corners(torus44, 0)


def test_bounds_that_are_no_ints_raise_library_errors(torus44):
    A = automorphism_group(torus44)
    for k in ("2", 2.5):
        with pytest.raises(DegenerateParameters):
            subgroups_up_to_index(A, k)
    with pytest.raises(WidthOutOfRange):
        corn.enumerate_transitive_cornerations(torus44, "1")
    assert [len(subgroups_up_to_index(A, k)) for k in (-1, 0, 1, 2)] == [0, 0, 1, 8]
    assert len(corn.enumerate_transitive_cornerations(torus44, 1)) == 8


WRONG_VERTEX_OR_WIDTH_CALLS = {
    "local_action_group": (UnknownCell, lambda m, L: local_action_group(automorphism_group(m), [1])),
    "local_corneration": (UnknownCell, lambda m, L: corn.local_corneration(L, [1])),
    "local_corneration of None": (CornerationMismatch, lambda m, L: corn.local_corneration(None, 0)),
    "valence": (UnknownCell, lambda m, L: valence(m, [1])),
    "face_length": (UnknownCell, lambda m, L: face_length(m, [1])),
    "corner_of_dart": (UnknownCell, lambda m, L: L.corner_of_dart([1])),
    "all_j_corners": (WidthOutOfRange, lambda m, L: corn.all_j_corners(m, "x")),
    "other_dart of a list": (UnknownCell, lambda m, L: other_dart(m, [1])),
    "other_dart beyond the flags": (UnknownCell, lambda m, L: other_dart(m, 10**6)),
    "other_dart of a negative id": (UnknownCell, lambda m, L: other_dart(m, -1)),
    "other_dart of a flag that is no dart": (UnknownCell, lambda m, L: other_dart(m, 5)),
    "subgroup_from_images of None": (
        GroupNotSubgroup,
        lambda m, L: automorphism_group(m).subgroup_from_images(None),
    ),
    "symmetric_cornerations_from_coloring": (
        WidthOutOfRange,
        lambda m, L: corn.symmetric_cornerations_from_coloring(m, "x"),
    ),
    "hole": (WidthOutOfRange, lambda m, L: hole(m, "x")),
}


@pytest.mark.parametrize("name", WRONG_VERTEX_OR_WIDTH_CALLS)
def test_unhashable_vertices_and_widths_that_are_no_ints_raise_library_errors(torus44, name):
    error, call = WRONG_VERTEX_OR_WIDTH_CALLS[name]
    assert issubclass(error, CornMapsError)
    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    v = cells(torus44, "vertex")[0].id
    # the same calls with a vertex id and an int width work
    assert local_action_group(automorphism_group(torus44), v).tag
    assert corn.local_corneration(L, v).classification == corn.STANDARD_ODD
    assert corn.all_j_corners(torus44, 1) and hole(torus44, 1).maps
    with pytest.raises(error) as raised:
        call(torus44, L)
    assert raised.type is error


def test_corner_fields(opp44):
    for c in corn.all_j_corners(opp44, 3):
        assert c.width == 3
        assert not c.straight
        assert len(c.interior_wedges) == 3
        assert len(c.boundary_wedges) == 4
        assert len(c.interior_boundary_wedges) == 2
        assert len(c.exterior_boundary_wedges) == 2


def test_straight_corner_fields(torus44):
    for c in corn.all_j_corners(torus44, 2):
        assert c.straight
        assert c.interior_wedges == frozenset()
        assert len(c.boundary_wedges) == 4


def test_wedge_corner_fields(cube):
    for c in corn.all_j_corners(cube, 1):
        assert len(c.interior_wedges) == 1
        assert c.interior_boundary_wedges == c.interior_wedges
        assert len(c.boundary_wedges) == 3  # q = 3 leaves only three wedges


def walked_geometry(m, v, a, b):
    """Width, straightness, interior and boundary wedges of the corner on
    darts ``a`` and ``b`` at ``v``, by walking its vertex rotation: each side
    is the run of wedges met going round from one dart to the other."""
    rotation, wedges = rotation_at_vertex(m, v), _rotation_table(m)[v][2]
    q = len(rotation)

    def side(start, stop):
        run, k = [], rotation.index(start)
        while rotation[k] != stop:
            run.append(wedges[k])
            k = (k + 1) % q
        return run

    ab, ba = side(a, b), side(b, a)
    boundary = set()
    for k, d in enumerate(rotation):
        if d in (a, b):
            boundary.update((wedges[k - 1], wedges[k]))
    straight = len(ab) == len(ba)
    interior = [] if straight else min(ab, ba, key=len)
    return min(len(ab), len(ba)), straight, frozenset(interior), frozenset(boundary)


def wheel4():
    """A hub of valence 4 and a rim of four vertices of valence 3."""
    rotations = {"hub": [("s", i) for i in range(4)]}
    for i in range(4):
        rotations[i] = [("s", i), ("r", i), ("r", (i - 1) % 4)]
    return from_rotation_system(rotations, name="wheel4")


GEOMETRY_MAPS = {
    "torus4x4": lambda: build_torus_grid(4, 4),
    "torus4x4~3": lambda: relabelled(build_torus_grid(4, 4), 3),
    "opp(torus4x4)": lambda: opposite(build_torus_grid(4, 4)),
    **{f"theta{k}": (lambda k=k: build_theta(k)) for k in range(2, 7)},
    "cube": build_cube,
    "tetrahedron": build_tetrahedron,
    "antiprism3": lambda: build_antiprism(3),
    "wheel4": wheel4,
}


@pytest.mark.parametrize("name", GEOMETRY_MAPS)
def test_every_numbered_corner_has_the_geometry_of_its_rotation_walk(name):
    m = GEOMETRY_MAPS[name]()
    keys = corn._corner_numbering(m)[2]
    assert keys
    for v, (a, b) in keys:
        c = corn.corner_from_darts(m, (a, b))
        assert (c.vertex, c.darts) == (v, (a, b))
        geometry = (c.width, c.straight, c.interior_wedges, c.boundary_wedges)
        assert geometry == walked_geometry(m, v, a, b), (name, v, a, b)


def test_corner_needs_one_vertex(theta4):
    # the two darts of one edge sit at different vertices, so no corner
    dart_of = theta4.cell_index("dart")
    e0 = cells(theta4, "edge")[0]
    d1 = dart_of[e0.id]
    d2 = dart_of[theta4.r0[e0.id]]
    assert d1 != d2
    with pytest.raises(ValueError):
        corn.corner_from_darts(theta4, (d1, d2))
    with pytest.raises(ValueError):
        corn.corner_from_darts(theta4, (d1, d1))


def test_corner_from_darts_raises_library_errors():
    m = build_torus_grid(4, 4)
    dart_ids = {c.id for c in cells(m, "dart")}
    assert 0 in dart_ids and 5 not in dart_ids and 5 < m.n_flags
    with pytest.raises(InvalidCorner):
        corn.corner_from_darts(m, (0, 0))
    for bad in (5, 10**6):
        with pytest.raises(UnknownCell):
            corn.corner_from_darts(m, (0, bad))
    # parsers and oracles catch ValueError
    assert issubclass(InvalidCorner, ValueError)


def one_loop():
    """One vertex and one loop on the sphere, built by hand as maps refuse loops."""
    return FlagMap(4, (2, 3, 0, 1), (3, 2, 1, 0), (1, 0, 3, 2))


def test_the_two_darts_of_a_loop_span_no_corner():
    with pytest.raises(InvalidCorner, match="same edge"):
        corn.corner_from_darts(one_loop(), (0, 2))


def test_a_corneration_file_cannot_name_the_two_darts_of_a_loop():
    with pytest.raises(CornerationMismatch, match="same edge"):
        parse_corneration("cornfile 1\nj 1\ncorner: 0 2\n", one_loop())


def test_the_two_darts_of_a_loop_are_no_j_corner():
    m = one_loop()
    assert uniform_valence(m) == 2
    assert corn.all_j_corners(m, 1) == []


BAD_CORNER_INPUTS = [
    ("wedge", -1, UnknownCell),
    ("wedge", 10**6, UnknownCell),
    ("wedge", 7, UnknownCell),  # the second flag of wedge 0, not a wedge id
    ("wedge", "a", UnknownCell),
    ("darts", (0, 1, 2), InvalidCorner),
    ("darts", (0,), InvalidCorner),
    ("darts", 7, InvalidCorner),
    ("darts", ("a", 0), UnknownCell),
    ("darts", (0, "a"), UnknownCell),
    ("darts", (0.0, 2), UnknownCell),
    ("darts", (-2, 0), UnknownCell),
]


@pytest.mark.parametrize("warm", [False, True], ids=["cold", "warm"])
@pytest.mark.parametrize("kind,arg,error", BAD_CORNER_INPUTS, ids=repr)
def test_corner_constructors_reject_non_ids(kind, arg, error, warm):
    m = build_torus_grid(4, 4)
    assert m.r1[0] == 7
    if warm:
        for j in (1, 2):
            corn.all_j_corners(m, j)
    construct = corn.corner_of_wedge if kind == "wedge" else corn.corner_from_darts
    with pytest.raises(error):
        construct(m, arg)


def test_each_corner_is_built_once_per_map():
    m = build_torus_grid(4, 4)
    a, b = corn.all_j_corners(build_torus_grid(4, 4), 1)[5].darts
    first = corn.corner_from_darts(m, (b, a))  # a cold table, reversed pair
    assert first is corn.corner_from_darts(m, (a, b))
    assert first.darts == (a, b)
    wedges = corn.all_j_corners(m, 1)
    assert first in wedges
    for c in wedges:
        assert corn.corner_from_darts(m, c.darts) is c
        assert corn.corner_from_darts(m, c.darts[::-1]) is c
        (w,) = c.interior_wedges
        assert corn.corner_of_wedge(m, w) is c
    # another map with the same darts keeps its own corners
    other = build_torus_grid(4, 4)
    assert corn.corner_from_darts(other, (a, b)) is not first


def built_corners(*maps) -> list:
    """The corners built so far on these maps: the filled slots of their corner tables."""
    return [c for m in maps for c in corn._corner_numbering(m)[4] if c is not None]


def test_the_sweep_builds_no_corner_it_does_not_decode():
    """A record's corners are built when it is decoded, not by the sweep."""
    m = build_torus_grid(12, 12)
    records = corn.enumerate_transitive_cornerations(m, 1)
    assert len(records) > 1 and built_corners(m) == []
    L = records[len(records) // 2].corneration
    corners = L.sorted_corners()
    built = built_corners(m)
    assert built == corners and len(built) == len(L) == 288
    assert L.sorted_corners() == corners and len(built_corners(m)) == len(L)


def test_no_library_reader_of_a_transitive_corneration_builds_a_corner():
    """Widths, keys, classification, complements, constructions, circuits,
    face patterns, writing and parsing corneration files and the Petrie and
    hole transfers read corner numbers, keys and spans: none of them builds
    a corner."""
    opp = opposite(build_torus_grid(4, 4))
    read = Counter()
    maps = []
    for m, j in [(build_torus_grid(12, 12), 1), (opp, 1), (opp, 2), (opp, 3)]:
        q = uniform_valence(m)
        P, H = petrie(m), hole(m, j)
        maps += [m, P, *H.maps]
        for r in corn.enumerate_transitive_cornerations(m, j):
            if not r.transitive:
                continue
            L = r.corneration
            assert L.width == j and len(L.key()) == len(L)
            if j == 1:
                assert classify(m, r.aut, L).diagram
                assert corn.face_patterns(L).per_face
            assert len(corn.j_complement(L)) == len(L)
            for kind in predicted_local_connectivity(q, j):
                assert build_construction(L, kind).n_vertices == len(L)
            assert corn.circuits_of(L).circuits
            text = write_corneration(L)
            assert text.count("corner:") == len(L) and parse_corneration(text, m) == L
            assert corn.transfer(L, P).key() == L.key()
            assert sum(map(len, corn.transfer(L, H))) == len(L)
            read[m.name, j] += 1
    assert len(read) == 4 and built_corners(*maps) == []


def test_no_road_from_dart_pairs_to_a_corneration_builds_a_corner():
    """The builders, corneration_of, parse_corneration and the hole transfer
    turn dart pairs into corner numbers without building a corner."""
    for m, L in [build_torus_grid_corneration(4, 4), build_antiprism_corneration(4)]:
        assert len(L) == len(cells(m, "dart")) // 2 and built_corners(m) == []
        fresh = FlagMap(m.n_flags, *m.involutions())  # the same darts, a cold table
        assert corn.corneration_of(fresh, corn.circuits_of(L)).key() == L.key()
        assert parse_corneration(write_corneration(L), fresh).key() == L.key()
        H = hole(m, 1)
        assert sum(map(len, corn.transfer(L, H))) == len(L)
        assert built_corners(m, fresh, *H.maps) == []


# -- alignment ---------------------------------------------------------------


def test_alignment_of_face_wedges(cube):
    wedge_cells = cells(cube, "wedge")
    wedge_of = cube.cell_index("wedge")
    f0 = cells(cube, "face")[0]
    from cornmaps.core import face_boundary_wedges

    walk = face_boundary_wedges(cube, f0.id)
    c1 = corn.corner_of_wedge(cube, walk[0])
    c2 = corn.corner_of_wedge(cube, walk[1])
    assert corn.alignment(cube, c1, c2) == corn.CONVEX


def test_alignment_of_petrie_consecutive(cube):
    # transfer the first face wedge pair of the petrie dual back: those
    # corners sit on opposite sides in the original map
    P = petrie(cube)
    from cornmaps.core import face_boundary_wedges

    f0 = cells(P, "face")[0]
    walk = face_boundary_wedges(P, f0.id)
    c1 = corn.corner_of_wedge(P, walk[0])
    c2 = corn.corner_of_wedge(P, walk[1])
    d1 = corn.corner_from_darts(cube, c1.darts)
    d2 = corn.corner_from_darts(cube, c2.darts)
    assert corn.alignment(cube, d1, d2) == corn.INFLECTION


def test_alignment_disjoint_and_straight(cube, torus44):
    corners = corn.all_j_corners(cube, 1)
    edge_of = cube.cell_index("edge")
    c1 = corners[0]
    e1 = {edge_of[d] for d in c1.darts}
    c2 = next(
        c
        for c in corners
        if not ({edge_of[d] for d in c.darts} & e1)
    )
    assert corn.alignment(cube, c1, c2) == corn.NOT_ALIGNED
    s = corn.all_j_corners(torus44, 2)
    assert corn.alignment(torus44, s[0], s[1]) == corn.NOT_ALIGNED
    with pytest.raises(ValueError):
        corn.alignment(cube, c1, s[0])


def test_interior_flag_rejects_straight(torus44):
    c = corn.all_j_corners(torus44, 2)[0]
    with pytest.raises(StraightCornerHasNoSide):
        corn._interior_flag_on_dart(torus44, c, c.darts[0])


def test_interior_flag_rejects_a_dart_of_another_corner(torus44):
    c, other = corn.all_j_corners(torus44, 1)[:2]
    (dart,) = set(other.darts) - set(c.darts)
    with pytest.raises(InvalidCorner):
        corn._interior_flag_on_dart(torus44, c, dart)


def test_alignment_of_unequal_widths_raises_width_mismatch(torus44):
    c1 = corn.all_j_corners(torus44, 1)[0]
    c2 = corn.all_j_corners(torus44, 2)[0]
    with pytest.raises(WidthMismatch):
        corn.alignment(torus44, c1, c2)
    assert issubclass(WidthMismatch, ValueError)


# -- cover checks ------------------------------------------------------------


def test_is_corneration(torus44):
    L = straight_corneration(torus44)
    assert corn.is_corneration(torus44, L.corners).ok
    doubled = corn.all_j_corners(torus44, 1)
    report = corn.is_corneration(torus44, doubled)
    assert not report.ok and report.witness is not None
    empty = corn.is_corneration(torus44, [])
    assert not empty.ok and empty.reason == "uncovered dart"


def test_a_corner_set_that_misses_a_dart_is_refused_when_built(torus44):
    """Refused before any reader (``circuits_of``, ``j_complement``) sees it."""
    wedges = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    for L in (straight_corneration(torus44), wedges):
        a, b = L.sorted_corners()[-1].darts
        with pytest.raises(CornerationMismatch, match=f"uncovered dart at dart ({a}|{b})$"):
            corn.Corneration(torus44, L.sorted_corners()[:-1])
    assert issubclass(CornerationMismatch, ValueError)


def test_a_corner_set_that_covers_a_dart_twice_is_refused_when_built(torus44):
    L = straight_corneration(torus44)
    wedge = corn.all_j_corners(torus44, 1)[0]  # its two darts are L's too
    with pytest.raises(CornerationMismatch, match="covered 2 times"):
        corn.Corneration(torus44, [*L.corners, wedge])


def test_a_corner_listed_twice_counts_once(torus44):
    L = straight_corneration(torus44)
    assert corn.Corneration(torus44, list(L.corners) * 2) == L


def test_is_corneration_rejects_corners_of_another_map(torus44):
    foreign = corn.all_j_corners(build_torus_grid(6, 6), 1)
    dart_ids = {c.id for c in cells(torus44, "dart")}
    first = next(d for c in foreign for d in c.darts if d not in dart_ids)
    report = corn.is_corneration(torus44, foreign)
    assert report == corn.CoverReport(False, first, "not a dart of the map")


# -- circuits ----------------------------------------------------------------


def test_lines_of_straight_torus(torus44):
    L = straight_corneration(torus44)
    dec = corn.circuits_of(L)
    assert len(dec) == 8
    assert sorted(len(c) for c in dec.circuits) == [4] * 8
    edges = [e for c in dec.circuits for e in c.edges]
    assert len(edges) == len(set(edges)) == 32


def test_pattern_a_circuits_are_faces(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    report = corn.face_patterns(L)
    assert report.configuration == 1
    covered = {f for f, letter in report.per_face.items() if letter == "A"}
    dec = corn.circuits_of(L)
    assert {c.edges for c in dec.circuits} == {
        frozenset(face_boundary_edges(opp44, f)) for f in covered
    }


def test_circuit_roundtrips(torus44, theta4):
    for m in (torus44, theta4):
        L = straight_corneration(m)
        dec = corn.circuits_of(L)
        assert corn.corneration_of(m, dec) == L
        dec2 = corn.circuits_of(corn.corneration_of(m, dec))
        assert {c.edges for c in dec2.circuits} == {c.edges for c in dec.circuits}


def test_circuits_start_at_their_least_dart_in_ascending_order(torus44):
    """The canonical form: of a circuit's two traversals the one through its
    least dart, started there, and the circuits by first dart."""
    Ls = _all_cornerations_mixed(build_theta(6)) + [
        r.corneration for j in (1, 2) for r in corn.enumerate_transitive_cornerations(torus44, j)
    ]
    for L in Ls:
        circuits = corn.circuits_of(L).circuits
        for c in circuits:
            assert c.darts[0] == min(c.darts + tuple(other_dart(L.map, d) for d in c.darts))
        firsts = [c.darts[0] for c in circuits]
        assert firsts == sorted(firsts)
    assert len(Ls) == 15**2 + 9


def test_two_circuits_of_parallel_edges(theta4):
    L = straight_corneration(theta4)
    dec = corn.circuits_of(L)
    assert sorted(len(c) for c in dec.circuits) == [2, 2]


def test_corneration_of_rejects_bad_input(torus44):
    from cornmaps.core import Circuit

    L = straight_corneration(torus44)
    dec = corn.circuits_of(L)
    tiny = Circuit(darts=(dec.circuits[0].darts[0],), edges=frozenset([0]))
    with pytest.raises(CircuitTooShort):
        corn.corneration_of(torus44, [tiny])
    with pytest.raises(ValueError):
        corn.corneration_of(torus44, dec.circuits[:-1])  # misses edges


def test_corneration_of_raises_invalid_circuits(torus44):
    from cornmaps.core import Circuit

    dec = corn.circuits_of(straight_corneration(torus44))
    first = dec.circuits[0]
    assert len(first.darts) == 4
    twice = Circuit(darts=first.darts * 2, edges=first.edges)
    skipping = Circuit(darts=first.darts[::2], edges=first.edges)
    cases = [
        ([twice] + list(dec.circuits[1:]), "repeats"),
        (list(dec.circuits) + [first], "two circuits"),
        ([skipping], "share a vertex"),
        (dec.circuits[:-1], "cover every edge"),
    ]
    for circuits, words in cases:
        with pytest.raises(InvalidCircuits, match=words):
            corn.corneration_of(torus44, circuits)
    assert issubclass(InvalidCircuits, ValueError)


# -- complement --------------------------------------------------------------


def test_j_complement(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    K = corn.j_complement(L)
    assert len(K) == len(L)
    assert corn.j_complement(K) == L
    assert K.corners.isdisjoint(L.corners)


def test_complement_alternation_period(opp44):
    # around a vertex, walking from a corner to the other corner on its
    # dart alternates between L and the complement with period |j|_q
    for j in (1, 3):
        L = corn.symmetric_cornerations_from_coloring(opp44, j)[0]
        in_l = {c.key() for c in L.corners}
        all_corners = {c.key(): c for c in corn.all_j_corners(opp44, j)}
        v0 = cells(opp44, "vertex")[0].id
        rotation = rotation_at_vertex(opp44, v0)
        q = len(rotation)
        pos = {d: i for i, d in enumerate(rotation)}
        start = next(c for c in L.corners if c.vertex == v0)
        period = order_mod(j, q)
        current = start.key()
        for step in range(1, 2 * period + 1):
            v, darts = current
            i = min(pos[darts[0]], pos[darts[1]], key=lambda p: p)
            # the next corner of width j sharing the "far" dart
            a, b = sorted((pos[darts[0]], pos[darts[1]]))
            lead = b if (b - a) % q == j else a
            nxt = (lead, (lead + j) % q)
            current = (
                v0,
                tuple(sorted((rotation[nxt[0]], rotation[nxt[1]]))),
            )
            inside = current in in_l
            assert inside == (step % 2 == 0)
        assert current == start.key()


def test_straight_has_no_complement(torus44):
    with pytest.raises(StraightHasNoComplement):
        corn.j_complement(straight_corneration(torus44))


# -- local cornerations -------------------------------------------------------


def test_local_corneration_straight(torus44):
    L = straight_corneration(torus44)
    v0 = cells(torus44, "vertex")[0].id
    lc = corn.local_corneration(L, v0)
    assert lc.straight
    assert lc.classification == corn.OTHER_LOCAL


def test_local_corneration_standard_odd(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    for vcell in cells(opp44, "vertex"):
        lc = corn.local_corneration(L, vcell.id)
        assert lc.classification == corn.STANDARD_ODD


def test_local_corneration_standard_even(opp44):
    records = corn.enumerate_transitive_cornerations(opp44, 2)
    transitive = [r for r in records if r.transitive]
    assert transitive
    for r in transitive[:2]:
        for vcell in cells(opp44, "vertex"):
            lc = corn.local_corneration(r.corneration, vcell.id)
            assert lc.classification == corn.STANDARD_EVEN


def oracle_local_classification(pairs, q, j):
    """The classification by trying every start s in both directions."""
    found = corn.OTHER_LOCAL
    for s in range(q):
        for direction in (1, -1):
            bases = set()
            for a, b in pairs:
                na, nb = (direction * (a - s)) % q, (direction * (b - s)) % q
                bases.add(na if (nb - na) % q == j else nb)
            if bases == set(range(0, q, 2)):
                found = corn.STANDARD_ODD
            elif q % 4 == 0 and bases == {i for i in range(q) if i % 4 in (0, 3)}:
                found = corn.STANDARD_EVEN
    return found


@pytest.mark.parametrize("q", [4, 6, 8, 10])
def test_local_classification_matches_both_directions_on_every_local_cover(q):
    """theta(q) has two q-valent vertices: every cover of the first by
    corners of one width, beside a fixed cover of the second, against the
    classification read from every start in both directions."""
    m = build_theta(q)
    v, w = (vc.id for vc in cells(m, "vertex"))
    covers = [_vertex_covers_all_widths(m, u) for u in (v, w)]
    seen = Counter()
    for j in range(1, q // 2 + 1):
        # the two vertices have the same covers; none of width 2 for q = 6, 10
        mine, theirs = ([c for c in cs if {x.width for x in c} == {j}] for cs in covers)
        for cover in mine:
            lc = corn.local_corneration(corn.Corneration(m, cover + theirs[0]), v)
            expected = oracle_local_classification(lc.pairs, q, j)
            assert lc.classification == (corn.OTHER_LOCAL if 2 * j == q else expected)
            assert lc.straight == (2 * j == q) and len(lc.pairs) == q // 2
            seen[lc.classification] += 1
    assert seen[corn.STANDARD_ODD] and seen[corn.OTHER_LOCAL]
    assert bool(seen[corn.STANDARD_EVEN]) == (q == 8)  # j = 2 < q / 2 needs q > 4


# -- face patterns ------------------------------------------------------------


def test_face_patterns_configurations(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    assert corn.face_patterns(L).configuration == 1
    moved = corn.transfer(L, petrie(opp44))
    assert corn.face_patterns(moved).configuration == 2


def test_face_patterns_antiprism():
    m, L = build_antiprism_corneration(4)
    report = corn.face_patterns(L)
    assert report.configuration == 3
    assert report.letters == frozenset({"C", "E"})


def test_face_patterns_grid():
    m, L = build_torus_grid_corneration(4, 5)
    report = corn.face_patterns(L)
    assert report.configuration == 4
    assert report.letters == frozenset({"D"})


def test_face_patterns_rejects_wider(torus44):
    with pytest.raises(NotWedgeCorneration):
        corn.face_patterns(straight_corneration(torus44))


# -- enumeration ---------------------------------------------------------------


def test_enumerate_straight_unique(torus44):
    A = automorphism_group(torus44)
    out = corn.enumerate_invariant_cornerations(torus44, A, 2)
    assert len(out) == 1
    assert out[0].width == 2


def test_enumerate_odd_valence_is_empty(theta3):
    out = corn.enumerate_invariant_cornerations(theta3, trivial_group(theta3), 1)
    assert out == []


def test_enumerate_trivial_group_theta4(theta4):
    out = corn.enumerate_invariant_cornerations(theta4, trivial_group(theta4), 1)
    assert len(out) == 4
    out2 = corn.enumerate_invariant_cornerations(theta4, trivial_group(theta4), 2)
    assert len(out2) == 1


def test_trivial_group_on_theta8_matches_the_brute_force_oracle():
    """At j = 2 each vertex has two cycles of +2 with two covers each, so
    one vertex orbit holds two independent blocks of columns."""
    m = build_theta(8)
    oracle = _all_cornerations_mixed(m)
    counts = []
    for j in range(1, 5):
        out = corn.enumerate_invariant_cornerations(m, trivial_group(m), j)
        assert [L.key() for L in out] == sorted(L.key() for L in oracle if L.width == j)
        counts.append(len(out))
    assert counts == [4, 16, 4, 1]


def brute_force_exact_covers(row_cols, n_cols):
    full = (1 << n_cols) - 1
    out = set()
    for size in range(len(row_cols) + 1):
        for picked in combinations(range(len(row_cols)), size):
            cols = [row_cols[ri] for ri in picked]
            union = 0
            for c in cols:
                union |= c
            if union == full and sum(c.bit_count() for c in cols) == n_cols:
                out.add(picked)
    return out


def exact_covers(row_cols, n_cols):
    """The covers :func:`corn._exact_cover` finds, as sorted row tuples."""
    found = corn._exact_cover(dict(enumerate(row_cols)), (1 << n_cols) - 1)
    assert len(found) == len(set(found))
    return {tuple(sorted(s)) for s in found}


def test_exact_cover_matches_brute_force():
    rng = random.Random(2024)
    instances = [([], 0), ([], 3), ([0b1], 1), ([0b01, 0b10], 2)]
    for _ in range(300):
        n_cols = rng.randint(1, 8)
        n_rows = rng.randint(0, 12)
        density = rng.choice((0.2, 0.35, 0.5))
        row_cols = []
        for _ in range(n_rows):
            cols = sum(1 << c for c in range(n_cols) if rng.random() < density)
            row_cols.append(cols or 1 << rng.randrange(n_cols))
        instances.append((row_cols, n_cols))
    solved = unsolved = 0
    for row_cols, n_cols in instances:
        expected = brute_force_exact_covers(row_cols, n_cols)
        assert exact_covers(row_cols, n_cols) == expected
        solved += bool(expected)
        unsolved += not expected
    assert solved > 20 and unsolved > 20


def test_exact_cover_of_disjoint_blocks_matches_brute_force():
    """Instances of 2 to 4 blocks on disjoint columns, rows shuffled, as a
    vertex orbit whose darts fall into several cycles of +j."""
    rng = random.Random(7)
    solved = 0
    for _ in range(200):
        row_cols, n_cols = [], 0
        for _ in range(rng.randint(2, 4)):
            width = rng.randint(1, 4)
            for _ in range(rng.randint(1, 5)):
                cols = sum(1 << c for c in range(width) if rng.random() < 0.5)
                row_cols.append((cols or 1 << rng.randrange(width)) << n_cols)
            n_cols += width
        rng.shuffle(row_cols)
        expected = brute_force_exact_covers(row_cols, n_cols)
        assert exact_covers(row_cols, n_cols) == expected
        solved += bool(expected)
    assert solved > 20


def test_a_column_no_row_covers_gives_no_cover():
    # column 2 lies in no row; the other three columns each have a row
    assert exact_covers([0b0001, 0b1000, 0b0010], 4) == set()


def test_exact_cover_returns_the_row_numbers_and_covers_only_its_columns():
    rows = {5: 0b0010, 9: 0b1000, 2: 0b1010, 4: 0b0001}
    assert sorted(corn._exact_cover(rows, 0b1010)) == [(2,), (5, 9)]


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_torus_grid(4, 4),
        lambda: opposite(build_torus_grid(4, 4)),
        lambda: build_antiprism(4),
        lambda: build_antiprism(5),
        lambda: build_antiprism(6),
    ],
    ids=["torus44", "opp44", "antiprism4", "antiprism5", "antiprism6"],
)
def test_invariant_cornerations_come_in_key_order(build):
    m = build()
    A = automorphism_group(m)
    q = uniform_valence(m)
    calls = 0
    for H in subgroups_up_to_index(A, 4):
        for j in range(1, q // 2 + 1):
            out = corn.enumerate_invariant_cornerations(m, H, j)
            keys = [L.key() for L in out]
            assert out == sorted(out, key=corn.Corneration.key)
            assert len(set(keys)) == len(keys)
            calls += 1
    assert calls >= 2


def interleaving_blocks(found) -> bool:
    """Whether two independent blocks of two covers each, read off the
    enumerated cornerations, hold corners that interleave in key order.

    A corner of such a block lies in the results that take one of its block's
    two covers, so the corners of one block share a pattern of presence, up to
    complement."""
    keys = [set(L.key()) for L in found]
    blocks = {}
    for key in set.union(*keys) - set.intersection(*keys):
        present = tuple(key in k for k in keys)
        blocks.setdefault(frozenset((present, tuple(not p for p in present))), []).append(key)
    spans = sorted((min(block), max(block)) for block in blocks.values())
    return any(low[1] > high[0] for low, high in zip(spans, spans[1:]))


def test_invariant_cornerations_come_in_key_order_when_block_bits_interleave():
    """Under a subgroup a block's rows are corner orbits that spread over
    many vertices, so the bits of two blocks can interleave, and the order
    of their product no longer follows from multiplying the least
    significant block first: the results still come in key order."""
    m = build_antiprism(6)
    interleaved = 0
    for H in subgroups_up_to_index(automorphism_group(m), 4):
        out = corn.enumerate_invariant_cornerations(m, H, 1)
        if len(out) > 2 and interleaving_blocks(out):
            interleaved += 1
            assert out == sorted(out, key=corn.Corneration.key)
    assert interleaved


@pytest.mark.parametrize(
    "build",
    [lambda: build_antiprism(8), lambda: relabelled(build_torus_grid(4, 4), 5)],
    ids=["antiprism8", "torus44-relabelled"],
)
def test_the_trivial_group_gives_its_product_in_key_order(build):
    """One block per vertex: 2^16 cornerations, in key order."""
    m = build()
    out = corn.enumerate_invariant_cornerations(m, trivial_group(m), 1)
    masks = [L._mask for L in out]
    assert len(out) == 2**16 and masks == sorted(set(masks), reverse=True)
    assert [L.key() for L in out[:: 2**10]] == sorted(L.key() for L in out[:: 2**10])


def test_enumerate_trivial_group_antiprism5_in_key_order():
    m = build_antiprism(5)
    out = corn.enumerate_invariant_cornerations(m, trivial_group(m), 1)
    assert len(out) == 1024
    assert len({L.key() for L in out}) == 1024
    assert out == sorted(out, key=corn.Corneration.key)
    oracle = {L.key() for L in _all_cornerations_mixed(m) if L.width == 1}
    assert {L.key() for L in out} == oracle


def test_the_sweep_has_no_limit_on_the_group_order():
    """|Aut| of the 51x51 torus is its flag count, 20,808. As on the odd
    square tori from 3x3 to 9x9, its two transitive 1-cornerations are symmetric."""
    m = build_torus_grid(51, 51)
    records = corn.enumerate_transitive_cornerations(m, 1)
    assert automorphism_group(m).order == m.n_flags == 20808
    found = [(len(r.corneration), r.transitive, r.symmetric) for r in records]
    assert found == [(m.n_flags // 4, True, True)] * 2


def test_transitive_enumeration_checks_the_width_before_any_search(asymmetric_map, cube):
    m = build_torus_grid(4, 4)  # fresh, so its memo shows whether Aut ran
    for j in ("1", 99, 0, 3):
        with pytest.raises(WidthOutOfRange):
            corn.enumerate_transitive_cornerations(m, j)
    assert ("aut",) not in m._cache
    with pytest.raises(NonUniformValence):
        corn.enumerate_transitive_cornerations(asymmetric_map, 99)
    assert corn.enumerate_transitive_cornerations(cube, 1) == []


def swept(m):
    """The cornerations of the transitive sweeps of ``m`` at every width."""
    widths = range(1, uniform_valence(m) // 2 + 1)
    return [r.corneration for j in widths for r in corn.enumerate_transitive_cornerations(m, j)]


@pytest.mark.parametrize(
    "build,enumerate_,count",
    [
        (lambda: build_torus_grid(4, 4), swept, 9),
        (lambda: opposite(build_torus_grid(4, 4)), swept, 33),
        (
            lambda: build_antiprism(5),
            lambda m: corn.enumerate_invariant_cornerations(m, trivial_group(m), 1),
            1024,
        ),
    ],
    ids=["torus44 sweep", "opp44 sweep", "antiprism5 trivial"],
)
def test_construction_paths_agree(build, enumerate_, count):
    """Enumerated, rebuilt from corners and parsed cornerations are equal,
    with the same hash, and decode to the map's own corners in key order."""
    m = build()
    found = enumerate_(m)
    assert len(found) == count
    for L in found:
        assert L.key() == tuple(sorted(c.key() for c in L.corners))
        for corners in (L.corners, L.sorted_corners()[::-1] * 2):
            again = corn.Corneration(m, corners)
            assert again == L and hash(again) == hash(L)
        assert parse_corneration(write_corneration(L), m) == L
        assert all(c is corn.corner_from_darts(m, c.darts) for c in L.corners)
    assert len(set(found)) == len(found)


def test_corneration_rejects_items_that_are_no_corner_of_the_map(torus44):
    big, L = build_torus_grid_corneration(6, 6)
    beyond = [c for c in L.corners if max(c.darts) >= torus44.n_flags]
    # darts of torus 4x4, but at two vertices there
    (spread,) = [c for c in corn.all_j_corners(opposite(torus44), 2) if c.darts == (0, 40)]
    own = corn.all_j_corners(torus44, 1)[0]
    moved = corn.Corner(own.vertex + 8, own.darts, own.width, own.straight,
                        own.interior_wedges, own.boundary_wedges)
    for bad in (beyond[:1], beyond, [spread], [own, moved], [own, own.darts]):
        with pytest.raises(CornerationMismatch, match="not a corner of the map"):
            corn.Corneration(torus44, bad)
    assert corn.Corneration(big, L.corners) == L


def test_enumerated_cornerations_are_compact():
    """A corneration keeps its map and one int, not a set of its corners:
    under 400 bytes each (a frozenset of 20 corners alone takes 2,264)."""
    m = build_antiprism(5)
    H = trivial_group(m)
    corn.enumerate_invariant_cornerations(m, H, 1)  # builds the map's tables
    tracemalloc.start()
    try:
        found = corn.enumerate_invariant_cornerations(m, H, 1)
        retained, _ = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(found) == 1024
    assert retained / len(found) < 400


def test_a_corneration_is_its_map_and_its_int():
    """No slot beyond the map and the int: an enumeration holds tens of
    thousands of cornerations, and each slot costs 8 bytes apiece."""
    L = build_torus_grid_corneration(4, 4)[1]
    assert corn.Corneration.__slots__ == ("map", "_mask")
    assert not hasattr(L, "__dict__")


@pytest.mark.parametrize(
    "make",
    [lambda: build_theta(3), lambda: build_antiprism(5), lambda: build_torus_grid(6, 6)],
    ids=["theta3", "antiprism5", "torus6x6"],
)
def test_mask_of_matches_the_sum_of_shifted_bits(make):
    """The one-pass mask equals the sum of one shifted bit per corner, and
    its binary digits mark exactly those numbers, corner 0 highest."""
    m = make()
    n = len(corn._corner_numbering(m)[2])
    rng = random.Random(n)
    for size in (0, 1, n // 2, n):
        numbers = rng.sample(range(n), size)
        mask = corn._mask_of(m, numbers)
        assert mask == sum(1 << n - 1 - i for i in numbers)
        assert format(mask, f"0{n}b") == "".join("01"[i in numbers] for i in range(n))


def test_reading_corners_twice_decodes_once(monkeypatch):
    """The map keeps the corners of the last corneration read."""
    m, L = build_torus_grid_corneration(4, 4)
    K = corn.j_complement(L)
    decodes = []
    real = corn._decode
    monkeypatch.setattr(corn, "_decode", lambda *args: decodes.append(1) or real(*args))
    corners = L.corners
    assert L.corners is corners and len(decodes) == 1
    assert K.corners.isdisjoint(corners) and len(decodes) == 2
    assert L.corners == corners and len(decodes) == 3


def test_enumerate_depth_is_not_bounded_by_the_corner_count():
    # 1152 straight corners, each forced: more than Python's recursion limit
    m = build_torus_grid(24, 24)
    (L,) = corn.enumerate_invariant_cornerations(m, trivial_group(m), 2)
    assert len(L) == 1152 and corn.is_corneration(m, L.corners).ok


def test_enumerate_rejects_foreign_group(torus44, opp44):
    A = automorphism_group(opp44)
    with pytest.raises(GroupNotSubgroup):
        corn.enumerate_invariant_cornerations(torus44, A, 1)


def test_enumerate_rejects_non_symmetry(torus44):
    n = torus44.n_flags
    # a transposition of two flags is almost never a map symmetry
    perm = list(range(n))
    perm[0], perm[1] = perm[1], perm[0]
    with pytest.raises(GroupNotSubgroup):
        SymGroup(torus44, (tuple(range(n)), tuple(perm)))


def test_corner_orbits(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    A = automorphism_group(opp44)
    G = corn.corneration_stabilizer(A, L)
    assert len(corn.corner_orbits(G, L.corners)) == 1
    lone = SymGroup(opp44, (tuple(range(opp44.n_flags)),))
    singletons = corn.corner_orbits(lone, L.corners)
    assert len(singletons) == len(L)
    with pytest.raises(ValueError):
        corn.corner_orbits(A, list(L.corners)[:3])


def test_corner_of_dart_rejects_a_dart_no_corner_holds():
    _, L = build_torus_grid_corneration(4, 4)
    with pytest.raises(UnknownCell):
        L.corner_of_dart(999)


def test_corner_orbits_reject_corners_of_a_larger_map(torus44):
    _, L = build_torus_grid_corneration(6, 6)
    far = [c for c in L.corners if min(c.darts) >= torus44.n_flags]  # darts beyond torus 4x4's
    assert far
    with pytest.raises(GroupDoesNotPreserveCorneration):
        corn.corner_orbits(automorphism_group(torus44), far)


def test_transitivity_rejects_corners_of_a_larger_map(torus44):
    _, L = build_torus_grid_corneration(6, 6)
    with pytest.raises(GroupDoesNotPreserveCorneration):
        corn.is_transitive_on_corners(automorphism_group(torus44), L)


def test_transitivity_rejects_another_map_whose_corners_also_fit(torus44):
    """A corneration of torus 4x5 has corners whose darts also span corners of
    torus 4x4; they are still another map's: no answer is read off the wrong map."""
    _, L = build_torus_grid_corneration(4, 5)
    assert any(max(c.darts) < torus44.n_flags for c in L.corners)
    trivial = automorphism_group(torus44).subgroup_from_images([0])
    with pytest.raises(GroupDoesNotPreserveCorneration, match="different map"):
        corn.is_transitive_on_corners(trivial, L)


def test_corner_action_is_built_once_per_group(opp44, monkeypatch):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    G = corn.corneration_stabilizer(automorphism_group(opp44), L)
    reads = []
    real_cell_index = FlagMap.cell_index

    def counting_cell_index(m, kind):
        reads.append(kind)
        return real_cell_index(m, kind)

    monkeypatch.setattr(FlagMap, "cell_index", counting_cell_index)
    assert corn.is_transitive_on_corners(G, L)
    assert reads == ["dart"]
    assert corn.is_transitive_on_corners(G, L)
    assert reads == ["dart"]


def test_transitivity_needs_a_group_preserving_the_corneration():
    m, L = build_torus_grid_corneration(4, 5)
    A = automorphism_group(m)
    with pytest.raises(GroupDoesNotPreserveCorneration):
        corn.is_transitive_on_corners(A, L)
    assert corn.is_transitive_on_corners(corn.corneration_stabilizer(A, L), L)


def test_transitive_records(torus44):
    records = corn.enumerate_transitive_cornerations(torus44, 1)
    assert records
    for r in records:
        report = corn.is_corneration(torus44, r.corneration.corners)
        assert report.ok
        if r.symmetric:
            assert r.transitive
    symmetric = [r for r in records if r.symmetric]
    assert len(symmetric) == 4


def test_transitive_records_come_once_each_in_key_order(opp44):
    counts = []
    for j in range(1, 5):
        keys = [r.corneration.key() for r in corn.enumerate_transitive_cornerations(opp44, j)]
        assert keys == sorted(set(keys))
        counts.append(len(keys))
    assert sum(counts) == 33 and max(counts) > 1


# -- symmetric construction -----------------------------------------------------


def test_symmetric_construction_torus(torus44):
    LR, LG = corn.symmetric_cornerations_from_coloring(torus44, 1)
    assert LR.width == LG.width == 1
    assert LR.corners.isdisjoint(LG.corners)
    for L in (LR, LG):
        assert corn.face_patterns(L).configuration == 1


def test_symmetric_construction_rejects_even(torus44):
    with pytest.raises(WidthOutOfRange):
        corn.symmetric_cornerations_from_coloring(torus44, 2)


def test_symmetric_construction_rejects_odd_valence(cube):
    with pytest.raises(WidthOutOfRange):
        corn.symmetric_cornerations_from_coloring(cube, 1)


def test_symmetric_construction_needs_half_reflexible(antiprism4):
    with pytest.raises(NoHalfReflexiveGroup):
        corn.symmetric_cornerations_from_coloring(antiprism4, 1)


# -- transfer --------------------------------------------------------------------


def test_transfer_to_petrie_preserves_widths(opp44):
    for j in (1, 3):
        L = corn.symmetric_cornerations_from_coloring(opp44, j)[0]
        moved = corn.transfer(L, petrie(opp44))
        assert moved.width == j
        assert {c.key() for c in moved.corners} == {c.key() for c in L.corners}
        back = corn.transfer(moved, petrie(petrie(opp44)))
        assert {c.key() for c in back.corners} == {c.key() for c in L.corners}


def test_transfer_through_hole(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 3)[0]
    result = hole(opp44, 3)
    assert len(result.maps) == 1
    (moved,) = corn.transfer(L, result)
    assert moved.width == 1
    assert len(moved) == len(L)


def test_transfer_to_another_map_raises_corneration_mismatch(torus44, opp44):
    L = straight_corneration(torus44)
    with pytest.raises(CornerationMismatch, match="share darts"):
        corn.transfer(L, opp44)
    with pytest.raises(CornerationMismatch, match="different map"):
        corn.transfer(L, hole(opp44, 2))


def test_transfer_width_mismatch(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    with pytest.raises(WidthMismatch):
        corn.transfer(L, hole(opp44, 3))


def test_transfer_disconnected_hole(torus44):
    L = straight_corneration(torus44)
    result = hole(torus44, 2)
    moved = corn.transfer(L, result)
    assert len(moved) == len(result.maps)
    for component, ml in zip(result.maps, moved):
        assert corn.is_corneration(component, ml.corners).ok
        assert ml.width == 1


# -- arguments that are no corneration --------------------------------------------

def a_wedge_corneration(m):
    return corn.symmetric_cornerations_from_coloring(m, 1)[0]


def vertex_transitivity_of_a_non_corner(m, A):
    L = a_wedge_corneration(m)
    return verify_vertex_transitive(graph_A(L), corn.corneration_stabilizer(A, L), ["x"])


NON_CORNERATION_CALLS = {
    "is_transitive_on_corners": lambda m, A: corn.is_transitive_on_corners(A, "x"),
    "corner_orbits": lambda m, A: corn.corner_orbits(A, ["x"]),
    "corner_orbits of None": lambda m, A: corn.corner_orbits(A, None),
    "alignment": lambda m, A: corn.alignment(m, None, None),
    "classify": lambda m, A: classify(m, A, None),
    "symmetry_type_graph": lambda m, A: symmetry_type_graph(m, A, None),
    "split": lambda m, A: split(None, corn.all_j_corners(m, 1)),
    "j_complement": lambda m, A: corn.j_complement(None),
    "circuits_of": lambda m, A: corn.circuits_of("x"),
    "face_patterns": lambda m, A: corn.face_patterns(None),
    "transfer": lambda m, A: corn.transfer(None, m),
    "transfer to None": lambda m, A: corn.transfer(a_wedge_corneration(m), None),
    "transfer to str": lambda m, A: corn.transfer(a_wedge_corneration(m), "x"),
    "is_corneration of None": lambda m, A: corn.is_corneration(m, None),
    "is_corneration of an int": lambda m, A: corn.is_corneration(m, [1]),
    "corneration_of None": lambda m, A: corn.corneration_of(m, None),
    "corneration_of an int": lambda m, A: corn.corneration_of(m, [1]),
    "write_corneration": lambda m, A: write_corneration(None),
    "cubic_filter": lambda m, A: cubic_filter(m, None),
    "graph_A": lambda m, A: graph_A(None),
    "verify_vertex_transitive": vertex_transitivity_of_a_non_corner,
}
# the calls whose bad argument stands for corners or circuits
OTHER_ERRORS = {
    "corner_orbits": InvalidCorner,
    "corner_orbits of None": InvalidCorner,
    "alignment": InvalidCorner,
    "verify_vertex_transitive": InvalidCorner,
    "is_corneration of None": InvalidCorner,
    "is_corneration of an int": InvalidCorner,
    "corneration_of None": InvalidCircuits,
    "corneration_of an int": InvalidCircuits,
}


@pytest.mark.parametrize("name", NON_CORNERATION_CALLS)
def test_calls_on_a_non_corneration_raise_library_errors(torus44, name):
    """A corner list or item that is no corner is an InvalidCorner, circuits
    that are none InvalidCircuits, any other argument that is no corneration
    (or no transfer target) a CornerationMismatch."""
    error = OTHER_ERRORS.get(name, CornerationMismatch)
    with pytest.raises(error):
        NON_CORNERATION_CALLS[name](torus44, automorphism_group(torus44))
