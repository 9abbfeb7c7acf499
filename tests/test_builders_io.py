import pytest

from cornmaps.builders import (
    build_antiprism,
    build_antiprism_corneration,
    build_theta,
    build_torus_grid,
    build_torus_grid_corneration,
    from_rotation_system,
)
from cornmaps.core import (
    cells,
    euler_and_genus,
    face_length,
    order_mod,
    rotation_at_vertex,
    uniform_valence,
    validate,
)
from cornmaps.errors import (
    CornerationMismatch,
    CornMapsError,
    DegenerateParameters,
    GroupNotSubgroup,
    InconsistentRotation,
    InvalidMapError,
    InvalidModulus,
    MalformedFlagSystem,
    MapFormatError,
    UnsupportedExport,
)
from cornmaps.fileio import (
    export_dot,
    parse_corneration,
    parse_map,
    write_corneration,
    write_map,
)
from cornmaps.operators import dual, hole, is_isomorphic, opposite, petrie
from cornmaps.symmetry import SymGroup
from cornmaps.symtype import CANONICAL_DIAGRAMS


def counts(m):
    return (
        len(cells(m, "vertex")),
        len(cells(m, "edge")),
        len(cells(m, "face")),
        euler_and_genus(m).chi,
    )


def test_torus_grid_counts():
    assert counts(build_torus_grid(4, 4)) == (16, 32, 16, 0)
    assert counts(build_torus_grid(4, 5)) == (20, 40, 20, 0)
    assert counts(build_torus_grid(3, 3)) == (9, 18, 9, 0)


def test_torus_grid_small_sides():
    m = build_torus_grid(2, 4)
    assert validate(m).ok
    assert counts(m) == (8, 16, 8, 0)
    with pytest.raises(DegenerateParameters):
        build_torus_grid(1, 5)
    with pytest.raises(DegenerateParameters):
        build_torus_grid(4, 1)


@pytest.mark.parametrize(
    "build",
    [
        lambda: build_torus_grid("a", 2),
        lambda: build_torus_grid(4, 2.0),
        lambda: build_antiprism(None),
        lambda: build_theta(None),
        lambda: build_theta("3"),
    ],
    ids=["torus-str", "torus-float", "antiprism-None", "theta-None", "theta-str"],
)
def test_sizes_that_are_no_ints_raise_degenerate_parameters(build):
    with pytest.raises(DegenerateParameters, match="int"):
        build()


def test_antiprism_counts():
    assert counts(build_antiprism(4)) == (8, 16, 10, 2)
    m3 = build_antiprism(3)
    assert counts(m3) == (6, 12, 8, 2)
    for n in range(3, 7):
        assert euler_and_genus(build_antiprism(n)).chi == 2
    with pytest.raises(DegenerateParameters):
        build_antiprism(2)


def test_octahedron_is_three_antiprism(antiprism3):
    lengths = {face_length(antiprism3, f.id) for f in cells(antiprism3, "face")}
    assert lengths == {3}
    assert uniform_valence(antiprism3) == 4


def test_from_rotation_system_cube(cube):
    # rebuilding from the recovered rotations gives an isomorphic map
    sk_vertices = cells(cube, "vertex")
    edge_of = cube.cell_index("edge")
    rotations = {}
    for vcell in sk_vertices:
        rotations[vcell.id] = [
            edge_of[d] for d in rotation_at_vertex(cube, vcell.id)
        ]
    rebuilt = from_rotation_system(rotations)
    assert is_isomorphic(rebuilt, cube) is not None


def test_from_rotation_system_tetrahedron():
    rotations = {
        3: [("s", 0), ("s", 1), ("s", 2)],
        0: [("o", 0), ("s", 0), ("o", 2)],
        1: [("o", 1), ("s", 1), ("o", 0)],
        2: [("o", 2), ("s", 2), ("o", 1)],
    }
    m = from_rotation_system(rotations)
    assert counts(m) == (4, 6, 4, 2)
    assert {face_length(m, f.id) for f in cells(m, "face")} == {3}


def test_from_rotation_system_errors():
    with pytest.raises(InconsistentRotation):
        from_rotation_system({})
    with pytest.raises(InconsistentRotation):
        from_rotation_system({0: ["a"], 1: ["a", "b"]})  # b appears once
    with pytest.raises(InconsistentRotation):
        from_rotation_system({0: ["a", "a"], 1: ["b", "b"]})  # loops
    with pytest.raises(InconsistentRotation):
        from_rotation_system({0: ["a", "b"], 1: ["a", "b"]}, twists={"z": 1})


def test_map_file_roundtrip(cube, torus44, theta3):
    for m in (cube, torus44, theta3):
        again = parse_map(write_map(m))
        assert again == m


def test_map_file_errors(cube):
    with pytest.raises(MapFormatError):
        parse_map("not a map file")
    with pytest.raises(MapFormatError):
        parse_map("mapfile 1\nflags 4\nr0: 0 1 2 9\nr1: 1 0 3 2\nr2: 2 3 0 1\n")
    with pytest.raises(MapFormatError):
        parse_map(write_map(cube) + "junk\n")
    loopy = "mapfile 1\nflags 4\nr0: 1 0 3 2\nr1: 1 0 3 2\nr2: 2 3 0 1\n"
    with pytest.raises(InvalidMapError):
        parse_map(loopy)


def test_corneration_roundtrip():
    m, L = build_antiprism_corneration(4)
    again = parse_corneration(write_corneration(L), m)
    assert again == L


def test_corneration_mismatches(torus44, theta4):
    m, L = build_torus_grid_corneration(4, 4)
    text = write_corneration(L)
    with pytest.raises(CornerationMismatch):
        parse_corneration(text.replace("corner: 0 ", "corner: 3 "), m)
    # a dart id outside the map
    bad = text.splitlines()
    bad[3] = "corner: 997 998"
    with pytest.raises(CornerationMismatch):
        parse_corneration("\n".join(bad), m)
    # dropping a corner breaks the exact cover
    lines = [ln for ln in text.splitlines() if ln]
    with pytest.raises(CornerationMismatch):
        parse_corneration("\n".join(lines[:-1]), m)


def test_a_corneration_file_cannot_name_one_corner_twice():
    m, L = build_torus_grid_corneration(4, 4)
    lines = write_corneration(L).splitlines()
    assert lines[-1].startswith("corner: ")
    with pytest.raises(CornerationMismatch, match="dart covered 2 times"):
        parse_corneration("\n".join(lines + lines[-1:]), m)


def test_export_dot_skeleton(cube):
    from cornmaps.core import skeleton

    dot = export_dot(skeleton(cube))
    assert dot.count(" -- ") == 12
    assert dot.count("[label=") >= 8 + 12


def test_export_dot_diagram():
    dot = export_dot(CANONICAL_DIAGRAMS["a"])
    assert "shape=box" in dot
    assert "shape=ellipse" in dot
    # row (a) carries one 1-semiedge per node and two 0-semiedges
    assert dot.count("shape=point") == 4
    assert "style=bold" in dot and "style=dotted" in dot


def test_export_dot_split(torus44):
    import cornmaps.cornerations as corn
    import cornmaps.splitgraph as sg
    from cornmaps.symmetry import automorphism_group

    L = corn.enumerate_invariant_cornerations(
        torus44, automorphism_group(torus44), 2
    )[0]
    S = sg.graph_B(L)
    dot = export_dot(S)
    assert 'label="old"' in dot or 'label="new"' in dot


WRONG_ARGUMENT_CALLS = {
    "opposite": (MalformedFlagSystem, lambda m: opposite(None)),
    "dual": (MalformedFlagSystem, lambda m: dual(None)),
    "petrie": (MalformedFlagSystem, lambda m: petrie("x")),
    "hole": (MalformedFlagSystem, lambda m: hole(None, 1)),
    "is_isomorphic": (MalformedFlagSystem, lambda m: is_isomorphic(m, None)),
    "write_map": (MalformedFlagSystem, lambda m: write_map(None)),
    "parse_map": (MapFormatError, lambda m: parse_map(None)),
    "parse_map bytes": (MapFormatError, lambda m: parse_map(write_map(m).encode())),
    "parse_corneration text": (MapFormatError, lambda m: parse_corneration(None, m)),
    "parse_corneration map": (MalformedFlagSystem, lambda m: parse_corneration("cornfile 1", None)),
    "order_mod": (InvalidModulus, lambda m: order_mod(None, 2)),
    "export_dot": (UnsupportedExport, lambda m: export_dot(None)),
    "from_rotation_system rotation": (InconsistentRotation, lambda m: from_rotation_system({0: 5})),
    "from_rotation_system twists": (
        InconsistentRotation,
        lambda m: from_rotation_system({0: ["a", "b"], 1: ["a", "b"]}, twists=5),
    ),
    "SymGroup": (GroupNotSubgroup, lambda m: SymGroup(m, None)),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENT_CALLS)
def test_operators_and_files_reject_wrong_arguments(torus44, name):
    """A non-map, non-text file contents, a non-int residue, an object DOT
    cannot draw, a rotation or twist table of the wrong type and group
    elements that are no iterable each raise their own CornMapsError."""
    error, call = WRONG_ARGUMENT_CALLS[name]
    assert issubclass(error, CornMapsError)
    with pytest.raises(error):
        call(torus44)
