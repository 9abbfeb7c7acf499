import pytest

from cornmaps.core import (
    CELL_KINDS,
    FlagMap,
    _rotation_table,
    cells,
    euler_and_genus,
    face_bipartition,
    face_boundary_edges,
    face_boundary_wedges,
    face_length,
    order_mod,
    rotation_at_vertex,
    skeleton,
    uniform_valence,
    valence,
    validate,
    vertex_bipartition,
)
from cornmaps.errors import (
    CornMapsError,
    InvalidModulus,
    MalformedFlagSystem,
    UnknownCell,
    UnknownCellKind,
)


def test_cube_is_valid(cube):
    assert validate(cube).ok


def test_identity_involution_reports_fixed_points():
    m = FlagMap(4, (0, 1, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1))
    report = validate(m)
    assert not report.ok
    assert "FixedPointR_i" in report.codes()


def test_non_involution_reported():
    m = FlagMap(4, (1, 2, 3, 0), (1, 0, 3, 2), (2, 3, 0, 1))
    assert "NotInvolution" in validate(m).codes()


def test_disconnected_union_reported(theta4):
    n = theta4.n_flags
    shift = lambda p: tuple(x + n for x in p)
    m = FlagMap(
        2 * n,
        theta4.r0 + shift(theta4.r0),
        theta4.r1 + shift(theta4.r1),
        theta4.r2 + shift(theta4.r2),
    )
    report = validate(m)
    assert not report.ok
    assert "Disconnected" in report.codes()


def test_loop_rejected():
    # one vertex, one edge on the sphere: four flags around a loop
    r0 = (1, 0, 3, 2)
    r1 = (1, 0, 3, 2)
    r2 = (2, 3, 0, 1)
    report = validate(FlagMap(4, r0, r1, r2))
    assert not report.ok
    assert "EdgeDegenerate" in report.codes()


def test_noncommuting_r0_r2_reported(cube):
    # swap two r2 images to break the commutation while staying involutive
    r2 = list(cube.r2)
    a, b = 0, cube.r1[0]
    r2[a], r2[b] = r2[b], r2[a]
    r2[r2[a]] = a
    r2[r2[b]] = b
    report = validate(FlagMap(cube.n_flags, cube.r0, cube.r1, tuple(r2)))
    assert not report.ok


def test_cube_cells(cube):
    assert len(cells(cube, "vertex")) == 8
    assert all(len(c) == 6 for c in cells(cube, "vertex"))
    assert len(cells(cube, "dart")) == 24
    assert all(len(c) == 2 for c in cells(cube, "dart"))
    assert len(cells(cube, "wedge")) == cube.n_flags // 2


@pytest.mark.parametrize("kind", CELL_KINDS)
def test_cells_partition_flags(cube, kind):
    flags = sorted(f for c in cells(cube, kind) for f in c.flags)
    assert flags == list(range(cube.n_flags))


def test_cell_ids_are_orbit_minima(cube):
    for kind in CELL_KINDS:
        for c in cells(cube, kind):
            assert c.id == min(c.flags)


def test_cube_skeleton(cube):
    sk = skeleton(cube)
    assert len(sk.vertices) == 8
    assert len(sk.edges) == 12
    assert sk.is_simple()
    for e in sk.edges:
        a, b = sk.endpoints[e]
        assert a != b


def test_theta_skeleton_has_parallel_edges(theta3):
    sk = skeleton(theta3)
    assert len(sk.vertices) == 2
    assert len(sk.edges) == 3
    pairs = {sk.endpoints[e] for e in sk.edges}
    assert len(pairs) == 1
    assert not sk.is_simple()


def test_torus_grid_skeleton(torus44):
    sk = skeleton(torus44)
    assert len(sk.vertices) == 16
    assert len(sk.edges) == 32


def test_valences_and_face_lengths(cube, antiprism4, opp44):
    assert {valence(cube, v.id) for v in cells(cube, "vertex")} == {3}
    assert {face_length(cube, f.id) for f in cells(cube, "face")} == {4}
    assert {valence(antiprism4, v.id) for v in cells(antiprism4, "vertex")} == {4}
    lengths = sorted(face_length(antiprism4, f.id) for f in cells(antiprism4, "face"))
    assert lengths == [3] * 8 + [4, 4]
    assert uniform_valence(opp44) == 8


def test_counting_identities(cube, antiprism4, torus44):
    for m in (cube, antiprism4, torus44):
        total_valence = sum(valence(m, v.id) for v in cells(m, "vertex"))
        n_edges = len(cells(m, "edge"))
        assert total_valence == 2 * n_edges == len(cells(m, "dart"))
        total_face = sum(face_length(m, f.id) for f in cells(m, "face"))
        assert total_face == 2 * n_edges
        assert m.n_flags == 4 * n_edges


def test_euler_and_genus(cube, torus44, opp44, asymmetric_map):
    assert euler_and_genus(cube) == euler_and_genus(cube).__class__(2, True, 0)
    assert euler_and_genus(torus44).chi == 0
    assert euler_and_genus(torus44).genus == 1
    eg = euler_and_genus(opp44)
    assert (eg.chi, eg.orientable, eg.genus) == (-8, True, 5)
    assert not euler_and_genus(asymmetric_map).orientable


def test_face_bipartition(cube, torus44, antiprism4):
    assert face_bipartition(cube) is None
    coloring = face_bipartition(torus44)
    assert coloring is not None
    sk_faces = cells(torus44, "face")
    assert set(coloring) == {f.id for f in sk_faces}
    # antiprisms alternate triangles around the band, so they 2-color too
    assert face_bipartition(antiprism4) is not None


def test_vertex_bipartition(cube, tetrahedron, torus44):
    assert vertex_bipartition(cube) is not None
    assert vertex_bipartition(tetrahedron) is None
    assert vertex_bipartition(torus44) is not None


def test_order_mod():
    assert order_mod(3, 12) == 4
    assert order_mod(0, 7) == 1
    assert order_mod(5, 12) == 12
    with pytest.raises(ValueError):
        order_mod(1, 0)


def test_nonpositive_modulus_raises_invalid_modulus():
    for n in (0, -3):
        with pytest.raises(InvalidModulus) as info:
            order_mod(1, n)
        assert isinstance(info.value, CornMapsError)
        assert isinstance(info.value, ValueError)


@pytest.mark.parametrize(
    "n, rs, message",
    [
        (4, ((1, 0, 3), (1, 0, 3, 2), (2, 3, 0, 1)), "r0 has length 3"),
        (4, ((1, 0, 3, 2), (1, 0, 3, 4), (2, 3, 0, 1)), "r1 contains"),
        (4, ((1, 0, 3, 2), (1, 0, 3, 2), (2, 3, 0, -1)), "r2 contains"),
        (0, ((), (), ()), "positive number of flags"),
        (4, (None, None, None), "r0 is not a sequence"),
    ],
    ids=["length", "too-large", "negative", "no-flags", "no-sequence"],
)
def test_malformed_involutions_raise_malformed_flag_system(n, rs, message):
    with pytest.raises(MalformedFlagSystem) as info:
        FlagMap(n, *rs)
    assert isinstance(info.value, CornMapsError)
    assert isinstance(info.value, ValueError)
    assert message in str(info.value)


def test_rotation_at_vertex(cube):
    for vcell in cells(cube, "vertex"):
        rotation = rotation_at_vertex(cube, vcell.id)
        assert len(rotation) == valence(cube, vcell.id)
        dart_of = cube.cell_index("dart")
        assert set(rotation) == {dart_of[f] for f in vcell.flags}
        # starts on the dart of the minimum flag
        assert rotation[0] == dart_of[vcell.id]


def test_rotation_wedges_align(cube):
    wedge_of = cube.cell_index("wedge")
    dart_of = cube.cell_index("dart")
    for vcell in cells(cube, "vertex"):
        rotation = rotation_at_vertex(cube, vcell.id)
        wedges = _rotation_table(cube)[vcell.id][2]
        q = len(rotation)
        for k in range(q):
            w = wedges[k]
            touching = {dart_of[w], dart_of[cube.r1[w]]}
            assert touching == {rotation[k], rotation[(k + 1) % q]}


def test_face_boundary_wedges(cube):
    for fcell in cells(cube, "face"):
        walk = face_boundary_wedges(cube, fcell.id)
        assert len(walk) == face_length(cube, fcell.id)
        assert len(set(walk)) == len(walk)


def test_unknown_cell_ids_raise_unknown_cell(cube):
    vertex_ids = {c.id for c in cells(cube, "vertex")}
    face_ids = {c.id for c in cells(cube, "face")}
    bad_vertex = min(set(cube.flags()) - vertex_ids)
    bad_face = min(set(cube.flags()) - face_ids)
    for lookup, cid in (
        (valence, bad_vertex),
        (rotation_at_vertex, bad_vertex),
        (face_length, bad_face),
        (face_boundary_wedges, bad_face),
        (face_boundary_edges, bad_face),
    ):
        with pytest.raises(UnknownCell) as info:
            lookup(cube, cid)
        assert isinstance(info.value, CornMapsError)
        assert isinstance(info.value, KeyError)
        assert str(info.value) == f"no {'vertex' if cid == bad_vertex else 'face'} cell with id {cid}"
    assert valence(cube, min(vertex_ids)) == 3


def test_unknown_cell_kind_raises_unknown_cell_kind(cube):
    with pytest.raises(UnknownCellKind) as info:
        cube.cell_index("bogus")
    assert isinstance(info.value, ValueError)
    assert "bogus" in str(info.value)


def library_lines():
    """``(file name, line number, line)`` for every line of the package source."""
    import pathlib

    import cornmaps

    src = pathlib.Path(cornmaps.__file__).parent
    for path in sorted(src.glob("*.py")):
        for number, line in enumerate(path.read_text().splitlines(), 1):
            yield path.name, number, line


def test_library_raises_no_bare_assertion_error():
    """Broken invariants raise InternalInvariantError, a CornMapsError."""
    offenders = [
        f"{name}:{number}"
        for name, number, line in library_lines()
        if "raise AssertionError" in line
    ]
    assert offenders == []


def test_library_raises_no_bare_lookup_or_value_error():
    """Bad input raises a CornMapsError subclass, and no handler swallows
    every error."""
    banned = ("raise ValueError(", "raise KeyError(", "raise IndexError(", "except Exception")
    offenders = [
        f"{name}:{number}"
        for name, number, line in library_lines()
        if any(b in line for b in banned)
    ]
    assert offenders == []


def test_library_keeps_no_element_api():
    """A group is its images of flag 0: no module materializes every element
    or calls an element-wise arithmetic method."""
    banned = (".elements", "element_with_image", "mul_images", "inv_image")
    offenders = [
        f"{name}:{number}"
        for name, number, line in library_lines()
        if any(b in line for b in banned)
    ]
    assert offenders == []


def test_only_group_construction_checks_symmetries():
    """``SymGroup(m, perms)`` is checked once, when built; any other group
    is one of symmetries by construction and is never checked again."""
    import ast
    import pathlib

    import cornmaps

    uses = []

    def visit(node, scope, name):
        for child in ast.iter_child_nodes(node):
            inner = scope
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                inner = scope + (child.name,)
            elif getattr(child, "id", getattr(child, "attr", None)) == "_commutes_with_involutions":
                uses.append(f"{name}:{'.'.join(scope)}")
            visit(child, inner, name)

    src = pathlib.Path(cornmaps.__file__).parent
    for path in sorted(src.glob("*.py")):
        visit(ast.parse(path.read_text()), (), path.name)
    assert uses == ["symmetry.py:SymGroup.__init__"]
