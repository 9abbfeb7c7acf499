"""Property-based checks of the map invariants on random rotation systems."""

import hypothesis.strategies as hst
import pytest
from hypothesis import assume, given, settings

from cornmaps.builders import build_torus_grid, from_rotation_system
from cornmaps.core import (
    CELL_KINDS,
    cells,
    euler_and_genus,
    face_length,
    skeleton,
    uniform_valence,
    valence,
)
from cornmaps.errors import DegenerateResult, GroupNotSubgroup, InconsistentRotation
from cornmaps.fileio import parse_map, write_map
from cornmaps.operators import dual, hole, petrie
from cornmaps.symmetry import SymGroup, automorphism_group
from conftest import group_elements


@hst.composite
def rotation_systems(draw):
    n_vertices = draw(hst.integers(min_value=2, max_value=4))
    n_edges = draw(hst.integers(min_value=n_vertices - 1, max_value=7))
    ends = draw(
        hst.lists(
            hst.tuples(
                hst.integers(0, n_vertices - 1), hst.integers(0, n_vertices - 1)
            ).filter(lambda t: t[0] != t[1]),
            min_size=n_edges,
            max_size=n_edges,
        )
    )
    incidence = {v: [] for v in range(n_vertices)}
    for i, (u, v) in enumerate(ends):
        incidence[u].append(i)
        incidence[v].append(i)
    assume(all(incidence[v] for v in incidence))
    rotations = {}
    for v in range(n_vertices):
        order = draw(hst.permutations(incidence[v]))
        rotations[v] = list(order)
    twists = {
        i: draw(hst.sampled_from((1, -1))) for i in range(n_edges)
    }
    return rotations, twists


def build(data):
    rotations, twists = data
    try:
        return from_rotation_system(rotations, twists)
    except InconsistentRotation:
        assume(False)


@given(rotation_systems())
@settings(max_examples=60, deadline=None)
def test_counting_identities(data):
    m = build(data)
    n_edges = len(cells(m, "edge"))
    assert m.n_flags == 4 * n_edges
    total_valence = sum(valence(m, v.id) for v in cells(m, "vertex"))
    assert total_valence == 2 * n_edges == len(cells(m, "dart"))
    total_faces = sum(face_length(m, f.id) for f in cells(m, "face"))
    assert total_faces == 2 * n_edges


@given(rotation_systems())
@settings(max_examples=60, deadline=None)
def test_cells_partition(data):
    m = build(data)
    for kind in CELL_KINDS:
        flags = sorted(f for c in cells(m, kind) for f in c.flags)
        assert flags == list(range(m.n_flags))


@given(rotation_systems())
@settings(max_examples=60, deadline=None)
def test_petrie_is_involutive_and_keeps_skeleton(data):
    m = build(data)
    P = petrie(m)
    assert (P.r1, P.r2) == (m.r1, m.r2)
    again = petrie(P)
    assert (again.r0, again.r1, again.r2) == (m.r0, m.r1, m.r2)
    assert skeleton(P).endpoints == skeleton(m).endpoints


@given(rotation_systems())
@settings(max_examples=60, deadline=None)
def test_dual_preserves_euler(data):
    m = build(data)
    try:
        d = dual(m)
    except DegenerateResult:
        return  # a face met itself across an edge; nothing to compare
    assert euler_and_genus(d).chi == euler_and_genus(m).chi
    assert euler_and_genus(d).orientable == euler_and_genus(m).orientable


@given(rotation_systems())
@settings(max_examples=60, deadline=None)
def test_file_roundtrip(data):
    m = build(data)
    assert parse_map(write_map(m)) == m


@given(rotation_systems())
@settings(max_examples=30, deadline=None)
def test_hole_width_one(data):
    m = build(data)
    q = uniform_valence(m)
    if q is None or q < 2:
        return
    result = hole(m, 1)
    assert len(result.maps) == 1
    one = result.maps[0]
    assert (one.r0, one.r1, one.r2) == (m.r0, m.r1, m.r2)


@given(rotation_systems())
@settings(max_examples=20, deadline=None)
def test_symmetry_group_is_semiregular(data):
    m = build(data)
    A = automorphism_group(m)
    assert m.n_flags % A.order == 0
    images = [g[0] for g in group_elements(A)]
    assert len(set(images)) == A.order


@given(rotation_systems(), hst.data())
@settings(max_examples=60, deadline=None)
def test_user_groups_are_checked_when_built(data, draws):
    """A subset of the automorphism group, sometimes corrupted, is either a
    group with the oracle's images and elements or raises GroupNotSubgroup."""
    m = build(data)
    n = m.n_flags
    elements = group_elements(automorphism_group(m))
    g = draws.draw(hst.sampled_from(elements))
    cyclic = [tuple(range(n))]
    while g[cyclic[-1][0]] != 0:
        cyclic.append(tuple(g[x] for x in cyclic[-1]))
    subset = draws.draw(
        hst.one_of(hst.just(cyclic), hst.lists(hst.sampled_from(elements), unique=True))
    )
    subset = [list(p) for p in subset]
    corruption = draws.draw(hst.sampled_from((None, "range", "length", "swap", "extra")))
    if corruption == "extra":
        subset.append(draws.draw(hst.permutations(range(n))))
    elif corruption and subset:
        p = subset[draws.draw(hst.integers(0, len(subset) - 1))]
        if corruption == "range":
            p[draws.draw(hst.integers(0, n - 1))] = draws.draw(hst.sampled_from((-1, n)))
        elif corruption == "length":
            p.append(0) if draws.draw(hst.booleans()) else p.pop()
        else:
            i, j = draws.draw(hst.lists(hst.integers(0, n - 1), min_size=2, max_size=2, unique=True))
            p[i], p[j] = p[j], p[i]

    perms = {tuple(p) for p in subset}
    is_group = (
        perms
        and perms <= set(elements)
        and all(tuple(p[x] for x in q) in perms for p in perms for q in perms)
    )
    if not is_group:
        with pytest.raises(GroupNotSubgroup):
            SymGroup(m, subset)
        return
    G = SymGroup(m, subset)
    assert G.images() == tuple(sorted(p[0] for p in perms))
    assert group_elements(G) == tuple(sorted(perms))


def test_user_group_entries_must_be_ints():
    """Entries equal to flags but not ints (1.0, True) are no permutation."""
    m = build_torus_grid(2, 2)
    identity = list(range(m.n_flags))
    for bad in (
        [float(x) for x in identity],
        identity[:-1] + [float(identity[-1])],
        [0, True] + identity[2:],
    ):
        with pytest.raises(GroupNotSubgroup):
            SymGroup(m, [bad])
    assert SymGroup(m, [identity]).images() == (0,)
