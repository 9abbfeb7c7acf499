import pytest

import cornmaps.cornerations as corn
import cornmaps.splitgraph as sg
import cornmaps.symtype as st
from cornmaps.core import (
    FlagMap,
    cells,
    compose,
    euler_and_genus,
    face_bipartition,
    face_boundary_edges,
    face_boundary_wedges,
    face_length,
    other_dart,
    rotation_at_vertex,
    skeleton,
    uniform_valence,
    validate,
    valence,
    vertex_bipartition,
)
from cornmaps.errors import (
    GroupNotSubgroup,
    InvalidMapError,
    MalformedFlagSystem,
    UnknownCell,
    UnknownCellKind,
)
from cornmaps.symmetry import (
    HC,
    HD,
    OTHER,
    SymGroup,
    automorphism_group,
    is_face_reflexible,
    is_half_reflexible,
    is_reflexible,
    local_action_group,
    orbits_on,
    subgroups_up_to_index,
)
from conftest import group_elements


def nx_automorphism_count(m):
    """Independent oracle: color-preserving automorphisms of the flag graph."""
    import networkx as nx
    from networkx.algorithms import isomorphism

    g = nx.Graph()
    g.add_nodes_from(range(m.n_flags))
    for color, perm in enumerate(m.involutions()):
        for f in range(m.n_flags):
            if f < perm[f]:
                g.add_edge(f, perm[f], color=color)
    matcher = isomorphism.GraphMatcher(
        g, g, edge_match=lambda a, b: a["color"] == b["color"]
    )
    return sum(1 for _ in matcher.isomorphisms_iter())


def test_automorphism_counts_against_oracle(cube, theta3, antiprism3):
    for m in (cube, theta3, antiprism3):
        assert automorphism_group(m).order == nx_automorphism_count(m)


def test_cube_automorphisms(cube):
    A = automorphism_group(cube)
    assert A.order == 48
    assert is_reflexible(cube)


def test_torus_automorphisms(torus44):
    A = automorphism_group(torus44)
    assert A.order == 128 == torus44.n_flags
    assert is_reflexible(torus44)


def test_asymmetric_map(asymmetric_map):
    A = automorphism_group(asymmetric_map)
    assert A.order == 1
    assert A.order == nx_automorphism_count(asymmetric_map)


def test_elements_commute_with_involutions(antiprism4):
    A = automorphism_group(antiprism4)
    assert A.is_map_symmetry_group()


def test_semiregularity(cube):
    A = automorphism_group(cube)
    images = [g[0] for g in group_elements(A)]
    assert len(set(images)) == len(images)


def test_orbits_on_faces(cube):
    A = automorphism_group(cube)
    assert len(orbits_on(A, "face")) == 1
    assert len(orbits_on(A, "faces")) == 1


def test_orbits_on_unknown_domain(cube):
    A = automorphism_group(cube)
    with pytest.raises(UnknownCellKind):
        orbits_on(A, "bogus")
    assert orbits_on(A, "Vertices") == orbits_on(A, "VERTEX")


def test_trivial_group_orbits(cube):
    trivial = SymGroup(cube, (tuple(range(cube.n_flags)),))
    darts = orbits_on(trivial, "dart")
    assert len(darts) == len(cells(cube, "dart"))
    assert all(len(o) == 1 for o in darts)


def test_half_reflexible_subgroup_face_orbits(torus44):
    G = is_face_reflexible(torus44)
    assert G is not None
    assert is_half_reflexible(torus44, G)
    assert len(orbits_on(G, "face")) == 2
    # index at most 2, and a proper subgroup forces reflexibility
    A = automorphism_group(torus44)
    assert A.order // G.order <= 2
    if G.order < A.order:
        assert is_reflexible(torus44)


def test_face_reflexible_cube(cube):
    assert is_reflexible(cube)
    assert is_face_reflexible(cube) is None  # not face-bipartite


def test_face_reflexible_flag_orbits(opp44):
    from cornmaps.symmetry import flag_orbit_index

    G = is_face_reflexible(opp44)
    assert G is not None
    assert len(set(flag_orbit_index(G))) == 2


def test_subgroups_of_cyclic_four(torus44):
    A = automorphism_group(torus44)
    identity = tuple(range(torus44.n_flags))
    order4 = next(
        g
        for g in group_elements(A)
        if g != identity
        and compose(g, g) != identity
        and compose(compose(g, g), compose(g, g)) == identity
    )
    g2 = compose(order4, order4)
    C4 = SymGroup(torus44, (identity, order4, g2, compose(g2, order4)))
    subs = subgroups_up_to_index(C4, 2)
    assert [H.order for H in subs] == [4, 2]
    assert subgroups_up_to_index(C4, 1)[0].order == 4


def test_subgroup_index_bound(torus44):
    A = automorphism_group(torus44)
    for H in subgroups_up_to_index(A, 4):
        assert A.order % H.order == 0
        assert A.order // H.order <= 4
        assert H.is_map_symmetry_group()


def test_subgroups_complete_for_small_group(theta4):
    # the theta-4 symmetry group is small enough to check subgroup counts
    # against a brute-force closure over all subsets of images
    import itertools

    A = automorphism_group(theta4)
    assert A.order <= 16
    found = set()
    images = A.images()
    by_image = {g[0]: g for g in group_elements(A)}
    for size in range(1, len(images) + 1):
        for subset in itertools.combinations(images, size):
            if 0 not in subset:
                continue
            closed = all(by_image[b][a] in subset for a in subset for b in subset)
            if closed:
                found.add(frozenset(subset))
    by_index = {
        s for s in found if len(images) // len(s) <= 4 and len(images) % len(s) == 0
    }
    enumerated = {
        frozenset(H.images()) for H in subgroups_up_to_index(A, 4)
    }
    assert enumerated == by_index


def test_local_action_full_stabilizer_is_other(torus44):
    A = automorphism_group(torus44)
    v0 = cells(torus44, "vertex")[0].id
    action = local_action_group(A, v0)
    assert action.tag == OTHER  # contains the one-step rotation
    assert len(action.permutations) == 8  # dihedral of the square


def test_local_action_tags(opp44):
    import cornmaps.cornerations as corn

    A = automorphism_group(opp44)
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    G = corn.corneration_stabilizer(A, L)
    v0 = cells(opp44, "vertex")[0].id
    assert local_action_group(G, v0).tag == HD


def test_local_action_hc_on_grid_corneration():
    from cornmaps.builders import build_torus_grid_corneration
    import cornmaps.cornerations as corn

    m, L = build_torus_grid_corneration(4, 5)
    G = corn.corneration_stabilizer(automorphism_group(m), L)
    for vcell in cells(m, "vertex"):
        assert local_action_group(G, vcell.id).tag == HC


def test_local_action_unknown_vertex(torus44):
    A = automorphism_group(torus44)
    vertex_ids = {c.id for c in cells(torus44, "vertex")}
    bad = min(set(torus44.flags()) - vertex_ids)
    with pytest.raises(UnknownCell):
        local_action_group(A, bad)


def test_automorphism_group_rejects_invalid_flag_system():
    m = FlagMap(
        8,
        (1, 0, 3, 2, 5, 4, 7, 6),
        (2, 3, 0, 1, 6, 7, 4, 5),
        (3, 2, 1, 0, 7, 6, 5, 4),
    )
    with pytest.raises(InvalidMapError):
        automorphism_group(m)


def test_empty_group_rejected(cube):
    with pytest.raises(GroupNotSubgroup):
        SymGroup(cube, ())


# each public function taking a group, called on torus 4x4 with ``G`` in
# the group's place; ``L`` is a transitive wedge corneration, ``S`` its
# complement split graph and ``K`` the complement's corners
GROUP_TAKERS = {
    "corneration_stabilizer": lambda m, L, S, K, G: corn.corneration_stabilizer(G, L),
    "is_transitive_on_corners": lambda m, L, S, K, G: corn.is_transitive_on_corners(G, L),
    "corner_orbits": lambda m, L, S, K, G: corn.corner_orbits(G, L.corners),
    "enumerate_invariant_cornerations": (
        lambda m, L, S, K, G: corn.enumerate_invariant_cornerations(m, G, 1)
    ),
    "classify": lambda m, L, S, K, G: st.classify(m, G, L),
    "symmetry_type_graph": lambda m, L, S, K, G: st.symmetry_type_graph(m, G, L),
    "verify_vertex_transitive": lambda m, L, S, K, G: sg.verify_vertex_transitive(S, G, K),
    "orbits_on": lambda m, L, S, K, G: orbits_on(G, "darts"),
    "subgroups_up_to_index": lambda m, L, S, K, G: subgroups_up_to_index(G, 2),
    "local_action_group": lambda m, L, S, K, G: local_action_group(G, cells(m, "vertex")[0].id),
    "is_half_reflexible": lambda m, L, S, K, G: is_half_reflexible(m, G),
}


@pytest.fixture(scope="module")
def group_taker_args(torus44):
    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    K = corn.j_complement(L).corners
    return torus44, L, sg.split(L, K), K


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize("name", list(GROUP_TAKERS))
def test_group_arguments_must_be_symmetry_groups(group_taker_args, name, bad):
    call = GROUP_TAKERS[name]
    G = corn.corneration_stabilizer(automorphism_group(group_taker_args[0]), group_taker_args[1])
    call(*group_taker_args, G)  # the arguments are otherwise good
    with pytest.raises(GroupNotSubgroup):
        call(*group_taker_args, bad)


# public functions taking a map, from the group layer, ``core`` and
# ``cornerations``, called with ``m`` in the map's place; ``L`` is as above
# and ``G`` its stabilizer, and 0 is the id of a cell of every kind
MAP_TAKERS = {
    "SymGroup": lambda m, L, G: SymGroup(m, group_elements(G)),
    "automorphism_group": lambda m, L, G: automorphism_group(m),
    "is_reflexible": lambda m, L, G: is_reflexible(m),
    "is_face_reflexible": lambda m, L, G: is_face_reflexible(m),
    "is_half_reflexible": lambda m, L, G: is_half_reflexible(m, G),
    "enumerate_invariant_cornerations": lambda m, L, G: corn.enumerate_invariant_cornerations(m, G, 1),
    "enumerate_transitive_cornerations": lambda m, L, G: corn.enumerate_transitive_cornerations(m, 1),
    "symmetric_cornerations_from_coloring": (
        lambda m, L, G: corn.symmetric_cornerations_from_coloring(m, 1)
    ),
    "symmetry_type_graph": lambda m, L, G: st.symmetry_type_graph(m, G, L),
    "validate": lambda m, L, G: validate(m),
    "euler_and_genus": lambda m, L, G: euler_and_genus(m),
    "skeleton": lambda m, L, G: skeleton(m),
    "face_bipartition": lambda m, L, G: face_bipartition(m),
    "vertex_bipartition": lambda m, L, G: vertex_bipartition(m),
    "uniform_valence": lambda m, L, G: uniform_valence(m),
    "valence": lambda m, L, G: valence(m, 0),
    "face_length": lambda m, L, G: face_length(m, 0),
    "face_boundary_wedges": lambda m, L, G: face_boundary_wedges(m, 0),
    "face_boundary_edges": lambda m, L, G: face_boundary_edges(m, 0),
    "other_dart": lambda m, L, G: other_dart(m, 0),
    "corner_of_wedge": lambda m, L, G: corn.corner_of_wedge(m, 0),
    "is_corneration": lambda m, L, G: corn.is_corneration(m, L.corners),
    "corneration_of": lambda m, L, G: corn.corneration_of(m, corn.circuits_of(L)),
    "all_j_corners": lambda m, L, G: corn.all_j_corners(m, 1),
    "rotation_at_vertex": lambda m, L, G: rotation_at_vertex(m, 0),
    "corner_from_darts": lambda m, L, G: corn.corner_from_darts(m, L.key()[0][1]),
    "cells": lambda m, L, G: cells(m, "vertex"),
}


@pytest.mark.parametrize("bad", [None, "x"], ids=["None", "str"])
@pytest.mark.parametrize("name", list(MAP_TAKERS))
def test_map_arguments_must_be_flag_maps(group_taker_args, name, bad):
    m, L = group_taker_args[:2]
    G = corn.corneration_stabilizer(automorphism_group(m), L)
    call = MAP_TAKERS[name]
    call(m, L, G)  # the arguments are otherwise good
    with pytest.raises(MalformedFlagSystem):
        call(bad, L, G)
