import random

import pytest

from cornmaps.builders import (
    build_antiprism,
    build_cube,
    build_tetrahedron,
    build_theta,
    build_torus_grid,
    from_rotation_system,
)
from cornmaps.core import FlagMap
from cornmaps.operators import opposite


@pytest.fixture(scope="session")
def cube():
    return build_cube()


@pytest.fixture(scope="session")
def tetrahedron():
    return build_tetrahedron()


@pytest.fixture(scope="session")
def theta3():
    return build_theta(3)


@pytest.fixture(scope="session")
def theta4():
    return build_theta(4)


@pytest.fixture(scope="session")
def torus44():
    return build_torus_grid(4, 4)


@pytest.fixture(scope="session")
def opp44(torus44):
    return opposite(torus44)


@pytest.fixture(scope="session")
def antiprism3():
    return build_antiprism(3)


@pytest.fixture(scope="session")
def antiprism4():
    return build_antiprism(4)


@pytest.fixture(scope="session")
def asymmetric_map():
    """Three vertices of valences 2, 5, 5 on a non-orientable surface;
    rotations and twists scrambled so that no symmetry survives."""
    rotations = {
        0: ["d", "b"],
        1: ["e", "a", "c", "d", "f"],
        2: ["a", "f", "b", "e", "c"],
    }
    twists = {"a": -1, "b": 1, "c": -1, "d": -1, "e": 1, "f": -1}
    return from_rotation_system(rotations, twists, name="lopsided")


@pytest.fixture(scope="session")
def triangular_torus():
    """The 6-valent triangulated 3x3 torus."""
    rot = {}
    for r in range(3):
        for c in range(3):
            rot[(r, c)] = [
                ("e", r, c),
                ("ne", r, c),
                ("n", r, c),
                ("e", r, (c - 1) % 3),
                ("ne", (r - 1) % 3, (c - 1) % 3),
                ("n", (r - 1) % 3, c),
            ]
    return from_rotation_system(rot, name="tritorus3x3")


def group_elements(G):
    """Every element of the group ``G`` as a flag permutation, sorted: the
    products of its generators, closed breadth-first from the identity,
    one product per new image of flag 0.  Tests use it as an oracle; the
    library keeps a group as its images of flag 0.  Kept on the group, as
    the oracles ask for the same group's elements again and again."""
    if "test_elements" in G._cache:
        return G._cache["test_elements"]
    elements = [tuple(G.map.flags())]
    seen = {0}
    for e in elements:
        for g in G.generators:
            if e[g[0]] not in seen:
                seen.add(e[g[0]])
                elements.append(tuple(map(e.__getitem__, g)))
    G._cache["test_elements"] = out = tuple(sorted(elements))
    return out


def relabelled(m, seed):
    """``m`` with its flags renumbered at random."""
    new = list(m.flags())
    random.Random(seed).shuffle(new)
    images = []
    for r in m.involutions():
        image = [0] * m.n_flags
        for f in m.flags():
            image[new[f]] = new[r[f]]
        images.append(image)
    return FlagMap(m.n_flags, *images, name=f"{m.name}~{seed}")
