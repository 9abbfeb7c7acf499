"""Generator- and coset-based group bookkeeping against element-wise oracles.

The oracles below are the straightforward algorithms that walk every
element of a group: the automorphism group by propagating from every
flag, the generator rule by recomputing an orbit for each candidate,
index-2 kernels from all pairwise commutators, the whole subgroup
lattice closed one element at a time, the coset-table search scanning
every directed Cayley edge, the stabilizer of a corneration as
a filter over all elements, corner orbits walked breadth-first with each
corner's image key, invariant cornerations as exact covers built on
the flags, local actions with their tags tried against every rotation and
reflection, and the brute-force spot check's stabilizer per corneration.
The library's versions must reproduce them exactly, generator tuples
included.
"""

import functools
import itertools
import random
import tracemalloc
from collections import Counter

import pytest

from cornmaps import core, cornerations, symmetry
from cornmaps.builders import build_antiprism, build_theta, build_torus_grid
from cornmaps.core import (
    DART,
    EDGE,
    FACE,
    VERTEX,
    WEDGE,
    FlagMap,
    _rotation_table,
    cells,
    face_bipartition,
    orbits,
    uniform_valence,
)
from cornmaps.cornerations import (
    all_j_corners,
    corner_from_darts,
    corner_orbits,
    corneration_stabilizer,
    enumerate_invariant_cornerations,
    enumerate_transitive_cornerations,
    is_transitive_on_corners,
)
from cornmaps.errors import (
    CornerationMismatch,
    GroupDoesNotPreserveCorneration,
    GroupNotSubgroup,
    NotTransitive,
)
from cornmaps.operators import _propagate, opposite, petrie
from cornmaps.symmetry import (
    HC,
    HD,
    OTHER,
    QD,
    LocalAction,
    SymGroup,
    automorphism_group,
    flag_orbit_index,
    is_face_reflexible,
    is_half_reflexible,
    local_action_group,
    orbits_on,
    subgroups_up_to_index,
)
from cornmaps.symtype import BOX, OVAL, Diagram, classify, symmetry_type_graph
from cornmaps.verify import SuiteContext, _all_cornerations_mixed, _mixed_cover_spotchecks
from conftest import group_elements


# -- oracles -----------------------------------------------------------------


def corner_image_key(m, g, c):
    """The key of the image of the corner ``c`` under the flag permutation ``g``."""
    vertex_of = m.cell_index(VERTEX)
    dart_of = m.cell_index(DART)
    d1, d2 = c.darts
    a, b = dart_of[g[d1]], dart_of[g[d2]]
    return (vertex_of[g[c.vertex]], (a, b) if a < b else (b, a))


def oracle_automorphisms(m):
    """Every flag tried as the image of flag 0."""
    found = (_propagate(m, m, target) for target in m.flags())
    return tuple(sorted(phi for phi in found if phi is not None))


@functools.cache
def by_image(G):
    return {p[0]: p for p in group_elements(G)}


def oracle_orbit_of_zero(G, gen_images):
    by = by_image(G)
    perms = []
    for f in gen_images:
        p = by[f]
        perms.append(p)
        inv = [0] * len(p)
        for i, j in enumerate(p):
            inv[j] = i
        perms.append(tuple(inv))
    reached = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for p in perms:
            y = p[x]
            if y not in reached:
                reached.add(y)
                frontier.append(y)
    return reached


def oracle_order(G, f):
    """Order of the element with image ``f``: the length of its cycle through flag 0."""
    p = by_image(G)[f]
    n, x = 1, p[0]
    while x != 0:
        n, x = n + 1, p[x]
    return n


def oracle_generator_images(G):
    """The generator rule, with every orbit recomputed from the elements:
    involutions first, then by decreasing order, then ascending image, keep
    each image that grows the orbit of flag 0, then drop, in the same order,
    each kept image that the others span."""
    order = {f: oracle_order(G, f) for f in G.images()}
    gens = []
    reached = {0}
    for f in sorted(G.images(), key=lambda h: (order[h] != 2, -order[h], h)):
        if f not in reached:
            gens.append(f)
            reached = oracle_orbit_of_zero(G, gens)
    for f in list(gens):
        if f in oracle_orbit_of_zero(G, [g for g in gens if g != f]):
            gens.remove(f)
    return tuple(gens)


def oracle_closure(G, seed):
    by = by_image(G)
    closure = {0} | set(seed)
    frontier = list(closure)
    while frontier:
        new = []
        for f in frontier:
            for h in list(closure):
                for prod in (by[h][f], by[f][h]):
                    if prod not in closure:
                        closure.add(prod)
                        new.append(prod)
        frontier = new
    return frozenset(closure)


def oracle_index_two(G):
    """Index-2 kernels, with G^2 closed from every square and commutator."""
    images = G.images()
    by = by_image(G)

    def mul(f, h):
        return by[h][f]

    def inv(f):
        return by[f].index(0)

    seed = {mul(f, f) for f in images}
    for f in images:
        for h in images:
            seed.add(mul(mul(inv(f), inv(h)), mul(f, h)))
    N = oracle_closure(G, seed)
    if len(N) == len(images):
        return []
    coset_of = {}
    reps = []
    for f in images:
        if f in coset_of:
            continue
        rep = len(reps)
        reps.append(f)
        for n in N:
            coset_of[mul(n, f)] = rep
    r = 0
    coords = {0: 0}
    for rep in range(len(reps)):
        if rep in coords:
            continue
        bit = 1 << r
        r += 1
        for known, vec in list(coords.items()):
            coords[coset_of[mul(reps[known], reps[rep])]] = vec | bit
    return [
        frozenset(f for f in images if bin(coords[coset_of[f]] & chi).count("1") % 2 == 0)
        for chi in range(1, 1 << r)
    ]


def oracle_subgroup_lattice(G):
    """Every subgroup: close {identity} under "span H with one more element".

    Complete, because every subgroup is reached along a chain that adds
    one of its elements at a time.
    """
    gens = {frozenset({0}): []}
    frontier = list(gens)
    while frontier:
        grown = []
        for H in frontier:
            for f in G.images():
                if f in H:
                    continue
                S = frozenset(oracle_orbit_of_zero(G, gens[H] + [f]))
                if S not in gens:
                    gens[S] = gens[H] + [f]
                    grown.append(S)
        frontier = grown
    return set(gens)


def oracle_cayley_edges(G):
    """``(x, generator index, x g, first)`` for every element x and generator
    g, breadth-first from the identity: both directions of an involution's
    edge."""
    edges, reached, queue = [], {0}, [0]
    for x in queue:
        for gi, p in enumerate(G.generators):
            y = p[x]
            edges.append((x, gi, y, y not in reached))
            if y not in reached:
                reached.add(y)
                queue.append(y)
    return edges


def oracle_subgroups(G, k):
    """``(order, images, coset table)`` of each subgroup of index <= k, by
    decreasing order, from the coset-table search over every directed edge
    of :func:`oracle_cayley_edges`: an open entry branches over the cosets
    its column does not hit, plus one new coset, and sets no other entry."""
    edges = oracle_cayley_edges(G)
    label = [0] * G.map.n_flags
    table = [[None] * len(G.generators) for _ in range(k)]
    found = []

    def scan(e, n_cosets):
        while e < len(edges):
            x, gi, y, first = edges[e]
            t = table[label[x]][gi]
            if t is None:
                break
            if first:
                label[y] = t
            elif label[y] != t:
                return
            e += 1
        else:
            images = tuple(f for f in G.images() if label[f] == 0)
            found.append((len(images), images, tuple(map(tuple, table[:n_cosets]))))
            return
        row = table[label[x]]
        hit = {r[gi] for r in table[:n_cosets]}
        for t in range(min(n_cosets + 1, k)):
            if t not in hit:
                row[gi] = t
                scan(e, max(n_cosets, t + 1))
        row[gi] = None

    scan(0, 1)
    return sorted(found, key=lambda s: (-s[0], s[1]))


def oracle_stabilizer(A, L):
    m = L.map
    target = {c.key() for c in L.corners}
    return tuple(
        g[0]
        for g in group_elements(A)
        if all(corner_image_key(m, g, c) in target for c in L.corners)
    )


def oracle_corner_orbits(G, corners):
    """Breadth-first orbits of corner keys; None when a corner leaves the set."""
    m = G.map
    pool = {c.key(): c for c in corners}
    remaining = set(pool)
    out = []
    while remaining:
        start = min(remaining)
        orbit = {start}
        queue = [start]
        for k in queue:
            for g in G.generators:
                img = corner_image_key(m, g, pool[k])
                if img not in pool:
                    return None
                if img not in orbit:
                    orbit.add(img)
                    queue.append(img)
        remaining -= orbit
        out.append(sorted(orbit))
    return out


def oracle_flag_orbit_index(G):
    """Each flag's least orbit-mate, from the orbits under G's generators as
    flag permutations."""
    index = [0] * G.map.n_flags
    for part in orbits(G.map.n_flags, G.generators):
        for f in part:
            index[f] = part[0]
    return tuple(index)


def oracle_orbits_on(G, kind):
    """The G-orbits of flags, or of the cells of ``kind`` under one
    permutation of cell ids per generator."""
    if kind == "flags":
        return tuple(map(tuple, orbits(G.map.n_flags, G.generators)))
    index = G.map.cell_index(kind)
    ids = [c.id for c in cells(G.map, kind)]
    pos = {c: i for i, c in enumerate(ids)}
    perms = [[pos[index[g[c]]] for c in ids] for g in G.generators]
    return tuple(tuple(ids[i] for i in part) for part in orbits(len(ids), perms))


def oracle_is_half_reflexible(m, G):
    """Not flag-transitive, and each face's flags in one flag orbit."""
    orbit_of = oracle_flag_orbit_index(G)
    return G.order != m.n_flags and all(
        len({orbit_of[f] for f in face.flags}) == 1 for face in cells(m, FACE)
    )


def oracle_symmetry_type_graph(m, G, L):
    """The quotient built on the flags: the flag orbits by least flag, each
    one's shape from a scan of all flags, and r0, r1, r2 on the orbits'
    least flags."""
    orbit_of = oracle_flag_orbit_index(G)
    reps = sorted(set(orbit_of))
    node_of = {rep: i for i, rep in enumerate(reps)}
    in_wedges = L.in_wedges()
    wedge_of = m.cell_index(WEDGE)
    shapes = []
    for rep in reps:
        values = {wedge_of[f] in in_wedges for f in m.flags() if orbit_of[f] == rep}
        if len(values) != 1:
            raise GroupDoesNotPreserveCorneration(f"orbit of flag {rep} mixes wedges")
        shapes.append(BOX if values.pop() else OVAL)
    sigma = tuple(tuple(node_of[orbit_of[r[rep]]] for rep in reps) for r in m.involutions())
    return Diagram(tuple(shapes), sigma)


def oracle_invariant_keys(m, H, j):
    """Keys of the H-invariant j-cornerations, in key order, from an exact
    cover built on the flags: corner orbits under H's corner permutations,
    dart orbits under its flag permutations, and the darts of each corner
    orbit."""
    if uniform_valence(m) % 2:
        return []
    corners = all_j_corners(m, j)
    numbers = cornerations._corner_numbers(m, corners)
    corner_orbit_list = orbits(len(corners), cornerations._corner_perms(H, numbers))
    dart_orbits = oracle_orbits_on(H, DART)
    col_of = {d: col for col, orbit in enumerate(dart_orbits) for d in orbit}
    rows, row_cols = [], []
    for orbit in corner_orbit_list:
        cover = Counter(col_of[d] for ci in orbit for d in corners[ci].darts)
        if all(total == len(dart_orbits[col]) for col, total in cover.items()):
            rows.append(orbit)
            row_cols.append(sum(1 << col for col in cover))
    blocks = cornerations._block_covers(row_cols, len(dart_orbits))
    return sorted(
        tuple(sorted(corners[ci].key() for s in choice for ri in s for ci in rows[ri]))
        for choice in itertools.product(*blocks)
    )


# -- maps --------------------------------------------------------------------


def relabel(m, seed):
    new = list(m.flags())
    random.Random(seed).shuffle(new)
    images = []
    for r in m.involutions():
        image = [0] * m.n_flags
        for f in m.flags():
            image[new[f]] = new[r[f]]
        images.append(image)
    return FlagMap(m.n_flags, *images, name=f"{m.name}~{seed}")


@pytest.fixture(scope="module")
def maps():
    out = dict(SuiteContext().maps)
    out["torus8x8"] = build_torus_grid(8, 8)
    out["opp4x4~7"] = relabel(opposite(build_torus_grid(4, 4)), 7)
    return out


@pytest.fixture
def propagations(monkeypatch):
    targets = []
    real = symmetry._propagate

    def counting(a, b, target):
        targets.append(target)
        return real(a, b, target)

    monkeypatch.setattr(symmetry, "_propagate", counting)
    return targets


def test_automorphism_group_matches_per_flag_oracle(propagations, asymmetric_map):
    maps = dict(SuiteContext().maps)
    maps["theta4"] = build_theta(4)
    maps["antiprism7"] = build_antiprism(7)
    maps["opp6x6"] = opposite(build_torus_grid(6, 6))
    maps["petrie(opp4x4)"] = petrie(opposite(build_torus_grid(4, 4)))
    maps["opp4x4~7"] = relabel(opposite(build_torus_grid(4, 4)), 7)
    for name, m in maps.items():
        propagations.clear()
        A = automorphism_group(m)
        assert group_elements(A) == oracle_automorphisms(m), name
        assert 1 <= len(propagations) <= 15, (name, len(propagations))
    # with no symmetry to grow, every other flag is tried once; a fresh
    # copy, since the session fixture may have its group memoized
    m = FlagMap(asymmetric_map.n_flags, *asymmetric_map.involutions())
    propagations.clear()
    assert group_elements(automorphism_group(m)) == oracle_automorphisms(m)
    assert sorted(propagations) == list(range(1, m.n_flags))


def test_flag_transitive_torus_takes_three_propagations(propagations):
    m = build_torus_grid(24, 24)
    A = automorphism_group(m)
    assert len(propagations) == 3
    assert A.order == m.n_flags == 4608
    assert A.images() == tuple(range(m.n_flags))


@pytest.fixture(scope="module")
def sweep_groups():
    """Aut and every subgroup of index <= 4 of the suite maps, the relabelled
    8x8 torus and opp(torus 6x6): 434 groups, every sweep stabilizer among
    them."""
    ms = dict(SuiteContext().maps)
    ms["torus8x8~1"] = relabel(build_torus_grid(8, 8), 1)
    ms["opp6x6"] = opposite(build_torus_grid(6, 6))
    out = []
    for name, m in ms.items():
        A = automorphism_group(m)
        out.extend((name, H) for H in [A] + subgroups_up_to_index(A, 4))
    return out


def test_generator_images_span_the_group_irredundantly(sweep_groups):
    assert len(sweep_groups) == 434
    assert max(H.order for _, H in sweep_groups) >= 512
    for name, H in sweep_groups:
        gens = list(H.generator_images())
        assert oracle_orbit_of_zero(H, gens) == set(H.images()), (name, H.order)
        for i in range(len(gens)):
            rest = gens[:i] + gens[i + 1 :]
            assert len(oracle_orbit_of_zero(H, rest)) < H.order, (name, H.order, i)


def test_generator_images_follow_the_rule_oracle(sweep_groups):
    for name, H in sweep_groups:
        assert H.generator_images() == oracle_generator_images(H), (name, H.order)


def test_sweep_reads_stabilizers_off_the_subgroup_list(monkeypatch):
    """test_stabilizers_match_element_filter_on_sweeps checks what it reads."""
    calls = []

    def counting(A, L):
        calls.append(L)
        return corneration_stabilizer(A, L)

    monkeypatch.setattr(cornerations, "corneration_stabilizer", counting)
    for m, j in ((build_torus_grid(4, 4), 1), (opposite(build_torus_grid(4, 4)), 3)):
        assert enumerate_transitive_cornerations(m, j)
    assert calls == []


def oracle_local_permutations(G, v):
    """The vertex stabilizer on rotation positions, by a scan of every element."""
    m = G.map
    flags, darts, _ = _rotation_table(m)[v]
    pos = {d: i for i, d in enumerate(darts)}
    vertex_of = m.cell_index(VERTEX)
    dart_of = m.cell_index(DART)
    return tuple(
        sorted(
            {
                tuple(pos[dart_of[g[f]]] for f in flags)
                for g in group_elements(G)
                if vertex_of[g[v]] == v
            }
        )
    )


def test_local_actions_and_face_colorings_match_element_scans(maps):
    checked = 0
    for name, m in maps.items():
        if m.n_flags > 288:
            continue
        A = automorphism_group(m)
        for H in [A] + subgroups_up_to_index(A, 2):
            for vertex in cells(m, VERTEX):
                got = local_action_group(H, vertex.id).permutations
                assert got == oracle_local_permutations(H, vertex.id), name
                checked += 1
        G = is_face_reflexible(m)
        coloring = face_bipartition(m)
        if A.order == m.n_flags and coloring is not None:
            face_of = m.cell_index(FACE)
            f0 = cells(m, FACE)[0].id
            keep = tuple(
                g[0] for g in group_elements(A) if coloring[face_of[g[f0]]] == coloring[f0]
            )
            assert G is None or G.images() == keep, name
    assert checked > 500


def oracle_tag(perms, q):
    """The tag by the quadratic rule: each permutation tried against every
    rotation s and every reflection f of the rotation positions."""
    rotations, reflections, unknown = set(), set(), False
    for sigma in perms:
        matched = False
        for s in range(q):
            if all(sigma[i] == (i + s) % q for i in range(q)):
                rotations.add(s)
                matched = True
        for f in range(q):
            if all(sigma[i] == (f - i) % q for i in range(q)):
                reflections.add(f)
                matched = True
        unknown = unknown or not matched
    if unknown or q % 2:
        return OTHER
    evens = set(range(0, q, 2))
    if rotations == evens and reflections == set(range(1, q, 2)):
        return HD
    if rotations == evens and not reflections:
        return HC
    odd_quarters = [{f for f in range(q) if f % 4 == k} for k in (1, 3)]
    if q % 4 == 0 and rotations == set(range(0, q, 4)) and reflections in odd_quarters:
        return QD
    return OTHER


def oracle_local_pairs(L, v):
    """Rotation positions of the corners of ``L`` at ``v``, by a scan of all of them."""
    pos = {d: i for i, d in enumerate(_rotation_table(L.map)[v][1])}
    return tuple(sorted(tuple(sorted(map(pos.get, c.darts))) for c in L.corners if c.vertex == v))


@pytest.fixture
def vertex_walks(monkeypatch):
    walks = Counter()
    real = symmetry._vertex_moves

    def counting(m, v):
        walks[id(m), v] += 1
        return real(m, v)

    monkeypatch.setattr(symmetry, "_vertex_moves", counting)
    return walks


def test_local_actions_match_the_element_scan_and_the_quadratic_tag_rule(maps, vertex_walks):
    """Every call of the local-structure claim (each transitive record's
    group below the straight width, at every vertex) and Aut with its
    index-2 subgroups on every map of at most 288 flags.  Each map's
    vertex walk runs once, whatever the group."""
    ctx = SuiteContext()  # maps of its own, so that no vertex table exists yet
    cases = []
    for (name, j), records in ctx.sweep_all().items():
        m = ctx.maps[name]
        if 2 * j != uniform_valence(m):
            cases += [(m, r.aut, r.corneration) for r in records if r.transitive]
    claim_calls = sum(len(cells(m, VERTEX)) for m, _, _ in cases)
    fresh = dict(ctx.maps)
    for name, m in maps.items():
        if name not in fresh and m.n_flags <= 288:
            fresh[name] = FlagMap(m.n_flags, *m.involutions(), name=m.name)
    for m in fresh.values():
        A = automorphism_group(m)
        cases += [(m, H, None) for H in [A] + subgroups_up_to_index(A, 2)]
    tags = Counter()
    for m, G, L in cases:
        for vertex in cells(m, VERTEX):
            v = vertex.id
            rotation = _rotation_table(m)[v][1]
            perms = oracle_local_permutations(G, v)
            expected = LocalAction(v, rotation, perms, oracle_tag(perms, len(rotation)))
            assert local_action_group(G, v) == expected, (m.name, G.images(), v)
            tags[expected.tag] += 1
            if L is not None:
                assert cornerations.local_corneration(L, v).pairs == oracle_local_pairs(L, v)
    assert claim_calls == 1348 and set(tags) == {HD, HC, QD, OTHER}
    assert set(vertex_walks.values()) == {1}
    assert len(vertex_walks) == sum(len(cells(m, VERTEX)) for m in fresh.values())


def test_automorphism_group_stores_no_element():
    m = build_torus_grid(24, 24)
    m.require_valid()
    m.cell_index(VERTEX)
    tracemalloc.start()
    try:
        A = automorphism_group(m)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert A.order == 4608
    assert peak < 20 * 2**20


def test_index_two_subgroups_match_commutator_oracle(maps):
    for name, m in maps.items():
        A = automorphism_group(m)
        index_two = {
            frozenset(H.images())
            for H in subgroups_up_to_index(A, 2)
            if 2 * H.order == A.order
        }
        assert index_two == set(oracle_index_two(A)), name


def test_subgroups_match_lattice_closure_oracle(maps):
    checked = 0
    for name, m in maps.items():
        A = automorphism_group(m)
        # one group per order up to 64, for time
        by_order = {}
        for H in [A] + subgroups_up_to_index(A, 4):
            if H.order <= 64:
                by_order.setdefault(H.order, H)
        for H in by_order.values():
            lattice = oracle_subgroup_lattice(H)
            for k in (2, 3, 4):
                want = {S for S in lattice if len(S) * k >= H.order}
                got = [frozenset(S.images()) for S in subgroups_up_to_index(H, k)]
                assert len(got) == len(set(got)), (name, H.order, k)
                assert set(got) == want, (name, H.order, k)
            checked += 1
    assert checked > 30


def test_subgroup_search_takes_any_number_of_generators():
    A = automorphism_group(build_torus_grid(4, 4))
    B = A.subgroup_from_images(A.images())
    gens = A.generator_images()
    assert len(gens) < 5
    redundant = [f for f in A.images() if f not in gens][: 5 - len(gens)]
    B._cache["gen_images"] = gens + tuple(redundant)
    assert len(B.generators) == 5
    assert [H.images() for H in subgroups_up_to_index(B, 4)] == [
        H.images() for H in subgroups_up_to_index(A, 4)
    ]


def test_subgroup_search_matches_the_unpaired_scan():
    """Subgroups, their order and their coset tables, for k = 1..4, against
    the scan over both directions of every edge: on Aut of every suite map
    and of a relabelled torus, on each index-2 subgroup of those with a
    generator that is no involution (24 of them mix paired and unpaired
    columns), and on a trivial group, whose one generator is the identity."""
    groups = []
    ms = dict(SuiteContext().maps)
    ms["torus8x8~1"] = relabel(build_torus_grid(8, 8), 1)
    for m in ms.values():
        A = automorphism_group(m)
        groups.append(A)
        for G in subgroups_up_to_index(A, 2)[1:]:
            if any(G._apply(g, g) != 0 for g in G.generator_images()):
                groups.append(G)
    groups.append(A.subgroup_from_images([0]))
    mixed = [G for G in groups if len({G._apply(g, g) == 0 for g in G.generator_images()}) == 2]
    assert len(mixed) >= 24
    for G in groups:
        for k in (1, 2, 3, 4):
            got = [(H.order, H.images(), H._cache["cosets"][1]) for H in subgroups_up_to_index(G, k)]
            assert got == oracle_subgroups(G, k), (G.map.name, G.order, k)


def test_cayley_edges_list_each_undirected_edge_once():
    """Aut of torus 8x8 has only involutions as generators, so the search
    scans g |G| / 2 edges, each once, with the same spanning tree."""
    A = automorphism_group(build_torus_grid(8, 8))
    gens = A.generators
    assert all(p[p[0]] == 0 for p in gens)
    edges = symmetry._cayley_edges(A)
    assert len(edges) == len(gens) * A.order // 2 == 768
    undirected = {frozenset((x, p[x])) for x in A.images() for p in gens}
    assert {frozenset((x, y)) for x, _, y, _ in edges} == undirected
    assert [e for e in edges if e[3]] == [e for e in oracle_cayley_edges(A) if e[3]]
    assert symmetry._cayley_edges(A) is edges


def test_generators_walk_orders_only_when_involutions_do_not_generate(monkeypatch):
    """Aut of torus 8x8 is ranked without one order walk; an index-2 subgroup
    whose involutions do not generate it walks them and still follows the
    rule oracle."""
    calls = []
    real = symmetry._orders
    monkeypatch.setattr(symmetry, "_orders", lambda G: calls.append(G) or real(G))
    A = automorphism_group(build_torus_grid(8, 8))
    gens = A.generator_images()
    assert calls == []
    assert gens == oracle_generator_images(A)
    walked = 0
    for H in subgroups_up_to_index(A, 2)[1:]:
        calls.clear()
        gens = H.generator_images()
        if any(H._apply(g, g) != 0 for g in gens):
            walked += 1
            assert calls == [H]
        else:
            assert calls == []
        assert gens == oracle_generator_images(H)
    assert walked > 0


def test_stabilizers_match_element_filter_on_sweeps(maps):
    """The sweep's stabilizers, and its transitivity flags read off its
    covers, against the element filter and the flag-level checks."""
    checked = 0
    for name, m in maps.items():
        q = uniform_valence(m)
        if q is None or q % 2:
            continue
        A = automorphism_group(m)
        # every width on the suite maps; the 512-flag torus at j=1 only, for time
        widths = range(1, q // 2 + 1) if m.n_flags <= 288 else (1,)
        for j in widths:
            for r in enumerate_transitive_cornerations(m, j):
                assert r.aut.images() == oracle_stabilizer(A, r.corneration), name
                assert r.transitive == is_transitive_on_corners(r.aut, r.corneration), name
                assert r.symmetric == (r.transitive and len(oracle_orbits_on(r.aut, DART)) == 1)
                checked += 1
    assert checked > 100


def test_stabilizers_of_trivially_invariant_cornerations():
    """Small stabilizers with long orbits: every antiprism(4) corneration."""
    m = build_antiprism(4)
    A = automorphism_group(m)
    trivial = SymGroup(m, (tuple(m.flags()),))
    found = enumerate_invariant_cornerations(m, trivial, 1)
    assert len(found) == 256
    orders = set()
    for L in found:
        S = corneration_stabilizer(A, L)
        assert S.images() == oracle_stabilizer(A, L)
        orders.add(S.order)
    assert 1 in orders and len(orders) > 1


def pairs_in_number_order(m):
    first, rank, keys, _, table = cornerations._corner_numbering(m)
    expected = [None] * len(table)
    for v in cells(m, VERTEX):
        darts = sorted(_rotation_table(m)[v.id][1])
        for i, a in enumerate(darts):
            for b in darts[i + 1 :]:
                expected[first[a] + rank[b]] = (v.id, (a, b))
    assert keys == expected
    return [darts for _, darts in keys]


@pytest.mark.parametrize(
    "m",
    [build_theta(4), build_antiprism(3), relabel(build_antiprism(3), 5)],
    ids=["theta4", "antiprism3", "antiprism3~5"],
)
def test_stabilizers_of_every_mixed_corneration_match_the_element_filter(m):
    """Every corneration of the spot-check maps, under Aut and the trivial group."""
    pairs = pairs_in_number_order(m)
    if m.name.endswith("~5"):  # the pair numbers do not follow the flag labels
        assert pairs != sorted(pairs)
    A = automorphism_group(m)
    trivial = SymGroup(m, [tuple(m.flags())])
    assert trivial.generator_images() == () and len(trivial.generators) == 1
    found = _all_cornerations_mixed(m)
    assert len(found) in (9, 729)
    for L in found:
        assert corneration_stabilizer(A, L).images() == oracle_stabilizer(A, L)
        assert corneration_stabilizer(trivial, L).images() == oracle_stabilizer(trivial, L)


def test_stabilizers_move_corner_numbers_through_one_table_per_generator(monkeypatch):
    """Stabilizers and sweeps keep, on the map, one pair table per distinct
    generator image, each a permutation of the pair numbers, and no table
    of dart images; the map's corner numbering is built once."""
    built = []
    real_numbering = cornerations._number_corners
    monkeypatch.setattr(cornerations, "_number_corners", lambda m: built.append(m) or real_numbering(m))

    def tables_of(m, groups):
        tables = m._cache[("pair_action",)]
        assert ("dart_action",) not in m._cache
        assert sorted(tables) == sorted({g[0] for G in groups for g in G.generators})
        assert all(sorted(t) == list(range(len(t))) for t in tables.values())
        return tables

    m = build_antiprism(3)
    A = automorphism_group(m)
    found = _all_cornerations_mixed(m)
    assert len(found) == 729
    orders = {corneration_stabilizer(A, L).order for L in found}
    assert len(orders) > 1 and len(tables_of(m, [A])) == len(A.generators) > 1

    assert len(built) == 1


@pytest.mark.parametrize(
    "m",
    [build_theta(4), build_antiprism(3), relabel(build_antiprism(3), 5), build_antiprism(4)],
    ids=["theta4", "antiprism3", "antiprism3~5", "antiprism4"],
)
def test_invariant_cornerations_match_the_generator_filter(m):
    """Under every subgroup of index <= 4, at every width: the enumeration
    is, keys and order, the cornerations of that width whose sorted dart
    pairs every generator keeps in the set."""
    dart_of = m.cell_index(DART)
    found = _all_cornerations_mixed(m)
    pair_sets = [frozenset(c.darts for c in L.corners) for L in found]
    kept_by = {}  # generator image -> positions in found of the cornerations it keeps

    def kept(g):
        if g[0] not in kept_by:
            moved = {}
            for pairs in pair_sets:
                for a, b in pairs:
                    x, y = dart_of[g[a]], dart_of[g[b]]
                    moved[a, b] = (x, y) if x < y else (y, x)
            kept_by[g[0]] = {
                i for i, pairs in enumerate(pair_sets) if {moved[p] for p in pairs} == pairs
            }
        return kept_by[g[0]]

    q = uniform_valence(m)
    subgroups = subgroups_up_to_index(automorphism_group(m), 4)
    for H in subgroups:
        invariant = set.intersection(*map(kept, H.generators))
        for j in range(1, q // 2 + 1):
            expected = sorted(found[i].key() for i in invariant if found[i].width == j)
            got = [L.key() for L in enumerate_invariant_cornerations(m, H, j)]
            assert got == expected, (H.images(), j)
    assert len(subgroups) > 1 and len(found) in (9, 729, 6561)


def test_stabilizer_rejects_cornerations_of_other_maps():
    A = automorphism_group(build_torus_grid(4, 4))
    for other in (build_torus_grid(6, 6), build_torus_grid(2, 2), build_antiprism(8)):
        L = next(r.corneration for r in enumerate_transitive_cornerations(other, 1) if r.transitive)
        with pytest.raises(GroupNotSubgroup):
            corneration_stabilizer(A, L)
    for L in ("x", None):
        with pytest.raises(CornerationMismatch):
            corneration_stabilizer(A, L)


@pytest.mark.parametrize(
    "m", [build_theta(4), build_antiprism(3)], ids=["theta4", "antiprism3"]
)
def test_corner_orbits_match_breadth_first_oracle(m):
    """Every mixed-width corneration, under its stabilizer and under Aut."""
    A = automorphism_group(m)
    moved = 0
    for L in _all_cornerations_mixed(m):
        S = corneration_stabilizer(A, L)
        got = [[c.key() for c in orbit] for orbit in corner_orbits(S, L.corners)]
        assert got == oracle_corner_orbits(S, L.corners)
        # repeated corners in any order are one corner each
        repeated = list(L.corners) + L.sorted_corners()[::-1]
        assert [[c.key() for c in o] for o in corner_orbits(S, repeated)] == got
        expected = oracle_corner_orbits(A, L.corners)
        if expected is None:
            moved += 1
            with pytest.raises(GroupDoesNotPreserveCorneration):
                corner_orbits(A, L.corners)
        else:
            assert [[c.key() for c in o] for o in corner_orbits(A, L.corners)] == expected
    assert moved > 0


def oracle_transitive_masks(A, found):
    """The spot check's per-member loop: each corneration's own stabilizer,
    then transitivity on its corners."""
    return {
        L._mask
        for L in found
        if is_transitive_on_corners(corneration_stabilizer(A, L), L)
    }


@pytest.mark.parametrize(
    "m", [build_theta(4), build_antiprism(3)], ids=["theta4", "antiprism3"]
)
def test_orbit_walk_spot_check_matches_the_per_member_loop(m):
    """Walked once per Aut-orbit, as the spot check does, the orbits are those
    of the element scan and partition the cornerations; they give every
    member the order of its own stabilizer and the per-member transitive set."""
    A = automorphism_group(m)
    elements = group_elements(A)
    found = _all_cornerations_mixed(m)
    by_mask = {L._mask: L for L in found}
    order_of = {}
    transitive = set()
    walks = 0
    for L in found:
        if L._mask in order_of:
            continue
        orbit, S = cornerations._orbit_and_stabilizer(A, L)
        walks += 1
        assert orbit[0] == L._mask and order_of.keys().isdisjoint(orbit)
        images = {frozenset(corner_image_key(m, g, c) for c in L.corners) for g in elements}
        assert {frozenset(c.key() for c in by_mask[x].corners) for x in orbit} == images
        assert len(orbit) * S.order == A.order
        order_of.update(dict.fromkeys(orbit, S.order))
        if is_transitive_on_corners(S, L):
            transitive.update(orbit)
    assert order_of.keys() == by_mask.keys() and walks == {9: 4, 729: 38}[len(found)]
    for L in found:
        assert order_of[L._mask] == corneration_stabilizer(A, L).order
        assert order_of[L._mask] == len(oracle_stabilizer(A, L))
    assert transitive == oracle_transitive_masks(A, found)
    swept = {
        r.corneration._mask
        for j in range(1, uniform_valence(m) // 2 + 1)
        for r in enumerate_transitive_cornerations(m, j)
        if r.transitive
    }
    assert transitive == swept


def test_spot_check_walks_one_stabilizer_per_orbit(monkeypatch):
    """The spot check passes and computes a stabilizer once per Aut-orbit,
    not once per corneration (4 orbits on theta(4), 38 on antiprism(3))."""
    calls = []
    real = cornerations._orbit_and_stabilizer
    monkeypatch.setattr(
        cornerations, "_orbit_and_stabilizer", lambda A, L: calls.append(L) or real(A, L)
    )
    assert _mixed_cover_spotchecks(SuiteContext()) == []
    assert len(calls) == 4 + 38


# -- trust by provenance -----------------------------------------------------


@pytest.fixture
def check_calls(monkeypatch):
    calls = []
    real = symmetry._commutes_with_involutions

    def counting(m, elements):
        calls.append(m)
        return real(m, elements)

    monkeypatch.setattr(symmetry, "_commutes_with_involutions", counting)
    return calls


def test_user_groups_still_get_the_full_check(check_calls):
    m = build_torus_grid(4, 4)
    n = m.n_flags
    swap = list(range(n))
    swap[0], swap[1] = swap[1], swap[0]
    with pytest.raises(GroupNotSubgroup, match="commute"):
        SymGroup(m, (tuple(range(n)), tuple(swap)))
    assert len(check_calls) == 1
    # a user group is checked once, when built, and its subgroups never
    G = SymGroup(m, group_elements(automorphism_group(m)))
    assert len(check_calls) == 2
    for H in subgroups_up_to_index(G, 2):
        enumerate_invariant_cornerations(m, H, 1)
        assert H.is_map_symmetry_group() and H.generators
    assert G.is_map_symmetry_group()
    assert len(check_calls) == 2


def test_permutation_fixing_flag_zero_is_not_a_symmetry(check_calls):
    m = build_torus_grid(4, 4)
    n = m.n_flags
    swap = list(range(n))
    swap[1], swap[2] = swap[2], swap[1]
    # its images of flag 0 are closed, {0}, so only the commute check fails
    with pytest.raises(GroupNotSubgroup, match="commute"):
        SymGroup(m, (tuple(range(n)), tuple(swap)))
    assert len(check_calls) == 1


def test_user_group_retains_only_its_images():
    m = build_torus_grid(8, 8)
    copies = [list(p) for p in group_elements(automorphism_group(m))]
    tracemalloc.start()
    try:
        before = tracemalloc.get_traced_memory()[0]
        G = SymGroup(m, copies)
        retained = tracemalloc.get_traced_memory()[0] - before
    finally:
        tracemalloc.stop()
    assert G.order == 512
    assert retained < 64 * 2**10


def test_group_arithmetic_rejects_images_outside_the_group():
    m = build_torus_grid(4, 4)
    A = automorphism_group(m)
    H = next(H for H in subgroups_up_to_index(A, 2) if H.order < A.order)
    outside = next(f for f in A.images() if f not in H.images())
    for bad in (m.n_flags, -m.n_flags - 1, outside):
        with pytest.raises(GroupNotSubgroup):
            H.subgroup_from_images([0, bad])
    assert A.subgroup_from_images(H.images() + (0,)).images() == H.images()


def test_permutations_not_closed_are_rejected():
    """{identity, g} with g of order 4 spans four images, not two."""
    m = build_torus_grid(4, 4)
    A = automorphism_group(m)
    identity = tuple(range(m.n_flags))
    g = next(p for p in group_elements(A) if p[p[p[p[0]]]] == 0 and p[p[0]] != 0)
    with pytest.raises(GroupNotSubgroup, match="not closed"):
        SymGroup(m, (identity, g))
    powers = [identity]
    for _ in range(3):
        powers.append(tuple(g[x] for x in powers[-1]))
    C4 = SymGroup(m, powers)
    assert C4.order == 4 and C4.is_map_symmetry_group()
    assert C4.images() == tuple(sorted(p[0] for p in powers))


def test_sweep_trusts_subgroups_of_the_automorphism_group(check_calls):
    m = build_torus_grid(4, 4)
    records = enumerate_transitive_cornerations(m, 1)
    assert records
    assert check_calls == []
    A = automorphism_group(m)
    assert all(H.is_map_symmetry_group() for H in subgroups_up_to_index(A, 4))
    assert all(r.aut.is_map_symmetry_group() for r in records)
    assert check_calls == []


# -- the sweep on each subgroup's quotient ---------------------------------------


@pytest.fixture(scope="module")
def quotient_maps():
    """Four flag-transitive maps, one of them relabelled, and three antiprisms
    with four Aut-orbits of flags, so a node's orbit part is exercised."""
    t = build_torus_grid(4, 4)
    ms = {"torus4x4": t, "torus4x4~3": relabel(t, 3), "opp4x4": opposite(t)}
    ms.update((f"antiprism{n}", build_antiprism(n)) for n in (4, 5, 6))
    return ms


def quotient_groups(m):
    """The subgroups of index <= 4 of Aut, and of each index-2 subgroup of Aut
    with a generator that is no involution (so a voltage of the quotient need
    not be one), read off their coset tables; then the same groups built
    from their images alone, read off their flag orbits."""
    A = automorphism_group(m)
    searched = list(subgroups_up_to_index(A, 4))
    for G in subgroups_up_to_index(A, 2)[1:]:
        if any(symmetry._orders(G)[g] > 2 for g in G.generator_images()):
            searched += subgroups_up_to_index(G, 4)
    return searched + [A.subgroup_from_images(H.images()) for H in searched]


def test_quotient_maps_exercise_the_orbit_part(quotient_maps):
    for name, m in quotient_maps.items():
        orbits_of_aut = len(set(flag_orbit_index(automorphism_group(m))))
        assert orbits_of_aut == (4 if name.startswith("antiprism") else 1), name
    assert uniform_valence(quotient_maps["opp4x4"]) // 2 > 1


def test_invariant_cornerations_match_the_flag_level_oracle(quotient_maps):
    """Keys and order, under every subgroup of index <= 4, at every width."""
    for name, m in quotient_maps.items():
        for H in quotient_groups(m):
            for j in range(1, uniform_valence(m) // 2 + 1):
                got = [L.key() for L in enumerate_invariant_cornerations(m, H, j)]
                assert got == oracle_invariant_keys(m, H, j), (name, H.images(), j)


def test_quotient_classes_expand_to_the_orbits_on_flags(quotient_maps):
    """Nodes, r2-classes and corner classes of the quotient, expanded to ids,
    are the H-orbits of flags, darts and j-corners."""

    def as_ids(classes, node_of, id_of_flag):
        ids = {}
        for f, node in enumerate(node_of):
            ids.setdefault(node, set()).add(id_of_flag(f))
        return {frozenset().union(*(ids[n] for n in c)) for c in classes}

    for name, m in quotient_maps.items():
        q = uniform_valence(m)
        dart_of = m.cell_index(DART)
        for H in quotient_groups(m):
            node_of = symmetry._node_of_flag(H)
            nodes = [[n] for n in set(node_of)]
            orbit_of = oracle_flag_orbit_index(H)
            assert as_ids(nodes, node_of, int) == {
                frozenset(f for f in m.flags() if orbit_of[f] == o) for o in set(orbit_of)
            }, name
            for j in range(1, q // 2 + 1):

                def corner_of(f):
                    g = f
                    for _ in range(j):
                        g = m.r2[m.r1[g]]
                    return corner_from_darts(m, (dart_of[f], dart_of[g])).key()

                darts, corners = symmetry._orbit_classes(H, j, 2 * j == q)
                assert as_ids(darts, node_of, dart_of.__getitem__) == {
                    frozenset(o) for o in oracle_orbits_on(H, DART)
                }, (name, j)
                assert as_ids(corners, node_of, corner_of) == {
                    frozenset(c.key() for c in o) for o in corner_orbits(H, all_j_corners(m, j))
                }, (name, j)


KINDS = ("flags", VERTEX, EDGE, FACE, DART, WEDGE)


def test_orbit_questions_agree_on_both_quotient_sources(cube, tetrahedron):
    """Each subgroup of index <= 4 of Aut of the suite maps, opp(torus 6x6),
    the cube and the tetrahedron, as found by the search (its quotient read
    off its coset table) and as rebuilt from its images (its quotient read
    off its flag orbits), against the flag-level oracles; and the symmetry
    type graph and class of every width-1 record of the sweep under both."""
    ms = dict(SuiteContext().maps)
    ms.update(opp6x6=opposite(build_torus_grid(6, 6)), cube=cube, tetrahedron=tetrahedron)
    records = 0
    for name, m in ms.items():
        A = automorphism_group(m)
        for H in subgroups_up_to_index(A, 4):
            R = A.subgroup_from_images(H.images())
            assert "cosets" in H._cache and "cosets" not in R._cache
            want = oracle_flag_orbit_index(R)
            assert flag_orbit_index(H) == flag_orbit_index(R) == want, (name, H.images())
            for kind in KINDS:
                want = oracle_orbits_on(R, kind)
                assert orbits_on(H, kind) == orbits_on(R, kind) == want, (name, kind)
            want = oracle_is_half_reflexible(m, R)
            assert is_half_reflexible(m, H) == is_half_reflexible(m, R) == want, name
        if uniform_valence(m) % 2:
            continue
        for r in enumerate_transitive_cornerations(m, 1):
            L, H = r.corneration, r.aut
            R = A.subgroup_from_images(H.images())
            if not r.transitive:
                for G in (H, R):
                    with pytest.raises(NotTransitive):
                        classify(m, G, L)
                continue
            want = oracle_symmetry_type_graph(m, R, L)
            assert symmetry_type_graph(m, H, L) == symmetry_type_graph(m, R, L) == want, name
            assert classify(m, H, L) == classify(m, R, L), name
            records += 1
    assert records > 50


def test_sweep_work_does_not_grow_with_the_map(monkeypatch):
    """Group elements, pair tables and orbit computations inside the sweep
    are counted on two tori whose flags differ fourfold: the counts are
    equal, and no subgroup builds a pair table."""
    counts = Counter()

    def count(module, name):
        real = getattr(module, name)

        def counting(*args):
            counts[name] += 1
            return real(*args)

        monkeypatch.setattr(module, name, counting)

    count(symmetry, "_element")
    count(cornerations, "_pair_action")
    for module in (core, symmetry, cornerations):
        count(module, "orbits")
    seen = []
    for n in (8, 16):
        m = build_torus_grid(n, n)
        counts.clear()
        assert len(enumerate_transitive_cornerations(m, 1)) == 8
        seen.append(dict(counts))
        assert ("pair_action",) not in m._cache
    assert seen[0] == seen[1]
    assert seen[0]["_element"] > 0 and seen[0]["orbits"] > 0
    assert "_pair_action" not in seen[0]
