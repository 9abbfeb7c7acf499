import math
import os
import random
import subprocess
import sys

import pytest

import cornmaps.cornerations as corn
import cornmaps.splitgraph as sg
from cornmaps.builders import build_theta, build_torus_grid
from cornmaps.core import DART, EDGE, FlagMap, cells, uniform_valence
from cornmaps.errors import (
    CornerationMismatch,
    CornMapsError,
    DegenerateParameters,
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidCorner,
    InvalidSplitGraph,
    KIntersectsL,
    KNotInvariant,
    NotTransitive,
    UnknownCell,
    UnknownConstruction,
    WidthOutOfRange,
)
from cornmaps.fileio import write_map
from cornmaps.operators import opposite
from cornmaps.symmetry import SymGroup, automorphism_group
from cornmaps.verify import (
    FAILED,
    SKIPPED,
    SuiteContext,
    claim_census_example,
    claim_split_graphs,
    run_claim,
)
from conftest import group_elements, relabelled


def boundary_wedge_corners(L, interior):
    """The 1-corner of each interior or exterior boundary wedge of L's corners."""
    wedges = set()
    for c in L.corners:
        wedges.update(c.interior_boundary_wedges if interior else c.exterior_boundary_wedges)
    return [corn.corner_of_wedge(L.map, w) for w in sorted(wedges)]


# each construction's new-corner set K, built apart from the library's pass
_K_BUILDERS = {
    "A": lambda L: corn.j_complement(L).corners,
    "B": lambda L: corn.all_j_corners(L.map, 1),
    "Ci": lambda L: boundary_wedge_corners(L, interior=True),
    "Cx": lambda L: boundary_wedge_corners(L, interior=False),
}


def straight(m):
    A = automorphism_group(m)
    q = uniform_valence(m)
    (L,) = corn.enumerate_invariant_cornerations(m, A, q // 2)
    return L


def transitive_record(m, j, pick=0):
    records = [r for r in corn.enumerate_transitive_cornerations(m, j) if r.transitive]
    return records[pick]


def test_split_with_empty_k(torus44):
    L = straight(torus44)
    S = sg.split(L, [])
    assert S.n_vertices == len(L)
    # straight corners chain along lines: two old edges per corner
    assert S.regular_valence() == 2
    assert all(prov.old and not prov.new for prov in S.edges.values())


def test_split_rejects_overlap(torus44):
    L = straight(torus44)
    some = next(iter(L.corners))
    with pytest.raises(KIntersectsL):
        sg.split(L, [some])


def test_graph_b_straight_torus(torus44):
    L = straight(torus44)
    S = sg.graph_B(L)
    assert S.regular_valence() == 3  # q = 4 merges the two new neighbors
    lc, witness = sg.is_locally_connected(S)
    assert lc and witness is None
    assert S.is_connected()


def test_graph_b_straight_hexavalent(triangular_torus):
    L = straight(triangular_torus)
    S = sg.graph_B(L)
    assert S.regular_valence() == 4
    assert sg.is_locally_connected(S)[0]


def test_graph_b_straight_octavalent_parallel_deficit(opp44):
    L = straight(opp44)
    assert sg.old_degree_deficit(L) == 2  # all lines are parallel 2-circuits
    S = sg.graph_B(L)
    assert S.regular_valence() == 2
    assert sg.is_locally_connected(S)[0]
    assert not S.is_connected()  # no old edges bridge the vertices


def test_graph_a_on_wedge_corneration(torus44, opp44):
    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    S = sg.graph_A(L)
    assert S.regular_valence() == 3  # j = q/4
    assert sg.is_locally_connected(S)[0]  # gcd(4, 1) = 1
    Lo = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    So = sg.graph_A(Lo)
    assert So.regular_valence() == 4
    assert sg.is_locally_connected(So)[0]


def test_graph_a_needs_narrow_width(torus44):
    with pytest.raises(WidthOutOfRange):
        sg.graph_A(straight(torus44))


def test_odd_width_c_graphs(opp44):
    r = transitive_record(opp44, 3)
    L = r.corneration
    Ci = sg.graph_Ci(L)
    Cx = sg.graph_Cx(L)
    B = sg.graph_B(L)
    assert Ci.regular_valence() == 4
    assert Cx.regular_valence() == 3  # j = q/2 - 1 with 4 | q
    assert B.regular_valence() == 5
    assert sg.is_locally_connected(Ci)[0] == (math.gcd(8, 2) == 2)
    assert sg.is_locally_connected(Cx)[0] == (math.gcd(8, 4) == 2)
    assert sg.is_locally_connected(B)[0]


def test_even_width_c_graphs(opp44):
    r = transitive_record(opp44, 2)
    L = r.corneration
    assert sg.graph_Ci(L).regular_valence() == 3
    assert sg.graph_Cx(L).regular_valence() == 4
    assert sg.graph_B(L).regular_valence() == 4  # interior/exterior overlap
    assert sg.graph_A(L).regular_valence() == 3  # j = q/4


def test_new_edge_provenance_merging(opp44):
    r = transitive_record(opp44, 2)
    S = sg.graph_B(r.corneration)
    multi = [p for p in S.edges.values() if len(p.new) > 1]
    assert multi  # several wedges may induce the same corner pair


def test_vertex_transitive_witness(opp44):
    r = transitive_record(opp44, 3)
    L = r.corneration
    S = sg.graph_Cx(L)
    K = sg.new_corners(L, "Cx")
    assert sg.verify_vertex_transitive(S, r.aut, K)


def test_vertex_transitive_rejects_bad_k(opp44):
    r = transitive_record(opp44, 3)
    L = r.corneration
    S = sg.graph_Cx(L)
    lone = corn.all_j_corners(opp44, 1)[:1]
    with pytest.raises(KNotInvariant):
        sg.verify_vertex_transitive(S, r.aut, lone)


def cubic_constructions(m, L):
    return tuple(e.construction for e in sg.cubic_filter(m, L).entries if e.cubic)


def test_cubic_filter_examples(torus44, opp44):
    assert cubic_constructions(torus44, straight(torus44)) == ("B",)
    r2 = transitive_record(opp44, 2)
    cubics2 = cubic_constructions(opp44, r2.corneration)
    assert "Ci" in cubics2 and "A" in cubics2
    r3 = transitive_record(opp44, 3)
    assert cubic_constructions(opp44, r3.corneration) == ("Cx",)


def test_cubic_filter_matches(torus44, opp44):
    for m, j in ((torus44, 1), (torus44, 2), (opp44, 2), (opp44, 3)):
        for r in corn.enumerate_transitive_cornerations(m, j):
            if r.transitive:
                for e in sg.cubic_filter(m, r.corneration).entries:
                    assert e.measured_valence == e.predicted_valence


def test_graph6_roundtrip(torus44):
    import networkx as nx

    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    S = sg.graph_A(L)
    code = sg.to_graph6(S)
    g = nx.from_graph6_bytes(code.encode("ascii"))
    assert g.number_of_nodes() == S.n_vertices
    assert g.number_of_edges() == S.n_edges
    assert sg.to_graph6(S) == code  # deterministic
    sparse = sg.to_sparse6(S)
    g2 = nx.from_sparse6_bytes(sparse.encode("ascii"))
    assert g2.number_of_edges() == S.n_edges


def test_encoders_match_networkx_on_random_graphs():
    """Byte for byte against networkx, sparse6 padding at n = 2^k included."""
    import networkx as nx

    rng = random.Random(6)
    sizes = [1, 2, 4, 8, 16, 32, 64, 3, 62, 63, 64, 65, 100] + [
        rng.randint(1, 80) for _ in range(180)
    ]
    graphs = []
    for n in sizes:
        p = rng.random() ** 2
        graphs.append((n, [(a, b) for b in range(n) for a in range(b) if rng.random() < p]))
    # short paths at n = 2^k end below vertex n - 1 with k or more bits
    # left to pad, where sparse6 pads with a 0 before the 1s
    graphs += [(n, [(i, i + 1) for i in range(m)]) for n in (4, 8, 16) for m in (1, 2, 3)]
    for n, pairs in graphs:
        S = sg.SplitGraph(
            map=None,
            base=None,
            vertices=tuple(range(n)),
            edges=dict.fromkeys(frozenset(e) for e in pairs),
        )
        g = nx.Graph()
        g.add_nodes_from(range(n))
        g.add_edges_from(pairs)
        assert sg.to_graph6(S) == nx.to_graph6_bytes(g, header=False).decode().strip()
        assert sg.to_sparse6(S) == nx.to_sparse6_bytes(g, header=False).decode().strip()


def test_size_field_matches_networkx():
    from networkx.readwrite.graph6 import n_to_data

    for n in (0, 62, 63, 258047, 258048, 2**36 - 1):
        assert sg._size_field(n) == "".join(chr(63 + d) for d in n_to_data(n))


def test_encoding_imports_no_networkx(tmp_path):
    code = (
        "import sys\n"
        "import cornmaps as c\n"
        "L = c.symmetric_cornerations_from_coloring(c.build_torus_grid(4, 4), 1)[0]\n"
        "S = c.graph_A(L)\n"
        "assert c.to_graph6(S) and c.to_sparse6(S)\n"
        "print(sorted(k for k in sys.modules if k.split('.')[0] == 'networkx'))\n"
    )
    src = os.path.dirname(os.path.dirname(sg.__file__))
    path = os.pathsep.join([src, os.environ.get("PYTHONPATH", "")])
    env = dict(os.environ, PYTHONPATH=path)
    out = subprocess.run(
        [sys.executable, "-c", code],
        env=env,
        cwd=tmp_path,
        capture_output=True,
        text=True,
        check=True,
        timeout=120,
    )
    assert out.stdout.strip() == "[]"


def test_unknown_construction_raises_library_error(torus44):
    L = straight(torus44)
    with pytest.raises(UnknownConstruction):
        sg.build_construction(L, "Z")
    assert issubclass(UnknownConstruction, ValueError)


def raise_runtime_error(*args):
    raise RuntimeError("a library bug")


def test_census_claim_lets_a_library_bug_through(tmp_path, monkeypatch):
    """Only an undefined construction is skipped, not any error."""
    path = tmp_path / "theta12.map"
    path.write_text(write_map(build_theta(12)))
    ctx = SuiteContext(census_map_path=str(path))
    monkeypatch.setattr(sg, "build_construction", raise_runtime_error)
    with pytest.raises(RuntimeError, match="a library bug"):
        claim_census_example(ctx)


def test_census_claim_fails_on_a_map_that_is_not_the_census_map(tmp_path):
    """theta(12) has valence 12 and a suitable width-3 corneration, but not
    the 27 vertices and 162 edges of the {3,12} census map."""
    path = tmp_path / "theta12.map"
    path.write_text(write_map(build_theta(12)))
    result = run_claim("census-local-connectivity", SuiteContext(census_map_path=str(path)))
    assert result.status == FAILED
    assert result.note == "V=2, E=12"
    assert run_claim("census-local-connectivity", SuiteContext()).status == SKIPPED


def test_split_graph_claim_lets_a_library_bug_through(monkeypatch):
    """Only a failed transitivity witness is reported, not any error."""
    ctx = SuiteContext()
    ctx._maps = {"torus4x4": build_torus_grid(4, 4)}
    monkeypatch.setattr(sg, "verify_vertex_transitive", raise_runtime_error)
    with pytest.raises(RuntimeError, match="a library bug"):
        claim_split_graphs(ctx)


def test_theta4_straight_degenerate_b(theta4):
    L = straight(theta4)
    assert sg.old_degree_deficit(L) == 2
    S = sg.graph_B(L)
    assert S.regular_valence() == 1
    predicted = sg.predicted_valences(4, 2, deficit=2)["B"]
    assert predicted == 1


# -- the dart-table split graphs against the key-based oracles ---------------


def split_oracle(L, K):
    """Split graph built from corner keys, one corner lookup per dart."""
    m = L.map
    K = list(K)
    l_keys = {c.key() for c in L.corners}
    for k in K:
        if k.key() in l_keys:
            raise KIntersectsL(f"{k} belongs to the corneration")
    edge_of = m.cell_index(EDGE)
    edges = {}

    def other_edge(c, e):
        e1, e2 = (edge_of[d] for d in c.darts)
        return e2 if e1 == e else e1

    def add(a, b, kind, token):
        pair = frozenset((a.key(), b.key()))
        old, new = edges.get(pair, ((), ()))
        if kind == sg.OLD:
            old = old + (token,)
        else:
            new = new + (token,)
        edges[pair] = (old, new)

    dart_of = m.cell_index(DART)
    for ecell in cells(m, EDGE):
        e = ecell.id
        c1 = L.corner_of_dart(dart_of[e])
        c2 = L.corner_of_dart(dart_of[m.r0[e]])
        if c1.key() == c2.key():
            raise InternalInvariantError("one corner covered both darts of an edge")
        if other_edge(c1, e) != other_edge(c2, e):
            add(c1, c2, sg.OLD, e)
    for k in K:
        d1, d2 = k.darts
        c1 = L.corner_of_dart(d1)
        c2 = L.corner_of_dart(d2)
        if c1.key() == c2.key():
            raise InternalInvariantError("a corner outside L covered by a single L-corner")
        add(c1, c2, sg.NEW, k.key())
    packed = {pair: sg.EdgeProvenance(old, new) for pair, (old, new) in edges.items()}
    return sg.SplitGraph(m, L, tuple(sorted(l_keys)), packed)


def dart_actions(G):
    """Per generator of ``G``, the dart of each flag's image."""
    dart_of = G.map.cell_index(DART)
    return [tuple(dart_of[x] for x in g) for g in G.generators]


def move_pair(action, darts):
    """The sorted dart pair of a corner's image under one generator."""
    a, b = action[darts[0]], action[darts[1]]
    return (a, b) if a < b else (b, a)


def vertex_transitive_oracle(S, G, K):
    """The witness with a key dict and frozensets per generator, moving
    sorted dart pairs by the generators' own flag images."""
    L = S.base
    key_of = {c.darts: c.key() for c in L.corners}
    actions = dart_actions(G)
    if any(move_pair(action, p) not in key_of for action in actions for p in key_of):
        raise GroupDoesNotPreserveCorneration("the group moves the corneration")
    if len(orbit_under(actions, min(key_of), move_pair)) != len(key_of):
        raise NotTransitive("the group is not transitive on the corneration")
    K = list(K)
    k_pairs = {c.darts for c in K}
    for action in actions:
        for c in K:
            if move_pair(action, c.darts) not in k_pairs:
                raise KNotInvariant("the new-corner set is not group-invariant")
        image = {c.key(): key_of[move_pair(action, c.darts)] for c in L.corners}
        for pair in S.edges:
            a, b = tuple(pair)
            if frozenset((image[a], image[b])) not in S.edges:
                return False
    return True


def witness_outcome(check, S, G, K):
    try:
        return check(S, G, K)
    except (NotTransitive, KNotInvariant, GroupDoesNotPreserveCorneration) as exc:
        return type(exc)


@pytest.fixture(scope="module")
def transitive_cases():
    """(label, record, q, j) for every transitive record of the suite
    sweeps and of the j = 1..3 sweeps of opposite(torus 6x6)."""
    out = []
    for (name, j), records in SuiteContext().sweep_all().items():
        out += [(f"{name} j={j}", r, j) for r in records if r.transitive]
    o66 = opposite(build_torus_grid(6, 6))
    for j in (1, 2, 3):
        records = corn.enumerate_transitive_cornerations(o66, j)
        out += [(f"opp6x6 j={j}", r, j) for r in records if r.transitive]
    return [(label, r, uniform_valence(r.corneration.map), j) for label, r, j in out]


def test_split_matches_the_key_oracle(transitive_cases):
    """Every construction defined at the width: the same vertices, edges in
    the same order with the same provenance, pairs iterating alike, and the
    same transitivity witness."""
    built = 0
    for label, r, q, j in transitive_cases:
        L = r.corneration
        for kind in sg.predicted_valences(q, j):
            K = list(_K_BUILDERS[kind](L))
            S = sg.build_construction(L, kind)
            O = split_oracle(L, K)
            assert S.vertices == O.vertices, (label, kind)
            assert list(S.edges.items()) == list(O.edges.items()), (label, kind)
            assert [tuple(p) for p in S.edges] == [tuple(p) for p in O.edges], (label, kind)
            assert witness_outcome(sg.verify_vertex_transitive, S, r.aut, K) == (
                witness_outcome(vertex_transitive_oracle, O, r.aut, K)
            ), (label, kind)
            built += 1
    assert built > 100


def neighbours(S):
    """Each vertex's set of neighbours, in vertex order."""
    adj = {v: set() for v in S.vertices}
    for pair in S.edges:
        a, b = tuple(pair)
        adj[a].add(b)
        adj[b].add(a)
    return adj


def test_new_corners_are_the_k_of_each_construction(transitive_cases):
    """The witness's K is the oracle's K, in the same order."""
    for label, r, q, j in transitive_cases:
        for kind in sg.predicted_valences(q, j):
            K = sg.new_corners(r.corneration, kind)
            assert K == list(_K_BUILDERS[kind](r.corneration)), (label, kind)


def test_degrees_count_the_edge_pairs(transitive_cases):
    """Degrees come in vertex order and equal the sizes of the neighbour sets
    of the key oracle."""
    graphs = []
    for _, r, q, j in transitive_cases[::4]:
        L = r.corneration
        graphs += [(sg.build_construction(L, kind), split_oracle(L, _K_BUILDERS[kind](L)))
                   for kind in sg.predicted_valences(q, j)]
    assert len(graphs) > 20
    for S, O in graphs:
        degs = {v: len(nbrs) for v, nbrs in neighbours(O).items()}
        vals = set(degs.values())
        assert list(S.degrees().items()) == list(degs.items())
        assert S.regular_valence() == (min(vals) if len(vals) == 1 else None)


def orbit_under(actions, start, move):
    orbit = {start}
    queue = [start]
    for x in queue:
        for action in actions:
            y = move(action, x)
            if y not in orbit:
                orbit.add(y)
                queue.append(y)
    return orbit


def test_vertex_transitive_reads_every_generator(transitive_cases):
    """Drop from S (or K) one orbit of the group left without generator i:
    only generator i can see the break, and the witness must agree with
    the oracle for each i."""
    seen_by = {}  # (record label, generator count) -> generators seeing a break
    for label, r, q, j in transitive_cases:
        if not label.startswith("opp6x6"):
            continue
        L = r.corneration
        actions = dart_actions(r.aut)
        key_of = {c.darts: c.key() for c in L.corners}

        def move_edge(action, pair):
            a, b = tuple(pair)
            return frozenset((key_of[move_pair(action, a[1])], key_of[move_pair(action, b[1])]))

        for kind in sg.predicted_valences(q, j):
            K = list(_K_BUILDERS[kind](L))
            S = sg.build_construction(L, kind)
            for i in range(len(actions)):
                rest = actions[:i] + actions[i + 1 :]
                edge = next(iter(S.edges))
                gone = orbit_under(rest, edge, move_edge)
                edges = {p: prov for p, prov in S.edges.items() if p not in gone}
                cut = sg.SplitGraph(S.map, L, S.vertices, edges)
                gone_k = orbit_under(rest, K[0].darts, move_pair)
                fewer = [c for c in K if c.darts not in gone_k]
                for S2, K2 in ((cut, K), (S, fewer)):
                    got = witness_outcome(sg.verify_vertex_transitive, S2, r.aut, K2)
                    assert got == witness_outcome(vertex_transitive_oracle, S2, r.aut, K2)
                    if got is not True:
                        seen_by.setdefault((label, id(r), len(actions)), set()).add(i)
    # not vacuous: almost every generator is the only one to see a break
    assert len(seen_by) == 32
    assert all(len(seen) >= n - 1 for (_, _, n), seen in seen_by.items())


def test_split_rejects_corners_of_another_map(torus44):
    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    assert corn.is_transitive_on_corners(
        corn.corneration_stabilizer(automorphism_group(torus44), L), L
    )
    foreign = corn.all_j_corners(build_torus_grid(6, 6), 1)[-5:]
    with pytest.raises((UnknownCell, InvalidCorner)):
        sg.split(L, foreign)
    # darts of torus 4x4, but at two vertices there
    (spread,) = [c for c in corn.all_j_corners(opposite(torus44), 2) if c.darts == (0, 40)]
    with pytest.raises(InvalidCorner):
        sg.split(L, [spread])
    # a corner of torus 4x4 claimed at another vertex
    outside = corn.j_complement(L).sorted_corners()[0]
    moved = corn.Corner(outside.vertex + 8, outside.darts, outside.width, outside.straight,
                        outside.interior_wedges, outside.boundary_wedges)
    with pytest.raises(InvalidCorner):
        sg.split(L, [moved])
    assert sg.split(L, [outside]).n_edges >= 1


def test_a_corner_set_that_misses_darts_is_no_corneration_to_split(torus44):
    """Such a set is refused when built, so neither ``split`` nor a
    construction ever reads an uncovered dart."""
    L = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    a, b = L.sorted_corners()[-1].darts
    with pytest.raises(CornerationMismatch, match=f"uncovered dart at dart ({a}|{b})$"):
        corn.Corneration(torus44, L.sorted_corners()[:-1])


def test_cubic_filter_rejects_a_corneration_of_another_map(torus44):
    L = straight(torus44)
    with pytest.raises(CornerationMismatch):
        sg.cubic_filter(build_torus_grid(6, 6), L)
    assert cubic_constructions(torus44, L) == ("B",)


# -- arguments of the wrong kind -----------------------------------------------


def wedge_case(m):
    """A split graph of torus 4x4 and a group transitive on its vertices."""
    L = corn.symmetric_cornerations_from_coloring(m, 1)[0]
    return L, sg.graph_A(L), corn.corneration_stabilizer(automorphism_group(m), L)


WRONG_ARGUMENT_CALLS = {
    "to_graph6": (InvalidSplitGraph, lambda L, S, G: sg.to_graph6(None)),
    "to_sparse6": (InvalidSplitGraph, lambda L, S, G: sg.to_sparse6("x")),
    "is_locally_connected": (InvalidSplitGraph, lambda L, S, G: sg.is_locally_connected(None)),
    "verify_vertex_transitive graph": (
        InvalidSplitGraph,
        lambda L, S, G: sg.verify_vertex_transitive(None, G, []),
    ),
    "old_degree_deficit": (CornerationMismatch, lambda L, S, G: sg.old_degree_deficit(None)),
    "split": (InvalidCorner, lambda L, S, G: sg.split(L, None)),
    "verify_vertex_transitive K": (
        InvalidCorner,
        lambda L, S, G: sg.verify_vertex_transitive(S, G, None),
    ),
    "build_construction": (UnknownConstruction, lambda L, S, G: sg.build_construction(L, ["A"])),
    "predicted_valences": (DegenerateParameters, lambda L, S, G: sg.predicted_valences("x", 1)),
    "predicted_valences deficit": (
        DegenerateParameters,
        lambda L, S, G: sg.predicted_valences(4, 1, "x"),
    ),
    "SplitGraph end": (
        InvalidSplitGraph,
        lambda L, S, G: sg.SplitGraph(None, None, (0, 1), {frozenset((0, 2)): None}),
    ),
    "SplitGraph edges": (InvalidSplitGraph, lambda L, S, G: sg.SplitGraph(None, None, (0, 1), 5)),
    "predicted_local_connectivity": (
        DegenerateParameters,
        lambda L, S, G: sg.predicted_local_connectivity(8, "x"),
    ),
}


@pytest.mark.parametrize("name", WRONG_ARGUMENT_CALLS)
def test_wrong_arguments_raise_library_errors(torus44, name):
    """A non-graph, a graph whose edges join no two of its vertices, a
    non-iterable K, an unhashable kind and a non-int valence, width or
    deficit each raise their own CornMapsError."""
    error, call = WRONG_ARGUMENT_CALLS[name]
    assert issubclass(error, CornMapsError)
    L, S, G = wedge_case(torus44)
    assert sg.verify_vertex_transitive(S, G, sg.new_corners(L, "A"))  # the arguments work
    with pytest.raises(error):
        call(L, S, G)


# -- the pass: deficits, degrees and what it leaves unbuilt ---------------------


def deficit_oracle(L):
    """The parallel-edge deficit of the least-key corner, read through the
    corner of each dart."""
    m = L.map
    edge_of = m.cell_index(EDGE)
    dart_of = m.cell_index(DART)
    c = min(L.corners, key=corn.Corner.key)
    deficit = 0
    for d in c.darts:
        partner = L.corner_of_dart(dart_of[m.r0[d]])
        if {edge_of[x] for x in partner.darts} == {edge_of[x] for x in c.darts}:
            deficit += 1
    return deficit


def test_deficit_matches_the_corner_of_dart_definition(transitive_cases):
    """On the suite and opp(torus 6x6) records, and on records of relabelled
    maps, whose least-key corner need not hold the first dart of its edges."""
    cases = [(label, r.corneration) for label, r, _, _ in transitive_cases]
    for m in (relabelled(opposite(build_torus_grid(4, 4)), 7), relabelled(build_theta(4), 3)):
        records = corn.enumerate_transitive_cornerations(m, 2)
        cases += [(m.name, r.corneration) for r in records]
    seen = set()
    for label, L in cases:
        expected = deficit_oracle(L)
        assert sg.old_degree_deficit(L) == expected, label
        seen.add(expected)
    assert {0, 2} <= seen  # parallel-edge deficits occur


def test_cubic_filter_measures_the_valences_of_the_graphs(transitive_cases):
    checked = 0
    for label, r, q, j in transitive_cases:
        L = r.corneration
        report = sg.cubic_filter(L.map, L)
        assert [e.construction for e in report.entries] == list(sg.predicted_valences(q, j))
        for entry in report.entries:
            S = sg.build_construction(L, entry.construction)
            assert entry.measured_valence == S.regular_valence(), (label, entry)
            checked += 1
    assert checked > 100


def counting(calls, name, function):
    def counted(*args, **kwargs):
        calls[name] = calls.get(name, 0) + 1
        return function(*args, **kwargs)

    return counted


def test_constructions_build_no_graph_or_corner_they_do_not_return(monkeypatch):
    """cubic_filter, graph_B, graph_Ci and graph_Cx build no corner of K,
    look none up in the corner table and pack no edge; reading ``edges``
    packs one provenance per edge, once."""
    m = opposite(build_torus_grid(6, 6))
    records = [r for r in corn.enumerate_transitive_cornerations(m, 2) if r.transitive]
    assert records
    calls = {}
    watched = {
        sg: ("EdgeProvenance", "_corner_numbers"),
        sg.SplitGraph: ("_of_pass",),
        corn: ("_corner_numbers", "corner_of_wedge"),
    }
    for owner, names in watched.items():
        for name in names:
            key = f"{owner.__name__}.{name}"
            monkeypatch.setattr(owner, name, counting(calls, key, getattr(owner, name)))
    for r in records:
        sg.cubic_filter(m, r.corneration)
    assert set(calls) == {"SplitGraph._of_pass"}
    calls.clear()
    graphs = [build(r.corneration) for r in records for build in (sg.graph_B, sg.graph_Ci, sg.graph_Cx)]
    assert all(S.n_edges for S in graphs)
    assert calls == {"SplitGraph._of_pass": len(graphs)}
    for S in graphs:
        calls.pop("cornmaps.splitgraph.EdgeProvenance", None)
        assert len(S.edges) == S.n_edges
        assert S.edges is S.edges
        assert calls["cornmaps.splitgraph.EdgeProvenance"] == S.n_edges
    # the counters see the lookup of a corner set handed in
    L = records[0].corneration
    sg.split(L, sg.new_corners(L, "Ci"))
    assert calls["cornmaps.splitgraph._corner_numbers"] == 1


# -- the one-entry caches of a corneration's split-graph state ---------------
#
# The map keeps the state of the last corneration analysed (its old edges and
# the K of each construction), and a group the corner permutations of the last
# corneration it was checked on.  Two cornerations with one stabilizer, taken
# in the order L1, L2, L1, evict and refill both.

CACHE_CASES = [(name, j) for name in ("opp44", "opp66") for j in (1, 2, 3)] + [("torus66", 1)]


@pytest.fixture(scope="module")
def cache_maps():
    torus44, torus66 = build_torus_grid(4, 4), build_torus_grid(6, 6)
    return {"opp44": opposite(torus44), "opp66": opposite(torus66), "torus66": torus66}


def transitive_records(m, j):
    return [r for r in corn.enumerate_transitive_cornerations(m, j) if r.transitive]


def cold_copy(L, G):
    """``L`` and ``G`` on a copy of their map that shares no memo with it."""
    m = L.map
    cold = FlagMap(m.n_flags, m.r0, m.r1, m.r2, name=m.name)
    corners = [corn.corner_from_darts(cold, c.darts) for c in L.corners]
    return corn.Corneration(cold, corners), SymGroup(cold, group_elements(G))


def split_analysis(L, G):
    """Everything the split-graph layer says about ``L`` and ``G``."""
    q = uniform_valence(L.map)
    graphs = []
    for kind in sg.predicted_valences(q, L.width):
        S = sg.build_construction(L, kind)
        K = sg.new_corners(L, kind)
        witness = witness_outcome(sg.verify_vertex_transitive, S, G, K)
        graphs.append((kind, S.vertices, S._pairs, list(S.edges.items()), [c.key() for c in K], witness))
    report = sg.cubic_filter(L.map, L)
    return report, sg.old_degree_deficit(L), graphs, corn.is_transitive_on_corners(G, L)


@pytest.mark.parametrize("name, j", CACHE_CASES)
def test_cached_split_analysis_matches_a_cold_map(cache_maps, name, j):
    records = transitive_records(cache_maps[name], j)
    first, last = records[0], records[-1]
    assert first.aut is last.aut and first.corneration != last.corneration
    seen = []
    for r in (first, last, first):
        L, G = r.corneration, r.aut
        seen.append(split_analysis(L, G))
        assert seen[-1] == split_analysis(*cold_copy(L, G)), (name, j)
    assert seen[0] == seen[2] != seen[1]


def test_errors_still_raise_after_a_cached_success(cache_maps, torus44):
    m = cache_maps["opp66"]
    records = transitive_records(m, 2)
    r = records[0]
    L, G = r.corneration, r.aut
    S = sg.build_construction(L, "Ci")
    K = sg.new_corners(L, "Ci")
    assert sg.verify_vertex_transitive(S, G, K) and sg.cubic_filter(m, L).entries
    with pytest.raises(KIntersectsL):
        sg.split(L, K + [L.sorted_corners()[0]])
    trivial = SymGroup(m, [tuple(m.flags())])
    with pytest.raises(NotTransitive):
        sg.verify_vertex_transitive(S, trivial, K)
    with pytest.raises(KNotInvariant):
        sg.verify_vertex_transitive(S, G, K[1:])
    with pytest.raises(GroupDoesNotPreserveCorneration):  # another record's stabilizer
        sg.verify_vertex_transitive(S, records[1].aut, K)
    with pytest.raises(CornerationMismatch):
        sg.cubic_filter(torus44, L)
    # the state kept for L is still good
    assert sg.build_construction(L, "Ci")._pairs == S._pairs
    assert sg.verify_vertex_transitive(S, G, K)


def test_analysis_runs_the_edge_loop_and_the_permutations_once_per_corneration(monkeypatch):
    """The 32 transitive records of opposite(torus 6x6) at j = 1..3 give 104
    graphs; each record's old edges and corner permutations are found once,
    and each graph takes one pass, shared by ``cubic_filter`` and its construction."""
    m = opposite(build_torus_grid(6, 6))
    records = [r for j in (1, 2, 3) for r in transitive_records(m, j)]
    calls = {}
    monkeypatch.setattr(sg, "_old_edges", counting(calls, "edges", sg._old_edges))
    monkeypatch.setattr(corn, "_corner_perms", counting(calls, "perms", corn._corner_perms))
    monkeypatch.setattr(sg, "_pass", counting(calls, "pass", sg._pass))
    graphs = 0
    for r in records:
        L = r.corneration
        report = sg.cubic_filter(m, L)
        for entry in report.entries:
            S = sg.build_construction(L, entry.construction)
            assert sg.verify_vertex_transitive(S, r.aut, sg.new_corners(L, entry.construction))
            graphs += 1
    assert (len(records), graphs) == (32, 104)
    assert calls == {"edges": 32, "perms": 32, "pass": 104}


def test_reading_other_corners_keeps_the_state_of_a_corneration(monkeypatch):
    """The corners read last are kept apart from the split-graph state, so
    reading the complement's corners, as a witness for construction A does,
    leaves L's old edges in place."""
    m = opposite(build_torus_grid(6, 6))
    L, other = (r.corneration for r in transitive_records(m, 2)[:2])
    calls = {}
    monkeypatch.setattr(sg, "_old_edges", counting(calls, "edges", sg._old_edges))
    S = sg.build_construction(L, "Ci")
    assert corn.j_complement(L).corners and other.corners and L.corners
    assert sg.build_construction(L, "Ci") is S and sg.build_construction(L, "Cx")
    assert calls == {"edges": 1}


def test_repeated_constructions_on_one_corneration_return_the_same_graph():
    m = opposite(build_torus_grid(6, 6))
    L1, L2 = (r.corneration for r in transitive_records(m, 2)[:2])
    S = sg.graph_Ci(L1)
    assert sg.graph_Ci(L1) is S is sg.build_construction(L1, "Ci")
    assert sg.graph_Ci(L2) is not S  # the next corneration replaces the state
    again = sg.graph_Ci(L1)
    assert again is not S and again._pairs == S._pairs
