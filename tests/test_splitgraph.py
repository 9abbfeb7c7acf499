import math
import os
import random
import subprocess
import sys

import pytest

import cornmaps.cornerations as corn
import cornmaps.splitgraph as sg
from cornmaps.builders import build_theta, build_torus_grid
from cornmaps.core import uniform_valence
from cornmaps.errors import (
    KIntersectsL,
    KNotInvariant,
    UnknownConstruction,
    WidthOutOfRange,
)
from cornmaps.fileio import write_map
from cornmaps.symmetry import automorphism_group
from cornmaps.verify import SuiteContext, claim_census_example, claim_split_graphs


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
    K = sg._boundary_wedge_corners(L, interior=False)
    assert sg.verify_vertex_transitive(S, r.aut, K)


def test_vertex_transitive_rejects_bad_k(opp44):
    r = transitive_record(opp44, 3)
    L = r.corneration
    S = sg.graph_Cx(L)
    lone = sg.all_j_corners(opp44, 1)[:1]
    with pytest.raises(KNotInvariant):
        sg.verify_vertex_transitive(S, r.aut, lone)


def test_cubic_filter_examples(torus44, opp44):
    assert sg.cubic_filter(torus44, straight(torus44)).cubic_constructions() == ("B",)
    r2 = transitive_record(opp44, 2)
    cubics2 = sg.cubic_filter(opp44, r2.corneration).cubic_constructions()
    assert "Ci" in cubics2 and "A" in cubics2
    r3 = transitive_record(opp44, 3)
    assert sg.cubic_filter(opp44, r3.corneration).cubic_constructions() == ("Cx",)


def test_cubic_filter_matches(torus44, opp44):
    for m, j in ((torus44, 1), (torus44, 2), (opp44, 2), (opp44, 3)):
        for r in corn.enumerate_transitive_cornerations(m, j):
            if r.transitive:
                assert sg.cubic_filter(m, r.corneration).all_match()


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
