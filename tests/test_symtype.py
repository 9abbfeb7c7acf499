import collections
import itertools
import random

import pytest

import cornmaps.cornerations as corn
import cornmaps.symtype as st
from cornmaps.builders import (
    build_antiprism_corneration,
    build_torus_grid,
    build_torus_grid_corneration,
)
from cornmaps.core import VERTEX, cells
from cornmaps.errors import (
    CornMapsError,
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidDiagram,
    NotTransitive,
    NotWedgeCorneration,
)
from cornmaps.operators import opposite, petrie
from cornmaps.symmetry import (
    SymGroup,
    automorphism_group,
    local_action_group,
    orbits_on,
    subgroups_up_to_index,
)
from cornmaps.verify import SuiteContext


def green_setup(opp44):
    L = corn.symmetric_cornerations_from_coloring(opp44, 1)[0]
    A = automorphism_group(opp44)
    G = corn.corneration_stabilizer(A, L)
    return L, A, G


def test_canonical_diagrams_pass_constraints():
    for letter, d in st.CANONICAL_DIAGRAMS.items():
        ok, why = st.satisfies_diagram_constraints(d)
        assert ok, f"{letter}: {why}"


@pytest.mark.parametrize(
    "shapes, sigma, message",
    [
        (("B", "X"), ((1, 0), (0, 1), (0, 1)), "node shapes"),
        (("B", "O"), ((1, 0), (0, 1)), "colors 0, 1, 2"),
        (("B", "O"), ((1, 0), (0, 1), (0, 2)), "node count"),
        (("B", "O", "O"), ((1, 2, 0), (0, 1, 2), (0, 1, 2)), "involution"),
        (None, ((0,), (0,), (0,)), "sequences"),
        (("B",), None, "sequences"),
        (("B",), ((0,), ("a",), (0,)), "node count"),
        (("B",), ((0,), (0.0,), (0,)), "node count"),
    ],
    ids=["shape", "colors", "node-count", "not-involution", "no-shapes", "no-sigma", "str-node",
         "float-node"],
)
def test_malformed_diagram_raises_invalid_diagram(shapes, sigma, message):
    with pytest.raises(InvalidDiagram) as info:
        st.Diagram(shapes, sigma)
    assert isinstance(info.value, CornMapsError)
    assert isinstance(info.value, ValueError)
    assert message in str(info.value)


BAD_COLOR_CALLS = {
    "semiedges 3": lambda d: d.semiedges(3),
    "semiedges -1": lambda d: d.semiedges(-1),  # indexing alone reads color 2
    "semiedges True": lambda d: d.semiedges(True),
    "links None": lambda d: d.links(None),
    "links str": lambda d: d.links("0"),
    "components 3": lambda d: d.components((0, 3)),
    "components float": lambda d: d.components((1.0,)),
    "components str": lambda d: d.components("01"),
}


@pytest.mark.parametrize("name", BAD_COLOR_CALLS)
def test_a_color_outside_0_1_2_raises_invalid_diagram(name):
    with pytest.raises(InvalidDiagram, match="edge colors are 0, 1 and 2"):
        BAD_COLOR_CALLS[name](st.CANONICAL_DIAGRAMS["a"])


def test_diagram_arguments_must_be_diagrams():
    d = st.CANONICAL_DIAGRAMS["a"]
    for call in (
        lambda: st.diagram_isomorphic(None, d),
        lambda: st.diagram_isomorphic(d, "x"),
        lambda: st.satisfies_diagram_constraints(None),
    ):
        with pytest.raises(InvalidDiagram, match="not a diagram"):
            call()


def test_three_node_diagram_fails_rule_one():
    d = st.Diagram(("B", "O", "O"), ((0, 2, 1), (0, 1, 2), (1, 0, 2)))
    ok, why = st.satisfies_diagram_constraints(d)
    assert not ok and "rule 1" in why


def test_two_semiedge_fails_rule_two():
    d = st.Diagram(("B", "O"), ((1, 0), (0, 1), (0, 1)))
    ok, why = st.satisfies_diagram_constraints(d)
    assert not ok and "rule 2" in why


def test_shape_mixing_one_edge_fails_rule_three():
    d = st.Diagram(("B", "O"), ((1, 0), (1, 0), (1, 0)))
    ok, why = st.satisfies_diagram_constraints(d)
    assert not ok and "rule 3" in why


def test_unpaired_boxes_fail_rule_four():
    d = st.Diagram(
        ("B", "B", "O", "O"),
        ((1, 0, 3, 2), (0, 1, 3, 2), (2, 3, 0, 1)),
    )
    ok, why = st.satisfies_diagram_constraints(d)
    assert not ok and "rule 4" in why


def test_open_zigzag_fails_rule_five():
    d = st.Diagram(
        ("B", "B", "O", "O"),
        ((1, 0, 2, 3), (1, 0, 3, 2), (2, 3, 0, 1)),
    )
    ok, why = st.satisfies_diagram_constraints(d)
    assert not ok and "rule 5" in why


def verify_canonical_catalog():
    """Re-derive the twelve diagrams and check them against the catalog.

    Fails loudly if the exhaustive enumeration does not produce exactly
    the canonical set up to isomorphism.
    """
    derived = st.enumerate_valid_diagrams()
    st._match_catalog(derived)
    return derived


def test_enumeration_gives_twelve():
    derived = st.enumerate_valid_diagrams()
    assert len(derived) == 12
    for i, a in enumerate(derived):
        for b in derived[i + 1 :]:
            assert st.diagram_isomorphic(a, b) is None
    verify_canonical_catalog()


def unpruned_valid_diagrams():
    """Every diagram of the full involution product, kept up to isomorphism."""
    out = []
    for n in (2, 4):
        involutions = [
            p for p in itertools.permutations(range(n)) if all(p[p[i]] == i for i in range(n))
        ]
        for shapes in itertools.product((st.BOX, st.OVAL), repeat=n):
            for sigma in itertools.product(involutions, repeat=3):
                d = st.Diagram(shapes, sigma)
                if not st.satisfies_diagram_constraints(d)[0]:
                    continue
                if any(st.diagram_isomorphic(d, seen) for seen in out):
                    continue
                out.append(d)
    return out


def test_pruned_enumeration_matches_the_full_product():
    derived = st.enumerate_valid_diagrams()
    oracle = unpruned_valid_diagrams()
    assert [(d.shapes, d.sigma) for d in derived] == [(d.shapes, d.sigma) for d in oracle]


def test_catalog_mismatch_raises_internal_invariant_error():
    derived = st.enumerate_valid_diagrams()
    with pytest.raises(InternalInvariantError, match="expected 12"):
        st._match_catalog(derived[:11])
    with pytest.raises(InternalInvariantError, match="missing from the catalog"):
        st._match_catalog(derived[:11] + [derived[0]])


def test_diagram_claim_enumerates_once(monkeypatch):
    from cornmaps.verify import SuiteContext, claim_diagram_enumeration

    calls = []
    real = st.enumerate_valid_diagrams

    def counting():
        calls.append(1)
        return real()

    monkeypatch.setattr(st, "enumerate_valid_diagrams", counting)
    instances, failures, _ = claim_diagram_enumeration(SuiteContext())
    assert (instances, failures, len(calls)) == (92, [], 1)


def isomorphic_by_permutations(a, b):
    """The first node permutation, in lexicographic order, that keeps shapes
    and colors, or None: the oracle for :func:`~cornmaps.symtype.diagram_isomorphic`."""
    if a.n_nodes != b.n_nodes:
        return None
    for pi in itertools.permutations(range(a.n_nodes)):
        if any(a.shapes[i] != b.shapes[pi[i]] for i in range(a.n_nodes)):
            continue
        if all(pi[a.sigma[c][i]] == b.sigma[c][pi[i]] for c in range(3) for i in range(a.n_nodes)):
            return pi
    return None


def random_diagram(rng, n, shapes="BO"):
    def involution():
        nodes = rng.sample(range(n), n)
        s = list(range(n))
        for i in range(rng.randint(0, n // 2)):
            x, y = nodes[2 * i], nodes[2 * i + 1]
            s[x], s[y] = y, x
        return s

    return st.Diagram(tuple(rng.choice(shapes) for _ in range(n)), [involution() for _ in "012"])


def relabelled_diagram(d, perm):
    """``d`` with node ``i`` renamed ``perm[i]``."""
    shapes = [None] * d.n_nodes
    sigma = [[None] * d.n_nodes for _ in d.sigma]
    for i in range(d.n_nodes):
        shapes[perm[i]] = d.shapes[i]
        for c, s in enumerate(d.sigma):
            sigma[c][perm[i]] = perm[s[i]]
    return st.Diagram(shapes, sigma)


def disjoint_union(*diagrams):
    shapes, sigma, offset = [], [[], [], []], 0
    for d in diagrams:
        shapes += d.shapes
        for c, s in enumerate(d.sigma):
            sigma[c] += [offset + x for x in s]
        offset += d.n_nodes
    return st.Diagram(shapes, sigma)


def is_isomorphism(pi, a, b):
    n = a.n_nodes
    return sorted(pi) == list(range(n)) and all(
        a.shapes[i] == b.shapes[pi[i]] and all(pi[s[i]] == t[pi[i]] for s, t in zip(a.sigma, b.sigma))
        for i in range(n)
    )


def test_diagram_isomorphic_matches_the_permutation_search():
    """The same bijection, the lexicographically first, or None alike: on the
    catalog, on random diagrams of at most 6 nodes, and on relabellings of
    them, isomorphic by construction."""
    rng = random.Random(32)
    pairs = [(a, b) for a in st.CANONICAL_DIAGRAMS.values() for b in st.CANONICAL_DIAGRAMS.values()]
    pairs += [(a, b) for a in st.enumerate_valid_diagrams() for b in st.CANONICAL_DIAGRAMS.values()]
    for _ in range(4000):
        n = rng.randint(1, 6)
        a = random_diagram(rng, n, rng.choice(["B", "BO"]))
        b = relabelled_diagram(a, rng.sample(range(n), n)) if rng.random() < 0.5 else None
        pairs.append((a, b or random_diagram(rng, n, "".join(sorted(set(a.shapes))))))
    found = 0
    for a, b in pairs:
        pi = st.diagram_isomorphic(a, b)
        assert pi == isomorphic_by_permutations(a, b)
        found += pi is not None
    assert 2000 < found < len(pairs) - 1000  # both answers, often


def test_diagram_isomorphic_is_polynomial():
    """Pairs the permutation search could not finish: non-isomorphic 10-node
    diagrams with equal shapes (3.6 million permutations), a connected
    200-node diagram against a relabelling and a near miss, and 31 components
    of which all but one pair up."""
    ring = [(i + 1) % 10 if i % 2 else (i - 1) % 10 for i in range(10)]
    a = st.Diagram("B" * 10, ((1, 0, 3, 2, 5, 4, 7, 6, 9, 8), ring, tuple(range(10))))
    b = st.Diagram("B" * 10, ((1, 0, 3, 2, 5, 4, 7, 6, 9, 8), (3, 2, 1, 0, 9, 6, 5, 8, 7, 4),
                              tuple(range(10))))
    assert a.components((0, 1)) == 1 and b.components((0, 1)) == 2
    assert st.diagram_isomorphic(a, b) is None
    rng = random.Random(200)
    big = random_diagram(rng, 200)
    while not big.is_connected():
        big = random_diagram(rng, 200)
    perm = rng.sample(range(200), 200)
    other = relabelled_diagram(big, perm)
    assert is_isomorphism(st.diagram_isomorphic(big, other), big, other)
    s2 = list(other.sigma[2])
    x, y = next((x, y) for x, y in enumerate(s2) if x < y)
    s2[x], s2[y] = x, y  # one color-2 link cut into two semiedges
    assert st.diagram_isomorphic(big, st.Diagram(other.shapes, (*other.sigma[:2], s2))) is None
    ab = [st.CANONICAL_DIAGRAMS[k] for k in "bc"]  # equal shapes, not isomorphic
    many = [st.CANONICAL_DIAGRAMS["g"]] * 30
    assert st.diagram_isomorphic(disjoint_union(*many, ab[0]), disjoint_union(ab[1], *many)) is None
    pi = st.diagram_isomorphic(disjoint_union(*many, ab[0]), disjoint_union(ab[0], *many))
    assert pi[:4] == (4, 5, 6, 7) and pi[-4:] == (0, 1, 2, 3)


def test_diagram_isomorphism_basics():
    a = st.CANONICAL_DIAGRAMS["a"]
    f = st.CANONICAL_DIAGRAMS["f"]
    b = st.CANONICAL_DIAGRAMS["b"]
    assert st.diagram_isomorphic(a, a) is not None
    assert st.diagram_isomorphic(a, f) is None
    assert st.diagram_isomorphic(a, b) is None  # 2 vs 4 nodes


def test_row_attributes_distinct():
    rows = list(st.ROW_ATTRIBUTES.values())
    assert len({r.as_tuple() for r in rows}) == 12


def test_symmetry_type_graph_two_nodes(opp44):
    L, A, G = green_setup(opp44)
    d = st.symmetry_type_graph(opp44, G, L)
    assert d.n_nodes == 2
    assert sorted(d.shapes) == ["B", "O"]
    assert st.diagram_isomorphic(d, st.CANONICAL_DIAGRAMS["a"]) is not None


def test_symmetry_type_graph_requires_preservation(opp44):
    L, A, G = green_setup(opp44)
    with pytest.raises(GroupDoesNotPreserveCorneration):
        st.symmetry_type_graph(opp44, A, L)  # the full group swaps colors


def test_symmetry_type_graph_requires_wedges(torus44):
    A = automorphism_group(torus44)
    (L,) = corn.enumerate_invariant_cornerations(torus44, A, 2)
    with pytest.raises(NotWedgeCorneration):
        st.symmetry_type_graph(torus44, A, L)


def test_classify_row_a(opp44):
    L, A, G = green_setup(opp44)
    res = st.classify(opp44, G, L)
    assert res.letter == "a"
    assert res.attributes == st.ROW_ATTRIBUTES["a"]


def test_classify_requires_transitive(opp44):
    L, A, G = green_setup(opp44)
    trivial = SymGroup(opp44, (tuple(range(opp44.n_flags)),))
    with pytest.raises(NotTransitive):
        st.classify(opp44, trivial, L)


def test_classify_checks_width_then_preservation_then_transitivity(torus44, opp44):
    """The checks run in this order, each on arguments that pass the ones
    before it; a wedge corneration of another map counts as not preserved."""
    L, A, G = green_setup(opp44)
    trivial = A.subgroup_from_images([0])
    with pytest.raises(NotTransitive):
        st.classify(opp44, trivial, L)
    with pytest.raises(GroupDoesNotPreserveCorneration, match="mixes wedges"):
        st.classify(opp44, A, L)  # the full group swaps colors
    foreign = corn.symmetric_cornerations_from_coloring(torus44, 1)[0]
    with pytest.raises(GroupDoesNotPreserveCorneration, match="different map"):
        st.classify(opp44, G, foreign)
    (wide,) = corn.enumerate_invariant_cornerations(torus44, automorphism_group(torus44), 2)
    with pytest.raises(NotWedgeCorneration):
        st.classify(torus44, automorphism_group(torus44).subgroup_from_images([0]), wide)


def test_classify_antiprism_and_grid():
    m4, L4 = build_antiprism_corneration(4)
    G4 = corn.corneration_stabilizer(automorphism_group(m4), L4)
    assert st.classify(m4, G4, L4).letter == "k"
    m45, L45 = build_torus_grid_corneration(4, 5)
    G45 = corn.corneration_stabilizer(automorphism_group(m45), L45)
    assert st.classify(m45, G45, L45).letter == "l"


def test_orbit_counts_match_direct_orbits(opp44):
    L, A, G = green_setup(opp44)
    d = st.symmetry_type_graph(opp44, G, L)
    v, e, f = st.diagram_orbit_counts(d)
    assert v == len(orbits_on(G, "vertex"))
    assert e == len(orbits_on(G, "edge"))
    assert f == len(orbits_on(G, "face"))
    assert d.n_nodes == len(orbits_on(G, "flags"))


def classify_by_all_faces(m, G, L):
    """The classification with its pattern letters taken from every face of
    ``L`` (:func:`~cornmaps.cornerations.face_patterns`) and its local type at
    the least vertex id: the oracle for the per-face-orbit letters."""
    diagram = st.symmetry_type_graph(m, G, L)
    boxes = [node for node, shape in enumerate(diagram.shapes) if shape == st.BOX]
    if set(boxes) != {boxes[0], diagram.sigma[1][boxes[0]]}:
        raise NotTransitive("classification needs a group transitive on the corners")
    v0 = min(c.id for c in cells(m, VERTEX))
    attrs = st.DiagramAttributes(
        diagram.n_nodes,
        *st.diagram_orbit_counts(diagram),
        corn.face_patterns(L).letters,
        local_action_group(G, v0).tag,
    )
    letter = next((k for k, row in st.ROW_ATTRIBUTES.items() if row == attrs), None)
    return st.ClassificationResult(letter, attrs, diagram)


def outcome(call, *args):
    try:
        return call(*args)
    except CornMapsError as exc:
        return type(exc), str(exc)


def wedge_sweep_cases():
    """Each width-1 sweep record of the suite maps, of petrie(opp(torus 4x4))
    and of torus 8x8, under the symmetry group of its map, its stabilizer
    and each subgroup of that of index at most 4."""
    maps = dict(SuiteContext().maps)
    maps["petrie-opp4x4"] = petrie(opposite(build_torus_grid(4, 4)))
    maps["torus8x8"] = build_torus_grid(8, 8)
    for m in maps.values():
        for r in corn.enumerate_transitive_cornerations(m, 1):
            for H in [automorphism_group(m), *subgroups_up_to_index(r.aut, 4)]:
                yield m, H, r.corneration


def test_classify_matches_the_all_faces_oracle():
    """Equal results, and equal errors; every row and each error that a
    subgroup of a map's own group can meet turn up."""
    seen = collections.Counter()
    for m, H, L in wedge_sweep_cases():
        got = outcome(st.classify, m, H, L)
        assert got == outcome(classify_by_all_faces, m, H, L), (m.name, H.order)
        seen[got[0] if isinstance(got[0], type) else got.letter] += 1
    assert set(seen) == {*st.ROW_ATTRIBUTES, NotTransitive, GroupDoesNotPreserveCorneration}
    assert sum(seen.values()) == 2378


def two_letter_cases(opp44):
    """Configuration 1 (row a, letters A and E) and configuration 3 (row k,
    letters C and E): two face orbits, each with its own letter."""
    L, _, G = green_setup(opp44)
    m4, L4 = build_antiprism_corneration(4)
    G4 = corn.corneration_stabilizer(automorphism_group(m4), L4)
    return [(opp44, G, L, 1, "a"), (m4, G4, L4, 3, "k")]


def test_classify_reads_a_letter_off_each_face_orbit(opp44):
    for m, G, L, configuration, row in two_letter_cases(opp44):
        report = corn.face_patterns(L)
        assert report.configuration == configuration
        per_orbit = [{report.per_face[f] for f in orbit} for orbit in orbits_on(G, "faces")]
        assert len(per_orbit) == 2 and all(len(letters) == 1 for letters in per_orbit)
        assert per_orbit[0] != per_orbit[1]
        res = st.classify(m, G, L)
        assert res.letter == row
        assert res.attributes.patterns == report.letters == per_orbit[0] | per_orbit[1]
