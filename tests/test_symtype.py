import itertools

import pytest

import cornmaps.cornerations as corn
import cornmaps.symtype as st
from cornmaps.builders import build_antiprism_corneration, build_torus_grid_corneration
from cornmaps.errors import (
    CornMapsError,
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidDiagram,
    NotTransitive,
    NotWedgeCorneration,
)
from cornmaps.symmetry import SymGroup, automorphism_group, orbits_on


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
