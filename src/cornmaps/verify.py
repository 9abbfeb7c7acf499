"""Batch verification of the library's structural claims on a map suite.

Each claim checks one family of facts on desk-scale maps: the suite maps
and their invariants, the operator identities, the twelve-row
classification of transitive wedge cornerations, the parity criterion for
symmetric cornerations, local structure, face patterns, split-graph
valences and connectivity, and the independent enumeration oracle.  The
command line front end and the acceptance tests both run these claims.
"""

from __future__ import annotations

import functools
import itertools
import math
import time
from typing import Callable, Optional

from . import cornerations as corn
from . import splitgraph as sg
from . import symtype as st
from .builders import (
    build_antiprism,
    build_antiprism_corneration,
    build_theta,
    build_torus_grid,
    build_torus_grid_corneration,
)
from .core import (
    EDGE,
    FACE,
    VERTEX,
    FlagMap,
    _Record,
    cells,
    euler_and_genus,
    face_bipartition,
    face_boundary_edges,
    face_length,
    rotation_at_vertex,
    skeleton,
    uniform_valence,
    validate,
)
from .errors import (
    GroupDoesNotPreserveCorneration,
    InternalInvariantError,
    InvalidCorner,
    KNotInvariant,
    NotTransitive,
    UnknownConstruction,
    WidthOutOfRange,
)
from .operators import dual, hole, is_isomorphic, opposite, petrie
from .symmetry import (
    HC,
    HD,
    QD,
    SymGroup,
    automorphism_group,
    is_face_reflexible,
    is_reflexible,
    local_action_group,
    orbits_on,
    subgroups_up_to_index,
)

PASSED = "passed"
FAILED = "failed"
SKIPPED = "skipped"


class ClaimResult(_Record):
    __slots__ = ("claim", "instances", "status", "failures", "elapsed", "note")

    def __init__(
        self,
        claim: str,
        instances: int,
        status: str,
        failures: tuple[str, ...],
        elapsed: float,
        note: str = "",
    ):
        self.claim, self.instances, self.status = claim, instances, status
        self.failures, self.elapsed, self.note = failures, elapsed, note

    @property
    def ok(self) -> bool:
        return self.status != FAILED

    def line(self) -> str:
        mark = {PASSED: "PASS", FAILED: "FAIL", SKIPPED: "SKIP"}[self.status]
        msg = f"{mark}  {self.claim}  ({self.instances} instances, {self.elapsed:.1f}s)"
        if self.note:
            msg += f"  [{self.note}]"
        return msg


class VerificationReport(_Record):
    __slots__ = ("results",)

    def __init__(self, results: tuple[ClaimResult, ...]):
        self.results = results

    @property
    def ok(self) -> bool:
        return all(r.ok for r in self.results)

    def text(self) -> str:
        lines = [r.line() for r in self.results]
        for r in self.results:
            for f in r.failures:
                lines.append(f"       {r.claim}: {f}")
        lines.append("suite: " + ("PASS" if self.ok else "FAIL"))
        return "\n".join(lines)


class SuiteContext:
    """Builds and caches the suite maps and the transitive-corneration sweep
    of each map and width."""

    def __init__(self, census_map_path: Optional[str] = None):
        self.census_map_path = census_map_path
        self._maps: Optional[dict] = None
        self._sweep: dict = {}
        self._face_reflexible: dict = {}

    @property
    def maps(self) -> dict:
        if self._maps is None:
            out = {}
            t44 = build_torus_grid(4, 4)
            out["torus4x4"] = t44
            out["opp4x4"] = opposite(t44)
            for n in range(3, 7):
                out[f"antiprism{n}"] = build_antiprism(n)
            for r in range(3, 7):
                for c in range(r, 7):
                    if (r, c) != (4, 4):
                        out[f"torus{r}x{c}"] = build_torus_grid(r, c)
            self._maps = out
        return self._maps

    def sweep(self, name: str, j: int):
        key = (name, j)
        if key not in self._sweep:
            self._sweep[key] = corn.enumerate_transitive_cornerations(self.maps[name], j)
        return self._sweep[key]

    def sweep_all(self):
        out = {}
        for name, m in self.maps.items():
            q = uniform_valence(m)
            if q is None or q % 2 != 0:
                continue
            for j in range(1, q // 2 + 1):
                out[(name, j)] = self.sweep(name, j)
        return out

    @functools.cached_property
    def brute_force(self) -> dict:
        """theta(3), antiprism(3) and theta(4) by name, each with every corneration of it."""
        maps = (build_theta(3), build_antiprism(3), build_theta(4))
        return {m.name: (m, _all_cornerations_mixed(m)) for m in maps}

    def half_reflexible_available(self, name: str) -> bool:
        if name not in self._face_reflexible:
            m = self.maps[name]
            found = is_face_reflexible(m) is not None
            if not found:
                found = is_face_reflexible(petrie(m)) is not None
            self._face_reflexible[name] = found
        return self._face_reflexible[name]


# ---------------------------------------------------------------------------
# claim implementations
# ---------------------------------------------------------------------------


def claim_suite_axioms(ctx: SuiteContext):
    failures = []
    instances = 0

    def check(cond, msg):
        nonlocal instances
        instances += 1
        if not cond:
            failures.append(msg)

    for name, m in ctx.maps.items():
        check(validate(m).ok, f"{name}: map axioms violated")

    t44 = ctx.maps["torus4x4"]
    check(len(cells(t44, VERTEX)) == 16, "torus4x4: expected 16 vertices")
    check(len(cells(t44, EDGE)) == 32, "torus4x4: expected 32 edges")
    check(len(cells(t44, FACE)) == 16, "torus4x4: expected 16 faces")
    check(euler_and_genus(t44).chi == 0, "torus4x4: expected chi 0")
    check(automorphism_group(t44).order == 128, "torus4x4: expected 128 symmetries")
    check(is_reflexible(t44), "torus4x4: expected a reflexible map")
    check(face_bipartition(t44) is not None, "torus4x4: expected face-bipartite")
    pt = petrie(t44)
    check(
        sorted(set(face_length(pt, f.id) for f in cells(pt, FACE))) == [8],
        "torus4x4: zigzag circuits should have length 8",
    )

    opp = ctx.maps["opp4x4"]
    check(uniform_valence(opp) == 8, "opp4x4: expected valence 8")
    check(len(cells(opp, VERTEX)) == 8, "opp4x4: expected 8 vertices")
    check(len(cells(opp, EDGE)) == 32, "opp4x4: expected 32 edges")
    check(len(cells(opp, FACE)) == 16, "opp4x4: expected 16 faces")
    eg = euler_and_genus(opp)
    check(eg.orientable and eg.genus == 5, "opp4x4: expected orientable genus 5")
    check(is_isomorphic(petrie(opp), opp) is not None, "opp4x4: expected self-petrie")
    check(face_bipartition(opp) is not None, "opp4x4: expected face-bipartite")

    for n in range(3, 7):
        m = ctx.maps[f"antiprism{n}"]
        check(len(cells(m, VERTEX)) == 2 * n, f"antiprism{n}: vertex count")
        check(len(cells(m, EDGE)) == 4 * n, f"antiprism{n}: edge count")
        check(len(cells(m, FACE)) == 2 * n + 2, f"antiprism{n}: face count")
        check(euler_and_genus(m).chi == 2, f"antiprism{n}: sphere expected")
        check(uniform_valence(m) == 4, f"antiprism{n}: valence 4 expected")
        check(
            len(orbits_on(automorphism_group(m), VERTEX)) == 1,
            f"antiprism{n}: expected vertex-transitive",
        )

    for name, m in ctx.maps.items():
        if not name.startswith("torus"):
            continue
        r, c = name[5:].split("x")
        r, c = int(r), int(c)
        check(len(cells(m, VERTEX)) == r * c, f"{name}: vertex count")
        check(len(cells(m, EDGE)) == 2 * r * c, f"{name}: edge count")
        check(len(cells(m, FACE)) == r * c, f"{name}: face count")
        check(euler_and_genus(m).chi == 0, f"{name}: torus expected")
        check(
            len(orbits_on(automorphism_group(m), VERTEX)) == 1,
            f"{name}: expected vertex-transitive",
        )
        if r % 2 == 0 and c % 2 == 0:
            check(face_bipartition(m) is not None, f"{name}: expected face-bipartite")
    return instances, failures, ""


def claim_operator_identities(ctx: SuiteContext):
    from .errors import DegenerateResult

    failures = []
    instances = 0
    degenerate = 0
    for name, m in ctx.maps.items():
        instances += 4
        dd = dual(dual(m))
        if (dd.r0, dd.r1, dd.r2) != (m.r0, m.r1, m.r2):
            failures.append(f"{name}: dual applied twice is not the identity")
        pp = petrie(petrie(m))
        if (pp.r0, pp.r1, pp.r2) != (m.r0, m.r1, m.r2):
            failures.append(f"{name}: petrie applied twice is not the identity")
        try:
            opp = opposite(m)
        except DegenerateResult:
            # legitimate: a zigzag path can border itself, so the final
            # dual would carry a loop; the identity is asserted only
            # where the operator is defined
            degenerate += 1
            opp = None
        if opp is not None:
            ref = dual(petrie(dual(m)))
            if (opp.r0, opp.r1, opp.r2) != (ref.r0, ref.r1, ref.r2):
                failures.append(f"{name}: opposite differs from dual-petrie-dual")
        if skeleton(petrie(m)).endpoints != skeleton(m).endpoints:
            failures.append(f"{name}: petrie changed the skeleton")
        q = uniform_valence(m)
        if q is not None and q >= 2:
            instances += 1
            h1 = hole(m, 1)
            one = h1.maps[0]
            if len(h1.maps) != 1 or (one.r0, one.r1, one.r2) != (m.r0, m.r1, m.r2):
                failures.append(f"{name}: width-1 hole is not the identity")

    opp = ctx.maps["opp4x4"]
    h2 = hole(opp, 2)
    parts22 = []
    for component in h2.maps:
        parts22.extend(hole(component, 2).maps)
    h4 = hole(opp, 4).maps
    instances += 1
    if len(parts22) != len(h4):
        failures.append("opp4x4: repeated width-2 holes disagree with width 4 in count")
    else:
        unused = list(range(len(h4)))
        for a in parts22:
            hit = next(
                (i for i in unused if is_isomorphic(a, h4[i]) is not None), None
            )
            if hit is None:
                failures.append(
                    "opp4x4: repeated width-2 hole component matches no width-4 component"
                )
                break
            unused.remove(hit)
    note = f"{degenerate} degenerate opposite results tolerated" if degenerate else ""
    return instances, failures, note


def claim_stg_classification(ctx: SuiteContext):
    failures = []
    instances = 0
    realized: dict = {}

    def record(letter_expected, m, G, L, label):
        nonlocal instances
        instances += 1
        res = st.classify(m, G, L)
        if res.letter != letter_expected:
            failures.append(
                f"{label}: classified as {res.letter}, expected {letter_expected} "
                f"(attributes {res.attributes.as_tuple()})"
            )
            return
        if res.attributes != st.ROW_ATTRIBUTES[letter_expected]:
            failures.append(f"{label}: attribute row mismatch for {letter_expected}")
        if st.diagram_isomorphic(res.diagram, st.CANONICAL_DIAGRAMS[letter_expected]) is None:
            failures.append(
                f"{label}: quotient diagram is not isomorphic to the canonical row "
                f"{letter_expected}"
            )
        realized[letter_expected] = True

    opp = ctx.maps["opp4x4"]
    A = automorphism_group(opp)
    L = corn.symmetric_cornerations_from_coloring(opp, 1)[0]
    AL = corn.corneration_stabilizer(A, L)
    instances += 2
    if A.order != 128:
        failures.append("opp4x4: expected 128 symmetries")
    if A.order != 2 * AL.order:
        failures.append("opp4x4: corneration group should have index 2")
    record("a", opp, AL, L, "opp4x4 wedge corneration")

    proper = [
        H
        for H in subgroups_up_to_index(AL, 2)
        if H.order < AL.order and corn.is_transitive_on_corners(H, L)
    ]
    instances += 1
    if len(proper) < 4:
        failures.append(
            f"opp4x4: expected at least 4 transitive index-2 subgroups, got {len(proper)}"
        )
    letters = {}
    for H in proper:
        res = st.classify(opp, H, L)
        letters.setdefault(res.letter, H)
    for want in "bcde":
        instances += 1
        if want not in letters:
            failures.append(f"opp4x4 subgroups: row {want} not realized")
        else:
            record(want, opp, letters[want], L, f"opp4x4 subgroup row {want}")

    P = petrie(opp)
    PL = corn.transfer(L, P)
    APL = corn.corneration_stabilizer(automorphism_group(P), PL)
    record("f", P, APL, PL, "petrie of the opp4x4 corneration")
    pletters = {}
    for H in subgroups_up_to_index(APL, 2):
        if H.order < APL.order and corn.is_transitive_on_corners(H, PL):
            res = st.classify(P, H, PL)
            pletters.setdefault(res.letter, H)
    for want in "ghij":
        instances += 1
        if want not in pletters:
            failures.append(f"petrie subgroups: row {want} not realized")
        else:
            record(want, P, pletters[want], PL, f"petrie subgroup row {want}")

    m4, L4 = build_antiprism_corneration(4)
    A4 = corn.corneration_stabilizer(automorphism_group(m4), L4)
    record("k", m4, A4, L4, "antiprism4 band corneration")

    m45, L45 = build_torus_grid_corneration(4, 5)
    A45 = corn.corneration_stabilizer(automorphism_group(m45), L45)
    record("l", m45, A45, L45, "torus4x5 alternating corneration")

    instances += 1
    if set(realized) != set("abcdefghijkl"):
        failures.append(f"rows realized: {sorted(realized)}, expected a..l")
    return instances, failures, ""


def claim_diagram_enumeration(ctx: SuiteContext):
    failures = []
    instances = 0
    derived = st.enumerate_valid_diagrams()
    instances += 1
    if len(derived) != 12:
        failures.append(f"derived {len(derived)} diagrams, expected 12")
    for d in derived:
        instances += 1
        ok, why = st.satisfies_diagram_constraints(d)
        if not ok:
            failures.append(f"derived diagram fails its own constraints: {why}")
    for i, a in enumerate(derived):
        for b in derived[i + 1 :]:
            if st.diagram_isomorphic(a, b) is not None:
                failures.append("two derived diagrams are isomorphic")
    try:
        st._match_catalog(derived)
        instances += 1
    except InternalInvariantError as exc:
        failures.append(str(exc))
    rows = list(st.ROW_ATTRIBUTES.items())
    for i, (ka, va) in enumerate(rows):
        for kb, vb in rows[i + 1 :]:
            instances += 1
            if va == vb:
                failures.append(f"attribute rows {ka} and {kb} collide")
    for letter, diagram in st.CANONICAL_DIAGRAMS.items():
        instances += 1
        attrs = st.ROW_ATTRIBUTES[letter]
        if st.diagram_orbit_counts(diagram) != (
            attrs.v_orbits,
            attrs.e_orbits,
            attrs.f_orbits,
        ):
            failures.append(f"row {letter}: catalog orbit counts disagree with diagram")
        if diagram.n_nodes != attrs.node_count:
            failures.append(f"row {letter}: node count mismatch")
    return instances, failures, ""


def claim_symmetric_parity(ctx: SuiteContext):
    failures = []
    instances = 0
    for name, m in ctx.maps.items():
        q = uniform_valence(m)
        if q is None or q % 2 != 0:
            continue
        available = ctx.half_reflexible_available(name)
        for j in range(1, q // 2 + 1):
            records = ctx.sweep(name, j)
            symmetric_found = [r for r in records if r.symmetric]
            if 2 * j == q:
                continue  # the parity criterion concerns widths below q/2
            instances += 1
            predicate = (j % 2 == 1) and available
            if bool(symmetric_found) != predicate:
                failures.append(
                    f"{name} width {j}: enumeration {'found' if symmetric_found else 'found no'} "
                    f"symmetric cornerations but the parity criterion says {predicate}"
                )
                continue
            if predicate:
                pair = corn.symmetric_cornerations_from_coloring(m, j)
                instances += 1
                if not set(pair) <= {r.corneration for r in symmetric_found}:
                    failures.append(
                        f"{name} width {j}: constructed symmetric cornerations "
                        "missing from the exhaustive sweep"
                    )
    # the straight width is excluded for a reason: the straight corneration
    # of the 4-valent torus is symmetric although its width is even
    t44records = ctx.sweep("torus4x4", 2)
    instances += 1
    if not any(r.symmetric for r in t44records):
        failures.append("torus4x4: expected a symmetric straight corneration")
    return instances, failures, ""


def claim_local_structure(ctx: SuiteContext):
    failures = []
    instances = 0
    for (name, j), records in ctx.sweep_all().items():
        m = ctx.maps[name]
        q = uniform_valence(m)
        for idx, r in enumerate(records):
            if not r.transitive:
                continue
            L = r.corneration
            label = f"{name} width {j} #{idx}"
            instances += 1
            if L.width != j:
                failures.append(f"{label}: transitive corneration is not uniform")
            index = automorphism_group(m).order // r.aut.order
            if index not in (1, 2, 4):
                failures.append(f"{label}: stabilizer has index {index}")
            if 2 * j == q:
                continue
            vertices = [vc.id for vc in cells(m, VERTEX)]
            tags = {local_action_group(r.aut, v).tag for v in vertices}
            classifications = {corn.local_corneration(L, v).classification for v in vertices}
            if len(tags) != 1 or tags - {HD, HC, QD}:
                failures.append(f"{label}: local action tags {sorted(tags)}")
            if j % 2 == 1:
                if classifications != {corn.STANDARD_ODD}:
                    failures.append(
                        f"{label}: odd width should be the standard odd local corneration"
                    )
            else:
                if j % 4 != 2:
                    failures.append(f"{label}: even width {j} is not 2 mod 4")
                if classifications != {corn.STANDARD_EVEN}:
                    failures.append(
                        f"{label}: even width should be the standard even local corneration"
                    )
                if tags != {QD}:
                    failures.append(f"{label}: even width forces the quarter-dihedral action")
            if r.symmetric:
                instances += 1
                if j % 2 != 1:
                    failures.append(f"{label}: symmetric corneration of even width {j}")
                letter = _symmetric_row_letter(m, r, j)
                if letter not in ("a", "f"):
                    failures.append(
                        f"{label}: symmetric corneration classified as {letter}"
                    )
    failures.extend(_mixed_cover_spotchecks(ctx))
    instances += 2
    return instances, failures, ""


def _symmetric_row_letter(m, record, j):
    if j == 1:
        return st.classify(m, record.aut, record.corneration).letter
    q = uniform_valence(m)
    if math.gcd(j, q) != 1:
        return "?"
    result = hole(m, j)
    component = result.maps[0]
    moved = corn.transfer(record.corneration, result)[0]
    # for gcd(j, q) = 1 the hole keeps the flag numbering and these symmetries
    G = automorphism_group(component).subgroup_from_images(record.aut.images())
    return st.classify(component, G, moved).letter


def _mixed_cover_spotchecks(ctx: SuiteContext):
    """Brute-force every corneration of two tiny maps, mixed widths included.

    Walks them by orbit under the symmetry group A, as each check holds for
    a whole orbit or for none of it: orbit length times stabilizer order is
    |A|, corner-transitive cornerations are uniform with stabilizers of
    index 1, 2 or 4, and the small-index sweep found every transitive one.
    """
    failures = []
    for m, every in (ctx.brute_force["theta4"], ctx.brute_force["antiprism3"]):
        A = automorphism_group(m)
        seen, transitive = set(), set()
        for L in every:
            if L._mask in seen:
                continue
            orbit, aut_L = corn._orbit_and_stabilizer(A, L)
            seen.update(orbit)
            if len(orbit) * aut_L.order != A.order:
                failures.append(
                    f"{m.name}: orbit of {len(orbit)} cornerations, stabilizer of "
                    f"order {aut_L.order}, |Aut| = {A.order}"
                )
            if corn.is_transitive_on_corners(aut_L, L):
                transitive.update(orbit)
                if L.width is None:
                    failures.append(f"{m.name}: transitive corneration with mixed widths")
                if A.order // aut_L.order not in (1, 2, 4):
                    failures.append(
                        f"{m.name}: transitive corneration stabilizer of index "
                        f"{A.order // aut_L.order}"
                    )
        swept = {
            r.corneration._mask
            for j in range(1, uniform_valence(m) // 2 + 1)
            for r in corn.enumerate_transitive_cornerations(m, j)
            if r.transitive
        }
        if swept != transitive:
            failures.append(
                f"{m.name}: sweep found {len(swept)} transitive cornerations, "
                f"brute force found {len(transitive)}"
            )
    return failures


def _all_cornerations_mixed(m: FlagMap):
    """Every corneration of ``m``: the product of per-vertex exact covers."""
    per_vertex = [_vertex_covers_all_widths(m, vc.id) for vc in cells(m, VERTEX)]
    return [
        corn.Corneration(m, itertools.chain(*combo))
        for combo in itertools.product(*per_vertex)
    ]


def _vertex_covers_all_widths(m: FlagMap, v: int):
    """Every exact cover of the darts at ``v`` by its corners, each once."""
    rotation = rotation_at_vertex(m, v)
    q = len(rotation)
    corners_at_v = []
    for a in range(q):
        for b in range(a + 1, q):
            try:
                corners_at_v.append(corn.corner_from_darts(m, (rotation[a], rotation[b])))
            except InvalidCorner:
                continue  # parallel darts on one edge
    covers = []

    def extend(remaining, chosen):
        if not remaining:
            covers.append(tuple(chosen))
            return
        first = min(remaining)
        for c in corners_at_v:
            if first in c.darts and set(c.darts) <= remaining:
                extend(remaining - set(c.darts), chosen + [c])

    extend(set(rotation), [])
    return covers


def claim_face_configurations(ctx: SuiteContext):
    failures = []
    instances = 0
    for (name, j), records in ctx.sweep_all().items():
        if j != 1:
            continue
        m = ctx.maps[name]
        for idx, r in enumerate(records):
            if not r.transitive:
                continue
            label = f"{name} wedge corneration #{idx}"
            instances += 1
            report = corn.face_patterns(r.corneration)
            if report.configuration not in (1, 2, 3, 4):
                failures.append(f"{label}: unexpected face configuration")
                continue
            circuits = corn.circuits_of(r.corneration)
            circuit_edges = {c.edges for c in circuits.circuits}
            if report.configuration == 1:
                in_faces = [
                    f for f, letter in report.per_face.items() if letter == "A"
                ]
                face_edges = {
                    frozenset(face_boundary_edges(m, f)) for f in in_faces
                }
                if circuit_edges != face_edges:
                    failures.append(
                        f"{label}: circuits differ from the covered face class"
                    )
            elif report.configuration == 2:
                # every edge lies on two zigzag paths; a decomposition
                # selects one of them per edge, so containment is the claim
                P = petrie(m)
                petrie_edges = {
                    frozenset(face_boundary_edges(P, f.id)) for f in cells(P, FACE)
                }
                if not circuit_edges <= petrie_edges:
                    failures.append(f"{label}: a circuit is not a zigzag path")
    return instances, failures, ""


# (construction, valence, width) of the cubic split graphs the claim must meet
CUBIC_WITNESSES = {
    ("Ci", 8, 2): "Ci_cubic_j2",
    ("Cx", 8, 3): "Cx_cubic_j3",
    ("B", 4, 2): "B_cubic_straight4",
}


def claim_split_graphs(ctx: SuiteContext):
    failures = []
    instances = 0
    witnessed = dict.fromkeys(CUBIC_WITNESSES.values(), False)
    for (name, j), records in ctx.sweep_all().items():
        m = ctx.maps[name]
        q = uniform_valence(m)
        lc_pred = sg.predicted_local_connectivity(q, j)
        for idx, r in enumerate(records):
            if not r.transitive:
                continue
            L = r.corneration
            label = f"{name} width {j} #{idx}"
            instances += 1
            deficit = sg.old_degree_deficit(L)
            predicted = sg.predicted_valences(q, j, deficit)  # the kinds of lc_pred, in order
            graphs = {kind: sg.build_construction(L, kind) for kind in predicted}
            valences = [(kind, S.regular_valence(), predicted[kind]) for kind, S in graphs.items()]
            if any(measured != expected for _, measured, expected in valences):
                failures.append(f"{label}: measured valences {valences}")
            for kind, measured, _ in valences:
                if measured == 3 and (kind, q, j) in CUBIC_WITNESSES:
                    witnessed[CUBIC_WITNESSES[kind, q, j]] = True
            for kind, S in graphs.items():
                measured_lc, witness = sg.is_locally_connected(S)
                if measured_lc != lc_pred[kind]:
                    failures.append(
                        f"{label} {kind}: local connectivity {measured_lc}, "
                        f"expected {lc_pred[kind]}"
                    )
                # local connectivity implies connectivity through the old
                # edges; with a full parallel-edge deficit none exist and
                # the implication is void
                if measured_lc and deficit == 0 and not S.is_connected():
                    failures.append(f"{label} {kind}: locally connected but disconnected")
                K = sg.new_corners(L, kind)
                try:
                    if not sg.verify_vertex_transitive(S, r.aut, K):
                        failures.append(f"{label} {kind}: group action broke an edge")
                except (
                    NotTransitive,
                    KNotInvariant,
                    GroupDoesNotPreserveCorneration,
                ) as exc:
                    failures.append(f"{label} {kind}: transitivity witness failed: {exc}")
    for key, seen in witnessed.items():
        instances += 1
        if not seen:
            failures.append(f"expected cubic witness {key} never appeared")
    return instances, failures, ""


def claim_oracle_equivalence(ctx: SuiteContext):
    failures = []
    instances = 0
    # mixed widths included; an odd valence leaves it empty, as in the library
    for m, every in ctx.brute_force.values():
        q = uniform_valence(m)
        trivial = SymGroup(m, (tuple(range(m.n_flags)),))
        top = max(1, q // 2)
        for j in range(1, top + 1):
            instances += 1
            library = set(corn.enumerate_invariant_cornerations(m, trivial, j))
            oracle = {L for L in every if L.width == j}
            if oracle != set(library):
                failures.append(
                    f"{m.name} width {j}: oracle found {len(oracle)}, library found {len(library)}"
                )
    return instances, failures, ""


def claim_census_example(ctx: SuiteContext):
    import os

    path = ctx.census_map_path
    if not path or not os.path.exists(path):
        return 0, [], "no census map supplied; skipped by design"
    from .fileio import parse_map

    failures = []
    with open(path, "r", encoding="utf-8") as handle:
        m = parse_map(handle.read())
    # the claim is about the 27-vertex {3,12} census map; any other map
    # with a suitable corneration would pass the search below as well
    n_vertices, n_edges = len(cells(m, VERTEX)), len(cells(m, EDGE))
    note = f"V={n_vertices}, E={n_edges}"
    if (n_vertices, n_edges) != (27, 162):
        failures.append(f"census map has {note}, expected V=27, E=162")
    q = uniform_valence(m)
    if q != 12:
        failures.append(f"census map has valence {q}, expected 12")
        return 1, failures, note
    found = False
    for r in corn.enumerate_transitive_cornerations(m, 3):
        if not r.transitive:
            continue
        for kind in ("A", "B", "Ci", "Cx"):
            try:
                S = sg.build_construction(r.corneration, kind)
            except (UnknownConstruction, WidthOutOfRange):
                continue
            lc, _ = sg.is_locally_connected(S)
            if S.is_connected() and not lc:
                found = True
    if not found:
        failures.append("no connected but not locally connected split construction found")
    return 1, failures, note


CLAIMS: tuple[tuple[str, Callable], ...] = (
    ("map-suite-axioms", claim_suite_axioms),
    ("operator-identities", claim_operator_identities),
    ("stg-classification", claim_stg_classification),
    ("diagram-count-twelve", claim_diagram_enumeration),
    ("symmetric-width-parity", claim_symmetric_parity),
    ("local-structure", claim_local_structure),
    ("face-pattern-configurations", claim_face_configurations),
    ("split-graph-laws", claim_split_graphs),
    ("enumeration-oracle", claim_oracle_equivalence),
    ("census-local-connectivity", claim_census_example),
)


def run_claim(name: str, ctx: SuiteContext) -> ClaimResult:
    fn = dict(CLAIMS)[name]
    start = time.perf_counter()
    instances, failures, note = fn(ctx)
    elapsed = time.perf_counter() - start
    if instances == 0 and not failures:
        status = SKIPPED
    else:
        status = PASSED if not failures else FAILED
    return ClaimResult(name, instances, status, tuple(failures), elapsed, note)


def run_suite(census_map_path: Optional[str] = None) -> VerificationReport:
    ctx = SuiteContext(census_map_path)
    results = [run_claim(name, ctx) for name, _ in CLAIMS]
    return VerificationReport(tuple(results))
