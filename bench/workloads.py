"""One run of one cornmaps benchmark workload, in a fresh process.

    PYTHONPATH=src python3 bench/workloads.py --workload sweep-torus --seed 3 [--trace] [--setup-only]

prints one JSON line with ``setup_s`` (import of cornmaps plus building the
input maps), ``wall_s`` and ``cpu_s`` of the workload run, ``peak_rss_mb``
of this process, the result ``summary`` that ``run.py`` compares with
``bench/expected/<workload>.json`` and, with ``--trace``, the per-layer
metrics.  ``run.py`` starts one such process per run: the library memoizes
groups and cell tables on its objects and in module state, and
``ru_maxrss`` is a high-water mark, so a second run in one process would
measure something else.

The library is called only through its public functions.  The traced run
rebuilds ``enumerate_transitive_cornerations`` from its public steps and
times each call into a layer; the untraced run calls it whole.
"""

import argparse
import contextlib
import io
import json
import math
import os
import random
import re
import resource
import sys
import time
from collections import defaultdict

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))

# Set-up time starts here, because it includes importing the library.
_T_START = time.perf_counter()
import cornmaps  # noqa: E402
from cornmaps import (  # noqa: E402
    FlagMap,
    SymGroup,
    automorphism_group,
    build_antiprism,
    build_torus_grid,
    cells,
    classify,
    corneration_stabilizer,
    cubic_filter,
    enumerate_invariant_cornerations,
    enumerate_transitive_cornerations,
    graph_A,
    is_corneration,
    is_locally_connected,
    is_transitive_on_corners,
    j_complement,
    all_j_corners,
    opposite,
    orbits_on,
    parse_corneration,
    subgroups_up_to_index,
    to_graph6,
    to_sparse6,
    valence,
    verify_vertex_transitive,
    write_corneration,
)
from cornmaps.cli import main as cli_main  # noqa: E402
from cornmaps.core import CELL_KINDS, DART, VERTEX  # noqa: E402
from cornmaps.cornerations import TransitiveCornerationRecord, corner_of_wedge  # noqa: E402
from cornmaps.splitgraph import build_construction, predicted_local_connectivity  # noqa: E402
from cornmaps.verify import CLAIMS, SuiteContext, VerificationReport, run_claim  # noqa: E402

# Per-layer metrics of the traced run: (name, unit).  A layer a workload
# does not reach reports 0.
LAYER_METRICS = (
    ("builders.build_s", "s"),
    ("operators.opposite_s", "s"),
    ("core.cell_index_s", "s"),
    ("symmetry.aut_s", "s"),
    ("symmetry.aut_order", "count"),
    ("symmetry.aut_rss_delta_mb", "MB"),
    ("symmetry.subgroups_s", "s"),
    ("symmetry.subgroups", "count"),
    ("symmetry.generators_s", "s"),
    ("symmetry.generators_total", "count"),
    ("symmetry.generators_max", "count"),
    ("symmetry.check_s", "s"),
    ("symmetry.orbits_s", "s"),
    ("cornerations.invariant_s", "s"),
    ("cornerations.invariant_calls", "count"),
    ("cornerations.solutions", "count"),
    ("cornerations.distinct", "count"),
    ("cornerations.distinct_ratio", "ratio"),
    ("cornerations.stabilizer_s", "s"),
    ("cornerations.transitive_s", "s"),
    ("cornerations.transitive", "count"),
    ("cornerations.symmetric", "count"),
    ("symtype.classify_s", "s"),
    ("symtype.classified", "count"),
    ("splitgraph.build_s", "s"),
    ("splitgraph.graphs", "count"),
    ("splitgraph.edges", "count"),
    ("splitgraph.cubic_filter_s", "s"),
    ("splitgraph.local_connectivity_s", "s"),
    ("splitgraph.vertex_transitive_s", "s"),
    ("splitgraph.encode_s", "s"),
    ("fileio.roundtrip_s", "s"),
    ("fileio.bytes", "B"),
) + tuple(
    metric
    for name, _ in CLAIMS
    for metric in ((f"verify.{name}_s", "s"), (f"verify.{name}.instances", "count"))
)

# The verify report prints each claim's elapsed time; it is not a result.
_ELAPSED = re.compile(r", \d+\.\d+s\)")


class Trace:
    """Summed span durations and counts, keyed by per-layer metric name.

    When disabled, spans and counts record nothing, so the untraced run
    shares the analysis code with the traced one.
    """

    def __init__(self, enabled: bool):
        self.enabled = enabled
        self.values = defaultdict(int)

    @contextlib.contextmanager
    def span(self, name):
        if not self.enabled:
            yield
            return
        start = time.perf_counter()
        try:
            yield
        finally:
            self.values[name] += time.perf_counter() - start

    def add(self, name, k=1):
        if self.enabled:
            self.values[name] += k

    def maximum(self, name, value):
        if self.enabled:
            self.values[name] = max(self.values[name], value)


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def relabel(m: FlagMap, seed: int) -> FlagMap:
    """``m`` with its flags renamed by a permutation drawn from ``seed``.

    Seed 0 keeps the builders' labels.  Results that do not depend on
    labels, and the summaries built from them, are the same for every seed.
    """
    if seed == 0:
        return m
    new = list(m.flags())
    random.Random(seed).shuffle(new)
    images = []
    for r in m.involutions():
        image = [0] * m.n_flags
        for f in m.flags():
            image[new[f]] = new[r[f]]
        images.append(image)
    return FlagMap(m.n_flags, *images, name=m.name)


def warm_cell_tables(m: FlagMap, tr: Trace) -> None:
    """Traced runs fill the cell tables first, so later spans exclude them."""
    if tr.enabled:
        with tr.span("core.cell_index_s"):
            for kind in CELL_KINDS:
                m.cell_index(kind)


def generators(H: SymGroup, tr: Trace):
    with tr.span("symmetry.generators_s"):
        gens = H.generators
    tr.add("symmetry.generators_total", len(gens))
    tr.maximum("symmetry.generators_max", len(gens))
    return gens


def invariant(m: FlagMap, H: SymGroup, j: int, tr: Trace, checked: set) -> list:
    """``enumerate_invariant_cornerations`` with its group steps split out.

    The library caches the symmetry check privately, so the first call on
    each group repeats the work timed here under ``symmetry.check_s``.
    """
    if tr.enabled:
        generators(H, tr)
        if id(H) not in checked:
            checked.add(id(H))
            with tr.span("symmetry.check_s"):
                H.is_map_symmetry_group()
    with tr.span("cornerations.invariant_s"):
        found = enumerate_invariant_cornerations(m, H, j)
    tr.add("cornerations.invariant_calls")
    tr.add("cornerations.solutions", len(found))
    return found


def sweep(m: FlagMap, j: int, tr: Trace, checked: set) -> list:
    """Transitive-corneration sweep; traced, it is rebuilt from public steps."""
    if not tr.enabled:
        return enumerate_transitive_cornerations(m, j)
    before = peak_rss_mb()
    with tr.span("symmetry.aut_s"):
        A = automorphism_group(m)
    tr.values["symmetry.aut_order"] = A.order
    tr.values["symmetry.aut_rss_delta_mb"] += peak_rss_mb() - before
    with tr.span("symmetry.subgroups_s"):
        subgroups = subgroups_up_to_index(A, 4)
    tr.add("symmetry.subgroups", len(subgroups))
    found = {}
    for H in subgroups:
        for L in invariant(m, H, j, tr, checked):
            found.setdefault(L.key(), L)
    tr.add("cornerations.distinct", len(found))
    records = []
    for key in sorted(found):
        L = found[key]
        with tr.span("cornerations.stabilizer_s"):
            aut_L = corneration_stabilizer(A, L)
        generators(aut_L, tr)
        with tr.span("cornerations.transitive_s"):
            transitive = is_transitive_on_corners(aut_L, L)
        symmetric = False
        if transitive:
            with tr.span("symmetry.orbits_s"):
                symmetric = len(orbits_on(aut_L, DART)) == 1
        tr.add("cornerations.transitive", transitive)
        tr.add("cornerations.symmetric", symmetric)
        records.append(TransitiveCornerationRecord(L, aut_L, transitive, symmetric))
    return records


def witness_corners(L, kind: str) -> list:
    """The new-corner set K of a construction, as the split-graph claim builds it."""
    if kind == "A":
        return list(j_complement(L).corners)
    if kind == "B":
        return all_j_corners(L.map, 1)
    interior = kind == "Ci"
    wedges = set()
    for c in L.corners:
        wedges.update(c.interior_boundary_wedges if interior else c.exterior_boundary_wedges)
    return [corner_of_wedge(L.map, w) for w in sorted(wedges)]


def classify_letter(m, r, tr: Trace):
    with tr.span("symtype.classify_s"):
        letter = classify(m, r.aut, r.corneration).letter
    tr.add("symtype.classified")
    return letter


def built(S, tr: Trace):
    tr.add("splitgraph.graphs")
    tr.add("splitgraph.edges", S.n_edges)
    return S


# -- workloads ---------------------------------------------------------------
#
# Each workload has a set-up (its input maps, built from the seed), a run
# (the timed part) and a summary of the run's result that does not depend
# on flag labels, so one committed summary holds for every seed.


def setup_verify_suite(seed: int, tr: Trace):
    return None


def run_verify_suite(_, tr: Trace):
    if not tr.enabled:
        out = io.StringIO()
        with contextlib.redirect_stdout(out):
            code = cli_main(["verify", "suite"])
        return code, out.getvalue()
    # Shared suite sweeps are charged to the first claim that needs them.
    ctx = SuiteContext()
    with tr.span("builders.build_s"):
        ctx.maps
    results = []
    for name, _ in CLAIMS:
        with tr.span(f"verify.{name}_s"):
            result = run_claim(name, ctx)
        tr.add(f"verify.{name}.instances", result.instances)
        results.append(result)
    report = VerificationReport(tuple(results))
    return (0 if report.ok else 1), report.text() + "\n"


def summarize_verify_suite(_, result) -> dict:
    code, text = result
    return {"exit_code": code, "report": _ELAPSED.sub(")", text)}


def setup_sweep_torus(seed: int, tr: Trace):
    with tr.span("builders.build_s"):
        m = build_torus_grid(8, 8)
    return relabel(m, seed)


def run_sweep_torus(m, tr: Trace):
    warm_cell_tables(m, tr)
    records = sweep(m, 1, tr, set())
    graphs = []
    for r in records:
        if r.transitive:
            letter = classify_letter(m, r, tr)
            with tr.span("splitgraph.build_s"):
                S = built(graph_A(r.corneration), tr)
            graphs.append((letter, S))
    return records, graphs


def summarize_sweep_torus(m, result) -> dict:
    records, graphs = result
    summary = sweep_summary(records)
    summary["classes"] = sorted(letter or "-" for letter, _ in graphs)
    summary["split_graphs"] = sorted(
        (["A", S.n_vertices, S.n_edges, S.regular_valence(), is_locally_connected(S)[0]]
         for _, S in graphs),
        key=str,
    )
    return {"1": summary}


def sweep_summary(records) -> dict:
    return {
        "cornerations": len(records),
        "stabilizer_orders": sorted(r.aut.order for r in records),
        "transitive": sum(r.transitive for r in records),
        "symmetric": sum(r.symmetric for r in records),
    }


OPPOSITE_WIDTHS = (1, 2, 3)


def setup_sweep_opposite(seed: int, tr: Trace):
    with tr.span("builders.build_s"):
        t = build_torus_grid(6, 6)
    with tr.span("operators.opposite_s"):
        m = opposite(t)
    return relabel(m, seed)


def run_sweep_opposite(m, tr: Trace):
    warm_cell_tables(m, tr)
    q = 8  # the opposite of a 4-valent map is 8-valent
    checked = set()
    out = {}
    for j in OPPOSITE_WIDTHS:
        records = sweep(m, j, tr, checked)
        analyses = [analyse(m, r, q, j, tr) for r in records if r.transitive]
        out[j] = (records, analyses)
    return out


def analyse(m, r, q: int, j: int, tr: Trace) -> dict:
    """The downstream analysis users run on one transitive record."""
    L = r.corneration
    facts = {"letter": classify_letter(m, r, tr) if j == 1 else None}
    with tr.span("splitgraph.cubic_filter_s"):
        facts["cubic"] = cubic_filter(m, L)
    facts["graphs"] = []
    for kind in predicted_local_connectivity(q, j):
        with tr.span("splitgraph.build_s"):
            S = built(build_construction(L, kind), tr)
        with tr.span("splitgraph.local_connectivity_s"):
            lc, _ = is_locally_connected(S)
        with tr.span("splitgraph.vertex_transitive_s"):
            vt = verify_vertex_transitive(S, r.aut, witness_corners(L, kind))
        with tr.span("splitgraph.encode_s"):
            codes = (to_graph6(S), to_sparse6(S))
        facts["graphs"].append((kind, S, lc, vt, codes))
    with tr.span("fileio.roundtrip_s"):
        text = write_corneration(L)
        facts["roundtrip"] = parse_corneration(text, m) == L
    tr.add("fileio.bytes", len(text.encode()))
    return facts


def summarize_sweep_opposite(m, result) -> dict:
    out = {}
    for j, (records, analyses) in result.items():
        summary = sweep_summary(records)
        summary["classes"] = sorted(a["letter"] or "-" for a in analyses)
        summary["cubic"] = sorted(
            [e.construction, e.measured_valence, e.predicted_valence, e.cubic]
            for a in analyses
            for e in a["cubic"].entries
        )
        summary["split_graphs"] = sorted(
            ([kind, S.n_vertices, S.n_edges, S.regular_valence(), lc, vt]
             for a in analyses for kind, S, lc, vt, _ in a["graphs"]),
            key=str,
        )
        summary["encodings_decoded"] = sum(
            encodings_match(S, codes) for a in analyses for _, S, _, _, codes in a["graphs"]
        )
        summary["roundtrips"] = sum(a["roundtrip"] for a in analyses)
        out[str(j)] = summary
    return out


COVER_WIDTHS = (1, 2)


def setup_cover_trivial(seed: int, tr: Trace):
    with tr.span("builders.build_s"):
        m = build_antiprism(8)
    m = relabel(m, seed)
    return m, SymGroup(m, (tuple(m.flags()),))


def run_cover_trivial(inputs, tr: Trace):
    m, H = inputs
    warm_cell_tables(m, tr)
    checked = set()
    out = {}
    for j in COVER_WIDTHS:
        found = invariant(m, H, j, tr, checked)
        if tr.enabled:
            tr.add("cornerations.distinct", len({L.corners for L in found}))
        out[j] = found
    return out


def summarize_cover_trivial(inputs, result) -> dict:
    m, _ = inputs
    out = {}
    for j, found in result.items():
        # Every corner lies at one vertex, so with the trivial group the
        # cornerations are all combinations of per-vertex local covers.
        product = math.prod(
            local_cover_count(valence(m, v.id), j) for v in cells(m, VERTEX)
        )
        sample = found[:: max(1, len(found) // 64)] + found[-1:]
        out[str(j)] = {
            "solutions": len(found),
            "local_cover_product": product,
            "distinct": len({L.corners for L in found}),
            "sample_valid": all(
                is_corneration(m, L.corners).ok and L.width == j for L in sample
            ),
        }
    return out


def local_cover_count(q: int, j: int) -> int:
    """Ways to pair the q rotation positions at a vertex into width-j corners."""

    def count(free: frozenset) -> int:
        if not free:
            return 1
        i = min(free)
        return sum(
            count(free - {i, p})
            for p in {(i + j) % q, (i - j) % q}
            if p != i and p in free
        )

    return count(frozenset(range(q)))


# -- graph6 / sparse6 decoding, to check the encoders' output ---------------
#
# Decoded here rather than with networkx, so the check does not depend on the
# library that the encoders may use.


def _six_bit_values(code: str) -> list:
    return [ord(ch) - 63 for ch in code]


def _header(data: list) -> tuple:
    """Vertex count and the rest of the data, per the graph6 size field."""
    if data[0] < 63:
        return data[0], data[1:]
    if data[1] < 63:
        return (data[1] << 12) | (data[2] << 6) | data[3], data[4:]
    n = 0
    for x in data[2:8]:
        n = (n << 6) | x
    return n, data[8:]


def _bits(data: list) -> list:
    return [(x >> (5 - i)) & 1 for x in data for i in range(6)]


def decode_graph6(code: str) -> tuple:
    n, data = _header(_six_bit_values(code))
    bits = _bits(data)
    edges = set()
    k = 0
    for v in range(1, n):
        for u in range(v):
            if bits[k]:
                edges.add((u, v))
            k += 1
    return n, edges


def decode_sparse6(code: str) -> tuple:
    if not code.startswith(":"):
        raise ValueError("sparse6 code must start with ':'")
    n, data = _header(_six_bit_values(code[1:]))
    bits = _bits(data)
    k = max(1, (n - 1).bit_length())
    edges = set()
    v = 0
    pos = 0
    while pos + 1 + k <= len(bits):
        b = bits[pos]
        x = int("".join(map(str, bits[pos + 1 : pos + 1 + k])), 2)
        pos += 1 + k
        if b:
            v += 1
        if x >= n or v >= n:
            break
        if x > v:
            v = x
        else:
            edges.add((x, v))
    return n, edges


def encodings_match(S, codes) -> bool:
    """Both codes decode to the split graph on its sorted vertex order."""
    pos = {key: i for i, key in enumerate(S.vertices)}
    expected = {tuple(sorted(pos[key] for key in pair)) for pair in S.edges}
    graph6, sparse6 = codes
    return all(
        decoded == (S.n_vertices, expected)
        for decoded in (decode_graph6(graph6), decode_sparse6(sparse6))
    )


# Workload name -> (set-up, run, summary), in the order of BENCHMARK.json.
WORKLOADS = {
    "verify-suite": (setup_verify_suite, run_verify_suite, summarize_verify_suite),
    "sweep-torus": (setup_sweep_torus, run_sweep_torus, summarize_sweep_torus),
    "sweep-opposite": (setup_sweep_opposite, run_sweep_opposite, summarize_sweep_opposite),
    "cover-trivial": (setup_cover_trivial, run_cover_trivial, summarize_cover_trivial),
}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--trace", action="store_true")
    parser.add_argument("--setup-only", action="store_true")
    args = parser.parse_args(argv)

    src = os.path.join(ROOT, "src", "")
    if not os.path.abspath(cornmaps.__file__).startswith(src):
        print(f"cornmaps was imported from {cornmaps.__file__}, not from {src}", file=sys.stderr)
        return 2

    setup, run, summarize = WORKLOADS[args.workload]
    tr = Trace(args.trace)
    inputs = setup(args.seed, tr)
    setup_s = time.perf_counter() - _T_START
    out = {"setup_s": setup_s}
    if not args.setup_only:
        usage0 = resource.getrusage(resource.RUSAGE_SELF)
        start = time.perf_counter()
        result = run(inputs, tr)
        wall_s = time.perf_counter() - start
        usage1 = resource.getrusage(resource.RUSAGE_SELF)
        out.update(
            wall_s=wall_s,
            cpu_s=(usage1.ru_utime - usage0.ru_utime) + (usage1.ru_stime - usage0.ru_stime),
            peak_rss_mb=usage1.ru_maxrss / 1024,
            summary=summarize(inputs, result),
        )
        if args.trace:
            solutions = tr.values["cornerations.solutions"]
            if solutions:
                tr.values["cornerations.distinct_ratio"] = tr.values["cornerations.distinct"] / solutions
            out["layers"] = {
                name: {"value": tr.values[name], "unit": unit} for name, unit in LAYER_METRICS
            }
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
