"""Command line front end.

Subcommands: build, info, op, aut, corn, symtype, split, verify.  All
output is deterministic for fixed inputs and flags; searches use canonical
orders throughout, so runs diff cleanly.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import cornerations as corn
from . import splitgraph as sg
from . import symtype as st
from .builders import build_antiprism, build_torus_grid
from .core import (
    DART,
    FACE,
    VERTEX,
    cells,
    euler_and_genus,
    face_bipartition,
    face_length,
    skeleton,
    uniform_valence,
    valence,
)
from .errors import CornMapsError
from .fileio import export_dot, parse_corneration, parse_map, write_corneration, write_map
from .operators import dual, hole, opposite, petrie
from .symmetry import (
    automorphism_group,
    is_face_reflexible,
    is_half_reflexible,
    is_reflexible,
    orbits_on,
    subgroups_up_to_index,
)
from .verify import run_suite


def _read_text(path: str) -> str:
    if path == "-":
        return sys.stdin.read()
    return Path(path).read_text(encoding="utf-8")


def _write_text(path, text: str) -> None:
    if path is None or path == "-":
        sys.stdout.write(text)
    else:
        Path(path).write_text(text, encoding="utf-8")


def _load_map(path: str):
    return parse_map(_read_text(path))


def _cmd_build(args) -> int:
    if args.what == "torus":
        m = build_torus_grid(args.rows, args.cols)
    else:
        m = build_antiprism(args.n)
    _write_text(args.output, write_map(m))
    return 0


def _cmd_info(args) -> int:
    m = _load_map(args.map)
    eg = euler_and_genus(m)
    sk = skeleton(m)
    qs = sorted({valence(m, v) for v in sk.vertices})
    ps = sorted({face_length(m, f.id) for f in cells(m, FACE)})
    print(f"name: {m.name or '-'}")
    print(f"flags: {m.n_flags}")
    print(f"vertices: {len(sk.vertices)}")
    print(f"edges: {len(sk.edges)}")
    print(f"faces: {len(cells(m, FACE))}")
    print(f"valences: {qs}")
    print(f"face lengths: {ps}")
    print(f"euler characteristic: {eg.chi}")
    print(f"orientable: {eg.orientable}")
    print(f"genus: {eg.genus}")
    print(f"face bipartite: {face_bipartition(m) is not None}")
    print(f"simple skeleton: {sk.is_simple()}")
    return 0


def _cmd_op(args) -> int:
    m = _load_map(args.map)
    if args.operator == "dual":
        out = [dual(m)]
    elif args.operator == "petrie":
        out = [petrie(m)]
    elif args.operator == "opp":
        out = [opposite(m)]
    else:
        if args.j is None:
            print("error: the hole operator needs --j", file=sys.stderr)
            return 2
        result = hole(m, args.j)
        out = list(result.maps)
    if args.out_dir:
        directory = Path(args.out_dir)
        directory.mkdir(parents=True, exist_ok=True)
        for i, component in enumerate(out):
            stem = component.name or f"component{i}"
            (directory / f"{stem.replace('/', '_')}.map").write_text(
                write_map(component), encoding="utf-8"
            )
        print(f"wrote {len(out)} map(s) to {directory}")
    else:
        for component in out:
            sys.stdout.write(write_map(component))
    return 0


def _cmd_aut(args) -> int:
    m = _load_map(args.map)
    A = automorphism_group(m)
    print(f"order: {A.order}")
    print(f"reflexible: {is_reflexible(m)}")
    G = is_face_reflexible(m)
    print(f"face-reflexible: {G is not None}")
    if G is not None:
        print(f"half-reflexible subgroup order: {G.order}")
        print(f"half-reflexible check: {is_half_reflexible(m, G)}")
    if args.orbits:
        parts = orbits_on(A, args.orbits)
        print(f"orbits on {args.orbits}: {len(parts)}")
        for part in parts:
            print("  " + " ".join(str(x) for x in part))
    if args.subgroups:
        subs = subgroups_up_to_index(A, args.subgroups)
        print(f"subgroups of index <= {args.subgroups}: {len(subs)}")
        for H in subs:
            print(f"  order {H.order} (index {A.order // H.order})")
    return 0


def _cmd_corn(args) -> int:
    m = _load_map(args.map)
    if args.action == "enumerate":
        if args.j is None:
            print("error: enumeration needs --j", file=sys.stderr)
            return 2
        records = corn.enumerate_transitive_cornerations(m, args.j)
        if args.transitive:
            records = [r for r in records if r.transitive]
        if args.symmetric:
            records = [r for r in records if r.symmetric]
        print(f"found {len(records)} corneration(s)")
        for i, r in enumerate(records):
            print(
                f"# {i}: corners={len(r.corneration)} aut_order={r.aut.order} "
                f"transitive={r.transitive} symmetric={r.symmetric}"
            )
            if args.out_dir:
                directory = Path(args.out_dir)
                directory.mkdir(parents=True, exist_ok=True)
                (directory / f"corneration{i}.corn").write_text(
                    write_corneration(r.corneration), encoding="utf-8"
                )
            elif args.emit:
                sys.stdout.write(write_corneration(r.corneration))
        return 0
    L = parse_corneration(_read_text(args.corneration), m)
    print(f"corners: {len(L)}")
    print(f"width: {L.width if L.width is not None else 'mixed'}")
    A = automorphism_group(m)
    aut_L = corn.corneration_stabilizer(A, L)
    print(f"stabilizer order: {aut_L.order} (index {A.order // aut_L.order})")
    transitive = corn.is_transitive_on_corners(aut_L, L)
    print(f"transitive: {transitive}")
    print(f"symmetric: {transitive and len(orbits_on(aut_L, DART)) == 1}")
    if L.width is not None:
        classes = {
            corn.local_corneration(L, v.id).classification for v in cells(m, VERTEX)
        }
        print(f"local cornerations: {sorted(classes)}")
    if L.width == 1:
        report = corn.face_patterns(L)
        print(f"face patterns: {sorted(report.letters)}")
        print(f"configuration: {report.configuration or 'Other'}")
    return 0


def _cmd_symtype(args) -> int:
    m = _load_map(args.map)
    L = parse_corneration(_read_text(args.corneration), m)
    A = automorphism_group(m)
    G = corn.corneration_stabilizer(A, L)
    result = st.classify(m, G, L)
    print(f"row: {result.letter or 'Unclassified'}")
    a = result.attributes
    print(
        f"attributes: nodes={a.node_count} v_orbits={a.v_orbits} "
        f"e_orbits={a.e_orbits} f_orbits={a.f_orbits} "
        f"patterns={''.join(sorted(a.patterns))} local={a.local_type}"
    )
    if args.dot:
        sys.stdout.write(export_dot(result.diagram))
    return 0


def _cmd_split(args) -> int:
    m = _load_map(args.map)
    L = parse_corneration(_read_text(args.corneration), m)
    S = sg.build_construction(L, args.kind)
    valence_ = S.regular_valence()
    lc, witness = sg.is_locally_connected(S)
    print(f"vertices: {S.n_vertices}")
    print(f"edges: {S.n_edges}")
    print(f"valence: {valence_ if valence_ is not None else 'irregular'}")
    print(f"connected: {S.is_connected()}")
    print(f"locally connected: {lc}" + (f" (fails at vertex {witness})" if not lc else ""))
    if args.dot:
        sys.stdout.write(export_dot(S))
    if args.graph6:
        print(sg.to_graph6(S))
    if args.verify:
        q = uniform_valence(m)
        j = L.width
        predicted = sg.predicted_valences(q, j, sg.old_degree_deficit(L)).get(args.kind)
        expected_lc = sg.predicted_local_connectivity(q, j).get(args.kind)
        ok = (valence_ == predicted) and (lc == expected_lc)
        print(f"expected valence: {predicted}, expected locally connected: {expected_lc}")
        print(f"verify: {'PASS' if ok else 'FAIL'}")
        return 0 if ok else 1
    return 0


def _cmd_verify(args) -> int:
    report = run_suite(census_map_path=args.census_map)
    print(report.text())
    return 0 if report.ok else 1


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cornmaps",
        description="corner structures and split graphs on maps encoded as flag systems",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    p_build = sub.add_parser("build", help="construct a named example map")
    build_sub = p_build.add_subparsers(dest="what", required=True)
    p_torus = build_sub.add_parser("torus", help="quadrangulated torus grid")
    p_torus.add_argument("--rows", type=int, required=True)
    p_torus.add_argument("--cols", type=int, required=True)
    p_torus.add_argument("-o", "--output", default=None)
    p_torus.set_defaults(func=_cmd_build)
    p_anti = build_sub.add_parser("antiprism", help="n-antiprism on the sphere")
    p_anti.add_argument("--n", type=int, required=True)
    p_anti.add_argument("-o", "--output", default=None)
    p_anti.set_defaults(func=_cmd_build)

    p_info = sub.add_parser("info", help="cell counts and topology of a map")
    p_info.add_argument("map")
    p_info.set_defaults(func=_cmd_info)

    p_op = sub.add_parser("op", help="apply an operator to a map")
    p_op.add_argument("operator", choices=("dual", "petrie", "opp", "hole"))
    p_op.add_argument("map")
    p_op.add_argument("--j", type=int, default=None, help="hole width")
    p_op.add_argument("--out-dir", default=None)
    p_op.set_defaults(func=_cmd_op)

    p_aut = sub.add_parser("aut", help="symmetry group and reflexibility")
    p_aut.add_argument("map")
    p_aut.add_argument("--orbits", default=None, help="flags or a cell kind")
    p_aut.add_argument("--subgroups", type=int, default=None, help="index bound")
    p_aut.set_defaults(func=_cmd_aut)

    p_corn = sub.add_parser("corn", help="enumerate or classify cornerations")
    corn_sub = p_corn.add_subparsers(dest="action", required=True)
    p_enum = corn_sub.add_parser("enumerate")
    p_enum.add_argument("map")
    p_enum.add_argument("--j", type=int, default=None)
    p_enum.add_argument("--transitive", action="store_true")
    p_enum.add_argument("--symmetric", action="store_true")
    p_enum.add_argument("--emit", action="store_true", help="print corneration files")
    p_enum.add_argument("--out-dir", default=None)
    p_enum.set_defaults(func=_cmd_corn)
    p_classify = corn_sub.add_parser("classify")
    p_classify.add_argument("map")
    p_classify.add_argument("corneration")
    p_classify.set_defaults(func=_cmd_corn)

    p_st = sub.add_parser("symtype", help="symmetry-type graph of a corneration")
    p_st.add_argument("map")
    p_st.add_argument("corneration")
    p_st.add_argument("--dot", action="store_true")
    p_st.set_defaults(func=_cmd_symtype)

    p_split = sub.add_parser("split", help="split-graph constructions")
    p_split.add_argument("map")
    p_split.add_argument("corneration")
    p_split.add_argument("--kind", choices=("A", "B", "Ci", "Cx"), required=True)
    p_split.add_argument("--dot", action="store_true")
    p_split.add_argument("--graph6", action="store_true")
    p_split.add_argument("--verify", action="store_true")
    p_split.set_defaults(func=_cmd_split)

    p_verify = sub.add_parser("verify", help="run the verification suite")
    p_verify.add_argument("what", choices=("suite",))
    p_verify.add_argument("--census-map", default=None)
    p_verify.set_defaults(func=_cmd_verify)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CornMapsError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except FileNotFoundError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
