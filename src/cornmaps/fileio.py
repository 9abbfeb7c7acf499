"""Plain-text serialization of maps and cornerations, plus DOT export.

Map files::

    mapfile 1
    name <label>          (optional)
    flags <n>
    r0: i0 i1 ...
    r1: ...
    r2: ...

Corneration files::

    cornfile 1
    map <label>           (optional)
    j <width or "mixed">
    corner: dA dB         (one line per corner, canonical dart ids)

Both formats round-trip bit-exactly; dart ids are the minimum flag of the
dart cell, so files carry their own numbering.
"""

from __future__ import annotations

from typing import Union

from .core import FlagMap, Skeleton, _require_map, validate
from .cornerations import (
    Corneration,
    _corner_numbering,
    _mask_of,
    _pair_number,
    _require_corneration,
    _require_cover,
)
from .errors import CornerationMismatch, InvalidMapError, MapFormatError, UnsupportedExport
from .splitgraph import SplitGraph
from .symtype import Diagram


def write_map(m: FlagMap) -> str:
    _require_map(m)
    lines = ["mapfile 1"]
    if m.name:
        lines.append(f"name {m.name}")
    lines.append(f"flags {m.n_flags}")
    for label, perm in zip(("r0", "r1", "r2"), m.involutions()):
        lines.append(f"{label}: " + " ".join(str(x) for x in perm))
    return "\n".join(lines) + "\n"


def _content_lines(text: str) -> list[str]:
    if not isinstance(text, str):
        raise MapFormatError(f"file text must be a str, got {type(text).__name__}")
    out = []
    for raw in text.splitlines():
        line = raw.strip()
        if line and not line.startswith("#"):
            out.append(line)
    return out


def parse_map(text: str) -> FlagMap:
    """Parse a map file; the result is validated against the map axioms."""
    lines = _content_lines(text)
    if not lines or lines[0].split() != ["mapfile", "1"]:
        raise MapFormatError("missing 'mapfile 1' header")
    lines = lines[1:]
    name = None
    if lines and lines[0].startswith("name "):
        name = lines[0][5:].strip()
        lines = lines[1:]
    if not lines or not lines[0].startswith("flags "):
        raise MapFormatError("missing 'flags <n>' line")
    try:
        n = int(lines[0].split()[1])
    except (IndexError, ValueError) as exc:
        raise MapFormatError("malformed flag count") from exc
    lines = lines[1:]
    perms = {}
    for expect in ("r0", "r1", "r2"):
        if not lines or not lines[0].startswith(f"{expect}:"):
            raise MapFormatError(f"missing '{expect}:' line")
        body = lines[0].split(":", 1)[1].split()
        try:
            perm = tuple(int(x) for x in body)
        except ValueError as exc:
            raise MapFormatError(f"non-integer image in {expect}") from exc
        perms[expect] = perm
        lines = lines[1:]
    if lines:
        raise MapFormatError(f"unexpected trailing line: {lines[0]!r}")
    try:
        m = FlagMap(n, perms["r0"], perms["r1"], perms["r2"], name=name)
    except ValueError as exc:
        raise MapFormatError(str(exc)) from exc
    report = validate(m)
    if not report.ok:
        first = report.violations[0]
        raise InvalidMapError(f"map file violates the axioms: {first.message}", report)
    return m


def write_corneration(L: Corneration) -> str:
    _require_corneration(L)
    lines = ["cornfile 1"]
    if L.map.name:
        lines.append(f"map {L.map.name}")
    j = L.width
    lines.append(f"j {j if j is not None else 'mixed'}")
    for _, (a, b) in L._keys():
        lines.append(f"corner: {a} {b}")
    return "\n".join(lines) + "\n"


def parse_corneration(text: str, m: FlagMap) -> Corneration:
    """Parse a corneration file and validate it against ``m``."""
    _require_map(m)
    lines = _content_lines(text)
    if not lines or lines[0].split() != ["cornfile", "1"]:
        raise MapFormatError("missing 'cornfile 1' header")
    lines = lines[1:]
    if lines and lines[0].startswith("map "):
        label = lines[0][4:].strip()
        if m.name and label != m.name:
            raise CornerationMismatch(f"corneration file names map {label!r}, got {m.name!r}")
        lines = lines[1:]
    if not lines or not lines[0].startswith("j "):
        raise MapFormatError("missing 'j <width>' line")
    declared = lines[0].split()[1]
    lines = lines[1:]
    dart_ids = {c.id for c in m.cells("dart")}
    numbering, numbers = _corner_numbering(m), set()
    for line in lines:
        if not line.startswith("corner:"):
            raise MapFormatError(f"unexpected line {line!r}")
        body = line.split(":", 1)[1].split()
        if len(body) != 2:
            raise MapFormatError(f"a corner needs two darts: {line!r}")
        try:
            d1, d2 = int(body[0]), int(body[1])
        except ValueError as exc:
            raise MapFormatError(f"non-integer dart id in {line!r}") from exc
        for d in (d1, d2):
            if d not in dart_ids:
                raise CornerationMismatch(f"dart {d} is not a dart of the map")
        try:
            numbers.add(_pair_number(m, (d1, d2), numbering))
        except ValueError as exc:
            raise CornerationMismatch(str(exc)) from exc
    L = Corneration._of_mask(m, _mask_of(m, numbers))
    _require_cover(L)
    if declared != "mixed":
        try:
            j = int(declared)
        except ValueError as exc:
            raise MapFormatError(f"malformed width {declared!r}") from exc
        if L.width != j:
            raise CornerationMismatch(f"declared width {j} but corners have width {L.width}")
    return L


# ---------------------------------------------------------------------------
# DOT export
# ---------------------------------------------------------------------------

_DIAGRAM_STYLES = {0: "dotted", 1: "solid", 2: "bold"}


def export_dot(obj: Union[Skeleton, Diagram, SplitGraph]) -> str:
    """Graphviz text for a skeleton, a diagram or a split graph.

    Diagrams draw nodes as boxes or ellipses, color classes 0/1/2 as
    dotted/solid/bold edges, and semiedges as stubs to point-shaped
    helper nodes.  Split graphs label edges old/new.
    """
    if isinstance(obj, Skeleton):
        return _skeleton_dot(obj)
    if isinstance(obj, Diagram):
        return _diagram_dot(obj)
    if isinstance(obj, SplitGraph):
        return _split_dot(obj)
    raise UnsupportedExport(f"cannot export {type(obj).__name__} to DOT")


def _skeleton_dot(sk: Skeleton) -> str:
    lines = ["graph skeleton {"]
    for v in sk.vertices:
        lines.append(f'  v{v} [label="{v}"];')
    for e in sk.edges:
        a, b = sk.endpoints[e]
        lines.append(f'  v{a} -- v{b} [label="{e}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"


def _diagram_dot(d: Diagram) -> str:
    lines = ["graph diagram {"]
    for i, shape in enumerate(d.shapes):
        dot_shape = "box" if shape == "B" else "ellipse"
        lines.append(f"  n{i} [shape={dot_shape}];")
    stub = 0
    for color in range(3):
        style = _DIAGRAM_STYLES[color]
        for i, j in d.links(color):
            lines.append(f"  n{i} -- n{j} [style={style}];")
        for i in d.semiedges(color):
            lines.append(f"  s{stub} [shape=point];")
            lines.append(f"  n{i} -- s{stub} [style={style}];")
            stub += 1
    lines.append("}")
    return "\n".join(lines) + "\n"


def _split_dot(S: SplitGraph) -> str:
    pos = {key: i for i, key in enumerate(S.vertices)}
    lines = ["graph split {"]
    for key, i in pos.items():
        lines.append(f'  c{i} [label="{key[0]}:{key[1][0]}-{key[1][1]}"];')
    for pair in sorted(S.edges, key=sorted):
        a, b = sorted(pair)
        prov = S.edges[pair]
        label = "+".join(prov.kinds)
        lines.append(f'  c{pos[a]} -- c{pos[b]} [label="{label}"];')
    lines.append("}")
    return "\n".join(lines) + "\n"
