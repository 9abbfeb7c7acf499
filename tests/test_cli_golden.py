"""The CLI's full stdout, byte for byte, against golden transcripts.

Each file under ``tests/data/cli/`` is a transcript: a ``$ cornmaps ...``
line per command, then its stdout.  The maps are torus 4x4 and its
opposite, and the cornerations are the width-1 records of ``corn
enumerate``, written with ``--out-dir``; the ``split`` transcripts also
take the width-2 records of the opposite, so that every construction
appears, each with ``--dot`` and ``--graph6``.  The ``corn-enumerate``
transcripts print every record of every width with ``--emit``, which
pins the record order and each corneration file.  Running this file as a script
rewrites the transcripts from the current code, so do that only on a
commit whose output is known to be right.
"""

import contextlib
import io
import sys
from pathlib import Path

import pytest

from cornmaps.cli import main
from cornmaps.core import uniform_valence
from cornmaps.fileio import parse_map
from cornmaps.splitgraph import predicted_valences

GOLDEN = Path(__file__).parent / "data" / "cli"
MAPS = ("torus44", "opp44")
KINDS = ("flags", "vertices", "edges", "faces", "darts", "wedges")
GROUPS = ("aut", "corn-classify", "symtype-dot", "split", "corn-enumerate")
SPLIT_WIDTHS = {"torus44": (1,), "opp44": (1, 2)}
ENUMERATE_WIDTHS = {"torus44": (1, 2), "opp44": (1, 2, 3, 4)}


def _stdout(*argv) -> str:
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        code = main(list(argv))
    assert code == 0, argv
    return out.getvalue()


def _commands(name: str, group: str, directory: Path) -> list[tuple]:
    """The argv lists of one transcript, map files named as in ``directory``."""
    map_file = directory / f"{name}.map"
    if not map_file.exists():
        torus = directory / "torus44.map"
        _stdout("build", "torus", "--rows", "4", "--cols", "4", "-o", str(torus))
        if name == "opp44":
            map_file.write_text(_stdout("op", "opp", str(torus)), encoding="utf-8")
    if group == "corn-enumerate":
        return [("corn", "enumerate", map_file, "--j", str(j), "--emit") for j in ENUMERATE_WIDTHS[name]]
    files = _records(map_file, directory / f"{name}-corns", 1)
    if group == "aut":
        return [("aut", map_file, "--orbits", k, "--subgroups", "2") for k in KINDS]
    if group == "corn-classify":
        return [("corn", "classify", map_file, f) for f in files]
    if group == "symtype-dot":
        return [("symtype", map_file, f, "--dot") for f in files]
    q = uniform_valence(parse_map(map_file.read_text(encoding="utf-8")))
    return [
        ("split", map_file, f, "--kind", kind, "--dot", "--graph6", "--verify")
        for j in SPLIT_WIDTHS[name]
        for f in _records(map_file, directory / (f"{name}-corns" if j == 1 else f"{name}-corns-j{j}"), j)
        for kind in predicted_valences(q, j)
    ]


def _records(map_file: Path, corns: Path, j: int) -> list[Path]:
    """The width-j records of ``corn enumerate``, written once into ``corns``."""
    if not corns.exists():
        _stdout("corn", "enumerate", str(map_file), "--j", str(j), "--out-dir", str(corns))
    return sorted(corns.glob("*.corn"), key=lambda p: int(p.stem.removeprefix("corneration")))


def transcript(name: str, group: str, directory: Path) -> str:
    lines = []
    for argv in _commands(name, group, directory):
        shown = " ".join(a.relative_to(directory).as_posix() if isinstance(a, Path) else a for a in argv)
        lines.append(f"$ cornmaps {shown}\n")
        lines.append(_stdout(*map(str, argv)))
    return "".join(lines)


@pytest.mark.parametrize("group", GROUPS)
@pytest.mark.parametrize("name", MAPS)
def test_cli_output_matches_golden_transcript(tmp_path_factory, name, group):
    directory = tmp_path_factory.getbasetemp() / "cli-golden"
    directory.mkdir(exist_ok=True)
    expected = (GOLDEN / f"{name}-{group}.txt").read_text(encoding="utf-8")
    assert transcript(name, group, directory) == expected


if __name__ == "__main__":
    import tempfile

    GOLDEN.mkdir(parents=True, exist_ok=True)
    with tempfile.TemporaryDirectory() as tmp:
        for name in MAPS:
            for group in GROUPS:
                path = GOLDEN / f"{name}-{group}.txt"
                path.write_text(transcript(name, group, Path(tmp)), encoding="utf-8")
                print(f"wrote {path}", file=sys.stderr)
