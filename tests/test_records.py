"""The result records: named tuples and slotted classes, imported without
``dataclasses``, with the equality, hash, defaults and checks their readers
rely on."""

import os
import subprocess
import sys

import pytest

import cornmaps
from cornmaps import cornerations as corn
from cornmaps.builders import build_torus_grid
from cornmaps.core import Cell, FlagMap, cells
from cornmaps.errors import InvalidDiagram, MalformedFlagSystem
from cornmaps.operators import OperatorResult
from cornmaps.symtype import Diagram
from cornmaps.verify import ClaimResult, VerificationReport


def _python(*args):
    src = os.path.dirname(os.path.dirname(cornmaps.__file__))
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    return subprocess.run(
        [sys.executable, *args], env=env, capture_output=True, text=True, timeout=120
    )


def test_importing_the_library_loads_no_dataclasses():
    code = "import sys, cornmaps, cornmaps.cli, cornmaps.verify; print('dataclasses' in sys.modules)"
    out = _python("-c", code)
    assert out.returncode == 0, out.stderr
    assert out.stdout.strip() == "False"


def test_python_dash_m_cornmaps_runs_the_cli():
    out = _python("-m", "cornmaps", "--help")
    assert out.returncode == 0, out.stderr
    assert "verify" in out.stdout


def test_a_corner_equals_and_hashes_as_its_key(torus44):
    c = corn.all_j_corners(torus44, 1)[0]
    assert hash(c) == hash(c.key()) == hash((c.vertex, c.darts))
    other = corn.Corner(c.vertex, c.darts, c.width + 1, not c.straight, frozenset(), frozenset())
    assert other == c and hash(other) == hash(c)
    assert corn.Corner(c.vertex + 1, c.darts, c.width, c.straight, frozenset(), frozenset()) != c
    assert c != c.key()


def test_a_flag_map_equals_and_hashes_as_its_fields_not_its_cache():
    m = build_torus_grid(4, 4)
    fresh = FlagMap(m.n_flags, m.r0, m.r1, m.r2, name=m.name)
    cells(m, "vertex")  # fills m's cache only
    assert m._cache and not fresh._cache
    assert m == fresh and hash(m) == hash(fresh) == hash((m.n_flags, m.r0, m.r1, m.r2, m.name))
    assert m != FlagMap(m.n_flags, m.r0, m.r1, m.r2, name="other")
    assert repr(fresh).startswith("FlagMap(n_flags=128, r0=(") and "_cache" not in repr(fresh)


def test_cells_and_diagrams_are_compared_and_hashed_by_their_fields(torus44):
    v = cells(torus44, "vertex")[0]
    assert v == Cell(v.kind, v.id, v.flags) and hash(v) == hash((v.kind, v.id, v.flags))
    assert v != Cell("face", v.id, v.flags) and len(v) == len(v.flags)
    assert repr(v) == f"Cell(kind='vertex', id=0, flags={v.flags!r})"
    d = Diagram(["B", "O"], [[1, 0]] * 3)  # kept as tuples
    assert d == Diagram(("B", "O"), ((1, 0),) * 3) and hash(d) == hash((d.shapes, d.sigma))


def test_frozen_records_refuse_assignment(torus44):
    records = (cells(torus44, "vertex")[0], corn.all_j_corners(torus44, 1)[0], torus44)
    for record, field in zip(records, ("id", "vertex", "n_flags")):
        before = getattr(record, field)
        with pytest.raises(AttributeError):
            setattr(record, field, 5)
        with pytest.raises(AttributeError):
            delattr(record, field)
        with pytest.raises(AttributeError):
            record.extra = 1
        assert getattr(record, field) == before


def test_record_defaults_and_mutable_records(torus44):
    assert OperatorResult(torus44, (torus44,), ()).width == 1
    result = ClaimResult("claim", 1, "passed", (), 0.5)
    assert result.note == ""
    assert result == ClaimResult("claim", 1, "passed", (), 0.5, note="")
    result.note = "changed"  # a claim result and a report stay mutable, and unhashable
    assert result.note == "changed" and result != ClaimResult("claim", 1, "passed", (), 0.5)
    report = VerificationReport((result,))
    with pytest.raises(TypeError):
        hash(report)
    assert report.ok and report == VerificationReport((result,))


@pytest.mark.parametrize(
    "args",
    [
        (0, (), (), ()),
        (4, (1, 0, 3), (1, 0, 3, 2), (1, 0, 3, 2)),
        (4, (1, 0, 3, 9), (1, 0, 3, 2), (1, 0, 3, 2)),
        (4, None, (1, 0, 3, 2), (1, 0, 3, 2)),
    ],
)
def test_bad_flag_map_input_still_raises_its_error(args):
    with pytest.raises(MalformedFlagSystem):
        FlagMap(*args)


@pytest.mark.parametrize(
    "shapes, sigma",
    [
        (None, ((0,), (0,), (0,))),
        ("X", ((0,), (0,), (0,))),
        ("B", ((0,), (0,))),
        ("BO", ((1, 1),) * 3),
    ],
)
def test_bad_diagram_input_still_raises_its_error(shapes, sigma):
    with pytest.raises(InvalidDiagram):
        Diagram(shapes, sigma)
