import json
import re
from pathlib import Path

import pytest

from cornmaps.cli import main


def run(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_build_and_info(tmp_path, capsys):
    target = tmp_path / "t.map"
    code, out, err = run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(target))
    assert code == 0
    assert "flags 128" in target.read_text()
    code, out, err = run(capsys, "info", str(target))
    assert code == 0
    assert "vertices: 16" in out
    assert "genus: 1" in out


def test_build_antiprism_stdout(capsys):
    code, out, err = run(capsys, "build", "antiprism", "--n", "3")
    assert code == 0
    assert out.startswith("mapfile 1")
    assert "flags 48" in out


def test_op_roundtrip(tmp_path, capsys):
    target = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(target))
    code, out, err = run(capsys, "op", "petrie", str(target))
    assert code == 0
    assert out.startswith("mapfile 1")


def test_op_hole_components(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    outdir = tmp_path / "parts"
    code, out, err = run(capsys, "op", "hole", str(source), "--j", "2", "--out-dir", str(outdir))
    assert code == 0
    # every vertex splits in two; the pieces fall into eight 2-valent maps
    files = sorted(outdir.glob("*.map"))
    assert len(files) == 8
    from cornmaps.fileio import parse_map

    for f in files:
        parse_map(f.read_text())


def test_op_hole_needs_width(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    code, out, err = run(capsys, "op", "hole", str(source))
    assert code == 2


def test_op_invalid_width_exits_2(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    code, out, err = run(capsys, "op", "hole", str(source), "--j", "9")
    assert code == 2
    assert "error" in err


def test_aut_report(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    code, out, err = run(capsys, "aut", str(source), "--orbits", "faces")
    assert code == 0
    assert "order: 128" in out
    assert "reflexible: True" in out
    assert "orbits on faces: 1" in out


def test_corn_enumerate_deterministic(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    code1, out1, _ = run(capsys, "corn", "enumerate", str(source), "--j", "1", "--symmetric", "--emit")
    code2, out2, _ = run(capsys, "corn", "enumerate", str(source), "--j", "1", "--symmetric", "--emit")
    assert code1 == code2 == 0
    assert out1 == out2
    assert "found 4" in out1


def test_corn_enumerate_takes_no_size_bound(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["corn", "enumerate", "--help"])
    assert excinfo.value.code == 0
    assert "bound" not in capsys.readouterr().out
    for option in ("--index-bound", "--element-bound"):
        with pytest.raises(SystemExit) as excinfo:
            main(["corn", "enumerate", "x.map", "--j", "1", option, "4"])
        assert excinfo.value.code == 2


def test_corn_classify_and_symtype_and_split(tmp_path, capsys):
    source = tmp_path / "t.map"
    run(capsys, "build", "torus", "--rows", "4", "--cols", "4", "-o", str(source))
    corndir = tmp_path / "corns"
    run(
        capsys,
        "corn", "enumerate", str(source), "--j", "1", "--symmetric",
        "--out-dir", str(corndir),
    )
    cornfile = corndir / "corneration0.corn"
    assert cornfile.exists()

    code, out, _ = run(capsys, "corn", "classify", str(source), str(cornfile))
    assert code == 0
    assert "transitive: True" in out
    assert "symmetric: True" in out

    code, out, _ = run(capsys, "symtype", str(source), str(cornfile))
    assert code == 0
    assert "row: " in out

    code, out, _ = run(capsys, "split", str(source), str(cornfile), "--kind", "A", "--verify")
    assert code == 0
    assert "verify: PASS" in out


def test_usage_error_exit_code():
    with pytest.raises(SystemExit) as excinfo:
        main(["op", "frobnicate", "x.map"])
    assert excinfo.value.code == 2


def test_missing_file_exit_code(capsys):
    code, out, err = run(capsys, "info", "/nonexistent/nowhere.map")
    assert code == 2


def test_verify_suite_report_matches_the_benchmark_summary(capsys):
    """The suite report, its elapsed times stripped, against the benchmark's
    expected ``verify-suite`` summary (read only)."""
    expected = json.loads(
        (Path(__file__).parent.parent / "bench" / "expected" / "verify-suite.json").read_text()
    )
    code, out, _ = run(capsys, "verify", "suite")
    report = re.sub(r", \d+\.\d+s\)", ")", out)
    assert {"exit_code": code, "report": report} == expected
