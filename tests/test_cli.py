"""End-to-end CLI behavior: exit codes, stream formats, determinism."""

import ast
import copy
import hashlib
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from importlib import resources
from pathlib import Path

import pytest
from hypothesis import given, settings, strategies as st

import scenemon
from scenemon import (
    builtin_asgs,
    parse_csg,
    read_scene_stream,
    scene_record,
    serialize_object_model,
    serialize_scene,
)
from scenemon.cli import main
from scenemon.errors import SceneValidationError
from scenemon.scenarios import build_bench_scene

from conftest import halted_obstacle_scene
from test_monitor import _topology


def _run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def _write_scene(tmp_path, om, name="scene.json", **kw):
    path = tmp_path / name
    path.write_text(json.dumps(scene_record(halted_obstacle_scene(om, **kw))))
    return str(path)


IN_LANE = ('asg "in-lane" { node ego: Vehicle; node lane: Lane; '
           'ego ego; edge ego isIn lane; }')


# -- gen -------------------------------------------------------------------


def test_gen_emits_full_stream(capsys):
    code, out, err = _run(capsys, "gen", "--scenario", "P1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 121
    first = json.loads(lines[0])
    assert list(first) == ["t", "ego", "nodes", "edges"]
    assert first["t"] == 0.0
    assert first["ego"] == "ego"


def test_gen_dt_override(capsys):
    code, out, _ = _run(capsys, "gen", "--scenario", "P1", "--dt", "1.0")
    assert code == 0
    assert len(out.splitlines()) == 13


def test_gen_refuses_a_dt_that_overflows_the_step_count(capsys):
    """A subnormal step makes duration / dt infinite: one error line and
    exit 2, not an OverflowError traceback."""
    code, out, err = _run(capsys, "gen", "--scenario", "P1", "--dt", "1e-320")
    assert (code, out) == (2, "")
    assert err == "scenemon: error: duration / dt must be finite, got dt=1e-320\n"


def test_gen_writes_each_scene_before_making_the_next(capsys, monkeypatch):
    """gen holds one scene at a time: each line is out before the next
    frame's scene is built."""
    import scenemon.scenarios

    out = io.StringIO()
    written_at_make = []
    make = scenemon.scenarios.make_csg

    def recording(*args, **kwargs):
        written_at_make.append(out.getvalue().count("\n"))
        return make(*args, **kwargs)

    monkeypatch.setattr(scenemon.scenarios, "make_csg", recording)
    monkeypatch.setattr("sys.stdout", out)
    assert main(["gen", "--scenario", "P2"]) == 0
    lines = out.getvalue().count("\n")
    assert written_at_make == list(range(lines))
    assert lines > 100


def test_gen_stops_at_the_first_scene_it_cannot_write(capsys):
    """A perturbation that puts a position beyond the float range is
    rejected at the first scene it reaches; the scenes before it are out."""
    code, out, err = _run(capsys, "gen", "--scenario", "P2", "--perturb", "rear_gap=1e308")
    assert code == 2
    assert err.startswith("scenemon: error: attribute position expects a finite Vec2")
    _, nominal, _ = _run(capsys, "gen", "--scenario", "P2")
    assert out and nominal.startswith(out)


def test_gen_names_the_perturbation_and_frame_it_cannot_place(capsys):
    """The rear_gap perturbation starts at t=3.0, the frame after the
    thirty written at dt 0.1; its message names the flag and the time."""
    code, out, err = _run(capsys, "gen", "--scenario", "P2", "--perturb", "rear_gap=1e308")
    assert code == 2
    assert err == ("scenemon: error: attribute position expects a finite Vec2, got (inf, 3.5), "
                   "at t=3.0 under --perturb rear_gap=1e+308\n")
    assert len(out.splitlines()) == 30
    assert json.loads(out.splitlines()[-1])["t"] == 2.9


def test_gen_rejects_malformed_perturbation(capsys):
    code, _, err = _run(capsys, "gen", "--scenario", "P1",
                        "--perturb", "rear_gap=abc")
    assert code == 2


@pytest.mark.parametrize("flag, value", [
    ("--dt", "nan"), ("--dt", "inf"), ("--dt", "0"),
    ("--perturb", "rear_gap=nan"), ("--perturb", "rear_gap=inf"),
    ("--perturb", "rear_gap=-inf"),
])
def test_gen_rejects_non_finite_flag_values(capsys, flag, value):
    code, out, err = _run(capsys, "gen", "--scenario", "P1", flag, value)
    assert code == 2
    assert f"argument {flag}: " in err
    assert out == ""


def test_gen_rejects_unknown_perturbation_key(capsys):
    code, _, err = _run(capsys, "gen", "--scenario", "P1",
                        "--perturb", "bogus=1")
    assert code == 2
    assert "scenemon: error:" in err


def test_gen_unknown_scenario_is_usage_error(capsys):
    code, _, _ = _run(capsys, "gen", "--scenario", "P7")
    assert code == 2


# -- check -----------------------------------------------------------------


def test_check_satisfied_exits_zero(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    code, out, _ = _run(capsys, "check", scene, "--builtin", "obstacle-ahead")
    assert code == 0
    (line,) = out.splitlines()
    assert json.loads(line)["result"] == "satisfied"


def test_check_violated_exits_one(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om, obstacle_speed=1.0)
    code, out, _ = _run(capsys, "check", scene, "--builtin", "obstacle-ahead")
    assert code == 1
    assert json.loads(out.splitlines()[0])["cause"] == {
        "kind": "predicate_failed", "index": 0}


def test_check_error_exits_three(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om,
                         obstacle_attrs={"position": [10.0, 0.0]})
    code, out, _ = _run(capsys, "check", scene, "--builtin", "obstacle-ahead")
    assert code == 3
    assert json.loads(out.splitlines()[0])["result"] == "error"


def test_check_epsilon_loosens_equality(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om, obstacle_speed=0.05)
    code, _, _ = _run(capsys, "check", scene, "--builtin", "obstacle-ahead")
    assert code == 1
    code, _, _ = _run(capsys, "check", scene, "--builtin", "obstacle-ahead",
                      "--epsilon", "0.1")
    assert code == 0


def test_check_without_properties_is_an_error(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    code, _, err = _run(capsys, "check", scene)
    assert code == 2
    assert "no properties" in err


def test_check_missing_scene_file(capsys, tmp_path):
    code, _, err = _run(capsys, "check", str(tmp_path / "absent.json"),
                        "--builtin", "obstacle-ahead")
    assert code == 2
    assert "scenemon: error:" in err


def test_check_rejects_undecodable_scene_file(capsys, tmp_path):
    path = tmp_path / "deep.json"
    path.write_text("[" * 100_000)
    code, _, err = _run(capsys, "check", str(path), "--builtin", "obstacle-ahead")
    assert code == 2
    assert "invalid JSON" in err
    assert "Traceback" not in err


def test_check_rejects_duplicate_property_names(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    code, _, err = _run(capsys, "check", scene,
                        "--builtin", "obstacle-ahead",
                        "--builtin", "obstacle-ahead")
    assert code == 2
    assert "duplicate" in err


def test_check_props_directory_sorted(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    props = tmp_path / "props"
    props.mkdir()
    (props / "b_lane.asg").write_text(IN_LANE)
    (props / "a_ahead.asg").write_text(
        IN_LANE.replace("in-lane", "a-ahead"))
    (props / "notes.txt").write_text("ignored")
    code, out, _ = _run(capsys, "check", scene, "--props", str(props))
    assert code == 0
    names = [json.loads(line)["property"] for line in out.splitlines()]
    assert names == ["a-ahead", "in-lane"]


def test_check_empty_props_directory(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    empty = tmp_path / "empty"
    empty.mkdir()
    code, _, err = _run(capsys, "check", scene, "--props", str(empty))
    assert code == 2
    assert "no .asg files" in err


def test_check_oracle_agreement_is_quiet(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    code, _, err = _run(capsys, "check", scene,
                        "--builtin", "obstacle-ahead", "--oracle")
    assert code == 0
    assert "divergence" not in err


def test_check_oracle_refuses_large_scenes(capsys, tmp_path, om):
    rec = scene_record(halted_obstacle_scene(om))
    for i in range(10):  # pad beyond the exhaustive matcher's size bound
        rec["nodes"].append({"id": f"x{i}", "class": "Static", "attrs": {}})
    scene = tmp_path / "big.json"
    scene.write_text(json.dumps(rec))
    code, _, err = _run(capsys, "check", str(scene),
                        "--builtin", "obstacle-ahead", "--oracle")
    assert code == 2
    assert "scenemon: error:" in err


def test_check_oracle_refuses_a_large_scene_before_opening_out(capsys, tmp_path, om):
    rec = scene_record(halted_obstacle_scene(om))
    for i in range(10):
        rec["nodes"].append({"id": f"x{i}", "class": "Static", "attrs": {}})
    scene = tmp_path / "big.json"
    scene.write_text(json.dumps(rec))
    out = tmp_path / "verdicts.jsonl"
    code, stdout, err = _run(capsys, "check", str(scene), "--builtin", "obstacle-ahead",
                             "--oracle", "--out", str(out))
    assert (code, stdout) == (2, "")
    assert err == "scenemon: error: scene has 13 nodes, oracle bound is 12\n"
    assert not out.exists()


@pytest.mark.parametrize("scene_kw, result, code", [
    ({}, "satisfied", 0),
    ({"obstacle_speed": 1.0}, "violated", 1),
    ({"obstacle_attrs": {"position": [10.0, 0.0]}}, "error", 3),
], ids=["satisfied", "predicate_failed", "error"])
@pytest.mark.parametrize("flags", [(), ("--oracle",), ("--epsilon", "0.5"), ("--induced",)],
                         ids=["plain", "oracle", "epsilon", "induced"])
def test_check_equals_monitor_over_a_one_line_stream(capsys, tmp_path, om, scene_kw, result,
                                                     code, flags):
    """`check FILE` gives the stdout, stderr and exit code of `monitor` over
    a stream holding FILE's record as its one line."""
    scene = _write_scene(tmp_path, om, **scene_kw)
    stream = tmp_path / "stream.jsonl"
    stream.write_text((tmp_path / "scene.json").read_text() + "\n")
    props = tmp_path / "in_lane.asg"
    props.write_text(IN_LANE)
    argv = ("--builtin", "obstacle-ahead", "--props", str(props), *flags)
    checked = _run(capsys, "check", scene, *argv)
    assert checked == _run(capsys, "monitor", str(stream), *argv)
    assert checked[0] == code
    results = {rec["property"]: rec["result"] for rec in map(json.loads, checked[1].splitlines())}
    assert results == {"in-lane": "satisfied", "obstacle-ahead": result}


def test_check_with_an_invalid_scene_writes_no_file(capsys, tmp_path, om):
    rec = scene_record(halted_obstacle_scene(om))
    rec["nodes"][1]["class"] = "Bike"
    scene = tmp_path / "bad.json"
    scene.write_text(json.dumps(rec))
    out = tmp_path / "verdicts.jsonl"
    code, _, err = _run(capsys, "check", str(scene), "--builtin", "obstacle-ahead",
                        "--out", str(out))
    assert code == 2
    assert "scenemon: error:" in err
    assert not out.exists()


# -- monitor ---------------------------------------------------------------


def _gen_stream(tmp_path, capsys, *extra):
    path = tmp_path / "stream.jsonl"
    code, _, _ = _run(capsys, "gen", "--scenario", "P1",
                      "--out", str(path), *extra)
    assert code == 0
    return str(path)


_DECLARED = "function dist is declared {}, its implementation is dist(node, node) -> Real"


@pytest.mark.parametrize("schema_edit, pred, column, message", [
    (("fn dist(node, node) -> Real;", "fn dist(Real, Real) -> Real;"), "dist(1, 2) > 0",
     10, _DECLARED.format("dist(Real, Real) -> Real")),
    (("fn dist(node, node) -> Real;", "fn dist(node) -> Real;"), "dist(ego) > 0",
     10, _DECLARED.format("dist(node) -> Real")),
    (("fn dist(node, node) -> Real;", "fn dist(node, node) -> Bool;"), "dist(ego, other)",
     10, _DECLARED.format("dist(node, node) -> Bool")),
    (("position: Vec2;", "position: Real;"), "dist(ego, other) > 0",
     15, "function dist reads ego.position as Vec2, got Real"),
    (None, "dist(ego, lane) > 0", 20, "class Lane has no attribute 'position'"),
    (("fn dist(node, node) -> Real;", "fn dist(node, node) -> Real;\nfn heading(node) -> Real;"),
     "heading(ego) > 0", 10, "function 'heading' has no implementation"),
], ids=["value-params", "one-node", "bool-result", "real-position", "lane", "no-implementation"])
def test_monitor_refuses_a_builtin_call_it_cannot_run_before_any_scene(
        capsys, tmp_path, om, schema_edit, pred, column, message):
    """A call that could never be evaluated, of a builtin or of a function
    the schema declares and the monitor does not implement, is a load error
    located in its file (exit 2) before the stream is read, not a traceback,
    a float used as a truth value, or a missing-attribute error verdict on
    every scene."""
    schema = serialize_object_model(om)
    if schema_edit is not None:
        schema = schema.replace(*schema_edit)
    om_path = tmp_path / "edited.om"
    om_path.write_text(schema)
    props = tmp_path / "call.asg"
    props.write_text('asg "call" {\n  node ego: Vehicle;\n  node other: Vehicle;\n'
                     '  node lane: Lane;\n  ego ego;\n  edge ego isIn lane;\n'
                     f'  edge other isIn lane;\n  assert {pred};\n}}\n')
    stream = _gen_stream(tmp_path, capsys)
    code, out, err = _run(capsys, "monitor", stream, "--om", str(om_path),
                          "--props", str(props))
    assert (code, out) == (2, "")
    assert err == f"scenemon: error: {props}:8:{column}: {message}\n"


def test_a_bad_property_in_a_directory_is_named_by_its_file(capsys, tmp_path, monkeypatch):
    """Of two property files in one directory, the bad one is named before
    the position of its error; the message after it is the parser's."""
    stream = _gen_stream(tmp_path, capsys)
    monkeypatch.chdir(tmp_path)
    Path("props").mkdir()
    Path("props/a.asg").write_text(IN_LANE)
    Path("props/b.asg").write_text(
        'asg "fast" {\n  node ego: Vehicle;\n  ego ego;\n  assert ego.speed > 0;\n}\n')
    code, out, err = _run(capsys, "monitor", stream, "--props", "props")
    assert (code, out) == (2, "")
    assert err == "scenemon: error: props/b.asg:4:10: class Vehicle has no attribute 'speed'\n"


@pytest.mark.parametrize("schema, message", [
    ("class A;\nbogus", "bad.om:2:1: expected class, rel, or fn declaration, found 'bogus'"),
    ("class A;\nclass A;", "bad.om: duplicate class: A"),
], ids=["located", "unlocated"])
def test_a_bad_schema_is_named_by_its_file(capsys, tmp_path, monkeypatch, schema, message):
    monkeypatch.chdir(tmp_path)
    Path("bad.om").write_text(schema)
    code, out, err = _run(capsys, "monitor", "-", "--om", "bad.om", "--phases", "P1")
    assert (code, out, err) == (2, "", f"scenemon: error: {message}\n")


@pytest.mark.parametrize("option, name", [("--props", "bad.asg"), ("--om", "bad.om")])
def test_a_file_that_is_not_utf8_is_named(capsys, tmp_path, monkeypatch, option, name):
    monkeypatch.chdir(tmp_path)
    Path(name).write_bytes(b"\xff\xfe")
    code, out, err = _run(capsys, "monitor", "-", option, name, "--phases", "P1")
    assert (code, out) == (2, "")
    assert err == (f"scenemon: error: {name}: not UTF-8: 'utf-8' codec can't decode byte 0xff "
                   "in position 0: invalid start byte\n")


@pytest.mark.parametrize("argv", [
    ["check", "s.json", "--builtin", "P1-1", "--out", "v.jsonl"],
    ["export", "--scene", "s.json", "--out", "s.dot"],
], ids=["check", "export"])
@pytest.mark.parametrize("text, message", [
    ('{"t": 0, "ego": "ghost", "nodes": [], "edges": []}',
     "s.json: ego node 'ghost' not present in scene"),
    ("nope", "s.json: invalid JSON: Expecting value: line 1 column 1 (char 0)"),
], ids=["invalid", "not-json"])
def test_a_bad_scene_file_is_named(capsys, tmp_path, monkeypatch, argv, text, message):
    """A scene file's errors name it, and no `--out` file is made."""
    monkeypatch.chdir(tmp_path)
    Path("s.json").write_text(text)
    code, out, err = _run(capsys, *argv)
    assert (code, out, err) == (2, "", f"scenemon: error: {message}\n")
    assert not Path(argv[-1]).exists()


# -- one reader for every input ---------------------------------------------


def _c_utf8_stdin(data: bytes) -> io.TextIOWrapper:
    """stdin over `data`, as CPython builds it in the C and C.UTF-8 locales."""
    return io.TextIOWrapper(io.BytesIO(data), encoding="utf-8",
                            errors="surrogateescape", newline="\n")


@pytest.fixture(scope="module")
def p1_stream(tmp_path_factory) -> bytes:
    path = tmp_path_factory.mktemp("p1") / "p1.jsonl"
    assert main(["gen", "--scenario", "P1", "--out", str(path)]) == 0
    return path.read_bytes()


def _monitor_both_ways(capsys, monkeypatch, tmp_path, data):
    """`monitor --phases P1` of the stream `data`, read from a path and
    from stdin: a (code, stdout, stderr) triple for each."""
    path = tmp_path / "s.jsonl"
    path.write_bytes(data)
    by_path = _run(capsys, "monitor", str(path), "--phases", "P1")
    monkeypatch.setattr("sys.stdin", _c_utf8_stdin(data))
    return by_path, _run(capsys, "monitor", "-", "--phases", "P1")


def _not_utf8(data: bytes) -> str:
    """The error text for the first 0xff in `data`, which is otherwise UTF-8."""
    at = data.index(b"\xff")
    return f"not UTF-8: 'utf-8' codec can't decode byte 0xff in position {at}: invalid start byte"


# each input: a word on its line 4 to put 0xff inside (the schema language
# has no strings, so a word of a comment there), and the argv that reads the
# file `bad` (None for a stream)
_READ_BY = {
    "stream-path": ("ego", None),
    "stdin": ("ego", None),
    "scene": ("ego", ["check", "bad", "--builtin", "P1-1"]),
    "asg": ("P1-1", ["check", "s.json", "--props", "bad"]),
    "om": ("Default", ["check", "s.json", "--om", "bad", "--builtin", "P1-1"]),
}


@pytest.mark.parametrize("where", ["line-start", "in-string"])
@pytest.mark.parametrize("source", list(_READ_BY))
def test_a_byte_that_is_not_utf8_is_refused_where_it_is(
        capsys, monkeypatch, tmp_path, p1_stream, source, where):
    """0xff at the start of line 4, or inside a string on it, is one error
    line and exit 2, whichever way the input is read. A stream error names
    the line, after the verdicts of the scenes before it, which are the same
    from a path and from stdin; a file error names the file."""
    word, argv = _READ_BY[source]
    lines = p1_stream.split(b"\n")
    if argv is None:
        data = lines
    else:
        scene = json.dumps(json.loads(lines[0]), indent=1).encode()
        monkeypatch.chdir(tmp_path)
        Path("s.json").write_bytes(scene)
        data = {
            "scene": scene,
            "asg": resources.files("scenemon.assets").joinpath("p1_1.asg").read_bytes(),
            "om": resources.files("scenemon.assets").joinpath("default.om").read_bytes(),
        }[source].split(b"\n")
        line = next(i for i, text in enumerate(data) if word.encode() in text)
        data.insert(3, data.pop(line))  # the string's line is line 4
    if where == "line-start":
        data[3] = b"\xff" + data[3]
    else:
        data[3] = data[3].replace(word.encode(), word[:1].encode() + b"\xff" + word[1:].encode(), 1)
    bad = b"\n".join(data)
    if argv is None:
        by_path, by_stdin = _monitor_both_ways(capsys, monkeypatch, tmp_path, bad)
        code, out, err = by_path if source == "stream-path" else by_stdin
        assert by_path == by_stdin
        good = tmp_path / "good.jsonl"
        good.write_bytes(p1_stream)
        earlier = _run(capsys, "monitor", str(good), "--phases", "P1")[1].splitlines(True)[:9]
        assert (code, out) == (2, "".join(earlier))
        assert err == f"scenemon: error: line 4: {_not_utf8(data[3])}\n"
    else:
        Path("bad").write_bytes(bad)
        code, out, err = _run(capsys, *argv)
        assert (code, out) == (2, "")
        assert err == f"scenemon: error: bad: {_not_utf8(bad)}\n"
    assert "\\udc" not in out


def test_a_raw_cr_is_json_whitespace_from_a_path_and_from_stdin(
        capsys, monkeypatch, tmp_path, p1_stream):
    """A stream line ends at LF only, so a raw CR neither shifts the line
    numbers after it nor splits a record, from a path or from stdin."""
    good = tmp_path / "good.jsonl"
    good.write_bytes(p1_stream)
    clean = _run(capsys, "monitor", str(good), "--phases", "P1")
    lines = p1_stream.split(b"\n")
    shifted = [lines[0], b"\r" + lines[1], *lines[2:4], b"{not json", *lines[5:]]
    by_path, by_stdin = _monitor_both_ways(capsys, monkeypatch, tmp_path, b"\n".join(shifted))
    assert by_path == by_stdin
    code, out, err = by_path
    assert (code, out) == (2, "".join(clean[1].splitlines(True)[:12]))
    assert err.startswith("scenemon: error: line 5: invalid JSON: ")
    split = [lines[0], lines[1].replace(b", ", b",\r", 1), *lines[2:]]
    by_path, by_stdin = _monitor_both_ways(capsys, monkeypatch, tmp_path, b"\n".join(split))
    assert by_path == by_stdin == clean


def _ego_renamed(line: bytes, escaped: bytes) -> bytes:
    """A stream line with the ego's id, in every field value, written as the
    JSON text `escaped`."""
    return line.replace(b': "ego"', b': "' + escaped + b'"')


def _witness_renamed(verdicts: str) -> str:
    """Verdict lines with the ego's id in each witness as U+1F600 between
    `e` and `go`, written as the encoder escapes it."""
    return verdicts.replace('"ego": "ego"', '"ego": "e\\ud83d\\ude00go"')


@pytest.mark.parametrize("source", ["stream-path", "stdin", "scene"])
def test_a_lone_surrogate_escape_is_refused_where_it_is(
        capsys, monkeypatch, tmp_path, p1_stream, source):
    """The ego's id written as `e\\udcffgo` on line 4 is ASCII, and decodes
    to a string that is no Unicode scalar value: one located error line and
    exit 2, from a path, from stdin and from a scene file. A valid surrogate
    pair (U+1F600) in its place is accepted."""
    monkeypatch.chdir(tmp_path)
    lines = p1_stream.split(b"\n")
    if source == "scene":
        clean = lines[0]
        Path("s.json").write_bytes(_ego_renamed(clean, b"e\\udcffgo"))
        code, out, err = _run(capsys, "check", "s.json", "--builtin", "P1-1")
        assert (code, out) == (2, "")
        assert err == "scenemon: error: s.json: lone surrogate '\\udcff' in a string\n"
        Path("s.json").write_bytes(clean)
        expected = _run(capsys, "check", "s.json", "--builtin", "P1-1")
        Path("s.json").write_bytes(_ego_renamed(clean, b"e\\ud83d\\ude00go"))
        code, out, err = _run(capsys, "check", "s.json", "--builtin", "P1-1")
        assert (code, out, err) == (expected[0], _witness_renamed(expected[1]), expected[2])
        return
    good = tmp_path / "good.jsonl"
    good.write_bytes(p1_stream)
    clean = _run(capsys, "monitor", str(good), "--phases", "P1")
    bad = [*lines[:3], _ego_renamed(lines[3], b"e\\udcffgo"), *lines[4:]]
    by_path, by_stdin = _monitor_both_ways(capsys, monkeypatch, tmp_path, b"\n".join(bad))
    assert by_path == by_stdin
    code, out, err = by_path if source == "stream-path" else by_stdin
    assert (code, out) == (2, "".join(clean[1].splitlines(True)[:9]))
    assert err == "scenemon: error: line 4: lone surrogate '\\udcff' in a string\n"
    paired = [*lines[:3], _ego_renamed(lines[3], b"e\\ud83d\\ude00go"), *lines[4:]]
    by_path, by_stdin = _monitor_both_ways(capsys, monkeypatch, tmp_path, b"\n".join(paired))
    verdicts = clean[1].splitlines(True)
    verdicts[9:12] = map(_witness_renamed, verdicts[9:12])
    assert by_path == by_stdin == (clean[0], "".join(verdicts), clean[2])


_BYTE = st.one_of(st.integers(0, 255), st.sampled_from(b'"{}[],:\\\r\n \x80\xc3\xed\xf4\xff'))
_EDITS = st.lists(st.tuples(st.sampled_from("rid"), st.integers(min_value=0), _BYTE),
                  min_size=1, max_size=4)


def _edit(data: bytes, edits) -> bytes:
    """`data` after each (op, where, byte) edit: replace, insert or delete."""
    buf = bytearray(data)
    for op, where, byte in edits:
        if op == "i":
            buf.insert(where % (len(buf) + 1), byte)
        elif buf and op == "r":
            buf[where % len(buf)] = byte
        elif buf:
            del buf[where % len(buf)]
    return bytes(buf)


@pytest.fixture(scope="module")
def fuzz_inputs(tmp_path_factory, p1_stream):
    """The path of the file `bad`, and each fuzzed input's clean bytes with
    the argv that reads them from `bad` (or from stdin)."""
    root = tmp_path_factory.mktemp("fuzz")
    bad, scene = str(root / "bad"), root / "s.json"
    lines = p1_stream.split(b"\n")
    scene.write_bytes(lines[0])
    stream = b"\n".join(lines[:4]) + b"\n"
    asset = resources.files("scenemon.assets").joinpath
    return bad, {
        "stream-path": (stream, ["monitor", bad, "--phases", "P1"]),
        "stdin": (stream, ["monitor", "-", "--phases", "P1"]),
        "scene": (lines[0], ["check", bad, "--builtin", "P1-1"]),
        "asg": (asset("p1_1.asg").read_bytes(), ["check", str(scene), "--props", bad]),
        "om": (asset("default.om").read_bytes(),
               ["check", str(scene), "--om", bad, "--builtin", "P1-1"]),
    }


@settings(max_examples=200, deadline=None)
@given(source=st.sampled_from(list(_READ_BY)), edits=_EDITS)
def test_hostile_bytes_end_in_verdicts_or_one_error_line(fuzz_inputs, source, edits):
    """Byte edits to a stream (from a path and from stdin), a scene file, a
    property file or a schema end in exit 0, 1 or 3 with only JSON lines on
    stdout, or in exit 2 with one `scenemon: error:` line; nothing escapes."""
    bad, inputs = fuzz_inputs
    clean, argv = inputs[source]
    data = _edit(clean, edits)
    Path(bad).write_bytes(data)
    out, err, stdin = io.StringIO(), io.StringIO(), sys.stdin
    try:
        sys.stdin = _c_utf8_stdin(data)
        with redirect_stdout(out), redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = stdin
    errors = [line for line in err.getvalue().splitlines() if line.startswith("scenemon: error:")]
    assert code in (0, 1, 2, 3)
    assert len(errors) == (code == 2)
    for line in out.getvalue().splitlines():
        assert isinstance(json.loads(line), dict)


def test_monitor_nominal_phases_pass(capsys, tmp_path):
    stream = _gen_stream(tmp_path, capsys)
    code, out, err = _run(capsys, "monitor", stream, "--phases", "P1")
    assert code == 0
    assert "phases P1" in err
    assert "completed=True" in err
    assert "violations=0" in err
    lines = out.splitlines()
    assert len(lines) == 121 * 3
    first = json.loads(lines[0])
    assert first["property"] == "P1-1"
    assert first["phase_index"] == 0
    assert all("phase_index" in json.loads(line) for line in lines)


def test_monitor_perturbed_phases_fail(capsys, tmp_path):
    stream = _gen_stream(tmp_path, capsys, "--perturb", "rear_gap=-5")
    code, out, err = _run(capsys, "monitor", stream, "--phases", "P1")
    assert code == 1
    assert "completed=False" in err
    hits = [
        rec for rec in map(json.loads, out.splitlines())
        if rec["property"] == "P1-2" and rec["result"] == "violated"
        and rec.get("cause", {}).get("kind") == "predicate_failed"
        and 3.0 <= rec["t"] < 5.0
    ]
    assert hits
    assert all(rec["cause"]["index"] == 0 for rec in hits)


def test_monitor_runs_are_byte_identical(capsys, tmp_path):
    stream = _gen_stream(tmp_path, capsys)
    out_a = tmp_path / "a.jsonl"
    out_b = tmp_path / "b.jsonl"
    for out_path in (out_a, out_b):
        code, _, _ = _run(capsys, "monitor", stream, "--phases", "P1",
                          "--out", str(out_path))
        assert code == 0
    assert out_a.read_bytes() == out_b.read_bytes()


def test_monitor_refuses_an_out_that_is_its_stream(capsys, tmp_path):
    """`--out` naming the stream file, by its path or through a link, exits 2
    before it is opened, which would empty the stream before its first line
    is read; the stream is left as it was."""
    stream = _gen_stream(tmp_path, capsys)
    data = Path(stream).read_bytes()
    link = tmp_path / "link.jsonl"
    link.symlink_to(stream)
    for out in (stream, str(link)):
        code, stdout, err = _run(capsys, "monitor", stream, "--phases", "P1", "--out", out)
        assert (code, stdout) == (2, "")
        assert err == f"scenemon: error: --out {out} is the stream being read\n"
        assert Path(stream).read_bytes() == data


def test_monitor_needs_exactly_one_stream(capsys):
    code, _, err = _run(capsys, "monitor", "--phases", "P1")
    assert code == 2


def test_monitor_refuses_the_removed_in_flag(capsys, tmp_path):
    """`--in` is no abbreviation of `--induced`: a stale `--in FILE` exits 2
    and reads no stream, where it would otherwise run under --induced."""
    stream = _gen_stream(tmp_path, capsys)
    code, out, err = _run(capsys, "monitor", "--in", stream, "--phases", "P1")
    assert (code, out) == (2, "")
    assert "unrecognized arguments: --in" in err


def test_monitor_reads_stdin(capsys, tmp_path, om, monkeypatch):
    lines = [
        json.dumps(scene_record(halted_obstacle_scene(om, t=float(t))))
        for t in range(3)
    ]
    monkeypatch.setattr("sys.stdin", io.StringIO("\n".join(lines) + "\n"))
    code, out, _ = _run(capsys, "monitor", "-", "--builtin", "obstacle-ahead")
    assert code == 0
    assert len(out.splitlines()) == 3


def test_monitor_rejects_out_of_order_stream(capsys, tmp_path, om):
    records = [
        json.dumps(scene_record(halted_obstacle_scene(om, t=t)))
        for t in (1.0, 0.5)
    ]
    path = tmp_path / "bad.jsonl"
    path.write_text("\n".join(records) + "\n")
    code, _, err = _run(capsys, "monitor", str(path),
                        "--builtin", "obstacle-ahead")
    assert code == 2
    assert "out of order" in err


def test_monitor_locates_malformed_stream_lines(capsys, tmp_path, om):
    good = json.dumps(scene_record(halted_obstacle_scene(om)))
    path = tmp_path / "bad.jsonl"
    path.write_text(good + "\n{not json\n")
    code, _, err = _run(capsys, "monitor", str(path),
                        "--builtin", "obstacle-ahead")
    assert code == 2
    assert "line 2" in err


@pytest.mark.parametrize("value", ["nan", "inf", "-5"])
def test_monitor_rejects_bad_epsilon(capsys, tmp_path, value):
    stream = _gen_stream(tmp_path, capsys)
    code, out, err = _run(capsys, "monitor", stream, "--phases", "P1",
                          f"--epsilon={value}")
    assert code == 2
    assert "argument --epsilon: " in err
    assert out == ""


def test_monitor_oracle_sees_the_scene_of_each_verdict(capsys, tmp_path, monkeypatch):
    import scenemon.cli

    stream = _gen_stream(tmp_path, capsys, "--perturb", "rear_gap=-5")
    plain = _run(capsys, "monitor", stream, "--phases", "P1")
    seen = []
    reference = scenemon.cli.brute_force_embeddings

    def recording(asg, csg, **kwargs):
        seen.append((csg.timestamp, asg.name))
        return reference(asg, csg, **kwargs)

    monkeypatch.setattr(scenemon.cli, "brute_force_embeddings", recording)
    code, out, err = _run(capsys, "monitor", stream, "--phases", "P1", "--oracle")
    assert (code, out, err) == plain
    assert seen == [(rec["t"], rec["property"]) for rec in map(json.loads, out.splitlines())]
    monkeypatch.setattr(scenemon.cli, "brute_force_embeddings", lambda asg, csg, **kw: [])
    code, _, err = _run(capsys, "monitor", stream, "--phases", "P1", "--oracle")
    assert code == 3
    assert "scenemon: oracle divergence: t=0.0 property=P1-1: " in err


def test_monitor_oracle_reports_a_wrong_cause(capsys, tmp_path, monkeypatch):
    """A verdict whose cause names the wrong predicate has the right
    embeddings, so only the comparison with the reference verdict sees it."""
    import scenemon.monitor

    stream = _gen_stream(tmp_path, capsys, "--perturb", "rear_gap=-5")
    plain_code, plain_out, _ = _run(capsys, "monitor", stream, "--phases", "P1")
    first_false = scenemon.monitor._first_false

    def rotated(predicates, nodes, mapping):
        idx = first_false(predicates, nodes, mapping)
        return None if idx is None else (idx + 1) % len(predicates)

    monkeypatch.setattr(scenemon.monitor, "_first_false", rotated)
    code, out, err = _run(capsys, "monitor", stream, "--phases", "P1", "--oracle")
    assert code == 3 and plain_code != 3
    changed = [(json.loads(got), json.loads(want))
               for got, want in zip(out.splitlines(), plain_out.splitlines()) if got != want]
    assert changed and len(out.splitlines()) == len(plain_out.splitlines())
    for got, want in changed:
        assert got["cause"]["kind"] == want["cause"]["kind"] == "predicate_failed"
        line = (f"scenemon: oracle divergence: t={got['t']} property={got['property']}: "
                f'verdict differs: got {{"result": "violated", "cause": {{"kind": '
                f'"predicate_failed", "index": {got["cause"]["index"]}}}}}, want {{"result": '
                f'"violated", "cause": {{"kind": "predicate_failed", "index": '
                f'{want["cause"]["index"]}}}}}\n')
        assert err.count(line) == 1
    assert err.count("oracle divergence") == len(changed)


# sha256 of (stdout, stderr) and the exit code of
# `gen --scenario S [--perturb ...] | monitor - --phases S --builtin obstacle-ahead [flags]`.
# They pin the wire bytes from one version to the next; change them only
# with the output format. `--induced` and `--epsilon` are pinned as well:
# the monitor's reuse of embeddings across scenes is keyed on `induced`.
REAR_GAP = ("--perturb", "rear_gap=-3")
INDUCED = ("--induced",)
EPSILON = ("--epsilon", "0.5")
GOLDEN_MONITOR_OUTPUT = {
    ("P1", (), ()): (1, "bde01094c81710a8fb977ef55857df654aecd212a99836f517892171975d0be5",
                     "4d740b76452d57c444588f93604f4fdcf67e5b40470ffe4631ef40240149882d"),
    ("P1", REAR_GAP, ()): (
        1, "5b106b0f29993d45a2e25ac9401b12cf452f05b50e3bdfd6ca6a5e0310affc9d",
        "9f11759166b94688ee297b1973200dd01eb07d2637f90b513f254e87a47e9267"),
    ("P2", (), ()): (1, "6760412353f6271329ef48228acb62c3b55936ddcb923535f8f38b9748c2cc1e",
                     "78db93c677cc502d2277f466ec5a065ef128cc424497ea7009a34a2183de050f"),
    ("P2", REAR_GAP, ()): (
        1, "360310c86c84734af030364013a65d02cfd64f1d59a1d7b7445bac60c63f754b",
        "ced2c2c8b8dbf173066be62fc021210531f90ef1f2916959f513489dd79e045f"),
    ("P1", (), INDUCED): (
        1, "b6a20c85462355bea7b4a433f8f1239006be21f72c3e9de8e34327291805d756",
        "d093651263c062a074d58bd93d92c84fa95826f8fec14b2682ed37da446d8166"),
    ("P1", REAR_GAP, INDUCED): (
        1, "7ff2331985ad255ce9a6afd46e4b4d2c811f3840358ee1ea6da581963eb42237",
        "9f11759166b94688ee297b1973200dd01eb07d2637f90b513f254e87a47e9267"),
    ("P2", (), INDUCED): (
        1, "810dea4c43e6b5e9ac2fae41921c3ad0064150aa33bcffd914f0d8af039b917b",
        "a44ddc14b0c83e235f536484140d9eef2820477a9dd60059b752dfdb10a07e57"),
    ("P2", REAR_GAP, INDUCED): (
        1, "810dea4c43e6b5e9ac2fae41921c3ad0064150aa33bcffd914f0d8af039b917b",
        "a44ddc14b0c83e235f536484140d9eef2820477a9dd60059b752dfdb10a07e57"),
    ("P1", (), EPSILON): (
        1, "716c628101afe7c178c020271b339afb61d885c7ada56d0178a76cf0cea2db00",
        "d007546d285395ac7d34227eb899f7eb5dec4f55783f290d4788586cd30d7d80"),
    ("P1", REAR_GAP, EPSILON): (
        1, "5f54439c40eba7786901e74e5148164c94b0a1d281346cff2631e80f15d6b3ee",
        "5c265fc13bdecf6d906fc49a71db74fa287feffde5e82f9b80558618a4a21061"),
    ("P2", (), EPSILON): (
        1, "6760412353f6271329ef48228acb62c3b55936ddcb923535f8f38b9748c2cc1e",
        "78db93c677cc502d2277f466ec5a065ef128cc424497ea7009a34a2183de050f"),
    ("P2", REAR_GAP, EPSILON): (
        1, "360310c86c84734af030364013a65d02cfd64f1d59a1d7b7445bac60c63f754b",
        "ced2c2c8b8dbf173066be62fc021210531f90ef1f2916959f513489dd79e045f"),
}


def _golden_id(scenario, perturb, flags):
    return "-".join([scenario, *["rear_gap"][:len(perturb)], *[f.strip("-") for f in flags[:1]]])


@pytest.mark.parametrize("scenario, perturb, flags", list(GOLDEN_MONITOR_OUTPUT),
                         ids=[_golden_id(*key) for key in GOLDEN_MONITOR_OUTPUT])
def test_monitor_output_bytes_are_pinned(capsys, monkeypatch, scenario, perturb, flags):
    code, stream, _ = _run(capsys, "gen", "--scenario", scenario, *perturb)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    code, out, err = _run(capsys, "monitor", "-", "--phases", scenario,
                          "--builtin", "obstacle-ahead", *flags)
    digests = tuple(hashlib.sha256(text.encode("utf-8")).hexdigest() for text in (out, err))
    assert (code, *digests) == GOLDEN_MONITOR_OUTPUT[scenario, perturb, flags]


def _reverse_nodes_of_every_other_line(stream):
    """`stream` with the node list of each odd (0-based) line reversed."""
    records = stream.splitlines(keepends=True)
    for i in range(1, len(records), 2):
        rec = json.loads(records[i])
        rec["nodes"].reverse()
        records[i] = json.dumps(rec) + "\n"
    return "".join(records)


# every perturbation key: each makes its phase's distance predicate fail,
# P1-2 and P2-1 to P2-4
PERTURBED = [("P1", ()), ("P1", REAR_GAP), ("P2", ()), ("P2", REAR_GAP),
             ("P2", ("--perturb", "approach_gap=-2")), ("P2", ("--perturb", "pass_gap=-1")),
             ("P2", ("--perturb", "return_gap=-8"))]


@pytest.mark.parametrize("flags", [
    (), ("--oracle",), ("--oracle", *INDUCED), ("--oracle", *EPSILON),
    ("--oracle", *INDUCED, *EPSILON),
], ids=["plain", "oracle", "oracle-induced", "oracle-epsilon", "oracle-induced-epsilon"])
@pytest.mark.parametrize("scenario, perturb", PERTURBED, ids=[
    f"{scenario}-{perturb[-1].partition('=')[0] if perturb else 'nominal'}"
    for scenario, perturb in PERTURBED])
def test_monitor_output_does_not_depend_on_record_node_order(capsys, monkeypatch, scenario,
                                                             perturb, flags, om):
    """With every other line's nodes reversed, ingest rebuilds every scene
    in full: no scene shares its predecessor's class index or edge set. Yet
    the scenes along a run still have one topology, so the monitor's
    topology test holds by equality instead of identity. The output is the
    plain stream's, and ends in exit 0 or 1. Under `--oracle` each scene's
    embeddings are derived again without the search, so a stale reused
    embedding is a divergence (exit 3); `--epsilon` applies to the oracle's
    reference verdicts too."""
    code, stream, _ = _run(capsys, "gen", "--scenario", scenario, *perturb)
    assert code == 0
    reordered = _reverse_nodes_of_every_other_line(stream)
    argv = ("monitor", "-", "--phases", scenario, *flags)
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    plain = _run(capsys, *argv)
    assert plain[0] <= 1
    monkeypatch.setattr("sys.stdin", io.StringIO(reordered))
    assert _run(capsys, *argv) == plain
    scenes = list(read_scene_stream(reordered.splitlines(), om))
    assert not any(a.class_index is b.class_index or a.edges is b.edges
                   for a, b in zip(scenes, scenes[1:]))
    same = sum(_topology(a) == _topology(b) for a, b in zip(scenes, scenes[1:]))
    assert same > 0.9 * (len(scenes) - 1)


def _ego(record):
    return next(node for node in record["nodes"] if node["id"] == record["ego"])


def _first_other_vehicle(record):
    return next(node for node in record["nodes"]
                if node["class"] == "Vehicle" and node["id"] != record["ego"])


def _drop_attribute(stream, name, node_of, lines=range(99, 109)):
    """`stream` with attribute `name` left out of the node `node_of` picks
    on each of the given (0-based) lines."""
    records = stream.splitlines(keepends=True)
    for i in lines:
        rec = json.loads(records[i])
        del node_of(rec)["attrs"][name]
        records[i] = json.dumps(rec) + "\n"
    return "".join(records)


@pytest.mark.parametrize("perturb, summary", [
    ((), "violations=0 gaps=10 "),
    (REAR_GAP, "violations=54 gaps=10 "),
], ids=["nominal", "rear_gap"])
def test_monitor_counts_data_gaps_apart_from_phase_violations(capsys, monkeypatch, perturb,
                                                               summary):
    """Scenes the ego's velocity is missing from give error verdicts; the
    phase summary counts them as gaps, and counts real violations as before.
    The error verdicts give exit 3, so only stderr tells an oracle
    divergence; memo hits that end in an error are cross-checked too. With
    `position` left out of the first non-ego Vehicle instead, the gaps sit
    on objects the search maps, and the oracle agrees there as well."""
    code, stream, _ = _run(capsys, "gen", "--scenario", "P2", *perturb)
    assert code == 0
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    code, _, err = _run(capsys, "monitor", "-", "--phases", "P2")
    assert "gaps=" not in err
    monkeypatch.setattr("sys.stdin", io.StringIO(_drop_attribute(stream, "velocity", _ego)))
    code, out, err = _run(capsys, "monitor", "-", "--phases", "P2", "--oracle")
    assert code == 3
    assert summary in err
    assert "oracle divergence" not in err
    errors = {rec["t"] for rec in map(json.loads, out.splitlines()) if rec["result"] == "error"}
    assert len(errors) == 10
    gaps = _drop_attribute(stream, "position", _first_other_vehicle)
    monkeypatch.setattr("sys.stdin", io.StringIO(gaps))
    code, _, err = _run(capsys, "monitor", "-", "--phases", "P2", "--oracle")
    assert code == 3
    assert "oracle divergence" not in err


def test_monitor_writes_each_scene_before_reading_the_next(capsys, monkeypatch):
    """All of scene i's verdict lines are out before line i+1 is pulled."""
    code, stream, _ = _run(capsys, "gen", "--scenario", "P1")
    assert code == 0
    lines = stream.splitlines(keepends=True)
    out = io.StringIO()
    written_at_pull = []

    def pulls():
        for line in lines:
            written_at_pull.append(out.getvalue().count("\n"))
            yield line
        written_at_pull.append(out.getvalue().count("\n"))

    monkeypatch.setattr("sys.stdin", pulls())
    monkeypatch.setattr("sys.stdout", out)
    code = main(["monitor", "-", "--phases", "P1", "--builtin", "obstacle-ahead"])
    assert code == 1
    k = 4  # obstacle-ahead and the three P1 phases
    assert written_at_pull == [i * k for i in range(len(lines) + 1)]


def _edit_edge(field, value):
    def edit(records):
        records[1]["edges"][0][field] = value
    return edit


def _edit_node_class(records):
    records[1]["nodes"][1]["class"] = "Bike"


def _edit_rel(records):
    records[1]["edges"][0]["rel"] = "follows"


def _nan_timestamp(records):
    records[0]["t"], records[1]["t"], records[2]["t"] = 5.0, float("nan"), 1.0


@pytest.mark.parametrize("edit, message", [
    (_edit_edge("src", [1]), "edge fields src, rel and dst must be strings"),
    (_edit_edge("dst", {"lane": "lane1"}), "edge fields src, rel and dst must be strings"),
    (_edit_node_class, "node lane1 has unknown class Bike"),
    (_edit_rel, "edge (ego, follows, lane1): unknown relationship: follows"),
    (_nan_timestamp, "timestamp must be a finite number, got nan"),
], ids=["list-src", "dict-dst", "unknown-class", "unknown-rel", "nan-t"])
def test_monitor_rejects_hostile_records_at_their_line(capsys, tmp_path, om, edit, message):
    records = [scene_record(halted_obstacle_scene(om, t=float(t))) for t in range(3)]
    edit(records)
    path = tmp_path / "hostile.jsonl"
    path.write_text("".join(json.dumps(r) + "\n" for r in records))
    code, out, err = _run(capsys, "monitor", str(path), "--builtin", "obstacle-ahead")
    assert code == 2
    assert f"line 2: {message}" in err
    assert "Traceback" not in err

    def reject(token):
        raise ValueError(f"non-JSON token {token}")

    assert len([json.loads(line, parse_constant=reject) for line in out.splitlines()]) == 1


@pytest.fixture(scope="module")
def p2_stream(tmp_path_factory) -> str:
    path = tmp_path_factory.mktemp("p2") / "p2.jsonl"
    assert main(["gen", "--scenario", "P2", "--out", str(path)]) == 0
    return path.read_text()


def _set(path, value):
    """An edit that sets the record field at `path` to `value`."""
    def edit(record):
        *keys, last = path
        for key in keys:
            record = record[key]
        record[last] = value
    return edit


@pytest.mark.parametrize("path, value, message", [
    (("nodes", 1, "class"), "Road",
     "edge (ego, isIn, lane1) not allowed: isIn does not admit Vehicle -> Road"),
    (("edges", 0, "rel"), "follows",
     "edge (ego, follows, oncoming): unknown relationship: follows"),
    (("nodes", 0, "attrs", "velocity"), "fast",
     "attribute velocity expects a finite Real, got 'fast'"),
    (("nodes", 3, "id"), "lane2", "duplicate node id: lane2"),
    (("nodes", 2, "id"), "", "node with empty id"),
], ids=["class", "rel", "value", "duplicate-id", "empty-id"])
def test_a_fault_on_a_reused_record_is_refused_at_its_line(capsys, monkeypatch, om, p2_stream,
                                                           path, value, message):
    """Line 100 of the P2 stream has line 99's topology, so ingest reuses
    line 99's scene for it. A class or a relation changed there, a value of
    the wrong type, or a node id changed on the same edges and node count is
    refused with the message a fresh parse gives, at line 100 (exit 2),
    after the verdicts of the 99 lines before it."""
    lines = p2_stream.splitlines(keepends=True)
    previous, record = (json.loads(line) for line in lines[98:100])
    previous = parse_csg(previous, om)
    assert parse_csg(record, om, previous=previous).edges is previous.edges
    _set(path, value)(record)
    with pytest.raises(SceneValidationError) as fresh:
        parse_csg(record, om)
    assert str(fresh.value) == message
    lines[99] = json.dumps(record) + "\n"
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(lines)))
    code, out, err = _run(capsys, "monitor", "-", "--phases", "P2")
    assert (code, err) == (2, f"scenemon: error: line 100: {message}\n")
    assert len(out.splitlines()) == 99 * len(builtin_asgs("P2", om))


@pytest.fixture(scope="module")
def dense_record() -> dict:
    """A 200-object record, 9,718 edges, that ingest reads in columns."""
    return json.loads(serialize_scene(build_bench_scene(200)))


def _last_edge_as_a_list(record):
    edge = record["edges"][-1]
    record["edges"][-1] = [edge["src"], edge["rel"], edge["dst"]]


def _drop_last_dst(record):
    del record["edges"][-1]["dst"]


_BIKE = _set(("nodes", 1, "class"), "Bike")


@pytest.mark.parametrize("edits, line, message", [
    ([_set(("edges", -1, "dst"), "ghost")], 1, None),
    ([_set(("edges", -1, "rel"), "follows")], 1, None),
    ([_set(("edges", -1, "src"), 7)], 1, None),
    ([_drop_last_dst], 1, None),
    ([_BIKE, _set(("edges", -1, "src"), 7)], 1,
     "edge fields src, rel and dst must be strings: {'src': 7, 'rel': 'isIn', 'dst': 'lane1'}"),
    ([_BIKE, _last_edge_as_a_list], 1, "malformed edge entry: ['v99', 'isIn', 'lane1']"),
    ([_set(("edges", -1, "src"), "ghost")], 2, "edge references unknown node ghost"),
], ids=["unknown-dst", "unknown-rel", "int-src", "no-dst", "unknown-class-then-int-src",
        "unknown-class-then-list-edge", "after-a-clean-line"])
def test_a_fault_in_a_dense_record_is_refused_at_its_line(capsys, monkeypatch, om, dense_record,
                                                          edits, line, message):
    """A dense record's last edge corrupted: ingest, which reads the edges in
    columns, falls back to the located pass and exits 2 with the message a
    fresh `parse_csg` gives. Where a line has two faults, a class the model
    lacks on node 1 and then a malformed last edge, the malformed entry is
    the error reported. After a clean line, a copy of it with one endpoint
    changed must fail the reuse test and be refused at line 2."""
    record = copy.deepcopy(dense_record)
    for edit in edits:
        edit(record)
    if message is None:
        with pytest.raises(SceneValidationError) as fresh:
            parse_csg(record, om)
        message = str(fresh.value)
    stream = [dense_record] * (line - 1) + [record]
    monkeypatch.setattr("sys.stdin", io.StringIO("".join(json.dumps(r) + "\n" for r in stream)))
    code, out, err = _run(capsys, "monitor", "-", "--phases", "P2")
    assert (code, err) == (2, f"scenemon: error: line {line}: {message}\n")
    assert len(out.splitlines()) == (line - 1) * len(builtin_asgs("P2", om))


# -- subcommands -----------------------------------------------------------


_MONITOR_SET_UP = """
import io, json, sys
from scenemon.cli import main
sys.stdin, sys.stderr = io.StringIO(), io.StringIO()
code = main(["monitor", "-", "--phases", "P2"])
loaded = sorted(name for name in sys.modules
                if name.startswith("scenemon") or name in ("dataclasses", "inspect"))
import scenemon
unresolved = [name for name in scenemon.__all__ if not hasattr(scenemon, name)]
unlisted = sorted(set(scenemon.__all__) - set(dir(scenemon)))
print(json.dumps({"code": code, "loaded": loaded, "unresolved": unresolved,
                  "unlisted": unlisted}))
"""


def test_monitor_set_up_imports_only_what_it_runs():
    """In a fresh interpreter, `monitor --phases P2` on an empty stream
    leaves the scenario generator, `dataclasses` and `inspect` unloaded,
    and every public name still resolves from `import scenemon`, the
    generator's on first use."""
    src = str(Path(scenemon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    done = subprocess.run([sys.executable, "-c", _MONITOR_SET_UP], env=env,
                          capture_output=True, text=True, check=True)
    result = json.loads(done.stdout)
    assert result["code"] == 0
    assert "scenemon.cli" in result["loaded"]
    assert "scenemon.scenarios" not in result["loaded"]
    assert "dataclasses" not in result["loaded"] and "inspect" not in result["loaded"]
    assert result["unresolved"] == [] and result["unlisted"] == []


def _scenemon_imports(node):
    """The scenemon modules an import statement names, as the package
    names them (`scenarios` for `from . import scenarios`)."""
    if isinstance(node, ast.Import):
        modules = [alias.name for alias in node.names]
    elif isinstance(node, ast.ImportFrom):
        module = ".".join(filter(None, ["scenemon" if node.level else "", node.module]))
        modules = [module] if node.module else [f"{module}.{a.name}" for a in node.names]
    else:
        return []
    return [m.removeprefix("scenemon.") for m in modules if m.split(".")[0] == "scenemon"]


def test_no_function_imports_a_scenemon_module():
    """Every module imports the package's modules at its top, so the import
    graph is acyclic as written. The one exception is the scenario
    generator, which `gen` and the package's lazy names load on first use
    so that monitoring never does."""
    package = Path(scenemon.__file__).resolve().parent
    found = set()
    for path in sorted(package.glob("*.py")):
        for fn in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(fn, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found |= {(path.stem, fn.name, module)
                          for node in ast.walk(fn) for module in _scenemon_imports(node)}
    assert found == {("cli", "_cmd_gen", "scenarios"), ("__init__", "__getattr__", "scenarios")}


@pytest.mark.parametrize("command", ["gen", "monitor"])
def test_a_closed_output_pipe_ends_quietly(tmp_path, command):
    """A reader that closes stdout after one line, as `| head -1` does: the
    command exits 141, as a shell reports a process SIGPIPE killed, and
    writes nothing to stderr, neither where the write fails nor at exit.
    The output, about 1 MB, is far more than a pipe buffers."""
    src = str(Path(scenemon.__file__).resolve().parent.parent)
    env = dict(os.environ, PYTHONPATH=os.pathsep.join([src, os.environ.get("PYTHONPATH", "")]))
    scenemon_cli = [sys.executable, "-m", "scenemon.cli"]
    gen = [*scenemon_cli, "gen", "--scenario", "P2", "--dt", "0.02"]
    argv = gen
    if command == "monitor":
        stream = tmp_path / "p2.jsonl"
        subprocess.run([*gen, "--out", str(stream)], env=env, check=True)
        argv = [*scenemon_cli, "monitor", str(stream), "--phases", "P2"]
    with subprocess.Popen(argv, env=env, stdout=subprocess.PIPE,
                          stderr=subprocess.PIPE) as proc:
        line = proc.stdout.readline()
        proc.stdout.close()
        err = proc.stderr.read()
        code = proc.wait(timeout=120)
    assert json.loads(line)["t"] == 0.0
    assert (code, err) == (141, b"")


def test_bench_is_not_a_subcommand(capsys):
    """Latency is timed by perfbench and the C8 tests, not by the CLI."""
    code, _, err = _run(capsys, "bench")
    assert code == 2
    assert "invalid choice: 'bench'" in err
    code, out, _ = _run(capsys, "--help")
    assert code == 0
    assert re.search(r"\{([^}]*)\}", out).group(1).split(",") == [
        "check", "monitor", "gen", "export"]


# -- export ----------------------------------------------------------------


def test_export_builtin_property(capsys):
    code, out, _ = _run(capsys, "export", "--builtin", "obstacle-ahead")
    assert code == 0
    assert out.startswith("digraph")
    assert "obstacle" in out


def test_export_scene(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    out_path = tmp_path / "scene.dot"
    code, _, _ = _run(capsys, "export", "--scene", scene,
                      "--out", str(out_path))
    assert code == 0
    text = out_path.read_text()
    assert text.startswith("digraph")
    assert "ego" in text


def test_export_sources_are_mutually_exclusive(capsys, tmp_path, om):
    scene = _write_scene(tmp_path, om)
    code, _, _ = _run(capsys, "export", "--scene", scene,
                      "--builtin", "obstacle-ahead")
    assert code == 2


# -- shared plumbing -------------------------------------------------------


def test_unknown_subcommand(capsys):
    code, _, _ = _run(capsys, "frobnicate")
    assert code == 2


def test_no_subcommand(capsys):
    code, _, _ = _run(capsys)
    assert code == 2


def test_monitor_ignores_the_scenemon_om_environment_variable(capsys, tmp_path, om,
                                                               monkeypatch):
    """`--om` is the one way to choose the object model: with SCENEMON_OM
    naming a missing file, `monitor` still loads the bundled model, and
    `check --om default` names it too."""
    code, stream, _ = _run(capsys, "gen", "--scenario", "P1")
    assert code == 0
    argv = ("monitor", "-", "--phases", "P1")
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    plain = _run(capsys, *argv)
    assert plain[0] == 0
    monkeypatch.setenv("SCENEMON_OM", str(tmp_path / "missing.om"))
    monkeypatch.setattr("sys.stdin", io.StringIO(stream))
    assert _run(capsys, *argv) == plain
    scene = _write_scene(tmp_path, om)
    code, _, _ = _run(capsys, "check", scene, "--om", "default", "--builtin", "obstacle-ahead")
    assert code == 0
