"""Seeded mutational fuzzing of session reading, validation and the CLI.

Each mutant is a copy of a committed session (`docs/examples/session.*` or
`demos/out/replay_a.*`) with one grammar-free change to its bytes, its line
structure, one record's fields or one manifest value. The library must
agree with the one-record-at-a-time references in `oracles`: the same
session or the same error, the same violation list, no exception that is not
a `TeamCoordError`, and a documented exit code from `teamcoord metrics`.
"""
from __future__ import annotations

import json
import random
import shutil
from pathlib import Path

import pytest

from teamcoord import session_io
from teamcoord.cli import EXIT_IO, main
from teamcoord.core import TeamCoordError, validate_session
from teamcoord.session_io import manifest_path_for, read_session

from oracles import read_session_reference, validate_session_reference

ROOT = Path(__file__).resolve().parent.parent
SOURCES = (ROOT / "docs" / "examples" / "session.jsonl", ROOT / "demos" / "out" / "replay_a.jsonl")
SEED = 1018
N_MUTANTS = 360

# Values a mutated field or manifest entry takes: other types, the int64
# limits and just past them, non-finite and integral floats, numeric strings.
VALUES = (0, 1, -1, 2, 7, 99, 2 ** 62, 2 ** 63 - 1, 2 ** 63, -2 ** 63, -2 ** 63 - 1, 0.0, -0.0,
          3.0, 1.5, 1e19, float("nan"), float("inf"), float("-inf"), True, False, None, "",
          "3", "x", "medic", "engineer", "move", "wait", "rescue", "medic1", "engineer2",
          [], [1], {}, {"a": 1})


def _mutate_bytes(rng, log: bytes, _) -> bytes:
    i = rng.randrange(len(log))
    kind = rng.randrange(4)
    if kind == 0:
        return log[:i] + bytes([rng.randrange(256)]) + log[i + 1:]
    if kind == 1:
        return log[:i] + rng.choice([b"\xff", b"\xc3", b"\r", b"\n", b" ", b"\x00", b"\xe2\x80\xa8",
                                     b"{", b"}", b",", b'"', b"\\"]) + log[i:]
    if kind == 2:
        return log[:i] + log[i + rng.randrange(1, 40):]
    return log[:i] + bytes([log[i] ^ (1 << rng.randrange(8))]) + log[i + 1:]


def _mutate_lines(rng, log: bytes, _) -> bytes:
    lines = log.split(b"\n")[:-1]
    i = rng.randrange(len(lines))
    kind = rng.randrange(7)
    if kind == 0:  # split a line in two
        cut = rng.randrange(1, len(lines[i]))
        lines[i:i + 1] = [lines[i][:cut], lines[i][cut:]]
    elif kind == 1:  # join a line with the next, with or without a separator
        j = min(i + 1, len(lines) - 1)
        lines[i:j + 1] = [lines[i] + rng.choice([b"", b" ", b","]) + lines[j]]
    elif kind == 2:
        lines.insert(i, lines[i])
    elif kind == 3:
        del lines[i]
    elif kind == 4:
        lines.insert(i, rng.choice([b"", b"  ", b"\t"]))
    elif kind == 5:  # swap with another line
        j = rng.randrange(len(lines))
        lines[i], lines[j] = lines[j], lines[i]
    else:  # a split line followed by a line holding two records
        cut = rng.randrange(1, len(lines[i]))
        j = min(i + 1, len(lines) - 1)
        lines[i:j + 1] = [lines[i][:cut], lines[i][cut:] + lines[j]]
    return b"\n".join(lines) + rng.choice([b"\n", b"", b"\r\n"])


def _mutate_record(rng, log: bytes, _) -> bytes:
    lines = log.split(b"\n")[:-1]
    i = rng.randrange(len(lines))
    rec = json.loads(lines[i])
    key = rng.choice(sorted(rec) + ["target_x", "target_y", "extra"])
    kind = rng.randrange(5)
    if kind == 4:  # the other role, which the roster does not give the player
        rec["role"] = {"medic": "engineer", "engineer": "medic"}[rec["role"]]
    elif kind == 0 and key in rec:
        del rec[key]
    elif kind == 1 and key in rec:
        rec[key + "_"] = rec.pop(key)
    elif kind == 2 and isinstance(rec.get(key), int) and not isinstance(rec.get(key), bool):
        rec[key] += rng.choice([-2, -1, 1, 2, 2 ** 63])
    else:
        rec[key] = rng.choice(VALUES)
    lines[i] = json.dumps(rec, sort_keys=rng.random() < 0.7,
                          separators=rng.choice([(",", ":"), (", ", ": ")])).encode()
    return b"\n".join(lines) + b"\n"


def _mutate_number(rng, log: bytes, _) -> bytes:
    """A tick, coordinate, target or time of one record set to another
    number the reader accepts, so that the mutant reaches validation."""
    lines = log.split(b"\n")[:-1]
    i = rng.randrange(len(lines))
    rec = json.loads(lines[i])
    key = rng.choice(["tick", "x", "y", "target_x", "target_y", "time_s"])
    if key == "time_s":
        rec[key] = rng.choice([rec[key] + 3.0, 0.0, -0.0, 1e-12, 1e300, float("nan"),
                               float("inf"), rng.uniform(-1e3, 1e3)])
    elif key in rec:
        rec[key] = rng.choice([rec[key] + rng.choice([-2, -1, 1, 2]), 0, -1, 2 ** 62,
                               2 ** 63 - 1, -2 ** 63, rng.randrange(-30, 30)])
    return b"\n".join(lines[:i] + [json.dumps(rec).encode()] + lines[i + 1:]) + b"\n"


def _mutate_manifest(rng, _, manifest: dict) -> dict:
    doc = json.loads(json.dumps(manifest))
    paths = []

    def walk(node, path):
        if isinstance(node, (dict, list)):
            items = node.items() if isinstance(node, dict) else enumerate(node)
            for k, v in items:
                paths.append(path + (k,))
                walk(v, path + (k,))

    walk(doc, ())
    *parent, last = rng.choice(paths)
    node = doc
    for k in parent:
        node = node[k]
    if isinstance(node, dict) and rng.random() < 0.2:
        del node[last]
    else:
        node[last] = rng.choice(VALUES)
    return doc


MUTATORS = (_mutate_bytes, _mutate_lines, _mutate_record, _mutate_number, _mutate_manifest)


def mutants():
    """(name, log bytes, manifest text) for each seeded mutant."""
    rng = random.Random(SEED)
    sources = [(p.read_bytes(), json.loads(manifest_path_for(p).read_text())) for p in SOURCES]
    out = []
    for n in range(N_MUTANTS):
        k = rng.randrange(len(SOURCES))
        log, manifest = sources[k]
        mutate = rng.choice(MUTATORS)
        result = mutate(rng, log, manifest)
        if mutate is _mutate_manifest:
            out.append((f"{n}-{SOURCES[k].stem}-manifest", log, json.dumps(result)))
        else:
            out.append((f"{n}-{SOURCES[k].stem}-{mutate.__name__[8:]}", result,
                        json.dumps(manifest)))
    return out


def outcome(read, log):
    """The session a reader returns, or the error it raises, in a form that
    compares bit for bit (nan times included)."""
    try:
        s = read(log)
    except Exception as exc:  # the class is part of the outcome
        return ("raised", type(exc), str(exc), getattr(exc, "path", None),
                getattr(exc, "line", None), getattr(exc, "report", None))
    return ("read", repr((s.session_id, s.grid, s.events, s.clock,
                          s.sample_interval_s, s.map_meta)),
            [(p.player_id, p.role, p.samples.tobytes()) for p in s.players])


def test_mutants_cover_every_mutator():
    kinds = {name.rsplit("-", 1)[1] for name, _, _ in mutants()}
    assert kinds == {"bytes", "lines", "record", "number", "manifest"}


@pytest.fixture(scope="module")
def cases(tmp_path_factory):
    root = tmp_path_factory.mktemp("fuzz")
    out = []
    for name, log, manifest in mutants():
        path = root / name / "s.jsonl"
        path.parent.mkdir()
        path.write_bytes(log)
        manifest_path_for(path).write_text(manifest, encoding="utf-8")
        out.append(path)
    yield out
    shutil.rmtree(root, ignore_errors=True)


def test_read_matches_reference_reader(cases, monkeypatch):
    # count the files whose whole-log parse is not trusted, so that both
    # ways of decoding a log are known to be reached
    per_line = []
    decode = session_io._decode_lines
    monkeypatch.setattr(session_io, "_decode_lines",
                        lambda texts: per_line.append(1) or decode(texts))
    seen = {}
    messages = []
    for log in cases:
        got, want = outcome(read_session, log), outcome(read_session_reference, log)
        assert got == want, log.parent.name
        key = got[0] if got[0] == "read" else got[1].__name__
        seen[key] = seen.get(key, 0) + 1
        messages.append(got[2] if got[0] == "raised" else "")
    assert {"read", "SessionFormatError", "SessionValidationError"} <= seen.keys()
    assert 0 < len(per_line) < len(cases)
    assert any("role mismatch for" in m for m in messages)


def test_validation_matches_reference_loop(cases):
    checked = 0
    for log in cases:
        try:
            session = read_session(log, validate=False)
        except TeamCoordError:
            continue
        assert validate_session(session) == validate_session_reference(session), log.parent.name
        checked += 1
    assert checked > 100


def test_only_team_coord_errors_escape(cases):
    for log in cases:
        for validate in (True, False):
            try:
                read_session(log, validate=validate)
            except TeamCoordError:
                pass


def test_metrics_exits_with_a_documented_code(cases, capsys):
    codes = set()
    for log in cases:
        code = main(["metrics", str(log)])
        assert code in (0, 1, 2, 3), log.parent.name
        codes.add(code)
    capsys.readouterr()
    assert {0, 1} <= codes


# Manifest values that ended in a traceback (OverflowError, ZeroDivisionError,
# ValueError) from `read_session` or `teamcoord metrics`, each found by
# mutating one value of the example manifest, which holds a red rescue.
MANIFEST_HOLES = {
    "grid_past_int64_cells": ("grid", {"width": 2 ** 63, "height": 8}),
    "interval_zero": ("sample_interval_s", 0.0),
    "interval_negative": ("sample_interval_s", -3.0),
    "interval_nan": ("sample_interval_s", float("nan")),
    "interval_subnormal": ("sample_interval_s", 5e-324),
    "duration_infinite": ("mission_duration_s", float("inf")),
    "duration_huge": ("mission_duration_s", 1e300),
    "no_traversable_cells": ("map_meta", {"traversable_cells": 0, "max_tasks": {}}),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_HOLES))
def test_broken_manifest_values_end_in_typed_errors(tmp_path, capsys, case):
    key, value = MANIFEST_HOLES[case]
    src = SOURCES[0]
    manifest = json.loads(manifest_path_for(src).read_text())
    manifest[key] = value
    log = tmp_path / "s.jsonl"
    log.write_bytes(src.read_bytes())
    manifest_path_for(log).write_text(json.dumps(manifest), encoding="utf-8")
    assert outcome(read_session, log) == outcome(read_session_reference, log)
    try:
        session = read_session(log, validate=False)
    except TeamCoordError:
        pass
    else:
        assert validate_session(session) == validate_session_reference(session)
    assert main(["metrics", str(log)]) == EXIT_IO
    assert f"{log.parent}" in capsys.readouterr().err
