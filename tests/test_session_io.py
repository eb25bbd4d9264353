import json
import math
import random
from dataclasses import replace
from functools import partial
from pathlib import Path

import numpy as np
import pytest

from teamcoord import session_io
from teamcoord.cli import EXIT_IO, main
from teamcoord.core import (
    DISCONTINUITY,
    TICK_ALIGNMENT,
    GridSpec,
    PlayerTrajectory,
    Role,
    TeamSession,
)
from teamcoord.session_io import (
    MetricTableError,
    MetricsTableRow,
    SessionFormatError,
    SessionValidationError,
    fmt_float,
    format_metrics_table,
    manifest_path_for,
    read_map,
    read_metrics_table,
    read_session,
    write_map,
    write_session,
)
from teamcoord.sim import (AgentPolicy, InvalidMapError, PolicyKind, builtin_map, builtin_maps,
                           map_meta, run_mission)

from helpers import random_session
from oracles import read_session_reference, session_log_reference
from test_fuzz_session import outcome

POLICIES = [(Role.MEDIC, AgentPolicy(PolicyKind.GREEDY))] * 2 + \
           [(Role.ENGINEER, AgentPolicy(PolicyKind.GREEDY))] * 2

ROOT = Path(__file__).resolve().parent.parent
EXAMPLE_LOG = ROOT / "docs" / "examples" / "session.jsonl"
REPLAY_LOG = ROOT / "demos" / "out" / "replay_a.jsonl"


@pytest.fixture(scope="module")
def sim_session():
    return run_mission(builtin_map("small"), POLICIES, seed=5)


def test_session_roundtrip_from_simulator(tmp_path, sim_session):
    log = tmp_path / "s.jsonl"
    write_session(sim_session, log)
    assert read_session(log) == sim_session


def test_session_roundtrip_random_sessions(tmp_path):
    rng = np.random.default_rng(13)
    for i in range(25):
        s = random_session(rng, n_ticks=8, session_id=f"case{i}")
        log = tmp_path / f"{i}.jsonl"
        write_session(s, log)
        assert read_session(log) == s


@pytest.mark.parametrize("mapname", ["small", "medium", "corridor"])
def test_session_roundtrip_keeps_targets(tmp_path, mapname):
    s = run_mission(builtin_map(mapname), POLICIES, seed=1)
    has_target = np.concatenate([p.samples["has_target"] for p in s.players])
    assert has_target.any() and not has_target.all()
    log, _ = write_session(s, tmp_path / "s.jsonl")
    assert read_session(log) == s


def test_samples_per_player_match_log_lines(tmp_path, sim_session):
    # the benchmark's session_io.lines_read counter sums len(p.samples) over
    # the players of each read session, so it relies on one row per line
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    s = read_session(log)
    assert all(len(p.samples) == p.n_ticks == s.n_ticks for p in s.players)
    assert sum(len(p.samples) for p in s.players) == len(log.read_text().splitlines())


def test_session_files_byte_deterministic(tmp_path, sim_session):
    a, am = write_session(sim_session, tmp_path / "a.jsonl")
    b, bm = write_session(sim_session, tmp_path / "b.jsonl")
    assert a.read_bytes() == b.read_bytes()
    assert am.read_bytes() == bm.read_bytes()
    assert b"\r" not in a.read_bytes()


def test_map_meta_embedding(tmp_path, sim_session):
    meta = map_meta(builtin_map("small"))
    log = tmp_path / "s.jsonl"
    write_session(sim_session, log)
    assert read_session(log).map_meta == meta
    bare = tmp_path / "bare.jsonl"
    write_session(replace(sim_session, map_meta=None), bare)
    assert read_session(bare).map_meta is None
    # the inventory is not part of the mission record
    assert read_session(log) == read_session(bare)


def test_truncated_line_reports_line_number(tmp_path, sim_session):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    lines[6] = lines[6][: len(lines[6]) // 2]
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert exc.value.line == 7
    assert "s.jsonl:7" in str(exc.value)


def test_missing_manifest_is_an_error(tmp_path, sim_session):
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    manifest.unlink()
    with pytest.raises(SessionFormatError):
        read_session(log)
    manifest.write_text("{not json")
    with pytest.raises(SessionFormatError, match="bad manifest JSON") as exc:
        read_session(log)
    assert exc.value.path == manifest


def test_skipped_tick_surfaces_validation_report(tmp_path, sim_session):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    # drop all four player lines of tick 3
    kept = [ln for ln in lines if '"tick":3,' not in ln]
    log.write_text("\n".join(kept) + "\n")
    with pytest.raises(SessionValidationError) as exc:
        read_session(log)
    assert any(v.code == DISCONTINUITY for v in exc.value.report)
    # the permissive mode still loads it for inspection
    session = read_session(log, validate=False)
    assert session.n_ticks == sim_session.n_ticks - 1


@pytest.mark.parametrize("delta", [-1, 2])
def test_write_refuses_players_with_unequal_tick_counts(tmp_path, sim_session, delta):
    # the log has one line per tick and player: a shorter or longer later
    # player is refused by name, before any file is written
    last = sim_session.players[-1]
    samples = last.samples[:delta] if delta < 0 else np.concatenate(
        [last.samples, last.samples[-1:].repeat(delta)])
    players = sim_session.players[:-1] + (PlayerTrajectory(last.player_id, last.role, samples),)
    bad = TeamSession(sim_session.session_id, sim_session.grid, players, sim_session.events)
    log = tmp_path / "s.jsonl"
    with pytest.raises(SessionValidationError) as exc:
        write_session(bad, log)
    assert [v.code for v in exc.value.report] == [TICK_ALIGNMENT]
    n = sim_session.n_ticks
    assert f"session {sim_session.session_id!r}" in str(exc.value)
    assert f"medic1 {n}, medic2 {n}, engineer1 {n}, engineer2 {n + delta}" in str(exc.value)
    assert not log.exists() and not manifest_path_for(log).exists()


@pytest.mark.parametrize("src", [EXAMPLE_LOG, REPLAY_LOG], ids=["docs-example", "demo-replay"])
def test_committed_session_writes_back_byte_identical(tmp_path, src):
    # the session carries the manifest's map_meta, so nothing is passed beside it
    log, manifest = write_session(read_session(src), tmp_path / src.name)
    assert log.read_bytes() == src.read_bytes()
    assert manifest.read_bytes() == manifest_path_for(src).read_bytes()


def test_docs_examples_roundtrip_byte_identical(capsys):
    # the byte round trip of the example is in test_committed_session_writes_back_byte_identical
    assert main(["metrics", str(EXAMPLE_LOG)]) == 0
    header, row = EXAMPLE_LOG.with_name("metrics.csv").read_text().splitlines()[:2]
    assert row.startswith("demo-pocket-s00001,")
    assert capsys.readouterr().out.splitlines() == [header, row]


def test_map_roundtrip_and_determinism(tmp_path):
    for spec in builtin_maps():
        p1 = write_map(spec, tmp_path / f"{spec.name}1.json")
        p2 = write_map(spec, tmp_path / f"{spec.name}2.json")
        assert p1.read_bytes() == p2.read_bytes()
        assert write_map(read_map(p1), p2).read_bytes() == p1.read_bytes()


def test_example_map_writes_back_byte_identical(tmp_path):
    example = EXAMPLE_LOG.with_name("map.json")
    assert write_map(read_map(example), tmp_path / "m.json").read_bytes() == example.read_bytes()


def test_map_rejects_bad_payload(tmp_path):
    p = tmp_path / "m.json"
    p.write_text("{}")
    with pytest.raises(SessionFormatError):
        read_map(p)
    p.write_text("not json")
    with pytest.raises(SessionFormatError):
        read_map(p)


def table_rows(cols) -> list[MetricsTableRow]:
    """The rows of the columns `read_metrics_table` returns, as the writer takes them."""
    return [MetricsTableRow(sid, *(cols[n][k] for n in ("sed", "sms", "spa", "ci")),
                            performance=int(cols["performance"][k]))
            for k, sid in enumerate(cols["session_id"])]


def test_metrics_table_empty_is_header_only(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text(format_metrics_table([]))
    assert p.read_text() == "session_id,sed,sms,spa,ci,performance\n"
    with pytest.raises(MetricTableError, match="^table has no data rows$"):
        read_metrics_table(p)


def test_metrics_table_roundtrip_single_row(tmp_path):
    row = MetricsTableRow("s1", sed=1 / 3, sms=0.5249999999999999, spa=0.0, ci=0.1234567891234,
                          performance=220)
    p = tmp_path / "m.csv"
    p.write_text(format_metrics_table([row]))
    assert table_rows(read_metrics_table(p)) == [row]


def test_metrics_table_34_rows_is_35_lines(tmp_path):
    rng = np.random.default_rng(7)
    rows = [MetricsTableRow(f"t{i:02d}", *rng.random(4), performance=int(rng.integers(500)))
            for i in range(34)]
    p = tmp_path / "m.csv"
    p.write_text(format_metrics_table(rows))
    assert len(p.read_text().splitlines()) == 35
    assert table_rows(read_metrics_table(p)) == rows


def test_metrics_table_reads_asked_columns_ignores_the_rest(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("\nnote,performance,session_id,sed\n\nx,30,s1,0.5\r\ny,\"1e1\",s2,0.25\n")
    cols = read_metrics_table(p, ("sed", "performance"))
    assert sorted(cols) == ["performance", "sed", "session_id"]
    assert cols["session_id"] == ("s1", "s2")
    assert cols["performance"].tolist() == [30.0, 10.0]
    assert cols["sed"].tolist() == [0.5, 0.25]
    assert list(read_metrics_table(p, ("sed",), ids=False)) == ["sed"]
    # blank lines count: the second data row ends on line 5
    p.write_text("\nnote,performance,session_id,sed\n\nx,30,s1,0.5\r\ny,\"1e1\",s2,nan\n")
    with pytest.raises(MetricTableError, match="^column 'sed' has non-finite value 'nan' on line 5$"):
        read_metrics_table(p, ("sed", "performance"))


@pytest.mark.parametrize("cells, message", [
    (("1e50", "-1e50", "0"), None),
    (("1e200", "abc", "0"), "is not numeric: could not convert string to float: 'abc' on line 3"),
    (("-1.0000000001e50", "nan", "0"), "has value '-1.0000000001e50' above 1e+50 in magnitude on line 2"),
    (("0", "-inf", "1e51"), "has non-finite value '-inf' on line 3"),
])
def test_metrics_table_refuses_cells_beyond_the_magnitude_limit(tmp_path, cells, message):
    # a column is read for numbers first, then for the first nan, infinite or huge cell
    p = tmp_path / "m.csv"
    p.write_text("sed\n" + "\n".join(cells) + "\n")
    if message is None:
        assert read_metrics_table(p, ("sed",), ids=False)["sed"].tolist() == [1e50, -1e50, 0.0]
        return
    with pytest.raises(MetricTableError) as exc:
        read_metrics_table(p, ("sed",), ids=False)
    assert str(exc.value) == f"column 'sed' {message}"


def test_metrics_table_not_utf8_names_path_and_line(tmp_path):
    p = tmp_path / "m.csv"
    p.write_bytes(b"session_id,sed,sms,spa,ci,performance\ns1,0.1,0.2,0.3,0.4,5\n"
                  b"x\xff,0.1,0.2,0.3,0.4,5\n")
    with pytest.raises(SessionFormatError) as exc:
        read_metrics_table(p)
    assert str(exc.value) == f"{p}:3: line is not UTF-8"


def test_metrics_table_bad_header_and_numbers(tmp_path):
    p = tmp_path / "m.csv"
    p.write_text("who,sed,sms,spa,ci,performance\ns1,0.1,0.2,0.3,0.4,5\n")
    with pytest.raises(MetricTableError, match="^table lacks columns: session_id$"):
        read_metrics_table(p)
    assert sorted(read_metrics_table(p, ids=False)) == ["ci", "performance", "sed", "sms", "spa"]
    p.write_text("session_id,sed,sms,spa,ci\ns1,0.1,0.2,0.3,0.4\n")
    with pytest.raises(MetricTableError, match="^table lacks columns: performance$"):
        read_metrics_table(p)
    p.write_text("session_id,sed,sms,spa,ci,performance\ns1,a,b,c,d,e\n")
    with pytest.raises(MetricTableError) as exc:
        read_metrics_table(p)
    assert str(exc.value) == ("column 'sed' is not numeric: "
                              "could not convert string to float: 'a' on line 2")
    p.write_text("session_id,sed,sms,spa,ci,performance\ns1,0.1,0.2,0.3,0.4,5\ns2,0.1\n")
    with pytest.raises(SessionFormatError) as exc:
        read_metrics_table(p)
    assert (exc.value.path, exc.value.line) == (p, 3)
    assert str(exc.value) == f"{p}:3: expected 6 fields"
    with pytest.raises(SessionFormatError, match="missing table"):
        read_metrics_table(tmp_path / "absent.csv")


def test_fmt_float_round_trips_exactly():
    rng = np.random.default_rng(3)
    values = list(rng.random(200)) + [0.0, 1.0, 1 / 3, 0.1, 1e-17, 123456.789]
    for v in values:
        assert float(fmt_float(v)) == v


def test_manifest_path_convention():
    assert manifest_path_for("runs/a.jsonl").name == "a.manifest.json"
    assert manifest_path_for("runs/a.log").name == "a.log.manifest.json"


LOG_CORRUPTIONS = {
    "unknown_role": lambda rec: {**rec, "role": "pilot"},
    "unknown_action": lambda rec: {**rec, "action": "fly"},
    "non_numeric_x": lambda rec: {**rec, "x": "abc"},
    "bare_number": lambda rec: 42,
    "missing_tick": lambda rec: {k: v for k, v in rec.items() if k != "tick"},
    "list_player_id": lambda rec: {**rec, "player_id": ["medic1"]},
}


@pytest.mark.parametrize("case", sorted(LOG_CORRUPTIONS))
def test_malformed_record_names_path_and_line(tmp_path, sim_session, case):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    lines[4] = json.dumps(LOG_CORRUPTIONS[case](json.loads(lines[4])))
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert (exc.value.path, exc.value.line) == (log, 5)


MANIFEST_CORRUPTIONS = {
    "grid_without_width": lambda m: m["grid"].pop("width"),
    "unknown_player_role": lambda m: m["players"][0].update(role="pilot"),
    "event_unknown_victim_type": lambda m: m["events"][0].update(victim_type="purple"),
    "event_without_cell": lambda m: m["events"][0].pop("x"),
    "event_actors_not_a_list": lambda m: m["events"][0].update(actor_ids=7),
    "event_actor_not_a_string": lambda m: m["events"][0].update(actor_ids=[["medic1"]]),
    "events_not_a_list": lambda m: m.update(events=3),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_CORRUPTIONS))
def test_malformed_manifest_names_path(tmp_path, sim_session, case):
    assert sim_session.events
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    doc = json.loads(manifest.read_text())
    MANIFEST_CORRUPTIONS[case](doc)
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert exc.value.path == manifest


@pytest.mark.parametrize("map_meta, detail", [
    ({"max_tasks": []}, "missing 'traversable_cells'"),
    ([1], "list indices must be integers or slices, not str"),
    ({"traversable_cells": 0, "max_tasks": {}}, "traversable cell count must be positive"),
], ids=["missing_cells", "list", "zero_cells"])
def test_read_session_rejects_malformed_map_meta(tmp_path, sim_session, map_meta, detail):
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    doc = json.loads(manifest.read_text())
    manifest.write_text(json.dumps({**doc, "map_meta": map_meta}))
    for validate in (True, False):
        with pytest.raises(SessionFormatError) as exc:
            read_session(log, validate=validate)
        assert exc.value.path == manifest
        assert str(exc.value) == f"{manifest}: bad map_meta: {detail}"


# A manifest number of the wrong JSON type, one field per case: how to set it,
# the value, and the error. Each of these read as int() or float() made it.
MANIFEST_NUMBERS = {
    "grid_width": (lambda m, v: m["grid"].update(width=v), 7.9,
                   "bad manifest: width must be a JSON integer, got 7.9"),
    "grid_height": (lambda m, v: m["grid"].update(height=v), "5",
                    'bad manifest: height must be a JSON integer, got "5"'),
    "event_x": (lambda m, v: m["events"][0].update(x=v), "5",
                'bad manifest: x must be a JSON integer, got "5"'),
    "event_y": (lambda m, v: m["events"][0].update(y=v), 1.0,
                "bad manifest: y must be a JSON integer, got 1.0"),
    "event_time_s": (lambda m, v: m["events"][0].update(time_s=v), "21",
                     'bad manifest: time_s must be a JSON number, got "21"'),
    "mission_duration_s": (lambda m, v: m.update(mission_duration_s=v), "60",
                           'bad manifest: mission_duration_s must be a JSON number, got "60"'),
    "red_cutoff_s": (lambda m, v: m.update(red_cutoff_s=v), True,
                     "bad manifest: red_cutoff_s must be a JSON number, got true"),
    "sample_interval_s": (lambda m, v: m.update(sample_interval_s=v), None,
                          "bad manifest: sample_interval_s must be a JSON number, got null"),
    "traversable_cells": (lambda m, v: m["map_meta"].update(traversable_cells=v), 33.5,
                          "bad map_meta: traversable_cells must be a JSON integer, got 33.5"),
    "max_tasks": (lambda m, v: m["map_meta"]["max_tasks"].update(medic=v), False,
                  "bad map_meta: max_tasks must be a JSON integer, got false"),
}


@pytest.mark.parametrize("case", sorted(MANIFEST_NUMBERS))
def test_manifest_numbers_must_have_their_json_type(tmp_path, capsys, case):
    set_value, value, message = MANIFEST_NUMBERS[case]
    log = tmp_path / "s.jsonl"
    log.write_bytes(EXAMPLE_LOG.read_bytes())
    doc = json.loads(manifest_path_for(EXAMPLE_LOG).read_text(encoding="utf-8"))
    set_value(doc, value)
    manifest = manifest_path_for(log)
    manifest.write_text(json.dumps(doc), encoding="utf-8")
    for validate in (True, False):
        with pytest.raises(SessionFormatError) as exc:
            read_session(log, validate=validate)
        assert str(exc.value) == f"{manifest}: {message}"
        assert outcome(partial(read_session, validate=validate), log) == \
            outcome(partial(read_session_reference, validate=validate), log)
    assert main(["metrics", str(log)]) == EXIT_IO
    assert f"{manifest}: {message}" in capsys.readouterr().err


def test_map_rejects_malformed_cells(tmp_path):
    p = write_map(builtin_map("small"), tmp_path / "m.json")
    doc = json.loads(p.read_text())
    doc["walls"][0] = ["a", 1]
    p.write_text(json.dumps(doc))
    with pytest.raises(SessionFormatError):
        read_map(p)


@pytest.mark.parametrize("field, value", [
    ("width", 7.9), ("height", 8.0), ("fov_radius", 2.5), ("fov_radius", True), ("fov_radius", "2"),
    ("walls", [[0, 1.5]]), ("doors", [[True, 1]]), ("rubble", [["3", 1]]),
    ("victims", [{"x": 1.0, "y": 1, "type": "green"}]), ("start", [1, 1.0]),
])
def test_map_integer_fields_must_be_json_integers(tmp_path, field, value):
    p = write_map(builtin_map("small"), tmp_path / "m.json")
    p.write_text(json.dumps({**json.loads(p.read_text()), field: value}))
    with pytest.raises(SessionFormatError) as exc:
        read_map(p)
    assert exc.value.path == p
    assert f"{p}: bad map: {field} must be a JSON integer, got " in str(exc.value)


@pytest.mark.parametrize("fields", [{"mission_duration_s": math.inf},
                                    {"mission_duration_s": math.inf, "red_cutoff_s": math.inf}])
def test_map_rejects_infinite_mission_clock(tmp_path, fields):
    p = write_map(builtin_map("small"), tmp_path / "m.json")
    p.write_text(json.dumps({**json.loads(p.read_text()), **fields}))  # written as Infinity
    with pytest.raises(InvalidMapError, match="red cutoff outside a finite mission duration"):
        read_map(p)


def record_with(line: str, **fields) -> str:
    return json.dumps({**json.loads(line), **fields}, sort_keys=True, separators=(",", ":"))


def split_before_role(line: str) -> list[str]:
    cut = line.index(',"role"') + 1
    return [line[:cut], line[cut:]]


# Each case rewrites line 5 of the log from records a (line 5) and b (line
# 6); the expected message, after "<path>:5: ", is what the reader reported
# before it parsed through the JSON scanner and the member tables, or for a
# tick, cell, target or time of the wrong JSON type, what it reports since
# those must be JSON integers and numbers. Extra data starts right after
# record a; a record cut after a comma fails where the next key should start.
LINE_ERRORS = {
    "two_records_comma": (
        lambda a, b: [a + "," + b],
        lambda a: f"Extra data: line 1 column {len(a) + 1} (char {len(a)})"),
    "two_records_space": (
        lambda a, b: [a + " " + b],
        lambda a: f"Extra data: line 1 column {len(a) + 2} (char {len(a) + 1})"),
    "record_split_over_two_lines": (
        lambda a, b: [*split_before_role(a), b],
        lambda a: "Expecting property name enclosed in double quotes: "
                  f"line 1 column {len(split_before_role(a)[0]) + 1} "
                  f"(char {len(split_before_role(a)[0])})"),
    "unhashable_role": (lambda a, b: [record_with(a, role=["medic"]), b],
                        lambda a: "['medic'] is not a valid Role"),
    "unhashable_action": (lambda a, b: [record_with(a, action=["move"]), b],
                          lambda a: "['move'] is not a valid ActionTag"),
    "unhashable_x": (lambda a, b: [record_with(a, x=[1]), b],
                     lambda a: "x must be a JSON integer, got [1]"),
    "bare_number": (lambda a, b: ["42", b], lambda a: "'int' object is not subscriptable"),
    "fractional_x": (lambda a, b: [record_with(a, x=1.7), b],
                     lambda a: "x must be a JSON integer, got 1.7"),
    "integral_float_tick": (lambda a, b: [record_with(a, tick=4.0), b],
                            lambda a: "tick must be a JSON integer, got 4.0"),
    "bool_target_x": (lambda a, b: [record_with(a, target_x=True, target_y=0), b],
                      lambda a: "target_x must be a JSON integer, got true"),
    "string_time": (lambda a, b: [record_with(a, time_s="3.0"), b],
                    lambda a: 'time_s must be a JSON number, got "3.0"'),
    "bool_time": (lambda a, b: [record_with(a, time_s=False), b],
                  lambda a: "time_s must be a JSON number, got false"),
    "time_past_float": (lambda a, b: [record_with(a, time_s=10 ** 400), b],
                        lambda a: "int too large to convert to float"),
    "unknown_role": (lambda a, b: [record_with(a, role="pilot"), b],
                     lambda a: "'pilot' is not a valid Role"),
    "unknown_action": (lambda a, b: [record_with(a, action="fly"), b],
                       lambda a: "'fly' is not a valid ActionTag"),
}


@pytest.mark.parametrize("case", sorted(LINE_ERRORS))
def test_record_error_messages_unchanged(tmp_path, sim_session, case):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    rewrite, detail = LINE_ERRORS[case]
    log.write_text("\n".join(lines[:4] + rewrite(lines[4], lines[5]) + lines[6:]) + "\n")
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert exc.value.line == 5
    assert str(exc.value) == f"{log}:5: bad record: {detail(lines[4])}"
    assert outcome(read_session, log) == outcome(read_session_reference, log)


@pytest.mark.parametrize("bad_role_first", [True, False])
def test_line_that_does_not_parse_comes_after_earlier_lines_checks(tmp_path, sim_session,
                                                                    bad_role_first):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    bad = [record_with(lines[3], role="pilot"), "{bad"]
    lines[3:5] = bad if bad_role_first else bad[::-1]
    log.write_text("\n".join(lines) + "\n")
    got = outcome(read_session, log)
    assert got == outcome(read_session_reference, log)
    assert got[4] == 4


def test_nan_session_id_differs_from_itself(tmp_path, sim_session):
    # json reads every NaN as one float object, which is still unequal to itself
    log, _ = write_session(replace(sim_session, session_id=float("nan")), tmp_path / "s.jsonl")
    got = outcome(read_session, log)
    assert got == outcome(read_session_reference, log)
    assert got[2] == f"{log}:1: session_id differs from manifest"


def test_string_coordinates_are_refused(tmp_path, sim_session):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    rec = json.loads(lines[4])
    lines[4] = record_with(lines[4], x=str(rec["x"]), target_y=str(rec["target_y"]))
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    # the target is checked before the cell
    assert str(exc.value) == (f'{log}:5: bad record: target_y must be a JSON integer, '
                              f'got "{rec["target_y"]}"')


def test_minus_one_target_round_trips_byte_identically(tmp_path, sim_session):
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    lines[4] = record_with(lines[4], target_x=-1, target_y=-1)
    log.write_text("\n".join(lines) + "\n")
    again, again_manifest = write_session(read_session(log), tmp_path / "again.jsonl")
    assert again.read_bytes() == log.read_bytes()
    assert again_manifest.read_bytes() == manifest.read_bytes()


def test_int_columns_hold_the_signed_64_bit_range(tmp_path, sim_session):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    lines[4] = record_with(lines[4], x=2 ** 63 - 1, target_y=-2 ** 63)
    log.write_text("\n".join(lines) + "\n")
    s = read_session(log, validate=False)
    again, _ = write_session(s, tmp_path / "again.jsonl")
    assert again.read_bytes() == log.read_bytes()


# A value that fits no int column: json reads Infinity as a float that int()
# refuses, and 1e19 as a float whose int needs more than 64 bits. Such a
# value used to escape as an OverflowError, or (beyond 64 bits) to pass the
# reader and fail validation.
HUGE_FIELDS = {
    "x_infinity": {"x": float("inf")},
    "tick_infinity": {"tick": float("inf")},
    "x_beyond_64_bits": {"x": 1e19},
    "x_below_64_bits": {"x": -1e19},
    "tick_beyond_64_bits": {"tick": 1e19},
    "target_just_past_64_bits": {"target_x": 2 ** 63},
}


@pytest.mark.parametrize("case", sorted(HUGE_FIELDS))
def test_int_outside_64_bits_names_path_and_line(tmp_path, sim_session, capsys, case):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text().splitlines()
    lines[4] = record_with(lines[4], **HUGE_FIELDS[case])
    log.write_text("\n".join(lines) + "\n")
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert (exc.value.path, exc.value.line) == (log, 5)
    assert main(["metrics", str(log)]) == EXIT_IO
    assert f"{log}:5: bad record" in capsys.readouterr().err


def test_infinite_event_cell_names_manifest(tmp_path, sim_session, capsys):
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    doc = json.loads(manifest.read_text())
    doc["events"][0]["x"] = float("inf")
    manifest.write_text(json.dumps(doc))
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert exc.value.path == manifest
    assert main(["metrics", str(log)]) == EXIT_IO
    assert f"{manifest}: bad manifest" in capsys.readouterr().err


def test_infinite_map_cell_names_map(tmp_path, sim_session, capsys):
    path = write_map(builtin_map("small"), tmp_path / "m.json")
    doc = json.loads(path.read_text())
    doc["walls"][0] = [float("inf"), 1]
    path.write_text(json.dumps(doc))
    with pytest.raises(SessionFormatError) as exc:
        read_map(path)
    assert exc.value.path == path
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    assert main(["metrics", str(log), "--map", str(path)]) == EXIT_IO
    assert f"{path}: bad map" in capsys.readouterr().err


# One JSON value nested past the parser's recursion limit.
DEEP = "[" * 100000 + "]" * 100000


@pytest.mark.parametrize("kind", ["log_line", "manifest", "map"])
def test_deeply_nested_json_names_the_file(tmp_path, sim_session, capsys, kind):
    log, manifest = write_session(sim_session, tmp_path / "s.jsonl")
    argv = ["metrics", str(log)]
    if kind == "log_line":
        lines = log.read_text().splitlines()
        log.write_text("\n".join(lines[:4] + [DEEP] + lines[5:]) + "\n")
        where = f"{log}:5: bad record: maximum recursion depth exceeded"
        assert outcome(read_session, log) == outcome(read_session_reference, log)
    elif kind == "manifest":
        manifest.write_text(DEEP)
        where = f"{manifest}: bad manifest JSON: maximum recursion depth exceeded"
    else:
        path = tmp_path / "m.json"
        path.write_text(DEEP)
        argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
        where = f"{path}: bad map file JSON: maximum recursion depth exceeded"
    assert main(argv) == EXIT_IO
    assert where in capsys.readouterr().err


# Player and session ids that JSON escapes, and times it writes specially.
ODD_IDS = ('med"ic', "back\\slash", "médic-ü-世界", "tab\there\x00\x1f\x7f", " line")
ODD_TIMES = (float("nan"), float("inf"), float("-inf"), -0.0, 5e-324)


def test_writer_escapes_ids_and_times_like_json_dumps(tmp_path):
    rows = [(t, ODD_TIMES[t % len(ODD_TIMES)], t, 0, t % 6 - 1)
            + ((-1, -1, True) if t % 2 else (0, 0, False)) for t in range(10)]
    players = tuple(PlayerTrajectory(pid, role, rows)
                    for pid, role in zip(ODD_IDS, [Role.MEDIC, Role.ENGINEER] * 3))
    s = TeamSession('sess "ion\\é\n', GridSpec(12, 4), players)
    log, _ = write_session(s, tmp_path / "s.jsonl")
    assert log.read_bytes() == session_log_reference(s)
    assert b'"target_x":-1,"target_y":-1' in log.read_bytes()
    again = read_session(log, validate=False)
    assert [p.samples.tobytes() for p in again.players] == [p.samples.tobytes() for p in players]


def test_zero_tick_session_writes_an_empty_log(tmp_path):
    players = tuple(PlayerTrajectory(f"p{i}", Role.MEDIC, []) for i in range(4))
    s = TeamSession("empty", GridSpec(3, 3), players)
    log, _ = write_session(s, tmp_path / "s.jsonl")
    assert log.read_bytes() == b"" == session_log_reference(s)
    assert read_session(log, validate=False) == s


def test_writer_matches_reference_on_simulated_and_random_sessions(tmp_path, sim_session):
    rng = np.random.default_rng(31)
    for i, s in enumerate([sim_session] + [random_session(rng, session_id=f"r{i}")
                                           for i in range(10)]):
        log, _ = write_session(s, tmp_path / f"{i}.jsonl")
        assert log.read_bytes() == session_log_reference(s)


@pytest.mark.parametrize("bad", [b"\xff", b"\xc3(", b"\xe2\x82"])
def test_log_line_not_utf8_names_path_and_line(tmp_path, sim_session, capsys, bad):
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_bytes().split(b"\n")
    lines[2] = lines[2][:30] + bad + lines[2][30:]
    log.write_bytes(b"\r\n".join(lines))
    with pytest.raises(SessionFormatError) as exc:
        read_session(log)
    assert str(exc.value) == f"{log}:3: line is not UTF-8"
    assert main(["metrics", str(log)]) == EXIT_IO
    assert f"{log}:3: line is not UTF-8" in capsys.readouterr().err


@pytest.fixture
def per_line_decodes(monkeypatch):
    """A list that gains an item each time a log is decoded one line at a
    time because its one parse of the whole log is not trusted."""
    calls = []
    decode = session_io._decode_lines
    monkeypatch.setattr(session_io, "_decode_lines",
                        lambda texts: calls.append(1) or decode(texts))
    return calls


def replaced(old: str, new: str):
    return lambda a, b: [a.replace(old, new, 1)]


# Logs made from the example's first two lines: a, `{"action":"move",
# "player_id":"engineer1",...,"target_x":1,"target_y":0,"tick":0,
# "time_s":0.0,"x":1,"y":1}`, and b, engineer2's record at tick 0. These
# one-record logs are in the form `write_session` writes ...
WRITER_FORM_VARIANTS = {
    "as_written": lambda a, b: [a],
    "no_target": replaced('"target_x":1,"target_y":0,', ""),
    "null_action": replaced('"action":"move"', '"action":null'),
    "time_1e-05": replaced('"time_s":0.0', '"time_s":1e-05'),
    "time_nan": replaced('"time_s":0.0', '"time_s":NaN'),
    "time_minus_infinity": replaced('"time_s":0.0', '"time_s":-Infinity'),
    "negative_ints": lambda a, b: [a.replace(
        '"target_x":1,"target_y":0,"tick":0', '"target_x":-1,"target_y":-7,"tick":-3').replace(
        '"x":1,"y":1', '"x":-20,"y":-9')],
}
# ... these are in another form ...
OTHER_FORM_VARIANTS = {
    "time_minus_zero_int": replaced('"time_s":0.0', '"time_s":-0'),
    "time_zero_int": replaced('"time_s":0.0', '"time_s":0'),
    "space_after_colon": replaced('"tick":0', '"tick": 0'),
    "reordered_keys": replaced('"x":1,"y":1', '"y":1,"x":1'),
    "escaped_session_id_letter": replaced('-s00001"', '-\\u007300001"'),
    "arabic_indic_tick": replaced('"tick":0', '"tick":٠'),
    "leading_zero_tick": replaced('"tick":0', '"tick":01'),
    "plus_tick": replaced('"tick":0', '"tick":+1'),
    "tick_2_63": replaced('"tick":0', f'"tick":{2 ** 63}'),
    "duplicate_tick": lambda a, b: [a, a],
    "duplicate_key": replaced('"y":1}', '"y":1,"y":2}'),
    "indented_line": lambda a, b: [" " + a, b],
    "trailing_space": lambda a, b: [a + " \t", b],
    "blank_line_between": lambda a, b: [a, "", b],
}
# ... and these parse as a whole log, but that parse must not be trusted: a
# list that spans two lines, so line 1 alone is no JSON; a list that holds
# the next line's record; two records on one line; a record holding an
# object; a number in front of a record.
BULK_PARSE_TRAPS = {
    "list_spans_two_lines": lambda a, b: [a[:-1] + ',"z":[0', "0]}," + b],
    "next_record_inside_a_list": lambda a, b: [a[:-1] + ',"z":[0', b + "]}"],
    "two_records_on_a_line": lambda a, b: [a + "," + b],
    "nested_object": lambda a, b: [a[:-1] + ',"z":{"k":1}}', b],
    "value_before_a_record": lambda a, b: ["5," + a, b],
}
LOG_VARIANTS = {**WRITER_FORM_VARIANTS, **OTHER_FORM_VARIANTS, **BULK_PARSE_TRAPS}


@pytest.mark.parametrize("case", sorted(WRITER_FORM_VARIANTS) + sorted(OTHER_FORM_VARIANTS)
                         + sorted(BULK_PARSE_TRAPS))
def test_writer_form_boundary_matches_reference(tmp_path, per_line_decodes, case):
    lines = LOG_VARIANTS[case](*EXAMPLE_LOG.read_text(encoding="utf-8").splitlines()[:2])
    log = tmp_path / "s.jsonl"
    log.write_text("".join(line + "\n" for line in lines), encoding="utf-8")
    manifest_path_for(log).write_bytes(manifest_path_for(EXAMPLE_LOG).read_bytes())
    for validate in (True, False):
        got = outcome(partial(read_session, validate=validate), log)
        assert got == outcome(partial(read_session_reference, validate=validate), log)
    if case in WRITER_FORM_VARIANTS or case == "nested_object":
        assert got[0] == "read"
    if case in BULK_PARSE_TRAPS:
        assert len(per_line_decodes) == 2
        assert case == "nested_object" or got[4] == 1  # line 1 alone is no record


def test_brace_in_session_id_reads_line_by_line(tmp_path, per_line_decodes):
    s = random_session(np.random.default_rng(3), session_id="run{7}")
    log, _ = write_session(s, tmp_path / "s.jsonl")
    assert read_session(log) == s
    assert per_line_decodes == [1]
    assert outcome(read_session, log) == outcome(read_session_reference, log)


# The bench's mixed team, next to the three one-policy teams.
WRITTEN_TEAMS = ("random_walk", "greedy", "coordinated",
                 "medic:coordinated,medic:greedy,engineer:greedy,engineer:random_walk")


def test_every_written_session_reads_column_by_column(tmp_path, per_line_decodes, capsys):
    # every log that `write_session` writes takes the one parse of the whole log
    names = [spec.name for spec in builtin_maps()]
    for name in names:
        for k, team in enumerate(WRITTEN_TEAMS):
            assert main(["simulate", "--map", name, "--policies", team, "--runs", "2",
                         "--out", str(tmp_path / f"{name}-{k}")]) == 0
    capsys.readouterr()
    logs = sorted(tmp_path.glob("*/*.jsonl"))
    assert len(logs) == len(names) * len(WRITTEN_TEAMS) * 2
    for log in [*logs, EXAMPLE_LOG, REPLAY_LOG]:
        got = outcome(read_session, log)
        assert got[0] == "read"
        assert got == outcome(read_session_reference, log), log.name
    assert per_line_decodes == []


def test_shuffled_log_reads_as_written(tmp_path, per_line_decodes, sim_session):
    # the reader sorts each player's records itself, whatever order the lines are in
    log, _ = write_session(sim_session, tmp_path / "s.jsonl")
    lines = log.read_text(encoding="utf-8").splitlines(keepends=True)
    random.Random(23).shuffle(lines)
    shuffled = "".join(lines)
    assert shuffled != log.read_text(encoding="utf-8")
    log.write_text(shuffled, encoding="utf-8")
    assert read_session(log) == sim_session
    assert outcome(read_session, log) == outcome(read_session_reference, log)
    assert per_line_decodes == []
