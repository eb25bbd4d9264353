"""Bit-exact file formats: session logs, map manifests, metric tables.

A session is stored as a line-delimited log (one JSON object per tick and
player, ordered by tick then player id) plus a sidecar manifest carrying the
grid, the roster, the mission clock and the rescue events. Maps and metric
tables are single JSON / CSV files. All writers emit LF newlines and
locale-independent number formatting, and every format round-trips exactly.
"""
from __future__ import annotations

import csv
import io
import json
import math
from array import array
from contextlib import suppress
from dataclasses import asdict, dataclass, replace
from itertools import repeat
from operator import itemgetter, ne
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ACTIONS,
    ActionTag,
    GridSpec,
    MapMeta,
    MissionClock,
    PlayerTrajectory,
    Position,
    RescueEvent,
    Role,
    SAMPLE,
    TICK_ALIGNMENT,
    TeamCoordError,
    TeamSession,
    VictimType,
    Violation,
    validate_session,
)
from .sim.maps import map_from_cells
from .sim.world import _VICTIM_KINDS, MapSpec

FORMAT_VERSION = 1

METRICS_COLUMNS = ("session_id", "sed", "sms", "spa", "ci", "performance")


class SessionFormatError(TeamCoordError):
    """Malformed file; carries the offending path and line when known."""

    def __init__(self, message: str, path=None, line: int | None = None):
        where = str(path) if path is not None else "<stream>"
        if line is not None:
            where += f":{line}"
        super().__init__(f"{where}: {message}")
        self.path = path
        self.line = line


class SessionValidationError(TeamCoordError):
    """File parsed but the session breaks invariants; the report says how."""

    def __init__(self, path, report):
        super().__init__(f"{path}: invalid session: " + "; ".join(str(v) for v in report[:5]))
        self.report = report


def fmt_float(x: float) -> str:
    # shortest form preserving the exact binary value; never fewer meaningful
    # digits than the value carries
    return format(float(x), ".17g")


def manifest_path_for(log_path) -> Path:
    p = Path(log_path)
    if p.suffix == ".jsonl":
        return p.with_suffix(".manifest.json")
    return Path(str(p) + ".manifest.json")


# ---------------------------------------------------------------------------
# Sessions


def write_session(session: TeamSession, log_path) -> tuple[Path, Path]:
    """Write the trajectory log and its manifest; returns both paths.

    The manifest embeds `session.map_meta` when set. The log holds one line per tick and
    player; players whose tick counts differ raise `SessionValidationError` before any write.
    """
    log_path = Path(log_path)
    manifest_path = manifest_path_for(log_path)
    if len({p.n_ticks for p in session.players}) > 1:
        counts = ", ".join(f"{p.player_id} {p.n_ticks}" for p in session.players)
        message = f"session {session.session_id!r}: players disagree on tick count ({counts})"
        raise SessionValidationError(log_path, [Violation(TICK_ALIGNMENT, message)])

    players = sorted(session.players, key=lambda p: p.player_id)
    by_tick = zip(*(_player_lines(session.session_id, p) for p in players))

    manifest = {
        "format_version": FORMAT_VERSION,
        "session_id": session.session_id,
        "grid": {"width": session.grid.width, "height": session.grid.height},
        **asdict(session.clock),
        "sample_interval_s": session.sample_interval_s,
        "players": [{"player_id": p.player_id, "role": p.role.value} for p in session.players],
        "events": [
            {
                "time_s": e.time_s,
                "victim_type": e.victim_type.value,
                "x": e.victim_cell.x,
                "y": e.victim_cell.y,
                "actor_ids": list(e.actor_ids),
            }
            for e in session.events
        ],
    }
    if (meta := session.map_meta) is not None:
        manifest["map_meta"] = {
            "traversable_cells": meta.traversable_cells,
            "max_tasks": {role.value: n for role, n in sorted(meta.max_tasks.items(),
                                                          key=lambda kv: kv[0].value)},
        }

    log_path.write_text("".join(line for lines in by_tick for line in lines), encoding="utf-8")
    manifest_path.write_text(json.dumps(manifest, sort_keys=True, indent=2) + "\n",
                             encoding="utf-8")
    return log_path, manifest_path


# What `json.dumps(record, sort_keys=True, separators=(",", ":"))` writes for
# one value of a log record, and for each action index (-1 for none).
_to_json = json.JSONEncoder(sort_keys=True, separators=(",", ":")).encode
_ACTION_JSON = {-1: "null", **{i: _to_json(a.value) for i, a in enumerate(ACTIONS)}}


def _player_lines(session_id, player: PlayerTrajectory) -> list[str]:
    """One player's log lines, newline included, in tick order: the record
    with sorted keys that `json.dumps` writes, filled into a template that
    holds the player's escaped ids."""
    s = player.samples
    ids = (f',"player_id":{_to_json(player.player_id)},"role":{_to_json(player.role.value)}'
           f',"session_id":{_to_json(session_id)},')
    times = [repr(t) for t in s["time_s"].tolist()]
    for i in np.flatnonzero(~np.isfinite(s["time_s"])).tolist():
        times[i] = _to_json(s["time_s"][i].item())  # NaN, Infinity, -Infinity
    targets = [f'"target_x":{x},"target_y":{y},' if has else ""
               for x, y, has in zip(s["target_x"].tolist(), s["target_y"].tolist(),
                                    s["has_target"].tolist())]
    actions = np.maximum(s["action"], -1).tolist()  # any negative index is no action
    return [f'{{"action":{_ACTION_JSON[a]}{ids}{target}"tick":{t},"time_s":{time_s},'
            f'"x":{x},"y":{y}}}\n'
            for a, target, t, time_s, x, y in zip(
                actions, targets, s["tick"].tolist(), times,
                s["x"].tolist(), s["y"].tolist())]


def _require(condition: bool, message: str, path, line=None):
    if not condition:
        raise SessionFormatError(message, path, line)


# What converting a parsed JSON value of the wrong shape or type raises.
_MALFORMED = (AttributeError, KeyError, OverflowError, TypeError, ValueError)


def _malformed(what: str, exc: Exception, path, line=None) -> SessionFormatError:
    detail = f"missing {exc.args[0]!r}" if isinstance(exc, KeyError) else str(exc)
    return SessionFormatError(f"bad {what}: {detail}", path, line)


def _load_json(path, what: str):
    _require(path.exists(), f"missing {what}", path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (ValueError, RecursionError) as exc:  # RecursionError: nesting too deep for json
        raise SessionFormatError(f"bad {what} JSON: {exc}", path) from exc


def read_session(log_path, validate: bool = True) -> TeamSession:
    """Parse a session log plus manifest; validates unless told otherwise.

    Each non-blank log line must hold one JSON object. The lowest line that
    fails a check raises `SessionFormatError` naming the log path, the line
    and the first check it fails, in this order:

    - the line is UTF-8 (the whole log is decoded before any record is read);
    - the line parses as one JSON object with nothing after it;
    - it has a `session_id` equal to the manifest's;
    - its `player_id` is on the manifest roster;
    - its `role` is a known role and the roster's role for that player;
    - its `action` is null or a known action;
    - `target_x` and `target_y` are both present or both absent, and are
      JSON integers when present;
    - its `tick` is a JSON integer not already logged for the player;
    - `time_s` is a JSON number within float range, `x` and `y` JSON integers;
    - `tick`, `x`, `y` and the target fit in a signed 64-bit int.

    A missing key or a value of the wrong type (a bool is no integer, a
    string no number) is reported as `bad record`. The manifest is read before
    the log: its grid size and event cells must be JSON integers, and its
    event times and mission clock JSON numbers, or it is a `bad manifest`.

    With `validate`, the parsed session must also pass `validate_session`.
    Last, the manifest's `map_meta`, when present, becomes the session's `map_meta`, which
    `write_session` writes back; a malformed one, or counts that are no JSON integers, is a
    `bad map_meta` error on the manifest.
    """
    log_path = Path(log_path)
    manifest_path = manifest_path_for(log_path)
    manifest = _load_json(manifest_path, "manifest")
    try:
        _require(manifest["format_version"] == FORMAT_VERSION,
                 f"unsupported format_version {manifest['format_version']!r}", manifest_path)
        session_id = manifest["session_id"]
        size = manifest["grid"]
        grid = GridSpec(_json_value(size["width"], "width"), _json_value(size["height"], "height"))
        roster: dict[str, Role] = {}
        for entry in manifest["players"]:
            pid = entry["player_id"]
            _require(pid not in roster, f"player {pid!r} listed twice", manifest_path)
            roster[pid] = Role(entry["role"])
        events = []
        for entry in manifest["events"]:
            actors = tuple(entry["actor_ids"])
            _require(all(isinstance(a, str) for a in actors), "actor ids must be strings",
                     manifest_path)
            events.append(RescueEvent(
                time_s=float(_json_value(entry["time_s"], "time_s", "number")),
                victim_type=VictimType(entry["victim_type"]),
                victim_cell=Position(_json_value(entry["x"], "x"), _json_value(entry["y"], "y")),
                actor_ids=actors))
        *clock, sample_interval_s = (
            float(_json_value(manifest[key], key, "number"))
            for key in ("mission_duration_s", "red_cutoff_s", "sample_interval_s"))
    except _MALFORMED as exc:
        raise _malformed("manifest", exc, manifest_path) from None

    _require(log_path.exists(), "missing log file", log_path)
    players = _log_players(log_path, session_id, roster)

    session = TeamSession(
        session_id=session_id, grid=grid, players=players, events=tuple(events),
        clock=MissionClock(*clock), sample_interval_s=sample_interval_s)
    if validate:
        report = validate_session(session)
        if report:
            raise SessionValidationError(log_path, report)
    raw = manifest.get("map_meta")
    if raw is None:
        return session
    try:
        meta = MapMeta(
            traversable_cells=_json_value(raw["traversable_cells"], "traversable_cells"),
            max_tasks={Role(k): _json_value(v, "max_tasks") for k, v in raw["max_tasks"].items()})
    except _MALFORMED as exc:
        raise _malformed("map_meta", exc, manifest_path) from None
    return replace(session, map_meta=meta)


def read_utf8(path: Path) -> str:
    """The text of a file; a byte that is not UTF-8 is an error on its line."""
    raw = path.read_bytes()
    try:
        return raw.decode("utf-8")
    except UnicodeDecodeError as exc:
        line = len(raw[:exc.start + 1].splitlines())  # the bad byte ends no line
        raise SessionFormatError("line is not UTF-8", path, line) from None


_ABSENT = object()  # a record's value for a key it lacks, which every check refuses
_JSON_TYPES = {"integer": {int}, "number": {int, float}}  # a bool is neither
_ACTION_INDEX = {None: -1, **{a.value: i for i, a in enumerate(ACTIONS)}}
_ROLE_INDEX = {r.value: i for i, r in enumerate(Role)}
_LF, _OPEN, _CLOSE = b"\n{}"  # the bytes of a line break and of an object's braces


def _decode(text: str) -> tuple[list[dict], Exception | None]:
    """The object on each non-blank line: from one parse of the whole log when every line starts
    with `{` and ends with `}`, the log holds no other `{` and the parse gives one dict per line;
    else from one parse per line.

    Then each `{` opens one of the dicts and each line's last `}` closes one, so each dict is
    one line's text. The bytes are checked as numpy masks: UTF-8 writes these three characters
    as one byte each and uses those bytes for nothing else.
    """
    body = text.rstrip("\n")
    b = np.frombuffer(body.encode(), np.uint8)
    ends = np.flatnonzero(b == _LF)  # where each line but the last ends
    if (b.size and b[0] == _OPEN and b[-1] == _CLOSE and (b[ends - 1] == _CLOSE).all()
            and (b[ends + 1] == _OPEN).all() and np.count_nonzero(b == _OPEN) == ends.size + 1):
        with suppress(ValueError, RecursionError):  # RecursionError: nesting too deep for json
            records = json.loads("[" + body.replace("\n", ",") + "]")
            if len(records) == ends.size + 1 and set(map(type, records)) == {dict}:
                return records, None
    return _decode_lines(list(filter(None, map(str.strip, text.split("\n")))))


def _decode_lines(texts: list[str]) -> tuple[list[dict], Exception | None]:
    """Each line's object, one line at a time, up to the first line holding none, and its error."""
    records = []
    for text in texts:
        try:
            record = json.loads(text)
            record if type(record) is dict else record["session_id"]  # a non-object raises
        except (ValueError, RecursionError, TypeError) as exc:
            return records, exc
        records.append(record)
    return records, None


def _column(records: list[dict], key: str, absent=_ABSENT) -> list:
    """Each record's value for `key`, or `absent` where a record lacks it."""
    try:
        return list(map(itemgetter(key), records))
    except KeyError:
        return list(map(dict.get, records, repeat(key), repeat(absent)))


def _codes(table: dict, values: list, missing: int) -> np.ndarray:
    """`table[v]` for each of `values`, or `missing` where v is no key."""
    try:
        return np.fromiter(map(table.get, values, repeat(missing)), np.intp, len(values))
    except TypeError:  # an unhashable array or object is no key
        return np.array([missing if type(v) in (list, dict) else table.get(v, missing)
                         for v in values], np.intp)


def _number_column(values: list, kind: str) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """JSON integers as int64 or numbers as float64, with masks of the values that are no JSON
    `kind` and of those the dtype cannot hold (0 in the array); `array` checks the range."""
    code, types = "q" if kind == "integer" else "d", _JSON_TYPES[kind]
    wrong, outside = np.zeros(len(values), bool), np.zeros(len(values), bool)
    if set(map(type, values)) <= types:
        with suppress(OverflowError):
            return np.asarray(array(code, values)), wrong, outside
    kept = array(code)
    for k, value in enumerate(values):
        wrong[k] = type(value) not in types
        try:
            kept.append(0 if wrong[k] else value)
        except OverflowError:
            kept.append(0)
            outside[k] = True
    return np.asarray(kept), wrong, outside


def _log_players(log_path: Path, session_id, roster: dict[str, Role]) -> tuple:
    """Each roster player's trajectory; each check `read_session` lists is a column mask."""
    text = read_utf8(log_path)  # CRLF and CR end a line too, as in a text-mode read
    text = text.replace("\r\n", "\n").replace("\r", "\n") if "\r" in text else text
    records, undecoded = _decode(text)
    n = len(records)
    player = _codes({pid: i for i, pid in enumerate(roster)}, _column(records, "player_id"), -1)
    roster_role = np.array([_ROLE_INDEX[r.value] for r in roster.values()] + [-1])[player]
    has_x, has_y = (np.fromiter(map(dict.__contains__, records, repeat(key, n)), bool, n)
                    for key in ("target_x", "target_y"))
    (tick, x, y, target_x, target_y), wrong, outside = zip(*(
        _number_column(_column(records, key, absent), "integer")
        for key, absent in (("tick", _ABSENT), ("x", _ABSENT), ("y", _ABSENT),
                            ("target_x", 0), ("target_y", 0))))  # an absent target reads as 0
    times, bad_time, big_time = _number_column(_column(records, "time_s"), "number")
    action = _codes(_ACTION_INDEX, _column(records, "action"), -2)
    order = np.lexsort((tick, player))
    sorted_player, sorted_tick = player[order], tick[order]
    repeated = np.zeros(n, bool)  # a player's tick on an earlier line
    repeated[order[1:][(sorted_player[1:] == sorted_player[:-1])
                       & (sorted_tick[1:] == sorted_tick[:-1])]] = True
    # Each check's mask, true on its failing lines (and maybe on lines an earlier check fails),
    # and its message for one, which reading a missing or wrong-typed field raises instead.
    checks = (
        (np.fromiter(map(ne, _column(records, "session_id"), repeat(session_id)), bool, n),
         lambda r: r["session_id"] != session_id and "session_id differs from manifest"),
        (player < 0,
         lambda r: r["player_id"] in roster or f"player {r['player_id']!r} not in manifest roster"),
        (_codes(_ROLE_INDEX, _column(records, "role"), -2) != roster_role,
         lambda r: Role(r["role"]) and f"role mismatch for {r['player_id']!r}"),
        (action < -1, lambda r: ActionTag(r["action"])),
        ((has_x != has_y) | wrong[3] | wrong[4],
         lambda r: "target needs both coordinates" if ("target_x" in r) != ("target_y" in r)
         else (_json_value(r["target_x"], "target_x"), _json_value(r["target_y"], "target_y"))),
        (wrong[0] | repeated & ~outside[0],  # a tick past 64 bits reads as 0 but repeats none
         lambda r: f"duplicate tick {_json_value(r['tick'], 'tick')} for {r['player_id']!r}"),
        (bad_time | big_time, lambda r: float(_json_value(r["time_s"], "time_s", "number"))),
        (wrong[1] | wrong[2], lambda r: (_json_value(r["x"], "x"), _json_value(r["y"], "y"))),
        (np.any(outside, axis=0), lambda r: "bad record: int outside the signed 64-bit range"),
    )
    failed = np.array([mask for mask, _ in checks])
    k = int(np.argmax(failed.any(axis=0))) if failed.any() else n  # n: the undecoded line
    if k < n or undecoded is not None:
        line = [i for i, t in enumerate(text.split("\n"), start=1) if t.strip()][k]
        try:
            if k == n:
                raise undecoded
            message = checks[int(np.argmax(failed[:, k]))][1](records[k])
        except (*_MALFORMED, RecursionError) as exc:
            raise _malformed("record", exc, log_path, line) from None
        raise SessionFormatError(message, log_path, line)
    # every player's rows in one read-only array, in (player, tick) order, which each
    # trajectory holds a slice of
    rows = np.empty(n, SAMPLE)
    for name, values in zip(SAMPLE.names, (tick, times, x, y, action, target_x, target_y, has_x)):
        rows[name] = values[order]
    rows.flags.writeable = False
    bounds = np.searchsorted(sorted_player, np.arange(len(roster) + 1)).tolist()
    return tuple(PlayerTrajectory(pid, role, rows[lo:hi])
                 for (pid, role), lo, hi in zip(roster.items(), bounds, bounds[1:]))


# ---------------------------------------------------------------------------
# Maps


def write_map(spec: MapSpec, path) -> Path:
    """Write `spec`, each cell list sorted by x, then y."""
    path = Path(path)
    g, codes = spec.grid, spec.victim_codes
    def cells(values):
        return np.transpose(np.nonzero(values.reshape(g.height, g.width).T)).tolist()
    doc = {
        "format_version": FORMAT_VERSION,
        "name": spec.name,
        "width": g.width,
        "height": g.height,
        "walls": cells(spec.wall_mask),
        "doors": cells(spec.door_mask),
        "rubble": cells(spec.rubble_mask),
        "victims": [{"x": x, "y": y, "type": _VICTIM_KINDS[codes[y * g.width + x]].value}
                    for x, y in cells(codes)],
        "start": [spec.start % g.width, spec.start // g.width],
        **asdict(spec.clock),
        "fov_radius": spec.fov_radius,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _json_value(value, name: str, kind: str = "integer"):
    """`value` if JSON wrote it as a `kind`: "integer" (no bool or float) or "number" (no bool)."""
    if type(value) not in _JSON_TYPES[kind]:
        raise TypeError(f"{name} must be a JSON {kind}, got {json.dumps(value)}")
    return value


def read_map(path) -> MapSpec:
    """A map manifest; its sizes, field of view and cell coordinates must be JSON
    integers, its mission clock JSON numbers, and its map pass `map_from_cells`."""
    path = Path(path)
    doc = _load_json(path, "map file")
    def cell(xy, name):
        if type(xy) is not list or len(xy) != 2:
            raise TypeError(f"{name} must be a pair of JSON integers, got {json.dumps(xy)}")
        x, y = xy
        return _json_value(x, name), _json_value(y, name)
    def cells(key):
        return [cell(xy, key) for xy in doc[key]]
    try:
        _require(doc["format_version"] == FORMAT_VERSION,
                 f"unsupported format_version {doc['format_version']!r}", path)
        fields = dict(
            name=doc["name"],
            grid=GridSpec(_json_value(doc["width"], "width"), _json_value(doc["height"], "height")),
            walls=cells("walls"), doors=cells("doors"), rubble=cells("rubble"),
            victims=[(*cell([v["x"], v["y"]], "victims"), VictimType(v["type"]))
                     for v in doc["victims"]],
            start=cell(doc["start"], "start"),
            clock=MissionClock(*(float(_json_value(doc[key], key, "number"))
                                 for key in ("mission_duration_s", "red_cutoff_s"))),
            fov_radius=_json_value(doc["fov_radius"], "fov_radius"))
    except _MALFORMED as exc:
        raise _malformed("map", exc, path) from None
    return map_from_cells(**fields)


# ---------------------------------------------------------------------------
# Metric tables


@dataclass(frozen=True)
class MetricsTableRow:
    session_id: str
    sed: float
    sms: float
    spa: float
    ci: float
    performance: int


def format_metrics_table(rows: Iterable[MetricsTableRow]) -> str:
    """The metric table as CSV text: the header, then one row per session."""
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(METRICS_COLUMNS)
    for r in rows:
        writer.writerow([r.session_id, fmt_float(r.sed), fmt_float(r.sms),
                         fmt_float(r.spa), fmt_float(r.ci), str(int(r.performance))])
    return buf.getvalue()


class MetricTableError(TeamCoordError):
    """A metric table's rows, columns or cells cannot feed the analysis."""


def read_metrics_table(path, columns: Sequence[str] = METRICS_COLUMNS[1:],
                       ids: bool = True) -> dict:
    """The named columns of a metric table, as float arrays; with `ids`, also
    the `session_id` column as a tuple of unique strings. Other columns,
    blank lines and one leading UTF-8 byte-order mark are skipped.

    A file that is missing or not UTF-8, a line the CSV reader refuses, or a
    row whose field count differs from the header's is a `SessionFormatError`
    naming the path and line. Then no data rows, a missing column, a cell
    that is not a finite number of magnitude at most `_CELL_LIMIT` (1e50), or
    a repeated id is a `MetricTableError`; docs/formats.md lists every message
    in check order.
    """
    path = Path(path)
    if not path.exists():
        raise SessionFormatError("missing table", path)
    text = read_utf8(path).removeprefix("\ufeff")  # a spreadsheet export's byte-order mark
    reader = csv.reader(io.StringIO(text, newline=""))
    try:
        (_, header), *rows = [(reader.line_num, rec) for rec in reader if rec] or [(0, [])]
    except csv.Error as exc:
        raise SessionFormatError(f"bad CSV: {exc}", path, reader.line_num) from None
    for line, rec in rows:
        _require(len(rec) == len(header), f"expected {len(header)} fields", path, line)
    if not rows:
        raise MetricTableError("table has no data rows")
    index = {name: i for i, name in enumerate(header)}
    missing = [n for n in columns if n not in index]
    if missing:
        raise MetricTableError(f"table lacks columns: {', '.join(missing)}")
    out = {n: _numbers(n, [(line, rec[index[n]]) for line, rec in rows]) for n in columns}
    if ids:
        if "session_id" not in index:
            raise MetricTableError("table lacks columns: session_id")
        first: dict[str, int] = {}
        for line, rec in rows:
            sid = rec[index["session_id"]]
            if first.setdefault(sid, line) != line:
                raise MetricTableError(f"session_id {sid!r} on line {line} repeats line {first[sid]}")
        out["session_id"] = tuple(first)  # every id once, in row order
    return out


# The largest magnitude a metric table cell may have. The analyses multiply up
# to four cells together (the mediation determinant, the quadratic's x**4 sums),
# so cells above about 1e77 can overflow float64 to inf (with numpy warnings) or
# raise OverflowError; within 1e50 such products stay far below its largest value.
_CELL_LIMIT = 1e50


def _numbers(name: str, cells: list[tuple[int, str]]) -> np.ndarray:
    """One column's (line, text) cells as floats; each must be a number, then
    each must be finite with a magnitude of at most `_CELL_LIMIT`. The range
    check compares Python floats, so a nan raises no numpy warning on any
    numpy version."""
    values = []
    for line, text in cells:
        try:
            values.append(float(text))
        except ValueError as exc:
            raise MetricTableError(f"column {name!r} is not numeric: {exc} on line {line}") from None
    for (line, text), value in zip(cells, values):
        if not abs(value) <= _CELL_LIMIT:  # nan compares false too
            if not math.isfinite(value):
                raise MetricTableError(f"column {name!r} has non-finite value {text!r} on line {line}")
            raise MetricTableError(f"column {name!r} has value {text!r} above {_CELL_LIMIT:g} "
                                   f"in magnitude on line {line}")
    return np.array(values)
