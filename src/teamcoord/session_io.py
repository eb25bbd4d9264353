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
import re
from dataclasses import dataclass, replace
from itertools import repeat
from pathlib import Path
from typing import Iterable, Sequence

import numpy as np

from .core import (
    ACTIONS,
    ActionTag,
    GridSpec,
    MapMeta,
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
from .sim.world import MapSpec, Victim

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
        "mission_duration_s": session.mission_duration_s,
        "red_cutoff_s": session.red_cutoff_s,
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


def _id_run(session_id, player_id, role: Role) -> str:
    """The player_id, role and session_id members of a player's log lines."""
    return (f'"player_id":{_to_json(player_id)},"role":{_to_json(role.value)}'
            f',"session_id":{_to_json(session_id)}')


def _player_lines(session_id, player: PlayerTrajectory) -> list[str]:
    """One player's log lines, newline included, in tick order: the record
    with sorted keys that `json.dumps` writes, filled into a template that
    holds the player's escaped ids."""
    s = player.samples
    ids = f",{_id_run(session_id, player.player_id, player.role)},"
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
    if not path.exists():
        raise SessionFormatError(f"missing {what}", path)
    try:
        return json.loads(path.read_text(encoding="utf-8"))
    except (json.JSONDecodeError, UnicodeDecodeError) as exc:
        raise SessionFormatError(f"bad {what} JSON: {exc}", path) from exc


def read_session(log_path, validate: bool = True) -> TeamSession:
    """Parse a session log plus manifest; validates unless told otherwise.

    Each non-blank log line must hold exactly one JSON object, and a line
    that fails any of these checks raises `SessionFormatError` naming the
    log path and line number, in this order:

    - the line is UTF-8 (the whole log is decoded before any record is read);
    - the line parses as one JSON value with nothing after it;
    - it has a `session_id` equal to the manifest's;
    - its `player_id` is on the manifest roster;
    - its `role` is a known role and the roster's role for that player;
    - its `action` is null or a known action;
    - `target_x` and `target_y` are both present or both absent, and
      convert to int when present;
    - its `tick` converts to int and is not already logged for the player;
    - `time_s` converts to float and `x`, `y` convert to int;
    - `tick`, `x`, `y` and the target fit in a signed 64-bit int.

    A missing key or a value of the wrong type is reported as `bad record`.
    A log whose lines are byte for byte what `write_session` writes is
    converted column by column; any other log is converted one record at a
    time. Both give the same session and the same errors.

    With `validate`, the parsed session must also pass `validate_session`.
    Last, the manifest's `map_meta`, when present, becomes the session's `map_meta`, which
    `write_session` writes back; a malformed one is a `bad map_meta` error on the manifest.
    """
    log_path = Path(log_path)
    manifest_path = manifest_path_for(log_path)
    manifest = _load_json(manifest_path, "manifest")
    try:
        _require(manifest["format_version"] == FORMAT_VERSION,
                 f"unsupported format_version {manifest['format_version']!r}", manifest_path)
        session_id = manifest["session_id"]
        grid = GridSpec(int(manifest["grid"]["width"]), int(manifest["grid"]["height"]))
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
                time_s=float(entry["time_s"]),
                victim_type=VictimType(entry["victim_type"]),
                victim_cell=Position(int(entry["x"]), int(entry["y"])),
                actor_ids=actors))
        mission_duration_s = float(manifest["mission_duration_s"])
        red_cutoff_s = float(manifest["red_cutoff_s"])
        sample_interval_s = float(manifest["sample_interval_s"])
    except _MALFORMED as exc:
        raise _malformed("manifest", exc, manifest_path) from None

    if not log_path.exists():
        raise SessionFormatError("missing log file", log_path)
    lines = _log_lines(log_path)
    samples = _columnar_samples(lines, session_id, roster)
    if samples is None:
        samples = _record_samples(lines, session_id, roster, log_path)
    players = tuple(PlayerTrajectory(player_id=pid, role=roster[pid], samples=samples[pid])
                    for pid in roster)

    session = TeamSession(
        session_id=session_id, grid=grid, players=players, events=tuple(events),
        mission_duration_s=mission_duration_s, red_cutoff_s=red_cutoff_s,
        sample_interval_s=sample_interval_s)
    if validate:
        report = validate_session(session)
        if report:
            raise SessionValidationError(log_path, report)
    raw = manifest.get("map_meta")
    if raw is None:
        return session
    try:
        meta = MapMeta(traversable_cells=int(raw["traversable_cells"]),
                       max_tasks={Role(k): int(v) for k, v in raw["max_tasks"].items()})
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


def _log_lines(log_path: Path) -> list[str]:
    """The lines of a log, split at LF, CRLF and CR as a text-mode read
    splits them; a byte that is not UTF-8 is an error on its line."""
    text = read_utf8(log_path)
    if "\r" in text:
        text = text.replace("\r\n", "\n").replace("\r", "\n")
    return text.split("\n")


# One log line exactly as `_player_lines` writes it: sorted keys, no
# whitespace, strings without escapes, JSON ints (`[0-9]`, since `\d` matches
# other digits too) and a time with a fraction or an exponent, or NaN,
# Infinity or -Infinity. No part matches a newline. The groups are the
# action, the player_id/role/session_id run, the target x and y ('' when
# absent), the tick, the time, x and y.
_INT = r"-?(?:0|[1-9][0-9]*)"
_STR = r'"[^"\\\n]*"'
_WRITER_FORM = re.compile(
    rf'^\{{"action":({"|".join(map(re.escape, _ACTION_JSON.values()))}),'
    rf'("player_id":{_STR},"role":{_STR},"session_id":{_STR})'
    rf'(?:,"target_x":({_INT}),"target_y":({_INT}))?,"tick":({_INT}),'
    rf'"time_s":({_INT}(?:\.[0-9]+(?:[eE][-+]?[0-9]+)?|[eE][-+]?[0-9]+)|NaN|-?Infinity),'
    rf'"x":({_INT}),"y":({_INT})\}}$', re.MULTILINE)
_ACTION_OF_JSON = {text: i for i, text in _ACTION_JSON.items()}


def _columnar_samples(lines, session_id, roster: dict[str, Role]) -> dict[str, np.ndarray] | None:
    """Each roster player's SAMPLE rows in tick order, built column by column
    when every non-blank line is byte for byte a line `write_session` writes
    for this manifest: a roster player with its roster role, the manifest's
    session id, ints within 64 bits and ticks unique per player. Returns
    None when any line is not, so that `_record_samples` converts the file
    one record at a time.
    """
    texts = list(filter(None, map(str.strip, lines)))
    # a match spans one whole line, so each line matches when the counts agree
    records = _WRITER_FORM.findall("\n".join(texts))
    if len(records) != len(texts):
        return None
    n = len(records)
    actions, ids, target_x, target_y, ticks, times, xs, ys = list(zip(*records)) or [()] * 8
    player = {_id_run(session_id, pid, role): i for i, (pid, role) in enumerate(roster.items())}
    owner = np.fromiter(map(player.get, ids, repeat(-1)), np.intp, n)
    if (owner < 0).any():
        return None
    # an absent target is '' and reads as 0, as in `_record_samples`
    tokens = [t or "0" for t in ticks + xs + ys + target_x + target_y] + list(times)
    try:  # one parse reads each number as json.loads reads it in a record
        numbers = json.loads(f"[{','.join(tokens)}]")
        ints = np.array(numbers[:5 * n], np.int64).reshape(5, n)
    except (OverflowError, ValueError):  # past 64 bits, or too many digits for an int
        return None

    rows = np.zeros(n, SAMPLE)
    rows["tick"], rows["x"], rows["y"], rows["target_x"], rows["target_y"] = ints
    rows["time_s"], rows["has_target"] = numbers[5 * n:], np.fromiter(map(bool, target_x), bool, n)
    rows["action"] = np.fromiter(map(_ACTION_OF_JSON.__getitem__, actions), np.int8, n)
    order = np.lexsort((rows["tick"], owner))
    rows, owner = rows[order], owner[order]
    if ((owner[1:] == owner[:-1]) & (rows["tick"][1:] == rows["tick"][:-1])).any():
        return None
    bounds = np.searchsorted(owner, np.arange(len(roster) + 1)).tolist()
    return {pid: rows[lo:hi] for pid, lo, hi in zip(roster, bounds, bounds[1:])}


def _record_samples(lines, session_id, roster: dict[str, Role], log_path) -> dict[str, list]:
    """Each roster player's sample tuples in tick order, read one record at a
    time; raises `SessionFormatError` at the first line that fails a check
    `read_session` lists."""
    samples: dict[str, dict[int, tuple]] = {pid: {} for pid in roster}
    for lineno, line in enumerate(lines, start=1):
        line = line.strip()
        if not line:
            continue
        try:
            rec = json.loads(line)
            if rec["session_id"] != session_id:
                raise SessionFormatError("session_id differs from manifest", log_path, lineno)
            pid = rec["player_id"]
            if pid not in roster:
                raise SessionFormatError(f"player {pid!r} not in manifest roster",
                                         log_path, lineno)
            if Role(rec["role"]) is not roster[pid]:
                raise SessionFormatError(f"role mismatch for {pid!r}", log_path, lineno)
            value = rec["action"]
            action = -1 if value is None else ACTIONS.index(ActionTag(value))
            target_x = target_y = 0
            has_target = "target_x" in rec or "target_y" in rec
            if has_target:
                if "target_x" not in rec or "target_y" not in rec:
                    raise SessionFormatError("target needs both coordinates", log_path, lineno)
                target_x, target_y = int(rec["target_x"]), int(rec["target_y"])
            tick = int(rec["tick"])
            ticks = samples[pid]
            if tick in ticks:
                raise SessionFormatError(f"duplicate tick {tick} for {pid!r}", log_path, lineno)
            time_s = float(rec["time_s"])
            x, y = int(rec["x"]), int(rec["y"])
            if (min(tick, x, y, target_x, target_y) < -2 ** 63
                    or max(tick, x, y, target_x, target_y) >= 2 ** 63):
                raise OverflowError("int outside the signed 64-bit range")
            ticks[tick] = (tick, time_s, x, y, action, target_x, target_y, has_target)
        except _MALFORMED as exc:
            raise _malformed("record", exc, log_path, lineno) from None
    return {pid: sorted(ticks.values()) for pid, ticks in samples.items()}


# ---------------------------------------------------------------------------
# Maps


def write_map(spec: MapSpec, path) -> Path:
    path = Path(path)
    def cells(values):
        return sorted([[c.x, c.y] for c in values])
    doc = {
        "format_version": FORMAT_VERSION,
        "name": spec.name,
        "width": spec.grid.width,
        "height": spec.grid.height,
        "walls": cells(spec.walls),
        "doors": cells(spec.doors),
        "rubble": cells(spec.rubble),
        "victims": [{"x": v.cell.x, "y": v.cell.y, "type": v.kind.value}
                    for v in spec.victims],
        "start": [spec.start.x, spec.start.y],
        "mission_duration_s": spec.mission_duration_s,
        "red_cutoff_s": spec.red_cutoff_s,
        "fov_radius": spec.fov_radius,
    }
    path.write_text(json.dumps(doc, sort_keys=True, indent=2) + "\n", encoding="utf-8")
    return path


def _json_int(value, name: str) -> int:
    """`value` when JSON wrote it as an integer; a bool, float or string is a TypeError."""
    if type(value) is not int:
        raise TypeError(f"{name} must be a JSON integer, got {json.dumps(value)}")
    return value


def read_map(path) -> MapSpec:
    """A map manifest; its sizes, field of view and cell coordinates must be JSON integers."""
    path = Path(path)
    doc = _load_json(path, "map file")
    def cell(xy, name):
        if type(xy) is not list or len(xy) != 2:
            raise TypeError(f"{name} must be a pair of JSON integers, got {json.dumps(xy)}")
        x, y = xy
        return Position(_json_int(x, name), _json_int(y, name))
    def cells(key):
        return frozenset(cell(xy, key) for xy in doc[key])
    try:
        _require(doc["format_version"] == FORMAT_VERSION,
                 f"unsupported format_version {doc['format_version']!r}", path)
        spec = MapSpec(
            name=doc["name"],
            grid=GridSpec(_json_int(doc["width"], "width"), _json_int(doc["height"], "height")),
            walls=cells("walls"), doors=cells("doors"), rubble=cells("rubble"),
            victims=tuple(Victim(cell([v["x"], v["y"]], "victims"), VictimType(v["type"]))
                          for v in doc["victims"]),
            start=cell(doc["start"], "start"),
            mission_duration_s=float(doc["mission_duration_s"]),
            red_cutoff_s=float(doc["red_cutoff_s"]),
            fov_radius=_json_int(doc["fov_radius"], "fov_radius"))
    except _MALFORMED as exc:
        raise _malformed("map", exc, path) from None
    spec.validate()
    return spec


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


def write_metrics_table(rows: Iterable[MetricsTableRow], path) -> Path:
    path = Path(path)
    path.write_text(format_metrics_table(rows), encoding="utf-8", newline="")
    return path


class MetricTableError(TeamCoordError):
    """A metric table's rows, columns or cells cannot feed the analysis."""


def read_metrics_table(path, columns: Sequence[str] = METRICS_COLUMNS[1:],
                       ids: bool = True) -> tuple[dict, tuple[int, ...]]:
    """The named columns of a metric table, as float arrays, and the file
    line each data row ends on; with `ids`, also the `session_id` column as
    a tuple of unique strings. Other columns, blank lines and one leading
    UTF-8 byte-order mark are skipped.

    A file that is missing or not UTF-8, a line the CSV reader refuses, or a
    row whose field count differs from the header's is a `SessionFormatError`
    naming the path and line. Then no data rows, a missing column, a cell
    that is not a finite number, or a repeated id is a `MetricTableError`;
    docs/formats.md lists every message in check order.
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
    return out, tuple(line for line, _ in rows)


def _numbers(name: str, cells: list[tuple[int, str]]) -> np.ndarray:
    """One column's (line, text) cells as floats; each must be a finite number."""
    values = np.empty(len(cells))
    for k, (line, text) in enumerate(cells):
        try:
            values[k] = float(text)
        except ValueError as exc:
            raise MetricTableError(f"column {name!r} is not numeric: {exc} on line {line}") from None
    bad = np.flatnonzero(~np.isfinite(values))
    if bad.size:
        line, text = cells[bad[0]]
        raise MetricTableError(f"column {name!r} has non-finite value {text!r} on line {line}")
    return values
