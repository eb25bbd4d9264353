"""Command-line pipelines: simulate corpora, extract metric tables, run the
statistical analyses, and export temporal trends.

Exit codes are stable so shell pipelines can branch: 0 success, 1 I/O or
unreadable inputs, 2 usage (bad flags, missing columns, too few sessions),
3 domain validation (unknown maps, bad policies, invalid sessions). Every
command is deterministic for fixed flags and inputs.
"""
from __future__ import annotations

import argparse
import csv
import functools
import io
import json
import math
import sys
from pathlib import Path

import numpy as np

from .core import Role, TeamCoordError, TeamSession
from .metrics import (
    SeriesMetric,
    WindowTooLargeError,
    coordination_metrics,
    metric_time_series,
)
from .outcomes import collective_intelligence, team_performance
from .session_io import (
    METRICS_COLUMNS,
    MetricTableError,
    MetricsTableRow,
    SessionFormatError,
    fmt_float,
    format_metrics_table,
    read_map,
    read_metrics_table,
    read_session,
    write_session,
)
from .sim import AgentPolicy, PolicyKind, builtin_map, map_meta, run_mission
from .sim.policies import PolicyParamError
from .stats import (
    DegenerateDataError,
    bootstrap_mediation,
    design_matrix,
    one_way_anova,
    ols,
    performance_groups,
    PerformanceGroup,
    quadratic_fit,
    spearman,
    TooFewTeamsError,
)

EXIT_OK = 0
EXIT_IO = 1
EXIT_USAGE = 2
EXIT_DOMAIN = 3

METRIC_VARS = METRICS_COLUMNS[1:]


class UsageError(Exception):
    """Post-parse flag/input problems that map to exit code 2."""


def _emit(text: str, out: str | None, summary: str) -> None:
    """Write a report to the --out path and print a summary, or write it to stdout."""
    if out:
        Path(out).write_text(text, encoding="utf-8", newline="")
        print(summary)
    else:
        sys.stdout.write(text)


def _load_map(name_or_path: str):
    """A built-in map by name, else a map JSON file; built-in names win."""
    try:
        return builtin_map(name_or_path)
    except KeyError as exc:
        if Path(name_or_path).exists():
            return read_map(name_or_path)
        raise TeamCoordError(f"unknown map: {exc.args[0]}") from None


def _parse_policies(spec_text: str, params: dict) -> list[tuple[Role, AgentPolicy]]:
    entries = [e.strip() for e in spec_text.split(",") if e.strip()]
    if len(entries) == 1 and ":" not in entries[0]:
        entries = [f"medic:{entries[0]}", f"medic:{entries[0]}",
                   f"engineer:{entries[0]}", f"engineer:{entries[0]}"]
    if len(entries) != 4:
        raise UsageError("policies must be one kind or four role:kind entries")
    out = []
    for e in entries:
        if ":" not in e:
            raise UsageError(f"policy entry {e!r} is not role:kind")
        role_text, kind_text = e.split(":", 1)
        try:
            role = Role(role_text.strip())
        except ValueError:
            raise TeamCoordError(f"unknown role {role_text!r}") from None
        try:
            kind = PolicyKind(kind_text.strip())
        except ValueError:
            known = ", ".join(k.value for k in PolicyKind)
            raise TeamCoordError(f"unknown policy {kind_text!r} (known: {known})") from None
        out.append((role, AgentPolicy(kind, params)))
    return out


def _parse_params(pairs) -> dict:
    params = {}
    for pair in pairs or ():
        if "=" not in pair:
            raise UsageError(f"policy parameter {pair!r} is not key=value")
        key, value = (part.strip() for part in pair.split("=", 1))
        try:
            params[key] = float(value)
        except ValueError:
            raise UsageError(f"policy parameter {pair!r} is not numeric") from None
    return params


def _policy_slug(policies) -> str:
    kinds = {p.kind for _, p in policies}
    return next(iter(kinds)).value if len(kinds) == 1 else "mixed"


def cmd_simulate(args) -> int:
    if args.runs < 1:
        raise UsageError("--runs must be at least 1")
    if args.seed < 0:
        raise UsageError("--seed must be non-negative")
    spec = _load_map(args.map)
    policies = _parse_policies(args.policies, _parse_params(args.policy_param))
    out_dir = Path(args.out)
    out_dir.mkdir(parents=True, exist_ok=True)
    slug = _policy_slug(policies)
    for i in range(args.runs):
        seed = args.seed + i
        session_id = f"{spec.name}-{slug}-s{seed:05d}"
        session = run_mission(spec, policies, seed=seed, session_id=session_id)
        log_path, _ = write_session(session, out_dir / f"{session_id}.jsonl")
        perf = team_performance(session.events)
        rescues = ",".join(f"{k.value}={v}" for k, v in sorted(perf.rescues.items(),
                                                               key=lambda kv: kv[0].value))
        print(f"{session_id} points={perf.points} rescues[{rescues}] log={log_path}")
    return EXIT_OK


def _read_failure(path, exc: TeamCoordError) -> str:
    """Why session `path` could not be read, naming `path` once: an error on the
    log starts with it, one on the manifest gets it in front."""
    text = str(exc)
    return text if text.startswith(f"{Path(path)}:") else f"{path}: {text}"


def _read_sessions(paths) -> tuple[list[tuple[str, TeamSession]], bool]:
    """Each readable session of `paths` with its path, in argument order, and
    whether any was unreadable. Every unreadable one is named on stderr as it
    is met, so all of them are named before any later error."""
    sessions, failed = [], False
    for path in paths:
        try:
            sessions.append((path, read_session(path)))
        except TeamCoordError as exc:
            print(f"error: {_read_failure(path, exc)}", file=sys.stderr)
            failed = True
    return sessions, failed


def cmd_metrics(args) -> int:
    if args.coarsen < 1:
        raise UsageError("--coarsen must be at least 1")
    fallback_meta = map_meta(_load_map(args.map)) if args.map else None
    sessions, failed = _read_sessions(args.sessions)
    rows = []
    for path, session in sessions:
        meta = session.map_meta or fallback_meta
        if meta is None:
            raise UsageError(f"{path}: no embedded map metadata; pass --map")
        m = coordination_metrics(session, coarsen=args.coarsen)
        ci = collective_intelligence(session, meta)
        perf = team_performance(session.events)
        rows.append(MetricsTableRow(session_id=session.session_id, sed=m.sed, sms=m.sms,
                                    spa=m.spa, ci=ci.team_ci, performance=perf.points))
    rows.sort(key=lambda r: r.session_id)
    _emit(format_metrics_table(rows), args.out, f"wrote {len(rows)} rows to {args.out}")
    return EXIT_IO if failed else EXIT_OK


# ---------------------------------------------------------------------------
# stats command


def _analysis_correlations(cols, args):
    n = len(cols["sed"])
    out = []
    for a in METRIC_VARS:
        for b in METRIC_VARS:
            if a == b and cols[a].min() < cols[a].max():
                out.append({"var_a": a, "var_b": b, "rho": 1.0, "p_value": 0.0, "n": n})
                continue
            try:
                r = spearman(cols[a], cols[b])
                out.append({"var_a": a, "var_b": b, "rho": r.rho, "p_value": r.p_value,
                            "n": r.n})
            except DegenerateDataError:  # a constant column, itself included: undefined
                out.append({"var_a": a, "var_b": b, "rho": None, "p_value": None, "n": n})
    return out


def _analysis_regression(cols, args):
    X = design_matrix(cols["sed"], cols["sms"], cols["spa"])
    out = []
    for response in ("ci", "performance"):
        res = ols(cols[response], X)
        for name, coef, p in zip(("intercept", "sed", "sms", "spa"),
                                 res.coefficients, res.coef_p_values):
            out.append({"response": response, "term": name, "coefficient": coef,
                        "p_value": p, "r_squared": res.r_squared,
                        "f_stat": res.f_stat, "f_p_value": res.f_p_value})
    return out


def _analysis_quadratic(cols, args):
    out = []
    for metric in ("sed", "sms", "spa"):
        fit = quadratic_fit(cols[metric], cols["performance"])
        out.append({
            "metric": metric, "constant": fit.c0, "linear": fit.c1, "quadratic": fit.c2,
            "constant_p": fit.p_values[0], "linear_p": fit.p_values[1],
            "quadratic_p": fit.p_values[2], "r_squared": fit.r_squared,
            "f_stat": fit.f_stat, "f_p_value": fit.f_p_value,
            "optimal_value": None if math.isnan(fit.vertex_x) else fit.vertex_x,
            "pattern": "flat" if fit.flat else "inverted-u" if fit.inverted_u else "u-or-flat",
        })
    return out


def _analysis_mediation(cols, args):
    out = []
    metrics = ("sed", "sms", "spa")
    results = bootstrap_mediation([cols[metric] for metric in metrics], cols["ci"],
                                  cols["performance"], resamples=args.resamples, seed=args.seed)
    for metric, res in zip(metrics, results):
        out.append({
            "metric": metric, "a": res.a, "b": res.b, "c_total": res.c_total,
            "c_prime": res.c_prime, "indirect": res.indirect_point,
            "ci_low": res.ci_low, "ci_high": res.ci_high,
            "significant": res.significant,
            "pct_mediated": res.pct_mediated,
            "resamples": res.resamples, "seed": res.seed,
        })
    return out


def _analysis_groups(cols, args):
    ids, performance = cols["session_id"], cols["performance"]
    groups = performance_groups(dict(zip(ids, performance)))
    return [{"session_id": sid, "group": groups[sid].value, "performance": score}
            for sid, score in sorted(zip(ids, performance))]


def _analysis_anova(cols, args):
    """Group teams 25/50/25 by each metric and test performance across groups."""
    ids = cols["session_id"]
    out = []
    for metric in ("sed", "sms", "spa"):
        groups = performance_groups(dict(zip(ids, cols[metric])))
        by_group = {g: [] for g in PerformanceGroup}
        for sid, perf in zip(ids, cols["performance"]):
            by_group[groups[sid]].append(perf)
        res = one_way_anova([by_group[PerformanceGroup.BOTTOM25],
                             by_group[PerformanceGroup.MIDDLE50],
                             by_group[PerformanceGroup.TOP25]])
        out.append({
            "metric": metric,
            "mean_low": float(np.mean(by_group[PerformanceGroup.BOTTOM25])),
            "mean_middle": float(np.mean(by_group[PerformanceGroup.MIDDLE50])),
            "mean_high": float(np.mean(by_group[PerformanceGroup.TOP25])),
            "f_stat": res.f, "p_value": res.p_value,
            "df_between": res.df_between, "df_within": res.df_within,
        })
    return out


# each analysis, the numeric columns it reads, and whether it groups rows by session id
_ANALYSES = {
    "correlations": (_analysis_correlations, METRIC_VARS, False),
    "regression": (_analysis_regression, METRIC_VARS, False),
    "quadratic": (_analysis_quadratic, METRIC_VARS, False),
    "mediation": (_analysis_mediation, METRIC_VARS, False),
    "groups": (_analysis_groups, ("performance",), True),
    "timeless-anova": (_analysis_anova, ("sed", "sms", "spa", "performance"), True),
}


def _format_value(v, human: bool) -> str:
    if v is None:  # an undefined statistic
        return ""
    if isinstance(v, bool):
        return str(v).lower()
    if isinstance(v, float):
        return f"{v:.4f}" if human else fmt_float(v)
    return str(v)


def _json_cell(v):
    """`v` as json-lines writes it: JSON has no infinity or nan, so a
    non-finite float becomes a string of its csv text ("inf")."""
    return fmt_float(v) if isinstance(v, float) and not math.isfinite(v) else v


def _render(rows: list[dict], fmt: str) -> str:
    """A report in `fmt`; the columns are the first row's keys, in order. An
    undefined statistic, None, is an empty cell in csv and markdown and null
    in json-lines."""
    columns = list(rows[0])
    if fmt == "json-lines":
        return "".join(json.dumps({c: _json_cell(v) for c, v in r.items()}, allow_nan=False,
                                  sort_keys=True, separators=(",", ":")) + "\n" for r in rows)
    if fmt == "markdown":
        head = "| " + " | ".join(columns) + " |"
        sep = "| " + " | ".join("---" for _ in columns) + " |"
        body = ["| " + " | ".join(_format_value(r[c], True) for c in columns) + " |"
                for r in rows]
        return "\n".join([head, sep, *body]) + "\n"
    buf = io.StringIO()
    writer = csv.writer(buf, lineterminator="\n")
    writer.writerow(columns)
    for r in rows:
        writer.writerow([_format_value(r[c], False) for c in columns])
    return buf.getvalue()


def cmd_stats(args) -> int:
    analysis, names, ids = _ANALYSES[args.analysis]
    cols = read_metrics_table(args.table, names, ids)
    try:
        out_rows = analysis(cols, args)
    except (ValueError, TooFewTeamsError) as exc:  # too few rows, or --resamples out of range
        raise UsageError(str(exc)) from None
    _emit(_render(out_rows, args.format), args.out,
          f"wrote {args.analysis} report to {args.out}")
    return EXIT_OK


def cmd_timeseries(args) -> int:
    if len(args.sessions) < 4:
        raise UsageError("timeseries needs at least 4 sessions for grouping")
    read, failed = _read_sessions(args.sessions)
    if failed:  # the quartile groups are only meaningful over the whole corpus
        return EXIT_IO
    sessions = [session for _, session in read]
    if len({s.clock for s in sessions}) > 1:
        raise UsageError("sessions differ in mission_duration_s or red_cutoff_s; "
                         "progress and phases need one mission clock")
    scores = {s.session_id: float(team_performance(s.events).points) for s in sessions}
    groups = performance_groups(scores)
    cutoff_fraction = sessions[0].clock.red_cutoff_s / sessions[0].clock.mission_duration_s

    bins: dict[tuple[str, float], list[float]] = {}
    for s in sessions:
        group = groups[s.session_id]
        if group is PerformanceGroup.MIDDLE50:
            continue
        try:
            ts = metric_time_series(s, args.metric, window_ticks=args.window,
                                    smooth_ticks=args.smooth)
        except (WindowTooLargeError, ValueError) as exc:  # --window or --smooth out of range
            raise UsageError(str(exc)) from None
        for progress, value in ts.values:
            bins.setdefault((group.value, round(progress, 9)), []).append(value)

    out_rows = [
        {"metric": str(args.metric), "group": group, "progress": progress,
         "value": float(np.mean(vals)),
         "phase": "pre-cutoff" if progress < cutoff_fraction else "post-cutoff"}
        for (group, progress), vals in sorted(bins.items())
    ]
    _emit(_render(out_rows, args.format), args.out, f"wrote {len(out_rows)} rows to {args.out}")
    return EXIT_OK


@functools.cache  # built on the first call, once per process
def build_parser() -> argparse.ArgumentParser:
    # allow_abbrev=False: a flag is spelled in full, so a prefix is an error (exit 2)
    parser = argparse.ArgumentParser(
        prog="teamcoord", allow_abbrev=False,
        description="Simulate grid search-and-rescue missions, score spatial "
                    "coordination, and run the analysis pipeline.")
    sub = parser.add_subparsers(dest="command", required=True)

    p_sim = sub.add_parser("simulate", allow_abbrev=False,
                           help="run seeded missions and write session logs")
    p_sim.add_argument("--map", required=True, help="built-in map name or map JSON path")
    p_sim.add_argument("--policies", default="coordinated",
                       help="one policy kind for all agents, or four role:kind entries")
    p_sim.add_argument("--policy-param", action="append", metavar="KEY=VALUE",
                       help="numeric policy parameter, repeatable")
    p_sim.add_argument("--runs", type=int, default=1)
    p_sim.add_argument("--seed", type=int, default=0)
    p_sim.add_argument("--out", default=".", help="output directory (default .)")

    p_met = sub.add_parser("metrics", allow_abbrev=False,
                           help="compute the per-session metric table")
    p_met.add_argument("sessions", nargs="+", help="session log paths (.jsonl)")
    p_met.add_argument("--coarsen", type=int, default=1,
                       help="pool k x k tile blocks before computing occupancy")
    p_met.add_argument("--map", help="map JSON for sessions without embedded metadata")
    p_met.add_argument("--out", help="output CSV path (default stdout)")

    p_sta = sub.add_parser("stats", allow_abbrev=False,
                           help="run an analysis over a metric table")
    p_sta.add_argument("--table", required=True, help="metric table CSV")
    p_sta.add_argument("--analysis", required=True, choices=sorted(_ANALYSES))
    p_sta.add_argument("--resamples", type=int, default=5000)
    p_sta.add_argument("--seed", type=int, default=0)
    p_sta.add_argument("--format", choices=("csv", "json-lines", "markdown"), default="csv")
    p_sta.add_argument("--out", help="output path (default stdout)")

    p_ts = sub.add_parser("timeseries", allow_abbrev=False,
                          help="averaged top/bottom-group metric trends over mission progress")
    p_ts.add_argument("sessions", nargs="+", help="session log paths (.jsonl)")
    p_ts.add_argument("--metric", required=True,
                      choices=[m.value for m in SeriesMetric])
    p_ts.add_argument("--window", type=int, default=20)
    p_ts.add_argument("--smooth", type=int, default=5)
    p_ts.add_argument("--format", choices=("csv", "json-lines", "markdown"), default="csv")
    p_ts.add_argument("--out", help="output path (default stdout)")

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # argparse exits 0 for --help, 2 for usage errors
        return int(exc.code or 0)
    # looked up per call, not stored in the parser, so a patched cmd_* takes effect
    command = globals()[f"cmd_{args.command}"]
    try:
        return command(args)
    except (UsageError, PolicyParamError, MetricTableError) as exc:  # flags and table contents
        print(f"usage error: {exc}", file=sys.stderr)
        return EXIT_USAGE
    except SessionFormatError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_IO
    except TeamCoordError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_DOMAIN
    except OSError as exc:
        print(f"i/o error: {exc}", file=sys.stderr)
        return EXIT_IO


def entrypoint() -> None:
    sys.exit(main())
