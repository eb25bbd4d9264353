import json
from pathlib import Path

import numpy as np
import pytest

from teamcoord import cli, stats
from teamcoord.cli import EXIT_DOMAIN, EXIT_IO, EXIT_OK, EXIT_USAGE, main
from teamcoord.session_io import (MetricsTableRow, format_metrics_table, read_metrics_table,
                                  write_map)
from teamcoord.sim import builtin_map

EXAMPLE_TABLE = Path(__file__).resolve().parent.parent / "docs" / "examples" / "metrics.csv"
EXAMPLE_MAP = EXAMPLE_TABLE.with_name("map.json")


def run(argv):
    return main(argv)


def sim_corpus(tmp_path, runs=8, policies="coordinated", seed=0, mapname="small"):
    out = tmp_path / "runs"
    rc = run(["simulate", "--map", mapname, "--policies", policies,
              "--runs", str(runs), "--seed", str(seed), "--out", str(out)])
    assert rc == EXIT_OK
    return sorted(out.glob("*.jsonl"))


def random_table(path, n_rows, seed=5):
    rng = np.random.default_rng(seed)
    rows = [MetricsTableRow(f"s{i:02d}", *rng.random(4), performance=int(rng.integers(500)))
            for i in range(n_rows)]
    path.write_text(format_metrics_table(rows))
    return path


def test_help_exits_zero(capsys):
    assert run(["--help"]) == 0
    for cmd in ("simulate", "metrics", "stats", "timeseries"):
        assert run([cmd, "--help"]) == 0
    capsys.readouterr()


def test_simulate_writes_deterministic_files(tmp_path, capsys):
    a = sim_corpus(tmp_path / "a", runs=2, seed=7)
    b = sim_corpus(tmp_path / "b", runs=2, seed=7)
    assert [p.name for p in a] == [p.name for p in b]
    for pa, pb in zip(a, b):
        assert pa.read_bytes() == pb.read_bytes()
    summary = capsys.readouterr().out
    assert summary.count("points=") == 4


def test_simulate_unknown_map_exits_3(tmp_path, capsys):
    assert run(["simulate", "--map", "atlantis", "--out", str(tmp_path)]) == EXIT_DOMAIN
    assert "unknown map" in capsys.readouterr().err


def test_simulate_zero_runs_exits_2(tmp_path, capsys):
    assert run(["simulate", "--map", "small", "--runs", "0", "--out", str(tmp_path)]) == EXIT_USAGE
    capsys.readouterr()


@pytest.mark.parametrize("flags, message", [
    (["--seed", "-1"], "--seed must be non-negative"),
    (["--policy-param", "park_signal_ticks=inf"],
     "policy parameter 'park_signal_ticks=inf' is not finite"),
    (["--policy-param", "park_signal_ticks=nan"],
     "policy parameter 'park_signal_ticks=nan' is not finite"),
    (["--policy-param", "bogus=1"],
     "unknown policy parameter 'bogus' (known: dither, p_wait, patience, park_signal_ticks)"),
    (["--policies", "random_walk", "--policy-param", "p_wait=2"],
     "policy parameter 'p_wait=2.0' must be in [0, 1]"),
    (["--policies", "greedy", "--policy-param", "patience=-3"],
     "policy parameter 'patience=-3.0' must be >= 0"),
])
def test_simulate_bad_flags_exit_2(tmp_path, capsys, flags, message):
    assert run(["simulate", "--map", "small", "--out", str(tmp_path), *flags]) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err
    assert not any(tmp_path.iterdir())


def test_simulate_accepts_every_known_policy_param(tmp_path, capsys):
    params = ["dither=0", "p_wait=0.5", "patience=4", "park_signal_ticks=2"]
    argv = ["simulate", "--map", "small", "--out", str(tmp_path)]
    assert run(argv + [a for p in params for a in ("--policy-param", p)]) == EXIT_OK
    assert "points=" in capsys.readouterr().out


def test_simulate_bad_policy_exits_3(tmp_path, capsys):
    assert run(["simulate", "--map", "small", "--policies", "quantum",
                "--out", str(tmp_path)]) == EXIT_DOMAIN
    capsys.readouterr()


def test_simulate_mixed_policies_and_custom_map(tmp_path, capsys):
    map_path = tmp_path / "custom.json"
    write_map(builtin_map("small"), map_path)
    rc = run(["simulate", "--map", str(map_path),
              "--policies", "medic:greedy,medic:random_walk,engineer:greedy,engineer:coordinated",
              "--runs", "1", "--out", str(tmp_path / "o")])
    assert rc == EXIT_OK
    assert "mixed" in capsys.readouterr().out


def example_map_with(tmp_path, **fields):
    """A copy of the example map JSON with `fields` replaced."""
    path = tmp_path / "map.json"
    path.write_text(json.dumps({**json.loads(EXAMPLE_MAP.read_text()), **fields}))
    return path


@pytest.mark.parametrize("fields", [{"mission_duration_s": float("inf")},
                                    {"mission_duration_s": float("inf"),
                                     "red_cutoff_s": float("inf")}])
def test_simulate_infinite_mission_clock_exits_3(tmp_path, capsys, fields):
    argv = ["simulate", "--map", str(example_map_with(tmp_path, **fields)), "--runs", "1",
            "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_DOMAIN
    err = capsys.readouterr().err
    assert "error: map 'demo-pocket': red cutoff outside a finite mission duration" in err
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("field, value", [("fov_radius", 2.5), ("fov_radius", True),
                                          ("fov_radius", "2"), ("width", 7.9), ("height", 8.0)])
def test_simulate_map_with_a_non_integer_size_exits_1(tmp_path, capsys, field, value):
    path = example_map_with(tmp_path, **{field: value})
    argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: bad map: {field} must be a JSON integer, "
                   f"got {json.dumps(value)}\n")


@pytest.mark.parametrize("start", [[], [1], "x", [[1]], [1, 2, 3], 5],
                         ids=["empty", "one", "string", "nested", "three", "int"])
def test_simulate_map_with_a_malformed_start_exits_1(tmp_path, capsys, start):
    path = example_map_with(tmp_path, start=start)
    argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert err == (f"error: {path}: bad map: start must be a pair of JSON integers, "
                   f"got {json.dumps(start)}\n")
    assert not (tmp_path / "o").exists()


@pytest.mark.parametrize("wall", [[1], 5, [1, 2, 3]], ids=["one", "int", "three"])
def test_simulate_map_with_a_malformed_wall_exits_1(tmp_path, capsys, wall):
    path = example_map_with(tmp_path, walls=[wall])
    argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_IO
    assert capsys.readouterr().err == (f"error: {path}: bad map: walls must be a pair of "
                                       f"JSON integers, got {json.dumps(wall)}\n")
    assert not (tmp_path / "o").exists()


def test_simulate_mission_shorter_than_one_sample_exits_3(tmp_path, capsys):
    path = example_map_with(tmp_path, mission_duration_s=1.0, red_cutoff_s=1.0)
    argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == ("error: map 'demo-pocket': a 1.0 s mission has no tick "
                                       "at a sample interval of 3.0 s\n")
    assert not list((tmp_path / "o").iterdir())


def test_simulate_mission_over_the_tick_ceiling_exits_3(tmp_path, capsys):
    path = example_map_with(tmp_path, mission_duration_s=1e300)
    argv = ["simulate", "--map", str(path), "--runs", "1", "--out", str(tmp_path / "o")]
    assert run(argv) == EXIT_DOMAIN
    assert capsys.readouterr().err == (
        "error: map 'demo-pocket': a 1e+300 s mission has more than the 1000000 ticks allowed "
        "at a sample interval of 3.0 s\n")
    assert not list((tmp_path / "o").iterdir())


def test_metrics_command_builds_table(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=4)
    out_csv = tmp_path / "metrics.csv"
    rc = run(["metrics", *map(str, logs), "--out", str(out_csv)])
    assert rc == EXIT_OK
    capsys.readouterr()
    cols, lines = read_metrics_table(out_csv)
    assert lines == (2, 3, 4, 5)
    assert list(cols["session_id"]) == sorted(cols["session_id"])
    for name in ("sed", "sms", "spa", "ci"):
        assert ((0.0 <= cols[name]) & (cols[name] <= 1.0)).all()
    assert (cols["performance"] >= 0).all()


def test_metrics_rows_match_library_values(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=2, policies="greedy")
    out_csv = tmp_path / "m.csv"
    assert run(["metrics", *map(str, logs), "--out", str(out_csv)]) == EXIT_OK
    capsys.readouterr()
    from teamcoord.metrics import coordination_metrics
    from teamcoord.outcomes import collective_intelligence, team_performance
    from teamcoord.session_io import read_session
    cols, _ = read_metrics_table(out_csv)
    for log in logs:
        s = read_session(log)
        m = coordination_metrics(s)
        ci = collective_intelligence(s, s.map_meta)
        row = {name: col[cols["session_id"].index(s.session_id)] for name, col in cols.items()}
        assert (row["sed"], row["sms"], row["spa"]) == (m.sed, m.sms, m.spa)
        assert row["ci"] == ci.team_ci
        assert row["performance"] == team_performance(s.events).points


def test_metrics_decodes_each_manifest_once(tmp_path, capsys, monkeypatch):
    from teamcoord import session_io
    logs = sim_corpus(tmp_path, runs=3)
    capsys.readouterr()
    decoded = []
    load = session_io._load_json
    monkeypatch.setattr(session_io, "_load_json",
                        lambda path, what: decoded.append(path.name) or load(path, what))
    assert run(["metrics", *map(str, logs)]) == EXIT_OK
    assert capsys.readouterr().out.count("\n") == 4  # header + one row per session
    assert sorted(decoded) == sorted(log.with_suffix(".manifest.json").name for log in logs)


def test_metrics_reports_broken_file_and_exits_1(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=2)
    bad = tmp_path / "runs" / "broken.jsonl"
    bad.write_text("not json\n")
    rc = run(["metrics", *map(str, logs), str(bad), "--out", str(tmp_path / "m.csv")])
    assert rc == EXIT_IO
    err = capsys.readouterr().err
    assert "broken.jsonl" in err
    # the readable sessions still landed in the table
    assert read_metrics_table(tmp_path / "m.csv")[1] == (2, 3)


def test_stats_correlations_full_matrix(tmp_path, capsys):
    # mixed corpus so that every column, performance included, varies
    logs = sim_corpus(tmp_path, runs=4, policies="greedy") \
        + sim_corpus(tmp_path / "co", runs=4, policies="coordinated")
    table = tmp_path / "m.csv"
    assert run(["metrics", *map(str, logs), "--out", str(table)]) == EXIT_OK
    capsys.readouterr()
    rc = run(["stats", "--table", str(table), "--analysis", "correlations"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    rows = [line.split(",") for line in out[1:]]
    assert len(rows) == 25
    rho = {(a, b): float(r) for a, b, r, _, _ in rows}
    for v in ("sed", "sms", "spa", "ci", "performance"):
        assert rho[(v, v)] == 1.0
    for (a, b), r in rho.items():
        assert rho[(b, a)] == pytest.approx(r, abs=1e-12)


def test_stats_missing_column_exits_2(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_text("session_id,sed,sms\ns1,0.1,0.2\n")
    rc = run(["stats", "--table", str(table), "--analysis", "correlations"])
    assert rc == EXIT_USAGE
    assert "lacks columns" in capsys.readouterr().err


def test_stats_mediation_deterministic(tmp_path, capsys):
    rng = np.random.default_rng(5)
    rows = []
    for i in range(20):
        sed, sms, spa = rng.random(3)
        ci = 0.5 * sms + 0.2 * rng.random()
        perf = int(400 * ci + 40 * rng.random())
        rows.append(MetricsTableRow(f"s{i:02d}", sed, sms, spa, ci, perf))
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    args = ["stats", "--table", str(table), "--analysis", "mediation",
            "--resamples", "500", "--seed", "42"]
    assert run(args) == EXIT_OK
    first = capsys.readouterr().out
    assert run(args) == EXIT_OK
    assert capsys.readouterr().out == first
    assert "sms" in first


def test_stats_mediation_negative_seed_exits_2(tmp_path, capsys):
    table = random_table(tmp_path / "m.csv", 8)
    rc = run(["stats", "--table", str(table), "--analysis", "mediation", "--seed", "-1"])
    assert rc == EXIT_USAGE
    assert "usage error: seed must be non-negative" in capsys.readouterr().err


def test_stats_table_not_utf8_names_path_and_line_exits_1(tmp_path, capsys):
    table = tmp_path / "t.csv"
    table.write_bytes(b"session_id,sed,sms,spa,ci,performance\r\n"
                      b"s1,0.1,0.2,0.3,0.4,5\r\nx\xff,0.1,0.2,0.3,0.4,5\r\n")
    rc = run(["stats", "--table", str(table), "--analysis", "correlations"])
    assert rc == EXIT_IO
    assert f"error: {table}:3: line is not UTF-8" in capsys.readouterr().err


def test_stats_quadratic_recovers_known_optimum(tmp_path, capsys):
    rng = np.random.default_rng(11)
    rows = []
    for i in range(34):
        spa = float(rng.uniform(0.158, 0.597))
        perf = -326.04 + 4660.33 * spa - 6693.82 * spa ** 2 + float(rng.normal(scale=40.0))
        rows.append(MetricsTableRow(f"s{i:02d}", rng.random(), rng.random(), spa,
                                    rng.random(), max(0, int(perf))))
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    assert run(["stats", "--table", str(table), "--analysis", "quadratic"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    spa_row = next(line.split(",") for line in out[1:] if line.startswith("spa"))
    optimum = float(spa_row[header.index("optimal_value")])
    assert optimum == pytest.approx(0.348, abs=0.01)
    assert spa_row[header.index("pattern")] == "inverted-u"


def test_stats_quadratic_straight_line_has_no_optimum(tmp_path, capsys):
    # performance linear in each metric: least squares leaves rounding-level curvature
    rows = [MetricsTableRow(f"s{i:02d}", 0.1 * i, 0.05 * i, 0.1 * i, 0.5, performance=30 * i + 100)
            for i in range(1, 13)]
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    assert run(["stats", "--table", str(table), "--analysis", "quadratic"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    for line in out[1:]:
        row = dict(zip(header, line.split(",")))
        assert (row["quadratic"], row["optimal_value"], row["pattern"]) == ("0", "", "u-or-flat")


def test_stats_groups_and_anova(tmp_path, capsys):
    rng = np.random.default_rng(13)
    rows = [MetricsTableRow(f"s{i:02d}", *rng.random(4), performance=int(rng.integers(500)))
            for i in range(12)]
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    assert run(["stats", "--table", str(table), "--analysis", "groups"]) == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    groups = [line.split(",")[1] for line in out[1:]]
    assert groups.count("bottom25") == 3 and groups.count("top25") == 3
    assert run(["stats", "--table", str(table), "--analysis", "timeless-anova"]) == EXIT_OK
    anova_out = capsys.readouterr().out
    assert anova_out.count("\n") == 4  # header + one row per metric


def test_stats_markdown_format(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=4, policies="greedy")
    table = tmp_path / "m.csv"
    assert run(["metrics", *map(str, logs), "--out", str(table)]) == EXIT_OK
    capsys.readouterr()
    assert run(["stats", "--table", str(table), "--analysis", "groups",
                "--format", "markdown"]) == EXIT_OK
    out = capsys.readouterr().out
    assert out.startswith("| session_id |")
    assert "| --- |" in out


def test_timeseries_command(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=8)
    capsys.readouterr()
    rc = run(["timeseries", *map(str, logs), "--metric", "inter_role_distance",
              "--window", "10", "--smooth", "3"])
    assert rc == EXIT_OK
    out = capsys.readouterr().out.strip().splitlines()
    assert out[0] == "metric,group,progress,value,phase"
    groups = {line.split(",")[1] for line in out[1:]}
    assert groups == {"top25", "bottom25"}
    phases = {line.split(",")[4] for line in out[1:]}
    assert phases == {"pre-cutoff", "post-cutoff"}


def test_timeseries_coordinated_corpus_spreads_after_cutoff(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=8, mapname="medium")
    capsys.readouterr()
    rc = run(["timeseries", *map(str, logs), "--metric", "inter_role_distance",
              "--window", "10", "--smooth", "3"])
    assert rc == EXIT_OK
    rows = [line.split(",") for line in capsys.readouterr().out.strip().splitlines()[1:]]
    top = [(float(p), float(v), phase) for _, g, p, v, phase in rows if g == "top25"]
    pre = [v for _, v, phase in top if phase == "pre-cutoff"]
    post = [v for _, v, phase in top if phase == "post-cutoff"]
    assert np.mean(post) > np.mean(pre)


def test_timeseries_too_few_sessions_exits_2(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=2)
    rc = run(["timeseries", *map(str, logs), "--metric", "sed"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_timeseries_window_too_large_exits_2(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=4)
    rc = run(["timeseries", *map(str, logs), "--metric", "sed", "--window", "500"])
    assert rc == EXIT_USAGE
    capsys.readouterr()


def test_full_pipeline_byte_reproducible(tmp_path, capsys):
    outputs = []
    for case in ("x", "y"):
        base = tmp_path / case
        logs = sim_corpus(base, runs=5, policies="greedy", seed=3)
        table = base / "metrics.csv"
        assert run(["metrics", *map(str, logs), "--out", str(table)]) == EXIT_OK
        report = base / "mediation.csv"
        assert run(["stats", "--table", str(table), "--analysis", "mediation",
                    "--resamples", "200", "--seed", "1", "--out", str(report)]) == EXIT_OK
        capsys.readouterr()
        outputs.append((table.read_bytes(), report.read_bytes()))
    assert outputs[0] == outputs[1]


def test_metrics_malformed_record_exits_1_with_path_and_line(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=1)
    lines = logs[0].read_text().splitlines()
    lines[2] = lines[2].replace('"role":"medic"', '"role":"pilot"')
    logs[0].write_text("\n".join(lines) + "\n")
    assert run(["metrics", str(logs[0])]) == EXIT_IO
    assert f"{logs[0]}:3: bad record" in capsys.readouterr().err


@pytest.mark.parametrize("n_rows, resamples", [(20, 0), (4, 500)])
def test_stats_mediation_out_of_range_exits_2(tmp_path, capsys, n_rows, resamples):
    table = random_table(tmp_path / "m.csv", n_rows)
    assert run(["stats", "--table", str(table), "--analysis", "mediation",
                "--resamples", str(resamples)]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


@pytest.mark.parametrize("resamples", [2**63 - 1, 2**64])
def test_stats_mediation_resamples_over_the_ceiling_exit_2(tmp_path, capsys, resamples):
    table = random_table(tmp_path / "m.csv", 30)
    assert run(["stats", "--table", str(table), "--analysis", "mediation",
                "--resamples", str(resamples)]) == EXIT_USAGE
    assert capsys.readouterr().err == (
        f"usage error: resamples must be at most 1000000, got {resamples}\n")


@pytest.mark.parametrize("flags", [["--window", "1"], ["--smooth", "0"]])
def test_timeseries_out_of_range_flags_exit_2(tmp_path, capsys, flags):
    logs = sim_corpus(tmp_path, runs=4)
    assert run(["timeseries", *map(str, logs), "--metric", "sed", *flags]) == EXIT_USAGE
    assert "usage error" in capsys.readouterr().err


def test_metrics_coarsen_zero_exits_2(tmp_path, capsys):
    logs = sim_corpus(tmp_path, runs=1)
    assert run(["metrics", *map(str, logs), "--coarsen", "0"]) == EXIT_USAGE
    assert "--coarsen" in capsys.readouterr().err


def test_metrics_coarsen_zero_exits_2_before_reading_sessions(tmp_path, capsys):
    assert run(["metrics", "--coarsen", "0", str(tmp_path / "missing.jsonl")]) == EXIT_USAGE
    out, err = capsys.readouterr()
    assert out == ""
    assert err == "usage error: --coarsen must be at least 1\n"


def test_metrics_coarsen_past_the_grid_pools_it_whole(capsys):
    # beyond the grid's larger side every factor gives one cell; 2**63 and up
    # do not fit an int64
    session = str(EXAMPLE_TABLE.with_name("session.jsonl"))
    outs = []
    for factor in (12, 1000, 2 ** 63, 2 ** 70):
        assert run(["metrics", session, "--coarsen", str(factor)]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 4


def test_timeseries_smooth_past_the_series_averages_it_whole(tmp_path, capsys):
    # 2**64 // 2 does not fit an int64
    logs = sim_corpus(tmp_path, runs=4)
    capsys.readouterr()
    outs = []
    for smooth in (1000, 2 ** 63, 2 ** 64, 2 ** 70):
        assert run(["timeseries", *map(str, logs), "--metric", "inter_role_distance",
                    "--smooth", str(smooth)]) == EXIT_OK
        outs.append(capsys.readouterr().out)
    assert outs == [outs[0]] * 4


@pytest.mark.parametrize("field, value", [("mission_duration_s", 600.0), ("red_cutoff_s", 200.0)])
def test_timeseries_mixed_mission_clocks_exit_2(tmp_path, capsys, field, value):
    logs = sim_corpus(tmp_path, runs=4)
    manifest = logs[0].with_suffix(".manifest.json")
    doc = json.loads(manifest.read_text())
    doc[field] = value
    manifest.write_text(json.dumps(doc))
    assert run(["timeseries", *map(str, logs), "--metric", "sed"]) == EXIT_USAGE
    assert "mission clock" in capsys.readouterr().err


def example_sessions_with_duration(tmp_path, duration):
    """Four copies of the example session with distinct ids and `duration` as mission clock."""
    src = EXAMPLE_TABLE.with_name("session.jsonl")
    logs = []
    for k in range(4):
        log = tmp_path / f"s{k}.jsonl"
        log.write_text(src.read_text().replace("demo-pocket-s00001", f"s{k}"))
        doc = json.loads(src.with_suffix(".manifest.json").read_text())
        doc.update(session_id=f"s{k}", mission_duration_s=duration)
        log.with_suffix(".manifest.json").write_text(json.dumps(doc))
        logs.append(str(log))
    return logs


def test_timeseries_infinite_mission_clock_exits_1(tmp_path, capsys):
    logs = example_sessions_with_duration(tmp_path, float("inf"))
    assert run(["timeseries", *logs, "--metric", "sed"]) == EXIT_IO
    out, err = capsys.readouterr()
    assert out == ""
    assert f"error: {logs[0]}: invalid session: CONFIG: mission duration" in err


@pytest.mark.parametrize("command", [["metrics"], ["timeseries", "--metric", "sed"]])
def test_huge_mission_clock_exits_1_naming_each_session_once(tmp_path, capsys, command):
    logs = example_sessions_with_duration(tmp_path, 1e300)
    assert run([command[0], *logs, *command[1:]]) == EXIT_IO
    err = capsys.readouterr().err
    failed = logs if command[0] == "metrics" else logs[:1]  # timeseries stops at the first
    assert err == "".join(f"error: {log}: invalid session: CONFIG: mission duration must span "
                          "at most 1000000 sample intervals\n" for log in failed)


@pytest.mark.parametrize("analysis, n_rows, message", [
    ("correlations", 2, "need at least 3 observations"),
    ("quadratic", 3, "need at least 4 observations"),
    ("regression", 4, "need more observations (4) than columns (4)"),
    ("timeless-anova", 4, "every group needs at least 2 values"),
    ("groups", 2, "grouping needs at least 4 teams, got 2"),
    ("timeless-anova", 2, "grouping needs at least 4 teams, got 2"),
])
def test_stats_too_small_table_exits_2(tmp_path, capsys, analysis, n_rows, message):
    table = random_table(tmp_path / "m.csv", n_rows)
    assert run(["stats", "--table", str(table), "--analysis", analysis]) == EXIT_USAGE
    assert f"usage error: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("cell", ["nan", "inf", "-inf"])
def test_stats_non_finite_cell_exits_2(tmp_path, capsys, cell):
    table = random_table(tmp_path / "m.csv", 8)
    lines = table.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = cell  # the sed column
    lines[3] = ",".join(fields)
    lines.insert(2, "")  # a blank line the reader skips still counts
    table.write_text("\n".join(lines) + "\n")
    assert run(["stats", "--table", str(table), "--analysis", "correlations"]) == EXIT_USAGE
    assert f"column 'sed' has non-finite value '{cell}' on line 5" in capsys.readouterr().err


def test_stats_non_numeric_cell_names_its_line_exits_2(tmp_path, capsys):
    table = random_table(tmp_path / "m.csv", 8)
    lines = table.read_text().splitlines()
    fields = lines[3].split(",")
    fields[1] = "abc"  # the sed column
    lines[3] = ",".join(fields)
    lines.insert(2, "")  # a blank line the reader skips still counts
    table.write_text("\n".join(lines) + "\n")
    assert run(["stats", "--table", str(table), "--analysis", "correlations"]) == EXIT_USAGE
    assert ("usage error: column 'sed' is not numeric: could not convert string to float: "
            "'abc' on line 5") in capsys.readouterr().err


@pytest.mark.parametrize("row, message", [
    ("s99,0.1,0.2", "expected 6 fields"),
    ("s99,0.1,0.2,0.3,0.4,5,6", "expected 6 fields"),
    ("s99," + "1" * 200_000 + ",0.2,0.3,0.4,5", "bad CSV: field larger than field limit (131072)"),
], ids=["short", "long", "huge_field"])
def test_stats_malformed_row_names_path_and_line_exits_1(tmp_path, capsys, row, message):
    table = random_table(tmp_path / "m.csv", 8)
    lines = table.read_text().splitlines()
    lines.insert(4, row)
    table.write_text("\n".join(lines) + "\n")
    assert run(["stats", "--table", str(table), "--analysis", "correlations"]) == EXIT_IO
    assert f"error: {table}:5: {message}" in capsys.readouterr().err


@pytest.mark.parametrize("analysis", ["groups", "timeless-anova"])
def test_stats_repeated_session_id_exits_2(tmp_path, capsys, analysis):
    table = random_table(tmp_path / "m.csv", 8)
    lines = table.read_text().splitlines()
    lines[6] = "s01" + lines[6][3:]  # the row of s05, on line 7, takes the id on line 3
    table.write_text("\n".join(lines) + "\n")
    assert run(["stats", "--table", str(table), "--analysis", analysis]) == EXIT_USAGE
    assert "usage error: session_id 's01' on line 7 repeats line 3" in capsys.readouterr().err
    # analyses that do not group rows by id still read the table
    assert run(["stats", "--table", str(table), "--analysis", "correlations"]) == EXIT_OK
    capsys.readouterr()


def test_stats_quadratic_flat_outcome_reports_flat(tmp_path, capsys):
    rng = np.random.default_rng(7)
    rows = [MetricsTableRow(f"s{i:02d}", *rng.random(4), performance=240) for i in range(4)]
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    assert run(["stats", "--table", str(table), "--analysis", "quadratic"]) == EXIT_OK
    out = capsys.readouterr().out.splitlines()
    header = out[0].split(",")
    for line in out[1:]:
        row = dict(zip(header, line.split(",")))
        assert row["pattern"] == "flat"
        assert row["optimal_value"] == ""
        assert (row["linear"], row["quadratic"]) == ("0", "0")


def test_stats_mediation_draws_each_block_once_for_all_metrics(tmp_path, capsys, monkeypatch):
    # at 40 rows a block holds 6553 resamples: 7000 take two blocks, shared by sed, sms and spa
    table = random_table(tmp_path / "m.csv", 40)
    calls = []
    draw = stats._resample_indices

    def counted(seed, start, count, n):
        calls.append((start, count))
        return draw(seed, start, count, n)

    monkeypatch.setattr(stats, "_resample_indices", counted)
    mediations = []
    mediation = cli.bootstrap_mediation

    def traced(*args, **kwargs):
        mediations.append(np.shape(args[0]))
        return mediation(*args, **kwargs)

    # one call of the public function, whose name the benchmark's tracer reports
    monkeypatch.setattr(cli, "bootstrap_mediation", traced)
    assert run(["stats", "--table", str(table), "--analysis", "mediation",
                "--resamples", "7000"]) == EXIT_OK
    assert len(capsys.readouterr().out.splitlines()) == 4
    assert calls == [(0, 6553), (6553, 447)]
    assert mediations == [(3, 40)]


def test_stats_mediation_constant_metric_exits_3(tmp_path, capsys):
    rng = np.random.default_rng(13)
    rows = [MetricsTableRow(f"s{i:02d}", rng.random(), 0.5, *rng.random(2),
                            performance=int(rng.integers(500))) for i in range(12)]
    table = tmp_path / "m.csv"
    table.write_text(format_metrics_table(rows))
    assert run(["stats", "--table", str(table), "--analysis", "mediation"]) == EXIT_DOMAIN
    captured = capsys.readouterr()
    assert (captured.out, captured.err) == ("", "error: x is constant or x and m are collinear\n")


@pytest.mark.parametrize("source", ["example", "random"])
def test_stats_table_with_byte_order_mark_reads_as_without(tmp_path, capsys, source):
    # the example table has two rows, too few to group: both copies give the same error
    plain = EXAMPLE_TABLE if source == "example" else random_table(tmp_path / "m.csv", 8)
    bom = tmp_path / "bom.csv"
    bom.write_bytes(b"\xef\xbb\xbf" + plain.read_bytes())
    outputs = []
    for table in (plain, bom):
        rc = run(["stats", "--table", str(table), "--analysis", "groups"])
        outputs.append((rc, *capsys.readouterr()))
    assert outputs[0] == outputs[1]
    assert "session_id" not in outputs[0][2]
