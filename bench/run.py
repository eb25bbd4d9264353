"""teamcoord benchmark: times the CLI pipeline end to end and layer by layer.

    python3 bench/run.py --workload simulate --seed 3 --seconds 25 --trace 0

Workloads (all single-client, closed loop, in one process):

- simulate: one `simulate --runs 1` call per mission over
  {small, medium, corridor} x {random_walk, greedy, coordinated}; round r
  uses mission seed 8 * seed + r % 8, so a run cycles through eight
  consecutive seeds and repeats them once it has made eight rounds.
- analyze: `metrics`, then `timeseries` for each series metric, over a
  corpus of 3 maps x {greedy, coordinated, a mixed team} x 2 seeds that
  set-up simulates.
- stats: the six `stats --analysis` reports over a synthetic 40-team table
  (the five fast ones four times a round), plus `mann_whitney_u` and
  `mann_whitney_u_exact` on the top and bottom quartile by performance, one
  op each for sed, sms and spa.

A run sets up five times (each time the package's modules are imported
afresh and the inputs generated) and reports the median as `setup_s`. It
then makes whole rounds of ops until `--seconds` have passed.
Every op's output is hashed, with temp-dir paths replaced by `<tmp>`: an op
fails when it exits non-zero, raises, or its digest differs from the one
pinned in `digests.json` (default seed) or from an earlier run of the same
op in this run. After the timed rounds, runs with another seed replay the
first round of the default seed against the pins.

Times are scaled: a fixed reference loop runs between consecutive ops, and
each op's wall time is divided by the median of the REF_WINDOW loops on
either side and multiplied by REF_MS. On a shared host this cancels most of
the drift in machine speed that other tenants cause; `ref_ms` reports the
loop's raw median, so raw times are about the scaled ones times
ref_ms / REF_MS. Throughputs use each op kind's median; `op_ms_p50` and
`op_ms_p90` are percentiles over the distinct ops of the run, each at the
median of its repeats.

`--trace 1` replays the same rounds a second time with the wrappers of
`tracing.py` installed and reports the per-layer metrics: totals over the
traced replay divided by the ops replayed (per mission, CLI command or
report), except `*.errors` (totals), ratios, and the figures by op kind of
the untraced rounds (`missions_per_s`, `mission_ms_p90`, `mediation_ms`,
`sim.mission_ms.<map>.<policy>` and the like).

The last stdout line is the JSON result; the line before it is provenance.
The metric names and units come from BENCHMARK.json. `--pin` re-pins the
default seed's digests; do that only in a change that says why the
outputs moved. `compare.py` compares two sets of saved results.
"""
from __future__ import annotations

import argparse
import functools
import gc
import hashlib
import importlib
import io
import json
import math
import os
import platform
import shutil
import statistics
import sys
import time
import traceback
from collections import deque
from contextlib import contextmanager, redirect_stderr, redirect_stdout
from dataclasses import dataclass, field
from pathlib import Path
from typing import Callable

import numpy as np

from tracing import LAYER_NAMES, Tracer

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
DIGESTS = BENCH / "digests.json"
SPEC = ROOT / "BENCHMARK.json"
WORK = ROOT / ".bench_work"

PIN_SEED = 0
REF_MS = 10.0  # reported times are at the speed where reference_ns() takes this long
REF_WINDOW = 4  # reference loops on each side of an op that set its scale
SETUP_REPS = 5
MAPS = ("small", "medium", "corridor")
POLICIES = ("random_walk", "greedy", "coordinated")
MISSION_KINDS = tuple(f"{m}.{p}" for m in MAPS for p in POLICIES)
SIM_SEED_CYCLE = 8
CORPUS_TEAMS = ("greedy", "coordinated",
                "medic:coordinated,medic:greedy,engineer:greedy,engineer:random_walk")
CORPUS_SEEDS = 2
SERIES = ("sed", "sms", "spa_rolling", "inter_role_distance")
N_TEAMS = 40
ANALYSES = {  # op kind -> `stats --analysis` name
    "correlations": "correlations",
    "regression": "regression",
    "quadratic": "quadratic",
    "mediation": "mediation",
    "groups": "groups",
    "anova": "timeless-anova",
}
MWU_METRICS = ("sed", "sms", "spa")
CHEAP_REPEATS = 4


class ProgramMissing(Exception):
    """The checkout holds no teamcoord source to benchmark."""


def import_program() -> None:
    """Import teamcoord from this checkout's src/, never from elsewhere."""
    if not (SRC / "teamcoord" / "__init__.py").is_file():
        raise ProgramMissing(f"no teamcoord package under {SRC}")
    sys.path.insert(0, str(SRC))
    import teamcoord.cli
    import teamcoord.stats
    if Path(teamcoord.__file__).resolve().parent != SRC / "teamcoord":
        raise ProgramMissing(f"teamcoord imported from {teamcoord.__file__}, not {SRC}")


def reimport_program() -> None:
    """Drop the package's modules and import them again.

    This is the package's share of a CLI call's start-up. Interpreter
    start-up and the numpy import are left out: they are bound by loading
    files, drift with the host far more than the reference loop shows, and
    no change to the package moves them.
    """
    for name in [n for n in sys.modules if n == "teamcoord" or n.startswith("teamcoord.")]:
        del sys.modules[name]
    importlib.import_module("teamcoord.cli")


# ---------------------------------------------------------------------------
# Ops


@dataclass(frozen=True)
class Op:
    key: str  # same key, same inputs: the output must hash the same
    kind: str
    run: Callable[[], tuple[int, int, bytes]]  # -> (exit code, wall ns, output)


def cli_call(argv: list[str]) -> tuple[int, int, str]:
    """Run `teamcoord.cli.main` in-process with stdout and stderr captured."""
    import teamcoord.cli
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        t0 = time.perf_counter_ns()
        code = teamcoord.cli.main(argv)
        wall = time.perf_counter_ns() - t0
    if code != 0:
        print(f"{' '.join(argv[:1])} exited {code}: {err.getvalue().strip()[:300]}",
              file=sys.stderr)
    return code, wall, out.getvalue()


def tree_bytes(directory: Path) -> bytes:
    """Names and contents of every file under a directory, in sorted order."""
    parts = []
    for p in sorted(directory.rglob("*")):
        if p.is_file():
            parts += [p.relative_to(directory).as_posix().encode(), b"\0", p.read_bytes(), b"\0"]
    return b"".join(parts)


def digest(blob: bytes) -> str:
    return hashlib.sha256(blob).hexdigest()


class Workload:
    """Inputs for one seed, generated into `directory`, and the rounds of ops."""

    name = ""
    distinct_rounds = 1

    def __init__(self, seed: int, directory: Path):
        self.seed = seed
        self.dir = directory
        self.dir.mkdir(parents=True)

    def build(self) -> None:
        pass

    def round(self, r: int) -> list[Op]:
        raise NotImplementedError

    def _cli_op(self, key: str, kind: str, argv: list[str], out_dir: Path | None = None) -> Op:
        def run():
            code, wall, stdout = cli_call(argv)
            blob = stdout.encode()
            if out_dir is not None:
                blob += tree_bytes(out_dir)
            return code, wall, blob.replace(str(self.dir).encode(), b"<tmp>")
        return Op(key, kind, run)


class Simulate(Workload):
    name = "simulate"
    distinct_rounds = SIM_SEED_CYCLE

    def round(self, r):
        mission_seed = SIM_SEED_CYCLE * self.seed + r % SIM_SEED_CYCLE
        ops = []
        for m in MAPS:
            for p in POLICIES:
                out = self.dir / "out" / f"{m}-{p}-{mission_seed}"
                ops.append(self._cli_op(
                    f"simulate/{m}/{p}/{mission_seed}", f"{m}.{p}",
                    ["simulate", "--map", m, "--policies", p, "--runs", "1",
                     "--seed", str(mission_seed), "--out", str(out)], out))
        return ops


class Analyze(Workload):
    name = "analyze"

    def build(self):
        self.corpus = self.dir / "corpus"
        for m in MAPS:
            for team in CORPUS_TEAMS:
                code, _, _ = cli_call(["simulate", "--map", m, "--policies", team,
                                       "--runs", str(CORPUS_SEEDS),
                                       "--seed", str(CORPUS_SEEDS * self.seed),
                                       "--out", str(self.corpus)])
                if code != 0:
                    raise RuntimeError(f"corpus simulation for {m} {team} exited {code}")
        self.sessions = [str(p) for p in sorted(self.corpus.glob("*.jsonl"))]

    def round(self, r):
        base = f"analyze/{self.seed}"
        ops = [self._cli_op(f"{base}/metrics", "metrics", ["metrics", *self.sessions])]
        for metric in SERIES:
            ops.append(self._cli_op(f"{base}/timeseries/{metric}", metric,
                                    ["timeseries", *self.sessions, "--metric", metric]))
        return ops


class Stats(Workload):
    name = "stats"

    def build(self):
        # the demos/03 generator at paper scale, performance on the game's
        # 10-point grid so that ranks tie as in real corpora
        rng = np.random.default_rng(self.seed)
        n = N_TEAMS
        sed = rng.uniform(0.3, 0.9, n)
        sms = rng.uniform(0.2, 0.9, n)
        spa = rng.uniform(0.158, 0.597, n)
        ci = np.clip(0.15 + 0.55 * sms + rng.normal(0, 0.08, n), 0, 1)
        perf = (200 * ci + 120 * sms + 2200 * spa - 3160 * spa ** 2
                + rng.normal(0, 25, n) + 120)
        perf = (np.round(perf / 10) * 10).astype(int)
        ids = [f"team{i:02d}" for i in range(n)]
        cols = {"sed": sed, "sms": sms, "spa": spa, "ci": ci}
        lines = ["session_id,sed,sms,spa,ci,performance"]
        for i in range(n):
            cells = [format(float(cols[c][i]), ".17g") for c in cols]
            lines.append(",".join([ids[i], *cells, str(int(perf[i]))]))
        self.table = self.dir / "table.csv"
        self.table.write_text("\n".join(lines) + "\n", encoding="utf-8")

        order = sorted(range(n), key=lambda i: (perf[i], ids[i]))
        q = math.ceil(n / 4)
        self.groups = {m: (cols[m][order[-q:]], cols[m][order[:q]]) for m in MWU_METRICS}

    def _mwu(self, metric: str) -> tuple[int, int, bytes]:
        import teamcoord.stats
        top, bottom = self.groups[metric]
        t0 = time.perf_counter_ns()
        approx = teamcoord.stats.mann_whitney_u(top, bottom)
        exact = teamcoord.stats.mann_whitney_u_exact(top, bottom)
        wall = time.perf_counter_ns() - t0
        return 0, wall, json.dumps([approx.u, approx.p_value, exact.u, exact.p_value]).encode()

    def round(self, r):
        base = f"stats/{self.seed}"
        ops = []
        for kind, analysis in ANALYSES.items():
            op = self._cli_op(f"{base}/{kind}", kind,
                              ["stats", "--table", str(self.table), "--analysis", analysis])
            # the 2-8 ms reports repeat so their medians rest on as many samples
            # as a round of the slow ones takes time
            ops += [op] * (1 if kind == "mediation" else CHEAP_REPEATS)
        # one op per metric keeps each op short next to its reference loops
        ops += [Op(f"{base}/mwu/{m}", f"mwu.{m}", functools.partial(self._mwu, m))
                for m in MWU_METRICS]
        return ops


WORKLOADS = {w.name: w for w in (Simulate, Analyze, Stats)}


# ---------------------------------------------------------------------------
# Running and checking


def reference_ns() -> int:
    """Wall time of a fixed loop that mixes the program's kinds of work:
    flood fills over tuple-keyed dicts, small numpy array ops and JSON
    encoding.

    Other tenants of a shared host change the speed of every instruction by
    up to a third over tens of seconds. The benchmark runs this loop beside
    every op and divides the op's wall time by the loop's, which cancels most
    of that drift; the loop is part of the benchmark and never changes with
    the program.
    """
    t0 = time.perf_counter_ns()
    for _ in range(3):
        dist = {(0, 0): 0}
        queue = deque([(0, 0)])
        while queue:
            x, y = queue.popleft()
            for nb in ((x + 1, y), (x - 1, y), (x, y + 1), (x, y - 1)):
                if (0 <= nb[0] < 40 and 0 <= nb[1] < 40 and nb not in dist
                        and (nb[0] * 7 + nb[1] * 3) % 11):
                    dist[nb] = dist[(x, y)] + 1
                    queue.append(nb)
        sorted(dist.values())
    a = np.arange(64.0)
    acc = 0.0
    for i in range(600):
        acc += float((a * 1.0001).sum()) + a[i % 64]
    json.dumps([{"tick": i, "x": i % 7, "value": i * 0.37} for i in range(400)])
    return time.perf_counter_ns() - t0


@dataclass
class Checker:
    """Runs ops, hashes their output and counts the ones that fail."""

    pins: dict[str, str]
    seen: dict[str, str] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    pinned: int = 0  # ops whose digest was compared with a pin

    def run(self, op: Op, require_pin: bool = False) -> int | None:
        """Wall time of the op in ns, or None if it raised."""
        self.attempted += 1
        try:
            code, wall, blob = op.run()
        except Exception:
            self.failed += 1
            print(f"op {op.key} raised:\n{traceback.format_exc(limit=4)}", file=sys.stderr)
            return None
        got = digest(blob)
        expected = self.pins.get(op.key)
        if expected is not None:
            self.pinned += 1
        else:
            expected = self.seen.get(op.key)
        self.seen.setdefault(op.key, got)
        missing_pin = require_pin and op.key not in self.pins
        if code != 0 or missing_pin or (expected is not None and got != expected):
            self.failed += 1
            why = f"exit {code}" if code != 0 else (
                "no pinned digest" if missing_pin else f"digest {got[:12]} != {expected[:12]}")
            print(f"op {op.key} failed: {why}", file=sys.stderr)
        return wall


@dataclass
class Record:
    key: str
    kind: str
    wall_ns: int
    ref_ns: float  # median of the reference loops around the op

    @property
    def ms(self) -> float:
        """Wall time scaled to the speed at which the reference takes REF_MS."""
        return self.wall_ns / self.ref_ns * REF_MS


def run_rounds(workload: Workload, checker: Checker, seconds: float,
               n_rounds: int | None = None, after_op=None) -> tuple[list[Record], int]:
    """Whole rounds until `seconds` have passed (at least one), or `n_rounds`.

    A reference loop runs before the first op and after each one. An op's
    reference time is the median of the REF_WINDOW loops on either side of
    it, which follows the machine's speed over a few seconds without
    chasing the noise of single loops. Returns the records of the ops that
    ran and the number of rounds made.
    """
    ran: list[tuple[Op, int, int]] = []  # (op, wall ns, index of the loop before it)
    refs = []
    start = time.perf_counter()
    r = 0
    gc.collect()
    refs.append(reference_ns())
    while (r < n_rounds) if n_rounds is not None else (
            r == 0 or time.perf_counter() - start < seconds):
        for op in workload.round(r):
            wall = checker.run(op)
            if after_op is not None:
                after_op()
            gc.collect()
            if wall is not None:
                ran.append((op, wall, len(refs) - 1))
            refs.append(reference_ns())
        r += 1
    records = [Record(op.key, op.kind, wall,
                      statistics.median(refs[max(0, i + 1 - REF_WINDOW):i + 1 + REF_WINDOW]))
               for op, wall, i in ran]
    return records, r


def setup(cls, seed: int, work: Path, reps: int) -> tuple[Workload, list[float]]:
    """Set up `reps` times; every repetition must generate identical inputs.

    Returns the first set-up and each repetition's scaled time in seconds:
    importing the package afresh, then generating the inputs.
    """
    samples, kept, inputs = [], None, set()
    for rep in range(reps):
        before = reference_ns()
        t0 = time.perf_counter_ns()
        reimport_program()
        wl = cls(seed, work / f"input{rep}")
        wl.build()
        wall = time.perf_counter_ns() - t0
        samples.append(Record("setup", "setup", wall, (before + reference_ns()) / 2).ms / 1e3)
        inputs.add(digest(tree_bytes(wl.dir)))
        if kept is None:
            kept = wl
        else:
            shutil.rmtree(wl.dir)
    if len(inputs) != 1:
        raise RuntimeError("set-up generated different inputs for the same seed")
    return kept, samples


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile."""
    ordered = sorted(values)
    return ordered[max(0, math.ceil(q * len(ordered)) - 1)]


def ms_by(records: list[Record], attr: str) -> dict[str, list[float]]:
    out: dict[str, list[float]] = {}
    for r in records:
        out.setdefault(getattr(r, attr), []).append(r.ms)
    return out


def latencies(records: list[Record]) -> list[float]:
    """Each distinct op's median over its repeats."""
    return [statistics.median(ms) for ms in ms_by(records, "key").values()]


def per_s(by_kind: dict[str, list[float]], kinds) -> float:
    """Throughput of a mix with one op of each kind, from each kind's median."""
    return len(kinds) / (sum(statistics.median(by_kind[k]) for k in kinds) / 1e3)


def end_to_end(records: list[Record], setup_samples: list[float]) -> dict[str, float]:
    ms = latencies(records)
    by_kind = ms_by(records, "kind")
    return {
        "setup_s": statistics.median(setup_samples),
        "ops_per_s": per_s(by_kind, by_kind),
        "op_ms_p50": percentile(ms, 0.5),
        "op_ms_p90": percentile(ms, 0.9),
    }


def untraced_detail(records: list[Record], checker: Checker) -> dict[str, float]:
    """The per-workload figures of the untraced rounds, by op kind."""
    by_kind = ms_by(records, "kind")

    def median_ms(kind):
        return statistics.median(by_kind[kind]) if kind in by_kind else 0.0

    out = {"failed_ratio": checker.failed / checker.attempted,
           "ref_ms": statistics.median(r.ref_ns for r in records) / 1e6}
    missions = latencies([r for r in records if r.kind in MISSION_KINDS])
    if missions:
        out["missions_per_s"] = per_s(by_kind, MISSION_KINDS)
        out["mission_ms_p50"] = percentile(missions, 0.5)
        out["mission_ms_p90"] = percentile(missions, 0.9)
    for kind in MISSION_KINDS:
        out[f"sim.mission_ms.{kind}"] = median_ms(kind)
    if "metrics" in by_kind:
        n_sessions = len(MAPS) * len(CORPUS_TEAMS) * CORPUS_SEEDS
        out["table_sessions_per_s"] = per_s(by_kind, ("metrics",)) * n_sessions
        out["series_sessions_per_s"] = per_s(by_kind, SERIES) * n_sessions
    for kind in ANALYSES:
        out[f"{kind}_ms"] = median_ms(kind)
    out["mwu_ms"] = sum(median_ms(f"mwu.{m}") for m in MWU_METRICS)
    return out


def traced_detail(tracer: Tracer, n_ops: int, scale: float) -> dict[str, float]:
    """Per-layer figures of a traced replay, per op replayed, in scaled ms."""
    ms = scale / 1e6 / n_ops
    out = {}
    for layer in LAYER_NAMES:
        out[f"{layer}.self_ms"] = tracer.layer_self_ns[layer] * ms
        out[f"{layer}.calls"] = tracer.layer_calls[layer] / n_ops
        out[f"{layer}.errors"] = tracer.errors[layer]
    for name in tracer.calls:
        out[f"{name}.ms"] = tracer.total_ns[name] * ms
        out[f"{name}.self_ms"] = tracer.self_ns[name] * ms
        out[f"{name}.calls"] = tracer.calls[name] / n_ops
    c = tracer.counters
    for name in ("sim.ticks", "session_io.bytes_written", "session_io.reads",
                 "session_io.lines_read"):
        out[name] = c[name] / n_ops
    out["sim.degraded_ratio"] = c["sim.degraded"] / max(c["sim.requested"], 1)
    return out


@dataclass
class Result:
    correct: bool
    attempted: int
    failed: int
    pinned: int
    metrics: dict[str, float]
    traced_wall_ns: int = 0
    layer_self_ns: dict[str, int] = field(default_factory=dict)


@contextmanager
def work_dir(name: str):
    """A scratch directory of this process under WORK, removed afterwards."""
    path = WORK / f"{name}-{os.getpid()}"
    try:
        yield path
    finally:
        shutil.rmtree(path, ignore_errors=True)
        try:
            WORK.rmdir()
        except OSError:
            pass  # another run still uses it


def measure(workload: str, seed: int, seconds: float, trace: bool,
            setup_reps: int = SETUP_REPS) -> Result:
    """One benchmark run; all figures it measured are in `metrics`."""
    cls = WORKLOADS[workload]
    pins = json.loads(DIGESTS.read_text(encoding="utf-8"))
    checker = Checker(pins[workload])
    result = Result(False, 0, 0, 0, {})
    with work_dir(workload) as work:
        wl, setup_samples = setup(cls, seed, work, setup_reps)
        records, rounds = run_rounds(wl, checker, seconds)
        result.metrics = end_to_end(records, setup_samples)
        if trace:
            result.metrics.update(untraced_detail(records, checker))
            tracer = Tracer()
            tracer.install()
            try:
                traced, _ = run_rounds(wl, checker, 0, n_rounds=rounds, after_op=tracer.fold)
            finally:
                tracer.uninstall()
            result.traced_wall_ns = sum(r.wall_ns for r in traced)
            result.layer_self_ns = dict(tracer.layer_self_ns)
            scale = REF_MS * 1e6 / statistics.median(r.ref_ns for r in traced)
            result.metrics.update(traced_detail(tracer, len(traced), scale))
            result.metrics["trace_overhead"] = (sum(r.ms for r in traced)
                                                / sum(r.ms for r in records) - 1.0)
        if seed != PIN_SEED:  # the timed ops at the pin seed were checked already
            canary = cls(PIN_SEED, work / "canary")
            canary.build()
            for op in canary.round(0):
                checker.run(op, require_pin=True)
    result.attempted, result.failed = checker.attempted, checker.failed
    result.pinned, result.correct = checker.pinned, checker.failed == 0
    return result


def pin() -> dict[str, dict[str, str]]:
    """Digests of every distinct op at the pin seed."""
    out = {}
    with work_dir("pin") as work:
        for name, cls in WORKLOADS.items():
            checker = Checker({})
            wl = cls(PIN_SEED, work / name)
            wl.build()
            run_rounds(wl, checker, 0, n_rounds=cls.distinct_rounds)
            if checker.failed:
                raise RuntimeError(f"{checker.failed} {name} ops failed; nothing pinned")
            out[name] = dict(sorted(checker.seen.items()))
    return out


# ---------------------------------------------------------------------------
# Provenance and output


def git_commit() -> str:
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text().strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.exists():
            return loose.read_text().strip()
        for line in (ROOT / ".git" / "packed-refs").read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def cpu_model() -> str:
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


def provenance(args, result: Result) -> dict:
    out = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model(),
        "python": platform.python_version(), "numpy": np.__version__,
        "git_commit": git_commit(), "attempted": result.attempted,
        "pinned_checked": result.pinned,
    }
    if "trace_overhead" in result.metrics:
        out["trace_overhead"] = result.metrics["trace_overhead"]
    return out


def select_metrics(values: dict[str, float], trace: bool) -> dict[str, dict]:
    """The metrics BENCHMARK.json names for this mode, with their units.

    A per-layer metric the workload does not reach reads 0.
    """
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    group = spec["per_layer"] if trace else spec["end_to_end"]
    return {m["name"]: {"value": float(values.get(m["name"], 0.0)), "unit": m["unit"]}
            for m in group}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=PIN_SEED)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--pin", action="store_true",
                        help="rewrite digests.json from the pin seed and exit")
    args = parser.parse_args(argv)
    if not args.pin and args.workload is None:
        parser.error("--workload is required")
    try:
        import_program()
    except ProgramMissing as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    if args.pin:
        DIGESTS.write_text(json.dumps(pin(), indent=1, sort_keys=True) + "\n", encoding="utf-8")
        print(f"wrote {DIGESTS}")
        return 0
    result = measure(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps({"provenance": provenance(args, result)}, sort_keys=True))
    print(json.dumps({"correct": result.correct, "attempted": result.attempted,
                      "failed": result.failed,
                      "metrics": select_metrics(result.metrics, bool(args.trace))}))
    return 0 if result.correct else 1


if __name__ == "__main__":
    sys.exit(main())
