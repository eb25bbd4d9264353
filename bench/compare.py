"""Compare two sets of saved benchmark results, workload by workload.

    python3 bench/compare.py BASE NEW

BASE and NEW are each a file or a directory of files holding the standard
output of `run.py` runs (a provenance line, then the result line). For every
workload, mode (traced or not) and metric the script prints the median and
quartiles of both sets, the ratio of the medians with its base, and a
verdict against the metric's bound in BENCHMARK.json:

- worse: the median moved the wrong way by more than the bound;
- better: it moved the right way by more than the spread of either set;
- unresolved: a set's spread (quartile distance over median) exceeds the
  bound, and not every run of one set beats every run of the other;
- same: otherwise. Per-layer metrics have no bound and get no verdict.
"""
from __future__ import annotations

import json
import statistics
import sys
from pathlib import Path

SPEC = Path(__file__).resolve().parent.parent / "BENCHMARK.json"


def load(path: Path) -> dict[tuple[str, int], dict[str, list[float]]]:
    """(workload, trace) -> metric -> values, from every result file under path."""
    files = sorted(p for p in path.rglob("*") if p.is_file()) if path.is_dir() else [path]
    out: dict[tuple[str, int], dict[str, list[float]]] = {}
    for f in files:
        lines = [ln for ln in f.read_text(encoding="utf-8").splitlines() if ln.startswith("{")]
        if len(lines) < 2:
            continue
        prov = json.loads(lines[-2]).get("provenance")
        result = json.loads(lines[-1])
        if prov is None or "metrics" not in result:
            continue
        group = out.setdefault((prov["workload"], prov["trace"]), {})
        for name, m in result["metrics"].items():
            group.setdefault(name, []).append(m["value"])
    return out


def quartiles(values: list[float]) -> tuple[float, float, float]:
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return q1, statistics.median(values), q3


def spread(values: list[float]) -> float:
    q1, med, q3 = quartiles(values)
    return (q3 - q1) / abs(med) if med else 0.0


def _cell(q: tuple[float, float, float]) -> str:
    return f"{q[1]:.4g} [{q[0]:.4g}, {q[2]:.4g}]"


def verdict(base: list[float], new: list[float], better: str, bound: float | None) -> str:
    if bound is None:
        return ""
    mb, mn = statistics.median(base), statistics.median(new)
    if mb == 0 or mn == 0:
        return "same" if mb == mn else "unresolved"
    sign = 1.0 if better == "lower" else -1.0
    worse_by = sign * (mn - mb) / abs(mb)  # > 0: moved the wrong way
    all_better = max(sign * v for v in new) < min(sign * v for v in base)
    all_worse = min(sign * v for v in new) > max(sign * v for v in base)
    if max(spread(base), spread(new)) > bound and not (all_better or all_worse):
        return "unresolved"
    if worse_by > bound:
        return "worse"
    if -worse_by > max(spread(base), spread(new)):
        return "better"
    return "same"


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else argv
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    spec = json.loads(SPEC.read_text(encoding="utf-8"))
    declared = {m["name"]: m for m in spec["end_to_end"] + spec["per_layer"]}
    base, new = load(Path(argv[0])), load(Path(argv[1]))
    print(f"{'workload':10s} {'metric':40s} {'base median [q1, q3]':>32s} "
          f"{'new median [q1, q3]':>32s} {'new/base':>9s}  verdict")
    for key in sorted(base.keys() & new.keys()):
        workload, trace = key
        for name, b in base[key].items():
            n = new[key].get(name)
            if n is None:
                continue
            m = declared.get(name, {"better": "lower"})
            bq, nq = quartiles(b), quartiles(n)
            ratio = f"{nq[1] / bq[1]:.3f}" if bq[1] else "-"
            print(f"{workload:10s} {name:40s} {_cell(bq):>32s} {_cell(nq):>32s} "
                  f"{ratio:>9s}  {verdict(b, n, m['better'], m.get('bound'))}")
    missing = sorted(base.keys() ^ new.keys())
    if missing:
        print(f"only in one set: {missing}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
