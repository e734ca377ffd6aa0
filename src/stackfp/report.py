"""Tabular run reports, one row per solver run plus per-group aggregates.

Row columns: circuit, task, solver, seed, then the normalized distance,
adjacency, alignment and wirelength, raw overlap cells, satisfaction as
"got/total" summed over every counted rule, the relaxation rung count, and
wall-clock seconds.  Aggregates are mean and standard deviation per
(circuit, task, solver) group; the deviation is the population formula
(ddof 0), since the seeds of a sweep are the whole treatment, not a sample
of one.

CSV output lists runs first, sorted by (circuit, task, solver, seed), then
one aggregate line per group whose seed cell reads ``mean±std`` and whose
numeric cells carry ``m±s``.  JSON output splits them into ``runs`` and
``aggregates`` arrays with separate ``*_mean``/``*_std`` numbers; a run
object holds every `RunRecord` field at full precision.

Metric columns contain no hidden solver state: a row rebuilt from the
placement file alone (`record_from_state`) matches the solve-time row,
because the wirelength baseline is a function of the circuit alone
(`wire_greedy_baseline` always rolls out the default order) and every
episode normalizes by it, whatever order it places in.
"""

import csv
import dataclasses
import io
import json
import math

from .core import Circuit, FloorplanState
from .env import EpisodeTrace, episode_summary, wire_greedy_baseline

_METRIC_FIELDS = ("distance", "adjacency", "alignment", "hpwl", "overlap")
_CSV_COLUMNS = ("circuit", "task", "solver", "seed", *_METRIC_FIELDS,
                "satisfaction", "rungs", "wall_s")


@dataclasses.dataclass(frozen=True)
class RunRecord:
    circuit: str
    task: int
    solver: str
    seed: int
    distance: float
    adjacency: float
    alignment: float
    hpwl: float
    overlap: float
    satisfied: int
    sat_total: int
    rungs: int | None        # None when rebuilt from a placement file
    wall_s: float

    @property
    def sat_frac(self) -> float:
        return self.satisfied / self.sat_total if self.sat_total else 1.0


def record_from_summary(circuit_name: str, task: int, solver: str, seed: int,
                        summary, wall_s: float = 0.0) -> RunRecord:
    sat = summary.satisfaction
    return RunRecord(
        circuit=circuit_name, task=task, solver=solver, seed=seed,
        distance=summary.norm.distance, adjacency=summary.norm.adjacency,
        alignment=summary.norm.alignment, hpwl=summary.norm.hpwl,
        overlap=summary.raw.overlap,
        satisfied=sum(ok for ok, _ in sat.values()),
        sat_total=sum(total for _, total in sat.values()),
        rungs=summary.rung_events, wall_s=wall_s)


def record_from_state(circuit: Circuit, state: FloorplanState, *, task: int,
                      solver: str = "eval", seed: int = 0) -> RunRecord:
    """Rebuild the metric columns from a finished bare placement; the rung
    count is unknowable after the fact and stays empty, and wall time is 0."""
    summary = episode_summary(state, EpisodeTrace(wire_greedy_baseline(circuit)))
    return dataclasses.replace(
        record_from_summary(circuit.name, task, solver, seed, summary),
        rungs=None)


# --- aggregation -------------------------------------------------------------

def _mean_std(values: list[float]) -> tuple[float, float]:
    mean = sum(values) / len(values)
    var = sum((v - mean) ** 2 for v in values) / len(values)
    return mean, math.sqrt(var)


def aggregate(records: list[RunRecord]) -> list[dict]:
    """Population mean and std per (circuit, task, solver), sorted by key.
    Satisfaction aggregates the per-run satisfied fraction; rung stats
    cover only rows that know their rung count."""
    groups: dict[tuple, list[RunRecord]] = {}
    for r in records:
        groups.setdefault((r.circuit, r.task, r.solver), []).append(r)
    out = []
    for key in sorted(groups):
        rows = groups[key]
        agg = {"circuit": key[0], "task": key[1], "solver": key[2],
               "n": len(rows)}
        for f in _METRIC_FIELDS:
            m, s = _mean_std([getattr(r, f) for r in rows])
            agg[f + "_mean"], agg[f + "_std"] = m, s
        m, s = _mean_std([r.sat_frac for r in rows])
        agg["satisfaction_mean"], agg["satisfaction_std"] = m, s
        known = [float(r.rungs) for r in rows if r.rungs is not None]
        if known:
            m, s = _mean_std(known)
            agg["rungs_mean"], agg["rungs_std"] = m, s
        else:
            agg["rungs_mean"] = agg["rungs_std"] = None
        m, s = _mean_std([r.wall_s for r in rows])
        agg["wall_s_mean"], agg["wall_s_std"] = m, s
        out.append(agg)
    return out


# --- serialization -----------------------------------------------------------

def _run_row(r: RunRecord) -> list[str]:
    return [r.circuit, str(r.task), r.solver, str(r.seed),
            f"{r.distance:.6f}", f"{r.adjacency:.6f}", f"{r.alignment:.6f}",
            f"{r.hpwl:.6f}", f"{r.overlap:.6f}",
            f"{r.satisfied}/{r.sat_total}",
            "-" if r.rungs is None else str(r.rungs),
            f"{r.wall_s:.6f}"]


def _agg_row(a: dict) -> list[str]:
    def pm(prefix):
        if a[prefix + "_mean"] is None:
            return "-"
        return f"{a[prefix + '_mean']:.6f}±{a[prefix + '_std']:.6f}"

    return [a["circuit"], str(a["task"]), a["solver"], "mean±std",
            *(pm(f) for f in _METRIC_FIELDS),
            pm("satisfaction"), pm("rungs"), pm("wall_s")]


def write_report(records: list[RunRecord], fmt: str = "csv") -> str:
    """Render records plus their aggregates; rejects an empty run list."""
    if not records:
        raise ValueError("no runs to report")
    ordered = sorted(records, key=lambda r: (r.circuit, r.task, r.solver,
                                             r.seed))
    aggs = aggregate(ordered)
    if fmt == "csv":
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        writer.writerow(_CSV_COLUMNS)
        for r in ordered:
            writer.writerow(_run_row(r))
        for a in aggs:
            writer.writerow(_agg_row(a))
        return buf.getvalue()
    if fmt == "json":
        doc = {
            "format": "stackfp-report-1",
            "runs": [dataclasses.asdict(r) for r in ordered],
            "aggregates": aggs,
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"
    raise ValueError(f"unknown report format {fmt!r}")
