"""Workloads of the stackfp benchmark: seeded inputs, the closed loops that
drive the public library API, output checks, and the traced pass.

Every workload runs the same scale ladder (12 blocks on 32x32, 50 on 64x64,
100 and 200 on 128x128, all two layers).  Inputs come from
`fileio.synth_instance`, are written as circuit, constraint and plug-in JSON,
and are loaded back through `fileio` before the first solve, so the loop
sees only what a user of `stackfp solve` would give it.

A run is a sequence of rounds.  A round makes one pass over every instance
of the ladder with the workload's operations, and every round repeats the
same operations with the same seeds, so rounds are replicates and a timing
is the median over them.  Round 0's outputs feed the quality metrics and
the digest, which therefore depend on the seed only, never on how many
rounds fit in the time budget.  Every finished placement of every round is
checked.

The library is imported from `src/` of the checkout this file sits in, never
from an installed copy.
"""

import contextlib
import dataclasses
import functools
import hashlib
import json
import math
import statistics
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class BenchSetupError(RuntimeError):
    """The checkout has no library to benchmark."""


if not (SRC / "stackfp" / "__init__.py").is_file():
    raise BenchSetupError(f"no stackfp sources under {SRC}")
sys.path.insert(0, str(SRC))

import numpy as np  # noqa: E402

import stackfp  # noqa: E402
from stackfp import core, fileio, masks, metrics, solvers  # noqa: E402
from stackfp import env as envmod  # noqa: E402

if Path(stackfp.__file__).resolve().parent != (SRC / "stackfp").resolve():
    raise BenchSetupError(f"stackfp imported from {stackfp.__file__}, not {SRC}")

from hostref import factor, reference_s  # noqa: E402
from tracer import PARENT, ERROR, NAME, Tracer  # noqa: E402

# (label, blocks, grid side, instances); every point has two layers.  Per-step
# cost differs between instances of one size (the share of soft blocks sets
# how often lookahead runs), so small points average over more instances.
POINTS = (("n12", 12, 32, 16), ("n50", 50, 64, 4), ("n100", 100, 128, 2),
          ("n200", 200, 128, 2))
LABELS = tuple(p[0] for p in POINTS)
DEFAULT_FILL = 0.35
DENSE_FILL = 0.7

# annealing budget per point as (calibration moves, iterations): large
# enough that the fixed-ratio decodes take about four fifths of sa_place's
# time, the rest being the free greedy solve it starts from and the
# wirelength baseline; small enough that the 200-block point still gets a
# second sample in most runs
SA_BUDGET = {"n12": (4, 12), "n50": (2, 8), "n100": (2, 10), "n200": (2, 6)}
EPISODES = {"n12": 2, "n50": 2, "n100": 1, "n200": 1}   # per instance and round
SAT_RULES = ("boundary", "grouping", "alignment")
STRUCTURAL_RULES = ("overlap", "outline", "shape")

@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    kind: str                           # the timed operation: greedy | sa | episode
    tasks: tuple[int, ...]
    dense: frozenset = frozenset()      # points generated at DENSE_FILL
    plugins: bool = False
    trace_rounds: int = 1               # fixed work of a traced run


WORKLOADS = {w.name: w for w in (
    Workload("greedy-ladder", "greedy", tasks=(1, 2, 3), trace_rounds=1),
    Workload("sa-anneal", "sa", tasks=(3,), trace_rounds=1),
    Workload("env-rollout", "episode", tasks=(3,), dense=frozenset({"n100", "n200"}),
             plugins=True, trace_rounds=3),
)}


@dataclasses.dataclass
class Instance:
    name: str               # <point>.<copy>
    label: str              # the point
    n: int
    circuit: object
    plugins: tuple


@dataclasses.dataclass
class Outcome:
    """One operation: a free greedy solve, an sa_place run or an episode."""
    label: str
    inst: str
    point: str
    kind: str               # greedy | sa | episode
    wall_s: float
    placements: int         # block placements inside the timed call
    decodes: int = 0
    dead: bool = False
    state: object = None
    profile: object = None
    summary: object = None
    cost: float | None = None
    initial_cost: float | None = None
    baseline: float | None = None
    placement: str | None = None
    host: float = 1.0       # host factor around the call (see reference_s)


# --- inputs -------------------------------------------------------------------

def _counts(n: int) -> tuple[int, int, int]:
    """Aligned, bound and grouped block counts: the synth default at small
    sizes, a fifth/tenth/fifth of the blocks beyond."""
    return max(10, 2 * (n // 10)), max(5, n // 10), max(10, 2 * (n // 10))


def _plugin_specs(circuit, rng) -> list[list]:
    """Three BlockDistanceRule plug-ins on each of n/8 late subjects, each
    toward a block placed before it with a radius of 10-35% of the half
    perimeter.  Anchors are drawn independently, so rules on one subject
    often cannot all hold and relaxation has to drop some."""
    order = core.default_order(circuit)
    n = len(order)
    half = (circuit.dims.width + circuit.dims.height) / 2.0
    specs = []
    subjects = rng.choice(np.arange(n // 4, n), size=max(2, n // 8), replace=False)
    for pos in sorted(int(p) for p in subjects):
        anchors = rng.choice(order[:pos], size=min(3, pos), replace=False)
        for a in anchors:
            specs.append([int(a), int(order[pos]),
                          round(float(rng.uniform(0.10, 0.35)) * half, 3)])
    return specs


def generate(workload: Workload, seed: int, workdir: Path, points=POINTS) -> None:
    """Write each instance's circuit, constraint and plug-in JSON."""
    workdir.mkdir(parents=True, exist_ok=True)
    for label, n, side, copies in points:
        k = LABELS.index(label)
        fill = DENSE_FILL if label in workload.dense else DEFAULT_FILL
        for c in range(copies):
            inst_seed = 100_000 * seed + 1000 * k + 10 * c
            circuit, cf = fileio.synth_instance(
                f"{label}.{c}-s{seed}", inst_seed, n_blocks=n,
                n_terminals=max(12, n // 4), counts=_counts(n),
                dims=core.GridDims(side, side, 2), fill=fill)
            specs = []
            if workload.plugins:
                specs = _plugin_specs(circuit, np.random.default_rng(inst_seed + 5))
            name = f"{label}.{c}"
            (workdir / f"{name}.circuit.json").write_text(fileio.circuit_to_json(circuit))
            (workdir / f"{name}.constraints.json").write_text(cf.to_json())
            (workdir / f"{name}.plugins.json").write_text(json.dumps(specs) + "\n")


def load(workdir: Path) -> list[Instance]:
    """Read every generated instance back the way `stackfp solve
    --constraints` does."""
    out = []
    for label, n, _, copies in POINTS:
        for c in range(copies):
            name = f"{label}.{c}"
            if not (workdir / f"{name}.circuit.json").exists():
                continue
            circuit = fileio.circuit_from_json(
                (workdir / f"{name}.circuit.json").read_text())
            cf = fileio.ConstraintFile.from_json(
                (workdir / f"{name}.constraints.json").read_text())
            circuit = fileio.apply_constraints(circuit, cf)
            specs = json.loads((workdir / f"{name}.plugins.json").read_text())
            plugins = tuple(masks.BlockDistanceRule(a, s, d) for a, s, d in specs)
            out.append(Instance(name, label, n, circuit, plugins))
    return out


# --- operations ---------------------------------------------------------------

class Pass:
    """Freshly loaded inputs plus the rounds run over them.  With a tracer,
    each operation is one root span and its calls into the library nest
    under it."""

    def __init__(self, workload: Workload, seed: int, workdir: Path,
                 tracer: Tracer | None = None):
        self.workload = workload
        self.seed = seed
        self.tracer = tracer
        self.insts = load(workdir)
        self.envs = {}

    def _op(self, label: str):
        if self.tracer is None:
            return contextlib.nullcontext()
        return self.tracer.span(label)

    def _write(self, out: Outcome, circuit, task: int) -> Outcome:
        out.placement = fileio.placement_to_json(
            out.state, circuit.name, task, out.kind, self.seed)
        return out

    def ops(self, r: int) -> list:
        """Round r as a list of (label, call) pairs, each call returning one
        Outcome."""
        kind = self.workload.kind
        # largest point first, so that a round cut at the deadline drops
        # the short operations of the small points, which have many copies
        insts = sorted(enumerate(self.insts), key=lambda ki: -ki[1].n)
        if kind == "greedy":
            specs = [(f"greedy {inst.name} t{task}", self._greedy, inst, task)
                     for _, inst in insts for task in self.workload.tasks]
        elif kind == "sa":
            specs = [(f"sa {inst.name}", self._anneal, inst, k) for k, inst in insts]
        else:
            specs = []
            if r == 0:
                # the greedy solution an RL policy is measured against
                specs += [(f"greedy-ref {inst.name} t3", self._greedy, inst, 3)
                          for _, inst in insts if inst.name.endswith(".0")]
            for k, inst in insts:
                specs += [(f"episode {inst.name} e{e}", self._episode, inst, k, e)
                          for e in range(EPISODES[inst.label])]
        return [(label, functools.partial(fn, label, *args))
                for label, fn, *args in specs]

    def _greedy(self, label: str, inst: Instance, task: int) -> Outcome:
        profile = core.TaskProfile.for_task(task)
        with self._op(label):
            t0 = time.perf_counter()
            res = solvers.greedy_place(inst.circuit, profile)
            wall = time.perf_counter() - t0
            out = Outcome(label, inst.name, inst.label, "greedy", wall, inst.n,
                          state=res.state, profile=profile, summary=res.summary,
                          cost=res.cost, baseline=res.trace.hpwl_baseline)
            return self._write(out, inst.circuit, task)

    def _anneal(self, label: str, inst: Instance, k: int) -> Outcome:
        profile = core.TaskProfile.for_task(3)
        calib, iters = SA_BUDGET[inst.label]
        config = solvers.SolverConfig(kind="sa", seed=1000 * self.seed + k,
                                      sa_iterations=iters,
                                      sa_calibration_moves=calib)
        with self._op(label):
            t0 = time.perf_counter()
            res = solvers.sa_place(inst.circuit, profile, config)
            wall = time.perf_counter() - t0
            out = Outcome(label, inst.name, inst.label, "sa", wall,
                          inst.n * (calib + iters),
                          decodes=calib + iters, state=res.state, profile=profile,
                          summary=res.summary, cost=res.cost,
                          initial_cost=res.initial_cost,
                          baseline=res.trace.hpwl_baseline)
            return self._write(out, inst.circuit, 3)

    def _episode(self, label: str, inst: Instance, k: int, e: int) -> Outcome:
        """A seeded random policy: reads the canvas and every value mask as a
        network's input would, picks uniformly from the availability mask and
        draws the next soft block's ratio log-uniformly in its band."""
        profile = core.TaskProfile.for_task(3)
        circuit = inst.circuit
        env = self.envs.get(inst.name)
        if env is None:
            env = self.envs[inst.name] = envmod.PlacementEnv(
                circuit, profile, plugins=inst.plugins)
        rng = np.random.default_rng((self.seed, k, e))
        with self._op(label):
            t0 = time.perf_counter()
            obs = env.reset()
            steps, dead, features = 0, False, 0.0
            while obs is not None:
                if not obs.availability.feasible:
                    dead = True
                    break
                features += float(obs.canvas.sum())
                features += sum(float(m.values.sum())
                            for _, m in obs.masks.named_value_masks())
                cells = np.flatnonzero(obs.availability.mask)
                x, y = divmod(int(rng.choice(cells)), circuit.dims.height)
                ar_next = None
                cur = env.state.cursor
                if cur + 1 < len(env.state.order):
                    nxt = circuit.blocks[env.state.order[cur + 1]]
                    if nxt.is_soft:
                        ar_next = math.exp(rng.uniform(math.log(nxt.ar_min),
                                                       math.log(nxt.ar_max)))
                obs, _, _ = env.step(envmod.Action(x, y, ar_next))
                steps += 1
            summary = cost = None
            if not dead:
                summary = envmod.episode_summary(env.state, env.trace,
                                                 profile=profile,
                                                 plugins=inst.plugins)
                cost = solvers.objective_cost(summary.norm, profile)
            wall = time.perf_counter() - t0
            out = Outcome(label, inst.name, inst.label, "episode", wall, steps,
                          dead=dead, state=env.state, profile=profile,
                          summary=summary, cost=cost, baseline=env.hpwl_baseline)
            return out if dead else self._write(out, circuit, 3)


# --- checks -------------------------------------------------------------------

def check(out: Outcome, inst: Instance) -> list[str]:
    """Problems with one finished placement: unplaced blocks, overlap, outline
    or shape violations, a cost that a placement-file round trip does not
    reproduce, or an annealer ending above its greedy start."""
    if out.dead:
        return []
    problems = []
    state = out.state
    if not (state.done and state.placed.all()):
        problems.append("blocks left unplaced")
    counts = metrics.satisfaction_counts(state)
    for rule in STRUCTURAL_RULES:
        ok, total = counts[rule]
        if ok != total:
            problems.append(f"{rule} holds for {ok} of {total}")
    _, rows = fileio.placement_from_json(out.placement)
    back = fileio.state_from_placement(inst.circuit, rows)
    norm = metrics.normalize(metrics.metric_snapshot(back), inst.circuit, out.baseline)
    cost = solvers.objective_cost(norm, out.profile)
    if cost != out.cost:
        problems.append(f"round-trip cost {cost!r} != solver cost {out.cost!r}")
    if out.initial_cost is not None and out.cost > out.initial_cost:
        problems.append(f"annealed cost {out.cost!r} above greedy start "
                        f"{out.initial_cost!r}")
    return [f"{out.label}: {p}" for p in problems]


class Tally:
    """Samples, round-0 outputs and failures of one pass.  With `host_refs`,
    the reference kernel runs after every operation, once per started half
    second of operation time; an operation's host factor is the median
    reference time just before and just after it (see hostref)."""

    def __init__(self, workload: Workload, host_refs: bool = False):
        self.workload = workload
        self.host_refs = host_refs
        self.outcomes: list[Outcome] = []
        self.round0: list[Outcome] = []
        self.problems: list[str] = []
        self.refs: list[float] = []
        self.last_wall: dict[str, float] = {}
        self.attempted = 0
        self.failed = 0
        self.op_s = 0.0

    def run_round(self, p: Pass, r: int, deadline: float | None = None) -> bool:
        """Run round r.  With a deadline, skip each operation whose previous
        sample says it would end after it; True if none was skipped."""
        by_name = {inst.name: inst for inst in p.insts}
        outs = []
        before = [reference_s()] if self.host_refs else []
        complete = True
        for label, op in p.ops(r):
            if (deadline is not None
                    and time.perf_counter() + self.last_wall.get(label, 0.0) > deadline):
                complete = False
                continue
            out = op()
            outs.append(out)
            if self.host_refs:
                reference_s()       # refill the caches the operation evicted
                after = [reference_s() for _ in range(1 + int(out.wall_s / 0.5))]
                out.host = factor(before + after)
                self.refs += after
                before = after
            self.last_wall[label] = out.wall_s
            self.attempted += 1
            self.op_s += out.wall_s
            if p.tracer is None:
                found = check(out, by_name[out.inst])
            else:
                with p.tracer.paused():
                    found = check(out, by_name[out.inst])
            if found:
                self.failed += 1
                self.problems += found
            out.state = None            # keep memory flat over long runs
            if r > 0:
                out.summary = out.placement = None
        self.outcomes += outs
        if r == 0:
            self.round0 = outs
        return complete

    def timed(self, kind: str | None = None) -> list[Outcome]:
        kind = kind or self.workload.kind
        return [o for o in self.outcomes if o.kind == kind]

    def host_factor(self) -> float:
        """Host factor of the whole run."""
        return factor(self.refs)

    def per_point(self, value) -> dict[str, tuple[float, int]]:
        """Per point: the mean over its operations of the median of `value`
        over the rounds, which repeat the same operations (a round cut at
        the deadline leaves some with one sample fewer), and the sample
        count.  Only the workload's own operations count, not the greedy
        references of env-rollout."""
        by_op: dict[tuple[str, str], list[float]] = {}
        for o in self.timed():
            if o.placements:
                by_op.setdefault((o.point, o.label), []).append(value(o))
        out = {}
        for label in LABELS:
            groups = [v for (point, _), v in by_op.items() if point == label]
            out[label] = (statistics.fmean(statistics.median(v) for v in groups),
                          sum(map(len, groups)))
        return out

    def step_ms(self, adjusted: bool = True) -> dict[str, tuple[float, int]]:
        """Milliseconds per block placement at each point; adjusted samples
        divide each operation's wall time by its host factor."""
        return self.per_point(lambda o: 1000.0 * o.wall_s / o.placements
                              / (o.host if adjusted else 1.0))

    def digest(self) -> str:
        h = hashlib.sha256()
        for o in self.round0:
            h.update(o.label.encode())
            if o.dead:
                h.update(f"dead after {o.placements}".encode())
            else:
                h.update(o.placement.encode())
                h.update(repr(o.cost).encode())
        return "sha256:" + h.hexdigest()

    def quality(self) -> dict[str, float]:
        """Wirelength against the wire-greedy baseline and satisfied share of
        boundary, grouping and alignment instances, over round 0's finished
        placements by the workload's own operation."""
        done = [o for o in self.round0 if o.kind == self.workload.kind and not o.dead]
        ok = sum(o.summary.satisfaction[r][0] for o in done for r in SAT_RULES)
        total = sum(o.summary.satisfaction[r][1] for o in done for r in SAT_RULES)
        return {
            "hpwl_ratio": statistics.fmean(o.summary.norm.hpwl for o in done),
            "rule_sat_frac": ok / total,
            "cost": statistics.fmean(o.cost for o in done),
        }


def run_timed(workload: Workload, seed: int, deadline: float, workdir: Path) -> Tally:
    """Untraced closed loop: round 0 in full, then rounds until one has to
    skip an operation that would end after `deadline` (a `perf_counter`
    time)."""
    tally = Tally(workload, host_refs=True)
    p = Pass(workload, seed, workdir)
    tally.run_round(p, 0)
    r = 1
    while tally.run_round(p, r, deadline):
        r += 1
    return tally


# --- traced pass ----------------------------------------------------------------

def _sites(counters: dict):
    def on_availability(args, kwargs, res):
        counters["availability"] += 1
        if not res.feasible:
            counters["infeasible"] += 1
        elif res.dropped:
            counters["relaxed"] += 1

    def on_greedy(args, kwargs, res):
        if kwargs.get("ars") is None:
            # a free solve's ratios come from lookahead, except the first
            # block's, which the reset scan picks
            counters["lookahead_chosen"] += len(res.ars) - (res.order[0] in res.ars)

    def on_sa(args, kwargs, res):
        counters["sa_iterations"] += len(res.cost_curve) - 1
        counters["sa_accepted"] += res.accepted

    PE, FS = envmod.PlacementEnv, core.FloorplanState
    return [
        ("masks.compile_masks.observe", envmod, "compile_masks", None),
        ("masks.compile_masks.lookahead", solvers, "compile_masks", None),
        ("masks.position_mask", masks, "position_mask", None),
        ("masks.wire_mask", masks, "wire_mask", None),
        ("masks.adjacent_terminal_mask", masks, "adjacent_terminal_mask", None),
        ("masks.adjacent_block_mask", masks, "adjacent_block_mask", None),
        ("masks.alignment_mask", masks, "alignment_mask", None),
        ("masks.block_distance_mask", masks, "block_distance_mask", None),
        ("masks.availability_mask", masks, "availability_mask", on_availability),
        ("metrics.metric_snapshot", envmod, "metric_snapshot", None),
        ("metrics.total_hpwl", metrics, "total_hpwl", None),
        ("metrics.total_overlap", metrics, "total_overlap", None),
        ("metrics.satisfaction_counts", envmod, "satisfaction_counts", None),
        ("core.occupancy_grid", envmod, "occupancy_grid", None),
        ("env.episode_summary", envmod, "episode_summary", None),
        ("env.episode_summary", solvers, "episode_summary", None),
        ("env.wire_greedy_baseline", envmod, "wire_greedy_baseline", None),
        ("env.wire_greedy_baseline", solvers, "wire_greedy_baseline", None),
        ("env.PlacementEnv.reset", PE, "reset", None),
        ("env.PlacementEnv.step", PE, "step", None),
        ("core.FloorplanState.clone", FS, "clone", None),
        ("solvers.greedy_place", solvers, "greedy_place", on_greedy),
        ("solvers.sa_place", solvers, "sa_place", on_sa),
        ("fileio.circuit_from_json", fileio, "circuit_from_json", None),
        ("fileio.placement_to_json", fileio, "placement_to_json", None),
    ]


END_TO_END = (
    [("setup_s", "s")]
    + [(f"step_ms.{label}", "ms") for label in LABELS]
    + [("hpwl_ratio", "ratio"), ("rule_sat_frac", "ratio"), ("peak_rss_mb", "MB")]
)

# spans reported with call count and total seconds, on every workload
TIMED = (
    "masks.compile_masks.lookahead", "masks.compile_masks.observe",
    "masks.position_mask", "masks.wire_mask", "masks.adjacent_terminal_mask",
    "masks.adjacent_block_mask", "masks.alignment_mask", "masks.availability_mask",
    "metrics.metric_snapshot", "metrics.total_hpwl", "metrics.total_overlap",
    "core.occupancy_grid", "metrics.satisfaction_counts", "env.episode_summary",
    "env.wire_greedy_baseline", "env.PlacementEnv.step", "env.PlacementEnv.reset",
    "solvers.greedy_place", "fileio.circuit_from_json", "fileio.placement_to_json",
)
# spans whose self time (total minus child spans) is reported too
WITH_SELF = (
    "masks.compile_masks.lookahead", "masks.compile_masks.observe",
    "metrics.metric_snapshot", "env.episode_summary", "env.PlacementEnv.step",
    "env.PlacementEnv.reset", "solvers.greedy_place",
)
# spans only some workloads reach; their call counts are reported
COUNTED = ("core.FloorplanState.clone", "solvers.sa_place", "masks.block_distance_mask")

PER_LAYER = (
    [(f"{n}.calls", "count") for n in TIMED]
    + [(f"{n}.s", "s") for n in TIMED]
    + [(f"{n}.self_s", "s") for n in WITH_SELF]
    + [(f"{n}.calls", "count") for n in COUNTED]
    + [("masks.availability.relaxed_frac", "ratio"),
       ("masks.availability.infeasible", "count"),
       ("solvers.lookahead.useful_frac", "ratio"),
       ("solvers.sa.accept_frac", "ratio"),
       ("solvers.sa.infeasible_frac", "ratio"),
       ("env.dead_end_frac", "ratio"),
       ("trace.spans", "count"),
       ("trace.untraced_s", "s"),
       ("trace.overhead_s", "s"),
       ("trace.overhead_frac", "ratio")]
)


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def run_traced(workload: Workload, seed: int, workdir: Path,
               rounds: int | None = None):
    """Fixed work run twice, untraced and traced, round by round in
    alternating order, so call counts repeat exactly for a seed and the
    difference in operation time is the tracing overhead.  Returns the
    traced tally, the tracer and the per-layer metrics."""
    rounds = workload.trace_rounds if rounds is None else rounds
    tracer = Tracer()
    counters = dict.fromkeys(("availability", "relaxed", "infeasible",
                              "lookahead_chosen", "sa_iterations",
                              "sa_accepted"), 0)
    sites = _sites(counters)
    plain, traced = Tally(workload), Tally(workload)
    plain_pass = Pass(workload, seed, workdir)
    with tracer.installed(sites):
        traced_pass = Pass(workload, seed, workdir, tracer)

    def traced_round(r):
        with tracer.installed(sites):
            traced.run_round(traced_pass, r)

    for r in range(rounds):
        if r % 2:
            traced_round(r)
            plain.run_round(plain_pass, r)
        else:
            plain.run_round(plain_pass, r)
            traced_round(r)
    if traced.digest() != plain.digest():
        traced.failed += 1
        traced.problems.append("traced outputs differ from untraced outputs")

    totals = tracer.totals()
    layer = {}
    for name in TIMED + COUNTED:
        layer[f"{name}.calls"] = totals.get(name, {}).get("calls", 0)
    for name in TIMED:
        layer[f"{name}.s"] = totals.get(name, {}).get("s", 0.0)
    for name in WITH_SELF:
        layer[f"{name}.self_s"] = totals.get(name, {}).get("self_s", 0.0)

    under_sa = [i for i, s in enumerate(tracer.spans)
                if s[NAME] == "solvers.greedy_place" and s[PARENT] >= 0
                and tracer.has_ancestor(i, "solvers.sa_place")]
    decodes = len(under_sa) - layer["solvers.sa_place.calls"]
    dead_ends = sum(1 for i in under_sa if tracer.spans[i][ERROR] == "InfeasibleError")
    episodes = traced.timed("episode")
    layer.update({
        "masks.availability.relaxed_frac": _ratio(counters["relaxed"],
                                                  counters["availability"]),
        "masks.availability.infeasible": counters["infeasible"],
        "solvers.lookahead.useful_frac": _ratio(
            counters["lookahead_chosen"],
            layer["masks.compile_masks.lookahead.calls"]),
        "solvers.sa.accept_frac": _ratio(counters["sa_accepted"],
                                         counters["sa_iterations"]),
        "solvers.sa.infeasible_frac": _ratio(dead_ends, decodes),
        "env.dead_end_frac": _ratio(sum(o.dead for o in episodes), len(episodes)),
        "trace.spans": len(tracer.spans),
        "trace.untraced_s": plain.op_s,
        "trace.overhead_s": traced.op_s - plain.op_s,
        "trace.overhead_frac": _ratio(traced.op_s - plain.op_s, plain.op_s),
    })
    return traced, tracer, layer
