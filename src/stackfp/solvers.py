"""Placement solvers driving the masked environment.

All three solvers draw every anchor from the availability mask, so whatever
that mask encodes (non-overlap, outline, and any enabled rule that survived
relaxation) holds for their output by construction.  They share one rollout
(reset, step loop, cost) and differ only in how they pick among the
allowed cells and how they shape soft blocks:

* greedy: lexicographic scan of the value masks (wirelength up, alignment
  down, shared edge down, terminal distance up), final ties broken row-major;
  each soft block's ratio comes from a scan over a small candidate ladder on
  the episode's live state, the one the block is observed on, so the winning
  shape's best cell is the one greedy places it at, and its mask stack,
  when it compiled one, becomes the block's observation.  Candidates are
  visited by a lower bound on their score, and only until none left can
  win; each is compiled at most once, and a block that no rule on the
  ladder binds (`masks.rule_free`) not at all, since its wire floor (the
  least wire value a shape can reach where it fits, and the least cell
  that reaches it) is its whole score.  Blocks placed without a scan take
  the same shortcut.
* annealing: reuses greedy as a decoder for a genome of placement order plus
  per-block ratios, starting from the greedy solution itself.
* random: uniform over the allowed cells, ratios log-uniform in the band.

Costs are the negated weighted metric score of the final normalized metrics,
so lower is better and the annealer's objective agrees with the reward.
"""

import dataclasses
import functools
import math
import numbers
import time
from typing import Callable, NamedTuple

import numpy as np

from .core import (
    Circuit,
    FloorplanState,
    InfeasibleError,
    TaskProfile,
    shape_from_ar,
)
from .env import (
    Action,
    EpisodeSummary,
    EpisodeTrace,
    InvalidActionError,
    Observation,
    PlacementEnv,
    StepRecord,
    _checked_ratio,
    _with_ratio,
    episode_summary,
    weighted_score,
    wire_greedy_baseline,   # noqa: F401  perfbench wraps solvers.wire_greedy_baseline
)
from .masks import (
    MaskStack,
    compile_masks,
    rule_free,
    wire_floor,
    wire_profiles,
)
from .metrics import MetricTuple

AR_CANDIDATES = 8                       # ratio ladder length per soft block
# greedy's lexicographic keys: MaskStack.rules name and optimization sense
TIE_KEYS = (("wire", "min"), ("alignment", "max"), ("grouping", "max"),
            ("terminal", "min"))
SA_ALPHA = 0.95                         # temperature decay per iteration
SA_MOVE_WEIGHTS = (0.4, 0.3, 0.3)       # swap, relocate, ratio nudge


@dataclasses.dataclass(frozen=True)
class SolverConfig:
    kind: str = "greedy"                  # greedy | sa | random
    seed: int = 0
    sa_iterations: int = 2000
    sa_calibration_moves: int = 50        # sampled moves that set the start temperature

    def __post_init__(self):
        if self.kind not in ("greedy", "sa", "random"):
            raise ValueError(f"unknown solver kind {self.kind!r}")
        for name in ("seed", "sa_iterations", "sa_calibration_moves"):
            value = getattr(self, name)
            # numpy integers count; a bool is no count
            if isinstance(value, bool) or not isinstance(value, numbers.Integral) or value < 0:
                raise ValueError(f"{name} must be an integer >= 0, got {value!r}")


@dataclasses.dataclass
class SolveResult:
    """A finished placement.  Its `summary` is built when first read and
    then kept, so a decode whose caller needs only the cost (each of the
    annealer's candidate decodes) builds none."""
    kind: str
    state: FloorplanState
    trace: EpisodeTrace
    order: tuple[int, ...]
    ars: dict[int, float]
    cost: float
    runtime_s: float
    _summarize: Callable[[], EpisodeSummary] = dataclasses.field(
        repr=False, compare=False)

    @property
    def summary(self) -> EpisodeSummary:
        return self._summarize()


@dataclasses.dataclass
class SAResult(SolveResult):
    initial_cost: float = 0.0
    t0: float = 0.0
    accepted: int = 0
    cost_curve: list[float] = dataclasses.field(default_factory=list)
    infeasible: int = 0     # decodes that dead-ended, calibration included
    noops: int = 0          # decodes that placed nothing: no slot changed


def objective_cost(norm: MetricTuple, profile: TaskProfile) -> float:
    """What the annealer minimizes over final normalized metrics."""
    if not norm.normalized:
        raise ValueError("cost is defined over normalized metrics")
    return -weighted_score(norm, profile)


@functools.lru_cache(maxsize=4096, typed=True)
def _ladder_shapes(area: int, ar_min: float,
                   ar_max: float) -> tuple[tuple[float, tuple[int, int]], ...]:
    """The ladder's (ratio, shape) pairs: AR_CANDIDATES geometrically
    spaced ratios across [ar_min, ar_max], kept per area and band."""
    out, seen = [], set()
    for r in np.geomspace(ar_min, ar_max, AR_CANDIDATES).tolist():
        shape = shape_from_ar(area, r, ar_min, ar_max)
        if shape not in seen:
            seen.add(shape)
            out.append((r, shape))
    return tuple(out)


def ar_candidate_ladder(block) -> list[tuple[float, tuple[int, int]]]:
    """AR_CANDIDATES geometrically spaced ratios across the block's band,
    each with the (w, h) it quantizes to, deduplicated by that shape."""
    if not block.is_soft:
        return []
    return list(_ladder_shapes(block.area, block.ar_min, block.ar_max))


def _available_anchors(stack: MaskStack) -> tuple[np.ndarray, np.ndarray]:
    """The anchors the availability mask allows, as arrays of x and of y in
    row-major order."""
    avail = stack.availability
    xs, ys = avail.anchors()
    if xs.size == 0:
        raise InfeasibleError(
            f"no cell available for block {stack.block} ({avail.rung})")
    return xs, ys


def _available_cells(stack: MaskStack) -> np.ndarray:
    """Flat indices of the cells the availability mask allows, ascending."""
    xs, ys = _available_anchors(stack)
    return xs * stack.availability.shape[1] + ys


def _filter_cells(stack: MaskStack) -> tuple[np.ndarray, tuple]:
    """Lexicographic filtering over the available cells.

    Each key keeps only the cells optimal for its value mask, read at the
    cells that are left (`RuleMask.at`); keys whose rule does not bind this
    block are skipped.  Returns the surviving flat indices, ascending, and
    the score prefix (relaxation depth first, then one value per applied
    key) used to compare placements across aspect ratio candidates."""
    xs, ys = _available_anchors(stack)
    score = [float(len(stack.availability.dropped))]
    for key, sense in TIE_KEYS:
        mask = stack.rules.get(key)
        if mask is None:
            continue
        vals = mask.at(xs, ys)
        best = vals.max() if sense == "max" else vals.min()
        score.append(-float(best) if sense == "max" else float(best))
        if xs.size > 1:
            keep = vals == best
            xs, ys = xs[keep], ys[keep]
    return xs * stack.availability.shape[1] + ys, tuple(score)


def _pick_cell(stack: MaskStack) -> int:
    """Greedy's cell: the smallest flat index among the lexicographic
    survivors, i.e. row-major, smallest x, then smallest y."""
    cells, _ = _filter_cells(stack)
    return int(cells.min())


def _greedy_pick(obs: Observation) -> int:
    """Greedy's cell for the observed block.  When no rule binds it
    (`rule_free`), its available cells are those where it fits and of the
    tie keys only wire varies over them (an island with no placed member
    scores zero everywhere), so `wire_floor` names the cell and no stack
    is compiled."""
    if not obs.rule_free:
        return _pick_cell(obs.masks)
    _, cell = wire_floor(obs._state, obs.block)
    if cell is None:
        raise InfeasibleError(f"no cell available for block {obs.block} (infeasible)")
    return cell


class _Lookahead(NamedTuple):
    """A scanned block's winning shape: greedy's cell on the state the
    episode observes the block on, and its mask stack there, None when no
    rule binds it (none was compiled)."""
    masks: MaskStack | None
    cell: int


def _scan_ar(env: PlacementEnv, block_id: int) -> tuple[float | None, _Lookahead | None]:
    """Greedy's ratio for the block up next: try its candidate shapes on
    the episode's state, where the block is observed, and keep the shape
    whose best cell scores lowest, ties going to the earlier ladder entry;
    the winner's best cell and stack come back too, to become that
    observation's pick and stack.  The wire profiles and the rules that
    bind the block (the observation's) do not depend on the shape and are
    worked out once.  The block keeps the shape it had; the caller sets
    the chosen one.  (None, None) when no candidate fits.

    The scan is a branch-and-bound.  A shape's score leads with its dropped
    rules and then its least wire value over the available cells, which its
    `wire_floor` bounds from below, as min gx + min gy of its wire growth
    bounds the floor.  A shape that no rule binds drops none and scores
    (0, floor, cell, ladder index) with no stack compiled; such shapes are
    visited in (min gx + min gy, ladder index) order until that bound
    exceeds the best floor, each floor after the first searched only at or
    below the best so far.  Shapes that rules bind are visited in (floor,
    ladder index) order and each is scored at most once, until the next
    floor exceeds the wire value of the best candidate that dropped no
    rule.  An infinite floor or bound means no later candidate fits."""
    state, dims = env.state, env.circuit.dims
    kept = state.w[block_id], state.h[block_id]
    ladder = ar_candidate_ladder(env.circuit.blocks[block_id])
    wire = wire_profiles(state, block_id, [w for _, (w, _) in ladder],
                         [h for _, (_, h) in ladder])
    bound = env.observation._bound

    def floor(i: int, below: float = math.inf) -> tuple[float, int | None]:
        state.set_shape(block_id, ladder[i][0])
        return wire_floor(state, block_id, wire, below=below)

    def least_growth(w: int, h: int) -> float:
        # min gx + min gy over the anchors that keep a w x h block on the grid
        nx, ny = dims.width - w + 1, dims.height - h + 1
        return math.inf if min(nx, ny) < 1 else wire[0].at(w)[:nx].min() + wire[1].at(h)[:ny].min()

    if rule_free(bound):
        best = (math.inf, -1, -1)       # (floor, cell, ladder index)
        for low, i in sorted((least_growth(*shape), i) for i, (_, shape) in enumerate(ladder)):
            if low > best[0] or low == math.inf:
                break
            least, cell = floor(i, best[0])
            if cell is not None:
                best = min(best, (least, cell, i))
        _, cell, i = best
        found = None if i < 0 else (ladder[i][0], _Lookahead(None, cell))
    else:
        def scored(i: int):
            # the ladder index breaks ties as the first of equal scores in
            # ladder order would
            state.set_shape(block_id, ladder[i][0])
            stack = compile_masks(state, block_id, env.profile, env.plugins, wire, bound)
            cells, score = _filter_cells(stack)
            cell = int(cells.min())
            return score + (float(cell), i), ladder[i][0], _Lookahead(stack, cell)

        best = None
        for least, i in sorted((floor(i)[0], i) for i in range(len(ladder))):
            # a score is (dropped rules, least wire, ...)
            if least == math.inf or (best is not None and best[0][0] == 0
                                     and least > best[0][1]):
                break
            # min lets the loser go before the next candidate is compiled
            best = min(filter(None, (best, scored(i))), key=lambda c: c[0])
        found = best and best[1:]
    state.w[block_id], state.h[block_id] = kept
    return found or (None, None)


def _slot_key(circuit: Circuit, b: int, r) -> tuple[int, int, int] | None:
    """The key of a slot that places block `b` shaped by the ratio `r`
    (None keeps its shape): the block and its integer (w, h).  None for a
    ratio that `step` would reject, so that the slot differs from any."""
    try:
        r = _checked_ratio(r, "ar_next")
    except InvalidActionError:
        return None
    blk = circuit.blocks[b]
    return (b, blk.w, blk.h) if r is None else (
        b, *shape_from_ar(blk.area, r, blk.ar_min, blk.ar_max))


def _rollout(kind: str, circuit: Circuit, profile: TaskProfile, pick, choose,
             *, order, plugins, resume: SolveResult | None = None) -> SolveResult:
    """One masked episode, shared by every solver.  `pick(obs)` returns
    the flat index of the cell for the observed block.  The episode starts
    with one reset; then, for each block up next, `choose(env, block_id)`
    returns its ratio on the live state (None keeps its shape), which
    `PlacementEnv._shape_next` sets before the block's observation is read,
    and a `_Lookahead` or None; given one, the block goes down at its cell
    and its stack, if any, is handed to its observation
    (`Observation._hand`), so neither is worked out twice.

    `resume` is an earlier rollout of the same circuit, profile and
    plug-ins, given only with a `choose` that does not read env, and so
    returns no lookahead.  Every slot's ratio (`PlacementEnv._slots`) is
    then taken up front, in slot order, and each slot's key (`_slot_key`)
    compared once with the same slot's in `resume`: a slot's cell depends
    only on the blocks placed before it, their cells and shapes, and on
    its own key.  When no slot differs and the pinned blocks lead the order
    as in `resume`, the result shares `resume`'s state and summary.
    Otherwise `reset` replays `resume`'s records of the slots before the
    first that differs (of all, if none does), unobserved, and the episode
    steps from there until, at or past the last slot that differs and with
    slots left, the blocks it has placed are exactly `resume`'s at the
    same slot (same blocks, cells and shapes, in any order).  Every later
    step is `resume`'s, so that slot is not stepped: its record takes this
    episode's action and relaxation rung with `resume`'s metrics, the rest
    of the trace is `resume`'s, the rewards finalized afresh, and the
    state is a clone of `resume`'s final one in this episode's order.
    Each record taken from `resume` gets this episode's ratio for the slot
    after it, as the float `step` would record (`env._with_ratio`).  A
    ratio that `step` would reject makes its slot differ, so the episode
    reaches it and raises as it would without `resume`.

    The cost comes from the last step record, whose metrics are the final
    state's; the summary is left to the result to build when read."""
    t_start = time.perf_counter()
    if resume is not None and resume.state.circuit is not circuit:
        raise ValueError("resume is a decode of another circuit")
    env = PlacementEnv(circuit, profile, order=order, plugins=plugins)
    chosen: dict[int, float] = {}

    def shape(block_id: int) -> tuple[float | None, _Lookahead | None]:
        if not circuit.blocks[block_id].is_soft:
            return None, None
        r, ahead = choose(env, block_id)
        if r is not None:
            chosen[block_id] = r
        return r, ahead

    first_ar, replayed = None, []
    if resume is not None:
        # fixed ratios, taken in slot order as the steps would take them
        pinned, slots = env._slots()
        ratios = [shape(b)[0] for b in slots]
        done, final = resume.trace.steps, resume.state
        pw, ph = final.w.tolist(), final.h.tolist()
        theirs = [(s.block, pw[s.block], ph[s.block]) for s in done]
        differ = [i for i, key in enumerate(theirs)
                  if _slot_key(circuit, slots[i], ratios[i]) != key]
        nexts = ratios[1:] + [None]

        def taken(lo: int, hi: int) -> list[StepRecord]:
            # resume's records of slots lo..hi-1, with this episode's ratios
            return [_with_ratio(done[i], _checked_ratio(nexts[i], "ar_next"))
                    for i in range(lo, hi)]
        replayed = taken(0, differ[0] if differ else len(slots))
        # slot 0 is shaped before its record goes down
        first_ar = ratios[0] if replayed else None
    if resume is not None and not differ and final.order == pinned + slots:
        state, summarize = resume.state, resume._summarize
        trace = dataclasses.replace(resume.trace, steps=replayed)
    else:
        obs = env.reset(first_ar, replayed)
        apart: set[tuple[int, ...]] = set()   # placed by one episode only
        while obs is not None:
            r, ahead = shape(obs.block)
            env._shape_next(r)
            obs._hand(ahead and ahead.masks)
            cell = ahead.cell if ahead else pick(obs)
            x, y = divmod(cell, circuit.dims.height)
            if resume is not None:
                i, b = len(env.trace.steps), obs.block
                mine = (b, int(env.state.w[b]), int(env.state.h[b]), x, y)
                apart ^= {mine} ^ {theirs[i] + (done[i].x, done[i].y)}
                if not apart and differ[-1] <= i < len(slots) - 1:
                    here, *rest = taken(i, len(slots))
                    rung, dropped = obs._audit(x, y)
                    here = dataclasses.replace(here, block=b, x=x, y=y,
                                               rung=rung, dropped=dropped)
                    state = final.clone()
                    state.order = list(env.state.order)
                    trace = EpisodeTrace(env.hpwl_baseline,
                                         env.trace.steps + [here] + rest)
                    trace.finalize_rewards(profile)
                    break
            obs, _, _ = env.step(Action(x, y))
        else:
            state, trace = env.state, env.trace
        summarize = functools.cache(lambda: episode_summary(
            state, trace, profile=profile, plugins=plugins))
    # an episode with no step placed nothing but pinned blocks
    norm = trace.steps[-1].norm if trace.steps else summarize().norm
    return SolveResult(
        kind=kind,
        state=state,
        trace=trace,
        order=tuple(state.order),
        ars=chosen,
        cost=objective_cost(norm, profile),
        runtime_s=time.perf_counter() - t_start,
        _summarize=summarize,
    )


def greedy_place(circuit: Circuit, profile: TaskProfile, *,
                 order: list[int] | None = None,
                 ars: dict[int, float] | None = None,
                 plugins: tuple = (),
                 resume: SolveResult | None = None) -> SolveResult:
    """Mask-guided greedy placement.

    Free mode (ars None) also chooses every soft block's ratio by the
    candidate scan.  With `ars` given the ratios are fixed and no scanning
    happens, which is the decode path the annealer uses.  Either way the
    episode starts once, and each placed block is observed once.

    `resume`, allowed with fixed ratios only, is an earlier greedy result
    for the same circuit, profile and plug-ins, free or fixed, of any order
    and ratios.  Fixed-ratio decodes are causal, so `PlacementEnv.reset`
    replays `resume`'s records of the slots before the first whose block
    or integer shape differs, without compiling masks or taking metrics,
    and the decode steps only until its placed blocks rejoin `resume`'s,
    whose remaining records and final state it then takes over (see
    `_rollout`).  The output does not depend on `resume`: placement,
    trace, summary, ratios and cost equal those of the decode without it,
    which raises the same error exactly when this one does.  When no slot
    differs (nor the order of the pinned blocks), the result shares
    `resume`'s state and summary objects."""
    if ars is None:
        if resume is not None:
            raise ValueError("resume needs fixed ratios (ars)")
        choose = _scan_ar
    else:
        def choose(env, block_id):
            return ars.get(block_id), None
    return _rollout("greedy", circuit, profile, _greedy_pick, choose,
                    order=order, plugins=plugins, resume=resume)


def random_place(circuit: Circuit, profile: TaskProfile,
                 config: SolverConfig | None = None, *,
                 plugins: tuple = ()) -> SolveResult:
    """Uniform choice over the allowed cells; ratios log-uniform in band."""
    rng = np.random.default_rng(config.seed if config else 0)

    def pick(obs: Observation) -> int:
        return int(rng.choice(_available_cells(obs.masks)))

    def sample_ar(env, block_id) -> tuple[float, None]:
        block = circuit.blocks[block_id]
        return math.exp(rng.uniform(math.log(block.ar_min),
                                    math.log(block.ar_max))), None

    return _rollout("random", circuit, profile, pick, sample_ar,
                    order=None, plugins=plugins)


def _propose(tail: list[int], ars: dict[int, float], soft_ids: list[int],
             rng) -> tuple[list[int], dict[int, float]]:
    """One neighbor of the movable tail of the order and the soft blocks'
    ratios, as copies: swap two order slots, relocate one, or nudge a
    ratio."""
    tail, ars = list(tail), dict(ars)
    moves = ["swap", "relocate", "ar"]
    w = np.asarray(SA_MOVE_WEIGHTS, dtype=float)
    if len(tail) < 2:
        w[0] = w[1] = 0.0
    if not soft_ids:
        w[2] = 0.0
    if w.sum() == 0:
        return tail, ars
    move = rng.choice(moves, p=w / w.sum())
    if move == "swap":
        i, j = rng.choice(len(tail), size=2, replace=False)
        tail[i], tail[j] = tail[j], tail[i]
    elif move == "relocate":
        i = int(rng.integers(len(tail)))
        b = tail.pop(i)
        j = int(rng.integers(len(tail) + 1))
        tail.insert(j, b)
    else:
        bid = int(rng.choice(soft_ids))
        factor = math.exp(rng.uniform(-0.35, 0.35))
        ars[bid] *= factor      # decode clips to the band
    return tail, ars


def sa_place(circuit: Circuit, profile: TaskProfile,
             config: SolverConfig | None = None, *,
             plugins: tuple = ()) -> SAResult:
    """Simulated annealing over (order, ratios), decoded by the greedy
    placer; every decode normalizes wirelength by the circuit's own
    baseline, so costs compare across genomes.  The start temperature is
    calibrated from `sa_calibration_moves` sampled moves.

    Starts from the free greedy solution, so the initial cost equals the
    greedy cost and the best-so-far curve never rises above it.  The
    genome is the current decode's movable tail of the order (one step
    record per movable slot; the preplaced blocks stay pinned in front) and
    its ratios, which a fixed-ratio decode keeps exactly as it was given.
    Decodes that dead-end (a permutation can strand a block) count as
    rejected.  Each decode resumes from the current one (`greedy_place`'s
    `resume`): it replays the slots before the first one a move changes,
    and steps only until its placed blocks rejoin the current decode's, as
    a swap or relocation whose blocks land where they were before does;
    the output is the same as without resuming.  The result counts the
    dead-ended decodes (`infeasible`) and those that changed no slot and so
    placed nothing (`noops`), calibration decodes included.  Each decode is
    costed from its last step record and builds no summary; the result's
    summary is built when first read."""
    config = config or SolverConfig(kind="sa")
    t_start = time.perf_counter()
    rng = np.random.default_rng(config.seed)

    seed_result = greedy_place(circuit, profile, plugins=plugins)

    # each step record is one movable slot; the pinned blocks lead the order
    pinned = len(seed_result.order) - len(seed_result.trace.steps)
    prefix = list(seed_result.order[:pinned])
    soft_ids = sorted(seed_result.ars)
    cur = best = seed_result

    infeasible = noops = 0

    def decode(tail: list[int], ars: dict[int, float]):
        # resumes from the current decode, which the genome was proposed from
        nonlocal infeasible, noops
        try:
            res = greedy_place(circuit, profile, order=prefix + tail, ars=ars,
                               plugins=plugins, resume=cur)
        except InfeasibleError:
            infeasible += 1
            return None
        noops += res.state is cur.state
        return res

    ups = []
    for _ in range(config.sa_calibration_moves):
        res = decode(*_propose(cur.order[pinned:], cur.ars, soft_ids, rng))
        if res is not None and res.cost > cur.cost:
            ups.append(res.cost - cur.cost)
    # mean uphill move accepted with probability ~0.8 at the start
    t0 = (sum(ups) / len(ups)) / math.log(1 / 0.8) if ups else 1.0

    temp = t0
    accepted = 0
    curve = [best.cost]
    for _ in range(config.sa_iterations):
        res = decode(*_propose(cur.order[pinned:], cur.ars, soft_ids, rng))
        if res is not None:
            delta = res.cost - cur.cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
                cur = res
                accepted += 1
                if res.cost < best.cost:
                    best = res
        temp *= SA_ALPHA
        curve.append(best.cost)

    return SAResult(
        kind="sa",
        state=best.state,
        trace=best.trace,
        _summarize=best._summarize,
        order=tuple(best.order),
        ars=dict(best.ars),
        cost=best.cost,
        runtime_s=time.perf_counter() - t_start,
        initial_cost=seed_result.cost,
        t0=t0,
        accepted=accepted,
        cost_curve=curve,
        infeasible=infeasible,
        noops=noops,
    )


def solve(circuit: Circuit, profile: TaskProfile,
          config: SolverConfig | None = None, *,
          plugins: tuple = ()) -> SolveResult:
    """Dispatch on config.kind."""
    config = config or SolverConfig()
    if config.kind == "greedy":
        return greedy_place(circuit, profile, plugins=plugins)
    if config.kind == "sa":
        return sa_place(circuit, profile, config, plugins=plugins)
    return random_place(circuit, profile, config, plugins=plugins)
