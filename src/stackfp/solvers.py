"""Placement solvers driving the masked environment.

All three solvers draw every anchor from the availability mask, so whatever
that mask encodes (non-overlap, outline, and any enabled rule that survived
relaxation) holds for their output by construction.  They share one rollout
(reset, step loop, cost) and differ only in how they pick among the
allowed cells and how they shape soft blocks:

* greedy: lexicographic scan of the value masks (wirelength up, alignment
  down, shared edge down, terminal distance up), final ties broken row-major;
  each soft block's ratio comes from a scan over a small candidate ladder on
  a copy of the state with the pending placement applied, the opening block
  included (nothing is pending before it).  That copy is the state the
  episode reaches once the pending block goes down, so the winning shape's
  mask stack becomes the block's observation, and its best cell the one
  greedy places it at.  Candidates are compiled at most once each, in the
  order of their wire floor (the least wire value a shape can reach where
  it fits), and only until no remaining candidate can win.
* annealing: reuses greedy as a decoder for a genome of placement order plus
  per-block ratios, starting from the greedy solution itself.
* random: uniform over the allowed cells, ratios log-uniform in the band.

Costs are the negated weighted metric score of the final normalized metrics,
so lower is better and the annealer's objective agrees with the reward.
"""

import dataclasses
import functools
import math
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
    PlacementEnv,
    StepRecord,
    _checked_ratio,
    _with_ratio,
    episode_summary,
    weighted_score,
    wire_greedy_baseline,   # noqa: F401  perfbench wraps solvers.wire_greedy_baseline
)
from .masks import MaskStack, compile_masks, wire_floor, wire_profiles
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


@functools.lru_cache(maxsize=1024, typed=True)
def _ladder_ratios(ar_min: float, ar_max: float) -> tuple[float, ...]:
    """AR_CANDIDATES geometrically spaced ratios across [ar_min, ar_max],
    kept per band: blocks commonly share one."""
    return tuple(np.geomspace(ar_min, ar_max, AR_CANDIDATES).tolist())


def ar_candidate_ladder(block) -> list[tuple[float, tuple[int, int]]]:
    """AR_CANDIDATES geometrically spaced ratios across the block's band,
    each with the (w, h) it quantizes to, deduplicated by that shape."""
    if not block.is_soft:
        return []
    out, seen = [], set()
    for r in _ladder_ratios(block.ar_min, block.ar_max):
        shape = shape_from_ar(block.area, r, block.ar_min, block.ar_max)
        if shape not in seen:
            seen.add(shape)
            out.append((r, shape))
    return out


def _available_cells(stack: MaskStack) -> np.ndarray:
    """Flat indices of the cells the availability mask allows."""
    avail = stack.availability
    cells = np.flatnonzero(avail.mask.view(bool))
    if cells.size == 0:
        raise InfeasibleError(
            f"no cell available for block {stack.block} ({avail.rung})")
    return cells


def _filter_cells(stack: MaskStack) -> tuple[np.ndarray, tuple]:
    """Lexicographic filtering over the available cells.

    Each key keeps only the cells optimal for its value mask; keys whose rule
    does not bind this block are skipped.  Returns the surviving flat indices
    and the score prefix (relaxation depth first, then one value per applied
    key) used to compare placements across aspect ratio candidates."""
    cells = _available_cells(stack)
    score = [float(len(stack.availability.dropped))]
    for key, sense in TIE_KEYS:
        mask = stack.rules.get(key)
        if mask is None:
            continue
        vals = mask.values.reshape(-1)[cells]
        best = vals.max() if sense == "max" else vals.min()
        score.append(-float(best) if sense == "max" else float(best))
        cells = cells[vals == best]
    return cells, tuple(score)


def _pick_cell(stack: MaskStack) -> int:
    """Greedy's cell: the smallest flat index among the lexicographic
    survivors, i.e. row-major, smallest x, then smallest y."""
    cells, _ = _filter_cells(stack)
    return int(cells.min())


class _Lookahead(NamedTuple):
    """A scanned block's winning mask stack, compiled on the state the
    episode reaches when the block comes up, and greedy's cell on it."""
    masks: MaskStack
    cell: int


def _scan_ar(env: PlacementEnv, block_id: int,
             pending) -> tuple[float | None, _Lookahead | None]:
    """Greedy's ratio: try the candidate shapes of a soft block on a copy of
    the state, with the pending placement (the current block's chosen cell,
    None before the opening block) applied, and keep the shape whose best
    cell scores lowest, ties going to the earlier ladder entry.  The copy is
    the state the episode observes the block on, so the winner's stack and
    best cell come back too, to become that observation and its pick.  The
    wire profiles do not depend on the shape and are built once for all
    candidates.  (None, None) when no candidate fits.

    The scan is a branch-and-bound.  A shape's score leads with its dropped
    rules and then its least wire value over the available cells, which lie
    inside the position mask, so its `wire_floor` bounds that value from
    below.  Candidates are visited in (floor, ladder index) order and each
    is compiled at most once, until the next floor exceeds the wire value
    of the best candidate that dropped no rule: neither it nor any later
    candidate can win.  An infinite floor means no later candidate fits."""
    sim = env.state.clone()
    if pending is not None:
        sim.place(env.observation.block, *pending)
    ladder = ar_candidate_ladder(env.circuit.blocks[block_id])
    wire = wire_profiles(sim, block_id, [w for _, (w, _) in ladder],
                         [h for _, (_, h) in ladder])
    floors = []
    for i, (r, _) in enumerate(ladder):
        sim.set_shape(block_id, r)
        floors.append((wire_floor(sim, block_id, wire), i))

    def scored(i: int):
        r = ladder[i][0]
        sim.set_shape(block_id, r)
        stack = compile_masks(sim, block_id, env.profile, env.plugins, wire)
        cells, score = _filter_cells(stack)
        cell = int(cells.min())
        # the ladder index breaks ties as the first of equal scores in
        # ladder order would
        return score + (float(cell), i), r, _Lookahead(stack, cell)

    best = None
    for floor, i in sorted(floors):
        # a score is (dropped rules, least wire, ...)
        if floor == math.inf or (best is not None and best[0][0] == 0
                                 and floor > best[0][1]):
            break
        # min lets the loser go before the next candidate is compiled
        best = min(filter(None, (best, scored(i))), key=lambda c: c[0])
    return (None, None) if best is None else best[1:]


def _slot_differs(circuit: Circuit, parent: SolveResult, b: int,
                  r: float | None, rec: StepRecord) -> bool:
    """Whether a slot that places block `b`, shaped by the checked ratio `r`
    (None keeps its shape), differs from `parent`'s slot that `rec`
    records: another block, or another integer shape."""
    blk = circuit.blocks[b]
    wh = (blk.w, blk.h) if r is None else shape_from_ar(
        blk.area, r, blk.ar_min, blk.ar_max)
    return b != rec.block or wh != (parent.state.w[b], parent.state.h[b])


def _shared_steps(circuit: Circuit, parent: SolveResult | None,
                  slots: list[int], first_ar: float | None,
                  shape, start: int = 0) -> list[StepRecord]:
    """The steps from slot `start` on that a decode filling the movable
    `slots` in turn, slot `start` shaped by `first_ar`, takes exactly as
    `parent`'s fixed-ratio decode did (none when `parent` is None), given
    that the blocks placed before `start` are the parent's, at the same
    cells in the same shapes.  A slot's masks, and so its cell, depend
    only on the blocks placed before it and on its own integer shape, so
    the steps are shared up to the first slot that differs
    (`_slot_differs`).  Each shared record's ar_next becomes this decode's
    ratio for the block after it, as the float `PlacementEnv.step` would
    record, since the trace records the value, not the shape
    (`env._with_ratio`).  `shape(block_id)` gives a later slot's ratio
    (None keeps its shape), called once per slot up to the first that
    differs; a ratio that `step` would reject raises its
    InvalidActionError."""
    r = _checked_ratio(first_ar, "first_ar")
    shared = []
    done = parent.trace.steps if parent is not None else ()
    for i in range(start, min(len(slots), len(done))):
        if _slot_differs(circuit, parent, slots[i], r, done[i]):
            break
        r = None
        if i + 1 < len(slots):
            r = _checked_ratio(shape(slots[i + 1]), "ar_next")
        shared.append(_with_ratio(done[i], r))
    return shared


class _Rejoin:
    """Where an episode resumed from `parent` rejoins it.  The steps from a
    slot on depend only on the blocks placed before it, their cells and
    shapes, and on the blocks and integer shapes of the slots left.  So
    once the blocks an episode has placed are exactly the parent's at the
    same slot (same blocks, cells and shapes, in any order), on or after
    its last slot that differs from the parent's (`_slot_differs`), every
    later step is the parent's.  `ratio(i)` gives slot i's ratio; it is
    read from the last slot back to the last that differs, and a ratio
    that `step` would reject counts as a difference, so that the episode
    reaches it and raises as a full decode does."""

    def __init__(self, circuit: Circuit, parent: SolveResult,
                 slots: list[int], ratio):
        self.circuit, self.parent, self.slots = circuit, parent, slots
        done = parent.trace.steps
        for i in reversed(range(len(slots))):
            try:
                r = _checked_ratio(ratio(i), "ar_next")
            except InvalidActionError:
                break
            if _slot_differs(circuit, parent, slots[i], r, done[i]):
                break
        else:
            i = -1
        self.last = i
        # (block, x, y, w, h) placed by one episode but not yet by the other
        self.apart: set[tuple[int, ...]] = set()

    def at(self, env: PlacementEnv, x: int, y: int) -> bool:
        """Whether `env`'s episode rejoins once its current block goes down
        at (x, y), with slots left after it."""
        i, b = len(env.trace.steps), env.state.current_block
        rec, done = self.parent.trace.steps[i], self.parent.state
        mine = (b, x, y, int(env.state.w[b]), int(env.state.h[b]))
        theirs = (rec.block, rec.x, rec.y,
                  int(done.w[rec.block]), int(done.h[rec.block]))
        if mine != theirs:
            self.apart ^= {mine, theirs}
        return not self.apart and self.last <= i < len(self.slots) - 1

    def take_over(self, env: PlacementEnv, x: int, y: int,
                  ar_next: float | None, later) -> tuple[FloorplanState, EpisodeTrace]:
        """The final state and trace of `env`'s episode, which rejoins where
        `at` says, its current block going down at (x, y) with the next
        one shaped by `ar_next`; `later` is `_shared_steps`' `shape`.  The
        current block is not placed: its record takes this episode's
        action and relaxation rung and the parent's metrics for the slot,
        and the records after it are the parent's."""
        i, avail = len(env.trace.steps), env.observation.availability
        here = dataclasses.replace(
            self.parent.trace.steps[i], block=env.observation.block, x=x, y=y,
            ar_next=_checked_ratio(ar_next, "ar_next"),
            rung=avail.rung, dropped=avail.dropped)
        rest = _shared_steps(self.circuit, self.parent, self.slots, ar_next,
                             later, start=i + 1)
        state = self.parent.state.clone()
        state.order = list(env.state.order)
        trace = EpisodeTrace(env.hpwl_baseline, env.trace.steps + [here] + rest)
        trace.finalize_rewards(env.profile)
        return state, trace


def _rollout(kind: str, circuit: Circuit, profile: TaskProfile, pick, choose,
             *, order, plugins, resume: SolveResult | None = None) -> SolveResult:
    """One masked episode, shared by every solver.  `pick(masks)` returns
    the flat index of the cell for the block up next.  `choose(env,
    block_id, pending)` returns a soft block's ratio (None keeps its shape)
    before that block is observed: the opening block's on the begun,
    unobserved episode (`PlacementEnv.begin`) with nothing pending, and
    each later one's with its predecessor's cell pending.  It returns a
    `_Lookahead` or None along with the ratio; given one, the env observes
    the block with its stack and the block goes down at its cell, so
    neither is worked out twice.  The episode starts once, with a reset.

    `resume` is an earlier rollout of the same circuit, profile and
    plug-ins, given only with a `choose` that reads neither env nor
    pending, and so returns no lookahead.  The steps this episode shares
    with it are replayed by `reset`, not observed (`_shared_steps`); when it
    shares every step, the result reuses `resume`'s state and summary and
    nothing is placed.  Past them the episode steps until it rejoins
    `resume` with slots left (`_Rejoin`).  The slot that rejoins is not
    stepped: its record is this episode's action and relaxation rung with
    `resume`'s metrics, and the rest of the trace is `resume`'s
    (`_shared_steps` from the next slot on), the rewards finalized afresh;
    the state is a clone of `resume`'s final one, in this episode's
    order, and the rest of the ratios join the result's in slot order.

    The cost comes from the last step record, whose metrics are the final
    state's; the summary is left to the result to build when read."""
    t_start = time.perf_counter()
    if resume is not None and resume.state.circuit is not circuit:
        raise ValueError("resume is a decode of another circuit")
    env = PlacementEnv(circuit, profile, order=order, plugins=plugins)
    chosen: dict[int, float] = {}

    def ratio(block_id: int, pending) -> tuple[float | None, _Lookahead | None]:
        if not circuit.blocks[block_id].is_soft:
            return None, None
        return choose(env, block_id, pending)

    def shape(block_id: int, pending) -> tuple[float | None, _Lookahead | None]:
        r, ahead = ratio(block_id, pending)
        if r is not None:
            chosen[block_id] = r
        return r, ahead

    def later(block_id: int) -> float | None:
        return shape(block_id, None)[0]

    env.begin()
    slots = env.state.order[env.state.cursor:]
    first_ar, ahead = shape(slots[0], None) if slots else (None, None)
    shared = _shared_steps(circuit, resume, slots, first_ar, later)
    if resume is not None and len(shared) == len(slots):
        state = resume.state
        trace = dataclasses.replace(resume.trace, steps=shared)
        summarize = resume._summarize
    else:
        rejoin = None if resume is None else _Rejoin(
            circuit, resume, slots,
            lambda i: first_ar if i == 0 else ratio(slots[i], None)[0])
        obs = env._reset(first_ar, shared, ahead and ahead.masks)
        while obs is not None:
            cell = ahead.cell if ahead else pick(obs.masks)
            x, y = divmod(cell, circuit.dims.height)
            nxt = env.state.cursor + 1
            ar_next, ahead = None, None
            if nxt < len(env.state.order):
                ar_next, ahead = shape(env.state.order[nxt], (x, y))
            if rejoin is not None and rejoin.at(env, x, y):
                state, trace = rejoin.take_over(env, x, y, ar_next, later)
                break
            obs, _, _ = env._step(Action(x, y, ar_next=ar_next),
                                  ahead and ahead.masks)
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
        order=tuple(env.state.order),
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
    candidate scan, the opening block's on the begun episode before its
    first observation.  With `ars` given the ratios are fixed and no
    scanning happens, which is the decode path the annealer uses.  Either
    way the episode starts once, and each placed block is observed once.

    `resume`, allowed with fixed ratios only, is an earlier greedy result
    for the same circuit, profile and plug-ins, free or fixed, of any order
    and ratios.  Fixed-ratio decodes are causal: the leading slots that
    hold the same block in the same integer shape as in `resume` land where
    they did there, so `PlacementEnv.reset` replays them from its trace
    without compiling masks or taking metrics, and only the rest is
    decoded, up to the slot where the decode rejoins `resume`: on or after
    its last slot that differs, the blocks placed are exactly `resume`'s
    at the same slot, so the rest of `resume`'s trace and final state are
    taken over (see `_rollout`).  The output does not depend on `resume`:
    placement, trace, summary, ratios and cost equal those of the decode
    without it, which raises InfeasibleError exactly when this one does.  When no slot
    differs, the result shares `resume`'s state and summary objects."""
    if ars is None:
        if resume is not None:
            raise ValueError("resume needs fixed ratios (ars)")
        choose = _scan_ar
    else:
        def choose(env, block_id, pending):
            return ars.get(block_id), None
    return _rollout("greedy", circuit, profile, _pick_cell, choose,
                    order=order, plugins=plugins, resume=resume)


def random_place(circuit: Circuit, profile: TaskProfile,
                 config: SolverConfig | None = None, *,
                 plugins: tuple = ()) -> SolveResult:
    """Uniform choice over the allowed cells; ratios log-uniform in band."""
    rng = np.random.default_rng(config.seed if config else 0)

    def pick(stack: MaskStack) -> int:
        return int(rng.choice(_available_cells(stack)))

    def sample_ar(env, block_id, pending) -> tuple[float, None]:
        block = circuit.blocks[block_id]
        return math.exp(rng.uniform(math.log(block.ar_min),
                                    math.log(block.ar_max))), None

    return _rollout("random", circuit, profile, pick, sample_ar,
                    order=None, plugins=plugins)


class _Genome:
    """Annealing state: placement order of the movable tail plus one ratio
    per reshapeable soft block.  Preplaced blocks stay pinned in front."""

    def __init__(self, prefix: list[int], tail: list[int], ars: dict[int, float]):
        self.prefix = prefix
        self.tail = tail
        self.ars = ars

    def clone(self) -> "_Genome":
        return _Genome(self.prefix, list(self.tail), dict(self.ars))

    @property
    def order(self) -> list[int]:
        return self.prefix + self.tail


def _propose(genome: _Genome, soft_ids: list[int], rng) -> _Genome:
    """One neighbor: swap two order slots, relocate one, or nudge a ratio."""
    cand = genome.clone()
    moves = ["swap", "relocate", "ar"]
    w = np.asarray(SA_MOVE_WEIGHTS, dtype=float)
    if len(cand.tail) < 2:
        w[0] = w[1] = 0.0
    if not soft_ids:
        w[2] = 0.0
    if w.sum() == 0:
        return cand
    move = rng.choice(moves, p=w / w.sum())
    if move == "swap":
        i, j = rng.choice(len(cand.tail), size=2, replace=False)
        cand.tail[i], cand.tail[j] = cand.tail[j], cand.tail[i]
    elif move == "relocate":
        i = int(rng.integers(len(cand.tail)))
        b = cand.tail.pop(i)
        j = int(rng.integers(len(cand.tail) + 1))
        cand.tail.insert(j, b)
    else:
        bid = int(rng.choice(soft_ids))
        blk_ar = cand.ars[bid]
        factor = math.exp(rng.uniform(-0.35, 0.35))
        cand.ars[bid] = blk_ar * factor     # decode clips to the band
    return cand


def sa_place(circuit: Circuit, profile: TaskProfile,
             config: SolverConfig | None = None, *,
             plugins: tuple = ()) -> SAResult:
    """Simulated annealing over (order, ratios), decoded by the greedy
    placer; every decode normalizes wirelength by the circuit's own
    baseline, so costs compare across genomes.  The start temperature is
    calibrated from `sa_calibration_moves` sampled moves.

    Starts from the free greedy solution, so the initial cost equals the
    greedy cost and the best-so-far curve never rises above it.  The
    genome's movable tail is the block order of that solution's trace (one
    record per movable slot); the preplaced blocks stay pinned in front.
    Decodes that dead-end (a permutation can strand a block) count as
    rejected.  Each decode resumes from the current genome's
    (`greedy_place`'s `resume`), so only the slots from the first one a
    move changes are decoded afresh, and only until the decode rejoins the
    current genome's, as a swap or relocation whose blocks land where they
    were before does; the output is the same as without resuming.  The
    result counts the dead-ended decodes (`infeasible`) and those that
    changed no slot and so placed nothing (`noops`), calibration decodes
    included.  Each decode is costed from its last step record and
    builds no summary; the result's summary is built when first read."""
    config = config or SolverConfig(kind="sa")
    t_start = time.perf_counter()
    rng = np.random.default_rng(config.seed)

    seed_result = greedy_place(circuit, profile, plugins=plugins)

    # each step record is one movable slot; the pinned blocks lead the order
    tail = [s.block for s in seed_result.trace.steps]
    prefix = list(seed_result.order[:len(seed_result.order) - len(tail)])
    genome = _Genome(prefix, tail, dict(seed_result.ars))
    soft_ids = sorted(genome.ars)
    cur_cost = best_cost = initial_cost = seed_result.cost
    cur_result = best_result = seed_result

    infeasible = noops = 0

    def decode(g: _Genome):
        # resumes from the current genome's decode, which g was proposed from
        nonlocal infeasible, noops
        try:
            res = greedy_place(circuit, profile, order=g.order, ars=g.ars,
                               plugins=plugins, resume=cur_result)
        except InfeasibleError:
            infeasible += 1
            return None
        noops += res.state is cur_result.state
        return res

    ups = []
    for _ in range(config.sa_calibration_moves):
        res = decode(_propose(genome, soft_ids, rng))
        if res is not None and res.cost > cur_cost:
            ups.append(res.cost - cur_cost)
    # mean uphill move accepted with probability ~0.8 at the start
    t0 = (sum(ups) / len(ups)) / math.log(1 / 0.8) if ups else 1.0

    temp = t0
    accepted = 0
    curve = [best_cost]
    for _ in range(config.sa_iterations):
        cand = _propose(genome, soft_ids, rng)
        res = decode(cand)
        if res is not None:
            delta = res.cost - cur_cost
            if delta <= 0 or rng.random() < math.exp(-delta / max(temp, 1e-12)):
                genome, cur_cost, cur_result = cand, res.cost, res
                accepted += 1
                if res.cost < best_cost:
                    best_cost, best_result = res.cost, res
        temp *= SA_ALPHA
        curve.append(best_cost)

    return SAResult(
        kind="sa",
        state=best_result.state,
        trace=best_result.trace,
        _summarize=best_result._summarize,
        order=tuple(best_result.order),
        ars=dict(best_result.ars),
        cost=best_cost,
        runtime_s=time.perf_counter() - t_start,
        initial_cost=initial_cost,
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
