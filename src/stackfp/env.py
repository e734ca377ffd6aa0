"""Sequential placement environment.

Blocks go down one per step in a fixed order.  Each step's observation
carries the mask stack for the block about to be placed; the action gives
that block's anchor cell, which must be available, plus optionally the aspect
ratio for the block after it (the next observation already needs that shape,
so the ratio is decided one step early; the first block's ratio is a reset
argument for the same reason).

Rewards are dense: the terminal reward is the weighted final metric score,
and every earlier step receives its metric improvement plus that terminal
score as a shared baseline, with the step-zero reference being all-zero
metrics.  Summing the per-step rewards therefore telescopes to the weighted
next-to-last metrics plus episode-length times the baseline.
"""

import dataclasses
import json
import math

import numpy as np

from .core import Circuit, FloorplanError, FloorplanState, occupancy_grid
from .masks import MaskStack, compile_masks, position_mask, wire_mask
from .metrics import (
    MetricTuple,
    metric_snapshot,
    normalize,
    satisfaction_counts,
    total_hpwl,
)


class InvalidActionError(FloorplanError):
    """Malformed action, reset ratio or reset record, action outside the
    availability mask, or step on a finished episode.  A rejected action or
    reset leaves the episode as it was."""


@dataclasses.dataclass(frozen=True)
class Action:
    x: int
    y: int
    ar_next: float | None = None


@dataclasses.dataclass(frozen=True)
class Observation:
    step: int
    block: int
    order: tuple[int, ...]
    masks: MaskStack
    _state: FloorplanState = dataclasses.field(repr=False)  # the live episode state

    @property
    def availability(self):
        return self.masks.availability

    @property
    def canvas(self) -> np.ndarray:
        """(num_layers, W, H) occupancy before this block goes down, built
        when read; readable only until the episode steps past it."""
        if self._state.done or self._state.current_block != self.block:
            raise FloorplanError(
                f"the episode has stepped past block {self.block}; its canvas is gone")
        return occupancy_grid(self._state)


@dataclasses.dataclass(frozen=True)
class StepRecord:
    """One step of an episode; its step number is its index in
    `EpisodeTrace.steps`."""
    block: int
    x: int
    y: int
    ar_next: float | None
    raw: MetricTuple
    norm: MetricTuple
    rung: str
    dropped: tuple[str, ...]


@dataclasses.dataclass
class EpisodeTrace:
    hpwl_baseline: float
    steps: list[StepRecord] = dataclasses.field(default_factory=list)
    rewards: list[float] | None = None

    def finalize_rewards(self, profile) -> list[float]:
        self.rewards = compute_rewards([s.norm for s in self.steps], profile)
        return self.rewards

    def to_jsonl(self) -> str:
        """One JSON object per step; rewards appear once computed."""
        lines = []
        for i, s in enumerate(self.steps):
            rec = {
                "step": i,
                "block": s.block,
                "action": {"x": s.x, "y": s.y, "ar_next": s.ar_next},
                "raw": s.raw.as_dict(),
                "norm": s.norm.as_dict(),
                "rung": s.rung,
                "dropped": list(s.dropped),
            }
            if self.rewards is not None:
                rec["reward"] = self.rewards[i]
            lines.append(json.dumps(rec, sort_keys=True))
        return "\n".join(lines) + ("\n" if lines else "")


def weighted_score(m: MetricTuple, profile) -> float:
    """Scalar value of a metric tuple under a profile's weights: gains minus
    penalties.  Rewards maximize it; the annealing cost is its negation."""
    return (profile.w_alignment * m.alignment
            - profile.w_overlap * m.overlap
            - profile.w_hpwl * m.hpwl
            + profile.w_adjacency * m.adjacency
            - profile.w_distance * m.distance)


def compute_rewards(metrics: list[MetricTuple], profile) -> list[float]:
    """Per-step rewards from the normalized metric sequence.

    The last step earns the weighted terminal metrics; that same value is the
    baseline added to every earlier step's weighted metric difference, where
    the step before the first is taken as all zeros."""
    if not metrics:
        raise ValueError("empty metric sequence")
    if any(not m.normalized for m in metrics):
        raise ValueError("rewards are defined over normalized metrics")
    baseline = weighted_score(metrics[-1], profile)
    rewards = []
    prev = 0.0
    for m in metrics[:-1]:
        cur = weighted_score(m, profile)
        rewards.append(cur - prev + baseline)
        prev = cur
    rewards.append(baseline)
    return rewards


def wire_greedy_baseline(circuit: Circuit) -> float:
    """Wirelength of one plain wire-greedy rollout in the default order:
    blocks keep their given shapes and land on the cheapest legal cell,
    optional rules ignored.  Every episode normalizes wirelength by it,
    whatever its order; falls back to 1 when the circuit has no nets or
    nothing could be placed.  Rolled out once per circuit and kept on it
    (`Circuit.wire_baseline`)."""
    return circuit.wire_baseline


def wire_greedy_rollout(circuit: Circuit) -> float:
    """The rollout behind `wire_greedy_baseline`, run afresh."""
    state = FloorplanState(circuit)
    for block_id in state.order:
        pos = position_mask(state, block_id).values
        if not pos.any():
            continue
        wire = wire_mask(state, block_id).values
        scored = np.where(pos > 0, wire, np.inf)
        flat = int(np.argmin(scored))
        x, y = divmod(flat, circuit.dims.height)
        state.place(block_id, x, y)
    total = total_hpwl(state)
    return total if total > 0 else 1.0


def _is_index(v) -> bool:
    return isinstance(v, (int, np.integer)) and not isinstance(v, bool)


def _checked_ratio(ar, name: str) -> float | None:
    """An aspect-ratio argument as a float, None passing through; anything
    but a number other than a bool or NaN raises InvalidActionError."""
    if ar is None:
        return None
    if not (isinstance(ar, (float, int, np.floating, np.integer))
            and not isinstance(ar, bool) and not math.isnan(ar)):
        raise InvalidActionError(f"{name} {ar!r} is not a ratio")
    return float(ar)


def _advance(state: FloorplanState, block: int, x: int, y: int,
             ar_next: float | None) -> None:
    """Place the current block and shape the one after it."""
    state.place(block, x, y)
    state.cursor += 1
    if not state.done and ar_next is not None:
        nxt = state.circuit.blocks[state.current_block]
        if nxt.is_soft:
            state.set_shape(nxt.id, ar_next)


def _with_ratio(rec: StepRecord, ar: float | None) -> StepRecord:
    """`rec` with ar_next `ar`, a checked ratio; `rec` itself when its
    ratio is written the same way already, so traces can share it."""
    return rec if repr(rec.ar_next) == repr(ar) else dataclasses.replace(rec, ar_next=ar)


class PlacementEnv:
    """Single-episode driver around a FloorplanState.

    Deterministic: identical circuit, profile, order, reset arguments and
    action sequence reproduce identical states, observations and traces.
    Wirelength normalizes by the circuit's `wire_greedy_baseline`, whatever
    the order.
    """

    def __init__(self, circuit: Circuit, profile, order: list[int] | None = None,
                 plugins: tuple = ()):
        self.circuit = circuit
        self.profile = profile
        self.plugins = tuple(plugins)
        self._order = list(order) if order is not None else None
        self.hpwl_baseline: float | None = None
        self.state: FloorplanState | None = None
        self.trace: EpisodeTrace | None = None
        self.observation: Observation | None = None
        self._handed: MaskStack | None = None   # see _reset and _step

    def _start_state(self) -> FloorplanState:
        """A fresh state, with the preplaced blocks pinned when that rule
        is active."""
        state = FloorplanState(self.circuit, self._order)
        if self.profile.uses("preplace"):
            state.apply_preplacements()
        return state

    def begin(self) -> FloorplanState:
        """Start an episode without observing it, on the state every
        `reset` starts from; a caller that must read the start state first
        (to choose the opening block's ratio) begins, decides, and then
        resets; `step` refuses a begun episode until it is reset."""
        self.state, self.observation = self._start_state(), None
        return self.state

    def reset(self, first_ar: float | None = None,
              steps: list[StepRecord] | tuple = ()) -> Observation | None:
        """Start an episode: preplace fixed blocks when that rule is active,
        optionally shape the first movable block, take `steps` over, and
        observe the block up next.

        `steps` are the leading records of an earlier episode of this
        circuit, profile, order and plug-ins whose blocks had the shapes
        that `first_ar` and the records' `ar_next` give them here.  Each
        block goes down at its recorded cell without an availability check,
        and the record joins the trace with its ratio as the float `step`
        would record (the record itself when its ratio is written that way
        already): nothing is observed or measured until the block after
        the last record.  `first_ar` is checked as `step` checks a ratio,
        and so is each record's `ar_next`; each record's block must be the
        one up next, and its anchor a pair of integers that keeps the block,
        in the shape it has then, inside the outline.  The episode is
        replaced only once every record has gone down: a malformed ratio,
        a record out of order or a bad anchor raises InvalidActionError
        and leaves the episode as it was."""
        first_ar = _checked_ratio(first_ar, "first_ar")
        state = self._start_state()
        if not state.done and first_ar is not None:
            blk = self.circuit.blocks[state.current_block]
            if blk.is_soft:
                state.set_shape(blk.id, first_ar)
        dims = self.circuit.dims
        records = []
        for i, rec in enumerate(steps):
            if state.done or rec.block != state.current_block:
                raise InvalidActionError(
                    f"step {i} places block {rec.block} out of order")
            x, y, w, h = rec.x, rec.y, state.w[rec.block], state.h[rec.block]
            if not (_is_index(x) and _is_index(y) and dims.holds(x, y, w, h)):
                raise InvalidActionError(
                    f"step {i} anchor ({x!r},{y!r}) is not an integer cell keeping "
                    f"block {rec.block} ({w}x{h}) inside the {dims.width}x{dims.height} outline")
            ar = _checked_ratio(rec.ar_next, f"step {i} ar_next")
            _advance(state, rec.block, x, y, ar)
            records.append(_with_ratio(rec, ar))
        self.state, self.observation = state, None
        self.hpwl_baseline = wire_greedy_baseline(self.circuit)
        self.trace = EpisodeTrace(self.hpwl_baseline, records)
        self.observation = self._observe()
        if self.state.done and self.trace.steps:
            self.trace.finalize_rewards(self.profile)
        return self.observation

    def _reset(self, first_ar, steps, masks: MaskStack | None) -> Observation | None:
        """`reset`, observing the block up next with `masks` when given: a
        stack the caller compiled for it on the state this reset reaches,
        which is then not compiled again.  `reset` itself runs, so whatever
        wraps it sees every episode start."""
        self._handed = masks
        try:
            return self.reset(first_ar, steps)
        finally:
            self._handed = None

    def _step(self, action: Action,
              masks: MaskStack | None) -> tuple[Observation | None, MetricTuple, bool]:
        """`step`, observing the next block with `masks` as `_reset` does."""
        self._handed = masks
        try:
            return self.step(action)
        finally:
            self._handed = None

    def _observe(self) -> Observation | None:
        if self.state.done:
            return None
        block = self.state.current_block
        masks = self._handed
        if masks is None:
            masks = compile_masks(self.state, block, self.profile, self.plugins)
        elif masks.block != block:
            raise ValueError(f"masks of block {masks.block} handed to block {block}")
        return Observation(
            step=len(self.trace.steps),
            block=block,
            order=tuple(self.state.order),
            masks=masks,
            _state=self.state,
        )

    def step(self, action: Action) -> tuple[Observation | None, MetricTuple, bool]:
        """Place the current block at the action's cell.  The cell, a pair
        of integers, must be set in the current availability mask; the
        optional ratio, a number other than a bool or NaN, reshapes the
        next block before it is observed and is recorded as a float.  A
        rejected action raises InvalidActionError and changes nothing."""
        if self.state is None or (self.observation is None and not self.state.done):
            raise FloorplanError("reset() the environment before stepping")
        if self.state.done:
            raise InvalidActionError("episode is over; nothing left to place")
        if not (_is_index(action.x) and _is_index(action.y)):
            raise InvalidActionError(
                f"anchor ({action.x!r},{action.y!r}) is not a pair of integers")
        ar = _checked_ratio(action.ar_next, "ar_next")
        dims = self.circuit.dims
        if not (0 <= action.x < dims.width and 0 <= action.y < dims.height):
            raise InvalidActionError(
                f"anchor ({action.x},{action.y}) is outside the grid")
        avail = self.observation.availability
        if not avail.allows(action.x, action.y):
            raise InvalidActionError(
                f"anchor ({action.x},{action.y}) is not available for "
                f"block {self.observation.block} (rung {avail.rung})")

        block = self.observation.block
        _advance(self.state, block, action.x, action.y, ar)

        raw = metric_snapshot(self.state)
        norm = normalize(raw, self.circuit, self.hpwl_baseline)
        self.trace.steps.append(StepRecord(
            block=block,
            x=int(action.x),
            y=int(action.y),
            ar_next=ar,
            raw=raw,
            norm=norm,
            rung=avail.rung,
            dropped=avail.dropped,
        ))
        done = self.state.done
        self.observation = self._observe()
        if done:
            self.trace.finalize_rewards(self.profile)
        return self.observation, norm, done


@dataclasses.dataclass
class EpisodeSummary:
    raw: MetricTuple
    norm: MetricTuple
    satisfaction: dict[str, tuple[int, int]]
    rung_events: int
    rewards: list[float]
    plugin_metrics: dict[str, float] = dataclasses.field(default_factory=dict)


def episode_summary(state: FloorplanState, trace: EpisodeTrace,
                    profile=None, plugins: tuple = ()) -> EpisodeSummary:
    """Final-state report of a finished episode: metrics raw and normalized,
    per-rule satisfaction, and the relaxation audit."""
    if not state.done:
        raise ValueError("episode is not finished; blocks remain unplaced")
    raw = metric_snapshot(state)
    norm = normalize(raw, state.circuit, trace.hpwl_baseline)
    rewards = trace.rewards
    if rewards is None and profile is not None and trace.steps:
        rewards = trace.finalize_rewards(profile)
    return EpisodeSummary(
        raw=raw,
        norm=norm,
        satisfaction=satisfaction_counts(state),
        rung_events=sum(1 for s in trace.steps if s.rung != "none"),
        rewards=list(rewards) if rewards is not None else [],
        plugin_metrics={p.name: p.metric(state) for p in plugins},
    )
