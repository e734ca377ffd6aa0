"""Per-cell rule masks over candidate anchor positions.

Every mask is a (W, H) float array indexed [x, y], where (x, y) is the anchor
the subject block would be placed at.  The subject is a block not yet placed,
and a placed one raises ValueError.  Value masks score each anchor under one
rule.  `compile_masks` binarizes each rule's mask where it builds it, by that
rule's threshold, into one list ordered by severity, the ladder; the
availability mask is the conjunction of the ladder with the position mask,
so an action sampled from it cannot violate any masked rule.  Built-in rules
and plug-ins take the same route.

When the conjunction is empty, rules are relaxed by severity: dropping the
terminal mask costs the most, the grouping mask less, the alignment mask less
again, and plug-in masks the least.  One pass down the ladder keeps each
mask that leaves the conjunction nonempty.  The position mask is never
dropped; an empty position mask means the block simply does not fit
anywhere.

Each rule's geometry is a kernel in `geometry`, evaluated here over the
whole anchor grid at once; the metrics in `metrics` call the same kernels
over constraint instances, so a mask cell equals the metric of the forced
placement by construction.  The position and wire masks read the state's
incremental bookkeeping instead: window sums of its summed-area table and
its live net boxes, so neither grows with the number of placed blocks.

The wire mask is the sum of two per-axis profiles (`wire_profiles`).  A
block of width w anchored at x has its centre at k / 2 with k = 2x + w, so
the x profile is tabulated over these doubled centre coordinates, and the
mask for a width is a strided slice of it; the y axis likewise.  One
profile serves every shape of a candidate scan, since only the width and
height change between candidates.  Halves of integers are exact, so the
slices hold the same floats as a per-shape evaluation.  `wire_floor` adds
the same slices over the anchors where the block fits, so the least wire
value a shape can reach is known without compiling its stack.
"""

import dataclasses
import math
from typing import NamedTuple

import numpy as np

from .core import BoundaryBinding, FloorplanState, window_sums
from .geometry import (
    abutment,
    alignment_ratio,
    center_distance,
    merge_terminals,
    rim_distance,
    span_gap,
)


@dataclasses.dataclass(frozen=True)
class RuleMask:
    values: np.ndarray


@dataclasses.dataclass(frozen=True)
class AvailabilityResult:
    """Conjunction of binarized masks plus the relaxation audit trail."""
    mask: np.ndarray
    dropped: tuple[str, ...]
    feasible: bool

    @property
    def rung(self) -> str:
        if not self.feasible:
            return "infeasible"
        if not self.dropped:
            return "none"
        return "drop:" + "+".join(self.dropped)

    def allows(self, x: int, y: int) -> bool:
        return bool(self.mask[x, y])


def _require_unplaced(state: FloorplanState, block_id: int) -> None:
    if state.placed[block_id]:
        raise ValueError(f"block {block_id} is placed; masks score unplaced blocks")


def _anchors(state: FloorplanState, block_id: int):
    """Every anchor of the grid for the unplaced subject block, as
    broadcastable x (W, 1) and y (1, H)."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    return (np.arange(dims.width, dtype=np.int64)[:, None],
            np.arange(dims.height, dtype=np.int64)[None, :])


def adjacent_terminal_mask(state: FloorplanState, binding: BoundaryBinding) -> RuleMask:
    """Merged distance from the binding's terminals to the block's nearest
    edge cell, for every anchor: the worst terminal for ALL bindings, the
    best for ANY.  Anchors that would overhang the outline are still scored;
    the position mask is what rules them out."""
    b = binding.block
    xs, ys = _anchors(state, b)
    # one grid per terminal: broadcasting a terminal axis too runs slower
    dist = np.stack([rim_distance(xs, ys, state.w[b], state.h[b], t.x, t.y)
                     for t in (state.circuit.terminals[k] for k in binding.terminals)])
    vals = merge_terminals(dist, binding.mode == "ALL")
    return RuleMask(vals.astype(np.float64))


def adjacent_block_mask(state: FloorplanState, block_id: int, other_id: int) -> RuleMask:
    """Abutment length against one placed block, for every anchor.

    Nonzero only on the two columns and two rows of anchors where the
    subject's edge meets the placed block's edge."""
    if not state.placed[other_id]:
        raise ValueError(f"block {other_id} is not placed")
    if state.circuit.blocks[block_id].z != state.circuit.blocks[other_id].z:
        raise ValueError(f"blocks {block_id} and {other_id} sit on different layers")
    xs, ys = _anchors(state, block_id)
    vals = abutment(xs, ys, state.w[block_id], state.h[block_id], *state.rect(other_id))
    return RuleMask(vals.astype(np.float64))


def alignment_mask(state: FloorplanState, block_id: int, partner_id: int,
                   min_area: float) -> RuleMask:
    """Projected-overlap score against one placed cross-layer partner, for
    every anchor, saturated at 1."""
    if not state.placed[partner_id]:
        raise ValueError(f"block {partner_id} is not placed")
    if state.circuit.blocks[block_id].z == state.circuit.blocks[partner_id].z:
        raise ValueError(f"blocks {block_id} and {partner_id} share a layer")
    if min_area <= 0:
        raise ValueError("min_area must be positive")
    xs, ys = _anchors(state, block_id)
    vals = alignment_ratio(xs, ys, state.w[block_id], state.h[block_id],
                           *state.rect(partner_id), float(min_area))
    return RuleMask(vals)


def _fits(state: FloorplanState, block_id: int, xs: tuple[int, int] | None = None,
          ys: tuple[int, int] | None = None) -> np.ndarray | None:
    """The fit test behind the position mask: True where the block's window
    of the layer's summed-area table sums to zero.  It covers the anchors
    that keep the block on the grid, [0, W-w] x [0, H-h], or the half-open
    ranges `xs` x `ys` of them.  None when the block's shape is larger than
    the grid."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    w = int(state.w[block_id])
    h = int(state.h[block_id])
    if not dims.holds(0, 0, w, h):
        return None
    x0, x1 = xs or (0, dims.width - w + 1)
    y0, y1 = ys or (0, dims.height - h + 1)
    sat = state.sat[state.circuit.blocks[block_id].z]
    return window_sums(sat[x0:x1 + w, y0:y1 + h], w, h) == 0


def position_mask(state: FloorplanState, block_id: int) -> RuleMask:
    """1 where the block fits fully on its layer without touching any placed
    footprint, 0 elsewhere: the anchors whose window of the layer's
    summed-area table sums to zero."""
    fits = _fits(state, block_id)
    dims = state.circuit.dims
    vals = np.zeros((dims.width, dims.height), dtype=np.float64)
    if fits is not None:
        vals[:fits.shape[0], :fits.shape[1]] = fits
    return RuleMask(vals)


class WireProfile(NamedTuple):
    """One axis of a block's wire growth: `sums[i]` adds up, over its nets,
    how far the doubled centre coordinate k = k0 + i * step, halved, falls
    outside the net's span on this axis.  It covers a size s when it holds
    k = 2a + s for every anchor a in [0, n)."""
    k0: int
    step: int
    n: int
    sums: np.ndarray

    def at(self, size: int) -> np.ndarray:
        """The growth at anchors 0..n-1 of a block of this size."""
        stride = 2 // self.step
        start, off = divmod(size - self.k0, self.step)
        stop = start + (self.n - 1) * stride + 1
        if start < 0 or off or stop > len(self.sums):
            raise ValueError(f"the wire profile does not cover size {size}")
        return self.sums[start:stop:stride]


def _wire_profile(lo, hi, sizes, n: int) -> WireProfile:
    # sizes of one parity only reach every other doubled coordinate
    k0 = min(sizes)
    step = 2 if len({s % 2 for s in sizes}) == 1 else 1
    k = np.arange(k0, max(sizes) + 2 * n - 1, step)
    return WireProfile(k0, step, n, span_gap(lo, hi, k / 2.0).sum(axis=0))


def wire_profiles(state: FloorplanState, block_id: int, widths,
                  heights) -> tuple[WireProfile, WireProfile]:
    """The x and y profiles of the unplaced block's wire growth, covering
    every width in `widths` and height in `heights`; nets with no other pin
    down add nothing.  Valid for this state while nothing else is placed."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    lo, hi = state.net_boxes(block_id)
    fixed = np.isfinite(lo[0])          # nets with some other pin down
    lo, hi = lo[:, fixed, None], hi[:, fixed, None]
    return (_wire_profile(lo[0], hi[0], widths, dims.width),
            _wire_profile(lo[1], hi[1], heights, dims.height))


def wire_mask(state: FloorplanState, block_id: int,
              profiles: tuple[WireProfile, WireProfile] | None = None) -> RuleMask:
    """Wirelength increase if the block lands at each anchor: the sum over
    its nets of how far the anchor's center falls outside the net's current
    bounding box.  Zero inside every box.  `profiles` are this state's
    `wire_profiles` for the block, covering its current shape; by default
    those of that shape alone."""
    _require_unplaced(state, block_id)
    w, h = int(state.w[block_id]), int(state.h[block_id])
    if profiles is None:
        profiles = wire_profiles(state, block_id, (w,), (h,))
    px, py = profiles
    return RuleMask(px.at(w)[:, None] + py.at(h)[None, :])


# anchor count up to which wire_floor tests the whole grid at once: about
# where the box search starts to pay (measured between 64² and 128² grids)
FLOOR_BOX_MIN_ANCHORS = 64 * 64


def wire_floor(state: FloorplanState, block_id: int,
               profiles: tuple[WireProfile, WireProfile]) -> float:
    """The least wire-mask value over the anchors the position mask sets,
    inf when the block fits nowhere.  `profiles` are as for `wire_mask`.
    The floor comes from the same profile adds as the mask, so it is a
    value the mask holds, not an estimate: no available cell of the block
    in this shape scores below it.

    The search looks at a box of anchors around the wire minimum first.
    With gx and gy the two profiles' growth, an anchor outside the box
    {gx <= t - min gy} x {gy <= t - min gx} scores above t, so the least
    fitting value in the box is the floor once it is at most t.  Profile
    values are sums of halves of integers, exact in floats, so these
    comparisons are exact too.  The first box spans about a quarter of
    each axis, and it mostly holds the floor; otherwise one more box does.
    Up to FLOOR_BOX_MIN_ANCHORS anchors the whole grid is tested at once,
    which costs less there than the box's extra steps."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    if not dims.holds(0, 0, w, h):
        return math.inf
    nx, ny = dims.width - w + 1, dims.height - h + 1
    gx = profiles[0].at(w)[:nx]
    gy = profiles[1].at(h)[:ny]

    def least_in(xs: tuple[int, int], ys: tuple[int, int]) -> float:
        # the least fitting value over the anchors xs x ys
        vals = (gx[slice(*xs), None] + gy[None, slice(*ys)])[
            _fits(state, block_id, xs, ys)]
        return float(vals.min()) if vals.size else math.inf

    if nx * ny <= FLOOR_BOX_MIN_ANCHORS:
        return least_in((0, nx), (0, ny))
    low_x, low_y = gx.min(), gy.min()

    def least_within(t: float) -> float:
        # the box of anchors that can score t
        bx = np.flatnonzero(gx <= t - low_y)
        by = np.flatnonzero(gy <= t - low_x)
        return least_in((bx[0], bx[-1] + 1), (by[0], by[-1] + 1))

    t = low_x + low_y + min(np.partition(gx, nx // 4)[nx // 4] - low_x,
                            np.partition(gy, ny // 4)[ny // 4] - low_y)
    least = least_within(t)
    # past t, the least fitting value found sets the box that holds the
    # floor; with none found, that box is the whole grid
    return least if least <= t else least_within(least)


def block_distance_mask(state: FloorplanState, block_id: int, anchor_id: int) -> RuleMask:
    """Manhattan distance between the subject's center at each anchor and a
    placed block's center; the demonstration plug-in rule."""
    if not state.placed[anchor_id]:
        raise ValueError(f"block {anchor_id} is not placed")
    xs, ys = _anchors(state, block_id)
    vals = center_distance(xs, ys, state.w[block_id], state.h[block_id],
                           *state.rect(anchor_id))
    return RuleMask(vals)


def availability_mask(position: np.ndarray,
                      ladder: list[tuple[str, np.ndarray]]) -> AvailabilityResult:
    """Conjunction of the position mask with the ladder's (rule name, binary
    mask) pairs, listed from the most severe rule to the least.  A mask that
    would empty the conjunction is dropped instead, so one pass keeps the
    most severe masks that can be kept together (k+1 conjunctions for k
    masks); `dropped` names them least severe first.  The position mask is
    never given up: if it is empty the block fits nowhere and the result is
    infeasible."""
    base = position > 0
    if not base.any():
        return AvailabilityResult(np.zeros(base.shape, dtype=np.uint8),
                                  tuple(n for n, _ in reversed(ladder)), False)
    mask = base
    dropped = []
    for name, comp in ladder:
        kept = mask & (comp > 0)
        if kept.any():
            mask = kept
        else:
            dropped.append(name)
    return AvailabilityResult(mask.astype(np.uint8), tuple(reversed(dropped)), True)


class RulePlugin:
    """Extension point for extra maskable rules.

    A plug-in names itself, says which blocks it constrains, builds a value
    mask, binarizes it (nonzero cells satisfy the rule), and reports a
    scalar metric of the current state.  Its name keys its value mask in
    `MaskStack.rules`, so it must differ from every other rule that binds
    the same block.  Its binary mask joins the ladder below every built-in
    rule, so it is the first kind of mask the relaxation gives up."""

    name = "plugin"

    def applies_to(self, state: FloorplanState, block_id: int) -> bool:
        raise NotImplementedError

    def build(self, state: FloorplanState, block_id: int) -> RuleMask:
        raise NotImplementedError

    def binarize(self, mask: RuleMask) -> np.ndarray:
        raise NotImplementedError

    def metric(self, state: FloorplanState) -> float:
        raise NotImplementedError


class BlockDistanceRule(RulePlugin):
    """Keep one block's center within max_distance of another's."""

    def __init__(self, anchor: int, subject: int, max_distance: float):
        self.anchor = anchor
        self.subject = subject
        self.max_distance = float(max_distance)
        self.name = f"block_distance[{subject}->{anchor}]"

    def applies_to(self, state, block_id):
        return block_id == self.subject and bool(state.placed[self.anchor])

    def build(self, state, block_id):
        return block_distance_mask(state, block_id, self.anchor)

    def binarize(self, mask):
        return mask.values <= self.max_distance

    def metric(self, state):
        if not (state.placed[self.anchor] and state.placed[self.subject]):
            return 0.0
        return float(center_distance(*state.rect(self.subject), *state.rect(self.anchor)))


@dataclasses.dataclass(frozen=True)
class MaskStack:
    """Everything the mask machinery knows about placing one block: the
    value mask of each rule that binds it, keyed by rule name (wire,
    position, terminal, grouping, alignment, then plug-ins by their own
    names), and the availability conjunction."""
    block: int
    rules: dict[str, RuleMask]
    availability: AvailabilityResult

    def named_value_masks(self) -> list[tuple[str, RuleMask]]:
        return list(self.rules.items())


def compile_masks(state: FloorplanState, block_id: int, profile,
                  plugins: tuple = (),
                  wire: tuple[WireProfile, WireProfile] | None = None) -> MaskStack:
    """Build every mask that binds one block, each with its binary form on
    the ladder (terminal, grouping, alignment, then the plug-ins from last
    to first), and form the availability conjunction.  Terminal keeps
    distances up to its threshold, grouping any contact at a zero threshold
    and at least the threshold above zero, alignment scores from its floor
    up; plug-ins binarize themselves.  An island's mask sums the abutment
    masks of its placed members.  An island with no placed member and a
    pair whose partner is unplaced constrain nothing yet and stay off the
    ladder.  Two rules that bind one block must not share a name.  `wire`
    passes on `wire_profiles` that cover the block's shape (see
    `wire_mask`)."""
    index = state.circuit.index
    rules = {"wire": wire_mask(state, block_id, wire),
             "position": position_mask(state, block_id)}
    ladder = []

    cons = state.circuit.constraints
    k = index.binding_col.get(block_id) if profile.uses("boundary") else None
    if k is not None:
        rules["terminal"] = adjacent_terminal_mask(state, cons.boundary_bindings[k])
        ladder.append(("terminal",
                       rules["terminal"].values <= profile.terminal_mask_threshold))

    island = index.group_of.get(block_id) if profile.uses("grouping") else None
    if island is not None:
        vals = np.zeros_like(rules["position"].values)
        mates = [m for m in island if m != block_id and state.placed[m]]
        for m in mates:
            vals = vals + adjacent_block_mask(state, block_id, m).values
        rules["grouping"] = RuleMask(vals)
        if mates:
            floor = profile.block_mask_threshold
            ladder.append(("grouping", vals > 0 if floor <= 0 else vals >= floor))

    k = index.pair_col.get(block_id) if profile.uses("alignment") else None
    pair = None if k is None else cons.alignment_pairs[k]
    if pair is not None and state.placed[pair.other(block_id)]:
        rules["alignment"] = alignment_mask(state, block_id, pair.other(block_id),
                                            pair.min_area)
        floor_area = profile.alignment_mask_frac * index.small_area[k]
        ladder.append(("alignment",
                       rules["alignment"].values >= floor_area / pair.min_area))

    plugged = []
    for plugin in plugins:
        if not plugin.applies_to(state, block_id):
            continue
        if plugin.name in rules:
            raise ValueError(f"two rules named {plugin.name!r} bind block {block_id}")
        rules[plugin.name] = plugin.build(state, block_id)
        plugged.append((plugin.name, plugin.binarize(rules[plugin.name])))
    ladder.extend(reversed(plugged))

    return MaskStack(block_id, rules,
                     availability_mask(rules["position"].values, ladder))
