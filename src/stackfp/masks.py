"""Per-cell rule masks over candidate anchor positions.

Every value mask is a (W, H) float array indexed [x, y], where (x, y) is the
anchor the subject block would be placed at; the availability mask is a
(W, H) bool array on the same anchors.  The subject is a block not yet placed,
and a placed one raises ValueError.  Value masks score each anchor under one
rule.  `rule_bindings` gives each rule that binds the block with the builder
of its value mask and of its rung (the test and threshold that binarize it),
and `compile_masks` runs one loop over them, built-in rules and plug-ins
alike, putting the rungs on one list ordered by severity, the ladder; the
availability mask is its conjunction with the position mask, so an action
sampled from it cannot violate any masked rule.

When the conjunction is empty, rules are relaxed by severity: dropping the
terminal mask costs the most, the grouping mask less, the alignment mask less
again, and plug-in masks the least.  One pass down the ladder keeps each
mask that leaves the conjunction nonempty.  The position mask is never
dropped; an empty position mask means the block simply does not fit
anywhere.

Each rule's geometry is a kernel in `geometry`; the metrics in `metrics`
call the same kernels over constraint instances, so a mask cell equals the
metric of the forced placement by construction.  A value mask holds its
rule's kernel with the inputs it reads from the state, and builds its grid
when first read (`RuleMask`).  The pass down the ladder evaluates each rule
only over a box of anchors: where the rule can hold at all (its reach: near
the bound terminals, touching a placed mate, over the alignment partner),
inside the box of the conjunction so far.  Greedy reads the availability
and the rule values at the few anchors that survive it, so on a large grid
no rule's grid is built.  On a grid of at most WHOLE_GRID_MAX_ANCHORS
anchors every box is the whole grid instead, and each grid the pass
evaluates becomes the rule's values.  The position and wire masks read the
state's incremental bookkeeping: window sums of its summed-area table (the
position mask holds a copy of its layer's table) and its live net boxes,
so neither grows with the number of placed blocks.  The position mask's
fit test gives bools, which the pass takes as they are; its `values` are
the whole grid's test as 0/1 floats, so a grid is tested once.

The wire mask is the sum of two per-axis profiles (`wire_profiles`).  A
block of width w anchored at x has its centre at k / 2 with k = 2x + w, so
the x profile is tabulated over these doubled centre coordinates, and the
mask for a width is a strided slice of it; the y axis likewise.  One
profile serves every shape of a candidate scan, since only the width and
height change between candidates.  Halves of integers are exact, so the
slices hold the same floats as a per-shape evaluation.  `wire_floor` adds
the same slices over the anchors where the block fits, so the least wire
value a shape can reach, and the least cell reaching it, are known without
compiling its stack.  When no rule binds the block (`rule_free`), that
cell is greedy's pick, since the availability is the position mask alone.
"""

import dataclasses
import functools
import math
from typing import Callable, NamedTuple

import numpy as np

from .core import BoundaryBinding, FloorplanState, window_sum
from .geometry import (
    abutment,
    alignment_ratio,
    center_distance,
    merge_terminals,
    rim_distance,
    span_gap,
)

# anchor count up to which a grid is worked whole: `wire_floor` tests every
# fitting anchor at once instead of searching boxes, and the availability
# pass evaluates each rule over the whole grid instead of over boxes (about
# where boxes start to pay: measured between 64² and 128² grids)
WHOLE_GRID_MAX_ANCHORS = 64 * 64


@functools.lru_cache(maxsize=16)
def _axis(n: int) -> np.ndarray:
    """The anchors 0..n-1 of one grid axis, shared read-only by every box."""
    axis = np.arange(n, dtype=np.int64)
    axis.flags.writeable = False
    return axis


class RuleMask:
    """One rule's value mask: `values`, its score at every anchor, a (W, H)
    float grid.

    A plug-in may give the grid itself, `RuleMask(values)`.  The built-in
    builders give their rule's elementwise kernel instead, `RuleMask(
    kernel=k, shape=(W, H))`: k(xs, ys) scores the anchors of two
    broadcastable integer arrays from inputs taken off the state when the
    mask is built, so a mask read after its state has moved on still
    scores the state it was built on.  So a mask holds its grid or its
    kernel: `values` evaluates the whole grid when first read and keeps it
    in place of the kernel, letting go of the kernel's inputs.  `over`
    evaluates a box of anchors, kept as `values` when it is the whole grid;
    `at` scores given anchors by the kernel while there is one, and
    otherwise reads them off `values`; `positive` tests a box of anchors
    for values above zero.  The kernel scores each anchor on its own, so
    all of them agree bit for bit.  (The position mask, `FitMask`, tests
    its boxes directly instead.)"""

    __slots__ = ("shape", "_values", "_kernel")

    def __init__(self, values: np.ndarray | None = None, *,
                 kernel: Callable | None = None,
                 shape: tuple[int, int] | None = None):
        self.shape = values.shape if values is not None else shape
        self._values = values
        self._kernel = kernel

    @property
    def values(self) -> np.ndarray:
        if self._values is None:
            self.over(0, self.shape[0], 0, self.shape[1])
        return self._values

    def over(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        """The values over the anchor box [x0, x1) x [y0, y1)."""
        if self._values is not None:
            return self._values[x0:x1, y0:y1]
        part = self._kernel(_axis(self.shape[0])[x0:x1, None],
                            _axis(self.shape[1])[None, y0:y1])
        if (x1 - x0, y1 - y0) == self.shape:
            self._values, self._kernel = part, None
        return part

    def at(self, xs: np.ndarray, ys: np.ndarray) -> np.ndarray:
        """The values at the anchors (xs[i], ys[i])."""
        if self._kernel is not None:
            return self._kernel(xs, ys)
        return self.values[xs, ys]

    def positive(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        """Whether the value is above zero over the anchor box, as bools."""
        return self.over(x0, x1, y0, y1) > 0


class FitMask(RuleMask):
    """The position mask: `fit(x0, x1, y0, y1)` tests a box of anchors, as
    bools, and `positive` is that test, kept when it covers the whole grid.
    `values`, the whole grid's test as 0/1 floats, is built from it when
    first read, so the grid is tested once."""

    __slots__ = ("_fit", "_fits")

    def __init__(self, fit: Callable, shape: tuple[int, int]):
        super().__init__(shape=shape)
        self._fit = fit
        self._fits = None       # the whole grid's test, once taken

    def positive(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        if self._fits is None:
            part = self._fit(x0, x1, y0, y1)
            if (x1 - x0, y1 - y0) != self.shape:
                return part
            self._fits, self._fit = part, None
        return self._fits[x0:x1, y0:y1]

    def over(self, x0: int, x1: int, y0: int, y1: int) -> np.ndarray:
        if self._values is None:
            whole = self.positive(0, self.shape[0], 0, self.shape[1])
            self._values = whole.astype(np.float64)
        return self._values[x0:x1, y0:y1]


class AvailabilityResult:
    """Conjunction of binarized masks plus the relaxation audit trail.

    The conjunction is held as `part`, a bool array over the anchor box
    whose low corner is `corner`, on a grid of `shape`; no available anchor
    lies outside the box.  `mask`, the conjunction as a (W, H) bool grid,
    is built when first read, so that `grid[mask]` selects the available
    anchors of a grid; `allows` and `anchors` read the box."""

    __slots__ = ("dropped", "feasible", "shape", "corner", "part", "_mask")

    def __init__(self, dropped: tuple[str, ...], feasible: bool,
                 shape: tuple[int, int], corner: tuple[int, int], part: np.ndarray):
        self.dropped = dropped
        self.feasible = feasible
        self.shape = shape
        self.corner = corner
        self.part = part
        self._mask = None

    @property
    def rung(self) -> str:
        if not self.feasible:
            return "infeasible"
        if not self.dropped:
            return "none"
        return "drop:" + "+".join(self.dropped)

    @property
    def mask(self) -> np.ndarray:
        if self._mask is None:
            (x0, y0), (n, m) = self.corner, self.part.shape
            self._mask = np.zeros(self.shape, dtype=bool)
            self._mask[x0:x0 + n, y0:y0 + m] = self.part
        return self._mask

    def allows(self, x: int, y: int) -> bool:
        (x0, y0), (n, m) = self.corner, self.part.shape
        return x0 <= x < x0 + n and y0 <= y < y0 + m and bool(self.part[x - x0, y - y0])

    def anchors(self) -> tuple[np.ndarray, np.ndarray]:
        """The available anchors, as arrays of x and of y in row-major
        order (by x, then y)."""
        # a 2-D nonzero runs several times slower than a flat one
        xs, ys = np.divmod(self.part.ravel().nonzero()[0], self.part.shape[1])
        x0, y0 = self.corner
        if x0:
            xs += x0
        if y0:
            ys += y0
        return xs, ys


def _require_unplaced(state: FloorplanState, block_id: int) -> None:
    if state.placed[block_id]:
        raise ValueError(f"block {block_id} is placed; masks score unplaced blocks")


def _kernel_mask(state: FloorplanState, block_id: int, kernel: Callable) -> RuleMask:
    """The value mask of the unplaced subject block scored by `kernel`."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    return RuleMask(kernel=kernel, shape=(dims.width, dims.height))


def adjacent_terminal_mask(state: FloorplanState, binding: BoundaryBinding) -> RuleMask:
    """Merged distance from the binding's terminals to the block's nearest
    edge cell, for every anchor: the worst terminal for ALL bindings, the
    best for ANY.  Anchors that would overhang the outline are still scored;
    the position mask is what rules them out."""
    b = binding.block
    w, h = state.w[b], state.h[b]
    cells = [(t.x, t.y) for t in (state.circuit.terminals[k] for k in binding.terminals)]
    every = binding.mode == "ALL"

    def kernel(xs, ys):
        # one grid per terminal: broadcasting a terminal axis too runs slower
        dist = [rim_distance(xs, ys, w, h, tx, ty) for tx, ty in cells]
        merged = dist[0] if len(dist) == 1 else merge_terminals(np.stack(dist), every)
        return merged.astype(np.float64)
    return _kernel_mask(state, b, kernel)


def adjacent_block_mask(state: FloorplanState, block_id: int, other_id: int) -> RuleMask:
    """Abutment length against one placed block, for every anchor.

    Nonzero only on the two columns and two rows of anchors where the
    subject's edge meets the placed block's edge."""
    if not state.placed[other_id]:
        raise ValueError(f"block {other_id} is not placed")
    if state.circuit.blocks[block_id].z != state.circuit.blocks[other_id].z:
        raise ValueError(f"blocks {block_id} and {other_id} sit on different layers")
    w, h, rect = state.w[block_id], state.h[block_id], state.rect(other_id)
    return _kernel_mask(state, block_id, lambda xs, ys: abutment(
        xs, ys, w, h, *rect).astype(np.float64))


def alignment_mask(state: FloorplanState, block_id: int, partner_id: int,
                   min_area: float) -> RuleMask:
    """Projected-overlap score against one placed cross-layer partner, for
    every anchor, saturated at 1."""
    if not state.placed[partner_id]:
        raise ValueError(f"block {partner_id} is not placed")
    if state.circuit.blocks[block_id].z == state.circuit.blocks[partner_id].z:
        raise ValueError(f"blocks {block_id} and {partner_id} share a layer")
    if not 0 < min_area < math.inf:
        raise ValueError("min_area must be positive and finite")
    w, h, rect = state.w[block_id], state.h[block_id], state.rect(partner_id)
    min_area = float(min_area)
    return _kernel_mask(state, block_id, lambda xs, ys: alignment_ratio(
        xs, ys, w, h, *rect, min_area))


def _fits(sat: np.ndarray, w: int, h: int, xs: tuple[int, int],
          ys: tuple[int, int]) -> np.ndarray:
    """The fit test behind the position mask: True where a w x h block's
    window of a layer's summed-area table `sat` sums to zero, over the
    half-open anchor ranges `xs` x `ys`, which keep the block on the grid
    ([0, W-w] x [0, H-h] at most).  With `strip` the table differenced
    over the window's w rows, the window [x, x+w) x [y, y+h) sums to zero
    when strip[x, y+h] == strip[x, y]: two differences of the table,
    exact in int32 like it."""
    (x0, x1), (y0, y1) = xs, ys
    strip = sat[x0 + w:x1 + w, y0:y1 + h] - sat[x0:x1, y0:y1 + h]
    return strip[:, h:] == strip[:, :-h]


def position_mask(state: FloorplanState, block_id: int) -> FitMask:
    """1 where the block fits fully on its layer without touching any placed
    footprint, 0 elsewhere: the anchors that keep it on the grid and whose
    window of the layer's summed-area table sums to zero.  The mask holds a
    copy of the table, so a read after the state moves on still sees the
    state it was built on, and a box of it costs the fit test over that box
    only."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    nx, ny = dims.width - w + 1, dims.height - h + 1     # fitting anchors per axis
    sat = state.sat[state.circuit.blocks[block_id].z].copy()

    def fit(x0, x1, y0, y1):
        out = np.zeros((x1 - x0, y1 - y0), dtype=bool)
        if min(x1, nx) > x0 and min(y1, ny) > y0:
            fits = _fits(sat, w, h, (x0, min(x1, nx)), (y0, min(y1, ny)))
            out[:fits.shape[0], :fits.shape[1]] = fits
        return out

    return FitMask(fit, (dims.width, dims.height))


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
    # sizes of one parity only reach every other doubled coordinate; the
    # halved coordinates k / 2 are halves of integers, exact as a float arange
    k0 = min(sizes)
    step = 2 if len({s % 2 for s in sizes}) == 1 else 1
    gaps = span_gap(lo, hi, np.arange(k0 / 2, (max(sizes) + 2 * n - 1) / 2, step / 2))
    return WireProfile(k0, step, n, gaps[0] if len(gaps) == 1 else gaps.sum(axis=0))


def wire_profiles(state: FloorplanState, block_id: int, widths,
                  heights) -> tuple[WireProfile, WireProfile]:
    """The x and y profiles of the unplaced block's wire growth, covering
    every width in `widths` and height in `heights`; nets with no other pin
    down add nothing.  Valid for this state while nothing else is placed."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    lo, hi = state.net_boxes(block_id)
    live = np.isfinite(lo[0])           # nets with some other pin down
    if not live.all():
        lo, hi = lo[:, live], hi[:, live]
    lo, hi = lo[..., None], hi[..., None]
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
    gx, gy = profiles[0].at(w), profiles[1].at(h)
    return _kernel_mask(state, block_id, lambda xs, ys: gx[xs] + gy[ys])


def wire_floor(state: FloorplanState, block_id: int,
               profiles: tuple[WireProfile, WireProfile] | None = None, *,
               below: float = math.inf) -> tuple[float, int | None]:
    """The least wire-mask value over the anchors the position mask sets,
    and its cell: the least flat index (x * H + y, row-major) of an anchor
    that reaches it; (inf, None) when the block fits nowhere or that value
    exceeds `below`.  `profiles` are as for `wire_mask`.  The floor comes
    from the same profile adds as the mask, so it is a value the mask
    holds, not an estimate: no available cell of the block in this shape
    scores below it.  With no rule on the ladder the cell is greedy's pick
    (see `rule_free`).

    With gx and gy the two profiles' growth, no anchor scores below min gx
    + min gy, and (argmin gx, argmin gy) is the least cell that can; when
    the block fits there, it is the answer.  Otherwise the search looks at
    a box: an anchor outside {gx <= t - min gy} x {gy <= t - min gx} scores
    above t, so the least fitting value in the box is the floor once it is
    at most t, and every anchor that reaches it lies in the box.  Profile
    values are sums of halves of integers, exact in floats, so these
    comparisons are exact too.  A finite `below` is the only t tried;
    otherwise the first box spans about a quarter of each axis, and it
    mostly holds the floor, else one more box does.  Up to
    WHOLE_GRID_MAX_ANCHORS anchors the whole grid is tested at once, which
    costs less there than the box's extra steps."""
    _require_unplaced(state, block_id)
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    if not dims.holds(0, 0, w, h):
        return math.inf, None
    if profiles is None:
        profiles = wire_profiles(state, block_id, (w,), (h,))
    nx, ny = dims.width - w + 1, dims.height - h + 1
    gx = profiles[0].at(w)[:nx]
    gy = profiles[1].at(h)[:ny]
    sat = state.sat[state.circuit.blocks[block_id].z]
    ax, ay = int(gx.argmin()), int(gy.argmin())
    low_x, low_y = gx[ax], gy[ay]
    if low_x + low_y > below:
        return math.inf, None
    if window_sum(sat, ax, ay, w, h) == 0:
        return float(low_x + low_y), ax * dims.height + ay

    def least_in(xs: tuple[int, int], ys: tuple[int, int]) -> tuple[float, int | None]:
        # the least fitting value over the anchors xs x ys; a box keeps the
        # grid's row-major order, so argmin finds the least flat index
        vals = np.where(_fits(sat, w, h, xs, ys),
                        gx[slice(*xs), None] + gy[None, slice(*ys)], math.inf)
        x, y = divmod(int(vals.argmin()), vals.shape[1])
        least = float(vals[x, y])
        if least == math.inf or least > below:
            return math.inf, None
        return least, (xs[0] + x) * dims.height + ys[0] + y

    def least_within(t: float) -> tuple[float, int | None]:
        # the box of anchors that can score t
        bx = np.flatnonzero(gx <= t - low_y)
        by = np.flatnonzero(gy <= t - low_x)
        return least_in((bx[0], bx[-1] + 1), (by[0], by[-1] + 1))

    if nx * ny <= WHOLE_GRID_MAX_ANCHORS:
        return least_in((0, nx), (0, ny))
    if below < math.inf:
        return least_within(below)
    t = low_x + low_y + min(np.partition(gx, nx // 4)[nx // 4] - low_x,
                            np.partition(gy, ny // 4)[ny // 4] - low_y)
    least = least_within(t)
    # past t, the least fitting value found sets the box that holds the
    # floor; with none found, that box is the whole grid
    return least if least[0] <= t else least_within(least[0])


def fits_at(state: FloorplanState, block_id: int, x: int, y: int) -> bool:
    """Whether the position mask sets the anchor (x, y), without building
    it: the block lies inside the outline there, and its window of the
    layer's summed-area table sums to zero."""
    _require_unplaced(state, block_id)
    w, h = int(state.w[block_id]), int(state.h[block_id])
    return bool(state.circuit.dims.holds(x, y, w, h)) and window_sum(
        state.sat[state.circuit.blocks[block_id].z], x, y, w, h) == 0


def block_distance_mask(state: FloorplanState, block_id: int, anchor_id: int) -> RuleMask:
    """Manhattan distance between the subject's center at each anchor and a
    placed block's center; the demonstration plug-in rule."""
    if not state.placed[anchor_id]:
        raise ValueError(f"block {anchor_id} is not placed")
    w, h, rect = state.w[block_id], state.h[block_id], state.rect(anchor_id)
    return _kernel_mask(state, block_id, lambda xs, ys: center_distance(
        xs, ys, w, h, *rect))


def _meet(a: tuple, b: tuple) -> tuple:
    """The intersection of two anchor boxes (x0, x1, y0, y1)."""
    return max(a[0], b[0]), min(a[1], b[1]), max(a[2], b[2]), min(a[3], b[3])


def _join(a: tuple, b: tuple) -> tuple:
    """The bounding box of two nonempty anchor boxes."""
    return min(a[0], b[0]), max(a[1], b[1]), min(a[2], b[2]), max(a[3], b[3])


def availability_mask(position: RuleMask, ladder: list[tuple]) -> AvailabilityResult:
    """Conjunction of the position mask with the ladder's rules, listed from
    the most severe to the least.  Each rule is a tuple (name, mask, test,
    threshold, reach): the anchors whose `mask` value passes `test(value,
    threshold)` (`np.less_equal` and the like) satisfy it, and none of them
    lies outside `reach`, the anchor box (x0, x1, y0, y1), half-open, or
    None for the whole grid.  A rule that would empty the conjunction
    is dropped instead, so one pass keeps the most severe rules that can be
    kept together (k+1 conjunctions for k rules); `dropped` names them
    least severe first.  The position mask is never given up: if it is
    empty the block fits nowhere and the result is infeasible.

    The pass holds the conjunction over a box of anchors, at first the
    whole grid.  It evaluates each rule, and the position mask while no
    rule is kept, only over the part of the box inside the rule's reach: a
    rule whose reach misses the box drops unevaluated, and a rule kept
    shrinks the box to the bounding box of what is kept.  So the position
    mask is evaluated over the whole grid only when every rule drops or
    none binds.  On a grid of at most WHOLE_GRID_MAX_ANCHORS anchors reaches
    are not read and the box stays the whole grid, so that each mask the
    pass evaluates builds its values."""
    width, height = position.shape
    whole = width * height <= WHOLE_GRID_MAX_ANCHORS
    box = (0, width, 0, height)
    mask = None             # the conjunction over box; None while no rule is kept
    dropped = []
    for name, rule, test, threshold, reach in ladder:
        x0, x1, y0, y1 = box if whole or reach is None else _meet(box, reach)
        if x0 >= x1 or y0 >= y1:
            dropped.append(name)
            continue
        kept = test(rule.over(x0, x1, y0, y1), threshold)
        if mask is None:
            kept &= position.positive(x0, x1, y0, y1)
        else:
            kept &= mask[x0 - box[0]:x1 - box[0], y0 - box[2]:y1 - box[2]]
        if whole:
            if kept.any():
                mask = kept
            else:
                dropped.append(name)
            continue
        rows = np.flatnonzero(kept.any(axis=1))
        if rows.size == 0:
            dropped.append(name)
            continue
        cols = np.flatnonzero(kept.any(axis=0))
        i0, i1, j0, j1 = int(rows[0]), int(rows[-1]) + 1, int(cols[0]), int(cols[-1]) + 1
        mask = kept[i0:i1, j0:j1]
        box = (x0 + i0, x0 + i1, y0 + j0, y0 + j1)
    feasible = True
    if mask is None:
        mask = position.positive(*box)
        feasible = bool(mask.any())
    return AvailabilityResult(tuple(reversed(dropped)), feasible, (width, height),
                              (box[0], box[2]), mask)


class RulePlugin:
    """Extension point for extra maskable rules.

    A plug-in names itself, says which blocks it constrains given what is
    placed (not the subject's shape, which a ratio scan varies), builds a
    value mask, binarizes it (nonzero cells satisfy the rule), and reports
    a scalar metric of the current state.  Its name keys its value mask in
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
        # a NaN or negative bound never holds, an infinite one always does,
        # and an anchor that is its own subject never applies
        if not 0 <= float(max_distance) < math.inf:
            raise ValueError(f"max_distance must be finite and >= 0, got {max_distance!r}")
        if anchor == subject:
            raise ValueError(f"anchor must differ from subject, both are block {subject}")
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
    names), and the availability conjunction.  A value mask builds its grid
    when first read (`RuleMask`); the availability is formed when the stack
    is compiled."""
    block: int
    rules: dict[str, RuleMask]
    availability: AvailabilityResult

    def named_value_masks(self) -> list[tuple[str, RuleMask]]:
        return list(self.rules.items())


def _island_mask(state: FloorplanState, block_id: int, mates: list[int]) -> RuleMask:
    """The grouping mask: the sum of the placed island members' abutment masks."""
    parts = [adjacent_block_mask(state, block_id, m)._kernel for m in mates]

    def grouping(xs, ys):
        # abutments are never -0.0, so the sum may start from the first
        if not parts:
            return np.zeros(np.broadcast(xs, ys).shape)
        vals = parts[0](xs, ys)
        for part in parts[1:]:
            vals = vals + part(xs, ys)
        return vals
    return _kernel_mask(state, block_id, grouping)


def _terminal_rung(state, binding: BoundaryBinding, threshold, mask, w, h, fit) -> tuple:
    """Terminal keeps distances up to its threshold.  A rim distance is an
    integer at least the terminal-rect gap on either axis, so each terminal
    reaches the anchors within floor(threshold) of it on both axes: all of
    them for ALL, the bounding box of any for ANY."""
    reach = None
    if fit is not None:
        t = math.floor(threshold)
        terms = state.circuit.terminals
        reach = (0, 0, 0, 0) if t < 0 else _meet(fit, functools.reduce(
            _meet if binding.mode == "ALL" else _join,
            [(terms[k].x - w + 1 - t, terms[k].x + t + 1, terms[k].y - h + 1 - t,
              terms[k].y + t + 1) for k in binding.terminals]))
    return "terminal", mask, np.less_equal, threshold, reach


def _grouping_rung(state, mates: list[int], floor, mask, w, h, fit) -> tuple:
    """Grouping keeps any contact at a zero floor, at least the floor above
    zero; a nonzero abutment needs the rects to touch or overlap, so it
    reaches the bounding box of each placed mate's such anchors."""
    reach = None if fit is None else _meet(fit, functools.reduce(_join, [
        (x - w, x + mw + 1, y - h, y + mh + 1) for x, y, mw, mh in map(state.rect, mates)]))
    test, threshold = (np.greater, 0) if floor <= 0 else (np.greater_equal, floor)
    return "grouping", mask, test, threshold, reach


def _alignment_rung(state, partner: int, floor, mask, w, h, fit) -> tuple:
    """Alignment keeps scores from its floor up; a score above zero needs
    the rects to overlap, so a floor above zero reaches the anchors over the
    partner's footprint, and one at or below zero the whole grid."""
    reach = None
    if floor > 0 and fit is not None:
        x, y, pw, ph = state.rect(partner)
        reach = _meet(fit, (x - w + 1, x + pw, y - h + 1, y + ph))
    return "alignment", mask, np.greater_equal, floor, reach


def _plugin_rung(plugin: RulePlugin, mask, w, h, fit) -> tuple:
    """A plug-in's rung: the cells of its own binarized grid above zero.
    The threshold is False, not 0, which compares a grid of any dtype with
    zero the same way but keeps a bool grid's test in bools instead of
    casting it to int64 (about ten times slower)."""
    return plugin.name, RuleMask(np.asarray(plugin.binarize(mask))), np.greater, False, None


def rule_bindings(state: FloorplanState, block_id: int, profile,
                  plugins: tuple = ()) -> list[tuple[str, Callable, Callable | None]]:
    """One (name, build, rung) per rule with a value mask on the block's
    stack now, in the order `MaskStack.rules` lists them: terminal,
    grouping, alignment, then the plug-ins that apply in the order given.
    `build()` gives the value mask for the block's current shape, `rung(
    mask, w, h, fit)` its ladder tuple (as `availability_mask` takes it)
    for a w x h block fitting in the anchor box `fit` (None on a grid
    worked whole), or None for an island with no placed member.  What
    binds does not depend on the block's shape."""
    index, cons = state.circuit.index, state.circuit.constraints
    bound = []
    k = index.binding_col.get(block_id) if profile.uses("boundary") else None
    if k is not None:
        binding = cons.boundary_bindings[k]
        bound.append(("terminal", functools.partial(adjacent_terminal_mask, state, binding),
                      functools.partial(_terminal_rung, state, binding,
                                        profile.terminal_mask_threshold)))
    island = index.group_of.get(block_id) if profile.uses("grouping") else None
    if island is not None:
        mates = [m for m in island if m != block_id and state.placed[m]]
        bound.append(("grouping", functools.partial(_island_mask, state, block_id, mates),
                      functools.partial(_grouping_rung, state, mates,
                                        profile.block_mask_threshold) if mates else None))
    k = index.pair_col.get(block_id) if profile.uses("alignment") else None
    pair = None if k is None else cons.alignment_pairs[k]
    if pair is not None and state.placed[pair.other(block_id)]:
        partner = pair.other(block_id)
        # in Python floats, so that a huge fraction makes the floor inf
        # (which no score reaches) instead of overflowing in numpy
        floor = profile.alignment_mask_frac * float(index.small_area[k]) / pair.min_area
        bound.append(("alignment", functools.partial(alignment_mask, state, block_id,
                                                     partner, pair.min_area),
                      functools.partial(_alignment_rung, state, partner, floor)))
    for plugin in plugins:
        if plugin.applies_to(state, block_id):
            bound.append((plugin.name, functools.partial(plugin.build, state, block_id),
                          functools.partial(_plugin_rung, plugin)))
    return bound


def rule_free(bound: list) -> bool:
    """Whether no rule on the ladder binds the block (no entry of its
    `rule_bindings` has a rung): its availability is then the position mask
    alone, and greedy's cell the one `wire_floor` returns."""
    for _, _, rung in bound:
        if rung is not None:
            return False
    return True


def compile_masks(state: FloorplanState, block_id: int, profile,
                  plugins: tuple = (),
                  wire: tuple[WireProfile, WireProfile] | None = None,
                  bound: list | None = None) -> MaskStack:
    """Build the value mask of each rule in `bound` (the block's
    `rule_bindings` on this state, worked out when None) into `rules` in
    that order, put the built-in rules' rungs on the ladder in that order
    and the plug-ins' below them from last to first, and form the
    availability conjunction.  Two rules that bind one block must not share
    a name.  `wire` passes on `wire_profiles` that cover the block's shape."""
    if bound is None:
        bound = rule_bindings(state, block_id, profile, plugins)
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    # the availability pass reads no reach on a grid it works whole
    fit = None if dims.width * dims.height <= WHOLE_GRID_MAX_ANCHORS else (
        0, dims.width - w + 1, 0, dims.height - h + 1)
    rules = {"wire": wire_mask(state, block_id, wire),
             "position": position_mask(state, block_id)}
    ladder, top = [], 0
    for name, build, rung in bound:
        if name in rules:
            raise ValueError(f"two rules named {name!r} bind block {block_id}")
        rules[name] = build()
        if rung is not None:
            # a plug-in's rung goes below the built-in rules' and above the
            # rungs of the plug-ins listed before it
            ladder.insert(top, rung(rules[name], w, h, fit))
            top += rung.func is not _plugin_rung
    return MaskStack(block_id, rules, availability_mask(rules["position"], ladder))
