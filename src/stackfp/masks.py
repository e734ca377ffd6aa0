"""Per-cell rule masks over candidate anchor positions.

Every mask is a (W, H) float array indexed [x, y], where (x, y) is the anchor
the subject block would be placed at.  Value masks score each anchor under one
rule; binarized masks mark the anchors that satisfy the rule's threshold; the
availability mask is the conjunction of all binarized masks, so an action
sampled from it cannot violate any masked rule.

When the conjunction is empty, rules are relaxed by severity: dropping the
terminal mask costs the most, the grouping mask less, the alignment mask less
again, and plug-in masks the least.  One pass from the most severe mask to
the least keeps each mask that leaves the conjunction nonempty.  The position
mask is never dropped; an empty position mask means the block simply does not
fit anywhere.

Each rule's geometry is a kernel in `geometry`, evaluated here over the
whole anchor grid at once; the metrics in `metrics` call the same kernels
over constraint instances, so a mask cell equals the metric of the forced
placement by construction.
"""

import dataclasses

import numpy as np

from .core import BoundaryBinding, FloorplanState
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
    rule: str
    block: int | None = None


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


def _anchors(state: FloorplanState):
    """Every anchor of the grid as broadcastable x (W, 1) and y (1, H)."""
    dims = state.circuit.dims
    return (np.arange(dims.width, dtype=np.int64)[:, None],
            np.arange(dims.height, dtype=np.int64)[None, :])


def adjacent_terminal_mask(state: FloorplanState, binding: BoundaryBinding) -> RuleMask:
    """Merged distance from the binding's terminals to the block's nearest
    edge cell, for every anchor: the worst terminal for ALL bindings, the
    best for ANY.  Anchors that would overhang the outline are still scored;
    the position mask is what rules them out."""
    xs, ys = _anchors(state)
    b = binding.block
    # one grid per terminal: broadcasting a terminal axis too runs slower
    dist = np.stack([rim_distance(xs, ys, state.w[b], state.h[b], t.x, t.y)
                     for t in (state.circuit.terminals[k] for k in binding.terminals)])
    vals = merge_terminals(dist, binding.mode == "ALL")
    return RuleMask(vals.astype(np.float64), "terminal", b)


def adjacent_block_mask(state: FloorplanState, block_id: int, other_id: int) -> RuleMask:
    """Abutment length against one placed block, for every anchor.

    Nonzero only on the two columns and two rows of anchors where the
    subject's edge meets the placed block's edge."""
    if not state.placed[other_id]:
        raise ValueError(f"block {other_id} is not placed")
    if state.circuit.blocks[block_id].z != state.circuit.blocks[other_id].z:
        raise ValueError(f"blocks {block_id} and {other_id} sit on different layers")
    xs, ys = _anchors(state)
    vals = abutment(xs, ys, state.w[block_id], state.h[block_id], *state.rect(other_id))
    return RuleMask(vals.astype(np.float64), "grouping", block_id)


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
    xs, ys = _anchors(state)
    vals = alignment_ratio(xs, ys, state.w[block_id], state.h[block_id],
                           *state.rect(partner_id), float(min_area))
    return RuleMask(vals, "alignment", block_id)


def position_mask(state: FloorplanState, block_id: int) -> RuleMask:
    """1 where the block fits fully on its layer without touching any placed
    footprint, 0 elsewhere."""
    dims = state.circuit.dims
    w = int(state.w[block_id])
    h = int(state.h[block_id])
    z = state.circuit.blocks[block_id].z
    vals = np.zeros((dims.width, dims.height), dtype=np.float64)
    if w <= dims.width and h <= dims.height:
        vals[:dims.width - w + 1, :dims.height - h + 1] = 1.0
    for x2, y2, w2, h2 in zip(*(v.tolist() for v in state.layer_rects(z, skip=block_id))):
        xlo, xhi = max(x2 - w + 1, 0), min(x2 + w2, dims.width)
        ylo, yhi = max(y2 - h + 1, 0), min(y2 + h2, dims.height)
        if xlo < xhi and ylo < yhi:
            vals[xlo:xhi, ylo:yhi] = 0.0
    return RuleMask(vals, "position", block_id)


def wire_mask(state: FloorplanState, block_id: int) -> RuleMask:
    """Wirelength increase if the block lands at each anchor: the sum over
    its nets of how far the anchor's center falls outside the net's current
    bounding box.  Zero inside every box."""
    xs, ys = _anchors(state)
    lo, hi = state.net_boxes(block_id)
    fixed = np.isfinite(lo[0])          # nets with some other pin down
    lo, hi = lo[:, fixed, None], hi[:, fixed, None]
    grow_x = span_gap(lo[0], hi[0], xs.T + state.w[block_id] / 2.0).sum(axis=0)
    grow_y = span_gap(lo[1], hi[1], ys + state.h[block_id] / 2.0).sum(axis=0)
    return RuleMask(grow_x[:, None] + grow_y[None, :], "wire", block_id)


def block_distance_mask(state: FloorplanState, block_id: int, anchor_id: int) -> RuleMask:
    """Manhattan distance between the subject's center at each anchor and a
    placed block's center; the demonstration plug-in rule."""
    if not state.placed[anchor_id]:
        raise ValueError(f"block {anchor_id} is not placed")
    xs, ys = _anchors(state)
    vals = center_distance(xs, ys, state.w[block_id], state.h[block_id],
                           *state.rect(anchor_id))
    return RuleMask(vals, "block_distance", block_id)


# Per-rule binarization sense: whether small or large values satisfy the rule.
# A grouping threshold of zero means "any contact at all", hence strictly
# positive; other senses are inclusive.
def _at_most(vals, threshold):
    return (vals <= threshold).astype(np.uint8)


def _at_least(vals, threshold):
    return (vals >= threshold).astype(np.uint8)


def _binarize_grouping(vals, threshold):
    if threshold <= 0:
        return (vals > 0).astype(np.uint8)
    return _at_least(vals, threshold)


def _binarize_position(vals, threshold):
    return (vals > 0).astype(np.uint8)


_BINARIZE = {
    "terminal": _at_most,
    "grouping": _binarize_grouping,
    "alignment": _at_least,
    "position": _binarize_position,
    "block_distance": _at_most,
}


def binarize(mask: RuleMask, threshold: float = 0.0) -> np.ndarray:
    """Cells that satisfy the mask's rule at the given threshold, as uint8."""
    fn = _BINARIZE.get(mask.rule)
    if fn is None:
        raise ValueError(f"no binarization sense for rule {mask.rule!r}")
    return fn(mask.values, threshold)


def availability_mask(position: np.ndarray,
                      terminal: np.ndarray | None = None,
                      grouping: np.ndarray | None = None,
                      alignment: np.ndarray | None = None,
                      extras: tuple[tuple[str, np.ndarray], ...] = (),
                      ) -> AvailabilityResult:
    """Conjunction of binarized masks with relaxation.

    Pass None for rules the block is not subject to.  Masks join the
    conjunction from the most severe to the least (terminal, grouping,
    alignment, then the extras from last to first), and a mask that would
    empty it is dropped and recorded instead.  Since dropping a mask can
    only grow the conjunction, this keeps the most severe masks that can be
    kept together, with k+1 conjunctions for k masks.  The position mask is
    the one mask that is never given up: if it is empty the block fits
    nowhere and the result is infeasible."""
    base = position > 0
    components = [*extras]
    if alignment is not None:
        components.append(("alignment", alignment))
    if grouping is not None:
        components.append(("grouping", grouping))
    if terminal is not None:
        components.append(("terminal", terminal))

    if not base.any():
        return AvailabilityResult(np.zeros(base.shape, dtype=np.uint8),
                                  tuple(n for n, _ in components), False)

    mask = base
    dropped = []
    for name, comp in reversed(components):
        kept = mask & (comp > 0)
        if kept.any():
            mask = kept
        else:
            dropped.append(name)
    return AvailabilityResult(mask.astype(np.uint8), tuple(reversed(dropped)), True)


class RulePlugin:
    """Extension point for extra maskable rules.

    A plug-in names itself, says which blocks it constrains, builds a value
    mask, binarizes it, and reports a scalar metric of the current state.
    Its binarized mask joins the availability conjunction and is the first
    kind of mask the relaxation ladder gives up."""

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
        return _at_most(mask.values, self.max_distance)

    def metric(self, state):
        if not (state.placed[self.anchor] and state.placed[self.subject]):
            return 0.0
        return float(center_distance(*state.rect(self.subject), *state.rect(self.anchor)))


@dataclasses.dataclass(frozen=True)
class MaskStack:
    """Everything the mask machinery knows about placing one block: value
    masks per rule (None when the rule does not bind the block), their
    binarized forms, and the availability conjunction."""
    block: int
    wire: RuleMask
    position: RuleMask
    terminal: RuleMask | None
    grouping: RuleMask | None
    alignment: RuleMask | None
    plugin_masks: tuple[RuleMask, ...]
    availability: AvailabilityResult

    def named_value_masks(self) -> list[tuple[str, RuleMask]]:
        masks = (self.wire, self.position, self.terminal, self.grouping,
                 self.alignment, *self.plugin_masks)
        return [(m.rule, m) for m in masks if m is not None]


def compile_masks(state: FloorplanState, block_id: int, profile,
                  plugins: tuple = ()) -> MaskStack:
    """Build and binarize every mask that applies to one block, then form
    the availability conjunction.  An island's mask sums the abutment masks
    of its placed members.

    Vacuous cases stay out of the conjunction: an island with no placed
    member and an alignment pair whose partner is still unplaced cannot
    constrain anything yet."""
    index = state.circuit.index
    dims = state.circuit.dims

    wire = wire_mask(state, block_id)
    position = position_mask(state, block_id)
    pos_bin = binarize(position)

    terminal = term_bin = None
    binding = index.binding_of.get(block_id) if profile.uses("boundary") else None
    if binding is not None:
        terminal = adjacent_terminal_mask(state, binding)
        term_bin = binarize(terminal, profile.terminal_mask_threshold)

    grouping = group_bin = None
    island = index.group_of.get(block_id) if profile.uses("grouping") else None
    if island is not None:
        vals = np.zeros((dims.width, dims.height), dtype=np.float64)
        mates = [m for m in island if m != block_id and state.placed[m]]
        for m in mates:
            vals = vals + adjacent_block_mask(state, block_id, m).values
        grouping = RuleMask(vals, "grouping", block_id)
        if mates:
            group_bin = binarize(grouping, profile.block_mask_threshold)

    alignment = align_bin = None
    pair = index.pair_of.get(block_id) if profile.uses("alignment") else None
    if pair is not None and state.placed[pair.other(block_id)]:
        alignment = alignment_mask(state, block_id, pair.other(block_id), pair.min_area)
        blocks = state.circuit.blocks
        floor_area = profile.alignment_mask_frac * min(blocks[pair.a].area,
                                                       blocks[pair.b].area)
        align_bin = binarize(alignment, floor_area / pair.min_area)

    plugin_masks = []
    extras = []
    for plugin in plugins:
        if not plugin.applies_to(state, block_id):
            continue
        m = plugin.build(state, block_id)
        plugin_masks.append(m)
        extras.append((plugin.name, plugin.binarize(m)))

    avail = availability_mask(pos_bin, terminal=term_bin, grouping=group_bin,
                              alignment=align_bin, extras=tuple(extras))
    return MaskStack(
        block=block_id,
        wire=wire,
        position=position,
        terminal=terminal,
        grouping=grouping,
        alignment=alignment,
        plugin_masks=tuple(plugin_masks),
        availability=avail,
    )
