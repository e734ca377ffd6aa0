"""Placement quality metrics.

All distances are Manhattan and all geometry is 2D: layers only matter for
deciding which pairs interact (overlap and abutment are per-layer, alignment
is cross-layer) and are otherwise ignored, so terminal distance and
wirelength see the stack in projection.

The geometry itself lives in `geometry`, shared with the mask builders in
`masks`: a metric scores a placement with the same kernel that scores a
mask cell.  `satisfaction_counts` calls it once over all instances of its
rule (`Circuit.index`).  The per-step metrics read what `FloorplanState`
keeps up to date as blocks go down, where `place` calls those kernels on
just the instances that hold the placed block: live net boxes and the
running wirelength over them, the running overlap and the constraint
terms.  So `metric_snapshot` only sums them, and costs the same at every
step.
"""

import dataclasses

import numpy as np

from .core import Circuit, FloorplanState, shape_from_ar
from .geometry import (
    abutment,
    merge_terminals,
    rect_overlap,
    rim_distance,
    span_reach,
)


@dataclasses.dataclass(frozen=True)
class MetricTuple:
    """One snapshot of the five tracked quantities.

    alignment is a mean score in [0, 1]; hpwl, overlap, adjacency and
    distance are raw grid quantities unless `normalized` is set.
    """
    alignment: float
    hpwl: float
    overlap: float
    adjacency: float
    distance: float
    normalized: bool = False

    def as_dict(self) -> dict:
        return {
            "alignment": self.alignment,
            "hpwl": self.hpwl,
            "overlap": self.overlap,
            "adjacency": self.adjacency,
            "distance": self.distance,
        }


# Pass marks for per-constraint satisfaction counting: a boundary binding
# passes when its merged distance is at most DISTANCE_MAX, an abutment pair
# when the shared edge exceeds ADJACENCY_FRAC of the shorter facing edge, an
# alignment pair when the projected intersection exceeds ALIGNMENT_FRAC of
# the smaller block area.
DISTANCE_MAX = 0.0
ADJACENCY_FRAC = 0.5
ALIGNMENT_FRAC = 0.5


def _rects(state: FloorplanState, ids):
    """x, y, w, h of the given blocks, for the geometry kernels."""
    return state.x[ids], state.y[ids], state.w[ids], state.h[ids]


def _pair_rects(state: FloorplanState, pairs: np.ndarray):
    """x, y, w, h of each pair's first blocks, then of its second blocks."""
    return (*_rects(state, pairs[0]), *_rects(state, pairs[1]))


def total_hpwl(state: FloorplanState) -> float:
    """Half-perimeter wirelength over all nets: block centers and terminal
    positions, unplaced blocks skipped, as the state keeps it running over
    its live net boxes.  Spans are multiples of 0.5, so the total is exact
    whatever the order the blocks went down in.  Placing a block never
    shrinks it."""
    return state.hpwl


def total_overlap(state: FloorplanState) -> int:
    """Summed pairwise footprint overlap (cells) over same-layer placed
    pairs, as the state keeps it.  Zero iff no two placed blocks share a
    cell."""
    return state.overlap


def _binding_distances(state: FloorplanState) -> np.ndarray:
    """Merged distance of every boundary binding."""
    index = state.circuit.index
    dist = rim_distance(*_rects(state, index.bound), *index.terms)
    return merge_terminals(dist, index.every)


def _group_abutments(state: FloorplanState) -> np.ndarray:
    return abutment(*_pair_rects(state, state.circuit.index.abut))


def alignment_passes(state: FloorplanState) -> np.ndarray:
    """Per alignment pair, whether the projected intersection exceeds
    ALIGNMENT_FRAC of the smaller block's area."""
    index = state.circuit.index
    return (rect_overlap(*_pair_rects(state, index.pairs))
            > ALIGNMENT_FRAC * index.small_area)


def metric_snapshot(state: FloorplanState) -> MetricTuple:
    """Raw metrics of a possibly partial placement.

    Constraint terms average over every constraint instance; instances whose
    blocks are not yet placed contribute zero, so alignment and adjacency only
    grow as the episode completes and distance only counts realized bindings.
    The state keeps every instance's term as its blocks go down, so this
    only sums them.
    """
    aln = state.alignment
    pairs = state.circuit.index.abut.shape[1]
    bindings = len(state.circuit.index.bound)
    return MetricTuple(
        # summed in constraint order: the bytes must not depend on the
        # order the pairs were completed in
        alignment=sum(aln) / len(aln) if aln else 0.0,
        hpwl=total_hpwl(state),
        overlap=float(state.overlap),
        adjacency=state.adjacency / pairs if pairs else 0.0,
        distance=state.distance / bindings if bindings else 0.0,
        normalized=False,
    )


def normalize(metrics: MetricTuple, circuit: Circuit, hpwl_baseline: float) -> MetricTuple:
    """Bring the raw quantities onto comparable scales: distance by half the
    outline perimeter, adjacency by the mean block side, overlap by the mean
    block area, wirelength by a rollout baseline.  Alignment is already a
    score and passes through."""
    if metrics.normalized:
        raise ValueError("metrics are already normalized")
    if hpwl_baseline <= 0:
        raise ValueError(f"hpwl baseline must be positive, got {hpwl_baseline}")
    mean_area = circuit.mean_block_area
    half_perim = (circuit.dims.width + circuit.dims.height) / 2.0
    return MetricTuple(
        alignment=metrics.alignment,
        hpwl=metrics.hpwl / hpwl_baseline,
        overlap=metrics.overlap / mean_area,
        adjacency=metrics.adjacency / (mean_area ** 0.5),
        distance=metrics.distance / half_perim,
        normalized=True,
    )


def _shape_band_widths(block) -> tuple[int, int]:
    lo, _ = shape_from_ar(block.area, block.ar_min, block.ar_min, block.ar_max)
    hi, _ = shape_from_ar(block.area, block.ar_max, block.ar_min, block.ar_max)
    return lo, hi


def satisfaction_counts(state: FloorplanState) -> dict[str, tuple[int, int]]:
    """(satisfied, total) per rule.

    Boundary, grouping, alignment and preplacement count constraint
    instances and require their blocks to be placed.  Overlap counts
    same-layer placed pairs, outline counts placed blocks, shape counts soft
    blocks whose integer shape is reachable inside their aspect band."""
    cons = state.circuit.constraints
    index = state.circuit.index
    counts: dict[str, tuple[int, int]] = {}

    pre = np.array([pp.block for pp in cons.preplacements], dtype=np.int64)
    need = np.concatenate([index.pairs.ravel(), index.abut.ravel(), index.bound, pre])
    unplaced = need[~state.placed[need]]
    if len(unplaced):
        raise ValueError(f"block {unplaced[0]} is not placed")

    ok = 0
    if len(index.bound):
        ok = int(np.sum(_binding_distances(state) <= DISTANCE_MAX))
    counts["boundary"] = (ok, len(index.bound))

    shared = _group_abutments(state)
    (xa, xb), _, (wa, wb), (ha, hb) = _rects(state, index.abut)
    # a pair that meets in x faces along y, any other along x
    edge = np.where(span_reach(xa, wa, xb, wb) == 0,
                    np.minimum(ha, hb), np.minimum(wa, wb))
    ok = (shared > ADJACENCY_FRAC * edge) & (shared > 0)
    counts["grouping"] = (int(np.sum(ok)), len(shared))

    ok = alignment_passes(state)
    counts["alignment"] = (int(np.sum(ok)), len(ok))

    ok = sum(1 for pp in cons.preplacements
             if state.rect(pp.block) == (pp.x, pp.y, pp.w, pp.h))
    counts["preplace"] = (ok, len(cons.preplacements))

    ok = total = 0
    for z in range(state.circuit.dims.num_layers):
        x, y, w, h = (v[:, None] for v in state.layer_rects(z))
        pairs = len(x) * (len(x) - 1) // 2
        total += pairs
        ok += pairs - int(np.count_nonzero(np.triu(
            rect_overlap(x, y, w, h, x.T, y.T, w.T, h.T), k=1)))
    counts["overlap"] = (ok, total)

    dims = state.circuit.dims
    x, y, w, h = _rects(state, state.placed)
    inside = (x >= 0) & (y >= 0) & (x + w <= dims.width) & (y + h <= dims.height)
    counts["outline"] = (int(inside.sum()), len(x))

    ok = total = 0
    for b in state.circuit.blocks:
        if not b.is_soft:
            continue
        total += 1
        lo, hi = _shape_band_widths(b)
        w = int(state.w[b.id])
        if lo <= w <= hi and int(state.h[b.id]) == -(-b.area // w):
            ok += 1
    counts["shape"] = (ok, total)

    return counts
