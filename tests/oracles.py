"""Brute-force reference implementations used to cross-check the package.

Everything here works on plain tuples and explicit cell enumeration, never on
the package's own vectorized code paths.  Rectangles are (x, y, w, h) anchored
at their lower-left cell; a rect covers the half-open cell range
[x, x+w) x [y, y+h).

The last section works from a FloorplanState's placed rects alone: boundary
binding distances, and what the state keeps up to date as blocks go down
(cover, occupancy, overlap, net boxes, and the position and wire masks
built on them).
"""

from fractions import Fraction

import numpy as np


def rasterize(rects, width, height):
    """Boolean coverage grid, grid[x][y] = True iff some rect covers the cell."""
    grid = [[False] * height for _ in range(width)]
    for (x, y, w, h) in rects:
        for cx in range(max(0, x), min(width, x + w)):
            for cy in range(max(0, y), min(height, y + h)):
                grid[cx][cy] = True
    return grid


def covered_cells(grid):
    return sum(1 for col in grid for v in col if v)


def overlap_cells(r1, r2):
    """Shared cell count of two rects, by enumerating cells of the first."""
    x1, y1, w1, h1 = r1
    x2, y2, w2, h2 = r2
    count = 0
    for cx in range(x1, x1 + w1):
        for cy in range(y1, y1 + h1):
            if x2 <= cx < x2 + w2 and y2 <= cy < y2 + h2:
                count += 1
    return count


def interval_overlap(a0, a1, b0, b1):
    """Length of [a0,a1) & [b0,b1) by integer enumeration."""
    return sum(1 for v in range(min(a0, b0), max(a1, b1)) if a0 <= v < a1 and b0 <= v < b1)


def adjacency_length(r1, r2):
    """Shared abutment length of two rects on a common layer.

    Abutment in x (one rect's right edge meets the other's left edge) counts
    the y-interval overlap, abutment in y counts the x-interval overlap, any
    other arrangement counts zero.  A corner touch yields zero because the
    facing interval overlap is empty.
    """
    x1, y1, w1, h1 = r1
    x2, y2, w2, h2 = r2
    if x1 + w1 == x2 or x2 + w2 == x1:
        return interval_overlap(y1, y1 + h1, y2, y2 + h2)
    if y1 + h1 == y2 or y2 + h2 == y1:
        return interval_overlap(x1, x1 + w1, x2, x2 + w2)
    return 0


def edge_cells(rect):
    """All cells on the four one-cell-wide edges of a rect."""
    x, y, w, h = rect
    cells = set()
    for cx in range(x, x + w):
        cells.add((cx, y))
        cells.add((cx, y + h - 1))
    for cy in range(y, y + h):
        cells.add((x, cy))
        cells.add((x + w - 1, cy))
    return cells


def terminal_distance(rect, tx, ty):
    """Min Manhattan distance from the terminal to any edge cell of the rect."""
    return min(abs(tx - cx) + abs(ty - cy) for (cx, cy) in edge_cells(rect))


def alignment_fraction(r1, r2, min_area):
    """Projected-intersection score capped at 1, computed on rasterized cells."""
    inter = overlap_cells((r1[0], r1[1], r1[2], r1[3]), (r2[0], r2[1], r2[2], r2[3]))
    return min(1.0, inter / min_area)


def hpwl(points_by_net):
    """Half-perimeter wirelength over nets given as lists of (x, y) points."""
    total = 0.0
    for pts in points_by_net:
        if not pts:
            continue
        xs = [p[0] for p in pts]
        ys = [p[1] for p in pts]
        total += (max(xs) - min(xs)) + (max(ys) - min(ys))
    return total


def position_ok(rect, width, height, placed_same_layer):
    """True iff rect is fully on the grid and collides with no placed rect."""
    x, y, w, h = rect
    if x < 0 or y < 0 or x + w > width or y + h > height:
        return False
    return all(overlap_cells(rect, other) == 0 for other in placed_same_layer)


def center_distance(r1, r2):
    """Manhattan distance between rect centers, exact via Fractions."""
    c1x = Fraction(2 * r1[0] + r1[2], 2)
    c1y = Fraction(2 * r1[1] + r1[3], 2)
    c2x = Fraction(2 * r2[0] + r2[2], 2)
    c2y = Fraction(2 * r2[1] + r2[3], 2)
    return float(abs(c1x - c2x) + abs(c1y - c2y))


def relaxed_availability(position, components):
    """Availability by exhaustive subset search: `components` lists
    (name, binary mask) from least to most severe, every subset of them is
    tried as the drop set in order of its bit pattern (most severe mask the
    highest bit), and the first subset that leaves a cell is taken.  Returns
    (mask as bool, dropped names in list order, feasible)."""
    base = np.asarray(position) > 0
    if not base.any():
        return np.zeros_like(base), tuple(n for n, _ in components), False
    for drop_bits in range(2 ** len(components)):
        mask = base
        dropped = []
        for idx, (name, comp) in enumerate(components):
            if drop_bits >> idx & 1:
                dropped.append(name)
            else:
                mask = mask & (comp > 0)
        if mask.any():
            return mask, tuple(dropped), True
    raise AssertionError("dropping every mask leaves the nonempty position mask")


# --- from-scratch versions of FloorplanState's incremental bookkeeping --------

def painted_cover(state):
    """Per-layer cover count, cover[z, x, y], painted rect by rect; cells
    off the grid are clipped."""
    dims = state.circuit.dims
    cover = np.zeros((dims.num_layers, dims.width, dims.height), dtype=np.int64)
    for b in state.placed_ids():
        x, y, w, h = state.rect(b)
        cover[state.circuit.blocks[b].z,
              max(0, x):max(0, x + w), max(0, y):max(0, y + h)] += 1
    return cover


def binding_distance(state, binding):
    """Merged distance of a boundary binding: its worst terminal for mode
    ALL, its best for ANY."""
    rect = state.rect(binding.block)
    ds = [terminal_distance(rect, state.circuit.terminals[t].x,
                            state.circuit.terminals[t].y) for t in binding.terminals]
    return max(ds) if binding.mode == "ALL" else min(ds)


def window_sums(sat, w, h):
    """Cover summed over every w x h window that fits the grid, from
    summed-area tables over the last two axes: entry [..., x, y] counts the
    covered cells of [x, x+w) x [y, y+h), shape (..., W-w+1, H-h+1)."""
    return sat[..., w:, h:] - sat[..., :-w, h:] - sat[..., w:, :-h] + sat[..., :-w, :-h]


def painted_occupancy(state):
    """Binary per-layer coverage, shape (num_layers, W, H), as uint8."""
    return (painted_cover(state) > 0).astype(np.uint8)


def pairwise_overlap(state):
    """Summed overlap cells over every same-layer pair of placed blocks."""
    ids = state.placed_ids()
    blocks = state.circuit.blocks
    return sum(overlap_cells(state.rect(a), state.rect(b))
               for i, a in enumerate(ids) for b in ids[i + 1:]
               if blocks[a].z == blocks[b].z)


def net_pins(state, k, skip=None):
    """(x, y) of net k's terminal cells and placed blocks' centers, leaving
    out block `skip`."""
    circuit = state.circuit
    net = circuit.nets[k]
    pins = [(circuit.terminals[t].x, circuit.terminals[t].y) for t in net.terminals]
    for b in net.blocks:
        if b != skip and state.placed[b]:
            x, y, w, h = state.rect(b)
            pins.append((x + w / 2.0, y + h / 2.0))
    return pins


def pin_net_boxes(state, block=None):
    """(lo, hi), each (2, nets), of every net's pins, or of `block`'s nets
    in id order with the block left out; the empty box lo = inf, hi = -inf
    for a net without pins."""
    nets = [k for k, net in enumerate(state.circuit.nets)
            if block is None or block in net.blocks]
    lo = np.full((2, len(nets)), np.inf)
    hi = np.full((2, len(nets)), -np.inf)
    for col, k in enumerate(nets):
        pins = net_pins(state, k, skip=block)
        if pins:
            lo[:, col] = min(p[0] for p in pins), min(p[1] for p in pins)
            hi[:, col] = max(p[0] for p in pins), max(p[1] for p in pins)
    return lo, hi


def looped_position_mask(state, block_id):
    """1.0 where the block fits on the grid clear of every other placed
    block of its layer, cleared rect by rect."""
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    z = state.circuit.blocks[block_id].z
    vals = np.zeros((dims.width, dims.height))
    if w <= dims.width and h <= dims.height:
        vals[:dims.width - w + 1, :dims.height - h + 1] = 1.0
    for b in state.placed_ids():
        if b == block_id or state.circuit.blocks[b].z != z:
            continue
        x2, y2, w2, h2 = state.rect(b)
        xlo, xhi = max(x2 - w + 1, 0), min(x2 + w2, dims.width)
        ylo, yhi = max(y2 - h + 1, 0), min(y2 + h2, dims.height)
        if xlo < xhi and ylo < yhi:
            vals[xlo:xhi, ylo:yhi] = 0.0
    return vals


def wire_increase(state, block_id):
    """Wirelength growth at every anchor: the HPWL of the block's nets with
    its center there, less their HPWL without it; a net with no other pin
    adds nothing."""
    dims = state.circuit.dims
    w, h = int(state.w[block_id]), int(state.h[block_id])
    nets = [pins for k, net in enumerate(state.circuit.nets) if block_id in net.blocks
            for pins in [net_pins(state, k, skip=block_id)] if pins]
    vals = np.zeros((dims.width, dims.height))
    for x in range(dims.width):
        for y in range(dims.height):
            c = (x + w / 2.0, y + h / 2.0)
            vals[x, y] = hpwl([pins + [c] for pins in nets]) - hpwl(nets)
    return vals
