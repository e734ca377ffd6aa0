"""Data model for stacked-die grid floorplans.

Coordinates are integer grid cells.  A block anchored at (x, y) covers the
half-open cell range [x, x+w) x [y, y+h), so two blocks abut exactly when one
anchor coordinate equals the other block's far edge.  Layers are indexed
0..num_layers-1 and blocks never move between layers during placement.

`FloorplanState` keeps its own bookkeeping up to date as blocks go down, so
no step recomputes it from the placed blocks: a per-layer summed-area table
of cell cover (Crow, SIGGRAPH 1984), whose window sums give the position
mask and whose double difference is the occupancy canvas; each net's live
bounding box, which the wire mask reads, and the running wirelength, the
summed span of those boxes; the running footprint overlap, which each
rect reads as its window sum of the table (four corners); and the
constraint terms (alignment scores, abutment and binding distance) that
the per-step metrics sum.  Blocks are only ever added, never removed, and
every placed block lies inside the outline (`GridDims.holds`).
"""

import dataclasses
import functools
import math

import numpy as np

from .geometry import (
    abutment,
    alignment_ratio,
    merge_terminals,
    rect_overlap,
    rim_distance,
)

# Rule identifiers.  The last four are structural and can never be disabled.
RULE_BOUNDARY = "boundary"      # block must touch bound terminals
RULE_GROUPING = "grouping"      # island members must abut on their layer
RULE_ALIGNMENT = "alignment"    # cross-layer pairs need projected overlap
RULE_PREPLACE = "preplace"      # fixed blocks keep a given position/shape
RULE_OVERLAP = "overlap"        # no two blocks share a cell on a layer
RULE_OUTLINE = "outline"        # blocks stay inside the die outline
RULE_SHAPE = "shape"            # soft blocks keep their aspect-ratio band

ALL_RULES = frozenset({
    RULE_BOUNDARY, RULE_GROUPING, RULE_ALIGNMENT, RULE_PREPLACE,
    RULE_OVERLAP, RULE_OUTLINE, RULE_SHAPE,
})
COMMON_RULES = frozenset({RULE_ALIGNMENT, RULE_OVERLAP, RULE_OUTLINE, RULE_SHAPE})


class FloorplanError(Exception):
    """Base class for package errors."""


class InfeasibleError(FloorplanError):
    """No legal choice exists for the requested operation."""


def shape_from_ar(area: int, ar: float, ar_min: float, ar_max: float) -> tuple[int, int]:
    """Integer (w, h) realizing `area` at aspect ratio w/h as close to `ar` as
    the grid allows.  The ratio is clipped into [ar_min, ar_max] first, and to
    at most `area`, the ratio of a single row; the height is rounded up so w*h
    covers the full area (slack is below one row).  A NaN ratio has no
    place in the band and raises ValueError; infinite ones clip.
    """
    if math.isnan(ar):
        raise ValueError(f"aspect ratio is NaN (block area {area})")
    if area <= 0:
        raise ValueError(f"block area must be positive, got {area}")
    if not (0 < ar_min <= ar_max):
        raise ValueError(f"bad aspect ratio band [{ar_min}, {ar_max}]")
    ratio = min(max(ar, ar_min), ar_max, area)
    w = max(1, math.floor(math.sqrt(area * ratio) + 0.5))
    h = max(1, -(-area // w))
    return w, h


@dataclasses.dataclass(frozen=True)
class GridDims:
    width: int
    height: int
    num_layers: int

    def __post_init__(self):
        name = f"{self.width}x{self.height}x{self.num_layers}"
        if self.width < 1 or self.height < 1 or self.num_layers < 1:
            raise ValueError(f"degenerate grid {name}")
        # keeps each layer's int32 summed-area table exact (FloorplanState)
        if self.width * self.height * self.num_layers > 2**30:
            raise ValueError(f"grid {name} has more than 2**30 cells")

    @property
    def cells_per_layer(self) -> int:
        return self.width * self.height

    def holds(self, x, y, w, h):
        """Whether the w x h rect anchored at (x, y) lies inside the outline,
        elementwise over arrays: the outline rule, written once."""
        return (0 <= x) & (0 <= y) & (x + w <= self.width) & (y + h <= self.height)


@dataclasses.dataclass(frozen=True)
class Block:
    id: int
    name: str
    area: int
    w: int                  # initial shape; soft blocks may be reshaped per episode
    h: int
    ar_min: float
    ar_max: float
    is_soft: bool
    z: int

    def __post_init__(self):
        if self.area <= 0 or self.w < 1 or self.h < 1:
            raise ValueError(f"block {self.name}: empty geometry")
        if self.is_soft and not (0 < self.ar_min <= self.ar_max):
            raise ValueError(f"block {self.name}: bad aspect band")
        if fault := shape_fault(self, self.w, self.h):
            raise ValueError(fault)


def shape_fault(block: Block, w: int, h: int) -> str | None:
    """Why a w x h rect cannot stand for the block, or None: a hard block
    keeps its own w x h, which equals its area, and a soft shape covers its
    area."""
    if not block.is_soft and (w, h) != (block.w, block.h):
        return f"hard block {block.name} is {block.w}x{block.h}, got {w}x{h}"
    if w * h < block.area or (not block.is_soft and w * h > block.area):
        return f"{w}x{h} does not hold block {block.name}'s area {block.area}"
    return None


@dataclasses.dataclass(frozen=True)
class Terminal:
    id: int
    name: str
    x: int
    y: int
    z: int


@dataclasses.dataclass(frozen=True)
class Net:
    """Connection between blocks and terminals, referenced by id."""
    blocks: tuple[int, ...]
    terminals: tuple[int, ...] = ()

    def __post_init__(self):
        if not self.blocks and not self.terminals:
            raise ValueError("net with no members")
        if len(set(self.blocks)) != len(self.blocks) or len(set(self.terminals)) != len(self.terminals):
            raise ValueError("net lists a member twice")


@dataclasses.dataclass(frozen=True)
class AlignmentPair:
    """Two blocks on different layers whose footprints must overlap in
    projection by at least min_area cells (the score saturates there)."""
    a: int
    b: int
    min_area: float

    def __post_init__(self):
        if self.a == self.b:
            raise ValueError("alignment pair needs two distinct blocks")
        if not 0 < self.min_area < math.inf:    # NaN fails this too
            raise ValueError("alignment min_area must be positive and finite")

    def other(self, block_id: int) -> int:
        return self.b if block_id == self.a else self.a


@dataclasses.dataclass(frozen=True)
class BoundaryBinding:
    """Block that must touch terminals: all of them, or at least one."""
    block: int
    terminals: tuple[int, ...]
    mode: str = "ALL"       # "ALL" | "ANY"

    def __post_init__(self):
        if not self.terminals:
            raise ValueError("boundary binding without terminals")
        if self.mode not in ("ALL", "ANY"):
            raise ValueError(f"unknown binding mode {self.mode!r}")


@dataclasses.dataclass(frozen=True)
class Preplacement:
    block: int
    x: int
    y: int
    z: int
    w: int
    h: int


@dataclasses.dataclass(frozen=True)
class ConstraintSet:
    alignment_pairs: tuple[AlignmentPair, ...] = ()
    groups: tuple[tuple[int, ...], ...] = ()
    boundary_bindings: tuple[BoundaryBinding, ...] = ()
    preplacements: tuple[Preplacement, ...] = ()

    def validate(self, circuit: "Circuit") -> None:
        """Check structural consistency against a circuit; raises ValueError."""
        blocks = circuit.blocks
        n = len(blocks)
        for p in self.alignment_pairs:
            if not (0 <= p.a < n and 0 <= p.b < n):
                raise ValueError(f"alignment pair references unknown block ({p.a}, {p.b})")
            if blocks[p.a].z == blocks[p.b].z:
                raise ValueError(f"alignment pair ({p.a}, {p.b}) lies on one layer")
        seen_in_pair: set[int] = set()
        for p in self.alignment_pairs:
            for b in (p.a, p.b):
                if b in seen_in_pair:
                    raise ValueError(f"block {b} appears in two alignment pairs")
                seen_in_pair.add(b)
        seen_in_group: set[int] = set()
        for g in self.groups:
            if len(g) < 2:
                raise ValueError("group needs at least two members")
            for b in g:
                if not (0 <= b < n):
                    raise ValueError(f"group references unknown block {b}")
            zs = {blocks[b].z for b in g}
            if len(zs) != 1:
                raise ValueError(f"group {g} spans layers {sorted(zs)}")
            for b in g:
                if b in seen_in_group:
                    raise ValueError(f"block {b} appears in two groups")
                seen_in_group.add(b)
        bound = set()
        for bb in self.boundary_bindings:
            if not (0 <= bb.block < n):
                raise ValueError(f"binding references unknown block {bb.block}")
            if bb.block in bound:
                raise ValueError(f"block {bb.block} has two boundary bindings")
            bound.add(bb.block)
            for t in bb.terminals:
                if not (0 <= t < len(circuit.terminals)):
                    raise ValueError(f"binding references unknown terminal {t}")
        pre_ids = set()
        dims = circuit.dims
        for pp in self.preplacements:
            if not (0 <= pp.block < n):
                raise ValueError(f"preplacement references unknown block {pp.block}")
            if pp.block in pre_ids:
                raise ValueError(f"block {pp.block} preplaced twice")
            pre_ids.add(pp.block)
            if not dims.holds(pp.x, pp.y, pp.w, pp.h):
                raise ValueError(f"preplacement of block {pp.block} leaves the outline")
            if not (0 <= pp.z < dims.num_layers):
                raise ValueError(f"preplacement of block {pp.block} on missing layer {pp.z}")
            if blocks[pp.block].z != pp.z:
                raise ValueError(f"preplacement of block {pp.block} disagrees with its layer")
            if fault := shape_fault(blocks[pp.block], pp.w, pp.h):
                raise ValueError(f"preplacement of block {pp.block}: {fault}")
        for i, p1 in enumerate(self.preplacements):
            for p2 in self.preplacements[i + 1:]:
                if p1.z == p2.z and rect_overlap(p1.x, p1.y, p1.w, p1.h,
                                                 p2.x, p2.y, p2.w, p2.h) > 0:
                    raise ValueError(f"preplacements {p1.block} and {p2.block} collide")


@dataclasses.dataclass(frozen=True)
class TaskProfile:
    """Which rules constrain placement, plus mask thresholds and metric
    weights.  The four structural rules are always enabled."""
    enabled_rules: frozenset = COMMON_RULES
    terminal_mask_threshold: float = 0.0    # keep cells with distance <= this
    block_mask_threshold: float = 0.0       # 0 means strictly positive abutment
    alignment_mask_frac: float = 0.1        # of min pair area, as a score floor
    w_alignment: float = 0.5
    w_overlap: float = 0.5
    w_hpwl: float = 1.0
    w_adjacency: float = 4.0
    w_distance: float = 4.0

    def __post_init__(self):
        object.__setattr__(self, "enabled_rules", frozenset(self.enabled_rules))
        missing = COMMON_RULES - self.enabled_rules
        if missing:
            raise ValueError(f"structural rules cannot be disabled: {sorted(missing)}")
        unknown = self.enabled_rules - ALL_RULES
        if unknown:
            raise ValueError(f"unknown rules: {sorted(unknown)}")
        for f in dataclasses.fields(self):
            value = getattr(self, f.name)
            if f.name != "enabled_rules" and not math.isfinite(value):
                raise ValueError(f"{f.name} must be finite, got {value!r}")

    @classmethod
    def for_task(cls, task: int, **overrides) -> "TaskProfile":
        presets = {
            1: COMMON_RULES | {RULE_BOUNDARY},
            2: COMMON_RULES | {RULE_GROUPING},
            3: ALL_RULES,
        }
        if task not in presets:
            raise ValueError(f"task must be 1, 2 or 3, got {task}")
        return cls(enabled_rules=presets[task], **overrides)

    def uses(self, rule: str) -> bool:
        return rule in self.enabled_rules


@dataclasses.dataclass(frozen=True)
class CircuitIndex:
    """The circuit's constraints and nets as index arrays, so that a rule's
    metric over all of its instances is one kernel call."""
    layers: np.ndarray          # layer of each block
    pairs: np.ndarray           # (2, pairs): members of each alignment pair
    min_area: np.ndarray        # per pair
    small_area: np.ndarray      # per pair: area of its smaller block
    abut: np.ndarray            # (2, member pairs) inside abutment groups
    bound: np.ndarray           # block of each boundary binding
    every: np.ndarray           # the binding's mode is ALL
    terms: np.ndarray           # (2, terminals, bindings): terminal cells, each
                                # binding padded by repeating its first one
    net_ids: tuple[np.ndarray, ...]     # per block, the nets it belongs to
    # (2, nets) lo and hi of each net's box over its terminal cells; a net
    # without terminals gets the empty box lo = inf, hi = -inf
    terminal_boxes: tuple[np.ndarray, np.ndarray]
    terminal_hpwl: float        # summed span of those boxes, empty ones left out
    # per block, where it has one (validate allows at most one of each):
    # its abutment group, its alignment pair's column in `pairs` and its
    # boundary binding's in `bound`, each also the constraint's index in
    # the circuit's alignment pairs and boundary bindings
    group_of: dict[int, tuple[int, ...]]
    pair_col: dict[int, int]
    binding_col: dict[int, int]

    @classmethod
    def build(cls, circuit: "Circuit") -> "CircuitIndex":
        cons = circuit.constraints
        pairs = cons.alignment_pairs
        bindings = cons.boundary_bindings
        width = max((len(bb.terminals) for bb in bindings), default=0)
        terms = [[circuit.terminals[t] for t in bb.terminals] for bb in bindings]
        terms = [[(t.x, t.y) for t in ts + ts[:1] * (width - len(ts))] for ts in terms]
        ints = lambda v: np.array(v, dtype=np.int64)
        net_ids = [[] for _ in circuit.blocks]
        lo = np.full((2, len(circuit.nets)), np.inf)
        hi = np.full((2, len(circuit.nets)), -np.inf)
        for k, net in enumerate(circuit.nets):
            for b in net.blocks:
                net_ids[b].append(k)
            cells = [(circuit.terminals[t].x, circuit.terminals[t].y) for t in net.terminals]
            if cells:
                lo[:, k] = np.min(cells, axis=0)
                hi[:, k] = np.max(cells, axis=0)
        span = (hi - lo).sum(axis=0)
        return cls(
            layers=ints([b.z for b in circuit.blocks]),
            pairs=ints([(p.a, p.b) for p in pairs]).reshape(-1, 2).T,
            min_area=np.array([p.min_area for p in pairs], dtype=float),
            small_area=ints([min(circuit.blocks[p.a].area, circuit.blocks[p.b].area)
                             for p in pairs]),
            abut=ints([(g[i], g[j]) for g in cons.groups for i in range(len(g))
                       for j in range(i + 1, len(g))]).reshape(-1, 2).T,
            bound=ints([bb.block for bb in bindings]),
            every=np.array([bb.mode == "ALL" for bb in bindings], dtype=bool),
            terms=ints(terms).reshape(len(bindings), width, 2).transpose(2, 1, 0),
            net_ids=tuple(ints(ks) for ks in net_ids),
            terminal_boxes=(lo, hi),
            terminal_hpwl=float(span[np.isfinite(span)].sum()),
            group_of={b: g for g in cons.groups for b in g},
            pair_col={b: k for k, p in enumerate(pairs) for b in (p.a, p.b)},
            binding_col={bb.block: k for k, bb in enumerate(bindings)},
        )


@dataclasses.dataclass(frozen=True)
class Circuit:
    name: str
    dims: GridDims
    blocks: tuple[Block, ...]
    terminals: tuple[Terminal, ...]
    nets: tuple[Net, ...]
    constraints: ConstraintSet = ConstraintSet()
    utilization: float = 0.80

    def __post_init__(self):
        if not 0 < self.utilization <= 1:
            raise ValueError(f"utilization must be in (0, 1], got {self.utilization}")
        for i, b in enumerate(self.blocks):
            if b.id != i:
                raise ValueError(f"block ids must be 0..n-1 in order, found {b.id} at {i}")
            if not (0 <= b.z < self.dims.num_layers):
                raise ValueError(f"block {b.name} assigned to missing layer {b.z}")
        for i, t in enumerate(self.terminals):
            if t.id != i:
                raise ValueError(f"terminal ids must be 0..n-1 in order, found {t.id} at {i}")
            if not (self.dims.holds(t.x, t.y, 1, 1) and 0 <= t.z < self.dims.num_layers):
                raise ValueError(f"terminal {t.name} at ({t.x},{t.y},{t.z}) lies off the grid")
        for net in self.nets:
            for b in net.blocks:
                if not (0 <= b < len(self.blocks)):
                    raise ValueError(f"net references unknown block {b}")
            for t in net.terminals:
                if not (0 <= t < len(self.terminals)):
                    raise ValueError(f"net references unknown terminal {t}")
        budget = self.utilization * self.dims.cells_per_layer * self.dims.num_layers
        total = sum(b.area for b in self.blocks)
        if total > budget:
            raise ValueError(
                f"total block area {total} exceeds utilization budget {budget:.1f}")
        self.constraints.validate(self)

    @property
    def num_blocks(self) -> int:
        return len(self.blocks)

    @functools.cached_property
    def mean_block_area(self) -> float:
        if not self.blocks:
            return 1.0
        return sum(b.area for b in self.blocks) / len(self.blocks)

    @functools.cached_property
    def index(self) -> CircuitIndex:
        return CircuitIndex.build(self)

    @functools.cached_property
    def wire_baseline(self) -> float:
        """Wirelength of the circuit's wire-greedy rollout, rolled out on
        first use; see `env.wire_greedy_baseline`."""
        from .env import wire_greedy_rollout    # env builds on this module
        return wire_greedy_rollout(self)


def default_order(circuit: Circuit) -> list[int]:
    """Placement order: preplaced blocks first, then by descending area,
    ties broken by block id."""
    pre = {pp.block for pp in circuit.constraints.preplacements}
    key = lambda b: (-b.area, b.id)
    head = sorted((b for b in circuit.blocks if b.id in pre), key=key)
    tail = sorted((b for b in circuit.blocks if b.id not in pre), key=key)
    return [b.id for b in head + tail]


def checked_order(circuit: Circuit, order: list[int] | None) -> list[int]:
    """`order` (`default_order` when None) as a list; ValueError unless it
    is a permutation of all block ids."""
    order = default_order(circuit) if order is None else list(order)
    if sorted(order) != list(range(circuit.num_blocks)):
        raise ValueError("order must be a permutation of all block ids")
    return order


def split_pinned(circuit: Circuit, order: list[int]) -> tuple[list[int], list[int]]:
    """The preplaced blocks of `order` and the rest, each in order."""
    pre = {pp.block for pp in circuit.constraints.preplacements}
    return [b for b in order if b in pre], [b for b in order if b not in pre]


class FloorplanState:
    """Mutable placement state over an immutable circuit.

    Block shapes live here because soft blocks are reshaped per episode.
    `order` is a permutation of all block ids and `cursor` the index of the
    next block to place; everything before the cursor is already down.

    `place` puts a block down inside the outline, and raises ValueError
    for a rect that leaves it.  It keeps these current for the placed
    blocks: `sat`, the per-layer summed-area table of cell cover, shape
    (L, W+1, H+1), where sat[z, i, j] counts the covered cells
    [0, i) x [0, j) of layer z with multiplicity; `net_lo` and `net_hi`,
    each net's (2, nets) box over its terminal cells and its placed
    blocks' centers;
    `hpwl`, the summed span of the boxes that are not empty, a Python float
    that a placement moves by the change in its nets' spans only (every
    span is a multiple of 0.5, so the running sum is exact);
    `overlap`, the summed pairwise footprint overlap of same-layer placed
    blocks, to which each rect adds the window sum of its layer's table,
    read before the table takes it in; and the constraint terms,
    each updated only for the instances that hold the placed block:
    `alignment`, every alignment pair's score in constraint order as a
    Python float, 0.0 until both of its blocks are down; `adjacency`, the
    summed shared edge of the group pairs that are down; and `distance`,
    the summed merged distance of the bindings whose block is down.  A
    placed block never changes shape, so a term stays valid once set.  The
    table is int32 to keep clones small; it is exact while a layer's
    summed cover stays below 2**31 cells.
    """

    def __init__(self, circuit: Circuit, order: list[int] | None = None):
        self.circuit = circuit
        n = circuit.num_blocks
        self.order = checked_order(circuit, order)
        self.cursor = 0
        self.x = np.zeros(n, dtype=np.int64)
        self.y = np.zeros(n, dtype=np.int64)
        self.w = np.array([b.w for b in circuit.blocks], dtype=np.int64)
        self.h = np.array([b.h for b in circuit.blocks], dtype=np.int64)
        self.placed = np.zeros(n, dtype=bool)
        dims = circuit.dims
        self.sat = np.zeros((dims.num_layers, dims.width + 1, dims.height + 1),
                            dtype=np.int32)
        lo, hi = circuit.index.terminal_boxes
        self.net_lo = lo.copy()
        self.net_hi = hi.copy()
        self.hpwl = circuit.index.terminal_hpwl
        self.overlap = 0
        self.alignment = [0.0] * len(circuit.constraints.alignment_pairs)
        self.adjacency = 0
        self.distance = 0

    def clone(self) -> "FloorplanState":
        dup = object.__new__(FloorplanState)
        dup.circuit = self.circuit
        dup.order = list(self.order)
        dup.cursor = self.cursor
        dup.x = self.x.copy()
        dup.y = self.y.copy()
        dup.w = self.w.copy()
        dup.h = self.h.copy()
        dup.placed = self.placed.copy()
        dup.sat = self.sat.copy()
        dup.net_lo = self.net_lo.copy()
        dup.net_hi = self.net_hi.copy()
        dup.hpwl = self.hpwl
        dup.overlap = self.overlap
        dup.alignment = list(self.alignment)
        dup.adjacency = self.adjacency
        dup.distance = self.distance
        return dup

    @property
    def done(self) -> bool:
        return self.cursor >= len(self.order)

    @property
    def current_block(self) -> int:
        if self.done:
            raise InfeasibleError("all blocks are placed")
        return self.order[self.cursor]

    def rect(self, block_id: int) -> tuple[int, int, int, int]:
        return (int(self.x[block_id]), int(self.y[block_id]),
                int(self.w[block_id]), int(self.h[block_id]))

    def placed_ids(self) -> list[int]:
        return [int(i) for i in np.flatnonzero(self.placed)]

    def net_boxes(self, block: int):
        """(lo, hi), each (2, k): the boxes of an unplaced block's k nets
        over their terminal cells and placed blocks' centers, so the block
        itself is left out, the empty box lo = inf, hi = -inf where there
        is none."""
        ids = self.circuit.index.net_ids[block]
        return self.net_lo[:, ids], self.net_hi[:, ids]

    def layer_rects(self, z: int):
        """x, y, w, h arrays of the placed blocks on layer z in id order."""
        on = self.placed & (self.circuit.index.layers == z)
        return self.x[on], self.y[on], self.w[on], self.h[on]

    def set_shape(self, block_id: int, ar: float) -> tuple[int, int]:
        blk = self.circuit.blocks[block_id]
        if self.placed[block_id]:
            raise ValueError(f"block {blk.name} is placed, cannot reshape")
        if not blk.is_soft:
            raise ValueError(f"block {blk.name} is hard, cannot reshape")
        w, h = shape_from_ar(blk.area, ar, blk.ar_min, blk.ar_max)
        self.w[block_id] = w
        self.h[block_id] = h
        return w, h

    def place(self, block_id: int, x: int, y: int) -> None:
        if self.placed[block_id]:
            raise ValueError(f"block {block_id} is already placed")
        dims = self.circuit.dims
        w, h = int(self.w[block_id]), int(self.h[block_id])
        if not dims.holds(x, y, w, h):
            raise ValueError(
                f"block {block_id} at ({x},{y}) leaves the "
                f"{dims.width}x{dims.height} outline")
        # the table counts every placed cell, so the rect's window sum
        # before the update is its overlap
        sat = self.sat[self.circuit.blocks[block_id].z]
        self.overlap += window_sum(sat, x, y, w, h)
        self.x[block_id] = x
        self.y[block_id] = y
        self.placed[block_id] = True

        # the rect [x, x+w) x [y, y+h) has min(i - x, w) * min(j - y, h)
        # cells below and left of (i, j) once i > x and j > y, and none before
        sat[x + 1:, y + 1:] += np.multiply.outer(
            np.minimum(np.arange(1, dims.width + 1 - x, dtype=np.int32), w),
            np.minimum(np.arange(1, dims.height + 1 - y, dtype=np.int32), h))

        # a block sits on few nets: update their boxes on Python floats
        index = self.circuit.index
        cx, cy = float(x + w / 2.0), float(y + h / 2.0)
        lo, hi = self.net_lo, self.net_hi
        for k in index.net_ids[block_id].tolist():
            lx, ly, hx, hy = lo.item(0, k), lo.item(1, k), hi.item(0, k), hi.item(1, k)
            if lx <= hx:            # the box is live: its old span goes
                self.hpwl -= (hx - lx) + (hy - ly)
            lx, ly, hx, hy = min(lx, cx), min(ly, cy), max(hx, cx), max(hy, cy)
            lo[0, k], lo[1, k], hi[0, k], hi[1, k] = lx, ly, hx, hy
            self.hpwl += (hx - lx) + (hy - ly)

        rect = self.rect(block_id)
        k = index.pair_col.get(block_id)
        if k is not None:
            mate = self.circuit.constraints.alignment_pairs[k].other(block_id)
            if self.placed[mate]:
                self.alignment[k] = float(
                    alignment_ratio(*rect, *self.rect(mate), index.min_area[k]))
        for m in index.group_of.get(block_id, ()):
            if m != block_id and self.placed[m]:
                self.adjacency += int(abutment(*rect, *self.rect(m)))
        k = index.binding_col.get(block_id)
        if k is not None:
            self.distance += int(merge_terminals(
                rim_distance(*rect, *index.terms[:, :, k]), index.every[k]))

    def apply_preplacements(self) -> None:
        """Pin every preplaced block at its fixed spot and move those blocks
        to the front of the order; the cursor skips past them."""
        pinned, rest = split_pinned(self.circuit, self.order)
        self.order, self.cursor = pinned + rest, len(pinned)
        for pp in self.circuit.constraints.preplacements:
            self.w[pp.block] = pp.w
            self.h[pp.block] = pp.h
            self.place(pp.block, pp.x, pp.y)


def window_sums(sat: np.ndarray, w: int, h: int) -> np.ndarray:
    """Cover summed over every w x h window that fits the grid, from
    summed-area tables over the last two axes: entry [..., x, y] counts the
    covered cells of [x, x+w) x [y, y+h), shape (..., W-w+1, H-h+1)."""
    return sat[..., w:, h:] - sat[..., :-w, h:] - sat[..., w:, :-h] + sat[..., :-w, :-h]


def window_sum(sat: np.ndarray, x: int, y: int, w: int, h: int) -> int:
    """Cover of the one w x h window anchored at (x, y), read at four
    corners of a layer's summed-area table: `window_sums` at one anchor."""
    return sat.item(x + w, y + h) - sat.item(x, y + h) - sat.item(x + w, y) + sat.item(x, y)


def occupancy_grid(state: FloorplanState) -> np.ndarray:
    """Binary per-layer coverage, shape (num_layers, W, H), cell [z, x, y]."""
    return (window_sums(state.sat, 1, 1) > 0).astype(np.uint8)
