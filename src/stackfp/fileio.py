"""JSON file formats and the seeded constraint generator.

Three documents, all serialized with sorted keys and two-space indents so
that load -> save is byte-stable:

* circuit files: the full quantized instance, including the quantization
  scheme name in the header;
* constraint files: alignment pairs (with the min-area fraction), abutment
  groups, boundary bindings, preplacements, and a full block-to-layer map;
* placement files: solver output, one rect per block plus a small header.

Each record is one table, walked by one writer and one reader.  The reader
checks every value, and malformed input is a ParseError naming its place,
e.g. ``circuit.blocks[3].soft wants true or false, got 'no'``.

The generator fabricates constraint sets matching requested counts, where
the alignment and grouping counts tally blocks, not instances (ten aligned
blocks means five pairs).  Bindings go to the largest blocks: they place
early, grab their terminal before the die crowds, and so keep the
relaxation ladder quiet.
"""

import collections
import dataclasses
import json
import math
import re

import numpy as np

from .core import (
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    FloorplanState,
    GridDims,
    InfeasibleError,
    Net,
    Preplacement,
    Terminal,
    shape_fault,
)
from .bookshelf import QUANTIZATION, ParseError, farthest_point_subset, synth_circuit
from .geometry import rim_distance


# --- tables ------------------------------------------------------------------
# A spec is a _Leaf, a _Record, [spec] for a JSON array (read as a tuple) or
# {_ID: spec} for an object keyed by block ids (read with int keys, written
# with string keys so that sorted output keeps "10" before "2").

_ID = re.compile(r"0|-?[1-9][0-9]{0,18}")
_Leaf = collections.namedtuple("_Leaf", "what ok")
_Record = collections.namedtuple("_Record", "make fields consts")


def _record(make, *fields, consts=()):
    """A JSON object that `make` builds from fields (key, spec[, attribute
    [, default]]): the attribute is the constructor keyword, the key unless
    given, and the default is the JSON value a missing member reads as.
    `consts` are (key, value) members written and required verbatim."""
    def field(key, spec, attr=None, default=...):    # a leaf's test runs inline
        return key, attr or key, spec, default, getattr(spec, "ok", None)
    return _Record(make, tuple(field(*f) for f in fields), consts)


def _read(spec, v):
    """What JSON value v describes, checked against spec."""
    kind = type(spec)
    if kind is _Leaf:
        if not spec.ok(v):
            raise ParseError(f" wants {spec.what}, got {v!r:.60}")
        return v
    if type(v) is not (dict if kind is _Record else kind):
        raise ParseError(f" wants {'a list' if kind is list else 'an object'}, got {v!r:.60}")
    kw, out = {}, []
    try:
        if kind is not _Record:
            item = spec[_ID] if kind is dict else spec[0]
            ok = getattr(item, "ok", None)
            for k, x in v.items() if kind is dict else enumerate(v):
                if kind is dict and not _ID.fullmatch(k):
                    raise ParseError(f" wants a block id as key, got {k!r:.60}")
                out.append(x if ok and ok(x) else _read(item, x))
            return dict(zip(map(int, v), out)) if kind is dict else tuple(out)
        for k, want in spec.consts:
            if v.get(k) != want:
                raise ParseError(f" wants {want!r}, got {v.get(k)!r:.60}")
        for k, attr, item, default, ok in spec.fields:
            x = v.get(k, default)
            if ok is None or not ok(x):
                if x is ...:
                    raise ParseError(" is missing")
                x = _read(item, x)
            kw[attr] = x
    except ParseError as e:
        raise ParseError(f"{'.' + k if kind is _Record else [k]}{e}") from None
    try:
        return kw if spec.make is dict else spec.make(**kw)
    except ValueError as e:
        raise ParseError(f": {e}") from None


def _write(spec, v):
    kind = type(spec)
    if kind is _Record:
        get = v.__getitem__ if type(v) is dict else v.__getattribute__
        return dict(spec.consts, **{k: _write(item, get(attr))
                                    for k, attr, item, *_ in spec.fields})
    if kind is dict:
        return {str(k): _write(spec[_ID], x) for k, x in v.items()}
    return [_write(spec[0], x) for x in v] if kind is list else v


def _load(spec: _Record, kind: str, text: str):
    try:
        return _read(spec, json.loads(text))
    except ParseError as e:
        raise ParseError(f"{kind}{e}") from None
    except (ValueError, RecursionError) as e:   # from json.loads: not JSON
        raise ParseError(f"{kind} file is not JSON: {e}") from None


def _dump(spec: _Record, obj) -> str:
    return json.dumps(_write(spec, obj), sort_keys=True, indent=2, allow_nan=False) + "\n"


_INT = _Leaf("an integer", lambda v: type(v) is int and -2**63 <= v < 2**63)
_SIZE = _Leaf("an integer of at least 1", lambda v: type(v) is int and 1 <= v < 2**63)
_FLOAT = _Leaf("a finite number", lambda v: type(v) is float and math.isfinite(v)
               or type(v) is int and -2**63 <= v < 2**63)
_STR = _Leaf("a printable string", lambda v: type(v) is str and v.isprintable())
_STEM = _Leaf("a file stem", lambda v: _STR.ok(v) and "/" not in v)   # names solve output
_BOOL = _Leaf("true or false", lambda v: type(v) is bool)
_MODE = _Leaf("'ALL' or 'ANY'", lambda v: v == "ALL" or v == "ANY")
_TASK = _Leaf("1, 2 or 3", lambda v: type(v) is int and 1 <= v <= 3)


# --- constraint files --------------------------------------------------------

@dataclasses.dataclass(frozen=True)
class ConstraintFile:
    alignment_pairs: tuple[dict, ...] = ()   # {a, b, min_area_frac}
    groups: tuple[tuple[int, ...], ...] = ()
    boundary: tuple[dict, ...] = ()          # {block, terminals, mode}
    preplaced: tuple[dict, ...] = ()         # {block, x, y, z, w, h}
    layers: dict[int, int] = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        return _dump(_CONSTRAINT_FILE, self)

    @classmethod
    def from_json(cls, text: str) -> "ConstraintFile":
        return _load(_CONSTRAINT_FILE, "constraints", text)


# shared by constraint files and a circuit file's `constraints` member
_RECT = (("x", _INT), ("y", _INT), ("z", _INT), ("w", _SIZE), ("h", _SIZE))
_GROUPS = ("groups", [[_INT]], None, [])
_BOUNDARY = (("block", _INT), ("terminals", [_INT]), ("mode", _MODE, None, "ALL"))
_PREPLACED = (("block", _INT), *_RECT)

_CONSTRAINT_FILE = _record(
    ConstraintFile, _GROUPS, ("layers", {_ID: _INT}, None, {}),
    ("alignment_pairs", [_record(dict, ("a", _INT), ("b", _INT),
                                 ("min_area_frac", _FLOAT, None, 1.0))], None, []),
    ("boundary", [_record(dict, *_BOUNDARY)], None, []),
    ("preplaced", [_record(dict, *_PREPLACED)], None, []))
_CONSTRAINT_SET = _record(
    ConstraintSet, _GROUPS,
    ("alignment_pairs", [_record(AlignmentPair, ("a", _INT), ("b", _INT),
                                 ("min_area", _FLOAT))], None, []),
    ("boundary", [_record(BoundaryBinding, *_BOUNDARY)], "boundary_bindings", []),
    ("preplaced", [_record(Preplacement, *_PREPLACED)], "preplacements", []))


def apply_constraints(circuit: Circuit, cf: ConstraintFile) -> Circuit:
    """New circuit carrying the file's constraints; the layer map (if any)
    reassigns blocks first so the result validates as a whole.  A constraint
    naming a block the circuit lacks, or one it rejects, is a ParseError."""
    named = [*cf.layers, *(p[k] for p in cf.alignment_pairs for k in ("a", "b"))]
    missing = [b for b in named if not 0 <= b < circuit.num_blocks]
    if missing:
        raise ParseError(f"constraint file names block {missing[0]}, "
                         f"which the circuit lacks")
    blocks = circuit.blocks
    if cf.layers:
        blocks = tuple(
            dataclasses.replace(b, z=cf.layers.get(b.id, b.z)) for b in blocks)
    try:
        pairs = tuple(AlignmentPair(p["a"], p["b"], p["min_area_frac"] * min(
            blocks[p["a"]].area, blocks[p["b"]].area)) for p in cf.alignment_pairs)
        cons = ConstraintSet(
            alignment_pairs=pairs, groups=cf.groups,
            boundary_bindings=tuple(BoundaryBinding(**b) for b in cf.boundary),
            preplacements=tuple(Preplacement(**p) for p in cf.preplaced))
        return dataclasses.replace(circuit, blocks=blocks, constraints=cons)
    except ValueError as e:
        raise ParseError(f"constraints: {e}") from None


def gen_constraints(circuit: Circuit, counts, seed: int,
                    min_area_frac: float = 1.0) -> ConstraintFile:
    """Seeded constraint fabrication matching exact block counts.

    counts is (n_aln, n_tml, n_grp): blocks in alignment pairs, blocks
    bound to terminals, blocks in abutment groups.

    Pairs join area-adjacent blocks across neighboring layers with
    alternating orientation, keeping fill balanced.  Free blocks then land
    where they fix layer parity, because same-layer pairing needs an even
    block count per layer.  Bindings take the largest blocks and spread
    over boundary-hugging terminals by farthest-point selection; a pair
    bound at both ends shares a single terminal, since its members must
    overlap across layers anyway."""
    n_aln, n_tml, n_grp = counts
    n = circuit.num_blocks
    dims = circuit.dims
    if n_aln % 2 or n_grp % 2:
        raise InfeasibleError("alignment and grouping counts must be even")
    if min(n_aln, n_tml, n_grp) < 0:
        raise InfeasibleError("constraint counts cannot be negative")
    if max(n_aln, n_grp) > n or n_tml > n:
        raise InfeasibleError(f"counts exceed the {n} blocks available")
    if n_aln and dims.num_layers < 2:
        raise InfeasibleError("alignment pairs need at least two layers")
    if n_tml > len(circuit.terminals):
        raise InfeasibleError(
            f"{n_tml} bindings want more than the {len(circuit.terminals)} terminals")

    rng = np.random.default_rng(seed)
    order = sorted(range(n), key=lambda i: (-circuit.blocks[i].area, i))

    # alignment pairs over the largest blocks, area-adjacent therefore
    # size-compatible; orientation alternates to balance the layers
    pairs = [(order[2 * i], order[2 * i + 1]) for i in range(n_aln // 2)]
    layers: dict[int, int] = {}
    for k, (a, b) in enumerate(pairs):
        za = k % dims.num_layers
        zb = (k + 1) % dims.num_layers
        layers[a], layers[b] = za, zb

    free = [i for i in order if i not in layers]
    fill = [0.0] * dims.num_layers
    for bid, z in layers.items():
        fill[z] += circuit.blocks[bid].area
    count_z = [0] * dims.num_layers
    for z in layers.values():
        count_z[z] += 1
    for bid in free:
        odd = [z for z in range(dims.num_layers) if count_z[z] % 2]
        z = min(odd, key=lambda zz: fill[zz]) if odd else \
            min(range(dims.num_layers), key=lambda zz: (fill[zz], zz))
        layers[bid] = z
        count_z[z] += 1
        fill[z] += circuit.blocks[bid].area

    capacity = sum(2 * (c // 2) for c in count_z)
    if capacity < n_grp:
        raise InfeasibleError(
            f"cannot form {n_grp // 2} same-layer groups: layer parity "
            f"caps grouped blocks at {capacity}")

    # groups: even quota per layer, biggest blocks first, paired by rank
    groups: list[tuple[int, int]] = []
    remaining = n_grp
    for z in range(dims.num_layers):
        if remaining <= 0:
            break
        members = [i for i in order if layers[i] == z]
        quota = min(2 * (len(members) // 2), remaining)
        for j in range(0, quota, 2):
            groups.append((members[j], members[j + 1]))
        remaining -= quota

    # bindings: the n_tml largest blocks, so every bound block places onto
    # a near-empty die and reaches its terminal without relaxation; a pair
    # with both members bound shares one terminal, stacking across layers
    bound = order[:n_tml]
    pair_index = {}
    for k, (a, b) in enumerate(pairs):
        pair_index[a] = pair_index[b] = k
    anchor_groups: list[list[int]] = []
    group_of: dict[int, int] = {}
    for blk in bound:
        k = pair_index.get(blk)
        mate = None
        if k is not None:
            a, b = pairs[k]
            mate = b if blk == a else a
        if mate in group_of:
            anchor_groups[group_of[mate]].append(blk)
            group_of[blk] = group_of[mate]
        else:
            group_of[blk] = len(anchor_groups)
            anchor_groups.append([blk])

    bindings = []
    if n_tml:
        g = len(anchor_groups)
        # terminals nearest the die's rim first
        rim_sorted = sorted(circuit.terminals, key=lambda t: (
            int(rim_distance(0, 0, dims.width, dims.height, t.x, t.y)), t.id))
        candidates = rim_sorted[:max(g, min(len(rim_sorted), 3 * g))]
        pts = [(t.x, t.y) for t in candidates]
        picks = farthest_point_subset(pts, g,
                                      start=int(rng.integers(len(pts))))
        for members, idx in zip(anchor_groups, picks):
            for blk in members:
                bindings.append({"block": blk,
                                 "terminals": (candidates[idx].id,),
                                 "mode": "ALL"})
        bindings.sort(key=lambda b: b["block"])

    cf = ConstraintFile(
        alignment_pairs=tuple({"a": a, "b": b, "min_area_frac": min_area_frac}
                              for a, b in pairs),
        groups=tuple(groups),
        boundary=tuple(bindings),
        preplaced=(),
        layers=dict(sorted(layers.items())),
    )
    apply_constraints(circuit, cf)       # self-check: must validate
    return cf


def synth_instance(name: str, seed: int, *, n_blocks: int = 12,
                   n_terminals: int = 12, counts=(10, 5, 10),
                   dims: GridDims = GridDims(32, 32, 2),
                   fill: float = 0.35) -> tuple[Circuit, ConstraintFile]:
    """Seeded benchmark instance whose nets track the constraint structure.

    The block and terminal skeleton comes from synth_circuit and the rules
    from gen_constraints; the nets are then rebuilt to match.  Each
    alignment pair shares a net with whatever terminals its members are
    bound to, and every block outside the pairs pulls toward a spare
    terminal of its own, plus two small random nets as noise.  Nets drawn
    blind instead leave the wire pull uncorrelated with the rules, so
    unrelated blocks squat on boundary corners and pair shadows before
    their owners arrive.

    Returns the circuit with constraints already applied, and the
    constraint file itself.
    """
    base = synth_circuit(name, n_blocks, n_terminals, seed=seed, dims=dims,
                         fill=fill)
    cf = gen_constraints(base, counts, seed=seed + 1)
    bound = {b["block"]: tuple(b["terminals"]) for b in cf.boundary}

    rng = np.random.default_rng(seed + 2)
    used = {t for tids in bound.values() for t in tids}
    paired = {p[k] for p in cf.alignment_pairs for k in ("a", "b")}
    rest = [i for i in range(n_blocks) if i not in paired and i not in bound]
    unbound_pairs = sum(1 for p in cf.alignment_pairs
                        if p["a"] not in bound and p["b"] not in bound)
    n_spare = unbound_pairs + len(rest)
    # spare terminals continue the farthest-point chain away from the
    # binding corners, or bound blocks sprawl over the pairs' pull targets
    term_pts = [(t.x, t.y) for t in base.terminals]
    taken = tuple(i for i, t in enumerate(base.terminals) if t.id in used)
    avail = len(term_pts) - len(taken)
    spare: list[int] = []
    if n_spare and avail:
        k = min(n_spare, avail)
        picks = farthest_point_subset(
            term_pts, k, start=int(rng.integers(len(term_pts))), taken=taken)
        spare = [base.terminals[i].id for i in picks]
    spare_at = 0

    def next_spare():
        nonlocal spare_at
        if not spare:
            return ()
        tid = spare[spare_at % len(spare)]
        spare_at += 1
        return (tid,)

    # a pair always pulls toward some terminal, else both members start
    # with no placed pin and fall back to packing at the origin
    nets = []
    covered = set()
    for p in cf.alignment_pairs:
        a, b = p["a"], p["b"]
        tids = tuple(sorted({*bound.get(a, ()), *bound.get(b, ())}))
        if not tids:
            tids = next_spare()
        nets.append(Net(blocks=(min(a, b), max(a, b)), terminals=tids))
        covered.update((a, b))
    for blk in sorted(bound):
        if blk not in covered:
            nets.append(Net(blocks=(blk,), terminals=bound[blk]))
            covered.add(blk)
    for blk in rest:
        nets.append(Net(blocks=(blk,), terminals=next_spare()))

    for _ in range(2):
        deg = int(rng.integers(2, min(4, n_blocks) + 1))
        members = sorted(int(x) for x in
                         rng.choice(n_blocks, size=deg, replace=False))
        nets.append(Net(blocks=tuple(members)))

    circuit = dataclasses.replace(base, nets=tuple(nets))
    return apply_constraints(circuit, cf), cf


# --- circuit files ---------------------------------------------------------

_CIRCUIT = _record(
    Circuit, ("name", _STEM), ("utilization", _FLOAT, None, 0.80),
    ("dims", _record(GridDims, ("width", _SIZE), ("height", _SIZE),
                     ("layers", _SIZE, "num_layers"))),
    ("blocks", [_record(Block, ("id", _INT), ("name", _STR), ("area", _SIZE),
                        ("w", _SIZE), ("h", _SIZE), ("ar_min", _FLOAT),
                        ("ar_max", _FLOAT), ("soft", _BOOL, "is_soft"), ("z", _INT))]),
    ("terminals", [_record(Terminal, ("id", _INT), ("name", _STR), ("x", _INT),
                           ("y", _INT), ("z", _INT))]),
    ("nets", [_record(Net, ("blocks", [_INT]), ("terminals", [_INT]))]),
    ("constraints", _CONSTRAINT_SET, None, {}),
    consts=(("format", "stackfp-circuit-1"), ("quantization", QUANTIZATION)))


def circuit_to_json(circuit: Circuit) -> str:
    return _dump(_CIRCUIT, circuit)


def circuit_from_json(text: str) -> Circuit:
    return _load(_CIRCUIT, "circuit", text)


# --- placement files -------------------------------------------------------

def mask_csv(values: np.ndarray) -> str:
    """Mask grid as CSV in raster order: line i is row y=i, one column per
    x, each cell %.6f."""
    arr = np.asarray(values, dtype=float)
    lines = []
    for y in range(arr.shape[1]):
        lines.append(",".join(f"{arr[x, y]:.6f}" for x in range(arr.shape[0])))
    return "\n".join(lines) + "\n"


def mask_pgm(values: np.ndarray) -> str:
    """Mask grid as 8-bit ASCII PGM, min-max scaled; a constant mask has
    nothing to scale and renders black."""
    arr = np.asarray(values, dtype=float)
    lo, hi = float(arr.min()), float(arr.max())
    if hi > lo:
        gray = np.rint((arr - lo) / (hi - lo) * 255).astype(int)
    else:
        gray = np.zeros(arr.shape, dtype=int)
    w, h = arr.shape
    lines = ["P2", f"{w} {h}", "255"]
    for y in range(h):
        lines.append(" ".join(str(gray[x, y]) for x in range(w)))
    return "\n".join(lines) + "\n"


_PLACEMENT = _record(
    lambda header, blocks: (header, blocks),
    ("header", _record(dict, ("circuit", _STR), ("task", _TASK), ("solver", _STR),
                       ("seed", _INT), ("width", _SIZE), ("height", _SIZE),
                       ("layers", _SIZE))),
    ("blocks", [_record(dict, ("id", _INT), *_RECT)]),
    consts=(("format", "stackfp-placement-1"),))


def placement_to_json(state, circuit_name: str, task: int, solver: str,
                      seed: int) -> str:
    dims = state.circuit.dims
    header = dict(circuit=circuit_name, task=task, solver=solver, seed=seed,
                  width=dims.width, height=dims.height, layers=dims.num_layers)
    rows = [dict(id=i, x=x, y=y, z=state.circuit.blocks[i].z, w=w, h=h)
            for i in state.placed_ids() for x, y, w, h in (state.rect(i),)]
    return _dump(_PLACEMENT, {"header": header, "blocks": rows})


def placement_from_json(text: str) -> tuple[dict, tuple[dict, ...]]:
    """Header dict and per-block rows; pair with a circuit to rebuild state."""
    return _load(_PLACEMENT, "placement", text)


def state_from_placement(circuit: Circuit, rows) -> FloorplanState:
    """Force a FloorplanState into the recorded geometry (shapes included); a
    row with an unknown or repeated block, off its layer or outline, or in a
    shape that cannot stand for its block (`shape_fault`), is a ParseError."""
    state = FloorplanState(circuit)
    n, dims = circuit.num_blocks, circuit.dims
    for row in rows:
        bid, x, y, w, h = row["id"], row["x"], row["y"], row["w"], row["h"]
        if not 0 <= bid < n:
            raise ParseError(f"placement row names block {bid}, circuit has 0..{n - 1}")
        if state.placed[bid]:
            raise ParseError(f"placement lists block {bid} twice")
        if row["z"] != circuit.blocks[bid].z:
            raise ParseError(f"placement moves block {bid} off layer {circuit.blocks[bid].z}")
        if not dims.holds(x, y, w, h):
            raise ParseError(f"placement block {bid} leaves the {dims.width}x{dims.height} outline")
        if fault := shape_fault(circuit.blocks[bid], w, h):
            raise ParseError(f"placement block {bid}: {fault}")
        state.w[bid], state.h[bid] = w, h
        state.place(bid, x, y)
    state.cursor = len(state.order)      # treat as a finished episode
    return state
