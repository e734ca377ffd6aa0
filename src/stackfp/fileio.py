"""JSON file formats and the seeded constraint generator.

Three documents, all serialized with sorted keys and two-space indents so
that load -> save is byte-stable:

* circuit files: the full quantized instance, including the quantization
  scheme name in the header;
* constraint files: alignment pairs (with the min-area fraction), abutment
  groups, boundary bindings, preplacements, and a full block-to-layer map;
* placement files: solver output, one rect per block plus a small header.

The generator fabricates constraint sets matching requested counts, where
the alignment and grouping counts tally blocks, not instances (ten aligned
blocks means five pairs).  Bindings go to the largest blocks: they place
early, grab their terminal before the die crowds, and so keep the
relaxation ladder quiet.
"""

import contextlib
import dataclasses
import json
import math

import numpy as np

from .core import (
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    GridDims,
    InfeasibleError,
    Net,
    Preplacement,
    Terminal,
)
from .bookshelf import QUANTIZATION, ParseError, farthest_point_subset, synth_circuit
from .geometry import rim_distance


@contextlib.contextmanager
def _document(kind: str):
    """Report a missing key or a member of the wrong type met while reading
    a JSON document as a ParseError naming the document."""
    try:
        yield
    except KeyError as e:
        raise ParseError(f"{kind} file lacks key {e}") from None
    except (TypeError, AttributeError) as e:
        raise ParseError(f"{kind} file has a member of the wrong type: {e}") from None


@dataclasses.dataclass(frozen=True)
class ConstraintFile:
    alignment_pairs: tuple[dict, ...] = ()   # {a, b, min_area_frac}
    groups: tuple[tuple[int, ...], ...] = ()
    boundary: tuple[dict, ...] = ()          # {block, terminals, mode}
    preplaced: tuple[dict, ...] = ()         # {block, x, y, z, w, h}
    layers: dict[int, int] = dataclasses.field(default_factory=dict)

    def to_json(self) -> str:
        doc = {
            "alignment_pairs": [dict(p) for p in self.alignment_pairs],
            "groups": [list(g) for g in self.groups],
            "boundary": [dict(b) for b in self.boundary],
            "preplaced": [dict(p) for p in self.preplaced],
            "layers": {str(k): v for k, v in sorted(self.layers.items())},
        }
        return json.dumps(doc, sort_keys=True, indent=2) + "\n"

    @classmethod
    def from_json(cls, text: str) -> "ConstraintFile":
        doc = json.loads(text)
        with _document("constraint"):
            return cls(
                alignment_pairs=tuple(
                    {"a": int(p["a"]), "b": int(p["b"]),
                     "min_area_frac": float(p.get("min_area_frac", 1.0))}
                    for p in doc.get("alignment_pairs", ())),
                groups=tuple(tuple(int(b) for b in g)
                             for g in doc.get("groups", ())),
                boundary=tuple(
                    {"block": int(b["block"]),
                     "terminals": [int(t) for t in b["terminals"]],
                     "mode": str(b.get("mode", "ALL"))}
                    for b in doc.get("boundary", ())),
                preplaced=tuple(
                    {k: int(p[k]) for k in ("block", "x", "y", "z", "w", "h")}
                    for p in doc.get("preplaced", ())),
                layers={int(k): int(v) for k, v in doc.get("layers", {}).items()},
            )


def apply_constraints(circuit: Circuit, cf: ConstraintFile) -> Circuit:
    """New circuit carrying the file's constraints; the layer map (if any)
    reassigns blocks first so the result validates as a whole.  A layer-map
    entry or an alignment pair naming a block the circuit lacks is a
    ParseError."""
    by_id = {b.id: b for b in circuit.blocks}
    named = [*cf.layers, *(p[k] for p in cf.alignment_pairs for k in ("a", "b"))]
    missing = [b for b in named if b not in by_id]
    if missing:
        raise ParseError(f"constraint file names block {missing[0]}, "
                         f"which the circuit lacks")
    blocks = circuit.blocks
    if cf.layers:
        blocks = tuple(
            dataclasses.replace(b, z=cf.layers.get(b.id, b.z)) for b in blocks)
    pairs = tuple(
        AlignmentPair(p["a"], p["b"],
                      p["min_area_frac"] * min(by_id[p["a"]].area,
                                               by_id[p["b"]].area))
        for p in cf.alignment_pairs)
    bindings = tuple(
        BoundaryBinding(b["block"], tuple(b["terminals"]), b["mode"])
        for b in cf.boundary)
    pres = tuple(
        Preplacement(p["block"], p["x"], p["y"], p["z"], p["w"], p["h"])
        for p in cf.preplaced)
    cons = ConstraintSet(alignment_pairs=pairs, groups=cf.groups,
                         boundary_bindings=bindings, preplacements=pres)
    return Circuit(circuit.name, circuit.dims, blocks, circuit.terminals,
                   circuit.nets, cons, circuit.utilization)


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
                                 "terminals": [candidates[idx].id],
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
    base = synth_circuit(name, n_blocks, n_terminals, 0, seed=seed, dims=dims,
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

def circuit_to_json(circuit: Circuit) -> str:
    doc = {
        "format": "stackfp-circuit-1",
        "quantization": QUANTIZATION,
        "name": circuit.name,
        "dims": {"width": circuit.dims.width, "height": circuit.dims.height,
                 "layers": circuit.dims.num_layers},
        "utilization": circuit.utilization,
        "blocks": [
            {"id": b.id, "name": b.name, "area": b.area, "w": b.w, "h": b.h,
             "ar_min": b.ar_min, "ar_max": b.ar_max, "soft": b.is_soft,
             "z": b.z}
            for b in circuit.blocks],
        "terminals": [
            {"id": t.id, "name": t.name, "x": t.x, "y": t.y, "z": t.z}
            for t in circuit.terminals],
        "nets": [
            {"blocks": list(n.blocks), "terminals": list(n.terminals)}
            for n in circuit.nets],
        "constraints": _constraints_to_doc(circuit.constraints),
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def _constraints_to_doc(cons: ConstraintSet) -> dict:
    return {
        "alignment_pairs": [
            {"a": p.a, "b": p.b, "min_area": p.min_area}
            for p in cons.alignment_pairs],
        "groups": [list(g) for g in cons.groups],
        "boundary": [
            {"block": b.block, "terminals": list(b.terminals), "mode": b.mode}
            for b in cons.boundary_bindings],
        "preplaced": [
            {"block": p.block, "x": p.x, "y": p.y, "z": p.z, "w": p.w, "h": p.h}
            for p in cons.preplacements],
    }


def _constraints_from_doc(doc: dict) -> ConstraintSet:
    return ConstraintSet(
        alignment_pairs=tuple(
            AlignmentPair(int(p["a"]), int(p["b"]), float(p["min_area"]))
            for p in doc.get("alignment_pairs", ())),
        groups=tuple(tuple(int(b) for b in g) for g in doc.get("groups", ())),
        boundary_bindings=tuple(
            BoundaryBinding(int(b["block"]), tuple(int(t) for t in b["terminals"]),
                            str(b["mode"]))
            for b in doc.get("boundary", ())),
        preplacements=tuple(
            Preplacement(*(int(p[k]) for k in ("block", "x", "y", "z", "w", "h")))
            for p in doc.get("preplaced", ())),
    )


def circuit_from_json(text: str) -> Circuit:
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "stackfp-circuit-1":
        raise ValueError("not a circuit file")
    with _document("circuit"):
        dims = GridDims(doc["dims"]["width"], doc["dims"]["height"],
                        doc["dims"]["layers"])
        blocks = tuple(
            Block(int(b["id"]), b["name"], int(b["area"]), int(b["w"]),
                  int(b["h"]), float(b["ar_min"]), float(b["ar_max"]),
                  bool(b["soft"]), int(b["z"]))
            for b in doc["blocks"])
        terminals = tuple(
            Terminal(int(t["id"]), t["name"], int(t["x"]), int(t["y"]),
                     int(t["z"]))
            for t in doc["terminals"])
        nets = tuple(
            Net(blocks=tuple(int(b) for b in n["blocks"]),
                terminals=tuple(int(t) for t in n["terminals"]))
            for n in doc["nets"])
        cons = _constraints_from_doc(doc.get("constraints", {}))
        name, utilization = doc["name"], float(doc.get("utilization", 0.80))
    return Circuit(name, dims, blocks, terminals, nets, cons,
                   utilization=utilization)


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


def placement_to_json(state, circuit_name: str, task: int, solver: str,
                      seed: int) -> str:
    dims = state.circuit.dims
    doc = {
        "format": "stackfp-placement-1",
        "header": {"circuit": circuit_name, "task": task, "solver": solver,
                   "seed": seed, "width": dims.width, "height": dims.height,
                   "layers": dims.num_layers},
        "blocks": [
            {"id": i, "x": r[0], "y": r[1], "z": state.circuit.blocks[i].z,
             "w": r[2], "h": r[3]}
            for i in sorted(state.placed_ids())
            for r in (state.rect(i),)],
    }
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


_PLACEMENT_HEADER = {"width": int, "height": int, "layers": int, "task": int,
                     "solver": str, "seed": int}


def placement_from_json(text: str) -> tuple[dict, list[dict]]:
    """Header dict and per-block rows; pair with a circuit to rebuild state.
    The header must carry the fields `stackfp eval` reads, with their types."""
    doc = json.loads(text)
    if not isinstance(doc, dict) or doc.get("format") != "stackfp-placement-1":
        raise ValueError("not a placement file")
    header, rows = doc.get("header"), doc.get("blocks")
    if not (isinstance(header, dict) and all(
            type(header.get(k)) is t for k, t in _PLACEMENT_HEADER.items())):
        raise ParseError("placement header needs integer width, height, "
                         "layers, task and seed and a string solver")
    if not isinstance(rows, list):
        raise ParseError("placement file needs a list of blocks")
    return header, rows


def state_from_placement(circuit: Circuit, rows: list[dict]):
    """Force a FloorplanState into the recorded geometry (shapes included).
    Malformed rows raise ParseError."""
    from .core import FloorplanState
    state = FloorplanState(circuit)
    n = circuit.num_blocks
    keys = ("id", "x", "y", "z", "w", "h")
    for row in rows:
        if not (isinstance(row, dict) and all(
                type(row.get(k)) is int for k in keys)):
            raise ParseError(f"placement row {row!r} needs integer {', '.join(keys)}")
        bid = row["id"]
        if not 0 <= bid < n:
            raise ParseError(f"placement row names block {bid}, circuit has 0..{n - 1}")
        if state.placed[bid]:
            raise ParseError(f"placement lists block {bid} twice")
        if row["z"] != circuit.blocks[bid].z:
            raise ParseError(f"placement puts block {bid} on layer {row['z']}, "
                             f"circuit has it on {circuit.blocks[bid].z}")
        state.w[bid] = row["w"]
        state.h[bid] = row["h"]
        state.place(bid, row["x"], row["y"])
    state.cursor = len(state.order)      # treat as a finished episode
    return state
