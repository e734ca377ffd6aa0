"""Bookshelf-style benchmark ingestion and synthetic circuit generation.

The text formats follow the common GSRC conventions: a blocks file with
`softrectangular` / `hardrectilinear` / `terminal` lines, a nets file of
`NetDegree` sections, and a pl file fixing terminal coordinates.  Benchmark
geometry is continuous, so loading quantizes every block onto the cell grid:
all areas are scaled by one common factor chosen so the total lands exactly
on the utilization target, hard blocks keep their aspect by side-scaling,
and soft blocks absorb the remainder by largest-remainder apportionment
(quantization scheme "proportional-v1", named in the circuit file header).
"""

import math
import re

import numpy as np

from .core import (
    Block,
    Circuit,
    FloorplanError,
    GridDims,
    Net,
    Terminal,
    shape_from_ar,
)

QUANTIZATION = "proportional-v1"

DEFAULT_AR_MIN = 0.5
DEFAULT_AR_MAX = 2.0


class ParseError(FloorplanError):
    def __init__(self, message: str, line: int | None = None):
        prefix = f"line {line}: " if line is not None else ""
        super().__init__(prefix + message)
        self.line = line


def _content_lines(text: str):
    """Yield (line_number, line) skipping blanks, comments and headers."""
    for i, raw in enumerate(text.splitlines(), start=1):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if line.startswith(("UCSC", "UCLA")):
            continue
        yield i, line


_KEYWORD = re.compile(r"^\s*\w[\w ]*:\s*\S")
# name, kind, declared vertex count, then nothing but parenthesized vertices
_VERTICES = re.compile(r"\S+\s+hardrectilinear\s+(\d+)((?:\s*\([^()]*\))*)")


def _number(text: str, line: str, ln: int) -> float:
    """A number of a benchmark file: finite, and below 1e100 in magnitude so
    that the areas, products and sums of quantization stay finite."""
    try:
        v = float(text)
    except ValueError:
        v = math.nan
    if not abs(v) < 1e100:
        raise ParseError(f"bad number {text!r} in {line!r}", ln)
    return v


def parse_blocks_text(text: str):
    """Raw block and terminal declarations.

    Returns (blocks, terminals) where blocks maps name -> dict with kind
    "soft" (area, ar_min, ar_max) or "hard" (w, h), in declaration order."""
    blocks: dict[str, dict] = {}
    terminals: list[str] = []
    for ln, line in _content_lines(text):
        if _KEYWORD.match(line) and "(" not in line:
            continue                      # NumSoftRectangularBlocks : 3 etc.
        tokens = line.split()
        name = tokens[0]
        if not name.isprintable():          # as the JSON readers require
            raise ParseError(f"name {name!r} is not printable", ln)
        if name in blocks or name in terminals:
            raise ParseError(f"duplicate declaration of {name!r}", ln)
        if len(tokens) < 2:
            raise ParseError(f"unreadable declaration {line!r}", ln)
        kind = tokens[1]
        if kind == "terminal":
            terminals.append(name)
        elif kind == "softrectangular":
            if len(tokens) != 5:
                raise ParseError(
                    f"softrectangular wants area, min and max ratio: {line!r}", ln)
            area, ar_min, ar_max = (_number(t, line, ln) for t in tokens[2:])
            if area <= 0 or not (0 < ar_min <= ar_max):
                raise ParseError(f"degenerate soft block {name!r}", ln)
            blocks[name] = {"kind": "soft", "area": area,
                            "ar_min": ar_min, "ar_max": ar_max}
        elif kind == "hardrectilinear":
            head = _VERTICES.fullmatch(line)
            verts = re.findall(r"\(([^()]*)\)", head[2]) if head else []
            if head is None or len(verts) != int(head[1]) or len(verts) < 3:
                raise ParseError(
                    f"hardrectilinear wants a count, then that many vertices: {line!r}", ln)
            verts = [v.split(",") for v in verts]
            if any(len(v) != 2 for v in verts):
                raise ParseError(f"hardrectilinear vertex wants two numbers: {line!r}", ln)
            xs = [_number(a.strip(), line, ln) for a, _ in verts]
            ys = [_number(b.strip(), line, ln) for _, b in verts]
            w, h = max(xs) - min(xs), max(ys) - min(ys)
            if w <= 0 or h <= 0:
                raise ParseError(f"degenerate hard block {name!r}", ln)
            blocks[name] = {"kind": "hard", "w": w, "h": h}
        else:
            raise ParseError(f"unknown block kind {kind!r}", ln)
    return blocks, terminals


def parse_nets_text(text: str) -> list[list[str]]:
    """Member-name lists, one per NetDegree section."""
    nets: list[list[str]] = []
    expected = header = 0                 # the last net's degree and line

    def check_last():
        if nets and len(nets[-1]) != expected:
            raise ParseError(
                f"net has {len(nets[-1])} members, expected {expected}", header)

    for ln, line in _content_lines(text):
        m = re.match(r"NetDegree\s*:\s*(\d+)", line)
        if m:
            check_last()
            nets.append([])
            expected, header = int(m.group(1)), ln
            continue
        if _KEYWORD.match(line):
            continue                      # NumNets / NumPins headers
        if not nets:
            raise ParseError(f"member line before any NetDegree: {line!r}", ln)
        nets[-1].append(line.split()[0])
    check_last()
    return nets


def parse_pl_text(text: str) -> dict[str, tuple[float, float]]:
    coords: dict[str, tuple[float, float]] = {}
    for ln, line in _content_lines(text):
        if _KEYWORD.match(line):
            continue
        tokens = line.split()
        if len(tokens) < 3:
            raise ParseError(f"pl line wants name x y: {line!r}", ln)
        coords[tokens[0]] = (_number(tokens[1], line, ln), _number(tokens[2], line, ln))
    return coords


def apportion(total: int, weights) -> list[int]:
    """Integer shares proportional to weights, each at least 1, summing
    exactly to `total` (largest-remainder rounding)."""
    n = len(weights)
    if total < n:
        raise ValueError(f"cannot apportion {total} into {n} shares of >= 1")
    wsum = float(sum(weights))
    if wsum <= 0:
        raise ValueError("weights must have positive sum")
    raw = [total * float(w) / wsum for w in weights]
    shares = [max(1, math.floor(r)) for r in raw]
    rem = total - sum(shares)
    if rem < 0:                      # minimums overshot; trim largest shares
        order = sorted(range(n), key=lambda i: (-shares[i], i))
        k = 0
        while rem < 0:
            i = order[k % n]
            if shares[i] > 1:
                shares[i] -= 1
                rem += 1
            k += 1
    else:
        frac = sorted(range(n), key=lambda i: (-(raw[i] - math.floor(raw[i])), i))
        for j in range(rem):
            shares[frac[j % n]] += 1
    return shares


def _assign_layers(areas: list[int], num_layers: int) -> list[int]:
    """Biggest block to the emptiest layer; plain round-robin can push one
    layer past its cell capacity when areas are lopsided."""
    order = sorted(range(len(areas)), key=lambda i: (-areas[i], i))
    z = [0] * len(areas)
    fill = [0] * num_layers
    for i in order:
        target = min(range(num_layers), key=lambda zz: (fill[zz], zz))
        z[i] = target
        fill[target] += areas[i]
    return z


def parse_circuit(blocks_text: str, nets_text: str, pl_text: str,
                  dims: GridDims = GridDims(128, 128, 2),
                  utilization: float = 0.80,
                  name: str = "circuit") -> Circuit:
    """Quantize a bookshelf benchmark onto the grid.

    Scaling is proportional: the common factor maps the summed raw areas to
    floor(utilization * cells); hard blocks scale each side by its square
    root (rounded, floor 1), soft blocks split what remains exactly."""
    raw_blocks, term_names = parse_blocks_text(blocks_text)
    if not raw_blocks:
        raise ParseError("no blocks declared")
    net_members = parse_nets_text(nets_text)
    pl = parse_pl_text(pl_text)

    names = list(raw_blocks)
    raw_area = {n: (raw_blocks[n]["area"] if raw_blocks[n]["kind"] == "soft"
                    else raw_blocks[n]["w"] * raw_blocks[n]["h"])
                for n in names}
    target = math.floor(utilization * dims.width * dims.height * dims.num_layers)
    soft_names = [n for n in names if raw_blocks[n]["kind"] == "soft"]
    hard_names = [n for n in names if raw_blocks[n]["kind"] == "hard"]

    total_raw = sum(raw_area.values())
    scale = target / total_raw
    side = math.sqrt(scale)
    # hard blocks must leave soft blocks at least one cell each; back the
    # common factor off in small steps when rounding overshoots
    for _ in range(200):
        hard_wh = {n: (max(1, round(raw_blocks[n]["w"] * side)),
                       max(1, round(raw_blocks[n]["h"] * side)))
                   for n in hard_names}
        hard_total = sum(w * h for w, h in hard_wh.values())
        if hard_total + len(soft_names) <= target:
            break
        side *= 0.98
    else:
        raise ParseError("hard blocks cannot be scaled onto the grid")

    soft_area: dict[str, int] = {}
    if soft_names:
        soft_area = dict(zip(soft_names, apportion(
            target - hard_total, [raw_area[n] for n in soft_names])))

    areas = [soft_area[n] if n in soft_area else
             hard_wh[n][0] * hard_wh[n][1] for n in names]
    layer = _assign_layers(areas, dims.num_layers)

    blocks = []
    for i, n in enumerate(names):
        spec = raw_blocks[n]
        if spec["kind"] == "soft":
            w, h = shape_from_ar(soft_area[n], 1.0, spec["ar_min"], spec["ar_max"])
            blocks.append(Block(i, n, soft_area[n], w, h,
                                spec["ar_min"], spec["ar_max"], True, layer[i]))
        else:
            w, h = hard_wh[n]
            blocks.append(Block(i, n, w * h, w, h, 1.0, 1.0, False, layer[i]))

    term_xy = [pl.get(n) for n in term_names]
    known = [xy for xy in term_xy if xy is not None]
    if term_names and not known:
        raise ParseError("terminals declared but none placed in the pl file")
    if known:
        xs = [p[0] for p in known]
        ys = [p[1] for p in known]
        span_x = max(xs) - min(xs)
        span_y = max(ys) - min(ys)

        def to_grid(p):
            gx = 0 if span_x == 0 else round((p[0] - min(xs)) / span_x * (dims.width - 1))
            gy = 0 if span_y == 0 else round((p[1] - min(ys)) / span_y * (dims.height - 1))
            return int(gx), int(gy)

    terminals = []
    for i, n in enumerate(term_names):
        if term_xy[i] is None:
            raise ParseError(f"terminal {n!r} has no pl coordinates")
        gx, gy = to_grid(term_xy[i])
        terminals.append(Terminal(i, n, gx, gy, 0))

    block_id = {n: i for i, n in enumerate(names)}
    term_id = {n: i for i, n in enumerate(term_names)}
    nets = []
    for members in net_members:
        bids, tids = [], []
        for m in members:
            if m in block_id:
                if block_id[m] not in bids:
                    bids.append(block_id[m])
            elif m in term_id:
                if term_id[m] not in tids:
                    tids.append(term_id[m])
            else:
                raise ParseError(f"net references undeclared symbol {m!r}")
        if bids or tids:
            nets.append(Net(blocks=tuple(bids), terminals=tuple(tids)))

    try:
        return Circuit(name, dims, tuple(blocks), tuple(terminals), tuple(nets),
                       utilization=utilization)
    except ValueError as e:
        raise ParseError(str(e)) from None


def boundary_cells(dims: GridDims) -> list[tuple[int, int]]:
    """Perimeter cells clockwise from the origin."""
    w, h = dims.width, dims.height
    cells = [(x, 0) for x in range(w)]
    cells += [(w - 1, y) for y in range(1, h)]
    cells += [(x, h - 1) for x in range(w - 2, -1, -1)]
    cells += [(0, y) for y in range(h - 2, 0, -1)]
    return cells


def farthest_point_subset(points: list[tuple[int, int]], k: int,
                          start: int = 0, taken: tuple[int, ...] = ()
                          ) -> list[int]:
    """Indices of k points spread out by greedy farthest-point selection
    under Manhattan distance; ties go to the lower index.

    Indices in `taken` count as already chosen without being returned or
    re-picked, so a second call can spread new points away from an earlier
    selection.  With `taken` empty the first pick is `start`."""
    taken = tuple(dict.fromkeys(taken))
    if k > len(points) - len(taken):
        raise ValueError(
            f"cannot pick {k} of {len(points)} points ({len(taken)} taken)")

    def span(a, b):
        return abs(a[0] - b[0]) + abs(a[1] - b[1])

    blocked = set(taken)
    chosen: list[int] = []
    if taken:
        dist = [min(span(p, points[t]) for t in taken) for p in points]
    else:
        chosen.append(start)
        blocked.add(start)
        dist = [span(p, points[start]) for p in points]
    while len(chosen) < k:
        nxt = max((i for i in range(len(points)) if i not in blocked),
                  key=lambda i: (dist[i], -i))
        chosen.append(nxt)
        blocked.add(nxt)
        for i, p in enumerate(points):
            d = span(p, points[nxt])
            if d < dist[i]:
                dist[i] = d
    return chosen


def synth_circuit(name: str, n_blocks: int, n_terminals: int, seed: int,
                  dims: GridDims = GridDims(32, 32, 2),
                  fill: float = 0.45) -> Circuit:
    """Seeded synthetic skeleton without nets: lognormal block areas
    filling `fill` of the grid, about 70% of them soft, and terminals
    spread along the boundary."""
    if n_blocks < 1:
        raise ValueError("need at least one block")
    rng = np.random.default_rng(seed)
    target = math.floor(fill * dims.width * dims.height * dims.num_layers)
    weights = rng.lognormal(mean=0.0, sigma=0.6, size=n_blocks)
    areas = apportion(target, list(weights))
    is_soft = rng.random(n_blocks) < 0.7
    layer = _assign_layers(areas, dims.num_layers)

    blocks = []
    for i in range(n_blocks):
        if is_soft[i]:
            w, h = shape_from_ar(areas[i], 1.0, DEFAULT_AR_MIN, DEFAULT_AR_MAX)
            blocks.append(Block(i, f"b{i}", areas[i], w, h,
                                DEFAULT_AR_MIN, DEFAULT_AR_MAX, True, layer[i]))
        else:
            w = max(1, round(math.sqrt(areas[i])))
            h = max(1, math.ceil(areas[i] / w))
            blocks.append(Block(i, f"b{i}", w * h, w, h, 1.0, 1.0, False, layer[i]))

    rim = boundary_cells(dims)
    if n_terminals > len(rim):
        raise ValueError("more terminals than boundary cells")
    terminals = []
    if n_terminals:
        picks = farthest_point_subset(rim, n_terminals,
                                      start=int(rng.integers(len(rim))))
        for i, idx in enumerate(picks):
            x, y = rim[idx]
            terminals.append(Terminal(i, f"p{i}", x, y, 0))

    return Circuit(name, dims, tuple(blocks), tuple(terminals), ())
