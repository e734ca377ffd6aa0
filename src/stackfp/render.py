"""Layer-by-layer SVG rendering of floorplan states.

One panel per layer, blocks as labeled rectangles, terminals as dots.
Alignment pairs are judged against the satisfaction threshold and both
partner rectangles carry a `satisfied` or `violated` class, so the inline
stylesheet colors conforming pairs green and broken ones red.  Pairs with an
unplaced member stay unclassified: a partial state has nothing to judge yet.

Output is deterministic: elements appear in layer then id order and no
coordinate depends on float formatting quirks (everything is an integer
multiple of the cell size).
"""

import xml.etree.ElementTree as ET

from .core import FloorplanState
from .metrics import alignment_passes

MARGIN = 16             # pixels around the panels
GAP = 24                # pixels between layer panels

_STYLE = """
  .die { fill: #ffffff; stroke: #444444; }
  .block { fill: #c7d4e8; stroke: #333333; }
  .block.soft { fill: #d9e6c8; }
  .block.satisfied { fill: #9ed49b; }
  .block.violated { fill: #e89c94; }
  .terminal { fill: #222222; }
  .label { font: 10px sans-serif; text-anchor: middle; fill: #111111; }
  .title { font: 11px sans-serif; fill: #111111; }
"""


def _pair_classes(state: FloorplanState) -> dict[int, str]:
    """Block id -> satisfied/violated, judging every fully placed pair; a
    block sits in at most one pair."""
    circuit = state.circuit
    passes = alignment_passes(state)
    live = state.placed[circuit.index.pairs].all(axis=0)
    verdict: dict[int, str] = {}
    pairs = circuit.constraints.alignment_pairs
    for p, ok, on in zip(pairs, passes.tolist(), live.tolist()):
        if on:
            verdict[p.a] = verdict[p.b] = "satisfied" if ok else "violated"
    return verdict


def render_svg(state: FloorplanState, cell: int = 12,
               labels: bool = True) -> str:
    """Serialize the state as a standalone SVG document, one panel per
    layer.  Partial states render whatever is placed."""
    circuit = state.circuit
    dims = circuit.dims
    pw, ph = dims.width * cell, dims.height * cell
    title_h = 16
    width = 2 * MARGIN + dims.num_layers * pw + (dims.num_layers - 1) * GAP
    height = 2 * MARGIN + title_h + ph

    svg = ET.Element("svg", {
        "xmlns": "http://www.w3.org/2000/svg",
        "width": str(width),
        "height": str(height),
        "viewBox": f"0 0 {width} {height}",
    })
    style = ET.SubElement(svg, "style")
    style.text = _STYLE
    verdict = _pair_classes(state)

    for z in range(dims.num_layers):
        ox = MARGIN + z * (pw + GAP)
        oy = MARGIN + title_h
        panel = ET.SubElement(svg, "g", {"class": "layer", "data-layer": str(z)})
        title = ET.SubElement(panel, "text", {
            "class": "title", "x": str(ox), "y": str(oy - 5)})
        title.text = f"layer {z}"
        ET.SubElement(panel, "rect", {
            "class": "die", "x": str(ox), "y": str(oy),
            "width": str(pw), "height": str(ph)})

        for block in circuit.blocks:
            if block.z != z or not state.placed[block.id]:
                continue
            x, y, w, h = state.rect(block.id)
            classes = "block"
            if block.is_soft:
                classes += " soft"
            if block.id in verdict:
                classes += f" {verdict[block.id]}"
            ET.SubElement(panel, "rect", {
                "class": classes, "data-block": str(block.id),
                "x": str(ox + x * cell), "y": str(oy + y * cell),
                "width": str(w * cell), "height": str(h * cell)})
            if labels:
                label = ET.SubElement(panel, "text", {
                    "class": "label",
                    "x": str(ox + x * cell + w * cell // 2),
                    "y": str(oy + y * cell + h * cell // 2 + 4)})
                label.text = str(block.id)

        for t in circuit.terminals:
            if t.z != z:
                continue
            ET.SubElement(panel, "circle", {
                "class": "terminal", "data-terminal": str(t.id),
                "cx": str(ox + t.x * cell + cell // 2),
                "cy": str(oy + t.y * cell + cell // 2),
                "r": str(max(2, cell // 4))})

    return ET.tostring(svg, encoding="unicode") + "\n"
