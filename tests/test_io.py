import contextlib
import dataclasses
import io
import json
import math
import xml.etree.ElementTree as ET

import pytest
from hypothesis import given, settings, strategies as st

from stackfp import (
    Block,
    Circuit,
    FloorplanState,
    GridDims,
    InfeasibleError,
    Net,
    TaskProfile,
    Terminal,
    default_order,
    render,
)
from stackfp.bookshelf import (
    ParseError,
    apportion,
    boundary_cells,
    farthest_point_subset,
    parse_blocks_text,
    parse_circuit,
    parse_nets_text,
    parse_pl_text,
    synth_circuit,
)
from stackfp.fileio import (
    ConstraintFile,
    apply_constraints,
    circuit_from_json,
    circuit_to_json,
    gen_constraints,
    mask_csv,
    mask_pgm,
    placement_from_json,
    placement_to_json,
    state_from_placement,
    synth_instance,
)
from stackfp.metrics import metric_snapshot
from stackfp.render import render_svg
from stackfp.report import (
    RunRecord,
    record_from_state,
    record_from_summary,
    write_report,
)
from stackfp.solvers import greedy_place
from stackfp.cli import main as cli_main


BLOCKS_TEXT = """UCSC blocks 1.0

NumSoftRectangularBlocks : 2
NumHardRectilinearBlocks : 1
NumTerminals : 2

sb0 softrectangular 4000 0.5 2.0
sb1 softrectangular 2500 0.5 2.0
hb0 hardrectilinear 4 (0, 0) (0, 40) (60, 40) (60, 0)

p0 terminal
p1 terminal
"""

NETS_TEXT = """UCLA nets 1.0

NumNets : 2
NumPins : 5

NetDegree : 3
sb0
sb1
p0

NetDegree : 2
hb0
p1
"""

PL_TEXT = """UCLA pl 1.0

p0 0 0
p1 590 590
"""


def toy_circuit(dims=GridDims(24, 24, 2), util=0.80):
    return parse_circuit(BLOCKS_TEXT, NETS_TEXT, PL_TEXT, dims=dims,
                         utilization=util, name="toy")


class TestBookshelfParsing:
    def test_fixture_counts(self):
        c = toy_circuit()
        assert c.num_blocks == 3
        assert len(c.terminals) == 2
        assert len(c.nets) == 2
        soft = [b for b in c.blocks if b.is_soft]
        hard = [b for b in c.blocks if not b.is_soft]
        assert len(soft) == 2 and len(hard) == 1

    def test_hard_block_is_vertex_bbox(self):
        blocks, terminals = parse_blocks_text(BLOCKS_TEXT)
        assert blocks["hb0"] == {"kind": "hard", "w": 60, "h": 40}
        assert terminals == ["p0", "p1"]

    @pytest.mark.parametrize("verts", [
        "(0, 0) (0, 40) (6O, 40) (60, 0)",
        "(0, 0) (0, 40) (nan, 40) (60, 0)",
        "(0, 0) (0, 40) (60, 40)",
        "(0, 0) (0, 40) (60, 40) (60, 0) (0, 0)",
        "(0, 0) (0, 40) (60 40) (60, 0)",
        "(0, 0) (0, 40) (60, 40, 1) (60, 0)",
        "(0, 0) (0, 40) (60, 40) x (60, 0)",
        "(0, 0) (0, 40) (60, (40) (60, 0)",
    ], ids=["letter", "nan", "missing_vertex", "extra_vertex", "one_number",
            "three_numbers", "stray_token", "unbalanced"])
    def test_bad_vertex_list(self, verts):
        bad = BLOCKS_TEXT.replace("4 (0, 0) (0, 40) (60, 40) (60, 0)", "4 " + verts)
        with pytest.raises(ParseError, match="line 9"):
            parse_blocks_text(bad)

    @pytest.mark.parametrize("old, new, line", [
        ("sb1 soft", "b\x01 soft", 8),
        ("p0 terminal", "p\u200b terminal", 11),
    ], ids=["control-block", "zero-width-terminal"])
    def test_unprintable_name(self, old, new, line):
        """Names the JSON readers would refuse are refused here, with
        their line."""
        with pytest.raises(ParseError, match=f"^line {line}: name .* is not printable"):
            parse_blocks_text(BLOCKS_TEXT.replace(old, new))

    def test_vertex_in_exponent_notation(self):
        blocks, _ = parse_blocks_text(BLOCKS_TEXT.replace("(60, 40)", "(1e3, 40)"))
        assert blocks["hb0"] == {"kind": "hard", "w": 1000, "h": 40}

    @pytest.mark.parametrize("drop,line", [("sb1\n", 6), ("p1\n", 11)],
                             ids=["first_net", "last_net"])
    def test_short_net_names_its_header_line(self, drop, line):
        # NetDegree headers sit on lines 6 and 11
        with pytest.raises(ParseError, match=f"^line {line}: net has"):
            parse_nets_text(NETS_TEXT.replace(drop, "", 1))

    def test_empty_nets_file(self):
        c = parse_circuit(BLOCKS_TEXT, "UCLA nets 1.0\nNumNets : 0\n",
                          PL_TEXT, dims=GridDims(24, 24, 2), name="t")
        assert c.nets == ()

    def test_undeclared_symbol_is_named(self):
        bad = NETS_TEXT.replace("sb1", "ghost")
        with pytest.raises(ParseError, match="ghost"):
            parse_circuit(BLOCKS_TEXT, bad, PL_TEXT,
                          dims=GridDims(24, 24, 2), name="t")

    def test_net_degree_mismatch_has_line_number(self):
        bad = NETS_TEXT.replace("NetDegree : 3", "NetDegree : 4")
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_nets_text(bad)

    def test_malformed_block_line(self):
        bad = BLOCKS_TEXT.replace("softrectangular 4000 0.5 2.0",
                                  "softrectangular pear")
        with pytest.raises(ParseError, match=r"line \d+"):
            parse_blocks_text(bad)

    def test_quantized_total_hits_utilization_target(self):
        dims = GridDims(24, 24, 2)
        c = toy_circuit(dims=dims)
        target = math.floor(0.80 * dims.width * dims.height * dims.num_layers)
        assert sum(b.area for b in c.blocks) == target

    def test_relative_areas_preserved(self):
        c = toy_circuit()
        by_name = {b.name: b.area for b in c.blocks}
        # source ratio sb0:sb1 = 1.6; quantized ratio within a couple cells
        assert abs(by_name["sb0"] / by_name["sb1"] - 1.6) < 0.05

    def test_terminals_map_to_grid_corners(self):
        c = toy_circuit()
        coords = {t.name: (t.x, t.y) for t in c.terminals}
        assert coords["p0"] == (0, 0)
        assert coords["p1"] == (23, 23)

    def test_pl_parses_floats(self):
        pl = parse_pl_text("p0 1.5 2.25\n")
        assert pl["p0"] == (1.5, 2.25)

    def test_layers_never_exceed_capacity(self):
        c = toy_circuit(dims=GridDims(24, 24, 2))
        per = {z: 0 for z in range(2)}
        for b in c.blocks:
            per[b.z] += b.area
        assert all(v <= 24 * 24 for v in per.values())


class TestApportion:
    def test_sums_to_total(self):
        shares = apportion(100, [1.0, 2.0, 3.0])
        assert sum(shares) == 100

    def test_proportional(self):
        shares = apportion(60, [1.0, 2.0, 3.0])
        assert shares == [10, 20, 30]

    def test_minimum_floor(self):
        shares = apportion(10, [1000.0, 1.0])
        assert shares[1] >= 1 and sum(shares) == 10


class TestFarthestPoint:
    def test_spreads_to_extremes(self):
        pts = [(0, 0), (1, 0), (9, 0), (5, 0)]
        picks = farthest_point_subset(pts, 2, start=0)
        assert picks == [0, 2]

    def test_taken_points_repel_and_are_not_returned(self):
        pts = [(0, 0), (1, 0), (9, 0)]
        picks = farthest_point_subset(pts, 1, taken=(0,))
        assert picks == [2]
        assert 0 not in picks

    def test_too_many_raises(self):
        with pytest.raises(ValueError, match="cannot pick"):
            farthest_point_subset([(0, 0)], 2)

    def test_boundary_cells_ring(self):
        cells = boundary_cells(GridDims(4, 3, 1))
        assert len(cells) == len(set(cells)) == 2 * 4 + 2 * 3 - 4
        assert cells[0] == (0, 0)


class TestSynthCircuit:
    def test_seeded_determinism(self):
        a = synth_circuit("s", 8, 6, seed=11)
        b = synth_circuit("s", 8, 6, seed=11)
        assert circuit_to_json(a) == circuit_to_json(b)

    def test_fill_target(self):
        dims = GridDims(32, 32, 2)
        target = math.floor(0.4 * 32 * 32 * 2)
        # hard blocks round their share up to a full w*h rectangle
        c = synth_circuit("s", 10, 4, seed=3, dims=dims, fill=0.4)
        hard = [b for b in c.blocks if not b.is_soft]
        assert all(b.area == b.w * b.h for b in hard)
        assert target <= sum(b.area for b in c.blocks) <= target + \
            sum(b.w + b.h for b in hard)

    def test_soft_shapes_inside_band(self):
        c = synth_circuit("s", 12, 4, seed=5)
        for b in c.blocks:
            if b.is_soft:
                assert b.ar_min - 1e-9 <= b.w / b.h <= b.ar_max + 1e-9


class TestCircuitJson:
    def test_round_trip_fixed_point(self):
        c, _ = synth_instance("rt", 2)          # nets and constraints too
        text = circuit_to_json(c)
        again = circuit_to_json(circuit_from_json(text))
        assert text == again

    def test_constraints_survive(self):
        cc, cf = synth_instance("rt2", 4)
        text = circuit_to_json(cc)
        back = circuit_from_json(text)
        assert back.constraints.alignment_pairs == cc.constraints.alignment_pairs
        assert back.constraints.groups == cc.constraints.groups

    def test_rejects_other_documents(self):
        with pytest.raises(ParseError, match="circuit.format"):
            circuit_from_json(json.dumps({"format": "something-else"}))


class TestConstraintFiles:
    def test_round_trip_fixed_point(self):
        _, cf = synth_instance("cf", 9)
        text = cf.to_json()
        assert ConstraintFile.from_json(text).to_json() == text

    def test_apply_sets_layers_and_min_area(self):
        c = synth_circuit("ap", 6, 6, seed=1)
        cf = gen_constraints(c, (4, 2, 2), seed=7, min_area_frac=0.5)
        cc = apply_constraints(c, cf)
        for p_doc, p in zip(cf.alignment_pairs, cc.constraints.alignment_pairs):
            lo = min(cc.blocks[p.a].area, cc.blocks[p.b].area)
            assert p.min_area == pytest.approx(0.5 * lo)
        for bid, z in cf.layers.items():
            assert cc.blocks[bid].z == z


class TestGenConstraints:
    def test_counts_exact(self):
        c = synth_circuit("g", 12, 12, seed=4)
        cf = gen_constraints(c, (10, 5, 10), seed=4)
        assert len(cf.alignment_pairs) == 5
        assert len(cf.boundary) == 5
        assert len(cf.groups) == 5 and all(len(g) == 2 for g in cf.groups)

    def test_seeded_determinism(self):
        c = synth_circuit("g", 12, 12, seed=4)
        assert gen_constraints(c, (10, 5, 10), seed=9).to_json() == \
               gen_constraints(c, (10, 5, 10), seed=9).to_json()

    def test_zero_counts_empty_file(self):
        c = synth_circuit("g", 6, 4, seed=1)
        cf = gen_constraints(c, (0, 0, 0), seed=0)
        assert cf.alignment_pairs == () and cf.boundary == () and cf.groups == ()

    def test_odd_counts_rejected(self):
        c = synth_circuit("g", 6, 4, seed=1)
        with pytest.raises(InfeasibleError, match="even"):
            gen_constraints(c, (3, 0, 0), seed=0)

    def test_counts_beyond_blocks_rejected(self):
        c = synth_circuit("g", 6, 4, seed=1)
        with pytest.raises(InfeasibleError, match="exceed"):
            gen_constraints(c, (8, 0, 0), seed=0)

    def test_bindings_outnumbering_terminals_rejected(self):
        c = synth_circuit("g", 6, 2, seed=1)
        with pytest.raises(InfeasibleError, match="terminals"):
            gen_constraints(c, (0, 3, 0), seed=0)

    def test_layer_parity_cap(self):
        # ten blocks, all cross-paired, split 5/5 over two layers: same-layer
        # groups can cover at most 4+4 blocks, never 10
        c = synth_circuit("g", 10, 12, seed=2)
        with pytest.raises(InfeasibleError, match="parity"):
            gen_constraints(c, (10, 5, 10), seed=0)

    def test_bound_pairs_share_a_terminal(self):
        c = synth_circuit("g", 12, 12, seed=4)
        cf = gen_constraints(c, (10, 5, 10), seed=4)
        bound = {b["block"]: b["terminals"] for b in cf.boundary}
        for p in cf.alignment_pairs:
            if p["a"] in bound and p["b"] in bound:
                assert bound[p["a"]] == bound[p["b"]]

    def test_output_validates(self):
        c = synth_circuit("g", 12, 12, seed=8)
        cf = gen_constraints(c, (6, 4, 6), seed=8)
        cc = apply_constraints(c, cf)
        cc.constraints.validate(cc)


class TestSynthInstance:
    def test_every_block_is_netted(self):
        cc, _ = synth_instance("n", 21)
        seen = {b for net in cc.nets for b in net.blocks}
        assert seen == set(range(cc.num_blocks))

    def test_pair_nets_carry_binding_terminals(self):
        cc, cf = synth_instance("n", 22)
        bound = {b["block"]: tuple(b["terminals"]) for b in cf.boundary}
        by_members = {tuple(sorted(n.blocks)): n for n in cc.nets}
        for p in cf.alignment_pairs:
            key = tuple(sorted((p["a"], p["b"])))
            net = by_members[key]
            for blk in key:
                for t in bound.get(blk, ()):
                    assert t in net.terminals

    def test_seeded_determinism(self):
        a_c, a_f = synth_instance("n", 5)
        b_c, b_f = synth_instance("n", 5)
        assert circuit_to_json(a_c) == circuit_to_json(b_c)
        assert a_f.to_json() == b_f.to_json()


class TestPlacementFiles:
    def test_metrics_survive_round_trip(self):
        cc, _ = synth_instance("pl", 6)
        res = greedy_place(cc, TaskProfile.for_task(1))
        text = placement_to_json(res.state, cc.name, 1, "greedy", 0)
        header, rows = placement_from_json(text)
        assert (header["width"], header["layers"]) == (cc.dims.width,
                                                       cc.dims.num_layers)
        state = state_from_placement(cc, rows)
        assert metric_snapshot(state) == metric_snapshot(res.state)

    def test_serialization_fixed_point(self):
        cc, _ = synth_instance("pl", 6)
        res = greedy_place(cc, TaskProfile.for_task(1))
        text = placement_to_json(res.state, cc.name, 1, "greedy", 0)
        header, rows = placement_from_json(text)
        state = state_from_placement(cc, rows)
        assert placement_to_json(state, cc.name, 1, "greedy", 0) == text

    def test_rejects_other_documents(self):
        with pytest.raises(ParseError, match="placement.format"):
            placement_from_json(json.dumps({"format": "nope"}))


class TestMaskDumps:
    def test_csv_raster_order(self):
        import numpy as np
        vals = np.arange(6, dtype=float).reshape(2, 3)  # [x, y] indexed
        text = mask_csv(vals)
        lines = text.strip().split("\n")
        assert len(lines) == 3                      # one line per y
        assert lines[0] == "0.000000,3.000000"      # y=0 across x
        assert lines[2] == "2.000000,5.000000"

    def test_pgm_scales_min_max(self):
        import numpy as np
        vals = np.array([[0.0, 5.0], [10.0, 5.0]])
        lines = mask_pgm(vals).strip().split("\n")
        assert lines[:3] == ["P2", "2 2", "255"]
        assert lines[3].split() == ["0", "255"]     # y=0: x=0 -> 0, x=1 -> 255
        assert lines[4].split() == ["128", "128"]

    def test_pgm_constant_is_black(self):
        import numpy as np
        lines = mask_pgm(np.full((2, 2), 7.0)).strip().split("\n")
        assert lines[3:] == ["0 0", "0 0"]


def two_block_state(x2, y2):
    blocks = (Block(0, "a", 16, 4, 4, 1.0, 1.0, False, 0),
              Block(1, "b", 16, 4, 4, 1.0, 1.0, False, 1))
    from stackfp import AlignmentPair, ConstraintSet
    cons = ConstraintSet(alignment_pairs=(AlignmentPair(0, 1, 16.0),))
    c = Circuit("pairs", GridDims(12, 12, 2), blocks, (), (),
                constraints=cons, utilization=1.0)
    st = FloorplanState(c)
    st.place(0, 0, 0)
    st.place(1, x2, y2)
    return st


class TestRender:
    def test_empty_state_has_layer_panels_only(self):
        cc, _ = synth_instance("rv", 3)
        root = ET.fromstring(render_svg(FloorplanState(cc)))
        panels = [e for e in root.iter() if e.get("class") == "layer"]
        blocks = [e for e in root.iter() if "block" in (e.get("class") or "")]
        assert len(panels) == cc.dims.num_layers
        assert blocks == []

    def test_single_block_coordinates(self):
        blocks = (Block(0, "a", 6, 3, 2, 1.0, 1.0, False, 0),)
        c = Circuit("one", GridDims(8, 8, 1), blocks, (), (), utilization=1.0)
        st = FloorplanState(c)
        st.place(0, 2, 1)
        root = ET.fromstring(render_svg(st, cell=10))
        rect = next(e for e in root.iter()
                    if "block" in (e.get("class") or ""))
        # the panel origin sits at (MARGIN, MARGIN + title_h)
        assert int(rect.get("x")) == render.MARGIN + 2 * 10
        assert int(rect.get("y")) == render.MARGIN + 16 + 1 * 10
        assert rect.get("width") == "30"
        assert rect.get("height") == "20"

    def test_alignment_classes(self):
        sat = render_svg(two_block_state(1, 1))      # overlap 9 > 8
        vio = render_svg(two_block_state(5, 5))      # disjoint
        sat_rects = [e for e in ET.fromstring(sat).iter()
                     if "satisfied" in (e.get("class") or "")]
        vio_rects = [e for e in ET.fromstring(vio).iter()
                     if "violated" in (e.get("class") or "")]
        assert len(sat_rects) == 2
        assert len(vio_rects) == 2

    def test_terminal_markers(self):
        cc, _ = synth_instance("rv", 3)
        root = ET.fromstring(render_svg(FloorplanState(cc)))
        dots = [e for e in root.iter() if e.get("class") == "terminal"]
        assert len(dots) == len(cc.terminals)

    def test_deterministic(self):
        cc, _ = synth_instance("rv", 4)
        res = greedy_place(cc, TaskProfile.for_task(2))
        assert render_svg(res.state) == render_svg(res.state)


def record(seed=0, **over):
    base = dict(circuit="c", task=1, solver="greedy", seed=seed,
                distance=0.0, adjacency=0.1, alignment=0.9, hpwl=0.5,
                overlap=0.0, satisfied=3, sat_total=4, rungs=0, wall_s=0.25)
    base.update(over)
    return RunRecord(**base)


class TestReports:
    def test_identical_rows_have_zero_std(self):
        text = write_report([record(seed=i) for i in range(5)])
        assert "0.000000±0.000000" in text

    def test_population_std_documented_example(self):
        text = write_report([record(seed=0, distance=0.0),
                             record(seed=1, distance=0.2)])
        assert "0.100000±0.100000" in text

    def test_empty_rejected(self):
        with pytest.raises(ValueError, match="no runs"):
            write_report([])

    def test_json_round_trip(self):
        recs = [record(seed=1), record(seed=0, solver="sa")]
        doc = json.loads(write_report(recs, "json"))
        back = [RunRecord(**row) for row in doc["runs"]]
        assert back == sorted(recs, key=lambda r: (r.circuit, r.task, r.solver, r.seed))

    def test_unknown_format(self):
        with pytest.raises(ValueError, match="format"):
            write_report([record()], "yaml")

    def test_eval_reproduces_solve_metrics(self):
        cc, _ = synth_instance("ev", 12)
        res = greedy_place(cc, TaskProfile.for_task(1))
        solved = record_from_summary(cc.name, 1, "greedy", 0, res.summary)
        text = placement_to_json(res.state, cc.name, 1, "greedy", 0)
        _, rows = placement_from_json(text)
        reread = record_from_state(cc, state_from_placement(cc, rows), task=1)
        for field in ("distance", "adjacency", "alignment", "hpwl",
                      "overlap", "satisfied", "sat_total"):
            assert getattr(solved, field) == getattr(reread, field)

    def test_custom_order_solve_and_eval_agree(self):
        # the wirelength baseline belongs to the circuit, not to the order
        cc, _ = synth_instance("x", 3)
        res = greedy_place(cc, TaskProfile.for_task(3),
                           order=default_order(cc)[::-1])
        solved = record_from_summary(cc.name, 3, "greedy", 0, res.summary)
        text = placement_to_json(res.state, cc.name, 3, "greedy", 0)
        _, rows = placement_from_json(text)
        reread = record_from_state(cc, state_from_placement(cc, rows), task=3,
                                   solver="greedy")
        assert dataclasses.replace(solved, rungs=None) == reread


@pytest.fixture()
def workdir(tmp_path):
    cc, cf = synth_instance("cli", 17)
    circuit = tmp_path / "cli.circuit.json"
    circuit.write_text(circuit_to_json(cc))
    constraints = tmp_path / "cli.constraints.json"
    constraints.write_text(cf.to_json())
    gsrc = tmp_path / "gsrc"
    gsrc.mkdir()
    (gsrc / "toy.blocks").write_text(BLOCKS_TEXT)
    (gsrc / "toy.nets").write_text(NETS_TEXT)
    (gsrc / "toy.pl").write_text(PL_TEXT)
    return tmp_path


class TestCli:
    def solve(self, workdir, *extra):
        out = workdir / "out"
        argv = ["solve", "--circuit", str(workdir / "cli.circuit.json"),
                "--constraints", str(workdir / "cli.constraints.json"),
                "--task", "1", "--solver", "greedy", "--seed", "0",
                "--out", str(out), *extra]
        assert cli_main(argv) == 0
        return out / "cli-t1-greedy-s0.placement.json"

    def test_solve_writes_artifacts(self, workdir, capsys):
        placement = self.solve(workdir)
        assert placement.exists()
        stem = str(placement)[:-len(".placement.json")]
        for suffix in (".report.csv", ".report.json", ".trace.jsonl"):
            assert (workdir / "out" / (placement.name[:-len(".placement.json")]
                                       + suffix)).exists()
        assert "cost=" in capsys.readouterr().out

    def test_eval_matches_solve_report(self, workdir, capsys):
        placement = self.solve(workdir)
        report = (workdir / "out" / "cli-t1-greedy-s0.report.csv").read_text()
        capsys.readouterr()
        rc = cli_main(["eval", "--circuit", str(workdir / "cli.circuit.json"),
                       "--constraints",
                       str(workdir / "cli.constraints.json"),
                       "--placement", str(placement)])
        assert rc == 0
        evaled = capsys.readouterr().out
        # metric columns (4..8 zero-based) agree between solve and eval rows
        solve_row = report.splitlines()[1].split(",")
        eval_row = evaled.splitlines()[1].split(",")
        assert solve_row[4:10] == eval_row[4:10]

    def test_bookshelf_solve(self, workdir):
        rc = cli_main(["solve", "--circuit", str(workdir / "gsrc"),
                       "--dims", "32x32x2", "--util", "0.45",
                       "--task", "2", "--solver", "greedy",
                       "--out", str(workdir / "bs")])
        assert rc == 0
        assert (workdir / "bs" / "gsrc-t2-greedy-s0.placement.json").exists()

    def test_masks_dump(self, workdir, capsys):
        rc = cli_main(["masks", "--circuit", str(workdir / "cli.circuit.json"),
                       "--constraints", str(workdir / "cli.constraints.json"),
                       "--task", "3", "--at-step", "1",
                       "--out", str(workdir / "md")])
        assert rc == 0
        dumps = sorted(p.name for p in (workdir / "md").iterdir())
        assert any(n.endswith(".wire.csv") for n in dumps)
        assert any(n.endswith(".availability.pgm") for n in dumps)
        pgm = next(p for p in (workdir / "md").iterdir()
                   if p.name.endswith(".wire.pgm"))
        head = pgm.read_text().splitlines()
        assert head[0] == "P2" and head[2] == "255"

    def test_gen_constraints_cli(self, workdir):
        out = workdir / "gen.json"
        rc = cli_main(["gen-constraints", "--circuit",
                       str(workdir / "cli.circuit.json"),
                       "--counts", "10,5,10", "--seed", "3",
                       "--out", str(out)])
        assert rc == 0
        cf = ConstraintFile.from_json(out.read_text())
        assert len(cf.alignment_pairs) == 5

    def test_render_cli(self, workdir):
        placement = self.solve(workdir)
        out = workdir / "plot.svg"
        rc = cli_main(["render", "--circuit",
                       str(workdir / "cli.circuit.json"),
                       "--constraints", str(workdir / "cli.constraints.json"),
                       "--placement", str(placement), "--out", str(out)])
        assert rc == 0
        ET.fromstring(out.read_text())

    def test_unknown_subcommand_is_usage(self, capsys):
        assert cli_main(["frobnicate"]) == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    def test_missing_file_is_io(self, workdir, capsys):
        rc = cli_main(["solve", "--circuit", str(workdir / "absent.json"),
                       "--task", "1", "--out", str(workdir / "x")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_undecodable_file_is_io(self, workdir, capsys):
        (workdir / "cli.circuit.json").write_bytes(b"\xff\xfe{")
        rc = cli_main(["solve", "--circuit", str(workdir / "cli.circuit.json"),
                       "--task", "1", "--out", str(workdir / "x")])
        assert rc == 3
        assert capsys.readouterr().err.startswith("error:io:")

    def test_bad_bookshelf_vertex_is_io(self, workdir, capsys):
        blocks = workdir / "gsrc" / "toy.blocks"
        blocks.write_text(blocks.read_text().replace("(60, 40)", "(6O, 40)"))
        self.assert_io(capsys, ["solve", "--circuit", str(workdir / "gsrc"),
                                "--dims", "24x24x2", "--task", "1",
                                "--out", str(workdir / "o")], "'6O'")

    def test_unprintable_bookshelf_name_is_io(self, workdir, capsys):
        blocks = workdir / "gsrc" / "toy.blocks"
        blocks.write_text(blocks.read_text().replace("sb1", "b\x01"))
        nets = workdir / "gsrc" / "toy.nets"
        nets.write_text(nets.read_text().replace("sb1", "b\x01"))
        self.assert_io(capsys, ["solve", "--circuit", str(workdir / "gsrc"),
                                "--dims", "32x32x2", "--util", "0.45",
                                "--task", "1", "--out", str(workdir / "o")],
                       "line 8: name 'b\\x01' is not printable")

    def test_infeasible_counts_exit_two(self, workdir, capsys):
        rc = cli_main(["gen-constraints", "--circuit",
                       str(workdir / "cli.circuit.json"),
                       "--counts", "3,0,0", "--seed", "0",
                       "--out", str(workdir / "g.json")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:infeasible:")

    def test_infeasible_instance_exit_two(self, workdir, capsys):
        # utilization 0.8 leaves no legal arrangement of the three giant toys
        rc = cli_main(["solve", "--circuit", str(workdir / "gsrc"),
                       "--dims", "24x24x2", "--task", "1",
                       "--out", str(workdir / "x")])
        assert rc == 2
        assert capsys.readouterr().err.startswith("error:infeasible:")

    def test_bad_dims_is_usage(self, workdir, capsys):
        rc = cli_main(["solve", "--circuit", str(workdir / "gsrc"),
                       "--dims", "banana", "--task", "1",
                       "--out", str(workdir / "x")])
        assert rc == 1
        assert capsys.readouterr().err.startswith("error:usage:")

    @pytest.mark.parametrize("argv", [
        ["bench", "--instances", "0"],
        ["bench", "--seeds", "0"],
        ["bench", "--sa-iterations", "-1"],
        ["solve", "--circuit", "c.json", "--task", "1", "--sa-iterations", "-1"],
        ["bench", "--jobs", "0"],
        ["render", "--circuit", "c.json", "--placement", "p.json", "--cell", "0"],
    ], ids=["instances", "seeds", "bench_sa_iterations", "solve_sa_iterations",
            "jobs", "render_cell"])
    def test_count_below_minimum_is_usage(self, workdir, capsys, argv):
        rc = cli_main([*argv, "--out", str(workdir / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and len(err.splitlines()) == 1
        assert not (workdir / "x").exists()

    @pytest.mark.parametrize("argv", [
        ["masks", "--circuit", "JSON", "--task", "3", "--block", "999"],
        ["masks", "--circuit", "JSON", "--task", "3", "--block", "-1"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "0x4x2"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "32x32x0"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "32x32x2", "--util", "0"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "32x32x2", "--util", "-1"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "32x32x2", "--util", "nan"],
        ["solve", "--circuit", "GSRC", "--task", "3", "--dims", "32x32x2", "--util", "1.5"],
        ["solve", "--circuit", "JSON", "--task", "3", "--weights", "nan,1,1,1,1"],
        ["solve", "--circuit", "JSON", "--task", "3", "--solver", "sa",
         "--sa-iterations", "2", "--weights", "inf,1,1,1,1"],
        ["solve", "--circuit", "JSON", "--task", "3", "--thresholds", "nan,0,0.5"],
        ["gen-constraints", "--circuit", "JSON", "--counts", "2,0,0",
         "--min-area-frac", "nan"],
        ["gen-constraints", "--circuit", "JSON", "--counts", "2,0,0",
         "--min-area-frac", "0"],
        ["gen-constraints", "--circuit", "JSON", "--counts", "inf,0,0"],
        ["gen-constraints", "--circuit", "JSON", "--counts", "nan,0,0"],
        ["solve", "--circuit", "JSON", "--task", "3", "--solver", "random",
         "--seed", "-1"],
        ["solve", "--circuit", "JSON", "--task", "3", "--solver", "sa",
         "--sa-iterations", "2", "--seed", "-1"],
        ["bench", "--tasks", "1.7", "--instances", "1", "--seeds", "1"],
        ["gen-constraints", "--circuit", "JSON", "--counts=-2,0,0"],
        ["bench", "--tasks", "1,1", "--instances", "1", "--seeds", "1"],
        ["bench", "--solvers", "greedy,sa,greedy", "--instances", "1", "--seeds", "1"],
        ["masks", "--circuit", "JSON", "--util", "0.3", "--task", "1"],
        ["solve", "--circuit", "JSON", "--util", "0.8", "--task", "1"],
    ], ids=["block_beyond_circuit", "negative_block", "zero_width",
            "zero_layers", "util_zero", "util_negative", "util_nan",
            "util_above_one", "weights_nan", "weights_inf", "thresholds_nan",
            "min_area_frac_nan", "min_area_frac_zero", "counts_inf",
            "counts_nan", "seed_negative_random", "seed_negative_sa",
            "tasks_fraction", "counts_negative", "tasks_repeated",
            "solvers_repeated", "util_on_json_masks", "util_on_json_solve"])
    def test_out_of_range_value_is_usage(self, workdir, capsys, argv):
        paths = {"JSON": str(workdir / "cli.circuit.json"),
                 "GSRC": str(workdir / "gsrc")}
        rc = cli_main([*(paths.get(a, a) for a in argv),
                       "--out", str(workdir / "x")])
        assert rc == 1
        err = capsys.readouterr().err
        assert err.startswith("error:usage:") and len(err.splitlines()) == 1
        assert not (workdir / "x").exists()

    def test_bench_reproducible(self, workdir):
        args = ["bench", "--instances", "1", "--seeds", "2",
                "--tasks", "1", "--solvers", "greedy,random"]
        assert cli_main([*args, "--out", str(workdir / "bA")]) == 0
        assert cli_main([*args, "--out", str(workdir / "bB")]) == 0
        a = sorted((workdir / "bA").iterdir())
        b = sorted((workdir / "bB").iterdir())
        assert [p.name for p in a] == [p.name for p in b]
        for pa, pb in zip(a, b):
            assert pa.read_bytes() == pb.read_bytes()

    def assert_io(self, capsys, argv, match):
        capsys.readouterr()
        rc = cli_main(argv)
        err = capsys.readouterr().err
        assert rc == 3
        assert err.startswith("error:io:") and len(err.splitlines()) == 1
        assert match in err

    @staticmethod
    def spoil(path, mutate):
        doc = json.loads(path.read_text())
        mutate(doc)
        path.write_text(json.dumps(doc))

    # (file, mutation, text the one error line must hold)
    @pytest.mark.parametrize("target,mutate,match", [
        ("placement", lambda d: d["blocks"][0].update(id=999), ""),
        ("placement", lambda d: d["blocks"][0].pop("w"), ""),
        # -1 would wrap around to the last block, which this row places
        ("placement", lambda d: max(d["blocks"], key=lambda r: r["id"]).update(id=-1), ""),
        ("placement", lambda d: d["blocks"][1].update(id=d["blocks"][0]["id"]), ""),
        ("placement", lambda d: d["blocks"][0].update(z=1 - d["blocks"][0]["z"]), ""),
        ("placement", lambda d: d["blocks"][0].update(x=float(d["blocks"][0]["x"])), ""),
        ("circuit", lambda d: d.pop("dims"), ""),
        ("placement", lambda d: d.pop("header"), ""),
        ("constraints", lambda d: d["alignment_pairs"][0].pop("a"), ""),
        ("constraints", lambda d: d["alignment_pairs"][0].update(a=999), ""),
        ("constraints", lambda d: d["layers"].update({"999": 1}), ""),
        ("circuit", lambda d: d["dims"].update(width=32.0), "circuit.dims.width"),
        ("placement", lambda d: d["blocks"][0].update(x=10**30), "placement.blocks[0].x"),
        ("circuit", lambda d: d["blocks"][0].update(soft="no"), "circuit.blocks[0].soft"),
        ("circuit", lambda d: d["blocks"][1].update(id=1.5), "circuit.blocks[1].id"),
        ("circuit", lambda d: d["blocks"][1].update(id=1.0), "circuit.blocks[1].id"),
        ("circuit", lambda d: d.update(utilization=math.nan), "circuit.utilization"),
        ("circuit", lambda d: d["nets"][0].update(blocks="01"), "circuit.nets[0].blocks"),
        ("constraints", lambda d: d["alignment_pairs"][0].update(min_area_frac="0.5"),
         "min_area_frac"),
        ("constraints", lambda d: d["alignment_pairs"][0].update(min_area_frac=math.inf),
         "min_area_frac"),
        ("constraints", lambda d: d["alignment_pairs"][0].update(min_area_frac=math.nan),
         "min_area_frac"),
        ("circuit", lambda d: d["terminals"][0].update(x=999), "off the grid"),
        ("placement", lambda d: d["blocks"][0].update(w=-3), "placement.blocks[0].w"),
        ("placement", lambda d: d["blocks"][0].update(w=0), "placement.blocks[0].w"),
        ("placement", lambda d: d["header"].update(task=9), "placement.header.task"),
        ("placement", lambda d: d["blocks"].pop(), "omits block"),
        ("circuit", lambda d: d["blocks"][0].update(name="b0\nerror:"), "circuit.blocks[0].name"),
        ("circuit", lambda d: d.update(name="../escaped"), "circuit.name"),
    ], ids=["id_beyond_circuit", "missing_w", "negative_id", "duplicate_id",
            "wrong_layer", "float_x", "circuit_without_dims",
            "placement_without_header", "pair_without_a",
            "pair_names_unknown_block", "layer_map_names_unknown_block",
            "float_width", "huge_x", "soft_not_bool", "fractional_id",
            "integral_float_id", "nan_utilization", "string_net",
            "string_min_area_frac", "infinite_min_area_frac",
            "nan_min_area_frac", "terminal_off_grid", "negative_w", "zero_w",
            "task_out_of_range", "omitted_block", "name_with_line_break",
            "name_with_path"])
    def test_eval_malformed_placement_row_is_io(self, workdir, capsys, target,
                                                mutate, match):
        placement = self.solve(workdir)
        files = {"circuit": workdir / "cli.circuit.json",
                 "constraints": workdir / "cli.constraints.json",
                 "placement": placement}
        self.spoil(files[target], mutate)
        self.assert_io(capsys, ["eval", "--circuit", str(files["circuit"]),
                                "--constraints", str(files["constraints"]),
                                "--placement", str(placement)], match)

    @pytest.mark.parametrize("command,target,mutate,match", [
        ("solve", "circuit", lambda d: next(b for b in d["blocks"] if not b["soft"]).update(
            w=1, h=1), "circuit.blocks[0]: 1x1 does not hold block b0's area 132"),
        ("solve", "circuit", lambda d: d["constraints"]["preplaced"].append(dict(
            block=0, x=0, y=0, z=d["blocks"][0]["z"], w=12, h=11)),
         "preplacement of block 0: hard block b0 is 11x12, got 12x11"),
        ("eval", "placement", lambda d: [r.update(w=1, h=1) for r in d["blocks"]],
         "placement block 0: hard block b0 is 11x12, got 1x1"),
        ("eval", "placement", lambda d: next(r for r in d["blocks"] if r["id"] == 2).update(
            w=1), "does not hold block b2's area 48"),
    ], ids=["hard_block", "preplacement", "placement_rows", "soft_row"])
    def test_shape_that_cannot_hold_its_block_is_io(self, workdir, capsys, command,
                                                    target, mutate, match):
        files = {"circuit": workdir / "cli.circuit.json",
                 "constraints": workdir / "cli.constraints.json",
                 "placement": self.solve(workdir)}
        self.spoil(files[target], mutate)
        extra = (["--placement", str(files["placement"])] if command == "eval"
                 else ["--task", "3", "--out", str(workdir / "o")])
        self.assert_io(capsys, [command, "--circuit", str(files["circuit"]),
                                "--constraints", str(files["constraints"]), *extra],
                       match)

    def test_render_checks_the_grid(self, workdir, capsys):
        placement = self.solve(workdir)
        self.spoil(placement, lambda d: d["header"].update(width=999))
        self.assert_io(capsys, ["render", "--circuit", str(workdir / "cli.circuit.json"),
                                "--constraints", str(workdir / "cli.constraints.json"),
                                "--placement", str(placement),
                                "--out", str(workdir / "plot.svg")],
                       "placement grid (999, 32, 2) does not match circuit (32, 32, 2)")
        assert not (workdir / "plot.svg").exists()

    @pytest.mark.parametrize("target,mutate,match", [
        ("circuit", lambda d: next(b for b in d["blocks"] if b["soft"]).update(
            ar_max=math.inf), "ar_max"),
        ("constraints", lambda d: d["alignment_pairs"][0].update(min_area_frac=math.nan),
         "min_area_frac"),
    ], ids=["infinite_ar_max", "nan_min_area_frac"])
    def test_solve_malformed_input_is_io(self, workdir, capsys, target, mutate,
                                         match):
        path = workdir / f"cli.{target}.json"
        self.spoil(path, mutate)
        self.assert_io(capsys, ["solve", "--circuit", str(workdir / "cli.circuit.json"),
                                "--constraints", str(workdir / "cli.constraints.json"),
                                "--task", "3", "--out", str(workdir / "o")], match)


# --- fuzzing the input boundary ------------------------------------------------

ODD_VALUES = st.sampled_from([
    None, True, False, "", "x", [], {}, [1], {"a": 1}, 0, -1, 1.5, 2**63,
    -2**70, 1e308, -1e308, math.nan, math.inf, -math.inf])
ODD_TOKENS = st.sampled_from([
    "nan", "inf", "-inf", "1e400", "1e308", "-1e30", "9" * 30, "0", "-5", "x"])
GSRC_FLAGS = ["--dims", "32x32x2", "--util", "0.45"]
FUZZ_FILES = ("c.json", "k.json", "fz.placement.json", "gsrc.placement.json",
              "gsrc/t.blocks", "gsrc/t.nets", "gsrc/t.pl")


def spoil_json(data, text: str) -> str:
    """One drawn defect: the top-level value replaced, or some member
    somewhere dropped or given an odd value."""
    doc = json.loads(text)
    if data.draw(st.integers(0, 9)) == 0:
        return json.dumps(data.draw(ODD_VALUES))
    parent, key, node = None, None, doc
    while isinstance(node, (dict, list)) and node:
        parent, key = node, data.draw(st.sampled_from(
            list(node) if isinstance(node, dict) else range(len(node))))
        node = parent[key]
        if data.draw(st.booleans()):
            break
    if parent is None:
        return json.dumps(data.draw(ODD_VALUES))
    if data.draw(st.booleans()):
        del parent[key]
    else:
        parent[key] = data.draw(ODD_VALUES)
    return json.dumps(doc)


def spoil_text(data, text: str) -> str:
    """One drawn defect in a bookshelf file: a line dropped, or one of its
    tokens replaced."""
    lines = text.splitlines()
    i = data.draw(st.integers(0, len(lines) - 1))
    tokens = lines[i].split()
    if not tokens or data.draw(st.booleans()):
        del lines[i]
    else:
        tokens[data.draw(st.integers(0, len(tokens) - 1))] = data.draw(ODD_TOKENS)
        lines[i] = " ".join(tokens)
    return "\n".join(lines) + "\n"


@pytest.fixture(scope="module")
def fuzz_dir(tmp_path_factory):
    """Valid inputs for both circuit kinds, each with a solved placement."""
    root = tmp_path_factory.mktemp("fuzz")
    cc, cf = synth_instance("fz", 5)
    (root / "c.json").write_text(circuit_to_json(cc))
    (root / "k.json").write_text(cf.to_json())
    gsrc = root / "gsrc"
    gsrc.mkdir()
    for name, text in (("t.blocks", BLOCKS_TEXT), ("t.nets", NETS_TEXT), ("t.pl", PL_TEXT)):
        (gsrc / name).write_text(text)
    for argv, stem in ((["--circuit", str(root / "c.json"), "--constraints",
                         str(root / "k.json")], "fz"),
                       (["--circuit", str(gsrc), *GSRC_FLAGS], "gsrc")):
        assert cli_main(["solve", *argv, "--task", "1", "--out", str(root / "o")]) == 0
        (root / f"{stem}.placement.json").write_text(
            (root / "o" / f"{stem}-t1-greedy-s0.placement.json").read_text())
    return root


class TestMalformedInputFuzz:
    @settings(max_examples=500, deadline=None, derandomize=True)
    @given(data=st.data(), command=st.sampled_from(["eval", "render", "solve"]))
    def test_one_error_line_and_no_traceback(self, fuzz_dir, data, command):
        # solve reads no placement file, so it spoils one of the others
        target = data.draw(st.sampled_from(
            [f for f in FUZZ_FILES if command != "solve" or "placement" not in f]))
        work = fuzz_dir / "case"
        gsrc = work / "gsrc"
        gsrc.mkdir(parents=True, exist_ok=True)
        for name in FUZZ_FILES:
            text = (fuzz_dir / name).read_text()
            if name == target:
                text = (spoil_json if name.endswith(".json") else spoil_text)(data, text)
            (work / name).write_text(text)
        if target.startswith("gsrc"):
            argv = ["--circuit", str(gsrc), *GSRC_FLAGS]
            placement = work / "gsrc.placement.json"
        else:
            argv = ["--circuit", str(work / "c.json"), "--constraints", str(work / "k.json")]
            placement = work / "fz.placement.json"
        if command == "solve":
            argv += ["--task", "1", "--out", str(work / "o")]
        else:
            argv += ["--placement", str(placement)]
        if command == "render":
            argv += ["--out", str(work / "plot.svg")]
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            rc = cli_main([command, *argv])
        lines = err.getvalue().splitlines()
        assert rc == 0 or (rc in (2, 3) and len(lines) == 1
                           and lines[0].startswith("error:")), (rc, lines)
