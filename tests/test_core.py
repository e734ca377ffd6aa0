import dataclasses
import math

import numpy as np
import pytest
from hypothesis import assume, given, settings, strategies as st

from stackfp import (
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    FloorplanState,
    GridDims,
    Net,
    Preplacement,
    TaskProfile,
    Terminal,
    default_order,
    occupancy_grid,
    shape_from_ar,
)
from stackfp.core import COMMON_RULES, RULE_OVERLAP, window_sums
from stackfp.masks import position_mask, wire_mask
from stackfp.metrics import total_hpwl, total_overlap

import oracles


def soft(bid, area, z=0, name=None, ar=(0.5, 2.0)):
    w, h = shape_from_ar(area, 1.0, *ar)
    return Block(bid, name or f"b{bid}", area, w, h, ar[0], ar[1], True, z)


def hard(bid, w, h, z=0, name=None):
    return Block(bid, name or f"b{bid}", w * h, w, h, 1.0, 1.0, False, z)


def circuit(blocks, terminals=(), nets=(), dims=(8, 8, 2), constraints=ConstraintSet(), util=1.0):
    return Circuit("test", GridDims(*dims), tuple(blocks), tuple(terminals),
                   tuple(nets), constraints, utilization=util)


class TestShapeFromAr:
    def test_square(self):
        assert shape_from_ar(16, 1.0, 0.5, 2.0) == (4, 4)

    def test_tall(self):
        assert shape_from_ar(8, 0.5, 0.5, 2.0) == (2, 4)

    def test_ratio_clipped_to_band(self):
        # requesting 3.0 against a band capped at 2.0 behaves like 2.0
        assert shape_from_ar(16, 3.0, 0.5, 2.0) == (6, 3)
        assert shape_from_ar(16, 3.0, 0.5, 2.0) == shape_from_ar(16, 2.0, 0.5, 2.0)

    def test_unit_area(self):
        assert shape_from_ar(1, 1.0, 0.5, 2.0) == (1, 1)

    def test_ratio_clipped_to_one_row(self):
        # a band far wider than the area still gives a shape one row high
        assert shape_from_ar(5, 1e300, 0.5, 1e300) == (5, 1)

    def test_rejects_empty_area(self):
        with pytest.raises(ValueError):
            shape_from_ar(0, 1.0, 0.5, 2.0)

    def test_rejects_nan_ratio_by_name(self):
        with pytest.raises(ValueError, match="aspect ratio is NaN"):
            shape_from_ar(16, float("nan"), 0.5, 2.0)

    def test_infinite_and_negative_ratios_clip(self):
        assert shape_from_ar(16, math.inf, 0.5, 2.0) == shape_from_ar(16, 2.0, 0.5, 2.0)
        assert shape_from_ar(16, -math.inf, 0.5, 2.0) == shape_from_ar(16, 0.5, 0.5, 2.0)
        assert shape_from_ar(16, -3.0, 0.5, 2.0) == shape_from_ar(16, 0.5, 0.5, 2.0)

    @given(area=st.integers(1, 5000),
           ar=st.floats(0.05, 20.0),
           lo=st.floats(0.1, 1.0),
           span=st.floats(1.0, 10.0))
    def test_area_slack_below_one_row(self, area, ar, lo, span):
        w, h = shape_from_ar(area, ar, lo, lo * span)
        assert w >= 1 and h >= 1
        assert 0 <= w * h - area <= max(w, 1), (area, ar, w, h)

    @given(area=st.integers(1, 5000), ar=st.floats(0.05, 20.0))
    def test_deterministic(self, area, ar):
        assert shape_from_ar(area, ar, 0.5, 2.0) == shape_from_ar(area, ar, 0.5, 2.0)


class TestCircuitValidation:
    def test_block_ids_must_be_dense(self):
        with pytest.raises(ValueError, match="block ids"):
            circuit([hard(1, 2, 2)])

    def test_layer_out_of_range(self):
        with pytest.raises(ValueError, match="layer"):
            circuit([hard(0, 2, 2, z=5)])

    def test_utilization_budget(self):
        # 2 layers of 8x8 at 50% leave room for 64 cells
        with pytest.raises(ValueError, match="utilization"):
            circuit([hard(0, 8, 8), hard(1, 8, 8, z=1)], util=0.5)
        circuit([hard(0, 8, 8)], util=0.5)

    def test_utilization_range(self):
        for util in (0.0, 1.5, math.nan):
            with pytest.raises(ValueError, match="utilization"):
                circuit([hard(0, 2, 2)], util=util)

    def test_terminals_on_the_grid(self):
        for x, y, z in ((8, 0, 0), (0, -1, 0), (0, 0, 2)):
            with pytest.raises(ValueError, match="off the grid"):
                circuit([hard(0, 2, 2)], terminals=[Terminal(0, "p", x, y, z)])

    def test_net_member_bounds(self):
        with pytest.raises(ValueError, match="unknown block"):
            circuit([hard(0, 2, 2)], nets=[Net(blocks=(0, 3))])

    def test_net_duplicate_member(self):
        with pytest.raises(ValueError, match="twice"):
            Net(blocks=(0, 0))

    def test_alignment_pair_same_layer_rejected(self):
        cs = ConstraintSet(alignment_pairs=(AlignmentPair(0, 1, 4.0),))
        with pytest.raises(ValueError, match="one layer"):
            circuit([hard(0, 2, 2), hard(1, 2, 2)], constraints=cs)

    def test_group_spanning_layers_rejected(self):
        cs = ConstraintSet(groups=((0, 1),))
        with pytest.raises(ValueError, match="spans layers"):
            circuit([hard(0, 2, 2, z=0), hard(1, 2, 2, z=1)], constraints=cs)

    def test_preplacement_out_of_outline(self):
        cs = ConstraintSet(preplacements=(Preplacement(0, 7, 7, 0, 2, 2),))
        with pytest.raises(ValueError, match="outline"):
            circuit([hard(0, 2, 2)], constraints=cs)

    def test_preplacements_may_not_collide(self):
        cs = ConstraintSet(preplacements=(
            Preplacement(0, 0, 0, 0, 2, 2), Preplacement(1, 1, 1, 0, 2, 2)))
        with pytest.raises(ValueError, match="collide"):
            circuit([hard(0, 2, 2), hard(1, 2, 2)], constraints=cs)

    def test_binding_mode_checked(self):
        with pytest.raises(ValueError, match="mode"):
            BoundaryBinding(0, (0,), mode="SOME")

    def test_hard_block_shape_equals_its_area(self):
        with pytest.raises(ValueError, match="does not hold block b0's area 56"):
            Block(0, "b0", 56, 1, 1, 1.0, 1.0, False, 0)

    def test_soft_block_shape_covers_its_area(self):
        Block(0, "b0", 10, 4, 3, 0.5, 2.0, True, 0)          # slack is allowed
        with pytest.raises(ValueError, match="3x3 does not hold block b0's area 10"):
            Block(0, "b0", 10, 3, 3, 0.5, 2.0, True, 0)

    def test_preplacement_shape_must_stand_for_its_block(self):
        for blocks, w, h, match in (
                ([hard(0, 2, 3)], 3, 2, "hard block b0 is 2x3, got 3x2"),
                ([soft(0, 10)], 3, 3, "3x3 does not hold"),
        ):
            cs = ConstraintSet(preplacements=(Preplacement(0, 0, 0, 0, w, h),))
            with pytest.raises(ValueError, match=f"preplacement of block 0: {match}"):
                circuit(blocks, constraints=cs)
        cs = ConstraintSet(preplacements=(Preplacement(0, 0, 0, 0, 5, 2),))
        circuit([soft(0, 10)], constraints=cs)    # any shape covering the area


class TestTaskProfile:
    def test_structural_rules_always_enabled(self):
        for task in (1, 2, 3):
            profile = TaskProfile.for_task(task)
            assert COMMON_RULES <= profile.enabled_rules

    def test_common_rules_cannot_be_dropped(self):
        with pytest.raises(ValueError, match="structural"):
            TaskProfile(enabled_rules=frozenset({RULE_OVERLAP}))

    def test_task_presets_differ_on_optional_rules(self):
        t1 = TaskProfile.for_task(1).enabled_rules
        t2 = TaskProfile.for_task(2).enabled_rules
        t3 = TaskProfile.for_task(3).enabled_rules
        assert "boundary" in t1 and "grouping" not in t1
        assert "grouping" in t2 and "boundary" not in t2
        assert t3 == t1 | t2 | {"preplace"}

    def test_default_weights(self):
        p = TaskProfile.for_task(3)
        assert (p.w_alignment, p.w_overlap, p.w_hpwl, p.w_adjacency, p.w_distance) == \
            (0.5, 0.5, 1.0, 4.0, 4.0)
        assert p.terminal_mask_threshold == 0.0
        assert p.block_mask_threshold == 0.0
        assert p.alignment_mask_frac == 0.1


class TestOrderAndState:
    def test_default_order_area_desc_ties_by_id(self):
        c = circuit([hard(0, 2, 2), hard(1, 3, 3), hard(2, 2, 2)])
        assert default_order(c) == [1, 0, 2]

    def test_preplaced_blocks_lead_the_order(self):
        cs = ConstraintSet(preplacements=(Preplacement(2, 0, 0, 0, 2, 2),))
        c = circuit([hard(0, 2, 2), hard(1, 3, 3), hard(2, 2, 2)], constraints=cs)
        assert default_order(c) == [2, 1, 0]

    def test_order_must_be_permutation(self):
        c = circuit([hard(0, 2, 2), hard(1, 2, 2)])
        with pytest.raises(ValueError, match="permutation"):
            FloorplanState(c, order=[0, 0])

    def test_place_advances_nothing_but_flags(self):
        c = circuit([hard(0, 2, 2), hard(1, 2, 2)])
        s = FloorplanState(c)
        assert not s.done and s.current_block == 0
        s.place(0, 1, 1)
        assert s.placed[0] and s.rect(0) == (1, 1, 2, 2)
        with pytest.raises(ValueError, match="already placed"):
            s.place(0, 0, 0)

    def test_place_bounds_checked(self):
        c = circuit([hard(0, 3, 3)])
        s = FloorplanState(c)
        with pytest.raises(ValueError, match="outline"):
            s.place(0, 6, 6)
        assert not s.placed[0]
        s.place(0, 5, 5)                    # flush with the far corner
        assert s.rect(0) == (5, 5, 3, 3)

    def test_overlap_on_the_grid_reads_the_table(self, monkeypatch):
        """Every rect takes its overlap from the summed-area table; no
        placement scans the layer's placed rects."""
        c = circuit([hard(0, 3, 3), hard(1, 3, 3), hard(2, 2, 2), hard(3, 2, 2)])
        s = FloorplanState(c)
        monkeypatch.setattr(FloorplanState, "layer_rects", lambda *a: pytest.fail(
            "a placement scanned the layer"))
        s.place(0, 5, 5)
        s.place(1, 4, 4)
        s.place(2, 5, 4)
        assert s.overlap == 4 + (2 + 4)
        s.place(3, 6, 6)
        monkeypatch.undo()
        assert s.overlap == oracles.pairwise_overlap(s) == 10 + (4 + 1 + 0)

    def test_set_shape_soft_only_and_unplaced_only(self):
        c = circuit([soft(0, 16), hard(1, 2, 2)])
        s = FloorplanState(c)
        assert s.set_shape(0, 2.0) == (6, 3)
        with pytest.raises(ValueError, match="hard"):
            s.set_shape(1, 2.0)
        s.place(0, 0, 0)
        with pytest.raises(ValueError, match="placed"):
            s.set_shape(0, 1.0)

    def test_clone_is_independent(self):
        cs = ConstraintSet(alignment_pairs=(AlignmentPair(0, 2, 4.0),),
                           groups=((0, 1),),
                           boundary_bindings=(BoundaryBinding(1, (0,)),))
        c = circuit([hard(0, 2, 2), hard(1, 2, 2), hard(2, 2, 2, z=1)],
                    terminals=[Terminal(0, "p", 7, 7, 0)], constraints=cs)
        s = FloorplanState(c)
        s.place(0, 0, 0)
        d = s.clone()
        d.place(1, 2, 0)
        d.place(2, 1, 0)
        assert not s.placed[1] and d.placed[1]
        assert (s.alignment, s.adjacency, s.distance) == ([0.0], 0, 0)
        assert (d.alignment, d.adjacency, d.distance) == ([0.5], 2, 10)

    def test_apply_preplacements_sets_cursor(self):
        cs = ConstraintSet(preplacements=(Preplacement(1, 4, 4, 0, 3, 3),))
        c = circuit([hard(0, 2, 2), hard(1, 3, 3)], constraints=cs)
        s = FloorplanState(c)
        s.apply_preplacements()
        assert s.order[0] == 1 and s.cursor == 1
        assert s.placed[1] and s.rect(1) == (4, 4, 3, 3)
        assert s.current_block == 0


class TestOccupancy:
    def test_popcount_matches_rasterizer(self):
        rng = np.random.default_rng(7)
        for _ in range(30):
            w_die, h_die = int(rng.integers(4, 10)), int(rng.integers(4, 10))
            blocks, rects = [], []
            for i in range(int(rng.integers(1, 4))):
                bw, bh = int(rng.integers(1, 4)), int(rng.integers(1, 4))
                blocks.append(hard(i, bw, bh))
            c = circuit(blocks, dims=(w_die, h_die, 1))
            s = FloorplanState(c)
            for b in blocks:
                bx = int(rng.integers(0, w_die - b.w + 1))
                by = int(rng.integers(0, h_die - b.h + 1))
                s.place(b.id, bx, by)
                rects.append((bx, by, b.w, b.h))
            grid = occupancy_grid(s)
            assert grid.shape == (1, w_die, h_die)
            expect = oracles.covered_cells(oracles.rasterize(rects, w_die, h_die))
            assert int(grid.sum()) == expect

    def test_layers_kept_apart(self):
        c = circuit([hard(0, 2, 2, z=0), hard(1, 2, 2, z=1)])
        s = FloorplanState(c)
        s.place(0, 0, 0)
        s.place(1, 0, 0)
        grid = occupancy_grid(s)
        assert grid[0].sum() == 4 and grid[1].sum() == 4


@st.composite
def small_circuits(draw):
    """Up to six hard or soft blocks on a small grid of one or two layers,
    with random terminals and nets, cross-layer alignment pairs, one
    abutment group per layer and ALL or ANY boundary bindings."""
    dims = (draw(st.integers(3, 9)), draw(st.integers(3, 9)), draw(st.integers(1, 2)))
    blocks = []
    for i in range(draw(st.integers(1, 6))):
        z = draw(st.integers(0, dims[2] - 1))
        if draw(st.booleans()):
            blocks.append(soft(i, draw(st.integers(1, 6)), z=z))
        else:
            blocks.append(hard(i, draw(st.integers(1, 3)), draw(st.integers(1, 3)), z=z))
    assume(sum(b.area for b in blocks) <= dims[0] * dims[1] * dims[2])
    terms = [Terminal(t, f"p{t}", draw(st.integers(0, dims[0] - 1)),
                      draw(st.integers(0, dims[1] - 1)), draw(st.integers(0, dims[2] - 1)))
             for t in range(draw(st.integers(0, 3)))]
    nets = []
    for _ in range(draw(st.integers(0, 4))):
        members = st.lists(st.integers(0, len(blocks) - 1), unique=True, max_size=3)
        pins = st.lists(st.integers(0, len(terms) - 1), unique=True, max_size=2)
        net_blocks = draw(members)
        net_terms = draw(pins) if terms else []
        if net_blocks or net_terms:
            nets.append(Net(tuple(net_blocks), tuple(net_terms)))
    by_layer = [[b.id for b in blocks if b.z == z] for z in range(dims[2])]
    pairs = []
    if dims[2] == 2:
        most = min(map(len, by_layer))
        k = draw(st.integers(min(most, 1), most))
        lower, upper = (draw(st.permutations(ids))[:k] for ids in by_layer)
        pairs = [AlignmentPair(a, b, draw(st.floats(0.5, 8.0)))
                 for a, b in zip(lower, upper)]
    groups = []
    for ids in by_layer:
        size = draw(st.integers(0, len(ids)))
        if size >= 2:
            groups.append(tuple(draw(st.permutations(ids))[:size]))
    bindings = []
    for b in blocks:
        if terms and draw(st.booleans()):
            bound = st.lists(st.integers(0, len(terms) - 1), unique=True,
                             min_size=1, max_size=3)
            bindings.append(BoundaryBinding(b.id, tuple(draw(bound)),
                                            draw(st.sampled_from(["ALL", "ANY"]))))
    cons = ConstraintSet(alignment_pairs=tuple(pairs), groups=tuple(groups),
                         boundary_bindings=tuple(bindings))
    return circuit(blocks, terms, nets, dims=dims, constraints=cons)


def assert_matches_scratch(s, window):
    """Everything the state keeps incrementally equals its from-scratch
    version in `oracles`."""
    cover = oracles.painted_cover(s)
    sat = np.zeros_like(s.sat)
    sat[:, 1:, 1:] = cover.cumsum(axis=1).cumsum(axis=2)
    assert np.array_equal(s.sat, sat)
    w, h = window
    dims = s.circuit.dims
    if w <= dims.width and h <= dims.height:
        sums = window_sums(s.sat, w, h)
        for x in range(dims.width - w + 1):
            for y in range(dims.height - h + 1):
                assert list(sums[:, x, y]) == list(cover[:, x:x + w, y:y + h].sum(axis=(1, 2)))
    assert np.array_equal(occupancy_grid(s), oracles.painted_occupancy(s))
    assert total_overlap(s) == oracles.pairwise_overlap(s)
    nets = range(len(s.circuit.nets))
    assert total_hpwl(s) == oracles.hpwl([oracles.net_pins(s, k) for k in nets])
    assert type(total_hpwl(s)) is float
    for got, want in zip((s.net_lo, s.net_hi), oracles.pin_net_boxes(s)):
        assert np.array_equal(got, want)
    cons, placed = s.circuit.constraints, s.placed
    assert all(type(v) is float for v in s.alignment)
    assert s.alignment == [
        oracles.alignment_fraction(s.rect(p.a), s.rect(p.b), p.min_area)
        if placed[p.a] and placed[p.b] else 0.0 for p in cons.alignment_pairs]
    assert s.adjacency == sum(
        oracles.adjacency_length(s.rect(a), s.rect(b))
        for g in cons.groups for i, a in enumerate(g) for b in g[i + 1:]
        if placed[a] and placed[b])
    assert s.distance == sum(oracles.binding_distance(s, bb)
                             for bb in cons.boundary_bindings if placed[bb.block])


def _kept(s):
    """What a placement updates, as bytes and values."""
    return (s.sat.tobytes(), s.overlap, s.hpwl, s.net_lo.tobytes(),
            s.net_hi.tobytes(), list(s.alignment), s.adjacency, s.distance,
            s.placed.tobytes(), s.x.tobytes(), s.y.tobytes())


class TestOutline:
    @given(small_circuits(), st.data())
    @settings(max_examples=100, deadline=None, derandomize=True)
    def test_place_rejects_exactly_the_rects_the_outline_does_not_hold(self, c, data):
        """Anchors up to one cell past every side, shapes larger than the
        grid included: `place` raises ValueError exactly where
        `GridDims.holds` is false, and a rejected place leaves the state
        as it was."""
        dims = c.dims
        s = FloorplanState(c)
        for b in data.draw(st.permutations(range(c.num_blocks))):
            if c.blocks[b].is_soft and data.draw(st.booleans()):
                s.set_shape(b, data.draw(st.floats(0.05, 20.0)))
            w, h = int(s.w[b]), int(s.h[b])
            x = data.draw(st.integers(-w - 1, dims.width + 1))
            y = data.draw(st.integers(-h - 1, dims.height + 1))
            if dims.holds(x, y, w, h):
                s.place(b, x, y)
                continue
            before = _kept(s)
            with pytest.raises(ValueError, match="outline"):
                s.place(b, x, y)
            assert _kept(s) == before

    @given(st.integers(1, 9), st.integers(1, 9),
           st.lists(st.tuples(st.integers(-12, 12), st.integers(-12, 12),
                              st.integers(1, 12), st.integers(1, 12)),
                    min_size=1, max_size=20))
    def test_holds_over_arrays_is_holds_per_rect(self, width, height, rects):
        dims = GridDims(width, height, 1)
        for x, y, w, h in rects:
            assert dims.holds(x, y, w, h) == (
                x >= 0 and y >= 0 and x + w <= width and y + h <= height)
        got = dims.holds(*(np.array(v) for v in zip(*rects)))
        assert got.dtype == bool
        assert got.tolist() == [dims.holds(*r) for r in rects]


class TestIncrementalState:
    def test_running_hpwl_by_hand(self):
        """`total_hpwl` is the total that `place` keeps running, from the
        terminal boxes on, through preplacements and clones."""
        terms = [Terminal(0, "p", 0, 0, 0), Terminal(1, "q", 7, 3, 0)]
        # terminals only, blocks only, and both
        nets = [Net((), (0, 1)), Net((0, 1)), Net((1,), (0,))]
        cs = ConstraintSet(preplacements=(Preplacement(1, 4, 4, 0, 2, 2),))
        c = circuit([hard(0, 2, 2), hard(1, 2, 2)], terms, nets, constraints=cs)
        s = FloorplanState(c)
        assert total_hpwl(s) == 7 + 3
        s.apply_preplacements()         # block 1's center (5, 5)
        assert total_hpwl(s) == 10 + 0 + 10
        d = s.clone()
        d.place(0, 0, 6)                # center (1, 7)
        assert total_hpwl(d) == 10 + 6 + 10 and total_hpwl(s) == 20

    @given(small_circuits(), st.data())
    @settings(max_examples=150, deadline=None, derandomize=True)
    def test_matches_from_scratch_after_every_operation(self, c, data):
        """Random place (anywhere on the grid, overlaps included), set_shape
        and clone sequences, after a preplacement or not; every state made
        along the way is checked after each operation, so clones stay
        independent, and the current state's masks are checked for one of
        its unplaced blocks."""
        dims = c.dims
        b = c.blocks[0]
        if b.w <= dims.width and b.h <= dims.height and data.draw(st.booleans()):
            pre = Preplacement(0, data.draw(st.integers(0, dims.width - b.w)),
                               data.draw(st.integers(0, dims.height - b.h)), b.z, b.w, b.h)
            c = dataclasses.replace(c, constraints=dataclasses.replace(
                c.constraints, preplacements=(pre,)))
        states = [FloorplanState(c)]
        states[0].apply_preplacements()
        window = st.tuples(st.integers(1, 4), st.integers(1, 4))
        for _ in range(data.draw(st.integers(3, 12))):
            s = states[-1]
            unplaced = [b for b in range(c.num_blocks) if not s.placed[b]]
            op = data.draw(st.sampled_from(["place", "place", "shape", "clone"]))
            if op == "clone":
                states.append(s.clone())
            elif unplaced:
                b = data.draw(st.sampled_from(unplaced))
                w, h = int(s.w[b]), int(s.h[b])
                if op == "place":
                    if dims.holds(0, 0, w, h):     # else it fits nowhere
                        s.place(b, data.draw(st.integers(0, dims.width - w)),
                                data.draw(st.integers(0, dims.height - h)))
                        unplaced.remove(b)
                elif c.blocks[b].is_soft:
                    s.set_shape(b, data.draw(st.floats(0.25, 4.0)))
            for t in states:
                assert_matches_scratch(t, data.draw(window))
            if unplaced:
                b = data.draw(st.sampled_from(unplaced))
                for got, want in zip(s.net_boxes(b), oracles.pin_net_boxes(s, b)):
                    assert np.array_equal(got, want)
                assert np.array_equal(position_mask(s, b).values,
                                      oracles.looped_position_mask(s, b))
                assert np.array_equal(wire_mask(s, b).values,
                                      oracles.wire_increase(s, b))
