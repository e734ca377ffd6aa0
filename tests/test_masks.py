import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackfp import (
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    FloorplanState,
    GridDims,
    Net,
    TaskProfile,
    Terminal,
)
from stackfp import masks
from stackfp.masks import (
    BlockDistanceRule,
    adjacent_block_mask,
    adjacent_terminal_mask,
    alignment_mask,
    availability_mask,
    block_distance_mask,
    compile_masks,
    position_mask,
    wire_floor,
    wire_mask,
    wire_profiles,
)
from stackfp.fileio import synth_instance
from stackfp.metrics import total_hpwl

import oracles


def hard(bid, w, h, z=0):
    return Block(bid, f"b{bid}", w * h, w, h, 1.0, 1.0, False, z)


def make_state(blocks, placements, terminals=(), nets=(), dims=(8, 8, 2),
               constraints=ConstraintSet()):
    c = Circuit("t", GridDims(*dims), tuple(blocks), tuple(terminals),
                tuple(nets), constraints, utilization=1.0)
    s = FloorplanState(c)
    for bid, (x, y) in placements.items():
        s.place(bid, x, y)
    return s


class TestTerminalMask:
    def test_unit_block_origin_terminal(self):
        s = make_state([hard(0, 1, 1)], {}, dims=(4, 4, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),))
        m = adjacent_terminal_mask(s, BoundaryBinding(0, (0,)))
        xs, ys = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        assert np.array_equal(m.values, (xs + ys).astype(float))

    def test_far_corner_touch(self):
        s = make_state([hard(0, 2, 2)], {}, dims=(4, 4, 1),
                       terminals=(Terminal(0, "p", 3, 3, 0),))
        m = adjacent_terminal_mask(s, BoundaryBinding(0, (0,)))
        assert m.values[2, 2] == 0.0

    def test_every_cell_matches_forced_placement(self):
        s = make_state([hard(0, 3, 2)], {}, dims=(7, 6, 1),
                       terminals=(Terminal(0, "p", 4, 1, 0),))
        m = adjacent_terminal_mask(s, BoundaryBinding(0, (0,)))
        for x in range(7):
            for y in range(6):
                assert m.values[x, y] == oracles.terminal_distance((x, y, 3, 2), 4, 1)

    def test_merge_all_takes_worst_any_takes_best(self):
        terms = (Terminal(0, "p", 0, 0, 0), Terminal(1, "q", 5, 5, 0))
        s = make_state([hard(0, 2, 2)], {}, dims=(6, 6, 1), terminals=terms)
        m0 = adjacent_terminal_mask(s, BoundaryBinding(0, (0,)))
        m1 = adjacent_terminal_mask(s, BoundaryBinding(0, (1,)))
        worst = adjacent_terminal_mask(s, BoundaryBinding(0, (0, 1), "ALL"))
        best = adjacent_terminal_mask(s, BoundaryBinding(0, (0, 1), "ANY"))
        assert np.all(worst.values >= m0.values) and np.all(worst.values >= m1.values)
        assert np.all(best.values <= m0.values) and np.all(best.values <= m1.values)
        assert np.array_equal(worst.values, np.maximum(m0.values, m1.values))
        assert np.array_equal(best.values, np.minimum(m0.values, m1.values))

    def test_merge_empty_rejected(self):
        with pytest.raises(ValueError, match="without terminals"):
            BoundaryBinding(0, ())


class TestBlockMask:
    def test_frozen_strip_values(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {1: (0, 0)}, dims=(6, 6, 1))
        m = adjacent_block_mask(s, 0, 1)
        assert m.values[2, 0] == 2.0
        assert m.values[2, 1] == 1.0
        assert m.values[0, 2] == 2.0
        # off-strip cells are zero
        assert m.values[3, 0] == 0.0 and m.values[2, 2] == 0.0

    def test_left_strip_clipped_at_outline(self):
        # placed block flush at x=0 leaves no room on its left
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {1: (0, 0)}, dims=(6, 6, 1))
        m = adjacent_block_mask(s, 0, 1)
        assert np.all(m.values[:, 3:] == 0.0)

    def test_every_cell_matches_forced_placement(self):
        for placed_at in [(0, 0), (2, 3), (4, 1)]:
            s = make_state([hard(0, 2, 3), hard(1, 3, 2)], {1: placed_at}, dims=(8, 8, 1))
            m = adjacent_block_mask(s, 0, 1)
            for x in range(8):
                for y in range(8):
                    assert m.values[x, y] == oracles.adjacency_length(
                        (x, y, 2, 3), (*placed_at, 3, 2)), (x, y)

    def test_merge_sums_islands(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2), hard(2, 2, 2)],
                       {1: (0, 0), 2: (4, 0)}, dims=(8, 8, 1),
                       constraints=ConstraintSet(groups=((0, 1, 2),)))
        m1 = adjacent_block_mask(s, 0, 1)
        m2 = adjacent_block_mask(s, 0, 2)
        merged = compile_masks(s, 0, TaskProfile.for_task(2)).rules["grouping"]
        assert np.array_equal(merged.values, m1.values + m2.values)
        # the anchor between both neighbors abuts both: (2,0) touches b1 and b2
        assert merged.values[2, 0] == m1.values[2, 0] + m2.values[2, 0] == 4.0

    def test_merge_empty_is_zero(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {}, dims=(5, 4, 1),
                       constraints=ConstraintSet(groups=((0, 1),)))
        stack = compile_masks(s, 0, TaskProfile.for_task(2))
        grouping = stack.rules["grouping"].values
        assert grouping.shape == (5, 4) and not grouping.any()
        # an island with nothing placed leaves availability to the position mask
        assert np.array_equal(stack.availability.mask, stack.rules["position"].values)

    def test_unplaced_other_rejected(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {}, dims=(6, 6, 1))
        with pytest.raises(ValueError, match="not placed"):
            adjacent_block_mask(s, 0, 1)

    def test_cross_layer_other_rejected(self):
        s = make_state([hard(0, 2, 2, z=0), hard(1, 2, 2, z=1)], {1: (2, 0)})
        with pytest.raises(ValueError, match="layers"):
            adjacent_block_mask(s, 0, 1)


class TestAlignmentMask:
    def test_frozen_example(self):
        s = make_state([hard(0, 4, 4, z=0), hard(1, 4, 4, z=1)], {1: (0, 0)})
        m = alignment_mask(s, 0, 1, min_area=16.0)
        assert m.values[0, 0] == 1.0
        assert m.values[2, 0] == 0.5
        assert m.values[4, 0] == 0.0

    def test_every_cell_matches_forced_placement(self):
        s = make_state([hard(0, 3, 2, z=0), hard(1, 2, 4, z=1)], {1: (3, 2)})
        m = alignment_mask(s, 0, 1, min_area=6.0)
        for x in range(8):
            for y in range(8):
                assert m.values[x, y] == oracles.alignment_fraction(
                    (x, y, 3, 2), (3, 2, 2, 4), 6.0)

    def test_same_layer_rejected(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {1: (0, 0)})
        with pytest.raises(ValueError, match="share a layer"):
            alignment_mask(s, 0, 1, 4.0)


class TestPositionMask:
    def test_empty_layer_frozen_example(self):
        s = make_state([hard(0, 2, 2)], {}, dims=(4, 4, 1))
        m = position_mask(s, 0)
        assert int(m.values.sum()) == 9
        assert m.values[:3, :3].all() and not m.values[3, :].any() and not m.values[:, 3].any()

    def test_every_cell_matches_predicate(self):
        s = make_state([hard(0, 2, 3), hard(1, 3, 2), hard(2, 2, 2)],
                       {1: (2, 2), 2: (5, 5)}, dims=(8, 8, 1))
        m = position_mask(s, 0)
        rects = [(2, 2, 3, 2), (5, 5, 2, 2)]
        for x in range(8):
            for y in range(8):
                assert bool(m.values[x, y]) == oracles.position_ok(
                    (x, y, 2, 3), 8, 8, rects)

    def test_cross_layer_blocks_do_not_block(self):
        s = make_state([hard(0, 2, 2, z=0), hard(1, 4, 4, z=1)], {1: (0, 0)},
                       dims=(6, 6, 2))
        m = position_mask(s, 0)
        assert int(m.values.sum()) == 25

    def test_oversized_block_has_no_cell(self):
        s = make_state([hard(0, 9, 2)], {}, dims=(8, 8, 1))
        assert not position_mask(s, 0).values.any()

    def test_shrinking_never_loses_cells(self):
        base = make_state([hard(0, 4, 3), hard(1, 3, 3)], {1: (2, 2)}, dims=(8, 8, 1))
        wide = position_mask(base, 0).values
        shrunk = make_state([hard(0, 3, 3), hard(1, 3, 3)], {1: (2, 2)}, dims=(8, 8, 1))
        narrow = position_mask(shrunk, 0).values
        assert np.all(narrow >= wide)


@pytest.mark.parametrize("build", [
    lambda s: position_mask(s, 0),
    lambda s: wire_mask(s, 0),
    lambda s: adjacent_terminal_mask(s, BoundaryBinding(0, (0,))),
    lambda s: adjacent_block_mask(s, 0, 1),
    lambda s: alignment_mask(s, 0, 2, 1.0),
    lambda s: block_distance_mask(s, 0, 1),
    lambda s: compile_masks(s, 0, TaskProfile.for_task(3)),
], ids=["position", "wire", "terminal", "block", "alignment", "distance", "compile"])
def test_placed_subject_rejected(build):
    s = make_state([hard(0, 2, 2), hard(1, 2, 2), hard(2, 2, 2, z=1)],
                   {0: (0, 0), 1: (2, 0), 2: (0, 0)},
                   terminals=(Terminal(0, "p", 0, 0, 0),))
    with pytest.raises(ValueError, match="block 0 is placed"):
        build(s)


class TestWireMask:
    def test_single_terminal_frozen_example(self):
        s = make_state([hard(0, 1, 1)], {}, dims=(6, 6, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(0,), terminals=(0,)),))
        m = wire_mask(s, 0)
        xs, ys = np.meshgrid(np.arange(6), np.arange(6), indexing="ij")
        assert np.allclose(m.values, (xs + 0.5) + (ys + 0.5))
        assert m.values[0, 0] == 1.0

    def test_zero_inside_every_bounding_box(self):
        terms = (Terminal(0, "p", 1, 1, 0), Terminal(1, "q", 6, 6, 0))
        s = make_state([hard(0, 1, 1)], {}, dims=(8, 8, 1), terminals=terms,
                       nets=(Net(blocks=(0,), terminals=(0, 1)),))
        m = wire_mask(s, 0)
        # centers from (1.5,1.5) to (5.5,5.5) sit inside the box
        assert np.all(m.values[2:5, 2:5] == 0.0)
        assert m.values[0, 0] > 0.0

    def test_every_cell_matches_hpwl_delta(self):
        terms = (Terminal(0, "p", 1, 5, 0), Terminal(1, "q", 6, 0, 0))
        nets = (Net(blocks=(0, 1), terminals=(0,)),
                Net(blocks=(0, 2), terminals=(1,)),
                Net(blocks=(1, 2)))
        s = make_state([hard(0, 2, 2), hard(1, 3, 1), hard(2, 1, 2)],
                       {1: (4, 4), 2: (0, 2)}, dims=(8, 8, 1),
                       terminals=terms, nets=nets)
        m = wire_mask(s, 0)
        before = total_hpwl(s)
        over = oracles.wire_increase(s, 0)      # where the block overhangs
        for x in range(8):
            for y in range(8):
                if not s.circuit.dims.holds(x, y, 2, 2):
                    assert m.values[x, y] == over[x, y], (x, y)
                    continue
                probe = s.clone()
                probe.place(0, x, y)
                assert m.values[x, y] == total_hpwl(probe) - before, (x, y)

    def test_nets_without_fixed_points_contribute_nothing(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {}, dims=(6, 6, 1),
                       nets=(Net(blocks=(0, 1)),))
        assert not wire_mask(s, 0).values.any()


class TestWireProfiles:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), side=st.sampled_from([10, 13, 16]),
           placed=st.integers(0, 9), data=st.data())
    def test_slices_equal_each_shape_on_its_own(self, seed, side, placed, data):
        """Profiles built once for a set of widths and heights (mixed
        parity, wider or taller than the grid included) give, for every
        shape in the set, the same floats as the wire mask of that shape
        alone and as the from-scratch wirelength growth."""
        c, _ = synth_instance(f"w{seed}", seed, n_blocks=10, counts=(4, 3, 4),
                              dims=GridDims(side, side, 2), fill=0.4)
        s = FloorplanState(c)
        rng = np.random.default_rng(seed)
        for b in s.order[:placed]:
            s.place(b, int(rng.integers(side - s.w[b] + 1)),
                    int(rng.integers(side - s.h[b] + 1)))
        b = s.order[placed]
        sizes = st.lists(st.integers(1, side + 5), min_size=1, max_size=5)
        widths, heights = data.draw(sizes), data.draw(sizes)
        profiles = wire_profiles(s, b, widths, heights)
        for w in widths:
            for h in heights:
                s.w[b], s.h[b] = w, h
                got = wire_mask(s, b, profiles).values
                assert got.tobytes() == wire_mask(s, b).values.tobytes(), (w, h)
                assert np.array_equal(got, oracles.wire_increase(s, b)), (w, h)

    def test_shape_outside_the_profiles_rejected(self):
        s = make_state([hard(0, 2, 2)], {}, dims=(6, 6, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(0,), terminals=(0,)),))
        for w, h in ((2, 2), (1, 2), (3, 4), (5, 1)):
            s.w[0], s.h[0] = w, h
            with pytest.raises(ValueError, match="does not cover size"):
                wire_mask(s, 0, wire_profiles(s, 0, (3, 5), (2, 3)))


def floors(s, b, profiles):
    """`wire_floor` testing the whole grid at once and by the box search,
    which the small grids here would not reach on their own."""
    whole = wire_floor(s, b, profiles)
    with pytest.MonkeyPatch.context() as m:
        m.setattr(masks, "FLOOR_BOX_MIN_ANCHORS", 0)
        return whole, wire_floor(s, b, profiles)


class TestWireFloor:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), side=st.sampled_from([8, 11, 14]),
           placed=st.integers(0, 9), data=st.data())
    def test_least_wire_where_the_block_fits(self, seed, side, placed, data):
        """For every shape the profiles cover (larger than the grid
        included), the floor is the least from-scratch wirelength growth
        over the anchors where the block fits clear of the placed blocks,
        inf when there is none, and the position mask over the shared fit
        test is byte for byte the rect-by-rect one."""
        c, _ = synth_instance(f"f{seed}", seed, n_blocks=10, counts=(4, 3, 4),
                              dims=GridDims(side, side, 2), fill=0.6)
        s = FloorplanState(c)
        rng = np.random.default_rng(seed)
        for b in s.order[:placed]:
            s.place(b, int(rng.integers(side - s.w[b] + 1)),
                    int(rng.integers(side - s.h[b] + 1)))
        b = s.order[placed]
        sizes = st.lists(st.integers(1, side + 2), min_size=1, max_size=3)
        widths, heights = data.draw(sizes), data.draw(sizes)
        profiles = wire_profiles(s, b, widths, heights)
        for w in widths:
            for h in heights:
                s.w[b], s.h[b] = w, h
                fits = oracles.looped_position_mask(s, b)
                assert position_mask(s, b).values.tobytes() == fits.tobytes(), (w, h)
                grow = oracles.wire_increase(s, b)[fits > 0]
                want = grow.min() if grow.size else math.inf
                assert floors(s, b, profiles) == (want, want), (w, h)

    def test_frozen_example(self):
        s = make_state([hard(0, 2, 2), hard(1, 1, 1)], {0: (0, 0)}, dims=(6, 6, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(1,), terminals=(0,)),))
        # growth (x + 0.5) + (y + 0.5); the cheapest free anchors are (2, 0), (0, 2)
        assert floors(s, 1, wire_profiles(s, 1, (1,), (1,))) == (3.0, 3.0)

    def test_floor_past_the_first_box(self):
        # growth (x + 0.5) + (y + 0.5); the first box, x and y up to 2,
        # fits only at (2, 2), growth 5, and the floor 4 lies outside it
        blockers = {0: (0, 0), 1: (0, 2), 2: (2, 0), 3: (1, 2), 4: (2, 1)}
        s = make_state([hard(0, 2, 2)] + [hard(b, 1, 1) for b in range(1, 6)],
                       blockers, dims=(8, 8, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(5,), terminals=(0,)),))
        pos = oracles.looped_position_mask(s, 5)
        want = oracles.wire_increase(s, 5)[pos > 0].min()
        assert floors(s, 5, wire_profiles(s, 5, (1,), (1,))) == (want, want)
        assert want == 4.0

    def test_block_that_fits_nowhere_is_inf(self):
        # one free row left, and the block is two cells tall
        s = make_state([hard(0, 4, 3), hard(1, 1, 2)], {0: (0, 1)}, dims=(4, 4, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(1,), terminals=(0,)),))
        assert floors(s, 1, wire_profiles(s, 1, (1,), (2,))) == (math.inf, math.inf)

    def test_shape_larger_than_the_grid_is_inf(self):
        s = make_state([hard(0, 5, 2)], {}, dims=(4, 4, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       nets=(Net(blocks=(0,), terminals=(0,)),))
        assert floors(s, 0, wire_profiles(s, 0, (5,), (2,))) == (math.inf, math.inf)


class TestBinarize:
    """Each rule's binarization sense, through `compile_masks` and the
    thresholds of the task profile."""

    def test_terminal_keeps_close_cells(self):
        s = make_state([hard(0, 1, 1)], {}, dims=(4, 4, 1),
                       terminals=(Terminal(0, "p", 0, 0, 0),),
                       constraints=ConstraintSet(
                           boundary_bindings=(BoundaryBinding(0, (0,)),)))
        xs, ys = np.meshgrid(np.arange(4), np.arange(4), indexing="ij")
        for threshold in (0.0, 2.0):
            profile = TaskProfile.for_task(1, terminal_mask_threshold=threshold)
            stack = compile_masks(s, 0, profile)
            assert np.array_equal(stack.rules["terminal"].values, xs + ys)
            assert np.array_equal(stack.availability.mask, xs + ys <= threshold)

    def test_grouping_zero_threshold_is_strict(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {1: (0, 0)}, dims=(6, 6, 1),
                       constraints=ConstraintSet(groups=((0, 1),)))
        pos = position_mask(s, 0).values > 0
        vals = adjacent_block_mask(s, 0, 1).values
        assert vals[2, 1] == 1.0 and vals[2, 0] == 2.0
        # strict at zero (no contact is out), inclusive above
        for threshold, kept in ((0.0, vals > 0), (1.0, vals >= 1), (2.0, vals >= 2)):
            profile = TaskProfile.for_task(2, block_mask_threshold=threshold)
            avail = compile_masks(s, 0, profile).availability
            assert avail.dropped == ()
            assert np.array_equal(avail.mask, pos & kept), threshold

    def test_alignment_keeps_high_cells(self):
        cons = ConstraintSet(alignment_pairs=(AlignmentPair(0, 1, 16.0),))
        s = make_state([hard(0, 4, 4, z=0), hard(1, 4, 4, z=1)], {1: (0, 0)},
                       constraints=cons)
        profile = TaskProfile.for_task(3, alignment_mask_frac=0.5)
        stack = compile_masks(s, 0, profile)
        vals = stack.rules["alignment"].values
        assert vals[2, 0] == 0.5 and vals[3, 0] == 0.25
        avail = stack.availability
        assert avail.allows(2, 0) and not avail.allows(3, 0)
        assert np.array_equal(avail.mask, (position_mask(s, 0).values > 0) & (vals >= 0.5))

    def test_position_passthrough(self):
        s = make_state([hard(0, 2, 2), hard(1, 3, 3)], {1: (2, 2)}, dims=(6, 6, 1))
        stack = compile_masks(s, 0, TaskProfile.for_task(3))
        assert list(stack.rules) == ["wire", "position"]
        assert np.array_equal(stack.availability.mask, stack.rules["position"].values)
        assert stack.availability.mask.dtype == np.uint8


class TestAvailability:
    def test_plain_conjunction(self):
        pos = np.ones((4, 4), dtype=np.uint8)
        term = np.zeros((4, 4), dtype=np.uint8)
        term[1, 1] = 1
        res = availability_mask(pos, [("terminal", term)])
        assert res.feasible and res.dropped == ()
        assert res.rung == "none"
        assert res.mask.sum() == 1 and res.allows(1, 1)

    def test_absent_rules_do_not_constrain(self):
        pos = np.ones((3, 3), dtype=np.uint8)
        res = availability_mask(pos, [])
        assert res.mask.sum() == 9

    def test_conflict_drops_grouping_keeps_others(self):
        # terminal wants the left edge, grouping wants the right: no overlap,
        # and the alignment mask agrees with the terminal choice
        pos = np.ones((6, 6), dtype=np.uint8)
        term = np.zeros_like(pos); term[0, :] = 1
        grp = np.zeros_like(pos); grp[5, :] = 1
        aln = np.zeros_like(pos); aln[0:2, :] = 1
        res = availability_mask(pos, [("terminal", term), ("grouping", grp),
                                      ("alignment", aln)])
        assert res.feasible
        assert res.dropped == ("grouping",)
        assert res.rung == "drop:grouping"
        assert np.array_equal(res.mask, term & aln & pos)

    def test_alignment_dropped_before_grouping(self):
        pos = np.ones((4, 4), dtype=np.uint8)
        grp = np.zeros_like(pos); grp[2, :] = 1
        aln = np.zeros_like(pos); aln[1, :] = 1
        res = availability_mask(pos, [("grouping", grp), ("alignment", aln)])
        assert res.dropped == ("alignment",)

    def test_terminal_survives_longest(self):
        pos = np.ones((4, 4), dtype=np.uint8)
        term = np.zeros_like(pos); term[0, 0] = 1
        grp = np.zeros_like(pos); grp[3, 3] = 1
        aln = np.zeros_like(pos); aln[2, 2] = 1
        res = availability_mask(pos, [("terminal", term), ("grouping", grp),
                                      ("alignment", aln)])
        assert res.feasible
        assert res.dropped == ("alignment", "grouping")
        assert res.mask[0, 0] == 1 and res.mask.sum() == 1

    def test_empty_position_is_infeasible(self):
        pos = np.zeros((4, 4), dtype=np.uint8)
        term = np.ones_like(pos)
        res = availability_mask(pos, [("terminal", term), ("grouping", term)])
        assert not res.feasible
        assert res.rung == "infeasible"
        assert res.dropped == ("grouping", "terminal")
        assert not res.mask.any() and res.mask.dtype == np.uint8

    def test_extras_dropped_first(self):
        pos = np.ones((4, 4), dtype=np.uint8)
        extra = np.zeros_like(pos); extra[0, 0] = 1
        aln = np.zeros_like(pos); aln[3, 3] = 1
        res = availability_mask(pos, [("alignment", aln), ("keep_close", extra)])
        assert res.dropped == ("keep_close",)
        assert res.mask[3, 3] == 1


@st.composite
def _availability_inputs(draw):
    shape = (draw(st.integers(1, 4)), draw(st.integers(1, 4)))
    cells = st.lists(st.booleans(), min_size=shape[0] * shape[1],
                     max_size=shape[0] * shape[1])

    def binary():
        return np.array(draw(cells), dtype=np.uint8).reshape(shape)

    # up to the three built-in rules plus eight plug-ins, most severe first
    ladder = [(f"rule{k}", binary()) for k in range(draw(st.integers(0, 11)))]
    return binary(), ladder


@given(_availability_inputs())
@settings(max_examples=300, deadline=None)
def test_availability_matches_subset_search(inputs):
    position, ladder = inputs
    res = availability_mask(position, ladder)
    mask, dropped, feasible = oracles.relaxed_availability(position, ladder[::-1])
    assert res.feasible == feasible
    assert res.dropped == dropped
    assert res.mask.dtype == mask.dtype == np.uint8
    assert np.array_equal(res.mask, mask)


class TestBlockDistancePlugin:
    def test_frozen_example(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {0: (0, 0)}, dims=(8, 8, 1))
        m = block_distance_mask(s, 1, 0)
        assert m.values[3, 0] == 3.0
        assert m.values[0, 0] == 0.0

    def test_every_cell_matches_center_distance(self):
        s = make_state([hard(0, 3, 2), hard(1, 2, 3)], {0: (2, 4)}, dims=(8, 8, 1))
        m = block_distance_mask(s, 1, 0)
        for x in range(8):
            for y in range(8):
                assert m.values[x, y] == oracles.center_distance(
                    (2, 4, 3, 2), (x, y, 2, 3))

    def test_plugin_protocol(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {0: (0, 0)}, dims=(8, 8, 1))
        rule = BlockDistanceRule(anchor=0, subject=1, max_distance=3.0)
        assert rule.applies_to(s, 1) and not rule.applies_to(s, 0)
        bin_mask = rule.binarize(rule.build(s, 1))
        assert bin_mask[3, 0] == 1 and bin_mask[4, 0] == 0
        s.place(1, 3, 0)
        assert rule.metric(s) == 3.0


class TestCompileMasks:
    def _fixture(self):
        blocks = [hard(0, 2, 2, z=0), hard(1, 2, 2, z=0), hard(2, 2, 2, z=1)]
        cons = ConstraintSet(
            alignment_pairs=(AlignmentPair(0, 2, 4.0),),
            groups=((0, 1),),
            boundary_bindings=(BoundaryBinding(0, (0,), "ALL"),),
        )
        terms = (Terminal(0, "p", 0, 0, 0),)
        nets = (Net(blocks=(0, 1), terminals=(0,)),)
        return blocks, cons, terms, nets

    def test_untouched_rules_stay_none(self):
        blocks, cons, terms, nets = self._fixture()
        s = make_state(blocks, {}, terminals=terms, nets=nets, constraints=cons)
        profile = TaskProfile.for_task(3)
        stack = compile_masks(s, 1, profile)   # block 1: group only, none placed
        assert list(stack.rules) == ["wire", "position", "grouping"]
        assert not stack.rules["grouping"].values.any()   # no mate placed yet
        # vacuous island does not constrain availability
        assert stack.availability.mask.sum() == stack.rules["position"].values.sum()

    def test_rules_disabled_by_profile(self):
        blocks, cons, terms, nets = self._fixture()
        s = make_state(blocks, {1: (4, 4), 2: (0, 0)}, terminals=terms,
                       nets=nets, constraints=cons)
        t2 = TaskProfile.for_task(2)   # no boundary rule
        stack = compile_masks(s, 0, t2)
        assert "terminal" not in stack.rules
        assert stack.rules["grouping"].values.any()

    def test_full_stack_conjunction(self):
        blocks, cons, terms, nets = self._fixture()
        s = make_state(blocks, {1: (2, 0), 2: (0, 0)}, terminals=terms,
                       nets=nets, constraints=cons)
        profile = TaskProfile.for_task(3)
        stack = compile_masks(s, 0, profile)
        res = stack.availability
        assert res.feasible and res.dropped == ()
        # anchor (0,0): touches terminal, abuts block 1, stacks on block 2
        assert res.allows(0, 0)
        for x in range(8):
            for y in range(8):
                if res.mask[x, y]:
                    assert oracles.terminal_distance((x, y, 2, 2), 0, 0) == 0
                    assert oracles.adjacency_length((x, y, 2, 2), s.rect(1)) > 0

    def test_plugins_join_the_stack(self):
        blocks, cons, terms, nets = self._fixture()
        s = make_state(blocks, {1: (2, 0)}, terminals=terms, nets=nets,
                       constraints=cons)
        rule = BlockDistanceRule(anchor=1, subject=0, max_distance=2.0)
        stack = compile_masks(s, 0, TaskProfile.for_task(3), plugins=(rule,))
        assert list(stack.rules) == ["wire", "position", "terminal", "grouping",
                                     rule.name]
        assert stack.named_value_masks() == list(stack.rules.items())

    def test_clashing_plugins_relax_first_listed_first(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2), hard(2, 2, 2)],
                       {1: (0, 0), 2: (10, 10)}, dims=(12, 12, 1))
        # no anchor lies within 2 of both blocks
        near1 = BlockDistanceRule(anchor=1, subject=0, max_distance=2.0)
        near2 = BlockDistanceRule(anchor=2, subject=0, max_distance=2.0)
        profile = TaskProfile.for_task(3)
        for plugins in ((near1, near2), (near2, near1)):
            stack = compile_masks(s, 0, profile, plugins=plugins)
            assert stack.availability.dropped == (plugins[0].name,)
            kept = plugins[1].binarize(stack.rules[plugins[1].name])
            assert np.array_equal(stack.availability.mask,
                                  (stack.rules["position"].values > 0) & kept)

    def test_duplicate_rule_names_rejected(self):
        blocks, cons, terms, nets = self._fixture()
        s = make_state(blocks, {1: (2, 0)}, terminals=terms, nets=nets,
                       constraints=cons)
        twice = (BlockDistanceRule(1, 0, 2.0), BlockDistanceRule(1, 0, 4.0))
        with pytest.raises(ValueError, match="two rules named"):
            compile_masks(s, 0, TaskProfile.for_task(3), plugins=twice)
        shadow = BlockDistanceRule(1, 0, 2.0)
        shadow.name = "position"
        with pytest.raises(ValueError, match="two rules named 'position'"):
            compile_masks(s, 0, TaskProfile.for_task(3), plugins=(shadow,))
        # a plug-in that does not bind the block takes no name from it
        other = BlockDistanceRule(1, 2, 2.0)
        other.name = twice[0].name
        stack = compile_masks(s, 0, TaskProfile.for_task(3), plugins=(twice[0], other))
        assert twice[0].name in stack.rules
