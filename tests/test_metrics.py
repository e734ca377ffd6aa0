import dataclasses
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
    Preplacement,
    Terminal,
)
from stackfp.geometry import abutment, alignment_ratio, rim_distance
from stackfp.metrics import (
    MetricTuple,
    metric_snapshot,
    normalize,
    satisfaction_counts,
    total_hpwl,
    total_overlap,
)

import oracles

ZERO = MetricTuple(0.0, 0.0, 0.0, 0.0, 0.0)


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


# The rule geometry that metrics and masks share, kernel by kernel, against
# the brute-force references.

def rim(rect, tx, ty):
    return int(rim_distance(*rect, tx, ty))


class TestTerminalDistance:
    def test_frozen_examples(self):
        assert rim((2, 2, 3, 2), 0, 3) == 2 == oracles.terminal_distance((2, 2, 3, 2), 0, 3)
        assert rim((2, 2, 3, 2), 6, 0) == 4 == oracles.terminal_distance((2, 2, 3, 2), 6, 0)

    def test_on_rim_is_zero(self):
        assert rim((1, 1, 3, 3), 1, 2) == 0 == oracles.terminal_distance((1, 1, 3, 3), 1, 2)

    def test_interior_counts_to_rim(self):
        # 5x5 block, terminal dead center: two cells from every edge row
        assert rim((0, 0, 5, 5), 2, 2) == 2 == oracles.terminal_distance((0, 0, 5, 5), 2, 2)

    def test_matches_edge_cell_oracle(self):
        rng = np.random.default_rng(11)
        for _ in range(200):
            w, h = int(rng.integers(1, 6)), int(rng.integers(1, 6))
            x, y = int(rng.integers(-2, 10)), int(rng.integers(-2, 10))
            tx, ty = int(rng.integers(0, 10)), int(rng.integers(0, 10))
            assert rim((x, y, w, h), tx, ty) == \
                oracles.terminal_distance((x, y, w, h), tx, ty)


class TestAdjacency:
    def test_frozen_examples(self):
        for (pos, expect) in [((2, 0), 2), ((2, 1), 1), ((3, 0), 0)]:
            assert abutment(0, 0, 2, 2, *pos, 2, 2) == expect == \
                oracles.adjacency_length((0, 0, 2, 2), (*pos, 2, 2))

    def test_corner_touch_is_zero(self):
        assert abutment(0, 0, 2, 2, 2, 2, 2, 2) == 0 == \
            oracles.adjacency_length((0, 0, 2, 2), (2, 2, 2, 2))

    def test_symmetry_and_oracle_all_placements(self):
        # every in-bounds placement of a 2x3 and a 2x2 block on an 8x8 layer
        for x1 in range(7):
            for y1 in range(6):
                for x2 in range(7):
                    for y2 in range(7):
                        got = abutment(x1, y1, 2, 3, x2, y2, 2, 2)
                        assert got == abutment(x2, y2, 2, 2, x1, y1, 2, 3)
                        assert got == oracles.adjacency_length(
                            (x1, y1, 2, 3), (x2, y2, 2, 2))

    def test_positive_adjacency_implies_no_overlap(self):
        for x2 in range(7):
            for y2 in range(7):
                if abutment(3, 3, 2, 3, x2, y2, 2, 2) > 0:
                    assert oracles.overlap_cells((3, 3, 2, 3), (x2, y2, 2, 2)) == 0


class TestAlignment:
    def test_frozen_examples(self):
        assert alignment_ratio(0, 0, 4, 4, 2, 0, 4, 4, 16.0) == 0.5 == \
            oracles.alignment_fraction((0, 0, 4, 4), (2, 0, 4, 4), 16.0)
        assert alignment_ratio(0, 0, 4, 4, 0, 0, 4, 4, 16.0) == 1.0

    def test_saturates_at_one(self):
        assert alignment_ratio(0, 0, 4, 4, 0, 0, 4, 4, 4.0) == 1.0 == \
            oracles.alignment_fraction((0, 0, 4, 4), (0, 0, 4, 4), 4.0)

    def test_monotone_in_offset(self):
        scores = [float(alignment_ratio(0, 0, 4, 4, dx, 0, 4, 4, 16.0))
                  for dx in range(6)]
        assert scores == sorted(scores, reverse=True)
        assert scores == [oracles.alignment_fraction((0, 0, 4, 4), (dx, 0, 4, 4), 16.0)
                          for dx in range(6)]

    def test_matches_raster_oracle(self):
        rng = np.random.default_rng(3)
        for _ in range(100):
            r1 = (int(rng.integers(0, 5)), int(rng.integers(0, 5)),
                  int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            r2 = (int(rng.integers(0, 5)), int(rng.integers(0, 5)),
                  int(rng.integers(1, 5)), int(rng.integers(1, 5)))
            m = min(r1[2] * r1[3], r2[2] * r2[3])
            assert alignment_ratio(*r1, *r2, m) == oracles.alignment_fraction(r1, r2, m)


class TestHpwl:
    def test_block_and_terminal(self):
        # 2x2 block at (1,2): center (2,3); terminal at (5,1)
        s = make_state([hard(0, 2, 2)], {0: (1, 2)},
                       terminals=(Terminal(0, "p", 5, 1, 0),),
                       nets=(Net(blocks=(0,), terminals=(0,)),))
        assert total_hpwl(s) == 5.0

    def test_terminals_only(self):
        s = make_state([hard(0, 2, 2)], {},
                       terminals=(Terminal(0, "p", 0, 0, 0), Terminal(1, "q", 3, 4, 0)),
                       nets=(Net(blocks=(), terminals=(0, 1)),))
        assert total_hpwl(s) == 7.0

    def test_unplaced_blocks_do_not_count(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {0: (0, 0)},
                       nets=(Net(blocks=(0, 1)),))
        assert total_hpwl(s) == 0.0

    def test_placing_never_shrinks(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            blocks = [hard(i, int(rng.integers(1, 3)), int(rng.integers(1, 3)))
                      for i in range(4)]
            nets = (Net(blocks=(0, 1, 2)), Net(blocks=(1, 3), terminals=(0,)))
            s = make_state(blocks, {}, dims=(10, 10, 1),
                           terminals=(Terminal(0, "p", 9, 9, 0),), nets=nets)
            prev = total_hpwl(s)
            for b in blocks:
                s.place(b.id, int(rng.integers(0, 8)), int(rng.integers(0, 8)))
                cur = total_hpwl(s)
                assert cur >= prev - 1e-12
                prev = cur

    def test_member_order_irrelevant(self):
        terms = (Terminal(0, "p", 1, 7, 0), Terminal(1, "q", 6, 2, 0))
        a = make_state([hard(0, 2, 2), hard(1, 3, 1)], {0: (0, 0), 1: (4, 4)},
                       terminals=terms, nets=(Net(blocks=(0, 1), terminals=(0, 1)),))
        b = make_state([hard(0, 2, 2), hard(1, 3, 1)], {0: (0, 0), 1: (4, 4)},
                       terminals=terms, nets=(Net(blocks=(1, 0), terminals=(1, 0)),))
        assert total_hpwl(a) == total_hpwl(b)


class TestOverlap:
    def test_frozen_example(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {0: (0, 0), 1: (1, 1)})
        assert total_overlap(s) == 1

    def test_identical_position_full_overlap(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2)], {0: (0, 0), 1: (0, 0)})
        assert total_overlap(s) == 4

    def test_cross_layer_pairs_ignored(self):
        s = make_state([hard(0, 2, 2, z=0), hard(1, 2, 2, z=1)], {0: (0, 0), 1: (0, 0)})
        assert total_overlap(s) == 0

    def test_oracle_all_placements(self):
        for x2 in range(7):
            for y2 in range(6):
                s = make_state([hard(0, 3, 2), hard(1, 2, 3)],
                               {0: (2, 2), 1: (x2, y2)}, dims=(8, 8, 1))
                assert total_overlap(s) == \
                    oracles.overlap_cells((2, 2, 3, 2), (x2, y2, 2, 3))

    def test_three_way_sums_pairs(self):
        s = make_state([hard(0, 2, 2), hard(1, 2, 2), hard(2, 2, 2)],
                       {0: (0, 0), 1: (1, 1), 2: (1, 0)}, dims=(8, 8, 1))
        expect = (oracles.overlap_cells((0, 0, 2, 2), (1, 1, 2, 2))
                  + oracles.overlap_cells((0, 0, 2, 2), (1, 0, 2, 2))
                  + oracles.overlap_cells((1, 1, 2, 2), (1, 0, 2, 2)))
        assert total_overlap(s) == expect


class TestNormalize:
    def test_frozen_values(self):
        c = Circuit("t", GridDims(128, 128, 2),
                    tuple(hard(i, 3, 3) for i in range(5)), (), (), utilization=1.0)
        # blocks above have area 9 each, so the mean area is 9
        m = MetricTuple(alignment=0.7, hpwl=50.0, overlap=18.0, adjacency=3.0,
                        distance=64.0)
        n = normalize(m, c, hpwl_baseline=100.0)
        assert n.distance == 0.5          # 64 / ((128+128)/2)
        assert n.adjacency == 1.0         # 3 / sqrt(9)
        assert n.overlap == 2.0           # 18 / 9
        assert n.hpwl == 0.5
        assert n.alignment == 0.7
        assert n.normalized

    def test_double_normalize_rejected(self):
        c = Circuit("t", GridDims(8, 8, 1), (hard(0, 2, 2),), (), (), utilization=1.0)
        n = normalize(ZERO, c, 1.0)
        with pytest.raises(ValueError, match="already"):
            normalize(n, c, 1.0)

    def test_baseline_must_be_positive(self):
        c = Circuit("t", GridDims(8, 8, 1), (hard(0, 2, 2),), (), (), utilization=1.0)
        with pytest.raises(ValueError, match="baseline"):
            normalize(ZERO, c, 0.0)


class TestSnapshotAndSatisfaction:
    def _full_circuit(self):
        blocks = [hard(0, 2, 2, z=0), hard(1, 2, 2, z=0),
                  hard(2, 2, 2, z=1), hard(3, 2, 2, z=0)]
        cons = ConstraintSet(
            alignment_pairs=(AlignmentPair(0, 2, 4.0),),
            groups=((0, 1),),
            boundary_bindings=(BoundaryBinding(3, (0,), "ALL"),),
            preplacements=(Preplacement(3, 0, 4, 0, 2, 2),),
        )
        terms = (Terminal(0, "p", 0, 4, 0),)
        return blocks, cons, terms

    def test_snapshot_partial_counts_zero(self):
        blocks, cons, terms = self._full_circuit()
        s = make_state(blocks, {0: (0, 0)}, terminals=terms, constraints=cons)
        m = metric_snapshot(s)
        assert m.alignment == 0.0 and m.adjacency == 0.0 and m.distance == 0.0

    def test_snapshot_full(self):
        blocks, cons, terms = self._full_circuit()
        s = make_state(blocks, {0: (0, 0), 1: (2, 0), 2: (0, 0), 3: (0, 4)},
                       terminals=terms, constraints=cons)
        m = metric_snapshot(s)
        assert m.alignment == 1.0       # stacked exactly
        assert m.adjacency == 2.0       # shared edge of length 2
        assert m.distance == 0.0        # terminal on the rim
        assert m.overlap == 0.0

    def test_satisfaction_full_pass(self):
        blocks, cons, terms = self._full_circuit()
        s = make_state(blocks, {0: (0, 0), 1: (2, 0), 2: (0, 0), 3: (0, 4)},
                       terminals=terms, constraints=cons)
        counts = satisfaction_counts(s)
        assert counts["boundary"] == (1, 1)
        assert counts["grouping"] == (1, 1)
        assert counts["alignment"] == (1, 1)
        assert counts["preplace"] == (1, 1)
        assert counts["overlap"] == (3, 3)   # three same-layer pairs on z=0
        assert counts["outline"] == (4, 4)
        assert counts["shape"] == (0, 0)     # all blocks hard

    def test_satisfaction_halfway_abutment_fails(self):
        # shared edge of 1 equals half the facing edge 2: not strictly more
        blocks = [hard(0, 2, 2), hard(1, 2, 2)]
        cons = ConstraintSet(groups=((0, 1),))
        s = make_state(blocks, {0: (0, 0), 1: (2, 1)}, constraints=cons)
        assert satisfaction_counts(s)["grouping"] == (0, 1)
        s = make_state(blocks, {0: (0, 0), 1: (2, 0)}, constraints=cons)
        assert satisfaction_counts(s)["grouping"] == (1, 1)

    def test_satisfaction_alignment_needs_majority_overlap(self):
        blocks = [hard(0, 4, 4, z=0), hard(1, 4, 4, z=1)]
        cons = ConstraintSet(alignment_pairs=(AlignmentPair(0, 1, 16.0),))
        s = make_state(blocks, {0: (0, 0), 1: (2, 0)}, constraints=cons)
        # intersection 8 equals 0.5*16: not strictly more, fails
        assert satisfaction_counts(s)["alignment"] == (0, 1)
        s = make_state(blocks, {0: (0, 0), 1: (1, 0)}, constraints=cons)
        assert satisfaction_counts(s)["alignment"] == (1, 1)

    def test_unplaced_constrained_block_rejected(self):
        blocks, cons, terms = self._full_circuit()
        s = make_state(blocks, {0: (0, 0), 1: (2, 0), 2: (0, 0)},
                       terminals=terms, constraints=cons)
        with pytest.raises(ValueError, match="not placed"):
            satisfaction_counts(s)

    def test_binding_modes(self):
        terms = (Terminal(0, "p", 0, 0, 0), Terminal(1, "q", 7, 7, 0))
        blocks = [hard(0, 2, 2)]
        cons_all = ConstraintSet(boundary_bindings=(BoundaryBinding(0, (0, 1), "ALL"),))
        cons_any = ConstraintSet(boundary_bindings=(BoundaryBinding(0, (0, 1), "ANY"),))
        s = make_state(blocks, {0: (0, 0)}, terminals=terms, constraints=cons_all)
        # worst terminal: (7,7) to nearest edge cell (1,1) is 12
        assert metric_snapshot(s).distance == 12 == \
            oracles.binding_distance(s, cons_all.boundary_bindings[0])
        s = make_state(blocks, {0: (0, 0)}, terminals=terms, constraints=cons_any)
        assert metric_snapshot(s).distance == 0 == \
            oracles.binding_distance(s, cons_any.boundary_bindings[0])

    def test_soft_shape_band(self):
        b = Block(0, "s", 16, 4, 4, 0.5, 2.0, True, 0)
        c = Circuit("t", GridDims(8, 8, 1), (b,), (), (), utilization=1.0)
        s = FloorplanState(c)
        s.place(0, 0, 0)
        assert satisfaction_counts(s)["shape"] == (1, 1)
        s2 = FloorplanState(c)
        s2.w[0], s2.h[0] = 8, 2        # flat strip outside the band
        s2.place(0, 0, 0)
        assert satisfaction_counts(s2)["shape"] == (0, 1)


@given(st.integers(0, 6), st.integers(0, 6), st.integers(1, 4), st.integers(1, 4),
       st.integers(0, 9), st.integers(0, 9))
@settings(max_examples=200, deadline=None)
def test_terminal_distance_property(x, y, w, h, tx, ty):
    assert rim((x, y, w, h), tx, ty) == oracles.terminal_distance((x, y, w, h), tx, ty)


@st.composite
def _partial_instances(draw):
    """A random 2-layer circuit with random pairs, groups and ALL/ANY
    bindings, some of its blocks placed anywhere on the grid (overlaps
    allowed)."""
    side = 10
    n = draw(st.integers(2, 8))
    blocks = [Block(i, f"b{i}", 1, 1, 1, 1.0, 1.0, False, draw(st.integers(0, 1)))
              for i in range(n)]
    shapes = [(draw(st.integers(1, 4)), draw(st.integers(1, 4))) for _ in range(n)]
    blocks = [dataclasses.replace(b, area=w * h, w=w, h=h) for b, (w, h) in zip(blocks, shapes)]
    terminals = tuple(Terminal(t, f"p{t}", draw(st.integers(0, side - 1)),
                               draw(st.integers(0, side - 1)), 0)
                      for t in range(draw(st.integers(1, 4))))
    free = draw(st.permutations(range(n)))
    pairs, used = [], set()
    for a in free:
        for b in free:
            if a not in used and b not in used and blocks[a].z != blocks[b].z \
                    and draw(st.booleans()):
                pairs.append(AlignmentPair(a, b, float(draw(st.integers(1, 8)))))
                used |= {a, b}
    groups = []
    for z in (0, 1):
        members = [b.id for b in blocks if b.z == z]
        k = draw(st.integers(0, len(members)))
        if k >= 2:
            groups.append(tuple(members[:k]))
    bindings = tuple(
        BoundaryBinding(b, tuple(draw(st.lists(st.integers(0, len(terminals) - 1),
                                               min_size=1, max_size=3, unique=True))),
                        draw(st.sampled_from(["ALL", "ANY"])))
        for b in range(n) if draw(st.booleans()))
    nets = tuple(Net(blocks=tuple(draw(st.lists(st.integers(0, n - 1), max_size=3, unique=True))),
                     terminals=(t,))
                 for t in range(len(terminals)))
    cons = ConstraintSet(alignment_pairs=tuple(pairs), groups=tuple(groups),
                         boundary_bindings=bindings)
    placements = {b: (draw(st.integers(0, side - w)), draw(st.integers(0, side - h)))
                  for b, (w, h) in enumerate(shapes) if draw(st.booleans())}
    return make_state(blocks, placements, terminals=terminals, nets=nets,
                      dims=(side, side, 2), constraints=cons)


@given(_partial_instances())
@settings(max_examples=200, deadline=None)
def test_snapshot_and_satisfaction_match_oracles(s):
    c = s.circuit
    cons = c.constraints
    placed = {i: s.rect(i) for i in s.placed_ids()}

    group_pairs = [(g[i], g[j]) for g in cons.groups
                   for i in range(len(g)) for j in range(i + 1, len(g))]
    m = metric_snapshot(s)
    aln = [oracles.alignment_fraction(placed[p.a], placed[p.b], p.min_area)
           if p.a in placed and p.b in placed else 0.0 for p in cons.alignment_pairs]
    assert m.alignment == (sum(aln) / len(aln) if aln else 0.0)
    adj = [oracles.adjacency_length(placed[a], placed[b])
           for a, b in group_pairs if a in placed and b in placed]
    assert m.adjacency == (sum(adj) / len(group_pairs) if group_pairs else 0.0)
    dist = [oracles.binding_distance(s, bb) for bb in cons.boundary_bindings if bb.block in placed]
    assert m.distance == (sum(dist) / len(cons.boundary_bindings)
                          if cons.boundary_bindings else 0.0)
    points = [[(float(c.terminals[t].x), float(c.terminals[t].y)) for t in net.terminals]
              + [(placed[b][0] + placed[b][2] / 2, placed[b][1] + placed[b][3] / 2)
                 for b in net.blocks if b in placed]
              for net in c.nets]
    assert m.hpwl == oracles.hpwl(points)
    layer_pairs = [(i, j) for i in placed for j in placed
                   if i < j and c.blocks[i].z == c.blocks[j].z]
    overlaps = [oracles.overlap_cells(placed[i], placed[j]) for i, j in layer_pairs]
    assert m.overlap == sum(overlaps)

    required = ({b for p in cons.alignment_pairs for b in (p.a, p.b)}
                | {b for g in cons.groups for b in g}
                | {bb.block for bb in cons.boundary_bindings})
    if not required <= placed.keys():
        with pytest.raises(ValueError, match="not placed"):
            satisfaction_counts(s)
        return
    counts = satisfaction_counts(s)

    def facing_edge(r1, r2):
        if r1[0] + r1[2] == r2[0] or r2[0] + r2[2] == r1[0]:
            return min(r1[3], r2[3])
        return min(r1[2], r2[2])

    abut = [oracles.adjacency_length(placed[a], placed[b]) for a, b in group_pairs]
    assert counts["grouping"] == (
        sum(1 for (a, b), k in zip(group_pairs, abut)
            if k > 0 and k > 0.5 * facing_edge(placed[a], placed[b])),
        len(group_pairs))
    assert counts["boundary"] == (
        sum(1 for bb in cons.boundary_bindings if oracles.binding_distance(s, bb) <= 0),
        len(cons.boundary_bindings))
    assert counts["alignment"] == (
        sum(1 for p in cons.alignment_pairs
            if oracles.overlap_cells(placed[p.a], placed[p.b])
            > 0.5 * min(c.blocks[p.a].area, c.blocks[p.b].area)),
        len(cons.alignment_pairs))
    assert counts["overlap"] == (sum(1 for k in overlaps if k == 0), len(layer_pairs))
    inside = [r for r in placed.values()
              if r[0] + r[2] <= c.dims.width and r[1] + r[3] <= c.dims.height]
    assert counts["outline"] == (len(inside), len(placed))
