"""Acceptance suite: one test per release criterion.

Every test pins its tolerance and wall-clock budget inline.  conftest prints
a one-line verdict per criterion at the end of the run.
"""

import dataclasses
import math
import time

import numpy as np

import conftest
import oracles
from stackfp import (
    COMMON_RULES,
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
from stackfp.cli import main as cli_main
from stackfp.env import compute_rewards, weighted_score
from stackfp.fileio import synth_instance
from stackfp.masks import (
    adjacent_block_mask,
    adjacent_terminal_mask,
    alignment_mask,
    block_distance_mask,
    position_mask,
    wire_mask,
)
from stackfp.metrics import (
    ALIGNMENT_FRAC,
    MetricTuple,
    satisfaction_counts,
    total_overlap,
)
from stackfp.solvers import SolverConfig, greedy_place, solve


def test_c1_mask_cells_equal_forced_placement_metrics():
    """Every mask type, 200 random configurations, every cell: the mask
    value equals the brute-force reference (`oracles`) measured on the
    block forced to that anchor."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(11)
    for _ in range(200):
        wide = int(rng.integers(4, 17))
        high = int(rng.integers(4, 17))
        dims = GridDims(wide, high, 2)
        sw, sh = int(rng.integers(1, 5)), int(rng.integers(1, 5))
        blocks = [Block(0, "b0", sw * sh, sw, sh, 1.0, 1.0, False, 0)]
        placements = {}
        for i in range(1, int(rng.integers(1, 4)) + 1):
            w, h = int(rng.integers(1, 5)), int(rng.integers(1, 5))
            z = int(rng.integers(0, 2))
            blocks.append(Block(i, f"b{i}", w * h, w, h, 1.0, 1.0, False, z))
            placements[i] = (int(rng.integers(0, wide - w + 1)),
                             int(rng.integers(0, high - h + 1)))
        term = Terminal(0, "p0", int(rng.integers(0, wide)),
                        int(rng.integers(0, high)), 0)
        nets = [Net(blocks=tuple(range(len(blocks))), terminals=(0,))]
        if len(placements) >= 2 and rng.random() < 0.5:
            nets.append(Net(blocks=(0, 1)))
        circuit = Circuit("cfg", dims, tuple(blocks), (term,), tuple(nets),
                          utilization=1.0)
        state = FloorplanState(circuit)
        for bid, (x, y) in placements.items():
            state.place(bid, x, y, validate=False)

        rect = {i: state.rect(i) for i in placements}
        same = [i for i in placements if circuit.blocks[i].z == 0]
        cross = [i for i in placements if circuit.blocks[i].z == 1]
        min_area = {j: float(min(circuit.blocks[0].area,
                                 circuit.blocks[j].area)) for j in cross}
        term_m = adjacent_terminal_mask(state, BoundaryBinding(0, (0,)))
        pos_m = position_mask(state, 0)
        adj_m = {i: adjacent_block_mask(state, 0, i) for i in same}
        aln_m = {j: alignment_mask(state, 0, j, min_area[j]) for j in cross}
        dist_m = {i: block_distance_mask(state, 0, i) for i in placements}
        assert np.array_equal(wire_mask(state, 0).values,
                              oracles.wire_increase(state, 0))

        for x in range(wide):
            for y in range(high):
                at = (x, y, sw, sh)
                assert term_m.values[x, y] == \
                    oracles.terminal_distance(at, term.x, term.y)
                assert pos_m.values[x, y] == oracles.position_ok(
                    at, wide, high, [rect[i] for i in same])
                for i in same:
                    assert adj_m[i].values[x, y] == \
                        oracles.adjacency_length(at, rect[i])
                for j in cross:
                    assert aln_m[j].values[x, y] == \
                        oracles.alignment_fraction(at, rect[j], min_area[j])
                for i, mask in dist_m.items():
                    assert mask.values[x, y] == oracles.center_distance(at, rect[i])
    assert time.perf_counter() - t0 < 10.0


def test_c2_bound_blocks_touch_terminals_without_relaxation():
    """Greedy at the strict distance threshold puts every bound block at
    distance zero on 20 seeded instances, and never needs to relax."""
    t0 = time.perf_counter()
    profile = TaskProfile.for_task(1)
    assert profile.terminal_mask_threshold == 0.0
    firings = 0
    checked = 0
    for seed in range(20):
        circuit, _ = synth_instance(f"i{seed}", seed)
        res = greedy_place(circuit, profile)
        firings += res.summary.rung_events
        if res.summary.rung_events == 0:
            for bb in circuit.constraints.boundary_bindings:
                assert oracles.binding_distance(res.state, bb) == 0, (seed, bb.block)
                checked += 1
    conftest.acceptance_notes[2] = \
        f"rung firings {firings}, bindings checked {checked}"
    assert checked == 20 * 5
    assert firings == 0
    assert time.perf_counter() - t0 < 60.0


def test_c3_every_solver_run_ends_overlap_free_and_in_bounds():
    """Greedy, annealing and random across 100 seeds each: overlap exactly
    zero, all blocks placed inside the outline."""
    t0 = time.perf_counter()
    circuit, _ = synth_instance("i0", 0)
    profile = TaskProfile.for_task(3)
    dims = circuit.dims
    for kind in ("greedy", "sa", "random"):
        for seed in range(100):
            cfg = SolverConfig(kind, seed=seed, sa_iterations=60,
                               sa_calibration_moves=20)
            res = solve(circuit, profile, cfg)
            assert bool(np.all(res.state.placed)), (kind, seed)
            assert total_overlap(res.state) == 0, (kind, seed)
            for b in circuit.blocks:
                x, y, w, h = res.state.rect(b.id)
                assert 0 <= x and 0 <= y, (kind, seed, b.id)
                assert x + w <= dims.width, (kind, seed, b.id)
                assert y + h <= dims.height, (kind, seed, b.id)
    assert time.perf_counter() - t0 < 300.0


def test_c4_grouping_masks_at_least_double_adjacency():
    """Mean normalized adjacency with grouping masks on is at least twice
    the mean with availability blind to groups, over 20 instances."""
    t0 = time.perf_counter()
    profile = TaskProfile.for_task(2)
    blind = dataclasses.replace(profile, enabled_rules=COMMON_RULES)
    with_masks = []
    without = []
    for seed in range(20):
        circuit, _ = synth_instance(f"i{seed}", seed)
        with_masks.append(greedy_place(circuit, profile).summary.norm.adjacency)
        without.append(greedy_place(circuit, blind).summary.norm.adjacency)
    on_mean = sum(with_masks) / len(with_masks)
    off_mean = sum(without) / len(without)
    conftest.acceptance_notes[4] = f"adjacency {on_mean:.3f} vs {off_mean:.3f}"
    assert on_mean > off_mean
    assert on_mean >= 2.0 * off_mean
    assert time.perf_counter() - t0 < 120.0


def hard(bid, w, h, z):
    return Block(bid, f"b{bid}", w * h, w, h, 1.0, 1.0, False, z)


def soft(bid, area, z):
    w = max(1, round(math.sqrt(area)))
    h = max(1, math.ceil(area / w))
    return Block(bid, f"b{bid}", area, w, h, 0.5, 2.0, True, z)


def paired(blocks, pairing):
    by = {b.id: b for b in blocks}
    return ConstraintSet(alignment_pairs=tuple(
        AlignmentPair(a, b, float(min(by[a].area, by[b].area)))
        for a, b in pairing))


def stackable_fixtures():
    """Circuits whose alignment pairs can all beat the half-area threshold:
    compatible shapes and room to stack."""
    a = [hard(0, 4, 4, 0), hard(1, 4, 4, 1), hard(2, 4, 4, 0),
         hard(3, 4, 4, 1), hard(4, 4, 4, 0), hard(5, 4, 4, 1)]
    yield Circuit("equal-pairs", GridDims(16, 16, 2), tuple(a), (), (),
                  paired(a, [(0, 1), (2, 3), (4, 5)]), utilization=1.0)
    b = [hard(0, 3, 5, 0), hard(1, 4, 4, 1), hard(2, 4, 3, 0),
         hard(3, 5, 3, 1), hard(4, 3, 3, 0), hard(5, 2, 2, 1)]
    yield Circuit("unequal-pairs", GridDims(14, 14, 2), tuple(b), (), (),
                  paired(b, [(0, 1), (2, 3)]), utilization=1.0)
    c = [soft(0, 16, 0), soft(1, 12, 1), soft(2, 20, 0), soft(3, 20, 1),
         hard(4, 3, 3, 0)]
    terms = (Terminal(0, "p0", 0, 0, 0), Terminal(1, "p1", 13, 13, 1))
    nets = (Net(blocks=(0, 1), terminals=(0,)),
            Net(blocks=(2, 3), terminals=(1,)),
            Net(blocks=(4,), terminals=(0,)))
    yield Circuit("soft-pairs", GridDims(14, 14, 2), tuple(c), terms, nets,
                  paired(c, [(0, 1), (2, 3)]), utilization=1.0)


def test_c5_alignment_pairs_all_satisfied_on_stackable_fixtures():
    """With the availability floor at a tenth of the smaller pair area and
    pair min_area equal to it, greedy satisfies every alignment pair under
    the half-area threshold wherever a full stack exists."""
    t0 = time.perf_counter()
    profile = TaskProfile.for_task(1)
    assert profile.alignment_mask_frac == 0.1
    assert ALIGNMENT_FRAC == 0.5
    for circuit in stackable_fixtures():
        res = greedy_place(circuit, profile)
        got, total = satisfaction_counts(res.state)["alignment"]
        assert total == len(circuit.constraints.alignment_pairs)
        assert (got, total) == (total, total), circuit.name
    assert time.perf_counter() - t0 < 60.0


def test_c6_rewards_telescope_to_weighted_final_score():
    """1000 random traces: the rewards sum to the weighted metric one step
    before the end plus length times the final weighted score, to 1e-9."""
    t0 = time.perf_counter()
    rng = np.random.default_rng(6)
    for _ in range(1000):
        steps = int(rng.integers(1, 13))
        seq = []
        for _ in range(steps):
            v = rng.uniform(0.0, 2.0, 5)
            seq.append(MetricTuple(alignment=float(v[0]), hpwl=float(v[1]),
                                   overlap=float(v[2]), adjacency=float(v[3]),
                                   distance=float(v[4]), normalized=True))
        w = rng.uniform(0.0, 5.0, 5)
        profile = TaskProfile.for_task(1, w_alignment=float(w[0]),
                                       w_overlap=float(w[1]),
                                       w_hpwl=float(w[2]),
                                       w_adjacency=float(w[3]),
                                       w_distance=float(w[4]))
        rewards = compute_rewards(seq, profile)
        bonus = weighted_score(seq[-1], profile)
        before_last = weighted_score(seq[-2], profile) if steps > 1 else 0.0
        assert abs(sum(rewards) - (before_last + steps * bonus)) <= 1e-9
    assert time.perf_counter() - t0 < 5.0


def test_c7_annealing_never_ends_above_its_greedy_start():
    """On ten instances the best annealing cost never exceeds greedy's, and
    the best-so-far curve never rises."""
    t0 = time.perf_counter()
    profile = TaskProfile.for_task(3)
    for seed in range(10):
        circuit, _ = synth_instance(f"i{seed}", seed)
        greedy = solve(circuit, profile, SolverConfig("greedy"))
        annealed = solve(circuit, profile,
                         SolverConfig("sa", seed=seed, sa_iterations=60,
                                      sa_calibration_moves=20))
        assert annealed.cost <= greedy.cost, seed
        curve = annealed.cost_curve
        assert curve and curve[-1] == annealed.cost
        assert all(b <= a for a, b in zip(curve, curve[1:])), seed
    assert time.perf_counter() - t0 < 300.0


def test_c8_bench_reruns_are_byte_identical(tmp_path):
    """Two bench invocations with the same seeds write identical bytes for
    every report and placement, serial or parallel."""
    t0 = time.perf_counter()
    args = ["bench", "--instances", "2", "--seeds", "2", "--tasks", "1,2,3",
            "--solvers", "greedy,sa,random", "--sa-iterations", "40"]
    assert cli_main([*args, "--out", str(tmp_path / "a")]) == 0
    assert cli_main([*args, "--out", str(tmp_path / "b"), "--jobs", "2"]) == 0
    first = sorted((tmp_path / "a").iterdir())
    second = sorted((tmp_path / "b").iterdir())
    assert [p.name for p in first] == [p.name for p in second]
    assert any(p.name == "report.csv" for p in first)
    assert any(p.name.endswith(".placement.json") for p in first)
    for pa, pb in zip(first, second):
        assert pa.read_bytes() == pb.read_bytes(), pa.name
    assert time.perf_counter() - t0 < 300.0
