import dataclasses
import json
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
    FloorplanError,
    GridDims,
    InfeasibleError,
    InvalidActionError,
    Net,
    Preplacement,
    SolverConfig,
    TaskProfile,
    Terminal,
    greedy_place,
    objective_cost,
    random_place,
    sa_place,
    solve,
    total_overlap,
    wire_greedy_baseline,
)
from stackfp import env as envmod
from stackfp import solvers
from stackfp.core import default_order, shape_from_ar
from stackfp.env import PlacementEnv
from stackfp.fileio import synth_instance
from stackfp.masks import BlockDistanceRule, compile_masks, wire_profiles
from stackfp.metrics import metric_snapshot, normalize
from stackfp.solvers import _propose, ar_candidate_ladder


def soft(bid, area, w, h, z=0):
    return Block(bid, f"b{bid}", area, w, h, 0.5, 2.0, True, z)


def hard(bid, w, h, z=0):
    return Block(bid, f"b{bid}", w * h, w, h, 1.0, 1.0, False, z)


def demo_circuit():
    """Terminal-bound block, a group, a cross-layer pair: the workhorse."""
    blocks = (
        soft(0, 24, 6, 4, 0),
        soft(1, 12, 3, 4, 0),
        hard(2, 4, 4, 1),
        hard(3, 2, 3, 1),
    )
    terms = (Terminal(0, "t0", 0, 0, 0),)
    cons = ConstraintSet(
        alignment_pairs=(AlignmentPair(0, 2, 16.0),),
        groups=((0, 1),),
        boundary_bindings=(BoundaryBinding(0, (0,), "ALL"),),
    )
    nets = (Net(blocks=(0, 1), terminals=(0,)), Net(blocks=(2, 3)))
    return Circuit("demo", GridDims(16, 16, 2), blocks, terms, nets, cons,
                   utilization=1.0)


class TestArLadder:
    def test_hard_block_has_no_candidates(self):
        assert ar_candidate_ladder(hard(0, 3, 3)) == []

    @settings(max_examples=80, deadline=None, derandomize=True)
    @given(lo=st.floats(0.05, 20.0), span=st.floats(1.0, 40.0),
           area=st.integers(1, 400))
    def test_memoized_ratios_equal_geomspace(self, lo, span, area):
        """The memo holds the floats np.geomspace gives for the band, for
        every call and every argument type, and the ladder keeps them."""
        hi = lo * span
        want = np.geomspace(lo, hi, solvers.AR_CANDIDATES).tolist()
        for _ in range(2):
            assert list(solvers._ladder_ratios(lo, hi)) == want
        lo32, hi32 = np.float32(lo), np.float32(hi)
        assert list(solvers._ladder_ratios(lo32, hi32)) == \
            np.geomspace(lo32, hi32, solvers.AR_CANDIDATES).tolist()
        w, h = shape_from_ar(area, lo, lo, hi)
        blk = Block(0, "b", area, w, h, lo, hi, True, 0)
        assert all(r in want for r, _ in ar_candidate_ladder(blk))

    def test_dedupes_to_distinct_shapes(self):
        b = soft(0, 16, 4, 4)
        pairs = ar_candidate_ladder(b)
        ladder = [r for r, _ in pairs]
        shapes = [shape_from_ar(16, r, 0.5, 2.0) for r in ladder]
        assert shapes == [wh for _, wh in pairs] == [(3, 6), (4, 4), (5, 4), (6, 3)]
        assert ladder == sorted(ladder)
        assert ladder[-1] == 2.0


class TestGreedyFrozen:
    def test_no_nets_lands_at_origin(self):
        c = Circuit("o", GridDims(8, 8, 1), (hard(0, 2, 2),), (), (),
                    utilization=1.0)
        g = greedy_place(c, TaskProfile.for_task(1))
        assert g.state.rect(0) == (0, 0, 2, 2)

    def test_wire_tie_breaks_row_major(self):
        # four anchors put the 1x1 center a half-step from the pin; the
        # smallest (x, y) among them wins
        c = Circuit("w", GridDims(8, 8, 1), (hard(0, 1, 1),),
                    (Terminal(0, "t", 3, 3, 0),),
                    (Net(blocks=(0,), terminals=(0,)),), utilization=1.0)
        g = greedy_place(c, TaskProfile.for_task(1))
        assert g.state.rect(0)[:2] == (2, 2)

    def grouped_pair(self, nets):
        blocks = (hard(0, 2, 2), hard(1, 2, 2))
        cons = ConstraintSet(groups=((0, 1),),
                             boundary_bindings=(BoundaryBinding(0, (0,), "ALL"),))
        return Circuit("g", GridDims(8, 8, 1), blocks,
                       (Terminal(0, "t", 0, 0, 0), Terminal(1, "p", 7, 0, 0)),
                       nets, cons, utilization=1.0)

    def test_abutment_steers_partner(self):
        # block 0 pinned to the origin by its binding; block 1 must abut it.
        # both full-edge anchors tie on a zero wire mask, row-major picks (0,2)
        g = greedy_place(self.grouped_pair(()), TaskProfile.for_task(3))
        assert g.state.rect(0) == (0, 0, 2, 2)
        assert g.state.rect(1) == (0, 2, 2, 2)
        assert [s.rung for s in g.trace.steps] == ["none", "none"]

    def test_wire_outranks_abutment_length(self):
        # a net pulling block 1 toward (7,0) makes the right-hand strip
        # cheaper than the longer-edge cell above block 0
        c = self.grouped_pair((Net(blocks=(1,), terminals=(1,)),))
        g = greedy_place(c, TaskProfile.for_task(3))
        assert g.state.rect(1)[:2] == (2, 0)

    def test_lookahead_reshapes_next_block(self):
        # 8x7 die: a 4x4 block at the origin leaves no room for the soft
        # block at its default 4x4 or taller; only the flat 6x3 reaches the
        # cheap front-left cell (0,4)
        blocks = (hard(0, 4, 4), soft(1, 16, 4, 4))
        c = Circuit("la", GridDims(8, 7, 1), blocks, (), (), utilization=1.0)
        g = greedy_place(c, TaskProfile.for_task(1))
        assert g.state.rect(0) == (0, 0, 4, 4)
        assert g.state.rect(1) == (0, 4, 6, 3)
        assert g.ars[1] == pytest.approx(2.0)
        # the same die with the 4x4 preplaced: the soft block opens the
        # episode, and its scan runs before any step
        cons = ConstraintSet(preplacements=(Preplacement(0, 0, 0, 0, 4, 4),))
        c = Circuit("open", GridDims(8, 7, 1), blocks, (), (), cons,
                    utilization=1.0)
        g = greedy_place(c, TaskProfile.for_task(3))
        assert [s.block for s in g.trace.steps] == [1]
        assert g.state.rect(1) == (0, 4, 6, 3)
        assert g.ars == {1: pytest.approx(2.0)}

    def test_infeasible_raises(self):
        blocks = (hard(0, 3, 3), hard(1, 2, 2))
        c = Circuit("full", GridDims(4, 4, 1), blocks, (), (),
                    utilization=1.0)
        with pytest.raises(InfeasibleError, match="block 1"):
            greedy_place(c, TaskProfile.for_task(1))


class TestGreedyProperties:
    def test_constraints_hold_on_demo(self):
        g = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        sat = g.summary.satisfaction
        assert g.summary.rung_events == 0
        assert sat["boundary"] == (1, 1)
        assert sat["grouping"] == (1, 1)
        assert sat["alignment"] == (1, 1)
        assert sat["overlap"] == (2, 2)
        assert sat["outline"] == (4, 4)

    def test_decode_reproduces_free_run(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        free = greedy_place(c, p)
        fixed = greedy_place(c, p, order=list(free.order), ars=free.ars)
        assert fixed.cost == free.cost
        assert fixed.ars == free.ars
        for i in range(c.num_blocks):
            assert fixed.state.rect(i) == free.state.rect(i)
        # the annealer's first decodes resume from the free run's trace
        assert fixed.trace.to_jsonl() == free.trace.to_jsonl()
        assert fixed.summary == free.summary

    def test_deterministic(self):
        a = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        b = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        assert a.cost == b.cost
        assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_runtime_recorded(self):
        g = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        assert g.runtime_s > 0

    def test_free_solve_observes_each_block_once(self, monkeypatch):
        # the opening block is soft, so its ratio is chosen before the
        # episode is observed; no observation is compiled and dropped, and
        # a scanned block's observation is the stack its scan compiled
        c = demo_circuit()
        assert c.blocks[default_order(c)[0]].is_soft
        by_env, by_scan, observed, resets = [], [], [], []

        def counting(compile_masks, into):
            return lambda *a, **kw: into.append(compile_masks(*a, **kw)) or into[-1]

        monkeypatch.setattr(envmod, "compile_masks",
                            counting(envmod.compile_masks, by_env))
        monkeypatch.setattr(solvers, "compile_masks",
                            counting(solvers.compile_masks, by_scan))
        observe, reset = PlacementEnv._observe, PlacementEnv.reset
        monkeypatch.setattr(PlacementEnv, "_observe", lambda *a: observed.append(
            obs := observe(*a)) or obs)
        monkeypatch.setattr(PlacementEnv, "reset", lambda *a, **kw:
                            resets.append(1) or reset(*a, **kw))
        g = greedy_place(c, TaskProfile.for_task(3))
        assert resets == [1]
        stacks = [obs.masks for obs in observed if obs is not None]
        assert [m.block for m in stacks] == [s.block for s in g.trace.steps] \
            == list(g.order)
        for m in stacks:
            assert sum(m is k for k in by_env + by_scan) == 1
        # the soft blocks' observations come from their scans, the rest
        # from the env, which compiles nothing else
        assert [m.block for m in stacks if any(m is k for k in by_scan)] == \
            [b for b in g.order if c.blocks[b].is_soft]
        assert [m.block for m in by_env] == \
            [b for b in g.order if not c.blocks[b].is_soft]


class TestRandom:
    def test_sound_and_seeded(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        costs = set()
        for seed in range(6):
            r = random_place(c, p, SolverConfig(kind="random", seed=seed))
            assert total_overlap(r.state) == 0
            assert r.summary.satisfaction["outline"] == (4, 4)
            costs.add(round(r.cost, 12))
        assert len(costs) > 1      # different seeds explore different cells
        again = random_place(c, p, SolverConfig(kind="random", seed=3))
        once = random_place(c, p, SolverConfig(kind="random", seed=3))
        assert again.cost == once.cost

    def test_greedy_dominates_random(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        g = greedy_place(c, p)
        for seed in range(5):
            r = random_place(c, p, SolverConfig(kind="random", seed=seed))
            assert g.cost <= r.cost


class TestAnnealing:
    def cfg(self, **kw):
        base = dict(kind="sa", seed=11, sa_iterations=30,
                    sa_calibration_moves=8)
        base.update(kw)
        return SolverConfig(**base)

    def test_zero_iterations_equals_greedy(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        s = sa_place(c, p, self.cfg(sa_iterations=0, sa_calibration_moves=0))
        g = greedy_place(c, p)
        assert s.cost == g.cost
        for i in range(c.num_blocks):
            assert s.state.rect(i) == g.state.rect(i)

    def test_starts_at_greedy_and_never_worse(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        s = sa_place(c, p, self.cfg())
        g = greedy_place(c, p)
        assert s.initial_cost == g.cost
        assert s.cost <= g.cost
        assert s.cost_curve[0] == g.cost
        assert all(a >= b for a, b in zip(s.cost_curve, s.cost_curve[1:]))
        assert len(s.cost_curve) == 31

    def test_deterministic_per_seed(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        a = sa_place(c, p, self.cfg())
        b = sa_place(c, p, self.cfg())
        assert a.cost == b.cost
        assert a.cost_curve == b.cost_curve
        assert a.accepted == b.accepted
        assert a.t0 == b.t0

    def test_result_is_sound(self):
        s = sa_place(demo_circuit(), TaskProfile.for_task(3), self.cfg())
        assert total_overlap(s.state) == 0
        assert s.summary.satisfaction["outline"] == (4, 4)

    def test_counts_dead_ends_and_no_op_decodes(self, monkeypatch):
        c, _ = synth_instance("st", 3, n_blocks=12, dims=GridDims(16, 16, 2),
                              fill=0.6)
        cfg = self.cfg(sa_iterations=40, sa_calibration_moves=10)
        decodes, dead, noops = [], [], []
        greedy = solvers.greedy_place

        def counted(*a, resume=None, **kw):
            if resume is None:              # the free solve the search starts from
                return greedy(*a, **kw)
            decodes.append(1)
            try:
                res = greedy(*a, resume=resume, **kw)
            except InfeasibleError:
                dead.append(1)
                raise
            noops.append(res.state is resume.state)
            return res

        monkeypatch.setattr(solvers, "greedy_place", counted)
        s = sa_place(c, TaskProfile.for_task(3), cfg)
        assert len(decodes) == cfg.sa_calibration_moves + cfg.sa_iterations
        assert (s.infeasible, s.noops) == (len(dead), sum(noops))
        assert s.infeasible > 0 and s.noops > 0

    def test_candidate_decodes_build_no_summary(self, monkeypatch):
        """Skipping the candidates' summaries changes nothing: the result
        equals that of a run that summarizes every decode, and only the
        returned result's summary is built, once, when read."""
        c, _ = synth_instance("sum", 5, n_blocks=14, dims=GridDims(20, 20, 2))
        p = TaskProfile.for_task(3)
        cfg = self.cfg(sa_iterations=25, sa_calibration_moves=5)
        built = []
        summarize = solvers.episode_summary
        monkeypatch.setattr(solvers, "episode_summary",
                            lambda *a, **kw: built.append(1) or summarize(*a, **kw))
        lean = sa_place(c, p, cfg)
        assert built == []
        summary = lean.summary
        assert lean.summary is summary and built == [1]

        greedy = solvers.greedy_place

        def summarized(*a, **kw):
            res = greedy(*a, **kw)
            res.summary
            return res

        monkeypatch.setattr(solvers, "greedy_place", summarized)
        built.clear()
        full = sa_place(c, p, cfg)
        # the start and every decode that placed something; a no-op shares
        # the summary of the decode it resumed
        assert len(built) == 1 + cfg.sa_calibration_moves + cfg.sa_iterations \
            - full.noops - full.infeasible
        assert [lean.state.rect(b) for b in range(14)] == \
            [full.state.rect(b) for b in range(14)]
        assert lean.trace.to_jsonl() == full.trace.to_jsonl()
        assert lean.summary == full.summary
        assert (lean.cost, lean.cost_curve, lean.t0, lean.accepted,
                lean.infeasible, lean.noops) == \
            (full.cost, full.cost_curve, full.t0, full.accepted,
             full.infeasible, full.noops)

    def test_preplaced_block_stays_pinned(self):
        blocks = (hard(0, 3, 3, 0), soft(1, 8, 2, 4, 0), hard(2, 2, 2, 0))
        cons = ConstraintSet(preplacements=(Preplacement(0, 5, 5, 0, 3, 3),))
        c = Circuit("pin", GridDims(10, 10, 1), blocks, (),
                    (Net(blocks=(0, 1, 2)),), cons, utilization=1.0)
        s = sa_place(c, TaskProfile.for_task(3), self.cfg(sa_iterations=20))
        assert s.order[0] == 0
        assert s.state.rect(0) == (5, 5, 3, 3)
        assert 0 not in s.ars


def _decode(c, p, order, ars, plugins, resume=None):
    try:
        return greedy_place(c, p, order=order, ars=ars, plugins=plugins,
                            resume=resume)
    except InfeasibleError:
        return None


def assert_same_decode(got, want):
    """Two decodes of one circuit agree on placement, order, ratios in
    insertion order, trace, summary and cost."""
    n = want.state.circuit.num_blocks
    assert [got.state.rect(b) for b in range(n)] == [want.state.rect(b) for b in range(n)]
    assert got.state.order == want.state.order
    assert got.order == want.order
    assert list(got.ars.items()) == list(want.ars.items())
    assert got.trace.to_jsonl() == want.trace.to_jsonl()
    assert got.summary == want.summary
    assert got.cost == want.cost


def _local_move(tail, ars, soft_ids, rng):
    """A neighbor near the genome (tail, ars), as copies: swap two slots at
    most three apart, move one slot by at most three, or nudge a ratio."""
    tail, ars = list(tail), dict(ars)
    move = rng.choice(["swap", "relocate", "ar"])
    if move == "ar" or len(tail) < 2:
        if soft_ids:
            b = int(rng.choice(soft_ids))
            ars[b] *= math.exp(rng.uniform(-0.35, 0.35))
        return tail, ars
    i = int(rng.integers(len(tail) - 1))
    j = min(len(tail) - 1, i + int(rng.integers(1, 4)))
    if rng.random() < 0.5:
        i, j = j, i
    if move == "swap":
        tail[i], tail[j] = tail[j], tail[i]
    else:
        tail.insert(j, tail.pop(i))
    return tail, ars


def _pinned_instance(seed, n, side, fill, pins):
    """A synth circuit with up to `pins` blocks preplaced where a free
    greedy solve of it put them."""
    c, _ = synth_instance(f"r{seed}", seed, n_blocks=n, counts=(4, 3, 4),
                          dims=GridDims(side, side, 2), fill=fill)
    try:
        free = greedy_place(c, TaskProfile.for_task(1))
    except InfeasibleError:
        return c
    pre = tuple(Preplacement(b, *free.state.rect(b)[:2], c.blocks[b].z,
                             *free.state.rect(b)[2:])
                for b in free.order[::3][:pins])
    return dataclasses.replace(c, constraints=dataclasses.replace(
        c.constraints, preplacements=pre))


def _distance_plugins(rng, n, side, count):
    """Up to `count` distance plug-ins between random block pairs."""
    pairs = {tuple(sorted(rng.choice(n, 2, replace=False).tolist()))
             for _ in range(count)}
    return tuple(BlockDistanceRule(a, s, float(rng.uniform(2, side)))
                 for a, s in sorted(pairs))


def assert_same_stack(got, want):
    assert got.block == want.block
    assert list(got.rules) == list(want.rules)
    for name, mask in want.rules.items():
        a, b = got.rules[name].values, mask.values
        assert (a.dtype, a.shape, a.tobytes()) == (b.dtype, b.shape, b.tobytes()), name
    a, b = got.availability, want.availability
    assert (a.mask.dtype, a.mask.tobytes()) == (b.mask.dtype, b.mask.tobytes())
    assert (a.dropped, a.feasible) == (b.dropped, b.feasible)


class TestLookaheadHandOver:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 14),
           side=st.sampled_from([16, 20, 24]), fill=st.floats(0.35, 0.7),
           pins=st.integers(0, 2), task=st.sampled_from([1, 2, 3]),
           n_plugins=st.integers(0, 3))
    def test_handed_stack_equals_a_fresh_compile(self, seed, n, side, fill, pins,
                                                 task, n_plugins):
        """Each stack a scan hands to the env equals `compile_masks` on the
        state the env observes, and greedy's cell on it is the one the
        trace records."""
        c = _pinned_instance(seed, n, side, fill, pins)
        p = TaskProfile.for_task(task)
        rng = np.random.default_rng(seed)
        plugins = _distance_plugins(rng, n, side, n_plugins)
        fresh = {}

        def checked(call):
            def handing_over(env, *args):
                out = call(env, *args)
                masks = args[-1]
                if masks is not None:
                    assert env.observation.masks is masks
                    block = env.observation.block
                    fresh[block] = compile_masks(env.state, block, env.profile,
                                                 env.plugins)
                    assert_same_stack(masks, fresh[block])
                return out
            return handing_over

        with pytest.MonkeyPatch.context() as m:
            m.setattr(PlacementEnv, "_reset", checked(PlacementEnv._reset))
            m.setattr(PlacementEnv, "_step", checked(PlacementEnv._step))
            try:
                g = greedy_place(c, p, plugins=plugins)
            except InfeasibleError:
                return
        assert sorted(fresh) == sorted(g.ars)
        for rec in g.trace.steps:
            if rec.block in fresh:
                cell = solvers._pick_cell(fresh[rec.block])
                assert divmod(cell, side) == (rec.x, rec.y)


def _exhaustive_scan(env, block_id, pending):
    """The ratio scan without a bound: every candidate shape compiled, in
    ladder order, and the first of the lowest (score, cell) kept.  Returns
    (ratio, stack, cell), or None when no candidate fits."""
    sim = env.state.clone()
    if pending is not None:
        sim.place(env.observation.block, *pending)
    ladder = ar_candidate_ladder(env.circuit.blocks[block_id])
    wire = wire_profiles(sim, block_id, [w for _, (w, _) in ladder],
                         [h for _, (_, h) in ladder])

    def scored(r):
        sim.set_shape(block_id, r)
        stack = compile_masks(sim, block_id, env.profile, env.plugins, wire)
        try:
            cells, score = solvers._filter_cells(stack)
        except InfeasibleError:
            return None
        cell = int(cells.min())
        return score + (float(cell),), r, stack, cell

    best = min(filter(None, (scored(r) for r, _ in ladder)),
               key=lambda c: c[0], default=None)
    return None if best is None else best[1:]


class TestBoundedScan:
    def checked_scans(self, monkeypatch):
        """Route free greedy's scans through a check against the exhaustive
        scan; returns the list that collects, per scan, its ladder length
        and the shapes it compiled."""
        scans, compiled = [], []

        def recording(state, block_id, *args):
            compiled.append((int(state.w[block_id]), int(state.h[block_id])))
            return compile_masks(state, block_id, *args)

        def checked(env, block_id, pending, bounded=solvers._scan_ar):
            compiled.clear()
            r, ahead = bounded(env, block_id, pending)
            shapes = list(compiled)
            assert len(set(shapes)) == len(shapes), "a shape compiled twice"
            scans.append((len(ar_candidate_ladder(env.circuit.blocks[block_id])),
                          shapes))
            want = _exhaustive_scan(env, block_id, pending)
            if want is None:
                assert (r, ahead) == (None, None)
            else:
                assert r == want[0] and ahead.cell == want[2]
                assert_same_stack(ahead.masks, want[1])
            return r, ahead

        monkeypatch.setattr(solvers, "compile_masks", recording)
        monkeypatch.setattr(solvers, "_scan_ar", checked)
        return scans

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 14),
           side=st.sampled_from([16, 20, 24]), fill=st.floats(0.35, 0.7),
           pins=st.integers(0, 2), task=st.sampled_from([1, 2, 3]),
           n_plugins=st.integers(0, 3))
    def test_bounded_scan_equals_the_exhaustive_one(self, seed, n, side, fill,
                                                    pins, task, n_plugins):
        """Each scan picks the ratio, stack and cell that compiling every
        candidate in ladder order picks, and compiles no shape twice."""
        c = _pinned_instance(seed, n, side, fill, pins)
        p = TaskProfile.for_task(task)
        plugins = _distance_plugins(np.random.default_rng(seed), n, side, n_plugins)
        with pytest.MonkeyPatch.context() as m:
            scans = self.checked_scans(m)
            try:
                greedy_place(c, p, plugins=plugins)
            except InfeasibleError:
                pass
        assert all(len(shapes) <= size for size, shapes in scans)

    def test_bound_skips_candidates(self, monkeypatch):
        c, _ = synth_instance("bound", 3, n_blocks=20, dims=GridDims(24, 24, 2))
        scans = self.checked_scans(monkeypatch)
        greedy_place(c, TaskProfile.for_task(3))
        assert sum(len(shapes) for _, shapes in scans) \
            < sum(size for size, _ in scans)


    def test_ties_go_to_the_earlier_ladder_entry(self, monkeypatch):
        """Candidates visited out of ladder order (later shapes given lower
        floors) that tie on score and cell resolve as the ladder-order scan
        does."""
        env = PlacementEnv(demo_circuit(), TaskProfile.for_task(1))
        env.begin()
        b = env.state.current_block
        ladder = ar_candidate_ladder(env.circuit.blocks[b])
        widths = [w for _, (w, _) in ladder]
        assert len(ladder) > 1 and widths == sorted(set(widths))
        compiled = []
        monkeypatch.setattr(solvers, "wire_floor",
                            lambda state, block, wire: -float(state.w[block]))
        monkeypatch.setattr(solvers, "_filter_cells", lambda stack: (
            compiled.append(stack) or np.array([0]), (0.0, 0.0)))
        r, ahead = solvers._scan_ar(env, b, None)
        assert len(compiled) == len(ladder)
        assert r == ladder[0][0] and ahead.masks is compiled[-1]


class TestResume:
    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 14),
           side=st.sampled_from([16, 20, 24]), fill=st.floats(0.35, 0.7),
           pins=st.integers(0, 2), task=st.sampled_from([1, 2, 3]),
           n_plugins=st.integers(0, 3), moves=st.integers(4, 10))
    def test_resumed_decode_equals_full_decode(self, seed, n, side, fill, pins,
                                               task, n_plugins, moves):
        c = _pinned_instance(seed, n, side, fill, pins)
        p = TaskProfile.for_task(task)
        rng = np.random.default_rng(seed)
        plugins = _distance_plugins(rng, n, side, n_plugins)
        try:
            parent = greedy_place(c, p, plugins=plugins)
        except InfeasibleError:
            return
        pinned = set(parent.order[:n - len(parent.trace.steps)])
        order = list(parent.order)
        prefix = [b for b in order if b in pinned]
        tail = [b for b in order if b not in pinned]
        ars = {b: r for b, r in parent.ars.items() if b not in pinned}
        soft_ids = sorted(ars)
        for _ in range(moves):
            if soft_ids and rng.random() < 0.25:
                # a nudge too small to change the block's integer shape
                cand_tail, cand_ars = list(tail), dict(ars)
                cand_ars[int(rng.choice(soft_ids))] *= 1 + 1e-9
            else:
                cand_tail, cand_ars = _propose(tail, ars, soft_ids, rng)
            # ratios of other numeric types, recorded as floats either way
            for b in soft_ids:
                kind = rng.choice(["float", "float32", "int"], p=[0.6, 0.2, 0.2])
                if kind == "float32":
                    cand_ars[b] = np.float32(cand_ars[b])
                elif kind == "int":
                    cand_ars[b] = max(1, round(float(cand_ars[b])))
            full = _decode(c, p, prefix + cand_tail, cand_ars, plugins)
            res = _decode(c, p, prefix + cand_tail, cand_ars, plugins, resume=parent)
            assert (res is None) == (full is None)
            if full is None:
                continue
            assert [res.state.rect(b) for b in range(n)] == \
                [full.state.rect(b) for b in range(n)]
            assert res.order == full.order
            assert res.ars == full.ars
            assert res.trace.to_jsonl() == full.trace.to_jsonl()
            assert res.summary == full.summary
            assert res.cost == full.cost
            if rng.random() < 0.6:
                tail, ars, parent = cand_tail, cand_ars, res

    def test_unchanged_decode_places_nothing(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        free = greedy_place(c, p)
        ars = {b: r * (1 + 1e-9) for b, r in free.ars.items()}
        res = greedy_place(c, p, order=list(free.order), ars=ars, resume=free)
        assert res.state is free.state
        assert [s.ar_next for s in res.trace.steps[:-1]] == \
            [ars.get(b) for b in free.order[1:]]

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(6, 12),
           side=st.sampled_from([16, 20]), fill=st.floats(0.35, 0.7),
           pins=st.integers(0, 2), task=st.sampled_from([1, 2, 3]),
           n_plugins=st.integers(0, 2))
    def test_last_record_holds_the_final_metrics(self, seed, n, side, fill,
                                                pins, task, n_plugins):
        """The final record's raw and normalized metrics are the final
        state's, byte for byte, after a stepped episode, a reset whose
        records fill the episode and a resumed decode that places nothing,
        so a decode's cost needs no summary."""
        c = _pinned_instance(seed, n, side, fill, pins)
        p = TaskProfile.for_task(task)
        plugins = _distance_plugins(np.random.default_rng(seed), n, side, n_plugins)
        try:
            free = greedy_place(c, p, plugins=plugins)
        except InfeasibleError:
            return
        env = PlacementEnv(c, p, order=list(free.order), plugins=plugins)
        env.reset(free.ars.get(free.trace.steps[0].block), free.trace.steps)
        res = greedy_place(c, p, order=list(free.order), ars=free.ars,
                           plugins=plugins, resume=free)
        assert res.state is free.state
        for state, trace in ((free.state, free.trace), (env.state, env.trace),
                             (res.state, res.trace)):
            assert state.done
            raw = metric_snapshot(state)
            norm = normalize(raw, c, trace.hpwl_baseline)
            last = trace.steps[-1]
            assert json.dumps(last.raw.as_dict()) == json.dumps(raw.as_dict())
            assert json.dumps(last.norm.as_dict()) == json.dumps(norm.as_dict())
        for r in (free, res):
            assert r.cost == objective_cost(r.summary.norm, p)

    @settings(max_examples=40, deadline=None, derandomize=True)
    @given(seed=st.integers(0, 10_000), n=st.integers(8, 14),
           side=st.sampled_from([16, 20, 24]), fill=st.floats(0.35, 0.7),
           pins=st.integers(0, 2), task=st.sampled_from([1, 2, 3]),
           n_plugins=st.integers(0, 2), moves=st.integers(4, 12))
    def test_rejoined_decode_equals_full_decode(self, seed, n, side, fill,
                                                pins, task, n_plugins, moves):
        """Chains of swaps and relocations over a few slots, which often
        put the moved blocks back where the parent had them so the decode
        rejoins it, and ratio nudges, each decoded from the last accepted
        one as the annealer does."""
        c = _pinned_instance(seed, n, side, fill, pins)
        p = TaskProfile.for_task(task)
        rng = np.random.default_rng(seed)
        plugins = _distance_plugins(rng, n, side, n_plugins)
        try:
            parent = greedy_place(c, p, plugins=plugins)
        except InfeasibleError:
            return
        tail, ars = [s.block for s in parent.trace.steps], dict(parent.ars)
        prefix = list(parent.order[:n - len(tail)])
        soft_ids = sorted(ars)
        for _ in range(moves):
            cand_tail, cand_ars = _local_move(tail, ars, soft_ids, rng)
            full = _decode(c, p, prefix + cand_tail, cand_ars, plugins)
            res = _decode(c, p, prefix + cand_tail, cand_ars, plugins, resume=parent)
            assert (res is None) == (full is None)
            if full is None:
                continue
            assert_same_decode(res, full)
            if rng.random() < 0.6:
                tail, ars, parent = cand_tail, cand_ars, res

    def test_decode_rejoins_where_the_parent_placed_the_same_blocks(self, monkeypatch):
        """Swapping the demo solve's first two slots, blocks on different
        layers, lands both where the parent put them: the decode steps slot
        0, takes slot 1 over without stepping it, and shares the parent's
        records after it, with the full decode's output."""
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        free = greedy_place(c, p)
        order = list(free.order)
        order[0], order[1] = order[1], order[0]
        full = greedy_place(c, p, order=order, ars=free.ars)
        stepped = []
        step = PlacementEnv._step
        monkeypatch.setattr(PlacementEnv, "_step",
                            lambda self, *a: stepped.append(1) or step(self, *a))
        res = greedy_place(c, p, order=order, ars=free.ars, resume=free)
        assert len(stepped) == 1
        assert res.state is not free.state and res.state.order == order
        tail, theirs = res.trace.steps[2:], free.trace.steps[2:]
        assert len(tail) == len(theirs) == 2
        assert all(a is b for a, b in zip(tail, theirs))
        assert_same_decode(res, full)

    @pytest.mark.parametrize("bad", [float("nan"), "wide", True],
                             ids=["nan", "str", "bool"])
    @pytest.mark.parametrize("block, order", [
        (0, [0, 2, 1, 3]),          # the opening slot, the parent's order
        (1, [0, 2, 1, 3]),          # a later slot, replayed up to it
        (0, [0, 2, 3, 1]),          # the opening slot, two later slots swapped
        (1, [2, 0, 1, 3]),          # a later slot, stepped up to it
    ], ids=["opening", "later", "opening-swapped", "later-swapped"])
    def test_rejected_ratio_raises_as_the_full_decode_does(self, bad, block, order):
        """The parent keeps the block's own shape, so the resumed decode
        raises only if the rejected ratio makes its slot differ."""
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        free = greedy_place(c, p)
        assert list(free.order) == [0, 2, 1, 3]
        ars = {b: r for b, r in free.ars.items() if b != block}
        parent = greedy_place(c, p, order=list(free.order), ars=ars)
        ars[block] = bad

        def raised(**kw):
            with pytest.raises(FloorplanError) as err:
                greedy_place(c, p, order=order, ars=ars, **kw)
            return type(err.value), str(err.value)
        full = raised()
        assert full[0] is InvalidActionError
        assert raised(resume=parent) == full

    def test_resume_needs_fixed_ratios(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        free = greedy_place(c, p)
        with pytest.raises(ValueError, match="ars"):
            greedy_place(c, p, resume=free)

    def test_annealing_output_does_not_depend_on_rejoining(self, monkeypatch):
        """Some decodes of an annealing run rejoin their parent: their last
        record is the parent's, their state is not.  Redoing each of those
        as a full decode, every other decode still resumed, changes no
        field of the result."""
        c, _ = synth_instance("sa", 7, n_blocks=14, dims=GridDims(20, 20, 2))
        p = TaskProfile.for_task(3)
        cfg = SolverConfig(kind="sa", seed=3, sa_iterations=40,
                           sa_calibration_moves=5)
        decode, rejoined = solvers.greedy_place, []

        def rejoins(res, resume):
            return (resume is not None and res.state is not resume.state
                    and res.trace.steps[-1] is resume.trace.steps[-1])

        def watched(*a, resume=None, **kw):
            res = decode(*a, resume=resume, **kw)
            rejoined.append(rejoins(res, resume))
            return res
        monkeypatch.setattr(solvers, "greedy_place", watched)
        joined = sa_place(c, p, cfg)
        assert any(rejoined)

        def apart_decode(*a, resume=None, **kw):
            res = decode(*a, resume=resume, **kw)
            return decode(*a, **kw) if rejoins(res, resume) else res
        monkeypatch.setattr(solvers, "greedy_place", apart_decode)
        apart = sa_place(c, p, cfg)
        assert_same_decode(joined, apart)
        for f in dataclasses.fields(solvers.SAResult):
            if f.name not in ("state", "trace", "_summarize", "runtime_s"):
                assert getattr(joined, f.name) == getattr(apart, f.name), f.name

    def test_annealing_output_does_not_depend_on_resume(self, monkeypatch):
        """An annealing run equals the same run with full decodes on every
        field but the count of no-op decodes, which only resuming skips."""
        c, _ = synth_instance("sa", 7, n_blocks=14, dims=GridDims(20, 20, 2))
        p = TaskProfile.for_task(3)
        cfg = SolverConfig(kind="sa", seed=3, sa_iterations=40,
                           sa_calibration_moves=5)
        resumed = sa_place(c, p, cfg)
        decode = solvers.greedy_place
        monkeypatch.setattr(solvers, "greedy_place",
                            lambda *a, resume=None, **kw: decode(*a, **kw))
        full = sa_place(c, p, cfg)
        assert_same_decode(resumed, full)
        for f in dataclasses.fields(solvers.SAResult):
            if f.name not in ("state", "trace", "_summarize", "runtime_s", "noops"):
                assert getattr(resumed, f.name) == getattr(full, f.name), f.name

class TestDispatchAndCost:
    def test_solve_routes_by_kind(self):
        c = demo_circuit()
        p = TaskProfile.for_task(3)
        assert solve(c, p, SolverConfig(kind="greedy")).kind == "greedy"
        assert solve(c, p, SolverConfig(kind="random", seed=1)).kind == "random"
        cfg = SolverConfig(kind="sa", seed=1, sa_iterations=3,
                           sa_calibration_moves=2)
        assert solve(c, p, cfg).kind == "sa"

    def test_bad_kind_rejected_up_front(self):
        with pytest.raises(ValueError, match="kind"):
            SolverConfig(kind="tabu")

    def test_cost_is_negative_weighted_score(self):
        g = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        p = TaskProfile.for_task(3)
        m = g.summary.norm
        hand = -(p.w_alignment * m.alignment - p.w_overlap * m.overlap
                 - p.w_hpwl * m.hpwl + p.w_adjacency * m.adjacency
                 - p.w_distance * m.distance)
        assert g.cost == pytest.approx(hand)

    def test_cost_requires_normalized(self):
        g = greedy_place(demo_circuit(), TaskProfile.for_task(3))
        with pytest.raises(ValueError, match="normalized"):
            objective_cost(g.summary.raw, TaskProfile.for_task(3))

    def test_shared_baseline_makes_costs_comparable(self):
        c = demo_circuit()
        b = wire_greedy_baseline(c)
        g = greedy_place(c, TaskProfile.for_task(3))
        assert g.trace.hpwl_baseline == b
