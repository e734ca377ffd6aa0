import dataclasses
import json
import math

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from stackfp import (
    Action,
    AlignmentPair,
    Block,
    BoundaryBinding,
    Circuit,
    ConstraintSet,
    FloorplanError,
    GridDims,
    InvalidActionError,
    MetricTuple,
    Net,
    PlacementEnv,
    Preplacement,
    TaskProfile,
    Terminal,
    compute_rewards,
    episode_summary,
    total_overlap,
    wire_greedy_baseline,
)

from stackfp import env as envmod
from stackfp.masks import BlockDistanceRule

import oracles


def soft(bid, area, w, h, z=0):
    return Block(bid, f"b{bid}", area, w, h, 0.5, 2.0, True, z)


def hard(bid, w, h, z=0):
    return Block(bid, f"b{bid}", w * h, w, h, 1.0, 1.0, False, z)


def norm_metrics(aln, hpwl, o, l, d):
    return MetricTuple(alignment=aln, hpwl=hpwl, overlap=o,
                       adjacency=l, distance=d, normalized=True)


def unit_profile(task=1):
    return TaskProfile.for_task(task, w_alignment=1.0, w_overlap=1.0,
                                w_hpwl=1.0, w_adjacency=1.0, w_distance=1.0)


def weighted(m, p):
    return (p.w_alignment * m.alignment - p.w_overlap * m.overlap
            - p.w_hpwl * m.hpwl + p.w_adjacency * m.adjacency
            - p.w_distance * m.distance)


class TestRewards:
    def test_frozen_two_step_example(self):
        seq = [norm_metrics(0.5, 0.2, 0.0, 0.1, 0.1),
               norm_metrics(0.9, 0.5, 0.0, 0.3, 0.0)]
        r = compute_rewards(seq, unit_profile())
        assert r[1] == pytest.approx(0.7)
        assert r[0] == pytest.approx(1.0)

    def test_single_step_episode_gets_baseline_only(self):
        m = norm_metrics(0.4, 0.2, 0.0, 0.0, 0.0)
        r = compute_rewards([m], unit_profile())
        assert r == [pytest.approx(0.2)]

    def test_default_weights_change_baseline(self):
        seq = [norm_metrics(0.5, 0.2, 0.0, 0.1, 0.1),
               norm_metrics(0.9, 0.5, 0.0, 0.3, 0.0)]
        p = TaskProfile.for_task(1)   # 0.5/0.5/1/4/4
        b = 0.5 * 0.9 - 0.5 * 0.0 - 1.0 * 0.5 + 4 * 0.3 - 4 * 0.0
        assert compute_rewards(seq, p)[-1] == pytest.approx(b)

    def test_empty_sequence_rejected(self):
        with pytest.raises(ValueError, match="empty"):
            compute_rewards([], unit_profile())

    def test_unnormalized_rejected(self):
        raw = MetricTuple(0.5, 3.0, 0.0, 1.0, 2.0)
        with pytest.raises(ValueError, match="normalized"):
            compute_rewards([raw], unit_profile())

    @settings(max_examples=150, deadline=None)
    @given(
        st.lists(st.tuples(*[st.floats(0, 2) for _ in range(5)]),
                 min_size=1, max_size=8),
        st.tuples(*[st.floats(0, 5) for _ in range(5)]),
    )
    def test_total_reward_telescopes(self, rows, wts):
        p = TaskProfile.for_task(1, w_alignment=wts[0], w_overlap=wts[1],
                                 w_hpwl=wts[2], w_adjacency=wts[3],
                                 w_distance=wts[4])
        seq = [norm_metrics(*row) for row in rows]
        r = compute_rewards(seq, p)
        t = len(seq)
        b = weighted(seq[-1], p)
        before_last = weighted(seq[-2], p) if t > 1 else 0.0
        assert math.isclose(sum(r), before_last + t * b,
                            rel_tol=0.0, abs_tol=1e-9)

    @settings(max_examples=100, deadline=None)
    @given(st.lists(st.tuples(*[st.floats(0, 2) for _ in range(5)]),
                    min_size=2, max_size=8))
    def test_each_reward_is_delta_plus_baseline(self, rows):
        p = unit_profile()
        seq = [norm_metrics(*row) for row in rows]
        r = compute_rewards(seq, p)
        b = weighted(seq[-1], p)
        prev = 0.0
        for i in range(len(seq) - 1):
            cur = weighted(seq[i], p)
            assert r[i] == pytest.approx(cur - prev + b, abs=1e-12)
            prev = cur


def four_block_circuit():
    """Two soft blocks on layer 0, two hard on layer 1; one terminal per
    layer, nets tying the layers together."""
    blocks = (
        soft(0, 16, 4, 4, z=0),
        soft(1, 10, 3, 4, z=0),
        hard(2, 3, 3, z=1),
        hard(3, 2, 2, z=1),
    )
    terminals = (Terminal(0, "t0", 0, 0, 0), Terminal(1, "t1", 11, 11, 1))
    nets = (Net(blocks=(0, 2)), Net(blocks=(1, 3), terminals=(0,)),
            Net(blocks=(2, 3), terminals=(1,)))
    return Circuit("quad", GridDims(12, 12, 2), blocks, terminals, nets,
                   utilization=1.0)


def _with_ar(rec, ar):
    return dataclasses.replace(rec, ar_next=ar)


def _at(rec, **anchor):
    return dataclasses.replace(rec, **anchor)


def run_random_episode(env, seed, first_ar=None):
    rng = np.random.default_rng(seed)
    obs = env.reset(first_ar=first_ar)
    while obs is not None:
        cells = np.flatnonzero(obs.availability.mask)
        assert cells.size > 0
        flat = int(rng.choice(cells))
        x, y = divmod(flat, env.circuit.dims.height)
        ar = float(rng.uniform(0.5, 2.0))
        obs, _, _ = env.step(Action(x, y, ar_next=ar))
    return env


class TestEnvMechanics:
    def test_step_before_reset_rejected(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        with pytest.raises(FloorplanError, match="reset"):
            env.step(Action(0, 0))

    def test_out_of_grid_action_rejected(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        with pytest.raises(InvalidActionError, match="outside the grid"):
            env.step(Action(-1, 0))
        with pytest.raises(InvalidActionError, match="outside the grid"):
            env.step(Action(0, 12))

    def test_unavailable_cell_rejected(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        # block 0 is 4x4 on a 12-wide grid: anchor x=9 sticks out
        with pytest.raises(InvalidActionError, match="not available"):
            env.step(Action(9, 0))

    @pytest.mark.parametrize("bad", [
        Action(4, 0, ar_next=float("nan")),         # (4, 0) is available
        Action(4, 0, ar_next=np.float64("nan")),
        Action(4, 0, ar_next="wide"),
        Action(4, 0, ar_next=True),
        Action(5.5, 0),
        Action(4, 2.0),
        Action(True, 0),
        Action(4, np.bool_(False)),
    ], ids=["nan", "np-nan", "str-ratio", "bool-ratio", "float-x", "float-y", "bool-x", "np-bool-y"])
    def test_rejected_action_leaves_the_episode_as_it_was(self, bad):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0))                      # next up: soft block 1
        before = env.state.clone()
        trace, obs = env.trace.to_jsonl(), env.observation
        with pytest.raises(InvalidActionError):
            env.step(bad)
        assert env.state.cursor == before.cursor
        assert env.state.placed.tolist() == before.placed.tolist()
        assert [env.state.rect(b) for b in range(4)] == \
            [before.rect(b) for b in range(4)]
        assert np.array_equal(env.state.sat, before.sat)
        assert np.array_equal(env.state.cover, before.cover)
        assert env.state.overlap == before.overlap
        assert env.trace.to_jsonl() == trace
        assert env.observation is obs
        obs, _, _ = env.step(Action(4, 0, ar_next=2.0))
        assert obs.block == 2 and env.state.rect(1) == (4, 0, 3, 4)
        assert len(env.trace.steps) == 2

    @pytest.mark.parametrize("bad", [float("nan"), np.float64("nan"), True, "wide"],
                             ids=["nan", "np-nan", "bool", "str"])
    def test_rejected_first_ar_leaves_the_episode_as_it_was(self, bad):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()                                 # opens with soft block 0
        env.step(Action(0, 0))
        state, trace, obs = env.state, env.trace, env.observation
        before, jsonl = state.clone(), trace.to_jsonl()
        with pytest.raises(InvalidActionError, match="first_ar"):
            env.reset(first_ar=bad)
        assert env.state is state and env.trace is trace and env.observation is obs
        assert state.cursor == before.cursor
        assert [state.rect(b) for b in range(4)] == [before.rect(b) for b in range(4)]
        assert trace.to_jsonl() == jsonl
        env.step(Action(4, 0))
        assert len(env.trace.steps) == 2

    @pytest.mark.parametrize("pick, match", [
        (lambda done: done[1:2], "out of order"),
        (lambda done: done + done[:1], "out of order"),
        (lambda done: [_with_ar(done[0], float("nan"))] + done[1:], "ar_next"),
        (lambda done: [_with_ar(done[0], "wide")], "ar_next"),
        (lambda done: [_with_ar(done[0], True)], "ar_next"),
        (lambda done: done[:2] + [_with_ar(done[2], np.float64("nan"))], "ar_next"),
        (lambda done: [_at(done[0], x=-1)], "step 0 anchor"),
        (lambda done: [_at(done[0], x=12)], "step 0 anchor"),
        (lambda done: [_at(done[0], x=1.5)], "step 0 anchor"),
        (lambda done: [_at(done[0], y="3")], "step 0 anchor"),
        (lambda done: [_at(done[0], x=True)], "step 0 anchor"),
        (lambda done: [_at(done[0], x=9)], "step 0 anchor"),       # 4x4 past x=12
        (lambda done: done[:2] + [_at(done[2], y=10)], "step 2 anchor"),  # 3x3
        # block 1 (area 10) is 4x3 at ratio 2, so x=9 leaves the outline
        (lambda done: [_with_ar(done[0], 2.0), _at(done[1], x=9, y=0)],
         r"step 1 anchor .* \(4x3\)"),
    ], ids=["skips-a-block", "overfills", "nan-ratio", "str-ratio", "bool-ratio",
            "late-nan-ratio", "x-negative", "x-at-width", "float-x", "str-y", "bool-x",
            "past-the-outline", "late-past-the-outline", "reshaped-past-the-outline"])
    def test_rejected_steps_leave_the_episode_as_it_was(self, pick, match):
        done = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=5).trace.steps
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0))
        env.step(Action(4, 0))
        state, trace, obs = env.state, env.trace, env.observation
        before, jsonl = state.clone(), trace.to_jsonl()
        with pytest.raises(InvalidActionError, match=match):
            env.reset(steps=pick(done))
        assert env.state is state and env.trace is trace and env.observation is obs
        assert state.cursor == before.cursor == 2
        assert [state.rect(b) for b in range(4)] == [before.rect(b) for b in range(4)]
        assert trace.to_jsonl() == jsonl
        flat = int(np.flatnonzero(obs.availability.mask)[0])
        env.step(Action(*divmod(flat, env.circuit.dims.height)))
        assert len(env.trace.steps) == 3

    @pytest.mark.parametrize("ar", [np.float32(1.5), 2], ids=["float32", "int"])
    def test_reset_records_ratios_as_floats(self, ar):
        """A record's ratio joins the trace as the float `step` records, so
        the trace writes as that of the same records with float ratios;
        records whose ratio is a float already join as they are."""
        done = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=5).trace.steps
        env, floats = (PlacementEnv(four_block_circuit(), unit_profile()) for _ in range(2))
        env.reset(steps=[done[0], _with_ar(done[1], ar)] + done[2:])
        floats.reset(steps=[done[0], _with_ar(done[1], float(ar))] + done[2:])
        got = env.trace.steps
        assert type(got[1].ar_next) is float and got[1].ar_next == float(ar)
        assert env.trace.to_jsonl() == floats.trace.to_jsonl()
        assert f'"ar_next": {float(ar)!r}' in env.trace.to_jsonl().splitlines()[1]
        assert got[0] is done[0] and all(a is b for a, b in zip(got[2:], done[2:]))

    def test_stack_of_another_block_is_refused(self):
        env, other = (PlacementEnv(four_block_circuit(), unit_profile()) for _ in range(2))
        first = env.reset()
        other.reset()
        second, _, _ = other.step(Action(0, 0))
        with pytest.raises(ValueError, match="masks of block 1 handed to block 0"):
            first._hand(second.masks)
        assert first._stack == []
        assert first.masks.block == 0 and first.masks is not second.masks

    def test_rejected_step_keeps_the_handed_stack(self):
        env, other = (PlacementEnv(four_block_circuit(), unit_profile()) for _ in range(2))
        first = env.reset()
        stack = other.reset().masks
        first._hand(stack)
        assert first.masks is stack
        with pytest.raises(InvalidActionError):
            env.step(Action(9, 0))
        assert env.observation is first and first._stack == [stack]
        obs, _, _ = env.step(Action(0, 0))
        assert obs.block == 1 and obs._stack == []

    @pytest.mark.parametrize("ratio", [np.float64(2.0), np.float32(2.0),
                                       np.int64(2), 2],
                             ids=["np-float64", "np-float32", "np-int64", "int"])
    def test_numpy_integer_anchor_accepted(self, ratio):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(np.int64(0), np.int32(0), ar_next=ratio))
        assert env.state.rect(0) == (0, 0, 4, 4)
        assert env.state.rect(1)[2:] == (4, 3)
        action = json.loads(env.trace.to_jsonl())["action"]
        assert action == {"x": 0, "y": 0, "ar_next": 2.0}

    def test_step_after_done_rejected(self):
        env = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=5)
        assert env.state.done
        with pytest.raises(InvalidActionError, match="over"):
            env.step(Action(0, 0))

    def test_observation_tracks_order_and_canvas(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        obs = env.reset()
        assert obs.step == 0
        assert obs.block == obs.order[0] == 0      # largest area first
        assert obs.canvas.shape == (2, 12, 12)
        assert obs.canvas.sum() == 0
        obs, _, done = env.step(Action(0, 0))
        assert not done
        assert obs.step == 1 and obs.block == 1
        assert obs.canvas.sum() == 16               # block 0 footprint

    def test_canvas_is_built_only_when_read(self, monkeypatch):
        built = []
        real = envmod.occupancy_grid
        monkeypatch.setattr(envmod, "occupancy_grid",
                            lambda state: built.append(1) or real(state))
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0))
        assert built == []
        assert env.observation.canvas.sum() == 16
        assert built == [1]

    def test_canvas_is_a_fresh_array_each_read(self):
        """A policy may write into the canvas it reads: neither the state
        nor the next read sees it."""
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        obs, _, _ = env.step(Action(0, 0))
        cover = env.state.cover.copy()
        canvas = obs.canvas
        assert canvas.dtype == np.uint8
        canvas[...] = 1
        assert np.array_equal(env.state.cover, cover)
        assert obs.canvas.sum() == 16
        obs, _, _ = env.step(Action(4, 0))
        assert obs.canvas.sum() == 16 + 12

    def test_canvas_of_a_stepped_past_observation_raises(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        first = env.reset()
        second, _, _ = env.step(Action(0, 0))
        with pytest.raises(FloorplanError, match="stepped past block 0"):
            first.canvas
        assert second.canvas.sum() == 16
        obs = second
        while obs is not None:
            flat = int(np.flatnonzero(obs.availability.mask)[0])
            obs, _, _ = env.step(Action(*divmod(flat, env.circuit.dims.height)))
        with pytest.raises(FloorplanError, match="stepped past"):
            second.canvas

    def test_masks_are_compiled_only_when_read(self, monkeypatch):
        built = []
        real = envmod.compile_masks
        monkeypatch.setattr(envmod, "compile_masks",
                            lambda state, block, *a: built.append(block)
                            or real(state, block, *a))
        # no rule binds block 0 or 2; a distance plug-in binds block 1
        env = PlacementEnv(four_block_circuit(), unit_profile(),
                           plugins=(BlockDistanceRule(0, 1, 20.0),))
        env.reset()
        env.step(Action(0, 0))          # checked by the block's fit alone
        assert built == []
        second = env.observation
        assert second.masks is second.masks
        assert built == [1]
        third, _, _ = env.step(Action(4, 0))    # the read stack checks it
        assert built == [1]
        env.step(Action(0, 0))
        assert built == [1]
        assert third._stack == []
        assert [s.rung for s in env.trace.steps] == ["none"] * 3
        # a ruled block's unread stack is compiled by the step that checks it
        env.reset()
        env.step(Action(0, 0))
        env.step(Action(4, 0))
        assert built == [1, 1]

    def test_masks_of_a_stepped_past_observation_raises(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        first = env.reset()
        second, _, _ = env.step(Action(0, 0))
        with pytest.raises(FloorplanError, match="stepped past block 0"):
            first.masks
        with pytest.raises(FloorplanError, match="stepped past block 0"):
            first.availability
        kept = second.masks                 # read in time, so kept
        third, _, _ = env.step(Action(4, 0))
        assert second.masks is kept
        env.step(Action(0, 0))
        last, _, _ = env.step(Action(4, 0))
        assert last is None
        with pytest.raises(FloorplanError, match="stepped past block 2"):
            third.masks

    @pytest.mark.parametrize("anchor, match", [
        ((10, 0), "not available"),                 # block 1 is 3 wide
        ((0, 12), "outside the grid"),
        ((1, 1), "not available"),                  # block 0 covers it
    ], ids=["overhangs", "off-grid", "occupied"])
    def test_unread_rule_free_observation_rejects_as_its_stack_does(self, anchor,
                                                                   match):
        env, read = (PlacementEnv(four_block_circuit(), unit_profile()) for _ in range(2))
        for e in (env, read):
            e.reset()
            e.step(Action(0, 0))                    # next up: soft block 1
        obs = env.observation
        assert obs.rule_free and obs._stack == []
        before, jsonl = env.state.clone(), env.trace.to_jsonl()
        with pytest.raises(InvalidActionError, match=match) as unread:
            env.step(Action(*anchor))
        read.observation.masks
        with pytest.raises(InvalidActionError) as compiled:
            read.step(Action(*anchor))
        assert str(unread.value) == str(compiled.value)
        assert env.observation is obs and env.state.cursor == before.cursor
        assert [env.state.rect(b) for b in range(4)] == \
            [before.rect(b) for b in range(4)]
        assert np.array_equal(env.state.sat, before.sat)
        assert np.array_equal(env.state.cover, before.cover)
        assert env.state.overlap == before.overlap
        assert env.trace.to_jsonl() == jsonl
        env.step(Action(4, 0))
        read.step(Action(4, 0))
        assert env.trace.to_jsonl() == read.trace.to_jsonl()

    def test_replay_repeats_an_episode_unobserved(self):
        env = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=5)
        done = env.trace
        rects = [env.state.rect(b) for b in range(4)]
        obs = env.reset(steps=done.steps[:2])
        assert obs.block == done.steps[2].block and obs.step == 2
        assert env.trace.steps == done.steps[:2]
        obs = env.reset(steps=done.steps)
        assert obs is None
        assert [env.state.rect(b) for b in range(4)] == rects
        assert env.trace.to_jsonl() == done.to_jsonl()
        with pytest.raises(FloorplanError, match="out of order"):
            env.reset(steps=done.steps[1:])

    def test_replayed_records_are_numbered_by_position(self):
        """A record holds no step number that could disagree with its
        place: the trace numbers each record by its index in it."""
        done = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=5).trace.steps
        with pytest.raises(TypeError):
            dataclasses.replace(done[0], step=7)
        env = PlacementEnv(four_block_circuit(), unit_profile())
        obs = env.reset(steps=done[:1])
        obs, _, _ = env.step(Action(done[1].x, done[1].y))
        lines = env.trace.to_jsonl().splitlines()
        assert [json.loads(line)["step"] for line in lines] == [0, 1]
        assert obs.step == 2

    def test_first_ar_shapes_first_soft_block(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset(first_ar=4.0)                     # clips to 2.0 -> 6x3
        assert env.state.rect(0)[2:] == (6, 3)
        env.reset()                                 # back to the given shape
        assert env.state.rect(0)[2:] == (4, 4)

    def test_ar_next_shapes_the_following_block(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0, ar_next=0.5))         # block 1: area 10 -> 2x5
        assert env.state.rect(1)[2:] == (2, 5)
        env.reset()
        env.step(Action(0, 0, ar_next=2.0))         # block 1: area 10 -> 4x3
        assert env.state.rect(1)[2:] == (4, 3)

    def test_ar_next_ignored_for_hard_block(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0))
        env.step(Action(4, 0, ar_next=2.0))         # next up is hard block 2
        assert env.state.rect(2)[2:] == (3, 3)

    def test_determinism_across_runs(self):
        a = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=17)
        b = run_random_episode(
            PlacementEnv(four_block_circuit(), unit_profile()), seed=17)
        for i in range(4):
            assert a.state.rect(i) == b.state.rect(i)
        assert a.trace.rewards == b.trace.rewards
        assert [s.norm for s in a.trace.steps] == [s.norm for s in b.trace.steps]
        assert a.trace.to_jsonl() == b.trace.to_jsonl()

    def test_rewards_finalized_at_episode_end(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        obs = env.reset()
        assert env.trace.rewards is None
        env = run_random_episode(env, seed=3)
        assert env.trace.rewards is not None
        assert len(env.trace.rewards) == 4
        expect = compute_rewards([s.norm for s in env.trace.steps],
                                 unit_profile())
        assert env.trace.rewards == expect


class TestPreplacement:
    def circuit(self):
        blocks = (hard(0, 3, 3, z=0), soft(1, 8, 2, 4, z=0), hard(2, 2, 2, z=1))
        cons = ConstraintSet(preplacements=(Preplacement(0, 5, 5, 0, 3, 3),))
        return Circuit("pre", GridDims(10, 10, 2), blocks, (),
                       (Net(blocks=(0, 1, 2)),), cons, utilization=1.0)

    def test_preplaced_block_is_pinned_and_skipped(self):
        env = PlacementEnv(self.circuit(), TaskProfile.for_task(3))
        obs = env.reset()
        assert env.state.rect(0)[:2] == (5, 5)
        assert env.state.placed[0]
        assert obs.block == 1                       # cursor already past block 0
        run_random_episode(env, seed=1)
        assert len(env.trace.steps) == 2            # only movable blocks step

    def test_rule_disabled_leaves_block_movable(self):
        env = PlacementEnv(self.circuit(), TaskProfile.for_task(1))
        obs = env.reset()
        assert not env.state.placed[0]
        assert obs.block == 0


class TestBaseline:
    def test_no_nets_falls_back_to_one(self):
        c = Circuit("bare", GridDims(8, 8, 1), (hard(0, 2, 2),), (), (),
                    utilization=1.0)
        assert wire_greedy_baseline(c) == 1.0

    def test_two_block_chain_hand_value(self):
        # 2x2 lands at (0,0) on a zero wire mask; the 1x1 then takes the
        # cheapest free cell around it, center gap (0.5, 1.5) -> hpwl 2
        blocks = (hard(0, 2, 2), hard(1, 1, 1))
        c = Circuit("pair", GridDims(8, 8, 1), blocks, (),
                    (Net(blocks=(0, 1)),), utilization=1.0)
        assert wire_greedy_baseline(c) == pytest.approx(2.0)

    def test_terminal_pull(self):
        # 3x3 hugging its pin at the origin: center (1.5, 1.5) is as close
        # as the block can get, so the rollout wirelength is 3
        blocks = (hard(0, 3, 3),)
        c = Circuit("pull", GridDims(8, 8, 1), blocks,
                    (Terminal(0, "t", 0, 0, 0),), (Net(blocks=(0,), terminals=(0,)),),
                    utilization=1.0)
        assert wire_greedy_baseline(c) == pytest.approx(3.0)

    def test_env_normalizes_by_circuit_baseline(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        run_random_episode(env, seed=9)
        last = env.trace.steps[-1]
        b = wire_greedy_baseline(four_block_circuit())
        assert b != 1.0
        assert last.norm.hpwl == last.raw.hpwl / b

    def test_env_computes_baseline_once(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        b = env.hpwl_baseline
        assert b == wire_greedy_baseline(four_block_circuit())
        env.reset()
        assert env.hpwl_baseline == b


class TestMaskGuidedSoundness:
    def constrained_circuit(self):
        """Terminal binding on the largest block, one same-layer group and a
        cross-layer pair, everything satisfiable without relaxation."""
        blocks = (
            soft(0, 24, 6, 4, z=0),     # bound to terminal, placed first
            soft(1, 12, 3, 4, z=0),     # grouped with 0
            hard(2, 4, 4, z=1),         # aligned with 0
            hard(3, 2, 3, z=1),
        )
        terminals = (Terminal(0, "t0", 0, 0, 0),)
        cons = ConstraintSet(
            alignment_pairs=(AlignmentPair(0, 2, 16.0),),
            groups=((0, 1),),
            boundary_bindings=(BoundaryBinding(0, (0,), "ALL"),),
        )
        nets = (Net(blocks=(0, 1), terminals=(0,)), Net(blocks=(2, 3)))
        return Circuit("cstr", GridDims(16, 16, 2), blocks, terminals, nets,
                       cons, utilization=1.0)

    def test_constraints_hold_when_no_rung_fires(self):
        for seed in range(12):
            env = PlacementEnv(self.constrained_circuit(),
                               TaskProfile.for_task(3))
            run_random_episode(env, seed=seed)
            s = env.state
            assert all(step.rung == "none" for step in env.trace.steps)
            assert total_overlap(s) == 0
            assert oracles.binding_distance(
                s, s.circuit.constraints.boundary_bindings[0]) == 0
            assert oracles.adjacency_length(s.rect(0), s.rect(1)) > 0
            score = oracles.alignment_fraction(s.rect(0), s.rect(2), 16.0)
            assert score >= 0.1 * min(24, 16) / 16.0 - 1e-12

    def test_fuzz_zero_overlap_and_in_bounds(self):
        rng = np.random.default_rng(99)
        for trial in range(20):
            n = int(rng.integers(3, 8))
            blocks = []
            for i in range(n):
                w = int(rng.integers(1, 5))
                h = int(rng.integers(1, 5))
                z = int(rng.integers(0, 2))
                if rng.random() < 0.5:
                    blocks.append(soft(i, w * h, w, h, z))
                else:
                    blocks.append(hard(i, w, h, z))
            ids = list(range(n))
            nets = (Net(blocks=tuple(ids[: max(2, n // 2)])),)
            c = Circuit(f"fz{trial}", GridDims(16, 16, 2), tuple(blocks),
                        (), nets, utilization=1.0)
            env = PlacementEnv(c, unit_profile())
            run_random_episode(env, seed=1000 + trial)
            s = env.state
            assert total_overlap(s) == 0
            for i in range(n):
                x, y, w, h = s.rect(i)
                assert 0 <= x and x + w <= 16
                assert 0 <= y and y + h <= 16


class TestTraceAndSummary:
    def finished_env(self, seed=2):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        return run_random_episode(env, seed=seed)

    def test_jsonl_round_readable(self):
        env = self.finished_env()
        lines = env.trace.to_jsonl().strip().split("\n")
        assert len(lines) == 4
        for i, line in enumerate(lines):
            rec = json.loads(line)
            assert rec["step"] == i
            assert rec["reward"] == pytest.approx(env.trace.rewards[i])
            assert set(rec["raw"]) == {"alignment", "hpwl", "overlap",
                                       "adjacency", "distance"}
            assert rec["rung"] == "none"

    def test_summary_contents(self):
        env = self.finished_env()
        summ = episode_summary(env.state, env.trace)
        assert summ.rung_events == 0
        assert summ.raw.normalized is False and summ.norm.normalized is True
        assert summ.norm.hpwl == summ.raw.hpwl / env.hpwl_baseline
        assert summ.rewards == env.trace.rewards
        assert set(summ.satisfaction) == {
            "boundary", "grouping", "alignment", "preplace",
            "overlap", "outline", "shape"}
        assert summ.satisfaction["overlap"] == (2, 2)   # one pair per layer

    def test_summary_requires_finished_episode(self):
        env = PlacementEnv(four_block_circuit(), unit_profile())
        env.reset()
        env.step(Action(0, 0))
        with pytest.raises(ValueError, match="not finished"):
            episode_summary(env.state, env.trace)
