"""Command-line surface.

Subcommands: solve (place one circuit, write placement + report + trace),
eval (rebuild a report row from a placement file), masks (dump one block's
mask stack mid-rollout as CSV and PGM), gen-constraints (fabricate a
constraint file with exact counts), render (draw a placement as SVG), and
bench (deterministic synthetic sweep).

Circuits load from either a bookshelf directory (one .blocks, .nets and
.pl file, quantized onto the grid) or a circuit JSON file.  Exit codes:
0 success, 1 usage, 2 infeasible, 3 I/O or format trouble; errors print
one line to stderr with a machine-parsable prefix ("error:usage:",
"error:infeasible:", "error:io:").

Bench zeroes the wall-time column and fans cells out over --jobs worker
processes; output bytes are identical for any job count and across runs.
"""

import argparse
import dataclasses
import math
import multiprocessing
import sys
from pathlib import Path

from .bookshelf import ParseError, parse_circuit
from .core import Circuit, GridDims, InfeasibleError, TaskProfile
from .env import PlacementEnv
from .fileio import (
    ConstraintFile,
    apply_constraints,
    circuit_from_json,
    gen_constraints,
    mask_csv,
    mask_pgm,
    placement_from_json,
    placement_to_json,
    state_from_placement,
    synth_instance,
)
from .masks import compile_masks
from .render import render_svg
from .report import (
    RunRecord,
    record_from_state,
    record_from_summary,
    write_report,
)
from .solvers import SolverConfig, greedy_place, solve


class UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # argparse default exits 2; usage is exit 1
        raise UsageError(message)


# --- flag parsing ------------------------------------------------------------

def _parse_dims(text: str) -> GridDims:
    parts = text.lower().split("x")
    if len(parts) != 3:
        raise UsageError(f"--dims wants WxHxL, got {text!r}")
    try:
        w, h, l = (int(p) for p in parts)
    except ValueError:
        raise UsageError(f"--dims wants three integers, got {text!r}") from None
    try:
        return GridDims(w, h, l)
    except ValueError as e:     # a side below 1, or too many cells
        raise UsageError(f"--dims {text!r}: {e}") from None


def _number(low: float = -math.inf, high: float = math.inf):
    """argparse type: a finite number in (low, high]."""
    def number(text: str) -> float:
        v = float(text)
        if not math.isfinite(v):
            raise argparse.ArgumentTypeError(f"wants a finite number, got {text!r}")
        if not low < v <= high:
            raise argparse.ArgumentTypeError(
                f"wants a number in ({low:g}, {high:g}], got {text!r}")
        return v
    return number


def _values(item, n: int | None = None):
    """argparse type: comma-separated values of type `item`; exactly `n`
    of them when n is given."""
    def values(text: str) -> list:
        parts = text.split(",")
        if n is not None and len(parts) != n:
            raise argparse.ArgumentTypeError(
                f"wants {n} comma-separated values, got {text!r}")
        try:
            return [item(p) for p in parts]
        except ValueError:
            raise argparse.ArgumentTypeError(
                f"wants comma-separated {item.__name__} values, got {text!r}") from None
    return values


def _count(minimum: int):
    """argparse type: an integer no smaller than `minimum`."""
    def count(text: str) -> int:
        n = int(text)
        if n < minimum:
            raise argparse.ArgumentTypeError(
                f"must be at least {minimum}, got {n}")
        return n
    return count


def _profile(args) -> TaskProfile:
    overrides = {}
    if args.weights:
        wa, wo, wh, wl, wd = args.weights
        overrides.update(w_alignment=wa, w_overlap=wo, w_hpwl=wh,
                         w_adjacency=wl, w_distance=wd)
    if args.thresholds:
        t, b, af = args.thresholds
        overrides.update(terminal_mask_threshold=t, block_mask_threshold=b,
                         alignment_mask_frac=af)
    return TaskProfile.for_task(args.task, **overrides)


def _load_circuit(args) -> Circuit:
    path = Path(args.circuit)
    if path.is_dir():
        dims = _parse_dims(args.dims) if args.dims else GridDims(128, 128, 2)
        texts = []
        for suffix in (".blocks", ".nets", ".pl"):
            hits = sorted(path.glob("*" + suffix))
            if len(hits) != 1:
                raise ParseError(
                    f"need exactly one *{suffix} in {path}, found {len(hits)}")
            texts.append(hits[0].read_text())
        util = 0.80 if args.util is None else args.util
        return parse_circuit(*texts, dims=dims, utilization=util,
                             name=path.name)
    if path.suffix == ".json":
        for flag, value in (("--dims", args.dims), ("--util", args.util)):
            if value is not None:
                raise UsageError(f"{flag} applies to bookshelf input; JSON "
                                 f"circuits carry their grid and utilization")
        return circuit_from_json(path.read_text())
    raise UsageError(f"--circuit wants a bookshelf directory or a .json "
                     f"file, got {args.circuit!r}")


def _load_constrained(args) -> Circuit:
    circuit = _load_circuit(args)
    if getattr(args, "constraints", None):
        cf = ConstraintFile.from_json(Path(args.constraints).read_text())
        circuit = apply_constraints(circuit, cf)
    return circuit


def _load_placement(args, circuit: Circuit):
    """Header and state of the --placement file, whose grid must be the
    circuit's."""
    header, rows = placement_from_json(Path(args.placement).read_text())
    got = (header["width"], header["height"], header["layers"])
    want = (circuit.dims.width, circuit.dims.height, circuit.dims.num_layers)
    if got != want:
        raise ParseError(f"placement grid {got} does not match circuit {want}")
    return header, state_from_placement(circuit, rows)


# --- subcommands -------------------------------------------------------------

def _cmd_solve(args) -> int:
    circuit = _load_constrained(args)
    profile = _profile(args)
    config = SolverConfig(kind=args.solver, seed=args.seed,
                          sa_iterations=args.sa_iterations)
    result = solve(circuit, profile, config)
    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{circuit.name}-t{args.task}-{args.solver}-s{args.seed}"
    (out / f"{stem}.placement.json").write_text(
        placement_to_json(result.state, circuit.name, args.task, args.solver,
                          args.seed))
    rec = record_from_summary(circuit.name, args.task, args.solver, args.seed,
                              result.summary, wall_s=result.runtime_s)
    (out / f"{stem}.report.csv").write_text(write_report([rec]))
    (out / f"{stem}.report.json").write_text(write_report([rec], "json"))
    (out / f"{stem}.trace.jsonl").write_text(result.trace.to_jsonl())
    print(f"{stem}: cost={result.cost:.6f} "
          f"rungs={result.summary.rung_events} wrote 4 files to {out}")
    return 0


def _cmd_eval(args) -> int:
    circuit = _load_constrained(args)
    header, state = _load_placement(args, circuit)
    if not state.placed.all():
        raise ParseError(f"placement omits block {state.placed.tolist().index(False)}; "
                         f"eval needs every block")
    rec = record_from_state(circuit, state, task=header["task"],
                            solver=header["solver"], seed=header["seed"])
    sys.stdout.write(write_report([rec], args.format))
    return 0


def _cmd_masks(args) -> int:
    circuit = _load_constrained(args)
    profile = _profile(args)
    n = circuit.num_blocks
    if args.block is not None and not 0 <= args.block < n:
        raise UsageError(f"--block must be in [0, {n}), got {args.block}")
    result = greedy_place(circuit, profile)
    total = len(result.trace.steps)
    if not 0 <= args.at_step < total:
        raise UsageError(f"--at-step must be in [0, {total}), got {args.at_step}")

    env = PlacementEnv(circuit, profile)
    obs = env.reset(result.ars.get(result.trace.steps[0].block),
                    result.trace.steps[:args.at_step])

    block = args.block if args.block is not None else obs.block
    if block == obs.block:
        stack = obs.masks
    else:
        if env.state.placed[block]:
            raise UsageError(f"block {block} is already placed at "
                             f"step {args.at_step}")
        stack = compile_masks(env.state, block, profile)

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    stem = f"{circuit.name}-t{args.task}-step{args.at_step}-b{block}"
    dumps = stack.named_value_masks()
    names = []
    for name, mask in dumps:
        (out / f"{stem}.{name}.csv").write_text(mask_csv(mask.values))
        (out / f"{stem}.{name}.pgm").write_text(mask_pgm(mask.values))
        names.append(name)
    avail = stack.availability
    (out / f"{stem}.availability.csv").write_text(mask_csv(avail.mask))
    (out / f"{stem}.availability.pgm").write_text(mask_pgm(avail.mask))
    names.append("availability")
    print(f"{stem}: dumped {', '.join(names)} (rung {avail.rung}) to {out}")
    return 0


def _cmd_gen_constraints(args) -> int:
    circuit = _load_circuit(args)
    cf = gen_constraints(circuit, tuple(args.counts),
                         seed=args.seed, min_area_frac=args.min_area_frac)
    out = Path(args.out)
    out.parent.mkdir(parents=True, exist_ok=True)
    out.write_text(cf.to_json())
    print(f"wrote {out}: {len(cf.alignment_pairs)} pairs, "
          f"{len(cf.boundary)} bindings, {len(cf.groups)} groups")
    return 0


def _cmd_render(args) -> int:
    _, state = _load_placement(args, _load_constrained(args))
    out = Path(args.out)
    out.write_text(render_svg(state, cell=args.cell,
                              labels=not args.no_labels))
    print(f"wrote {out}")
    return 0


# --- bench -------------------------------------------------------------------

def _bench_cell(cell) -> tuple[str, str, dict]:
    """One sweep cell, rebuilt from scratch so worker processes stay
    independent; wall time is zeroed to keep the sweep byte-reproducible."""
    instance, task, solver, seed, sa_iterations = cell
    circuit, _ = synth_instance(f"synth{instance:02d}", 1000 + instance)
    profile = TaskProfile.for_task(task)
    config = SolverConfig(kind=solver, seed=seed, sa_iterations=sa_iterations)
    result = solve(circuit, profile, config)
    stem = f"{circuit.name}-t{task}-{solver}-s{seed}"
    placement = placement_to_json(result.state, circuit.name, task, solver,
                                  seed)
    rec = record_from_summary(circuit.name, task, solver, seed,
                              result.summary, wall_s=0.0)
    return stem, placement, dataclasses.asdict(rec)


def _cmd_bench(args) -> int:
    if any(t not in (1, 2, 3) for t in args.tasks):
        raise UsageError(f"--tasks wants values in 1..3, got {args.tasks}")
    solvers = args.solvers.split(",")
    for s in solvers:
        if s not in ("greedy", "sa", "random"):
            raise UsageError(f"unknown solver {s!r} in --solvers")
    for flag, values in (("--tasks", args.tasks), ("--solvers", solvers)):
        if len(set(values)) != len(values):
            raise UsageError(f"{flag} lists a value twice, got {values}")
    cells = [(i, t, s, seed, args.sa_iterations)
             for i in range(args.instances)
             for t in args.tasks
             for s in solvers
             for seed in range(args.seeds)]
    jobs = min(args.jobs, len(cells))
    if jobs > 1:
        with multiprocessing.Pool(jobs) as pool:
            results = pool.map(_bench_cell, cells)
    else:
        results = [_bench_cell(c) for c in cells]

    out = Path(args.out)
    out.mkdir(parents=True, exist_ok=True)
    records = []
    for stem, placement, rec in sorted(results, key=lambda r: r[0]):
        (out / f"{stem}.placement.json").write_text(placement)
        records.append(RunRecord(**rec))
    (out / "report.csv").write_text(write_report(records))
    (out / "report.json").write_text(write_report(records, "json"))
    print(f"bench: {len(records)} runs to {out}")
    return 0


# --- entry -------------------------------------------------------------------

def build_parser() -> _Parser:
    parser = _Parser(prog="stackfp", description=__doc__.splitlines()[0])
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, constraints=True):
        p.add_argument("--circuit", required=True,
                       help="bookshelf directory or circuit .json")
        p.add_argument("--dims", help="grid as WxHxL (bookshelf input only)")
        p.add_argument("--util", type=_number(0, 1),
                       help="area utilization for quantization (bookshelf "
                       "input only, default 0.80)")
        if constraints:
            p.add_argument("--constraints", help="constraint .json to apply")

    def tasky(p):
        p.add_argument("--task", type=int, choices=(1, 2, 3), required=True)
        p.add_argument("--weights", type=_values(_number(), 5),
                       help="w_aln,w_ovl,w_hpwl,w_adj,w_dist")
        p.add_argument("--thresholds", type=_values(_number(), 3),
                       help="terminal_max,block_min,alignment_frac")

    p = sub.add_parser("solve", help="place one circuit")
    common(p)
    tasky(p)
    p.add_argument("--solver", choices=("greedy", "sa", "random"),
                   default="greedy")
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--sa-iterations", type=_count(0), default=2000)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_solve)

    p = sub.add_parser("eval", help="recompute metrics from a placement")
    common(p)
    p.add_argument("--placement", required=True)
    p.add_argument("--format", choices=("csv", "json"), default="csv")
    p.set_defaults(func=_cmd_eval)

    p = sub.add_parser("masks", help="dump one block's mask stack")
    common(p)
    tasky(p)
    p.add_argument("--block", type=int, help="block id (default: the block "
                   "up next at --at-step)")
    p.add_argument("--at-step", type=int, default=0,
                   help="greedy rollout steps before the dump")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_masks)

    p = sub.add_parser("gen-constraints", help="fabricate a constraint file")
    common(p, constraints=False)
    p.add_argument("--counts", required=True, type=_values(_count(0), 3),
                   help="aligned,bound,grouped block counts")
    p.add_argument("--seed", type=_count(0), default=0)
    p.add_argument("--min-area-frac", type=_number(0), default=1.0)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_gen_constraints)

    p = sub.add_parser("render", help="draw a placement as SVG")
    common(p)
    p.add_argument("--placement", required=True)
    p.add_argument("--cell", type=_count(1), default=12)
    p.add_argument("--no-labels", action="store_true")
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_render)

    p = sub.add_parser("bench", help="synthetic sweep, byte-reproducible")
    p.add_argument("--instances", type=_count(1), default=3)
    p.add_argument("--seeds", type=_count(1), default=3)
    p.add_argument("--tasks", type=_values(int), default=[1, 2, 3])
    p.add_argument("--solvers", default="greedy,random")
    p.add_argument("--sa-iterations", type=_count(0), default=150)
    p.add_argument("--jobs", type=_count(1), default=1)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)
    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
        return args.func(args)
    except UsageError as e:
        print(f"error:usage: {e}", file=sys.stderr)
        return 1
    except InfeasibleError as e:
        print(f"error:infeasible: {e}", file=sys.stderr)
        return 2
    # readers raise ParseError for bad input; UnicodeError is a file that
    # is not text.  Any other exception is a fault of the program itself.
    except (ParseError, OSError, UnicodeError) as e:
        print(f"error:io: {e}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
