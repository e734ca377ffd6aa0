"""Benchmark entry point.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Workloads: greedy-ladder (free greedy solves, tasks 1-3), sa-anneal
(sa_place with a fixed budget, task 3) and env-rollout (random-policy
episodes through PlacementEnv with distance plug-ins, task 3).  All three
run the same scale ladder; see bench.py.

--trace 0 measures set-up time in fresh interpreters, one after another,
then runs the workload's closed loop, one call at a time in this process,
and reports the end-to-end metrics; both together take about S seconds.
--trace 1 runs a fixed amount of work twice, round by round, untraced and
with every traced library function wrapped, and reports the per-layer
metrics; the spans go to .perfbench/trace-<workload>-s<seed>.jsonl.

Human-readable lines come first; the last line of standard output is one
JSON object with the keys correct, attempted, failed and metrics.  Exit
codes: 0 success, 1 an output check failed, 2 no library in this checkout,
3 a traced function no longer exists in the library.
"""

import argparse
import json
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
OUT = HERE.parent / ".perfbench"
SETUP_REPEATS = 15


def measure_setup(workdir: Path) -> tuple[float, float, int]:
    """Median set-up seconds over fresh interpreters, each divided by the
    host factor the interpreter measured just before and just after it; the
    raw median; the count."""
    raw, adjusted = [], []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, str(HERE / "setup_probe.py"), str(workdir)],
            capture_output=True, text=True, timeout=120, check=True)
        seconds, factor = map(float, proc.stdout.split()[-2:])
        raw.append(seconds)
        adjusted.append(seconds / factor)
    return statistics.median(adjusted), statistics.median(raw), len(raw)


def recorded_digest(workload: str, seed: int) -> str | None:
    baseline = json.loads((HERE / "baseline.json").read_text())
    return baseline["digests"].get(workload, {}).get(str(seed))


def end_to_end(bench, tally, setup) -> dict:
    """Print every end-to-end quantity with its unit and sample count, and
    return the metrics, timings scaled by the host factor."""
    w = tally.workload.name
    step = tally.step_ms()
    wall = tally.step_ms(adjusted=False)
    quality = tally.quality()
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    setup_s, setup_wall, setup_n = setup
    lines = [f"host factor {tally.host_factor():.4f} (median of {len(tally.refs)} "
             f"reference runs); timing metrics divide wall times by the factor "
             f"around each call",
             f"setup_s {setup_s:.4f} s, wall {setup_wall:.4f} s "
             f"(median of {setup_n} fresh interpreters)"]
    for label, (ms, n) in step.items():
        lines.append(f"step_ms.{label} {ms:.4f} ms, wall {wall[label][0]:.4f} ms "
                     f"({n} samples)")
    # the same samples in each solver's own units
    if w == "greedy-ladder":
        for label, (v, n) in tally.per_point(lambda o: o.wall_s).items():
            lines.append(f"greedy.solve_s.{label} {v:.4f} s (wall, {n} solves)")
    elif w == "sa-anneal":
        for label, (v, n) in tally.per_point(lambda o: o.decodes / o.wall_s).items():
            lines.append(f"sa.iters_per_s.{label} {v:.3f} 1/s (wall, {n} runs)")
    else:
        eps = tally.timed()
        steps = sum(o.placements for o in eps)
        lines.append(f"env.steps_per_s {steps / sum(o.wall_s for o in eps):.2f} 1/s "
                     f"({steps} steps in {len(eps)} episodes)")
        lines.append(f"env.failed_frac {sum(o.dead for o in eps) / len(eps):.4f} "
                     f"(dead ends of {len(eps)} episodes)")
    kind = w.split("-")[0]
    lines.append(f"{kind}.cost {quality['cost']:.6f} (mean over round 0)")
    lines.append(f"hpwl_ratio {quality['hpwl_ratio']:.6f}, rule_sat_frac "
                 f"{quality['rule_sat_frac']:.6f} (round 0)")
    lines.append(f"peak_rss_mb {rss_mb:.1f} MB; {tally.attempted} operations, "
                 f"{tally.op_s:.2f} s in timed calls")
    print("\n".join(lines))

    values = {"setup_s": setup_s, "hpwl_ratio": quality["hpwl_ratio"],
              "rule_sat_frac": quality["rule_sat_frac"], "peak_rss_mb": rss_mb}
    values.update((f"step_ms.{label}", ms) for label, (ms, _) in step.items())
    metrics = {name: (values[name], unit) for name, unit in bench.END_TO_END}
    return metrics


def per_layer(bench, tracer, layer: dict, path: Path) -> dict:
    tracer.write_jsonl(path)
    spans = sorted(((layer[f"{n}.s"], n) for n in bench.TIMED), reverse=True)
    total = layer["trace.untraced_s"] + layer["trace.overhead_s"]
    for s, name in spans[:8]:
        print(f"{name} {s:.4f} s ({100 * s / total:.1f}% of traced calls)")
    print(f"relaxed_frac {layer['masks.availability.relaxed_frac']:.4f}, "
          f"tracing overhead {100 * layer['trace.overhead_frac']:.1f}%, "
          f"{layer['trace.spans']} spans written to {path}")
    return {name: (layer[name], unit) for name, unit in bench.PER_LAYER}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    args = parser.parse_args(argv)

    try:
        import bench
    except (ImportError, RuntimeError) as exc:
        print(f"error: cannot load the library: {exc}", file=sys.stderr)
        return 2
    from tracer import MissingSpanError

    workload = bench.WORKLOADS.get(args.workload)
    if workload is None:
        print(f"error: unknown workload {args.workload!r}; choose from "
              f"{', '.join(bench.WORKLOADS)}", file=sys.stderr)
        return 2

    OUT.mkdir(exist_ok=True)
    workdir = Path(tempfile.mkdtemp(prefix=f"inputs-{workload.name}-", dir=OUT))
    try:
        bench.generate(workload, args.seed, workdir)
        if args.trace:
            try:
                tally, tracer, layer = bench.run_traced(workload, args.seed, workdir)
            except MissingSpanError as exc:
                print(f"error: {exc}", file=sys.stderr)
                return 3
            metrics = per_layer(bench, tracer, layer,
                                OUT / f"trace-{workload.name}-s{args.seed}.jsonl")
        else:
            deadline = time.perf_counter() + args.seconds
            setup = measure_setup(workdir)
            tally = bench.run_timed(workload, args.seed, deadline, workdir)
            metrics = end_to_end(bench, tally, setup)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    digest = tally.digest()
    want = recorded_digest(workload.name, args.seed)
    note = "" if want is None else (" (matches the recorded digest)" if digest == want
                                    else f" (recorded digest is {want})")
    print(f"digest {digest}{note}")
    for problem in tally.problems[:20]:
        print(f"check failed: {problem}", file=sys.stderr)
    result = {
        "correct": tally.failed == 0,
        "attempted": tally.attempted,
        "failed": tally.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }
    (OUT / f"result-{workload.name}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps({**result, "digest": digest, "problems": tally.problems,
                    "samples": [[o.inst, o.kind, o.wall_s, o.placements, o.host]
                                for o in tally.outcomes]},
                   indent=2) + "\n")
    print(json.dumps(result))
    return 0 if tally.failed == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
