"""walkfluct benchmark: seeded workloads through the public API, every value checked.

    python3 bench/run.py --workload contour_grid --seed 1 --seconds 20 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 20

Run from the repository root; the package is imported from ./src.  With
--trace 0 the run reports the end-to-end metrics; with --trace 1 it alternates
untraced and traced rounds and reports the per-layer metrics.  The last line
of standard output is one JSON object: correct, attempted, failed, metrics.
See bench/README.md for the workloads and the metric definitions.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
WORKLOAD_NAMES = ("contour_grid", "rational_invert", "oracle_mc", "cli_sweep")
SETUP_REPEATS = 5
WARMUP_S = 1.0


def _parse(argv):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--seconds", type=float, default=20.0)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--setup-only", action="store_true",
                   help="set the workload up and exit (used to time setup_s)")
    return p.parse_args(argv)


def machine_facts() -> dict:
    import numpy

    files = sorted(SRC.rglob("*.py"))
    digest = hashlib.sha256()
    lines = 0
    for f in files:
        data = f.read_bytes()
        digest.update(data)
        lines += data.count(b"\n")
    env = dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent))
    try:
        git = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, env=env,
                             capture_output=True, text=True, timeout=10)
        commit = git.stdout.strip() if git.returncode == 0 else "unavailable"
    except (OSError, subprocess.SubprocessError):
        commit = "unavailable"
    return {"nproc": len(os.sched_getaffinity(0)), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_commit": commit, "src_lines": lines,
            "src_sha256": digest.hexdigest()[:16]}


def setup_seconds(workload: str, seed: int) -> tuple[float, float]:
    """Median (reference-speed, wall) time from a fresh interpreter to a set-up workload."""
    from harness import MachineSpeed

    cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
           "--seed", str(seed), "--setup-only"]
    speed = MachineSpeed()
    scaled, wall = [], []
    for _ in range(SETUP_REPEATS):
        scale = speed.scale_now()
        # no timeout: with one, Popen.wait polls in steps of up to 50 ms
        t0 = time.perf_counter()
        subprocess.run(cmd, cwd=ROOT, check=True, stdout=subprocess.DEVNULL)
        wall.append(time.perf_counter() - t0)
        scaled.append(wall[-1] * scale)
    return statistics.median(scaled), statistics.median(wall)


def warm_up(ops, limit) -> None:
    """One call of each operation group, so lazy imports and caches are filled."""
    from harness import execute

    seen = set()
    t0 = time.perf_counter()
    for i, op in enumerate(ops):
        if op.known or op.name in seen:
            continue
        seen.add(op.name)
        execute(op, i, -1, limit)
        if time.perf_counter() - t0 > WARMUP_S:
            break


def measure(wl, seconds: float, trace: bool):
    """Repeat whole rounds for about `seconds`; traced runs alternate with untraced."""
    import tracing
    from harness import MachineSpeed, execute

    ops = wl.ops(wl.models)
    speed = MachineSpeed()
    speed.scale_now()
    records, walls, traced_walls = [], [], []
    tracer = tracing.Tracer() if trace else None
    traced_ops = None
    if trace:
        traced_ops = wl.ops({k: tracing.traced_model(tracer, m) for k, m in wl.models.items()})
    start = time.perf_counter()
    rnd = 0
    while True:
        t0 = time.perf_counter()
        for i, op in enumerate(ops):
            records.append(execute(op, i, rnd, wl.limit, speed=speed))
        walls.append(time.perf_counter() - t0)
        last = walls[-1]
        if trace:
            t0 = time.perf_counter()
            with tracing.patched(tracer):
                for i, op in enumerate(traced_ops):
                    records.append(execute(op, i, rnd, wl.limit, tracer=tracer,
                                           op_id=len(records), speed=speed))
            traced_walls.append(time.perf_counter() - t0)
            last += traced_walls[-1]
        rnd += 1
        if time.perf_counter() - start + last / 2 >= seconds:
            break
    return ops, records, walls, traced_walls, tracer


def run_one(args) -> int:
    import harness
    import tracing
    from workloads import CLI_THREADS, Workload

    facts = machine_facts()
    setup_s, setup_wall = setup_seconds(args.workload, args.seed)
    wl = Workload(args.workload, args.seed, str(ROOT))
    try:
        warm_up(wl.ops(wl.models), wl.limit)
        ops, records, walls, traced_walls, tracer = measure(wl, args.seconds, bool(args.trace))
        rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        harness.check(records, ops)
    finally:
        wl.close()

    failed = [r for r in records if r.status == harness.FAIL]
    known = [r for r in records if r.status == harness.KNOWN]
    print(f"workload {args.workload} seed {args.seed} trace {args.trace}: "
          f"{len(walls)} rounds of {len(ops)} operations, time limit {wl.limit:g} s")
    print("facts " + json.dumps(facts))
    if known:
        print(f"known baseline failures: {len(known)} of {len(records)} operations")
        for reason in sorted({ops[r.op].known for r in known}):
            print(f"  {reason}")
    for r in failed[:5]:
        print(f"FAILED {ops[r.op].name} (round {r.round}): {r.error}", file=sys.stderr)

    metrics: dict[str, tuple[float, str]] = {}
    if args.trace:
        spans = tracer.spans
        traced = [r for r in records if r.traced]
        # a traced operation's span id is its record's position
        timeouts = {pos for pos, r in enumerate(records)
                    if r.traced and r.error == harness.TIME_LIMIT}
        pooled = {pos for pos, r in enumerate(records) if r.traced and ops[r.op].pooled}
        metrics.update(tracing.per_layer_metrics(
            spans, len(traced_walls), timeouts=len(timeouts), excluded_ops=timeouts,
            pooled_ops=pooled, workers=CLI_THREADS))
        metrics["trace.overhead_frac"] = (
            sum(r.ref_latency for r in traced)
            / sum(r.ref_latency for r in records if not r.traced) - 1.0, "1")
        ratios = [r.ratio for r in records if r.status == harness.PASS]
        metrics["check.err_ratio_max"] = (max(ratios) if ratios else 0.0, "1")
        out = ROOT / ".bench-out"
        out.mkdir(exist_ok=True)
        tracing.write_spans(spans, out / f"spans-{args.workload}-seed{args.seed}.jsonl")
        print(f"{len(spans)} spans over {len(traced_walls)} traced rounds "
              f"({len(traced)} operations) written to .bench-out/")
    else:
        e2e = harness.end_to_end(records, ops, len(walls), wl.limit)
        tail_p, n = e2e.pop("_tail")
        metrics["setup_s"] = (setup_s, "s")
        metrics.update(e2e)
        metrics["peak_rss_mb"] = (rss_mb, "MB")
        scales = [r.scale for r in records]
        print(f"times are reference-speed seconds: wall x {harness.PROBE_REF_S} s / probe; "
              f"scale median {statistics.median(scales):.3f} "
              f"(range {min(scales):.3f}-{max(scales):.3f})")
        passed = sum(r.status == harness.PASS for r in records)
        print(f"wall-clock: setup {setup_wall:.4f} s, {passed / sum(walls):.4g} passed "
              f"operations/s, median latency "
              f"{statistics.median(r.latency for r in records if r.status == harness.PASS):.4g} s")
        print(f"point_tail_s is p{tail_p:.1f} of {n} scored operations "
              f"({harness.TAIL_BEYOND} beyond it)")
        groups: dict[str, list[float]] = {}
        for r in records:
            if r.status == harness.PASS:
                groups.setdefault(ops[r.op].name, []).append(r.ref_latency)
        print("median latency by operation group (reference-speed s):")
        for name, lat in groups.items():
            print(f"  {name:40s} {statistics.median(lat):10.4f} s  ({len(lat)} calls)")
    for name, (value, unit) in metrics.items():
        print(f"  {name:40s} {value:14.6g} {unit}")
    declared = json.loads((ROOT / "BENCHMARK.json").read_text())
    expected = [m["name"] for m in declared["per_layer" if args.trace else "end_to_end"]]
    if sorted(expected) != sorted(metrics):
        print(f"error: metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(expected)}",
              file=sys.stderr)
        return 3
    result = {"correct": not failed, "attempted": len(records), "failed": len(failed),
              "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}
    print(json.dumps(result))
    return 0


def run_all(args) -> int:
    """Every workload in its own process; prints each one's metrics."""
    ok = True
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(args.trace)]
        proc = subprocess.run(cmd, cwd=ROOT, stdout=subprocess.PIPE, text=True)
        lines = proc.stdout.strip().splitlines()
        print("\n".join(lines[:-1]))
        if proc.returncode != 0 or not lines:
            ok = False
            continue
        ok = ok and json.loads(lines[-1])["correct"]
    return 0 if ok else 1


def main(argv=None) -> int:
    args = _parse(argv)
    if not (SRC / "walkfluct" / "__init__.py").is_file():
        print(f"error: no walkfluct sources under {SRC}; run from a full checkout",
              file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    if args.workload == "all":
        return run_all(args)
    if args.setup_only:
        from workloads import Workload

        Workload(args.workload, args.seed, str(ROOT)).close()
        return 0
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
