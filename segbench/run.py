#!/usr/bin/env python3
"""segrenum benchmark: seeded workloads, checked payloads, timed passes.

Run from the repository root:

    python3 segbench/run.py --workload corpus --seed 1 --seconds 25 --trace 0
    python3 segbench/run.py --workload all --seed 1

Workloads (see workloads.py): ``threefold`` (the image-threefold ``circ``
command), ``corpus`` (the shipped ``expect`` lines through the ``check``
path) and ``dense`` (random dense zero-dimensional quadric systems).  The
load is a closed loop: one client runs one task at a time, in one process.

A run first sets the workload up SETUP_PROBES times in child processes and
reports the median as ``setup_s``.  It then repeats passes over the task
list while another pass still fits in ``--seconds`` (at least one pass) and
reports the median pass as ``wall_ref_s``.  Every payload is checked against
its oracle and against the same task in the run's first pass.

Both times are scaled to a reference host speed (hostspeed.py): the host's
speed is sampled with a fixed reference burst during every pass, and in
every set-up probe's child around its set-up, because on a shared host it
drifts by more than any bound worth keeping.  The raw wall times are in the detail line
(``wall_s``, ``setup_raw_s``).

With ``--trace 1`` the run then repeats the same number of passes with the
tracer installed (tracing.py) and reports the per-layer metrics instead,
including the trace overhead (traced minus untraced median pass time).  It
fails when a traced payload differs from the untraced one or when a boundary
the workload must reach (workloads.MUST_REACH) recorded no call.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``; the metric names and
units are those of BENCHMARK.json.  The line before it holds the run
context (kernel backend, Python, nproc, seed, commit) and details: per-task
latency percentiles with their sample count, fail_frac and the failures.
The exit status is 0 only when every check passed.
Results, and in traced runs the spans, are written to segbench/results/.
"""

from __future__ import annotations

import argparse
import gzip
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

from hostspeed import HostSpeed, scale, scale_span

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
PACKAGE = ROOT / "src" / "segrenum"
RESULTS = HERE / "results"
WORKLOAD_NAMES = ("threefold", "corpus", "dense")
SETUP_PROBES = 7
BURSTS_PER_SIDE = 3
CHILD_TIMEOUT_S = 170


def _import_package():
    """Import segrenum from this checkout's source tree, never from elsewhere."""
    if not (PACKAGE / "__init__.py").is_file():
        sys.exit(f"segbench: no segrenum sources under {PACKAGE}")
    sys.path.insert(0, str(PACKAGE.parent))
    sys.path.insert(0, str(HERE))
    import segrenum

    if Path(segrenum.__file__).resolve().parent != PACKAGE:
        sys.exit(f"segbench: imported segrenum from {segrenum.__file__}")


def _spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


# -- context -----------------------------------------------------------------


def _git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )  # fmt: skip
    except (OSError, subprocess.SubprocessError):
        return None
    return out.stdout.strip() if out.returncode == 0 else None


def _source_sha256():
    digest = hashlib.sha256()
    for path in sorted(PACKAGE.rglob("*")):
        if path.suffix in (".py", ".pyx", ".prob") and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(PACKAGE)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()


def run_context(args) -> dict:
    """What a number must be stored with: pure and compiled kernels differ."""
    from segrenum import kernel

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "kernel_backend": kernel.backend_name(),
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "src_sha256": _source_sha256(),
    }


# -- measurement -------------------------------------------------------------


def probe_setup(args) -> tuple[float, float]:
    """Seconds from starting a child process to its workload being set up,
    raw and scaled by the reference bursts the child ran around its set-up
    (in the child, so they run where the set-up ran)."""
    started = time.monotonic()
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--setup-probe",
         "--workload", args.workload, "--seed", str(args.seed)],
        capture_output=True, text=True, timeout=CHILD_TIMEOUT_S, check=True,
    )  # fmt: skip
    child = json.loads(out.stdout.splitlines()[-1])
    raw = child["ready"] - started - child["bursts_before_s"]
    return raw, scale(raw, child["bursts"])


def setup_probe(args) -> None:
    """The child's side of ``probe_setup``: bursts, set-up, bursts; prints
    when the set-up was done, the burst time before it and every burst."""
    speed = HostSpeed()
    for _ in range(BURSTS_PER_SIDE):
        speed.sample()
    before = speed.overhead
    _import_package()
    import workloads

    workloads.WORKLOADS[args.workload](args.seed)
    ready = time.monotonic()
    for _ in range(BURSTS_PER_SIDE):
        speed.sample()
    print(json.dumps({"ready": ready, "bursts_before_s": before, "bursts": speed.take()}))


def run_pass(workload, label, tracer=None, speed=None) -> dict:
    """One pass over the task list.  With ``speed`` the host speed is sampled
    during the pass; burst time is taken out of every task time, and the pass
    time is also given scaled (``wall_ref_s``)."""
    if tracer is not None:
        tracer.new_pass()
        tracer.task = f"{label}.tasks"
    tasks = workload.tasks()
    clock = time.perf_counter
    raws = []
    if speed is not None:
        speed.take()
        speed.sample()  # the burst just before the pass
    start = clock()
    if speed is not None:
        speed.start()
    try:
        for i, task in enumerate(tasks):
            if tracer is not None:
                tracer.task = f"{label}.{i}"
            t0, o0 = clock(), speed.overhead if speed else 0.0
            try:
                raw, error = task.run(), None
            except Exception as exc:  # a failing task is counted, not fatal
                raw, error = None, f"{type(exc).__name__}: {exc}"
            raws.append((raw, error, clock() - t0 - ((speed.overhead - o0) if speed else 0.0)))
    finally:
        if speed is not None:
            speed.stop()
    end = clock()
    out = {"wall_s": end - start}
    if speed is not None:
        speed.sample()  # the burst just after the pass
        bursts = speed.take()
        program, scaled = scale_span(bursts, start, end)
        out.update(program_s=program, wall_ref_s=scaled, bursts=len(bursts) - 2)
    if tracer is not None:
        tracer.task = None
    results = []
    for task, (raw, error, seconds) in zip(tasks, raws):
        payload = None
        if error is None:
            payload, error = task.finish(raw)
        results.append({"task": task.name, "s": seconds, "payload": payload, "error": error})
    out["tasks"] = results
    return out


def measure(workload, seconds, passes=None, tracer=None, label="p", speed=None) -> list[dict]:
    """Passes until the next would overrun ``seconds``, or exactly ``passes``."""
    out = []
    start = time.perf_counter()
    while True:
        out.append(run_pass(workload, f"{label}{len(out)}", tracer, speed))
        if passes is not None:
            if len(out) >= passes:
                return out
            continue
        elapsed = time.perf_counter() - start
        if elapsed + elapsed / len(out) > seconds:
            return out


def check_passes(passes, reference) -> list[str]:
    """Failures: oracle errors, and payloads that differ from the reference
    pass (the run's first untraced pass)."""
    failures = []
    for p in passes:
        for task, ref in zip(p["tasks"], reference["tasks"]):
            if task["error"] is not None:
                failures.append(f"{task['task']}: {task['error']}")
            elif task["payload"] != ref["payload"]:
                failures.append(f"{task['task']}: payload differs from the first pass")
    return failures


def end_to_end(passes, probes) -> tuple[dict, dict]:
    # Task times are scaled by their pass's host speed, like the pass itself.
    times = [
        t["s"] * p["wall_ref_s"] / p["program_s"] for p in passes for t in p["tasks"]
    ]  # fmt: skip
    metrics = {
        "setup_s": statistics.median(scaled for _, scaled in probes),
        "wall_ref_s": statistics.median(p["wall_ref_s"] for p in passes),
        # ru_maxrss is in KiB on Linux
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
    }
    # Per-task latency is reported but not gated: its run-to-run spread
    # exceeds what BENCHMARK.json may allow.  The tail is reported only where
    # at least ten samples lie beyond it.
    detail = {
        "passes": len(passes),
        "wall_s": statistics.median(p["wall_s"] for p in passes),
        "task_samples": len(times),
        "task_p50_s": statistics.median(times),
        "task_p90_s": statistics.quantiles(times, n=10)[-1] if len(times) >= 100 else None,
        "setup_probes_s": [scaled for _, scaled in probes],
        "setup_raw_s": [raw for raw, _ in probes],
        "pass_wall_s": [p["wall_s"] for p in passes],
        "pass_wall_ref_s": [p["wall_ref_s"] for p in passes],
        "pass_bursts": [p["bursts"] for p in passes],
    }
    return metrics, detail


def traced_metrics(workload_name, workload, plain):
    """Repeat the untraced passes under the tracer; returns the per-layer
    metrics, details, the tracer and the traced passes."""
    import tracing
    from workloads import MUST_REACH

    tracer = tracing.Tracer()
    with tracer:
        traced = measure(workload, 0, passes=len(plain), tracer=tracer, label="t")
    metrics, calls = tracing.summarize(tracer.spans, tracer.counts, len(traced))
    metrics.update(tracing.source_lines(PACKAGE))
    metrics["trace.overhead_s"] = statistics.median(
        p["wall_s"] for p in traced
    ) - statistics.median(p["program_s"] for p in plain)
    missed = [b for b in MUST_REACH[workload_name] if not calls[b]]
    detail = {
        "traced_passes": len(traced),
        "traced_pass_wall_s": [p["wall_s"] for p in traced],
        "unreached_boundaries": missed,
    }
    return metrics, detail, tracer, traced


def write_results(args, doc, tracer=None):
    RESULTS.mkdir(exist_ok=True)
    stem = RESULTS / f"{args.workload}-seed{args.seed}-trace{args.trace}"
    stem.with_suffix(".json").write_text(json.dumps(doc, indent=1), encoding="utf-8")
    if tracer is not None:
        names = sorted({rec[0] for rec in tracer.spans})
        index = {n: i for i, n in enumerate(names)}
        spans = [[index[r[0]], r[1], r[2], r[3], r[4]] for r in tracer.spans]
        with gzip.open(stem.with_suffix(".spans.json.gz"), "wt", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": spans}, fh)


def run_one(args) -> int:
    import workloads

    spec = _spec()
    context = run_context(args)
    probes = [probe_setup(args) for _ in range(SETUP_PROBES)]
    speed = HostSpeed()
    workload = workloads.WORKLOADS[args.workload](args.seed)
    plain = measure(workload, args.seconds, speed=speed)
    values, detail = end_to_end(plain, probes)
    failures = check_passes(plain, plain[0])
    attempted = sum(len(p["tasks"]) for p in plain)
    tracer = None
    wanted = spec["end_to_end"]
    if args.trace:
        layer, tdetail, tracer, traced = traced_metrics(args.workload, workload, plain)
        values.update(layer)
        detail.update(tdetail)
        failures += check_passes(traced, plain[0])
        attempted += sum(len(p["tasks"]) for p in traced)
        wanted = spec["per_layer"]
    detail["fail_frac"] = len(failures) / attempted
    detail["failures"] = failures[:20]
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    result = {
        "correct": not failures and not detail.get("unreached_boundaries"),
        "attempted": attempted,
        "failed": len(failures),
        "metrics": metrics,
    }
    write_results(
        args,
        {
            "context": context,
            "detail": detail,
            "result": result,
            "task_s": [[t["s"] for t in p["tasks"]] for p in plain],
            "first_pass": plain[0],
        },
        tracer,
    )
    shown = {name: (m["value"], m["unit"]) for name, m in metrics.items()}
    if not args.trace:
        shown["task_p50_s"] = (detail["task_p50_s"], f"s (n={detail['task_samples']})")
        if detail["task_p90_s"] is not None:
            shown["task_p90_s"] = (detail["task_p90_s"], f"s (n={detail['task_samples']})")
    shown["fail_frac"] = (detail["fail_frac"], "ratio")
    for name, (value, unit) in shown.items():
        print(f"{args.workload:9s} {name:34s} {value:>14.6g} {unit}")
    print(json.dumps({"context": context, "detail": detail}))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so memory and caches stay apart."""
    combined = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOAD_NAMES:
        out = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True,
        )  # fmt: skip
        sys.stderr.write(out.stderr)
        lines = out.stdout.splitlines()
        if out.returncode not in (0, 1) or not lines:
            sys.exit(f"segbench: workload {name} exited with {out.returncode}")
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        combined["correct"] &= result["correct"]
        combined["attempted"] += result["attempted"]
        combined["failed"] += result["failed"]
        for metric, value in result["metrics"].items():
            combined["metrics"][f"{name}.{metric}"] = value
    print(json.dumps(combined))
    return 0 if combined["correct"] else 1


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, help="default: run_seconds of BENCHMARK.json")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.seconds is None:
        args.seconds = _spec()["run_seconds"]
    if args.workload == "all":
        return run_all(args)
    if args.setup_probe:
        setup_probe(args)
        return 0
    _import_package()
    return run_one(args)


if __name__ == "__main__":
    sys.exit(main())
