#!/usr/bin/env python3
"""weilgroup benchmark: one command, every metric, answers checked.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a checkout; the package is imported from its ``src``.
Workloads: classify-small-q, classify-large-q, reduce-exact (see README.md).

The seed makes the inputs; the package receives only the generated
requests.  Every process starts from a fresh interpreter with
``WEILGROUP_CACHE`` pointed at an empty directory.  Set-up is measured
SETUP_PROBES times in probe processes and once more in the worker, and the
median is reported.  The worker then serves the requests from one
closed-loop client.  Every time is read from a reference-speed clock
(``calibrate.py``), which corrects for the host's changing CPU speed.  With ``--trace 0`` the last line of standard output
is a JSON object with the end-to-end metrics; with ``--trace 1`` it holds
the per-layer metrics of a traced pass over the workload's fixed prefix,
and the spans are written to ``.perfbench_out/``.  The process exits
non-zero, printing no result, if the package cannot be found or a worker
fails.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import statistics
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402

SETUP_PROBES = 4
PROBE_TIMEOUT_S = 60
WORKER_TIMEOUT_S = 150
OUT_DIR = ".perfbench_out"

UNITS = {
    "setup_s": "s",
    "throughput_rps": "1/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "wall_s": "s",
    "peak_rss_mb": "MB",
}


class BenchError(RuntimeError):
    pass


def run_child(argv: list[str], root: Path, cache_dir: Path, timeout: float) -> dict:
    """Run a worker in a fresh interpreter and parse its last output line."""
    cache_dir.mkdir()
    env = dict(os.environ)
    env["PYTHONPATH"] = str(root / "src")
    env["WEILGROUP_CACHE"] = str(cache_dir)
    env["PYTHONHASHSEED"] = "0"
    try:
        proc = subprocess.run(
            [sys.executable, str(HERE / "worker.py"), *argv],
            cwd=root, env=env, capture_output=True, text=True, timeout=timeout,
        )
    except subprocess.TimeoutExpired as exc:
        raise BenchError(f"worker timed out after {timeout}s: {argv}") from exc
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): {proc.stderr.strip()[-2000:]}")
    lines = proc.stdout.strip().splitlines()
    if not lines:
        raise BenchError("worker printed no result")
    return json.loads(lines[-1])


def benchmark(args, root: Path) -> tuple[dict, list[str]]:
    out_dir = root / OUT_DIR
    out_dir.mkdir(exist_ok=True)
    tmp = Path(tempfile.mkdtemp(prefix="run-", dir=out_dir))
    try:
        requests_file = tmp / "requests.json"
        requests_file.write_text(json.dumps(WORKLOADS[args.workload](args.seed)))
        common = ["--workload", args.workload, "--requests", str(requests_file)]
        setups = [
            run_child(common + ["--probe"], root, tmp / f"cache-probe{i}", PROBE_TIMEOUT_S)["setup"]
            for i in range(SETUP_PROBES)
        ]
        trace_out = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl"
        worker_args = common + ["--outputs", str(tmp / "outputs.pickle"), "--seed", str(args.seed),
                                "--seconds", str(args.seconds), "--trace", str(args.trace)]
        if args.trace:
            worker_args += ["--trace-out", str(trace_out)]
        result = run_child(worker_args, root, tmp / "cache-worker", WORKER_TIMEOUT_S)
    finally:
        shutil.rmtree(tmp, ignore_errors=True)

    if not args.trace:
        setups.append(result["setup"])
    import_s = statistics.median(s["import_s"] for s in setups)
    warm_s = statistics.median(s["warm_s"] for s in setups)
    setup_s = statistics.median(s["import_s"] + s["warm_s"] for s in setups)
    attempted = result["attempted"]
    failed = len(result["failures"])
    lines = [f"workload {args.workload}  seed {args.seed}  trace {args.trace}  "
             f"setup samples {len(setups)}  requests attempted {attempted}"]
    if args.trace:
        metrics = result["metrics"]
        metrics["setup.import_s"] = {"value": import_s, "unit": "s"}
        metrics["setup.warm_s"] = {"value": warm_s, "unit": "s"}
        lines.append(f"spans written to {trace_out.relative_to(root)}")
    else:
        values = dict(result["metrics"], setup_s=setup_s)
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in UNITS.items()}
        lines.append("times are at reference host speed; this host ran at "
                     + " ".join(f"{s['host_speed']:.3f}" for s in setups)
                     + " of it in the set-up probes and the worker")
    for name in sorted(metrics):
        lines.append(f"  {name:44s} {metrics[name]['value']:>14.6g} {metrics[name]['unit']}")
    if not args.trace:
        samples = result["samples"]
        lines.append(f"  {'latency_p99_ms':44s} {result['metrics']['latency_p99_ms']:>14.6g} ms"
                     f"  (not gated: {samples} samples, {samples - -(-99 * samples // 100)} beyond p99)")
    lines.append(f"  {'failed_share':44s} {failed / attempted:>14.6g} ratio")
    lines += [f"FAILED: {reason}" for reason in result["failures"][:20]]
    summary = {"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}
    return summary, lines


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()

    root = Path.cwd()
    if not (root / "src" / "weilgroup" / "__init__.py").is_file():
        print(f"error: no package source at {root / 'src' / 'weilgroup'}", file=sys.stderr)
        return 2
    try:
        summary, lines = benchmark(args, root)
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    print("\n".join(lines))
    print(json.dumps(summary))
    return 0


if __name__ == "__main__":
    sys.exit(main())
