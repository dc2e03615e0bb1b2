"""One benchmark process: set up, serve the requests, check the answers.

Started by ``run.py`` in a fresh interpreter with ``PYTHONPATH`` set to the
checkout's ``src`` and ``WEILGROUP_CACHE`` pointed at an empty directory.
Prints one JSON object as its last line of standard output.

    python3 perfbench/worker.py --workload NAME --requests FILE --probe
    python3 perfbench/worker.py --workload NAME --requests FILE --outputs FILE --seed N --seconds S --trace 0|1 [--trace-out FILE]

``--probe`` only measures set-up (package import, then the workload's
warm-up) and exits.  Otherwise the process serves the requests from one
closed-loop client: the next request starts when the previous one returns.

The requests file holds the distinct inputs (``pool``) and the stream as
indices into it (``order``).  Untraced, each answer is pickled to the
``--outputs`` file as it comes and each request's start and end go to a
preallocated array, so the process holds no more memory after many requests than after
few, and its peak RSS is the program's, not a count of requests served.
The answers are read back and checked after peak RSS has been taken.

From before the package import to the end of the timed loop, a
``calibrate.ReferenceClock`` times a fixed kernel every 50 ms, and every
time the process reports is read from it: seconds at reference host speed,
the kernel's own time left out.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import resource
import statistics
import sys
import time
from array import array
from contextlib import nullcontext

from calibrate import ReferenceClock


def import_package() -> None:
    import weilgroup

    expected = os.path.join(os.getcwd(), "src", "weilgroup")
    if os.path.dirname(os.path.abspath(weilgroup.__file__)) != expected:
        raise SystemExit(f"weilgroup imported from {weilgroup.__file__}, expected {expected}")


def warm_up(workload: str) -> None:
    """What the first request would otherwise pay: Horn tables, inequality systems."""
    if workload == "reduce-exact":
        import weilgroup.horn
        import weilgroup.reduce

        # derivations start from a fresh HornTable; this loads the LP backend
        weilgroup.reduce.reduce_system(1, 1, table=weilgroup.horn.HornTable())
    else:
        import weilgroup.smith

        # every non-separable sextic route enumerates cokernels at (s, t) = (4, 2)
        weilgroup.smith.inequality_system(4, 2)


# ---------------------------------------------------------------------------
# request handlers


def serve_classify(req, tracer=None):
    from weilgroup import classify, weil

    try:
        with _span(tracer, "weil.parse_and_validate"):
            parsed = weil.parse_and_validate(req["coeffs"], req["q"])
    except weil.WeilError as exc:
        if tracer:
            tracer.counts["weil.rejected"] += 1
        return ("rejected", exc.code)
    try:
        with _span(tracer, "classify.classify_all"):
            result = classify.classify_all(parsed)
    except weil.WeilError as exc:
        return ("error", exc.code)
    return ("ok", result.plan.kind, dict(result.groups))


def serve_reduce(job, tracer=None):
    from weilgroup import horn, reduce

    from checks import job_name

    if job["op"] == "reduce_system":
        with _span(tracer, f"reduce.reduce_system.{job_name(job)}"):
            res = reduce.reduce_system(job["s"], job["t"], scalar_b=job["scalar_b"], table=horn.HornTable())
        if tracer:
            tracer.counts["reduce.candidates"] += len(res.kept) + len(res.removed_implied)
            tracer.counts["reduce.removed_implied"] += len(res.removed_implied)
        counts = (len(res.kept), len(res.removed_structural), len(res.removed_implied))
        return ("ok", counts, tuple(iq.key() for iq in res.kept))
    with _span(tracer, f"reduce.redundant_members_full.{job_name(job)}"):
        triples_before = tracer.counts["horn.triples"] if tracer else 0
        res = reduce.redundant_members_full(job["n"], table=horn.HornTable())
    if tracer:
        tracer.counts["reduce.candidates"] += tracer.counts["horn.triples"] - triples_before
        tracer.counts["reduce.removed_implied"] += len(res)
    return ("ok", [[list(part) for part in tri] for tri in res])


def _span(tracer, name):
    return tracer.span(name) if tracer else nullcontext()


def serve_one(serve, req, tracer=None):
    try:
        return serve(req, tracer)
    except Exception as exc:  # a failed request is counted, the loop goes on
        return ("exception", f"{type(exc).__name__}: {exc}")


# ---------------------------------------------------------------------------
# timed loops


def timed_stream(serve, pool, order, prefix, seconds, sink):
    """Serve ``pool[i]`` for i in ``order`` until ``seconds`` have passed and
    the first ``prefix`` are done, or the stream ends.  Answers are pickled
    to ``sink``.  Returns the start and end of every request, the number
    served, the loop's start and end, and the start and end of the first
    ``prefix`` requests."""
    stamps = array("d", bytes(16 * len(order)))
    served = 0
    prefix_end = None
    start = time.perf_counter()
    deadline = start + seconds
    for idx in order:
        t0 = time.perf_counter()
        out = serve_one(serve, pool[idx])
        t1 = time.perf_counter()
        stamps[2 * served] = t0
        stamps[2 * served + 1] = t1
        pickle.dump(out, sink)
        served += 1
        if served == prefix:
            prefix_end = t1
        if t1 >= deadline and served >= prefix:
            break
    return stamps[:2 * served], served, (start, time.perf_counter()), [(start, prefix_end)]


def timed_passes(serve, jobs, seconds, sink):
    """Whole passes over the fixed job set, at least one, starting another
    only while it is expected to end within ``seconds``.  Returns the start
    and end of every job, the number served, the loop's start and end, and
    the start and end of every pass."""
    stamps, passes = array("d"), []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start + (passes[-1][1] - passes[-1][0]) <= seconds:
        pass_start = time.perf_counter()
        for job in jobs:
            t0 = time.perf_counter()
            out = serve_one(serve, job)
            stamps.extend((t0, time.perf_counter()))
            pickle.dump(out, sink)
        passes.append((pass_start, time.perf_counter()))
    return stamps, len(stamps) // 2, (passes[0][0], passes[-1][1]), passes


def read_outputs(path, count):
    with open(path, "rb") as fh:
        return [pickle.load(fh) for _ in range(count)]


def one_pass(serve, requests, tracer=None):
    outputs = []
    start = time.perf_counter()
    for idx, req in enumerate(requests):
        if tracer:
            tracer.request = idx
        outputs.append(serve_one(serve, req, tracer))
    return outputs, (start, time.perf_counter())


def percentile(sorted_values, pct):
    """Nearest-rank percentile of an ascending list."""
    rank = max(1, math.ceil(pct / 100 * len(sorted_values)))
    return sorted_values[rank - 1]


# ---------------------------------------------------------------------------


def verdicts_for(workload, requests, outputs, seed):
    from checks import check_classify, check_reduce

    if workload == "reduce-exact":
        n = len(requests)
        verdicts = check_reduce(requests, outputs[:n])
        # later passes must repeat the first pass exactly
        for idx in range(n, len(outputs)):
            if outputs[idx] != outputs[idx % n]:
                verdicts.append(f"pass {idx // n}: {requests[idx % n]} answer changed")
            else:
                verdicts.append(None)
        return verdicts
    return check_classify(requests, outputs, seed)


def run_untraced(args, workload, pool, order, prefix, clock):
    with open(args.outputs, "wb") as sink:
        if workload == "reduce-exact":
            stamps, served, loop, windows = timed_passes(serve_reduce, pool, args.seconds, sink)
        else:
            stamps, served, loop, windows = timed_stream(
                serve_classify, pool, order, prefix, args.seconds, sink)
    clock.stop()
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    elapsed = clock.interval(*loop)
    wall = statistics.median(clock.interval(*window) for window in windows)
    outputs = read_outputs(args.outputs, served)
    if workload == "reduce-exact":
        verdicts = verdicts_for(workload, pool, outputs, args.seed)
    else:
        verdicts = verdicts_for(workload, [pool[i] for i in order[:served]], outputs, args.seed)
    lat = sorted(clock.interval(stamps[2 * i], stamps[2 * i + 1]) for i in range(served))
    return {
        "attempted": served,
        "failures": [v for v in verdicts if v],
        "metrics": {
            "throughput_rps": served / elapsed,
            "latency_p50_ms": percentile(lat, 50) * 1000,
            "latency_p90_ms": percentile(lat, 90) * 1000,
            "latency_p99_ms": percentile(lat, 99) * 1000,
            "wall_s": wall,
            "peak_rss_mb": peak_rss_mb,
        },
        "samples": len(lat),
    }


def run_traced(args, workload, pool, order, prefix, clock):
    import tracing

    serve = serve_reduce if workload == "reduce-exact" else serve_classify
    fixed = [pool[i] for i in order[:prefix]]
    tracer = tracing.Tracer()
    saved = tracing.install(tracer)
    try:
        with tracer.span("setup.warm"):
            warm_up(workload)
    finally:
        tracing.uninstall(saved)
    plain_outputs, plain_bounds = one_pass(serve, fixed)
    saved = tracing.install(tracer)
    try:
        traced_outputs, traced_bounds = one_pass(serve, fixed, tracer)
    finally:
        tracing.uninstall(saved)
    clock.stop()
    for span in tracer.spans:
        span[1], span[2] = clock.at(span[1]), clock.at(span[2])
    plain_wall, traced_wall = clock.interval(*plain_bounds), clock.interval(*traced_bounds)
    verdicts = verdicts_for(workload, fixed, traced_outputs, args.seed)
    if traced_outputs != plain_outputs:
        verdicts.append("traced answers differ from untraced answers")
    if args.trace_out:
        tracer.write(args.trace_out)
    return {
        "attempted": len(fixed),
        "failures": [v for v in verdicts if v],
        "metrics": layer_metrics(tracer, workload, fixed, order[:prefix], plain_wall, traced_wall),
    }


def layer_metrics(tracer, workload, fixed, fixed_order, plain_wall, traced_wall):
    from workloads import KINDS, REDUCE_BLOCKS, REDUCE_FULL_N, repeat_share

    from checks import job_name

    spans = tracer.by_name()
    counts = tracer.counts

    def calls(name):
        return spans[name]["calls"] if name in spans else 0

    def ms(name, key="s"):
        return spans[name][key] * 1000 if name in spans else 0.0

    def ratio(num, den):
        return num / den if den else 0.0

    m = {
        "weil.parse_and_validate.calls": (calls("weil.parse_and_validate"), "count"),
        "weil.parse_and_validate.ms": (ms("weil.parse_and_validate"), "ms"),
        "weil.rejected": (counts["weil.rejected"], "count"),
        "weil.factor_weil.ms": (ms("weil.factor_weil"), "ms"),
        "weil.root_valuations.ms": (ms("weil.root_valuations"), "ms"),
        "polygon.transform_one_minus_t.ms": (ms("polygon.transform_one_minus_t"), "ms"),
        "classify.classify_all.calls": (calls("classify.classify_all"), "count"),
        "classify.self_ms": (ms("classify.classify_all", "self_s"), "ms"),
        "smith.enumerate_cokernels.calls": (calls("smith.enumerate_cokernels"), "count"),
        "smith.enumerate_cokernels.ms": (ms("smith.enumerate_cokernels"), "ms"),
        "smith.candidates": (counts["smith.candidates"], "count"),
        "smith.accept_ratio": (ratio(counts["smith.cokernels"], counts["smith.candidates"]), "ratio"),
        "smith.repeat_share": (ratio(counts["smith.repeat_calls"], calls("smith.enumerate_cokernels")), "ratio"),
        "smith.inequality_system.ms": (ms("smith.inequality_system"), "ms"),
        "horn.enumerate_T.ms": (ms("horn.enumerate_T"), "ms"),
        "horn.enumerate_T.triples": (counts["horn.triples"], "count"),
        "reduce.candidates": (counts["reduce.candidates"], "count"),
        "reduce.removed_implied": (counts["reduce.removed_implied"], "count"),
        "linprog.is_implied.calls": (calls("linprog.is_implied"), "count"),
        "linprog.is_implied.ms": (ms("linprog.is_implied"), "ms"),
        "linprog.highs.calls": (calls("linprog.highs"), "count"),
        "linprog.highs.ms": (ms("linprog.highs"), "ms"),
        "linprog.exact.ms": (ms("linprog.is_implied", "self_s"), "ms"),
        "linprog.implied_share": (ratio(counts["linprog.implied"], calls("linprog.is_implied")), "ratio"),
        "trace.overhead_share": (traced_wall / plain_wall - 1, "ratio"),
        "trace.spans": (len(tracer.spans), "count"),
    }
    for s, t in REDUCE_BLOCKS:
        for scalar_b in (False, True):
            name = job_name({"op": "reduce_system", "s": s, "t": t, "scalar_b": scalar_b})
            m[f"reduce.reduce_system.{name}.ms"] = (ms(f"reduce.reduce_system.{name}"), "ms")
    for n in REDUCE_FULL_N:
        m[f"reduce.redundant_members_full.n{n}.ms"] = (ms(f"reduce.redundant_members_full.n{n}"), "ms")
    m["workload.repeat_share"] = (repeat_share(fixed_order), "ratio")
    for kind in KINDS:
        share = ratio(sum(req.get("kind") == kind for req in fixed), len(fixed))
        m[f"workload.shape.{kind}"] = (share, "ratio")
    return {name: {"value": value, "unit": unit} for name, (value, unit) in m.items()}


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--requests", required=True)
    parser.add_argument("--outputs")
    parser.add_argument("--probe", action="store_true")
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--trace-out")
    args = parser.parse_args()

    clock = ReferenceClock()
    clock.start()
    marks = [time.perf_counter()]
    import_package()
    marks.append(time.perf_counter())
    if args.probe or not args.trace:
        warm_up(args.workload)
        marks.append(time.perf_counter())
    if args.probe:
        clock.stop()
        result = {}
    else:
        with open(args.requests, encoding="utf-8") as fh:
            doc = json.load(fh)
        run = run_traced if args.trace else run_untraced
        result = run(args, args.workload, doc["pool"], doc["order"], doc["trace_prefix"], clock)
    result["setup"] = {"import_s": clock.interval(marks[0], marks[1]),
                       "host_speed": clock.mean_speed()}
    if len(marks) == 3:
        result["setup"]["warm_s"] = clock.interval(marks[1], marks[2])
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
