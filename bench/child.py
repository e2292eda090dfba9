"""One measured process of the benchmark; run.py starts a fresh one per sample.

Usage: python3 bench/child.py '<json spec>'

The spec names a mode. "setup" imports bprelab, loads the workload's config
and, for batch-reduce, writes the input batch, then prints the clock reading
at which it was ready; the parent subtracts its spawn time (both read the
same monotonic clock). "rep" times one execution of the workload, optionally
traced, judges its outputs and prints one JSON line with the figures.
"""

import json
import resource
import sys
import time
from pathlib import Path


def main(spec: dict) -> dict:
    root = Path(spec["root"])
    sys.path.insert(0, str(root / "src"))
    import workloads
    from spans import Tracer, by_name

    out_dir = Path(spec["out_dir"])
    workload = spec["workload"]
    t0 = time.perf_counter()
    seed = workloads.resolve_seed(root, workload, spec["seed"])
    load_config_s = time.perf_counter() - t0
    if spec["mode"] == "setup":
        if spec["write_input"]:
            workloads.write_input(workload, seed, out_dir)
        return {"ready": time.perf_counter(), "seed": seed}

    tracer = Tracer() if spec["trace"] else None
    if tracer:
        workloads.install_trace(tracer)
        root_span = tracer.open("bench.timed")
    start = time.perf_counter()
    result = workloads.timed_body(root, workload, seed, out_dir)
    wall = time.perf_counter() - start
    rss_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    out = {"wall_s": wall, "rss_kb": rss_kb, "seed": seed, "load_config_s": load_config_s}
    if tracer:
        tracer.close(root_span)
        tracer.restore()
        out["layers"] = by_name(tracer.spans)
        out["counters"] = dict(tracer.counters)
        spans = [[s.name, s.start, s.end, s.parent] for s in tracer.spans]
        (out_dir / "spans.json").write_text(json.dumps(spans))

    tally = workloads.Tally()
    if workload in workloads.RUN_WORKLOADS:
        out["statistical_misses"] = workloads.judge_run(root, workload, out_dir, result, tally)
        if (out_dir / "report.json").exists():
            out["digest"] = workloads.report_digest(out_dir)
    else:
        workloads.judge_sweep(seed, result, tally)
    out["attempted"], out["misses"] = tally.attempted, tally.misses
    if spec.get("thread_probe"):
        out["thread_speedup"] = workloads.thread_speedup(root, seed)
    return out


if __name__ == "__main__":
    print(json.dumps(main(json.loads(sys.argv[1]))))
