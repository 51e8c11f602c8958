"""Benchmark entry point.

    python3 perfbench/run.py --workload {serve_read,nrt_mixed}
        --seed N --seconds S --trace {0,1} [--size {full,smoke}]

Runs one workload against the engine in this checkout, checks its
answers, and prints a table of every metric with its unit and sample
count, then (last line of stdout) one JSON object::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

``--trace 0`` reports the end-to-end metrics; ``--trace 1`` reruns the
workload with spans around calls into the engine and reports the
per-layer metrics instead (see README.md).  Works from any working
directory; all scratch files live under ``perfbench/work/``.
"""

from __future__ import annotations

import argparse
import json
import os
import shutil
import signal
import sys
import time

BENCH = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(BENCH)
WORK = os.path.join(BENCH, "work")
RESULTS = os.path.join(WORK, "results")

# name -> (unit, sample key, statistic); every workload reports all
END_TO_END = {
    "setup_s": ("s", "setup_s", 50),
    "build_docs_per_s": ("1/s", "build_docs_per_s", 50),
    "search_p50_ms": ("ms", "search_ms", 50),
    "query_p50_ms": ("ms", "query_ms", 50),
    "phrase_p50_ms": ("ms", "phrase_ms", 50),
    "first_search_after_write_ms": ("ms", "first_search_ms", 50),
    "serve_rss_mb": ("MB", "serve_rss_mb", 50),
}
# reported beside the gated metrics where a workload has them
EXTRA = {
    "search_p99_ms": ("ms", "search_ms", 99),
    "lm_p50_ms": ("ms", "lm_ms", 50),
    "ingest_p50_s": ("s", "ingest_s", 50),
    "delete_p50_ms": ("ms", "delete_ms", 50),
    "build_s": ("s", "build_s", 50),
}


class Ctx:
    """One run's scratch directory and measured window."""

    def __init__(self, work_dir: str):
        self.work = work_dir
        self.t0 = self.t1 = None

    def path(self, name: str) -> str:
        return os.path.join(self.work, name)

    def start_window(self) -> None:
        from measure import cpu_jiffies

        self.j0 = cpu_jiffies()
        self.t0 = time.perf_counter()

    def end_window(self) -> None:
        from measure import cpu_jiffies, steal_frac

        self.t1 = time.perf_counter()
        self.steal = steal_frac(self.j0, cpu_jiffies())

    def elapsed(self) -> float:
        return time.perf_counter() - self.t0


def _ray_temp_dir() -> str | None:
    """A per-run Ray temp directory in the checkout, unless its socket
    paths (about 62 characters below it) would overflow a unix socket
    name; then Ray's default."""
    d = os.path.join(ROOT, f".rb{os.getpid()}")
    if len(d) + 64 > 107:
        print(f"checkout path too long for Ray sockets; Ray keeps its "
              f"session files in its default temp directory",
              file=sys.stderr)
        return None
    return d


def _stop(pids: list[int], timeout: float = 30.0) -> None:
    """Wait until every pid has ended; kill what outlives ``timeout``."""
    from measure import proc_stat

    def alive():
        return [p for p in pids
                if (st := proc_stat(p)) is not None and st[0] != "Z"]

    deadline = time.monotonic() + timeout
    while alive() and time.monotonic() < deadline:
        time.sleep(0.1)
    for p in alive():
        try:
            os.kill(p, signal.SIGKILL)
        except ProcessLookupError:
            pass
    while alive():
        time.sleep(0.1)


def metrics_of(run, ray_init_s: float, table: dict) -> dict:
    from measure import percentile

    out = {}
    for name, (unit, key, q) in table.items():
        vals = run.samples.get(key)
        if not vals:
            continue
        v = percentile(vals, q)
        if name == "setup_s":
            v += ray_init_s
        out[name] = {"value": v, "unit": unit, "n": len(vals)}
    return out


def run_workload(args) -> dict:
    import ray

    from measure import NullTracer, Tracer, host_cpus
    import layers
    import workloads

    run_dir = os.path.join(WORK, str(os.getpid()))
    ray_dir = _ray_temp_dir()
    shutil.rmtree(run_dir, ignore_errors=True)
    os.makedirs(run_dir)
    ncpu = host_cpus()
    tracer = Tracer() if args.trace else NullTracer()
    run = workloads.Run()
    ctx = Ctx(run_dir)
    try:
        t0 = time.perf_counter()
        ray.init(address="local", num_cpus=ncpu, include_dashboard=False,
                 logging_level="ERROR", log_to_driver=False,
                 object_store_memory=512 << 20, _temp_dir=ray_dir)
        ray_init_s = time.perf_counter() - t0
        ray_cpus = ray.cluster_resources().get("CPU")
        from ray.data import DataContext

        dctx = DataContext.get_current()
        dctx.enable_progress_bars = False
        dctx.execution_options.verbose_progress = False
        workloads.WORKLOADS[args.workload](
            ctx, run, workloads.SIZES[args.size], args.seed, args.seconds,
            tracer)
    finally:
        from measure import descendants

        pids = descendants()
        ray.shutdown()
        _stop(pids)
        shutil.rmtree(run_dir, ignore_errors=True)
        if ray_dir is not None:
            shutil.rmtree(ray_dir, ignore_errors=True)

    e2e = metrics_of(run, ray_init_s, END_TO_END)
    missing = END_TO_END.keys() - e2e.keys()
    if missing:
        raise RuntimeError(f"no samples for {sorted(missing)}")
    report = {
        "workload": args.workload, "seed": args.seed, "trace": args.trace,
        "size": args.size, "host.cpus": ncpu, "ray.num_cpus": ray_cpus,
        "host.steal_frac": ctx.steal, "window_s": ctx.t1 - ctx.t0,
        "ray.init_s": ray_init_s,
        "attempted": run.attempted, "failed": run.failed,
        "fail_frac": run.failed / max(run.attempted, 1),
        "end_to_end": e2e, "extra": metrics_of(run, 0.0, EXTRA),
        "samples": run.samples,
    }
    if args.trace:
        layer = {name: 0.0 for name in layers.PER_LAYER}
        layer.update(run.layer)
        layer["ray.init_s"] = ray_init_s
        layer["host.cpus"] = ncpu
        layer["host.steal_frac"] = ctx.steal
        report["per_layer"] = {
            name: {"value": float(layer[name]), "unit": unit}
            for name, unit in layers.PER_LAYER.items()}
        report["spans"] = tracer.summary()
        os.makedirs(RESULTS, exist_ok=True)
        with open(os.path.join(
                RESULTS, f"spans-{args.workload}-s{args.seed}.json"),
                "w") as f:
            json.dump(tracer.dump(), f)
    return report


def print_report(report: dict) -> None:
    print(f"workload={report['workload']} seed={report['seed']} "
          f"trace={report['trace']} size={report['size']} "
          f"host.cpus={report['host.cpus']} "
          f"ray.num_cpus={report['ray.num_cpus']} "
          f"host.steal_frac={report['host.steal_frac']:.4f} "
          f"window_s={report['window_s']:.2f} "
          f"ray.init_s={report['ray.init_s']:.3f}")
    for name, m in {**report["end_to_end"], **report["extra"]}.items():
        print(f"  {name:30s} {m['value']:14.4f} {m['unit']:5s} "
              f"n={m['n']}")
    print(f"  {'fail_frac':30s} {report['fail_frac']:14.4f} "
          f"({report['failed']}/{report['attempted']})")
    if not report["trace"]:
        return
    print("  per-layer:")
    for name, m in report["per_layer"].items():
        print(f"    {name:32s} {m['value']:16.4f} {m['unit']}")
    print("  spans (name: count, wall s, self s):")
    for name, s in sorted(report["spans"].items()):
        print(f"    {name:32s} {s['n']:6d} {s['wall_s']:10.4f} "
              f"{s['self_s']:10.4f}"
              + ("" if s["self_le_wall"] else "  SELF > WALL"))
    untraced = os.path.join(
        RESULTS, f"{report['workload']}-s{report['seed']}-t0.json")
    if not os.path.exists(untraced):
        print(f"  tracing overhead: no untraced run of this workload and "
              f"seed under {RESULTS}; run it with --trace 0 first")
        return
    with open(untraced) as f:
        base = json.load(f)["end_to_end"]
    print("  tracing overhead (traced vs untraced, same seed):")
    for name, m in report["end_to_end"].items():
        if name in base:
            b = base[name]["value"]
            print(f"    {name:32s} {m['value']:12.4f} vs {b:12.4f} "
                  f"({(m['value'] - b) / b * 100:+.1f}%)")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True,
                    choices=["serve_read", "nrt_mixed"])
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=[0, 1], default=0)
    ap.add_argument("--size", choices=["full", "smoke"], default="full")
    args = ap.parse_args(argv)

    if not os.path.isfile(os.path.join(ROOT, "hadoopsearchengine_ray",
                                       "__init__.py")):
        print(f"engine package hadoopsearchengine_ray not found under "
              f"{ROOT}", file=sys.stderr)
        return 2
    sys.path[:0] = [ROOT, BENCH]
    # Ray workers inherit this environment: the checkout on their path
    # (from any working directory), no usage report sent anywhere, no
    # Ray memory monitor killing tasks when other tenants fill the
    # host's memory, and time for a worker to start on a loaded host
    # with a cold page cache
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, BENCH, os.environ.get("PYTHONPATH")) if p)
    os.environ["RAY_USAGE_STATS_ENABLED"] = "0"
    os.environ.setdefault("RAY_memory_monitor_refresh_ms", "0")
    os.environ.setdefault("RAY_worker_register_timeout_seconds", "300")
    # a terminated run still shuts Ray down and removes its directories
    signal.signal(signal.SIGTERM, lambda *_: sys.exit(143))

    report = run_workload(args)
    os.makedirs(RESULTS, exist_ok=True)
    with open(os.path.join(RESULTS, f"{args.workload}-s{args.seed}"
                           f"-t{args.trace}.json"), "w") as f:
        json.dump({k: v for k, v in report.items() if k != "spans"}, f,
                  indent=1)
    print_report(report)
    chosen = report["per_layer"] if args.trace else report["end_to_end"]
    spans_ok = all(s["self_le_wall"]
                   for s in report.get("spans", {}).values())
    print(json.dumps({
        "correct": report["failed"] == 0 and spans_ok,
        "attempted": report["attempted"],
        "failed": report["failed"],
        "metrics": {k: {"value": m["value"], "unit": m["unit"]}
                    for k, m in chosen.items()},
    }), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
