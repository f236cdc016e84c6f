"""Benchmark for lucene_msmarco_ray: index build, BM25 top-1000 serving and
incremental ingest, every result checked against an in-benchmark oracle.

    python3 perfbench/run.py --workload build|serve|ingest --seed N \\
        --seconds S --trace 0|1 [--config full|tiny]
    python3 perfbench/run.py --table .perfbench/results/<file>.json

Each run is one process that starts and stops its own Ray session. The last
line of standard output is one JSON object {correct, attempted, failed,
metrics}: the end-to-end metrics with ``--trace 0``, the per-layer metrics
with ``--trace 1``. The full result (host and input identity, CPU probe,
named metrics, layer table) is written to ``.perfbench/results/`` and the
table printed above the last line is rendered from that file. See
perfbench/NOTES.md.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
WORK = os.path.join(ROOT, ".perfbench")
HARD_LIMIT_S = 172          # the run is killed past this
STOP_ISSUING_S = 110        # no new timed operation starts after this
RAY_CPUS = 1                # one task at a time: nproc is 1 (see NOTES.md)
OBJECT_STORE_BYTES = 384 << 20
PROBES = 3                  # CPU probes before and after the run
CONTENDED_SHIFT = 0.10      # probe shift that marks a run as contended

E2E_UNITS = {
    "setup_s": "s",
    "throughput_per_s": "1/s",
    "latency_p50_ms": "ms",
    "latency_tail_ms": "ms",
    "peak_rss_mb": "MB",
    "index_bytes_per_input_byte": "B/B",
}


def _descendants() -> list[int]:
    parent = {}
    for p in os.listdir("/proc"):
        if p.isdigit():
            try:
                with open(f"/proc/{p}/stat") as f:
                    parent[int(p)] = int(f.read().rsplit(")", 1)[1].split()[1])
            except (OSError, IndexError, ValueError):
                pass
    out, frontier = [], [os.getpid()]
    while frontier:
        kids = [c for c, pp in parent.items() if pp in frontier]
        out += kids
        frontier = kids
    return out


def peak_rss() -> tuple[float, list[dict]]:
    """Sum of VmHWM in MB over this process and every live process it
    started, and the processes summed as [{"pid", "name", "kb"}]."""
    procs = []
    for pid in [os.getpid()] + _descendants():
        try:
            with open(f"/proc/{pid}/status") as f:
                fields = dict(line.split(":", 1) for line in f if ":" in line)
        except OSError:
            continue
        if "VmHWM" in fields:
            procs.append({"pid": pid, "name": fields["Name"].strip(),
                          "kb": int(fields["VmHWM"].split()[0])})
    return sum(p["kb"] for p in procs) / 1024, procs


def stop_children(grace_s: float = 10.0) -> list[int]:
    """Terminate what is left of the processes this run started and wait
    until they are gone. Returns the pids that had to be signalled."""
    left = _descendants()
    for sig in (signal.SIGTERM, signal.SIGKILL):
        for pid in left:
            try:
                os.kill(pid, sig)
            except OSError:
                pass
        t = time.monotonic()
        while _descendants() and time.monotonic() - t < grace_s:
            try:
                os.waitpid(-1, os.WNOHANG)
            except ChildProcessError:
                pass
            time.sleep(0.1)
        if not _descendants():
            break
    return left


def cpu_probe() -> float:
    """Seconds for a fixed amount of single-threaded Python and numpy work."""
    import numpy as np
    t = time.perf_counter()
    acc = 0
    for i in range(1_500_000):
        acc += i * i % 7
    rng = np.random.default_rng(0)
    np.sort(rng.random(2_000_000))
    return time.perf_counter() - t


def contended(before: list[float], after: list[float]) -> bool:
    """The host's speed changed during the run: the medians of the probes
    taken before and after it differ by more than either set's own range
    and by more than CONTENDED_SHIFT."""
    mb, ma = statistics.median(before), statistics.median(after)
    spread = max(max(before) - min(before), max(after) - min(after),
                 CONTENDED_SHIFT * min(mb, ma))
    return abs(ma - mb) > spread


def host_identity() -> dict:
    import numpy
    import pyarrow
    import ray
    mem_kb = 0
    with open("/proc/meminfo") as f:
        for line in f:
            if line.startswith("MemTotal:"):
                mem_kb = int(line.split()[1])
    nproc = subprocess.run(["nproc"], capture_output=True, text=True)
    return {"nproc": int(nproc.stdout) if nproc.returncode == 0 else None,
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "ram_gb": round(mem_kb / 2**20, 2),
            "python": platform.python_version(), "ray": ray.__version__,
            "pyarrow": pyarrow.__version__, "numpy": numpy.__version__,
            "ray_logical_cpus": RAY_CPUS,
            "object_store_mb": OBJECT_STORE_BYTES >> 20}


def ray_dir() -> str:
    """This run's Ray session directory (removed when the run ends)."""
    return os.path.join(WORK, "ray", str(os.getpid()))


def start_ray() -> None:
    import gc
    import logging

    # the benchmark's inputs and oracle are built by now: move them out of
    # the collector's reach, so that collections in this process (the
    # client, and the in-process replays of a traced run) do not scan them
    gc.freeze()

    import ray
    from ray.data import DataContext
    os.environ["PYTHONPATH"] = os.pathsep.join(
        p for p in (ROOT, os.environ.get("PYTHONPATH")) if p)
    tmp = ray_dir()
    kw = {}
    # Ray's socket paths must stay under the 107-byte AF_UNIX limit
    if len(tmp) <= 40:
        os.makedirs(tmp, exist_ok=True)
        kw["_temp_dir"] = tmp
    ray.init(address="local", num_cpus=RAY_CPUS,
             object_store_memory=OBJECT_STORE_BYTES, include_dashboard=False,
             logging_level="ERROR", log_to_driver=False, **kw)
    ctx = DataContext.get_current()
    ctx.enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)


def e2e_metrics(out) -> dict:
    from workloads import pass_tail
    value, pct, beyond, passes = pass_tail(out.lat,
                                           out.per_pass or len(out.lat))
    out.named["latency_tail_percentile"] = pct
    out.named["latency_tail_samples_beyond"] = beyond
    out.named["latency_tail_passes"] = passes
    out.named["latency_samples"] = len(out.lat)
    return {
        "setup_s": out.named["setup_s"],
        "throughput_per_s": out.named["throughput_per_s"],
        "latency_p50_ms": 1000 * statistics.median(out.lat),
        "latency_tail_ms": 1000 * value,
        "peak_rss_mb": out.named["peak_rss_mb"],
        "index_bytes_per_input_byte": out.named["index_bytes_per_input_byte"],
    }


def print_table(path: str) -> None:
    """Render a result file: end-to-end or per-layer metrics by name."""
    with open(path) as f:
        res = json.load(f)
    print(f"workload={res['workload']} seed={res['seed']} "
          f"trace={res['trace']} correct={res['correct']} "
          f"attempted={res['attempted']} failed={res['failed']} "
          f"error_rate={res['error_rate']:.4g}")
    h = res["host"]
    probe = res["cpu_probe_s"]
    print(f"host: nproc={h['nproc']} ram_gb={h['ram_gb']} ray={h['ray']} "
          f"pyarrow={h['pyarrow']} numpy={h['numpy']} "
          f"probe_s={statistics.median(probe['before']):.3f}/"
          f"{statistics.median(probe['after']):.3f}"
          f"{' CONTENDED' if probe['contended'] else ''}")
    print(f"inputs: synth_version={res['inputs']['synth_version']} "
          f"files={len(res['inputs']['sha256'])}")
    for k, v in res["named"].items():
        print(f"  {k:<34} {v:>14.6g}" if isinstance(v, (int, float))
              else f"  {k:<34} {v}")
    if res["trace"]:
        print(f"  {'layer metric':<38} {'value':>14} {'unit':<6} "
              f"{'source':<14} moves")
        for m, row in res["layers"].items():
            print(f"  {m:<38} {row['value']:>14.6g} {row['unit']:<6} "
                  f"{row['source']:<14} {row['moves']}")
        idn = res.get("identity")
        if idn:
            print(f"  per op: layer self times {idn['layers_s']:.4f} s + "
                  f"ray.overhead_s {idn['overhead_s']:.4f} s = "
                  f"wall {idn['wall_s']:.4f} s (overhead standard error "
                  f"{idn['overhead_stderr_s']:.4f} s; {idn['ops_below_zero']} "
                  f"of {idn['ops']} ops below zero, smallest "
                  f"{idn['min_overhead_s']:.4f} s)")
        ov = res.get("tracing_overhead")
        print("  tracing overhead: " + (
            ", ".join(f"{k} {v:+.4g}" for k, v in ov.items()) if ov else
            "no untraced result for this workload and seed yet"))
    else:
        for m, v in res["metrics"].items():
            print(f"  {m:<34} {v['value']:>14.6g} {v['unit']}")
    for e in res.get("errors", []):
        print(f"  error: {e}")


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=("build", "serve", "ingest"))
    ap.add_argument("--seed", type=int, default=42)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--config", choices=("full", "tiny"), default="full")
    ap.add_argument("--table", metavar="RESULT_JSON")
    args = ap.parse_args()
    if args.table:
        print_table(args.table)
        return 0
    if not args.workload:
        ap.error("--workload is required")
    t_start = time.perf_counter()
    sys.path.insert(0, ROOT)
    try:
        import lucene_msmarco_ray  # noqa: F401
        import pyarrow  # noqa: F401
        import ray  # noqa: F401
    except ImportError as e:
        print(f"cannot import the program under test: {e}", file=sys.stderr)
        return 2
    if not os.path.abspath(lucene_msmarco_ray.__file__).startswith(ROOT):
        print("lucene_msmarco_ray is not the checkout's copy", file=sys.stderr)
        return 2

    def watchdog():
        time.sleep(HARD_LIMIT_S)
        print(f"run exceeded {HARD_LIMIT_S} s; stopping", file=sys.stderr)
        stop_children(2.0)
        os._exit(3)
    threading.Thread(target=watchdog, daemon=True).start()

    import layers
    from spans import Tracer
    from workloads import CONFIGS, WORKLOADS, Ctx

    host = host_identity()
    probe_before = [cpu_probe() for _ in range(PROBES)]
    tracer = Tracer()
    if args.trace:
        layers.install_client_wrappers(tracer)
        layers.install_worker_wrappers(tracer)
    ctx = Ctx(seed=args.seed, seconds=args.seconds,
              size=CONFIGS[args.config], work=WORK, tracer=tracer,
              traced=bool(args.trace), start_ray=start_ray, rss=peak_rss,
              stop_by=t_start + STOP_ISSUING_S)
    import ray
    try:
        out = WORKLOADS[args.workload](ctx)
        out.note_rss(peak_rss())
        out.named["peak_rss_mb"] = out.rss[0]
    finally:
        if ray.is_initialized():
            ray.shutdown()
        leftover = stop_children()
        shutil.rmtree(ray_dir(), ignore_errors=True)
    tracer.restore()
    probe_after = [cpu_probe() for _ in range(PROBES)]

    attempted = max(1, out.attempted, out.failed)
    result = {
        "workload": args.workload, "seed": args.seed,
        "seconds": args.seconds, "trace": args.trace, "config": args.config,
        "correct": out.failed == 0 and bool(out.lat),
        "attempted": attempted, "failed": out.failed,
        "error_rate": out.failed / attempted, "errors": out.errors,
        "host": host,
        "cpu_probe_s": {"before": probe_before, "after": probe_after,
                        "contended": contended(probe_before, probe_after)},
        "inputs": out.inputs, "named": out.named,
        "peak_rss_processes": out.rss[1],
        "processes_signalled_at_exit": len(leftover),
    }
    os.makedirs(os.path.join(WORK, "results"), exist_ok=True)
    stem = os.path.join(WORK, "results",
                        f"{args.workload}-s{args.seed}-trace{args.trace}")
    if not out.lat or (args.trace and out.failed):
        result["metrics"] = {}        # no layer table for a failed run
    elif args.trace:
        table, result["identity"] = layers.layer_table(
            tracer, out.ops, out.extra, out.gauges)
        result["layers"] = table
        idn = result["identity"]
        if not idn["ok"]:
            result["errors"].append(
                f"identity: layer self times {idn['layers_s']:.4f} s exceed "
                f"the wall {idn['wall_s']:.4f} s per operation by more than "
                f"2 standard errors ({idn['overhead_stderr_s']:.4f} s)")
        result["metrics"] = {m: {"value": r["value"], "unit": r["unit"]}
                             for m, r in table.items()}
        result["tracing_overhead"] = _tracing_overhead(stem, e2e_metrics(out))
        tracer.dump(stem + "-spans.npz")
    else:
        try:
            m = e2e_metrics(out)
        except KeyError:        # failed before a metric could be measured
            m = {}
        result["metrics"] = {k: {"value": v, "unit": E2E_UNITS[k]}
                             for k, v in m.items()}
    with open(stem + ".json", "w") as f:
        json.dump(result, f, indent=1)
    print_table(stem + ".json")
    print(json.dumps({k: result[k] for k in
                      ("correct", "attempted", "failed", "metrics")}))
    return 0 if out.lat else 1


def _tracing_overhead(stem: str, traced: dict) -> dict | None:
    """Traced end-to-end result minus the untraced one for the same
    workload and seed, when the untraced result exists."""
    path = stem[: -len("trace1")] + "trace0.json"
    if not os.path.exists(path):
        return None
    with open(path) as f:
        plain = json.load(f)["metrics"]
    return {k: traced[k] - plain[k]["value"]
            for k in ("throughput_per_s", "latency_p50_ms") if k in plain}


if __name__ == "__main__":
    sys.exit(main())
