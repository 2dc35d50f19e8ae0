"""pointssl benchmark: train-step and scene-alignment latency.

Run from the repository root; pointssl is imported from ./src:

    python3 perfbench/run.py --workload train_toy --seed 1 --seconds 30 --trace 0

Workloads (see workloads.py): train_toy, train_wide, align_scenes.  One
process, one caller, BLAS pinned to one thread.  With --trace 0 the run
reports the end-to-end metrics; with --trace 1 every other op runs with the
per-layer wrappers of spans.py installed, and the run reports per-layer self
times, work counts and the tracing overhead.  Earlier stdout lines carry a
details object (machine block, sample counts, stream digest, failures); the
last line is the result object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}
"""

from time import perf_counter

START = perf_counter()

import argparse  # noqa: E402
import json  # noqa: E402
import os  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import shutil  # noqa: E402
import statistics  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

BLAS_THREADS = 1
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)

ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 3
# Work counts and call counts come from this many traced ops, so they repeat
# exactly between runs of one seed whatever the machine's speed.
COUNTED_OPS = 8
DIGEST_RECORDS = 8

END_TO_END = [
    ("op_ms_p50", "ms"),
    ("op_ms_p90", "ms"),
    ("ops_per_s", "1/s"),
    ("setup_s", "s"),
    ("peak_rss_mb", "MB"),
]


def per_layer_names(workloads) -> list[tuple[str, str]]:
    names = []
    for attr, group, _ in workloads.TRAINER_LAYERS + workloads.PIPELINE_LAYERS + workloads.PLY_LAYERS:
        names += [(f"{group}.{attr}.ms", "ms"), (f"{group}.{attr}.calls", "calls/op")]
    return names + [
        ("trainer.self.ms", "ms"),
        ("pipeline.align_scene.self.ms", "ms"),
        ("model.encode_features.rows", "rows/op"),
        ("model.encode_flops", "calc-flop/op"),
        ("sinkhorn.rows", "rows/op"),
        ("geometry.knn_edges", "edges/op"),
        ("losses.match_ratio", "ratio"),
        ("geometry.ransac_inlier_ratio", "ratio"),
        ("geometry.sor_removed_ratio", "ratio"),
        ("ply.read_mb_per_s", "MB/s"),
        ("ply.write_mb_per_s", "MB/s"),
        ("trace.op_ms_p50", "ms"),
        ("trace.overhead_ms", "ms"),
        ("trace.accounted_ratio", "ratio"),
    ]


def _read(path: Path) -> str | None:
    try:
        return path.read_text().strip()
    except OSError:
        return None


def git_commit() -> str:
    git = ROOT / ".git"
    head = _read(git / "HEAD")
    if head is None or not head.startswith("ref: "):
        return head or "unknown"
    ref = head[5:]
    direct = _read(git / ref)
    if direct:
        return direct
    for line in (_read(git / "packed-refs") or "").splitlines():
        if line.endswith(" " + ref):
            return line.split()[0]
    return "unknown"


def machine_block(seed: int) -> dict:
    import numpy as np
    import scipy

    cpu_model = "unknown"
    for line in (_read(Path("/proc/cpuinfo")) or "").splitlines():
        if line.startswith("model name"):
            cpu_model = line.split(":", 1)[1].strip()
            break
    caches = {}
    for index in sorted(Path("/sys/devices/system/cpu/cpu0/cache").glob("index*")):
        level, kind, size = (_read(index / f) for f in ("level", "type", "size"))
        if level and kind != "Instruction":
            caches[f"L{level}" + ("d" if kind == "Data" else "")] = size
    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas_name = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas_name = "unknown"
    return {
        "nproc": os.cpu_count(),
        "cpu_affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model,
        "caches": caches,
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": blas_name,
        "blas_threads": BLAS_THREADS,
        "git_commit": git_commit(),
        "seed": seed,
    }


def measure(workload, seconds: float, tracer=None):
    """Run ops for `seconds`; with a tracer, every other op is traced.

    Returns untraced and traced op durations (seconds, passing ops only),
    the number of ops attempted and the failure messages.
    """
    plain, traced, failures = [], [], []
    attempted = 0
    deadline = perf_counter() + seconds
    while perf_counter() < deadline:
        trace_this = tracer is not None and attempted % 2 == 1
        attempted += 1
        if trace_this:
            tracer.install()
        try:
            start = perf_counter()
            out = tracer.call(workload.root, workload.op) if trace_this else workload.op()
            elapsed = perf_counter() - start
        except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
            failures.append(f"op {attempted}: {type(exc).__name__}: {exc}")
            workload.recover()
            continue
        finally:
            if trace_this:
                tracer.remove()
        if not workload.check(out):
            failures.append(f"op {attempted}: output check failed")
            continue
        (traced if trace_this else plain).append(elapsed)
        if trace_this and len(traced) == COUNTED_OPS:
            tracer.freeze_counts()
    if tracer is not None and tracer.counting:
        tracer.freeze_counts()
    return plain, traced, attempted, failures


def layer_metrics(tracer, plain, traced, names) -> tuple[dict, dict]:
    self_ms, calls, ops, counted_ops = tracer.summary()
    counts = {k: v / max(counted_ops, 1) for k, v in tracer.counts.items()}
    values = {}
    for name, _ in names:
        stem, _, kind = name.rpartition(".")
        if kind == "ms":
            values[name] = self_ms.get(stem, 0.0)
        elif kind == "calls":
            values[name] = calls.get(stem, 0.0)
    values["pipeline.align_scene.self.ms"] = self_ms.get("pipeline.align_scene", 0.0)

    def ratio(num, den):
        return counts.get(num, 0.0) / counts[den] if counts.get(den) else 0.0

    def rate(key, stem):
        seconds = self_ms.get(stem, 0.0) / 1000.0
        return counts.get(key, 0.0) / seconds / 1e6 if seconds else 0.0

    traced_ms = [1000.0 * t for t in traced]
    plain_ms = [1000.0 * t for t in plain]
    traced_p50 = statistics.median(traced_ms) if traced_ms else 0.0
    values.update({
        "model.encode_features.rows": counts.get("model.encode_features.rows", 0.0),
        "model.encode_flops": counts.get("model.encode_flops", 0.0),
        "sinkhorn.rows": counts.get("sinkhorn.rows", 0.0),
        "geometry.knn_edges": counts.get("geometry.knn_edges", 0.0),
        "losses.match_ratio": ratio("losses.matched", "losses.queried"),
        "geometry.ransac_inlier_ratio": ratio("geometry.ransac_inlier_sum", "geometry.ransac_calls"),
        "geometry.sor_removed_ratio": ratio("geometry.sor_removed", "geometry.sor_input"),
        "ply.read_mb_per_s": rate("ply.read_bytes", "ply.read_ply"),
        "ply.write_mb_per_s": rate("ply.write_bytes", "ply.write_ply"),
        "trace.op_ms_p50": traced_p50,
        "trace.overhead_ms": traced_p50 - statistics.median(plain_ms) if plain_ms and traced_ms else 0.0,
        "trace.accounted_ratio": sum(self_ms.values()) / statistics.fmean(traced_ms) if traced_ms else 0.0,
    })
    op_ms = statistics.fmean(traced_ms) if traced_ms else 0.0
    details = {
        "traced_ops": ops,
        "counted_ops": counted_ops,
        "untraced_ops": len(plain),
        "untraced_op_ms_p50": statistics.median(plain_ms) if plain_ms else None,
        "share_of_traced_op": {k: v / op_ms for k, v in self_ms.items()} if op_ms else {},
        "absent": tracer.absent,
        "broken_observers": sorted(tracer.broken),
    }
    return {name: {"value": values[name], "unit": unit} for name, unit in names}, details


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seed < 0 or args.seconds <= 0:
        parser.error("--seed must be >= 0 and --seconds > 0")

    src = ROOT / "src"
    if not (src / "pointssl" / "__init__.py").is_file():
        print(f"error: no pointssl sources under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    import workloads
    from spans import Tracer

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(workloads.WORKLOADS)}")
    import_s = perf_counter() - START

    workdir = ROOT / ".perfbench_work" / f"{args.workload}-{os.getpid()}"
    try:
        setup_times, digests = [], []
        for _ in range(SETUP_REPEATS):
            workload = None  # free the previous repeat's inputs first
            begin = perf_counter()
            workload = workloads.WORKLOADS[args.workload]()
            digests.append(workload.setup(args.seed, workdir))
            setup_times.append(perf_counter() - begin)

        tracer = Tracer(workload.targets) if args.trace else None
        plain, traced, attempted, failures = measure(workload, args.seconds, tracer)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        try:
            workdir.parent.rmdir()
        except OSError:  # missing, or still used by a concurrent run
            pass

    deterministic = len(set(digests)) == 1
    details = {
        "workload": args.workload,
        "trace": args.trace,
        "machine": machine_block(args.seed),
        "import_s": import_s,
        "setup_repeats_s": setup_times,
        "warmup_digests_match": deterministic,
        "stream_digest": {"records": DIGEST_RECORDS, "sha256_16": workload.digest(DIGEST_RECORDS)},
        "failures": failures[:20],
    }
    if args.trace:
        metrics, trace_details = layer_metrics(tracer, plain, traced, per_layer_names(workloads))
        details.update(trace_details)
    else:
        op_ms = [1000.0 * t for t in plain]
        if not op_ms:
            print("error: no op completed", file=sys.stderr)
            return 1
        values = {
            "op_ms_p50": statistics.median(op_ms),
            "op_ms_p90": statistics.quantiles(op_ms, n=10, method="inclusive")[-1] if len(op_ms) > 1 else op_ms[0],
            "ops_per_s": len(plain) / sum(plain),
            "setup_s": import_s + statistics.median(setup_times),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        }
        metrics = {name: {"value": values[name], "unit": unit} for name, unit in END_TO_END}
        details["samples"] = len(op_ms)  # behind op_ms_p50 and op_ms_p90

    failed = len(failures)
    print(json.dumps(details, sort_keys=True))
    print(json.dumps({
        "correct": failed == 0 and deterministic,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
