"""Benchmark entry point.

    python3 perfbench/run.py --workload update-stream --seed 1 --seconds 50 --trace 0

``--trace 0`` runs the named workload untraced and prints every end-to-end
metric; ``--workload all`` runs each workload in its own process, one
after the other, and merges their results.  ``--trace 1`` runs the traced
layer pass (see :mod:`perfbench.layers`), which covers every layer
whatever the workload, and prints every per-layer metric.  The last line
of standard output is always one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.

Run it from a checkout: the program is imported from ``src/`` next to
this directory, and temporary state goes to ``.perfbench/`` there.
"""

import argparse
import json
import os
import subprocess
import sys

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
#: The workloads BENCHMARK.json lists, which ``--workload all`` runs.
WORKLOADS = ("update-stream", "serve-sync")


def _import_paths():
    sys.path.insert(0, os.path.join(ROOT, "src"))
    sys.path.insert(0, ROOT)


def end_to_end(run, rss_mb):
    """The end-to-end metrics of one untraced run: name -> (value, unit)."""
    from statistics import median

    from perfbench.stats import percentile

    return {
        "setup_s": (median(run.setup_s), "s"),
        "read_qps": (run.reads / run.read_wall, "1/s"),
        "read_p50_us": (percentile(run.read_lat, 50) * 1e6, "us"),
        "read_p99_us": (percentile(run.read_lat, 99) * 1e6, "us"),
        "updates_per_s": (run.updates_applied / run.write_wall, "1/s"),
        "visible_p50_ms": (percentile(run.visible, 50) * 1e3, "ms"),
        "visible_p90_ms": (percentile(run.visible, 90) * 1e3, "ms"),
        "peak_rss_mb": (rss_mb, "MiB"),
    }


def run_workload(name, seed, seconds, tmp_root):
    """Generate the inputs, run the workload untraced; returns
    (inputs, Run, peak RSS in MiB).  The peak is read before the samples
    are sorted into percentiles, so it is the program's, not the
    statistics'."""
    from perfbench import workloads
    from perfbench.inputs import make_inputs
    from perfbench.stats import peak_rss_mb

    inp = make_inputs(name, seed, seconds)
    stack = "engine" if name == "update-stream" else "service"
    run = workloads.run_stream(inp, seconds, stack, tmp_root)
    return inp, run, peak_rss_mb()


def report(name, seed, inp, run, metrics):
    """Human-readable lines: metrics with units, sample counts, inputs."""
    from perfbench.inputs import fingerprint
    from perfbench.stats import MIN_BEYOND, beyond

    print(f"workload {name}  seed {seed}")
    for key, (value, unit) in metrics.items():
        print(f"  {key:<16} {value:>14.4f} {unit}")
    tails = {"read_p99_us": beyond(len(run.read_lat), 99),
             "visible_p90_ms": beyond(len(run.visible), 90)}
    for key, n in tails.items():
        if n < MIN_BEYOND:
            print(f"  warning: only {n} samples beyond {key}")
    samples = {
        "setups": len(run.setup_s),
        "reads": run.reads,
        "read_latencies": len(run.read_lat),
        "reads_beyond_p99": tails["read_p99_us"],
        "visible": len(run.visible),
        "visible_beyond_p90": tails["visible_p90_ms"],
        "updates_applied": run.updates_applied,
        "checked": run.checked,
        "mismatches": run.mismatches,
    }
    samples.update({f"applied_{k}": v
                    for k, v in run.extra.get("by_kind", {}).items()})
    print("samples " + json.dumps(samples))
    print("inputs " + json.dumps(fingerprint(inp)))


def result_line(correct, attempted, failed, metrics):
    return json.dumps({
        "correct": bool(correct),
        "attempted": int(attempted),
        "failed": int(failed),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    })


def run_all(args):
    """Each workload untraced in its own process (peak RSS is per
    process); the last line merges their results, metrics prefixed by
    workload."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, os.path.abspath(__file__), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", "0"],
            stdout=subprocess.PIPE, text=True, check=False,
        )
        lines = proc.stdout.strip().splitlines()
        if proc.returncode != 0 or not lines:
            print(proc.stdout)
            print(f"workload {name} exited with {proc.returncode}")
            return 1
        print("\n".join(lines[:-1]))
        result = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and result["correct"]
        merged["attempted"] += result["attempted"]
        merged["failed"] += result["failed"]
        merged["metrics"].update(
            {f"{name}.{k}": v for k, v in result["metrics"].items()})
    print(json.dumps(merged))
    return 0


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True,
                        choices=WORKLOADS + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if args.seconds <= 0:
        parser.error("--seconds must be positive")
    if args.workload == "all" and not args.trace:
        return run_all(args)

    _import_paths()
    out_dir = os.path.join(ROOT, ".perfbench")
    tmp_root = os.path.join(out_dir, "tmp")
    os.makedirs(tmp_root, exist_ok=True)
    if args.trace:
        from perfbench.layers import traced_run

        correct, attempted, failed, metrics = traced_run(
            args.seed, args.seconds, tmp_root, out_dir)
    else:
        inp, run, rss_mb = run_workload(args.workload, args.seed,
                                        args.seconds, tmp_root)
        metrics = end_to_end(run, rss_mb)
        report(args.workload, args.seed, inp, run, metrics)
        correct = run.mismatches == 0 and run.checked > 0
        attempted, failed = run.attempted, run.failed
    print(result_line(correct, attempted, failed, metrics))
    return 0


if __name__ == "__main__":
    sys.exit(main())
