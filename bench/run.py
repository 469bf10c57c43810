"""histq benchmark: one workload per run, every answer checked.

    python3 bench/run.py --workload wide-sum --seed 1 --seconds 45 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 45 --trace 1

Run from the root of a source checkout; the library is imported from
``src/``, never from an installed copy, and the run fails at once (exit 2, no
result) when ``src/histq`` is missing.  Inputs are generated from ``--seed``
into ``.bench_work/<workload>-<seed>/`` (see ``gen.py``; the workloads are in
``workloads.py``).

With ``--trace 0`` the run measures the end-to-end metrics; with
``--trace 1`` it first runs the loop untraced for half the time, then
installs the span wrappers (``spans.py``) and replays the same operations,
and reports the per-layer metrics.  Either way the last line of standard
output is one JSON object with ``correct``, ``attempted``, ``failed`` and
``metrics``; the lines before it give the machine record, each instance's
properties, the workload's own metrics and any failed check.  The exit code
is 0 when every check passed, 1 when one failed.

``--workload all`` runs each workload in a fresh process, one after the
other, and prints their outputs.  BENCHMARK.json gates wide-sum and
rewrite; many-queries runs the same way but is not gated, because on a
shared two-core machine its spread across seeds is wider than the largest
bound allowed.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BENCH = Path(__file__).resolve().parent
WORKLOAD_NAMES = ("wide-sum", "many-queries", "rewrite")


def machine(seed: int) -> dict:
    import numpy
    cpu = ""
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), "")
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu or platform.processor(),
            "python": platform.python_version(), "numpy": numpy.__version__,
            "loadavg": os.getloadavg(), "seed": seed}


def median_evaluate_s(E, c, q, threads) -> float:
    """Median seconds of one evaluate, repeated to at least 0.2 s."""
    times = []
    while not times or (sum(times) < 0.2 and len(times) < 50):
        t0 = perf_counter()
        E.evaluate(c, q, threads=threads)
        times.append(perf_counter() - t0)
    return statistics.median(times)


def run_one(args, spec: dict) -> int:
    import gen
    import histq.engine as E
    from spans import Tracer, layer_metrics
    from workloads import WORKLOADS, warmup

    print("machine " + json.dumps(machine(args.seed)), flush=True)
    workdir = ROOT / ".bench_work" / f"{args.workload}-{args.seed}"
    shutil.rmtree(workdir, ignore_errors=True)
    manifest = json.loads(gen.write_inputs(args.workload, args.seed, workdir).read_text())
    wl = WORKLOADS[args.workload](workdir, manifest)

    setup_times = wl.setup()
    warm_attempted, failures = warmup(workdir)
    if not args.trace:
        out = wl.loop(seconds=args.seconds)
        outcomes = [out]
    else:
        base = wl.loop(seconds=args.seconds / 2)
        tracer = Tracer()
        tracer.install()
        try:
            wl.circuits = wl.load()
            wl.bind()
            attempted, fails = warmup(workdir)
            out = wl.loop(count=len(base.records), tracer=tracer)
        finally:
            tracer.uninstall()
        warm_attempted += attempted
        failures += fails
        outcomes = [base, out]
        tracer.write(workdir / "spans.jsonl")
        probes = wl.scaling_queries()
        t1 = sum(median_evaluate_s(E, c, q, None) for c, q in probes)
        t2 = sum(median_evaluate_s(E, c, q, 2) for c, q in probes)
        with E.memory_probe() as probe:
            E.evaluate(*probes[0])
        layers = layer_metrics(tracer.totals())
        layers.update({"engine.scaling_2t": t2 / t1,
                       "engine.peak_alloc_bytes": float(probe.peak),
                       "trace.overhead_frac": out.loop_s / base.loop_s - 1.0})

    for o in outcomes:
        wl.check_all(o)
        failures += o.failures
    attempted = warm_attempted + sum(len(o.records) for o in outcomes)

    untraced = outcomes[0]
    for row in wl.instances(untraced):
        print("instance " + " ".join(f"{key}={val}" for key, val in row.items()))
    for name, (value, unit) in wl.report(untraced).items():
        print(f"metric {name}={value!r} {unit}")
    for f in failures:
        print(f"FAILED {f}")
    print(f"error_rate={len(failures) / attempted!r}")

    if args.trace:
        metrics = layers
        # every *_s metric is a self time except engine.dist_s, which holds its evaluations
        selfs = sorted(((v, k) for k, v in metrics.items() if k.endswith("_s")
                        and not k.endswith("_per_s") and k != "engine.dist_s"), reverse=True)
        print("self_time_s " + " ".join(f"{k}={v:.4f}" for v, k in selfs[:5]))
        print(f"dominant_layer={selfs[0][1]} traced_loop_s={out.loop_s:.3f}")
    else:
        metrics = {"class_p50_gmean_ms": wl.class_p50_gmean_ms(out),
                   "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                   "setup_s": statistics.median(setup_times)}
    declared = spec["per_layer" if args.trace else "end_to_end"]
    for k, v in metrics.items():
        if not math.isfinite(v):
            failures.append(f"metric {k} is {v}")
    result = {"correct": not failures, "attempted": attempted, "failed": len(failures),
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in declared}}
    print(json.dumps(result), flush=True)
    return 0 if not failures else 1


def run_all(args) -> int:
    """Each workload in a fresh process; the last line sums them up."""
    summary, code = {}, 0
    for name in WORKLOAD_NAMES:
        cmd = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
               "--seed", str(args.seed), "--seconds", str(args.seconds),
               "--trace", str(int(args.trace))]
        proc = subprocess.run(cmd, capture_output=True, text=True, timeout=900)
        print(f"== {name}")
        print(proc.stdout, end="")
        print(proc.stderr, end="", file=sys.stderr)
        try:
            summary[name] = json.loads(proc.stdout.strip().splitlines()[-1])
        except (IndexError, json.JSONDecodeError):
            summary[name] = None
        code = max(code, proc.returncode)
    print(json.dumps(summary))
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOAD_NAMES + ("all",))
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=45.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    if not (ROOT / "src" / "histq" / "__init__.py").is_file():
        print(f"error: no histq sources under {ROOT / 'src'}; run from a source checkout",
              file=sys.stderr)
        return 2
    sys.path[:0] = [str(ROOT / "src"), str(BENCH)]
    if args.workload == "all":
        return run_all(args)
    # the metric names and units come from BENCHMARK.json, so the two cannot drift
    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    return run_one(args, spec)


if __name__ == "__main__":
    sys.exit(main())
