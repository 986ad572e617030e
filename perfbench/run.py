"""Benchmark of the `pne` package: one seeded workload, one closed-loop caller.

Usage, from the root of a checkout:

    python3 perfbench/run.py --workload expand-finite --seed 1 --seconds 20 --trace 0

One process runs the workload's instances one after another
(``evaluate(workers=1)``), for at least ``--seconds`` seconds and always to
the end of a round of instance kinds; every answer is checked against an
exact reference. The last line of standard output is a JSON object with
``correct``, ``attempted``, ``failed`` and ``metrics``; the line before it
holds the run's provenance and sample counts.

With ``--trace 0`` the metrics are end to end: set-up time (median of this
process and two fresh set-up probes), instance throughput over the whole
loop, median solve time and peak memory. A shared host's CPU speed
changes by up to 2x within seconds, whatever runs on it, so every time is
scaled by a speed probe that runs in a background thread (see ``speed.py``)
to seconds at a fixed reference speed; the raw times are in the run_info
line. With ``--trace 1`` the loop runs with every
`pne` layer wrapped (see ``tracing.py``) and the metrics are per layer, in
raw seconds; the spans are written to ``.perfbench/`` in the checkout when
the run ends.
"""

from __future__ import annotations

import time

T0 = time.perf_counter()

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import traceback
from pathlib import Path

import speed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
# BLAS threads are pinned before numpy loads, to two or to the CPUs this
# process may use if fewer, so that runs on larger machines stay comparable.
BLAS_THREADS = str(max(1, min(2, len(os.sched_getaffinity(0)))))
for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[var] = BLAS_THREADS

SETUP_PROBES = 2


def load():
    """Import the workloads, and with them `pne`, from this checkout."""
    if not (SRC / "pne" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no pne package under {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import workloads

    return workloads


def timed_loop(w, seconds: float, checks) -> dict:
    """Generate, solve and verify instances until ``seconds`` have passed and
    a round of instance kinds is complete."""
    items, errors, rounds = [], [], []
    failed = 0
    k = 0
    start = round_start = time.perf_counter()
    while True:
        t0 = time.perf_counter()
        solve = None
        try:
            inst = w.generate(k)
            t = time.perf_counter()
            answer = w.solve(inst)
            solve = (t, time.perf_counter())
            ok, err = w.verify(inst, answer, checks)
            if err is not None:
                errors.append(err)
        except Exception:
            traceback.print_exc(file=sys.stderr)
            ok = False
        items.append((t0, time.perf_counter(), solve))
        failed += not ok
        k += 1
        if k % w.cycle == 0:
            now = time.perf_counter()
            rounds.append(now - round_start)
            round_start = now
            if now - start >= seconds:
                break
    return {"instances": k, "failed": failed, "wall_s": time.perf_counter() - start,
            "items": items, "errors": errors, "rounds_s": rounds}


def setup_probe(workload: str, seed: int) -> tuple[float, float]:
    """Set-up time of a fresh process running this file's set-up alone, and
    its mean speed-probe time during set-up."""
    out = subprocess.run(
        [sys.executable, str(Path(__file__).resolve()), "--workload", workload,
         "--seed", str(seed), "--setup-probe"],
        capture_output=True, text=True, timeout=120, check=True,
    )
    res = json.loads(out.stdout.strip().splitlines()[-1])
    return float(res["setup_s"]), float(res["job_s"])


def provenance() -> dict:
    import numpy as np
    import scipy

    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10, check=True).stdout.strip()
        except (OSError, subprocess.SubprocessError):
            sha = None
    digest = hashlib.sha256()
    for path in sorted((SRC / "pne").glob("*.py")):
        digest.update(path.name.encode() + b"\0" + path.read_bytes())
    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "git_sha": sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "blas_threads": int(BLAS_THREADS),
        "nproc": len(os.sched_getaffinity(0)),
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=20.0)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--setup-probe", action="store_true",
                        help="only set up, and print the set-up time (used by the timed run)")
    args = parser.parse_args(argv)
    if args.trace:
        return run(parser, args, None)
    with speed.SpeedProbe() as probe:
        return run(parser, args, probe)


def run(parser, args, probe) -> int:
    workloads = load()
    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {', '.join(workloads.WORKLOADS)}")
    w = workloads.WORKLOADS[args.workload](args.seed)
    warm = workloads.Checks()
    w.warm_up(warm)
    setup_s = time.perf_counter() - T0
    if args.setup_probe:
        print(json.dumps({"setup_s": setup_s, "job_s": probe.job_s(T0, T0 + setup_s)}))
        return 0
    if warm.failed:
        raise SystemExit(f"perfbench: warm-up checks failed: {warm.failures}")
    checks = workloads.Checks()

    info = {"workload": args.workload, "seed": args.seed, "seconds": args.seconds,
            "trace": args.trace, **provenance()}
    if args.trace:
        import tracing

        with tracing.Tracer() as tracer:
            loop = timed_loop(w, args.seconds, checks)
        # Tracing overhead: the first round again, untraced, on a fresh
        # workload object with the Onsager oracle's cache emptied.
        workloads.models.ising_free_energy_2d.cache_clear()
        replay = timed_loop(type(w)(args.seed), 0.0, workloads.Checks())
        overhead = loop["rounds_s"][0] / replay["wall_s"] - 1.0
        values = tracing.layer_metrics(tracer.spans, loop["wall_s"], overhead)
        out_dir = ROOT / ".perfbench"
        out_dir.mkdir(exist_ok=True)
        trace_file = out_dir / f"trace-{args.workload}-seed{args.seed}.jsonl.gz"
        tracer.write(trace_file)
        info["split"] = tracing.split(tracer.spans, loop["wall_s"])
        info["trace_file"] = str(trace_file.relative_to(ROOT))
    else:
        loop = timed_loop(w, args.seconds, checks)
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        setups = [(setup_s, probe.job_s(T0, T0 + setup_s))]
        setups += [setup_probe(args.workload, args.seed) for _ in range(SETUP_PROBES)]
        factors = [probe.factor(t0, t1) for t0, t1, _ in loop["items"]]
        spans = [solve for _, _, solve in loop["items"] if solve is not None]
        solves = [(b - a, probe.factor(a, b)) for a, b in spans]
        values = {
            "setup_s": statistics.median(t * speed.REF_JOB_S / j for t, j in setups),
            "instances_per_s": len(factors) / sum((t1 - t0) * f for (t0, t1, _), f
                                                  in zip(loop["items"], factors)),
            "solve_p50_s": statistics.median(t * f for t, f in solves),
            "peak_rss_mb": peak_rss_mb,
        }
        job_times = [d for _, d in probe.samples]
        info.update({
            "raw_setup_s": [t for t, _ in setups],
            "raw_instances_per_s": len(factors) / sum(t1 - t0 for t0, t1, _ in loop["items"]),
            "raw_solve_p50_s": statistics.median(t for t, _ in solves),
            "probe_job_s_quartiles": statistics.quantiles(job_times, n=4),
            "probe_samples": len(job_times),
        })

    named = json.loads((ROOT / "BENCHMARK.json").read_text())["per_layer" if args.trace else "end_to_end"]
    if sorted(values) != sorted(m["name"] for m in named):
        raise SystemExit(f"perfbench: computed metrics {sorted(values)} differ from BENCHMARK.json")
    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in named}
    final = workloads.Checks()
    w.final_checks(final)
    attempted = loop["instances"] + sum(final.runs.values())
    failed = loop["failed"] + final.failed
    info.update({
        "instances": loop["instances"],
        "solve_samples": sum(s is not None for _, _, s in loop["items"]),
        "rounds": len(loop["rounds_s"]),
        "wall_s": loop["wall_s"],
        "rel_error_median": statistics.median(loop["errors"]) if loop["errors"] else None,
        "failed_frac": failed / attempted,
        "checks": {n: [checks.runs.get(n, 0) + final.runs.get(n, 0),
                       checks.failures.get(n, 0) + final.failures.get(n, 0)] for n in w.check_names},
    })
    print(json.dumps({"run_info": info}))
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
