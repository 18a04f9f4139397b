#!/usr/bin/env python3
"""Repeat the benchmark over seeds and summarize its spread.

    python3 bench/baseline.py

Runs ``bench/run.py`` on all four workloads for seeds 1-10 (seed-major, so
slow drift of the machine spreads over all workloads), with the run length
and bounds of ``BENCHMARK.json``, then one traced run per workload with
seed 1.  ``BENCHMARK.json`` gates a subset of the workloads.  For every
end-to-end metric it prints the median, the quartiles of
``statistics.quantiles(values, n=4)`` and their distance as a share of the
median, next to the metric's bound; a gated spread at or above a third of
its bound is flagged.  It writes those figures to ``baseline.json`` here,
with the per-layer metrics of the traced runs, the map from each
per-layer metric to the end-to-end metric it should move, and the machine.
"""

from __future__ import annotations

import json
import os
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SEEDS = range(1, 11)


def run(workload, seed, seconds, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        sys.stderr.write(proc.stderr)
        raise RuntimeError(f"{workload} seed {seed} exited with {proc.returncode}")
    return json.loads(proc.stdout.splitlines()[-1])


def machine():
    cpu = "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as fh:
            for line in fh:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    try:
        sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                             text=True, check=True).stdout.strip()
    except (OSError, subprocess.CalledProcessError):
        sha = None
    import numpy
    return {"cpu": cpu, "nproc": os.cpu_count(), "python": platform.python_version(),
            "numpy": numpy.__version__, "git_sha": sha}


def main():
    sys.path.insert(0, str(HERE))
    from run import PER_LAYER, WORKLOADS

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    gated = {w["name"] for w in spec["workloads"]}
    names = list(WORKLOADS)
    seconds = spec["run_seconds"]

    results = {n: [] for n in names}
    for seed in SEEDS:
        for name in names:
            res = run(name, seed, seconds, 0)
            results[name].append(res)
            print(f"{name} seed {seed}: correct={res['correct']} failed={res['failed']}/"
                  f"{res['attempted']} " + " ".join(
                      f"{k}={v['value']:.6g}" for k, v in res["metrics"].items()), flush=True)

    summary = {}
    steady = True
    for name in names:
        rows = {}
        print(f"\n{name}{'' if name in gated else ' (not gated by BENCHMARK.json)'}")
        for metric in spec["end_to_end"]:
            key = metric["name"]
            vals = [r["metrics"][key]["value"] for r in results[name]]
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = (q3 - q1) / med
            bound = metric["bound"]
            ok = spread < bound / 3
            steady = steady and (ok or name not in gated)
            rows[key] = {"unit": metric["unit"], "median": med, "q1": q1, "q3": q3,
                         "spread": spread, "bound": bound, "values": vals}
            print(f"  {key:<12} median {med:<12.6g} q1 {q1:<12.6g} q3 {q3:<12.6g} "
                  f"spread {spread:.4f} bound {bound}{'' if ok else '  > bound/3'}")
        attempted = sum(r["attempted"] for r in results[name])
        failed = sum(r["failed"] for r in results[name])
        print(f"  failed {failed} of {attempted} inputs ({failed / attempted:.6g})")
        summary[name] = {"why": WORKLOADS[name], "gated": name in gated,
                         "end_to_end": rows, "attempted": attempted, "failed": failed,
                         "failed_frac": failed / attempted,
                         "correct": all(r["correct"] for r in results[name])}

    for name in names:
        res = run(name, 1, seconds, 1)
        summary[name]["per_layer"] = {k: v["value"] for k, v in res["metrics"].items()}
        print(f"\n{name} traced, seed 1")
        for key, val in res["metrics"].items():
            print(f"  {key:<40} {val['value']:.6g} {val['unit']}")

    print("\nevery gated spread below a third of its bound" if steady
          else "\nsome gated spread is above a third of its bound")
    doc = {
        "machine": machine(),
        "run_seconds": seconds,
        "seeds": list(SEEDS),
        "workloads": summary,
        "per_layer_moves": {k: {"unit": u, "moves": m, "also": a}
                            for k, u, m, a in PER_LAYER},
    }
    out = HERE / "baseline.json"
    out.write_text(json.dumps(doc, indent=1) + "\n", encoding="utf-8")
    print(f"wrote {out}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
