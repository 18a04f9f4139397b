#!/usr/bin/env python3
"""Benchmark of the ``inellipse`` package, end to end and per layer.

    python3 bench/run.py --workload solve_mixed --seed 1 --seconds 50 --trace 0
    python3 bench/run.py --workload all --seed 1 --seconds 50 --trace 1

Run it from anywhere; it imports the package from ``src/`` next to this
directory and refuses to run without it.  Each workload is a closed loop
with one client in one process and thread: every op waits for the previous
one.  That process (``loop.py``) is started fresh for each run and holds
only the package, its inputs and its answers, so its ``ru_maxrss`` is
``peak_rss_mb``.  Inputs come from ``--seed`` alone.  After the process has
ended this harness checks every answer (``checks.py``; solve answers
against the 50-digit reference of ``reference.py``).

``setup_s`` is the median of SETUP_STARTS fresh interpreters timed to their
first completed op, half started before the workload process and half
after it, so the starts sample the machine over the whole run.

Latencies are summarized per window of whole passes over the input pool
(at least 1000 ops, so each window's p99 has ten ops beyond it).
``op_p50_us`` and ``op_p99_us`` are the medians of the windows' percentiles,
so one stalled window does not move them, and ``ops_per_s`` is the ops of
those windows over their op time.

``--trace 0`` measures the end-to-end metrics.  ``--trace 1`` runs the same
timed loop untraced, then one traced pass over the workload's input pool
(``spans.py``) and reports the per-layer metrics, including the tracing
overhead between the two.  Spans are written to ``.bench_out/``.

The last line of standard output is one JSON object:
{"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}.
``attempted`` is the size of the input pool, every input of which the timed
loop runs at least once, and ``failed`` counts the inputs whose op raised,
was rejected with a typed error (every generated input is valid) or
answered outside tolerance on any pass.  Both depend on the seed alone, so
runs of the same code with the same seed agree on them however many passes
they make.  The op-weighted share ``wrong_frac`` is printed above that
line.  ``correct`` is false when the harness cannot vouch for the verdicts
(the reference fails its self-check, or some op's answer went unchecked).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import pickle
import shutil
import statistics
import subprocess
import sys
import tempfile
import time
from collections import Counter
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_STARTS = 20            # fresh-process starts per run, half before and half
                             # after the workload process; setup_s is their median

WORKLOADS = {
    "solve_mixed": "the headline call solve(canonicalize(v)) over equal shares of general, "
                   "MDQ type 1, MDQ type 2 and kite quads: every solver path, time mostly "
                   "in minecc and quad",
    "solve_illcond": "the same call on near-trapezoids and on quads far from the origin: "
                     "Brent's unconverged path and validate's large-coordinate path, where "
                     "accuracy work shows",
    "family_sweep": "family_point at 64 abscissas per quad: time in family and none in "
                    "minecc, so a solver change should leave it alone and a family rewrite "
                    "shows here",
    "cli_verify": "in-process cli verify: time in the oracle battery and in argument "
                  "parsing and JSON output, the only workload measuring the oracle and cli "
                  "layers",
}

# End-to-end metrics of a --trace 0 run.  The median latency op_p50_us is
# printed but reported only with the per-layer metrics: on a shared machine
# its run-to-run spread is wider than any bound the benchmark may set.
END_TO_END = (("ops_per_s", "ops/s"), ("op_p99_us", "us"), ("setup_s", "s"),
              ("peak_rss_mb", "MB"))

# Per-layer metric, unit, the gated end-to-end metric it should move (a
# metric of BENCHMARK.json on a workload it runs), and what else it explains.
# "failed/attempted" is the failure share of the JSON result line.
PER_LAYER = (
    ("op_p50_us", "us", "ops_per_s on solve_mixed and cli_verify",
     "the untraced loop's median op latency; not gated, as its run-to-run spread "
     "is wider than any allowed bound"),
    ("quad.canonicalize.us", "us", "ops_per_s on solve_mixed and cli_verify", ""),
    ("quad.validate.calls_per_op", "calls/op", "ops_per_s on cli_verify", ""),
    ("quad.classify.calls_per_op", "calls/op", "ops_per_s on solve_mixed and cli_verify", ""),
    *((f"quad.rejected.{name}", "count", "failed/attempted on solve_mixed and cli_verify",
       "wrong_frac on solve_illcond (not gated), where rejections occur today")
      for name in ("Degenerate", "NotConvex", "Trapezoid", "NoValidLabeling")),
    ("quad.self_us_per_op", "us/op", "ops_per_s on solve_mixed and cli_verify", ""),
    ("family.family_point.us", "us",
     "ops_per_s on solve_mixed, through the family code family_point shares with solve",
     "ops_per_s on family_sweep (not gated), where family_point is the op"),
    ("family.coefficients.calls_per_op", "calls/op", "ops_per_s on solve_mixed and cli_verify",
     "ops_per_s on family_sweep (not gated)"),
    ("family.ratio_sq_prime.calls_per_op", "calls/op", "ops_per_s on solve_mixed", ""),
    ("family.ratio_sq_evals_per_op", "points/op", "ops_per_s on cli_verify and solve_mixed",
     ""),
    ("family.self_us_per_op", "us/op", "ops_per_s on solve_mixed and cli_verify",
     "ops_per_s on family_sweep (not gated)"),
    ("minecc.solve.us", "us", "ops_per_s on solve_mixed", ""),
    ("minecc.maximize_ratio_sq.us", "us", "ops_per_s and op_p99_us on solve_mixed", ""),
    ("minecc.maximize_ratio_sq.calls_per_op", "calls/op",
     "ops_per_s on solve_mixed and cli_verify", ""),
    ("minecc.iterations_p50", "count", "ops_per_s on solve_mixed",
     "op_p99_us and wrong_frac on solve_illcond (not gated)"),
    ("minecc.iterations_max", "count", "op_p99_us on solve_mixed",
     "op_p99_us and wrong_frac on solve_illcond (not gated)"),
    ("minecc.unconverged", "count", "op_p99_us and failed/attempted on solve_mixed",
     "op_p99_us and wrong_frac on solve_illcond (not gated), where it is nonzero today"),
    ("minecc.closed_form_share", "fraction", "ops_per_s on solve_mixed",
     "informational: closed-form solves skip the numeric maximizer"),
    ("minecc.center_err_p50", "L", "failed/attempted on solve_mixed and cli_verify",
     "explains the failure share; reported, not gated"),
    ("minecc.center_err_max", "L", "failed/attempted on solve_mixed and cli_verify",
     "explains the failure share; reported, not gated"),
    ("minecc.self_us_per_op", "us/op", "ops_per_s and op_p99_us on solve_mixed", ""),
    ("conic.geometry.us", "us", "ops_per_s on solve_mixed", ""),
    ("conic.pullback.us", "us", "ops_per_s on solve_mixed", ""),
    ("conic.self_us_per_op", "us/op", "ops_per_s on solve_mixed and cli_verify", ""),
    ("oracle.grid_argmax.us", "us", "ops_per_s and op_p99_us on cli_verify", ""),
    ("oracle.containment.us", "us", "ops_per_s on cli_verify", ""),
    ("oracle.fd_gradient.calls_per_op", "calls/op", "ops_per_s on cli_verify", ""),
    ("oracle.self_us_per_op", "us/op", "ops_per_s and op_p99_us on cli_verify", ""),
    ("cli.build_parser.us", "us", "ops_per_s and setup_s on cli_verify", ""),
    ("cli.to_json.us", "us", "ops_per_s on cli_verify", ""),
    ("cli.bytes_out_per_op", "B/op", "ops_per_s on cli_verify", ""),
    ("cli.main.self_us", "us", "ops_per_s on cli_verify", ""),
    ("cli.self_us_per_op", "us/op", "ops_per_s on cli_verify", ""),
    ("import.numpy_s", "s", "setup_s on solve_mixed and cli_verify",
     "setup_s on every workload"),
    ("import.inellipse_s", "s", "setup_s on solve_mixed and cli_verify",
     "setup_s on every workload"),
    ("ops.wrong_frac", "fraction", "failed/attempted on solve_mixed and cli_verify",
     "the failure share of the traced pass; wrong_frac on every workload"),
    ("ops.raised", "count", "failed/attempted on solve_mixed and cli_verify", ""),
    ("ops.rejected_other", "count", "failed/attempted on solve_mixed and cli_verify", ""),
    ("ops.inaccurate", "count", "failed/attempted on solve_mixed and cli_verify",
     "wrong_frac on solve_illcond and family_sweep (not gated), where it is nonzero today"),
    ("trace.overhead_frac", "fraction", "informational", ""),
    ("src.lines", "lines", "informational", ""),
)

IMPORT_CHILD = ("import time\n"
                "t0 = time.perf_counter()\n"
                "import numpy\n"
                "t1 = time.perf_counter()\n"
                "import inellipse\n"
                "t2 = time.perf_counter()\n"
                "print(t1 - t0, t2 - t1)\n")


def _child_env():
    return dict(os.environ, PYTHONPATH=str(SRC))


# ---------------------------------------------------------------------------
# measurement
# ---------------------------------------------------------------------------


def setup_times(wl, starts):
    """Wall times from spawning a fresh interpreter to its first completed
    op.  Library workloads report that moment on the shared monotonic clock;
    the CLI workload is timed to process exit.  Each workload checks its
    child's output (``setup_end``) and raises on a failed start."""
    argv = wl.setup_argv(sys.executable)
    times = []
    for _ in range(starts):
        t0 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        proc = subprocess.run(argv, env=_child_env(), cwd=ROOT, capture_output=True,
                              text=True, timeout=120)
        t1 = time.clock_gettime_ns(time.CLOCK_MONOTONIC)
        times.append((wl.setup_end(proc, t1) - t0) / 1e9)
    return times


def measure_imports():
    numpy_s, pkg_s = [], []
    for _ in range(SETUP_STARTS):
        proc = subprocess.run([sys.executable, "-c", IMPORT_CHILD], env=_child_env(),
                              cwd=ROOT, capture_output=True, text=True, timeout=120,
                              check=True)
        a, b = map(float, proc.stdout.split())
        numpy_s.append(a)
        pkg_s.append(b)
    return statistics.median(numpy_s), statistics.median(pkg_s)


def workload_process(name, seed, seconds, trace, workdir):
    """Run ``loop.py`` in a fresh interpreter and return its ``Run``."""
    out = os.path.join(workdir, "run.pickle")
    proc = subprocess.run(
        [sys.executable, str(HERE / "loop.py"), name, str(seed), str(seconds), str(trace), out],
        env=_child_env(), cwd=ROOT, capture_output=True, text=True, timeout=seconds + 600)
    if proc.returncode != 0:
        raise RuntimeError(f"workload process exited with {proc.returncode}:\n{proc.stderr}")
    with open(out, "rb") as fh:
        return pickle.load(fh)


# ---------------------------------------------------------------------------
# one workload
# ---------------------------------------------------------------------------


def account(chk, run):
    """Verdict of every op in the timed loop.

    An op repeating its input's first-pass answer shares that answer's
    verdict; differing answers were checked on their own, and answers left
    unchecked count as failed ops.  Returns the first-pass verdicts, the op
    count per verdict kind, the number of failed ops, and the number of
    inputs with a wrong answer on any pass.  The last depends on the seed
    alone, not on how many passes the run length allowed.
    """
    n = len(run.first)
    runs = [run.attempted // n + (i < run.attempted % n) for i in range(n)]
    for i, _ in run.extras:
        runs[i] -= 1
    first_v = [chk.check(i, r) for i, r in enumerate(run.first)]
    counts = Counter()
    wrong = set()
    for i, v in enumerate(first_v):
        counts[v.kind] += runs[i]
        if v.kind != "ok":
            wrong.add(i)
    for i, r in run.extras:
        kind = chk.check(i, r).kind
        counts[kind] += 1
        if kind != "ok":
            wrong.add(i)
    if run.unchecked:
        counts["unchecked"] = run.unchecked
    return first_v, counts, run.attempted - counts["ok"], len(wrong)


def _layer_metrics(wl, tracer, traced_ns, traced_results, traced_verdicts, pass_ns):
    import workloads as W
    n = len(wl.items)
    calls, selfs, layer_self = {}, {}, {}
    for name, _, _, _, _, self_ns in tracer.spans:
        calls[name] = calls.get(name, 0) + 1
        selfs.setdefault(name, []).append(self_ns)
        layer = name.split(".", 1)[0]
        layer_self[layer] = layer_self.get(layer, 0) + self_ns

    def us(name):
        return statistics.median(selfs[name]) / 1e3 if name in selfs else 0.0

    def per_op(name):
        return calls.get(name, 0) / n

    m = {}
    for name, *_ in PER_LAYER:
        if name.endswith(".us"):
            m[name] = us(name[:-3])
        elif name.endswith(".calls_per_op"):
            m[name] = per_op(name[:-len(".calls_per_op")])
        elif name.endswith(".self_us_per_op"):
            m[name] = layer_self.get(name.split(".")[0], 0) / n / 1e3
    m["cli.main.self_us"] = us("cli.main")
    m["family.ratio_sq_evals_per_op"] = tracer.points / n
    its = sorted(tracer.iterations)
    m["minecc.iterations_p50"] = statistics.median(its) if its else 0
    m["minecc.iterations_max"] = its[-1] if its else 0
    m["minecc.unconverged"] = tracer.unconverged
    m["minecc.closed_form_share"] = (
        tracer.methods.count("closed_form_type1") / len(tracer.methods)
        if tracer.methods else 0.0)

    errs = sorted(v.center_err for v in traced_verdicts if not math.isnan(v.center_err))
    m["minecc.center_err_p50"] = statistics.median(errs) if errs else 0.0
    m["minecc.center_err_max"] = errs[-1] if errs else 0.0
    for name in ("Degenerate", "NotConvex", "Trapezoid", "NoValidLabeling"):
        m[f"quad.rejected.{name}"] = sum(
            v.kind == W.REJECTED and v.name == name for v in traced_verdicts)
    quad_names = {"Degenerate", "NotConvex", "Trapezoid", "NoValidLabeling"}
    m["ops.rejected_other"] = sum(v.kind == W.REJECTED and v.name not in quad_names
                                  for v in traced_verdicts)
    m["ops.raised"] = sum(v.kind == W.RAISED for v in traced_verdicts)
    m["ops.inaccurate"] = sum(v.kind == W.INACCURATE for v in traced_verdicts)
    m["ops.wrong_frac"] = sum(v.kind != W.OK for v in traced_verdicts) / n

    texts = [r[1] for r in traced_results
             if isinstance(wl, W.CliWorkload) and not isinstance(r, W.Failure)]
    m["cli.bytes_out_per_op"] = sum(len(t.encode()) for t in texts) / n

    m["trace.overhead_frac"] = traced_ns / pass_ns - 1.0
    m["src.lines"] = sum(len(p.read_text(encoding="utf-8").splitlines())
                         for p in sorted((SRC / "inellipse").glob("*.py")))
    return m


def run_workload(name, seed, seconds, trace):
    import checks
    import reference
    import workloads as W

    OUT.mkdir(exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{name}-", dir=OUT)
    try:
        ref_failures = reference.self_check()
        wl = W.build(name, seed, workdir)
        n = len(wl.items)
        starts = setup_times(wl, SETUP_STARTS // 2)
        run = workload_process(name, seed, seconds, trace, workdir)
        starts += setup_times(wl, SETUP_STARTS - SETUP_STARTS // 2)
        setup_s = statistics.median(starts)

        t_check = time.perf_counter()
        chk = checks.checker(wl)
        first_v, counts, failed_ops, failed = account(chk, run)
        check_s = time.perf_counter() - t_check

        windows, attempted = run.windows, run.attempted
        total_s = sum(w.op_ns for w in windows) / 1e9
        e2e = {
            "ops_per_s": sum(w.ops for w in windows) / total_s,
            "op_p50_us": statistics.median(w.p50_ns for w in windows) / 1e3,
            "op_p99_us": statistics.median(w.p99_ns for w in windows) / 1e3,
            "setup_s": setup_s,
            "peak_rss_mb": run.peak_rss_mb,
        }
        correct = not ref_failures and run.unchecked == 0
        for msg in ref_failures:
            print(f"reference self-check failed: {msg}")

        print(f"{name} seed={seed} trace={trace}: {attempted} ops over a pool of {n} inputs; "
              f"{len(windows)} windows of {windows[0].ops} ops, {total_s:.2f} s of op time "
              f"(references and checks {check_s:.2f} s)")
        for key, unit in (("ops_per_s", "ops/s"), ("op_p50_us", "us"), ("op_p99_us", "us")):
            print(f"  {key:<12} {e2e[key]:>14.6g} {unit}")
        detail = ", ".join(f"{k} {c}" for k, c in sorted(counts.items())
                           if k != W.OK) or "none"
        print(f"  {'wrong_frac':<12} {failed_ops / attempted:>14.6g} fraction "
              f"({failed_ops} of {attempted} ops; {detail}); "
              f"{failed} of {n} inputs wrong")
        print(f"  {'setup_s':<12} {setup_s:>14.6g} s (median of {SETUP_STARTS} starts)")
        print(f"  {'peak_rss_mb':<12} {run.peak_rss_mb:>14.6g} MB (workload process)")
        inputs, wrong, verdicts = Counter(), Counter(), Counter()
        for i, v in enumerate(first_v):
            inputs[wl.tag(i)] += 1
            if v.kind != W.OK:
                wrong[wl.tag(i)] += 1
                verdicts[f"{v.kind}:{v.name}" if v.name else v.kind] += 1
        print("  wrong inputs by family: " + ", ".join(
            f"{t} {wrong[t]}/{c}" for t, c in sorted(inputs.items())))
        if verdicts:
            print("  wrong inputs by verdict: " + ", ".join(
                f"{k} {c}" for k, c in sorted(verdicts.items())))

        if not trace:
            metrics = {k: {"value": e2e[k], "unit": u} for k, u in END_TO_END}
        else:
            tracer, traced_ns, traced_results = run.traced
            traced_v = [first_v[i] if r == run.first[i] else chk.check(i, r)
                        for i, r in enumerate(traced_results)]
            pass_ns = statistics.median(w.op_ns * n / w.ops for w in windows)
            layer = _layer_metrics(wl, tracer, traced_ns, traced_results, traced_v, pass_ns)
            layer["import.numpy_s"], layer["import.inellipse_s"] = measure_imports()
            layer["op_p50_us"] = e2e["op_p50_us"]
            span_path = OUT / f"spans-{name}.tsv"
            tracer.write(span_path)
            print(f"  traced pass: {n} ops, {len(tracer.spans)} spans -> {span_path}")
            for key, unit, *_ in PER_LAYER:
                print(f"  {key:<40} {layer[key]:>14.6g} {unit}")
            metrics = {k: {"value": layer[k], "unit": u} for k, u, *_ in PER_LAYER}
        return {"correct": correct, "attempted": n, "failed": failed, "metrics": metrics}
    finally:
        shutil.rmtree(workdir, ignore_errors=True)


# ---------------------------------------------------------------------------
# entry point
# ---------------------------------------------------------------------------


def run_all(args):
    """Run every workload in its own process and merge their results."""
    merged = {"correct": True, "attempted": 0, "failed": 0, "metrics": {}}
    for name in WORKLOADS:
        proc = subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--workload", name,
             "--seed", str(args.seed), "--seconds", str(args.seconds),
             "--trace", str(args.trace)],
            capture_output=True, text=True, timeout=900)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            sys.stderr.write(proc.stderr)
            raise RuntimeError(f"workload {name} failed with exit code {proc.returncode}")
        print("\n".join(lines[:-1]), flush=True)
        res = json.loads(lines[-1])
        merged["correct"] = merged["correct"] and res["correct"]
        merged["attempted"] += res["attempted"]
        merged["failed"] += res["failed"]
        for key, val in res["metrics"].items():
            merged["metrics"][f"{name}.{key}"] = val
    return merged


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=(*WORKLOADS, "all"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "inellipse" / "__init__.py").is_file():
        print(f"bench: no package at {SRC / 'inellipse'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    import inellipse
    if Path(inellipse.__file__).resolve().parent != (SRC / "inellipse").resolve():
        print(f"bench: imported {inellipse.__file__}, not the package under {SRC}",
              file=sys.stderr)
        return 2

    if args.workload == "all":
        result = run_all(args)
    else:
        result = run_workload(args.workload, args.seed, args.seconds, args.trace)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
