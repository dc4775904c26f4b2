#!/usr/bin/env python3
"""SC-AC-OPF benchmark: two deterministic workloads, checked outputs.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root (the package is taken from ``src/``).  With
``--trace 0`` it prints every end-to-end metric of BENCHMARK.json; with
``--trace 1`` it runs the workload once untraced and once with every
``scacopf`` layer traced, and prints the per-layer metrics.  The last line of
standard output is one JSON object: ``correct``, ``attempted``, ``failed``
and ``metrics``.  Timed metrics are in reference-speed seconds (see
PROBE_REF_S).  See perfbench/README.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import glob
import hashlib
import json
import math
import os
import random
import shutil
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import layers
from spans import percentile, tail_level

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORK = HERE / ".work"
CHILD = str(HERE / "child.py")

# Case generator seed of every workload.  The workload seed permutes the
# order of the inputs, not the network: gen-case seeds change the work itself
# (code1 on 14 buses: 23 s at seed 3, 51 s at seed 0; code2 on 30 buses: 8 s
# at seed 3, 37-70 s at seeds 0-1), which would make runs incomparable.
CASE_SEED = 3
WORKLOADS = {  # name -> (buses, set-ups per run; setup_s is their median)
    "pipeline-14": (14, 8),
    "screen-30": (30, 1),
}
MIN_PASSES = 2  # passes per run, at least: outputs are compared across them
CODE1_TIME_LIMIT = "100"  # deterministic seconds: sweep, full, master, refresh
SCREEN_POINTS = 12  # base points per screening pass: 12 x 20 contingencies
BLAS_THREADS = "1"
PINNED_ENV = {name: BLAS_THREADS for name in (
    "OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS", "VECLIB_MAXIMUM_THREADS", "NUMEXPR_NUM_THREADS")}
RUN_BUDGET_S = 170.0  # every child is killed once the run is this old
# child.probe() time at the fast speed level of the 2-vCPU host the baseline
# was measured on.  Timed metrics are reference-speed seconds: seconds
# measured, times this over the probe time measured next to them.
PROBE_REF_S = 0.13
TRACE_METRICS = ["trace.wall_s", "trace.untraced_wall_s", "trace.overhead_s",
                 "trace.residual_s"]


class Run:
    """Child processes, operation and check counts of one benchmark run."""

    def __init__(self):
        self.t0 = time.perf_counter()
        self.attempted = 0
        self.failed = 0
        self.check_failures = []
        self.env = {**os.environ, **PINNED_ENV, "SCOPF_LOG": "WARNING",
                    "PYTHONPATH": os.pathsep.join(
                        [str(ROOT / "src"), str(HERE)])}

    def count(self, ok, what, check=True, n=1):
        """``n`` attempted operations or one output check; failed ones are
        printed.  Failed checks make the run incorrect."""
        self.attempted += n
        if not ok:
            self.failed += n
            print(f"FAILED: {what}")
            if check:
                self.check_failures.append(what)
        return ok

    def child(self, job, out_dir, label, spans=None, probe=False):
        """Run ``child.py job`` to completion; stdout and stderr go to files
        in ``out_dir``.  Returns wall and CPU seconds, peak RSS and the exit
        code; a non-zero exit code fails the 'exit code' check.  With
        ``probe``, the host-speed probe runs in the process before and after
        the job: the seconds returned leave it out, and ``speed`` converts
        them to reference-speed seconds."""
        argv = [sys.executable, CHILD]
        if spans is not None:
            argv += ["--spans", str(spans)]
        probe_file = Path(out_dir) / f"{label}.probe.json"
        if probe:
            argv += ["--probe", str(probe_file)]
        argv += job
        remaining = RUN_BUDGET_S - (time.perf_counter() - self.t0)
        if remaining <= 0:
            raise TimeoutError(f"run budget spent before {label}")
        out = Path(out_dir) / f"{label}.out"
        err = Path(out_dir) / f"{label}.err"
        with open(out, "w") as fo, open(err, "w") as fe:
            start_epoch = time.time()
            t0 = time.perf_counter()
            proc = subprocess.Popen(argv, stdout=fo, stderr=fe, env=self.env,
                                    cwd=ROOT)
            timer = threading.Timer(remaining, proc.kill)
            timer.start()
            try:
                _, status, usage = os.wait4(proc.pid, 0)
            finally:
                timer.cancel()
            wall = time.perf_counter() - t0
        proc.returncode = code = os.waitstatus_to_exitcode(status)
        if code < 0 and time.perf_counter() - self.t0 >= RUN_BUDGET_S:
            raise TimeoutError(f"{label} killed at the run budget")
        self.count(code == 0, f"{label} exited with code {code}: "
                   f"{err.read_text()[-500:].strip()}")
        cpu = usage.ru_utime + usage.ru_stime
        speed = 1.0
        if probe and probe_file.exists():
            p = json.loads(probe_file.read_text())
            wall -= sum(p["spent_s"])
            cpu -= sum(p["spent_s"])
            start_epoch += p["spent_s"][0]
            speed = PROBE_REF_S / statistics.fmean(p["probe_s"])
        return {"wall": wall, "cpu": cpu, "speed": speed,
                "rss_mb": usage.ru_maxrss / 1024.0, "code": code,
                "start_epoch": start_epoch, "stdout": out.read_text(),
                "stderr": err.read_text()}


def permute_contingencies(raw, dest, seed):
    """Copy the case with its contingency records in a seeded order."""
    doc = json.loads(Path(raw).read_text())
    random.Random(seed).shuffle(doc["contingencies"])
    Path(dest).write_text(json.dumps(doc, indent=1, sort_keys=True))
    return [c["id"] for c in doc["contingencies"]]


def set_up(run, workload, seed, index):
    """Generate the case; for 30 buses also solve its base and write the
    screening points around it."""
    buses = WORKLOADS[workload][0]
    d = WORK / workload / f"setup{index}"
    d.mkdir(parents=True)
    steps = [run.child(["cli", "gen-case", "--n-bus", str(buses), "--seed",
                        str(CASE_SEED), "--output", str(d / "raw.json")],
                       d, "gen-case", probe=True)]
    ids = permute_contingencies(d / "raw.json", d / "case.json", seed)
    iterations = None
    if buses == 30:
        steps.append(run.child(["base", str(d / "case.json"), str(d),
                                "--points", str(SCREEN_POINTS),
                                "--points-seed", str(CASE_SEED)],
                               d, "base", probe=True))
        if steps[-1]["code"] == 0:
            iterations = json.loads(steps[-1]["stdout"])["iterations"]
    return {"raw_seconds": sum(s["wall"] for s in steps),
            "seconds": sum(s["wall"] * s["speed"] for s in steps),
            "dir": d, "ids": ids, "iterations": iterations}


def set_up_files(setup):
    d = setup["dir"]
    return [d / "case.json"] + sorted(d.glob("base_solution_*.json"))


def source_key():
    """Hash of the measured sources and of this benchmark's own code, so
    that outputs are compared only across runs of the same program."""
    files = sorted((ROOT / "src").rglob("*.py")) + sorted(HERE.glob("*.py"))
    return digest(files, key=lambda p: p.relative_to(ROOT).as_posix())[:16]


def digest(paths, key=lambda p: Path(p).name):
    h = hashlib.sha256()
    for p in sorted(paths, key=key):
        h.update(key(p).encode() + b"\0" + Path(p).read_bytes())
    return h.hexdigest()


def _phase(run, args, out_dir, name, spans_dir):
    """One CLI process: traced when ``spans_dir`` is given, else probed."""
    spans = None if spans_dir is None else spans_dir / f"{name}.json"
    return run.child(["cli"] + args, out_dir, name, spans=spans,
                     probe=spans is None)


def pipeline_pass(run, setup, out_dir, spans_dir=None):
    """code1 under the deterministic limit that runs its whole loop, then
    code2 and score, with their output checks."""
    out_dir.mkdir(parents=True)
    case = str(setup["dir"] / "case.json")
    base = str(out_dir / "base_solution.json")
    phases = {
        "code1": _phase(run, ["code1", "--case", case, "--deterministic",
                              "--time-limit", CODE1_TIME_LIMIT,
                              "--output-dir", str(out_dir)],
                        out_dir, "code1", spans_dir),
        "code2": _phase(run, ["code2", "--case", case, "--base", base,
                              "--deterministic", "--output-dir", str(out_dir)],
                        out_dir, "code2", spans_dir),
        "score": _phase(run, ["score", "--case", case, "--base", base,
                              "--solutions", str(out_dir)],
                        out_dir, "score", spans_dir),
    }

    files = sorted(glob.glob(str(out_dir / "contingency_*.json")))
    expected = {f"contingency_{cid}.json" for cid in setup["ids"]}
    run.count({Path(f).name for f in files} == expected
              and len(files) == len(expected),
              f"contingency files {len(files)} for {len(expected)} "
              "contingencies")
    run.count("differs from recomputed" not in phases["score"]["stderr"],
              "score warned of a stored-versus-recomputed penalty")
    try:
        score_total = json.loads(phases["score"]["stdout"])["total"]
    except (ValueError, KeyError):
        score_total = float("nan")
    run.count(math.isfinite(score_total), "score printed no total")

    written = []  # (mtime, penalty, method)
    for f in files:
        data = json.loads(Path(f).read_text())
        run.count(data["status"] == "ok",
                  f"{Path(f).name} has status {data['status']}", check=False)
        written.append((os.stat(f).st_mtime_ns / 1e9, data["penalty"],
                        data["method"]))
    written.sort()
    log = (out_dir / "run_log.jsonl").read_text().splitlines()
    first = os.stat(out_dir / "base_solution_1.json").st_mtime_ns / 1e9
    code1, code2 = phases["code1"], phases["code2"]
    return {
        "raw_wall": sum(p["wall"] for p in phases.values()),
        "raw_cpu": sum(p["cpu"] for p in phases.values()),
        "wall": sum(p["wall"] * p["speed"] for p in phases.values()),
        "cpu": sum(p["cpu"] * p["speed"] for p in phases.values()),
        "speeds": [p["speed"] for p in phases.values()],
        "rss_mb": max(p["rss_mb"] for p in phases.values()),
        "phases": {name: p["wall"] * p["speed"]
                   for name, p in phases.items()},
        "first_write": (first - code1["start_epoch"]) * code1["speed"],
        "evaluations": len(files) + sum(
            json.loads(line)["event"] == "evaluated" for line in log),
        "latencies": [(b[0] - a[0]) * code2["speed"]
                      for a, b in zip(written, written[1:])],
        "score_total": score_total,
        "screen_penalty_sum": math.fsum(pen for _, pen, method in written
                                        if method == "fast"),
        "digest": digest(glob.glob(str(out_dir / "base_solution*.json"))
                         + files),
    }


def screen_run(run, setup, out_dir, seed, seconds, min_passes,
               spans_dir=None):
    """One screening process: passes over every (base point, contingency).
    Returns the process's wall time and peak RSS and its passes."""
    out_dir.mkdir(parents=True)
    spans = None if spans_dir is None else spans_dir / "screen.json"
    res = run.child([
        "screen", str(setup["dir"] / "case.json"), str(setup["dir"]),
        str(out_dir / "screen.json"), "--order-seed", str(seed),
        "--seconds", str(seconds), "--min-passes", str(min_passes)],
        out_dir, "screen", spans=spans)
    passes = []
    for i, p in enumerate(json.loads(
            (out_dir / "screen.json").read_text())["passes"]):
        for status, n in p["statuses"].items():
            run.count(status == "ok", f"screen pass {i}: {n} results with "
                      f"status {status}", check=False, n=n)
        run.count(not p["mismatched"], f"screen pass {i}: stored penalty "
                  f"differs from recomputed for {p['mismatched'][:5]}")
        speed = PROBE_REF_S / statistics.fmean(p["probe_s"])
        passes.append({
            "raw_wall": p["wall_s"], "raw_cpu": p["cpu_s"],
            "wall": p["wall_s"] * speed, "cpu": p["cpu_s"] * speed,
            "speeds": [speed],
            "first_write": p["first_s"] * speed,
            "evaluations": len(p["latencies_s"]),
            "latencies": [x * speed for x in p["latencies_s"]],
            "score_total": p["score_mean"],
            "screen_penalty_sum": p["penalty_sum"],
            "digest": hashlib.sha256(json.dumps(
                p["penalties"]).encode()).hexdigest(),
        })
    return res["wall"], res["rss_mb"], passes


def check_determinism(run, workload, digests):
    """Outputs of every pass in this run, and of earlier runs in this
    checkout of the same sources at the same pinned thread count, must be
    byte-identical."""
    run.count(len(set(digests)) == 1,
              f"{workload}: outputs differ between passes of one run")
    store = WORK / "digests.json"
    known = json.loads(store.read_text()) if store.exists() else {}
    key = f"{workload}@{source_key()}@blas_threads={BLAS_THREADS}"
    if key in known:
        run.count(known[key] == digests[0],
                  f"{workload}: outputs differ from an earlier run")
    else:
        known[key] = digests[0]
        tmp = store.with_suffix(".tmp")
        tmp.write_text(json.dumps(known, indent=1))
        os.replace(tmp, store)


def check_reference(run, workload, metrics):
    """Quality may not be worse than the recorded reference by more than
    the metric's bound in BENCHMARK.json (lower is better for both)."""
    ref = json.loads((HERE / "reference.json").read_text())[workload]
    bounds = {m["name"]: m["bound"] for m in json.loads(
        (ROOT / "BENCHMARK.json").read_text())["end_to_end"]}
    for name in ("score_total", "screen_penalty_sum"):
        value = metrics[name][0]
        limit = ref[name] * (1.0 + bounds[name])
        run.count(value <= limit, f"{workload}: {name} {value!r} worse "
                  f"than reference {ref[name]!r} by more than "
                  f"{bounds[name]:.1%}")


def timed(run, args, setup):
    """End-to-end metrics, untraced.  Timings are medians over passes."""
    root = WORK / args.workload
    t0 = time.perf_counter()
    if args.workload == "screen-30":
        _, rss_mb, passes = screen_run(run, setup, root / "screen", args.seed,
                                       args.seconds, MIN_PASSES)
        info = {}
    else:
        passes = []
        while len(passes) < MIN_PASSES \
                or time.perf_counter() - t0 < args.seconds:
            passes.append(pipeline_pass(run, setup,
                                        root / f"pass{len(passes)}"))
        rss_mb = max(p["rss_mb"] for p in passes)
        info = {f"{name}_s": (statistics.median(p["phases"][name]
                                                for p in passes), "s")
                for name in passes[0]["phases"]}
    check_determinism(run, args.workload, [p["digest"] for p in passes])
    for name in ("score_total", "screen_penalty_sum"):
        run.count(len({p[name] for p in passes}) == 1,
                  f"{args.workload}: {name} differs between passes")

    def median(key):
        return statistics.median(p[key] for p in passes)

    metrics = {
        "wall_s": (median("wall"), "s"),
        "cpu_s": (median("cpu"), "s"),
        "ctg_per_s": (statistics.median(p["evaluations"] / p["wall"]
                                        for p in passes), "1/s"),
        "score_total": (passes[0]["score_total"], "cost"),
        "screen_penalty_sum": (passes[0]["screen_penalty_sum"], "cost"),
        "peak_rss_mb": (rss_mb, "MB"),
    }
    check_reference(run, args.workload, metrics)

    latencies = [x for p in passes for x in p["latencies"]]
    info.update({
        "raw_wall_s": (median("raw_wall"), "s"),
        "raw_cpu_s": (median("raw_cpu"), "s"),
        "host_speed": (statistics.median(
            x for p in passes for x in p["speeds"]), "ratio"),
        "passes": (len(passes), "count"),
        "first_write_s": (median("first_write"), "s"),
        "ctg_eval_p50_ms": (1e3 * percentile(latencies, 50), "ms"),
        "latency_samples": (len(latencies), "count"),
    })
    level = tail_level(len(latencies))
    if level is not None and level >= 95:  # p95 and the rule's percentile
        for tail in sorted({95.0, level}):
            info[f"ctg_eval_p{tail:g}_ms"] = (
                1e3 * percentile(latencies, tail), "ms")
    return metrics, info


def traced(run, args, setup):
    """Per-layer metrics: one untraced and one traced pass of the workload."""
    root = WORK / args.workload
    spans_dir = root / "spans"
    spans_dir.mkdir(parents=True)
    walls = {}
    digests = []
    for label, sd in (("untraced", None), ("traced", spans_dir)):
        if args.workload == "screen-30":
            walls[label], _, passes = screen_run(run, setup, root / label,
                                                 args.seed, 0.0, 1, sd)
            digests.append(passes[0]["digest"])
        else:
            p = pipeline_pass(run, setup, root / label, sd)
            walls[label] = p["raw_wall"]  # plain seconds, as when traced
            digests.append(p["digest"])
    check_determinism(run, args.workload, digests)
    spans = [json.loads(p.read_text()) for p in sorted(spans_dir.iterdir())]
    metrics = layers.layer_metrics(spans)
    self_total = sum(metrics[f"layer.{layer}.self_s"][0]
                     for layer in layers.LAYERS)
    traced_wall, untraced_wall = walls["traced"], walls["untraced"]
    for name, value in zip(TRACE_METRICS, (
            traced_wall, untraced_wall, traced_wall - untraced_wall,
            traced_wall - self_total)):
        metrics[name] = (value, "s")
    return metrics, {}


def main(argv=None):
    p = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    p.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)
    if not (ROOT / "src" / "scacopf" / "__init__.py").is_file():
        print(f"error: no scacopf sources under {ROOT / 'src'}; run from a "
              "checkout of the repository", file=sys.stderr)
        return 2

    run = Run()
    shutil.rmtree(WORK / args.workload, ignore_errors=True)
    (WORK / args.workload).mkdir(parents=True)
    env = run.child(["env"], WORK / args.workload, "env")
    print("env: " + json.dumps({
        **json.loads(env["stdout"]), "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS}))

    n_setups = 1 if args.trace else WORKLOADS[args.workload][1]
    setups = [set_up(run, args.workload, args.seed, i)
              for i in range(n_setups)]
    first = [p.read_bytes() for p in set_up_files(setups[0])]
    for s in setups[1:]:
        run.count([p.read_bytes() for p in set_up_files(s)] == first,
                  f"{args.workload}: set-ups produced different inputs")
    metrics, info = (traced if args.trace else timed)(run, args, setups[0])
    if not args.trace:
        metrics = {"setup_s": (statistics.median(
            s["seconds"] for s in setups), "s"), **metrics}
        info["raw_setup_s"] = (statistics.median(
            s["raw_seconds"] for s in setups), "s")
    if setups[0]["iterations"] is not None:
        print(f"info: base_solve_iterations = {setups[0]['iterations']} "
              "count")
    if not args.trace:
        metrics["ok_share"] = (1.0 - run.failed / run.attempted, "ratio")
        info["failed_share"] = (run.failed / run.attempted, "ratio")
    for name, (value, unit) in info.items():
        print(f"info: {name} = {value!r} {unit}")
    for name, (value, unit) in metrics.items():
        print(f"{name} = {value!r} {unit}")
    print(json.dumps({
        "correct": not run.check_failures,
        "attempted": run.attempted,
        "failed": run.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    try:
        sys.exit(main())
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        sys.exit(3)
