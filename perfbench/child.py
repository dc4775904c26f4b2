"""Benchmark jobs that run in their own process.

    python3 perfbench/child.py [--spans FILE] JOB ARGS...

JOB is one of
  env                       print the interpreter, numpy/scipy/BLAS versions
  base CASE OUT_DIR ...     solve the base case as code1 does and write
                            screening points around it to OUT_DIR
  cli ARGV...               run ``scacopf`` with ARGV (used for traced runs)
  screen CASE POINTS OUT ...  fast-evaluate every contingency at each base
                            point in POINTS; timings and penalties go to OUT

With ``--spans FILE`` the ``scacopf`` layers are traced and the spans are
written to FILE when the job ends.  With ``--probe FILE`` the host-speed
probe runs just before and just after the job, and its times go to FILE.
``src`` must be on PYTHONPATH.
"""

from __future__ import annotations

import argparse
import glob
import json
import math
import os
import platform
import random
import sys
import time

import numpy as np
from scipy.linalg import get_lapack_funcs  # the program imports it too


def probe():
    """Seconds a fixed mix of work takes here and now: a pure-Python loop,
    small numpy operations and dense symmetric factorizations, as in the
    program.  The host's CPU speed changes while it runs; a time divided by
    this one, measured in the same process next to it, does not."""
    a = np.random.default_rng(0).normal(size=(400, 400))
    a = a + a.T
    sytrf, = get_lapack_funcs(("sytrf",), (a,))
    t0 = time.perf_counter()
    total = 0
    for i in range(650_000):
        total += i % 7
    x = np.zeros(100)
    for _ in range(13_000):
        x = x + np.sin(x) * 0.5
    for _ in range(16):
        sytrf(a, lower=1)
    return time.perf_counter() - t0


def job_env(_args):
    import scipy

    blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
    print(json.dumps({
        "python": platform.python_version(),
        "numpy": np.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
    }))
    return 0


def job_base(args):
    from scacopf import orchestrator as orch
    from scacopf.case_model import load_case, preprocess
    from scacopf.nlp import solve_nlp
    from scacopf.scopf import (build_base_problem, flows_from_state,
                               generation_cost, point_penalty,
                               slacks_from_state)

    net, report = preprocess(load_case(args.case))
    prob = build_base_problem(net, report, start=orch.flat_start(net))
    sol = solve_nlp(prob, tol=1e-8)
    if sol.status != "optimal" or not np.all(np.isfinite(sol.x)):
        print(f"base solve ended with status {sol.status}", file=sys.stderr)
        return 2
    point = prob.meta.extract_base(sol.x)
    points = [point] + base_points(net, point, args.points - 1,
                                   args.points_seed)
    for tag, pt in enumerate(points, start=1):
        pen = point_penalty(
            net, slacks_from_state(net, flows_from_state(net, pt.state)))
        orch.write_base_solution(
            f"{args.out_dir}/base_solution_{tag}.json", net, pt, tag,
            generation_cost(net, pt.state.p_gen) + pen, pen)
    print(json.dumps({"status": sol.status, "iterations": sol.iterations}))
    return 0


def job_cli(args):
    from scacopf import cli

    return cli.main(args.argv)


def resolve_flow(net, point):
    """``point`` with its power flow re-solved: generator outputs and
    voltage set points kept, the mismatch shared out by every generator's
    participation factor.  This is the screening engine's own response
    system with nothing outaged."""
    from scacopf.acpf import balance_residuals
    from scacopf.case_model import Contingency
    from scacopf.eval import fast_evaluate
    from scacopf.scopf import flows_from_state, slacks_from_state

    k = Contingency(id="re-solve", kind="line-outage", outaged="",
                    responding_gens=tuple(g.id for g in net.generators))
    res = fast_evaluate(net, k, point, cutoff=math.inf, deterministic=True)
    solved = slacks_from_state(net, flows_from_state(net, res.point.state))
    r = balance_residuals(net, solved.state)
    mismatch = max(np.max(np.abs(r.p_resid)), np.max(np.abs(r.q_resid)))
    if res.status != "ok" or not mismatch < 1e-6:
        raise RuntimeError(f"power flow re-solve ended with status "
                           f"{res.status}, mismatch {mismatch:.3g} p.u.")
    return solved


def base_points(net, base, count, seed):
    """``count`` base points around ``base``: generator outputs moved by a
    zero-sum 1 % of their range and voltages by 0.0005 p.u., both clipped
    to bounds, then the power flow re-solved.  Like the master points that
    code1's refresh re-screens, they balance power at every bus."""
    from scacopf.scopf import flows_from_state, slacks_from_state

    rng = np.random.default_rng(seed)
    p_lo = np.array([g.p_min for g in net.generators])
    p_hi = np.array([g.p_max for g in net.generators])
    v_lo = np.array([b.v_min for b in net.buses])
    v_hi = np.array([b.v_max for b in net.buses])
    points = []
    for _ in range(count):
        state = base.state.copy()
        dp = rng.normal(0.0, 0.01, len(p_lo)) * (p_hi - p_lo)
        state.p_gen = np.clip(state.p_gen + dp - dp.mean(), p_lo, p_hi)
        state.v = np.clip(state.v + rng.normal(0.0, 0.0005, len(v_lo)),
                          v_lo, v_hi)
        points.append(resolve_flow(
            net, slacks_from_state(net, flows_from_state(net, state))))
    return points


def job_screen(args):
    from scacopf import eval as eval_mod
    from scacopf.case_model import load_case
    from scacopf.orchestrator import load_base_solution
    from scacopf.scopf import point_penalty, total_score

    net = load_case(args.case)
    files = glob.glob(os.path.join(args.points, "base_solution_*.json"))
    files.sort(key=lambda f: int(f.rsplit("_", 1)[1].split(".")[0]))
    points = [load_base_solution(f, net)[0] for f in files]
    # base points in sequence, as code1 writes them; contingencies in a
    # seeded order at each
    rng = random.Random(args.order_seed)
    pairs = []
    for i in range(len(points)):
        order = list(net.contingencies)
        rng.shuffle(order)
        pairs += [(i, k) for k in order]
    cutoff = eval_mod.default_cutoff(net)

    passes = []
    t_start = time.perf_counter()
    probe_before = probe()
    while True:
        results = []
        c0 = time.process_time()
        t0 = time.perf_counter()
        first = None
        for i, k in pairs:
            s = time.perf_counter()
            res = eval_mod.fast_evaluate(net, k, points[i], cutoff=cutoff,
                                         deterministic=True)
            e = time.perf_counter()
            results.append((e - s, i, k, res))
            if first is None and len(results) == len(net.contingencies):
                first = e - t0
        wall = time.perf_counter() - t0
        cpu = time.process_time() - c0
        probe_after = probe()

        penalties = {}
        mismatched = []
        statuses = {}
        for _, i, k, res in results:
            penalties[f"{i}/{k.id}"] = res.penalty
            statuses[res.status] = statuses.get(res.status, 0) + 1
            recomputed = point_penalty(net, res.point, k.outaged)
            if abs(recomputed - res.penalty) > 1e-6 * (1.0 + abs(recomputed)):
                mismatched.append(f"{i}/{k.id}")
        scores = [total_score(net, points[i], {
            k.id: penalties[f"{i}/{k.id}"] for k in net.contingencies})
            for i in range(len(points))]
        passes.append({
            "wall_s": wall, "cpu_s": cpu,
            "probe_s": [probe_before, probe_after],
            "first_s": first,
            "latencies_s": [r[0] for r in results],
            "penalty_sum": math.fsum(penalties.values()),
            "score_mean": math.fsum(scores) / len(scores),
            "penalties": {key: penalties[key] for key in sorted(penalties)},
            "statuses": statuses,
            "mismatched": mismatched,
        })
        probe_before = probe_after
        elapsed = time.perf_counter() - t_start
        if len(passes) >= args.min_passes and elapsed >= args.seconds:
            break
    with open(args.out, "w") as fh:
        json.dump({"passes": passes, "evaluations": len(pairs)}, fh)
    return 0


def main(argv=None):
    p = argparse.ArgumentParser(prog="child.py")
    p.add_argument("--spans", default=None)
    p.add_argument("--probe", default=None)
    sub = p.add_subparsers(dest="job", required=True)
    sub.add_parser("env").set_defaults(func=job_env)
    b = sub.add_parser("base")
    b.add_argument("case")
    b.add_argument("out_dir")
    b.add_argument("--points", type=int, required=True)
    b.add_argument("--points-seed", type=int, required=True)
    b.set_defaults(func=job_base)
    c = sub.add_parser("cli")
    c.add_argument("argv", nargs=argparse.REMAINDER)
    c.set_defaults(func=job_cli)
    s = sub.add_parser("screen")
    s.add_argument("case")
    s.add_argument("points")
    s.add_argument("out")
    s.add_argument("--order-seed", type=int, required=True)
    s.add_argument("--seconds", type=float, required=True)
    s.add_argument("--min-passes", type=int, required=True)
    s.set_defaults(func=job_screen)
    args = p.parse_args(argv)

    if args.probe is not None:
        t0 = time.perf_counter()
        before = probe()
        spent = [time.perf_counter() - t0]
        try:
            return args.func(args)
        finally:
            t0 = time.perf_counter()
            after = probe()
            spent.append(time.perf_counter() - t0)
            with open(args.probe, "w") as fh:
                json.dump({"probe_s": [before, after], "spent_s": spent}, fh)
    if args.spans is None:
        return args.func(args)
    import layers
    from spans import Tracer

    tracer = Tracer()
    layers.install(tracer)
    tracer.open("bench." + args.job)
    try:
        return args.func(args)
    finally:
        tracer.close()
        tracer.dump(args.spans)


if __name__ == "__main__":
    sys.exit(main())
