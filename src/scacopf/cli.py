"""Command-line interface.

Subcommands:
  code1      produce base-case solutions under a time limit
  code2      produce one solution file per contingency
  score      recompute and print the total objective of a solution set
  harness    emit ablation-study CSV tables for external plotting
  gen-case   generate a seeded synthetic test case
  train      fit a contingency-ranking model from labelled evaluations

Exit codes: 0 success, 1 validation/input error, 2 solve failure,
3 time limit reached before any solution was written.

Each subcommand imports only the modules it runs.  The module top holds the
standard library, numpy and `case_model`, all that ``gen-case`` and argument
parsing need; the solver stack (`orchestrator` and everything it imports,
``scipy.sparse`` included) is imported inside the subcommands that solve, and
the ``harness`` and ``train`` experiments live in `harness`.  Every CLI call
is its own process, and with no bytecode cache (``PYTHONDONTWRITEBYTECODE``)
each process compiles every module it imports, so a module imported at the
top here would be compiled by every subcommand, whether it runs or not.
"""

from __future__ import annotations

import argparse
import csv
import glob as globmod
import json
import logging
import math
import os
import sys

import numpy as np

from .case_model import (
    Bus,
    CaseError,
    Contingency,
    Generator,
    Line,
    Network,
    PenaltyConfig,
    Transformer,
    load_case,
    validate,
    write_case,
)

log = logging.getLogger("scacopf")

EXIT_OK = 0
EXIT_INPUT = 1
EXIT_SOLVE = 2
EXIT_TIMEOUT = 3

HARNESS_MODES = ("ranking-compare", "compl-ablation", "fasteval-ablation",
                 "selection-ablation")


def _setup_logging():
    level = os.environ.get("SCOPF_LOG", "WARNING").upper()
    logging.basicConfig(
        level=getattr(logging, level, logging.WARNING),
        format="%(levelname)s %(name)s: %(message)s")


def _load_case_or_die(path):
    if not os.path.exists(path):
        raise CaseError(f"case file not found: {path}")
    return load_case(path)


def _load_model(path):
    """The ranking model stored at ``path``, or None without a path."""
    if not path:
        return None
    from .ranking import load_model
    return load_model(path)


def _write_output(path, write):
    """Call ``write(path)``.  A path that cannot be written, such as a file
    in a missing directory, prints one ``error:`` line and returns False."""
    try:
        write(path)
    except OSError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return False
    return True


def _config_from_args(args):
    from . import orchestrator as orch

    kw = {}
    if getattr(args, "time_limit", None) is not None:
        kw["code1_time_limit"] = args.time_limit
    if getattr(args, "n_select", None) is not None:
        kw["n_select"] = args.n_select
    if getattr(args, "cutoff", None) is not None:
        kw["cutoff"] = args.cutoff
    if getattr(args, "output_dir", None) is not None:
        kw["output_dir"] = args.output_dir
    if getattr(args, "factor", None) is not None:
        kw["per_contingency_code2_factor"] = args.factor
    kw["deterministic"] = bool(getattr(args, "deterministic", False))
    kw["seed"] = getattr(args, "seed", 0) or 0
    if getattr(args, "candidates", None):
        kw["candidate_boost"] = tuple(args.candidates.split(","))
    return orch.RunConfig(**kw)


# --- code1 --------------------------------------------------------------------

def cmd_code1(args):
    from . import orchestrator as orch

    try:
        net = _load_case_or_die(args.case)
        cfg = _config_from_args(args)
        unknown = set(cfg.candidate_boost) - {k.id for k in net.contingencies}
        if unknown:
            raise ValueError("--candidates names no contingency of the case: "
                             + ", ".join(sorted(unknown)))
        model = _load_model(args.model)
    except (CaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    try:
        res = orch.run_code1(net, cfg, model=model)
    except TimeoutError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_TIMEOUT
    except RuntimeError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    print(json.dumps({
        "solution": res.solution_path, "tag": res.base_tag,
        "objective": res.objective, "penalty": res.penalty,
        "included": res.included,
    }))
    return EXIT_OK


# --- code2 --------------------------------------------------------------------

def cmd_code2(args):
    from . import orchestrator as orch

    try:
        net = _load_case_or_die(args.case)
        cfg = _config_from_args(args)
        base, tag, _ = orch.load_base_solution(args.base, net)
        model = _load_model(args.model)
    except (CaseError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    res = orch.run_code2(net, cfg, base, base_tag=tag, model=model)
    ok = len(res.files) == len(net.contingencies)
    print(json.dumps({"files": len(res.files),
                      "elapsed": round(res.elapsed, 3)}))
    return EXIT_OK if ok else EXIT_SOLVE


# --- score --------------------------------------------------------------------

def cmd_score(args):
    from . import orchestrator as orch
    from .scopf import generation_cost, point_penalty, total_score

    try:
        net = _load_case_or_die(args.case)
        base, tag, base_data = orch.load_base_solution(args.base, net)
    except (CaseError, OSError, ValueError, KeyError,
            json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    # stored numbers are never trusted: everything below is recomputed
    cost = generation_cost(net, base.state.p_gen)
    base_pen = point_penalty(net, base)
    if abs(base_data.get("penalty", base_pen) - base_pen) > 1e-6 * (
            1.0 + abs(base_pen)):
        log.warning("stored base penalty %s differs from recomputed %s",
                    base_data.get("penalty"), base_pen)

    ctg_penalties = {}
    for k in net.contingencies:
        path = os.path.join(args.solutions, f"contingency_{k.id}.json")
        if not os.path.exists(path):
            print(f"error: missing contingency solution file: {path}",
                  file=sys.stderr)
            return EXIT_INPUT
        try:
            point, _, data = orch.load_contingency_solution(path, net)
        except (OSError, ValueError, KeyError, json.JSONDecodeError) as exc:
            print(f"error: {path}: {exc}", file=sys.stderr)
            return EXIT_INPUT
        if data["contingency"] != k.id:
            print(f"error: {path}: holds contingency {data['contingency']}, "
                  f"expected {k.id}", file=sys.stderr)
            return EXIT_INPUT
        pen = point_penalty(net, point, k.outaged)
        if abs(data.get("penalty", pen) - pen) > 1e-6 * (1.0 + abs(pen)):
            log.warning("contingency %s: stored penalty %s differs from "
                        "recomputed %s", k.id, data.get("penalty"), pen)
        ctg_penalties[k.id] = pen

    score = total_score(net, base, ctg_penalties)
    mean_pen = (sum(ctg_penalties.values()) / len(ctg_penalties)
                if ctg_penalties else 0.0)
    report = {
        "generation_cost": cost,
        "base_penalty": base_pen,
        "mean_contingency_penalty": mean_pen,
        "total": score,
    }
    text = json.dumps(report, indent=2)

    def write(path):
        with open(path, "w") as fh:
            fh.write(text + "\n")

    if args.output and not _write_output(args.output, write):
        return EXIT_INPUT
    print(text)
    return EXIT_OK


# --- harness ------------------------------------------------------------------

HARNESS_HEADERS = {
    "ranking-compare": ("n_considered", "heuristic", "top3_penalty_pct"),
    "compl-ablation": ("case", "contingency", "penalty_without_updates",
                       "penalty_with_updates", "ratio"),
    "fasteval-ablation": ("case", "n_contingencies", "prescreened_pct",
                          "fast_seconds", "full_seconds"),
    "selection-ablation": ("case", "scheme", "total_score"),
}


def cmd_harness(args):
    if args.n_select < 1:
        print("error: --n-select must be >= 1", file=sys.stderr)
        return EXIT_INPUT
    try:
        nets = [_load_case_or_die(p) for p in args.cases]
        model = _load_model(args.model)
    except (CaseError, OSError, ValueError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    from . import harness

    try:
        rows = harness.table(args.mode, nets, model, n_select=args.n_select)
    except RuntimeError as exc:  # a base solve failed twice
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE

    def write(path):
        with open(path, "w", newline="") as fh:
            writer = csv.writer(fh)
            writer.writerow(HARNESS_HEADERS[args.mode])
            writer.writerows(rows)

    out = args.output or f"{args.mode}.csv"
    if not _write_output(out, write):
        return EXIT_INPUT
    print(out)
    return EXIT_OK


# --- gen-case -----------------------------------------------------------------

def generate_case(n_bus, seed, n_contingencies=None):
    """Seeded random connected network with per-unit parameters in realistic
    ranges; deterministic for a fixed seed."""
    if n_bus < 2:
        raise ValueError("n_bus must be >= 2")
    if n_contingencies is not None and n_contingencies < 0:
        raise ValueError("n_contingencies must be >= 0")
    rng = np.random.default_rng(seed)

    buses = []
    for i in range(n_bus):
        buses.append(Bus(
            id=f"B{i + 1}", v_min=0.95, v_max=1.05,
            base_kv=float(rng.choice([115.0, 230.0])),
            p_load=float(rng.uniform(0.1, 0.5)),
            q_load=float(rng.uniform(0.02, 0.15)),
            bcs_min=0.0,
            bcs_max=float(rng.choice([0.0, 0.1])),
        ))

    # at least two generators, roughly one per three buses, capacity sized to
    # clear the total load with margin
    total_load = sum(b.p_load for b in buses)
    n_gen = max(2, n_bus // 3)
    gen_buses = rng.choice(n_bus, size=n_gen, replace=False)
    gens = []
    for gi, bi in enumerate(sorted(gen_buses)):
        cap = 1.6 * total_load / n_gen * float(rng.uniform(0.8, 1.2))
        price = float(rng.uniform(5.0, 30.0))
        gens.append(Generator(
            id=f"G{gi + 1}", bus=buses[bi].id,
            p_min=0.0, p_max=round(cap, 4),
            q_min=round(-0.6 * cap, 4), q_max=round(0.6 * cap, 4),
            alpha=1.0,
            cost_curve=((round(0.5 * cap, 4), round(price, 2)),
                        (round(cap, 4), round(2.0 * price, 2))),
        ))

    # spanning tree over a random bus permutation keeps the network connected;
    # extra edges add meshing
    order = list(rng.permutation(n_bus))
    edges = []  # (a, b, is_extra); extra edges are safe to outage
    for i in range(1, n_bus):
        a = order[i]
        b = order[int(rng.integers(0, i))]
        edges.append((min(a, b), max(a, b), False))
    n_extra = max(1, n_bus // 3)
    for _ in range(n_extra):
        a, b = rng.choice(n_bus, size=2, replace=False)
        edges.append((min(int(a), int(b)), max(int(a), int(b)), True))

    lines = []
    xfs = []
    outage_lines = []
    outage_xfs = []
    for a, b, is_extra in edges:
        r = float(rng.uniform(0.01, 0.05))
        x = float(rng.uniform(0.05, 0.25))
        denom = r * r + x * x
        g, susc = r / denom, -x / denom
        rating = round(float(rng.uniform(0.8, 1.5)) * total_load / 2, 4)
        if buses[a].base_kv != buses[b].base_kv:
            xf = Transformer(
                id=f"T{len(xfs) + 1}", origin=buses[a].id,
                destination=buses[b].id, g=round(g, 4), b=round(susc, 4),
                tau=round(float(rng.uniform(0.98, 1.02)), 4),
                theta_shift=0.0, g_mag=0.0,
                b_mag=round(float(rng.uniform(-0.05, 0.0)), 4),
                s_max=rating, s_max_ctg=round(1.1 * rating, 4))
            xfs.append(xf)
            if is_extra:
                outage_xfs.append(xf)
        else:
            line = Line(
                id=f"L{len(lines) + 1}", origin=buses[a].id,
                destination=buses[b].id, g=round(g, 4), b=round(susc, 4),
                b_ch=round(float(rng.uniform(0.0, 0.06)), 4),
                r_max=rating, r_max_ctg=round(1.1 * rating, 4))
            lines.append(line)
            if is_extra:
                outage_lines.append(line)

    all_gen_ids = tuple(g.id for g in gens)
    ctgs = []
    for g in gens:
        responders = tuple(i for i in all_gen_ids if i != g.id)
        ctgs.append(Contingency(id=f"K{g.id}", kind="generator-outage",
                                outaged=g.id, responding_gens=responders))
    # line outages only where removal cannot disconnect the network: skip
    # bridges by only outaging the extra (meshing) edges
    for e in outage_lines:
        ctgs.append(Contingency(id=f"K{e.id}", kind="line-outage",
                                outaged=e.id, responding_gens=all_gen_ids))
    for f in outage_xfs:
        ctgs.append(Contingency(id=f"K{f.id}", kind="transformer-outage",
                                outaged=f.id, responding_gens=all_gen_ids))
    if n_contingencies is not None:
        ctgs = ctgs[:n_contingencies]

    net = Network(buses=tuple(buses), generators=tuple(gens),
                  lines=tuple(lines), transformers=tuple(xfs),
                  contingencies=tuple(ctgs),
                  penalty_config=PenaltyConfig(),
                  reference_bus=buses[0].id)
    errors = validate(net)
    if errors:
        raise ValueError("generated case invalid: " + "; ".join(errors))
    return net


def cmd_gen_case(args):
    try:
        net = generate_case(args.n_bus, args.seed,
                            n_contingencies=args.n_contingencies)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT
    if not _write_output(args.output, lambda path: write_case(net, path)):
        return EXIT_INPUT
    print(args.output)
    return EXIT_OK


# --- train --------------------------------------------------------------------

def cmd_train(args):
    if not (args.eval_time_limit > 0 and math.isfinite(args.eval_time_limit)):
        print("error: --eval-time-limit must be positive and finite",
              file=sys.stderr)
        return EXIT_INPUT
    paths = sorted(p for pat in args.cases for p in globmod.glob(pat))
    if not paths:
        print("error: no case files matched", file=sys.stderr)
        return EXIT_INPUT
    try:
        nets = [load_case(p) for p in paths]
    except CaseError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INPUT

    from . import harness
    from .ranking import save_model

    try:
        model = harness.train(nets, args.eval_time_limit, args.reg_lambda)
    except RuntimeError as exc:  # a base solve failed twice
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_SOLVE
    if not _write_output(args.output, lambda path: save_model(model, path)):
        return EXIT_INPUT
    print(args.output)
    return EXIT_OK


# --- entry point --------------------------------------------------------------

class _Parser(argparse.ArgumentParser):
    """Usage errors exit with ``EXIT_INPUT``; argparse's own code, 2, would
    read as a solve failure.  Subparsers inherit the class."""

    def error(self, message):
        self.print_usage(sys.stderr)
        self.exit(EXIT_INPUT, f"{self.prog}: error: {message}\n")


def build_parser():
    p = _Parser(
        prog="scacopf",
        description="Security-constrained AC optimal power flow toolkit")
    sub = p.add_subparsers(dest="command", required=True)

    def common(sp):
        sp.add_argument("--deterministic", action="store_true")
        sp.add_argument("--seed", type=int, default=0)
        sp.add_argument("--output-dir", default=".")

    c1 = sub.add_parser("code1", help="produce base-case solutions")
    c1.add_argument("--case", required=True)
    c1.add_argument("--time-limit", type=float, default=None)
    c1.add_argument("--n-select", type=int, default=None)
    c1.add_argument("--cutoff", type=float, default=None)
    c1.add_argument("--model", default=None)
    c1.add_argument("--candidates", default=None,
                    help="comma-separated contingency ids ranked first")
    common(c1)
    c1.set_defaults(func=cmd_code1)

    c2 = sub.add_parser("code2", help="produce contingency solutions")
    c2.add_argument("--case", required=True)
    c2.add_argument("--base", required=True,
                    help="base solution file from code1")
    c2.add_argument("--factor", type=float, default=None,
                    help="seconds of budget per contingency")
    c2.add_argument("--cutoff", type=float, default=None)
    c2.add_argument("--model", default=None)
    common(c2)
    c2.set_defaults(func=cmd_code2)

    sc = sub.add_parser("score", help="recompute the total objective")
    sc.add_argument("--case", required=True)
    sc.add_argument("--base", required=True)
    sc.add_argument("--solutions", required=True,
                    help="directory of contingency solution files")
    sc.add_argument("--output", default=None)
    sc.set_defaults(func=cmd_score)

    ha = sub.add_parser("harness", help="emit ablation CSV tables")
    ha.add_argument("mode", choices=HARNESS_MODES)
    ha.add_argument("cases", nargs="+")
    ha.add_argument("--model", default=None)
    ha.add_argument("--n-select", type=int, default=3)
    ha.add_argument("--output", default=None)
    ha.set_defaults(func=cmd_harness)

    gc = sub.add_parser("gen-case", help="generate a synthetic case")
    gc.add_argument("--n-bus", type=int, required=True)
    gc.add_argument("--seed", type=int, required=True)
    gc.add_argument("--n-contingencies", type=int, default=None)
    gc.add_argument("--output", required=True)
    gc.set_defaults(func=cmd_gen_case)

    tr = sub.add_parser("train", help="fit a ranking model")
    tr.add_argument("cases", nargs="+", help="case files or globs")
    tr.add_argument("--reg-lambda", type=float, default=1.0)
    tr.add_argument("--eval-time-limit", type=float, default=10.0)
    tr.add_argument("--output", required=True)
    tr.set_defaults(func=cmd_train)

    return p


def main(argv=None):
    _setup_logging()
    parser = build_parser()
    args = parser.parse_args(argv)
    return args.func(args)


if __name__ == "__main__":
    sys.exit(main())
