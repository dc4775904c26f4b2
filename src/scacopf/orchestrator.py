"""Two-phase run orchestration.

Code 1 produces base-case solutions under a hard time limit: preprocess the
case and solve its base case from a flat start (`solve_base`, the one path to a
base point, which ``harness`` and ``train`` take too), rank contingencies,
evaluate them (fast sweep, then full evaluations from the top of the priority
order), select an undominated subset into a master problem, re-solve, and
repeat while time remains.  The product is always the most recently *written*
base solution file.

Code 2 evaluates every contingency against a given base solution under a
per-contingency time budget and writes one solution file per contingency, no
matter what fails.

Both runs account for their time with one `eval._Budget`: code1's
``--time-limit`` and code2's ``factor * |K|`` total.  Budgets are wall-clock
by default; in deterministic mode one second of budget buys a fixed number of
solver iterations, each phase is charged its nominal seconds as whole
operations, and no clock is consulted, so runs are reproducible
byte-for-byte.  Both evaluate contingencies only through `_evaluate`, where
an evaluation that raises is replaced by its priced fallback.

The solution files are `solution_files`'s; its four public functions are
imported here, where code1 and code2 write their files.
"""

from __future__ import annotations

import json
import logging
import math
import os
import time
from dataclasses import dataclass, replace

import numpy as np

from . import eval as eval_mod
from .case_model import Network, preprocess
from .nlp import MAX_ITER, OPTIMAL, TIME_LIMIT, solve_nlp
from .ranking import RidgeModel, rank_initial
from .scopf import (
    MasterSpec,
    OperatingPoint,
    build_base_problem,
    build_master_problem,
    generation_cost,
    reprice,
    slacks_from_state,
)
from .acpf import FlowState
from .select import resort, select_top, summarize_point
from .solution_files import (
    load_base_solution,
    load_contingency_solution,
    write_base_solution,
    write_contingency_solution,
)

__all__ = [
    "RunConfig",
    "Code1Result",
    "Code2Result",
    "flat_start",
    "solve_base",
    "run_code1",
    "run_code2",
    "write_base_solution",
    "load_base_solution",
    "write_contingency_solution",
    "load_contingency_solution",
]

_log = logging.getLogger("scacopf")

# seconds of code1's budget for its fast sweep, and for each full-evaluation
# batch and each refresh
INIT_FAST_EVAL_BUDGET = 60.0
FULL_EVAL_BUDGET = 30.0


@dataclass
class RunConfig:
    code1_time_limit: float = 600.0
    per_contingency_code2_factor: float = 2.0
    n_select: int = 3
    cutoff: float = None  # None -> penalty of a 2e-2 per-unit violation
    deterministic: bool = False
    seed: int = 0
    output_dir: str = "."
    candidate_boost: tuple = ()

    def __post_init__(self):
        for name in ("code1_time_limit", "per_contingency_code2_factor"):
            value = getattr(self, name)
            if not (value > 0 and math.isfinite(value)):
                raise ValueError(f"{name} must be positive and finite")
        if self.n_select < 1:
            raise ValueError("n_select must be >= 1")
        if self.cutoff is not None and not self.cutoff >= 0:
            raise ValueError("cutoff must be a number >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")


@dataclass
class Code1Result:
    base_point: OperatingPoint
    base_tag: int
    objective: float
    penalty: float
    included: list
    solution_path: str
    log_path: str
    iterations: int = 0


@dataclass
class Code2Result:
    results: dict  # contingency id -> EvaluationResult
    files: list
    elapsed: float = 0.0


# --- starting point -----------------------------------------------------------

def flat_start(net: Network) -> OperatingPoint:
    """Flat start: generation at active upper limits with zero reactive
    output, voltages and shunts at bound midpoints, angles and flows at zero;
    slacks absorb whatever residuals that leaves."""
    nb = len(net.buses)
    state = FlowState(
        v=np.array([(b.v_min + b.v_max) / 2 for b in net.buses]),
        theta=np.zeros(nb),
        bcs=np.array([(b.bcs_min + b.bcs_max) / 2 for b in net.buses]),
        p_gen=np.array([g.p_max for g in net.generators]),
        q_gen=np.zeros(len(net.generators)),
        flows=np.zeros((len(net.branches), 4)),
    )
    return slacks_from_state(net, state)


class _RunLog:
    """JSON-lines event log, each event appended to the file as it is
    emitted (with no path, dropped); deterministic mode stamps events with a
    counter instead of the wall clock."""

    def __init__(self, path, deterministic=False):
        self.path = path
        self.deterministic = deterministic
        self.t0 = time.monotonic()
        self.counter = 0
        if path:
            with open(path, "w"):
                pass

    def emit(self, event, **fields):
        self.counter += 1
        stamp = (self.counter if self.deterministic
                 else round(time.monotonic() - self.t0, 6))
        record = {"event": event, "t": stamp, **fields}
        if self.path:
            with open(self.path, "a") as fh:
                fh.write(json.dumps(record) + "\n")


# --- Code 1 -------------------------------------------------------------------

def _wall_limit(budget):
    """A base or master NLP's limit: the run's remaining wall time, at least
    1 s.  Deterministic runs bound them by iterations alone."""
    if budget is None or budget.deterministic:
        return {}
    return {"time_limit": max(1.0, budget.remaining())}


def _solve_fields(sol):
    """Run-log fields of a base or master NLP solve."""
    return dict(status=sol.status, iterations=sol.iterations,
                kkt_error=sol.kkt_error, mu=sol.mu, lus=sol.lus,
                colamd_steps=sol.colamd_steps, gmres_calls=sol.gmres_calls)


def _reprice_base(net, point):
    """Explicit base objective and penalty, with flows and slacks recomputed
    from the stored state so readers recover identical numbers."""
    _, pen = reprice(net, point.state)
    return generation_cost(net, point.state.p_gen) + pen, pen


def solve_base(net: Network, budget=None, log=None, seed=0):
    """Code 1's steps 1-2: preprocess the case and solve its base problem
    from a flat start, and once more from a randomly perturbed start if that
    fails.  With no budget the solves have no time limit.

    Returns the preprocessed network, its preprocessing report, the base
    point, and that point's objective and penalty.
    """
    log = log or _RunLog(None)
    net, report = preprocess(net)
    log.emit("preprocessed", contingencies=len(net.contingencies))
    start = flat_start(net)
    for retry in (False, True):
        if retry:
            log.emit("base-solve-retry", **_solve_fields(sol))
            rng = np.random.default_rng(seed)
            start = start.copy()
            start.state.v = np.clip(
                start.state.v * (1.0 + rng.uniform(-0.01, 0.01,
                                                   size=start.state.v.shape)),
                [b.v_min for b in net.buses], [b.v_max for b in net.buses])
        prob = build_base_problem(net, report, start=start)
        sol = solve_nlp(prob, tol=1e-8, **_wall_limit(budget))
        if sol.status in (OPTIMAL, MAX_ITER, TIME_LIMIT) and np.all(
                np.isfinite(sol.x)) and sol.constraint_violation < 1e-6:
            break
    else:
        if sol.status == TIME_LIMIT:
            raise TimeoutError("time limit reached before a base solution "
                               "could be written")
        raise RuntimeError(
            f"base case solve failed twice (last status: {sol.status})")
    point = prob.meta.extract_base(sol.x)
    objective, penalty = _reprice_base(net, point)
    log.emit("base-solved", objective=objective, penalty=penalty,
             **_solve_fields(sol))
    return net, report, point, objective, penalty


def _evaluate(engine, net, ids, base, seconds, budget, base_tag, **kw):
    """Evaluate the contingencies `ids` at `base` one after another with
    `engine`, each with an equal share of `seconds`, tag each result with
    `base_tag`, and charge `seconds` to the run's budget.  An evaluation that
    raises is replaced by the priced `eval.fallback_result`, so every id gets
    a result."""
    results = []
    for cid in ids:
        k = net.contingency(cid)
        try:
            res = engine(net, k, base, time_limit=seconds / len(ids),
                         deterministic=budget.deterministic, **kw)
        except Exception:
            _log.exception("contingency %s: evaluation failed, using the "
                           "fallback point", cid)
            res = eval_mod.fallback_result(net, k, base)
        res.base_tag = base_tag
        results.append(res)
    budget.spend(seconds)
    return results


def run_code1(net: Network, cfg: RunConfig,
              model: RidgeModel = None) -> Code1Result:
    """Base-case production loop (ranking, evaluation, selection, master)."""
    os.makedirs(cfg.output_dir, exist_ok=True)
    log = _RunLog(os.path.join(cfg.output_dir, "run_log.jsonl"),
                  cfg.deterministic)
    budget = eval_mod._Budget(cfg.code1_time_limit, cfg.deterministic)
    cutoff = cfg.cutoff if cfg.cutoff is not None \
        else eval_mod.default_cutoff(net)

    # Steps 1-2: preprocessing, base solve from a flat start
    net_p, report, base_point, objective, penalty = solve_base(
        net, budget, log, cfg.seed)

    # Step 3: write the first base solution
    tag = 1
    final_path = os.path.join(cfg.output_dir, "base_solution.json")

    def write_tagged(point, obj, pen):
        tagged = os.path.join(cfg.output_dir, f"base_solution_{tag}.json")
        write_base_solution(tagged, net_p, point, tag, obj, pen)
        write_base_solution(final_path, net_p, point, tag, obj, pen)
        log.emit("written", tag=tag)
        return tagged

    write_tagged(base_point, objective, penalty)
    included = []
    master_summaries = []

    if not net_p.contingencies:
        log.emit("done", reason="no-contingencies")
        return Code1Result(base_point, tag, objective, penalty, included,
                           final_path, log.path)

    # Step 4: initial ranking (loading-ratio heuristic when no model given);
    # `order` holds the ids not yet in the master
    order = rank_initial(net_p, base_point, model,
                         candidate_boost=cfg.candidate_boost)
    log.emit("ranked", order=order)

    # each id's latest evaluation; for an id in the master, the master's
    # point and segment state
    latest = {}

    def evaluate(engine, ids, seconds, **kw):
        """Evaluate `ids` at the current base point, record the results and
        re-sort the priority order."""
        nonlocal order
        for res in _evaluate(engine, net_p, ids, base_point, seconds, budget,
                             f"base-{tag}", **kw):
            latest[res.contingency_id] = res
            log.emit("evaluated", contingency=res.contingency_id,
                     penalty=res.penalty, method=res.method,
                     status=res.status, nlp=res.nlp)
        order = resort(order, {c: latest[c].penalty for c in order})
        log.emit("resorted", order=order)

    # Step 5: fast evaluation sweep under its own budget; it gives every id
    # a result
    evaluate(eval_mod.fast_evaluate, order,
             min(INIT_FAST_EVAL_BUDGET, budget.remaining()),
             cutoff=cutoff)

    iteration = 0
    while True:
        iteration += 1
        # Step 6: full evaluations from the top of the order
        batch = min(FULL_EVAL_BUDGET, budget.remaining())
        if order and batch > 0:
            evaluate(eval_mod.full_evaluate, order[:cfg.n_select], batch)

        # Step 7: dominance-aware selection into the master
        summaries = {c: summarize_point(latest[c].point, c, latest[c].base_tag)
                     for c in order}
        chosen = select_top(order, summaries, cfg.n_select,
                            in_master_summaries=master_summaries)
        if not chosen:
            log.emit("done", reason="nothing-to-select")
            break
        order = [c for c in order if c not in chosen]
        included.extend(chosen)
        master_summaries.extend(summaries[c] for c in chosen)
        log.emit("selected", contingencies=chosen)

        # Step 8: solve the master with fixed segments
        master_t0 = time.monotonic()
        spec = MasterSpec(
            net=net_p, included=tuple(included),
            compl={c: latest[c].compl for c in included},
            base_point=base_point,
            ctg_points={c: latest[c].point for c in included},
            report=report,
        )
        mprob = build_master_problem(spec)
        msol = solve_nlp(mprob, tol=1e-6, warm_start=True,
                         **_wall_limit(budget))
        master_duration = time.monotonic() - master_t0
        budget.spend(1.0)  # nominal deterministic charge per master solve
        if not np.all(np.isfinite(msol.x)) or \
                msol.constraint_violation > 1e-4:
            log.emit("master-failed", **_solve_fields(msol))
            break
        base_point = mprob.meta.extract_base(msol.x)
        for c in included:
            point, delta = mprob.meta.extract_ctg(msol.x, c)
            compl = latest[c].compl.copy()
            compl.delta = delta
            latest[c] = replace(latest[c], point=point, compl=compl)
        objective, penalty = _reprice_base(net_p, base_point)
        log.emit("master-solved", objective=objective, penalty=penalty,
                 **_solve_fields(msol))

        # Step 9: write the new base solution
        tag += 1
        write_tagged(base_point, objective, penalty)

        # then, after the master solve, re-evaluate the top of the order
        # against the new base
        if order and budget.remaining() > 0:
            evaluate(eval_mod.prescreen_then_evaluate, order[:cfg.n_select],
                     min(FULL_EVAL_BUDGET, budget.remaining()),
                     cutoff=cutoff)

        # Step 10: loop while a master solve plausibly fits in what remains
        if not order:
            log.emit("done", reason="list-exhausted")
            break
        needed = 2.0 * master_duration if not cfg.deterministic else 2.0
        if budget.remaining() < needed:
            log.emit("done", reason="time-exhausted")
            break

    return Code1Result(base_point, tag, objective, penalty, included,
                       final_path, log.path, iterations=iteration)


# --- Code 2 -------------------------------------------------------------------

def run_code2(net: Network, cfg: RunConfig, base: OperatingPoint,
              base_tag=1, model=None) -> Code2Result:
    """Evaluate every contingency and write one solution file each.

    Contingencies are processed one at a time in reverse initial-ranking
    order; before each evaluation the per-contingency budget is the remaining
    total time (``factor * |K|``) divided by the number of unevaluated
    contingencies, and at least 0.05 s.  A deterministic run charges each
    share as whole operations.
    """
    os.makedirs(cfg.output_dir, exist_ok=True)
    n = len(net.contingencies)
    if n == 0:
        return Code2Result(results={}, files=[], elapsed=0.0)
    budget = eval_mod._Budget(cfg.per_contingency_code2_factor * n,
                              cfg.deterministic)

    order = rank_initial(net, base, model,
                         candidate_boost=cfg.candidate_boost)[::-1]

    cutoff = cfg.cutoff if cfg.cutoff is not None \
        else eval_mod.default_cutoff(net)
    tag_str = f"base-{base_tag}"

    results = {}
    files = []
    for idx, cid in enumerate(order):
        share = max(0.05, budget.remaining() / (n - idx))
        res, = _evaluate(eval_mod.prescreen_then_evaluate, net, [cid], base,
                         share, budget, tag_str, cutoff=cutoff)
        results[cid] = res
        path = os.path.join(cfg.output_dir, f"contingency_{cid}.json")
        write_contingency_solution(path, net, res)
        files.append(path)

    return Code2Result(results=results, files=files,
                       elapsed=budget.elapsed())
