"""Experiment code of the ``harness`` and ``train`` subcommands: the four
ablation tables and the ranking-model fit.

Every base point comes from `orchestrator.solve_base`, code1's base-solve
path, and every budget is a deterministic operation count, so the models and
the tables, but for ``fasteval-ablation``'s measured seconds, do not depend on
the host.  ``cli`` imports this module only inside those two subcommands;
argument checks and output files stay there.
"""

from __future__ import annotations

import time

from . import eval as eval_mod
from . import orchestrator as orch
from .nlp import solve_nlp
from .ranking import extract_features, rank_baseline, rank_initial, train_ridge
from .scopf import MasterSpec, build_master_problem, total_score
from .select import resort, select_top, summarize_point

# budget of each evaluation in seconds, counted as deterministic operations
# (`eval._Budget`): in every table but fasteval-ablation, and in that one
EVAL_TIME_LIMIT, FASTEVAL_TIME_LIMIT = 10.0, 5.0


def _evaluate_all(net, base):
    return {k.id: eval_mod.full_evaluate(net, k, base,
                                         time_limit=EVAL_TIME_LIMIT,
                                         deterministic=True)
            for k in net.contingencies}


def harness_ranking_compare(nets, model=None):
    """Rows: penalty share of the top-``n`` ranked contingencies, per
    heuristic and per considered count ``n``."""
    rows = []
    heuristics = ["l_p", "l_s", "l_c"] + (["ridge"] if model else [])
    acc = {}
    for net in nets:
        net, _, base, _, _ = orch.solve_base(net)
        truth = {c: r.penalty
                 for c, r in _evaluate_all(net, base).items()}
        total = sum(truth.values())
        for h in heuristics:
            order = (rank_initial(net, base, model) if h == "ridge"
                     else rank_baseline(net, base, h))
            for n in range(1, len(order) + 1):
                covered = sum(truth[c] for c in order[:n])
                pct = 100.0 * covered / total if total > 0 else 100.0
                acc.setdefault((n, h), []).append(pct)
    for (n, h), vals in sorted(acc.items()):
        rows.append((n, h, sum(vals) / len(vals)))
    return rows


def harness_compl_ablation(nets):
    """Per contingency: penalty without segment updates over penalty with."""
    rows = []
    for ci, net in enumerate(nets):
        net, _, base, _, _ = orch.solve_base(net)
        for k in net.contingencies:
            with_upd = eval_mod.full_evaluate(net, k, base,
                                              time_limit=EVAL_TIME_LIMIT,
                                              deterministic=True)
            without = eval_mod.full_evaluate(net, k, base,
                                             time_limit=EVAL_TIME_LIMIT,
                                             deterministic=True,
                                             segment_updates=False)
            denom = max(with_upd.penalty, 1e-12)
            ratio = max(without.penalty, with_upd.penalty) / denom \
                if with_upd.penalty > 1e-12 else (
                    1.0 if without.penalty <= 1e-12 else float("inf"))
            rows.append((ci, k.id, without.penalty, with_upd.penalty, ratio))
    return rows


def harness_fasteval_ablation(nets):
    """Per case: share of contingencies the fast engine screens out below
    the cutoff, and the fast/full wall time."""
    rows = []
    for ci, net in enumerate(nets):
        net, _, base, _, _ = orch.solve_base(net)
        cutoff = eval_mod.default_cutoff(net)
        n = len(net.contingencies)
        screened = 0
        t_fast = t_full = 0.0
        for k in net.contingencies:
            t0 = time.monotonic()
            fast = eval_mod.fast_evaluate(net, k, base,
                                          time_limit=FASTEVAL_TIME_LIMIT,
                                          cutoff=cutoff, deterministic=True)
            t_fast += time.monotonic() - t0
            if fast.penalty <= cutoff:
                screened += 1
            t0 = time.monotonic()
            eval_mod.full_evaluate(net, k, base,
                                   time_limit=FASTEVAL_TIME_LIMIT,
                                   deterministic=True)
            t_full += time.monotonic() - t0
        pct = 100.0 * screened / n if n else 100.0
        rows.append((ci, n, pct, round(t_fast, 4), round(t_full, 4)))
    return rows


def harness_selection_ablation(nets, n_select=3):
    """Scores of one master pass under dominance-aware versus penalty-only
    contingency selection."""
    rows = []
    for ci, net in enumerate(nets):
        net, report, base, _, _ = orch.solve_base(net)
        results = _evaluate_all(net, base)
        summaries = {cid: summarize_point(r.point, cid, "base-1")
                     for cid, r in results.items()}
        order = resort(rank_baseline(net, base, "l_c"),
                       {c: r.penalty for c, r in results.items()})
        schemes = {
            "dominance": select_top(order, summaries, n_select),
            "penalty-only": order[:n_select],
        }
        for name, chosen in schemes.items():
            if not chosen:
                rows.append((ci, name, total_score(
                    net, base, {c: r.penalty for c, r in results.items()})))
                continue
            spec = MasterSpec(
                net=net, included=tuple(chosen),
                compl={c: results[c].compl for c in chosen},
                base_point=base,
                ctg_points={c: results[c].point for c in chosen},
                report=report)
            mprob = build_master_problem(spec)
            sol = solve_nlp(mprob, tol=1e-6, warm_start=True)
            new_base = mprob.meta.extract_base(sol.x)
            pens = {c: r.penalty for c, r in
                    _evaluate_all(net, new_base).items()}
            rows.append((ci, name, total_score(net, new_base, pens)))
    return rows


def table(mode, nets, model=None, n_select=3):
    """Rows of the ``mode`` ablation table over ``nets``; a base solve that
    fails twice raises RuntimeError."""
    if mode == "ranking-compare":
        return harness_ranking_compare(nets, model)
    if mode == "compl-ablation":
        return harness_compl_ablation(nets)
    if mode == "fasteval-ablation":
        return harness_fasteval_ablation(nets)
    return harness_selection_ablation(nets, n_select=n_select)


def train(nets, eval_time_limit, reg_lambda):
    """Ridge ranking model fit to each contingency's full-evaluation penalty
    at its case's solved base; a base solve that fails twice raises
    RuntimeError."""
    samples = []
    for net in nets:
        net, _, base, _, _ = orch.solve_base(net)
        for k in net.contingencies:
            feats = extract_features(net, k, base)
            label = eval_mod.full_evaluate(
                net, k, base, time_limit=eval_time_limit,
                deterministic=True).penalty
            samples.append((feats, label))
    return train_ridge(samples, reg_lambda=reg_lambda)
