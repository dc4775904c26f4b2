"""Per-layer tracing of the ``scacopf`` package, installed from outside.

``install`` replaces each traced function at every name a ``scacopf`` module
binds it under (``orchestrator`` and ``eval`` both import ``solve_nlp`` by
name, so patching ``scacopf.nlp`` alone would miss their calls), wraps the
``_SquareSystem`` residual and Jacobian methods, and wraps the callbacks of
every ``NlpProblem`` the ``scopf`` builders return.  Nothing in ``src/``
changes.  ``layer_metrics`` turns the recorded spans into the per-layer
metrics of ``BENCHMARK.json``.
"""

from __future__ import annotations

import importlib
from collections import defaultdict

from spans import self_times

MODULES = ("case_model", "acpf", "nlp", "scopf", "compl", "eval", "select",
           "ranking", "orchestrator", "cli")
KINDS = ("base", "ctg", "master")
BUILDERS = {"build_base_problem": "base", "build_contingency_problem": "ctg",
            "build_master_problem": "master"}
CALLBACKS = {"objective": "obj", "gradient": "obj", "eq": "eq", "ineq": "ineq",
             "jac_eq": "jac", "jac_ineq": "jac", "hess": "hess"}
# (module, function) -> span name, for spans that need no result attrs
PLAIN = {
    ("eval", "prescreen_then_evaluate"): "eval.prescreen",
    ("compl", "project_response"): "compl.project_response",
    ("compl", "update_segments"): "compl.update_segments",
    ("orchestrator", "run_code1"): "orchestrator.run_code1",
    ("orchestrator", "run_code2"): "orchestrator.run_code2",
    ("orchestrator", "write_base_solution"): "orchestrator.write",
    ("orchestrator", "write_contingency_solution"): "orchestrator.write",
    ("orchestrator", "load_base_solution"): "orchestrator.load",
    ("orchestrator", "load_contingency_solution"): "orchestrator.load",
    ("case_model", "load_case"): "case_model.load_case",
    ("case_model", "preprocess"): "case_model.preprocess",
    ("ranking", "rank_baseline"): "ranking.rank",
    ("ranking", "rank_initial"): "ranking.rank",
    ("select", "select_top"): "select.select_top",
    ("select", "resort"): "select.resort",
    ("cli", "cmd_code1"): "cli.code1",
    ("cli", "cmd_code2"): "cli.code2",
    ("cli", "cmd_score"): "cli.score",
}
KIND_ATTR = "_perfbench_kind"


def _status_attrs(res):
    return {"status": res.status}


def install(tracer):
    """Wrap the traced ``scacopf`` functions so calls record spans."""
    mods = {m: importlib.import_module(f"scacopf.{m}") for m in MODULES}
    wrappers = {}  # id(original) -> (original, wrapper)

    def plan(module, name, wrapper):
        original = getattr(mods[module], name)
        wrappers[id(original)] = (original, wrapper)

    for (module, name), span in PLAIN.items():
        plan(module, name, tracer.wrap(span, getattr(mods[module], name)))
    for name, span in (("fast_evaluate", "eval.fast"),
                       ("full_evaluate", "eval.full")):
        plan("eval", name, tracer.wrap(span, getattr(mods["eval"], name),
                                       _status_attrs))
    plan("nlp", "solve_square", tracer.wrap(
        "nlp.square", mods["nlp"].solve_square,
        lambda res: {"iterations": res.iterations}))

    original_solve = mods["nlp"].solve_nlp

    def solve_nlp(prob, *args, **kwargs):
        kind = getattr(prob, KIND_ATTR, "other")
        traced = tracer.wrap(f"nlp.{kind}", original_solve, lambda sol: {
            "iterations": sol.iterations,
            "kkt_dim": prob.n + prob.n_eq + prob.n_ineq,
            "not_optimal": int(sol.status != "optimal")})
        return traced(prob, *args, **kwargs)

    plan("nlp", "solve_nlp", solve_nlp)

    for name, kind in BUILDERS.items():
        plan("scopf", name, _traced_builder(tracer, kind,
                                            getattr(mods["scopf"], name)))

    for mod in mods.values():
        for attr, value in list(vars(mod).items()):
            hit = wrappers.get(id(value))
            if hit is not None and hit[0] is value:
                setattr(mod, attr, hit[1])

    square = mods["eval"]._SquareSystem
    square.residual = tracer.wrap("eval.square.residual", square.residual)
    square.jacobian = tracer.wrap("eval.square.jacobian", square.jacobian)


def _traced_builder(tracer, kind, builder):
    def build(*args, **kwargs):
        tracer.open(f"scopf.{kind}.build")
        try:
            prob = builder(*args, **kwargs)
            for field, short in CALLBACKS.items():
                setattr(prob, field, tracer.wrap(
                    f"scopf.{kind}.{short}", getattr(prob, field)))
            setattr(prob, KIND_ATTR, kind)
            return prob
        finally:
            tracer.close()

    return build


# --- per-layer metrics -------------------------------------------------------

LAYERS = ("cli", "orchestrator", "case_model", "ranking", "select", "eval",
          "compl", "scopf", "nlp", "bench")


def _metric_specs():
    """(metric name, unit, span name, field) in reporting order."""
    specs = []
    for kind in KINDS:
        span = f"nlp.{kind}"
        specs += [(f"{span}.calls", "count", span, "calls"),
                  (f"{span}.s", "s", span, "s"),
                  (f"{span}.self_s", "s", span, "self_s"),
                  (f"{span}.iterations", "count", span, "iterations"),
                  (f"{span}.kkt_dim", "rows", span, "kkt_dim"),
                  (f"{span}.not_optimal", "count", span, "not_optimal")]
    for kind in KINDS:
        specs.append((f"scopf.{kind}.build_s", "s", f"scopf.{kind}.build",
                      "s"))
        for short in ("obj", "eq", "ineq", "jac", "hess"):
            specs.append((f"scopf.{kind}.{short}_s", "s",
                          f"scopf.{kind}.{short}", "s"))
        specs.append((f"scopf.{kind}.jac_calls_per_iter", "ratio",
                      f"scopf.{kind}.jac", "per_iter"))
    specs += [
        ("nlp.square.calls", "count", "nlp.square", "calls"),
        ("nlp.square.iterations", "count", "nlp.square", "iterations"),
        ("nlp.square.s", "s", "nlp.square", "s"),
        ("nlp.square.self_s", "s", "nlp.square", "self_s"),
        ("eval.square.jacobian.calls", "count", "eval.square.jacobian",
         "calls"),
        ("eval.square.jacobian.s", "s", "eval.square.jacobian", "s"),
        ("eval.square.residual.calls", "count", "eval.square.residual",
         "calls"),
        ("eval.square.residual.s", "s", "eval.square.residual", "s"),
        ("eval.fast.calls", "count", "eval.fast", "calls"),
        ("eval.fast.s", "s", "eval.fast", "s"),
        ("eval.fast.self_s", "s", "eval.fast", "self_s"),
        ("eval.full.calls", "count", "eval.full", "calls"),
        ("eval.full.s", "s", "eval.full", "s"),
        ("eval.prescreen.calls", "count", "eval.prescreen", "calls"),
        ("compl.project_response.calls", "count", "compl.project_response",
         "calls"),
        ("compl.project_response.s", "s", "compl.project_response", "s"),
        ("compl.update_segments.calls", "count", "compl.update_segments",
         "calls"),
        ("compl.update_segments.s", "s", "compl.update_segments", "s"),
        ("orchestrator.run_code1.s", "s", "orchestrator.run_code1", "s"),
        ("orchestrator.run_code2.s", "s", "orchestrator.run_code2", "s"),
        ("orchestrator.write.calls", "count", "orchestrator.write", "calls"),
        ("orchestrator.write.s", "s", "orchestrator.write", "s"),
        ("orchestrator.load.s", "s", "orchestrator.load", "s"),
        ("case_model.load_case.s", "s", "case_model.load_case", "s"),
        ("case_model.preprocess.s", "s", "case_model.preprocess", "s"),
        ("ranking.rank.calls", "count", "ranking.rank", "calls"),
        ("ranking.rank.s", "s", "ranking.rank", "s"),
        ("select.select_top.s", "s", "select.select_top", "s"),
        ("select.resort.s", "s", "select.resort", "s"),
        ("cli.score.s", "s", "cli.score", "s"),
    ]
    return specs


# Metrics that are not a field of one span name.
DERIVED = [("eval.escalated.ratio", "ratio"), ("eval.degraded.count", "count"),
           ("eval.fallback.count", "count")] + [
    (f"layer.{layer}.self_s", "s") for layer in LAYERS]

NAMES = [name for name, *_ in _metric_specs()] + [n for n, _ in DERIVED]


def layer_metrics(spans):
    """Per-layer metrics from the spans of one traced run (all processes'
    spans concatenated, each list with its own parent indices)."""
    stats = defaultdict(lambda: defaultdict(float))
    per_layer = defaultdict(float)
    escalated = degraded = fallback = 0
    for process_spans in spans:
        selfs = self_times(process_spans)
        for (name, start, end, parent, attrs), own in zip(process_spans,
                                                          selfs):
            st = stats[name]
            st["calls"] += 1
            st["s"] += end - start
            st["self_s"] += own
            per_layer[name.split(".", 1)[0]] += own
            for key, value in (attrs or {}).items():
                if key == "kkt_dim":
                    st[key] = max(st[key], value)
                elif key == "status":
                    degraded += value == "degraded"
                    fallback += value == "fallback"
                else:
                    st[key] += value
            if name == "eval.full" and parent >= 0 \
                    and process_spans[parent][0] == "eval.prescreen":
                escalated += 1
    for kind in KINDS:
        iters = stats[f"nlp.{kind}"]["iterations"]
        jac = stats[f"scopf.{kind}.jac"]
        jac["per_iter"] = jac["calls"] / iters if iters else 0.0
    out = {}
    for name, unit, span, field in _metric_specs():
        value = stats[span][field]
        out[name] = (int(value) if unit in ("count", "rows") else value, unit)
    prescreens = stats["eval.prescreen"]["calls"]
    out["eval.escalated.ratio"] = (
        escalated / prescreens if prescreens else 0.0, "ratio")
    out["eval.degraded.count"] = (degraded, "count")
    out["eval.fallback.count"] = (fallback, "count")
    for layer in LAYERS:
        out[f"layer.{layer}.self_s"] = (per_layer[layer], "s")
    return out
