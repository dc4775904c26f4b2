"""Contingency ranking: features, ridge-regression predictor, priority orders.

Each contingency maps to ten features (type one-hots, lost active/apparent
power, capacity-relative loss, voltage rating, bus degrees, parallel-branch
weight) extracted from the network topology and the base-case solution.  A
ridge regression over these features predicts the contingency's penalty; the
descending prediction order is the initial priority ranking.  Three
single-feature baselines are provided for comparison.
"""

from __future__ import annotations

import json
import math
from dataclasses import dataclass
from operator import attrgetter

import numpy as np

from .acpf import CaseLayout
from .case_model import Network

__all__ = [
    "FeatureVector",
    "RidgeModel",
    "FEATURE_NAMES",
    "extract_features",
    "train_ridge",
    "rank_initial",
    "rank_baseline",
    "save_model",
    "load_model",
]

FEATURE_NAMES = ("t_g", "t_l", "t_t", "l_p", "l_s", "l_c",
                 "v_d", "d_o", "d_d", "pi")
PARALLEL_WEIGHT = 10.0


@dataclass(frozen=True)
class FeatureVector:
    t_g: float
    t_l: float
    t_t: float
    l_p: float
    l_s: float
    l_c: float
    v_d: float
    d_o: float
    d_d: float
    pi: float

    def as_array(self):
        return np.array([getattr(self, n) for n in FEATURE_NAMES])


@dataclass
class RidgeModel:
    weights: np.ndarray  # one per feature, FEATURE_NAMES order
    intercept: float
    reg_lambda: float

    def predict(self, features: FeatureVector):
        return float(self.weights @ features.as_array() + self.intercept)


def _topology(net):
    """(branch position by id, bus degrees, highest base kV over each bus and
    its neighbours, parallel-branch flags), compiled once per network into
    its base layout's `compiled`."""
    lay = CaseLayout.of(net)
    if "topology" not in lay.compiled:
        kv = np.array([b.base_kv for b in net.buses])
        kv_near = kv.copy()
        np.maximum.at(kv_near, lay.o, kv[lay.d])
        np.maximum.at(kv_near, lay.d, kv[lay.o])
        _, pair, count = np.unique(np.sort(lay.ends, axis=1), axis=0,
                                   return_inverse=True, return_counts=True)
        lay.compiled["topology"] = (
            {br.id: bi for bi, br in lay.in_service},
            np.bincount(lay.ends.ravel(), minlength=lay.nb),
            kv_near,
            count[pair.ravel()] > 1)
    return lay.compiled["topology"]


def extract_features(net: Network, k, base) -> FeatureVector:
    position, degree, kv_near, parallel = _topology(net)
    if k.kind == "generator-outage":
        gi = net.gen_index(k.outaged)
        g = net.generators[gi]
        p = abs(float(base.state.p_gen[gi]))
        q = abs(float(base.state.q_gen[gi]))
        l_s = math.hypot(p, q)
        cap = math.hypot(g.p_max, g.q_max)
        l_c = l_s / cap if cap > 0 else 0.0
        bus = net.bus_index(g.bus)
        return FeatureVector(
            t_g=1.0, t_l=0.0, t_t=0.0, l_p=p, l_s=l_s, l_c=l_c,
            v_d=float(kv_near[bus]), d_o=float(degree[bus]), d_d=0.0, pi=0.0,
        )
    lay = CaseLayout.of(net)
    bi = position[k.outaged]
    o, d, is_line = lay.o[bi], lay.d[bi], lay.is_line[bi]
    p_o, q_o, p_d, q_d = np.abs(base.state.flows[bi])
    s_o = math.hypot(p_o, q_o)
    s_d = math.hypot(p_d, q_d)
    # the rating base of `CaseLayout.ratings`: rate * v at the end for a line
    den_o, den_d = lay.rate[bi] * (base.state.v[[o, d]] if is_line else np.ones(2))
    l_c = max(
        math.sqrt(s_o * s_o / den_o) if den_o > 0 else 0.0,
        math.sqrt(s_d * s_d / den_d) if den_d > 0 else 0.0,
    )
    return FeatureVector(
        t_g=0.0, t_l=1.0 if is_line else 0.0, t_t=0.0 if is_line else 1.0,
        l_p=max(p_o, p_d), l_s=max(s_o, s_d), l_c=l_c,
        v_d=net.buses[d].base_kv, d_o=float(degree[o]), d_d=float(degree[d]),
        pi=PARALLEL_WEIGHT if parallel[bi] else 0.0,
    )


def _ridge_closed_form(X, y, reg_lambda):
    """Standardized closed-form ridge with unpenalized intercept, returned in
    the original feature scale."""
    x_mean = X.mean(axis=0)
    x_std = X.std(axis=0)
    varying = x_std > 0  # constant columns carry no signal; weight 0
    Xs = (X[:, varying] - x_mean[varying]) / x_std[varying]
    y_mean = y.mean()
    ys = y - y_mean
    p = int(varying.sum())
    A = Xs.T @ Xs + reg_lambda * np.eye(p)
    if reg_lambda == 0.0 and (p == 0 or np.linalg.matrix_rank(A) < p):
        raise ValueError("degenerate design matrix with reg_lambda=0; "
                         "use a positive reg_lambda")
    w_std = np.linalg.solve(A, Xs.T @ ys) if p else np.zeros(0)
    weights = np.zeros(X.shape[1])
    weights[varying] = w_std / x_std[varying]
    intercept = y_mean - float(weights @ x_mean)
    return weights, intercept


def train_ridge(samples, reg_lambda=1.0) -> RidgeModel:
    """Closed-form ridge fit of the penalties on the feature vectors."""
    if len(samples) < 2:
        raise ValueError("need at least 2 samples")
    if not (reg_lambda >= 0 and math.isfinite(reg_lambda)):
        raise ValueError("reg_lambda must be finite and nonnegative")
    X = np.array([fv.as_array() for fv, _ in samples])
    y = np.array([float(pen) for _, pen in samples])
    weights, intercept = _ridge_closed_form(X, y, reg_lambda)
    return RidgeModel(weights=weights, intercept=intercept,
                      reg_lambda=reg_lambda)


def _order(scores, boosted=frozenset()):
    """Priority order of the ids of ``scores`` (id -> score): boosted ids
    first, each group by descending score then ascending id."""
    return sorted(scores,
                  key=lambda cid: (cid not in boosted, -scores[cid], cid))


def rank_initial(net: Network, base, model: RidgeModel = None,
                 candidate_boost=frozenset()) -> list:
    """Initial priority order of the contingency ids: by the model's
    predicted penalty, or by the loading ratio ``l_c`` without a model;
    `candidate_boost` ids first."""
    score = model.predict if model is not None else attrgetter("l_c")
    return _order({k.id: score(extract_features(net, k, base))
                   for k in net.contingencies}, frozenset(candidate_boost))


def rank_baseline(net: Network, base, heuristic) -> list:
    if heuristic not in ("l_p", "l_s", "l_c"):
        raise ValueError(f"unknown heuristic {heuristic!r}")
    return _order({k.id: getattr(extract_features(net, k, base), heuristic)
                   for k in net.contingencies})


def save_model(model: RidgeModel, path):
    with open(path, "w") as fh:
        json.dump({
            "weights": [float(w) for w in model.weights],
            "intercept": float(model.intercept),
            "reg_lambda": float(model.reg_lambda),
        }, fh, indent=2)
        fh.write("\n")


def load_model(path) -> RidgeModel:
    """The model that `save_model` wrote to path; ValueError, naming the
    file, for a document that is not one."""
    with open(path) as fh:
        data = json.load(fh)
    if not (isinstance(data, dict)
            and all(key in data for key in ("weights", "intercept", "reg_lambda"))):
        raise ValueError(f"{path}: a model file is a JSON object with "
                         "weights, intercept and reg_lambda")
    try:
        weights = np.asarray(data["weights"], dtype=float)
        model = RidgeModel(weights=weights, intercept=float(data["intercept"]),
                           reg_lambda=float(data["reg_lambda"]))
    except (TypeError, ValueError) as exc:  # a field that is not a number
        raise ValueError(f"{path}: {exc}") from None
    if weights.shape != (len(FEATURE_NAMES),):
        raise ValueError(f"{path}: model weight vector must have "
                         f"{len(FEATURE_NAMES)} entries")
    if not (np.all(np.isfinite(weights)) and math.isfinite(model.intercept)
            and math.isfinite(model.reg_lambda)):
        raise ValueError(f"{path}: model weights, intercept and reg_lambda "
                         "must be finite")
    return model
