"""Tests for contingency features, ridge training, and priority rankings."""

import math

import numpy as np
import pytest

from conftest import make_bus, make_gen, make_line, make_xf

from scacopf import nlp, ranking, scopf
from scacopf.case_model import Contingency, Line, Network, PenaltyConfig
from scacopf.cli import generate_case
from scacopf.ranking import (
    FEATURE_NAMES,
    FeatureVector,
    RidgeModel,
    extract_features,
    load_model,
    rank_baseline,
    rank_initial,
    save_model,
    train_ridge,
)


def fv(**kw):
    base = {n: 0.0 for n in FEATURE_NAMES}
    base.update(kw)
    return FeatureVector(**base)


def ranked_net():
    """Two generators with different outputs, parallel lines, a transformer."""
    buses = (
        make_bus("B1", base_kv=115.0),
        make_bus("B2", p_load=0.9, q_load=0.3, base_kv=230.0),
        make_bus("B3", p_load=0.3, q_load=0.1, base_kv=34.5),
    )
    gens = (
        make_gen("G1", "B1", p_max=1.0, q_max=1.0),
        make_gen("G2", "B3", p_max=1.0, q_max=1.0),
    )
    lines = (
        make_line("L1", "B1", "B2"),
        make_line("L2", "B1", "B2"),   # parallel counterpart of L1
        make_line("L3", "B2", "B3"),
    )
    xfs = (make_xf("T1", "B1", "B3"),)
    ctgs = (
        Contingency("KG1", "generator-outage", "G1", ("G2",)),
        Contingency("KG2", "generator-outage", "G2", ("G1",)),
        Contingency("KL1", "line-outage", "L1", ("G1", "G2")),
        Contingency("KT1", "transformer-outage", "T1", ("G1", "G2")),
    )
    return Network(buses=buses, generators=gens, lines=lines,
                   transformers=xfs, contingencies=ctgs,
                   penalty_config=PenaltyConfig(), reference_bus="B1")


@pytest.fixture(scope="module")
def rnet():
    net = ranked_net()
    base = scopf.default_start(net)
    base.state.p_gen[:] = (0.6, 0.5)
    base.state.q_gen[:] = (0.8, 0.1)
    return net, base


# --- feature extraction -------------------------------------------------------

def test_generator_features_hand_example(rnet):
    net, base = rnet
    f = extract_features(net, net.contingency("KG1"), base)
    assert (f.t_g, f.t_l, f.t_t) == (1.0, 0.0, 0.0)
    assert f.l_p == pytest.approx(0.6)
    assert f.l_s == pytest.approx(1.0)
    assert f.l_c == pytest.approx(1.0 / math.sqrt(2.0))
    assert f.d_d == 0.0 and f.pi == 0.0


def test_generator_v_d_max_over_bus_and_neighbors(rnet):
    net, base = rnet
    # G1 at B1 (115 kV); neighbors B2 (230) and B3 (34.5)
    f = extract_features(net, net.contingency("KG1"), base)
    assert f.v_d == pytest.approx(230.0)
    assert f.d_o == 3.0  # L1, L2 and T1 end at B1


def test_line_features_parallel_and_flows(rnet):
    net, base = rnet
    bi = next(i for i, b in enumerate(net.branches) if b.id == "L1")
    base.state.flows[bi] = (0.3, 0.4, -0.28, -0.35)
    f = extract_features(net, net.contingency("KL1"), base)
    assert (f.t_g, f.t_l, f.t_t) == (0.0, 1.0, 0.0)
    assert f.pi == 10.0
    assert f.l_p == pytest.approx(0.3)
    assert f.l_s == pytest.approx(0.5)  # hypot(0.3, 0.4)
    # line capacity-relative loss: max over ends of sqrt(s^2 / (r_max * v))
    line = net.branches[bi]
    v_o = base.state.v[net.bus_index("B1")]
    v_d = base.state.v[net.bus_index("B2")]
    s_o2 = 0.3 ** 2 + 0.4 ** 2
    s_d2 = 0.28 ** 2 + 0.35 ** 2
    expect = max(math.sqrt(s_o2 / (line.r_max * v_o)),
                 math.sqrt(s_d2 / (line.r_max * v_d)))
    assert f.l_c == pytest.approx(expect)
    assert f.v_d == pytest.approx(230.0)  # destination bus rating


def test_transformer_features(rnet):
    net, base = rnet
    bi = next(i for i, b in enumerate(net.branches) if b.id == "T1")
    base.state.flows[bi] = (0.1, 0.2, -0.1, -0.15)
    f = extract_features(net, net.contingency("KT1"), base)
    assert (f.t_g, f.t_l, f.t_t) == (0.0, 0.0, 1.0)
    assert f.pi == 0.0  # no second B1-B3 branch
    xf = net.branches[bi]
    expect = math.sqrt((0.1 ** 2 + 0.2 ** 2) / xf.s_max)
    assert f.l_c == pytest.approx(expect)
    assert f.v_d == pytest.approx(34.5)


def test_feature_extraction_is_pure(rnet):
    net, base = rnet
    a = extract_features(net, net.contingency("KL1"), base)
    b = extract_features(net, net.contingency("KL1"), base)
    assert a == b
    np.testing.assert_array_equal(a.as_array(), b.as_array())


# Reference: feature extraction written with per-contingency scans of the
# `Network` objects, the form that `extract_features` replaced.

def _ref_bus_degree(net, bus_id):
    return sum(1 for br in net.branches
               if br.origin == bus_id or br.destination == bus_id)


def _ref_neighbors(net, bus_id):
    out = set()
    for br in net.branches:
        if br.origin == bus_id:
            out.add(br.destination)
        elif br.destination == bus_id:
            out.add(br.origin)
    return out


def _ref_branch_feature_parts(net, br, base):
    bi = net.branches.index(br)
    p_o, q_o, p_d, q_d = np.abs(base.state.flows[bi])
    s_o = math.hypot(p_o, q_o)
    s_d = math.hypot(p_d, q_d)
    o = net.bus_index(br.origin)
    d = net.bus_index(br.destination)
    if isinstance(br, Line):
        den_o = br.r_max * base.state.v[o]
        den_d = br.r_max * base.state.v[d]
    else:
        den_o = den_d = br.s_max
    l_c = max(
        math.sqrt(s_o * s_o / den_o) if den_o > 0 else 0.0,
        math.sqrt(s_d * s_d / den_d) if den_d > 0 else 0.0,
    )
    return max(p_o, p_d), max(s_o, s_d), l_c, o, d


def _ref_has_parallel(net, br):
    pair = frozenset((br.origin, br.destination))
    return any(other is not br
               and frozenset((other.origin, other.destination)) == pair
               for other in net.branches)


def _ref_extract_features(net, k, base):
    if k.kind == "generator-outage":
        g = net.generators[net.gen_index(k.outaged)]
        gi = net.gen_index(k.outaged)
        p = abs(float(base.state.p_gen[gi]))
        q = abs(float(base.state.q_gen[gi]))
        l_s = math.hypot(p, q)
        cap = math.hypot(g.p_max, g.q_max)
        l_c = l_s / cap if cap > 0 else 0.0
        bus = g.bus
        kvs = [net.buses[net.bus_index(b)].base_kv
               for b in [bus] + list(_ref_neighbors(net, bus))]
        return FeatureVector(
            t_g=1.0, t_l=0.0, t_t=0.0, l_p=p, l_s=l_s, l_c=l_c,
            v_d=max(kvs), d_o=float(_ref_bus_degree(net, bus)), d_d=0.0,
            pi=0.0,
        )
    br = next(b for b in net.branches if b.id == k.outaged)
    l_p, l_s, l_c, o, d = _ref_branch_feature_parts(net, br, base)
    is_line = isinstance(br, Line)
    return FeatureVector(
        t_g=0.0, t_l=1.0 if is_line else 0.0, t_t=0.0 if is_line else 1.0,
        l_p=l_p, l_s=l_s, l_c=l_c,
        v_d=net.buses[d].base_kv,
        d_o=float(_ref_bus_degree(net, br.origin)),
        d_d=float(_ref_bus_degree(net, br.destination)),
        pi=ranking.PARALLEL_WEIGHT if _ref_has_parallel(net, br) else 0.0,
    )


def _assert_features_equal_reference(net, base):
    every_branch = [
        Contingency(f"K{br.id}", "line-outage" if isinstance(br, Line)
                    else "transformer-outage", br.id)
        for br in net.branches]
    for k in net.contingencies + tuple(every_branch):
        new = extract_features(net, k, base).as_array()
        ref = _ref_extract_features(net, k, base).as_array()
        assert new.tobytes() == ref.tobytes(), k.id


@pytest.mark.parametrize("n_bus", [5, 14, 30, 118])
def test_features_equal_the_network_scan_reference(n_bus):
    net = generate_case(n_bus, seed=n_bus)
    rng = np.random.default_rng(n_bus)
    base = scopf.default_start(net)
    st = base.state
    st.v[:] = rng.uniform(0.9, 1.1, len(st.v))
    st.p_gen[:] = rng.normal(0.0, 1.0, len(st.p_gen))
    st.q_gen[:] = rng.normal(0.0, 1.0, len(st.q_gen))
    st.flows[:] = rng.normal(0.0, 1.0, st.flows.shape)
    _assert_features_equal_reference(net, base)


def test_features_equal_the_reference_with_parallel_branches(rnet):
    _assert_features_equal_reference(*rnet)


# --- ridge training -----------------------------------------------------------

def test_ridge_exact_interpolation_lambda_zero():
    samples = [(fv(l_p=1.0), 2.0), (fv(l_p=3.0), 6.0)]
    model = train_ridge(samples, reg_lambda=0.0)
    idx = FEATURE_NAMES.index("l_p")
    assert model.weights[idx] == pytest.approx(2.0, abs=1e-10)
    assert model.intercept == pytest.approx(0.0, abs=1e-10)
    others = np.delete(model.weights, idx)
    np.testing.assert_allclose(others, 0.0, atol=1e-12)


def test_ridge_infinite_lambda_limit():
    samples = [(fv(l_p=1.0, l_s=2.0), 5.0), (fv(l_p=3.0, l_s=1.0), 11.0),
               (fv(l_p=2.0, l_s=9.0), 2.0)]
    model = train_ridge(samples, reg_lambda=1e14)
    np.testing.assert_allclose(model.weights, 0.0, atol=1e-8)
    assert model.intercept == pytest.approx(6.0, abs=1e-6)


def test_ridge_matches_dense_oracle(rng):
    # independent dense oracle: standardize, solve (X'X + lambda I) w = X'y,
    # unstandardize, fold the intercept back
    X = rng.normal(size=(3, len(FEATURE_NAMES)))
    y = rng.normal(size=3)
    samples = [(FeatureVector(*row), yi) for row, yi in zip(X, y)]
    lam = 0.7
    model = train_ridge(samples, reg_lambda=lam)

    mu, sd = X.mean(axis=0), X.std(axis=0)
    Xs = (X - mu) / sd
    w_std = np.linalg.inv(Xs.T @ Xs + lam * np.eye(X.shape[1])) \
        @ (Xs.T @ (y - y.mean()))
    w = w_std / sd
    b = y.mean() - w @ mu
    np.testing.assert_allclose(model.weights, w, atol=1e-8)
    assert model.intercept == pytest.approx(b, abs=1e-8)


def test_ridge_degenerate_design_errors():
    samples = [(fv(l_p=1.0, l_s=2.0), 1.0), (fv(l_p=2.0, l_s=4.0), 2.0),
               (fv(l_p=3.0, l_s=6.0), 3.0)]  # l_s = 2 l_p: collinear
    with pytest.raises(ValueError, match="reg_lambda"):
        train_ridge(samples, reg_lambda=0.0)


def test_ridge_too_few_samples():
    with pytest.raises(ValueError):
        train_ridge([(fv(l_p=1.0), 1.0)])


@pytest.mark.parametrize("lam", [-1.0, math.nan, math.inf])
def test_ridge_rejects_invalid_reg_lambda(lam):
    # NaN and inf fitted a model of NaN weights
    samples = [(fv(l_p=1.0), 1.0), (fv(l_p=2.0), 2.0)]
    with pytest.raises(ValueError, match="reg_lambda"):
        train_ridge(samples, reg_lambda=lam)


# --- rankings -----------------------------------------------------------------

def constant_prediction_model(per_feature):
    w = np.zeros(len(FEATURE_NAMES))
    for name, val in per_feature.items():
        w[FEATURE_NAMES.index(name)] = val
    return RidgeModel(weights=w, intercept=0.0, reg_lambda=1.0)


def test_rank_initial_descending(rnet):
    net, base = rnet
    model = constant_prediction_model({"t_g": 1.0, "l_p": 1.0})
    order = rank_initial(net, base, model)
    preds = {k.id: model.predict(extract_features(net, k, base))
             for k in net.contingencies}
    assert order == sorted(order, key=lambda c: (-preds[c], c))
    assert set(order) == {k.id for k in net.contingencies}


def test_rank_initial_candidate_boost(rnet):
    net, base = rnet
    model = constant_prediction_model({"t_g": 1.0, "l_p": 1.0})
    order = rank_initial(net, base, model, candidate_boost={"KT1"})
    assert order[0] == "KT1"
    no_boost = [c for c in rank_initial(net, base, model) if c != "KT1"]
    assert order[1:] == no_boost


def test_rank_initial_ties_ascending_id(rnet):
    net, base = rnet
    model = RidgeModel(weights=np.zeros(len(FEATURE_NAMES)), intercept=7.0,
                       reg_lambda=1.0)
    ids = rank_initial(net, base, model)
    assert ids == sorted(ids)


def test_rank_initial_affine_invariance(rnet):
    net, base = rnet
    model = constant_prediction_model({"l_s": 2.0, "d_o": 0.3})
    scaled = RidgeModel(weights=model.weights * 5.0,
                        intercept=model.intercept * 5.0 + 100.0,
                        reg_lambda=1.0)
    assert rank_initial(net, base, model) == rank_initial(net, base, scaled)


def test_rank_baseline_l_p(rnet):
    net, base = rnet
    # generator outputs 0.6 vs 0.5: KG1 ranks above KG2
    ids = rank_baseline(net, base, "l_p")
    assert ids.index("KG1") < ids.index("KG2")


def test_rank_baseline_l_s_matches_feature_sort(rnet):
    net, base = rnet
    scored = {k.id: extract_features(net, k, base).l_s
              for k in net.contingencies}
    expect = sorted(scored, key=lambda c: (-scored[c], c))
    assert rank_baseline(net, base, "l_s") == expect


def test_rank_baseline_l_c_differs_from_l_s(rnet):
    net, base = rnet
    # G1 and G2 have equal capacity but different apparent outputs, while the
    # line capacities differ from the transformer's: construct a case where
    # the two orders diverge
    base2 = base.copy()
    bi_l1 = next(i for i, b in enumerate(net.branches) if b.id == "L1")
    bi_t1 = next(i for i, b in enumerate(net.branches) if b.id == "T1")
    base2.state.flows[bi_l1] = (1.0, 0.0, -1.0, 0.0)   # big flow, big cap
    base2.state.flows[bi_t1] = (0.9, 0.0, -0.9, 0.0)   # slightly smaller
    assert rank_baseline(net, base2, "l_s") != rank_baseline(net, base2, "l_c")


def test_rank_baseline_unknown_heuristic(rnet):
    net, base = rnet
    with pytest.raises(ValueError):
        rank_baseline(net, base, "v_d")


def test_model_roundtrip(tmp_path):
    model = RidgeModel(weights=np.arange(10, dtype=float), intercept=3.5,
                       reg_lambda=0.25)
    path = tmp_path / "model.json"
    save_model(model, path)
    loaded = load_model(path)
    np.testing.assert_array_equal(loaded.weights, model.weights)
    assert loaded.intercept == model.intercept
    assert loaded.reg_lambda == model.reg_lambda


@pytest.mark.parametrize("key", ["weights", "intercept", "reg_lambda"])
def test_load_model_rejects_non_finite_values(tmp_path, key):
    model = RidgeModel(weights=np.arange(10, dtype=float), intercept=3.5,
                       reg_lambda=0.25)
    if key == "weights":
        model.weights[3] = math.nan
    else:
        setattr(model, key, math.inf)
    path = tmp_path / "model.json"
    save_model(model, path)
    with pytest.raises(ValueError, match="finite"):
        load_model(path)
