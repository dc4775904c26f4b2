"""Tests for complementarity segment states and their transitions."""

import numpy as np
import pytest

from conftest import make_bus, make_gen, make_line, two_bus_net, five_bus_net

from scacopf import compl, nlp, scopf
from scacopf.acpf import CaseLayout
from scacopf.case_model import Contingency, Network, PenaltyConfig
from scacopf.compl import (
    ComplementarityState,
    init_default,
    init_generator_outage,
    project_response,
    update_segments,
)
from scacopf.scopf import LOWER, MIDDLE, UPPER


def response_net(responder_kw=None, outaged_p_max=2.0):
    """One responder G1 and one outage candidate G2, both at bus B1."""
    responder_kw = responder_kw or {}
    gens = (
        make_gen("G1", "B1", **responder_kw),
        make_gen("G2", "B2", p_max=outaged_p_max),
    )
    net = Network(
        buses=(make_bus("B1"), make_bus("B2", p_load=0.8, q_load=0.2)),
        generators=gens,
        lines=(make_line("L1", "B1", "B2"),),
        transformers=(),
        contingencies=(
            Contingency("K", "generator-outage", "G2", ("G1",)),
        ),
        penalty_config=PenaltyConfig(),
        reference_bus="B1",
    )
    return net


def base_with_p(net, p_values):
    point = scopf.default_start(net)
    point.state.p_gen[:] = p_values
    return point


def test_bisection_simple_middle():
    # responder at p=1.0 in [0, 2], lost power 0.5: the uplifted target is
    # 0.505 and the clamp never binds, so delta equals the target exactly
    net = response_net()
    base = base_with_p(net, [1.0, 0.5])
    st = init_generator_outage(net, net.contingency("K"), base)
    assert st.active["G1"] == MIDDLE
    assert st.delta == pytest.approx(0.505, abs=1e-8)


def test_bisection_zero_target():
    net = response_net()
    base = base_with_p(net, [1.0, 0.0])
    st = init_generator_outage(net, net.contingency("K"), base)
    assert st.delta == 0.0
    assert st.active["G1"] == MIDDLE


def test_bisection_shortfall_flags_upper():
    # headroom 0.3 < uplifted target 0.505: no delta replaces the target,
    # so delta is its cap and the responder saturates at its own
    net = response_net(responder_kw=dict(p_max=1.3))
    base = base_with_p(net, [1.0, 0.5])
    st = init_generator_outage(net, net.contingency("K"), base)
    assert st.delta == compl.DELTA_MAX
    assert st.active["G1"] == UPPER


def two_responder_net(g1_p_max):
    """Responders G1, capped at g1_p_max, and G3; G2 is the outage."""
    net = response_net(responder_kw=dict(p_max=g1_p_max))
    return Network(
        buses=net.buses, generators=net.generators + (make_gen("G3", "B2"),),
        lines=net.lines, transformers=(),
        contingencies=(Contingency("K", "generator-outage", "G2", ("G1", "G3")),),
        penalty_config=PenaltyConfig(), reference_bus="B1")


def test_delta_is_the_exact_root():
    # replaced power is 2 delta until G1 reaches its cap at delta = 0.1,
    # then 0.1 + delta
    net = two_responder_net(1.1)
    st = init_generator_outage(net, net.contingency("K"),
                               base_with_p(net, [1.0, 0.5, 0.0]))
    assert st.delta == pytest.approx(compl.LOSS_UPLIFT * 0.5 - 0.1, rel=1e-14)
    assert (st.active["G1"], st.active["G3"]) == (UPPER, MIDDLE)


def test_delta_on_a_clamp_breakpoint():
    # the target is met exactly where G1 reaches its cap: delta is that
    # breakpoint, where G1 sits on its bound and so stays middle
    half = compl.LOSS_UPLIFT * 0.5 / 2
    net = two_responder_net(half)
    st = init_generator_outage(net, net.contingency("K"),
                               base_with_p(net, [0.0, 0.5, 0.0]))
    assert st.delta == half
    assert (st.active["G1"], st.active["G3"]) == (MIDDLE, MIDDLE)


def test_init_default_all_middle(net5):
    for cid in ("CL2", "CT1"):
        k = net5.contingency(cid)
        st = init_default(net5, k)
        assert all(s == MIDDLE for s in st.active.values())
        assert all(s == MIDDLE for s in st.reactive.values())
        assert st.delta == 0.0
        assert set(st.reactive) == {"G1", "G2"}


def test_generator_outage_responders_in_network_order():
    # responders listed as (G3, G1), and G4 available but not responding:
    # G1 (alpha 1, cap 1.1) and G3 (alpha 2) replace 3 delta until G1 caps
    # at delta = 0.1, then 0.1 + 2 delta, so the uplifted 0.505 lost gives
    # delta = (0.505 - 0.1) / 2 with G1 upper
    net = response_net(responder_kw=dict(p_max=1.1))
    net = Network(
        buses=net.buses,
        generators=net.generators + (make_gen("G3", "B2", alpha=2.0),
                                     make_gen("G4", "B1")),
        lines=net.lines, transformers=(),
        contingencies=(Contingency("K", "generator-outage", "G2", ("G3", "G1")),),
        penalty_config=PenaltyConfig(), reference_bus="B1")
    st = init_generator_outage(net, net.contingency("K"),
                               base_with_p(net, [1.0, 0.5, 0.0, 0.7]))
    assert list(st.active.items()) == [("G1", UPPER), ("G3", MIDDLE)]
    assert list(st.reactive) == ["G1", "G3", "G4"]
    assert st.delta == pytest.approx((compl.LOSS_UPLIFT * 0.5 - 0.1) / 2, rel=1e-14)


def test_init_default_returns_a_fresh_state(net5):
    # the responder ids are compiled once; no returned state shares them
    k = net5.contingency("CG2")
    first = init_default(net5, k)
    want = (dict(first.active), dict(first.reactive))
    first.active[next(iter(first.active))] = UPPER
    first.active["extra"] = LOWER
    first.reactive[next(iter(first.reactive))] = LOWER
    first.delta = 0.5
    again = init_default(net5, k)
    assert (again.active, again.reactive, again.delta) == (*want, 0.0)
    assert all(s == MIDDLE for s in {**want[0], **want[1]}.values())


def test_generator_outage_reactive_family_all_middle(net5):
    # the bisection only sets active-family segments; the reactive family
    # starts middle regardless
    k = net5.contingency("CG2")
    bp = scopf.build_base_problem(net5)
    bs = nlp.solve_nlp(bp, tol=1e-8)
    base = bp.meta.extract_base(bs.x)
    st = init_generator_outage(net5, k, base)
    assert all(s == MIDDLE for s in st.reactive.values())
    assert "G2" not in st.reactive and "G2" not in st.active


# a pinned member's rho slack is unbounded on one side, whose multiplier is 0
FREE = (np.inf, 0.0)
NO_MEMBERS = ([], np.zeros(0, dtype=bool), (np.zeros(0), np.zeros(0)),
              (np.zeros(0), np.zeros(0)))

# behaviour -> rows (family, segment, (gap, multiplier) at the lower bound,
# at the upper bound, segment after the update) of G1, the one member of
# `family`; G1 is middle in the other family, which has no evidence
UPDATE_TABLE = {
    "lower_to_middle_fires": [("active", LOWER, FREE, (1e-7, 1.0), MIDDLE),
                              ("active", UPPER, (1e-7, 1.0), FREE, MIDDLE)],
    "zero_multiplier": [("active", LOWER, FREE, (1e-7, 0.0), LOWER),
                        ("active", MIDDLE, (1e-9, 0.0), (1e-9, 0.0), MIDDLE)],
    "large_ratio": [("active", LOWER, FREE, (1.0, 2.0), LOWER)],
    "middle_to_upper": [("active", MIDDLE, (1.0, 0.0), (1e-8, 3.0), UPPER)],
    "tie": [("active", MIDDLE, (1e-8, 1.0), (1e-9, 1.0), UPPER),
            ("active", MIDDLE, (1e-8, 1.0), (1e-8, 1.0), LOWER)],
    "reactive_family": [("reactive", LOWER, FREE, (1e-8, 1.0), MIDDLE),
                        ("reactive", MIDDLE, (1e-8, 5.0), (1.0, 0.0), LOWER)],
}


def member_evidence(family, segment, lower, upper):
    """`segment_evidence` of G1 in `segment` of `family`, no other member."""
    sides = [tuple(np.array([v]) for v in side) for side in (lower, upper)]
    one = (["G1"], np.array([segment == MIDDLE]), *sides)
    return [one, NO_MEMBERS] if family == "active" else [NO_MEMBERS, one]


def check_update_rows(behaviour):
    for family, segment, lower, upper, expected in UPDATE_TABLE[behaviour]:
        other = "reactive" if family == "active" else "active"
        st = ComplementarityState(**{family: {"G1": segment}, other: {"G1": MIDDLE}})
        new, changed = update_segments(
            st, member_evidence(family, segment, lower, upper))
        assert getattr(new, family) == {"G1": expected}, (behaviour, segment)
        assert getattr(new, other) == {"G1": MIDDLE}
        assert changed == (expected != segment)
        assert getattr(st, family) == {"G1": segment}  # the input is kept


def test_update_lower_to_middle_fires():
    check_update_rows("lower_to_middle_fires")


def test_update_zero_multiplier_unchanged():
    check_update_rows("zero_multiplier")


def test_update_large_ratio_unchanged():
    check_update_rows("large_ratio")


def test_update_middle_to_upper():
    check_update_rows("middle_to_upper")


def test_update_tie_prefers_smaller_ratio_then_lower():
    check_update_rows("tie")


def test_update_reactive_family_keyed_separately():
    check_update_rows("reactive_family")


def test_update_is_idempotent_and_one_step():
    # the evidence carries the segments it was gathered for, so the new
    # segment depends on it alone: a second application changes nothing
    evidence = member_evidence("active", MIDDLE, (1e-8, 5.0), (1.0, 0.0))
    st = ComplementarityState(active={"G1": MIDDLE}, reactive={})
    once, changed1 = update_segments(st, evidence)
    assert changed1 and once.active["G1"] == LOWER
    twice, changed2 = update_segments(once, evidence)
    assert not changed2
    assert twice.active == once.active and twice.reactive == once.reactive


def test_bisection_monotone_in_lost_power(rng):
    # increasing the lost power never decreases the returned delta
    for _ in range(20):
        n_resp = rng.integers(1, 4)
        kw = dict(p_max=float(rng.uniform(1.0, 3.0)))
        gens = [make_gen(f"G{i+1}", "B1", alpha=float(rng.uniform(0.5, 2.0)),
                         p_max=float(rng.uniform(1.0, 3.0)))
                for i in range(n_resp)]
        gens.append(make_gen("GX", "B2", **kw))
        net = Network(
            buses=(make_bus("B1"), make_bus("B2", p_load=0.5)),
            generators=tuple(gens),
            lines=(make_line("L1", "B1", "B2"),),
            transformers=(),
            contingencies=(
                Contingency("K", "generator-outage", "GX",
                            tuple(g.id for g in gens[:-1])),
            ),
            penalty_config=PenaltyConfig(),
            reference_bus="B1",
        )
        base_p = [float(rng.uniform(0.0, g.p_max * 0.8)) for g in gens[:-1]]
        losses = sorted(rng.uniform(0.0, kw["p_max"], size=3))
        deltas = []
        for lost in losses:
            base = base_with_p(net, base_p + [float(lost)])
            st = init_generator_outage(net, net.contingency("K"), base)
            deltas.append(st.delta)
        assert deltas == sorted(deltas)


def _segment_conditions_hold(net, k, st, base, point):
    """Exact disjunctive response conditions for the given assignment."""
    for g in net.generators:
        if g.id == k.outaged:
            assert point.state.p_gen[net.gen_index(g.id)] == 0.0
            continue
        gi = net.gen_index(g.id)
        p0 = base.state.p_gen[gi]
        pk = point.state.p_gen[gi]
        if g.id in st.active:
            rho = p0 + g.alpha * st.delta - pk
            seg = st.active[g.id]
            if seg == MIDDLE:
                assert g.p_min - 1e-12 <= pk <= g.p_max + 1e-12
                assert abs(rho) < 1e-9 or pk in (g.p_min, g.p_max)
            elif seg == LOWER:
                assert pk == g.p_min and rho <= 1e-12
            else:
                assert pk == g.p_max and rho >= -1e-12
        else:
            assert pk == p0
        seg = st.reactive.get(g.id, MIDDLE)
        qk = point.state.q_gen[gi]
        if seg == LOWER:
            assert qk == g.q_min
        elif seg == UPPER:
            assert qk == g.q_max
        else:
            assert g.q_min - 1e-12 <= qk <= g.q_max + 1e-12


def _packed(net, k, point):
    """The layout vector of k's case that `project_response` takes."""
    return CaseLayout.of(net, k.outaged).pack(point.state)


def test_project_response_clamps_and_zero_residual(net5, rng):
    k = net5.contingency("CG2")
    bp = scopf.build_base_problem(net5)
    bs = nlp.solve_nlp(bp, tol=1e-8)
    base = bp.meta.extract_base(bs.x)
    st = init_generator_outage(net5, k, base)

    raw = base.copy()
    raw.state.v += rng.uniform(-0.3, 0.3, size=raw.state.v.shape)
    raw.state.q_gen += rng.uniform(-1.5, 1.5, size=raw.state.q_gen.shape)
    point = project_response(st, net5, k, base, _packed(net5, k, raw))

    for i, bus in enumerate(net5.buses):
        assert bus.v_min <= point.state.v[i] <= bus.v_max
        assert bus.bcs_min <= point.state.bcs[i] <= bus.bcs_max
    _segment_conditions_hold(net5, k, st, base, point)

    # slacks absorb the balance residuals exactly
    from scacopf.acpf import balance_residuals
    res = balance_residuals(net5, point.state, k.outaged)
    p_plus, p_minus, q_plus, q_minus = point.slacks[:4 * len(net5.buses)].reshape(4, -1)
    np.testing.assert_allclose(res.p_resid + p_plus - p_minus, 0.0, atol=1e-12)
    np.testing.assert_allclose(res.q_resid + q_plus - q_minus, 0.0, atol=1e-12)


def test_project_response_identity_when_feasible(net5):
    # a point already satisfying every rule is returned unchanged
    k = net5.contingency("CL2")
    bp = scopf.build_base_problem(net5)
    bs = nlp.solve_nlp(bp, tol=1e-8)
    base = bp.meta.extract_base(bs.x)
    st = init_default(net5, k)
    point = project_response(st, net5, k, base, _packed(net5, k, base))
    again = project_response(st, net5, k, base, _packed(net5, k, point))
    np.testing.assert_allclose(again.state.v, point.state.v, atol=1e-15)
    np.testing.assert_allclose(again.state.p_gen, point.state.p_gen,
                               atol=1e-15)
    np.testing.assert_allclose(again.state.q_gen, point.state.q_gen,
                               atol=1e-15)


def _project_response_loop(state, net, k, base, raw_point):
    """Per-bus, per-generator reference for `project_response`."""
    fs = raw_point.state.copy()
    for i, bus in enumerate(net.buses):
        fs.v[i] = min(max(fs.v[i], bus.v_min), bus.v_max)
        fs.bcs[i] = min(max(fs.bcs[i], bus.bcs_min), bus.bcs_max)
    for gi, g in enumerate(net.generators):
        if g.id == k.outaged:
            fs.p_gen[gi] = fs.q_gen[gi] = 0.0
            continue
        seg = state.active.get(g.id)
        if seg == LOWER or seg == UPPER:
            fs.p_gen[gi] = g.p_min if seg == LOWER else g.p_max
        elif seg == MIDDLE:
            desired = base.state.p_gen[gi] + g.alpha * state.delta
            fs.p_gen[gi] = min(max(desired, g.p_min), g.p_max)
        else:
            fs.p_gen[gi] = base.state.p_gen[gi]
        seg = state.reactive.get(g.id, MIDDLE)
        if seg == LOWER or seg == UPPER:
            fs.q_gen[gi] = g.q_min if seg == LOWER else g.q_max
        else:
            fs.q_gen[gi] = min(max(fs.q_gen[gi], g.q_min), g.q_max)
    fs = scopf.flows_from_state(net, fs, k.outaged)
    return scopf.slacks_from_state(net, fs, k.outaged)


def test_project_response_equals_loop_reference(net5, rng):
    # the array expressions do the loop's arithmetic: results are equal.
    # Every kind of entry is drawn: each segment, and no entry at all (a
    # non-responder, or a reactive segment that defaults to middle)
    base = scopf.default_start(net5)
    segs = (LOWER, MIDDLE, UPPER, None)
    drawn = {"active": set(), "reactive": set()}
    for k in net5.contingencies:
        for _ in range(10):
            st = init_default(net5, k)
            for family, table in (("active", st.active), ("reactive", st.reactive)):
                for g in list(table):
                    seg = segs[rng.integers(4)]
                    drawn[family].add(seg)
                    if seg is None:
                        del table[g]
                    else:
                        table[g] = seg
            st.delta = rng.uniform(-0.5, 0.5)
            raw = base.copy()
            for name in ("v", "bcs", "p_gen", "q_gen"):
                arr = getattr(raw.state, name)
                arr += rng.uniform(-1.0, 1.0, size=arr.shape)
            got = project_response(st, net5, k, base, _packed(net5, k, raw))
            want = _project_response_loop(st, net5, k, base, raw)
            for name in ("v", "bcs", "p_gen", "q_gen", "flows"):
                np.testing.assert_array_equal(getattr(got.state, name),
                                              getattr(want.state, name))
            np.testing.assert_array_equal(got.slacks, want.slacks)
    assert drawn == {"active": set(segs), "reactive": set(segs)}


def reference_generator_outage(net, k, base):
    """`init_generator_outage` as it was written with np.errstate, np.unique
    and np.clip over arrays, the reference its trimmed form must match bit
    for bit."""
    state = init_default(net, k)
    target = compl.LOSS_UPLIFT * base.state.p_gen[net.gen_index(k.outaged)]
    if target <= 0.0 or not state.active:
        return state
    plan = scopf._SegmentPlan.of(CaseLayout.of(net, k.outaged), state)
    p, alpha = base.state.p_gen[plan.resp], plan.alpha
    p_min, p_max = plan.p_box
    with np.errstate(divide="ignore", invalid="ignore"):
        brk = np.concatenate(((p_min - p) / alpha, (p_max - p) / alpha))
    grid = np.unique(np.concatenate(
        ([0.0, compl.DELTA_MAX], brk[(brk > 0.0) & (brk < compl.DELTA_MAX)])))
    got = (np.clip(p + alpha * grid[:, None], p_min, p_max) - p).sum(axis=1)
    j = int(np.searchsorted(got, target))
    if j == len(grid):
        state.delta = compl.DELTA_MAX
    elif j == 0:
        state.delta = 0.0
    else:
        share = (got[j] - target) / (got[j] - got[j - 1])
        state.delta = float(max(grid[j - 1], grid[j] - share * (grid[j] - grid[j - 1])))
    desired = p + alpha * state.delta
    for g, above, below in zip(plan.p_ids, desired > p_max, desired < p_min):
        if above:
            state.active[g] = UPPER
        elif below:
            state.active[g] = LOWER
    return state


def test_generator_outage_response_equals_the_array_reference():
    # delta and the segments equal the reference's, bit for bit, on every
    # generator outage of gen-case 14 and 30 and of a 14-bus variant with
    # unequal alphas, some 0: from the default start, random dispatches,
    # every generator at a bound, one breakpoint shared by all, and every
    # other generator below its box (which a small delta leaves LOWER)
    from dataclasses import replace
    from scacopf.cli import generate_case

    net14 = generate_case(14, 3)
    alphas = [0.0 if i % 3 == 0 else 0.5 + 0.25 * i for i in range(len(net14.generators))]
    nets = [net14, generate_case(30, 3),
            replace(net14, generators=tuple(replace(g, alpha=a) for g, a
                                            in zip(net14.generators, alphas)))]
    rng = np.random.default_rng(9)
    seen = set()
    for net in nets:
        lay = CaseLayout.of(net)
        starts = [lay.p_min + u * (lay.p_max - lay.p_min)
                  for u in rng.uniform(size=(4, len(lay.p_min)))]
        below = np.where(np.arange(len(lay.p_min)) % 2, lay.p_max, lay.p_min - 0.2)
        starts += [lay.p_max, lay.p_min, np.maximum(lay.p_max - 0.05, lay.p_min), below]
        points = [scopf.default_start(net)] + [base_with_p(net, p) for p in starts]
        outages = [k for k in net.contingencies if k.kind == "generator-outage"]
        assert outages
        for base in points:
            for k in outages:
                got = init_generator_outage(net, k, base)
                ref = reference_generator_outage(net, k, base)
                assert repr(got.delta) == repr(ref.delta)
                assert (got.active, got.reactive) == (ref.active, ref.reactive)
                seen.add(got.delta if got.delta in (0.0, compl.DELTA_MAX) else "between")
                seen.update(got.active.values())
    assert seen == {0.0, compl.DELTA_MAX, "between", LOWER, MIDDLE, UPPER}
