import json
from dataclasses import replace

import pytest

from scacopf import case_model as cm
from scacopf.cli import generate_case
from conftest import make_bus, make_line, two_bus_net, five_bus_net


MINIMAL_CASE = {
    "buses": [
        {"id": "B1", "v_min": 0.9, "v_max": 1.1, "base_kv": 230.0},
        {"id": "B2", "v_min": 0.9, "v_max": 1.1, "base_kv": 230.0,
         "p_load": 0.8, "q_load": 0.2},
    ],
    "generators": [
        {"id": "G1", "bus": "B1", "p_min": 0.0, "p_max": 2.0,
         "q_min": -1.0, "q_max": 1.0, "alpha": 1.0,
         "cost": [[1.0, 10.0], [2.5, 20.0]]},
    ],
    "lines": [
        {"id": "L1", "origin": "B1", "destination": "B2",
         "g": 0.5, "b": -5.0, "b_ch": 0.02, "r_max": 2.0, "r_max_ctg": 2.2},
    ],
    "transformers": [],
    "contingencies": [],
    "penalty": {"breakpoints": [0.02, 0.1], "slopes": [1e3, 5e3, 1e6]},
    "reference_bus": "B1",
}


def test_load_two_bus_case(tmp_path):
    path = tmp_path / "case.json"
    path.write_text(json.dumps(MINIMAL_CASE))
    net = cm.load_case(path)
    assert len(net.buses) == 2
    assert len(net.lines) == 1
    assert len(net.generators) == 1
    assert net.reference_bus == "B1"


def test_malformed_json_raises(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(cm.CaseError):
        cm.load_case(path)


def test_unknown_bus_reference_named():
    doc = json.loads(json.dumps(MINIMAL_CASE))
    doc["lines"][0]["destination"] = "B99"
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert "B99" in str(exc.value)


def test_zero_tau_transformer_rejected():
    doc = json.loads(json.dumps(MINIMAL_CASE))
    doc["transformers"] = [{
        "id": "T1", "origin": "B1", "destination": "B2", "g": 0.1, "b": -2.0,
        "tau": 0.0, "theta_shift": 0.0, "g_mag": 0.0, "b_mag": 0.0,
        "s_max": 1.0, "s_max_ctg": 1.0,
    }]
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert "tau > 0" in str(exc.value)


def test_validation_collects_all_violations():
    doc = json.loads(json.dumps(MINIMAL_CASE))
    doc["buses"][0]["v_min"] = -0.1
    doc["lines"][0]["r_max"] = 0.0
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert len(exc.value.violations) >= 2


def test_round_trip_equality(net5, tmp_path):
    path = tmp_path / "case.json"
    cm.write_case(net5, path)
    again = cm.load_case(path)
    assert again == net5


def test_round_trip_text(net2):
    assert cm.loads_case(cm.dumps_case(net2)) == net2


def test_omitted_optional_fields_take_their_defaults():
    doc = {
        "buses": [{"id": "B1", "v_min": 0.9, "v_max": 1.1, "base_kv": 230.0},
                  {"id": "B2", "v_min": 0.9, "v_max": 1.1, "base_kv": 115.0}],
        "generators": [{"id": "G1", "bus": "B1", "p_min": 0.0, "p_max": 2.0,
                        "q_min": -1.0, "q_max": 1.0}],
        "lines": [{"id": "L1", "origin": "B1", "destination": "B2",
                   "g": 0.5, "b": -5.0, "r_max": 2.0}],
        "transformers": [{"id": "T1", "origin": "B1", "destination": "B2",
                          "g": 0.3, "b": -4.0, "s_max": 1.5}],
        "reference_bus": "B1",
    }
    net = cm.loads_case(json.dumps(doc))
    for bus in net.buses:
        assert (bus.p_load, bus.q_load, bus.g_fs, bus.b_fs,
                bus.bcs_min, bus.bcs_max) == (0.0,) * 6
    g = net.generators[0]
    assert g.alpha == 1.0 and g.cost_curve == ()
    line = net.lines[0]
    assert line.b_ch == 0.0
    assert line.r_max_ctg == line.r_max == 2.0
    xf = net.transformers[0]
    assert (xf.tau, xf.theta_shift, xf.g_mag, xf.b_mag) == (1.0, 0.0, 0.0, 0.0)
    assert xf.s_max_ctg == xf.s_max == 1.5
    assert net.contingencies == ()
    assert net.penalty_config == cm.PenaltyConfig()


@pytest.mark.parametrize("record, key, value, message", [
    ("buses", "v_min", None, "bus B1: missing field 'v_min'"),
    ("generators", "p_max", "2.0", "generator G1: field 'p_max' is not a number"),
    ("lines", "g", True, "line L1: field 'g' is not a number"),
    ("lines", "r_max", None, "line L1: missing field 'r_max'"),
    ("generators", "cost", [[1.0, 10.0], [2.5]],
     "generator G1: cost segments must be [quantity, price] pairs"),
])
def test_field_errors_give_their_messages(record, key, value, message):
    doc = json.loads(json.dumps(MINIMAL_CASE))
    if value is None:
        del doc[record][0][key]
    else:
        doc[record][0][key] = value
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert message in exc.value.violations


@pytest.mark.parametrize("record, key, value, message", [
    ("contingencies", "responding_gens", 7,
     "contingency K1: field 'responding_gens' is not a list"),
    ("contingencies", "responding_gens", None,
     "contingency K1: field 'responding_gens' is not a list"),
    ("contingencies", "responding_gens", "G1",
     "contingency K1: field 'responding_gens' is not a list"),
    ("generators", "cost", True, "generator G1: field 'cost' is not a list"),
    ("generators", "cost", [[1.0, "ten"], [2.5, 20.0]],
     "generator G1: cost segments must be [quantity, price] pairs"),
    ("generators", "cost", [[1.0, 10.0], [False, 20.0]],
     "generator G1: cost segments must be [quantity, price] pairs"),
])
def test_list_field_errors_give_their_messages(record, key, value, message):
    # a list field that holds a scalar, null or a string, and a cost pair
    # that holds a non-number, are violations, not exceptions
    doc = json.loads(json.dumps(MINIMAL_CASE))
    doc["contingencies"] = [{"id": "K1", "kind": cm.GENERATOR_OUTAGE,
                             "outaged": "G1", "responding_gens": []}]
    doc[record][0][key] = value
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert message in exc.value.violations


@pytest.mark.parametrize("key, value, message", [
    ("buses", 7, "case: field 'buses' is not a list"),
    ("lines", [1], "case: field 'lines' holds a record that is not an object"),
    ("penalty", 7, "case: field 'penalty' is not an object"),
    ("penalty", {"slopes": ["a", 1.0, 2.0]},
     "penalty: field 'slopes' is not a list of numbers"),
    ("penalty", {"breakpoints": 0.1}, "penalty: field 'breakpoints' is not a list of numbers"),
])
def test_case_level_field_errors_give_their_messages(key, value, message):
    doc = json.loads(json.dumps(MINIMAL_CASE))
    doc[key] = value
    with pytest.raises(cm.CaseValidationError) as exc:
        cm.loads_case(json.dumps(doc))
    assert message in exc.value.violations


@pytest.mark.parametrize("n_bus", [5, 14, 30])
def test_generated_cases_round_trip(n_bus):
    net = generate_case(n_bus, seed=n_bus)
    text = cm.dumps_case(net)
    again = cm.loads_case(text)
    assert again == net
    assert cm.dumps_case(again) == text


# --- preprocessing -----------------------------------------------------------

def parallel_line_net():
    l1 = make_line("LA", "B1", "B2")
    l2 = make_line("LB", "B1", "B2")
    return two_bus_net(
        lines=(l1, l2),
        contingencies=(
            cm.Contingency("C-LA", "line-outage", "LA", ("G1",)),
            cm.Contingency("C-LB", "line-outage", "LB", ("G1",)),
        ),
    )


def test_parallel_lines_marked_and_contingency_removed():
    net = parallel_line_net()
    new, report = cm.preprocess(net)
    assert report.line_rating_groups == (("LA", "LB"),)
    # brute-force duplicate detection over parameter tuples agrees
    keys = {}
    for e in net.lines:
        keys.setdefault((tuple(sorted((e.origin, e.destination))), e.g, e.b,
                         e.b_ch, e.r_max, e.r_max_ctg), []).append(e.id)
    dup_classes = [sorted(v) for v in keys.values() if len(v) > 1]
    assert dup_classes == [["LA", "LB"]]
    assert report.removed_contingencies == (("C-LB", "C-LA"),)
    assert [k.id for k in new.contingencies] == ["C-LA"]


def test_rating_skip_retained_under_member_outage():
    net = parallel_line_net()
    _, report = cm.preprocess(net)
    assert report.skip_rating_ids() == {"LB"}
    assert report.skip_rating_ids(outaged="LA") == set()
    assert report.skip_rating_ids(outaged="LB") == set()


@pytest.mark.parametrize("kind, twin", [
    ("line-outage", lambda e: replace(e, b_ch=e.b_ch + 0.05)),
    ("line-outage", lambda e: replace(e, r_max_ctg=e.r_max)),
    ("transformer-outage", lambda f: replace(f, g_mag=0.01)),
    ("transformer-outage", lambda f: replace(f, b_mag=f.b_mag - 0.01)),
    ("transformer-outage", lambda f: replace(f, s_max_ctg=f.s_max)),
    ("transformer-outage",
     lambda f: replace(f, origin=f.destination, destination=f.origin)),
], ids=["line-b_ch", "line-r_max_ctg", "xf-g_mag", "xf-b_mag", "xf-s_max_ctg",
        "xf-reversed"])
def test_parallel_branches_that_differ_keep_rows_and_outages(kind, twin):
    # a parallel copy of a branch that differs in one parameter (or, for a
    # transformer, whose tap is on the other end) carries different flows:
    # neither its rating rows nor its outage are redundant
    net = generate_case(5, 11)
    field = "lines" if kind == "line-outage" else "transformers"
    first = getattr(net, field)[0]
    branches = (first, replace(twin(first), id=first.id + "X"))
    net = replace(net, **{field: getattr(net, field) + branches[1:]},
                  contingencies=net.contingencies + tuple(
                      cm.Contingency("K" + br.id, kind, br.id, ("G1", "G2"))
                      for br in branches))
    new, report = cm.preprocess(net)
    assert report.line_rating_groups == report.xf_rating_groups == ()
    assert report.skip_rating_ids() == report.skip_rating_ids("G1") == set()
    assert report.removed_contingencies == ()
    assert new == net


def test_preprocess_identity_on_clean_net(net5):
    new, report = cm.preprocess(net5)
    assert new == net5
    assert report.removed_contingencies == ()
    assert report.line_rating_groups == ()


def test_preprocess_idempotent():
    net = parallel_line_net()
    once, r1 = cm.preprocess(net)
    twice, r2 = cm.preprocess(once)
    assert twice == once
    assert r2.removed_contingencies == ()
    assert r2.line_rating_groups == r1.line_rating_groups


def test_no_removal_without_identical_counterpart(net5):
    # every outaged component in net5 is electrically unique; brute-force
    # pairwise comparison confirms, and preprocess removes nothing
    new, report = cm.preprocess(net5)
    for a in net5.lines:
        for b in net5.lines:
            if a.id < b.id:
                assert (a.g, a.b, a.r_max) != (b.g, b.b, b.r_max) or \
                    {a.origin, a.destination} != {b.origin, b.destination}
    assert report.removed_contingencies == ()
    assert len(new.contingencies) == len(net5.contingencies)
