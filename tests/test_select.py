"""Tests for priority-list selection and dominance rules."""

import numpy as np
import pytest

from scacopf.select import (
    PriorityEntry,
    PriorityList,
    ViolationSummary,
    max_violation_dominated,
    resort,
    select_top,
    summarize_point,
)


def vs(cid, slacks, tag="b1"):
    return ViolationSummary(cid, np.asarray(slacks, dtype=float), tag)


def entry(cid, prio, pen=-1.0):
    return PriorityEntry(cid, prio, penalty=pen)


# --- max-violation dominance --------------------------------------------------

def test_cdc_misaligned_raises():
    with pytest.raises(ValueError):
        max_violation_dominated(vs("A", [1, 2]), vs("B", [1, 2, 3]))


def test_cdc_same_index_strict():
    j = vs("J", [0, 0, 0, 0, 0, 0.3])
    k = vs("K", [0, 0, 0, 0, 0, 0.1])
    assert max_violation_dominated(j, k)
    assert not max_violation_dominated(k, j)


def test_cdc_different_index():
    j = vs("J", [0, 0, 0.3, 0])
    k = vs("K", [0, 0, 0, 0.1])
    assert not max_violation_dominated(j, k)


def test_cdc_equal_violation_not_dominated():
    j = vs("J", [0, 0.2])
    k = vs("K", [0, 0.2])
    assert not max_violation_dominated(j, k)
    assert not max_violation_dominated(k, j)


def test_cdc_irreflexive_asymmetric(rng):
    for _ in range(100):
        a = vs("A", rng.uniform(0, 1, size=6))
        b = vs("B", rng.uniform(0, 1, size=6))
        assert not max_violation_dominated(a, a)
        assert not (max_violation_dominated(a, b)
                    and max_violation_dominated(b, a))


# --- select_top --------------------------------------------------------------

def test_select_top_no_dominance():
    plist = PriorityList([entry(c, 10 - i, pen=10 - i)
                          for i, c in enumerate("ABCDE")])
    summaries = {c: vs(c, np.eye(5)[i] * (5 - i))
                 for i, c in enumerate("ABCDE")}
    assert select_top(plist, summaries, 3) == ["A", "B", "C"]


def test_select_top_skips_dominated():
    plist = PriorityList([entry(c, 10 - i, pen=10 - i)
                          for i, c in enumerate("ABCD")])
    summaries = {
        "A": vs("A", [0.5, 0, 0]),
        "B": vs("B", [0.3, 0, 0]),  # same argmax as A, smaller -> dominated
        "C": vs("C", [0, 0.2, 0]),
        "D": vs("D", [0, 0, 0.1]),
    }
    assert select_top(plist, summaries, 3) == ["A", "C", "D"]


def test_select_top_fills_with_unevaluated():
    plist = PriorityList([
        entry("A", 5, pen=9), entry("B", 4, pen=8),
        entry("C", 3), entry("D", 2),
    ])
    master = [vs("M", [0.9, 0, 0])]
    summaries = {"A": vs("A", [0.5, 0, 0]), "B": vs("B", [0.2, 0, 0])}
    # A and B both dominated by the in-master summary -> fill from C, D
    assert select_top(plist, summaries, 3,
                      in_master_summaries=master) == ["C", "D"]


def test_select_top_dominance_requires_same_base_tag():
    plist = PriorityList([entry("A", 5, pen=9), entry("B", 4, pen=8)])
    summaries = {"A": vs("A", [0.5, 0], "b1"), "B": vs("B", [0.3, 0], "b2")}
    # same argmax, but different base tags -> no dominance applies
    assert select_top(plist, summaries, 2) == ["A", "B"]


def brute_force_select(plist, summaries, n, master=()):
    chosen, pool = [], list(master)
    for e in plist.entries:
        if len(chosen) >= n or e.in_master:
            continue
        s = summaries.get(e.contingency_id)
        if s is None:
            continue
        if any(o.base_tag == s.base_tag and o.argmax == s.argmax
               and o.max_violation > s.max_violation for o in pool):
            continue
        chosen.append(e.contingency_id)
        pool.append(s)
    for e in plist.entries:
        if len(chosen) >= n:
            break
        if not e.in_master and e.contingency_id not in chosen \
                and e.contingency_id not in summaries:
            chosen.append(e.contingency_id)
    return chosen


def test_select_top_matches_brute_force(rng):
    for trial in range(200):
        m = int(rng.integers(1, 21))
        ids = [f"K{i}" for i in range(m)]
        plist = PriorityList([
            entry(c, float(rng.uniform(0, 100)),
                  pen=float(rng.uniform(0, 50)) if rng.random() < 0.7 else -1)
            for c in ids
        ])
        dim = int(rng.integers(2, 6))
        summaries = {
            e.contingency_id: vs(e.contingency_id,
                                 rng.choice([0.0, 0.1, 0.3, 0.5], size=dim))
            for e in plist.entries if e.evaluated
        }
        n = int(rng.integers(1, 5))
        assert select_top(plist, summaries, n) == \
            brute_force_select(plist, summaries, n)


def test_select_top_excludes_in_master_and_is_duplicate_free(rng):
    plist = PriorityList([entry(c, 5 - i, pen=5 - i)
                          for i, c in enumerate("ABCD")])
    plist.mark_in_master(["B"])
    summaries = {c: vs(c, np.eye(4)[i]) for i, c in enumerate("ABCD")}
    got = select_top(plist, summaries, 4)
    assert "B" not in got
    assert len(got) == len(set(got)) == 3


# --- resort ------------------------------------------------------------------

class FakeResult:
    def __init__(self, cid, pen):
        self.contingency_id = cid
        self.penalty = pen


def test_resort_orders_by_penalty_with_pending_suffix():
    plist = PriorityList([entry("A", 3), entry("B", 2), entry("C", 1)])
    new = resort(plist, [FakeResult("A", 10), FakeResult("B", 50)])
    assert [e.contingency_id for e in new.entries] == ["B", "A", "C"]


def test_resort_all_unevaluated_unchanged():
    plist = PriorityList([entry("A", 3), entry("B", 2), entry("C", 1)])
    new = resort(plist, [])
    assert [e.contingency_id for e in new.entries] == ["A", "B", "C"]


def test_resort_drops_in_master():
    plist = PriorityList([entry("A", 3, pen=5), entry("B", 2, pen=9)])
    plist.mark_in_master(["A"])
    new = resort(plist, [])
    assert [e.contingency_id for e in new.entries] == ["B"]


def test_resort_equal_penalty_ascending_id():
    plist = PriorityList([entry("Z", 3), entry("A", 2)])
    new = resort(plist, [FakeResult("Z", 7), FakeResult("A", 7)])
    assert [e.contingency_id for e in new.entries] == ["A", "Z"]


def test_resort_noise_level_penalties_order_by_id():
    # penalties at or below the noise floor tie at 0 and order by id; a
    # penalty above it still sorts first
    plist = PriorityList([entry(c, 1) for c in ("KL7", "KG4", "KG3", "KG9")])
    new = resort(plist, [FakeResult("KL7", 3e-11), FakeResult("KG4", 1e-11),
                         FakeResult("KG3", 1e-9), FakeResult("KG9", 2e-9)])
    assert [e.contingency_id for e in new.entries] == ["KG9", "KG3", "KG4", "KL7"]
    # the reported penalties are kept as they are
    assert new.entry("KL7").penalty == 3e-11


def test_resort_unknown_id_raises():
    plist = PriorityList([entry("A", 3)])
    with pytest.raises(KeyError):
        resort(plist, [FakeResult("NOPE", 1)])


def test_priority_list_rejects_duplicates():
    with pytest.raises(ValueError):
        PriorityList([entry("A", 1), entry("A", 2)])


def test_summarize_point_uses_canonical_slack_order(net5):
    from scacopf import scopf
    point = scopf.default_start(net5)
    point.sig_p_plus[:] = 0.0
    point.sig_p_minus[:] = 0.0
    point.sig_q_plus[:] = 0.0
    point.sig_q_minus[:] = 0.0
    point.sig_s[:] = 0.0
    point.sig_q_plus[2] = 0.7  # bus Q block follows the bus P block
    s = summarize_point(point, "K", "b1")
    nb = len(net5.buses)
    assert s.argmax == nb + 2
    assert s.max_violation == pytest.approx(0.7)
