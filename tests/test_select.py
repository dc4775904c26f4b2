"""Tests for priority-order selection and dominance rules."""

import numpy as np
import pytest

from scacopf.select import (
    ViolationSummary,
    max_violation_dominated,
    resort,
    select_top,
    summarize_point,
)


def vs(cid, slacks, tag="b1"):
    return ViolationSummary(cid, np.asarray(slacks, dtype=float), tag)


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
    summaries = {c: vs(c, np.eye(5)[i] * (5 - i))
                 for i, c in enumerate("ABCDE")}
    assert select_top(list("ABCDE"), summaries, 3) == ["A", "B", "C"]


def test_select_top_skips_dominated():
    summaries = {
        "A": vs("A", [0.5, 0, 0]),
        "B": vs("B", [0.3, 0, 0]),  # same argmax as A, smaller -> dominated
        "C": vs("C", [0, 0.2, 0]),
        "D": vs("D", [0, 0, 0.1]),
    }
    assert select_top(list("ABCD"), summaries, 3) == ["A", "C", "D"]


def test_select_top_dominance_requires_same_base_tag():
    summaries = {"A": vs("A", [0.5, 0], "b1"), "B": vs("B", [0.3, 0], "b2")}
    # same argmax, but different base tags -> no dominance applies
    assert select_top(["A", "B"], summaries, 2) == ["A", "B"]


def brute_force_select(order, summaries, n, master=()):
    chosen, pool = [], list(master)
    for cid in order:
        if len(chosen) >= n:
            continue
        s = summaries[cid]
        if any(o.base_tag == s.base_tag and o.argmax == s.argmax
               and o.max_violation > s.max_violation for o in pool):
            continue
        chosen.append(cid)
        pool.append(s)
    return chosen


def test_select_top_matches_brute_force(rng):
    for trial in range(200):
        m = int(rng.integers(1, 21))
        order = [f"K{i}" for i in rng.permutation(m)]
        dim = int(rng.integers(2, 6))
        summaries = {c: vs(c, rng.choice([0.0, 0.1, 0.3, 0.5], size=dim))
                     for c in order}
        master = [vs("M", rng.choice([0.0, 0.1, 0.3, 0.5], size=dim))
                  for _ in range(int(rng.integers(0, 3)))]
        n = int(rng.integers(1, 5))
        assert select_top(order, summaries, n, master) == \
            brute_force_select(order, summaries, n, master)


def test_select_top_excludes_in_master_and_is_duplicate_free():
    # B is in the master: out of the order, its summary among the master's
    summaries = {c: vs(c, np.eye(4)[i]) for i, c in enumerate("ABCD")}
    got = select_top(["A", "C", "D"], summaries, 4,
                     in_master_summaries=[summaries["B"]])
    assert "B" not in got
    assert len(got) == len(set(got)) == 3


# --- resort ------------------------------------------------------------------

def test_resort_orders_by_descending_penalty():
    assert resort(["A", "B", "C"], {"A": 10, "B": 50, "C": 20}) == \
        ["B", "C", "A"]


def test_resort_equal_penalty_ascending_id():
    assert resort(["Z", "A"], {"Z": 7, "A": 7}) == ["A", "Z"]


def test_resort_noise_level_penalties_order_by_id():
    # penalties at or below the noise floor tie at 0 and order by id; a
    # penalty above it still sorts first
    penalties = {"KL7": 3e-11, "KG4": 1e-11, "KG3": 1e-9, "KG9": 2e-9}
    assert resort(["KL7", "KG4", "KG3", "KG9"], penalties) == \
        ["KG9", "KG3", "KG4", "KL7"]


def test_resort_unknown_id_raises():
    # every id of the order needs a penalty
    with pytest.raises(KeyError):
        resort(["A", "B"], {"A": 1})


def test_summarize_point_uses_canonical_slack_order(net5):
    from scacopf import scopf
    point = scopf.default_start(net5)
    point.slacks[:] = 0.0
    point.slacks[2 * len(net5.buses) + 2] = 0.7  # Q+ at bus 2: bus Q follows bus P
    s = summarize_point(point, "K", "b1")
    nb = len(net5.buses)
    assert s.argmax == nb + 2
    assert s.max_violation == pytest.approx(0.7)
