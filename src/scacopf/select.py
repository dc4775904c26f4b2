"""Priority list maintenance and dominance-aware contingency selection.

The coordinator keeps every not-yet-included contingency in a priority list.
Selection for master inclusion scans the list in priority order and skips
entries whose worst violation is dominated (same most-violated constraint
index, strictly smaller violation) by an already-chosen or already-included
contingency evaluated against the same base solution.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

__all__ = [
    "PriorityEntry",
    "PriorityList",
    "ViolationSummary",
    "summarize_point",
    "max_violation_dominated",
    "select_top",
    "resort",
]

# a penalty this small is rounding noise of a feasible point (the default
# escalation cutoff, eval.default_cutoff, is 20 on the default penalty curve)
PENALTY_NOISE = 1e-9


@dataclass
class PriorityEntry:
    contingency_id: str
    priority: float
    penalty: float = -1.0  # -1 marks "never evaluated"
    in_master: bool = False

    @property
    def evaluated(self):
        return self.penalty >= 0.0


@dataclass
class PriorityList:
    """Ordered contingency entries; the list order is the priority order."""

    entries: list = field(default_factory=list)

    def __post_init__(self):
        ids = [e.contingency_id for e in self.entries]
        if len(set(ids)) != len(ids):
            raise ValueError("duplicate contingency ids in priority list")

    def entry(self, ctg_id):
        for e in self.entries:
            if e.contingency_id == ctg_id:
                return e
        raise KeyError(ctg_id)

    def mark_in_master(self, ctg_ids):
        for cid in ctg_ids:
            self.entry(cid).in_master = True


@dataclass
class ViolationSummary:
    """Slack profile of one evaluated contingency in the shared canonical
    constraint order (bus P, bus Q, line, transformer slacks)."""

    contingency_id: str
    slacks: np.ndarray
    base_tag: str = ""

    @property
    def argmax(self):
        return int(np.argmax(self.slacks))

    @property
    def max_violation(self):
        return float(np.max(self.slacks, initial=0.0))


def summarize_point(point, ctg_id, base_tag=""):
    """Violation summary of an evaluated operating point."""
    return ViolationSummary(contingency_id=ctg_id,
                            slacks=point.slack_vector(),
                            base_tag=base_tag)


def _check_comparable(j: ViolationSummary, k: ViolationSummary):
    if j.slacks.shape != k.slacks.shape:
        raise ValueError("violation summaries have misaligned constraint "
                         f"spaces: {j.slacks.shape} vs {k.slacks.shape}")


def max_violation_dominated(j: ViolationSummary, k: ViolationSummary):
    """k is max-violation dominated by j: same most-violated constraint index
    and strictly larger violation in j."""
    _check_comparable(j, k)
    return j.argmax == k.argmax and j.max_violation > k.max_violation


def select_top(plist: PriorityList, summaries, n, in_master_summaries=()):
    """Up to ``n`` undominated contingency ids in priority order.

    ``summaries`` maps contingency id -> ViolationSummary for evaluated
    entries.  An entry is skipped when its summary is max-violation dominated
    by an already-chosen summary or by a summary of a contingency already in
    the master (same base tag only).  If fewer than ``n`` undominated
    evaluated entries exist, the remainder is filled with the
    highest-priority never-evaluated entries.
    """
    chosen = []
    chosen_summaries = list(in_master_summaries)
    for entry in plist.entries:
        if len(chosen) >= n:
            break
        if entry.in_master:
            continue
        summ = summaries.get(entry.contingency_id)
        if summ is None:
            continue
        dominated = any(
            s.base_tag == summ.base_tag and max_violation_dominated(s, summ)
            for s in chosen_summaries)
        if dominated:
            continue
        chosen.append(entry.contingency_id)
        chosen_summaries.append(summ)
    if len(chosen) < n:
        for entry in plist.entries:
            if len(chosen) >= n:
                break
            if entry.in_master or entry.contingency_id in chosen:
                continue
            if entry.contingency_id not in summaries:
                chosen.append(entry.contingency_id)
    return chosen


def resort(plist: PriorityList, results):
    """New PriorityList with penalties updated from evaluation results.

    Evaluated entries come first, in descending penalty order; never-evaluated
    entries follow in their existing relative order.  Entries already in the
    master are dropped.  Ties break by ascending contingency id.  Penalties
    at or below `PENALTY_NOISE` sort as 0, so rounding noise on a feasible
    point never decides the order.
    """
    by_id = {e.contingency_id: e for e in plist.entries}
    for res in results:
        if res.contingency_id not in by_id:
            raise KeyError(res.contingency_id)
        by_id[res.contingency_id].penalty = res.penalty
    live = [e for e in plist.entries if not e.in_master]
    evaluated = [e for e in live if e.evaluated]
    pending = [e for e in live if not e.evaluated]
    evaluated.sort(key=lambda e: (-(e.penalty if e.penalty > PENALTY_NOISE else 0.0),
                                  e.contingency_id))
    return PriorityList(entries=evaluated + pending)
