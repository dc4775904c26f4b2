"""Priority order maintenance and dominance-aware contingency selection.

The coordinator keeps the ids of every not-yet-included contingency in a
priority order, a plain list.  Selection for master inclusion scans it and
skips ids whose worst violation is dominated (same most-violated constraint
index, strictly smaller violation) by an already-chosen or already-included
contingency evaluated against the same base solution.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = [
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


def select_top(order, summaries, n, in_master_summaries=()):
    """Up to ``n`` undominated contingency ids of ``order``, in its order.

    ``summaries`` maps each id of ``order`` to its ViolationSummary.  An id
    is skipped when its summary is max-violation dominated by an
    already-chosen summary or by a summary of a contingency already in the
    master (same base tag only).
    """
    chosen = []
    chosen_summaries = list(in_master_summaries)
    for cid in order:
        if len(chosen) >= n:
            break
        summ = summaries[cid]
        if any(s.base_tag == summ.base_tag and max_violation_dominated(s, summ)
               for s in chosen_summaries):
            continue
        chosen.append(cid)
        chosen_summaries.append(summ)
    return chosen


def resort(order, penalties):
    """The ids of ``order`` in descending order of ``penalties`` (id ->
    penalty), ties by ascending id.  Penalties at or below `PENALTY_NOISE`
    sort as 0, so rounding noise on a feasible point never decides the
    order."""
    def key(cid):
        pen = penalties[cid]
        return -(pen if pen > PENALTY_NOISE else 0.0), cid
    return sorted(order, key=key)
