"""Complementarity segment states for contingency generator response.

Each responding generator carries an active-power segment and each available
generator a reactive-power segment, each in {lower, middle, upper}.  The
lower/upper segments pin the generator variable at its bound and relax the
matching equation into a signed inequality; the middle segment enforces the
matching equation exactly.  An active middle segment keeps p's bounds; a
reactive one holds v at the base voltage of the generator's bus, and the NLP
lifts that v's bounds, as it does those of every column an equation pins.
The NLP's coupling rows, `project_response`, the fast engine's square
system and the generator-outage response all read one compiled
`scopf._SegmentPlan`; all a contingency compiles here is its responders'
ids (see `init_default`).  `update_segments` reads the evidence that
`scopf.CaseStructure.segment_evidence` takes off an NLP solution.
`project_response` is `scopf`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acpf import CaseLayout
from .scopf import (DELTA_MAX, LOWER, MIDDLE, UPPER, OperatingPoint,
                    _clip, _SegmentPlan, project_response)

__all__ = [
    "ComplementarityState",
    "init_generator_outage",
    "init_default",
    "initial_state",
    "update_segments",
    "project_response",
]

# uplift on replaced power approximating a 1% loss increase under redispatch
LOSS_UPLIFT = 1.01
# a constraint counts as active when multiplier > 0 and gap/multiplier < this
ACTIVITY_RATIO = 1e-6


@dataclass
class ComplementarityState:
    active: dict = field(default_factory=dict)    # responding gen id -> segment
    reactive: dict = field(default_factory=dict)  # available gen id -> segment
    delta: float = 0.0

    def copy(self):
        return ComplementarityState(dict(self.active), dict(self.reactive),
                                    self.delta)


def init_default(net, k):
    """All-middle state with zero perturbation (line/transformer outages and
    every reactive family start here): every available generator, and k's
    responders in generator order, whose ids are compiled once into its
    outage's `CaseLayout.compiled`."""
    lay = CaseLayout.of(net, k.outaged)
    responding = lay.compiled.get(("responding", k))
    if responding is None:
        ids = set(k.responding_gens)
        responding = lay.compiled["responding", k] = [g for g in lay.gen_ids if g in ids]
    return ComplementarityState(active=dict.fromkeys(responding, MIDDLE),
                                reactive=dict.fromkeys(lay.gen_ids, MIDDLE))


def init_generator_outage(net, k, base: OperatingPoint):
    """The response perturbation that replaces the lost power, and the
    segments it puts the responders in.

    Targets LOSS_UPLIFT times the outaged generator's base output.  The
    replaced power is piecewise linear and nondecreasing in delta, with a
    breakpoint wherever a responder's clamp starts or stops binding, so
    delta is found exactly: between the two breakpoints that bracket the
    target, by linear interpolation, and on a breakpoint that meets the
    target exactly.  Segments are read off from where each responder's clamp
    binds.  If even DELTA_MAX cannot replace the target, delta is DELTA_MAX
    and every responder whose clamp binds there is UPPER.
    """
    state = init_default(net, k)
    target = LOSS_UPLIFT * base.state.p_gen[net.gen_index(k.outaged)]
    if target <= 0.0 or not state.active:
        return state

    plan = _SegmentPlan.of(CaseLayout.of(net, k.outaged), state)
    p, alpha = base.state.p_gen[plan.resp], plan.alpha
    p_min, p_max = plan.p_box
    # 0, DELTA_MAX and the breakpoints between them, in plain floats: a few
    # responders' worth, where np.unique's per-call cost is most of the time
    # (alpha >= 0, and a responder of alpha 0 has no breakpoint)
    grid = [0.0, DELTA_MAX]
    for a, lo, hi in zip(alpha.tolist(), (p_min - p).tolist(), (p_max - p).tolist()):
        if a != 0.0:
            lo /= a
            hi /= a
            if 0.0 < lo < DELTA_MAX:
                grid.append(lo)
            if 0.0 < hi < DELTA_MAX:
                grid.append(hi)
    grid = np.array(sorted(set(grid)))
    got = (_clip(p + alpha * grid[:, None], p_min, p_max) - p).sum(axis=1)
    j = int(got.searchsorted(target))  # the first breakpoint reaching it
    if j == len(grid):
        state.delta = DELTA_MAX
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


def initial_state(net, k, base: OperatingPoint, given=None):
    """The segment state an evaluation of k at `base` starts from: a copy of
    `given` if there is one, else the generator-outage response for a
    generator outage and the all-middle default otherwise."""
    if given is not None:
        return given.copy()
    if k.kind == "generator-outage":
        return init_generator_outage(net, k, base)
    return init_default(net, k)


def update_segments(state: ComplementarityState, evidence):
    """All-at-once segment update from activity evidence.

    `evidence` holds, for the active and then the reactive family, (member
    ids, middle mask, (gap, multiplier) arrays at the lower bounds, and at
    the upper ones), as `scopf.CaseStructure.segment_evidence` returns it.
    A side's evidence is active when its multiplier is positive and
    gap/multiplier is below ACTIVITY_RATIO.  A middle member moves to the
    side whose evidence is active; when both are, to the one of smaller
    ratio, lower on a tie.  A pinned member returns to middle when either
    side's is (a slack's infinite side has multiplier 0).  The new segment
    depends on the evidence alone, so applying it twice equals applying it
    once, and a move is one step.
    """
    new = state.copy()
    for table, (ids, middle, (gap_lo, lam_lo), (gap_up, lam_up)) in zip(
            (new.active, new.reactive), evidence):
        with np.errstate(divide="ignore", invalid="ignore"):
            r_lo, r_up = gap_lo / lam_lo, gap_up / lam_up
        lo = (lam_lo > 0.0) & (r_lo < ACTIVITY_RATIO)
        up = (lam_up > 0.0) & (r_up < ACTIVITY_RATIO)
        for g, m, fl, fu, down in zip(ids, middle.tolist(), lo.tolist(),
                                      up.tolist(), (r_lo <= r_up).tolist()):
            if fl or fu:
                table[g] = (MIDDLE if not m else
                            LOWER if fl and (down or not fu) else UPPER)
    return new, new.active != state.active or new.reactive != state.reactive
