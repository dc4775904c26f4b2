"""Complementarity segment states for contingency generator response.

Each responding generator carries an active-power segment and each available
generator a reactive-power segment, each in {lower, middle, upper}.  The
lower/upper segments pin the generator variable at its bound and relax the
matching equation into a signed inequality; the middle segment enforces the
matching equation exactly.  An active middle segment keeps p's bounds; a
reactive one holds v at the base voltage of the generator's bus, and the NLP
lifts that v's bounds, as it does those of every column an equation pins.
The NLP's coupling rows, `project_response` and the fast engine's square
system all read one compiled `scopf._SegmentPlan`; `update_segments` reads
the evidence that `scopf.CaseStructure.segment_evidence` takes off an NLP
solution.  `project_response` is `scopf`'s.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .acpf import CaseLayout
from .scopf import (DELTA_MAX, LOWER, MIDDLE, UPPER, OperatingPoint,
                    project_response)

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


class _Families:
    """A contingency's responding and available generator ids, and what a
    generator-outage response reads of the responders: their generator
    indices, alpha and p box.  Compiled once per contingency into its
    outage's `CaseLayout.compiled` (see `of`); no base-point data."""

    @classmethod
    def of(cls, net, k):
        lay = CaseLayout.of(net, k.outaged)
        key = ("families", k)
        fam = lay.compiled.get(key)
        if fam is None:
            fam = lay.compiled[key] = cls(net, k, lay)
        return fam

    def __init__(self, net, k, lay):
        responding = set(k.responding_gens)
        self.available = [g.id for g in net.generators if g.id != k.outaged]
        self.responding = [g for g in self.available if g in responding]
        self.resp = np.array([net.gen_index(g) for g in self.responding],
                             dtype=int)
        self.alpha = lay.alpha[self.resp]
        self.p_min, self.p_max = lay.p_min[self.resp], lay.p_max[self.resp]

    def all_middle(self):
        return ComplementarityState(
            active=dict.fromkeys(self.responding, MIDDLE),
            reactive=dict.fromkeys(self.available, MIDDLE))


def init_default(net, k):
    """All-middle state with zero perturbation (line/transformer outages and
    every reactive family start here)."""
    return _Families.of(net, k).all_middle()


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
    fam = _Families.of(net, k)
    state = fam.all_middle()
    target = LOSS_UPLIFT * base.state.p_gen[net.gen_index(k.outaged)]
    if target <= 0.0 or not fam.responding:
        return state

    p, alpha = base.state.p_gen[fam.resp], fam.alpha
    p_min, p_max = fam.p_min, fam.p_max
    with np.errstate(divide="ignore", invalid="ignore"):
        brk = np.concatenate(((p_min - p) / alpha, (p_max - p) / alpha))
    grid = np.unique(np.concatenate(
        ([0.0, DELTA_MAX], brk[(brk > 0.0) & (brk < DELTA_MAX)])))
    got = (np.clip(p + alpha * grid[:, None], p_min, p_max) - p).sum(axis=1)
    j = int(np.searchsorted(got, target))  # the first breakpoint reaching it
    if j == len(grid):
        state.delta = DELTA_MAX
    elif j == 0:
        state.delta = 0.0
    else:
        share = (got[j] - target) / (got[j] - got[j - 1])
        state.delta = float(max(grid[j - 1], grid[j] - share * (grid[j] - grid[j - 1])))

    desired = p + alpha * state.delta
    for g, above, below in zip(fam.responding, desired > p_max, desired < p_min):
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
