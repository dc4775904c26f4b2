"""Solution-file codec: base and contingency solutions as JSON files.

A base solution holds its tag, every bus's v, theta and bcs and every
generator's p and q, plus the objective and penalty it was written with; a
contingency solution holds the same point, the contingency id, its base tag,
the response perturbation, the segment states and the penalty, method and
status of its evaluation.  Flows and slacks are never stored: a loader
recomputes them from the voltages under the file's outage.  Files are
written atomically.

This module needs numpy and the pricing in `scopf` only, so ``score``, which
reads and prices solution files, loads no solver module.
"""

from __future__ import annotations

import json
import os
import tempfile

import numpy as np

from .acpf import FlowState
from .compl import ComplementarityState
from .scopf import LOWER, MIDDLE, UPPER, flows_from_state, slacks_from_state

__all__ = [
    "write_base_solution",
    "load_base_solution",
    "write_contingency_solution",
    "load_contingency_solution",
]


def _atomic_write(path, text):
    """Write-then-rename so readers never observe a torn file."""
    directory = os.path.dirname(os.path.abspath(path))
    fd, tmp = tempfile.mkstemp(dir=directory, prefix=".tmp-scacopf-")
    try:
        with os.fdopen(fd, "w") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _point_payload(net, point):
    return {
        "bus": {b.id: {"v": float(point.state.v[i]),
                       "theta": float(point.state.theta[i]),
                       "bcs": float(point.state.bcs[i])}
                for i, b in enumerate(net.buses)},
        "gen": {g.id: {"p": float(point.state.p_gen[gi]),
                       "q": float(point.state.q_gen[gi])}
                for gi, g in enumerate(net.generators)},
    }


def _point_from_payload(net, data, outaged=None, delta=0.0):
    state = FlowState(
        v=np.array([data["bus"][b.id]["v"] for b in net.buses]),
        theta=np.array([data["bus"][b.id]["theta"] for b in net.buses]),
        bcs=np.array([data["bus"][b.id]["bcs"] for b in net.buses]),
        p_gen=np.array([data["gen"][g.id]["p"] for g in net.generators]),
        q_gen=np.array([data["gen"][g.id]["q"] for g in net.generators]),
        flows=np.zeros((len(net.branches), 4)),
    )
    state = flows_from_state(net, state, outaged)
    return slacks_from_state(net, state, outaged, delta=delta)


def write_base_solution(path, net, point, tag, objective, penalty):
    payload = {"tag": int(tag), **_point_payload(net, point),
               "objective": float(objective), "penalty": float(penalty)}
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def load_base_solution(path, net):
    with open(path) as fh:
        data = json.load(fh)
    point = _point_from_payload(net, data)
    return point, int(data["tag"]), data


_SEG_LETTER = {LOWER: "L", MIDDLE: "M", UPPER: "U"}
_SEG_FROM_LETTER = {v: k for k, v in _SEG_LETTER.items()}


def write_contingency_solution(path, net, result):
    st = result.compl
    payload = {
        "contingency": result.contingency_id,
        "base_tag": result.base_tag,
        "delta_k": float(st.delta),
        "segments": {
            "active": {g: _SEG_LETTER[s] for g, s in sorted(st.active.items())},
            "reactive": {g: _SEG_LETTER[s]
                         for g, s in sorted(st.reactive.items())},
        },
        **_point_payload(net, result.point),
        "penalty": float(result.penalty),
        "method": result.method,
        "status": result.status,
    }
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def load_contingency_solution(path, net):
    with open(path) as fh:
        data = json.load(fh)
    k = net.contingency(data["contingency"])
    point = _point_from_payload(net, data, outaged=k.outaged,
                                delta=float(data["delta_k"]))
    st = ComplementarityState(
        active={g: _SEG_FROM_LETTER[s]
                for g, s in data["segments"]["active"].items()},
        reactive={g: _SEG_FROM_LETTER[s]
                  for g, s in data["segments"]["reactive"].items()},
        delta=float(data["delta_k"]),
    )
    return point, st, data
