"""Solution-file codec: base and contingency solutions as JSON files.

A base solution holds its tag, every bus's v, theta and bcs and every
generator's p and q, plus the objective and penalty it was written with; a
contingency solution holds the same point, the contingency id, its base tag,
the response perturbation, the segment states and the penalty, method and
status of its evaluation.  Flows and slacks are never stored: a loader
recomputes them from the voltages under the file's outage.  Files are
written atomically.  A loader raises ValueError, naming the file, for one
that is not JSON, not a JSON object, or lacks a field it reads or holds it
with the wrong type.

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
from .scopf import LOWER, MIDDLE, UPPER, reprice

__all__ = [
    "write_base_solution",
    "load_base_solution",
    "write_contingency_solution",
    "load_contingency_solution",
]


_NUMBER = (int, float)


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


def _load(path, fields, parse):
    """(data, parse(data)) of the JSON object data in file path.  ValueError,
    naming the file, for a document that is not a JSON object, lacks one of
    `fields` (name -> type) or holds it with another type, has a "penalty"
    that is not a number, or has an entry that `parse` cannot read (a
    KeyError, TypeError, ValueError or AttributeError of its)."""
    with open(path) as fh:
        try:
            data = json.load(fh)
        except json.JSONDecodeError as exc:
            raise ValueError(f"{path}: {exc}") from None
    if not isinstance(data, dict):
        raise ValueError(f"{path}: a solution file is a JSON object")
    for name, kind in {**fields, "penalty": _NUMBER}.items():
        value = data.get(name, 0.0 if name == "penalty" else None)
        if isinstance(value, bool) or not isinstance(value, kind):
            raise ValueError(f"{path}: field {name!r} is missing or of the "
                             "wrong type")
    try:
        return data, parse(data)
    except (KeyError, TypeError, ValueError, AttributeError) as exc:
        raise ValueError(f"{path}: missing or malformed entry: {exc}") from None


def _state_of_payload(net, data):
    """The flow state of a file's bus and gen entries, with zero flows."""
    def rows(table, ids, keys):
        values = np.array([[table[i][key] for key in keys] for i in ids], dtype=float)
        return values.reshape(len(ids), len(keys)).T.copy()

    v, theta, bcs = rows(data["bus"], [b.id for b in net.buses], ("v", "theta", "bcs"))
    p_gen, q_gen = rows(data["gen"], [g.id for g in net.generators], ("p", "q"))
    return FlowState(v=v, theta=theta, bcs=bcs, p_gen=p_gen, q_gen=q_gen,
                     flows=np.zeros((len(net.branches), 4)))


def write_base_solution(path, net, point, tag, objective, penalty):
    payload = {"tag": int(tag), **_point_payload(net, point),
               "objective": float(objective), "penalty": float(penalty)}
    _atomic_write(path, json.dumps(payload, indent=2) + "\n")


def load_base_solution(path, net):
    data, state = _load(path, {"tag": int, "bus": dict, "gen": dict},
                        lambda data: _state_of_payload(net, data))
    return reprice(net, state)[0], data["tag"], data


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
    def parse(data):
        segments = data["segments"]
        st = ComplementarityState(
            active={g: _SEG_FROM_LETTER[s] for g, s in segments["active"].items()},
            reactive={g: _SEG_FROM_LETTER[s] for g, s in segments["reactive"].items()},
            delta=float(data["delta_k"]))
        return net.contingency(data["contingency"]), _state_of_payload(net, data), st

    data, (k, state, st) = _load(
        path, {"contingency": str, "delta_k": _NUMBER, "segments": dict,
               "bus": dict, "gen": dict}, parse)
    return reprice(net, state, k.outaged, st.delta)[0], st, data
