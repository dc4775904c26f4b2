"""Network data model, JSON case format, validation and degeneracy preprocessing."""

from __future__ import annotations

import json
from dataclasses import asdict, dataclass, fields, replace

__all__ = [
    "Bus",
    "Generator",
    "Line",
    "Transformer",
    "Contingency",
    "PenaltyConfig",
    "Network",
    "PreprocessReport",
    "CaseError",
    "CaseValidationError",
    "load_case",
    "loads_case",
    "write_case",
    "dumps_case",
    "preprocess",
]

GENERATOR_OUTAGE = "generator-outage"
LINE_OUTAGE = "line-outage"
TRANSFORMER_OUTAGE = "transformer-outage"
CONTINGENCY_KINDS = (GENERATOR_OUTAGE, LINE_OUTAGE, TRANSFORMER_OUTAGE)


class CaseError(Exception):
    """Raised for malformed case files."""


class CaseValidationError(CaseError):
    """Raised when a parsed case violates model invariants.

    Carries every violation found, not just the first one.
    """

    def __init__(self, violations):
        self.violations = list(violations)
        super().__init__("case validation failed:\n" + "\n".join(self.violations))


@dataclass(frozen=True)
class Bus:
    id: str
    v_min: float
    v_max: float
    base_kv: float
    p_load: float = 0.0
    q_load: float = 0.0
    g_fs: float = 0.0
    b_fs: float = 0.0
    bcs_min: float = 0.0
    bcs_max: float = 0.0


@dataclass(frozen=True)
class Generator:
    id: str
    bus: str
    p_min: float
    p_max: float
    q_min: float
    q_max: float
    alpha: float = 1.0
    # Convex piecewise-linear cost: ((quantity_break, marginal_price), ...) with
    # non-decreasing prices; segment j covers output between break j-1 and break j.
    cost_curve: tuple = ()


@dataclass(frozen=True)
class Line:
    id: str
    origin: str
    destination: str
    g: float
    b: float
    b_ch: float
    r_max: float
    r_max_ctg: float


@dataclass(frozen=True)
class Transformer:
    id: str
    origin: str
    destination: str
    g: float
    b: float
    tau: float
    theta_shift: float
    g_mag: float
    b_mag: float
    s_max: float
    s_max_ctg: float


@dataclass(frozen=True)
class Contingency:
    id: str
    kind: str
    outaged: str
    responding_gens: tuple = ()


@dataclass(frozen=True)
class PenaltyConfig:
    breakpoints: tuple = (0.02, 0.1)
    slopes: tuple = (1e3, 5e3, 1e6)


@dataclass(frozen=True)
class Network:
    buses: tuple
    generators: tuple
    lines: tuple
    transformers: tuple
    contingencies: tuple
    penalty_config: PenaltyConfig
    reference_bus: str

    def __post_init__(self):
        object.__setattr__(self, "_bus_index", {b.id: i for i, b in enumerate(self.buses)})
        object.__setattr__(self, "_gen_index", {g.id: i for i, g in enumerate(self.generators)})
        object.__setattr__(self, "_ctg_index", {k.id: i for i, k in enumerate(self.contingencies)})
        # outage -> compiled `acpf.CaseLayout`, filled by `CaseLayout.of`
        object.__setattr__(self, "_layouts", {})

    def bus_index(self, bus_id):
        return self._bus_index[bus_id]

    def gen_index(self, gen_id):
        return self._gen_index[gen_id]

    def contingency(self, ctg_id):
        return self.contingencies[self._ctg_index[ctg_id]]

    @property
    def branches(self):
        """Lines followed by transformers, the canonical branch ordering."""
        return self.lines + self.transformers


@dataclass(frozen=True)
class PreprocessReport:
    # Groups of parallel line/transformer ids whose rating constraints are
    # redundant while all members are in service; first id is the
    # representative that keeps its constraint.  When a member of a group is
    # outaged, every surviving member must keep its rating constraint.
    line_rating_groups: tuple = ()
    xf_rating_groups: tuple = ()
    # Contingency ids removed as trivially redundant, with the kept id:
    # (removed_id, kept_id).
    removed_contingencies: tuple = ()

    def skip_rating_ids(self, outaged=None):
        """Branch ids whose rating rows may be dropped when `outaged` is out.

        A non-representative member is droppable only if no member of its
        group is the outaged component.
        """
        skip = set()
        for groups in (self.line_rating_groups, self.xf_rating_groups):
            for grp in groups:
                if outaged is not None and outaged in grp:
                    continue
                skip.update(grp[1:])
        return skip


# A case document holds one list per record type, under the name of the
# `Network` field that holds those records.  A record's keys are its field
# names, except for the renames below.
_RECORDS = {"buses": Bus, "generators": Generator, "lines": Line,
            "transformers": Transformer, "contingencies": Contingency}
_RENAMED = {"cost_curve": "cost"}

# Numbers that a record may omit, with their defaults; every other number
# is required.
_OPTIONAL = {
    Bus: {"p_load": 0.0, "q_load": 0.0, "g_fs": 0.0, "b_fs": 0.0,
          "bcs_min": 0.0, "bcs_max": 0.0},
    Generator: {"alpha": 1.0},
    Line: {"b_ch": 0.0},
    Transformer: {"tau": 1.0, "theta_shift": 0.0, "g_mag": 0.0, "b_mag": 0.0},
}
# An omitted emergency rating is the normal rating, when that is set.
_EMERGENCY = {"r_max_ctg": "r_max", "s_max_ctg": "s_max"}


def _is_number(val):
    return isinstance(val, (int, float)) and not isinstance(val, bool)


def _num(obj, key, where, errors, default=None):
    if key not in obj:
        if default is not None:
            return default
        errors.append(f"{where}: missing field '{key}'")
        return 0.0
    val = obj[key]
    if not _is_number(val):
        errors.append(f"{where}: field '{key}' is not a number")
        return 0.0
    return float(val)


def _list(obj, key, where, errors):
    val = obj.get(key, [])
    if not isinstance(val, list):
        errors.append(f"{where}: field '{key}' is not a list")
        return []
    return val


def _numbers(obj, key, where, errors, default):
    vals = obj.get(key, default)
    if not (isinstance(vals, (list, tuple)) and all(map(_is_number, vals))):
        errors.append(f"{where}: field '{key}' is not a list of numbers")
        return default
    return tuple(float(x) for x in vals)


def _cost_curve(cost, where, errors):
    curve = []
    for seg in cost:
        if not (isinstance(seg, list) and len(seg) == 2
                and all(map(_is_number, seg))):
            errors.append(f"{where}: cost segments must be [quantity, price] pairs")
            continue
        curve.append((float(seg[0]), float(seg[1])))
    return tuple(curve)


def _load_record(cls, raw, errors):
    """One record of type `cls` from its JSON object, field by field in
    declaration order; problems are appended to `errors`."""
    rid = str(raw.get("id", "?"))
    where = f"{cls.__name__.lower()} {rid}"
    vals = {"id": rid}
    for f in fields(cls)[1:]:
        key = _RENAMED.get(f.name, f.name)
        if f.type == "str":
            vals[f.name] = str(raw.get(key, ""))
        elif f.type == "float":
            default = _OPTIONAL.get(cls, {}).get(f.name)
            if f.name in _EMERGENCY:
                default = vals[_EMERGENCY[f.name]] or None
            vals[f.name] = _num(raw, key, where, errors, default)
        elif f.name == "cost_curve":
            vals[f.name] = _cost_curve(_list(raw, key, where, errors), where, errors)
        else:
            vals[f.name] = tuple(str(x) for x in _list(raw, key, where, errors))
    return cls(**vals)


def loads_case(text):
    """Parse a JSON case document into a validated Network."""
    try:
        doc = json.loads(text)
    except json.JSONDecodeError as exc:
        raise CaseError(f"malformed case file: {exc}") from exc
    if not isinstance(doc, dict):
        raise CaseError("malformed case file: top level must be an object")

    errors = []
    records = {}
    for key, cls in _RECORDS.items():
        raws = _list(doc, key, "case", errors)
        if not all(isinstance(raw, dict) for raw in raws):
            errors.append(f"case: field '{key}' holds a record that is not an object")
            raws = [raw for raw in raws if isinstance(raw, dict)]
        records[key] = tuple(_load_record(cls, raw, errors) for raw in raws)
    pen = doc.get("penalty", {})
    if not isinstance(pen, dict):
        errors.append("case: field 'penalty' is not an object")
        pen = {}
    penalty = PenaltyConfig(**{
        f.name: _numbers(pen, f.name, "penalty", errors, f.default)
        for f in fields(PenaltyConfig)})
    net = Network(**records, penalty_config=penalty,
                  reference_bus=str(doc.get("reference_bus", "")))
    errors.extend(validate(net))
    if errors:
        raise CaseValidationError(errors)
    return net


def load_case(path):
    """Load and validate a JSON case file."""
    with open(path, encoding="utf-8") as fh:
        return loads_case(fh.read())


def dumps_case(net):
    doc = {key: [{_RENAMED.get(k, k): v for k, v in asdict(rec).items()}
                 for rec in getattr(net, key)]
           for key in _RECORDS}
    doc["penalty"] = asdict(net.penalty_config)
    doc["reference_bus"] = net.reference_bus
    return json.dumps(doc, indent=1, sort_keys=True)


def write_case(net, path):
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps_case(net))


def validate(net):
    """Return the list of invariant violations for a Network (empty if valid)."""
    errors = []
    bus_ids = set()
    for b in net.buses:
        if b.id in bus_ids:
            errors.append(f"bus {b.id}: duplicate id")
        bus_ids.add(b.id)
        if not b.v_min > 0:
            errors.append(f"bus {b.id}: v_min > 0 violated (v_min={b.v_min})")
        if b.v_min > b.v_max:
            errors.append(f"bus {b.id}: v_min <= v_max violated")
        if b.bcs_min > b.bcs_max:
            errors.append(f"bus {b.id}: bcs_min <= bcs_max violated")

    gen_ids = set()
    for g in net.generators:
        if g.id in gen_ids:
            errors.append(f"generator {g.id}: duplicate id")
        gen_ids.add(g.id)
        if g.bus not in bus_ids:
            errors.append(f"generator {g.id}: unknown bus '{g.bus}'")
        if g.p_min > g.p_max:
            errors.append(f"generator {g.id}: p_min <= p_max violated")
        if g.q_min > g.q_max:
            errors.append(f"generator {g.id}: q_min <= q_max violated")
        if g.alpha < 0:
            errors.append(f"generator {g.id}: alpha >= 0 violated")
        prev_q = 0.0
        prev_price = None
        for q, price in g.cost_curve:
            if q < prev_q:
                errors.append(f"generator {g.id}: cost quantity breaks must increase")
                break
            if prev_price is not None and price < prev_price:
                errors.append(f"generator {g.id}: cost marginal prices must be non-decreasing")
                break
            prev_q, prev_price = q, price
        if g.cost_curve and g.cost_curve[-1][0] < g.p_max:
            errors.append(f"generator {g.id}: cost curve must cover p_max")

    branch_ids = set()
    for e in net.lines:
        if e.id in branch_ids:
            errors.append(f"line {e.id}: duplicate id")
        branch_ids.add(e.id)
        for end in (e.origin, e.destination):
            if end not in bus_ids:
                errors.append(f"line {e.id}: unknown bus '{end}'")
        if e.origin == e.destination:
            errors.append(f"line {e.id}: origin != destination violated")
        if not e.r_max > 0:
            errors.append(f"line {e.id}: r_max > 0 violated")
        if e.r_max_ctg < e.r_max:
            errors.append(f"line {e.id}: r_max_ctg >= r_max violated")

    for f in net.transformers:
        if f.id in branch_ids:
            errors.append(f"transformer {f.id}: duplicate id")
        branch_ids.add(f.id)
        for end in (f.origin, f.destination):
            if end not in bus_ids:
                errors.append(f"transformer {f.id}: unknown bus '{end}'")
        if f.origin == f.destination:
            errors.append(f"transformer {f.id}: origin != destination violated")
        if not f.tau > 0:
            errors.append(f"transformer {f.id}: tau > 0 violated")
        if not f.s_max > 0:
            errors.append(f"transformer {f.id}: s_max > 0 violated")
        if f.s_max_ctg < f.s_max:
            errors.append(f"transformer {f.id}: s_max_ctg >= s_max violated")

    ctg_ids = set()
    for k in net.contingencies:
        if k.id in ctg_ids:
            errors.append(f"contingency {k.id}: duplicate id")
        ctg_ids.add(k.id)
        if k.kind not in CONTINGENCY_KINDS:
            errors.append(f"contingency {k.id}: unknown kind '{k.kind}'")
        elif k.kind == GENERATOR_OUTAGE:
            if k.outaged not in gen_ids:
                errors.append(f"contingency {k.id}: unknown generator '{k.outaged}'")
        elif k.kind == LINE_OUTAGE:
            if k.outaged not in {e.id for e in net.lines}:
                errors.append(f"contingency {k.id}: unknown line '{k.outaged}'")
        else:
            if k.outaged not in {f.id for f in net.transformers}:
                errors.append(f"contingency {k.id}: unknown transformer '{k.outaged}'")
        for g in k.responding_gens:
            if g not in gen_ids:
                errors.append(f"contingency {k.id}: unknown responding generator '{g}'")
            elif k.kind == GENERATOR_OUTAGE and g == k.outaged:
                errors.append(f"contingency {k.id}: responding generator '{g}' is the outaged unit")

    pc = net.penalty_config
    if any(b2 <= b1 for b1, b2 in zip(pc.breakpoints, pc.breakpoints[1:])):
        errors.append("penalty: breakpoints must be strictly increasing")
    if any(s2 <= s1 for s1, s2 in zip(pc.slopes, pc.slopes[1:])):
        errors.append("penalty: slopes must be strictly increasing")
    if len(pc.slopes) != len(pc.breakpoints) + 1:
        errors.append("penalty: need exactly one more slope than breakpoints")

    if net.reference_bus not in bus_ids:
        errors.append(f"reference bus '{net.reference_bus}' not found")

    if net.buses and not _connected(net):
        errors.append("network graph is not connected")

    return errors


def _connected(net):
    adj = {b.id: set() for b in net.buses}
    for br in net.branches:
        if br.origin in adj and br.destination in adj:
            adj[br.origin].add(br.destination)
            adj[br.destination].add(br.origin)
    seen = {net.buses[0].id}
    stack = [net.buses[0].id]
    while stack:
        for nb in adj[stack.pop()]:
            if nb not in seen:
                seen.add(nb)
                stack.append(nb)
    return len(seen) == len(net.buses)


def _line_elec_key(e):
    pair = tuple(sorted((e.origin, e.destination)))
    return (pair, e.g, e.b, e.b_ch, e.r_max, e.r_max_ctg)


def _xf_elec_key(f):
    # the tap sits on the origin side, so a reversed transformer differs
    return ((f.origin, f.destination), f.g, f.b, f.tau, f.theta_shift, f.g_mag,
            f.b_mag, f.s_max, f.s_max_ctg)


def _gen_elec_key(g):
    return (g.bus, g.p_min, g.p_max, g.q_min, g.q_max, g.alpha, g.cost_curve)


def _groups(records, key):
    """Sorted id groups of the records that share a key, two or more each."""
    groups = {}
    for r in records:
        groups.setdefault(key(r), []).append(r.id)
    return tuple(sorted(tuple(sorted(ids)) for ids in groups.values() if len(ids) > 1))


def preprocess(net):
    """Mark redundant rating rows; drop redundant contingencies.

    Returns ``(new_network, report)``.  Pure and idempotent: the network is
    only changed by removing trivially redundant contingencies.
    """
    line_rating_groups = _groups(net.lines, _line_elec_key)
    xf_rating_groups = _groups(net.transformers, _xf_elec_key)

    # Trivially redundant contingencies: outages of components with identical
    # electrical parameters (and identical responding sets).  Keep the
    # lexicographically smallest contingency id of each class.
    elec_key = {}
    for e in net.lines:
        elec_key[(LINE_OUTAGE, e.id)] = _line_elec_key(e)
    for f in net.transformers:
        elec_key[(TRANSFORMER_OUTAGE, f.id)] = _xf_elec_key(f)
    for g in net.generators:
        elec_key[(GENERATOR_OUTAGE, g.id)] = _gen_elec_key(g)
    classes = _groups(net.contingencies, lambda k: (
        k.kind, elec_key.get((k.kind, k.outaged)), tuple(sorted(k.responding_gens))))
    removed = [(rid, ids[0]) for ids in classes for rid in ids[1:]]
    removed_ids = {rid for rid, _ in removed}

    new_net = net
    if removed_ids:
        new_net = replace(
            net,
            contingencies=tuple(k for k in net.contingencies if k.id not in removed_ids),
        )

    report = PreprocessReport(
        line_rating_groups=line_rating_groups,
        xf_rating_groups=xf_rating_groups,
        removed_contingencies=tuple(sorted(removed)),
    )
    return new_net, report
