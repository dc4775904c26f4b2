"""Digest every output that a behaviour-preserving change must keep.

    PYTHONPATH=$TREE/src python3 tools/same_outputs.py OUT

runs the ``scacopf`` package found on PYTHONPATH and writes its working
files to the new directory OUT, and one ``sha256  artefact`` line per
artefact to OUT/digests.txt and to stdout:

* every file of a deterministic 14-bus pass: ``gen-case --n-bus 14 --seed
  3``, ``code1 --deterministic --time-limit 100``, ``code2
  --deterministic`` on its base solution, and ``score`` of the two
  (``run_log.jsonl`` and the score report included);
* the ``harness compl-ablation`` CSV on 8 and 14 buses and the ``harness
  selection-ablation`` CSV on 8 buses;
* one digest over 720 ``fast_evaluate`` results on 30 buses: the 12 base
  points that ``perfbench/child.py base`` writes (``--points 12
  --points-seed 3``), times every contingency, times the cutoffs
  ``default_cutoff``, 0 and infinity.  Each result adds its state arrays,
  ``point.slack_vector()``, penalty, status, segments and ``compl.delta``;
* the interior point where SuperLU forms supernodes: a flat-start base
  solve of ``gen-case --n-bus 300 --seed 3`` (preprocessed, tol 1e-8; its
  ``x``, status, iterations, LUs and GMRES calls);
* the square solves that SuperLU factors (more rows than a dense LU
  takes): ``fast_evaluate`` of the first 10 contingencies at that solved
  300-bus base, at the cutoffs ``default_cutoff`` and infinity, with the
  screening digest's fields;
* ``full_evaluate`` of the 30-bus contingencies KG10, KL14 and KT21 at
  the solved 30-bus base (the screening digest's fields plus every round's
  NLP record).

Run it once per tree into two directories; the trees' outputs are the same
when ``diff`` of the two ``digests.txt`` is empty.  The tool reads only
names that have kept their meaning across versions of the package, so one
copy of it checks an older tree as well as a newer one.  It takes about
six seconds on a 2-core machine.
"""

from __future__ import annotations

import glob
import hashlib
import math
import os
import subprocess
import sys

import numpy as np

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def scacopf(*argv, cwd):
    subprocess.run([sys.executable, "-m", "scacopf.cli", *argv], cwd=cwd,
                   check=True, stdout=subprocess.DEVNULL)


def file_digest(path):
    with open(path, "rb") as fh:
        return hashlib.sha256(fh.read()).hexdigest()


def result_digest(h, res):
    """Add one evaluation result's penalty, status, segments, delta, state
    arrays and slack vector to the sha256 h."""
    st, c = res.point.state, res.compl
    h.update(repr((res.penalty, res.status, sorted(c.active.items()),
                   sorted(c.reactive.items()), c.delta)).encode())
    for a in (st.v, st.theta, st.bcs, st.p_gen, st.q_gen, st.flows,
              res.point.slack_vector()):
        h.update(np.ascontiguousarray(a, dtype=float).tobytes())


def screening_digest(out):
    """sha256 over the fast evaluations of every contingency of the 30-bus
    case at each screening point, at three cutoffs."""
    from scacopf.case_model import load_case
    from scacopf.eval import default_cutoff, fast_evaluate
    from scacopf.solution_files import load_base_solution

    os.makedirs(os.path.join(out, "pts"))
    subprocess.run([sys.executable, os.path.join(ROOT, "perfbench", "child.py"),
                    "base", "c30.json", "pts", "--points", "12",
                    "--points-seed", "3"],
                   cwd=out, check=True, stdout=subprocess.DEVNULL)
    net = load_case(os.path.join(out, "c30.json"))
    points = [load_base_solution(os.path.join(out, "pts", f"base_solution_{i}.json"),
                                 net)[0] for i in range(1, 13)]
    h, count = hashlib.sha256(), 0
    for point in points:
        for k in net.contingencies:
            for cutoff in (default_cutoff(net), 0.0, math.inf):
                result_digest(h, fast_evaluate(net, k, point, cutoff=cutoff,
                                               deterministic=True))
                count += 1
    return h.hexdigest(), f"fast_evaluate[{count}]"


def nlp_digests(out):
    """sha256 of the 300-bus flat-start base solve, of the fast evaluations
    of its first 10 contingencies at the solved 300-bus base, and of the full
    evaluations of three 30-bus contingencies at the solved 30-bus base."""
    from scacopf.case_model import load_case, preprocess
    from scacopf.eval import default_cutoff, fast_evaluate, full_evaluate
    from scacopf.nlp import solve_nlp
    from scacopf.orchestrator import flat_start, solve_base
    from scacopf.scopf import build_base_problem

    net, report = preprocess(load_case(os.path.join(out, "c300.json")))
    prob = build_base_problem(net, report, start=flat_start(net))
    sol = solve_nlp(prob, tol=1e-8)
    h = hashlib.sha256(repr((sol.status, sol.iterations, sol.lus,
                             sol.gmres_calls)).encode())
    h.update(sol.x.tobytes())
    lines = [f"{h.hexdigest()}  base_solve[300]"]

    base, h = prob.meta.extract_base(sol.x), hashlib.sha256()
    for k in net.contingencies[:10]:
        for cutoff in (default_cutoff(net), math.inf):
            result_digest(h, fast_evaluate(net, k, base, cutoff=cutoff,
                                           deterministic=True))
    lines.append(f"{h.hexdigest()}  fast_evaluate[300: 10 x 2]")

    net, _, base = solve_base(load_case(os.path.join(out, "c30.json")))[:3]
    h = hashlib.sha256()
    for cid in ("KG10", "KL14", "KT21"):
        res = full_evaluate(net, net.contingency(cid), base, deterministic=True)
        h.update(repr((cid, res.nlp)).encode())
        result_digest(h, res)
    lines.append(f"{h.hexdigest()}  full_evaluate[30: KG10 KL14 KT21]")
    return lines


def main(argv):
    if len(argv) != 1:
        print("usage: PYTHONPATH=$TREE/src python3 tools/same_outputs.py OUT",
              file=sys.stderr)
        return 2
    out = os.path.abspath(argv[0])
    os.makedirs(out)
    for n_bus, seed in ((8, 5), (14, 3), (30, 3), (300, 3)):
        scacopf("gen-case", "--n-bus", str(n_bus), "--seed", str(seed),
                "--output", f"c{n_bus}.json", cwd=out)
    scacopf("code1", "--case", "c14.json", "--deterministic", "--time-limit", "100",
            "--output-dir", "p14", cwd=out)
    scacopf("code2", "--case", "c14.json", "--deterministic",
            "--base", "p14/base_solution.json", "--output-dir", "p14/c2", cwd=out)
    scacopf("score", "--case", "c14.json", "--base", "p14/base_solution.json",
            "--solutions", "p14/c2", "--output", "score.json", cwd=out)
    scacopf("harness", "compl-ablation", "c8.json", "c14.json",
            "--output", "compl.csv", cwd=out)
    scacopf("harness", "selection-ablation", "c8.json", "--output", "sel.csv", cwd=out)

    files = sorted(glob.glob("p14/**/*", root_dir=out, recursive=True))
    files = [f for f in files if os.path.isfile(os.path.join(out, f))]
    lines = [f"{file_digest(os.path.join(out, f))}  {f}"
             for f in ["c8.json", "c14.json", "c30.json", "c300.json", *files,
                       "score.json", "compl.csv", "sel.csv"]]
    lines.append("%s  %s" % screening_digest(out))
    lines += nlp_digests(out)
    text = "\n".join(lines) + "\n"
    with open(os.path.join(out, "digests.txt"), "w") as fh:
        fh.write(text)
    sys.stdout.write(text)
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
