"""The benchmark's tracer, ``perfbench/layers.py``, wraps ``scacopf``
functions at the names that modules look them up by.  A rename, or a call
that stops going through those names, would silently drop spans from traced
benchmark runs; this check runs the tracer on a code1 run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# run in a child process: `layers.install` patches the package for good
TRACED_CODE1 = """
import json, sys
import layers
from spans import Tracer
tracer = Tracer()
layers.install(tracer)
from scacopf import orchestrator as orch
from scacopf.cli import generate_case
orch.run_code1(generate_case(14, 3), orch.RunConfig(
    code1_time_limit=100.0, deterministic=True, output_dir=sys.argv[1]))
print(json.dumps(tracer.spans))
"""


def test_benchmark_tracer_records_the_evaluation_engines(tmp_path):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        (str(ROOT / "src"), str(ROOT / "perfbench"))))
    proc = subprocess.run([sys.executable, "-c", TRACED_CODE1, str(tmp_path)],
                          env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    spans = json.loads(proc.stdout.splitlines()[-1])
    names = {span[0] for span in spans}
    assert {"eval.fast", "eval.full", "eval.prescreen"} <= names
    # the fast engine's square system, whose per-call times the screening
    # workload reports
    assert {"eval.square.residual", "eval.square.jacobian", "nlp.square"} <= names
    # the segment projection and update, looked up in `compl` wherever
    # they are defined
    assert {"compl.project_response", "compl.update_segments"} <= names
    # the ranking and the selection path, wrapped by name
    assert {"ranking.rank", "select.resort", "select.select_top"} <= names
    # the interior-point solves and the `NlpProblem` callbacks, wrapped by
    # name: each base iteration evaluates the equality and the inequality
    # Jacobian once
    assert {"nlp.base", "nlp.ctg", "nlp.master", "scopf.base.jac",
            "scopf.ctg.hess"} <= names
    jac_calls = sum(span[0] == "scopf.base.jac" for span in spans)
    base_iterations = sum(span[4]["iterations"] for span in spans
                          if span[0] == "nlp.base")
    assert jac_calls == 2 * base_iterations
