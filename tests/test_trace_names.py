"""The per-layer tracer in ``perfbench`` still produces every metric that
``BENCHMARK.json`` names, so deleting a traced public function shows up here
and not as a failed benchmark run."""

import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent

# Tracer.install rebinds module globals, so it runs in its own interpreter
SCRIPT = """
import json
from perfbench.trace import Tracer

tracer = Tracer()
tracer.install()
print(json.dumps(sorted(tracer.metrics())))
"""


def test_tracer_produces_every_per_layer_metric():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT), env.get("PYTHONPATH"))))
    proc = subprocess.run(
        [sys.executable, "-c", SCRIPT], cwd=ROOT, env=env, capture_output=True, text=True
    )
    assert proc.returncode == 0, proc.stderr
    produced = set(json.loads(proc.stdout))
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = {m["name"] for m in spec["per_layer"] if not m["name"].startswith("trace.")}
    assert wanted and wanted <= produced, sorted(wanted - produced)
