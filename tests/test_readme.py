"""README's examples run as written: the python quick start in a fresh
interpreter, and the example config for every experiment kind."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

from specvi.harness import EXPERIMENT_KINDS, ExperimentConfig

ROOT = Path(__file__).resolve().parents[1]


def _fenced(text, lang):
    return re.findall(rf"^```{lang}\n(.*?)^```", text, re.M | re.S)


def test_readme_examples_run(tmp_path):
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    (quick_start,) = _fenced(readme, "python")
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    run = subprocess.run(
        [sys.executable, "-c", quick_start],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=path),
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert run.returncode == 0, run.stderr
    assert run.stdout.splitlines()[0] == "RunStatus.CONVERGED"

    (example,) = _fenced(readme, "json")
    for kind in EXPERIMENT_KINDS:
        assert ExperimentConfig.from_dict(dict(json.loads(example), kind=kind)).kind == kind
