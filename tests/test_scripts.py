"""`scripts/process_times.py` runs to completion, and every `scripts/`,
`configs/` and `tests/` path that README.md names exists."""

import json
import os
import re
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]

# a path under scripts/, configs/ or tests/ that is not part of a longer
# path; a glob such as configs/*.json is not one
README_PATH = re.compile(r"(?<![\w/.])(?:scripts|configs|tests)/[\w./-]*\w")


def test_process_times_prints_one_json_line_per_run():
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    proc = subprocess.run([sys.executable, str(ROOT / "scripts" / "process_times.py"),
                           "--repeats", "1", str(ROOT / "configs" / "radial.json")],
                          capture_output=True, text=True, env=env, timeout=300)
    assert proc.returncode == 0, proc.stderr
    lines = [json.loads(line) for line in proc.stdout.splitlines()]
    assert [(r["config"], r["run"], r["exit_code"]) for r in lines] == [("radial", 0, 0)]
    assert sorted(lines[0]) == ["config", "exit_code", "run", "wall_s"]
    assert lines[0]["wall_s"] > 0.0


def test_every_path_the_readme_names_exists():
    named = set(README_PATH.findall((ROOT / "README.md").read_text(encoding="utf-8")))
    # the pattern finds the paths of each kind
    assert {"scripts/process_times.py", "configs/disk_verify.json",
            "tests/test_acceptance.py"} <= named
    assert sorted(path for path in named if not (ROOT / path).exists()) == []
