import os
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = Path(__file__).parent / "golden"
DEMOS = sorted(p.name for p in (ROOT / "demos").glob("0*.py"))


@pytest.mark.parametrize("demo", DEMOS)
def test_demo_stdout_golden(demo):
    """Each demo's stdout, byte for byte against
    tests/golden/demo_<name>.out; rewrite those files only for an intended
    change of the output."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        [str(ROOT / "src")] + [p for p in [env.get("PYTHONPATH")] if p])
    env.pop("TORUSORBITS_PRECISION", None)
    proc = subprocess.run([sys.executable, str(ROOT / "demos" / demo)],
                          env=env, capture_output=True, timeout=300)
    assert proc.returncode == 0, proc.stderr.decode()
    golden = GOLDEN / f"demo_{demo[:-3]}.out"
    assert proc.stdout == golden.read_bytes()
