"""The quick demo runs end to end as a script.

Demos 02 and 03 take about a minute each and are left to be run by hand.
"""

import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_demo_01_train_reference_model(tmp_path):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(ROOT / "src"), env.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, str(ROOT / "demos" / "01_train_reference_model.py")],
        cwd=tmp_path, env=env, capture_output=True, text=True, timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    assert "sampled twice, identical: True" in proc.stdout
    assert "checkpoint round trip ok: True" in proc.stdout
    assert (tmp_path / "reference.qstb").is_file()
