"""Every demo runs to the end and prints exactly the output it printed when its
digest was recorded, so a changed library signature cannot break one silently."""

import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

DEMOS = Path(__file__).resolve().parent.parent / "demos"

STDOUT_SHA256 = {
    "01_places_and_heights.py": "320ebd403f5db92d378008442274232f977568e73a4eaa6ad9a2f49a9a556af5",
    "02_tree_geometry.py": "895f3278bbe87b84403bfb01d2eadd086d311d3afa79b872041da3528e44fc5b",
    "03_segment_energies.py": "0458b05ebd95a79d78135b0f4ff6a4677e960d5a5ebeb9b909a8739743740e15",
    "04_lattes_equilibrium.py": "7c1c1431d7861f4bd07ac18c2cb7ffa1166d17ce291dbb8b922171c39d6c211f",
    "05_archimedean_monte_carlo.py": "b2466ff63b8798d2031a1aad108876e4e50819e69f34563f136677ef782b00f8",
    "06_adelic_energies_and_scans.py": "02e28fab5d11da7f3067ab8062ee56a78e1afe9c25293e0dcc6ee2335fb3f02e",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in DEMOS.glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_stdout_pinned(name):
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(sys.path)}
    proc = subprocess.run(
        [sys.executable, str(DEMOS / name)], env=env, capture_output=True, timeout=300, check=True
    )
    assert hashlib.sha256(proc.stdout).hexdigest() == STDOUT_SHA256[name]
