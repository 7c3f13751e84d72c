"""Each demo runs to completion and prints the bytes it printed when recorded."""

import hashlib
import os
import pathlib
import subprocess
import sys

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent

# sha256 of each demo's stdout.
STDOUT_SHA256 = {
    "01_sampling_basics.py": "4e10a1ed7a865900a80f14f6d2d78dacd12db7f63cba770708d6be2ad2e2aea5",
    "02_exact_verification.py": "b41fd65e879ac6d698b5ee8a15bfea4f264c12bf716510284a23c3c94bad9313",
    "03_coupling_and_contraction.py": "e2cac3304bb5da1cfd9fae3fe5fbbf8cea851c7fbf0fb8561ae3fec7e0b548f4",
    "04_bounds_and_gamma.py": "c27141571fe13b6ee0a472474c5f3285ba8671c535cdd6f92a29ecb11c124994",
}


def test_every_demo_is_pinned():
    assert sorted(p.name for p in (ROOT / "demos").glob("*.py")) == sorted(STDOUT_SHA256)


@pytest.mark.parametrize("name", sorted(STDOUT_SHA256))
def test_demo_output(name):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, (str(ROOT / "src"), env.get("PYTHONPATH"))))
    run = subprocess.run([sys.executable, str(ROOT / "demos" / name)], env=env, capture_output=True, timeout=300)
    assert run.returncode == 0, run.stderr.decode()
    assert hashlib.sha256(run.stdout).hexdigest() == STDOUT_SHA256[name]
