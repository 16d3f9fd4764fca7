"""Smoke runs of the two maintenance scripts under scripts/."""
import os
import re
import subprocess
import sys

ROOT = os.path.abspath(os.path.join(os.path.dirname(__file__), os.pardir))


def _run(script, *args):
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (os.path.join(ROOT, "src"), env.get("PYTHONPATH")) if p)
    return subprocess.run([sys.executable, os.path.join(ROOT, "scripts", script), *args],
                          capture_output=True, text=True, env=env, timeout=120)


def test_run_verify_small_soak():
    proc = _run("run_verify.py", "--count", "2", "--strict-count", "1", "--workers", "1")
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 6      # fast and strict pass for each of three styles
    assert all(re.search(r"maxWF=\s*\d+ maxSeg=\d+ .*mismatches=0$", line) for line in lines)


def test_render_case_gallery(tmp_path):
    proc = _run("render_case_gallery.py", "--out", str(tmp_path))
    assert proc.returncode == 0, proc.stdout + proc.stderr
    frames = {name: len(os.listdir(tmp_path / name))
              for name in ("collinear_climb", "interior_insertions", "order_trap", "squares")}
    assert frames == {"collinear_climb": 3, "interior_insertions": 10,
                      "order_trap": 2, "squares": 3}
