import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def _run_discover_fixtures(*args):
    """Run the fixture script; assert it passes seven OK rows."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "discover_fixtures.py"),
         *args], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(" OK") for line in lines), proc.stdout


def test_discover_fixtures_verify_only():
    """The fixture script re-verifies all seven committed rows."""
    _run_discover_fixtures("--verify-only")


def test_discover_fixtures_full():
    """Each row's complete search reports its committed fixture's orbit,
    and the seven searches finish in under 10 s."""
    t0 = time.time()
    _run_discover_fixtures()
    assert time.time() - t0 < 10
