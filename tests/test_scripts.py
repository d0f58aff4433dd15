import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def test_discover_fixtures_verify_only():
    """The fixture script re-verifies all seven committed rows."""
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "discover_fixtures.py"),
         "--verify-only"], capture_output=True, text=True, timeout=120)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.splitlines()
    assert len(lines) == 7
    assert all(line.endswith(" OK") for line in lines), proc.stdout
