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


def test_code_lines_counts_code_only(tmp_path):
    """The code-line count leaves out blank lines, comments and docstrings,
    and counts each line of a statement that spans lines."""
    source = ('"""Module\n\ndocstring."""\n\n# a comment\n'
              'def f(x):\n    """Docstring."""\n    return (x +  # sum\n'
              '            1)\n')
    path = tmp_path / "sample.py"
    path.write_text(source, encoding="utf-8")
    proc = subprocess.run(
        [sys.executable, str(ROOT / "scripts" / "code_lines.py"), str(path)],
        capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    counts = [line.split()[0] for line in proc.stdout.splitlines()]
    assert counts == ["3", "3"]
