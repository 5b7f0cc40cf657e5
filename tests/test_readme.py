"""The README's examples run as written: its library block as a script and
each command of its CLI block as ``python -m csck``."""
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
README = (ROOT / "README.md").read_text()


def _block(language: str, after: str) -> str:
    """The first fenced ``language`` block after the line ``after``."""
    match = re.search(rf"^{re.escape(after)}$.*?^```{language}\n(.*?)^```$", README, re.M | re.S)
    assert match, (language, after)
    return match.group(1)


def _run(argv: list[str], cwd: Path) -> subprocess.CompletedProcess:
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src")}
    return subprocess.run(argv, cwd=cwd, env=env, capture_output=True, text=True, timeout=120)


def test_library_block_runs(tmp_path):
    proc = _run([sys.executable, "-c", _block("python", "## Library")], tmp_path)
    assert proc.returncode == 0, proc.stderr


def test_cli_block_runs(tmp_path):
    commands = [shlex.split(line, comments=True) for line in _block("sh", "## CLI").splitlines()]
    commands = [argv for argv in commands if argv]
    assert commands and all(argv[0] == "csck" for argv in commands)
    for argv in commands:
        proc = _run([sys.executable, "-m", "csck", *argv[1:]], tmp_path)
        assert proc.returncode == 0, (argv, proc.stderr)
