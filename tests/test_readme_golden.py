"""The README's command-line examples, run as written, against reports
recorded with the code of commit 96074de.

Numbers must agree to 1e-12 relative (absolute below magnitude 1, the
floor the package's own tolerances use), keys and strings exactly, and
the mesh files byte for byte (by SHA-256); a second run must be
byte-identical to the first.
"""

import contextlib
import hashlib
import io
import json
import shlex
from pathlib import Path

import pytest

from crosscap import cli

ROOT = Path(__file__).resolve().parents[1]
GOLDEN = json.loads((ROOT / "tests" / "data" / "readme_golden.json").read_text())
REL_TOL = 1e-12


def readme_commands():
    text = (ROOT / "README.md").read_text(encoding="utf-8")
    block = text.split("## Command line", 1)[1].split("```sh", 1)[1].split("```", 1)[0]
    lines = block.replace("\\\n", " ").splitlines()
    return [shlex.split(line)[1:] for line in lines if line.startswith("crosscap ")]


COMMANDS = readme_commands()


def _run(argv, out):
    out.mkdir()
    argv = list(argv)
    if "--out" in argv:
        argv[argv.index("--out") + 1] = str(out)
    stdout = io.StringIO()
    with contextlib.redirect_stdout(stdout):
        code = cli.main(argv)
    files = {p.name: p.read_bytes() for p in sorted(out.iterdir())}
    return code, stdout.getvalue(), files


def _assert_close(got, want, path):
    if isinstance(want, dict):
        assert isinstance(got, dict) and sorted(got) == sorted(want), path
        for key in want:
            _assert_close(got[key], want[key], f"{path}.{key}")
    elif isinstance(want, list):
        assert isinstance(got, list) and len(got) == len(want), path
        for i, (g, w) in enumerate(zip(got, want)):
            _assert_close(g, w, f"{path}[{i}]")
    elif isinstance(want, (int, float)) and not isinstance(want, bool):
        assert isinstance(got, (int, float)) and not isinstance(got, bool), path
        assert abs(got - want) <= REL_TOL * max(1.0, abs(want)), (path, got, want)
    else:
        assert got == want, path


def test_readme_examples_cover_the_golden_reports():
    assert sorted(argv[0] for argv in COMMANDS) == sorted(GOLDEN)


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_readme_example_matches_golden(argv, tmp_path):
    code, stdout, files = _run(argv, tmp_path / "first")
    assert code == 0, stdout
    assert _run(argv, tmp_path / "second") == (code, stdout, files)

    golden = GOLDEN[argv[0]]
    _assert_close(json.loads(stdout), golden["stdout"], argv[0])
    for name, digest in golden["sha256"].items():
        assert hashlib.sha256(files[name]).hexdigest() == digest, name
