import shutil
import subprocess
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent


@pytest.mark.skipif(shutil.which("git") is None or not (ROOT / ".git").exists(),
                    reason="needs git and a git checkout")
def test_git_tracks_no_ignored_file():
    out = subprocess.run(["git", "ls-files", "-ci", "--exclude-standard"], cwd=ROOT,
                         capture_output=True, text=True, check=True)
    assert out.stdout == ""


def test_every_exported_name_resolves():
    # a deleted function must not leave its name behind in __all__
    import importlib
    import pkgutil

    import smplab

    names = ["smplab"] + [f"smplab.{m.name}" for m in pkgutil.iter_modules(smplab.__path__)]
    assert len(names) > 10
    for name in names:
        module = importlib.import_module(name)
        missing = [n for n in getattr(module, "__all__", []) if not hasattr(module, n)]
        assert missing == [], name


def test_every_subcommand_has_a_golden_stdout_case():
    import argparse

    from smplab.cli import _build_parser
    from test_cli import GOLDEN, GOLDEN_CASES

    parser = _build_parser()
    sub = next(a for a in parser._actions if isinstance(a, argparse._SubParsersAction))
    assert len(sub.choices) > 10
    covered = {args[0] for args, _ in GOLDEN_CASES}
    assert sorted(set(sub.choices) - covered) == []
    assert all((GOLDEN / expected).is_file() for _, expected in GOLDEN_CASES)
