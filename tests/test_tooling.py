import ast
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


# Exported functions that the library itself need not call: the public API
# offered to users.  Any other function in an __all__ that only the tests
# call belongs in tests/.  lyndon_words leaves once perfbench's tracer reads
# lyndon_codes instead.
PUBLIC_API = {"copar_gap", "is_sturmian_word", "sturmian_class_words", "word_product",
              "is_reducible", "lyndon_words"}


def test_every_exported_function_is_used_by_the_library():
    trees = {p.stem: ast.parse(p.read_text())
             for p in sorted((ROOT / "src" / "smplab").rglob("*.py"))}
    used = set()  # (module, top-level def that holds the reference, name)
    exported = set()
    for module, tree in trees.items():
        for top in tree.body:
            owner = getattr(top, "name", None)
            for node in ast.walk(top):
                name = getattr(node, "id", None) if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else None
                if name is not None:
                    used.add((module, owner, name))
        defs = {n.name for n in tree.body if isinstance(n, ast.FunctionDef)}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and \
                    any(getattr(t, "id", None) == "__all__" for t in stmt.targets):
                exported |= {(module, n) for n in ast.literal_eval(stmt.value) if n in defs}
    assert len(exported) > 40 and PUBLIC_API <= {name for _, name in exported}
    unused = sorted(f"{module}.{name}" for module, name in exported
                    if name not in PUBLIC_API
                    and not any(n == name and (m, o) != (module, name) for m, o, n in used))
    assert unused == []


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


def _call_name(node):
    """``f`` for a call ``f(...)`` or ``mod.f(...)``, else None."""
    if isinstance(node, ast.Call):
        return getattr(node.func, "id", getattr(node.func, "attr", None))
    return None


def _settings_keywords(node, named):
    """Keywords of a ``settings(...)`` decorator or of a module-level name
    bound to one (``named``); None for any other decorator."""
    if isinstance(node, ast.Name):
        return named.get(node.id)
    if _call_name(node) != "settings":
        return None
    keywords = {}
    for arg in node.args:  # settings(parent, ...) starts from the parent's
        keywords.update(_settings_keywords(arg, named) or {})
    keywords.update({k.arg: k.value for k in node.keywords})
    return keywords


def test_every_property_test_is_derandomized_without_a_database():
    # tier-1 must not depend on a random draw or on examples a previous run saved
    found = 0
    for path in sorted((ROOT / "tests").glob("*.py")):
        tree = ast.parse(path.read_text())
        named = {}
        for stmt in tree.body:
            if isinstance(stmt, ast.Assign) and isinstance(stmt.targets[0], ast.Name):
                keywords = _settings_keywords(stmt.value, named)
                if keywords is not None:
                    named[stmt.targets[0].id] = keywords
        for fn in ast.walk(tree):
            decorators = getattr(fn, "decorator_list", [])
            if "given" not in map(_call_name, decorators):
                continue
            found += 1
            keywords = {}
            for d in decorators:
                keywords.update(_settings_keywords(d, named) or {})
            flags = {k: getattr(keywords.get(k), "value", "unset")
                     for k in ("derandomize", "database")}
            assert flags == {"derandomize": True, "database": None}, f"{path.name}::{fn.name}"
    assert found >= 8


def _readme_command_lines() -> list[tuple[str, str]]:
    """(command, comment) for each line of README's Command line block."""
    text = (ROOT / "README.md").read_text()
    block = text.split("## Command line", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    lines = []
    for line in block.splitlines():
        command, _, comment = line.partition("#")
        lines.append((command.strip(), comment.strip()))
    return lines


def test_every_readme_command_line_runs(tmp_path, monkeypatch, capsys):
    # each line runs in-process, in order, from an empty directory, so the
    # pair files come from the block's own realize lines; a comment that is
    # a quoted string or a single token is the line's literal stdout
    import shlex

    from smplab.cli import main

    monkeypatch.chdir(tmp_path)
    lines = _readme_command_lines()
    assert len(lines) > 10
    literals = 0
    for command, comment in lines:
        argv = shlex.split(command)
        assert argv[0] == "smplab", command
        target = None
        if ">" in argv:
            argv, target = argv[:argv.index(">")], argv[-1]
        code = main(argv[1:])
        out = capsys.readouterr().out
        assert code == 0, command
        if target is not None:
            Path(target).write_text(out)
        if comment.startswith('"') and comment.endswith('"'):
            comment = comment[1:-1]
        elif " " in comment or not comment:
            continue
        literals += 1
        assert out == comment + "\n", command
    assert literals == 4


def test_every_bench_file_names_its_kernel_backend():
    # a committed speed claim counts only with the backend it was measured on
    import json

    from smplab import kernels

    paths = sorted(ROOT.glob("BENCH_*.json"))
    assert len(paths) >= 11
    for path in paths:
        record = json.loads(path.read_text())
        backends = {record.get(key, {}).get("backend") for key in ("stamp", "host")}
        assert kernels.BACKEND in backends, path.name


def _smplab_reads(tree: ast.AST) -> set[str]:
    """Dotted smplab names a module reads: each name it imports from smplab,
    and each attribute chain on a name bound to smplab or to one of its
    modules (``jsr.certify``, ``smplab.jsr.certify``)."""
    bound, reads = {}, set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == "smplab":  # binds smplab or its alias
                    bound[alias.asname or "smplab"] = alias.name if alias.asname else "smplab"
        elif isinstance(node, ast.ImportFrom) and \
                (node.module or "").split(".")[0] == "smplab":
            for alias in node.names:
                bound[alias.asname or alias.name] = f"{node.module}.{alias.name}"
                reads.add(f"{node.module}.{alias.name}")
    for node in ast.walk(tree):
        attrs = []
        while isinstance(node, ast.Attribute):
            attrs.insert(0, node.attr)
            node = node.value
        if attrs and isinstance(node, ast.Name) and node.id in bound:
            reads.add(".".join([bound[node.id], *attrs]))
    return reads


def _resolves(dotted: str) -> bool:
    import importlib

    parts = dotted.split(".")
    obj = importlib.import_module(parts[0])
    for i, part in enumerate(parts[1:], start=2):
        if hasattr(obj, part):
            obj = getattr(obj, part)
            continue
        try:
            obj = importlib.import_module(".".join(parts[:i]))
        except ImportError:
            return False
    return True


def test_every_smplab_name_the_benchmark_reads_resolves():
    # perfbench is parsed, not imported: a change that deletes or renames a
    # function the tracer spans or a workload calls fails here, in tier-1
    paths = sorted((ROOT / "perfbench").glob("*.py"))
    reads = set().union(*(_smplab_reads(ast.parse(p.read_text())) for p in paths))
    assert {"smplab.jsr.certify", "smplab.jsr.gelfand_scan", "smplab.words.lyndon_words",
            "smplab.linalg.spectral_radius", "smplab.regions.monte_carlo_regions",
            "smplab.constructions.realize_from_tuple"} <= reads
    assert sorted(name for name in reads if not _resolves(name)) == []


def test_only_brute_force_calls_the_scan_kernels():
    # the kernels' pruning argument assumes letters of norm at most 1, which
    # brute_force's pre-scaling gives (kernels.py, the input contract)
    kernel_names = {"scan_classes", "norm_profile"}
    refs = set()  # (module, top-level def that holds the reference, name)
    for path in sorted((ROOT / "src" / "smplab").rglob("*.py")):
        for top in ast.parse(path.read_text()).body:
            for node in ast.walk(top):
                name = node.id if isinstance(node, ast.Name) else \
                    node.attr if isinstance(node, ast.Attribute) else \
                    node.name if isinstance(node, ast.alias) else None
                if name in kernel_names:
                    refs.add((path.stem, getattr(top, "name", None), name))
    assert refs == {("jsr", "brute_force", name) for name in kernel_names}
