import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import dmcensus
from dmcensus import run_cli

MAX_LINE = 100
PACKAGE = sorted(Path(dmcensus.__file__).parent.glob("*.py"))
README = Path(__file__).resolve().parents[1] / "README.md"


def test_package_lines_fit_the_line_length():
    long_lines = [
        f"{path.name}:{number}: {len(line)} characters"
        for path in PACKAGE
        for number, line in enumerate(path.read_text("utf-8").splitlines(), start=1)
        if len(line) > MAX_LINE
    ]
    assert long_lines == []


def test_package_modules_use_every_name_they_import():
    # A name imported and never read is left over from a deletion, unless
    # __init__ imports it to re-export it through __all__.
    unused = []
    for path in PACKAGE:
        tree = ast.parse(path.read_text("utf-8"))
        imported = {
            (alias.asname or alias.name).split(".")[0]
            for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and getattr(node, "module", None) != "__future__"
            for alias in node.names
        }
        read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
        exported = set(dmcensus.__all__) if path.name == "__init__.py" else set()
        unused += [f"{path.name}: {name}" for name in sorted(imported - read - exported)]
    assert unused == []


def test_only_the_report_check_makes_census_reports():
    # census._finish_report checks every report it makes; an entry or a
    # report made anywhere else in the package would skip its identities.
    makers = []
    for path in PACKAGE:
        for top in ast.parse(path.read_text("utf-8")).body:
            for node in ast.walk(top):
                func = getattr(node, "func", None)
                if isinstance(func, ast.Attribute):  # CensusReport._make(...) and the like
                    func = func.value
                if isinstance(func, ast.Name) and func.id in {"CensusEntry", "CensusReport"}:
                    makers.append(f"{path.stem}.{getattr(top, 'name', '<module>')}")
    assert makers == ["census._finish_report"] * 2


def test_package_exports_exactly_what_it_imports():
    # A name dropped from __init__'s imports but left in __all__ passes every
    # other test and breaks only "from dmcensus import *".
    tree = ast.parse(Path(dmcensus.__file__).read_text("utf-8"))
    imported = {
        alias.asname or alias.name
        for node in tree.body
        if isinstance(node, ast.ImportFrom) and node.module != "__future__"
        for alias in node.names
    }
    exported = dmcensus.__all__
    assert len(exported) == len(set(exported))
    assert [name for name in exported if not hasattr(dmcensus, name)] == []
    assert set(exported) == imported


def test_package_import_loads_no_heavy_modules():
    # A fresh interpreter that imports dmcensus and loads its catalog must
    # not load stdlib modules that each cost milliseconds; argparse it needs.
    # Modules the bare interpreter had already loaded (site's) do not count.
    code = ("import sys; bare = set(sys.modules); import dmcensus; dmcensus.load_catalog(); "
            "print(' '.join(sorted(set(sys.modules) - bare)))")
    env = dict(os.environ, PYTHONPATH=str(Path(dmcensus.__file__).resolve().parents[1]))
    done = subprocess.run([sys.executable, "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    added = set(done.stdout.split())
    assert "argparse" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache", "typing",
                    "importlib.resources", "pathlib", "re", "enum"} == set()
    # Without site's preload (-S), typing, pathlib, importlib.resources, re
    # and enum load too: they come from the package's own imports,
    # typing.NamedTuple, pathlib.Path, importlib.resources, and csv, which
    # loads re and enum.  The other heavy names must still stay out.
    done = subprocess.run([sys.executable, "-S", "-c", code], env=env, check=True,
                          capture_output=True, text=True)
    added = set(done.stdout.split())
    assert "argparse" in added
    assert added & {"dataclasses", "inspect", "ast", "dis", "tokenize", "linecache"} == set()


def test_readme_lists_the_exported_record_types():
    # The README's list of record types must name every exported named tuple
    # and nothing else, so a deleted record type leaves no mention behind.
    sentence = re.search(r"The record types \(([^)]*)\)", README.read_text("utf-8"))
    listed = re.findall(r"`(\w+)`", sentence.group(1))
    exported = [
        name for name in dmcensus.__all__
        if isinstance(getattr(dmcensus, name), type)
        and issubclass(getattr(dmcensus, name), tuple)
    ]
    assert len(listed) == len(set(listed))
    assert sorted(listed) == sorted(exported)


def test_readme_exit_code_examples_exit_3(capsys):
    # Every command the README's exit-code paragraph gives as an example of
    # a refusal must be refused with exit code 3 and one short error line.
    paragraph = re.search(r"Exit codes:.*?\n\n", README.read_text("utf-8"), re.S).group()
    commands = [
        span for span in re.findall(r"`([^`]*)`", paragraph.replace("\n", " "))
        if span.split()[0] in {"census", "oracle", "verify", "lookup", "render"}
    ]
    assert "census -p 1 -d 63" in commands
    for command in commands:
        assert run_cli(command.split()) == 3, command
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: "), command
        assert err.count("\n") == 1 and err.endswith("\n") and len(err) < 200, command


def test_a_failing_hypothesis_test_is_reported(tmp_path):
    # Under the suite's warnings-as-errors, a warning raised while hypothesis
    # reports a failure would end the run with INTERNALERROR instead.
    (tmp_path / "test_fails.py").write_text(
        "from hypothesis import given, strategies as st\n\n\n"
        "@given(st.integers())\n"
        "def test_small(n):\n"
        "    assert n < 10\n"
    )
    done = subprocess.run(
        [sys.executable, "-m", "pytest", "-c", str(README.parent / "pyproject.toml"),
         "--rootdir", str(tmp_path), "-p", "no:cacheprovider", "test_fails.py"],
        cwd=tmp_path, capture_output=True, text=True,
    )
    assert "Falsifying example" in done.stdout
    assert "INTERNALERROR" not in done.stdout + done.stderr
    assert done.returncode == 1
