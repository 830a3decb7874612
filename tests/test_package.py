"""The package's export list, where the package opens files, and what
importing the CLI starts."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import apksift


def test_star_import_resolves_every_exported_name():
    namespace = {}
    exec("from apksift import *", namespace)
    assert apksift.__all__ == sorted(set(apksift.__all__))
    for name in apksift.__all__:
        assert namespace[name] is getattr(apksift, name), name


# The only file access outside apksift.files: the hostile-tree reader and
# writer, which need their own open flags, and the shipped catalog resource.
FILE_ACCESS_ALLOWED = {"corpus._read_capped", "corpusgen._write", "catalog.builtin_catalog"}


def _file_access_calls(tree: ast.Module, module: str):
    """(enclosing function, call text) of every file-opening call in a module."""
    def visit(node, where):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.ClassDef)):
                yield from visit(child, f"{where}.{child.name}")
                continue
            if isinstance(child, ast.Call):
                func = child.func
                if isinstance(func, ast.Name) and func.id == "open":
                    yield where, "open"
                elif isinstance(func, ast.Attribute) and (
                        func.attr in ("open", "fdopen", "read_text", "write_text",
                                      "read_bytes", "write_bytes")
                        or ast.unparse(func) in ("csv.reader", "csv.writer")):
                    yield where, ast.unparse(func)
            yield from visit(child, where)
    yield from visit(tree, module)


def test_files_are_opened_only_in_the_files_module():
    src = Path(apksift.__file__).parent
    found = []
    for path in sorted(src.glob("*.py")):
        if path.stem != "files":
            tree = ast.parse(path.read_text(encoding="utf-8"))
            found += [(where, call) for where, call in _file_access_calls(tree, path.stem)
                      if not call.startswith("files.")]
    assert sorted({where for where, _ in found}) == sorted(FILE_ACCESS_ALLOWED), found


# The child imports the CLI, counts its OS threads, and runs one extraction
# that forks (MIN_SHARE 1, mode C walks code), counting threads at each fork.
_CLI_PROCESS = """
import os, sys
import apksift.cli
print("numpy" in sys.modules, len(os.listdir("/proc/self/task")))
from apksift import cli, detectors
fork, threads = os.fork, []
def counted_fork():
    threads.append(len(os.listdir("/proc/self/task")))
    return fork()
os.fork, detectors.MIN_SHARE = counted_fork, 1
status = cli.main(["extract", "--corpus", sys.argv[1], "--mode", "C", "--out", sys.argv[2]])
print(status, *threads)
"""


@pytest.mark.skipif(not os.path.isdir("/proc/self/task"), reason="needs /proc")
def test_cli_process_has_no_numpy_and_one_thread(tmp_path):
    corpus = tmp_path / "corpus"
    for i in range(4):
        (corpus / f"app{i}" / "smali").mkdir(parents=True)
        (corpus / f"app{i}" / "smali" / "A.smali").write_text("chmod\n", encoding="utf-8")
    src = str(Path(apksift.__file__).parent.parent)
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(filter(None, (src, os.environ.get(
        "PYTHONPATH"))))}
    done = subprocess.run([sys.executable, "-c", _CLI_PROCESS, str(corpus),
                           str(tmp_path / "m.csv")], capture_output=True, text=True, env=env,
                          timeout=60)
    assert done.returncode == 0, done.stderr
    lines = done.stdout.splitlines()  # extract prints its own lines between these
    imported, forked = lines[0], lines[-1]
    assert imported == "False 1"
    status, *threads = forked.split()
    assert status == "0" and set(threads) <= {"1"}
