"""The package's export list, and where the package opens files."""

import ast
from pathlib import Path

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
