"""Import layering of the package, read from its source with ``ast``.

The frontend is the bottom layer: it imports nothing of the package beyond
itself, the error types, source units and the lexicon. Localization is the
top layer: only the command line imports it. No module imports an
underscore name of another.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).parents[1] / "src" / "vulnminer"


def _imports(path: Path) -> set[str]:
    """Dotted names of the package modules a file imports, at any depth."""
    package = path.relative_to(PACKAGE.parent).parts[:-1]
    names: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
        if isinstance(node, ast.Import):
            names.update(a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom):
            base = package[:len(package) - node.level + 1] if node.level else ()
            if node.module:
                names.add(".".join(base + tuple(node.module.split("."))))
            else:
                names.update(".".join(base + (a.name,)) for a in node.names)
    return {n for n in names if n.split(".")[0] == "vulnminer"}


def _files(root: Path) -> list[Path]:
    return sorted(root.rglob("*.py"))


def test_only_the_command_line_imports_localization():
    importers = [
        str(path.relative_to(PACKAGE)) for path in _files(PACKAGE)
        if path.parent != PACKAGE / "localize"
        and any(n.startswith("vulnminer.localize") for n in _imports(path))]
    assert importers == ["cli.py"]


def test_frontend_imports_only_the_layers_below_it():
    allowed = {"frontend", "errors", "source", "lexicon"}
    for path in _files(PACKAGE / "frontend"):
        for name in _imports(path):
            assert name.split(".")[1] in allowed, (path.name, name)


def test_no_module_imports_a_private_name_of_another():
    private = []
    for path in _files(PACKAGE):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.ImportFrom) and (
                    node.level or (node.module or "").startswith("vulnminer")):
                private += [(str(path.relative_to(PACKAGE)), a.name)
                            for a in node.names if a.name.startswith("_")
                            and not a.name.endswith("__")]
    assert private == []
