"""Import layering of the package, read from its source with ``ast``.

The frontend is the bottom layer: it imports nothing of the package beyond
itself, the error types, source units and the lexicon. Localization is the
top layer: only the command line imports it. No two modules import each
other, directly or through others. No module imports an
underscore name of another. Every package name the benchmark harness
(``perfbench/``) names still resolves, so deleting one fails here rather
than only in a traced benchmark run.
"""

import ast
import importlib
from pathlib import Path

ROOT = Path(__file__).parents[1]
PACKAGE = ROOT / "src" / "vulnminer"
PERFBENCH = ROOT / "perfbench"


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


def _module_name(path: Path) -> str:
    parts = path.relative_to(PACKAGE.parent).with_suffix("").parts
    return ".".join(parts[:-1] if parts[-1] == "__init__" else parts)


def _reachable(graph: dict[str, set[str]], start: str) -> set[str]:
    seen, todo = set(), [start]
    while todo:
        for name in graph[todo.pop()] - seen:
            seen.add(name)
            todo.append(name)
    return seen


def test_package_import_graph_is_acyclic():
    modules = {_module_name(path): path for path in _files(PACKAGE)}

    def module_of(name: str) -> str:
        # ``from .frontend import parse`` names an attribute of a module
        while name not in modules:
            name = name.rpartition(".")[0]
        return name

    graph = {name: {module_of(n) for n in _imports(path)} - {name}
             for name, path in modules.items()}
    reach = {name: _reachable(graph, name) for name in graph}
    cycles = sorted({tuple(sorted(other for other in reach[name]
                                  if name in reach[other]))
                     for name in graph if name in reach[name]})
    assert cycles == []


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


def _module(dotted: str):
    """The module of that dotted name, or None when there is none."""
    try:
        return importlib.import_module(dotted)
    except ImportError:
        return None


def _resolves(module: str, name: str) -> bool:
    """Whether ``module`` imports and has ``name``, or a submodule of it."""
    found = _module(module)
    return found is not None and (hasattr(found, name)
                                  or _module(f"{module}.{name}") is not None)


def test_every_benchmark_span_resolves():
    tree = ast.parse((PERFBENCH / "spans.py").read_text(encoding="utf-8"))
    (table,) = [node.value for node in tree.body
                if isinstance(node, ast.Assign)
                and [t.id for t in node.targets] == ["SPANS"]]
    spans = ast.literal_eval(table)
    assert spans
    assert [pin for pin in spans.values() if not _resolves(*pin)] == []


def test_every_package_name_the_benchmark_uses_resolves():
    """Names imported from the package, and attributes read off an
    imported package module (``engine.localize``)."""
    pins = set()
    for path in _files(PERFBENCH):
        tree = ast.parse(path.read_text(encoding="utf-8"))
        modules = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.ImportFrom) and not node.level \
                    and (node.module or "").split(".")[0] == "vulnminer":
                for alias in node.names:
                    pins.add((node.module, alias.name))
                    modules[alias.asname or alias.name] = \
                        f"{node.module}.{alias.name}"
            elif isinstance(node, ast.Import):
                modules.update((a.asname or a.name, a.name) for a in node.names
                               if a.name.split(".")[0] == "vulnminer")
        for node in ast.walk(tree):
            if (isinstance(node, ast.Attribute)
                    and isinstance(node.value, ast.Name)
                    and node.value.id in modules
                    and _module(modules[node.value.id])):
                pins.add((modules[node.value.id], node.attr))
    assert len(pins) > 20
    assert sorted(pin for pin in pins if not _resolves(*pin)) == []
