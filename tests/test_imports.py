"""Every name a package module or a test file imports is used in it."""
import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
FILES = ([p for p in sorted((ROOT / "src" / "triprofile").glob("*.py"))
          if p.name != "__init__.py"]            # it imports to re-export
         + sorted((ROOT / "tests").glob("*.py")))


def unused_imports(path):
    """(line, name) of each name path imports and never references."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in imported.items() if name not in used)


def test_every_import_is_used():
    assert len(FILES) > 10
    unused = [f"{p.relative_to(ROOT)}:{line}: {name}"
              for p in FILES for line, name in unused_imports(p)]
    assert unused == []
