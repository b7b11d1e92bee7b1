"""The package's public names resolve: a stale ``__all__`` entry or
re-export would break ``from hapaxchain.<module> import *`` and any tool
that walks the public names."""

import ast
import importlib
import pkgutil
from pathlib import Path

import hapaxchain


def test_public_names_resolve():
    for info in pkgutil.iter_modules(hapaxchain.__path__):
        module = importlib.import_module(f"hapaxchain.{info.name}")
        missing = [name for name in getattr(module, "__all__", ()) if not hasattr(module, name)]
        assert not missing, f"hapaxchain.{info.name}.__all__ names missing attributes: {missing}"

    tree = ast.parse(Path(hapaxchain.__file__).read_text(encoding="utf-8"))
    for node in tree.body:
        if isinstance(node, ast.ImportFrom):
            module = importlib.import_module(f"hapaxchain.{node.module}")
            for alias in node.names:
                assert alias.name in module.__all__, f"{alias.name} is not public in hapaxchain.{node.module}"
                assert getattr(hapaxchain, alias.asname or alias.name) is getattr(module, alias.name)


def test_readme_library_example_runs(rich_corpus_dir):
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Library use", 1)[1]
    code = section.split("```python\n", 1)[1].split("```", 1)[0]
    assert '"corpus/"' in code
    exec(code.replace('"corpus/"', repr(str(rich_corpus_dir))), {})
