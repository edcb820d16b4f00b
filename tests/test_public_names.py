"""Every exported name resolves: each module's ``__all__`` and the imports
of the README's library example."""

import importlib
import pkgutil
import re
from pathlib import Path

import c0ip

README = Path(__file__).resolve().parents[1] / "README.md"


def test_every_all_entry_exists():
    modules = [c0ip] + [
        importlib.import_module(f"c0ip.{info.name}") for info in pkgutil.iter_modules(c0ip.__path__)
    ]
    for module in modules:
        missing = [name for name in module.__all__ if not hasattr(module, name)]
        assert not missing, (module.__name__, missing)


def test_readme_library_imports_resolve():
    blocks = re.findall(r"```python\n(.*?)```", README.read_text(), flags=re.S)
    imports = [line for block in blocks for line in block.splitlines() if line.startswith("from c0ip")]
    assert imports
    for line in imports:
        exec(line, {})
