"""Import ``crnn`` from a source tree, working round one known import error.

On Python 3.11 and later, ``src/crnn/model.py`` fails to import because the
``ModelTrace`` dataclass gives its ``sel`` field a ``slice`` default, which
``dataclasses`` rejects as mutable.  When -- and only when -- the import
fails with exactly that error, the loader re-imports the package with that
one line rewritten in memory to the documented fix,
``field(default_factory=lambda: slice(None))``.  No file is written.  Once
the fix is in the source, the first import succeeds and the loader does
nothing.
"""

from __future__ import annotations

import importlib
import importlib.abc
import importlib.util
import sys
from pathlib import Path

BLOCKER = ("mutable default <class 'slice'> for field sel is not allowed: "
           "use default_factory")
BROKEN_LINE = "    sel: slice = slice(None)\n"
FIXED_LINE = "    sel: slice = field(default_factory=lambda: slice(None))\n"
PATCHED_MODULE = "crnn.model"


class _SourceLoader(importlib.abc.Loader):
    """Executes a module from source text held in memory."""

    def __init__(self, path: Path, source: str):
        self.path = path
        self.source = source

    def create_module(self, spec):
        return None

    def exec_module(self, module):
        exec(compile(self.source, str(self.path), "exec"), module.__dict__)


class _PatchFinder(importlib.abc.MetaPathFinder):
    def __init__(self, loader: _SourceLoader):
        self.loader = loader

    def find_spec(self, fullname, path=None, target=None):
        if fullname != PATCHED_MODULE:
            return None
        return importlib.util.spec_from_file_location(
            fullname, self.loader.path, loader=self.loader)


def _forget_crnn() -> None:
    for name in [m for m in sys.modules if m == "crnn" or m.startswith("crnn.")]:
        del sys.modules[name]


def patched_model_source(text: str) -> str:
    """``model.py`` text with the one broken line replaced by the fix."""
    if text.count(BROKEN_LINE) != 1:
        raise RuntimeError("crnn.model does not hold exactly one copy of the "
                           "line the import fix rewrites")
    return text.replace(BROKEN_LINE, FIXED_LINE)


def _import():
    crnn = importlib.import_module("crnn")
    importlib.import_module("crnn.cli")   # not imported by the package itself
    return crnn


def import_crnn(src_dir) -> tuple[object, bool]:
    """Import ``crnn`` (and ``crnn.cli``) from ``src_dir``; returns
    (package, patched)."""
    src_dir = Path(src_dir).resolve()
    if str(src_dir) not in sys.path:
        sys.path.insert(0, str(src_dir))
    try:
        return _import(), False
    except ValueError as e:
        if str(e) != BLOCKER:
            raise
    _forget_crnn()
    path = src_dir / "crnn" / "model.py"
    finder = _PatchFinder(_SourceLoader(path, patched_model_source(path.read_text())))
    sys.meta_path.insert(0, finder)
    try:
        return _import(), True
    finally:
        sys.meta_path.remove(finder)
