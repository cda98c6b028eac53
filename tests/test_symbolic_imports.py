"""Import-hygiene test: the runtime does not import sympy.

The symbolic engine's numeric domain is exact native interval sets
(``repro/symbolic/domains.py``); sympy survives only in
``repro/symbolic/sympy_baseline.py`` — the off-the-shelf ``simplify``
baseline Fig. 7 compares against — and as a test oracle.  It is a ``dev``
extra, so a runtime module importing it would break a plain install and
put ~0.3 s and ~40 MB back on every process start.

Enforced syntactically with :mod:`ast` so the ban holds even for lazy
imports inside functions, and end to end in a fresh interpreter.
"""

import ast
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC_DIR = Path(repro.__file__).resolve().parent

BANNED = "sympy"
#: The one module allowed to import it (nothing in ``src/`` imports it).
ALLOWED = SRC_DIR / "symbolic" / "sympy_baseline.py"


def banned_imports(path: Path):
    """Yield (lineno, description) for every sympy import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name.split(".")[0] == BANNED:
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom) and not node.level:
            if (node.module or "").split(".")[0] == BANNED:
                yield node.lineno, f"from {node.module} import ..."


class TestSympyImportBan:
    def test_only_the_fig7_baseline_imports_sympy(self):
        files = sorted(SRC_DIR.rglob("*.py"))
        assert ALLOWED in files, f"{ALLOWED} moved; move this test with it"
        violations = [
            f"{path.relative_to(SRC_DIR)}:{lineno}: {text}"
            for path in files if path != ALLOWED
            for lineno, text in banned_imports(path)]
        assert not violations, (
            "runtime modules must not import sympy (it is a dev extra):\n"
            + "\n".join(violations))
        assert list(banned_imports(ALLOWED))

    def test_detector_catches_all_import_forms(self, tmp_path):
        path = tmp_path / "bad.py"
        path.write_text(
            "import sympy\n"
            "import sympy.sets as sets\n"
            "from sympy import Interval\n"
            "from sympy.logic.boolalg import simplify_logic\n"
            "def lazy():\n"
            "    import sympy\n"
            "from . import sympy\n"
            "import sympy_like\n")
        assert [lineno for lineno, _ in banned_imports(path)] \
            == [1, 2, 3, 4, 6]

    def test_importing_the_runtime_leaves_sympy_unloaded(self):
        env = {**os.environ, "PYTHONPATH": str(SRC_DIR.parent)}
        code = ("import sys, repro; from repro.server import EvaServer; "
                "assert 'sympy' not in sys.modules, 'sympy was imported'")
        result = subprocess.run([sys.executable, "-c", code], env=env,
                                capture_output=True, text=True, timeout=120)
        assert result.returncode == 0, result.stderr
