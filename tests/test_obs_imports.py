"""Import-hygiene test: ``repro.obs`` must not touch ``repro.metrics``.

The observability subsystem has its own collectors (``obs.profiler``,
``obs.trace``) and only *exports* data harvested elsewhere; the legacy
:mod:`repro.metrics` counter store belongs to the execution layer.  An
``obs`` module importing it would create a cycle of responsibility
(exporter feeding the thing it exports) and reintroduce the
double-counting this split removed — see ``docs/observability.md``.

Enforced syntactically with :mod:`ast` so the ban holds even for lazy
imports inside functions.
"""

import ast
from pathlib import Path

import repro.obs

OBS_DIR = Path(repro.obs.__file__).resolve().parent

#: Module (and prefix) that obs code must never import.
BANNED = "repro.metrics"


def iter_obs_modules():
    files = sorted(OBS_DIR.glob("*.py"))
    assert files, f"no modules found under {OBS_DIR}"
    return files


def banned_imports(path: Path):
    """Yield (lineno, description) for every banned import in ``path``."""
    tree = ast.parse(path.read_text(), filename=str(path))
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                if alias.name == BANNED or \
                        alias.name.startswith(BANNED + "."):
                    yield node.lineno, f"import {alias.name}"
        elif isinstance(node, ast.ImportFrom):
            module = node.module or ""
            if module == BANNED or module.startswith(BANNED + "."):
                yield node.lineno, f"from {module} import ..."
            elif module == "repro":
                for alias in node.names:
                    if alias.name == "metrics":
                        yield node.lineno, "from repro import metrics"


class TestObsImportBan:
    def test_no_obs_module_imports_legacy_metrics(self):
        violations = []
        for path in iter_obs_modules():
            for lineno, text in banned_imports(path):
                violations.append(f"{path.name}:{lineno}: {text}")
        assert not violations, (
            "obs modules must not import repro.metrics "
            "(export-only layering, see docs/observability.md):\n"
            + "\n".join(violations))

    def test_detector_catches_all_import_forms(self, tmp_path):
        """The AST walker recognizes every spelling of the banned
        import, including lazy function-local ones."""
        source = (
            "import repro.metrics\n"
            "import repro.metrics as m\n"
            "from repro.metrics import MetricsRegistry\n"
            "from repro import metrics\n"
            "def lazy():\n"
            "    import repro.metrics\n"
        )
        path = tmp_path / "bad.py"
        path.write_text(source)
        hits = [lineno for lineno, _ in banned_imports(path)]
        assert hits == [1, 2, 3, 4, 6]

    def test_detector_ignores_benign_imports(self, tmp_path):
        path = tmp_path / "good.py"
        path.write_text(
            "from repro.obs.trace import Tracer\n"
            "from repro import config\n"
            "import repro.session\n")
        assert not list(banned_imports(path))

    def test_obs_package_has_expected_modules(self):
        """Guard the glob: if the package layout moves, this test must
        move with it rather than silently scanning nothing."""
        names = {p.stem for p in iter_obs_modules()}
        for expected in ("profiler", "chrome", "trace", "prometheus",
                         "schema"):
            assert expected in names
