"""Tests for the ``repro profile`` CLI and its golden output shape."""

import io
import json

import pytest

from repro.cli import main
from repro.obs.schema import load_schema, validate_jsonl

PROFILE_SCHEMA = load_schema("tests/schemas/profile.schema.json")


def run_cli(*argv):
    out = io.StringIO()
    code = main(list(argv), stdin=io.StringIO(""), stdout=out)
    return code, out.getvalue()


class TestProfileCommand:
    def test_profile_prints_tables(self):
        code, out = run_cli("profile", "--frames", "240", "--top", "5")
        assert code == 0
        # Golden structure: the three sections in order.
        assert "profile over" in out
        assert "operators by self wall time" in out
        assert "models by charged virtual time" in out
        # A VBENCH run exercises the standard models.
        assert "fasterrcnn_resnet50" in out
        assert "DetectorApply" in out

    def test_profile_golden_header_lines(self):
        """The header lines are part of the CLI contract (docs quote
        them); lock their exact wording."""
        code, out = run_cli("profile", "--frames", "240", "--top", "3")
        lines = out.splitlines()
        assert lines[0] == "profile over 8 queries"
        assert any(line.startswith("top 3 operators by self wall time:")
                   for line in lines)

    def test_profile_jsonl_export_validates(self, tmp_path):
        path = tmp_path / "profile.jsonl"
        code, out = run_cli("profile", "--frames", "240",
                            "--jsonl", str(path))
        assert code == 0
        assert f"profile events written to {path}" in out
        count = validate_jsonl(path, PROFILE_SCHEMA)
        assert count >= 3  # meta + at least one model + one operator
        first = json.loads(path.read_text().splitlines()[0])
        assert first["type"] == "profile_meta"
        assert first["queries"] == 8

    def test_profile_low_workload_and_row_mode(self, capsys):
        code, out = run_cli("profile", "--frames", "240",
                            "--workload", "low")
        assert code == 0
        assert "profile over" in out
        # The row reference is reached through EvaConfig, not the CLI.
        with pytest.raises(SystemExit):
            run_cli("profile", "--execution-mode", "row")
        assert "unrecognized arguments" in capsys.readouterr().err


class TestTraceChromeExport:
    def test_trace_chrome_flag_writes_document(self, tmp_path):
        path = tmp_path / "chrome.json"
        code, out = run_cli(
            "trace", "--dataset", "synthetic:80",
            "SELECT id FROM synthetic CROSS APPLY "
            "FastRCNNObjectDetector(frame) "
            "WHERE label = 'car' AND id < 40;",
            "--chrome-trace", str(path))
        assert code == 0
        assert "chrome-trace events written" in out
        document = json.loads(path.read_text())
        assert document["otherData"]["timeline"] == \
            "synthetic-deterministic"
        names = [e.get("name") for e in document["traceEvents"]]
        assert "query" in names
        assert any(str(n).startswith("op:") for n in names)
