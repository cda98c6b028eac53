"""Docs that cannot drift: what the documents name must exist.

For ``README.md``, ``DESIGN.md`` and ``docs/*.md``:

* every backticked repository path (``tests/test_x.py``,
  ``executor/fusion.py``, ``server/``, ``file.py::Symbol``,
  ``file.py:120``) resolves from the repository root, ``src/`` or
  ``src/repro/`` — and a ``::Symbol`` is defined in that file; a bare
  ``name.py`` names some Python file of the repository;
* every ``EvaConfig.<field>`` and every keyword of an
  ``EvaConfig(<field>=...)`` call is a field of the dataclass
  (``slo_latency_*`` matches by prefix);
* every ``--flag`` on a line that invokes ``repro <subcommand>`` is an
  option of that subcommand (of any subcommand when none is named).
"""

from __future__ import annotations

import argparse
import dataclasses
import functools
import re
from pathlib import Path

import pytest

from repro.cli import build_parser
from repro.config import EvaConfig

REPO = Path(__file__).resolve().parent.parent
DOCS = [REPO / "README.md", REPO / "DESIGN.md",
        *sorted((REPO / "docs").glob("*.md"))]
#: A relative path in a document is read from one of these.
ROOTS = [REPO, REPO / "src", REPO / "src" / "repro"]

_BACKTICKED = re.compile(r"`([^`\n]+)`")
_PATH = re.compile(r"^[\w.\-/]+$")
_FILE_SUFFIX = re.compile(r"\.(py|md|json|jsonl|yml|yaml|toml|txt)$")
_CONFIG_ATTR = re.compile(r"EvaConfig\.(\w+\*?)")
_CONFIG_CALL = re.compile(r"EvaConfig\(([^()]*(?:\([^()]*\)[^()]*)*)\)")
_KEYWORD = re.compile(r"\b(\w+)\s*=(?!=)")
_FLAG = re.compile(r"(?<![\w-])--[a-z][\w-]*")
_INVOCATION = re.compile(r"\brepro ([a-z][\w-]*)")


@functools.cache
def _python_basenames() -> set[str]:
    names: set[str] = set()
    for top in ("src", "tests", "benchmarks", "examples"):
        names.update(path.name for path in (REPO / top).rglob("*.py"))
    names.update(path.name for path in REPO.glob("*.py"))
    return names


@functools.cache
def _cli_flags() -> dict[str | None, set[str]]:
    """Option strings per top-level subcommand (nested subcommands
    included); ``None`` holds the union."""

    def options(parser: argparse.ArgumentParser) -> set[str]:
        found: set[str] = set()
        for action in parser._actions:
            found.update(s for s in action.option_strings
                         if s.startswith("--"))
            if isinstance(action, argparse._SubParsersAction):
                for child in action.choices.values():
                    found |= options(child)
        return found

    root = build_parser()
    flags: dict[str | None, set[str]] = {None: options(root)}
    for action in root._actions:
        if isinstance(action, argparse._SubParsersAction):
            for name, child in action.choices.items():
                flags[name] = options(child)
    return flags


def _stale_paths(text: str) -> list[str]:
    basenames = _python_basenames()
    stale = []
    for token in _BACKTICKED.findall(text):
        path, _, symbol = token.partition("::")
        path = re.sub(r":\d+(-\d+)?$", "", path)
        if not _PATH.match(path) or not (_FILE_SUFFIX.search(path)
                                         or path.endswith("/")):
            continue
        if "/" not in path:
            if path.endswith(".py") and path not in basenames:
                stale.append(f"no Python file is named `{path}`")
            continue
        found = [root / path for root in ROOTS if (root / path).exists()]
        if not found:
            # `store_path/shard-k/` is a run-time layout, not a source
            # directory: hold a directory to account only when its first
            # segment is one of ours.
            first = path.split("/")[0]
            if path.endswith("/") and not any(
                    (root / first).is_dir() for root in ROOTS):
                continue
            stale.append(f"path `{path}` does not exist")
        elif symbol and not re.search(
                rf"\b(def|class) {re.escape(symbol.split('.')[-1])}\b",
                found[0].read_text()):
            stale.append(f"`{path}` defines no `{symbol}`")
    return stale


def _stale_config(text: str) -> list[str]:
    fields = {f.name for f in dataclasses.fields(EvaConfig)}
    stale = []
    for name in _CONFIG_ATTR.findall(text):
        known = (any(f.startswith(name[:-1]) for f in fields)
                 if name.endswith("*") else name in fields)
        if not known:
            stale.append(f"`EvaConfig.{name}` is not a field")
    for arguments in _CONFIG_CALL.findall(text):
        stale.extend(f"`EvaConfig({name}=...)` is not a field"
                     for name in _KEYWORD.findall(arguments)
                     if name not in fields)
    return stale


def _stale_flags(text: str) -> list[str]:
    flags = _cli_flags()
    stale = []
    # A shell continuation keeps the flags of one invocation together.
    for line in text.replace("\\\n", " ").splitlines():
        invoked = _INVOCATION.search(line)
        if invoked is None and not re.search(r"\brepro\b", line):
            continue
        command = invoked.group(1) if invoked else None
        known = flags.get(command, flags[None])
        stale.extend(
            f"`{flag}` is not an option of `repro {command or '...'}`"
            for flag in _FLAG.findall(line) if flag not in known)
    return stale


def stale_references(text: str) -> list[str]:
    return _stale_paths(text) + _stale_config(text) + _stale_flags(text)


@pytest.mark.parametrize("doc", DOCS, ids=lambda p: p.name)
def test_document_names_only_what_exists(doc):
    assert stale_references(doc.read_text()) == []


def test_checker_sees_each_kind_of_stale_reference():
    """The checker is not vacuous: one stale reference of every kind it
    claims to catch, beside a live one of the same kind."""
    text = "\n".join([
        "See `executor/fusion.py` and `executor/no_such_module.py`,",
        "`no_such_module.py`, `src/repro/no_such_package/`,",
        "`tests/test_docs_refs.py::no_such_test`, `store_path/shard-k/`.",
        "`EvaConfig.batch_rows`, `EvaConfig.no_such_field`,",
        "`EvaConfig.slo_latency_*`, `EvaConfig.no_such_prefix_*`,",
        "`EvaConfig(workers=2, no_such_keyword=1)`.",
        "python -m repro bench --frames 10 --no-such-flag 4",
        "python -m repro store check DIR --schema FILE \\",
        "    --frames 10",
    ])
    assert stale_references(text) == [
        "path `executor/no_such_module.py` does not exist",
        "no Python file is named `no_such_module.py`",
        "path `src/repro/no_such_package/` does not exist",
        "`tests/test_docs_refs.py` defines no `no_such_test`",
        "`EvaConfig.no_such_field` is not a field",
        "`EvaConfig.no_such_prefix_*` is not a field",
        "`EvaConfig(no_such_keyword=...)` is not a field",
        "`--no-such-flag` is not an option of `repro bench`",
        "`--frames` is not an option of `repro store`",
    ]
