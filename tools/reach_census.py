"""Reachability census: which functions under ``src/repro`` does a run reach?

``run`` executes a command with a ``sys.setprofile`` hook installed in
every Python process it starts (children and worker processes included,
through a generated ``sitecustomize``) and appends the first entry of
each ``(file, function)`` under ``src/repro/`` to a record file.
``report`` reads one or more record files and lists, grouped by module,
the functions that no recorded run reached.  Standard library only.

    python tools/reach_census.py run census.tsv -- \\
        python -m repro profile --frames 300
    python tools/reach_census.py report census.tsv

pytest-benchmark removes any profile hook while it times a function, so
run the paper benches with ``--benchmark-disable`` under a census.

Functions are matched by module path and qualified name
(``Class.method``, ``outer.<locals>.inner``); a property's getter and
setter share one name, so reaching either counts for both.  Lambdas and
comprehensions are not listed.
"""

from __future__ import annotations

import argparse
import ast
import os
import subprocess
import sys
import tempfile
import threading

#: Environment variable naming the record file of a census run.
RECORD_ENV = "REACH_CENSUS_RECORD"
TOOLS = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(TOOLS), "src")
PACKAGE = os.path.join(SRC, "repro")


def install() -> None:
    """Record first entries of ``src/repro`` functions into the file
    named by :data:`RECORD_ENV`.

    Each new function is one ``path<TAB>qualname`` line written with a
    single ``O_APPEND`` write, so forked or killed processes lose
    nothing and never interleave lines.
    """
    fd = os.open(os.environ[RECORD_ENV],
                 os.O_WRONLY | os.O_APPEND | os.O_CREAT, 0o644)
    prefix = os.path.realpath(PACKAGE) + os.sep
    seen: set = set()

    def hook(frame, event, arg):
        if event != "call":
            return
        code = frame.f_code
        if code in seen:
            return
        seen.add(code)
        path = os.path.realpath(code.co_filename)
        if path.startswith(prefix):
            line = f"{os.path.relpath(path, SRC)}\t{code.co_qualname}\n"
            os.write(fd, line.encode())

    threading.setprofile(hook)
    sys.setprofile(hook)


def run(record: str, command: list[str]) -> int:
    """Run ``command`` with the census hook in each Python process."""
    record = os.path.abspath(record)
    with tempfile.TemporaryDirectory(prefix="reach-census-") as hooks:
        with open(os.path.join(hooks, "sitecustomize.py"), "w") as handle:
            handle.write("from reach_census import install\ninstall()\n")
        env = dict(os.environ)
        env[RECORD_ENV] = record
        env["PYTHONPATH"] = os.pathsep.join(
            [hooks, TOOLS, SRC] + ([env["PYTHONPATH"]]
                                   if env.get("PYTHONPATH") else []))
        return subprocess.call(command, env=env)


def defined_functions() -> dict[tuple[str, str], tuple[int, int]]:
    """``(path, qualname) -> (first line, last line)`` of every function
    defined under ``src/repro``; paths are relative to ``src``."""
    found: dict[tuple[str, str], tuple[int, int]] = {}

    def walk(node, path: str, prefix: str) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                name = prefix + child.name
                found.setdefault((path, name),
                                 (child.lineno, child.end_lineno))
                walk(child, path, name + ".<locals>.")
            elif isinstance(child, ast.ClassDef):
                walk(child, path, prefix + child.name + ".")
            else:
                walk(child, path, prefix)

    for folder, _, names in os.walk(PACKAGE):
        for name in sorted(names):
            if name.endswith(".py"):
                full = os.path.join(folder, name)
                with open(full) as handle:
                    tree = ast.parse(handle.read(), full)
                walk(tree, os.path.relpath(full, SRC), "")
    return found


def report(records: list[str]) -> None:
    """Print the functions no record reached, grouped by module.

    A function nested in an unreached function is not listed on its
    own, and the line counts are of the outermost unreached functions,
    so they add up to the code no run entered.
    """
    reached: set[tuple[str, str]] = set()
    for record in records:
        with open(record) as handle:
            for line in handle:
                path, _, name = line.rstrip("\n").partition("\t")
                reached.add((path, name))
    defined = defined_functions()
    unreached = sorted(key for key in defined if key not in reached)
    missing = set(unreached)
    by_module: dict[str, list[tuple[str, int, int]]] = {}
    for path, name in unreached:
        parts = name.split(".<locals>.")
        if any((path, ".<locals>.".join(parts[:i])) in missing
               for i in range(1, len(parts))):
            continue
        first, last = defined[(path, name)]
        by_module.setdefault(path, []).append((name, first, last - first + 1))
    total = sum(size for rows in by_module.values() for _, _, size in rows)
    print(f"{len(defined)} functions defined, "
          f"{len(defined) - len(unreached)} reached; {len(unreached)} "
          f"unreached in {len(by_module)} modules, {total} lines "
          "(outermost unreached functions)")
    ordered = sorted(by_module.items(),
                     key=lambda item: -sum(s for _, _, s in item[1]))
    for path, rows in ordered:
        lines = sum(size for _, _, size in rows)
        print(f"\n{path}  ({len(rows)} functions, {lines} lines)")
        for name, first, size in sorted(rows, key=lambda row: row[1]):
            print(f"  {first:5d}  {size:4d}  {name}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    sub = parser.add_subparsers(dest="command", required=True)
    run_parser = sub.add_parser("run", help="run a command under the census")
    run_parser.add_argument("record")
    run_parser.add_argument("argv", nargs=argparse.REMAINDER)
    report_parser = sub.add_parser("report",
                                   help="list what no record reached")
    report_parser.add_argument("records", nargs="+")
    args = parser.parse_args(argv)
    if args.command == "run":
        command = args.argv[1:] if args.argv[:1] == ["--"] else args.argv
        if not command:
            parser.error("run needs a command after --")
        return run(args.record, command)
    report(args.records)
    return 0


if __name__ == "__main__":
    sys.exit(main())
