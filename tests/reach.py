"""Which code of src/tblab no laboratory path reaches.

Run it from the repository root as

    PYTHONPATH=src python3 tests/reach.py

It takes no flags.  Under a line tracer it imports tblab, runs
`tblab suite --all`, every other CLI subcommand, `bessel` with each kind, one
refused `verify`, and one pass of each benchmark workload of
bench/workloads.py, seed 0, each op checked as the benchmark checks it.
Then it prints each function of src/tblab that was never entered, with
the lines it spans, and for each function that was entered the lines of
its body that never ran, docstrings left out.  A simple statement has
run when any of its lines ran; a compound one (if, for, while, with, an
except clause, a nested def) is judged by its header alone, and a try by
its clauses.  Lambdas and comprehensions count as lines of the statement
they sit in.  The exit status is 0, or 2 when an argument is given.

The name does not start with test_, so pytest does not collect it;
tests/test_reach.py runs the tracer over one verify call.
"""

from __future__ import annotations

import ast
import contextlib
import importlib.util
import io
import os
import sys
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# where tblab's modules are, found without importing it, so that the
# tracer sees the functions its import runs
PACKAGE = Path(importlib.util.find_spec("tblab").origin).parent
_HEADED = (ast.If, ast.For, ast.AsyncFor, ast.While, ast.With, ast.AsyncWith)
_DEFS = (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)


def trace(run) -> tuple[set[tuple[str, int]], set[tuple[str, int]]]:
    """(lines, entered) while run() runs: the (file, line) of each line of
    tblab that ran, and the (file, first line) of each code object of it
    that was called."""
    prefix = str(PACKAGE) + os.sep
    lines, entered = set(), set()

    def on_line(frame, event, arg):
        if event == "line":
            lines.add((frame.f_code.co_filename, frame.f_lineno))
        return on_line

    def on_call(frame, event, arg):
        code = frame.f_code
        if not code.co_filename.startswith(prefix):
            return None
        entered.add((code.co_filename, code.co_firstlineno))
        return on_line

    previous = sys.gettrace()
    sys.settrace(on_call)
    try:
        run()
    finally:
        sys.settrace(previous)
    return lines, entered


def _header(node: ast.stmt) -> tuple[int, int]:
    first = min([node.lineno] + [d.lineno for d in getattr(node, "decorator_list", ())])
    return first, max(node.lineno, node.body[0].lineno - 1)


def _statements(body: list[ast.stmt]):
    """(first, last) line of each statement of body that runs code, with
    those of the bodies nested in it but not of nested defs."""
    for node in body:
        if isinstance(node, (ast.Global, ast.Nonlocal)):
            continue
        if isinstance(node, _DEFS):
            yield _header(node)
        elif isinstance(node, ast.Try):
            yield from _statements(node.body)
            for handler in node.handlers:
                yield _header(handler)
                yield from _statements(handler.body)
            yield from _statements(node.orelse)
            yield from _statements(node.finalbody)
        elif isinstance(node, _HEADED):
            yield _header(node)
            yield from _statements(node.body)
            yield from _statements(getattr(node, "orelse", []))
        else:
            yield node.lineno, node.end_lineno


def functions(path: Path) -> list[tuple[str, int, int, list[tuple[int, int]]]]:
    """(qualified name, first line, last line, statements) of each def of
    the module at path, nested ones and methods included, its docstring
    left out."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    prefix = path.stem
    out = []

    def visit(body, scope):
        for node in body:
            if isinstance(node, ast.ClassDef):
                visit(node.body, f"{scope}{node.name}.")
            elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                stmts = node.body
                if (isinstance(stmts[0], ast.Expr) and isinstance(stmts[0].value, ast.Constant)
                        and isinstance(stmts[0].value.value, str)):
                    stmts = stmts[1:]
                out.append((f"{prefix}.{scope}{node.name}", _header(node)[0], node.end_lineno,
                            list(_statements(stmts))))
                visit(node.body, f"{scope}{node.name}.")

    visit(tree.body, "")
    return out


def _spans(numbers: list[int]) -> str:
    spans, start = [], None
    for i, n in enumerate(numbers):
        start = n if start is None else start
        if i + 1 == len(numbers) or numbers[i + 1] != n + 1:
            spans.append(str(n) if n == start else f"{start}-{n}")
            start = None
    return ", ".join(spans)


def report(lines, entered) -> tuple[list[str], list[str]]:
    """(never, unreached): a line for each function never entered, and one
    for each entered function with lines that never ran."""
    never, unreached = [], []
    for module in sorted(PACKAGE.glob("*.py")):
        path = str(module)
        for name, first, last, stmts in functions(module):
            if (path, first) not in entered:
                never.append(f"{name}  lines {first}-{last}")
                continue
            missed = sorted(a for a, b in stmts
                            if not any((path, n) in lines for n in range(a, b + 1)))
            if missed:
                unreached.append(f"{name}  {_spans(missed)}")
    return never, unreached


def _cli_runs(tmp: str) -> list[list[str]]:
    out = str(Path(tmp) / "records.jsonl")
    t2_13 = ["verify", "--theorem", "T2_13", "--q", "5", "--char", "2", "--a", "1"]
    return [
        ["suite", "--all"],
        ["suite", "--filter", "T2_1", "--format", "structured", "--out", out],
        ["suite", "--filter", "T9"],
        ["list-characters", "--q", "12"],
        ["lvalue", "--q", "5", "--char", "1", "--s", "0.5,14.134725"],
        ["lvalue", "--q", "40", "--char", "3", "--s", "200"],
        *(["bessel", "--kind", kind, "--nu", "0.3", "--x", "2.5"] for kind in "KIJY"),
        t2_13 + ["--x", "0.3"],
        t2_13 + ["--x", "0.3", "--format", "structured", "--out", out],
        ["verify", "--theorem", "T4_1", "--q", "5", "--char", "2", "--nu", "0.25",
         "--alpha", "0.5", "--beta", "3.4", "--f", "exp", "--format", "structured"],
        ["verify", "--theorem", "T2_1", "--q", "4", "--char", "0", "--k", "0", "--nu", "0.6",
         "--a", "1", "--x", "0.75"],  # an even chi where T2_1 wants an odd one: refused
        ["positivity", "--qmax", "30"],
    ]


def laboratory() -> None:
    """tblab's import, each CLI run of _cli_runs, then one pass of each
    benchmark workload."""
    from tblab import cli
    sys.path.insert(0, str(ROOT / "bench"))
    import workloads
    with tempfile.TemporaryDirectory() as tmp, contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        for argv in _cli_runs(tmp):
            cli.main(argv)
    for cls in workloads.WORKLOADS.values():
        workload = cls()
        for op in workload.make_run(0, 1)[0]:
            result, error = workloads.run_op(workload, op)
            if error is None:
                workload.check(op, result)


def main(argv=None) -> int:
    if sys.argv[1:] if argv is None else argv:
        print("usage: PYTHONPATH=src python3 tests/reach.py (no flags)", file=sys.stderr)
        return 2
    never, unreached = report(*trace(laboratory))
    print(f"functions never entered: {len(never)}")
    for line in never:
        print("  " + line)
    print(f"entered functions with lines that never ran: {len(unreached)}")
    for line in unreached:
        print("  " + line)
    return 0


if __name__ == "__main__":
    sys.exit(main())
