"""tests/reach.py: the tracer over one verify call."""

import ast

import reach
from tblab.identities import IdentityCase, verify


def _except_clause(function: str) -> tuple[int, int]:
    """First and last line of the except clause of identities.function."""
    tree = ast.parse((reach.PACKAGE / "identities.py").read_text(encoding="utf-8"))
    node = next(node for node in tree.body
                if isinstance(node, ast.FunctionDef) and node.name == function)
    handler = next(h for h in ast.walk(node) if isinstance(h, ast.ExceptHandler))
    return handler.lineno, handler.end_lineno


def test_one_verify_call_reports_what_it_never_entered():
    case = IdentityCase("T2_13", q=5, char_index=2, a=1.0, x=0.3)
    never, unreached = reach.report(*reach.trace(lambda: verify(case)))
    names = [line.split()[0] for line in never]
    assert "specfun.hurwitz_zeta" in names  # L sums its own batches
    assert "identities.verify" not in names
    # verify skipped its OverflowError clause alone
    first, last = _except_clause("verify")
    assert [line for line in unreached if line.split()[0] == "identities.verify"] == [
        f"identities.verify  {first}-{last}"]


def test_flags_are_refused(capsys):
    assert reach.main(["--all"]) == 2
    assert "no flags" in capsys.readouterr().err
