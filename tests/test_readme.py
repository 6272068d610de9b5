"""The README's Python examples run, and print what their comments say.

Every ```python block of README.md is executed in order, in one namespace.
A statement ``expr  # comment`` whose comment starts with a Python literal
must evaluate to that literal: ``colength(J, 2)  # 6  (the same ideal)``
asserts ``colength(J, 2) == 6``.
"""

import ast
import io
import re
import tokenize
from pathlib import Path

README = Path(__file__).resolve().parents[1] / "README.md"


def _blocks() -> list:
    return re.findall(r"^```python\n(.*?)^```", README.read_text(), re.M | re.S)


def _literal_prefix(comment: str):
    """(True, value) for the longest prefix of the comment that is a literal."""
    text = comment.lstrip("#").strip()
    for end in range(len(text), 0, -1):
        try:
            return True, ast.literal_eval(text[:end])
        except (ValueError, SyntaxError):
            continue
    return False, None


def _run_block(source: str, namespace: dict) -> list:
    """Execute a block; return (line, expression, expected, got) per checked line."""
    comments = {
        tok.start[0]: tok.string
        for tok in tokenize.generate_tokens(io.StringIO(source).readline)
        if tok.type == tokenize.COMMENT
    }
    checked = []
    for stmt in ast.parse(source).body:
        found, expected = _literal_prefix(comments.get(stmt.end_lineno, ""))
        if isinstance(stmt, ast.Expr) and found:
            expr = ast.Expression(stmt.value)
            got = eval(compile(expr, str(README), "eval"), namespace)
            checked.append((stmt.lineno, ast.unparse(stmt.value), expected, got))
        else:
            exec(compile(ast.Module([stmt], []), str(README), "exec"), namespace)
    return checked


def test_readme_examples():
    blocks = _blocks()
    assert len(blocks) == 2
    namespace: dict = {}
    for source in blocks:
        checked = _run_block(source, namespace)
        assert checked, "a README block with no checked line"
        wrong = [c for c in checked if c[2] != c[3]]
        assert not wrong, wrong


def _verb_table() -> dict:
    """Each row of the README verb table: verb -> the first cell's text."""
    section = README.read_text().split("### Verbs\n", 1)[1].split("\n### ", 1)[0]
    cells = re.findall(r"^\| `([^`]*)` \|", section, re.M)
    return {cell.split()[0]: cell for cell in cells}


def test_verb_table_options_match_the_parser():
    from folinv import cli

    table = _verb_table()
    assert set(table) == set(cli.VERBS)
    for verb, cell in table.items():
        if verb in ("check", "scenarios"):
            continue
        usage = cli._parser().verbs[verb].format_usage()
        options = set(re.findall(r"--[A-Za-z][\w-]*", usage)) - {"--help", "--format"}
        assert set(re.findall(r"--[A-Za-z][\w-]*", cell)) == options, verb
