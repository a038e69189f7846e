"""Byte-for-byte regression of the minicpp AST of ``ExampleImpl.cpp`` and of
``grammar.cpp``, which holds every construct of the subset that parses. A
golden has one line per node in walk order, indented by depth: the kind,
the span, the sorted attributes, for a binary or assignment node the
position of its operator (``op=row:col``, as ``rules.cpp._op_span`` derives
it), the number of children and the node id.

Regenerate a golden only for an intended AST change::

    PYTHONPATH=src python3 tests/test_ast_golden.py
"""

import os

import pytest

from cglint.minicpp import lex, parse
from cglint.rules.cpp import _op_span

HERE = os.path.dirname(os.path.abspath(__file__))
FIXTURES = os.path.join(HERE, "fixtures")
GOLDEN = os.path.join(HERE, "golden")
SOURCES = ["ExampleImpl.cpp", "grammar.cpp"]


def ast_text(name):
    with open(os.path.join(FIXTURES, name), encoding="utf-8") as handle:
        unit = parse(lex(handle.read(), name))
    lines = []
    stack = [(unit, 0)]
    while stack:
        node, depth = stack.pop()
        span = node.span
        attrs = " ".join("%s=%r" % item for item in sorted(node.attributes.items()))
        op = ""
        if node.kind in ("BinaryExpr", "AssignExpr"):
            op_span = _op_span(node)
            op = " op=%d:%d" % (op_span.row, op_span.col)
        lines.append(
            "%s%s %d:%d-%d:%d {%s}%s children=%d id=%d"
            % ("  " * depth, node.kind, span.row, span.col, span.end_row, span.end_col,
               attrs, op, len(node.children), node.node_id)
        )
        stack.extend((child, depth + 1) for child in reversed(node.children))
    return "\n".join(lines) + "\n"


def golden_path(name):
    return os.path.join(GOLDEN, os.path.splitext(name)[0] + ".ast")


@pytest.mark.parametrize("name", SOURCES)
def test_ast_matches_golden(name):
    with open(golden_path(name), encoding="utf-8") as handle:
        assert ast_text(name) == handle.read()


if __name__ == "__main__":
    for source in SOURCES:
        with open(golden_path(source), "w", encoding="utf-8") as handle:
            handle.write(ast_text(source))
