"""Frontend for the sequence-chart DSL.

Grammar::

    chart      := "sequencediagram" IDENT "{" objectDecl* block "}"
    objectDecl := "object" IDENT ":" IDENT ";"
    block      := "{" (message | block)* "}"
    message    := IDENT ("->" | "<-") IDENT ":" ["<<" IDENT ">>"]
                  (IDENT "(" argList? ")" | "return" [IDENT]) ";"

Messages referencing undeclared objects are fatal. ``//`` comments are
permitted anywhere.
"""

from __future__ import annotations

import re

from .errors import ParseError, UndeclaredObjectError
from .model import MAX_NESTING, AstNode, SourceSpan
from .symtab import SymbolTable, VariableBinding

LANGUAGE = "seqdiag"

NODE_KINDS = ("SequenceDiagram", "ObjectDecl", "InteractionBlock", "Message")

_TOKEN = re.compile(
    r"""(?P<ws>\s+|//[^\n]*)
       |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
       |(?P<punct><<|>>|->|<-|[{}();:,])
    """,
    re.VERBOSE,
)


def _tokenize(text, file):
    tokens = []
    row, col = 1, 1
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ParseError(
                SourceSpan.point(file, row, col),
                "unexpected character %r" % text[pos],
            )
        word = m.group(0)
        if m.lastgroup != "ws":
            end_col = col + len(word) - 1
            tokens.append((word, SourceSpan(file, row, col, row, end_col)))
        newlines = word.count("\n")
        if newlines:
            row += newlines
            col = len(word) - word.rfind("\n")
        else:
            col += len(word)
        pos = m.end()
    return tokens


class _Parser:
    def __init__(self, text, file):
        self.tokens = _tokenize(text, file)
        self.pos = 0
        self.file = file
        self.objects = set()
        self.depth = 0
        self._next_id = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def expect(self, expected=None, ident=False):
        tok = self.peek()
        if tok is None:
            last = self.tokens[-1][1] if self.tokens else SourceSpan.point(self.file, 1, 1)
            raise ParseError(last, "unexpected end of input")
        word, span = tok
        if ident:
            if not word[0].isalpha() and word[0] != "_":
                raise ParseError(span, "expected identifier, found %r" % word)
        elif word != expected:
            raise ParseError(span, "expected %r, found %r" % (expected, word))
        self.pos += 1
        return tok

    def node(self, kind, span, attrs=None, children=None):
        self._next_id += 1
        return AstNode(
            language=LANGUAGE,
            kind=kind,
            span=span,
            attributes=attrs or {},
            children=children or [],
            node_id=self._next_id,
        )

    def parse(self):
        first = self.expect("sequencediagram")
        name, _ = self.expect(ident=True)
        self.expect("{")
        children = []
        while self.peek() is not None and self.peek()[0] == "object":
            children.append(self.parse_object())
        while self.peek() is not None and self.peek()[0] == "{":
            children.append(self.parse_block())
        close = self.expect("}")
        span = SourceSpan(
            self.file,
            first[1].row,
            first[1].col,
            close[1].end_row,
            close[1].end_col,
        )
        return self.node("SequenceDiagram", span, {"name": name}, children)

    def parse_object(self):
        first = self.expect("object")
        name, _ = self.expect(ident=True)
        self.expect(":")
        type_name, _ = self.expect(ident=True)
        close = self.expect(";")
        self.objects.add(name)
        span = SourceSpan(
            self.file, first[1].row, first[1].col, close[1].end_row, close[1].end_col
        )
        return self.node("ObjectDecl", span, {"name": name, "type": type_name})

    def parse_block(self):
        first = self.expect("{")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(first[1], "nesting deeper than %d levels" % MAX_NESTING)
        children = []
        while self.peek() is not None and self.peek()[0] != "}":
            if self.peek()[0] == "{":
                children.append(self.parse_block())
            else:
                children.append(self.parse_message())
        close = self.expect("}")
        self.depth -= 1
        span = SourceSpan(
            self.file, first[1].row, first[1].col, close[1].end_row, close[1].end_col
        )
        return self.node("InteractionBlock", span, {}, children)

    def parse_message(self):
        first = self.expect(ident=True)
        left, left_span = first
        arrow_tok = self.peek()
        if arrow_tok is None or arrow_tok[0] not in ("->", "<-"):
            span = arrow_tok[1] if arrow_tok else left_span
            raise ParseError(span, "expected '->' or '<-'")
        self.pos += 1
        right, right_span = self.expect(ident=True)
        self.expect(":")
        stereotype = ""
        if self.peek() is not None and self.peek()[0] == "<<":
            self.pos += 1
            stereotype, _ = self.expect(ident=True)
            self.expect(">>")
        if self.peek() is not None and self.peek()[0] == "return":
            self.pos += 1
            payload = "return"
            if self.peek() is not None and self.peek()[0] != ";":
                value, _ = self.expect(ident=True)
                payload += " " + value
        else:
            call_name, _ = self.expect(ident=True)
            self.expect("(")
            args = []
            while self.peek() is not None and self.peek()[0] != ")":
                arg, _ = self.expect(ident=True)
                args.append(arg)
                if self.peek() is not None and self.peek()[0] == ",":
                    self.pos += 1
            self.expect(")")
            payload = "%s(%s)" % (call_name, ", ".join(args))
        close = self.expect(";")

        # arrow head at the left name: '<-' means the right side calls back
        direction = "CALL" if arrow_tok[0] == "->" else "RETURN"
        source, target = (left, right)
        for obj, obj_span in ((left, left_span), (right, right_span)):
            if obj not in self.objects:
                raise UndeclaredObjectError(
                    obj_span, "message names undeclared object %r" % obj
                )
        span = SourceSpan(
            self.file,
            arrow_tok[1].row,
            left_span.col,
            close[1].end_row,
            close[1].end_col,
        )
        return self.node(
            "Message",
            span,
            {
                "source": source,
                "target": target,
                "direction": direction,
                "stereotype": stereotype,
                "payload": payload,
            },
        )


def parse_seq(text, file="<input>"):
    """Parse a sequence chart into its AST (language="seqdiag")."""
    parser = _Parser(text, file)
    ast = parser.parse()
    extra = parser.peek()
    if extra is not None:
        raise ParseError(extra[1], "trailing input after chart")
    return ast


def build_seqdiag_symbols(chart):
    table = SymbolTable()
    for node in chart.walk():
        if node.kind == "ObjectDecl":
            binding = VariableBinding(
                name=node.attr("name"),
                declared_type=node.attr("type"),
                decl_span=node.span,
            )
            table.declare(table.global_scope, binding, span=node.span)
            table.bind_node(node, scope=table.global_scope, binding=binding)
        else:
            table.bind_node(node, scope=table.global_scope)
    return table
