"""Frontend for the sequence-chart DSL.

Grammar::

    chart      := "sequencediagram" IDENT "{" objectDecl* block "}"
    objectDecl := "object" IDENT ":" IDENT ";"
    block      := "{" (message | block)* "}"
    message    := IDENT ("->" | "<-") IDENT ":" ["<<" IDENT ">>"]
                  (IDENT "(" argList? ")" | "return" [IDENT]) ";"

Tokens are the shared ``scan`` loop's ``(kind, text, row, col)`` tuples, of
kind ``ident`` or ``punct``; Unicode blanks and ``//`` comments form the
``skip`` group and yield no token, and only a line feed starts a new row. A
character no token starts is a ParseError "unexpected character 'c'" at its
position. Messages referencing undeclared objects are fatal.
"""

from __future__ import annotations

import re

from .errors import ParseError, UndeclaredObjectError
from .model import MAX_NESTING, AstNode, SourceSpan
from .scan import scan
from .symtab import SymbolTable, VariableBinding

LANGUAGE = "seqdiag"

NODE_KINDS = ("SequenceDiagram", "ObjectDecl", "InteractionBlock", "Message")

_TOKEN = re.compile(
    r"""(?P<skip>\s+|//[^\n]*)
       |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
       |(?P<punct><<|>>|->|<-|[{}();:,])
    """,
    re.VERBOSE,
)


def _tokenize(text, file):
    """``(kind, text, row, col)`` tokens of ``text``, kind ``ident`` or
    ``punct``; raises ParseError on the first character no token starts."""
    return scan(_TOKEN, text, file, ParseError)


class _Parser:
    """Recursive descent over the token tuples of one chart. Spans are
    built for nodes and errors only, from their first and last tokens."""

    def __init__(self, text, file):
        self.tokens = _tokenize(text, file)
        self.pos = 0
        self.file = file
        self.objects = set()
        self.depth = 0
        self._next_id = 0

    def peek(self):
        return self.tokens[self.pos] if self.pos < len(self.tokens) else None

    def at(self, word):
        return self.pos < len(self.tokens) and self.tokens[self.pos][1] == word

    def span(self, first, last=None):
        """The span from token ``first`` through token ``last`` (default:
        ``first`` itself)."""
        _kind, text, row, col = last or first
        return SourceSpan(self.file, first[2], first[3], row, col + len(text) - 1)

    def expect(self, expected=None, ident=False):
        tok = self.peek()
        if tok is None:
            last = self.span(self.tokens[-1]) if self.tokens else SourceSpan.point(self.file, 1, 1)
            raise ParseError(last, "unexpected end of input")
        kind, word = tok[0], tok[1]
        if ident:
            if kind != "ident":
                raise ParseError(self.span(tok), "expected identifier, found %r" % word)
        elif word != expected:
            raise ParseError(self.span(tok), "expected %r, found %r" % (expected, word))
        self.pos += 1
        return tok

    def node(self, kind, span, attrs=None, children=None):
        self._next_id += 1
        return AstNode(LANGUAGE, kind, span, attrs or {}, children or [], self._next_id)

    def parse(self):
        first = self.expect("sequencediagram")
        name = self.expect(ident=True)[1]
        self.expect("{")
        children = []
        while self.at("object"):
            children.append(self.parse_object())
        while self.at("{"):
            children.append(self.parse_block())
        close = self.expect("}")
        return self.node("SequenceDiagram", self.span(first, close), {"name": name}, children)

    def parse_object(self):
        first = self.expect("object")
        name = self.expect(ident=True)[1]
        self.expect(":")
        type_name = self.expect(ident=True)[1]
        close = self.expect(";")
        self.objects.add(name)
        return self.node("ObjectDecl", self.span(first, close), {"name": name, "type": type_name})

    def parse_block(self):
        first = self.expect("{")
        self.depth += 1
        if self.depth > MAX_NESTING:
            raise ParseError(self.span(first), "nesting deeper than %d levels" % MAX_NESTING)
        children = []
        while self.peek() is not None and not self.at("}"):
            if self.at("{"):
                children.append(self.parse_block())
            else:
                children.append(self.parse_message())
        close = self.expect("}")
        self.depth -= 1
        return self.node("InteractionBlock", self.span(first, close), {}, children)

    def parse_message(self):
        left_tok = self.expect(ident=True)
        left = left_tok[1]
        arrow_tok = self.peek()
        if arrow_tok is None or arrow_tok[1] not in ("->", "<-"):
            raise ParseError(self.span(arrow_tok or left_tok), "expected '->' or '<-'")
        self.pos += 1
        right_tok = self.expect(ident=True)
        right = right_tok[1]
        self.expect(":")
        stereotype = ""
        if self.at("<<"):
            self.pos += 1
            stereotype = self.expect(ident=True)[1]
            self.expect(">>")
        if self.at("return"):
            self.pos += 1
            payload = "return"
            if self.peek() is not None and not self.at(";"):
                payload += " " + self.expect(ident=True)[1]
        else:
            call_name = self.expect(ident=True)[1]
            self.expect("(")
            args = []
            while self.peek() is not None and not self.at(")"):
                args.append(self.expect(ident=True)[1])
                if self.at(","):
                    self.pos += 1
            self.expect(")")
            payload = "%s(%s)" % (call_name, ", ".join(args))
        close = self.expect(";")

        # arrow head at the left name: '<-' means the right side calls back
        direction = "CALL" if arrow_tok[1] == "->" else "RETURN"
        for obj_tok in (left_tok, right_tok):
            if obj_tok[1] not in self.objects:
                raise UndeclaredObjectError(
                    self.span(obj_tok), "message names undeclared object %r" % obj_tok[1]
                )
        return self.node(
            "Message",
            self.span(left_tok, close),
            {
                "source": left,
                "target": right,
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
        raise ParseError(parser.span(extra), "trailing input after chart")
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
