"""Frontend for the sequence-chart DSL.

Grammar::

    chart      := "sequencediagram" IDENT "{" objectDecl* block* "}"
    objectDecl := "object" IDENT ":" IDENT ";"
    block      := "{" (message | block)* "}"
    message    := IDENT ("->" | "<-") IDENT ":" ["<<" IDENT ">>"]
                  (IDENT "(" [argList] ")" | "return" [IDENT]) ";"
    argList    := IDENT ("," IDENT)*

The shared scanner splits a chart into ``Tokens`` of kind ``ident`` or
``punct``. Unicode blanks and ``//`` comments form the gap between tokens
and yield none, and only a line feed starts a new row. A character no token
starts is a ParseError "unexpected character 'c'" at its position. The
parser declares each object in the global scope of the chart's symbol
table, the only scope, and a message naming an object not declared there is
fatal. Node ids and spans come from ``scan.Cursor``, which the parser
extends.
"""

from __future__ import annotations

import re

from .errors import ParseError, UndeclaredObjectError
from .model import SourceSpan
from .scan import Cursor, Kinds, pattern, scan
from .symtab import SymbolTable, VariableBinding

LANGUAGE = "seqdiag"

NODE_KINDS = ("SequenceDiagram", "ObjectDecl", "InteractionBlock", "Message")

_SPLIT = pattern(r"\s", r"//[^\n]*", [r"[A-Za-z_][A-Za-z0-9_]*", r"<<|>>|->|<-|[{}();:,]"])
_IDENT = re.compile(r"[A-Za-z_]")
_PUNCT = frozenset(("<<", ">>", "->", "<-", *"{}();:,"))


def _classify(word):
    if _IDENT.match(word):
        return "ident"
    return "punct" if word in _PUNCT else None


def _reject(text, start, word):
    return [(None, "unexpected character %r" % word, start)]


_KINDS = Kinds(_classify)


def _tokenize(text, file):
    """The ``Tokens`` of ``text``, of kind ``ident`` or ``punct``; raises
    ParseError on the first character no token starts."""
    return scan(_SPLIT, _KINDS, text, file, ParseError, _reject)


class _Parser(Cursor):
    """Recursive descent over the tokens of one chart, which declares its
    objects in ``table``."""

    def __init__(self, tokens, table):
        super().__init__(tokens, LANGUAGE, "ident")
        self.table = table
        self.scope = table.global_scope  # the only scope

    def error(self, message, index=None):
        """Raise a ParseError with ``message`` at the token at ``index``
        (default: the current one). At the end of input the message is
        "unexpected end of input", at the last token (1:1 if there is none)."""
        index = self.pos if index is None else index
        if self.texts[index] is not None:
            raise ParseError(self.tokens.span(index, index), message)
        if self.count:
            raise ParseError(self.tokens.span(self.count - 1, self.count - 1), "unexpected end of input")
        raise ParseError(SourceSpan.point(self.file, 1, 1), "unexpected end of input")

    def parse(self):
        self.expect("sequencediagram")
        name = self.expect_ident()
        self.expect("{")
        children = []
        while self.at("object"):
            children.append(self.parse_object())
        while self.at("{"):
            children.append(self.parse_block())
        self.expect("}")
        return self.node("SequenceDiagram", 0, {"name": name}, children)

    def parse_object(self):
        start = self.pos
        self.pos += 1  # "object"
        name = self.expect_ident()
        self.expect(":")
        type_name = self.expect_ident()
        self.expect(";")
        node = self.node("ObjectDecl", start, {"name": name, "type": type_name})
        binding = VariableBinding(name, node)
        return self.table.record(node, binding=binding, duplicate=self.table.declare(self.scope, binding))

    def parse_block(self):
        start = self.pos
        self.enter()
        self.pos += 1  # "{"
        children = []
        texts = self.texts
        # at the end of input, parse_message reports it
        while texts[self.pos] != "}":
            if texts[self.pos] == "{":
                children.append(self.parse_block())
            else:
                children.append(self.parse_message())
        self.pos += 1
        self.depth -= 1
        return self.node("InteractionBlock", start, children=children)

    def parse_message(self):
        texts = self.texts
        start = self.pos
        source = self.expect_ident()
        arrow = texts[self.pos]
        if arrow != "->" and arrow != "<-":
            self.error("expected '->' or '<-'", start if arrow is None else self.pos)
        self.pos += 1
        target_at = self.pos
        target = self.expect_ident()
        self.expect(":")
        stereotype = ""
        if texts[self.pos] == "<<":
            self.pos += 1
            stereotype = self.expect_ident()
            self.expect(">>")
        if texts[self.pos] == "return":
            self.pos += 1
            payload = "return"
            if texts[self.pos] != ";":
                payload += " " + self.expect_ident()
        else:
            call = self.expect_ident()
            payload = "%s(%s)" % (call, ", ".join(self.parse_list(self.expect_ident)))
        self.expect(";")

        for index, name in ((start, source), (target_at, target)):
            if self.scope.lookup_local(name) is None:
                message = "message names undeclared object %r" % name
                raise UndeclaredObjectError(self.tokens.span(index, index), message)
        # arrow head at the left name: '<-' means the right side calls back
        return self.node(
            "Message",
            start,
            {
                "source": source,
                "target": target,
                "direction": "CALL" if arrow == "->" else "RETURN",
                "stereotype": stereotype,
                "payload": payload,
            },
        )


def parse_seq(text, file="<input>", table=None):
    """Parse a sequence chart into its AST (language="seqdiag"), declaring
    its objects in ``table`` (a new ``SymbolTable`` if None)."""
    parser = _Parser(_tokenize(text, file), SymbolTable() if table is None else table)
    ast = parser.parse()
    if not parser.at(None):
        parser.error("trailing input after chart")
    return ast

