"""The tokenizing loop both front ends share.

A language gives one compiled pattern whose alternatives are named groups.
A match of the group ``skip`` (blanks, line breaks, comments) yields no
token; any other group yields a token of the group's name, unless a hook
reclassifies it. A token is a plain ``(kind, text, row, col)`` tuple, row
and column 1-based; a token never spans lines, so it ends at column
``col + len(text) - 1``. Rows advance by the line feeds each match holds.

``Cursor`` is the token lookahead both parsers extend. It is the one place
that assigns node ids and builds node spans; spans are built for nodes and
errors only, never per token.
"""

from __future__ import annotations

from .model import MAX_NESTING, AstNode, SourceSpan


def scan(pattern, text, file, error, hooks=None):
    """Tokenize ``text`` with ``pattern``.

    A group may leave blanks before itself in its match, so the token's
    text and column are the group's own. ``hooks`` maps a group name to
    ``hook(text, start, word) -> (kind, word)``: the token the group's match
    at offset ``start`` stands for, which may be longer or shorter than the
    match. A hook that returns kind ``None`` rejects the match, and its
    ``word`` is the error message. ``error`` (a SourceError class) is
    raised at a point span: with the hook's message at the start of a
    rejected token, or with "unexpected character 'c'" at a character where
    no group matches.
    """
    hooks = hooks or {}
    tokens = []
    append = tokens.append
    match = pattern.match
    row = 1
    line_start = 0  # offset of the first character of ``row``
    pos = 0
    n = len(text)
    while pos < n:
        m = match(text, pos)
        if m is None:
            span = SourceSpan.point(file, row, pos - line_start + 1)
            raise error(span, "unexpected character %r" % text[pos])
        kind = m.lastgroup
        if kind == "skip":
            word = m.group()
            newlines = word.count("\n")
            if newlines:
                row += newlines
                line_start = pos + word.rfind("\n") + 1
            pos = m.end()
            continue
        start = m.start(kind)
        word = m.group(kind)
        col = start - line_start + 1
        pos = m.end()
        if kind in hooks:
            kind, word = hooks[kind](text, start, word)
            if kind is None:
                raise error(SourceSpan.point(file, row, col), word)
            pos = start + len(word)
        append((kind, word, row, col))
    return tokens


class Cursor:
    """Lookahead over the tokens of one unit, and the builder of its nodes.

    ``kinds`` and ``texts`` are the tokens' fields as parallel lists, each
    ending in a ``None`` that stands for the end of input, so looking ahead
    is a list lookup. A parser subclasses it and defines ``error(message)``,
    which raises at the current token and says how the end of input is
    reported. Node ids run 1..n in the order nodes are made, so a unit's
    root, made last, has the largest.
    """

    def __init__(self, tokens, file, language, ident):
        self.tokens = tokens
        self.kinds = [tok[0] for tok in tokens]
        self.kinds.append(None)
        self.texts = [tok[1] for tok in tokens]
        self.texts.append(None)
        self.file = file
        self.language = language
        self.ident = ident  # the token kind of an identifier
        self.pos = 0
        self.depth = 0
        self._next_id = 0

    def at(self, text, offset=0):
        """True iff the text of the token ``offset`` ahead is ``text``."""
        return self.texts[self.pos + offset] == text

    def span(self, index):
        """The span of the token at ``index``."""
        _kind, text, row, col = self.tokens[index]
        return SourceSpan(self.file, row, col, row, col + len(text) - 1)

    def expect(self, text):
        found = self.texts[self.pos]
        if found != text:
            self.error("expected %r, found %s" % (text, "end of input" if found is None else repr(found)))
        self.pos += 1

    def expect_ident(self):
        """Consume an identifier and return its text."""
        if self.kinds[self.pos] != self.ident:
            found = self.texts[self.pos]
            self.error("expected identifier, found %r" % ("end of input" if found is None else found))
        self.pos += 1
        return self.texts[self.pos - 1]

    def enter(self):
        """Count one level of grammar nesting; the caller decrements
        ``depth`` when it returns."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING)

    def make(self, kind, span, attrs=None, children=None):
        """A node with the next id."""
        self._next_id += 1
        return AstNode(self.language, kind, span, attrs or {}, children or [], self._next_id)

    def node(self, kind, start, attrs=None, children=None):
        """A node spanning the tokens from ``start`` to the last consumed
        (just the token at ``start`` if none was)."""
        first = self.tokens[start]
        last = self.tokens[self.pos - 1] if self.pos > start else first
        span = SourceSpan(self.file, first[2], first[3], last[2], last[3] + len(last[1]) - 1)
        return self.make(kind, span, attrs, children)
