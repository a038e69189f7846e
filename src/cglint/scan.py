"""The scanner both front ends share, and the token cursor both parsers
extend.

A language gives one pattern, built by ``pattern`` from its gap (blanks,
line breaks, comments: text that is no token) and its token alternatives,
and a ``Kinds`` table that names the kind of each distinct word. ``scan``
splits the whole text with one ``re.split`` call and classifies the words
with one ``map`` over that table, so a valid text runs Python code once per
distinct word, not once per token. The table also supplies each token's
text: every distinct text is one ``str`` object that the table keeps, not
one per occurrence. A token carries its offset, not its position: the
offsets and the text's line table are arrays of machine integers, and a row
and a column, both 1-based, are decoded from them by ``Tokens.span``, for an
error's span and for a node's span on its first read. Only a line feed
starts a new row, and a valid token never spans lines.

``Cursor`` is the token lookahead both parsers extend. It is the one place
that assigns node ids and node spans, and its ``parse_list`` parses every
parenthesised, comma-separated list of both languages. A node keeps the
index of its first and last token and decodes its span when it is first
read. A node without attributes shares the read-only ``NO_ATTRIBUTES``, and
``shared`` gives the nodes of a unit whose attributes one key, such as a
token's text, determines one read-only mapping per key.
"""

from __future__ import annotations

import re
from array import array
from bisect import bisect_left, bisect_right
from itertools import accumulate, islice
from types import MappingProxyType

from .model import MAX_NESTING, AstNode, SourceSpan

_new_tuple = tuple.__new__
_new_object = object.__new__

# the attributes of every made node that has none: read-only, so one serves all
NO_ATTRIBUTES = MappingProxyType({})


def pattern(blank, comments, tokens):
    """The split pattern of a language: a gap, then a token, one character
    no token starts, or the end of the text.

    The gap is any run of the one-character class ``blank`` and the
    ``comments`` alternatives (comments, line markers: any other text that
    is no token). The ``tokens`` alternatives are tried in order and hold
    no capturing group; ``.`` matches a line feed too. Since one character
    always matches, a split skips no text, and never resynchronises inside
    a comment or a literal.
    """
    gap = r"%s*(?:(?:%s)%s*)*" % (blank, comments, blank)
    return re.compile(r"(%s)(%s|.|\Z)" % (gap, "|".join(tokens)), re.DOTALL)


class Kinds(dict):
    """word -> token kind, each distinct word classified once by
    ``classify(word)``. Kind ``None`` marks a word that its text alone does
    not settle, such as an error; it is classified again at each use and not
    kept, so a table holds only token words. ``words`` maps each kept word
    to the one object the table keeps for it. A table lives as long as the
    process and grows by each distinct word of every text it scans."""

    def __init__(self, classify):
        super().__init__()
        self.classify = classify
        self.words = {}

    def __missing__(self, word):
        kind = self.classify(word)
        if kind is not None:
            self[word] = kind
            self.words[word] = word
        return kind


class Tokens:
    """The tokens of one text, which the file ``file`` holds.

    ``kinds`` and ``texts`` are parallel lists, each ending in a ``None``
    that stands for the input's end; the unsigned ``array`` ``starts``
    holds each token's offset and the unsigned ``array`` ``lines`` the
    offset each line starts at. ``len(tokens)`` counts the tokens.
    """

    __slots__ = ("kinds", "texts", "starts", "lines", "file")

    def __init__(self, kinds, texts, starts, lines, file):
        self.kinds = kinds
        self.texts = texts
        self.starts = starts
        self.lines = lines
        self.file = file

    def __len__(self):
        return len(self.starts)

    def span(self, first, last):
        """The span from the first character of token ``first`` to the last
        of token ``last``. The tokens are in order and a token never spans
        lines, so the span is ordered and needs no check; a span that ends
        on the row it starts on takes one search of the line table."""
        lines = self.lines
        offset = self.starts[first]
        row = bisect_right(lines, offset)
        col = offset - lines[row - 1] + 1
        offset = self.starts[last]
        end_row = row if offset < lines[row] else bisect_right(lines, offset, row)
        end_col = offset - lines[end_row - 1] + len(self.texts[last])
        # what SourceSpan(...) does, without its Python-level __new__
        return _new_tuple(SourceSpan, (self.file, row, col, end_row, end_col))


def point(lines, offset):
    """The 1-based ``(row, col)`` of ``offset`` in a text whose lines start
    at the offsets ``lines``."""
    row = bisect_right(lines, offset)
    return row, offset - lines[row - 1] + 1


def scan(pattern, kinds, text, file, error, settle):
    """Split ``text`` with ``pattern`` into ``Tokens`` whose kinds come from
    ``kinds``.

    A word of kind ``None`` is passed, in text order, to
    ``settle(text, start, word)``, which returns the ``(kind, word, start)``
    tokens that the word at offset ``start`` stands for. They may end past
    the word; the tokens they cover are dropped. A returned token of kind
    ``None`` rejects the text: ``error`` (a SourceError class) is raised at
    the point ``start``, with ``word`` as its message.

    A token's text is the object ``kinds`` keeps for its word, so each
    distinct text is one object however often it occurs; only a word that
    ``settle`` made is a text of its own.
    """
    pieces = pattern.split(text)  # [between, gap, token]* and the rest, all betweens ""
    del pieces[::3]  # [gap, token]*
    texts = pieces[1::2]
    while texts and not texts[-1]:  # the empty matches at the end
        texts.pop()
    starts = array("Q", islice(accumulate(map(len, pieces)), 0, 2 * len(texts), 2))
    kinds_of = list(map(kinds.__getitem__, texts))
    lines = array("Q", (0,))
    lines.extend(accumulate(map((1).__add__, map(len, text.split("\n")))))
    if None in kinds_of:
        kinds_of, texts, starts = _settle(kinds_of, texts, starts, text, settle, lines, file, error)
    texts = list(map(kinds.words.get, texts, texts))
    kinds_of.append(None)
    texts.append(None)
    return Tokens(kinds_of, texts, starts, lines, file)


def _settle(kinds, texts, starts, text, settle, lines, file, error):
    """``kinds``, ``texts`` and ``starts`` with each word of kind ``None``
    replaced by the tokens ``settle`` returns for it; see ``scan``."""
    out_kinds, out_texts, out_starts = [], [], array("Q")
    done = 0  # the tokens before ``done`` are settled
    while True:
        try:
            index = kinds.index(None, done)
        except ValueError:
            break
        out_kinds += kinds[done:index]
        out_texts += texts[done:index]
        out_starts += starts[done:index]
        end = starts[index] + len(texts[index])
        for kind, word, start in settle(text, starts[index], texts[index]):
            if kind is None:
                raise error(SourceSpan.point(file, *point(lines, start)), word)
            out_kinds.append(kind)
            out_texts.append(word)
            out_starts.append(start)
            end = max(end, start + len(word))
        done = bisect_left(starts, end, index + 1)
    return out_kinds + kinds[done:], out_texts + texts[done:], out_starts + starts[done:]


class Cursor:
    """Lookahead over the ``Tokens`` of one unit, and the builder of its
    nodes.

    Looking ahead is a lookup in the ``kinds`` and ``texts`` lists, whose
    ``None`` ends the input. A parser subclasses it and defines
    ``error(message)``, which raises at the current token and says how
    the input's end is reported. Node ids run 1..n in the order nodes are
    made, so a unit's root, made last, has the largest. ``node`` gives a
    node its first and last token index, and its span is decoded from them
    when it is first read.
    """

    def __init__(self, tokens, language, ident):
        self.tokens = tokens
        self.kinds = tokens.kinds
        self.texts = tokens.texts
        self.starts = tokens.starts
        self.lines = tokens.lines
        self.count = len(tokens)
        self.file = tokens.file
        self.language = language
        self.ident = ident  # the token kind of an identifier
        self.pos = 0
        self.depth = 0
        self._next_id = 0
        self._mappings = {}  # key -> the unit's one read-only mapping of the attributes it determines

    def at(self, text, offset=0):
        """True iff the text of the token ``offset`` ahead is ``text``."""
        return self.texts[self.pos + offset] == text

    def expect(self, text):
        if self.texts[self.pos] != text:
            self.expected(repr(text))
        self.pos += 1

    def expect_ident(self):
        """Consume an identifier and return its text."""
        if self.kinds[self.pos] != self.ident:
            self.expected("identifier")
        self.pos += 1
        return self.texts[self.pos - 1]

    def expected(self, what):
        """Raise ``error`` for ``what`` expected at the current token."""
        found = self.texts[self.pos]
        self.error("expected %s, found %s" % (what, "end of input" if found is None else repr(found)))

    def parse_list(self, parse_item):
        """Parse ``( a, b, … )``, each item by ``parse_item()``, and return
        the items. A comma is always followed by an item."""
        self.expect("(")
        items = []
        if self.texts[self.pos] != ")":
            items.append(parse_item())
            while self.texts[self.pos] == ",":
                self.pos += 1
                items.append(parse_item())
        self.expect(")")
        return items

    def enter(self):
        """Count one level of grammar nesting; the caller decrements
        ``depth`` when it returns."""
        self.depth += 1
        if self.depth > MAX_NESTING:
            self.error("nesting deeper than %d levels" % MAX_NESTING)

    def shared(self, key, **attrs):
        """The unit's one read-only mapping of ``attrs``, which ``key`` alone
        determines in the unit: for a node whose attributes its one token's
        text determines, that text."""
        mapping = self._mappings.get(key)
        if mapping is None:
            mapping = self._mappings[key] = MappingProxyType(attrs)
        return mapping

    def node(self, kind, start, attrs=None, children=None, last=None):
        """A node with the next id, spanning the tokens from index ``start``
        to ``last``: by default the last consumed, or just the token at
        ``start`` if none was. A node without attributes shares
        ``NO_ATTRIBUTES``, and one without children shares ``()``."""
        self._next_id += 1
        node = _new_object(AstNode)  # the fields of a parsed node, without __init__
        node.language = self.language
        node.kind = kind
        node._span = None
        node.attributes = attrs or NO_ATTRIBUTES
        node.children = children or ()
        node.node_id = self._next_id
        node.tokens = self.tokens
        node.first = start
        if last is None:
            last = self.pos - 1 if self.pos > start else start
        node.last = last
        return node
