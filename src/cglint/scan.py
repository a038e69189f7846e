"""The tokenizing loop both front ends share.

A language gives one compiled pattern whose alternatives are named groups.
A match of the group ``skip`` (blanks, line breaks, comments) yields no
token; any other group yields a token of the group's name, unless a hook
reclassifies it. A token is a plain ``(kind, text, row, col)`` tuple, row
and column 1-based; a token never spans lines, so it ends at column
``col + len(text) - 1``. Rows advance by the line feeds each match holds.
Spans are left to the parsers, which build them for nodes and errors only.
"""

from __future__ import annotations

from .model import SourceSpan


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
