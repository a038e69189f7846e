"""The match-per-token tokenizer both front ends used before the scanner
split each text in one call, kept as the reference the scanner is compared
against.

``oracle_lex`` and ``oracle_tokenize`` return minicpp's and seqdiag's
``(kind, text, row, col)`` tuples or raise the same error class, message and
span as ``minicpp.lexer.lex`` and ``seqdiag._tokenize``. Each runs one
pattern match per token or run of blanks, in a Python loop.
"""

from __future__ import annotations

import re

from cglint.errors import LexError, ParseError
from cglint.minicpp.lexer import _PUNCT, CHAR_LIT, FLOAT_LIT, IDENT, INT_LIT, KEYWORD, KEYWORDS, PUNCT
from cglint.model import SourceSpan


def scan(pattern, text, file, error, hooks=None):
    """Tokenize ``text`` with ``pattern``.

    A match of the group ``skip`` yields no token; any other group yields a
    token of the group's name, unless a hook reclassifies it. A group may
    leave blanks before itself in its match, so the token's text and column
    are the group's own. ``hooks`` maps a group name to
    ``hook(text, start, word) -> (kind, word)``: the token the group's match
    at offset ``start`` stands for, which may be longer or shorter than the
    match. A hook that returns kind ``None`` rejects the match, and its
    ``word`` is the error message. ``error`` is raised at a point span: with
    the hook's message at the start of a rejected token, or with
    "unexpected character 'c'" at a character where no group matches.
    """
    hooks = hooks or {}
    tokens = []
    row = 1
    line_start = 0  # offset of the first character of ``row``
    pos = 0
    while pos < len(text):
        m = pattern.match(text, pos)
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
        tokens.append((kind, word, row, col))
    return tokens


_CPP_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<skip>(?:[ \t\r\n]+|//[^\n]*|/\*.*?\*/|(?<![^\n])\#[^\n]*)+)
       |(?P<IDENT>[A-Za-z_]\w*)
       |(?P<number>\.?\d[\w.]*)
       |(?P<wide>\.?[^\W\d_A-Za-z]\w*)
       |(?P<STRING_LIT>"(?:[^"\\\n]|\\[^\n])*")
       |(?P<CHAR_LIT>'(?:[^'\\\n]|\\[^\n])*')
       |(?P<open_comment>/\*)
       |(?P<PUNCT>%s)
       |(?P<open_literal>["'])
    )""" % "|".join(re.escape(p) for p in _PUNCT),
    re.VERBOSE | re.DOTALL,
)
_NUMBER = re.compile(r"\.?\w[\w.]*")


def _keyword(text, start, word):
    return (KEYWORD if word in KEYWORDS else IDENT), word


def _number(text, start, word):
    is_float = "." in word or (("e" in word or "E" in word) and word[:2] not in ("0x", "0X"))
    return (FLOAT_LIT if is_float else INT_LIT), word


def _wide(text, start, word):
    lead = word[word[0] == "."]
    if lead.isdigit():
        return _number(text, start, _NUMBER.match(text, start).group())
    if word[0] == ".":
        return PUNCT, "."
    if lead.isalpha():
        return IDENT, word
    return None, "unexpected character %r" % lead


_CPP_HOOKS = {
    "IDENT": _keyword,
    "number": _number,
    "wide": _wide,
    "open_comment": lambda text, start, word: (None, "unterminated comment"),
    "open_literal": lambda text, start, word: (None, "unterminated literal"),
}

_SEQ_TOKEN = re.compile(
    r"""[ \t]*(?:
        (?P<skip>(?:\s+|//[^\n]*)+)
       |(?P<ident>[A-Za-z_][A-Za-z0-9_]*)
       |(?P<punct><<|>>|->|<-|[{}();:,])
    )""",
    re.VERBOSE,
)


def oracle_lex(text, file="<input>"):
    return scan(_CPP_TOKEN, text, file, LexError, _CPP_HOOKS)


def oracle_tokenize(text, file):
    return scan(_SEQ_TOKEN, text, file, ParseError)
