"""Hand-written lexer for the preprocessed C++ subset.

Input is assumed to be preprocessor output: lines starting with ``#`` are
skipped verbatim (they are line markers) but still advance the row counter
so spans match the original file.
"""

from __future__ import annotations

from dataclasses import dataclass

from ..errors import LexError
from ..model import SourceSpan

KEYWORDS = frozenset(
    """
    class enum typedef namespace using public private protected virtual
    static const void bool char int short long float double unsigned signed
    if else switch case default for while do return break continue goto
    new delete true false this
    """.split()
)

# Longest match first.
_PUNCT = [
    "<<=", ">>=", "->", "::", "++", "--", "<<", ">>", "<=", ">=", "==", "!=",
    "&&", "||", "+=", "-=", "*=", "/=", "%=", "&=", "|=", "^=",
    "+", "-", "*", "/", "%", "&", "|", "^", "~", "!", "<", ">", "=",
    "(", ")", "{", "}", "[", "]", ";", ":", ",", ".", "?",
]

IDENT = "IDENT"
KEYWORD = "KEYWORD"
INT_LIT = "INT_LIT"
FLOAT_LIT = "FLOAT_LIT"
STRING_LIT = "STRING_LIT"
CHAR_LIT = "CHAR_LIT"
PUNCT = "PUNCT"


@dataclass(frozen=True)
class Token:
    kind: str
    text: str
    span: SourceSpan

    def is_punct(self, text):
        return self.kind == PUNCT and self.text == text

    def is_keyword(self, text):
        return self.kind == KEYWORD and self.text == text


def lex(text, file="<input>"):
    """Tokenize ``text``; raises LexError on the first offending character."""
    tokens = []
    pos = 0
    row = 1
    col = 1
    n = len(text)

    def advance(count):
        nonlocal pos, row, col
        for _ in range(count):
            if text[pos] == "\n":
                row += 1
                col = 1
            else:
                col += 1
            pos += 1

    def emit(kind, length):
        start = (row, col)
        word = text[pos : pos + length]
        advance(length)
        tokens.append(
            Token(kind, word, SourceSpan(file, start[0], start[1], row, col - 1))
        )

    while pos < n:
        ch = text[pos]
        if ch in " \t\r\n":
            advance(1)
            continue
        if ch == "#" and col == 1:
            while pos < n and text[pos] != "\n":
                advance(1)
            continue
        if text.startswith("//", pos):
            while pos < n and text[pos] != "\n":
                advance(1)
            continue
        if text.startswith("/*", pos):
            close = text.find("*/", pos + 2)
            if close < 0:
                raise LexError(SourceSpan.point(file, row, col), "unterminated comment")
            advance(close + 2 - pos)
            continue
        if ch.isalpha() or ch == "_":
            end = pos + 1
            while end < n and (text[end].isalnum() or text[end] == "_"):
                end += 1
            word = text[pos:end]
            emit(KEYWORD if word in KEYWORDS else IDENT, end - pos)
            continue
        if ch.isdigit() or (ch == "." and pos + 1 < n and text[pos + 1].isdigit()):
            end = pos
            is_float = False
            while end < n and (text[end].isalnum() or text[end] in "._"):
                if text[end] in ".eE":
                    is_float = is_float or text[end] == "."
                end += 1
            word = text[pos:end]
            if "e" in word.lower() and not word.lower().startswith("0x"):
                is_float = is_float or any(c in "eE" for c in word)
            emit(FLOAT_LIT if is_float else INT_LIT, end - pos)
            continue
        if ch == '"' or ch == "'":
            end = pos + 1
            while end < n and text[end] != ch:
                if text[end] == "\\":
                    end += 1
                if end >= n or text[end] == "\n":
                    break
                end += 1
            if end >= n or text[end] != ch:
                raise LexError(
                    SourceSpan.point(file, row, col), "unterminated literal"
                )
            emit(STRING_LIT if ch == '"' else CHAR_LIT, end + 1 - pos)
            continue
        for punct in _PUNCT:
            if text.startswith(punct, pos):
                emit(PUNCT, len(punct))
                break
        else:
            raise LexError(
                SourceSpan.point(file, row, col), "unexpected character %r" % ch
            )
    return tokens
