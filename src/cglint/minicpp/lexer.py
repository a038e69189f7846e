"""Lexer for the preprocessed C++ subset.

One compiled pattern, run by the shared ``scan`` loop, tokenizes the input
into ``(kind, text, row, col)`` tuples; kinds are the constants below. Blanks,
line breaks, comments and line markers form the ``skip`` group and yield no
token. Input is assumed to be preprocessor output: a line whose column 1 is
``#`` is a line marker, skipped but still counted, so rows match the
original file. A ``#`` anywhere else is an error. The three errors are
"unterminated comment", "unterminated literal" and "unexpected character
'c'", each a LexError at the position where the offending text starts.
"""

from __future__ import annotations

import re

from ..errors import LexError
from ..scan import scan

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

# Blanks before a token are part of its match, and a run of blanks, line
# breaks, comments and line markers is one ``skip`` match. A group named after
# a token kind yields that kind; the other groups go through ``_HOOKS``.
# ``wide`` takes what ``\w`` admits beyond ASCII letters and decimal digits,
# with a ``.`` before it: ``_wide`` decides from ``isalpha`` and ``isdigit``
# whether it starts an identifier, a number or an error. ``open_comment`` and
# ``open_literal`` catch what a comment or literal left unclosed.
# Alternatives are tried in order.
_TOKEN = re.compile(
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


def lex(text, file="<input>"):
    """Tokenize ``text`` into ``(kind, text, row, col)`` tuples; raises
    LexError on the first offending character."""
    return scan(_TOKEN, text, file, LexError, _HOOKS)


def _keyword(text, start, word):
    return (KEYWORD if word in KEYWORDS else IDENT), word


def _number(text, start, word):
    is_float = "." in word or (("e" in word or "E" in word) and word[:2] not in ("0x", "0X"))
    return (FLOAT_LIT if is_float else INT_LIT), word


def _wide(text, start, word):
    """The token a ``wide`` match starts: a number if its first non-dot
    character is a digit, else a lone ``.``, else an identifier if that
    character is a letter; rejected if not."""
    lead = word[word[0] == "."]
    if lead.isdigit():
        return _number(text, start, _NUMBER.match(text, start).group())
    if word[0] == ".":
        return PUNCT, "."
    if lead.isalpha():
        return IDENT, word
    return None, "unexpected character %r" % lead


# group -> hook(text, start, word) -> (kind, word), kind None for an error
_HOOKS = {
    "IDENT": _keyword,
    "number": _number,
    "wide": _wide,
    "open_comment": lambda text, start, word: (None, "unterminated comment"),
    "open_literal": lambda text, start, word: (None, "unterminated literal"),
}
