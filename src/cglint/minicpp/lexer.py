"""Lexer for the preprocessed C++ subset.

The shared scanner splits the input with one pattern into ``Tokens``; kinds
are the constants below. Blanks, line breaks, comments and line markers form
the gap between tokens and yield none. Input is assumed to be preprocessor
output: a line whose column 1 is ``#`` is a line marker, skipped but still
counted, so rows match the original file. A ``#`` anywhere else is an error.
The three errors are "unterminated comment", "unterminated literal" and
"unexpected character 'c'", each a LexError at the position where the
offending text starts.
"""

from __future__ import annotations

import re

from ..errors import LexError
from ..scan import Kinds, pattern, scan

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

# The token alternatives, tried in this order. ``wide`` takes what ``\w``
# admits beyond ASCII letters and decimal digits, with a ``.`` before it:
# ``_settle`` decides from ``isalpha`` and ``isdigit`` whether it starts an
# identifier, a number or an error. ``open_comment`` (which takes the rest
# of the text) and ``open_literal`` catch what a comment or literal left
# unclosed.
_TOKENS = {
    "name": r"[A-Za-z_]\w*",
    "number": r"\.?\d[\w.]*",
    "wide": r"\.?[^\W\d_A-Za-z]\w*",
    STRING_LIT: r'"(?:[^"\\\n]|\\[^\n])*"',
    CHAR_LIT: r"'(?:[^'\\\n]|\\[^\n])*'",
    "open_comment": r"/\*.*",
    PUNCT: "|".join(re.escape(p) for p in _PUNCT),
    "open_literal": r"[\"']",
}
_SPLIT = pattern(r"[ \t\r\n]", r"//[^\n]*|/\*.*?\*/|(?<![^\n])\#[^\n]*", _TOKENS.values())
# the alternative a word came from: the first that matches all of it
_WORD = re.compile("|".join("(?P<%s>%s)" % item for item in _TOKENS.items()), re.DOTALL)
_NUMBER = re.compile(r"\.?\w[\w.]*")


def _number(word):
    is_float = "." in word or (("e" in word or "E" in word) and word[:2] not in ("0x", "0X"))
    return FLOAT_LIT if is_float else INT_LIT


def _classify(word):
    """The kind of ``word``, or None for a word that is an error or a
    ``wide`` word whose token the text after it decides."""
    match = _WORD.fullmatch(word)
    group = match.lastgroup if match else None
    if group == "name":
        return KEYWORD if word in KEYWORDS else IDENT
    if group == "number":
        return _number(word)
    if group == "wide":
        return IDENT if word[0].isalpha() else None
    if group in (STRING_LIT, CHAR_LIT, PUNCT):
        return group
    return None


def _settle(text, start, word):
    """The tokens a word of kind None at offset ``start`` stands for. A
    ``wide`` word whose first non-dot character is a digit starts a number,
    which may run over the words after it; a ``.`` and a letter are a
    ``PUNCT`` and an identifier; any other character is an error."""
    if word.startswith("/*"):
        return [(None, "unterminated comment", start)]
    if word in ('"', "'"):
        return [(None, "unterminated literal", start)]
    dot = word[0] == "."
    lead = word[dot]
    if lead.isdigit():
        number = _NUMBER.match(text, start).group()
        return [(_number(number), number, start)]
    if dot and lead.isalpha():
        return [(PUNCT, ".", start), (IDENT, word[1:], start + 1)]
    return [(None, "unexpected character %r" % lead, start + dot)]


_KINDS = Kinds(_classify)


def lex(text, file="<input>"):
    """Tokenize ``text`` into ``Tokens``; raises LexError on the first
    offending character."""
    return scan(_SPLIT, _KINDS, text, file, LexError, _settle)
