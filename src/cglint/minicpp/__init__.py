from . import lexer, parser
from .lexer import lex
from .parser import NODE_KINDS, parse


def parse_source(text, path, table):
    """Lex and parse one file's ``text``, filling ``table`` (see
    ``parser.parse``). Looks up ``lexer.lex`` and ``parser.parse`` at each
    call, so a caller may wrap them."""
    return parser.parse(lexer.lex(text, file=path), table=table)


__all__ = [
    "lex",
    "parse",
    "parse_source",
    "NODE_KINDS",
]
