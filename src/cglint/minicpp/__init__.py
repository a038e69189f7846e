from . import lexer, parser
from .lexer import lex
from .parser import NODE_KINDS, parse
from .symbols import build_minicpp_symbols


def parse_source(text, path):
    """Lex and parse one file's ``text``. Looks up ``lexer.lex`` and
    ``parser.parse`` at each call, so a caller may wrap them."""
    return parser.parse(lexer.lex(text, file=path), file=path)


__all__ = [
    "lex",
    "parse",
    "parse_source",
    "NODE_KINDS",
    "build_minicpp_symbols",
]
