from .lexer import lex
from .parser import NODE_KINDS, parse
from .symbols import build_minicpp_symbols

__all__ = [
    "lex",
    "parse",
    "NODE_KINDS",
    "build_minicpp_symbols",
]
