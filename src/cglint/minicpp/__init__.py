from .lexer import Token, lex
from .parser import NODE_KINDS, parse
from .symbols import build_minicpp_symbols

__all__ = [
    "Token",
    "lex",
    "parse",
    "NODE_KINDS",
    "build_minicpp_symbols",
]
