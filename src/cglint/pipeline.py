"""Per-language front ends and the analysis pipeline.

Every input file goes through four stages in order: read, parse, symbols,
traverse. ``FRONTENDS`` is the only per-language table; it names each
language's parser, symbol builder and file extensions. A language's lexer,
parser and symbol builder are imported on its first parse or symbol build,
so a run loads only the front end of its own language. ``analyze_file`` is
the unit's only error boundary: a file that cannot be read or decoded, or a
lex or parse error, becomes one fatal diagnostic. Such a file contributes no
findings but stays listed in the results, and never aborts the run.
"""

from __future__ import annotations

import codecs
import datetime

from .core import traverse
from .errors import SourceError, UnknownLanguageError
from .model import AnalysisRoot, Diagnostic, SourceSpan, ValidationResults
from .symtab import SymbolTable


# The front-end functions import their modules on first use and look up the
# modules' functions at each call, so a caller may wrap them.
def _parse_minicpp(text, path):
    from .minicpp import lexer, parser

    return parser.parse(lexer.lex(text, file=path), file=path)


def _minicpp_symbols(ast):
    from .minicpp import symbols

    return symbols.build_minicpp_symbols(ast)


def _parse_seqdiag(text, path):
    from . import seqdiag

    return seqdiag.parse_seq(text, file=path)


def _seqdiag_symbols(ast):
    from . import seqdiag

    return seqdiag.build_seqdiag_symbols(ast)


# language -> parse(text, path) -> AST, symbols(AST) -> SymbolTable, and the
# extensions a directory scan picks up.
FRONTENDS = {
    "minicpp": {
        "parse": _parse_minicpp,
        "symbols": _minicpp_symbols,
        "extensions": (".cpp", ".ii"),
    },
    "seqdiag": {
        "parse": _parse_seqdiag,
        "symbols": _seqdiag_symbols,
        "extensions": (".sd",),
    },
}


def get_frontend(language):
    try:
        return FRONTENDS[language]
    except KeyError:
        raise UnknownLanguageError(language) from None


def analyze_file(path, language, text=None):
    """Read (unless ``text`` is given), parse and build symbols for one file.

    The file is decoded as strict UTF-8 after dropping a complete leading
    byte-order mark (a truncated one is not UTF-8); a decode error points
    at the first byte that is not UTF-8.
    """
    frontend = get_frontend(language)
    path = str(path)
    root = AnalysisRoot(file=path, content="")
    try:
        if text is None:
            with open(path, "rb") as handle:
                data = handle.read()
            if data.startswith(codecs.BOM_UTF8):
                data = data[len(codecs.BOM_UTF8) :]
            # universal newlines, as reading in text mode gives them
            text = data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")
        root.content = text
        root.ast = frontend["parse"](text, path)
    except SourceError as exc:
        root.diagnostics.append(Diagnostic(exc.span, exc.message, fatal=True))
    except UnicodeDecodeError as exc:
        before = exc.object[: exc.start]  # the file's bytes after any byte-order mark
        col = len(before[before.rfind(b"\n") + 1 :].decode("utf-8")) + 1
        span = SourceSpan.point(path, before.count(b"\n") + 1, col)
        root.diagnostics.append(Diagnostic(span, str(exc), fatal=True))
    except OSError as exc:
        root.diagnostics.append(Diagnostic(None, str(exc), fatal=True))
    build_symbols(root)
    return root


def build_symbols(root):
    """Build ``root``'s symbol table with its language's builder, attach it
    to ``root`` and return it. A unit without an AST gets an empty table."""
    if root.ast is None:
        root.symbols = SymbolTable()
    else:
        root.symbols = FRONTENDS[root.ast.language]["symbols"](root.ast)
        root.diagnostics.extend(root.symbols.diagnostics)
    return root.symbols


def default_timestamp():
    return datetime.datetime.now(datetime.timezone.utc).strftime("%Y-%m-%dT%H:%M:%SZ")


def run_pipeline(files, language, registry, configs, timestamp=None, diagnostics=None):
    """Analyze ``files`` and merge the per-file reports into one results
    object. ``diagnostics``, when given, collects (path, Diagnostic) pairs."""
    get_frontend(language)
    merged = {}  # rule id -> RuleReport
    paths = []
    for path in files:
        root = analyze_file(path, language)
        paths.append(root.file)
        if diagnostics is not None:
            for diag in root.diagnostics:
                diagnostics.append((root.file, diag))
        reports = traverse(root, registry, configs)
        for report in reports:
            existing = merged.get(report.descriptor.id)
            if existing is None:
                merged[report.descriptor.id] = report
            else:
                existing.findings.extend(report.findings)
    for report in merged.values():
        report.findings.sort(key=lambda f: f.sort_key())
    if not merged:
        # no files analyzed: still report every enabled rule, empty
        empty_root = AnalysisRoot(file="", content="", ast=None)
        for report in traverse(empty_root, registry, configs):
            merged[report.descriptor.id] = report
    reports = [merged[rule_id] for rule_id in sorted(merged)]
    return ValidationResults(
        created=timestamp if timestamp is not None else default_timestamp(),
        reports=reports,
        files=sorted(paths),
    )
