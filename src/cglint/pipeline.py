"""Per-language front ends and the analysis pipeline.

Every input file goes through three stages in order: read, parse,
traverse; the parse fills the unit's symbol table as it goes. ``FRONTENDS``
is the only per-language table; it names each language's parser, rules and
file extensions, so adding a language is one entry plus its own modules. A
language's modules are imported on the first call that needs them, so a run
loads only the front end and the rules of its own language.
``get_frontend`` is the one place that rejects an unknown language.
``analyze_file`` is the unit's error boundary: a file that cannot be read
or decoded, a lex or parse error, or an unexpected exception while parsing
(an internal error in ``parse``) becomes one fatal diagnostic. Such a file
has no AST and an empty table, contributes no findings but stays listed in
the results, and never aborts the run. ``core.traverse`` is the boundary of
each rule in the same way.

The cyclic garbage collector is paused once for each unit: ``run_pipeline``
pauses it while a unit is read, parsed, walked and merged, and drops the
unit before the pause ends, so that reference counting frees it. A pause
never spans two units: almost everything a unit allocates lives until the
unit is done. ``analyze_file`` and ``traverse`` also pause it themselves,
for callers that call them directly.
"""

from __future__ import annotations

import codecs
import importlib
import time

from .core import paused_collector, traverse
from .errors import SourceError, UnknownLanguageError
from .model import AnalysisRoot, Diagnostic, Finding, SourceSpan, ValidationResults
from .report import display_path
from .symtab import SymbolTable


def _load(module, name):
    """``name`` of ``module`` (relative to this package), imported on first use."""
    return getattr(importlib.import_module(module, __package__), name)


# language -> parse(text, path, table) -> AST, which declares the unit's
# names in the empty SymbolTable ``table`` as it parses, rules() -> its rule
# classes, and the extensions a directory scan picks up. Each function looks
# its target up at every call, so a caller may wrap it.
FRONTENDS = {
    "minicpp": {
        "parse": lambda text, path, table: _load(".minicpp", "parse_source")(text, path, table),
        "rules": lambda: _load(".rules.cpp", "CPP_RULES"),
        "extensions": (".cpp", ".ii"),
    },
    "seqdiag": {
        "parse": lambda text, path, table: _load(".seqdiag", "parse_seq")(text, path, table),
        "rules": lambda: _load(".rules.seq", "SEQ_RULES"),
        "extensions": (".sd",),
    },
}


def get_frontend(language):
    try:
        return FRONTENDS[language]
    except KeyError:
        raise UnknownLanguageError(language) from None


def read_text(path):
    """The text of the file at ``path``, for a source file and a
    configuration file alike: a complete leading UTF-8 byte-order mark is
    dropped (a truncated one is not UTF-8), the rest is decoded as strict
    UTF-8, and newlines are universal. Raises OSError or UnicodeDecodeError."""
    with open(path, "rb") as handle:
        data = handle.read()
    if data.startswith(codecs.BOM_UTF8):
        data = data[len(codecs.BOM_UTF8) :]
    return data.decode("utf-8").replace("\r\n", "\n").replace("\r", "\n")


def analyze_file(path, language, text=None):
    """Read (unless ``text`` is given) and parse one file, with its symbols.

    The unit, its spans and its diagnostics name the file by
    ``report.display_path(path)``; a decode error points at the first byte
    that is not UTF-8. The cyclic garbage collector is paused while it runs.
    """
    with paused_collector():
        frontend = get_frontend(language)
        path = str(path)
        name = display_path(path)
        root = AnalysisRoot(file=name, content="", symbols=SymbolTable())
        try:
            if text is None:
                text = read_text(path)
            root.content = text
            root.ast = frontend["parse"](text, name, root.symbols)
        except SourceError as exc:
            root.diagnostics.append(Diagnostic(exc.span, exc.message, fatal=True))
        except UnicodeDecodeError as exc:
            before = exc.object[: exc.start]  # the file's bytes after any byte-order mark
            col = len(before[before.rfind(b"\n") + 1 :].decode("utf-8")) + 1
            span = SourceSpan.point(name, before.count(b"\n") + 1, col)
            root.diagnostics.append(Diagnostic(span, str(exc), fatal=True))
        except OSError as exc:
            root.diagnostics.append(Diagnostic(None, str(exc), fatal=True))
        except Exception as exc:
            root.diagnostics.append(Diagnostic.internal("parse", exc))
        build_symbols(root)
        return root


def build_symbols(root):
    """Return ``root``'s symbol table, which its parse filled, after adding
    the table's diagnostics to ``root``'s. A unit without an AST gets an
    empty table instead, for a failed parse may have filled part of it."""
    if root.ast is None:
        root.symbols = SymbolTable()
    else:
        root.diagnostics.extend(root.symbols.diagnostics)
    return root.symbols


def default_timestamp():
    return time.strftime("%Y-%m-%dT%H:%M:%SZ", time.gmtime())


def run_pipeline(files, language, registry, configs, timestamp=None, diagnostics=None):
    """Analyze ``files`` and gather their findings into one results object.

    The reports are those ``traverse`` gives for an empty unit: one per
    enabled rule, ordered by rule id, with its effective priority and
    properties, also when there are no files. Each unit's findings are
    added to them and sorted once. ``diagnostics``, when given, collects
    (path, Diagnostic) pairs. The cyclic garbage collector is paused for
    each unit, which is freed before the pause ends."""
    get_frontend(language)
    reports = traverse(AnalysisRoot(file="", content=""), registry, configs)
    paths = []
    for path in files:
        with paused_collector():
            root = analyze_file(path, language)
            paths.append(root.file)
            for report, unit in zip(reports, traverse(root, registry, configs)):
                report.findings.extend(unit.findings)
            if diagnostics is not None:
                diagnostics.extend((root.file, diag) for diag in root.diagnostics)
            del root
    for report in reports:
        report.findings.sort(key=Finding.sort_key)
    return ValidationResults(
        created=timestamp if timestamp is not None else default_timestamp(),
        reports=reports,
        files=sorted(paths),
    )
