"""Language-independent data model: syntax nodes, rule metadata, results.

Values that never change after they are made are ``NamedTuple``s:
``SourceSpan``, ``Diagnostic``, ``RuleDescriptor``, ``Finding`` (which also
checks its message) and ``report.SeveritySummary``. The records that later
stages fill in, ``AnalysisRoot``, ``RuleConfig``, ``RuleReport`` and
``ValidationResults``, are slotted ``Record`` classes with value equality.
"""

from __future__ import annotations

import enum
import os
import re
from typing import NamedTuple

from .errors import UnknownPropertyError


class SourceSpan(NamedTuple):
    """1-based, inclusive source region. A point span has end == start.

    A span is a tuple, so it also compares equal to a plain tuple with the
    same fields. ``point`` checks that a span is 1-based; ``scan.Tokens``
    decodes a span from two ordered tokens, which needs no check.
    """

    file: str
    row: int
    col: int
    end_row: int
    end_col: int

    @classmethod
    def point(cls, file, row, col):
        if row < 1 or col < 1:
            raise ValueError("span start must be 1-based: %r" % ((file, row, col),))
        return cls(file, row, col, row, col)

    def start_point(self):
        return SourceSpan(self.file, self.row, self.col, self.row, self.col)


# Syntax nesting beyond which a parser stops with a ParseError: minicpp
# declarations, statements and expressions, seqdiag interaction blocks. Each
# level costs a parser at most three Python frames, so the limit trips far
# below the interpreter's recursion limit.
MAX_NESTING = 128


class AstNode:
    """Generic, language-tagged syntax-graph node.

    ``kind`` is drawn from the owning frontend's published kind catalog;
    ``node_id`` values are unique within one unit, assigned in parse order.
    Attribute values are ``str``, ``bool`` or ``int``. A node compares equal
    only to itself.

    A hand-built node is given its span, and its ``tokens`` is None. A parsed
    node is not: ``scan.Cursor`` sets ``tokens``, its unit's ``Tokens``,
    whose ``firsts`` and ``lasts`` columns hold the index of its ``first``
    and ``last`` token at ``node_id - 1``, so the node owns no position.
    ``span`` decodes them on first read and keeps the result. A parsed
    node's ``attributes`` may be a read-only mapping that other nodes share
    (see ``scan.Cursor.node`` and ``Cursor.shared``); a hand-built node's is
    its own dict.
    """

    __slots__ = ("language", "kind", "_span", "attributes", "children", "node_id", "tokens")

    def __init__(self, language, kind, span, attributes=None, children=None, node_id=0):
        self.language = language
        self.kind = kind
        self._span = span
        self.attributes = {} if attributes is None else attributes
        self.children = [] if children is None else children
        self.node_id = node_id
        self.tokens = None

    @property
    def span(self):
        """The ``SourceSpan`` of the node's text."""
        span = self._span
        if span is None:
            tokens = self.tokens
            index = self.node_id - 1
            span = self._span = tokens.span(tokens.firsts[index], tokens.lasts[index])
        return span

    @property
    def first(self):
        """The index of a parsed node's first token."""
        return self.tokens.firsts[self.node_id - 1]

    @property
    def last(self):
        """The index of a parsed node's last token."""
        return self.tokens.lasts[self.node_id - 1]

    def __repr__(self):
        return "AstNode(%r, %r, %r, node_id=%d)" % (self.language, self.kind, self.span, self.node_id)

    def attr(self, name, default=""):
        return self.attributes.get(name, default)

    def walk(self):
        """Depth-first pre-order iteration over this subtree."""
        stack = [self]
        while stack:
            node = stack.pop()
            yield node
            stack.extend(reversed(node.children))


class Diagnostic(NamedTuple):
    span: SourceSpan | None
    message: str
    fatal: bool = True

    @classmethod
    def internal(cls, where, exc, span=None):
        """A fatal diagnostic for an unexpected exception ``exc`` raised in
        ``where`` (a stage or a rule), naming the exception and the line
        of code that raised it."""
        tb = exc.__traceback__
        while tb.tb_next is not None:
            tb = tb.tb_next
        origin = "%s:%d" % (os.path.basename(tb.tb_frame.f_code.co_filename), tb.tb_lineno)
        return cls(span, "internal error in %s: %s: %s (%s)" % (where, type(exc).__name__, exc, origin))


class Record:
    """Value equality and a repr over the fields a subclass names in
    ``__slots__``; a record is mutable, so it is not hashable."""

    __slots__ = ()

    def __eq__(self, other):
        return type(other) is type(self) and all(getattr(self, n) == getattr(other, n) for n in self.__slots__)

    def __repr__(self):
        return "%s(%s)" % (type(self).__name__, ", ".join("%s=%r" % (n, getattr(self, n)) for n in self.__slots__))


class AnalysisRoot(Record):
    """One parsed source unit plus everything later workflow stages attach.

    ``ast`` is present iff the unit was read and parsed; its parse built
    ``symbols``, which is an empty table when there is no ``ast``. Until the
    rules run, ``ast`` is present iff ``diagnostics`` holds no fatal entry;
    ``core.traverse`` adds one for each rule that raises.
    """

    __slots__ = ("file", "content", "ast", "symbols", "diagnostics")

    def __init__(self, file, content, ast=None, symbols=None, diagnostics=None):
        self.file = file
        self.content = content
        self.ast = ast
        self.symbols = symbols
        self.diagnostics = [] if diagnostics is None else diagnostics

    def has_fatal_error(self):
        return any(d.fatal for d in self.diagnostics)


class Priority(enum.Enum):
    SHOULD = "SHOULD"
    SHALL = "SHALL"
    WILL = "WILL"


class Criticality(enum.Enum):
    HIGH = "HIGH"
    MEDIUM = "MEDIUM"
    LOW = "LOW"


def parse_bool(text):
    """``true`` or ``false`` in any case; anything else is a ValueError."""
    value = text.lower()
    if value not in ("true", "false"):
        raise ValueError("expected true or false, found %r" % text)
    return value == "true"


def parse_int(text):
    """A non-negative integer in ASCII digits; anything else is a ValueError."""
    if not (text.isascii() and text.isdigit()):
        raise ValueError("expected digits, found %r" % text)
    return int(text)


def parse_list(text):
    """Comma-separated entries, each stripped; empty entries are dropped."""
    return [entry.strip() for entry in text.split(",") if entry.strip()]


# The types a rule property can declare, each with its conversion from text.
PROPERTY_TYPES = {"int": parse_int, "bool": parse_bool, "regex": re.compile, "str": str, "list": parse_list}


class RuleDescriptor(NamedTuple):
    """Identity and metadata of one validation rule.

    ``subscriptions`` and ``default_properties`` are registry wiring and do
    not take part in equality or hashing; the reporting layer round-trips
    descriptors through XML which carries only the six identity fields. Each
    default property is a ``(name, default text, type)`` triple, the type
    being a key of ``PROPERTY_TYPES``. A descriptor is immutable;
    ``_replace`` builds one with some fields changed.
    """

    id: str
    title: str
    description: str
    reference: str
    priority: Priority
    criticality: Criticality
    subscriptions: tuple = ()
    default_properties: tuple = ()

    def __eq__(self, other):
        return isinstance(other, RuleDescriptor) and self[:6] == other[:6]

    def __ne__(self, other):
        return not self == other

    def __hash__(self):
        return hash(self[:6])

    def defaults(self):
        """Property name -> default text."""
        return {name: text for name, text, _type in self.default_properties}

    def property_value(self, name, text):
        """Convert ``text`` to the declared type of property ``name``. This
        is the one check of a property: an undeclared ``name`` raises
        UnknownPropertyError, and a ``text`` its type rejects ValueError."""
        type_name = next((t for n, _d, t in self.default_properties if n == name), None)
        if type_name is None:
            raise UnknownPropertyError("rule %s has no property %r" % (self.id, name))
        try:
            return PROPERTY_TYPES[type_name](text)
        except (ValueError, re.error):
            raise ValueError("expected %s, found %r" % (type_name, text)) from None


class RuleConfig(Record):
    __slots__ = ("rule_id", "enabled", "priority_override", "properties")

    def __init__(self, rule_id, enabled=True, priority_override=None, properties=None):
        self.rule_id = rule_id
        self.enabled = enabled
        self.priority_override = priority_override
        self.properties = {} if properties is None else properties


class Finding(NamedTuple("Finding", [("rule_id", str), ("span", SourceSpan), ("message", str)])):
    """One rule's finding at a span; immutable, and its message is not empty."""

    __slots__ = ()

    def __new__(cls, rule_id, span, message):
        if not message:
            raise ValueError("finding message must be non-empty")
        return tuple.__new__(cls, (rule_id, span, message))

    def sort_key(self):
        return (self.span.file, self.span.row, self.span.col, self.message)


class RuleReport(Record):
    """All findings of one enabled rule, with its effective configuration."""

    __slots__ = ("descriptor", "effective_properties", "findings")

    def __init__(self, descriptor, effective_properties=None, findings=None):
        self.descriptor = descriptor
        self.effective_properties = {} if effective_properties is None else effective_properties
        self.findings = [] if findings is None else findings


class ValidationResults(Record):
    """Root results object: one report per enabled rule, ordered by rule id."""

    __slots__ = ("created", "reports", "files")

    def __init__(self, created, reports=None, files=None):
        self.created = created
        self.reports = [] if reports is None else reports
        self.files = [] if files is None else files

    def total_findings(self):
        return sum(len(r.findings) for r in self.reports)

    def findings_by_file(self):
        counts = {path: 0 for path in self.files}
        for report in self.reports:
            for finding in report.findings:
                counts[finding.span.file] = counts.get(finding.span.file, 0) + 1
        return counts
