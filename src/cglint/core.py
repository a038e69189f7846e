"""Rule registry and the single-pass dispatching traversal."""

from __future__ import annotations

import gc

from .errors import DuplicateRuleIdError, UnknownRuleIdError
from .model import Diagnostic, Finding, RuleConfig, RuleReport
from .symtab import SymbolTable


class RuleContext:
    """Read-only view handed to a rule, plus its finding sink.

    ``properties`` holds every declared property converted to its type, so
    ``prop`` raises KeyError for a name the rule did not declare."""

    __slots__ = ("table", "properties", "rule_id", "findings")

    def __init__(self, table, properties, rule_id):
        self.table = table
        self.properties = properties
        self.rule_id = rule_id
        self.findings = []

    def report(self, span, message):
        self.findings.append(Finding(self.rule_id, span.start_point(), message))

    def prop(self, name):
        return self.properties[name]


class Rule:
    """Base class for listeners, one instance per unit. Subclasses set
    ``descriptor`` and override ``visit`` (once per subscribed node, pre-order),
    optionally ``leave`` (after each such node's subtree) and ``finish`` (after the walk).
    """

    descriptor = None

    def visit(self, node, ctx):
        pass

    def leave(self, node, ctx):
        pass

    def finish(self, ctx):
        pass


class RuleRegistry:
    def __init__(self):
        self._rules = {}  # id -> Rule subclass, registration order preserved
        self._subscriptions = {}  # (language, kind) -> [rule ids]

    def register(self, rule_cls):
        desc = rule_cls.descriptor
        if desc.id in self._rules:
            raise DuplicateRuleIdError(desc.id)
        self._rules[desc.id] = rule_cls
        for language, kind in desc.subscriptions:
            self._subscriptions.setdefault((language, kind), []).append(desc.id)

    def rule_count(self):
        return len(self._rules)

    def rule_ids(self):
        return list(self._rules)

    def descriptors(self):
        return [cls.descriptor for cls in self._rules.values()]

    def get(self, rule_id):
        try:
            return self._rules[rule_id]
        except KeyError:
            raise UnknownRuleIdError(rule_id) from None

    def subscribers(self, language, kind):
        return self._subscriptions.get((language, kind), [])


def register_rules(registry, rule_classes):
    for cls in rule_classes:
        registry.register(cls)
    return registry


def default_configs(registry):
    """One enabled default configuration per registered rule."""
    return [RuleConfig(rule_id=rid) for rid in registry.rule_ids()]


class paused_collector:
    """Context manager that pauses the cyclic garbage collector for one
    unit's parse or walk and then puts ``gc.isenabled()`` back as it found
    it, also when an exception is raised. Almost everything a unit
    allocates stays alive until the unit is done, so a collection in the
    middle of it would free nothing and only scan the growing tree."""

    __slots__ = ("enabled",)

    def __enter__(self):
        self.enabled = gc.isenabled()
        gc.disable()

    def __exit__(self, *exc):
        if self.enabled:
            gc.enable()


class TraversalStats:
    visits = 0  # nodes visited, summed over the walks this record is passed to


def traverse(root, registry, configs, stats=None):
    """Walk ``root.ast`` once, notifying every enabled subscribed rule.
    Rules read ``root.symbols``, or an empty table when it is not set.

    Every config, enabled or not, has its property texts (the rule's
    defaults updated with ``config.properties``) converted by
    ``RuleDescriptor.property_value``, which is their only check.

    The dispatch plan maps a node's ``(language, kind)`` to the bound
    ``visit``, and ``leave`` where overridden, of each enabled rule
    subscribed to it; an entry is filled the first time its kind is seen,
    and a node with no visit call makes none. A rule whose ``visit``,
    ``leave`` or ``finish`` raises is dropped from the unit: it gets no
    further call, adds one fatal internal-error diagnostic to
    ``root.diagnostics``, at the node of the call (the unit's start for
    ``finish``), and reports no findings for the unit. Every other rule
    keeps its findings.

    Returns one RuleReport per enabled rule (rules with zero findings
    included), with its priority override applied (a descriptor made by
    ``RuleDescriptor._replace``) and its property texts,
    ordered by rule id with findings sorted by position. The cyclic
    garbage collector is paused while it runs.
    """
    with paused_collector():
        table = root.symbols if root.symbols is not None else SymbolTable()
        live = {}  # rule id -> (rule instance, context) of each enabled rule that has not raised
        reports = {}  # rule id -> report of each enabled rule, whose findings are its context's
        for config in configs:
            rule_cls = registry.get(config.rule_id)
            descriptor = rule_cls.descriptor
            texts = {**descriptor.defaults(), **config.properties}
            properties = {name: descriptor.property_value(name, text) for name, text in texts.items()}
            if not config.enabled:
                continue
            ctx = RuleContext(table=table, properties=properties, rule_id=config.rule_id)
            live[config.rule_id] = (rule_cls(), ctx)
            if config.priority_override is not None:
                descriptor = descriptor._replace(priority=config.priority_override)
            reports[config.rule_id] = RuleReport(
                descriptor=descriptor, effective_properties=texts, findings=ctx.findings
            )

        if root.ast is not None:
            plan = {}
            stack = [root.ast]
            pop, push = stack.pop, stack.extend
            visits = 0
            while stack:
                node = pop()
                if node.__class__ is tuple:  # (node, its leave calls), pushed under its children
                    node, calls = node
                else:
                    visits += 1
                    key = (node.language, node.kind)
                    entry = plan.get(key)
                    if entry is None:
                        rules = [live[rule_id] for rule_id in registry.subscribers(*key) if rule_id in live]
                        leaves = [(rule.leave, ctx) for rule, ctx in rules if type(rule).leave is not Rule.leave]
                        entry = plan[key] = ([(rule.visit, ctx) for rule, ctx in rules], leaves)
                    calls, leaves = entry
                    if leaves:
                        stack.append((node, leaves))
                    if node.children:
                        push(reversed(node.children))
                    if not calls:
                        continue
                for call, ctx in calls:
                    if ctx.rule_id in live:  # not dropped at an earlier call
                        try:
                            call(node, ctx)
                        except Exception as exc:
                            _drop(root, live, ctx, exc, node.span)
            if stats is not None:
                stats.visits += visits
            for rule, ctx in list(live.values()):
                try:
                    rule.finish(ctx)
                except Exception as exc:
                    _drop(root, live, ctx, exc, root.ast.span)

        for report in reports.values():
            report.findings.sort(key=Finding.sort_key)
        return [reports[rule_id] for rule_id in sorted(reports)]


def _drop(root, live, ctx, exc, span):
    """Drop the rule of ``ctx``, which raised ``exc`` at ``span``, from the
    unit: it reports no findings, and ``root`` gets one internal-error
    diagnostic for it."""
    del live[ctx.rule_id]
    ctx.findings.clear()
    root.diagnostics.append(Diagnostic.internal("rule " + ctx.rule_id, exc, span.start_point()))
