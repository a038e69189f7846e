"""The two sequence-chart checkers.

The test-driver object is the ``testDriver`` property, or else the chart's
first declared object: the first variable of the unit's symbol table, which
declares the objects in chart order. The grammar puts every object before
any message, and a message names only declared objects.
"""

from __future__ import annotations

from ..core import Rule
from ..model import Criticality, Priority, RuleDescriptor


def _driver(ctx):
    return ctx.prop("testDriver").strip() or ctx.table.variables[0].name


class TriggerChecker(Rule):
    descriptor = RuleDescriptor(
        id="TriggerChecker",
        title="Trigger stereotype checker",
        description="Checks that calls from the test driver carry the <<trigger>> stereotype.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=(("seqdiag", "Message"),),
        default_properties=(("testDriver", "", "str"),),
    )

    def visit(self, node, ctx):
        if node.attr("direction") != "CALL":
            return
        driver = _driver(ctx)
        if node.attr("source") == driver and node.attr("stereotype") != "trigger":
            ctx.report(
                node.span,
                "Call %r from test driver %r lacks the <<trigger>> stereotype."
                % (node.attr("payload"), driver),
            )


class NoCallToTestDriverChecker(Rule):
    descriptor = RuleDescriptor(
        id="NoCallToTestDriverChecker",
        title="Test driver call checker",
        description="Checks that no object calls the test driver.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.HIGH,
        subscriptions=(("seqdiag", "Message"),),
        default_properties=(("testDriver", "", "str"),),
    )

    def visit(self, node, ctx):
        if node.attr("direction") != "CALL":
            return
        driver = _driver(ctx)
        if node.attr("target") == driver:
            ctx.report(
                node.span,
                "Object %r calls the test driver %r."
                % (node.attr("source"), driver),
            )


SEQ_RULES = (TriggerChecker, NoCallToTestDriverChecker)
