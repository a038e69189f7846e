"""The two sequence-chart checkers.

The test-driver object defaults to the first declared object of the chart
and can be pinned with the ``testDriver`` property.
"""

from __future__ import annotations

from ..core import Rule
from ..model import Criticality, Priority, RuleDescriptor

_SUBSCRIPTIONS = (("seqdiag", "ObjectDecl"), ("seqdiag", "Message"))


class _DriverRule(Rule):
    """Shared bookkeeping: remember the first declared object per unit."""

    def __init__(self):
        self.first_object = None

    def visit(self, node, ctx):
        if node.kind == "ObjectDecl":
            if self.first_object is None:
                self.first_object = node.attr("name")
            return
        if node.kind == "Message":
            self.check_message(node, ctx)

    def driver(self, ctx):
        configured = ctx.prop("testDriver", "").strip()
        return configured or self.first_object

    def check_message(self, node, ctx):
        raise NotImplementedError


class TriggerChecker(_DriverRule):
    descriptor = RuleDescriptor(
        id="TriggerChecker",
        title="Trigger stereotype checker",
        description="Checks that calls from the test driver carry the <<trigger>> stereotype.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.MEDIUM,
        subscriptions=_SUBSCRIPTIONS,
        default_properties=(("testDriver", "", "str"),),
    )

    def check_message(self, node, ctx):
        driver = self.driver(ctx)
        if driver is None or node.attr("direction") != "CALL":
            return
        if node.attr("source") == driver and node.attr("stereotype") != "trigger":
            ctx.report(
                node.span,
                "Call %r from test driver %r lacks the <<trigger>> stereotype."
                % (node.attr("payload"), driver),
            )


class NoCallToTestDriverChecker(_DriverRule):
    descriptor = RuleDescriptor(
        id="NoCallToTestDriverChecker",
        title="Test driver call checker",
        description="Checks that no object calls the test driver.",
        reference="",
        priority=Priority.SHALL,
        criticality=Criticality.HIGH,
        subscriptions=_SUBSCRIPTIONS,
        default_properties=(("testDriver", "", "str"),),
    )

    def check_message(self, node, ctx):
        driver = self.driver(ctx)
        if driver is None or node.attr("direction") != "CALL":
            return
        if node.attr("target") == driver:
            ctx.report(
                node.span,
                "Object %r calls the test driver %r."
                % (node.attr("source"), driver),
            )


SEQ_RULES = (TriggerChecker, NoCallToTestDriverChecker)
