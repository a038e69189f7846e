"""The shipped rules, one module per language, each named by its language's
``pipeline.FRONTENDS`` entry.

``RULES_BY_LANGUAGE`` (``{language: rule classes}``) reads ``FRONTENDS`` on
access, so it imports the rules of every language.
"""


def __getattr__(name):
    if name == "RULES_BY_LANGUAGE":
        from ..pipeline import FRONTENDS

        return {language: frontend["rules"]() for language, frontend in FRONTENDS.items()}
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = ["RULES_BY_LANGUAGE"]
