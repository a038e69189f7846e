"""The shipped rules, one module per language: ``cpp`` for minicpp and
``seq`` for seqdiag.

``rules_for`` imports only the module of the language it is asked for.
``RULES_BY_LANGUAGE`` (``{language: rule classes}``) imports both on access.
"""

import importlib

# language -> (module, the name of its list of rule classes)
_MODULES = {
    "minicpp": ("cpp", "CPP_RULES"),
    "seqdiag": ("seq", "SEQ_RULES"),
}


def rules_for(language):
    """The rule classes of ``language``; KeyError for an unknown one."""
    module, name = _MODULES[language]
    return getattr(importlib.import_module("." + module, __name__), name)


def __getattr__(name):
    if name == "RULES_BY_LANGUAGE":
        return {language: rules_for(language) for language in _MODULES}
    raise AttributeError("module %r has no attribute %r" % (__name__, name))


__all__ = ["RULES_BY_LANGUAGE", "rules_for"]
