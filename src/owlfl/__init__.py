"""Bidirectional OWL <-> F-logic translation with an embedded datalog engine.

Each public name is imported from its module on first use, so importing the
package loads none of them.
"""

from importlib import import_module

# module -> the public names it defines
_EXPORTS = {
    "diagnostics": "Diagnostic ERROR EngineError INFO WARNING",
    "engine": "ConstraintViolation FactStore KnowledgeBase collect_set holds "
              "insert_fact load_program query_goal run_constraint_checks "
              "saturate stratify unknown_names",
    "fl_to_owl": "TemplateMatch recognize_templates",
    "flogic": "FlProgram FlRule parse_program print_program",
    "owl_model": "OntologyDocument",
    "owl_parser": "parse_document",
    "owl_to_fl": "TranslationOptions translate_ontology",
    "owl_writer": "serialize_document",
}
_ORIGIN = {name: (module, name)
           for module, names in _EXPORTS.items() for name in names.split()}
_ORIGIN["translate_fl_to_owl"] = ("fl_to_owl", "translate_program")

__all__ = sorted(_ORIGIN)


def __getattr__(name):
    if name not in _ORIGIN:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    module, attr = _ORIGIN[name]
    value = globals()[name] = getattr(import_module("." + module, __name__),
                                      attr)
    return value


def __dir__():
    return sorted(set(globals()) | set(__all__))
