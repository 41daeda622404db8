"""Bidirectional OWL <-> F-logic translation with an embedded datalog engine."""

from .diagnostics import Diagnostic, ERROR, INFO, WARNING
from .engine import (
    ConstraintViolation, EngineError, FactStore, KnowledgeBase, collect_set,
    insert_fact, load_program, query_goal, run_constraint_checks, saturate,
    stratify,
)
from .fl_to_owl import TemplateMatch, recognize_templates
from .fl_to_owl import translate_program as translate_fl_to_owl
from .flogic import FlProgram, FlRule, parse_program, print_program
from .owl_model import OntologyDocument
from .owl_parser import parse_document
from .owl_to_fl import TranslationOptions, translate_ontology
from .owl_writer import serialize_document

__all__ = [
    "ConstraintViolation", "Diagnostic", "ERROR", "EngineError", "FactStore",
    "FlProgram", "FlRule", "INFO", "KnowledgeBase", "OntologyDocument",
    "TemplateMatch", "TranslationOptions", "WARNING",
    "collect_set", "insert_fact", "load_program", "parse_document",
    "parse_program", "print_program", "query_goal", "recognize_templates",
    "run_constraint_checks", "saturate", "serialize_document", "stratify",
    "translate_fl_to_owl", "translate_ontology",
]
