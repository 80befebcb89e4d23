"""Datalog substrate: AST, parser, database, stratification, evaluation.

This package implements the stratified Datalog engine that GraphLog queries
are translated into (Section 2 of the paper), plus the structural program
classes of Section 3 (linear, TC-shaped).
"""

from repro.datalog.ast import (
    ArithmeticAssign,
    Atom,
    Comparison,
    Literal,
    Program,
    Rule,
    atom,
    fact,
    lit,
    neglit,
    rule,
)
from repro.datalog.classify import (
    classification,
    is_linear,
    is_stratified_linear,
    is_stratified_tc_program,
    is_tc_program,
    recursive_predicates,
)
from repro.datalog.database import Database, Relation
from repro.datalog.engine import Engine, evaluate, match_atom, query
from repro.datalog.magic import magic_answers, magic_query, magic_rewrite
from repro.datalog.parser import parse_atom, parse_program, parse_rule
from repro.datalog.provenance import Derivation, explain, why
from repro.datalog.safety import check_program_safety, check_rule_safety, is_safe
from repro.datalog.stratify import DependenceGraph, is_stratified, stratify
from repro.datalog.terms import (
    Constant,
    FreshVariables,
    Sentinel,
    Term,
    Variable,
    make_constant,
    make_term,
    make_variable,
)

__all__ = [
    "ArithmeticAssign",
    "Atom",
    "Comparison",
    "Constant",
    "Database",
    "DependenceGraph",
    "Engine",
    "FreshVariables",
    "Literal",
    "Program",
    "Relation",
    "Rule",
    "Sentinel",
    "Term",
    "Variable",
    "atom",
    "check_program_safety",
    "check_rule_safety",
    "Derivation",
    "classification",
    "explain",
    "evaluate",
    "fact",
    "is_linear",
    "is_safe",
    "is_stratified",
    "is_stratified_linear",
    "is_stratified_tc_program",
    "is_tc_program",
    "lit",
    "magic_answers",
    "magic_query",
    "magic_rewrite",
    "make_constant",
    "make_term",
    "make_variable",
    "match_atom",
    "neglit",
    "parse_atom",
    "parse_program",
    "parse_rule",
    "query",
    "recursive_predicates",
    "rule",
    "stratify",
    "why",
]
