"""Prepared queries: compile once, evaluate many times.

A long-lived server sees the same query text over and over; re-running the
parser, the λ translation, the safety checker, and the stratifier on every
request wastes the work that never changes between requests.  A
:class:`PreparedQuery` performs that whole front half exactly once:

- ``graphlog`` — parse the DSL, validate the graphical query, λ-translate
  to stratified Datalog, safety-check and stratify the program;
- ``datalog`` — parse the program, safety-check and stratify it;
- ``rpq`` — parse the label regular expression and compile its DFA.

The compiled plan is cached in a :class:`PreparedQueryCache` keyed by the
query *fingerprint*: a SHA-256 over the op and the whitespace/comment
normalized query text, so trivially reformatted queries share one plan.
Plans are immutable after preparation and safe to evaluate concurrently.
"""

from __future__ import annotations

import hashlib
import re
import threading
from collections import OrderedDict

from repro import obs
from repro.datalog.ast import Literal
from repro.datalog.terms import Variable
from repro.errors import ProtocolError, RegexError
from repro.service import protocol
from repro.service.cache import result_key

_COMMENT = re.compile(r"[%#][^\n]*")
_WHITESPACE = re.compile(r"\s+")


def normalize(text):
    """Comment-stripped, whitespace-collapsed query text."""
    return _WHITESPACE.sub(" ", _COMMENT.sub(" ", text)).strip()


def fingerprint(op, text):
    """The plan key: SHA-256 over the op and the normalized query text."""
    payload = f"{op}\x00{normalize(text)}".encode("utf-8")
    return hashlib.sha256(payload).hexdigest()


class ViewDefinition:
    """What a maintained view of one plan under one set of params holds.

    ``program`` derives ``predicates``, the relations the plan answers.
    Without a program the plan has no maintained view — ``reason`` says
    why — and a view of it re-evaluates the plan and diffs.  ``key`` names
    the view in the subscription manager's table: for a program,
    :func:`canonical_view`'s key and ``idb``, the program's IDB predicates
    — every copy that differs only in those names has the same ``key[0]``;
    otherwise the plan's result key.
    """

    __slots__ = ("key", "program", "predicates", "idb", "reason")

    def __init__(self, key, predicates, program=None, reason=None):
        self.idb = frozenset(program.idb_predicates if program is not None else ())
        self.key = key if program is None else (key, self.idb)
        self.program = program
        self.predicates = tuple(predicates)
        self.reason = reason


def canonical_view(program, predicates, raw_edb):
    """``(key, predicates)``: *program* up to a renaming of its IDB
    predicates (numbered in order of first occurrence) and of each rule's
    variables, plus the numbers of *predicates*, which come back in that
    order.  Two programs with one key compute the same relations over the
    same EDB — *raw_edb* is whether that is the database as stored (a
    Datalog request's) or with the active domain as ``node`` (λ's) — as
    long as it holds no facts under their IDB names, which each reads as
    base facts of those relations.  Constants keep their type, so ``1`` and
    ``True`` never share a key."""
    idb = program.idb_predicates
    numbers = {}

    def predicate(name):
        return numbers.setdefault(name, len(numbers)) if name in idb else name

    rules = []
    for rule in program:
        variables = {}

        def term(t):
            if isinstance(t, Variable):
                return (t.is_anonymous, variables.setdefault(t.name, len(variables)))
            return (type(t.value).__name__, t.value)

        def atom(a):
            return (predicate(a.predicate), tuple(map(term, a.args)))

        head = atom(rule.head)
        body = tuple(
            (e.positive, atom(e.atom))
            if isinstance(e, Literal)
            else (type(e).__name__, e.op, *(term(getattr(e, s)) for s in e.__slots__ if s != "op"))
            for e in rule.body
        )
        rules.append((head, body))
    ordered = tuple(sorted(predicates, key=predicate))
    return ("view", raw_edb, tuple(rules), tuple(map(predicate, ordered))), ordered


class PreparedQuery:
    """One compiled plan: the parsed/translated/checked form of a query."""

    __slots__ = (
        "op",
        "text",
        "fingerprint",
        "graphical",
        "program",
        "strata",
        "regex",
        "head_predicate",
        "idb_predicates",
        "has_summaries",
        "footprint",
        "reads_relations",
    )

    def __init__(self, op, text):
        self.op = op
        self.text = text
        self.fingerprint = fingerprint(op, text)
        self.graphical = None
        self.program = None
        self.strata = None
        self.regex = None
        self.head_predicate = None
        self.idb_predicates = ()
        self.has_summaries = False
        #: Predicates the plan's answers can depend on — the delta-scoped
        #: result cache keeps entries alive across commits that miss this
        #: set.  None = unknown (every commit invalidates).
        self.footprint = None
        #: Whether evaluation reads the store's relational image (a graph
        #: search does not, and is never handed one).
        self.reads_relations = True
        prepare = getattr(self, f"_prepare_{op}", None)
        if prepare is None:
            raise ProtocolError(f"cannot prepare op {op!r}")
        with obs.span("prepare", op=op, fingerprint=self.fingerprint[:12]):
            prepare()

    # ------------------------------------------------------------- prepare

    def _prepare_graphlog(self):
        from repro.core.dsl import parse_graphical_query
        from repro.core.translate import translate, translate_extended
        from repro.datalog.safety import check_program_safety
        from repro.datalog.stratify import stratify

        with obs.span("parse"):
            self.graphical = parse_graphical_query(self.text)
        self.head_predicate = self.graphical.graphs[-1].head_predicate
        self.idb_predicates = tuple(sorted(self.graphical.idb_predicates))
        self.has_summaries = any(g.summaries for g in self.graphical.graphs)
        if self.has_summaries:
            # Aggregate evaluation re-checks its own stratification; keep
            # the extended program for inspection but evaluate through the
            # AggregateEngine at run time.  Footprint stays None (unknown):
            # every commit invalidates cached summary answers.
            self.program = translate_extended(self.graphical)
        else:
            self.program = translate(self.graphical)
            with obs.span("safety"):
                check_program_safety(self.program)
            self.strata = stratify(self.program)
            # All referenced predicates, IDB names included: edge facts
            # committed under an IDB name feed the evaluation's EDB copy.
            self.footprint = frozenset(self.program.predicates)

    def _prepare_datalog(self):
        from repro.datalog.parser import parse_program
        from repro.datalog.safety import check_program_safety
        from repro.datalog.stratify import stratify

        with obs.span("parse"):
            self.program = parse_program(self.text)
        with obs.span("safety"):
            check_program_safety(self.program)
        self.strata = stratify(self.program)
        self.idb_predicates = tuple(sorted(self.program.idb_predicates))
        self.footprint = frozenset(self.program.predicates)

    def _prepare_rpq(self):
        from repro.core.translate import DOMAIN_PREDICATE
        from repro.rpq.automaton import compile_regex
        from repro.rpq.regex import parse_regex

        with obs.span("parse"):
            self.regex = parse_regex(self.text)
        with obs.span("compile_dfa"):
            dfa = compile_regex(self.regex)  # validates eagerly; cheap to recompile
        labels = {label for label, _inverted in self.regex.symbols()}
        if dfa.start in dfa.accept:
            # Nullable path expression: every node answers (v, v), so the
            # result also depends on the node set — the active domain.
            labels.add(DOMAIN_PREDICATE)
        self.footprint = frozenset(labels)
        self.reads_relations = False

    # ------------------------------------------------------------ evaluate

    def evaluate(self, graph, image, params):
        """Run the plan against one committed store state.

        ``graph`` is the store's :class:`LabeledMultigraph`, ``image`` its
        :class:`~repro.ham.image.StoreImage` (shared across requests at the
        same version; None for a plan that does not ``reads_relations``),
        ``params`` the request's evaluation-time parameters.  Returns
        ``{relation_name: set_of_rows}``.
        """
        evaluate = getattr(self, f"_evaluate_{self.op}")
        return evaluate(graph, image, params or {})

    def _evaluate_graphlog(self, _graph, image, params):
        from repro.core.engine import GraphLogEngine
        from repro.datalog.engine import Engine

        predicates = self.requested_predicates(params)
        if self.has_summaries:
            result = GraphLogEngine().run(self.graphical, image.database)
            return {p: set(result.facts(p)) for p in predicates}
        return Engine(check_safety=False).answer(self.program, image.prepared, predicates)

    def _evaluate_datalog(self, _graph, image, params):
        from repro.datalog.engine import Engine

        return Engine(check_safety=False).answer(
            self.program, image.database, self.requested_predicates(params)
        )

    def _evaluate_rpq(self, graph, _image, params):
        from repro.rpq.evaluate import RPQEvaluator

        evaluator = RPQEvaluator(graph)
        source = params.get("source")
        if source is not None:
            targets = evaluator.targets(self.regex, source)
            return {"answers": {(t,) for t in targets}}
        return {"answers": evaluator.pairs(self.regex)}

    # ---------------------------------------------------------------- views

    def view(self, params):
        """The :class:`ViewDefinition` of a view answering this plan under
        *params*.  An RPQ's program is built here, and only here: a plain
        miss runs the automaton search and never pays for λ."""
        if self.has_summaries:
            return self._no_view(params, "aggregation/summarization is not maintainable")
        if self.op != "rpq":
            program, predicates = self.program, self.requested_predicates(params)
        else:
            try:
                program, predicates = self._rpq_program(params.get("source"))
            except RegexError as why:
                return self._no_view(params, f"the path expression has no view: {why}")
        return ViewDefinition(*canonical_view(program, predicates, self.op == "datalog"), program)

    def _no_view(self, params, reason):
        predicates = ("answers",) if self.op == "rpq" else self.requested_predicates(params)
        return ViewDefinition(result_key(self.fingerprint, params), predicates, reason=reason)

    def _rpq_program(self, source):
        """``(program, ("answers",))``: λ of the one-edge query whose label
        is this RPQ's p.r.e.; for a bound *source*, magic-rewritten for it,
        with the magic seed and — when the expression is nullable — the
        empty path from *source* as program facts, so the program holds
        *source*'s reach set alone.  Raises ``RegexError`` for an RPQ λ
        would answer differently."""
        from repro.core.pre import regex_to_pre
        from repro.core.query_graph import GraphicalQuery, QueryGraph
        from repro.core.translate import DOMAIN_PREDICATE, translate
        from repro.datalog.ast import Atom, Literal, Program, Rule
        from repro.datalog.magic import magic_rewrite
        from repro.datalog.terms import Constant, Variable

        pre = regex_to_pre(self.regex)
        head = "answers"
        reserved = {DOMAIN_PREDICATE, head} & {label for label, _ in self.regex.symbols()}
        if reserved:
            raise RegexError(f"labels {sorted(reserved)} name relations λ reserves")
        nullable = DOMAIN_PREDICATE in self.footprint
        if nullable and source is None:
            raise RegexError(
                "it is nullable, and λ pairs the active domain with itself "
                "where the automaton pairs every graph node, isolated ones too"
            )
        graph = QueryGraph()
        graph.edge("X", "Y", pre)
        graph.distinguished("X", "Y", head)
        program = translate(GraphicalQuery([graph]))
        if source is None:
            return program, (head,)
        source, target = Constant(source), Variable("Y")
        magic = magic_rewrite(program, Atom(head, (source, target)))
        rules = magic.program.rules + [
            Rule(Atom(magic.seed_predicate, tuple(map(Constant, magic.seed_values)))),
            Rule(Atom(head, (target,)), (Literal(Atom(magic.answer_predicate, (source, target))),)),
        ]
        if nullable:
            rules.append(Rule(Atom(head, (source,))))
        # The rewrite emits one magic rule per occurrence of a subgoal.
        return Program(list(dict.fromkeys(rules))), (head,)

    def requested_predicates(self, params):
        """The predicates a request (or a view) under *params* answers for."""
        predicate = params.get("predicate")
        if predicate is not None:
            if predicate not in self.idb_predicates:
                raise ProtocolError(
                    f"predicate {predicate!r} is not defined by this query; "
                    f"defined: {', '.join(self.idb_predicates)}"
                )
            return (predicate,)
        if self.op == "graphlog":
            return (self.head_predicate,)
        return self.idb_predicates

    def __repr__(self):
        return f"PreparedQuery({self.op}, {self.fingerprint[:12]}...)"


#: The wire ops that name a query language — the ones a plan can be
#: prepared for — in op-table order.
QUERY_OPS = tuple(op for op in protocol.OPS if hasattr(PreparedQuery, f"_prepare_{op}"))


class PreparedQueryCache:
    """Thread-safe LRU cache of compiled plans, keyed by fingerprint."""

    def __init__(self, capacity=256):
        if capacity < 1:
            raise ValueError("plan cache capacity must be >= 1")
        self.capacity = capacity
        self._plans = OrderedDict()
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.evictions = 0

    def __len__(self):
        return len(self._plans)

    def get(self, op, text, prepare=True):
        """The cached plan for (op, text), preparing it on first sight — with
        *prepare* false, a peek that counts nothing (see :meth:`count_hit`)
        and is None for a plan not cached."""
        key = fingerprint(op, text)
        with self._lock:
            plan = self._plans.get(key)
            if plan is not None:
                self._plans.move_to_end(key)
                self.hits += prepare
                return plan
        if not prepare:
            return None
        # Prepare outside the lock: compilation can be slow and must not
        # serialize unrelated requests.  A racing duplicate just overwrites
        # with an identical plan.
        plan = PreparedQuery(op, text)
        with self._lock:
            self.misses += 1
            self._plans[key] = plan
            self._plans.move_to_end(key)
            while len(self._plans) > self.capacity:
                self._plans.popitem(last=False)
                self.evictions += 1
        return plan

    def count_hit(self):
        with self._lock:
            self.hits += 1

    def clear(self):
        with self._lock:
            self._plans.clear()

    def stats(self):
        with self._lock:
            return {
                "size": len(self._plans),
                "capacity": self.capacity,
                "hits": self.hits,
                "misses": self.misses,
                "evictions": self.evictions,
            }
