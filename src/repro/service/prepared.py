"""Prepared queries: compile once, evaluate many times.

A long-lived server sees the same query text over and over; re-running the
parser, the λ translation, the safety checker, and the stratifier on every
request wastes the work that never changes between requests.  A
:class:`PreparedQuery` performs that whole front half exactly once:

- ``graphlog`` — parse the DSL, validate the graphical query, λ-translate
  to stratified Datalog, safety-check the program and plan it (a
  :class:`~repro.datalog.plan.ProgramPlan`: strata, groups, join orders);
- ``datalog`` — parse the program, safety-check and plan it;
- ``rpq`` — parse the label regular expression and compile its DFA.

The compiled plan is cached in a :class:`PreparedQueryCache` keyed by the
query *fingerprint*: a SHA-256 over the op and the whitespace/comment
normalized query text, so trivially reformatted queries share one plan.
Plans are immutable after preparation and safe to evaluate concurrently.
"""

from __future__ import annotations

import functools
import hashlib
import re
import threading
from collections import OrderedDict

from repro import obs
from repro.aggregation.aggregates import AggregateEngine
from repro.core.translate import DOMAIN_PREDICATE
from repro.datalog.ast import Literal, Program
from repro.datalog.columnar import decode_rows
from repro.datalog.database import Database
from repro.datalog.engine import Answer, Engine
from repro.datalog.plan import ProgramPlan
from repro.datalog.terms import Variable
from repro.errors import ArityError, ProtocolError, RegexError
from repro.rpq.evaluate import RPQEvaluator, image_reach
from repro.service import protocol
from repro.service.cache import result_key

_COMMENT = re.compile(r"[%#][^\n]*")
_WHITESPACE = re.compile(r"\s+")


def normalize(text):
    """Comment-stripped, whitespace-collapsed query text."""
    return _WHITESPACE.sub(" ", _COMMENT.sub(" ", text)).strip()


@functools.lru_cache(maxsize=256)
def fingerprint(op, text):
    """The plan key: SHA-256 over the op and the normalized query text.
    Memoized: a request's event-loop peek, its worker's plan lookup and, on
    a miss, the new plan all ask for the same text's key."""
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

    A *seeded* program reads the unary relation ``seed_relation`` — filled
    by the view, never by the store — and answers for every seed it holds
    at once: ``seed`` is this plan's (an RPQ's source), and its answer is
    the rows of ``predicates`` whose first column is ``seed``, without it
    (:func:`~repro.ham.views.select`).  Every seed of one type shares the
    view.
    """

    __slots__ = ("key", "program", "predicates", "idb", "reason", "seed_relation", "seed")

    def __init__(self, key, predicates, program=None, reason=None, seed_relation=None, seed=None):
        self.idb = frozenset(program.idb_predicates if program is not None else ())
        self.key = key if program is None else (key, self.idb)
        self.program = program
        self.predicates = tuple(predicates)
        self.reason = reason
        self.seed_relation = seed_relation
        self.seed = seed


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
        "program",
        "plan",
        "regex",
        "head_predicate",
        "idb_predicates",
        "has_summaries",
        "footprint",
        "dfa",
    )

    def __init__(self, op, text):
        self.op = op
        self.text = text
        self.fingerprint = fingerprint(op, text)
        self.program = None
        self.plan = None
        self.regex = None
        self.head_predicate = None
        self.idb_predicates = ()
        self.has_summaries = False
        #: Predicates the plan's answers can depend on — the delta-scoped
        #: result cache keeps entries alive across commits that miss this
        #: set.
        self.footprint = None
        self.dfa = None
        prepare = getattr(self, f"_prepare_{op}", None)
        if prepare is None:
            raise ProtocolError(f"cannot prepare op {op!r}")
        with obs.span("prepare", op=op, fingerprint=self.fingerprint[:12]):
            prepare()

    # ------------------------------------------------------------- prepare

    def _prepare_graphlog(self):
        """λ-translate the query — with summaries, to an AggregateProgram the
        AggregateEngine stratifies and checks itself.  The footprint is every
        predicate the program names: edge facts committed under an IDB name
        feed the evaluation's EDB too."""
        from repro.core.dsl import parse_graphical_query
        from repro.core.translate import translate, translate_extended
        from repro.datalog.safety import check_program_safety

        with obs.span("parse"):
            graphical = parse_graphical_query(self.text)
        self.head_predicate = graphical.graphs[-1].head_predicate
        self.idb_predicates = tuple(sorted(graphical.idb_predicates))
        self.has_summaries = any(g.summaries for g in graphical.graphs)
        if self.has_summaries:
            self.program = translate_extended(graphical)
        else:
            self.program = translate(graphical)
            with obs.span("safety"):
                check_program_safety(self.program)
            self.plan = ProgramPlan(self.program)
        self.footprint = frozenset(self.program.predicates)

    def _prepare_datalog(self):
        from repro.datalog.parser import parse_program
        from repro.datalog.safety import check_program_safety

        with obs.span("parse"):
            self.program = parse_program(self.text)
        with obs.span("safety"):
            check_program_safety(self.program)
        self.plan = ProgramPlan(self.program)
        self.idb_predicates = tuple(sorted(self.program.idb_predicates))
        self.footprint = frozenset(self.program.predicates)

    def _prepare_rpq(self):
        from repro.rpq.automaton import compile_regex
        from repro.rpq.regex import parse_regex

        with obs.span("parse"):
            self.regex = parse_regex(self.text)
        with obs.span("compile_dfa"):
            self.dfa = compile_regex(self.regex)
        labels = {label for label, _inverted in self.regex.symbols()}
        if self.dfa.start in self.dfa.accept:
            # Nullable path expression: every node answers (v, v), so the
            # result also depends on the node set — the active domain.
            labels.add(DOMAIN_PREDICATE)
        self.footprint = frozenset(labels)

    # ------------------------------------------------------------ evaluate

    def image(self, images, version, graph, params):
        """The :class:`~repro.ham.image.StoreImage` this plan reads at
        *version* from *images* (a :class:`~repro.ham.image.StoreImages`),
        or None for the RPQs only the graph answers: over a store with no
        image (it holds a label at two arities) or whose image may spread an
        edge endpoint over several columns (a tuple node), and nullable with
        no source, whose ``(v, v)`` pairs include the isolated nodes the
        image does not hold — the rule that denies that RPQ a λ view too."""
        if self.op == "rpq" and params.get("source") is None and self.dfa.start in self.dfa.accept:
            return None
        try:
            image = images.at(version, graph)
        except ArityError:
            if self.op != "rpq":
                raise
            return None
        return None if self.op == "rpq" and image.tuple_nodes else image

    def evaluate(self, graph, image, params):
        """Run the plan against one committed store state.

        ``graph`` is the store's :class:`LabeledMultigraph` (only an RPQ
        without an image reads it), ``image`` what :meth:`image` gave for it,
        ``params`` the request's evaluation-time parameters.  Returns an
        :class:`~repro.datalog.engine.Answer`: the int rows the columnar core
        or the image search left, or the values of a summary's or a walked RPQ's.
        """
        evaluate = getattr(self, f"_evaluate_{self.op}")
        return evaluate(graph, image, params or {})

    def _evaluate_graphlog(self, _graph, image, params):
        predicates = self.requested_predicates(params)
        if self.has_summaries:
            edb = image.edb(Program(()))  # ArityError for a user `node` not unary
            facts = {p: decode_rows(edb.relations[p], image.catalog.values)
                     for p in self.program.predicates if p in edb.relations}
            result = AggregateEngine().evaluate(self.program, Database.from_facts(facts))
            return Answer({p: set(result.facts(p)) for p in predicates})
        return Engine(check_safety=False).encoded_answer(
            self.plan, image.edb(self.program), predicates
        )

    def _evaluate_datalog(self, _graph, image, params):
        return Engine(check_safety=False).encoded_answer(
            self.plan, image.edb(self.program, raw=True), self.requested_predicates(params)
        )

    def _evaluate_rpq(self, graph, image, params):
        source = params.get("source")
        if image is None:
            evaluator = RPQEvaluator(graph)
            if source is not None:
                return Answer({"answers": {(t,) for t in evaluator.targets(self.regex, source)}})
            return Answer({"answers": evaluator.pairs(self.regex)})
        encoded = image.facts
        sources = None if source is None else [encoded.catalog.find(source)]
        if sources == [None]:  # no value of the store: only its empty path
            return Answer({"answers": {(source,)} if self.dfa.start in self.dfa.accept else set()})
        reached = image_reach(encoded.relations, self.dfa, sources)
        rows = [(s, t) for s, targets in reached.items() for t in targets]
        if source is not None:
            rows = [row[1:] for row in rows]
        return Answer({"answers": rows}, encoded.catalog.values)

    # ---------------------------------------------------------------- views

    def view(self, params):
        """The :class:`ViewDefinition` of a view answering this plan under
        *params*.  An RPQ's program is built here, and only here: a plain
        miss runs the image search and never pays for λ."""
        if self.has_summaries:
            return self._no_view(params, "aggregation/summarization is not maintainable")
        if self.op != "rpq":
            predicates = self.requested_predicates(params)
            key, predicates = canonical_view(self.program, predicates, self.op == "datalog")
            return ViewDefinition(key, predicates, self.program)
        source = params.get("source")
        try:
            program, seed_relation = self._rpq_program(source)
        except RegexError as why:
            return self._no_view(params, f"the path expression has no view: {why}")
        key, predicates = canonical_view(program, ("answers",), False)
        if seed_relation is None:
            return ViewDefinition(key, predicates, program)
        return ViewDefinition(
            (key, type(source).__name__),
            predicates,
            program,
            seed_relation=seed_relation,
            seed=source,
        )

    def _no_view(self, params, reason):
        predicates = ("answers",) if self.op == "rpq" else self.requested_predicates(params)
        return ViewDefinition(result_key(self.fingerprint, params), predicates, reason=reason)

    def _rpq_program(self, source):
        """``(program, seed relation)``: λ of the one-edge query whose label
        is this RPQ's p.r.e., ``answers(X, Y)``, and None; for a bound
        *source*, magic-rewritten for a bound ``X`` whatever its value, and
        the relation of its magic seed: ``answers`` then holds the reach set of
        each value the view seeds it with — and, when the expression is
        nullable, the empty path from it.  Raises ``RegexError`` for an RPQ
        λ would answer differently."""
        from repro.core.pre import regex_to_pre
        from repro.core.query_graph import GraphicalQuery, QueryGraph
        from repro.core.translate import translate
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
            return program, None
        magic = magic_rewrite(program, Atom(head, (Constant(source), Variable("Y"))))

        def named(atom):  # the adorned goal answers under the head's name
            return Atom(head, atom.args) if atom.predicate == magic.answer_predicate else atom

        rules = [
            Rule(named(rule.head), tuple(Literal(named(e.atom)) for e in rule.body))
            for rule in magic.program.rules
        ]
        if nullable:
            x = Variable("X")
            rules.append(Rule(Atom(head, (x, x)), (Literal(Atom(magic.seed_predicate, (x,))),)))
        # The rewrite emits one magic rule per occurrence of a subgoal.
        return Program(list(dict.fromkeys(rules))), magic.seed_predicate

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
