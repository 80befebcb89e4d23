"""Abstract syntax of Datalog programs.

A :class:`Program` is a list of :class:`Rule` objects.  A rule has a head
:class:`Atom` and a body of *body literals*: positive or negated
:class:`Literal` atoms, :class:`Comparison` built-ins, and
:class:`ArithmeticAssign` built-ins (``Z = X + Y``).  Facts are rules with an
empty body and a ground head.
"""

from __future__ import annotations

from repro.datalog.terms import Constant, Term, Variable, make_term
from repro.errors import ArityError

COMPARISON_OPS = ("==", "!=", "<", "<=", ">", ">=")
ARITHMETIC_OPS = ("+", "-", "*", "/", "%", "min", "max")


class Atom:
    """A predicate applied to a tuple of terms: ``p(t1, ..., tn)``."""

    __slots__ = ("predicate", "args")

    def __init__(self, predicate, args=()):
        self.predicate = str(predicate)
        self.args = tuple(make_term(a) for a in args)

    @property
    def arity(self):
        return len(self.args)

    def variables(self):
        """The set of variables occurring in the atom."""
        return {t for t in self.args if isinstance(t, Variable)}

    def is_ground(self):
        return all(isinstance(t, Constant) for t in self.args)

    def substitute(self, binding):
        """Apply a {Variable: Term} mapping, leaving unbound variables."""
        return Atom(
            self.predicate,
            tuple(binding.get(t, t) if isinstance(t, Variable) else t for t in self.args),
        )

    def __eq__(self, other):
        return (
            isinstance(other, Atom)
            and self.predicate == other.predicate
            and self.args == other.args
        )

    def __hash__(self):
        return hash((self.predicate, self.args))

    def __repr__(self):
        return f"Atom({self.predicate!r}, {self.args!r})"

    def __str__(self):
        if not self.args:
            return self.predicate
        return f"{self.predicate}({', '.join(str(a) for a in self.args)})"


class BodyLiteral:
    """Abstract base for anything allowed in a rule body."""

    __slots__ = ()

    def variables(self):
        raise NotImplementedError

    def substitute(self, binding):
        raise NotImplementedError


class Literal(BodyLiteral):
    """A positive or negated occurrence of an atom in a rule body."""

    __slots__ = ("atom", "positive")

    def __init__(self, atom, positive=True):
        if not isinstance(atom, Atom):
            raise TypeError(f"Literal wraps an Atom, got {type(atom).__name__}")
        self.atom = atom
        self.positive = bool(positive)

    @property
    def predicate(self):
        return self.atom.predicate

    @property
    def args(self):
        return self.atom.args

    @property
    def negative(self):
        return not self.positive

    def negate(self):
        return Literal(self.atom, not self.positive)

    def variables(self):
        return self.atom.variables()

    def substitute(self, binding):
        return Literal(self.atom.substitute(binding), self.positive)

    def __eq__(self, other):
        return (
            isinstance(other, Literal)
            and self.atom == other.atom
            and self.positive == other.positive
        )

    def __hash__(self):
        return hash((self.atom, self.positive))

    def __repr__(self):
        sign = "" if self.positive else "not "
        return f"Literal({sign}{self.atom})"

    def __str__(self):
        return str(self.atom) if self.positive else f"not {self.atom}"


class Comparison(BodyLiteral):
    """A comparison built-in such as ``X < Y`` or ``X != bob``."""

    __slots__ = ("op", "left", "right")

    def __init__(self, op, left, right):
        if op not in COMPARISON_OPS:
            raise ValueError(f"unknown comparison operator {op!r}")
        self.op = op
        self.left = make_term(left)
        self.right = make_term(right)

    def variables(self):
        return {t for t in (self.left, self.right) if isinstance(t, Variable)}

    def substitute(self, binding):
        left = binding.get(self.left, self.left) if isinstance(self.left, Variable) else self.left
        right = (
            binding.get(self.right, self.right) if isinstance(self.right, Variable) else self.right
        )
        return Comparison(self.op, left, right)

    def __eq__(self, other):
        return (
            isinstance(other, Comparison)
            and (self.op, self.left, self.right) == (other.op, other.left, other.right)
        )

    def __hash__(self):
        return hash((self.op, self.left, self.right))

    def __repr__(self):
        return f"Comparison({self.left} {self.op} {self.right})"

    def __str__(self):
        op = "=" if self.op == "==" else self.op
        return f"{self.left} {op} {self.right}"


class ArithmeticAssign(BodyLiteral):
    """An arithmetic built-in binding ``result = left op right``.

    The result term may be a variable (bound by evaluation) or a constant
    (in which case the built-in acts as a test).  ``op`` may also be one of
    the binary functions ``min``/``max``.
    """

    __slots__ = ("result", "op", "left", "right")

    def __init__(self, result, op, left, right):
        if op not in ARITHMETIC_OPS:
            raise ValueError(f"unknown arithmetic operator {op!r}")
        self.result = make_term(result)
        self.op = op
        self.left = make_term(left)
        self.right = make_term(right)

    def variables(self):
        return {
            t for t in (self.result, self.left, self.right) if isinstance(t, Variable)
        }

    def input_variables(self):
        """Variables that must be bound before the built-in can run."""
        return {t for t in (self.left, self.right) if isinstance(t, Variable)}

    def substitute(self, binding):
        def sub(term):
            return binding.get(term, term) if isinstance(term, Variable) else term

        return ArithmeticAssign(sub(self.result), self.op, sub(self.left), sub(self.right))

    def __eq__(self, other):
        return isinstance(other, ArithmeticAssign) and (
            (self.result, self.op, self.left, self.right)
            == (other.result, other.op, other.left, other.right)
        )

    def __hash__(self):
        return hash((self.result, self.op, self.left, self.right))

    def __repr__(self):
        return f"ArithmeticAssign({self})"

    def __str__(self):
        if self.op in ("min", "max"):
            return f"{self.result} = {self.op}({self.left}, {self.right})"
        return f"{self.result} = {self.left} {self.op} {self.right}"


class Rule:
    """A Datalog rule ``head :- body``; a fact when the body is empty."""

    __slots__ = ("head", "body")

    def __init__(self, head, body=()):
        if not isinstance(head, Atom):
            raise TypeError("rule head must be an Atom")
        body = tuple(body)
        for element in body:
            if not isinstance(element, BodyLiteral):
                raise TypeError(
                    f"rule body element must be a BodyLiteral, got {type(element).__name__}"
                )
        self.head = head
        self.body = body

    @property
    def is_fact(self):
        return not self.body and self.head.is_ground()

    def head_variables(self):
        return self.head.variables()

    def body_variables(self):
        variables = set()
        for element in self.body:
            variables |= element.variables()
        return variables

    def variables(self):
        return self.head_variables() | self.body_variables()

    def positive_literals(self):
        return [e for e in self.body if isinstance(e, Literal) and e.positive]

    def negative_literals(self):
        return [e for e in self.body if isinstance(e, Literal) and e.negative]

    def builtins(self):
        return [e for e in self.body if not isinstance(e, Literal)]

    def body_predicates(self):
        """Predicates of relational (non-builtin) body literals."""
        return {e.predicate for e in self.body if isinstance(e, Literal)}

    def substitute(self, binding):
        return Rule(self.head.substitute(binding), tuple(e.substitute(binding) for e in self.body))

    def rename_variables(self, suffix):
        """Uniformly rename every variable by appending *suffix*."""
        binding = {v: Variable(v.name + suffix) for v in self.variables()}
        return self.substitute(binding)

    def __eq__(self, other):
        return isinstance(other, Rule) and (self.head, self.body) == (other.head, other.body)

    def __hash__(self):
        return hash((self.head, self.body))

    def __repr__(self):
        return f"Rule({self})"

    def __str__(self):
        if not self.body:
            return f"{self.head}."
        body = ", ".join(str(e) for e in self.body)
        return f"{self.head} :- {body}."


class Program:
    """An ordered collection of rules with derived structural accessors."""

    def __init__(self, rules=()):
        self.rules = list(rules)
        self._check_arities()

    def _check_arities(self):
        arities = {}
        for rule in self.rules:
            atoms = [rule.head] + [e.atom for e in rule.body if isinstance(e, Literal)]
            for atom in atoms:
                seen = arities.setdefault(atom.predicate, atom.arity)
                if seen != atom.arity:
                    raise ArityError(
                        f"predicate {atom.predicate!r} used with arities {seen} and {atom.arity}"
                    )

    def add(self, rule):
        self.rules.append(rule)
        self._check_arities()

    def extend(self, rules):
        self.rules.extend(rules)
        self._check_arities()

    @property
    def idb_predicates(self):
        """Predicates defined by some rule head."""
        return {rule.head.predicate for rule in self.rules}

    @property
    def edb_predicates(self):
        """Predicates only ever used in bodies (database relations)."""
        idb = self.idb_predicates
        used = set()
        for rule in self.rules:
            used |= rule.body_predicates()
        return used - idb

    @property
    def predicates(self):
        return self.idb_predicates | {
            p for rule in self.rules for p in rule.body_predicates()
        }

    def rules_for(self, predicate):
        return [rule for rule in self.rules if rule.head.predicate == predicate]

    def arity_of(self, predicate):
        for rule in self.rules:
            if rule.head.predicate == predicate:
                return rule.head.arity
            for element in rule.body:
                if isinstance(element, Literal) and element.predicate == predicate:
                    return element.atom.arity
        raise KeyError(predicate)

    def __iter__(self):
        return iter(self.rules)

    def __len__(self):
        return len(self.rules)

    def __eq__(self, other):
        return isinstance(other, Program) and self.rules == other.rules

    def __add__(self, other):
        return Program(self.rules + list(other.rules))

    def __repr__(self):
        return f"Program({len(self.rules)} rules)"

    def __str__(self):
        return "\n".join(str(rule) for rule in self.rules)

    def pretty(self):
        """Program text grouped by head predicate, for display."""
        lines = []
        seen = []
        for rule in self.rules:
            if rule.head.predicate not in seen:
                seen.append(rule.head.predicate)
        for predicate in seen:
            for rule in self.rules_for(predicate):
                lines.append(str(rule))
            lines.append("")
        return "\n".join(lines).rstrip() + "\n"


def atom(predicate, *args):
    """Convenience constructor: ``atom('p', 'X', 'a')`` -> ``p(X, a)``."""
    return Atom(predicate, args)


def lit(predicate, *args):
    """Convenience constructor for a positive literal."""
    return Literal(Atom(predicate, args), positive=True)


def neglit(predicate, *args):
    """Convenience constructor for a negated literal."""
    return Literal(Atom(predicate, args), positive=False)


def rule(head, *body):
    """Convenience constructor for a rule."""
    return Rule(head, body)


def fact(predicate, *args):
    """Convenience constructor for a ground fact."""
    head = Atom(predicate, args)
    if not head.is_ground():
        raise ValueError(f"fact must be ground: {head}")
    return Rule(head, ())
