"""Path regular expressions (Definition 2.8 of the paper).

The grammar is::

    E <- S ; (E)+ ; -(E) ; ¬(E) ; (E|E) ; (EE)

where ``S`` is a literal (a predicate applied to variables/constants, or the
``=`` / ``≠`` primitives).  Two derived operators: Kleene closure
``(E)* = (= | (E)+)`` and optional ``(E)? = (= | E)``.

Ghost variables: a variable occurring in only one branch of an alternation
"vanishes" from the relation the alternation defines; it must not be used
outside the alternation (its *scope*).  :func:`ghost_variables` computes the
vanished set, which the query-graph validator checks against the rest of the
query graph.
"""

from __future__ import annotations

from repro.datalog.terms import Variable, make_term
from repro.errors import RegexError


class PathRegex:
    """Abstract base class for path-regular-expression nodes."""

    __slots__ = ()

    # -- combinator sugar so expressions compose fluently in Python ------

    def __or__(self, other):
        return Alternation(self, _coerce(other))

    def __ror__(self, other):
        return Alternation(_coerce(other), self)

    def __rshift__(self, other):
        """``a >> b`` is the composition (concatenation) ``a b``."""
        return Composition(self, _coerce(other))

    def __rrshift__(self, other):
        return Composition(_coerce(other), self)

    def __neg__(self):
        """``-a`` is the inversion of ``a`` (arrow reversal)."""
        return Inversion(self)

    def __invert__(self):
        """``~a`` is the negation of ``a``."""
        return Negation(self)

    def plus(self):
        return Closure(self)

    def star(self):
        return Star(self)

    def optional(self):
        return Optional(self)

    # -- analysis --------------------------------------------------------

    def label_variables(self):
        """Ordered distinct non-anonymous variables exported by this p.r.e.

        These are the variables of the relation the expression defines (in
        addition to the two endpoint sequences).  Ghost variables of inner
        alternations are already excluded.
        """
        raise NotImplementedError

    def all_variables(self):
        """Every non-anonymous variable syntactically occurring inside."""
        raise NotImplementedError

    def is_atomic_literal(self):
        """True for a bare predicate literal (translatable without an aux)."""
        return isinstance(self, Pred)

    def walk(self):
        """Yield every subexpression, self first (pre-order)."""
        yield self
        for child in self._children():
            yield from child.walk()

    def _children(self):
        return ()


def _coerce(value):
    if isinstance(value, PathRegex):
        return value
    if isinstance(value, str):
        return Pred(value)
    raise TypeError(f"cannot interpret {value!r} as a path regular expression")


def _dedupe(variables):
    seen = []
    for variable in variables:
        if variable not in seen:
            seen.append(variable)
    return seen


class Pred(PathRegex):
    """A literal: predicate name applied to label arguments.

    ``Pred('mother', ['_'])`` is the paper's ``mother(_)`` — the underscore
    projects out the hospital column.
    """

    __slots__ = ("name", "args")

    def __init__(self, name, args=()):
        self.name = str(name)
        self.args = tuple(make_term(a) for a in args)

    def label_variables(self):
        return _dedupe(
            t for t in self.args if isinstance(t, Variable) and not t.is_anonymous
        )

    def all_variables(self):
        return set(self.label_variables())

    def _key(self):
        return ("pred", self.name, self.args)

    def __eq__(self, other):
        return isinstance(other, Pred) and self._key() == other._key()

    def __hash__(self):
        return hash(self._key())

    def __repr__(self):
        return f"Pred({self})"

    def __str__(self):
        if not self.args:
            return self.name
        rendered = ",".join("_" if isinstance(a, Variable) and a.is_anonymous else str(a) for a in self.args)
        return f"{self.name}({rendered})"


class Equality(PathRegex):
    """The ``=`` primitive: endpoints denote the same value sequence."""

    __slots__ = ()

    def label_variables(self):
        return []

    def all_variables(self):
        return set()

    def __eq__(self, other):
        return isinstance(other, Equality)

    def __hash__(self):
        return hash("eq")

    def __repr__(self):
        return "Equality()"

    def __str__(self):
        return "="


class Inequality(PathRegex):
    """The ``≠`` primitive: endpoints denote different value sequences."""

    __slots__ = ()

    def label_variables(self):
        return []

    def all_variables(self):
        return set()

    def __eq__(self, other):
        return isinstance(other, Inequality)

    def __hash__(self):
        return hash("neq")

    def __repr__(self):
        return "Inequality()"

    def __str__(self):
        return "!="


class ComparisonPrimitive(PathRegex):
    """An order-comparison edge label such as ``<`` (Figure 4's edge between
    an arrival time and a departure time).

    Only usable standalone (optionally negated) between single-term nodes;
    it translates to a comparison built-in, not a relational literal.
    """

    __slots__ = ("op",)

    _OPS = ("<", "<=", ">", ">=")

    def __init__(self, op):
        if op not in self._OPS:
            raise RegexError(f"unknown comparison primitive {op!r}")
        self.op = op

    def label_variables(self):
        return []

    def all_variables(self):
        return set()

    def __eq__(self, other):
        return isinstance(other, ComparisonPrimitive) and self.op == other.op

    def __hash__(self):
        return hash(("cmp", self.op))

    def __repr__(self):
        return f"ComparisonPrimitive({self.op!r})"

    def __str__(self):
        return self.op


class Closure(PathRegex):
    """Positive closure ``(E)+``: a path of one or more E-steps, along which
    the label variables of E keep the same value (Section 2)."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = _coerce(inner)

    def label_variables(self):
        return self.inner.label_variables()

    def all_variables(self):
        return self.inner.all_variables()

    def _children(self):
        return (self.inner,)

    def __eq__(self, other):
        return isinstance(other, Closure) and self.inner == other.inner

    def __hash__(self):
        return hash(("closure", self.inner))

    def __repr__(self):
        return f"Closure({self.inner!r})"

    def __str__(self):
        return f"{_wrap(self.inner)}+"


class Star(PathRegex):
    """Kleene closure ``(E)*``, defined as ``(= | (E)+)``.

    The label variables of E are ghosts of that implicit alternation (they do
    not occur on the ``=`` branch), so a Star exports none.
    """

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = _coerce(inner)

    def label_variables(self):
        return []

    def all_variables(self):
        return self.inner.all_variables()

    def desugar(self):
        return Alternation(Equality(), Closure(self.inner))

    def _children(self):
        return (self.inner,)

    def __eq__(self, other):
        return isinstance(other, Star) and self.inner == other.inner

    def __hash__(self):
        return hash(("star", self.inner))

    def __repr__(self):
        return f"Star({self.inner!r})"

    def __str__(self):
        return f"{_wrap(self.inner)}*"


class Optional(PathRegex):
    """Optional ``(E)?``, defined as ``(= | E)``; exports no label variables
    for the same ghost reason as :class:`Star`."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = _coerce(inner)

    def label_variables(self):
        return []

    def all_variables(self):
        return self.inner.all_variables()

    def desugar(self):
        return Alternation(Equality(), self.inner)

    def _children(self):
        return (self.inner,)

    def __eq__(self, other):
        return isinstance(other, Optional) and self.inner == other.inner

    def __hash__(self):
        return hash(("optional", self.inner))

    def __repr__(self):
        return f"Optional({self.inner!r})"

    def __str__(self):
        return f"{_wrap(self.inner)}?"


class Inversion(PathRegex):
    """Inversion ``-(E)``: traverse E against the arrow direction."""

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = _coerce(inner)

    def label_variables(self):
        return self.inner.label_variables()

    def all_variables(self):
        return self.inner.all_variables()

    def _children(self):
        return (self.inner,)

    def __eq__(self, other):
        return isinstance(other, Inversion) and self.inner == other.inner

    def __hash__(self):
        return hash(("inversion", self.inner))

    def __repr__(self):
        return f"Inversion({self.inner!r})"

    def __str__(self):
        return f"-{_wrap(self.inner)}"


class Negation(PathRegex):
    """Negation ``¬(E)``.

    Safety of the translated program requires negation to be the *outermost*
    operator of an edge's p.r.e. (footnote 4 of the paper); the validator in
    :mod:`repro.core.query_graph` enforces this.
    """

    __slots__ = ("inner",)

    def __init__(self, inner):
        self.inner = _coerce(inner)

    def label_variables(self):
        return self.inner.label_variables()

    def all_variables(self):
        return self.inner.all_variables()

    def _children(self):
        return (self.inner,)

    def __eq__(self, other):
        return isinstance(other, Negation) and self.inner == other.inner

    def __hash__(self):
        return hash(("negation", self.inner))

    def __repr__(self):
        return f"Negation({self.inner!r})"

    def __str__(self):
        return f"~{_wrap(self.inner)}"


class Alternation(PathRegex):
    """Alternation ``(E1|E2)``; the scope of its ghost variables."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = _coerce(left)
        self.right = _coerce(right)

    def label_variables(self):
        left = self.left.label_variables()
        right = set(self.right.label_variables())
        return [v for v in left if v in right]

    def all_variables(self):
        return self.left.all_variables() | self.right.all_variables()

    def ghost_variables(self):
        """Variables occurring in exactly one branch (they vanish)."""
        left = set(self.left.label_variables())
        right = set(self.right.label_variables())
        return left ^ right

    def _children(self):
        return (self.left, self.right)

    def __eq__(self, other):
        return (
            isinstance(other, Alternation)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("alternation", self.left, self.right))

    def __repr__(self):
        return f"Alternation({self.left!r}, {self.right!r})"

    def __str__(self):
        return f"{self.left} | {self.right}"


class Composition(PathRegex):
    """Composition ``(E1 E2)``: an E1-step followed by an E2-step."""

    __slots__ = ("left", "right")

    def __init__(self, left, right):
        self.left = _coerce(left)
        self.right = _coerce(right)

    def label_variables(self):
        return _dedupe(self.left.label_variables() + self.right.label_variables())

    def all_variables(self):
        return self.left.all_variables() | self.right.all_variables()

    def _children(self):
        return (self.left, self.right)

    def __eq__(self, other):
        return (
            isinstance(other, Composition)
            and self.left == other.left
            and self.right == other.right
        )

    def __hash__(self):
        return hash(("composition", self.left, self.right))

    def __repr__(self):
        return f"Composition({self.left!r}, {self.right!r})"

    def __str__(self):
        return f"{_wrap(self.left)} {_wrap(self.right)}"


def _wrap(expr):
    if isinstance(expr, (Pred, Equality, Inequality, ComparisonPrimitive)):
        return str(expr)
    return f"({expr})"


# ------------------------------------------------------------ constructors


def rel(name, *args):
    """Shorthand literal constructor: ``rel('mother', '_')``."""
    return Pred(name, args)


def closure(expr):
    return Closure(_coerce(expr))


def star(expr):
    return Star(_coerce(expr))


def optional(expr):
    return Optional(_coerce(expr))


def inverse(expr):
    return Inversion(_coerce(expr))


def neg(expr):
    return Negation(_coerce(expr))


def alt(first, *rest):
    expr = _coerce(first)
    for nxt in rest:
        expr = Alternation(expr, _coerce(nxt))
    return expr


def seq(first, *rest):
    expr = _coerce(first)
    for nxt in rest:
        expr = Composition(expr, _coerce(nxt))
    return expr


# ------------------------------------------------------------ validation


def strip_outer_negation(expr):
    """Return ``(inner, positive)`` after removing one outermost negation."""
    if isinstance(expr, Negation):
        return expr.inner, False
    return expr, True


def validate_pre(expr):
    """Structural checks on a p.r.e. used as an edge label.

    - negation may only be the outermost operator (footnote 4);
    - ghost variables of every alternation must not be referenced outside
      that alternation *within the expression* (cross-edge ghost escapes are
      checked at the query-graph level).
    """
    inner, _positive = strip_outer_negation(expr)
    for sub in inner.walk():
        if isinstance(sub, Negation):
            raise RegexError(
                f"negation must be the outermost operator of an edge label, found "
                f"inner negation in {expr}"
            )
    _check_ghosts_within(inner)
    return expr


def _check_ghosts_within(expr):
    """Detect a ghost variable of an alternation being used by a sibling
    subexpression of the same overall p.r.e."""
    for sub in expr.walk():
        if not isinstance(sub, Alternation):
            continue
        ghosts = sub.ghost_variables()
        if not ghosts:
            continue
        outside = _variables_outside(expr, sub)
        escaped = ghosts & outside
        if escaped:
            names = ", ".join(sorted(v.name for v in escaped))
            raise RegexError(
                f"ghost variable(s) {names} of alternation {sub} used outside "
                f"their scope in {expr}"
            )


def _variables_outside(root, scope):
    """Variables of *root* occurring outside the subtree *scope*."""
    outside = set()

    def visit(node):
        if node is scope:
            return
        if isinstance(node, Pred):
            outside.update(node.all_variables())
        for child in node._children():
            visit(child)

    visit(root)
    return outside


def exported_variables(expr):
    """Label variables of an edge expression after outer-negation stripping."""
    inner, _positive = strip_outer_negation(expr)
    return inner.label_variables()


# ------------------------------------------------------- regular path queries


def regex_to_pre(regex):
    """The p.r.e. of a label regular expression (:mod:`repro.rpq.regex`).

    An RPQ is a one-edge GraphLog query whose label is a negation-free p.r.e.
    (Section 2): a symbol is the literal of its label, ``-a`` the inversion
    of one, concatenation composition, union alternation, ``+``/``*``/``?``
    closure, Kleene closure and optional, and the empty word inside an
    expression the ``=`` primitive.  λ of the one-edge query then pairs
    exactly what the automaton search pairs, up to the zero-step branch:
    λ ranges it over the active domain, the search over every graph node.

    Raises :class:`~repro.errors.RegexError` for a regex with no p.r.e.
    image: the empty word on its own (its λ is the comparison ``X = Y``,
    which binds neither variable) and a symbol whose label is not a
    non-empty string (a p.r.e. literal names a predicate).
    """
    from repro.rpq import regex as rq

    if isinstance(regex, rq.Epsilon):
        raise RegexError("the empty word alone has no p.r.e. image")

    def convert(node):
        if isinstance(node, rq.Sym):
            if not isinstance(node.label, str) or not node.label:
                raise RegexError(f"label {node.label!r} names no predicate")
            literal = Pred(node.label)
            return Inversion(literal) if node.inverted else literal
        if isinstance(node, rq.Epsilon):
            return Equality()
        if isinstance(node, (rq.Concat, rq.Union)):
            pair = Composition if isinstance(node, rq.Concat) else Alternation
            return pair(convert(node.left), convert(node.right))
        unary = {rq.Plus: Closure, rq.Star: Star, rq.Opt: Optional}[type(node)]
        return unary(convert(node.inner))

    return convert(regex)
