"""Guard language: syntax tree, concrete parser, derived-form expansion.

Terms read either the local store (``Here.x``, or a bare ``x``) or the
latest causally visible value of a variable on another lifeline
(``At[B].x``). Atoms compare two operands with ``== != < <= > >=``; at
least one operand must be a term. Formulas combine atoms with::

    !f        negation                  f1 && f2   conjunction
    f1 || f2  disjunction               Y(f)       previous local event
    f1 S f2   since, along the          at(B, f)   f at the latest visible
              local order                          event of B
    true      constant
    P(f)      somewhere in the causal past (any lifeline)   [derived]
    P[B](f)   somewhere in B's visible history              [derived]
    seen(B)   some B-event is visible                       [derived]

Operator precedence, tightest first: ``!``, ``S`` (right-associative),
``&&``, ``||``. Note that ``S`` binds tighter than the Boolean
connectives, so ``a S b && c`` means ``(a S b) && c``; parenthesize when
in doubt. ``!`` applies to formulas, never to terms, so ``!Here.x == 1``
negates the whole comparison.

Equality and inequality are defined only between values of the same tag;
order comparisons only between integers. Any other combination, or an
undefined operand, makes the atom false.
"""

from __future__ import annotations

import json
import re
from collections.abc import Mapping, Sequence
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator, NamedTuple, Union

from .msc import INT64_MAX, INT64_MIN, Value

# ---------------------------------------------------------------------- #
# Syntax tree
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class LocalVar:
    name: str


@dataclass(frozen=True)
class AtField:
    lifeline: str
    name: str


@dataclass(frozen=True, eq=False)
class Lit:
    """Literal operand. Equality and hashing are tag-exact so that an
    integer literal never collides with a boolean one."""

    value: int | str | bool

    def __eq__(self, other: object) -> bool:
        return (
            isinstance(other, Lit)
            and type(other.value) is type(self.value)
            and other.value == self.value
        )

    def __hash__(self) -> int:
        return hash((type(self.value).__name__, self.value))


Operand = Union[LocalVar, AtField, Lit]

#: Each comparison's function of two values (None if undefined), for both semantics.
COMPARISONS = {
    "==": lambda a, b: a is not None and type(a) is type(b) and a == b,
    "!=": lambda a, b: a is not None and type(a) is type(b) and a != b,
    "<": lambda a, b: type(a) is int and type(b) is int and a < b,
    "<=": lambda a, b: type(a) is int and type(b) is int and a <= b,
    ">": lambda a, b: type(a) is int and type(b) is int and a > b,
    ">=": lambda a, b: type(a) is int and type(b) is int and a >= b,
}


@dataclass(frozen=True)
class Truth:
    pass


@dataclass(frozen=True)
class Atom:
    op: str
    left: Operand
    right: Operand


@dataclass(frozen=True)
class At:
    lifeline: str
    body: "Formula"


@dataclass(frozen=True)
class Yesterday:
    body: "Formula"


@dataclass(frozen=True)
class Since:
    first: "Formula"
    second: "Formula"


@dataclass(frozen=True)
class And:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Or:
    left: "Formula"
    right: "Formula"


@dataclass(frozen=True)
class Not:
    body: "Formula"


@dataclass(frozen=True)
class PastAt:
    lifeline: str
    body: "Formula"


@dataclass(frozen=True)
class PastAny:
    body: "Formula"


@dataclass(frozen=True)
class Seen:
    lifeline: str


Formula = Union[
    Truth, Atom, At, Yesterday, Since, And, Or, Not, PastAt, PastAny, Seen
]

CORE_NODES = (Truth, Atom, At, Yesterday, Since, And, Or, Not)
DERIVED_NODES = (PastAt, PastAny, Seen)


def children(f: Formula) -> tuple[Formula, ...]:
    if isinstance(f, (At, Yesterday, Not, PastAt, PastAny)):
        return (f.body,)
    if isinstance(f, Since):
        return (f.first, f.second)
    if isinstance(f, (And, Or)):
        return (f.left, f.right)
    return ()


def walk(f: Formula) -> Iterator[Formula]:
    """All nodes of the tree, parents before children."""
    stack = [f]
    while stack:
        node = stack.pop()
        yield node
        stack.extend(children(node))


# ---------------------------------------------------------------------- #
# Parsing
# ---------------------------------------------------------------------- #

#: Deepest guard :func:`parse_guard` accepts, in levels: each operator
#: (``!``, ``&&``, ``||``, ``S``, ``Y``, ``at``, ``P``) and each pair of
#: grouping parentheses on the way down to an atom counts one. Deeper
#: guards would exhaust the interpreter's recursion limit in the parser
#: and in the recursive passes over formulas.
MAX_NESTING = 100


class ParseError(Exception):
    def __init__(self, message: str, line: int, col: int):
        super().__init__(f"line {line}, col {col}: {message}")
        self.message = message
        self.line = line
        self.col = col


_KEYWORDS = {"Y", "S", "at", "P", "seen", "true", "false", "Here", "At"}

_TOKEN_RE = re.compile(
    r"""
    \s*(?:
      (?P<int>-?\d+)
    | (?P<string>"(?:[^"\\\n]|\\.)*")
    | (?P<ident>[A-Za-z_][A-Za-z0-9_]*)
    | (?P<op>==|!=|<=|>=|&&|\|\||[!<>()\[\],.])
    | (?P<bad>\S)
    | (?P<end>\Z)
    )""",
    re.VERBOSE,
)


class _Token(NamedTuple):
    kind: str  # int | string | ident | op | bad | end
    text: str
    start: int  # offset in the guard text


class _Parser:
    def __init__(self, text: str, lifelines: frozenset[str]):
        # Every match is a token or the end (twice after trailing whitespace).
        self.text = text
        self.tokens = [
            _Token(m.lastgroup, m[m.lastgroup], m.start(m.lastgroup))
            for m in _TOKEN_RE.finditer(text)
        ]
        for tok in self.tokens:
            if tok.kind == "bad":
                raise self.fail(f"unexpected character {tok.text!r}", tok)
        self.pos = 0
        self.cur = self.tokens[0]
        self.lifelines = lifelines
        self.depth = 0  # levels open above the current token

    # -- token plumbing -------------------------------------------------

    def advance(self) -> _Token:
        tok = self.cur
        self.pos += 1
        self.cur = self.tokens[self.pos]
        return tok

    def expect(self, text: str) -> _Token:
        if self.cur.text != text or self.cur.kind == "end":
            raise self.fail(f"expected {text!r}")
        return self.advance()

    def fail(self, message: str, tok: _Token | None = None) -> ParseError:
        """A :class:`ParseError` at ``tok`` (default: the current token);
        its line and column are counted only now."""
        start, text = (tok or self.cur).start, self.text
        line = text.count("\n", 0, start) + 1
        return ParseError(message, line, start - text.rfind("\n", 0, start))

    def lifeline(self) -> str:
        tok = self.cur
        if tok.kind != "ident":
            raise self.fail("expected a lifeline name")
        if tok.text not in self.lifelines:
            raise self.fail(f"unknown lifeline {tok.text!r}")
        self.advance()
        return tok.text

    def ident_after_dot(self) -> str:
        # Variable names after '.' may shadow keywords; context disambiguates.
        tok = self.cur
        if tok.kind != "ident":
            raise self.fail("expected a variable name")
        self.advance()
        return tok.text

    def deeper(self, tok: _Token, parse) -> tuple[Formula, int]:
        """``parse()`` one level below the operator or parenthesis at
        ``tok``; returns the result and the height of that level."""
        if self.depth == MAX_NESTING:
            raise self.too_deep(tok)
        self.depth += 1
        f, h = parse()
        self.depth -= 1
        return f, h + 1

    def level(self, tok: _Token, height: int) -> int:
        """``height`` of the binary node at ``tok``, checked against the
        bound together with the levels above it."""
        if self.depth + height > MAX_NESTING:
            raise self.too_deep(tok)
        return height

    def too_deep(self, tok: _Token) -> ParseError:
        return self.fail(f"guard nested deeper than {MAX_NESTING} levels", tok)

    # -- grammar ---------------------------------------------------------
    # Each rule returns its formula and the formula's height in levels.

    def formula(self) -> Formula:
        f, _ = self.or_expr()
        if self.cur.kind != "end":
            raise self.fail(f"unexpected {self.cur.text!r}")
        return f

    def or_expr(self) -> tuple[Formula, int]:
        f, h = self.and_expr()
        while self.cur.text == "||":
            tok = self.advance()
            g, hg = self.deeper(tok, self.and_expr)
            f, h = Or(f, g), self.level(tok, max(h + 1, hg))
        return f, h

    def and_expr(self) -> tuple[Formula, int]:
        f, h = self.since_expr()
        while self.cur.text == "&&":
            tok = self.advance()
            g, hg = self.deeper(tok, self.since_expr)
            f, h = And(f, g), self.level(tok, max(h + 1, hg))
        return f, h

    def since_expr(self) -> tuple[Formula, int]:
        f, h = self.unary()
        if self.cur.kind == "ident" and self.cur.text == "S":
            tok = self.advance()
            g, hg = self.deeper(tok, self.since_expr)
            return Since(f, g), self.level(tok, max(h + 1, hg))
        return f, h

    def unary(self) -> tuple[Formula, int]:
        if self.cur.text == "!" and self.cur.kind == "op":
            f, h = self.deeper(self.advance(), self.unary)
            return Not(f), h
        return self.primary()

    def group(self, tok: _Token) -> tuple[Formula, int]:
        """A parenthesized formula one level below ``tok``."""
        self.expect("(")
        f, h = self.deeper(tok, self.or_expr)
        self.expect(")")
        return f, h

    def primary(self) -> tuple[Formula, int]:
        tok = self.cur
        if tok.text == "(":
            return self.group(tok)
        if tok.kind == "ident":
            if tok.text == "Y":
                self.advance()
                body, h = self.group(tok)
                return Yesterday(body), h
            if tok.text == "at":
                self.advance()
                self.expect("(")
                lf = self.lifeline()
                self.expect(",")
                body, h = self.deeper(tok, self.or_expr)
                self.expect(")")
                return At(lf, body), h
            if tok.text == "P":
                self.advance()
                if self.cur.text == "[":
                    self.advance()
                    lf = self.lifeline()
                    self.expect("]")
                    body, h = self.group(tok)
                    return PastAt(lf, body), h
                body, h = self.group(tok)
                return PastAny(body), h
            if tok.text == "seen":
                self.advance()
                self.expect("(")
                lf = self.lifeline()
                self.expect(")")
                return Seen(lf), 0
            # A literal starts an atom when a comparison follows (an end follows any ident).
            if tok.text in ("true", "false") and self.tokens[self.pos + 1].text not in COMPARISONS:
                self.advance()
                if tok.text == "true":
                    return Truth(), 0
                return Not(Truth()), self.level(tok, 1)  # prints as !true
        if tok.kind in ("int", "string", "ident"):
            return self.atom(), 0
        raise self.fail(f"unexpected {tok.text!r}" if tok.kind != "end" else "unexpected end of input")

    def atom(self) -> Formula:
        start = self.cur
        left = self.operand()
        op_tok = self.cur
        if op_tok.text not in COMPARISONS:
            raise self.fail("expected a comparison operator")
        self.advance()
        right = self.operand()
        if isinstance(left, Lit) and isinstance(right, Lit):
            raise self.fail(
                "at least one side of a comparison must be a variable term", start
            )
        return Atom(op_tok.text, left, right)

    def operand(self) -> Operand:
        tok = self.cur
        if tok.kind == "int":
            # Length first: int() refuses digit strings over 4300 long.
            digits = tok.text.lstrip("-0")
            if len(digits) > 19 or not INT64_MIN <= int(tok.text) <= INT64_MAX:
                raise self.fail("integer literal outside the signed 64-bit range")
            self.advance()
            return Lit(int(tok.text))
        if tok.kind == "string":
            self.advance()
            try:
                return Lit(json.loads(tok.text))
            except json.JSONDecodeError:
                raise self.fail("bad string literal", tok) from None
        if tok.kind == "ident":
            if tok.text == "true" or tok.text == "false":
                self.advance()
                return Lit(tok.text == "true")
            if tok.text == "Here":
                self.advance()
                self.expect(".")
                return LocalVar(self.ident_after_dot())
            if tok.text == "At":
                self.advance()
                self.expect("[")
                lf = self.lifeline()
                self.expect("]")
                self.expect(".")
                return AtField(lf, self.ident_after_dot())
            if tok.text in _KEYWORDS:
                raise self.fail(f"{tok.text!r} is reserved; qualify with Here.")
            self.advance()
            return LocalVar(tok.text)
        raise self.fail("expected a term or literal")


def parse_guard(text: str, lifelines: set[str] | frozenset[str]) -> Formula:
    """Parse a guard; lifeline references are checked against ``lifelines``.

    Raises :class:`ParseError` with line/column on malformed input,
    integer literals outside the signed 64-bit range and guards nested
    deeper than :data:`MAX_NESTING` levels.
    """
    return _Parser(text, frozenset(lifelines)).formula()


# ---------------------------------------------------------------------- #
# Printing
# ---------------------------------------------------------------------- #

def _operand_text(x: Operand) -> str:
    if isinstance(x, LocalVar):
        return f"Here.{x.name}"
    if isinstance(x, AtField):
        return f"At[{x.lifeline}].{x.name}"
    v = x.value
    if type(v) is bool:
        return "true" if v else "false"
    if type(v) is str:
        return json.dumps(v)
    return str(v)


def pretty(f: Formula) -> str:
    """Canonical text for a formula, with only the parentheses the
    precedence needs; re-parsing it yields an equal tree as long as the
    text is within :data:`MAX_NESTING`.

    :func:`parse_guard` counts grouping parentheses as levels, so a tree
    of height *h* (an atom has height 0) can print with up to 2 *h*
    levels, e.g. a ``Since`` nested in the left operand of each ``S``.
    The round trip is therefore guaranteed only up to height
    ``MAX_NESTING // 2``; a taller tree may print as a guard the parser
    rejects as nested too deep.
    """
    return _pp(f, 1)


def _level(f: Formula) -> int:
    if isinstance(f, Or):
        return 1
    if isinstance(f, And):
        return 2
    if isinstance(f, Since):
        return 3
    if isinstance(f, Not):
        return 4
    return 5


def _pp(f: Formula, min_level: int) -> str:
    if isinstance(f, Or):
        s = f"{_pp(f.left, 1)} || {_pp(f.right, 2)}"
    elif isinstance(f, And):
        s = f"{_pp(f.left, 2)} && {_pp(f.right, 3)}"
    elif isinstance(f, Since):
        s = f"{_pp(f.first, 4)} S {_pp(f.second, 3)}"
    elif isinstance(f, Not):
        s = f"!{_pp(f.body, 4)}"
    elif isinstance(f, Truth):
        s = "true"
    elif isinstance(f, Atom):
        s = f"{_operand_text(f.left)} {f.op} {_operand_text(f.right)}"
    elif isinstance(f, Yesterday):
        s = f"Y({_pp(f.body, 1)})"
    elif isinstance(f, At):
        s = f"at({f.lifeline}, {_pp(f.body, 1)})"
    elif isinstance(f, PastAt):
        s = f"P[{f.lifeline}]({_pp(f.body, 1)})"
    elif isinstance(f, PastAny):
        s = f"P({_pp(f.body, 1)})"
    elif isinstance(f, Seen):
        s = f"seen({f.lifeline})"
    else:
        raise TypeError(f"not a formula: {f!r}")
    if _level(f) < min_level:
        return f"({s})"
    return s


# ---------------------------------------------------------------------- #
# Derived forms and guard closure
# ---------------------------------------------------------------------- #

def expand_derived(f: Formula, lifelines: tuple[str, ...] | list[str]) -> Formula:
    """Rewrite derived shorthands into core syntax.

    ``P[A](f)`` becomes ``at(A, true S f)``; ``P(f)`` the disjunction of
    that over all declared lifelines, in declaration order; ``seen(A)``
    becomes ``at(A, true)``. Core nodes are rebuilt unchanged, so the
    function is idempotent.
    """
    if isinstance(f, PastAt):
        return At(f.lifeline, Since(Truth(), expand_derived(f.body, lifelines)))
    if isinstance(f, PastAny):
        body = expand_derived(f.body, lifelines)
        parts = [At(b, Since(Truth(), body)) for b in lifelines]
        if not parts:
            return Not(Truth())
        out: Formula = parts[0]
        for p in parts[1:]:
            out = Or(out, p)
        return out
    if isinstance(f, Seen):
        return At(f.lifeline, Truth())
    if isinstance(f, At):
        return At(f.lifeline, expand_derived(f.body, lifelines))
    if isinstance(f, Yesterday):
        return Yesterday(expand_derived(f.body, lifelines))
    if isinstance(f, Not):
        return Not(expand_derived(f.body, lifelines))
    if isinstance(f, Since):
        return Since(
            expand_derived(f.first, lifelines), expand_derived(f.second, lifelines)
        )
    if isinstance(f, And):
        return And(
            expand_derived(f.left, lifelines), expand_derived(f.right, lifelines)
        )
    if isinstance(f, Or):
        return Or(expand_derived(f.left, lifelines), expand_derived(f.right, lifelines))
    return f


#: The plan opcode of each core constructor. ``S`` steps read ``a`` as
#: the first and ``b`` as the second argument of ``Since``.
OPCODES = {
    Truth: "true", Atom: "atom", Not: "not", And: "and", Or: "or",
    Yesterday: "Y", Since: "S", At: "at",
}


@dataclass(frozen=True)
class GuardSet:
    """A closed set of guards shared by all monitors of one run.

    ``sub`` lists every structural subformula exactly once, children
    before parents; ``index`` maps a subformula to its position.
    ``sat_table`` rows are keyed by these positions, and monitor rows by
    the ascending positions of a :class:`Cone`. ``plan`` compiles ``sub`` into one evaluation step per position, an
    ``(opcode, a, b)`` triple (see :data:`OPCODES`): ``a``/``b`` are the
    child positions, except that an atom step carries the :class:`Atom`
    as ``a`` and an ``at`` step the lifeline name as ``b``. Children come
    first, so one pass in order evaluates the whole set. ``guard_pos`` is
    the position of each guard. ``cross_vars`` are the variable names
    read through ``At[B].x`` terms, ``local_vars`` the names read
    unqualified.
    """

    formulas: tuple[Formula, ...]
    sub: tuple[Formula, ...]
    plan: tuple[tuple, ...]
    guard_pos: tuple[int, ...]
    cross_vars: frozenset[str]
    local_vars: frozenset[str]

    @cached_property
    def index(self) -> dict[Formula, int]:
        # Built on first use: hashing a formula walks its whole tree.
        return {f: i for i, f in enumerate(self.sub)}


def close_guards(formulas: list[Formula] | tuple[Formula, ...]) -> GuardSet:
    """Close core-only guards under subformulas (expand derived forms first).

    Two subformulas are the same exactly when their plan steps are, since
    the steps name children by position; so the closure hashes only steps,
    never whole trees. A node object is visited once however often it is
    shared, as ``expand_derived`` shares the body of ``P(f)`` between
    lifelines.
    """
    sub: list[Formula] = []
    plan: list[tuple] = []
    step_pos: dict[tuple, int] = {}
    node_pos: dict[int, int] = {}  # id(node) -> position; nodes live in formulas

    # Post-order over an explicit stack, so deep guards do not recurse. A
    # node is pushed again, with its children, until they have positions.
    stack: list[tuple[Formula, tuple | None]] = [(f, None) for f in reversed(formulas)]
    while stack:
        f, kids = stack.pop()
        if id(f) in node_pos:
            continue
        if kids is None:
            if type(f) not in OPCODES:
                raise ValueError(
                    "guard contains derived forms; call expand_derived first"
                )
            kids = children(f)
            if kids:
                stack.append((f, kids))
                stack.extend([(c, None) for c in reversed(kids)])
                continue
        a, b = ([node_pos[id(c)] for c in kids] + [None, None])[:2]
        op = OPCODES[type(f)]
        if op == "atom":
            a = f
        elif op == "at":
            b = f.lifeline
        step = (op, a, b)
        pos = step_pos.get(step)
        if pos is None:
            pos = step_pos[step] = len(sub)
            sub.append(f)
            plan.append(step)
        node_pos[id(f)] = pos

    cross: set[str] = set()
    local: set[str] = set()
    for f in sub:
        if isinstance(f, Atom):
            for side in (f.left, f.right):
                if isinstance(side, AtField):
                    cross.add(side.name)
                elif isinstance(side, LocalVar):
                    local.add(side.name)

    return GuardSet(
        formulas=tuple(formulas),
        sub=tuple(sub),
        plan=tuple(plan),
        guard_pos=tuple(node_pos[id(f)] for f in formulas),
        cross_vars=frozenset(cross),
        local_vars=frozenset(local),
    )


# ---------------------------------------------------------------------- #
# Cones: the part of a guard set each lifeline evaluates
# ---------------------------------------------------------------------- #

@dataclass(frozen=True)
class Cone:
    """The part of a guard set that one lifeline's monitor evaluates.

    ``steps`` are the guard-set positions it computes, ascending, and
    ``plan`` their plan steps renumbered to local indices: children and
    the body of ``at(Me, f)`` by their index in ``steps``, the body of
    ``at(B, f)`` for another lifeline ``B`` by its bit in ``B``'s view
    row. ``export`` are the local indices of the lifeline's own view row,
    ``mirror`` the variables of its own value row.

    Shared by every cone of one :func:`guard_cones` call: ``exports``
    holds per lifeline the guard-set positions of its view row, and
    ``mirrors`` the variables of its value row. ``whole`` says that every
    lifeline runs the whole plan, exports every position and mirrors
    every variable an ``At[B].x`` term reads, so no row needs slicing.
    """

    steps: tuple[int, ...]
    plan: tuple[tuple, ...]
    export: tuple[int, ...]
    mirror: frozenset[str]
    exports: Mapping[str, tuple[int, ...]]
    mirrors: Mapping[str, frozenset[str]]
    whole: bool = False

    @cached_property
    def local(self) -> dict[int, int]:
        """Guard-set position -> local index, for the positions computed."""
        return {p: i for i, p in enumerate(self.steps)}

    @cached_property
    def program(self) -> tuple[tuple[tuple, ...], dict[int, Value], tuple[str, ...]]:
        """``plan`` with atoms resolved, its literals and the lifelines it reads:
        an atom is ``("atom", f, (i, x, j, y))``, ``f`` of key ``x`` of source ``i``
        and ``y`` of ``j``; 0 is the literals, 1 the store, 2 + k the k-th read row."""
        literals: dict[int, Value] = {}
        reads: dict[str, int] = {}

        def source(x: Operand) -> tuple[int, object]:
            if isinstance(x, Lit):
                literals[len(literals)] = x.value
                return 0, len(literals) - 1
            if isinstance(x, LocalVar):
                return 1, x.name
            return 2 + reads.setdefault(x.lifeline, len(reads)), x.name

        steps = tuple(
            (op, COMPARISONS[a.op], (*source(a.left), *source(a.right)))
            if op == "atom" else (op, a, b)
            for op, a, b in self.plan
        )
        return steps, literals, tuple(reads)

    @cached_property
    def widths(self) -> dict[str, int]:
        """The width of each lifeline's view row."""
        return {b: len(ps) for b, ps in self.exports.items()}


def guard_cones(
    g: GuardSet, lifelines: Sequence[str], owners: Mapping[int, str] | None = None
) -> dict[str, Cone]:
    """Per lifeline, the :class:`Cone` its monitor evaluates.

    ``owners`` maps each guard index to the lifeline that evaluates the
    guard. The cones are then the least fixed point of: each guard is in
    its owner's cone; ``and``, ``or``, ``S``, ``not`` and ``Y`` put their
    children into their own cone; ``at(B, f)`` puts ``f`` into ``B``'s
    cone. Lifeline ``B`` exports the positions that ``at(B, ·)`` steps in
    the cones of other lifelines read, and mirrors the variables that
    ``At[B].x`` terms in any cone read.

    Without ``owners``, every lifeline runs the whole plan, exports every
    position and mirrors every variable that an ``At[B].x`` term reads.
    """
    if owners is None:
        every = tuple(range(len(g.plan)))
        whole = Cone(
            steps=every, plan=g.plan, export=every, mirror=g.cross_vars,
            exports=dict.fromkeys(lifelines, every),
            mirrors=dict.fromkeys(lifelines, g.cross_vars), whole=True,
        )
        return dict.fromkeys(lifelines, whole)

    if sorted(owners) != list(range(len(g.formulas))):
        raise ValueError("owners must map every guard index to a lifeline")
    need: dict[str, set[int]] = {b: set() for b in lifelines}
    read: dict[str, set[int]] = {b: set() for b in lifelines}
    mirror: dict[str, set[str]] = {b: set() for b in lifelines}
    work = [(owners[k], p) for k, p in enumerate(g.guard_pos)]
    while work:
        b, p = work.pop()
        if b not in need:
            raise ValueError(f"guards name lifeline {b!r}, which is not declared")
        if p in need[b]:
            continue
        need[b].add(p)
        op, x, y = g.plan[p]
        if op == "at":
            if y != b:
                read.setdefault(y, set()).add(x)
            work.append((y, x))
        elif op == "atom":
            for side in (x.left, x.right):
                if isinstance(side, AtField) and side.lifeline in mirror:
                    mirror[side.lifeline].add(side.name)
        elif op != "true":
            work.append((b, x))
            if y is not None:
                work.append((b, y))

    exports = {b: tuple(sorted(read[b])) for b in lifelines}
    mirrors = {b: frozenset(mirror[b]) for b in lifelines}
    bit = {b: {p: i for i, p in enumerate(exports[b])} for b in lifelines}
    cones: dict[str, Cone] = {}
    for b in lifelines:
        steps = tuple(sorted(need[b]))
        local = {p: i for i, p in enumerate(steps)}
        plan = []
        for p in steps:
            op, x, y = step = g.plan[p]
            if op == "at":
                step = (op, local[x] if y == b else bit[y][x], y)
            elif op not in ("atom", "true"):
                step = (op, local[x], None if y is None else local[y])
            plan.append(step)
        cones[b] = Cone(
            steps=steps, plan=tuple(plan),
            export=tuple(local[p] for p in exports[b]), mirror=mirrors[b],
            exports=exports, mirrors=mirrors,
        )
    return cones
