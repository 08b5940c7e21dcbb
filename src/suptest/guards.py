"""Finite-sorted variables and the guard expression language.

Guards are boolean combinations of variable-vs-literal comparisons over
finite sorts (enumerations or bounded integer ranges).  Satisfiability and
truth classes are decided exhaustively, with no constraint solver, but not
value by value: the literals of the atoms over a variable split its sort
into cells on which every atom is constant, and the walk goes over the
product of the variables' cells, one least value per cell, which does not
grow with the width of an integer sort.  A space to walk (valuations, or
cell products) larger than `ENUM_BOUND` is refused rather than walked.

Sorts, declarations and guards are `Record` values, as is every value of
the toolkit: held in slots, compared and hashed by their fields, and built
without `dataclasses` or `inspect`, which no toolkit process imports.

Grammar::

    guard  := orExpr
    orExpr := andExpr { "or" andExpr }
    andExpr:= unary { "and" unary }
    unary  := "not" unary | "(" guard ")" | atom
    atom   := "true" | "false" | ident relop literal
    relop  := "=" | "!=" | "<" | "<=" | ">" | ">="
"""

from __future__ import annotations

import itertools
import math
import operator
import re
from collections.abc import Iterator

from .encoding import value_at

ENUM_BOUND = 1_000_000  # largest valuation or cell-product space walked

Value = int | str
Valuation = dict  # name -> Value, total over a declaration set


class GuardError(Exception):
    """Base class for guard language errors."""


class GuardSyntaxError(GuardError):
    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at position {position})")
        self.position = position


class SortError(GuardError):
    """Undeclared variable, sort mismatch, or ill-typed comparison."""


class EnumerationOverflow(GuardError):
    """Valuation space, or cell-product space, exceeds `ENUM_BOUND`."""


# ---------------------------------------------------------------------------
# Immutable values
# ---------------------------------------------------------------------------

class Record:
    """An immutable value whose fields are its class's `__slots__`, in order.

    Built by position or keyword, a missing field taking its value from
    `_defaults`, then checked by `__post_init__`.  Equal to an instance of
    the same class with equal fields, hashed as its field tuple, shown as
    ``Name(field=value, ...)``, and refusing assignment.  A subclass may
    set `__hash__ = None`, or take its own `__init__` for speed.
    """

    __slots__ = ()
    _defaults: dict = {}

    def __init__(self, *args, **kwargs):
        names = self.__slots__
        if kwargs or len(args) != len(names):
            args = self._bind(args, kwargs)
        for name, value in zip(names, args):
            object.__setattr__(self, name, value)
        self.__post_init__()

    @classmethod
    def _bind(cls, args: tuple, kwargs: dict) -> list:
        """Field values in field order from positional and keyword arguments."""
        names = cls.__slots__
        where = f"{cls.__qualname__}.__init__()"
        if len(args) > len(names):
            raise TypeError(f"{where} takes {len(names)} positional arguments "
                            f"but {len(args)} were given")
        values = dict(zip(names, args))
        for name, value in kwargs.items():
            if name not in names:
                raise TypeError(f"{where} got an unexpected keyword argument {name!r}")
            if name in values:
                raise TypeError(f"{where} got multiple values for argument {name!r}")
            values[name] = value
        missing = [name for name in names if name not in values and name not in cls._defaults]
        if missing:
            raise TypeError(f"{where} missing required arguments: "
                            f"{', '.join(map(repr, missing))}")
        return [values[name] if name in values else cls._defaults[name] for name in names]

    def __post_init__(self) -> None:
        pass

    def _fields(self) -> tuple:
        return tuple([getattr(self, name) for name in self.__slots__])

    def replace(self, **changes):
        """A copy with `changes` to some fields, checked as a new value is."""
        return type(self)(**dict(zip(self.__slots__, self._fields()), **changes))

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return self._fields() == other._fields()
        return NotImplemented

    def __hash__(self) -> int:
        return hash(self._fields())

    def __repr__(self) -> str:
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in self.__slots__)
        return f"{type(self).__qualname__}({fields})"

    def __setattr__(self, name, value):
        raise AttributeError(f"cannot assign to field {name!r}")

    def __delattr__(self, name):
        raise AttributeError(f"cannot delete field {name!r}")


# ---------------------------------------------------------------------------
# Sorts and declarations
# ---------------------------------------------------------------------------

class EnumSort(Record):
    __slots__ = ("literals",)
    literals: tuple[str, ...]

    def __post_init__(self):
        if not self.literals:
            raise ValueError("empty enumeration sort")
        if len(set(self.literals)) != len(self.literals):
            raise ValueError(f"duplicate enumeration literals: {self.literals}")

    def values(self) -> tuple[str, ...]:
        return self.literals

    def __contains__(self, value) -> bool:
        return value in self.literals

    def size(self) -> int:
        return len(self.literals)

    def to_obj(self):
        return {"enum": list(self.literals)}


class IntSort(Record):
    __slots__ = ("lo", "hi")
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, value) -> bool:
        return type(value) is int and self.lo <= value <= self.hi

    def size(self) -> int:
        return self.hi - self.lo + 1

    def to_obj(self):
        return {"int": [self.lo, self.hi]}


Sort = EnumSort | IntSort

# Factor variables carry exactly this sort (inactive / active / mitigated).
PHASE_SORT = EnumSort(("0", "a", "m"))

MONITORED = "monitored"
CONTROLLED = "controlled"
FACTOR = "factor"


class VarDecl(Record):
    __slots__ = ("name", "sort", "kind")
    _defaults = {"kind": MONITORED}
    name: str
    sort: Sort
    kind: str

    def __post_init__(self):
        if self.kind not in (MONITORED, CONTROLLED, FACTOR):
            raise ValueError(f"unknown variable kind: {self.kind}")
        if self.kind == FACTOR and self.sort != PHASE_SORT:
            raise ValueError(f"factor variable {self.name} must have the phase sort")

    def to_obj(self):
        return {"name": self.name, "sort": self.sort.to_obj(), "kind": self.kind}


def sort_from_obj(obj) -> Sort:
    if "enum" in obj:
        return EnumSort(tuple(value_at(obj, "enum", list, str)))
    if "int" in obj:
        bounds = value_at(obj, "int", list, int)
        if len(bounds) != 2:
            raise ValueError(f"int must be a list of two bounds, got {bounds!r}")
        return IntSort(*bounds)
    raise ValueError(f"unknown sort: {obj!r}")


def decl_from_obj(obj) -> VarDecl:
    return VarDecl(value_at(obj, "name", str), sort_from_obj(value_at(obj, "sort", dict)),
                   value_at(obj, "kind", str, default=MONITORED))


def check_decls(decls: list[VarDecl]) -> None:
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise SortError(f"duplicate variable declarations: {', '.join(dup)}")


def check_valuation(v: Valuation, decls: list[VarDecl]) -> None:
    """An object, total over `decls` and within their sorts."""
    if not isinstance(v, dict):
        raise SortError(f"not a valuation: {v!r}")
    declared = {d.name: d for d in decls}
    missing = sorted(set(declared) - set(v))
    if missing:
        raise SortError(f"valuation missing variables: {', '.join(missing)}")
    extra = sorted(set(v) - set(declared))
    if extra:
        raise SortError(f"valuation has undeclared variables: {', '.join(extra)}")
    for name, value in v.items():
        if value not in declared[name].sort:
            raise SortError(f"value {value!r} not in sort of {name}")


# ---------------------------------------------------------------------------
# Expression AST
# ---------------------------------------------------------------------------

class BoolConst(Record):
    __slots__ = ("value",)
    value: bool


class Comparison(Record):
    __slots__ = ("var", "op", "literal")
    var: str
    op: str  # = != < <= > >=
    literal: Value


class Not(Record):
    __slots__ = ("operand",)
    operand: GuardExpr


class And(Record):
    __slots__ = ("left", "right")
    left: GuardExpr
    right: GuardExpr


class Or(Record):
    __slots__ = ("left", "right")
    left: GuardExpr
    right: GuardExpr


GuardExpr = BoolConst | Comparison | Not | And | Or

TRUE = BoolConst(True)

# Each comparison operator: its test of a value against a literal, and the
# operator of its negation (what `mutation` flips a comparison to)
OPERATORS = {
    "=": (operator.eq, "!="),
    "!=": (operator.ne, "="),
    "<": (operator.lt, ">="),
    "<=": (operator.le, ">"),
    ">": (operator.gt, "<="),
    ">=": (operator.ge, "<"),
}

_ORDER_OPS = ("<", "<=", ">", ">=")


def print_guard(g: GuardExpr) -> str:
    """Canonical form: fully parenthesized compounds, lowercase keywords.

    This exact text is used for guard deduplication and label hashing, so
    it must stay stable.
    """
    if isinstance(g, BoolConst):
        return "true" if g.value else "false"
    if isinstance(g, Comparison):
        return f"{g.var} {g.op} {g.literal}"
    if isinstance(g, Not):
        return f"(not {print_guard(g.operand)})"
    if isinstance(g, And):
        return f"({print_guard(g.left)} and {print_guard(g.right)})"
    if isinstance(g, Or):
        return f"({print_guard(g.left)} or {print_guard(g.right)})"
    raise TypeError(f"not a guard expression: {g!r}")


def _atoms(g: GuardExpr) -> Iterator[Comparison]:
    if isinstance(g, Comparison):
        yield g
    elif isinstance(g, Not):
        yield from _atoms(g.operand)
    elif isinstance(g, (And, Or)):
        yield from _atoms(g.left)
        yield from _atoms(g.right)


def guard_vars(g: GuardExpr) -> set[str]:
    return {a.var for a in _atoms(g)}


# ---------------------------------------------------------------------------
# Parser
# ---------------------------------------------------------------------------

_TOKEN_RE = re.compile(
    r"\s*(?:(?P<op>!=|<=|>=|=|<|>|\(|\))|(?P<int>-?\d+)|(?P<ident>[A-Za-z_][A-Za-z0-9_]*))"
)

_KEYWORDS = {"and", "or", "not", "true", "false"}


class _Token(Record):
    __slots__ = ("kind", "text", "pos")
    kind: str  # op | int | ident | kw | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
    if not isinstance(text, str):
        raise GuardError(f"a guard must be a string, got {text!r}")
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None:
            stripped = text[pos:].lstrip()
            if not stripped:
                break
            at = len(text) - len(stripped)
            raise GuardSyntaxError(f"unexpected character {stripped[0]!r}", at)
        if m.lastgroup == "ident" and m.group("ident") in _KEYWORDS:
            tokens.append(_Token("kw", m.group("ident"), m.start("ident")))
        else:
            tokens.append(_Token(m.lastgroup, m.group(m.lastgroup), m.start(m.lastgroup)))
        pos = m.end()
    tokens.append(_Token("end", "", len(text)))
    return tokens


class _Parser:
    def __init__(self, text: str, decls: list[VarDecl]):
        self.tokens = _tokenize(text)
        self.index = 0
        self.decls = {d.name: d for d in decls}

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def expect(self, kind: str, text: str | None = None) -> _Token:
        tok = self.peek()
        if tok.kind != kind or (text is not None and tok.text != text):
            want = text or kind
            got = tok.text or "end of input"
            raise GuardSyntaxError(f"expected {want}, found {got!r}", tok.pos)
        return self.advance()

    def parse(self) -> GuardExpr:
        g = self.or_expr()
        tok = self.peek()
        if tok.kind != "end":
            raise GuardSyntaxError(f"trailing input {tok.text!r}", tok.pos)
        return g

    def or_expr(self) -> GuardExpr:
        g = self.and_expr()
        while self.peek().kind == "kw" and self.peek().text == "or":
            self.advance()
            g = Or(g, self.and_expr())
        return g

    def and_expr(self) -> GuardExpr:
        g = self.unary()
        while self.peek().kind == "kw" and self.peek().text == "and":
            self.advance()
            g = And(g, self.unary())
        return g

    def unary(self) -> GuardExpr:
        tok = self.peek()
        if tok.kind == "kw" and tok.text == "not":
            self.advance()
            return Not(self.unary())
        if tok.kind == "op" and tok.text == "(":
            self.advance()
            g = self.or_expr()
            self.expect("op", ")")
            return g
        return self.atom()

    def atom(self) -> GuardExpr:
        tok = self.advance()
        if tok.kind == "kw" and tok.text in ("true", "false"):
            return BoolConst(tok.text == "true")
        if tok.kind != "ident":
            got = tok.text or "end of input"
            raise GuardSyntaxError(f"expected atom, found {got!r}", tok.pos)
        var = tok.text
        if var not in self.decls:
            raise SortError(f"undeclared variable: {var}")
        op_tok = self.peek()
        if op_tok.kind != "op" or op_tok.text not in OPERATORS:
            got = op_tok.text or "end of input"
            raise GuardSyntaxError(f"expected comparison operator, found {got!r}", op_tok.pos)
        self.advance()
        lit_tok = self.advance()
        sort = self.decls[var].sort
        if isinstance(sort, IntSort):
            if lit_tok.kind != "int":
                got = lit_tok.text or "end of input"
                raise SortError(f"integer literal expected for {var}, found {got!r}")
            literal: Value = int(lit_tok.text)
        else:
            if op_tok.text in _ORDER_OPS:
                raise SortError(f"ordering operator {op_tok.text} not valid on enumeration {var}")
            if lit_tok.kind == "end":
                raise GuardSyntaxError("expected literal, found end of input", lit_tok.pos)
            if lit_tok.text not in sort.literals:
                raise SortError(f"literal {lit_tok.text!r} not in sort of {var}")
            literal = lit_tok.text
        return Comparison(var, op_tok.text, literal)


def parse_guard(text: str, decls: list[VarDecl]) -> GuardExpr:
    """Parse a guard over the given declarations."""
    return _Parser(text, decls).parse()


def sample_decls(sample: Valuation, texts) -> list[VarDecl]:
    """Declarations of `sample`'s variables under which the guard `texts`
    parse when the sorts are not known: a variable holding an int gets an
    integer sort, any other an enumeration of every word in the texts."""
    words = {tok.text for text in texts for tok in _tokenize(text)
             if tok.kind in ("int", "ident")}
    return [VarDecl(name, IntSort(value, value) if type(value) is int
                    else EnumSort(tuple(words | {value})))
            for name, value in sample.items()]


# ---------------------------------------------------------------------------
# Evaluation and enumeration
# ---------------------------------------------------------------------------

def eval_guard(g: GuardExpr, v: Valuation) -> bool:
    if isinstance(g, BoolConst):
        return g.value
    if isinstance(g, Comparison):
        try:
            x = v[g.var]
        except KeyError:
            raise SortError(f"valuation missing variable: {g.var}") from None
        return OPERATORS[g.op][0](x, g.literal)
    if isinstance(g, Not):
        return not eval_guard(g.operand, v)
    if isinstance(g, And):
        return eval_guard(g.left, v) and eval_guard(g.right, v)
    if isinstance(g, Or):
        return eval_guard(g.left, v) or eval_guard(g.right, v)
    raise TypeError(f"not a guard expression: {g!r}")


def valuation_count(decls: list[VarDecl]) -> int:
    return math.prod(d.sort.size() for d in decls)


def enumerate_valuations(decls: list[VarDecl]) -> Iterator[Valuation]:
    """All valuations, lexicographic over declaration order and sort order.

    The empty declaration set yields the single empty valuation.
    """
    total = valuation_count(decls)
    if total > ENUM_BOUND:
        raise EnumerationOverflow(
            f"valuation space of size {total} exceeds bound {ENUM_BOUND}"
        )
    names = [d.name for d in decls]
    return (dict(zip(names, values))
            for values in itertools.product(*[d.sort.values() for d in decls]))


def distinct_guards(guards) -> list[GuardExpr]:
    """Distinct guards by canonical-print equality, first-occurrence order."""
    seen: dict[str, GuardExpr] = {}
    for g in guards:
        seen.setdefault(print_guard(g), g)
    return list(seen.values())


def _cells(d: VarDecl, atoms: list[Comparison]) -> dict[Value, int]:
    """Least value -> size of each cell of `d`'s sort, in sort order.  Every
    atom over `d` is constant on a cell.  An integer atom `x op c` changes
    truth only between c-1 and c or between c and c+1, so integer cells are
    the intervals between those cuts and the sort is never iterated."""
    if isinstance(d.sort, IntSort):
        lo, hi = d.sort.lo, d.sort.hi
        cuts = sorted({lo, hi + 1} | {
            x for a in atoms for x in (a.literal, a.literal + 1) if lo <= x <= hi})
        return {start: end - start for start, end in zip(cuts, cuts[1:])}
    cells: dict[tuple[bool, ...], list] = {}
    for value in d.sort.values():
        key = tuple(eval_guard(a, {d.name: value}) for a in atoms)
        cells.setdefault(key, [value, 0])[1] += 1
    return dict(cells.values())


def _cell_decls(guards, decls: list[VarDecl]) -> tuple[list[VarDecl], dict]:
    """Declarations whose sorts hold the least value of each cell of the
    declared sorts under the atoms of `guards`, in sort order, and each
    variable's cell sizes by least value.  Their valuations in enumeration
    order are the least members of the cell products, in the order of the
    valuations they stand for.  A cell-product space larger than
    `ENUM_BOUND` is refused, naming its size."""
    atoms: dict[str, list[Comparison]] = {d.name: [] for d in decls}
    for g in guards:
        for a in _atoms(g):
            if a.var in atoms:
                atoms[a.var].append(a)
    cells = {d.name: _cells(d, atoms[d.name]) for d in decls}
    products = math.prod(map(len, cells.values()))
    if products > ENUM_BOUND:
        raise EnumerationOverflow(
            f"{products} cell products (of {valuation_count(decls)} valuations) "
            f"exceed bound {ENUM_BOUND}"
        )
    return [VarDecl(d.name, EnumSort(tuple(cells[d.name]))) for d in decls], cells


def truth_classes(
    guards: list[GuardExpr], decls: list[VarDecl]
) -> list[tuple[tuple[bool, ...], Valuation, int]]:
    """(signature, least member, size) of each truth class of `guards`, in
    order of least member.  What reads an input only through these guards
    is decided exactly on the least members, and the first class showing a
    property holds the least valuation showing it.

    A class is a union of cell products (see `_cell_decls`): its first cell
    product holds its least member, and its size sums theirs."""
    corners, cells = _cell_decls(guards, decls)
    classes: dict[tuple[bool, ...], list] = {}
    for v in enumerate_valuations(corners):
        sig = tuple(eval_guard(g, v) for g in guards)
        size = math.prod(cells[name][value] for name, value in v.items())
        classes.setdefault(sig, [v, 0])[1] += size
    return [(sig, rep, size) for sig, (rep, size) in classes.items()]


def satisfiable(g: GuardExpr, decls: list[VarDecl]) -> Valuation | None:
    """First satisfying valuation in enumeration order, or None: the least
    member of the first satisfying cell product."""
    corners, _ = _cell_decls([g], decls)
    for v in enumerate_valuations(corners):
        if eval_guard(g, v):
            return v
    return None
