"""Finite-sorted variables and the guard expression language.

Guards are boolean combinations of variable-vs-literal comparisons over
finite sorts (enumerations or bounded integer ranges).  Satisfiability and
truth classes are decided exhaustively, with no constraint solver, but not
value by value: the literals of the atoms over a variable split its sort
into cells on which every atom is constant, and the walk goes over the
product of the variables' cells, one least value per cell, which does not
grow with the width of an integer sort.  A space to walk (valuations, or
cell products) larger than `ENUM_BOUND` is refused rather than walked.

Grammar::

    guard  := orExpr
    orExpr := andExpr { "or" andExpr }
    andExpr:= unary { "and" unary }
    unary  := "not" unary | "(" guard ")" | atom
    atom   := "true" | "false" | ident relop literal
    relop  := "=" | "!=" | "<" | "<=" | ">" | ">="
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from typing import Iterator, Union

ENUM_BOUND = 1_000_000  # largest valuation or cell-product space walked

Value = Union[int, str]
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
# Sorts and declarations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class EnumSort:
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


@dataclass(frozen=True)
class IntSort:
    lo: int
    hi: int

    def __post_init__(self):
        if self.lo > self.hi:
            raise ValueError(f"empty integer range [{self.lo}, {self.hi}]")

    def values(self) -> range:
        return range(self.lo, self.hi + 1)

    def __contains__(self, value) -> bool:
        return isinstance(value, int) and self.lo <= value <= self.hi

    def size(self) -> int:
        return self.hi - self.lo + 1

    def to_obj(self):
        return {"int": [self.lo, self.hi]}


Sort = Union[EnumSort, IntSort]

# Factor variables carry exactly this sort (inactive / active / mitigated).
PHASE_SORT = EnumSort(("0", "a", "m"))

MONITORED = "monitored"
CONTROLLED = "controlled"
FACTOR = "factor"


@dataclass(frozen=True)
class VarDecl:
    name: str
    sort: Sort
    kind: str = MONITORED

    def __post_init__(self):
        if self.kind not in (MONITORED, CONTROLLED, FACTOR):
            raise ValueError(f"unknown variable kind: {self.kind}")
        if self.kind == FACTOR and self.sort != PHASE_SORT:
            raise ValueError(f"factor variable {self.name} must have the phase sort")

    def to_obj(self):
        return {"name": self.name, "sort": self.sort.to_obj(), "kind": self.kind}


def sort_from_obj(obj) -> Sort:
    if "enum" in obj:
        return EnumSort(tuple(str(x) for x in obj["enum"]))
    if "int" in obj:
        lo, hi = obj["int"]
        return IntSort(int(lo), int(hi))
    raise ValueError(f"unknown sort: {obj!r}")


def decl_from_obj(obj) -> VarDecl:
    return VarDecl(obj["name"], sort_from_obj(obj["sort"]), obj.get("kind", MONITORED))


def check_decls(decls: list[VarDecl]) -> None:
    names = [d.name for d in decls]
    if len(set(names)) != len(names):
        dup = sorted({n for n in names if names.count(n) > 1})
        raise SortError(f"duplicate variable declarations: {', '.join(dup)}")


def check_valuation(v: Valuation, decls: list[VarDecl]) -> None:
    """Totality and sort membership."""
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

@dataclass(frozen=True)
class BoolConst:
    value: bool


@dataclass(frozen=True)
class Comparison:
    var: str
    op: str  # = != < <= > >=
    literal: Value


@dataclass(frozen=True)
class Not:
    operand: "GuardExpr"


@dataclass(frozen=True)
class And:
    left: "GuardExpr"
    right: "GuardExpr"


@dataclass(frozen=True)
class Or:
    left: "GuardExpr"
    right: "GuardExpr"


GuardExpr = Union[BoolConst, Comparison, Not, And, Or]

TRUE = BoolConst(True)
FALSE = BoolConst(False)

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


@dataclass
class _Token:
    kind: str  # op | int | ident | kw | end
    text: str
    pos: int


def _tokenize(text: str) -> list[_Token]:
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
        if op_tok.kind != "op" or op_tok.text not in ("=", "!=", "<", "<=", ">", ">="):
            got = op_tok.text or "end of input"
            raise GuardSyntaxError(f"expected comparison operator, found {got!r}", op_tok.pos)
        self.advance()
        lit_tok = self.advance()
        sort = self.decls[var].sort
        if isinstance(sort, IntSort):
            if op_tok.text not in ("=", "!=") + _ORDER_OPS:
                raise SortError(f"operator {op_tok.text} not valid on {var}")
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


# ---------------------------------------------------------------------------
# Evaluation and enumeration
# ---------------------------------------------------------------------------

def eval_guard(g: GuardExpr, v: Valuation) -> bool:
    if isinstance(g, BoolConst):
        return g.value
    if isinstance(g, Comparison):
        if g.var not in v:
            raise SortError(f"valuation missing variable: {g.var}")
        x = v[g.var]
        op = g.op
        if op == "=":
            return x == g.literal
        if op == "!=":
            return x != g.literal
        if op == "<":
            return x < g.literal
        if op == "<=":
            return x <= g.literal
        if op == ">":
            return x > g.literal
        return x >= g.literal
    if isinstance(g, Not):
        return not eval_guard(g.operand, v)
    if isinstance(g, And):
        return eval_guard(g.left, v) and eval_guard(g.right, v)
    if isinstance(g, Or):
        return eval_guard(g.left, v) or eval_guard(g.right, v)
    raise TypeError(f"not a guard expression: {g!r}")


def valuation_count(decls: list[VarDecl]) -> int:
    n = 1
    for d in decls:
        n *= d.sort.size()
    return n


def enumerate_valuations(decls: list[VarDecl]) -> Iterator[Valuation]:
    """All valuations, lexicographic over declaration order and sort order.

    The empty declaration set yields the single empty valuation.
    """
    total = valuation_count(decls)
    if total > ENUM_BOUND:
        raise EnumerationOverflow(
            f"valuation space of size {total} exceeds bound {ENUM_BOUND}"
        )

    def rec(i: int, acc: Valuation) -> Iterator[Valuation]:
        if i == len(decls):
            yield dict(acc)
            return
        d = decls[i]
        for value in d.sort.values():
            acc[d.name] = value
            yield from rec(i + 1, acc)
        del acc[d.name]

    return rec(0, {})


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
    valuations they stand for."""
    atoms: dict[str, list[Comparison]] = {d.name: [] for d in decls}
    for g in guards:
        for a in _atoms(g):
            if a.var in atoms:
                atoms[a.var].append(a)
    cells = {d.name: _cells(d, atoms[d.name]) for d in decls}
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
