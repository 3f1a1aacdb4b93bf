"""The ring/group expression language and its elaborator.

Grammar (case-sensitive, whitespace-insensitive)::

    ring  := "Z" | "Z(" int ")" | "GF(" int ")" | "M(" int "," ring ")"
           | "T(" int "," ring ")" | "FT(" ring "," ring ")"
           | "Ks(" ring "," int ")" | "TrivExt(" ring ")"
           | "Poly(" ring "," int ")" | "Prod(" ring {"," ring} ")"
           | "GR(" ring "," group ")" | "Corner(" ring "," "#" int ")"
           | "Quot(" ring "," "#" int {"," "#" int} ")"
    group := "C(" int ")" | "D(" int ")" | "Q8" | "S(" int ")"
           | "GxG(" group "," group ")" | "@" filepath

"#k" names the element with code k in the canonical enumeration of the
base ring.  The parser is recursive descent with one token of lookahead;
every node records the byte span of its source slice.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from . import constructions as cons
from . import groups as grp
from .core import DEFAULT_GUARD, ResourceGuard
from .errors import ParseError, RangeCheckError

MAX_SOURCE_BYTES = 64 * 1024

RING_HEADS = ("Z", "GF", "M", "T", "FT", "Ks", "TrivExt", "Poly", "Prod", "GR", "Corner", "Quot")
GROUP_HEADS = ("C", "D", "Q8", "S", "GxG")


@dataclass
class Node:
    """One node of a parsed expression tree."""

    kind: str
    args: list = field(default_factory=list)
    span: tuple[int, int] = field(default=(0, 0), compare=False)

    def __repr__(self) -> str:
        return f"Node({self.kind}, {self.args})"


RingExpr = Node
GroupExpr = Node


@dataclass(frozen=True)
class _Token:
    kind: str  # IDENT INT LPAREN RPAREN COMMA HASH AT EOF
    text: str
    pos: int


class _Lexer:
    def __init__(self, text: str):
        if len(text.encode("utf-8")) > MAX_SOURCE_BYTES:
            raise RangeCheckError("expression source exceeds 64 KiB")
        self.text = text
        self.pos = 0
        self.tokens: list[_Token] = []
        self._scan()

    def _error(self, message: str, pos: int, expected=()):
        line = self.text.count("\n", 0, pos) + 1
        col = pos - self.text.rfind("\n", 0, pos)
        raise ParseError(message, line, col, expected)

    def _scan(self):
        text = self.text
        i = 0
        n = len(text)
        while i < n:
            ch = text[i]
            if ch.isspace():
                i += 1
                continue
            if ch == "(":
                self.tokens.append(_Token("LPAREN", ch, i)); i += 1
            elif ch == ")":
                self.tokens.append(_Token("RPAREN", ch, i)); i += 1
            elif ch == ",":
                self.tokens.append(_Token("COMMA", ch, i)); i += 1
            elif ch == "#":
                self.tokens.append(_Token("HASH", ch, i)); i += 1
            elif ch == "@":
                j = i + 1
                while j < n and not text[j].isspace() and text[j] not in ",)":
                    j += 1
                if j == i + 1:
                    self._error("empty file path after '@'", i)
                self.tokens.append(_Token("AT", text[i + 1 : j], i))
                i = j
            elif ch.isdigit():
                j = i
                while j < n and text[j].isdigit():
                    j += 1
                self.tokens.append(_Token("INT", text[i:j], i))
                i = j
            elif ch.isalpha():
                j = i
                while j < n and (text[j].isalnum()):
                    j += 1
                self.tokens.append(_Token("IDENT", text[i:j], i))
                i = j
            else:
                self._error(f"unexpected character {ch!r}", i)
        self.tokens.append(_Token("EOF", "", n))


class _Parser:
    def __init__(self, text: str):
        self.text = text
        self.tokens = _Lexer(text).tokens
        self.idx = 0

    # -- plumbing ------------------------------------------------------------

    def _peek(self) -> _Token:
        return self.tokens[self.idx]

    def _next(self) -> _Token:
        tok = self.tokens[self.idx]
        self.idx += 1
        return tok

    def _error(self, message: str, tok: _Token, expected=()):
        line = self.text.count("\n", 0, tok.pos) + 1
        col = tok.pos - self.text.rfind("\n", 0, tok.pos)
        raise ParseError(message, line, col, expected)

    def _expect(self, kind: str, what: str) -> _Token:
        tok = self._next()
        if tok.kind != kind:
            self._error(f"found {tok.text or 'end of input'!r}", tok, expected={what})
        return tok

    def _int(self, what: str = "integer") -> int:
        tok = self._expect("INT", what)
        return int(tok.text)

    def _end(self, start: int) -> tuple[int, int]:
        prev = self.tokens[self.idx - 1]
        return (start, prev.pos + len(prev.text) + (1 if prev.kind == "AT" else 0))

    def _range(self, ok: bool, message: str, tok: _Token):
        if not ok:
            line = self.text.count("\n", 0, tok.pos) + 1
            col = tok.pos - self.text.rfind("\n", 0, tok.pos)
            raise RangeCheckError(f"{message} at line {line}, column {col}")

    # -- grammar ---------------------------------------------------------------

    def parse_ring(self) -> Node:
        tok = self._next()
        if tok.kind != "IDENT":
            self._error(f"found {tok.text or 'end of input'!r}", tok, expected=set(RING_HEADS))
        start = tok.pos
        head = tok.text
        if head == "Z":
            if self._peek().kind != "LPAREN":
                return Node("integers", [], (start, start + 1))
            self._next()
            ntok = self._peek()
            n = self._int()
            self._range(n >= 2, f"modulus {n} must be >= 2", ntok)
            self._expect("RPAREN", ")")
            return Node("zmod", [n], self._end(start))
        if head == "GF":
            self._expect("LPAREN", "(")
            qtok = self._peek()
            q = self._int()
            self._range(q >= 2, f"field order {q} must be >= 2", qtok)
            self._expect("RPAREN", ")")
            return Node("gf", [q], self._end(start))
        if head == "M":
            self._expect("LPAREN", "(")
            ktok = self._peek()
            k = self._int()
            self._range(k >= 1, f"matrix size {k} must be >= 1", ktok)
            self._expect("COMMA", ",")
            base = self.parse_ring()
            self._expect("RPAREN", ")")
            return Node("matrix", [k, base], self._end(start))
        if head == "T":
            self._expect("LPAREN", "(")
            ktok = self._peek()
            k = self._int()
            self._range(k >= 2, f"triangular size {k} must be >= 2", ktok)
            self._expect("COMMA", ",")
            base = self.parse_ring()
            self._expect("RPAREN", ")")
            return Node("triangular", [k, base], self._end(start))
        if head == "FT":
            self._expect("LPAREN", "(")
            left = self.parse_ring()
            self._expect("COMMA", ",")
            right = self.parse_ring()
            self._expect("RPAREN", ")")
            return Node("ft", [left, right], self._end(start))
        if head == "Ks":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            self._expect("COMMA", ",")
            s = self._int()
            self._expect("RPAREN", ")")
            return Node("ks", [base, s], self._end(start))
        if head == "TrivExt":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            self._expect("RPAREN", ")")
            return Node("trivext", [base], self._end(start))
        if head == "Poly":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            self._expect("COMMA", ",")
            ktok = self._peek()
            k = self._int()
            self._range(k >= 1, f"truncation degree {k} must be >= 1", ktok)
            self._expect("RPAREN", ")")
            return Node("polyquot", [base, k], self._end(start))
        if head == "Prod":
            self._expect("LPAREN", "(")
            parts = [self.parse_ring()]
            while self._peek().kind == "COMMA":
                self._next()
                parts.append(self.parse_ring())
            self._expect("RPAREN", ")")
            return Node("product", parts, self._end(start))
        if head == "GR":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            self._expect("COMMA", ",")
            group = self.parse_group()
            self._expect("RPAREN", ")")
            return Node("groupring", [base, group], self._end(start))
        if head == "Corner":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            self._expect("COMMA", ",")
            self._expect("HASH", "#")
            code = self._int("element code")
            self._expect("RPAREN", ")")
            return Node("corner", [base, code], self._end(start))
        if head == "Quot":
            self._expect("LPAREN", "(")
            base = self.parse_ring()
            gens = []
            while self._peek().kind == "COMMA":
                self._next()
                self._expect("HASH", "#")
                gens.append(self._int("element code"))
            if not gens:
                self._error("quotient needs at least one generator", self._peek(), expected={","})
            self._expect("RPAREN", ")")
            return Node("quotient", [base] + gens, self._end(start))
        self._error(f"unknown ring constructor {head!r}", tok, expected=set(RING_HEADS))

    def parse_group(self) -> Node:
        tok = self._next()
        start = tok.pos
        if tok.kind == "AT":
            return Node("groupfile", [tok.text], (start, start + 1 + len(tok.text)))
        if tok.kind != "IDENT":
            self._error(f"found {tok.text or 'end of input'!r}", tok, expected=set(GROUP_HEADS) | {"@"})
        head = tok.text
        if head == "Q8":
            return Node("q8", [], (start, start + 2))
        if head in ("C", "D", "S"):
            self._expect("LPAREN", "(")
            ntok = self._peek()
            n = self._int()
            self._range(n >= 1, f"group parameter {n} must be >= 1", ntok)
            self._expect("RPAREN", ")")
            kind = {"C": "cyclic", "D": "dihedral", "S": "symmetric"}[head]
            return Node(kind, [n], self._end(start))
        if head == "GxG":
            self._expect("LPAREN", "(")
            left = self.parse_group()
            self._expect("COMMA", ",")
            right = self.parse_group()
            self._expect("RPAREN", ")")
            return Node("groupprod", [left, right], self._end(start))
        self._error(f"unknown group constructor {head!r}", tok, expected=set(GROUP_HEADS) | {"@"})


def parse_ring_expr(text: str) -> Node:
    """Parse a ring expression, rejecting trailing input."""
    parser = _Parser(text)
    node = parser.parse_ring()
    tail = parser._peek()
    if tail.kind != "EOF":
        parser._error(f"trailing input {tail.text!r}", tail, expected={"end of input"})
    return node


def parse_group_expr(text: str) -> Node:
    parser = _Parser(text)
    node = parser.parse_group()
    tail = parser._peek()
    if tail.kind != "EOF":
        parser._error(f"trailing input {tail.text!r}", tail, expected={"end of input"})
    return node


def print_expr(node: Node) -> str:
    """Canonical form; parsing it back yields an equal tree."""
    k = node.kind
    if k == "integers":
        return "Z"
    if k == "zmod":
        return f"Z({node.args[0]})"
    if k == "gf":
        return f"GF({node.args[0]})"
    if k == "matrix":
        return f"M({node.args[0]},{print_expr(node.args[1])})"
    if k == "triangular":
        return f"T({node.args[0]},{print_expr(node.args[1])})"
    if k == "ft":
        return f"FT({print_expr(node.args[0])},{print_expr(node.args[1])})"
    if k == "ks":
        return f"Ks({print_expr(node.args[0])},{node.args[1]})"
    if k == "trivext":
        return f"TrivExt({print_expr(node.args[0])})"
    if k == "polyquot":
        return f"Poly({print_expr(node.args[0])},{node.args[1]})"
    if k == "product":
        return "Prod(" + ",".join(print_expr(a) for a in node.args) + ")"
    if k == "groupring":
        return f"GR({print_expr(node.args[0])},{print_expr(node.args[1])})"
    if k == "corner":
        return f"Corner({print_expr(node.args[0])},#{node.args[1]})"
    if k == "quotient":
        gens = ",".join(f"#{g}" for g in node.args[1:])
        return f"Quot({print_expr(node.args[0])},{gens})"
    if k == "cyclic":
        return f"C({node.args[0]})"
    if k == "dihedral":
        return f"D({node.args[0]})"
    if k == "symmetric":
        return f"S({node.args[0]})"
    if k == "q8":
        return "Q8"
    if k == "groupprod":
        return f"GxG({print_expr(node.args[0])},{print_expr(node.args[1])})"
    if k == "groupfile":
        return f"@{node.args[0]}"
    raise ValueError(f"unprintable node kind {k!r}")


def elaborate_group(node: Node) -> grp.FiniteGroup:
    k = node.kind
    if k == "cyclic":
        return grp.cyclic(node.args[0])
    if k == "dihedral":
        return grp.dihedral(node.args[0])
    if k == "symmetric":
        return grp.symmetric(node.args[0])
    if k == "q8":
        return grp.quaternion8()
    if k == "groupprod":
        return grp.direct_product(elaborate_group(node.args[0]), elaborate_group(node.args[1]))
    if k == "groupfile":
        return grp.from_cayley_json(node.args[0])
    raise ValueError(f"not a group node: {k!r}")


def elaborate(node: Node, guard: ResourceGuard = DEFAULT_GUARD):
    """Build the ring a parsed expression denotes, bottom-up under the guard."""
    k = node.kind
    if k == "integers":
        return cons.integers_oracle()
    if k == "zmod":
        return cons.make_zmod(node.args[0], guard)
    if k == "gf":
        return cons.make_gf(node.args[0], guard)
    if k in ("matrix", "triangular"):
        base = _enumerable(elaborate(node.args[1], guard))
        maker = cons.make_matrix if k == "matrix" else cons.make_triangular
        return maker(base, node.args[0], guard)
    if k == "ft":
        return cons.make_formal_triangular(
            _enumerable(elaborate(node.args[0], guard)),
            _enumerable(elaborate(node.args[1], guard)),
            guard,
        )
    if k == "ks":
        return cons.make_ks(_enumerable(elaborate(node.args[0], guard)), node.args[1], guard)
    if k == "trivext":
        return cons.make_trivial_extension(_enumerable(elaborate(node.args[0], guard)), guard)
    if k == "polyquot":
        return cons.make_polyquot(_enumerable(elaborate(node.args[0], guard)), node.args[1], guard)
    if k == "product":
        return cons.make_product([_enumerable(elaborate(a, guard)) for a in node.args], guard)
    if k == "groupring":
        return cons.make_groupring(
            _enumerable(elaborate(node.args[0], guard)), elaborate_group(node.args[1]), guard
        )
    if k == "corner":
        return cons.make_corner(_enumerable(elaborate(node.args[0], guard)), node.args[1])
    if k == "quotient":
        base = _enumerable(elaborate(node.args[0], guard))
        return cons.make_quotient(base, cons.ideal_closure(base, node.args[1:]))
    raise ValueError(f"not a ring node: {k!r}")


def _enumerable(ring):
    if isinstance(ring, cons.IntegersOracle):
        ring.reject("using the integers as a construction component")
    return ring
