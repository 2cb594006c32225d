"""Group-expression language and realizations of the named group families.

Every family is realized through a faithful permutation action (regular
action as fallback for the normal-form families), funneling into one
construction path: `group_from_generators`. Realized tables are checked
against each family's defining properties post-construction.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from math import factorial, gcd, prod

from .chartab import validate_semidirect
from .errors import (
    ConstructionContractViolated,
    GroupSyntaxError,
    ParameterOutOfRange,
    UnknownConstructor,
)
from .group import (
    center,
    closure_members,
    closure_of_permutations,
    direct_table_product,
    group_from_generators,
    is_prime,
    make_subgroup,
    order_cap,
    prime_power,
)
from .modlinalg import poly_divmod, poly_mul


# --- cycle notation -------------------------------------------------------

def parse_cycles(text, degree, offset=0):
    """Parse "(1 2 3)(4 5)" into a 0-based image tuple on `degree` points.

    Points are 1-based and whitespace-separated; cycles must be disjoint;
    fixed points are omitted. "()" is the identity.
    """
    img = list(range(degree))
    seen = set()
    pos = 0
    found_any = False
    while pos < len(text):
        if text[pos].isspace():
            pos += 1
            continue
        if text[pos] != "(":
            raise GroupSyntaxError("expected '('", offset + pos, {"("})
        end = text.find(")", pos)
        if end < 0:
            raise GroupSyntaxError("unclosed cycle", offset + pos, {")"})
        body = text[pos + 1:end].split()
        points = []
        for tok in body:
            if not tok.isdigit():
                raise GroupSyntaxError(f"bad point {tok!r}", offset + pos,
                                       {"digit"})
            pt = int(tok)
            if not 1 <= pt <= degree:
                raise ParameterOutOfRange(
                    f"point {pt} outside 1..{degree}", offset + pos)
            if pt in seen:
                raise GroupSyntaxError(
                    f"point {pt} repeated; cycles must be disjoint",
                    offset + pos)
            seen.add(pt)
            points.append(pt - 1)
        for i, pt in enumerate(points):
            img[pt] = points[(i + 1) % len(points)]
        found_any = True
        pos = end + 1
    if not found_any:
        raise GroupSyntaxError("expected at least one cycle", offset, {"("})
    return tuple(img)


def cycles_string(img):
    """Canonical disjoint-cycle form of a 0-based image tuple (1-based print)."""
    seen = set()
    parts = []
    for start in range(len(img)):
        if start in seen or img[start] == start:
            seen.add(start)
            continue
        cyc = [start]
        seen.add(start)
        nxt = img[start]
        while nxt != start:
            cyc.append(nxt)
            seen.add(nxt)
            nxt = img[nxt]
        parts.append("(" + " ".join(str(p + 1) for p in cyc) + ")")
    return "".join(parts) if parts else "()"


# --- abstract syntax ------------------------------------------------------

class GroupExpr:
    """Base class of group-expression AST nodes."""


@dataclass(frozen=True)
class Cyclic(GroupExpr):
    n: int

    def __str__(self):
        return f"C({self.n})"


@dataclass(frozen=True)
class ElemAbelian(GroupExpr):
    p: int
    k: int

    def __str__(self):
        return f"E({self.p},{self.k})"


@dataclass(frozen=True)
class Dihedral(GroupExpr):
    n: int          # order is 2n

    def __str__(self):
        return f"D({self.n})"


@dataclass(frozen=True)
class GenQuaternion(GroupExpr):
    m: int          # order, a power of 2, >= 8

    def __str__(self):
        return f"Q({self.m})"


@dataclass(frozen=True)
class SemiDihedral(GroupExpr):
    m: int          # order, a power of 2, >= 16

    def __str__(self):
        return f"SD({self.m})"


@dataclass(frozen=True)
class ModularMaxCyclic(GroupExpr):
    p: int
    n: int          # order p^n

    def __str__(self):
        return f"M({self.p},{self.n})"


@dataclass(frozen=True)
class Extraspecial(GroupExpr):
    p: int
    sign: str       # "+" or "-"

    def __str__(self):
        return f"X({self.p},{self.sign})"


@dataclass(frozen=True)
class Sym(GroupExpr):
    n: int

    def __str__(self):
        return f"S({self.n})"


@dataclass(frozen=True)
class Alt(GroupExpr):
    n: int

    def __str__(self):
        return f"A({self.n})"


@dataclass(frozen=True)
class PSL2(GroupExpr):
    q: int

    def __str__(self):
        return f"PSL(2,{self.q})"


@dataclass(frozen=True)
class SL2(GroupExpr):
    p: int

    def __str__(self):
        return f"SL(2,{self.p})"


@dataclass(frozen=True)
class Perm(GroupExpr):
    degree: int
    gens: tuple     # image tuples

    def __str__(self):
        body = ", ".join(cycles_string(g) for g in self.gens)
        return f"perm[{self.degree}: {body}]"


@dataclass(frozen=True)
class SemidirectByPerms(GroupExpr):
    degree: int
    gens: tuple
    normal_gens: tuple
    complement_gens: tuple

    def __str__(self):
        g = ", ".join(cycles_string(x) for x in self.gens)
        h = ", ".join(cycles_string(x) for x in self.normal_gens)
        k = ", ".join(cycles_string(x) for x in self.complement_gens)
        return f"sd[{self.degree}: {g}; {h}; {k}]"


@dataclass(frozen=True)
class Product(GroupExpr):
    factors: tuple

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


def format_expr(expr):
    """Canonical printer; parse(format(parse(s))) == parse(s)."""
    return str(expr)


# --- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]+)|(?P<sym>[(),\[\]:;+\-]))")

_CTORS = {"C", "E", "D", "Q", "SD", "M", "X", "S", "A", "PSL", "SL"}


def _tokenize(text):
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise GroupSyntaxError(f"unexpected character {text[pos]!r}", pos)
        if m.group("num"):
            try:
                value = int(m.group("num"))
            except ValueError:      # over the interpreter's digit limit
                raise ParameterOutOfRange(
                    f"number literal of {len(m.group('num'))} digits is "
                    "out of range", m.start("num")) from None
            out.append(("num", value, m.start("num")))
        elif m.group("name"):
            out.append(("name", m.group("name"), m.start("name")))
        else:
            out.append(("sym", m.group("sym"), m.start("sym")))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
        self.text = text
        self.toks = _tokenize(text)
        self.i = 0

    def peek(self):
        return self.toks[self.i]

    def take(self, kind=None, value=None, expected=None):
        tok = self.toks[self.i]
        if (kind is not None and tok[0] != kind) or \
           (value is not None and tok[1] != value):
            raise GroupSyntaxError(
                f"expected {expected or value or kind}, found {tok[1]!r}",
                tok[2], {str(expected or value or kind)})
        self.i += 1
        return tok

    def parse(self):
        expr = self.parse_expr()
        tok = self.peek()
        if tok[0] != "end":
            raise GroupSyntaxError(f"trailing input {tok[1]!r}", tok[2], {"end"})
        return expr

    def parse_expr(self):
        factors = [self.parse_term()]
        while self.peek()[:2] == ("name", "x"):
            self.take()
            factors.append(self.parse_term())
        if len(factors) == 1:
            return factors[0]
        return Product(tuple(factors))

    def parse_term(self):
        kind, name, off = self.peek()
        if kind != "name":
            raise GroupSyntaxError(f"expected a constructor, found {name!r}",
                                   off, _CTORS | {"perm", "sd"})
        if name == "perm":
            return self.parse_perm()
        if name == "sd":
            return self.parse_sd()
        if name not in _CTORS:
            raise UnknownConstructor(f"unknown constructor {name!r}", off,
                                     _CTORS | {"perm", "sd"})
        self.take()
        self.take("sym", "(")
        node = self.parse_ctor(name, off)
        self.take("sym", ")")
        return node

    def _num(self):
        tok = self.take("num", expected="number")
        return tok[1], tok[2]

    def parse_ctor(self, name, off):
        if name == "C":
            n, o = self._num()
            if n < 1 or n > order_cap():
                raise ParameterOutOfRange(f"C({n}) out of range", o)
            return Cyclic(n)
        if name == "E":
            p, o = self._num()
            self.take("sym", ",")
            k, o2 = self._num()
            if p > order_cap():
                raise ParameterOutOfRange(f"E({p},{k}) out of range", o)
            if not is_prime(p):
                raise ParameterOutOfRange(f"E needs a prime, got {p}", o)
            if k < 1 or k > order_cap() or p ** k > order_cap():
                raise ParameterOutOfRange(f"E({p},{k}) out of range", o2)
            return ElemAbelian(p, k)
        if name == "D":
            n, o = self._num()
            if n < 1 or 2 * n > order_cap():
                raise ParameterOutOfRange(f"D({n}) out of range", o)
            return Dihedral(n)
        if name == "Q":
            m, o = self._num()
            if m < 8 or m & (m - 1) or m > order_cap():
                raise ParameterOutOfRange(
                    f"Q needs a power of 2 that is >= 8, got {m}", o)
            return GenQuaternion(m)
        if name == "SD":
            m, o = self._num()
            if m < 16 or m & (m - 1) or m > order_cap():
                raise ParameterOutOfRange(
                    f"SD needs a power of 2 that is >= 16, got {m}", o)
            return SemiDihedral(m)
        if name == "M":
            p, o = self._num()
            self.take("sym", ",")
            n, o2 = self._num()
            if p > order_cap():
                raise ParameterOutOfRange(f"M({p},{n}) out of range", o)
            if not is_prime(p):
                raise ParameterOutOfRange(f"M needs a prime, got {p}", o)
            if n < 3 or (p, n) == (2, 3) or n > order_cap() or \
                    p ** n > order_cap():
                raise ParameterOutOfRange(f"M({p},{n}) out of range", o2)
            return ModularMaxCyclic(p, n)
        if name == "X":
            p, o = self._num()
            self.take("sym", ",")
            sign_tok = self.take("sym", expected="'+' or '-'")
            if sign_tok[1] not in "+-":
                raise GroupSyntaxError("expected '+' or '-'", sign_tok[2],
                                       {"+", "-"})
            if p ** 3 > order_cap() or not is_prime(p):
                raise ParameterOutOfRange(f"X({p},..) out of range", o)
            return Extraspecial(p, sign_tok[1])
        if name == "S":
            n, o = self._num()
            if n < 1 or n > order_cap() or factorial(n) > order_cap():
                raise ParameterOutOfRange(f"S({n}) out of range", o)
            return Sym(n)
        if name == "A":
            n, o = self._num()
            if n < 3 or n > order_cap() or factorial(n) // 2 > order_cap():
                raise ParameterOutOfRange(f"A({n}) out of range", o)
            return Alt(n)
        if name == "PSL":
            two, o = self._num()
            self.take("sym", ",")
            qq, o2 = self._num()
            if two != 2:
                raise ParameterOutOfRange("only PSL(2,q) is supported", o)
            if qq < 2 or qq * (qq * qq - 1) // gcd(2, qq - 1) > order_cap() \
                    or prime_power(qq) is None:
                raise ParameterOutOfRange(f"PSL(2,{qq}) out of range", o2)
            return PSL2(qq)
        if name == "SL":
            two, o = self._num()
            self.take("sym", ",")
            p, o2 = self._num()
            if two != 2:
                raise ParameterOutOfRange("only SL(2,p) is supported", o)
            if p * (p * p - 1) > order_cap() or not is_prime(p):
                raise ParameterOutOfRange(f"SL(2,{p}) out of range", o2)
            return SL2(p)
        raise UnknownConstructor(f"unknown constructor {name!r}", off, _CTORS)

    def _raw_until(self, stops):
        """Consume raw text until one of the stop symbols at this nest level."""
        start = self.toks[self.i][2]
        depth = 0
        while True:
            kind, val, off = self.toks[self.i]
            if kind == "end":
                raise GroupSyntaxError("unterminated bracket body", off,
                                       set(stops))
            if kind == "sym" and val == "(":
                depth += 1
            elif kind == "sym" and val == ")":
                depth -= 1
            elif kind == "sym" and val in stops and depth == 0:
                return self.text[start:off], start
            self.i += 1

    def _parse_perm_list(self, raw, degree, offset):
        perms = []
        for piece, poff in _split_commas(raw, offset):
            perms.append(parse_cycles(piece, degree, poff))
        if not perms:
            raise GroupSyntaxError("expected permutations", offset, {"("})
        return tuple(perms)

    def parse_perm(self):
        self.take("name", "perm")
        self.take("sym", "[")
        degree, doff = self._num()
        if degree < 1:
            raise ParameterOutOfRange("degree must be positive", doff)
        self.take("sym", ":")
        raw, off = self._raw_until("]")
        self.take("sym", "]")
        return Perm(degree, self._parse_perm_list(raw, degree, off))

    def parse_sd(self):
        self.take("name", "sd")
        self.take("sym", "[")
        degree, doff = self._num()
        if degree < 1:
            raise ParameterOutOfRange("degree must be positive", doff)
        self.take("sym", ":")
        raw_g, off_g = self._raw_until(";")
        self.take("sym", ";")
        raw_h, off_h = self._raw_until(";")
        self.take("sym", ";")
        raw_k, off_k = self._raw_until("]")
        self.take("sym", "]")
        return SemidirectByPerms(
            degree,
            self._parse_perm_list(raw_g, degree, off_g),
            self._parse_perm_list(raw_h, degree, off_h),
            self._parse_perm_list(raw_k, degree, off_k),
        )


def _split_commas(raw, offset):
    """Split on top-level commas, keeping byte offsets of the pieces."""
    pieces = []
    depth = 0
    start = 0
    for i, ch in enumerate(raw):
        if ch == "(":
            depth += 1
        elif ch == ")":
            depth -= 1
        elif ch == "," and depth == 0:
            pieces.append((raw[start:i], offset + start))
            start = i + 1
    pieces.append((raw[start:], offset + start))
    return [(p, o) for p, o in pieces if p.strip()]


def parse_group_expr(text):
    """Parse a group expression into its AST."""
    return _Parser(text).parse()


# --- realization ----------------------------------------------------------

def _cyc(degree, *cycles):
    img = list(range(degree))
    for c in cycles:
        for i, pt in enumerate(c):
            img[pt] = c[(i + 1) % len(c)]
    return tuple(img)


def _regular_perms(size, mult, gens):
    """Right-regular permutations of chosen generators of an abstract group."""
    return [tuple(mult(x, g) for x in range(size)) for g in gens]


def _contract(cond, what, label):
    if not cond:
        raise ConstructionContractViolated(f"{label}: {what}")


def _involutions(table):
    return int((table.elem_order == 2).sum())


class _GF:
    """Tiny GF(p^k) with integer-encoded elements (base-p digit vectors).

    The modulus is the first monic degree-k polynomial, in the order of its
    encoded lower coefficients, with no monic factor of degree 1..k//2. It
    fixes the element numbering of every realized PSL(2, p^k).
    """

    def __init__(self, p, k):
        self.p = p
        self.k = k
        self.q = p ** k
        monic = (self._digits(c) + [1] for c in range(self.q))
        self.modpoly = next(f for f in monic if not self._has_small_factor(f))

    def _has_small_factor(self, f):
        return any(poly_divmod(f, self._digits(c, deg) + [1], self.p)[1] == [0]
                   for deg in range(1, self.k // 2 + 1)
                   for c in range(self.p ** deg))

    def _digits(self, code, k=None):
        k = self.k if k is None else k
        return [code // self.p ** i % self.p for i in range(k)]

    def _encode(self, digits):
        return sum(d * self.p ** i for i, d in enumerate(digits))

    def add(self, a, b):
        da, db = self._digits(a), self._digits(b)
        return self._encode([(x + y) % self.p for x, y in zip(da, db)])

    def neg(self, a):
        return self._encode([(-x) % self.p for x in self._digits(a)])

    def mul(self, a, b):
        f = poly_mul(self._digits(a), self._digits(b), self.p)
        return self._encode(poly_divmod(f, self.modpoly, self.p)[1])

    def inv(self, a):
        for b in range(1, self.q):
            if self.mul(a, b) == 1:
                return b
        raise ZeroDivisionError("GF inverse of zero")


def _realize_psl2(q, cap):
    pp, k = prime_power(q)
    F = _GF(pp, k)
    inf = q                       # projective point at infinity
    def translation(c):
        return tuple(F.add(x, c) if x != inf else inf for x in range(q + 1))
    def inversion():
        img = []
        for x in range(q + 1):
            if x == 0:
                img.append(inf)
            elif x == inf:
                img.append(0)
            else:
                img.append(F.neg(F.inv(x)))
        return tuple(img)
    gens = [translation(pp ** i) for i in range(k)] + [inversion()]
    return group_from_generators(q + 1, gens, label=f"PSL(2,{q})", cap=cap)


def _realize_sl2(p, cap):
    points = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}
    e12 = tuple(index[(a, (a + b) % p)] for a, b in points)
    e21 = tuple(index[((a + b) % p, b)] for a, b in points)
    return group_from_generators(len(points), [e12, e21],
                                 label=f"SL(2,{p})", cap=cap)


def realize_group(expr, cap=None):
    """Realize a GroupExpr as a GroupTable and verify its family contract."""
    if cap is None:
        cap = order_cap()
    label = str(expr)

    if isinstance(expr, Cyclic):
        n = expr.n
        G = group_from_generators(n, [_cyc(n, tuple(range(n)))] if n > 1 else [],
                                  label=label, cap=cap)
        _contract(G.order == n and (n == 1 or (G.elem_order == n).any()),
                  "not cyclic of the right order", label)
        return G

    if isinstance(expr, ElemAbelian):
        # built as an iterated table product so the direct-factor metadata
        # needed by direct-product arguments is available downstream
        p, k = expr.p, expr.k
        G = realize_group(Cyclic(p), cap=cap)
        for _ in range(k - 1):
            G = direct_table_product(G, realize_group(Cyclic(p), cap=cap))
        G = dataclasses.replace(G, label=label)
        _contract(G.order == p ** k and G.is_abelian()
                  and G.exponent() == p, "not elementary abelian", label)
        return G

    if isinstance(expr, Dihedral):
        n = expr.n
        if n == 1:
            G = group_from_generators(2, [(1, 0)], label=label, cap=cap)
        elif n == 2:
            G = group_from_generators(4, [(1, 0, 2, 3), (0, 1, 3, 2)],
                                      label=label, cap=cap)
        else:
            rot = _cyc(n, tuple(range(n)))
            refl = tuple((n - i) % n for i in range(n))
            G = group_from_generators(n, [rot, refl], label=label, cap=cap)
        _contract(G.order == 2 * n and (n <= 2 or not G.is_abelian())
                  and (G.elem_order == n).any(), "not dihedral", label)
        return G

    if isinstance(expr, GenQuaternion):
        m = expr.m
        h = m // 2
        def mult(x, y):
            i, j = x % h, x // h
            kk, l = y % h, y // h
            if j == 0:
                return (i + kk) % h + h * l
            if l == 0:
                return (i - kk) % h + h
            return (i - kk + h // 2) % h
        gens = _regular_perms(m, mult, [1, h])
        G = group_from_generators(m, gens, label=label, cap=cap)
        _contract(G.order == m and _involutions(G) == 1
                  and not G.is_abelian() and (G.elem_order == h).any(),
                  "not generalized quaternion", label)
        return G

    if isinstance(expr, SemiDihedral):
        m = expr.m
        h = m // 2
        r = h // 2 - 1
        a = tuple((x + 1) % h for x in range(h))
        b = tuple(r * x % h for x in range(h))
        G = group_from_generators(h, [a, b], label=label, cap=cap)
        _contract(G.order == m and not G.is_abelian()
                  and (G.elem_order == h).any()
                  and _involutions(G) == m // 4 + 1, "not semidihedral", label)
        return G

    if isinstance(expr, ModularMaxCyclic):
        G = _realize_modular(expr.p, expr.n, label, cap)
        return G

    if isinstance(expr, Extraspecial):
        p = expr.p
        if p == 2:
            base = Dihedral(4) if expr.sign == "+" else GenQuaternion(8)
            G = realize_group(base, cap=cap)
            G = dataclasses.replace(G, label=label)
        elif expr.sign == "+":
            def mult(x, y):
                a, b, c = x % p, x // p % p, x // (p * p)
                a2, b2, c2 = y % p, y // p % p, y // (p * p)
                return ((a + a2) % p + p * ((b + b2) % p)
                        + p * p * ((c + c2 + a * b2) % p))
            gens = _regular_perms(p ** 3, mult, [1, p])
            G = group_from_generators(p ** 3, gens, label=label, cap=cap)
        else:
            G = _realize_modular(p, 3, label, cap)
        exp_expected = (4 if expr.sign == "+" else 4) if p == 2 else \
            (p if expr.sign == "+" else p * p)
        _contract(G.order == p ** 3 and not G.is_abelian()
                  and center(G).order == p
                  and G.exponent() == exp_expected,
                  "not the claimed extraspecial group", label)
        return G

    if isinstance(expr, Sym):
        n = expr.n
        if n == 1:
            G = group_from_generators(1, [], label=label, cap=cap)
        elif n == 2:
            G = group_from_generators(2, [(1, 0)], label=label, cap=cap)
        else:
            G = group_from_generators(
                n, [_cyc(n, (0, 1)), _cyc(n, tuple(range(n)))],
                label=label, cap=cap)
        _contract(G.order == factorial(n), "wrong order for Sym", label)
        return G

    if isinstance(expr, Alt):
        n = expr.n
        gens = [_cyc(n, (0, 1, i)) for i in range(2, n)]
        G = group_from_generators(n, gens, label=label, cap=cap)
        _contract(G.order == factorial(n) // 2, "wrong order for Alt", label)
        return G

    if isinstance(expr, PSL2):
        G = _realize_psl2(expr.q, cap)
        expected = expr.q * (expr.q ** 2 - 1) // gcd(2, expr.q - 1)
        _contract(G.order == expected, "wrong order for PSL(2,q)", label)
        return G

    if isinstance(expr, SL2):
        G = _realize_sl2(expr.p, cap)
        expected = expr.p * (expr.p ** 2 - 1)
        _contract(G.order == expected
                  and (expr.p == 2 or _involutions(G) == 1),
                  "wrong structure for SL(2,p)", label)
        return G

    if isinstance(expr, Perm):
        return group_from_generators(expr.degree, expr.gens, label=label,
                                     cap=cap)

    if isinstance(expr, SemidirectByPerms):
        all_gens = []
        for g in expr.gens + expr.normal_gens + expr.complement_gens:
            if g not in all_gens:
                all_gens.append(g)
        table, index = closure_of_permutations(expr.degree, all_gens,
                                               label=label, cap=cap)
        h_members = closure_members(table, [index[g] for g in expr.normal_gens])
        k_members = closure_members(table,
                                    [index[g] for g in expr.complement_gens])
        H = make_subgroup(table, h_members, check=False)
        K = make_subgroup(table, k_members, check=False)
        validate_semidirect(table, H, K)   # raises NotASemidirectDecomposition
        return dataclasses.replace(table,
                                   semidirect_parts=(H.members, K.members))

    if isinstance(expr, Product):
        tables = [realize_group(f, cap=cap) for f in expr.factors]
        out = tables[0]
        for t in tables[1:]:
            out = direct_table_product(out, t)
            if out.order > cap:
                raise ParameterOutOfRange(f"product order exceeds cap {cap}", 0)
        out = dataclasses.replace(out, label=label)
        _contract(out.order == prod(t.order for t in tables),
                  "wrong product order", label)
        return out

    raise TypeError(f"not a GroupExpr: {expr!r}")


def _realize_modular(p, n, label, cap):
    h = p ** (n - 1)
    u = 1 + p ** (n - 2)
    a = tuple((x + 1) % h for x in range(h))
    b = tuple(u * x % h for x in range(h))
    G = group_from_generators(h, [a, b], label=label, cap=cap)
    _contract(G.order == p ** n and not G.is_abelian()
              and G.exponent() == h, "not modular maximal-cyclic", label)
    return G


def realize(text, cap=None):
    """Parse-and-realize convenience."""
    return realize_group(parse_group_expr(text), cap=cap)


# Built-in verification roster: all groups of order p^2..p^4 for p in {2, 3}
# realizable by the constructors above, plus the named small groups covering
# every hypothesis class exercised by the verifier.
SEMIDIRECT_C4_C4 = "sd[8: (1 2 3 4), (2 4)(5 6 7 8); (1 2 3 4); (2 4)(5 6 7 8)]"

CATALOG = (
    # 2-groups, order 4..16
    "C(4)", "E(2,2)",
    "C(8)", "C(4) x C(2)", "E(2,3)", "D(4)", "Q(8)",
    "C(16)", "C(8) x C(2)", "C(4) x C(4)", "C(4) x C(2) x C(2)", "E(2,4)",
    "D(8)", "Q(16)", "SD(16)", "M(2,4)", "D(4) x C(2)", "Q(8) x C(2)",
    SEMIDIRECT_C4_C4,
    # 3-groups, order 9..81
    "C(9)", "E(3,2)",
    "C(27)", "C(9) x C(3)", "E(3,3)", "X(3,+)", "X(3,-)",
    "C(81)", "C(27) x C(3)", "C(9) x C(9)", "C(9) x C(3) x C(3)", "E(3,4)",
    "M(3,4)", "X(3,+) x C(3)", "X(3,-) x C(3)",
    # named non-p-groups
    "S(3)", "S(4)", "A(4)", "A(5)", "SL(2,3)", "PSL(2,5)", "PSL(2,7)",
)


def catalog_roster(max_order=None):
    """Catalog expression strings, optionally capped by realized order."""
    if max_order is None:
        return list(CATALOG)
    out = []
    for text in CATALOG:
        G = realize(text)
        if G.order <= max_order:
            out.append(text)
    return out
