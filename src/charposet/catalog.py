"""Group-expression language and realizations of the named group families.

Every family but E(p,k) and direct products is a permutation group (the
regular action for the normal-form families) closed by `group_from_generators`
or `closure_of_permutations`; those two are `direct_table_product`s of
realized factors, and a product's order is checked against the cap first.
PSL(2,q) acts on the projective line, its generators read from the addition
and multiplication tables of GF(q) (`_gf_tables`). Each realized table is
checked against its family's contract.
"""
from __future__ import annotations

import dataclasses
import re
from dataclasses import dataclass
from math import factorial, gcd, prod

import numpy as np

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
    validate_semidirect,
)


# --- cycle notation -------------------------------------------------------

def _cyc(degree, *cycles):
    """The image tuple on `degree` points of disjoint 0-based cycles."""
    img = list(range(degree))
    for c in cycles:
        for i, pt in enumerate(c):
            img[pt] = c[(i + 1) % len(c)]
    return tuple(img)


def cycles_string(img):
    """Canonical disjoint-cycle form of a 0-based image tuple (1-based print)."""
    cycles, seen = [], set()
    for start in range(len(img)):
        if start not in seen:
            cyc = [start]
            while img[cyc[-1]] != start:
                cyc.append(img[cyc[-1]])
            seen.update(cyc)
            cycles.append(cyc)
    return _cycles_text(c for c in cycles if len(c) > 1)


def _cycles_text(cycles):
    """0-based cycles in 1-based cycle notation; "()" when there are none."""
    return "".join("(" + " ".join(str(pt + 1) for pt in c) + ")"
                   for c in cycles) or "()"


# --- abstract syntax ------------------------------------------------------

@dataclass(frozen=True)
class Named:
    """A named family applied to its arguments: Named("PSL", (2, 7))."""
    name: str
    args: tuple

    def __str__(self):
        return f"{self.name}({','.join(map(str, self.args))})"


@dataclass(frozen=True)
class Perm:
    degree: int
    gens: tuple     # each a permutation's canonical 0-based cycles

    def __str__(self):
        body = ", ".join(map(_cycles_text, self.gens))
        return f"perm[{self.degree}: {body}]"


@dataclass(frozen=True)
class SemidirectByPerms:
    degree: int
    gens: tuple
    normal_gens: tuple
    complement_gens: tuple

    def __str__(self):
        lists = (self.gens, self.normal_gens, self.complement_gens)
        body = "; ".join(", ".join(map(_cycles_text, g)) for g in lists)
        return f"sd[{self.degree}: {body}]"


@dataclass(frozen=True)
class Product:
    factors: tuple

    def __str__(self):
        return " x ".join(str(f) for f in self.factors)


def format_expr(expr):
    """Canonical printer; parse(format(parse(s))) == parse(s)."""
    return str(expr)


# --- parser ---------------------------------------------------------------

_TOKEN_RE = re.compile(r"\s*(?:(?P<num>\d+)|(?P<name>[A-Za-z]+)|(?P<sym>[(),\[\]:;+\-]))")

# argument kinds of each named family: n a number, s a sign
_SIGNATURES = {"C": "n", "E": "nn", "D": "n", "Q": "n", "SD": "n", "M": "nn",
               "X": "ns", "S": "n", "A": "n", "PSL": "nn", "SL": "nn"}
_CTORS = set(_SIGNATURES)


def _tokenize(text):
    """(kind, value, offset) of each token of text, then an end token."""
    out = []
    pos = 0
    while pos < len(text):
        m = _TOKEN_RE.match(text, pos)
        if m is None or m.end() == pos:
            if text[pos:].strip() == "":
                break
            raise GroupSyntaxError(f"unexpected character {text[pos]!r}",
                                   pos)
        kind = m.lastgroup
        value, at = m.group(kind), m.start(kind)
        if kind == "num":
            try:
                value = int(value)
            except ValueError:      # over the interpreter's digit limit
                raise ParameterOutOfRange(
                    f"number literal of {len(value)} digits is out of range",
                    at) from None
        out.append((kind, value, at))
        pos = m.end()
    out.append(("end", None, len(text)))
    return out


class _Parser:
    def __init__(self, text):
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

    def parse(self, rule):
        """rule(), which must consume every token."""
        out = rule()
        tok = self.peek()
        if tok[0] != "end":
            raise GroupSyntaxError(f"trailing input {tok[1]!r}", tok[2], {"end"})
        return out

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
        if name in ("perm", "sd"):
            return self.parse_perm()
        if name not in _CTORS:
            raise UnknownConstructor(f"unknown constructor {name!r}", off,
                                     _CTORS | {"perm", "sd"})
        self.take()
        self.take("sym", "(")
        node = self.parse_ctor(name)
        self.take("sym", ")")
        return node

    def _num(self):
        tok = self.take("num", expected="number")
        return tok[1], tok[2]

    def parse_ctor(self, name):
        args, offsets = [], []
        for i, kind in enumerate(_SIGNATURES[name]):
            if i:
                self.take("sym", ",")
            if kind == "n":
                arg, off = self._num()
            else:
                _, arg, off = self.take("sym", expected="'+' or '-'")
                if arg not in "+-":
                    raise GroupSyntaxError("expected '+' or '-'", off,
                                           {"+", "-"})
            args.append(arg)
            offsets.append(off)
        bad = _out_of_range(name, args)
        if bad is not None:
            raise ParameterOutOfRange(bad[1], offsets[bad[0]])
        return Named(name, tuple(args))

    def parse_cycles(self, degree):
        """One permutation "(1 2 3)(4 5)" as its sorted disjoint cycles of
        two or more 0-based points, each starting at its least point."""
        cycles, seen = [], set()
        while True:
            self.take("sym", "(")
            cycle = []
            while self.peek()[0] == "num":
                _, pt, off = self.take()
                if not 1 <= pt <= degree:
                    raise ParameterOutOfRange(
                        f"point {pt} outside 1..{degree}", off)
                if pt in seen:
                    raise GroupSyntaxError(
                        f"point {pt} repeated; cycles must be disjoint", off)
                seen.add(pt)
                cycle.append(pt - 1)
            self.take("sym", ")")
            if len(cycle) > 1:
                k = cycle.index(min(cycle))
                cycles.append(tuple(cycle[k:] + cycle[:k]))
            if self.peek()[:2] != ("sym", "("):
                return tuple(sorted(cycles))

    def _perm_list(self, degree):
        """Comma-separated permutations; empty pieces between commas are
        skipped, but the list holds at least one permutation."""
        perms, off = [], self.peek()[2]
        while True:
            if self.peek()[:2] == ("sym", "("):
                perms.append(self.parse_cycles(degree))
            if self.peek()[:2] != ("sym", ","):
                break
            self.take()
        if not perms:
            raise GroupSyntaxError("expected permutations", off, {"("})
        return tuple(perms)

    def parse_perm(self):
        """perm[n: list] or sd[n: list; list; list].

        Generators are kept as canonical cycles (`parse_cycles`): a huge n
        or moved point costs nothing, and how cycles are written is lost.
        """
        _, name, _ = self.take("name")
        self.take("sym", "[")
        degree, doff = self._num()
        if degree < 1:
            raise ParameterOutOfRange("degree must be positive", doff)
        self.take("sym", ":")
        lists = [self._perm_list(degree)]
        while name == "sd" and len(lists) < 3:
            self.take("sym", ";")
            lists.append(self._perm_list(degree))
        self.take("sym", "]")
        node = Perm if name == "perm" else SemidirectByPerms
        return node(degree, *lists)


def _out_of_range(name, args):
    """Index and message of the first argument outside its family's domain.

    An argument is bounded before any power, factorial or primality test of
    it, so a huge argument costs nothing. Exponents and degrees are bounded
    by the cap's bit length b: 2^k > cap for k >= b, n! >= 2^(n-1) and
    n!/2 >= 2^(n-2) (n >= 3), so these bounds reject only what the order
    check would.
    """
    cap = order_cap()
    bits = cap.bit_length()
    a, b = args[0], args[-1]
    if name == "C":
        if not 1 <= a <= cap:
            return 0, f"C({a}) out of range"
    elif name == "D":
        if not 1 <= 2 * a <= cap:
            return 0, f"D({a}) out of range"
    elif name == "S":
        if not (1 <= a <= bits and factorial(a) <= cap):
            return 0, f"S({a}) out of range"
    elif name == "A":
        if not (3 <= a <= bits + 1 and factorial(a) // 2 <= cap):
            return 0, f"A({a}) out of range"
    elif name in ("Q", "SD"):
        least = 8 if name == "Q" else 16
        if a < least or a & (a - 1) or a > cap:
            return 0, f"{name} needs a power of 2 that is >= {least}, got {a}"
    elif name in ("E", "M"):
        if a > cap:
            return 0, f"{name}({a},{b}) out of range"
        if not is_prime(a):
            return 0, f"{name} needs a prime, got {a}"
        least = 1 if name == "E" else 4 if a == 2 else 3
        if not least <= b <= bits or a ** b > cap:
            return 1, f"{name}({a},{b}) out of range"
    elif name == "X":
        if a ** 3 > cap or not is_prime(a):
            return 0, f"X({a},..) out of range"
    elif name in ("PSL", "SL"):
        if a != 2:
            return 0, f"only {name}(2,q) is supported, got {name}({a},{b})"
        if name == "PSL" and (b < 2 or b * (b * b - 1) // gcd(2, b - 1) > cap
                              or prime_power(b) is None):
            return 1, f"PSL(2,{b}) out of range"
        if name == "SL" and (b * (b * b - 1) > cap or not is_prime(b)):
            return 1, f"SL(2,{b}) out of range"
    return None


def parse_group_expr(text):
    """Parse a group expression into its AST."""
    parser = _Parser(text)
    return parser.parse(parser.parse_expr)


# --- realization ----------------------------------------------------------

def _regular_perms(size, mult, gens):
    """Right-regular permutations of chosen generators of an abstract group."""
    return [tuple(mult(x, g) for x in range(size)) for g in gens]


def _contract(cond, what, label):
    if not cond:
        raise ConstructionContractViolated(f"{label}: {what}")


def _involutions(table):
    return int((table.elem_order == 2).sum())


def _gf_tables(p, k):
    """(add, mul): the addition and multiplication tables of GF(p^k), as
    (q, q) arrays indexed by element code. An element is a polynomial of
    degree < k in t, coded by its coefficients as base-p digits.

    The modulus is the first t^k + c(t), c in code order, whose quotient
    ring has no zero divisors; that ring is then the field, and the
    modulus, irreducible and so always found, fixes the element numbering
    of every realized PSL(2, p^k).
    """
    q = p ** k
    place = p ** np.arange(k)
    digits = np.arange(q)[:, None] // place % p        # (code, coefficient)
    add = (digits[:, None] + digits[None, :]) % p @ place
    for c in digits:
        # times t: t^i -> t^(i+1) for i < k - 1, and t^k = -c(t)
        times_t = np.vstack((np.eye(k - 1, k, 1, dtype=int), -c))
        powers = [digits]          # the digits of x*t^i, for every x
        for _ in range(k - 1):
            powers.append(powers[-1] @ times_t % p)
        mul = np.einsum("yi,ixd->xyd", digits, np.stack(powers)) % p @ place
        if (mul[1:, 1:] != 0).all():
            return add, mul


def _realize_psl2(q):
    """PSL(2,q) on the projective line GF(q) u {inf}, generated by the
    translations by t^i and x -> -1/x."""
    pp, k = prime_power(q)
    add, mul = _gf_tables(pp, k)
    inf = q                       # projective point at infinity
    gens = [tuple(add[:, pp ** i].tolist()) + (inf,) for i in range(k)]
    # -1/x is the y with x*y = -1, and -1 has code p - 1
    neg_inv = np.nonzero(mul == pp - 1)[1]
    gens.append((inf, *neg_inv.tolist(), 0))
    return group_from_generators(q + 1, gens, label=f"PSL(2,{q})")


def _realize_sl2(p):
    points = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}
    e12 = tuple(index[(a, (a + b) % p)] for a, b in points)
    e21 = tuple(index[((a + b) % p, b)] for a, b in points)
    return group_from_generators(len(points), [e12, e21], label=f"SL(2,{p})")


def _moved_images(lists):
    """(k, images): each permutation (as cycles) of each list as an image
    tuple on the k >= 1 points that any of them moves, relabelled 0..k-1 in
    order. One bijection conjugates them all, so the closure numbers the
    group as it would on every point."""
    points = sorted({pt for perms in lists for perm in perms
                     for cycle in perm for pt in cycle})
    new = {pt: i for i, pt in enumerate(points)}
    k = max(len(points), 1)
    return k, [[_cyc(k, *(tuple(new[pt] for pt in c) for c in perm))
                 for perm in perms] for perms in lists]


def realize_group(expr):
    """Realize a group expression as a GroupTable and check its contract."""
    label = str(expr)
    if isinstance(expr, Perm):
        k, (gens,) = _moved_images([expr.gens])
        return group_from_generators(k, gens, label=label)

    if isinstance(expr, SemidirectByPerms):
        k, (gens, normal, complement) = _moved_images(
            [expr.gens, expr.normal_gens, expr.complement_gens])
        table, index = closure_of_permutations(
            k, list(dict.fromkeys(gens + normal + complement)), label=label)
        H, K = (make_subgroup(table, closure_members(
            table, [index[g] for g in gs])) for gs in (normal, complement))
        validate_semidirect(table, H, K)   # raises NotASemidirectDecomposition
        return dataclasses.replace(table,
                                   semidirect_parts=(H.members, K.members))

    if isinstance(expr, Product):
        tables = [realize_group(f) for f in expr.factors]
        cap = order_cap()
        if prod(t.order for t in tables) > cap:     # before any table is made
            raise ParameterOutOfRange(f"product order exceeds cap {cap}", 0)
        out = tables[0]
        for t in tables[1:]:
            out = direct_table_product(out, t)
        out = dataclasses.replace(out, label=label)
        _contract(out.order == prod(t.order for t in tables),
                  "wrong product order", label)
        return out

    if not isinstance(expr, Named):
        raise TypeError(f"not a group expression: {expr!r}")
    name, args = expr.name, expr.args

    if name == "C":
        n, = args
        G = group_from_generators(n, [_cyc(n, tuple(range(n)))] if n > 1 else [],
                                  label=label)
        _contract(G.order == n and (n == 1 or (G.elem_order == n).any()),
                  "not cyclic of the right order", label)
        return G

    if name == "E":
        # built as an iterated table product so the direct-factor metadata
        # needed by direct-product arguments is available downstream
        p, k = args
        G = C = realize_group(Named("C", (p,)))
        for _ in range(k - 1):
            G = direct_table_product(G, C)
        G = dataclasses.replace(G, label=label)
        _contract(G.order == p ** k and G.is_abelian()
                  and G.exponent() == p, "not elementary abelian", label)
        return G

    if name == "D":
        n, = args
        if n == 1:
            G = group_from_generators(2, [(1, 0)], label=label)
        elif n == 2:
            G = group_from_generators(4, [(1, 0, 2, 3), (0, 1, 3, 2)],
                                      label=label)
        else:
            rot = _cyc(n, tuple(range(n)))
            refl = tuple((n - i) % n for i in range(n))
            G = group_from_generators(n, [rot, refl], label=label)
        _contract(G.order == 2 * n and (n <= 2 or not G.is_abelian())
                  and (G.elem_order == n).any(), "not dihedral", label)
        return G

    if name == "Q":
        m, = args
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
        G = group_from_generators(m, gens, label=label)
        _contract(G.order == m and _involutions(G) == 1
                  and not G.is_abelian() and (G.elem_order == h).any(),
                  "not generalized quaternion", label)
        return G

    if name == "SD":
        m, = args
        h = m // 2
        r = h // 2 - 1
        a = tuple((x + 1) % h for x in range(h))
        b = tuple(r * x % h for x in range(h))
        G = group_from_generators(h, [a, b], label=label)
        _contract(G.order == m and not G.is_abelian()
                  and (G.elem_order == h).any()
                  and _involutions(G) == m // 4 + 1, "not semidihedral", label)
        return G

    if name == "M":
        return _realize_modular(*args, label)

    if name == "X":
        p, sign = args
        if p == 2:
            base = Named("D", (4,)) if sign == "+" else Named("Q", (8,))
            G = realize_group(base)
            G = dataclasses.replace(G, label=label)
        elif sign == "+":
            def mult(x, y):
                a, b, c = x % p, x // p % p, x // (p * p)
                a2, b2, c2 = y % p, y // p % p, y // (p * p)
                return ((a + a2) % p + p * ((b + b2) % p)
                        + p * p * ((c + c2 + a * b2) % p))
            gens = _regular_perms(p ** 3, mult, [1, p])
            G = group_from_generators(p ** 3, gens, label=label)
        else:
            G = _realize_modular(p, 3, label)
        exp_expected = 4 if p == 2 else p if sign == "+" else p * p
        _contract(G.order == p ** 3 and not G.is_abelian()
                  and center(G).order == p
                  and G.exponent() == exp_expected,
                  "not the claimed extraspecial group", label)
        return G

    if name == "S":
        n, = args
        if n == 1:
            G = group_from_generators(1, [], label=label)
        else:
            G = group_from_generators(
                n, [_cyc(n, (0, 1)), _cyc(n, tuple(range(n)))], label=label)
        _contract(G.order == factorial(n), "wrong order for Sym", label)
        return G

    if name == "A":
        n, = args
        gens = [_cyc(n, (0, 1, i)) for i in range(2, n)]
        G = group_from_generators(n, gens, label=label)
        _contract(G.order == factorial(n) // 2, "wrong order for Alt", label)
        return G

    if name == "PSL":
        q = args[1]
        G = _realize_psl2(q)
        expected = q * (q ** 2 - 1) // gcd(2, q - 1)
        _contract(G.order == expected, "wrong order for PSL(2,q)", label)
        return G

    if name == "SL":
        p = args[1]
        G = _realize_sl2(p)
        _contract(G.order == p * (p ** 2 - 1)
                  and (p == 2 or _involutions(G) == 1),
                  "wrong structure for SL(2,p)", label)
        return G

    raise TypeError(f"unknown group family: {expr!r}")


def _realize_modular(p, n, label):
    h = p ** (n - 1)
    u = 1 + p ** (n - 2)
    a = tuple((x + 1) % h for x in range(h))
    b = tuple(u * x % h for x in range(h))
    G = group_from_generators(h, [a, b], label=label)
    _contract(G.order == p ** n and not G.is_abelian()
              and G.exponent() == h, "not modular maximal-cyclic", label)
    return G


def realize(text):
    """Parse-and-realize convenience."""
    return realize_group(parse_group_expr(text))


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


def catalog_roster():
    """The catalog's expression strings."""
    return list(CATALOG)
