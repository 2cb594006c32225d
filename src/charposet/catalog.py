"""Group-expression language and realizations of the named group families.

Tables keyed by a family's name hold what the code knows of it:
`_FAMILIES` its argument kinds and |G|, read by the parser and its range
check; `_GENERATORS` a permutation representation, where D, SD, M and
X(p,-) are all the maps x -> x + 1, x -> u*x on Z/h of `_affine`; and
`_STRUCTURE` what its table is beyond its order. Every named realization is
checked against both. E(p,k) and direct products are `direct_table_product`s
of realized factors, and a product's order is checked against the cap
first. PSL(2,q) acts on the projective line, its generators read from the
addition and multiplication tables of GF(q) (`_gf_tables`).
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

# name -> (argument kinds, |G| from the arguments) of each named family.
# Kinds: n a number, k an exponent or a degree (of S, A or the matrices),
# which `_out_of_range` bounds by the cap's bit length, and s a sign.
_FAMILIES = {
    "C": ("n", lambda n: n),
    "E": ("nk", lambda p, k: p ** k),
    "D": ("n", lambda n: 2 * n),
    "Q": ("n", lambda m: m),
    "SD": ("n", lambda m: m),
    "M": ("nk", lambda p, n: p ** n),
    "X": ("ns", lambda p, sign: p ** 3),
    "S": ("k", factorial),
    "A": ("k", lambda n: factorial(n) // 2),
    "PSL": ("kn", lambda _, q: q * (q * q - 1) // gcd(2, q - 1)),
    "SL": ("kn", lambda _, p: p * (p * p - 1)),
}
_CTORS = set(_FAMILIES)


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
        for i, kind in enumerate(_FAMILIES[name][0]):
            if i:
                self.take("sym", ",")
            if kind == "s":
                _, arg, off = self.take("sym", expected="'+' or '-'")
                if arg not in "+-":
                    raise GroupSyntaxError("expected '+' or '-'", off,
                                           {"+", "-"})
            else:
                arg, off = self._num()
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

    Each number is bounded before any power, factorial or primality test,
    so a huge argument costs nothing: a number by the cap, an exponent or
    degree by b + 1, b the cap's bit length. Past b + 1, p^k, n! >= 2^(n-1)
    and n!/2 >= 2^(n-2) all exceed 2^b > cap, and only 2x2 matrices are
    supported, so this rejects only what a later check would. Each number's
    own domain checks follow its bound, and after the last number comes |G|
    against the cap, reported at that number.
    """
    kinds, order = _FAMILIES[name]
    cap = order_cap()
    numbers = [i for i, kind in enumerate(kinds) if kind != "s"]
    for i in numbers:
        if args[i] > (cap.bit_length() + 1 if kinds[i] == "k" else cap):
            return i, f"{Named(name, args)} out of range"
        why = _domain_error(name, i, args)
        if why is not None:
            return i, why
    if order(*args) > cap:
        return numbers[-1], f"{Named(name, args)} has order over cap {cap}"
    return None


def _domain_error(name, i, args):
    """Why argument i of a family, bounded in size and after valid
    arguments, is outside the family's domain, or None: a lower bound, a
    power of 2, a prime or a prime power."""
    x = args[i]
    if i == 0:
        least = {"C": 1, "D": 1, "S": 1, "A": 3, "Q": 8, "SD": 16}.get(name, 0)
        if name in ("Q", "SD") and (x < least or x & (x - 1)):
            return f"{name} needs a power of 2 that is >= {least}, got {x}"
        if x < least:
            return f"{name}({x}) out of range"
        if name in ("E", "M", "X") and not is_prime(x):
            return f"{name} needs a prime, got {x}"
        if name in ("PSL", "SL") and x != 2:
            return f"only {name}(2,q) is supported, got {Named(name, args)}"
    elif (name == "E" and x < 1
          or name == "M" and x < (4 if args[0] == 2 else 3)):
        return f"{Named(name, args)} out of range"
    elif name == "PSL" and prime_power(x) is None:
        return f"PSL(2,{x}) needs a prime power"
    elif name == "SL" and not is_prime(x):
        return f"SL(2,{x}) needs a prime"
    return None


def parse_group_expr(text):
    """Parse a group expression into its AST."""
    parser = _Parser(text)
    return parser.parse(parser.parse_expr)


# --- realization ----------------------------------------------------------

def _contract(cond, what, label):
    if not cond:
        raise ConstructionContractViolated(f"{label}: {what}")


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


def _psl2_generators(q):
    """Generators of PSL(2,q) on the projective line GF(q) u {inf}: the
    translations by t^i and x -> -1/x."""
    pp, k = prime_power(q)
    add, mul = _gf_tables(pp, k)
    inf = q                       # projective point at infinity
    gens = [tuple(add[:, pp ** i].tolist()) + (inf,) for i in range(k)]
    # -1/x is the y with x*y = -1, and -1 has code p - 1
    neg_inv = np.nonzero(mul == pp - 1)[1]
    gens.append((inf, *neg_inv.tolist(), 0))
    return q + 1, gens


def _sl2_generators(p):
    """Generators of SL(2,p) on the nonzero vectors of GF(p)^2: the two
    elementary transvections."""
    points = [(a, b) for a in range(p) for b in range(p) if (a, b) != (0, 0)]
    index = {v: i for i, v in enumerate(points)}
    e12 = tuple(index[(a, (a + b) % p)] for a, b in points)
    e21 = tuple(index[((a + b) % p, b)] for a, b in points)
    return len(points), [e12, e21]


def _affine(h, u):
    """x -> x + 1 and x -> u*x on Z/h: D(n) at u = -1, SD(m) at h = m/2 and
    u = m/4 - 1, and M(p,n) at h = p^(n-1) and u = 1 + p^(n-2)."""
    return h, [tuple((x + 1) % h for x in range(h)),
               tuple(u * x % h for x in range(h))]


def _quaternion(m):
    """Q(m), h = m/2, acting by right multiplication on a^i b^j = i + h*j,
    where a^h = 1, b^2 = a^(h/2) and a^b = a^-1: the actions of a and b."""
    h = m // 2
    a = [(x + 1) % h for x in range(h)] + [(x - 1) % h + h for x in range(h)]
    b = list(range(h, m)) + [(x + h // 2) % h for x in range(h)]
    return m, [tuple(a), tuple(b)]


def _extraspecial(p, sign):
    """X(p,+) and X(p,-): D(4) and Q(8) at p = 2. For odd p, X(p,-) is
    M(p,3), and X(p,+) acts by right multiplication on (a, b, c) =
    a + p*b + p^2*c, where (a, b, c)(a', b', c') = (a + a', b + b',
    c + c' + a*b'): the actions of (1, 0, 0) and (0, 1, 0)."""
    if p == 2:
        return _affine(4, -1) if sign == "+" else _quaternion(8)
    if sign == "-":
        return _affine(p * p, 1 + p)
    abc = [(x % p, x // p % p, x // (p * p)) for x in range(p ** 3)]
    return p ** 3, [tuple((a + 1) % p + p * b + p * p * c for a, b, c in abc),
                    tuple(a + p * ((b + 1) % p) + p * p * ((c + a) % p)
                          for a, b, c in abc)]


# name -> (points, generators) from the arguments, for every named family
# but E
_GENERATORS = {
    "C": lambda n: (n, [_cyc(n, tuple(range(n)))] if n > 1 else []),
    # D(1) and D(2) are <(1 2)> and <(1 2), (3 4)>
    "D": lambda n: (_affine(n, -1) if n > 2 else
                    (2 * n, [_cyc(2 * n, (0, 1)), _cyc(4, (2, 3))][:n])),
    "Q": _quaternion,
    "SD": lambda m: _affine(m // 2, m // 4 - 1),
    "M": lambda p, n: _affine(p ** (n - 1), 1 + p ** (n - 2)),
    "X": _extraspecial,
    "S": lambda n: (n, [_cyc(n, (0, 1)), _cyc(n, tuple(range(n)))]
                    if n > 1 else []),
    "A": lambda n: (n, [_cyc(n, (0, 1, i)) for i in range(2, n)]),
    "PSL": lambda _, q: _psl2_generators(q),
    "SL": lambda _, p: _sl2_generators(p),
}

# name -> what a family's table is beyond its order, where that is checked
_STRUCTURE = {
    "C": lambda G, n: (G.elem_order == n).any(),
    "E": lambda G, p, k: G.is_abelian() and G.exponent() == p,
    "D": lambda G, n: ((n <= 2 or not G.is_abelian())
                       and (G.elem_order == n).any()),
    "Q": lambda G, m: (not G.is_abelian() and (G.elem_order == m // 2).any()
                       and (G.elem_order == 2).sum() == 1),
    "SD": lambda G, m: (not G.is_abelian() and (G.elem_order == m // 2).any()
                        and (G.elem_order == 2).sum() == m // 4 + 1),
    "M": lambda G, p, n: not G.is_abelian() and G.exponent() == p ** (n - 1),
    "X": lambda G, p, sign: (
        not G.is_abelian() and center(G).order == p
        and G.exponent() == (4 if p == 2 else p if sign == "+" else p * p)),
    "SL": lambda G, _, p: p == 2 or (G.elem_order == 2).sum() == 1,
}


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

    if not isinstance(expr, Named) or expr.name not in _FAMILIES:
        raise TypeError(f"not a group expression: {expr!r}")
    name, args = expr.name, expr.args
    if name == "E":
        # an iterated table product, so that L2.3 can read its factors
        p, k = args
        G = C = realize_group(Named("C", (p,)))
        for _ in range(k - 1):
            G = direct_table_product(G, C)
        G = dataclasses.replace(G, label=label)
    else:
        G = group_from_generators(*_GENERATORS[name](*args), label=label)
    _contract(G.order == _FAMILIES[name][1](*args), "wrong order", label)
    shape = _STRUCTURE.get(name)
    _contract(shape is None or shape(G, *args), "wrong structure", label)
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
