"""Group-expression parsing, printing, and family realizations."""
import hashlib

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from charposet import catalog
from charposet.catalog import (
    SEMIDIRECT_C4_C4,
    Named,
    Product,
    _cyc,
    _gf_tables,
    catalog_roster,
    cycles_string,
    format_expr,
    parse_group_expr,
    realize,
    realize_group,
)
from charposet.errors import (
    ConstructionContractViolated,
    GroupExprError,
    GroupSyntaxError,
    ParameterOutOfRange,
    UnknownConstructor,
)
from charposet.group import center, group_from_generators, prime_power
from charposet.modlinalg import poly_divmod, poly_mul
from util import cached_group, catalog_up_to


# --- cycle notation ---------------------------------------------------------

def parse_cycles(text, degree):
    """One permutation in cycle notation as its 0-based image tuple on
    `degree` points, read by the expression parser as perm[degree: text]."""
    return _cyc(degree, *parse_group_expr(f"perm[{degree}: {text}]").gens[0])


def test_parse_cycles_basic():
    assert parse_cycles("(1 2 3)", 4) == (1, 2, 0, 3)
    assert parse_cycles("(1 2)(3 4)", 4) == (1, 0, 3, 2)
    assert parse_cycles("()", 3) == (0, 1, 2)


def test_parse_cycles_errors():
    with pytest.raises(ParameterOutOfRange):
        parse_cycles("(1 5)", 4)
    with pytest.raises(GroupSyntaxError):
        parse_cycles("(1 2)(2 3)", 4)          # not disjoint
    with pytest.raises(GroupSyntaxError):
        parse_cycles("(1 2", 4)                # unclosed
    with pytest.raises(GroupSyntaxError):
        parse_cycles("", 4)


def test_parse_cycles_offsets_count_from_offset():
    # a point's offset counts from the start of the whole expression
    with pytest.raises(ParameterOutOfRange) as exc:
        parse_cycles("(1 5)", 4)
    assert exc.value.offset == len("perm[4: (1 ")


@given(st.permutations(range(6)))
def test_cycles_roundtrip(img):
    img = tuple(img)
    assert parse_cycles(cycles_string(img), 6) == img


# --- expression parsing -----------------------------------------------------

@pytest.mark.parametrize("text", [
    "C(12)", "E(2,3)", "D(5)", "Q(16)", "SD(32)", "M(3,3)", "X(5,-)",
    "S(4)", "A(5)", "PSL(2,7)", "SL(2,5)", "C(2) x C(3) x C(4)",
    "perm[4: (1 2 3 4), (1 2)]", SEMIDIRECT_C4_C4,
])
def test_parse_print_roundtrip(text):
    expr = parse_group_expr(text)
    printed = format_expr(expr)
    assert parse_group_expr(printed) == expr
    assert format_expr(parse_group_expr(printed)) == printed


def test_parse_whitespace_insensitive():
    a = parse_group_expr("C(4) x C(2)")
    b = parse_group_expr("  C( 4 )  x  C( 2 ) ")
    assert a == b == Product((Named("C", (4,)), Named("C", (2,))))


def test_parse_errors_carry_offsets():
    with pytest.raises(GroupSyntaxError) as exc:
        parse_group_expr("C(")
    assert exc.value.offset == 2
    with pytest.raises(UnknownConstructor) as exc:
        parse_group_expr("C(4) x Foo(3)")
    assert exc.value.offset == 7
    assert "S" in exc.value.expected
    with pytest.raises(GroupSyntaxError):
        parse_group_expr("C(4) junk")


# expected exception type and offset of each rejected expression
_DOMAIN_ERRORS = {
    "C(0)": (ParameterOutOfRange, 2), "E(4,2)": (ParameterOutOfRange, 2),
    "Q(6)": (ParameterOutOfRange, 2), "Q(12)": (ParameterOutOfRange, 2),
    "SD(8)": (ParameterOutOfRange, 3), "M(2,3)": (ParameterOutOfRange, 4),
    "M(4,3)": (ParameterOutOfRange, 2), "X(6,+)": (ParameterOutOfRange, 2),
    "A(2)": (ParameterOutOfRange, 2), "PSL(3,2)": (ParameterOutOfRange, 4),
    "SL(2,4)": (ParameterOutOfRange, 5), "C(2048)": (ParameterOutOfRange, 2),
    "Q(2048)": (ParameterOutOfRange, 2),
    # 2^61 - 1 is prime: the order cap must reject it before trial division
    "PSL(2,2305843009213693951)": (ParameterOutOfRange, 6),
    "E(2305843009213693951,1)": (ParameterOutOfRange, 2),
    "X(2305843009213693951,+)": (ParameterOutOfRange, 2),
    "M(2305843009213693951,3)": (ParameterOutOfRange, 2),
    "SL(2,2305843009213693951)": (ParameterOutOfRange, 5),
    # huge exponents or degrees must not be raised to a power or factorial
    "E(2,2305843009213693951)": (ParameterOutOfRange, 4),
    "M(2,2305843009213693951)": (ParameterOutOfRange, 4),
    "S(2305843009213693951)": (ParameterOutOfRange, 2),
    "A(2305843009213693951)": (ParameterOutOfRange, 2),
    # a sign argument that is not a sign
    "X(3,3)": (GroupSyntaxError, 4), "X(3,*)": (GroupSyntaxError, 4),
    # the lower bound of a second argument, and orders past the cap
    "E(2,0)": (ParameterOutOfRange, 4), "M(3,2)": (ParameterOutOfRange, 4),
    "PSL(2,6)": (ParameterOutOfRange, 6), "SL(3,2)": (ParameterOutOfRange, 3),
    "D(513)": (ParameterOutOfRange, 2), "S(7)": (ParameterOutOfRange, 2),
}


@pytest.mark.parametrize("text", list(_DOMAIN_ERRORS))
def test_parameter_domain_errors(text):
    error, offset = _DOMAIN_ERRORS[text]
    with pytest.raises(error) as exc:
        parse_group_expr(text)
    assert type(exc.value) is error
    assert exc.value.offset == offset


# a degree or exponent under this cap, and the offset at which the
# bit-length bound rejects it before any n! (over a minute here) or p^k
_HUGE_UNDER_CAP = {"S(3000000)": 2, "A(3000000)": 2,
                   "E(2,3000000)": 4, "M(2,3000000)": 4}


@pytest.mark.parametrize("text", list(_HUGE_UNDER_CAP))
def test_large_cap_rejects_degrees_without_factorials(text, monkeypatch):
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", str(10 ** 7))
    with pytest.raises(ParameterOutOfRange) as exc:
        parse_group_expr(text)
    assert exc.value.offset == _HUGE_UNDER_CAP[text]


def test_generators_of_the_wrong_group_break_the_contract(monkeypatch):
    # cyclic generators of the right order for D(n): the order check passes
    # and the structure check must not
    monkeypatch.setitem(catalog._GENERATORS, "D",
                        lambda n: (2 * n, [_cyc(2 * n, tuple(range(2 * n)))]))
    with pytest.raises(ConstructionContractViolated, match="wrong structure"):
        realize("D(4)")
    # and generators of a group of the wrong order
    monkeypatch.setitem(catalog._GENERATORS, "D", lambda n: (n, []))
    with pytest.raises(ConstructionContractViolated, match="wrong order"):
        realize("D(4)")


# The accepted language of perm[...] and sd[...], pinned as the earlier,
# character-level cycle parser gave it: each input's canonical AST text
# (its image tuple, for a (text, degree) input to parse_cycles) or the
# exception class it raises.
_LANGUAGE = {
    # empty pieces between commas are skipped
    "perm[3: (1 2),]": "perm[3: (1 2)]",
    "perm[3: ,(1 2)]": "perm[3: (1 2)]",
    "perm[3: (1 2),,(1 3)]": "perm[3: (1 2), (1 3)]",
    "sd[3: (1 2 3),; ,(1 2 3); (1 2),]": "sd[3: (1 2 3); (1 2 3); (1 2)]",
    # but a list holds at least one permutation
    "perm[3: ]": GroupSyntaxError,
    "sd[3: (1 2 3);(1 2 3);]": GroupSyntaxError,
    "sd[3: ;(1 2 3); (1 2)]": GroupSyntaxError,
    # cycles of one permutation are disjoint; of different ones need not be
    "perm[3:(1 2)(1 2)]": GroupSyntaxError,
    "perm[3: (1 2) (2 3)]": GroupSyntaxError,
    "perm[3: (1 2), (2 3)]": "perm[3: (1 2), (2 3)]",
    "sd[3: (1 2 3) (1 2 3) (1 2)]": GroupSyntaxError,
    "perm[3: ((1 2))]": GroupSyntaxError,
    "perm[3: (1 2 3), (1 2)]": "perm[3: (1 2 3), (1 2)]",
    "perm[3: ()]": "perm[3: ()]",
    "perm[3: (1)]": "perm[3: ()]",
    "perm[3: (3 1)(2)]": "perm[3: (1 3)]",
    "perm[5: (5 4), ( 1 2 3 )]": "perm[5: (4 5), (1 2 3)]",
    "perm[4: (1 2)(3 4), ()]": "perm[4: (1 2)(3 4), ()]",
    "perm[2000: (1 2)]": "perm[2000: (1 2)]",
    "perm[3: (1 2)] x C(2)": "perm[3: (1 2)] x C(2)",
    "sd[3: (1 2 3), (1 2); (1 2 3); (1 2)]":
        "sd[3: (1 2 3), (1 2); (1 2 3); (1 2)]",
    "sd[3: (1 2 3); (1 2 3); (1 2)] x perm[2: (1 2)]":
        "sd[3: (1 2 3); (1 2 3); (1 2)] x perm[2: (1 2)]",
    SEMIDIRECT_C4_C4: SEMIDIRECT_C4_C4,
    # points and degrees out of range
    "perm[3: (1 4)]": ParameterOutOfRange,
    "perm[3: (0 1)]": ParameterOutOfRange,
    "perm[0: ()]": ParameterOutOfRange,
    "sd[3: (1 2 3); (1 2 3); (1 4)]": ParameterOutOfRange,
    "sd[0: (); (); ()]": ParameterOutOfRange,
    # malformed bodies
    "perm[3: (1 2) x]": GroupSyntaxError, "perm[3: (1 2);]": GroupSyntaxError,
    "perm[3: (1,2)]": GroupSyntaxError, "perm[3: (1 2]": GroupSyntaxError,
    "perm[3 (1 2)]": GroupSyntaxError, "perm[3: (1 a)]": GroupSyntaxError,
    "perm[3: (1 2)(]": GroupSyntaxError,
    "perm[3: (1 2)), (1 3)]": GroupSyntaxError,
    "perm[3: 1 2]": GroupSyntaxError, "perm[3: (1 2)] ]": GroupSyntaxError,
    "sd[3: (1 2 3); (1 2 3)]": GroupSyntaxError,
    # parse_cycles
    ("(1 2", 4): GroupSyntaxError, ("(1 5)", 4): ParameterOutOfRange,
    ("  (2 1) ", 2): (1, 0), ("(1)(2)", 2): (0, 1),
    ("(1 2) x", 3): GroupSyntaxError,
}


@pytest.mark.parametrize("text", list(_LANGUAGE))
def test_parser_language(text):
    expected = _LANGUAGE[text]
    if isinstance(text, tuple):
        def parse():
            return parse_cycles(*text)
    else:
        def parse():
            return format_expr(parse_group_expr(text))
    if isinstance(expected, type):
        with pytest.raises(expected):
            parse()
    else:
        assert parse() == expected


# cycles on the points 1..5, out of range in perm[4: ...]
_CYCLE = st.lists(st.integers(1, 5), unique=True, max_size=3).map(
    lambda points: "(" + " ".join(map(str, points)) + ")")
_PERM_LIST = st.lists(st.lists(_CYCLE, max_size=2).map("".join),
                      max_size=3).map(",".join)
_TOKEN = st.one_of(
    st.integers(0, 10 ** 4).map(str), _CYCLE,
    st.sampled_from(["(", ")", ",", ";", "[", "]", ":", "+", "-", "x",
                     "perm", "sd", "C", "E", "X", "PSL", "Foo"]))
_SOUP = st.one_of(
    st.lists(st.tuples(st.sampled_from(["", " "]), _TOKEN), max_size=12).map(
        lambda toks: "".join(sep + tok for sep, tok in toks)),
    st.tuples(st.sampled_from(["perm[4:", "perm[5:"]), _PERM_LIST).map(
        lambda parts: f"{parts[0]} {parts[1]}]"),
    st.tuples(_PERM_LIST, _PERM_LIST, _PERM_LIST).map(
        lambda lists: f"sd[5: {'; '.join(lists)}]"),
)


@given(_SOUP, st.lists(st.tuples(st.integers(0, 100), _TOKEN), max_size=2))
@settings(max_examples=300)
def test_token_soup_parses_or_raises_expr_error(text, noise):
    for at, tok in noise:       # tokens dropped in at random places
        at %= len(text) + 1
        text = text[:at] + tok + text[at:]
    try:
        expr = parse_group_expr(text)
    except GroupExprError:
        return
    printed = format_expr(expr)
    assert parse_group_expr(printed) == expr
    assert format_expr(parse_group_expr(printed)) == printed


@pytest.mark.parametrize("text, degree, gens", [
    ("perm[6: (1 2 3), (1 2)]", 6, [(1, 2, 0, 3, 4, 5), (1, 0, 2, 3, 4, 5)]),
    ("perm[9: (1 3)(2 4), ()]", 9, [(2, 3, 0, 1) + tuple(range(4, 9)),
                                    tuple(range(9))]),
    ("perm[9: (3 5 7), (5 9)]", 9, [(0, 1, 4, 3, 6, 5, 2, 7, 8),
                                    (0, 1, 2, 3, 8, 5, 6, 7, 4)]),
])
def test_perm_realizes_as_on_its_full_degree(text, degree, gens):
    # only the moved points are closed, relabelled in order; the closure on
    # every point of the degree numbers the group the same way
    G = realize(text)
    full = group_from_generators(degree, gens)
    assert np.array_equal(G.mul, full.mul) and G.words == full.words
    assert G.label == text


def test_fixed_points_do_not_change_the_ast():
    assert parse_group_expr("perm[5: (4)(1 2)]") == \
        parse_group_expr("perm[5: (1 2)]")
    assert parse_group_expr("sd[5: (5); (1); ()]") == \
        parse_group_expr("sd[5: (); (); ()]")


def test_huge_perm_degree_costs_nothing():
    text = "perm[1000000000000: (1 2), (3 4)]"
    assert format_expr(parse_group_expr(text)) == text
    assert realize(text).order == 4


def test_cycles_are_stored_canonically():
    # each cycle starts at its least point and the cycles are sorted
    expr = parse_group_expr("perm[6: (5 4)(3 1 2), (6 2)]")
    assert expr.gens == (((0, 1, 2), (3, 4)), ((1, 5),))
    assert expr == parse_group_expr("perm[6: (1 2 3)(4 5), (2 6)]")
    assert format_expr(expr) == "perm[6: (1 2 3)(4 5), (2 6)]"


def test_huge_moved_points_cost_nothing():
    # 10^12 points are never listed: only the moved ones are closed
    big, bigger = 1000000000000, 2000000000000
    text = f"perm[{big}: (1 {big})]"
    assert format_expr(parse_group_expr(text)) == text
    assert realize(text).order == 2
    sd = (f"sd[{bigger}: (1 {big} {bigger}), (1 {big}); "
          f"(1 {big} {bigger}); (1 {big})]")
    G = realize(sd)
    small = realize("sd[3: (1 2 3), (1 2); (1 2 3); (1 2)]")
    assert format_expr(parse_group_expr(sd)) == sd and G.label == sd
    assert np.array_equal(G.mul, small.mul) and G.words == small.words
    assert G.semidirect_parts == small.semidirect_parts


@given(st.integers(1, 30), st.integers(1, 15))
@settings(max_examples=25)
def test_product_roundtrip_property(n, m):
    text = f"C({n}) x C({m})"
    expr = parse_group_expr(text)
    assert format_expr(expr) == text


# --- realizations -----------------------------------------------------------

def _involutions(G):
    return int((G.elem_order == 2).sum())


def test_dihedral_structure():
    for n in (1, 2, 3, 4, 6, 10):
        G = realize(f"D({n})")
        assert G.order == 2 * n
        if n > 2:
            assert not G.is_abelian()
            assert _involutions(G) == (n if n % 2 else n + 1)


def test_quaternion_structure():
    for m in (8, 16, 32):
        G = realize(f"Q({m})")
        assert G.order == m
        assert _involutions(G) == 1
        assert G.exponent() == m // 2


def test_semidihedral_and_modular():
    G = realize("SD(16)")
    assert G.order == 16 and not G.is_abelian()
    assert _involutions(G) == 5
    M = realize("M(2,4)")
    assert M.order == 16 and not M.is_abelian()
    assert M.exponent() == 8
    M3 = realize("M(3,3)")
    assert M3.order == 27 and M3.exponent() == 9


def test_extraspecial_structure():
    plus = realize("X(3,+)")
    minus = realize("X(3,-)")
    for G in (plus, minus):
        assert G.order == 27
        assert not G.is_abelian()
        assert center(G).order == 3
    assert plus.exponent() == 3
    assert minus.exponent() == 9
    # the p = 2 types coincide with D4 and Q8
    assert _involutions(realize("X(2,+)")) == 5
    assert _involutions(realize("X(2,-)")) == 1


def test_symmetric_alternating_orders():
    assert realize("S(4)").order == 24
    assert realize("A(4)").order == 12
    assert realize("A(5)").order == 60
    assert realize("S(3)").order == 6


def test_linear_groups():
    assert realize("PSL(2,5)").order == 60
    assert realize("PSL(2,7)").order == 168
    assert realize("PSL(2,4)").order == 60
    assert _involutions(realize("PSL(2,4)")) == 15
    assert realize("SL(2,3)").order == 24
    assert _involutions(realize("SL(2,3)")) == 1
    g9 = realize("PSL(2,9)")
    assert g9.order == 360
    g8 = realize("PSL(2,8)")
    assert g8.order == 504
    assert _involutions(g8) == 63
    assert g8.exponent() == 126


@pytest.mark.parametrize("p, k, modpoly", [
    (2, 2, [1, 1, 1]), (2, 3, [1, 1, 0, 1]), (3, 2, [1, 0, 1]),
    (2, 4, [1, 1, 0, 0, 1]), (3, 3, [1, 2, 0, 1]), (5, 2, [2, 0, 1]),
])
def test_gf_modulus_and_inverses(p, k, modpoly):
    # the modulus fixes the element numbering of PSL(2, p^k): pinned. t has
    # code p, and t^k = -c(t) for the modulus t^k + c(t)
    add, mul = _gf_tables(p, k)
    tk = 1
    for _ in range(k):
        tk = mul[tk, p]
    assert modpoly[-1] == 1
    assert tk == sum((-c) % p * p ** i for i, c in enumerate(modpoly[:-1]))
    for a in range(1, p ** k):
        assert (mul[a] == 1).sum() == 1 and mul[a, 1] == a
        assert (add[a] == 0).sum() == 1 and add[a, 0] == a


_PRIME_POWERS_TO_64 = [q for q in range(2, 65) if prime_power(q)]


def _gf_oracle_mul(p, k):
    """GF(p^k)'s products by polynomial arithmetic, modulo the first monic
    t^k + c(t), c in code order, with no monic factor of degree <= k/2."""
    def digits(code, n):
        return [code // p ** i % p for i in range(n)]

    def has_small_factor(f):
        return any(poly_divmod(f, digits(c, deg) + [1], p)[1] == [0]
                   for deg in range(1, k // 2 + 1) for c in range(p ** deg))

    modpoly = next(f for f in (digits(c, k) + [1] for c in range(p ** k))
                   if not has_small_factor(f))
    q = p ** k
    return [[sum(d * p ** i for i, d in enumerate(poly_divmod(
        poly_mul(digits(a, k), digits(b, k), p), modpoly, p)[1]))
        for b in range(q)] for a in range(q)]


@pytest.mark.parametrize("q", _PRIME_POWERS_TO_64)
def test_gf_tables_are_the_field(q):
    p, k = prime_power(q)
    add, mul = _gf_tables(p, k)
    codes = np.arange(q)
    a, b, c = np.meshgrid(codes, codes, codes, indexing="ij")
    for op in (add, mul):
        assert op.shape == (q, q) and (op == op.T).all()
        assert (op[op[a, b], c] == op[a, op[b, c]]).all()
    assert (add[0] == codes).all() and (mul[1] == codes).all()
    assert (np.sort(add, axis=1) == codes).all()        # every -a exists
    assert (np.sort(mul[1:, 1:], axis=1) == codes[1:]).all()   # every 1/a
    assert (mul[a, add[b, c]] == add[mul[a, b], mul[a, c]]).all()
    # the element numbering: digit-wise sums, products by the oracle
    digits = codes[:, None] // p ** np.arange(k) % p
    assert (add == (digits[:, None] + digits[None, :]) % p
            @ p ** np.arange(k)).all()
    assert mul.tolist() == _gf_oracle_mul(p, k)


# the sha1 of each realized multiplication table as little-endian int32
_NUMBERINGS = {
    # pinned from the polynomial-arithmetic field these tables replaced
    "PSL(2,4)": "22aa145d312ac1c5cfe509121083af0e1b1d2266",
    "PSL(2,9)": "4ea59a8b8dbc5dbdda83e07cf6058c073dedf71a",
    "PSL(2,16)": "21ec8141a731378b842f04e58bceacf8fd0a13e5",
    # pinned from the per-family realizations these generator tables replaced
    "C(9)": "bb1e815d4aee5ef07a3aafd9110dbb2cf62b80e1",
    "D(1)": "d4643e33efa056a1b6c5bbd32aa046c5c9144c89",
    "D(2)": "a4d7f0ec427c447234657e67697137e17b7d4e35",
    "D(8)": "5592463d3ec978196223b3aa4c102c0e166809a8",
    "Q(16)": "3782a1b80fbeea66f6ed583e900737687b8a4852",
    "SD(16)": "5236b44ffba7c02e6965d87efa1b899005dd9d09",
    "M(2,4)": "f021c967db6783ac490626c272f329acc37dc87f",
    "M(3,4)": "4a1b30b946ee0b7207fc91045ff3883e66c54abd",
    "X(2,+)": "2f3777bd9ef1ebf98132fd33a94345576aa8bcab",
    "X(2,-)": "ed77c031f8f1334d58995354515ee02ffb09d77c",
    "X(3,+)": "6f733427cc014ff6aaf510f480a56ffd9b84faa8",
    "X(3,-)": "3c36925e7542fb39c10c84ddcea5e160c2aee19b",
    "E(2,3)": "06900895f8ef0a14e456cd7b15370b2a0418ca01",
    "S(4)": "d1e07ede03728383a24e6c70aeefe67784c09985",
    "A(5)": "3e051f814779cfb73f98ef1838da1cf88309099b",
    "SL(2,3)": "cbcffe12a6727fdc9616f0027d276c37ea60f0c4",
    "PSL(2,7)": "a240ddf10017de6dae7cc320b2db7e884cca920c",
}


@pytest.mark.parametrize("text", list(_NUMBERINGS))
def test_family_is_numbered_as_pinned(monkeypatch, text):
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", "4080")
    table = np.ascontiguousarray(realize(text).mul, dtype="<i4")
    assert hashlib.sha1(table).hexdigest() == _NUMBERINGS[text]


def test_sym_two_is_closed_from_the_general_generators():
    G = realize("S(2)")
    assert G.mul.tolist() == [[0, 1], [1, 0]] and G.words == ("e", "a")


def test_perm_and_semidirect_constructors():
    G = realize("perm[3: (1 2), (1 2 3)]")
    assert G.order == 6
    sd = realize(SEMIDIRECT_C4_C4)
    assert sd.order == 16
    assert sd.semidirect_parts is not None
    h, k = sd.semidirect_parts
    assert len(h) == 4 and len(k) == 4


def test_products_flatten():
    G = realize("C(2) x C(2) x C(3)")
    assert G.order == 12
    assert len(G.direct_factors) == 3
    assert sorted(len(f) for f in G.direct_factors) == [2, 2, 3]


def test_roster_realizes_and_is_capped():
    roster = catalog_roster()
    assert len(roster) == len(set(roster))
    for text in roster:
        G = cached_group(text)
        assert G.order <= 1024
        assert G.label == text
    small = catalog_up_to(16)
    assert all(cached_group(t).order <= 16 for t in small)
    assert "A(5)" not in small
