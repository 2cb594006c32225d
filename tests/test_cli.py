"""Command-line surface: exit codes, formats, determinism."""
import contextlib
import csv
import io
import json
import os
import re
import time
from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import charposet.chartab
import charposet.cli
import charposet.gamma
import charposet.group
from charposet.cli import run


def _run(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return code, out.getvalue()


def test_components_gamma_default():
    code, text = _run(["components", "--p", "2", "--e", "1", "Q(8)"])
    assert code == 0
    assert "components: 2" in text
    assert "poset: gamma" in text


def test_components_s_poset():
    code, text = _run(["components", "--p", "2", "--poset", "s", "A(5)"])
    assert code == 0
    assert "components: 5" in text


def test_e_defaults_to_zero():
    code, text = _run(["components", "--p", "2", "C(4)"])
    assert code == 0
    assert "e: 0" in text
    assert "components: 2" in text


def test_verify_pass_exit_zero():
    code, text = _run(["verify", "--theorem", "B", "--p", "3", "S(3)"])
    assert code == 0
    assert "PASS" in text
    assert '"components": 3' in text


def test_verify_json_output():
    code, text = _run(["verify", "--theorem", "C", "--p", "2", "--e", "1",
                       "--json", "Q(8)"])
    assert code == 0
    blob = json.loads(text)
    assert blob["status"] == "pass"
    assert blob["observed"] == {"components": 2}


def test_verify_inapplicable_exit_zero():
    code, text = _run(["verify", "--theorem", "C", "--p", "2", "S(3)"])
    assert code == 0
    assert "INAPPLICABLE" in text


def test_parse_error_exit_two():
    code, _ = _run(["components", "--p", "2", "C("])
    assert code == 2


def test_usage_error_exit_two():
    code, _ = _run(["components", "C(4)"])          # missing --p
    assert code == 2
    code, _ = _run(["no-such-command"])
    assert code == 2


def test_nonprime_p_exit_two():
    code, _ = _run(["components", "--p", "4", "C(4)"])
    assert code == 2


def test_huge_prime_p_is_decided_fast():
    start = time.perf_counter()
    code, text = _run(["components", "--p", "2305843009213693951", "C(4)"])
    assert time.perf_counter() - start < 1.0
    assert code == 0 and "components: 0" in text


def test_p_beyond_exact_primality_exit_two(capsys):
    code, _ = _run(["components", "--p", str(2 ** 89 - 1), "C(4)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_overlong_number_literal_exit_two(capsys):
    code, _ = _run(["components", "--p", "2", "C(" + "9" * 5000 + ")"])
    assert code == 2
    err = capsys.readouterr().err
    assert "Traceback" not in err and "(at offset 2)" in err
    # only the interpreter's limit is refused, not a digit cap
    code, text = _run(["components", "--p", "2", "perm[2000: (1 2)]"])
    assert code == 0 and "components: 2" in text


@pytest.mark.parametrize("expr", ["C(1000) x C(1000)", "C(1000) x C(30)",
                                  "C(2) x C(1000) x C(1)"])
def test_product_past_the_cap_exit_two(capsys, expr):
    # each factor is within the cap; the product's order is checked before
    # its table is allocated (C(1000) x C(1000) would need 7.28 TiB)
    code, text = _run(["components", "--p", "2", expr])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: product order exceeds cap 1024 (at offset 0)\n"


def test_product_past_the_uint16_range_exit_two(monkeypatch, capsys):
    # a cap above 65,536 is held to it: the 65,792-element product is
    # refused before its table (8.7 GB as uint16) is allocated
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", "100000")
    code, text = _run(["components", "--p", "2", "C(256) x C(257)"])
    assert code == 2 and text == ""
    assert capsys.readouterr().err == \
        "error: product order exceeds cap 65536 (at offset 0)\n"


def test_huge_perm_degree_is_not_allocated(capsys):
    # only the points the generators move are closed, relabelled 0..k-1; a
    # list of 10^12 images would not fit in memory
    for expr in ("perm[1000000000000: (1 2)]",
                 "perm[1000000000000: (1 1000000000000)]"):
        code, text = _run(["components", "--p", "2", expr])
        assert code == 0 and "components: 2" in text
        assert expr in text
        assert "Traceback" not in capsys.readouterr().err


def test_negative_e_exit_two(capsys):
    code, _ = _run(["components", "--p", "2", "--e", "-1", "C(4)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


def test_scan_q1_k_below_one_exit_two(capsys):
    code, text = _run(["scan-q1", "--p", "2", "--k", "0", "--max-order", "8"])
    assert code == 2 and text == ""
    err = capsys.readouterr().err
    assert err == "error: --k must be >= 1, got 0\n"


@pytest.mark.parametrize("expr, bad_q", [("C(4) x C(2)", 11), ("A(4)", 11)])
def test_table_construction_failure_exit_three(monkeypatch, capsys, expr,
                                               bad_q):
    # 11 is not 1 mod exp = 4 or 6: the abelian path rejects it, and Dixon's
    # class-matrix eigenvalues for A(4) (cube roots of unity) are not in GF(11)
    monkeypatch.setattr("charposet.chartab.dixon_modulus", lambda G: bad_q)
    code, text = _run(["irr", expr])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: TableConstructionFailed:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_memory_error_exit_three(monkeypatch, capsys):
    # exit 1 is kept for a failed claim; running out of memory is exit 3
    def exhausted(args, out):
        raise MemoryError("unable to allocate 2.00 GiB")

    monkeypatch.setitem(charposet.cli._COMMANDS, "psubgroups", exhausted)
    code, text = _run(["psubgroups", "--p", "2", "C(4)"])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err == "error: MemoryError: unable to allocate 2.00 GiB\n"


def test_lattice_construction_failure_exit_three(monkeypatch, capsys):
    # no extension step finds anything: the lattice stops at order p
    monkeypatch.setattr(charposet.group, "_index_p_overgroups",
                        lambda G, p, hmasks, nmasks, xp:
                        (np.zeros(0, dtype=np.int64),) * 3)
    code, text = _run(["components", "--p", "2", "--poset", "s", "C(4)"])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: LatticeConstructionFailed:")
    assert err.count("\n") == 1 and "Traceback" not in err


@pytest.mark.parametrize("raw", ["abc", "0", "-1"])
def test_bad_order_cap_env_exit_two(monkeypatch, capsys, raw):
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", raw)
    for argv in (["components", "--p", "2", "C(4)"],
                 ["catalog-run", "--max-order", "4"]):
        code, _ = _run(argv)
        assert code == 2, argv
        err = capsys.readouterr().err
        assert err.startswith("error:") and err.count("\n") == 1
        assert "CHARPOSET_ORDER_CAP" in err and "Traceback" not in err


@pytest.mark.parametrize("argv", [["catalog-run", "--max-order", "8"],
                                  ["scan-q1", "--p", "2", "--max-order", "8"]])
def test_max_order_within_the_cap_skips_catalog_groups_past_it(
        monkeypatch, capsys, argv):
    want = _run(argv)
    monkeypatch.setenv("CHARPOSET_ORDER_CAP", "100")
    assert _run(argv) == want and want[0] == 0
    assert capsys.readouterr().err == ""
    # past the cap, --max-order no longer vouches for the groups it skips
    code, _ = _run(argv[:-1] + ["200"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1


def test_cap_exceeded_exit_three():
    code, _ = _run(["irr", "perm[40: (" +
                    " ".join(str(i) for i in range(1, 41)) + ")]"])
    # C40 itself is fine; force a cap error with a huge symmetric group seed
    assert code == 0
    big = "perm[12: (1 2 3 4 5 6 7 8 9 10 11 12), (1 2)]"
    code, _ = _run(["components", "--p", "2", big])
    assert code == 3


def test_irr_output_shape():
    code, text = _run(["irr", "S(3)"])
    assert code == 0
    assert "modulus q: 37" in text
    assert "classes: 3" in text
    lines = text.splitlines()
    assert any(line.startswith("chi2") for line in lines)


def test_psubgroups_listing():
    code, text = _run(["psubgroups", "--p", "2", "Q(8)"])
    assert code == 0
    assert "nodes: 5" in text
    assert "components: 1" in text


def test_scan_q1_output():
    code, text = _run(["scan-q1", "--p", "2", "--k", "2", "--max-order", "8"])
    assert code == 0
    assert "C(4)" in text and "Q(8)" in text
    assert "E(2,3)" not in text            # trivial I excluded


def test_deterministic_output():
    for argv in (["components", "--p", "2", "--e", "1", "D(8)"],
                 ["irr", "Q(8)"],
                 ["psubgroups", "--p", "3", "A(4)"],
                 ["scan-q1", "--p", "2", "--max-order", "16"],
                 ["catalog-run", "--max-order", "8"]):
        _, first = _run(argv)
        _, second = _run(argv)
        assert first == second, argv


def test_catalog_run_small():
    code, text = _run(["catalog-run", "--max-order", "12"])
    assert code == 0
    assert "fail: 0" in text


def test_catalog_run_json_roundtrip():
    code, text = _run(["catalog-run", "--max-order", "9", "--json"])
    assert code == 0
    reports = json.loads(text)
    assert reports
    keys = {"group", "p", "e", "claim", "observed", "expected", "status",
            "millis"}
    for r in reports:
        assert set(r) == keys
        assert r["status"] in {"pass", "fail", "inapplicable"}
    labels = [(r["group"], r["p"], r["e"], r["claim"]) for r in reports]
    assert labels == sorted(labels)


def test_catalog_run_csv():
    code, text = _run(["catalog-run", "--max-order", "8", "--csv"])
    assert code == 0
    rows = list(csv.reader(io.StringIO(text)))
    assert rows[0] == ["group", "p", "e", "claim", "observed", "expected",
                       "status", "millis"]
    assert all(len(r) == 8 for r in rows[1:])
    assert all(r[6] in {"pass", "fail", "inapplicable"} for r in rows[1:])


@pytest.mark.parametrize("target, broken", [
    ("restrict_values", lambda ctx, K, psi, H: [0] * ctx.table(H).count),
    ("class_products",
     lambda table, A, B: np.zeros((len(A), len(B)), dtype=np.int64)),
])
def test_failed_character_check_exit_three(monkeypatch, capsys, target,
                                           broken):
    # restrict_values feeds decompose_restriction, which is not used to
    # build the tables; class_products feeds every table's row-orthogonality
    # check and the decompositions of both induce and decompose_restriction
    monkeypatch.setattr(charposet.chartab, target, broken)
    code, text = _run(["verify", "--theorem", "L4.3", "--p", "3", "--e", "1",
                       "X(3,+)"])
    assert code == 3 and text == ""
    err = capsys.readouterr().err
    assert err.startswith("error: TableConstructionFailed:")
    assert err.count("\n") == 1 and "Traceback" not in err


def test_scan_q1_failed_cross_check_exit_three(monkeypatch, capsys):
    wrong = SimpleNamespace(partition=SimpleNamespace(count=999))
    monkeypatch.setattr(charposet.gamma, "gamma_poset",
                        lambda G, p, e: wrong)
    code, text = _run(["scan-q1", "--p", "2", "--max-order", "8"])
    assert code == 3
    assert "no groups with nontrivial I" in text
    err = capsys.readouterr().err
    assert "error: C(4): CrossCheckFailed: |I| = 4" in err


@pytest.mark.parametrize("argv, shown", [
    (["verify", "--theorem", "A", "--p", "3", "--e", "10000", "C(9)"],
     "INAPPLICABLE"),
    (["verify", "--theorem", "Cor2.2", "--p", "2", "--e", "20000", "C(4)"],
     "INAPPLICABLE"),
    (["verify", "--theorem", "L2.3", "--p", "3", "--e", "10000",
      "C(3) x C(3)"], "INAPPLICABLE"),
    (["components", "--p", "3", "--e", "10000000", "C(9)"], "components: 0"),
    (["psubgroups", "--p", "3", "--e", "10000000", "C(9)"], "nodes: 0"),
    (["scan-q1", "--p", "3", "--k", "10000000", "--max-order", "9"],
     "groups scanned: 0"),
])
def test_huge_e_or_k_is_decided_fast(argv, shown):
    start = time.perf_counter()
    code, text = _run(argv)
    assert time.perf_counter() - start < 1.0
    assert code == 0 and shown in text


def test_huge_e_reason_names_the_power_symbolically():
    _, text = _run(["verify", "--theorem", "A", "--p", "3", "--e", "10000",
                    "C(9)"])
    assert "p^(e+1) = 3^10001 does not divide |G| = 9" in text
    _, text = _run(["verify", "--theorem", "A", "--p", "3", "--e", "2",
                    "C(9)"])
    assert "p^(e+1) = 27 does not divide |G| = 9" in text


# each domain is drawn half from values that pass the usage checks, half
# from values that must be refused, so that deep paths are reached often
_FUZZ_EXPRS = st.sampled_from(["C(4)", "S(3)", "Q(8)", "C(2) x C(2)", "C(9)",
                               "C(1)"]) | \
    st.sampled_from(["C(", "Z(3)", "", "C(4) x", "C(" + "9" * 5000 + ")"])
_FUZZ_P = st.sampled_from([2, 3]) | \
    st.sampled_from([0, 1, 4, 2 ** 61 - 1, 10 ** 30])
_FUZZ_E = st.sampled_from([-1, 0, 1, 2]) | st.sampled_from([10 ** 4, 10 ** 6])
_FUZZ_CAP = st.none() | st.sampled_from(["abc", "0", "16", "64"])


@st.composite
def _fuzzed_argv(draw):
    command = draw(st.sampled_from(
        ["irr", "psubgroups", "components", "verify", "scan-q1",
         "catalog-run"]))
    p = str(draw(_FUZZ_P))
    e = str(draw(_FUZZ_E))
    expr = draw(_FUZZ_EXPRS)
    if command == "irr":
        return [command, expr]
    if command == "psubgroups":
        return [command, "--p", p, "--e", e, expr]
    if command == "components":
        poset = draw(st.sampled_from(["gamma", "s"]))
        return [command, "--p", p, "--e", e, "--poset", poset, expr]
    if command == "verify":
        theorem = draw(st.sampled_from(
            ["A", "B", "C", "L2.3", "L4.1", "L4.2", "L4.3", "L4.4", "L4.6",
             "Cor2.2"]))
        return [command, "--theorem", theorem, "--p", p, "--e", e, expr]
    max_order = str(draw(st.integers(1, 8)))
    if command == "scan-q1":
        k = str(draw(st.sampled_from([0, 1, 2])))
        return [command, "--p", p, "--k", k, "--max-order", max_order]
    return [command, "--max-order", max_order]


@settings(max_examples=400, deadline=None)
@given(argv=_fuzzed_argv(), cap=_FUZZ_CAP)
@example(argv=["verify", "--theorem", "A", "--p", "3", "--e", "10000",
               "C(9)"], cap=None)
@example(argv=["verify", "--theorem", "Cor2.2", "--p", "2", "--e", "1000000",
               "C(4)"], cap=None)
@example(argv=["components", "--p", "3", "--e", "1000000", "C(9)"], cap=None)
def test_exit_codes_under_fuzzed_arguments(argv, cap):
    saved = os.environ.pop("CHARPOSET_ORDER_CAP", None)
    if cap is not None:
        os.environ["CHARPOSET_ORDER_CAP"] = cap
    err = io.StringIO()
    try:
        with contextlib.redirect_stderr(err):
            code, text = _run(argv)
    finally:
        os.environ.pop("CHARPOSET_ORDER_CAP", None)
        if saved is not None:
            os.environ["CHARPOSET_ORDER_CAP"] = saved
    assert code in (0, 1, 2, 3)
    assert "Traceback" not in err.getvalue()
    if code == 1:
        assert re.search(r": FAIL$|fail: [1-9]", text, re.M), argv
