"""Command-line surface: exit codes, formats, determinism."""
import csv
import io
import json
import time

import pytest

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


def test_negative_e_exit_two(capsys):
    code, _ = _run(["components", "--p", "2", "--e", "-1", "C(4)"])
    assert code == 2
    err = capsys.readouterr().err
    assert err.startswith("error:") and err.count("\n") == 1
    assert "Traceback" not in err


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
