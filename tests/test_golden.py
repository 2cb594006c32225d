"""Default CLI stdout pinned by digest.

`golden_stdout.json` holds the exit code and the sha256 of the stdout of
every command in `golden_commands()`, recorded from a known-good build. A
change that must keep the default output byte-identical passes this test
unchanged; the file is not regenerated to make a change pass.

Regenerate (only when an output change is intended and reviewed) with
    PYTHONPATH=src python tests/test_golden.py
"""
import hashlib
import io
import json
import pathlib

from charposet.catalog import catalog_roster
from charposet.cli import run

GOLDEN = pathlib.Path(__file__).with_name("golden_stdout.json")
EXTRA_GROUPS = ("PSL(2,8)", "A(6)", "PSL(2,11)", "S(5)")


def golden_commands():
    """catalog-run, scan-q1, and irr/psubgroups/components on each group."""
    cmds = [["catalog-run"],
            ["scan-q1", "--p", "2"],
            ["scan-q1", "--p", "3"]]
    for text in tuple(catalog_roster()) + EXTRA_GROUPS:
        cmds.append(["irr", text])
        for p in ("2", "3"):
            for e in ("0", "1"):
                cmds.append(["psubgroups", "--p", p, "--e", e, text])
                for poset in ("s", "gamma"):
                    cmds.append(["components", "--p", p, "--e", e,
                                 "--poset", poset, text])
    return cmds


def _digest(argv):
    out = io.StringIO()
    code = run(argv, out=out)
    return {"exit": code,
            "sha256": hashlib.sha256(out.getvalue().encode()).hexdigest()}


def test_default_stdout_matches_golden_digests():
    golden = json.loads(GOLDEN.read_text())
    cmds = golden_commands()
    assert sorted(" ".join(c) for c in cmds) == sorted(golden)
    differ = [" ".join(c) for c in cmds
              if _digest(c) != golden[" ".join(c)]]
    assert not differ, f"{len(differ)} commands changed output: {differ}"


if __name__ == "__main__":
    digests = {" ".join(c): _digest(c) for c in golden_commands()}
    GOLDEN.write_text(json.dumps(digests, indent=1, sort_keys=True) + "\n")
