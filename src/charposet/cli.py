"""Command-line interface.

Exit codes: 0 success/pass, 1 verification failure, 2 usage or parse error,
3 computation error. Default output is an aligned human-readable table;
--json/--csv switch to machine-readable forms.
"""
from __future__ import annotations

import argparse
import csv
import io
import json
import sys

from .catalog import catalog_roster, realize
from .errors import (
    CharposetError,
    ClosureCapExceeded,
    GroupExprError,
    ParameterOutOfRange,
    PreconditionViolated,
)
from .gamma import (
    _CLAIMS,
    CLAIM_IDS,
    CSV_COLUMNS,
    char_context,
    gamma_poset,
    s_poset,
    scan_nontrivial_I,
    verify,
)
from .group import is_p_power, is_prime, order_cap, p_valuation

_THEOREM_FLAGS = {c.removeprefix("Thm"): c for c in CLAIM_IDS}


def _build_parser():
    top = argparse.ArgumentParser(
        prog="charposet",
        description="Exact connectivity of character-augmented "
                    "p-subgroup posets.")
    sub = top.add_subparsers(dest="command", required=True)

    irr = sub.add_parser("irr", help="print the irreducible character table")
    irr.add_argument("expr")

    ps = sub.add_parser("psubgroups", help="list the p-subgroup poset")
    ps.add_argument("--p", type=int, required=True)
    ps.add_argument("--e", type=int, default=0)
    ps.add_argument("expr")

    comp = sub.add_parser("components", help="count connected components")
    comp.add_argument("--p", type=int, required=True)
    comp.add_argument("--e", type=int, default=0)
    comp.add_argument("--poset", choices=["gamma", "s"], default="gamma")
    comp.add_argument("expr")

    ver = sub.add_parser("verify", help="verify one claim on one group")
    ver.add_argument("--theorem", choices=sorted(_THEOREM_FLAGS),
                     required=True)
    ver.add_argument("--p", type=int, required=True)
    ver.add_argument("--e", type=int, default=0)
    ver.add_argument("--json", action="store_true")
    ver.add_argument("expr")

    scan = sub.add_parser("scan-q1",
                          help="scan catalog p-groups for nontrivial I")
    scan.add_argument("--p", type=int, required=True)
    scan.add_argument("--k", type=int, default=2)
    scan.add_argument("--max-order", type=int, default=None)

    cat = sub.add_parser("catalog-run",
                         help="verify every applicable claim on the catalog")
    cat.add_argument("--max-order", type=int, default=None)
    fmt = cat.add_mutually_exclusive_group()
    fmt.add_argument("--json", action="store_true")
    fmt.add_argument("--csv", action="store_true")
    return top


def _check_usage(args):
    """Reject environment and argument values that no command can use."""
    order_cap()                  # raises ValueError on a bad CHARPOSET_ORDER_CAP
    # is_prime raises PreconditionViolated past its exact range
    if "p" in args and not is_prime(args.p):
        raise ValueError(f"--p must be prime, got {args.p}")
    if "e" in args and args.e < 0:
        raise ValueError(f"--e must be >= 0, got {args.e}")
    if "k" in args and args.k < 1:
        raise ValueError(f"--k must be >= 1, got {args.k}")


def _table(rows, header):
    """Render rows as an aligned table with a header line."""
    widths = [len(h) for h in header]
    srows = [[str(c) for c in r] for r in rows]
    for r in srows:
        for i, c in enumerate(r):
            widths[i] = max(widths[i], len(c))
    lines = ["  ".join(h.ljust(w) for h, w in zip(header, widths)).rstrip()]
    for r in srows:
        lines.append("  ".join(c.rjust(w) for c, w in zip(r, widths)))
    return "\n".join(lines)


def _cmd_irr(args, out):
    G = realize(args.expr)
    ctx = char_context(G)
    t = ctx.table()
    print(f"group: {G.label}  order: {G.order}  exponent: {G.exponent()}  "
          f"modulus q: {ctx.q}", file=out)
    reps = [int(r) for r in t.classes.reps]
    rows = []
    for c, rep in enumerate(reps):
        rows.append([c, int(t.classes.sizes[c]), int(G.elem_order[rep]),
                     G.word(rep)])
    print(f"classes: {t.classes.count}", file=out)
    print(_table(rows, ["class", "size", "order", "rep"]), file=out)
    print(f"characters: {t.count} (values are residues mod q)", file=out)
    crows = [[f"chi{i}", ch.degree] + list(ch.values)
             for i, ch in enumerate(t.chars)]
    print(_table(crows, ["char", "deg"] + [f"c{c}" for c in range(len(reps))]),
          file=out)
    return 0


def _cmd_psubgroups(args, out):
    G = realize(args.expr)
    lat = s_poset(G, args.p, args.e)
    print(f"group: {G.label}  p: {args.p}  e: {args.e}", file=out)
    print(f"nodes: {lat.node_count}  covers: {len(lat.covers)}  "
          f"sylow nodes: {list(lat.sylow_ids)}", file=out)
    rows = [[i, sub.order, " ".join(str(m) for m in sub.members)]
            for i, sub in enumerate(lat.nodes)]
    print(_table(rows, ["node", "order", "members"]), file=out)
    print(f"components: {lat.partition.count}", file=out)
    return 0


def _cmd_components(args, out):
    G = realize(args.expr)
    if args.poset == "s":
        lat = s_poset(G, args.p, args.e)
        part = lat.node_count, len(lat.covers), lat.partition
    else:
        gam = gamma_poset(G, args.p, args.e)
        part = gam.node_count, len(gam.edges), gam.partition
    nodes, edges, partition = part
    print(f"group: {G.label}  p: {args.p}  e: {args.e}  "
          f"poset: {args.poset}", file=out)
    print(f"nodes: {nodes}  edges: {edges}", file=out)
    print(f"components: {partition.count}", file=out)
    print("sizes: " + " ".join(str(s) for s in partition.component_sizes),
          file=out)
    return 0


def _cmd_verify(args, out):
    G = realize(args.expr)
    report = verify(G, args.p, args.e, _THEOREM_FLAGS[args.theorem])
    if args.json:
        print(report.to_json(), file=out)
    else:
        print(f"{report.claim} p={report.p} e={report.e} "
              f"group={report.group}: {report.status.upper()}", file=out)
        print("observed: " + json.dumps(report.observed, sort_keys=True),
              file=out)
        print("expected: " + json.dumps(report.expected, sort_keys=True),
              file=out)
    return 1 if report.status == "fail" else 0


def _catalog_groups(texts, max_order):
    """Realize the catalog expressions one at a time, yielding each group of
    order at most max_order, if given.

    A catalog group that exceeds the order cap is skipped when max_order is
    within the cap, since its order then exceeds max_order too.
    """
    for text in texts:
        try:
            G = realize(text)
        except (ParameterOutOfRange, ClosureCapExceeded):
            if max_order is not None and max_order <= order_cap():
                continue
            raise
        if max_order is None or G.order <= max_order:
            yield G


def _cmd_scan_q1(args, out):
    roster = [G for G in _catalog_groups(catalog_roster(), args.max_order)
              if is_p_power(G.order, args.p)
              and p_valuation(G.order, args.p) >= args.k]
    results, errors = scan_nontrivial_I(roster, args.p, args.k)
    print(f"p: {args.p}  k: {args.k}  groups scanned: {len(roster)}",
          file=out)
    if results:
        print(_table(results, ["group", "|I|"]), file=out)
    else:
        print("no groups with nontrivial I", file=out)
    for label, msg in errors:
        print(f"error: {label}: {msg}", file=sys.stderr)
    return 3 if errors else 0


def _cmd_catalog_run(args, out):
    reports = []
    for G in _catalog_groups(sorted(catalog_roster()), args.max_order):
        for p in (2, 3):
            for claim, (_, es) in _CLAIMS.items():
                for e in es:
                    reports.append(verify(G, p, e, claim))
    reports.sort(key=lambda r: (r.group, r.p, r.e, r.claim))
    failures = sum(1 for r in reports if r.status == "fail")
    if args.json:
        print(json.dumps([json.loads(r.to_json()) for r in reports]),
              file=out)
    elif args.csv:
        buf = io.StringIO()
        w = csv.writer(buf)
        w.writerow(CSV_COLUMNS)
        for r in reports:
            w.writerow(r.csv_row())
        out.write(buf.getvalue())
    else:
        rows = [[r.group, r.p, r.e, r.claim, r.status] for r in reports]
        print(_table(rows, ["group", "p", "e", "claim", "status"]), file=out)
        passed = sum(1 for r in reports if r.status == "pass")
        inapp = sum(1 for r in reports if r.status == "inapplicable")
        print(f"pass: {passed}  fail: {failures}  inapplicable: {inapp}",
              file=out)
    return 1 if failures else 0


_COMMANDS = {
    "irr": _cmd_irr,
    "psubgroups": _cmd_psubgroups,
    "components": _cmd_components,
    "verify": _cmd_verify,
    "scan-q1": _cmd_scan_q1,
    "catalog-run": _cmd_catalog_run,
}


def run(argv, out=None):
    out = out or sys.stdout
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return 2 if exc.code not in (0, None) else 0
    try:
        _check_usage(args)
    except (ValueError, PreconditionViolated) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    try:
        return _COMMANDS[args.command](args, out)
    except GroupExprError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except CharposetError as exc:
        print(f"error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main():
    sys.exit(run(sys.argv[1:]))


if __name__ == "__main__":
    main()
