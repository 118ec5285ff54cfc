"""Reach report: which functions of ``src/repro`` tier-1 and the
product surface call, joined with the reasons table.

    python tests/reach/reach.py DUMP_DIR [--out REACH.json]

``DUMP_DIR`` holds the per-process dumps ``sitecustomize`` wrote.  An
AST walk lists every ``def`` of ``src/repro``, keyed by its file and the
line of its first decorator (what ``co_firstlineno`` reports); a nested
function counts inside its outermost one.  A function tier-1 reaches
and the product does not is *test-only*; one nothing reaches is
*never called*.  Each of those takes its reason from ``reasons.txt``
(the first row that matches: ``file:Qual.name``, then ``file:Qual.*``,
then ``file:*``, then ``*:name``); one with no row is listed under ``unmatched`` rather
than skipped.  The report gates nothing.
"""

import argparse
import ast
import json
import sys
from collections import defaultdict
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parents[1] / "src" / "repro"
VOCABULARY = {
    "oracle", "flag-only", "paper-construct", "safety", "readme",
    "frozen-ruler", "repr",
}


def functions(root: Path = SRC):
    """``(file, qualname, first_line, lines)`` of every outermost def."""
    for path in sorted(root.rglob("*.py")):
        rel = path.relative_to(root).as_posix()
        yield from _defs(ast.parse(path.read_text()).body, rel, "")


def _defs(body, rel, prefix):
    for node in body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            first = min([node.lineno] + [d.lineno for d in node.decorator_list])
            yield rel, prefix + node.name, first, node.end_lineno - first + 1
        elif isinstance(node, ast.ClassDef):
            yield from _defs(node.body, rel, f"{prefix}{node.name}.")
        else:  # defs under a module-level if / try / with
            for field in ("body", "orelse", "finalbody", "handlers"):
                inner = getattr(node, field, None)
                if isinstance(inner, list):
                    yield from _defs(inner, rel, prefix)


def load_reasons(path: Path = HERE / "reasons.txt") -> dict:
    reasons = {}
    for n, line in enumerate(path.read_text().splitlines(), 1):
        line = line.split("#", 1)[0].strip()
        if not line:
            continue
        key, reason = line.split()
        if reason not in VOCABULARY:
            raise SystemExit(f"{path}:{n}: reason {reason!r} not in "
                             f"{sorted(VOCABULARY)}")
        reasons[key] = reason
    return reasons


def reason_for(file, qualname, reasons):
    keys = [f"{file}:{qualname}"]
    if "." in qualname:
        keys.append(f"{file}:{qualname.rsplit('.', 1)[0]}.*")
    keys += [f"{file}:*", f"*:{qualname.rsplit('.', 1)[-1]}"]
    for key in keys:
        if key in reasons:
            return key, reasons[key]
    return None, None


def report(dump_dir: Path) -> dict:
    reached = defaultdict(set)  # tag -> {(file, line)}
    for dump in sorted(dump_dir.glob("*.json")):
        record = json.loads(dump.read_text())
        reached[record["tag"]].update(map(tuple, record["calls"]))
    reasons = load_reasons()
    used, rows, unmatched = set(), [], []
    totals = defaultdict(lambda: [0, 0])
    for file, qualname, line, lines in functions():
        tier1 = (file, line) in reached["tier1"]
        product = (file, line) in reached["product"]
        kind = ("product" if product else "test-only" if tier1
                else "never-called")
        totals[kind][0] += 1
        totals[kind][1] += lines
        row = {"id": f"{file}:{qualname}", "line": line, "lines": lines,
               "tier1": tier1, "product": product}
        if kind != "product":
            key, reason = reason_for(file, qualname, reasons)
            row["reason"] = reason
            if key:
                used.add(key)
            else:
                unmatched.append({"id": row["id"], "kind": kind,
                                  "lines": lines})
        rows.append(row)
    return {
        "code_objects_reached": {tag: len(c) for tag, c in reached.items()},
        "summary": {
            "functions": sum(t[0] for t in totals.values()),
            "lines": sum(t[1] for t in totals.values()),
            **{kind: {"functions": t[0], "lines": t[1]}
               for kind, t in sorted(totals.items())},
            "unmatched": len(unmatched),
        },
        "unmatched": unmatched,
        # rows naming no test-only or never-called function any more
        "stale_reasons": sorted(set(reasons) - used),
        "functions": rows,
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("dumps", type=Path)
    ap.add_argument("--out", type=Path, default=Path("REACH.json"))
    args = ap.parse_args(argv)
    result = report(args.dumps)
    args.out.write_text(json.dumps(result, indent=1) + "\n")
    print(json.dumps(result["summary"], indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
