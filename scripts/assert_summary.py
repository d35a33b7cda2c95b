#!/usr/bin/env python3
"""Assert expressions against a bench --summary-json file.

    assert_summary.py SUMMARY.json EXPR [EXPR...]

Each EXPR is a Python expression evaluated with the summary's top-level
fields as names (plus `summary` for the whole document and the len/all/any/
sum/min/max builtins). Every expression must be truthy; otherwise the
failing expressions and the full summary are printed and the exit code is 1.

    assert_summary.py summary.json 'ok' \
        'sweep["simulated"] == sweep["points"]'
"""
import json
import sys


def main() -> int:
    if len(sys.argv) < 3:
        print(__doc__.strip(), file=sys.stderr)
        return 2
    path, exprs = sys.argv[1], sys.argv[2:]
    with open(path) as f:
        summary = json.load(f)

    env = dict(summary)
    env["summary"] = summary
    builtins = {"len": len, "all": all, "any": any, "sum": sum,
                "min": min, "max": max}
    failed = []
    for expr in exprs:
        try:
            ok = eval(expr, {"__builtins__": builtins}, env)  # noqa: S307
        except Exception as e:  # noqa: BLE001 - report, don't crash the gate
            failed.append(f"{expr}  (raised {type(e).__name__}: {e})")
            continue
        if not ok:
            failed.append(expr)

    if failed:
        for expr in failed:
            print(f"assert_summary: FAILED on {path}: {expr}", file=sys.stderr)
        print(json.dumps(summary, indent=2), file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
