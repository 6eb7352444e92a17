#!/usr/bin/env python3
"""Validate BENCH_nocmap.json trajectory files (shape + determinism).

Usage:
    check_bench_json.py FILE [FILE...]

Every record has the one shape `nocmap_cli flow run NAME --json` writes
(see docs/PERFORMANCE.md):

    {"label": str, "suite": str, "threads": int, "rows": [row, ...]}

A row maps column keys to scalars (number, string or null), holds each
op-counter snapshot as an object whose keys are counter names, and keeps
its wall-clock cells apart in an optional "wall" object of numbers. The
counter names are read from the one field list, the `snapshot_fields!`
invocation in crates/core/src/perf.rs.

With more than one file, every later file must hold the same record
labels as the first, and each record's deterministic part (its suite and
its rows without "wall") must equal the first file's. CI passes the
committed file plus copies with one record regenerated at 1 and at 4
workers, so a difference is a stale committed record or a
determinism-contract violation.
"""

import json
import pathlib
import re
import sys

PERF_RS = pathlib.Path(__file__).resolve().parent.parent / "crates/core/src/perf.rs"


def counter_names():
    text = PERF_RS.read_text()
    block = text[text.index("snapshot_fields! {") :]
    block = block[: block.index("}")]
    return set(re.findall(r"^\s*(\w+) =>", block, re.M))


class Bad(Exception):
    pass


def check(ok, message):
    if not ok:
        raise Bad(message)


def is_number(v):
    return isinstance(v, (int, float)) and not isinstance(v, bool)


def load(path, counters):
    with open(path) as f:
        doc = json.load(f)
    check(doc.get("schema") == 2, f"{path}: unexpected schema {doc.get('schema')}")
    records = doc.get("trajectory")
    check(isinstance(records, list) and records, f"{path}: empty or missing trajectory")
    labels = [r.get("label") for r in records]
    dupes = sorted({lbl for lbl in labels if labels.count(lbl) > 1})
    check(not dupes, f"{path}: duplicate record labels {dupes}")
    for r in records:
        where = f"{path}: record '{r.get('label')}'"
        check(set(r) == {"label", "suite", "threads", "rows"}, f"{where}: keys {sorted(r)}")
        check(isinstance(r["suite"], str), f"{where}: suite is not a name")
        check(isinstance(r["threads"], int) and r["threads"] >= 1, f"{where}: bad threads")
        check(isinstance(r["rows"], list) and r["rows"], f"{where}: no rows")
        for row in r["rows"]:
            check(isinstance(row, dict), f"{where}: a row is not an object")
            for key, value in row.items():
                if key == "wall":
                    check(
                        isinstance(value, dict) and all(map(is_number, value.values())),
                        f"{where}: wall cells must be numbers: {value}",
                    )
                elif isinstance(value, dict):
                    unknown = sorted(set(value) - counters)
                    check(not unknown, f"{where}: unknown op keys {unknown} in '{key}'")
                    check(
                        all(isinstance(n, int) and n >= 0 for n in value.values()),
                        f"{where}: op counts in '{key}' must be non-negative integers",
                    )
                else:
                    check(
                        value is None or is_number(value) or isinstance(value, str),
                        f"{where}: cell '{key}' is not a scalar",
                    )
    return {r["label"]: r for r in records}


def show_diff(where, a, b):
    if isinstance(a, dict) and isinstance(b, dict):
        for key in sorted(set(a) | set(b)):
            show_diff(f"{where}.{key}", a.get(key), b.get(key))
    elif a != b:
        print(f"  {where}: {a} != {b}")


def deterministic(record):
    rows = [{k: v for k, v in row.items() if k != "wall"} for row in record["rows"]]
    return record["suite"], rows


def main(argv):
    if len(argv) < 2:
        print(__doc__)
        return 2
    counters = counter_names()
    try:
        docs = [load(path, counters) for path in argv[1:]]
    except Bad as e:
        print(f"FAIL: {e}")
        return 1
    for path in argv[1:]:
        print(f"{path}: shape OK")
    first, failed = docs[0], False
    for path, doc in zip(argv[2:], docs[1:]):
        if doc.keys() != first.keys():
            print(f"FAIL: {path}: labels {sorted(doc)} != {sorted(first)} in {argv[1]}")
            failed = True
            continue
        for label in first:
            (sa, ra), (sb, rb) = deterministic(first[label]), deterministic(doc[label])
            if (sa, ra) == (sb, rb):
                continue
            failed = True
            print(f"FAIL: {path}: record '{label}': deterministic fields differ from {argv[1]}")
            show_diff("suite", sa, sb)
            for i, (a, b) in enumerate(zip(ra, rb)):
                show_diff(f"rows[{i}]", a, b)
            if len(ra) != len(rb):
                print(f"  {len(ra)} rows != {len(rb)} rows")
    if failed:
        return 1
    if len(docs) > 1:
        print(f"deterministic fields identical across {len(docs)} files, {len(first)} records")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
