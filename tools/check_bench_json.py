#!/usr/bin/env python3
"""Validate BENCH_nocmap.json trajectory files (schema + determinism).

Usage:
    check_bench_json.py FILE [FILE2]

With one file: validates the schema (top-level keys, per-run and
per-suite fields, op-counter keys). With two files: additionally asserts
that the *deterministic* fields of the two files' latest run records are
identical — CI passes records produced at ``--threads 1`` and ``4``, so
any divergence is a determinism-contract violation. Wall-time fields
(``map_ms`` / ``anneal_ms`` / ``trace_ms``) are machine-dependent and
excluded. Frontier records (``"frontier"`` instead of ``"suites"``),
service records (``"service"``) and resilience records
(``"resilience"``) carry no wall-clock at all, so every field of their
rows is compared.

See docs/PERFORMANCE.md for the schema.
"""

import json
import sys

OP_KEYS_V1 = {
    "path_queries",
    "dijkstra_pops",
    "scratch_allocs",
    "group_routes",
    "full_maps",
    "groups_rerouted",
    "groups_reused",
    "anneal_moves",
    "anneal_accepts",
}
# PR 6 added the slot-conflict counter pair; records written earlier
# carry the V1 key set and stay valid.
OP_KEYS_V2 = OP_KEYS_V1 | {"conflict_word_tests", "legacy_slot_probes"}
# PR 7 added the trace-span counter (stays 0 with no collector — the
# pay-for-use proof) and the trace_ms wall column per suite.
OP_KEYS_V3 = OP_KEYS_V2 | {"trace_spans"}
# PR 8 added the route-cache hit/miss pair (strategy portfolio).
OP_KEYS_V4 = OP_KEYS_V3 | {"route_cache_hits", "route_cache_misses"}
# PR 9 added the online-admission counters (nocd service).
OP_KEYS_V5 = OP_KEYS_V4 | {
    "admissions",
    "rejections",
    "displacement_evictions",
    "batch_flushes",
}
# PR 10 added the fault-injection / self-healing counters.
OP_KEYS_V6 = OP_KEYS_V5 | {
    "faults_injected",
    "heals_attempted",
    "heal_reroutes",
    "heal_evictions",
}
OP_KEY_SETS = (OP_KEYS_V1, OP_KEYS_V2, OP_KEYS_V3, OP_KEYS_V4, OP_KEYS_V5, OP_KEYS_V6)
SUITE_KEYS = {"label", "switches", "map_ms", "anneal_ms", "map_ops", "anneal_ops"}
SUITE_KEYS_V2 = SUITE_KEYS | {"trace_ms"}
# Frontier records: one row per (benchmark, strategy), strategy-keyed
# quality and op columns. Every field is deterministic (no wall-clock).
FRONTIER_ROW_KEYS = {"bench", "strategy", "switches", "cost", "evictions", "ops"}
STRATEGIES = {"greedy", "displacement"}
# PR 9 service records: one row per (fabric, admission mode), admission
# outcome + reconfiguration ops. Every field is deterministic (the
# seeded trace replays byte-identically at any worker count).
SERVICE_ROW_KEYS = {
    "fabric",
    "mode",
    "admitted",
    "rejected",
    "displaced",
    "evictions",
    "flushes",
    "ops",
}
MODES = {"incremental", "resolve"}
# PR 10 resilience records: one row per fabric, fault-injection outcome
# + self-healing repair ops. Every field is deterministic (the fault
# schedule is a pure function of the config and seed).
RESILIENCE_ROW_KEYS = {
    "fabric",
    "faults",
    "admitted",
    "rejected",
    "links_failed",
    "nis_failed",
    "degraded",
    "healed",
    "ops",
}


def load(path):
    with open(path) as f:
        doc = json.load(f)
    assert doc.get("schema") == 1, f"{path}: unexpected schema {doc.get('schema')}"
    runs = doc.get("trajectory")
    assert isinstance(runs, list) and runs, f"{path}: empty or missing trajectory"
    labels = [run.get("label") for run in runs]
    dupes = {lbl for lbl in labels if labels.count(lbl) > 1}
    assert not dupes, f"{path}: duplicate run labels {sorted(dupes)}"
    for run in runs:
        assert isinstance(run["threads"], int) and run["threads"] >= 1
        if "frontier" in run:
            assert set(run) == {"label", "threads", "frontier"}, (
                f"{path}: bad frontier run keys {set(run)}"
            )
            assert run["frontier"], f"{path}: run '{run['label']}' has no rows"
            for row in run["frontier"]:
                assert set(row) == FRONTIER_ROW_KEYS, f"{path}: bad row keys {set(row)}"
                assert row["strategy"] in STRATEGIES, f"{path}: bad strategy {row['strategy']}"
                assert set(row["ops"]) in OP_KEY_SETS, f"{path}: bad ops keys {set(row['ops'])}"
            continue
        if "resilience" in run:
            assert set(run) == {"label", "threads", "resilience"}, (
                f"{path}: bad resilience run keys {set(run)}"
            )
            assert run["resilience"], f"{path}: run '{run['label']}' has no rows"
            for row in run["resilience"]:
                assert set(row) == RESILIENCE_ROW_KEYS, f"{path}: bad row keys {set(row)}"
                assert set(row["ops"]) in OP_KEY_SETS, f"{path}: bad ops keys {set(row['ops'])}"
            continue
        if "service" in run:
            assert set(run) == {"label", "threads", "service"}, (
                f"{path}: bad service run keys {set(run)}"
            )
            assert run["service"], f"{path}: run '{run['label']}' has no rows"
            for row in run["service"]:
                assert set(row) == SERVICE_ROW_KEYS, f"{path}: bad row keys {set(row)}"
                assert row["mode"] in MODES, f"{path}: bad mode {row['mode']}"
                assert set(row["ops"]) in OP_KEY_SETS, f"{path}: bad ops keys {set(row['ops'])}"
            continue
        assert set(run) == {"label", "threads", "suites"}, f"{path}: bad run keys {set(run)}"
        assert run["suites"], f"{path}: run '{run['label']}' has no suites"
        for suite in run["suites"]:
            assert set(suite) in (SUITE_KEYS, SUITE_KEYS_V2), (
                f"{path}: bad suite keys {set(suite)}"
            )
            for ops_key in ("map_ops", "anneal_ops"):
                assert set(suite[ops_key]) in OP_KEY_SETS, (
                    f"{path}: bad {ops_key} keys {set(suite[ops_key])}"
                )
    return doc


def deterministic(run):
    if "frontier" in run:
        # Frontier rows carry no wall-clock: every field must match.
        return run["frontier"]
    if "service" in run:
        # Service rows carry no wall-clock either.
        return run["service"]
    if "resilience" in run:
        # Resilience rows carry no wall-clock either.
        return run["resilience"]
    return [
        {k: s[k] for k in ("label", "switches", "map_ops", "anneal_ops")}
        for s in run["suites"]
    ]


def main(argv):
    if len(argv) not in (2, 3):
        print(__doc__)
        return 2
    docs = [load(p) for p in argv[1:]]
    for path in argv[1:]:
        print(f"{path}: schema OK")
    if len(docs) == 2:
        a, b = (deterministic(d["trajectory"][-1]) for d in docs)
        if a != b:
            print("FAIL: deterministic fields differ between the two records")
            for sa, sb in zip(a, b):
                if sa != sb:
                    print(f"  suite {sa['label']}: {sa} != {sb}")
            return 1
        print(f"deterministic fields identical across {len(a)} suites")
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
