#!/usr/bin/env python3
"""Schema + regression guard for the tracked perf baseline (BENCH_PR*.json).

Usage: bench_diff.py BASELINE.json CURRENT.json [--max-regress R]
       bench_diff.py --selftest

Default mode compares the two bench outputs structurally: every record kind
(the "bench" field, plus "mode" where present) must expose the same set of
keys in both files, so a bench refactor cannot silently drop or rename a
metric the perf trajectory depends on.  Exits 1 on drift.

With --max-regress R, the structural check is replaced by a throughput
regression gate: for every (field, mode) record present in BOTH files,
require current compress_gbps/decompress_gbps >= R * baseline.  Entropy
stage times (entropy_encode_seconds/entropy_decode_seconds) are gated
alongside, lower-is-better: current must not exceed baseline / R.  A
baseline generation without the entropy breakdown gates nothing, but once
the baseline carries it, a current record that drops it fails.  Use this
between two committed BENCH_PRn.json files measured on the same machine
(e.g. `bench_diff.py BENCH_PR3.json BENCH_PR4.json --max-regress 0.9`);
schema may legitimately differ across PR generations, so only shared
records are compared — but the current file must cover every per-field
record the baseline has, so a field cannot silently drop out of the suite.

Latency-percentile records (the serving-daemon bench emits
latency_p50_ms/latency_p99_ms) are validated in every mode: both keys must
travel together, both must be finite non-negative numbers, and p50 cannot
exceed p99 — a bench emitting a malformed percentile fails loudly instead
of poisoning the trajectory.

Malformed input — a file that is not a JSON array of objects, a record
missing a section the other file has, a gated metric missing from one
side, or a malformed latency percentile — always produces a one-line
`bench_diff: ...` diagnostic and exit code 1, never a traceback.
`--selftest` exercises those failure paths (CI runs it so the error
handling cannot bit-rot).
"""
import json
import math
import sys

LATENCY_KEYS = ("latency_p50_ms", "latency_p99_ms")


def fail(msg):
    print(f"bench_diff: {msg}", file=sys.stderr)
    sys.exit(1)


def record_kind(rec):
    kind = rec.get("bench", "<missing-bench-key>")
    if "mode" in rec:
        kind += ":" + str(rec["mode"])
    return kind


def record_identity(rec):
    """Stable identity for cross-file throughput comparison."""
    return (rec.get("bench"), rec.get("field"), rec.get("mode"))


def load(path):
    try:
        with open(path) as f:
            records = json.load(f)
    except (OSError, json.JSONDecodeError) as e:
        fail(f"cannot read {path}: {e}")
    if not isinstance(records, list) or not records:
        fail(f"{path}: expected a non-empty JSON array")
    for i, rec in enumerate(records):
        if not isinstance(rec, dict):
            fail(f"{path}: record {i} is not a JSON object "
                 f"(got {type(rec).__name__})")
        if "bench" not in rec:
            fail(f"{path}: record {i} is missing the 'bench' section key")
        check_latency(path, i, rec)
    return records


def check_latency(path, i, rec):
    """Latency percentiles are load-bearing for the serving trajectory:
    validate them on every record that carries any, in every mode."""
    present = [k for k in LATENCY_KEYS if k in rec]
    if not present:
        return
    missing = [k for k in LATENCY_KEYS if k not in rec]
    if missing:
        fail(f"{path}: record {i} ('{record_kind(rec)}') has {present} "
             f"but is missing {missing}")
    for key in LATENCY_KEYS:
        v = rec[key]
        if (isinstance(v, bool) or not isinstance(v, (int, float))
                or not math.isfinite(v) or v < 0):
            fail(f"{path}: record {i} ('{record_kind(rec)}'): '{key}' must "
                 f"be a finite non-negative number, got {v!r}")
    if rec["latency_p50_ms"] > rec["latency_p99_ms"]:
        fail(f"{path}: record {i} ('{record_kind(rec)}'): latency_p50_ms "
             f"{rec['latency_p50_ms']} exceeds latency_p99_ms "
             f"{rec['latency_p99_ms']}")


def schema_of(path, records):
    schema = {}
    for rec in records:
        kind = record_kind(rec)
        keys = frozenset(rec.keys())
        if kind in schema and schema[kind] != keys:
            fail(f"{path}: inconsistent keys within kind '{kind}'")
        schema[kind] = keys
    return schema


def check_schema(base_path, base_records, cur_path, cur_records):
    base_schema = schema_of(base_path, base_records)
    cur_schema = schema_of(cur_path, cur_records)
    ok = True
    for kind in sorted(set(base_schema) | set(cur_schema)):
        if kind not in cur_schema:
            print(f"bench_diff: record kind '{kind}' missing from {cur_path}")
            ok = False
        elif kind not in base_schema:
            print(f"bench_diff: record kind '{kind}' new in {cur_path} "
                  f"(not in baseline)")
            ok = False
        elif base_schema[kind] != cur_schema[kind]:
            gone = sorted(base_schema[kind] - cur_schema[kind])
            new = sorted(cur_schema[kind] - base_schema[kind])
            print(f"bench_diff: key drift in '{kind}': removed={gone} "
                  f"added={new}")
            ok = False
    if ok:
        print(f"bench_diff: schemas match ({len(cur_schema)} record kinds)")
    return ok


def check_regression(base_records, cur_records, ratio):
    base = {record_identity(r): r for r in base_records
            if "compress_gbps" in r and r.get("field")}
    cur = {record_identity(r): r for r in cur_records
           if "compress_gbps" in r and r.get("field")}
    if not base:
        print("bench_diff: baseline has no throughput records to gate on")
        return False
    ok = True
    compared = 0
    for ident in sorted(set(base) & set(cur), key=str):
        compared += 1
        for metric in ("compress_gbps", "decompress_gbps"):
            b, c = base[ident].get(metric), cur[ident].get(metric)
            if b is None or c is None:
                # A gated metric absent on either side is a broken bench,
                # not a pass.
                side = "baseline" if b is None else "current"
                print(f"bench_diff: record {ident} is missing '{metric}' "
                      f"in the {side} file")
                ok = False
                continue
            if b <= 0:
                continue
            if c < ratio * b:
                print(f"bench_diff: REGRESSION {ident}: {metric} "
                      f"{b:.4f} -> {c:.4f} ({c / b:.2f}x < {ratio:.2f}x)")
                ok = False
        for metric in ("entropy_encode_seconds", "entropy_decode_seconds"):
            b = base[ident].get(metric)
            if b is None:
                # Baseline generation predates the entropy breakdown:
                # nothing to gate on for this record.
                continue
            c = cur[ident].get(metric)
            if c is None:
                print(f"bench_diff: record {ident} is missing '{metric}' "
                      f"in the current file")
                ok = False
                continue
            if b <= 0:
                continue
            # Lower is better for stage times: current may be at most
            # baseline / ratio.
            if c > b / ratio:
                print(f"bench_diff: REGRESSION {ident}: {metric} "
                      f"{b:.4f}s -> {c:.4f}s ({b / c:.2f}x < {ratio:.2f}x)")
                ok = False
    # A field silently dropped from the suite must not pass the gate.
    missing = sorted(set(base) - set(cur), key=str)
    for ident in missing:
        print(f"bench_diff: baseline record {ident} missing from current")
        ok = False
    if compared == 0:
        print("bench_diff: no overlapping throughput records to compare")
        return False
    if ok:
        print(f"bench_diff: no regressions below {ratio:.2f}x across "
              f"{compared} records")
    return ok


def selftest():
    """Exercise every failure path end-to-end: each bad input must produce
    a clean one-line diagnostic and exit 1 — no traceback."""
    import subprocess
    import tempfile
    import os

    def run(args):
        return subprocess.run(
            [sys.executable, os.path.abspath(__file__)] + args,
            capture_output=True, text=True)

    def record(**kw):
        base = {"bench": "perf_suite", "field": "f", "mode": "fast",
                "compress_gbps": 1.0, "decompress_gbps": 2.0}
        base.update(kw)
        return base

    def daemon_record(**kw):
        base = {"bench": "perf_suite_serving_daemon", "field": "f",
                "reads_per_s": 5000.0, "latency_p50_ms": 0.2,
                "latency_p99_ms": 1.5}
        base.update(kw)
        return {k: v for k, v in base.items() if v is not ...}

    def serving_record(**kw):
        """perf_suite_archive_serving rows (modes
        nocache/cache/parity/mmap/sharded)."""
        base = {"bench": "perf_suite_archive_serving", "field": "f",
                "mode": "parity", "threads": 4, "reads": 96,
                "reads_per_s": 900.0, "blocks_decoded": 64,
                "cache_hit_rate": 0.0}
        base.update(kw)
        return base

    cases = []  # (name, file_a, file_b, extra_args, expect_rc, expect_text)
    good = [record(), {"bench": "machine", "reps": 1}, daemon_record()]
    cases.append(("identical schemas pass", good, good, [], 0,
                  "schemas match"))
    cases.append(("regression gate passes", good, good,
                  ["--max-regress", "0.9"], 0, "no regressions"))
    cases.append(("not an array", {"bench": "x"}, good, [], 1,
                  "expected a non-empty JSON array"))
    cases.append(("non-object record", [42], good, [], 1,
                  "is not a JSON object"))
    cases.append(("missing bench key", [{"field": "f"}], good, [], 1,
                  "missing the 'bench' section key"))
    cases.append(("dropped record kind", good, [record()], [], 1,
                  "record kind"))
    cases.append(("key drift", good,
                  [record(extra=1), good[1], good[2]], [], 1, "key drift"))
    cases.append(("regression flagged", good,
                  [record(compress_gbps=0.1), good[1], good[2]],
                  ["--max-regress", "0.9"], 1, "REGRESSION"))
    cases.append(("missing gated metric", good,
                  [{k: v for k, v in record().items()
                    if k != "decompress_gbps"}, good[1], good[2]],
                  ["--max-regress", "0.9"], 1,
                  "missing 'decompress_gbps'"))
    cases.append(("dropped field in gate", good,
                  [record(field="other"), good[1], good[2]],
                  ["--max-regress", "0.9"], 1, "missing from current"))
    cases.append(("malformed p99 string", good,
                  good[:2] + [daemon_record(latency_p99_ms="fast")], [], 1,
                  "must be a finite non-negative number"))
    cases.append(("malformed p99 negative", good,
                  good[:2] + [daemon_record(latency_p99_ms=-1.0)], [], 1,
                  "must be a finite non-negative number"))
    cases.append(("malformed p99 null", good,
                  good[:2] + [daemon_record(latency_p99_ms=None)], [], 1,
                  "must be a finite non-negative number"))
    cases.append(("p50 exceeds p99", good,
                  good[:2] + [daemon_record(latency_p50_ms=2.0,
                                            latency_p99_ms=1.0)], [], 1,
                  "exceeds latency_p99_ms"))
    cases.append(("p50 without p99", good,
                  good[:2] + [daemon_record(latency_p99_ms=...)], [], 1,
                  "is missing ['latency_p99_ms']"))
    cases.append(("latency checked in gate mode too", good,
                  good[:2] + [daemon_record(latency_p99_ms="oops")],
                  ["--max-regress", "0.9"], 1,
                  "must be a finite non-negative number"))
    # Entropy stage times gate lower-is-better: slower fails, equal/faster
    # passes, and a current record that drops a metric the baseline carries
    # is a broken bench.  Baselines without the breakdown gate nothing.
    goode = [record(entropy_encode_seconds=0.5,
                    entropy_decode_seconds=0.25), good[1], good[2]]
    cases.append(("entropy seconds equal pass", goode, goode,
                  ["--max-regress", "0.9"], 0, "no regressions"))
    cases.append(("entropy decode slower fails", goode,
                  [record(entropy_encode_seconds=0.5,
                          entropy_decode_seconds=0.30), good[1], good[2]],
                  ["--max-regress", "0.9"], 1,
                  "REGRESSION ('perf_suite', 'f', 'fast'): "
                  "entropy_decode_seconds"))
    cases.append(("entropy encode slower fails", goode,
                  [record(entropy_encode_seconds=0.60,
                          entropy_decode_seconds=0.25), good[1], good[2]],
                  ["--max-regress", "0.9"], 1, "entropy_encode_seconds"))
    cases.append(("entropy within slack passes", goode,
                  [record(entropy_encode_seconds=0.54,
                          entropy_decode_seconds=0.27), good[1], good[2]],
                  ["--max-regress", "0.9"], 0, "no regressions"))
    cases.append(("entropy dropped from current fails", goode,
                  good, ["--max-regress", "0.9"], 1,
                  "missing 'entropy_encode_seconds'"))
    cases.append(("entropy absent from baseline gates nothing", good,
                  goode, ["--max-regress", "0.9"], 0, "no regressions"))
    # The parity serving record rides record_kind's bench:mode identity:
    # present on both sides it passes, appearing only in current is drift
    # (new baseline generation required), and — carrying no compress_gbps —
    # it never participates in the cross-generation throughput gate.
    goodp = good + [serving_record()]
    cases.append(("parity serving record passes schema", goodp, goodp, [], 0,
                  "schemas match"))
    cases.append(("new parity mode is schema drift", good, goodp, [], 1,
                  "new in"))
    cases.append(("parity mode dropped is schema drift", goodp, good, [], 1,
                  "missing from"))
    cases.append(("gate skips serving-only records", goodp,
                  good + [serving_record(reads_per_s=1.0)],
                  ["--max-regress", "0.9"], 0, "no regressions"))
    # The mmap and sharded fetch-mode records introduced with the
    # zero-copy read path are distinct bench:mode kinds under the same
    # rules: matched on both sides they pass, one-sided presence is drift,
    # and (carrying no compress_gbps) the throughput gate skips them.
    goodm = good + [serving_record(mode="mmap"),
                    serving_record(mode="sharded", blocks_decoded=80)]
    cases.append(("mmap+sharded serving records pass schema", goodm, goodm,
                  [], 0, "schemas match"))
    cases.append(("new mmap mode is schema drift", good, goodm, [], 1,
                  "new in"))
    cases.append(("sharded mode dropped is schema drift", goodm,
                  good + [serving_record(mode="mmap")], [], 1,
                  "missing from"))
    cases.append(("mmap serving keys drift like any record", goodm,
                  good + [serving_record(mode="mmap", extra_key=1),
                          serving_record(mode="sharded")], [], 1,
                  "key drift"))
    cases.append(("gate skips mmap serving records too", goodm,
                  good + [serving_record(mode="mmap", reads_per_s=1.0),
                          serving_record(mode="sharded", reads_per_s=1.0)],
                  ["--max-regress", "0.9"], 0, "no regressions"))

    failures = 0
    with tempfile.TemporaryDirectory() as tmp:
        missing_path = os.path.join(tmp, "does_not_exist.json")
        for i, (name, a, b, args, want_rc, want_text) in enumerate(cases):
            pa = os.path.join(tmp, f"a{i}.json")
            pb = os.path.join(tmp, f"b{i}.json")
            with open(pa, "w") as f:
                json.dump(a, f)
            with open(pb, "w") as f:
                json.dump(b, f)
            r = run([pa, pb] + args)
            out = r.stdout + r.stderr
            problems = []
            if r.returncode != want_rc:
                problems.append(f"exit {r.returncode} != {want_rc}")
            if want_text not in out:
                problems.append(f"output lacks {want_text!r}")
            if "Traceback" in out:
                problems.append("raised a traceback")
            status = "ok" if not problems else "FAIL " + "; ".join(problems)
            print(f"selftest: {name}: {status}")
            failures += bool(problems)

        r = run([missing_path, missing_path])
        if r.returncode != 1 or "cannot read" not in r.stdout + r.stderr:
            print("selftest: unreadable file: FAIL")
            failures += 1
        else:
            print("selftest: unreadable file: ok")

    print(f"selftest: {'PASS' if failures == 0 else f'{failures} FAILURES'}")
    return 0 if failures == 0 else 1


def main():
    import argparse
    parser = argparse.ArgumentParser(
        prog="bench_diff.py",
        description=__doc__,
        formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("current", nargs="?")
    parser.add_argument("--max-regress", type=float, default=None,
                        metavar="R")
    parser.add_argument("--selftest", action="store_true",
                        help="run the built-in failure-path tests")
    ns = parser.parse_args()

    if ns.selftest:
        return selftest()
    if not ns.baseline or not ns.current:
        parser.error("baseline and current are required (or use --selftest)")

    base_records = load(ns.baseline)
    cur_records = load(ns.current)

    if ns.max_regress is not None:
        ok = check_regression(base_records, cur_records, ns.max_regress)
    else:
        ok = check_schema(ns.baseline, base_records, ns.current, cur_records)

    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
