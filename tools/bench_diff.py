#!/usr/bin/env python3
"""Compare two BENCH_*.json records and flag regressions.

Usage:
    tools/bench_diff.py OLD.json NEW.json
        Print old -> new deltas for every shared numeric summary
        (median / p90 / p99 / max blocks and scalar ratios).

    tools/bench_diff.py OLD.json NEW.json --check repair_all_us.p90<=1.5
        Additionally require NEW's repair_all_us.p90 to be at most
        1.5x OLD's; exit nonzero when the bound is violated.  Repeatable.
        For keys where bigger is better (e.g. median_speedup) use >=
        instead: --check median_speedup>=0.8 requires NEW to keep at least
        0.8x OLD's value.

    tools/bench_diff.py NEW.json --validate
        Schema-only check of a single record (keys and shapes present);
        exit nonzero on a malformed file.  No timings are judged — shared
        CI hosts are noisy, so wall-clock assertions do not belong in CI.

Only dotted keys resolving to numbers are compared.  Tail blocks written by
the bench ({"median": ..., "p90": ..., "p99": ..., "max": ...}) expand to one
dotted key per field.
"""

import argparse
import json
import re
import sys

TAIL_FIELDS = ("median", "p90", "p99", "max")

# Keys every schema-v3 routing record must carry (see docs/formats.md).
SCHEMA_VERSION = 3

TAIL_BLOCKS = ("lazy_us", "repair_all_us", "rebuild_us", "invalidated_sources",
               "repaired_sources", "rounds_salvaged", "relaxations")

ROUTING_REQUIRED = {
    "schema_version": int,
    "network_size": int,
    "events": int,
    "repair_threads": int,
    "lazy_queries_per_event": int,
    "median_speedup": float,
    "per_event": list,
    **{key: dict for key in TAIL_BLOCKS},
}

PER_EVENT_REQUIRED = {
    "kind": str,
    "invalidated": int,
    "repaired": int,
    "rounds_salvaged": int,
    "relaxations": int,
    "lazy_us": float,
    "repair_all_us": float,
    "rebuild_us": float,
}


def flatten(record, prefix=""):
    """Dotted-key -> number view of a record; tail blocks expand per field."""
    out = {}
    for key, value in record.items():
        dotted = f"{prefix}{key}"
        if isinstance(value, bool):
            continue
        if isinstance(value, (int, float)):
            out[dotted] = float(value)
        elif isinstance(value, dict):
            out.update(flatten(value, prefix=f"{dotted}."))
        # Lists (per_event) are intentionally skipped: deltas over individual
        # events are noise; the tail summaries carry the signal.
    return out


def validate(record, path):
    errors = []
    for key, kind in ROUTING_REQUIRED.items():
        if key not in record:
            errors.append(f"missing key: {key}")
            continue
        value = record[key]
        if kind is float and isinstance(value, (int, float)):
            continue
        if kind is int and isinstance(value, int):
            continue
        if kind in (dict, list) and isinstance(value, kind):
            continue
        errors.append(f"key {key}: expected {kind.__name__}, "
                      f"got {type(value).__name__}")
    for key in TAIL_BLOCKS:
        block = record.get(key)
        if not isinstance(block, dict):
            continue
        for field in TAIL_FIELDS:
            if field not in block:
                errors.append(f"tail block {key} missing {field}")
    for i, event in enumerate(record.get("per_event", [])):
        if not isinstance(event, dict):
            errors.append(f"per_event[{i}]: not an object")
            continue
        for key, kind in PER_EVENT_REQUIRED.items():
            value = event.get(key)
            if value is None:
                errors.append(f"per_event[{i}] missing {key}")
            elif kind is float and not isinstance(value, (int, float)):
                errors.append(f"per_event[{i}].{key}: not a number")
            elif kind in (int, str) and not isinstance(value, kind):
                errors.append(f"per_event[{i}].{key}: not {kind.__name__}")
    if record.get("schema_version") != SCHEMA_VERSION:
        errors.append(f"schema_version: expected {SCHEMA_VERSION}, "
                      f"got {record.get('schema_version')!r}")
    for error in errors:
        print(f"{path}: {error}", file=sys.stderr)
    return not errors


CHECK_RE = re.compile(r"^([A-Za-z0-9_.]+)(<=|>=)([0-9.]+)$")


def parse_check(text):
    m = CHECK_RE.match(text)
    if not m:
        raise argparse.ArgumentTypeError(
            f"bad --check {text!r}: expected KEY<=FACTOR or KEY>=FACTOR")
    return m.group(1), m.group(2), float(m.group(3))


def main():
    parser = argparse.ArgumentParser(
        description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    parser.add_argument("old", help="baseline record (or the sole record "
                        "with --validate)")
    parser.add_argument("new", nargs="?", help="candidate record")
    parser.add_argument("--check", action="append", type=parse_check,
                        default=[], metavar="KEY<=FACTOR",
                        help="fail when NEW/OLD for KEY exceeds FACTOR "
                        "(<=) or falls below it (>=); repeatable")
    parser.add_argument("--validate", action="store_true",
                        help="schema-check the record(s) and exit")
    args = parser.parse_args()

    with open(args.old) as fh:
        old = json.load(fh)
    new = None
    if args.new is not None:
        with open(args.new) as fh:
            new = json.load(fh)

    if args.validate:
        ok = validate(old, args.old)
        if new is not None:
            ok = validate(new, args.new) and ok
        return 0 if ok else 1

    if new is None:
        parser.error("NEW.json required unless --validate")

    old_flat, new_flat = flatten(old), flatten(new)
    shared = sorted(set(old_flat) & set(new_flat))
    if not shared:
        print("no shared numeric keys", file=sys.stderr)
        return 1

    width = max(len(k) for k in shared)
    for key in shared:
        a, b = old_flat[key], new_flat[key]
        ratio = f"{b / a:7.3f}x" if a else "    n/a "
        print(f"{key:<{width}}  {a:>14.4g} -> {b:<14.4g} {ratio}")

    failures = 0
    for key, op, factor in args.check:
        a, b = old_flat.get(key), new_flat.get(key)
        if a is None or b is None:
            print(f"check {key}: key absent from "
                  f"{'OLD' if a is None else 'NEW'}", file=sys.stderr)
            failures += 1
            continue
        if a == 0:
            print(f"check {key}: OLD value is 0, ratio undefined",
                  file=sys.stderr)
            failures += 1
            continue
        ratio = b / a
        ok = ratio <= factor if op == "<=" else ratio >= factor
        verdict = "ok" if ok else "FAIL"
        print(f"check {key} {op} {factor}: ratio {ratio:.3f} {verdict}")
        failures += 0 if ok else 1
    return 0 if failures == 0 else 1


if __name__ == "__main__":
    sys.exit(main())
