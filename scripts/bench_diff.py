#!/usr/bin/env python3
"""Compare bench artifacts: two BENCH_*.json files or two snapshot dirs.

Usage: scripts/bench_diff.py OLD NEW

Drops the host-timed fields (top-level "host_ms" and "host") and compares
the rest as parsed JSON, keeping key order and each number's literal text:
as strict as cmp apart from those fields. Directories are compared file by
file: every BENCH_<id>.json, and ARTIFACTS.sha256 (run_benches.sh's digests
of the trace, pcap and CSV) byte for byte. A JSON file without
"schema_version" (the google-benchmark CRYPTO export) is host timing
throughout, so it only has to exist. Prints the first differing paths and a
before/after table of the host-timed fields; exits 1 on any difference or
missing file.
"""
import json
import os
import re
import sys

BENCH_FILE = re.compile(r"^BENCH_([^.]+)\.json$")
DIGESTS = "ARTIFACTS.sha256"
MAX_PATHS = 10


class Num(str):
    """A JSON number, kept as its literal text."""


class Obj(list):
    """A JSON object, kept as its ordered (key, value) pairs."""


def load(path):
    """Returns (document without host-timed fields, {name: value} of them)."""
    with open(path) as f:
        doc = json.load(f, object_pairs_hook=Obj, parse_int=Num,
                        parse_float=Num)
    host = dict(p for p in doc if p[0] == "host_ms")
    host.update(dict(doc).get("host", []))
    return Obj(p for p in doc if p[0] not in ("host_ms", "host")), host


def show(v):
    if isinstance(v, list):
        return "{...}" if isinstance(v, Obj) else "[...]"
    return v if isinstance(v, Num) else json.dumps(v)


def diff(old, new, path, out):
    """Appends a "path: old -> new" line to `out` for each difference."""
    if type(old) is not type(new) or (not isinstance(old, list) and old != new):
        out.append(f"{path}: {show(old)} -> {show(new)}")
        return
    if not isinstance(old, list):
        return
    for i, (o, n) in enumerate(zip(old, new)):
        if not isinstance(old, Obj):
            diff(o, n, f"{path}[{i}]", out)
        elif o[0] != n[0]:
            out.append(f"{path}: key #{i} is {o[0]!r} -> {n[0]!r}")
            return
        else:
            diff(o[1], n[1], f"{path}/{o[0]}", out)
    if len(old) != len(new):
        out.append(f"{path}: {len(old)} -> {len(new)} entries")


def compare_json(old_path, new_path, label, host_rows):
    try:
        old, old_host = load(old_path)
        new, new_host = load(new_path)
    except ValueError as e:
        return [f"not JSON: {e}"]
    for name in {**old_host, **new_host}:
        host_rows.append((label, name, old_host.get(name), new_host.get(name)))
    if "schema_version" not in dict(old):
        return []
    out = []
    diff(old, new, "", out)
    return out


def compare_bytes(old_path, new_path):
    with open(old_path, "rb") as a, open(new_path, "rb") as b:
        old, new = a.read(), b.read()
    if old == new:
        return []
    lines = zip(old.decode().splitlines(), new.decode().splitlines())
    return [f"{o} -> {n}" for o, n in lines if o != n] or ["files differ"]


def main(old, new):
    if os.path.isdir(old) and os.path.isdir(new):
        names = {n for d in (old, new) for n in os.listdir(d)
                 if BENCH_FILE.match(n) or n == DIGESTS}
        pairs = [(n, os.path.join(old, n), os.path.join(new, n))
                 for n in sorted(names)]
    else:
        pairs = [(os.path.basename(new), old, new)]
    failures, host_rows = {}, []
    for name, o, n in pairs:
        missing = [p for p in (o, n) if not os.path.isfile(p)]
        if missing:
            failures[name] = [f"missing: {missing[0]}"]
        elif name == DIGESTS:
            failures[name] = compare_bytes(o, n)
        else:
            bench = BENCH_FILE.match(name)
            label = bench.group(1) if bench else name
            failures[name] = compare_json(o, n, label, host_rows)

    failures = {k: v for k, v in failures.items() if v}
    for name, lines in failures.items():
        print(f"{name}: {len(lines)} difference(s)")
        for line in lines[:MAX_PATHS]:
            print(f"  {line}")
        if len(lines) > MAX_PATHS:
            print(f"  ... and {len(lines) - MAX_PATHS} more")
    if host_rows:
        print(f"\n{'bench':<9} {'host-timed field':<28} {'before':>10} "
              f"{'after':>10} {'before/after':>12}")
    for label, name, before, after in host_rows:
        ratio = (f"{float(before) / float(after):.2f}x"
                 if before and after and float(after) > 0 else "-")
        print(f"{label:<9} {name:<28} {before or '-':>10} {after or '-':>10} "
              f"{ratio:>12}")
    if failures:
        print(f"\nbench_diff: {len(failures)} of {len(pairs)} file(s) differ "
              f"({old} -> {new})")
        return 1
    print(f"\nbench_diff: {len(pairs)} file(s) identical apart from host "
          f"timing ({old} -> {new})")
    return 0


if __name__ == "__main__":
    if len(sys.argv) != 3:
        sys.exit(__doc__)
    sys.exit(main(sys.argv[1], sys.argv[2]))
