#!/usr/bin/env python3
"""Tests for scripts/bench_diff.py on fixtures built from bench/snapshots/.

Each test copies the committed snapshots twice, edits the second copy, and
checks the comparer's verdict: host-timed edits pass, any other edit fails.

Usage:
  python3 tests/test_bench_diff.py
"""
import os
import re
import shutil
import subprocess
import sys
import tempfile
import unittest

REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SNAPSHOTS = os.path.join(REPO, "bench", "snapshots")
BENCH_DIFF = os.path.join(REPO, "scripts", "bench_diff.py")


class BenchDiffTest(unittest.TestCase):
    def setUp(self):
        self.tmp = tempfile.mkdtemp()
        self.old = os.path.join(self.tmp, "old")
        self.new = os.path.join(self.tmp, "new")
        shutil.copytree(SNAPSHOTS, self.old)
        shutil.copytree(SNAPSHOTS, self.new)

    def tearDown(self):
        shutil.rmtree(self.tmp)

    def read(self, name):
        with open(os.path.join(self.new, name)) as f:
            return f.read()

    def write(self, name, text):
        self.assertNotEqual(text, self.read(name), "fixture edit was a no-op")
        with open(os.path.join(self.new, name), "w") as f:
            f.write(text)

    def replace_once(self, name, old, new):
        text = self.read(name)
        self.assertEqual(text.count(old), 1, old)
        self.write(name, text.replace(old, new))

    def verdict(self, old=None, new=None):
        return subprocess.run(
            [sys.executable, BENCH_DIFF, old or self.old, new or self.new],
            capture_output=True, text=True).returncode

    def test_identical_copy_passes(self):
        self.assertEqual(self.verdict(), 0)

    def test_host_ms_only_passes(self):
        text = self.read("BENCH_E7.json")
        self.write("BENCH_E7.json",
                   re.sub(r'"host_ms":\d+', '"host_ms":123456', text))
        self.assertEqual(self.verdict(), 0)

    def test_host_section_only_passes(self):
        text = self.read("BENCH_E6.json")
        host = re.search(r'"host":\{[^{}]*\}', text).group(0)
        self.assertIn("rsa768_vs_psk_host_factor", host)
        self.assertNotIn("host_crypto_ms", text.replace(host, ""))
        self.write("BENCH_E6.json",
                   text.replace(host, re.sub(r":[-0-9.e+]+", ":9.75", host)))
        self.assertEqual(self.verdict(), 0)

    def test_file_mode_drops_host_fields(self):
        text = self.read("BENCH_E6.json")
        self.write("BENCH_E6.json",
                   re.sub(r'"host_ms":\d+', '"host_ms":1', text))
        self.assertEqual(self.verdict(os.path.join(self.old, "BENCH_E6.json"),
                                      os.path.join(self.new, "BENCH_E6.json")),
                         0)

    def test_changed_result_digit_fails(self):
        self.replace_once("BENCH_E7.json", '"arena_bytes":98304',
                          '"arena_bytes":98305')
        self.assertEqual(self.verdict(), 1)

    def test_int_rewritten_as_float_fails(self):
        self.replace_once("BENCH_E7.json", '"failed_allocations":1,',
                          '"failed_allocations":1.0,')
        self.assertEqual(self.verdict(), 1)

    def test_swapped_keys_fail(self):
        text = self.read("BENCH_E7.json")
        swapped = re.sub(r'("results":\{)("[^"]+":[^,{}]+),("[^"]+":[^,{}]+)',
                         r"\1\3,\2", text, count=1)
        self.write("BENCH_E7.json", swapped)
        self.assertEqual(self.verdict(), 1)

    def test_missing_bench_file_fails(self):
        os.remove(os.path.join(self.new, "BENCH_E7.json"))
        self.assertEqual(self.verdict(), 1)

    def test_changed_digest_line_fails(self):
        lines = self.read("ARTIFACTS.sha256").splitlines(keepends=True)
        self.assertEqual(len(lines), 3)
        digest = lines[1]
        lines[1] = ("1" if digest[0] == "0" else "0") + digest[1:]
        self.write("ARTIFACTS.sha256", "".join(lines))
        self.assertEqual(self.verdict(), 1)


if __name__ == "__main__":
    unittest.main()
