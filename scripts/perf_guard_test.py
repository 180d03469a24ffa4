#!/usr/bin/env python3
"""The perf gate's decision rule on synthetic paired timings.

Runs with the standard library only:  python3 scripts/perf_guard_test.py
"""

import contextlib
import io
import os
import sys
import unittest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import perf_guard  # noqa: E402

MS = 1_000_000  # 1 ms in ns, well above MIN_GUARDED_NS


def report(cases, ok=True):
    return {
        "ok": ok,
        "cases": [{"name": n, "ns_per_op": ns} for n, ns in cases.items()],
    }


def compare(parent, change):
    with contextlib.redirect_stdout(io.StringIO()):
        return perf_guard.compare(parent, change)


class DecideTest(unittest.TestCase):
    def test_rule(self):
        small = perf_guard.MIN_GUARDED_NS - 1
        noise = [1.3 * MS, MS, 1.3 * MS, MS, 1.3 * MS]
        quiet = [MS, 1.3 * MS, MS, 1.3 * MS, MS]
        cases = [
            # (what, parent ns per pair, change ns per pair, status)
            ("20% slower in 5/5", [MS] * 5, [1.2 * MS] * 5, "slower"),
            ("10% slower in 5/5", [MS] * 5, [1.1 * MS] * 5, "ok"),
            ("30% slower in 3/5", [MS] * 5, [1.3 * MS] * 3 + [0.9 * MS] * 2,
             "ok"),
            ("alternating 30% noise", noise, quiet, "ok"),
            ("alternating 30% noise, other phase", quiet, noise, "ok"),
            ("parent under the floor", [small] * 5, [2 * small] * 5,
             "unguarded"),
            ("missing from a change run", [MS] * 5, [MS] * 4 + [None],
             "missing"),
        ]
        for what, parent, change, status in cases:
            with self.subTest(what):
                self.assertEqual(perf_guard.decide(parent, change)[0], status)

    def test_pair_lost_by_the_parent_is_left_out(self):
        # Pair 2's parent run lost the case: the ratios pair index with
        # index, never pair 3's change timing with pair 2's parent one.
        parent = [MS, None, MS, MS, MS]
        change = [1.2 * MS, 0.5 * MS, 1.2 * MS, 1.2 * MS, 1.2 * MS]
        self.assertEqual(
            perf_guard.decide(parent, change), ("slower", [1.2] * 4)
        )


class CompareTest(unittest.TestCase):
    def test_unchanged_timings_pass(self):
        runs = {"scaling": [report({"sfq_fast/4096": MS})] * 5}
        self.assertEqual(compare(runs, runs), ([], []))

    def test_guarded_case_missing_on_the_change_side_fails(self):
        parent = {"scaling": [report({"sfq_fast/4096": MS})] * 5}
        change = {
            "scaling": [report({"sfq_fast/4096": MS})] * 4 + [report({})]
        }
        failures, _ = compare(parent, change)
        self.assertIn(
            "scaling/sfq_fast/4096: case missing from a change run", failures
        )

    def test_guarded_case_missing_on_the_parent_side_is_a_parent_error(self):
        cases = {"sfq_fast/4096": MS}
        parent = {"scaling": [report(cases)] * 4 + [report({})]}
        change = {"scaling": [report(cases)] * 5}
        self.assertEqual(
            compare(parent, change),
            ([], ["scaling/sfq_fast/4096: missing from parent run(s) [5]"]),
        )

    def test_change_side_report_not_ok_fails(self):
        cases = {"sfq_fast/4096": MS}
        parent = {"scaling": [report(cases)] * 5}
        change = {"scaling": [report(cases)] * 4 + [report(cases, ok=False)]}
        self.assertEqual(
            compare(parent, change),
            (["scaling: shape check failed in 1/5 change runs"], []),
        )
        # A change-only bench runs once; its shape check gates alone.
        change_only = {**parent, "soak": [report({}, ok=False)]}
        self.assertEqual(
            compare(parent, change_only),
            (["soak: shape check failed in 1/1 change runs"], []),
        )

    def test_parent_side_report_not_ok_does_not_fail_the_change(self):
        cases = {"sfq_fast/4096": MS}
        parent = {"scaling": [report(cases, ok=False)] * 5}
        change = {"scaling": [report(cases)] * 5}
        self.assertEqual(compare(parent, change), ([], []))

    def test_only_guarded_patterns_are_compared(self):
        parent = {
            "scaling": [report({"sfq_ref/4096": MS, "sfq_fast/4096": MS})] * 5
        }
        change = {
            "scaling": [
                report({"sfq_ref/4096": 2 * MS, "sfq_fast/4096": 1.3 * MS})
            ]
            * 5
        }
        failures, _ = compare(parent, change)
        self.assertEqual(len(failures), 1)
        self.assertIn("scaling/sfq_fast/4096", failures[0])


if __name__ == "__main__":
    unittest.main()
