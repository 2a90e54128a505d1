#!/usr/bin/env python3
"""The benchmark's own tests, at reduced size.

    python3 perfbench/selftest.py

Builds and runs perfbench_selftest (the C++ checks, the tracer, and the
mmap-equals-RAM determinism test), then tests the Table IV parser and
checks below: each accepts a correct table and rejects a deliberately
wrong one. Run from the root of a checkout.
"""

import os
import shutil
import subprocess
import sys
import tempfile
import unittest

HERE = os.path.dirname(os.path.abspath(__file__))
sys.path.insert(0, HERE)
import run  # noqa: E402
import table4  # noqa: E402

GOOD = """== Table IV (MF-FRS, ML-100K-like, p~=5%) ==
| Defense     | A-HUM ER@10 | A-HUM HR@10 | PIECK-IPE ER@10 | PIECK-IPE HR@10 | PIECK-UEA ER@10 | PIECK-UEA HR@10 |
|-------------|-------------|-------------|-----------------|-----------------|-----------------|-----------------|
| NoDefense   | 92.83       | 53.55       | 99.28           | 54.26           | 94.27           | 53.90           |
| NormBound   | 0.00        | 52.48       | 0.36            | 52.13           | 1.43            | 52.13           |
| Median      | 9.64        | 52.13       | 99.29           | 52.13           | 89.29           | 52.13           |
| TrimmedMean | 13.93       | 51.06       | 6.43            | 50.00           | 46.79           | 50.35           |
| Krum        | 0.00        | 12.77       | 0.00            | 12.41           | 0.00            | 12.77           |
| MultiKrum   | 0.00        | 49.65       | 0.00            | 49.29           | 0.00            | 49.29           |
| Bulyan      | 0.00        | 51.06       | 0.00            | 51.06           | 0.00            | 51.06           |
| Ours        | 0.00        | 41.84       | 2.86            | 39.01           | 0.36            | 43.62           |
"""


def failed_checks(text):
    return [name for name, ok in table4.check(table4.parse(text)) if not ok]


def edit(row, column, value):
    """GOOD with one cell replaced (column counts from 1 after Defense)."""
    lines = GOOD.splitlines()
    for i, line in enumerate(lines):
        fields = line.split("|")
        if len(fields) > 2 and fields[1].strip() == row:
            fields[column + 1] = " %s " % value
            lines[i] = "|".join(fields)
    return "\n".join(lines)


class Table4Checks(unittest.TestCase):
    def test_good_table_passes(self):
        self.assertEqual(failed_checks(GOOD), [])
        self.assertEqual(len(table4.parse(GOOD)), 24)

    def test_out_of_range_value_fails(self):
        self.assertTrue(failed_checks(edit("Median", 2, "100.50")))

    def test_missing_row_fails(self):
        text = "\n".join(l for l in GOOD.splitlines() if "Bulyan" not in l)
        self.assertTrue(failed_checks(text))

    def test_weak_uea_attack_fails(self):
        self.assertEqual(failed_checks(edit("NoDefense", 5, "49.99")),
                         ["NoDefense/PIECK-UEA ER@10 >= 50%"])

    def test_defense_not_below_undefended_fails(self):
        self.assertEqual(failed_checks(edit("Ours", 5, "94.27")),
                         ["Ours/PIECK-UEA ER@10 below NoDefense"])

    def test_random_level_hr_fails(self):
        self.assertEqual(failed_checks(edit("NoDefense", 4, "10.00")),
                         ["NoDefense/PIECK-IPE HR@10 above random (10%)"])

    def test_defense_check_passes_and_fails_per_attack(self):
        self.assertTrue(all(ok for _, ok in
                            table4.check_defense(table4.parse(GOOD))))
        failed = [name for name, ok in table4.check_defense(
            table4.parse(edit("Ours", 1, "92.83"))) if not ok]
        self.assertEqual(failed, ["Ours/A-HUM ER@10 below NoDefense"])

    def test_defense_check_needs_both_rows(self):
        text = "\n".join(l for l in GOOD.splitlines() if "Ours" not in l)
        self.assertFalse(any(ok for _, ok in
                             table4.check_defense(table4.parse(text))))

    def test_claims_are_reported(self):
        claims = dict(table4.claims(table4.parse(edit("NoDefense", 1,
                                                      "41.24"))))
        self.assertFalse(claims["NoDefense/A-HUM ER@10 >= 50%"])
        self.assertTrue(claims["NoDefense/PIECK-IPE ER@10 >= 50%"])

    def test_malformed_tables_raise(self):
        with self.assertRaises(ValueError):
            table4.parse("no table here")
        with self.assertRaises(ValueError):
            table4.parse(edit("Krum", 3, "n/a"))


def main():
    out = run.build(["perfbench_selftest"])
    tmp = tempfile.mkdtemp(prefix="selftest-", dir=out)
    try:
        native = subprocess.run([os.path.join(out, "perfbench_selftest")],
                                env=dict(os.environ, TMPDIR=tmp)).returncode
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
    suite = unittest.defaultTestLoader.loadTestsFromTestCase(Table4Checks)
    python_ok = unittest.TextTestRunner(verbosity=2).run(suite).wasSuccessful()
    return 0 if native == 0 and python_ok else 1


if __name__ == "__main__":
    sys.exit(main())
