#!/usr/bin/env python3
"""The benchmark's own tests: one seed gives a byte-identical dataset and
request stream, another seed gives different ones.

    python3 perfbench/test_determinism.py      (from the repository root)
"""

import hashlib
import os
import shutil
import sys
import unittest

sys.dont_write_bytecode = True
sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))
import run  # noqa: E402

OUT = os.path.join(run.WORK, "determinism")


def dataset_hash(workload, seed, tag):
    d = os.path.join(OUT, f"{workload}-{seed}-{tag}")
    shutil.rmtree(d, ignore_errors=True)
    os.makedirs(d)
    run.pb("prepare", "--workload", workload, "--seed", seed, "--out", d)
    h = hashlib.sha256()
    for name in sorted(os.listdir(d)):
        h.update(name.encode() + b"\0")
        with open(os.path.join(d, name), "rb") as f:
            h.update(f.read())
    return h.hexdigest()


def stream_hash(workload, seed):
    out = run.pb("stream", "--workload", workload, "--seed", seed, "--count", 5000)
    return hashlib.sha256(out.encode()).hexdigest()


class Determinism(unittest.TestCase):
    @classmethod
    def setUpClass(cls):
        run.check_layout()
        run.build()

    def test_dataset(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = dataset_hash(w, 1, "a")
                self.assertEqual(a, dataset_hash(w, 1, "b"))
                self.assertNotEqual(a, dataset_hash(w, 2, "a"))

    def test_stream(self):
        for w in run.WORKLOADS:
            with self.subTest(workload=w):
                a = stream_hash(w, 1)
                self.assertEqual(a, stream_hash(w, 1))
                self.assertNotEqual(a, stream_hash(w, 2))

    def test_workloads_differ(self):
        # the same seed must not hand two workloads the same dataset
        self.assertNotEqual(dataset_hash("landing", 1, "a"), dataset_hash("curate", 1, "a"))


if __name__ == "__main__":
    unittest.main()
