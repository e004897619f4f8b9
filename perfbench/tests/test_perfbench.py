"""Tests of the benchmark's own logic.

    python3 -m unittest discover -s perfbench/tests
"""

from __future__ import annotations

import os
import sys
import tempfile
import types
import unittest
from pathlib import Path

BENCH = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(BENCH.parent / "src"))

import workloads  # noqa: E402
from stats import percentile, samples_beyond, tail_percentile  # noqa: E402
from tracer import Tracer  # noqa: E402


class TestGenerators(unittest.TestCase):
    def test_same_seed_gives_identical_yaml(self):
        for name in workloads.WORKLOADS:
            for seed in (0, 1, 7, 123):
                self.assertEqual(workloads.generate(name, seed),
                                 workloads.generate(name, seed), (name, seed))

    def test_seeds_change_the_mission(self):
        for name in workloads.WORKLOADS:
            self.assertNotEqual(workloads.generate(name, 1)[0],
                                workloads.generate(name, 2)[0], name)

    def test_targets_stay_in_their_bands(self):
        for name in workloads.WORKLOADS:
            for seed in range(200):
                mission, _ = workloads.GENERATORS[name](seed)
                self.assertEqual(workloads.band_violations(mission), [], (name, seed))

    def test_translation_keeps_the_shape_bit_for_bit(self):
        def offsets(mission):
            start = mission["start"]
            return [[t - s for t, s in zip(seg["target"], start)]
                    for seg in mission["segments"]]

        for name in ("cruise_nmpc", "dash_nmpc"):
            ref = offsets(workloads.GENERATORS[name](0)[0])
            for seed in range(1, 200):
                mission, _ = workloads.GENERATORS[name](seed)
                self.assertEqual(offsets(mission), ref, (name, seed))
                for point in [mission["start"]] + [g["target"] for g in mission["segments"]]:
                    for v in point[:2]:
                        self.assertTrue(128.0 + 2.0 <= v <= 256.0 - 8.0, (name, seed, v))

    def test_route_seed_zero_is_the_builtin_route(self):
        from cyclosim import builtin_mission, load_mission, save_mission

        text, overlay = workloads.generate("route_pid", 0)
        self.assertEqual(overlay, "{}\n")
        with tempfile.TemporaryDirectory() as tmp:
            path = os.path.join(tmp, "builtin.yaml")
            save_mission(builtin_mission(), path)
            with open(path, encoding="utf-8") as fh:
                self.assertEqual(text, fh.read())
            reloaded = load_mission(path)
        for got, want in zip(reloaded.segments, builtin_mission().segments):
            self.assertEqual((got.medium, got.action, got.hold),
                             (want.medium, want.action, want.hold))
            self.assertEqual(list(got.target), list(want.target))

    def test_bands_mirror_the_program(self):
        from cyclosim.mission import MEDIUM_BANDS

        self.assertEqual(workloads.BANDS,
                         {m.value: band for m, band in MEDIUM_BANDS.items()})

    def test_only_dash_has_an_overlay(self):
        self.assertEqual(workloads.generate("cruise_nmpc", 3)[1], "{}\n")
        self.assertIn("cruise_air: 6.0", workloads.generate("dash_nmpc", 3)[1])


class TestBenchmarkFile(unittest.TestCase):
    def test_metrics_match_the_result_tables(self):
        import json

        import run

        spec = json.loads((BENCH.parent / "BENCHMARK.json").read_text())
        self.assertEqual({m["name"]: m["unit"] for m in spec["end_to_end"]},
                         run.END_TO_END)
        self.assertEqual({m["name"]: m["unit"] for m in spec["per_layer"]},
                         run.PER_LAYER)
        self.assertEqual([w["name"] for w in spec["workloads"]],
                         list(workloads.WORKLOADS))
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        self.assertEqual(setup["bound"], max(m["bound"] for m in spec["end_to_end"]))


class TestOutputRecord(unittest.TestCase):
    """Output hashes are compared across invocations only on one program."""

    def setUp(self):
        import run

        self.run = run
        self.tmp = tempfile.TemporaryDirectory()
        self.addCleanup(self.tmp.cleanup)
        self.addCleanup(setattr, run, "WORK", run.WORK)
        run.WORK = Path(self.tmp.name, "work")

    def _tree(self, name: str, body: str) -> Path:
        root = Path(self.tmp.name, name)
        (root / "sub").mkdir(parents=True)
        (root / "sim.py").write_text("x = 1\n")
        (root / "sub" / "m.py").write_text(body)
        return root

    def test_program_hash_follows_the_sources(self):
        a, b = self._tree("a", "y = 2\n"), self._tree("b", "y = 2\n")
        (a / "__pycache__").mkdir()
        (a / "__pycache__" / "sim.pyc").write_bytes(b"compiled")
        same = self.run.program_sha256(a, "v1")
        self.assertEqual(same, self.run.program_sha256(b, "v1"))
        self.assertNotEqual(same, self.run.program_sha256(b, "v2"))
        (b / "sub" / "m.py").write_text("y = 3\n")
        other = self.run.program_sha256(b, "v1")
        self.assertNotEqual(same, other)
        inputs = {"mission": "1" * 64, "config": "2" * 64}
        self.assertNotEqual(self.run.record_key("w-1", inputs, same),
                            self.run.record_key("w-1", inputs, other))

    def _check(self, program: str, csv: str) -> list:
        bench = self.run.Bench("dash_nmpc", 1, program)
        bench.runs = [{"gate_ok": True, "csv_sha256": csv, "metrics_sha256": "m"}]
        bench.check_recorded_hashes()
        return bench.failures

    def test_new_program_may_change_the_bytes(self):
        self.assertEqual(self._check("p1" * 32, "c1"), [])
        self.assertEqual(self._check("p2" * 32, "c2"), [])
        self.assertEqual(self._check("p1" * 32, "c1"), [])

    def test_same_program_must_repeat_the_bytes(self):
        self.assertEqual(self._check("p1" * 32, "c1"), [])
        self.assertEqual(len(self._check("p1" * 32, "c2")), 1)


class TestPercentileRule(unittest.TestCase):
    def test_percentile_interpolates(self):
        data = list(range(1, 11))
        self.assertEqual(percentile(data, 50.0), 5.5)
        self.assertEqual(percentile(data, 90.0), 9.1)
        self.assertEqual(percentile([3.0], 99.0), 3.0)

    def test_samples_beyond_counts_values_above_the_percentile(self):
        for n in (1, 2, 9, 10, 11, 99, 100, 101, 315, 1105):
            data = list(range(n))
            for p in (50.0, 90.0, 99.0, 99.9):
                value = percentile(data, p)
                self.assertEqual(samples_beyond(n, p),
                                 sum(v > value for v in data), (n, p))

    def test_highest_percentile_with_ten_beyond(self):
        self.assertIsNone(tail_percentile(19))
        self.assertEqual(tail_percentile(20), 50.0)
        self.assertEqual(tail_percentile(91), 50.0)
        self.assertEqual(tail_percentile(92), 90.0)
        self.assertEqual(tail_percentile(101), 90.0)
        self.assertEqual(tail_percentile(315), 90.0)
        self.assertEqual(tail_percentile(1001), 99.0)
        self.assertEqual(tail_percentile(10001), 99.9)


class _FakeClock:
    def __init__(self):
        self.now = 0.0

    def __call__(self):
        return self.now


class TestSelfTime(unittest.TestCase):
    """Synthetic nested spans on a fake clock.

    The functions call each other through a namespace, the way the program
    looks up module-level names, so wrapping the namespace's attributes
    traces every nested call.
    """

    def setUp(self):
        clock = _FakeClock()
        ns = types.SimpleNamespace()

        def leaf():
            clock.now += 1.0

        def middle():
            clock.now += 0.5
            ns.leaf()
            ns.leaf()
            clock.now += 0.25

        def fails():
            clock.now += 2.0
            raise ValueError("boom")

        def root():
            clock.now += 3.0
            ns.middle()
            ns.leaf()
            try:
                ns.fails()
            except ValueError:
                pass

        self.tracer = Tracer(clock=clock)
        for fn in (leaf, middle, fails, root):
            setattr(ns, fn.__name__, self.tracer.wrap(fn, fn.__name__))
        self.root = ns.root

    def test_self_times_subtract_wrapped_children(self):
        self.root()
        layers = self.tracer.layers()
        # root: 3 own + middle 2.75 + leaf 1 + fails 2 = 8.75 inclusive.
        self.assertAlmostEqual(layers["root"]["total_s"], 8.75)
        self.assertAlmostEqual(layers["root"]["self_s"], 3.0)
        self.assertAlmostEqual(layers["middle"]["total_s"], 2.75)
        self.assertAlmostEqual(layers["middle"]["self_s"], 0.75)
        self.assertEqual(layers["leaf"]["calls"], 3)
        self.assertAlmostEqual(layers["leaf"]["self_s"], 3.0)
        self.assertEqual(layers["fails"]["errors"], 1)
        self.assertAlmostEqual(layers["fails"]["self_s"], 2.0)
        total_self = sum(v["self_s"] for v in layers.values())
        self.assertAlmostEqual(total_self, layers["root"]["total_s"])

    def test_spans_are_kept_per_parent(self):
        self.root()
        edges = {(e["layer"], e["parent"]): e for e in self.tracer.edges()}
        self.assertEqual(edges[("leaf", "middle")]["calls"], 2)
        self.assertEqual(edges[("leaf", "root")]["calls"], 1)
        self.assertIsNone(edges[("root", None)]["parent"])

    def test_repeat_gives_the_same_counts(self):
        self.root()
        first = {k: v["calls"] for k, v in self.tracer.layers().items()}
        self.root()
        second = {k: v["calls"] for k, v in self.tracer.layers().items()}
        self.assertEqual({k: 2 * v for k, v in first.items()}, second)


if __name__ == "__main__":
    unittest.main()
