"""Self-tests of the benchmark harness.

    python3 bench/selftest.py
"""

from __future__ import annotations

import signal
import sys
import time
import unittest
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))

import run  # noqa: E402
import tracer as tr  # noqa: E402
from speed import CAL_REF_S, Speed  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

import rpqdet  # noqa: E402


def _rpqdet_modules():
    return [m for k, m in sys.modules.items()
            if m is not None and (k == "rpqdet" or k.startswith("rpqdet."))]


def _bindings():
    """Every (module or class, attribute, object) that rpqdet binds."""
    out = []
    for mod in _rpqdet_modules():
        for key, val in vars(mod).items():
            out.append((mod, key, val))
            if isinstance(val, type):
                out += [(val, k, v) for k, v in vars(val).items()]
    return out


class SelfTimeTest(unittest.TestCase):
    def test_nested_spans(self):
        # root 0..10 holds a 1..4 (which holds b 2..3) and b 5..9.
        names = ["root", "a", "b", "b"]
        parent = [-1, 0, 1, 0]
        start = [0.0, 1.0, 2.0, 5.0]
        end = [10.0, 4.0, 3.0, 9.0]
        got = tr.self_times(names, parent, start, end)
        self.assertEqual(got["root"], (1, 10.0 - 3.0 - 4.0))
        self.assertEqual(got["a"], (1, 3.0 - 1.0))
        self.assertEqual(got["b"], (2, 1.0 + 4.0))
        total = sum(t for _, t in got.values())
        self.assertAlmostEqual(total, 10.0)

    def test_slice_charges_no_parent_outside_it(self):
        names = ["root", "a", "b"]
        parent = [-1, 0, 1]
        start = [0.0, 1.0, 2.0]
        end = [10.0, 4.0, 3.0]
        got = tr.self_times(names, parent, start, end, lo=1)
        self.assertEqual(got, {"a": (1, 2.0), "b": (1, 1.0)})

    def test_outer_with_descendant(self):
        names = ["c", "x", "h", "c", "x", "c", "h"]
        parent = [-1, 0, 1, -1, 3, -1, 5]
        self.assertEqual(tr.outer_with_descendant(names, parent, "c", "h"), 2)


class TracerTest(unittest.TestCase):
    def test_traced_run_restores_every_alias(self):
        before = _bindings()
        wl = WORKLOADS["guided-play"]
        ready = wl.setup([2])
        t = tr.Tracer()
        with t:
            from rpqdet import constraints, escape, gadget
            self.assertTrue(getattr(escape.holds, "_bench_traced", False))
            self.assertTrue(getattr(constraints.evaluate, "_bench_traced", False))
            self.assertTrue(getattr(gadget.holds, "_bench_traced", False))
            self.assertTrue(getattr(rpqdet.holds, "_bench_traced", False))
            got = wl.op(ready, 2)
            words = list(escape.iter_words(ready[0].q0_nfa, 3))
        self.assertEqual(got, ("WON_FIXPOINT", 3))
        self.assertEqual(t.counters["automata.iter_words.words"], len(words))
        # one span per generator step, the final exhausted step included
        steps = [i for i in range(len(t.name_of))
                 if t.names[t.name_of[i]] == "automata.iter_words"]
        self.assertEqual(len(steps), len(words) + 1)
        self.assertGreater(t.calls["rpq.holds"], 0)
        self.assertFalse(t.stack)
        after = _bindings()
        self.assertEqual([(id(o), k, id(v)) for o, k, v in before],
                         [(id(o), k, id(v)) for o, k, v in after])
        self.assertFalse([k for _, k, v in after
                          if getattr(v, "_bench_traced", False)])

    def test_deadline_in_traced_call_counts_a_timeout(self):
        wl = WORKLOADS["guided-play"]
        [(_, model, chain)] = wl.probe_inputs()
        t = tr.Tracer()
        with t:
            ok, _ = run.run_op(lambda: wl.probe_op(model, chain), 0.05)
            t.unwind(0)
        self.assertFalse(ok)
        self.assertEqual(t.counters, {"gadget.find_homomorphism.timeouts": 1})
        self.assertEqual(t.calls, {"gadget.find_homomorphism": 1})


class DeadlineTest(unittest.TestCase):
    def test_overrun_fails_and_next_op_is_unaffected(self):
        def spin():
            end = time.perf_counter() + 5
            while time.perf_counter() < end:
                pass
            return "finished"

        t0 = time.perf_counter()
        ok, msg = run.run_op(spin, 0.05)
        self.assertFalse(ok)
        self.assertIn("deadline", msg)
        self.assertLess(time.perf_counter() - t0, 1.0)
        self.assertEqual(signal.getitimer(signal.ITIMER_REAL), (0.0, 0.0))
        ok, got = run.run_op(lambda: sum(range(1000)), 0.05)
        self.assertEqual((ok, got), (True, 499500))
        time.sleep(0.1)  # a stray alarm would fire here

    def test_failed_ops_are_counted(self):
        class Flaky:
            deadline_s = 0.05

            def op(self, ready, spec):
                if spec == "slow":
                    time.sleep(5)
                if spec == "boom":
                    raise RuntimeError("boom")
                return spec

        p = run.Passes(run.Speed())
        p.run_pass(Flaky(), None, ["ok", "slow", "boom", "ok2"])
        self.assertEqual(p.failed, 2)
        self.assertEqual(len(p.timed), 4)
        self.assertEqual(p.results, [("ok", "ok"), ("ok2", "ok2")])


class SeedTest(unittest.TestCase):
    def test_same_seed_same_inputs_other_seed_other_draw(self):
        for name, wl in WORKLOADS.items():
            with self.subTest(workload=name):
                self.assertEqual(wl.inputs(1), wl.inputs(1))
                draws = {repr(wl.inputs(seed)) for seed in range(1, 11)}
                self.assertGreater(len(draws), 1)


class SpeedTest(unittest.TestCase):
    def test_scale_uses_samples_inside_or_nearest(self):
        sp = Speed()
        sp.at = [0.0, 1.0, 2.0, 3.0, 4.0, 5.0, 6.0, 7.0, 8.0, 9.0]
        sp.dur = [1.0] * 5 + [2.0] * 5
        self.assertAlmostEqual(sp.scale(5.0, 9.0, 1.0), CAL_REF_S / 2)
        self.assertAlmostEqual(sp.scale(0.5, 0.6, 1.0), CAL_REF_S)
        self.assertAlmostEqual(sp.scale(3.5, 5.5, 3.0),
                               3.0 * CAL_REF_S / ((1 + 1 + 1 + 2 + 2) / 5))

    def test_sampler_runs_while_installed_only(self):
        with Speed() as sp:
            end = time.perf_counter() + 0.35
            while time.perf_counter() < end:
                pass
            busy = sp.clock()
        self.assertGreaterEqual(len(sp.dur), 4)
        self.assertEqual(signal.getitimer(signal.ITIMER_VIRTUAL), (0.0, 0.0))
        self.assertLess(busy, time.perf_counter())
        n = len(sp.dur)
        end = time.perf_counter() + 0.25
        while time.perf_counter() < end:
            pass
        self.assertEqual(len(sp.dur), n)


class PercentileTest(unittest.TestCase):
    def test_nearest_rank(self):
        values = list(range(1, 101))
        self.assertEqual(run.nearest_rank(values, 90), 90)
        self.assertEqual(run.nearest_rank(values, 99), 99)
        self.assertEqual(run.nearest_rank([3.0, 1.0, 2.0, 4.0], 75), 3.0)


if __name__ == "__main__":
    unittest.main()
