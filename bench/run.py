"""Run one benchmark workload and print its metrics.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

The seed picks the workload's inputs.  Set-up is repeated SETUPS times
and timed; then the workload's op list (one pass) runs again and again,
each op under a deadline, until the next pass would end past --seconds.
Every verdict is compared with its reference afterwards; a wrong one
exits 3 without printing a result.  With --trace 1 the same passes run
once untraced and once under the tracer, and per-layer metrics are
printed instead of end-to-end ones.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import gc
import json
import math
import resource
import signal
import statistics
import sys
import time
import traceback
from pathlib import Path

from speed import CAL_REF_S, Section, Speed
from tracer import (TRACED, DeadlineExceeded, Tracer, outer_with_descendant,
                    self_times, span_name)

ROOT = Path(__file__).resolve().parent.parent
SETUPS = 7


def _on_alarm(signum, frame):
    raise DeadlineExceeded()


def run_op(fn, deadline_s: float):
    """(ok, result or error text) of fn() under a per-op wall-clock deadline."""
    previous = signal.signal(signal.SIGALRM, _on_alarm)
    signal.setitimer(signal.ITIMER_REAL, deadline_s)
    try:
        return True, fn()
    except DeadlineExceeded:
        return False, f"deadline of {deadline_s} s exceeded"
    except Exception:
        return False, traceback.format_exc()
    finally:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, previous)


class Passes:
    """Timed ops and results of repeated passes over a workload's op list.

    Times are calibrated with speed (see speed.py); a pass's time is the
    sum of its ops' times.
    """

    def __init__(self, speed: Speed):
        self.speed = speed
        self.timed: list[tuple[int, object, Section]] = []
        self.results: list[tuple[object, object]] = []
        self.failed = 0
        self.passes = 0

    def run_pass(self, wl, ready, ops, tracer=None) -> None:
        depth = len(tracer.stack) if tracer else 0
        for spec in ops:
            # Collect the garbage of the previous op outside the timing, so
            # that an op's time does not depend on which op ran before it.
            gc.collect()
            with Section(self.speed) as sec:
                ok, got = run_op(lambda: wl.op(ready, spec), wl.deadline_s)
            self.timed.append((self.passes, spec, sec))
            if tracer:
                tracer.unwind(depth)
            if ok:
                self.results.append((spec, got))
            else:
                self.failed += 1
                print(f"op {spec!r} failed: {got}", file=sys.stderr)
        self.passes += 1

    def run_for(self, wl, ready, ops, seconds: float) -> None:
        """At least one pass; stop before a pass that would end past seconds."""
        t0 = time.perf_counter()
        while True:
            t = time.perf_counter()
            self.run_pass(wl, ready, ops)
            now = time.perf_counter()
            if now - t0 + (now - t) > seconds:
                return

    def op_s(self) -> list[float]:
        return [self.speed.scale(s.start, s.end, s.raw)
                for _, _, s in self.timed]

    def raw_op_s(self) -> list[float]:
        return [s.raw for _, _, s in self.timed]

    def pass_s(self, raw: bool = False) -> list[float]:
        out = [0.0] * self.passes
        for (k, _, _), t in zip(self.timed,
                                self.raw_op_s() if raw else self.op_s()):
            out[k] += t
        return out

    def spec_medians(self) -> list[float]:
        """Per distinct op of the list, its median time over the passes."""
        by_spec: dict[str, list[float]] = {}
        for (_, spec, _), t in zip(self.timed, self.op_s()):
            by_spec.setdefault(repr(spec), []).append(t)
        return [statistics.median(ts) for ts in by_spec.values()]


def nearest_rank(values, pct: float) -> float:
    ordered = sorted(values)
    return ordered[max(0, math.ceil(pct / 100 * len(ordered)) - 1)]


def quartiles(values) -> str:
    if len(values) < 2:
        return f"median {values[0]!r} n=1"
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return f"median {q2!r} q1 {q1!r} q3 {q3!r} n={len(values)}"


def timed_setups(wl, inputs, speed: Speed):
    """Sections of SETUPS set-ups, and the last set-up's result."""
    sections, ready = [], None
    for _ in range(SETUPS):
        gc.collect()
        speed.sample()
        with Section(speed) as sec:
            ready = wl.setup(inputs)
        sections.append(sec)
    speed.sample()
    return sections, ready


def check_results(wl, ready, runs: list[Passes]) -> list[str]:
    errors = []
    for passes in runs:
        for spec, got in passes.results:
            msg = wl.check(ready, spec, got)
            if msg is not None:
                errors.append(msg)
    return errors


def metric(value, unit: str) -> dict:
    return {"value": value, "unit": unit}


def end_to_end(wl, inputs, seconds: float):
    with Speed() as speed:
        setups, ready = timed_setups(wl, inputs, speed)
        passes = Passes(speed)
        passes.run_for(wl, ready, inputs, seconds)
    setup_s = [speed.scale(s.start, s.end, s.raw) for s in setups]
    op_s, pass_s = passes.op_s(), passes.pass_s()
    attempted = len(op_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    # The divisor of every calibrated time, and the time it divides, so
    # that a change in either shows when runs are compared.
    print("calibration " + json.dumps({
        "kernel_mean_s": statistics.fmean(speed.dur),
        "kernel_samples": len(speed.dur),
        "reference_s": CAL_REF_S,
        "raw_pass_p50_s": statistics.median(passes.pass_s(raw=True))}))
    print(f"calibration kernel s: {quartiles(speed.dur)}")
    print(f"setup_s: {quartiles(setup_s)}")
    print(f"wall_s (one pass of {len(inputs)} ops): {quartiles(pass_s)}")
    print(f"op_s: {quartiles(op_s)}; op_tail_s is "
          f"p{wl.tail_pct} (nearest rank)")
    print(f"op_s uncalibrated: {quartiles(passes.raw_op_s())}")
    print(f"failed_ratio: {passes.failed}/{attempted}")
    metrics = {
        "setup_s": metric(statistics.median(setup_s), "s"),
        "wall_s": metric(statistics.median(pass_s), "s"),
        "op_p50_s": metric(statistics.median(passes.spec_medians()), "s"),
        "op_tail_s": metric(nearest_rank(op_s, wl.tail_pct), "s"),
        "completed_ratio": metric((attempted - passes.failed) / attempted,
                                  "ratio"),
        "peak_rss_mb": metric(rss_mb, "MB"),
    }
    return ready, [passes], metrics


def _per_pass(value, n: int):
    out = value / n
    return int(out) if isinstance(value, int) and value % n == 0 else out


def per_layer(wl, inputs, seconds: float):
    ready = wl.setup(inputs)
    tracer = Tracer()
    phases = []

    def mark():
        phases.append((tracer.mark(), dict(tracer.calls), dict(tracer.counters)))

    with Speed() as speed:
        untraced = Passes(speed)
        untraced.run_for(wl, ready, inputs, seconds / 2)
        n = untraced.passes
        traced = Passes(speed)
        with tracer:
            mark()
            wl.setup(inputs)
            mark()
            for _ in range(n):
                traced.run_pass(wl, ready, inputs, tracer)
            mark()
            probes = getattr(wl, "probe_inputs", None)
            for m, model, chain in (probes() if probes else []):
                t = time.perf_counter()
                ok, got = run_op(lambda: wl.probe_op(model, chain),
                                 wl.probe_deadline_s)
                t = time.perf_counter() - t
                tracer.unwind(0)
                print(f"probe m={m}: find_homomorphism "
                      f"{'finished' if ok else got} after {t!r} s")
    out_dir = ROOT / ".bench_out"
    out_dir.mkdir(exist_ok=True)
    tracer.write(str(out_dir / f"spans-{wl.name}.bin"))

    # Phases: one set-up, then n passes (reported per pass).  The probes
    # add only their timeouts: their calls and time are the harness's
    # fixed deadline, not work of the workload.
    totals: dict[str, float] = {}
    scale = (1, n)
    names = [span_name(mod, attr) for mod, attr in TRACED]
    ids = {nm: tracer.name_id(nm) for nm in names}
    for k, div in enumerate(scale):
        (lo, calls0, count0), (hi, calls1, count1) = phases[k], phases[k + 1]
        selfs = self_times(tracer.name_of, tracer.parent, tracer.start,
                           tracer.end, lo, hi)
        part = {}
        for nm in names:
            part[f"{nm}.calls"] = calls1.get(nm, 0) - calls0.get(nm, 0)
            part[f"{nm}.s"] = selfs.get(ids[nm], (0, 0.0))[1]
        for key in set(count1) | set(count0):
            part[key] = count1.get(key, 0) - count0.get(key, 0)
        part["escape.game_words"] = outer_with_descendant(
            tracer.name_of, tracer.parent, ids["escape.classify_word"],
            ids["rpq.holds"], lo, hi)
        for key, v in part.items():
            totals[key] = totals.get(key, 0) + _per_pass(v, div)

    timeouts = "gadget.find_homomorphism.timeouts"
    totals[timeouts] = (totals.get(timeouts, 0) + tracer.counters.get(timeouts, 0)
                        - phases[2][2].get(timeouts, 0))
    classify = totals["escape.classify_word.calls"]
    totals["escape.game_ratio"] = (totals["escape.game_words"] / classify
                                   if classify else 0.0)
    totals["trace.overhead_ratio"] = (statistics.median(traced.pass_s())
                                      / statistics.median(untraced.pass_s()))
    print(f"traced: one set-up + per-pass mean of {n} passes; "
          f"untraced pass {quartiles(untraced.pass_s())}; "
          f"traced pass {quartiles(traced.pass_s())}")
    metrics = {}
    for key in layer_metric_names():
        unit = ("s" if key.endswith(".s") else
                "ratio" if key.endswith("_ratio") else "count")
        metrics[key] = metric(totals.get(key, 0), unit)
    return ready, [untraced, traced], metrics


def layer_metric_names() -> list[str]:
    out = []
    for mod, attr in TRACED:
        nm = span_name(mod, attr)
        out += [f"{nm}.calls", f"{nm}.s"]
    out += ["automata.iter_words.words", "constraints.requests.open",
            "graphs.graph_union.edges", "gadget.find_homomorphism.timeouts",
            "escape.game_words", "escape.game_ratio", "trace.overhead_ratio"]
    return out


def main(argv=None) -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = p.parse_args(argv)

    try:
        from workloads import WORKLOADS
    except ImportError as e:
        print(f"error: cannot import rpqdet from {ROOT / 'src'}: {e}",
              file=sys.stderr)
        return 2
    import rpqdet
    if Path(rpqdet.__file__).resolve().parent != (ROOT / "src" / "rpqdet").resolve():
        print(f"error: rpqdet imported from {rpqdet.__file__}, not from "
              f"this checkout", file=sys.stderr)
        return 2
    wl = WORKLOADS.get(args.workload)
    if wl is None:
        print(f"error: unknown workload {args.workload!r}; one of "
              f"{', '.join(WORKLOADS)}", file=sys.stderr)
        return 2

    inputs = wl.inputs(args.seed)
    print(f"workload {wl.name} seed {args.seed}: ops {inputs!r}")
    run = per_layer if args.trace else end_to_end
    ready, runs, metrics = run(wl, inputs, args.seconds)

    errors = check_results(wl, ready, runs)
    if errors:
        for msg in errors:
            print(f"error: wrong verdict: {msg}", file=sys.stderr)
        return 3
    print(json.dumps({"correct": True,
                      "attempted": sum(len(p.timed) for p in runs),
                      "failed": sum(p.failed for p in runs),
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
