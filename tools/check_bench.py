#!/usr/bin/env python3
"""Gate a bench run against its committed BENCH_*.json baseline.

Usage: check_bench.py BASELINE CANDIDATE
       check_bench.py --self-test

Quantities are compared by their mean. Two classes:

* Simulation-derived quantities (responses, collected, flood_tx, hop
  counts, virtual-time...) are deterministic for a fixed seed, so they
  are gated EXACTLY: a count (an integral baseline mean) must match to
  the unit, any other value within 1e-9 relative (float formatting
  headroom only). Any drift -- regression OR "improvement" -- fails the
  gate: behaviour changed and the baseline must be regenerated
  deliberately (run the bench, commit the new JSON alongside the change
  that explains it).

* Wall-clock quantities (*_ms, *_per_s, *_share, anything with "wall",
  "build" or "barrier" in the name) depend on the host, and committed
  baselines come from a different machine than CI runners -- they are
  reported with their deltas but never fail the gate. Machine-independent
  performance is gated through the virtual-time and traffic-count
  quantities instead.

A simulation-derived quantity present in the baseline but missing from
the candidate fails BY NAME (silently losing gate coverage is worse than
a regression), and the gate summary lists every missing and extra
quantity; wall-clock quantities may be absent (bench --quick skips
repeat thread-count legs).

--self-test runs the embedded unit tests (CI does this so the gate
itself is gated).
"""

import argparse
import json
import re
import sys

# Host-dependent quantities: reported, never gated. `_share`/`barrier`
# cover the phase-profile quantities (barrier_wait_share and friends),
# which are wall-clock ratios even though they do not end in _ms.
WALL_CLOCK = re.compile(r"(_ms$|_per_s$|_share$|wall|build|barrier)")

# Relative headroom for non-integral simulation-derived means.
FLOAT_REL_TOL = 1e-9


class BenchFormatError(Exception):
    """A BENCH json that cannot be gated (malformed, not a bench doc)."""


def load(path):
    """Returns {quantity: mean} from a BENCH_*.json, or raises
    BenchFormatError naming exactly what is wrong with which file."""
    try:
        with open(path, "r", encoding="utf-8") as f:
            doc = json.load(f)
    except OSError as e:
        raise BenchFormatError(f"cannot read {path}: {e}") from e
    except json.JSONDecodeError as e:
        raise BenchFormatError(f"{path} is not valid JSON: {e}") from e
    if not isinstance(doc, dict) or "quantities" not in doc:
        raise BenchFormatError(
            f"{path} has no 'quantities' object -- not a BENCH json?")
    means = {}
    for name, q in doc["quantities"].items():
        if not isinstance(q, dict) or "mean" not in q:
            raise BenchFormatError(
                f"quantity '{name}' in {path} has no 'mean' field")
        means[name] = q["mean"]
    return means


def matches(base, cand):
    """Exact match for counts, 1e-9 relative for everything else."""
    if float(base).is_integer():
        return cand == base
    return abs(cand - base) <= FLOAT_REL_TOL * abs(base)


def gate(baseline, candidate, baseline_name="baseline",
         candidate_name="candidate", out=print):
    """Compares candidate means against baseline means. Returns the list
    of failure strings (empty = gate passed)."""
    failures = []
    missing = []
    for name, base in baseline.items():
        wall = bool(WALL_CLOCK.search(name))
        if name not in candidate:
            if wall:
                out(f"  [wall ] {name}: absent in candidate (ok)")
            else:
                missing.append(name)
                out(f"  [FAIL ] {name}: missing from {candidate_name}")
            continue
        cand = candidate[name]
        if base == 0.0:
            drift = 0.0 if cand == 0.0 else float("inf")
        else:
            drift = abs(cand - base) / abs(base)
        if wall:
            out(f"  [wall ] {name}: {base:g} -> {cand:g} "
                f"({drift:+.1%} drift, informational)")
            continue
        if not matches(base, cand):
            failures.append(f"{name}: {base!r} -> {cand!r} ({drift:.3g} "
                            "relative)")
            out(f"  [FAIL ] {name}: {base!r} -> {cand!r} ({drift:.3g} "
                "relative)")
        else:
            out(f"  [ ok  ] {name}: {base:g}")
    extra = [name for name in candidate if name not in baseline]
    for name in extra:
        if not WALL_CLOCK.search(name):
            # New quantities are fine (a bench grew coverage), but say so.
            out(f"  [ new ] {name}: {candidate[name]:g} (not in baseline)")
    if missing:
        failures.extend(
            f"quantity {name} missing from {candidate_name} vs "
            f"{baseline_name}" for name in missing)
        out(f"  missing quantities ({len(missing)}): {', '.join(missing)}")
    if extra:
        out(f"  extra quantities ({len(extra)}): {', '.join(extra)}")
    return failures


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("baseline", nargs="?")
    parser.add_argument("candidate", nargs="?")
    parser.add_argument("--self-test", action="store_true",
                        help="run the embedded unit tests and exit")
    args = parser.parse_args()

    if args.self_test:
        return self_test()
    if not args.baseline or not args.candidate:
        parser.error("BASELINE and CANDIDATE are required (or --self-test)")

    try:
        baseline = load(args.baseline)
        candidate = load(args.candidate)
    except BenchFormatError as e:
        print(f"error: {e}")
        return 1

    print(f"gating {args.candidate} against {args.baseline} (counts "
          f"exact, other values within {FLOAT_REL_TOL:g} relative)")
    failures = gate(baseline, candidate,
                    baseline_name=args.baseline,
                    candidate_name=args.candidate)
    if failures:
        print(f"\n{len(failures)} gate failures:")
        for f in failures:
            print(f"  {f}")
        print("If the change is intentional, regenerate and commit the "
              "baseline JSON.")
        return 1
    print("baseline gate passed")
    return 0


# --- self tests ---------------------------------------------------------------

def self_test():
    import io
    import os
    import tempfile
    import unittest

    null = lambda *_: None  # noqa: E731  (silence gate output in tests)

    class LoadTest(unittest.TestCase):
        def write(self, text):
            fd, path = tempfile.mkstemp(suffix=".json")
            with os.fdopen(fd, "w", encoding="utf-8") as f:
                f.write(text)
            self.addCleanup(os.unlink, path)
            return path

        def test_loads_means(self):
            path = self.write(
                '{"bench": "x", "quantities": '
                '{"responses": {"count": 1, "mean": 42.0}}}')
            self.assertEqual(load(path), {"responses": 42.0})

        def test_missing_mean_is_named_not_keyerror(self):
            path = self.write(
                '{"quantities": {"responses": {"count": 1}}}')
            with self.assertRaises(BenchFormatError) as ctx:
                load(path)
            self.assertIn("responses", str(ctx.exception))
            self.assertIn("mean", str(ctx.exception))

        def test_invalid_json_is_named(self):
            path = self.write("{not json")
            with self.assertRaises(BenchFormatError) as ctx:
                load(path)
            self.assertIn(path, str(ctx.exception))

        def test_not_a_bench_doc(self):
            path = self.write('{"tables": {}}')
            with self.assertRaises(BenchFormatError):
                load(path)

        def test_missing_file(self):
            with self.assertRaises(BenchFormatError):
                load("/nonexistent/BENCH_x.json")

    class GateTest(unittest.TestCase):
        def test_identical_passes(self):
            self.assertEqual(
                gate({"responses": 10.0}, {"responses": 10.0},
                     out=null), [])

        def test_drift_fails(self):
            failures = gate({"responses": 10.0}, {"responses": 15.0},
                            out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("responses", failures[0])

        def test_one_count_drift_fails_by_name(self):
            # 9 -> 8 dark devices out of thousands of quantities: the old
            # 10% tolerance hid drifts like this one.
            failures = gate(
                {"lossy_fast_budget_tm20_flood_dark": 8.0,
                 "agg10k_collected": 10000.0},
                {"lossy_fast_budget_tm20_flood_dark": 9.0,
                 "agg10k_collected": 10000.0}, out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("lossy_fast_budget_tm20_flood_dark", failures[0])
            failures = gate({"noagg10k_offers": 4012345.0},
                            {"noagg10k_offers": 4012346.0}, out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("noagg10k_offers", failures[0])

        def test_float_within_1e9_relative_passes(self):
            base = 1234.5678901
            self.assertEqual(
                gate({"hop_mean": base}, {"hop_mean": base * (1 + 5e-10)},
                     out=null), [])
            failures = gate({"hop_mean": base},
                            {"hop_mean": base * (1 + 1e-8)}, out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("hop_mean", failures[0])

        def test_count_allows_no_float_headroom(self):
            # An integral baseline is a count: even a sub-1e-9 wobble is
            # not that count.
            self.assertEqual(
                len(gate({"radio_bytes": 4e9}, {"radio_bytes": 4e9 + 1},
                         out=null)), 1)

        def test_bytes_quantity_gated_exactly(self):
            # Memory counters (fleet_mem_*_bytes) are exact counts: not
            # wall-clock, so one byte of drift fails, and losing the
            # quantity fails by name.
            for name in ("fleet_mem_private_bytes",
                         "fleet_mem_logical_bytes"):
                self.assertFalse(WALL_CLOCK.search(name), name)
            base = {"fleet_mem_private_bytes": 3648000.0}
            self.assertEqual(gate(base, dict(base), out=null), [])
            failures = gate(base, {"fleet_mem_private_bytes": 3648001.0},
                            out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("fleet_mem_private_bytes", failures[0])
            failures = gate(base, {}, out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("fleet_mem_private_bytes", failures[0])
            self.assertIn("missing", failures[0])

        def test_improvement_also_fails(self):
            # Sim-derived drift fails in BOTH directions: "better" numbers
            # still mean behaviour changed under a fixed seed.
            failures = gate({"unreachable": 10.0}, {"unreachable": 0.0},
                            out=null)
            self.assertEqual(len(failures), 1)

        def test_missing_sim_quantity_named(self):
            failures = gate({"responses": 10.0}, {},
                            baseline_name="BENCH_a.json",
                            candidate_name="BENCH_b.json", out=null)
            self.assertEqual(len(failures), 1)
            self.assertIn("responses", failures[0])
            self.assertIn("missing from BENCH_b.json", failures[0])
            self.assertIn("BENCH_a.json", failures[0])

        def test_missing_wall_clock_ok(self):
            self.assertEqual(
                gate({"t8_round_wall_ms": 9.0}, {}, out=null), [])

        def test_wall_clock_drift_informational(self):
            self.assertEqual(
                gate({"t1_build_ms": 10.0}, {"t1_build_ms": 99.0},
                     out=null), [])

        def test_barrier_wait_share_is_wall_clock(self):
            # The phase-profile headline is a wall-clock ratio: reported,
            # never gated, despite not ending in _ms.
            self.assertTrue(WALL_CLOCK.search("barrier_wait_share"))
            self.assertTrue(WALL_CLOCK.search("t8_barrier_wait_ms"))
            self.assertTrue(WALL_CLOCK.search("t8_coord_drain_ms"))
            self.assertEqual(
                gate({"barrier_wait_share": 0.2},
                     {"barrier_wait_share": 0.9}, out=null), [])

        def test_sim_quantities_still_gated(self):
            for name in ("collected", "healthy", "responses", "flood_tx",
                         "hop_p99"):
                self.assertFalse(WALL_CLOCK.search(name), name)

        def test_extra_quantity_is_not_failure(self):
            self.assertEqual(
                gate({}, {"brand_new": 1.0}, out=null), [])

        def test_zero_baseline_exact_match_required(self):
            self.assertEqual(
                gate({"drops": 0.0}, {"drops": 0.0}, out=null), [])
            self.assertEqual(
                len(gate({"drops": 0.0}, {"drops": 1.0}, out=null)), 1)

    stream = io.StringIO()
    suite = unittest.TestSuite()
    loader = unittest.TestLoader()
    suite.addTests(loader.loadTestsFromTestCase(LoadTest))
    suite.addTests(loader.loadTestsFromTestCase(GateTest))
    result = unittest.TextTestRunner(
        stream=stream, verbosity=2).run(suite)
    print(stream.getvalue(), end="")
    return 0 if result.wasSuccessful() else 1


if __name__ == "__main__":
    sys.exit(main())
