"""The benchmark regression gate (benchmarks/run_all.py check_gate)."""

import importlib.util
from pathlib import Path

import pytest

_SPEC = importlib.util.spec_from_file_location(
    "bench_run_all", Path(__file__).resolve().parent.parent / "benchmarks" / "run_all.py"
)
run_all = importlib.util.module_from_spec(_SPEC)
_SPEC.loader.exec_module(run_all)


def _snapshot(times, ratios=None):
    ratios = ratios or {}
    return {
        "compression": {
            name: {
                "translate_s": t,
                "compression_ratio": ratios.get(name, 2.0),
            }
            for name, t in times.items()
        }
    }


BASE_TIMES = {"a": 0.1, "b": 0.2, "c": 0.4, "d": 0.8}


class TestCheckGate:
    def test_identical_snapshot_passes(self):
        base = _snapshot(BASE_TIMES)
        assert run_all.check_gate(base, base) == []

    def test_uniform_machine_slowdown_passes(self):
        # A CI runner 2x slower across the board is not a regression.
        base = _snapshot(BASE_TIMES)
        slow = _snapshot({k: t * 2.0 for k, t in BASE_TIMES.items()})
        assert run_all.check_gate(slow, base) == []

    def test_catastrophic_uniform_slowdown_fails(self):
        # Median normalization is backstopped: everything 4x slower fails.
        base = _snapshot(BASE_TIMES)
        slow = _snapshot({k: t * 4.0 for k, t in BASE_TIMES.items()})
        failures = run_all.check_gate(slow, base)
        assert any("fleet-wide" in f for f in failures)

    def test_single_model_slowdown_fails(self):
        base = _snapshot(BASE_TIMES)
        times = dict(BASE_TIMES)
        times["d"] = BASE_TIMES["d"] * 2.0  # one model regresses vs the fleet
        assert any(
            "translate_s regression on 'd'" in f
            for f in run_all.check_gate(_snapshot(times), base)
        )

    def test_small_absolute_jitter_passes(self):
        # 2x ratio but only +4ms on a 4ms translation: inside the grace.
        tiny = {"a": 0.004, "b": 0.2, "c": 0.4, "d": 0.8}
        base = _snapshot(tiny)
        times = dict(tiny)
        times["a"] = 0.008
        assert run_all.check_gate(_snapshot(times), base) == []

    def test_sub_10ms_model_regression_beyond_grace_fails(self):
        # The grace shields jitter, not real regressions of small models.
        tiny = {"a": 0.006, "b": 0.2, "c": 0.4, "d": 0.8}
        base = _snapshot(tiny)
        times = dict(tiny)
        times["a"] = 0.055  # ~9x, +49ms
        failures = run_all.check_gate(_snapshot(times), base)
        assert any("translate_s regression on 'a'" in f for f in failures)

    def test_compression_ratio_regression_fails(self):
        base = _snapshot(BASE_TIMES, ratios={"b": 5.0})
        bad = _snapshot(BASE_TIMES, ratios={"b": 4.5})
        failures = run_all.check_gate(bad, base)
        assert any("compression-ratio regression on 'b'" in f for f in failures)

    def test_compression_ratio_improvement_passes(self):
        base = _snapshot(BASE_TIMES, ratios={"b": 5.0})
        good = _snapshot(BASE_TIMES, ratios={"b": 6.0})
        assert run_all.check_gate(good, base) == []

    def test_missing_model_fails(self):
        base = _snapshot(BASE_TIMES)
        partial = _snapshot({k: t for k, t in BASE_TIMES.items() if k != "c"})
        failures = run_all.check_gate(partial, base)
        assert any("'c' missing" in f for f in failures)


class TestCacheBoundGate:
    def _with_bound(self, respected):
        snapshot = _snapshot(BASE_TIMES)
        snapshot["cache_bound"] = {
            "bound": 512,
            "peak_entries": 512,
            "with_chain_peak_entries": 512 if respected else 4096,
            "bound_respected": respected,
        }
        return snapshot

    def test_respected_bound_passes(self):
        base = _snapshot(BASE_TIMES)
        assert run_all.check_gate(self._with_bound(True), base) == []

    def test_exceeded_bound_fails_even_without_baseline_rows(self):
        failures = run_all.check_gate(self._with_bound(False), _snapshot(BASE_TIMES))
        assert any("query-cache bound 512 exceeded" in f for f in failures)
        assert any("4096 with a posterior chain open" in f for f in failures)


def _compiled_snapshot(times, identical=None):
    identical = identical or {}
    snapshot = _snapshot(BASE_TIMES)
    snapshot["compiled_logprob_batch"] = {
        name: {
            "events": 256,
            "compiled_s": t,
            "interpreted_s": t * 10,
            "speedup": 10.0,
            "bit_identical": identical.get(name, True),
        }
        for name, t in times.items()
    }
    return snapshot


COMPILED_TIMES = {"a": 0.01, "b": 0.02, "c": 0.04, "d": 0.08}


class TestCompiledGate:
    def test_identical_snapshot_passes(self):
        base = _compiled_snapshot(COMPILED_TIMES)
        assert run_all.check_gate(base, base) == []

    def test_differential_mismatch_fails_even_without_baseline_rows(self):
        # bit_identical: false is a correctness failure, not a perf one --
        # it fails against any baseline, including one predating the probe.
        bad = _compiled_snapshot(COMPILED_TIMES, identical={"b": False})
        failures = run_all.check_gate(bad, _snapshot(BASE_TIMES))
        assert any("differential mismatch on 'b'" in f for f in failures)

    def test_uniform_machine_slowdown_passes(self):
        base = _compiled_snapshot(COMPILED_TIMES)
        slow = _compiled_snapshot({k: t * 2.0 for k, t in COMPILED_TIMES.items()})
        assert run_all.check_gate(slow, base) == []

    def test_single_model_regression_fails(self):
        base = _compiled_snapshot(COMPILED_TIMES)
        times = dict(COMPILED_TIMES)
        times["d"] = COMPILED_TIMES["d"] * 2.0
        failures = run_all.check_gate(_compiled_snapshot(times), base)
        assert any(
            "compiled logprob_batch regression on 'd'" in f for f in failures
        )

    def test_small_absolute_jitter_passes(self):
        # 2x ratio but only +8ms: inside the absolute grace.
        times = dict(COMPILED_TIMES)
        times["a"] = 0.018
        base = _compiled_snapshot(COMPILED_TIMES)
        assert run_all.check_gate(_compiled_snapshot(times), base) == []

    def test_missing_model_fails(self):
        base = _compiled_snapshot(COMPILED_TIMES)
        partial = _compiled_snapshot(
            {k: t for k, t in COMPILED_TIMES.items() if k != "c"}
        )
        failures = run_all.check_gate(partial, base)
        assert any(
            "compiled_logprob_batch benchmark 'c' missing" in f for f in failures
        )
