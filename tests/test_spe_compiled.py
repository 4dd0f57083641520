"""Differential tests of the compiled columnar kernel (repro.spe.compiled).

The compiled kernel's correctness bar is absolute: every float it
returns must be bit-identical to the interpreted evaluators — NaNs and
infinities included, no tolerance anywhere.  The tests here pin that
with property-based random layered networks, the Table-1 / HMM
workloads (including conditioned and constrained posteriors compiled
explicitly), the ``.spz`` blob lifecycle (round-trip, tampering,
read-only mapping), the engine integration (routing, the kernel
surviving clear_cache), and a cross-process check that a spawned worker
answering from an mmap'd blob matches the in-process model exactly.
"""

import asyncio
import math
import os
import sys
import threading

import numpy as np
import pytest

from repro.compiler import compile_command
from repro.distributions import binomial
from repro.distributions import choice
from repro.distributions import discrete
from repro.distributions import exponential
from repro.distributions import normal
from repro.distributions import poisson
from repro.distributions import uniform
from repro.engine import SpplModel
from repro.spe import SpzError
from repro.spe import compile_spe
from repro.spe import load_spz
from repro.spe import read_spz_payload
from repro.spe import spe_digest
from repro.spe import spe_from_json
from repro.spe import spe_leaf
from repro.spe import spe_product
from repro.spe import spe_sum
from repro.workloads import hmm
from repro.workloads.table1_models import TABLE1_MODELS


def assert_bits_equal(got, want):
    """Exact float equality, where NaN == NaN (bit-identity, no tolerance)."""
    assert len(got) == len(want)
    for g, w in zip(got, want):
        if w != w:
            assert g != g, (g, w)
        else:
            assert g == w, (g, w)


# ---------------------------------------------------------------------------
# Property-based: random layered networks.
# ---------------------------------------------------------------------------

def _random_leaf(rng, symbol):
    family = rng.integers(0, 6)
    if family == 0:
        return spe_leaf(symbol, normal(float(rng.normal()), 0.5 + float(rng.uniform(0, 2))))
    if family == 1:
        low = float(rng.uniform(-2, 1))
        return spe_leaf(symbol, uniform(low, low + 0.5 + float(rng.uniform(0, 2))))
    if family == 2:
        return spe_leaf(symbol, exponential(0.5 + float(rng.uniform(0, 2))))
    if family == 3:
        return spe_leaf(symbol, poisson(0.5 + float(rng.uniform(0, 4))))
    if family == 4:
        return spe_leaf(symbol, binomial(int(rng.integers(2, 8)), float(rng.uniform(0.1, 0.9))))
    weights = {float(v): float(w) for v, w in
               zip(rng.choice(20, size=3, replace=False), rng.uniform(0.1, 1.0, size=3))}
    return spe_leaf(symbol, discrete(weights))


def _random_net(rng, symbols, depth):
    """A random layered SPE: sums share scope, products split it."""
    if depth == 0 or len(symbols) == 1:
        if len(symbols) == 1:
            parts = [_random_leaf(rng, symbols[0])]
        else:
            parts = [_random_leaf(rng, s) for s in symbols]
        return parts[0] if len(parts) == 1 else spe_product(parts)
    if rng.uniform() < 0.5 or len(symbols) == 1:
        k = int(rng.integers(2, 4))
        children = [_random_net(rng, symbols, depth - 1) for _ in range(k)]
        raw = rng.uniform(0.1, 1.0, size=k)
        log_weights = list(np.log(raw / raw.sum()))
        return spe_sum(children, log_weights)
    cut = int(rng.integers(1, len(symbols)))
    return spe_product([
        _random_net(rng, symbols[:cut], depth - 1),
        _random_net(rng, symbols[cut:], depth - 1),
    ])


def _event_battery(model, rng, n):
    """Mixed textual events: thresholds, compound or/and, impossible tails."""
    variables = sorted(str(v) for v in model.variables)
    events = []
    for i in range(n):
        first = variables[i % len(variables)]
        threshold = float(rng.uniform(-3.0, 6.0))
        if i % 7 == 2 and len(variables) > 1:
            second = variables[(i + 1) % len(variables)]
            joiner = "or" if i % 2 else "and"
            events.append("%s < %r %s %s > %r"
                          % (first, threshold, joiner, second,
                             float(rng.uniform(-3.0, 6.0))))
        elif i % 7 == 5:
            events.append("%s < -1e12" % first)  # impossible for every family here
        else:
            events.append("%s < %r" % (first, threshold))
    return events


class TestRandomNetDifferential:
    @pytest.mark.parametrize("seed", range(8))
    def test_logprob_batch_bit_identical(self, seed):
        rng = np.random.default_rng(seed)
        symbols = ["X%d" % i for i in range(int(rng.integers(2, 5)))]
        spe = _random_net(rng, symbols, depth=int(rng.integers(1, 4)))
        model = SpplModel(spe)
        model.compile()
        interpreted = SpplModel(spe, cache=False)
        events = _event_battery(model, rng, 32)
        assert_bits_equal(
            model.logprob_batch(events), interpreted.logprob_batch(events)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_logpdf_batch_bit_identical(self, seed):
        rng = np.random.default_rng(100 + seed)
        symbols = ["X%d" % i for i in range(int(rng.integers(2, 4)))]
        spe = _random_net(rng, symbols, depth=2)
        model = SpplModel(spe)
        assignments = model.sample(16, seed=seed)
        # Off-support points too: densities of -inf must match exactly.
        assignments.append({s: -1e12 for s in symbols})
        model.compile()
        interpreted = SpplModel(spe, cache=False)
        assert_bits_equal(
            model.logpdf_batch(assignments), interpreted.logpdf_batch(assignments)
        )

    @pytest.mark.parametrize("seed", range(4))
    def test_sample_columns_bit_identical(self, seed):
        rng = np.random.default_rng(200 + seed)
        symbols = ["X%d" % i for i in range(3)]
        spe = _random_net(rng, symbols, depth=2)
        model = SpplModel(spe)
        want = SpplModel(spe, cache=False).sample_columns(512, seed=seed)
        model.compile()
        got = model.sample_columns(512, seed=seed)
        assert set(got) == set(want)
        for symbol in want:
            assert got[symbol].dtype == want[symbol].dtype
            np.testing.assert_array_equal(got[symbol], want[symbol])


# ---------------------------------------------------------------------------
# Workload differentials (Table 1, HMM) including posteriors and edges.
# ---------------------------------------------------------------------------

WORKLOADS = sorted(TABLE1_MODELS)


class TestWorkloadDifferential:
    @pytest.mark.parametrize("name", WORKLOADS)
    def test_table1_logprob_bit_identical(self, name):
        spe = compile_command(TABLE1_MODELS[name]())
        model = SpplModel(spe)
        model.compile()
        interpreted = SpplModel(spe, cache=False)
        events = _event_battery(model, np.random.default_rng(3), 24)
        assert_bits_equal(
            model.logprob_batch(events), interpreted.logprob_batch(events)
        )

    def test_hmm_logprob_bit_identical(self):
        model = hmm.model(8)
        spe = model.spe
        model.compile()
        interpreted = SpplModel(spe, cache=False)
        events = _event_battery(model, np.random.default_rng(4), 24)
        assert_bits_equal(
            model.logprob_batch(events), interpreted.logprob_batch(events)
        )

    def test_conditioned_posterior_bit_identical(self):
        base = hmm.model(4)
        posterior = base.condition("X[0] < 0.3 and X[1] > 0.1")
        posterior.compile()
        interpreted = SpplModel(posterior.spe, cache=False)
        events = _event_battery(posterior, np.random.default_rng(5), 16)
        assert_bits_equal(
            posterior.logprob_batch(events), interpreted.logprob_batch(events)
        )

    def test_constrained_posterior_bit_identical(self):
        data = hmm.simulate_data(4, seed=0)
        base = hmm.model(4)
        posterior = base.constrain(
            hmm.observation_assignment(data["x"], data["y"])
        )
        posterior.compile()
        interpreted = SpplModel(posterior.spe, cache=False)
        events = ["%s == 1" % hmm.z(t) for t in range(4)]
        events += ["%s == 0 or %s == 1" % (hmm.z(0), hmm.z(1))]
        assert_bits_equal(
            posterior.logprob_batch(events), interpreted.logprob_batch(events)
        )

    def test_nan_inf_edges_bit_identical(self):
        spe = spe_product([
            spe_leaf("U", uniform(0, 1)),
            spe_leaf("N", poisson(2.0)),
        ])
        model = SpplModel(spe)
        model.compile()
        interpreted = SpplModel(spe, cache=False)
        events = [
            "U < -1.0",            # impossible: exactly -inf
            "U < 0.0",             # boundary of the support
            "U < inf",             # tautology on U
            "N == 3.5",            # non-integer atom of a discrete leaf
            "N == -1",             # out of range
            "N < inf",             # tautology on N
            "U < 0.5 and N == 2",
            "U < -1.0 or N == 0",
        ]
        got = model.logprob_batch(events)
        want = interpreted.logprob_batch(events)
        assert_bits_equal(got, want)
        assert got[0] == -math.inf
        assert got[2] == 0.0


# ---------------------------------------------------------------------------
# The .spz blob: round-trip, verification, read-only mapping.
# ---------------------------------------------------------------------------

class TestSpzBlob:
    def _compiled(self):
        spe = compile_command(TABLE1_MODELS["Alarm"]())
        return SpplModel(spe), compile_spe(spe)

    def test_round_trip_bit_identical(self, tmp_path):
        model, handle = self._compiled()
        path = tmp_path / "alarm.spz"
        handle.save(path)
        loaded = load_spz(path)
        try:
            assert loaded.digest == handle.digest == spe_digest(model.spe)
            assert loaded.describe()["mmap"] is True
            events = _event_battery(model, np.random.default_rng(6), 12)
            resolved = [model._resolve_event(e) for e in events]
            assert_bits_equal(
                loaded.logprob_batch(resolved), handle.logprob_batch(resolved)
            )
        finally:
            loaded.close()
            handle.close()

    def test_save_is_deterministic(self, tmp_path):
        _, handle = self._compiled()
        first, second = tmp_path / "a.spz", tmp_path / "b.spz"
        handle.save(first)
        handle.save(second)
        handle.close()
        assert first.read_bytes() == second.read_bytes()

    def test_tampered_blob_is_rejected(self, tmp_path):
        _, handle = self._compiled()
        path = tmp_path / "alarm.spz"
        handle.save(path)
        handle.close()
        blob = bytearray(path.read_bytes())
        # Flip a byte inside the canonical payload section (first aligned
        # offset after the reserved header region), which loading verifies.
        blob[4096 + 16] ^= 0xFF
        path.write_bytes(bytes(blob))
        with pytest.raises(SpzError):
            load_spz(path)

    def test_expected_digest_mismatch_is_rejected(self, tmp_path):
        _, handle = self._compiled()
        path = tmp_path / "alarm.spz"
        handle.save(path)
        handle.close()
        with pytest.raises(SpzError):
            load_spz(path, expected_digest="0" * 64)

    def test_read_spz_payload_round_trips_the_graph(self, tmp_path):
        model, handle = self._compiled()
        path = tmp_path / "alarm.spz"
        handle.save(path)
        digest = handle.digest
        handle.close()
        payload = read_spz_payload(path, expected_digest=digest)
        rebuilt = spe_from_json(payload)
        assert spe_digest(rebuilt) == digest
        with pytest.raises(SpzError):
            read_spz_payload(path, expected_digest="0" * 64)

    def test_mapped_arrays_are_read_only(self, tmp_path):
        _, handle = self._compiled()
        path = tmp_path / "alarm.spz"
        handle.save(path)
        handle.close()
        loaded = load_spz(path)
        try:
            weights = loaded._arrays["child_log_weights"]
            with pytest.raises(ValueError):
                weights[0] = 0.0
        finally:
            loaded.close()

    def test_closed_handle_raises(self):
        model, handle = self._compiled()
        handle.close()
        with pytest.raises(SpzError):
            handle.logprob_batch([model._resolve_event("burglary == 1")])


# ---------------------------------------------------------------------------
# Engine integration: routing, the kernel surviving clear_cache.
# ---------------------------------------------------------------------------

class TestEngineIntegration:
    def test_attach_rejects_mismatched_digest(self):
        alarm = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        grass = compile_spe(compile_command(TABLE1_MODELS["Grass"]()))
        try:
            with pytest.raises(ValueError):
                alarm.attach_compiled(grass)
        finally:
            grass.close()

    def test_attach_rejects_closed_handle(self):
        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        handle = compile_spe(model.spe)
        handle.close()
        with pytest.raises(ValueError):
            model.attach_compiled(handle)

    def test_compile_writes_content_addressed_blob_once(self, tmp_path):
        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        path = tmp_path / "alarm.spz"
        model.compile(path=str(path))
        stamp = path.stat().st_mtime_ns
        model.compile(path=str(path))  # same content: not rewritten
        assert path.stat().st_mtime_ns == stamp

    def test_clear_cache_answers_after_blob_vanishes(self, tmp_path):
        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        path = tmp_path / "alarm.spz"
        model.compile(path=str(path))
        (value,) = model.logprob_batch(["burglary == 1"])
        os.unlink(path)
        model.clear_cache()
        assert model.logprob_batch(["burglary == 1"]) == [value]

    def test_clear_cache_does_not_race_kernel_batches(self, tmp_path):
        """The kernel is immutable, so a clear leaves it attached: batches
        on another thread keep answering, bit-identically, throughout."""
        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        model.compile(path=str(tmp_path / "alarm.spz"))
        kernel = model.compiled
        events = _event_battery(model, np.random.default_rng(3), 24)
        expected = model.logprob_batch(events)
        answers, errors = [], []
        done = threading.Event()

        def batches():
            while not done.is_set():
                try:
                    answers.append(model.logprob_batch(events))
                except Exception as error:
                    errors.append(error)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)  # interleave the threads finely
        worker = threading.Thread(target=batches)
        worker.start()
        try:
            for _ in range(300):
                model.clear_cache(everything=True)
        finally:
            done.set()
            worker.join()
            sys.setswitchinterval(interval)
        assert errors == []
        assert answers
        for answer in answers:
            assert_bits_equal(answer, expected)
        assert model.compiled is kernel and not kernel.closed

    def test_from_spz_is_bit_identical(self, tmp_path):
        source = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        path = tmp_path / "alarm.spz"
        source.compile(path=str(path))
        digest = spe_digest(source.spe)
        loaded = SpplModel.from_spz(path, expected_digest=digest)
        events = _event_battery(source, np.random.default_rng(7), 12)
        interpreted = SpplModel(source.spe, cache=False)
        assert_bits_equal(
            loaded.logprob_batch(events), interpreted.logprob_batch(events)
        )

    def test_detach_restores_interpreted_routing(self):
        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        model.compile()
        assert model.compiled is not None
        model.detach_compiled()
        assert model.compiled is None
        assert model.compiled_info() is None
        # Still answers (through the interpreter).
        assert model.logprob_batch(["burglary == 1"])

    def test_explicit_memo_bypasses_the_compiled_route(self):
        from repro.spe import Memo

        model = SpplModel(compile_command(TABLE1_MODELS["Alarm"]()))
        interpreted = SpplModel(model.spe, cache=False)
        model.compile()
        events = ["burglary == 1", "alarm == 1"]
        memo = Memo()
        assert_bits_equal(
            model.logprob_batch(events, memo=memo),
            interpreted.logprob_batch(events),
        )


# ---------------------------------------------------------------------------
# Cross-process: a spawned worker answering from the mmap'd blob.
# ---------------------------------------------------------------------------

class TestCrossProcessBlob:
    def test_worker_seeded_by_path_matches_in_process(self, tmp_path):
        from repro.serve import ModelRegistry
        from repro.serve import wire
        from repro.serve.sharding import WorkerPool

        registry = ModelRegistry(blob_dir=tmp_path)
        registered = registry.register_catalog("indian_gpa")
        spec = wire.model_spec(registered)
        assert spec["path"].endswith(registered.digest + ".spz")
        assert "payload" not in spec

        model = registry.build_catalog("indian_gpa")
        events = ["GPA > %r" % (0.4 * i) for i in range(8)]
        expected = [("ok", model.logprob(event)) for event in events]

        pool = WorkerPool(1)
        pool.start({"indian_gpa": spec})

        async def main():
            try:
                return await pool.run_batch(
                    "indian_gpa", "logprob", None, 0, events
                )
            finally:
                await pool.close()

        results = asyncio.run(main())
        assert results == expected  # bit-identical across the process gap

        stats = asyncio.run(self._shard_stats(registry, spec))
        compiled = stats[0]["indian_gpa"]["compiled"]
        assert compiled["digest"] == registered.digest
        assert compiled["mmap"] is True
        assert compiled["path"] == spec["path"]

    @staticmethod
    async def _shard_stats(registry, spec):
        from repro.serve.sharding import WorkerPool

        pool = WorkerPool(1)
        pool.start({"indian_gpa": spec})
        try:
            return await pool.shard_stats()
        finally:
            await pool.close()
