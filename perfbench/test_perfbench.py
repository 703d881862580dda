"""Tests of the benchmark's own machinery.

Run with ``python3 -m pytest perfbench -q`` from the repository root.
"""

import os
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import layers  # noqa: E402
import swarm  # noqa: E402
from stats import ErrorTally, min_samples, percentile  # noqa: E402
from tracing import Tracer, self_times  # noqa: E402


class TestPercentile:
    def test_nearest_rank(self):
        values = list(range(100, 0, -1))  # unsorted input
        assert percentile(values, 0.5) == 50
        assert percentile(values, 0.9) == 90

    def test_rank_rounds_up(self):
        values = [float(v) for v in range(1, 106)]
        # ceil(0.9 * 105) = 95: the 95th smallest, with 10 beyond it.
        assert percentile(values, 0.9) == 95.0

    def test_ten_beyond_rule(self):
        assert min_samples(0.5) == 20
        assert min_samples(0.9) == 100
        assert min_samples(0.99) == 1000
        assert percentile(list(range(20)), 0.5) == 9
        with pytest.raises(ValueError):
            percentile(list(range(19)), 0.5)
        with pytest.raises(ValueError):
            percentile(list(range(99)), 0.9)

    def test_rejects_empty_and_out_of_range(self):
        with pytest.raises(ValueError):
            percentile([], 0.5)
        with pytest.raises(ValueError):
            percentile(list(range(100)), 1.0)


class TestSelfTime:
    def test_nested_and_adjacent_children(self):
        # parent [0, 10]: children [1, 3] and [3, 5] abut; [1.5, 2] nests
        # inside the first child.
        starts = [0.0, 1.0, 3.0, 1.5]
        ends = [10.0, 3.0, 5.0, 2.0]
        parents = [-1, 0, 0, 1]
        assert self_times(starts, ends, parents) == pytest.approx(
            [6.0, 1.5, 2.0, 0.5]
        )

    def test_overlapping_and_overhanging_children(self):
        # Children overlap each other and one runs past its parent's end;
        # only the union inside the parent is subtracted.
        starts = [0.0, 1.0, 2.0, 8.0]
        ends = [10.0, 4.0, 5.0, 12.0]
        parents = [-1, 0, 0, 0]
        own = self_times(starts, ends, parents)
        assert own[0] == pytest.approx(10.0 - 4.0 - 2.0)

    def test_tracer_records_parent_links_and_outermost_only(self):
        tracer = Tracer()

        def leaf():
            return 1

        inner = tracer._span_wrapper("leaf", leaf, False)

        def recursive(n):
            return inner() if n == 0 else recursive_span(n - 1)

        recursive_span = tracer._span_wrapper("check", recursive, True)
        assert recursive_span(3) == 1
        table = tracer.layer_table()
        assert table["check"]["calls"] == 1  # outermost call only
        assert table["leaf"]["calls"] == 1
        assert list(tracer.parents) == [-1, 0]
        total = table["check"]["total_s"]
        assert table["check"]["busy_s"] == pytest.approx(
            total - table["leaf"]["total_s"]
        )


class TestErrorRate:
    def test_counts_failures_against_attempts(self):
        tally = ErrorTally()
        assert tally.error_rate == 0.0
        assert tally.check(True, "fine")
        assert not tally.check(False, "tip differs")
        assert not tally.check(False, "tip differs")
        tally.check(True, "fine")
        assert (tally.attempted, tally.failed) == (4, 2)
        assert tally.error_rate == 0.5
        assert tally.reasons == {"tip differs": 2}


class TestTracerInstall:
    def test_rebinds_from_imports_and_restores(self):
        from repro.bitcoin import mempool, validation

        original = validation.check_tx_inputs
        assert mempool.check_tx_inputs is original
        tracer = Tracer()
        tracer.install()
        try:
            # The caller's own binding is wrapped, not just the definition.
            assert mempool.check_tx_inputs is not original
            assert mempool.check_tx_inputs is validation.check_tx_inputs
        finally:
            tracer.uninstall()
        assert mempool.check_tx_inputs is original
        assert validation.check_tx_inputs is original

    def test_every_per_layer_metric_has_a_unit(self):
        for name, unit in layers.PER_LAYER.items():
            assert unit and name.split(".")[0]


def _swarm_run(seed: int) -> dict:
    inputs = swarm.generate_inputs(seed, rounds=3)
    state = swarm.setup(inputs)
    tally = ErrorTally()
    result = swarm.run(inputs, state, tally)
    assert tally.failed == 0, tally.reasons
    return result


class TestDeterminism:
    def test_same_seed_same_blocks_and_events(self):
        first, second = _swarm_run(5), _swarm_run(5)
        assert first["block_hashes"] == second["block_hashes"]
        assert first["events_processed"] == second["events_processed"]
        assert first["sim_end"] == second["sim_end"]
        other = _swarm_run(6)
        assert other["block_hashes"] != first["block_hashes"]
        # The event count follows the topology and can coincide across
        # seeds; the hop delays drawn from the seed cannot.
        assert other["sim_end"] != first["sim_end"]


class TestBenchmarkFile:
    def test_metric_lists_match_the_code(self):
        import json

        import run

        spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
        assert [m["name"] for m in spec["end_to_end"]] == list(run.END_TO_END)
        assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
        assert {m["name"]: m["unit"] for m in spec["per_layer"]} == layers.PER_LAYER
        assert [w["name"] for w in spec["workloads"]] == list(run.WORKLOADS)
        setup = next(m for m in spec["end_to_end"] if m["name"] == "setup_s")
        assert setup["bound"] == max(m["bound"] for m in spec["end_to_end"])


class TestWorkloadOutputs:
    def test_claims_verdicts_match_the_oracle(self):
        import claims

        inputs = claims.generate_inputs(3, operations=40)
        kinds = [op[0] for op in inputs.ops]
        assert kinds.count("transfer") == 20 and kinds.count("wrong-claim") == 4
        state = claims.setup(inputs)
        tally = ErrorTally()
        try:
            claims.run(inputs, state, tally)
        finally:
            claims.close(state)
        assert (tally.attempted, tally.failed) == (40, 0), tally.reasons

    def test_cold_sync_matches_the_source(self, tmp_path):
        import coldsync

        inputs = coldsync.generate_inputs(
            3, chains=2, blocks=2, recover_cycles=2, workdir=tmp_path
        )
        assert all(c.meta["pid"] != os.getpid() for c in inputs.chains)
        state = coldsync.setup(inputs)
        tally = ErrorTally()
        try:
            result = coldsync.run(inputs, state, tally)
        finally:
            coldsync.close(state)
        assert tally.failed == 0, tally.reasons
        assert tally.attempted == 2 * (1 + 2)
        assert len(result["latency_ms"]) == 2 * 2
