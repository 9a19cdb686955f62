"""Smoke test of the benchmark itself.

Every workload runs one round at a tiny size with all of its checks on, a
traced run reports every per-layer metric, and a deliberately wrong oracle
answer makes a run incorrect.  Run with ``PYTHONPATH=src python -m pytest
perfbench`` or ``python3 perfbench/test_smoke.py``.
"""

from __future__ import annotations

import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path[:0] = [str(HERE.parent / "src"), str(HERE)]

import oracle  # noqa: E402
import run as bench  # noqa: E402
from spans import PER_LAYER_UNITS  # noqa: E402
from workloads import (ROOT, TINY, ChurnRepair, FaultFixture, Run,  # noqa: E402
                       cut_above, duplicates, event_at, fault_explains)


@pytest.mark.parametrize("workload", bench.WORKLOAD_NAMES)
def test_workload_runs_to_its_end_with_every_check_on(workload, tmp_path):
    result, record = bench.execute(workload, seed=3, seconds=0, trace=False,
                                   sizes=TINY, out=tmp_path)
    assert result["correct"], record["problems"]
    assert result["attempted"] >= 1 and record["rounds"] == 1
    assert set(result["metrics"]) == set(bench.END_TO_END_UNITS)
    assert all(metric["value"] > 0 for metric in result["metrics"].values())
    if workload == "churn-repair":
        # One wave: 20 membership changes, one repair, the seeded probes, the
        # fixed fault probe (which misses until the verifier is mended), then
        # the set-up and restore samples.
        assert result["attempted"] == (10 + 5 + 3 + 2 + 1 + TINY.churn_probes + 1
                                       + 2 * ChurnRepair.samples_per_round)
        assert result["failed"] == 1
    else:
        assert result["failed"] == 0


def test_traced_run_reports_every_per_layer_metric(tmp_path):
    result, _ = bench.execute("journal-recover", seed=3, seconds=0, trace=True,
                              sizes=TINY, out=tmp_path)
    assert result["correct"]
    assert set(result["metrics"]) == set(PER_LAYER_UNITS)
    assert result["metrics"]["journal.snapshots"]["value"] > 0
    assert list((tmp_path / "spans").glob("journal-recover-seed3.jsonl.gz"))


@pytest.mark.parametrize("seed, target, dropped_on_the_way_up", [
    ("fault-fixture-1", "S116", False),
    ("fault-fixture-6", "S303", True),
])
def test_fault_explains_only_misses_cut_off_by_the_dropped_visit(
        seed, target, dropped_on_the_way_up):
    run = Run()
    fixture = FaultFixture(run, seed, target)
    broker = fixture.broker
    before = duplicates(broker)
    outcome = broker.publish(event_at(fixture.point))
    missing = fixture.oracle.matching(fixture.point) - outcome.received
    assert missing and not run.problems
    cuts = [cut_above(broker.simulation, name, outcome.event_id, fixture.point)
            for name in missing]
    assert all((cut == ROOT) == dropped_on_the_way_up for cut in cuts)
    assert fault_explains(broker, before, fixture.point)(outcome, missing)
    # Without a dropped duplicate in this publication nothing is explained.
    assert not fault_explains(broker, duplicates(broker), fixture.point)(outcome, missing)
    # A "miss" in a part of the tree that the event reached, but not below
    # the dropped visit, is not put down to the fault.  (When the event never
    # reached the root, everything outside the reached part was cut off.)
    elsewhere = [name for name in sorted(fixture.oracle.names() - outcome.received)
                 if cut_above(broker.simulation, name, outcome.event_id,
                              fixture.point) != ROOT][:20]
    explains = fault_explains(broker, before, fixture.point)
    assert elsewhere and not any(explains(outcome, missing | {name}) for name in elsewhere)


def test_wrong_oracle_answer_fails_the_run(monkeypatch, tmp_path):
    matching = oracle.BoxOracle.matching

    def drop_one(self, point):
        hits = matching(self, point)
        return hits - {min(hits)} if hits else hits | {"nobody"}

    monkeypatch.setattr(oracle.BoxOracle, "matching", drop_one)
    result, record = bench.execute("publish-steady", seed=3, seconds=0, trace=False,
                                   sizes=TINY, out=tmp_path)
    assert not result["correct"]
    assert any("oracle" in problem for problem in record["problems"])


if __name__ == "__main__":
    sys.exit(pytest.main([__file__, "-q"]))
