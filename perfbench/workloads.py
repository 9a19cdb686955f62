"""The benchmark's three closed-loop workloads on the public broker surface.

Each workload has one caller in one process: it sends the next operation
only after the previous one returned.  A run is ``setup`` (a timed set-up
of the serving broker), ``prepare`` (untimed: warm-up, the fault fixture,
the journal snapshot), then whole ``round`` calls until the run's seconds
are used up; set-up and recovery samples are taken inside the rounds.
Every output is checked as it arrives; a wrong answer is recorded as a
problem and makes the run incorrect.

Only operations issued inside rounds count as attempted, so the share of
failed operations depends on the round's make-up alone, never on the seed
or on how many rounds fit in the run.
"""

from __future__ import annotations

import gc
import json
import random
import time
from dataclasses import dataclass, replace
from pathlib import Path
from typing import Callable, Dict, FrozenSet, List, Optional, Sequence, Tuple

import repro.journal.records as journal_records
from oracle import Box, BoxOracle
from repro.api.spec import SystemSpec
from repro.journal import journaling, resume_journal
from repro.overlay.config import DRTreeConfig
from repro.runtime.runner import run_one
from repro.spatial.filters import Event, make_space, subscription_from_rect
from repro.spatial.rectangle import Rect
from repro.traces.replay import dump_metrics

SPACE = make_space("x", "y")
#: Largest side of a generated subscriber box (the unit square is the space).
MAX_EXTENT = 0.2


@dataclass(frozen=True)
class Sizes:
    """Input sizes; ``FULL`` is the benchmark, ``TINY`` the smoke test."""

    steady_subscribers: int = 5000
    steady_warmup: int = 20
    steady_round: int = 50
    churn_subscribers: int = 1500
    churn_crashes: int = 10
    churn_joins: int = 5
    churn_moves: int = 3
    churn_leaves: int = 2
    churn_probes: int = 20
    journal_subscribers: int = 600
    journal_events: int = 100
    #: The cut copy keeps the journal up to this op (a kill right after it);
    #: not a multiple of the snapshot cadence, so resume replays a tail.
    journal_cut_after: int = 62
    journal_probes: int = 40


FULL = Sizes()
TINY = replace(FULL, steady_subscribers=600, steady_warmup=5, steady_round=5,
               churn_subscribers=600, churn_probes=5,
               journal_subscribers=120, journal_events=60,
               journal_cut_after=37, journal_probes=5)


class Run:
    """What one run measured and whether its outputs were right."""

    def __init__(self) -> None:
        self.attempted = 0
        self.failed = 0
        self.problems: List[str] = []
        self.problem_count = 0
        self.setup_s: List[float] = []
        self.bootstrap_repair_s: List[float] = []
        self.bootstrap_repair_messages: List[float] = []
        self.repair_s: List[float] = []
        self.repair_messages: List[float] = []
        self.publish_s: List[float] = []
        self.publish_messages: List[float] = []
        #: Facade operations timed in the drive, and the seconds they took.
        self.ops = 0
        self.op_s = 0.0
        self.journal_mb: List[float] = []
        self.recovery_s: List[float] = []
        self.seeded_probes = 0
        self.fault_misses = 0
        self.rounds = 0
        #: Per-operation engine counters and structure counts, for tracing.
        self.samples: Dict[str, List[float]] = {}

    @property
    def correct(self) -> bool:
        return self.problem_count == 0

    def check(self, ok: bool, message: str) -> None:
        if not ok:
            self.problem_count += 1
            if len(self.problems) < 20:
                self.problems.append(message)

    def sample(self, name: str, value: float) -> None:
        self.samples.setdefault(name, []).append(value)

    def timed(self, fn: Callable, *args, **kwargs):
        """Call one broker operation and add its wall time to the drive."""
        start = time.perf_counter()
        result = fn(*args, **kwargs)
        elapsed = time.perf_counter() - start
        self.ops += 1
        self.op_s += elapsed
        return result, elapsed


class Inputs:
    """Seeded raw inputs: subscriber boxes and event points as float tuples."""

    def __init__(self, seed: object, stream: str) -> None:
        # A string seed goes through SHA-512, so the draws do not depend on
        # the interpreter's hash randomisation.
        self.rng = random.Random(f"{stream}:{seed}")

    def box(self) -> Box:
        rng = self.rng
        centre = (rng.random(), rng.random())
        extent = (rng.random() * MAX_EXTENT, rng.random() * MAX_EXTENT)
        lower = tuple(min(max(c - e / 2, 0.0), 1.0) for c, e in zip(centre, extent))
        upper = tuple(min(max(c + e / 2, 0.0), 1.0) for c, e in zip(centre, extent))
        return lower, upper

    def point_in(self, box: Box) -> Tuple[float, ...]:
        lower, upper = box
        return tuple(self.rng.uniform(low, high) for low, high in zip(lower, upper))


def subscription(name: str, box: Box):
    return subscription_from_rect(name, SPACE, Rect(*box))


def event_at(point: Sequence[float], names: Sequence[str] = SPACE.names) -> Event:
    return Event(dict(zip(names, point)))


def engine_counts(broker) -> Tuple[float, float, float]:
    sim = broker.simulation
    return (sim.engine.events_processed, sim.engine.batches_processed,
            sim.metrics.counter("network.messages_sent"))


def record_engine_deltas(run: Run, prefix: str, before, after) -> None:
    for name, low, high in zip(("events_processed", "batches_processed",
                                "messages_sent"), before, after):
        run.sample(f"{prefix}.{name}", high - low)


def duplicates(broker) -> float:
    """Receptions the overlay dropped as already seen (0 on a legal tree)."""
    return broker.simulation.metrics.counter("pubsub.duplicates")


def check_publish(run: Run, oracle: BoxOracle, point: Sequence[float], outcome,
                  tolerate: Optional[Callable[[object, FrozenSet[str]], bool]] = None
                  ) -> FrozenSet[str]:
    """Check one publication against the oracle; returns its misses.

    ``tolerate(outcome, missing)`` may accept misses that a known fault
    explains; any other miss is a false negative and fails the run.
    """
    expected = oracle.matching(point)
    run.check(outcome.intended == expected,
              f"{outcome.event_id}: intended {sorted(outcome.intended)[:5]} "
              f"!= oracle {sorted(expected)[:5]}")
    missing = frozenset(expected - outcome.received)
    if missing and not (tolerate is not None and tolerate(outcome, missing)):
        run.check(False, f"{outcome.event_id}: false negatives {sorted(missing)[:5]}")
    spurious = outcome.received - expected - {outcome.publisher_id}
    run.check(outcome.false_positives == spurious,
              f"{outcome.event_id}: false positives {sorted(outcome.false_positives)[:5]} "
              f"!= received - oracle - publisher {sorted(spurious)[:5]}")
    return missing


def is_split(peer) -> bool:
    """Whether ``peer`` skips a level or hangs a lower instance off another peer.

    In a legal DR-tree a peer holds one instance per level from 0 to its top,
    and each non-top instance's parent is the peer itself.
    """
    levels = sorted(peer.instances)
    return bool(levels) and (
        levels != list(range(levels[-1] + 1))
        or any(peer.instances[level].parent != peer.process_id for level in levels[:-1]))


def level_gap_peers(broker) -> int:
    """Live peers that are split (see :func:`is_split`)."""
    return sum(is_split(peer) for peer in broker.simulation.live_peers())


def collect(span) -> None:
    """Start the next sample from a clean collector.

    Traced runs leave these collections out of the GC figures.
    """
    with span("bench.gc"):
        gc.collect()


def build_broker(run: Run, spec: SystemSpec, subscriptions: Sequence, span) -> object:
    """Spec build, ``subscribe_all`` and the bootstrap stabilize, timed."""
    with span("bench.setup"):
        start = time.perf_counter()
        broker = spec.build()
        broker.subscribe_all(subscriptions, stabilize=False)
        loaded = time.perf_counter()
        before = engine_counts(broker)
        report = broker.stabilize()
        done = time.perf_counter()
    after = engine_counts(broker)
    run.check(report.is_legal, f"bootstrap stabilize left {report.violations[:3]}")
    run.setup_s.append(done - start)
    run.bootstrap_repair_s.append(done - loaded)
    run.bootstrap_repair_messages.append(after[2] - before[2])
    record_engine_deltas(run, "bench.repair", before, after)
    run.sample("bench.level_gap_peers", level_gap_peers(broker))
    return broker


class Snapshot:
    """A journal snapshot of a set-up broker, restored once per round.

    ``journal_mb`` is its compressed size; each restore into a freshly built
    broker is one recovery sample.
    """

    def __init__(self, run: Run, broker, span) -> None:
        with span("bench.recovery"):
            self.blob = journal_records.compress_snapshot(broker.snapshot())
        run.journal_mb.append(len(self.blob) / 1e6)
        self.spec = broker.spec
        self.subscribers = broker.subscribers()

    def restore(self, run: Run, span) -> None:
        collect(span)
        with span("bench.recovery"):
            start = time.perf_counter()
            fresh = self.spec.build()
            fresh.restore(journal_records.decompress_snapshot(self.blob))
            run.recovery_s.append(time.perf_counter() - start)
        run.check(fresh.subscribers() == self.subscribers, "restored broker lost subscribers")
        run.check(fresh.simulation.verify().is_legal, "restored overlay is not legal")


class Workload:
    """Shared drive for one broker fed from seeded inputs.

    Set-up and recovery take a second or less, and the reference host changes
    speed over seconds, so instead of timing them back to back before the
    drive, the rounds of ``publish-steady`` and ``churn-repair`` end with
    ``samples_per_round`` fresh set-ups and snapshot restores
    (``journal-recover`` sets up and resumes in every round anyway): the
    samples spread over the whole run like the operations' do.
    """

    name = ""
    samples_per_round = 1

    def __init__(self, seed: int, sizes: Sizes, run: Run, span, workdir: Path) -> None:
        self.seed = seed
        self.sizes = sizes
        self.run = run
        self.span = span
        self.workdir = workdir
        self.inputs = Inputs(seed, self.name)
        self.broker = None
        self.snapshot: Optional[Snapshot] = None

    def setup(self) -> None:
        self.broker = build_broker(self.run, self.spec, self.subscriptions, self.span)

    def prepare(self) -> None:
        self.snapshot = Snapshot(self.run, self.broker, self.span)

    def samples(self) -> None:
        """Set-ups from nothing (then dropped) and restores, alternating."""
        for _ in range(self.samples_per_round):
            collect(self.span)
            build_broker(self.run, self.spec, self.subscriptions, self.span)
            self.snapshot.restore(self.run, self.span)
        self.run.attempted += 2 * self.samples_per_round

    def publish(self, point: Sequence[float], names: Sequence[str] = SPACE.names):
        """One timed ``publish`` without a publisher id."""
        event = event_at(point, names)
        before = engine_counts(self.broker)
        outcome, elapsed = self.run.timed(self.broker.publish, event)
        record_engine_deltas(self.run, "bench.publish", before,
                             engine_counts(self.broker))
        self.run.publish_s.append(elapsed)
        self.run.publish_messages.append(outcome.messages)
        return outcome


class PublishSteady(Workload):
    """The read path: targeted events into a bulk-loaded, stable overlay."""

    name = "publish-steady"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.boxes = [(f"S{index}", self.inputs.box())
                      for index in range(self.sizes.steady_subscribers)]
        self.names = [name for name, _ in self.boxes]
        self.subscriptions = [subscription(name, box) for name, box in self.boxes]
        self.oracle = BoxOracle(self.boxes)
        self.spec = SystemSpec(space=SPACE, backend="drtree:batched", seed=self.seed)

    def prepare(self) -> None:
        for _ in range(self.sizes.steady_warmup):
            self._publish_one()
        super().prepare()

    def _publish_one(self) -> None:
        point = self.inputs.point_in(self.oracle.box(self.inputs.rng.choice(self.names)))
        outcome = self.publish(point)
        check_publish(self.run, self.oracle, point, outcome)

    def round(self) -> None:
        for _ in range(self.sizes.steady_round):
            self._publish_one()
        self.run.attempted += self.sizes.steady_round
        self.samples()


class Churner:
    """Applies one wave of membership changes through the facade."""

    def __init__(self, broker, inputs: Inputs, oracle: BoxOracle, next_index: int,
                 sizes: Sizes, op: Callable = None) -> None:
        self.broker = broker
        self.inputs = inputs
        self.oracle = oracle
        self.next_index = next_index
        self.sizes = sizes
        self.op = op or (lambda fn, *args, **kwargs: fn(*args, **kwargs))

    def _new(self) -> Tuple[str, Box]:
        name = f"S{self.next_index}"
        self.next_index += 1
        return name, self.inputs.box()

    def changes(self) -> int:
        """Crashes, joins and moves without stabilizing, then departures."""
        rng, broker, oracle, sizes = self.inputs.rng, self.broker, self.oracle, self.sizes
        for victim in rng.sample(sorted(oracle.names()), sizes.churn_crashes):
            self.op(broker.fail, victim, stabilize=False)
            oracle.remove(victim)
        for _ in range(sizes.churn_joins):
            name, box = self._new()
            self.op(broker.subscribe, subscription(name, box), stabilize=False)
            oracle.add(name, box)
        for mover in rng.sample(sorted(oracle.names()), sizes.churn_moves):
            name, box = self._new()
            self.op(broker.move_subscription, mover, subscription(name, box),
                    stabilize=False)
            oracle.remove(mover)
            oracle.add(name, box)
        # unsubscribe has no stabilize flag: each one runs a full stabilization.
        for leaver in rng.sample(sorted(oracle.names()), sizes.churn_leaves):
            self.op(broker.unsubscribe, leaver)
            oracle.remove(leaver)
        return (sizes.churn_crashes + sizes.churn_joins + sizes.churn_moves
                + sizes.churn_leaves)


#: What :func:`cut_above` returns when no peer up to the root got the event.
ROOT = "root"


def parent_chain(simulation, peer_id: str):
    """Yield ``(peer, level, parent id)`` up the parent pointers from a leaf.

    The last item has parent id None: the walk reached a peer's top instance
    with no parent of its own, or an instance that is missing.
    """
    level = 0
    for _ in range(64):  # a bound against a cyclic parent chain
        peer = simulation.peer(peer_id)
        instance = peer.instances.get(level)
        parent_id = instance.parent if instance is not None else None
        if parent_id == peer_id and level == peer.top_level():
            parent_id = None
        yield peer, level, parent_id
        if not parent_id:
            return
        peer_id, level = parent_id, level + 1


def cut_above(simulation, subscriber: str, event_id: str, point: Sequence[float]):
    """Where the event stopped on its way down to ``subscriber``.

    Walks up the parent pointers from the subscriber's leaf instance to the
    first instance whose peer received the event, and returns that peer and
    level, provided the instance lists the walk's last peer as a child whose
    MBR contains ``point`` (so only a dropped visit explains why the event
    did not go down).  ``ROOT`` when the walk reaches the root and nobody on
    it received the event; None when the path is broken.
    """
    for peer, level, parent_id in parent_chain(simulation, subscriber):
        if not parent_id:
            top = level == peer.top_level() and peer.is_overlay_root()
            return ROOT if top else None
        parent = simulation.peer(parent_id)
        above = parent.instances.get(level + 1)
        if above is None or peer.process_id not in above.children:
            return None
        if parent_id != peer.process_id and event_id in parent.seen_events:
            mbr = above.children[peer.process_id].mbr
            inside = all(low <= coord <= high
                         for coord, low, high in zip(point, mbr.lower, mbr.upper))
            return (parent, level + 1) if inside else None
    return None


def climb_stop(simulation, publisher: str, event_id: str):
    """The peer at which the event stopped climbing from ``publisher``.

    The last peer on the publisher's parent chain that received the event,
    when its parent did not; None when the event reached the root.
    """
    for peer, _, parent_id in parent_chain(simulation, publisher):
        if parent_id and event_id not in simulation.peer(parent_id).seen_events:
            return peer
    return None


def fault_explains(broker, duplicates_before: float,
                   point: Sequence[float]) -> Callable[[object, FrozenSet[str]], bool]:
    """Whether a publication's misses are the known verifier fault.

    The fault: ``OverlayVerifier`` checks a peer's parent pointer only at the
    peer's top level, so an overlay where some peer is split (it skips a
    level or hangs a lower instance under another peer) is reported legal.
    Such a peer sits in two places of the tree, the event can reach it
    twice, and dissemination's duplicate check drops the second visit with
    everything it would have forwarded.  The misses are put down to the
    fault only when this publication was dropped as a duplicate and each
    missed subscriber lies where such a drop cuts the event off:

    * below a split peer that received the event, in its subtree at the
      level whose visit was dropped (a dropped visit on the way down); or
    * outside every part of the tree the event reached, when no peer from
      the subscriber up to the root received it and the event stopped
      climbing at a split peer (a dropped visit on the way up).

    Any other miss fails the run.
    """
    simulation = broker.simulation

    def explains(outcome, missing: FrozenSet[str]) -> bool:
        if duplicates(broker) <= duplicates_before:
            return False
        for name in missing:
            cut = cut_above(simulation, name, outcome.event_id, point)
            if cut == ROOT:
                stop = climb_stop(simulation, outcome.publisher_id, outcome.event_id)
                if stop is None or not is_split(stop):
                    return False
            elif cut is None or not is_split(cut[0]):
                return False
        return True

    return explains


#: The fault fixture: inputs fixed independently of ``--seed``, one churn
#: wave on a small overlay, and a probe point inside subscriber
#: ``FIXTURE_TARGET``'s box that the known verifier fault makes miss.
FIXTURE_SEED = "fault-fixture-1"
FIXTURE_SUBSCRIBERS = 300
FIXTURE_TARGET = "S116"


class FaultFixture:
    """A small overlay left in the faulty-but-"legal" state by one wave."""

    def __init__(self, run: Run, seed: str = FIXTURE_SEED,
                 target: str = FIXTURE_TARGET) -> None:
        self.run = run
        inputs = Inputs(seed, "churn-repair")
        boxes = [(f"S{index}", inputs.box()) for index in range(FIXTURE_SUBSCRIBERS)]
        self.oracle = BoxOracle(boxes)
        self.broker = SystemSpec(space=SPACE, backend="drtree:classic", seed=2).build()
        self.broker.subscribe_all([subscription(name, box) for name, box in boxes])
        Churner(self.broker, inputs, self.oracle, FIXTURE_SUBSCRIBERS, FULL).changes()
        report = self.broker.stabilize()
        run.check(report.is_legal, f"fault fixture not legal: {report.violations[:3]}")
        lower, upper = self.oracle.box(target)
        self.point = tuple((low + high) / 2 for low, high in zip(lower, upper))

    def probe(self) -> bool:
        """Publish the fixed probe; True when it missed a matching subscriber."""
        before = duplicates(self.broker)
        outcome = self.broker.publish(event_at(self.point))
        missing = check_publish(self.run, self.oracle, self.point, outcome,
                                fault_explains(self.broker, before, self.point))
        return bool(missing)


class ChurnRepair(Workload):
    """The write and repair path: waves of churn, one repair, probes."""

    name = "churn-repair"
    #: Set-up and restore are cheap next to a wave here; two of each per
    #: round give their percentiles 15 to 20 samples per run.
    samples_per_round = 2

    def __init__(self, *args) -> None:
        super().__init__(*args)
        count = self.sizes.churn_subscribers
        boxes = [(f"S{index}", self.inputs.box()) for index in range(count)]
        self.subscriptions = [subscription(name, box) for name, box in boxes]
        self.oracle = BoxOracle(boxes)
        self.spec = SystemSpec(space=SPACE, backend="drtree:classic", seed=self.seed)
        self.next_index = count

    def prepare(self) -> None:
        self.fixture = FaultFixture(self.run)
        super().prepare()
        self.churner = Churner(self.broker, self.inputs, self.oracle, self.next_index,
                               self.sizes, op=lambda fn, *a, **k: self.run.timed(fn, *a, **k))

    def round(self) -> None:
        run, broker = self.run, self.broker
        changed = self.churner.changes()
        before = engine_counts(broker)
        report, elapsed = run.timed(broker.stabilize)
        after = engine_counts(broker)
        run.check(report.is_legal, f"repair left {report.violations[:3]}")
        run.repair_s.append(elapsed)
        run.repair_messages.append(after[2] - before[2])
        record_engine_deltas(run, "bench.repair", before, after)
        run.sample("bench.level_gap_peers", level_gap_peers(broker))
        live = sorted(self.oracle.names())
        rng = self.inputs.rng
        for _ in range(self.sizes.churn_probes):
            point = self.inputs.point_in(self.oracle.box(rng.choice(live)))
            dropped_before = duplicates(broker)
            outcome = self.publish(point)
            missing = check_publish(run, self.oracle, point, outcome,
                                    fault_explains(broker, dropped_before, point))
            run.seeded_probes += 1
            run.fault_misses += bool(missing)
        # The fixture probe misses on every wave until the fault is mended.
        run.failed += self.fixture.probe()
        run.attempted += changed + 1 + self.sizes.churn_probes + 1
        self.samples()


class JournalRecover(Workload):
    """Durable capture of the ``hotspot`` scenario, a cut, and its resume.

    Each round runs the scenario on its own seed, derived from the run's
    seed and the round number: one hot-spot geometry per round, so a run's
    figures average over several clusterings instead of hanging on one.
    """

    name = "journal-recover"

    def __init__(self, *args) -> None:
        super().__init__(*args)
        self.journal = self.workdir / "hotspot.journal"
        self.cut = self.workdir / "hotspot-cut.journal"
        self.rounds_done = 0

    def setup(self) -> None:
        # Set-up happens inside every round (the broker is rebuilt from each
        # round's journal); this untimed round loads the scenario registry
        # and the journal code, and its checks still count.
        scratch = Run()
        self._cycle(scratch, scenario_seed=self.seed * 1000 + 999)
        self.run.problem_count += scratch.problem_count
        self.run.problems += scratch.problems

    def prepare(self) -> None:
        pass

    def round(self) -> None:
        self._cycle(self.run, scenario_seed=self.seed * 1000 + self.rounds_done)
        self.rounds_done += 1

    def _cycle(self, run: Run, scenario_seed: int) -> None:
        sizes = self.sizes
        params = {"peers": sizes.journal_subscribers, "events": sizes.journal_events,
                  "seed": scenario_seed, "backend": "drtree:classic"}
        for path in (self.journal, self.cut):
            path.unlink(missing_ok=True)
        collect(self.span)
        with self.span("bench.journaled_run"):
            start = time.perf_counter()
            with journaling(self.journal, scenario="hotspot", params=params) as recorder:
                outcome = run_one("hotspot", dict(params))
                if outcome.ok:
                    recorder.seal()
            elapsed = time.perf_counter() - start
        run.check(outcome.ok, f"journaled hotspot failed: {outcome.error}")
        if not outcome.ok:
            return
        ops = 1 + sizes.journal_events
        run.ops += ops
        run.op_s += elapsed
        run.journal_mb.append(self.journal.stat().st_size / 1e6)
        document = dump_metrics(outcome.scenario, outcome.rows)
        spec, boxes = self._check_journal(run, outcome.rows[0])

        # The set-up broker: the journaled subscribers, read back from disk.
        space = make_space(*spec.space.names)
        collect(self.span)
        broker = build_broker(run, spec, [subscription_from_rect(name, space, Rect(*box))
                                          for name, box in boxes], self.span)

        tail = self._cut_copy()
        collect(self.span)
        with self.span("bench.resume"):
            start = time.perf_counter()
            resumed, report = resume_journal(self.cut)
            run.recovery_s.append(time.perf_counter() - start)
        run.check(resumed.ok and dump_metrics(resumed.scenario, resumed.rows) == document,
                  "resumed metrics document is not byte-identical to the run's")
        run.check(report.reexecuted == tail,
                  f"resume re-executed {report.reexecuted} ops, the cut holds {tail}")
        run.sample("bench.tail_ops", report.reexecuted)

        # Probes: targeted events at uniformly chosen journaled subscribers.
        oracle = BoxOracle(boxes)
        names = [name for name, _ in boxes]
        self.broker = broker
        for _ in range(sizes.journal_probes):
            point = self.inputs.point_in(oracle.box(self.inputs.rng.choice(names)))
            published = self.publish(point, spec.space.names)
            check_publish(run, oracle, point, published)
        run.attempted += ops + 1 + sizes.journal_probes

    def _check_journal(self, run: Run, row: dict):
        """Read the sealed journal back; check its row against the oracle."""
        records = [json.loads(line) for line in self.journal.read_bytes().splitlines()]
        system = next(r for r in records if r["rec"] == "system")
        ops = [r for r in records if r["rec"] == "op"]
        loaded = [r for r in ops if r["op"] == "subscribe_all"]
        names = tuple(system["space"])
        boxes = [(sub["name"], (tuple(sub["rect"]["lower"]), tuple(sub["rect"]["upper"])))
                 for sub in loaded[0]["subscriptions"]]
        points = [tuple(op["event"]["attributes"][name] for name in names)
                  for op in ops if op["op"] == "publish"]
        run.check(len(loaded) == 1 and len(points) == self.sizes.journal_events,
                  "journal does not hold one subscribe_all and every publish")
        run.check(row["true_deliveries"] == BoxOracle(boxes).count_pairs(points),
                  f"true_deliveries {row['true_deliveries']} != oracle's matching pairs")
        run.check(row["false_negatives"] == 0, f"{row['false_negatives']} false negatives")
        run.check([r["row"] for r in records if r["rec"] == "final"] == [row],
                  "the journal's final row differs from the run's")
        spec = SystemSpec(space=make_space(*names), backend=system["backend"],
                          seed=system["seed"], config=DRTreeConfig(**system["config"]),
                          stabilize_rounds=system["stabilize_rounds"])
        return spec, boxes

    def _cut_copy(self) -> int:
        """Copy the journal up to op ``journal_cut_after``; returns its tail.

        The writer flushes every line, so this prefix is what a kill right
        after that op leaves on disk.
        """
        kept, ops, snapshot_ops = [], 0, 0
        for line in self.journal.read_bytes().splitlines(keepends=True):
            if ops == self.sizes.journal_cut_after:
                break
            record = json.loads(line)
            if record["rec"] == "op":
                ops += 1
            elif record["rec"] == "snapshot":
                snapshot_ops = record["ops"]
            kept.append(line)
        self.cut.write_bytes(b"".join(kept))
        return ops - snapshot_ops


WORKLOADS = {cls.name: cls for cls in (PublishSteady, ChurnRepair, JournalRecover)}
