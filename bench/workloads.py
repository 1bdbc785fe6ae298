"""The four workloads: seeded input generators, models, engine settings.

Sizes and paced rates are frozen constants (tuned once on the 2-core
reference box so that one driver run — set-up, reference check and
``--seconds`` of measurement — ends well inside the contract's cap).
Never derive a rate at run time: a rate that follows the machine hides
the regression it should expose.

The program under test only ever sees the generated events; the seed
stays on this side of the boundary.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass, field
from typing import Callable

from repro.api import EngineConfig
from repro.core.model import CaesarModel
from repro.events.event import Event
from repro.events.types import EventType
from repro.language import parse_query
from repro.net.protocol import encode_event

# ---------------------------------------------------------------------------
# frozen sizes and rates
# ---------------------------------------------------------------------------

#: Linear Road, one-shot ``run()``: roads x segments x minutes, and how many
#: times the processing queries are replicated (3 copies = 12 event queries,
#: the paper's "average" workload of about 10)
LR_BATCH = {"roads": 2, "segments": 20, "minutes": 16, "copies": 3}
#: Linear Road over TCP into ``repro serve --scenario traffic``
LR_TCP = {"roads": 2, "segments": 20, "minutes": 16, "paced_rate_eps": 5000}
#: synthetic tick stream through an in-process ``EngineService``
AGG = {
    "events": 4320,
    "symbols": 16,
    "ticks_per_second": 8,
    "zipf_exponent": 1.1,
    "block": 64,
    "retention": 300,
    "regime_seconds": 45,
    "paced_rate_eps": 1200,
}
#: PAM through a supervised, checkpointing ``EngineService`` with reordered
#: arrival and scripted deploy/retire operations
PAM = {
    "subjects": 14,
    "minutes": 10,
    "report_interval": 1,
    "max_delay": 5,
    "jitter": 4,
    "op_every": 1400,
    "paced_rate_eps": 3000,
}
#: bound of every service's ingestion queue (the ``repro serve`` default)
QUEUE_SIZE = 1024


@dataclass
class Inputs:
    """One workload's generated inputs, in arrival order."""

    events: list[Event]
    #: ``(index, kind)``: control op issued before ``events[index]``
    ops: list[tuple[int, str]] = field(default_factory=list)
    digest: str = ""

    def __post_init__(self) -> None:
        if not self.digest:
            self.digest = stream_digest(self.events)


def stream_digest(events: list[Event]) -> str:
    """blake2b over the wire form of every event, in arrival order."""
    digest = hashlib.blake2b(digest_size=16)
    for event in events:
        digest.update(encode_event(event).encode("utf-8"))
        digest.update(b"\n")
    return digest.hexdigest()


@dataclass(frozen=True)
class Workload:
    """Everything the harness needs to run and check one workload."""

    name: str
    why: str
    #: "batch" (one-shot run), "service" (in-process EngineService) or
    #: "tcp" (``repro serve`` child process)
    kind: str
    make_inputs: Callable[[int, float], Inputs]
    build_model: Callable[[], CaesarModel]
    engine_config: Callable[[], EngineConfig]
    sizes: dict
    paced_rate_eps: int = 0
    max_delay: int = 0
    #: builds the query the scripted ops deploy and retire
    deploy_query: Callable[[], object] | None = None


# ---------------------------------------------------------------------------
# Linear Road (lr_batch, lr_serve_tcp)
# ---------------------------------------------------------------------------


def _linear_road_inputs(sizes: dict) -> Callable[[int, float], Inputs]:
    def make_inputs(seed: int, scale: float) -> Inputs:
        from repro.linearroad.generator import (
            LinearRoadConfig,
            generate_stream,
            paper_timeline_schedules,
        )

        config = paper_timeline_schedules(
            LinearRoadConfig(
                num_roads=sizes["roads"],
                segments_per_road=sizes["segments"],
                duration_minutes=max(3, round(sizes["minutes"] * scale)),
                seed=seed,
            )
        )
        return Inputs(list(generate_stream(config)))

    return make_inputs


def _lr_batch_model() -> CaesarModel:
    from repro.linearroad.queries import build_traffic_model, replicate_workload

    return replicate_workload(build_traffic_model(), LR_BATCH["copies"])


def _traffic_config() -> EngineConfig:
    # what ``repro serve --scenario traffic`` builds its engine with
    from repro.difftest.scenarios import get_scenario

    scenario = get_scenario("traffic")
    return EngineConfig(
        partition_by=scenario.partition_by, retention=scenario.retention
    )


def _lr_tcp_model() -> CaesarModel:
    from repro.linearroad.queries import build_traffic_model

    return build_traffic_model()


# ---------------------------------------------------------------------------
# synthetic ticks (agg_service)
# ---------------------------------------------------------------------------

TICK = EventType.define(
    "Tick", symbol="int", sec="int", price="float", volume="int", move="float"
)

_PAIR = (
    "PATTERN SEQ(Tick a, Tick b) "
    "WHERE a.volume > 500 AND b.volume > 800 CONTEXT calm, volatile"
)
_TRIPLE = (
    "PATTERN SEQ(Tick a, Tick b, Tick c) "
    "WHERE a.volume > 700 AND b.volume > 700 AND c.volume > 850 "
    "CONTEXT volatile"
)
#: the aggregating DERIVEs come in groups with identical pattern and
#: predicate, which is what the sharing optimizer fuses
AGG_QUERIES = (
    ("enter_volatile",
     "INITIATE CONTEXT volatile PATTERN Tick t WHERE t.move >= 1.5 "
     "CONTEXT calm"),
    ("leave_volatile",
     "TERMINATE CONTEXT volatile PATTERN Tick t WHERE t.move < 0.05 "
     "CONTEXT volatile"),
    ("pair_stats",
     "DERIVE PairStats(COUNT(*), SUM(a.volume), AVG(b.price)) " + _PAIR),
    ("pair_range",
     "DERIVE PairRange(MIN(a.price), MAX(b.price)) " + _PAIR),
    ("triple_count", "DERIVE TripleCount(COUNT(*)) " + _TRIPLE),
    ("triple_sum",
     "DERIVE TripleSum(SUM(c.volume), MAX(a.price)) " + _TRIPLE),
    # partial-match path: negation plus a cross-variable predicate keep
    # this one out of the online aggregation operator
    ("breakout",
     "DERIVE Breakout(a.symbol, a.sec, b.sec, b.price) "
     "PATTERN SEQ(Tick a, NOT Tick n, Tick b) "
     "WHERE a.volume > 800 AND b.volume > 900 AND b.price > a.price "
     "AND n.volume > 950 CONTEXT volatile"),
)


def _agg_model() -> CaesarModel:
    model = CaesarModel(default_context="calm")
    model.add_context("volatile")
    types = {TICK.name: TICK}
    for name, source in AGG_QUERIES:
        model.add_query(parse_query(source, name=name, types=types))
    model.validate()
    return model


def _symbol_partitioner(event) -> object:
    return event.get("symbol")


def _agg_config() -> EngineConfig:
    return EngineConfig(
        partition_by=_symbol_partitioner, retention=AGG["retention"]
    )


def _agg_inputs(seed: int, scale: float) -> Inputs:
    """Zipf-skewed ticks whose cost does not depend on the seed.

    Pattern work grows with the square (pairs) or cube (triples) of how
    many qualifying ticks a symbol has inside a window, so sampling the
    symbols and volumes independently would make one seed's stream half
    again as expensive as another's.  Instead every block of ticks holds
    each symbol a fixed, Zipf-proportional number of times (the seed only
    shuffles the block), volumes walk a fixed cycle through 1..1000 from
    a seeded offset, and symbols alternate calm and volatile stretches of
    fixed length, evenly staggered, each opened by the one tick that
    switches the symbol's context.  Prices are a seeded random walk.
    """
    rng = random.Random(seed)
    count = max(200, round(AGG["events"] * scale))
    symbols = AGG["symbols"]
    weights = [
        1.0 / (rank + 1) ** AGG["zipf_exponent"] for rank in range(symbols)
    ]
    unit = AGG["block"] / sum(weights)
    block = [
        symbol
        for symbol, weight in enumerate(weights)
        for _ in range(max(1, round(weight * unit)))
    ]
    price = [100.0 + 5 * symbol for symbol in range(symbols)]
    volume_offset = [rng.randrange(1000) for _ in range(symbols)]
    seen = [0] * symbols
    in_volatile = [False] * symbols
    # regimes are staggered evenly over the symbols, so at any moment
    # half of them are volatile; the seed only shifts the whole schedule
    period = AGG["regime_seconds"]
    shift = rng.randrange(2 * period)
    phase = [
        shift + rank * 2 * period // symbols for rank in range(symbols)
    ]
    events: list[Event] = []
    while len(events) < count:
        rng.shuffle(block)
        for symbol in block:
            if len(events) == count:
                break
            t = len(events) // AGG["ticks_per_second"]
            volatile = (t + phase[symbol]) // period % 2 == 1
            # a symbol's first tick of a stretch is the one move that
            # switches its context (>= 1.5 enters volatile, < 0.05 leaves);
            # no other tick crosses either threshold, so the context
            # windows are the schedule's, whatever the seed
            if volatile != in_volatile[symbol]:
                in_volatile[symbol] = volatile
                low, high = (1.5, 2.5) if volatile else (0.0, 0.04)
            else:
                low, high = (0.2, 1.4) if volatile else (0.06, 0.15)
            step = rng.choice((-1, 1)) * rng.uniform(low, high)
            price[symbol] = max(1.0, price[symbol] + step)
            # 617 is coprime to 1000: the walk visits every volume once
            # per thousand ticks, evenly spread
            volume = 1 + (volume_offset[symbol] + 617 * seen[symbol]) % 1000
            seen[symbol] += 1
            events.append(Event(TICK, t, {
                "symbol": symbol,
                "sec": t,
                "price": round(price[symbol], 2),
                "volume": volume,
                "move": round(abs(step), 3),
            }))
    return Inputs(events)


# ---------------------------------------------------------------------------
# PAM with reordering, checkpoints and online deployment (pam_ops_mix)
# ---------------------------------------------------------------------------


def _pam_model() -> CaesarModel:
    from repro.pam.queries import build_pam_model

    return build_pam_model()


def _pam_config() -> EngineConfig:
    from repro.pam.queries import subject_partitioner

    return EngineConfig(
        partition_by=subject_partitioner, retention=60, recovery=True
    )


def _pam_deploy_query():
    from repro.pam.schema import type_registry

    return parse_query(
        "DERIVE ModeratePulse(r.subject, r.sec, r.heart_rate) "
        "PATTERN ActivityReport r WHERE r.heart_rate >= 100 "
        "CONTEXT moderate",
        name="moderate_pulse",
        types=type_registry(),
    )


def _pam_inputs(seed: int, scale: float) -> Inputs:
    from repro.pam.generator import PamConfig, generate_pam_stream

    ordered = list(generate_pam_stream(PamConfig(
        num_subjects=PAM["subjects"],
        duration_minutes=max(2, round(PAM["minutes"] * scale)),
        report_interval=PAM["report_interval"],
        seed=seed,
    )))
    # op positions sit on timestamp boundaries, and arrival jitter never
    # crosses one: a control op closes the frontier, so an event displaced
    # across it would be dead-lettered as late — a failure by design of
    # the script, not of the program
    cuts = []
    step = max(200, round(PAM["op_every"] * scale))
    target = step
    for index in range(1, len(ordered)):
        if (
            index >= target
            and ordered[index].timestamp != ordered[index - 1].timestamp
        ):
            cuts.append(index)
            target = index + step
    rng = random.Random(seed ^ 0x5EED)
    arrival: list[Event] = []
    start = 0
    for cut in cuts + [len(ordered)]:
        segment = ordered[start:cut]
        keyed = [
            (event.timestamp + rng.uniform(0.0, PAM["jitter"]), position)
            for position, event in enumerate(segment)
        ]
        keyed.sort()
        arrival.extend(segment[position] for _, position in keyed)
        start = cut
    ops = [
        (cut, "deploy" if number % 2 == 0 else "retire")
        for number, cut in enumerate(cuts)
    ]
    return Inputs(arrival, ops)


# ---------------------------------------------------------------------------
# registry
# ---------------------------------------------------------------------------

WORKLOADS: dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="lr_batch",
            why="large predicate-heavy transactions with two thirds of the "
            "plans suspended: engine, router, filter and pattern do all the "
            "work, service and net none",
            kind="batch",
            make_inputs=_linear_road_inputs(LR_BATCH),
            build_model=_lr_batch_model,
            engine_config=_traffic_config,
            sizes=LR_BATCH,
        ),
        Workload(
            name="lr_serve_tcp",
            why="the same stream through repro serve over TCP: JSON line "
            "decode, resequencing, queue hand-off and emission encode "
            "dominate, so engine-only changes barely move it",
            kind="tcp",
            make_inputs=_linear_road_inputs(LR_TCP),
            build_model=_lr_tcp_model,
            engine_config=_traffic_config,
            sizes=LR_TCP,
            paced_rate_eps=LR_TCP["paced_rate_eps"],
        ),
        Workload(
            name="agg_service",
            why="SEQ aggregation and partial-match state with a hot key, "
            "in-process service: pattern and seq_aggregate dominate, router "
            "and net do little",
            kind="service",
            make_inputs=_agg_inputs,
            build_model=_agg_model,
            engine_config=_agg_config,
            sizes=AGG,
            paced_rate_eps=AGG["paced_rate_eps"],
        ),
        Workload(
            name="pam_ops_mix",
            why="tiny transactions with reordering, checkpoints and online "
            "deploys: per-transaction overhead and state snapshot or splice "
            "cost dominate, the opposite of lr_batch",
            kind="service",
            make_inputs=_pam_inputs,
            build_model=_pam_model,
            engine_config=_pam_config,
            sizes=PAM,
            paced_rate_eps=PAM["paced_rate_eps"],
            max_delay=PAM["max_delay"],
            deploy_query=_pam_deploy_query,
        ),
    )
}
