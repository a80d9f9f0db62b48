"""Per-layer cost of the live air path, by replaying walks off the socket.

A traced air run records which airings its walks asked for. This module
replays the same walks in one thread, with the same objects the live
path uses — :meth:`BroadcastStation.airing`, :func:`encode_air_frame`,
:class:`FrameStreamDecoder` with :func:`decode_bucket`, and
:class:`PointerWalk` — and times each layer alone over every frame.
What the live ``fetch`` took beyond the sum of these layers is the
socket and event-loop cost.
"""

from __future__ import annotations

import time
from collections import Counter

from repro.client.walk import LookupFailed, PointerWalk
from repro.io.wire import (
    FrameStreamDecoder,
    WireFormatError,
    decode_bucket,
    encode_air_frame,
)
from repro.obs.events import NULL_TRACER, SlotAired

_REPEATS = 3


class AiringLog:
    """A tracer that keeps the (channel, slot) of every answered airing."""

    enabled = True

    def __init__(self) -> None:
        self.airings: list[tuple[int, int]] = []

    def emit(self, event) -> None:
        if isinstance(event, SlotAired):
            self.airings.append((event.channel, event.absolute_slot))


def attach_logs(stations) -> list[AiringLog]:
    logs = []
    for station in stations:
        station.tracer = AiringLog()
        logs.append(station.tracer)
    return logs


def detach_logs(stations) -> None:
    for station in stations:
        station.tracer = NULL_TRACER


def drive(station, key, tune_slot, policy, frames):
    """One walk through the whole chain, as ``TunerClient.fetch`` drives it.

    Appends ``(station, channel, slot, air, bytes, action, bucket)`` per
    read to ``frames``, where ``action`` is what the tuner did with it.
    """
    walk = PointerWalk(key, tune_slot, station.cycle_length, policy=policy)
    decoder = FrameStreamDecoder()
    while (listen := walk.next_listen()) is not None:
        air = station.airing(listen.channel, listen.absolute_slot)
        data = encode_air_frame(air)
        (got,) = decoder.feed(data)
        walk.observe_trace(got.trace_id, got.span_id)
        row = [station, listen.channel, listen.absolute_slot, air, data, None, None]
        frames.append(row)
        if walk.observe_version(got.schedule_version):
            row[5] = "cutover"
            continue
        if got.lost:
            row[5] = "lost"
            walk.on_loss()
            continue
        slot = (listen.absolute_slot - 1) % station.cycle_length + 1
        try:
            bucket = decode_bucket(got.payload, channel=listen.channel, offset=slot)
        except WireFormatError:
            row[5] = "corrupt"
            walk.on_loss(corrupt=True)
            continue
        row[5], row[6] = "deliver", bucket
        walk.deliver(bucket)


def _best_of(run) -> float:
    """Fewest seconds of ``_REPEATS`` runs of ``run``."""
    samples = []
    for _ in range(_REPEATS):
        started = time.perf_counter()
        run()
        samples.append(time.perf_counter() - started)
    return min(samples)


def layer_costs(walks, policy, logs_by_station) -> dict:
    """Replay ``walks`` — (station, key, tune slot) — and time each layer.

    Call after :func:`detach_logs`, so the replay's own airings stay
    out of the live logs. The stations' counters are restored when the
    replay ends, so its airings do not count as the live run's faults.

    Returns per-frame microseconds for airing, envelope encoding,
    decoding and walk steps, the frames per walk, and whether the
    replay asked for exactly the airings the live run's logs hold.
    """
    stations = [station for station, _ in logs_by_station]
    live_counters = [dict(station.perf.counters) for station in stations]
    per_walk: list[list] = []
    for station, key, tune_slot in walks:
        frames: list[list] = []
        try:
            drive(station, key, tune_slot, policy, frames)
        except (LookupFailed, WireFormatError):
            pass  # a failing walk fails here exactly as it did live
        per_walk.append((station, key, tune_slot, frames))

    replayed = Counter(
        (id(row[0]), row[1], row[2]) for _, _, _, frames in per_walk for row in frames
    )
    live = Counter(
        (id(station), channel, slot)
        for station, log in logs_by_station
        for channel, slot in log.airings
    )
    rows = [row for _, _, _, frames in per_walk for row in frames]
    n_frames = len(rows)

    def airing():
        for station, channel, slot, *_ in rows:
            station.airing(channel, slot)

    def encode():
        for row in rows:
            encode_air_frame(row[3])

    def decode():
        for station, _, _, frames in per_walk:
            decoder = FrameStreamDecoder()
            cycle = station.cycle_length
            for _, channel, slot, _, data, action, _ in frames:
                (got,) = decoder.feed(data)
                if action in ("deliver", "corrupt"):
                    try:
                        decode_bucket(got.payload, channel=channel,
                                      offset=(slot - 1) % cycle + 1)
                    except WireFormatError:
                        pass

    def steps():
        for station, key, tune_slot, frames in per_walk:
            walk = PointerWalk(key, tune_slot, station.cycle_length, policy=policy)
            try:
                for _, _, _, air, _, action, bucket in frames:
                    walk.next_listen()
                    walk.observe_trace(air.trace_id, air.span_id)
                    if walk.observe_version(air.schedule_version):
                        continue
                    if action == "deliver":
                        walk.deliver(bucket)
                    else:
                        walk.on_loss(corrupt=action == "corrupt")
            except (LookupFailed, WireFormatError):
                pass

    scale = 1e6 / max(1, n_frames)
    costs = {
        "airing_us": _best_of(airing) * scale,
        "encode_air_frame_us": _best_of(encode) * scale,
        "decode_us": _best_of(decode) * scale,
        "step_us": _best_of(steps) * scale,
        "frames_per_walk": n_frames / max(1, len(per_walk)),
        "bytes_per_walk": sum(len(row[4]) for row in rows) / max(1, len(per_walk)),
        "log_matches": replayed == live,
    }
    for station, counters in zip(stations, live_counters):
        station.perf.counters.clear()
        station.perf.counters.update(counters)
    return costs
