"""Seeded inputs: records, op schedules and the oracle that checks answers.

Everything the program is fed comes from ``--seed`` through this module and
is fixed before the first timed operation. The oracle is a set of plain
dicts and lists kept by the generator — it never asks the program what the
right answer is.
"""

from __future__ import annotations

import bisect
import hashlib
import random
from dataclasses import dataclass, field

import numpy as np

import spec

T0 = 1_700_000_000          # timestamp of record 0, seconds
STEP_S = 30                 # records are 30 s apart: a new 600-s index bucket every 20
CLASSES = ("car", "bus", "truck", "motorcycle")
N_SOURCES = 8
N_TRUSTED = 6
HOT_CAMERAS = 64


@dataclass(frozen=True)
class Record:
    ordinal: int
    source: int
    camera: str
    classes: tuple[str, ...]
    lat: float
    size: int

    @property
    def timestamp(self) -> float:
        return float(T0 + STEP_S * self.ordinal)

    @property
    def source_id(self) -> str:
        return f"src-{self.source}"

    def metadata(self) -> dict:
        return {
            "camera_id": self.camera,
            "timestamp": self.timestamp,
            "location": {"lat": self.lat, "lon": 77.0 + self.lat / 100},
            "detections": [
                {"vehicle_class": c, "confidence": 0.5 + 0.1 * i}
                for i, c in enumerate(self.classes)
            ],
        }


@dataclass(frozen=True)
class Op:
    kind: str             # "submit" | "ingest" | "retrieve" | "query"
    shape: str            # latency class: submit, ingest_batch, retrieve, or a query shape
    ordinal: int = -1     # submit: the record; ingest: first record of the batch; retrieve/point: target
    text: str = ""
    expect: tuple = ()    # oracle descriptor, see Oracle.expected


@dataclass
class Plan:
    workload: str
    seed: int
    records: list[Record]
    preload: int                      # records [0, preload) are stored during set-up
    warmup: list[Op]
    ops: list[Op]

    def sha256(self) -> str:
        h = hashlib.sha256()
        h.update(repr((self.workload, self.seed, self.preload)).encode())
        for part in (self.records, self.warmup, self.ops):
            h.update(repr(part).encode())
        return h.hexdigest()


def payload(seed: int, record: Record) -> bytes:
    """The record's bytes: distinct per (seed, ordinal), never seen twice."""
    return np.random.default_rng([seed, record.ordinal]).bytes(record.size)


def exact_counts(shares: dict[str, float], n: int) -> list[str]:
    """``n`` labels with each label's count fixed by its share (largest
    remainder), so class sample sizes do not vary with the seed. Every label
    gets at least one slot when there is room."""
    total = sum(shares.values())
    raw = {k: n * v / total for k, v in shares.items()}
    counts = {k: int(x) for k, x in raw.items()}
    if n >= len(shares):
        for k in counts:
            counts[k] = max(1, counts[k])
    order = sorted(raw, key=lambda k: raw[k] - int(raw[k]), reverse=True)
    i = 0
    while sum(counts.values()) < n:
        counts[order[i % len(order)]] += 1
        i += 1
    while sum(counts.values()) > n:
        biggest = max(counts, key=lambda k: counts[k])
        counts[biggest] -= 1
    return [k for k, c in counts.items() for _ in range(c)]


def _sizes(rng: random.Random, n: int) -> list[int]:
    labels = exact_counts(
        {"small": 1 - spec.MEDIUM_SHARE, "medium": spec.MEDIUM_SHARE}, n
    )
    rng.shuffle(labels)
    return [spec.SMALL_BYTES if s == "small" else spec.MEDIUM_BYTES for s in labels]


def _records(rng: random.Random, sizes: list[int], n_cameras: int) -> list[Record]:
    return [
        Record(
            ordinal=k,
            source=rng.randrange(N_SOURCES),
            camera=f"cam-{rng.randrange(n_cameras):03d}",
            classes=tuple(rng.choice(CLASSES) for _ in range(rng.randint(1, 4))),
            lat=round(rng.uniform(12.0, 13.0), 4),
            size=size,
        )
        for k, size in enumerate(sizes)
    ]


def _scaled(n: int, scale: float, floor: int) -> int:
    return max(floor, round(n * scale))


def _warmup_count(scale: float) -> int:
    return max(2, round(spec.WARMUP_OPS * min(1.0, scale)))


# -- query ops ---------------------------------------------------------------


def _query_op(rng: random.Random, shape: str, visible: int, n_cameras: int) -> Op:
    """One query over the first ``visible`` records."""
    cam = f"cam-{rng.randrange(n_cameras):03d}"
    k0 = rng.randrange(visible)
    t = T0 + STEP_S * k0
    if shape == "eq_hot":
        hot = f"cam-{min(HOT_CAMERAS - 1, int(rng.expovariate(1 / 8))):03d}"
        return Op("query", shape, text=f"metadata.camera_id = '{hot}'",
                  expect=("camera", hot, 0, None))
    if shape == "eq_adhoc":
        return Op("query", shape,
                  text=f"metadata.camera_id = '{cam}' AND metadata.timestamp >= {t}",
                  expect=("camera", cam, k0, None))
    if shape == "point":
        return Op("query", shape, ordinal=k0)
    if shape == "range":
        return Op("query", shape,
                  text=f"metadata.timestamp >= {t} AND metadata.timestamp < {t + 3600}",
                  expect=("range", k0, k0 + 3600 // STEP_S))
    if shape == "verified":
        return Op("query", shape, text=f"metadata.camera_id = '{cam}'",
                  expect=("camera", cam, 0, None))
    if shape == "join":
        return Op("query", shape,
                  text=f"metadata.camera_id = '{cam}' AND metadata.timestamp >= {t} LIMIT 8",
                  expect=("camera", cam, k0, 8))
    if shape == "class":
        cls = rng.choice(CLASSES)
        return Op("query", shape,
                  text=f"vehicle_class = '{cls}' AND metadata.timestamp >= {t} LIMIT 50",
                  expect=("class", cls, k0, 50))
    if shape == "scan":
        x = round(rng.uniform(12.2, 12.8), 4)
        return Op("query", shape, text=f"metadata.location.lat > {x}", expect=("scan", x))
    raise ValueError(f"unknown query shape {shape!r}")


# -- the four plans ----------------------------------------------------------


def plan_submit_small(seed: int, scale: float) -> Plan:
    rng = random.Random(seed)
    warm = _warmup_count(scale)
    n = _scaled(spec.SUBMIT_SMALL_SUBMITS, scale, 8)
    records = _records(rng, [spec.SMALL_BYTES] * (warm + n), n_cameras=200)
    ops = [Op("submit", "submit", ordinal=r.ordinal) for r in records]
    return Plan("submit_small", seed, records, 0, ops[:warm], ops[warm:])


def plan_ingest_large(seed: int, scale: float) -> Plan:
    rng = random.Random(seed)
    rounds = _scaled(spec.INGEST_LARGE_ROUNDS, scale, 1)
    # Warm-up is one whole untimed round, so the heap has reached its
    # high-water mark (first-touch page faults are slow here) before timing.
    warm = _scaled(spec.INGEST_ROUND_BATCHES, min(1.0, scale), 1)
    items = spec.INGEST_BATCH_ITEMS
    n_batches = warm + rounds * spec.INGEST_ROUND_BATCHES
    records = _records(rng, [spec.INGEST_ITEM_BYTES] * (n_batches * items), 200)
    ops = [Op("ingest", "ingest_batch", ordinal=b * items) for b in range(n_batches)]
    return Plan("ingest_large", seed, records, 0, ops[:warm], ops[warm:])


def plan_query_static(seed: int, scale: float) -> Plan:
    rng = random.Random(seed)
    n_cameras = 150
    preload = _scaled(spec.QUERY_STATIC_PRELOAD, min(1.0, scale), 64)
    records = _records(rng, _sizes(rng, preload), n_cameras)
    warm = _warmup_count(scale)
    n = _scaled(spec.QUERY_STATIC_OPS, scale, 40)
    shapes = exact_counts(spec.QUERY_SHAPES, n)
    rng.shuffle(shapes)
    warm_shapes = rng.choices(list(spec.QUERY_SHAPES), list(spec.QUERY_SHAPES.values()), k=warm)
    warmup = [_query_op(rng, s, preload, n_cameras) for s in warm_shapes]
    ops = [_query_op(rng, s, preload, n_cameras) for s in shapes]
    return Plan("query_static", seed, records, preload, warmup, ops)


def plan_mixed_durable(seed: int, scale: float) -> Plan:
    rng = random.Random(seed)
    n_cameras = 150
    preload = _scaled(spec.MIXED_DURABLE_PRELOAD, min(1.0, scale), 32)
    warm = _warmup_count(scale)
    n = _scaled(spec.MIXED_DURABLE_OPS, scale, 20)
    query_share = 1 - spec.MIXED_SUBMIT_SHARE - spec.MIXED_RETRIEVE_SHARE
    shape_total = sum(spec.MIXED_QUERY_SHAPES.values())
    mix = {"submit": spec.MIXED_SUBMIT_SHARE, "retrieve": spec.MIXED_RETRIEVE_SHARE}
    mix.update(
        {s: query_share * v / shape_total for s, v in spec.MIXED_QUERY_SHAPES.items()}
    )
    labels = exact_counts(mix, n)
    rng.shuffle(labels)
    warm_labels = rng.choices(list(mix), list(mix.values()), k=warm)
    all_labels = warm_labels + labels
    n_submits = sum(1 for s in all_labels if s == "submit")
    records = _records(rng, _sizes(rng, preload) + _sizes(rng, n_submits), n_cameras)
    ops: list[Op] = []
    visible = preload
    for label in all_labels:
        if label == "submit":
            ops.append(Op("submit", "submit", ordinal=visible))
            visible += 1
        elif label == "retrieve":
            # Recency-skewed: most reads want something stored lately.
            back = min(visible - 1, int(rng.expovariate(1 / 32)))
            ops.append(Op("retrieve", "retrieve", ordinal=visible - 1 - back))
        else:
            ops.append(_query_op(rng, label, visible, n_cameras))
    return Plan("mixed_durable", seed, records, preload, ops[:warm], ops[warm:])


PLANNERS = {
    "submit_small": plan_submit_small,
    "ingest_large": plan_ingest_large,
    "query_static": plan_query_static,
    "mixed_durable": plan_mixed_durable,
}


# -- the oracle --------------------------------------------------------------


@dataclass
class Oracle:
    """What the generator knows it stored, by ordinal."""

    records: list[Record]
    entry_ids: dict[int, str] = field(default_factory=dict)
    sha256: dict[int, str] = field(default_factory=dict)
    by_camera: dict[str, list[int]] = field(default_factory=dict)
    by_class: dict[str, list[int]] = field(default_factory=dict)
    stored: list[int] = field(default_factory=list)   # ascending ordinals
    by_entry: dict[str, int] = field(default_factory=dict)
    user_bytes: int = 0

    def note_stored(self, ordinal: int, entry_id: str) -> None:
        record = self.records[ordinal]
        self.entry_ids[ordinal] = entry_id
        self.by_entry[entry_id] = ordinal
        self.stored.append(ordinal)
        self.by_camera.setdefault(record.camera, []).append(ordinal)
        for cls in set(record.classes):
            self.by_class.setdefault(cls, []).append(ordinal)
        self.user_bytes += record.size

    def expected(self, expect: tuple) -> set[str]:
        """Entry ids the program must return for one query descriptor."""
        kind = expect[0]
        limit = None
        if kind in ("camera", "class"):
            _, value, k0, limit = expect
            ordinals = (self.by_camera if kind == "camera" else self.by_class).get(value, [])
            ordinals = ordinals[bisect.bisect_left(ordinals, k0):]
        elif kind == "range":
            _, lo, hi = expect
            ordinals = self.stored[
                bisect.bisect_left(self.stored, lo):bisect.bisect_left(self.stored, hi)
            ]
        elif kind == "scan":
            ordinals = [k for k in self.stored if self.records[k].lat > expect[1]]
        else:
            raise ValueError(f"unknown oracle descriptor {expect!r}")
        ids = sorted(self.entry_ids[k] for k in ordinals)
        # LIMIT without ORDER BY takes the first rows in entry-id order.
        return set(ids if limit is None else ids[:limit])
