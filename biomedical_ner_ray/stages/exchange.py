"""Keyed exchange operators for high-cardinality aggregation.

Ray Data's built-in ``groupby().aggregate()`` finalizes groups in a
per-group Python loop, so its cost scales with the number of DISTINCT
KEYS (~5k groups/s measured) — a 95k-key aggregate over 100k rows takes
~20s while the equivalent pandas hash aggregate takes milliseconds. The
right shape for high-cardinality keys is: vectorized pandas partial per
block (no shuffle) → ONE exchange that co-locates keys → vectorized
pandas combine per partition.

``keyed_exchange`` implements the co-location WITHOUT the HASH_SHUFFLE
strategy: a deterministic row hash of the key columns
(``pd.util.hash_pandas_object``, process-stable) assigns each row a
partition id ``_pid`` in [0, P); a sort-based ``groupby("_pid").
map_groups`` then hands each complete partition to the combine function
in one pandas call. The groupby key has only P distinct values, so the
per-group Python overhead that makes raw key groupbys slow is O(P)=O(8)
here — negligible — and there are NO aggregator actor pools to
schedule, no DataContext flipping, and no cross-thread locking.
(An earlier HASH_SHUFFLE-based version hit aggregator-actor scheduling
stalls in long many-execution sessions; this formulation has no actors
to stall.)

``num_partitions`` sizes the exchange: one partition's rows (~#keys/P
of the PRE-AGGREGATED stream) must fit a worker's pandas heap. Call
sites derive it from their input tables' parquet footprint via
``partitions_for`` (floor 8 at test scale, growing ~linearly with
bytes at corpus scale) instead of hard-coding a constant.

``hash_shuffle`` remains for the operators that genuinely need Ray's
hash-shuffle backend (``Dataset.join``), with the aggregator pool
bounded; it must wrap JOINS ONLY (see its docstring).
"""

from __future__ import annotations

import threading
from contextlib import contextmanager

from ray.data import DataContext
from ray.data.context import ShuffleStrategy

PID_COL = "_pid"

# One exchange partition should hold ~this much DECOMPRESSED keyed
# stream (a partition is combined in one pandas call on one worker, so
# it must fit a worker heap with headroom). 64MB × the default 4×
# parquet→pandas expansion ⇒ ~16MB of parquet per partition.
BYTES_PER_PARTITION = 64 << 20
# Back-compat floor: below ~0.5GB of stream the sort-based shuffle's
# O(blocks²) tiny-object overhead dominates, so fewer, fatter
# partitions win (measured; see keyed_exchange docstring).
DEFAULT_PARTITIONS = 8
# Ceiling: the sort-based exchange pays O(P²) inter-block objects, so
# P is capped; past cap×64MB (~256GB of keyed stream) a cluster run
# should raise BYTES_PER_PARTITION (bigger workers) or split the job
# by key range rather than widen one exchange further.
MAX_PARTITIONS = 4096


def partitions_for(*paths, expansion: float = 4.0, floor: int = DEFAULT_PARTITIONS,
                   cap: int = MAX_PARTITIONS,
                   bytes_per_partition: int = BYTES_PER_PARTITION) -> int:
    """Size-derived exchange partition count from the parquet footprint
    of the table(s) feeding the keyed stream.

    Replaces the former constant-8 default at every exchange call site:
    8 partitions of a 100TB keyed stream is 12.5TB per worker pandas
    call — a guaranteed OOM — while at test scale (≤10MB tables) the
    floor keeps plans byte-identical to the old constant. ``expansion``
    is the stream-bytes / parquet-bytes ratio: 4.0 covers the typical
    decompression+pandas overhead when the exchanged stream is
    comparable to the input table; pass more for gram/pair explodes,
    less for heavily pre-aggregated streams. Accepts files or
    directories (summed recursively over ``*.parquet``)."""
    import math
    import os

    total = 0
    for p in paths:
        if os.path.isdir(p):
            for root, _dirs, files in os.walk(p):
                total += sum(
                    os.path.getsize(os.path.join(root, f))
                    for f in files
                    if f.endswith(".parquet")
                )
        elif os.path.exists(p):
            total += os.path.getsize(p)
    need = math.ceil(total * expansion / bytes_per_partition)
    return max(floor, min(cap, need))


# ---------------------------------------------------------------------------
# exchange metering (opt-in): measured shuffle volumes, not estimates
# ---------------------------------------------------------------------------

_METER: dict = {"actor": None}


class _ExchangeMeter:
    """Tiny accumulator actor: per-exchange-label (rows, bytes) sums for
    the stream entering the exchange and the combined output. Created
    ONLY inside ``exchange_metering()`` — zero overhead otherwise."""

    def __init__(self):
        self.c: dict = {}

    def add(self, label: str, field: str, rows: int, nbytes: int) -> None:
        e = self.c.setdefault(
            label,
            {"rows_in": 0, "bytes_in": 0, "rows_out": 0, "bytes_out": 0},
        )
        e[f"rows_{field}"] += rows
        e[f"bytes_{field}"] += nbytes

    def snapshot(self) -> dict:
        return self.c


def exchange_metering():
    """Context manager enabling measured (rows, bytes) counters on every
    ``keyed_exchange`` BUILT inside the scope; yields a snapshot()
    callable. Measurement-mode only: one BLOCKING actor round-trip per
    batch, so every add is recorded before the batch that made it
    finishes, and a snapshot() taken after the metered datasets are
    consumed sees them all. Used by scripts/measure_shuffles.py and
    ``run.py --meter`` to put NUMBERS where SCALE.md used to argue
    'bounded by construction'."""
    from contextlib import contextmanager

    import ray

    @contextmanager
    def _cm():
        actor = ray.remote(_ExchangeMeter).options(num_cpus=0).remote()
        _METER["actor"] = actor

        def snapshot() -> dict:
            return ray.get(actor.snapshot.remote())

        try:
            yield snapshot
        finally:
            _METER["actor"] = None

    return _cm()


def _meter_add(meter, label: str, field: str, df) -> None:
    """Record one batch's (rows, deep bytes) and wait for the actor to
    apply it, so a later snapshot() cannot miss it."""
    import ray

    ray.get(
        meter.add.remote(label, field, len(df), int(df.memory_usage(deep=True).sum()))
    )


def keyed_exchange(ds, keys, fn, num_partitions: int | None = None,
                   label: str | None = None):
    """Co-locate rows by ``keys`` and apply ``fn`` once per complete
    partition (a pandas DataFrame containing EVERY row of each key that
    hashes into that partition).

    The input is coalesced to ``max(num_partitions, 8)`` blocks first:
    the sort-based shuffle behind ``groupby`` pays O(blocks²) tiny
    inter-block objects, so inheriting a wide scan's block count (64
    blocks at 32 CPUs) costs ~12s of pure overhead where 8 blocks cost
    <1s (measured; see queries.py:53). Callers size ``num_partitions``
    to the data volume (one partition's rows must fit a worker's pandas
    heap), so tying the input block count to it keeps blocks ~partition-
    sized at any scale.

    Inside an ``exchange_metering()`` scope, the stream entering the
    exchange and the combined output are measured (rows + deep pandas
    bytes) under ``label`` (default: combine-fn name + keys)."""
    import pandas as pd

    if num_partitions is None:
        num_partitions = DEFAULT_PARTITIONS
    keys = list(keys)
    meter = _METER["actor"]
    mlabel = label or f"{getattr(fn, '__name__', 'fn')}[{','.join(keys)}]"

    def add_pid(df: "pd.DataFrame") -> "pd.DataFrame":
        if meter is not None and len(df):
            _meter_add(meter, mlabel, "in", df)
        h = pd.util.hash_pandas_object(df[keys], index=False)
        return df.assign(**{PID_COL: (h % num_partitions).astype("int64")})

    def run(g: "pd.DataFrame") -> "pd.DataFrame":
        out = fn(g.drop(columns=[PID_COL]))
        if (
            meter is not None
            and out is not None
            and hasattr(out, "memory_usage")
            and len(out)
        ):
            _meter_add(meter, mlabel, "out", out)
        return out

    return (
        ds.repartition(max(num_partitions, 8))
        .map_batches(add_pid, batch_format="pandas")
        .groupby(PID_COL)
        .map_groups(run, batch_format="pandas")
    )


def grouped_aggregate(ds, keys, partial_fn, combine_fn, num_partitions: int | None = None):
    """Exact high-cardinality groupby-aggregate: ``partial_fn``
    aggregates raw rows to ≤1 row per key per block; ``combine_fn``
    merges partials (it sees all partials of a key together)."""
    partials = ds.map_batches(partial_fn, batch_format="pandas")
    return keyed_exchange(partials, keys, combine_fn, num_partitions)


def sharded_sorted_write(ds, keys, out_dir, n_shards: int = 8, sort_cols=None):
    """Deterministic key-hash-sharded parquet writer.

    Every row lands in shard ``hash(keys) % n_shards`` (process-stable
    pandas hash), each shard is sorted on ``sort_cols`` and written as
    exactly ``part-<shard>.parquet`` — so reruns produce byte-identical
    files WITHOUT a global sort + repartition(1) single-file bottleneck:
    shards build in parallel, and a resumable run can diff/skip per
    shard. Returns a (shard, rows) summary DataFrame."""
    import os

    import pandas as pd
    import pyarrow as pa
    import pyarrow.parquet as pq

    keys = list(keys)
    sort_cols = list(sort_cols or keys)

    def add_shard(df: "pd.DataFrame") -> "pd.DataFrame":
        h = pd.util.hash_pandas_object(df[keys], index=False)
        return df.assign(_shard=(h % n_shards).astype("int64"))

    def write_group(g: "pd.DataFrame") -> "pd.DataFrame":
        shard = int(g["_shard"].iloc[0])
        out = (
            g.drop(columns=["_shard"])
            .sort_values(sort_cols, kind="mergesort")
            .reset_index(drop=True)
        )
        pq.write_table(
            pa.Table.from_pandas(out, preserve_index=False),
            os.path.join(out_dir, f"part-{shard:05d}.parquet"),
        )
        return pd.DataFrame({"shard": [shard], "rows": [len(out)]})

    return (
        ds.map_batches(add_shard, batch_format="pandas")
        .groupby("_shard")
        .map_groups(write_group, batch_format="pandas")
        .to_pandas()
    )


# The DataContext flip is process-global; dataset CONSTRUCTION windows
# from concurrent pipeline threads must not interleave (execution is
# safe — each dataset captures its context at root creation).
_FLIP_LOCK = threading.RLock()


@contextmanager
def hash_shuffle(num_aggregators: int = 8):
    """Build datasets needing Ray's hash-shuffle backend (Dataset.join,
    repartition(keys=...)) inside this scope.

    JOINS ONLY: never build a groupby/map_groups/aggregate under this
    context — the hash-aggregate actor path deadlocks in small/busy
    sessions (observed: groupby(_pid).map_groups hangs under HASH).
    ``keyed_exchange`` needs no special context.

    Thread-safe: a process-wide lock serializes the construction windows
    so one thread's flip can't leak into another thread's dataset roots.
    """
    with _FLIP_LOCK:
        with _hash_shuffle_unlocked(num_aggregators) as ctx:
            yield ctx


@contextmanager
def _hash_shuffle_unlocked(num_aggregators: int = 8):
    ctx = DataContext.get_current()
    old_strategy = ctx.shuffle_strategy
    old_max = ctx.max_hash_shuffle_aggregators
    ctx.shuffle_strategy = ShuffleStrategy.HASH_SHUFFLE
    ctx.max_hash_shuffle_aggregators = num_aggregators
    try:
        yield ctx
    finally:
        ctx.shuffle_strategy = old_strategy
        ctx.max_hash_shuffle_aggregators = old_max
