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
partition id ``_pid`` in [0, P), and the combine function sees each
complete partition in one pandas call. How the partitions meet is
sized by the measured bytes of the ``_pid``-tagged stream, which is
materialized once:

- at most ``BYTES_PER_PARTITION`` (the whole stream fits one
  partition's budget): the partitions are combined in the calling
  process, in ascending ``_pid`` order, one output block each. This is
  the common case for pre-aggregated partials (the KG node/edge counts
  are a few thousand rows), where a shuffle's fixed cost — seconds of
  task scheduling — dwarfs the data;
- larger: a sort-based ``groupby("_pid").map_groups`` shuffle. The
  groupby key has only P distinct values, so the per-group Python
  overhead that makes raw key groupbys slow is O(P) here, and there are
  NO aggregator actor pools to schedule, no DataContext flipping, and
  no cross-thread locking. (An earlier HASH_SHUFFLE-based version hit
  aggregator-actor scheduling stalls in long many-execution runs;
  this formulation has no actors to stall.)

The threshold is the one constant, ``BYTES_PER_PARTITION``; both paths
give the same partitions, so the choice is physical, never semantic.
``sharded_sorted_write`` and ``hive_partitioned_write`` run the same
exchange and write each combined partition from the combine: as one
sorted shard file, or as one file per value of a hive partition column
(``_partition_writer`` is the one emit step of both).

``num_partitions`` sizes the exchange: one partition's rows (~#keys/P
of the PRE-AGGREGATED stream) must fit a worker's pandas heap. Call
sites derive it from their input tables' parquet footprint via
``partitions_for`` (floor 8 at test scale, growing ~linearly with
bytes at corpus scale) instead of hard-coding a constant.

Joins run on the same exchange: ``keyed_join`` co-locates both sides'
rows by the join key and joins each partition in one call, so the
engine has one shuffle mechanism. No operator flips Ray's
``DataContext`` shuffle strategy or needs its hash-aggregator actors.
"""

from __future__ import annotations

PID_COL = "_pid"

# One exchange partition should hold ~this much DECOMPRESSED keyed
# stream (a partition is combined in one pandas call on one worker, so
# it must fit a worker heap with headroom). 64MB × the default 4×
# parquet→pandas expansion ⇒ ~16MB of parquet per partition. It is
# also keyed_exchange's size rule: a whole keyed stream this small is
# combined in the calling process instead of shuffled.
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


def read_files(files, **kwargs):
    """``ray.data.read_parquet`` over a list of files, with one read
    task per ``partitions_for`` partition of their bytes (floor 1)
    instead of Ray's one per file: a store's touched-bucket reads are
    many small files, and at one file per task the scheduling costs
    more than the reads."""
    import ray.data as rd

    return rd.read_parquet(
        files, override_num_blocks=partitions_for(*files, floor=1), **kwargs
    )


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


def _exchange(ds, keys, fn, num_partitions, label, emit):
    """Shared core of ``keyed_exchange`` and the partition writers.

    Tags every row with ``_pid = hash(keys) % num_partitions``,
    materializes that stream once and, per non-empty ``_pid`` group,
    calls ``fn(group)`` (the combine) and then ``emit(pid, out)`` on a
    non-empty result; ``None`` and empty results are not emitted. When
    no combine output has rows, the result is a 0-row Dataset with the
    columns of an empty output, if one had columns. Small streams
    (``size_bytes() <= BYTES_PER_PARTITION``) are grouped in the
    calling process, in ascending ``_pid`` order, one output block per
    group; larger ones take the sort-based shuffle."""
    import pandas as pd
    import ray.data as rd

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

    def group(pid: int, g: "pd.DataFrame"):
        out = fn(g.drop(columns=[PID_COL]))
        if out is None or not len(out):
            return out  # nothing to emit; an empty frame keeps its columns
        if meter is not None and hasattr(out, "memory_usage"):
            _meter_add(meter, mlabel, "out", out)
        return emit(pid, out)

    tagged = ds.map_batches(add_pid, batch_format="pandas").materialize()
    if tagged.size_bytes() <= BYTES_PER_PARTITION:
        df = tagged.to_pandas()
        outs = []
        if len(df):
            for pid, g in df.groupby(PID_COL, sort=True):
                out = group(int(pid), g.reset_index(drop=True))
                if out is not None:
                    outs.append(out)
        blocks = [o for o in outs if len(o)]
        # no rows anywhere: one empty output with columns keeps the schema
        return rd.from_blocks(blocks or [o for o in outs if o.shape[1]][:1])

    def run(g: "pd.DataFrame") -> "pd.DataFrame":
        out = group(int(g[PID_COL].iloc[0]), g)
        return pd.DataFrame() if out is None else out

    # the sort-based shuffle behind groupby pays O(blocks²) tiny
    # inter-block objects: coalesce to ~partition-sized blocks first
    return (
        tagged.repartition(max(num_partitions, 8))
        .groupby(PID_COL)
        .map_groups(run, batch_format="pandas")
    )


def keyed_exchange(ds, keys, fn, num_partitions: int | None = None,
                   label: str | None = None):
    """Co-locate rows by ``keys`` and apply ``fn`` once per complete
    partition (a pandas DataFrame containing EVERY row of each key that
    hashes into that partition).

    Size rule: the ``_pid``-tagged stream is materialized once; if it
    holds at most ``BYTES_PER_PARTITION`` bytes, ``fn`` runs in the
    calling process on each non-empty partition in ascending ``_pid``
    order (index reset), and the result is one block per partition.
    A small stream is a few thousand partial rows, and a shuffle's
    fixed cost (seconds of task scheduling) dwarfs one pandas call on
    it. Larger streams are coalesced to ``max(num_partitions, 8)``
    blocks and shuffled by a sort-based ``groupby(_pid).map_groups``:
    inheriting a wide scan's block count (64 blocks at 32 CPUs) costs
    ~12s of O(blocks²) shuffle overhead where 8 blocks cost <1s
    (measured). Callers size ``num_partitions`` to the data volume (one
    partition's rows must fit a worker's pandas heap). The threshold is
    the same constant on both sides: a stream the in-process path takes
    fits one partition by definition.

    ``fn`` may return a pandas frame, an Arrow table, ``None`` or an
    empty frame; ``None`` and empty results are dropped. If no partition
    yields a row, the result is a 0-row Dataset that keeps the columns
    of an empty result with columns, or has none if there is no such
    result (every partition returned ``None``, or no partition ran).

    Inside an ``exchange_metering()`` scope, the stream entering the
    exchange and the combined output are measured (rows + deep pandas
    bytes) under ``label`` (default: combine-fn name + keys)."""
    return _exchange(ds, keys, fn, num_partitions, label, lambda pid, out: out)


def grouped_aggregate(ds, keys, partial_fn, combine_fn, num_partitions: int | None = None):
    """Exact high-cardinality groupby-aggregate: ``partial_fn``
    aggregates raw rows to ≤1 row per key per block; ``combine_fn``
    merges partials (it sees all partials of a key together)."""
    partials = ds.map_batches(partial_fn, batch_format="pandas")
    return keyed_exchange(partials, keys, combine_fn, num_partitions)


# keyed_join hashes each side's rows into this many buckets per exchange
# partition; the exchange hashes the bucket ids again, and a handful of
# buckets per partition keeps the partitions even
_JOIN_BUCKETS = 4


def _hash_type(t):
    """The one dtype a join key of Arrow type ``t`` is hashed under:
    every number as float64, so numeric keys that are equal after
    ``keyed_join``'s cast hash alike (pandas hashes int32 -1 and int64
    -1 apart, and int and float never alike); any other type as
    itself. Two keys that collide as float64 are only co-located, never
    matched."""
    import pyarrow as pa

    if pa.types.is_integer(t) or pa.types.is_floating(t):
        return pa.float64()
    return t


def _ipc(table) -> bytes:
    import pyarrow as pa

    sink = pa.BufferOutputStream()
    with pa.ipc.new_stream(sink, table.schema) as w:
        w.write_table(table)
    return sink.getvalue().to_pybytes()


def keyed_join(left, right, on: str, how: str, right_on: str | None = None,
               num_partitions: int | None = None):
    """Equi-join of two Datasets on one key column, in ONE
    ``keyed_exchange``.

    ``how`` is ``"inner"`` (the left columns, then the right side's
    columns other than ``right_on``) or ``"left_anti"`` (the left rows
    whose key matches no right key). Each side's batch is cut into
    key-hash buckets and every bucket travels as one row: (bucket, side
    marker, the bucket's rows as an Arrow IPC blob), so both sides share
    that schema and every column keeps its exact Arrow type through the
    exchange. Each partition joins its complete buckets with Arrow: a
    hash join for ``inner``, an ``is_in`` mask for ``left_anti``.

    Keys are hashed under one dtype (``_hash_type``), and in a
    partition the right key is cast to the left key's type; a key
    hashed under another dtype, or one that does not fit that type,
    raises. A null key never matches, as in SQL: ``inner`` drops it and
    ``left_anti`` keeps the left row. The result's rows come in no
    particular order. A result with no rows keeps its columns when both
    sides' schemas are known: each side's batches, and a materialized
    side's block metadata, also send a zero-row blob of that schema to
    bucket 0. A lazy side that yields no rows runs no batch, so a join
    with it keeps only the other side's columns, or none
    (``keyed_exchange``)."""
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd
    from ray.data.dataset import MaterializedDataset

    if how not in ("inner", "left_anti"):
        raise ValueError(f"keyed_join: how must be 'inner' or 'left_anti', not {how!r}")
    right_on = right_on or on
    n_buckets = (num_partitions or DEFAULT_PARTITIONS) * _JOIN_BUCKETS

    def tag(side: int, key: str):
        def fn(t: "pa.Table") -> "pa.Table":
            if side and how == "left_anti":
                t = t.select([key])
            t = t.replace_schema_metadata(None)
            k = t[key].cast(_hash_type(t.schema.field(key).type), safe=False)
            h = pd.util.hash_pandas_object(k.to_pandas(), index=False).to_numpy()
            bucket = (h % n_buckets).astype(np.int64)
            order = np.argsort(bucket, kind="stable")
            bucket, t = bucket[order], t.take(order)
            starts = np.flatnonzero(np.diff(bucket, prepend=-1))
            ends = np.r_[starts[1:], len(t)]
            # plus a zero-row blob in bucket 0: the partition holding it
            # sees both sides' schemas, so a result with no rows keeps
            # its columns
            return pa.table({
                "_bucket": pa.array(np.r_[bucket[starts], 0], pa.int64()),
                "_side": pa.array(np.full(len(starts) + 1, side, np.int8)),
                "_rows": pa.array(
                    [_ipc(t.slice(s, e - s)) for s, e in zip(starts, ends)]
                    + [_ipc(t.slice(0, 0))],
                    pa.binary(),
                ),
            })

        return fn

    def side_rows(df: "pd.DataFrame", side: int):
        blobs = df.loc[df["_side"] == side, "_rows"]
        if not len(blobs):
            return None
        return pa.concat_tables(
            [pa.ipc.open_stream(b).read_all() for b in blobs],
            promote_options="permissive",
        )

    def join(df: "pd.DataFrame"):
        lt, rt = side_rows(df, 0), side_rows(df, 1)
        if lt is None or rt is None:
            return None if how == "inner" else lt
        kt, rkt = lt.schema.field(on).type, rt.schema.field(right_on).type
        if _hash_type(kt) != _hash_type(rkt):
            raise TypeError(f"keyed_join: cannot join a {kt} key to a {rkt} key")
        rk = rt[right_on].cast(kt)  # safe: raises on a key the type cannot hold
        if how == "left_anti":
            hit = pc.is_in(lt[on], value_set=rk.combine_chunks(), skip_nulls=True)
            return lt.filter(pc.invert(hit))
        rt = rt.set_column(rt.schema.get_field_index(right_on), right_on, rk)
        return lt.join(rt, on, right_on, "inner", use_threads=False)

    def tagged(ds, side: int, key: str):
        fn = tag(side, key)
        out = ds.map_batches(fn, batch_format="pyarrow")
        # a side with no rows sends no batch through ``tag``; a
        # materialized one still has its schema in its block metadata
        schema = ds.schema() if isinstance(ds, MaterializedDataset) else None
        if schema is not None and isinstance(schema.base_schema, pa.Schema):
            out = out.union(rd.from_arrow(fn(schema.base_schema.empty_table())))
        return out

    return keyed_exchange(
        tagged(left, 0, on).union(tagged(right, 1, right_on)),
        ["_bucket"], join, num_partitions, label=f"join[{on}]",
    )


def _write_file(table, path: str) -> None:
    """The one file write of ``_partition_writer``."""
    import pyarrow.parquet as pq

    pq.write_table(table, path)


def _partition_writer(out_dir: str, name: str, sort_keys, partition_col=None):
    """The emit step that writes each combined exchange partition.

    The partition's frame is mergesorted on ``sort_keys`` and written as
    ``<out_dir>/<name>-<_pid:05d>.parquet``; with ``partition_col``, the
    rows of each of its values ``v`` go to
    ``<out_dir>/<partition_col>=<v>/<name>-<_pid:05d>.parquet`` without
    that column (the hive layout ``read_parquet`` parses back). The file
    name carries the exchange partition id, never a re-hash of the
    frame, so a rerun rewrites the same files. Returns a
    (shard[, partition_col], rows) summary frame per partition."""
    import os

    import numpy as np
    import pandas as pd
    import pyarrow as pa

    sort_keys = list(sort_keys)

    def emit(pid: int, out: "pd.DataFrame") -> "pd.DataFrame":
        fname = f"{name}-{pid:05d}.parquet"
        if partition_col is None:
            out = out.sort_values(sort_keys, kind="mergesort").reset_index(drop=True)
            _write_file(
                pa.Table.from_pandas(out, preserve_index=False),
                os.path.join(out_dir, fname),
            )
            return pd.DataFrame({"shard": [pid], "rows": [len(out)]})
        # one Arrow conversion per partition; each value's rows are a
        # contiguous slice of the (value, sort_keys)-sorted frame. No
        # pandas metadata: Ray Data cannot hash a schema that carries it
        # and logs a warning for every read that unions such files.
        out = out.sort_values([partition_col] + sort_keys, kind="mergesort")
        vals = out[partition_col].to_numpy()
        table = pa.Table.from_pandas(
            out.drop(columns=[partition_col]), preserve_index=False
        ).replace_schema_metadata(None)
        starts = np.flatnonzero(np.r_[True, vals[1:] != vals[:-1]])
        ends = np.r_[starts[1:], len(vals)]
        for s, e in zip(starts, ends):
            d = os.path.join(out_dir, f"{partition_col}={vals[s]}")
            os.makedirs(d, exist_ok=True)
            _write_file(table.slice(s, e - s), os.path.join(d, fname))
        return pd.DataFrame(
            {"shard": pid, partition_col: vals[starts], "rows": ends - starts}
        )

    return emit


def sharded_sorted_write(ds, keys, fn, out_dir, num_partitions: int | None = None):
    """``keyed_exchange(ds, keys, fn, num_partitions)`` written as a
    deterministic key-hash-sharded parquet artifact, in ONE exchange.

    Each partition's combined output is mergesorted on ``keys`` and
    written as exactly ``part-<_pid:05d>.parquet``: the shard id IS the
    exchange partition id (never a re-hash of the combined frame), so
    the shard count follows ``num_partitions``. Reruns produce
    byte-identical files WITHOUT a global sort + repartition(1)
    single-file bottleneck: shards build in parallel, and a resumable
    run can diff/skip per shard. Returns a (shard, rows) summary
    DataFrame."""
    emit = _partition_writer(out_dir, "part", keys)
    return _exchange(ds, keys, fn, num_partitions, None, emit).to_pandas()


def hive_partitioned_write(ds, col: str, fn, out_dir: str, name: str,
                           sort_keys, num_partitions: int | None = None):
    """``keyed_exchange(ds, [col], fn, num_partitions)`` written as a
    hive-partitioned parquet table, in ONE exchange: the rows of each
    value ``v`` of ``col`` go to ``<out_dir>/<col>=<v>/<name>-<_pid:05d>
    .parquet``, mergesorted on ``sort_keys``. A value lives in exactly
    one exchange partition, so one call writes at most one file per
    value; callers that add files to a directory that already holds
    some (an append-only table) put a fresh ``name`` on each call.
    Returns a (shard, ``col``, rows) summary DataFrame."""
    emit = _partition_writer(out_dir, name, sort_keys, partition_col=col)
    return _exchange(ds, [col], fn, num_partitions, None, emit).to_pandas()
