"""Flagship pipeline: transcripts → knowledge graph (nodes/edges Parquet).

Stage graph (each stage a resumable Parquet checkpoint, SURVEY.md §7.2)::

    transcripts ──sort(conv_id,turn_idx)──▶ turns_sorted      [shuffle]
    turns_sorted ──TurnAnnotator──▶ bucket sink               [per-bucket resume]
        each write task: annotations, mentions, triples,
                         node partials (cui, n),
                         edge partials (subj_cui, pred, obj_cui, n)
    node partials ──keyed combine──▶ nodes                     [sized exchange]
    edge partials ──keyed combine──▶ edges                     [sized exchange]

Scale notes:
- The only large shuffle is the (conv_id, turn_idx) sort the north rule
  mandates for stable turn ordering; everything NER-ish is row-local, so
  the annotate stage streams with backpressure and scales linearly with
  the actor pool.
- Operator fusion: ``mentions`` and ``triples`` are row-local explodes
  of the annotations, and the node/edge partial counts are row-local
  aggregates of those, so all of them are made where the annotated rows
  are, by the bucket's one ``write_datasink`` (``_BucketSink``). Each
  bucket is one Ray Data execution; ``mentions`` and ``triples`` are
  parquet directories with no execution or manifest of their own.
- nodes/edges are one keyed exchange each (stages/exchange.py) over the
  partial files the completed bucket manifests list: combined in the
  calling process when they fit ``BYTES_PER_PARTITION`` (the usual case
  — a few thousand rows) and shuffled otherwise, and the same exchange
  writes the sorted ``part-<pid>.parquet`` shards.
- The annotate stage is partitioned into buckets of input files, each
  with its own lineage manifest → a killed run resumes per-partition.
  A bucket is complete only while every file its manifest lists
  exists; otherwise all of its files are rebuilt.
- The alias dictionary is broadcast once (``ray.put``) and resolved once
  per actor; canonical components are computed where the dict lives
  (driver) — see stages/canonicalize.py for the distributed variant.
  Its content hash is part of every bucket, nodes and edges fingerprint.
"""

from __future__ import annotations

import os

import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data import Datasink

from ..kernels.tagger import AliasDict
from ..oracle import canonical_components
from ..stages.annotate import annotate_stage
from ..stages.explode import explode_mentions, explode_triples
from ..stages.exchange import partitions_for, read_files, sharded_sorted_write
from ..stages.graph import (
    EDGE_KEYS,
    edge_partials,
    edges_combine,
    node_meta,
    node_partials,
    nodes_combine,
)
from ..state import manifest as mf
from ..state.broadcast import resolve

STAGE_VERSION = "kg-v5"


def _cluster_cpus() -> int:
    try:
        return int(ray.cluster_resources().get("CPU", 8))
    except Exception:
        return 8


def _read(path_or_dir: str, columns=None):
    """Parquet read whose block count scales with the CLUSTER, not
    with however the previous stage happened to lay out its files.
    Ray's default sizing fails this in both directions on the scaling
    fixture (sf3, 16 CPUs, measured):

    - few FAT files UNDER-split: the 8-file transcripts sort ran over
      ~3 default blocks — 9.1 s vs 1.9 s with 2·CPU blocks pinned
      (and 21.6 s vs 7.2 s at 4 CPUs);
    - many SMALL files UNDER-coalesce: the 200-file triples read left
      ~200 blocks — the edges stage took 11.2 s vs 5.9 s coalesced to
      2·CPU blocks (per-block task overhead dominates when map-side
      compute is per-row heavy).

    Rule: for sources ≥ 32 MB pin blocks = max(2·CPU, bytes/64MB)
    (capped at 64·CPU); below that Ray's default is fine and the
    override would only add tiny-block overhead on the 110-pipeline
    bench."""
    files = mf.list_parquet_files(path_or_dir)
    total = sum(os.path.getsize(f) for f in files)
    if total >= (32 << 20):
        cpus = _cluster_cpus()
        blocks = min(max(2 * cpus, total // (64 << 20)), 64 * cpus)
        return rd.read_parquet(
            files, columns=columns, override_num_blocks=int(blocks)
        )
    return rd.read_parquet(files, columns=columns)


BUCKET_COUNTERS = ("turns", "tokens", "mentions", "triples", "empty_turns",
                   "truncated_turns")


def _counters(t: pa.Table) -> dict:
    """Per-partition counters from the count columns. Bad input is
    counted, never dropped silently: a turn with no tokens (null, empty
    or blank text) is an ``empty_turn``; one past ``MAX_SEQ_LEN`` tokens
    is a ``truncated_turn`` (tagged only up to the limit)."""
    import pyarrow.compute as pc

    from ..kernels.tokenize import MAX_SEQ_LEN

    n_tokens = t["n_tokens"]
    return {
        "turns": t.num_rows,
        "tokens": pc.sum(n_tokens).as_py() or 0,
        "mentions": pc.sum(t["n_mentions"]).as_py() or 0,
        "triples": pc.sum(t["n_triples"]).as_py() or 0,
        "empty_turns": pc.sum(pc.equal(n_tokens, 0)).as_py() or 0,
        "truncated_turns": pc.sum(pc.greater(n_tokens, MAX_SEQ_LEN)).as_py() or 0,
    }


def _add_counters(parts) -> dict:
    c = dict.fromkeys(BUCKET_COUNTERS, 0)
    for p in parts:
        for k in BUCKET_COUNTERS:
            c[k] += p[k]
    return c


def _bucket_counters(bdir: str) -> dict:
    """Counters of a bucket's annotation files (column-pruned read)."""
    return _add_counters(
        _counters(pq.read_table(f, columns=["n_tokens", "n_mentions", "n_triples"]))
        for f in mf.list_parquet_files(bdir)
    )


# the files each bucket write task makes outside its annotations dir,
# one directory per kind under the pipeline's output root. None is
# under annotations/ (every annotation-cache reader globs that tree)
# and no path segment is ``key=value`` (read_parquet's hive
# partitioning would turn it into a column).
DERIVED = ("mentions", "triples", "node_partials", "edge_partials")
NODE_PARTIAL_SCHEMA = pa.schema([("cui", pa.string()), ("n", pa.int64())])
EDGE_PARTIAL_SCHEMA = pa.schema(
    [(k, pa.string()) for k in EDGE_KEYS] + [("n", pa.int64())]
)


class _BucketSink(Datasink):
    """The one write of an annotate bucket. Each write task takes its
    annotated blocks and writes five files, all named
    ``<prefix><task_idx:05d>.parquet`` so a retried task overwrites its
    own: the annotations (into ``ann_dir``), their mention and triple
    explodes, and the node ``(cui, n)`` and edge ``(subj_cui, pred,
    obj_cui, n)`` partial counts (canonical remap, self-loops dropped;
    no pandas schema metadata). It returns the file name and its
    counters; ``on_write_complete`` keeps them on the driver's sink."""

    def __init__(self, ann_dir: str, dirs: dict, prefix: str, comp_ref):
        self.ann_dir, self.dirs, self.prefix = ann_dir, dirs, prefix
        self.comp_ref = comp_ref
        self.returns: list = []

    def write(self, blocks, ctx):
        from ray.data.block import BlockAccessor

        tables = [BlockAccessor.for_block(b).to_arrow() for b in blocks]
        if not tables:
            return None
        ann = pa.concat_tables(tables)
        comp = resolve(self.comp_ref)
        mentions = explode_mentions(ann)
        triples = explode_triples(ann)
        linked = mentions.filter(mentions["cui"].is_valid()).select(["cui"])
        nodes = node_partials(linked.to_pandas(), comp)
        edges = edge_partials(triples.select(EDGE_KEYS).to_pandas(), comp)
        name = f"{self.prefix}{ctx.task_idx:05d}.parquet"
        for d, t in (
            (self.ann_dir, ann),
            (self.dirs["mentions"], mentions),
            (self.dirs["triples"], triples),
            (self.dirs["node_partials"], pa.Table.from_pandas(
                nodes, NODE_PARTIAL_SCHEMA, preserve_index=False)),
            (self.dirs["edge_partials"], pa.Table.from_pandas(
                edges, EDGE_PARTIAL_SCHEMA, preserve_index=False)),
        ):
            pq.write_table(t.replace_schema_metadata(None), os.path.join(d, name))
        return name, _counters(ann)

    def on_write_complete(self, write_result):
        self.returns = [r for r in write_result.write_returns if r is not None]


def run_kg_pipeline(
    transcripts_path: str,
    alias_path: str,
    out_root: str,
    *,
    annotate_concurrency=None,
    annotate_batch_size: int = 4096,
    annotate_mode: str = "tasks",
    scorer: str = "dict",
    scorer_kwargs: dict | None = None,
    n_buckets: int = 8,
    bucket_parallelism: int = 4,
    sort: bool = True,
) -> dict:
    """Run (or resume) the full KG pipeline. Returns manifests per stage."""
    os.makedirs(out_root, exist_ok=True)
    alias_rows = pq.read_table(alias_path).to_pylist()
    # the dictionary decides tags, links, components and node metadata
    alias_fp = mf.fingerprint(repr(alias_rows))
    alias_ref = ray.put(AliasDict(alias_rows))
    comp = canonical_components(alias_rows)
    comp_ref = ray.put(comp)
    meta_all = node_meta(alias_rows)
    meta_ref = ray.put({c: meta_all[c] for c in comp.values()})

    in_files = mf.list_parquet_files(transcripts_path)
    if not in_files:
        raise ValueError(f"no parquet files under {transcripts_path!r}")
    required = {"conv_id", "turn_idx", "text"}
    have = set(pq.ParquetFile(in_files[0]).schema_arrow.names)
    missing = required - have
    if missing:
        raise ValueError(
            f"transcript input {in_files[0]!r} is missing required column(s) "
            f"{sorted(missing)}; expected the input_hint schema "
            "(conv_id, turn_idx, role, text, tool, ts)"
        )
    in_fp = mf.input_fingerprint(in_files)
    results: dict[str, dict] = {}

    # -- stage 1: stable turn ordering (the north-rule sort shuffle) --
    turns_dir = os.path.join(out_root, "turns_sorted")
    if sort:
        def build_turns(tmp):
            ds = _read(transcripts_path)
            ds.sort(["conv_id", "turn_idx"]).write_parquet(tmp)

        results["turns_sorted"] = mf.run_stage(
            "turns_sorted", turns_dir, mf.fingerprint(STAGE_VERSION, "sort", in_fp), build_turns
        )
        annotate_input = turns_dir
    else:
        annotate_input = transcripts_path

    # -- stage 2: annotate (actor pool), bucketed for per-partition resume --
    ann_root = os.path.join(out_root, "annotations")
    os.makedirs(ann_root, exist_ok=True)
    ann_files = mf.list_parquet_files(annotate_input)
    buckets: list[list[str]] = [[] for _ in range(min(n_buckets, max(1, len(ann_files))))]
    for i, f in enumerate(ann_files):
        buckets[i % len(buckets)].append(f)
    dirs = {kind: os.path.join(out_root, kind) for kind in DERIVED}
    for d in dirs.values():
        os.makedirs(d, exist_ok=True)

    def run_bucket(b: int, files: list[str]) -> dict:
        bdir = os.path.join(ann_root, f"bucket={b:03d}")
        prefix = f"bucket-{b:03d}-"
        bfp = mf.fingerprint(
            STAGE_VERSION,
            "annotate",
            scorer,
            repr(sorted((scorer_kwargs or {}).items())),
            alias_fp,
            mf.input_fingerprint(files),
        )

        def build_bucket(tmp):
            # all or nothing: a rebuilt bucket first drops whatever an
            # earlier attempt left of its files
            for d in dirs.values():
                for f in os.listdir(d):
                    if f.startswith(prefix):
                        os.remove(os.path.join(d, f))
            sink = _BucketSink(tmp, dirs, prefix, comp_ref)
            ds = rd.read_parquet(files, columns=["conv_id", "turn_idx", "text"])
            annotate_stage(
                ds,
                alias_ref,
                concurrency=annotate_concurrency,
                batch_size=annotate_batch_size,
                mode=annotate_mode,
                scorer=scorer,
                scorer_kwargs=scorer_kwargs,
            ).write_datasink(sink)
            names = sorted(n for n, _ in sink.returns)
            outputs = {"annotations": names}
            for kind, d in dirs.items():
                outputs[kind] = [os.path.relpath(os.path.join(d, n), bdir) for n in names]
            return {
                "counters": _add_counters(c for _, c in sink.returns),
                "outputs": outputs,
            }

        m = mf.run_stage(f"annotations/{b}", bdir, bfp, build_bucket)
        if not set(BUCKET_COUNTERS) <= set(m.get("counters", {})):
            # back-fills a resumed bucket whose manifest lacks a counter
            m["counters"] = _bucket_counters(bdir)
            mf.update_manifest(bdir, counters=m["counters"])
        m["dir"] = bdir
        return m

    # buckets are independent resumable partitions; run their Dataset
    # executions CONCURRENTLY (each is an independent streaming executor) —
    # a sequential loop serializes 8 small executions and caps scaling at
    # the per-execution fixed overhead
    from concurrent.futures import ThreadPoolExecutor

    # Ray's path resolution lazily imports fsspec.implementations.http on
    # every read/write; with aiohttp absent that import FAILS every time,
    # and concurrent failing imports from bucket threads race into a
    # spurious "cannot import name" ImportError that Ray doesn't catch
    # (it only catches ModuleNotFoundError). Make the probe deterministic
    # with a stub module — we never touch HTTP filesystems, so the
    # isinstance check it feeds is correctly always False.
    # The stub is SCOPED to this pipeline run (installed here, removed
    # in the function-level finally) so library code never leaves a fake
    # module behind for later importers. It must cover nodes/edges too,
    # not just the bucket threads: failed imports are NOT cached by
    # Python, so a stub-less run re-attempts the aiohttp import on every
    # lazy path resolution — measured ~40% wall-time regression on the
    # sf1 pipeline when the stub was scoped to the annotate window only.
    import sys as _sys
    import types as _types

    _stub_installed = False
    try:
        import fsspec.implementations.http  # noqa: F401
    except ImportError:
        _stub = _types.ModuleType("fsspec.implementations.http")
        _stub.HTTPFileSystem = type("HTTPFileSystem", (), {})
        _sys.modules["fsspec.implementations.http"] = _stub
        _stub_installed = True

    try:
        todo = [(b, files) for b, files in enumerate(buckets) if files]
        with ThreadPoolExecutor(max_workers=bucket_parallelism) as ex:
            ann_manifests = list(ex.map(lambda bf: run_bucket(*bf), todo))
        results["annotations"] = {
            "rows": sum(m["rows"] for m in ann_manifests),
            "skipped_buckets": sum(1 for m in ann_manifests if m["skipped"]),
            "built_buckets": sum(1 for m in ann_manifests if not m["skipped"]),
            "empty_turns": sum(m["counters"]["empty_turns"] for m in ann_manifests),
            "truncated_turns": sum(
                m["counters"]["truncated_turns"] for m in ann_manifests
            ),
            "buckets": ann_manifests,
        }

        def listed(kind: str) -> list[str]:
            return [f for m in ann_manifests
                    for f in mf.manifest_outputs(m["dir"], m, kind)]

        # a derived file no completed bucket lists (e.g. one of a bucket
        # that a run with more input files made) is not part of this build
        for kind, d in dirs.items():
            keep = set(listed(kind))
            for f in mf.list_parquet_files(d):
                if os.path.normpath(f) not in keep:
                    os.remove(f)
        for kind in ("mentions", "triples"):
            results[kind] = {
                "rows": sum(m["counters"][kind] for m in ann_manifests),
                "skipped": all(m["skipped"] for m in ann_manifests),
            }

        # -- nodes / edges: one keyed exchange each over the listed
        #    partial files. The shard = exchange partition (hash(key) % P),
        #    each written sorted as its own part file, so reruns are
        #    byte-identical per shard and no global sort→repartition(1)
        #    single-file bottleneck exists; P grows with the input
        bucket_fps = [m["fingerprint"] for m in ann_manifests]
        nodes_dir = os.path.join(out_root, "nodes")
        edges_dir = os.path.join(out_root, "edges")
        node_files = listed("node_partials")
        edge_files = listed("edge_partials")

        def build_nodes(tmp):
            sharded_sorted_write(
                read_files(node_files), ["cui"], nodes_combine(meta_ref), tmp,
                partitions_for(ann_root),
            )

        def build_edges(tmp):
            sharded_sorted_write(
                read_files(edge_files), EDGE_KEYS, edges_combine, tmp,
                partitions_for(dirs["triples"]),
            )

        # the two exchanges are independent, and at this size each is
        # mostly fixed per-execution cost, which runs overlap: measured
        # ~9 % more kg_build_dict turns/s than in sequence (1 vCPU)
        with ThreadPoolExecutor(max_workers=2) as ex:
            nodes = ex.submit(
                mf.run_stage, "nodes", nodes_dir,
                mf.fingerprint(STAGE_VERSION, "nodes", alias_fp, *bucket_fps),
                build_nodes,
            )
            edges = ex.submit(
                mf.run_stage, "edges", edges_dir,
                mf.fingerprint(STAGE_VERSION, "edges", alias_fp, *bucket_fps),
                build_edges,
            )
            results["nodes"], results["edges"] = nodes.result(), edges.result()

        results["paths"] = {
            "turns_sorted": turns_dir if sort else None,
            "annotations": ann_root,
            "mentions": dirs["mentions"],
            "triples": dirs["triples"],
            "nodes": nodes_dir,
            "edges": edges_dir,
        }
        return results
    finally:
        if _stub_installed:
            _sys.modules.pop("fsspec.implementations.http", None)
