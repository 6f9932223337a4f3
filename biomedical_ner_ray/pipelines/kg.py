"""Flagship pipeline: transcripts → knowledge graph (nodes/edges Parquet).

Stage graph (each stage a resumable Parquet checkpoint, SURVEY.md §7.2)::

    transcripts ──sort(conv_id,turn_idx)──▶ turns_sorted      [shuffle]
    turns_sorted ──TurnAnnotator actor pool──▶ annotations    [per-bucket resume]
    annotations ──explode──▶ mentions                          [row-local]
    annotations ──explode──▶ triples                           [row-local]
    mentions ──partial-count + keyed combine──▶ nodes          [sized exchange]
    triples ──partial-count + keyed combine──▶ edges           [sized exchange]

Scale notes:
- The only large shuffle is the (conv_id, turn_idx) sort the north rule
  mandates for stable turn ordering; everything NER-ish is row-local, so
  the annotate stage streams with backpressure and scales linearly with
  the actor pool.
- nodes/edges are one keyed exchange each (stages/exchange.py): the
  partial counts are combined in the calling process when they fit
  ``BYTES_PER_PARTITION`` (the usual case — a few thousand rows) and
  shuffled otherwise, and the same exchange writes the sorted
  ``part-<pid>.parquet`` shards.
- The annotate stage is partitioned into buckets of input files, each
  with its own lineage manifest → a killed run resumes per-partition.
- The alias dictionary is broadcast once (``ray.put``) and resolved once
  per actor; canonical components are computed where the dict lives
  (driver) — see stages/canonicalize.py for the distributed variant.
"""

from __future__ import annotations

import os

import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..kernels.tagger import AliasDict
from ..oracle import canonical_components
from ..stages.annotate import annotate_stage
from ..stages.explode import mentions_stage, triples_stage
from ..stages.exchange import partitions_for, sharded_sorted_write
from ..stages.graph import edges_plan, node_meta, nodes_plan
from ..state import manifest as mf

STAGE_VERSION = "kg-v4"


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


def _bucket_counters(bdir: str) -> dict:
    """Per-partition counters from the count columns (column-pruned
    read). Bad input is counted, never dropped silently: a turn with no
    tokens (null, empty or blank text) is an ``empty_turn``; one past
    ``MAX_SEQ_LEN`` tokens is a ``truncated_turn`` (tagged only up to
    the limit)."""
    import pyarrow.compute as pc

    from ..kernels.tokenize import MAX_SEQ_LEN

    c = dict.fromkeys(BUCKET_COUNTERS, 0)
    for f in mf.list_parquet_files(bdir):
        t = pq.read_table(f, columns=["n_tokens", "n_mentions", "n_triples"])
        n_tokens = t["n_tokens"]
        c["turns"] += t.num_rows
        c["tokens"] += pc.sum(n_tokens).as_py() or 0
        c["mentions"] += pc.sum(t["n_mentions"]).as_py() or 0
        c["triples"] += pc.sum(t["n_triples"]).as_py() or 0
        c["empty_turns"] += pc.sum(pc.equal(n_tokens, 0)).as_py() or 0
        c["truncated_turns"] += pc.sum(pc.greater(n_tokens, MAX_SEQ_LEN)).as_py() or 0
    return c


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
    def run_bucket(b: int, files: list[str]) -> dict:
        bdir = os.path.join(ann_root, f"bucket={b:03d}")
        bfp = mf.fingerprint(
            STAGE_VERSION,
            "annotate",
            scorer,
            repr(sorted((scorer_kwargs or {}).items())),
            mf.input_fingerprint(files),
        )

        def build_ann(tmp):
            ds = rd.read_parquet(files, columns=["conv_id", "turn_idx", "text"])
            annotate_stage(
                ds,
                alias_ref,
                concurrency=annotate_concurrency,
                batch_size=annotate_batch_size,
                mode=annotate_mode,
                scorer=scorer,
                scorer_kwargs=scorer_kwargs,
            ).write_parquet(tmp)

        m = mf.run_stage(f"annotations/{b}", bdir, bfp, build_ann)
        if not set(BUCKET_COUNTERS) <= set(m.get("counters", {})):
            # also back-fills a resumed bucket whose manifest predates a counter
            m["counters"] = _bucket_counters(bdir)
            mf.update_manifest(bdir, counters=m["counters"])
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
    # module behind for later importers. It must cover stages 3-6 too,
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

        ann_fp = mf.input_fingerprint(mf.list_parquet_files(ann_root))

        # -- stages 3-6: two chains, run sequentially --
        #    mentions → nodes ; triples → edges
        # (concurrent chain execution regressed 10× — see BASELINE.md)
        mentions_dir = os.path.join(out_root, "mentions")
        triples_dir = os.path.join(out_root, "triples")
        nodes_dir = os.path.join(out_root, "nodes")
        edges_dir = os.path.join(out_root, "edges")

        def mentions_chain():
            def build_mentions(tmp):
                mentions_stage(
                    _read(ann_root, columns=["conv_id", "turn_idx", "mentions"])
                ).write_parquet(tmp)

            m = mf.run_stage(
                "mentions", mentions_dir,
                mf.fingerprint(STAGE_VERSION, "mentions", ann_fp), build_mentions,
            )

            def build_nodes(tmp):
                def lm_factory():
                    lm = _read(mentions_dir, columns=["cui"])
                    return lm.map_batches(
                        lambda t: t.filter(t["cui"].is_valid()), batch_format="pyarrow"
                    )

                # key-hash-sharded deterministic artifact, written by the
                # combine itself: shard = exchange partition (hash(cui) % P),
                # each written sorted as its own part file, so reruns are
                # byte-identical per shard and no global sort→repartition(1)
                # single-file bottleneck exists; P grows with the input
                sharded_sorted_write(
                    *nodes_plan(lm_factory, comp_ref, meta_ref),
                    tmp,
                    partitions_for(ann_root),
                )

            n = mf.run_stage(
                "nodes", nodes_dir, mf.fingerprint(STAGE_VERSION, "nodes", ann_fp), build_nodes
            )
            return m, n

        def triples_chain():
            def build_triples(tmp):
                triples_stage(
                    _read(ann_root, columns=["conv_id", "turn_idx", "triples"])
                ).write_parquet(tmp)

            t = mf.run_stage(
                "triples", triples_dir,
                mf.fingerprint(STAGE_VERSION, "triples", ann_fp), build_triples,
            )

            def build_edges(tmp):
                sharded_sorted_write(
                    *edges_plan(
                        lambda: _read(
                            triples_dir, columns=["subj_cui", "pred", "obj_cui"]
                        ),
                        comp_ref,
                    ),
                    tmp,
                    partitions_for(triples_dir),
                )

            e = mf.run_stage(
                "edges", edges_dir, mf.fingerprint(STAGE_VERSION, "edges", ann_fp), build_edges
            )
            return t, e

        # chains run sequentially: concurrent hash-shuffle executions contend
        # for aggregator actors amid the annotate worker pool and regress 10×
        # (measured 1.7s+3.9s sequential vs 49s+52s concurrent at 32 CPUs)
        results["mentions"], results["nodes"] = mentions_chain()
        results["triples"], results["edges"] = triples_chain()

        results["paths"] = {
            "turns_sorted": turns_dir if sort else None,
            "annotations": ann_root,
            "mentions": mentions_dir,
            "triples": triples_dir,
            "nodes": nodes_dir,
            "edges": edges_dir,
        }
        return results
    finally:
        if _stub_installed:
            _sys.modules.pop("fsspec.implementations.http", None)
