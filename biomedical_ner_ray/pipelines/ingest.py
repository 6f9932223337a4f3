"""Micro-batch streaming-ingest loop — the composition of the engine's
three incremental primitives into one corpus-maintenance driver:

    delta transcripts
      → ONE read+map, materialized once: turn ids, each turn's packed
        shingle blob and its vector partition; every later step reads
        these blocks
      → incremental near-dup against the PERSISTED LSH index
        (stages/dedup.incremental_minhash_pairs; the first delta, with
        no index yet, gets its within-delta pairs from the same call)
      → annotate survivors (stages/annotate, broadcast alias dict)
      → weighted-edge partials → touched-bucket KG edge upsert
        (the kg_update_edges mechanics, writing back to the store)
      → touched-part vector-store upsert (the emb_ivf_upsert mechanics:
        only touched hive parts are read; untouched parts carry over
        without a data read)
      → LSH index append (survivor shingle blobs + band rows)

A delta is a bounded micro-batch, so it runs as a handful of Ray Data
executions and writes no intermediate handoff. The edge upsert, the
vector upsert and the band append each run ONE keyed exchange whose
combine writes the table's hive files
(``stages/exchange.hive_partitioned_write``); only the turn registry
and the shingle blobs take a plain ``write_parquet``.

Store layout — CRASH-SAFE VERSIONED GENERATIONS: every delta builds
``gen<k+1>/`` next to the live ``gen<k>/``; untouched hive bucket/part
files are HARDLINKED (O(#files) metadata ops, zero data copy), touched
buckets are rewritten merged, and the store manifest (``store.json``)
flips to the new generation with one fsynced atomic rename. A crash
mid-build leaves ``gen<k>`` intact and the orphan ``gen<k+1>`` is
rebuilt from scratch on the next ingest, and a superseded generation a
kill left behind after the flip is swept by it; re-submitting an
already-applied delta is a fingerprint-matched no-op (path + size +
mtime_ns — idempotent at-least-once ingest), concurrent ingests on one
store serialize on a flock, and a turn id already in the registry is
dropped at dedup time (the store is APPEND-ONLY per (conv_id,
turn_idx) — re-submitting overlapping slices cannot double-register).
Honesty note on durability: the claim is kill-safe (SIGKILL at any
point) plus manifest-atomic; full power-fail durability of generation
DATA files is the filesystem's domain (no per-file fsync).

Scale posture: per delta the work is O(delta) + O(touched buckets) —
the standing corpus is never re-read or re-shuffled; driver traffic is
int columns bounded by the delta (its doc ids, LSH candidate pairs and
drop list) and bounded aggregates (touched bucket ids). The
correctness contract is the kg_update_edges oracle discipline applied
end-to-end: tests/test_ingest.py feeds three successive deltas and
asserts the final edge table and vector-store summary EQUAL a
from-scratch recompute over the surviving turns.

Reference parity note: the reference app is a load-once serve loop
(app.py:121-208) with no corpus maintenance story; this module is part
of the beyond-reference LLM-data-pipeline surface (SURVEY.md §2.7+).
"""

from __future__ import annotations

import json
import os
import shutil
import time

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd

from ..kernels.hashing import stable_u64_md5
from ..kernels.tagger import AliasDict
from ..state.manifest import fingerprint, list_parquet_files

VEC_DIM = 16
VEC_PARTS = 16
# SRP-style deterministic hyperplanes over the turn-vector space
_VPLANES = None

STORE_VERSION = "ingest-store-v1"

# Column types of the store's registry and edge tables: what a
# generation that holds no files yet (a bootstrap delta with no
# survivors) reads back as.
TURNS_SCHEMA = pa.schema(
    [("doc_id", pa.int64()), ("conv_id", pa.string()),
     ("turn_idx", pa.int32()), ("text", pa.string())]
)
EDGES_SCHEMA = pa.schema(
    [("subj_cui", pa.string()), ("pred", pa.string()),
     ("obj_cui", pa.string()), ("weight", pa.int64())]
)


def _vplanes() -> np.ndarray:
    global _VPLANES
    if _VPLANES is None:
        _VPLANES = np.array(
            [
                [
                    (stable_u64_md5(f"ingest-srp:{p}:{d}".encode()) % 2001) - 1000
                    for d in range(VEC_DIM)
                ]
                for p in range(4)
            ],
            dtype=np.float64,
        )
    return _VPLANES


def turn_doc_id(conv_id: str, turn_idx: int) -> int:
    """Stable positive int64 doc id for a turn (md5, process-stable)."""
    return stable_u64_md5(f"{conv_id}:{turn_idx}".encode()) >> 1


def _turn_vector(text: str) -> np.ndarray:
    """Deterministic VEC_DIM turn embedding: mean of md5-seeded unit
    token vectors (the hash-OOV rule of kernels/combinatorial.py) —
    model-free so the ingest loop has no training dependency."""
    toks = text.split() if text else []
    if not toks:
        return np.zeros(VEC_DIM)
    acc = np.zeros(VEC_DIM)
    for t in toks:
        h = stable_u64_md5(t.lower().encode())
        acc += np.array(
            [((h >> (2 * d)) & 0xFF) / 255.0 - 0.5 for d in range(VEC_DIM)]
        )
    return acc / len(toks)


def _vpart(vec: np.ndarray) -> int:
    """SRP sign-bucket (Charikar'02 hyperplane hash) — the store's
    deterministic partition rule; at a trained-centroid deployment the
    emb_ivf_upsert nearest-centroid assignment drops into this slot."""
    bits = 0
    for i, p in enumerate(_vplanes()):
        if float(vec @ p) >= 0.0:
            bits |= 1 << i
    return bits % VEC_PARTS


def _store_state(store_dir: str) -> dict:
    p = os.path.join(store_dir, "store.json")
    if os.path.exists(p):
        with open(p) as f:
            return json.load(f)
    return {"version": STORE_VERSION, "generation": -1, "deltas": []}


def _flip_state(store_dir: str, state: dict) -> None:
    tmp = os.path.join(store_dir, "store.json.tmp")
    with open(tmp, "w") as f:
        json.dump(state, f, indent=2)
        # fsync before the rename: without it a power loss can journal
        # the rename ahead of the data blocks and leave a zero-length
        # store.json. (Generation DATA files are not fsynced — the
        # crash-safety claim is kill-safe + manifest-atomic; full
        # power-fail durability of the data files is the filesystem's
        # mount-option domain, stated honestly in the module docstring.)
        f.flush()
        os.fsync(f.fileno())
    os.replace(tmp, os.path.join(store_dir, "store.json"))
    # ...and fsync the DIRECTORY so the rename dirent itself is durable
    # before the caller acts on the returned report (acks upstream).
    dfd = os.open(store_dir, os.O_DIRECTORY)
    try:
        os.fsync(dfd)
    finally:
        os.close(dfd)


def _gen_dir(store_dir: str, gen: int) -> str:
    return os.path.join(store_dir, f"gen{gen}")


def _link_or_copy(src: str, dst: str) -> None:
    """Zero-copy carry-over of one store file: hardlink, falling back to
    a copy when the store spans filesystems (EXDEV) or the backing store
    has no hardlinks; on shared object storage the whole carry-over
    becomes a manifest pointer copy instead (see module docstring)."""
    try:
        os.link(src, dst)
    except OSError:
        shutil.copy2(src, dst)


def _hardlink_tree(src: str, dst: str) -> None:
    """Carry every parquet file of src into dst preserving layout
    (``_link_or_copy`` per file)."""
    for root, _dirs, files in os.walk(src):
        rel = os.path.relpath(root, src)
        out = os.path.join(dst, rel) if rel != "." else dst
        os.makedirs(out, exist_ok=True)
        for f in files:
            if f.endswith(".parquet"):
                _link_or_copy(os.path.join(root, f), os.path.join(out, f))


def _delta_fingerprint(transcripts: str) -> str:
    """Persisted exactly-once identity of a delta: path + size +
    mtime_ns per file. Deliberately STRONGER than the shared
    manifest.input_fingerprint (path+size only — a cache heuristic): a
    producer that overwrites the same path with same-sized new content
    must not be silently skipped as already-applied. Content hashing
    would be stronger still but costs a full delta read; mtime_ns
    catches every regular rewrite."""
    files = (
        list_parquet_files(transcripts)
        if os.path.isdir(transcripts)
        else [transcripts]
    )
    parts = []
    for f in sorted(files):
        st = os.stat(f)
        parts.append(f"{f}:{st.st_size}:{st.st_mtime_ns}")
    # mtime_ns catches regular rewrites on ns-resolution filesystems;
    # coarse-timestamp mounts or mtime-preserving copies can still
    # alias — content hashing is the strict option, at a full delta
    # read per submission. Byte-identical re-staged files with a fresh
    # mtime re-build a generation, which the re-ingest guard then
    # reduces to a pure carry.
    return fingerprint(STORE_VERSION, *parts)


def ingest_delta(
    store_dir: str,
    transcripts: str,
    alias_path: str,
    *,
    n_edge_buckets: int | None = None,
) -> dict:
    """Apply one transcript delta to the store; returns the report.
    Idempotent: a delta whose input fingerprint is already recorded in
    the store manifest is skipped. Serialized per store (flock)."""
    import fcntl

    from ..queries import KG_EDGE_BUCKETS

    t0 = time.perf_counter()
    n_edge_buckets = n_edge_buckets or KG_EDGE_BUCKETS
    os.makedirs(store_dir, exist_ok=True)
    # One ingest at a time per store: without this, two concurrent
    # ingests both build gen k+1 and the second's orphan-cleanup rmtree
    # deletes the first's in-progress generation (the manifest.run_stage
    # flock discipline, applied to the whole mutation).
    lock_f = open(os.path.join(store_dir, ".ingest.lock"), "w")
    fcntl.flock(lock_f, fcntl.LOCK_EX)
    try:
        return _ingest_delta_locked(
            store_dir, transcripts, alias_path,
            n_edge_buckets=n_edge_buckets, t0=t0,
        )
    finally:
        fcntl.flock(lock_f, fcntl.LOCK_UN)
        lock_f.close()


def _carry_generation(store_dir: str, state: dict, dfp: str, n_delta: int,
                      t0: float) -> dict:
    """Flip to a generation that adds nothing: a pure hardlink carry of
    the live one when no delta turn survived dedup/the re-ingest guard,
    or a valid empty generation for a bootstrap delta. The delta is
    still RECORDED so re-submission stays a fingerprint no-op."""
    from ..stages.dedup import INDEX_LAYOUT_VERSION

    gen = state["generation"]
    new_gen = gen + 1
    old = _gen_dir(store_dir, gen)
    nd = _gen_dir(store_dir, new_gen)
    for sub in ("turns", "edges", "vectors", "bands", "shingles"):
        src = os.path.join(old, sub)
        dst = os.path.join(nd, sub)
        os.makedirs(dst, exist_ok=True)
        if os.path.isdir(src):
            _hardlink_tree(src, dst)
    with open(os.path.join(nd, "_LAYOUT_VERSION"), "w") as f:
        f.write(INDEX_LAYOUT_VERSION)
    report = {
        "delta": new_gen,
        "fingerprint": dfp,
        "n_delta_turns": n_delta,
        "n_kept": 0,
        "n_dropped": n_delta,
        "touched_edge_buckets": [],
        "touched_vparts": [],
        "wall_sec": round(time.perf_counter() - t0, 3),
    }
    state["generation"] = new_gen
    state["deltas"].append(report)
    _flip_state(store_dir, state)
    if gen >= 0:
        shutil.rmtree(old, ignore_errors=True)
    return report


def _carry_buckets(old_dir: str, new_dir: str, col: str, touched) -> dict:
    """Hardlink every ``<col>=<v>`` bucket of ``old_dir`` that the delta
    does not touch into ``new_dir``; returns ``{v: files}`` of the old
    table's touched buckets (their rows are re-read and merged)."""
    buckets: dict[int, list] = {}
    for f in list_parquet_files(old_dir) if os.path.isdir(old_dir) else []:
        v = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        buckets.setdefault(v, []).append(f)
    for v, fs in buckets.items():
        if v in touched:
            continue
        out = os.path.join(new_dir, f"{col}={v}")
        os.makedirs(out, exist_ok=True)
        for f in fs:
            _link_or_copy(f, os.path.join(out, os.path.basename(f)))
    return {v: fs for v, fs in buckets.items() if v in touched}


def _ingest_delta_locked(
    store_dir: str,
    transcripts: str,
    alias_path: str,
    *,
    n_edge_buckets: int,
    t0: float,
) -> dict:
    import pyarrow.dataset as pads

    from ..oracle import canonical_components
    from ..queries import _with_edge_bucket
    from ..stages.annotate import annotate_stage
    from ..stages.dedup import (
        INDEX_BAND_BUCKETS,
        INDEX_LAYOUT_VERSION,
        _band_rows_from_shingles,
        _column,
        incremental_minhash_pairs,
        shingle_hashes,
    )
    from ..stages.exchange import (
        hive_partitioned_write,
        keyed_exchange,
        partitions_for,
        read_files,
    )
    from ..stages.explode import triples_stage
    from ..stages.graph import EDGE_KEYS, edges_plan

    state = _store_state(store_dir)
    # A kill between a flip and the rmtree of the superseded generation
    # leaks that generation; nothing reads below the live one, so sweep
    # them all (the caller holds the store lock).
    live = state["generation"]
    for name in os.listdir(store_dir):
        if name.startswith("gen") and name[3:].isdigit() and int(name[3:]) < live:
            shutil.rmtree(os.path.join(store_dir, name), ignore_errors=True)
    dfp = _delta_fingerprint(transcripts)
    for d in state["deltas"]:
        if d["fingerprint"] == dfp:
            return {**d, "skipped": True}

    gen = state["generation"]
    new_gen = gen + 1
    nd = _gen_dir(store_dir, new_gen)
    if os.path.exists(nd):  # orphan from a killed run — rebuild
        shutil.rmtree(nd)
    os.makedirs(nd)
    # every file this generation adds carries it in its name, so files
    # added to append-only bucket dirs never collide with carried ones
    fname = f"g{new_gen:05d}"

    # ---- delta docs: one turn = one doc -----------------------------
    def derive(batch: pa.Table) -> pa.Table:
        """The delta's one read+map: turn ids, the packed shingle blob
        the LSH index stores and the vector partition of each turn."""
        convs = batch["conv_id"].to_pylist()
        tixs = batch["turn_idx"].to_pylist()
        texts = batch["text"].to_pylist()
        cache: dict = {}
        return pa.table(
            {
                "doc_id": pa.array(
                    [turn_doc_id(c, t) for c, t in zip(convs, tixs)], pa.int64()
                ),
                "conv_id": pa.array(convs, pa.string()),
                "turn_idx": pa.array(tixs, pa.int32()),
                "text": pa.array(texts, pa.string()),
                "shingles": pa.array(
                    [shingle_hashes(t, cache=cache).tobytes() for t in texts],
                    pa.binary(),
                ),
                "vpart": pa.array(
                    [_vpart(_turn_vector(t)) for t in texts], pa.int64()
                ),
            }
        )

    # ONE read+map of the delta, object-store resident; every later
    # consumer (dedup, id set, survivor filter, vectors, index) reuses
    # the materialized blocks instead of re-scanning the parquet.
    delta_all = (
        rd.read_parquet(transcripts, columns=["conv_id", "turn_idx", "text"])
        .map_batches(derive, batch_format="pyarrow")
        .materialize()
    )

    n_delta = delta_all.count()
    if n_delta == 0:  # an empty read yields blocks with no columns
        return _carry_generation(store_dir, state, dfp, 0, t0)

    # ---- incremental dedup ------------------------------------------
    # the first delta has no index yet: its pairs are new–new only
    old = _gen_dir(store_dir, gen)
    index = None
    if gen >= 0:
        index = {
            "bands": os.path.join(old, "bands"),
            "shingles": os.path.join(old, "shingles"),
        }
    pairs = incremental_minhash_pairs(lambda: delta_all, index).to_pandas()

    # Drop rule (keep-first): a new doc paired with a PERSISTED doc is
    # dropped; of a new–new pair the larger doc_id is dropped. The drop
    # list is O(dup-rate × delta) and is applied with a broadcast-side
    # membership filter (the delta is the bounded side by construction).
    new_ids = np.unique(_column(delta_all, "doc_id"))
    drops: set = set()
    if len(pairs):  # Ray's to_pandas() of a 0-row Dataset has no columns
        a = pairs["doc_id_a"].to_numpy(dtype=np.int64)
        b = pairs["doc_id_b"].to_numpy(dtype=np.int64)
        an, bn = np.isin(a, new_ids), np.isin(b, new_ids)
        drop = np.where(an & bn, np.maximum(a, b), np.where(an, a, b))
        drops = set(drop[an | bn].tolist())

    # Re-ingest guard: a delta turn whose (conv_id, turn_idx) already
    # lives in the registry is DROPPED — the store is append-only per
    # turn id, so re-submitting an overlapping slice (or the same turn
    # with edited text that is not a near-dup) cannot double-register a
    # doc_id or leave a stale vector beside a new one. Shape: NO
    # corpus shuffle — the (small) delta id set is pushed down as a
    # parquet row filter on the registry's doc_id COLUMN, so only the
    # matches come back (output bounded by the delta). Honest cost
    # note: this scans 8 bytes/registered turn per delta (~1-2% of
    # corpus payload bytes); a hive-bucketed id index drops into this
    # slot when even the id column matters.
    if gen >= 0:
        reg_files = list_parquet_files(os.path.join(old, "turns"))
        if reg_files:
            dup_df = read_files(
                reg_files,
                columns=["doc_id"],
                filter=pads.field("doc_id").isin(new_ids.tolist()),
            ).to_pandas()
            if len(dup_df):  # empty result frames carry no columns
                drops |= set(dup_df["doc_id"].tolist())

    drops_ref = ray.put(drops)

    def keep_survivors(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import resolve

        dr = resolve(drops_ref)
        return df[~df["doc_id"].isin(dr)] if dr else df

    def dedupe_turn_ids(df: pd.DataFrame) -> pd.DataFrame:
        """WITHIN-delta duplicate (conv_id, turn_idx) rows (a producer
        bug the cross-delta guard can't see — both rows carry side
        'new') collapse to ONE deterministically: lexicographically
        smallest text wins. O(delta) doc_id-keyed exchange."""
        return (
            df.sort_values(["doc_id", "text"], kind="mergesort")
            .drop_duplicates("doc_id", keep="first")
        )

    survivors = (
        keyed_exchange(
            delta_all.map_batches(keep_survivors, batch_format="pandas"),
            ["doc_id"],
            dedupe_turn_ids,
            # one block per partition feeds every later step: size them
            partitions_for(transcripts, floor=1),
        )
        .materialize()  # consumed by: registry, annotate, vectors, index
    )
    n_kept = survivors.count()

    if n_kept == 0:
        return _carry_generation(store_dir, state, dfp, int(n_delta), t0)

    # ---- turn registry ----------------------------------------------
    turns_dir = os.path.join(nd, "turns")
    os.makedirs(turns_dir, exist_ok=True)
    if gen >= 0:
        _hardlink_tree(os.path.join(old, "turns"), turns_dir)
    survivors.select_columns(TURNS_SCHEMA.names).map_batches(
        lambda t: t.cast(TURNS_SCHEMA), batch_format="pyarrow"
    ).write_parquet(os.path.join(turns_dir, f"delta_{new_gen:05d}"))

    # ---- annotate -> edges delta ------------------------------------
    # The delta's per-batch edge partials (canonical triple counts) are
    # merged with the old rows of the buckets they touch in ONE
    # edge_bucket-keyed exchange whose combine writes each bucket.
    alias_rows = pq.read_table(alias_path).to_pylist()
    alias_ref = ray.put(AliasDict(alias_rows))
    comp_ref = ray.put(canonical_components(alias_rows))
    ann = annotate_stage(
        survivors.select_columns(["conv_id", "turn_idx", "text"]),
        alias_ref,
    )
    partials = edges_plan(lambda: triples_stage(ann), comp_ref)[0]
    delta_edges = partials.map_batches(
        _with_edge_bucket, batch_format="pandas"
    ).materialize()
    # survivors with no triples yield no rows
    touched_e = set(_column(delta_edges, "edge_bucket").tolist())

    edges_dir = os.path.join(nd, "edges")
    os.makedirs(edges_dir, exist_ok=True)
    old_edges = _carry_buckets(
        os.path.join(old, "edges"), edges_dir, "edge_bucket", touched_e
    )
    merged = delta_edges
    touched_files = [f for fs in old_edges.values() for f in fs]
    if touched_files:
        merged = merged.union(
            read_files(touched_files, columns=EDGES_SCHEMA.names).map_batches(
                lambda df: _with_edge_bucket(df.rename(columns={"weight": "n"})),
                batch_format="pandas",
            )
        )

    def combine_edges(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["edge_bucket"] + EDGE_KEYS, sort=False)["n"]
            .sum()
            .reset_index(name="weight")
        )
        out["weight"] = out["weight"].astype("int64")
        return out

    if touched_e:
        hive_partitioned_write(
            merged, "edge_bucket", combine_edges, edges_dir, fname,
            EDGE_KEYS, n_edge_buckets,
        )

    # ---- vector-store upsert ----------------------------------------
    # (doc_id, vpart) came with the delta's derive pass
    touched_v = set(_column(survivors, "vpart").tolist())
    vec_dir = os.path.join(nd, "vectors")
    os.makedirs(vec_dir, exist_ok=True)
    old_vparts = _carry_buckets(
        os.path.join(old, "vectors"), vec_dir, "vpart", touched_v
    )
    vmerged = survivors.map_batches(
        lambda df: df[["doc_id", "vpart"]].rename(columns={"doc_id": "vec_id"}),
        batch_format="pandas",
    )
    vtouched_files = [f for fs in old_vparts.values() for f in fs]
    if vtouched_files:
        # hive reads surface the partition field as a string — cast back
        vmerged = vmerged.union(
            read_files(vtouched_files, columns=["vec_id", "vpart"]).map_batches(
                lambda df: df.assign(vpart=df["vpart"].astype("int64")),
                batch_format="pandas",
            )
        )
    hive_partitioned_write(
        vmerged, "vpart", lambda df: df, vec_dir, fname, ["vec_id"], VEC_PARTS
    )

    # ---- LSH index append -------------------------------------------
    # the survivors' blobs from the derive pass, and their band rows
    # appended as one new file per touched band bucket
    bands_dir = os.path.join(nd, "bands")
    sh_dir = os.path.join(nd, "shingles")
    os.makedirs(bands_dir, exist_ok=True)
    os.makedirs(sh_dir, exist_ok=True)
    if gen >= 0:
        _hardlink_tree(os.path.join(old, "bands"), bands_dir)
        _hardlink_tree(os.path.join(old, "shingles"), sh_dir)
    surv_sh = survivors.map_batches(
        lambda t: t.select(["doc_id", "shingles"]).replace_schema_metadata(None),
        batch_format="pyarrow",
    )
    surv_sh.write_parquet(os.path.join(sh_dir, f"delta_{new_gen:05d}"))
    hive_partitioned_write(
        surv_sh.map_batches(_band_rows_from_shingles, batch_format="pyarrow"),
        "band_bucket", lambda df: df, bands_dir, fname,
        ["band_key", "doc_id"], INDEX_BAND_BUCKETS,
    )
    with open(os.path.join(nd, "_LAYOUT_VERSION"), "w") as f:
        f.write(INDEX_LAYOUT_VERSION)

    # ---- atomic generation flip -------------------------------------
    report = {
        "delta": new_gen,
        "fingerprint": dfp,
        "n_delta_turns": int(n_delta),
        "n_kept": int(n_kept),
        "n_dropped": int(n_delta - n_kept),
        "touched_edge_buckets": sorted(int(b) for b in touched_e),
        "touched_vparts": sorted(int(b) for b in touched_v),
        "wall_sec": round(time.perf_counter() - t0, 3),
    }
    state["generation"] = new_gen
    state["deltas"].append(report)
    _flip_state(store_dir, state)
    if gen >= 0:
        shutil.rmtree(old, ignore_errors=True)  # superseded generation
    return report


def _store_table(store_dir: str, sub: str, schema: pa.Schema, columns=None):
    """One table of the live generation as a Dataset; a generation that
    holds no files for it reads as an empty Dataset of ``schema``."""
    state = _store_state(store_dir)
    files = list_parquet_files(
        os.path.join(_gen_dir(store_dir, state["generation"]), sub)
    )
    if not files:
        return rd.from_arrow(schema.empty_table())
    return rd.read_parquet(files, columns=columns)


def store_edges(store_dir: str):
    """Live weighted edge table of the store as a Dataset."""
    return _store_table(store_dir, "edges", EDGES_SCHEMA, EDGES_SCHEMA.names)


def store_turns(store_dir: str):
    return _store_table(store_dir, "turns", TURNS_SCHEMA)


def store_vector_summary(store_dir: str) -> pd.DataFrame:
    """(vpart, n_vecs, min/max vec_id) from parquet footer stats alone
    — the emb_ivf_upsert no-data-read summary."""
    state = _store_state(store_dir)
    vdir = os.path.join(_gen_dir(store_dir, state["generation"]), "vectors")
    rows = []
    parts: dict[int, list] = {}
    for f in list_parquet_files(vdir):
        b = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        parts.setdefault(b, []).append(f)
    for b, fs in sorted(parts.items()):
        n, mn, mx = 0, None, None
        for f in fs:
            pf = pq.ParquetFile(f)
            ci = pf.schema_arrow.names.index("vec_id")
            md = pf.metadata
            n += md.num_rows
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                mn = st.min if mn is None else min(mn, st.min)
                mx = st.max if mx is None else max(mx, st.max)
        rows.append((b, n, mn, mx))
    return pd.DataFrame(
        rows, columns=["vpart", "n_vecs", "min_vec_id", "max_vec_id"]
    ).astype({"vpart": "int64", "n_vecs": "int64"})
