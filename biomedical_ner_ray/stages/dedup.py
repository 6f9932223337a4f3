"""Near-duplicate detection operators over a document corpus.

Four detectors, each the Ray-Data shape a 100TB training-data pipeline
needs (SURVEY.md §2.7 extends the reference's exact-dedup shape;
MinHash/LSH per Broder '97 / SlimPajama-style two-stage dedup):

- MinHash + LSH (``incremental_minhash_pairs``, the one MinHash pair
  detector): packed shingle blob → 32-perm MinHash → 8 band rows → ONE
  band-key exchange whose combine is a vectorized self-merge
  (``_flagged_bucket_pairs``) → exact-Jaccard verify of the candidate
  pairs only. Given a persisted index (``build_minhash_index``) it
  dedups a new batch against the standing corpus; with ``index=None``
  it is the batch detector. Only band rows shuffle; raw text never does.
- SimHash       (``simhash_pairs``): 64-bit SimHash → 4×16-bit chunk
  bucket exchange (pigeonhole: hamming ≤ 3 ⇒ some chunk equal) →
  hamming verify.
- Blocked exact n-gram Jaccard (``jaccard_pairs``): all pairs WITHIN a
  blocking key (here ``source``) — the exact-but-blocked baseline; its
  scale-correct replacement is the PPJoin prefix filter
  (``ppjoin_pairs``).
- Embedding cosine (``embedding_pairs``, in queries.py): blocked
  matmul against a broadcast normalized matrix.

Every hash is md5-derived (``stable_u64_md5`` == DuckDB
``md5_number_lower``) and every threshold compare is integer-exact
(J ≥ 4/5 tested as ``5*n_common >= 4*n_union``), so the DuckDB oracle
reproduces results value-for-value — the LSH itself is replicated in
SQL, not approximated.

All bucket exchanges use the keyed hash exchange from
``stages/exchange.py`` (bucket count is high-cardinality); pair
verification is vectorized pandas inside each partition.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.hashing import simhash64_md5, stable_u64_md5
from ..kernels.textstats import WORD_RE

SHINGLE_N = 3
NUM_PERM = 32
NUM_BANDS = 8
BAND_ROWS = NUM_PERM // NUM_BANDS
MINHASH_SEED = 777
# J >= JACCARD_NUM/JACCARD_DEN, integer-exact
JACCARD_NUM, JACCARD_DEN = 4, 5
SIMHASH_CHUNKS = 4
SIMHASH_MAX_HAMMING = 3
_MERSENNE = (1 << 61) - 1


def minhash_params(num_perm: int = NUM_PERM, seed: int = MINHASH_SEED):
    """32-bit (a, b) permutation constants: products stay < 2^64, so
    numpy uint64 arithmetic is exact and plain SQL HUGEINT math matches
    (no wrap-around emulation needed)."""
    rng = np.random.RandomState(seed)
    a = rng.randint(1, 1 << 32, size=num_perm, dtype=np.uint64)
    b = rng.randint(0, 1 << 32, size=num_perm, dtype=np.uint64)
    return a, b


_A, _B = minhash_params()


def shingle_hashes(
    text: str, n: int = SHINGLE_N, cache: dict | None = None
) -> np.ndarray:
    """Distinct word n-gram shingles → sorted md5-u64 hashes (sorted so
    the array is deterministic; jaccard/minhash are set ops anyway).

    ``cache`` (shingle → u64, typically held per batch) collapses the
    md5 cost of shingles repeated across a batch's documents."""
    ws = WORD_RE.findall(text.lower())
    if not ws:
        return np.empty(0, dtype=np.uint64)
    if len(ws) < n:
        sh = {" ".join(ws)}
    else:
        sh = {" ".join(ws[i : i + n]) for i in range(len(ws) - n + 1)}
    if cache is None:
        it = (stable_u64_md5(s.encode("utf-8")) for s in sh)
    else:
        def _h(s: str) -> int:
            v = cache.get(s)
            if v is None:
                v = stable_u64_md5(s.encode("utf-8"))
                cache[s] = v
            return v

        it = (_h(s) for s in sh)
    hv = np.fromiter(it, dtype=np.uint64, count=len(sh))
    hv.sort()
    return hv


def minhash_signature(hv: np.ndarray) -> np.ndarray:
    """32-perm signature over 32-bit-reduced shingle hashes."""
    if hv.size == 0:
        return np.full(NUM_PERM, _MERSENNE, dtype=np.uint64)
    h32 = hv % np.uint64(1 << 32)
    prods = (_A[:, None] * h32[None, :] + _B[:, None]) % np.uint64(_MERSENNE)
    return prods.min(axis=1)


def band_key(sig: np.ndarray, band: int) -> str:
    vals = sig[band * BAND_ROWS : (band + 1) * BAND_ROWS]
    return f"{band}:" + "-".join(str(int(v)) for v in vals)


# ---------------------------------------------------------------------------
# MinHash + LSH
# ---------------------------------------------------------------------------


def _dedup_pairs(df: pd.DataFrame) -> pd.DataFrame:
    return df.drop_duplicates(subset=["doc_id_a", "doc_id_b"])


def _band_rows_from_shingles(batch: pa.Table) -> pd.DataFrame:
    """(doc_id, band_key, band_bucket) band rows recomputed from a
    shingle blob table — lets an ingest pipeline scan the raw text ONCE
    (its derive pass emits the blobs), then derive signatures from the
    blobs instead of re-tokenizing."""
    doc_ids, keys = [], []
    for doc_id, blob in zip(
        batch["doc_id"].to_pylist(), batch["shingles"].to_pylist()
    ):
        sig = minhash_signature(np.frombuffer(blob, dtype=np.uint64))
        for band in range(NUM_BANDS):
            doc_ids.append(doc_id)
            keys.append(band_key(sig, band))
    return _with_band_bucket(pd.DataFrame({"doc_id": doc_ids, "band_key": keys}))


def _shingle_table(batch: pa.Table) -> pa.Table:
    """(doc_id, shingles as one binary blob) — Arrow's hash join rejects
    list<> payload columns, and a packed u64 buffer is smaller anyway."""
    ids, shs = [], []
    cache: dict = {}
    for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        ids.append(doc_id)
        shs.append(shingle_hashes(text, cache=cache).tobytes())
    return pa.table(
        {"doc_id": pa.array(ids, pa.int64()), "shingles": pa.array(shs, pa.binary())}
    )


# broadcast the candidate id set only while 2·pairs stays under this;
# beyond it the semi-join tier runs (``_semijoin_verify``)
BROADCAST_ID_LIMIT = 50_000_000

# PPJoin demotion threshold: every REPEATED shingle (df ≥ 2) sorts
# after the df=1 tail, df-ascending among themselves — classic PPJoin
# global frequency order. df=1 shingles can never collide, so their
# relative order is irrelevant and they stay in cheap hash order.
# Measured at sf0.1: candidates 81,620 → 43,367 at J ≥ 4/5 and
# 290,947 → 193,033 at J ≥ 3/5 vs pure hash order, and the hottest
# shingles (the O(df²) posting-bucket scale-killer at 100TB) always
# fall out of prefixes first.
HOT_DF_MIN = 2
# global cap on the demoted hot set: bounds the per-partition partials,
# the driver merge, and the broadcast at ~1MB regardless of corpus
# size. Overflow only costs candidate-filter QUALITY (excess hot
# shingles keep hash order), never correctness — the prefix guarantee
# holds for any consistent total order.
PPJOIN_HOT_LIMIT = 65_536


def _list_parquet(path: str) -> list[str]:
    from ..state.manifest import list_parquet_files

    return list_parquet_files(path)


def _join_parts(n_pairs: int, num_partitions: int) -> int:
    """Verify partitions: ~64k pair rows each, in [1, num_partitions]."""
    return max(1, min(num_partitions, (n_pairs + 65535) // 65536))


def _fetch_verify(
    cands,
    docs_ds_factory,
    num_partitions: int,
    broadcast_id_limit: int,
    num: int = JACCARD_NUM,
    den: int = JACCARD_DEN,
):
    """PPJoin's phase 2: fetch shingle blobs for candidate docs only,
    then exact integer Jaccard ≥ num/den. ``cands`` is the materialized,
    deduped (doc_id_a, doc_id_b) candidate stream. Two tiers on its
    pair count: broadcast routing + single-exchange verify while the
    pair list is driver-bounded (``_broadcast_verify``); the semi-join
    tier (``_semijoin_verify``) past ``broadcast_id_limit``."""
    import ray
    import ray.data as rd

    # the pair count of a materialized Dataset is block metadata; it
    # drives both the join-partition sizing and the broadcast-vs-semi-
    # join decision (distinct candidate ids ≤ 2·pairs, so the count is
    # a safe proxy without reading any column)
    n_pairs = cands.count()
    if n_pairs == 0:
        return rd.from_pandas(_PAIR_EMPTY.copy())
    join_parts = _join_parts(n_pairs, num_partitions)

    if 2 * n_pairs <= broadcast_id_limit:
        # BROADCAST path (the common case): the candidate id set —
        # bounded by pairs, orders of magnitude below corpus size — is
        # ray.put once and each shingle task filters its batch locally,
        # so only candidate docs are ever shingled or shuffled.
        cand_tbl = pa.concat_tables(ray.get(cands.to_arrow_refs()))
        return _broadcast_verify(cand_tbl, docs_ds_factory, join_parts, num, den)
    return _semijoin_verify(cands, docs_ds_factory, join_parts, num, den)


def _semijoin_verify(cands, docs_ds_factory, join_parts: int,
                     num: int = JACCARD_NUM, den: int = JACCARD_DEN):
    """The verify tier past the broadcast budget (~10^8 ids = 800MB per
    worker): the candidate filter is a distributed SEMI-join, so the
    ids never materialize in one process. The distinct ids come from a
    doc_id-keyed exchange, and the docs (text, or packed ``shingles``
    blobs, see ``_blob_table``) inner-join them BEFORE shingling, so
    only candidate docs are shingled; the price vs broadcast is one
    extra shuffle of the candidate docs. ``cands`` is a materialized,
    deduped (doc_id_a, doc_id_b, ...) pair stream."""
    from .exchange import keyed_exchange, keyed_join

    def _stack_ids(t: pa.Table) -> pa.Table:
        ids = np.concatenate(
            [
                t["doc_id_a"].to_numpy(zero_copy_only=False),
                t["doc_id_b"].to_numpy(zero_copy_only=False),
            ]
        )
        return pa.table({"doc_id": pa.array(np.unique(ids), pa.int64())})

    ids = keyed_exchange(
        cands.map_batches(_stack_ids, batch_format="pyarrow"),
        ["doc_id"],
        lambda df: df.drop_duplicates(),
        max(2, join_parts),
    )
    cand_docs = keyed_join(
        docs_ds_factory(), ids, "doc_id", "inner", num_partitions=max(2, join_parts)
    )
    sh = cand_docs.map_batches(_blob_table, batch_format="pyarrow")
    return _join_verify(cands, sh, join_parts, num, den)


def ppjoin_pairs(
    docs_ds_factory,
    num_partitions: int = 8,
    num: int = JACCARD_NUM,
    den: int = JACCARD_DEN,
    broadcast_id_limit: int = BROADCAST_ID_LIMIT,
):
    """EXACT set-similarity self-join at Jaccard ≥ num/den via PREFIX
    FILTERING (the SSJoin/PPJoin family, Chaudhuri et al. ICDE'06 /
    Xiao et al. WWW'08) — the deterministic complement to the
    probabilistic MinHash path, and the scale-correct replacement for
    the blocked all-pairs baseline (``jaccard_pairs``).

    Canonical token order = DOCUMENT-FREQUENCY ASCENDING (the PPJoin
    papers' candidate-minimizing order): df=1 shingles first in hash
    order (they can never collide, so their order is irrelevant), then
    every repeated shingle df-ascending — so the hottest shingles, the
    ones that would open O(df²) posting buckets at 100TB, fall out of
    every prefix first. Any fixed total order preserves the prefix
    guarantee — two sets with J ≥ t share a token among each one's
    first ``|d| - ceil(t·|d|) + 1`` tokens — so order only moves
    candidate volume (measured at sf0.1: 1.5-1.9× fewer candidates
    than hash order, see HOT_DF_MIN).
    The frequency pass stays bounded at any corpus size: one
    shingle-keyed exchange computes exact global df, each partition
    keeps only its df ≥ HOT_DF_MIN rows truncated to its share of
    ``PPJOIN_HOT_LIMIT``, and the driver merges those bounded partials
    into a global hot set broadcast as (sorted hashes, df-asc ranks) —
    never a vocab-scale driver stream; overflow beyond the limit
    degrades ORDER QUALITY (a few hot shingles keep hash order), never
    correctness. Shape: df pass → prefix rows (hash, doc, size) →
    hash-keyed exchange emits candidate pairs with the integer length
    filter (den·min ≥ num·max) → pair dedup → materialize → the
    two-tier candidate fetch + exact-Jaccard verify (``_fetch_verify``,
    the same broadcast and semi-join tiers as
    ``incremental_minhash_pairs``). Output schema/semantics as the
    MinHash detector: (doc_id_a, doc_id_b, n_common, n_union), a < b."""
    import ray

    from .exchange import keyed_exchange

    # -- pass 0: bounded global df table for the repeated shingles --
    def df_partial(batch: pa.Table) -> pd.DataFrame:
        c: dict = {}
        cache: dict = {}
        for text in batch["text"].to_pylist():
            for h in shingle_hashes(text, cache=cache).view(np.int64).tolist():
                c[h] = c.get(h, 0) + 1
        return pd.DataFrame(
            {"h": np.fromiter(c.keys(), np.int64, len(c)),
             "n": np.fromiter(c.values(), np.int64, len(c))}
        )

    # per-partition share of the hot budget: the driver merge then
    # receives ≤ PPJOIN_HOT_LIMIT rows TOTAL at any partition count
    # (the union of per-partition heads is a deterministic hot set —
    # not exactly the global top-F, which only affects order quality)
    per_part = max(1, PPJOIN_HOT_LIMIT // max(1, num_partitions))

    def hot_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("h", sort=False, as_index=False)["n"].sum()
        g = g[g["n"] >= HOT_DF_MIN]
        return g.sort_values(["n", "h"], ascending=[False, True]).head(per_part)

    hot = keyed_exchange(
        docs_ds_factory().map_batches(df_partial, batch_format="pyarrow"),
        ["h"], hot_partial, num_partitions,
    ).to_pandas()
    if len(hot):
        hot = hot.sort_values(["n", "h"], ascending=[False, True]).head(
            PPJOIN_HOT_LIMIT
        )
        # rank = df-ASC position (hottest shingle gets the largest
        # rank, i.e. sorts last); lookup arrays aligned on hash order
        hot = hot.sort_values(["n", "h"], ascending=[True, True]).reset_index(
            drop=True
        )
        hot["rank"] = np.arange(len(hot), dtype=np.int64)
        hot = hot.sort_values("h", ignore_index=True)
        hot_ref = ray.put(
            (hot["h"].to_numpy(np.int64), hot["rank"].to_numpy(np.int64))
        )
    else:
        hot_ref = ray.put((np.empty(0, np.int64), np.empty(0, np.int64)))

    def prefix_rows(batch: pa.Table) -> pd.DataFrame:
        from ..state.broadcast import resolve

        hot_sorted, hot_rank = resolve(hot_ref)
        hs, ids, sizes = [], [], []
        cache: dict = {}
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            hv = shingle_hashes(text, cache=cache).view(np.int64)
            n = len(hv)
            if n == 0:
                continue
            p = n - (num * n + den - 1) // den + 1  # n - ceil(t·n) + 1
            if len(hot_sorted):
                pos = np.searchsorted(hot_sorted, hv)
                pos_c = np.minimum(pos, len(hot_sorted) - 1)
                is_hot = hot_sorted[pos_c] == hv
                cold = hv[~is_hot]  # already hash-ascending
                hotv = hv[is_hot]
                ordered = np.concatenate(
                    [cold, hotv[np.argsort(hot_rank[pos_c[is_hot]],
                                           kind="stable")]]
                )
            else:
                ordered = hv
            hs.append(ordered[:p])
            ids.append(np.full(p, doc_id, dtype=np.int64))
            sizes.append(np.full(p, n, dtype=np.int64))
        if not hs:
            return pd.DataFrame(
                {"h": np.empty(0, np.int64), "doc_id": np.empty(0, np.int64),
                 "size": np.empty(0, np.int64)}
            )
        return pd.DataFrame(
            {"h": np.concatenate(hs), "doc_id": np.concatenate(ids),
             "size": np.concatenate(sizes)}
        )

    def posting_pairs(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="h")
        m = m[m["doc_id_x"] < m["doc_id_y"]]
        lo = np.minimum(m["size_x"], m["size_y"])
        hi = np.maximum(m["size_x"], m["size_y"])
        m = m[den * lo >= num * hi]  # length filter: J ≥ t ⇒ t·max ≤ min
        return pd.DataFrame(
            {"doc_id_a": m["doc_id_x"].astype("int64"),
             "doc_id_b": m["doc_id_y"].astype("int64")}
        ).drop_duplicates()

    prefixes = docs_ds_factory().map_batches(prefix_rows, batch_format="pyarrow")
    cands = keyed_exchange(
        keyed_exchange(prefixes, ["h"], posting_pairs, num_partitions),
        ["doc_id_a", "doc_id_b"],
        _dedup_pairs,
        2,
    ).materialize()
    return _fetch_verify(
        cands, docs_ds_factory, num_partitions, broadcast_id_limit,
        num=num, den=den,
    )


def _broadcast_verify(cand_tbl, docs_ds_factory, num_partitions: int,
                      num: int = JACCARD_NUM, den: int = JACCARD_DEN):
    """Broadcast-tier verify in ONE doc-scan + ONE exchange: the pair
    list is already driver-resident (it supplied the candidate-id
    broadcast), so each pair is assigned a deterministic verify
    partition, the doc→partitions routing map rides the same ``ray.put``
    broadcast, and the shingle pass emits each candidate doc's blob
    directly to every partition holding one of its pairs. The pair-keyed
    second exchange of ``_join_verify`` disappears; volume is
    |candidate shingle blobs| × (pairs-per-doc partition fan-out,
    ~1 in practice)."""
    import ray
    import ray.data as rd

    a = cand_tbl["doc_id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
    b = cand_tbl["doc_id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
    if len(a) == 0:
        return rd.from_pandas(_PAIR_EMPTY.copy())
    P = max(1, num_partitions)
    pid = ((a * np.int64(1_000_003) + b) % P).astype(np.int64)
    # doc -> sorted unique (doc, pid) routing arrays (binary-searchable)
    ids2 = np.concatenate([a, b])
    pid2 = np.concatenate([pid, pid])
    order = np.lexsort((pid2, ids2))
    ids_s, pid_s = ids2[order], pid2[order]
    keep = np.ones(len(ids_s), dtype=bool)
    keep[1:] = (ids_s[1:] != ids_s[:-1]) | (pid_s[1:] != pid_s[:-1])
    route_ref = ray.put((ids_s[keep], pid_s[keep], a, b, pid))

    def emit(batch: pa.Table) -> pd.DataFrame:
        from ..state.broadcast import resolve

        r_ids, r_pids, _a, _b, _pid = resolve(route_ref)
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        mask = np.isin(ids, r_ids)
        sh = _blob_table(batch.filter(pa.array(mask)))
        out_pid, out_doc, out_blob = [], [], []
        for doc_id, blob in zip(sh["doc_id"].to_pylist(), sh["shingles"].to_pylist()):
            lo = np.searchsorted(r_ids, doc_id, side="left")
            hi = np.searchsorted(r_ids, doc_id, side="right")
            for p in r_pids[lo:hi]:
                out_pid.append(int(p))
                out_doc.append(doc_id)
                out_blob.append(blob)
        return pd.DataFrame(
            {"pid": pd.array(out_pid, dtype="int64"),
             "doc_id": pd.array(out_doc, dtype="int64"),
             "blob": out_blob}
        )

    def verify_part(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import resolve

        _r_ids, _r_pids, a_, b_, pid_ = resolve(route_ref)
        # blobs decode once per (pid, doc) — a doc in many pairs reuses
        # its sorted-u64 array; intersections run as C-level merges on
        # the already-sorted shingle arrays, not Python set ops
        blobs = {
            (int(p), int(d)): np.frombuffer(bl, dtype=np.uint64)
            for p, d, bl in zip(df["pid"], df["doc_id"], df["blob"])
        }
        here = np.isin(pid_, df["pid"].unique())
        out = []
        for pa_, pb_, pp_ in zip(a_[here], b_[here], pid_[here]):
            xa = blobs.get((int(pp_), int(pa_)))
            xb = blobs.get((int(pp_), int(pb_)))
            if xa is None or xb is None:
                continue
            inter = np.intersect1d(xa, xb, assume_unique=True).size
            union = xa.size + xb.size - inter
            if union and den * inter >= num * union:
                out.append((pa_, pb_, inter, union))
        if not out:
            return _PAIR_EMPTY.copy()
        return pd.DataFrame(
            out, columns=["doc_id_a", "doc_id_b", "n_common", "n_union"]
        ).astype("int64")

    from .exchange import keyed_exchange

    rows = docs_ds_factory().map_batches(emit, batch_format="pyarrow")
    return keyed_exchange(rows, ["pid"], verify_part, P)


_PAIR_EMPTY = pd.DataFrame(
    {
        "doc_id_a": pd.Series(dtype="int64"),
        "doc_id_b": pd.Series(dtype="int64"),
        "n_common": pd.Series(dtype="int64"),
        "n_union": pd.Series(dtype="int64"),
    }
)


def _join_verify(cands, sh, num_partitions: int,
                 num: int = JACCARD_NUM, den: int = JACCARD_DEN):
    """Attach packed shingle blobs to candidate pairs and keep pairs
    passing the exact integer Jaccard ≥ num/den.

    Shape: an inner ``keyed_join`` and one ``keyed_exchange``. Each pair
    row is stacked once per endpoint (side 0 = a-endpoint copy, side 1 =
    b-endpoint copy, keyed ``k`` by that endpoint's doc id) and joined
    to the (doc_id, shingles) stream, so every half-pair carries one
    endpoint's blob; the pair-keyed exchange then zips the two halves
    and verifies. Shuffle volume: 2·|pairs| skinny rows + |candidate
    shingles| once, then |pairs| rows carrying two blobs."""
    from .exchange import keyed_exchange, keyed_join

    parts = max(2, num_partitions)

    def tag_pairs(t: pa.Table) -> pa.Table:
        a = t["doc_id_a"].to_numpy(zero_copy_only=False).astype(np.int64)
        b = t["doc_id_b"].to_numpy(zero_copy_only=False).astype(np.int64)
        return pa.table(
            {
                "k": np.concatenate([a, b]),
                "doc_id_a": np.concatenate([a, a]),
                "doc_id_b": np.concatenate([b, b]),
                "side": np.concatenate(
                    [np.zeros(len(a), np.int64), np.ones(len(b), np.int64)]
                ),
            }
        )

    def zip_verify(df: pd.DataFrame) -> pd.DataFrame:
        a_side = df[df["side"] == 0]
        b_side = df[df["side"] == 1]
        # one row per pair, even if a doc's blob arrived twice (a doc id
        # in both the index store and the batch)
        m = a_side.merge(
            b_side, on=["doc_id_a", "doc_id_b"], suffixes=("_a", "_b")
        ).drop_duplicates(["doc_id_a", "doc_id_b"])
        out = []
        dec: dict = {}

        def arr(bl):
            v = dec.get(id(bl))
            if v is None:
                v = np.frombuffer(bl, dtype=np.uint64)
                dec[id(bl)] = v
            return v

        for a, b, sa, sb in zip(
            m["doc_id_a"], m["doc_id_b"], m["shingles_a"], m["shingles_b"]
        ):
            xa = arr(sa)
            xb = arr(sb)
            inter = np.intersect1d(xa, xb, assume_unique=True).size
            union = xa.size + xb.size - inter
            if union and den * inter >= num * union:
                out.append((a, b, inter, union))
        if not out:
            return _PAIR_EMPTY.copy()
        return pd.DataFrame(
            out, columns=["doc_id_a", "doc_id_b", "n_common", "n_union"]
        ).astype("int64")

    halves = keyed_join(
        cands.map_batches(tag_pairs, batch_format="pyarrow"), sh, "k", "inner",
        right_on="doc_id", num_partitions=parts,
    )
    return keyed_exchange(halves, ["doc_id_a", "doc_id_b"], zip_verify, parts)


# ---------------------------------------------------------------------------
# SimHash
# ---------------------------------------------------------------------------


def _simhash_rows(batch: pa.Table) -> pd.DataFrame:
    doc_ids, chunk_keys, hashes = [], [], []
    cache: dict = {}
    for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
        ws = WORD_RE.findall(text.lower())
        if not ws:  # wordless docs carry no signal (SQL oracle drops them too)
            continue
        h = simhash64_md5(ws, cache=cache)
        for c in range(SIMHASH_CHUNKS):
            chunk = (h >> (16 * c)) & 0xFFFF
            doc_ids.append(doc_id)
            chunk_keys.append(f"{c}:{chunk}")
            hashes.append(np.uint64(h).astype(np.int64))  # int64 bit view for Arrow
    return pd.DataFrame(
        {"doc_id": doc_ids, "chunk_key": chunk_keys, "simhash": hashes}
    ).astype({"simhash": "int64"})


def _verify_simhash_buckets(df: pd.DataFrame) -> pd.DataFrame:
    out = []
    for _, g in df.groupby("chunk_key", sort=False):
        if len(g) < 2:
            continue
        g = g.sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        hs = g["simhash"].to_numpy(dtype=np.int64).view(np.uint64)
        for i in range(len(ids)):
            x = hs[i] ^ hs[i + 1 :]
            # vectorized popcount (numpy<2 has no bitwise_count)
            ham = np.unpackbits(x.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
            for off in np.nonzero(ham <= SIMHASH_MAX_HAMMING)[0]:
                j = i + 1 + off
                if ids[i] != ids[j]:
                    out.append((ids[i], ids[j], int(ham[off])))
    return pd.DataFrame(out, columns=["doc_id_a", "doc_id_b", "hamming"]).astype(
        {"doc_id_a": "int64", "doc_id_b": "int64", "hamming": "int64"}
    )


def simhash_pairs(docs_ds_factory, num_partitions: int = 8):
    """documents → (doc_id_a, doc_id_b, hamming ≤ 3) near-dup pairs.
    ``docs_ds_factory`` is a zero-arg callable building the documents
    Dataset, as for every detector here."""
    from .exchange import keyed_exchange

    rows = docs_ds_factory().map_batches(_simhash_rows, batch_format="pyarrow")
    cands = keyed_exchange(
        rows, ["chunk_key"], _verify_simhash_buckets, num_partitions
    )
    return keyed_exchange(
        cands,
        ["doc_id_a", "doc_id_b"],
        lambda df: df.drop_duplicates(subset=["doc_id_a", "doc_id_b"]),
        2,
    )


# ---------------------------------------------------------------------------
# Blocked exact n-gram Jaccard
# ---------------------------------------------------------------------------

JACCARD_BLOCK_NUM, JACCARD_BLOCK_DEN = 3, 5  # J >= 0.6 within blocks


def _block_jaccard(g: pd.DataFrame) -> pd.DataFrame:
    g = g.sort_values("doc_id")
    ids = g["doc_id"].to_numpy()
    cache: dict = {}
    sets = [set(shingle_hashes(t, cache=cache)) for t in g["text"]]
    out = []
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            inter = len(sets[i] & sets[j])
            if not inter:
                continue
            union = len(sets[i]) + len(sets[j]) - inter
            if JACCARD_BLOCK_DEN * inter >= JACCARD_BLOCK_NUM * union:
                out.append((ids[i], ids[j], inter, union))
    return pd.DataFrame(
        out, columns=["doc_id_a", "doc_id_b", "n_common", "n_union"]
    ).astype({"doc_id_a": "int64", "doc_id_b": "int64", "n_common": "int64", "n_union": "int64"})


def jaccard_pairs(docs_ds):
    """Exact all-pairs n-gram Jaccard within each ``source`` block —
    groupby(source).map_groups; block count is small, blocks are fat,
    so the per-group path is fine here (unlike the LSH bucket keys)."""
    return docs_ds.groupby("source").map_groups(
        _block_jaccard, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Near-dup cluster canonicalization (pairs -> connected components)
# ---------------------------------------------------------------------------

# Doc ids ride the string-typed bipartite components machinery as
# zero-padded fixed-width strings (string min == int min at fixed
# width); each near-dup pair contributes one bipartite "alias" node.
_CLUSTER_PAD = 12


def pairs_components(
    pairs_ds, col_a: str, col_b: str, rounds: int = 8, num_partitions: int = 8
):
    """Generic near-dup pair graph → (node_id, cluster_rep =
    component-min id) via ``connected_components_ds`` (keyed-exchange
    min-label propagation; adaptive driver path when the pair graph is
    broadcast-small). Shared by the MinHash and embedding-cosine
    cluster paths — any (int64 a, int64 b) pair Dataset works."""
    from .canonicalize import connected_components_ds

    def to_bipartite(df: pd.DataFrame) -> pd.DataFrame:
        a = df[col_a].astype("int64")
        b = df[col_b].astype("int64")
        key = "p" + a.astype(str) + ":" + b.astype(str)
        return pd.DataFrame(
            {
                "cui": pd.concat(
                    [a.astype(str).str.zfill(_CLUSTER_PAD),
                     b.astype(str).str.zfill(_CLUSTER_PAD)],
                    ignore_index=True,
                ),
                "alias_key": pd.concat([key, key], ignore_index=True),
            }
        )

    bip = pairs_ds.map_batches(to_bipartite, batch_format="pandas")
    comp = connected_components_ds(bip, rounds=rounds, num_partitions=num_partitions)

    def decode(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "node_id": df["cui"].astype("int64"),
                "cluster_rep": df["label"].astype("int64"),
            }
        )

    return comp.map_batches(decode, batch_format="pandas")


def minhash_clusters(docs_ds_factory, rounds: int = 8, num_partitions: int = 8):
    """documents → (doc_id, cluster_rep) for every doc in a near-dup
    cluster, cluster_rep = component-min doc_id."""
    pairs = incremental_minhash_pairs(docs_ds_factory, None, num_partitions)
    comp = pairs_components(
        pairs, "doc_id_a", "doc_id_b", rounds=rounds, num_partitions=num_partitions
    )
    return comp.map_batches(
        lambda df: df.rename(columns={"node_id": "doc_id"}), batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Incremental dedup against a persisted LSH index (ingest-time shape)
# ---------------------------------------------------------------------------

# Band rows in the persisted index are hive-partitioned by a stable hash
# bucket of the band key, so an ingest batch only READS the buckets its
# own band keys touch — the corpus index is never re-shuffled per ingest.
INDEX_BAND_BUCKETS = 32
# stamp written at index build, checked at ingest: a layout change (like
# the v1→v2 bucket-hash switch below) must invalidate persisted indexes
# rather than silently read the wrong buckets
INDEX_LAYOUT_VERSION = "lsh-index-v2-md5buckets"


def _with_band_bucket(df: pd.DataFrame) -> pd.DataFrame:
    # band_bucket must be ENVIRONMENT-INDEPENDENT: the index is a
    # persisted artifact ingested by later runs, so the bucket hash has
    # to be the repo's stable_u64_md5 standard — pd.util.hash_pandas_object
    # (used for in-run exchange pids only) varies with pandas
    # version/hash key and would silently probe the wrong buckets.
    h = np.fromiter(
        (stable_u64_md5(k.encode("utf-8")) for k in df["band_key"]),
        dtype=np.uint64,
        count=len(df),
    )
    return df.assign(
        band_bucket=(h % np.uint64(INDEX_BAND_BUCKETS)).astype("int64")
    )


def build_minhash_index(docs_ds_factory, index_dir: str) -> dict:
    """Persist the corpus LSH index for incremental ingest-time dedup.

    Two artifacts, laid out for the INGEST-TIME read pattern:
    - ``bands/``    — (doc_id, band_key) hive-partitioned by
      ``band_bucket = stable_hash(band_key) % INDEX_BAND_BUCKETS``, with
      one band-bucket exchange before the write so each bucket is ONE
      contiguous file (a naive partitioned write of B blocks × K buckets
      sprays B·K tiny files — measured 2048 files at sf0.1, and every
      ingest paid the per-file open cost to read its touched buckets);
    - ``shingles/`` — (doc_id, packed u64 shingle blob) for exact
      candidate verification, SORTED by doc_id into a few files so the
      pushed-down ``doc_id`` row filter prunes whole files/row-groups
      at 100TB.

    Index build costs one corpus scan (each document is shingled once:
    the materialized blobs feed both the band rows and the shingle
    store) + one band exchange + one shingle sort — a one-off; every
    subsequent ingest reads only touched
    buckets and candidate row groups. Extends the batch dedup family
    (reference exact-dedup shape, SURVEY.md §2.7) with the corpus-
    maintenance story a training-data pipeline needs: new crawl slices
    are deduped against the standing corpus without re-processing it."""
    import os

    from .exchange import keyed_exchange

    bands_dir = os.path.join(index_dir, "bands")
    sh_dir = os.path.join(index_dir, "shingles")
    os.makedirs(bands_dir, exist_ok=True)
    os.makedirs(sh_dir, exist_ok=True)
    sh = docs_ds_factory().map_batches(_shingle_table, batch_format="pyarrow")
    sh = sh.materialize()
    band_rows = sh.map_batches(_band_rows_from_shingles, batch_format="pyarrow")
    (
        # co-locate each band_bucket in one partition (pid is a pure
        # function of the bucket) -> exactly one file per bucket
        keyed_exchange(band_rows, ["band_bucket"], lambda df: df,
                       INDEX_BAND_BUCKETS)
        # strip pandas schema metadata: Ray Data cannot hash a schema
        # that carries it and logs a warning for every read of the files
        .map_batches(lambda t: t.replace_schema_metadata(None), batch_format="pyarrow")
        .write_parquet(bands_dir, partition_cols=["band_bucket"])
    )
    sh.sort("doc_id").repartition(8).write_parquet(sh_dir)
    with open(os.path.join(index_dir, "_LAYOUT_VERSION"), "w") as f:
        f.write(INDEX_LAYOUT_VERSION)
    return {"bands": bands_dir, "shingles": sh_dir}


def check_index_layout(index: dict) -> None:
    """Refuse to ingest against an index written under a different
    bucket-layout version — a mismatched bucket hash would silently
    probe the wrong hive buckets and DROP duplicate pairs."""
    import os

    vpath = os.path.join(os.path.dirname(index["bands"]), "_LAYOUT_VERSION")
    try:
        with open(vpath) as f:
            ver = f.read().strip()
    except OSError:
        ver = "<missing>"
    if ver != INDEX_LAYOUT_VERSION:
        raise ValueError(
            f"LSH index layout {ver!r} != engine {INDEX_LAYOUT_VERSION!r}; "
            "rebuild the index (build_minhash_index)"
        )


def _flagged_bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
    """Candidate pairs within each band bucket where at least one side
    is from the ingest batch (old–old pairs were settled when the index
    was built). Flags ride along so phase 2 knows which side's shingles
    live in the index store vs the ingest batch.

    One vectorized self-merge on ``band_key``: a doc's first row per key
    keeps its flag, keys with fewer than two docs go, and each pair is
    kept once (``doc_id_a < doc_id_b``) when a side is new."""
    d = df[["band_key", "doc_id", "is_new"]].drop_duplicates(
        ["band_key", "doc_id"], keep="first"
    )
    d = d[d.groupby("band_key")["doc_id"].transform("size") >= 2]
    m = d.merge(d, on="band_key", suffixes=("_a", "_b"))
    m = m[
        (m["doc_id_a"] < m["doc_id_b"])
        & ((m["is_new_a"] != 0) | (m["is_new_b"] != 0))
    ]
    return pd.DataFrame(
        {
            "doc_id_a": m["doc_id_a"].to_numpy(),
            "doc_id_b": m["doc_id_b"].to_numpy(),
            "new_a": m["is_new_a"].to_numpy(),
            "new_b": m["is_new_b"].to_numpy(),
        }
    ).astype("int64")


def _blob_table(batch: pa.Table) -> pa.Table:
    """(doc_id, shingles blob) of a docs batch: the batch's own
    ``shingles`` column when it carries one, else ``_shingle_table``."""
    if "shingles" in batch.column_names:
        return batch.select(["doc_id", "shingles"])
    return _shingle_table(batch)


def _flag(is_new: int):
    """Band rows → (doc_id, band_key, is_new) rows for
    ``_flagged_bucket_pairs``."""
    def add(t: pa.Table) -> pa.Table:
        return t.select(["doc_id", "band_key"]).append_column(
            "is_new", pa.array(np.full(t.num_rows, is_new, np.int64))
        )

    return add


def _materialized(ds):
    """``ds`` as a MaterializedDataset: an in-process exchange result
    already is one (``rd.from_blocks``), a shuffle result is not."""
    from ray.data.dataset import MaterializedDataset

    return ds if isinstance(ds, MaterializedDataset) else ds.materialize()


def incremental_minhash_pairs(
    new_docs_factory,
    index: dict | None,
    num_partitions: int = 8,
    broadcast_id_limit: int = BROADCAST_ID_LIMIT,
):
    """MinHash+LSH near-dup pairs (doc_id_a, doc_id_b, n_common,
    n_union), exact J ≥ 4/5, a < b — the engine's one MinHash pair
    detector.

    With ``index=None`` the docs are the whole corpus (or a store's
    first batch) and every verified pair among them is returned. With a
    persisted corpus index built by ``build_minhash_index``, the docs
    are an ingest batch deduped against the index without re-shuffling
    the corpus: only pairs with ≥1 batch doc (new–new and new–old;
    old–old were settled at index build time).

    Docs are (doc_id, text) rows; a ``shingles`` column (the packed
    blob of ``_shingle_table``) is used as is instead of re-shingling.

    Shape (N = batch docs, C = LSH candidate rows):
    - the batch's blobs and band rows are materialized in the object
      store once; the driver learns only the ≤``INDEX_BAND_BUCKETS``
      touched bucket ids (a bounded aggregate, not O(N));
    - index band rows are read ONLY from touched hive buckets, flagged,
      unioned with the batch's band rows, and exchanged on band_key
      (a vectorized self-merge per partition, ``_flagged_bucket_pairs``)
      — shuffle volume is O(N·bands + touched index band rows), never
      the corpus text; the C candidate rows are materialized and their
      count (block metadata) picks the verify tier:
    - 2·C ≤ ``broadcast_id_limit``: the candidates come back to the
      driver and are deduped there (ints only, no payloads); old-side
      blobs are read by a pushed-down ``doc_id IN (...)`` parquet
      filter on the index store, new-side blobs come from the
      materialized batch, and ``_broadcast_verify`` routes each blob to
      the partitions of its pairs and checks exact Jaccard in one
      exchange;
    - above it: the candidates are deduped by a pair-keyed exchange and
      verified by the semi-join tier (``_semijoin_verify``) over the
      blob source (index shingle store ∪ batch blobs), so no id set
      reaches the driver."""
    import os

    import pyarrow.dataset as pads
    import ray.data as rd

    from .exchange import keyed_exchange, read_files

    if index is not None:
        check_index_layout(index)

    new_sh = new_docs_factory().map_batches(_blob_table, batch_format="pyarrow")
    new_sh = new_sh.materialize()
    new_bands = new_sh.map_batches(
        _band_rows_from_shingles, batch_format="pyarrow"
    ).materialize()
    if new_bands.count() == 0:  # empty ingest batch
        return rd.from_pandas(_PAIR_EMPTY.copy())

    # touched buckets: bounded by INDEX_BAND_BUCKETS regardless of batch
    # size. read_parquet takes a LIST of files (dirs only as a single
    # path) — enumerate the touched buckets' files explicitly.
    idx_paths = []
    if index is not None:
        for b in sorted(set(_column(new_bands, "band_bucket").tolist())):
            d = os.path.join(index["bands"], f"band_bucket={b}")
            if os.path.isdir(d):
                idx_paths.extend(
                    os.path.join(d, f) for f in sorted(os.listdir(d))
                    if f.endswith(".parquet")
                )

    # phase 1: flagged band-key exchange over (pruned index ∪ batch)
    # -> candidate pairs with >=1 new side
    bands = new_bands.map_batches(_flag(1), batch_format="pyarrow")
    if idx_paths:
        bands = read_files(
            idx_paths, columns=["doc_id", "band_key"]
        ).map_batches(_flag(0), batch_format="pyarrow").union(bands)
    cands = _materialized(
        keyed_exchange(bands, ["band_key"], _flagged_bucket_pairs, num_partitions)
    )
    n_cands = cands.count()
    if n_cands == 0:  # no LSH candidates at all
        return rd.from_pandas(_PAIR_EMPTY.copy())

    if 2 * n_cands > broadcast_id_limit:
        blobs = new_sh
        if index is not None:
            blobs = read_files(_list_parquet(index["shingles"])).union(new_sh)
        pairs = _materialized(
            keyed_exchange(cands, ["doc_id_a", "doc_id_b"], _dedup_pairs,
                           num_partitions)
        )
        return _semijoin_verify(
            pairs, lambda: blobs, _join_parts(n_cands, num_partitions)
        )

    # phase 2: candidates deduped in the driver; old-side blobs by
    # pushed-down id filter, new-side blobs from the materialized batch
    cands = cands.to_pandas().drop_duplicates(
        ["doc_id_a", "doc_id_b"], ignore_index=True
    )
    old_ids = np.unique(
        np.concatenate(
            [
                cands.loc[cands["new_a"] == 0, "doc_id_a"].to_numpy(),
                cands.loc[cands["new_b"] == 0, "doc_id_b"].to_numpy(),
            ]
        )
    )
    sh = new_sh
    if len(old_ids):
        sh = read_files(
            _list_parquet(index["shingles"]),
            filter=pads.field("doc_id").isin(old_ids.tolist()),
        ).union(new_sh)
    cand_tbl = pa.Table.from_pandas(
        cands[["doc_id_a", "doc_id_b"]], preserve_index=False
    )
    return _broadcast_verify(cand_tbl, lambda: sh, num_partitions)


def _column(ds, name: str) -> np.ndarray:
    """One column of a MATERIALIZED Dataset, read from its blocks in
    the object store (no plan runs)."""
    import ray
    from ray.data.block import BlockAccessor

    refs = [r for b in ds.iter_internal_ref_bundles() for r in b.block_refs]
    blocks = [BlockAccessor.for_block(b) for b in ray.get(refs)]
    # an empty block may carry no columns at all
    cols = [b.to_arrow().column(name).to_numpy() for b in blocks if b.num_rows()]
    return np.concatenate(cols) if cols else np.empty(0, np.int64)
