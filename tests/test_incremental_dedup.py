"""The MinHash pair detector (stages/dedup.incremental_minhash_pairs),
with and without a persisted index (stages/dedup.build_minhash_index):
equality with a brute-force LSH reference on every verify tier and
exchange path, bucket pruning of the index read, and empty-result
schemas."""

import os

import pandas as pd
import pytest
import ray.data as rd

from biomedical_ner_ray.stages import exchange
from biomedical_ner_ray.stages.dedup import (
    INDEX_BAND_BUCKETS,
    JACCARD_DEN,
    JACCARD_NUM,
    NUM_BANDS,
    band_key,
    build_minhash_index,
    incremental_minhash_pairs,
    minhash_signature,
    shingle_hashes,
)

PAIR_COLS = ["doc_id_a", "doc_id_b", "n_common", "n_union"]

_BASE = (
    "transcription factors bind regulatory elements controlling gene "
    "expression in lymphocyte development and differentiation pathways"
)
_ALT = (
    "protein kinases phosphorylate serine threonine residues modulating "
    "signal transduction cascades in epithelial tissue homeostasis"
)

# old corpus: two planted near-dup clusters + noise; new batch: one doc
# duplicating cluster A (old–new pair), two exact dups of each other
# (new–new pair), one unrelated.
_OLD = [
    {"doc_id": 0, "text": _BASE},
    {"doc_id": 1, "text": _BASE},  # old–old dup: must NOT re-emit
    {"doc_id": 2, "text": _ALT},
    {"doc_id": 3, "text": "completely different content about weather patterns"},
]
_NEW = [
    {"doc_id": 10, "text": _BASE.replace("pathways", "pathway")},  # ~dup of 0/1
    {"doc_id": 11, "text": _ALT},  # exact dup of 2
    {"doc_id": 12, "text": "unrelated ingest noise about orbital mechanics"},
    {"doc_id": 13, "text": "unrelated ingest noise about orbital mechanics"},  # dup of 12
]
# an LSH candidate that fails the verify: two 30-word docs, 4 words
# swapped, Jaccard 17/39 and one shared band key
_WORDS30 = [f"tok0x{i}" for i in range(30)]
_MISS = [
    {"doc_id": 30, "text": " ".join(_WORDS30)},
    {
        "doc_id": 31,
        "text": " ".join(
            f"alt0x{i}" if i in (2, 10, 13, 28) else w for i, w in enumerate(_WORDS30)
        ),
    },
]


def _index(tmp_path):
    return build_minhash_index(
        lambda: rd.from_pandas(pd.DataFrame(_OLD)), str(tmp_path / "idx")
    )


def _sorted(df):
    return df[PAIR_COLS].sort_values(PAIR_COLS).reset_index(drop=True)


def _band_keys(text: str) -> set:
    sig = minhash_signature(shingle_hashes(text))
    return {band_key(sig, b) for b in range(NUM_BANDS)}


def _reference_pairs(rows, new_ids=None) -> pd.DataFrame:
    """Brute-force LSH: every pair of docs sharing a band key, kept at
    exact shingle Jaccard ≥ 4/5; with ``new_ids``, only the pairs with
    a doc among them."""
    text = {r["doc_id"]: r["text"] for r in rows}
    keys = {d: _band_keys(t) for d, t in text.items()}
    sets = {d: set(shingle_hashes(t).tolist()) for d, t in text.items()}
    ids = sorted(text)
    out = []
    for i, a in enumerate(ids):
        for b in ids[i + 1:]:
            if new_ids is not None and a not in new_ids and b not in new_ids:
                continue
            if not keys[a] & keys[b]:
                continue
            nc = len(sets[a] & sets[b])
            nu = len(sets[a]) + len(sets[b]) - nc
            if nu and JACCARD_DEN * nc >= JACCARD_NUM * nu:
                out.append((a, b, nc, nu))
    return pd.DataFrame(out, columns=PAIR_COLS).astype("int64")


@pytest.fixture(scope="module")
def shared_index(tmp_path_factory):
    return _index(tmp_path_factory.mktemp("shared"))


@pytest.mark.parametrize("path", ["inproc", "shuffle"])
@pytest.mark.parametrize("limit", ["broadcast", "semijoin"])
@pytest.mark.parametrize("docs", ["text", "blobs"])
@pytest.mark.parametrize("indexed", ["noindex", "index"])
def test_minhash_pairs_equal_reference(
    ray_session, shared_index, monkeypatch, indexed, docs, limit, path
):
    """Every route through the detector returns the brute-force
    reference's rows: no index (all pairs of the docs) and with an index
    (old docs indexed, pairs with ≥1 new doc); docs with text only or
    with their packed ``shingles`` blobs; the broadcast verify and the
    semi-join tier (``broadcast_id_limit=0``); the in-process and the
    shuffle exchange."""
    monkeypatch.setattr(
        exchange, "BYTES_PER_PARTITION", (1 << 40) if path == "inproc" else -1
    )
    rows = _NEW + _MISS if indexed == "index" else _OLD + _NEW + _MISS
    batch = pd.DataFrame(rows)
    if docs == "blobs":
        batch = batch.assign(
            shingles=[shingle_hashes(t).tobytes() for t in batch["text"]]
        )
    kwargs = {"broadcast_id_limit": 0} if limit == "semijoin" else {}
    out = incremental_minhash_pairs(
        lambda: rd.from_pandas(batch),
        shared_index if indexed == "index" else None,
        num_partitions=2,
        **kwargs,
    ).materialize()
    assert out.schema().names == PAIR_COLS
    got = out.to_pandas()
    if indexed == "index":
        want = _reference_pairs(_OLD + _NEW + _MISS, {r["doc_id"] for r in rows})
    else:
        want = _reference_pairs(rows)
    pd.testing.assert_frame_equal(_sorted(got), _sorted(want), check_dtype=False)

    found = {(a, b) for a, b in zip(got["doc_id_a"], got["doc_id_b"])}
    assert (2, 11) in found  # old–new exact dup
    assert (12, 13) in found  # new–new exact dup
    assert (30, 31) not in found  # a candidate the verify drops
    # old–old: settled at index build, found when the batch is the corpus
    assert ((0, 1) in found) == (indexed == "noindex")


@pytest.mark.parametrize("with_blobs", [False, True])
def test_bootstrap_without_index_equals_minhash_pairs_join(
    ray_session, monkeypatch, with_blobs
):
    """A store's first batch (no index) gets exactly the pairs the
    detector's join variant (every keyed exchange a shuffle join, text
    only) finds in the batch, whether the docs carry their packed
    shingle blobs or only text."""
    docs = pd.DataFrame(_OLD + _NEW)
    with_sh = docs.assign(
        shingles=[shingle_hashes(t).tobytes() for t in docs["text"]]
    )
    monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", 1 << 40)
    boot = incremental_minhash_pairs(
        lambda: rd.from_pandas(with_sh if with_blobs else docs),
        None,
        num_partitions=2,
    ).to_pandas()
    monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", -1)
    join = incremental_minhash_pairs(
        lambda: rd.from_pandas(docs), None, num_partitions=2
    ).to_pandas()
    assert len(join) >= 3  # (0, 1), (2, 11) and (12, 13) at least
    pd.testing.assert_frame_equal(_sorted(boot), _sorted(join))


def test_index_layout_and_bucket_pruning(ray_session, tmp_path):
    idx = _index(tmp_path)
    buckets = [
        d for d in os.listdir(idx["bands"]) if d.startswith("band_bucket=")
    ]
    assert buckets and len(buckets) <= INDEX_BAND_BUCKETS
    # every band row of 4 docs × 8 bands landed in some hive bucket
    import pyarrow.parquet as pq

    n = pq.read_table(idx["bands"]).num_rows
    assert n == 4 * 8
    # shingle store carries one packed blob per old doc
    assert pq.read_table(idx["shingles"]).num_rows == 4


def test_empty_ingest_batch(ray_session, tmp_path, monkeypatch):
    """A result without pairs keeps the pair schema: for an empty batch,
    and for candidates that all fail the verify (the exchange's empty
    combine outputs), on both exchange paths."""
    a, b = (r["text"] for r in _MISS)
    assert len(_band_keys(a) & _band_keys(b)) == 1  # one LSH candidate
    assert _reference_pairs(_MISS).empty  # that fails the verify
    idx = _index(tmp_path)
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "text": pd.Series([], dtype="object")})
    for threshold in (1 << 40, -1):
        monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", threshold)
        for batch in (empty, pd.DataFrame(_MISS)):
            out = incremental_minhash_pairs(
                lambda: rd.from_pandas(batch), idx, num_partitions=2
            ).materialize()
            # ds.to_pandas() drops columns for empty datasets (Ray quirk);
            # the dataset-level schema is the contract.
            assert out.schema() is not None
            assert out.schema().names == PAIR_COLS
            assert out.count() == 0


def test_disjoint_ingest_no_candidates(ray_session, tmp_path):
    idx = _index(tmp_path)
    out = incremental_minhash_pairs(
        lambda: rd.from_pandas(
            pd.DataFrame([{"doc_id": 20, "text": "nothing shared with corpus"}])
        ),
        idx,
        num_partitions=2,
    ).to_pandas()
    assert len(out) == 0


def _flagged_pairs_loop(df: pd.DataFrame) -> pd.DataFrame:
    """The per-band-key loop ``_flagged_bucket_pairs`` replaced, kept
    as its reference."""
    out = []
    for _, g in df.groupby("band_key", sort=False):
        if len(g) < 2:
            continue
        g = g.drop_duplicates(subset=["doc_id"]).sort_values("doc_id")
        ids = g["doc_id"].to_numpy()
        new = g["is_new"].to_numpy()
        for i in range(len(ids)):
            for j in range(i + 1, len(ids)):
                if new[i] or new[j]:
                    out.append((ids[i], ids[j], new[i], new[j]))
    return pd.DataFrame(
        out, columns=["doc_id_a", "doc_id_b", "new_a", "new_b"]
    ).astype("int64")


def _band_frame(seed: int) -> pd.DataFrame:
    """Random band rows plus planted shapes: a singleton bucket, a doc
    repeated within a bucket, one doc id carrying both ``is_new``
    values, and an all-old bucket; rows shuffled."""
    import numpy as np

    rng = np.random.RandomState(seed)
    n = int(rng.randint(1, 60))
    rand = pd.DataFrame(
        {
            "band_key": [f"k{k}" for k in rng.randint(0, max(1, n // 3), n)],
            "doc_id": rng.randint(0, max(2, n // 2), n).astype("int64"),
            "is_new": rng.randint(0, 2, n).astype("int64"),
        }
    )
    planted = pd.DataFrame(
        [
            ("single", 900, 1),
            ("rep", 901, 1), ("rep", 901, 0), ("rep", 902, 0),
            ("old", 903, 0), ("old", 904, 0), ("old", 903, 0),
            ("both", 905, 0), ("both", 906, 1), ("both2", 905, 1),
            ("both2", 907, 0),
        ],
        columns=["band_key", "doc_id", "is_new"],
    ).astype({"doc_id": "int64", "is_new": "int64"})
    df = pd.concat([rand, planted], ignore_index=True)
    return df.sample(frac=1.0, random_state=seed).reset_index(drop=True)


def _row_multiset(df: pd.DataFrame) -> list:
    return sorted(map(tuple, df[["doc_id_a", "doc_id_b", "new_a", "new_b"]].values.tolist()))


@pytest.mark.parametrize("seed", range(40))
def test_flagged_bucket_pairs_equals_loop(seed):
    from biomedical_ner_ray.stages.dedup import _flagged_bucket_pairs

    df = _band_frame(seed)
    got, want = _flagged_bucket_pairs(df), _flagged_pairs_loop(df)
    assert list(got.columns) == list(want.columns)
    assert (got.dtypes == "int64").all()
    assert _row_multiset(got) == _row_multiset(want)
    # the planted shapes: "rep" pairs 901 with the old 902 only when
    # 901's first row there is new; nothing from the all-old bucket or
    # the singleton
    rep = df[(df["band_key"] == "rep") & (df["doc_id"] == 901)]
    pairs = set(zip(got["doc_id_a"], got["doc_id_b"]))
    assert ((901, 902) in pairs) == bool(rep["is_new"].iloc[0])
    assert not ((got["doc_id_a"] == 903) & (got["doc_id_b"] == 904)).any()
    assert not (got[["doc_id_a", "doc_id_b"]] == 900).any().any()


def test_flagged_bucket_pairs_empty_frame():
    from biomedical_ner_ray.stages.dedup import _flagged_bucket_pairs

    empty = pd.DataFrame(
        {
            "band_key": pd.Series([], dtype="object"),
            "doc_id": pd.Series([], dtype="int64"),
            "is_new": pd.Series([], dtype="int64"),
        }
    )
    got, want = _flagged_bucket_pairs(empty), _flagged_pairs_loop(empty)
    assert len(got) == len(want) == 0
    assert list(got.columns) == list(want.columns)


def test_query_index_rebuilds_on_rewrite(ray_session, tmp_path):
    """``doc_dedup_incremental``'s cached index is fingerprinted on
    documents.parquet's path, size and mtime: a same-size rewrite (a new
    mtime) rebuilds it, an untouched file reuses it."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from biomedical_ner_ray import queries as Q
    from biomedical_ner_ray.state import manifest as mf

    sf = tmp_path / "sf_rewrite"
    sf.mkdir()
    doc_path = str(sf / "documents.parquet")
    pq.write_table(pa.Table.from_pylist(_OLD + _NEW), doc_path)
    out = os.path.dirname(Q._ensure_minhash_index(str(sf))["bands"])
    first = mf.read_manifest(out)
    assert mf.read_manifest(os.path.dirname(
        Q._ensure_minhash_index(str(sf))["bands"]
    )) == first
    st = os.stat(doc_path)
    os.utime(doc_path, ns=(st.st_atime_ns, st.st_mtime_ns + 10**9))
    assert os.path.getsize(doc_path) == st.st_size
    Q._ensure_minhash_index(str(sf))
    second = mf.read_manifest(out)
    assert second["fingerprint"] != first["fingerprint"]
    assert second["completed_at"] > first["completed_at"]
