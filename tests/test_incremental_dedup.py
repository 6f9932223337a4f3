"""Incremental (ingest-time) MinHash dedup against a persisted index
(stages/dedup.build_minhash_index / incremental_minhash_pairs):
equivalence with the batch path restricted to ≥1-new pairs, bucket
pruning of the index read, and empty-ingest behavior."""

import os

import pandas as pd
import pytest
import ray.data as rd

from biomedical_ner_ray.stages.dedup import (
    INDEX_BAND_BUCKETS,
    build_minhash_index,
    incremental_minhash_pairs,
    minhash_pairs,
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


def _index(tmp_path):
    return build_minhash_index(
        lambda: rd.from_pandas(pd.DataFrame(_OLD)), str(tmp_path / "idx")
    )


def _sorted(df):
    return df[PAIR_COLS].sort_values(PAIR_COLS).reset_index(drop=True)


def test_incremental_matches_batch_path_restricted(ray_session, tmp_path):
    idx = _index(tmp_path)
    inc = incremental_minhash_pairs(
        lambda: rd.from_pandas(pd.DataFrame(_NEW)), idx, num_partitions=2
    ).to_pandas()
    full = minhash_pairs(
        lambda: rd.from_pandas(pd.DataFrame(_OLD + _NEW)), num_partitions=2
    ).to_pandas()
    new_ids = {r["doc_id"] for r in _NEW}
    want = full[
        full["doc_id_a"].isin(new_ids) | full["doc_id_b"].isin(new_ids)
    ]
    pd.testing.assert_frame_equal(_sorted(inc), _sorted(want))
    found = {(a, b) for a, b in zip(inc["doc_id_a"], inc["doc_id_b"])}
    assert (2, 11) in found  # old–new exact dup
    assert (12, 13) in found  # new–new exact dup
    assert (0, 1) not in found  # old–old settled at index build


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


def test_empty_ingest_batch(ray_session, tmp_path):
    idx = _index(tmp_path)
    empty = pd.DataFrame({"doc_id": pd.Series([], dtype="int64"),
                          "text": pd.Series([], dtype="object")})
    out = incremental_minhash_pairs(
        lambda: rd.from_pandas(empty), idx, num_partitions=2
    )
    # ds.to_pandas() drops columns for empty datasets (Ray quirk); the
    # dataset-level schema is the contract.
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


@pytest.mark.parametrize("with_blobs", [False, True])
def test_bootstrap_without_index_equals_minhash_pairs_join(
    ray_session, with_blobs
):
    """A store's first batch (no index) gets exactly the pairs
    ``minhash_pairs_join`` finds in the batch, whether the docs carry
    their packed shingle blobs or only text."""
    from biomedical_ner_ray.stages.dedup import minhash_pairs_join, shingle_hashes

    docs = pd.DataFrame(_OLD + _NEW)
    with_sh = docs.assign(
        shingles=[shingle_hashes(t).tobytes() for t in docs["text"]]
    )
    boot = incremental_minhash_pairs(
        lambda: rd.from_pandas(with_sh if with_blobs else docs),
        None,
        num_partitions=2,
    ).to_pandas()
    join = minhash_pairs_join(
        lambda: rd.from_pandas(docs), num_partitions=2
    ).to_pandas()
    assert len(join) >= 3  # (0, 1), (2, 11) and (12, 13) at least
    pd.testing.assert_frame_equal(_sorted(boot), _sorted(join))


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
