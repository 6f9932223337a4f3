"""Unit tests for the near-dup detectors (stages/dedup.py): hash parity
with DuckDB (the oracle contract), LSH recall on planted duplicates, and
pair-set sanity."""

import duckdb
import numpy as np
import pandas as pd
import pytest
import ray.data as rd

from biomedical_ner_ray.kernels.hashing import simhash64_md5, stable_u64_md5
from biomedical_ner_ray.stages.dedup import (
    JACCARD_DEN,
    JACCARD_NUM,
    incremental_minhash_pairs,
    minhash_signature,
    shingle_hashes,
    simhash_pairs,
)


def test_stable_u64_md5_matches_duckdb():
    con = duckdb.connect()
    for s in ("abc", "hello world", "Öäü-unicode", ""):
        (got,) = con.execute("SELECT md5_number_lower(?)", [s]).fetchone()
        assert int(got) == stable_u64_md5(s.encode("utf-8")), s


def test_simhash_matches_duckdb():
    ws = ["cat", "dog", "cat", "fish", "dog", "dog"]
    con = duckdb.connect()
    (got,) = con.execute(
        """
        WITH w AS (SELECT unnest(?) AS word),
        b AS (SELECT g.p AS p,
                     sum(CASE WHEN (md5_number_lower(word) >> g.p) & 1 = 1
                         THEN 1 ELSE -1 END) AS s
              FROM w, unnest(generate_series(0, 63)) AS g(p) GROUP BY g.p)
        SELECT CAST(sum(CASE WHEN s > 0 THEN CAST(1 AS UBIGINT) << p
                        ELSE CAST(0 AS UBIGINT) END) AS UBIGINT) FROM b
        """,
        [ws],
    ).fetchone()
    assert int(got) == simhash64_md5(ws)


def test_minhash_signature_estimates_jaccard():
    a = shingle_hashes("the quick brown fox jumps over the lazy dog " * 5)
    b = shingle_hashes("the quick brown fox leaps over the lazy dog " * 5)
    sa, sb = minhash_signature(a), minhash_signature(b)
    est = float((sa == sb).mean())
    inter = len(set(a.tolist()) & set(b.tolist()))
    true_j = inter / (len(a) + len(b) - inter)
    assert abs(est - true_j) < 0.35  # 32 perms: coarse but correlated
    # identical input -> identical signature
    assert (minhash_signature(a) == sa).all()


def _docs_ds_factory():
    base = (
        "transcription factors bind regulatory elements controlling gene "
        "expression in lymphocyte development and differentiation pathways"
    )
    rows = [
        {"doc_id": 0, "text": base},
        {"doc_id": 1, "text": base},  # exact duplicate
        {"doc_id": 2, "text": base.replace("lymphocyte", "monocyte")},  # near-dup
        {"doc_id": 3, "text": "completely different content about weather patterns"},
        {"doc_id": 4, "text": "another unrelated short document"},
    ]
    return lambda: rd.from_pandas(pd.DataFrame(rows))


def test_minhash_pairs_finds_planted_dups(ray_session):
    pairs = incremental_minhash_pairs(
        _docs_ds_factory(), None, num_partitions=2
    ).to_pandas()
    found = {(a, b) for a, b in zip(pairs["doc_id_a"], pairs["doc_id_b"])}
    assert (0, 1) in found  # exact dup always caught
    for a, b, nc, nu in pairs.itertuples(index=False):
        assert a < b and JACCARD_DEN * nc >= JACCARD_NUM * nu


def test_simhash_pairs_finds_planted_dups(ray_session):
    pairs = simhash_pairs(_docs_ds_factory(), num_partitions=2).to_pandas()
    found = {(a, b) for a, b in zip(pairs["doc_id_a"], pairs["doc_id_b"])}
    assert (0, 1) in found
    assert (pairs["hamming"] <= 3).all()
    assert (pairs["doc_id_a"] < pairs["doc_id_b"]).all()


def test_popcount_vectorization():
    xs = np.array([0, 1, 3, 0xFFFFFFFFFFFFFFFF], dtype=np.uint64)
    pops = np.unpackbits(xs.view(np.uint8).reshape(-1, 8), axis=1).sum(axis=1)
    assert pops.tolist() == [0, 1, 2, 64]


def test_minhash_join_variant_equivalent(ray_session, monkeypatch):
    """The detector's join variant (every keyed exchange a shuffle join)
    returns the same pairs as its in-process combine, on the broadcast
    verify and on the semi-join tier (``broadcast_id_limit=0``)."""
    from biomedical_ner_ray.stages import exchange

    cols = ["doc_id_a", "doc_id_b", "n_common", "n_union"]
    for kwargs in ({}, {"broadcast_id_limit": 0}):
        got = {}
        for path, limit in (("inproc", 1 << 40), ("join", -1)):
            monkeypatch.setattr(exchange, "BYTES_PER_PARTITION", limit)
            got[path] = incremental_minhash_pairs(
                _docs_ds_factory(), None, num_partitions=2, **kwargs
            ).to_pandas()[cols]
        join = got["join"]
        assert (0, 1) in set(zip(join["doc_id_a"], join["doc_id_b"]))
        pd.testing.assert_frame_equal(
            got["inproc"].sort_values(cols).reset_index(drop=True),
            join.sort_values(cols).reset_index(drop=True),
        )


def test_minhash_join_without_candidates_is_empty(ray_session):
    """Docs that share no LSH band yield no candidate pairs; the
    detector returns no pairs, with the pair columns."""
    docs = pd.DataFrame(
        {
            "doc_id": np.array([1, 2], dtype=np.int64),
            "text": [
                "the quick brown fox jumps over the lazy dog today",
                "completely unrelated words about medicine and kidneys here",
            ],
        }
    )
    out = incremental_minhash_pairs(lambda: rd.from_pandas(docs), None)
    assert out.count() == 0
    assert out.schema().names == ["doc_id_a", "doc_id_b", "n_common", "n_union"]


def test_fuzzy_decontaminate_pairs_straddle_split(ray_session):
    """doc_decontaminate_fuzzy = minhash pairs restricted to cross-split
    (eval, train): every output pair must straddle the md5 80/20 split,
    sides labeled correctly, and the pair set must be exactly the
    cross-split subset of the full near-dup pair graph."""
    from biomedical_ner_ray import queries as Q

    sf = "/root/testdata/sf0.01"
    got = Q.doc_decontaminate_fuzzy(sf).to_pandas()

    def is_eval(i):
        return stable_u64_md5(str(i).encode()) % 10 >= 8

    assert len(got) > 0
    for e, t in zip(got.eval_doc_id, got.train_doc_id):
        assert is_eval(e) and not is_eval(t)

    allp = Q.doc_dedup_minhash(sf).to_pandas()
    cross = allp[
        [is_eval(a) != is_eval(b) for a, b in zip(allp.doc_id_a, allp.doc_id_b)]
    ]
    assert len(cross) == len(got)
    exp_pairs = {
        (a if is_eval(a) else b, b if is_eval(a) else a)
        for a, b in zip(cross.doc_id_a, cross.doc_id_b)
    }
    assert set(zip(got.eval_doc_id, got.train_doc_id)) == exp_pairs


def test_source_overlap_matrix_consistent(ray_session):
    """doc_source_overlap totals must equal the pair-graph size, with
    unordered (source_a <= source_b) keys."""
    from biomedical_ner_ray import queries as Q

    sf = "/root/testdata/sf0.01"
    got = Q.doc_source_overlap(sf).to_pandas()
    allp = incremental_minhash_pairs(
        lambda: rd.read_parquet(sf + "/documents.parquet", columns=["doc_id", "text"]),
        None,
    ).to_pandas()
    assert int(got["n_pairs"].sum()) == len(allp)
    assert (got["source_a"] <= got["source_b"]).all()


@pytest.mark.parametrize("broadcast_id_limit", [None, 0], ids=["query", "semijoin"])
def test_ppjoin_matches_brute_force(ray_session, tmp_path, broadcast_id_limit):
    """Prefix-filter join == exact all-pairs Jaccard >= 3/5 on a planted
    corpus with near-dup pairs, exact dups, and unrelated docs: through
    the query (broadcast candidate filter) and through ppjoin_pairs with
    broadcast_id_limit=0 (the semi-join candidate filter)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    from biomedical_ner_ray import queries as Q
    from biomedical_ner_ray.stages.dedup import (
        JACCARD_BLOCK_DEN,
        JACCARD_BLOCK_NUM,
        ppjoin_pairs,
        shingle_hashes,
    )

    base = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts = {
        1: base,
        2: base,  # exact dup of 1
        3: base + " extra tail words here",  # near-dup of 1/2
        4: "completely different content about unrelated topics entirely",
        5: "alpha beta gamma", # short: low jaccard vs base
        6: base.replace("delta", "DELTA-variant"),  # near-dup
    }
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values()), pa.string()),
            }
        ),
        os.path.join(tmp_path, "documents.parquet"),
    )
    if broadcast_id_limit is None:
        pairs = Q.doc_dedup_ppjoin(str(tmp_path))
    else:
        pairs = ppjoin_pairs(
            lambda: rd.read_parquet(os.path.join(tmp_path, "documents.parquet")),
            num=JACCARD_BLOCK_NUM,
            den=JACCARD_BLOCK_DEN,
            broadcast_id_limit=broadcast_id_limit,
        )
    got = pairs.to_pandas().sort_values(["doc_id_a", "doc_id_b"], ignore_index=True)
    sets = {i: set(shingle_hashes(t).tolist()) for i, t in texts.items()}
    exp = []
    ids = sorted(texts)
    for i in range(len(ids)):
        for j in range(i + 1, len(ids)):
            a, b = ids[i], ids[j]
            nc = len(sets[a] & sets[b])
            nu = len(sets[a]) + len(sets[b]) - nc
            if nc and JACCARD_BLOCK_DEN * nc >= JACCARD_BLOCK_NUM * nu:
                exp.append((a, b, nc, nu))
    assert (
        list(map(tuple, got[["doc_id_a", "doc_id_b", "n_common", "n_union"]].to_numpy()))
        == exp
    )
    assert (1, 2) in {(a, b) for a, b, *_ in exp}  # exact dup found


def test_ppjoin_superset_of_blocked_baseline(ray_session):
    """Global prefix-filter pairs must contain every within-source pair
    the blocked baseline finds (same threshold, no blocking key)."""
    from biomedical_ner_ray import queries as Q

    sf = "/root/testdata/sf0.01"
    glob = Q.doc_dedup_ppjoin(sf).to_pandas()
    blocked = Q.doc_dedup_jaccard(sf).to_pandas()
    gset = {(a, b) for a, b in zip(glob.doc_id_a, glob.doc_id_b)}
    bset = {(a, b) for a, b in zip(blocked.doc_id_a, blocked.doc_id_b)}
    assert bset <= gset


def test_ppjoin_hot_demotion_shrinks_candidates(ray_session, tmp_path, monkeypatch):
    """A mega-hot phrase (df >= HOT_DF_MIN) must fall out of every
    prefix: candidate-pair volume with demotion is a small fraction of
    pure hash order, and verified output is IDENTICAL (any total order
    preserves the prefix guarantee)."""
    import os

    import pyarrow as pa
    import pyarrow.parquet as pq

    import biomedical_ner_ray.stages.dedup as dd
    from biomedical_ner_ray import queries as Q

    hot = "the quick brown fox jumps over the lazy dog again and again"
    texts = {}
    for i in range(80):  # df(hot shingles) = 80+ >= HOT_DF_MIN
        uniq = " ".join(f"u{i}x{j}" for j in range(8))
        texts[i] = f"{hot} {uniq}"
    # one genuine near-dup pair on top of the hot background
    # (tail-extension keeps J = 8/9 >= 3/5; a mid-word swap would break
    # three trigrams and fall below the threshold)
    texts[100] = "alpha beta gamma delta epsilon zeta eta theta iota kappa"
    texts[101] = texts[100] + " lambda"
    pq.write_table(
        pa.table(
            {
                "doc_id": pa.array(list(texts), pa.int64()),
                "text": pa.array(list(texts.values()), pa.string()),
            }
        ),
        os.path.join(tmp_path, "documents.parquet"),
    )

    # count the candidate stream ppjoin_pairs hands to the verify phase
    counts = []
    fetch_verify = dd._fetch_verify

    def counting_fetch_verify(cands, *args, **kwargs):
        counts.append(cands.count())
        return fetch_verify(cands, *args, **kwargs)

    monkeypatch.setattr(dd, "_fetch_verify", counting_fetch_verify)

    def run():
        got = (
            Q.doc_dedup_ppjoin(str(tmp_path))
            .to_pandas()
            .sort_values(["doc_id_a", "doc_id_b"], ignore_index=True)
        )
        return got, counts[-1]

    got_demoted, cands_demoted = run()
    monkeypatch.setattr(dd, "HOT_DF_MIN", 10**9)  # pure hash order
    got_hash, cands_hash = run()

    assert got_demoted.equals(got_hash)
    assert {(100, 101)} <= set(
        map(tuple, got_demoted[["doc_id_a", "doc_id_b"]].to_numpy())
    )
    # hash order lets hot shingles into prefixes -> O(N^2) candidates;
    # demotion keeps only the unique fillers there
    assert cands_hash > 1000
    assert cands_demoted < cands_hash / 5
