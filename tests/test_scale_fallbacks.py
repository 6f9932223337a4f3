"""Scale-tier equivalence: operators with a broadcast fast path and a
distributed fallback must produce BIT-IDENTICAL results on both tiers
(the tier is a physical-plan choice, never a semantic one).

- doc_tfidf_top_terms: broadcast df lookup vs the salted word-keyed
  join tier (forced via broadcast_limit=0).
- doc_bigram_lm_score: the fully-distributed salted-exchange rewrite
  vs a brute-force pandas replay of the exact integer semantics.
"""

import os

import numpy as np
import pandas as pd
import pytest

SF = "/root/testdata/sf0.001"


def _frame(ds) -> pd.DataFrame:
    if isinstance(ds, pd.DataFrame):
        return ds
    return ds.to_pandas()


def test_tfidf_join_fallback_matches_broadcast(ray_session):
    from biomedical_ner_ray import queries as Q

    cols = ["doc_id", "rank"]
    fast = _frame(Q.doc_tfidf_top_terms(SF)).sort_values(cols, ignore_index=True)
    slow = _frame(Q.doc_tfidf_top_terms(SF, broadcast_limit=0)).sort_values(
        cols, ignore_index=True
    )
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow[fast.columns])


def test_bigram_lm_matches_bruteforce(ray_session):
    import pyarrow.parquet as pq

    from biomedical_ner_ray import queries as Q
    from biomedical_ner_ray.kernels.textstats import WORD_RE

    got = _frame(Q.doc_bigram_lm_score(SF)).sort_values(
        "doc_id", ignore_index=True
    )

    docs = pq.read_table(f"{SF}/documents.parquet", columns=["doc_id", "text"])
    toks = {
        i: WORD_RE.findall(t.lower())
        for i, t in zip(docs["doc_id"].to_pylist(), docs["text"].to_pylist())
    }
    c1: dict = {}
    c12: dict = {}
    for ws in toks.values():
        for w in ws:
            c1[w] = c1.get(w, 0) + 1
        for a, b in zip(ws, ws[1:]):
            c12[(a, b)] = c12.get((a, b), 0) + 1
    model = {
        k: (Q.LM_PROB_SCALE * v) // c1[k[0]]
        for k, v in c12.items()
        if v >= Q.LM_MIN_COUNT
    }
    rows = []
    for i, ws in toks.items():
        nb = max(len(ws) - 1, 0)
        ns = lm = 0
        for bg in zip(ws, ws[1:]):
            if bg in model:
                ns += 1
                lm += model[bg]
        rows.append((i, nb, ns, lm))
    exp = (
        pd.DataFrame(rows, columns=["doc_id", "n_bigrams", "n_scored", "lm_score_micro"])
        .astype("int64")
        .sort_values("doc_id", ignore_index=True)
    )
    assert len(got) == len(exp) > 0
    pd.testing.assert_frame_equal(got[exp.columns].astype("int64"), exp)


def test_bigram_lm_salting_is_consistent():
    # every candidate lane must have a matching model lane: lane ids
    # come from hash(doc_id) % LM_SALT and the model replicates ALL
    # lanes — structural invariant the exchange relies on
    from biomedical_ner_ray import queries as Q

    ids = np.arange(1000, dtype=np.int64)
    lanes = pd.util.hash_array(ids) % np.uint64(Q.LM_SALT)
    assert lanes.min() >= 0 and lanes.max() < Q.LM_SALT
    # process-stable: recomputing gives the same lanes
    assert (lanes == pd.util.hash_array(ids) % np.uint64(Q.LM_SALT)).all()


def test_label_prop_exchange_tier(ray_session):
    """part_label_prop's label-keyed exchange tier (forced via
    broadcast_limit=0) must produce BIT-IDENTICAL communities to the
    per-round broadcast tier — integer vote counts plus the shared
    deterministic (count desc, label asc) mode reduce make the tier a
    pure physical-plan choice."""
    from biomedical_ner_ray import queries as Q

    fast = _frame(Q.part_label_prop(SF)).sort_values("part_id", ignore_index=True)
    slow = _frame(Q.part_label_prop(SF, broadcast_limit=0)).sort_values(
        "part_id", ignore_index=True
    )
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow)


def test_kcore_exchange_tier(ray_session):
    """part_kcore's distributed alive-set tier (forced via
    broadcast_limit=0) must equal the per-round broadcast tier exactly
    — integer set semantics make the tier a physical-plan choice."""
    from biomedical_ner_ray import queries as Q

    # sf0.001's sparsified graph has no K-core — use sf0.01 so the
    # equality is over a non-empty core
    sf = "/root/testdata/sf0.01"
    fast = _frame(Q.part_kcore(sf)).sort_values("part_id", ignore_index=True)
    slow = _frame(Q.part_kcore(sf, broadcast_limit=0)).sort_values(
        "part_id", ignore_index=True
    )
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow)


def test_bfs_exchange_tier(ray_session):
    """part_bfs_levels' distributed frontier/seen tier (forced via
    broadcast_limit=0) must reproduce the broadcast tier's levels
    bit-for-bit."""
    from biomedical_ner_ray import queries as Q

    fast = _frame(Q.part_bfs_levels(SF)).sort_values("part_id", ignore_index=True)
    slow = _frame(Q.part_bfs_levels(SF, broadcast_limit=0)).sort_values(
        "part_id", ignore_index=True
    )
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow)


def test_pagerank_exchange_tier(ray_session):
    """pagerank_int's exchange tier (forced via broadcast_limit=0 with
    the driver shortcut disabled) must be BIT-IDENTICAL to the
    broadcast tier and the driver path — all-integer fixed point makes
    the sums order-independent under any partitioning."""
    import numpy as np
    import ray.data as rd

    from biomedical_ner_ray.stages.pagerank import pagerank_int

    rng = np.random.RandomState(9)
    u = rng.randint(0, 400, size=3000).astype(np.int64)
    v = rng.randint(0, 400, size=3000).astype(np.int64)
    keep = u != v
    e = pd.DataFrame(
        {
            "src": np.concatenate([u[keep], v[keep]]),
            "dst": np.concatenate([v[keep], u[keep]]),
        }
    )

    def run(**kw):
        return (
            pagerank_int(rd.from_pandas(e), iterations=3, num_partitions=8, **kw)
            .to_pandas()
            .sort_values("node", ignore_index=True)[["node", "pr_score"]]
        )

    driver = run()  # small graph => driver path
    bcast = run(small_graph_threshold=0)  # distributed broadcast tier
    exch = run(small_graph_threshold=0, broadcast_limit=0)  # exchange tier
    assert len(driver) > 0
    pd.testing.assert_frame_equal(driver, bcast)
    pd.testing.assert_frame_equal(driver, exch)


def test_sssp_exchange_tier(ray_session):
    """part_sssp_weighted's distributed dist-map tier (forced via
    broadcast_limit=0) must reproduce the broadcast tier's distances
    bit-for-bit, including the fixpoint early-exit round count."""
    from biomedical_ner_ray import queries as Q

    fast = _frame(Q.part_sssp_weighted(SF)).sort_values(
        "part_id", ignore_index=True
    )
    slow = _frame(Q.part_sssp_weighted(SF, broadcast_limit=0)).sort_values(
        "part_id", ignore_index=True
    )
    assert len(fast) > 0
    pd.testing.assert_frame_equal(fast, slow)


@pytest.mark.parametrize("when", ["after_pin_pass", "before_attach"])
def test_pagerank_exchange_tier_missing_pin_file_raises(
    ray_session, tmp_path, monkeypatch, when
):
    """A pin file that the pin pass listed but that is gone when an
    iteration reads it raises; it is never taken for a partition
    without edges (which would give wrong ranks silently)."""
    import glob

    import numpy as np
    import ray.data as rd

    from biomedical_ner_ray.stages import pagerank
    from biomedical_ner_ray.state import manifest

    work = str(tmp_path / "pin")
    monkeypatch.setattr(manifest, "sweep_stale_handoffs", lambda base: work)
    real = pagerank.keyed_exchange

    def drop_one_pin_file():
        files = sorted(glob.glob(os.path.join(work, "pid=*.parquet")))
        assert len(files) > 1
        os.remove(files[0])

    def hooked(ds, keys, fn, *args, **kwargs):
        name = getattr(fn, "__name__", "")
        if when == "before_attach" and name == "attach_contribs":
            drop_one_pin_file()
        out = real(ds, keys, fn, *args, **kwargs)
        if when == "after_pin_pass" and name == "pin_write":
            out = out.materialize()
            drop_one_pin_file()
        return out

    monkeypatch.setattr(pagerank, "keyed_exchange", hooked)
    rng = np.random.RandomState(9)
    u = rng.randint(0, 400, size=3000).astype(np.int64)
    v = rng.randint(0, 400, size=3000).astype(np.int64)
    keep = u != v
    e = pd.DataFrame(
        {
            "src": np.concatenate([u[keep], v[keep]]),
            "dst": np.concatenate([v[keep], u[keep]]),
        }
    )
    with pytest.raises(Exception, match="pin file of partition"):
        pagerank.pagerank_int(
            rd.from_pandas(e), iterations=3, num_partitions=8,
            small_graph_threshold=0, broadcast_limit=0,
        ).to_pandas()
