"""S5 checkpoint partial-load semantics, S7 binary KV reader, and the
trained-embedding scorer slot (J4) — artifact plumbing tests."""

import numpy as np
import pyarrow.parquet as pq

from biomedical_ner_ray.kernels.combinatorial import CombinatorialScorer
from biomedical_ner_ray.sources.word2vec_bin import (
    kv_to_parquet,
    read_word2vec_binary,
    write_word2vec_binary,
)
from biomedical_ner_ray.state.checkpoint import (
    load_into,
    load_meta,
    save_checkpoint,
)


def test_checkpoint_strict_roundtrip(tmp_path):
    p = str(tmp_path / "ck")
    arrays = {"a": np.arange(6.0).reshape(2, 3), "b": np.ones(4)}
    save_checkpoint(p, arrays, {"epoch": 3, "best_f1": 0.91})
    target = {"a": np.zeros((2, 3)), "b": np.zeros(4)}
    rep = load_into(p, target)
    assert rep["mode"] == "strict" and rep["loaded"] == 2
    assert np.array_equal(target["a"], arrays["a"])
    assert load_meta(p) == {"epoch": 3, "best_f1": 0.91}


def test_checkpoint_partial_shape_filter(tmp_path):
    """app.py:199-205: keep name-present shape-matching entries only."""
    p = str(tmp_path / "ck")
    save_checkpoint(
        p,
        {
            "a": np.full((2, 3), 7.0),
            "b": np.ones(5),       # shape mismatch vs target (4,)
            "stale": np.ones(2),   # not in target
        },
    )
    target = {"a": np.zeros((2, 3)), "b": np.zeros(4), "c": np.zeros(2)}
    before_b = target["b"].copy()
    rep = load_into(p, target)
    assert rep["mode"] == "partial"
    assert rep["loaded"] == 1 and rep["total"] == 3
    assert set(rep["skipped"]) == {"b", "stale"}
    assert np.all(target["a"] == 7.0)
    assert np.array_equal(target["b"], before_b)  # left initialized


def test_word2vec_binary_roundtrip(tmp_path):
    p = str(tmp_path / "kv.bin")
    words = ["alpha", "beta-1", "gamma_x"]
    mat = np.arange(9, dtype=np.float32).reshape(3, 3)
    write_word2vec_binary(p, words, mat)
    w2, m2 = read_word2vec_binary(p)
    assert w2 == words
    assert np.array_equal(m2, mat)


def test_word2vec_binary_restrict_vocab(tmp_path):
    """The S7 scale pattern: stream once, keep only the corpus vocab."""
    p = str(tmp_path / "kv.bin")
    words = [f"w{i}" for i in range(100)]
    mat = np.random.RandomState(0).randn(100, 4).astype(np.float32)
    write_word2vec_binary(p, words, mat)
    keep = {"w3", "w42", "w99", "not_there"}
    w2, m2 = read_word2vec_binary(p, restrict_vocab=keep)
    assert w2 == ["w3", "w42", "w99"]
    assert np.array_equal(m2, mat[[3, 42, 99]])
    out = str(tmp_path / "kv.parquet")
    kv_to_parquet(w2, m2, out)
    t = pq.read_table(out)
    assert t.column_names == ["word", "vector"]
    assert len(t) == 3


def test_scorer_with_trained_embeddings_and_checkpoint(tmp_path):
    # trained matrix artifact
    words = ["il-2", "receptor"]
    mat = np.random.RandomState(1).randn(2, 8)
    kv_to_parquet(words, mat.astype(np.float32), str(tmp_path / "m.parquet"))
    # checkpoint with one matching, one mis-shaped and one unknown entry
    ck = str(tmp_path / "ck")
    probe = CombinatorialScorer(
        ["protein", "DNA"], embedding_matrix_path=str(tmp_path / "m.parquet")
    )
    save_checkpoint(
        ck,
        {
            "fusion_W": np.full_like(probe.params["fusion_W"], 0.5),
            "emission_W": np.zeros((1, 1)),
            "out": np.zeros((1, 1)),
        },
    )
    s = CombinatorialScorer(
        ["protein", "DNA"],
        embedding_matrix_path=str(tmp_path / "m.parquet"),
        checkpoint_path=ck,
    )
    assert s.checkpoint_report["mode"] == "partial"
    assert s.checkpoint_report["loaded"] == 1
    assert s.checkpoint_report["skipped"] == ["emission_W", "out"]
    assert np.all(s.params["fusion_W"] == 0.5)
    # the mis-shaped entry kept the constructor's weights
    assert np.array_equal(s.params["emission_W"], probe.params["emission_W"])
    # trained vector used for in-vocab word, hash fallback for OOV
    assert s.word_dim == 8
    emb = s.word_embeddings(["IL-2", "unknownword"])
    assert np.allclose(emb[0], np.asarray(mat[0], dtype=np.float32), atol=1e-6)
    assert np.array_equal(emb[1], probe.word_embeddings(["unknownword"])[0])
    assert not np.allclose(emb[1], mat[1], atol=1e-3)
