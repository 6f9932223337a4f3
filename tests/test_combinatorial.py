"""Full CombinatorialNER numpy forward (kernels/combinatorial.py):
gate combinatorics, real conv/recurrence behavior, checkpoint surface,
and batched == sequential decoding. Reference architecture:
models/models.py:8-193."""

import itertools

import numpy as np
import pytest

from biomedical_ner_ray.kernels.combinatorial import (
    CHAR_EMBED_DIM,
    CHAR_LSTM_HIDDEN,
    CNN_FILTERS,
    CombinatorialScorer,
    lstm_forward,
)

TYPES = ["protein", "DNA", "cell_type"]
TOKS = "the il-2 receptor alpha chain binds to the promoter region of gene x".split()


def _assert_valid_bio(tags, n):
    """One tag per token, every I-x preceded by B-x / I-x (the hard
    pairwise mask; there is no start-transition mask)."""
    assert len(tags) == n
    for prev, t in zip(tags, tags[1:]):
        if t.startswith("I-"):
            assert prev in (f"B-{t[2:]}", f"I-{t[2:]}"), tags


def test_all_gate_combinations_decode_equivalent():
    """Every one of the reference's 2^5 channel combinations
    (models/models.py:80-87 constructor flags) runs the forward to
    [T, K] emissions and decodes a BIO-valid path per token, and its
    batched decode equals per-sequence decoding exactly."""
    seqs = [TOKS, TOKS[:3], ["il-2"], [], TOKS[4:]]
    for cnn, lstm, attn, fus, ctx in itertools.product([False, True], repeat=5):
        gates = (cnn, lstm, attn, fus, ctx)
        s = CombinatorialScorer(
            TYPES, use_char_cnn=cnn, use_char_lstm=lstm, use_attention=attn,
            use_fc_fusion=fus, use_lstm=ctx,
        )
        assert s.scores(TOKS).shape == (len(TOKS), len(s.tags)), gates
        batch = s.decode_tokens_batch(seqs)
        assert batch == [s.decode_tokens(x) for x in seqs], gates
        for x, tags in zip(seqs, batch):
            _assert_valid_bio(tags, len(x))


def test_dataset_flavors():
    """JNLPBA uses conv kernels [3,5,7]; every other dataset [2,3,4]
    (models/models.py:103-105); NCBI fusion adds the ReLU
    (models/models.py:121-126)."""
    j = CombinatorialScorer(TYPES, dataset="JNLPBA")
    n = CombinatorialScorer(TYPES, dataset="NCBI")
    assert j.cnn_kernels == (3, 5, 7)
    assert n.cnn_kernels == (2, 3, 4)
    _assert_valid_bio(j.decode_tokens(TOKS), len(TOKS))
    _assert_valid_bio(n.decode_tokens(TOKS), len(TOKS))


def test_char_cnn_is_a_real_convolution():
    s = CombinatorialScorer(TYPES)
    emb = s.params["char_embedding"][s.char_ids(["abcdef"])]  # [1, W, d]
    out = s.char_cnn(emb)
    assert out.shape == (1, CNN_FILTERS * 3)
    # ReLU + max-pool output is non-negative
    assert (out >= 0.0).all()
    # manual check for kernel k=3 at one window position: the conv at
    # position p sees chars [p-1, p, p+1] ('same' padding) — compute
    # window p=1 (chars a,b,c) by hand and assert it's <= the max-pool
    k = 3
    W = s.params["cnn_W3"]
    b = s.params["cnn_b3"]
    window = emb[0, 0:3].reshape(-1)  # chars a,b,c
    manual = np.maximum(window @ W + b, 0.0)
    assert (out[0, :CNN_FILTERS] >= manual - 1e-12).all()


def test_char_cache_consistency():
    """Memoized char features must equal freshly computed ones."""
    s1 = CombinatorialScorer(TYPES)
    s2 = CombinatorialScorer(TYPES)
    # warm s1's cache with a superset batch, then compare on a subset
    s1._char_features(["alpha", "beta", "gamma", "alpha"])
    f1 = s1._char_features(["beta", "alpha"])
    f2 = s2._char_features(["beta", "alpha"])
    np.testing.assert_allclose(f1, f2, atol=1e-12)


def test_lstm_backward_is_time_reversed_forward():
    """reverse=True over x must equal flipping a reverse=False run over
    time-flipped input — i.e. it is a genuine backward recurrence, not
    a second forward pass."""
    rng = np.random.RandomState(0)
    B, S, D, H = 3, 7, 5, 4
    x = rng.randn(B, S, D)
    Wx, Wh, b = rng.randn(D, 4 * H) * 0.3, rng.randn(H, 4 * H) * 0.3, rng.randn(4 * H) * 0.3
    bwd = lstm_forward(x, Wx, Wh, b, reverse=True)
    flipped = lstm_forward(x[:, ::-1], Wx, Wh, b, reverse=False)[:, ::-1]
    np.testing.assert_allclose(bwd, flipped, atol=1e-12)


def test_lstm_is_stateful_recurrence():
    """Changing an early timestep must change later outputs (forward)
    but not earlier ones — recurrence flows one way."""
    rng = np.random.RandomState(1)
    B, S, D, H = 1, 6, 4, 4
    x = rng.randn(B, S, D)
    Wx, Wh, b = rng.randn(D, 4 * H) * 0.3, rng.randn(H, 4 * H) * 0.3, rng.randn(4 * H) * 0.3
    base = lstm_forward(x, Wx, Wh, b, reverse=False)
    x2 = x.copy()
    x2[0, 2] += 1.0
    pert = lstm_forward(x2, Wx, Wh, b, reverse=False)
    np.testing.assert_allclose(base[0, :2], pert[0, :2], atol=1e-12)
    assert np.abs(base[0, 3:] - pert[0, 3:]).max() > 1e-8


def test_char_bilstm_shape_and_padding_id_zero():
    s = CombinatorialScorer(TYPES)
    ids = s.char_ids(["ab"])
    assert ids.shape[1] == 20  # MAX_CHAR_LEN, reference app.py:216
    assert (ids[0, 2:] == 0).all()  # zero-padded
    assert np.all(s.params["char_embedding"][0] == 0.0)  # padding_idx=0
    emb = s.params["char_embedding"][ids]
    out = s.char_bilstm(emb)
    assert out.shape == (1, 2 * CHAR_LSTM_HIDDEN)


def test_attention_is_row_stochastic_mixing():
    s = CombinatorialScorer(TYPES)
    h = np.random.RandomState(2).randn(5, s.out_dim)
    out = s.manhattan_attention(h)
    assert out.shape == (5, s.out_dim)
    # identical rows ⇒ zero distances ⇒ uniform alpha ⇒ ctx == h row
    hh = np.tile(h[0], (4, 1))
    out2 = s.manhattan_attention(hh)
    np.testing.assert_allclose(out2[0], out2[1], atol=1e-12)


def test_checkpoint_roundtrip_partial(tmp_path):
    from biomedical_ner_ray.state.checkpoint import save_checkpoint

    probe = CombinatorialScorer(TYPES)
    ck = str(tmp_path / "comb_ck")
    save_checkpoint(
        ck,
        {
            "emission_W": np.zeros_like(probe.params["emission_W"]),
            "bogus": np.zeros((2, 2)),
        },
    )
    s = CombinatorialScorer(TYPES, checkpoint_path=ck)
    assert s.checkpoint_report["mode"] == "partial"
    assert s.checkpoint_report["loaded"] == 1
    assert np.all(s.params["emission_W"] == 0.0)


def test_embedding_matrix_artifact(tmp_path):
    from biomedical_ner_ray.sources.word2vec_bin import kv_to_parquet

    mat = np.random.RandomState(3).randn(2, 12).astype(np.float32)
    p = str(tmp_path / "kv.parquet")
    kv_to_parquet(["il-2", "receptor"], mat, p)
    s = CombinatorialScorer(TYPES, embedding_matrix_path=p)
    assert s.word_dim == 12
    emb = s.word_embeddings(["IL-2", "zzz-oov"])
    np.testing.assert_allclose(emb[0], mat[0].astype(np.float64), atol=1e-6)
    # OOV falls back to its deterministic hash vector at the matrix width
    assert emb[1].shape == (12,)
    np.testing.assert_array_equal(emb[1], s.word_embeddings(["zzz-oov"])[0])
    assert not np.allclose(emb[1], mat[1])


def test_long_turn_truncation():
    """Only the first MAX_SEQ_LEN tokens are decoded; the rest are 'O'
    (reference truncation)."""
    from biomedical_ner_ray.kernels.tokenize import MAX_SEQ_LEN

    s = CombinatorialScorer(TYPES)
    toks = ["il-2"] * 130
    tags = s.decode_tokens(toks)
    assert len(tags) == 130
    assert tags[:MAX_SEQ_LEN] == s.decode_tokens(toks[:MAX_SEQ_LEN])
    assert tags[MAX_SEQ_LEN:] == ["O"] * (130 - MAX_SEQ_LEN)


def test_gemm_fixed_composition_independent():
    """gemm_fixed row i must be a pure function of (row i, W): the same
    rows embedded among arbitrary other rows, at arbitrary offsets and
    batch sizes, produce bit-identical output — the guarantee the
    batched serving forward == sequential replay contract rests on."""
    from biomedical_ner_ray.kernels.combinatorial import gemm_fixed

    rng = np.random.RandomState(7)
    for d, hdim in [(48, 128), (16, 17), (33, 65)]:
        W = rng.randn(d, hdim)
        A = rng.randn(700, d)
        full = gemm_fixed(A, W)
        for b in [1, 7, 64, 129, 300]:
            assert np.array_equal(full[:b], gemm_fixed(A[:b].copy(), W))
            for off in [1, 17, 63]:
                ref = gemm_fixed(A[300 : 300 + b].copy(), W)
                comp = np.vstack(
                    [rng.randn(off, d), A[300 : 300 + b], rng.randn(5, d)]
                )
                assert np.array_equal(ref, gemm_fixed(comp, W)[off : off + b])


def test_batched_decode_equals_sequential_bitwise():
    """decode_tokens_batch over arbitrary mixed-length compositions must
    equal per-sequence decode_tokens EXACTLY (tags, not approximately),
    and scores_batch rows must be bit-equal to single-sequence scores —
    composition
    independence end-to-end through fusion, masked BiLSTM, attention,
    emissions and batched Viterbi."""
    rng = np.random.RandomState(11)
    words = ["il-2", "receptor", "gene", "binds", "the", "of", "alpha",
             "promoter", "x", "cells", "expression", "kinase"]
    seqs = [
        [words[rng.randint(len(words))] for _ in range(rng.randint(1, 25))]
        for _ in range(40)
    ] + [["tok"] * 130, []]
    s = CombinatorialScorer(TYPES)
    # give the learned transition slot some structure
    s.params["trans_w"] += (
        np.random.RandomState(5).randn(*s.params["trans_w"].shape) * 0.1
    )
    from biomedical_ner_ray.kernels.crf import bio_transitions

    s.trans = bio_transitions(s.tags) + s.params["trans_w"]
    batch = s.decode_tokens_batch([list(x) for x in seqs])
    single = [s.decode_tokens(list(x)) for x in seqs]
    assert batch == single
    # emissions bit-equality across compositions
    a, b = seqs[0], seqs[1]
    em, lens = s.scores_batch([a, b])
    assert np.array_equal(em[0, : len(a)], s.scores(a))
    assert np.array_equal(em[1, : len(b)], s.scores(b))
