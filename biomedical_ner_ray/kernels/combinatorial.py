"""Full CombinatorialNER forward pass in numpy (A3/A4/A5/A6/A7).

The reference's model (``models/models.py:8-193``) is a *combinatorial*
BiLSTM-CRF: independently gated channels assembled per experiment —

- ``CharCNN`` (``models/models.py:8-29``): char embedding (pad idx 0) →
  parallel 1-D convs, kernel sizes [3,5,7] for JNLPBA / [2,3,4]
  otherwise, 'same' padding → ReLU → max-pool over the char axis →
  concat across kernel sizes;
- ``CharBiLSTM`` (``models/models.py:32-52``): char embedding →
  bidirectional LSTM over the chars of each word → max-pool the FULL
  output sequence → one vector per word;
- word embedding channel (pretrained matrix or learned;
  ``models/models.py:95-101``);
- FC fusion of the concatenated channels (ReLU flavor for NCBI, linear
  for JNLPBA; ``models/models.py:118-130``);
- context BiLSTM over the token sequence (``models/models.py:136-158``);
- ``ManhattanAttention`` (``models/models.py:57-71``): score(i,j) =
  -(w·h_j)·|h_i - h_j|_1, softmax over j, context matmul, concat
  [h, ctx] then a linear projection back to the hidden width
  (``models/models.py:144-146``);
- linear emission layer + CRF decode (``models/models.py:162-163,189-193``).

This module re-expresses that exact dataflow with numpy kernels:
every convolution is a real sliding-window convolution, every LSTM a
real gated recurrence. Gates mirror the reference's constructor flags
one-for-one, including the nesting rule that attention only exists
under the context-LSTM branch (``models/models.py:136-151``). Weights
are seeded at construction and replaced by a checkpoint's FITTED
weights (pipelines/train_combinatorial.py); emissions are raw logits
plus a learned score on every BIO-allowed transition (``trans_w``).

Chars are hashed into a fixed bucket table (process-stable crc32)
rather than a corpus-fitted char vocab so actor state needs no
corpus-wide build; words are truncated to MAX_CHAR_LEN=20 chars
(reference ``app.py:216``).
"""

from __future__ import annotations

import numpy as np

from .crf import batched_decode_harness, bio_tagset, bio_transitions

CHAR_BUCKETS = 128  # hashed char-id space; id 0 = padding
CHAR_EMBED_DIM = 16
CNN_FILTERS = 16
CHAR_LSTM_HIDDEN = 16
WORD_EMBED_DIM = 32
FUSION_DIM = 48
CONTEXT_HIDDEN = 16  # per direction
MAX_CHAR_LEN = 20  # reference app.py:216 (max word length in chars)


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


# Fixed GEMM row-block size. Every matmul whose row count depends on
# HOW work was batched (how many cache misses, how many sequences in a
# bucket) goes through gemm_fixed so its per-row floats cannot.
GEMM_ROWS = 64


def gemm_fixed(A: np.ndarray, W: np.ndarray) -> np.ndarray:
    """Composition-independent GEMM: ``A[m, D] @ W[D, H]`` executed as
    fixed-shape ``[GEMM_ROWS, D] @ [D, H]`` slices via one stacked
    ``np.matmul`` (zero-padded tail).

    WHY: OpenBLAS selects different blocking kernels for different m,
    so the last-ulp rounding of row i of a plain ``A @ W`` depends on
    how many OTHER rows happened to share the call — i.e. on batch
    composition. With a fixed slice shape the kernel (and the k-loop
    reduction order) is pinned, and GEMM output row i is a pure
    function of input row i and W — measured bit-equal under arbitrary
    row counts, compositions and block offsets (tests/
    test_combinatorial.py::test_gemm_fixed_composition_independent).
    This is what makes the BATCHED serving forward bit-identical to
    the sequential oracle replay regardless of how Ray batches the
    rows — a guarantee by construction, not by luck."""
    m, D = A.shape
    n = (m + GEMM_ROWS - 1) // GEMM_ROWS
    if n * GEMM_ROWS != m:
        pad = np.zeros((n * GEMM_ROWS, D), dtype=A.dtype)
        pad[:m] = A
    else:
        pad = np.ascontiguousarray(A)
    out = np.matmul(pad.reshape(n, GEMM_ROWS, D), W)
    return out.reshape(n * GEMM_ROWS, -1)[:m]


def lstm_forward(
    x: np.ndarray,
    Wx: np.ndarray,
    Wh: np.ndarray,
    b: np.ndarray,
    reverse: bool,
    lens: np.ndarray | None = None,
) -> np.ndarray:
    """Batched single-direction LSTM: x [B, S, D] → outputs [B, S, H].

    Gate layout i|f|o|g along the 4H axis. The batch axis B is the
    vectorization lever — the char BiLSTM runs all T tokens of a turn
    as one batch, and the batched serving path runs a whole same-bucket
    sequence group per step. All matmuls are ``gemm_fixed`` so row i's
    floats are independent of batch composition (see gemm_fixed).

    ``lens`` (end-padded variable-length rows): for ``reverse=True``
    the recurrence masks steps past each row's length so state stays
    exactly zero until the walk enters the row's real suffix — output
    rows at real positions are then bit-identical to an unpadded
    per-row run. Forward direction needs no mask: outputs at real
    positions only depend on steps ≤ t, which are all real.
    """
    B, S, D = x.shape
    H = Wh.shape[0]
    h = np.zeros((B, H), dtype=np.float64)
    c = np.zeros((B, H), dtype=np.float64)
    out = np.empty((B, S, H), dtype=np.float64)
    # hoist the input projection out of the loop: one [B*S, D]@[D, 4H]
    xp = gemm_fixed(x.reshape(B * S, D), Wx)
    xp = xp.reshape(B, S, 4 * H)
    steps = range(S - 1, -1, -1) if reverse else range(S)
    mask = reverse and lens is not None and bool((lens < S).any())
    for t in steps:
        g = xp[:, t] + gemm_fixed(h, Wh) + b
        i = _sigmoid(g[:, :H])
        f = _sigmoid(g[:, H : 2 * H])
        o = _sigmoid(g[:, 2 * H : 3 * H])
        u = np.tanh(g[:, 3 * H :])
        cn = f * c + i * u
        hn = o * np.tanh(cn)
        if mask:
            active = (lens > t)[:, None]
            c = np.where(active, cn, c)
            h = np.where(active, hn, h)
        else:
            c, h = cn, hn
        out[:, t] = h
    return out


def bilstm(
    x: np.ndarray,
    params: dict[str, np.ndarray],
    prefix: str,
    lens: np.ndarray | None = None,
) -> np.ndarray:
    """[B, S, D] → [B, S, 2H] (forward ‖ backward), torch-LSTM shaped."""
    fwd = lstm_forward(
        x, params[f"{prefix}_Wx_f"], params[f"{prefix}_Wh_f"], params[f"{prefix}_b_f"],
        reverse=False,
    )
    bwd = lstm_forward(
        x, params[f"{prefix}_Wx_b"], params[f"{prefix}_Wh_b"], params[f"{prefix}_b_b"],
        reverse=True, lens=lens,
    )
    return np.concatenate([fwd, bwd], axis=2)


class CombinatorialScorer:
    """Numpy CombinatorialNER with the reference's gate set.

    Parameters mirror ``CombinatorialNER.__init__``
    (``models/models.py:76-87``): ``dataset`` picks the CNN kernel list
    and fusion flavor; ``use_*`` gates enable channels. Construction is
    load-once actor state (A1): all weights are drawn here, never per
    batch. ``embedding_table`` accepts the A10 trained-matrix artifact
    (word → vector); OOV words fall back to deterministic hash vectors.
    """

    def __init__(
        self,
        types: list[str],
        dataset: str = "JNLPBA",
        use_char_cnn: bool = True,
        use_char_lstm: bool = True,
        use_attention: bool = True,
        use_fc_fusion: bool = True,
        use_lstm: bool = True,
        seed: int = 2024,
        embedding_table: dict[str, np.ndarray] | None = None,
        embedding_matrix_path: str | None = None,
        checkpoint_path: str | None = None,
    ):
        self.tags = bio_tagset(types)
        self.trans = bio_transitions(self.tags)
        self.dataset = dataset
        self.use_char_cnn = use_char_cnn
        self.use_char_lstm = use_char_lstm
        self.use_fc_fusion = use_fc_fusion
        self.use_lstm = use_lstm
        # reference nests attention inside the context-LSTM branch
        # (models/models.py:136-151): no recurrence → no attention layer
        self.use_attention = use_attention and use_lstm
        self.cnn_kernels = (3, 5, 7) if dataset == "JNLPBA" else (2, 3, 4)

        if embedding_matrix_path and embedding_table is None:
            import pyarrow.parquet as pq

            t = pq.read_table(embedding_matrix_path, columns=["word", "vector"])
            embedding_table = {
                w: np.asarray(v, dtype=np.float64)
                for w, v in zip(t["word"].to_pylist(), t["vector"].to_pylist())
            }
        if embedding_table:
            dim = len(next(iter(embedding_table.values())))
        else:
            dim = WORD_EMBED_DIM
        self.word_dim = dim
        self._trained = embedding_table or {}
        self._emb_cache: dict[str, np.ndarray] = {}
        # char channels are context-independent per token → memoize per
        # distinct surface form (corpora are Zipfian; bounded for actors)
        self._char_cache: dict[str, np.ndarray] = {}

        rng = np.random.RandomState(seed)
        s = 0.1  # weight scale: keeps pre-tanh activations in range
        p: dict[str, np.ndarray] = {}
        p["char_embedding"] = rng.randn(CHAR_BUCKETS, CHAR_EMBED_DIM) * s
        p["char_embedding"][0] = 0.0  # padding_idx=0 (models/models.py:12)

        char_dim = 0
        if use_char_cnn:
            for k in self.cnn_kernels:
                p[f"cnn_W{k}"] = rng.randn(k * CHAR_EMBED_DIM, CNN_FILTERS) * s
                p[f"cnn_b{k}"] = rng.randn(CNN_FILTERS) * s
            char_dim += CNN_FILTERS * len(self.cnn_kernels)
        if use_char_lstm:
            for d in ("f", "b"):
                p[f"charlstm_Wx_{d}"] = (
                    rng.randn(CHAR_EMBED_DIM, 4 * CHAR_LSTM_HIDDEN) * s
                )
                p[f"charlstm_Wh_{d}"] = (
                    rng.randn(CHAR_LSTM_HIDDEN, 4 * CHAR_LSTM_HIDDEN) * s
                )
                p[f"charlstm_b_{d}"] = rng.randn(4 * CHAR_LSTM_HIDDEN) * s
            char_dim += 2 * CHAR_LSTM_HIDDEN

        combined = dim + char_dim
        if use_fc_fusion:
            p["fusion_W"] = rng.randn(combined, FUSION_DIM) * s
            p["fusion_b"] = rng.randn(FUSION_DIM) * s
            ctx_in = FUSION_DIM
        else:
            ctx_in = combined

        if use_lstm:
            for d in ("f", "b"):
                p[f"ctxlstm_Wx_{d}"] = rng.randn(ctx_in, 4 * CONTEXT_HIDDEN) * s
                p[f"ctxlstm_Wh_{d}"] = rng.randn(CONTEXT_HIDDEN, 4 * CONTEXT_HIDDEN) * s
                p[f"ctxlstm_b_{d}"] = rng.randn(4 * CONTEXT_HIDDEN) * s
            out_dim = 2 * CONTEXT_HIDDEN
            if self.use_attention:
                p["attn_w"] = rng.randn(out_dim) * s
                p["attn_proj"] = rng.randn(2 * out_dim, out_dim) * s
        else:
            out_dim = ctx_in
        self.out_dim = out_dim
        p["emission_W"] = rng.randn(out_dim, len(self.tags)) * s
        p["emission_b"] = rng.randn(len(self.tags)) * s
        # learned score on every BIO-ALLOWED transition, added on top of
        # the hard mask (pipelines/train_combinatorial.py fits it)
        k = len(self.tags)
        p["trans_w"] = np.zeros((k, k), dtype=np.float64)
        self.params = p
        self.checkpoint_report: dict | None = None
        if checkpoint_path:
            from ..state.checkpoint import load_into

            self.checkpoint_report = load_into(checkpoint_path, self.params)
        self.trans = self.trans + self.params["trans_w"]

    # -- checkpoint surface (S5) ------------------------------------
    def parameters(self) -> dict[str, np.ndarray]:
        return self.params

    # -- channels ----------------------------------------------------
    def char_ids(self, tokens: list[str]) -> np.ndarray:
        """[T, MAX_CHAR_LEN] hashed char ids, 0-padded (bucket 0 is
        reserved for padding, matching nn.Embedding(padding_idx=0))."""
        from zlib import crc32

        out = np.zeros((len(tokens), MAX_CHAR_LEN), dtype=np.int64)
        for ti, tok in enumerate(tokens):
            for ci, ch in enumerate(tok[:MAX_CHAR_LEN]):
                out[ti, ci] = crc32(ch.encode("utf-8")) % (CHAR_BUCKETS - 1) + 1
        return out

    def char_cnn(self, emb: np.ndarray) -> np.ndarray:
        """[T, W, d] char embeddings → [T, F·len(kernels)].

        Real convolution: 'same' zero padding (k//2 each side), sliding
        windows, ReLU, max over the char axis — CharCNN.forward
        (models/models.py:19-29) step for step."""
        T, W, d = emb.shape
        feats = []
        for k in self.cnn_kernels:
            pad = k // 2
            x = np.zeros((T, W + 2 * pad, d), dtype=emb.dtype)
            x[:, pad : pad + W] = emb
            # [T, W', k, d] windows over the char axis
            win = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
            win = win.transpose(0, 1, 3, 2).reshape(T, -1, k * d)
            wp = win.shape[1]
            conv = np.maximum(
                gemm_fixed(
                    win.reshape(T * wp, k * d), self.params[f"cnn_W{k}"]
                ).reshape(T, wp, -1)
                + self.params[f"cnn_b{k}"],
                0.0,
            )
            feats.append(conv.max(axis=1))  # max-pool over char positions
        return np.concatenate(feats, axis=1)

    def char_bilstm(self, emb: np.ndarray) -> np.ndarray:
        """[T, W, d] → [T, 2H]: BiLSTM over chars, max-pool the full
        output sequence (CharBiLSTM.forward, models/models.py:41-52).
        All T tokens run as one LSTM batch — the loop is W steps."""
        out = bilstm(emb, self.params, "charlstm")  # [T, W, 2H]
        return out.max(axis=1)

    def word_embeddings(self, tokens: list[str]) -> np.ndarray:
        """Trained-matrix lookup with deterministic hash OOV (J4/A10)."""
        from zlib import crc32

        T = len(tokens)
        emb = np.empty((T, self.word_dim), dtype=np.float64)
        for ti, tok in enumerate(tokens):
            key = tok.lower()
            v = self._trained.get(key)
            if v is None:
                v = self._emb_cache.get(key)
                if v is None:
                    h = crc32(key.encode("utf-8"))
                    v = np.random.RandomState(h & 0x7FFFFFFF).randn(self.word_dim) * 0.1
                    if len(self._emb_cache) < 500_000:
                        self._emb_cache[key] = v
            emb[ti] = v
        return emb

    def manhattan_attention(self, h: np.ndarray) -> np.ndarray:
        """score(i,j) = -(w·h_j)·|h_i-h_j|_1, softmax_j, ctx=α@h, then
        concat [h, ctx] → linear projection (models/models.py:60-71 +
        144-146). All positions are valid (no padding at decode time),
        so the mask term is identity."""
        dist = np.abs(h[:, None, :] - h[None, :, :]).sum(axis=2)  # [T, T]
        gate = h @ self.params["attn_w"]  # [T]  (w·h_j)
        score = -gate[None, :] * dist
        score -= score.max(axis=1, keepdims=True)
        alpha = np.exp(score)
        alpha /= alpha.sum(axis=1, keepdims=True)
        ctx = alpha @ h
        return np.concatenate([h, ctx], axis=1) @ self.params["attn_proj"]

    def _char_features(self, tokens: list[str]) -> np.ndarray:
        """Per-token char-channel vectors (CNN ‖ BiLSTM), memoized per
        distinct surface form; cache misses run as ONE conv/LSTM batch."""
        cache = self._char_cache
        misses = sorted({t for t in tokens if t not in cache})
        if misses:
            cemb = self.params["char_embedding"][self.char_ids(misses)]  # [M, W, d]
            cols = []
            if self.use_char_cnn:
                cols.append(self.char_cnn(cemb))
            if self.use_char_lstm:
                cols.append(self.char_bilstm(cemb))
            feats = np.concatenate(cols, axis=1)
            if len(cache) < 500_000:  # bound actor memory
                for i, t in enumerate(misses):
                    cache[t] = feats[i]
                miss_map = None
            else:
                miss_map = {t: feats[i] for i, t in enumerate(misses)}
            if miss_map is not None:
                return np.stack([cache.get(t, miss_map.get(t)) for t in tokens])
        return np.stack([cache[t] for t in tokens])

    # -- forward -----------------------------------------------------
    # Sequences per decode bucket: bounds the padded activation block
    # ([256, 100, 48] float64 ≈ 10 MB) while keeping the recurrence
    # GEMMs at useful width. Length-sorted bucketing keeps pad waste
    # low without same-exact-length fragmentation.
    BATCH_DECODE_SEQS = 256

    def scores_batch(
        self, seqs: list[list[str]]
    ) -> tuple[np.ndarray, np.ndarray]:
        """Batched forward over non-empty token sequences → (emissions
        [B, L, K] end-padded, lens [B]) — CombinatorialNER.forward
        (models/models.py:165-186) with the CRF head factored out.

        COMPOSITION-INDEPENDENT by construction: every matmul whose row
        count varies with batching runs through ``gemm_fixed``; the
        backward context-LSTM lane is length-masked so padded steps
        leave state untouched; attention (whose α@h reduction length IS
        the sequence length) runs per sequence on the real slice. Row
        i's emissions therefore depend only on sequence i — batched
        serving, B=1 single decode, and the sequential oracle replay
        all produce the same bits."""
        B = len(seqs)
        lens = np.fromiter((len(s) for s in seqs), dtype=np.int64, count=B)
        L = int(lens.max())
        flat = [t for s in seqs for t in s]
        chans = [self.word_embeddings(flat)]
        if self.use_char_cnn or self.use_char_lstm:
            chans.append(self._char_features(flat))
        x = np.concatenate(chans, axis=1)  # [N_real, comb]

        if self.use_fc_fusion:
            x = gemm_fixed(x, self.params["fusion_W"]) + self.params["fusion_b"]
            if self.dataset == "NCBI":  # models/models.py:121-126
                x = np.maximum(x, 0.0)

        rows = np.repeat(np.arange(B), lens)
        cols = np.concatenate([np.arange(n) for n in lens])
        if self.use_lstm:
            pad = np.zeros((B, L, x.shape[1]), dtype=np.float64)
            pad[rows, cols] = x
            h = bilstm(pad, self.params, "ctxlstm", lens=lens)  # [B, L, 2H]
            if self.use_attention:
                a = np.zeros((B, L, self.out_dim), dtype=np.float64)
                for i in range(B):
                    n = int(lens[i])
                    a[i, :n] = self.manhattan_attention(h[i, :n])
                h = a
            hflat = h[rows, cols]
        else:
            hflat = x

        raw = gemm_fixed(hflat, self.params["emission_W"]) + self.params["emission_b"]
        em = np.zeros((B, L, raw.shape[1]), dtype=np.float64)
        em[rows, cols] = raw
        return em, lens

    def scores(self, tokens: list[str]) -> np.ndarray:
        """[T, K] emissions for one sequence — the B=1 slice of the one
        batched forward implementation (bit-equal at any batch size)."""
        em, lens = self.scores_batch([tokens])
        return em[0, : int(lens[0])]

    def decode_tokens_batch(self, token_lists: list[list[str]]) -> list[list[str]]:
        """Pure-model Viterbi over many sequences: raw emissions +
        learned transition scores under the hard BIO mask. 'O' beyond
        MAX_SEQ_LEN (reference truncation). Runs on the shared
        crf.batched_decode_harness (length-sorted buckets, one batched
        forward + batched Viterbi each). Shared verbatim by the
        distributed stage and the sequential oracle replay — and
        bit-identical to per-sequence decoding (see scores_batch)."""
        return batched_decode_harness(
            token_lists,
            self.trans,
            self.tags,
            em_for_chunk=lambda chunk: self.scores_batch([t for _, t in chunk]),
            cap=self.BATCH_DECODE_SEQS,
        )

    def decode_tokens(self, tokens: list[str]) -> list[str]:
        return self.decode_tokens_batch([tokens])[0]
