"""Learned linear-CRF tagger — the scorer whose WEIGHTS determine output.

The dictionary scorer (kernels/tagger.py) emits the dictionary tags by
construction. This module follows the reference's actual lifecycle
instead: a model is FIT to data
(pipelines/train_tagger.py mirrors the training loop of
``JNLPBA.ipynb`` cell 11 ``run_pipeline`` — Adam lr=1e-3 wd=5e-4,
epoch cap, patience, dev-F1 checkpointing), checkpointed on best dev
F1 (S5), and served through the same ``annotate_stage`` actor slot the
reference serves its BiLSTM-CRF through (``app.py:254-303``). Its
predictions are imperfect by construction (hash-bucket feature
collisions + planted label noise in training), so downstream metrics
(metrics.py, G7) finally score a model that can DISAGREE with gold —
P/R < 1.0, asserted ≥ 0.95 per the north rule.

Architecture (deliberately small but real):
- per-token features: hashed char-trigram counts (``CHAR_BUCKETS``) +
  hashed token-identity one-hot (``TOK_BUCKETS``) + 3 shape flags
  (digit / hyphen / capitalized) — the CharCNN-channel analog with
  bounded capacity (collisions are the honest error source);
- emissions = features @ W + b, W/b TRAINED (softmax CE + Adam);
- BIO-constrained Viterbi decode (kernels/crf.py, A7) over the first
  ``MAX_SEQ_LEN`` tokens (reference truncation, app.py:218-219).

Serving computes the emissions by gather-add, not by the dense
``[T, FEATURE_DIM] @ W``: the features are a token-local block plus two
one-hots, so row t is

    Etok[tok_t] + W_prev[ctx(tok_{t-1}) or BOS] + W_next[ctx(tok_{t+1}) or EOS] + b

with ``Etok = gemm_fixed(base_rows, W[:BASE_DIM])`` cached per distinct
token on the scorer instance. ``gemm_fixed`` is row-pure and the adds
are elementwise, so a row never depends on how the batch was composed,
and ``decode_tokens`` is the one-sequence case of
``decode_tokens_batch``. Training (pipelines/train_tagger.py) still
builds dense rows through ``row_feature``; the two sums agree up to the
last bits of their rounding.

Everything is process-stable (crc32 features, no builtin hash), so a
checkpoint decodes identically on every worker and in the sequential
oracle replay.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa

from .crf import batched_decode_harness, bio_tagset, bio_transitions, ids_to_tags
from .tokenize import MAX_SEQ_LEN

CHAR_BUCKETS = 96
TOK_BUCKETS = 256
SHAPE_DIM = 3
BASE_DIM = CHAR_BUCKETS + TOK_BUCKETS + SHAPE_DIM
# context templates (standard linear-CRF feature shape): hashed
# prev-token and next-token identities, +1 slot each for BOS/EOS
CTX_BUCKETS = 128
FEATURE_DIM = BASE_DIM + 2 * (CTX_BUCKETS + 1)
_PREV_OFF = BASE_DIM
_NEXT_OFF = BASE_DIM + CTX_BUCKETS + 1

# per-process distinct-token caches (vocab is Zipf; this turns
# per-occurrence feature hashing into per-distinct-token)
_FEAT_CACHE: dict[str, np.ndarray] = {}
_ID_CACHE: dict[str, int] = {}


def token_feature(tok: str) -> np.ndarray:
    """[BASE_DIM] float32 token-local feature vector."""
    v = _FEAT_CACHE.get(tok)
    if v is not None:
        return v
    from zlib import crc32

    f = np.zeros(BASE_DIM, dtype=np.float32)
    low = tok.lower()
    s = f"^{low}$"
    for i in range(len(s) - 2):
        f[crc32(s[i : i + 3].encode("utf-8")) % CHAR_BUCKETS] += 1.0
    f[CHAR_BUCKETS + crc32(low.encode("utf-8")) % TOK_BUCKETS] = 1.0
    base = CHAR_BUCKETS + TOK_BUCKETS
    f[base] = 1.0 if any(c.isdigit() for c in tok) else 0.0
    f[base + 1] = 1.0 if "-" in tok else 0.0
    f[base + 2] = 1.0 if tok[:1].isupper() else 0.0
    if len(_FEAT_CACHE) < 500_000:  # bound worker memory
        _FEAT_CACHE[tok] = f
    return f


def _ctx_id(tok: str) -> int:
    v = _ID_CACHE.get(tok)
    if v is None:
        from zlib import crc32

        v = crc32(tok.lower().encode("utf-8")) % CTX_BUCKETS
        if len(_ID_CACHE) < 500_000:
            _ID_CACHE[tok] = v
    return v


def row_feature(tok: str, prev_low: str | None, next_low: str | None) -> np.ndarray:
    """[FEATURE_DIM] vector for one token given its (lowercased)
    neighbors — None = BOS/EOS. Provably equal to the corresponding row
    of ``features`` (property-tested): the trainer's distinct-row dedup
    (pipelines/train_tagger.py) builds rows through this."""
    f = np.zeros(FEATURE_DIM, dtype=np.float32)
    f[:BASE_DIM] = token_feature(tok)
    f[_PREV_OFF + (CTX_BUCKETS if prev_low is None else _ctx_id(prev_low))] = 1.0
    f[_NEXT_OFF + (CTX_BUCKETS if next_low is None else _ctx_id(next_low))] = 1.0
    return f


def features(tokens: list[str]) -> np.ndarray:
    """[T, FEATURE_DIM] float32 feature matrix: token-local base plus
    prev/next-token identity one-hots (BOS/EOS in the +1 slot)."""
    t = len(tokens)
    if t == 0:
        return np.zeros((0, FEATURE_DIM), dtype=np.float32)
    out = np.zeros((t, FEATURE_DIM), dtype=np.float32)
    out[:, :BASE_DIM] = np.stack([token_feature(tk) for tk in tokens])
    ids = np.fromiter((_ctx_id(tk) for tk in tokens), dtype=np.int64, count=t)
    rows = np.arange(t)
    out[rows[1:], _PREV_OFF + ids[:-1]] = 1.0
    out[0, _PREV_OFF + CTX_BUCKETS] = 1.0  # BOS
    out[rows[:-1], _NEXT_OFF + ids[1:]] = 1.0
    out[t - 1, _NEXT_OFF + CTX_BUCKETS] = 1.0  # EOS
    return out


class LearnedScorer:
    """Inference-side scorer for ``annotate_stage(scorer="learned")``:
    checkpoint (W, b) loaded ONCE per actor/worker (A1 contract, S5
    strict/partial restore), batched Viterbi over gather-add emissions.
    Output depends only on the trained weights."""

    # bound on the per-scorer token-row cache, as for _FEAT_CACHE
    ETOK_CACHE_MAX = 500_000

    def __init__(self, types: list[str], checkpoint_path: str):
        self.tags = bio_tagset(types)
        self.trans = bio_transitions(self.tags)
        k = len(self.tags)
        params = {
            "W": np.zeros((FEATURE_DIM, k), dtype=np.float64),
            "b": np.zeros(k, dtype=np.float64),
        }
        from ..state.checkpoint import load_into

        self.checkpoint_report = load_into(checkpoint_path, params)
        self.W = params["W"]
        self.b = params["b"]
        self._w_base = np.ascontiguousarray(self.W[:BASE_DIM])
        self._w_prev = self.W[_PREV_OFF : _PREV_OFF + CTX_BUCKETS + 1]
        self._w_next = self.W[_NEXT_OFF : _NEXT_OFF + CTX_BUCKETS + 1]
        # Etok rows of this checkpoint: token -> row of _etok. On the
        # instance, not the module: two checkpoints in one worker must
        # never share rows.
        self._etok_row: dict[str, int] = {}
        self._etok = np.zeros((1024, k), dtype=np.float64)

    def _token_rows(self, uniq: list[str]) -> np.ndarray:
        """[U, K] ``Etok`` rows of distinct tokens; misses go through
        ``features`` and one ``gemm_fixed``, which is row-pure, so a
        row never depends on which other tokens missed with it."""
        from .combinatorial import gemm_fixed

        get = self._etok_row.get
        ids = np.fromiter((get(t, -1) for t in uniq), dtype=np.int64, count=len(uniq))
        out = self._etok[np.maximum(ids, 0)]
        miss = np.flatnonzero(ids < 0)
        if len(miss):
            toks = [uniq[i] for i in miss]
            base = features(toks)[:, :BASE_DIM].astype(np.float64)
            rows = gemm_fixed(base, self._w_base)
            out[miss] = rows
            n = len(self._etok_row)
            keep = min(len(toks), self.ETOK_CACHE_MAX - n)
            if keep > 0:
                if n + keep > len(self._etok):
                    grown = np.zeros((max(2 * len(self._etok), n + keep),
                                      self._etok.shape[1]))
                    grown[:n] = self._etok[:n]
                    self._etok = grown
                self._etok[n : n + keep] = rows[:keep]
                self._etok_row.update(zip(toks[:keep], range(n, n + keep)))
        return out

    def emissions(self, seqs: list[list[str]]) -> np.ndarray:
        """[sum(len), K] emissions of the concatenated non-empty
        sequences, row by row ``Etok[tok] + W_prev[ctx(prev) or BOS] +
        W_next[ctx(next) or EOS] + b`` — the rows of ``features(seq) @
        W + b`` regrouped: the token-local block is a gather from the
        per-token cache, the two context one-hots are row gathers."""
        lens = np.fromiter((len(q) for q in seqs), dtype=np.int64, count=len(seqs))
        enc = pa.array([t for q in seqs for t in q], pa.string()).dictionary_encode()
        uniq = enc.dictionary.to_pylist()
        inv = enc.indices.to_numpy()
        ctx = np.fromiter((_ctx_id(t) for t in uniq), dtype=np.int64,
                          count=len(uniq))[inv]
        ends = np.cumsum(lens)
        starts = ends - lens
        prev = np.empty_like(ctx)
        prev[1:] = ctx[:-1]
        prev[starts] = CTX_BUCKETS  # BOS
        nxt = np.empty_like(ctx)
        nxt[:-1] = ctx[1:]
        nxt[ends - 1] = CTX_BUCKETS  # EOS
        return self._token_rows(uniq)[inv] + self._w_prev[prev] + self._w_next[nxt] + self.b

    def decode_tokens_batch(self, token_lists: list[list[str]]) -> list[np.ndarray]:
        """Tag ids (into ``self.tags``) of each sequence's first
        MAX_SEQ_LEN tokens: the emissions of every clamped sequence in
        one ``emissions`` call, then one batched Viterbi per
        length-sorted bucket on the shared crf.batched_decode_harness.
        Every emission row is a pure function of its token and its two
        neighbours, so a row's ids never depend on the batch."""
        clamped = [t[:MAX_SEQ_LEN] for t in token_lists if t]
        if not clamped:
            return [np.zeros(0, dtype=np.int64) for _ in token_lists]
        em_flat = self.emissions(clamped)
        lens = np.fromiter((len(t[:MAX_SEQ_LEN]) for t in token_lists),
                           dtype=np.int64, count=len(token_lists))
        offs = np.cumsum(lens) - lens  # empty sequences add no rows

        def em_for_chunk(chunk):
            idx = np.fromiter((i for i, _ in chunk), dtype=np.int64, count=len(chunk))
            cl = lens[idx]
            em = np.zeros((len(chunk), int(cl.max()), self.b.shape[0]))
            r = np.repeat(np.arange(len(chunk)), cl)
            c = np.arange(int(cl.sum())) - np.repeat(np.cumsum(cl) - cl, cl)
            em[r, c] = em_flat[offs[idx][r] + c]
            return em, cl

        return batched_decode_harness(token_lists, self.trans, em_for_chunk)

    def decode_tokens(self, tokens: list[str]) -> list[str]:
        """Tag strings of one sequence, 'O' past MAX_SEQ_LEN: the B=1
        case of ``decode_tokens_batch``, so the sequential oracle
        replay and the distributed stage run one decode path."""
        return ids_to_tags(self.decode_tokens_batch([tokens])[0], self.tags, len(tokens))
