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

Everything is process-stable (crc32 features, no builtin hash), so a
checkpoint decodes identically on every worker and in the sequential
oracle replay.
"""

from __future__ import annotations

import numpy as np

from .crf import batched_decode_harness, bio_tagset, bio_transitions, viterbi_decode
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
    strict/partial restore), Viterbi decode per turn. Output depends
    only on the trained weights."""

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

    def decode_tokens(self, tokens: list[str]) -> list[str]:
        """Viterbi tags for the first MAX_SEQ_LEN tokens; 'O' beyond
        (reference truncation). The single decode path shared by the
        distributed stage AND the sequential oracle replay."""
        limit = min(len(tokens), MAX_SEQ_LEN)
        if limit == 0:
            return ["O"] * len(tokens)
        em = features(tokens[:limit]).astype(np.float64) @ self.W + self.b
        path = viterbi_decode(em, self.trans)
        return [self.tags[i] for i in path] + ["O"] * (len(tokens) - limit)

    def decode_tokens_batch(self, token_lists: list[list[str]]) -> list[list[str]]:
        """Batched decode: per-sequence emissions (their matmul row
        count IS the sequence length, so per-sequence floats never
        depend on batching) + one batched Viterbi per length-sorted
        bucket — bit-identical to ``decode_tokens`` per row. Runs on
        the shared crf.batched_decode_harness."""

        def em_for_chunk(chunk):
            lens = np.fromiter(
                (len(t) for _, t in chunk), dtype=np.int64, count=len(chunk)
            )
            em = np.zeros(
                (len(chunk), int(lens.max()), self.b.shape[0]), dtype=np.float64
            )
            for bi, (_i, toks) in enumerate(chunk):
                em[bi, : len(toks)] = (
                    features(toks).astype(np.float64) @ self.W + self.b
                )
            return em, lens

        return batched_decode_harness(
            token_lists,
            self.trans,
            self.tags,
            em_for_chunk=em_for_chunk,
        )
