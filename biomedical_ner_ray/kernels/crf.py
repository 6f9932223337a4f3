"""BIO tag space, transition mask and Viterbi decode — the CRF head
every model scorer shares (the ``torchcrf.CRF.decode`` slot, reference
``models/models.py:163,189-193``, A7).

- ``bio_tagset``: deterministic tag ordering, O then B-/I- per type;
- ``bio_transitions``: [K, K] log-transition matrix with invalid BIO
  moves pinned to -inf (trained scorers add learned scores on the
  allowed moves);
- ``viterbi_decode`` / ``viterbi_decode_batch``: max-sum decode over
  [T, K] emissions, single-sequence and batched (bit-exact vs each
  other);
- ``batched_decode_harness``: the length-bucketed batched-decode
  skeleton the model scorers serve through.
"""

from __future__ import annotations

import numpy as np

from .tokenize import MAX_SEQ_LEN

_NEG_INF = -1e9


def bio_tagset(types: list[str]) -> list[str]:
    """Deterministic tag ordering: O first, then B-/I- per sorted type
    (the reference's sorted tag mapping, creation_vocabulaire.py:169-174)."""
    tags = ["O"]
    for t in sorted(types):
        tags.append(f"B-{t}")
        tags.append(f"I-{t}")
    return tags


def bio_transitions(tags: list[str]) -> np.ndarray:
    """[K, K] log-transition matrix: 0 for BIO-valid moves, -inf else.
    I-x is reachable only from B-x / I-x (torchcrf learns this softly;
    we pin it hard). There is no start-transition row, so a path may
    open with I-x."""
    k = len(tags)
    trans = np.zeros((k, k), dtype=np.float64)
    for j, to in enumerate(tags):
        if to.startswith("I-"):
            typ = to[2:]
            for i, frm in enumerate(tags):
                if frm not in (f"B-{typ}", f"I-{typ}"):
                    trans[i, j] = _NEG_INF
    return trans


def viterbi_decode(emissions: np.ndarray, trans: np.ndarray) -> list[int]:
    """Standard max-sum Viterbi over [T, K] emissions, [K, K] transitions."""
    T, K = emissions.shape
    if T == 0:
        return []
    delta = emissions[0].copy()
    back = np.zeros((T, K), dtype=np.int32)
    for t in range(1, T):
        # [K_from, K_to] path scores; argmax over source
        scores = delta[:, None] + trans
        back[t] = np.argmax(scores, axis=0)
        delta = scores[back[t], np.arange(K)] + emissions[t]
    path = [int(np.argmax(delta))]
    for t in range(T - 1, 0, -1):
        path.append(int(back[t, path[-1]]))
    path.reverse()
    return path


def viterbi_decode_batch(
    emissions: np.ndarray, lens: np.ndarray, trans: np.ndarray
) -> list[list[int]]:
    """Batched max-sum Viterbi: emissions [B, L, K] (rows padded past
    ``lens[i]``; pad cells are never read), one shared [K, K] transition
    matrix → per-row best paths of length ``lens[i]``.

    BIT-EXACT vs per-row ``viterbi_decode``: every DP step performs the
    same elementwise additions (``delta + trans``, ``+ emissions[t]``)
    on the same operands and the same first-index ``argmax`` ties, just
    with a leading batch axis — max/argmax/add have no cross-row
    reduction, so batching cannot perturb a single float. The DP runs
    forward, so pad steps after a row's end can never influence the
    deltas recorded at ``lens[i] - 1``."""
    B, L, K = emissions.shape
    if B == 0:
        return []
    delta = emissions[:, 0].copy()  # [B, K]
    backs = np.zeros((L, B, K), dtype=np.int32)
    final_delta = np.empty_like(delta)
    done = lens == 1
    final_delta[done] = delta[done]
    for t in range(1, int(lens.max())):
        scores = delta[:, :, None] + trans[None]  # [B, K_from, K_to]
        bt = np.argmax(scores, axis=1)  # [B, K_to]
        backs[t] = bt
        delta = (
            np.take_along_axis(scores, bt[:, None, :], axis=1)[:, 0, :]
            + emissions[:, t]
        )
        done = lens == t + 1
        if done.any():
            final_delta[done] = delta[done]
    out: list[list[int]] = []
    for i in range(B):
        n = int(lens[i])
        path = [int(np.argmax(final_delta[i]))]
        for t in range(n - 1, 0, -1):
            path.append(int(backs[t, i, path[-1]]))
        path.reverse()
        out.append(path)
    return out


# Sequences per decode bucket in the shared batched-decode harness:
# bounds padded activation memory while keeping batched ops wide.
DECODE_BUCKET_SEQS = 256


def batched_decode_harness(
    token_lists,
    trans: np.ndarray,
    tags: list[str],
    em_for_chunk,
    cap: int = DECODE_BUCKET_SEQS,
) -> list[list[str]]:
    """The ONE skeleton every model scorer's ``decode_tokens_batch``
    runs on: clamp each sequence to MAX_SEQ_LEN, length-sort the work
    list (stable on original index), run ≤``cap``-sequence buckets
    through ``em_for_chunk`` + one batched Viterbi each, and reassemble
    per-row results, ``'O'``-padded past MAX_SEQ_LEN (reference
    truncation).

    ``em_for_chunk(chunk)`` → (emissions [B, L, K] end-padded, lens [B])
    for ``chunk`` = list of (original_index, clamped tokens)."""
    results: list[list[str]] = [[] for _ in token_lists]
    work: list[tuple[int, list[str]]] = []
    for i, toks in enumerate(token_lists):
        if toks:
            work.append((i, toks[:MAX_SEQ_LEN]))
    work.sort(key=lambda it: (len(it[1]), it[0]))
    for s in range(0, len(work), cap):
        chunk = work[s : s + cap]
        em, lens = em_for_chunk(chunk)
        paths = viterbi_decode_batch(em, lens, trans)
        for (i, toks), path in zip(chunk, paths):
            results[i] = [tags[j] for j in path] + ["O"] * (
                len(token_lists[i]) - len(toks)
            )
    return results
