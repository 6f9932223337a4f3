"""NER tagger training loop — the reference's primary model lifecycle
(``JNLPBA.ipynb`` cell 11 ``run_pipeline`` / ``NCBI_new.ipynb`` cell 12)
re-expressed for the engine's learned scorer (kernels/learned.py):

- Adam (lr=1e-3, weight_decay=5e-4, betas 0.9/0.999) — the reference's
  optimizer settings verbatim;
- epoch cap ``MAX_EPOCHS`` (=40) with ``PATIENCE`` (=4) early stopping
  on dev F1 — the reference's loop shape;
- mild multiplicative lr decay per epoch (the reference decays lr
  manually on plateau; a fixed 0.97 schedule keeps training
  deterministic);
- checkpoint on BEST dev F1 (token macro-F1 excluding O/O — the
  reference's cell-9 ``calculate_metrics`` semantics), restored for
  inference via state/checkpoint.py (S5).

Training data: the deterministic transcript fixture, gold tags from the
greedy dictionary tagger (the engine's oracle-exact mention standard),
split 70/15/15 by conv_id md5 — the SAME rule as ``kg_split_assign``
(O3) so the splits are an already-verified operator. Imperfection is
planted deliberately and deterministically:

- ``NOISE_PERMILLE`` of train-split token labels are flipped by an
  md5 coin (entity→O dropout; O→md5-chosen B-type): label noise the
  fit must absorb, per the round-3 brief;
- feature hashing collisions (kernels/learned.py bucket sizes) bound
  capacity.

Dev/test splits are never noised, so the resulting test-split mention
P/R measures genuine generalization error — asserted 0.95 ≤ P,R < 1.0
(north rule ≥0.95; <1.0 proves the weights, not the dictionary, decide).

Everything here is driver-side numpy over the SMALL canonical training
fixture (sf0.01, ~250k tokens) producing a checkpoint ARTIFACT; the
distributed engine then serves that artifact through the annotate-stage
actor pool at any scale. That split (train small+central, serve
distributed) is the reference's own deployment shape (train in a
notebook, serve via app.py).
"""

from __future__ import annotations

import os

import numpy as np
import pyarrow as pa
import pyarrow.parquet as pq

from ..kernels.hashing import stable_u64_md5
from ..kernels.learned import FEATURE_DIM, LearnedScorer, row_feature
from ..kernels.tagger import AliasDict, tag_tokens
from ..kernels.tokenize import MAX_SEQ_LEN, TOKEN_RE
from ..state import manifest as mf
from ..state.checkpoint import save_checkpoint

TAGGER_VERSION = "tagger-v1"
# serving-decode version: part of the replay fingerprint only, so a
# change to how LearnedScorer computes emissions rebuilds the cached
# expected_tags replay while the checkpoint stays cached
SERVE_VERSION = "tagger-serve-v2"
MAX_EPOCHS = 24
PATIENCE = 4
LR = 1e-3
WEIGHT_DECAY = 5e-4
LR_DECAY = 0.97
NOISE_PERMILLE = 120  # 12% of train-split token labels flipped
STEPS_PER_EPOCH = 40  # ≈ one minibatch pass over the raw train tokens
SEED = 20240817


def _split_of(conv_id: str) -> str:
    """70/15/15 by conv md5 — identical rule to queries.kg_split_assign."""
    r = stable_u64_md5(conv_id.encode("utf-8")) % 100
    return "train" if r < 70 else ("dev" if r < 85 else "test")


def _noise_tag(conv_id: str, turn_idx: int, tok_idx: int, gold: str,
               tags: list[str]) -> str:
    """Deterministic md5-coin label noise (train split only)."""
    h = stable_u64_md5(f"noise:{conv_id}:{turn_idx}:{tok_idx}".encode())
    if h % 1000 >= NOISE_PERMILLE:
        return gold
    if gold != "O":
        return "O"  # entity dropout
    b_tags = [t for t in tags if t.startswith("B-")]
    return b_tags[(h // 1000) % len(b_tags)]


def load_turns(fixture_paths: dict) -> list[tuple[str, int, list[str]]]:
    """(conv_id, turn_idx, tokens) sorted by (conv_id, turn_idx) — the
    deterministic corpus order every consumer (trainer, replay) shares."""
    files = mf.list_parquet_files(fixture_paths["transcripts"])
    t = pq.read_table(files, columns=["conv_id", "turn_idx", "text"])
    df = t.to_pandas().sort_values(["conv_id", "turn_idx"], ignore_index=True)
    return [
        (c, int(i), TOKEN_RE.findall(x) if x else [])
        for c, i, x in zip(df["conv_id"], df["turn_idx"], df["text"])
    ]


def _weighted_arrays(turns, alias: AliasDict, tags: list[str]):
    """Per split: (X[D,F], y[D], weight[D]) over DISTINCT examples.

    A token's feature vector is fully determined by (token-lower,
    leading-cap flag, prev-lower, next-lower) — kernels/learned.py — so
    the templated corpus collapses ~175k train tokens to ~5.6k distinct
    (features, label) rows. Weighted cross-entropy over the distinct
    rows is EXACTLY the token-level loss (identical gradient), at ~30×
    less matmul traffic. Train labels noised, dev/test clean; only the
    first MAX_SEQ_LEN tokens of a turn train/evaluate (decode region)."""
    tag_index = {t: i for i, t in enumerate(tags)}
    # key -> [count, rep_token, prev_lower|None, next_lower|None, y]
    data: dict[str, dict] = {s: {} for s in ("train", "dev", "test")}
    for conv_id, turn_idx, tokens in turns:
        if not tokens:
            continue
        split = _split_of(conv_id)
        toks = tokens[:MAX_SEQ_LEN]
        gold = tag_tokens(tokens, alias)[: len(toks)]
        if split == "train":
            gold = [
                _noise_tag(conv_id, turn_idx, i, g, tags)
                for i, g in enumerate(gold)
            ]
        d = data[split]
        for i, (tk, g) in enumerate(zip(toks, gold)):
            pv = toks[i - 1].lower() if i else None
            nx = toks[i + 1].lower() if i + 1 < len(toks) else None
            # tokens are never "" (the tokenizer regex), so "" is a safe
            # sortable BOS/EOS sentinel in the key
            key = (tk.lower(), tk[:1].isupper(), pv or "", nx or "", g)
            ent = d.get(key)
            if ent is None:
                d[key] = [1, tk, pv, nx, tag_index[g]]
            else:
                ent[0] += 1
    out = {}
    for s, d in data.items():
        rows = sorted(d.items())  # deterministic row order
        dcount = len(rows)
        x = np.zeros((dcount, FEATURE_DIM), dtype=np.float32)
        y = np.zeros(dcount, dtype=np.int64)
        wt = np.zeros(dcount, dtype=np.float32)
        for r, (_k, (cnt, tk, pv, nx, yi)) in enumerate(rows):
            x[r] = row_feature(tk, pv, nx)
            y[r] = yi
            wt[r] = cnt
        out[s] = (x, y, wt)
    return out


def _dev_macro_f1(
    logits: np.ndarray, y: np.ndarray, wt: np.ndarray, n_tags: int
) -> float:
    """Token macro-F1 over classes, pairs where gold or pred ≠ O
    (tag 0) — reference cell-9 semantics, vectorized; tp/fp/fn are
    weighted by the distinct-row counts so the number equals the
    per-token metric exactly."""
    pred = logits.argmax(axis=1)
    mask = (y != 0) | (pred != 0)
    yk, pk, wk = y[mask], pred[mask], wt[mask]
    f1s = []
    for k in range(1, n_tags):
        tp = float(wk[(yk == k) & (pk == k)].sum())
        fp = float(wk[(yk != k) & (pk == k)].sum())
        fn = float(wk[(yk == k) & (pk != k)].sum())
        if tp + fp + fn == 0:
            continue
        prec = tp / (tp + fp) if tp + fp else 0.0
        rec = tp / (tp + fn) if tp + fn else 0.0
        f1s.append(2 * prec * rec / (prec + rec) if prec + rec else 0.0)
    return float(np.mean(f1s)) if f1s else 0.0


def train_tagger(fixture_paths: dict, checkpoint_path: str) -> dict:
    """Fit (W, b), checkpoint the best-dev-F1 epoch, return the history.

    The loss is weighted softmax CE over DISTINCT (features, label)
    rows (``_weighted_arrays``) — gradient-identical to per-token CE at
    ~30× less traffic; an "epoch" is ``STEPS_PER_EPOCH`` exact
    full-batch Adam steps (the step count of a minibatch pass over the
    raw tokens), so the epoch/patience/checkpoint lifecycle keeps the
    reference's shape."""
    rows = pq.read_table(fixture_paths["alias_dict"]).to_pylist()
    alias = AliasDict(rows)
    types = sorted({e.type for e in alias.by_key.values()})
    from ..kernels.crf import bio_tagset

    tags = bio_tagset(types)
    k = len(tags)

    turns = load_turns(fixture_paths)
    arr = _weighted_arrays(turns, alias, tags)
    xtr, ytr, wtr = arr["train"]
    xdev, ydev, wdev = arr["dev"]
    n = len(ytr)
    onehot = np.zeros((n, k), dtype=np.float32)
    onehot[np.arange(n), ytr] = 1.0
    wn = (wtr / max(wtr.sum(), 1.0)).astype(np.float32)[:, None]

    rng = np.random.RandomState(SEED)
    # float32 throughout: deterministic in-container, 2× the matmul rate
    # of float64, and the checkpoint consumer upcasts at load
    w = (rng.randn(FEATURE_DIM, k) * 0.01).astype(np.float32)
    b = np.zeros(k, dtype=np.float32)
    mw = np.zeros_like(w); vw = np.zeros_like(w)
    mb = np.zeros_like(b); vb = np.zeros_like(b)
    beta1, beta2, eps = 0.9, 0.999, 1e-8

    best_f1, best_epoch, since_best = -1.0, -1, 0
    best_w, best_b = w.copy(), b.copy()
    history: list[dict] = []
    lr = np.float32(LR)
    step = 0
    for epoch in range(MAX_EPOCHS):
        for _ in range(STEPS_PER_EPOCH):
            logits = xtr @ w + b
            logits -= logits.max(axis=1, keepdims=True)
            p = np.exp(logits)
            p /= p.sum(axis=1, keepdims=True)
            g = (p - onehot) * wn
            gw = xtr.T @ g + np.float32(WEIGHT_DECAY) * w
            gb = g.sum(axis=0)
            step += 1
            mw = beta1 * mw + (1 - beta1) * gw; vw = beta2 * vw + (1 - beta2) * gw**2
            mb = beta1 * mb + (1 - beta1) * gb; vb = beta2 * vb + (1 - beta2) * gb**2
            w -= lr * (mw / (1 - beta1**step)) / (np.sqrt(vw / (1 - beta2**step)) + eps)
            b -= lr * (mb / (1 - beta1**step)) / (np.sqrt(vb / (1 - beta2**step)) + eps)
        lr *= np.float32(LR_DECAY)
        dev_f1 = _dev_macro_f1(xdev @ w + b, ydev, wdev, k)
        history.append({"epoch": epoch, "dev_f1": round(dev_f1, 6)})
        if dev_f1 > best_f1:
            best_f1, best_epoch, since_best = dev_f1, epoch, 0
            best_w, best_b = w.copy(), b.copy()
        else:
            since_best += 1
            if since_best >= PATIENCE:  # reference's early stop
                break
    meta = {
        "version": TAGGER_VERSION,
        "tags": tags,
        "best_epoch": best_epoch,
        "best_dev_f1": best_f1,
        "epochs_run": len(history),
        "history": history,
        "noise_permille": NOISE_PERMILLE,
        "optimizer": {"name": "adam", "lr": LR, "weight_decay": WEIGHT_DECAY,
                      "lr_decay": LR_DECAY, "patience": PATIENCE},
    }
    save_checkpoint(checkpoint_path, {"W": best_w, "b": best_b}, meta=meta)
    return meta


def replay_expected_tags(
    fixture_paths: dict, checkpoint_path: str, out_path: str, types: list[str]
) -> None:
    """Sequential (non-Ray) decode of the WHOLE fixture with the trained
    checkpoint → (conv_id, turn_idx, tok_idx, token, tag) parquet.

    This is the oracle side of ``kg_mentions_learned``: like the
    kg_embedding_matrix kv.parquet pattern, the non-SQL-expressible part
    (trained weights + Viterbi) enters SQL as a replayed artifact, and
    the SQL re-derives everything downstream (BIO span decode, mention
    assembly) independently."""
    scorer = LearnedScorer(types, checkpoint_path)
    convs, tixs, tidxs, toks, tgs = [], [], [], [], []
    for conv_id, turn_idx, tokens in load_turns(fixture_paths):
        tags = scorer.decode_tokens(tokens)
        for i, (tok, tg) in enumerate(zip(tokens, tags)):
            convs.append(conv_id)
            tixs.append(turn_idx)
            tidxs.append(i)
            toks.append(tok)
            tgs.append(tg)
    pq.write_table(
        pa.table(
            {
                "conv_id": pa.array(convs, pa.string()),
                "turn_idx": pa.array(tixs, pa.int32()),
                "tok_idx": pa.array(tidxs, pa.int32()),
                "token": pa.array(toks, pa.string()),
                "tag": pa.array(tgs, pa.string()),
            }
        ),
        out_path,
    )


TRAIN_FIXTURE = "sf0.01"  # canonical training corpus for the artifact


def ensure_tagger_artifacts(replay_sf: str | None = None) -> dict:
    """Build (once, cached, atomic) the trained checkpoint — always fit
    on the canonical ``TRAIN_FIXTURE`` corpus — plus, if ``replay_sf``
    is given, the sequential expected-tags replay over THAT fixture.
    Returns {"checkpoint": path[, "expected_tags": path]}."""
    import tempfile

    from ..fixtures import ensure_fixture

    train_paths = ensure_fixture(TRAIN_FIXTURE)
    files = mf.list_parquet_files(train_paths["transcripts"])
    in_fp = mf.input_fingerprint(files)
    root = os.path.join(tempfile.gettempdir(), "graft_tagger")
    ckpt_dir = os.path.join(root, "ckpt")

    def build_ckpt(tmp):
        train_tagger(train_paths, os.path.join(tmp, "tagger.npz"))

    mf.run_stage(
        "tagger-ckpt", ckpt_dir, mf.fingerprint(TAGGER_VERSION, "ckpt", in_fp),
        build_ckpt,
    )
    out = {"checkpoint": os.path.join(ckpt_dir, "tagger.npz")}
    if replay_sf is not None:
        rp = ensure_fixture(replay_sf)
        rfiles = mf.list_parquet_files(rp["transcripts"])
        rfp = mf.fingerprint(
            TAGGER_VERSION, SERVE_VERSION, "replay", in_fp,
            mf.input_fingerprint(rfiles),
        )
        rdir = os.path.join(root, f"replay_{replay_sf}")

        def build_replay(tmp):
            rows = pq.read_table(rp["alias_dict"]).to_pylist()
            # same type-set formula as the annotate stage (resolved
            # smallest-CUI entries), so tag spaces always agree
            types = sorted({e.type for e in AliasDict(rows).by_key.values()})
            replay_expected_tags(
                rp, out["checkpoint"], os.path.join(tmp, "expected_tags.parquet"),
                types,
            )

        mf.run_stage("tagger-replay", rdir, rfp, build_replay)
        out["expected_tags"] = os.path.join(rdir, "expected_tags.parquet")
    return out
