"""Backprop kernels for the FULL CombinatorialNER — gradient descent
through every channel of the reference model (``models/models.py:73-193``):
char-CNN (:8-29), char-BiLSTM (:32-52), FC fusion (:118-130), context
BiLSTM (:136-158), Manhattan attention (:57-71, :144-146) and a CRF
head — in numpy, float32, batched over SAME-LENGTH sequence buckets
(no masks anywhere: a bucket's sequences share L, a token's char
buffer is always MAX_CHAR_LEN wide to match serving exactly).

Scope notes (mirrors of the serving scorer, kernels/combinatorial.py):

- the WORD channel is frozen deterministic hash vectors — the
  reference's pre-trained-embedding configuration (BioWordVec frozen),
  so the checkpoint stays exactly the scorer's parameter dict;
- ``char_embedding`` row 0 is pinned to zero (padding_idx=0,
  models/models.py:12) by zeroing its gradient;
- the CRF keeps the BIO structural mask HARD (-inf, kernels/crf.py)
  and learns a finite score on every ALLOWED transition (``trans_w``,
  zero-init) — torchcrf learns the soft version; the hard mask keeps
  decode outputs structurally valid by construction;
- training emissions are RAW logits (no tanh bound), exactly what
  ``CombinatorialScorer.scores`` serves.

The loss is the standard CRF negative log-likelihood; gradients come
from forward-backward marginals (emissions) and pairwise marginals
(transitions). Every kernel here has a finite-difference check in
``tests/test_combinatorial_trained.py``.
"""

from __future__ import annotations

import numpy as np

from .combinatorial import (
    CHAR_EMBED_DIM,
    CHAR_LSTM_HIDDEN,
    CNN_FILTERS,
    MAX_CHAR_LEN,
)

F32 = np.float32


def _sigmoid(x: np.ndarray) -> np.ndarray:
    return 1.0 / (1.0 + np.exp(-np.clip(x, -30.0, 30.0)))


# ---------------------------------------------------------------------------
# LSTM with cache (gate layout i|f|o|g, matching combinatorial.lstm_forward)
# ---------------------------------------------------------------------------


def lstm_fwd_cache(x, Wx, Wh, b, reverse: bool):
    """x [B,S,D] → (out [B,S,H], cache). Identical recurrence to the
    serving ``lstm_forward`` (same gate order, same clip) plus the
    per-step state needed for BPTT."""
    B, S, D = x.shape
    H = Wh.shape[0]
    xp = (x.reshape(B * S, D) @ Wx).reshape(B, S, 4 * H)
    h = np.zeros((B, H), dtype=x.dtype)
    c = np.zeros((B, H), dtype=x.dtype)
    out = np.empty((B, S, H), dtype=x.dtype)
    I = np.empty((B, S, H), dtype=x.dtype)
    F = np.empty_like(I)
    O = np.empty_like(I)
    U = np.empty_like(I)
    C = np.empty_like(I)
    Cp = np.empty_like(I)
    Hp = np.empty_like(I)
    steps = range(S - 1, -1, -1) if reverse else range(S)
    for t in steps:
        g = xp[:, t] + h @ Wh + b
        i = _sigmoid(g[:, :H])
        f = _sigmoid(g[:, H : 2 * H])
        o = _sigmoid(g[:, 2 * H : 3 * H])
        u = np.tanh(g[:, 3 * H :])
        Hp[:, t] = h
        Cp[:, t] = c
        c = f * c + i * u
        h = o * np.tanh(c)
        I[:, t], F[:, t], O[:, t], U[:, t], C[:, t] = i, f, o, u, c
        out[:, t] = h
    return out, {"x": x, "I": I, "F": F, "O": O, "U": U, "C": C,
                 "Cp": Cp, "Hp": Hp, "reverse": reverse}


def lstm_bwd(dout, Wx, Wh, cache):
    """dout [B,S,H] → (dx, dWx, dWh, db). Standard BPTT over the cached
    gates, iterated in the reverse of the forward's step order."""
    x = cache["x"]
    B, S, D = x.shape
    H = Wh.shape[0]
    I, F, O, U, C, Cp, Hp = (cache[k] for k in ("I", "F", "O", "U", "C", "Cp", "Hp"))
    dXP = np.zeros((B, S, 4 * H), dtype=x.dtype)
    dWh = np.zeros_like(Wh)
    dh_next = np.zeros((B, H), dtype=x.dtype)
    dc_next = np.zeros((B, H), dtype=x.dtype)
    fwd_steps = range(S - 1, -1, -1) if cache["reverse"] else range(S)
    for t in reversed(list(fwd_steps)):
        i, f, o, u, c = I[:, t], F[:, t], O[:, t], U[:, t], C[:, t]
        tc = np.tanh(c)
        dh = dout[:, t] + dh_next
        do = dh * tc
        dc = dh * o * (1.0 - tc * tc) + dc_next
        di = dc * u
        du = dc * i
        df = dc * Cp[:, t]
        dc_next = dc * f
        dg = np.concatenate(
            [di * i * (1.0 - i), df * f * (1.0 - f), do * o * (1.0 - o),
             du * (1.0 - u * u)],
            axis=1,
        )
        dXP[:, t] = dg
        dWh += Hp[:, t].T @ dg
        dh_next = dg @ Wh.T
    dWx = x.reshape(B * S, D).T @ dXP.reshape(B * S, 4 * H)
    db = dXP.sum(axis=(0, 1))
    dx = (dXP.reshape(B * S, 4 * H) @ Wx.T).reshape(B, S, D)
    return dx, dWx, dWh, db


# ---------------------------------------------------------------------------
# char channels over the batch's DISTINCT tokens
# ---------------------------------------------------------------------------


def char_stack_fwd(params, cids, kernels):
    """cids [M, MAX_CHAR_LEN] hashed char ids → (feat [M, char_dim],
    cache). CNN channels first (per kernel, 'same' pad, ReLU, max-pool)
    then the char-BiLSTM max-pool — concat order matches
    ``CombinatorialScorer._char_features``."""
    emb = params["char_embedding"][cids]  # [M, W, d]
    M, W, d = emb.shape
    cache = {"cids": cids, "emb_shape": emb.shape, "cnn": {}, "emb": emb}
    cols = []
    for k in kernels:
        pad = k // 2
        x = np.zeros((M, W + 2 * pad, d), dtype=emb.dtype)
        x[:, pad : pad + W] = emb
        win = np.lib.stride_tricks.sliding_window_view(x, k, axis=1)
        win = win.transpose(0, 1, 3, 2).reshape(M, -1, k * d)
        pre = win @ params[f"cnn_W{k}"] + params[f"cnn_b{k}"]
        act = np.maximum(pre, 0.0)
        arg = act.argmax(axis=1)  # [M, F] winning window per filter
        cache["cnn"][k] = {"win": win, "pre": pre, "arg": arg, "pad": pad}
        cols.append(np.take_along_axis(act, arg[:, None, :], axis=1)[:, 0, :])
    outs = []
    for dpre in ("f", "b"):
        o, c = lstm_fwd_cache(
            emb, params[f"charlstm_Wx_{dpre}"], params[f"charlstm_Wh_{dpre}"],
            params[f"charlstm_b_{dpre}"], reverse=(dpre == "b"),
        )
        cache[f"lstm_{dpre}"] = (o, c)
        outs.append(o)
    lo = np.concatenate(outs, axis=2)  # [M, W, 2H]
    larg = lo.argmax(axis=1)  # [M, 2H]
    cache["larg"] = larg
    cols.append(np.take_along_axis(lo, larg[:, None, :], axis=1)[:, 0, :])
    return np.concatenate(cols, axis=1), cache


def char_stack_bwd(params, dfeat, cache, kernels, grads):
    """dfeat [M, char_dim] → accumulates grads for cnn_*/charlstm_*/
    char_embedding (row 0 zeroed — padding_idx)."""
    emb = cache["emb"]
    M, W, d = cache["emb_shape"]
    demb = np.zeros_like(emb)
    off = 0
    for k in kernels:
        dcol = dfeat[:, off : off + CNN_FILTERS]
        off += CNN_FILTERS
        cc = cache["cnn"][k]
        win, pre, arg, pad = cc["win"], cc["pre"], cc["arg"], cc["pad"]
        dact = np.zeros_like(pre)
        np.put_along_axis(dact, arg[:, None, :], dcol[:, None, :], axis=1)
        dpre = dact * (pre > 0.0)
        Wk = params[f"cnn_W{k}"]
        Mw = win.shape[1]
        grads[f"cnn_W{k}"] += win.reshape(M * Mw, k * d).T @ dpre.reshape(M * Mw, -1)
        grads[f"cnn_b{k}"] += dpre.sum(axis=(0, 1))
        dwin = (dpre.reshape(M * Mw, -1) @ Wk.T).reshape(M, Mw, k, d)
        # scatter windows back onto the padded input, then strip pad
        dxp = np.zeros((M, W + 2 * pad, d), dtype=emb.dtype)
        for j in range(k):
            dxp[:, j : j + Mw] += dwin[:, :, j, :]
        demb += dxp[:, pad : pad + W]
    H2 = 2 * CHAR_LSTM_HIDDEN
    dlcol = dfeat[:, off : off + H2]
    lo_f, _ = cache["lstm_f"]
    dlo = np.zeros((M, W, H2), dtype=emb.dtype)
    np.put_along_axis(dlo, cache["larg"][:, None, :], dlcol[:, None, :], axis=1)
    for idx, dpre in enumerate(("f", "b")):
        o, c = cache[f"lstm_{dpre}"]
        sl = slice(idx * CHAR_LSTM_HIDDEN, (idx + 1) * CHAR_LSTM_HIDDEN)
        dx, dWx, dWh, db = lstm_bwd(
            np.ascontiguousarray(dlo[:, :, sl]),
            params[f"charlstm_Wx_{dpre}"], params[f"charlstm_Wh_{dpre}"], c,
        )
        grads[f"charlstm_Wx_{dpre}"] += dWx
        grads[f"charlstm_Wh_{dpre}"] += dWh
        grads[f"charlstm_b_{dpre}"] += db
        demb += dx
    ge = grads["char_embedding"]
    np.add.at(ge, cache["cids"].ravel(), demb.reshape(M * W, d))
    ge[0] = 0.0  # padding_idx stays frozen at zero


# ---------------------------------------------------------------------------
# Manhattan attention
# ---------------------------------------------------------------------------


def attention_fwd(params, h):
    """h [B,L,H] → (out [B,L,H], cache): score(i,j) = -(w·h_j)·|h_i-h_j|₁,
    softmax over j, ctx = α@h, out = [h‖ctx]@P."""
    w = params["attn_w"]
    P = params["attn_proj"]
    diff = h[:, :, None, :] - h[:, None, :, :]  # [B,L,L,H]
    D = np.abs(diff).sum(axis=3)
    g = h @ w  # [B,L]
    score = -g[:, None, :] * D
    score = score - score.max(axis=2, keepdims=True)
    alpha = np.exp(score)
    alpha /= alpha.sum(axis=2, keepdims=True)
    ctx = alpha @ h
    cat = np.concatenate([h, ctx], axis=2)
    out = cat @ P
    return out, {"h": h, "diff_sign": np.sign(diff), "D": D, "g": g,
                 "alpha": alpha, "cat": cat}


def attention_bwd(params, dout, cache, grads):
    """dout [B,L,H] → dh [B,L,H]; accumulates attn_w / attn_proj."""
    h, S, D, g, alpha, cat = (
        cache["h"], cache["diff_sign"], cache["D"], cache["g"],
        cache["alpha"], cache["cat"],
    )
    P = params["attn_proj"]
    B, L, H = h.shape
    grads["attn_proj"] += cat.reshape(B * L, -1).T @ dout.reshape(B * L, -1)
    dcat = dout @ P.T
    dh = dcat[:, :, :H].copy()
    dctx = dcat[:, :, H:]
    # ctx = alpha @ h
    dalpha = dctx @ h.transpose(0, 2, 1)  # [B,L,L]
    dh += np.einsum("bij,bid->bjd", alpha, dctx)
    # softmax rows (over j)
    ds = alpha * (dalpha - (alpha * dalpha).sum(axis=2, keepdims=True))
    # score = -g_j * D_ij
    dg = -(ds * D).sum(axis=1)  # [B,L] (grad wrt g_j)
    dD = -g[:, None, :] * ds
    grads["attn_w"] += np.einsum("bjd,bj->d", h, dg)
    dh += dg[:, :, None] * params["attn_w"][None, None, :]
    # D_ij = Σ_d |h_id - h_jd|
    dh += np.einsum("bij,bijd->bid", dD, S)
    dh -= np.einsum("bij,bijd->bjd", dD, S)
    return dh


# ---------------------------------------------------------------------------
# CRF NLL over same-length batches
# ---------------------------------------------------------------------------


def _logsumexp(a, axis):
    m = a.max(axis=axis, keepdims=True)
    m = np.where(np.isfinite(m), m, 0.0)
    return (m + np.log(np.exp(a - m).sum(axis=axis, keepdims=True))).squeeze(axis)


def crf_nll(em, trans, y, w):
    """em [B,L,K] float64, trans [K,K] (-inf on forbidden), y [B,L],
    w [B] sequence weights → (weighted NLL sum, dem [B,L,K],
    dtrans [K,K]). Gradients via forward-backward marginals; forbidden
    transition cells get zero gradient (they stay -inf)."""
    B, L, K = em.shape
    # "forbidden" = the hard BIO mask (crf._NEG_INF is a large FINITE
    # constant, so isfinite() would never fire); exp() of those cells
    # underflows to exactly 0 in the marginals
    finite = trans > -1e7
    if L == 1:
        logZ = _logsumexp(em[:, 0], axis=1)
        gold = em[np.arange(B), 0, y[:, 0]]
        p = np.exp(em[:, 0] - logZ[:, None])
        dem = p.copy()
        dem[np.arange(B), y[:, 0]] -= 1.0
        dem = (dem * w[:, None])[:, None, :]
        return float(((logZ - gold) * w).sum()), dem, np.zeros_like(trans)

    alphas = np.empty((B, L, K))
    alphas[:, 0] = em[:, 0]
    for t in range(1, L):
        m = alphas[:, t - 1, :, None] + trans[None, :, :]
        alphas[:, t] = em[:, t] + _logsumexp(m, axis=1)
    logZ = _logsumexp(alphas[:, L - 1], axis=1)

    betas = np.empty((B, L, K))
    betas[:, L - 1] = 0.0
    for t in range(L - 2, -1, -1):
        m = trans[None, :, :] + (em[:, t + 1] + betas[:, t + 1])[:, None, :]
        betas[:, t] = _logsumexp(m, axis=2)

    gamma = np.exp(alphas + betas - logZ[:, None, None])
    dem = gamma.copy()
    rows = np.arange(B)
    for t in range(L):
        dem[rows, t, y[:, t]] -= 1.0
    dem *= w[:, None, None]

    dtrans = np.zeros_like(trans)
    for t in range(1, L):
        xi = np.exp(
            alphas[:, t - 1, :, None]
            + np.where(finite, trans, -np.inf)[None, :, :]
            + (em[:, t] + betas[:, t])[:, None, :]
            - logZ[:, None, None]
        )
        dtrans += np.einsum("bij,b->ij", xi, w)
        np.subtract.at(dtrans, (y[:, t - 1], y[:, t]), w)
    dtrans[~finite] = 0.0

    gold = em[rows[:, None], np.arange(L)[None, :], y].sum(axis=1)
    for t in range(1, L):
        gold += trans[y[:, t - 1], y[:, t]]
    return float(((logZ - gold) * w).sum()), dem, dtrans
