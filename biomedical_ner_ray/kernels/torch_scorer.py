"""Torch-optional serving of the trained CombinatorialNER checkpoint —
the reference's actual deployment stack (``app.py:181-205`` loads a
torch checkpoint, ``app.py:266-271`` moves it to CUDA) behind the SAME
annotate-stage actor slot as the numpy scorer.

This sandbox has no torch and no GPU, so:

- importing this module is always safe (no torch import at module
  scope);
- constructing ``TorchCombinatorialScorer`` raises a clear ImportError
  when torch is absent — the numpy ``CombinatorialScorer`` serves the
  same ``.npz`` checkpoint identically;
- where torch IS present, the forward mirrors the numpy implementation
  OPERATION FOR OPERATION (same sliding-window conv formulation, same
  i|f|o|g gate math with the same clip, same attention algebra), so
  ``tests/test_torch_scorer.py`` can assert torch emissions == numpy
  emissions to float tolerance before the slot is trusted — that test
  is skipif-no-torch and runs wherever a torch env exists;
- ``device="cuda"`` pairs with ``annotate_stage(actor_pool_kwargs=
  {"num_gpus": ...})`` — the per-actor GPU slot that is already
  plumbing-tested.
"""

from __future__ import annotations

import numpy as np

from ..kernels.tokenize import MAX_SEQ_LEN
from .combinatorial import CombinatorialScorer
from .crf import viterbi_decode


class TorchCombinatorialScorer:
    """Tensor twin of ``CombinatorialScorer``.

    Holds the numpy scorer for tokenizer/char-id/word-vector logic (all
    deterministic and device-independent) and re-runs the neural
    forward in torch on ``device``; decode stays the engine's
    BIO-masked Viterbi over the resulting emissions, so outputs are
    decode-identical whenever emissions agree."""

    def __init__(
        self,
        types: list[str],
        checkpoint_path: str,
        device: str | None = None,
    ):
        try:
            import torch
        except ImportError as e:  # honest gate, never a silent fallback
            raise ImportError(
                "torch is not installed in this environment; serve the "
                "checkpoint with CombinatorialScorer "
                "(identical outputs, numpy forward) or install torch "
                "for the GPU path"
            ) from e
        self._torch = torch
        self.np_scorer = CombinatorialScorer(types, checkpoint_path=checkpoint_path)
        self.tags = self.np_scorer.tags
        self.trans = self.np_scorer.trans
        self.kernels = self.np_scorer.cnn_kernels
        if device is None:
            device = "cuda" if torch.cuda.is_available() else "cpu"
        self.device = device
        self.p = {
            k: torch.tensor(v, dtype=torch.float32, device=device)
            for k, v in self.np_scorer.params.items()
        }

    # -- forward ------------------------------------------------------
    def _lstm(self, x, prefix: str):
        """[B,S,D] → [B,S,2H]: manual i|f|o|g recurrence, the exact
        numpy gate math (combinatorial.lstm_forward) in torch ops."""
        torch = self._torch
        outs = []
        for d in ("f", "b"):
            Wx, Wh, b = (
                self.p[f"{prefix}_Wx_{d}"],
                self.p[f"{prefix}_Wh_{d}"],
                self.p[f"{prefix}_b_{d}"],
            )
            B, S, _ = x.shape
            H = Wh.shape[0]
            h = torch.zeros(B, H, device=self.device)
            c = torch.zeros(B, H, device=self.device)
            out = torch.empty(B, S, H, device=self.device)
            xp = x @ Wx
            steps = range(S - 1, -1, -1) if d == "b" else range(S)
            for t in steps:
                g = xp[:, t] + h @ Wh + b
                i = torch.sigmoid(torch.clamp(g[:, :H], -30.0, 30.0))
                f = torch.sigmoid(torch.clamp(g[:, H : 2 * H], -30.0, 30.0))
                o = torch.sigmoid(torch.clamp(g[:, 2 * H : 3 * H], -30.0, 30.0))
                u = torch.tanh(g[:, 3 * H :])
                c = f * c + i * u
                h = o * torch.tanh(c)
                out[:, t] = h
            outs.append(out)
        return torch.cat(outs, dim=2)

    def _char_features(self, tokens: list[str]):
        torch = self._torch
        cids = self.np_scorer.char_ids(tokens)  # [T, W] int64
        emb = self.p["char_embedding"][torch.tensor(cids, device=self.device)]
        T, W, d = emb.shape
        cols = []
        for k in self.kernels:
            pad = k // 2
            x = torch.zeros(T, W + 2 * pad, d, device=self.device)
            x[:, pad : pad + W] = emb
            win = x.unfold(1, k, 1)  # [T, W', d, k]
            win = win.permute(0, 1, 3, 2).reshape(T, -1, k * d)
            conv = torch.relu(win @ self.p[f"cnn_W{k}"] + self.p[f"cnn_b{k}"])
            cols.append(conv.max(dim=1).values)
        lo = self._lstm(emb, "charlstm")
        cols.append(lo.max(dim=1).values)
        return torch.cat(cols, dim=1)

    def scores(self, tokens: list[str]) -> np.ndarray:
        """[T, K] raw emissions — torch forward, numpy out."""
        torch = self._torch
        with torch.no_grad():
            wv = torch.tensor(
                self.np_scorer.word_embeddings(tokens),
                dtype=torch.float32, device=self.device,
            )
            combined = torch.cat([wv, self._char_features(tokens)], dim=1)
            fused = combined @ self.p["fusion_W"] + self.p["fusion_b"]
            if self.np_scorer.dataset == "NCBI":
                fused = torch.relu(fused)
            h = self._lstm(fused[None, :, :], "ctxlstm")[0]  # [T, 2H]
            # Manhattan attention (combinatorial.manhattan_attention)
            dist = (h[:, None, :] - h[None, :, :]).abs().sum(dim=2)
            gate = h @ self.p["attn_w"]
            score = -gate[None, :] * dist
            score = score - score.max(dim=1, keepdim=True).values
            alpha = torch.exp(score)
            alpha = alpha / alpha.sum(dim=1, keepdim=True)
            ctx = alpha @ h
            out = torch.cat([h, ctx], dim=1) @ self.p["attn_proj"]
            em = out @ self.p["emission_W"] + self.p["emission_b"]
            return em.double().cpu().numpy()

    # -- decode (the annotate-stage contract) -------------------------
    def decode_tokens(self, tokens: list[str]) -> list[str]:
        limit = min(len(tokens), MAX_SEQ_LEN)
        if limit == 0:
            return ["O"] * len(tokens)
        em = self.scores(tokens[:limit])
        path = viterbi_decode(em, self.trans)
        return [self.tags[i] for i in path] + ["O"] * (len(tokens) - limit)

    def decode_tokens_batch(self, token_lists: list[list[str]]) -> list[list[str]]:
        return [self.decode_tokens(toks) for toks in token_lists]
