"""Corpus balancing + augmentation pipeline (M11 + G8).

Reference being re-expressed: ``utils/fonctionsFaxtText.py``
``augment_sentence`` (:615-670), ``balance_ner_dataset`` (:675-824) with
target computation at :687-709, RNA-priority augmentation :739-768,
other-rare augmentation :771-792, over-represented downsample :794-817;
``is_biologically_plausible`` :553-562.

Ray-Data-first redesign — the reference's balancing loop is a driver
loop whose RNG and mutable deficit dict make every copy depend on the
previous one; that is unparallelizable and non-reproducible under any
partitioning. The engine keeps the DATA-SIZED work distributed and the
TINY work on the driver:

1. **Counts (G4)** — per-tag (≠O) totals as per-block partial counts
   combined on the driver (the BIO tag domain is bounded).
2. **Targets/deficits (G8)** — driver arithmetic over the ≤#tags-row
   count table. The reference's ``int(median*1.2)`` / ``int(max*0.8)``
   float expressions are replaced by the exact integer forms
   ``med*12//10`` / ``mx*8//10`` so the SQL oracle can replicate them
   bit-exactly.
3. **Allocation** — the sequential deficit-decrement loop becomes a
   closed-form deterministic quota: every candidate sentence of a class
   gets ``min(cap, ceil(class_budget / n_class_candidates))`` copies
   (cap 20 for RNA sentences, 3 otherwise — the reference's own caps).
   Pure per-row math over broadcast deficits → embarrassingly parallel,
   identical under any parallelism, SQL-replicable.
4. **Augmentation (M11)** — a stateful actor-pool ``map_batches`` stage:
   the SGNS/FastText artifact (pipelines/embeddings.py) loads once per
   actor; each copy's RNG is seeded from (sent_id, copy, position) so
   retries and parallelism cannot change the output.
5. **Downsample** — sentences whose entities are ALL over-represented
   (> 1.5× target) are dropped with p=0.6 via the same md5-seeded
   coin as kg_downsample.
"""

from __future__ import annotations

import numpy as np
import pandas as pd
import pyarrow as pa

from ..kernels.hashing import stable_u64_md5

RNA_TAGS = ("B-RNA", "I-RNA")
RNA_CAP = 20  # fonctionsFaxtText.py:746 aug_count_per_orig[idx] < 20
OTHER_CAP = 3  # max_aug_per_sentence default (:679)
REPLACE_PROB_RNA = 0.4  # :752
TOP_K_RNA = 15  # :753
REPLACE_PROB = 0.25  # :678
TOP_K = 10  # :680
DOWNSAMPLE_P = 0.6  # :810
OVERREP_NUM, OVERREP_DEN = 3, 2  # "> target * 1.5" as integers (:798)

PLAUSIBLE_BLACKLIST = frozenset(
    {"the", "and", "of", "in", "to", "for", "with", "that", "this"}
)


def is_plausible(word: str) -> bool:
    """M12 predicate (fonctionsFaxtText.py:553-562): len ≥ 2, alphabetic
    once '-'/'_' removed, not a stopword."""
    word = word.strip()
    if not word or len(word) < 2:
        return False
    if not word.replace("-", "").replace("_", "").isalpha():
        return False
    return word.lower() not in PLAUSIBLE_BLACKLIST


# ---------------------------------------------------------------------------
# G4 counts + G8 targets
# ---------------------------------------------------------------------------


def tag_counts(sent_ds) -> pd.DataFrame:
    """Per-BIO-tag (≠O) counts over a (tokens, tags) sentence Dataset —
    G4 as distributed per-block partial counts combined on the driver.

    The BIO tag domain is BOUNDED (2×#entity-types + 1), so each block's
    partial is ≤ |tags| rows and the driver combine sees ≤ blocks×|tags|
    rows — scale-safe without a shuffle execution. An unbounded key
    domain would instead ride ``stages.exchange.grouped_aggregate``."""

    def partial(batch: pa.Table) -> pd.DataFrame:
        flat = pa.compute.list_flatten(batch["tags"])
        vc = flat.to_pandas().value_counts()
        vc = vc[vc.index != "O"]
        return pd.DataFrame({"tag": vc.index, "n": vc.to_numpy()})

    partials = sent_ds.map_batches(partial, batch_format="pyarrow").to_pandas()
    if not len(partials):
        return pd.DataFrame({"tag": pd.Series([], dtype="object"), "n": []})
    return partials.groupby("tag", sort=False, as_index=False)["n"].sum()


def compute_targets(counts: dict[str, int]) -> pd.DataFrame:
    """G8 deficit targets (fonctionsFaxtText.py:687-709) with exact
    integer arithmetic; returns (tag, n, target, deficit) sorted by tag."""
    if not counts:
        return pd.DataFrame(columns=["tag", "n", "target", "deficit"])
    vals = sorted(counts.values())
    k = len(vals)
    # int(np.median): lower-truncated midpoint average for even k
    med = vals[k // 2] if k % 2 else (vals[k // 2 - 1] + vals[k // 2]) // 2
    mx = max(vals)
    rows = []
    for tag in sorted(counts):
        c = counts[tag]
        if tag in RNA_TAGS:
            target = min(med * 2, mx)
        elif c < med:
            target = min(med * 12 // 10, mx * 8 // 10)
        else:
            target = c
        rows.append((tag, c, target, max(0, target - c)))
    return pd.DataFrame(rows, columns=["tag", "n", "target", "deficit"])


# ---------------------------------------------------------------------------
# deterministic allocation
# ---------------------------------------------------------------------------


def _sentence_class(tags: list[str], deficit: dict[str, int]) -> str | None:
    rare = {t for t in tags if t != "O" and deficit.get(t, 0) > 0}
    if not rare:
        return None
    return "rna" if rare & set(RNA_TAGS) else "other"


def assign_copies(sent_ds, targets: pd.DataFrame):
    """Per-sentence deterministic copy quota: (sent_id, cls, n_copies).

    Two passes: a tiny class-candidate count (combiner aggregate), then
    a pure per-row map with the broadcast deficits + the two class
    budgets/candidate counts. No shuffle of sentence payloads."""
    import ray

    deficit = dict(zip(targets["tag"], targets["deficit"].astype(int)))
    b_rna = int(sum(deficit.get(t, 0) for t in RNA_TAGS))
    b_other = int(
        sum(d for t, d in deficit.items() if t not in RNA_TAGS)
    )

    def classify(batch: pa.Table) -> pd.DataFrame:
        sids = batch["sent_id"].to_pylist()
        cls = [_sentence_class(t, deficit) for t in batch["tags"].to_pylist()]
        return pd.DataFrame({"sent_id": sids, "cls": cls}).dropna(subset=["cls"])

    # materialized: consumed twice (class count + quota attach); rows
    # are (sent_id, cls) only — object-store spill covers huge corpora
    classified = sent_ds.map_batches(classify, batch_format="pyarrow").materialize()
    # 2-value class domain: per-block partial counts + driver combine
    # (no shuffle execution for a bounded-cardinality count)
    cnt = classified.map_batches(
        lambda df: df["cls"].value_counts().rename_axis("cls").reset_index(name="n"),
        batch_format="pandas",
    ).to_pandas()
    n_by_cls = dict(cnt.groupby("cls", sort=False)["n"].sum()) if len(cnt) else {}
    # integer ceil-div keeps the rule exactly replicable in SQL
    def ceil_div(a: int, b: int) -> int:
        return -(-a // max(b, 1))

    quota = {
        "rna": min(RNA_CAP, ceil_div(b_rna, n_by_cls.get("rna", 0))) if b_rna else 0,
        "other": min(OTHER_CAP, ceil_div(b_other, n_by_cls.get("other", 0)))
        if b_other
        else 0,
    }
    quota_ref = ray.put(quota)

    def alloc(df: pd.DataFrame) -> pd.DataFrame:
        from ..state.broadcast import resolve

        q = resolve(quota_ref)
        return df.assign(n_copies=df["cls"].map(q).astype("int64"))

    return classified.map_batches(alloc, batch_format="pandas")


# ---------------------------------------------------------------------------
# M11 augmentation actor
# ---------------------------------------------------------------------------


class AugmentActor:
    """Stateful augmenter: loads the trained embedding artifact ONCE per
    actor (A1/A2 contract), precomputes the top-k similar table for the
    whole (small) KV vocab, then rewrites sentences with per-position
    seeded RNG — retry-safe and order-independent.

    At a 10⁸-word vocab the dense top-k table is replaced by the IVF
    path (queries.ann_topk_ivf); the actor interface is unchanged."""

    def __init__(self, kv_path: str, top_k_max: int = TOP_K_RNA):
        import pyarrow.parquet as pq

        t = pq.read_table(kv_path)
        self.words = t["word"].to_pylist()
        mat = np.array(t["vector"].to_pylist(), dtype=np.float64)
        self.index = {w: i for i, w in enumerate(self.words)}
        if len(self.words):
            norms = np.linalg.norm(mat, axis=1, keepdims=True)
            norms[norms == 0] = 1.0
            nm = mat / norms
            cos = nm @ nm.T
            np.fill_diagonal(cos, -np.inf)
            k = min(top_k_max, max(len(self.words) - 1, 1))
            # ties broken by ascending word index (stable partial sort)
            order = np.argsort(-cos, axis=1, kind="stable")[:, :k]
            self.topk = order
        else:
            self.topk = np.zeros((0, 0), dtype=np.int64)

    def _candidates(self, word: str, top_k: int) -> list[str]:
        i = self.index.get(word)
        if i is None:
            return []
        return [
            self.words[j]
            for j in self.topk[i, :top_k]
            if is_plausible(self.words[j])
        ]

    def augment(
        self, sent_id: str, copy_idx: int, tokens, tags, replace_prob, top_k
    ):
        out = []
        for pos, (w, tg) in enumerate(zip(tokens, tags)):
            nw = w
            if tg == "O" and w.lower() in self.index:
                h = stable_u64_md5(f"{sent_id}:{copy_idx}:{pos}".encode())
                if (h % 10_000) / 10_000.0 < replace_prob:
                    cands = self._candidates(w.lower(), top_k)
                    if cands:
                        nw = cands[(h >> 32) % len(cands)]
            out.append(nw)
        return out

    def __call__(self, batch: pa.Table) -> pd.DataFrame:
        sids, copies, toks, tags_out, origs = [], [], [], [], []
        for sid, tokens, tags, cls, n_copies in zip(
            batch["sent_id"].to_pylist(),
            batch["tokens"].to_pylist(),
            batch["tags"].to_pylist(),
            batch["cls"].to_pylist(),
            batch["n_copies"].to_pylist(),
        ):
            rp, tk = (
                (REPLACE_PROB_RNA, TOP_K_RNA)
                if cls == "rna"
                else (REPLACE_PROB, TOP_K)
            )
            for c in range(int(n_copies)):
                sids.append(sid)
                copies.append(c)
                new_toks = self.augment(sid, c, tokens, tags, rp, tk)
                toks.append(new_toks)
                tags_out.append(tags)
                origs.append(tokens)
        return pd.DataFrame(
            {
                "sent_id": sids,
                "copy_idx": pd.array(copies, dtype="int32"),
                "tokens": toks,
                "tags": tags_out,
                "orig_tokens": origs,
            }
        )


# ---------------------------------------------------------------------------
# downsample + full pipeline
# ---------------------------------------------------------------------------


def downsample_overrepresented(sent_ds, final_counts: dict[str, int],
                               targets: pd.DataFrame):
    """Drop (p=0.6, md5-seeded) sentences whose entity tags are all
    over-represented (> 1.5× target) — fonctionsFaxtText.py:794-817."""
    tgt = dict(zip(targets["tag"], targets["target"].astype(int)))
    over = {
        t
        for t, c in final_counts.items()
        if c * OVERREP_DEN > tgt.get(t, c) * OVERREP_NUM
    }
    if not over:
        return sent_ds

    def keep(batch: pa.Table) -> pa.Table:
        mask = []
        for sid, copy_idx, tags in zip(
            batch["sent_id"].to_pylist(),
            batch["copy_idx"].to_pylist(),
            batch["tags"].to_pylist(),
        ):
            ent = [t for t in tags if t != "O"]
            if ent and all(t in over for t in ent):
                h = stable_u64_md5(f"ds:{sid}:{copy_idx}".encode())
                mask.append((h % 10) >= int(DOWNSAMPLE_P * 10))
            else:
                mask.append(True)
        return batch.filter(pa.array(mask))

    return sent_ds.map_batches(keep, batch_format="pyarrow")


def run_balance_pipeline(sent_ds_factory, kv_path: str, *, concurrency: int = 2):
    """Full M11+G8 flow over a (sent_id, tokens, tags) sentence Dataset.

    Returns (final_ds, report): final_ds has (sent_id, copy_idx, tokens,
    tags) with copy_idx -1 for originals; report carries counts/targets/
    deficits before and after."""
    counts_df = tag_counts(sent_ds_factory())
    counts = dict(zip(counts_df["tag"], counts_df["n"].astype(int)))
    targets = compute_targets(counts)

    assigned = assign_copies(sent_ds_factory(), targets)

    # join quotas back onto sentence payloads via broadcast (the quota
    # table is #candidate-sentences rows of 3 tiny columns — broadcast
    # beats a payload shuffle; at 10⁹ sentences switch to keyed_join)
    import ray

    adf = assigned.to_pandas()
    amap = dict(zip(adf["sent_id"], zip(adf["cls"], adf["n_copies"])))
    aref = ray.put(amap)

    def attach(batch: pa.Table) -> pa.Table:
        from ..state.broadcast import resolve

        m = resolve(aref)
        cls, nc = [], []
        for sid in batch["sent_id"].to_pylist():
            c = m.get(sid)
            cls.append(c[0] if c else None)
            nc.append(int(c[1]) if c else 0)
        return batch.append_column("cls", pa.array(cls, pa.string())).append_column(
            "n_copies", pa.array(nc, pa.int64())
        )

    with_quota = sent_ds_factory().map_batches(attach, batch_format="pyarrow")
    augmented = with_quota.map_batches(
        AugmentActor,
        fn_constructor_args=(kv_path,),
        batch_format="pyarrow",
        concurrency=concurrency,
        batch_size=256,
    )

    def originals(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "sent_id": batch["sent_id"].to_pylist(),
                "copy_idx": pd.array([-1] * batch.num_rows, dtype="int32"),
                "tokens": batch["tokens"].to_pylist(),
                "tags": batch["tags"].to_pylist(),
                "orig_tokens": batch["tokens"].to_pylist(),
            }
        )

    union = sent_ds_factory().map_batches(originals, batch_format="pyarrow").union(
        augmented
    ).materialize()

    final_counts_df = tag_counts(
        union.map_batches(
            lambda b: pa.table({"tags": b["tags"]}), batch_format="pyarrow"
        )
    )
    final_counts = dict(
        zip(final_counts_df["tag"], final_counts_df["n"].astype(int))
    )
    final = downsample_overrepresented(union, final_counts, targets)
    report = {
        "counts_before": counts,
        "targets": targets,
        "counts_after_augment": final_counts,
    }
    return final.select_columns(["sent_id", "copy_idx", "tokens", "tags"]), report


# ---------------------------------------------------------------------------
# sequential replay artifact (the kg_mentions_learned oracle pattern)
# ---------------------------------------------------------------------------

# Unit separator for the artifact's joined token/tag strings: cannot
# occur in CoNLL fields (they are tab-delimited line content).
REPLAY_SEP = "\x1f"
BALANCE_REPLAY_VERSION = "balance-replay-v1"


def replay_balance_union(conll_path: str, kv_path: str) -> pd.DataFrame:
    """Sequential (driver-side, no Ray) replay of the balance pipeline
    UP TO the pre-downsample union: originals (copy_idx -1) plus every
    md5-seeded augmented copy, one row per (sent_id, copy_idx) with
    tokens/tags joined by REPLAY_SEP.

    Reuses the SAME pure components the distributed pipeline runs —
    ``compute_targets``, ``_sentence_class``, the ceil-div quota rule,
    ``AugmentActor.augment`` — only the loop plumbing is sequential, so
    a value match proves distributed-augment == sequential-augment.
    The DOWNSAMPLE step is deliberately NOT applied here: the oracle
    SQL re-derives it independently (over-represented set from the
    artifact's tag counts vs the targets CTE, the md5 coin via
    ``md5_number_lower``), so the artifact covers exactly the
    non-SQL-expressible part (model top-k word substitutions)."""
    from ..sources.conll import parse_conll_bytes

    with open(conll_path, "rb") as f:
        df = parse_conll_bytes(f.read(), conll_path)
    sentences: list[tuple[str, list[str], list[str]]] = []
    if len(df):
        si = df["sent_idx"].to_numpy()
        starts = np.flatnonzero(np.diff(si, prepend=si[0] - 1))
        base = df["path"].iat[0]
        tok_arr = df["token"].to_numpy()
        tag_arr = df["tag"].to_numpy()
        for sid, toks, tags in zip(
            (f"{base}:{s}" for s in si[starts]),
            np.split(tok_arr, starts[1:]),
            np.split(tag_arr, starts[1:]),
        ):
            sentences.append((sid, toks.tolist(), tags.tolist()))

    counts: dict[str, int] = {}
    for _sid, _toks, tags in sentences:
        for t in tags:
            if t != "O":
                counts[t] = counts.get(t, 0) + 1
    targets = compute_targets(counts)
    deficit = dict(zip(targets["tag"], targets["deficit"].astype(int)))
    b_rna = int(sum(deficit.get(t, 0) for t in RNA_TAGS))
    b_other = int(sum(d for t, d in deficit.items() if t not in RNA_TAGS))

    cls_of: dict[str, str] = {}
    n_by_cls: dict[str, int] = {}
    for sid, _toks, tags in sentences:
        c = _sentence_class(tags, deficit)
        if c is not None:
            cls_of[sid] = c
            n_by_cls[c] = n_by_cls.get(c, 0) + 1

    def ceil_div(a: int, b: int) -> int:
        return -(-a // max(b, 1))

    quota = {
        "rna": min(RNA_CAP, ceil_div(b_rna, n_by_cls.get("rna", 0))) if b_rna else 0,
        "other": min(OTHER_CAP, ceil_div(b_other, n_by_cls.get("other", 0)))
        if b_other
        else 0,
    }

    actor = AugmentActor(kv_path)
    sids, copies, toks_j, tags_j = [], [], [], []
    for sid, toks, tags in sentences:
        sids.append(sid)
        copies.append(-1)
        toks_j.append(REPLAY_SEP.join(toks))
        tags_j.append(REPLAY_SEP.join(tags))
        cls = cls_of.get(sid)
        if cls is None:
            continue
        rp, tk = (
            (REPLACE_PROB_RNA, TOP_K_RNA) if cls == "rna" else (REPLACE_PROB, TOP_K)
        )
        for c in range(int(quota[cls])):
            new_toks = actor.augment(sid, c, toks, tags, rp, tk)
            sids.append(sid)
            copies.append(c)
            toks_j.append(REPLAY_SEP.join(new_toks))
            tags_j.append(REPLAY_SEP.join(tags))
    return pd.DataFrame(
        {
            "sent_id": sids,
            "copy_idx": pd.array(copies, dtype="int32"),
            "toks_join": toks_j,
            "tags_join": tags_j,
        }
    )


def ensure_balance_replay(sf_name: str) -> str:
    """Build (once, cached, atomic) the sequential pre-downsample union
    artifact for ``sf_name``'s CoNLL fixture; returns the parquet path."""
    import os
    import tempfile

    import pyarrow.parquet as pq

    from ..fixtures import ensure_conll_fixture, ensure_fixture
    from ..state import manifest as mf

    conll_path = ensure_conll_fixture(sf_name)
    paths = ensure_fixture(sf_name)
    from .embeddings import ensure_embedding_artifacts

    arts = ensure_embedding_artifacts(paths, os.path.join(paths["dir"], "emb_sgns"))
    fp = mf.fingerprint(
        BALANCE_REPLAY_VERSION,
        mf.input_fingerprint([conll_path, arts["kv"]]),
    )
    out_dir = os.path.join(
        tempfile.gettempdir(), "graft_balance", f"replay_{sf_name}"
    )

    def build(tmp):
        dfr = replay_balance_union(conll_path, arts["kv"])
        pq.write_table(
            pa.Table.from_pandas(dfr, preserve_index=False),
            os.path.join(tmp, "union.parquet"),
        )

    mf.run_stage("balance-replay", out_dir, fp, build)
    return os.path.join(out_dir, "union.parquet")
