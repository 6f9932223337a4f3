"""Driver-facing query implementations (one per operator, SURVEY.md §2).

Every function takes ``sf_dir`` (a /root/testdata/sf* directory) and
returns a ``ray.data.Dataset`` or small ``pandas.DataFrame``. KG queries
run over the deterministic transcript fixture derived from the sf name
(``fixtures.ensure_fixture``); analytics queries run over the provided
testdata tables. Each has a value-equivalent DuckDB oracle in
``__ray_entry__.oracle_sql`` — column names and numeric representations
are chosen to hash-match exactly (integer-cents sums instead of float
sums, deterministic tie-breaks on every top-k).

Ray must already be initialised by the caller (driver / test fixture /
bench.py); nothing here calls ``ray.init``.
"""

from __future__ import annotations

import os

import numpy as np
import pandas as pd
import pyarrow as pa
import pyarrow.parquet as pq
import ray
import ray.data as rd
from ray.data.aggregate import Count, Max, Min, Sum

from .fixtures import ensure_fixture, sf_name_from_dir
from .kernels.tagger import AliasDict
from .kernels.textstats import (
    LANG_ORDER,
    STOPWORDS,
    detect_lang,
    fingerprint_md5,
    quality_features,
    quality_score,
)
from .kernels.tokenize import MAX_SEQ_LEN, TOKEN_RE
from .oracle import canonical_components
from .stages.annotate import annotate_stage
from .stages.explode import mentions_stage, triples_stage
from .stages.graph import edges_stage, node_meta, nodes_stage

# ---------------------------------------------------------------------------
# helpers
# ---------------------------------------------------------------------------


def _tbl(sf_dir: str, name: str, columns=None):
    return rd.read_parquet(os.path.join(sf_dir, f"{name}.parquet"), columns=columns)


def _xparts(sf_dir: str, *tables: str, expansion: float = 4.0) -> int:
    """Size-derived exchange partition count over the query's source
    table(s) (stages/exchange.partitions_for). Replaces the former
    constant-8 default at every exchange call site: the partition count
    now grows with the parquet footprint of the tables feeding the
    keyed stream, so one partition's share stays worker-heap-sized at
    any corpus scale, while the floor of 8 keeps test-scale plans
    identical to the old constant. ``"transcripts"`` resolves to the
    fixture's transcript directory; anything else to
    ``<sf_dir>/<name>.parquet``."""
    from .stages.exchange import partitions_for

    paths = []
    for t in tables:
        if t == "transcripts":
            paths.append(_fixture(sf_dir)["transcripts"])
        else:
            paths.append(os.path.join(sf_dir, f"{t}.parquet"))
    return partitions_for(*paths, expansion=expansion)


# Ray's sort-based shuffle costs O(P²) tiny inter-block objects, so the
# final combine of a pre-aggregated (already small) stream must NOT
# inherit the scan's block count (64 blocks at 32 CPUs → ~12s of pure
# overhead for a 100k-row aggregate; 8 blocks → 0.7s, measured).
# At 100TB the pre-agg stream is ~#distinct-keys rows — size this to
# keep each combine block in the 10-100MB range, not to the scan width.
_COMBINE_BLOCKS = 8


def _combine(ds, num_blocks: int = _COMBINE_BLOCKS):
    return ds.repartition(num_blocks)


def _fixture(sf_dir: str) -> dict[str, str]:
    return ensure_fixture(sf_name_from_dir(sf_dir))


def _alias_rows(paths: dict) -> list[dict]:
    return pq.read_table(paths["alias_dict"]).to_pylist()


def _transcripts_ds(paths: dict, columns=None):
    from .state.manifest import list_parquet_files

    return rd.read_parquet(list_parquet_files(paths["transcripts"]), columns=columns)


def _query_cache_dir(sf_dir: str, name: str) -> str:
    """``<tmp>/graft_query_cache/<sf>/<name>``: the directory of one
    manifest-guarded query cache, keyed on the sf directory's base
    name."""
    import tempfile

    return os.path.join(
        tempfile.gettempdir(),
        "graft_query_cache",
        os.path.basename(os.path.normpath(sf_dir)),
        name,
    )


def _annotations_cache(sf_dir: str) -> tuple[str, list[dict]]:
    """Materialize the annotate stage ONCE per fixture into a
    manifest-guarded parquet cache (state/manifest.py): every KG query
    needs the same annotations, and the driver runs dozens of queries
    back-to-back — recomputing the tag+link pass per query would repeat
    ~90% of the work. Each row is one turn and also carries that turn's
    timestamp as int64 epoch-µs ``ts_us``, so the temporal-KG queries
    need no join back to the transcripts. Returns (parquet dir, alias
    rows)."""
    from .stages.annotate import _cached_annotator
    from .state import manifest as mf

    paths = _fixture(sf_dir)
    rows = _alias_rows(paths)
    files = mf.list_parquet_files(paths["transcripts"])
    fp = mf.fingerprint("query-ann-v3", mf.input_fingerprint(files))
    out = _query_cache_dir(paths["dir"], "annotations")
    if not mf.is_complete(out, fp):
        ref = ray.put(AliasDict(rows))

        def annotate(batch: pa.Table) -> pa.Table:
            # the annotator returns row i for input row i (it tags each
            # distinct text once, but a text recurs at different ts)
            ts_us = batch["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            return _cached_annotator(ref)(batch).append_column("ts_us", ts_us)

        def build(tmp):
            ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text", "ts"])
            ds.map_batches(annotate, batch_format="pyarrow", batch_size=1024).write_parquet(tmp)

        mf.run_stage("query-annotations", out, fp, build)
    return out, rows


_EDGE = ["subj_cui", "pred", "obj_cui"]


def _turn_partials(sf_dir: str, kind: str = "triples"):
    """The temporal-KG family's one input: annotation-cache rows →
    per-turn canonical partials that carry the turn's ``ts_us``.

    ``kind="triples"``: (conv_id, turn_idx, subj_cui, pred, obj_cui,
    ts_us, n) — CUIs remapped to their canonical component label,
    self-loops dropped, each edge counted once per turn.
    ``kind="mentions"``: (conv_id, turn_idx, cui, ts_us, n) over the
    linked mentions, remapped the same way. A turn lives in one cache
    row, so the per-batch count is its complete per-turn count."""
    from .stages.explode import _explode
    from .state.broadcast import resolve
    from .state.manifest import list_parquet_files

    ann_dir, rows = _annotations_cache(sf_dir)
    comp_ref = ray.put(canonical_components(rows))
    keys = _EDGE if kind == "triples" else ["cui"]

    def partial(batch: pa.Table) -> pd.DataFrame:
        comp = resolve(comp_ref)
        t = _explode(batch, kind, ["conv_id", "turn_idx", "ts_us"])
        if kind == "mentions":
            t = t.filter(t["cui"].is_valid())
        df = t.select(["conv_id", "turn_idx", *keys, "ts_us"]).to_pandas()
        if kind == "triples":
            df["subj_cui"] = df["subj_cui"].map(comp)
            df["obj_cui"] = df["obj_cui"].map(comp)
            df = df[(df["subj_cui"] != df["obj_cui"]).to_numpy()]
        else:
            df["cui"] = df["cui"].map(comp)
        df = df.astype({"conv_id": str, "turn_idx": "int64", "ts_us": "int64"})
        g = df.groupby(list(df.columns), sort=False).size().reset_index(name="n")
        return g.astype({"n": "int64"})

    return rd.read_parquet(
        list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "ts_us", kind]
    ).map_batches(partial, batch_format="pyarrow")


def _corpus_minmax_us(sf_dir: str) -> tuple[int, int]:
    """Exact corpus (min_ts, max_ts) in epoch-µs, from the row-group
    statistics of the annotation cache's ``ts_us`` (every turn has a
    cache row): footers only, no Ray Data execution. A row group of
    only nulls is skipped; one with values but no statistics raises."""
    from .state.manifest import list_parquet_files

    ann_dir, _ = _annotations_cache(sf_dir)
    lo = hi = None
    for f in list_parquet_files(ann_dir):
        md = pq.ParquetFile(f).metadata
        for i in range(md.num_row_groups):
            rg = md.row_group(i)
            col = next(
                rg.column(j) for j in range(rg.num_columns)
                if rg.column(j).path_in_schema == "ts_us"
            )
            st = col.statistics
            if rg.num_rows == 0 or (
                st is not None and st.has_null_count and st.null_count == rg.num_rows
            ):
                continue
            if st is None or not st.has_min_max:
                raise ValueError(f"{f}: row group {i} has no ts_us min/max statistics")
            lo = st.min if lo is None else min(lo, st.min)
            hi = st.max if hi is None else max(hi, st.max)
    if lo is None:
        raise ValueError(f"no ts_us values in the annotation cache {ann_dir!r}")
    return int(lo), int(hi)


def _first_row_len(block_refs, col: str) -> int:
    """Length of the first row's list ``col`` in a materialized
    Dataset's blocks, read from a block ref: no execution is stopped
    early, as ``take`` or ``limit`` would."""
    for ref in block_refs:
        t = ray.get(ref)
        if t.num_rows:
            return len(t.slice(0, 1).to_pylist()[0][col])
    raise ValueError(f"no rows to read {col!r} from")


def _annotations_ds(sf_dir: str):
    from .state.manifest import list_parquet_files

    out, rows = _annotations_cache(sf_dir)
    return rd.read_parquet(list_parquet_files(out)), rows


# ---------------------------------------------------------------------------
# KG pipeline queries (flagship path; oracle = maximal-match SQL)
# ---------------------------------------------------------------------------


def kg_turns_sorted(sf_dir: str):
    """Stable (conv_id, turn_idx) ordering — the north-rule sort shuffle.
    Per-turn text equality vs input is the conformance invariant."""
    paths = _fixture(sf_dir)
    return _transcripts_ds(paths).sort(["conv_id", "turn_idx"])


def kg_mentions(sf_dir: str):
    """Detected mention spans (tokenize → BIO tag → decode; M1+M9)."""
    ann, _ = _annotations_ds(sf_dir)
    return mentions_stage(ann).select_columns(
        ["conv_id", "turn_idx", "mention_id", "text", "type", "start_tok", "end_tok"]
    )


def kg_mentions_learned(sf_dir: str):
    """Mention spans decoded by the TRAINED linear-CRF tagger — output
    depends on fitted weights (kernels/learned.py +
    pipelines/train_tagger.py: Adam/patience/dev-F1-checkpoint lifecycle
    mirroring JNLPBA.ipynb cell 11; served like app.py:254-303 serves
    the reference checkpoint). Unlike kg_mentions the dictionary does
    not decide: predictions disagree with the dictionary gold
    on ~3% of mentions (asserted 0.95 ≤ P,R < 1.0 in
    tests/test_learned_tagger.py), so the oracle is a SQL BIO-span
    decode over the checkpoint's sequential replay artifact — it checks
    distributed-serving == sequential-replay AND the span-assembly
    semantics, not a tautology."""
    from .pipelines.train_tagger import ensure_tagger_artifacts

    paths = _fixture(sf_dir)
    arts = ensure_tagger_artifacts()  # canonical checkpoint (sf0.01 corpus)
    ref = ray.put(AliasDict(_alias_rows(paths)))
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])
    ann = annotate_stage(
        ds, ref, scorer="learned",
        scorer_kwargs={"checkpoint_path": arts["checkpoint"]},
    )
    return mentions_stage(ann).select_columns(
        ["conv_id", "turn_idx", "mention_id", "text", "type", "start_tok", "end_tok"]
    )


def kg_mentions_combinatorial(sf_dir: str):
    """Mention spans decoded by the TRAINED FULL CombinatorialNER —
    gradient descent through char-CNN + char-BiLSTM + FC fusion +
    context BiLSTM + Manhattan attention + CRF (reference
    models/models.py:73-193, trained per JNLPBA.ipynb cell 11;
    pipelines/train_combinatorial.py + kernels/combi_train.py), served
    through the same annotate-stage actor pool as every other scorer.
    Like kg_mentions_learned the fitted weights decide (0.95 ≤ mention
    P,R < 1.0 asserted on the held-out split in
    tests/test_combinatorial_trained.py) — so the
    oracle is a SQL BIO-span decode over the checkpoint's sequential
    replay artifact: it checks distributed-serving == sequential-replay
    AND the span-assembly semantics, never a tautology."""
    from .pipelines.train_combinatorial import ensure_combinatorial_artifacts

    paths = _fixture(sf_dir)
    arts = ensure_combinatorial_artifacts()  # canonical sf0.01 checkpoint
    ref = ray.put(AliasDict(_alias_rows(paths)))
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])
    ann = annotate_stage(
        ds, ref, scorer="combinatorial",
        scorer_kwargs={"checkpoint_path": arts["checkpoint"]},
    )
    return mentions_stage(ann).select_columns(
        ["conv_id", "turn_idx", "mention_id", "text", "type", "start_tok", "end_tok"]
    )


def kg_highlight(sf_dir: str):
    """Entity-highlighted turn markup — the reference's M10
    ``highlight_text`` (app.py:517-538): every non-O token is wrapped
    in the badge span carrying its BIO tag, tokens re-joined by single
    spaces. The color/name lookup tables (ENTITY_COLORS_*/NAMES_*) are
    presentation constants and are omitted; the structural markup and
    tag semantics are exact. Row-local map over transcripts with the
    broadcast alias dict; only the decode window (first MAX_SEQ_LEN
    tokens — the region the reference's predictions cover) renders;
    token-less turns emit no row."""
    from .kernels.tagger import tag_tokens

    paths = _fixture(sf_dir)
    ref = ray.put(AliasDict(_alias_rows(paths)))
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])

    def render(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        alias = resolve(ref)
        convs, tixs, htmls = [], [], []
        for c, ti, tx in zip(
            batch["conv_id"].to_pylist(),
            batch["turn_idx"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            toks = TOKEN_RE.findall(tx or "")[:MAX_SEQ_LEN]
            if not toks:
                continue
            tags = tag_tokens(toks, alias)
            htmls.append(
                " ".join(
                    tok
                    if tg == "O"
                    else (
                        '<span class="entity-badge">'
                        f'{tok}<span class="entity-tag">{tg}</span></span>'
                    )
                    for tok, tg in zip(toks, tags)
                )
            )
            convs.append(c)
            tixs.append(ti)
        return pd.DataFrame(
            {
                "conv_id": pd.array(convs, dtype="string"),
                "turn_idx": np.array(tixs, dtype=np.int32),
                "html": pd.array(htmls, dtype="string"),
            }
        )

    return ds.map_batches(render, batch_format="pyarrow")


def kg_linked_mentions(sf_dir: str):
    """Mentions + CUI link (broadcast alias dict, J6)."""
    ann, _ = _annotations_ds(sf_dir)
    ds = mentions_stage(ann)
    return ds.map_batches(
        lambda t: t.filter(t["cui"].is_valid()), batch_format="pyarrow"
    )


def kg_triples(sf_dir: str):
    """(subj, pred, obj) per turn via co-occurrence + type heuristics."""
    ann, _ = _annotations_ds(sf_dir)
    return triples_stage(ann)


def kg_nodes(sf_dir: str):
    """Canonicalized node table (G9 components + mention counts)."""
    ann_dir, rows = _annotations_cache(sf_dir)
    comp = canonical_components(rows)
    meta = node_meta(rows)
    comp_ref = ray.put(comp)
    meta_ref = ray.put({c: meta[c] for c in comp.values()})

    def lm_factory():
        from .state.manifest import list_parquet_files

        ann = rd.read_parquet(
            list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "mentions"]
        )
        return mentions_stage(ann).map_batches(
            lambda t: t.filter(t["cui"].is_valid()), batch_format="pyarrow"
        )

    return nodes_stage(lm_factory, comp_ref, meta_ref)


def kg_edges(sf_dir: str):
    """Deduplicated, canonical-remapped, weighted edge table."""
    ann_dir, rows = _annotations_cache(sf_dir)
    comp_ref = ray.put(canonical_components(rows))

    def tr_factory():
        from .state.manifest import list_parquet_files

        ann = rd.read_parquet(
            list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "triples"]
        )
        return triples_stage(ann)

    return edges_stage(tr_factory, comp_ref)


def kg_components(sf_dir: str):
    """Distributed connected components over the CUI↔alias graph (G9)."""
    from .stages.canonicalize import connected_components_ds

    paths = _fixture(sf_dir)
    ds = rd.read_parquet(paths["alias_dict"], columns=["cui", "alias_key"])
    return connected_components_ds(ds, rounds=3)


def kg_vocab(sf_dir: str):
    """Reference create_vocab semantics (G1, creation_vocabulaire.py:3-62):
    lowercased app-tokenizer token counts with min_freq >= 2. Partial
    per-batch counts → keyed hash exchange with a vectorized pandas
    combine: a real corpus vocab has 10⁶–10⁸ keys, far past the ~5k
    groups/s cliff of the built-in per-group aggregate."""
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for tok in TOKEN_RE.findall(t):
                w = tok.lower()
                c[w] = c.get(w, 0) + 1
        return pd.DataFrame({"word": list(c.keys()), "n": list(c.values())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", sort=False, as_index=False)["n"].sum()
        g = g[g["n"] >= 2]
        return g.rename(columns={"n": "n_occurrences"})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_exchange(parts, ["word"], combine, _xparts(sf_dir, "transcripts"))


def kg_tag_mapping(sf_dir: str):
    """Reference create_tag_mapping semantics (G3,
    creation_vocabulaire.py:169-174): distinct entity types, sorted,
    with dense ids (the sort is why reference tag ids are alphabetical)."""
    ann, _ = _annotations_ds(sf_dir)
    m = mentions_stage(ann)
    types = sorted(m.unique("type"))
    return pd.DataFrame({"tag": types, "tag_idx": np.arange(1, len(types) + 1)})


def kg_mention_type_counts(sf_dir: str):
    """UI stats analog (G5, app.py:848-895): mentions per entity type."""
    ann, _ = _annotations_ds(sf_dir)
    return (
        _combine(mentions_stage(ann).select_columns(["type"]))
        .groupby("type")
        .aggregate(Count(alias_name="n_mentions"))
    )


def kg_turn_stats(sf_dir: str):
    """Corpus stats analog (G6, fonctions.py:275-538): per-role turn and
    token totals over the tokenized transcript."""
    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["role", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        roles = batch["role"].to_pylist()
        nt = [len(TOKEN_RE.findall(t)) for t in batch["text"].to_pylist()]
        df = pd.DataFrame({"role": roles, "n_tokens": nt})
        g = df.groupby("role", sort=False).agg(
            n_turns=("role", "size"), sum_tokens=("n_tokens", "sum")
        )
        return g.reset_index()

    return (
        _combine(ds.map_batches(partial, batch_format="pyarrow"))
        .groupby("role")
        .aggregate(
            Sum("n_turns", alias_name="n_turns"),
            Sum("sum_tokens", alias_name="sum_tokens"),
        )
    )


def kg_token_table(sf_dir: str):
    """Exploded token table (conv_id, turn_idx, tok_idx, token) — the
    offset-preserving tokenizer surface (M1/M2, app.py:210-214 /
    fonctions.py:127-139) as a flat Dataset."""
    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])

    def f(batch: pa.Table) -> pa.Table:
        cs, ts, idxs, toks = [], [], [], []
        for c, t, x in zip(
            batch["conv_id"].to_pylist(),
            batch["turn_idx"].to_pylist(),
            batch["text"].to_pylist(),
        ):
            for i, tok in enumerate(TOKEN_RE.findall(x)):
                cs.append(c)
                ts.append(t)
                idxs.append(i)
                toks.append(tok)
        return pa.table(
            {
                "conv_id": pa.array(cs, pa.string()),
                "turn_idx": pa.array(ts, pa.int32()),
                "tok_idx": pa.array(idxs, pa.int32()),
                "token": pa.array(toks, pa.string()),
            }
        )

    return ds.map_batches(f, batch_format="pyarrow")


def kg_char_vocab(sf_dir: str):
    """Reference create_char_vocab semantics (G2,
    creation_vocabulaire.py:65-108): character counts over the
    tokenizer's tokens (lowercased). Same keyed-exchange combine as
    kg_vocab — char vocabs are small, but the shape stays uniform."""
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for tok in TOKEN_RE.findall(t):
                for ch in tok.lower():
                    c[ch] = c.get(ch, 0) + 1
        return pd.DataFrame({"ch": list(c.keys()), "n": list(c.values())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("ch", sort=False, as_index=False)["n"].sum()
        return g.rename(columns={"n": "n_occurrences"})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_exchange(parts, ["ch"], combine, _xparts(sf_dir, "transcripts"))


def kg_split_assign(sf_dir: str):
    """Deterministic 70/15/15 split by conversation (O3 analog,
    fonctionsFaxtText.py:832-840 — hash split instead of shuffled index
    split so assignment is stable under any parallelism)."""
    from .kernels.hashing import stable_u64_md5

    def assign(batch: pa.Table) -> pd.DataFrame:
        convs = sorted(set(batch["conv_id"].to_pylist()))
        buckets = [stable_u64_md5(c.encode("utf-8")) % 100 for c in convs]
        split = [
            "train" if b < 70 else ("dev" if b < 85 else "test") for b in buckets
        ]
        return pd.DataFrame({"conv_id": convs, "split": split})

    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id"])
    return keyed_exchange(
        ds.map_batches(assign, batch_format="pyarrow"),
        ["conv_id"],
        lambda df: df.drop_duplicates(subset=["conv_id"]),
        num_partitions=4,
    )


def kg_downsample(sf_dir: str):
    """Seeded per-row downsampling filter (O6 analog,
    fonctionsFaxtText.py:794-817 — keep w.p. 0.6, hash-seeded per
    (conv_id, turn_idx) so retries/parallelism cannot change the sample)."""
    from .kernels.hashing import stable_u64_md5

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths)

    def keep(batch: pa.Table) -> pa.Table:
        mask = [
            stable_u64_md5(f"{c}:{t}".encode("utf-8")) % 10 < 6
            for c, t in zip(batch["conv_id"].to_pylist(), batch["turn_idx"].to_pylist())
        ]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def kg_bio_tag_counts(sf_dir: str):
    """Token-level BIO tally (G6/G7 analog: the B-/I-/O distribution the
    reference prints per corpus and feeds to its metrics): B-x = mention
    count per type, I-x = continuation tokens per type, O = tagged
    tokens (first 100 per turn, O7 truncation) minus entity tokens."""
    ann, _ = _annotations_ds(sf_dir)

    def partial(batch: pa.Table) -> pd.DataFrame:
        import collections

        c: dict[str, int] = collections.defaultdict(int)
        total = 0
        for nt, ms in zip(batch["n_tokens"].to_pylist(), batch["mentions"].to_pylist()):
            total += min(nt, MAX_SEQ_LEN)
            for m in ms:
                c["B-" + m["type"]] += 1
                c["I-" + m["type"]] += m["end_tok"] - m["start_tok"]
        ent = sum(c.values())
        c["O"] += total - ent
        return pd.DataFrame({"tag": list(c.keys()), "n": list(c.values())})

    return (
        _combine(ann.map_batches(partial, batch_format="pyarrow"))
        .groupby("tag")
        .aggregate(Sum("n", alias_name="n_tokens"))
    )


# ---------------------------------------------------------------------------
# Text analysis over the provided `documents` table
# ---------------------------------------------------------------------------


def doc_wordcount(sf_dir: str):
    """Word frequency (\\w+ over lowercased text), min_freq 2 — the G1
    wordcount shape over the documents corpus, combined through the
    keyed hash exchange (vocab-scale key cardinality)."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        c: dict[str, int] = {}
        from .kernels.textstats import WORD_RE

        for t in batch["text"].to_pylist():
            for w in WORD_RE.findall(t.lower()):
                c[w] = c.get(w, 0) + 1
        return pd.DataFrame({"word": list(c.keys()), "n": list(c.values())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("word", sort=False, as_index=False)["n"].sum()
        g = g[g["n"] >= 2]
        return g.rename(columns={"n": "n_occurrences"})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_exchange(parts, ["word"], combine, _xparts(sf_dir, "documents"))


def doc_top_words(sf_dir: str):
    """Top-20 words (O2 most_common analog), deterministic tie-break
    (count desc, word asc)."""
    counts = doc_wordcount(sf_dir)
    return counts.sort(["n_occurrences", "word"], descending=[True, False]).limit(20)


def doc_token_counts(sf_dir: str):
    """Per-document app-tokenizer token count (M1 over documents)."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        n = [len(TOKEN_RE.findall(t)) for t in batch["text"].to_pylist()]
        return pa.table(
            {"doc_id": batch["doc_id"], "n_tokens": pa.array(n, pa.int64())}
        )

    return ds.map_batches(f, batch_format="pyarrow")


def doc_fingerprints(sf_dir: str):
    """md5-of-normalized-text document fingerprint (exact-dedup key)."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        fp = [fingerprint_md5(t) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "fingerprint": pa.array(fp)})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_dedup_exact(sf_dir: str):
    """Exact dedup: hash-partition on fingerprint, keep min doc_id per
    group + group size (SURVEY.md §2.7)."""
    return (
        _combine(doc_fingerprints(sf_dir))
        .groupby("fingerprint")
        .aggregate(Min("doc_id", alias_name="doc_id"), Count(alias_name="n_copies"))
    )


def doc_quality(sf_dir: str):
    """Per-document quality features + score (kernels.textstats)."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        rows = []
        for t in batch["text"].to_pylist():
            feat = quality_features(t)
            feat["quality_score"] = quality_score(feat)
            rows.append(feat)
        out = {"doc_id": batch["doc_id"]}
        for k in (
            "n_chars",
            "n_tokens",
            "n_words",
            "punct_ratio",
            "stopword_ratio",
            "digit_ratio",
            "mean_word_len",
            "quality_score",
        ):
            typ = pa.int64() if k in ("n_chars", "n_tokens", "n_words") else pa.float64()
            out[k] = pa.array([r[k] for r in rows], typ)
        return pa.table(out)

    return ds.map_batches(f, batch_format="pyarrow")


def doc_langid(sf_dir: str):
    """Stopword-vote language ID per document."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pa.Table:
        langs = [detect_lang(t) for t in batch["text"].to_pylist()]
        return pa.table({"doc_id": batch["doc_id"], "lang_pred": pa.array(langs)})

    return ds.map_batches(f, batch_format="pyarrow")


def doc_lang_distribution(sf_dir: str):
    """Grouped count over the declared lang column (simple groupby)."""
    return (
        _combine(_tbl(sf_dir, "documents", columns=["lang"]))
        .groupby("lang")
        .aggregate(Count(alias_name="n_docs"))
    )


def kg_top_entities_per_type(sf_dir: str):
    """Group-wise top-3: most-mentioned canonical entities per type
    (per-group top-k with deterministic tie-breaks — count desc, cui
    asc). Counts come from the pre-aggregated mentions stream."""
    ann, rows = _annotations_ds(sf_dir)
    lm = mentions_stage(ann).map_batches(
        lambda t: t.filter(t["cui"].is_valid()), batch_format="pyarrow"
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["type", "cui"], sort=False).size().reset_index(name="n")
        )

    counts = (
        _combine(lm.map_batches(partial, batch_format="pandas"))
        .groupby(["type", "cui"])
        .aggregate(Sum("n", alias_name="n_mentions"))
    )

    def topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["n_mentions", "cui"], ascending=[False, True]).head(3)
        return g.assign(rank=np.arange(1, len(g) + 1))[
            ["type", "rank", "cui", "n_mentions"]
        ]

    return counts.groupby("type").map_groups(topk, batch_format="pandas")


def doc_bigram_counts(sf_dir: str):
    """Word-bigram frequency over documents with min_freq ≥ 2 (the G1
    wordcount shape lifted to n-grams — the vocab build a subword /
    phrase model needs)."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            ws = WORD_RE.findall(t.lower())
            for i in range(len(ws) - 1):
                bg = ws[i] + " " + ws[i + 1]
                c[bg] = c.get(bg, 0) + 1
        return pd.DataFrame({"bigram": list(c.keys()), "n": list(c.values())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bigram", sort=False, as_index=False)["n"].sum()
        g = g[g["n"] >= 2]
        return g.rename(columns={"n": "n_occurrences"})

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_exchange(parts, ["bigram"], combine, _xparts(sf_dir, "documents"))


TFIDF_TOP_K = 5
# df-table broadcast budget (words): the engine's broadcast-small
# standard (~10⁷ entries ≈ 300MB per worker); past it the df table
# stays distributed and the salted word-keyed join tier runs
TFIDF_BROADCAST_LIMIT = 10_000_000
TFIDF_SALT = 16  # stopword-row salt lanes in the join tier


def doc_tfidf_top_terms(
    sf_dir: str, broadcast_limit: int = TFIDF_BROADCAST_LIMIT
):
    """Rarity-weighted top terms per document — the log-free TF-IDF
    variant (score = tf/df, monotone in tf·(1/df)), chosen so both
    engines score in IEEE doubles computed from exact integers and the
    output columns stay integer-exact (doc_id, word, tf, df, rank).

    Shape: document frequency needs ONE keyed exchange (each doc is a
    single row, so per-block distinct-word doc counts are exact
    partials); the df table lands in a parquet handoff whose FOOTER
    ROW COUNT — no column read — picks the serving tier:

    - ``n_words ≤ broadcast_limit`` (the engine's ~10⁷ broadcast-small
      standard): the table is collected once, broadcast via ``ray.put``
      as a sorted word array + int64 df array, and term frequency +
      top-k are ROW-LOCAL binary-search lookups — no second shuffle.
    - past the limit the df table NEVER touches the driver: a salted
      (word, salt)-keyed exchange attaches df to each document's
      per-(doc, word) tf rows (df rows replicated to TFIDF_SALT lanes,
      candidates laned by hash(doc_id) — a stopword's rows spread over
      TFIDF_SALT partitions instead of one), and a doc-keyed exchange
      computes the identical lexsort top-k per document.

    Both tiers compute the same IEEE doubles from the same exact
    integers, so results are bit-identical (a pytest forces the
    fallback and asserts it)."""
    import tempfile

    from .stages.exchange import keyed_exchange
    from .state.manifest import list_parquet_files, sweep_stale_handoffs

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    nparts = _xparts(sf_dir, "documents")

    def df_partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for w in set(WORD_RE.findall(t.lower())):
                c[w] = c.get(w, 0) + 1
        return pd.DataFrame({"word": list(c.keys()), "df": list(c.values())})

    def df_combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("word", sort=False, as_index=False)["df"].sum()

    parts = ds.map_batches(df_partial, batch_format="pyarrow")
    handoff = sweep_stale_handoffs(
        os.path.join(tempfile.gettempdir(), "graft_tfidf_df")
    )
    keyed_exchange(parts, ["word"], df_combine, nparts).map_batches(
        lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
    ).write_parquet(handoff)
    df_files = list_parquet_files(handoff)
    n_words = sum(pq.ParquetFile(f).metadata.num_rows for f in df_files)

    if n_words <= broadcast_limit:
        dft = pq.read_table(handoff).to_pandas()
        dft = dft.sort_values("word", ignore_index=True)
        ref = ray.put(
            (dft["word"].to_numpy(), dft["df"].to_numpy().astype(np.int64))
        )

        def topk(batch: pa.Table) -> pd.DataFrame:
            from collections import Counter

            from .kernels.textstats import WORD_RE
            from .state.broadcast import resolve

            words_sorted, dfs = resolve(ref)
            out_doc, out_w, out_tf, out_df, out_rank = [], [], [], [], []
            for doc_id, t in zip(
                batch["doc_id"].to_pylist(), batch["text"].to_pylist()
            ):
                c = Counter(WORD_RE.findall(t.lower()))
                if not c:
                    continue
                ws = np.array(list(c.keys()))
                tf = np.array(list(c.values()), dtype=np.int64)
                df_ = dfs[np.searchsorted(words_sorted, ws)]
                score = tf.astype(np.float64) / df_.astype(np.float64)
                order = np.lexsort((ws, -score))[:TFIDF_TOP_K]
                for r, j in enumerate(order, start=1):
                    out_doc.append(doc_id)
                    out_w.append(ws[j])
                    out_tf.append(int(tf[j]))
                    out_df.append(int(df_[j]))
                    out_rank.append(r)
            return pd.DataFrame(
                {
                    "doc_id": pd.array(out_doc, dtype="int64"),
                    "word": out_w,
                    "tf": pd.array(out_tf, dtype="int64"),
                    "df": pd.array(out_df, dtype="int64"),
                    "rank": pd.array(out_rank, dtype="int64"),
                }
            )

        return ds.map_batches(topk, batch_format="pyarrow")

    # -- JOIN fallback: df table stays distributed --
    def tf_rows(batch: pa.Table) -> pd.DataFrame:
        from collections import Counter

        from .kernels.textstats import WORD_RE

        docs, words, tfs = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            for w, k in Counter(WORD_RE.findall(t.lower())).items():
                docs.append(doc_id)
                words.append(w)
                tfs.append(k)
        ids = np.asarray(docs, dtype=np.int64)
        return pd.DataFrame(
            {
                "word": words,
                "salt": (pd.util.hash_array(ids) % np.uint64(TFIDF_SALT)
                         ).astype(np.int64),
                "doc_id": ids,
                "n": pd.array(tfs, dtype="int64"),
                "kind": np.int64(0),
            }
        )

    def df_lanes(batch: pa.Table) -> pd.DataFrame:
        n = batch.num_rows
        base = pd.DataFrame(
            {"word": batch["word"].to_pylist(),
             "n": batch["df"].to_numpy(zero_copy_only=False).astype(np.int64)}
        )
        reps = base.loc[base.index.repeat(TFIDF_SALT)].reset_index(drop=True)
        reps["salt"] = np.tile(np.arange(TFIDF_SALT, dtype=np.int64), n)
        return reps.assign(doc_id=np.int64(-1), kind=np.int64(1))[
            ["word", "salt", "doc_id", "n", "kind"]
        ]

    def attach_df(df: pd.DataFrame) -> pd.DataFrame:
        tf_part = df[df["kind"] == 0]
        m = tf_part.merge(
            df.loc[df["kind"] == 1, ["word", "salt", "n"]],
            on=["word", "salt"], how="inner", suffixes=("", "_df"),
        )
        return pd.DataFrame(
            {"doc_id": m["doc_id"].astype("int64"),
             "word": m["word"],
             "tf": m["n"].astype("int64"),
             "df": m["n_df"].astype("int64")}
        )

    joined = keyed_exchange(
        ds.map_batches(tf_rows, batch_format="pyarrow").union(
            rd.read_parquet(handoff).map_batches(
                df_lanes, batch_format="pyarrow"
            )
        ),
        ["word", "salt"], attach_df, max(nparts, TFIDF_SALT),
    )

    def doc_topk(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for doc_id, g in df.groupby("doc_id", sort=False):
            ws = g["word"].to_numpy()
            tf = g["tf"].to_numpy(dtype=np.int64)
            df_ = g["df"].to_numpy(dtype=np.int64)
            score = tf.astype(np.float64) / df_.astype(np.float64)
            order = np.lexsort((ws, -score))[:TFIDF_TOP_K]
            for r, j in enumerate(order, start=1):
                out.append((doc_id, ws[j], int(tf[j]), int(df_[j]), r))
        if not out:
            return pd.DataFrame(
                {"doc_id": pd.Series(dtype="int64"), "word": pd.Series(dtype=object),
                 "tf": pd.Series(dtype="int64"), "df": pd.Series(dtype="int64"),
                 "rank": pd.Series(dtype="int64")}
            )
        o = pd.DataFrame(out, columns=["doc_id", "word", "tf", "df", "rank"])
        return o.astype({"doc_id": "int64", "tf": "int64", "df": "int64",
                         "rank": "int64"})

    return keyed_exchange(joined, ["doc_id"], doc_topk, nparts)


BPE_MERGES = 8

def doc_bpe_merges(sf_dir: str):
    """BPE tokenizer training over the document corpus: one wordcount
    exchange, then BPE_MERGES rounds over the compact symbol table
    (stages/bpe.py — pair partials per block, driver top-1 combine with
    a total tie-break, broadcast merge rule, linear re-materialization).
    Output: the rank-ordered merge-rule table. VALUE-exact SQL oracle:
    the unrolled materialized-CTE replay (__ray_entry__._bpe_merges_sql)
    expresses the greedy non-overlapping remerge as consecutive-run
    islands keeping every other match position; tests/test_bpe.py
    additionally pins the result against an independent single-process
    reference."""
    from .stages.bpe import bpe_train
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for w in WORD_RE.findall(t.lower()):
                c[w] = c.get(w, 0) + 1
        return pd.DataFrame({"word": list(c.keys()), "n": list(c.values())})

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("word", sort=False, as_index=False)["n"].sum()

    wc = keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow"), ["word"], combine, _xparts(sf_dir, "documents")
    )
    out = bpe_train(wc, merges=BPE_MERGES)
    _bpe_cache_store(sf_dir, out)
    return out


def _bpe_cache_store(sf_dir: str, merges: pd.DataFrame) -> None:
    import pyarrow.parquet as _pq

    _pq.write_table(
        pa.Table.from_pandas(merges, preserve_index=False),
        _bpe_cache_path(sf_dir) + ".tmp",
    )
    os.replace(_bpe_cache_path(sf_dir) + ".tmp", _bpe_cache_path(sf_dir))


def _bpe_cache_path(sf_dir: str) -> str:
    import hashlib
    import tempfile

    doc_path = os.path.join(sf_dir, "documents.parquet")
    st = os.stat(doc_path)
    key = hashlib.md5(
        f"bpe-v1:{os.path.abspath(doc_path)}:{st.st_size}:{st.st_mtime_ns}:{BPE_MERGES}".encode()
    ).hexdigest()[:16]
    d = os.path.join(tempfile.gettempdir(), "graft_bpe_merges")
    os.makedirs(d, exist_ok=True)
    return os.path.join(d, key + ".parquet")


def _ensure_bpe_merges(sf_dir: str) -> pd.DataFrame:
    """Merge-rule table for the corpus — trained once, cached as the
    tokenizer ARTIFACT (keyed to the corpus file identity, like the
    minhash index); the encode pass consumes the artifact, it never
    retrains."""
    p = _bpe_cache_path(sf_dir)
    if os.path.exists(p):
        return pq.read_table(p).to_pandas()
    return doc_bpe_merges(sf_dir)


def doc_bpe_encode(sf_dir: str):
    """Corpus tokenization under the trained BPE artifact: per-document
    (n_words, n_bpe_tokens) — the token-budget accounting a training-
    data pipeline runs after tokenizer training. Merge rules broadcast
    once; per-batch distinct-word cache collapses the Zipf head; pure
    row-local map (stages/bpe.bpe_encode_stage). VALUE-exact SQL
    oracle: the training-replay CTEs' FINAL symbol table gives tokens
    per corpus word (state after round M == rank-ordered encode —
    __ray_entry__._bpe_encode_sql); tests/test_bpe.py pins block
    results against the single-process reference encode."""
    from .stages.bpe import bpe_encode_stage

    merges = _ensure_bpe_merges(sf_dir)
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    return bpe_encode_stage(ds, merges)


RARE_BIGRAM_MAX = 1  # corpus count ≤ this ⇒ the bigram is "rare" (hapax)


def doc_repetition_stats(sf_dir: str):
    """Within-document repetition signals (the Gopher repetition
    filters, Rae et al. 2021 §A1.1, in exact-count form): per doc the
    word and bigram totals, distinct counts, and the most-frequent
    word/bigram occurrence count. Ratios like top_bigram_count/n_bigrams
    are the duplicate-n-gram-fraction gates a curation pipeline
    thresholds on; emitting raw counts keeps the oracle value-exact
    (no float division anywhere).

    Row-local (a doc never leaves its block); the per-batch kernel is
    one pandas explode + two grouped reductions — no per-row Python."""
    from .kernels.textstats import WORD_RE

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def stats(batch: pa.Table) -> pd.DataFrame:
        ids = batch["doc_id"].to_numpy(zero_copy_only=False)
        words = [WORD_RE.findall(t.lower()) for t in batch["text"].to_pylist()]
        tok = pd.DataFrame(
            {"doc_id": np.repeat(ids, [len(w) for w in words]),
             "w": np.concatenate([np.asarray(w, dtype=object) for w in words])
             if any(words) else np.array([], dtype=object)}
        )
        wc = tok.groupby(["doc_id", "w"], sort=False).size()
        wstats = wc.groupby(level=0).agg(["sum", "size", "max"]).rename(
            columns={"sum": "n_words", "size": "n_distinct_words",
                     "max": "top_word_count"}
        )
        bgs = [
            [w[i] + " " + w[i + 1] for i in range(len(w) - 1)] for w in words
        ]
        big = pd.DataFrame(
            {"doc_id": np.repeat(ids, [len(b) for b in bgs]),
             "b": np.concatenate([np.asarray(b, dtype=object) for b in bgs])
             if any(bgs) else np.array([], dtype=object)}
        )
        bc = big.groupby(["doc_id", "b"], sort=False).size()
        bstats = bc.groupby(level=0).agg(["sum", "size", "max"]).rename(
            columns={"sum": "n_bigrams", "size": "n_distinct_bigrams",
                     "max": "top_bigram_count"}
        )
        out = (
            pd.DataFrame({"doc_id": ids})
            .join(wstats, on="doc_id")
            .join(bstats, on="doc_id")
            .fillna(0)
        )
        return out.astype({c: "int64" for c in out.columns})

    return ds.map_batches(stats, batch_format="pyarrow")


LM_MIN_COUNT = 3  # bigrams below this corpus count carry no LM signal
LM_PROB_SCALE = 1_000_000
# hot-bigram salt lanes: each model row is replicated LM_SALT times and
# each candidate row picks lane hash(doc_id) % LM_SALT, so the hottest
# bigram's scoring spreads over LM_SALT partitions instead of one
LM_SALT = 16


def _batch_bigram_codes(texts):
    """Batch-level bigram coding shared by the LM build and scoring
    passes: distinct words via one ``np.unique``, valid bigram-start
    positions (word p and p+1 in the same doc), distinct (w1, w2) pair
    CODES with counts, the occurrence→distinct inverse, and each
    occurrence's doc index. Callers join bigram strings only once per
    DISTINCT pair per batch — the winnowing/substring-dedup
    vectorization applied to the n-gram LM. Returns
    (uniq_words, w1_idx, w2_idx, pair_inverse, doc_of_occurrence,
    pair_counts), or all-None when the batch has no bigrams."""
    from .kernels.textstats import WORD_RE

    word_lists = [WORD_RE.findall((t or "").lower()) for t in texts]
    n_words = np.array([len(w) for w in word_lists], dtype=np.int64)
    total = int(n_words.sum())
    if total == 0 or not (n_words >= 2).any():
        return None, None, None, None, None, None
    flat = np.empty(total, dtype=object)
    flat[:] = [w for ws in word_lists for w in ws]
    uniq, inv = np.unique(flat, return_inverse=True)
    ends = np.cumsum(n_words)
    valid = np.ones(total, dtype=bool)
    valid[ends[n_words > 0] - 1] = False  # last word of each nonempty doc
    pos = np.nonzero(valid)[0]  # bigram start positions, doc-major order
    code = inv[pos].astype(np.int64) * np.int64(len(uniq)) + inv[pos + 1]
    up, pinv, pcnt = np.unique(code, return_inverse=True, return_counts=True)
    doc_of = np.repeat(
        np.arange(len(texts), dtype=np.int64), np.maximum(n_words - 1, 0)
    )
    u = np.int64(len(uniq))
    return (
        uniq,
        (up // u).astype(np.int64),
        (up % u).astype(np.int64),
        pinv,
        doc_of,
        pcnt.astype(np.int64),
    )


def doc_bigram_lm_score(sf_dir: str):
    """Corpus-n-gram LM quality scoring (the CCNet/KenLM idea in exact
    integer form): score each document by the corpus-wide conditional
    probability of its word bigrams — low scores flag gibberish, high
    scores flag natural (or boilerplate-typical) text. Per bigram
    (w1 w2) with corpus count ≥ LM_MIN_COUNT the model stores
    ``prob_micro = (10⁶ · c(w1 w2)) // c(w1)`` (floor division ⇒ the
    DuckDB oracle reproduces it bit-exactly); a document's
    ``lm_score_micro`` sums prob_micro over its bigram OCCURRENCES,
    with unmodeled bigrams contributing 0 and counted in
    ``n_bigrams - n_scored``.

    Fully distributed shape — the MODEL NEVER TOUCHES THE DRIVER (at
    100TB the thresholded bigram table is itself billions of rows):
    (A) one w1-keyed exchange over per-block unigram+bigram count
    partials builds exact (bigram, prob_micro) model rows in the
    cluster, each replicated to LM_SALT salt lanes; (B) one
    (bigram, salt)-keyed exchange co-locates each document's
    per-(doc, bigram) candidate rows — salted by hash(doc_id), so a
    mega-hot bigram's occurrences spread over LM_SALT partitions
    instead of one — with the matching model lane, scoring in a
    vectorized merge; per-doc TOTAL rows ride the same exchange as
    pass-through on a wide salt (no bigram key, no skew) so every doc
    surfaces exactly once; (C) one doc-keyed exchange folds the
    scored partials and totals. This is the doc_rare_bigram_score
    split-stream pattern with the hot-key salt the rare-path only
    documents."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    nparts = _xparts(sf_dir, "documents")

    def count_partials(df: pd.DataFrame) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        frames = []
        uniq, w1i, w2i, _, _, pcnt = _batch_bigram_codes(df["text"].tolist())
        if uniq is not None:
            frames.append(
                pd.DataFrame(
                    {
                        "kind": np.int64(1),
                        "w1": uniq[w1i],
                        "bigram": [
                            uniq[a] + " " + uniq[b] for a, b in zip(w1i, w2i)
                        ],
                        "c": pcnt,
                    }
                )
            )
        ws = [w for t in df["text"] for w in WORD_RE.findall((t or "").lower())]
        if ws:
            u, c = np.unique(np.array(ws, dtype=object), return_counts=True)
            frames.append(
                pd.DataFrame(
                    {"kind": np.int64(0), "w1": u, "bigram": "",
                     "c": c.astype(np.int64)}
                )
            )
        if not frames:
            return pd.DataFrame(
                {"kind": pd.Series(dtype="int64"),
                 "w1": pd.Series(dtype=object),
                 "bigram": pd.Series(dtype=object),
                 "c": pd.Series(dtype="int64")}
            )
        return pd.concat(frames, ignore_index=True)

    _MODEL_EMPTY = pd.DataFrame(
        {"bigram": pd.Series(dtype=object),
         "salt": pd.Series(dtype="int64"),
         "doc_id": pd.Series(dtype="int64"),
         "c": pd.Series(dtype="int64"),
         "p": pd.Series(dtype="int64"),
         "kind": pd.Series(dtype="int64")}
    )

    def model_rows(df: pd.DataFrame) -> pd.DataFrame:
        """Complete-by-w1 partition: exact c1/c12, threshold, integer
        prob, then LM_SALT replicas of each model row."""
        uni = df[df["kind"] == 0].groupby("w1", sort=False)["c"].sum()
        bi = df[df["kind"] == 1].groupby(
            ["w1", "bigram"], sort=False, as_index=False
        )["c"].sum()
        bi = bi[bi["c"] >= LM_MIN_COUNT]
        if not len(bi):
            return _MODEL_EMPTY.copy()
        c1 = uni.reindex(bi["w1"]).to_numpy(dtype=np.int64)
        prob = (LM_PROB_SCALE * bi["c"].to_numpy(dtype=np.int64)) // c1
        m = pd.DataFrame({"bigram": bi["bigram"].to_numpy(), "p": prob})
        reps = m.loc[m.index.repeat(LM_SALT)].reset_index(drop=True)
        reps["salt"] = np.tile(np.arange(LM_SALT, dtype=np.int64), len(m))
        return reps.assign(
            doc_id=np.int64(-1), c=np.int64(0), kind=np.int64(4)
        )[["bigram", "salt", "doc_id", "c", "p", "kind"]]

    model = keyed_exchange(
        ds.map_batches(count_partials, batch_format="pandas"),
        ["w1"], model_rows, nparts,
    )

    def doc_rows(batch: pa.Table) -> pd.DataFrame:
        """Candidate rows (per doc × distinct bigram, salted by doc)
        plus one pass-through TOTAL row per doc on a wide salt."""
        ids = batch["doc_id"].to_numpy(zero_copy_only=False).astype(np.int64)
        n_docs = len(ids)
        uniq, w1i, w2i, pinv, doc_of, _ = _batch_bigram_codes(
            batch["text"].to_pylist()
        )
        wide = pd.util.hash_array(ids) % np.uint64(LM_SALT * 64)
        totals = pd.DataFrame(
            {"bigram": "", "salt": wide.astype(np.int64), "doc_id": ids,
             "c": np.int64(0), "p": np.int64(0), "kind": np.int64(3)}
        )
        if uniq is None:
            return totals
        totals["c"] = np.bincount(doc_of, minlength=n_docs).astype(np.int64)
        # per-(doc, distinct pair) occurrence counts k
        npairs = len(w1i)
        code = doc_of * np.int64(npairs) + pinv
        up, ucnt = np.unique(code, return_counts=True)
        d_idx = (up // npairs).astype(np.int64)
        p_idx = (up % npairs).astype(np.int64)
        bstr = np.array(
            [uniq[a] + " " + uniq[b] for a, b in zip(w1i, w2i)], dtype=object
        )
        cand_ids = ids[d_idx]
        cands = pd.DataFrame(
            {
                "bigram": bstr[p_idx],
                "salt": (pd.util.hash_array(cand_ids) % np.uint64(LM_SALT)
                         ).astype(np.int64),
                "doc_id": cand_ids,
                "c": ucnt.astype(np.int64),
                "p": np.int64(0),
                "kind": np.int64(2),
            }
        )
        return pd.concat([cands, totals], ignore_index=True)

    _PARTIAL_EMPTY = pd.DataFrame(
        {"doc_id": pd.Series(dtype="int64"),
         "nb": pd.Series(dtype="int64"),
         "ns": pd.Series(dtype="int64"),
         "lm": pd.Series(dtype="int64")}
    )

    def score_partition(df: pd.DataFrame) -> pd.DataFrame:
        thru = df[df["kind"] == 3]
        cands = df[df["kind"] == 2]
        out = []
        if len(thru):
            out.append(
                pd.DataFrame(
                    {"doc_id": thru["doc_id"].to_numpy(dtype=np.int64),
                     "nb": thru["c"].to_numpy(dtype=np.int64),
                     "ns": np.int64(0), "lm": np.int64(0)}
                )
            )
        if len(cands):
            m = cands.merge(
                df.loc[df["kind"] == 4, ["bigram", "salt", "p"]],
                on=["bigram", "salt"], how="inner", suffixes=("", "_m"),
            )
            if len(m):
                k = m["c"].to_numpy(dtype=np.int64)
                g = pd.DataFrame(
                    {"doc_id": m["doc_id"].to_numpy(dtype=np.int64),
                     "nb": np.int64(0),
                     "ns": k,
                     "lm": k * m["p_m"].to_numpy(dtype=np.int64)}
                ).groupby("doc_id", sort=False, as_index=False).sum()
                out.append(g)
        if not out:
            return _PARTIAL_EMPTY.copy()
        return pd.concat(out, ignore_index=True).astype(
            {"doc_id": "int64", "nb": "int64", "ns": "int64", "lm": "int64"}
        )

    scored = keyed_exchange(
        ds.map_batches(doc_rows, batch_format="pyarrow").union(model),
        ["bigram", "salt"], score_partition, nparts,
    )

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("doc_id", sort=False, as_index=False)[
            ["nb", "ns", "lm"]
        ].sum()
        return pd.DataFrame(
            {"doc_id": g["doc_id"].astype("int64"),
             "n_bigrams": g["nb"].astype("int64"),
             "n_scored": g["ns"].astype("int64"),
             "lm_score_micro": g["lm"].astype("int64")}
        )

    return keyed_exchange(scored, ["doc_id"], finalize, nparts)


def doc_rare_bigram_score(sf_dir: str):
    """Statistical-LM quality scoring in exact integer form (the CCNet
    perplexity-filter idea with hapax-bigram rate standing in for
    perplexity): per document, how many of its word bigrams occur ≤
    RARE_BIGRAM_MAX times in the whole corpus. High rare-rate ⇒ likely
    gibberish/boilerplate-noise; output (doc_id, n_bigrams,
    n_rare, rare_permille) is all-integer (permille is a truncating
    division, matching DuckDB ``//``), so the oracle is value-exact.

    Skew-safe shape (the hapax set is the LARGEST slice of the bigram
    vocabulary, so broadcasting it would break the broadcast-small
    standard): each block pre-reduces its instances to per-(doc,bigram)
    counts k (docs are block-whole, so k is final), splits the stream
    into per-block PARTIAL COUNT rows (bigram, Σk — ≤ #blocks rows per
    bigram, so a mega-hot bigram costs nothing) and CANDIDATE rows
    (k ≤ RARE_BIGRAM_MAX only — a doc-bigram pair exceeding the
    threshold locally can never be globally rare); one bigram-keyed
    exchange then computes exact global counts and keeps candidates
    whose global count qualifies, pre-summing per doc; one doc-keyed
    exchange folds those tallies into the row-local (doc_id, n_bigrams)
    base. No joins, no broadcast of an unbounded set. Residual skew —
    one bigram appearing exactly once in each of 10⁹ docs — would need
    a (bigram, hash(doc)%S) salt on the candidate stream; noted, not
    built."""
    from .stages.exchange import keyed_exchange

    def doc_bigram_k(batch: pa.Table) -> pd.DataFrame:
        """Per-(doc, bigram) occurrence counts k (docs are block-whole,
        so k is final), already SPLIT into per-block partial count rows
        (doc_id = -1) and rare-candidate rows (k ≤ RARE_BIGRAM_MAX)."""
        from collections import Counter

        from .kernels.textstats import WORD_RE

        docs, bgs, ks = [], [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = WORD_RE.findall(t.lower())
            c = Counter(
                ws[i] + " " + ws[i + 1] for i in range(len(ws) - 1)
            )
            for bg, k in c.items():
                docs.append(doc_id)
                bgs.append(bg)
                ks.append(k)
        inst = pd.DataFrame(
            {
                "doc_id": pd.array(docs, dtype="int64"),
                "bigram": bgs,
                "k": pd.array(ks, dtype="int64"),
            }
        )
        partials = (
            inst.groupby("bigram", sort=False, as_index=False)["k"]
            .sum()
            .assign(doc_id=np.int64(-1))
        )
        cands = inst[inst["k"] <= RARE_BIGRAM_MAX]
        return pd.concat(
            [partials[["doc_id", "bigram", "k"]], cands], ignore_index=True
        )

    def rare_per_partition(df: pd.DataFrame) -> pd.DataFrame:
        """Complete-by-bigram partition: global count per bigram from
        the partial rows; candidates whose global count qualifies are
        pre-summed per doc. Output rows reuse the (doc_id, n) shape."""
        is_partial = df["doc_id"] == -1
        totals = df[is_partial].groupby("bigram", sort=False)["k"].sum()
        cands = df[~is_partial]
        ok = cands["bigram"].map(totals).le(RARE_BIGRAM_MAX)
        out = (
            cands[ok]
            .groupby("doc_id", sort=False, as_index=False)["k"]
            .sum()  # rare INSTANCES (= Σk), matching the oracle's join
            .rename(columns={"k": "n"})
        )
        return out.assign(kind=np.int64(0)).astype({"n": "int64"})

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        nb = df[df["kind"] == 1].set_index("doc_id")["n"]
        nr = df[df["kind"] == 0].groupby("doc_id")["n"].sum()
        nr = nr.reindex(nb.index, fill_value=0)
        nb_v = nb.to_numpy(dtype=np.int64)
        nr_v = nr.to_numpy(dtype=np.int64)
        permille = np.where(nb_v > 0, (1000 * nr_v) // np.maximum(nb_v, 1), 0)
        return pd.DataFrame(
            {
                "doc_id": nb.index.to_numpy(dtype=np.int64),
                "n_bigrams": nb_v,
                "n_rare": nr_v,
                "rare_permille": permille.astype(np.int64),
            }
        )

    def base_rows(batch: pa.Table) -> pd.DataFrame:
        """Second (cheap) corpus pass: total bigrams per doc — regex
        findall only, no per-bigram dict. Keeps the heavy bigram stream
        single-consumption without a mid-pipeline materialize."""
        from .kernels.textstats import WORD_RE

        docs, nb = [], []
        for doc_id, t in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            docs.append(doc_id)
            nb.append(max(len(WORD_RE.findall(t.lower())) - 1, 0))
        return pd.DataFrame(
            {
                "doc_id": pd.array(docs, dtype="int64"),
                "n": pd.array(nb, dtype="int64"),
                "kind": pd.array([1] * len(docs), dtype="int64"),
            }
        )

    bigram_stream = _tbl(
        sf_dir, "documents", columns=["doc_id", "text"]
    ).map_batches(doc_bigram_k, batch_format="pyarrow")
    rare = keyed_exchange(bigram_stream, ["bigram"], rare_per_partition, _xparts(sf_dir, "documents"))
    base = _tbl(sf_dir, "documents", columns=["doc_id", "text"]).map_batches(
        base_rows, batch_format="pyarrow"
    )
    return keyed_exchange(base.union(rare), ["doc_id"], finalize, _xparts(sf_dir, "documents"))


ANTI_JOIN_CUTOFF = "2000-01-01"


def customers_without_orders(sf_dir: str):
    """Distributed ANTI-join: customers with no order since
    ANTI_JOIN_CUTOFF (churn-style query) as a left_anti
    ``keyed_join`` — no driver-side key-set accumulation, so the
    operator scales to 10⁸ customers. The orders side is filtered at
    the read and reduced to per-block distinct keys before the
    exchange."""
    from .stages.exchange import keyed_join

    cutoff = pd.Timestamp(ANTI_JOIN_CUTOFF)

    def recent_keys(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        ts = pc.cast(batch["o_orderdate"], pa.timestamp("us"))
        mask = pc.greater_equal(ts, pa.scalar(cutoff, type=pa.timestamp("us")))
        return pa.table(
            {"c_custkey": pc.unique(batch["o_custkey"].filter(mask))}
        )

    orders = _tbl(sf_dir, "orders", columns=["o_custkey", "o_orderdate"])
    have = orders.map_batches(recent_keys, batch_format="pyarrow")
    cust = _tbl(sf_dir, "customer", columns=["c_custkey", "c_name", "c_mktsegment"])
    return keyed_join(cust, have, "c_custkey", "left_anti")


def suppliers_in_region(sf_dir: str, region: str = "ASIA"):
    """Broadcast SEMI-join: suppliers whose nation is in the given
    region (region ⋈ nation reduced driver-side — they are tiny — and
    shipped once as a key set)."""
    reg = pq.read_table(
        os.path.join(sf_dir, "region.parquet"), columns=["r_regionkey", "r_name"]
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_regionkey"]
    )
    rkeys = {
        k for k, n in zip(reg["r_regionkey"].to_pylist(), reg["r_name"].to_pylist())
        if n == region
    }
    nkeys = {
        k for k, r in zip(nat["n_nationkey"].to_pylist(), nat["n_regionkey"].to_pylist())
        if r in rkeys
    }
    nref = ray.put(nkeys)

    sup = _tbl(sf_dir, "supplier", columns=["s_suppkey", "s_name", "s_nationkey"])

    def semi(batch: pa.Table) -> pa.Table:
        from .state.broadcast import resolve

        ks = resolve(nref)
        mask = pa.array([k in ks for k in batch["s_nationkey"].to_pylist()])
        return batch.filter(mask)

    return sup.map_batches(semi, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Near-duplicate detection over documents (stages/dedup.py)
# ---------------------------------------------------------------------------


def doc_dedup_minhash(sf_dir: str):
    """MinHash+LSH near-dup pairs (shingle → 32-perm sig → 8-band bucket
    exchange → pair dedup → exact-Jaccard ≥ 4/5 verify), by
    stages/dedup.incremental_minhash_pairs with no index."""
    from .stages.dedup import incremental_minhash_pairs

    return incremental_minhash_pairs(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]), None
    )


def doc_decontaminate_fuzzy(sf_dir: str):
    """FUZZY train/eval decontamination — near-duplicate (not just
    shingle-overlapping) cross-split pairs: the MinHash+LSH verified
    pair graph restricted to pairs straddling the md5 80/20 split of
    ``doc_decontaminate``. Catches eval documents that leak into the
    training side as paraphrased/trimmed near-copies, which the exact
    shingle-count gate under-weighs. Same banded bucket exchange as
    doc_dedup_minhash (no all-pairs, no broadcast); the side filter is
    a row-local md5 coin applied to the verified pairs."""
    from .kernels.hashing import stable_u64_md5
    from .stages.dedup import incremental_minhash_pairs

    pairs = incremental_minhash_pairs(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]), None
    )

    def cross_split(df: pd.DataFrame) -> pd.DataFrame:
        ea = np.fromiter(
            (
                stable_u64_md5(str(i).encode("utf-8")) % 10 >= 8
                for i in df["doc_id_a"]
            ),
            dtype=bool,
            count=len(df),
        )
        eb = np.fromiter(
            (
                stable_u64_md5(str(i).encode("utf-8")) % 10 >= 8
                for i in df["doc_id_b"]
            ),
            dtype=bool,
            count=len(df),
        )
        m = df.loc[ea != eb]
        ea = ea[ea != eb]
        return pd.DataFrame(
            {
                "eval_doc_id": np.where(ea, m["doc_id_a"], m["doc_id_b"]).astype(
                    np.int64
                ),
                "train_doc_id": np.where(ea, m["doc_id_b"], m["doc_id_a"]).astype(
                    np.int64
                ),
                "n_common": m["n_common"].to_numpy().astype(np.int64),
                "n_union": m["n_union"].to_numpy().astype(np.int64),
            }
        )

    return pairs.map_batches(cross_split, batch_format="pandas")


def doc_dedup_ppjoin(sf_dir: str):
    """EXACT global near-dup pairs at Jaccard ≥ 3/5 via prefix
    filtering (stages/dedup.ppjoin_pairs — the SSJoin/PPJoin family):
    the deterministic, no-false-negative complement to the MinHash
    paths, and the scale-correct replacement for doc_dedup_jaccard's
    within-source-block baseline — same threshold, NO blocking key, so
    cross-source near-dups (which the block baseline misses by design)
    are found too. Oracle = brute-force all-pairs exact Jaccard, which
    makes the prefix filter's completeness guarantee driver-checked."""
    from .stages.dedup import JACCARD_BLOCK_DEN, JACCARD_BLOCK_NUM, ppjoin_pairs

    return ppjoin_pairs(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]),
        num=JACCARD_BLOCK_NUM,
        den=JACCARD_BLOCK_DEN,
    )


def doc_source_overlap(sf_dir: str):
    """Cross-source duplication matrix — which corpus sources copy from
    which: the MinHash+LSH verified near-dup pair graph aggregated to
    UNORDERED (source_a ≤ source_b) pair counts. The curation signal
    behind source-mix decisions (a source pair with heavy overlap gets
    one side down-weighted). Sources attach via a broadcast doc→source
    lookup (the documents table's bounded source domain); the pair
    graph itself is the proven banded exchange — nothing new shuffles."""
    from .stages.dedup import incremental_minhash_pairs
    from .stages.exchange import keyed_exchange

    pairs = incremental_minhash_pairs(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]), None
    ).materialize()  # consumed twice: id harvest + labeling

    # the doc→source lookup covers the verified pairs' ids only, never
    # the corpus; the rows come back via a pushed-down doc_id filter, so
    # the documents table is not re-scanned on the driver. Bound: the
    # ≤ 2·pairs ids and their sources always reach the driver — there
    # is no distributed tier here, so driver memory is O(verified pairs).
    cand_ids = np.unique(
        np.concatenate(
            [
                np.concatenate(
                    [b["doc_id_a"].to_numpy(zero_copy_only=False),
                     b["doc_id_b"].to_numpy(zero_copy_only=False)]
                )
                for b in pairs.iter_batches(batch_format="pyarrow")
            ]
            or [np.empty(0, np.int64)]
        )
    )
    src_tbl = pq.read_table(
        os.path.join(sf_dir, "documents.parquet"),
        columns=["doc_id", "source"],
        filters=[("doc_id", "in", cand_ids.tolist())] if len(cand_ids) else None,
    )
    sref = ray.put(
        dict(zip(src_tbl["doc_id"].to_pylist(), src_tbl["source"].to_pylist()))
    )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        s = resolve(sref)
        sa = df["doc_id_a"].map(s)
        sb = df["doc_id_b"].map(s)
        lo = np.minimum(sa, sb)
        hi = np.maximum(sa, sb)
        out = pd.DataFrame({"source_a": lo, "source_b": hi})
        return out.groupby(["source_a", "source_b"], as_index=False).size().rename(
            columns={"size": "n_pairs"}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["source_a", "source_b"], as_index=False)["n_pairs"]
            .sum()
            .astype({"n_pairs": "int64"})
        )

    return keyed_exchange(
        pairs.map_batches(attach, batch_format="pandas"),
        ["source_a", "source_b"],
        combine,
        4,  # verified candidate pairs: bounded, pre-aggregated stream
    )


def doc_dedup_minhash_join(sf_dir: str):
    """The rows of doc_dedup_minhash, by the same detector
    (stages/dedup.incremental_minhash_pairs with no index); the name
    stays in the query set, with its SQL oracle."""
    from .stages.dedup import incremental_minhash_pairs

    return incremental_minhash_pairs(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]), None
    )


# Ingest split for the incremental-dedup demo: every 5th doc plays the
# "new crawl slice", the rest the standing corpus. The SQL oracle
# replicates this rule, so keep them in sync (oracle_sql interpolates it).
INCR_NEW_MOD = 5


def _docs_split_factory(sf_dir: str, new: bool):
    def factory():
        ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

        def keep(t: pa.Table) -> pa.Table:
            rem = np.asarray(t["doc_id"]) % INCR_NEW_MOD == 0
            return t.filter(pa.array(rem if new else ~rem))

        return ds.map_batches(keep, batch_format="pyarrow")

    return factory


def _ensure_minhash_index(sf_dir: str) -> dict:
    """Build (once, by ``run_stage``) the persisted LSH index over the
    base split — the standing-corpus artifact an ingest-time dedup runs
    against. Fingerprint: documents.parquet's path, size and
    ``mtime_ns`` and the index layout, so a same-size rewrite of the
    file or a layout change rebuilds it."""
    from .stages.dedup import INDEX_LAYOUT_VERSION, build_minhash_index
    from .state import manifest as mf

    doc_path = os.path.abspath(os.path.join(sf_dir, "documents.parquet"))
    st = os.stat(doc_path)
    fp = mf.fingerprint(
        "incr-v3", INDEX_LAYOUT_VERSION, doc_path, st.st_size, st.st_mtime_ns
    )
    out = _query_cache_dir(sf_dir, "minhash_index")
    mf.run_stage(
        "minhash-index", out, fp,
        lambda tmp: build_minhash_index(_docs_split_factory(sf_dir, new=False), tmp),
    )
    return {
        "bands": os.path.join(out, "bands"),
        "shingles": os.path.join(out, "shingles"),
    }


def doc_dedup_incremental(sf_dir: str):
    """Ingest-time dedup: the doc_id % 5 == 0 slice is deduped against a
    PERSISTED LSH index of the rest of the corpus (built once, cached) —
    new–new and new–old pairs at the same exact J ≥ 4/5 threshold as the
    batch paths, without re-shuffling the standing corpus
    (stages/dedup.build_minhash_index / incremental_minhash_pairs)."""
    from .stages.dedup import incremental_minhash_pairs

    idx = _ensure_minhash_index(sf_dir)
    return incremental_minhash_pairs(_docs_split_factory(sf_dir, new=True), idx)


_CLUSTER_ROUNDS = 8  # exact for component diameter ≤ 8; the oracle is
# the true transitive closure (recursive CTE), so any diameter overrun
# would surface as a mismatch rather than hide.


def doc_dedup_clusters(sf_dir: str):
    """Near-dup canonicalization (the step after pair detection):
    MinHash+LSH pairs → connected components → (doc_id, cluster_rep =
    component-min doc_id) for every doc in some near-dup pair
    (stages/dedup.minhash_clusters over
    stages/canonicalize.connected_components_ds)."""
    from .stages.dedup import minhash_clusters

    return minhash_clusters(
        lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]),
        rounds=_CLUSTER_ROUNDS,
    )


def doc_dedup_keep(sf_dir: str):
    """The actual corpus dedup: keep one representative per near-dup
    cluster (the component-min doc) plus every unclustered doc.

    Scale shape: the drop list (non-representative cluster members)
    feeds a left_anti ``keyed_join`` against the corpus — no
    driver-side key set, both sides streamed."""
    from .stages.exchange import keyed_join

    def drops_only(df: pd.DataFrame) -> pd.DataFrame:
        return df.loc[df["cluster_rep"] < df["doc_id"], ["doc_id"]]

    drops = doc_dedup_clusters(sf_dir).map_batches(drops_only, batch_format="pandas")
    docs = _tbl(sf_dir, "documents", columns=["doc_id"])
    return keyed_join(docs, drops, "doc_id", "left_anti")


# PII scrub: the testdata corpus contains no PII-shaped strings, so the
# operator plants deterministic doc_id-derived PII on every 7th doc —
# the planting rule is PART of the operator definition and replicated
# verbatim in the SQL oracle, so extraction, sequential redaction, and
# the scrubbed-text md5 are all value-checked, not vacuously zero.
PII_PLANT_MOD = 7


def _plant_pii(doc_id: int, text: str) -> str:
    if doc_id % PII_PLANT_MOD:
        return text
    d = doc_id
    return (
        f"contact u{d}@ex{d % 5}.com from 10.0.{d % 256}.{d % 100} "
        f"call 555-{100 + d % 900}-{d % 10000:04d} " + text
    )


def doc_pii_scrub(sf_dir: str):
    """PII detection + redaction over documents (kernels/pii.py):
    per-doc email/IPv4/phone counts plus the md5 of the sequentially
    scrubbed text. Row-local map — no shuffle at any scale; regexes are
    RE2-compatible so DuckDB reproduces the scrub byte-for-byte."""
    from .kernels.pii import md5_hex, scrub_text

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def scrub(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        rows = [
            scrub_text(_plant_pii(i, t))
            for i, t in zip(ids, batch["text"].to_pylist())
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_emails": pa.array([r[1] for r in rows], pa.int64()),
                "n_ips": pa.array([r[2] for r in rows], pa.int64()),
                "n_phones": pa.array([r[3] for r in rows], pa.int64()),
                "scrub_md5": pa.array([md5_hex(r[0]) for r in rows], pa.string()),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


# Training-sequence packing: fixed-size token chunks per document.
PACK_CHUNK = 64


def doc_pack_chunks(sf_dir: str):
    """Sequence packing for training: split each document's token
    stream into fixed PACK_CHUNK-token chunks, emitting one row per
    chunk with boundary metadata (doc_id, chunk_idx, n_tokens,
    first_tok, last_tok). Row-local flat map (explode) — no shuffle;
    chunk rows are what a downstream pack-into-2048-token-rows stage
    would consume. Reference analog: the MAX_SEQ_LEN truncation
    semantics (app.py / kernels/tagger.py) generalized from
    truncate-to-one to chunk-to-many."""
    from .kernels.textstats import WORD_RE

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        ids, cidx, ntok, first, last = [], [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = WORD_RE.findall(text)
            for c in range((len(ws) + PACK_CHUNK - 1) // PACK_CHUNK):
                seg = ws[c * PACK_CHUNK : (c + 1) * PACK_CHUNK]
                ids.append(doc_id)
                cidx.append(c)
                ntok.append(len(seg))
                first.append(seg[0])
                last.append(seg[-1])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "first_tok": pa.array(first, pa.string()),
                "last_tok": pa.array(last, pa.string()),
            }
        )

    return ds.map_batches(chunks, batch_format="pyarrow")


# Deterministic seeded global training order (shuffle-as-sort).
TRAIN_ORDER_SEED = 41
TRAIN_ORDER_HEAD = 100


def _md5_order_parts(ids, tag: str) -> tuple[list[int], list[int]]:
    """Seeded-md5 unsigned order key split into (hi bit, low 63 bits):
    int64-safe columns whose lexicographic (hi, low) order equals the
    u64 order. SQL order parity needs UNSIGNED order, so the key is
    shifted into the positive range rather than bit-reinterpreted —
    the workaround lives here once, shared by every seeded-shuffle
    sort (doc_training_order, doc_curriculum_order)."""
    from .kernels.hashing import stable_u64_md5

    ks = [stable_u64_md5(f"{tag}:{i}".encode("utf-8")) for i in ids]
    return [k >> 63 for k in ks], [k % (1 << 63) for k in ks]


def doc_training_order(sf_dir: str):
    """Deterministic 'global shuffle' for training order: every doc
    gets an md5-derived order key (seeded, process/retry-stable —
    Ray's random_shuffle is not deterministic), a DISTRIBUTED sort
    range-partitions by the key, and the first TRAIN_ORDER_HEAD rows
    come back with their global positions. The head is driver-bounded;
    the order key + sort define the full training order at any scale
    (a full run would write_parquet the sorted stream instead of
    limiting)."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id"])

    def key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        hi, lo = _md5_order_parts(ids, f"shuf:{TRAIN_ORDER_SEED}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "order_key": pa.array(lo, pa.int64()),
                "order_hi": pa.array(hi, pa.int64()),
            }
        )

    head = (
        ds.map_batches(key, batch_format="pyarrow")
        .sort(["order_hi", "order_key", "doc_id"])
        .limit(TRAIN_ORDER_HEAD)
        .to_pandas()
    )
    head = head.reset_index(drop=True)
    head["order_idx"] = head.index.astype("int64")
    return head[["order_idx", "doc_id", "order_hi", "order_key"]]


CURRICULUM_HEAD = 100
CURRICULUM_SEED = 17


def doc_curriculum_order(sf_dir: str):
    """Curriculum training order — the easy-first schedule curriculum
    learning uses (Bengio et al., ICML'09) expressed as a deterministic
    distributed sort: docs rank by quality TIER descending (the integer
    0–4 gate count behind kernels/textstats.quality_score — clean docs
    first), md5-shuffled WITHIN each tier (seeded, retry-stable — the
    doc_training_order key discipline), doc_id as the final tiebreak.
    The sort range-partitions by the composite key; the head is
    driver-bounded, and a full run would write_parquet the sorted
    stream. Oracle = the same tier arithmetic + window row_number."""
    from .kernels.textstats import quality_features, quality_gate_count

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def key(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        texts = batch["text"].to_pylist()
        tiers = [
            quality_gate_count(quality_features(t or "")) for t in texts
        ]
        hi, lo = _md5_order_parts(ids, f"curr:{CURRICULUM_SEED}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "tier": pa.array(tiers, pa.int64()),
                # ascending composite: inverted tier, then the shared
                # seeded-md5 unsigned order columns
                "inv_tier": pa.array([4 - t for t in tiers], pa.int64()),
                "order_hi": pa.array(hi, pa.int64()),
                "order_key": pa.array(lo, pa.int64()),
            }
        )

    head = (
        ds.map_batches(key, batch_format="pyarrow")
        .sort(["inv_tier", "order_hi", "order_key", "doc_id"])
        .limit(CURRICULUM_HEAD)
        .to_pandas()
        .reset_index(drop=True)
    )
    head["order_idx"] = head.index.astype("int64")
    return head[["order_idx", "doc_id", "tier"]]


PAGERANK_ITERS = 3


def part_copurchase_pagerank(sf_dir: str):
    """Iterative graph algorithm: integer fixed-point PageRank
    (stages/pagerank.py) over the part co-purchase graph — directed
    edges between distinct parts sharing an order. Edge build is two
    keyed exchanges (per-order vectorized self-merge for pairs, then a
    global (src, dst) distinct); the rank iterations are all-integer
    floor arithmetic, so the result is bit-identical across
    partitionings and to the SQL oracle."""
    from .stages.pagerank import pagerank_int

    # directed edge set == the shared undirected edge cache exploded in
    # both directions ({(x,y): x!=y share an order} == {(u,v),(v,u):
    # u<v share an order}); reading the per-fixture cache replaces the
    # two exchanges that used to dominate this query (8 → 18.4s,
    # 16 → 11.9s, 32 → 8.5s measured at sf0.1 for the inline build).
    # pagerank's own pin exchange dedups (src, dst), keyed on src.
    def both_dirs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "src": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
                "dst": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
            }
        )

    edges = _copurchase_edges(sf_dir).map_batches(both_dirs, batch_format="pandas")
    pr = pagerank_int(edges, iterations=PAGERANK_ITERS, num_partitions=32)
    return pr.map_batches(
        lambda df: pd.DataFrame(
            {"part_id": df["node"].astype("int64"),
             "pr_score": df["pr_score"].astype("int64")}
        ),
        batch_format="pandas",
    )


PPS_K = 512  # systematic PPS sample size (threshold count)
PPS_BUCKETS = 32


def orders_pps_sample(sf_dir: str):
    """Weighted sampling proportional-to-size, EXACT and deterministic:
    systematic (Madow) PPS over the order-key-ordered cumulative weight
    line — item i is picked ``floor(cum_i·K/T) - floor(cum_{i-1}·K/T)``
    times (≥1 pick iff its weight interval contains a multiple of T/K).
    The streaming-weighted-sampling problem class (Streaming Weighted
    Sampling over Join Queries, EDBT'23) solved with integer arithmetic
    only, so the sample is bit-identical across partitionings and in
    SQL (SUM() OVER (ORDER BY o_orderkey) + the same floor gates).

    Distributed shape: contiguous key-range buckets from parquet
    FOOTER min/max (metadata-only, no scan) → one bucket-keyed
    exchange does the local ordered cumsum → bucket totals (≤
    PPS_BUCKETS rows) combine on the driver into exclusive offsets →
    broadcast back for the row-local gate. One exchange total; the
    global prefix sum never serializes through a single partition
    (the events_running_total two-phase pattern on a single global
    sequence)."""
    from .stages.exchange import keyed_exchange

    path = os.path.join(sf_dir, "orders.parquet")
    pf = pq.ParquetFile(path)
    names = pf.schema_arrow.names
    ci = names.index("o_orderkey")
    stats = [
        pf.metadata.row_group(i).column(ci).statistics
        for i in range(pf.metadata.num_row_groups)
    ]
    if all(s is not None and s.has_min_max for s in stats):
        gmin = min(s.min for s in stats)
        gmax = max(s.max for s in stats)
    else:  # writer omitted footer stats: one cheap single-column scan
        import pyarrow.compute as pc

        col = pq.read_table(path, columns=["o_orderkey"])["o_orderkey"]
        gmin = pc.min(col).as_py()
        gmax = pc.max(col).as_py()
    width = (gmax - gmin) // PPS_BUCKETS + 1

    ds = rd.read_parquet(path, columns=["o_orderkey", "o_totalprice"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        cents = np.floor(df["o_totalprice"].to_numpy(dtype=np.float64) * 100.0)
        return pd.DataFrame(
            {
                "o_orderkey": df["o_orderkey"].astype("int64"),
                "cents": cents.astype(np.int64),
                "bucket": ((df["o_orderkey"] - gmin) // width).astype("int64"),
            }
        )

    def local_scan(df: pd.DataFrame) -> pd.DataFrame:
        # a hash partition may hold several buckets — scan each bucket
        # independently (offsets are per BUCKET, not per partition)
        df = df.sort_values(["bucket", "o_orderkey"], kind="mergesort").reset_index(
            drop=True
        )
        return df.assign(
            local_cum=df.groupby("bucket", sort=False)["cents"].cumsum()
        )

    scanned = keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"), ["bucket"], local_scan,
        PPS_BUCKETS,
    ).materialize()

    totals = (
        scanned.map_batches(
            lambda df: df.groupby("bucket", as_index=False)["cents"].sum(),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("bucket", as_index=False)["cents"]
        .sum()
        .sort_values("bucket", ignore_index=True)
    )
    tot = int(totals["cents"].sum())
    offsets = dict(
        zip(
            totals["bucket"],
            np.concatenate([[0], np.cumsum(totals["cents"].to_numpy())[:-1]]),
        )
    )
    ref = ray.put((offsets, tot))

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        offs, t = resolve(ref)
        cum_end = df["local_cum"].to_numpy() + df["bucket"].map(offs).to_numpy()
        cum_start = cum_end - df["cents"].to_numpy()
        picks = (cum_end * PPS_K) // t - (cum_start * PPS_K) // t
        out = df.loc[picks > 0, ["o_orderkey", "cents"]].rename(
            columns={"cents": "weight_cents"}
        )
        return out.assign(n_picks=picks[picks > 0]).astype(
            {"o_orderkey": "int64", "weight_cents": "int64", "n_picks": "int64"}
        )

    return scanned.map_batches(gate, batch_format="pandas")


FREQ_PAIR_MIN_SUPPORT = 3  # orders containing both parts


def part_frequent_pairs(sf_dir: str):
    """Frequent-itemset mining, level 2 (the a-priori / market-basket
    workload): unordered part pairs co-purchased in ≥
    FREQ_PAIR_MIN_SUPPORT distinct orders, with exact support counts.
    Shape: one order-keyed exchange explodes each basket's pairs with a
    map-side per-partition pair-count COMBINER (duplicate orders of a
    pair inside a partition pre-aggregate), then a pair-keyed exchange
    sums supports and applies the threshold in-cluster — the classic
    two-round counting a-priori uses for candidate pairs; higher levels
    would iterate the same shape over the surviving itemsets."""
    from .stages.exchange import keyed_exchange

    li = _tbl(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

    def basket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        d = df.drop_duplicates()
        m = d.merge(d, on="l_orderkey")
        m = m[m["l_partkey_x"] < m["l_partkey_y"]]
        # one row per (order, pair) already — d is (order, part)-distinct,
        # so the self-merge cannot duplicate; combiner: count per pair
        return (
            m.groupby(["l_partkey_x", "l_partkey_y"], sort=False, as_index=False)
            .size()
            .rename(
                columns={"l_partkey_x": "part_a", "l_partkey_y": "part_b",
                         "size": "support"}
            )
        )

    partials = keyed_exchange(li, ["l_orderkey"], basket_pairs, 32)

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(["part_a", "part_b"], as_index=False)["support"].sum()
        out = out.loc[out["support"] >= FREQ_PAIR_MIN_SUPPORT]
        return out.astype(
            {"part_a": "int64", "part_b": "int64", "support": "int64"}
        )

    return keyed_exchange(partials, ["part_a", "part_b"], combine, 8)


TRI_SAMPLE_MOD = 8  # DOULION edge-keep probability p = 1/MOD


def part_triangle_counts(sf_dir: str):
    """Per-node triangle counts on an md5-sparsified co-purchase graph —
    DOULION edge sampling (Tsourakakis et al., KDD'09: keep each edge
    with probability p, estimate global triangles as count/p³) fused
    with the degree-oriented distributed triangle enumeration (each
    triangle a<b<c in (deg,id) order is found exactly once at its
    lowest-order apex). Deterministic md5 coin on the canonical edge
    key keeps the sample — and therefore every count — replayable in
    SQL.

    Exchange plan (all keyed, no broadcast): per-order pair explode →
    global edge dedup (u-keyed) → adjacency (node-keyed: degree) →
    orient (other-keyed: both degrees known, keep lower→higher) →
    wedge generation (src-keyed: Σ outdeg² pairs, bounded by the
    orientation to O(m^1.5) and by the p² wedge thinning) → triangle
    closure (a,b-keyed semi-join of wedges against oriented edges) →
    per-node count. The full graph's ~83M wedges at sf0.1 shrink to
    ~1.3M at p=1/8 — the estimator trades exactly the variance DOULION
    quantifies (global estimate = sampled count / p³, measured ~1%
    error at p=1/4 and a few % at p=1/8 on this corpus) for 64× less
    exchange volume; p is the single knob a 100 TB run would retune."""
    from .stages.exchange import keyed_exchange

    # shared per-fixture edge cache (coin filter == the fused-coin build
    # this used inline: the hash commutes with the global dedup)
    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD).materialize()
    # materialized: consumed twice (degree combine + orientation)

    # degree table via map-side COMBINER: each block pre-counts its own
    # distinct endpoints, so the exchange ships ~distinct-nodes-per-
    # block rows instead of the 2|E| adjacency explosion
    def deg_partial(batch: pa.Table) -> pd.DataFrame:
        u = np.asarray(batch["u"].to_pylist(), dtype=np.int64)
        v = np.asarray(batch["v"].to_pylist(), dtype=np.int64)
        node, cnt = np.unique(np.concatenate([u, v]), return_counts=True)
        return pd.DataFrame({"node": node, "n": cnt.astype(np.int64)})

    deg_df = (
        keyed_exchange(
            edges.map_batches(deg_partial, batch_format="pyarrow"),
            ["node"],
            lambda df: df.groupby("node", as_index=False)["n"].sum(),
            _xparts(sf_dir, "lineitem"),
        )
        .to_pandas()
        .astype({"node": "int64", "n": "int64"})
    )
    # one int per node — bounded by the part DIMENSION, not the edge
    # count; at a scale where even that exceeds a broadcast (billions
    # of nodes) the orientation reverts to two adjacency-keyed
    # exchanges attaching each endpoint's degree in turn (the shape
    # this code used before the combiner: node-keyed transform-size,
    # then other-keyed orient) — same math, no driver state
    deg = pd.Series(
        deg_df["n"].to_numpy(), index=deg_df["node"].to_numpy()
    )
    dref = ray.put(deg)

    def orient(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        d = resolve(dref)
        du = d.reindex(df["u"]).to_numpy()
        dv = d.reindex(df["v"]).to_numpy()
        fwd = (du < dv) | ((du == dv) & (df["u"].to_numpy() < df["v"].to_numpy()))
        src = np.where(fwd, df["u"], df["v"]).astype(np.int64)
        dst = np.where(fwd, df["v"], df["u"]).astype(np.int64)
        dst_deg = np.where(fwd, dv, du).astype(np.int64)
        return pd.DataFrame({"src": src, "dst": dst, "dst_deg": dst_deg})

    # materialized: consumed twice below (wedge generation + edge marks)
    oriented = edges.map_batches(orient, batch_format="pandas").materialize()

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="src")
        keep = (m["dst_deg_x"] < m["dst_deg_y"]) | (
            (m["dst_deg_x"] == m["dst_deg_y"]) & (m["dst_x"] < m["dst_y"])
        )
        m = m.loc[keep]
        return pd.DataFrame(
            {
                "a": m["dst_x"].astype("int64"),
                "b": m["dst_y"].astype("int64"),
                "s": m["src"].astype("int64"),
                "kind": np.ones(len(m), dtype=np.int64),
            }
        )

    wedge_ds = keyed_exchange(oriented, ["src"], wedges, 16)
    edge_marks = oriented.map_batches(
        lambda df: pd.DataFrame(
            {
                "a": df["src"].astype("int64"),
                "b": df["dst"].astype("int64"),
                "s": np.zeros(len(df), dtype=np.int64),
                "kind": np.zeros(len(df), dtype=np.int64),
            }
        ),
        batch_format="pandas",
    )

    def close(df: pd.DataFrame) -> pd.DataFrame:
        e = df.loc[df["kind"] == 0, ["a", "b"]]
        w = df.loc[df["kind"] == 1].merge(e, on=["a", "b"])
        nodes = np.concatenate(
            [w["s"].to_numpy(), w["a"].to_numpy(), w["b"].to_numpy()]
        )
        vc = pd.Series(nodes).value_counts()
        return pd.DataFrame(
            {"part_id": vc.index.astype("int64"), "n": vc.to_numpy().astype("int64")}
        )

    partials = keyed_exchange(wedge_ds.union(edge_marks), ["a", "b"], close, 16)

    def total(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("part_id", as_index=False)["n"].sum()
        return out.rename(columns={"n": "n_triangles"}).astype(
            {"part_id": "int64", "n_triangles": "int64"}
        )

    return keyed_exchange(partials, ["part_id"], total, 8)


def segment_year_revenue(sf_dir: str):
    """Distributed SHUFFLE join (``keyed_join``) — the non-broadcast
    path for when both sides are large: orders ⋈ customer on custkey,
    then revenue per (mktsegment, order year)."""
    from .stages.exchange import grouped_aggregate, keyed_join

    orders = _tbl(sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"])
    cust = _tbl(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
    joined = keyed_join(orders, cust, "o_custkey", "inner", right_on="c_custkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            o_year=df["o_orderdate"].dt.year.astype("int64"),
            cents=(df["o_totalprice"] * 100).round().astype("int64"),
        )
        return (
            df.groupby(["c_mktsegment", "o_year"], sort=False)
            .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["c_mktsegment", "o_year"], sort=False)
            .agg(n_orders=("n_orders", "sum"), revenue_cents=("revenue_cents", "sum"))
            .reset_index()
        )

    return grouped_aggregate(joined, ["c_mktsegment", "o_year"], partial, combine)


BLOOM_SEGMENT = "BUILDING"


def building_year_revenue_bloom(sf_dir: str):
    """Shuffle join with BLOOM-FILTER sideways information passing
    (kernels/bloom.py): revenue per year for one customer segment.

    The selective side (segment customers, ~1/5 of the table) builds
    per-block partial blooms (mergeable 128 KiB bit arrays) that the
    driver ORs and broadcasts; the orders scan drops rows whose custkey
    cannot match BEFORE the join exchange — ~80% of the big side never
    shuffles. Bloom false positives merely ride into the exact inner
    join, so the result is identical to the unfiltered join (same SQL
    oracle shape as segment_year_revenue restricted to the segment)."""
    import pyarrow.compute as pc

    from .kernels.bloom import bloom_build, bloom_merge, bloom_probe
    from .state.broadcast import resolve
    from .stages.exchange import grouped_aggregate, keyed_join

    seg = BLOOM_SEGMENT

    def seg_keys(batch: pa.Table) -> pa.Table:
        mask = pc.equal(batch["c_mktsegment"], seg)
        return pa.table({"c_custkey": batch["c_custkey"].filter(mask)})

    def block_bloom(batch: pa.Table) -> pa.Table:
        bits = bloom_build(batch["c_custkey"].to_pylist())
        return pa.table({"bloom": pa.array([bits.tobytes()], pa.binary())})

    parts = (
        _tbl(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"])
        .map_batches(seg_keys, batch_format="pyarrow")
        .map_batches(block_bloom, batch_format="pyarrow")
        .to_pandas()  # one 128 KiB row per block — bounded by block count
    )
    bloom = bloom_merge([np.frombuffer(b, dtype=np.uint8) for b in parts["bloom"]])
    bref = ray.put(bloom)

    cust = _tbl(sf_dir, "customer", columns=["c_custkey", "c_mktsegment"]).map_batches(
        seg_keys, batch_format="pyarrow"
    )

    def probe(batch: pa.Table) -> pa.Table:
        bits = resolve(bref)
        keep = bloom_probe(bits, batch["o_custkey"].to_pylist())
        return batch.filter(pa.array(keep))

    orders = _tbl(
        sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"]
    ).map_batches(probe, batch_format="pyarrow")
    joined = keyed_join(orders, cust, "o_custkey", "inner", right_on="c_custkey")

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            o_year=df["o_orderdate"].dt.year.astype("int64"),
            cents=(df["o_totalprice"] * 100).round().astype("int64"),
        )
        return (
            df.groupby("o_year", sort=False)
            .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("o_year", sort=False)
            .agg(n_orders=("n_orders", "sum"), revenue_cents=("revenue_cents", "sum"))
            .reset_index()
        )

    return grouped_aggregate(joined, ["o_year"], partial, combine)


def doc_dedup_simhash(sf_dir: str):
    """SimHash near-dup pairs (64-bit md5 simhash → 4×16-bit chunk
    bucket exchange → hamming ≤ 3 verify)."""
    from .stages.dedup import simhash_pairs

    return simhash_pairs(lambda: _tbl(sf_dir, "documents", columns=["doc_id", "text"]))


def doc_dedup_jaccard(sf_dir: str):
    """Exact word-3-gram Jaccard ≥ 3/5 all-pairs within each source
    block (blocked exact baseline for the LSH detectors)."""
    from .stages.dedup import jaccard_pairs

    return jaccard_pairs(
        _tbl(sf_dir, "documents", columns=["doc_id", "text", "source"])
    )


EMB_COS_THRESHOLD = 0.45
EMB_ASSIGN = 2  # multi-probe: each vector joins its top-2 centroid buckets


def emb_neardup_pairs(sf_dir: str):
    """Embedding-cosine near-dup via IVF bucketing — the 100TB shape.

    16 deterministic centroids (the vectors with vec_id <
    IVF_N_CENTROIDS, read with a pushed-down row filter — never the
    full table); every vector is MULTI-ASSIGNED to its top-EMB_ASSIGN
    centroids (cos desc, centroid-id asc tie-break); candidate pairs
    exist only WITHIN a shared bucket (keyed exchange on the bucket id,
    per-bucket vectorized matmul); pairs passing cos ≥ 0.45 with
    vec_id_a < vec_id_b are deduped across shared buckets by a second
    exchange on the pair key. Nothing broadcasts the corpus matrix and
    no stage is O(N²): per-bucket work is O((N/C)²·d) and C (the
    centroid count) scales with the corpus. The SQL oracle replicates
    the bucket rule exactly, so the check stays value-exact."""
    from .stages.exchange import keyed_exchange

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    cent = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", IVF_N_CENTROIDS)],
    )
    cdf = cent.to_pandas().sort_values("vec_id")
    cmat = np.stack([np.asarray(e, dtype=np.float64) for e in cdf["embedding"]])
    cmat = cmat / np.linalg.norm(cmat, axis=1, keepdims=True)
    ref = ray.put(cmat)

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def assign(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        cm = resolve(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype="int64")
        embs = batch["embedding"].to_pylist()
        mat = np.stack([np.asarray(e, dtype=np.float64) for e in embs])
        nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cos = nm @ cm.T  # [B, C]
        # stable argsort of -cos keeps ascending cid on ties → exactly
        # the oracle's (cos DESC, cid ASC) probe order
        top = np.argsort(-cos, axis=1, kind="stable")[:, :EMB_ASSIGN]
        frames = []
        for a in range(EMB_ASSIGN):
            frames.append(
                pd.DataFrame(
                    {"bucket": top[:, a].astype("int64"), "vec_id": vids, "emb": embs}
                )
            )
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in df.groupby("bucket", sort=False):
            if len(g) < 2:
                continue
            vids = g["vec_id"].to_numpy()
            m = np.stack([np.asarray(e, dtype=np.float64) for e in g["emb"]])
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            cos = m @ m.T
            ii, jj = np.nonzero(
                (cos >= EMB_COS_THRESHOLD) & (vids[:, None] < vids[None, :])
            )
            out_a.append(vids[ii])
            out_b.append(vids[jj])
        a = np.concatenate(out_a) if out_a else np.empty(0, dtype="int64")
        b = np.concatenate(out_b) if out_b else np.empty(0, dtype="int64")
        return pd.DataFrame(
            {"vec_id_a": a.astype("int64"), "vec_id_b": b.astype("int64")}
        )

    pairs = keyed_exchange(
        ds.map_batches(assign, batch_format="pyarrow", batch_size=1024),
        ["bucket"],
        bucket_pairs, _xparts(sf_dir, "embeddings"),
    )
    # a pair can surface in up to EMB_ASSIGN shared buckets — dedupe
    return keyed_exchange(
        pairs,
        ["vec_id_a", "vec_id_b"],
        lambda df: df.drop_duplicates(),
        2,
    )


IVF_N_CENTROIDS = 16
IVF_NPROBE = 4


def ann_topk_ivf(sf_dir: str):
    """IVF-style approximate top-k: deterministic centroids (the vectors
    with vec_id < 16), every vector assigned to its max-cosine centroid,
    queries probe their 4 nearest centroid buckets only. Same output
    shape as ann_topk; the SQL oracle replicates the probe logic exactly.

    Setup reads ONLY the centroid/query rows via parquet filter
    pushdown (row-group pruning) — never the whole embeddings table."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    t = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", max(IVF_N_CENTROIDS, ANN_N_QUERIES))],
    )
    df = t.to_pandas()
    df["norm_emb"] = df["embedding"].map(
        lambda e: (lambda v: v / np.linalg.norm(v))(np.asarray(e, dtype=np.float64))
    )
    cent = df[df["vec_id"] < IVF_N_CENTROIDS].sort_values("vec_id")
    cmat = np.stack(cent["norm_emb"].to_numpy())  # [C, D]
    qdf = df[df["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qmat = np.stack(qdf["norm_emb"].to_numpy())
    qids = qdf["vec_id"].to_numpy()
    # probe sets: 4 nearest centroids per query (cos desc, centroid asc)
    qcos = qmat @ cmat.T
    # [Q, C] bool probe masks: row qi is True at its IVF_NPROBE nearest
    # centroids — indexing a mask row with the batch's assign vector is
    # one vectorized gather (no per-element membership tests)
    probe_mask = np.zeros((len(qids), cmat.shape[0]), dtype=bool)
    for qi in range(len(qids)):
        order = np.lexsort((np.arange(cmat.shape[0]), -qcos[qi]))
        probe_mask[qi, order[:IVF_NPROBE]] = True
    ref = ray.put((qids, qmat, cmat, probe_mask))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qm, cm, probe_mask_ = resolve(ref)
        vids = np.asarray(batch["vec_id"].to_pylist())
        mat = np.stack(
            [np.asarray(e, dtype=np.float64) for e in batch["embedding"].to_pylist()]
        )
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        assign = np.argmax(mat @ cm.T, axis=1)  # first max = lowest centroid id
        qcos_ = qm @ mat.T  # [Q, B]
        rows = []
        k = ANN_K + 1
        for qi, qid in enumerate(qids_):
            mask = probe_mask_[qi][assign]  # vectorized bucket-membership gather
            mask &= vids != qid
            idx = np.nonzero(mask)[0]
            if idx.size == 0:
                continue
            take = idx[np.argsort(-qcos_[qi, idx])[:k]]
            for j in take:
                rows.append((int(qid), int(vids[j]), float(qcos_[qi, j])))
        return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=1024)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos", "neighbor_id"], ascending=[False, True]).head(ANN_K)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        return g[["query_id", "neighbor_id", "rank"]]

    return _combine(partials, 4).groupby("query_id").map_groups(
        final_topk, batch_format="pandas"
    )


KMEANS_K = 8
KMEANS_ITERS = 3


def emb_kmeans(sf_dir: str):
    """Distributed Lloyd k-means over the embedding table — integer
    fixed-point, so the assignment after KMEANS_ITERS rounds is
    bit-identical to the DuckDB unrolled-CTE oracle (stages/kmeans.py:
    pin quantized vectors once, broadcast k·d centroids per round,
    per-block partial sums, zero per-iteration shuffle). The clustering
    primitive behind SemDeDup-style curation and IVF centroid training."""
    from .stages.kmeans import kmeans_int

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    return kmeans_int(ds, k=KMEANS_K, iterations=KMEANS_ITERS)


def doc_winnowing(sf_dir: str):
    """Winnowing document fingerprints (Schleimer et al. SIGMOD'03):
    distinct minimal 8-gram md5 hashes per 4-hash window — the
    rolling-hash fingerprinting operator for plagiarism/overlap-style
    dedup. Oracle replicates the window-min selection exactly."""
    from .kernels.hashing import winnowing_fingerprints_batch

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pd.DataFrame:
        # batch-level gram hashing: per-position work is numpy, md5 runs
        # once per DISTINCT gram per batch (kernels/hashing.py; equality
        # with the sequential kernel is property-tested)
        idx, fps = winnowing_fingerprints_batch(batch["text"].to_pylist())
        doc_ids = batch["doc_id"].to_numpy(zero_copy_only=False)[idx]
        return pd.DataFrame(
            {"doc_id": pd.array(doc_ids, dtype="int64"),
             "fingerprint": pd.array(fps, dtype="uint64")}
        )

    return ds.map_batches(f, batch_format="pyarrow")


MARKUP_BANK = ("data", "spark", "merge")  # pairwise suffix-prefix-free: wraps can never overlap


def doc_markup_parse(sf_dir: str):
    """Inline-markup corpus reader parity (S2/S3, fonctions.py:61-117):
    deterministically wrap the first occurrence of each MARKUP_BANK word
    in <category="term"> tags, then run the reference-semantics parser
    (strip tags, rebuild clean text, recompute char offsets). Because
    wrapping only annotates existing substrings, clean text == original
    and the recomputed offsets are SQL-checkable via strpos."""
    from .kernels.markup import parse_annotated_text

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def f(batch: pa.Table) -> pd.DataFrame:
        rows = []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            hits = []
            for w in MARKUP_BANK:
                pos = text.find(w)
                if pos >= 0:
                    hits.append((pos, w))
            hits.sort()
            marked, last = "", 0
            for pos, w in hits:
                marked += text[last:pos]
                marked += f'<category="term">{w}</category>'
                last = pos + len(w)
            marked += text[last:]
            clean, ents = parse_annotated_text(marked)
            assert clean == text  # wrapping never alters the clean text
            for e in ents:
                rows.append((doc_id, e["text"], e["type"], e["start"], e["end"]))
        return pd.DataFrame(
            rows, columns=["doc_id", "text", "type", "start", "end"]
        ).astype({"doc_id": "int64", "start": "int64", "end": "int64"})

    return ds.map_batches(f, batch_format="pyarrow")


# ---------------------------------------------------------------------------
# Multimodal plumbing (stages/multimodal.py): binary payload columns,
# actor-pool decode, frame sampling — codecs stubbed deterministically
# ---------------------------------------------------------------------------


def mm_decode_meta(sf_dir: str):
    """media(binary payload) → decoded metadata through the MediaDecoder
    actor pool (stateful stage; fake codec → md5-derived metadata)."""
    from .stages.multimodal import decode_stage, media_from_documents

    docs = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    media = docs.map_batches(media_from_documents, batch_format="pyarrow")
    return decode_stage(media)


def mm_frame_samples(sf_dir: str):
    """Video payloads → sampled frame offsets (flat-map sampler shape)."""
    from .stages.multimodal import frame_sample_batch, media_from_documents

    docs = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    media = docs.map_batches(media_from_documents, batch_format="pyarrow")
    return media.map_batches(frame_sample_batch, batch_format="pyarrow")


# Product quantization (Jégou et al. TPAMI'11): PQ_M subspaces of the
# embedding, PQ_K centroids each, trained with the bit-exact integer
# k-means (stages/kmeans.py); codes are per-subspace assignment ids and
# ANN runs as asymmetric distance computation (ADC) — table lookups,
# never full-vector math.
# M=16 4-dim subspaces × 32 centroids: measured the best
# recall/SQL-size point on THIS corpus — the synthetic embeddings are
# near-isotropic gaussians, PQ's worst case (no cluster structure to
# exploit; real text embeddings quantize far better). ADC recall@5 vs
# exact L2 is 0.45 here and asserted ≥ 0.4; the production answer to
# PQ's coarse recall is the two-stage rerank (ann_topk_rerank).
PQ_M = 16
PQ_K = 32
PQ_ITERS = 2


def _pq_pinned_and_codebooks(sf_dir: str):
    from .stages.kmeans import _quantize_df, subspace_centroids_all

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    pinned = ds.map_batches(_quantize_df, batch_format="pandas").materialize()
    dim = _first_row_len(pinned.to_arrow_refs(), "q")
    sub = dim // PQ_M
    # one seed scan + PQ_ITERS partial scans for ALL subspaces (the
    # per-subspace sequential trainer cost 16x the executor launches
    # for identical results — see subspace_centroids_all)
    cbs = subspace_centroids_all(pinned, PQ_K, PQ_ITERS, sub, PQ_M)
    return pinned, cbs, sub


def emb_pq_codes(sf_dir: str):
    """Product-quantization codebook training + corpus encode: the
    compressed-store representation (PQ_M bytes/vector instead of d
    floats) a 100TB vector store actually persists. Training = PQ_M
    independent integer-k-means runs over the PINNED quantized table
    (zero per-iteration shuffle, stages/kmeans.py); encode = one
    row-local pass with the PQ_M×PQ_K×(d/PQ_M) codebook broadcast.
    All-integer ⇒ the per-subspace unrolled-CTE oracle replays
    training AND encode bit-for-bit."""
    pinned, cbs, sub = _pq_pinned_and_codebooks(sf_dir)
    cb_ref = ray.put(cbs)

    def encode(df: pd.DataFrame) -> pa.Table:
        from .stages.kmeans import _assign
        from .state.broadcast import resolve

        cb = resolve(cb_ref)
        qmat = np.stack(df["q"].to_numpy()).astype(np.int64)
        cols = {"vec_id": pa.array(df["vec_id"].to_numpy(), pa.int64())}
        for m in range(PQ_M):
            cid, _ = _assign(qmat[:, m * sub : (m + 1) * sub], cb[m])
            cols[f"code_{m}"] = pa.array(cid, pa.int64())
        return pa.table(cols)

    return pinned.map_batches(encode, batch_format="pandas")


def ann_topk_pq(sf_dir: str):
    """PQ/ADC top-k (the FAISS IndexPQ search shape): per query one
    PQ_M×PQ_K integer distance table against the codebooks, then the
    corpus scan is pure TABLE LOOKUPS over the codes — approx distance
    = Σ_m table[m][code_m]. Per-block partial top-k (adist asc, id asc
    total tie-break) → bounded driver merge, the ann_topk pattern.
    Exact-integer end to end, so the oracle re-derives training,
    encode, tables, and the ranking value-for-value."""
    pinned, cbs, sub = _pq_pinned_and_codebooks(sf_dir)

    # query vectors: pushed-down read, quantized identically
    qt = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    ).to_pandas()
    qt = qt[qt["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qt["vec_id"].to_numpy(dtype=np.int64)
    qmat = np.floor(
        np.stack(qt["embedding"].to_numpy()).astype(np.float64) * 1_000_000
    ).astype(np.int64)
    # ADC tables: [Q, PQ_M, PQ_K] int64
    tables = np.empty((len(qids), PQ_M, PQ_K), dtype=np.int64)
    for m in range(PQ_M):
        qs = qmat[:, m * sub : (m + 1) * sub]
        diff = qs[:, None, :] - cbs[m][None, :, :]
        tables[:, m, :] = np.einsum("qkd,qkd->qk", diff, diff)
    ref = ray.put((qids, tables, cbs))

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from .stages.kmeans import _assign
        from .state.broadcast import resolve

        qids_, tabs, cb = resolve(ref)
        qm = np.stack(df["q"].to_numpy()).astype(np.int64)
        vids = df["vec_id"].to_numpy(dtype=np.int64)
        adist = np.zeros((len(qids_), len(vids)), dtype=np.int64)
        for m in range(PQ_M):
            cid, _ = _assign(qm[:, m * sub : (m + 1) * sub], cb[m])
            adist += tabs[:, m, :][:, cid]
        rows = []
        kk = min(ANN_K + 1, len(vids))
        for qi, qid in enumerate(qids_):
            order = np.lexsort((vids, adist[qi]))[:kk]
            for j in order:
                if vids[j] == qid:
                    continue
                rows.append((int(qid), int(vids[j]), int(adist[qi, j])))
        return pd.DataFrame(
            rows, columns=["query_id", "neighbor_id", "adist"]
        ).astype("int64")

    parts = pinned.map_batches(partial, batch_format="pandas").to_pandas()
    out = parts.sort_values(
        ["query_id", "adist", "neighbor_id"], ignore_index=True
    )
    out = out.groupby("query_id", sort=False).head(ANN_K)
    out = out.assign(rank=out.groupby("query_id", sort=False).cumcount() + 1)
    return out[["query_id", "rank", "neighbor_id", "adist"]].astype(
        "int64"
    ).reset_index(drop=True)


AUDIO_WIN_BYTES = 512
AUDIO_HOP_BYTES = 384


def mm_chunk_windows(sf_dir: str):
    """Fixed-size overlapping window chunking of AUDIO payloads (the
    wav2vec/Whisper-style segmentation primitive: WIN-byte windows every
    HOP bytes, last window truncated) with a content hash per chunk —
    the multimodal analog of doc_pack_chunks. Row-local flat map over
    the media table (payload = utf-8 text bytes, the deterministic fake
    stand-in; a real pipeline slices decoded PCM the same way), so the
    op is shuffle-free at any scale and the DuckDB oracle re-derives
    every window from generate_series + substr + md5 (ASCII fixture ⇒
    byte slices == char slices)."""
    from .kernels.hashing import stable_u64_md5
    from .stages.multimodal import media_from_documents

    docs = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    media = docs.map_batches(media_from_documents, batch_format="pyarrow")

    def windows(batch: pa.Table) -> pa.Table:
        ids, cidx, offs, lens, hs = [], [], [], [], []
        for doc_id, mtype, payload in zip(
            batch["doc_id"].to_pylist(),
            batch["media_type"].to_pylist(),
            batch["payload"].to_pylist(),
        ):
            if mtype != "audio" or not payload:
                continue
            off = 0
            i = 0
            while off < len(payload):
                chunk = payload[off : off + AUDIO_WIN_BYTES]
                ids.append(doc_id)
                cidx.append(i)
                offs.append(off)
                lens.append(len(chunk))
                hs.append(stable_u64_md5(chunk) - (1 << 63))
                off += AUDIO_HOP_BYTES
                i += 1
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "byte_offset": pa.array(offs, pa.int64()),
                "chunk_len": pa.array(lens, pa.int64()),
                "chunk_h": pa.array(hs, pa.int64()),
            }
        )

    return media.map_batches(windows, batch_format="pyarrow")


# DSIR-style importance resampling (Xie et al. 2023, "Data Selection
# for Language Models via Importance Resampling") in exact integer
# form: hashed-unigram bucket LMs for target domain vs corpus, per-doc
# mean probability ratio, md5-coin resample proportional to the
# clipped ratio.
DSIR_BUCKETS = 4096
DSIR_SCALE = 1_000_000
DSIR_KEEP_MOD = 10_000  # keep coin denominator (permyriad)
DSIR_KEEP_DIV = 200  # keep_permyriad = clamp(importance_micro // 200, ., 10000)


def doc_importance_resample(sf_dir: str):
    """DSIR-style importance resampling — the data-selection operator a
    curation pipeline runs to up-weight target-domain-like text. Target
    domain = the lexicographically smallest ``source`` (deterministic,
    oracle-replayable); features = md5-hashed unigram buckets
    (``stable_u64_md5 % DSIR_BUCKETS`` == the SQL's
    ``md5_number_lower % B``); per-bucket ratio
    ``1e6·(t+1)·(C+B) // ((c+1)·(T+B))`` (add-one smoothing, exact
    Python-int arithmetic — the product overflows int64 at corpus
    scale, matching the oracle's HUGEINT); per-doc importance = mean
    ratio over word OCCURRENCES (the log-free integer analog of the
    DSIR log-likelihood ratio, the doc_tfidf_top_terms convention);
    keep coin ``md5('dsir:'+doc_id) % 10000 < clamp(imp//200)``.

    Shape — ZERO shuffles: per-block dense bucket-count partials
    (≤ DSIR_BUCKETS rows each) combine on the driver (bounded by the
    bucket DIMENSION, never the vocabulary), the ratio table broadcasts
    as one int64 array, and scoring + the keep gate are row-local."""
    import pyarrow.compute as pc

    from .kernels.hashing import stable_u64_md5

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "source", "text"])

    def smin_part(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame({"s": [pc.min(t["source"]).as_py()]})

    tgt_source = (
        _tbl(sf_dir, "documents", columns=["source"])
        .map_batches(smin_part, batch_format="pyarrow")
        .to_pandas()["s"]
        .min()
    )

    def bucket_partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c = np.zeros(DSIR_BUCKETS, np.int64)
        t = np.zeros(DSIR_BUCKETS, np.int64)
        cache: dict = {}
        for src, txt in zip(
            batch["source"].to_pylist(), batch["text"].to_pylist()
        ):
            is_t = src == tgt_source
            for w in WORD_RE.findall(txt.lower()):
                b = cache.get(w)
                if b is None:
                    b = stable_u64_md5(w.encode("utf-8")) % DSIR_BUCKETS
                    cache[w] = b
                c[b] += 1
                if is_t:
                    t[b] += 1
        nz = np.nonzero(c)[0]
        return pd.DataFrame(
            {"bk": nz.astype(np.int64), "c": c[nz], "t": t[nz]}
        )

    stats = (
        ds.map_batches(bucket_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("bk", as_index=True)[["c", "t"]]
        .sum()
    )
    C = int(stats["c"].sum())
    T = int(stats["t"].sum())
    ratio = np.zeros(DSIR_BUCKETS, np.int64)
    for bk, row in stats.iterrows():
        # Python ints: 1e6·(t+1)·(C+B) overflows int64 at corpus scale
        ratio[int(bk)] = (
            DSIR_SCALE * (int(row["t"]) + 1) * (C + DSIR_BUCKETS)
        ) // ((int(row["c"]) + 1) * (T + DSIR_BUCKETS))
    ratio_ref = ray.put(ratio)

    def score(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE
        from .state.broadcast import resolve

        r = resolve(ratio_ref)
        cache: dict = {}
        ids, nws, imps, keeps = [], [], [], []
        for doc_id, txt in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = WORD_RE.findall(txt.lower())
            sr = 0
            for w in ws:
                b = cache.get(w)
                if b is None:
                    b = stable_u64_md5(w.encode("utf-8")) % DSIR_BUCKETS
                    cache[w] = b
                sr += int(r[b])
            nw = len(ws)
            imp = sr // nw if nw else 0
            keep_p = min(DSIR_KEEP_MOD, imp // DSIR_KEEP_DIV)
            coin = stable_u64_md5(f"dsir:{doc_id}".encode()) % DSIR_KEEP_MOD
            ids.append(doc_id)
            nws.append(nw)
            imps.append(imp)
            keeps.append(1 if coin < keep_p else 0)
        return pd.DataFrame(
            {
                "doc_id": pd.array(ids, dtype="int64"),
                "n_words": pd.array(nws, dtype="int64"),
                "importance_micro": pd.array(imps, dtype="int64"),
                "keep": pd.array(keeps, dtype="int64"),
            }
        )

    return ds.map_batches(score, batch_format="pyarrow")


DIVERSE_PER_CLUSTER = 20


def emb_diverse_sample(sf_dir: str):
    """Cluster-balanced diversity sampling (the cluster-then-sample
    curation pattern behind SemDeDup-style prototype selection and
    balanced eval subsets): per k-means cluster keep the
    DIVERSE_PER_CLUSTER vectors with the smallest seeded md5 order —
    every cluster contributes equally regardless of its size.

    Shape: the bit-exact integer k-means assignment (stages/kmeans.py,
    zero per-iteration shuffle) followed by per-block per-cluster local
    top-N partials (each block ships ≤ k·N candidate rows) and a
    bounded driver merge — no cluster-keyed shuffle; the oracle nests
    the unrolled k-means CTE and re-derives the row_number order."""
    from .kernels.hashing import stable_u64_md5
    from .stages.kmeans import kmeans_int

    ds = rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
    )
    asg = kmeans_int(ds, k=KMEANS_K, iterations=KMEANS_ITERS)

    def part_top(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            h=pd.array(
                [
                    stable_u64_md5(f"div:{int(v)}".encode()) - (1 << 63)
                    for v in df["vec_id"]
                ],
                dtype="int64",
            )
        )
        return (
            df.sort_values(["cluster_id", "h", "vec_id"])
            .groupby("cluster_id", sort=False)
            .head(DIVERSE_PER_CLUSTER)[["cluster_id", "vec_id", "h"]]
        )

    cands = asg.map_batches(part_top, batch_format="pandas").to_pandas()
    out = (
        cands.sort_values(["cluster_id", "h", "vec_id"], ignore_index=True)
        .groupby("cluster_id", sort=False)
        .head(DIVERSE_PER_CLUSTER)
    )
    out = out.assign(
        rank=out.groupby("cluster_id", sort=False).cumcount() + 1
    )
    return out[["cluster_id", "rank", "vec_id"]].astype(
        {"cluster_id": "int64", "rank": "int64", "vec_id": "int64"}
    ).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Events: windowed + sessionized aggregates (streaming-shaped)
# ---------------------------------------------------------------------------


def events_hourly(sf_dir: str):
    """Tumbling 1-hour window per user: event count + value sum (in
    integer cents so Ray and SQL sums hash-match exactly).

    (user_id, hour) is near-unique here (~95% of row count), so the
    built-in per-group-Python aggregate would crawl (see
    stages/exchange.py); instead: vectorized pandas partials → hash
    exchange on the key → vectorized combine."""
    from .stages.exchange import grouped_aggregate

    def prep_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(
            hour=df["ts"].dt.floor("h"),
            cents=(df["value"] * 100).round().astype("int64"),
        )
        return (
            df.groupby(["user_id", "hour"], sort=False)
            .agg(n_events=("cents", "size"), sum_value_cents=("cents", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["user_id", "hour"], sort=False)
            .agg(n_events=("n_events", "sum"), sum_value_cents=("sum_value_cents", "sum"))
            .reset_index()
        )

    ds = _tbl(sf_dir, "events", columns=["user_id", "ts", "value"])
    return grouped_aggregate(ds, ["user_id", "hour"], prep_partial, combine, _xparts(sf_dir, "events"))


def events_sessions(sf_dir: str):
    """Gap-based sessionization (30-min inactivity closes a session):
    groupby(user).map_groups over ts-sorted events — the Ray Data shape
    for windowed/stateful streaming semantics (ray_guide 'Streaming-shaped
    workloads')."""
    ds = _tbl(sf_dir, "events", columns=["user_id", "event_id", "ts"])

    def sessionize(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        gap = g["ts"].diff()
        new = (gap.isna() | (gap > pd.Timedelta(minutes=30))).astype("int64")
        g = g.assign(session_idx=new.cumsum())
        out = (
            g.groupby("session_idx", sort=False)
            .agg(
                user_id=("user_id", "first"),
                session_start=("ts", "min"),
                n_events=("event_id", "size"),
            )
            .reset_index()
        )
        return out[["user_id", "session_idx", "session_start", "n_events"]]

    return _combine(ds, 16).groupby("user_id").map_groups(
        sessionize, batch_format="pandas"
    )


def kg_conv_stats(sf_dir: str):
    """Per-conversation turn/token totals — the skew-exposed groupby
    (conversation length is heavy-tailed: ~1% of convs have 150-250
    turns). Handled by the combiner pattern: per-block pandas partials
    shrink every conv to ≤1 row per block BEFORE the keyed exchange, so
    a hot conversation ships #blocks rows, never its raw turns."""
    from .stages.exchange import grouped_aggregate

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(n_tokens=[len(TOKEN_RE.findall(t)) for t in df["text"]])
        return (
            df.groupby("conv_id", sort=False)
            .agg(n_turns=("text", "size"), sum_tokens=("n_tokens", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("conv_id", sort=False)
            .agg(n_turns=("n_turns", "sum"), sum_tokens=("sum_tokens", "sum"))
            .reset_index()
        )

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "text"])
    return grouped_aggregate(ds, ["conv_id"], partial, combine, _xparts(sf_dir, "transcripts"))


def kg_conv_turn_gaps(sf_dir: str):
    """Ordered within-conversation lag (gap to previous turn) — computed
    SKEW-FREE: instead of grouping whole conversations (hot convs have
    150-250 turns and would strand a worker at scale), every turn emits
    itself twice — once as (conv, turn_idx, ts) and once shifted to
    (conv, turn_idx + 1, prev_ts) — and a hash exchange on the UNIFORM
    key (conv_id, turn_idx) pairs each turn with its predecessor inside
    a vectorized pandas merge. No per-key hotspot exists because the
    partition key includes turn_idx."""
    from .stages.exchange import keyed_exchange

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        ts_us = pd.Series(df["ts"].values.astype("datetime64[us]").astype("int64"))
        cur = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"].astype("int64"),
                "ts_us": ts_us,
                "is_prev": False,
            }
        )
        prev = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"].astype("int64") + 1,
                "ts_us": ts_us,
                "is_prev": True,
            }
        )
        return pd.concat([cur, prev], ignore_index=True)

    def merge(df: pd.DataFrame) -> pa.Table:
        cur = df[~df["is_prev"]]
        prev = df[df["is_prev"]][["conv_id", "turn_idx", "ts_us"]].rename(
            columns={"ts_us": "prev_us"}
        )
        out = cur.merge(prev, on=["conv_id", "turn_idx"], how="left")
        # Emit gap_us as an Arrow int64 with REAL nulls (first turn of a
        # conversation has no predecessor) — a pandas nullable Int64
        # column hashes as <NA> downstream and diverges from SQL NULL.
        prev_us = out["prev_us"].to_numpy(dtype="float64", na_value=np.nan)
        missing = np.isnan(prev_us)
        gap_vals = (
            out["ts_us"].to_numpy(dtype="int64") - np.nan_to_num(prev_us)
        ).astype("int64")
        return pa.table(
            {
                "conv_id": pa.array(out["conv_id"], pa.string()),
                "turn_idx": pa.array(out["turn_idx"].to_numpy(dtype="int32")),
                "gap_us": pa.array(gap_vals, pa.int64(), mask=missing),
            }
        )

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "ts"])
    return keyed_exchange(
        ds.map_batches(emit, batch_format="pandas"),
        ["conv_id", "turn_idx"],
        merge,
        num_partitions=8,
    )


def events_asof(sf_dir: str):
    """As-of (attribution) join — a custom operator Ray Data lacks
    natively: for every ``purchase`` event, the most recent ``click`` by
    the same user at-or-before the purchase (left as-of: purchases with
    no prior click keep NULL attribution). Composition: one pruned
    events read → keyed exchange on ``user_id`` (co-locates each user's
    event stream) → per-partition vectorized ``pandas.merge_asof`` over
    the partition sorted by ``ts``. Partitioning assumption (documented
    per the custom-operator contract): one user's events fit one
    partition — the key is uniform, so no hot key exists; at 100TB
    raise ``num_partitions`` with user cardinality. Tie-break when
    several clicks share the as-of timestamp: the max ``click_event_id``
    wins (right side sorted (ts, id); merge_asof backward takes the last
    tied row) — DuckDB's NATIVE ASOF join picks an ARBITRARY tied row,
    so the oracle is the equivalent deterministic window formulation.
    Nullable outputs are Arrow int64 with real nulls (the
    kg_conv_turn_gaps lesson)."""
    from .stages.exchange import keyed_exchange

    path = os.path.join(sf_dir, "events.parquet")
    ds = rd.read_parquet(
        path, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def prune(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(pc.is_in(t["event_type"], value_set=pa.array(["purchase", "click"])))

    # the matched click's timestamp must survive merge_asof (which
    # consumes the right side's ts as the join key): carry it as an
    # epoch-us shadow column on click rows
    pruned = ds.map_batches(prune, batch_format="pyarrow").map_batches(
        lambda df: df.assign(
            _click_ts_us=np.where(
                df["event_type"].to_numpy() == "click",
                df["ts"].to_numpy(dtype="datetime64[us]").astype("int64").astype("float64"),
                np.nan,
            )
        ),
        batch_format="pandas",
    )

    def asof_part(df: pd.DataFrame) -> pa.Table:
        left = (
            df.loc[df["event_type"] == "purchase", ["event_id", "user_id", "ts", "value"]]
            .sort_values("ts", kind="mergesort")
            .reset_index(drop=True)
        )
        right = (
            df.loc[df["event_type"] == "click",
                   ["event_id", "user_id", "ts", "_click_ts_us"]]
            .rename(columns={"event_id": "click_event_id"})
            .sort_values(["ts", "click_event_id"], kind="mergesort")
            .reset_index(drop=True)
        )
        m = pd.merge_asof(
            left, right, on="ts", by="user_id",
            direction="backward", allow_exact_matches=True,
        )
        cid = m["click_event_id"].to_numpy(dtype="float64", na_value=np.nan)
        missing = np.isnan(cid)
        ts64 = m["ts"].to_numpy(dtype="datetime64[us]")
        gap = ts64.astype("int64") - m["_click_ts_us"].to_numpy(
            dtype="float64", na_value=np.nan
        )
        return pa.table(
            {
                "event_id": pa.array(m["event_id"].to_numpy(dtype="int64")),
                "user_id": pa.array(m["user_id"].to_numpy(dtype="int64")),
                "ts": pa.array(ts64),
                "value": pa.array(m["value"].to_numpy(dtype="float64")),
                "click_event_id": pa.array(
                    np.nan_to_num(cid).astype("int64"), pa.int64(), mask=missing
                ),
                "gap_us": pa.array(
                    np.nan_to_num(gap).astype("int64"), pa.int64(), mask=missing
                ),
            }
        )

    return keyed_exchange(pruned, ["user_id"], asof_part, num_partitions=8)


def events_range_join(sf_dir: str):
    """Banded range (interval) join — the second custom join operator
    Ray Data lacks natively: for every ``purchase`` event, the COUNT and
    integer-cents SUM of the same user's ``click`` events inside the
    inclusive window ``[ts - 1h, ts]``. Composition: pruned read →
    keyed exchange on the equality band ``user_id`` → per-partition
    per-user cumulative click counts/sums (vectorized pandas groupby
    cumsum) → TWO ``merge_asof`` probes (upper bound inclusive at
    ``ts``, lower bound exclusive at ``ts - 1h``); window aggregate =
    difference of cumulatives. No per-row loops, no all-pairs blowup:
    work is O(events log events) per partition regardless of window
    hit count. Partitioning assumption (custom-operator contract): the
    band key is uniform — one user's events fit one partition; raise
    ``num_partitions`` with user cardinality at 100TB. Oracle: DuckDB
    inequality LEFT JOIN + group-by."""
    from .stages.exchange import keyed_exchange

    path = os.path.join(sf_dir, "events.parquet")
    ds = rd.read_parquet(
        path, columns=["event_id", "ts", "user_id", "event_type", "value"]
    )

    def prune(t: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        return t.filter(
            pc.is_in(t["event_type"], value_set=pa.array(["purchase", "click"]))
        )

    pruned = ds.map_batches(prune, batch_format="pyarrow")

    HOUR_US = 3_600_000_000

    def window_part(df: pd.DataFrame) -> pa.Table:
        ts_us = df["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
        df = df.assign(_ts_us=ts_us)
        clicks = (
            df.loc[df["event_type"] == "click", ["user_id", "_ts_us", "value"]]
            .sort_values(["user_id", "_ts_us"], kind="mergesort")
            .reset_index(drop=True)
        )
        cents = (clicks["value"] * 100).round().astype("int64")
        g = clicks.groupby("user_id", sort=False)
        clicks = clicks.assign(
            _cum_n=g.cumcount() + 1,
            _cum_cents=cents.groupby(clicks["user_id"], sort=False).cumsum(),
        ).sort_values("_ts_us", kind="mergesort")
        left = (
            df.loc[df["event_type"] == "purchase",
                   ["event_id", "user_id", "ts", "_ts_us"]]
            .sort_values("_ts_us", kind="mergesort")
            .reset_index(drop=True)
        )
        right = clicks[["user_id", "_ts_us", "_cum_n", "_cum_cents"]]
        hi = pd.merge_asof(
            left, right, on="_ts_us", by="user_id",
            direction="backward", allow_exact_matches=True,
        )
        lo_left = left.assign(_ts_us=left["_ts_us"] - HOUR_US)
        lo = pd.merge_asof(
            lo_left, right, on="_ts_us", by="user_id",
            direction="backward", allow_exact_matches=False,
        )
        hi_n = hi["_cum_n"].fillna(0).to_numpy(dtype="int64")
        lo_n = lo["_cum_n"].fillna(0).to_numpy(dtype="int64")
        hi_c = hi["_cum_cents"].fillna(0).to_numpy(dtype="int64")
        lo_c = lo["_cum_cents"].fillna(0).to_numpy(dtype="int64")
        return pa.table(
            {
                "event_id": pa.array(left["event_id"].to_numpy(dtype="int64")),
                "user_id": pa.array(left["user_id"].to_numpy(dtype="int64")),
                "ts": pa.array(left["ts"].to_numpy(dtype="datetime64[us]")),
                "n_clicks_1h": pa.array(hi_n - lo_n),
                "click_cents_1h": pa.array(hi_c - lo_c),
            }
        )

    return keyed_exchange(pruned, ["user_id"], window_part, num_partitions=8)


def lineitem_price_quantiles(sf_dir: str):
    """Grouped exact order statistics (p25/p50/p75 of extended price per
    return flag) via the value-count-histogram decomposition: never ship
    rows to a quantile worker — ship ``(key, value, count)``. Stage 1:
    per-block pandas value counts + keyed exchange on (flag, cents)
    merges partial counts exactly (high-cardinality-safe). Stage 2: a
    second exchange on the flag alone walks each flag's sorted histogram
    with a cumulative-count ``searchsorted`` — DuckDB ``quantile_disc``
    rank semantics (1-based rank ``ceil(n*q)``, probed empirically; q
    limited to exact binary fractions so ``n*q`` has no float error).
    Scale assumption documented: stage 2's per-key payload is the
    DISTINCT-VALUE histogram, bounded by the value domain (prices in
    cents), not by row count — the standard exact-quantile shape when
    the domain is bounded; switch to t-digest when it is not."""
    import math

    from .stages.exchange import grouped_aggregate, keyed_exchange

    ds = _tbl(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        out = (
            pd.DataFrame({"l_returnflag": df["l_returnflag"], "cents": cents})
            .groupby(["l_returnflag", "cents"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l_returnflag", "cents"], sort=False, as_index=False)[
            "n"
        ].sum()

    hist = grouped_aggregate(ds, ["l_returnflag", "cents"], partial, combine, _xparts(sf_dir, "lineitem"))

    QS = (0.25, 0.5, 0.75)

    def quantiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=True):  # ≤3 groups/partition
            g = g.sort_values("cents", kind="mergesort")
            vals = g["cents"].to_numpy(dtype="int64")
            cum = g["n"].to_numpy(dtype="int64").cumsum()
            n = int(cum[-1])
            picks = [
                int(vals[np.searchsorted(cum, math.ceil(n * q))]) for q in QS
            ]
            rows.append((flag, n, *picks))
        return pd.DataFrame(
            rows,
            columns=["l_returnflag", "n_items", "p25_cents", "p50_cents", "p75_cents"],
        )

    return keyed_exchange(hist, ["l_returnflag"], quantiles, num_partitions=8)


def lineitem_price_quantiles_sketch(sf_dir: str):
    """Approximate grouped quantiles via the mergeable DDSketch
    (kernels/sketch.py) — the scale path for UNBOUNDED value domains
    where the exact value-count histogram
    (``lineitem_price_quantiles``) would grow with distinct values:
    each block folds its prices into a sparse log-spaced bucket map
    (relative error ≤ 1% by construction), serialized bucket counts
    ride the exchange, combine = bucket-count addition. Deterministic
    (no sampling), so the driver's rows-only check is stable; pytest
    asserts the ≤1%% envelope against the exact operator."""
    import json

    from .kernels.sketch import dd_add, dd_merge, dd_quantile
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            counts = dd_add({}, g["l_extendedprice"].to_numpy())
            rows.append(
                (flag, len(g), json.dumps({str(k): v for k, v in counts.items()}))
            )
        return pd.DataFrame(rows, columns=["l_returnflag", "n", "buckets"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=True):
            merged: dict = {}
            for blob in g["buckets"]:
                raw = json.loads(blob)
                merged = dd_merge(
                    merged,
                    {(None if k == "None" else int(k)): v for k, v in raw.items()},
                )
            rows.append(
                (
                    flag,
                    int(g["n"].sum()),
                    round(dd_quantile(merged, 0.25), 6),
                    round(dd_quantile(merged, 0.50), 6),
                    round(dd_quantile(merged, 0.75), 6),
                )
            )
        return pd.DataFrame(
            rows, columns=["l_returnflag", "n_items", "p25", "p50", "p75"]
        ).astype({"n_items": "int64"})

    partials = ds.map_batches(partial, batch_format="pandas")
    return keyed_exchange(partials, ["l_returnflag"], combine, num_partitions=8)


def lineitem_price_quantiles_sketch_eval(sf_dir: str):
    """Sketch audit — DDSketch vs exact grouped quantiles, the
    events_hll_eval pattern for the quantile sketch: upgrades the
    DDSketch family from rows-only to value-verified. The sketch side
    re-runs the PRODUCTION kernel (kernels/sketch.py::dd_add — the same
    log-spaced buckets lineitem_price_quantiles_sketch folds) but
    reports each quantile's selected BUCKET INDEX — an integer the SQL
    oracle replays bucket-for-bucket (``ceil(ln(price)/ln(γ))``;
    numpy-vs-DuckDB ``ln`` agreement verified over every distinct
    fixture price at sf0.001/0.01/0.1 — zero index mismatches). The
    exact side is the lineitem_price_quantiles histogram walk
    (``quantile_disc`` rank semantics, identical ceil(n·q) rank).

    ``bucket_err_pXX = |sketch bucket − bucket(exact quantile)|`` is
    provably 0: bucketing is monotone and both sides pick rank
    ceil(n·q), so the sketch's cumulative-count walk lands in exactly
    the bucket containing the exact order statistic — the audit row
    hash proves that identity end-to-end (the ≤1% float midpoint
    envelope is asserted separately in tests/test_sketch.py).

    Shape: one pass folding per-block sparse bucket partials + one
    tiny flag-keyed exchange (sketch), one (flag, cents) histogram
    exchange (exact) — both scale shapes unchanged from the operators
    they audit."""
    import json
    import math

    from .kernels.sketch import DD_ALPHA, dd_gamma, dd_merge
    from .stages.exchange import grouped_aggregate, keyed_exchange

    ds = _tbl(sf_dir, "lineitem", columns=["l_returnflag", "l_extendedprice"])
    QS = (0.25, 0.5, 0.75)

    # -- sketch side: production dd_add partials, bucket-index picks --
    def sk_partial(df: pd.DataFrame) -> pd.DataFrame:
        from .kernels.sketch import dd_add

        # The audit's cumulative walk (and the SQL ln() replay) covers
        # the log-spaced buckets only — kernels/sketch.py declares the
        # DDSketch for POSITIVE values (prices/latencies/sizes; zeros
        # ride a separate None bucket dd_quantile walks first). Fail
        # LOUDLY on out-of-domain input instead of silently diverging.
        if (df["l_extendedprice"].to_numpy() <= 0).any():
            raise ValueError(
                "lineitem_price_quantiles_sketch_eval audits the positive-"
                "value DDSketch domain; found non-positive prices"
            )
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=False):
            counts = dd_add({}, g["l_extendedprice"].to_numpy())
            rows.append(
                (flag, len(g), json.dumps({str(k): v for k, v in counts.items()}))
            )
        return pd.DataFrame(rows, columns=["l_returnflag", "n", "buckets"])

    def sk_combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=True):
            merged: dict = {}
            for blob in g["buckets"]:
                raw = json.loads(blob)
                merged = dd_merge(
                    merged,
                    {(None if k == "None" else int(k)): v for k, v in raw.items()},
                )
            n = int(g["n"].sum())
            ks = sorted(k for k in merged if k is not None)
            cum = np.cumsum([merged[k] for k in ks])
            picks = [
                int(ks[int(np.searchsorted(cum, max(1, math.ceil(n * q))))])
                for q in QS
            ]
            rows.append((flag, n, *picks))
        return pd.DataFrame(
            rows, columns=["l_returnflag", "n_items", "b25", "b50", "b75"]
        ).astype({"n_items": "int64", "b25": "int64", "b50": "int64", "b75": "int64"})

    est = keyed_exchange(
        ds.map_batches(sk_partial, batch_format="pandas"),
        ["l_returnflag"],
        sk_combine,
        num_partitions=8,
    ).to_pandas()

    # -- exact side: the lineitem_price_quantiles histogram walk -----
    def ex_partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        return (
            pd.DataFrame({"l_returnflag": df["l_returnflag"], "cents": cents})
            .groupby(["l_returnflag", "cents"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    def ex_combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["l_returnflag", "cents"], sort=False, as_index=False)[
            "n"
        ].sum()

    hist = grouped_aggregate(
        ds, ["l_returnflag", "cents"], ex_partial, ex_combine,
        _xparts(sf_dir, "lineitem"),
    )

    def ex_quantiles(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for flag, g in df.groupby("l_returnflag", sort=True):
            g = g.sort_values("cents", kind="mergesort")
            vals = g["cents"].to_numpy(dtype="int64")
            cum = g["n"].to_numpy(dtype="int64").cumsum()
            n = int(cum[-1])
            picks = [
                int(vals[np.searchsorted(cum, max(1, math.ceil(n * q)))]) for q in QS
            ]
            rows.append((flag, *picks))
        return pd.DataFrame(
            rows, columns=["l_returnflag", "p25_cents", "p50_cents", "p75_cents"]
        )

    exact = keyed_exchange(
        hist, ["l_returnflag"], ex_quantiles, num_partitions=8
    ).to_pandas()

    out = est.merge(exact, on="l_returnflag").sort_values(
        "l_returnflag", ignore_index=True
    )
    g = math.log(dd_gamma(DD_ALPHA))
    for q in ("25", "50", "75"):
        exact_b = np.ceil(
            np.log(out[f"p{q}_cents"].to_numpy(dtype=np.float64) / 100.0) / g
        ).astype(np.int64)
        out[f"bucket_err_p{q}"] = np.abs(out[f"b{q}"].to_numpy() - exact_b)
    return out.astype(
        {
            "n_items": "int64",
            "b25": "int64", "b50": "int64", "b75": "int64",
            "p25_cents": "int64", "p50_cents": "int64", "p75_cents": "int64",
            "bucket_err_p25": "int64", "bucket_err_p50": "int64",
            "bucket_err_p75": "int64",
        }
    )


def events_user_activity(sf_dir: str):
    """Exact distinct-count per event type (``COUNT(DISTINCT user_id)``)
    in the scale-safe two-level shape: per-block dedup of (type, user)
    pairs → keyed exchange on the PAIR (uniform key, so a hot event
    type cannot hot-spot one partition) emitting per-partition partial
    counts → tiny driver combine over ≤ partitions × types rows."""
    from .stages.exchange import grouped_aggregate

    ds = _tbl(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates(["event_type", "user_id"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        uniq = df.drop_duplicates(["event_type", "user_id"])
        return (
            uniq.groupby("event_type", sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n_users"})
        )

    partials = grouped_aggregate(ds, ["event_type", "user_id"], partial, combine, _xparts(sf_dir, "events"))
    small = partials.to_pandas()  # bounded: ≤ num_partitions × #event_types rows
    out = (
        small.groupby("event_type", sort=True, as_index=False)["n_users"]
        .sum()
        .astype({"n_users": "int64"})
    )
    return out


CMS_TOP_K = 20
CMS_BLOCK_CANDS = 64


def doc_heavy_hitters_cms(sf_dir: str):
    """Approximate heavy hitters (top words) via Count-Min Sketch
    (kernels/sketch.py): each block folds its exact local word counts
    into a fixed 128 KiB sketch and nominates its local top
    CMS_BLOCK_CANDS words; the driver sums the sketches (elementwise —
    associative, no key shuffle), estimates the candidate union, and
    keeps the top CMS_TOP_K. Candidate recall is a HEURISTIC, not a
    guarantee: nomination is exact only when the k-th global count is
    ≥ total_mass / blocks (then a true top-k word is necessarily a
    local top candidate in at least one block); a uniformly-spread
    mid-frequency word below every block's local top CMS_BLOCK_CANDS
    can be missed, so CMS_BLOCK_CANDS must scale with the block count
    (or the nomination pass be repeated with the summed sketch) when
    that bound doesn't hold. Estimates only ever OVERCOUNT; pytest pins
    the envelope vs the exact word count (rows-only driver check — the
    sketch itself is the point, not a SQL re-derivation)."""
    from .kernels.sketch import CMS_D, CMS_W, cms_add, cms_empty, cms_query
    from .kernels.textstats import WORD_RE

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def block_sketch(df: pd.DataFrame) -> pd.DataFrame:
        words: dict[str, int] = {}
        for t in df["text"]:
            for w in WORD_RE.findall(t.lower()):
                words[w] = words.get(w, 0) + 1
        sk = cms_empty()
        cms_add(sk, list(words.keys()), list(words.values()))
        cands = sorted(words.items(), key=lambda kv: (-kv[1], kv[0]))[
            :CMS_BLOCK_CANDS
        ]
        return pd.DataFrame(
            {
                "cms": [sk.tobytes()],
                "cands": [[w for w, _ in cands]],
            }
        )

    parts = ds.map_batches(block_sketch, batch_format="pandas").to_pandas()
    sketch = cms_empty()
    cand_union: set[str] = set()
    for blob, cands in zip(parts["cms"], parts["cands"]):
        sketch += np.frombuffer(blob, dtype=np.int64).reshape(CMS_D, CMS_W)
        cand_union.update(cands)
    cands = sorted(cand_union)
    est = cms_query(sketch, cands)
    out = (
        pd.DataFrame({"word": cands, "est_count": est.astype("int64")})
        .sort_values(["est_count", "word"], ascending=[False, True], ignore_index=True)
        .head(CMS_TOP_K)
    )
    return out


def events_hll_users(sf_dir: str):
    """Approximate distinct users per event type via the HyperLogLog
    sketch (kernels/sketch.py): each block folds its user ids into a
    4096-register sketch per type (md5-u64 hashing, deterministic),
    registers ride the exchange as fixed 4KB binary blobs, and the
    combine is an elementwise max — NO per-key shuffle at any scale.
    Estimates are deterministic, so the driver's rows-only check is
    stable; pytest asserts <5%% error vs the exact count (p=12 →
    ~1.6%% expected RSE)."""
    from .kernels.sketch import (
        hll_add_values,
        hll_empty,
        hll_estimate,
        hll_merge,
    )
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "events", columns=["event_type", "user_id"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type", sort=False):
            reg = hll_empty()
            hll_add_values(reg, g["user_id"].to_numpy())
            rows.append((etype, reg.tobytes()))
        return pd.DataFrame(rows, columns=["event_type", "registers"])

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type", sort=True):
            reg = hll_empty()
            for blob in g["registers"]:
                reg = hll_merge(reg, np.frombuffer(blob, dtype=np.uint8))
            rows.append((etype, hll_estimate(reg)))
        return pd.DataFrame(rows, columns=["event_type", "n_users_hll"]).astype(
            {"n_users_hll": "int64"}
        )

    partials = ds.map_batches(partial, batch_format="pandas")
    return keyed_exchange(partials, ["event_type"], combine, num_partitions=8)


def events_running_total(sf_dir: str):
    """Distributed per-key PREFIX SUM (running total over time) — the
    ordered aggregate where the usual "one key's rows fit one
    partition" contract is deliberately DROPPED: a hot user's stream
    may span partitions. Classic two-phase scan: (1) exchange on
    (user, day-bucket) → local ordered cumsum + per-bucket totals in
    one pass; (2) bucket totals exchange on the user → per-user
    exclusive running offsets (vectorized groupby cumsum-shift);
    (3) offsets union the row stream back through a (user, bucket)
    exchange and add. Work per partition is bounded by the BUCKET (one
    hot user spreads over #days partitions), and every phase is a
    vectorized pandas kernel. The phase-1 output is materialized once
    (it feeds both the totals and the final apply — the lazy
    double-consumption trap documented in stages/canonicalize.py);
    at 100TB make it a parquet handoff checkpoint instead. Oracle:
    SUM() OVER (PARTITION BY user ORDER BY ts, event_id)."""
    from .stages.exchange import keyed_exchange

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["event_id", "ts", "user_id", "value"],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return df.assign(
            bucket=df["ts"].dt.floor("D"),
            cents=(df["value"] * 100).round().astype("int64"),
        )[["event_id", "ts", "user_id", "bucket", "cents"]]

    def local_scan(df: pd.DataFrame) -> pd.DataFrame:
        """Rows with bucket-local cumsum, PLUS one total row per
        (user, bucket) tagged event_id = -1."""
        df = df.sort_values(
            ["user_id", "bucket", "ts", "event_id"], kind="mergesort"
        ).reset_index(drop=True)
        df = df.assign(
            local_cum=df.groupby(["user_id", "bucket"], sort=False)["cents"].cumsum()
        )
        totals = (
            df.groupby(["user_id", "bucket"], sort=False, as_index=False)["cents"]
            .sum()
            .assign(event_id=-1, ts=pd.NaT, local_cum=0)
        )
        return pd.concat(
            [df, totals[df.columns.tolist()]], ignore_index=True
        )

    scanned = keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"),
        ["user_id", "bucket"],
        local_scan,
        num_partitions=8,
    ).materialize()

    def offsets_part(df: pd.DataFrame) -> pd.DataFrame:
        df = (
            df.groupby(["user_id", "bucket"], sort=False, as_index=False)["cents"]
            .sum()
            .sort_values(["user_id", "bucket"], kind="mergesort")
            .reset_index(drop=True)
        )
        off = df.groupby("user_id", sort=False)["cents"].cumsum() - df["cents"]
        return df.assign(offset=off)[["user_id", "bucket", "offset"]]

    totals = scanned.map_batches(
        lambda df: df.loc[df["event_id"] == -1, ["user_id", "bucket", "cents"]],
        batch_format="pandas",
    )
    offsets = keyed_exchange(totals, ["user_id"], offsets_part, num_partitions=8)

    rows = scanned.map_batches(
        lambda df: df.loc[df["event_id"] != -1].assign(offset=np.int64(0)),
        batch_format="pandas",
    )
    off_rows = offsets.map_batches(
        lambda df: df.assign(
            event_id=np.int64(-1),
            ts=pd.NaT,
            cents=np.int64(0),
            local_cum=np.int64(0),
        )[["event_id", "ts", "user_id", "bucket", "cents", "local_cum", "offset"]],
        batch_format="pandas",
    )

    def apply_offset(df: pd.DataFrame) -> pd.DataFrame:
        offs = df.loc[df["event_id"] == -1, ["user_id", "bucket", "offset"]]
        r = df.loc[df["event_id"] != -1].drop(columns=["offset"])
        m = r.merge(offs, on=["user_id", "bucket"], how="left")
        running = (
            m["local_cum"].to_numpy(dtype="int64")
            + m["offset"].fillna(0).to_numpy(dtype="int64")
        )
        return pd.DataFrame(
            {
                "event_id": m["event_id"].to_numpy(dtype="int64"),
                "user_id": m["user_id"].to_numpy(dtype="int64"),
                "ts": m["ts"],
                "running_cents": running,
            }
        )

    return keyed_exchange(
        rows.union(off_rows), ["user_id", "bucket"], apply_offset, num_partitions=8
    )


DECON_NGRAM = 5
DECON_DF_MAX = 50
DECON_MIN_COMMON = 2


def doc_decontaminate(sf_dir: str):
    """Train/eval decontamination — the canonical LLM-training-data op:
    find (eval, train) document pairs sharing ≥ ``DECON_MIN_COMMON``
    distinct 5-gram shingles across a deterministic md5 80/20 split
    (the kg_split_assign contract, so the split is retry-stable).
    Shape: explode (shingle-hash, doc, side) rows → keyed exchange on
    the SHINGLE (each shingle's postings land whole in one partition,
    so document frequency is exact there) → drop shingles with df >
    ``DECON_DF_MAX`` (heavy-hitter guard: ubiquitous n-grams carry no
    contamination signal and would cost df² pair fan-out) → vectorized
    per-partition eval×train merge + partial pair counts → second
    exchange on the pair summing partials. No all-pairs over the
    corpus: work is Σ_shingle df_eval·df_train, capped by DF_MAX."""
    from .kernels.hashing import shingles, stable_u64_md5
    from .kernels.textstats import WORD_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_shingles(batch: pa.Table) -> pd.DataFrame:
        hs, ids, ev = [], [], []
        memo: dict[str, int] = {}  # batch-scoped shingle→hash memo
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ws = WORD_RE.findall((t or "").lower())
            if not ws:
                continue
            is_eval = stable_u64_md5(str(i).encode("utf-8")) % 10 >= 8
            for s in shingles(ws, n=DECON_NGRAM):
                h = memo.get(s)
                if h is None:
                    h = memo[s] = stable_u64_md5(s.encode("utf-8"))
                hs.append(h)
                ids.append(i)
                ev.append(is_eval)
        return pd.DataFrame(
            {
                "h": np.array(hs, dtype=np.uint64),
                "doc_id": np.array(ids, dtype=np.int64),
                "is_eval": np.array(ev, dtype=bool),
            }
        )

    def pairs_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df.groupby("h")["doc_id"].transform("size") <= DECON_DF_MAX]
        ev = df.loc[df["is_eval"], ["h", "doc_id"]].rename(
            columns={"doc_id": "eval_doc_id"}
        )
        tr = df.loc[~df["is_eval"], ["h", "doc_id"]].rename(
            columns={"doc_id": "train_doc_id"}
        )
        m = ev.merge(tr, on="h")
        return (
            m.groupby(["eval_doc_id", "train_doc_id"], sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n_common"})
        )

    def sum_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby(
            ["eval_doc_id", "train_doc_id"], sort=False, as_index=False
        )["n_common"].sum()
        out = out.loc[out["n_common"] >= DECON_MIN_COMMON]
        return out.astype({"n_common": "int64"})

    exploded = ds.map_batches(explode_shingles, batch_format="pyarrow")
    partials = keyed_exchange(exploded, ["h"], pairs_part, num_partitions=8)
    return keyed_exchange(
        partials, ["eval_doc_id", "train_doc_id"], sum_pairs, num_partitions=8
    )


SUBDUP_NGRAM = 8  # token n-gram length for exact-substring duplication


def _subdup_flagged_positions(sf_dir: str):
    """Shared core of the exact-substring-dedup family (Lee et al.,
    "Deduplicating Training Data Makes Language Models Better",
    ACL'22): flag every token position whose ``SUBDUP_NGRAM``-gram
    occurs in >= 2 DISTINCT documents.

    Shape: positional-gram explode (vectorized word-id windows; one md5
    per DISTINCT gram per batch) → keyed exchange on the
    GRAM hash, where cross-doc document frequency is exact inside one
    partition, emitting only the flagged ``(doc_id, pos)`` rows → keyed
    exchange on ``doc_id`` so each doc's flagged positions land whole
    for the islands merge. Work is linear in corpus token count plus
    flagged-position volume; no all-pairs stage and no driver-side
    state (the gram table never leaves the cluster)."""
    from .kernels.hashing import stable_u64_md5
    from .kernels.textstats import WORD_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def explode_grams(batch: pa.Table) -> pd.DataFrame:
        # Per-POSITION work is numpy: batch-wide word-id table
        # (np.unique), per-doc sliding windows over the id array recast
        # to fixed-width void records, one more np.unique over the
        # records. The string join + md5 runs once per DISTINCT gram
        # per batch — the old per-position join/dict-probe loop was the
        # dominant cost (same fix as winnowing_fingerprints_batch).
        nw = SUBDUP_NGRAM
        tok_lists = [
            WORD_RE.findall((t or "").lower()) for t in batch["text"].to_pylist()
        ]
        all_words = [w for ws in tok_lists for w in ws]
        empty = pd.DataFrame(
            {
                "h": np.empty(0, np.uint64),
                "doc_id": np.empty(0, np.int64),
                "pos": np.empty(0, np.int64),
            }
        )
        if not all_words:
            return empty
        uniq_words, wid = np.unique(
            np.array(all_words, dtype=object), return_inverse=True
        )
        rec_dtype = np.dtype((np.void, 8 * nw))
        recs: list[np.ndarray] = []
        ids: list[np.ndarray] = []
        pos: list[np.ndarray] = []
        off = 0
        for i, ws in zip(batch["doc_id"].to_pylist(), tok_lists):
            n = len(ws) - nw + 1
            if n > 0:
                w = np.ascontiguousarray(wid[off : off + len(ws)], dtype=np.int64)
                sw = np.lib.stride_tricks.sliding_window_view(w, nw)
                recs.append(np.ascontiguousarray(sw).view(rec_dtype).ravel())
                ids.append(np.full(n, i, dtype=np.int64))
                pos.append(np.arange(n, dtype=np.int64))
            off += len(ws)
        if not recs:
            return empty
        uniq_recs, inv = np.unique(np.concatenate(recs), return_inverse=True)
        gram_ids = uniq_recs.view(np.int64).reshape(-1, nw)
        hs_uniq = np.fromiter(
            (
                stable_u64_md5(" ".join(uniq_words[row]).encode("utf-8"))
                for row in gram_ids
            ),
            dtype=np.uint64,
            count=len(uniq_recs),
        )
        return pd.DataFrame(
            {
                "h": hs_uniq[inv],
                "doc_id": np.concatenate(ids),
                "pos": np.concatenate(pos),
            }
        )

    def flag_cross_doc(df: pd.DataFrame) -> pd.DataFrame:
        nd = df.groupby("h")["doc_id"].transform("nunique")
        return df.loc[nd >= 2, ["doc_id", "pos"]]

    exploded = ds.map_batches(explode_grams, batch_format="pyarrow")
    return keyed_exchange(exploded, ["h"], flag_cross_doc, num_partitions=8)


def _subdup_spans_frame(df: pd.DataFrame) -> pd.DataFrame:
    """Vectorized gaps-and-islands merge: a flagged gram at position p
    covers tokens [p, p+N-1]; grams p, p' overlap-or-touch iff
    p' - p <= N. One numpy pass, no per-row Python."""
    df = df.sort_values(["doc_id", "pos"], kind="mergesort")
    d = df["doc_id"].to_numpy()
    p = df["pos"].to_numpy()
    brk = np.ones(len(df), dtype=np.int64)
    if len(df) > 1:
        brk[1:][(d[1:] == d[:-1]) & (p[1:] - p[:-1] <= SUBDUP_NGRAM)] = 0
    gid = np.cumsum(brk)
    out = (
        pd.DataFrame({"doc_id": d, "gid": gid, "pos": p})
        .groupby(["doc_id", "gid"], sort=False, as_index=False)
        .agg(start_tok=("pos", "min"), end_tok=("pos", "max"), n_grams=("pos", "size"))
    )
    out["end_tok"] = out["end_tok"] + SUBDUP_NGRAM - 1
    return out[["doc_id", "start_tok", "end_tok", "n_grams"]].astype(
        {"doc_id": "int64", "start_tok": "int64", "end_tok": "int64", "n_grams": "int64"}
    )


def doc_substring_dedup(sf_dir: str):
    """Exact duplicated-substring spans: every maximal token span
    covered by ``SUBDUP_NGRAM``-grams that occur in >= 2 distinct
    documents — the detection half of suffix-array-style substring
    dedup (Lee et al. ACL'22), which the reference-scale LLM pipelines
    run before training. Oracle replicates the positional-gram flagging
    and window-function islands merge exactly."""
    from .stages.exchange import keyed_exchange

    flagged = _subdup_flagged_positions(sf_dir)
    return keyed_exchange(flagged, ["doc_id"], _subdup_spans_frame, num_partitions=8)


def doc_substring_dup_stats(sf_dir: str):
    """Per-document cross-corpus duplication stats: span count and
    tokens covered by cross-doc duplicated spans — the inputs a
    dup-fraction gate joins against the doc token counts
    (doc_token_counts) to threshold on. Complements the WITHIN-doc
    Gopher gates in doc_repetition_stats — this one measures text
    shared with OTHER documents, the signal substring dedup removes.
    Only docs with at least one duplicated span appear."""
    from .stages.exchange import keyed_exchange

    def doc_stats(df: pd.DataFrame) -> pd.DataFrame:
        spans = _subdup_spans_frame(df)
        spans["dup_tokens"] = spans["end_tok"] - spans["start_tok"] + 1
        out = spans.groupby("doc_id", sort=False, as_index=False).agg(
            n_spans=("dup_tokens", "size"), dup_tokens=("dup_tokens", "sum")
        )
        return out.astype(
            {"doc_id": "int64", "n_spans": "int64", "dup_tokens": "int64"}
        )

    flagged = _subdup_flagged_positions(sf_dir)
    return keyed_exchange(flagged, ["doc_id"], doc_stats, num_partitions=8)


def doc_quality_classifier(sf_dir: str):
    """Score every document with the TRAINED quality classifier
    (pipelines/quality_classifier.py — fastText-supervised shape:
    logistic regression over hashed unigram+bigram buckets, integer
    fixed-point GD, 10% planted label noise). The checkpoint is built
    once per corpus (sequential reference trainer, cached artifact) and
    BROADCAST to the row-local scoring stage — the serve-a-checkpoint
    shape of app.py:254-303. Oracle = the artifact's sequential replay
    scores with the keep-gate re-derived in SQL, so the driver checks
    distributed feature-extraction + scoring == sequential replay."""
    from .pipelines.quality_classifier import (
        ensure_classifier_artifacts,
        load_weights,
        score_frame,
    )

    arts = ensure_classifier_artifacts(sf_dir)
    ref = ray.put(load_weights(arts["weights"]))
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def score(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        w, b = resolve(ref)
        return score_frame(
            w, b, batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        )

    return ds.map_batches(score, batch_format="pyarrow")


def doc_classifier_weights(sf_dir: str):
    """The DISTRIBUTED classifier training loop itself, driver-checked:
    row-local feature extraction builds a pinned feature table
    (materialized object-store blocks — the kmeans/pagerank pattern),
    then each of the QC_EPOCHS full-batch steps maps the pinned blocks
    and merges one dense int64 gradient partial per block on the driver
    (mergeable-sketch combine — no key shuffle; see module docstring
    for the huge-dim exchange variant). All gradient math is integer
    and order-independent, so the returned nonzero weights are
    BIT-EXACT equal to the sequential reference trainer — which is
    exactly what the oracle (the artifact's weights kv) asserts."""
    from .pipelines.quality_classifier import (
        extract_feature_frame,
        train_distributed,
        weights_table,
    )

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def extract(batch: pa.Table) -> pd.DataFrame:
        return extract_feature_frame(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        )

    w, b = train_distributed(ds.map_batches(extract, batch_format="pyarrow"))
    return rd.from_arrow(weights_table(w, b))


def segment_year_rollup(sf_dir: str):
    """Hierarchical ROLLUP aggregate — (segment, year) → (segment) →
    grand total in one pass. The finest grain is a broadcast-join
    partial + keyed-exchange combine over raw orders; every coarser
    grain is a re-aggregation of the FINEST grain's bounded result
    (segments × years rows), never of raw rows — the standard rollup
    decomposition that keeps the wide input scanned exactly once at any
    scale. NULL level markers are Arrow nulls to hash-match DuckDB's
    GROUP BY ROLLUP output."""
    from .stages.exchange import grouped_aggregate

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    seg_ref = ray.put(
        dict(zip(cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist()))
    )
    ds = _tbl(sf_dir, "orders", columns=["o_custkey", "o_totalprice", "o_orderdate"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        seg = resolve(seg_ref)
        df = df.assign(
            c_mktsegment=df["o_custkey"].map(seg),
            o_year=df["o_orderdate"].dt.year.astype("int64"),
            cents=(df["o_totalprice"] * 100).round().astype("int64"),
        )
        return (
            df.groupby(["c_mktsegment", "o_year"], sort=False)
            .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["c_mktsegment", "o_year"], sort=False)
            .agg(n_orders=("n_orders", "sum"), revenue_cents=("revenue_cents", "sum"))
            .reset_index()
        )

    fine = grouped_aggregate(
        ds, ["c_mktsegment", "o_year"], partial, combine, _xparts(sf_dir, "orders")
    ).to_pandas()  # bounded: #segments × #years rows

    seg_tot = (
        fine.groupby("c_mktsegment", as_index=False)[["n_orders", "revenue_cents"]]
        .sum()
        .assign(o_year=pd.NA)
    )
    grand = pd.DataFrame(
        {
            "c_mktsegment": [pd.NA],
            "o_year": [pd.NA],
            "n_orders": [fine["n_orders"].sum()],
            "revenue_cents": [fine["revenue_cents"].sum()],
        }
    )
    allrows = pd.concat([fine, seg_tot, grand], ignore_index=True)
    return pa.table(
        {
            "c_mktsegment": pa.array(
                [None if pd.isna(v) else v for v in allrows["c_mktsegment"]],
                pa.string(),
            ),
            "o_year": pa.array(
                [None if pd.isna(v) else int(v) for v in allrows["o_year"]],
                pa.int64(),
            ),
            "n_orders": pa.array(allrows["n_orders"].to_numpy(dtype="int64")),
            "revenue_cents": pa.array(allrows["revenue_cents"].to_numpy(dtype="int64")),
        }
    )


def user_day_purchase_click_outer(sf_dir: str):
    """FULL OUTER join semantics over two aggregated streams with
    genuinely exclusive keys: per-(user, day) purchase totals ⟗
    per-(user, day) click totals (days where a user purchased but never
    clicked — and vice versa — survive with zeroed other-side columns).
    One pruned read, side-tagged partials, ONE keyed exchange on the
    join key, per-partition pandas outer merge — the engine's
    co-partition pattern ``stages/exchange.keyed_join`` uses for inner
    and anti joins (for an already-aggregated bounded-per-key stream
    this single exchange is strictly less data movement than joining
    the raw streams)."""
    from .stages.exchange import keyed_exchange

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["ts", "user_id", "event_type", "value"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df["event_type"].isin(["purchase", "click"])]
        df = df.assign(
            day=df["ts"].dt.floor("D"),
            cents=(df["value"] * 100).round().astype("int64"),
        )
        return (
            df.groupby(["user_id", "day", "event_type"], sort=False)
            .agg(n=("cents", "size"), cents=("cents", "sum"))
            .reset_index()
        )

    def outer_part(df: pd.DataFrame) -> pd.DataFrame:
        agg = (
            df.groupby(["user_id", "day", "event_type"], sort=False)
            .agg(n=("n", "sum"), cents=("cents", "sum"))
            .reset_index()
        )
        p = agg.loc[agg["event_type"] == "purchase",
                    ["user_id", "day", "n", "cents"]].rename(
            columns={"n": "n_purchases", "cents": "purchase_cents"}
        )
        c = agg.loc[agg["event_type"] == "click",
                    ["user_id", "day", "n", "cents"]].rename(
            columns={"n": "n_clicks", "cents": "click_cents"}
        )
        m = p.merge(c, on=["user_id", "day"], how="outer")
        for col in ("n_purchases", "purchase_cents", "n_clicks", "click_cents"):
            m[col] = m[col].fillna(0).astype("int64")
        return m

    partials = ds.map_batches(partial, batch_format="pandas")
    return keyed_exchange(partials, ["user_id", "day"], outer_part, num_partitions=8)


def doc_stratified_sample(sf_dir: str):
    """Class-balanced stratified sampling — the training-data op behind
    the reference's corpus balancing (G8 analog at document level):
    per-language counts → per-class keep rate k/10 = ⌊min_count·10 /
    count⌋ → deterministic md5-hash row filter (seeded per (doc_id,
    lang) so retries/parallelism cannot change the sample — the same
    contract as kg_downsample/kg_split_assign). Two streaming passes:
    the counts pass reduces to ≤ #blocks × #classes partial rows
    (driver-bounded); the filter pass is row-local with the tiny rate
    map captured in the closure. SQL-exact via md5_number_lower."""
    from .kernels.hashing import stable_u64_md5

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "lang"])

    counts = (
        ds.map_batches(
            lambda df: df.groupby("lang", sort=False, as_index=False).size(),
            batch_format="pandas",
        ).to_pandas()  # bounded: ≤ #blocks × #languages rows
        .groupby("lang")["size"]
        .sum()
    )
    mn = int(counts.min())
    rate = {lang: (mn * 10) // int(n) for lang, n in counts.items()}

    def keep(batch: pa.Table) -> pa.Table:
        ids = batch["doc_id"].to_pylist()
        langs = batch["lang"].to_pylist()
        mask = [
            stable_u64_md5(f"{i}:{lg}".encode("utf-8")) % 10 < rate[lg]
            for i, lg in zip(ids, langs)
        ]
        return batch.filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


def conll_token_table(sf_dir: str):
    """S1 CoNLL/TSV source: the reference's JNLPBA reader
    (fonctions.py:17-59) as a Ray Data source over a generated TSV
    fixture — blank-line sentence boundaries, -DOCSTART- and malformed
    line skips, final-sentence flush. One row per token; the DuckDB
    oracle parses the SAME file via read_text + window functions."""
    from .fixtures import ensure_conll_fixture
    from .sources.conll import read_conll

    path = ensure_conll_fixture(sf_name_from_dir(sf_dir))
    return read_conll(path)


def _conll_sentences(sf_dir: str):
    from .fixtures import ensure_conll_fixture
    from .sources.conll import read_conll_sentences

    path = ensure_conll_fixture(sf_name_from_dir(sf_dir))
    return path, read_conll_sentences(path)


def balance_targets(sf_dir: str):
    """G8 deficit targets (fonctionsFaxtText.py:687-709) over the CoNLL
    fixture: distributed G4 tag counts → driver integer arithmetic
    (median/max boosts in exact integer form). Output (tag, n, target,
    deficit) — the SQL oracle replicates the whole computation."""
    from .pipelines.balance import compute_targets, tag_counts

    _, sents = _conll_sentences(sf_dir)
    cdf = tag_counts(sents)
    out = compute_targets(dict(zip(cdf["tag"], cdf["n"].astype(int))))
    return out.astype({"n": "int64", "target": "int64", "deficit": "int64"})


def balance_assign(sf_dir: str):
    """M11 allocation surface: per-sentence deterministic copy quota
    (sent_id, cls, n_copies) — the closed-form replacement for the
    reference's sequential deficit loop; SQL-exact."""
    from .pipelines.balance import assign_copies, compute_targets, tag_counts

    _, sents = _conll_sentences(sf_dir)
    # the fixture corpus is small: materialize once instead of
    # re-parsing the TSV for each of the two passes (at corpus scale
    # keep a re-read factory and let the exchanges stream)
    sents = sents.materialize()
    cdf = tag_counts(sents)
    targets = compute_targets(dict(zip(cdf["tag"], cdf["n"].astype(int))))
    return assign_copies(sents, targets)


def balance_augmented(sf_dir: str):
    """M11+G8 end-to-end: augmented+downsampled corpus token rows.
    VALUE-exact oracle (r5, closing the last non-sketch rows-only
    entry): the model-top-k substitutions enter SQL as a sequential
    replay artifact (pipelines/balance.py::replay_balance_union — the
    kg_mentions_learned pattern) and the oracle independently
    re-derives the explode, the over-represented set and the md5
    downsample coin (see __ray_entry__._balance_augmented_sql); the
    deterministic sub-steps are additionally oracle-checked by
    balance_targets / balance_assign, and pytest asserts convergence +
    determinism."""
    from .pipelines.balance import run_balance_pipeline
    from .pipelines.embeddings import ensure_embedding_artifacts

    paths = _fixture(sf_dir)
    arts = ensure_embedding_artifacts(paths, os.path.join(paths["dir"], "emb_sgns"))
    # run_balance_pipeline consumes its factory four times (counts,
    # classify, quota-attach, originals); parse the TSV once and hand
    # back the materialized blocks (at corpus scale the materialize
    # becomes an object-store-resident parse the four passes share —
    # still strictly cheaper than four source re-reads)
    _, sents = _conll_sentences(sf_dir)
    sents = sents.materialize()

    final, _report = run_balance_pipeline(lambda: sents, arts["kv"])

    def explode(batch: pa.Table) -> pd.DataFrame:
        sids, copies, tis, toks, tags = [], [], [], [], []
        for sid, ci, tk, tg in zip(
            batch["sent_id"].to_pylist(),
            batch["copy_idx"].to_pylist(),
            batch["tokens"].to_pylist(),
            batch["tags"].to_pylist(),
        ):
            for i, (w, t) in enumerate(zip(tk, tg)):
                sids.append(sid)
                copies.append(ci)
                tis.append(i)
                toks.append(w)
                tags.append(t)
        return pd.DataFrame(
            {
                "sent_id": sids,
                "copy_idx": pd.array(copies, dtype="int32"),
                "tok_idx": pd.array(tis, dtype="int32"),
                "token": toks,
                "tag": tags,
            }
        )

    return final.map_batches(explode, batch_format="pyarrow")


def kg_embedding_matrix(sf_dir: str):
    """A8/A10/J4/S6: SGNS-trained keyed vectors + vocab-aligned embedding
    matrix (pipelines/embeddings.py; reference fonctions.py:165-195
    trainer, :239-273 matrix build), exploded to one row per (word,
    dimension) so every float is value-checked by the SQL oracle: the
    trained rows are a pass-through of the kv.parquet artifact (both
    sides read the same file) and the PAD/UNK/NUM/OOV rows use the
    md5-derived deterministic init the oracle replicates exactly."""
    import pyarrow.compute as pc

    from .pipelines.embeddings import SGNS_DIM, ensure_embedding_artifacts

    paths = _fixture(sf_dir)
    arts = ensure_embedding_artifacts(
        paths, os.path.join(paths["dir"], "emb_sgns")
    )
    ds = rd.read_parquet(arts["matrix"])

    def explode(batch: pa.Table) -> pa.Table:
        vec = batch["vector"]
        if isinstance(vec, pa.ChunkedArray):
            vec = vec.combine_chunks()
        parent = pc.list_parent_indices(vec)
        return pa.table(
            {
                "word": pc.take(batch["word"], parent),
                "word_id": pc.take(batch["word_id"], parent),
                "src": pc.take(batch["src"], parent),
                "dim_idx": pa.array(
                    np.tile(np.arange(SGNS_DIM, dtype=np.int32), batch.num_rows)
                ),
                "value": vec.flatten(),
            }
        )

    return ds.map_batches(explode, batch_format="pyarrow")


SLIDE_WINDOW_MIN = 30
SLIDE_STEP_MIN = 10


def events_sliding(sf_dir: str):
    """Sliding-window aggregate (30-min windows every 10 min): each
    event emits into ⌈window/step⌉ windows via a flat-map, then the
    keyed hash exchange combines — the standard streaming decomposition
    of sliding windows into replicated tumbling buckets."""
    from .stages.exchange import grouped_aggregate

    n_rep = SLIDE_WINDOW_MIN // SLIDE_STEP_MIN
    step_us = SLIDE_STEP_MIN * 60 * 1_000_000

    def explode(df: pd.DataFrame) -> pd.DataFrame:
        ts_us = pd.Series(df["ts"].values.astype("datetime64[us]").astype("int64"))
        cents = (df["value"] * 100).round().astype("int64")
        frames = []
        base = ts_us // step_us
        for r in range(n_rep):
            start = (base - r) * step_us
            frames.append(
                pd.DataFrame(
                    {"user_id": df["user_id"], "window_start_us": start, "cents": cents}
                )
            )
        out = pd.concat(frames, ignore_index=True)
        return (
            out.groupby(["user_id", "window_start_us"], sort=False)
            .agg(n_events=("cents", "size"), sum_value_cents=("cents", "sum"))
            .reset_index()
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(["user_id", "window_start_us"], sort=False)
            .agg(n_events=("n_events", "sum"), sum_value_cents=("sum_value_cents", "sum"))
            .reset_index()
        )

    ds = _tbl(sf_dir, "events", columns=["user_id", "ts", "value"])
    return grouped_aggregate(ds, ["user_id", "window_start_us"], explode, combine, _xparts(sf_dir, "events"))


# ---------------------------------------------------------------------------
# Relational: aggregates + broadcast join (TPC-H-shaped)
# ---------------------------------------------------------------------------


def lineitem_pricing_summary(sf_dir: str):
    """TPC-H Q1-shaped pricing summary; money in integer cents."""
    ds = _tbl(
        sf_dir,
        "lineitem",
        columns=["l_returnflag", "l_linestatus", "l_quantity", "l_extendedprice", "l_shipdate"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["l_shipdate"] <= pd.Timestamp("1998-09-02")]
        df = df.assign(
            qty_cents=(df["l_quantity"] * 100).round().astype("int64"),
            price_cents=(df["l_extendedprice"] * 100).round().astype("int64"),
        )
        g = df.groupby(["l_returnflag", "l_linestatus"], sort=False).agg(
            sum_qty_cents=("qty_cents", "sum"),
            sum_price_cents=("price_cents", "sum"),
            n_rows=("qty_cents", "size"),
        )
        return g.reset_index()

    return (
        _combine(ds.map_batches(partial, batch_format="pandas"))
        .groupby(["l_returnflag", "l_linestatus"])
        .aggregate(
            Sum("sum_qty_cents", alias_name="sum_qty_cents"),
            Sum("sum_price_cents", alias_name="sum_price_cents"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )


def revenue_by_segment(sf_dir: str):
    """orders ⋈ customer revenue per market segment — broadcast hash join
    (small side via ray.put, looked up inside map_batches; no shuffle)."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_mktsegment"]
    )
    seg_map = dict(
        zip(cust["c_custkey"].to_pylist(), cust["c_mktsegment"].to_pylist())
    )
    seg_ref = ray.put(seg_map)
    ds = _tbl(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        seg = resolve(seg_ref)
        df = df.assign(
            c_mktsegment=df["o_custkey"].map(seg),
            cents=(df["o_totalprice"] * 100).round().astype("int64"),
        )
        g = df.groupby("c_mktsegment", sort=False).agg(
            n_orders=("cents", "size"), revenue_cents=("cents", "sum")
        )
        return g.reset_index()

    return (
        _combine(ds.map_batches(partial, batch_format="pandas"))
        .groupby("c_mktsegment")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
    )


def nation_revenue(sf_dir: str):
    """Revenue per nation: orders ⋈ customer ⋈ nation — a two-hop
    broadcast hash join (both small sides shipped once via ray.put),
    then the standard partial+combine aggregate."""
    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nat = pq.read_table(
        os.path.join(sf_dir, "nation.parquet"), columns=["n_nationkey", "n_name"]
    )
    name_of_nation = dict(zip(nat["n_nationkey"].to_pylist(), nat["n_name"].to_pylist()))
    nation_of_cust = dict(
        zip(
            cust["c_custkey"].to_pylist(),
            (name_of_nation[k] for k in cust["c_nationkey"].to_pylist()),
        )
    )
    ref = ray.put(nation_of_cust)
    ds = _tbl(sf_dir, "orders", columns=["o_custkey", "o_totalprice"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        m = resolve(ref)
        df = df.assign(
            n_name=df["o_custkey"].map(m),
            cents=(df["o_totalprice"] * 100).round().astype("int64"),
        )
        return (
            df.groupby("n_name", sort=False)
            .agg(n_orders=("cents", "size"), revenue_cents=("cents", "sum"))
            .reset_index()
        )

    return (
        _combine(ds.map_batches(partial, batch_format="pandas"))
        .groupby("n_name")
        .aggregate(
            Sum("n_orders", alias_name="n_orders"),
            Sum("revenue_cents", alias_name="revenue_cents"),
        )
    )


TOP_PARTS_K = 10


def top_parts_by_revenue(sf_dir: str):
    """Top-10 parts by lineitem revenue: high-cardinality partkey
    aggregate through the keyed hash exchange, per-partition partial
    top-k, tiny driver-free final merge, then broadcast part-name join."""
    from .stages.exchange import grouped_aggregate

    part = pq.read_table(
        os.path.join(sf_dir, "part.parquet"), columns=["p_partkey", "p_name"]
    )
    name_ref = ray.put(
        dict(zip(part["p_partkey"].to_pylist(), part["p_name"].to_pylist()))
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(cents=(df["l_extendedprice"] * 100).round().astype("int64"))
        return (
            df.groupby("l_partkey", sort=False)["cents"].sum()
            .reset_index(name="revenue_cents")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby("l_partkey", sort=False)["revenue_cents"].sum().reset_index()
        )
        # per-partition partial top-k: only k rows leave each partition
        return out.sort_values(
            ["revenue_cents", "l_partkey"], ascending=[False, True]
        ).head(TOP_PARTS_K)

    ds = _tbl(sf_dir, "lineitem", columns=["l_partkey", "l_extendedprice"])
    partials = grouped_aggregate(ds, ["l_partkey"], partial, combine, _xparts(sf_dir, "lineitem"))

    def final(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        names = resolve(name_ref)
        df = df.sort_values(
            ["revenue_cents", "l_partkey"], ascending=[False, True]
        ).head(TOP_PARTS_K)
        df = df.assign(
            rank=np.arange(1, len(df) + 1), p_name=df["l_partkey"].map(names)
        )
        return df[["rank", "l_partkey", "p_name", "revenue_cents"]]

    return partials.repartition(1).map_batches(final, batch_format="pandas")


# ---------------------------------------------------------------------------
# Similarity search over the embeddings table
# ---------------------------------------------------------------------------

ANN_N_QUERIES = 8
ANN_K = 5


POWER_ITERS = 25


def emb_power_iteration(sf_dir: str):
    """Dominant principal direction of the embedding corpus by POWER
    ITERATION in integer fixed-point — the spectral-methods family
    (PCA / spectral embedding initialization) on the kmeans/pagerank
    pin-the-big-side template: the N×D matrix stays pinned in
    object-store blocks; each of the POWER_ITERS rounds broadcasts the
    current D-vector v (64 ints), computes per-block projections
    u_i = (Σ_j A_ij·v_j) // 1e6 and an UNDIVIDED dense int64[D]
    partial of Σ_i A_ij·u_i (dividing per block would make the iterate
    partition-dependent), combines the bounded partials on the driver,
    divides once, and renormalizes v ← w·1e6 // max|w| — zero shuffle
    per iteration. Like the classifier trainer, the 25 rounds fan raw
    tasks over the pinned Dataset's block refs (25 streaming-executor
    startups would dominate the matmuls). All arithmetic is exact
    int64 with TRUNCATING division (``stages.kmeans._trunc_div`` ==
    DuckDB ``//``), so the unrolled-CTE oracle reproduces every
    iterate bit-for-bit. Convergence is the textbook (λ₂/λ₁)^T — on
    this corpus the top eigengap is tight (ratio 0.984), so the
    25-round direction is a partial converge (cos ≈ 0.83 to the true
    eigenvector, pinned in tests); the engine contract is the exact
    iterate, and T is the documented knob. Output: (vec_id,
    proj_micro) projections onto the round-T direction. int64
    headroom: |Σ A·u| ≲ N·|A|·|u| ≈ 3e17 at N=2000 — at larger N drop
    the u scale by 10³ (same math, documented knob)."""
    from .kernels.quantize import micro_matrix
    from .stages.kmeans import _trunc_div

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    pinned = (
        rd.read_parquet(emb_path, columns=["vec_id", "embedding"])
        .map_batches(
            lambda b: pd.DataFrame(
                {
                    "vec_id": np.asarray(b["vec_id"].to_pylist(), dtype=np.int64),
                    "am": list(micro_matrix(b["embedding"].to_pylist())),
                }
            ),
            batch_format="pyarrow",
        )
        .materialize()
    )
    block_refs = pinned.to_arrow_refs()

    dim = _first_row_len(block_refs, "am")
    v = np.full(dim, 1_000_000, dtype=np.int64)
    MICRO_I = np.int64(1_000_000)

    @ray.remote
    def _w_block(tbl: pa.Table, v_):
        A = np.stack(tbl["am"].to_numpy(zero_copy_only=False))
        u = _trunc_div(A @ v_, MICRO_I)  # row-local: exact per vector
        return A.T @ u  # undivided partial

    for _ in range(POWER_ITERS):
        vref = ray.put(v)
        parts = ray.get([_w_block.remote(r, vref) for r in block_refs])
        w = np.zeros(dim, dtype=np.int64)
        for p in parts:
            w += p
        w = _trunc_div(w, MICRO_I)
        m = max(int(np.abs(w).max()), 1)
        v = _trunc_div(w * MICRO_I, np.int64(m))

    vref = ray.put(v)

    def project(df: pd.DataFrame, _v=vref) -> pd.DataFrame:
        from .state.broadcast import resolve

        v_ = resolve(_v)
        A = np.stack(df["am"].to_numpy())
        return pd.DataFrame(
            {
                "vec_id": df["vec_id"].astype("int64"),
                "proj_micro": _trunc_div(A @ v_, MICRO_I),
            }
        )

    return pinned.map_batches(project, batch_format="pandas")


def _emb_global_minmax(emb_path: str):
    """Per-dim global (min, max) of the micro-int embedding matrix:
    per-batch int64 partials (two D-vectors per block — bounded),
    combined on the driver. Order-free integer aggregates."""
    from .kernels.quantize import micro_matrix, minmax_partial

    ds = rd.read_parquet(emb_path, columns=["embedding"])

    def mm(batch: pa.Table) -> pd.DataFrame:
        vm = micro_matrix(batch["embedding"].to_pylist())
        mn, mx = minmax_partial(vm)
        return pd.DataFrame({"mn": [mn.tobytes()], "mx": [mx.tobytes()]})

    parts = ds.map_batches(mm, batch_format="pyarrow").take_all()
    mns = np.stack([np.frombuffer(p["mn"], dtype=np.int64) for p in parts])
    mxs = np.stack([np.frombuffer(p["mx"], dtype=np.int64) for p in parts])
    return mns.min(axis=0), mxs.max(axis=0)


def emb_quantize(sf_dir: str):
    """Scalar int8-range quantization of the embedding corpus
    (kernels/quantize.py — the compression pass a 100 TB vector store
    runs before ANN): two streaming passes, (1) bounded per-dim int64
    min/max partials combined on the driver, (2) row-local coding with
    the broadcast range. Output exploded to (vec_id, dim, code) rows;
    every step is integer (or exactly-replicable IEEE float64), so the
    SQL oracle recomputes the codes value-exactly."""
    from .kernels.quantize import micro_matrix, quantize_codes

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    gmin, gmax = _emb_global_minmax(emb_path)
    ref = ray.put((gmin, gmax))
    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def code(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        mn, mx = resolve(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        codes = quantize_codes(micro_matrix(batch["embedding"].to_pylist()), mn, mx)
        n, d = codes.shape
        return pd.DataFrame(
            {
                "vec_id": np.repeat(vids, d),
                "dim": np.tile(np.arange(d, dtype=np.int64), n),
                "code": codes.reshape(-1),
            }
        )

    return ds.map_batches(code, batch_format="pyarrow")


def ann_topk_quant(sf_dir: str):
    """Brute-force top-k over QUANTIZED vectors: centered integer dot
    products (code - 127) — the memory-bandwidth-bound formulation a
    compressed 100 TB store actually scans. Same partial-top-k merge
    shape as ann_topk; scoring is exact int64 so the SQL oracle
    replicates the ranking bit-for-bit (score desc, vec_id asc)."""
    from .kernels.quantize import QUANT_ZERO, micro_matrix, quantize_codes

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    gmin, gmax = _emb_global_minmax(emb_path)
    qt = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    ).to_pandas()
    qt = qt[qt["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qt["vec_id"].to_numpy()
    qc = quantize_codes(micro_matrix(qt["embedding"].to_numpy()), gmin, gmax)
    q_ref = ray.put((qids, qc - QUANT_ZERO, gmin, gmax))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qcent, mn, mx = resolve(q_ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        cent = quantize_codes(micro_matrix(batch["embedding"].to_pylist()), mn, mx)
        cent -= QUANT_ZERO
        score = qcent @ cent.T  # int64 matmul — exact
        rows = []
        k = min(ANN_K + 1, score.shape[1])
        for qi, qid in enumerate(qids_):
            # integer scores tie constantly, so the per-batch partial
            # must keep the same (score desc, vid asc) order the final
            # merge and the SQL oracle use — argpartition on score
            # alone could drop a tied smaller-vid row at the cut
            idx = np.lexsort((vids, -score[qi]))[:k]
            for j in idx:
                if vids[j] == qid:
                    continue
                rows.append((int(qid), int(vids[j]), int(score[qi, j])))
        return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "s"]).astype(
            {"query_id": "int64", "neighbor_id": "int64", "s": "int64"}
        )

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["s", "neighbor_id"], ascending=[False, True]).head(ANN_K)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "neighbor_id", "rank"]]

    return _combine(partials, 4).groupby("query_id").map_groups(
        final_topk, batch_format="pandas"
    )


def ann_topk(sf_dir: str):
    """Brute-force cosine top-k: broadcast query matrix, per-batch numpy
    matmul partial top-k, tiny final per-query merge. Scale path: partials
    shrink the candidate stream from O(N×Q) to O(batches×Q×k). The
    query rows are read with a pushed-down row filter, not a full scan."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    )
    qdf = qt.to_pandas()
    qdf = qdf[qdf["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy()
    qm = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qm_norm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    q_ref = ray.put((qids, qm_norm))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qn = resolve(q_ref)
        vids = np.asarray(batch["vec_id"].to_pylist())
        mat = np.stack(
            [np.asarray(x, dtype=np.float64) for x in batch["embedding"].to_pylist()]
        )
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cos = qn @ mat.T  # [Q, B]
        rows = []
        k = min(ANN_K + 1, cos.shape[1])
        for qi, qid in enumerate(qids_):
            idx = np.argpartition(-cos[qi], k - 1)[:k]
            for j in idx:
                if vids[j] == qid:
                    continue
                rows.append((int(qid), int(vids[j]), float(cos[qi, j])))
        return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "cos"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)

    def final_topk(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos", "neighbor_id"], ascending=[False, True]).head(ANN_K)
        g = g.assign(rank=np.arange(1, len(g) + 1))
        return g[["query_id", "neighbor_id", "rank"]]

    return _combine(partials, 4).groupby("query_id").map_groups(
        final_topk, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# Line-level boilerplate scrub + corpus-quantile quality gate
# ---------------------------------------------------------------------------

# A line is boilerplate when it appears in >= this many DISTINCT docs
# (CCNet/RefinedWeb line-dedup rule). The synthetic corpus has no
# newlines, so template header/footer lines are PLANTED deterministically
# (same device as doc_pii_scrub) and the oracle replicates the planting.
BOILERPLATE_MIN_DOCS = 10


def _plant_page(doc_id: int, text: str) -> str:
    return f"site header {doc_id % 7}\n{text}\ncopyright footer {doc_id % 3}"


def doc_boilerplate_scrub(sf_dir: str):
    """Line-level boilerplate removal (CCNet-style): drop every line
    that occurs in >= BOILERPLATE_MIN_DOCS distinct documents.

    Shape: (1) per-block partials emit DISTINCT (line, ndocs-in-block)
    counts — a document's lines are block-local, so per-block
    distinct-per-doc counts sum exactly to COUNT(DISTINCT doc_id);
    (2) grouped_aggregate on the line combines partials (line domain is
    unbounded — this is the keyed-exchange case, unlike tag_counts);
    (3) the frequent set is driver-collected + broadcast — bounded by
    total_line_occurrences / threshold, i.e. the threshold itself caps
    it (at 100TB with T=1000 that is <=0.1% of line volume, and those
    are short template strings); (4) a row-local scrub rewrites each
    page. Emits (doc_id, n_removed, clean_md5)."""
    from .kernels.pii import md5_hex
    from .stages.exchange import grouped_aggregate

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def line_partial(df: pd.DataFrame) -> pd.DataFrame:
        pages = [
            _plant_page(i, t) for i, t in zip(df["doc_id"], df["text"])
        ]
        tmp = pd.DataFrame(
            {"doc_id": df["doc_id"].to_numpy(), "line": [p.split("\n") for p in pages]}
        ).explode("line")
        dd = tmp.drop_duplicates()
        return (
            dd.groupby("line", sort=False, as_index=False)
            .size()
            .rename(columns={"size": "n_docs"})
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("line", sort=False, as_index=False)["n_docs"].sum()

    freq_ds = grouped_aggregate(ds, ["line"], line_partial, combine, _xparts(sf_dir, "documents")).map_batches(
        # threshold applied IN the cluster: the driver link only ever
        # carries post-threshold rows (bounded by volume/threshold),
        # never the corpus-scale distinct-line table
        lambda df: df[df["n_docs"] >= BOILERPLATE_MIN_DOCS],
        batch_format="pandas",
    )
    frequent: set[str] = set()
    for b in freq_ds.iter_batches(batch_format="pandas"):
        frequent.update(b["line"])
    ref = ray.put(frequent)

    def scrub(batch: pa.Table) -> pa.Table:
        from .state.broadcast import resolve

        fl = resolve(ref)
        ids = batch["doc_id"].to_pylist()
        n_rem, md5s = [], []
        for i, t in zip(ids, batch["text"].to_pylist()):
            lines = _plant_page(i, t).split("\n")
            kept = [l for l in lines if l not in fl]
            n_rem.append(len(lines) - len(kept))
            md5s.append(md5_hex("\n".join(kept)))
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_removed": pa.array(n_rem, pa.int64()),
                "clean_md5": pa.array(md5s, pa.string()),
            }
        )

    return ds.map_batches(scrub, batch_format="pyarrow")


# Corpus-relative quality gate: keep docs at/above the corpus p25 in
# BOTH metrics. q must be an exact binary fraction (rank = ceil(q*n)
# with no float error — same contract as lineitem_price_quantiles).
QFILTER_Q = 0.25


def doc_quantile_filter(sf_dir: str):
    """Quantile-threshold quality filter (Gopher-style corpus-relative
    gate): keep documents with n_tokens >= p25(n_tokens) AND
    milli-quantized stopword ratio >= p25(swr_milli).

    Thresholds are EXACT order statistics from bounded value-count
    histograms: per-block value counts (domain = distinct token counts
    / 0..1000 milli-ratios, not rows) -> driver combine -> quantile_disc
    rank (1-based ceil(q*n)) -> broadcast thresholds -> row-local
    filter. No shuffle at any scale; the second corpus pass reuses the
    materialized metric table, never re-reads text."""
    mds, lo_tok, lo_swr = _quality_gate_setup(sf_dir)

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.greater_equal(batch["n_tokens"], pa.scalar(lo_tok, pa.int64())),
            pc.greater_equal(batch["swr_milli"], pa.scalar(lo_swr, pa.int64())),
        )
        return batch.filter(m).select(["doc_id", "n_tokens", "swr_milli"])

    return mds.map_batches(keep, batch_format="pyarrow")


def _quality_metrics(sf_dir: str, with_hash: bool = False):
    """The (doc_id, n_tokens, swr_milli) metrics pass alone —
    doc_skyline consumes this directly (it needs no thresholds, so it
    shouldn't pay the histogram/quantile stage _quality_gate_setup
    adds on top)."""
    import math

    from .kernels.hashing import stable_u64_md5
    from .kernels.textstats import quality_features

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def metrics(batch: pa.Table) -> pa.Table:
        ids, ntok, swr, ths = [], [], [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            f = quality_features(t)
            ids.append(i)
            ntok.append(f["n_tokens"])
            swr.append(int(math.floor(f["stopword_ratio"] * 1000)))
            if with_hash:
                ths.append(stable_u64_md5(t.encode("utf-8")) - (1 << 63))
        cols = {
            "doc_id": pa.array(ids, pa.int64()),
            "n_tokens": pa.array(ntok, pa.int64()),
            "swr_milli": pa.array(swr, pa.int64()),
        }
        if with_hash:
            cols["text_h"] = pa.array(ths, pa.int64())
        return pa.table(cols)

    return ds.map_batches(metrics, batch_format="pyarrow")


def _quality_gate_setup(sf_dir: str, with_hash: bool = False):
    """Shared by doc_quantile_filter and doc_curation_pipeline: the
    metrics pass (doc_id, n_tokens, swr_milli) plus the exact
    order-statistic thresholds from bounded value-count histograms
    (driver combine; domain-bounded, not row-bounded).

    ``with_hash=True`` (the curation-pipeline path) also carries the
    md5 text hash so downstream exact dedup never re-reads text; the
    default skips it so doc_quantile_filter — which drops the column
    immediately — doesn't pay a per-doc full-text hash it never uses."""
    import math

    mds = _quality_metrics(sf_dir, with_hash=with_hash).materialize()

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for col in ("n_tokens", "swr_milli"):
            vc = df[col].value_counts()
            frames.append(
                pd.DataFrame(
                    {"metric": col, "value": vc.index.to_numpy(), "n": vc.to_numpy()}
                )
            )
        return pd.concat(frames, ignore_index=True)

    hist = (
        mds.map_batches(hist_partial, batch_format="pandas")
        .to_pandas()
        .groupby(["metric", "value"], as_index=False)["n"]
        .sum()
    )

    def q_disc(h: pd.DataFrame, q: float) -> int:
        h = h.sort_values("value")
        cum = h["n"].cumsum().to_numpy()
        rank = math.ceil(q * int(cum[-1]))  # q is a binary fraction: exact
        return int(h["value"].to_numpy()[np.searchsorted(cum, rank)])

    lo_tok = q_disc(hist[hist["metric"] == "n_tokens"], QFILTER_Q)
    lo_swr = q_disc(hist[hist["metric"] == "swr_milli"], QFILTER_Q)
    return mds, lo_tok, lo_swr


# Source-proportional mixing: resample so per-source volumes follow the
# recipe weights (The Pile / SlimPajama-style data mixing). Weight rule
# is a deterministic function of the source name so the oracle can
# replicate it; budget = half the corpus.
MIX_COIN_MOD = 10000


def _mix_weight(source: str) -> int:
    import re

    m = re.search(r"[0-9]+", source)
    return (int(m.group()) if m else 0) % 4 + 1


def doc_source_mix(sf_dir: str):
    """Training-mix resampling: per-source md5-coin keep rates sized so
    kept volumes are proportional to recipe weights within a half-corpus
    budget (rate_i = min(1, B·w_i / (W·n_i)) in exact integer permyriad
    form).

    Shape: per-block source value counts (bounded domain — driver
    combine, same contract as balance.tag_counts) -> driver integer
    rate table -> broadcast -> row-local seeded coin filter. One corpus
    scan for counts, one for the filter; no shuffle at any scale, and
    the coin makes the sample deterministic under any partitioning or
    retry."""
    from .kernels.hashing import stable_u64_md5

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "source"])

    counts = (
        ds.map_batches(
            lambda df: df["source"]
            .value_counts()
            .rename_axis("source")
            .reset_index(name="n"),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("source", as_index=False)["n"]
        .sum()
    )
    n_by_src = dict(zip(counts["source"], counts["n"].astype(int)))
    tot = sum(n_by_src.values())
    budget = tot // 2
    weights = {s: _mix_weight(s) for s in n_by_src}
    wsum = sum(weights.values())
    rate = {
        s: min(
            MIX_COIN_MOD,
            (MIX_COIN_MOD * budget * weights[s]) // (wsum * n_by_src[s]),
        )
        for s in n_by_src
    }
    ref = ray.put(rate)

    def keep(batch: pa.Table) -> pa.Table:
        from .state.broadcast import resolve

        r = resolve(ref)
        ids = batch["doc_id"].to_pylist()
        srcs = batch["source"].to_pylist()
        mask = [
            stable_u64_md5(f"{i}:mix".encode()) % MIX_COIN_MOD < r[s]
            for i, s in zip(ids, srcs)
        ]
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "source": pa.array(srcs, pa.string()),
            }
        ).filter(pa.array(mask))

    return ds.map_batches(keep, batch_format="pyarrow")


# PMI collocation mining: the phrase-discovery pass a tokenizer/phrase
# model runs before merging multiword units. Score is the exact integer
# form floor(1e6 · c12 · N / (c1 · c2)) — a monotone transform of the
# (unsmoothed) PMI ratio — so ordering needs no IEEE logs.
COLLOC_MIN_COUNT = 5
COLLOC_K = 20


def doc_collocations(sf_dir: str):
    """Top-K collocations by integer PMI score over document bigrams.

    Shape: the G1 bigram exchange (threshold c12 ≥ COLLOC_MIN_COUNT
    bounds the survivor set to ≤ N/threshold), unigram counts via the
    wordcount exchange, corpus total N as a driver sum of block
    partials; unigram counts broadcast for the score join (fixture
    vocab is small — at 10⁸-word vocab replace the broadcast with two
    keyed_joins on w1/w2, same rows); per-partition partial top-K +
    driver merge. Output (bigram, c12, pmi_micro)."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def bigram_partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c: dict[str, int] = {}
        total = 0
        for t in batch["text"].to_pylist():
            ws = WORD_RE.findall(t.lower())
            total += len(ws)
            for i in range(len(ws) - 1):
                bg = ws[i] + " " + ws[i + 1]
                c[bg] = c.get(bg, 0) + 1
        out = pd.DataFrame({"bigram": list(c.keys()), "n": list(c.values())})
        # one N-carrier row per block (empty-string bigram can't occur:
        # \w+ tokens are non-empty)
        return pd.concat(
            [out, pd.DataFrame({"bigram": [""], "n": [total]})], ignore_index=True
        )

    def bigram_combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("bigram", sort=False, as_index=False)["n"].sum()
        return g[(g["bigram"] == "") | (g["n"] >= COLLOC_MIN_COUNT)]

    bg = keyed_exchange(
        ds.map_batches(bigram_partial, batch_format="pyarrow"),
        ["bigram"],
        bigram_combine, _xparts(sf_dir, "documents"),
    ).to_pandas()
    n_total = int(bg.loc[bg["bigram"] == "", "n"].sum())
    bg = bg[bg["bigram"] != ""].reset_index(drop=True)

    def uni_partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        c: dict[str, int] = {}
        for t in batch["text"].to_pylist():
            for w in WORD_RE.findall(t.lower()):
                c[w] = c.get(w, 0) + 1
        return pd.DataFrame({"word": list(c.keys()), "n": list(c.values())})

    uni = keyed_exchange(
        ds.map_batches(uni_partial, batch_format="pyarrow"),
        ["word"],
        lambda df: df.groupby("word", sort=False, as_index=False)["n"].sum(), _xparts(sf_dir, "documents"),
    ).to_pandas()
    cnt = dict(zip(uni["word"], uni["n"].astype(int)))

    parts = bg["bigram"].str.split(" ", n=1, expand=True)
    c12 = bg["n"].astype(int)
    c1 = parts[0].map(cnt).astype("int64")
    c2 = parts[1].map(cnt).astype("int64")
    pmi = [
        (1_000_000 * int(a) * n_total) // (int(b) * int(d))
        for a, b, d in zip(c12, c1, c2)
    ]
    out = pd.DataFrame(
        {"bigram": bg["bigram"], "c12": c12.astype("int64"),
         "pmi_micro": pd.array(pmi, dtype="int64")}
    )
    out = out.sort_values(
        ["pmi_micro", "bigram"], ascending=[False, True], kind="mergesort"
    ).head(COLLOC_K)
    return out.reset_index(drop=True)


def events_funnel(sf_dir: str):
    """Per-user funnel sequence matching (view → click → purchase,
    each stage strictly after the previous stage's first hit) — the
    session-analytics pattern where ORDER within a key matters, not
    just aggregates.

    One user-keyed exchange of the pruned (user_id, ts_us, event_type)
    stream; per-partition computation is three vectorized
    filter-map-groupby-min passes (no per-user Python loop for the
    matching itself). Output (user_id, stage, t_view_us, t_click_us,
    t_purchase_us) with Arrow int64 nulls (the kg_conv_turn_gaps
    representation contract)."""
    from .stages.exchange import keyed_exchange

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"),
        columns=["user_id", "ts", "event_type"],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "ts_us": df["ts"].values.astype("datetime64[us]").astype("int64"),
                "event_type": df["event_type"],
            }
        )

    def funnel_part(df: pd.DataFrame) -> pd.DataFrame:
        v = df.loc[df["event_type"] == "view"].groupby("user_id")["ts_us"].min()
        c_rows = df.loc[df["event_type"] == "click", ["user_id", "ts_us"]].copy()
        c_rows["t1"] = c_rows["user_id"].map(v)
        c_rows = c_rows[c_rows["t1"].notna() & (c_rows["ts_us"] > c_rows["t1"])]
        c = c_rows.groupby("user_id")["ts_us"].min()
        p_rows = df.loc[df["event_type"] == "purchase", ["user_id", "ts_us"]].copy()
        p_rows["t2"] = p_rows["user_id"].map(c)
        p_rows = p_rows[p_rows["t2"].notna() & (p_rows["ts_us"] > p_rows["t2"])]
        p = p_rows.groupby("user_id")["ts_us"].min()

        out = pd.DataFrame({"user_id": np.sort(df["user_id"].unique())})
        t1 = out["user_id"].map(v)
        t2 = out["user_id"].map(c)
        t3 = out["user_id"].map(p)
        stage = np.where(
            t3.notna(), 3, np.where(t2.notna(), 2, np.where(t1.notna(), 1, 0))
        )

        def as_i64(s: pd.Series) -> pa.Array:
            return pa.array(
                [None if pd.isna(x) else int(x) for x in s], pa.int64()
            )

        return pa.table(
            {
                "user_id": pa.array(out["user_id"], pa.int64()),
                "stage": pa.array(stage, pa.int64()),
                "t_view_us": as_i64(t1),
                "t_click_us": as_i64(t2),
                "t_purchase_us": as_i64(t3),
            }
        )

    return keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"), ["user_id"], funnel_part, _xparts(sf_dir, "events")
    )


def emb_semantic_keep(sf_dir: str):
    """SemDeDup-style semantic dedup, end to end: IVF-bucketed cosine
    near-dup pairs (emb_neardup_pairs) → connected components
    (stages/dedup.pairs_components, keyed-exchange min-label) → keep
    one representative (component-min vec_id) per semantic cluster
    plus every unclustered vector. Same drop-stream + left_anti
    ``keyed_join`` shape as doc_dedup_keep — no driver-side key set,
    both sides streamed; the oracle is the exact recursive-CTE transitive
    closure over the SQL-replicated pair rule."""
    from .stages.dedup import pairs_components
    from .stages.exchange import keyed_join

    clusters = pairs_components(
        emb_neardup_pairs(sf_dir), "vec_id_a", "vec_id_b", rounds=_CLUSTER_ROUNDS
    )
    drops = clusters.map_batches(
        lambda df: df.loc[df["cluster_rep"] < df["node_id"], ["node_id"]]
        .rename(columns={"node_id": "vec_id"}),
        batch_format="pandas",
    )
    vecs = _tbl(sf_dir, "embeddings", columns=["vec_id"])
    return keyed_join(vecs, drops, "vec_id", "left_anti")


# Training-row bin packing: fold the PACK_CHUNK-token chunk stream into
# fixed-capacity rows. Packing is inherently sequential, so the engine
# partitions chunks by an md5 hash of the doc (SQL-replicable, unlike
# pandas' hash), packs NEXT-FIT within each partition in (doc_id,
# chunk_idx) order, and the oracle replays the same fold with a
# recursive CTE — bin ids are deterministic under any block layout or
# retry because they depend only on partition membership + total order.
PACK_BIN_CAP = 256
PACK_PARTITIONS = 8


def doc_pack_bins(sf_dir: str):
    """Sequence packing, completed: chunks → fixed-capacity training
    rows (bins). Emits (doc_id, chunk_idx, pack_pid, bin_id) where
    bin_id is the partition-local next-fit bin index.

    Scale shape: ONE keyed exchange on the md5 partition id; the
    per-partition fold is a vectorized-setup linear pass (rows sorted
    once, then an O(rows) fill loop over int64s). A hot partition holds
    ~1/PACK_PARTITIONS of the chunk stream — raise PACK_PARTITIONS with
    corpus size like every other exchange."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    from .kernels.textstats import WORD_RE

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def chunks(batch: pa.Table) -> pa.Table:
        ids, cidx, ntok, pids = [], [], [], []
        for doc_id, text in zip(
            batch["doc_id"].to_pylist(), batch["text"].to_pylist()
        ):
            ws = WORD_RE.findall(text)
            pid = stable_u64_md5(f"{doc_id}:pack".encode()) % PACK_PARTITIONS
            for c in range((len(ws) + PACK_CHUNK - 1) // PACK_CHUNK):
                ids.append(doc_id)
                cidx.append(c)
                ntok.append(min(PACK_CHUNK, len(ws) - c * PACK_CHUNK))
                pids.append(pid)
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "chunk_idx": pa.array(cidx, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
                "pack_pid": pa.array(pids, pa.int64()),
            }
        )

    def pack(df: pd.DataFrame) -> pd.DataFrame:
        # the exchange may co-locate several pack_pids in one physical
        # partition — the next-fit fold is per pack_pid
        frames = []
        for _, g in df.groupby("pack_pid", sort=True):
            g = g.sort_values(["doc_id", "chunk_idx"], kind="mergesort").reset_index(
                drop=True
            )
            toks = g["n_tokens"].to_numpy(dtype="int64")
            bins = np.empty(len(g), dtype="int64")
            b, fill = 0, 0
            for i, t in enumerate(toks):
                if fill + t > PACK_BIN_CAP and fill > 0:
                    b += 1
                    fill = 0
                bins[i] = b
                fill += t
            frames.append(
                pd.DataFrame(
                    {
                        "doc_id": g["doc_id"].astype("int64"),
                        "chunk_idx": g["chunk_idx"].astype("int64"),
                        "pack_pid": g["pack_pid"].astype("int64"),
                        "bin_id": bins,
                    }
                )
            )
        return pd.concat(frames, ignore_index=True)

    return keyed_exchange(
        ds.map_batches(chunks, batch_format="pyarrow"),
        ["pack_pid"],
        pack,
        PACK_PARTITIONS,
    )


RETENTION_MAX_OFFSET = 7


def events_retention(sf_dir: str):
    """Cohort retention matrix: users grouped by their FIRST active day
    (cohort), counted as retained at day offsets 0..RETENTION_MAX_OFFSET
    — the standard product-analytics rollup, done skew-safe.

    One user-keyed exchange computes each user's cohort day and the
    distinct offsets they returned on (vectorized pandas per
    partition); per-partition partial counts over the bounded
    (cohort_day, offset) domain combine on the driver — no second
    shuffle. Output (cohort_day, offset, n_users) with cohort_day as
    epoch days."""
    from .stages.exchange import keyed_exchange

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    US_PER_DAY = 86_400_000_000

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": df["ts"].values.astype("datetime64[us]").astype("int64")
                // US_PER_DAY,
            }
        )

    def per_user(df: pd.DataFrame) -> pd.DataFrame:
        first = df.groupby("user_id")["day"].min().rename("cohort_day")
        m = df.merge(first, on="user_id")
        m["offset"] = m["day"] - m["cohort_day"]
        m = m[
            (m["offset"] >= 0) & (m["offset"] <= RETENTION_MAX_OFFSET)
        ].drop_duplicates(["user_id", "offset"])
        return (
            m.groupby(["cohort_day", "offset"], sort=False)
            .size()
            .reset_index(name="n_users")
        )

    parts = keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"), ["user_id"], per_user, _xparts(sf_dir, "events")
    ).to_pandas()
    out = (
        parts.groupby(["cohort_day", "offset"], as_index=False)["n_users"]
        .sum()
        .astype({"cohort_day": "int64", "offset": "int64", "n_users": "int64"})
    )
    return out


# ---------------------------------------------------------------------------
# Graph depth: edge provenance, k-core, neighborhood similarity
# ---------------------------------------------------------------------------


def _copurchase_cache(sf_dir: str) -> str:
    """Manifest-guarded parquet of the DISTINCT undirected co-purchase
    edge list (u < v between parts sharing an order) with the u64 md5
    edge coin precomputed per edge — the base graph that pagerank,
    triangle counting, k-core and neighborhood-Jaccard all start from
    (the _annotations_cache pattern: the driver/bench run dozens of
    queries back-to-back, and the two edge exchanges plus the per-edge
    Python md5 loop are identical work each time). First builder pays
    once per fixture; storing the RAW hash keeps every keep-probability
    mod derivable without rebuilding."""
    from .state import manifest as mf

    path = os.path.join(sf_dir, "lineitem.parquet")
    fp = mf.fingerprint("copurchase-v1", mf.input_fingerprint([path]))
    out = _query_cache_dir(sf_dir, "copurchase_edges")
    if not mf.is_complete(out, fp):

        def build(tmp):
            from .kernels.hashing import stable_u64_md5
            from .stages.exchange import keyed_exchange

            li = _tbl(sf_dir, "lineitem", columns=["l_orderkey", "l_partkey"])

            def order_pairs(df: pd.DataFrame) -> pd.DataFrame:
                d = df.drop_duplicates()
                m = d.merge(d, on="l_orderkey")
                m = m[m["l_partkey_x"] < m["l_partkey_y"]]
                return pd.DataFrame(
                    {
                        "u": m["l_partkey_x"].astype("int64"),
                        "v": m["l_partkey_y"].astype("int64"),
                    }
                ).drop_duplicates()

            def dedup_coin(df: pd.DataFrame) -> pd.DataFrame:
                d = df.drop_duplicates()
                h = np.fromiter(
                    (
                        stable_u64_md5(f"tri:{u}:{v}".encode("utf-8"))
                        for u, v in zip(d["u"], d["v"])
                    ),
                    dtype=np.uint64,
                    count=len(d),
                )
                return d.assign(coin=h)

            pairs = keyed_exchange(li, ["l_orderkey"], order_pairs, 32)
            keyed_exchange(pairs, ["u"], dedup_coin, 16).write_parquet(tmp)

        mf.run_stage("copurchase-edges", out, fp, build)
    return out


def _copurchase_edges(sf_dir: str, mod: int = 1):
    """Distinct undirected co-purchase edges (u < v), optionally
    sparsified with the deterministic md5 edge coin (DOULION, keep
    p = 1/mod — the ``tri:`` key shared with the SQL replays). Reads the
    per-fixture edge cache; the coin filter commutes with the global
    dedup (the hash is a function of (u, v) only), so the sampled set is
    identical to applying the coin before dedup."""
    from .state.manifest import list_parquet_files

    ds = rd.read_parquet(
        list_parquet_files(_copurchase_cache(sf_dir)), columns=["u", "v", "coin"]
    )

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        keep = df if mod <= 1 else df[df["coin"].to_numpy() % np.uint64(mod) == 0]
        return keep[["u", "v"]]

    return ds.map_batches(filt, batch_format="pandas")


def _copurchase_degrees(edges, num_partitions: int | None = None) -> pd.DataFrame:
    """Driver-side (node, n) degree table via the map-side combiner +
    one node-keyed exchange (the part_triangle_counts pattern). One int
    per node — bounded by the part DIMENSION, not the edge count; where
    even that exceeds driver memory the callers' broadcast reverts to
    adjacency-keyed exchanges attaching degrees in turn (see the note at
    part_triangle_counts)."""
    from .stages.exchange import keyed_exchange

    def deg_partial(batch: pa.Table) -> pd.DataFrame:
        u = np.asarray(batch["u"].to_pylist(), dtype=np.int64)
        v = np.asarray(batch["v"].to_pylist(), dtype=np.int64)
        node, cnt = np.unique(np.concatenate([u, v]), return_counts=True)
        return pd.DataFrame({"node": node, "n": cnt.astype(np.int64)})

    out = keyed_exchange(
        edges.map_batches(deg_partial, batch_format="pyarrow"),
        ["node"],
        lambda df: df.groupby("node", as_index=False)["n"].sum(),
        num_partitions,
    ).to_pandas()
    if not len(out):
        return pd.DataFrame({"node": pd.Series(dtype="int64"), "n": pd.Series(dtype="int64")})
    return out.astype({"node": "int64", "n": "int64"})


KCORE_K = 75
KCORE_ROUNDS = 6


# Node-dimension broadcast budget for the iterative-graph family
# (label propagation, k-core, BFS): below this the per-round node-set
# (labels / alive nodes / frontier) travels as ONE ray.put broadcast
# (fast, zero extra exchange); above it the node-keyed EXCHANGE tier
# runs with no driver-side state at all. The tier is a physical-plan
# choice — both produce bit-identical results (integer set semantics,
# deterministic tie-breaks), asserted by the forced-fallback pytests
# in tests/test_scale_fallbacks.py.
LP_BROADCAST_LIMIT = 5_000_000


def part_kcore(sf_dir: str, broadcast_limit: int = LP_BROADCAST_LIMIT):
    """K-core decomposition of the co-purchase graph by synchronous
    bounded-round peeling (Batagelj-Zaversnik semantics, distributed):
    each round recomputes degrees over the surviving edge set (map-side
    combiner + one node-keyed exchange) and drops every node below
    KCORE_K together with its edges; KCORE_ROUNDS fixed rounds make the
    result — and the materialized-CTE SQL replay — partitioning- and
    engine-independent even before the fixpoint, while the fixpoint
    itself (reached at round 5 on both test scales) is asserted in
    tests/test_graph_depth.py. Output = surviving parts with their
    within-core degree.

    Two physical tiers (the part_label_prop pattern): below
    ``broadcast_limit`` the per-round alive-node set is a driver
    collect + broadcast (bounded by the part dimension, see
    _copurchase_degrees); past it the label-keyed EXCHANGE tier runs —
    the alive set stays a distributed dataset, each round filters the
    edge set through two side-tagged node-keyed exchanges (u-endpoint
    check, then v-endpoint check) and re-derives degrees with a third;
    driver traffic is two scalar counts per round. Bit-identical
    results (integer set semantics; forced-fallback pytest). Rounds
    end early when a pass removes nothing."""
    from .state.broadcast import resolve

    edges = _copurchase_edges(sf_dir).materialize()
    P = _xparts(sf_dir, "lineitem")
    if 2 * edges.count() > broadcast_limit:
        return _kcore_exchange_tier(edges, P)
    deg = _copurchase_degrees(edges, P)
    for _ in range(KCORE_ROUNDS):
        alive = deg.loc[deg["n"] >= KCORE_K, "node"].to_numpy()
        if len(alive) == len(deg):
            break  # fixpoint: no node below K — remaining rounds no-op
        if not len(alive):
            deg = deg.iloc[0:0]
            break
        aref = ray.put(alive)

        def filt(df: pd.DataFrame, aref=aref) -> pd.DataFrame:
            a = resolve(aref)
            m = np.isin(df["u"].to_numpy(), a) & np.isin(df["v"].to_numpy(), a)
            return df.loc[m]

        edges = edges.map_batches(filt, batch_format="pandas").materialize()
        deg = _copurchase_degrees(edges, _xparts(sf_dir, "lineitem"))
    return pd.DataFrame(
        {
            "part_id": deg["node"].astype("int64"),
            "core_degree": deg["n"].astype("int64"),
        }
    )


def _kcore_exchange_tier(edges, P: int):
    """Exchange tier of part_kcore (see its docstring): alive set and
    degrees stay distributed; per round two side-tagged node-keyed
    exchanges filter the edge set (both-endpoints-alive) and one more
    re-derives degrees. Driver sees only two counts per round."""
    from .stages.exchange import keyed_exchange

    def deg_partial(df: pd.DataFrame) -> pd.DataFrame:
        node, cnt = np.unique(
            np.concatenate(
                [df["u"].to_numpy(dtype=np.int64), df["v"].to_numpy(dtype=np.int64)]
            ),
            return_counts=True,
        )
        return pd.DataFrame({"node": node, "n": cnt.astype(np.int64)})

    def degrees_ds(eds):
        return keyed_exchange(
            eds.map_batches(deg_partial, batch_format="pandas"),
            ["node"],
            lambda df: df.groupby("node", as_index=False)["n"].sum(),
            P,
        )

    def empty():
        return pd.DataFrame(
            {
                "part_id": pd.Series(dtype="int64"),
                "core_degree": pd.Series(dtype="int64"),
            }
        )

    def endpoint_filter(tagged):
        """One co-located partition: keys with an alive marker keep
        their edge rows; edges flip orientation for the next check."""

        def keep(df: pd.DataFrame) -> pd.DataFrame:
            is_mark = df["other"].to_numpy() < 0
            alive_keys = set(df.loc[is_mark, "key"].tolist())
            ed = df[~is_mark]
            ed = ed[ed["key"].isin(alive_keys)]
            return pd.DataFrame(
                {
                    "key": ed["other"].to_numpy(dtype=np.int64),
                    "other": ed["key"].to_numpy(dtype=np.int64),
                }
            )

        return keyed_exchange(tagged, ["key"], keep, P)

    deg = degrees_ds(edges).materialize()
    for _ in range(KCORE_ROUNDS):
        n_nodes = deg.count()
        if n_nodes == 0:
            return empty()
        alive = deg.map_batches(
            lambda df: pd.DataFrame(
                {"key": df.loc[df["n"] >= KCORE_K, "node"].to_numpy(dtype=np.int64)}
            ).assign(other=np.int64(-1)),
            batch_format="pandas",
        ).materialize()  # consumed by both endpoint checks
        n_alive = alive.count()
        if n_alive == n_nodes:
            break  # fixpoint
        if n_alive == 0:
            return empty()

        def tag_u(df: pd.DataFrame) -> pd.DataFrame:
            return pd.DataFrame(
                {
                    "key": df["u"].to_numpy(dtype=np.int64),
                    "other": df["v"].to_numpy(dtype=np.int64),
                }
            )

        half = endpoint_filter(
            edges.map_batches(tag_u, batch_format="pandas").union(alive)
        )
        # half rows are (key=v, other=u); second check restores (u, v)
        filtered = endpoint_filter(half.union(alive)).map_batches(
            lambda df: pd.DataFrame(
                {
                    "u": df["other"].to_numpy(dtype=np.int64),
                    "v": df["key"].to_numpy(dtype=np.int64),
                }
            ),
            batch_format="pandas",
        )
        edges = filtered.materialize()
        deg = degrees_ds(edges).materialize()

    out = deg.to_pandas().sort_values("node")
    return pd.DataFrame(
        {
            "part_id": out["node"].astype("int64").to_numpy(),
            "core_degree": out["n"].astype("int64").to_numpy(),
        }
    )


JACC_NB_MIN_COMMON = 2  # pairs must share >= this many sampled neighbors
JACC_NB_NUM, JACC_NB_DEN = 1, 20  # keep pairs with Jaccard >= NUM/DEN


def part_neighbor_jaccard(sf_dir: str):
    """Link-prediction neighborhood similarity over the md5-sparsified
    co-purchase graph (same DOULION p = 1/TRI_SAMPLE_MOD edge coin as
    part_triangle_counts, so degrees and wedges are exactly replayable
    in SQL): for part pairs (a < b) sharing >= JACC_NB_MIN_COMMON
    sampled neighbors, the EXACT Jaccard of their sampled neighbor sets
    gates the pair via integer cross-multiply (common·DEN >= union·NUM —
    no float ties). Common-neighbor counting is the wedge pattern: the
    adjacency explodes both directions, a center-keyed exchange emits
    each wedge a-s-b exactly once per shared neighbor s, and one
    pair-keyed exchange sums counts and applies the gate with the
    broadcast degree table (bounded by the part dimension; fallback per
    _copurchase_degrees). Wedge volume is Σ deg² over the SAMPLED graph
    — the p knob trades recall for 1/p² less exchange volume, the same
    trade part_triangle_counts documents."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD).materialize()
    deg_df = _copurchase_degrees(edges, _xparts(sf_dir, "lineitem"))
    deg = pd.Series(deg_df["n"].to_numpy(), index=deg_df["node"].to_numpy())
    dref = ray.put(deg)

    def adj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
                "o": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
            }
        )

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="n")
        m = m[m["o_x"] < m["o_y"]]
        return (
            m.groupby(["o_x", "o_y"], sort=False)
            .size()
            .reset_index(name="cn")
            .rename(columns={"o_x": "a", "o_y": "b"})
        )

    w = keyed_exchange(
        edges.map_batches(adj, batch_format="pandas"), ["n"], wedges, 16
    )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["a", "b"], as_index=False)["cn"].sum()
        d = resolve(dref)
        union = (
            d.reindex(g["a"]).to_numpy() + d.reindex(g["b"]).to_numpy()
        ) - g["cn"].to_numpy()
        keep = (g["cn"].to_numpy() >= JACC_NB_MIN_COMMON) & (
            g["cn"].to_numpy() * JACC_NB_DEN >= union * JACC_NB_NUM
        )
        g = g.loc[keep]
        return pd.DataFrame(
            {
                "part_a": g["a"].astype("int64"),
                "part_b": g["b"].astype("int64"),
                "common_n": g["cn"].astype("int64"),
                "union_n": union[keep].astype("int64"),
            }
        )

    return keyed_exchange(w, ["a", "b"], gate, 8)


def kg_edge_provenance(sf_dir: str):
    """Per-edge temporal provenance for the knowledge graph: every
    canonical (subj, pred, obj) edge carries its occurrence weight, the
    number of DISTINCT supporting conversations, and the first/last
    supporting turn timestamp — the lineage a 100 TB KG build needs to
    audit where an edge came from and when it was last seen. The
    per-turn edge partials (``_turn_partials``: canonical remap as in
    kg_edges, each carrying its turn's cached ``ts_us``) combine in ONE
    edge-keyed exchange: weight = Σ counts, n_convs = distinct convs,
    min/max timestamp."""
    from .stages.exchange import keyed_exchange

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(_EDGE, sort=False)
            .agg(
                weight=("n", "sum"),
                n_convs=("conv_id", "nunique"),
                f=("ts_us", "min"),
                l=("ts_us", "max"),
            )
            .reset_index()
        )
        return pd.DataFrame(
            {
                "subj_cui": g["subj_cui"],
                "pred": g["pred"],
                "obj_cui": g["obj_cui"],
                "weight": g["weight"].astype("int64"),
                "n_convs": g["n_convs"].astype("int64"),
                "first_ts": g["f"].to_numpy(dtype="int64").astype("datetime64[us]"),
                "last_ts": g["l"].to_numpy(dtype="int64").astype("datetime64[us]"),
            }
        )

    return keyed_exchange(_turn_partials(sf_dir), _EDGE, final, 8)


XTURN_WINDOW = 2  # max turn gap for cross-turn relations


def kg_cross_turn_edges(sf_dir: str):
    """Cross-turn relation extraction — the transcript-KG edge family
    the within-turn kg_edges cannot see: a linked mention in turn t and
    one in turn t+g of the SAME conversation (1 <= g <= XTURN_WINDOW)
    yield an edge, subject = the earlier mention, predicate = the same
    type-pair heuristic as within-turn triples (kernels/relations.py —
    clause-for-clause with the SQL CASE). Canonical-remapped, self-loops
    dropped, exact-deduped with occurrence weights, like kg_edges.

    Shape: ONE conv-keyed exchange co-locates a conversation's linked
    mentions; the window join is g equi-joins on (conv_id, turn_idx)
    (one per gap value — O(W · matches), never the per-conversation
    quadratic explode); per-partition partial counts combine in one
    edge-keyed exchange. Partitioning assumption (custom-operator
    contract): one conversation's mentions fit a partition — hot
    conversations are the north-rule skew case, handled by raising
    num_partitions with corpus size (the key is conv_id, so a single
    pathological conversation additionally needs the turn-range salting
    documented in SCALE.md)."""
    from .kernels.relations import predicate_for_vec
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve
    from .state.manifest import list_parquet_files

    ann_dir, rows = _annotations_cache(sf_dir)
    comp_ref = ray.put(canonical_components(rows))

    ann = rd.read_parquet(
        list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "mentions"]
    )
    lm = mentions_stage(ann).map_batches(
        lambda t: t.filter(t["cui"].is_valid()), batch_format="pyarrow"
    )

    def prep(t: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "conv_id": t["conv_id"].to_pandas().astype(str),
                "turn_idx": t["turn_idx"].to_pandas().astype("int64"),
                "cui": t["cui"].to_pandas().astype(str),
                "type": t["type"].to_pandas().astype(str),
            }
        )

    def per_conv(df: pd.DataFrame) -> pd.DataFrame:
        comp = resolve(comp_ref)
        frames = []
        for g in range(1, XTURN_WINDOW + 1):
            right = df.assign(_jt=df["turn_idx"] - g)
            m = df.merge(
                right,
                left_on=["conv_id", "turn_idx"],
                right_on=["conv_id", "_jt"],
                suffixes=("_x", "_y"),
            )
            if len(m):
                frames.append(m)
        if not frames:
            return pd.DataFrame(
                {
                    "subj_cui": pd.Series(dtype=object),
                    "pred": pd.Series(dtype=object),
                    "obj_cui": pd.Series(dtype=object),
                    "n": pd.Series(dtype="int64"),
                }
            )
        m = pd.concat(frames, ignore_index=True)
        s = m["cui_x"].map(comp).to_numpy()
        o = m["cui_y"].map(comp).to_numpy()
        keep = s != o
        pred = predicate_for_vec(
            m["type_x"].to_numpy()[keep], m["type_y"].to_numpy()[keep]
        )
        return (
            pd.DataFrame({"subj_cui": s[keep], "pred": pred, "obj_cui": o[keep]})
            .groupby(["subj_cui", "pred", "obj_cui"], sort=False)
            .size()
            .reset_index(name="n")
        )

    parts = keyed_exchange(
        lm.map_batches(prep, batch_format="pyarrow"), ["conv_id"], per_conv, 16
    )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["subj_cui", "pred", "obj_cui"], sort=False)["n"]
            .sum()
            .reset_index(name="weight")
        )
        out["weight"] = out["weight"].astype("int64")
        return out[["subj_cui", "pred", "obj_cui", "weight"]]

    return keyed_exchange(parts, ["subj_cui", "pred", "obj_cui"], combine, 8)


KG_DELTA_PCT = 20  # conversations with md5 coin >= 80 form the ingest delta
KG_EDGE_BUCKETS = 16  # hive buckets of the persisted base edge table


def _kg_conv_coin(conv_ids, memo: dict) -> np.ndarray:
    """Deterministic per-conversation md5 coin in [0, 100) — the split
    between the persisted base corpus and the ingest delta. Memoized per
    batch (conversations repeat across their turns)."""
    from .kernels.hashing import stable_u64_md5

    out = np.empty(len(conv_ids), dtype=np.int64)
    for i, c in enumerate(conv_ids):
        v = memo.get(c)
        if v is None:
            v = memo[c] = stable_u64_md5(f"kgsplit:{c}".encode("utf-8")) % 100
        out[i] = v
    return out


def _kg_split_annotations(sf_dir: str, delta: bool):
    """Annotation-cache rows for the base (coin < 100-KG_DELTA_PCT) or
    delta (coin >= threshold) conversation shard. The annotate pass is
    per-turn deterministic, so filtering the shared cache equals
    annotating the shard."""
    from .state.manifest import list_parquet_files

    ann_dir, rows = _annotations_cache(sf_dir)
    thr = 100 - KG_DELTA_PCT

    def filt(t: pa.Table) -> pa.Table:
        memo: dict = {}
        coin = _kg_conv_coin(t["conv_id"].to_pylist(), memo)
        mask = coin >= thr if delta else coin < thr
        return t.filter(pa.array(mask))

    ds = rd.read_parquet(
        list_parquet_files(ann_dir), columns=["conv_id", "turn_idx", "triples"]
    ).map_batches(filt, batch_format="pyarrow")
    return ds, rows


def _with_edge_bucket(df: pd.DataFrame) -> pd.DataFrame:
    from .kernels.hashing import stable_u64_md5

    h = np.fromiter(
        (
            stable_u64_md5(f"{s}|{p}|{o}".encode("utf-8"))
            for s, p, o in zip(df["subj_cui"], df["pred"], df["obj_cui"])
        ),
        dtype=np.uint64,
        count=len(df),
    )
    return df.assign(edge_bucket=(h % np.uint64(KG_EDGE_BUCKETS)).astype("int64"))


def _kg_base_edges_cache(sf_dir: str) -> str:
    """Persisted BASE edge table: canonical weighted edges of the base
    conversation shard, hive-bucketed on the stable md5 edge hash
    (1 file per bucket via a bucket-keyed exchange — the LSH-index
    layout lesson), manifest-guarded per fixture."""
    from .state import manifest as mf

    paths = _fixture(sf_dir)
    files = mf.list_parquet_files(paths["transcripts"])
    fp = mf.fingerprint("kg-base-edges-v1", mf.input_fingerprint(files))
    out = _query_cache_dir(paths["dir"], "kg_base_edges")
    if not mf.is_complete(out, fp):

        def build(tmp):
            ann, rows = _kg_split_annotations(sf_dir, delta=False)
            comp_ref = ray.put(canonical_components(rows))
            base = edges_stage(lambda: triples_stage(ann), comp_ref).map_batches(
                _with_edge_bucket, batch_format="pandas"
            )
            from .stages.exchange import keyed_exchange

            (
                keyed_exchange(base, ["edge_bucket"], lambda df: df, KG_EDGE_BUCKETS)
                .map_batches(
                    lambda t: t.replace_schema_metadata(None), batch_format="pyarrow"
                )
                .write_parquet(tmp, partition_cols=["edge_bucket"])
            )

        mf.run_stage("kg-base-edges", out, fp, build)
    return out


def kg_update_edges(sf_dir: str):
    """Incremental KG maintenance: upsert an ingest delta (20% of
    conversations by deterministic md5 coin) into the PERSISTED base
    edge table without recomputing the base — the doc_dedup_incremental
    pattern applied to the graph itself. The delta shard is annotated
    and reduced to canonical weighted edges (the same edges_stage shape
    as kg_edges), its ≤KG_EDGE_BUCKETS touched bucket ids reach the
    driver as a bounded aggregate, ONLY those hive buckets of the base
    table are read and merged (one edge-keyed exchange summing weights),
    and untouched buckets stream through as-is. Conversations partition
    the triple stream, so base+delta weights sum exactly to the full
    recompute — the oracle IS kg_edges' full-corpus SQL, making the
    no-recompute claim itself driver-checked."""
    from .state.manifest import list_parquet_files
    from .stages.exchange import keyed_exchange

    base_dir = _kg_base_edges_cache(sf_dir)
    ann, rows = _kg_split_annotations(sf_dir, delta=True)
    comp_ref = ray.put(canonical_components(rows))
    delta = (
        edges_stage(lambda: triples_stage(ann), comp_ref)
        .map_batches(_with_edge_bucket, batch_format="pandas")
        .materialize()  # consumed twice: touched-bucket probe + merge
    )
    touched = set(
        delta.map_batches(
            lambda df: pd.DataFrame({"edge_bucket": df["edge_bucket"].unique()}),
            batch_format="pandas",
        )
        .to_pandas()["edge_bucket"]
        .unique()
        .tolist()
    )

    cols = ["subj_cui", "pred", "obj_cui", "weight"]
    # group files per bucket dir: the exchange yields one file per
    # bucket today, but a future block split must not silently drop rows
    buckets: dict[int, list] = {}
    for f in list_parquet_files(base_dir):
        b = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        buckets.setdefault(b, []).append(f)
    touched_files = [f for b, fs in buckets.items() if b in touched for f in fs]
    untouched_files = [f for b, fs in buckets.items() if b not in touched for f in fs]

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = (
            df.groupby(["subj_cui", "pred", "obj_cui"], sort=False)["weight"]
            .sum()
            .reset_index()
        )
        out["weight"] = out["weight"].astype("int64")
        return out[cols]

    def as_pandas(ds):
        # block types must be uniform through union + the exchange sort
        return ds.map_batches(lambda df: df, batch_format="pandas")

    merged = delta.select_columns(cols)
    if touched_files:
        merged = merged.union(as_pandas(rd.read_parquet(touched_files, columns=cols)))
    merged = keyed_exchange(merged, ["subj_cui", "pred", "obj_cui"], combine, 8)
    if untouched_files:
        merged = merged.union(
            as_pandas(rd.read_parquet(untouched_files, columns=cols))
        )
    return merged


MM_FRAME_CHARS = 256  # fake-codec frame = 256 code points of the payload text


def mm_frame_dedup(sf_dir: str):
    """Cross-video duplicate-frame detection — the multimodal×dedup
    bridge: every video's frames get a content fingerprint and frames
    appearing in ≥2 DISTINCT videos surface as dedup groups (the
    image/video analogue of exact text dedup; with a real codec the
    fingerprint would be a perceptual hash from the decode actor pool,
    same plumbing). The fake codec defines frame i as code points
    [i·256, (i+1)·256) of the payload text (DuckDB has no BLOB
    substring, so the SQL replay uses character slicing — md5 of a
    varchar hashes its utf-8 bytes, matching hashlib on the encoded
    slice). Shape: row-local frame explode with per-batch (hash, doc)
    partials → ONE hash-keyed exchange → distinct-video count + total
    occurrences + min doc id, threshold applied in-cluster."""
    import hashlib

    from .stages.exchange import keyed_exchange
    from .stages.multimodal import MEDIA_TYPES

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def frames(t: pa.Table) -> pd.DataFrame:
        hs, docs, ns = [], [], []
        agg: dict = {}
        for doc_id, text in zip(t["doc_id"].to_pylist(), t["text"].to_pylist()):
            if MEDIA_TYPES[doc_id % 3] != "video" or not text:
                continue
            for i in range((len(text) - 1) // MM_FRAME_CHARS + 1):
                sl = text[i * MM_FRAME_CHARS : (i + 1) * MM_FRAME_CHARS]
                k = (hashlib.md5(sl.encode("utf-8")).hexdigest(), doc_id)
                agg[k] = agg.get(k, 0) + 1
        for (h, d), n in agg.items():
            hs.append(h)
            docs.append(d)
            ns.append(n)
        return pd.DataFrame(
            {
                "frame_md5": pd.array(hs, dtype=object),
                "doc_id": np.array(docs, dtype=np.int64),
                "n": np.array(ns, dtype=np.int64),
            }
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("frame_md5", sort=False)
            .agg(
                n_docs=("doc_id", "nunique"),
                n_frames=("n", "sum"),
                first_doc=("doc_id", "min"),
            )
            .reset_index()
        )
        g = g[g["n_docs"] >= 2]
        return g.astype(
            {"n_docs": "int64", "n_frames": "int64", "first_doc": "int64"}
        )[["frame_md5", "n_docs", "n_frames", "first_doc"]]

    return keyed_exchange(
        ds.map_batches(frames, batch_format="pyarrow"), ["frame_md5"], combine, 8
    )


def kg_node_provenance(sf_dir: str):
    """Node-level lineage, the companion of kg_edge_provenance: every
    canonical node carries its mention count, distinct supporting
    conversations, and first/last supporting timestamp. Same shape —
    the per-turn mention partials of ``_turn_partials`` (each with its
    turn's cached ``ts_us``) combine in one node-keyed exchange."""
    from .stages.exchange import keyed_exchange

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby("cui", sort=False)
            .agg(
                mention_count=("n", "sum"),
                n_convs=("conv_id", "nunique"),
                f=("ts_us", "min"),
                l=("ts_us", "max"),
            )
            .reset_index()
        )
        return pd.DataFrame(
            {
                "cui": g["cui"],
                "mention_count": g["mention_count"].astype("int64"),
                "n_convs": g["n_convs"].astype("int64"),
                "first_ts": g["f"].to_numpy(dtype="int64").astype("datetime64[us]"),
                "last_ts": g["l"].to_numpy(dtype="int64").astype("datetime64[us]"),
            }
        )

    return keyed_exchange(_turn_partials(sf_dir, "mentions"), ["cui"], final, 8)


KTRUSS_K = 4  # survivors need support (triangles per edge) >= K-2
KTRUSS_ROUNDS = 5  # fixpoint at round <= 4 on both test scales (asserted)


def part_ktruss(sf_dir: str):
    """K-truss decomposition of the md5-sparsified co-purchase graph —
    the edge-support analogue of part_kcore: each round counts the
    triangles through every surviving edge and drops edges with support
    < K-2, to a fixed-round bound (KTRUSS_ROUNDS, covering the measured
    fixpoint at both test scales; rounds end early once a pass drops
    nothing, which the monotone survivor count detects with one cheap
    count per round). Per round: adjacency explode → center-keyed wedge
    exchange (per-partition (a, b) pre-counts), then ONE pair-keyed
    exchange where wedge counts meet the edge marks — a wedge a-s-b
    closes iff (a, b) is an edge, and every triangle increments exactly
    its closing edge once per center, so the per-pair sum IS the global
    support. Output = surviving edges with their fixpoint support
    (round-for-round identical to the materialized-CTE SQL replay)."""
    from .stages.exchange import keyed_exchange

    thr = KTRUSS_K - 2
    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD).materialize()
    n_prev = edges.count()
    sup_ds = None

    def adj(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "n": np.concatenate([df["u"].to_numpy(), df["v"].to_numpy()]),
                "o": np.concatenate([df["v"].to_numpy(), df["u"].to_numpy()]),
            }
        )

    def wedges(df: pd.DataFrame) -> pd.DataFrame:
        m = df.merge(df, on="n")
        m = m[m["o_x"] < m["o_y"]]
        g = m.groupby(["o_x", "o_y"], sort=False).size().reset_index(name="cnt")
        return pd.DataFrame(
            {
                "a": g["o_x"].astype("int64"),
                "b": g["o_y"].astype("int64"),
                "cnt": g["cnt"].astype("int64"),
                "kind": np.int64(1),
            }
        )

    def marks(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "a": df["u"].astype("int64"),
                "b": df["v"].astype("int64"),
                "cnt": np.int64(0),
                "kind": np.int64(0),
            }
        )

    def closure(df: pd.DataFrame) -> pd.DataFrame:
        e = df.loc[df["kind"] == 0, ["a", "b"]]
        w = df.loc[df["kind"] == 1]
        g = w.groupby(["a", "b"], sort=False, as_index=False)["cnt"].sum()
        g = g.merge(e, on=["a", "b"], how="inner")
        g = g[g["cnt"] >= thr]
        return pd.DataFrame(
            {
                "u": g["a"].astype("int64"),
                "v": g["b"].astype("int64"),
                "support": g["cnt"].astype("int64"),
            }
        )

    for _ in range(KTRUSS_ROUNDS):
        w = keyed_exchange(edges.map_batches(adj, batch_format="pandas"), ["n"], wedges, 16)
        mk = edges.map_batches(marks, batch_format="pandas")
        sup_ds = keyed_exchange(w.union(mk), ["a", "b"], closure, 16).materialize()
        n_cur = sup_ds.count()
        edges = sup_ds.select_columns(["u", "v"])
        if n_cur == n_prev or n_cur == 0:
            break  # monotone survivor count unchanged -> fixpoint
        n_prev = n_cur

    return sup_ds.map_batches(
        lambda df: pd.DataFrame(
            {
                "part_u": df["u"].astype("int64"),
                "part_v": df["v"].astype("int64"),
                "support": df["support"].astype("int64"),
            }
        ),
        batch_format="pandas",
    )


def kg_role_transitions(sf_dir: str):
    """Role-transition matrix over agent transcripts (user→assistant→
    tool hand-off structure — the dialogue-dynamics signal an agent-
    transcript corpus is mined for). Skew-free pairing: every turn emits
    itself twice — once at its own (conv_id, turn_idx) and once shifted
    to (conv_id, turn_idx + 1) as the predecessor — and a hash exchange
    on the UNIFORM key (conv_id, turn_idx) matches each turn with its
    predecessor inside a vectorized merge (the kg_conv_turn_gaps
    pattern: no per-conversation hotspot because the partition key
    includes turn_idx). Each partition then reduces to (prev_role,
    role) partial counts — domain ≤ |roles|² — and one tiny keyed
    exchange combines them. First turns (no predecessor) are excluded,
    matching the SQL ``WHERE prev_role IS NOT NULL``."""
    from .stages.exchange import keyed_exchange

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        idx = df["turn_idx"].astype("int64")
        cur = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": idx,
                "role": df["role"],
                "is_prev": False,
            }
        )
        prev = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": idx + 1,
                "role": df["role"],
                "is_prev": True,
            }
        )
        return pd.concat([cur, prev], ignore_index=True)

    def pair_counts(df: pd.DataFrame) -> pd.DataFrame:
        cur = df[~df["is_prev"]]
        prev = df[df["is_prev"]][["conv_id", "turn_idx", "role"]].rename(
            columns={"role": "prev_role"}
        )
        m = cur.merge(prev, on=["conv_id", "turn_idx"], how="inner")
        return (
            m.groupby(["prev_role", "role"], sort=False)
            .size()
            .reset_index(name="n")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["prev_role", "role"], as_index=False)["n"].sum()
        return pd.DataFrame(
            {
                "prev_role": g["prev_role"].astype(str),
                "role": g["role"].astype(str),
                "n_transitions": g["n"].astype("int64"),
            }
        )

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "role"])
    paired = keyed_exchange(
        ds.map_batches(emit, batch_format="pandas"),
        ["conv_id", "turn_idx"],
        pair_counts,
        num_partitions=8,
    )
    return keyed_exchange(paired, ["prev_role", "role"], combine, num_partitions=8)


BFS_SEED_MOD = 64  # node joins the seed set iff md5('bfs:'||node) % MOD == 0
BFS_ROUNDS = 4  # fixed frontier-expansion rounds (level = hop distance <= ROUNDS)


def part_bfs_levels(sf_dir: str, broadcast_limit: int = LP_BROADCAST_LIMIT):
    """Multi-source BFS levels (hop distance from a deterministic seed
    set) over the md5-sparsified co-purchase graph — the reachability /
    influence-radius primitive (label propagation, taint tracking, seed
    expansion all reduce to it). Seeds: nodes whose ``bfs:`` md5 coin
    hits (SQL-replayable, the DOULION coin pattern). Exactly BFS_ROUNDS
    rounds with early exit on an empty frontier — the same bounded-round
    contract as part_kcore, so the unrolled materialized-CTE oracle
    replays round-for-round.

    Two physical tiers (the part_label_prop pattern): below
    ``broadcast_limit`` the CURRENT FRONTIER is broadcast per round
    (bounded by the part dimension) and one pass over the pinned edge
    set emits frontier neighbors, deduped by a node-keyed exchange and
    level-assigned on the driver. Past the budget the EXCHANGE tier
    keeps frontier and seen-set as distributed datasets: per round one
    side-tagged node-keyed exchange expands neighbors, a second
    subtracts the seen set — the driver sees only the frontier count.
    Bit-identical levels (forced-fallback pytest). Only
    frontier-adjacent edges produce exchange rows; the edge set itself
    never reshuffles."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD).materialize()
    P = _xparts(sf_dir, "lineitem")
    if 2 * edges.count() > broadcast_limit:
        return _bfs_exchange_tier(edges, P)
    nodes = _copurchase_degrees(edges, P)["node"].to_numpy()
    coin = np.fromiter(
        (stable_u64_md5(f"bfs:{n}".encode("utf-8")) for n in nodes),
        dtype=np.uint64,
        count=len(nodes),
    )
    frontier = np.sort(nodes[coin % np.uint64(BFS_SEED_MOD) == 0])
    levels = {int(n): 0 for n in frontier}

    for r in range(1, BFS_ROUNDS + 1):
        if not len(frontier):
            break
        fref = ray.put(frontier)

        def nbrs(df: pd.DataFrame, fref=fref) -> pd.DataFrame:
            f = resolve(fref)
            u = df["u"].to_numpy()
            v = df["v"].to_numpy()
            out = np.concatenate([v[np.isin(u, f)], u[np.isin(v, f)]])
            return pd.DataFrame({"node": np.unique(out).astype("int64")})

        nxt = keyed_exchange(
            edges.map_batches(nbrs, batch_format="pandas"),
            ["node"],
            lambda df: df.drop_duplicates(),
            num_partitions=8,
        ).to_pandas()
        cand = nxt["node"].to_numpy(dtype="int64") if len(nxt) else np.array([], dtype="int64")
        new = np.sort(cand[~np.isin(cand, np.fromiter(levels, dtype=np.int64, count=len(levels)))])
        for n in new:
            levels[int(n)] = r
        frontier = new

    if not levels:
        return pd.DataFrame(
            {"part_id": pd.Series(dtype="int64"), "level": pd.Series(dtype="int64")}
        )
    items = sorted(levels.items())
    return pd.DataFrame(
        {
            "part_id": pd.Series([k for k, _ in items], dtype="int64"),
            "level": pd.Series([v for _, v in items], dtype="int64"),
        }
    )


def _bfs_exchange_tier(edges, P: int):
    """Exchange tier of part_bfs_levels (see its docstring): frontier
    and seen-set stay distributed; per round one side-tagged node-keyed
    exchange expands frontier neighbors over the pinned edges and a
    second subtracts the seen set. Driver traffic = one count/round."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    def seeds_partial(df: pd.DataFrame) -> pd.DataFrame:
        node = np.unique(
            np.concatenate(
                [df["u"].to_numpy(dtype=np.int64), df["v"].to_numpy(dtype=np.int64)]
            )
        )
        coin = np.fromiter(
            (stable_u64_md5(f"bfs:{n}".encode("utf-8")) for n in node),
            dtype=np.uint64,
            count=len(node),
        )
        return pd.DataFrame({"node": node[coin % np.uint64(BFS_SEED_MOD) == 0]})

    seeds = keyed_exchange(
        edges.map_batches(seeds_partial, batch_format="pandas"),
        ["node"],
        lambda df: df.drop_duplicates().astype({"node": "int64"}),
        P,
    )
    frontier = seeds.map_batches(
        lambda df: df.assign(level=np.int64(0)), batch_format="pandas"
    ).materialize()
    seen = frontier

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=np.int64)
        v = df["v"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key": np.concatenate([u, v]),
                "other": np.concatenate([v, u]),
            }
        )

    edges_tagged = edges.map_batches(tag_edges, batch_format="pandas")

    for r in range(1, BFS_ROUNDS + 1):
        if frontier.count() == 0:
            break

        def expand(df: pd.DataFrame) -> pd.DataFrame:
            is_f = df["other"].to_numpy() < 0
            fkeys = set(df.loc[is_f, "key"].tolist())
            ed = df[~is_f]
            out = np.unique(
                ed.loc[ed["key"].isin(fkeys), "other"].to_numpy(dtype=np.int64)
            )
            return pd.DataFrame({"node": out})

        fmark = frontier.map_batches(
            lambda df: pd.DataFrame(
                {"key": df["node"].to_numpy(dtype=np.int64)}
            ).assign(other=np.int64(-1)),
            batch_format="pandas",
        )
        cand = keyed_exchange(edges_tagged.union(fmark), ["key"], expand, P)

        def subtract(df: pd.DataFrame, r=r) -> pd.DataFrame:
            is_seen = df["level"].to_numpy() >= 0
            seen_keys = set(df.loc[is_seen, "node"].tolist())
            new = df.loc[~is_seen & ~df["node"].isin(seen_keys), "node"]
            return pd.DataFrame(
                {
                    "node": new.drop_duplicates().to_numpy(dtype=np.int64),
                    "level": np.int64(r),
                }
            )

        tagged = cand.map_batches(
            lambda df: df.assign(level=np.int64(-1)), batch_format="pandas"
        ).union(seen)
        frontier = keyed_exchange(tagged, ["node"], subtract, P).materialize()
        seen = seen.union(frontier).materialize()

    out = seen.to_pandas().sort_values("node")
    return pd.DataFrame(
        {
            "part_id": out["node"].astype("int64").to_numpy(),
            "level": out["level"].astype("int64").to_numpy(),
        }
    )


BM25_QUERIES: dict[str, tuple[str, ...]] = {
    "hash_join": ("hash", "join", "batch"),
    "window_stream": ("window", "agg", "stream"),
    "scan_filter": ("scan", "filter", "vector"),
    "orders": ("customer", "order", "line", "table"),
}
BM25_TOPK = 10
BM25_K1_MILLI = 1200  # k1 = 1.2
BM25_B_MILLI = 750  # b = 0.75


def _bm25_query_setup():
    import re as _re

    terms = sorted({t for ts in BM25_QUERIES.values() for t in ts})
    pats = {t: _re.compile(rf"(?<!\w){_re.escape(t)}(?!\w)") for t in terms}
    return terms, pats


def _bm25_corpus_stats(ds, terms, pats):
    """ONE streaming stats pass shared by doc_bm25_topk/doc_rrf_fusion:
    per-block partials bounded by the static term set, driver combine,
    returns (idf_micro per term, avgdl_milli)."""

    def stats_partial(batch: pa.Table) -> pd.DataFrame:
        low = pd.Series(batch["text"].to_pylist(), dtype="object").str.lower()
        dl = low.str.count(r"\w+").to_numpy(dtype=np.int64)
        rows = {"key": ["__n__", "__tot__"], "val": [np.int64(len(low)), dl.sum()]}
        for t in terms:
            tf = low.str.count(pats[t]).to_numpy(dtype=np.int64)
            rows["key"].append(t)
            rows["val"].append(np.int64((tf > 0).sum()))
        return pd.DataFrame(rows)

    st = (
        ds.map_batches(stats_partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("key", as_index=False)["val"]
        .sum()
    )
    kv = dict(zip(st["key"], st["val"].astype("int64")))
    n_docs = int(kv["__n__"])
    avgdl_milli = (1000 * int(kv["__tot__"])) // max(n_docs, 1)
    dfs = {t: int(kv.get(t, 0)) for t in terms}
    idf = {t: (1_000_000 * (n_docs - dfs[t] + 1)) // (dfs[t] + 1) for t in terms}
    return idf, avgdl_milli


def _bm25_batch_scores(batch, terms, pats, idf_, avgdl_):
    """Per-batch fixed-point scoring kernel shared by doc_bm25_topk and
    doc_rrf_fusion — the single home of the BM25/TF-IDF integer
    arithmetic that the SQL replays (_bm25_sql/_rrf_sql) mirror
    term-for-term. Returns (doc_ids, {qid: bm25_micro}, {qid:
    tfidf_micro})."""
    k1, b = BM25_K1_MILLI, BM25_B_MILLI
    low = pd.Series(batch["text"].to_pylist(), dtype="object").str.lower()
    doc_ids = np.asarray(batch["doc_id"].to_pylist(), dtype=np.int64)
    dl = low.str.count(r"\w+").to_numpy(dtype=np.int64)
    ratio_milli = (dl * 1_000_000) // max(avgdl_, 1)
    norm_milli = ((1000 - b) * 1000 + b * ratio_milli) // 1000
    tfs = {t: low.str.count(pats[t]).to_numpy(dtype=np.int64) for t in terms}
    bm25: dict = {}
    tfidf: dict = {}
    for qid, qterms in BM25_QUERIES.items():
        sb = np.zeros(len(doc_ids), dtype=np.int64)
        st_ = np.zeros(len(doc_ids), dtype=np.int64)
        for t in qterms:
            tf = tfs[t]
            denom = tf * 1000 + (k1 * norm_milli) // 1000
            sb += np.where(
                tf > 0, (idf_[t] * (tf * (k1 + 1000))) // np.maximum(denom, 1), 0
            )
            st_ += tf * idf_[t]
        bm25[qid] = sb
        tfidf[qid] = st_
    return doc_ids, bm25, tfidf


def doc_bm25_topk(sf_dir: str):
    """Sparse-retrieval top-k (BM25 family) — the lexical search scan a
    training-data pipeline runs for targeted corpus slicing and RAG-eval
    set construction. Integer-exact variant: the log idf is replaced by
    the monotone rational proxy ``idf_micro = 1e6·(N−df+1) // (df+1)``
    and the tf saturation / length normalization keep BM25's exact shape
    in milli fixed point (k1 = 1.2, b = 0.75), so every score is a
    BIGINT both engines compute identically (the emb_quantize lesson:
    integer ops, never float rounding).

    Shape — ZERO shuffles: the query-term set is static and tiny, so
    pass 1 streams per-block partials (per-term document frequency via a
    vectorized token-boundary ``str.count``, block token totals) that
    the driver combines (bounded by #terms); pass 2 re-streams the
    corpus row-local with the broadcast (df, avgdl, N) stats and keeps a
    per-block top-k per query — the driver merges #blocks·|Q|·k partial
    rows (the ann_topk partial-top-k pattern). Both passes prune the
    read to (doc_id, text)."""
    terms, pats = _bm25_query_setup()
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    idf, avgdl_milli = _bm25_corpus_stats(ds, terms, pats)
    bc = ray.put((idf, avgdl_milli))

    def score_topk(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        idf_, avgdl_ = resolve(bc)
        doc_ids, bm25, _ = _bm25_batch_scores(batch, terms, pats, idf_, avgdl_)
        out = []
        for qid in BM25_QUERIES:
            score = bm25[qid]
            keep = score > 0
            if not keep.any():
                continue
            order = np.lexsort((doc_ids[keep], -score[keep]))[:BM25_TOPK]
            out.append(
                pd.DataFrame(
                    {
                        "query_id": qid,
                        "doc_id": doc_ids[keep][order],
                        "score_micro": score[keep][order],
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {
                    "query_id": pd.Series(dtype="object"),
                    "doc_id": pd.Series(dtype="int64"),
                    "score_micro": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)

    partials = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    if not len(partials):
        return pd.DataFrame(
            {
                "query_id": pd.Series(dtype="object"),
                "doc_id": pd.Series(dtype="int64"),
                "rank": pd.Series(dtype="int64"),
                "score_micro": pd.Series(dtype="int64"),
            }
        )
    partials = partials.sort_values(
        ["query_id", "score_micro", "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    top = partials.groupby("query_id", sort=True).head(BM25_TOPK)
    top = top.assign(rank=top.groupby("query_id").cumcount() + 1)
    return pd.DataFrame(
        {
            "query_id": top["query_id"].astype(str),
            "doc_id": top["doc_id"].astype("int64"),
            "rank": top["rank"].astype("int64"),
            "score_micro": top["score_micro"].astype("int64"),
        }
    ).reset_index(drop=True)


RW_SEED_MOD = 16  # node starts a walk iff md5('rw:'||node) % MOD == 0
RW_STEPS = 4  # steps taken (positions emitted = RW_STEPS + 1)
RW_ADJ_BUCKETS = 16  # hive buckets of the ranked-adjacency cache


def _adjacency_rank_cache(sf_dir: str) -> str:
    """Manifest-guarded ranked adjacency of the md5-sparsified
    co-purchase graph, hive-bucketed by ``stable_md5('rwb:'||node) %
    RW_ADJ_BUCKETS`` (environment-independent, the LSH-index lesson):
    one file per bucket, columns (node, nbr, rank, deg) with rank =
    0-based position of nbr in the node's ascending neighbor list.
    Built once per fixture; every random-walk step then reads ONLY the
    buckets its frontier touches (the doc_dedup_incremental pattern)."""
    from .state import manifest as mf

    path = os.path.join(sf_dir, "lineitem.parquet")
    fp = mf.fingerprint(
        f"rwadj-v1:{TRI_SAMPLE_MOD}:{RW_ADJ_BUCKETS}", mf.input_fingerprint([path])
    )
    out = _query_cache_dir(sf_dir, "rw_adjacency")
    if not mf.is_complete(out, fp):

        def build(tmp):
            from .kernels.hashing import stable_u64_md5
            from .stages.exchange import keyed_exchange

            edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD)

            def both(df: pd.DataFrame) -> pd.DataFrame:
                u = df["u"].to_numpy()
                v = df["v"].to_numpy()
                node = np.concatenate([u, v])
                nbr = np.concatenate([v, u])
                uniq = np.unique(node)
                bmap = {
                    int(n): stable_u64_md5(f"rwb:{n}".encode("utf-8"))
                    % RW_ADJ_BUCKETS
                    for n in uniq
                }
                return pd.DataFrame(
                    {
                        "node": node.astype("int64"),
                        "nbr": nbr.astype("int64"),
                        "bucket": np.fromiter(
                            (bmap[int(n)] for n in node),
                            dtype=np.int64,
                            count=len(node),
                        ),
                    }
                )

            def rank_within(df: pd.DataFrame) -> pd.DataFrame:
                df = df.sort_values(["node", "nbr"], kind="mergesort")
                g = df.groupby("node", sort=False)
                return df.assign(
                    rank=g.cumcount().astype("int64"),
                    deg=g["nbr"].transform("size").astype("int64"),
                )

            keyed_exchange(
                edges.map_batches(both, batch_format="pandas"),
                ["bucket"],
                rank_within,
                RW_ADJ_BUCKETS,
            ).write_parquet(tmp, partition_cols=["bucket"])

        mf.run_stage("rw-adjacency", out, fp, build)
    return out


def part_random_walks(sf_dir: str):
    """Deterministic random-walk corpus over the sampled co-purchase
    graph — the DeepWalk/node2vec sentence generator a graph-embedding
    training pipeline feeds into SGNS (pipelines/embeddings.py). One
    walk per md5-gated seed node; at step s from node c the walk moves
    to the neighbor at index ``md5('rw:'||walk||':'||s||':'||c) %
    deg(c)`` in c's ascending neighbor list — a pure function of
    (walk, step, node), so the SQL oracle replays every hop exactly and
    a killed run recomputes identical walks.

    Shape: the ranked adjacency is a per-fixture hive-bucketed cache
    (built once, `_adjacency_rank_cache`); each step broadcasts the
    frontier picks (walk count is node-dimension-bounded — the k-core
    alive-set argument) and streams ONLY the touched adjacency buckets
    through a row-local merge: no shuffle at any step, read volume =
    touched buckets, not the graph. Degrees ride the driver-held
    degree table."""
    from .kernels.hashing import stable_u64_md5
    from .state.broadcast import resolve

    adj_dir = _adjacency_rank_cache(sf_dir)
    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD)
    degdf = _copurchase_degrees(edges, _xparts(sf_dir, "lineitem"))
    deg = dict(zip(degdf["node"].astype(int), degdf["n"].astype(int)))

    seeds = sorted(
        n
        for n in deg
        if stable_u64_md5(f"rw:{n}".encode("utf-8")) % RW_SEED_MOD == 0
    )
    rows = [(int(s), 0, int(s)) for s in seeds]
    cur = {int(s): int(s) for s in seeds}  # walk_id -> current node

    for s in range(RW_STEPS):
        if not cur:
            break
        picks = pd.DataFrame(
            {
                "walk_id": np.fromiter(cur.keys(), dtype=np.int64, count=len(cur)),
                "node": np.fromiter(cur.values(), dtype=np.int64, count=len(cur)),
            }
        )
        idx = np.fromiter(
            (
                stable_u64_md5(f"rw:{w}:{s}:{c}".encode("utf-8")) % deg[c]
                for w, c in zip(picks["walk_id"], picks["node"])
            ),
            dtype=np.int64,
            count=len(picks),
        )
        picks = picks.assign(rank=idx)
        touched = sorted(
            {
                stable_u64_md5(f"rwb:{c}".encode("utf-8")) % RW_ADJ_BUCKETS
                for c in picks["node"]
            }
        )
        files = []
        for b in touched:
            d = os.path.join(adj_dir, f"bucket={b}")
            if os.path.isdir(d):
                files += sorted(
                    os.path.join(d, f)
                    for f in os.listdir(d)
                    if f.endswith(".parquet")
                )
        pref = ray.put(picks)

        def step_merge(df: pd.DataFrame, pref=pref) -> pd.DataFrame:
            p = resolve(pref)
            m = p.merge(df[["node", "rank", "nbr"]], on=["node", "rank"], how="inner")
            return m[["walk_id", "nbr"]]

        nxt = (
            rd.read_parquet(files, columns=["node", "rank", "nbr"])
            .map_batches(step_merge, batch_format="pandas")
            .to_pandas()
        )
        cur = dict(
            zip(nxt["walk_id"].astype(int), nxt["nbr"].astype(int))
        )
        rows += [(int(w), s + 1, int(n)) for w, n in sorted(cur.items())]

    if not rows:
        return pd.DataFrame(
            {
                "walk_id": pd.Series(dtype="int64"),
                "step": pd.Series(dtype="int64"),
                "node": pd.Series(dtype="int64"),
            }
        )
    out = pd.DataFrame(rows, columns=["walk_id", "step", "node"]).sort_values(
        ["walk_id", "step"], ignore_index=True
    )
    return out.astype({"walk_id": "int64", "step": "int64", "node": "int64"})


def _kg_edges_frame(sf_dir: str) -> pd.DataFrame:
    """Canonical weighted edge table as a driver frame — bounded by the
    node dimension (not the corpus), the same broadcast-small argument
    as the kg_edges component map."""
    return (
        kg_edges(sf_dir)
        .to_pandas()
        .sort_values(["subj_cui", "pred", "obj_cui"], ignore_index=True)
    )


def kg_transe_weights(sf_dir: str):
    """The DISTRIBUTED TransE training loop itself, driver-checked
    (pipelines/kg_embeddings.py — margin SGD with L1 subgradients and
    md5-deterministic negatives over the engine's OWN canonical edge
    table): the encoded edges are pinned once, each of the TE_EPOCHS
    full-batch steps maps the pinned blocks and merges one dense int64
    gradient partial per block on the driver (the quality-classifier
    trainer contract). All gradient math is integer and
    order-independent, so the returned embedding kv is BIT-EXACT equal
    to the sequential reference trainer — exactly what the oracle (the
    artifact's weights kv) asserts."""
    from .pipelines.kg_embeddings import (
        encode_edges,
        train_distributed,
        vocab_from_edges,
        weights_table,
    )
    from .state.broadcast import resolve

    edges = _kg_edges_frame(sf_dir)
    nodes, preds = vocab_from_edges(edges)
    vref = ray.put((nodes, preds))

    def encode(df: pd.DataFrame) -> pd.DataFrame:
        n_, p_ = resolve(vref)
        return encode_edges(df, n_, p_)

    enc_ds = kg_edges(sf_dir).map_batches(encode, batch_format="pandas")
    E, R = train_distributed(enc_ds, nodes, preds)
    return rd.from_arrow(weights_table(E, R, nodes, preds))


def kg_transe_ranks(sf_dir: str):
    """Link-prediction evaluation of the trained TransE checkpoint: for
    every canonical edge (s, p, o), the rank of the true object among
    ALL candidate nodes by (L1 distance asc, label asc). Serving shape:
    the checkpoint (built once per fixture by the sequential reference
    trainer, the artifact pattern) is BROADCAST, candidates are bounded
    by the node dimension, and ranking is row-local per edge batch — at
    a 10⁸-node KG the candidate sweep becomes the ANN top-k scan
    (ann_topk_quant) over the same embedding table. Oracle recomputes
    every rank IN SQL from the artifact kv — value-exact integer
    distances."""
    from .pipelines.kg_embeddings import (
        ensure_transe_artifacts,
        load_weights,
        rank_frame,
    )
    from .state.broadcast import resolve

    arts = ensure_transe_artifacts(sf_dir, lambda: _kg_edges_frame(sf_dir))
    ref = ray.put(load_weights(arts["weights"]))

    def score(df: pd.DataFrame) -> pd.DataFrame:
        E, R, nodes, preds = resolve(ref)
        return rank_frame(df, E, R, nodes, preds)

    return kg_edges(sf_dir).map_batches(score, batch_format="pandas")


def kg_response_latency(sf_dir: str):
    """Assistant response-latency profile per conversation — for every
    adjacent user→assistant turn pair, the timestamp gap; aggregated to
    (n_responses, sum_gap_us, max_gap_us) per conversation. All-integer
    outputs (epoch-µs), so the window-lag SQL oracle is value-exact.
    Same skew-free shape as kg_role_transitions: the shifted-emit
    exchange pairs each turn with its predecessor on the UNIFORM
    (conv_id, turn_idx) key, partitions reduce pairs to per-conv
    partials, and one conversation-keyed exchange combines (a hot
    conversation ships #blocks partial rows, never its turns)."""
    from .stages.exchange import keyed_exchange

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        idx = df["turn_idx"].astype("int64")
        ts_us = pd.Series(df["ts"].values.astype("datetime64[us]").astype("int64"))
        cur = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": idx,
                "role": df["role"],
                "ts_us": ts_us,
                "is_prev": False,
            }
        )
        prev = pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": idx + 1,
                "role": df["role"],
                "ts_us": ts_us,
                "is_prev": True,
            }
        )
        return pd.concat([cur, prev], ignore_index=True)

    def pair_partial(df: pd.DataFrame) -> pd.DataFrame:
        cur = df[~df["is_prev"]]
        prev = df[df["is_prev"]][["conv_id", "turn_idx", "role", "ts_us"]].rename(
            columns={"role": "prev_role", "ts_us": "prev_us"}
        )
        m = cur.merge(prev, on=["conv_id", "turn_idx"], how="inner")
        m = m[(m["prev_role"] == "user") & (m["role"] == "assistant")]
        if not len(m):
            return pd.DataFrame(
                {
                    "conv_id": pd.Series(dtype="object"),
                    "n_responses": pd.Series(dtype="int64"),
                    "sum_gap_us": pd.Series(dtype="int64"),
                    "max_gap_us": pd.Series(dtype="int64"),
                }
            )
        gap = m["ts_us"].to_numpy() - m["prev_us"].to_numpy()
        g = (
            pd.DataFrame({"conv_id": m["conv_id"], "gap": gap})
            .groupby("conv_id", sort=False)["gap"]
            .agg(n_responses="size", sum_gap_us="sum", max_gap_us="max")
            .reset_index()
        )
        return g.astype(
            {"n_responses": "int64", "sum_gap_us": "int64", "max_gap_us": "int64"}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("conv_id", as_index=False).agg(
            n_responses=("n_responses", "sum"),
            sum_gap_us=("sum_gap_us", "sum"),
            max_gap_us=("max_gap_us", "max"),
        )
        return g.astype(
            {"n_responses": "int64", "sum_gap_us": "int64", "max_gap_us": "int64"}
        )

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "role", "ts"])
    paired = keyed_exchange(
        ds.map_batches(emit, batch_format="pandas"),
        ["conv_id", "turn_idx"],
        pair_partial,
        num_partitions=8,
    )
    return keyed_exchange(paired, ["conv_id"], combine, num_partitions=8)


TOPIC_JACC_THRESH_MICRO = 100_000  # boundary iff jaccard < 0.1


def kg_topic_boundaries(sf_dir: str):
    """Dialogue topic-shift segmentation — for every adjacent turn pair
    in a conversation, the Jaccard similarity of the two turns' DISTINCT
    lowercased token sets (the app tokenizer, M1); a pair is a segment
    boundary when ``jacc_micro = 1e6·|A∩B| // |A∪B|`` falls below
    TOPIC_JACC_THRESH_MICRO. All-integer outputs, so the explode +
    self-join SQL oracle is value-exact.

    Shape — ONE exchange on the uniform (conv_id, pair_idx) key: each
    turn row (a turn's text never spans rows) emits its distinct token
    set twice, as the `cur` side of its own pair and the `prev` side of
    the next pair, plus two zero-width marker rows so pairs whose sides
    have ZERO tokens are still distinguishable from pairs whose sides
    don't exist. Every group is fully co-located after the exchange, so
    intersection/cardinalities reduce in-partition with vectorized
    merges — a hot conversation spreads across partitions by turn."""
    from .kernels.tokenize import TOKEN_RE
    from .stages.exchange import keyed_exchange

    from .kernels.hashing import stable_u64_md5

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        # side codes: 0=prev token, 1=cur token, 2=cur marker, 3=prev marker.
        # Tokens ship as md5-u64 HASHES, not strings: both engines hash
        # with the same function (stable_u64_md5 == md5_number_lower),
        # so set cardinalities/intersections are engine-identical by
        # construction and the exchange rows shrink to fixed width.
        df = df.reset_index(drop=True)
        ex = df["text"].str.findall(TOKEN_RE).explode().dropna().str.lower()
        d = pd.DataFrame(
            {"row": ex.index.to_numpy(), "w": ex.to_numpy()}
        ).drop_duplicates()
        # one md5 per DISTINCT token per batch (the decontamination memo)
        uniq, inv = np.unique(d["w"].to_numpy(), return_inverse=True)
        hs = np.fromiter(
            (stable_u64_md5(u.encode("utf-8")) for u in uniq),
            dtype=np.uint64,
            count=len(uniq),
        ).view(np.int64)
        wh = hs[inv]
        conv = df["conv_id"].to_numpy()
        ti = df["turn_idx"].to_numpy().astype(np.int64)
        r = d["row"].to_numpy()
        out = pd.concat(
            [
                pd.DataFrame(
                    {"conv_id": conv[r], "p": ti[r], "side": np.int8(1), "w": wh}
                ),
                pd.DataFrame(
                    {"conv_id": conv[r], "p": ti[r] + 1, "side": np.int8(0), "w": wh}
                ),
                pd.DataFrame(
                    {"conv_id": conv, "p": ti, "side": np.int8(2), "w": np.int64(0)}
                ),
                pd.DataFrame(
                    {"conv_id": conv, "p": ti + 1, "side": np.int8(3), "w": np.int64(0)}
                ),
            ],
            ignore_index=True,
        )
        return out.astype({"p": "int64", "side": "int8", "w": "int64"})

    def pair_reduce(df: pd.DataFrame) -> pd.DataFrame:
        empty = pd.DataFrame(
            {
                "conv_id": pd.Series(dtype="object"),
                "turn_idx": pd.Series(dtype="int32"),
                "n_prev": pd.Series(dtype="int64"),
                "n_cur": pd.Series(dtype="int64"),
                "n_inter": pd.Series(dtype="int64"),
                "jacc_micro": pd.Series(dtype="int64"),
                "is_boundary": pd.Series(dtype="int64"),
            }
        )
        if not len(df):
            return empty
        key = ["conv_id", "p"]
        # a pair exists iff BOTH the cur turn and the prev turn exist
        valid = df.loc[df["side"] == 2, key].merge(
            df.loc[df["side"] == 3, key], on=key
        )
        if not len(valid):
            return empty
        cur = df[df["side"] == 1]
        prev = df[df["side"] == 0]
        n_cur = cur.groupby(key, sort=False).size().rename("n_cur").reset_index()
        n_prev = prev.groupby(key, sort=False).size().rename("n_prev").reset_index()
        inter = (
            cur[key + ["w"]]
            .merge(prev[key + ["w"]], on=key + ["w"])
            .groupby(key, sort=False)
            .size()
            .rename("n_inter")
            .reset_index()
        )
        out = (
            valid.merge(n_prev, on=key, how="left")
            .merge(n_cur, on=key, how="left")
            .merge(inter, on=key, how="left")
            .fillna(0)
        )
        np_ = out["n_prev"].to_numpy(dtype=np.int64)
        nc = out["n_cur"].to_numpy(dtype=np.int64)
        ni = out["n_inter"].to_numpy(dtype=np.int64)
        union = np_ + nc - ni
        jacc = np.where(union > 0, (1_000_000 * ni) // np.maximum(union, 1), 0)
        return pd.DataFrame(
            {
                "conv_id": out["conv_id"],
                "turn_idx": out["p"].astype("int32"),
                "n_prev": np_,
                "n_cur": nc,
                "n_inter": ni,
                "jacc_micro": jacc.astype("int64"),
                "is_boundary": (jacc < TOPIC_JACC_THRESH_MICRO).astype("int64"),
            }
        )

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])
    return keyed_exchange(
        ds.map_batches(emit, batch_format="pandas"),
        ["conv_id", "p"],
        pair_reduce,
        num_partitions=8,
    )


LP_ROUNDS = 4  # fixed synchronous label-propagation rounds


def part_label_prop(sf_dir: str, broadcast_limit: int = LP_BROADCAST_LIMIT):
    """Community detection by synchronous label propagation (Raghavan
    et al. 2007, the deterministic mode-of-neighbors variant: highest
    neighbor-label count wins, ties break to the SMALLEST label) over
    the md5-sparsified co-purchase graph. Exactly LP_ROUNDS synchronous
    rounds — every round-r label is a pure function of round-(r-1)
    labels, so the unrolled materialized-CTE oracle replays the loop
    round-for-round (the part_kcore / part_bfs_levels contract) and the
    result is partitioning-independent by construction.

    Two physical tiers (the doc_tfidf_top_terms pattern):

    - BROADCAST (node dimension ≤ ``broadcast_limit``): edges are
      materialized once and never reshuffle; per round the node→label
      map is broadcast and collected; one pass over the edges emits
      map-side-combined (node, neighbor-label) counts, and ONE
      node-keyed exchange reduces them to the per-node mode.
    - EXCHANGE (past the budget): NO per-round driver collect or
      broadcast. Labels live as a distributed (node, lbl) dataset; each
      round side-tags label rows into the doubled edge stream, ONE
      node-keyed exchange co-locates every edge occurrence of a node
      with its label row (the minhash-verify side-tag idiom), votes are
      emitted toward the neighbor, and a second node-keyed exchange
      reduces the mode. 2 exchanges × LP_ROUNDS over O(E) rows, driver
      traffic zero until the final result collect — the shape that
      survives 10⁹⁺-node graphs."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    edges = _copurchase_edges(sf_dir, mod=TRI_SAMPLE_MOD).materialize()
    P = _xparts(sf_dir, "lineitem")

    def mode_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["node", "lbl"], sort=False, as_index=False)["c"].sum()
        g = g.sort_values(["node", "c", "lbl"], ascending=[True, False, True])
        top = g.drop_duplicates("node", keep="first")
        return top[["node", "lbl"]].astype({"node": "int64", "lbl": "int64"})

    # Tier pick from a metadata-cheap upper bound (2·|E| ≥ |V|): never
    # collects the node set just to decide how to avoid collecting it.
    if 2 * edges.count() > broadcast_limit:
        return _label_prop_exchange_tier(edges, P, mode_reduce)

    nodes = np.sort(_copurchase_degrees(edges, P)["node"].to_numpy(dtype=np.int64))
    if not len(nodes):
        return pd.DataFrame(
            {"part_id": pd.Series(dtype="int64"), "community": pd.Series(dtype="int64")}
        )
    labels = nodes.copy()  # l0: every node labels itself

    for _ in range(LP_ROUNDS):
        lref = ray.put((nodes, labels))

        def vote(df: pd.DataFrame, lref=lref) -> pd.DataFrame:
            key, val = resolve(lref)
            u = df["u"].to_numpy(dtype=np.int64)
            v = df["v"].to_numpy(dtype=np.int64)
            lu = val[np.searchsorted(key, u)]
            lv = val[np.searchsorted(key, v)]
            node = np.concatenate([u, v])
            lbl = np.concatenate([lv, lu])
            # map-side combiner: one row per distinct (node, lbl) per batch
            g = (
                pd.DataFrame({"node": node, "lbl": lbl})
                .groupby(["node", "lbl"], sort=False)
                .size()
                .rename("c")
                .reset_index()
            )
            return g.astype({"node": "int64", "lbl": "int64", "c": "int64"})

        nxt = keyed_exchange(
            edges.map_batches(vote, batch_format="pandas"),
            ["node"],
            mode_reduce,
            num_partitions=8,
        ).to_pandas()
        nxt = nxt.sort_values("node")
        # every node has >=1 edge by construction, so the vote covers all
        labels = nxt["lbl"].to_numpy(dtype=np.int64)
        nodes = nxt["node"].to_numpy(dtype=np.int64)

    return pd.DataFrame(
        {
            "part_id": pd.Series(nodes, dtype="int64"),
            "community": pd.Series(labels, dtype="int64"),
        }
    )


def _label_prop_exchange_tier(edges, P: int, mode_reduce):
    """Label-keyed exchange tier of part_label_prop (see its docstring):
    distributed (node, lbl) state, two node-keyed exchanges per round,
    zero driver traffic until the result collect. Bit-identical to the
    broadcast tier: the vote multiset per node is the same either way,
    and the shared ``mode_reduce`` applies the same deterministic
    (count desc, label asc) tie-break."""
    from .stages.exchange import keyed_exchange

    def nodes_init(df: pd.DataFrame) -> pd.DataFrame:
        n = np.unique(
            np.concatenate(
                [df["u"].to_numpy(dtype=np.int64), df["v"].to_numpy(dtype=np.int64)]
            )
        )
        return pd.DataFrame({"node": n, "lbl": n})

    lab = keyed_exchange(
        edges.map_batches(nodes_init, batch_format="pandas"),
        ["node"],
        lambda df: df.drop_duplicates("node").astype({"node": "int64", "lbl": "int64"}),
        num_partitions=P,
    )

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=np.int64)
        v = df["v"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key": np.concatenate([u, v]),
                "other": np.concatenate([v, u]),
                "lbl": np.full(2 * len(u), -1, dtype=np.int64),
            }
        )

    def tag_labels(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "key": df["node"].to_numpy(dtype=np.int64),
                "other": np.full(len(df), -1, dtype=np.int64),
                "lbl": df["lbl"].to_numpy(dtype=np.int64),
            }
        )

    def attach_votes(df: pd.DataFrame) -> pd.DataFrame:
        """One co-located partition: every edge occurrence of a key plus
        its single label row → (neighbor, key's label) vote counts."""
        is_lab = df["lbl"].to_numpy() >= 0
        labs = df[is_lab]
        ed = df[~is_lab]
        m = pd.Series(
            labs["lbl"].to_numpy(dtype=np.int64),
            index=labs["key"].to_numpy(dtype=np.int64),
        )
        votes = pd.DataFrame(
            {
                "node": ed["other"].to_numpy(dtype=np.int64),
                "lbl": m.reindex(ed["key"].to_numpy(dtype=np.int64)).to_numpy(
                    dtype=np.int64
                ),
            }
        )
        g = votes.groupby(["node", "lbl"], sort=False).size().rename("c").reset_index()
        return g.astype({"node": "int64", "lbl": "int64", "c": "int64"})

    edges_tagged = edges.map_batches(tag_edges, batch_format="pandas")
    for _ in range(LP_ROUNDS):
        tagged = edges_tagged.union(
            lab.map_batches(tag_labels, batch_format="pandas")
        )
        votes = keyed_exchange(tagged, ["key"], attach_votes, num_partitions=P)
        lab = keyed_exchange(votes, ["node"], mode_reduce, num_partitions=P)

    out = lab.to_pandas().sort_values("node")
    return pd.DataFrame(
        {
            "part_id": pd.Series(out["node"].to_numpy(dtype=np.int64), dtype="int64"),
            "community": pd.Series(out["lbl"].to_numpy(dtype=np.int64), dtype="int64"),
        }
    )


RRF_K_CONST = 60  # the standard RRF damping constant (Cormack SIGIR'09)
RRF_TOPK = 10


def doc_rrf_fusion(sf_dir: str):
    """Hybrid-retrieval fusion: reciprocal-rank fusion (RRF, Cormack et
    al. SIGIR'09) of two retrieval systems over the same query set —
    BM25 (saturated, length-normalized) and plain TF·IDF (no length
    norm), both in the integer fixed point of doc_bm25_topk so every
    intermediate is a BIGINT the SQL oracle recomputes identically.
    ``rrf_micro = Σ_sys 1e6 // (60 + rank_sys)`` over each system's
    top-BM25_TOPK list (absent ⇒ 0 contribution, rank reported as 0).

    Shape — the doc_bm25_topk template, still ZERO shuffles: one
    stats pass (per-block df/token-total partials, driver combine
    bounded by the static term set), then ONE corpus pass computes BOTH
    scores per block and keeps a per-(system, query) partial top-k; the
    driver merges blocks·2·|Q|·k rows, assigns global per-system ranks,
    and fuses."""
    terms, pats = _bm25_query_setup()
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
    idf, avgdl_milli = _bm25_corpus_stats(ds, terms, pats)
    bc = ray.put((idf, avgdl_milli))

    def score_topk(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        idf_, avgdl_ = resolve(bc)
        doc_ids, bm25s, tfidfs = _bm25_batch_scores(batch, terms, pats, idf_, avgdl_)
        out = []
        for qid in BM25_QUERIES:
            for sysname, score in (("bm25", bm25s[qid]), ("tfidf", tfidfs[qid])):
                keep = score > 0
                if not keep.any():
                    continue
                order = np.lexsort((doc_ids[keep], -score[keep]))[:BM25_TOPK]
                out.append(
                    pd.DataFrame(
                        {
                            "sys": sysname,
                            "query_id": qid,
                            "doc_id": doc_ids[keep][order],
                            "score_micro": score[keep][order],
                        }
                    )
                )
        if not out:
            return pd.DataFrame(
                {
                    "sys": pd.Series(dtype="object"),
                    "query_id": pd.Series(dtype="object"),
                    "doc_id": pd.Series(dtype="int64"),
                    "score_micro": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)

    partials = ds.map_batches(score_topk, batch_format="pyarrow").to_pandas()
    empty = pd.DataFrame(
        {
            "query_id": pd.Series(dtype="object"),
            "doc_id": pd.Series(dtype="int64"),
            "rank": pd.Series(dtype="int64"),
            "rrf_micro": pd.Series(dtype="int64"),
            "bm25_rank": pd.Series(dtype="int64"),
            "tfidf_rank": pd.Series(dtype="int64"),
        }
    )
    if not len(partials):
        return empty
    partials = partials.sort_values(
        ["sys", "query_id", "score_micro", "doc_id"],
        ascending=[True, True, False, True],
        kind="mergesort",
    )
    top = partials.groupby(["sys", "query_id"], sort=True).head(BM25_TOPK)
    top = top.assign(rank=top.groupby(["sys", "query_id"]).cumcount() + 1)
    top["rr"] = 1_000_000 // (RRF_K_CONST + top["rank"].to_numpy(dtype=np.int64))
    wide = top.pivot_table(
        index=["query_id", "doc_id"],
        columns="sys",
        values=["rank", "rr"],
        aggfunc="first",
        fill_value=0,
    )
    wide.columns = [f"{a}_{s}" for a, s in wide.columns]
    wide = wide.reset_index()
    for c in ("rank_bm25", "rank_tfidf", "rr_bm25", "rr_tfidf"):
        if c not in wide.columns:
            wide[c] = 0
    wide["rrf_micro"] = (
        wide["rr_bm25"].to_numpy(dtype=np.int64)
        + wide["rr_tfidf"].to_numpy(dtype=np.int64)
    )
    wide = wide.sort_values(
        ["query_id", "rrf_micro", "doc_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    fused = wide.groupby("query_id", sort=True).head(RRF_TOPK)
    fused = fused.assign(rank=fused.groupby("query_id").cumcount() + 1)
    return pd.DataFrame(
        {
            "query_id": fused["query_id"].astype(str),
            "doc_id": fused["doc_id"].astype("int64"),
            "rank": fused["rank"].astype("int64"),
            "rrf_micro": fused["rrf_micro"].astype("int64"),
            "bm25_rank": fused["rank_bm25"].astype("int64"),
            "tfidf_rank": fused["rank_tfidf"].astype("int64"),
        }
    ).reset_index(drop=True)


STRAT_N_PER_SOURCE = 15  # stratified sample size per source stratum


def doc_stratified_topn(sf_dir: str):
    """Deterministic stratified sampling — exactly min(N, stratum size)
    documents per source, chosen by ascending ``md5('strat:'||doc_id)``
    (a seeded uniform permutation both engines replay), tie-broken by
    doc_id. The per-stratum quota is the standard eval-set / per-domain
    subsample primitive; the md5 order makes the pick partitioning- and
    retry-independent (the doc_source_mix coin discipline, but with an
    EXACT per-stratum count instead of a rate).

    Shape — ZERO shuffles: sources are a bounded domain, so each block
    keeps its local top-N per source (smallest hashes) and the driver
    merges blocks·|sources|·N candidate rows to the global per-stratum
    top-N."""
    from .kernels.hashing import stable_u64_md5

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "source"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype=np.int64)
        h = np.fromiter(
            (stable_u64_md5(f"strat:{d}".encode("utf-8")) for d in ids),
            dtype=np.uint64,
            count=len(ids),
        )
        out = pd.DataFrame({"source": df["source"].to_numpy(), "doc_id": ids, "h": h})
        out = out.sort_values(["source", "h", "doc_id"], kind="mergesort")
        return out.groupby("source", sort=False).head(STRAT_N_PER_SOURCE)

    cand = ds.map_batches(partial, batch_format="pandas").to_pandas()
    if not len(cand):
        return pd.DataFrame(
            {
                "source": pd.Series(dtype="object"),
                "doc_id": pd.Series(dtype="int64"),
                "strat_rank": pd.Series(dtype="int64"),
            }
        )
    cand = cand.sort_values(["source", "h", "doc_id"], kind="mergesort")
    top = cand.groupby("source", sort=True).head(STRAT_N_PER_SOURCE)
    top = top.assign(strat_rank=top.groupby("source").cumcount() + 1)
    return pd.DataFrame(
        {
            "source": top["source"].astype(str),
            "doc_id": top["doc_id"].astype("int64"),
            "strat_rank": top["strat_rank"].astype("int64"),
        }
    ).reset_index(drop=True)


CTX_TOKEN_BUDGET = 150  # context-window token budget per conversation
CTX_BUCKET = 8  # turns per prefix-sum bucket (phase-1 partition grain)


def kg_context_window(sf_dir: str):
    """Context-window assembly — the chat-serving/training primitive:
    walking each conversation's turns from the LAST backwards, a turn is
    kept iff the cumulative token count through it (inclusive) fits
    CTX_TOKEN_BUDGET. Emits every turn with its token count, its
    suffix-cumulative total, and the keep flag — all integers, so the
    window-SUM SQL oracle is value-exact.

    Shape — the events_running_total two-phase scan flipped to a SUFFIX
    sum, hot-key safe (a conversation may span partitions): (1) exchange
    on (conv_id, turn-bucket) → bucket-local descending cumsum + one
    total row per bucket; (2) bucket totals exchange on the conversation
    → exclusive suffix offsets (vectorized cumsum-shift over buckets
    DESC); (3) offsets union the row stream back through the same
    (conv_id, bucket) exchange and add. Work per partition is bounded by
    the bucket, and every phase is a vectorized pandas kernel."""
    from .kernels.tokenize import TOKEN_RE
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "text"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        ti = df["turn_idx"].astype("int64")
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": ti,
                "bucket": ti // CTX_BUCKET,
                "n_tokens": df["text"].str.count(TOKEN_RE).astype("int64"),
            }
        )

    def local_scan(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["conv_id", "bucket", "turn_idx"],
            ascending=[True, True, False],
            kind="mergesort",
        ).reset_index(drop=True)
        df = df.assign(
            local_cum=df.groupby(["conv_id", "bucket"], sort=False)[
                "n_tokens"
            ].cumsum()
        )
        totals = (
            df.groupby(["conv_id", "bucket"], sort=False, as_index=False)["n_tokens"]
            .sum()
            .assign(turn_idx=np.int64(-1), local_cum=np.int64(0))
        )
        return pd.concat([df, totals[df.columns.tolist()]], ignore_index=True)

    scanned = keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"),
        ["conv_id", "bucket"],
        local_scan,
        num_partitions=8,
    ).materialize()

    def offsets_part(df: pd.DataFrame) -> pd.DataFrame:
        df = (
            df.groupby(["conv_id", "bucket"], sort=False, as_index=False)["n_tokens"]
            .sum()
            .sort_values(
                ["conv_id", "bucket"], ascending=[True, False], kind="mergesort"
            )
            .reset_index(drop=True)
        )
        # exclusive SUFFIX offset: total tokens of all LATER buckets
        off = df.groupby("conv_id", sort=False)["n_tokens"].cumsum() - df["n_tokens"]
        return df.assign(offset=off)[["conv_id", "bucket", "offset"]]

    totals = scanned.map_batches(
        lambda df: df.loc[df["turn_idx"] == -1, ["conv_id", "bucket", "n_tokens"]],
        batch_format="pandas",
    )
    offsets = keyed_exchange(totals, ["conv_id"], offsets_part, num_partitions=8)

    rows = scanned.map_batches(
        lambda df: df.loc[df["turn_idx"] != -1].assign(offset=np.int64(0)),
        batch_format="pandas",
    )
    off_rows = offsets.map_batches(
        lambda df: df.assign(
            turn_idx=np.int64(-1), n_tokens=np.int64(0), local_cum=np.int64(0)
        )[["conv_id", "turn_idx", "bucket", "n_tokens", "local_cum", "offset"]],
        batch_format="pandas",
    )

    def apply_offset(df: pd.DataFrame) -> pd.DataFrame:
        offs = df.loc[df["turn_idx"] == -1, ["conv_id", "bucket", "offset"]]
        r = df.loc[df["turn_idx"] != -1].drop(columns=["offset"])
        m = r.merge(offs, on=["conv_id", "bucket"], how="left")
        cum = (
            m["local_cum"].to_numpy(dtype="int64")
            + m["offset"].fillna(0).to_numpy(dtype="int64")
        )
        return pd.DataFrame(
            {
                "conv_id": m["conv_id"],
                "turn_idx": m["turn_idx"].to_numpy(dtype="int32"),
                "n_tokens": m["n_tokens"].to_numpy(dtype="int64"),
                "cum_from_end": cum,
                "kept": (cum <= CTX_TOKEN_BUDGET).astype("int64"),
            }
        )

    return keyed_exchange(
        rows.union(off_rows), ["conv_id", "bucket"], apply_offset, num_partitions=8
    )


DRIFT_K = 30  # corpus top-K terms that define the drift fingerprint


def doc_source_drift(sf_dir: str):
    """Per-source distribution drift — the training-mix monitoring op:
    for each source, the L1 distance (micro units) between its
    term-share vector and the corpus term-share vector over the corpus
    top-DRIFT_K terms: ``drift_micro = Σ_t |1e6·O_st // T_s −
    1e6·C_t // T|``. Shares are floor-divided integers, so the SQL
    oracle recomputes every addend exactly (the emb_quantize lesson).

    ASCII tokenization contract (the kernels/tokenize.py convention):
    the pandas side tokenizes with Python ``re`` ``\\w+`` (Unicode word
    chars) while the oracle uses DuckDB/RE2 ``\\w+`` (ASCII-only); the
    engines agree because the fixture corpus is ASCII — a non-ASCII
    corpus must pin both sides to an explicit class like
    ``[0-9A-Za-z_]+`` before the counts can be compared.

    Shape — no corpus-scale shuffle AND no vocab-scale driver stream:
    one word-keyed exchange fully co-locates each word, so every
    partition can compute exact per-word totals locally and emit ONLY
    its local top-K candidate words (with their per-source counts) —
    the global top-K is a subset of the union of partition top-Ks, so
    the driver merges ≤ partitions·K·|sources| rows. Per-source token
    totals ride the SAME pass as marker rows (one per source per
    block), so the corpus is scanned and tokenized exactly once.
    Sources with zero word tokens are absent by definition (both
    engines agree: the oracle's token-stream inner join)."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["source", "text"])

    def word_partial(df: pd.DataFrame) -> pd.DataFrame:
        """(word, source, n) counts PLUS one marker row (w='') per
        source carrying the block's token total — totals ride the same
        pass/exchange, so the corpus is scanned and tokenized ONCE.
        Sources whose documents contain zero word tokens emit nothing
        and are absent from the result — matching the SQL oracle's
        inner join on the token stream (documented semantics: drift is
        defined only for sources with measurable text)."""
        ws = df["text"].str.lower().str.findall(r"\w+")
        ex = ws.explode().dropna()
        src = df["source"].reindex(ex.index)
        g = (
            pd.DataFrame({"w": ex.to_numpy(), "source": src.to_numpy()})
            .groupby(["w", "source"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        tot = g.groupby("source", as_index=False)["n"].sum().assign(w="")
        return pd.concat([g, tot[g.columns.tolist()]], ignore_index=True)

    def topk_candidates(df: pd.DataFrame) -> pd.DataFrame:
        """Partition-local exact reduce: every row of a word hashes to
        the same partition, so per-word totals here are GLOBAL totals;
        keep only this partition's top-K words' rows. Marker rows
        (w='') pass through as per-source total partials, flagged with
        wn = -1."""
        marks = df[df["w"] == ""]
        rest = df[df["w"] != ""]
        g = rest.groupby(["w", "source"], as_index=False)["n"].sum()
        wt = g.groupby("w", as_index=False)["n"].sum().rename(columns={"n": "wn"})
        wt = wt.sort_values(["wn", "w"], ascending=[False, True], kind="mergesort")
        out = g.merge(wt.head(DRIFT_K), on="w")
        if len(marks):
            mt = marks.groupby("source", as_index=False)["n"].sum()
            out = pd.concat(
                [out, mt.assign(w="", wn=np.int64(-1))[out.columns.tolist()]],
                ignore_index=True,
            )
        return out

    cand = keyed_exchange(
        ds.map_batches(word_partial, batch_format="pandas"),
        ["w"],
        topk_candidates,
        num_partitions=8,
    ).to_pandas()

    if len(cand):
        per_src = (
            cand[cand["w"] == ""]
            .groupby("source", as_index=False)["n"]
            .sum()
        )
        t_s = dict(zip(per_src["source"], per_src["n"].astype(int)))
        t_corpus = int(per_src["n"].sum())
        cand = cand[cand["w"] != ""]

    if not len(cand):
        return pd.DataFrame(
            {
                "source": pd.Series(dtype="object"),
                "drift_micro": pd.Series(dtype="int64"),
                "n_tokens": pd.Series(dtype="int64"),
            }
        )
    wt = cand[["w", "wn"]].drop_duplicates()
    top = wt.sort_values(["wn", "w"], ascending=[False, True], kind="mergesort").head(
        DRIFT_K
    )
    c_t = dict(zip(top["w"], top["wn"].astype(int)))
    obs = cand[cand["w"].isin(set(top["w"]))]
    o = {(s, w): int(n) for s, w, n in zip(obs["source"], obs["w"], obs["n"])}

    rows = []
    for s in sorted(t_s):
        drift = 0
        for w in top["w"]:
            share_s = (1_000_000 * o.get((s, w), 0)) // max(t_s[s], 1)
            share_c = (1_000_000 * c_t[w]) // max(t_corpus, 1)
            drift += abs(share_s - share_c)
        rows.append((s, drift, t_s[s]))
    return pd.DataFrame(
        rows, columns=["source", "drift_micro", "n_tokens"]
    ).astype({"drift_micro": "int64", "n_tokens": "int64"})


BURST_FACTOR = 2  # burst day iff day count > FACTOR x user's mean daily count


def events_burst_days(sf_dir: str):
    """Per-user burst-day detection — the activity-anomaly monitor a
    training-data/abuse pipeline runs over event streams: a (user, day)
    is a burst when its event count exceeds BURST_FACTOR × the user's
    mean daily count over their active days, gated by the integer
    cross-multiplication ``n_events · n_days > FACTOR · user_total``
    (no division anywhere, so the SQL oracle is value-exact). Days are
    epoch-day integers.

    Shape — two uniform keyed exchanges, no broadcast: per-block
    (user, day) count partials reduce on the (user, day) key, then ONE
    user-keyed exchange co-locates a user's day rows and applies the
    totals + gate in-partition (a user's day count is bounded by the
    calendar, so no hot-key risk)."""
    from .stages.exchange import keyed_exchange

    ds = rd.read_parquet(
        os.path.join(sf_dir, "events.parquet"), columns=["user_id", "ts"]
    )

    def day_partial(df: pd.DataFrame) -> pd.DataFrame:
        day = (
            df["ts"].to_numpy().astype("datetime64[us]").astype("int64")
            // 86_400_000_000
        )
        g = (
            pd.DataFrame({"user_id": df["user_id"].to_numpy(), "day": day})
            .groupby(["user_id", "day"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        return g.astype({"user_id": "int64", "day": "int64", "n": "int64"})

    counts = keyed_exchange(
        ds.map_batches(day_partial, batch_format="pandas"),
        ["user_id", "day"],
        lambda df: df.groupby(["user_id", "day"], as_index=False)["n"].sum(),
        num_partitions=8,
    )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("user_id", sort=False)["n"].transform("sum")
        nd = df.groupby("user_id", sort=False)["n"].transform("size")
        keep = df["n"] * nd > BURST_FACTOR * tot
        out = df.loc[keep].assign(user_total=tot[keep], n_days=nd[keep])
        return pd.DataFrame(
            {
                "user_id": out["user_id"].astype("int64"),
                "day": out["day"].astype("int64"),
                "n_events": out["n"].astype("int64"),
                "user_total": out["user_total"].astype("int64"),
                "n_days": out["n_days"].astype("int64"),
            }
        )

    return keyed_exchange(counts, ["user_id"], gate, num_partitions=8)


def kg_pagerank(sf_dir: str):
    """Node importance over the engine's OWN canonical KG — integer
    fixed-point PageRank (stages/pagerank.py, bit-exact vs the unrolled
    SQL oracle) on the SYMMETRIZED canonical edge set (both directions
    of every subj↔obj pair, predicates collapsed), satisfying the
    stage's symmetric-graph precondition. The edge table is bounded by
    the node DIMENSION (the _kg_edges_frame broadcast-small argument),
    so the label↔id map is a driver-side bijection; the rank loop runs
    through the shared pagerank stage (small-graph path at test scale,
    pinned-block distributed path beyond the threshold)."""
    from .stages.pagerank import pagerank_int

    edges = _kg_edges_frame(sf_dir)
    a = edges["subj_cui"].to_numpy()
    b = edges["obj_cui"].to_numpy()
    und = pd.DataFrame(
        {
            "src": np.concatenate([a, b]),
            "dst": np.concatenate([b, a]),
        }
    ).drop_duplicates()
    labels = np.array(sorted(set(und["src"])))
    lid = {l: i for i, l in enumerate(labels)}
    e = pd.DataFrame(
        {
            "src": und["src"].map(lid).astype("int64"),
            "dst": und["dst"].map(lid).astype("int64"),
        }
    )
    pr = (
        pagerank_int(
            rd.from_pandas(e), iterations=PAGERANK_ITERS, num_partitions=8
        )
        .to_pandas()
        .sort_values("node", ignore_index=True)
    )
    return pd.DataFrame(
        {
            "node_label": labels[pr["node"].to_numpy()],
            "pr_score": pr["pr_score"].astype("int64"),
        }
    )


def kg_edge_lift(sf_dir: str):
    """KG edge confidence scoring — association strength of each
    canonical edge as integer LIFT: ``lift_micro = 1e6·w·W //
    (m_s·m_o)`` where w is the edge weight, W the total edge weight,
    and m_x the summed weight incident to endpoint x (the PMI-family
    measure without the log, so every value is a BIGINT both engines
    compute identically). Distinguishes systematically co-mentioned
    node pairs from pairs that co-occur only because both are frequent
    — the edge-pruning signal downstream of kg_edges.

    Shape: the canonical edge table is bounded by the node dimension
    (the _kg_edges_frame / kg_transe argument), so marginals and the
    row-local lift are vectorized driver arithmetic over the already-
    distributed kg_edges output; at corpus-scale node sets the marginal
    becomes one endpoint-keyed exchange + broadcast map."""
    edges = _kg_edges_frame(sf_dir)
    if not len(edges):
        return pd.DataFrame(
            {
                "subj_cui": pd.Series(dtype="object"),
                "pred": pd.Series(dtype="object"),
                "obj_cui": pd.Series(dtype="object"),
                "weight": pd.Series(dtype="int64"),
                "lift_micro": pd.Series(dtype="int64"),
            }
        )
    w = edges["weight"].to_numpy(dtype=np.int64)
    total = int(w.sum())
    marg = (
        pd.DataFrame(
            {
                "node": np.concatenate(
                    [edges["subj_cui"].to_numpy(), edges["obj_cui"].to_numpy()]
                ),
                "w": np.concatenate([w, w]),
            }
        )
        .groupby("node")["w"]
        .sum()
    )
    m_s = marg.reindex(edges["subj_cui"]).to_numpy(dtype=np.int64)
    m_o = marg.reindex(edges["obj_cui"]).to_numpy(dtype=np.int64)
    # Exact Python-int arithmetic: 10⁶·w·total overflows int64 once
    # w·total ≥ ~9.2e12 (sf≈100 edge weights) and numpy would WRAP
    # silently where the DuckDB oracle raises on BIGINT overflow —
    # arbitrary-precision ints keep the engines agreeing at any scale,
    # with an explicit guard where the RESULT leaves int64 range (then
    # both engines fail loudly rather than diverge). The edges frame is
    # the bounded canonical-edge domain, so the Python loop is off the
    # hot path.
    lift = [
        (1_000_000 * int(wi) * total) // (int(ms) * int(mo))
        for wi, ms, mo in zip(w, m_s, m_o)
    ]
    if lift and max(lift) >= 2**63:
        raise OverflowError("lift_micro exceeds int64 (oracle BIGINT) range")
    return pd.DataFrame(
        {
            "subj_cui": edges["subj_cui"],
            "pred": edges["pred"],
            "obj_cui": edges["obj_cui"],
            "weight": w,
            "lift_micro": pd.array(lift, dtype="int64"),
        }
    )


def kg_snapshot_edges(sf_dir: str):
    """Temporal-KG snapshot — the canonical edge table AS OF the corpus
    mid-point: only triples whose supporting turn timestamp is ≤
    ``cutoff = (min_ts + max_ts) // 2`` (epoch-µs integers, so both
    engines derive the same cutoff from the same two exact aggregates)
    contribute. The time-travel primitive of a continuously-ingested
    KG: diffing this against kg_edges gives edge churn over the second
    half of the corpus.

    Shape — one min/max aggregate over the annotation cache's ``ts_us``
    gives the cutoff; the per-turn edge partials (``_turn_partials``)
    then meet in one edge-keyed combine that keeps the pre-cutoff turns
    and yields (weight, n_convs)."""
    from .stages.exchange import keyed_exchange

    mn_us, mx_us = _corpus_minmax_us(sf_dir)
    cutoff = (mn_us + mx_us) // 2

    def final(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df[df["ts_us"] <= cutoff]
            .groupby(_EDGE, sort=False)
            .agg(weight=("n", "sum"), n_convs=("conv_id", "nunique"))
            .reset_index()
        )
        return g.astype({"weight": "int64", "n_convs": "int64"})

    return keyed_exchange(_turn_partials(sf_dir), _EDGE, final, 8)


PROFILE_COLS = ("doc_id", "text", "lang", "source", "n_chars")


def doc_profile(sf_dir: str):
    """Data-profiling audit — the schema-quality gate a 100 TB ingest
    runs before anything else: per column, row count, NULL count, and
    the EXACT distinct count. Distincts are counted over
    ``md5(CAST(value AS VARCHAR))`` on BOTH engines (the
    kg_topic_boundaries hash discipline), so the comparison is
    engine-identical by construction.

    Shape: per-block map-side dedup emits DISTINCT (column, value-hash)
    pairs; ONE exchange on (column, hash) co-locates every surviving
    pair, each partition counts its unique pairs per column, and the
    driver sums ≤ columns·partitions partial rows. NULL/row tallies are
    bounded per-block partials."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=list(PROFILE_COLS))

    def pairs(batch: pa.Table) -> pd.DataFrame:
        # Arrow-native stringification: an int64 column with NULLs stays
        # int64 (pandas would promote it to float64 per block, making
        # the same value hash as '7' here and '7.0' there — a CONFIRMED
        # distinct-count inflation), so cast-to-string here matches the
        # oracle's CAST(x AS VARCHAR) exactly.
        import pyarrow.compute as pc

        out = []
        for c in PROFILE_COLS:
            col = batch[c].combine_chunks()
            uniq = pc.unique(pc.cast(col.drop_null(), pa.string())).to_pylist()
            h = np.fromiter(
                (stable_u64_md5(u.encode("utf-8")) for u in uniq),
                dtype=np.uint64,
                count=len(uniq),
            ).view(np.int64)
            out.append(pd.DataFrame({"col": c, "h": h}))
        return pd.concat(out, ignore_index=True)

    def count_part(df: pd.DataFrame) -> pd.DataFrame:
        u = df.drop_duplicates()
        g = u.groupby("col", sort=False).size().rename("n_distinct").reset_index()
        return g.astype({"n_distinct": "int64"})

    dis = (
        keyed_exchange(
            ds.map_batches(pairs, batch_format="pyarrow"),
            ["col", "h"],
            count_part,
            num_partitions=8,
        )
        .to_pandas()
        .groupby("col", as_index=False)["n_distinct"]
        .sum()
    )

    def null_part(batch: pa.Table) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "col": list(PROFILE_COLS),
                "n_rows": np.int64(batch.num_rows),
                "n_null": [np.int64(batch[c].null_count) for c in PROFILE_COLS],
            }
        )

    nulls = (
        ds.map_batches(null_part, batch_format="pyarrow")
        .to_pandas()
        .groupby("col", as_index=False)[["n_rows", "n_null"]]
        .sum()
    )

    out = nulls.merge(dis, on="col", how="left").fillna(0)
    out = out.sort_values("col", ignore_index=True)
    return pd.DataFrame(
        {
            "col": out["col"].astype(str),
            "n_rows": out["n_rows"].astype("int64"),
            "n_null": out["n_null"].astype("int64"),
            "n_distinct": out["n_distinct"].astype("int64"),
        }
    )


def kg_edge_churn(sf_dir: str):
    """Temporal-KG churn — the CDC view between the mid-point snapshot
    (kg_snapshot_edges) and the full graph (kg_edges): per canonical
    edge, the weight accumulated in the second half of the corpus
    (``delta = weight_full − weight_snapshot``) and whether the edge is
    NEW (absent from the snapshot entirely). The monitoring signal a
    continuously-ingested KG alerts on.

    Shape — ONE pass, not two pipelines: the kg_snapshot_edges cutoff
    and per-turn edge partials, but the edge-keyed combine sums both
    the total and the pre-cutoff count, so (weight_full,
    weight_snapshot) come out together and the delta/new gate is
    row-local."""
    from .stages.exchange import keyed_exchange

    mn_us, mx_us = _corpus_minmax_us(sf_dir)
    cutoff = (mn_us + mx_us) // 2

    def final(df: pd.DataFrame) -> pd.DataFrame:
        df = df.assign(n_snap=df["n"] * (df["ts_us"] <= cutoff))
        g = df.groupby(_EDGE, sort=False)[["n", "n_snap"]].sum().reset_index()
        delta = (g["n"] - g["n_snap"]).astype("int64")
        out = g[delta > 0]
        return pd.DataFrame(
            {
                "subj_cui": out["subj_cui"],
                "pred": out["pred"],
                "obj_cui": out["obj_cui"],
                "weight_delta": delta[delta > 0],
                "is_new": (out["n_snap"] == 0).astype("int64"),
            }
        )

    return keyed_exchange(_turn_partials(sf_dir), _EDGE, final, 8)


def kg_turn_dedup(sf_dir: str):
    """Cross-conversation duplicate-turn detection — the dialogue
    analogue of exact document dedup and the template/boilerplate
    signal in agent-transcript corpora: groups of byte-identical turn
    texts spanning ≥ 2 DISTINCT conversations, with their total turn
    count and conversation spread.

    Shape: each block emits one (hash, conv, text, n) partial per
    distinct (text, conversation) it holds (map-side combine), ONE
    hash-keyed exchange co-locates a text's partials, and the
    distinct-conversation gate applies in-partition — a viral template
    ships #blocks·#convs partials, never its turns."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "text"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        # NULL-text turns are excluded on BOTH sides (the oracle filters
        # text IS NOT NULL) — pandas groupby would silently drop them
        # here while SQL GROUP BY would group them, so the contract is
        # made explicit instead of dtype-accidental.
        df = df[df["text"].notna()]
        g = (
            df.groupby(["text", "conv_id"], sort=False)
            .size()
            .rename("n")
            .reset_index()
        )
        h = np.fromiter(
            (stable_u64_md5(t.encode("utf-8")) for t in g["text"]),
            dtype=np.uint64,
            count=len(g),
        ).view(np.int64)
        return g.assign(h=h).astype({"n": "int64"})

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        agg = (
            df.groupby("h", sort=False)
            .agg(
                text=("text", "first"),
                n_turns=("n", "sum"),
                n_convs=("conv_id", "nunique"),
            )
            .reset_index(drop=True)
        )
        out = agg[agg["n_convs"] >= 2]
        return pd.DataFrame(
            {
                "text": out["text"].astype(str),
                "n_turns": out["n_turns"].astype("int64"),
                "n_convs": out["n_convs"].astype("int64"),
            }
        )

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        ["h"],
        gate,
        num_partitions=8,
    )


CURATE_HEAD = 200
CURATE_SEED = 23


def doc_curation_pipeline(sf_dir: str):
    """Composed corpus-curation pipeline — the documents-side flagship,
    chaining three already-verified operators into the run a real
    training-data job executes as ONE dataflow: (1) the Gopher-style
    quantile quality gate (exact corpus-relative order-statistic
    thresholds), (2) exact dedup keep-first among survivors (min doc_id
    per identical text), (3) the deterministic seeded training order
    (md5 'global shuffle'), returning the first CURATE_HEAD positions.
    The composed SQL oracle replays all three stages, so the driver
    checks the INTEGRATION, not just the parts.

    Shape: the metrics pass carries the text hash, so text is read
    ONCE; the gate is a broadcast-threshold row-local filter; dedup is
    one hash-keyed exchange (min per group in-partition); the order is
    a range-partitioned distributed sort with a driver-bounded head —
    a full run would write_parquet the sorted stream instead."""
    from .stages.exchange import keyed_exchange

    mds, lo_tok, lo_swr = _quality_gate_setup(sf_dir, with_hash=True)

    def keep(batch: pa.Table) -> pa.Table:
        import pyarrow.compute as pc

        m = pc.and_(
            pc.greater_equal(batch["n_tokens"], pa.scalar(lo_tok, pa.int64())),
            pc.greater_equal(batch["swr_milli"], pa.scalar(lo_swr, pa.int64())),
        )
        return batch.filter(m).select(["doc_id", "n_tokens", "text_h"])

    kept = mds.map_batches(keep, batch_format="pyarrow")

    def keep_first(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["text_h", "doc_id"], kind="mergesort")
        return df.drop_duplicates("text_h", keep="first")[["doc_id", "n_tokens"]]

    surv = keyed_exchange(kept, ["text_h"], keep_first, num_partitions=8)

    def order_key(df: pd.DataFrame) -> pa.Table:
        ids = df["doc_id"].tolist()
        hi, lo = _md5_order_parts(ids, f"cur8:{CURATE_SEED}")
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(df["n_tokens"].tolist(), pa.int64()),
                "order_hi": pa.array(hi, pa.int64()),
                "order_key": pa.array(lo, pa.int64()),
            }
        )

    head = (
        surv.map_batches(order_key, batch_format="pandas")
        .sort(["order_hi", "order_key", "doc_id"])
        .limit(CURATE_HEAD)
        .to_pandas()
        .reset_index(drop=True)
    )
    head["order_idx"] = head.index.astype("int64")
    return head[["order_idx", "doc_id", "n_tokens"]].astype(
        {"doc_id": "int64", "n_tokens": "int64"}
    )


def doc_length_percentile(sf_dir: str):
    """Percentile-rank normalization — the score-calibration transform
    a mixing/filter stage applies before comparing heterogeneous
    corpora: each document's token count mapped to its corpus
    percentile ``pct_micro = 1e6 · |{docs: n_tokens < x}| // N``
    (strictly-less counting == SQL ``rank() − 1``, ties share the
    rank). All-integer, so the window-rank oracle is value-exact.

    Shape — ZERO shuffles (the doc_quantile_filter histogram trick):
    per-block value counts over the bounded token-count domain →
    driver combine → broadcast CDF → row-local gather. The CDF is
    domain-sized, never row-sized."""
    from .kernels.textstats import quality_features

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def metrics(batch: pa.Table) -> pa.Table:
        ids, ntok = [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ids.append(i)
            ntok.append(quality_features(t)["n_tokens"])
        return pa.table(
            {
                "doc_id": pa.array(ids, pa.int64()),
                "n_tokens": pa.array(ntok, pa.int64()),
            }
        )

    mds = ds.map_batches(metrics, batch_format="pyarrow").materialize()

    hist = (
        mds.map_batches(
            lambda df: df["n_tokens"].value_counts().rename_axis("v").reset_index(name="n"),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("v", as_index=False)["n"]
        .sum()
        .sort_values("v", ignore_index=True)
    )
    n_total = int(hist["n"].sum())
    vals = hist["v"].to_numpy(dtype=np.int64)
    cum_lt = np.concatenate([[0], hist["n"].to_numpy(dtype=np.int64).cumsum()[:-1]])
    bc = ray.put((vals, cum_lt, n_total))

    def pct(batch: pa.Table) -> pa.Table:
        from .state.broadcast import resolve

        vals_, cum_, n_ = resolve(bc)
        x = np.asarray(batch["n_tokens"].to_pylist(), dtype=np.int64)
        lt = cum_[np.searchsorted(vals_, x)]
        p = (1_000_000 * lt) // n_
        return pa.table(
            {
                "doc_id": batch["doc_id"],
                "n_tokens": batch["n_tokens"],
                "pct_micro": pa.array(p, pa.int64()),
            }
        )

    return mds.map_batches(pct, batch_format="pyarrow")


RERANK_CAND = 30  # coarse candidates per query fed to the exact re-rank


def ann_topk_rerank(sf_dir: str):
    """Two-stage retrieval — the production ANN pattern a compressed
    100 TB store actually serves: (1) COARSE scan over quantized codes
    (the ann_topk_quant centered-int8 dot products, exact int64) keeps
    the global top-RERANK_CAND candidates per query; (2) EXACT cosine
    re-ranks ONLY those candidates (float64, the ann_topk discipline)
    and returns the top-ANN_K. The coarse stage touches every vector at
    memory-bandwidth cost; the exact stage touches Q·RERANK_CAND rows
    via a pushed-down ``vec_id IN (...)`` read — never the corpus.

    Shape: coarse = per-block partial top-candidates merge (bounded
    blocks·Q·C rows to the driver); re-rank = bounded candidate fetch +
    vectorized driver matmul (Q·C·D flops)."""
    from .kernels.quantize import QUANT_ZERO, micro_matrix, quantize_codes

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    gmin, gmax = _emb_global_minmax(emb_path)
    qt = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    ).to_pandas()
    qt = qt[qt["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qt["vec_id"].to_numpy()
    qc = quantize_codes(micro_matrix(qt["embedding"].to_numpy()), gmin, gmax)
    q_ref = ray.put((qids, qc - QUANT_ZERO, gmin, gmax))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def coarse(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qcent, mn, mx = resolve(q_ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        cent = quantize_codes(micro_matrix(batch["embedding"].to_pylist()), mn, mx)
        cent -= QUANT_ZERO
        score = qcent @ cent.T
        rows = []
        k = min(RERANK_CAND + 1, score.shape[1])
        for qi, qid in enumerate(qids_):
            idx = np.lexsort((vids, -score[qi]))[:k]
            for j in idx:
                if vids[j] == qid:
                    continue
                rows.append((int(qid), int(vids[j]), int(score[qi, j])))
        return pd.DataFrame(rows, columns=["query_id", "neighbor_id", "s"]).astype(
            {"query_id": "int64", "neighbor_id": "int64", "s": "int64"}
        )

    partials = (
        ds.map_batches(coarse, batch_format="pyarrow", batch_size=2048).to_pandas()
    )
    partials = partials.sort_values(
        ["query_id", "s", "neighbor_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    cand = partials.groupby("query_id", sort=True).head(RERANK_CAND)
    empty = pd.DataFrame(
        {
            "query_id": pd.Series(dtype="int64"),
            "neighbor_id": pd.Series(dtype="int64"),
            "rank": pd.Series(dtype="int64"),
        }
    )
    if not len(cand):
        return empty

    cand_ids = sorted(set(cand["neighbor_id"].astype(int)))
    ct = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "in", cand_ids)],
    ).to_pandas()
    cm = np.stack(
        [np.asarray(x, dtype=np.float64) for x in ct["embedding"].to_numpy()]
    )
    cm = cm / np.linalg.norm(cm, axis=1, keepdims=True)
    cpos = {int(v): i for i, v in enumerate(ct["vec_id"])}
    qm = np.stack(
        [np.asarray(x, dtype=np.float64) for x in qt["embedding"].to_numpy()]
    )
    qm = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    qpos = {int(v): i for i, v in enumerate(qids)}

    qi = np.fromiter((qpos[int(q)] for q in cand["query_id"]), dtype=np.int64)
    ci = np.fromiter((cpos[int(v)] for v in cand["neighbor_id"]), dtype=np.int64)
    cos = np.einsum("ij,ij->i", qm[qi], cm[ci])
    rr = cand.assign(cos=cos).sort_values(
        ["query_id", "cos", "neighbor_id"],
        ascending=[True, False, True],
        kind="mergesort",
    )
    top = rr.groupby("query_id", sort=True).head(ANN_K)
    top = top.assign(rank=top.groupby("query_id").cumcount() + 1)
    return pd.DataFrame(
        {
            "query_id": top["query_id"].astype("int64"),
            "neighbor_id": top["neighbor_id"].astype("int64"),
            "rank": top["rank"].astype("int64"),
        }
    ).reset_index(drop=True)


# ---------------------------------------------------------------------------
# Label-aware kNN: contrastive hard-negative mining + kNN auto-labeling
# ---------------------------------------------------------------------------

HARDNEG_K = 5  # hard negatives mined per query
KNN_K = 10  # neighbourhood size for the kNN label vote


def _ann_label_scan(sf_dir: str, k: int, exclude_same_label: bool):
    """Shared label-aware brute-force scan (the ann_topk shape with the
    label column threaded through): broadcast query matrix+labels, per
    block a numpy matmul and a PREDICATE-MASKED partial top-k — the
    candidate stream stays O(blocks x Q x k) regardless of how selective
    the predicate is, because the mask applies before the partial cut."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding", "label"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    ).to_pandas()
    qt = qt[qt["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qt["vec_id"].to_numpy(dtype=np.int64)
    qlab = qt["label"].to_numpy(dtype=np.int64)
    qm = np.stack(qt["embedding"].to_numpy()).astype(np.float64)
    qn = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    ref = ray.put((qids, qlab, qn))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding", "label"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qlab_, qn_ = resolve(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype=np.int64)
        vlab = np.asarray(batch["label"].to_pylist(), dtype=np.int64)
        mat = np.stack(
            [np.asarray(x, dtype=np.float64) for x in batch["embedding"].to_pylist()]
        )
        mat = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        cos = qn_ @ mat.T  # [Q, B]
        rows = []
        for qi in range(len(qids_)):
            if exclude_same_label:
                idx = np.nonzero(vlab != qlab_[qi])[0]
            else:
                idx = np.nonzero(vids != qids_[qi])[0]
            if not len(idx):
                continue
            if len(idx) > k:
                idx = idx[np.argpartition(-cos[qi, idx], k - 1)[:k]]
            for j in idx:
                rows.append(
                    (
                        int(qids_[qi]),
                        int(qlab_[qi]),
                        int(vids[j]),
                        int(vlab[j]),
                        float(cos[qi, j]),
                    )
                )
        return pd.DataFrame(
            rows,
            columns=["query_id", "query_label", "neighbor_id", "neighbor_label", "cos"],
        )

    return ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)


def emb_hard_negatives(sf_dir: str):
    """Contrastive hard-negative mining (the retrieval-training data
    op: for each anchor, the most similar vectors with a DIFFERENT
    label are the hardest negatives for a triplet/InfoNCE batch).
    Top-HARDNEG_K by cosine among label<>anchor rows, deterministic
    (cos desc, neighbor_id asc) tie-break — the ann_topk discipline
    with a label predicate pushed inside the per-block partial."""
    parts = _ann_label_scan(sf_dir, HARDNEG_K + 1, exclude_same_label=True)

    def final(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(
            ["cos", "neighbor_id"], ascending=[False, True]
        ).head(HARDNEG_K)
        g = g.assign(rank=np.arange(1, len(g) + 1, dtype=np.int64))
        return g[["query_id", "rank", "neighbor_id", "neighbor_label"]].astype(
            "int64"
        )

    return _combine(parts, 4).groupby("query_id").map_groups(
        final, batch_format="pandas"
    )


def emb_knn_classify(sf_dir: str):
    """kNN auto-labeling (the semi-supervised data-labeling pass a
    curation pipeline runs to extend a small labeled seed set):
    majority label over the KNN_K nearest neighbours (self excluded),
    ties broken toward the smallest label id. Emits the vote count and
    a correctness flag against the held label, so the same query doubles
    as the label-quality audit. Same partial-top-k scan as ann_topk."""
    parts = _ann_label_scan(sf_dir, KNN_K + 1, exclude_same_label=False)

    def vote(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["cos", "neighbor_id"], ascending=[False, True]).head(
            KNN_K
        )
        vc = (
            g.groupby("neighbor_label").size().reset_index(name="n")
            .sort_values(["n", "neighbor_label"], ascending=[False, True])
        )
        pred = int(vc["neighbor_label"].iloc[0])
        true = int(g["query_label"].iloc[0])
        return pd.DataFrame(
            {
                "query_id": [int(g["query_id"].iloc[0])],
                "true_label": [true],
                "pred_label": [pred],
                "n_votes": [int(vc["n"].iloc[0])],
                "correct": [1 if pred == true else 0],
            }
        ).astype("int64")

    return _combine(parts, 4).groupby("query_id").map_groups(
        vote, batch_format="pandas"
    )


# ---------------------------------------------------------------------------
# CCNet LM-quality buckets + training-order n-gram novelty
# ---------------------------------------------------------------------------


def doc_ccnet_buckets(sf_dir: str):
    """CCNet-style head/middle/tail quality buckets (Wenzek et al.,
    LREC'20): per LANGUAGE, documents split into terciles of the corpus
    LM score — CCNet keeps head+middle and drops the tail. Scores are
    the exact-integer ``doc_bigram_lm_score`` (higher = more natural);
    tercile boundaries are the integer ranks ceil(n/3) / ceil(2n/3)
    over each language's ascending score histogram, so bucket edges are
    value-exact in both engines (no float quantiles).

    Shape: the fully distributed LM pass (doc_bigram_lm_score), one
    doc-keyed exchange to attach the language column, then a per-block
    (lang, score) value-count histogram combined on the driver —
    bounded by langs x distinct scores, the lineitem_price_quantiles
    contract; for an UNBOUNDED score domain the DDSketch tier
    (lineitem_price_quantiles_sketch) is the declared scale path.
    Thresholds (5 langs x 2 ints) broadcast; bucketing is row-local."""
    from .stages.exchange import keyed_exchange

    nparts = _xparts(sf_dir, "documents")
    scores = doc_bigram_lm_score(sf_dir)
    langs = _tbl(sf_dir, "documents", columns=["doc_id", "lang"])

    def score_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang": "",
                "score": df["lm_score_micro"].astype("int64"),
                "kind": np.int64(0),
            }
        )

    def lang_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang": df["lang"],
                "score": np.int64(0),
                "kind": np.int64(1),
            }
        )

    def merge(df: pd.DataFrame) -> pd.DataFrame:
        sc = df[df["kind"] == 0][["doc_id", "score"]]
        la = df[df["kind"] == 1][["doc_id", "lang"]]
        m = la.merge(sc, on="doc_id", how="left")
        m["score"] = m["score"].fillna(0).astype("int64")
        return m

    joined = keyed_exchange(
        scores.map_batches(score_rows, batch_format="pandas").union(
            langs.map_batches(lang_rows, batch_format="pandas")
        ),
        ["doc_id"],
        merge,
        nparts,
    ).materialize()

    hist = (
        joined.map_batches(
            lambda df: df.groupby(["lang", "score"], as_index=False).size(
            ).rename(columns={"size": "n"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["lang", "score"], as_index=False)["n"]
        .sum()
    )
    th = {}
    for lang, g in hist.groupby("lang"):
        g = g.sort_values("score", kind="mergesort")
        cum = g["n"].to_numpy(dtype=np.int64).cumsum()
        vals = g["score"].to_numpy(dtype=np.int64)
        tot = int(cum[-1])
        r1 = (tot + 2) // 3  # ceil(n/3), pure integers
        r2 = (2 * tot + 2) // 3
        th[lang] = (
            int(vals[np.searchsorted(cum, r1)]),
            int(vals[np.searchsorted(cum, r2)]),
        )
    ref = ray.put(th)

    def bucket(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        th_ = resolve(ref)
        t1 = df["lang"].map(lambda s: th_[s][0]).to_numpy(dtype=np.int64)
        t2 = df["lang"].map(lambda s: th_[s][1]).to_numpy(dtype=np.int64)
        sc = df["score"].to_numpy(dtype=np.int64)
        b = np.where(sc > t2, "head", np.where(sc > t1, "middle", "tail"))
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "lang": df["lang"],
                "lm_score_micro": sc,
                "bucket": b,
            }
        )

    return joined.map_batches(bucket, batch_format="pandas")


def doc_ngram_novelty(sf_dir: str):
    """N-gram novelty along the training order: for each document, how
    many of its DISTINCT word bigrams appear for the FIRST time at its
    position in the deterministic ``doc_training_order`` schedule (the
    seeded-md5 global shuffle). The per-position novelty curve is the
    standard diminishing-returns / dataset-redundancy diagnostic for
    training-data curation.

    Shape: one text pass emits per-doc distinct (bigram, order-key)
    rows plus one per-doc total row under a unique sentinel key; ONE
    bigram-keyed exchange keeps each bigram's order-minimal occurrence
    (argmin, not a sort of the corpus); one doc-keyed exchange folds
    winner counts with the totals. No driver state, no broadcast —
    both exchanges are the high-cardinality keyed pattern."""
    from .stages.exchange import keyed_exchange

    nparts = _xparts(sf_dir, "documents")
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .kernels.textstats import WORD_RE

        ids = batch["doc_id"].to_pylist()
        his, los = _md5_order_parts(ids, f"shuf:{TRAIN_ORDER_SEED}")
        bk, di, bh, bl, kind, v = [], [], [], [], [], []
        for i, t, hi, lo in zip(ids, batch["text"].to_pylist(), his, los):
            ws = WORD_RE.findall((t or "").lower())
            bgs = {ws[j] + " " + ws[j + 1] for j in range(len(ws) - 1)}
            for bg in bgs:
                bk.append(bg)
                di.append(i)
                bh.append(hi)
                bl.append(lo)
                kind.append(1)
                v.append(1)
            # per-doc total row: sentinel key is unique per doc ('#'
            # cannot occur in a WORD_RE bigram; NUL would be truncated
            # by pandas' C-string hashtable and collide), so it rides
            # the same exchange without creating a hot key
            bk.append("#%d" % i)
            di.append(i)
            bh.append(0)
            bl.append(0)
            kind.append(0)
            v.append(len(bgs))
        return pd.DataFrame(
            {
                "bkey": bk,
                "doc_id": np.asarray(di, dtype=np.int64),
                "hi": np.asarray(bh, dtype=np.int64),
                "lo": np.asarray(bl, dtype=np.int64),
                "kind": np.asarray(kind, dtype=np.int64),
                "v": np.asarray(v, dtype=np.int64),
            }
        )

    def first_occurrence(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["hi", "lo", "doc_id"], kind="mergesort")
        w = df.groupby("bkey", sort=False, as_index=False).head(1)
        return w[["doc_id", "kind", "v"]]

    winners = keyed_exchange(
        ds.map_batches(partial, batch_format="pyarrow"),
        ["bkey"],
        first_occurrence,
        nparts,
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        t = (
            df[df["kind"] == 0]
            .groupby("doc_id", as_index=False)["v"]
            .sum()
            .rename(columns={"v": "n_distinct_bigrams"})
        )
        nv = (
            df[df["kind"] == 1]
            .groupby("doc_id", as_index=False)["v"]
            .sum()
            .rename(columns={"v": "n_novel"})
        )
        m = t.merge(nv, on="doc_id", how="left")
        m["n_novel"] = m["n_novel"].fillna(0).astype("int64")
        nd = m["n_distinct_bigrams"].to_numpy(dtype=np.int64)
        nn = m["n_novel"].to_numpy(dtype=np.int64)
        m["novelty_permille"] = np.where(
            nd == 0, 0, (1000 * nn) // np.maximum(nd, 1)
        ).astype("int64")
        return m.astype("int64")

    return keyed_exchange(winners, ["doc_id"], fold, nparts)


# ---------------------------------------------------------------------------
# KG structure ops: relation composition, predicate-signature audit,
# blocked entity resolution
# ---------------------------------------------------------------------------


def kg_two_hop_paths(sf_dir: str):
    """Relation composition counts over the canonical KG: for every
    ordered predicate pair (p1, p2), how many edge pairs
    s -[p1]-> m -[p2]-> o share a mid node, and the total evidence
    weight (Σ w1·w2) — the meta-path statistics that feed link
    prediction / rule mining (AMIE-style p1∘p2 ⇒ p3 support counts).

    Shape: each edge ships to its TWO endpoints' partitions (side-tagged
    in/out rows), ONE mid-node keyed exchange joins in×out locally, and
    the (p1, p2) partials — bounded by |preds|² per partition — fold
    through a tiny second exchange. At a billion-edge KG the only
    all-to-all is the mid-node exchange; nothing is broadcast and the
    driver never sees an edge."""
    from .stages.exchange import keyed_exchange

    edges = kg_edges(sf_dir)
    nparts = _xparts(sf_dir, "transcripts")

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        # side 0: the edge is the FIRST hop (mid = its object);
        # side 1: the edge is the SECOND hop (mid = its subject)
        a = pd.DataFrame(
            {"mid": df["obj_cui"], "side": np.int64(0),
             "pred": df["pred"], "weight": df["weight"].astype("int64")}
        )
        b = pd.DataFrame(
            {"mid": df["subj_cui"], "side": np.int64(1),
             "pred": df["pred"], "weight": df["weight"].astype("int64")}
        )
        return pd.concat([a, b], ignore_index=True)

    def compose(df: pd.DataFrame) -> pd.DataFrame:
        ins = df[df["side"] == 0][["mid", "pred", "weight"]]
        outs = df[df["side"] == 1][["mid", "pred", "weight"]]
        if ins.empty or outs.empty:
            return pd.DataFrame(
                {"pred1": pd.array([], dtype="string"),
                 "pred2": pd.array([], dtype="string"),
                 "n_paths": np.array([], dtype=np.int64),
                 "weight_sum": np.array([], dtype=np.int64)}
            )
        pairs = ins.merge(outs, on="mid", suffixes=("_1", "_2"))
        pairs["weight_sum"] = pairs["weight_1"] * pairs["weight_2"]
        out = (
            pairs.groupby(["pred_1", "pred_2"], as_index=False)
            .agg(n_paths=("weight_sum", "size"), weight_sum=("weight_sum", "sum"))
            .rename(columns={"pred_1": "pred1", "pred_2": "pred2"})
        )
        return out.astype({"n_paths": "int64", "weight_sum": "int64"})

    partials = keyed_exchange(
        edges.map_batches(emit, batch_format="pandas"), ["mid"], compose, nparts
    )

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["pred1", "pred2"], as_index=False)[
            ["n_paths", "weight_sum"]
        ].sum()

    return keyed_exchange(partials, ["pred1", "pred2"], fold, 8)


def kg_predicate_domain_check(sf_dir: str):
    """Predicate-signature (domain/range) audit — the SHACL-lite schema
    check a KG-construction pipeline runs on its own output: each
    predicate's MAJORITY (subject_type, object_type) signature (edge
    count desc, type-pair asc tie-break) becomes the inferred schema;
    every edge is flagged against it. Violations are the curation
    queue for relation-extraction errors.

    Shape: node→type map is the canonical-label meta dict (node-
    dimension bounded, the kg_nodes broadcast argument); per-block
    (pred, styp, otyp) partials — ≤ |preds|·|types|² rows each — fold
    on the driver; majorities broadcast; flagging is row-local. Zero
    shuffles beyond kg_edges' own."""
    _, rows = _annotations_cache(sf_dir)
    comp = canonical_components(rows)
    meta = node_meta(rows)
    type_ref = ray.put({c: meta[c][1] for c in set(comp.values())})

    def typed(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        tm = resolve(type_ref)
        return df.assign(
            subj_type=df["subj_cui"].map(tm), obj_type=df["obj_cui"].map(tm)
        )

    edges = kg_edges(sf_dir).map_batches(typed, batch_format="pandas").materialize()

    sig = (
        edges.map_batches(
            lambda df: df.groupby(
                ["pred", "subj_type", "obj_type"], as_index=False
            ).size().rename(columns={"size": "n"}),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby(["pred", "subj_type", "obj_type"], as_index=False)["n"]
        .sum()
    )
    sig = sig.sort_values(
        ["pred", "n", "subj_type", "obj_type"],
        ascending=[True, False, True, True],
        kind="mergesort",
    ).groupby("pred", as_index=False).head(1)
    maj_ref = ray.put(
        {p: (s, o) for p, s, o in zip(sig["pred"], sig["subj_type"], sig["obj_type"])}
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        mj = resolve(maj_ref)
        ms = df["pred"].map(lambda p: mj[p][0])
        mo = df["pred"].map(lambda p: mj[p][1])
        return df.assign(
            violates=(
                (df["subj_type"] != ms) | (df["obj_type"] != mo)
            ).astype("int64")
        )

    return edges.map_batches(flag, batch_format="pandas")


# blocked entity resolution: max edit distance within a block
ER_LEV_MAX = 2


def kg_er_blocked_lev(sf_dir: str):
    """Blocked entity resolution over mention SURFACE FORMS — the
    string-similarity canonicalization pass that complements the alias-
    dict linker (catches typo/inflection variants the dictionary
    misses). Classic ER shape: blocking key (type, first char, length
    band) bounds the candidate set, exact Levenshtein ≤ ER_LEV_MAX
    within each block yields match edges, connected components assign
    each surface its cluster representative (component-min string).

    Shape: distinct surfaces via ONE surface-keyed exchange (map-side
    per-block dedup first); ONE block-keyed exchange runs the O(block²)
    DP comparisons locally — the blocking key caps block size by
    construction, the standard ER scaling argument; components reuse
    stages/canonicalize.connected_components_ds (pair edges + self
    edges as the bipartite cui↔edge-key graph). The oracle replays
    blocking + DuckDB levenshtein + an EXACT recursive closure, so any
    unconverged propagation would surface as a mismatch."""
    from .kernels.textstats import levenshtein
    from .stages.canonicalize import connected_components_ds
    from .stages.exchange import keyed_exchange

    ann, _ = _annotations_ds(sf_dir)
    ments = mentions_stage(ann)
    nparts = _xparts(sf_dir, "transcripts")

    def local_distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df[["text", "type"]].drop_duplicates()

    def distinct(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    surfaces = keyed_exchange(
        ments.map_batches(local_distinct, batch_format="pandas"),
        ["text", "type"],
        distinct,
        nparts,
    ).materialize()

    def with_block(df: pd.DataFrame) -> pd.DataFrame:
        s = df["text"].astype(str)
        return df.assign(
            bc=s.str.slice(0, 1).str.lower(),
            bl=(s.str.len() // 4).astype("int64"),
        )

    def block_pairs(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for _, g in df.groupby(["type", "bc", "bl"], sort=False):
            ss = sorted(g["text"].tolist())
            for i in range(len(ss)):
                for j in range(i + 1, len(ss)):
                    if levenshtein(ss[i], ss[j], ER_LEV_MAX) <= ER_LEV_MAX:
                        rows.append((ss[i], ss[j]))
        return pd.DataFrame(rows, columns=["a", "b"])

    pairs = keyed_exchange(
        surfaces.map_batches(with_block, batch_format="pandas"),
        ["type", "bc", "bl"],
        block_pairs,
        nparts,
    )

    # bipartite cui↔edge-key graph: each pair edge links its two
    # surfaces through a unique key; self edges keep singletons. '\x1f'
    # cannot occur in TOKEN_RE surfaces (and NUL would be truncated by
    # pandas' C-string hashtable — the doc_ngram_novelty lesson).
    def pair_edges(df: pd.DataFrame) -> pd.DataFrame:
        key = df["a"] + "\x1f" + df["b"]
        return pd.concat(
            [pd.DataFrame({"cui": df["a"], "alias_key": key}),
             pd.DataFrame({"cui": df["b"], "alias_key": key})],
            ignore_index=True,
        )

    def self_edges(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {"cui": df["text"], "alias_key": "\x1f" + df["text"]}
        )

    graph = pairs.map_batches(pair_edges, batch_format="pandas").union(
        surfaces.map_batches(self_edges, batch_format="pandas")
    )
    labels = connected_components_ds(graph, rounds=4, num_partitions=8)

    def as_label_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "text": pd.array(df["cui"], dtype="string"),
                "type": pd.array([None] * len(df), dtype="string"),
                "rep": pd.array(df["label"], dtype="string"),
            }
        )

    def as_surface_rows(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "text": pd.array(df["text"], dtype="string"),
                "type": pd.array(df["type"], dtype="string"),
                "rep": pd.array([None] * len(df), dtype="string"),
            }
        )

    def attach(df: pd.DataFrame) -> pd.DataFrame:
        sur = df[df["rep"].isna()][["text", "type"]]
        lab = df[df["rep"].notna()][["text", "rep"]]
        out = sur.merge(lab, on="text", how="left").rename(
            columns={"text": "surface"}
        )
        return out[["surface", "type", "rep"]]

    tagged = surfaces.map_batches(as_surface_rows, batch_format="pandas").union(
        labels.map_batches(as_label_rows, batch_format="pandas")
    )
    return keyed_exchange(tagged, ["text"], attach, nparts)


# ---------------------------------------------------------------------------
# Tokenizer fertility + retrieval-quality evaluation
# ---------------------------------------------------------------------------


def doc_bpe_fertility(sf_dir: str):
    """Per-language tokenizer fertility (tokens per word, the
    multilingual tokenizer-quality diagnostic — a language whose
    fertility is far above the corpus mean is under-served by the
    trained BPE vocabulary and will burn context budget at training
    time). fertility_micro = 10⁶ · Σ bpe_tokens // Σ words per lang.

    Shape: merge rules broadcast once (artifact-sized); each block
    encodes its DISTINCT words only (the Zipf-head cache of
    stages/bpe.bpe_encode_stage) and reduces straight to per-lang
    partials — ≤ |langs| rows per block, zero shuffles, driver combine
    bounded by the language dimension."""
    from .kernels.textstats import WORD_RE
    from .stages.bpe import encode_word

    merges = _ensure_bpe_merges(sf_dir)
    ranked = list(
        zip(
            merges.sort_values("rank")["left"],
            merges.sort_values("rank")["right"],
        )
    )
    rules = ray.put(ranked)
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text", "lang"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        rl = resolve(rules)
        cache: dict[str, int] = {}
        acc: dict[str, list[int]] = {}
        for text, lang in zip(
            batch["text"].to_pylist(), batch["lang"].to_pylist()
        ):
            ws = WORD_RE.findall((text or "").lower())
            total = 0
            for w in ws:
                n = cache.get(w)
                if n is None:
                    n = len(encode_word(w, rl))
                    cache[w] = n
                total += n
            a = acc.setdefault(lang, [0, 0, 0])
            a[0] += 1
            a[1] += len(ws)
            a[2] += total
        return pd.DataFrame(
            [(k, v[0], v[1], v[2]) for k, v in sorted(acc.items())],
            columns=["lang", "n_docs", "n_words", "n_bpe_tokens"],
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("lang", as_index=False)[
            ["n_docs", "n_words", "n_bpe_tokens"]
        ].sum()
        out["fertility_micro"] = (
            1_000_000 * out["n_bpe_tokens"]
        ) // np.maximum(out["n_words"], 1)
        return out.astype(
            {c: "int64" for c in out.columns if c != "lang"}
        )

    return _combine(parts, 4).groupby("lang").map_groups(
        fold, batch_format="pandas"
    )


def emb_eval_ndcg(sf_dir: str):
    """Retrieval-quality evaluation of the PQ/ADC index against the
    exact brute-force ranking: binary-relevance NDCG@ANN_K per query,
    where the relevant set is the exact cosine top-k (ann_topk) and
    the ranking under evaluation is ann_topk_pq. Discounts are the
    log-free integer harmonic weights 10⁶ // (rank+1) — a declared
    integer NDCG variant so both engines agree bit-for-bit (float log2
    rounding is engine-specific). The eval consumes two BOUNDED result
    tables (Q·k rows each, products of already-distributed scans), so
    the driver-side join is the legitimate small-results pattern."""
    exact = ann_topk(sf_dir).to_pandas()
    pqr = ann_topk_pq(sf_dir)
    rel = {
        q: set(g["neighbor_id"]) for q, g in exact.groupby("query_id")
    }
    disc = {r: 1_000_000 // (r + 1) for r in range(1, ANN_K + 1)}
    idcg = sum(disc.values())
    rows = []
    for q, g in pqr.groupby("query_id"):
        rset = rel.get(q, set())
        hits = g["neighbor_id"].isin(rset)
        dcg = int(sum(disc[int(r)] for r, h in zip(g["rank"], hits) if h))
        rows.append((int(q), int(hits.sum()), dcg, 1_000_000 * dcg // idcg))
    return pd.DataFrame(
        rows, columns=["query_id", "n_hits", "dcg", "ndcg_micro"]
    ).astype("int64")


# ---------------------------------------------------------------------------
# warehouse-shape operators (round 4, second wave)
# ---------------------------------------------------------------------------


def events_state_intervals(sf_dir: str):
    """SCD-Type-2 state history per user: the ts-ordered event_type
    stream collapsed into validity intervals [valid_from, valid_to)
    via change-detection islands (run-length encoding over time) —
    the dimension-history build every warehouse load needs, distinct
    from events_sessions' GAP islands (state CHANGE closes an interval
    here, not inactivity). One keyed shuffle on user_id, per-user
    pandas pass; a user's history is bounded, so a whole group fits
    one worker at any corpus scale. The open (latest) interval carries
    a NULL valid_to, like the asof join's unmatched rows."""
    ds = _tbl(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def intervals(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        new = (g["event_type"] != g["event_type"].shift()).astype("int64")
        g = g.assign(run_idx=new.cumsum())
        r = (
            g.groupby("run_idx", sort=True)
            .agg(
                event_type=("event_type", "first"),
                valid_from=("ts", "min"),
                n_events=("event_id", "size"),
            )
            .reset_index()
        )
        r = r.assign(
            user_id=g["user_id"].iat[0],
            valid_to=r["valid_from"].shift(-1),
            n_events=r["n_events"].astype("int64"),
        )
        return r[["user_id", "run_idx", "event_type", "valid_from", "valid_to", "n_events"]]

    return _combine(ds, 16).groupby("user_id").map_groups(
        intervals, batch_format="pandas"
    )


def region_local_volume(sf_dir: str):
    """TPC-H-Q5-shaped local-supplier volume: revenue per (region,
    nation) over order lines whose CUSTOMER and SUPPLIER sit in the
    same nation — the multi-way join with an equality constraint
    ACROSS two join branches (c_nationkey = s_nationkey), which no
    single broadcast lookup can express. customer/supplier/nation/
    region are dimension tables, shipped once via ray.put; the
    fact-fact orders⋈lineitem join is ONE side-tagged keyed exchange
    on the order key (the user_day_purchase_click_outer co-partition
    pattern). Revenue is integer-exact: cents × (100 − discount_pct),
    summed as int64."""
    from .stages.exchange import keyed_exchange

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_nationkey"]
    )
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pylist()
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pylist()
    rname = {r["r_regionkey"]: r["r_name"] for r in reg}
    dims_ref = ray.put(
        (
            dict(zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist())),
            dict(zip(sup["s_suppkey"].to_pylist(), sup["s_nationkey"].to_pylist())),
            {n["n_nationkey"]: n["n_name"] for n in nat},
            {n["n_nationkey"]: rname[n["n_regionkey"]] for n in nat},
        )
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        cnat = resolve(dims_ref)[0]
        return pd.DataFrame(
            {
                "okey": df["o_orderkey"].astype("int64"),
                "side": np.int64(0),
                "nat": df["o_custkey"].map(cnat).astype("int64"),
                "rev": np.int64(0),
            }
        )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        snat = resolve(dims_ref)[1]
        cents = (df["l_extendedprice"] * 100).round().astype("int64")
        disc = (df["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "okey": df["l_orderkey"].astype("int64"),
                "side": np.int64(1),
                "nat": df["l_suppkey"].map(snat).astype("int64"),
                "rev": cents * (100 - disc),
            }
        )

    orders = _tbl(sf_dir, "orders", columns=["o_orderkey", "o_custkey"]).map_batches(
        o_side, batch_format="pandas"
    )
    lines = _tbl(
        sf_dir,
        "lineitem",
        columns=["l_orderkey", "l_suppkey", "l_extendedprice", "l_discount"],
    ).map_batches(l_side, batch_format="pandas")

    def join_part(df: pd.DataFrame) -> pd.DataFrame:
        o = df.loc[df["side"] == 0, ["okey", "nat"]].rename(columns={"nat": "c_nat"})
        li = df.loc[df["side"] == 1, ["okey", "nat", "rev"]]
        m = li.merge(o, on="okey", how="inner")
        m = m.loc[m["nat"] == m["c_nat"]]
        return (
            m.groupby("nat", sort=False)
            .agg(revenue_c100=("rev", "sum"), n_rows=("rev", "size"))
            .reset_index()
        )

    parts = keyed_exchange(
        orders.union(lines),
        ["okey"],
        join_part,
        num_partitions=_xparts(sf_dir, "lineitem", "orders"),
    )

    def name_it(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        _c, _s, nation_name, region_of = resolve(dims_ref)
        return pd.DataFrame(
            {
                "r_name": df["nat"].map(region_of),
                "n_name": df["nat"].map(nation_name),
                "revenue_c100": df["revenue_c100"].astype("int64"),
                "n_rows": df["n_rows"].astype("int64"),
            }
        )

    return (
        _combine(parts.map_batches(name_it, batch_format="pandas"))
        .groupby(["r_name", "n_name"])
        .aggregate(
            Sum("revenue_c100", alias_name="revenue_c100"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )


EVENT_TYPES = ("click", "error", "purchase", "signup", "view")


def events_type_pivot(sf_dir: str):
    """Wide pivot of the event stream: one row per user with the count
    of each event_type as its own column plus integer purchase cents —
    conditional aggregation (PIVOT) expressed as a partial+combine
    grouped aggregate so the per-type indicator columns collapse
    map-side before the single user-keyed exchange (user cardinality
    is corpus-sized; event_type cardinality is the fixed pivot width)."""
    from .stages.exchange import grouped_aggregate

    ds = _tbl(sf_dir, "events", columns=["user_id", "event_type", "value"])
    cols = [f"n_{t}" for t in EVENT_TYPES] + ["purchase_cents"]

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cents = (df["value"] * 100).round().astype("int64")
        wide = df[["user_id"]].assign(
            **{f"n_{t}": (df["event_type"] == t).astype("int64") for t in EVENT_TYPES},
            purchase_cents=cents.where(df["event_type"] == "purchase", 0),
        )
        return wide.groupby("user_id", sort=False)[cols].sum().reset_index()

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("user_id", sort=False)[cols].sum().reset_index()

    return grouped_aggregate(
        ds, ["user_id"], partial, combine, num_partitions=_xparts(sf_dir, "events")
    )


def events_props_extract(sf_dir: str):
    """Semi-structured ETL: extract the integer ``k`` field from the
    JSON ``props`` column (vectorized — one compiled-regex pass per
    batch, no per-row json.loads in the hot path) and aggregate per
    event_type. Declared contract: props is flat one-level JSON with
    an integer ``k`` (the events fixture shape, TESTDATA.md); nested
    or escaped payloads swap the regex for a per-batch Arrow JSON
    parse behind the same plumbing. Low-cardinality group key → native
    groupby.aggregate on the pre-combined partials."""
    ds = _tbl(sf_dir, "events", columns=["event_type", "props"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        k = (
            df["props"]
            .str.extract(r'"k"\s*:\s*(-?\d+)', expand=False)
            .astype("int64")
        )
        return (
            pd.DataFrame({"event_type": df["event_type"], "k": k})
            .groupby("event_type", sort=False)
            .agg(n=("k", "size"), sum_k=("k", "sum"), min_k=("k", "min"), max_k=("k", "max"))
            .reset_index()
        )

    return (
        _combine(ds.map_batches(partial, batch_format="pandas"))
        .groupby("event_type")
        .aggregate(
            Sum("n", alias_name="n"),
            Sum("sum_k", alias_name="sum_k"),
            Min("min_k", alias_name="min_k"),
            Max("max_k", alias_name="max_k"),
        )
    )


def events_rolling_features(sf_dir: str):
    """Per-event trailing-window ML features: for every event, the
    count and integer value-cents sum of the SAME user's events inside
    the preceding hour (RANGE-frame window semantics — time-offset
    frames, not row counts; peers at the exact boundary ts are all
    included, so ties can't reorder results). One user-keyed shuffle;
    inside each bounded per-user group the window is two vectorized
    searchsorted cursors over the ts-sorted stream plus a cumsum
    difference — O(n log n) per user, no per-row rescan."""
    ds = _tbl(sf_dir, "events", columns=["user_id", "event_id", "ts", "value"])

    def roll(g: pd.DataFrame) -> pd.DataFrame:
        g = g.sort_values(["ts", "event_id"])
        ts = g["ts"].to_numpy()
        cents = (g["value"] * 100).round().astype("int64").to_numpy()
        csum = np.concatenate(([0], np.cumsum(cents)))
        lo = np.searchsorted(ts, ts - np.timedelta64(1, "h"), side="left")
        hi = np.searchsorted(ts, ts, side="right")
        return pd.DataFrame(
            {
                "user_id": g["user_id"].to_numpy(),
                "event_id": g["event_id"].to_numpy(),
                "ts": ts,
                "n_1h": (hi - lo).astype("int64"),
                "sum_cents_1h": csum[hi] - csum[lo],
            }
        )

    return _combine(ds, 16).groupby("user_id").map_groups(
        roll, batch_format="pandas"
    )


def part_small_qty_revenue(sf_dir: str):
    """TPC-H-Q17-shaped correlated aggregate filter: revenue from order
    lines whose quantity is below 20% of their part's average quantity.
    The textbook plan is aggregate + self-join; under a keyed exchange
    the self-join COLLAPSES — all rows of a part land in one partition,
    so the per-part average and the filter against it run locally in
    the same pass (zero extra data movement vs the plain aggregate).
    Integer-exact predicate: 5·qty_c·n < Σqty_c avoids the 0.2·avg
    float; revenue in summed int64 cents, grouped by return flag."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(
        sf_dir,
        "lineitem",
        columns=["l_partkey", "l_quantity", "l_extendedprice", "l_returnflag"],
    )

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "l_partkey": df["l_partkey"].astype("int64"),
                "qty_c": (df["l_quantity"] * 100).round().astype("int64"),
                "price_c": (df["l_extendedprice"] * 100).round().astype("int64"),
                "l_returnflag": df["l_returnflag"],
            }
        )

    def small_qty(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("l_partkey")["qty_c"].agg(["sum", "size"])
        sums = df["l_partkey"].map(g["sum"]).to_numpy()
        ns = df["l_partkey"].map(g["size"]).to_numpy()
        keep = df.loc[5 * df["qty_c"].to_numpy() * ns < sums]
        return (
            keep.groupby("l_returnflag", sort=False)
            .agg(revenue_cents=("price_c", "sum"), n_rows=("price_c", "size"))
            .reset_index()
        )

    parts = keyed_exchange(
        ds.map_batches(prep, batch_format="pandas"),
        ["l_partkey"],
        small_qty,
        num_partitions=_xparts(sf_dir, "lineitem"),
    )
    return (
        _combine(parts)
        .groupby("l_returnflag")
        .aggregate(
            Sum("revenue_cents", alias_name="revenue_cents"),
            Sum("n_rows", alias_name="n_rows"),
        )
    )


EMB_IVF_SUB = 4  # md5 sub-buckets per centroid bucket (hive part = cid*SUB+sub)
EMB_IVF_DELTA_PCT = 10  # ingest-delta share of vectors (md5 coin)


def _emb_ivf_coin(vec_ids: np.ndarray) -> np.ndarray:
    from .kernels.hashing import stable_u64_md5

    return np.fromiter(
        (stable_u64_md5(f"embivf:{int(v)}".encode("utf-8")) % 100 for v in vec_ids),
        dtype=np.int64,
        count=len(vec_ids),
    )


def _emb_ivf_sub(vec_ids: np.ndarray) -> np.ndarray:
    from .kernels.hashing import stable_u64_md5

    return np.fromiter(
        (
            stable_u64_md5(f"embsub:{int(v)}".encode("utf-8")) % EMB_IVF_SUB
            for v in vec_ids
        ),
        dtype=np.int64,
        count=len(vec_ids),
    )


def _emb_centroid_ref(sf_dir: str):
    """Normalized [C, D] centroid matrix (the vectors with vec_id <
    IVF_N_CENTROIDS, read via parquet filter pushdown) as an object ref."""
    cent = pq.read_table(
        os.path.join(sf_dir, "embeddings.parquet"),
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", IVF_N_CENTROIDS)],
    )
    cdf = cent.to_pandas().sort_values("vec_id")
    cmat = np.stack([np.asarray(e, dtype=np.float64) for e in cdf["embedding"]])
    return ray.put(cmat / np.linalg.norm(cmat, axis=1, keepdims=True))


def _emb_ivf_assignments(sf_dir: str, ref, delta: bool, with_embedding: bool):
    """(ppart, vec_id[, embedding]) rows for the base or delta shard of
    the vector stream: ppart = max-cosine centroid id (first-max = lowest
    cid on ties, the ann_topk_ivf convention) × EMB_IVF_SUB + md5
    sub-bucket. The md5 coin splits the corpus into the persisted base
    (coin < 100-EMB_IVF_DELTA_PCT) and the ingest delta."""
    thr = 100 - EMB_IVF_DELTA_PCT

    def assign(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        cm = resolve(ref)
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype="int64")
        coin = _emb_ivf_coin(vids)
        mask = coin >= thr if delta else coin < thr
        keep = np.nonzero(mask)[0]
        if keep.size == 0:
            out = {"ppart": pd.Series([], dtype="int64"),
                   "vec_id": pd.Series([], dtype="int64")}
            if with_embedding:
                out["embedding"] = pd.Series([], dtype=object)
            return pd.DataFrame(out)
        embs = batch["embedding"].to_pylist()
        vids = vids[keep]
        mat = np.stack([np.asarray(embs[i], dtype=np.float64) for i in keep])
        nm = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        bucket = np.argmax(nm @ cm.T, axis=1).astype("int64")
        out = {"ppart": bucket * EMB_IVF_SUB + _emb_ivf_sub(vids), "vec_id": vids}
        if with_embedding:
            out["embedding"] = [embs[i] for i in keep]
        return pd.DataFrame(out)

    return rd.read_parquet(
        os.path.join(sf_dir, "embeddings.parquet"), columns=["vec_id", "embedding"]
    ).map_batches(assign, batch_format="pyarrow", batch_size=1024)


def _emb_ivf_index_cache(sf_dir: str) -> str:
    """Persisted IVF index of the BASE vector shard: hive-partitioned
    parquet, one directory per (centroid, md5-sub) part, each file
    carrying (ppart, vec_id, embedding) — the vector store an ANN scan
    would read bucket-by-bucket. One part-keyed exchange gives one file
    per part (the _kg_base_edges_cache layout); manifest-guarded per
    fixture so every query run after the first streams, never rebuilds."""
    from .state import manifest as mf
    from .stages.exchange import keyed_exchange

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    fp = mf.fingerprint(
        "emb-ivf-index-v1",
        mf.input_fingerprint([emb_path]),
        str(EMB_IVF_SUB),
        str(EMB_IVF_DELTA_PCT),
    )
    out = _query_cache_dir(sf_dir, "emb_ivf_index")
    if not mf.is_complete(out, fp):

        def build(tmp):
            ref = _emb_centroid_ref(sf_dir)
            rows = _emb_ivf_assignments(sf_dir, ref, delta=False, with_embedding=True)
            # pdir duplicates ppart: partition_cols strips its column from
            # the file data, and readers need ppart as a data column
            rows = rows.map_batches(
                lambda df: df.assign(pdir=df["ppart"]), batch_format="pandas"
            )
            keyed_exchange(rows, ["ppart"], lambda df: df, 16).write_parquet(
                tmp, partition_cols=["pdir"]
            )

        mf.run_stage("emb-ivf-index", out, fp, build)
    return out


def emb_ivf_upsert(sf_dir: str):
    """Incremental ANN-index maintenance — the doc_dedup_incremental /
    kg_update_edges pattern applied to the vector store: upsert an
    ingest delta (EMB_IVF_DELTA_PCT of vectors by deterministic md5
    coin) into the PERSISTED hive-bucketed IVF index without touching
    untouched buckets. Delta vectors are assigned in-stream to their
    (centroid, md5-sub) part; the ≤ C·SUB touched part ids reach the
    driver as a bounded aggregate; ONLY touched part files are read and
    merged with the delta through one part-keyed exchange; untouched
    parts contribute their per-part stats from parquet FOOTER metadata
    alone (num_rows + exact int64 vec_id min/max column statistics) —
    zero data rows read outside the touched set. Output = per-part
    index summary (bucket, sub, n_vecs, min_vec_id, max_vec_id); the
    oracle is the FULL-corpus recompute (assign every vector in SQL),
    so the no-recompute claim is itself driver-checked."""
    from .state.manifest import list_parquet_files
    from .stages.exchange import keyed_exchange

    base_dir = _emb_ivf_index_cache(sf_dir)
    ref = _emb_centroid_ref(sf_dir)
    delta = _emb_ivf_assignments(
        sf_dir, ref, delta=True, with_embedding=False
    ).materialize()  # consumed twice: touched-part probe + merge
    touched = set(
        delta.map_batches(
            lambda df: pd.DataFrame({"ppart": df["ppart"].unique()}),
            batch_format="pandas",
        )
        .to_pandas()["ppart"]
        .unique()
        .tolist()
    )

    parts: dict[int, list] = {}
    for f in list_parquet_files(base_dir):
        b = int(os.path.basename(os.path.dirname(f)).split("=")[1])
        parts.setdefault(b, []).append(f)
    touched_files = [f for b, fs in parts.items() if b in touched for f in fs]

    # untouched parts: footer stats only — no data read
    unt_rows = []
    for b, fs in parts.items():
        if b in touched:
            continue
        n, mn, mx = 0, None, None
        for f in fs:
            pf = pq.ParquetFile(f)
            ci = pf.schema_arrow.names.index("vec_id")
            md = pf.metadata
            n += md.num_rows
            for rg in range(md.num_row_groups):
                st = md.row_group(rg).column(ci).statistics
                mn = st.min if mn is None else min(mn, st.min)
                mx = st.max if mx is None else max(mx, st.max)
        unt_rows.append((b, n, mn, mx))
    unt = pd.DataFrame(
        unt_rows, columns=["ppart", "n_vecs", "min_vec_id", "max_vec_id"]
    )

    merged = delta.select_columns(["ppart", "vec_id"])
    if touched_files:
        merged = merged.union(
            rd.read_parquet(touched_files, columns=["ppart", "vec_id"]).map_batches(
                lambda df: df, batch_format="pandas"
            )
        )

    def agg(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby("ppart", sort=False)["vec_id"]
            .agg(n_vecs="size", min_vec_id="min", max_vec_id="max")
            .reset_index()
        )

    tch = keyed_exchange(merged, ["ppart"], agg, 8).to_pandas()  # ≤ C·SUB rows
    out = pd.concat([tch, unt], ignore_index=True)
    return pd.DataFrame(
        {
            "bucket": (out["ppart"] // EMB_IVF_SUB).astype("int64"),
            "sub": (out["ppart"] % EMB_IVF_SUB).astype("int64"),
            "n_vecs": out["n_vecs"].astype("int64"),
            "min_vec_id": out["min_vec_id"].astype("int64"),
            "max_vec_id": out["max_vec_id"].astype("int64"),
        }
    )


KG_DECAY_HALVES = 8  # half-lives spanning the corpus time range
KG_DECAY_MAX_SHIFT = 30  # shift cap (1e6 >> 20 == 0 already; both engines agree)


def kg_decay_edges(sf_dir: str):
    """Recency-decayed KG edge confidence — the freshness signal a
    continuously-ingested graph ranks by: every supporting triple
    occurrence contributes ``1e6 >> k`` micro-units where ``k`` is its
    age in corpus-relative half-lives, ``k = (KG_DECAY_HALVES ·
    (max_ts − ts)) // (max_ts − min_ts)`` — all-integer (epoch-µs
    subtraction, floor division, bit shift), so both engines produce
    the identical decayed weight bit-for-bit. Half-life is defined in
    units of the corpus span (derived from the same exact min/max
    aggregates on both sides), so the operator is scale-free: no wall
    clock, no data-dependent float.

    Shape — the corpus min/max over the annotation cache's ``ts_us``,
    then the per-turn edge partials (``_turn_partials``) meet in one
    edge-keyed combine that decays each (turn, edge) count by its
    turn's age and sums raw weight and decayed micro-weight."""
    from .stages.exchange import keyed_exchange

    mn_us, mx_us = _corpus_minmax_us(sf_dir)
    span = mx_us - mn_us

    def final(df: pd.DataFrame) -> pd.DataFrame:
        if span > 0:
            k = (KG_DECAY_HALVES * (mx_us - df["ts_us"].to_numpy())) // span
        else:
            k = np.zeros(len(df), dtype="int64")
        k = np.minimum(k, KG_DECAY_MAX_SHIFT)
        df = df.assign(dec=df["n"].to_numpy() * np.right_shift(np.int64(1_000_000), k))
        g = (
            df.groupby(_EDGE, sort=False)
            .agg(weight=("n", "sum"), decayed_micro=("dec", "sum"))
            .reset_index()
        )
        return g.astype({"weight": "int64", "decayed_micro": "int64"})

    return keyed_exchange(_turn_partials(sf_dir), _EDGE, final, 8)


MAD_K = 3  # Hampel rule: outlier iff |x − median| > 3 · MAD


def doc_mad_outliers(sf_dir: str):
    """Robust length-outlier gate (the Hampel 3·MAD rule — the
    quality-filter variant that survives heavy-tailed corpora where
    mean/stddev gates saturate): flag docs whose token count deviates
    from the corpus median by more than MAD_K median-absolute-
    deviations. Exact integer order statistics: ONE metrics scan feeds
    a bounded value-count histogram (driver combine — domain-bounded,
    the lineitem_price_quantiles contract); the MAD histogram is
    DERIVED from it on the driver (group |v − med|, sum counts), so the
    second order statistic costs zero extra passes. quantile_disc rank
    semantics (1-based ceil(n·q), the shared q_disc convention);
    (median, MAD) broadcast; flagging row-local."""
    import math

    from .kernels.textstats import quality_features

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def metrics(batch: pa.Table) -> pa.Table:
        ids, ntok = [], []
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ids.append(i)
            ntok.append(quality_features(t)["n_tokens"])
        return pa.table(
            {"doc_id": pa.array(ids, pa.int64()), "n_tokens": pa.array(ntok, pa.int64())}
        )

    mds = ds.map_batches(metrics, batch_format="pyarrow").materialize()

    hist = (
        mds.map_batches(
            lambda df: df["n_tokens"]
            .value_counts()
            .rename_axis("value")
            .reset_index(name="n"),
            batch_format="pandas",
        )
        .to_pandas()
        .groupby("value", as_index=False)["n"]
        .sum()
    )

    def q_disc(h: pd.DataFrame) -> int:
        h = h.sort_values("value")
        cum = h["n"].cumsum().to_numpy()
        rank = math.ceil(0.5 * int(cum[-1]))
        return int(h["value"].to_numpy()[np.searchsorted(cum, rank)])

    med = q_disc(hist)
    mad = q_disc(
        hist.assign(value=(hist["value"] - med).abs())
        .groupby("value", as_index=False)["n"]
        .sum()
    )

    def flag(df: pd.DataFrame) -> pd.DataFrame:
        dev = (df["n_tokens"].to_numpy() - med)
        return pd.DataFrame(
            {
                "doc_id": df["doc_id"].astype("int64"),
                "n_tokens": df["n_tokens"].astype("int64"),
                "is_outlier": (np.abs(dev) > MAD_K * mad).astype("int64"),
            }
        )

    return mds.map_batches(flag, batch_format="pandas")


SRP_PLANES = 16  # signature bits (hyperplanes)
SRP_BANDS = 4  # LSH bands over the signature
SRP_BAND_BITS = SRP_PLANES // SRP_BANDS
SRP_COEF_MOD = 2001  # md5-derived integer coefficients in [-1000, 1000]
SRP_COEF_OFF = 1000


def _srp_planes(dim: int) -> np.ndarray:
    """[SRP_PLANES, dim] int64 hyperplane coefficients derived from md5
    — deterministic and SQL-replayable (md5_number_lower % MOD − OFF)."""
    from .kernels.hashing import stable_u64_md5

    return np.array(
        [
            [
                stable_u64_md5(f"srp:{p}:{d}".encode("utf-8")) % SRP_COEF_MOD
                - SRP_COEF_OFF
                for d in range(dim)
            ]
            for p in range(SRP_PLANES)
        ],
        dtype=np.int64,
    )


def emb_srp_neardup(sf_dir: str):
    """Signed-random-projection LSH near-dup (Charikar STOC'02 — the
    hyperplane-hash cousin of SimHash, for embedding columns): each
    vector gets a SRP_PLANES-bit signature (bit p = sign of the INTEGER
    dot product of the micro-quantized vector with md5-derived integer
    hyperplane p — floor(v·1e6) enters int64 exactly on both engines,
    so the sign, hence the signature, is bit-exact); signatures band
    into SRP_BANDS buckets; candidate pairs share ≥1 (band, bits)
    bucket; exact cosine ≥ EMB_COS_THRESHOLD verifies in-bucket
    (vectorized matmul); a pair-keyed exchange dedupes across bands.
    The angle-LSH complement to emb_neardup_pairs' IVF buckets: no
    centroid training, candidates bounded per bucket, no stage O(N²).
    The SQL oracle replays quantization, planes, signatures, banding
    and the cosine gate value-for-value."""
    from .kernels.quantize import micro_matrix
    from .stages.exchange import keyed_exchange

    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    dim = len(
        pq.read_table(emb_path, columns=["embedding"]).slice(0, 1)["embedding"][0]
    )
    planes = _srp_planes(dim)  # [P, D] int64 — dimension-bounded closure

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def signatures(batch: pa.Table) -> pd.DataFrame:
        vids = np.asarray(batch["vec_id"].to_pylist(), dtype="int64")
        embs = batch["embedding"].to_pylist()
        vm = micro_matrix(embs)  # [B, D] int64
        dots = vm @ planes.T  # [B, P] int64 (|vm|≤1e6, |c|≤1e3, D·1e9 < 2^63)
        sig = ((dots >= 0).astype(np.int64) << np.arange(SRP_PLANES)).sum(axis=1)
        frames = []
        for k in range(SRP_BANDS):
            bits = (sig >> (k * SRP_BAND_BITS)) & ((1 << SRP_BAND_BITS) - 1)
            frames.append(
                pd.DataFrame(
                    {"band": np.int64(k), "bits": bits, "vec_id": vids, "emb": embs}
                )
            )
        return pd.concat(frames, ignore_index=True)

    def bucket_pairs(df: pd.DataFrame) -> pd.DataFrame:
        out_a, out_b = [], []
        for _, g in df.groupby(["band", "bits"], sort=False):
            if len(g) < 2:
                continue
            vids = g["vec_id"].to_numpy()
            m = np.stack([np.asarray(e, dtype=np.float64) for e in g["emb"]])
            m = m / np.linalg.norm(m, axis=1, keepdims=True)
            cos = m @ m.T
            ii, jj = np.nonzero(
                (cos >= EMB_COS_THRESHOLD) & (vids[:, None] < vids[None, :])
            )
            out_a.append(vids[ii])
            out_b.append(vids[jj])
        a = np.concatenate(out_a) if out_a else np.empty(0, dtype="int64")
        b = np.concatenate(out_b) if out_b else np.empty(0, dtype="int64")
        return pd.DataFrame(
            {"vec_id_a": a.astype("int64"), "vec_id_b": b.astype("int64")}
        )

    pairs = keyed_exchange(
        ds.map_batches(signatures, batch_format="pyarrow", batch_size=1024),
        ["band", "bits"],
        bucket_pairs,
        _xparts(sf_dir, "embeddings"),
    )
    # a pair can collide in up to SRP_BANDS bands — dedupe on the pair key
    return keyed_exchange(
        pairs, ["vec_id_a", "vec_id_b"], lambda df: df.drop_duplicates(), 2
    )


CONTAIN_NGRAM = 5
CONTAIN_DF_MAX = 50  # heavy-hitter posting cap (the DECON_DF_MAX contract)
CONTAIN_MIN_COMMON = 2
CONTAIN_THRESH_MICRO = 800_000  # max-direction containment >= 0.8


def doc_containment_dedup(sf_dir: str):
    """Asymmetric containment dedup — catches SUBSET duplication
    (a doc embedded in a longer one) that symmetric Jaccard under-
    weighs: for candidate pairs, containment C(A→B) = |S_A ∩ S_B| /
    |S_A| over distinct 5-gram shingle sets, keep pairs whose MAX
    direction ≥ 0.8 (exact integer micro ratios, floor division).

    Shape — the doc_decontaminate posting exchange, self-join flavor:
    one text pass explodes distinct (shingle-hash, doc) rows, each
    carrying its doc's distinct-shingle TOTAL (row-local exact — a doc
    lives whole in its batch row, so no extra pass and no doc-keyed
    exchange for totals); the shingle-keyed exchange drops postings
    with df > CONTAIN_DF_MAX (declared heavy-hitter cap, same contract
    as decontamination) and emits a<b pair partials; one pair-keyed
    exchange sums common counts and applies the integer gates. Work is
    Σ_shingle df², capped — no all-pairs stage."""
    from .kernels.hashing import shingles, stable_u64_md5
    from .kernels.textstats import WORD_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def explode(batch: pa.Table) -> pd.DataFrame:
        hs, ids, tots = [], [], []
        memo: dict[str, int] = {}
        for i, t in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            ws = WORD_RE.findall((t or "").lower())
            if not ws:
                continue
            ss = shingles(ws, n=CONTAIN_NGRAM)
            for s in ss:
                h = memo.get(s)
                if h is None:
                    h = memo[s] = stable_u64_md5(s.encode("utf-8"))
                hs.append(h)
                ids.append(i)
                tots.append(len(ss))
        return pd.DataFrame(
            {
                "h": np.array(hs, dtype=np.uint64),
                "doc_id": np.array(ids, dtype=np.int64),
                "n_sh": np.array(tots, dtype=np.int64),
            }
        )

    def pairs_part(df: pd.DataFrame) -> pd.DataFrame:
        df = df.loc[df.groupby("h")["doc_id"].transform("size") <= CONTAIN_DF_MAX]
        m = df.merge(df, on="h", suffixes=("_a", "_b"))
        m = m.loc[m["doc_id_a"] < m["doc_id_b"]]
        return (
            m.groupby(
                ["doc_id_a", "doc_id_b", "n_sh_a", "n_sh_b"],
                sort=False,
                as_index=False,
            )
            .size()
            .rename(columns={"size": "n_common"})
        )

    def gate(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(
            ["doc_id_a", "doc_id_b", "n_sh_a", "n_sh_b"], sort=False, as_index=False
        )["n_common"].sum()
        g = g.loc[g["n_common"] >= CONTAIN_MIN_COMMON]
        nc = g["n_common"].to_numpy(dtype="int64")
        ca = 1_000_000 * nc // g["n_sh_a"].to_numpy(dtype="int64")
        cb = 1_000_000 * nc // g["n_sh_b"].to_numpy(dtype="int64")
        keep = np.maximum(ca, cb) >= CONTAIN_THRESH_MICRO
        return pd.DataFrame(
            {
                "doc_id_a": g["doc_id_a"].to_numpy()[keep],
                "doc_id_b": g["doc_id_b"].to_numpy()[keep],
                "n_common": nc[keep],
                "n_a": g["n_sh_a"].to_numpy(dtype="int64")[keep],
                "n_b": g["n_sh_b"].to_numpy(dtype="int64")[keep],
                "cont_a_micro": ca[keep],
                "cont_b_micro": cb[keep],
            }
        )

    exploded = ds.map_batches(explode, batch_format="pyarrow")
    partials = keyed_exchange(
        exploded, ["h"], pairs_part, _xparts(sf_dir, "documents")
    )
    return keyed_exchange(partials, ["doc_id_a", "doc_id_b"], gate, 8)


THROTTLE_W_US = 3_600_000_000  # greedy suppression window: 1 hour


def events_throttle_dedup(sf_dir: str):
    """Greedy window deduplication (ingest throttling / at-least-once
    event cleaning): within each (user, event_type) stream keep an
    event only if it is the FIRST after the previous kept event's
    ts + W — the data-dependent-boundary islands problem (a fixed
    bucket keep-first can't express it: boundaries move with the kept
    events). Deterministic order (ts, event_id); epoch-µs integer
    threshold compare, so both engines walk identical chains.

    Shape: ONE user-keyed exchange (uniform key); per (user, type) the
    greedy walk is a searchsorted JUMP loop — O(#kept · log n), not a
    per-row scan — over the ts-sorted stream. Per-key history is
    calendar-bounded, so a group fits a worker at any corpus scale.
    The oracle replays the chain exactly with a recursive CTE over
    per-key sorted arrays."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"])

    def throttle(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for (uid, et), g in df.groupby(["user_id", "event_type"], sort=False):
            g = g.sort_values(["ts", "event_id"], kind="mergesort")
            ts = g["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
            ids = g["event_id"].to_numpy(dtype="int64")
            keep_idx = []
            i, n = 0, len(ts)
            while i < n:
                keep_idx.append(i)
                i = int(np.searchsorted(ts, ts[i] + THROTTLE_W_US, side="right"))
            out.append(
                pd.DataFrame(
                    {
                        "user_id": np.int64(uid),
                        "event_type": et,
                        "event_id": ids[keep_idx],
                        "ts": ts[keep_idx].astype("datetime64[us]"),
                    }
                )
            )
        if not out:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "event_type": pd.Series(dtype="object"),
                    "event_id": pd.Series(dtype="int64"),
                    "ts": pd.Series(dtype="datetime64[us]"),
                }
            )
        return pd.concat(out, ignore_index=True)

    return keyed_exchange(ds, ["user_id"], throttle, _xparts(sf_dir, "events"))


WATERMARK_DELAY_US = 14 * 24 * 3_600_000_000  # allowed event-time lateness
WATERMARK_BUCKET_BITS = 58  # 64 arrival-range buckets (u64 >> 58)
_WM_NEG_INF = -(1 << 62)


def events_watermark_late(sf_dir: str):
    """Streaming watermark semantics (late-event detection): a stream
    processed in ARRIVAL order carries a low watermark = max event-time
    seen so far minus an allowed-lateness delay; an event whose
    event-time falls below the watermark at its arrival is late
    (dropped or side-outputed by a real ingest). The fixture has no
    arrival column (its ts is monotone in event_id), so arrival order
    is DERIVED deterministically as the md5 rank of the event id — a
    declared synthetic arrival shuffle, identical on both engines; a
    real ingest supplies its own arrival sequence through the same
    plumbing.

    Shape: the global running max over arrival order is a two-phase
    scan, like events_running_total but with MAX. Arrival keys are
    uniform u64 hashes, so their top bits RANGE-partition arrival
    order into buckets: (1) one cheap pass aggregates per-bucket max
    event-time (bucket-count rows to the driver — constant-size,
    legitimate); the driver takes the exclusive prefix max over bucket
    order and broadcasts the tiny dict; (2) ONE bucket-keyed exchange
    sorts each bucket by (arrival key, event_id), takes the exclusive
    local cummax, combines with the bucket prefix, and filters late
    rows — all epoch-µs integers, so both engines walk identical
    chains. Work per partition is bounded by the bucket; no global
    sort, no driver row traffic beyond the bucket maxima."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "events", columns=["event_id", "ts", "event_type"])

    def prep(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["event_id"].to_numpy(dtype="int64")
        ak = np.fromiter(
            (stable_u64_md5(str(int(e)).encode()) for e in ids),
            dtype=np.uint64,
            count=len(ids),
        )
        return pd.DataFrame(
            {
                "event_id": ids,
                "event_type": df["event_type"].to_numpy(dtype=object),
                "ak": ak,
                "t": df["ts"].to_numpy(dtype="datetime64[us]").astype("int64"),
                "bucket": (ak >> np.uint64(WATERMARK_BUCKET_BITS)).astype("int64"),
            }
        )

    # materialized once: both the bucket-max pass and the exchange
    # consume it (the running_total double-consumption lesson — the
    # per-event md5 would otherwise run twice)
    prepped = ds.map_batches(prep, batch_format="pandas").materialize()

    # phase 1: per-bucket max event-time (constant-size result) -> the
    # driver's exclusive prefix max over bucket order, broadcast tiny.
    bmax = (
        prepped.map_batches(
            lambda df: df.groupby("bucket", as_index=False)["t"].max(),
            batch_format="pandas",
        )
        .to_pandas()  # bounded: <= n_buckets rows per block
        .groupby("bucket", as_index=False)["t"]
        .max()
        .sort_values("bucket", ignore_index=True)
    )
    prefix = {}
    hi = _WM_NEG_INF
    for b, m in zip(bmax["bucket"], bmax["t"]):
        prefix[int(b)] = hi
        hi = max(hi, int(m))

    # phase 2: one bucket-keyed exchange; local exclusive cummax plus
    # the bucket's exclusive prefix gives the watermark at each arrival.
    def late_rows(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for b, g in df.groupby("bucket", sort=False):
            g = g.sort_values(["ak", "event_id"], kind="mergesort").reset_index(drop=True)
            t = g["t"].to_numpy(dtype="int64")
            excl = np.empty_like(t)
            excl[0] = _WM_NEG_INF
            if len(t) > 1:
                np.maximum.accumulate(t[:-1], out=excl[1:])
            wm = np.maximum(excl, prefix.get(int(b), _WM_NEG_INF)) - WATERMARK_DELAY_US
            late = t < wm
            part = g.loc[late, ["event_id", "event_type"]].reset_index(drop=True)
            part["ts"] = t[late].astype("datetime64[us]")
            part["watermark_us"] = wm[late]
            part["late_by_us"] = wm[late] - t[late]
            out.append(part)
        if not out:
            return pd.DataFrame(
                {
                    "event_id": pd.Series(dtype="int64"),
                    "event_type": pd.Series(dtype="object"),
                    "ts": pd.Series(dtype="datetime64[us]"),
                    "watermark_us": pd.Series(dtype="int64"),
                    "late_by_us": pd.Series(dtype="int64"),
                }
            )
        return pd.concat(out, ignore_index=True)

    res = keyed_exchange(prepped, ["bucket"], late_rows, _xparts(sf_dir, "events"))
    return res


HRW_NUM_SHARDS = 12


def doc_shard_assign(sf_dir: str):
    """Rendezvous (highest-random-weight) shard assignment — the
    stable resharding primitive (Thaler & Ravishankar ToN'98; what
    consistent-hashing routers and object stores use so that growing
    the shard count moves only ~1/(N+1) of keys, every moved key going
    TO the new shard). Each doc scores every shard with
    md5(doc_id:shard) and lands on the argmax.

    Shape: perfectly row-local — one map_batches pass, no exchange, no
    driver traffic; the N-way score is a (batch × N) u64 matrix argmax.
    At 100 TB this is the cheapest possible operator class (embarrassed
    parallel over blocks); determinism across engines comes from the
    md5_number_lower hash both sides share. Ties (2^-64) break to the
    lowest shard id on both engines."""
    from .kernels.hashing import stable_u64_md5

    ds = _tbl(sf_dir, "documents", columns=["doc_id"])

    def assign(df: pd.DataFrame) -> pd.DataFrame:
        ids = df["doc_id"].to_numpy(dtype="int64")
        scores = np.empty((len(ids), HRW_NUM_SHARDS), dtype=np.uint64)
        for s in range(HRW_NUM_SHARDS):
            suffix = f":{s}".encode()
            scores[:, s] = np.fromiter(
                (stable_u64_md5(str(int(d)).encode() + suffix) for d in ids),
                dtype=np.uint64,
                count=len(ids),
            )
        return pd.DataFrame(
            {"doc_id": ids, "shard": scores.argmax(axis=1).astype("int64")}
        )

    return ds.map_batches(assign, batch_format="pandas")


KMV_K = 128


def doc_source_kmv(sf_dir: str):
    """Bottom-k (KMV) sketch Jaccard between source vocabularies —
    the constant-space corpus-overlap estimator (Bar-Yossef et al.
    RANDOM'02; Beyer et al. SIGMOD'07): each source keeps only its k
    smallest distinct md5 word hashes; for a pair, the k smallest of
    the union are inspected and J ≈ |in both| / k. Estimates are
    bit-deterministic here (same md5 both engines, integer micro
    ratio, floor division) so the oracle hash-matches despite the
    operator being an approximation OF the exact Jaccard.

    Shape: per-block partials already truncate to k rows per source
    (bounded regardless of block text volume); ONE source-keyed
    exchange merges distinct bottom-k; the S×k signature table — the
    sketch, constant-size by construction — is the one legitimate
    driver collect, and the pair math is driver-local over it. At
    100 TB the corpus never moves: only k·S u64s do."""
    from .kernels.hashing import stable_u64_md5
    from .kernels.textstats import WORD_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["source", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        acc: dict[str, set[int]] = {}
        for s, t in zip(batch["source"].to_pylist(), batch["text"].to_pylist()):
            hs = acc.setdefault(s, set())
            for w in set(WORD_RE.findall(t.lower())):
                hs.add(stable_u64_md5(w.encode("utf-8")))
        rows_s, rows_h = [], []
        for s, hs in acc.items():
            for h in sorted(hs)[:KMV_K]:
                rows_s.append(s)
                rows_h.append(h)
        return pd.DataFrame(
            {"source": rows_s, "h": np.array(rows_h, dtype=np.uint64)}
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = []
        for s, g in df.groupby("source", sort=False):
            hs = np.unique(g["h"].to_numpy(dtype=np.uint64))[:KMV_K]
            out.append(pd.DataFrame({"source": s, "h": hs}))
        return pd.concat(out, ignore_index=True) if out else df.iloc[:0]

    parts = ds.map_batches(partial, batch_format="pyarrow")
    sigs = keyed_exchange(parts, ["source"], combine, 8).to_pandas()

    bysrc = {
        s: set(int(h) for h in g["h"]) for s, g in sigs.groupby("source")
    }
    srcs = sorted(bysrc)
    rows = []
    for i, a in enumerate(srcs):
        for b in srcs[i + 1 :]:
            union_k = sorted(bysrc[a] | bysrc[b])[:KMV_K]
            kk = len(union_k)
            n_common = sum(1 for h in union_k if h in bysrc[a] and h in bysrc[b])
            rows.append((a, b, kk, n_common, 1_000_000 * n_common // kk))
    return pd.DataFrame(
        rows,
        columns=["source_a", "source_b", "k_used", "n_common", "j_est_micro"],
    ).astype(
        {"k_used": "int64", "n_common": "int64", "j_est_micro": "int64"}
    )


GATE_NAMES = ["length", "stopword", "punct", "digit", "pass"]


def doc_gate_attrition(sf_dir: str):
    """First-failing-gate attrition report over the quality funnel —
    the curation ops dashboard (which gate eats the corpus?): each doc
    is attributed to the FIRST gate it fails in the declared order
    length → stopword → punct → digit, and the report carries, per
    gate, how many docs reached it and how many died there. Gate
    predicates are the quality_gate_count ones restated as integer
    cross-multiplications (20·n_stop ≥ n_words etc.) so both engines
    decide identically with no float ratios.

    Shape: row-local classification per block, per-block partial
    counts over a 5-value domain, constant-size driver combine — the
    cheapest operator class; at 100 TB the only traffic is 5 counters
    per block."""
    from .kernels.textstats import EN_STOPWORDS, PUNCT_TOKEN_RE, words
    from .kernels.tokenize import TOKEN_RE

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        counts = np.zeros(5, dtype=np.int64)
        for t in batch["text"].to_pylist():
            toks = TOKEN_RE.findall(t)
            ws = words(t)
            n_chars, n_tokens, n_words = len(t), len(toks), len(ws)
            n_punct = sum(1 for x in toks if PUNCT_TOKEN_RE.match(x))
            n_stop = sum(1 for w in ws if w in EN_STOPWORDS)
            n_digit = sum(1 for w in ws if w.isdigit())
            if not (20 <= n_chars <= 100000):
                g = 0
            elif not (n_words > 0 and 20 * n_stop >= n_words):
                g = 1
            elif not (2 * n_punct <= n_tokens):
                g = 2
            elif not (2 * n_digit <= n_words):
                g = 3
            else:
                g = 4
            counts[g] += 1
        return pd.DataFrame({"gate_idx": np.arange(5, dtype=np.int64), "n": counts})

    agg = (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby("gate_idx", as_index=False)["n"]
        .sum()
        .sort_values("gate_idx", ignore_index=True)
    )
    n = agg["n"].to_numpy()
    total = int(n.sum())
    failed_before = np.concatenate([[0], np.cumsum(n[:-1])])
    return pd.DataFrame(
        {
            "gate_idx": np.arange(5, dtype=np.int64),
            "gate": GATE_NAMES,
            "n_reached": (total - failed_before).astype("int64"),
            "n_failed_first": np.where(np.arange(5) == 4, 0, n).astype("int64"),
        }
    )


# Default doc-sample modulus for doc_dedup_eval: the ground-truth side
# is inherently Σdf²-quadratic, so the DEFAULT tier evaluates the
# banding config on an md5 doc shard (pairs within the shard); the
# uncapped full-corpus truth is an EXPLICIT opt-in (uncapped=True).
DEDUP_EVAL_SAMPLE_MOD = 2


def doc_dedup_eval(
    sf_dir: str,
    sample_mod: int = DEDUP_EVAL_SAMPLE_MOD,
    uncapped: bool = False,
):
    """LSH quality evaluation — confusion of the MinHash band
    CANDIDATE set (pre-verify bucket pairs) against exact ground truth
    (all pairs with shingle Jaccard ≥ 4/5): the measurement a curation
    team runs before trusting a banding config at corpus scale. FP =
    bucket collisions below the threshold (the verify stage's cost);
    FN = true near-dups that never collided in any band (the recall
    loss banding trades for scale). Integer micro precision/recall.

    Shape: the candidate side is the production band exchange; the
    truth side is an UNCAPPED shingle-posting exchange (work Σ df² —
    exact by construction since every J ≥ 4/5 pair shares a shingle).
    Ground truth is inherently quadratic in hot postings, so the
    eval-scale contract is now EXECUTABLE (r5): the DEFAULT tier
    restricts both sides to the md5 doc shard
    ``md5('ddeval:'||doc_id) % sample_mod == 0`` (the measurement
    generalizes, the cost doesn't — confusion over shard pairs);
    ``uncapped=True`` is the explicit full-corpus opt-in. The sampled
    confusion equals a brute-force replay on the shard exactly
    (tests/test_dedup_eval_sampling.py). The confusion join is one
    side-tagged pair-keyed exchange; only six counters reach the
    driver."""
    from .stages.dedup import (
        JACCARD_DEN,
        JACCARD_NUM,
        _band_rows_from_shingles,
        _flag,
        _flagged_bucket_pairs,
        _shingle_table,
        shingle_hashes,
    )
    from .stages.exchange import keyed_exchange

    P = _xparts(sf_dir, "documents")

    def docs():
        ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])
        if uncapped:
            return ds

        def shard(df: pd.DataFrame) -> pd.DataFrame:
            from .kernels.hashing import stable_u64_md5

            keep = [
                stable_u64_md5(f"ddeval:{d}".encode()) % sample_mod == 0
                for d in df["doc_id"]
            ]
            return df[np.asarray(keep, dtype=bool)]

        return ds.map_batches(shard, batch_format="pandas")

    # the candidate phase of stages/dedup.incremental_minhash_pairs: band
    # rows (every doc new) → band-key exchange; a pair colliding in
    # several bands arrives once per band, so ``confuse`` dedups it
    bands = (
        docs()
        .map_batches(_shingle_table, batch_format="pyarrow")
        .map_batches(_band_rows_from_shingles, batch_format="pyarrow")
        .map_batches(_flag(1), batch_format="pyarrow")
    )
    cands = keyed_exchange(bands, ["band_key"], _flagged_bucket_pairs, P)

    def postings(batch: pa.Table) -> pd.DataFrame:
        ids, hs, tots = [], [], []
        cache: dict = {}
        for doc_id, text in zip(batch["doc_id"].to_pylist(), batch["text"].to_pylist()):
            hv = shingle_hashes(text, cache=cache)
            n = len(hv)
            for h in hv.view(np.int64).tolist():
                ids.append(doc_id)
                hs.append(h)
                tots.append(n)
        return pd.DataFrame(
            {
                "doc_id": np.array(ids, dtype=np.int64),
                "h": np.array(hs, dtype=np.int64),
                "n_sh": np.array(tots, dtype=np.int64),
            }
        )

    def pairs_in_posting(df: pd.DataFrame) -> pd.DataFrame:
        # one self-merge per posting: every pair of its rows once, in
        # doc_id order (the rank keeps a repeated doc_id's rows apart)
        d = df.sort_values(["h", "doc_id"], kind="stable")
        d = d[d.groupby("h")["doc_id"].transform("size") >= 2]
        d = d.assign(r=d.groupby("h").cumcount())
        m = d.merge(d, on="h", suffixes=("_a", "_b"))
        m = m[m["r_a"] < m["r_b"]]
        return pd.DataFrame(
            {
                "doc_id_a": m["doc_id_a"].to_numpy(),
                "doc_id_b": m["doc_id_b"].to_numpy(),
                "n_a": m["n_sh_a"].to_numpy(),
                "n_b": m["n_sh_b"].to_numpy(),
            }
        ).astype("int64")

    def pair_gate(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby(["doc_id_a", "doc_id_b", "n_a", "n_b"], as_index=False)
            .size()
            .rename(columns={"size": "nc"})
        )
        nu = g["n_a"] + g["n_b"] - g["nc"]
        keep = JACCARD_DEN * g["nc"] >= JACCARD_NUM * nu
        return g.loc[keep, ["doc_id_a", "doc_id_b"]]

    posts = docs().map_batches(postings, batch_format="pyarrow")
    pair_parts = keyed_exchange(posts, ["h"], pairs_in_posting, P)
    truth = keyed_exchange(pair_parts, ["doc_id_a", "doc_id_b"], pair_gate, P)

    c_t = cands.map_batches(
        lambda df: df[["doc_id_a", "doc_id_b"]].assign(side=np.int64(0)),
        batch_format="pandas",
    )
    t_t = truth.map_batches(
        lambda df: df.assign(side=np.int64(1)), batch_format="pandas"
    )

    def confuse(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        g = df.groupby(["doc_id_a", "doc_id_b"])["side"].agg(["min", "count"])
        tp = int((g["count"] == 2).sum())
        fp = int(((g["count"] == 1) & (g["min"] == 0)).sum())
        fn = int(((g["count"] == 1) & (g["min"] == 1)).sum())
        return pd.DataFrame({"tp": [tp], "fp": [fp], "fn": [fn]})

    parts = keyed_exchange(
        c_t.union(t_t), ["doc_id_a", "doc_id_b"], confuse, P
    ).to_pandas()
    tp, fp, fn = int(parts["tp"].sum()), int(parts["fp"].sum()), int(parts["fn"].sum())
    n_cand, n_true = tp + fp, tp + fn
    return pd.DataFrame(
        {
            "n_candidates": [n_cand],
            "n_true": [n_true],
            "tp": [tp],
            "fp": [fp],
            "fn": [fn],
            "precision_micro": [1_000_000 * tp // n_cand if n_cand else 0],
            "recall_micro": [1_000_000 * tp // n_true if n_true else 0],
        }
    ).astype("int64")


def events_session_trigrams(sf_dir: str):
    """Sequential pattern mining (contiguous length-3 behavior motifs
    within 30-min sessions — the PrefixSpan-lite funnel-discovery
    pass). Trigram domain is |event_type|³ — BOUNDED — so after ONE
    user-keyed exchange (sessionize + vectorized shift-mask trigram
    count per partition) the partial counts are a ≤125-row table per
    partition and the global combine is a constant-size driver fold,
    the same class as doc_gate_attrition. Session rule is identical to
    events_sessions (strict 30-min gap, (ts, event_id) order) so the
    two operators can't drift."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("user_id", sort=False):
            g = g.sort_values(["ts", "event_id"], kind="mergesort").reset_index(drop=True)
            gap = g["ts"].diff()
            sess = (gap.isna() | (gap > pd.Timedelta(minutes=30))).cumsum()
            t = pd.DataFrame(
                {
                    "t1": g["event_type"],
                    "t2": g["event_type"].shift(-1),
                    "t3": g["event_type"].shift(-2),
                    "same": (sess == sess.shift(-1)) & (sess == sess.shift(-2)),
                }
            )
            outs.append(t[t["same"]].drop(columns="same"))
        if not outs:
            return pd.DataFrame(
                {
                    "t1": pd.Series(dtype="object"),
                    "t2": pd.Series(dtype="object"),
                    "t3": pd.Series(dtype="object"),
                    "n_occurrences": pd.Series(dtype="int64"),
                }
            )
        tri = pd.concat(outs, ignore_index=True)
        return (
            tri.groupby(["t1", "t2", "t3"], as_index=False)
            .size()
            .rename(columns={"size": "n_occurrences"})
            .astype({"n_occurrences": "int64"})
        )

    parts = keyed_exchange(ds, ["user_id"], partial, _xparts(sf_dir, "events"))
    return (
        parts.to_pandas()
        .groupby(["t1", "t2", "t3"], as_index=False)["n_occurrences"]
        .sum()
        .astype({"n_occurrences": "int64"})
    )


NUCLEUS_NUM, NUCLEUS_DEN = 9, 10  # keep the minimal prefix with >= 90% mass


def doc_nucleus_cut(sf_dir: str):
    """Per-source nucleus (top-p) cut — keep, per source, the MINIMAL
    prefix of docs in (n_chars desc, doc_id asc) order whose cumulative
    length reaches ≥ 90% of the source's total: the mass-targeted
    sibling of count-targeted top-N sampling (doc_stratified_topn), the
    shape nucleus sampling applies to token distributions. A doc is
    kept iff its EXCLUSIVE running total is still short of the target
    (10·cum_before < 9·total — all integer, no float shares).

    Shape: ONE source-keyed exchange; per source a vectorized sort +
    cumsum. Source cardinality is corpus-scale-friendly (groups are
    per-source, not per-doc); a pathologically hot source bounds one
    partition — the doc_stratified_topn caveat applies and the same
    per-block pre-truncation fix would ride here (a block's docs below
    its local 90% prefix can never enter the global prefix... they CAN
    — pre-truncation is NOT sound for mass targets, so this operator
    ships the full source through the exchange and says so)."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["doc_id", "source", "n_chars"])

    def cut(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("source", sort=False):
            g = g.sort_values(
                ["n_chars", "doc_id"], ascending=[False, True], kind="mergesort"
            ).reset_index(drop=True)
            n = g["n_chars"].to_numpy(dtype="int64")
            total = int(n.sum())
            cum_before = np.concatenate([[0], np.cumsum(n[:-1])])
            keep = NUCLEUS_DEN * cum_before < NUCLEUS_NUM * total
            kept = g.loc[keep, ["doc_id", "source", "n_chars"]].reset_index(drop=True)
            kept["cum_chars"] = np.cumsum(n[keep]).astype("int64")
            outs.append(kept)
        return pd.concat(outs, ignore_index=True) if outs else pd.DataFrame(
            {
                "doc_id": pd.Series(dtype="int64"),
                "source": pd.Series(dtype="object"),
                "n_chars": pd.Series(dtype="int64"),
                "cum_chars": pd.Series(dtype="int64"),
            }
        )

    return keyed_exchange(ds, ["source"], cut, _xparts(sf_dir, "documents"))


MRL_TRUNC_DIM = 32  # Matryoshka-style prefix truncation (64 -> 32 dims)


def emb_dim_truncation_eval(sf_dir: str):
    """Matryoshka-style dimension-truncation evaluation (Kusupati et
    al. NeurIPS'22 shape): retrieval recall@k of PREFIX-TRUNCATED
    embeddings (first 32 of 64 dims, renormalized) against the
    full-dimension exact top-k — the measurement that justifies
    serving a cheaper index. Per query: |top-k ∩ top-k_trunc| and the
    integer micro recall.

    Shape: ONE scan computes BOTH rankings (two matmuls per batch
    against the broadcast query matrix — the ann_topk partial-top-k
    pattern, candidate stream O(batches·Q·k) each); the per-query
    merge and overlap count are Q·k-bounded driver work. Float-tie
    determinism rides the same (cos desc, vid asc) tie-break contract
    the existing ANN oracles hold on this fixture."""
    emb_path = os.path.join(sf_dir, "embeddings.parquet")
    qt = pq.read_table(
        emb_path,
        columns=["vec_id", "embedding"],
        filters=[("vec_id", "<", ANN_N_QUERIES)],
    )
    qdf = qt.to_pandas()
    qdf = qdf[qdf["vec_id"] < ANN_N_QUERIES].sort_values("vec_id")
    qids = qdf["vec_id"].to_numpy()
    qm = np.stack(qdf["embedding"].to_numpy()).astype(np.float64)
    qfull = qm / np.linalg.norm(qm, axis=1, keepdims=True)
    qtr = qm[:, :MRL_TRUNC_DIM] / np.linalg.norm(
        qm[:, :MRL_TRUNC_DIM], axis=1, keepdims=True
    )
    q_ref = ray.put((qids, qfull, qtr))

    ds = rd.read_parquet(emb_path, columns=["vec_id", "embedding"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        from .state.broadcast import resolve

        qids_, qf, qt_ = resolve(q_ref)
        vids = np.asarray(batch["vec_id"].to_pylist())
        mat = np.stack(
            [np.asarray(x, dtype=np.float64) for x in batch["embedding"].to_pylist()]
        )
        full = mat / np.linalg.norm(mat, axis=1, keepdims=True)
        tr = mat[:, :MRL_TRUNC_DIM] / np.linalg.norm(
            mat[:, :MRL_TRUNC_DIM], axis=1, keepdims=True
        )
        rows = []
        k = min(ANN_K + 1, len(vids))
        for side, cos in ((0, qf @ full.T), (1, qt_ @ tr.T)):
            for qi, qid in enumerate(qids_):
                idx = np.argpartition(-cos[qi], k - 1)[:k]
                for j in idx:
                    if vids[j] == qid:
                        continue
                    rows.append((side, int(qid), int(vids[j]), float(cos[qi, j])))
        return pd.DataFrame(rows, columns=["side", "query_id", "neighbor_id", "cos"])

    partials = ds.map_batches(partial, batch_format="pyarrow", batch_size=2048)
    df = partials.to_pandas()  # bounded: O(batches * Q * k * 2)
    out = []
    for qid, g in df.groupby("query_id", sort=True):
        tops = {}
        for side, gs in g.groupby("side"):
            gs = gs.sort_values(["cos", "neighbor_id"], ascending=[False, True])
            tops[side] = set(gs["neighbor_id"].head(ANN_K))
        n_overlap = len(tops.get(0, set()) & tops.get(1, set()))
        out.append((int(qid), n_overlap, 1_000_000 * n_overlap // ANN_K))
    return pd.DataFrame(
        out, columns=["query_id", "n_overlap", "recall_micro"]
    ).astype("int64")

def doc_skyline(sf_dir: str):
    """Skyline / Pareto-frontier query (Börzsönyi ICDE'01): documents
    not DOMINATED on (n_tokens, swr_milli) — dominated means another
    doc is ≥ on both dims and > on at least one; full ties survive
    together. The curation use: the quality-length frontier is the
    candidate set for any monotone quality×length score, whatever the
    weights end up being.

    Shape: the skyline algebra distributes for free — skyline(A ∪ B)
    ⊆ skyline(A) ∪ skyline(B) — so each block emits its LOCAL frontier
    (vectorized group-max + running-max pass) and one final merge over
    the bounded union of partials finishes exactly. No exchange at
    all; the frontier of a 2-D integer domain is at most one row-group
    per distinct n_tokens regardless of corpus size. A row survives
    iff its swr equals its length-group's max AND that max strictly
    exceeds every strictly-longer group's max — integer metrics, so
    dominance is exact on both engines."""
    mds = _quality_metrics(sf_dir)

    def local_frontier(df: pd.DataFrame) -> pd.DataFrame:
        gmax = (
            df.groupby("n_tokens")["swr_milli"]
            .max()
            .sort_index(ascending=False)
        )
        excl = gmax.cummax().shift(1, fill_value=-1)
        alive = gmax[gmax > excl]  # groups whose max beats all longer groups
        m = df.merge(
            alive.rename("gmax"), left_on="n_tokens", right_index=True, how="inner"
        )
        m = m[m["swr_milli"] == m["gmax"]]
        return m[["doc_id", "n_tokens", "swr_milli"]]

    parts = mds.map_batches(
        local_frontier, batch_format="pandas"
    ).to_pandas()  # bounded: union of per-block frontiers
    return local_frontier(parts).sort_values("doc_id", ignore_index=True)


def events_hll_eval(sf_dir: str):
    """Sketch audit — HyperLogLog estimate vs exact distinct users per
    event type, with the integer micro relative error: the measurement
    that turns 'trust the sketch' into a number, run on a sample shard
    before the sketch is deployed corpus-wide. Upgrades the HLL family
    from rows-only to value-verified: the estimate is bit-deterministic
    (md5 hashing; the register inverse-power sum is a sum of multiples
    of 2⁻⁴¹ below 2¹², hence EXACT in float64 in any order), so the
    whole row hash-matches a full SQL replay of the sketch.

    Shape: sketch side = per-block 4KB register partials, elementwise
    max combine (no per-key shuffle); exact side = per-block distinct
    (type, user) pairs through one pair-keyed exchange with per-type
    counts driver-folded over the type domain (bounded). At 100 TB the
    exact side is the expensive one — which is the point the audit
    makes."""
    from .kernels.sketch import hll_add_values, hll_empty, hll_estimate, hll_merge
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "events", columns=["event_type", "user_id"])

    def sk_partial(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type", sort=False):
            reg = hll_empty()
            hll_add_values(reg, g["user_id"].to_numpy())
            rows.append((etype, reg.tobytes()))
        return pd.DataFrame(rows, columns=["event_type", "registers"])

    def sk_combine(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for etype, g in df.groupby("event_type", sort=True):
            reg = hll_empty()
            for b in g["registers"]:
                reg = hll_merge(reg, np.frombuffer(b, dtype=np.uint8).copy())
            rows.append((etype, hll_estimate(reg)))
        return pd.DataFrame(rows, columns=["event_type", "n_est"]).astype(
            {"n_est": "int64"}
        )

    est = keyed_exchange(
        ds.map_batches(sk_partial, batch_format="pandas"),
        ["event_type"],
        sk_combine,
        2,
    ).to_pandas()

    def ex_partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.drop_duplicates()

    def ex_count(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.drop_duplicates()
            .groupby("event_type", as_index=False)
            .size()
            .rename(columns={"size": "n"})
        )

    exact = (
        keyed_exchange(
            ds.map_batches(ex_partial, batch_format="pandas"),
            ["event_type", "user_id"],
            ex_count,
            _xparts(sf_dir, "events"),
        )
        .to_pandas()
        .groupby("event_type", as_index=False)["n"]
        .sum()
        .rename(columns={"n": "n_exact"})
    )

    out = exact.merge(est, on="event_type").sort_values(
        "event_type", ignore_index=True
    )
    out["err_micro"] = (
        1_000_000 * (out["n_est"] - out["n_exact"]).abs() // out["n_exact"]
    )
    return out.astype({"n_exact": "int64", "n_est": "int64", "err_micro": "int64"})


ORPHAN_W_US = 3_600_000_000  # attribution window: 1 hour


def events_orphan_purchases(sf_dir: str):
    """Temporal ANTI-join (attribution gap detection): purchases with
    NO 'view' by the same user in the preceding hour — the absence
    complement of events_asof (which finds the nearest preceding
    match). Real ingests run this as the funnel-integrity alarm:
    orphan conversions mean lost tracking upstream.

    Shape: ONE user-keyed exchange ships both sides of a user's stream
    together (side-filtered at the read: only purchase + view rows);
    per user the absence test is a vectorized searchsorted — a
    purchase is orphan iff the count of views with ts in
    (p_ts − W, p_ts] is zero (epoch-µs integers, half-open on the old
    edge, inclusive of simultaneous views, matching the SQL EXISTS
    range). Per-key history is calendar-bounded; no all-pairs, no
    driver traffic."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(
        sf_dir, "events", columns=["event_id", "ts", "user_id", "event_type"]
    ).map_batches(
        lambda df: df[df["event_type"].isin(("purchase", "view"))],
        batch_format="pandas",
    )

    def orphans(df: pd.DataFrame) -> pd.DataFrame:
        outs = []
        for _, g in df.groupby("user_id", sort=False):
            p = g[g["event_type"] == "purchase"]
            if p.empty:
                continue
            vts = np.sort(
                g.loc[g["event_type"] == "view", "ts"]
                .to_numpy(dtype="datetime64[us]")
                .astype("int64")
            )
            pts = p["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
            lo = np.searchsorted(vts, pts - ORPHAN_W_US, side="right")
            hi = np.searchsorted(vts, pts, side="right")
            orphan = (hi - lo) == 0
            outs.append(
                p.loc[orphan, ["user_id", "event_id", "ts"]].reset_index(drop=True)
            )
        if not outs:
            return pd.DataFrame(
                {
                    "user_id": pd.Series(dtype="int64"),
                    "event_id": pd.Series(dtype="int64"),
                    "ts": pd.Series(dtype="datetime64[us]"),
                }
            )
        return pd.concat(outs, ignore_index=True)

    return keyed_exchange(ds, ["user_id"], orphans, _xparts(sf_dir, "events"))


def doc_source_regression(sf_dir: str):
    """Distributed sufficient statistics + OLS slope per source — the
    single-pass moments family every large-scale regression/corr
    computation reduces to: per block, integer partials (n, Σx, Σy,
    Σxy, Σx², with x = token count, y = char count); one source-keyed
    fold; slope of y on x emitted as integer milli via Python-int
    arithmetic (the numerator n·Σxy − Σx·Σy overflows int64 at corpus
    scale — the kg_edge_lift lesson — so the per-source finalize uses
    unbounded ints and only the bounded milli ratio returns).

    Shape: map-side partials shrink every block to ≤|sources| rows
    before the exchange; the moments are associative so the combine is
    a plain sum. At 100 TB the int64 partial sums are the declared
    bound: Σx² per BLOCK stays < 2⁶³ for any realistic block size, and
    the cross-block fold runs in Python ints."""
    from .kernels.tokenize import TOKEN_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["source", "text", "n_chars"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        src = batch["source"].to_pylist()
        nch = batch["n_chars"].to_pylist()
        ntok = [len(TOKEN_RE.findall(t)) for t in batch["text"].to_pylist()]
        df = pd.DataFrame(
            {
                "source": src,
                "n": np.int64(1),
                "sx": np.array(ntok, dtype=np.int64),
                "sy": np.array(nch, dtype=np.int64),
            }
        )
        df["sxy"] = df["sx"] * df["sy"]
        df["sxx"] = df["sx"] * df["sx"]
        return df.groupby("source", as_index=False).sum()

    def finalize(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("source", as_index=False).sum()
        rows = []
        for _, r in g.iterrows():
            n, sx, sy, sxy, sxx = (
                int(r["n"]),
                int(r["sx"]),
                int(r["sy"]),
                int(r["sxy"]),
                int(r["sxx"]),
            )
            num = n * sxy - sx * sy
            den = n * sxx - sx * sx
            # truncate toward zero (DuckDB // semantics), not Python floor
            slope_milli = (
                (abs(1000 * num) // abs(den)) * (1 if (num >= 0) == (den > 0) else -1)
                if den
                else 0
            )
            rows.append((r["source"], n, sx, sy, sxy, sxx, slope_milli))
        return pd.DataFrame(
            rows,
            columns=["source", "n_docs", "sum_x", "sum_y", "sum_xy", "sum_xx", "slope_milli"],
        ).astype(
            {
                "n_docs": "int64",
                "sum_x": "int64",
                "sum_y": "int64",
                "sum_xy": "int64",
                "sum_xx": "int64",
                "slope_milli": "int64",
            }
        )

    parts = ds.map_batches(partial, batch_format="pyarrow")
    return keyed_exchange(parts, ["source"], finalize, 4)


def kg_degree_distribution(sf_dir: str):
    """Log2-bucketed degree distribution of the canonical KG — the
    graph-shape audit (is the KG scale-free? is one hub eating the
    exchange?) run before any per-node iteration is sized. Degree =
    total WEIGHTED incidence (sum of incident edge weights, both
    directions — the exchange-volume proxy; distinct-neighbor degree
    is near-constant on a dense alias graph and says nothing); bucket
    = floor(log2(degree)) + 1, computed EXACTLY on both engines as the
    binary-string length of the integer degree (the events_hll_eval
    bin() trick — no float log).

    Shape: rides the kg_edges pipeline (cached annotations); both edge
    directions emit map-side (node, weight) partials pre-summed per
    block, ONE node-keyed exchange folds them, and the bucket fold is
    a ≤64-row driver combine."""
    from .stages.exchange import keyed_exchange

    edges = kg_edges(sf_dir)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        a = df[["subj_cui", "weight"]].rename(columns={"subj_cui": "node"})
        b = df[["obj_cui", "weight"]].rename(columns={"obj_cui": "node"})
        both = pd.concat([a, b], ignore_index=True)
        return both.groupby("node", as_index=False)["weight"].sum()

    def deg(df: pd.DataFrame) -> pd.DataFrame:
        d = df.groupby("node", as_index=False)["weight"].sum()
        d["bucket"] = [len(bin(int(x))) - 2 for x in d["weight"]]
        return (
            d.groupby("bucket", as_index=False)
            .size()
            .rename(columns={"size": "n_nodes"})
        )

    parts = keyed_exchange(
        edges.map_batches(emit, batch_format="pandas"), ["node"], deg, 4
    )
    return (
        parts.to_pandas()
        .groupby("bucket", as_index=False)["n_nodes"]
        .sum()
        .astype({"bucket": "int64", "n_nodes": "int64"})
    )


EPOCH_SHUFFLE_EPOCHS = 2
EPOCH_SHARDS = 16
EPOCH_SHUFFLE_HEAD = 200  # driver-bounded audit head per epoch


def doc_epoch_shuffle(sf_dir: str):
    """Two-level multi-epoch shuffle — the streaming-dataset access
    pattern (MosaicML/StreamingDataset, tf.data shard-shuffle): shard
    membership is FIXED (locality: a shard is a file a reader opens
    once), but each epoch draws a fresh global shard ORDER and a fresh
    within-shard doc order, so no two epochs replay the same sequence
    while reads stay shard-sequential. All three keys are seeded md5
    (retry/process-stable, SQL-replayable); the full order is defined
    at any scale by the composite sort key (epoch, shard_key, doc_key,
    doc_id) — a full run would write_parquet the sorted stream; the
    query returns the driver-bounded audit head per epoch with global
    positions.

    Shape: one row-local key pass (docs × E epochs flat map), ONE
    distributed range-partition sort, bounded head — the
    doc_training_order discipline with the two-level key on top."""
    heads = []
    for e in range(EPOCH_SHUFFLE_EPOCHS):

        def keys(batch: pa.Table, _e=e) -> pa.Table:
            from .kernels.hashing import stable_u64_md5

            ids = batch["doc_id"].to_pylist()
            shards = [
                stable_u64_md5(f"eshard:{i}".encode()) % EPOCH_SHARDS
                for i in ids
            ]
            sk_hi, sk_lo = _md5_order_parts(
                [f"s{s}" for s in shards], f"e{_e}"
            )
            dk_hi, dk_lo = _md5_order_parts([f"d{i}" for i in ids], f"e{_e}")
            return pa.table(
                {
                    "doc_id": pa.array(ids, pa.int64()),
                    "shard": pa.array(shards, pa.int64()),
                    "sk_hi": pa.array(sk_hi, pa.int64()),
                    "sk_lo": pa.array(sk_lo, pa.int64()),
                    "dk_hi": pa.array(dk_hi, pa.int64()),
                    "dk_lo": pa.array(dk_lo, pa.int64()),
                }
            )

        ds = _tbl(sf_dir, "documents", columns=["doc_id"])
        he = (
            ds.map_batches(keys, batch_format="pyarrow")
            .sort(["sk_hi", "sk_lo", "dk_hi", "dk_lo", "doc_id"])
            .limit(EPOCH_SHUFFLE_HEAD)
            .to_pandas()
            .reset_index(drop=True)
        )
        he["epoch"] = np.int64(e)
        he["position"] = he.index.astype("int64")
        heads.append(he[["epoch", "doc_id", "shard", "position"]])
    return pd.concat(heads, ignore_index=True)


def doc_langid_eval(sf_dir: str):
    """Language-ID confusion matrix — the model-eval counterpart of
    doc_langid (predicted stopword-vote language vs the corpus's lang
    label), the audit a curation team runs before trusting the cheap
    heuristic to route a 100 TB corpus. Output is the (lang, lang_pred)
    contingency table with per-cell counts.

    Shape: row-local prediction per block (the doc_langid kernel),
    per-block partial counts over the bounded |langs|² domain,
    constant-size driver fold — the doc_gate_attrition operator
    class."""
    ds = _tbl(sf_dir, "documents", columns=["lang", "text"])

    def partial(batch: pa.Table) -> pd.DataFrame:
        langs = batch["lang"].to_pylist()
        preds = [detect_lang(t) for t in batch["text"].to_pylist()]
        return (
            pd.DataFrame({"lang": langs, "lang_pred": preds})
            .groupby(["lang", "lang_pred"], as_index=False)
            .size()
            .rename(columns={"size": "n_docs"})
        )

    return (
        ds.map_batches(partial, batch_format="pyarrow")
        .to_pandas()
        .groupby(["lang", "lang_pred"], as_index=False)["n_docs"]
        .sum()
        .astype({"n_docs": "int64"})
    )


CMS_EXACT_T = 200  # heavy-hitter threshold (exact count)


def doc_heavy_hitters_exact(sf_dir: str):
    """Two-pass exact heavy hitters — the production CMS pattern: pass
    1 folds block-exact word counts into Count-Min sketches (128 KiB
    each, driver-summed — associative, partitioning-independent); pass
    2 re-scans, gates each distinct word by its GLOBAL sketch estimate
    (est ≥ T), and exactly counts the survivors through one word-keyed
    exchange. Because CMS never undercounts, the candidate set is a
    SUPERSET of the true heavy set, so the exact verify returns
    precisely {word : true count ≥ T} — the sketch buys a second-pass
    candidate filter, not an approximation. Upgrades the CMS family
    from rows-only to value-verified: the oracle replays the summed
    sketch cell-for-cell in SQL (md5 columns, min over rows).

    Shape: two streaming scans; the sketch broadcast is 128 KiB
    regardless of corpus size; exchange volume is only the gated
    candidates (vocab with est ≥ T — the heavy tail by construction)."""
    from .kernels.sketch import CMS_D, CMS_W, cms_empty, cms_query
    from .kernels.textstats import WORD_RE
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["text"])

    def block_sketch(df: pd.DataFrame) -> pd.DataFrame:
        from .kernels.sketch import cms_add

        words: dict[str, int] = {}
        for t in df["text"]:
            for w in WORD_RE.findall(t.lower()):
                words[w] = words.get(w, 0) + 1
        sk = cms_empty()
        cms_add(sk, list(words.keys()), list(words.values()))
        return pd.DataFrame({"cms": [sk.tobytes()]})

    parts = ds.map_batches(block_sketch, batch_format="pandas").to_pandas()
    sketch = cms_empty()
    for blob in parts["cms"]:
        sketch += np.frombuffer(blob, dtype=np.int64).reshape(CMS_D, CMS_W)
    sk_ref = ray.put(sketch)

    def gated_counts(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        sk = resolve(sk_ref)
        words: dict[str, int] = {}
        for t in df["text"]:
            for w in WORD_RE.findall(t.lower()):
                words[w] = words.get(w, 0) + 1
        ws = list(words.keys())
        est = cms_query(sk, ws)
        keep = est >= CMS_EXACT_T
        return pd.DataFrame(
            {
                "word": [w for w, k in zip(ws, keep) if k],
                "n": np.array(
                    [words[w] for w, k in zip(ws, keep) if k], dtype=np.int64
                ),
            }
        )

    def verify(df: pd.DataFrame) -> pd.DataFrame:
        from .state.broadcast import resolve

        sk = resolve(sk_ref)
        g = df.groupby("word", as_index=False)["n"].sum()
        g = g[g["n"] >= CMS_EXACT_T].reset_index(drop=True)
        g["n_est"] = cms_query(sk, list(g["word"])) if len(g) else np.array([], dtype=np.int64)
        return g.rename(columns={"n": "n_exact"}).astype(
            {"n_exact": "int64", "n_est": "int64"}
        )

    gated = ds.map_batches(gated_counts, batch_format="pandas")
    return keyed_exchange(gated, ["word"], verify, _xparts(sf_dir, "documents"))


KG_ACTIVITY_GAP_US = 3 * 24 * 3_600_000_000  # 3 idle days close an interval


def kg_edge_activity_intervals(sf_dir: str):
    """Edge activity intervals — SCD2-style validity windows for the
    temporal KG: per canonical edge, gaps-and-islands over its
    supporting turn timestamps (a gap > 3 days closes the interval),
    each interval carrying [start, end] and its support count. The
    temporal complement of kg_edge_provenance's single first/last
    span: an edge that flares up twice shows two intervals, which is
    what freshness/decay policies actually want to know.

    Shape: the per-turn edge partials of ``_turn_partials`` (each with
    its turn's cached ``ts_us``) land in ONE edge-keyed exchange where
    the island walk is a vectorized diff/cumsum over the (edge,
    ts)-sorted support rows; per-edge support is weight-bounded, so a
    group fits a worker at any corpus scale."""
    from .stages.exchange import keyed_exchange

    def islands(df: pd.DataFrame) -> pd.DataFrame:
        g = (
            df.groupby([*_EDGE, "ts_us"], sort=False)["n"]
            .sum()
            .reset_index()
            .sort_values([*_EDGE, "ts_us"], ignore_index=True)
        )
        # an interval opens at an edge's first support row and after
        # every gap > KG_ACTIVITY_GAP_US; its index counts from 1 per edge
        first = (g[_EDGE] != g[_EDGE].shift()).any(axis=1)
        opens = (first | (g["ts_us"].diff() > KG_ACTIVITY_GAP_US)).astype("int64")
        g["interval_idx"] = opens.groupby([g[k] for k in _EDGE], sort=False).cumsum()
        out = (
            g.groupby([*_EDGE, "interval_idx"], sort=False)
            .agg(start=("ts_us", "min"), end=("ts_us", "max"), n_support=("n", "sum"))
            .reset_index()
        )
        return pd.DataFrame(
            {
                "subj_cui": out["subj_cui"],
                "pred": out["pred"],
                "obj_cui": out["obj_cui"],
                "interval_idx": out["interval_idx"].astype("int64"),
                "start_ts": out["start"].to_numpy(dtype="int64").astype("datetime64[us]"),
                "end_ts": out["end"].to_numpy(dtype="int64").astype("datetime64[us]"),
                "n_support": out["n_support"].astype("int64"),
            }
        )

    return keyed_exchange(_turn_partials(sf_dir), _EDGE, islands, 8)


Q3_SEGMENT = "BUILDING"
Q3_DATE = "1998-06-01"


def segment_unshipped_topk(sf_dir: str):
    """TPC-H-Q3-shaped shipping-priority query: top-10 orders by
    outstanding revenue among BUILDING-segment orders placed before
    the cutoff whose lines ship after it — the filtered three-way
    fact join + top-k every warehouse runs at quarter close.

    Shape: the customer segment filter is a broadcast id-set lookup
    (dimension-bounded); orders and lineitem co-partition through ONE
    side-tagged keyed exchange on the order key (the
    region_local_volume pattern) where the date filters are applied
    row-local BEFORE the exchange (prune at the scan, not after the
    shuffle); per-partition revenue partials keep only local top-10 so
    the driver merge is partitions×10 rows. Revenue integer-exact:
    cents × (100 − discount_pct)."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"),
        columns=["c_custkey", "c_mktsegment"],
    ).to_pandas()
    seg_ref = ray.put(
        set(cust.loc[cust["c_mktsegment"] == Q3_SEGMENT, "c_custkey"].astype(int))
    )
    cutoff = np.datetime64(Q3_DATE, "us")

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_custkey", "o_orderdate"],
    )
    lines = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        seg = resolve(seg_ref)
        keep = df["o_custkey"].isin(seg) & (
            df["o_orderdate"].to_numpy(dtype="datetime64[us]") < cutoff
        )
        d = df.loc[keep]
        return pd.DataFrame(
            {
                "okey": d["o_orderkey"].astype("int64"),
                "side": np.int64(0),
                "odate_us": d["o_orderdate"]
                .to_numpy(dtype="datetime64[us]")
                .astype("int64"),
                "rev": np.int64(0),
            }
        )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        keep = df["l_shipdate"].to_numpy(dtype="datetime64[us]") > cutoff
        d = df.loc[keep]
        cents = (d["l_extendedprice"] * 100).round().astype("int64")
        disc = (d["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "okey": d["l_orderkey"].astype("int64"),
                "side": np.int64(1),
                "odate_us": np.int64(0),
                "rev": (cents * (100 - disc)).astype("int64"),
            }
        )

    def join_topk(df: pd.DataFrame) -> pd.DataFrame:
        o = df.loc[df["side"] == 0, ["okey", "odate_us"]]
        l = (
            df.loc[df["side"] == 1]
            .groupby("okey", as_index=False)["rev"]
            .sum()
        )
        m = o.merge(l, on="okey", how="inner")
        m = m[m["rev"] > 0]
        return m.sort_values(
            ["rev", "odate_us", "okey"], ascending=[False, True, True]
        ).head(10)

    both = orders.map_batches(o_side, batch_format="pandas").union(
        lines.map_batches(l_side, batch_format="pandas")
    )
    parts = keyed_exchange(
        both, ["okey"], join_topk, _xparts(sf_dir, "orders", "lineitem")
    ).to_pandas()
    top = parts.sort_values(
        ["rev", "odate_us", "okey"], ascending=[False, True, True]
    ).head(10)
    return pd.DataFrame(
        {
            "o_orderkey": top["okey"].astype("int64"),
            "o_orderdate": top["odate_us"].to_numpy(dtype="int64").astype("datetime64[us]"),
            "revenue": top["rev"].astype("int64"),
        }
    ).reset_index(drop=True)


Q4_LATE_DAYS = 60


def order_priority_late_counts(sf_dir: str):
    """TPC-H-Q4-shaped order-priority check: per priority class, how
    many orders have AT LEAST ONE line shipping more than 60 days
    after the order date — the EXISTS semi-join whose defining trap is
    that a naive join+count double-counts orders with several late
    lines; the dedup must happen BEFORE the aggregate.

    Shape: orders and lineitem co-partition through ONE side-tagged
    order-key exchange (the segment_unshipped_topk pattern); per
    partition the EXISTS collapses to a vectorized any()-per-order
    merge, and the per-priority counts (domain ≤ 5) fold constant-size
    on the driver. Date math in epoch-µs integers on both engines."""
    from .stages.exchange import keyed_exchange

    day_us = 24 * 3_600_000_000

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"),
        columns=["o_orderkey", "o_orderdate", "o_orderpriority"],
    )
    lines = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_shipdate"],
    )

    def o_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": df["o_orderkey"].astype("int64"),
                "side": np.int64(0),
                "prio": df["o_orderpriority"].to_numpy(dtype=object),
                "t_us": df["o_orderdate"]
                .to_numpy(dtype="datetime64[us]")
                .astype("int64"),
            }
        )

    def l_side(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "okey": df["l_orderkey"].astype("int64"),
                "side": np.int64(1),
                "prio": "",
                "t_us": df["l_shipdate"]
                .to_numpy(dtype="datetime64[us]")
                .astype("int64"),
            }
        )

    def exists_counts(df: pd.DataFrame) -> pd.DataFrame:
        o = df.loc[df["side"] == 0, ["okey", "prio", "t_us"]].rename(
            columns={"t_us": "odate"}
        )
        l = (
            df.loc[df["side"] == 1, ["okey", "t_us"]]
            .groupby("okey", as_index=False)["t_us"]
            .max()
            .rename(columns={"t_us": "max_ship"})
        )
        m = o.merge(l, on="okey", how="inner")
        late = m[m["max_ship"] > m["odate"] + Q4_LATE_DAYS * day_us]
        return (
            late.groupby("prio", as_index=False)
            .size()
            .rename(columns={"size": "n_orders", "prio": "o_orderpriority"})
        )

    both = orders.map_batches(o_side, batch_format="pandas").union(
        lines.map_batches(l_side, batch_format="pandas")
    )
    parts = keyed_exchange(
        both, ["okey"], exists_counts, _xparts(sf_dir, "orders", "lineitem")
    )
    return (
        parts.to_pandas()
        .groupby("o_orderpriority", as_index=False)["n_orders"]
        .sum()
        .astype({"n_orders": "int64"})
    )


def nation_revenue_share(sf_dir: str):
    """Ratio-to-report window shape: each nation's order revenue as an
    integer-micro share of its REGION's total — the percent-of-parent
    rollup every BI layer runs, whose distributed form is a two-level
    fold (nation partials → region totals) rather than a window
    function over a corpus-scale stream.

    Shape: revenue aggregates map-side per block to ≤|nations| rows
    (customer→nation is a broadcast dimension lookup); the driver
    finalizes over the 25-nation domain — constant-size by the
    dimension bound. Shares are floor-divided micros of integer cents,
    so both engines agree bit-for-bit."""
    from .state.broadcast import resolve

    cust = pq.read_table(
        os.path.join(sf_dir, "customer.parquet"), columns=["c_custkey", "c_nationkey"]
    )
    nat = pq.read_table(os.path.join(sf_dir, "nation.parquet")).to_pylist()
    reg = pq.read_table(os.path.join(sf_dir, "region.parquet")).to_pylist()
    rname = {r["r_regionkey"]: r["r_name"] for r in reg}
    dims_ref = ray.put(
        (
            dict(zip(cust["c_custkey"].to_pylist(), cust["c_nationkey"].to_pylist())),
            {n["n_nationkey"]: n["n_name"] for n in nat},
            {n["n_nationkey"]: rname[n["n_regionkey"]] for n in nat},
        )
    )

    orders = rd.read_parquet(
        os.path.join(sf_dir, "orders.parquet"), columns=["o_custkey", "o_totalprice"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        cnat, nname, nreg = resolve(dims_ref)
        nk = df["o_custkey"].map(cnat)
        cents = (df["o_totalprice"] * 100).round().astype("int64")
        g = pd.DataFrame({"nk": nk, "cents": cents}).groupby("nk", as_index=False)[
            "cents"
        ].sum()
        g["n_name"] = g["nk"].map(nname)
        g["r_name"] = g["nk"].map(nreg)
        return g[["n_name", "r_name", "cents"]]

    agg = (
        orders.map_batches(partial, batch_format="pandas")
        .to_pandas()  # bounded: <= |nations| rows per block
        .groupby(["n_name", "r_name"], as_index=False)["cents"]
        .sum()
    )
    rtot = agg.groupby("r_name")["cents"].transform("sum")
    agg["revenue_cents"] = agg["cents"].astype("int64")
    agg["share_micro"] = (1_000_000 * agg["cents"] // rtot).astype("int64")
    return agg[["n_name", "r_name", "revenue_cents", "share_micro"]].sort_values(
        ["r_name", "n_name"], ignore_index=True
    )


# ---------------------------------------------------------------------------
# Tool-usage analytics over agent transcripts (the input_hint `tool`
# column — the reference app has one implicit annotate tool
# (app.py:254-303, the model invocation behind every request); the
# engine generalizes to the tool bank an agent-transcript corpus
# actually carries, fixture v4).
# ---------------------------------------------------------------------------


def kg_tool_usage(sf_dir: str):
    """Per-tool invocation profile (calls, distinct conversations,
    first/last invocation epoch-µs) over role='tool' turns — the
    tool-adoption audit rollup. All-integer outputs, value-exact oracle.

    Shape: row-local filter + per-block (tool, conv_id) partials
    (count, min/max ts) → ONE (tool, conv_id)-keyed exchange merges
    partials and reduces to per-(tool, partition) rows — distinct-conv
    counting is exact because the exchange lands each (tool, conv) in
    exactly one partition — → one tiny tool-keyed combine (domain =
    |tool bank|). A viral tool ships #blocks·#convs partial rows,
    never its turns."""
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "role", "tool", "ts"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["role"] == "tool"]
        if not len(df):
            return pd.DataFrame(
                {
                    "tool": pd.Series(dtype="object"),
                    "conv_id": pd.Series(dtype="object"),
                    "n": pd.Series(dtype="int64"),
                    "lo": pd.Series(dtype="int64"),
                    "hi": pd.Series(dtype="int64"),
                }
            )
        ts_us = df["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
        g = (
            pd.DataFrame({"tool": df["tool"], "conv_id": df["conv_id"], "ts": ts_us})
            .groupby(["tool", "conv_id"], as_index=False)
            .agg(n=("ts", "size"), lo=("ts", "min"), hi=("ts", "max"))
        )
        g["n"] = g["n"].astype("int64")
        return g

    def conv_reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["tool", "conv_id"], as_index=False).agg(
            n=("n", "sum"), lo=("lo", "min"), hi=("hi", "max")
        )
        out = g.groupby("tool", as_index=False).agg(
            n_calls=("n", "sum"),
            n_convs=("conv_id", "size"),
            first_ts_us=("lo", "min"),
            last_ts_us=("hi", "max"),
        )
        out["n_calls"] = out["n_calls"].astype("int64")
        out["n_convs"] = out["n_convs"].astype("int64")
        return out

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        out = df.groupby("tool", as_index=False).agg(
            n_calls=("n_calls", "sum"),
            n_convs=("n_convs", "sum"),
            first_ts_us=("first_ts_us", "min"),
            last_ts_us=("last_ts_us", "max"),
        )
        for c in ("n_calls", "n_convs", "first_ts_us", "last_ts_us"):
            out[c] = out[c].astype("int64")
        return out

    part = keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        ["tool", "conv_id"],
        conv_reduce,
        _xparts(sf_dir, "transcripts"),
    )
    return keyed_exchange(part, ["tool"], combine, num_partitions=8)


def kg_tool_chains(sf_dir: str):
    """Tool-chain bigrams: among a conversation's tool turns in
    turn_idx order, (prev_tool, tool) transition counts — the
    tool-orchestration structure (which tool feeds which) an
    agent-transcript corpus is mined for. Unlike kg_role_transitions
    the predecessor is the previous TOOL turn at any gap, so the
    shifted-emit trick doesn't apply; instead one conversation-keyed
    exchange co-locates a conversation's tool turns (bounded by the
    per-conversation turn count — the kg_topic_boundaries hot-key
    argument) and a vectorized per-partition sort + groupby-shift
    builds the lag pairs; per-partition (prev_tool, tool) partials
    reduce in the same pass and one tiny keyed combine sums them
    (domain ≤ |tool bank|²)."""
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "turn_idx", "role", "tool"])

    def project(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["role"] == "tool"]
        return pd.DataFrame(
            {
                "conv_id": df["conv_id"],
                "turn_idx": df["turn_idx"].astype("int64"),
                "tool": df["tool"],
            }
        )

    def lag_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(["conv_id", "turn_idx"], kind="mergesort")
        prev = df.groupby("conv_id", sort=False)["tool"].shift(1)
        m = df[prev.notna()].assign(prev_tool=prev[prev.notna()])
        g = (
            m.groupby(["prev_tool", "tool"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["prev_tool", "tool"], as_index=False)["n"].sum()
        return pd.DataFrame(
            {
                "prev_tool": g["prev_tool"].astype(str),
                "tool": g["tool"].astype(str),
                "n_transitions": g["n"].astype("int64"),
            }
        )

    pairs = keyed_exchange(
        ds.map_batches(project, batch_format="pandas"),
        ["conv_id"],
        lag_partial,
        _xparts(sf_dir, "transcripts"),
    )
    return keyed_exchange(pairs, ["prev_tool", "tool"], combine, num_partitions=8)


def kg_conv_tool_profile(sf_dir: str):
    """Per-conversation tool profile: tool-call count, distinct tools,
    and the DOMINANT tool (mode with the label-prop tie-break: count
    desc, tool asc) — the per-conversation feature row a transcript
    curriculum or router would train on. Only conversations with ≥1
    tool turn appear (both engines: the filtered stream defines the
    domain).

    Shape: per-block (conv_id, tool) partials → ONE conv-keyed
    exchange (a conversation's distinct-tool rows are ≤ |tool bank|,
    so partitions hold bounded per-conv groups) → vectorized
    per-partition reduce: counts sum, distinct tools counted, dominant
    tool picked by a (n desc, tool asc) lexsort + groupby-first."""
    from .stages.exchange import keyed_exchange

    paths = _fixture(sf_dir)
    ds = _transcripts_ds(paths, columns=["conv_id", "role", "tool"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["role"] == "tool"]
        g = (
            pd.DataFrame({"conv_id": df["conv_id"], "tool": df["tool"]})
            .groupby(["conv_id", "tool"], sort=False)
            .size()
            .reset_index(name="n")
        )
        g["n"] = g["n"].astype("int64")
        return g

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["conv_id", "tool"], as_index=False)["n"].sum()
        g = g.sort_values(
            ["conv_id", "n", "tool"], ascending=[True, False, True], kind="mergesort"
        )
        agg = g.groupby("conv_id", sort=False).agg(
            n_tool_calls=("n", "sum"), n_distinct_tools=("tool", "size")
        )
        agg["dominant_tool"] = g.groupby("conv_id", sort=False)["tool"].first()
        out = agg.reset_index()
        out["n_tool_calls"] = out["n_tool_calls"].astype("int64")
        out["n_distinct_tools"] = out["n_distinct_tools"].astype("int64")
        return out[["conv_id", "n_tool_calls", "n_distinct_tools", "dominant_tool"]]

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        ["conv_id"],
        reduce,
        _xparts(sf_dir, "transcripts"),
    )


SSSP_SEED_MOD = 64  # node seeds iff md5('sssp:'||node) % MOD == 0
SSSP_ROUNDS = 4  # fixed Bellman-Ford rounds (dist = shortest <=ROUNDS-edge path)
SSSP_W_MOD = 9  # edge weight = 1 + (tri-coin >> 32) % MOD, in [1, 9]


def part_sssp_weighted(sf_dir: str, broadcast_limit: int = LP_BROADCAST_LIMIT):
    """Multi-source single-source-shortest-path distances (Bellman-Ford,
    integer edge weights) over the md5-sparsified co-purchase graph —
    the weighted generalization of part_bfs_levels (delivery radius,
    influence cost, weighted reachability all reduce to it). Edge
    weights are a pure function of the STORED edge coin
    (``1 + (coin >> 32) % SSSP_W_MOD``) — vectorized on the Ray side,
    recomputed bit-for-bit in SQL from the same ``tri:`` md5, and using
    the high coin bits keeps the weight independent of the low-bit
    sampling gate. Seeds: the ``sssp:`` md5 coin (the BFS pattern).
    Exactly SSSP_ROUNDS synchronous rounds with early exit on a
    fixpoint (the SQL iterates are then identical by induction), so the
    unrolled materialized-CTE oracle replays round-for-round.

    Two physical tiers (the part_label_prop pattern): below
    ``broadcast_limit`` the CURRENT dist map is broadcast per round
    (node-dimension bounded) and one pass over the pinned edge set
    emits relaxation candidates ``dist(u) + w`` both directions, a
    node-keyed exchange min-reduces them and the driver merges mins.
    Past the budget the EXCHANGE tier keeps the dist map distributed:
    one side-tagged endpoint-keyed exchange relaxes, a second
    node-keyed exchange min-merges candidates with the standing map —
    the driver sees one changed-count scalar per round. Bit-identical
    distances (integer min semantics; forced-fallback pytest). Only
    frontier-adjacent edges produce exchange rows; the edge set itself
    never reshuffles."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    from .kernels.hashing import stable_u64_md5
    from .state.manifest import list_parquet_files

    ds = rd.read_parquet(
        list_parquet_files(_copurchase_cache(sf_dir)), columns=["u", "v", "coin"]
    )

    def filt(df: pd.DataFrame) -> pd.DataFrame:
        coin = df["coin"].to_numpy()
        keep = coin % np.uint64(TRI_SAMPLE_MOD) == 0
        df = df[keep]
        w = (
            (df["coin"].to_numpy() >> np.uint64(32)) % np.uint64(SSSP_W_MOD)
        ).astype("int64") + 1
        return pd.DataFrame(
            {
                "u": df["u"].astype("int64"),
                "v": df["v"].astype("int64"),
                "w": w,
            }
        )

    edges = ds.map_batches(filt, batch_format="pandas").materialize()
    P = _xparts(sf_dir, "lineitem")
    if 2 * edges.count() > broadcast_limit:
        return _sssp_exchange_tier(edges, P)
    nodes = _copurchase_degrees(edges, P)["node"].to_numpy()
    coin = np.fromiter(
        (stable_u64_md5(f"sssp:{n}".encode("utf-8")) for n in nodes),
        dtype=np.uint64,
        count=len(nodes),
    )
    seeds = np.sort(nodes[coin % np.uint64(SSSP_SEED_MOD) == 0])
    dist: dict[int, int] = {int(n): 0 for n in seeds}

    for _r in range(1, SSSP_ROUNDS + 1):
        if not dist:
            break
        dn = np.fromiter(dist, dtype=np.int64, count=len(dist))
        order = np.argsort(dn)
        dn = dn[order]
        dv = np.fromiter(dist.values(), dtype=np.int64, count=len(dist))[order]
        dref = ray.put((dn, dv))

        def relax(df: pd.DataFrame, dref=dref) -> pd.DataFrame:
            nodes_b, dists_b = resolve(dref)
            out_n = []
            out_d = []
            for a, b in (("u", "v"), ("v", "u")):
                src = df[a].to_numpy()
                dst = df[b].to_numpy()
                w = df["w"].to_numpy()
                i = np.searchsorted(nodes_b, src)
                i[i >= len(nodes_b)] = 0
                hit = (len(nodes_b) > 0) & (nodes_b[i] == src)
                out_n.append(dst[hit])
                out_d.append(dists_b[i[hit]] + w[hit])
            cand = pd.DataFrame(
                {
                    "node": np.concatenate(out_n).astype("int64"),
                    "dist": np.concatenate(out_d).astype("int64"),
                }
            )
            return cand.groupby("node", as_index=False)["dist"].min()

        nxt = keyed_exchange(
            edges.map_batches(relax, batch_format="pandas"),
            ["node"],
            lambda df: df.groupby("node", as_index=False)["dist"].min(),
            num_partitions=8,
        ).to_pandas()
        changed = False
        for n, d in zip(nxt["node"].to_numpy(), nxt["dist"].to_numpy()):
            n, d = int(n), int(d)
            if d < dist.get(n, 1 << 62):
                dist[n] = d
                changed = True
        if not changed:
            break

    if not dist:
        return pd.DataFrame(
            {"part_id": pd.Series(dtype="int64"), "dist": pd.Series(dtype="int64")}
        )
    items = sorted(dist.items())
    return pd.DataFrame(
        {
            "part_id": pd.Series([k for k, _ in items], dtype="int64"),
            "dist": pd.Series([v for _, v in items], dtype="int64"),
        }
    )


def _sssp_exchange_tier(edges, P: int):
    """Exchange tier of part_sssp_weighted (see its docstring): the
    dist map stays a distributed (node, dist) dataset; per round one
    side-tagged endpoint-keyed exchange relaxes edges whose key holds a
    dist row, and a second node-keyed exchange min-merges candidates
    into the standing map while counting improvements — the driver
    sees only that scalar. Bit-identical to the broadcast tier:
    integer min/plus, identical per-round relaxation set, identical
    fixpoint early-exit rule."""
    from .kernels.hashing import stable_u64_md5
    from .stages.exchange import keyed_exchange

    def seeds_partial(df: pd.DataFrame) -> pd.DataFrame:
        node = np.unique(
            np.concatenate(
                [df["u"].to_numpy(dtype=np.int64), df["v"].to_numpy(dtype=np.int64)]
            )
        )
        coin = np.fromiter(
            (stable_u64_md5(f"sssp:{n}".encode("utf-8")) for n in node),
            dtype=np.uint64,
            count=len(node),
        )
        return pd.DataFrame({"node": node[coin % np.uint64(SSSP_SEED_MOD) == 0]})

    dist = keyed_exchange(
        edges.map_batches(seeds_partial, batch_format="pandas"),
        ["node"],
        lambda df: df.drop_duplicates().assign(dist=np.int64(0)).astype(
            {"node": "int64", "dist": "int64"}
        ),
        P,
    ).materialize()
    if dist.count() == 0:
        return pd.DataFrame(
            {"part_id": pd.Series(dtype="int64"), "dist": pd.Series(dtype="int64")}
        )

    def tag_edges(df: pd.DataFrame) -> pd.DataFrame:
        u = df["u"].to_numpy(dtype=np.int64)
        v = df["v"].to_numpy(dtype=np.int64)
        w = df["w"].to_numpy(dtype=np.int64)
        return pd.DataFrame(
            {
                "key": np.concatenate([u, v]),
                "other": np.concatenate([v, u]),
                "w": np.concatenate([w, w]),
                "dist": np.full(2 * len(u), -1, dtype=np.int64),
            }
        )

    edges_tagged = edges.map_batches(tag_edges, batch_format="pandas")

    def relax(df: pd.DataFrame) -> pd.DataFrame:
        is_d = df["dist"].to_numpy() >= 0
        dmap = pd.Series(
            df.loc[is_d, "dist"].to_numpy(dtype=np.int64),
            index=df.loc[is_d, "key"].to_numpy(dtype=np.int64),
        )
        ed = df[~is_d]
        src_d = dmap.reindex(ed["key"].to_numpy(dtype=np.int64))
        hit = src_d.notna().to_numpy()
        cand = pd.DataFrame(
            {
                "node": ed["other"].to_numpy(dtype=np.int64)[hit],
                "dist": (
                    src_d.to_numpy()[hit].astype(np.int64)
                    + ed["w"].to_numpy(dtype=np.int64)[hit]
                ),
            }
        )
        return cand.groupby("node", as_index=False)["dist"].min()

    for _r in range(1, SSSP_ROUNDS + 1):
        dist_tagged = dist.map_batches(
            lambda df: pd.DataFrame(
                {
                    "key": df["node"].to_numpy(dtype=np.int64),
                    "other": np.full(len(df), -1, dtype=np.int64),
                    "w": np.zeros(len(df), dtype=np.int64),
                    "dist": df["dist"].to_numpy(dtype=np.int64),
                }
            ),
            batch_format="pandas",
        )
        cands = keyed_exchange(edges_tagged.union(dist_tagged), ["key"], relax, P)

        def min_merge(df: pd.DataFrame) -> pd.DataFrame:
            # side 1 = standing map (one row per node), side 0 = candidates
            cur = df[df["side"] == 1]
            curmap = pd.Series(
                cur["dist"].to_numpy(dtype=np.int64),
                index=cur["node"].to_numpy(dtype=np.int64),
            )
            best = df.groupby("node", as_index=False)["dist"].min()
            old = curmap.reindex(best["node"].to_numpy(dtype=np.int64))
            improved = old.isna().to_numpy() | (
                best["dist"].to_numpy() < old.fillna(1 << 62).to_numpy()
            )
            return best.assign(changed=improved.astype(np.int64))

        tagged = (
            cands.map_batches(
                lambda df: df.assign(side=np.int64(0)), batch_format="pandas"
            )
            .union(
                dist.map_batches(
                    lambda df: df.assign(side=np.int64(1)), batch_format="pandas"
                )
            )
        )
        merged = keyed_exchange(tagged, ["node"], min_merge, P).materialize()
        n_changed = int(
            merged.map_batches(
                lambda df: pd.DataFrame({"c": [int(df["changed"].sum())]}),
                batch_format="pandas",
            )
            .to_pandas()["c"]
            .sum()
        )
        dist = merged.map_batches(
            lambda df: df[["node", "dist"]].astype({"node": "int64", "dist": "int64"}),
            batch_format="pandas",
        ).materialize()
        if not n_changed:
            break

    out = dist.to_pandas().sort_values("node")
    return pd.DataFrame(
        {
            "part_id": out["node"].astype("int64").to_numpy(),
            "dist": out["dist"].astype("int64").to_numpy(),
        }
    )


DECAY_K = 8  # recency window: the user's last K purchase events


def events_decay_score(sf_dir: str):
    """Per-user exponentially-decayed purchase-recency score — the
    recency-weighted user feature a ranking/churn model trains on:
    over the user's last DECAY_K purchase events in (ts, event_id)
    order, ``decay_score = Σ cents_k · 2^(DECAY_K − rank_k)`` (most
    recent weight 2^(K−1), halving per step — all-integer shifts, so
    the window-rank SQL oracle is value-exact; unlike an EWMA there is
    no per-row floor recursion, which keeps the kernel fully
    vectorized).

    Shape: per-block partial top-K per user (sort + groupby-head — the
    partial-top-k merge pattern, so a hot user ships #blocks·K rows,
    never its event stream) → ONE user-keyed exchange merges partials,
    re-ranks globally, and computes the weighted sum vectorized."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(
        sf_dir, "events", columns=["user_id", "event_id", "ts", "event_type", "value"]
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df[df["event_type"] == "purchase"]
        out = pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "event_id": df["event_id"].astype("int64"),
                "ts_us": df["ts"].to_numpy(dtype="datetime64[us]").astype("int64"),
                "cents": (df["value"] * 100).round().astype("int64"),
            }
        )
        out = out.sort_values(
            ["user_id", "ts_us", "event_id"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        return out.groupby("user_id", sort=False).head(DECAY_K)

    def reduce(df: pd.DataFrame) -> pd.DataFrame:
        df = df.sort_values(
            ["user_id", "ts_us", "event_id"],
            ascending=[True, False, False],
            kind="mergesort",
        )
        top = df.groupby("user_id", sort=False).head(DECAY_K)
        rank = top.groupby("user_id", sort=False).cumcount()  # 0 = most recent
        weight = np.left_shift(
            np.int64(1), (DECAY_K - 1 - rank.to_numpy()).astype("int64")
        )
        scored = pd.DataFrame(
            {
                "user_id": top["user_id"].to_numpy(),
                "wcents": top["cents"].to_numpy() * weight,
            }
        )
        g = scored.groupby("user_id", as_index=False).agg(
            n_recent=("wcents", "size"), decay_score=("wcents", "sum")
        )
        g["n_recent"] = g["n_recent"].astype("int64")
        g["decay_score"] = g["decay_score"].astype("int64")
        return g

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        ["user_id"],
        reduce,
        _xparts(sf_dir, "events"),
    )


# ---------------------------------------------------------------------------
# Round-4 session-3 additions: the two remaining classic warehouse join
# shapes (TPC-H Q21/Q15/Q6 analogs over this fixture's columns), RAG
# chunking, robust winsorized aggregates, and KG edge symmetry.
# ---------------------------------------------------------------------------

Q21_TOPK = 25


def supplier_last_to_ship(sf_dir: str):
    """TPC-H-Q21-shaped blocking-supplier audit: for each supplier,
    count the multi-supplier orders where that supplier's latest line
    shipped strictly later than EVERY other supplier's lines — the
    unique slowest shipper that alone held the order open. Top-25 by
    count (supplier-name tiebreak). The reference has no warehouse
    layer; this is the EXISTS + NOT-EXISTS correlated shape
    (generalizing app.py:335-416's per-group argmax to a join) that a
    KG-provenance audit ("which source alone delayed this fact?") runs.

    Shape: per-block (okey, skey) max-shipdate partials → ONE order-key
    exchange combines partials and resolves the unique-argmax predicate
    vectorized per order → per-partition (skey, n) partials with a local
    top-k head → second supplier-key exchange folds counts exactly; the
    driver merges partitions×k candidate rows. Supplier names are a
    broadcast dimension lookup. A hot order ships #blocks·#suppliers
    partial rows, never its lines; no side is ever collected."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    names_ref = ray.put(
        dict(zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist()))
    )

    lines = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_orderkey", "l_suppkey", "l_shipdate"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "okey": df["l_orderkey"].astype("int64"),
                "skey": df["l_suppkey"].astype("int64"),
                "ms": df["l_shipdate"].to_numpy(dtype="datetime64[us]").astype("int64"),
            }
        ).groupby(["okey", "skey"], as_index=False)["ms"].max()
        return g

    def blocked_counts(df: pd.DataFrame) -> pd.DataFrame:
        ps = df.groupby(["okey", "skey"], as_index=False)["ms"].max()
        o = ps.groupby("okey")["ms"].agg(["size", "max"])
        ps = ps.join(o, on="okey")
        at_max = ps[ps["ms"] == ps["max"]]
        nmx = at_max.groupby("okey")["skey"].size()
        blocked = at_max[
            (at_max["size"] >= 2) & (at_max["okey"].map(nmx) == 1)
        ]
        out = blocked.groupby("skey", as_index=False).size().rename(
            columns={"size": "n"}
        )
        return out.astype({"skey": "int64", "n": "int64"})

    def fold(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby("skey", as_index=False)["n"].sum()
        names = resolve(names_ref)
        g["s_name"] = g["skey"].map(names)
        g = g.sort_values(
            ["n", "s_name"], ascending=[False, True], kind="mergesort"
        ).head(Q21_TOPK)
        return g[["s_name", "n"]].astype({"n": "int64"})

    per_order = keyed_exchange(
        lines.map_batches(partial, batch_format="pandas"),
        ["okey"],
        blocked_counts,
        _xparts(sf_dir, "lineitem"),
    )
    cand = keyed_exchange(
        per_order, ["skey"], fold, _xparts(sf_dir, "supplier")
    ).to_pandas()
    top = cand.sort_values(
        ["n", "s_name"], ascending=[False, True], kind="mergesort"
    ).head(Q21_TOPK)
    return pd.DataFrame(
        {
            "s_name": top["s_name"].to_numpy(dtype=object),
            "n_blocked": top["n"].astype("int64").to_numpy(),
        }
    )


Q15_START = "1997-01-01"
Q15_END = "1997-04-01"


def supplier_quarter_topk(sf_dir: str):
    """TPC-H-Q15-shaped top-supplier query: total discounted revenue
    per supplier over one ship-quarter, returning the supplier(s) whose
    revenue equals the global maximum (ties kept, as the spec demands)
    — the scalar-subquery argmax every leaderboard runs.

    Shape: the date filter prunes row-local BEFORE any exchange;
    per-block (skey, rev) partials → ONE supplier-key exchange produces
    exact totals and each partition emits only its LOCAL maxima
    (candidates ≤ partitions × ties); the driver takes the global max
    over that bounded candidate set and keeps ties. Revenue is integer
    cents × (100 − discount_pct), bit-equal to the SQL oracle."""
    from .stages.exchange import keyed_exchange
    from .state.broadcast import resolve

    sup = pq.read_table(
        os.path.join(sf_dir, "supplier.parquet"), columns=["s_suppkey", "s_name"]
    )
    names_ref = ray.put(
        dict(zip(sup["s_suppkey"].to_pylist(), sup["s_name"].to_pylist()))
    )
    lo = np.datetime64(Q15_START, "us")
    hi = np.datetime64(Q15_END, "us")

    lines = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_suppkey", "l_shipdate", "l_extendedprice", "l_discount"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ship = df["l_shipdate"].to_numpy(dtype="datetime64[us]")
        d = df.loc[(ship >= lo) & (ship < hi)]
        cents = (d["l_extendedprice"] * 100).round().astype("int64")
        disc = (d["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "skey": d["l_suppkey"].astype("int64"),
                "rev": (cents * (100 - disc)).astype("int64"),
            }
        ).groupby("skey", as_index=False)["rev"].sum()

    def local_max(df: pd.DataFrame) -> pd.DataFrame:
        tot = df.groupby("skey", as_index=False)["rev"].sum()
        return tot[tot["rev"] == tot["rev"].max()]

    cand = keyed_exchange(
        lines.map_batches(partial, batch_format="pandas"),
        ["skey"],
        local_max,
        _xparts(sf_dir, "lineitem"),
    ).to_pandas()
    best = cand[cand["rev"] == cand["rev"].max()]
    names = ray.get(names_ref)
    return pd.DataFrame(
        {
            "s_suppkey": best["skey"].astype("int64").to_numpy(),
            "s_name": best["skey"].map(names).to_numpy(dtype=object),
            "total_revenue": best["rev"].astype("int64").to_numpy(),
        }
    ).sort_values("s_suppkey", ignore_index=True)


Q6_YEAR_START = "1997-01-01"
Q6_YEAR_END = "1998-01-01"
Q6_DISC_LO = 5
Q6_DISC_HI = 7
Q6_QTY_LT = 24.0


def lineitem_discount_revenue(sf_dir: str):
    """TPC-H-Q6-shaped revenue-change forecast: one scan, three
    row-local predicates (ship year, discount band, quantity cap), one
    global sum — the pure-bandwidth shape that measures scan + filter
    throughput with zero exchange. Revenue unit is cents × discount_pct
    (1e-4 dollars), kept integer so both engines agree bit-for-bit.

    Shape: column-pruned read (4 of 11 columns), vectorized predicate,
    per-block ONE-ROW partials, constant-size driver fold. At 100 TB
    this is the query whose wall time IS the storage bandwidth; nothing
    else to optimize."""
    lo = np.datetime64(Q6_YEAR_START, "us")
    hi = np.datetime64(Q6_YEAR_END, "us")

    lines = rd.read_parquet(
        os.path.join(sf_dir, "lineitem.parquet"),
        columns=["l_shipdate", "l_discount", "l_quantity", "l_extendedprice"],
    )

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        ship = df["l_shipdate"].to_numpy(dtype="datetime64[us]")
        disc = (df["l_discount"] * 100).round().astype("int64")
        keep = (
            (ship >= lo)
            & (ship < hi)
            & (disc >= Q6_DISC_LO)
            & (disc <= Q6_DISC_HI)
            & (df["l_quantity"] < Q6_QTY_LT)
        )
        d = df.loc[keep]
        cents = (d["l_extendedprice"] * 100).round().astype("int64")
        dp = (d["l_discount"] * 100).round().astype("int64")
        return pd.DataFrame(
            {
                "revenue_cents_pct": [int((cents * dp).sum())],
                "n_lines": [int(len(d))],
            }
        )

    parts = lines.map_batches(partial, batch_format="pandas").to_pandas()
    return pd.DataFrame(
        {
            "revenue_cents_pct": [int(parts["revenue_cents_pct"].sum())],
            "n_lines": [int(parts["n_lines"].sum())],
        }
    ).astype({"revenue_cents_pct": "int64", "n_lines": "int64"})


# RAG window/stride in tokens (8-token overlap). Production values are
# ~128/96; the fixture corpus is 10-99 tokens per doc, so the window is
# sized down proportionally to keep multi-chunk docs (and thus the
# overlap semantics) exercised by the oracle rather than vacuous.
CHUNK_W = 32
CHUNK_S = 24


def doc_chunk_overlap(sf_dir: str):
    """RAG-style overlapping chunker: split each document's token
    stream into windows of CHUNK_W tokens with stride CHUNK_S (fixed
    W−S = 8-token overlap), emitting (doc_id, chunk_idx, start_tok, end_tok,
    n_tokens) per chunk — the retrieval-index chunking pass every
    RAG/training-data pipeline runs before embedding. Windows fully
    cover the stream: the last window ends exactly at n_tokens, chunk
    count = 1 + ceil((n − W)/S) for n > W, 1 otherwise. ASCII
    ``[0-9A-Za-z_]+`` tokenization on both engines (the kernels/
    tokenize.py contract — Python re and DuckDB RE2 agree on ASCII).

    Shape: purely row-local — tokenize-count + vectorized np.repeat
    window expansion inside one map_batches; no exchange, no state, a
    ~4/3 row expansion. The embarrassingly-parallel stage Ray Data
    streams at scan bandwidth at any corpus size."""
    ds = _tbl(sf_dir, "documents", columns=["doc_id", "text"])

    def expand(df: pd.DataFrame) -> pd.DataFrame:
        n = df["text"].str.count(r"[0-9A-Za-z_]+").astype("int64").to_numpy()
        doc = df["doc_id"].astype("int64").to_numpy()
        keep = n > 0
        n, doc = n[keep], doc[keep]
        k = np.where(
            n <= CHUNK_W, 1, 1 + (n - CHUNK_W + CHUNK_S - 1) // CHUNK_S
        ).astype("int64")
        doc_r = np.repeat(doc, k)
        n_r = np.repeat(n, k)
        # chunk_idx via per-doc arange over the repeated layout
        idx = np.arange(k.sum(), dtype="int64") - np.repeat(
            np.concatenate(([0], np.cumsum(k)[:-1])), k
        )
        start = idx * CHUNK_S
        end = np.minimum(start + CHUNK_W, n_r)
        return pd.DataFrame(
            {
                "doc_id": doc_r,
                "chunk_idx": idx,
                "start_tok": start,
                "end_tok": end,
                "n_tokens": end - start,
            }
        )

    return ds.map_batches(expand, batch_format="pandas")


WINSOR_LO_PCT = 5
WINSOR_HI_PCT = 95


def doc_winsorized_length(sf_dir: str):
    """Per-source winsorized length profile: exact p5/p95 clip points
    over each source's n_chars distribution, then the clamped
    (winsorized) integer-micro mean — the robust per-domain statistic
    quality dashboards use where plain means are outlier-dominated.
    Percentile rule is explicit on both engines: clip_lo = smallest
    value whose cumulative count ≥ ceil(p·n) (p95 likewise), matching
    the derived-histogram convention of doc_mad_outliers.

    Shape: per-block (source, n_chars) histogram partials → ONE
    source-keyed exchange; per partition the cumulative scan, the two
    clip lookups AND the clamped sum all run over the histogram (the
    raw rows are never re-scanned — n_chars' value domain bounds the
    histogram regardless of corpus size). Driver sees |sources| rows."""
    from .stages.exchange import keyed_exchange

    ds = _tbl(sf_dir, "documents", columns=["source", "n_chars"])

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        g = df.groupby(["source", "n_chars"], as_index=False).size()
        return g.rename(columns={"size": "c"}).astype(
            {"n_chars": "int64", "c": "int64"}
        )

    def winsorize(df: pd.DataFrame) -> pd.DataFrame:
        h = df.groupby(["source", "n_chars"], as_index=False)["c"].sum()
        h = h.sort_values(["source", "n_chars"], kind="mergesort")
        rows = []
        for src, g in h.groupby("source", sort=False):
            c = g["c"].to_numpy()
            v = g["n_chars"].to_numpy()
            cum = np.cumsum(c)
            n = int(cum[-1])
            lo_rank = (WINSOR_LO_PCT * n + 99) // 100
            hi_rank = (WINSOR_HI_PCT * n + 99) // 100
            lo = int(v[np.searchsorted(cum, lo_rank)])
            hi = int(v[np.searchsorted(cum, hi_rank)])
            csum = int((c * np.clip(v, lo, hi)).sum())
            rows.append((src, n, lo, hi, 1_000_000 * csum // n))
        return pd.DataFrame(
            rows,
            columns=["source", "n_docs", "lo_clip", "hi_clip", "winsor_mean_micro"],
        ).astype(
            {
                "n_docs": "int64",
                "lo_clip": "int64",
                "hi_clip": "int64",
                "winsor_mean_micro": "int64",
            }
        )

    return keyed_exchange(
        ds.map_batches(partial, batch_format="pandas"),
        ["source"],
        winsorize,
        _xparts(sf_dir, "documents"),
    )


def kg_reciprocal_edges(sf_dir: str):
    """KG edge-symmetry audit: per predicate, how many canonical edges
    have a same-predicate edge in the REVERSE direction, and the
    integer-permille reciprocity rate — the schema-quality check that
    flags predicates modeled as directed but behaving symmetric (KG
    embedding papers condition on exactly this; TransE can't fit
    symmetric relations).

    Shape: each canonical edge ships ONCE, keyed by its unordered
    endpoint pair (min, max) — so both directions of a pair land in the
    same partition; a (pair, pred) group has ≤ 2 rows by edge-table
    uniqueness, so reciprocity is a vectorized group-size test. Per-pred
    partials are predicate-domain-bounded; the driver folds a constant
    table. No broadcast, one exchange over the edge stream."""
    from .stages.exchange import keyed_exchange

    edges = kg_edges(sf_dir)

    def emit(df: pd.DataFrame) -> pd.DataFrame:
        s = df["subj_cui"].to_numpy(dtype=object)
        o = df["obj_cui"].to_numpy(dtype=object)
        lo = np.minimum(s, o)
        hi = np.maximum(s, o)
        return pd.DataFrame({"lo": lo, "hi": hi, "pred": df["pred"].to_numpy()})

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        sz = df.groupby(["lo", "hi", "pred"])["pred"].transform("size")
        out = pd.DataFrame({"pred": df["pred"], "recip": (sz == 2).astype("int64")})
        g = out.groupby("pred", as_index=False).agg(
            n_edges=("recip", "size"), n_reciprocal=("recip", "sum")
        )
        return g.astype({"n_edges": "int64", "n_reciprocal": "int64"})

    parts = keyed_exchange(
        edges.map_batches(emit, batch_format="pandas"),
        ["lo", "hi"],
        partial,
        _xparts(sf_dir, "transcripts"),
    ).to_pandas()
    g = parts.groupby("pred", as_index=False)[["n_edges", "n_reciprocal"]].sum()
    g["recip_permille"] = (1000 * g["n_reciprocal"] // g["n_edges"]).astype("int64")
    return g.astype({"n_edges": "int64", "n_reciprocal": "int64"}).sort_values(
        "pred", ignore_index=True
    )


RFM_QS = (0.25, 0.5, 0.75)  # exact binary fractions: n*q has no float error


def customer_rfm_segments(sf_dir: str):
    """RFM customer segmentation — the classic lifecycle-marketing
    rollup: per customer compute Recency (latest order epoch-µs),
    Frequency (order count) and Monetary (lifetime cents), bin each
    metric into quartiles (score 1-4, higher = better), and report the
    population of every (r, f, m) cell. Thresholds use DuckDB
    ``quantile_disc`` rank semantics (1-based rank ``ceil(n·q)``, the
    lineitem_price_quantiles convention); a score is 1 + the number of
    thresholds the value strictly exceeds, so ties are deterministic.

    Shape: ONE customer-key exchange folds per-block partial
    (max, count, sum) into exact per-customer rows (materialized once,
    reused by both passes); quartiles come from the value-count-
    histogram decomposition — per-block (metric, value) counts →
    merge exchange → per-metric cumulative walk — so the quantile
    stage ships distinct values, never customers (bounded-domain
    assumption documented at lineitem_price_quantiles; t-digest is the
    unbounded fallback). The 9 thresholds broadcast as a constant; the
    scoring pass emits ≤ 64 partial cell rows per block, folded on the
    driver."""
    import math

    from .stages.exchange import grouped_aggregate, keyed_exchange

    ds = _tbl(
        sf_dir, "orders", columns=["o_custkey", "o_orderdate", "o_totalprice"]
    )

    def cust_partial(df: pd.DataFrame) -> pd.DataFrame:
        g = pd.DataFrame(
            {
                "ckey": df["o_custkey"].astype("int64"),
                "rec": df["o_orderdate"]
                .to_numpy(dtype="datetime64[us]")
                .astype("int64"),
                "freq": np.int64(1),
                "mon": (df["o_totalprice"] * 100).round().astype("int64"),
            }
        ).groupby("ckey", as_index=False).agg(
            rec=("rec", "max"), freq=("freq", "sum"), mon=("mon", "sum")
        )
        return g

    def cust_combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("ckey", as_index=False).agg(
            rec=("rec", "max"), freq=("freq", "sum"), mon=("mon", "sum")
        )

    percust = keyed_exchange(
        ds.map_batches(cust_partial, batch_format="pandas"),
        ["ckey"],
        cust_combine,
        _xparts(sf_dir, "orders"),
    ).materialize()

    def hist_partial(df: pd.DataFrame) -> pd.DataFrame:
        frames = []
        for m in ("rec", "freq", "mon"):
            vc = df[m].value_counts()
            frames.append(
                pd.DataFrame(
                    {"metric": m, "v": vc.index.astype("int64"), "n": vc.to_numpy()}
                )
            )
        return pd.concat(frames, ignore_index=True).astype({"n": "int64"})

    def hist_combine(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby(["metric", "v"], sort=False, as_index=False)["n"].sum()

    hist = grouped_aggregate(
        percust, ["metric", "v"], hist_partial, hist_combine, _xparts(sf_dir, "orders")
    )

    def thresholds(df: pd.DataFrame) -> pd.DataFrame:
        rows = []
        for m, g in df.groupby("metric", sort=False):
            g = g.sort_values("v", kind="mergesort")
            cum = g["n"].to_numpy().cumsum()
            vals = g["v"].to_numpy()
            n = int(cum[-1])
            for q in RFM_QS:
                rank = math.ceil(n * q)
                rows.append((m, q, int(vals[np.searchsorted(cum, rank)])))
        return pd.DataFrame(rows, columns=["metric", "q", "t"])

    th = keyed_exchange(
        hist, ["metric"], thresholds, num_partitions=8
    ).to_pandas()
    cuts = {
        m: np.array(sorted(g["t"]), dtype="int64") for m, g in th.groupby("metric")
    }

    def score(df: pd.DataFrame) -> pd.DataFrame:
        out = pd.DataFrame(
            {
                "r_score": 1
                + (df["rec"].to_numpy()[:, None] > cuts["rec"][None, :]).sum(axis=1),
                "f_score": 1
                + (df["freq"].to_numpy()[:, None] > cuts["freq"][None, :]).sum(axis=1),
                "m_score": 1
                + (df["mon"].to_numpy()[:, None] > cuts["mon"][None, :]).sum(axis=1),
            }
        )
        g = out.groupby(["r_score", "f_score", "m_score"], as_index=False).size()
        return g.rename(columns={"size": "n_customers"})

    cells = (
        percust.map_batches(score, batch_format="pandas")
        .to_pandas()  # bounded: <= 64 cell rows per block
        .groupby(["r_score", "f_score", "m_score"], as_index=False)["n_customers"]
        .sum()
    )
    return cells.astype(
        {
            "r_score": "int64",
            "f_score": "int64",
            "m_score": "int64",
            "n_customers": "int64",
        }
    ).sort_values(["r_score", "f_score", "m_score"], ignore_index=True)


STICKY_WIN_DAYS = 7


def events_stickiness(sf_dir: str):
    """DAU/WAU stickiness — the engagement ratio every product
    dashboard tracks, and the canonical WINDOWED COUNT DISTINCT
    problem: per calendar day, distinct active users that day (DAU)
    and over the trailing 7-day window (WAU), ratio in integer
    permille. Output domain = days with ≥1 event.

    Shape: map-side distinct (user, day) pairs → ONE user-keyed
    exchange where each user's calendar-bounded day set expands to its
    ≤7× window-day contributions and dedups LOCALLY (a user's rows all
    co-locate, so distinct-per-window is exact without a second
    shuffle); per-partition (day, dau, wau) partials are
    calendar-bounded, so the driver fold is constant-size at any
    corpus scale. The trap this avoids: expanding BEFORE deduping per
    user (×7 the exchange) or a (day, user) exchange per window day
    (7 shuffles)."""
    from .stages.exchange import keyed_exchange

    day_us = 86_400_000_000
    ds = _tbl(sf_dir, "events", columns=["user_id", "ts"])

    def pairs(df: pd.DataFrame) -> pd.DataFrame:
        return pd.DataFrame(
            {
                "user_id": df["user_id"].astype("int64"),
                "day": df["ts"].to_numpy(dtype="datetime64[us]").astype("int64")
                // day_us,
            }
        ).drop_duplicates()

    def window_partial(df: pd.DataFrame) -> pd.DataFrame:
        df = df.drop_duplicates()
        dau = df.groupby("day", as_index=False).size().rename(
            columns={"size": "dau_n"}
        )
        exp = pd.concat(
            [df.assign(day=df["day"] + k) for k in range(STICKY_WIN_DAYS)],
            ignore_index=True,
        ).drop_duplicates()
        wau = exp.groupby("day", as_index=False).size().rename(
            columns={"size": "wau_n"}
        )
        m = wau.merge(dau, on="day", how="left")
        m["dau_n"] = m["dau_n"].fillna(0)
        return m.astype({"day": "int64", "wau_n": "int64", "dau_n": "int64"})

    parts = keyed_exchange(
        ds.map_batches(pairs, batch_format="pandas"),
        ["user_id"],
        window_partial,
        _xparts(sf_dir, "events"),
    ).to_pandas()
    g = parts.groupby("day", as_index=False)[["dau_n", "wau_n"]].sum()
    g = g[g["dau_n"] > 0]  # report only days that actually have events
    return pd.DataFrame(
        {
            "day": (g["day"].to_numpy() * day_us).astype("datetime64[us]"),
            "dau": g["dau_n"].astype("int64").to_numpy(),
            "wau": g["wau_n"].astype("int64").to_numpy(),
            "stickiness_permille": (1000 * g["dau_n"] // g["wau_n"])
            .astype("int64")
            .to_numpy(),
        }
    ).sort_values("day", ignore_index=True)
