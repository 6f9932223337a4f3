"""The columnar annotate path (``TurnAnnotator.__call__``) against the
per-turn loop it replaced, kept here as the reference: tokenize → tag →
``extract_entities`` → link by the lowercased key → ordered
distinct-CUI pairs, one turn at a time with a per-text memo.

Seeded batches plant the edge cases: null, empty, blank and
punctuation-only texts; turns over MAX_SEQ_LEN tokens; one text under
several (conv_id, turn_idx) keys; non-ASCII case (``İL-2``, a final
``Σ``) that Arrow's lowercasing would get wrong; adjacent same-type
matches and same-CUI pairs; and, from a stub id-returning scorer,
orphan and type-switch ``I-`` runs."""

import random
import zlib

import numpy as np
import pyarrow as pa
import pytest
import ray
import ray.data as rd

from biomedical_ner_ray.fixtures import alias_rows
from biomedical_ner_ray.kernels.bio import extract_entities
from biomedical_ner_ray.kernels.crf import ids_to_tags
from biomedical_ner_ray.kernels.relations import predicate_for
from biomedical_ner_ray.kernels.tagger import AliasDict, tag_tokens
from biomedical_ner_ray.kernels.tokenize import MAX_SEQ_LEN, TOKEN_RE
from biomedical_ner_ray.stages.annotate import (
    ANNOTATION_SCHEMA,
    TurnAnnotator,
    annotate_stage,
)

# (alias, cui, type, canonical_name); two surfaces of C0000900 differ
# only in case, so one links at 0.9
EXTRA = [
    ("İL-2 receptor", "C0000900", "protein", "IL-2 receptor"),
    ("İL-2R", "C0000900", "protein", "IL-2 receptor"),
    ("ΟΔΟΣ", "C0000901", "cell_type", "ΟΔΟΣ cells"),
    ("ΟΔΟΣ cells", "C0000901", "cell_type", "ΟΔΟΣ cells"),
]

PLANTED = [
    None,
    "",
    "   ",
    "?!",
    "... , ; ?",
    "IL-2 IL-2 interleukin-2 binds p53",  # adjacent same-type, same CUI
    "p53 protein and p53 with TP53 gene in HeLa cells",
    "İL-2 receptor on İl-2 Receptor and İL-2R",
    "ΟΔΟΣ ΟΔΟΣ cells οδοσ ΟΔΟΣ",
    "tumor necrosis factor TNF-alpha TNF",
    # a 2-token alias straddling token 100, a 1-token one at 99
    " ".join(["w"] * 98 + ["IL-2", "TP53", "gene", "p53"] + ["w"] * 40),
    " ".join(["p53"] * 130),
]


def _alias_rows() -> list[dict]:
    rows = list(alias_rows())
    for alias, cui, typ, name in EXTRA:
        toks = TOKEN_RE.findall(alias)
        rows.append({
            "alias": alias,
            "alias_key": " ".join(t.lower() for t in toks),
            "n_tokens": len(toks),
            "cui": cui,
            "type": typ,
            "canonical_name": name,
        })
    return rows


def _transcripts(seed: int, n_rows: int = 400) -> pa.Table:
    """Planted texts plus seeded random ones, drawn with replacement so
    texts repeat under different (conv_id, turn_idx) keys."""
    rng = random.Random(seed)
    words = [r["alias"] for r in _alias_rows()] + [
        "the", "of", "binds", "cells", ",", ".", "gene", "protein",
        "İl-2", "ΟΔΟΣ", "Σ", "straße", "ǅ", "w",
    ]
    pool = list(PLANTED)
    for _ in range(60):
        n = rng.choice([0, 1, 3, 8, 20, 60, 101, 140])
        pool.append(" ".join(rng.choice(words) for _ in range(n)))
    texts = [rng.choice(pool) for _ in range(n_rows - len(pool))] + pool
    rng.shuffle(texts)
    return pa.table({
        "conv_id": pa.array([f"c{i // 7:03d}" for i in range(n_rows)], pa.string()),
        "turn_idx": pa.array([i % 7 for i in range(n_rows)], pa.int64()),
        "text": pa.array(texts, pa.string()),
    })


def _reference_text(text, alias: AliasDict, tag_fn):
    """The replaced per-text function: n_tokens, mention protos, triples."""
    tokens = TOKEN_RE.findall(text) if text else []
    if not tokens:
        return 0, [], []
    protos = []
    for e in extract_entities(list(zip(tokens, tag_fn(tokens)))):
        m = {
            "text": e["text"],
            "type": e["type"],
            "start_tok": e["start_position"],
            "end_tok": e["end_position"],
            "cui": None,
            "canonical_name": None,
            "link_score": None,
        }
        entry = alias.lookup(" ".join(t.lower() for t in e["tokens"]))
        if entry is not None:
            m["cui"] = entry.cui
            m["canonical_name"] = entry.canonical_name
            m["link_score"] = 1.0 if e["text"] == entry.surface else 0.9
        protos.append(m)
    linked = [m for m in protos if m["cui"] is not None]
    triples = [
        {
            "subj_cui": s["cui"],
            "pred": predicate_for(s["type"], o["type"]),
            "obj_cui": o["cui"],
            "evidence_text": f"{s['text']} | {o['text']}",
        }
        for i, s in enumerate(linked)
        for o in linked[i + 1:]
        if s["cui"] != o["cui"]
    ]
    return len(tokens), protos, triples


def _reference(table: pa.Table, alias: AliasDict, tag_fn) -> pa.Table:
    memo: dict = {}
    n_tokens, mentions, triples = [], [], []
    for cid, tix, text in zip(table["conv_id"].to_pylist(),
                              table["turn_idx"].to_pylist(),
                              table["text"].to_pylist()):
        if text not in memo:
            memo[text] = _reference_text(text, alias, tag_fn)
        nt, protos, trs = memo[text]
        n_tokens.append(nt)
        mentions.append([
            {"mention_id": f"{cid}:{tix}:{p['start_tok']}", **p} for p in protos
        ])
        triples.append(trs)
    return pa.table({
        "conv_id": table["conv_id"],
        "turn_idx": table["turn_idx"].cast(pa.int32()),
        "n_tokens": pa.array(n_tokens, pa.int32()),
        "n_mentions": pa.array([len(m) for m in mentions], pa.int32()),
        "n_triples": pa.array([len(t) for t in triples], pa.int32()),
        "mentions": pa.array(mentions, ANNOTATION_SCHEMA.field("mentions").type),
        "triples": pa.array(triples, ANNOTATION_SCHEMA.field("triples").type),
    }, schema=ANNOTATION_SCHEMA)


class _StubScorer:
    """Id-returning model scorer with seeded tags (O-heavy), so orphan
    ``I-`` ids, type switches and runs cut at a text's end all occur."""

    def __init__(self, n_tags: int):
        self.n_tags = n_tags

    def decode_tokens_batch(self, token_lists):
        out = []
        for toks in token_lists:
            rng = np.random.RandomState(zlib.crc32(" ".join(toks).encode()))
            ids = rng.randint(0, self.n_tags, size=min(len(toks), MAX_SEQ_LEN))
            ids[rng.rand(len(ids)) < 0.4] = 0
            out.append(ids)
        return out


def _annotator(alias: AliasDict, scorer: str) -> TurnAnnotator:
    ann = TurnAnnotator(alias)
    if scorer == "stub":
        # plugged into the model-scorer slot the trained scorers use
        ann.scorer = "stub"
        ann.crf = _StubScorer(len(ann.tags))
    return ann


def _tag_fn(ann: TurnAnnotator, alias: AliasDict):
    if ann.scorer == "dict":
        return lambda toks: tag_tokens(toks, alias)
    return lambda toks: ids_to_tags(
        ann.crf.decode_tokens_batch([toks])[0], ann.tags, len(toks)
    )


@pytest.mark.parametrize("seed", [0, 1, 2])
@pytest.mark.parametrize("scorer", ["dict", "stub"])
@pytest.mark.parametrize("batch_rows", [1, 37, 400])
def test_columnar_equals_per_turn_reference(seed, scorer, batch_rows):
    alias = AliasDict(_alias_rows())
    table = _transcripts(seed)
    ann = _annotator(alias, scorer)
    got = pa.concat_tables(
        ann(table.slice(s, batch_rows)) for s in range(0, table.num_rows, batch_rows)
    )
    want = _reference(table, alias, _tag_fn(ann, alias))
    assert got.schema == ANNOTATION_SCHEMA
    assert got.equals(want)
    if scorer == "dict":
        # the planted cases really occur
        flat = want["mentions"].combine_chunks().flatten()
        assert 0.9 in flat.field("link_score").to_pylist()
        assert {"C0000900", "C0000901"} <= set(flat.field("cui").to_pylist())
    else:
        assert want["mentions"].combine_chunks().flatten().field("cui").null_count > 0


def test_truncation_and_empty_turns():
    alias = AliasDict(_alias_rows())
    texts = [PLANTED[-2], PLANTED[-1], None, "", "   ", "?!"]
    table = pa.table({
        "conv_id": ["a"] * len(texts),
        "turn_idx": list(range(len(texts))),
        "text": pa.array(texts, pa.string()),
    })
    got = TurnAnnotator(alias)(table)
    assert got["n_tokens"].to_pylist() == [142, 130, 0, 0, 0, 2]
    ends = [[m["end_tok"] for m in ms] for ms in got["mentions"].to_pylist()]
    # tags past MAX_SEQ_LEN are O: no span reaches token 100
    assert max(ends[0]) == MAX_SEQ_LEN - 1 and max(ends[1]) == MAX_SEQ_LEN - 1
    assert got["n_mentions"].to_pylist()[1] == MAX_SEQ_LEN
    # 100 mentions of one CUI: no self-triple
    assert got["n_triples"].to_pylist()[1] == 0
    assert got["n_mentions"].to_pylist()[2:] == [0, 0, 0, 0]


def test_empty_batch():
    alias = AliasDict(_alias_rows())
    empty = _transcripts(0).slice(0, 0)
    got = TurnAnnotator(alias)(empty)
    assert got.num_rows == 0 and got.schema == ANNOTATION_SCHEMA


@pytest.mark.parametrize("mode", ["tasks", "actors"])
def test_columnar_over_ray_equals_reference(ray_session, mode):
    alias = AliasDict(_alias_rows())
    table = _transcripts(7)
    kw = {"concurrency": 2} if mode == "actors" else {}
    blocks = [table.slice(s, 100) for s in range(0, table.num_rows, 100)]
    out = annotate_stage(
        rd.from_arrow(blocks), ray.put(alias), batch_size=64, mode=mode, **kw
    )
    got = pa.concat_tables(ray.get(out.to_arrow_refs()))
    keys = [("conv_id", "ascending"), ("turn_idx", "ascending")]
    want = _reference(table, alias, lambda toks: tag_tokens(toks, alias))
    assert got.sort_by(keys).equals(want.sort_by(keys))
