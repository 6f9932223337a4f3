"""TurnAnnotator — the flagship stateful actor-pool stage.

One pass over transcript turns does everything row-local, as ONE
columnar path whatever the scorer:

1. distinct texts — ``pc.dictionary_encode`` of the batch's ``text``
   column; each distinct text is tokenized (``TOKEN_RE``) and tagged
   once (a null text counts as 0 tokens);
2. tag ids — every scorer returns int ids into ``bio_tagset(types)``
   for the first ``MAX_SEQ_LEN`` tokens of each distinct text: the
   greedy dictionary match (``tag_tokens``) or a trained model's
   ``decode_tokens_batch`` (``_decode_batched``);
3. assembly — spans (``extract_entities`` semantics, reference
   app.py:335-416), entity links (broadcast alias dict, SURVEY.md J6)
   and per-turn triples (kernels.relations) are built over the flat id
   array of all distinct texts as flat Arrow columns
   (``_finish_text``);
4. rows — each turn takes its text's mentions and triples by offsets
   and ``take``; ``mention_id``, the one turn-dependent field, is a
   single string join.

The output is ONE nested row per turn::

    conv_id, turn_idx, n_tokens,
    mentions: list<struct<mention_id,text,type,start_tok,end_tok,
                          cui,canonical_name,link_score>>,
    triples:  list<struct<subj_cui,pred,obj_cui,evidence_text>>

so that the downstream ``mentions`` / ``triples`` tables are pure
vectorized explodes with zero recomputation and no shuffle — triple
extraction never needs a (conv_id, turn_idx) groupby because a turn's
mentions never leave the row.

Actor-pool contract mirrors the reference's load-once pattern
(``StreamlitNERPredictor.__init__`` app.py:121-208 + ``@st.cache_resource``
app.py:422-467): the alias dictionary ObjectRef is resolved ONCE per actor
in ``__init__``; ``__call__`` handles a whole Arrow batch.
"""

from __future__ import annotations

import numpy as np
import pyarrow as pa
import pyarrow.compute as pc

# the span rule _finish_text reproduces; importable here for
# perfbench's tracer, which wraps this name
from ..kernels.bio import extract_entities  # noqa: F401
from ..kernels.crf import bio_tagset
from ..kernels.relations import predicate_for
from ..kernels.tagger import AliasDict, tag_tokens
from ..kernels.tokenize import MAX_SEQ_LEN, TOKEN_RE
from ..state.broadcast import resolve

MENTION_STRUCT = pa.struct(
    [
        ("mention_id", pa.string()),
        ("text", pa.string()),
        ("type", pa.string()),
        ("start_tok", pa.int32()),
        ("end_tok", pa.int32()),
        ("cui", pa.string()),
        ("canonical_name", pa.string()),
        ("link_score", pa.float64()),
    ]
)
TRIPLE_STRUCT = pa.struct(
    [
        ("subj_cui", pa.string()),
        ("pred", pa.string()),
        ("obj_cui", pa.string()),
        ("evidence_text", pa.string()),
    ]
)

ANNOTATION_SCHEMA = pa.schema(
    [
        ("conv_id", pa.string()),
        ("turn_idx", pa.int32()),
        ("n_tokens", pa.int32()),
        ("n_mentions", pa.int32()),
        ("n_triples", pa.int32()),
        ("mentions", pa.list_(MENTION_STRUCT)),
        ("triples", pa.list_(TRIPLE_STRUCT)),
    ]
)


def _gather(counts: np.ndarray, starts: np.ndarray) -> np.ndarray:
    """Indices ``starts[g] .. starts[g] + counts[g] - 1`` of every group
    ``g``, concatenated in group order."""
    ends = np.cumsum(counts)
    return np.arange(counts.sum()) + np.repeat(starts - (ends - counts), counts)


def _offsets(counts: np.ndarray) -> pa.Array:
    return pa.array(np.concatenate([[0], np.cumsum(counts)]), pa.int32())


class TurnAnnotator:
    """Callable class for ``map_batches(TurnAnnotator, concurrency=N,
    fn_constructor_kwargs={"alias_ref": ref})``.

    ``scorer="dict"`` tags by greedy dictionary match alone (fast path).
    Every other scorer serves a TRAINED checkpoint through the one
    model contract ``decode_tokens_batch(token_lists)`` → tag ids —
    weights determine output, so tags may DISAGREE with the dictionary
    and mentions may be unlinked (cui None):

    - ``"learned"``: linear-CRF tagger (kernels/learned.py,
      pipelines/train_tagger.py);
    - ``"combinatorial"``: the full CombinatorialNER forward
      (kernels/combinatorial.py, pipelines/train_combinatorial.py);
    - ``"combinatorial_torch"``: torch serving of the same checkpoint —
      pairs with actor_pool_kwargs={"num_gpus": ...}; raises a clear
      ImportError where torch is absent.

    ``scorer_kwargs`` forwards artifact paths to the scorer and must
    name a ``checkpoint_path`` for every model scorer; e.g.
    ``{"embedding_matrix_path": ..., "checkpoint_path": ...}`` loads the
    trained A10 matrix (J4) and a partial-restorable parameter
    checkpoint (S5) ONCE per actor, exactly the reference's
    load-everything-in-__init__ contract."""

    def __init__(self, alias_ref, scorer: str = "dict", scorer_kwargs=None):
        rows = resolve(alias_ref)
        self.alias_dict = rows if isinstance(rows, AliasDict) else AliasDict(rows)
        self.scorer = scorer
        types = sorted({e.type for e in self.alias_dict.by_key.values()})
        self.tags = bio_tagset(types)
        self._tag_id = {t: i for i, t in enumerate(self.tags)}
        self._types = pa.array(types, pa.string())
        # predicate of each (subject type, object type), row-major
        self._preds = pa.array(
            [predicate_for(s, o) for s in types for o in types], pa.string()
        )
        # the link table as columns: alias key → row of its resolved entry
        # (a dict lookup per mention, so a batch never pays for the
        # size of the dictionary)
        entries = list(self.alias_dict.by_key.values())
        self._alias_row = {k: i for i, k in enumerate(self.alias_dict.by_key)}
        self._alias_cui = pa.array([e.cui for e in entries], pa.string())
        self._alias_name = pa.array([e.canonical_name for e in entries], pa.string())
        self._alias_surface = pa.array([e.surface for e in entries], pa.string())
        self._alias_cui_code = (
            pc.dictionary_encode(self._alias_cui).indices.to_numpy().astype(np.int64)
        )
        if scorer == "dict":
            return
        if scorer == "learned":
            from ..kernels.learned import LearnedScorer as cls
        elif scorer == "combinatorial":
            from ..kernels.combinatorial import CombinatorialScorer as cls
        elif scorer == "combinatorial_torch":
            from ..kernels.torch_scorer import TorchCombinatorialScorer as cls
        else:
            raise ValueError(f"unknown scorer {scorer!r}")
        # without a checkpoint a model scorer would serve its seeded
        # random weights — never a silent fallback
        if not (scorer_kwargs or {}).get("checkpoint_path"):
            raise ValueError(
                f"scorer {scorer!r} needs scorer_kwargs['checkpoint_path']"
            )
        self.crf = cls(types, **scorer_kwargs)

    # Turn TEXTS are Zipf-duplicated (short acks, templated tool chatter
    # — 75% duplicate rate on the fixture, and real transcripts repeat
    # "Thanks"-class turns massively), and everything this stage
    # computes from a text except ``mention_id`` is turn-independent.
    # So each batch is dictionary-encoded on ``text`` and the pure
    # text→(n_tokens, mentions, triples) function runs once per
    # DISTINCT text; turns take their text's rows and get mention_id
    # stamped — identical output to recomputation (same pure function,
    # same shapes ⇒ same floats), ~50% fewer scorer forwards at batch
    # 4096 (measured). The memo is deliberately batch-scoped, not
    # actor-persistent: a per-actor cache makes total cold-miss work
    # GROW with worker count (each worker re-decodes its own distinct
    # subset), which measurably degraded 4→16-CPU scaling efficiency
    # 0.84 → 0.76; per-batch scope keeps total work identical at every
    # cluster width.

    def _decode_batched(self, token_lists: list[list[str]]) -> np.ndarray:
        """Tag ids of the first MAX_SEQ_LEN tokens of every token list,
        concatenated in list order: the dictionary match per text, or
        ONE batched decode of all texts by a model scorer (its kernels
        are composition-independent, so the ids equal a per-text
        decode)."""
        if self.scorer == "dict":
            tid = self._tag_id
            flat = [
                tid[g]
                for toks in token_lists
                for g in tag_tokens(toks, self.alias_dict)[:MAX_SEQ_LEN]
            ]
            return np.array(flat, dtype=np.int64)
        ids = self.crf.decode_tokens_batch(token_lists)
        return np.concatenate(ids).astype(np.int64) if ids else np.zeros(0, np.int64)

    def _finish_text(self, token_lists: list[list[str]], ids: np.ndarray):
        """Flat tag ids → mention and triple columns of every text.

        Spans follow ``extract_entities``: ``B-`` opens a span; ``I-``
        continues one only right after a ``B-``/``I-`` of its type in
        the same text, otherwise (orphan or type switch) it opens a new
        span; ``O`` closes. A span links by its lowercased token key;
        every ordered pair of a text's linked mentions with distinct
        CUIs is a triple, subject first. Returns (n_tokens per text,
        mention columns and per-text counts, triple columns and
        per-text counts); rows are grouped by text, in text order."""
        n_texts = len(token_lists)
        n_tok = np.fromiter((len(t) for t in token_lists), np.int64, n_texts)
        clen = np.minimum(n_tok, MAX_SEQ_LEN)
        text_id = np.repeat(np.arange(n_texts), clen)
        pos = np.arange(len(ids)) - np.repeat(np.cumsum(clen) - clen, clen)

        # -- spans: a tag id k > 0 is B- (odd) or I- (even) of type (k-1)//2;
        # an I- continues the span of the token before it in the same
        # text if that token has its type (O has type -1)
        typ = (ids - 1) >> 1
        in_span = ids > 0
        cont = np.zeros(len(ids), dtype=bool)
        cont[1:] = (ids[1:] % 2 == 0) & in_span[1:] & (typ[1:] == typ[:-1]) & (pos[1:] > 0)
        opens = in_span & ~cont
        starts = np.flatnonzero(opens)
        members = np.flatnonzero(in_span)
        lengths = np.bincount(np.cumsum(opens)[members] - 1, minlength=len(starts))
        m_text = text_id[starts]
        m_type = typ[starts]
        start_tok = pos[starts].astype(np.int32)

        words = [
            token_lists[t][p]
            for t, p in zip(text_id[members].tolist(), pos[members].tolist())
        ]
        offs = _offsets(lengths)
        text = pc.binary_join(pa.ListArray.from_arrays(offs, pa.array(words, pa.string())), " ")
        key = pc.binary_join(
            pa.ListArray.from_arrays(offs, pa.array([w.lower() for w in words], pa.string())),
            " ",
        )
        get = self._alias_row.get
        row = np.fromiter((get(k, -1) for k in key.to_pylist()), np.int64, len(key))
        entry = pa.array(row, mask=row < 0)
        surface = self._alias_surface.take(entry)
        mentions = {
            "text": text,
            "type": self._types.take(pa.array(m_type)),
            "start_tok": pa.array(start_tok),
            "end_tok": pa.array(start_tok + lengths.astype(np.int32) - 1),
            "cui": self._alias_cui.take(entry),
            "canonical_name": self._alias_name.take(entry),
            "link_score": pc.if_else(pc.equal(text, surface), 1.0, 0.9),
        }

        # -- triples: pairs (i, j), i < j, of each text's linked mentions
        # with distinct CUIs, in (i, j) order
        linked = np.flatnonzero(row >= 0)
        group_end = np.cumsum(np.bincount(m_text[linked], minlength=n_texts))
        li = np.arange(len(linked))
        later = group_end[m_text[linked]] - li - 1
        subj, obj = np.repeat(li, later), _gather(later, li + 1)
        code = self._alias_cui_code[row[linked]]
        keep = code[subj] != code[obj]
        subj, obj = linked[subj[keep]], linked[obj[keep]]
        cui = mentions["cui"]
        triples = {
            "subj_cui": cui.take(subj),
            "pred": self._preds.take(pa.array(m_type[subj] * len(self._types) + m_type[obj])),
            "obj_cui": cui.take(obj),
            "evidence_text": pc.binary_join_element_wise(
                text.take(subj), text.take(obj), " | "
            ),
        }
        return (
            n_tok,
            (mentions, np.bincount(m_text, minlength=n_texts)),
            (triples, np.bincount(m_text[subj], minlength=n_texts)),
        )

    def __call__(self, batch: pa.Table) -> pa.Table:
        enc = pc.dictionary_encode(batch["text"].combine_chunks())
        texts = enc.dictionary.to_pylist()
        # a null text is one more distinct text, with no tokens
        text_of = enc.indices.fill_null(len(texts)).to_numpy(zero_copy_only=False)
        findall = TOKEN_RE.findall
        token_lists = [findall(t) for t in texts] + [[]]
        n_tok, (m_cols, m_count), (t_cols, t_count) = self._finish_text(
            token_lists, self._decode_batched(token_lists)
        )

        conv_id = batch["conv_id"].combine_chunks().cast(pa.string())
        turn_idx = batch["turn_idx"].combine_chunks().cast(pa.int32())
        # each turn takes its text's rows; mention_id is the only
        # turn-dependent field (f"{conv_id}:{turn_idx}:{start_tok}")
        n_m = m_count[text_of]
        take_m = pa.array(_gather(n_m, (np.cumsum(m_count) - m_count)[text_of]))
        owner = pa.array(np.repeat(np.arange(len(text_of)), n_m))
        m_cols = {k: v.take(take_m) for k, v in m_cols.items()}
        m_cols["mention_id"] = pc.binary_join_element_wise(
            conv_id.take(owner),
            turn_idx.cast(pa.string()).take(owner),
            m_cols["start_tok"].cast(pa.string()),
            ":",
            null_handling="replace",
            null_replacement="None",
        )
        n_t = t_count[text_of]
        take_t = pa.array(_gather(n_t, (np.cumsum(t_count) - t_count)[text_of]))
        mentions = pa.StructArray.from_arrays(
            [m_cols[f.name] for f in MENTION_STRUCT], fields=list(MENTION_STRUCT)
        )
        triples = pa.StructArray.from_arrays(
            [t_cols[f.name].take(take_t) for f in TRIPLE_STRUCT],
            fields=list(TRIPLE_STRUCT),
        )
        return pa.Table.from_arrays(
            [
                conv_id,
                turn_idx,
                pa.array(n_tok[text_of], pa.int32()),
                # per-turn counts as plain columns so lineage counters are
                # a column-pruned metadata-cheap aggregate, not a nested read
                pa.array(n_m, pa.int32()),
                pa.array(n_t, pa.int32()),
                pa.ListArray.from_arrays(_offsets(n_m), mentions),
                pa.ListArray.from_arrays(_offsets(n_t), triples),
            ],
            schema=ANNOTATION_SCHEMA,
        )


# Per-worker-process cache for the tasks fast path: resolving the broadcast
# ObjectRef is one shared-memory get per worker process (not per batch, not
# per task) — same amortization as an actor's __init__, but without paying
# actor-pool spin-up for every short execution (worker processes persist
# across Dataset executions in a Ray session).
_ANNOTATOR_CACHE: dict[tuple, TurnAnnotator] = {}


def _cached_annotator(alias_ref, scorer: str = "dict", scorer_kwargs=None) -> TurnAnnotator:
    ref = alias_ref.hex() if hasattr(alias_ref, "hex") else str(id(alias_ref))
    key = (ref, scorer, tuple(sorted((scorer_kwargs or {}).items())))
    ann = _ANNOTATOR_CACHE.get(key)
    if ann is None:
        ann = TurnAnnotator(alias_ref, scorer=scorer, scorer_kwargs=scorer_kwargs)
        _ANNOTATOR_CACHE.clear()
        _ANNOTATOR_CACHE[key] = ann
    return ann


def actor_pool_kwargs(
    alias_ref,
    concurrency=None,
    batch_size: int = 1024,
    scorer: str = "dict",
    scorer_kwargs: dict | None = None,
    num_gpus: float = 0.0,
    max_tokens_per_batch: int | None = None,
) -> dict:
    """``map_batches`` kwargs for the actors mode — split out so tests
    can assert the GPU slot / token-budget plumbing without spinning a
    pool.

    ``num_gpus`` > 0 reserves a GPU fraction per actor (the reference's
    CUDA slot, app.py:266-271 / streamlit_utils.py:13) and drops the
    CPU pin (a GPU scorer blocks on the device, not a core).
    ``max_tokens_per_batch`` sizes the Arrow batch to a device token
    budget: every turn decodes ≤ MAX_SEQ_LEN tokens (reference
    truncation), so ``budget // MAX_SEQ_LEN`` turns per batch is the
    worst-case-safe batch size (the reference's fixed batch 32 at 100
    tokens ≡ a 3200-token budget)."""
    from ..kernels.tokenize import MAX_SEQ_LEN

    if max_tokens_per_batch is not None:
        batch_size = max(1, max_tokens_per_batch // MAX_SEQ_LEN)
    kwargs = dict(
        fn_constructor_kwargs={
            "alias_ref": alias_ref,
            "scorer": scorer,
            "scorer_kwargs": scorer_kwargs,
        },
        batch_format="pyarrow",
        batch_size=batch_size,
        concurrency=concurrency or (2, 8),
    )
    if num_gpus:
        kwargs["num_gpus"] = num_gpus
    else:
        kwargs["num_cpus"] = 1
    return kwargs


def annotate_stage(
    ds,
    alias_ref,
    concurrency=None,
    batch_size: int = 1024,
    mode: str = "tasks",
    scorer: str = "dict",
    scorer_kwargs: dict | None = None,
    num_gpus: float = 0.0,
    max_tokens_per_batch: int | None = None,
):
    """Annotate a turns Dataset.

    mode="tasks": stateless map_batches tasks with per-worker cached state —
    elastic, no pool spin-up; the default for CPU-only dictionary tagging.
    mode="actors": explicit actor pool (``concurrency`` required) — the slot
    a learned GPU scorer uses (reference A1 load-once contract);
    ``num_gpus`` / ``max_tokens_per_batch`` configure the device slot and
    the token-budget batch size (see ``actor_pool_kwargs``).
    scorer: "dict" (greedy match) or a trained checkpoint served through
    "learned", "combinatorial" or "combinatorial_torch" (output depends
    on the weights; see ``TurnAnnotator``).
    """
    if mode == "actors":
        return ds.map_batches(
            TurnAnnotator,
            **actor_pool_kwargs(
                alias_ref,
                concurrency=concurrency,
                batch_size=batch_size,
                scorer=scorer,
                scorer_kwargs=scorer_kwargs,
                num_gpus=num_gpus,
                max_tokens_per_batch=max_tokens_per_batch,
            ),
        )

    def annotate(batch: pa.Table) -> pa.Table:
        return _cached_annotator(alias_ref, scorer, scorer_kwargs)(batch)

    return ds.map_batches(annotate, batch_format="pyarrow", batch_size=batch_size)
