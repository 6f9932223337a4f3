"""Graph materialization: deduplicated node / edge tables.

Scale pattern (ray_guide "Aggregation at scale"): pre-aggregate partial
counts where the rows are made (one row per key per batch) so the
exchange only ever moves the tiny partials, never the raw mention /
triple streams; the combine is the keyed exchange + vectorized pandas
merge from ``stages/exchange.py`` (the built-in aggregate's per-group
Python finalize is the bottleneck at high key cardinality). The
exchange sizes itself: partials that fit ``BYTES_PER_PARTITION`` are
combined in the calling process, larger ones are shuffled. The
CUI→component map and per-CUI metadata are broadcast dicts resolved once
per task closure (SURVEY.md J7).

``node_partials`` and ``edge_partials`` are the one definition of each
partial count (canonical remap; edges also drop self-loops). Every
producer calls them: the ``nodes_plan`` / ``edges_plan`` map stages
(used by the queries and by ingest's edge delta), and the KG pipeline's
annotate bucket sink, which writes them as small parquet files in the
same pass that writes the bucket's annotations. ``nodes_combine`` and
``edges_combine`` merge partials, whichever produced them.

Each table has a plan (the partial stream, its keys and its combine)
and two ways to run it: the ``*_stage`` functions return the combined
Dataset, and ``sharded_sorted_write`` combines and writes the sorted
shard files in the same exchange.

The plans take a zero-arg Dataset factory, called once per plan, so
each build gets its own fresh input plan. No exchange needs its input
built in a special DataContext any more; the convention stays because
callers (the queries and the benchmark's workloads) pass factories.
"""

from __future__ import annotations

import pandas as pd

from ..state.broadcast import resolve
from .exchange import keyed_exchange

EDGE_KEYS = ["subj_cui", "pred", "obj_cui"]


def node_partials(mentions: pd.DataFrame, comp: dict) -> pd.DataFrame:
    """(cui, n): counts of ``mentions``' linked CUIs, remapped to their
    canonical component id by ``comp`` (cui → min CUI of its
    component)."""
    canon = mentions["cui"].map(comp)
    return canon.value_counts().rename_axis("cui").reset_index(name="n")


def edge_partials(triples: pd.DataFrame, comp: dict) -> pd.DataFrame:
    """(subj_cui, pred, obj_cui, n): counts of ``triples`` remapped to
    canonical component ids by ``comp``, self-loops dropped."""
    s = triples["subj_cui"].map(comp)
    o = triples["obj_cui"].map(comp)
    keep = s != o
    return (
        pd.DataFrame({"subj_cui": s[keep], "pred": triples["pred"][keep], "obj_cui": o[keep]})
        .groupby(EDGE_KEYS, sort=False)
        .size()
        .reset_index(name="n")
    )


def nodes_combine(meta_ref):
    """Combine of node partials → (cui, canonical_name, type,
    mention_count); meta_ref: dict cui → (canonical_name, type) for
    component reps."""

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        meta = resolve(meta_ref)
        out = df.groupby("cui", sort=False)["n"].sum().reset_index(name="mention_count")
        out["canonical_name"] = out["cui"].map(lambda c: meta[c][0])
        out["type"] = out["cui"].map(lambda c: meta[c][1])
        return out[["cui", "canonical_name", "type", "mention_count"]]

    return combine


def edges_combine(df: pd.DataFrame) -> pd.DataFrame:
    """Combine of edge partials → (subj_cui, pred, obj_cui, weight)."""
    return (
        df.groupby(EDGE_KEYS, sort=False)["n"].sum().reset_index(name="weight")
    )[EDGE_KEYS + ["weight"]]


def nodes_plan(linked_mentions_factory, comp_ref, meta_ref):
    """(partials, keys, combine) of the node table: per-batch canonical
    CUI counts, keyed on ``cui``."""
    partials = linked_mentions_factory().map_batches(
        lambda df: node_partials(df, resolve(comp_ref)), batch_format="pandas"
    )
    return partials, ["cui"], nodes_combine(meta_ref)


def nodes_stage(linked_mentions_factory, comp_ref, meta_ref, num_partitions: int = 8):
    """linked_mentions → nodes(cui, canonical_name, type, mention_count)."""
    return keyed_exchange(
        *nodes_plan(linked_mentions_factory, comp_ref, meta_ref), num_partitions
    )


def edges_plan(triples_factory, comp_ref):
    """(partials, keys, combine) of the edge table: per-batch counts of
    canonical-remapped, non-self-loop triples, keyed on ``EDGE_KEYS``."""
    partials = triples_factory().map_batches(
        lambda df: edge_partials(df, resolve(comp_ref)), batch_format="pandas"
    )
    return partials, EDGE_KEYS, edges_combine


def edges_stage(triples_factory, comp_ref, num_partitions: int = 8):
    """triples → edges(subj_cui, pred, obj_cui, weight); canonical-remapped,
    self-loops dropped, exact-deduped with weights = occurrence counts."""
    return keyed_exchange(*edges_plan(triples_factory, comp_ref), num_partitions)


def node_meta(alias_rows: list[dict]) -> dict[str, tuple[str, str]]:
    """Deterministic per-CUI (canonical_name, type): lexicographic min over
    that CUI's alias rows — identical to oracle.materialize_graph."""
    meta: dict[str, tuple[str, str]] = {}
    for r in alias_rows:
        cand = (r["canonical_name"], r["type"])
        cur = meta.get(r["cui"])
        if cur is None or cand < cur:
            meta[r["cui"]] = cand
    return meta
