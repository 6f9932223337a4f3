"""Graph materialization: deduplicated node / edge tables.

Scale pattern (ray_guide "Aggregation at scale"): pre-aggregate partial
counts inside ``map_batches`` (one row per key per batch) so the
exchange only ever moves the tiny partials, never the raw mention /
triple streams; the combine is the keyed exchange + vectorized pandas
merge from ``stages/exchange.py`` (the built-in aggregate's per-group
Python finalize is the bottleneck at high key cardinality). The
exchange sizes itself: partials that fit ``BYTES_PER_PARTITION`` are
combined in the calling process, larger ones are shuffled. The
CUI→component map and per-CUI metadata are broadcast dicts resolved once
per task closure (SURVEY.md J7).

Each table has a plan (``nodes_plan`` / ``edges_plan``: the partial
stream, its keys and its combine) and two ways to run it: the
``*_stage`` functions return the combined Dataset, and the flagship
pipeline hands the same plan to ``sharded_sorted_write``, which
combines and writes the sorted shard files in the same exchange.

The plans take a zero-arg Dataset factory, called once per plan, so
each build gets its own fresh input plan. No exchange needs its input
built in a special DataContext any more; the convention stays because
callers (the KG pipeline, the queries and the benchmark's workloads)
pass factories.
"""

from __future__ import annotations

import pandas as pd

from ..state.broadcast import resolve
from .exchange import keyed_exchange

EDGE_KEYS = ["subj_cui", "pred", "obj_cui"]


def nodes_plan(linked_mentions_factory, comp_ref, meta_ref):
    """(partials, keys, combine) of the node table: per-batch canonical
    CUI counts, keyed on ``cui``.

    comp_ref: dict cui → canonical component id (min CUI).
    meta_ref: dict cui → (canonical_name, type) for component reps.
    """

    def partial_counts(df: pd.DataFrame) -> pd.DataFrame:
        comp = resolve(comp_ref)
        canon = df["cui"].map(comp)
        return canon.value_counts().rename_axis("cui").reset_index(name="n")

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        meta = resolve(meta_ref)
        out = df.groupby("cui", sort=False)["n"].sum().reset_index(name="mention_count")
        out["canonical_name"] = out["cui"].map(lambda c: meta[c][0])
        out["type"] = out["cui"].map(lambda c: meta[c][1])
        return out[["cui", "canonical_name", "type", "mention_count"]]

    partials = linked_mentions_factory().map_batches(
        partial_counts, batch_format="pandas"
    )
    return partials, ["cui"], combine


def nodes_stage(linked_mentions_factory, comp_ref, meta_ref, num_partitions: int = 8):
    """linked_mentions → nodes(cui, canonical_name, type, mention_count)."""
    return keyed_exchange(
        *nodes_plan(linked_mentions_factory, comp_ref, meta_ref), num_partitions
    )


def edges_plan(triples_factory, comp_ref):
    """(partials, keys, combine) of the edge table: per-batch counts of
    canonical-remapped, non-self-loop triples, keyed on ``EDGE_KEYS``."""

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        comp = resolve(comp_ref)
        s = df["subj_cui"].map(comp)
        o = df["obj_cui"].map(comp)
        keep = s != o
        return (
            pd.DataFrame({"subj_cui": s[keep], "pred": df["pred"][keep], "obj_cui": o[keep]})
            .groupby(EDGE_KEYS, sort=False)
            .size()
            .reset_index(name="n")
        )

    def combine(df: pd.DataFrame) -> pd.DataFrame:
        return (
            df.groupby(EDGE_KEYS, sort=False)["n"].sum().reset_index(name="weight")
        )[EDGE_KEYS + ["weight"]]

    partials = triples_factory().map_batches(partial, batch_format="pandas")
    return partials, EDGE_KEYS, combine


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
