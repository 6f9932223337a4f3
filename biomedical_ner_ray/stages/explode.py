"""Vectorized explode (flat_map) of nested annotation rows.

``ds.flat_map(row_fn)`` is per-row Python — too slow for a hot path
(ray_guide pitfalls). ``explode_mentions`` / ``explode_triples`` do the
same with pure pyarrow kernels: ``list_parent_indices`` + ``flatten`` +
``take``, zero Python per row. The KG pipeline calls them inside its
annotate bucket sink, on each write task's annotated blocks, so the
mention and triple tables cost no Ray Data execution of their own;
``mentions_stage`` / ``triples_stage`` map them over a Dataset for the
queries and ingest.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc


def _explode(batch: pa.Table, list_col: str, keep_cols: list[str]) -> pa.Table:
    la = batch[list_col].combine_chunks()
    parent = pc.list_parent_indices(la)
    flat = la.flatten()
    cols: dict[str, pa.Array] = {}
    for k in keep_cols:
        cols[k] = pc.take(batch[k].combine_chunks(), parent)
    st = flat
    for i, field in enumerate(st.type):
        cols[field.name] = st.field(i)
    return pa.table(cols)


def explode_mentions(batch: pa.Table) -> pa.Table:
    return _explode(batch, "mentions", ["conv_id", "turn_idx"])


def explode_triples(batch: pa.Table) -> pa.Table:
    t = _explode(batch, "triples", ["conv_id", "turn_idx"])
    # column order: subj/pred/obj first (the triple identity), then provenance
    return t.select(
        ["subj_cui", "pred", "obj_cui", "conv_id", "turn_idx", "evidence_text"]
    )


def mentions_stage(annotations_ds, batch_size: int = 8192):
    return annotations_ds.map_batches(
        explode_mentions, batch_format="pyarrow", batch_size=batch_size
    )


def triples_stage(annotations_ds, batch_size: int = 8192):
    return annotations_ds.map_batches(
        explode_triples, batch_format="pyarrow", batch_size=batch_size
    )
