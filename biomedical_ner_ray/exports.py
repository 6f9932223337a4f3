"""Result exports — the reference app's JSON / CSV export surface
(S8/S9, ``app.py:908-950`` / ``app.py:1274-1318``) over engine tables.

The app exports one JSON bundle per analysis ({text, predictions,
entities, stats, timestamp}) and a CSV of per-token predictions
(position, token, tag, type). Our engine equivalents operate on the
mentions table: a distributed CSV sink (one row per mention) and a
driver-side JSON summary bundle (small aggregate + sample — bounded,
never the full table).
"""

from __future__ import annotations

import json
import os
import time


def export_mentions_csv(mentions_ds, out_dir: str) -> str:
    """Mentions → CSV files (distributed sink; one row per mention,
    reference column shape: position, token span, tag, type)."""
    os.makedirs(out_dir, exist_ok=True)
    mentions_ds.select_columns(
        ["conv_id", "turn_idx", "start_tok", "end_tok", "text", "type", "cui"]
    ).write_csv(out_dir)
    return out_dir


def export_run_summary_json(
    mentions_ds, out_path: str, sample_rows: int = 20
) -> dict:
    """The app's results-bundle analog: per-type counts + a bounded
    sample, written as a single JSON artifact. Aggregation runs in Ray
    (partial counts), only the tiny summary reaches the driver. The
    mentions are materialized once: the counting pass runs over them,
    and the sample is the head of their first blocks, so no execution
    is stopped early."""
    import pandas as pd
    import ray

    def partial(df: pd.DataFrame) -> pd.DataFrame:
        return df.groupby("type", sort=False).size().reset_index(name="n")

    mentions_ds = mentions_ds.materialize()
    counts: dict[str, int] = {}
    for b in (
        mentions_ds.select_columns(["type"])
        .map_batches(partial, batch_format="pandas")
        .iter_batches(batch_format="pandas")
    ):
        for t, n in zip(b["type"], b["n"]):
            counts[t] = counts.get(t, 0) + int(n)
    sample: list[dict] = []
    for ref in mentions_ds.to_arrow_refs():
        if len(sample) >= sample_rows:
            break
        head = ray.get(ref).slice(0, sample_rows - len(sample))
        sample += head.to_pandas().to_dict("records")
    bundle = {
        "type_counts": dict(sorted(counts.items())),
        "n_mentions": int(sum(counts.values())),
        "sample": sample,
        "exported_at": time.time(),
    }
    os.makedirs(os.path.dirname(out_path) or ".", exist_ok=True)
    with open(out_path, "w") as f:
        json.dump(bundle, f, indent=2, default=str)
    return bundle
