"""CLI entry point — the ``ray job submit`` surface for the KG pipeline.

Usage (local or as a Ray job driver script)::

    python -m biomedical_ner_ray.run \
        --transcripts /data/transcripts/ --alias /data/alias.parquet \
        --out /data/kg_out [--num-cpus 32] [--buckets 8]

Re-running with the same inputs resumes: completed stages/buckets are
skipped via their lineage manifests and the run report says so. This
script OWNS its Ray session (guarded init — under ``ray job submit``
Ray is already initialised); the library never calls ``ray.init``.
"""

from __future__ import annotations

import argparse
import json
import sys


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(prog="biomedical_ner_ray.run")
    ap.add_argument("--transcripts", required=True, help="parquet file or directory")
    ap.add_argument("--alias", required=True, help="alias dictionary parquet")
    ap.add_argument("--out", required=True, help="output root directory")
    ap.add_argument("--buckets", type=int, default=8)
    ap.add_argument("--batch-size", type=int, default=4096)
    ap.add_argument("--num-cpus", type=int, default=None,
                    help="only used when this process must init Ray itself")
    ap.add_argument("--no-sort", action="store_true",
                    help="skip the (conv_id, turn_idx) ordering stage")
    ap.add_argument(
        "--meter", action="store_true",
        help="measure per-exchange shuffle volumes (rows + deep bytes in/"
             "out of every keyed exchange) and add them to the report "
             "(stages/exchange.exchange_metering; measurement mode — one "
             "blocking actor call per batch)",
    )
    ap.add_argument(
        "--ingest-delta", action="store_true",
        help="treat --transcripts as an ingest DELTA and apply it to the "
             "persistent store at --out (micro-batch loop: incremental "
             "dedup vs the store's LSH index -> annotate -> touched-bucket "
             "KG edge upsert -> vector-store upsert; idempotent, crash-safe "
             "generation flip — see pipelines/ingest.py)",
    )
    args = ap.parse_args(argv)

    import ray

    owned = False
    if not ray.is_initialized():
        kw = {"address": "local", "include_dashboard": False}
        if args.num_cpus:
            kw["num_cpus"] = args.num_cpus
        ray.init(**kw)
        owned = True
    try:
        if args.ingest_delta:
            from .pipelines.ingest import ingest_delta

            report = ingest_delta(args.out, args.transcripts, args.alias)
            print(json.dumps({"store": args.out, "ingest": report}, indent=2))
            return 0

        from contextlib import nullcontext

        from .pipelines.kg import run_kg_pipeline
        from .stages.exchange import exchange_metering

        meter_cm = exchange_metering() if args.meter else nullcontext(None)
        with meter_cm as snapshot:
            res = run_kg_pipeline(
                args.transcripts,
                args.alias,
                args.out,
                n_buckets=args.buckets,
                annotate_batch_size=args.batch_size,
                sort=not args.no_sort,
            )
            volumes = snapshot() if snapshot is not None else None
        report = {
            "out": args.out,
            "stages": {
                k: {
                    "rows": v["rows"],
                    "skipped": v.get("skipped", False),
                    "wall_sec": v.get("wall_sec"),
                    "counters": v.get("counters", {}),
                }
                for k, v in res.items()
                if k not in ("paths", "annotations")
            },
            "annotations": {
                "rows": res["annotations"]["rows"],
                "built_buckets": res["annotations"]["built_buckets"],
                "skipped_buckets": res["annotations"]["skipped_buckets"],
                "counters": [m.get("counters", {}) for m in res["annotations"]["buckets"]],
            },
            "paths": res["paths"],
        }
        if volumes is not None:
            report["exchange_volumes"] = volumes
        print(json.dumps(report, indent=2))
        return 0
    finally:
        if owned:
            ray.shutdown()


if __name__ == "__main__":
    sys.exit(main())
