"""Measured shuffle volumes for SCALE.md — runs three headline
pipelines under ``exchange_metering()`` and prints per-exchange
(rows_in, MB_in, rows_out, MB_out) plus the reduction ratio, replacing
'bounded by construction' with numbers.

    python scripts/measure_shuffles.py [sf_dir]
"""

from __future__ import annotations

import json
import os
import sys

# the checkout this script lives in, for the driver and Ray's workers
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)


def main() -> None:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.1"

    import logging

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local", num_cpus=32, include_dashboard=False,
            logging_level="ERROR",
            runtime_env={"env_vars": {"PYTHONPATH": REPO}},
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    from biomedical_ner_ray import queries as Q
    from biomedical_ner_ray.fixtures import ensure_fixture
    from biomedical_ner_ray.pipelines.kg import run_kg_pipeline
    from biomedical_ner_ray.stages.exchange import exchange_metering

    report: dict = {"sf": sf}

    def consume(name, build):
        import shutil
        import time

        with exchange_metering() as snapshot:
            t0 = time.perf_counter()
            build()
            wall = time.perf_counter() - t0
            report[name] = {"wall_sec": round(wall, 2), "exchanges": snapshot()}
        # drop empty meters
        report[name]["exchanges"] = {
            k: v for k, v in report[name]["exchanges"].items() if v["rows_in"]
        }
        shutil.rmtree("/tmp/graft_meter_out", ignore_errors=True)

    p = ensure_fixture(
        "sf0.1" if sf.endswith("sf0.1") else "sf0.01"
    )
    consume(
        "kg_pipeline",
        lambda: run_kg_pipeline(
            p["transcripts"], p["alias_dict"], "/tmp/graft_meter_out"
        ),
    )
    consume(
        "minhash",
        lambda: Q.doc_dedup_minhash_join(sf).materialize(),
    )
    consume("ppjoin", lambda: Q.doc_dedup_ppjoin(sf).materialize())

    for name, r in report.items():
        if not isinstance(r, dict) or "exchanges" not in r:
            continue
        print(f"\n== {name} ({r['wall_sec']} s) ==")
        print(f"{'exchange':44s} {'rows_in':>10s} {'MB_in':>8s} "
              f"{'rows_out':>10s} {'MB_out':>8s} {'out/in':>7s}")
        for k, v in sorted(r["exchanges"].items()):
            ratio = v["rows_out"] / v["rows_in"] if v["rows_in"] else 0.0
            print(
                f"{k:44s} {v['rows_in']:>10d} {v['bytes_in']/1e6:>8.1f} "
                f"{v['rows_out']:>10d} {v['bytes_out']/1e6:>8.1f} {ratio:>7.3f}"
            )
    print("\n" + json.dumps(report))


if __name__ == "__main__":
    main()
