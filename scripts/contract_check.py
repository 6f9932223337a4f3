"""Driver-contract simulation: run every queries() entry and its
oracle_sql() twin at a given sf dir, compare rows / schema / values the
way the driver does (columns sorted by name, values hashed after a
whole-frame sort). Usage:

    python scripts/contract_check.py [sf_dir] [name ...]
"""

from __future__ import annotations

import hashlib
import importlib.util
import logging
import os
import sys

# the checkout this script lives in, for the driver and Ray's workers
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
sys.path.insert(0, REPO)

import duckdb
import pandas as pd

TABLES = [
    "region",
    "nation",
    "customer",
    "supplier",
    "part",
    "orders",
    "lineitem",
    "events",
    "documents",
    "embeddings",
]


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df[sorted(df.columns)].copy()
    if len(df.columns):
        df = df.sort_values(list(df.columns), kind="mergesort")
    return df.reset_index(drop=True)


def _value_hash(df: pd.DataFrame) -> str:
    # stringify (NaN/None/<NA> all render distinctly), hash the CSV bytes
    s = df.to_csv(index=False).encode()
    return hashlib.md5(s).hexdigest()


def main() -> None:
    sf = sys.argv[1] if len(sys.argv) > 1 else "/root/testdata/sf0.01"
    only = set(sys.argv[2:])

    # Point the fixture-backed oracle CTEs (kg family, CoNLL, replay
    # artifacts) at the SAME sf dir as the Ray side so sweeps at
    # sf0.001/sf0.1 compare like-for-like (read at __ray_entry__ exec).
    os.environ["GRAFT_ORACLE_SF_DIR"] = sf

    import ray

    if not ray.is_initialized():
        ray.init(
            address="local",
            num_cpus=os.cpu_count(),
            include_dashboard=False,
            logging_level="ERROR",
            runtime_env={"env_vars": {"PYTHONPATH": REPO}},
        )
    logging.getLogger("ray.data").setLevel(logging.ERROR)
    from ray.data import DataContext

    DataContext.get_current().enable_progress_bars = False

    spec = importlib.util.spec_from_file_location(
        "_ray_entry", os.path.join(REPO, "__ray_entry__.py")
    )
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    q, o = mod.queries(), mod.oracle_sql()

    con = duckdb.connect()
    for t in TABLES:
        con.execute(
            f"CREATE VIEW {t} AS SELECT * FROM read_parquet('{sf}/{t}.parquet')"
        )

    bad = []
    for name in sorted(q):
        if only and name not in only:
            continue
        try:
            res = q[name](sf)
            rdf = res.to_pandas() if hasattr(res, "to_pandas") else res
            if not isinstance(rdf, pd.DataFrame):
                rdf = rdf.to_pandas()
            if name not in o:
                print(f"{name}: rows={len(rdf)} (no oracle — rows-only)", flush=True)
                continue
            odf = con.execute(o[name]).df()
            a, b = _norm(rdf), _norm(odf)
            rows_ok = len(a) == len(b)
            schema_ok = list(a.columns) == list(b.columns)
            # dtype-insensitive value compare, like the driver's
            # canonicalised hash: stringify both sides
            ha = _value_hash(a.astype(str)) if rows_ok and schema_ok else None
            hb = _value_hash(b.astype(str)) if rows_ok and schema_ok else None
            ok = rows_ok and schema_ok and ha == hb
            status = "OK" if ok else "MISMATCH"
            schema_note = (
                "=" if schema_ok else f"{list(a.columns)!r}|{list(b.columns)!r}"
            )
            print(
                f"{name}: {status} rows={len(a)}/{len(b)} schema={schema_note}",
                flush=True,
            )
            if not ok:
                bad.append(name)
        except Exception as e:  # noqa: BLE001
            print(f"{name}: ERROR {type(e).__name__}: {e}", flush=True)
            bad.append(name)
    print("FAILED:", bad if bad else "none", flush=True)
    sys.exit(1 if bad else 0)


if __name__ == "__main__":
    main()
