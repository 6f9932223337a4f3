"""Per-partition lineage manifests + resume.

North-rule requirement: "Every stage checkpoints per-partition lineage and
counters so a killed run resumes without recomputation." Ray Data has no
built-in output-level resume (SURVEY.md §7.4), so this layer implements
it: each stage (or partition of a stage) writes its Parquet output into a
temp directory, then atomically renames it into place and drops a
``_MANIFEST.json`` recording the input fingerprint, row count, wall time
and counters. On rerun, a partition whose manifest exists with a matching
fingerprint is skipped (the skip is itself counted, so tests can prove
zero recomputation).
"""

from __future__ import annotations

import hashlib
import json
import os
import shutil
import time

MANIFEST_NAME = "_MANIFEST.json"


def fingerprint(*parts: str) -> str:
    h = hashlib.sha256()
    for p in parts:
        h.update(str(p).encode("utf-8"))
        h.update(b"\x00")
    return h.hexdigest()[:16]


def input_fingerprint(paths: list[str]) -> str:
    """Fingerprint of input files: names + sizes (content proxy)."""
    parts = []
    for p in sorted(paths):
        try:
            parts.append(f"{p}:{os.path.getsize(p)}")
        except OSError:
            parts.append(p)
    return fingerprint(*parts)


def read_manifest(out_dir: str) -> dict | None:
    p = os.path.join(out_dir, MANIFEST_NAME)
    if not os.path.exists(p):
        return None
    with open(p) as f:
        return json.load(f)


def manifest_outputs(out_dir: str, m: dict, kind: str) -> list[str]:
    """Paths of the ``kind`` files a manifest lists in ``outputs``
    (stored relative to ``out_dir``, so a moved tree stays valid)."""
    return [
        os.path.normpath(os.path.join(out_dir, p))
        for p in m.get("outputs", {}).get(kind, [])
    ]


def is_complete(out_dir: str, fp: str) -> bool:
    """The manifest's fingerprint is ``fp`` and every file it lists in
    ``outputs`` exists."""
    m = read_manifest(out_dir)
    return (
        m is not None
        and m.get("fingerprint") == fp
        and all(
            os.path.exists(f)
            for kind in m.get("outputs", {})
            for f in manifest_outputs(out_dir, m, kind)
        )
    )


def parquet_row_count(out_dir: str) -> int:
    import pyarrow.parquet as pq

    total = 0
    for root, _dirs, files in os.walk(out_dir):
        for f in files:
            if f.endswith(".parquet"):
                total += pq.ParquetFile(os.path.join(root, f)).metadata.num_rows
    return total


def run_stage(
    name: str,
    out_dir: str,
    fp: str,
    build_and_write,
    counters: dict | None = None,
) -> dict:
    """Run one resumable stage.

    ``build_and_write(tmp_dir)`` must write the stage's Parquet output into
    ``tmp_dir``. If it returns a dict, its items go into the manifest,
    written once with the rest: e.g. ``counters``, or ``outputs``
    (kind → paths relative to ``out_dir``) for files a stage writes
    outside ``out_dir``; the stage is complete only while they all
    exist. Returns the manifest dict; ``manifest["skipped"]`` tells
    whether the stage was resumed from a previous run.
    """
    if is_complete(out_dir, fp):
        m = read_manifest(out_dir)
        m["skipped"] = True
        return m
    # Concurrent-writer guard: two processes (e.g. pytest and a driver
    # both lazily building the same cached artifact) can race here — the
    # loser's rmtree would delete the winner's completed output and its
    # os.rename would fail ENOTEMPTY. An exclusive flock on a sibling
    # lock file serialises the rebuild; after acquiring, re-check
    # completeness so the loser adopts the winner's output instead of
    # rebuilding. fcntl locks are per-host, which matches the scope:
    # stage output dirs live on node-local or shared storage where the
    # writers contending are co-located driver processes.
    import fcntl

    # Hidden dot-file so it can never collide with the output namespace:
    # `bucket=000.lock` would match `bucket=*` partition globs and isn't
    # skipped by Arrow dataset discovery (which ignores only `.`/`_`
    # prefixes) — `.bucket=000.lock` is invisible to both.
    parent = os.path.dirname(out_dir) or "."
    lock_path = os.path.join(parent, "." + os.path.basename(out_dir) + ".lock")
    os.makedirs(parent, exist_ok=True)
    # Migration sweep: earlier releases locked at the visible
    # `<out_dir>.lock` path, which collides with `bucket=*` partition
    # globs inside hive stores and splits mutual exclusion across
    # versions. Best-effort unlink so existing cache namespaces are
    # cleaned on first touch by the new code — but only when nobody
    # holds it (a live older-release writer keeps its lock file), and
    # without O_CREAT so the sweep never creates the file.
    legacy = out_dir + ".lock"
    try:
        legacy_fd = os.open(legacy, os.O_RDONLY)
    except OSError:
        pass
    else:
        try:
            fcntl.flock(legacy_fd, fcntl.LOCK_EX | fcntl.LOCK_NB)
            os.unlink(legacy)
        except OSError:
            pass
        finally:
            os.close(legacy_fd)
    with open(lock_path, "w") as lock_f:
        fcntl.flock(lock_f, fcntl.LOCK_EX)
        try:
            if is_complete(out_dir, fp):
                m = read_manifest(out_dir)
                m["skipped"] = True
                return m
            # stale/partial output from a killed run: rebuild from scratch
            if os.path.exists(out_dir):
                shutil.rmtree(out_dir)
            tmp_dir = out_dir + ".tmp"
            if os.path.exists(tmp_dir):
                shutil.rmtree(tmp_dir)
            os.makedirs(tmp_dir, exist_ok=True)
            t0 = time.perf_counter()
            extra = build_and_write(tmp_dir)
            wall = time.perf_counter() - t0
            manifest = {
                "stage": name,
                "fingerprint": fp,
                "rows": parquet_row_count(tmp_dir),
                "wall_sec": round(wall, 3),
                "counters": counters or {},
                "completed_at": time.time(),
            }
            if isinstance(extra, dict):
                manifest.update(extra)
            with open(os.path.join(tmp_dir, MANIFEST_NAME), "w") as f:
                json.dump(manifest, f)
            os.rename(tmp_dir, out_dir)
            manifest["skipped"] = False
            return manifest
        finally:
            fcntl.flock(lock_f, fcntl.LOCK_UN)


def update_manifest(out_dir: str, **fields) -> None:
    """Merge fields into an existing manifest (e.g. post-hoc counters)."""
    m = read_manifest(out_dir)
    if m is None:
        return
    m.update(fields)
    with open(os.path.join(out_dir, MANIFEST_NAME), "w") as f:
        json.dump(m, f)


def sweep_stale_handoffs(base: str, ttl_sec: float = 6 * 3600.0) -> str:
    """Reserve a fresh handoff dir under ``base`` and reap ONLY sibling
    handoffs older than ``ttl_sec``.

    Handoff parquet is read lazily by the Dataset a builder returned, so
    an unconditional ``rmtree(base)`` at the next builder's entry would
    delete a live handoff out from under a still-unconsumed pipeline
    (exchange.py explicitly supports concurrent pipeline threads). The
    TTL bound keeps the disk footprint of serial bench/driver runs the
    same as before (prior runs' handoffs age out) without racing live
    ones. RESIDUAL RISK, documented: a pipeline built but first
    consumed more than ``ttl_sec`` after its handoff was written can
    still lose it to a later builder's sweep — mtime records the
    write, not the read. The 6 h default makes that a pathological
    usage pattern for this repo's serial bench/driver runs; a
    long-lived cluster deployment should scope handoffs to a job
    scratch dir reaped with the job (see stages/dedup.py) instead of
    relying on the TTL. Returns the new handoff path (not yet
    created)."""
    import time as _time
    import uuid as _uuid

    now = _time.time()
    try:
        for name in os.listdir(base):
            p = os.path.join(base, name)
            try:
                if now - os.path.getmtime(p) > ttl_sec:
                    shutil.rmtree(p, ignore_errors=True)
            except OSError:
                continue
    except OSError:
        pass  # base doesn't exist yet
    return os.path.join(base, _uuid.uuid4().hex)


def list_parquet_files(path: str) -> list[str]:
    if os.path.isfile(path):
        return [path]
    out = []
    for root, _dirs, files in os.walk(path):
        for f in files:
            if f.endswith(".parquet"):
                out.append(os.path.join(root, f))
    return sorted(out)
