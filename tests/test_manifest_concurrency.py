"""Concurrent-writer safety of the lineage/resume layer.

Regression for a real race observed in practice: two driver processes
(e.g. pytest and a bench run) both lazily build the same cached stage
(``ensure_combinatorial_artifacts``), both see it incomplete, and the
loser's ``os.rename(tmp, out)`` fails ENOTEMPTY — or worse, its
``shutil.rmtree(out_dir)`` deletes the winner's completed output.
``run_stage`` now serialises the rebuild behind an flock and re-checks
completeness after acquiring, so the loser adopts the winner's output.
"""

from __future__ import annotations

import os
import threading
import time

import pyarrow as pa
import pyarrow.parquet as pq

from biomedical_ner_ray.state import manifest as mf


def _build(tmp_dir: str, payload: int, delay: float = 0.05):
    # Sleep inside the build so both threads overlap in the critical
    # section if the lock were absent.
    time.sleep(delay)
    pq.write_table(
        pa.table({"x": pa.array([payload] * 3, type=pa.int64())}),
        os.path.join(tmp_dir, "part.parquet"),
    )


def test_run_stage_concurrent_writers(tmp_path):
    out_dir = str(tmp_path / "stage_out")
    fp = mf.fingerprint("concurrency-test")
    results: dict[int, dict] = {}
    errors: list[BaseException] = []

    def worker(i: int):
        try:
            results[i] = mf.run_stage(
                f"stage-{i}", out_dir, fp, lambda d, i=i: _build(d, i)
            )
        except BaseException as e:  # pragma: no cover - the failure mode
            errors.append(e)

    threads = [threading.Thread(target=worker, args=(i,)) for i in range(4)]
    for t in threads:
        t.start()
    for t in threads:
        t.join()

    assert not errors, f"run_stage raced: {errors!r}"
    assert len(results) == 4
    # Exactly one writer built; the rest adopted its output via the
    # post-acquire completeness re-check.
    built = [i for i, m in results.items() if not m["skipped"]]
    assert len(built) == 1
    # Output is complete, readable, and carries the winner's payload.
    assert mf.is_complete(out_dir, fp)
    table = pq.read_table(os.path.join(out_dir, "part.parquet"))
    assert table.column("x").to_pylist() == [built[0]] * 3
    for m in results.values():
        assert m["rows"] == 3
    # No leftover tmp dir.
    assert not os.path.exists(out_dir + ".tmp")


def test_run_stage_resume_skip_still_works(tmp_path):
    out_dir = str(tmp_path / "stage_out2")
    fp = mf.fingerprint("resume-test")
    m1 = mf.run_stage("s", out_dir, fp, lambda d: _build(d, 7, delay=0.0))
    assert m1["skipped"] is False
    m2 = mf.run_stage("s", out_dir, fp, lambda d: _build(d, 8, delay=0.0))
    assert m2["skipped"] is True
    # A changed fingerprint rebuilds.
    m3 = mf.run_stage(
        "s", out_dir, mf.fingerprint("other"), lambda d: _build(d, 9, delay=0.0)
    )
    assert m3["skipped"] is False
    assert pq.read_table(os.path.join(out_dir, "part.parquet")).column(
        "x"
    ).to_pylist() == [9] * 3


def test_legacy_lock_kept_under_live_holder(tmp_path):
    """The migration sweep removes an old-release ``<out_dir>.lock`` only
    when nobody holds it, and never creates one."""
    import fcntl

    out_dir = str(tmp_path / "stage_out3")
    legacy = out_dir + ".lock"
    mf.run_stage("s", out_dir, mf.fingerprint("a"), lambda d: _build(d, 1, 0.0))
    assert not os.path.exists(legacy)

    # a live older-release writer holds the legacy lock (its own open
    # file description, so this process's flock does not share it)
    with open(legacy, "w") as holder:
        fcntl.flock(holder, fcntl.LOCK_EX)
        m = mf.run_stage("s", out_dir, mf.fingerprint("b"), lambda d: _build(d, 2, 0.0))
        assert m["skipped"] is False
        assert os.path.exists(legacy)

    # released: the next run sweeps it
    mf.run_stage("s", out_dir, mf.fingerprint("c"), lambda d: _build(d, 3, 0.0))
    assert not os.path.exists(legacy)
