"""Benchmark of the transcript -> knowledge-graph engine.

    python3 perfbench/run.py --workload kg_build_dict --seed 1 --seconds 10 --trace 0

Workloads (see BENCHMARK.json and workloads.py):

- ``kg_build_dict``: a fresh ``run_kg_pipeline`` build, dictionary scorer;
- ``kg_build_learned``: the same build with the trained scorer;
- ``ingest_stream``: one ``ingest_delta`` against a store bootstrapped
  during set-up, restored before each operation.

One run starts a local Ray cluster with ``NUM_CPUS`` CPUs, generates
its inputs from ``--seed``, sets up, then repeats the workload's
operation until ``--seconds`` of operation time have passed (and at
least the workload's minimum number of operations). Every operation of
a run does the same work. Each operation's output is checked outside
the timed window; an operation that raises or fails its check counts as
failed.

``turns_per_s``, ``op_latency_s`` and ``cpu_s_per_kturn`` are medians
over a run's operations, so a stall of the shared host during one
operation moves them little.

With ``--trace 0`` the last stdout line holds the end-to-end metrics.
With ``--trace 1`` operations come in pairs from the same starting
state, the first untraced and the second traced, and the line holds the
per-layer metrics of the traced ones plus the tracing overhead (the
drop in turns/s from untraced to traced). The line before the last
records the run's context (Ray num_cpus, nproc, CPU affinity, mean
steal, load average, git SHA, seed, operation walls and, when traced,
the span table), which gates nothing.

``setup_s`` runs from process start to the first timed operation: Ray
start-up, input generation, checkpoint training or the ingest
bootstrap, the build checks' references, and one small untimed warm-up
build. ``peak_rss_mb`` is the
largest sum of proportional set sizes over the benchmark's process tree
(Ray included) sampled during operations; ``cpu_s_per_kturn`` is that
tree's CPU time during an operation per 1,000 turns.

Everything the run writes goes under ``.perfbench_run/`` and ``.ray/``
at the root of the checkout, which are removed at the end (``.ray/``
moves to the system temp dir when the checkout path is too long for
Ray's socket paths). The run exits non-zero
without a result when the package source is not beside it.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import shutil
import statistics
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
PACKAGE = "biomedical_ner_ray"
# one Ray CPU: the host gives the benchmark about one core (nproc 1);
# more Ray workers than that measure the host's scheduler
NUM_CPUS = 1
OBJECT_STORE_BYTES = 512 << 20
# AF_UNIX socket paths are limited to 107 bytes and Ray puts its
# sockets up to 64 characters below its temp dir
MAX_RAY_TMP_LEN = 43


def _process_age_s() -> float:
    """Seconds since this process started, from /proc."""
    clk = os.sysconf("SC_CLK_TCK")
    with open("/proc/self/stat") as f:
        raw = f.read()
    start_ticks = int(raw[raw.rindex(")") + 2:].split()[19])
    with open("/proc/uptime") as f:
        uptime = float(f.read().split()[0])
    return uptime - start_ticks / clk


def metric_units(kind: str) -> dict[str, str]:
    """Name -> unit of the ``end_to_end`` or ``per_layer`` metrics."""
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        return {m["name"]: m["unit"] for m in json.load(f)[kind]}


def parse_args(argv=None):
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--workload", required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--seconds", type=float, required=True)
    p.add_argument("--trace", type=int, choices=(0, 1), default=0)
    p.add_argument("--scale", type=float, default=1.0,
                   help="input size relative to the benchmark's (smoke tests)")
    p.add_argument("--plant-fault", action="store_true",
                   help="corrupt each output before its check (smoke tests)")
    return p.parse_args(argv)


def prepare_environment(run_dir: str) -> None:
    """Scope temp files and fixture caches to the run directory, and make
    the package importable in this process and in every Ray worker
    whatever the caller's cwd or PYTHONPATH."""
    tmp = os.path.join(run_dir, "tmp")
    os.makedirs(tmp)
    os.environ["TMPDIR"] = tmp
    os.environ["GRAFT_FIXTURE_ROOT"] = os.path.join(run_dir, "fixtures")
    os.environ["OMP_NUM_THREADS"] = "1"
    # Ray's hash partitioning and set iteration orders use str hashes; fix
    # them in the workers so partition skew is the same from run to run
    os.environ["PYTHONHASHSEED"] = "0"
    os.environ["PYTHONPATH"] = os.pathsep.join(
        [ROOT] + [p for p in os.environ.get("PYTHONPATH", "").split(os.pathsep) if p])
    sys.path.insert(0, ROOT)


def ray_temp_dir(system_tmp: str) -> str:
    """Ray's temp dir: ``.ray`` in the checkout, unless that path is too
    long for Ray's sockets; then under the system temp dir."""
    inside = os.path.join(ROOT, ".ray")
    return inside if len(inside) <= MAX_RAY_TMP_LEN else os.path.join(system_tmp, "ray")


def start_ray(ray_tmp: str) -> str:
    """Start Ray; return its session dir (a private attribute: Ray has no
    public accessor for it)."""
    import logging

    import ray
    from ray.data import DataContext

    ray.init(num_cpus=NUM_CPUS, object_store_memory=OBJECT_STORE_BYTES,
             include_dashboard=False, logging_level="ERROR",
             log_to_driver=False, _temp_dir=ray_tmp)
    DataContext.get_current().enable_progress_bars = False
    logging.getLogger("ray.data").setLevel(logging.ERROR)

    @ray.remote
    def package_file():
        import biomedical_ner_ray

        return biomedical_ner_ray.__file__

    where = ray.get(package_file.remote())
    if not os.path.abspath(where).startswith(ROOT + os.sep):
        raise RuntimeError(f"Ray workers import {PACKAGE} from {where}, not {ROOT}")
    return ray._private.worker._global_node.get_session_dir_path()


def stop_ray() -> None:
    import ray

    from sysinfo import descendants, wait_gone

    ray.shutdown()
    left = wait_gone([p for p in descendants(os.getpid()) if p != os.getpid()], 30)
    for pid in left:
        try:
            os.kill(pid, 9)
        except ProcessLookupError:
            pass
    wait_gone(left, 10)


def run(args) -> tuple[dict, dict]:
    import sysinfo
    from spans import Tracer, unattributed_s
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        raise SystemExit(f"unknown workload {args.workload!r}; "
                         f"choose from {sorted(WORKLOADS)}")
    if not os.path.isfile(os.path.join(ROOT, PACKAGE, "__init__.py")):
        raise SystemExit(f"no {PACKAGE} package beside the benchmark in {ROOT}")
    run_dir = os.path.join(ROOT, ".perfbench_run",
                           f"{args.workload}-{args.seed}-{os.getpid()}")
    if os.path.exists(run_dir):
        shutil.rmtree(run_dir)
    os.makedirs(run_dir)
    ray_tmp = ray_temp_dir(os.environ.get("TMPDIR", "/tmp"))
    prepare_environment(run_dir)
    cpu_start, load_start = sysinfo.cpu_counters(), os.getloadavg()
    session_dir = None
    try:
        session_dir = start_ray(ray_tmp)
        import biomedical_ner_ray

        if not biomedical_ner_ray.__file__.startswith(ROOT + os.sep):
            raise RuntimeError(f"imported {PACKAGE} from {biomedical_ner_ray.__file__}")
        wl = WORKLOADS[args.workload](run_dir, args.seed, args.scale)
        wl.setup()
        setup_s = _process_age_s()

        me = os.getpid()
        mem = sysinfo.PeakMemory(me).start()
        tracer = Tracer() if args.trace else None
        walls: list[float] = []
        traced_walls: list[float] = []
        op_turns: list[int] = []
        op_cpu_s: list[float] = []
        traced_turns = 0
        attempted = failed = 0
        op_spans: list[dict] = []
        elapsed = 0.0
        i = 0
        # a traced run makes pairs of operations, the first untraced and
        # the second traced, each from the same starting state
        min_ops = 2 if tracer else wl.min_ops
        while elapsed < args.seconds or attempted < min_ops:
            traced = tracer is not None and i % 2 == 1
            attempted += 1
            ok = True
            try:
                gc.collect()
                wl.prepare(i)
                if traced:
                    wl.install_tracing(tracer)
            except Exception:
                traceback.print_exc()
                if tracer is not None:
                    tracer.restore()
                ok = False
            mem.active = True
            cpu0 = sysinfo.tree_cpu(me)
            t0 = time.perf_counter()
            if ok:
                try:
                    if traced:
                        with tracer.span("op", op=i) as rec:
                            tracer.root = rec["id"]
                            turns = wl.op(i)
                        op_spans.append(rec)
                    else:
                        turns = wl.op(i)
                except Exception:
                    traceback.print_exc()
                    ok = False
                finally:
                    if traced:
                        tracer.restore()
                        tracer.root = None
            wall = time.perf_counter() - t0
            cpu_s = sysinfo.cpu_used(cpu0, sysinfo.tree_cpu(me))
            mem.active = False
            elapsed += wall
            if ok:
                try:
                    wl.check(i, args.plant_fault)
                    if traced:
                        wl.after_traced_op(i)
                except Exception:
                    traceback.print_exc()
                    ok = False
            wl.discard(i)
            if not ok:
                failed += 1
            elif traced:
                traced_walls.append(wall)
                traced_turns += turns
            else:
                walls.append(wall)
                op_turns.append(turns)
                op_cpu_s.append(cpu_s)
            i += 1
        peak_mb = mem.stop()
        context = {
            "workload": args.workload,
            "seed": args.seed,
            "seconds": args.seconds,
            "trace": args.trace,
            "scale": args.scale,
            "ray_num_cpus": NUM_CPUS,
            "nproc": sysinfo.nproc(),
            "cpu_affinity": len(os.sched_getaffinity(0)),
            "mean_steal_pct": sysinfo.steal_pct(cpu_start, sysinfo.cpu_counters()),
            "loadavg_start": load_start,
            "loadavg_end": os.getloadavg(),
            "git_sha": sysinfo.git_sha(ROOT),
            "op_walls_s": walls,
            "op_cpu_s": op_cpu_s,
            "traced_op_walls_s": traced_walls,
        }

        if tracer is None:
            med = statistics.median
            metrics = {
                "turns_per_s": med(t / w for t, w in zip(op_turns, walls))
                if walls else 0.0,
                "op_latency_s": med(walls or [elapsed]),
                "cpu_s_per_kturn": med(1000.0 * c / max(t, 1)
                                       for c, t in zip(op_cpu_s, op_turns))
                if walls else 0.0,
                "setup_s": setup_s,
                "peak_rss_mb": peak_mb,
            }
            units = metric_units("end_to_end")
        else:
            units = metric_units("per_layer")
            metrics = dict.fromkeys(units, 0.0)
            if op_spans:
                metrics.update(wl.layer_metrics(tracer, op_spans))
            if walls and traced_walls:
                plain = sum(op_turns) / sum(walls)
                metrics["trace.overhead_pct"] = 100.0 * (
                    plain - traced_turns / sum(traced_walls)) / plain
            context["traced_ops"] = [
                {"op": s["attrs"]["op"], "wall_s": s["end"] - s["start"],
                 "unattributed_s": unattributed_s(tracer, s)} for s in op_spans]
            context["spans"] = tracer.table()
            context["annotate_replay_spans"] = wl.replay_table
        result = {
            "correct": failed == 0,
            "attempted": attempted,
            "failed": failed,
            "metrics": {k: {"value": metrics[k], "unit": units[k]} for k in units},
        }
        return context, result
    finally:
        stop_ray()
        shutil.rmtree(run_dir, ignore_errors=True)
        try:
            os.rmdir(os.path.dirname(run_dir))  # left only if another run is live
        except OSError:
            pass
        if ray_tmp.startswith(ROOT + os.sep):
            shutil.rmtree(ray_tmp, ignore_errors=True)
        elif session_dir is not None:
            shutil.rmtree(session_dir, ignore_errors=True)


def main(argv=None) -> int:
    args = parse_args(argv)
    context, result = run(args)
    print(json.dumps({"context": context}))
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
