"""Run the traced benchmark of every workload and write the per-layer
report: ``perfbench/results/TRACE.md`` and the raw output of each run
as ``perfbench/results/<workload>.trace.json``.

    python3 perfbench/report.py --seed 201 --seconds 30
"""

from __future__ import annotations

import argparse
import json
import os
import subprocess
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
OUT = os.path.join(HERE, "results")


def traced_run(workload: str, seed: int, seconds: float) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, os.path.join(HERE, "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise SystemExit(f"{workload}: exit {proc.returncode}\n{proc.stderr[-3000:]}")
    lines = proc.stdout.strip().splitlines()
    return json.loads(lines[-2])["context"], json.loads(lines[-1])


def span_rows(spans: dict) -> list[str]:
    rows = ["| span | calls | total s | self s |", "|---|---:|---:|---:|"]
    for name, s in sorted(spans.items(), key=lambda kv: -kv[1]["total_s"]):
        rows.append(f"| `{name}` | {s['calls']} | {s['total_s']:.3f} | {s['self_s']:.3f} |")
    return rows


def section(ctx: dict, res: dict) -> list[str]:
    m = {k: v["value"] for k, v in res["metrics"].items()}
    plain, traced = ctx["op_walls_s"], ctx["traced_op_walls_s"]
    out = [
        f"## {ctx['workload']}",
        "",
        f"Seed {ctx['seed']}, Ray num_cpus={ctx['ray_num_cpus']}, nproc "
        f"{ctx['nproc']}, CPU affinity {ctx['cpu_affinity']}, mean steal "
        f"{ctx['mean_steal_pct']:.2f} %, load average "
        f"{ctx['loadavg_start'][0]:.2f} -> {ctx['loadavg_end'][0]:.2f}. "
        f"Operations attempted {res['attempted']}, failed {res['failed']}.",
        "",
        "Untraced operation walls: " + ", ".join(f"{w:.2f} s" for w in plain)
        + "; traced: " + ", ".join(f"{w:.2f} s" for w in traced)
        + f". Tracing overhead on turns/s: {m['trace.overhead_pct']:.1f} %.",
        "",
        "| traced op | wall s | unattributed s | unattributed % |",
        "|---:|---:|---:|---:|",
    ]
    for op in ctx["traced_ops"]:
        out.append(f"| {op['op']} | {op['wall_s']:.3f} | {op['unattributed_s']:.3f} "
                   f"| {100 * op['unattributed_s'] / op['wall_s']:.1f} |")
    out += ["", "Spans in the benchmark process during traced operations "
            "(self time = span minus the union of its child spans):", ""]
    out += span_rows(ctx["spans"])
    out += ["", "Annotate replayed in-process over the same batches:", ""]
    out += span_rows(ctx["annotate_replay_spans"])
    out += ["", "| per-layer metric | value | unit |", "|---|---:|---|"]
    for k, v in res["metrics"].items():
        if v["value"]:
            out.append(f"| `{k}` | {v['value']:.6g} | {v['unit']} |")
    return out + [""]


def main() -> int:
    p = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    p.add_argument("--seed", type=int, default=201)
    p.add_argument("--seconds", type=float, default=30)
    args = p.parse_args()
    with open(os.path.join(ROOT, "BENCHMARK.json")) as f:
        workloads = [w["name"] for w in json.load(f)["workloads"]]
    os.makedirs(OUT, exist_ok=True)
    doc = [
        "# Traced runs",
        "",
        "Written by `python3 perfbench/report.py "
        f"--seed {args.seed} --seconds {args.seconds:g}` (`--trace 1`). "
        "Operations come in pairs from the same starting state, untraced "
        "then traced; the overhead compares the two. Stage spans are "
        "`stage.<name>`; an ingest Dataset call is suffixed with the "
        "`pipelines/ingest.py` step it is called from. Metrics with value "
        "0 (layers the workload does not exercise) are left out.",
        "",
    ]
    for w in workloads:
        ctx, res = traced_run(w, args.seed, args.seconds)
        with open(os.path.join(OUT, f"{w}.trace.json"), "w") as f:
            json.dump({"context": ctx, "result": res}, f, indent=1)
        doc += section(ctx, res)
    with open(os.path.join(OUT, "TRACE.md"), "w") as f:
        f.write("\n".join(doc))
    return 0


if __name__ == "__main__":
    sys.exit(main())
