"""The benchmark's three workloads: inputs, operations, output checks and
the per-layer measurements of a traced run.

Every input is generated from the run's seed into the run directory; the
program under test sees only those Parquet files. Nothing here changes
the package: layers are timed by wrapping their public functions from
outside (see spans.py).
"""

from __future__ import annotations

import functools
import inspect
import os
import random
import shutil
import statistics
from collections import Counter

import pyarrow as pa
import pyarrow.compute as pc
import pyarrow.parquet as pq

from spans import Tracer, caller_in, unattributed_s

# Workload sizes, in turns, at scale 1.0. Each input keeps whole
# conversations, in conversation order, until it holds at least that
# many turns, so its size barely moves with the seed. A build of
# BUILD_TURNS takes ~4 s with Ray at NUM_CPUS=1, so a run times several
# and a stall of the shared host (seconds long) hits few of them.
BUILD_TURNS = 20_000
WARMUP_TURNS = 2_500  # the untimed first build of a run
TRAIN_TURNS = 1_000  # training corpus of the learned checkpoint
INGEST_TURNS = 2_000
INGEST_DELTA_SHARE = 0.2  # of INGEST_TURNS; the rest bootstraps the store
ANNOTATE_BATCH = 4096  # run_kg_pipeline's annotate batch size
LEARNED_CHECK_TURNS = 300

STAGES = ("turns_sorted", "annotations", "mentions", "nodes", "triples", "edges")
INGEST_STEPS = ("read_delta", "dedup", "registry_guard", "annotate_edges",
                "vectors", "index_append", "flip")
# Comment lines that open each step of pipelines/ingest.py's delta body,
# mapped to the step a Dataset consumption below them is charged to.
INGEST_MARKERS = (
    ("# ---- delta docs", "read_delta"),
    ("# ---- incremental dedup", "dedup"),
    ("# Re-ingest guard", "registry_guard"),
    ("# ---- turn registry", "registry_guard"),
    ("# ---- annotate -> edges delta", "annotate_edges"),
    ("# ---- vector-store upsert", "vectors"),
    ("# ---- LSH index append", "index_append"),
    ("# ---- atomic generation flip", "flip"),
)
# ray.data.Dataset methods that execute a plan; a span around each is
# where the calling process waits for Ray Data.
DATASET_CONSUMERS = ("materialize", "to_pandas", "count", "write_parquet",
                     "take", "take_all", "to_arrow_refs", "unique", "sum",
                     "aggregate")


class CheckFailed(Exception):
    """An operation's output differs from the reference."""


def expect(ok: bool, what: str) -> None:
    if not ok:
        raise CheckFailed(what)


def dir_bytes(path: str) -> int:
    total = 0
    for root, _dirs, files in os.walk(path):
        for f in files:
            total += os.path.getsize(os.path.join(root, f))
    return total


def transcripts_of(n_turns: int, seed: int) -> pa.Table:
    """Generated transcripts of the first conversations that together
    hold at least ``n_turns`` turns (rows stay in generated order)."""
    from biomedical_ner_ray import fixtures

    n_turns = max(n_turns, 200)
    # the generator averages ~13 turns per conversation
    table = fixtures.generate_transcripts(n_turns // 10 + 20, seed=seed)
    counts = Counter(table["conv_id"].to_pylist())
    keep, total = [], 0
    for conv in sorted(counts):
        if total >= n_turns:
            break
        keep.append(conv)
        total += counts[conv]
    if total < n_turns:
        raise ValueError(f"seed {seed} generated fewer than {n_turns} turns")
    return table.filter(pc.is_in(table["conv_id"], pa.array(keep)))


def write_transcripts(table: pa.Table, out_dir: str, n_files: int = 8) -> str:
    os.makedirs(out_dir, exist_ok=True)
    per = -(-table.num_rows // n_files)
    for i in range(n_files):
        chunk = table.slice(i * per, per)
        if chunk.num_rows:
            pq.write_table(chunk, os.path.join(out_dir, f"part-{i:05d}.parquet"))
    return out_dir


def read_dir(path: str) -> pa.Table:
    from biomedical_ner_ray.state.manifest import list_parquet_files

    return pa.concat_tables(pq.read_table(f) for f in list_parquet_files(path))


def wrap_dataset_consumers(tracer: Tracer, on_call=None) -> None:
    import ray.data

    for name in DATASET_CONSUMERS:
        tracer.wrap(ray.data.Dataset, name, f"dataset.{name}", on_call=on_call)


class BuildWorkload:
    """``run_kg_pipeline`` from scratch over BUILD_TURNS turns; one
    operation is one complete build into a fresh output directory."""

    min_ops = 1

    def __init__(self, run_dir: str, seed: int, scale: float, scorer: str):
        self.run_dir = run_dir
        self.seed = seed
        self.scale = scale
        self.scorer = scorer
        self.scorer_kwargs = None
        self.reference = None
        self.replay_table = self.replay_metrics = None
        self.outputs: dict[int, dict] = {}

    def setup(self) -> None:
        from biomedical_ner_ray import fixtures

        inp = os.path.join(self.run_dir, "inputs")
        self.table = transcripts_of(int(BUILD_TURNS * self.scale), self.seed)
        self.turns = self.table.num_rows
        self.transcripts = write_transcripts(
            self.table, os.path.join(inp, "transcripts"))
        self.alias_path = os.path.join(inp, "alias_dict.parquet")
        pq.write_table(fixtures.alias_table(), self.alias_path)
        if self.scorer == "learned":
            self.scorer_kwargs = {"checkpoint_path": self._train(inp)}
        # the checks' references are made here rather than after the first
        # timed build, so every timed build follows the same work
        self.reference = (self._oracle_graph() if self.scorer == "dict"
                          else self._sequential_decode())
        # the first build of a process pays for worker start-up, imports
        # and first executions; keep that out of the timing with a small
        # untimed build
        warmup = write_transcripts(
            self.table.slice(0, int(WARMUP_TURNS * self.scale)),
            os.path.join(inp, "warmup"), n_files=2)
        self._build(warmup, os.path.join(self.run_dir, "warmup"))
        shutil.rmtree(os.path.join(self.run_dir, "warmup"))

    def _train(self, inp: str) -> str:
        from biomedical_ner_ray.pipelines.train_tagger import train_tagger

        corpus = write_transcripts(
            transcripts_of(int(TRAIN_TURNS * self.scale), self.seed + 2),
            os.path.join(inp, "train"), n_files=1)
        ckpt = os.path.join(inp, "tagger.npz")
        train_tagger({"transcripts": corpus, "alias_dict": self.alias_path}, ckpt)
        return ckpt

    def _build(self, transcripts: str, out: str) -> dict:
        from biomedical_ner_ray.pipelines.kg import run_kg_pipeline

        return run_kg_pipeline(transcripts, self.alias_path, out,
                               scorer=self.scorer,
                               scorer_kwargs=self.scorer_kwargs)

    def prepare(self, i: int) -> None:
        pass

    def op(self, i: int) -> int:
        """One timed build; returns the number of turns it processed."""
        self.outputs[i] = self._build(
            self.transcripts, os.path.join(self.run_dir, f"out{i}"))
        return self.turns

    def check(self, i: int, plant_fault: bool) -> None:
        """Raise CheckFailed when build ``i``'s output is wrong."""
        paths = self.outputs[i]["paths"]
        if self.scorer == "dict":
            self._check_dict(paths, plant_fault)
        else:
            self._check_learned(paths, plant_fault)

    def _oracle_graph(self) -> tuple[list, list]:
        """Nodes and edges of the single-process oracle, sorted."""
        from biomedical_ner_ray.oracle import run_oracle

        gold = run_oracle(
            self.table.select(["conv_id", "turn_idx", "text"]).to_pylist(),
            pq.read_table(self.alias_path).to_pylist())
        return (
            sorted(tuple(x[k] for k in ("cui", "canonical_name", "type",
                                         "mention_count"))
                   for x in gold["nodes"]),
            sorted(tuple(x[k] for k in ("subj_cui", "pred", "obj_cui", "weight"))
                   for x in gold["edges"]),
        )

    def _check_dict(self, paths: dict, plant_fault: bool) -> None:
        """nodes and edges equal the single-process oracle's."""
        nodes = read_dir(paths["nodes"])
        edges = read_dir(paths["edges"])
        got_nodes = sorted(zip(*(nodes[k].to_pylist() for k in (
            "cui", "canonical_name", "type", "mention_count"))))
        got_edges = sorted(zip(*(edges[k].to_pylist() for k in (
            "subj_cui", "pred", "obj_cui", "weight"))))
        if plant_fault:
            got_edges = got_edges[1:]
        expect(got_nodes == self.reference[0], "nodes differ from the oracle")
        expect(got_edges == self.reference[1], "edges differ from the oracle")

    def _check_learned(self, paths: dict, plant_fault: bool) -> None:
        """Mentions of a seeded sample of turns equal a sequential
        decode with ``LearnedScorer.decode_tokens``."""
        keys, want = self.reference
        m = read_dir(paths["mentions"])
        got = {
            row for row in zip(*(m[k].to_pylist() for k in (
                "conv_id", "turn_idx", "text", "type", "start_tok", "end_tok",
                "cui")))
            if row[:2] in keys
        }
        if plant_fault:
            got = set(sorted(got)[1:])
        expect(bool(want), "the sampled turns decode to no mentions")
        expect(got == want, "mentions differ from the sequential decode")
        expect(read_dir(paths["edges"]).num_rows > 0, "empty edge table")

    def _sequential_decode(self) -> tuple[set, set]:
        """Keys of a seeded sample of turns and their mentions, decoded
        one turn at a time."""
        from biomedical_ner_ray.kernels.bio import extract_entities
        from biomedical_ner_ray.kernels.learned import LearnedScorer
        from biomedical_ner_ray.kernels.tagger import AliasDict
        from biomedical_ner_ray.kernels.tokenize import TOKEN_RE

        rows = self.table.select(["conv_id", "turn_idx", "text"]).to_pylist()
        sample = random.Random(self.seed).sample(
            rows, min(LEARNED_CHECK_TURNS, len(rows)))
        alias = AliasDict(pq.read_table(self.alias_path).to_pylist())
        types = sorted({e.type for e in alias.by_key.values()})
        scorer = LearnedScorer(types, **self.scorer_kwargs)
        want = set()
        for r in sample:
            tokens = TOKEN_RE.findall(r["text"]) if r["text"] else []
            if not tokens:
                continue
            tags = scorer.decode_tokens(tokens)
            for e in extract_entities(list(zip(tokens, tags))):
                entry = alias.lookup(" ".join(t.lower() for t in e["tokens"]))
                want.add((r["conv_id"], r["turn_idx"], e["text"], e["type"],
                          e["start_position"], e["end_position"],
                          entry.cui if entry is not None else None))
        return {(r["conv_id"], r["turn_idx"]) for r in sample}, want

    def discard(self, i: int) -> None:
        self.outputs.pop(i, None)
        shutil.rmtree(os.path.join(self.run_dir, f"out{i}"), ignore_errors=True)

    # -- traced run --------------------------------------------------------

    def install_tracing(self, tracer: Tracer) -> None:
        from biomedical_ner_ray.state import manifest

        def record_stage(rec, args, kwargs, result):
            stage = args[0].split("/")[0]  # annotate buckets: "annotations/<b>"
            rec["name"] = f"stage.{stage}"
            rec["attrs"].update(stage=stage, rows=result.get("rows", 0),
                                bytes=dir_bytes(args[1]))

        tracer.wrap(manifest, "run_stage", "stage", on_call=record_stage)
        wrap_dataset_consumers(tracer)

    def layer_metrics(self, tracer: Tracer, op_spans: list[dict]) -> dict:
        """Stage walls, rows and bytes (means over the traced builds),
        the part of each build no stage covers, and the in-process
        annotate replay."""
        kids = tracer.children()
        out: dict[str, float] = {}
        n = len(op_spans)
        for op in op_spans:
            stages = [s for s in kids.get(op["id"], ()) if "stage" in s["attrs"]]
            for name in STAGES:
                mine = [s for s in stages if s["attrs"]["stage"] == name]
                if not mine:
                    continue
                wall = max(s["end"] for s in mine) - min(s["start"] for s in mine)
                out[f"stage.{name}.wall_s"] = out.get(f"stage.{name}.wall_s", 0) + wall / n
                out[f"stage.{name}.rows_out"] = sum(s["attrs"]["rows"] for s in mine)
                out[f"stage.{name}.bytes_written"] = sum(s["attrs"]["bytes"] for s in mine)
        out["op.unattributed_s"] = statistics.fmean(
            unattributed_s(tracer, op) for op in op_spans)
        out.update(self.replay_metrics)
        return out

    def after_traced_op(self, i: int) -> None:
        """Replay annotate over the first traced build's sorted turns."""
        if self.replay_metrics is None:
            self.replay_table, self.replay_metrics = replay_annotate(
                _sorted_turn_files(self.outputs[i]), self.alias_path,
                self.scorer, self.scorer_kwargs, ANNOTATE_BATCH)


def _sorted_turn_files(result: dict) -> list[list[str]]:
    """The annotate stage's input files grouped into its buckets, the
    way run_kg_pipeline assigns them."""
    from biomedical_ner_ray.state.manifest import list_parquet_files

    files = list_parquet_files(result["paths"]["turns_sorted"])
    buckets = [[] for _ in range(min(8, max(1, len(files))))]
    for i, f in enumerate(files):
        buckets[i % len(buckets)].append(f)
    return buckets


def replay_annotate(buckets: list[list[str]], alias_path: str, scorer: str,
                    scorer_kwargs: dict | None, batch_size: int):
    """Run ``TurnAnnotator.__call__`` in this process over the batches
    the annotate stage sees, with its kernels wrapped; return the span
    table and the annotate layer metrics."""
    from biomedical_ner_ray.kernels import crf, learned
    from biomedical_ner_ray.kernels.tagger import AliasDict
    from biomedical_ner_ray.stages import annotate

    alias = AliasDict(pq.read_table(alias_path).to_pylist())
    annotator = annotate.TurnAnnotator(alias, scorer=scorer,
                                       scorer_kwargs=scorer_kwargs)
    batches = []
    for files in buckets:
        if not files:
            continue
        t = pa.concat_tables(
            pq.read_table(f, columns=["conv_id", "turn_idx", "text"]) for f in files)
        batches.extend(t.slice(s, batch_size)
                       for s in range(0, t.num_rows, batch_size))
    tracer = Tracer()
    cls = annotate.TurnAnnotator
    tracer.wrap(cls, "__call__", "annotate.call")
    tracer.wrap(cls, "_decode_batched", "annotate.decode_batched")
    tracer.wrap(cls, "_finish_text", "annotate.finish_text")
    tracer.wrap(annotate, "tag_tokens", "annotate.dict_tag", leaf=True)
    tracer.wrap(annotate, "extract_entities", "annotate.bio_spans", leaf=True)
    tracer.wrap_object_method(annotate, "TOKEN_RE", "findall", "annotate.tokenize")
    tracer.wrap(learned, "features", "annotate.scorer_features", leaf=True)
    tracer.wrap(crf, "viterbi_decode_batch", "annotate.viterbi", leaf=True)
    mentions = unlinked = turns = distinct = 0
    try:
        for b in batches:
            res = annotator(b)
            turns += b.num_rows
            distinct += len(set(b["text"].to_pylist()))
            flat = res["mentions"].combine_chunks().flatten()
            mentions += len(flat)
            unlinked += flat.field("cui").null_count
    finally:
        tracer.restore()
    tot = tracer.table()

    def total(name):
        return tot.get(name, {}).get("total_s", 0.0)

    def self_s(name):
        return tot.get(name, {}).get("self_s", 0.0)

    return tot, {
        "annotate.call_s": total("annotate.call"),
        "annotate.tokenize_s": total("annotate.tokenize"),
        "annotate.arrow_build_s": self_s("annotate.call"),
        "annotate.distinct_text_ratio": distinct / max(1, turns),
        "annotate.dict_tag_s": total("annotate.dict_tag"),
        "annotate.scorer_features_s": total("annotate.scorer_features"),
        "annotate.viterbi_s": total("annotate.viterbi"),
        "annotate.decode_other_s": self_s("annotate.decode_batched"),
        "annotate.bio_spans_s": total("annotate.bio_spans"),
        "annotate.assembly_s": self_s("annotate.finish_text"),
        "annotate.mentions": mentions,
        "annotate.unlinked_mentions": unlinked,
        "annotate.turns": turns,
    }


class IngestWorkload:
    """Streaming ingest: INGEST_TURNS turns are cut by conversation hash
    into a bootstrap part and a delta of INGEST_DELTA_SHARE of the turns.
    The bootstrap part builds the store during set-up; one operation is
    one ``ingest_delta`` of the delta onto the bootstrapped store,
    restored before each operation, so every operation does the same
    work."""

    min_ops = 1

    def __init__(self, run_dir: str, seed: int, scale: float):
        self.run_dir = run_dir
        self.seed = seed
        self.scale = scale
        self.reports: dict[int, dict] = {}
        self.new_bytes: list[int] = []
        self.band_rows: list[int] = []
        # surviving doc ids, edges and vector summary of a from-scratch
        # recompute, kept while the survivors stay the same
        self.reference = None

    def setup(self) -> None:
        from biomedical_ner_ray import fixtures
        from biomedical_ner_ray.kernels.hashing import stable_u64_md5
        from biomedical_ner_ray.pipelines.ingest import ingest_delta

        inp = os.path.join(self.run_dir, "inputs")
        table = transcripts_of(int(INGEST_TURNS * self.scale), self.seed)
        counts = Counter(table["conv_id"].to_pylist())
        order = sorted(counts, key=lambda c: stable_u64_md5(f"slice:{c}".encode()))
        # the delta takes, in hash order, every conversation that still fits
        # in its share, so a long conversation cannot swing its size
        room = int(INGEST_TURNS * self.scale * INGEST_DELTA_SHARE)
        delta = set()
        for conv in order:
            if counts[conv] <= room:
                delta.add(conv)
                room -= counts[conv]
        in_delta = pa.array([c in delta for c in table["conv_id"].to_pylist()])
        self.bootstrap, self.delta = (os.path.join(inp, n) for n in ("bootstrap", "delta"))
        for d, rows in ((self.bootstrap, table.filter(pc.invert(in_delta))),
                        (self.delta, table.filter(in_delta))):
            os.makedirs(d)
            pq.write_table(rows, os.path.join(d, "part-00000.parquet"))
        self.alias_path = os.path.join(inp, "alias_dict.parquet")
        pq.write_table(fixtures.alias_table(), self.alias_path)
        self.store = os.path.join(self.run_dir, "store")
        self.snapshot = self.store + ".bootstrapped"
        ingest_delta(self.store, self.bootstrap, self.alias_path)
        shutil.copytree(self.store, self.snapshot, copy_function=os.link)

    def prepare(self, i: int) -> None:
        """Put the bootstrapped store back. Hardlinks make the copy cheap
        and safe: the store never rewrites a file in place."""
        shutil.rmtree(self.store)
        shutil.copytree(self.snapshot, self.store, copy_function=os.link)

    def op(self, i: int) -> int:
        from biomedical_ner_ray.pipelines.ingest import ingest_delta

        report = ingest_delta(self.store, self.delta, self.alias_path)
        expect(not report.get("skipped"), "a fresh delta was skipped")
        self.reports[i] = report
        return report["n_delta_turns"]

    def check(self, i: int, plant_fault: bool) -> None:
        """The store's edges and vector summary equal a from-scratch
        recompute over the surviving turns."""
        from biomedical_ner_ray.pipelines.ingest import (
            store_edges, store_turns, store_vector_summary)

        surv = store_turns(self.store).materialize()
        sdf = surv.to_pandas()
        doc_ids = sorted(sdf["doc_id"])
        if self.reference is None or self.reference[0] != doc_ids:
            self.reference = (doc_ids, *self._recompute(surv, sdf))
        _, want_edges, want_v = self.reference
        got = store_edges(self.store).to_pandas()
        if plant_fault:
            got = got.iloc[1:]
        expect(len(got) > 0, "empty store edge table")
        _assert_frames_equal(got, want_edges, ["subj_cui", "pred", "obj_cui"])
        ids = {"vpart": "int64", "n_vecs": "int64",
               "min_vec_id": "int64", "max_vec_id": "int64"}
        _assert_frames_equal(store_vector_summary(self.store).astype(ids),
                             want_v.astype(ids), ["vpart"])

    def _recompute(self, surv, sdf):
        """Edges and vector summary of the surviving turns, computed from
        scratch the way tests/test_ingest.py does."""
        import ray

        from biomedical_ner_ray.kernels.tagger import AliasDict
        from biomedical_ner_ray.oracle import canonical_components
        from biomedical_ner_ray.pipelines.ingest import _turn_vector, _vpart
        from biomedical_ner_ray.stages.annotate import annotate_stage
        from biomedical_ner_ray.stages.explode import triples_stage
        from biomedical_ner_ray.stages.graph import edges_stage

        alias_rows = pq.read_table(self.alias_path).to_pylist()
        alias_ref = ray.put(AliasDict(alias_rows))
        comp_ref = ray.put(canonical_components(alias_rows))
        ann = annotate_stage(
            surv.select_columns(["conv_id", "turn_idx", "text"]), alias_ref)
        edges = edges_stage(lambda: triples_stage(ann), comp_ref).to_pandas()
        sdf = sdf.assign(vpart=[_vpart(_turn_vector(t)) for t in sdf["text"]])
        vectors = (sdf.groupby("vpart")["doc_id"]
                   .agg(n_vecs="size", min_vec_id="min", max_vec_id="max")
                   .reset_index())
        return edges, vectors

    def discard(self, i: int) -> None:
        pass

    # -- traced run --------------------------------------------------------

    def install_tracing(self, tracer: Tracer) -> None:
        """Spans carry the ingest step they belong to in ``attrs["step"]``:
        fixed for the wrapped helpers, and for a Dataset consumption or
        read the step of the ``pipelines/ingest.py`` line that called it."""
        import ray.data

        from biomedical_ner_ray.pipelines import ingest
        from biomedical_ner_ray.stages import dedup

        def fixed_step(step):
            def on_call(rec, args, kwargs, result):
                rec["attrs"]["step"] = step
            return on_call

        tracer.wrap(ingest, "_hardlink_tree", "ingest._hardlink_tree",
                    on_call=fixed_step("flip"))
        tracer.wrap(ingest, "_flip_state", "ingest._flip_state",
                    on_call=fixed_step("flip"))
        tracer.wrap(dedup, "incremental_minhash_pairs",
                    "dedup.incremental_minhash_pairs", on_call=fixed_step("dedup"))

        with open(ingest.__file__) as f:
            markers = sorted(
                (n + 1, step) for n, line in enumerate(f)
                for marker, step in INGEST_MARKERS if line.strip().startswith(marker))

        def caller_step(rec, args, kwargs, result):
            line = caller_in(os.sep + os.path.join("pipelines", "ingest.py"))
            step = None
            for at, s in markers:
                if line is not None and at <= line:
                    step = s
            rec["attrs"]["step"] = step
            rec["name"] += f"@{step}"

        gen_prefix = os.path.join(self.store, "gen")

        def on_read(rec, args, kwargs, result):
            caller_step(rec, args, kwargs, result)
            paths = args[0] if args else kwargs.get("paths")
            if isinstance(paths, list) and paths and all(
                    p.startswith(gen_prefix) and "/bands/" in p for p in paths):
                self.band_rows.append(sum(pq.ParquetFile(p).metadata.num_rows
                                          for p in paths))

        tracer.wrap(ray.data, "read_parquet", "ray.data.read_parquet",
                    on_call=on_read)
        wrap_dataset_consumers(tracer, on_call=caller_step)
        self._inodes_before = self._live_inodes()

    def _live_inodes(self) -> set[int]:
        out = set()
        for root, _dirs, files in os.walk(self.store):
            for f in files:
                out.add(os.stat(os.path.join(root, f)).st_ino)
        return out

    def after_traced_op(self, i: int) -> None:
        """Bytes the delta wrote: files of the live store whose inode was
        not there before it (hardlinked carry-overs keep theirs)."""
        new = 0
        for root, _dirs, files in os.walk(self.store):
            for f in files:
                st = os.stat(os.path.join(root, f))
                if st.st_ino not in self._inodes_before:
                    new += st.st_size
        self.new_bytes.append(new)

    def layer_metrics(self, tracer: Tracer, op_spans: list[dict]) -> dict:
        from biomedical_ner_ray.stages.annotate import annotate_stage

        kids = tracer.children()
        n = len(op_spans)
        out = {f"ingest.{s}_s": 0.0 for s in INGEST_STEPS}
        unattributed = 0.0
        for op in op_spans:
            unattributed += unattributed_s(tracer, op) / n
            for s in kids.get(op["id"], ()):
                step = s["attrs"].get("step")
                if step is None:  # called before the first step marker
                    unattributed += (s["end"] - s["start"]) / n
                else:
                    out[f"ingest.{step}_s"] += (s["end"] - s["start"]) / n
        out["ingest.unattributed_s"] = unattributed
        out["op.unattributed_s"] = out["ingest.unattributed_s"]
        reports = [self.reports[op["attrs"]["op"]] for op in op_spans]
        delta_turns = sum(r["n_delta_turns"] for r in reports)
        out["ingest.kept_ratio"] = sum(r["n_kept"] for r in reports) / delta_turns
        out["ingest.index_band_rows_read_per_delta_turn"] = (
            sum(self.band_rows) / delta_turns)
        out["ingest.touched_edge_buckets"] = statistics.fmean(
            len(r["touched_edge_buckets"]) for r in reports)
        out["ingest.touched_vparts"] = statistics.fmean(
            len(r["touched_vparts"]) for r in reports)
        out["ingest.store_bytes_per_input_byte"] = dir_bytes(self.store) / (
            dir_bytes(self.bootstrap) + dir_bytes(self.delta))
        out["ingest.bytes_written_per_delta_byte"] = sum(self.new_bytes) / (
            dir_bytes(self.delta) * n)
        # annotate layers over the turns that survived the traced deltas
        gens = [r["delta"] for r in reports]
        files = [os.path.join(root, f)
                 for root, _dirs, fs in os.walk(self.store)
                 for f in fs if f.endswith(".parquet")
                 and any(f"delta_{g:05d}" in root for g in gens)
                 and os.sep + "turns" + os.sep in root + os.sep]
        # ingest annotates through annotate_stage's default batch size
        batch = inspect.signature(annotate_stage).parameters["batch_size"].default
        self.replay_table, replay_metrics = replay_annotate(
            [sorted(files)], self.alias_path, "dict", None, batch)
        out.update(replay_metrics)
        return out


def _assert_frames_equal(a, b, keys) -> None:
    import pandas as pd

    a = a.sort_values(keys, ignore_index=True)
    b = b.sort_values(keys, ignore_index=True)
    try:
        pd.testing.assert_frame_equal(a, b[a.columns])
    except (AssertionError, KeyError) as e:
        raise CheckFailed(f"store differs from the recompute: {e}") from None


WORKLOADS = {
    "kg_build_dict": functools.partial(BuildWorkload, scorer="dict"),
    "kg_build_learned": functools.partial(BuildWorkload, scorer="learned"),
    "ingest_stream": IngestWorkload,
}
