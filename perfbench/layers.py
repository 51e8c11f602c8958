"""Per-layer probes for the traced run.

Every span here is opened by the benchmark around a call into one of
the engine's public functions; the engine itself carries no timing
code.  Ray Data stages are lazy, so timing the stage functions inside
``build_index`` would time plan construction only: the build probe
instead calls the same stage functions in ``build_index``'s order, one
at a time, each up to its written output.
"""

from __future__ import annotations

import math
import os

import numpy as np
import pyarrow.dataset as pads
import ray.data as rd

from measure import median

# name -> unit of every per-layer metric; a workload that does not run a
# layer reports 0 for it
PER_LAYER = {
    "stages.tokenize.s": "s",
    "stages.tokenize.tokens": "count",
    "stages.tokenize.doclen_s": "s",
    "stages.dictionary.vocab_s": "s",
    "stages.postings.s": "s",
    "stages.postings.rows": "count",
    "stages.postings.bytes": "bytes",
    "stages.dictionary.s": "s",
    "build_index.wall_s": "s",
    "build_index.overlap_s": "s",
    "build_index.cpu_util": "frac",
    "host.steal_frac": "frac",
    "query.reader_init_ms": "ms",
    "pool.init_s": "s",
    "query.lookup_us": "us",
    "query.posting_rows_cold_ms": "ms",
    "query.part_loads": "count",
    "query.decode_cold_ms": "ms",
    "query.postings_decoded": "count",
    "query.score_after_warm_ms": "ms",
    "query.score_query_warm_ms": "ms",
    "query.score_lm_warm_ms": "ms",
    "positional.phrase_counts_ms": "ms",
    "pool.rpc_ms": "ms",
    "serve.dispatch_ms": "ms",
    "pool.actor_rss_mb": "MB",
    "delta.add_documents_s": "s",
    "serve.refresh_s": "s",
    "delta.delete_documents_ms": "ms",
    "delta.nrt_serving_stats_ms": "ms",
    "delta.merged_score_ms": "ms",
    "ray.init_s": "s",
    "host.cpus": "count",
}


def _dir_stats(path: str) -> tuple[int, int]:
    """(rows, bytes) of the Parquet files under ``path``."""
    ds = pads.dataset(path)
    return ds.count_rows(), sum(os.path.getsize(f) for f in ds.files)


def build_stages(tracer, corpus_path: str, out_dir: str, num_docs: int,
                 layer: dict, text_col: str | None = None) -> None:
    """Run the build's stage functions one by one into ``out_dir``,
    with the arguments ``build_index`` passes (sha256 side job left
    out), and record one span per stage.  ``text_col`` set means a
    column-mode corpus (explicit ``doc_id`` beside that text column);
    unset, rows get dense ids from their sort keys."""
    from hadoopsearchengine_ray._block import blocks_for_bytes, dir_bytes
    from hadoopsearchengine_ray.stages.dictionary import (
        dictionary_from_postings,
        hot_terms_from_vocab,
        vocab_table,
    )
    from hadoopsearchengine_ray.stages.ingest import (
        load_corpus,
        zip_with_index,
    )
    from hadoopsearchengine_ray.stages.postings import build_postings
    from hadoopsearchengine_ray.stages.tokenize import (
        doc_lengths,
        tokenize_stage,
    )

    tokens_dir = os.path.join(out_dir, "tokens")
    vocab_dir = os.path.join(out_dir, "vocab")
    doclen_dir = os.path.join(out_dir, "doclen")
    post_dir = os.path.join(out_dir, "postings")
    dict_dir = os.path.join(out_dir, "dictionary")

    with tracer.span("stages.tokenize"):
        if text_col is None:
            text_col = "content"
            corpus = zip_with_index(load_corpus(corpus_path),
                                    sort_keys=["repo", "path", "commit"],
                                    id_column="doc_id")
        else:
            corpus = rd.read_parquet(corpus_path,
                                     columns=["doc_id", text_col])
        tokenize_stage(corpus, text_col=text_col, id_col="doc_id",
                       batch_size=512,
                       with_positions=True).write_parquet(tokens_dir)
    layer["stages.tokenize.tokens"] = _dir_stats(tokens_dir)[0]
    nblk = blocks_for_bytes(dir_bytes(tokens_dir))

    def tokens(columns):
        return rd.read_parquet(tokens_dir, columns=columns,
                               override_num_blocks=nblk)

    with tracer.span("stages.dictionary.vocab"):
        vocab_table(tokens(["doc_id", "term"]),
                    combine_blocks=8).write_parquet(vocab_dir)
        hot = hot_terms_from_vocab(rd.read_parquet(vocab_dir), num_docs,
                                   0.25)
    with tracer.span("stages.tokenize.doclen"):
        doc_lengths(tokens(["doc_id", "tf"]),
                    combine_blocks=0).write_parquet(doclen_dir)
    with tracer.span("stages.postings"):
        build_postings(tokens(["doc_id", "term", "tf", "pos"]),
                       hot_term_ids=hot, num_docs=num_docs,
                       coalesce_blocks=0).sort("term_id").write_parquet(
            post_dir, partition_cols=["part"], row_group_size=2048)
    rows, nbytes = _dir_stats(post_dir)
    layer["stages.postings.rows"] = rows
    layer["stages.postings.bytes"] = nbytes
    with tracer.span("stages.dictionary"):
        dictionary_from_postings(
            rd.read_parquet(post_dir, columns=["term_id", "df", "cf"]),
            rd.read_parquet(vocab_dir)).write_parquet(dict_dir)

    def secs(name):
        return median(tracer.durations(name))

    layer["stages.tokenize.s"] = secs("stages.tokenize")
    layer["stages.dictionary.vocab_s"] = secs("stages.dictionary.vocab")
    layer["stages.tokenize.doclen_s"] = secs("stages.tokenize.doclen")
    layer["stages.postings.s"] = secs("stages.postings")
    layer["stages.dictionary.s"] = secs("stages.dictionary")


def query_layers(tracer, make_scorer, sample, layer: dict,
                 lm_scorer=None) -> None:
    """Time the query layers on a fresh in-process scorer: reader start,
    then per distinct sample term a dictionary lookup, a cold posting
    row fetch and a decode of the fetched rows, then warm scoring of
    the whole sample.  ``make_scorer`` returns a new ``BM25Scorer``;
    ``lm_scorer``, when given, scores the LM-Dirichlet pass instead of
    it."""
    from hadoopsearchengine_ray.pipelines.positional import phrase_counts

    with tracer.span("query.reader_init"):
        sc = make_scorer()
    rd_ = sc.rd
    terms = sorted({t for q in sample.queries for t in q["terms"]}
                   | {t for p in sample.phrases for t in p})
    decoded, parts = 0, set()
    for t in terms:
        with tracer.span("query.lookup"):
            ent = rd_.lookup(t)
        if ent is None:
            continue
        if t in sample.term_part:
            parts.add(sample.term_part[t])
        with tracer.span("query.posting_rows"):
            rd_.posting_rows(t)
        with tracer.span("query.decode"):
            docs, _ = rd_.decoded_postings(t)
        decoded += len(docs)
    layer["query.reader_init_ms"] = median(
        tracer.durations("query.reader_init")) * 1e3
    layer["query.lookup_us"] = median(tracer.durations("query.lookup")) * 1e6
    layer["query.posting_rows_cold_ms"] = float(np.mean(
        tracer.durations("query.posting_rows") or [0.0])) * 1e3
    layer["query.decode_cold_ms"] = float(np.mean(
        tracer.durations("query.decode") or [0.0])) * 1e3
    layer["query.part_loads"] = len(parts)
    layer["query.postings_decoded"] = decoded

    calls = [("query.score_after",
              [(sc.score_after, (q["terms"], q["k"], math.inf, -1))
               for q in sample.queries]),
             ("query.score_query",
              [(sc.score_query, (s, 10)) for s in sample.qstrs]),
             ("positional.phrase_counts",
              [(phrase_counts, (rd_, p)) for p in sample.phrases])]
    lm = lm_scorer or sc
    calls.append(("query.score_lm", [(lm.score_lm, (q["terms"], q["k"]))
                                     for q in sample.queries]))
    for name, batch in calls:
        for fn, args in batch:          # warm-up pass, not recorded
            fn(*args)
        for fn, args in batch:
            with tracer.span(name):
                fn(*args)
    layer["query.score_after_warm_ms"] = median(
        tracer.durations("query.score_after")) * 1e3
    layer["query.score_query_warm_ms"] = median(
        tracer.durations("query.score_query")) * 1e3
    layer["positional.phrase_counts_ms"] = median(
        tracer.durations("positional.phrase_counts")) * 1e3
    layer["query.score_lm_warm_ms"] = median(
        tracer.durations("query.score_lm")) * 1e3


def pool_rpc(tracer, pool, index_dir: str, sample, layer: dict,
             local=None) -> None:
    """``RangePartitionedPool.score_after`` minus the slowest
    in-process scorer of ``local``: what the actor fan-out and the
    driver merge add on top of scoring.  ``local`` defaults to one
    ``IndexReader(doc_lo, doc_hi)`` scorer per range of ``pool.bounds``."""
    import time

    from hadoopsearchengine_ray.pipelines.query import (
        BM25Scorer,
        IndexReader,
    )

    if local is None:
        local = [BM25Scorer(index_dir, reader=IndexReader(index_dir,
                                                          doc_lo=lo,
                                                          doc_hi=hi))
                 for lo, hi in pool.bounds]
    for q in sample.queries:            # warm both sides
        pool.score_after(q["terms"], q["k"])
        for sc in local:
            sc.score_exact(q["terms"], q["k"])
    gaps = []
    for q in sample.queries:
        slowest = 0.0
        for sc in local:
            t0 = time.perf_counter()
            sc.score_exact(q["terms"], q["k"])
            slowest = max(slowest, time.perf_counter() - t0)
        with tracer.span("pool.rpc_probe") as s:
            pool.score_after(q["terms"], q["k"])
        gaps.append(s["end"] - s["start"] - slowest)
    layer["pool.rpc_ms"] = median(gaps) * 1e3
