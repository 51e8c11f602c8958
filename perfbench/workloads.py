"""The workloads.  Each drives the engine's public API from one client
thread with one request in flight, checks its own answers, and fills a
``Run`` with raw samples; ``run.py`` turns samples into metrics.

Why each exists:

- ``serve_read``: the operator's path, then the serving fleet.  Set-up
  times ``build_index`` over a seeded generated corpus (the Ray Data
  stage shuffles and the codec encode path).  A ``SearchServer`` on
  fresh range actors then answers closed-loop search/query/lm/phrase
  reads for the run's seconds, which loads the query, pool and serve
  layers.
- ``nrt_mixed``: writes beside reads.  Each cycle ingests a small delta
  batch, deletes a few ids, then sends a closed-loop burst of reads.
  Loads the build stages at small scale (where per-stage overhead
  dominates), pool refresh, and the merged and tombstone readers.
"""

from __future__ import annotations

import gc
import json
import os
import time
from dataclasses import dataclass, field

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads
import pyarrow.parquet as pq
import ray

from hadoopsearchengine_ray import corpus, oracle
from hadoopsearchengine_ray.pipelines import delta
from hadoopsearchengine_ray.pipelines.build_index import build_index
from hadoopsearchengine_ray.pipelines.positional import phrase_counts
from hadoopsearchengine_ray.pipelines.query import BM25Scorer
from hadoopsearchengine_ray.pipelines.serve import SearchServer
from hadoopsearchengine_ray.tokenizer import tokenize_py

import layers
from measure import (
    actor_pids,
    host_cpus,
    median,
    rss_mb,
    tree_cpu_seconds,
)

K = 10
NUM_RANGES = 2
SERVE_MIX = {"search": 0.8, "query": 0.0667, "lm": 0.0667, "phrase": 0.0666}
# no lm: LM-Dirichlet raises NotImplementedError on delta/tombstone pools
NRT_MIX = {"search": 0.8, "query": 0.1, "phrase": 0.1}

SIZES = {
    "full": {"serve_docs": 2000, "nrt_docs": 1000, "nrt_batch": 50,
             "nrt_deletes": 3, "nrt_burst": 800, "nrt_cycles": 2,
             "queries": 200, "query_draws": 5, "phrases": 40,
             "setup_reps": 4},
    "smoke": {"serve_docs": 200, "nrt_docs": 200, "nrt_batch": 10,
              "nrt_deletes": 2, "nrt_burst": 40, "nrt_cycles": 1,
              "queries": 30, "query_draws": 1, "phrases": 5,
              "setup_reps": 2},
}


@dataclass
class Run:
    """Raw samples of one workload run.  ``samples`` keys name what was
    timed (``search_ms``, ``build_s`` ...); ``layer`` holds per-layer
    values of the traced run."""
    samples: dict[str, list[float]] = field(default_factory=dict)
    attempted: int = 0
    failed: int = 0
    layer: dict[str, float] = field(default_factory=dict)

    def add(self, key: str, value: float) -> None:
        self.samples.setdefault(key, []).append(value)

    def check(self, ok: bool) -> bool:
        """Count one attempted operation; a failed or wrong one counts
        as failed."""
        self.attempted += 1
        self.failed += not ok
        return ok


@dataclass
class Sample:
    """Seeded read requests drawn from an index's dictionary."""
    queries: list[dict]
    qstrs: list[str]
    phrases: list[list[str]]
    # one term per posting part directory: searching them all loads
    # every part on every range actor
    part_terms: list[str]
    # posting part directory of every dictionary term
    term_part: dict[str, int]


def make_sample(index_dir: str, texts: list[str], size: dict,
                seed: int) -> Sample:
    """Term queries (``oracle.queries_from_dictionary``, several draws),
    query strings built from them, and two-term phrases taken from
    ``texts`` whose terms both have a middle document frequency."""
    d = pads.dataset(os.path.join(index_dir, "dictionary")).to_table(
        columns=["term", "term_id", "df"])
    terms = d.column("term").to_pylist()
    dfs = np.asarray(d.column("df").to_pylist())
    order = sorted(range(len(terms)), key=terms.__getitem__)
    terms = [terms[i] for i in order]
    dfs = dfs[order]
    # many distinct queries, so that the tail percentiles rest on many
    # queries rather than on the few heaviest of one draw
    queries = [q for j in range(size["query_draws"])
               for q in oracle.queries_from_dictionary(
                   terms, dfs, size["queries"], seed=seed * 1000 + j, k=K)]
    # a weighted term, a required term and a prefix wildcard.  No
    # ``-excluded`` term: a range owner raises IndexError when the
    # excluded term has no posting in its range (see README.md)
    first = [q["terms"][0] for q in queries]
    qstrs = [f"{a}^2 +{b} {a[:5]}*"
             for a, b in zip(first, first[1:] + first[:1])]
    df_of = dict(zip(terms, dfs.tolist()))
    lo = float(np.percentile(dfs, 50))
    hi = 0.25 * max(int(dfs.max()), 1)
    pairs = []
    for text in texts:
        toks = tokenize_py(text)
        pairs += [[a, b] for a, b in zip(toks, toks[1:])
                  if lo <= df_of.get(a, 0) <= hi
                  and lo <= df_of.get(b, 0) <= hi]
    rng = np.random.default_rng(seed)
    pick = rng.permutation(len(pairs))[:size["phrases"]]
    phrases = [pairs[i] for i in sorted(pick)]
    if not phrases:
        raise RuntimeError("no mid-df phrase in the sampled documents")
    with open(os.path.join(index_dir, "meta.json")) as f:
        nparts = int(json.load(f)["num_index_parts"])
    term_part = {t: tid % nparts for t, tid in zip(
        d.column("term").to_pylist(), d.column("term_id").to_pylist())}
    part_of = {}
    for t, part in term_part.items():
        part_of.setdefault(part, t)
    return Sample(queries, qstrs, phrases, sorted(part_of.values()),
                  term_part)


def _first_draw(sample: Sample, size: dict) -> Sample:
    """The sample cut to one query draw: enough for the per-layer
    probes, which take medians."""
    n = size["queries"]
    return Sample(sample.queries[:n], sample.qstrs[:n], sample.phrases,
                  sample.part_terms, sample.term_part)


def _items(sample: Sample, op: str) -> list:
    if op == "query":
        return sample.qstrs
    if op == "phrase":
        return sample.phrases
    return [q["terms"] for q in sample.queries]


def _request(op: str, item) -> tuple[tuple, dict]:
    """(answer key, request dict) of one op on one sample item."""
    if op == "query":
        return ("query", item), {"op": "query", "q": item, "k": K}
    if op == "phrase":
        return ("phrase", tuple(item)), {"op": "phrase",
                                         "terms": list(item),
                                         "limit": None}
    return (op, tuple(item)), {"op": op, "terms": list(item), "k": K}


def _draw(op: str, sample: Sample, rng) -> tuple[tuple, dict]:
    items = _items(sample, op)
    return _request(op, items[rng.integers(len(items))])


def _hits(docs, scores) -> list:
    return [(int(d), float(s)) for d, s in zip(docs, scores)]


def _answer(resp: dict):
    """Comparable payload of a response: ranked hits or phrase rows."""
    if "hits" in resp:
        return [(h["doc_id"], h["score"]) for h in resp["hits"]]
    return [(r["doc_id"], r["count"]) for r in resp["rows"]]


def _reference(scorer: BM25Scorer, key: tuple):
    """The in-process answer the server must reproduce exactly."""
    op, arg = key
    if op == "search":     # the daemon's page 1 runs the dense pass
        return _hits(*scorer.score_exact(list(arg), K))
    if op == "query":
        return _hits(*scorer.score_query(arg, K))
    if op == "lm":
        return _hits(*scorer.score_lm(list(arg), K))
    d, c = phrase_counts(scorer.rd, list(arg))
    return [(int(a), int(b)) for a, b in zip(d, c)]


def _verify(run: Run, answers: dict, scorer: BM25Scorer) -> None:
    """Every answer equals the in-process reference for its request; a
    wrong answer counts its request as failed."""
    for key, got in answers.items():
        ref = _reference(scorer, key)
        run.failed += sum(g != ref for g in got)


def _settle() -> None:
    """Collect, then exempt everything set-up allocated from later
    collections, so that the timed window's collector pauses scale with
    what the window allocates, not with the benchmark's own set-up."""
    gc.collect()
    gc.freeze()


def _serve_rss(run: Run) -> None:
    """RSS of the driver plus every range actor process."""
    actors = sum(rss_mb(p) for p in actor_pids("_RangeScorer"))
    run.add("actor_rss_mb", actors)
    run.add("serve_rss_mb", rss_mb(os.getpid()) + actors)


def _timed_build(run: Run, tracer, corpus_path: str, index_dir: str,
                 **kw) -> dict:
    c0, t0 = tree_cpu_seconds(), time.perf_counter()
    with tracer.span("build_index"):
        meta = build_index(corpus_path, index_dir, **kw)
    wall = time.perf_counter() - t0
    run.add("build_s", wall)
    run.add("build_cpu_util",
            (tree_cpu_seconds() - c0) / (wall * host_cpus()))
    return meta


def _build_layers(run: Run, tracer, corpus_path: str, out_dir: str,
                  num_docs: int, text_col: str | None = None) -> None:
    """The timed set-up build, then its stages one by one (see
    ``layers.build_stages``)."""
    run.layer["build_index.wall_s"] = median(run.samples["build_s"])
    run.layer["build_index.cpu_util"] = median(
        run.samples["build_cpu_util"])
    layers.build_stages(tracer, corpus_path, out_dir, num_docs, run.layer,
                        text_col=text_col)
    run.layer["build_index.overlap_s"] = sum(run.layer[k] for k in (
        "stages.tokenize.s", "stages.dictionary.vocab_s",
        "stages.tokenize.doclen_s", "stages.postings.s",
        "stages.dictionary.s")) - run.layer["build_index.wall_s"]


def _delta_layers(run: Run, tracer, merged: BM25Scorer,
                  probe: Sample) -> None:
    """The write-path layers from the spans of the writes the workload
    made, plus warm scoring through ``merged``
    (``delta.merged_scorer``), after one untimed pass."""
    for q in probe.queries:
        merged.score_exact(q["terms"], K)
    for q in probe.queries:
        with tracer.span("delta.merged_score"):
            merged.score_exact(q["terms"], K)
    run.layer["delta.add_documents_s"] = median(
        tracer.durations("delta.add_documents"))
    run.layer["serve.refresh_s"] = median(tracer.durations("serve.refresh"))
    for name in ("delete_documents", "nrt_serving_stats", "merged_score"):
        run.layer[f"delta.{name}_ms"] = median(
            tracer.durations(f"delta.{name}")) * 1e3


def _delta_probe(ctx, tracer, srv: SearchServer, idx: str, space: int,
                 size: dict, seed: int) -> BM25Scorer:
    """One write of each kind, for the write-path layers of a workload
    that makes none: a refresh of the server's pool, an
    ``add_documents`` of one delta batch, a ``delete_documents`` of some
    of its ids and the corrected serving statistics.  Returns the
    merged scorer over the result."""
    with tracer.span("serve.refresh"):
        srv._refresh_pool()
    dpath = ctx.path("delta.parquet")
    pq.write_table(_id_text(space, space + size["nrt_batch"], seed), dpath)
    with tracer.span("delta.add_documents"):
        delta.add_documents(idx, dpath)
    with tracer.span("delta.delete_documents"):
        tomb = delta.delete_documents(
            idx, range(space, space + size["nrt_deletes"]))
    # the deleted docs are all in the delta batch, read as the corpus
    with tracer.span("delta.nrt_serving_stats"):
        delta.nrt_serving_stats(idx, dpath, tombstones=tomb)
    return delta.merged_scorer(idx)


def _wrap_pool(tracer, srv: SearchServer) -> None:
    """Trace the pool calls the server's ops make (instance attributes
    shadow the class methods)."""
    pool = srv.pool
    for m in ("score_after", "score_query", "score_lm", "phrase_counts"):
        setattr(pool, m, tracer.wrap(f"pool.{m}", getattr(pool, m)))


def _id_text(lo: int, hi: int, seed: int) -> pa.Table:
    """Column-mode corpus rows: explicit ``doc_id`` plus ``text``."""
    tbl = corpus.gen_rows(np.arange(lo, hi), seed=seed)
    return pa.table({"doc_id": pa.array(range(lo, hi), pa.int64()),
                     "text": tbl["content"]})


def _start_server(tracer, index_dir: str, **kw) -> tuple[SearchServer, float]:
    """A ``SearchServer`` on fresh range actors, once every actor is up;
    returns it with the seconds that took."""
    t0 = time.perf_counter()
    with tracer.span("pool.init"):
        srv = SearchServer(index_dir, num_ranges=NUM_RANGES, **kw)
        ray.get([a.__ray_ready__.remote() for a in srv.pool.actors])
    return srv, time.perf_counter() - t0


class Client:
    """The one client thread: one request in flight, each one a span
    with its own request id in the traced run."""

    def __init__(self, run: Run, tracer, srv: SearchServer):
        self.run, self.tracer, self.srv = run, tracer, srv
        self.rid = 0

    def send(self, req: dict) -> tuple[dict, float]:
        """(response, milliseconds)."""
        self.rid += 1
        t0 = time.perf_counter()
        with self.tracer.span("serve.handle", rid=self.rid):
            r = self.srv.handle(req)
        return r, (time.perf_counter() - t0) * 1e3

    def cold_searches(self, sample: Sample) -> None:
        """The first searches after the server started or the index
        changed, on cold range actors: one single-term search per
        posting part, in a fixed order, so that together they load every
        part on every actor.  Their mean latency is one
        ``first_search_ms`` sample."""
        total = 0.0
        for t in sample.part_terms:
            r, ms = self.send(_request("search", [t])[1])
            self.run.check(r["ok"])
            total += ms
        self.run.add("first_search_ms", total / len(sample.part_terms))

    def warm(self, sample: Sample, mix: dict, every: bool = False) -> None:
        """Load every posting part on every range actor, and run each op
        of ``mix`` once (``every``: on every item of the sample), so that
        no first-touch load falls in the timed reads that follow."""
        reqs = [_request("search", [t])[1] for t in sample.part_terms]
        for op in mix:
            items = _items(sample, op)
            reqs += [_request(op, it)[1] for it in
                     (items if every else items[:1])]
        for req in reqs:
            self.run.check(self.send(req)[0]["ok"])

    def burst(self, sample: Sample, rng, n: int, mix: dict) -> dict:
        """``n`` closed-loop reads drawn from ``mix``; returns the answers
        by request."""
        answers: dict[tuple, list] = {}
        for op in rng.choice(list(mix), size=n, p=list(mix.values())):
            key, req = _draw(op, sample, rng)
            r, ms = self.send(req)
            self.run.add(f"{op}_ms", ms)
            if self.run.check(r["ok"]):
                answers.setdefault(key, []).append(_answer(r))
        return answers


def _serve_layers(run: Run, tracer) -> None:
    run.layer["pool.init_s"] = median(tracer.durations("pool.init"))
    run.layer["serve.dispatch_ms"] = median(
        tracer.self_time_by_name("serve.handle")) * 1e3
    run.layer["pool.actor_rss_mb"] = float(np.median(
        run.samples["actor_rss_mb"]))


# ---------------------------------------------------------------------------
# serve_read
# ---------------------------------------------------------------------------

def serve_read(ctx, run: Run, size: dict, seed: int, seconds: float,
               tracer) -> None:
    n = size["serve_docs"]
    cdir, idx = ctx.path("corpus"), ctx.path("index")
    # the rows ``corpus.write_corpus`` would write, generated in this
    # process (no Ray job before the timed build) into 4 Parquet files
    rows = corpus.gen_rows(np.arange(n), seed=seed)
    os.makedirs(cdir)
    for i, lo in enumerate(range(0, n, -(-n // 4))):
        pq.write_table(rows.slice(lo, -(-n // 4)),
                       os.path.join(cdir, f"part-{i}.parquet"))
    # the operator's path, timed: build_docs_per_s
    meta = _timed_build(run, tracer, cdir, idx)
    run.add("build_docs_per_s", n / run.samples["build_s"][-1])
    texts = rows["content"].to_pylist()
    run.check(meta["num_docs"] == pads.dataset(cdir).count_rows()
              and meta["total_tokens"] == sum(len(tokenize_py(t))
                                              for t in texts))
    if tracer.enabled:
        _build_layers(run, tracer, cdir, ctx.path("stages"), n)
    sample = make_sample(idx, texts[:200], size, seed)
    rng = np.random.default_rng(seed)

    srv = None
    try:
        for _ in range(size["setup_reps"]):
            if srv is not None:
                srv.close()
            srv, dt = _start_server(tracer, idx)
            run.add("setup_s", dt)
            if tracer.enabled:
                _wrap_pool(tracer, srv)
            Client(run, tracer, srv).cold_searches(sample)
        client = Client(run, tracer, srv)
        client.warm(sample, SERVE_MIX)

        # closed loop for --seconds: the next request goes out when the
        # previous answer is back
        answers: dict[tuple, list] = {}
        _settle()
        ctx.start_window()
        while ctx.elapsed() < seconds:
            for key, got in client.burst(sample, rng, 100,
                                         SERVE_MIX).items():
                answers.setdefault(key, []).extend(got)
        ctx.end_window()
        _serve_rss(run)
        _verify(run, answers, BM25Scorer(idx))

        if tracer.enabled:
            _serve_layers(run, tracer)
            probe = _first_draw(sample, size)
            layers.query_layers(tracer, lambda: BM25Scorer(idx), probe,
                                run.layer)
            layers.pool_rpc(tracer, srv.pool, idx, probe, run.layer)
            merged = _delta_probe(ctx, tracer, srv, idx,
                                  int(meta["doc_id_space"]), size, seed)
            _delta_layers(run, tracer, merged, probe)
    finally:
        if srv is not None:
            srv.close()


# ---------------------------------------------------------------------------
# nrt_mixed
# ---------------------------------------------------------------------------

def nrt_mixed(ctx, run: Run, size: dict, seed: int, seconds: float,
              tracer) -> None:
    n, batch = size["nrt_docs"], size["nrt_batch"]
    main = ctx.path("main.parquet")
    tbl = _id_text(0, n, seed)
    pq.write_table(tbl, main)
    idx = ctx.path("index")
    _timed_build(run, tracer, main, idx, id_mode="column", text_col="text")
    run.add("build_docs_per_s", n / run.samples["build_s"][-1])
    # one query draw: each burst is preceded by every request of the
    # sample (see the cycle below)
    sample = make_sample(idx, tbl["text"].to_pylist()[:200],
                         dict(size, query_draws=1), seed)
    rng = np.random.default_rng(seed)

    saved = {}
    srv = None
    try:
        if tracer.enabled:
            for name in ("add_documents", "delete_documents",
                         "nrt_serving_stats"):
                saved[name] = getattr(delta, name)
                setattr(delta, name,
                        tracer.wrap(f"delta.{name}", saved[name]))
        for _ in range(size["setup_reps"]):
            if srv is not None:
                srv.close()
            srv, dt = _start_server(tracer, idx, corpus_path=main)
            run.add("setup_s", dt)
        client = Client(run, tracer, srv)
        if tracer.enabled:
            _wrap_pool(tracer, srv)
            refresh = srv._refresh_pool

            def traced_refresh():
                with tracer.span("serve.refresh"):
                    refresh()
                _wrap_pool(tracer, srv)
            srv._refresh_pool = traced_refresh

        space, live = n, np.ones(n, bool)
        cycles = 0
        _settle()
        ctx.start_window()
        while cycles < size["nrt_cycles"] or ctx.elapsed() < seconds:
            cycles += 1
            dpath = ctx.path(f"delta{space}.parquet")
            pq.write_table(_id_text(space, space + batch, seed), dpath)
            r, ms = client.send({"op": "ingest", "corpus": dpath})
            run.check(r["ok"])
            run.add("ingest_s", ms / 1e3)
            space += batch
            live = np.concatenate([live, np.ones(batch, bool)])
            client.cold_searches(sample)

            ids = rng.choice(np.flatnonzero(live), size["nrt_deletes"],
                             replace=False)
            live[ids] = False
            r, ms = client.send({"op": "delete",
                                 "doc_ids": [int(i) for i in ids]})
            run.check(r["ok"])
            run.add("delete_ms", ms)
            client.cold_searches(sample)
            # after a write the range actors rebuild per-term state on
            # the first use of each term, at several ms of CPU per
            # request, so a burst's median would hang on how many of its
            # terms came first.  Every sample request runs once, untimed;
            # the burst times warm merged and tombstone reads, and the
            # cold cost is first_search_after_write_ms.
            client.warm(sample, NRT_MIX, every=True)
            answers = client.burst(sample, rng, size["nrt_burst"], NRT_MIX)
        ctx.end_window()
        _serve_rss(run)
        # the last burst ran on the final index generation
        merged = delta.merged_scorer(idx)
        _verify(run, answers, merged)

        if tracer.enabled:
            _serve_layers(run, tracer)
            probe = _first_draw(sample, size)
            _delta_layers(run, tracer, merged, probe)
            # the merged and tombstone readers have no LM pass; the
            # main index's reader scores it
            layers.query_layers(tracer, lambda: delta.merged_scorer(idx),
                                probe, run.layer,
                                lm_scorer=BM25Scorer(idx))
            # no per-range in-process reader covers deltas and
            # tombstones: the whole merged index is the reference
            layers.pool_rpc(tracer, srv.pool, idx, probe, run.layer,
                            local=[merged])
            # last, as it needs the cluster to itself
            _build_layers(run, tracer, main, ctx.path("stages"), n,
                          text_col="text")
    finally:
        for name, fn in saved.items():
            setattr(delta, name, fn)
        if srv is not None:
            srv.close()


WORKLOADS = {"serve_read": serve_read, "nrt_mixed": nrt_mixed}
