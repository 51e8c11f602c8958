"""Driver contract for the graft builder (Ray Data target).

Ray is initialised by the driver BEFORE this module is imported: nothing
here (or in the library) calls ``ray.init()`` / ``ray.shutdown()``.

Each ``queries()`` entry is a Ray-Data pipeline from
hadoopsearchengine_ray, paired (where SQL-expressible) with an exact
DuckDB oracle in ``oracle_sql()``.  Column names and types match on both
sides; comparable outputs avoid floats except explicitly rounded
aggregates.  The shared tokenizer spec (tokenizer.py) appears in SQL as
the ``tok`` CTE below.
"""

from __future__ import annotations

from collections.abc import Callable
from typing import Any

# ---------------------------------------------------------------------------
# shared SQL fragments (must mirror hadoopsearchengine_ray/tokenizer.py)
# ---------------------------------------------------------------------------

TOK_CTE = """
tok AS (
  SELECT doc_id, t AS term FROM (
    SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
    FROM documents
  ) WHERE length(t) BETWEEN 2 AND 16
    AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
)
"""

# ordered variant (for bigrams): token sequence per doc with dense rank
TOK_ORDERED_CTE = """
raw AS (
  SELECT doc_id,
         unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t,
         generate_subscripts(string_split_regex(lower(text), '[^a-z0-9]+'), 1) AS pos
  FROM documents
),
toko AS (
  SELECT doc_id, t, row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
  FROM raw
  WHERE length(t) BETWEEN 2 AND 16
    AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
)
"""

BM25_TERMS = ["spark", "window", "merge"]

# domain-mix target sampling rates (documents.source is src0..src19;
# absent domains drop) — shared verbatim by the query and its oracle
DOMAIN_MIX_W = {"src0": 1.0, "src1": 0.75, "src2": 0.5, "src3": 0.25,
                "src4": 0.1}

# the parsed-query front-end string: weighted OR (merge^2) + required
# (+window) + excluded (-dup, a rare real term so the NOT bites) +
# wildcard (s* -> scan/slow/small/sort/spark/stream)
QUERY_STRING = "merge^2 +window -dup s*"
PHRASE = ["table", "hash"]          # frequent adjacent pair in the corpus
PROX_TERMS = ["table", "hash"]
KNN_QUERY_IDS = [0, 1, 2]
KNN_FILTER_LABEL = 3          # filtered-search predicate (embeddings.label)

_LANG_SW_VALUES = (
    "('the','en'),('and','en'),('is','en'),('of','en'),('to','en'),"
    "('le','fr'),('la','fr'),('et','fr'),('les','fr'),('des','fr'),"
    "('el','es'),('los','es'),('las','es'),('una','es'),('que','es'),"
    "('der','de'),('die','de'),('und','de'),('das','de'),('ein','de')"
)


def _docs(sf_dir: str):
    import ray.data as rd

    return rd.read_parquet(f"{sf_dir}/documents.parquet", columns=["doc_id", "text"])


# ---------------------------------------------------------------------------
# driver entry points
# ---------------------------------------------------------------------------

def entry() -> Any:
    """Flagship: build the full inverted index over sf0.001 documents and
    serve the fixed BM25 query set — returns the top-k result table."""
    import pandas as pd

    from hadoopsearchengine_ray.functions.search import bm25_topk_table, index_for
    from hadoopsearchengine_ray.pipelines.query import BM25Scorer

    path = "/root/testdata/sf0.001/documents.parquet"
    index_dir = index_for(path)
    scorer = BM25Scorer(index_dir)
    frames = []
    for qid, terms in enumerate([BM25_TERMS, ["data"], ["batch", "stream"]]):
        d, s = scorer.score(terms, 10)
        frames.append(pd.DataFrame({
            "qid": qid,
            "rank": range(1, len(d) + 1),
            "doc_id": [int(x) for x in d],
            "score": s,
        }))
    return pd.concat(frames, ignore_index=True)


def queries() -> dict[str, Callable[[str], Any]]:
    import numpy as np
    import pandas as pd
    import pyarrow as pa
    import pyarrow.compute as pc
    import ray.data as rd

    from hadoopsearchengine_ray.functions import dedup, similarity, text
    from hadoopsearchengine_ray.functions.search import bm25_topk_table
    from hadoopsearchengine_ray.pipelines import relational as rel
    from hadoopsearchengine_ray.pipelines.pagerank import pagerank_dataset

    # ---- full-text index family (documents table) --------------------
    def q_tokenize(sf):
        return text.token_table(_docs(sf))

    def q_dictionary(sf):
        return text.dictionary_table(_docs(sf))

    def q_doc_lengths(sf):
        return text.doc_length_table(_docs(sf))

    def q_stop_excluded_dictionary(sf):
        # M3 stopword amputation through the REAL engine tokenize stage
        # (stages/tokenize exclude_terms), not a post-filter
        from hadoopsearchengine_ray.functions.text import (
            dictionary_from_token_rows,
        )
        from hadoopsearchengine_ray.stages.tokenize import tokenize_stage

        tok = tokenize_stage(_docs(sf), text_col="text", id_col="doc_id",
                             exclude_terms=("spark", "window", "merge"))
        return dictionary_from_token_rows(tok)

    def q_bm25(sf):
        return bm25_topk_table(f"{sf}/documents.parquet", BM25_TERMS, 10)

    def q_bm25_merged(sf):
        # parallel-partial-build: shard the corpus by doc-id range,
        # build each shard's index INDEPENDENTLY (the 100-TB story:
        # per-shard build jobs with no cross-shard traffic), then
        # merge_indexes folds them with the posting-level blob merge
        # (no token shuffle).  Rank-identical to one full build, so
        # the oracle is the same BM25 SQL as bm25_topk.
        import hashlib
        import os

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.build_index import build_index
        from hadoopsearchengine_ray.pipelines.compaction import merge_indexes
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        cut = n // 2
        key = hashlib.sha256(f"merge:{sf}".encode()).hexdigest()[:16]
        root = os.path.join("/tmp/hse_merge_cache", key)
        os.makedirs(root, exist_ok=True)
        pa_p = os.path.join(root, "a.parquet")
        pb_p = os.path.join(root, "b.parquet")
        # _DONE carries the SOURCE lineage (store_for pattern): an
        # in-place regeneration of documents.parquet must re-split —
        # a bare existence marker would serve stale shards while the
        # SQL oracle reads the fresh table
        from hadoopsearchengine_ray.state.manifest import lineage_fingerprint

        fp = lineage_fingerprint([f"{sf}/documents.parquet"])
        done = os.path.join(root, "_DONE")
        have = open(done).read() if os.path.exists(done) else None
        if have != fp:
            import shutil as _sh

            for stale in ("idx_a", "idx_b", "merged"):
                _sh.rmtree(os.path.join(root, stale), ignore_errors=True)
            srt = tbl.sort_by("doc_id")
            pq.write_table(srt.slice(0, cut), pa_p)
            pq.write_table(srt.slice(cut), pb_p)
            with open(done, "w") as f:
                f.write(fp)
        ia = os.path.join(root, "idx_a")
        ib = os.path.join(root, "idx_b")
        build_index(pa_p, ia, id_mode="column", text_col="text")
        build_index(pb_p, ib, id_mode="column", text_col="text")
        out = os.path.join(root, "merged")
        meta = merge_indexes([ia, ib], out)
        if meta["num_docs"] != n:
            raise AssertionError(
                f"merged num_docs {meta['num_docs']} != corpus {n}")
        d, _ = BM25Scorer(out).score(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_lm_dirichlet(sf):
        # query-likelihood LM ranking with Dirichlet smoothing (Zhai &
        # Lafferty 2001) over the same index BM25 serves from — the
        # second ranking family; collection stats from the dictionary
        # cf column, per-doc tf/dl from the postings
        from hadoopsearchengine_ray.functions.search import lm_dirichlet_topk

        return lm_dirichlet_topk(f"{sf}/documents.parquet", BM25_TERMS, 10)

    def q_ltr_features(sf):
        # learning-to-rank feature export: per matching doc, the integer
        # features (dl, n_matched, tf_sum, tf_max, 1-based min_pos) read
        # from postings + in-index positions — never re-tokenizing
        from hadoopsearchengine_ray.functions.search import ltr_features

        return ltr_features(f"{sf}/documents.parquet", BM25_TERMS)

    def q_fuzzy_topk(sf):
        # fuzzy retrieval: 'merg' / 'windoq' expand to every dictionary
        # term within Levenshtein distance 1, scored as disjunctive BM25
        from hadoopsearchengine_ray.functions.search import fuzzy_topk

        return fuzzy_topk(f"{sf}/documents.parquet",
                          ["merg", "windoq"], k=10)

    def q_hybrid_rrf(sf):
        # hybrid retrieval: BM25 lexical leg + exact-cosine vector leg
        # fused by Reciprocal Rank Fusion (Cormack et al. 2009, public)
        # — the modern lexical+vector serving shape; vec_id and doc_id
        # share the dense row-id space.  rrf = 1/(60+r_lex) + 1/(60+
        # r_vec) over each leg's top-10 (the depth whose Python-vs-SQL
        # rank parity the bm25_topk / knn_cosine oracles prove; deeper
        # legs would ride unproven ULP-sensitive orderings), same IEEE
        # op order as the SQL
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        K0, LEG, K = 60, 10, 10
        d, _ = BM25Scorer(index_for(f"{sf}/documents.parquet")) \
            .score_exact(BM25_TERMS, LEG)
        lex = {int(x): i + 1 for i, x in enumerate(d)}
        import pyarrow.dataset as _pads

        qv = _pads.dataset(f"{sf}/embeddings.parquet").to_table(
            columns=["vec_id", "embedding"],
            filter=_pads.field("vec_id") == 0)["embedding"].to_pylist()[0]
        out = similarity.knn_cosine(_emb(sf),
                                    np.asarray([qv], np.float64), k=LEG)
        vec = {int(v): int(r) for r, v in zip(out["rank"], out["vec_id"])}
        fused = []
        for i in sorted(set(lex) | set(vec)):
            s = 0.0
            if i in lex:
                s = s + 1.0 / (K0 + lex[i])
            if i in vec:
                s = s + 1.0 / (K0 + vec[i])
            fused.append((-s, i))
        fused.sort()
        top = fused[:K]
        return pd.DataFrame({
            "rank": pd.array(range(1, len(top) + 1), dtype="int64"),
            "doc_id": pd.array([i for _, i in top], dtype="int64"),
        })

    def q_feedback_topk(sf):
        # pseudo-relevance feedback: top-5 docs of the original query
        # pool tf x idf term weights; top-3 new terms join at 0.5x
        from hadoopsearchengine_ray.functions.search import feedback_topk

        return feedback_topk(f"{sf}/documents.parquet", BM25_TERMS,
                             k=10, fb_docs=5, fb_terms=3, fb_weight=0.5)

    def q_index_stats(sf):
        # the checkpoint manifest's recorded metrics, validated against
        # ground truth: the dictionary stage's row count IS the
        # distinct-term count, sum(df) the (term, doc) pair count, and
        # meta's total_tokens the kept-token count — evidence the
        # per-partition lineage/metrics records are real, not decorative
        import json as _json

        import pyarrow.compute as _pc
        import pyarrow.dataset as _pads

        from hadoopsearchengine_ray.functions.search import index_for

        idx = index_for(f"{sf}/documents.parquet")
        with open(f"{idx}/manifest.json") as f:
            man = _json.load(f)
        with open(f"{idx}/meta.json") as f:
            meta = _json.load(f)
        dic = man["stages"]["dictionary"]["metrics"]
        df_sum = _pc.sum(_pads.dataset(f"{idx}/dictionary")
                         .to_table(columns=["df"])["df"]).as_py()
        return pd.DataFrame({
            "num_docs": pd.array([int(meta["num_docs"])], dtype="int64"),
            "distinct_terms": pd.array([int(dic["total_rows"])],
                                       dtype="int64"),
            "term_doc_pairs": pd.array([int(df_sum)], dtype="int64"),
            "total_tokens": pd.array([int(meta["total_tokens"])],
                                     dtype="int64"),
        })

    def q_search_after(sf):
        # cursor pagination (search_after): page 2 = global ranks 11-20
        # fetched via the (score, doc_id) cursor of page 1's last row —
        # stateless deep paging, no offset re-scoring
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        sc = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d1, s1 = sc.score_exact(BM25_TERMS, 10)
        if len(d1) == 0:
            return pd.DataFrame({"rank": pd.array([], dtype="int64"),
                                 "doc_id": pd.array([], dtype="int64")})
        d2, _ = sc.score_after(BM25_TERMS, 10, float(s1[-1]), int(d1[-1]))
        return pd.DataFrame({
            "rank": pd.array(range(11, 11 + len(d2)), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d2], dtype="int64"),
        })

    def q_serve_search(sf):
        # the persistent serving daemon (pipelines/serve.py): warm
        # pools behind one dict-in/dict-out dispatcher — page 1 + a
        # cursor page 2 through SearchServer.handle, so the daemon's
        # request path (not just the pools underneath) is what the
        # oracle checks.  Rows = global ranks 1..20.
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.serve import SearchServer

        srv = SearchServer(index_for(f"{sf}/documents.parquet"),
                           num_ranges=4)
        try:
            p1 = srv.handle({"op": "search", "terms": BM25_TERMS,
                             "k": 10})
            assert p1["ok"], p1
            hits = p1["hits"]
            if "next_after" in p1:
                p2 = srv.handle({"op": "search", "terms": BM25_TERMS,
                                 "k": 10, "after": p1["next_after"]})
                assert p2["ok"], p2
                hits = hits + p2["hits"]
        finally:
            srv.close()
        return pd.DataFrame({
            "rank": pd.array(range(1, 1 + len(hits)), dtype="int64"),
            "doc_id": pd.array([h["doc_id"] for h in hits],
                               dtype="int64"),
        })

    def q_serve_nrt(sf):
        # near-real-time index mutation THROUGH the daemon: main index
        # over the first 80% of docs, the rest delta-ingested via
        # {"op": "ingest"}, doc_id % 13 == 0 tombstoned via
        # {"op": "delete"} (exact N/avgdl/df correction served by the
        # range pool's injected global stats), then a search — the SQL
        # oracle is the ordinary BM25 over the surviving full corpus,
        # so rank identity proves ingest+delete+serve end to end.
        import hashlib
        import os

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.build_index import build_index
        from hadoopsearchengine_ray.pipelines.serve import SearchServer

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        cut = (n * 4) // 5
        key = hashlib.sha256(f"servenrt:{sf}".encode()).hexdigest()[:16]
        root = os.path.join("/tmp/hse_servenrt_cache", key)
        os.makedirs(root, exist_ok=True)
        mainp = os.path.join(root, "main.parquet")
        newp = os.path.join(root, "new.parquet")
        if not os.path.exists(os.path.join(root, "_DONE")):
            srt = tbl.sort_by("doc_id")
            pq.write_table(srt.slice(0, cut), mainp)
            pq.write_table(srt.slice(cut), newp)
            open(os.path.join(root, "_DONE"), "w").close()
        idx = os.path.join(root, "idx")
        build_index(mainp, idx, id_mode="column", text_col="text")
        srv = SearchServer(idx, corpus_path=mainp, num_ranges=4)
        try:
            r = srv.handle({"op": "ingest", "corpus": newp})
            assert r["ok"], r
            r = srv.handle({"op": "delete",
                            "doc_ids": [i for i in range(n)
                                        if i % 13 == 0]})
            assert r["ok"], r
            r = srv.handle({"op": "search", "terms": BM25_TERMS,
                            "k": 10})
            assert r["ok"], r
            hits = r["hits"]
        finally:
            srv.close()
        return pd.DataFrame({
            "rank": pd.array(range(1, 1 + len(hits)), dtype="int64"),
            "doc_id": pd.array([h["doc_id"] for h in hits],
                               dtype="int64"),
        })

    def q_bm25_pool(sf):
        # the doc-range-partitioned serving tier (pool.py): N range-owner
        # actors each score their slice (range-local MaxScore since
        # round-4), driver merges per-range top-k — same SQL oracle as
        # bm25_topk because the merge is exact by construction
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.pool import (
            RangePartitionedPool,
        )

        pool = RangePartitionedPool(index_for(f"{sf}/documents.parquet"),
                                    num_ranges=4)
        try:
            d, _ = pool.score(BM25_TERMS, 10)
        finally:
            pool.shutdown()
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_phrase(sf):
        # positional index: exact-phrase occurrence counts per doc
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.positional import phrase_table

        return phrase_table(index_for(f"{sf}/documents.parquet"), PHRASE)

    def q_phrase3(sf):
        # 3-slot phrase: one positional-key intersection per slot (the
        # k-term generalization the 2-term driver query doesn't cover)
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.positional import phrase_table

        return phrase_table(index_for(f"{sf}/documents.parquet"),
                            ["slow", "hash", "batch"])

    def q_phrase_pool(sf):
        # exact-phrase counts served by the range-partitioned pool
        # (range-local positional decode) — same oracle as phrase_match
        # because per-range results concatenate exactly
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.pool import (
            RangePartitionedPool,
        )

        pool = RangePartitionedPool(index_for(f"{sf}/documents.parquet"),
                                    num_ranges=4)
        try:
            d, c = pool.phrase_counts(PHRASE)
        finally:
            pool.shutdown()
        return pd.DataFrame({
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
            "n": pd.array([int(x) for x in c], dtype="int64"),
        })

    def q_cube_revenue(sf):
        # GROUP BY CUBE(returnflag, linestatus): 2^k granularities from
        # ONE input-scale shuffle (coarser levels re-aggregate the
        # finest result map-side)
        from hadoopsearchengine_ray.pipelines.relational import (
            cube_aggregate,
        )

        ds = rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus", "l_quantity"])
        out = cube_aggregate(ds, ["l_returnflag", "l_linestatus"],
                             "l_quantity", alias="sum_qty")

        def _round(b: pa.Table) -> pa.Table:
            import pyarrow.compute as _pc
            i = b.schema.get_field_index("sum_qty")
            return b.set_column(i, "sum_qty", _pc.round(b["sum_qty"], 2))

        return out.map_batches(_round, batch_format="pyarrow",
                               batch_size=None)

    def q_ntile_orders(sf):
        # NTILE(4) per customer by order value desc (orderkey tiebreak
        # makes the ordering unique, so the bucket split is
        # engine-independent)
        from hadoopsearchengine_ray.pipelines.relational import (
            ntile_per_key,
        )

        ds = rd.read_parquet(
            f"{sf}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"])
        out = ntile_per_key(ds, "o_custkey",
                            ["o_totalprice", "o_orderkey"], 4,
                            descending=[True, False], alias="tile")

        def _drop(b: pa.Table) -> pa.Table:
            return b.drop_columns(["o_totalprice"])

        return out.map_batches(_drop, batch_format="pyarrow",
                               batch_size=None)

    def q_corr_price_qty(sf):
        # per-returnflag Pearson corr + regression line of
        # extendedprice on quantity (two-pass centered moments)
        from hadoopsearchengine_ray.pipelines.relational import (
            corr_regr_per_key,
        )

        ds = rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_returnflag", "l_quantity", "l_extendedprice"])
        return corr_regr_per_key(ds, "l_returnflag", "l_quantity",
                                 "l_extendedprice")

    def q_pivot_events(sf):
        # PIVOT: per-user event counts, one int64 column per
        # event_type (pre-aggregated crosstab partials -> one shuffle
        # of key-cardinality rows)
        from hadoopsearchengine_ray.pipelines.relational import (
            pivot_counts,
        )

        ds = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["user_id", "event_type"])
        return pivot_counts(ds, "user_id", "event_type", prefix="n_")

    def q_bigram_logprob(sf):
        # corpus-bigram conditional-LM mean logprob per doc — the
        # order-sensitive fluency signal on top of unigram_logprob
        from hadoopsearchengine_ray.functions.trainprep import (
            bigram_logprob,
        )

        return bigram_logprob(f"{sf}/documents.parquet")

    def q_near_pairs(sf):
        # ordered NEAR predicate from in-index positions: exact count
        # of (pos_a, pos_b) pairs with 1 <= pos_b - pos_a <= 4
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.positional import near_table

        return near_table(index_for(f"{sf}/documents.parquet"),
                          "spark", "merge", slop=4, ordered=True)

    def q_near_unordered(sf):
        # unordered NEAR: 1 <= |pos_b - pos_a| <= 3
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.positional import near_table

        return near_table(index_for(f"{sf}/documents.parquet"),
                          "window", "merge", slop=3, ordered=False)

    def q_prox(sf):
        # BM25 top-50 candidates re-ranked by (matched desc, min covering
        # window asc, bm25 desc, doc_id) — positions FROM the index
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.positional import (
            proximity_rerank_indexed,
        )

        out = proximity_rerank_indexed(
            index_for(f"{sf}/documents.parquet"), PROX_TERMS, k=10, k_prime=50)
        return pd.DataFrame({
            "rank": pd.array(out["rank"], dtype="int64"),
            "doc_id": pd.array(out["doc_id"], dtype="int64"),
            "matched_terms": pd.array(out["matched_terms"], dtype="int64"),
            "min_window": pd.array(out["min_window"], dtype="int64"),
        })

    def q_bm25_title(sf):
        # BM25F-style title boost: first-8-token occurrences count 2x,
        # title tf derived from in-index positions
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_title_boost(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_delta(sf):
        # incremental indexing: main index over the first 80% of docs,
        # delta over the rest, merged serving — the SQL oracle is the
        # ordinary full-corpus BM25 (rank identity is the contract)
        import os
        import tempfile

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.build_index import build_index
        from hadoopsearchengine_ray.pipelines.delta import (
            add_documents,
            merged_scorer,
        )

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        cut = (n * 4) // 5
        import hashlib

        key = hashlib.sha256(f"delta:{sf}".encode()).hexdigest()[:16]
        root = os.path.join("/tmp/hse_delta_cache", key)
        os.makedirs(root, exist_ok=True)
        mainp = os.path.join(root, "main.parquet")
        newp = os.path.join(root, "new.parquet")
        if not os.path.exists(os.path.join(root, "_DONE")):
            srt = tbl.sort_by("doc_id")
            pq.write_table(srt.slice(0, cut), mainp)
            pq.write_table(srt.slice(cut), newp)
            open(os.path.join(root, "_DONE"), "w").close()
        main_idx = os.path.join(root, "main_idx")
        build_index(mainp, main_idx, id_mode="column", text_col="text")
        add_documents(main_idx, newp)
        d, _ = merged_scorer(main_idx).score(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_delete(sf):
        # tombstone deletion: docs with doc_id % 17 == 0 deleted; scoring
        # must equal the SQL oracle over the surviving docs (stats shift
        # with N/avgdl/df — a results-only filter would NOT match)
        import hashlib
        import os
        import shutil

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.delta import (
            TombstoneReader,
            delete_documents,
            load_tombstones,
        )
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer, IndexReader

        src_idx = index_for(f"{sf}/documents.parquet")
        key = hashlib.sha256(f"del:{sf}".encode()).hexdigest()[:16]
        idx = os.path.join("/tmp/hse_delete_cache", key)
        if not os.path.exists(os.path.join(idx, "meta.json")):
            shutil.rmtree(idx, ignore_errors=True)
            shutil.copytree(src_idx, idx)
        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        delete_documents(idx, [i for i in range(n) if i % 17 == 0])
        reader = TombstoneReader(IndexReader(idx), load_tombstones(idx))
        d, _ = BM25Scorer(idx, reader=reader).score(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_compacted(sf):
        # compaction: main index over the first 80% of docs, delta over
        # the rest, doc_id % 17 == 0 tombstoned, then compact_index
        # folds all three into ONE fresh standalone index (token tables
        # merged, no re-tokenize) — served by the PLAIN scorer, no
        # merged/tombstone readers.  Oracle = BM25 over survivors.
        import hashlib
        import os

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.build_index import build_index
        from hadoopsearchengine_ray.pipelines.delta import (
            add_documents,
            compact_index,
            delete_documents,
        )
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        cut = (n * 4) // 5
        key = hashlib.sha256(f"compact:{sf}".encode()).hexdigest()[:16]
        root = os.path.join("/tmp/hse_compact_cache", key)
        os.makedirs(root, exist_ok=True)
        mainp = os.path.join(root, "main.parquet")
        newp = os.path.join(root, "new.parquet")
        if not os.path.exists(os.path.join(root, "_DONE")):
            srt = tbl.sort_by("doc_id")
            pq.write_table(srt.slice(0, cut), mainp)
            pq.write_table(srt.slice(cut), newp)
            open(os.path.join(root, "_DONE"), "w").close()
        main_idx = os.path.join(root, "main_idx")
        build_index(mainp, main_idx, id_mode="column", text_col="text")
        add_documents(main_idx, newp)
        delete_documents(main_idx, [i for i in range(n) if i % 17 == 0])
        out = os.path.join(root, "compacted")
        meta = compact_index(main_idx, out)
        expect = n - len(range(0, n, 17))
        if meta["num_docs"] != expect:
            raise AssertionError(
                f"compacted num_docs {meta['num_docs']} != alive {expect}")
        d, _ = BM25Scorer(out).score(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_conjunctive(sf):
        # AND semantics: only docs containing EVERY query term rank;
        # BM25 scores unchanged (global stats)
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_conjunctive(BM25_TERMS, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_not(sf):
        # NOT semantics (the reference's EXCLUDE word type, per-query):
        # docs containing any excluded term leave the candidate set;
        # idf/avgdl stay corpus-global
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_excluding(BM25_TERMS, 10, not_terms=["table"])
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_bm25_filtered(sf):
        # metadata-filtered search (filter context): candidates narrowed
        # to lang='en' docs, idf/avgdl stay corpus-global
        import numpy as np
        import pyarrow.compute as pc
        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        t = pq.read_table(f"{sf}/documents.parquet",
                          columns=["doc_id", "lang"])
        allowed = np.sort(
            t.filter(pc.equal(t["lang"], "en"))["doc_id"].to_numpy())
        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_filtered(BM25_TERMS, 10, allowed)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_autocomplete(sf):
        # prefix completions from the on-disk index dictionary (pruned
        # term-range read), ranked cf DESC then term
        from hadoopsearchengine_ray.functions.search import autocomplete

        return autocomplete(f"{sf}/documents.parquet", "c", n=10)

    def q_grep_substring(sf):
        # trigram-index code grep: exact substring match, candidates
        # from the rarest required trigrams, RE2-verified
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_substring

        src = f"{sf}/documents.parquet"
        return grep_substring(trigram_for(src), src, "merge batch") \
            .to_pandas()

    def q_grep_regex(sf):
        # trigram-index regex grep: required-literal CNF planning over
        # the same index, RE2 verify (DuckDB regexps are RE2 too)
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_regex

        src = f"{sf}/documents.parquet"
        return grep_regex(trigram_for(src), src,
                          "spark (scan|merge)").to_pandas()

    def q_grep_count(sf):
        # trigram-index grep with occurrence counts: non-overlapping,
        # the replace-length SQL convention (Arrow count_substring)
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_count

        src = f"{sf}/documents.parquet"
        return grep_count(trigram_for(src), src, "merge batch").to_pandas()

    def q_grep_multi(sf):
        # BATCHED multi-pattern grep: one df read + one postings read
        # plan the whole pattern batch; verify touches each corpus row
        # at most once (absent pattern included to hit the provably-
        # empty planner branch)
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_multi

        src = f"{sf}/documents.parquet"
        return grep_multi(trigram_for(src), src,
                          ["spark scan", "merge batch",
                           "zz absent"]).to_pandas()

    def q_grep_lines(sf):
        # grep presentation layer: (doc_id, line_no, line) per matching
        # LINE (documents text is single-line, so line_no = 1 and line
        # = text; the multi-line semantics are pytest-covered on the
        # synthetic code corpus)
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_lines

        src = f"{sf}/documents.parquet"
        return grep_lines(trigram_for(src), src, "merge batch").to_pandas()

    def q_grep_delta(sf):
        # incremental grep ingestion: half-corpus base build + delta
        # append must serve exactly what a full build serves (the
        # oracle is the same contains scan as grep_substring)
        import shutil
        import tempfile

        import pyarrow.dataset as _pads

        from hadoopsearchengine_ray.pipelines.grep import (
            add_to_trigram_index,
            build_trigram_index,
            grep_substring,
        )

        src = f"{sf}/documents.parquet"
        cut = _pads.dataset(src).count_rows() // 2
        idx = tempfile.mkdtemp(prefix="hse_grep_delta_")
        try:
            build_trigram_index(
                rd.read_parquet(src, columns=["doc_id", "text"])
                .filter(expr=f"doc_id < {cut}"), idx)
            add_to_trigram_index(
                rd.read_parquet(src, columns=["doc_id", "text"])
                .filter(expr=f"doc_id >= {cut}"), idx)
            return grep_substring(idx, src, "merge batch").to_pandas()
        finally:
            shutil.rmtree(idx, ignore_errors=True)

    def q_grep_after_delete(sf):
        # tombstoned docs must vanish from grep results (the grep
        # analog of bm25_after_delete): delete doc_id % 7 == 0, then
        # search — oracle adds the same predicate
        import shutil
        import tempfile

        import pyarrow.dataset as _pads

        from hadoopsearchengine_ray.pipelines.grep import (
            build_trigram_index,
            delete_from_trigram_index,
            grep_substring,
        )

        src = f"{sf}/documents.parquet"
        n = _pads.dataset(src).count_rows()
        idx = tempfile.mkdtemp(prefix="hse_grep_del_")
        try:
            build_trigram_index(src, idx)
            delete_from_trigram_index(idx, list(range(0, n, 7)))
            return grep_substring(idx, src, "merge batch").to_pandas()
        finally:
            shutil.rmtree(idx, ignore_errors=True)

    def q_grep_substring_ci(sf):
        # case-insensitive grep from a casefolded trigram index:
        # lower(text)-contains-lower(pattern) semantics; the UPPERCASE
        # pattern discriminates (the case-sensitive path returns 0 rows
        # on the all-lowercase corpus)
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_substring

        src = f"{sf}/documents.parquet"
        return grep_substring(trigram_for(src, casefold=True), src,
                              "MERGE Batch").to_pandas()

    def q_grep_regex_ci(sf):
        # regex over the CASEFOLDED index: regexp_matches(lower(text),
        # pattern) semantics — lowercase pattern gives grep -i; planned
        # with the as-written literals' grams against the folded index
        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_regex

        src = f"{sf}/documents.parquet"
        return grep_regex(trigram_for(src, casefold=True), src,
                          "spark (scan|merge)").to_pandas()

    def q_grep_scan_spill(sf):
        # bounded-driver-memory grep: fetch_cap=0 forces the streaming
        # verify scan and output_path routes the match set straight to
        # sorted parquet (the driver holds only a (path, n_rows)
        # manifest — the scale exit for stopword-scale patterns).  The
        # harness reads the spill back to value-check it; the engine
        # never concatenated it.
        import tempfile

        import pyarrow.dataset as pads

        from hadoopsearchengine_ray.functions.search import trigram_for
        from hadoopsearchengine_ray.pipelines.grep import grep_substring

        src = f"{sf}/documents.parquet"
        out = tempfile.mkdtemp(prefix="hse_grep_spill_")
        man = grep_substring(trigram_for(src), src, "merge batch",
                             output_path=out, fetch_cap=0)
        tbl = pads.dataset(out).to_table().sort_by("doc_id")
        assert tbl.num_rows == man["n_rows"][0].as_py()
        return tbl.to_pandas()

    def q_facet_counts(sf):
        # faceted search panel: docs matching ANY query term, counted
        # per lang — posting-decoded match set broadcast over a pruned
        # (doc_id, lang) scan
        from hadoopsearchengine_ray.functions.search import facet_counts

        return facet_counts(f"{sf}/documents.parquet",
                            ["spark", "merge"], facet_col="lang")

    def q_more_like_this(sf):
        # related docs: source doc 7's top-5 tf x idf terms (ties by
        # term) replayed as disjunctive BM25
        from hadoopsearchengine_ray.functions.search import more_like_this

        return more_like_this(f"{sf}/documents.parquet", doc_id=7,
                              m=5, k=10)

    def q_facet_topk(sf):
        # grouped retrieval: BM25 top-3 per lang (rank within facet by
        # score DESC, doc_id) — exact scorer over all matched docs,
        # facet attach via pruned isin scan
        from hadoopsearchengine_ray.functions.search import facet_topk

        return facet_topk(f"{sf}/documents.parquet", BM25_TERMS,
                          facet_col="lang", k=3)

    def q_facet_topk_hot(sf):
        # the stopword-scale regime: a hot term ('data' matches most of
        # the corpus) forced onto the BIG dispatch path
        # (driver_merge_threshold=0) — per-facet heads combine map-side,
        # the matched set never lands on the driver.  Same oracle shape
        # as facet_topk (both paths are rank-identical by contract).
        from hadoopsearchengine_ray.functions.search import facet_topk

        return facet_topk(f"{sf}/documents.parquet", ["data"],
                          facet_col="lang", k=3,
                          driver_merge_threshold=0)

    def q_bm25_prefix(sf):
        # wildcard search: 'wind*' + 'mer*' expand against the
        # dictionary (binary-search range scan), union scored as
        # disjunctive BM25 — per-expanded-term idf, same as the LIKE
        # oracle
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_prefix(["wind", "mer"], 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_expanded_topk(sf):
        # query-time association expansion (reference TextStringServer):
        # 'merge' pulls in its top-2 adjacent-bigram partners at 0.5x
        # weight; scored on the exact dense path.  Oracle = the bigram
        # association CTE feeding a weighted BM25 sum.
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.functions.text import association_map
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        assoc = association_map(_docs(sf), top_m=2)
        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_expanded(["merge"], 10, assoc,
                                     discount=0.5, per_term=2)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_incremental_dedup(sf):
        # continual ingestion: incoming batch = fresh docs (last 20%)
        # + mirrors of every 10th existing doc (re-id'd); survivors =
        # fresh docs only, mirrors anti-joined away against the indexed
        # corpus's content hashes — one co-partitioned shuffle
        import numpy as np
        import pyarrow as pa
        import pyarrow.parquet as pq
        import ray.data as rd

        from hadoopsearchengine_ray.functions.dedup import incremental_dedup
        from hadoopsearchengine_ray.stages.ingest import add_sha256

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        cut = (n * 4) // 5
        ids = tbl["doc_id"].to_numpy()
        existing = tbl.take(np.flatnonzero(ids < cut))
        mirrors = tbl.take(np.flatnonzero((ids < cut) & (ids % 10 == 0)))
        mirrors = mirrors.set_column(
            0, "doc_id", pa.array(mirrors["doc_id"].to_numpy() + n))
        fresh = tbl.take(np.flatnonzero(ids >= cut))
        incoming = pa.concat_tables([mirrors, fresh])

        sha = add_sha256(rd.from_arrow(existing), text_col="text") \
            .select_columns(["sha256"])
        out = incremental_dedup(rd.from_arrow(incoming), sha,
                                text_col="text").to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": pd.array(out["doc_id"], dtype="int64"),
            "h": out["h"].astype(str),
        })

    def q_tfidf(sf):
        # sparse TF-IDF featurization (smooth idf, sklearn convention):
        # tf is a pure map (no shuffle), df is the one vocab aggregate
        # broadcast back as an idf lookup
        from hadoopsearchengine_ray.functions.text import tfidf_table

        out = tfidf_table(f"{sf}/documents.parquet").to_pandas()
        out = out.sort_values(["doc_id", "term"]).reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": pd.array(out["doc_id"], dtype="int64"),
            "term": out["term"].astype(str),
            "w": out["w"].astype("float64"),
        })

    def q_clean_corpus(sf):
        # C4-style cleaning: quality gate (token count, distinct ratio,
        # mean token length) + exact dedup keep-first — one map + one
        # hash groupby
        from hadoopsearchengine_ray.functions.text import clean_corpus

        out = clean_corpus(f"{sf}/documents.parquet",
                           min_tokens=20, max_tokens=90,
                           min_distinct_ratio=0.35,
                           min_mean_len=4.0, max_mean_len=5.2).to_pandas()
        out = out.sort_values("doc_id").reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": pd.array(out["doc_id"], dtype="int64"),
            "h": out["h"].astype(str),
        })

    def q_chunks(sf):
        # RAG-style overlapping token-window chunking; chunk identity
        # checked by md5 of the space-joined window text
        from hadoopsearchengine_ray.functions.text import chunk_table

        out = chunk_table(f"{sf}/documents.parquet",
                          size=32, stride=16).to_pandas()
        out = out.sort_values(["doc_id", "chunk_idx"]).reset_index(drop=True)
        return pd.DataFrame({
            "doc_id": pd.array(out["doc_id"], dtype="int64"),
            "chunk_idx": pd.array(out["chunk_idx"], dtype="int64"),
            "n_tokens": pd.array(out["n_tokens"], dtype="int64"),
            "h": out["h"].astype(str),
        })

    def q_repetition(sf):
        # Gopher-style repetition filter signals: duplicate-line fraction
        # + most-common-unigram/bigram fractions, int64 keep flag; pure
        # map, no shuffle at any corpus size
        from hadoopsearchengine_ray.functions.trainprep import (
            repetition_stats,
        )

        return repetition_stats(f"{sf}/documents.parquet")

    def q_unigram_logprob(sf):
        # corpus-unigram-LM mean log-prob per doc (CCNet-style perplexity
        # filtering, deterministic): one vocab aggregate broadcast back
        # into a single per-doc map
        from hadoopsearchengine_ray.functions.trainprep import (
            unigram_logprob,
        )

        return unigram_logprob(f"{sf}/documents.parquet")

    def q_domain_mix(sf):
        # deterministic domain-weighted subsampling (training-mix
        # realization): id-keyed md5 coin vs per-domain rate — no
        # shuffle, reproducible across engines (md5_number_lower parity)
        from hadoopsearchengine_ray.functions.trainprep import domain_mix

        return domain_mix(f"{sf}/documents.parquet", DOMAIN_MIX_W)

    def q_ppl_bucket(sf):
        # CCNet-style LM-quality band: keep docs between the p10 and p90
        # unigram-logprob order statistics (quantile_disc parity)
        from hadoopsearchengine_ray.functions.trainprep import (
            ppl_bucket_filter,
        )

        return ppl_bucket_filter(f"{sf}/documents.parquet")

    def q_search_snippets(sf):
        # the composed serving path (BM25 -> DocStore fetch -> excerpt
        # rendering); oracle checks the ranking AND that every served
        # row rendered a non-empty snippet
        from hadoopsearchengine_ray.functions.search import (
            search_snippets_table,
        )

        return search_snippets_table(f"{sf}/documents.parquet",
                                     BM25_TERMS, 10)

    def q_query_string(sf):
        # the one-call parsed query front-end: weighted OR + required +
        # excluded + wildcard composed in a single scoring pass
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_query(QUERY_STRING, 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_query_string_phrase(sf):
        # quoted-phrase front-end: the phrase is a required positional
        # predicate (adjacent-pair doc set), its terms still score,
        # exclusion composes — all in the same single scoring pass
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_query('"table hash" merge^2 -dup', 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_query_string_near(sf):
        # NEAR(a,b,slop) predicate in the query string: unordered
        # proximity doc set from in-index positions gates the ranking
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer

        scorer = BM25Scorer(index_for(f"{sf}/documents.parquet"))
        d, _ = scorer.score_query("near(spark,merge,4) window^1.5", 10)
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_packed_shards(sf):
        # materialized concat-and-chunk packing: every 256-token
        # training sequence's content is md5-hash-compared to the
        # oracle's global token stream cut at the same boundaries
        from hadoopsearchengine_ray.functions.trainprep import (
            packed_shards,
        )

        return packed_shards(f"{sf}/documents.parquet", seq_len=256)

    def q_pii_redact(sf):
        # C4-style PII scrubbing.  The corpus has no PII, so the query
        # deterministically seeds one email + one IPv4 per doc (same
        # concat in the oracle SQL) — the redaction kernel is exercised
        # for real, and the redacted TEXT itself is hash-compared
        from hadoopsearchengine_ray.functions.trainprep import pii_redact

        docs = rd.read_parquet(f"{sf}/documents.parquet",
                               columns=["doc_id", "text"])

        def _aug(b: pa.Table) -> pa.Table:
            s = b["text"].to_pandas().astype(str)
            ids = pd.Series(b["doc_id"].to_numpy(zero_copy_only=False))
            aug = (s + " contact user" + ids.astype(str).values
                   + "@mail.example.com from 10."
                   + (ids % 250).astype(str).values + ".0."
                   + (ids % 200).astype(str).values + " end")
            return pa.table({"doc_id": b["doc_id"].cast(pa.int64()),
                             "text": pa.array(aug, pa.string())})

        return pii_redact(docs.map_batches(_aug, batch_format="pyarrow"))

    def q_contamination(sf):
        # benchmark-contamination check: distinct 5-gram shingles of the
        # held-out source's docs semi-joined (co-partitioned hash_join,
        # no broadcast) against the distinct train-side shingle set
        from hadoopsearchengine_ray.functions.trainprep import (
            contamination_table,
        )

        return contamination_table(f"{sf}/documents.parquet",
                                   test_source="src0", n=5)

    def q_pack_sequences(sf):
        # concat-and-chunk packing: global token offsets in doc_id order
        # via ONE narrow range sort + metadata-only prefix sum (the
        # zip_with_index pattern), then each doc's training-sequence span
        from hadoopsearchengine_ray.functions.trainprep import (
            pack_sequences,
        )

        return pack_sequences(f"{sf}/documents.parquet", seq_len=512)

    def q_heavy_hitters(sf):
        # Space-Saving top-k terms WITHOUT a vocabulary shuffle:
        # capacity-bounded partials + tree merge.  Capacity >> vocab
        # here, so the sketch is exact and the SQL oracle applies; the
        # truncation-regime guarantee is pytest-covered
        from hadoopsearchengine_ray.functions.sketch import (
            term_heavy_hitters,
        )

        return term_heavy_hitters(f"{sf}/documents.parquet", k=30,
                                  capacity=1 << 17)

    def q_hll_distinct(sf):
        # HyperLogLog distinct 3-gram shingle count: register-blob
        # partials merged on the driver (O(partials x 16KiB), no
        # distinct shuffle).  The query RETURNS the exact count (SQL
        # oracle) and raises unless the sketch lands within 5% — the
        # repo's embedded-shadow convention
        from ray.data.aggregate import Count

        from hadoopsearchengine_ray.functions.sketch import hll_distinct
        from hadoopsearchengine_ray.functions.trainprep import (
            _doc_index,
            _ngram_join,
        )
        from hadoopsearchengine_ray.tokenizer import tokenize_column

        docs = rd.read_parquet(f"{sf}/documents.parquet",
                               columns=["doc_id", "text"])

        def _sh(b: pa.Table) -> pa.Table:
            texts = b["text"].combine_chunks() if isinstance(
                b["text"], pa.ChunkedArray) else b["text"]
            toks = tokenize_column(texts)
            offs = toks.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            joined, _ = _ngram_join(toks.values, _doc_index(offs), 3)
            return pa.table({"sh": joined.cast(pa.string()) if len(joined)
                             else pa.array([], pa.string())})

        sh = docs.map_batches(_sh, batch_format="pyarrow").materialize()
        est = hll_distinct(sh, "sh", p=14)
        exact = sh.groupby("sh").aggregate(Count(alias_name="c")).count()
        if abs(est / max(exact, 1) - 1) >= 0.05:
            raise AssertionError(
                f"HLL estimate {est:.1f} vs exact {exact}: >5% off")
        return pd.DataFrame({"n_distinct": pd.array([exact], dtype="int64")})

    def q_doclen_quantiles(sf):
        # MRL-style mergeable quantile sketch over per-doc token counts:
        # O(blocks x capacity) exchange, no value shuffle.  capacity >>
        # n here, so the sketch is exact (quantile_disc parity, SQL
        # oracle); a truncated-capacity re-run self-checks the approx
        # regime's rank-error bound against the exact answer
        from ray.data.aggregate import Sum

        from hadoopsearchengine_ray.functions.sketch import quantile_sketch
        from hadoopsearchengine_ray.functions.text import (
            _docs,
            token_table,
        )

        tok = token_table(_docs(f"{sf}/documents.parquet"), "text")
        dl = (tok.groupby("doc_id")
              .aggregate(Sum("tf", alias_name="dl")).materialize())
        qs = [0.5, 0.9, 0.99]
        exact = quantile_sketch(dl, "dl", qs, capacity=1 << 22)
        approx = quantile_sketch(dl, "dl", qs, capacity=256)
        vals = np.sort(dl.to_pandas()["dl"].to_numpy())
        for q, a in zip(qs, approx):
            rank = np.searchsorted(vals, a, side="right") / len(vals)
            if abs(rank - q) > 0.05:
                raise AssertionError(
                    f"quantile sketch rank error at q={q}: value {a} has "
                    f"rank {rank:.3f}")
        return pd.DataFrame({
            "q50": pd.array([int(exact[0])], dtype="int64"),
            "q90": pd.array([int(exact[1])], dtype="int64"),
            "q99": pd.array([int(exact[2])], dtype="int64"),
        })

    def q_event_value_quantiles(sf):
        # per-key quantile sketch: each batch contributes <= capacity
        # weighted points per key present, ONE groupby merges — the
        # grouped A9.  capacity >> rows/key here => quantile_disc-exact
        from hadoopsearchengine_ray.functions.sketch import (
            grouped_quantiles,
        )

        ev = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_type", "value"])
        return grouped_quantiles(ev, "event_type", "value",
                                 [0.5, 0.95], capacity=1 << 21)

    def q_running_revenue(sf):
        # per-key window cumsum (SUM OVER PARTITION BY ... ROWS
        # UNBOUNDED PRECEDING): hash-bucketed, one lexsort + segmented
        # cumsum per bucket.  Integer cents => exact vs the SQL window
        import pyarrow.compute as pc

        from hadoopsearchengine_ray.pipelines.relational import (
            cumsum_per_key,
        )

        od = rd.read_parquet(
            f"{sf}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_orderdate",
                     "o_totalprice"]).map_batches(
            lambda b: b.append_column(
                "cents", pc.round(pc.multiply(b["o_totalprice"], 100.0))
                .cast(pa.int64())).drop_columns(["o_totalprice"]),
            batch_format="pyarrow", batch_size=None)
        out = cumsum_per_key(od, key="o_custkey",
                             order_cols=["o_orderdate", "o_orderkey"],
                             value_col="cents", alias="running_cents")
        return out.select_columns(["o_orderkey", "o_custkey",
                                   "running_cents"])

    def q_order_rank_per_cust(sf):
        # RANK + DENSE_RANK per customer by order value (DESC): ties
        # share the min rank; keyed by o_orderkey so no output
        # ordering ambiguity
        from hadoopsearchengine_ray.pipelines.relational import rank_per_key

        ds = rd.read_parquet(
            f"{sf}/orders.parquet",
            columns=["o_orderkey", "o_custkey", "o_totalprice"])
        out = rank_per_key(ds, "o_custkey", "o_totalprice",
                           descending=True)

        def _drop(b: pa.Table) -> pa.Table:
            return b.drop_columns(["o_totalprice"])

        return out.map_batches(_drop, batch_format="pyarrow",
                               batch_size=None)

    def q_prev_event_value(sf):
        # LAG window: previous event's value (cents) per user, first
        # event coalesced to -1 so the compare stays integer-exact
        import pyarrow.compute as pc

        from hadoopsearchengine_ray.pipelines.relational import lag_per_key

        ev = rd.read_parquet(
            f"{sf}/events.parquet",
            columns=["event_id", "user_id", "ts", "value"]).map_batches(
            lambda b: b.append_column(
                "cents", pc.round(pc.multiply(b["value"], 100.0))
                .cast(pa.int64())).drop_columns(["value"]),
            batch_format="pyarrow", batch_size=None)
        out = lag_per_key(ev, key="user_id", order_cols=["ts", "event_id"],
                          value_col="cents", alias="prev_cents").to_pandas()
        out["prev_cents"] = out["prev_cents"].fillna(-1).astype("int64")
        return out[["event_id", "user_id", "prev_cents"]]

    def q_rollup_revenue(sf):
        # GROUP BY ROLLUP: finest groupby once (the only input-scale
        # shuffle), coarser levels re-aggregated from the tiny finest
        # result, typed-null padding unioned
        import pyarrow.compute as pc

        from hadoopsearchengine_ray.pipelines.relational import (
            rollup_aggregate,
        )

        li = rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_returnflag", "l_linestatus",
                     "l_extendedprice"]).map_batches(
            lambda b: pa.table({
                "l_returnflag": b["l_returnflag"],
                "l_linestatus": b["l_linestatus"],
                "cents": pc.round(pc.multiply(b["l_extendedprice"], 100.0))
                .cast(pa.int64()),
            }), batch_format="pyarrow", batch_size=None)
        return rollup_aggregate(li, ["l_returnflag", "l_linestatus"],
                                "cents", alias="total_cents")

    def q_user_distinct_etypes(sf):
        # exact per-key distinct count (two-level groupby, returned and
        # SQL-checked) + per-key HLL register merge self-checked against
        # it — the sketch is the 100-TB path when per-key values are
        # high-cardinality
        from ray.data.aggregate import Count

        from hadoopsearchengine_ray.functions.sketch import (
            hll_distinct_per_key,
        )

        ev = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["user_id", "event_type"])
        exact = (ev.groupby(["user_id", "event_type"])
                 .aggregate(Count(alias_name="__c"))
                 .groupby("user_id").aggregate(Count(alias_name="n_distinct"))
                 .to_pandas())
        est = hll_distinct_per_key(ev, "user_id", "event_type",
                                   p=12).to_pandas()
        m = exact.merge(est, on="user_id")
        err = np.abs(m["n_distinct_est"] - m["n_distinct"])
        if not bool(((err <= 1) | (err / m["n_distinct"] < 0.05)).all()):
            raise AssertionError(
                f"per-key HLL off: max abs err {float(err.max()):.2f}")
        exact["n_distinct"] = exact["n_distinct"].astype("int64")
        return exact

    def q_anti_join(sf):
        # customers with no orders: co-partitioned set difference, the
        # ExternalHashMap anti side — neither input broadcast
        from hadoopsearchengine_ray.pipelines.relational import anti_join

        import pyarrow.compute as pc

        cust = rd.read_parquet(f"{sf}/customer.parquet",
                               columns=["c_custkey", "c_name"])
        okeys = rd.read_parquet(
            f"{sf}/orders.parquet",
            columns=["o_custkey", "o_totalprice"]).map_batches(
            lambda b: pa.table({"c_custkey": b.filter(
                pc.greater(b["o_totalprice"], 250000.0))["o_custkey"]}),
            batch_format="pyarrow", batch_size=None)
        return anti_join(cust, okeys, on="c_custkey")

    def q_bloom_semi_join(sf):
        # Bloom-pruned semi-join: orders keys fold to an OR-merged bitset
        # broadcast once; lineitem rows that cannot match never enter the
        # join shuffle.  Result is exact (FPs drop in the distinct-key
        # join; Blooms have no false negatives)
        import pyarrow.compute as pc

        from hadoopsearchengine_ray.pipelines.relational import (
            bloom_semi_join,
        )

        li = rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_orderkey", "l_linenumber", "l_quantity"])
        orders = rd.read_parquet(f"{sf}/orders.parquet",
                                 columns=["o_orderkey", "o_totalprice"])
        keys = orders.map_batches(
            lambda b: pa.table({"l_orderkey": b.filter(
                pc.greater(b["o_totalprice"], 180000.0))["o_orderkey"]}),
            batch_format="pyarrow", batch_size=None)
        return bloom_semi_join(li, keys, on="l_orderkey")

    def q_prepare_corpus(sf):
        # the composed training-data prep: C4-style gate + exact dedup
        # keep-first + concat-and-chunk packing of the survivors — one
        # map, one hash groupby, one narrow sort + metadata prefix sum
        from hadoopsearchengine_ray.functions.trainprep import (
            prepare_corpus,
        )

        return prepare_corpus(f"{sf}/documents.parquet", seq_len=512,
                              min_tokens=20, max_tokens=90,
                              min_distinct_ratio=0.35,
                              min_mean_len=4.0, max_mean_len=5.2)

    def q_bm25f(sf):
        # unified multi-field index (M8 complete): ONE build + ONE
        # reader pass scores body + title (position-derived) + anchor
        # (aux channel) together — the reference's hit-type routing
        from hadoopsearchengine_ray.pipelines.fields import bm25f_topk

        return bm25f_topk(f"{sf}/documents.parquet", BM25_TERMS, 10)

    def q_search_dedup(sf):
        # serving-time near-dup removal (D2, the reference's
        # RemoveDuplicateExcerpt): the corpus is dup-SEEDED — every doc
        # mirrored at doc_id + N — so the raw BM25 page would pair each
        # hit with its duplicate; the fingerprint filter must suppress
        # every mirror (oracle partitions candidates by token sequence)
        import hashlib
        import os
        import shutil

        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.build_index import build_index
        from hadoopsearchengine_ray.pipelines.docstore import (
            search_dedup,
            write_docstore,
        )

        tbl = pq.read_table(f"{sf}/documents.parquet",
                            columns=["doc_id", "text"])
        n = tbl.num_rows
        key = hashlib.sha256(f"sdedup:{sf}".encode()).hexdigest()[:16]
        root = os.path.join("/tmp/hse_sdedup_cache", key)
        os.makedirs(root, exist_ok=True)
        seeded = os.path.join(root, "seeded.parquet")
        store = os.path.join(root, "store")
        if not os.path.exists(os.path.join(root, "_DONE")):
            mirror = pa.table({
                "doc_id": pc.add(tbl["doc_id"], n),
                "text": tbl["text"],
            })
            pq.write_table(pa.concat_tables([tbl, mirror]), seeded)
            shutil.rmtree(store, ignore_errors=True)
            write_docstore(rd.read_parquet(seeded), store)
            open(os.path.join(root, "_DONE"), "w").close()
        idx = os.path.join(root, "idx")
        build_index(seeded, idx, id_mode="column", text_col="text")
        out = search_dedup(idx, store, BM25_TERMS, k=10, k_prime=50,
                           text_col="text")
        return out.to_pandas()

    def q_anchor_bm25(sf):
        # anchor-text field (J4): deterministic links, source titles as
        # anchor terms, BM25 over the anchor posting index
        from hadoopsearchengine_ray.pipelines.anchor import anchor_bm25_topk

        return anchor_bm25_topk(f"{sf}/documents.parquet", BM25_TERMS, 10)

    def q_sha256(sf):
        from hadoopsearchengine_ray.stages.ingest import add_sha256

        ds = add_sha256(_docs(sf), text_col="text")
        return ds.select_columns(["doc_id", "sha256"])

    def q_quality(sf):
        return text.quality_table(_docs(sf))

    def q_lang_id(sf):
        return text.lang_id_table(_docs(sf))

    def q_token_count(sf):
        return text.token_count_table(_docs(sf))

    def q_stratified_sample(sf):
        # deterministic 2-per-user event downsample (class balancing)
        ev = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_id", "user_id"])
        out = rel.stratified_sample(ev, key="user_id", id_col="event_id",
                                    n=2)

        def _shape(b: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": b["event_id"].cast(pa.int64()),
                "user_id": b["user_id"].cast(pa.int64()),
            })

        return out.map_batches(_shape, batch_format="pyarrow",
                               batch_size=None)

    def q_bigrams(sf):
        return text.bigram_table(_docs(sf), k=100)

    def q_pmi_bigrams(sf):
        # top collocations by pointwise mutual information; integer
        # counts only in the frame (lift is the ordering key, computed
        # with the identical IEEE op order in the SQL oracle)
        return text.pmi_bigrams(_docs(sf), min_count=5, k=50)

    def q_cf_p95(sf):
        d = text.dictionary_table(_docs(sf))
        val = rel.kth_percentile(d, "cf", 0.95)
        return pd.DataFrame({"cf_p95": pd.array([int(val)], dtype="int64")})

    def q_stemmed_dict(sf):
        from hadoopsearchengine_ray.functions.normalize import (
            stemmed_token_table,
        )

        tok = stemmed_token_table(_docs(sf))

        def _ren(b: pa.Table) -> pa.Table:
            return pa.table({"doc_id": b["doc_id"], "term": b["stem"],
                             "tf": b["tf"]})

        agg = text.dictionary_from_token_rows(
            tok.map_batches(_ren, batch_format="pyarrow", batch_size=None))

        def _back(b: pa.Table) -> pa.Table:
            return pa.table({"stem": b["term"], "df": b["df"], "cf": b["cf"]})

        return agg.map_batches(_back, batch_format="pyarrow", batch_size=None)

    def q_html_strip(sf):
        from hadoopsearchengine_ray.functions.normalize import (
            strip_html_table,
        )

        def _wrap(b: pa.Table) -> pa.Table:
            ids = b["doc_id"].to_pylist()
            txt = b["text"].to_pylist()
            html = [f"<html><title>doc {i}</title><body>{t}</body></html>"
                    for i, t in zip(ids, txt)]
            return pa.table({"doc_id": b["doc_id"],
                             "html": pa.array(html, pa.string())})

        wrapped = _docs(sf).map_batches(_wrap, batch_format="pyarrow")
        return strip_html_table(wrapped)

    def q_keyword_sets(sf):
        return text.keyword_table(_docs(sf), top_m=3, pct=0.95)

    def q_keyword_pagerank(sf):
        out = text.keyword_pagerank(_docs(sf), top_m=3, cycles=20)
        # shadow: numpy PulseRank over the same co-occurrence edges
        from hadoopsearchengine_ray.functions.text import (
            keyword_links,
            keyword_table,
        )
        from hadoopsearchengine_ray.oracle import pagerank_oracle

        kws = keyword_table(_docs(sf), top_m=3, pct=0.95).to_pandas()
        vocab, links = keyword_links(kws)
        exp = pagerank_oracle(links["src"].to_numpy(), links["dst"].to_numpy(),
                              links["weight"].to_numpy(), len(vocab))
        got = out.set_index("keyword")["kw_score"]
        if not np.allclose([got[v] for v in vocab], np.round(exp, 9),
                           atol=1e-8):
            raise AssertionError("keyword_pagerank self-check mismatch")
        return out

    def q_word_stats(sf):
        return text.word_stats(_docs(sf))

    def q_association_top3(sf):
        # association map (query expansion source): per term, top-3
        # co-occurrence partners by (max bigram count desc, partner asc)
        assoc = text.association_map(_docs(sf), top_m=3, max_bigrams=10_000)
        rows = [(t, ",".join(ps)) for t, ps in assoc.items() if ps]
        rows.sort()
        return pd.DataFrame({
            "term": pd.array([r[0] for r in rows], dtype=str),
            "partners": pd.array([r[1] for r in rows], dtype=str),
        })

    def q_spell_suggest(sf):
        # SymSpell deletion-index suggestions for dropped-letter typos;
        # shadow: every distance-1 dictionary term must be found and the
        # ranking must follow (distance, cf desc, term)
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.functions.spellcheck import (
            SpellIndex,
            _edit_distance_le,
        )

        sidx = SpellIndex.from_index_dir(index_for(f"{sf}/documents.parquet"))
        vocab = sorted(sidx.cf)
        typos = sorted({t[:2] + t[3:] for t in vocab
                        if len(t) >= 5 and t[:2] + t[3:] not in sidx.cf})[:20]
        rows = []
        for w in typos:
            sugg = sidx.suggest(w, max_suggestions=5)
            # shadow check 1: returned candidates ranked correctly
            ranked = sorted(((_edit_distance_le(w, c), -sidx.cf[c], c)
                             for c in sugg))
            if [c for _, _, c in ranked] != sugg:
                raise AssertionError(f"spell ranking broken for {w}")
            # shadow check 2: no distance-1 term missed (deletion-index
            # completeness at distance 1)
            d1 = {c for c in vocab if _edit_distance_le(w, c, 1) <= 1}
            top = set(sugg)
            for c in d1:
                better = [(1, -sidx.cf[c], c) <= r for r in ranked[:len(sugg)]]
                if c not in top and len(sugg) < 5:
                    raise AssertionError(f"spell missed dist-1 {c} for {w}")
            rows.append((w, ",".join(sugg)))
        return pd.DataFrame({
            "typo": pd.array([r[0] for r in rows], dtype=str),
            "suggestions": pd.array([r[1] for r in rows], dtype=str),
        })

    # ---- dedup family -------------------------------------------------
    def q_exact_dedup(sf):
        return dedup.exact_dedup(_docs(sf))

    def q_shingle_pairs(sf):
        return dedup.shingle_overlap_pairs(_docs(sf), n=3, min_common=5, max_df=50)

    def q_dup_spans(sf):
        # exact-substring duplication stats (Lee et al.-style, fixed
        # 8-token spans): per doc, how many distinct 8-grams also occur
        # in another doc — bucketed rolling-hash kernel, SQL oracle via
        # windowed string_agg grams
        return dedup.dup_span_stats(_docs(sf), n=8)

    def q_ngram_jaccard(sf):
        # exact n-gram Jaccard near-dup (the value MinHash estimates):
        # universe = shingles with df <= 50, threshold 0.5
        return dedup.ngram_jaccard_pairs(_docs(sf), n=3, threshold=0.5,
                                         min_common=3, max_df=50)

    # self-check scale guard: the non-SQL-expressible queries embed an
    # exact Python shadow (dual implementation, SURVEY.md §5) and raise
    # on mismatch — active up to this many docs (covers the driver's
    # sf0.01 correctness run; sf0.1 bench skips the quadratic shadows)
    SELF_CHECK_MAX_DOCS = 6000

    def _n_docs(sf):
        import pyarrow.parquet as pq

        return pq.read_metadata(f"{sf}/documents.parquet").num_rows

    def _doc_texts(sf):
        # called ONLY inside the SELF_CHECK_MAX_DOCS gate — reads every
        # doc's text onto the driver
        import pyarrow.parquet as pq

        t = pq.read_table(f"{sf}/documents.parquet", columns=["doc_id", "text"])
        return t["doc_id"].to_pylist(), t["text"].to_pylist()

    def q_minhash(sf):
        out = dedup.minhash_lsh_pairs(_docs(sf), jaccard_threshold=0.5)
        pdf = out.to_pandas()
        if _n_docs(sf) <= SELF_CHECK_MAX_DOCS:
            ids, texts = _doc_texts(sf)
            # shadow: every reported pair's TRUE shingle-set Jaccard must
            # be near the signature estimate, and every exact-duplicate
            # pair must be reported (est 1.0 pairs can't be missed)
            from hadoopsearchengine_ray.tokenizer import tokenize_py

            sh = {}
            for d, t in zip(ids, texts):
                toks = tokenize_py(t)
                sh[d] = {" ".join(toks[i:i + 3]) for i in range(len(toks) - 2)}
            for r in pdf.itertuples():
                a, b = sh[int(r.d1)], sh[int(r.d2)]
                true_j = len(a & b) / max(1, len(a | b))
                if abs(true_j - r.jaccard_est) > 0.25:
                    raise AssertionError(
                        f"minhash self-check: pair ({r.d1},{r.d2}) est "
                        f"{r.jaccard_est} vs true {true_j:.3f}")
            reported = set(zip(pdf.d1, pdf.d2))
            groups: dict[frozenset, list] = {}
            for d in ids:
                if sh[d]:
                    groups.setdefault(frozenset(sh[d]), []).append(d)
            for g in groups.values():
                for i, a in enumerate(g):
                    for b in g[i + 1:]:
                        lo, hi = min(a, b), max(a, b)
                        if (lo, hi) not in reported:
                            raise AssertionError(
                                f"minhash self-check: exact dup ({lo},{hi}) missed")
        return out

    def q_simhash(sf):
        out = dedup.simhash_dup_pairs(_docs(sf), max_hamming=3)
        pdf = out.to_pandas()
        if _n_docs(sf) <= SELF_CHECK_MAX_DOCS:
            ids, texts = _doc_texts(sf)
            # shadow: recompute every doc's simhash in pure Python and
            # brute-force ALL pairs — reported set must match exactly
            import hashlib as _hl

            def _sim_py(text):
                toks = {}
                from hadoopsearchengine_ray.tokenizer import tokenize_py

                for t in tokenize_py(text):
                    toks[t] = toks.get(t, 0) + 1
                acc = np.zeros(64, np.int64)
                for t, c in toks.items():
                    h = int.from_bytes(
                        _hl.blake2b(t.encode(), digest_size=8).digest(), "big")
                    for bit in range(64):
                        acc[bit] += c if (h >> bit) & 1 else -c
                v = 0
                for bit in range(64):
                    if acc[bit] > 0:
                        v |= 1 << bit
                return v & 0x7FFFFFFFFFFFFFFF

            hs = np.array([_sim_py(t) for t in texts], np.uint64)
            ids_a = np.array(ids, np.int64)
            i, j = np.triu_indices(len(ids), k=1)
            x = hs[i] ^ hs[j]
            ham = np.zeros(len(x), np.int64)
            while x.any():
                ham += (x & 1).astype(np.int64)
                x >>= np.uint64(1)
            keep = ham <= 3
            exp = {(int(min(a, b)), int(max(a, b))): int(h)
                   for a, b, h in zip(ids_a[i][keep], ids_a[j][keep], ham[keep])}
            got = {(int(r.d1), int(r.d2)): int(r.hamming)
                   for r in pdf.itertuples()}
            if got != exp:
                raise AssertionError(
                    f"simhash self-check: {len(got)} reported vs "
                    f"{len(exp)} brute-force pairs")
        return out

    def q_fingerprints(sf):
        out = text.fingerprint_table(_docs(sf))
        pdf = out.to_pandas()
        if _n_docs(sf) <= SELF_CHECK_MAX_DOCS:
            ids, texts = _doc_texts(sf)
            from hadoopsearchengine_ray.functions.text import fingerprint_py
            from hadoopsearchengine_ray.tokenizer import tokenize_py

            exp = {d: fingerprint_py(tokenize_py(t))
                   for d, t in zip(ids, texts)}
            got = dict(zip(pdf.doc_id.astype(int), pdf.fingerprint.astype(int)))
            if got != exp:
                bad = [d for d in exp if got.get(d) != exp[d]][:3]
                raise AssertionError(f"fingerprint self-check mismatch: {bad}")
        return out

    # ---- similarity over embeddings -----------------------------------
    def _emb(sf):
        return rd.read_parquet(f"{sf}/embeddings.parquet",
                               columns=["vec_id", "embedding"])

    def q_knn(sf):
        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet")
        lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                    tbl["embedding"].to_pylist())}
        qm = np.array([lut[i] for i in KNN_QUERY_IDS], dtype=np.float64)
        out = similarity.knn_cosine(_emb(sf), qm, k=10)
        out["qid"] = out["qid"].map(lambda i: KNN_QUERY_IDS[i])
        return out

    def q_filtered_knn(sf):
        # metadata-filtered vector search (the "filtered ANN" serving
        # shape): the label predicate pushes down into the parquet read
        # (row-group pruning), then the exact cosine kernel sees only
        # qualifying vectors — no post-hoc rank surgery
        import pyarrow.dataset as pads
        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet")
        lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                    tbl["embedding"].to_pylist())}
        qm = np.array([lut[i] for i in KNN_QUERY_IDS], dtype=np.float64)
        emb = rd.read_parquet(f"{sf}/embeddings.parquet",
                              columns=["vec_id", "embedding"],
                              filter=pads.field("label") == KNN_FILTER_LABEL)
        out = similarity.knn_cosine(emb, qm, k=10)
        out["qid"] = out["qid"].map(lambda i: KNN_QUERY_IDS[i])
        return out

    def q_ivf_knn(sf):
        # IVF ANN scale path: coarse k-means quantizer + nprobe lists
        # per query; self-check = recall@10 vs the exact scan
        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet")
        lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                    tbl["embedding"].to_pylist())}
        qm = np.array([lut[i] for i in KNN_QUERY_IDS], dtype=np.float64)
        out = similarity.ivf_knn(_emb(sf), qm, k=10, nprobe=8, num_lists=16)
        exact = similarity.knn_cosine(_emb(sf), qm, k=10)
        rec = []
        for qi in range(len(KNN_QUERY_IDS)):
            g = set(out[out.qid == qi].vec_id)
            e = set(exact[exact.qid == qi].vec_id)
            rec.append(len(g & e) / max(1, len(e)))
        if np.mean(rec) < 0.9:
            raise AssertionError(f"ivf_knn self-check: recall@10 {rec}")
        out["qid"] = out["qid"].map(lambda i: KNN_QUERY_IDS[i])
        return out

    def q_ivfpq_knn(sf):
        # IVF-PQ: product-quantized codes (32x smaller scan table) +
        # ADC scan + exact re-rank of the top rerank*k candidates;
        # self-check = recall@10 vs the exact scan (PQ is a lossy
        # compressor, so the gate is 0.85 vs plain IVF's 0.9)
        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet")
        lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                    tbl["embedding"].to_pylist())}
        qm = np.array([lut[i] for i in KNN_QUERY_IDS], dtype=np.float64)
        # rerank=16: on these near-random synthetic embeddings the ADC
        # ordering is noisy (no cluster structure for PQ to exploit), so
        # the exact-rerank pool must be deeper — at 2k vectors rerank=8
        # left true neighbors outside the top-80 ADC candidates
        out = similarity.ivfpq_knn(_emb(sf), qm, k=10, nprobe=12,
                                   num_lists=16, m=8, ksub=64, rerank=16)
        exact = similarity.knn_cosine(_emb(sf), qm, k=10)
        rec = []
        for qi in range(len(KNN_QUERY_IDS)):
            g = set(out[out.qid == qi].vec_id)
            e = set(exact[exact.qid == qi].vec_id)
            rec.append(len(g & e) / max(1, len(e)))
        if np.mean(rec) < 0.85:
            raise AssertionError(f"ivfpq_knn self-check: recall@10 {rec}")
        out["qid"] = out["qid"].map(lambda i: KNN_QUERY_IDS[i])
        return out

    def q_ann_index(sf):
        # persistent IVF-PQ index: build to disk (codes hive-partitioned
        # by list_id), reopen, query with a partition-pruned read;
        # self-check = rank-identical to the unpersisted ivfpq path
        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.pipelines.ann import (
            AnnIndex,
            build_ann_index,
        )

        import shutil
        import tempfile

        # per-run tempdir: a fixed shared path would let two concurrent
        # driver runs rmtree each other's index mid-read; removed on exit
        # (a leak here left an hse_ann_index_* dir per driver run)
        idx_dir = tempfile.mkdtemp(prefix="hse_ann_index_")
        try:
            build_ann_index(f"{sf}/embeddings.parquet", idx_dir,
                            num_lists=16, m=8, ksub=64)
            tbl = pq.read_table(f"{sf}/embeddings.parquet")
            lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                        tbl["embedding"].to_pylist())}
            qm = np.array([lut[i] for i in KNN_QUERY_IDS], dtype=np.float64)
            out = AnnIndex(idx_dir).query(qm, k=10, nprobe=12, rerank=16)
            fly = similarity.ivfpq_knn(_emb(sf), qm, k=10, nprobe=12,
                                       num_lists=16, m=8, ksub=64, rerank=16)
            for qi in range(len(KNN_QUERY_IDS)):
                a = list(out[out.qid == qi].sort_values("rank").vec_id)
                b = list(fly[fly.qid == qi].sort_values("rank").vec_id)
                if a != b:
                    raise AssertionError(
                        f"ann_index self-check: persisted != on-the-fly "
                        f"for query {qi}: {a} vs {b}")
            # serving tier: the pinned-actor pool must be rank-identical
            # to the per-query-Dataset path it replaces
            from hadoopsearchengine_ray.pipelines.ann import AnnPool

            pool = AnnPool(idx_dir, num_owners=2)
            try:
                pooled = pool.query(qm, k=10, nprobe=12, rerank=16)
            finally:
                pool.shutdown()
            for qi in range(len(KNN_QUERY_IDS)):
                a = list(out[out.qid == qi].sort_values("rank").vec_id)
                b = list(pooled[pooled.qid == qi].sort_values("rank").vec_id)
                if a != b:
                    raise AssertionError(
                        f"ann_index self-check: pool != dataset path for "
                        f"query {qi}: {a} vs {b}")
        finally:
            shutil.rmtree(idx_dir, ignore_errors=True)
        out["qid"] = out["qid"].map(lambda i: KNN_QUERY_IDS[i])
        return out

    def q_mmr(sf):
        # MMR diversified retrieval (lam=0.7): distributed exact top-k'
        # then bounded greedy selection; self-check = independent
        # pure-Python full-scan MMR, raising on any rank mismatch
        import math

        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        lut = {v: e for v, e in zip(tbl["vec_id"].to_pylist(),
                                    tbl["embedding"].to_pylist())}
        qv = lut[KNN_QUERY_IDS[0]]
        out = similarity.mmr_topk(_emb(sf), np.asarray(qv, np.float64),
                                  k=10, k_prime=100, lam=0.7)

        if len(lut) <= 6000:  # exact shadow (active at the driver's sf runs)
            def _norm(v):
                s = math.sqrt(sum(x * x for x in v))
                return [x / s if s else 0.0 for x in v]

            nq = _norm(qv)
            nv = {i: _norm(v) for i, v in lut.items()}
            sims = {i: sum(a * b for a, b in zip(v, nq))
                    for i, v in nv.items()}
            cand = sorted(sims, key=lambda i: (-sims[i], i))[:100]
            picked = []
            while len(picked) < 10 and len(picked) < len(cand):
                best = None
                for i in cand:
                    if i in picked:
                        continue
                    pen = max((sum(a * b for a, b in zip(nv[i], nv[j]))
                               for j in picked), default=0.0)
                    key = (-(0.7 * sims[i] - 0.3 * pen), -sims[i], i)
                    if best is None or key < best[0]:
                        best = (key, i)
                picked.append(best[1])
            got = [int(x) for x in out["vec_id"]]
            if got != picked:
                raise AssertionError(
                    f"MMR shadow mismatch: ray {got} vs shadow {picked}")
        return out

    def q_emb_near_dup(sf):
        # the embeddings table has no natural near-dups (max pairwise
        # cosine ~0.51), so append 50 deterministic near-copies
        # (vec_id 10_000+i = vec i + tiny noise) to give the operator a
        # non-trivial, reproducible answer: exactly one pair per copy.
        import pyarrow.parquet as pq

        tbl = pq.read_table(f"{sf}/embeddings.parquet",
                            columns=["vec_id", "embedding"])
        m = np.asarray(tbl["embedding"].to_pylist(), dtype=np.float64)
        rng = np.random.default_rng(21)
        copies = m[:50] + rng.normal(0, 1e-3, (50, m.shape[1]))
        aug = pa.table({
            "vec_id": pa.array(
                list(tbl["vec_id"].to_pylist()) + [10_000 + i for i in range(50)],
                pa.int64()),
            "embedding": pa.array(
                list(tbl["embedding"].to_pylist()) + [r.tolist() for r in copies],
                pa.list_(pa.float32())),
        })
        out = similarity.embedding_near_dup(rd.from_arrow(aug),
                                            sim_threshold=0.98)
        pdf = out.to_pandas()
        # shadow: brute-force cosine over the augmented table — the
        # reported pair set must contain every true >=0.98 pair whose
        # members share an LSH bucket in >=1 of the 4 tables; for this
        # fixture (tight near-copies) that's ALL true pairs
        mall = np.vstack([np.asarray(tbl["embedding"].to_pylist(),
                                     np.float64).astype(np.float32).astype(np.float64),
                          copies.astype(np.float32).astype(np.float64)])
        vids = np.array(list(tbl["vec_id"].to_pylist())
                        + [10_000 + i for i in range(50)], np.int64)
        mn = mall / np.linalg.norm(mall, axis=1, keepdims=True)
        sims = mn @ mn.T
        i, j = np.triu_indices(len(vids), k=1)
        keep = sims[i, j] >= 0.98
        exp_pairs = {(int(min(a, b)), int(max(a, b)))
                     for a, b in zip(vids[i][keep], vids[j][keep])}
        got_pairs = {(int(r.d1), int(r.d2)) for r in pdf.itertuples()}
        missed = exp_pairs - got_pairs
        extra = got_pairs - exp_pairs
        if extra or len(missed) > 0.1 * max(1, len(exp_pairs)):
            raise AssertionError(
                f"embedding near-dup self-check: {len(missed)} missed / "
                f"{len(extra)} spurious of {len(exp_pairs)} true pairs")
        return out

    # ---- relational primitives (TPC-H-ish tables) ---------------------
    def q_key_occurrence(sf):
        ds = rd.read_parquet(f"{sf}/orders.parquet", columns=["o_custkey"])
        return rel.key_occurrence(ds, "o_custkey", alias="n")

    def q_revenue(sf):
        ds = rd.read_parquet(
            f"{sf}/lineitem.parquet",
            columns=["l_returnflag", "l_extendedprice", "l_discount"])

        def _rev(b: pa.Table) -> pa.Table:
            rev = pc.multiply(b["l_extendedprice"],
                              pc.subtract(pa.scalar(1.0), b["l_discount"]))
            return pa.table({"l_returnflag": b["l_returnflag"], "rev": rev})

        agg = rel.key_weight(
            ds.map_batches(_rev, batch_format="pyarrow", zero_copy_batch=True),
            "l_returnflag", "rev", alias="revenue")

        def _round(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("revenue"), "revenue",
                pc.round(b["revenue"], 2))

        return agg.map_batches(_round, batch_format="pyarrow")

    def q_annotate(sf):
        ds = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_orderkey", "o_custkey"])
        return rel.annotate_key_count(ds, "o_custkey", alias="cust_orders")

    def q_merge_set(sf):
        ds = rd.read_parquet(f"{sf}/lineitem.parquet",
                             columns=["l_orderkey", "l_partkey"])
        return rel.merge_set(ds, "l_orderkey", "l_partkey", alias="partkeys")

    def q_cnr_join(sf):
        import pyarrow.parquet as pq

        cust = rd.read_parquet(f"{sf}/customer.parquet",
                               columns=["c_nationkey", "c_acctbal"])
        nation = pq.read_table(f"{sf}/nation.parquet").to_pandas()
        region = pq.read_table(f"{sf}/region.parquet").to_pandas()
        dim = nation.merge(region, left_on="n_regionkey",
                           right_on="r_regionkey")[["n_nationkey", "n_name", "r_name"]]
        dim = dim.rename(columns={"n_nationkey": "c_nationkey"})
        joined = rel.broadcast_join(cust, dim, on="c_nationkey")
        from ray.data.aggregate import Count, Sum

        agg = joined.groupby(["r_name", "n_name"]).aggregate(
            Count(alias_name="customers"), Sum("c_acctbal", alias_name="acctbal"))

        def _round(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("acctbal"), "acctbal",
                pc.round(b["acctbal"], 2))

        return agg.map_batches(_round, batch_format="pyarrow")

    def q_big_join(sf):
        # large x large shuffle join (J1, ExternalHashMap): both sides
        # fact tables — exercises hash_join's co-partitioned path
        # explicitly (no broadcast)
        li = rd.read_parquet(f"{sf}/lineitem.parquet",
                             columns=["l_orderkey", "l_partkey", "l_linenumber"])
        od = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_orderkey", "o_custkey", "o_totalprice"])

        def _key(b: pa.Table) -> pa.Table:
            return pa.table({
                "l_orderkey": b["o_orderkey"],
                "o_custkey": b["o_custkey"],
                "o_totalprice": b["o_totalprice"],
            })

        od = od.map_batches(_key, batch_format="pyarrow", zero_copy_batch=True)
        return rel.hash_join(li, od, on="l_orderkey")

    def q_left_join_orders(sf):
        # LEFT OUTER join through the co-partitioned hash_join: every
        # customer survives (customers with no high-value order get
        # NULL right rows), then a per-customer count of NON-NULL
        # orderkeys — 0 for the unmatched, exactly SQL's
        # count(o_orderkey).  The right side is filtered to high-value
        # orders so most customers genuinely take the unmatched branch.
        from ray.data.aggregate import Sum

        cust = rd.read_parquet(f"{sf}/customer.parquet",
                               columns=["c_custkey"])
        od = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_custkey", "o_orderkey",
                                      "o_totalprice"])

        def _key(b: pa.Table) -> pa.Table:
            b = b.filter(pc.greater(b["o_totalprice"], 400000.0))
            return pa.table({"c_custkey": b["o_custkey"],
                             "o_orderkey": b["o_orderkey"]})

        od = od.map_batches(_key, batch_format="pyarrow",
                            zero_copy_batch=True)
        j = rel.hash_join(cust, od, on="c_custkey", how="left")

        def _partial(b: pa.Table) -> pa.Table:
            keys = b["c_custkey"].to_numpy(zero_copy_only=False)
            ok = pc.is_valid(b["o_orderkey"]).to_numpy(zero_copy_only=False)
            uk, inv = np.unique(keys, return_inverse=True)
            cnt = np.bincount(inv, weights=ok.astype(np.float64),
                              minlength=len(uk)).astype(np.int64)
            return pa.table({"c_custkey": pa.array(uk, pa.int64()),
                             "n_orders": pa.array(cnt, pa.int64())})

        out = (j.map_batches(_partial, batch_format="pyarrow",
                             batch_size=None)
               .groupby("c_custkey")
               .aggregate(Sum("n_orders", alias_name="n_orders"))
               .sort("c_custkey"))

        def _cast(b: pa.Table) -> pa.Table:
            return pa.table({"c_custkey": b["c_custkey"],
                             "n_orders": b["n_orders"].cast(pa.int64())})

        return out.map_batches(_cast, batch_format="pyarrow",
                               batch_size=None)

    def q_topk_orders(sf):
        ds = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_orderkey", "o_custkey", "o_totalprice"])
        return rel.top_k(ds, ["o_totalprice", "o_orderkey"],
                         descending=[True, False], k=20)

    def q_events_hourly(sf):
        ds = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_type", "ts", "value"])

        def _hour(b: pa.Table) -> pa.Table:
            us = b["ts"].cast(pa.int64())
            hour = pc.multiply(pc.divide(us, 3_600_000_000), 3600)
            return pa.table({"event_type": b["event_type"],
                             "hour_epoch": hour.cast(pa.int64()),
                             "value": b["value"]})

        from ray.data.aggregate import Count, Sum

        agg = (ds.map_batches(_hour, batch_format="pyarrow", zero_copy_batch=True)
               .groupby(["event_type", "hour_epoch"])
               .aggregate(Count(alias_name="n"), Sum("value", alias_name="total")))

        def _round(b: pa.Table) -> pa.Table:
            return b.set_column(
                b.schema.get_field_index("total"), "total",
                pc.round(b["total"], 2))

        return agg.map_batches(_round, batch_format="pyarrow")

    def q_hopping_window(sf):
        # event-time hopping window (1h windows every 30min): each event
        # belongs to 2 windows — the streaming-window analog the
        # reference lacks (batch contract, SURVEY §2.10)
        ds = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_type", "ts", "value"])
        return rel.hopping_window_agg(ds, "ts", "event_type", "value",
                                      size_s=3600, hop_s=1800)

    def q_sessionize(sf):
        ds = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_id", "user_id", "ts"])
        out = rel.sessionize(ds, "user_id", "ts", gap_seconds=1800,
                             tiebreak="event_id")

        def _shape(b: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": b["event_id"],
                "user_id": b["user_id"],
                "session_id": b["session_id"].cast(pa.int64()),
            })

        return out.map_batches(_shape, batch_format="pyarrow", batch_size=None)

    def q_range_join(sf):
        # attribution-window range join: every non-purchase event inside
        # the 2h window opened by a purchase of the SAME user
        import pyarrow.compute as pc

        ev = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_id", "user_id", "ts",
                                      "event_type"])

        def _points(b: pa.Table) -> pa.Table:
            b = b.filter(pc.not_equal(b["event_type"], "purchase"))
            return pa.table({
                "event_id": b["event_id"].cast(pa.int64()),
                "user_id": b["user_id"].cast(pa.int64()),
                "ts": b["ts"],
            })

        def _intervals(b: pa.Table) -> pa.Table:
            b = b.filter(pc.equal(b["event_type"], "purchase"))
            s = b["ts"].cast(pa.timestamp("us")).cast(pa.int64())
            e = pc.add(s, pa.scalar(2 * 3600 * 1_000_000, pa.int64()))
            return pa.table({
                "purchase_id": b["event_id"].cast(pa.int64()),
                "user_id": b["user_id"].cast(pa.int64()),
                "w_start": s.cast(pa.timestamp("us")),
                "w_end": e.cast(pa.timestamp("us")),
            })

        pts = ev.map_batches(_points, batch_format="pyarrow",
                             batch_size=None)
        ivs = ev.map_batches(_intervals, batch_format="pyarrow",
                             batch_size=None)
        out = rel.range_join(pts, ivs, on="ts", start_col="w_start",
                             end_col="w_end", by="user_id")

        def _shape(b: pa.Table) -> pa.Table:
            return pa.table({
                "event_id": b["event_id"].cast(pa.int64()),
                "purchase_id": b["purchase_id"].cast(pa.int64()),
            })

        return out.map_batches(_shape, batch_format="pyarrow",
                               batch_size=None)

    def q_asof_signup(sf):
        ev = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["event_id", "user_id", "ts"])
        sg = rd.read_parquet(f"{sf}/events.parquet",
                             columns=["user_id", "ts", "event_type"])

        def _signups(b: pa.Table) -> pa.Table:
            m = pc.equal(b["event_type"], "signup")
            f = b.filter(m)
            return pa.table({
                "user_id": f["user_id"],
                "ts": f["ts"],
                "signup_us": f["ts"].cast(pa.int64()),
            })

        right = sg.map_batches(_signups, batch_format="pyarrow", batch_size=None)
        joined = rel.asof_join(ev, right, by="user_id", on="ts",
                               value_cols=["signup_us"])

        def _shape(b: pd.DataFrame) -> pd.DataFrame:
            import pandas as _pd

            return _pd.DataFrame({
                "event_id": b["event_id"].astype("int64"),
                "user_id": b["user_id"].astype("int64"),
                "last_signup_us": _pd.to_numeric(b["signup_us"], errors="coerce")
                                  .fillna(-1).astype("int64"),
            })

        import pandas as pd

        return joined.map_batches(_shape, batch_format="pandas", batch_size=None)

    def q_top3_orders_per_cust(sf):
        ds = rd.read_parquet(f"{sf}/orders.parquet",
                             columns=["o_orderkey", "o_custkey", "o_totalprice"])
        return rel.top_k_per_group(ds, "o_custkey", "o_totalprice", 3)

    # ---- graph (rows-only: iterative, not SQL-expressible) ------------
    def q_pagerank(sf):
        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.corpus import links_table

        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        lt = links_table(n)
        out = pagerank_dataset(rd.from_arrow(lt), n)
        # shadow: single-process numpy PulseRank must match exactly
        from hadoopsearchengine_ray.oracle import pagerank_oracle

        exp = pagerank_oracle(lt["src"].to_numpy(), lt["dst"].to_numpy(),
                              lt["weight"].to_numpy(), n)
        got = out.to_pandas().sort_values("doc_id")["pr_score"].to_numpy()
        if not np.allclose(got, exp, rtol=1e-9, atol=1e-12):
            raise AssertionError(
                f"pagerank self-check: max abs diff {np.abs(got - exp).max()}")
        return out

    def q_expected_reward(sf):
        # hierarchy-derived ranking (ExpectedReward-lite): BM25 + a
        # cluster-authority prior (per-cluster mean PulseRank attributed
        # back to members) blended over the candidate set.  Embedded
        # exact shadow: numpy PulseRank + OracleIndex BM25 + the same
        # deterministic hierarchy labels must reproduce the ranking.
        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.corpus import links_table
        from hadoopsearchengine_ray.functions.search import index_for
        from hadoopsearchengine_ray.pipelines.query import BM25Scorer
        from hadoopsearchengine_ray.pipelines.wavepass import expected_reward

        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        lt = links_table(n)
        er, pr, label = expected_reward(rd.from_arrow(lt), n)
        prior = 0.3 * pr + 0.3 * er
        idx = index_for(f"{sf}/documents.parquet")
        d, s = BM25Scorer(idx).score_with_prior(BM25_TERMS, 10, prior)

        if n <= 6000:  # exact shadow (active at the driver's sf runs)
            from hadoopsearchengine_ray.oracle import (
                OracleIndex,
                pagerank_oracle,
            )

            exp_pr = pagerank_oracle(lt["src"].to_numpy(), lt["dst"].to_numpy(),
                                     lt["weight"].to_numpy(), n)
            if not np.allclose(exp_pr, pr, rtol=1e-9, atol=1e-12):
                raise AssertionError("expected_reward: pagerank mismatch")
            sizes = np.bincount(label)
            mass = np.bincount(label, weights=exp_pr)
            exp_er = (mass / np.maximum(sizes, 1))[label]
            if not np.allclose(exp_er, er, rtol=1e-9, atol=1e-12):
                raise AssertionError("expected_reward: cluster mass mismatch")
            tbl = pq.read_table(f"{sf}/documents.parquet",
                                columns=["doc_id", "text"])
            oi = OracleIndex(list(zip(tbl["doc_id"].to_pylist(),
                                      tbl["text"].to_pylist())))
            import math

            sc: dict[int, float] = {}
            for t in sorted(set(BM25_TERMS)):
                pl = oi.postings.get(t)
                if not pl:
                    continue
                w = oi.idf(t)
                for did, tf in pl:
                    dl = oi.doclen[did]
                    sc[did] = sc.get(did, 0.0) + w * tf * 2.2 / (
                        tf + 1.2 * (0.25 + 0.75 * dl / oi.avgdl))
            blended = {did: v + 0.3 * exp_pr[did] + 0.3 * exp_er[did]
                       for did, v in sc.items()}
            exp_rank = sorted(blended.items(),
                              key=lambda kv: (-kv[1], kv[0]))[:10]
            if [int(x) for x in d] != [did for did, _ in exp_rank]:
                raise AssertionError("expected_reward: blended rank mismatch")
        return pd.DataFrame({
            "rank": pd.array(range(1, len(d) + 1), dtype="int64"),
            "doc_id": pd.array([int(x) for x in d], dtype="int64"),
        })

    def q_wavepass(sf):
        import pyarrow.parquet as pq

        from hadoopsearchengine_ray.corpus import links_table
        from hadoopsearchengine_ray.pipelines.wavepass import wavepass

        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        lt = links_table(n)
        labels = wavepass(rd.from_arrow(lt), n)
        # shadow: single-process label propagation must agree
        from hadoopsearchengine_ray.pipelines.wavepass import wavepass_oracle

        exp = wavepass_oracle(lt["src"].to_numpy(), lt["dst"].to_numpy(),
                              lt["weight"].to_numpy(), n)
        if not (labels == exp).all():
            raise AssertionError(
                f"wavepass self-check: {(labels != exp).sum()} label diffs")
        return pd.DataFrame({
            "doc_id": pd.array(range(n), dtype="int64"),
            "cluster": pd.array(labels, dtype="int64"),
        })

    def q_dedup_clusters(sf):
        import pyarrow.parquet as pq

        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        pairs = dedup.shingle_overlap_pairs(_docs(sf), n=3, min_common=5,
                                            max_df=50).materialize()
        labels = dedup.dedup_clusters(pairs.select_columns(["d1", "d2"]), n)
        # shadow: union-find over the same pair list must give the same
        # min-label components
        parent = list(range(n))

        def find(x):
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        pp = pairs.select_columns(["d1", "d2"]).to_pandas()
        for a, b in zip(pp.d1.astype(int), pp.d2.astype(int)):
            ra, rb = find(a), find(b)
            if ra != rb:
                parent[max(ra, rb)] = min(ra, rb)
        exp = np.array([find(i) for i in range(n)], np.int64)
        if not (labels == exp).all():
            raise AssertionError(
                f"dedup_clusters self-check: {(labels != exp).sum()} diffs")
        return pd.DataFrame({
            "doc_id": pd.array(range(n), dtype="int64"),
            "cluster": pd.array(labels, dtype="int64"),
        })

    def q_dedup_components_dist(sf):
        # the 100-TB CC path: alternating large-star/small-star rounds,
        # labels never a dense driver array; self-checked against the
        # dense pointer-jumping path
        import pyarrow.parquet as pq

        n = pq.read_metadata(f"{sf}/documents.parquet").num_rows
        pairs = dedup.shingle_overlap_pairs(_docs(sf), n=3, min_common=5,
                                            max_df=50).materialize()
        cc = dedup.connected_components(
            pairs.select_columns(["d1", "d2"])).to_pandas()
        lab = dict(zip(cc["node"].astype(int), cc["root"].astype(int)))
        dense = dedup.dedup_clusters(pairs.select_columns(["d1", "d2"]), n)
        full = np.array([lab.get(i, i) for i in range(n)], np.int64)
        if not (full == dense).all():
            raise AssertionError(
                f"distributed CC self-check: {(full != dense).sum()} diffs")
        return pd.DataFrame({
            "doc_id": pd.array(range(n), dtype="int64"),
            "cluster": pd.array(full, dtype="int64"),
        })

    # ---- multimodal plumbing (rows-only) ------------------------------
    def q_media_features(sf):
        from hadoopsearchengine_ray.functions.multimodal import (
            extract_features,
            synthetic_media,
        )

        media = rd.from_arrow(synthetic_media(200))
        return extract_features(media)

    def q_media_pipeline(sf):
        from hadoopsearchengine_ray.functions.multimodal import (
            media_pipeline,
            synthetic_media,
        )

        return media_pipeline(rd.from_arrow(synthetic_media(120)),
                              frames_per_clip=4)

    return {
    # Ordering = driver-verification priority (the driver samples a
    # PREFIX of this dict): first the queries never yet recorded in a
    # driver CORRECTNESS file (phrase3_match/phrase_pool, landed after
    # the r4 sample was drawn) plus everything new/changed this round
    # (serve daemon, casefolded regex, grep spill mode, pool-scored
    # facet paths), then the r04-checked set.
        "lm_dirichlet_topk": q_lm_dirichlet,
        "ltr_features": q_ltr_features,
        "bm25_merged_topk": q_bm25_merged,
        "phrase3_match": q_phrase3,
        "phrase_pool": q_phrase_pool,
        "cube_revenue": q_cube_revenue,
        "ntile_orders": q_ntile_orders,
        "corr_price_qty": q_corr_price_qty,
        "pivot_events": q_pivot_events,
        "bigram_logprob": q_bigram_logprob,
        "query_string_phrase": q_query_string_phrase,
        "query_string_near": q_query_string_near,
        "serve_nrt": q_serve_nrt,
        "serve_search": q_serve_search,
        "grep_regex_ci": q_grep_regex_ci,
        "grep_scan_spill": q_grep_scan_spill,
        "facet_topk_hot": q_facet_topk_hot,
        "facet_topk": q_facet_topk,
        "domain_mix": q_domain_mix,
        "ppl_bucket_filter": q_ppl_bucket,
        "search_snippets": q_search_snippets,
        "packed_shards": q_packed_shards,
        "query_string": q_query_string,
        "dup_spans": q_dup_spans,
        "ngram_jaccard": q_ngram_jaccard,
        "ivfpq_knn": q_ivfpq_knn,
        "ann_index": q_ann_index,
        "left_join_orders": q_left_join_orders,
        "range_join": q_range_join,
        "expected_reward_topk": q_expected_reward,
        "expanded_topk": q_expanded_topk,
        "bm25_pool_topk": q_bm25_pool,
        "index_stats": q_index_stats,
        "fuzzy_topk": q_fuzzy_topk,
        "hybrid_rrf": q_hybrid_rrf,
        "feedback_topk": q_feedback_topk,
        "search_after": q_search_after,
        "near_pairs": q_near_pairs,
        "near_unordered": q_near_unordered,
        "grep_substring": q_grep_substring,
        "grep_regex": q_grep_regex,
        "grep_count": q_grep_count,
        "grep_multi": q_grep_multi,
        "grep_lines": q_grep_lines,
        "grep_delta": q_grep_delta,
        "grep_after_delete": q_grep_after_delete,
        "grep_substring_ci": q_grep_substring_ci,
        "pmi_bigrams": q_pmi_bigrams,
        "filtered_knn": q_filtered_knn,
        "mmr_topk": q_mmr,
        "lang_id": q_lang_id,
        "keyword_pagerank": q_keyword_pagerank,
        "term_cf_p95": q_cf_p95,
        "stemmed_dictionary": q_stemmed_dict,
        "html_strip": q_html_strip,
        "keyword_sets": q_keyword_sets,
        "word_stats": q_word_stats,
        "association_top3": q_association_top3,
        "spell_suggest": q_spell_suggest,
        "exact_dedup": q_exact_dedup,
        "shingle_pairs": q_shingle_pairs,
        "minhash_near_dup": q_minhash,
        "simhash_near_dup": q_simhash,
        "doc_fingerprints": q_fingerprints,
        "knn_cosine": q_knn,
        "ivf_knn": q_ivf_knn,
        "embedding_near_dup": q_emb_near_dup,
        "key_occurrence": q_key_occurrence,
        "revenue_by_flag": q_revenue,
        "annotate_key_count": q_annotate,
        "merge_set_partkeys": q_merge_set,
        "cnr_join": q_cnr_join,
        "big_join": q_big_join,
        "topk_orders": q_topk_orders,
        "events_hourly": q_events_hourly,
        "hopping_window": q_hopping_window,
        "sessionize": q_sessionize,
        "asof_last_signup": q_asof_signup,
        "top3_orders_per_cust": q_top3_orders_per_cust,
        "pagerank": q_pagerank,
        "wavepass_clusters": q_wavepass,
        "dedup_clusters": q_dedup_clusters,
        "dedup_components_dist": q_dedup_components_dist,
        "media_features": q_media_features,
        "media_frame_pipeline": q_media_pipeline,
        "tokenize_tf": q_tokenize,
        "dictionary": q_dictionary,
        "stop_excluded_dictionary": q_stop_excluded_dictionary,
        "doc_lengths": q_doc_lengths,
        "bm25_topk": q_bm25,
        "phrase_match": q_phrase,
        "prox_topk": q_prox,
        "bm25_title_topk": q_bm25_title,
        "bm25f_fields": q_bm25f,
        "anchor_bm25": q_anchor_bm25,
        "bm25_delta_topk": q_bm25_delta,
        "bm25_after_delete": q_bm25_delete,
        "bm25_compacted_topk": q_bm25_compacted,
        "bm25_conjunctive_topk": q_bm25_conjunctive,
        "bm25_not_topk": q_bm25_not,
        "bm25_filtered_topk": q_bm25_filtered,
        "bm25_prefix_topk": q_bm25_prefix,
        "autocomplete": q_autocomplete,
        "more_like_this": q_more_like_this,
        "facet_counts": q_facet_counts,
        "incremental_dedup": q_incremental_dedup,
        "tfidf_features": q_tfidf,
        "clean_corpus": q_clean_corpus,
        "doc_chunks": q_chunks,
        "repetition_stats": q_repetition,
        "unigram_logprob": q_unigram_logprob,
        "pii_redact": q_pii_redact,
        "contamination": q_contamination,
        "pack_sequences": q_pack_sequences,
        "prepare_corpus": q_prepare_corpus,
        "heavy_hitters": q_heavy_hitters,
        "hll_distinct": q_hll_distinct,
        "doclen_quantiles": q_doclen_quantiles,
        "event_value_quantiles": q_event_value_quantiles,
        "bloom_semi_join": q_bloom_semi_join,
        "anti_join": q_anti_join,
        "running_revenue": q_running_revenue,
        "prev_event_value": q_prev_event_value,
        "order_rank_per_cust": q_order_rank_per_cust,
        "rollup_revenue": q_rollup_revenue,
        "user_distinct_etypes": q_user_distinct_etypes,
        "search_dedup": q_search_dedup,
        "sha256_docs": q_sha256,
        "quality_metrics": q_quality,
        "token_count": q_token_count,
        "stratified_sample": q_stratified_sample,
        "bigram_top100": q_bigrams,
    }


_CC_SQL = f"""
    WITH RECURSIVE {TOK_ORDERED_CTE},
    sh AS (
      SELECT DISTINCT a.doc_id,
             a.t || ' ' || b.t || ' ' || c.t AS shingle
      FROM toko a
      JOIN toko b ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
      JOIN toko c ON a.doc_id = c.doc_id AND c.rn = a.rn + 2
    ),
    keep AS (
      SELECT shingle FROM sh GROUP BY shingle
      HAVING count(*) BETWEEN 2 AND 50
    ),
    pairs AS (
      SELECT a.doc_id AS d1, b.doc_id AS d2
      FROM sh a JOIN keep USING (shingle)
      JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
      GROUP BY 1, 2 HAVING count(*) >= 5
    ),
    edges AS (
      SELECT d1 AS a, d2 AS b FROM pairs
      UNION ALL SELECT d2, d1 FROM pairs
    ),
    reach(node, lab) AS (
      SELECT doc_id, doc_id FROM documents
      UNION
      SELECT r.node, e2.b FROM reach r JOIN edges e2 ON e2.a = r.lab
    )
    SELECT node AS doc_id, min(lab) AS cluster FROM reach GROUP BY node
"""


def oracle_sql() -> dict[str, str]:
    from hadoopsearchengine_ray.functions.normalize import MIN_STEM, SUFFIXES
    from hadoopsearchengine_ray.functions.trainprep import (
        EMAIL_RE as PII_EMAIL_RE,
        IPV4_RE as PII_IPV4_RE,
    )

    terms_values = ",".join(f"('{t}')" for t in BM25_TERMS)
    knn_ids = ",".join(str(i) for i in KNN_QUERY_IDS)
    stem_alt = "|".join(sorted(SUFFIXES, key=len, reverse=True))
    stem_re = f"^(.{{{MIN_STEM},}}?)({stem_alt})$"
    out = {
        "tokenize_tf": f"""
            WITH {TOK_CTE}
            SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY doc_id, term
        """,
        "dictionary": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2)
            SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term
        """,
        "stop_excluded_dictionary": f"""
            WITH {TOK_CTE},
            kept AS (SELECT * FROM tok
                     WHERE term NOT IN ('spark', 'window', 'merge')),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM kept GROUP BY 1, 2)
            SELECT term, count(*) AS df, CAST(sum(tf) AS BIGINT) AS cf
            FROM tf GROUP BY term
        """,
        "doc_lengths": f"""
            WITH {TOK_CTE}
            SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id
        """,
        "bm25_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # LM-Dirichlet (Zhai & Lafferty 2001): per matched (term, doc),
        # ln(1 + tf*C/(mu*cf)) + ln(mu/(dl+mu)), mu=2000 — the formula
        # of BM25Scorer.score_lm, not its IEEE op order (DuckDB's SUM
        # order is unspecified); rank contract (-score, doc_id)
        "lm_dirichlet_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            cf AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY 1),
            stats AS (SELECT (SELECT sum(tf) FROM tf) * 1.0 AS c),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln(1.0 + tf.tf * stats.c / (2000.0 * cf.cf))
                          + ln(2000.0 / (dl.dl + 2000.0)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN cf USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # LTR feature export: integer features per doc matching >=1
        # query term; rn is the 1-based VALID-token index, matching the
        # engine's 0-based in-index positions + 1
        "ltr_features": f"""
            WITH {TOK_ORDERED_CTE},
            q(term) AS (VALUES {terms_values}),
            dl AS (SELECT doc_id, count(*) AS dl FROM toko GROUP BY 1),
            m AS (
              SELECT doc_id, t AS term, count(*) AS tf,
                     min(rn) AS mp
              FROM toko JOIN (SELECT DISTINCT term FROM q) qq
                ON toko.t = qq.term
              GROUP BY 1, 2
            )
            SELECT m.doc_id,
                   CAST(dl.dl AS BIGINT) AS dl,
                   CAST(count(*) AS BIGINT) AS n_matched,
                   CAST(sum(m.tf) AS BIGINT) AS tf_sum,
                   CAST(max(m.tf) AS BIGINT) AS tf_max,
                   CAST(min(m.mp) AS BIGINT) AS min_pos
            FROM m JOIN dl USING (doc_id)
            GROUP BY m.doc_id, dl.dl
            ORDER BY m.doc_id
        """,
        # fuzzy retrieval: the expansion set is EVERY indexed term at
        # Levenshtein distance <= 1 from a query term (DuckDB's
        # levenshtein is the same plain edit distance the engine's
        # SymSpell filter computes), scored as disjunctive BM25
        "fuzzy_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(w) AS (VALUES ('merg'), ('windoq')),
            fz AS (
              SELECT DISTINCT df.term FROM df, q
              WHERE levenshtein(df.term, q.w) <= 1
            ),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN fz USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # hybrid retrieval: lexical + vector legs fused by RRF; ranks
        # from the same BM25 CTE and list_cosine_similarity orderings
        # the bm25_topk / knn_cosine oracles already prove
        "hybrid_rrf": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            lex AS (
              SELECT doc_id,
                     CAST(row_number() OVER (ORDER BY s DESC, doc_id)
                          AS BIGINT) AS r
              FROM sc
              QUALIFY row_number() OVER (ORDER BY s DESC, doc_id) <= 10
            ),
            qv AS (SELECT embedding AS v FROM embeddings WHERE vec_id = 0),
            sims AS (
              SELECT e.vec_id AS doc_id,
                     list_cosine_similarity(e.embedding, qv.v) AS sim
              FROM embeddings e, qv
            ),
            vec AS (
              SELECT doc_id,
                     CAST(row_number() OVER (ORDER BY sim DESC, doc_id)
                          AS BIGINT) AS r
              FROM sims
              QUALIFY row_number() OVER (ORDER BY sim DESC, doc_id) <= 10
            ),
            fused AS (
              SELECT COALESCE(l.doc_id, v.doc_id) AS doc_id,
                     COALESCE(1.0 / (60 + l.r), 0)
                       + COALESCE(1.0 / (60 + v.r), 0) AS rrf
              FROM lex l FULL OUTER JOIN vec v ON l.doc_id = v.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY rrf DESC, doc_id)
                        AS BIGINT) AS rank, doc_id
            FROM fused ORDER BY rrf DESC, doc_id LIMIT 10
        """,
        # pseudo-relevance feedback: feedback set = original query's
        # BM25 top-5 (same sc CTE as bm25_topk); expansion weight =
        # sum(tf over feedback docs) * ln(idf), same IEEE op order as
        # the engine's tf x idf kernel; final pass is the weighted
        # BM25 score_expanded uses (originals 1.0, feedback 0.5)
        "feedback_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc1 AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            fb AS (
              SELECT doc_id FROM sc1
              QUALIFY row_number() OVER (ORDER BY s DESC, doc_id) <= 5
            ),
            expw AS (
              SELECT t.term,
                     sum(t.tf) * ln((stats.n - df.df + 0.5)
                                    / (df.df + 0.5) + 1.0) AS w
              FROM tf t JOIN fb USING (doc_id)
              JOIN df USING (term), stats
              WHERE t.term NOT IN (SELECT term FROM q)
              GROUP BY t.term, df.df, stats.n
            ),
            fbterms AS (
              SELECT term FROM expw
              QUALIFY row_number() OVER (ORDER BY w DESC, term) <= 3
            ),
            w AS (
              SELECT term, 1.0 AS wt FROM q
              UNION ALL
              SELECT term, 0.5 FROM fbterms
            ),
            sc AS (
              SELECT tf.doc_id,
                     sum( w.wt * ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN w USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # manifest metrics vs tokenizer ground truth (exact integers)
        "index_stats": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2)
            SELECT CAST((SELECT count(*) FROM documents) AS BIGINT)
                     AS num_docs,
                   CAST((SELECT count(DISTINCT term) FROM tf) AS BIGINT)
                     AS distinct_terms,
                   CAST((SELECT count(*) FROM tf) AS BIGINT)
                     AS term_doc_pairs,
                   CAST((SELECT sum(tf) FROM tf) AS BIGINT)
                     AS total_tokens
        """,
        # cursor pagination: page 2 of the same global ordering — the
        # engine's (score, doc_id) cursor must land exactly on the SQL
        # ranking's rows 11-20
        "search_after": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            ranked AS (
              SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id)
                          AS BIGINT) AS rank, doc_id
              FROM sc
            )
            SELECT rank, doc_id FROM ranked
            WHERE rank BETWEEN 11 AND 20 ORDER BY rank
        """,
        # NRT mutation through the daemon: ingest(last 20%) +
        # delete(doc_id % 13 == 0) + search == plain BM25 over the
        # surviving full corpus (stats shift with N/avgdl/df — a
        # results-only filter would NOT match)
        "serve_nrt": f"""
            WITH alive AS (SELECT * FROM documents WHERE doc_id % 13 != 0),
            tok AS (
              SELECT doc_id, t AS term FROM (
                SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
                FROM alive
              ) WHERE length(t) BETWEEN 2 AND 16
                AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM alive) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM alive) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # the serving daemon: two handle() pages stitched = the SQL
        # ranking's rows 1-20 (same scoring CTE, deeper window)
        "serve_search": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            ranked AS (
              SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id)
                          AS BIGINT) AS rank, doc_id
              FROM sc
            )
            SELECT rank, doc_id FROM ranked
            WHERE rank <= 20 ORDER BY rank
        """,
        # the range-pool serving tier must produce the same ranking as
        # the single reader — same oracle as bm25_topk by contract
        "bm25_pool_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "bm25_title_topk": f"""
            WITH {TOK_ORDERED_CTE},
            tf AS (SELECT doc_id, t AS term, count(*) AS tf,
                          sum(CASE WHEN rn <= 8 THEN 1 ELSE 0 END) AS tft
                   FROM toko GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * (tf.tf + 1.0 * tf.tft) * 2.2
                          / ((tf.tf + 1.0 * tf.tft)
                             + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "bm25_delta_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "bm25_after_delete": f"""
            WITH alive AS (SELECT * FROM documents WHERE doc_id % 17 != 0),
            tok AS (
              SELECT doc_id, t AS term FROM (
                SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
                FROM alive
              ) WHERE length(t) BETWEEN 2 AND 16
                AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM alive) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM alive) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # AND semantics: candidate set = docs containing every query
        # term; scores/stats unchanged from the global BM25
        "bm25_conjunctive_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            cand AS (
              SELECT tf.doc_id FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              GROUP BY tf.doc_id
              HAVING count(DISTINCT tf.term)
                     = (SELECT count(DISTINCT term) FROM q)
            ),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN cand USING (doc_id)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # NOT semantics: global BM25 CTE, docs containing the excluded
        # term dropped via NOT EXISTS (idf/avgdl stay corpus-global)
        "bm25_not_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              WHERE NOT EXISTS (SELECT 1 FROM tf x
                                WHERE x.doc_id = tf.doc_id
                                  AND x.term = 'table')
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # filter context: global BM25 CTE, metadata predicate applied at
        # the final select only (idf/avgdl stay corpus-global)
        "bm25_filtered_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, sc.doc_id) AS BIGINT) AS rank,
                   sc.doc_id
            FROM sc JOIN documents USING (doc_id)
            WHERE documents.lang = 'en'
            ORDER BY s DESC, sc.doc_id LIMIT 10
        """,
        # more-like-this: doc 7's top-5 terms by tf x BM25-idf (ties by
        # term asc), replayed through the bm25_topk scoring CTE
        "more_like_this": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q AS (
              SELECT tf.term
              FROM tf JOIN df USING (term), stats
              WHERE tf.doc_id = 7
              ORDER BY tf.tf * ln((stats.n - df.df + 0.5)
                                  / (df.df + 0.5) + 1.0) DESC, tf.term
              LIMIT 5
            ),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # grouped retrieval: top-3 per lang, same scoring CTE as
        # bm25_topk with a per-facet row_number
        "facet_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            rk AS (
              SELECT documents.lang, sc.doc_id,
                     row_number() OVER (PARTITION BY documents.lang
                                        ORDER BY s DESC, sc.doc_id) AS rank
              FROM sc JOIN documents USING (doc_id)
            )
            SELECT lang, CAST(rank AS BIGINT) AS rank, doc_id
            FROM rk WHERE rank <= 3 ORDER BY lang, rank
        """,
        # same contract on the forced BIG dispatch path (hot term 'data',
        # map-side per-facet heads): the SQL doesn't care which path ran
        "facet_topk_hot": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES ('data')),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            rk AS (
              SELECT documents.lang, sc.doc_id,
                     row_number() OVER (PARTITION BY documents.lang
                                        ORDER BY s DESC, sc.doc_id) AS rank
              FROM sc JOIN documents USING (doc_id)
            )
            SELECT lang, CAST(rank AS BIGINT) AS rank, doc_id
            FROM rk WHERE rank <= 3 ORDER BY lang, rank
        """,
        # association-expanded retrieval: 'merge' + its top-2 bigram
        # partners at 0.5x weight.  The association CTE is the SAME
        # capped/sym/dedup/ranked stack as association_top3 (one
        # definition of 'partner' across oracles); originals keep weight
        # 1.0 (max-weight dedup, never additive), matching
        # BM25Scorer.score_expanded.
        "expanded_topk": f"""
            WITH {TOK_ORDERED_CTE},
            tf AS (SELECT doc_id, t AS term, count(*) AS tf FROM toko
                   GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES ('merge')),
            big AS (
              SELECT a.t || ' ' || b.t AS bigram, a.t AS x, b.t AS y,
                     count(*) AS n
              FROM toko a JOIN toko b
                ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
              GROUP BY 1, 2, 3
            ),
            capped AS (
              SELECT * FROM big
              QUALIFY row_number() OVER (ORDER BY n DESC, bigram) <= 10000
            ),
            sym AS (
              SELECT x AS term, y AS partner, n FROM capped
              UNION ALL
              SELECT y, x, n FROM capped
            ),
            dd AS (
              SELECT term, partner, max(n) AS n FROM sym
              WHERE term <> partner GROUP BY 1, 2
            ),
            ranked AS (
              SELECT term, partner,
                     row_number() OVER (PARTITION BY term
                                        ORDER BY n DESC, partner) AS rk
              FROM dd
            ),
            exp AS (
              SELECT term, 1.0 AS wt FROM q
              UNION ALL
              SELECT DISTINCT r.partner, 0.5 FROM ranked r JOIN q USING (term)
              WHERE r.rk <= 2
                AND r.partner NOT IN (SELECT term FROM q)
            ),
            w AS (SELECT term, max(wt) AS wt FROM exp GROUP BY term),
            sc AS (
              SELECT tf.doc_id,
                     sum( w.wt * ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN w USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # prefix autocomplete: completions ranked by collection
        # frequency (cf = total occurrences), tie-broken by term
        "autocomplete": f"""
            WITH {TOK_CTE},
            c AS (SELECT term, CAST(count(*) AS BIGINT) AS cf
                  FROM tok WHERE term LIKE 'c%' GROUP BY 1)
            SELECT CAST(row_number() OVER (ORDER BY cf DESC, term) AS BIGINT)
                     AS rank, term, cf
            FROM c ORDER BY cf DESC, term LIMIT 10
        """,
        # trigram code grep: exact substring containment
        "grep_substring": """
            SELECT doc_id FROM documents
            WHERE contains(text, 'merge batch')
            ORDER BY doc_id
        """,
        # trigram regex grep: DuckDB regexp_matches is RE2, the same
        # engine the verify stage uses -> semantics agree exactly
        "grep_regex": """
            SELECT doc_id FROM documents
            WHERE regexp_matches(text, 'spark (scan|merge)')
            ORDER BY doc_id
        """,
        # grep with non-overlapping occurrence counts (replace-length
        # convention == Arrow count_substring)
        "grep_count": """
            SELECT doc_id,
                   CAST((len(text) - len(replace(text, 'merge batch', '')))
                        // len('merge batch') AS BIGINT) AS n_matches
            FROM documents
            WHERE contains(text, 'merge batch')
            ORDER BY doc_id
        """,
        # batched multi-pattern grep
        "grep_multi": """
            SELECT p.pattern, d.doc_id
            FROM documents d
            CROSS JOIN (VALUES ('spark scan'), ('merge batch'),
                               ('zz absent')) p(pattern)
            WHERE contains(d.text, p.pattern)
            ORDER BY p.pattern, d.doc_id
        """,
        # incremental grep: base+delta index == full build by contract
        "grep_delta": """
            SELECT doc_id FROM documents
            WHERE contains(text, 'merge batch')
            ORDER BY doc_id
        """,
        # grep after tombstone deletion: deleted docs never surface
        "grep_after_delete": """
            SELECT doc_id FROM documents
            WHERE contains(text, 'merge batch') AND doc_id % 7 != 0
            ORDER BY doc_id
        """,
        # line-level grep: every matching LINE with its 1-based number
        "grep_lines": """
            WITH lines AS (
              SELECT doc_id,
                     unnest(string_split(text, chr(10))) AS line,
                     generate_subscripts(string_split(text, chr(10)), 1)
                       AS line_no
              FROM documents
            )
            SELECT doc_id, CAST(line_no AS BIGINT) AS line_no, line
            FROM lines WHERE contains(line, 'merge batch')
            ORDER BY doc_id, line_no
        """,
        # case-insensitive grep (casefolded index)
        "grep_substring_ci": """
            SELECT doc_id FROM documents
            WHERE contains(lower(text), lower('MERGE Batch'))
            ORDER BY doc_id
        """,
        # case-insensitive regex (casefolded index): DuckDB regexps are
        # RE2, the same engine the verify stage runs
        "grep_regex_ci": """
            SELECT doc_id FROM documents
            WHERE regexp_matches(lower(text), 'spark (scan|merge)')
            ORDER BY doc_id
        """,
        # bounded-memory spill mode: same match set as grep_substring —
        # the engine wrote it to parquet instead of concatenating it
        "grep_scan_spill": """
            SELECT doc_id FROM documents
            WHERE contains(text, 'merge batch') ORDER BY doc_id
        """,
        # faceted counts: distinct docs matching ANY query term, per lang
        "facet_counts": f"""
            WITH {TOK_CTE},
            m AS (SELECT DISTINCT doc_id FROM tok
                  WHERE term IN ('spark', 'merge'))
            SELECT lang, CAST(count(*) AS BIGINT) AS n_docs
            FROM documents JOIN m USING (doc_id)
            GROUP BY lang ORDER BY lang
        """,
        # wildcard search: the q set is every distinct term matching a
        # prefix (the dictionary-expansion semantics), scored as plain
        # disjunctive BM25 with per-term idf
        "bm25_prefix_topk": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q AS (SELECT DISTINCT term FROM tf
                  WHERE term LIKE 'wind%' OR term LIKE 'mer%'),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN q USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # sparse TF-IDF featurization, smooth idf: tf * (ln((1+N)/(1+df)) + 1)
        "tfidf_features": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            nn AS (SELECT count(*) AS n FROM documents)
            SELECT doc_id, term,
                   round(tf * (ln((1.0 + n) / (1.0 + df)) + 1.0), 6) AS w
            FROM tf JOIN df USING (term), nn
            ORDER BY doc_id, term
        """,
        # overlapping token-window chunking (size 32, stride 16): a
        # token at 0-based pos p belongs to every window whose start
        # s ∈ range(0, n, 16) has s <= p < s + 32
        "doc_chunks": f"""
            WITH {TOK_ORDERED_CTE},
            n AS (SELECT doc_id, count(*) AS n FROM toko GROUP BY 1),
            starts AS (
              SELECT doc_id, unnest(range(0, n, 16)) AS s FROM n
            )
            SELECT t.doc_id,
                   s.s // 16 AS chunk_idx,
                   count(*) AS n_tokens,
                   md5(string_agg(t.t, ' ' ORDER BY t.rn)) AS h
            FROM toko t
            JOIN starts s ON t.doc_id = s.doc_id
             AND t.rn - 1 >= s.s AND t.rn - 1 < s.s + 32
            GROUP BY t.doc_id, s.s
            ORDER BY t.doc_id, chunk_idx
        """,
        # Gopher-style repetition signals: dup-line fraction + top
        # unigram/bigram fractions, integer cross-multiplied keep flag
        "repetition_stats": f"""
            WITH {TOK_ORDERED_CTE},
            ls AS (SELECT doc_id, unnest(string_split(text, chr(10))) AS line
                   FROM documents),
            lnz AS (SELECT doc_id, line FROM ls WHERE line <> ''),
            lstats AS (SELECT doc_id, count(*) AS n_lines,
                              count(*) - count(DISTINCT line) AS dup_lines
                       FROM lnz GROUP BY 1),
            uni AS (SELECT doc_id, t, count(*) AS c FROM toko GROUP BY 1, 2),
            ustats AS (SELECT doc_id, max(c) AS top_unigram_cnt,
                              sum(c) AS n_tokens FROM uni GROUP BY 1),
            bg AS (SELECT a.doc_id, a.t || ' ' || b.t AS bigram
                   FROM toko a
                   JOIN toko b ON b.doc_id = a.doc_id AND b.rn = a.rn + 1),
            bgc AS (SELECT doc_id, bigram, count(*) AS c FROM bg GROUP BY 1, 2),
            bstats AS (SELECT doc_id, max(c) AS top_bigram_cnt,
                              sum(c) AS n_bigrams FROM bgc GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(l.n_lines, 0) AS BIGINT) AS n_lines,
                   CAST(coalesce(l.dup_lines, 0) AS BIGINT) AS dup_lines,
                   CAST(coalesce(u.top_unigram_cnt, 0) AS BIGINT) AS top_unigram_cnt,
                   CAST(coalesce(u.n_tokens, 0) AS BIGINT) AS n_tokens,
                   CAST(coalesce(b.top_bigram_cnt, 0) AS BIGINT) AS top_bigram_cnt,
                   CAST(coalesce(b.n_bigrams, 0) AS BIGINT) AS n_bigrams,
                   CAST(CASE WHEN 10 * coalesce(l.dup_lines, 0)
                                  <= 3 * coalesce(l.n_lines, 0)
                              AND (5 * coalesce(b.top_bigram_cnt, 0)
                                       <= coalesce(b.n_bigrams, 0)
                                   OR coalesce(b.n_bigrams, 0) = 0)
                        THEN 1 ELSE 0 END AS BIGINT) AS keep
            FROM documents d
            LEFT JOIN lstats l USING (doc_id)
            LEFT JOIN ustats u USING (doc_id)
            LEFT JOIN bstats b USING (doc_id)
            ORDER BY d.doc_id
        """,
        # corpus-unigram-LM mean log-prob (deterministic perplexity proxy)
        # the parsed query front-end: QUERY_STRING's parts mirrored
        # exactly — max-merged weights, EXISTS for +window, NOT EXISTS
        # for -dup, LIKE expansion for s*
        "query_string": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            qx(term, w) AS (
              SELECT 'merge', 2.0
              UNION ALL SELECT 'window', 1.0
              UNION ALL SELECT term, 1.0 FROM df WHERE term LIKE 's%'
            ),
            q AS (SELECT term, max(w) AS w FROM qx GROUP BY 1),
            sc AS (
              SELECT tf.doc_id,
                     sum( q.w * ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN q USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              WHERE EXISTS (SELECT 1 FROM tf t2
                            WHERE t2.doc_id = tf.doc_id AND t2.term = 'window')
                AND NOT EXISTS (SELECT 1 FROM tf t3
                                WHERE t3.doc_id = tf.doc_id AND t3.term = 'dup')
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "packed_shards": f"""
            WITH {TOK_ORDERED_CTE},
            g AS (SELECT t, row_number() OVER (ORDER BY doc_id, rn) AS gp
                  FROM toko)
            SELECT CAST((gp - 1) // 256 AS BIGINT) AS seq_id,
                   CAST(count(*) AS BIGINT) AS n_tokens,
                   md5(string_agg(t, ' ' ORDER BY gp)) AS h
            FROM g GROUP BY 1
        """,
        "domain_mix": f"""
            WITH w(domain, wt) AS (VALUES {", ".join(
                f"('{d}', {w})" for d, w in DOMAIN_MIX_W.items())})
            SELECT d.doc_id, d.source
            FROM documents d JOIN w ON d.source = w.domain
            WHERE md5_number_lower(CAST(d.doc_id AS VARCHAR)) % 1000000
                  < CAST(round(wt * 1000000) AS UBIGINT)
        """,
        "ppl_bucket_filter": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            cf AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY 1),
            tot AS (SELECT CAST(sum(cf) AS DOUBLE) AS tot FROM cf),
            s AS (SELECT t.doc_id, sum(t.tf) AS n_tokens,
                         sum(t.tf * ln(c.cf / (SELECT tot FROM tot))) AS lp
                  FROM tf t JOIN cf c USING (term) GROUP BY 1),
            lp AS (SELECT d.doc_id,
                          CAST(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                          round(coalesce(s.lp / s.n_tokens, 0.0), 6) AS logprob
                   FROM documents d LEFT JOIN s USING (doc_id)),
            cuts AS (SELECT quantile_disc(logprob, 0.1) AS lo,
                            quantile_disc(logprob, 0.9) AS hi FROM lp)
            SELECT doc_id, n_tokens, logprob FROM lp, cuts
            WHERE logprob >= lo AND logprob <= hi
        """,
        "search_snippets": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id,
                   TRUE AS snippet_nonempty
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "unigram_logprob": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            cf AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY 1),
            tot AS (SELECT CAST(sum(cf) AS DOUBLE) AS tot FROM cf),
            s AS (SELECT t.doc_id, sum(t.tf) AS n_tokens,
                         sum(t.tf * ln(c.cf / (SELECT tot FROM tot))) AS lp
                  FROM tf t JOIN cf c USING (term) GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(s.n_tokens, 0) AS BIGINT) AS n_tokens,
                   round(coalesce(s.lp / s.n_tokens, 0.0), 6) AS logprob
            FROM documents d LEFT JOIN s USING (doc_id)
            ORDER BY d.doc_id
        """,
        # PII scrub over the deterministically seeded corpus; counts and
        # the redacted text itself are compared
        "pii_redact": f"""
            WITH aug AS (
              SELECT doc_id,
                     text || ' contact user' || CAST(doc_id AS VARCHAR)
                          || '@mail.example.com from 10.'
                          || CAST(doc_id % 250 AS VARCHAR) || '.0.'
                          || CAST(doc_id % 200 AS VARCHAR) || ' end' AS text
              FROM documents),
            e AS (SELECT doc_id,
                         CAST(len(regexp_extract_all(text, '{PII_EMAIL_RE}'))
                              AS BIGINT) AS n_emails,
                         regexp_replace(text, '{PII_EMAIL_RE}', '<EMAIL>',
                                        'g') AS text
                  FROM aug),
            i AS (SELECT doc_id, n_emails,
                         CAST(len(regexp_extract_all(text, '{PII_IPV4_RE}'))
                              AS BIGINT) AS n_ips,
                         regexp_replace(text, '{PII_IPV4_RE}', '<IP>',
                                        'g') AS text
                  FROM e)
            SELECT doc_id, n_emails, n_ips, text FROM i ORDER BY doc_id
        """,
        # train/test 5-gram contamination for the held-out source
        "contamination": f"""
            WITH {TOK_ORDERED_CTE},
            sh AS (
              SELECT DISTINCT t1.doc_id,
                     t1.t || ' ' || t2.t || ' ' || t3.t || ' ' || t4.t
                          || ' ' || t5.t AS sh
              FROM toko t1
              JOIN toko t2 ON t2.doc_id = t1.doc_id AND t2.rn = t1.rn + 1
              JOIN toko t3 ON t3.doc_id = t1.doc_id AND t3.rn = t1.rn + 2
              JOIN toko t4 ON t4.doc_id = t1.doc_id AND t4.rn = t1.rn + 3
              JOIN toko t5 ON t5.doc_id = t1.doc_id AND t5.rn = t1.rn + 4),
            tsh AS (SELECT s.doc_id, s.sh FROM sh s
                    JOIN documents dd ON dd.doc_id = s.doc_id
                    WHERE dd.source = 'src0'),
            trs AS (SELECT DISTINCT s.sh FROM sh s
                    JOIN documents dd ON dd.doc_id = s.doc_id
                    WHERE dd.source <> 'src0'),
            ov AS (SELECT t.doc_id, count(*) AS n_overlap
                   FROM tsh t JOIN trs USING (sh) GROUP BY 1),
            tot AS (SELECT doc_id, count(*) AS n_shingles FROM tsh GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(t.n_shingles, 0) AS BIGINT) AS n_shingles,
                   CAST(coalesce(o.n_overlap, 0) AS BIGINT) AS n_overlap,
                   CAST(CASE WHEN coalesce(t.n_shingles, 0) > 0
                              AND 5 * coalesce(o.n_overlap, 0)
                                  >= 4 * coalesce(t.n_shingles, 0)
                        THEN 1 ELSE 0 END AS BIGINT) AS contaminated
            FROM documents d
            LEFT JOIN tot t USING (doc_id)
            LEFT JOIN ov o USING (doc_id)
            WHERE d.source = 'src0'
            ORDER BY d.doc_id
        """,
        # concat-and-chunk packing spans (global prefix sum by doc_id)
        "pack_sequences": f"""
            WITH {TOK_CTE},
            cnt AS (SELECT doc_id, count(*) AS n FROM tok GROUP BY 1),
            alln AS (SELECT d.doc_id,
                            CAST(coalesce(c.n, 0) AS BIGINT) AS n_tokens
                     FROM documents d LEFT JOIN cnt c USING (doc_id)),
            pre AS (SELECT doc_id, n_tokens,
                           CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS BIGINT) AS start_tok
                    FROM alln)
            SELECT doc_id, n_tokens, start_tok,
                   CAST(start_tok // 512 AS BIGINT) AS seq_first,
                   CAST(CASE WHEN n_tokens > 0
                             THEN (start_tok + n_tokens - 1) // 512
                             ELSE start_tok // 512 END AS BIGINT) AS seq_last
            FROM pre ORDER BY doc_id
        """,
        # Space-Saving heavy hitters (exact regime: capacity >> vocab)
        "heavy_hitters": f"""
            WITH {TOK_CTE},
            c AS (SELECT term, CAST(count(*) AS BIGINT) AS cf
                  FROM tok GROUP BY term)
            SELECT term, cf FROM c
            ORDER BY cf DESC, term ASC LIMIT 30
        """,
        # exact global distinct 3-gram shingle count (the HLL estimate
        # is self-checked inside the query to within 5%)
        "hll_distinct": f"""
            WITH {TOK_ORDERED_CTE},
            sh AS (
              SELECT t1.t || ' ' || t2.t || ' ' || t3.t AS sh
              FROM toko t1
              JOIN toko t2 ON t2.doc_id = t1.doc_id AND t2.rn = t1.rn + 1
              JOIN toko t3 ON t3.doc_id = t1.doc_id AND t3.rn = t1.rn + 2)
            SELECT CAST(count(DISTINCT sh) AS BIGINT) AS n_distinct FROM sh
        """,
        # quantile sketch in the exact regime = quantile_disc parity
        # (the approx-regime rank bound is self-checked in the query)
        "doclen_quantiles": f"""
            WITH {TOK_CTE},
            dl AS (SELECT doc_id, count(*) AS dl FROM tok GROUP BY doc_id)
            SELECT CAST(quantile_disc(dl, 0.5) AS BIGINT) AS q50,
                   CAST(quantile_disc(dl, 0.9) AS BIGINT) AS q90,
                   CAST(quantile_disc(dl, 0.99) AS BIGINT) AS q99
            FROM dl
        """,
        # grouped quantile sketch, exact regime == per-key quantile_disc
        "event_value_quantiles": """
            SELECT event_type,
                   quantile_disc(value, 0.5)  AS q_0_5,
                   quantile_disc(value, 0.95) AS q_0_95
            FROM events GROUP BY event_type
        """,
        # per-key window cumsum in integer cents == SUM OVER window
        "running_revenue": """
            SELECT o_orderkey, o_custkey,
                   CAST(SUM(CAST(round(o_totalprice * 100) AS BIGINT)) OVER (
                     PARTITION BY o_custkey
                     ORDER BY o_orderdate, o_orderkey
                     ROWS UNBOUNDED PRECEDING) AS BIGINT) AS running_cents
            FROM orders
        """,
        # LAG window in integer cents, first-row null coalesced to -1
        # RANK/DENSE_RANK window per customer (DESC by order value)
        "order_rank_per_cust": """
            SELECT o_orderkey, o_custkey,
                   CAST(rank() OVER (PARTITION BY o_custkey
                                     ORDER BY o_totalprice DESC) AS BIGINT)
                     AS rnk,
                   CAST(dense_rank() OVER (PARTITION BY o_custkey
                                           ORDER BY o_totalprice DESC) AS BIGINT)
                     AS drnk
            FROM orders ORDER BY o_orderkey
        """,
        "prev_event_value": """
            SELECT event_id, user_id,
                   CAST(COALESCE(
                     LAG(CAST(round(value * 100) AS BIGINT)) OVER (
                       PARTITION BY user_id ORDER BY ts, event_id),
                     -1) AS BIGINT) AS prev_cents
            FROM events
        """,
        # rollup: finest + coarser levels + grand total, typed nulls
        "rollup_revenue": """
            SELECT l_returnflag, l_linestatus,
                   CAST(SUM(CAST(round(l_extendedprice * 100) AS BIGINT))
                        AS BIGINT) AS total_cents
            FROM lineitem
            GROUP BY ROLLUP(l_returnflag, l_linestatus)
        """,
        # exact per-key distinct count (the per-key HLL merge is
        # self-checked inside the query)
        "user_distinct_etypes": """
            SELECT user_id,
                   CAST(count(DISTINCT event_type) AS BIGINT) AS n_distinct
            FROM events GROUP BY user_id
        """,
        # co-partitioned anti-join == NOT EXISTS (customers with no
        # high-value order)
        "anti_join": """
            SELECT c_custkey, c_name FROM customer c
            WHERE NOT EXISTS (SELECT 1 FROM orders o
                              WHERE o.o_custkey = c.c_custkey
                                AND o.o_totalprice > 250000.0)
        """,
        # Bloom-pruned semi-join == plain IN semi-join (no false
        # negatives; false positives drop in the distinct-key join)
        "bloom_semi_join": """
            SELECT l_orderkey, l_linenumber, l_quantity
            FROM lineitem
            WHERE l_orderkey IN (SELECT o_orderkey FROM orders
                                 WHERE o_totalprice > 180000.0)
        """,
        # composed prep: clean gate + exact dedup keep-first + packing
        "prepare_corpus": f"""
            WITH {TOK_CTE},
            m AS (
              SELECT doc_id, count(*) AS n_tokens,
                     count(DISTINCT term) * 1.0 / count(*) AS dr,
                     sum(length(term)) * 1.0 / count(*) AS ml
              FROM tok GROUP BY doc_id
            ),
            ok AS (
              SELECT doc_id, n_tokens FROM m
              WHERE n_tokens BETWEEN 20 AND 90
                AND dr >= 0.35 AND ml >= 4.0 AND ml <= 5.2
            ),
            firsts AS (
              SELECT min(d.doc_id) AS doc_id
              FROM documents d JOIN ok USING (doc_id)
              GROUP BY sha256(d.text)
            ),
            kept AS (SELECT o.doc_id, CAST(o.n_tokens AS BIGINT) AS n_tokens
                     FROM ok o JOIN firsts USING (doc_id)),
            pre AS (SELECT doc_id, n_tokens,
                           CAST(coalesce(sum(n_tokens) OVER (ORDER BY doc_id
                                 ROWS BETWEEN UNBOUNDED PRECEDING
                                 AND 1 PRECEDING), 0) AS BIGINT) AS start_tok
                    FROM kept)
            SELECT doc_id, n_tokens, start_tok,
                   CAST(start_tok // 512 AS BIGINT) AS seq_first,
                   CAST((start_tok + n_tokens - 1) // 512 AS BIGINT) AS seq_last
            FROM pre ORDER BY doc_id
        """,
        # C4-style cleaning gate + exact dedup keep-first
        "clean_corpus": f"""
            WITH {TOK_CTE},
            m AS (
              SELECT doc_id, count(*) AS n_tokens,
                     count(DISTINCT term) * 1.0 / count(*) AS dr,
                     sum(length(term)) * 1.0 / count(*) AS ml
              FROM tok GROUP BY doc_id
            ),
            ok AS (
              SELECT doc_id FROM m
              WHERE n_tokens BETWEEN 20 AND 90
                AND dr >= 0.35 AND ml >= 4.0 AND ml <= 5.2
            )
            SELECT min(d.doc_id) AS doc_id, sha256(d.text) AS h
            FROM documents d JOIN ok USING (doc_id)
            GROUP BY sha256(d.text)
            ORDER BY doc_id
        """,
        # continual-ingestion dedup: anti-join on content hash against
        # the already-indexed corpus + first-per-hash within the batch
        "incremental_dedup": """
            WITH cut AS (SELECT (count(*) * 4) // 5 AS c,
                                count(*) AS n FROM documents),
            existing AS (
              SELECT sha256(text) AS h FROM documents, cut WHERE doc_id < c),
            incoming AS (
              SELECT doc_id + n AS doc_id, text
              FROM documents, cut WHERE doc_id < c AND doc_id % 10 = 0
              UNION ALL
              SELECT doc_id, text FROM documents, cut WHERE doc_id >= c
            ),
            inc AS (SELECT doc_id, sha256(text) AS h FROM incoming),
            firsts AS (SELECT h, min(doc_id) AS doc_id FROM inc GROUP BY h)
            SELECT doc_id, h FROM firsts
            WHERE h NOT IN (SELECT h FROM existing)
            ORDER BY doc_id
        """,
        # compaction contract: the fresh standalone index over
        # main+delta−tombstones must score exactly like BM25 over the
        # surviving corpus (same alive set as bm25_after_delete, but the
        # Ray side here is a compacted rebuild, not a tombstone reader)
        "bm25_compacted_topk": f"""
            WITH alive AS (SELECT * FROM documents WHERE doc_id % 17 != 0),
            tok AS (
              SELECT doc_id, t AS term FROM (
                SELECT doc_id, unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t
                FROM alive
              ) WHERE length(t) BETWEEN 2 AND 16
                AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
            ),
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM alive) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM alive) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "bm25f_fields": f"""
            WITH {TOK_ORDERED_CTE},
            tfb AS (SELECT doc_id, t AS term, count(*) AS tf,
                           sum(CASE WHEN rn <= 8 THEN 1 ELSE 0 END) AS tft
                    FROM toko GROUP BY 1, 2),
            nn AS (SELECT count(*) AS n FROM documents),
            lk0 AS (
              SELECT doc_id AS src, (doc_id*31+7) % (SELECT n FROM nn) AS dst
              FROM documents
              UNION ALL
              SELECT doc_id AS src, (doc_id*17+3) % (SELECT n FROM nn) AS dst
              FROM documents
            ),
            lk AS (SELECT src, dst FROM lk0 WHERE src != dst),
            title AS (SELECT doc_id AS src, t AS term FROM toko WHERE rn <= 8),
            an AS (SELECT lk.dst AS doc_id, title.term, count(*) AS atf
                   FROM title JOIN lk USING (src) GROUP BY 1, 2),
            m AS (
              SELECT coalesce(tfb.doc_id, an.doc_id) AS doc_id,
                     coalesce(tfb.term, an.term) AS term,
                     coalesce(tf, 0) AS tf, coalesce(tft, 0) AS tft,
                     coalesce(atf, 0) AS atf
              FROM tfb FULL OUTER JOIN an
                ON tfb.doc_id = an.doc_id AND tfb.term = an.term
            ),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tfb GROUP BY 1),
            adl AS (SELECT doc_id, sum(atf) AS adl FROM an GROUP BY 1),
            stats AS (
              SELECT (SELECT n FROM nn) AS n,
                     ((SELECT coalesce(sum(dl), 0) FROM dl)
                      + 1.5 * (SELECT coalesce(sum(adl), 0) FROM adl)) * 1.0
                     / (SELECT n FROM nn) AS avgdlc
            ),
            dfu AS (SELECT term, count(*) AS df FROM m GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT m.doc_id,
                 sum( ln((stats.n - dfu.df + 0.5) / (dfu.df + 0.5) + 1.0)
                      * (m.tf + 1.0*m.tft + 1.5*m.atf) * 2.2
                      / ((m.tf + 1.0*m.tft + 1.5*m.atf)
                         + 1.2 * (0.25 + 0.75
                                  * (coalesce(dl.dl, 0) + 1.5*coalesce(adl.adl, 0))
                                  / stats.avgdlc)) ) AS s
              FROM m
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN dfu USING (term)
              LEFT JOIN dl ON m.doc_id = dl.doc_id
              LEFT JOIN adl ON m.doc_id = adl.doc_id, stats
              GROUP BY m.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "search_dedup": f"""
            WITH docs2 AS (
              SELECT doc_id, text FROM documents
              UNION ALL
              SELECT doc_id + (SELECT count(*) FROM documents), text
              FROM documents
            ),
            raw AS (
              SELECT doc_id,
                     unnest(string_split_regex(lower(text), '[^a-z0-9]+')) AS t,
                     generate_subscripts(string_split_regex(lower(text), '[^a-z0-9]+'), 1) AS pos
              FROM docs2
            ),
            toko AS (
              SELECT doc_id, t, row_number() OVER (PARTITION BY doc_id ORDER BY pos) AS rn
              FROM raw
              WHERE length(t) BETWEEN 2 AND 16
                AND (NOT regexp_full_match(t, '[0-9]+') OR length(t) BETWEEN 4 AND 5)
            ),
            tf AS (SELECT doc_id, t AS term, count(*) AS tf FROM toko GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM docs2) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM docs2) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            cand AS (
              SELECT doc_id, s, row_number() OVER (ORDER BY s DESC, doc_id) AS rn0
              FROM sc ORDER BY s DESC, doc_id LIMIT 50
            ),
            seq AS (
              SELECT doc_id, string_agg(t, ' ' ORDER BY rn) AS sq
              FROM toko GROUP BY doc_id
            ),
            ded AS (
              SELECT cand.doc_id, rn0,
                     row_number() OVER (PARTITION BY sq ORDER BY rn0) AS dup_rn
              FROM cand JOIN seq USING (doc_id)
            )
            SELECT CAST(row_number() OVER (ORDER BY rn0) AS BIGINT) AS rank,
                   doc_id
            FROM ded WHERE dup_rn = 1 ORDER BY rn0 LIMIT 10
        """,
        "anchor_bm25": f"""
            WITH {TOK_ORDERED_CTE},
            title AS (SELECT doc_id AS src, t AS term FROM toko WHERE rn <= 8),
            nn AS (SELECT count(*) AS n FROM documents),
            lk AS (
              SELECT src, dst FROM (
                SELECT doc_id AS src, (doc_id*31+7) % (SELECT n FROM nn) AS dst
                FROM documents
                UNION ALL
                SELECT doc_id, (doc_id*17+3) % (SELECT n FROM nn) FROM documents
              ) WHERE src <> dst
            ),
            anchor AS (
              SELECT l.dst AS doc_id, t.term, count(*) AS tf
              FROM lk l JOIN title t ON t.src = l.src GROUP BY 1, 2
            ),
            adl AS (SELECT doc_id, sum(tf) AS dl FROM anchor GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM adl) AS n,
                     (SELECT sum(dl) FROM adl) * 1.0
                       / (SELECT count(*) FROM adl) AS avgdl
            ),
            adf AS (SELECT term, count(*) AS df FROM anchor GROUP BY 1),
            q(term) AS (VALUES {terms_values}),
            sc AS (
              SELECT a.doc_id,
                     sum( ln((stats.n - adf.df + 0.5) / (adf.df + 0.5) + 1.0)
                          * a.tf * 2.2
                          / (a.tf + 1.2 * (0.25 + 0.75 * adl.dl / stats.avgdl)) ) AS s
              FROM anchor a
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN adf USING (term)
              JOIN adl USING (doc_id), stats
              GROUP BY a.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "phrase_match": f"""
            WITH {TOK_ORDERED_CTE}
            SELECT a.doc_id, count(*) AS n
            FROM toko a JOIN toko b
              ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
            WHERE a.t = '{PHRASE[0]}' AND b.t = '{PHRASE[1]}'
            GROUP BY a.doc_id
        """,
        # pool-served phrase: same result contract as phrase_match
        "phrase_pool": f"""
            WITH {TOK_ORDERED_CTE}
            SELECT a.doc_id, count(*) AS n
            FROM toko a JOIN toko b
              ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
            WHERE a.t = '{PHRASE[0]}' AND b.t = '{PHRASE[1]}'
            GROUP BY a.doc_id
        """,
        "phrase3_match": f"""
            WITH {TOK_ORDERED_CTE}
            SELECT a.doc_id, count(*) AS n
            FROM toko a JOIN toko b
              ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
            JOIN toko c
              ON a.doc_id = c.doc_id AND c.rn = a.rn + 2
            WHERE a.t = 'slow' AND b.t = 'hash' AND c.t = 'batch'
            GROUP BY a.doc_id
        """,
        # parsed front-end with a quoted phrase: candidates = docs
        # containing the adjacent pair, minus the excluded term; the
        # phrase terms score alongside the weighted OR term
        "query_string_phrase": f"""
            WITH {TOK_CTE}, {TOK_ORDERED_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term, w) AS (VALUES ('table', 1.0), ('hash', 1.0),
                                  ('merge', 2.0)),
            ph AS (SELECT DISTINCT a.doc_id
                   FROM toko a JOIN toko b
                     ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
                   WHERE a.t = 'table' AND b.t = 'hash'),
            sc AS (
              SELECT tf.doc_id,
                     sum( q.w * ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN q USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              WHERE tf.doc_id IN (SELECT doc_id FROM ph)
                AND NOT EXISTS (SELECT 1 FROM tf t3
                                WHERE t3.doc_id = tf.doc_id AND t3.term = 'dup')
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        # NEAR predicate in the query string: unordered proximity pair
        # within slop 4 gates the candidates (rn deltas = kept-sequence
        # position deltas)
        "query_string_near": f"""
            WITH {TOK_CTE}, {TOK_ORDERED_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term, w) AS (VALUES ('spark', 1.0), ('merge', 1.0),
                                  ('window', 1.5)),
            nr AS (SELECT DISTINCT a.doc_id
                   FROM toko a JOIN toko b
                     ON a.doc_id = b.doc_id
                    AND abs(b.rn - a.rn) BETWEEN 1 AND 4
                   WHERE a.t = 'spark' AND b.t = 'merge'),
            sc AS (
              SELECT tf.doc_id,
                     sum( q.w * ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN q USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              WHERE tf.doc_id IN (SELECT doc_id FROM nr)
              GROUP BY tf.doc_id
            )
            SELECT CAST(row_number() OVER (ORDER BY s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id
            FROM sc ORDER BY s DESC, doc_id LIMIT 10
        """,
        "cube_revenue": """
            SELECT l_returnflag, l_linestatus,
                   round(sum(l_quantity), 2) AS sum_qty
            FROM lineitem GROUP BY CUBE (l_returnflag, l_linestatus)
        """,
        "ntile_orders": """
            SELECT o_orderkey, o_custkey,
                   CAST(ntile(4) OVER (
                        PARTITION BY o_custkey
                        ORDER BY o_totalprice DESC, o_orderkey) AS BIGINT)
                     AS tile
            FROM orders ORDER BY o_orderkey
        """,
        "corr_price_qty": """
            SELECT l_returnflag,
                   CAST(count(*) AS BIGINT) AS n,
                   round(corr(l_extendedprice, l_quantity), 6) AS "corr",
                   round(regr_slope(l_extendedprice, l_quantity), 6)
                     AS slope,
                   round(regr_intercept(l_extendedprice, l_quantity), 6)
                     AS intercept
            FROM lineitem GROUP BY l_returnflag
        """,
        "pivot_events": """
            SELECT user_id,
                   count(*) FILTER (event_type = 'click')    AS n_click,
                   count(*) FILTER (event_type = 'error')    AS n_error,
                   count(*) FILTER (event_type = 'purchase') AS n_purchase,
                   count(*) FILTER (event_type = 'signup')   AS n_signup,
                   count(*) FILTER (event_type = 'view')     AS n_view
            FROM events GROUP BY user_id
        """,
        # bigram conditional LM: P(b|a) = n_ab / n_head(a); every doc
        # pair exists in the corpus counts (trained on itself), so the
        # LEFT JOIN only handles docs with < 2 tokens
        "bigram_logprob": f"""
            WITH {TOK_ORDERED_CTE},
            big AS (SELECT a.doc_id, a.t AS w1, b.t AS w2
                    FROM toko a JOIN toko b
                      ON a.doc_id = b.doc_id AND b.rn = a.rn + 1),
            bc AS (SELECT w1, w2, count(*) AS n_ab FROM big GROUP BY 1, 2),
            hc AS (SELECT w1, sum(n_ab) AS n_head FROM bc GROUP BY 1),
            s AS (SELECT g.doc_id, count(*) AS n_pairs,
                         sum(ln(c.n_ab / h.n_head)) AS lp
                  FROM big g JOIN bc c USING (w1, w2) JOIN hc h USING (w1)
                  GROUP BY 1)
            SELECT d.doc_id,
                   CAST(coalesce(s.n_pairs, 0) AS BIGINT) AS n_pairs,
                   round(coalesce(s.lp / s.n_pairs, 0.0), 6) AS logprob
            FROM documents d LEFT JOIN s USING (doc_id)
            ORDER BY d.doc_id
        """,
        # NEAR predicates: pair counts over the ordered token stream —
        # rn deltas equal index position deltas (both number the KEPT
        # token sequence), so the window arithmetic matches exactly
        "near_pairs": f"""
            WITH {TOK_ORDERED_CTE}
            SELECT a.doc_id, count(*) AS n_pairs
            FROM toko a JOIN toko b
              ON a.doc_id = b.doc_id AND b.rn - a.rn BETWEEN 1 AND 4
            WHERE a.t = 'spark' AND b.t = 'merge'
            GROUP BY a.doc_id
        """,
        "near_unordered": f"""
            WITH {TOK_ORDERED_CTE}
            SELECT a.doc_id, count(*) AS n_pairs
            FROM toko a JOIN toko b
              ON a.doc_id = b.doc_id AND abs(b.rn - a.rn) BETWEEN 1 AND 3
            WHERE a.t = 'window' AND b.t = 'merge'
            GROUP BY a.doc_id
        """,
        "prox_topk": f"""
            WITH {TOK_ORDERED_CTE},
            tf AS (SELECT doc_id, t AS term, count(*) AS tf FROM toko GROUP BY 1, 2),
            dl AS (SELECT doc_id, sum(tf) AS dl FROM tf GROUP BY 1),
            stats AS (
              SELECT (SELECT count(*) FROM documents) AS n,
                     (SELECT sum(dl) FROM dl) * 1.0
                       / (SELECT count(*) FROM documents) AS avgdl
            ),
            df AS (SELECT term, count(*) AS df FROM tf GROUP BY 1),
            q(term) AS (VALUES ('{PROX_TERMS[0]}'),('{PROX_TERMS[1]}')),
            sc AS (
              SELECT tf.doc_id,
                     sum( ln((stats.n - df.df + 0.5) / (df.df + 0.5) + 1.0)
                          * tf.tf * 2.2
                          / (tf.tf + 1.2 * (0.25 + 0.75 * dl.dl / stats.avgdl)) ) AS s
              FROM tf
              JOIN (SELECT DISTINCT term FROM q) qq USING (term)
              JOIN df USING (term)
              JOIN dl USING (doc_id), stats
              GROUP BY tf.doc_id
            ),
            cand AS (
              SELECT doc_id, s FROM sc
              QUALIFY row_number() OVER (ORDER BY s DESC, doc_id) <= 50
            ),
            mw AS (
              SELECT a.doc_id, min(abs(a.rn - b.rn)) + 1 AS w
              FROM toko a JOIN toko b ON a.doc_id = b.doc_id
              WHERE a.t = '{PROX_TERMS[0]}' AND b.t = '{PROX_TERMS[1]}'
              GROUP BY a.doc_id
            ),
            m AS (
              SELECT doc_id, count(DISTINCT t) AS matched FROM toko
              WHERE t IN ('{PROX_TERMS[0]}', '{PROX_TERMS[1]}') GROUP BY 1
            )
            SELECT CAST(row_number() OVER (
                     ORDER BY matched DESC, coalesce(w, 1000000000) ASC,
                              s DESC, doc_id) AS BIGINT) AS rank,
                   doc_id,
                   CAST(matched AS BIGINT) AS matched_terms,
                   CAST(coalesce(w, -1) AS BIGINT) AS min_window
            FROM cand JOIN m USING (doc_id) LEFT JOIN mw USING (doc_id)
            ORDER BY rank LIMIT 10
        """,
        "sha256_docs": "SELECT doc_id, sha256(text) AS sha256 FROM documents",
        "quality_metrics": f"""
            WITH {TOK_CTE}
            SELECT doc_id, count(*) AS n_tokens, CAST(sum(length(term)) AS BIGINT) AS total_chars,
                   count(DISTINCT term) AS n_distinct
            FROM tok GROUP BY doc_id
        """,
        # same RE2 patterns run in Arrow count_substring_regex and
        # DuckDB regexp_extract_all — exact integer parity
        "token_count": """
            SELECT doc_id,
                   len(regexp_extract_all(text, '\\S+')) AS n_ws,
                   len(regexp_extract_all(text,
                       ' ?[a-zA-Z]+| ?[0-9]+| ?[^a-zA-Z0-9\\s]+')) AS n_bpe
            FROM documents
        """,
        "stratified_sample": """
            SELECT event_id, user_id FROM events
            QUALIFY row_number() OVER (
                PARTITION BY user_id
                ORDER BY md5_number_lower(CAST(event_id AS VARCHAR))
                         % 9223372036854775808, event_id) <= 2
        """,
        "lang_id": f"""
            WITH {TOK_CTE},
            sw(term, lang) AS (VALUES {_LANG_SW_VALUES}),
            hits AS (
              SELECT doc_id, lang, count(*) AS c
              FROM tok JOIN sw USING (term) GROUP BY doc_id, lang
            ),
            best AS (
              SELECT doc_id, lang,
                     row_number() OVER (PARTITION BY doc_id
                                        ORDER BY c DESC, lang) AS rnk
              FROM hits
            )
            SELECT d.doc_id,
                   coalesce(b.lang, 'und') AS lang_pred
            FROM documents d
            LEFT JOIN (SELECT doc_id, lang FROM best WHERE rnk = 1) b
              USING (doc_id)
        """,
        "bigram_top100": f"""
            WITH {TOK_ORDERED_CTE},
            big AS (
              SELECT a.t || ' ' || b.t AS bigram
              FROM toko a JOIN toko b
                ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
            )
            SELECT bigram, count(*) AS n FROM big
            GROUP BY bigram ORDER BY n DESC, bigram LIMIT 100
        """,
        # collocations by PMI: frame carries exact integers only; the
        # ORDER BY lift reproduces the Ray side's float bit-for-bit
        # (same IEEE op order: ((n_ab * N1) * N1) / ((N2 * n_a) * n_b))
        "pmi_bigrams": f"""
            WITH {TOK_ORDERED_CTE},
            uni AS (SELECT t AS term, count(*) AS n FROM toko GROUP BY 1),
            n1 AS (SELECT sum(n) AS v FROM uni),
            big AS (
              SELECT a.t AS ta, b.t AS tb, count(*) AS n_ab
              FROM toko a JOIN toko b
                ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
              GROUP BY 1, 2
            ),
            n2 AS (SELECT sum(n_ab) AS v FROM big),
            sc AS (
              SELECT ta || ' ' || tb AS bigram, n_ab,
                     CAST(ua.n AS BIGINT) AS n_a,
                     CAST(ub.n AS BIGINT) AS n_b,
                     (CAST(n_ab AS DOUBLE) * n1.v * n1.v)
                       / (CAST(n2.v AS DOUBLE) * ua.n * ub.n) AS lift
              FROM big
              JOIN uni ua ON big.ta = ua.term
              JOIN uni ub ON big.tb = ub.term, n1, n2
              WHERE n_ab >= 5
            )
            SELECT CAST(row_number() OVER (ORDER BY lift DESC, bigram)
                        AS BIGINT) AS rank,
                   bigram, n_ab, n_a, n_b
            FROM sc ORDER BY lift DESC, bigram LIMIT 50
        """,
        "term_cf_p95": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            d AS (SELECT term, sum(tf) AS cf FROM tf GROUP BY term)
            SELECT CAST(quantile_disc(cf, 0.95) AS BIGINT) AS cf_p95 FROM d
        """,
        "stemmed_dictionary": f"""
            WITH {TOK_CTE},
            st AS (
              SELECT doc_id,
                     regexp_replace(term, '{stem_re}', '\\1') AS stem
              FROM tok
            )
            SELECT stem, count(DISTINCT doc_id) AS df, count(*) AS cf
            FROM st GROUP BY stem
        """,
        "html_strip": """
            SELECT doc_id,
                   trim(regexp_replace(
                        regexp_replace(
                          '<html><title>doc ' || doc_id || '</title><body>'
                            || text || '</body></html>',
                          '<[^>]*>', ' ', 'g'),
                        '\\s+', ' ', 'g')) AS text
            FROM documents
        """,
        "keyword_sets": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            d AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term),
            th AS (SELECT CAST(quantile_disc(cf, 0.95) AS BIGINT) AS t FROM d)
            SELECT doc_id, term AS keyword, tf FROM (
              SELECT tf.doc_id, tf.term, tf.tf,
                     row_number() OVER (PARTITION BY tf.doc_id
                                        ORDER BY tf.tf DESC, tf.term) AS rn
              FROM tf JOIN d USING (term), th
              WHERE d.cf <= th.t
            ) WHERE rn <= 3
        """,
        "word_stats": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            d AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf FROM tf GROUP BY term)
            SELECT max(cf) AS max_cf, CAST(sum(cf) AS BIGINT) AS net_cf,
                   count(*) AS n_terms
            FROM d
        """,
        # SymSpell suggestion oracle: the deletion-index candidate set is
        # exactly "shares a 1-deletion variant (or identity)" — expressed as
        # a self-join on generated deletion variants; ranking is
        # (levenshtein, cf DESC, term), top-5, comma-joined.  Token length
        # is capped at 16 by the tokenizer, so a fixed 1..16 index series
        # stands in for a lateral generate_series (DuckDB limitation).
        "spell_suggest": f"""
            WITH {TOK_CTE},
            tf AS (SELECT doc_id, term, count(*) AS tf FROM tok GROUP BY 1, 2),
            dict AS (SELECT term, CAST(sum(tf) AS BIGINT) AS cf
                     FROM tf GROUP BY term),
            idx AS (SELECT CAST(i AS INT) AS i
                    FROM generate_series(1, 16) AS gs(i)),
            typos AS (
              SELECT typo FROM (
                SELECT DISTINCT substr(term, 1, 2) || substr(term, 4) AS typo
                FROM dict WHERE length(term) >= 5
              ) WHERE typo NOT IN (SELECT term FROM dict)
              ORDER BY typo LIMIT 20
            ),
            tdel AS (
              SELECT typo, typo AS v FROM typos
              UNION
              SELECT typo,
                     substr(typo, 1, i - 1) || substr(typo, i + 1) AS v
              FROM typos JOIN idx ON i <= length(typo)
            ),
            ddel AS (
              SELECT term, cf, term AS v FROM dict
              UNION
              SELECT term, cf,
                     substr(term, 1, i - 1) || substr(term, i + 1) AS v
              FROM dict JOIN idx ON i <= length(term)
            ),
            cand AS (
              SELECT DISTINCT t.typo, d.term, d.cf
              FROM tdel t JOIN ddel d USING (v)
            ),
            scored AS (
              SELECT typo, term, cf, levenshtein(typo, term) AS dist
              FROM cand WHERE levenshtein(typo, term) <= 2
            ),
            ranked AS (
              SELECT typo, term,
                     row_number() OVER (PARTITION BY typo
                                        ORDER BY dist, cf DESC, term) AS rn
              FROM scored
            )
            SELECT t.typo,
                   coalesce(string_agg(r.term, ',' ORDER BY r.rn), '')
                     AS suggestions
            FROM typos t LEFT JOIN ranked r ON r.typo = t.typo AND r.rn <= 5
            GROUP BY t.typo ORDER BY t.typo
        """,
        "association_top3": f"""
            WITH {TOK_ORDERED_CTE},
            big AS (
              SELECT a.t || ' ' || b.t AS bigram, a.t AS x, b.t AS y,
                     count(*) AS n
              FROM toko a JOIN toko b
                ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
              GROUP BY 1, 2, 3
            ),
            capped AS (
              SELECT * FROM big
              QUALIFY row_number() OVER (ORDER BY n DESC, bigram) <= 10000
            ),
            sym AS (
              SELECT x AS term, y AS partner, n FROM capped
              UNION ALL
              SELECT y, x, n FROM capped
            ),
            dedup AS (
              SELECT term, partner, max(n) AS n FROM sym
              WHERE term <> partner GROUP BY 1, 2
            ),
            ranked AS (
              SELECT term, partner,
                     row_number() OVER (PARTITION BY term
                                        ORDER BY n DESC, partner) AS rk
              FROM dedup
            )
            SELECT term, string_agg(partner, ',' ORDER BY rk) AS partners
            FROM ranked WHERE rk <= 3 GROUP BY term
        """,
        "exact_dedup": """
            SELECT min(doc_id) AS doc_id, count(*) AS n_dups
            FROM documents GROUP BY text
        """,
        # exact integer parity with fingerprint_table: the token hash IS
        # DuckDB's md5_number_lower, the rolling hash is HUGEINT math mod
        # 2^64, and list_* preserves token order — no float tolerance
        "doc_fingerprints": """
            SELECT doc_id,
                   CAST(list_reduce(
                     list_prepend(CAST(14695981039346656037 AS HUGEINT),
                       list_transform(
                         list_filter(
                           string_split_regex(lower(text), '[^a-z0-9]+'),
                           t -> length(t) BETWEEN 2 AND 16
                                AND (NOT regexp_full_match(t, '[0-9]+')
                                     OR length(t) BETWEEN 4 AND 5)),
                         t -> CAST(md5_number_lower(t) AS HUGEINT))),
                     (a, b) -> (a * 1099511628211 + b)
                               % CAST(18446744073709551616 AS HUGEINT)
                   ) % CAST(9223372036854775808 AS HUGEINT) AS BIGINT)
                     AS fingerprint
            FROM documents
        """,
        "shingle_pairs": f"""
            WITH {TOK_ORDERED_CTE},
            sh AS (
              SELECT DISTINCT a.doc_id,
                     a.t || ' ' || b.t || ' ' || c.t AS shingle
              FROM toko a
              JOIN toko b ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
              JOIN toko c ON a.doc_id = c.doc_id AND c.rn = a.rn + 2
            ),
            keep AS (
              SELECT shingle FROM sh GROUP BY shingle
              HAVING count(*) BETWEEN 2 AND 50
            ),
            pairs AS (
              SELECT a.doc_id AS d1, b.doc_id AS d2, count(*) AS common
              FROM sh a JOIN keep USING (shingle)
              JOIN sh b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
              GROUP BY 1, 2
            )
            SELECT d1, d2, common FROM pairs WHERE common >= 5
        """,
        # exact-substring duplication stats: distinct 8-token grams per
        # doc that occur in >= 2 docs (grams via windowed string_agg;
        # gg is distinct (doc, gram) so count(*) per gram = ndocs)
        "dup_spans": f"""
            WITH {TOK_ORDERED_CTE},
            g AS (
              SELECT doc_id,
                     string_agg(t, ' ') OVER (PARTITION BY doc_id ORDER BY rn
                       ROWS BETWEEN CURRENT ROW AND 7 FOLLOWING) AS gram,
                     rn, count(*) OVER (PARTITION BY doc_id) AS ntok
              FROM toko
            ),
            gg AS (SELECT DISTINCT doc_id, gram FROM g WHERE rn <= ntok - 7),
            nd AS (SELECT gram, count(*) AS ndocs FROM gg GROUP BY 1)
            SELECT gg.doc_id, CAST(count(*) AS BIGINT) AS dup_grams
            FROM gg JOIN nd USING (gram) WHERE nd.ndocs >= 2
            GROUP BY 1 ORDER BY 1
        """,
        # exact n-gram Jaccard: same shingle universe as shingle_pairs
        # but df-capped on BOTH the intersection and the set sizes
        # (df <= 50 including singletons); jaccard is a double division
        # of exact ints — IEEE-identical between numpy and DuckDB
        "ngram_jaccard": f"""
            WITH {TOK_ORDERED_CTE},
            sh AS (
              SELECT DISTINCT a.doc_id,
                     a.t || ' ' || b.t || ' ' || c.t AS shingle
              FROM toko a
              JOIN toko b ON a.doc_id = b.doc_id AND b.rn = a.rn + 1
              JOIN toko c ON a.doc_id = c.doc_id AND c.rn = a.rn + 2
            ),
            keep AS (
              SELECT shingle FROM sh GROUP BY shingle
              HAVING count(*) <= 50
            ),
            kpt AS (SELECT s.doc_id, s.shingle
                    FROM sh s JOIN keep USING (shingle)),
            szs AS (SELECT doc_id, count(*) AS sz FROM kpt GROUP BY doc_id),
            pairs AS (
              SELECT a.doc_id AS d1, b.doc_id AS d2, count(*) AS common
              FROM kpt a
              JOIN kpt b ON a.shingle = b.shingle AND a.doc_id < b.doc_id
              GROUP BY 1, 2
              HAVING count(*) >= 3
            )
            SELECT d1, d2,
                   common * 1.0 / (s1.sz + s2.sz - common) AS jaccard
            FROM pairs
            JOIN szs s1 ON s1.doc_id = d1
            JOIN szs s2 ON s2.doc_id = d2
            WHERE common * 1.0 / (s1.sz + s2.sz - common) >= 0.5
        """,
        # min-label connected components over the shingle-overlap pair
        # graph: transitive closure via a recursive CTE (UNION dedup
        # terminates it), then min reachable id per node.  Covers BOTH
        # the dense pointer-jumping path and the distributed
        # large-star/small-star path (identical outputs by construction).
        "dedup_clusters": _CC_SQL,
        "dedup_components_dist": _CC_SQL,
        "knn_cosine": f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings
                       WHERE vec_id IN ({knn_ids})),
            sims AS (
              SELECT q.qid, e.vec_id,
                     list_cosine_similarity(e.embedding, q.qv) AS sim
              FROM embeddings e CROSS JOIN q
            ),
            ranked AS (
              SELECT qid, vec_id,
                     row_number() OVER (PARTITION BY qid
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM sims
            )
            SELECT qid, CAST(rank AS BIGINT) AS rank, vec_id
            FROM ranked WHERE rank <= 10
        """,
        "filtered_knn": f"""
            WITH q AS (SELECT vec_id AS qid, embedding AS qv FROM embeddings
                       WHERE vec_id IN ({knn_ids})),
            sims AS (
              SELECT q.qid, e.vec_id,
                     list_cosine_similarity(e.embedding, q.qv) AS sim
              FROM embeddings e CROSS JOIN q
              WHERE e.label = {KNN_FILTER_LABEL}
            ),
            ranked AS (
              SELECT qid, vec_id,
                     row_number() OVER (PARTITION BY qid
                                        ORDER BY sim DESC, vec_id) AS rank
              FROM sims
            )
            SELECT qid, CAST(rank AS BIGINT) AS rank, vec_id
            FROM ranked WHERE rank <= 10
        """,
        # greedy MMR as a recursive CTE (round-4, closing the one
        # no_oracle row): the single-row recursive state carries the
        # picked LIST; each step appends the argmax of
        # 0.7*sim(q,d) - 0.3*max_{p in picked} cos(d,p) over the
        # remaining top-100 candidates (ties: sim DESC, vec_id) —
        # exactly functions/similarity.mmr_topk's selection rule.
        # Cosines computed in DOUBLE on both sides.
        "mmr_topk": f"""
            WITH RECURSIVE
            qv AS (SELECT CAST(embedding AS DOUBLE[]) AS v FROM embeddings
                   WHERE vec_id = {KNN_QUERY_IDS[0]}),
            cand AS (
              SELECT vec_id,
                     list_cosine_similarity(CAST(embedding AS DOUBLE[]),
                                            (SELECT v FROM qv)) AS sim,
                     CAST(embedding AS DOUBLE[]) AS v
              FROM embeddings
              ORDER BY sim DESC, vec_id
              LIMIT 100
            ),
            sel(step, picked) AS (
              SELECT 1, [(SELECT vec_id FROM cand
                          ORDER BY sim DESC, vec_id LIMIT 1)]
              UNION ALL
              SELECT step + 1,
                     list_append(picked, (
                       SELECT c.vec_id
                       FROM cand c
                       WHERE NOT list_contains(sel.picked, c.vec_id)
                       ORDER BY 0.7 * c.sim - 0.3 * (
                                  SELECT max(list_cosine_similarity(c.v, p.v))
                                  FROM cand p
                                  WHERE list_contains(sel.picked, p.vec_id))
                                DESC, c.sim DESC, c.vec_id
                       LIMIT 1))
              FROM sel WHERE step < 10
            )
            SELECT CAST(u.ord AS BIGINT) AS rank, CAST(u.vid AS BIGINT) AS vec_id
            FROM (SELECT unnest(picked) AS vid,
                         generate_subscripts(picked, 1) AS ord
                  FROM sel WHERE step = 10) u
            ORDER BY rank
        """,
        "key_occurrence": "SELECT o_custkey, count(*) AS n FROM orders GROUP BY o_custkey",
        "revenue_by_flag": """
            SELECT l_returnflag,
                   round(sum(l_extendedprice * (1 - l_discount)), 2) AS revenue
            FROM lineitem GROUP BY l_returnflag
        """,
        "annotate_key_count": """
            SELECT o_orderkey, o_custkey,
                   count(*) OVER (PARTITION BY o_custkey) AS cust_orders
            FROM orders
        """,
        "merge_set_partkeys": """
            SELECT l_orderkey,
                   string_agg(CAST(l_partkey AS VARCHAR), ',' ORDER BY l_partkey)
                     AS partkeys
            FROM lineitem GROUP BY l_orderkey
        """,
        "cnr_join": """
            SELECT r_name, n_name, count(*) AS customers,
                   round(sum(c_acctbal), 2) AS acctbal
            FROM customer
            JOIN nation ON c_nationkey = n_nationkey
            JOIN region ON n_regionkey = r_regionkey
            GROUP BY r_name, n_name
        """,
        # left outer join: order-less customers count 0 (count(col)
        # skips NULLs, matching the engine's non-null partial counts)
        "left_join_orders": """
            SELECT c_custkey, CAST(count(o_orderkey) AS BIGINT) AS n_orders
            FROM customer LEFT JOIN (
              SELECT o_custkey, o_orderkey FROM orders
              WHERE o_totalprice > 400000.0
            ) o ON c_custkey = o_custkey
            GROUP BY 1 ORDER BY 1
        """,
        "big_join": """
            SELECT l_orderkey, l_partkey, l_linenumber, o_custkey, o_totalprice
            FROM lineitem JOIN orders ON l_orderkey = o_orderkey
        """,
        "topk_orders": """
            SELECT o_orderkey, o_custkey, o_totalprice
            FROM orders ORDER BY o_totalprice DESC, o_orderkey LIMIT 20
        """,
        "events_hourly": """
            SELECT event_type,
                   CAST(epoch(date_trunc('hour', ts)) AS BIGINT) AS hour_epoch,
                   count(*) AS n, round(sum(value), 2) AS total
            FROM events GROUP BY 1, 2
        """,
        "hopping_window": """
            WITH ex AS (
              SELECT event_type, value,
                     unnest(range(
                       CAST(floor((epoch_us(ts) - 3600000000) / 1800000000) + 1 AS BIGINT),
                       CAST(floor(epoch_us(ts) / 1800000000) AS BIGINT) + 1)) AS k
              FROM events
            )
            SELECT CAST(k * 1800 AS BIGINT) AS window_start, event_type,
                   count(*) AS n, round(sum(value), 2) AS total
            FROM ex GROUP BY 1, 2
        """,
        "sessionize": """
            WITH e AS (
              SELECT event_id, user_id, ts,
                     CASE WHEN epoch_us(ts) - epoch_us(
                              lag(ts) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id)) > 1800000000
                          THEN 1 ELSE 0 END AS new_sess
              FROM events
            )
            SELECT event_id, user_id,
                   CAST(sum(new_sess) OVER (PARTITION BY user_id
                                            ORDER BY ts, event_id
                                            ROWS UNBOUNDED PRECEDING) AS BIGINT)
                     AS session_id
            FROM e
        """,
        "range_join": """
            SELECT e.event_id, p.event_id AS purchase_id
            FROM events e JOIN events p
              ON e.user_id = p.user_id AND p.event_type = 'purchase'
             AND e.ts >= p.ts AND e.ts < p.ts + INTERVAL 2 HOUR
            WHERE e.event_type <> 'purchase'
        """,
        "asof_last_signup": """
            SELECT e.event_id, e.user_id,
                   coalesce(CAST(epoch_us(s.ts) AS BIGINT), -1) AS last_signup_us
            FROM events e
            ASOF LEFT JOIN (SELECT user_id, ts FROM events
                            WHERE event_type = 'signup') s
              ON e.user_id = s.user_id AND e.ts >= s.ts
        """,
        "top3_orders_per_cust": """
            SELECT o_orderkey, o_custkey, o_totalprice FROM orders
            QUALIFY row_number() OVER (PARTITION BY o_custkey
                                       ORDER BY o_totalprice DESC, o_orderkey) <= 3
        """,
    }
    # merged shard indexes must be rank-identical to the full
    # build, so the merge query shares the BM25 oracle verbatim
    out["bm25_merged_topk"] = out["bm25_topk"]
    return out
