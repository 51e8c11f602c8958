"""BM25 top-k rank-identity vs the oracle (the north-rule gate), plus
MaxScore == exact-dense equivalence and the empty/unknown-term contract."""

import numpy as np

from hadoopsearchengine_ray import oracle
from hadoopsearchengine_ray.pipelines.query import BM25Scorer


def _gold(idx, q):
    gold = idx.bm25_topk(q["terms"], q["k"])
    return [g[0] for g in gold], [g[1] for g in gold]


def test_topk_rank_identical_to_oracle(t1_index_dir, t1_oracle):
    idx, _ = t1_oracle
    queries = oracle.make_queries(idx, 200)
    sc = BM25Scorer(t1_index_dir)
    for q in queries:
        d_ms, s_ms = sc.score_maxscore(q["terms"], q["k"])
        d_ex, s_ex = sc.score_exact(q["terms"], q["k"])
        gd, gs = _gold(idx, q)
        assert list(d_ms) == list(d_ex) == gd, q["terms"]
        assert np.allclose(s_ms, s_ex)
        assert np.allclose(s_ms, gs, atol=1e-6), q["terms"]


def test_unknown_terms_empty_result(t1_index_dir):
    sc = BM25Scorer(t1_index_dir)
    d, s = sc.score(["zzqqxxnotaterm0", "alsonotaterm"], 10)
    assert len(d) == 0 and len(s) == 0


def test_range_pool_replay(t1_index_dir, t1_oracle):
    from hadoopsearchengine_ray.pipelines.pool import RangePartitionedPool

    idx, _ = t1_oracle
    queries = oracle.make_queries(idx, 40)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=2)
    try:
        out = pool.replay(queries)
    finally:
        pool.shutdown()
    for q, (d, s) in zip(queries, out):
        gd, gs = _gold(idx, q)
        assert [int(x) for x in d] == gd, q
        assert np.allclose(s, gs, atol=1e-6)


def test_hot_term_query_uses_salted_rows(t1_index_dir, t1_oracle):
    """A query on a keyword (present in >40% of docs) must still be
    rank-identical — exercises multi-salt concatenation."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    hot = sc.rd.meta["hot_term_ids"]
    assert hot
    tid2term = {tid: t for t, (tid, _) in sc.rd._dict.items()}
    term = tid2term[int(next(iter(hot)))]
    rows = sc.rd.posting_rows(term)
    assert len(rows) > 1  # actually salted
    d, s = sc.score([term], 10)
    gd, gs = _gold(idx, {"terms": [term], "k": 10})
    assert list(d) == gd
    assert np.allclose(s, gs, atol=1e-6)


def test_conjunctive_matches_bruteforce(t1_index_dir, t1_oracle):
    """AND semantics: candidates = docs containing every term; scores
    equal the plain BM25 scores of those docs."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    for q in oracle.make_queries(idx, 60):
        terms = sorted(set(q["terms"]))
        doc_sets = [set(d for d, _ in idx.postings.get(t, ()))
                    for t in terms]
        cand = set.intersection(*doc_sets) if doc_sets else set()
        # expected: plain-BM25 scores restricted to the AND candidates
        full = {d: s for d, s in idx.bm25_topk(terms, idx.N)}
        exp = sorted(((d, full[d]) for d in cand),
                     key=lambda kv: (-kv[1], kv[0]))[:10]
        d, s = sc.score_conjunctive(terms, 10)
        assert [int(x) for x in d] == [x for x, _ in exp], terms
        assert np.allclose(s, [v for _, v in exp])


def test_filtered_matches_bruteforce(t1_index_dir, t1_oracle):
    """Filter context: candidates narrowed to allowed ids, scores keep
    GLOBAL stats (identical to the unfiltered scores of those docs)."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    allowed = np.array(sorted(d for d in idx.doclen if d % 3 == 0),
                       dtype=np.int64)
    aset = set(allowed.tolist())
    for q in oracle.make_queries(idx, 60):
        terms = q["terms"]
        full = {d: s for d, s in idx.bm25_topk(terms, idx.N)}
        exp = sorted(((d, s) for d, s in full.items() if d in aset),
                     key=lambda kv: (-kv[1], kv[0]))[:10]
        d, s = sc.score_filtered(terms, 10, allowed)
        assert [int(x) for x in d] == [x for x, _ in exp], terms
        assert np.allclose(s, [v for _, v in exp])
    # empty filter -> empty result
    d, s = sc.score_filtered(["def"], 10, np.empty(0, np.int64))
    assert len(d) == 0


def test_excluding_matches_bruteforce(t1_index_dir, t1_oracle):
    """NOT semantics: docs containing any excluded term drop from the
    candidate set; survivors keep their GLOBAL-stats BM25 scores."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    not_terms = ["return"]
    banned = set(d for d, _ in idx.postings.get("return", ()))
    for q in oracle.make_queries(idx, 60):
        terms = q["terms"]
        full = {d: s for d, s in idx.bm25_topk(terms, idx.N)}
        exp = sorted(((d, s) for d, s in full.items() if d not in banned),
                     key=lambda kv: (-kv[1], kv[0]))[:10]
        d, s = sc.score_excluding(terms, 10, not_terms)
        assert [int(x) for x in d] == [x for x, _ in exp], terms
        assert np.allclose(s, [v for _, v in exp])
    # unknown NOT term -> identical to plain exact scoring
    for q in oracle.make_queries(idx, 10):
        d1, s1 = sc.score_excluding(q["terms"], 10, ["zzzznotaterm"])
        d2, s2 = sc.score_exact(q["terms"], 10)
        assert list(d1) == list(d2) and np.allclose(s1, s2)


def test_prefix_query_matches_bruteforce(t1_index_dir, t1_oracle):
    """Wildcard expansion = all dictionary terms with the prefix;
    scores = disjunctive BM25 over the union (per-term idf)."""
    import pytest

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    for prefix in ("ret", "imp", "del"):
        exp_terms = sorted(t for t in idx.postings if t.startswith(prefix))
        assert exp_terms, prefix
        gold = idx.bm25_topk(exp_terms, 10)
        d, s = sc.score_prefix([prefix], 10)
        assert [int(x) for x in d] == [g[0] for g in gold], prefix
        assert np.allclose(s, [g[1] for g in gold])
    # unknown prefix -> empty; over-broad prefix fails loudly
    d, _ = sc.score_prefix(["zzzzqq"], 10)
    assert len(d) == 0
    with pytest.raises(ValueError, match="expands to"):
        sc.score_prefix(["r"], 10, max_expansions=1)


def test_score_expanded_weight_semantics(t1_index_dir, t1_oracle):
    """Association expansion (round-4): discount=1.0 must equal plain
    disjunctive BM25 over the union of terms + partners; discount ~ 0
    must equal the unexpanded query; a partner that IS a query term
    keeps weight 1.0 (max-weight dedup)."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    vocab = sorted(idx.postings)
    terms = [vocab[3]]
    assoc = {terms[0]: [vocab[7], vocab[11]]}
    # discount=1.0 == exact over the expanded union
    d1, s1 = sc.score_expanded(terms, 10, assoc, discount=1.0, per_term=2)
    d2, s2 = sc.score_exact(sorted({terms[0], vocab[7], vocab[11]}), 10)
    assert list(d1) == list(d2) and np.allclose(s1, s2)
    # discount=0.0 == the unexpanded query (partners contribute nothing)
    d3, s3 = sc.score_expanded(terms, 10, assoc, discount=0.0, per_term=2)
    d4, s4 = sc.score_exact(terms, 10)
    assert list(d3) == list(d4) and np.allclose(s3, s4)
    # a partner that is already a query term stays at weight 1.0
    assoc_self = {terms[0]: [terms[0]]}
    d5, s5 = sc.score_expanded(terms, 10, assoc_self, discount=0.5)
    assert list(d5) == list(d4) and np.allclose(s5, s4)
    # per_term slices the partner list
    d6, s6 = sc.score_expanded(terms, 10, assoc, discount=1.0, per_term=1)
    d7, s7 = sc.score_exact(sorted({terms[0], vocab[7]}), 10)
    assert list(d6) == list(d7) and np.allclose(s6, s7)


def test_parse_query_syntax():
    import pytest

    from hadoopsearchengine_ray.pipelines.query import parse_query

    p = parse_query("Merge^2 +window -dup s* cu*^1.5 merge")
    assert p["weights"] == {"merge": 2.0, "window": 1.0}  # max-merged
    assert p["required"] == ["window"]
    assert p["excluded"] == ["dup"]
    assert p["prefixes"] == [("s", 1.0), ("cu", 1.5)]
    with pytest.raises(ValueError, match="weight"):
        parse_query("term^0")
    with pytest.raises(ValueError, match="weight"):
        parse_query("term^abc")
    with pytest.raises(ValueError, match="bare"):
        parse_query("*")
    with pytest.raises(ValueError, match="required/excluded"):
        parse_query("+pre*")


def test_score_query_composed_matches_bruteforce(t1_index_dir, t1_oracle):
    """The one-call parsed front-end: weighted OR + required +
    excluded + wildcard in a single pass, shadow-checked per doc."""
    import math

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    # real corpus terms: ret* expands, 'return' required, 'import'
    # weighted 2x, 'class' excluded
    qstr = "import^2 +return -class ret*"
    exp_terms = {t: 1.0 for t in idx.postings if t.startswith("ret")}
    weights = dict(exp_terms)
    weights["import"] = max(weights.get("import", 0.0), 2.0)
    weights["return"] = max(weights.get("return", 0.0), 1.0)
    required = {d for d, _ in idx.postings["return"]}
    banned = {d for d, _ in idx.postings.get("class", ())}
    scores: dict[int, float] = {}
    for t, w in weights.items():
        idf = idx.idf(t)
        for doc_id, tf in idx.postings.get(t, ()):
            if doc_id not in required or doc_id in banned:
                continue
            dl = idx.doclen[doc_id]
            scores[doc_id] = scores.get(doc_id, 0.0) + (
                w * idf * tf * 2.2 / (tf + 1.2 * (0.25 + 0.75 * dl / idx.avgdl)))
    exp = sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:10]
    d, s = sc.score_query(qstr, 10)
    assert [int(x) for x in d] == [x for x, _ in exp]
    assert np.allclose(s, [v for _, v in exp])

    # required term absent from the corpus -> empty
    d, _ = sc.score_query("import +zzzznotaterm", 10)
    assert len(d) == 0
    # a term both required and excluded -> empty
    d, _ = sc.score_query("+return -return import", 10)
    assert len(d) == 0


def test_search_after_pages_partition_global_order(t1_index_dir, t1_oracle):
    """Cursor pages must tile the global (score desc, doc_id) order
    exactly — no skips, no duplicates — including across score-tie
    boundaries (the corpus has duplicate-content docs with identical
    scores) and past the end of the result set."""
    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    for q in oracle.make_queries(idx, 40):
        terms = q["terms"]
        full_d, full_s = sc.score_exact(terms, 10**9)
        page, cursor = 0, None
        got_d, got_s = [], []
        while True:
            if cursor is None:
                d, s = sc.score_exact(terms, 7)
            else:
                d, s = sc.score_after(terms, 7, cursor[0], cursor[1])
            got_d.extend(int(x) for x in d)
            got_s.extend(float(x) for x in s)
            page += 1
            if len(d) < 7 or page > 40:
                break
            cursor = (float(s[-1]), int(d[-1]))
        assert got_d == [int(x) for x in full_d], terms
        assert np.allclose(got_s, full_s)
        # past-the-end cursor yields an empty page
        if len(full_d):
            d, s = sc.score_after(terms, 7, float(full_s[-1]),
                                  int(full_d[-1]))
            assert len(d) == 0


def test_feedback_topk_matches_bruteforce(tmp_path, ray_session,
                                          monkeypatch):
    """Rocchio PRF end-to-end vs a pure-Python recompute over the
    oracle: same feedback set, same tf x idf expansion pick (ties by
    term), same weighted rescoring — and the expansion must actually
    re-rank (non-trivial fixture)."""
    import collections

    import pyarrow as pa
    import pyarrow.parquet as pq

    from hadoopsearchengine_ray import corpus as hcorpus
    from hadoopsearchengine_ray.functions import search
    from hadoopsearchengine_ray.oracle import OracleIndex, tokenize_py
    from hadoopsearchengine_ray.oracle import B, K1

    monkeypatch.setattr(search, "CACHE_ROOT", str(tmp_path / "cache"))
    n = 200
    tbl = hcorpus.gen_rows(np.arange(n))
    src = str(tmp_path / "docs.parquet")
    pq.write_table(pa.table({
        "doc_id": pa.array(np.arange(n, dtype=np.int64)),
        "text": tbl["content"],
    }), src)
    texts = {i: tbl["content"][i].as_py() for i in range(n)}
    idx = OracleIndex(sorted(texts.items()))

    qterms = sorted(idx.postings)[3:5]
    FB_DOCS, FB_TERMS, FB_W, K = 5, 3, 0.5, 10
    out = search.feedback_topk(src, qterms, k=K, fb_docs=FB_DOCS,
                               fb_terms=FB_TERMS, fb_weight=FB_W)

    # brute force
    fb_ids = [d for d, _ in idx.bm25_topk(qterms, FB_DOCS)]
    pooled = collections.Counter(
        t for d in fb_ids for t in tokenize_py(texts[d]))
    cand = sorted(((-(c * idx.idf(t)), t) for t, c in pooled.items()
                   if t not in set(qterms) and idx.idf(t) > 0))
    exp = [t for _, t in cand[:FB_TERMS]]
    weights = {t: 1.0 for t in qterms} | {t: FB_W for t in exp}
    scores: dict[int, float] = {}
    for t in sorted(weights):
        for doc, tf in idx.postings.get(t, []):
            dl = idx.doclen[doc]
            s = weights[t] * idx.idf(t) * (tf * (K1 + 1.0)) \
                / (tf + K1 * (1.0 - B + B * dl / idx.avgdl))
            scores[doc] = scores.get(doc, 0.0) + s
    want = [d for d, _ in sorted(scores.items(),
                                 key=lambda kv: (-kv[1], kv[0]))[:K]]
    assert out["doc_id"].tolist() == want
    assert out["rank"].tolist() == list(range(1, len(want) + 1))
    # the feedback must have re-ranked relative to the plain query
    plain = [d for d, _ in idx.bm25_topk(qterms, K)]
    assert exp and want != plain


def test_parse_query_phrases_and_near():
    from hadoopsearchengine_ray.pipelines.query import parse_query

    p = parse_query('"big hash table"^2 near(a,b,3) onear(x,y,5) -dup w*')
    assert p["phrases"] == [["big", "hash", "table"]]
    assert p["weights"]["big"] == p["weights"]["hash"] == 2.0
    assert p["nears"] == [("a", "b", 3, False), ("x", "y", 5, True)]
    assert p["weights"]["a"] == p["weights"]["b"] == 1.0
    assert p["excluded"] == ["dup"]
    assert p["prefixes"] == [("w", 1.0)]
    # one-term phrase degenerates to a required term
    p1 = parse_query('"solo" other')
    assert p1["required"] == ["solo"] and p1["phrases"] == []
    import pytest as _pt
    with _pt.raises(ValueError, match="required"):
        parse_query('-"a b"')
    with _pt.raises(ValueError, match="empty"):
        parse_query('""')
    with _pt.raises(ValueError, match="unbalanced"):
        parse_query('"a b')
    with _pt.raises(ValueError, match="slop"):
        parse_query("near(a,b,0)")


def _near_docs_brute(idx, a, b, slop, ordered):
    out = set()
    pa, pb = idx.positions.get(a, {}), idx.positions.get(b, {})
    for d in set(pa) & set(pb):
        for x in pa[d]:
            for y in pb[d]:
                delta = y - x
                if (1 <= delta <= slop) or (
                        not ordered and 1 <= -delta <= slop):
                    out.add(d)
                    break
            if d in out:
                break
    return out


def _brute_filtered_topk(idx, weights, cand, k=10):
    scores = {}
    for t, w in weights.items():
        idf = idx.idf(t)
        for doc_id, tf in idx.postings.get(t, ()):
            if doc_id not in cand:
                continue
            dl = idx.doclen[doc_id]
            scores[doc_id] = scores.get(doc_id, 0.0) + (
                w * idf * tf * 2.2
                / (tf + 1.2 * (0.25 + 0.75 * dl / idx.avgdl)))
    return sorted(scores.items(), key=lambda kv: (-kv[1], kv[0]))[:k]


def test_score_query_phrase_composed(t1_index_dir, t1_oracle):
    """Quoted phrase = positional required set; its terms still score
    (shadow-checked per doc against the oracle positions)."""
    from hadoopsearchengine_ray import corpus, oracle as om

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    tbl = corpus.gen_rows(np.arange(2))
    toks = om.tokenize_py(tbl["content"][0].as_py())
    ph = [toks[3], toks[4]]
    qstr = f'"{ph[0]} {ph[1]}" import^2'
    ph_docs = set(idx.phrase_counts(ph))
    assert ph_docs, "fixture pair must occur somewhere"
    weights = {}
    for t in ph:
        weights[t] = max(weights.get(t, 0.0), 1.0)
    weights["import"] = max(weights.get("import", 0.0), 2.0)
    exp = _brute_filtered_topk(idx, weights, ph_docs)
    d, s = sc.score_query(qstr, 10)
    assert [int(x) for x in d] == [x for x, _ in exp]
    assert np.allclose(s, [v for _, v in exp])


def test_score_query_near_composed(t1_index_dir, t1_oracle):
    from hadoopsearchengine_ray import corpus, oracle as om

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    tbl = corpus.gen_rows(np.arange(2))
    toks = om.tokenize_py(tbl["content"][0].as_py())
    # positions 0 and 2 of doc 0: delta 2, inside both slops — the
    # brute candidate set can never be empty (no silent skip)
    a, b = toks[0], toks[2]
    for slop, ordered, fn in ((3, False, "near"), (5, True, "onear")):
        cand = _near_docs_brute(idx, a, b, slop, ordered)
        assert cand, (fn, slop)
        weights = {a: 1.0, b: 1.0}
        weights["return"] = max(weights.get("return", 0.0), 1.5)
        exp = _brute_filtered_topk(idx, weights, cand)
        d, s = sc.score_query(f"{fn}({a},{b},{slop}) return^1.5", 10)
        assert [int(x) for x in d] == [x for x, _ in exp], (fn, slop)
        assert np.allclose(s, [v for _, v in exp])
    # unmatched predicate -> empty, not error
    d, _ = sc.score_query("near(zzqx,notaterm,3) import", 10)
    assert len(d) == 0


def test_explain_parts_sum_to_dense_score(t1_index_dir, t1_oracle):
    """explain(): per-term contributions sum (sorted-term order) to the
    exact dense-pass score, and the raw inputs match the oracle."""
    from hadoopsearchengine_ray import oracle as omod

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    for q in omod.make_queries(idx, 15):
        d, s = sc.score_exact(q["terms"], q["k"])
        for doc, want in list(zip(d, s))[:3]:
            ex = sc.explain(q["terms"], int(doc))
            assert ex["total"] == float(want)     # bit-identical
            assert ex["dl"] == idx.doclen[int(doc)]
            for p in ex["parts"]:
                if p["matched"]:
                    assert p["df"] == len(idx.postings[p["term"]])
                    assert dict(idx.postings[p["term"]])[int(doc)] == p["tf"]
    # unknown + unmatched terms report matched=False, contribution 0
    ex = sc.explain(["zzqqxxnotaterm0"], int(d[0]))
    assert ex["total"] == 0.0 and not ex["parts"][0]["matched"]
    import pytest

    with pytest.raises(ValueError, match="outside"):
        sc.explain(["def"], 10**9)


def test_explain_on_blended_scorer_adds_prior(t1_index_dir, t1_oracle,
                                             tmp_path):
    """With a PageRank prior attached, explain carries a ``prior`` part
    (pr_weight * pr[doc]) and its total is bit-identical to the score
    ``score()`` ranks the doc by."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    idx, _ = t1_oracle
    pr = np.random.default_rng(7).random(idx.N)
    pr_dir = tmp_path / "pr"
    pr_dir.mkdir()
    pq.write_table(pa.table({"doc_id": pa.array(np.arange(idx.N), pa.int64()),
                             "pr_score": pr}), str(pr_dir / "pr.parquet"))
    w = 0.3
    sc = BM25Scorer(t1_index_dir, pagerank_dir=str(pr_dir), pr_weight=w)
    plain = BM25Scorer(t1_index_dir)
    for q in oracle.make_queries(idx, 15):
        d, s = sc.score(q["terms"], q["k"])
        for doc, want in list(zip(d, s))[:3]:
            ex = sc.explain(q["terms"], int(doc))
            assert ex["prior"] == w * pr[int(doc)]
            assert ex["total"] == float(want)     # bit-identical
            bm25 = plain.explain(q["terms"], int(doc))
            assert "prior" not in bm25
            assert ex["parts"] == bm25["parts"]
            assert ex["total"] == bm25["total"] + ex["prior"]


def test_explain_pool_routes_to_owner(t1_index_dir, t1_oracle):
    from hadoopsearchengine_ray.pipelines.pool import RangePartitionedPool

    idx, _ = t1_oracle
    sc = BM25Scorer(t1_index_dir)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=3)
    try:
        terms = ["def", "return", "class"]
        d, s = sc.score_exact(terms, 5)
        for doc, want in zip(d, s):
            ex = pool.explain(terms, int(doc))
            assert ex["doc_id"] == int(doc)
            assert ex["total"] == float(want)     # bit-identical across
            # the pool boundary: owner uses global stats + same op order
        import pytest

        with pytest.raises(ValueError, match="outside"):
            pool.explain(terms, 10**9)
    finally:
        pool.shutdown()


def test_explain_tombstoned_doc_raises(t1_index_dir):
    import pytest

    from hadoopsearchengine_ray.pipelines.delta import TombstoneReader
    from hadoopsearchengine_ray.pipelines.query import IndexReader

    base = IndexReader(t1_index_dir)
    sc = BM25Scorer(t1_index_dir, reader=TombstoneReader(base, {5}))
    with pytest.raises(ValueError, match="tombstoned"):
        sc.explain(["def"], 5)
    ex = sc.explain(["def"], 6)      # neighbors still explain
    assert ex["doc_id"] == 6
