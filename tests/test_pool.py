"""Doc-range-partitioned scorer pool: rank identity with the single
reader at >= 2 ranges (the BoundaryPartion analog)."""

import numpy as np
import pytest

from hadoopsearchengine_ray.pipelines.pool import RangePartitionedPool
from hadoopsearchengine_ray.pipelines.query import BM25Scorer, IndexReader


@pytest.mark.parametrize("num_ranges", [2, 3, 5])
def test_pool_rank_identical_to_single_reader(t1_index_dir, t1_oracle,
                                              num_ranges):
    from hadoopsearchengine_ray import oracle as omod

    idx, _ = t1_oracle
    single = BM25Scorer(t1_index_dir)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=num_ranges)
    try:
        for q in omod.make_queries(idx, 40):
            d1, s1 = single.score(q["terms"], q["k"])
            d2, s2 = pool.score(q["terms"], q["k"])
            assert [int(x) for x in d1] == [int(x) for x in d2], q
            assert np.allclose(s1, s2), q
    finally:
        pool.shutdown()


def test_pool_replay_matches_per_query(t1_index_dir, t1_oracle):
    from hadoopsearchengine_ray import oracle as omod

    idx, _ = t1_oracle
    qs = omod.make_queries(idx, 20)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=3)
    try:
        replayed = pool.replay(qs)
        for q, (d, s) in zip(qs, replayed):
            de, se = pool.score(q["terms"], q["k"])
            assert [int(x) for x in d] == [int(x) for x in de]
    finally:
        pool.shutdown()


def test_range_reader_block_pruning(t1_index_dir):
    """A range reader decodes only its slice: local ids within
    [0, hi-lo), and the union over disjoint ranges equals the full
    decode."""
    full = IndexReader(t1_index_dir)
    term = next(t for t in ("the", "data", "spark", "return")
                if full.lookup(t)) if any(
        full.lookup(t) for t in ("the", "data", "spark", "return")) else None
    if term is None:
        term = next(iter(full._dict))
    d_full, f_full = full.decoded_postings(term)
    space = full.doc_space
    mid = space // 2
    parts_d, parts_f = [], []
    for lo, hi in ((0, mid), (mid, space)):
        r = IndexReader(t1_index_dir, doc_lo=lo, doc_hi=hi)
        d, f = r.decoded_postings(term)
        assert len(d) == 0 or (d.astype(np.int64).max() < hi - lo)
        parts_d.append(d.astype(np.int64) + lo)
        parts_f.append(f)
    got_d = np.concatenate(parts_d)
    got_f = np.concatenate(parts_f)
    order = np.argsort(got_d)
    assert list(got_d[order]) == list(d_full.astype(np.int64))
    assert list(got_f[order]) == list(f_full)


def test_pool_score_query_matches_single_reader(t1_index_dir, t1_oracle):
    """The parsed query-string front-end through the range tier must be
    rank-identical to the single reader: required / excluded / wildcard
    all act range-locally, global stats keep the merge exact."""
    idx, _ = t1_oracle
    single = BM25Scorer(t1_index_dir)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=3)
    # a real adjacent pair from the corpus, so the phrase/NEAR
    # predicates match somewhere (positional decode is range-local)
    from hadoopsearchengine_ray import corpus, oracle as om

    toks = om.tokenize_py(corpus.gen_rows(np.arange(1))["content"][0]
                          .as_py())
    ph = f'"{toks[3]} {toks[4]}"'
    nr = f"near({toks[0]},{toks[2]},4)"   # doc 0 delta 2: never empty
    try:
        for qstr in ("import^2 +return -class ret*",
                     "return import",
                     "+return +import del*",
                     "-return imp*",
                     f"{ph} import^2",
                     f"{nr} return^1.5"):
            d1, s1 = single.score_query(qstr, 10)
            d2, s2 = pool.score_query(qstr, 10)
            assert [int(x) for x in d1] == [int(x) for x in d2], qstr
            assert np.allclose(s1, s2), qstr
    finally:
        pool.shutdown()


def test_pool_search_after_pages(t1_index_dir, t1_oracle):
    """Cursor pages through the range tier tile the pool's own global
    ranking and equal the single-reader pages exactly.  Cursors are
    minted from score_after's dense page 1 — NOT pool.score, whose
    MaxScore floats can differ in the last ULP for multi-term docs
    (review-reproduced: a MaxScore-minted cursor duplicated boundary
    docs) — and hot-term triples are included as the adversarial
    case."""
    from hadoopsearchengine_ray import oracle as omod
    from hadoopsearchengine_ray.pipelines.query import BM25Scorer

    idx, _ = t1_oracle
    pool = RangePartitionedPool(t1_index_dir, num_ranges=3)
    sc = BM25Scorer(t1_index_dir)
    hot = [t for t in sorted(idx.postings)
           if len(idx.postings[t]) > 0.25 * idx.N][:3]
    try:
        queries = [q["terms"] for q in omod.make_queries(idx, 15)]
        queries.append(hot)                 # 3 hot terms: max overlap
        for terms in queries:
            for size in (7, 3):
                full_d, _ = sc.score_exact(terms, 10**9)
                n_pages = -(-max(1, len(full_d)) // size) + 1
                got_d, cursor = [], None
                for _page in range(n_pages):
                    if cursor is None:
                        d, s = pool.score_after(terms, size)
                        d1, s1 = sc.score_exact(terms, size)
                    else:
                        d, s = pool.score_after(terms, size,
                                                cursor[0], cursor[1])
                        d1, s1 = sc.score_after(terms, size,
                                                cursor[0], cursor[1])
                    assert list(d) == list(d1), terms
                    assert np.allclose(s, s1)
                    got_d.extend(int(x) for x in d)
                    if len(d) < size:
                        break
                    cursor = (float(s[-1]), int(d[-1]))
                assert got_d == [int(x) for x in full_d], (terms, size)
    finally:
        pool.shutdown()


def test_pool_phrase_and_near_match_single_reader(t1_index_dir,
                                                  t1_oracle):
    """Range-local positional decode: pool phrase/NEAR results equal
    the single reader's on real phrases, hot terms, and empty cases."""
    from hadoopsearchengine_ray import corpus, oracle as omod
    from hadoopsearchengine_ray.pipelines.positional import (
        near_counts,
        phrase_counts,
    )
    from hadoopsearchengine_ray.pipelines.query import IndexReader

    idx, _ = t1_oracle
    reader = IndexReader(t1_index_dir)
    pool = RangePartitionedPool(t1_index_dir, num_ranges=3)
    try:
        tbl = corpus.gen_rows(np.arange(3))
        hot = [t for t in sorted(idx.postings)
               if len(idx.postings[t]) > 0.25 * idx.N][:2]
        phrases = [omod.tokenize_py(tbl["content"][i].as_py())[j:j + n]
                   for i in range(3) for j, n in ((0, 2), (4, 3))]
        phrases += [hot, ["zzznotaterm", "also"]]
        for ph in phrases:
            d1, c1 = phrase_counts(reader, list(ph))
            d2, c2 = pool.phrase_counts(list(ph))
            assert d1.tolist() == d2.tolist(), ph
            assert c1.tolist() == c2.tolist(), ph
        pairs = [(hot[0], hot[1]), (hot[0], hot[0]),
                 (phrases[0][0], hot[0])]
        for a, b in pairs:
            for ordered in (False, True):
                d1, c1 = near_counts(reader, a, b, slop=4,
                                     ordered=ordered)
                d2, c2 = pool.near_counts(a, b, slop=4, ordered=ordered)
                assert d1.tolist() == d2.tolist(), (a, b, ordered)
                assert c1.tolist() == c2.tolist(), (a, b, ordered)
    finally:
        pool.shutdown()


# ---------------------------------------------------------------------------
# live (NRT) serving: the pool over a delta-ingested + tombstoned index
# must equal merged_scorer (the proven single-reader path) EXACTLY
# ---------------------------------------------------------------------------

@pytest.fixture(scope="module")
def nrt_pool_env(tmp_path_factory, ray_session):
    import pyarrow.parquet as pq

    from hadoopsearchengine_ray.pipelines.build_index import build_index
    from hadoopsearchengine_ray.pipelines.delta import (
        add_documents,
        delete_documents,
    )

    from tests.conftest import doc_id_table as _doc_table

    root = tmp_path_factory.mktemp("nrt_pool")
    mainp = str(root / "main.parquet")
    newp = str(root / "new.parquet")
    pq.write_table(_doc_table(0, 400), mainp)
    pq.write_table(_doc_table(400, 500), newp)
    idx = str(root / "idx")
    build_index(mainp, idx, id_mode="column", text_col="text")
    add_documents(idx, newp)
    # tombstones in BOTH the main range and the delta range
    dels = [i for i in range(500) if i % 17 == 0]
    delete_documents(idx, dels)
    return idx, mainp, dels


def test_nrt_pool_exact_vs_merged_scorer(nrt_pool_env, t1_oracle):
    """Every pool op family — score, cursor paging, parsed query
    strings, phrase, NEAR — returns bit-identical results to
    merged_scorer over the same deltas + tombstones (the injected
    global-stats path must mirror the lazy path's arithmetic)."""
    from hadoopsearchengine_ray import oracle as omod
    from hadoopsearchengine_ray.pipelines.delta import merged_scorer
    from hadoopsearchengine_ray.pipelines.positional import (
        near_counts,
        phrase_counts,
    )

    idx, mainp, dels = nrt_pool_env
    oidx, _ = t1_oracle
    ms = merged_scorer(idx)
    pool = RangePartitionedPool(idx, num_ranges=3, corpus_path=mainp)
    try:
        assert pool.num_deltas == 1 and pool.num_tombstones == len(dels)
        deleted = set(dels)
        for q in omod.make_queries(oidx, 25):
            d1, s1 = ms.score(q["terms"], q["k"])
            d2, s2 = pool.score(q["terms"], q["k"])
            assert [int(x) for x in d1] == [int(x) for x in d2], q
            assert [float(x) for x in s1] == [float(x) for x in s2], q
            assert not deleted & {int(x) for x in d2}
        # cursor paging across the whole result set
        dm, sm = ms.score_after(["def", "return"], 7,
                                after_score=float("inf"), after_doc=-1)
        dp, sp = pool.score_after(["def", "return"], 7,
                                  after_score=float("inf"), after_doc=-1)
        assert dm.tolist() == dp.tolist()
        assert sm.tolist() == sp.tolist()
        if len(dm):
            dm2, _ = ms.score_after(["def", "return"], 7,
                                    after_score=float(sm[-1]),
                                    after_doc=int(dm[-1]))
            dp2, _ = pool.score_after(["def", "return"], 7,
                                      after_score=float(sp[-1]),
                                      after_doc=int(dp[-1]))
            assert dm2.tolist() == dp2.tolist()
        # parsed query string (wildcard expansion + required/excluded)
        dm, sm = merged_scorer(idx).score_query("def +return -zz retu*", 8)
        dp, sp = pool.score_query("def +return -zz retu*", 8)
        assert dm.tolist() == dp.tolist()
        assert sm.tolist() == sp.tolist()
        # positional ops filter tombstoned docs identically
        for ph in (["def", "main"], ["return", "the"]):
            d1, c1 = phrase_counts(ms.rd, ph)
            d2, c2 = pool.phrase_counts(ph)
            assert d1.tolist() == d2.tolist()
            assert c1.tolist() == c2.tolist()
        d1, c1 = near_counts(ms.rd, "def", "return", slop=4,
                             ordered=False)
        d2, c2 = pool.near_counts("def", "return", slop=4,
                                  ordered=False)
        assert d1.tolist() == d2.tolist()
        assert c1.tolist() == c2.tolist()
    finally:
        pool.shutdown()


def test_nrt_pool_requires_corpus_for_tombstones(nrt_pool_env):
    """Tombstoned index + no corpus_path must fail LOUDLY at pool
    construction (the df correction needs the deleted docs' text) —
    never silently serve stale statistics."""
    idx, _, _ = nrt_pool_env
    with pytest.raises(ValueError, match="corpus"):
        RangePartitionedPool(idx, num_ranges=2)


def test_nrt_pool_delta_only_no_corpus_needed(nrt_pool_env,
                                              tmp_path_factory):
    """Deltas WITHOUT tombstones serve without a corpus (global stats
    come from segment metas alone)."""
    import pyarrow.parquet as pq

    from hadoopsearchengine_ray.pipelines.build_index import build_index
    from hadoopsearchengine_ray.pipelines.delta import (
        add_documents,
        merged_scorer,
    )

    root = tmp_path_factory.mktemp("nrt_delta_only")

    from tests.conftest import doc_id_table as _doc_table

    mainp = str(root / "main.parquet")
    newp = str(root / "new.parquet")
    pq.write_table(_doc_table(0, 120), mainp)
    pq.write_table(_doc_table(120, 150), newp)
    idx = str(root / "idx")
    build_index(mainp, idx, id_mode="column", text_col="text")
    add_documents(idx, newp)
    ms = merged_scorer(idx)
    pool = RangePartitionedPool(idx, num_ranges=2)
    try:
        d1, s1 = ms.score(["def", "return"], 10)
        d2, s2 = pool.score(["def", "return"], 10)
        assert d1.tolist() == d2.tolist()
        assert s1.tolist() == s2.tolist()
        # delta docs actually reachable (ids >= 120 can win)
        dd, _ = pool.score(["def"], 150)
        assert any(int(x) >= 120 for x in dd)
    finally:
        pool.shutdown()


def test_pool_excluded_term_absent_from_a_range(tmp_path):
    """``-term`` where the excluded term has postings in only one of 2
    ranges: the other owner sees an empty exclusion set, which must
    exclude nothing (it used to raise IndexError)."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    from hadoopsearchengine_ray.pipelines.build_index import build_index

    # "gamma" occurs only in docs 0-4, i.e. only in the first range
    texts = [f"alpha beta doc{i:04d}" + (" gamma" if i < 5 else "")
             for i in range(10)]
    pq.write_table(pa.table({"doc_id": pa.array(range(10), pa.int64()),
                             "text": texts}), str(tmp_path / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, id_mode="column",
                text_col="text")
    single = BM25Scorer(idx)
    want_d, want_s = single.score_query("alpha -gamma", 10)
    assert want_d.tolist() == list(range(5, 10))
    ex_d, ex_s = single.score_excluding(["alpha"], 10, ["gamma"])
    assert ex_d.tolist() == want_d.tolist()
    assert ex_s.tobytes() == want_s.tobytes()
    pool = RangePartitionedPool(idx, num_ranges=2)
    try:
        assert len(pool.bounds) == 2
        d, s = pool.score_query("alpha -gamma", 10)
        assert d.tolist() == want_d.tolist()
        assert s.tobytes() == want_s.tobytes()
        # score_excluding as each range owner runs it, merged the way
        # the pool merges
        parts = []
        for lo, hi in pool.bounds:
            owner = BM25Scorer(idx, reader=IndexReader(idx, doc_lo=lo,
                                                       doc_hi=hi))
            od, os_ = owner.score_excluding(["alpha"], 10, ["gamma"])
            parts.append((od + lo, os_))
        d, s = RangePartitionedPool._merge(parts, 10)
        assert d.tolist() == ex_d.tolist()
        assert s.tobytes() == ex_s.tobytes()
    finally:
        pool.shutdown()
