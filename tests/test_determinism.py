"""Build determinism (FIXTURES.md §4.3): the same corpus built under
different physical layouts (block structure / batch sizes) must produce a
logically identical index — same dictionary, same decoded postings, same
hot-term set, same meta.  This is what makes N-node vs 4N-node builds
interchangeable (the elasticity property the reference lacks — its 256-
client layout is baked into file names, SURVEY.md §4.1)."""

import json
import os

import numpy as np
import pyarrow.dataset as pads

from hadoopsearchengine_ray import corpus
from hadoopsearchengine_ray.codec import decode_postings
from hadoopsearchengine_ray.pipelines.build_index import build_index


def _index_fingerprint(index_dir):
    d = (pads.dataset(f"{index_dir}/dictionary").to_table().to_pandas()
         .sort_values("term").reset_index(drop=True))
    post = pads.dataset(f"{index_dir}/postings", partitioning="hive").to_table().to_pandas()
    decoded = {}
    for r in post.itertuples():
        dd, ff = decode_postings(r.doc_blob, r.tf_blob, r.df)
        decoded.setdefault(int(r.term_id), []).append(
            (int(r.salt), dd.tolist(), ff.tolist()))
    for v in decoded.values():
        v.sort()
    meta = json.load(open(f"{index_dir}/meta.json"))
    return (
        list(zip(d.term, d.term_id, d.df, d.cf)),
        decoded,
        sorted(meta["hot_term_ids"].items()),
        (meta["num_docs"], meta["avgdl"], meta["total_tokens"]),
    )


def test_identical_index_across_layouts(tmp_path):
    c = str(tmp_path / "corpus")
    corpus.write_corpus(c, 400)

    i1 = str(tmp_path / "i1")
    i2 = str(tmp_path / "i2")
    # different tokenize batch size -> different block structure through
    # every stage; also different shard coalescing
    build_index(c, i1, tokenize_batch_size=512)
    build_index(c, i2, tokenize_batch_size=64)

    f1 = _index_fingerprint(i1)
    f2 = _index_fingerprint(i2)
    assert f1[0] == f2[0], "dictionary differs"
    assert f1[1] == f2[1], "decoded postings differ"
    assert f1[2] == f2[2], "hot-term set differs (sampling not deterministic)"
    assert f1[3] == f2[3], "meta differs"


def test_identical_index_across_num_cpus(tmp_path):
    """FIXTURES §4.3 exactly: build in two FRESH Ray processes at
    different num_cpus -> logically identical index."""
    import subprocess
    import sys
    import textwrap

    c = str(tmp_path / "corpus")
    corpus.write_corpus(c, 300)
    script = textwrap.dedent("""
        import sys, ray
        ray.init(address="local", num_cpus=int(sys.argv[1]),
                 include_dashboard=False, logging_level="ERROR")
        from ray.data import DataContext
        DataContext.get_current().enable_progress_bars = False
        from hadoopsearchengine_ray.pipelines.build_index import build_index
        build_index(sys.argv[2], sys.argv[3])
        ray.shutdown()
    """)
    for ncpu, out in ((2, tmp_path / "cpu2"), (8, tmp_path / "cpu8")):
        subprocess.run(
            [sys.executable, "-c", script, str(ncpu), c, str(out)],
            check=True, capture_output=True,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))),
        )
    f1 = _index_fingerprint(str(tmp_path / "cpu2"))
    f2 = _index_fingerprint(str(tmp_path / "cpu8"))
    assert f1[0] == f2[0], "dictionary differs across num_cpus"
    assert f1[1] == f2[1], "decoded postings differ across num_cpus"
    assert f1[2] == f2[2] and f1[3] == f2[3]


def test_skew_fixture_term_in_half_the_docs(tmp_path):
    """FIXTURES §4.4: a term present in ~50% of docs must be salted and
    still decode to the exact postings."""
    import pyarrow as pa
    import pyarrow.parquet as pq

    n = 300
    texts = []
    for i in range(n):
        base = f"uniq{i:04d} filler{i % 7}"
        if i % 2 == 0:
            base += " megacommon"
        texts.append(base)
    pq.write_table(pa.table({
        "repo": [f"r{i:05d}/x" for i in range(n)],
        "path": [f"p{i:05d}" for i in range(n)],
        "commit": ["c"] * n,
        "lang": ["py"] * n,
        "content": texts,
    }), str(tmp_path / "c.parquet"))
    idx = str(tmp_path / "idx")
    build_index(str(tmp_path / "c.parquet"), idx, hot_df_frac=0.25)

    from hadoopsearchengine_ray.pipelines.query import BM25Scorer

    sc = BM25Scorer(idx)
    rows = sc.rd.posting_rows("megacommon")
    assert len(rows) > 1, "hot term was not salted"
    docs, tfs = sc.rd.decoded_postings("megacommon")
    assert np.array_equal(docs, np.arange(0, n, 2, dtype=np.uint64))
    assert (tfs == 1).all()
    ent = sc.rd.lookup("megacommon")
    assert ent[1] == n // 2  # df exact despite salting
