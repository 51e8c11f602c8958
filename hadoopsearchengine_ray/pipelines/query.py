"""BM25 top-k query engine: one in-process scorer over the index.

The Ray rebuild of the reference's query serving path
(``DyableRequest/``): a ``BM25Scorer`` is the analog of one
SearchHitItems server — it loads the dictionary + doc-length array once
(the reference's 500 MB posting-block cache, ``CHitItemBlock``,
FileStorage.h:2105-2170), reads posting partitions on demand with
term_id-filtered Parquet reads, and caches decoded lists across queries.
The serving tier (``pool.RangePartitionedPool``) runs one scorer per
doc-id range inside a Ray actor and merges per-range top-k lists.

Scoring is exact BM25 (k1=1.2, b=0.75, float64, per-term accumulation in
sorted-term order, ties broken by ascending doc_id — matching
oracle.OracleIndex.bm25_topk and the reference's multi-key comparators,
CompileRankedList.h:123-163).  Every exact ranking (plain, weighted,
prior-blended, title-boosted, LM-Dirichlet, AND / filter / NOT /
query-string candidate sets) is one plan over a single term-at-a-time
pass, ``BM25Scorer._accumulate``, and the BM25 formula is written once
(``BM25Scorer._bm25``) — so every range owner scores each doc with the
same float ops as the single reader.  The default ``score`` algorithm is
**MaxScore with block-max skipping** — the idiomatic equivalent of the
reference's best-first doc-range bisection pruning
(SearchHitItems.h:210-254): terms are evaluated in descending
score-upper-bound order; once the summed upper bounds of the unevaluated
terms fall below the running k-th score, the remaining (high-df) terms
are only decoded for the blocks that contain surviving candidates
(codec.decode_blocks over the skip arrays).  Both paths produce
identical rankings (asserted in tests).

Scale note: scores accumulate in a dense float64 array over the dense doc
id space (one partition's doc range per actor at real scale — the
reference's ``BoundaryPartion`` doc-range slicing, SearchHitItems.h:300-315).
"""

from __future__ import annotations

import itertools
import json
import os

import numpy as np
import pyarrow as pa
import pyarrow.dataset as pads

from ..codec import (
    decode_blocks,
    decode_positions,
    decode_posting_row_blocks,
    decode_postings,
)


def _rows_from_table(tbl: pa.Table) -> list[dict]:
    """Posting rows as dicts of ZERO-COPY cells: blobs stay Arrow
    buffers (np.frombuffer reads them directly), skip arrays are numpy
    slices of the flat list storage — no to_pylist() python-object churn
    in the part cache (round-2 fix of the row-dict cache)."""
    tbl = tbl.combine_chunks()
    n = tbl.num_rows
    cols: dict[str, list] = {}
    for name in tbl.column_names:
        col = tbl[name]
        arr = col.combine_chunks() if isinstance(col, pa.ChunkedArray) else col
        if pa.types.is_binary(arr.type) or pa.types.is_large_binary(arr.type):
            cols[name] = [arr[i].as_buffer() for i in range(n)]
        elif pa.types.is_list(arr.type):
            flat = arr.flatten().to_numpy(zero_copy_only=False)
            offs = arr.offsets.to_numpy(zero_copy_only=False).astype(np.int64)
            cols[name] = [flat[offs[i]:offs[i + 1]] for i in range(n)]
        else:
            vals = arr.to_numpy(zero_copy_only=False)
            cols[name] = [vals[i] for i in range(n)]
    names = list(cols)
    return [{k: cols[k][i] for k in names} for i in range(n)]


class IndexReader:
    """Loads index metadata + provides term posting lookup with caching.

    ``doc_lo``/``doc_hi`` restrict the reader to one doc-id range — the
    reference's ``BoundaryPartion`` doc-range slicing
    (/root/reference/DyableRequest/SearchHitItems/SearchHitItems.h:300-315):
    the doclen read is row-group-filtered to the range, the dense arrays
    are RANGE-sized (ids are local: global - doc_lo), and posting decode
    touches only the skip blocks intersecting the range (hot-term salt
    sub-shards outside the range never decode).  Global BM25 stats
    (N, avgdl, df) are unchanged — each doc's full score is computed by
    exactly one range owner, so a per-range top-k merge is exact."""

    def __init__(self, index_dir: str, cache_terms: int = 8192,
                 doc_lo: int = 0, doc_hi: int | None = None):
        self.index_dir = index_dir
        with open(os.path.join(index_dir, "meta.json")) as f:
            self.meta = json.load(f)
        self.N = self.meta["num_docs"]
        self.avgdl = self.meta["avgdl"]
        self.k1 = self.meta["k1"]
        self.b = self.meta["b"]
        self.nparts = self.meta["num_index_parts"]
        # doc_id space may be sparse / non-dense (generic doc tables)
        full_space = self.meta.get("doc_id_space", self.N)
        self.doc_lo = int(doc_lo)
        self.doc_hi = full_space if doc_hi is None else min(int(doc_hi),
                                                            full_space)
        self.is_range = self.doc_lo > 0 or self.doc_hi < full_space
        self.doc_space = max(0, self.doc_hi - self.doc_lo)

        dl_dataset = pads.dataset(os.path.join(index_dir, "doclen"))
        if self.is_range:
            dl_tbl = dl_dataset.to_table(
                filter=(pads.field("doc_id") >= self.doc_lo)
                & (pads.field("doc_id") < self.doc_hi))
        else:
            dl_tbl = dl_dataset.to_table()
        self.dl = np.zeros(self.doc_space, dtype=np.float64)
        ids = dl_tbl.column("doc_id").to_numpy().astype(np.int64) - self.doc_lo
        self.dl[ids] = dl_tbl.column("dl").to_numpy().astype(np.float64)
        # doc-id range (for delta merge ordering/overlap validation;
        # GLOBAL ids)
        self.min_doc_id = int(ids.min()) + self.doc_lo if len(ids) else 0
        self.max_doc_id = int(ids.max()) + self.doc_lo if len(ids) else -1

        d_tbl = pads.dataset(os.path.join(index_dir, "dictionary")).to_table(
            columns=["term", "term_id", "df"]
        )
        self._dict: dict[str, tuple[int, int]] = {
            t: (tid, df)
            for t, tid, df in zip(
                d_tbl.column("term").to_pylist(),
                d_tbl.column("term_id").to_pylist(),
                d_tbl.column("df").to_pylist(),
            )
        }
        self.post_dir = os.path.join(index_dir, "postings")
        self._pcache: dict[str, list[dict]] = {}
        self._cache_cap = cache_terms
        # decoded-list cache: the analog of the reference's decompressed
        # block cache (CHitItemBlock, 500 MB budget) — hot terms decode
        # once per actor, not once per query
        self._dec_cache: dict[str, tuple] = {}
        self._dec_pos_cache: dict[str, tuple] = {}
        self._dec_key_cache: dict[str, tuple] = {}
        self._dec_bytes = 0
        self._dec_budget = 256 * 1024 * 1024
        self._part_ds: dict[int, pads.Dataset] = {}  # opened part dirs
        # parts smaller than this are loaded whole into an in-memory
        # term_id -> rows map on first touch (the reference's 500MB
        # posting-block cache budget, FileStorage.h:2107); bigger parts —
        # or any part once the GLOBAL budget is spent — fall back to
        # filtered row-group reads
        self._part_cache_bytes = 64 * 1024 * 1024
        self._part_cache_budget = 512 * 1024 * 1024   # across all parts
        self._part_cache_used = 0
        self._part_rows: dict[int, dict[int, list[dict]]] = {}

    def lookup(self, term: str) -> tuple[int, int] | None:
        return self._dict.get(term)

    def expand_prefix(self, prefix: str, max_expansions: int = 512) -> list[str]:
        """Dictionary terms starting with ``prefix`` (sorted) — the
        wildcard-query expansion (term* -> OR over matching terms).
        The sorted term list builds lazily once per reader; expansion
        is a binary-search range scan.  Exceeding ``max_expansions``
        fails LOUDLY (a 1-char prefix over a web-scale vocabulary is a
        query bug, not a workload)."""
        import bisect

        terms = getattr(self, "_sorted_terms", None)
        if terms is None:
            terms = sorted(self._dict)
            self._sorted_terms = terms
        lo = bisect.bisect_left(terms, prefix)
        hi = bisect.bisect_left(terms, prefix + "\uffff")
        if hi - lo > max_expansions:
            raise ValueError(
                f"prefix {prefix!r} expands to {hi - lo} terms "
                f"(> {max_expansions}); use a longer prefix or raise "
                "max_expansions")
        return terms[lo:hi]

    def idf(self, df: int) -> float:
        return float(np.log((self.N - df + 0.5) / (df + 0.5) + 1.0))

    def cf_stats(self) -> tuple[dict[str, int], int]:
        """(term -> collection frequency, total collection tokens) —
        lazy one-time read of the dictionary's ``cf`` column.  Only the
        language-model scorer pays for it; BM25 paths never touch cf.
        The dictionary is GLOBAL even on a range-restricted reader, so
        LM collection statistics — like N/avgdl/df for BM25 — are
        identical in every range owner and a per-range top-k merge is
        exact."""
        cf = getattr(self, "_cf_map", None)
        if cf is None:
            t = pads.dataset(os.path.join(self.index_dir, "dictionary")) \
                .to_table(columns=["term", "cf"])
            cf = dict(zip(t.column("term").to_pylist(),
                          t.column("cf").to_pylist()))
            self._cf_map = cf
            cfs = t.column("cf").to_numpy(zero_copy_only=False)
            self._total_cf = int(cfs.sum()) if len(cfs) else 0
        return self._cf_map, self._total_cf

    def posting_rows(self, term: str) -> list[dict]:
        """Raw index rows (salt-ordered) for a term; term_id-filtered
        Parquet read of just the owning partition directory."""
        rows = self._pcache.get(term)
        if rows is not None:
            return rows
        ent = self._dict.get(term)
        if ent is None:
            return []
        tid, _ = ent
        part = tid % self.nparts
        loaded = self._part_rows.get(part)
        if loaded is not None:
            rows = loaded.get(tid, [])
        else:
            ds = self._part_ds.get(part)
            if ds is None:  # open each part directory once per actor
                ds = pads.dataset(os.path.join(self.post_dir, f"part={part}"))
                self._part_ds[part] = ds
            part_bytes = sum(os.path.getsize(f) for f in ds.files)
            if (part_bytes <= self._part_cache_bytes
                    and self._part_cache_used + part_bytes
                    <= self._part_cache_budget):
                self._part_cache_used += part_bytes
                # small part: load once, serve every term from memory
                by_tid: dict[int, list[dict]] = {}
                for r in _rows_from_table(ds.to_table()):
                    by_tid.setdefault(int(r["term_id"]), []).append(r)
                for v in by_tid.values():
                    v.sort(key=lambda r: r["salt"])
                self._part_rows[part] = by_tid
                rows = by_tid.get(tid, [])
            else:
                tbl = ds.to_table(
                    filter=pads.field("term_id") == pa.scalar(tid, pa.int64())
                )
                rows = _rows_from_table(tbl)
                rows.sort(key=lambda r: r["salt"])
        if len(self._pcache) >= self._cache_cap:
            self._pcache.clear()  # simple epoch cache (bounded)
        self._pcache[term] = rows
        return rows

    def _dec_store(self, cache: dict, term: str, value: tuple) -> None:
        nbytes = sum(getattr(v, "nbytes", 0) for v in value)
        if self._dec_bytes + nbytes > self._dec_budget:
            self._dec_cache.clear()
            self._dec_pos_cache.clear()
            self._dec_key_cache.clear()
            self._dec_bytes = 0      # epoch eviction, like _pcache
        if nbytes <= self._dec_budget:
            cache[term] = value
            self._dec_bytes += nbytes

    def decoded_postings(self, term: str) -> tuple[np.ndarray, np.ndarray]:
        """(doc_ids, tfs) for a term, concatenated over salted rows;
        decoded lists cached per actor under the byte budget.

        Range readers decode ONLY the skip blocks intersecting
        [doc_lo, doc_hi) — a hot term's salt sub-shards outside the
        range cost nothing — and return LOCAL ids (global - doc_lo)."""
        hit = self._dec_cache.get(term)
        if hit is not None:
            return hit
        rows = self.posting_rows(term)
        if not rows:
            return np.empty(0, np.uint64), np.empty(0, np.uint64)
        docs, tfs = [], []
        if not self.is_range:
            for r in rows:
                d, f = decode_postings(r["doc_blob"], r["tf_blob"], r["df"])
                docs.append(d)
                tfs.append(f)
        else:
            lo, hi = np.uint64(self.doc_lo), np.uint64(self.doc_hi)
            for r in rows:
                sd = np.asarray(r["skip_docs"], dtype=np.uint64)
                if len(sd) == 0 or sd[-1] < lo:
                    continue
                b0 = int(np.searchsorted(sd, lo))         # first block ending in range
                b1 = int(np.searchsorted(sd, hi - np.uint64(1)))
                blk = np.arange(b0, min(b1 + 1, len(sd)))
                if len(blk) == 0:
                    continue
                d, f = decode_blocks(
                    r["doc_blob"], r["tf_blob"], r["df"], blk,
                    sd, r["skip_doc_off"], r["skip_tf_off"])
                keep = (d >= lo) & (d < hi)
                if keep.any():
                    docs.append(d[keep] - lo)
                    tfs.append(f[keep])
            if not docs:
                return np.empty(0, np.uint64), np.empty(0, np.uint64)
        out = (np.concatenate(docs), np.concatenate(tfs))
        self._dec_store(self._dec_cache, term, out)
        return out

    def decoded_positions(self, term: str):
        """(doc_ids, tfs, flat_positions, row_offsets) for a term.

        ``row_offsets`` (len df+1) slices flat_positions per posting doc.
        Requires a positional index (build_index with_positions=True) —
        the reference's in-index positions (CompileHitList.h:304-315)
        served without re-tokenizing documents.

        Range readers decode ONLY the skip blocks intersecting
        [doc_lo, doc_hi) — position blobs included — and return LOCAL
        doc ids, the same contract as ``decoded_postings``; a doc's
        occurrences live entirely inside one range, so per-range
        phrase/NEAR results are exact and merge by concatenation."""
        hit = self._dec_pos_cache.get(term)
        if hit is not None:
            return hit
        rows = self.posting_rows(term)
        if not rows:
            e = np.empty(0, np.uint64)
            return e, e, e, np.zeros(1, np.int64)
        if "pos_blob" not in rows[0] or rows[0]["pos_blob"] is None:
            raise ValueError(
                "index has no positional postings; rebuild with "
                "with_positions=True")
        docs, tfs, flats = [], [], []
        if not self.is_range:
            for r in rows:
                d, f = decode_postings(r["doc_blob"], r["tf_blob"], r["df"])
                flat, _ = decode_positions(r["pos_blob"], f)
                docs.append(d)
                tfs.append(f)
                flats.append(flat)
        else:
            lo, hi = np.uint64(self.doc_lo), np.uint64(self.doc_hi)
            for r in rows:
                sd = np.asarray(r["skip_docs"], dtype=np.uint64)
                if len(sd) == 0 or sd[-1] < lo:
                    continue
                b0 = int(np.searchsorted(sd, lo))
                b1 = int(np.searchsorted(sd, hi - np.uint64(1)))
                blk = np.arange(b0, min(b1 + 1, len(sd)))
                if len(blk) == 0:
                    continue
                d, f, flat = decode_posting_row_blocks(
                    r, blk, with_positions=True)
                keep = (d >= lo) & (d < hi)
                if keep.any():
                    docs.append(d[keep] - lo)
                    tfs.append(f[keep])
                    flats.append(flat[np.repeat(keep, f.astype(np.int64))])
            if not docs:
                e = np.empty(0, np.uint64)
                return e, e, e, np.zeros(1, np.int64)
        tf_all = np.concatenate(tfs)
        row_offsets = np.concatenate(([0], np.cumsum(tf_all))).astype(np.int64)
        out = (np.concatenate(docs), tf_all, np.concatenate(flats),
               row_offsets)
        self._dec_store(self._dec_pos_cache, term, out)
        return out

    def decoded_phrase_keys(self, term: str) -> np.ndarray:
        """SORTED uint64 occurrence keys ``doc_id << 32 | position`` —
        the slot-independent phrase-scan operand.  A hot term's salted
        sub-shards concatenate doc-interleaved, so the positional decode
        is unsorted; one sort here (cached per actor under the decoded
        byte budget) buys sort-free merge intersections for every later
        phrase query touching the term."""
        hit = self._dec_key_cache.get(term)
        if hit is not None:
            return hit[0]
        d, f, flat, _ = self.decoded_positions(term)
        if len(d) == 0:
            keys = np.empty(0, np.uint64)
        else:
            keys = (np.repeat(d.astype(np.uint64) << np.uint64(32),
                              f.astype(np.int64))
                    | flat.astype(np.uint64))
            keys.sort()
        self._dec_store(self._dec_key_cache, term, (keys,))
        return keys


def parse_query(qstr: str) -> dict:
    """Parse the front-end query-string syntax into its typed parts —
    the reference's query parser routes the same word types (required /
    excluded / wildcard / weighted; SWordHit type bits,
    /root/reference/FileStorage.h:31-45, TextStringServer weights
    DyableRequest/.../TextStringServer.h:40-116):

        term        OR term, scores at weight 1.0
        term^W      OR term at weight W (float > 0)
        +term       required (AND): only docs containing it rank;
                    still scores (weight suffix allowed)
        -term       excluded (NOT): docs containing it never rank
        prefix*     wildcard: every dictionary term with the prefix
                    scores (weight suffix allowed: ``p*^W``)
        "a b ..."   exact phrase, REQUIRED (only docs containing the
                    adjacent sequence rank); its terms also score
                    (weight suffix after the close quote: ``"a b"^W``);
                    a one-term phrase degenerates to ``+term``
        near(a,b,N) unordered proximity, REQUIRED: some occurrence of
                    ``b`` within N token positions of ``a``
                    (``1 <= |pos_b - pos_a| <= N``); both terms score
        onear(a,b,N) the ordered variant (``1 <= pos_b - pos_a <= N``)

    Returns ``{"weights": {term: w}, "required": [...],
    "excluded": [...], "prefixes": [(prefix, w), ...],
    "phrases": [[t1, t2, ...], ...],
    "nears": [(a, b, slop, ordered), ...]}`` — weights are max-merged
    when a term is named more than once.  Phrase and NEAR predicates
    need the positional index (the v3 default build)."""
    import re

    weights: dict[str, float] = {}
    required: list[str] = []
    excluded: list[str] = []
    prefixes: list[tuple[str, float]] = []
    phrases: list[list[str]] = []
    nears: list[tuple[str, str, int, bool]] = []
    q = qstr.lower()

    def _grab_phrase(m: "re.Match") -> str:
        if m.group(1):
            raise ValueError(
                "phrases are already required; +/-\"...\" is not "
                "supported (exclusion by phrase would need NOT-phrase "
                "postings semantics)")
        terms = m.group(2).split()
        if not terms:
            raise ValueError('empty phrase ""')
        w = 1.0
        if m.group(3):
            w = float(m.group(3)[1:])
            if w <= 0:
                raise ValueError(f"weight must be > 0, got {w} on "
                                 f"phrase {m.group(2)!r}")
        if len(terms) == 1:
            required.append(terms[0])
        else:
            phrases.append(terms)
        for t in terms:
            weights[t] = max(weights.get(t, 0.0), w)
        return " "

    q = re.sub(r'([+-]?)"([^"]*)"(\^[0-9.]+)?', _grab_phrase, q)
    if '"' in q:
        raise ValueError(f"unbalanced quote in query {qstr!r}")

    near_re = re.compile(r"(o?)near\(([a-z0-9]+),([a-z0-9]+),([0-9]+)\)")
    for tok in q.split():
        m = near_re.fullmatch(tok)
        if m:
            slop = int(m.group(4))
            if slop < 1:
                raise ValueError(f"NEAR slop must be >= 1, got {slop}")
            a, b = m.group(2), m.group(3)
            nears.append((a, b, slop, m.group(1) == "o"))
            weights[a] = max(weights.get(a, 0.0), 1.0)
            weights[b] = max(weights.get(b, 0.0), 1.0)
            continue
        kind = "or"
        if tok.startswith("+"):
            kind, tok = "and", tok[1:]
        elif tok.startswith("-"):
            kind, tok = "not", tok[1:]
        w = 1.0
        if "^" in tok:
            tok, _, ws = tok.partition("^")
            try:
                w = float(ws)
            except ValueError:
                raise ValueError(f"bad weight suffix {ws!r} in query "
                                 f"token {tok!r}")
            if w <= 0:
                raise ValueError(f"weight must be > 0, got {w} on {tok!r}")
        if tok.endswith("*"):
            pre = tok[:-1]
            if not pre:
                raise ValueError("bare '*' wildcard is not a query")
            if kind != "or":
                raise ValueError("wildcards cannot be required/excluded")
            prefixes.append((pre, w))
            continue
        if not tok:
            continue
        if kind == "not":
            excluded.append(tok)
            continue
        if kind == "and":
            required.append(tok)
        weights[tok] = max(weights.get(tok, 0.0), w)
    return {"weights": weights, "required": required,
            "excluded": excluded, "prefixes": prefixes,
            "phrases": phrases, "nears": nears}


def _topk_from_scores(doc_ids: np.ndarray, scores: np.ndarray, k: int):
    """Top-k by (-score, doc_id) — deterministic tie-break.  k <= 0 is
    a well-defined empty page (a serving front may legitimately ask
    for 0 rows), not an out-of-bounds np.partition."""
    if len(doc_ids) == 0 or k <= 0:
        return np.empty(0, np.int64), np.empty(0, np.float64)
    k = min(k, len(doc_ids))
    if len(scores) > 2 * k:
        # every doc scoring >= the k-th value participates (ties resolved
        # by doc_id below — never dropped by the partition)
        kth = np.partition(scores, len(scores) - k)[len(scores) - k]
        part = np.flatnonzero(scores >= kth)
    else:
        part = np.arange(len(scores))
    order = np.lexsort((doc_ids[part], -scores[part]))[:k]
    sel = part[order]
    return doc_ids[sel].astype(np.int64), scores[sel]


def _in_sorted(sorted_ids: np.ndarray, d: np.ndarray) -> np.ndarray:
    """Mask of the ``d`` values present in ``sorted_ids`` (ascending
    int64).  An empty set holds nothing: a range owner whose slice has
    no posting of a term gets an empty set, and nothing matches it."""
    if len(sorted_ids) == 0:
        return np.zeros(len(d), bool)
    idx = np.searchsorted(sorted_ids, d)
    idx[idx == len(sorted_ids)] = 0
    return sorted_ids[idx] == d


class BM25Scorer:
    """In-process top-k scorer over one reader: every ranking method
    returns ``(doc_ids, scores)`` ordered by (-score, doc_id).  The
    range-partitioned pool (``pool.RangePartitionedPool``) runs one
    scorer per doc range inside a Ray actor.
    """

    def __init__(self, index_dir: str, use_maxscore: bool = True,
                 pagerank_dir: str | None = None, pr_weight: float = 0.0,
                 reader=None):
        # ``reader``: injected IndexReader-compatible state (e.g. the
        # delta pipeline's MergedIndexReader) — index_dir is then only
        # used for the optional pagerank attach
        self.rd = reader if reader is not None else IndexReader(index_dir)
        self.use_maxscore = use_maxscore
        # PageRank-weighted ranking: the reference attaches pulse_score to
        # every posting (SHitItem.pulse_score, FileStorage.h:329) and adds
        # it during ranking; we blend a broadcast score vector instead:
        # final = bm25 + pr_weight * pr[doc]
        self.pr_weight = pr_weight
        self.pr: np.ndarray | None = None
        if pagerank_dir is not None and pr_weight != 0.0:
            pr_tbl = pads.dataset(pagerank_dir).to_table()
            self.pr = np.zeros(self.rd.doc_space, dtype=np.float64)
            ids = pr_tbl.column("doc_id").to_numpy().astype(np.int64)
            self.pr[ids] = pr_tbl.column("pr_score").to_numpy().astype(np.float64)
        # Reusable per-actor scratch (the reference keeps one dense score
        # accumulator per SearchHitItems server for its doc range,
        # SearchHitItems.h:300-315 — not one per query).  Allocated once,
        # reset in O(#docs touched by the previous query), so per-query
        # cost is O(postings decoded), not O(doc_space).
        self._scores: np.ndarray | None = None
        self._touched: np.ndarray | None = None
        self._prev: np.ndarray | None = None
        self._dirty = False

    def _scratch(self) -> tuple[np.ndarray, np.ndarray]:
        """Dense (scores, touched) buffers, clean. Selective O(prev-touched)
        reset on the warm path; full reallocation only on first use, a
        doc-space change (delta merge), or after an aborted query."""
        n = self.rd.doc_space
        if self._scores is None or len(self._scores) != n or self._dirty:
            self._scores = np.zeros(n, dtype=np.float64)
            self._touched = np.zeros(n, dtype=bool)
        elif self._prev is not None and len(self._prev):
            self._scores[self._prev] = 0.0
            self._touched[self._prev] = False
        self._dirty = True   # cleared by _finish on clean completion
        self._prev = None
        return self._scores, self._touched

    def _finish(self, docs: np.ndarray) -> None:
        self._prev = docs
        self._dirty = False

    # ---- the one term-at-a-time pass ----------------------------------
    def _bm25(self, w, d, tf):
        """BM25 contribution at idf-weight ``w`` of term frequency ``tf``
        in doc(s) ``d`` — the only place the formula is written, so
        every path (dense, MaxScore, explain) shares one IEEE op order."""
        r = self.rd
        return w * tf * (r.k1 + 1.0) / (
            tf + r.k1 * (1.0 - r.b + r.b * r.dl[d] / r.avgdl))

    def _accumulate(self, weights: dict[str, float],
                    keep: np.ndarray | None = None,
                    drop: np.ndarray | None = None,
                    postings=None, contrib=None):
        """One dense term-at-a-time pass: (touched docs, their scores).

        Terms run in sorted order (the oracle's summation order); a
        term the dictionary lacks adds nothing.  Each posting doc in
        ``keep`` and not in ``drop`` (sorted int64 doc sets) gains
        ``_bm25(weights[t] * idf, d, tf)``, or ``contrib(t, d, tf)``
        when given.  ``postings(t) -> (docs, tfs)`` stands in for the
        reader's decoded postings."""
        r = self.rd
        postings = postings or r.decoded_postings
        scores, touched = self._scratch()
        parts: list[np.ndarray] = []
        for t in sorted(weights):
            ent = r.lookup(t)
            if not ent:
                continue
            docs, tfs = postings(t)
            d = docs.astype(np.int64)
            # drop filtered docs BEFORE accumulation: a selective filter
            # keeps the dense buffers to the surviving subset
            if keep is not None:
                ok = _in_sorted(keep, d)
                d, tfs = d[ok], tfs[ok]
            if drop is not None and len(drop):
                ok = ~_in_sorted(drop, d)
                d, tfs = d[ok], tfs[ok]
            if len(d) == 0:
                continue
            tf = tfs.astype(np.float64)
            new = d[~touched[d]]
            if len(new):
                parts.append(new)
            scores[d] += (self._bm25(weights[t] * r.idf(ent[1]), d, tf)
                          if contrib is None else contrib(t, d, tf))
            touched[d] = True
        docs = np.concatenate(parts) if parts else np.empty(0, np.int64)
        self._finish(docs)
        return docs, scores[docs]

    def _docs_with_all(self, terms: list[str]) -> np.ndarray | None:
        """Sorted int64 docs holding every term (posting intersection);
        None when there are no terms."""
        cand = None
        for t in sorted(set(terms)):
            if self.rd.lookup(t) is None:
                return np.empty(0, np.int64)   # matches nowhere
            d = self.rd.decoded_postings(t)[0].astype(np.int64)
            cand = d if cand is None else np.intersect1d(
                cand, d, assume_unique=True)
            if len(cand) == 0:
                break
        return cand

    def _docs_with_any(self, terms: list[str]) -> np.ndarray:
        """Sorted int64 docs holding at least one term (posting union)."""
        parts = [self.rd.decoded_postings(t)[0].astype(np.int64)
                 for t in sorted(set(terms)) if self.rd.lookup(t)]
        return (np.unique(np.concatenate(parts)) if parts
                else np.empty(0, np.int64))

    def _dense_scores(self, terms: list[str]):
        """Plain BM25 dense pass: (touched docs, their scores).  Shared
        by ``score_exact`` and ``score_after`` so both pages of a
        paginated query see bit-identical floats."""
        return self._accumulate(dict.fromkeys(terms, 1.0))

    def score_exact(self, terms: list[str], k: int):
        docs, s = self._dense_scores(terms)
        return _topk_from_scores(docs, s, k)

    def explain(self, terms: list[str], doc_id: int) -> dict:
        """Per-term BM25 score breakdown for ONE doc — the serving
        debug surface (the public Lucene/Elasticsearch 'explain' API
        shape).  Each part carries the raw inputs (tf, df, dl, avgdl)
        and the term's contribution; parts sum IN SORTED-TERM ORDER to
        the exact dense-pass score (same ``_bm25`` op order as
        ``_accumulate``), asserted in tests/test_query.py.  On a
        PageRank-blended scorer the answer also carries ``prior``
        (``pr_weight * pr[doc]``), added last, so ``total`` is the score
        ``score()`` ranks the doc by.  Cost is one searchsorted per
        query term over the decoded postings (decode is cached per
        actor, so a COLD actor pays one full posting decode per term
        first — same warm-up any query pays); no corpus access.  A
        tombstoned doc raises loudly; an id inside the doc-id space
        that was never indexed (or tokenized to zero tokens) explains
        as dl=0 with every term unmatched."""
        r = self.rd
        local = int(doc_id) - int(getattr(r, "doc_lo", 0))
        if not (0 <= local < r.doc_space):
            raise ValueError(f"doc_id {doc_id} outside this reader's "
                             f"range")
        tomb = getattr(r, "_tomb", None)   # TombstoneReader: BASE-LOCAL ids
        if tomb is not None and len(tomb):
            i = int(np.searchsorted(tomb, local))
            if i < len(tomb) and int(tomb[i]) == local:
                raise ValueError(
                    f"doc_id {doc_id} is deleted (tombstoned) — "
                    "explain would report a misleading all-unmatched "
                    "breakdown for it")
        dl = float(r.dl[local])
        parts = []
        total = 0.0
        for t in sorted(set(terms)):
            ent = r.lookup(t)
            if not ent:
                parts.append({"term": t, "matched": False, "df": 0,
                              "tf": 0, "idf": 0.0, "contribution": 0.0})
                continue
            _, df = ent
            docs, tfs = r.decoded_postings(t)
            i = int(np.searchsorted(docs, np.uint64(local)))
            if i >= len(docs) or int(docs[i]) != local:
                parts.append({"term": t, "matched": False, "df": int(df),
                              "tf": 0, "idf": r.idf(df),
                              "contribution": 0.0})
                continue
            tf = float(tfs[i])
            w = r.idf(df)
            contrib = float(self._bm25(w, local, tf))
            total += contrib
            parts.append({"term": t, "matched": True, "df": int(df),
                          "tf": int(tf), "idf": w,
                          "contribution": contrib})
        out = {"doc_id": int(doc_id), "dl": dl, "avgdl": r.avgdl,
               "k1": r.k1, "b": r.b, "parts": parts}
        if self.pr is not None:
            out["prior"] = float(self.pr_weight * self.pr[local])
            total += out["prior"]
        out["total"] = total
        return out

    def score_lm(self, terms: list[str], k: int, mu: float = 2000.0):
        """Query-likelihood ranking with Dirichlet smoothing (Zhai &
        Lafferty 2001, SIGIR — public; the per-matched-term
        decomposition Lucene's LMDirichletSimilarity uses): each query
        term ``t`` present in doc ``d`` contributes

            ln(1 + tf * C / (mu * cf_t)) + ln(mu / (dl_d + mu))

        where ``cf_t`` is t's collection frequency and ``C`` the total
        token count — both read once per actor from the global
        dictionary (``IndexReader.cf_stats``), so the scorer reuses the
        exact same decoded postings / dense-accumulator pass as BM25
        and is range-exact on the pool (every doc fully scored by its
        one range owner, global collection stats everywhere).
        The alternative ranking function the reference's hit scorer
        hard-codes away (SURVEY §2.8); rank contract (-score, doc_id),
        checked against the ``lm_dirichlet_topk`` SQL oracle."""
        r = self.rd
        cf_fn = getattr(r, "cf_stats", None)
        if cf_fn is None:   # delta/tombstone wrappers: cf corrections
            raise NotImplementedError(  # not implemented — fail loudly
                f"LM-Dirichlet needs dictionary cf stats; reader "
                f"{type(r).__name__} does not expose cf_stats()")
        cf, C = cf_fn()

        def lm(t, d, tf):
            return (np.log(1.0 + tf * float(C) / (mu * float(cf[t])))
                    + np.log(mu / (r.dl[d] + mu)))

        docs, s = self._accumulate(dict.fromkeys(terms, 1.0), contrib=lm)
        return _topk_from_scores(docs, s, k)

    def score_after(self, terms: list[str], k: int,
                    after_score: float, after_doc: int):
        """Next page: top-k docs strictly AFTER the ``(after_score,
        after_doc)`` cursor in the global (score desc, doc_id asc)
        order — Elasticsearch-style ``search_after`` (public API
        shape), the stateless alternative to offset paging.  The cursor
        cut runs on the same dense pass ``score_exact`` uses, so page
        boundaries compare bit-identical floats; per-page cost stays
        O(postings decoded), independent of page depth.  On the
        range-partitioned pool the same call runs per doc range and the
        per-range pages merge exactly (each range's filter is the same
        global predicate)."""
        docs, s = self._dense_scores(terms)
        keep = (s < after_score) | ((s == after_score)
                                    & (docs > int(after_doc)))
        return _topk_from_scores(docs[keep], s[keep], k)

    # ---- MaxScore with block-max skipping -----------------------------
    def score_maxscore(self, terms: list[str], k: int):
        r = self.rd
        # resolve terms; sort by upper bound descending, term_id tiebreak
        infos = []
        for t in sorted(set(terms)):
            ent = r.lookup(t)
            if not ent:
                continue
            tid, df = ent
            w = r.idf(df)
            infos.append((w * (r.k1 + 1.0), w, t, tid, df))
        if not infos:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        infos.sort(key=lambda x: (-x[0], x[3]))
        ubs = np.array([i[0] for i in infos])
        rem = np.concatenate((np.cumsum(ubs[::-1])[::-1][1:], [0.0]))

        scores, touched = self._scratch()
        parts: list[np.ndarray] = []
        theta = -np.inf
        n_touched = 0
        i = 0
        # phase 1: essential terms — fully evaluated
        while i < len(infos):
            if n_touched >= k and rem[i] + ubs[i] < theta:
                break  # no untouched doc can reach top-k via remaining terms
            _, w, t, _, _ = infos[i]
            docs, tfs = r.decoded_postings(t)
            d = docs.astype(np.int64)
            tf = tfs.astype(np.float64)
            new = d[~touched[d]]
            if len(new):
                parts.append(new)
                n_touched += len(new)
            scores[d] += self._bm25(w, d, tf)
            touched[d] = True
            if n_touched >= k:
                tdocs = np.concatenate(parts)
                theta = np.partition(scores[tdocs], len(tdocs) - k)[len(tdocs) - k]
            i += 1
        tdocs = (np.concatenate(parts) if parts
                 else np.empty(0, np.int64))
        # phase 2: non-essential terms — decoded only where candidates
        # live.  Skip blocks / decoded postings carry GLOBAL doc ids;
        # a range reader's dense arrays and candidates are LOCAL
        # (global - doc_lo), so translate at the boundary — the pool's
        # range owners get the same phase-2 pruning as the full reader
        # (round-4; parity asserted in tests/test_pool.py)
        lo = np.int64(getattr(r, "doc_lo", 0))
        if i < len(infos):
            cand = tdocs[scores[tdocs] + rem[i - 1] >= theta] if n_touched >= k else tdocs
            cand_g = (cand + lo).astype(np.uint64)
            for j in range(i, len(infos)):
                _, w, t, _, _ = infos[j]
                rows = r.posting_rows(t)
                for row in rows:
                    sd = np.asarray(row["skip_docs"], dtype=np.uint64)
                    if len(sd) == 0:
                        continue
                    # blocks whose doc range intersects a candidate
                    blk = np.unique(np.searchsorted(sd, cand_g))
                    blk = blk[blk < len(sd)]
                    if len(blk) == 0:
                        continue
                    d, tf = decode_blocks(
                        row["doc_blob"], row["tf_blob"], row["df"], blk,
                        sd, row["skip_doc_off"], row["skip_tf_off"],
                    )
                    d = d.astype(np.int64) - lo
                    inb = (d >= 0) & (d < r.doc_space)
                    keep = np.zeros(len(d), bool)
                    keep[inb] = touched[d[inb]]
                    d, tf = d[keep], tf[keep].astype(np.float64)
                    if len(d) == 0:
                        continue
                    scores[d] += self._bm25(w, d, tf)
        self._finish(tdocs)
        return _topk_from_scores(tdocs, scores[tdocs], k)

    def score(self, terms: list[str], k: int):
        if self.pr is not None:
            return self.score_blended(terms, k)
        if self.use_maxscore:
            return self.score_maxscore(terms, k)
        return self.score_exact(terms, k)

    def score_title_boost(self, terms: list[str], k: int,
                          title_len: int = 8, boost: float = 2.0):
        """Field-weighted BM25 (BM25F-style): occurrences inside the
        title region (first ``title_len`` tokens) count ``boost``x — the
        reference's title-vs-excerpt hit routing
        (CompileHitList.h:142-177; title comparator CompileRankedList.h).
        Title tf is DERIVED from in-index positions, no extra storage:
        tf_eff = tf + (boost-1) * #(positions < title_len)."""
        r = self.rd

        def title_tf(t):
            d, f, flat, offs = r.decoded_positions(t)
            if len(d) == 0:
                return d, f
            tft = np.add.reduceat(
                (flat < np.uint64(title_len)).astype(np.float64), offs[:-1])
            return d, f.astype(np.float64) + (boost - 1.0) * tft

        docs, s = self._accumulate(dict.fromkeys(terms, 1.0),
                                   postings=title_tf)
        return _topk_from_scores(docs, s, k)

    def score_with_prior(self, terms: list[str], k: int,
                         prior: np.ndarray, prior_weight: float = 1.0):
        """BM25 + prior_weight * prior[doc] over the BM25 candidate set
        (docs matching >=1 query term — the reference also only ranks
        posting candidates).  ``prior`` is any per-doc authority vector
        (PageRank, hierarchy expected-reward, a blend).  Exact dense
        path so the additive blend stays exact."""
        docs, s = self._dense_scores(terms)
        return _topk_from_scores(docs, s + prior_weight * prior[docs], k)

    def score_blended(self, terms: list[str], k: int):
        """BM25 + pr_weight * pagerank (SHitItem.pulse_score blending)."""
        return self.score_with_prior(terms, k, self.pr, self.pr_weight)

    def score_prefix(self, prefixes: list[str], k: int,
                     max_expansions: int = 512):
        """Wildcard search: each prefix expands to every dictionary
        term starting with it (Lucene PrefixQuery rewrite), then the
        union scores as a disjunctive BM25 — each expanded term keeps
        its own idf, so scores match the SQL oracle's
        ``term LIKE 'p%'`` query exactly."""
        expanded: set[str] = set()
        for p in prefixes:
            expanded.update(self.rd.expand_prefix(p, max_expansions))
        if not expanded:
            return np.empty(0, np.int64), np.empty(0, np.float64)
        return self.score_exact(sorted(expanded), k)

    def score_expanded(self, terms: list[str], k: int,
                       assoc: dict[str, list[str]], discount: float = 0.5,
                       per_term: int = 1):
        """Association-driven query expansion (opt-in): each query term
        pulls in its top ``per_term`` associated partners at
        ``discount`` x their BM25 contribution — the reference's
        TextStringServer synonym/weight lookup applied at query time
        (/root/reference/DyableRequest/.../TextStringServer.h:40-116;
        the association maps are stage-11 output,
        DyableCommand/DyableCommand.cpp:290-304; build them with
        functions.text.association_map).

        Weight rules (mirrored by the SQL oracle): original terms score
        at 1.0; a partner already in the query keeps 1.0; a partner
        reachable from several query terms scores ONCE at ``discount``
        (max-weight, not additive).  Exact dense path, (-score, doc_id)
        rank contract."""
        weights: dict[str, float] = {t: 1.0 for t in sorted(set(terms))}
        for t in sorted(set(terms)):
            for p in assoc.get(t, [])[:per_term]:
                if p not in weights:
                    weights[p] = discount
        docs, s = self._accumulate(weights)
        return _topk_from_scores(docs, s, k)

    def score_conjunctive(self, terms: list[str], k: int):
        """AND semantics: only docs containing EVERY query term rank
        (the strict form of the reference's match-count-first ordering,
        CompileRankedList.h multi-key comparators).  Posting lists are
        doc-ascending (fresh, merged and compacted indexes all
        guarantee it), so candidates narrow via sorted intersection;
        the survivors then score in the one dense pass."""
        docs, s = self._accumulate(dict.fromkeys(terms, 1.0),
                                   keep=self._docs_with_all(terms))
        return _topk_from_scores(docs, s, k)

    def score_filtered(self, terms: list[str], k: int,
                       allowed_ids: np.ndarray):
        """BM25 restricted to docs in ``allowed_ids`` (sorted int64 —
        e.g. a metadata predicate's doc set), with GLOBAL corpus stats:
        the filter narrows candidates, it does not reweight idf/avgdl —
        standard filter-context semantics, and what the SQL oracle
        computes (global BM25 CTE, predicate at the final select)."""
        docs, s = self._accumulate(
            dict.fromkeys(terms, 1.0),
            keep=np.asarray(allowed_ids, dtype=np.int64))
        return _topk_from_scores(docs, s, k)

    def score_excluding(self, terms: list[str], k: int,
                        not_terms: list[str]):
        """BM25 with NOT semantics: docs containing ANY ``not_terms``
        are excluded from the candidate set — the reference's EXCLUDE
        word-type routing (SWordHit EXCLUDE bit, FileStorage.h:31-45;
        exclude-listed terms are dropped from indexing at
        Webpage.h:334-346; here exclusion is per-query instead).
        Scoring stats stay global (idf/avgdl unchanged), matching the
        SQL oracle's NOT EXISTS at the final select."""
        docs, s = self._accumulate(dict.fromkeys(terms, 1.0),
                                   drop=self._docs_with_any(not_terms))
        return _topk_from_scores(docs, s, k)

    def score_query(self, qstr: str, k: int, max_expansions: int = 512):
        """One-call front-end search over the full query-string syntax
        (``parse_query``): weighted OR terms, ``+required``,
        ``-excluded`` and ``prefix*`` wildcards composed in a single
        scoring pass — the serving analog of the reference's parsed
        query routing.  Semantics (mirrored by the SQL oracle):

        - every scoring term contributes ``max-merged weight x idf x
          tf-saturation`` (global corpus stats throughout);
        - candidates must contain ALL required terms (sorted posting
          intersection), match every quoted phrase and NEAR/ONEAR
          predicate (positional doc sets, decoded range-locally), and
          contain NO excluded term;
        - rank contract (-score, doc_id), as everywhere."""
        p = parse_query(qstr)
        r = self.rd
        empty = (np.empty(0, np.int64), np.empty(0, np.float64))
        weights = dict(p["weights"])
        for pre, w in p["prefixes"]:
            for t in r.expand_prefix(pre, max_expansions):
                weights[t] = max(weights.get(t, 0.0), w)
        if not weights:
            return empty
        cand = self._docs_with_all(p["required"])   # None: no AND terms
        if cand is not None and len(cand) == 0:
            return empty
        if p["phrases"] or p["nears"]:
            # lazy import: positional.py imports this module
            from .positional import near_counts, phrase_counts
            preds = itertools.chain(
                (phrase_counts(r, terms)[0] for terms in p["phrases"]),
                (near_counts(r, a, b, slop, ordered)[0]
                 for a, b, slop, ordered in p["nears"]))
            for d in preds:
                cand = d if cand is None else np.intersect1d(
                    cand, d, assume_unique=True)
                if len(cand) == 0:
                    return empty
        docs, s = self._accumulate(weights, keep=cand,
                                   drop=self._docs_with_any(p["excluded"]))
        return _topk_from_scores(docs, s, k)
