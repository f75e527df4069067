"""Zone-map file statistics: per-file column min/max recorded at write
time and evaluated at read time for data skipping.

The design follows the published Delta Lake / Iceberg data-skipping
scheme (Armbrust et al., VLDB 2020 §4.3: per-file min/max stats in the
transaction log, conjunctive predicate pruning before any file is
opened). The reference repo has no analogue — it delegates skipping to
Delta; this engine records the stats in its own manifest.

Safety under merge-on-read (the part Delta does not have to think about
because its deletion vectors are file-scoped):

- **Partition-level pruning is always safe.** Every merged output row is
  (a later version of) a row present in some live file of the partition,
  so if NO file in the partition can contain a predicate-matching row,
  the merged output cannot either.
- **File-level pruning is safe only on PRIMARY-KEY conjuncts.** LWW
  survivorship is per key: a file whose key range precludes a key cannot
  affect that key's survivor. Pruning by a VALUE column would be wrong —
  dropping a delta file that holds the (non-matching) newest version of
  a key would resurrect its older, matching version from the base file.
- **Append-only tables (no PK) concat instead of merging**, so file-level
  pruning on any column is safe there.

Stats are JSON-encoded into the manifest (tagged values, so timestamps
and dates survive the round-trip); string bounds are truncated to a cap
with the upper bound character-bumped (a truncated max is NOT a valid
upper bound — the bump restores validity, exactly the trick Iceberg's
``truncate`` transform uses). Any column, type, file or comparison the
module does not understand degrades to "cannot prune", never to a wrong
answer.

Predicates are conjunctions of ``(column, op, value)`` triples with op in
``== != < <= > >= in is_null not_null``.
"""

from __future__ import annotations

import pyarrow as pa
import pyarrow.compute as pc

#: truncation cap for string bounds (bytes of UTF-8 kept)
STRING_CAP = 48

_COMPARISONS = {"==", "=", "!=", "<", "<=", ">", ">=", "in"}
_OPS = _COMPARISONS | {"is_null", "not_null"}


# ---------------------------------------------------------------------------
# value encoding — tagged JSON-safe scalars
# ---------------------------------------------------------------------------
def _family(t: pa.DataType) -> str | None:
    """Comparable family of an Arrow type; None = unsupported (no stats)."""
    if pa.types.is_boolean(t) or pa.types.is_integer(t) or pa.types.is_floating(t):
        return "num"
    if pa.types.is_string(t) or pa.types.is_large_string(t):
        return "str"
    if pa.types.is_timestamp(t):
        return "ts"
    if pa.types.is_date(t):
        return "date"
    return None


def _canon(value, family: str):
    """Normalize a bound or predicate literal into the family's canonical
    comparable Python value. Returns None when the value cannot be
    normalized (caller treats as 'cannot prune')."""
    try:
        if family == "num":
            # ints stay EXACT: float64 canonicalization would round values
            # >= 2^53 (snowflake ids, ns-epoch ints) and a rounded-up min
            # or rounded-down max makes pruning silently drop matching
            # rows. Python compares int/float exactly, so mixed bounds
            # from either capture path stay correct.
            if isinstance(value, bool):
                return int(value)
            if isinstance(value, int):
                return value
            return float(value)
        if family == "str":
            return str(value)
        if family == "ts":
            # predicate literals may be datetime/pd.Timestamp/ISO string;
            # stats store int microseconds already
            if isinstance(value, (int, float)):
                return int(value)
            return pa.scalar(value).cast(pa.timestamp("us")).value
        if family == "date":
            if isinstance(value, int):
                return value
            return pa.scalar(value).cast(pa.date32()).value
    except (pa.ArrowInvalid, pa.ArrowNotImplementedError, TypeError, ValueError):
        return None
    return None


def _bump_string(prefix: str) -> str | None:
    """Smallest string > every string with this prefix: increment the last
    incrementable character and drop the tail. None = unbounded."""
    chars = list(prefix)
    while chars:
        cp = ord(chars[-1])
        if cp < 0x10FFFF:
            chars[-1] = chr(cp + 1)
            return "".join(chars)
        chars.pop()
    return None


def _encode_bounds(mn, mx, t: pa.DataType) -> tuple:
    """→ (min_canon, max_canon, open_max) in family-canonical form.
    ``open_max`` True means the true max exceeds the stored bound
    (truncated string) — treat the upper bound as +inf."""
    fam = _family(t)
    if fam == "str":
        smn, smx = str(mn), str(mx)
        if len(smn) > STRING_CAP:
            smn = smn[:STRING_CAP]  # prefix is a valid LOWER bound
        if len(smx) > STRING_CAP:
            bumped = _bump_string(smx[:STRING_CAP])
            if bumped is None:
                return smn, None, True
            return smn, bumped, False
        return smn, smx, False
    if fam == "ts":
        return (
            pa.scalar(mn).cast(pa.timestamp("us")).value,
            pa.scalar(mx).cast(pa.timestamp("us")).value,
            False,
        )
    if fam == "date":
        return (
            pa.scalar(mn).cast(pa.date32()).value,
            pa.scalar(mx).cast(pa.date32()).value,
            False,
        )
    return _canon(mn, "num"), _canon(mx, "num"), False


# ---------------------------------------------------------------------------
# stats capture
# ---------------------------------------------------------------------------
def table_stats(t: pa.Table, columns: list[str] | None = None) -> dict:
    """Per-column stats for one written table (or one streamed chunk):
    ``{col: {"f": family, "min": v, "max": v, "open": bool, "nulls": n,
    "rows": n}}``. Columns of unsupported types are omitted; all-null
    columns record bounds None (comparison predicates can never match)."""
    out: dict[str, dict] = {}
    names = columns if columns is not None else t.schema.names
    for name in names:
        if name not in t.schema.names:
            continue
        col = t.column(name)
        fam = _family(col.type)
        if fam is None:
            continue
        nulls = col.null_count
        entry = {"f": fam, "min": None, "max": None, "open": False,
                 "nulls": int(nulls), "rows": int(t.num_rows)}
        if t.num_rows - nulls > 0:
            try:
                mm = pc.min_max(col)
                mn, mx = mm["min"].as_py(), mm["max"].as_py()
            except (pa.ArrowInvalid, pa.ArrowNotImplementedError):
                continue
            if mn is not None:
                lo, hi, open_max = _encode_bounds(mn, mx, col.type)
                entry.update({"min": lo, "max": hi, "open": open_max})
        out[name] = entry
    return out


def _one_row_group_stats(g, sch: pa.Schema, want: set | None) -> dict:
    """Zone-map stats of ONE parquet row group from footer metadata.
    Conservative: a column whose stats the group omits or marks inexact
    (beyond the repairable truncated-string max) is absent."""
    chunk: dict[str, dict] = {}
    for ci in range(g.num_columns):
        col = g.column(ci)
        name = col.path_in_schema
        if "." in name or (want is not None and name not in want):
            continue  # nested leaf or untracked
        if name not in sch.names:
            continue
        fam = _family(sch.field(name).type)
        if fam is None:
            continue
        st = col.statistics
        if st is None or not st.has_min_max:
            continue
        mn, mx = st.min, st.max
        exact_min = getattr(st, "is_min_value_exact", True)
        exact_max = getattr(st, "is_max_value_exact", True)
        if exact_min is False or (exact_max is False and fam != "str"):
            continue  # truncated bounds we cannot repair
        try:
            lo, hi, open_max = _encode_bounds(mn, mx, sch.field(name).type)
        except (pa.ArrowInvalid, pa.ArrowNotImplementedError, TypeError, ValueError):
            continue
        if exact_max is False:
            # string max truncated by the parquet writer: bump repairs it
            hi = _bump_string(str(mx))
            open_max = hi is None
        nulls = st.null_count if st.has_null_count else 0
        chunk[name] = {"f": fam, "min": lo, "max": hi, "open": bool(open_max),
                      "nulls": int(nulls), "rows": int(g.num_rows)}
    return chunk


def stats_from_parquet_meta(path: str, columns: list[str] | None = None) -> dict:
    """Zone-map stats recovered from a parquet FOOTER (no data read) —
    for files written by ``Dataset.write_parquet`` where the writing task
    could not hand stats back to the driver. Merges row-group statistics;
    a column whose stats any row group omits, marks inexact, or whose
    physical order isn't the logical order, is dropped (conservative)."""
    import pyarrow.parquet as pq

    md = pq.read_metadata(path)
    sch = pq.read_schema(path)
    want = set(columns) if columns is not None else None
    acc: dict | None = None
    total = 0
    for rg in range(md.num_row_groups):
        g = md.row_group(rg)
        total += g.num_rows
        acc = merge_stats(acc, _one_row_group_stats(g, sch, want))
    out = acc or {}
    # row-count coverage check: stats must describe every row
    return {k: v for k, v in out.items() if v["rows"] == total}


#: resident bytes a held :class:`Footer` may cost per byte of its
#: serialized parquet footer: ``FileMetaData`` plus Arrow schema measured
#: 7.6-9.9x the serialized size, and 11.0-12.2x with every column's
#: per-group stats parsed (RSS over 16-20000 held footers of lake files
#: with 1-2048 row groups, 8 columns, pyarrow 16, x86-64 Linux)
FOOTER_RESIDENT_PER_BYTE = 13


class Footer:
    """One parquet file's footer, held for reuse: its ``metadata``
    (``FileMetaData``), its Arrow schema (``schema_arrow``) and the
    per-row-group zone stats of each column asked for, parsed from the
    footer once per column (:func:`_one_row_group_stats`). ``nbytes``
    bounds what it holds resident once every column is parsed
    (:data:`FOOTER_RESIDENT_PER_BYTE` × the serialized footer)."""

    __slots__ = ("metadata", "schema_arrow", "nbytes", "_cols")

    def __init__(self, metadata, schema_arrow: pa.Schema):
        self.metadata = metadata
        self.schema_arrow = schema_arrow
        self.nbytes = FOOTER_RESIDENT_PER_BYTE * metadata.serialized_size
        self._cols: dict[str, list] = {}

    def group_stats(self, columns) -> list[dict]:
        """Per row group, the zone stats of ``columns`` (a column a group
        has no usable stats for is absent from its dict)."""
        md = self.metadata
        missing = {c for c in columns if c not in self._cols}
        if missing:
            parsed = [
                _one_row_group_stats(md.row_group(rg), self.schema_arrow, missing)
                for rg in range(md.num_row_groups)
            ]
            for c in missing:
                self._cols[c] = [g.get(c) for g in parsed]
        per_col = [(c, self._cols[c]) for c in columns]
        return [
            {c: col[rg] for c, col in per_col if col[rg] is not None}
            for rg in range(md.num_row_groups)
        ]


def qualifying_row_groups(footer: Footer, conjuncts) -> list | None:
    """Row-group indices of a parquet file (its :class:`Footer`) whose
    footer stats could satisfy the conjunction — the within-file tier of
    data skipping (file → row group → residual row filter). Returns None
    when nothing can be skipped (read everything, no index list overhead).
    Safety mirrors file-level pruning: callers must pass PRIMARY-KEY
    conjuncts under merge-on-read (any key-column conjunct partitions
    rows consistently by key, so a skipped group cannot hold a different
    version of a surviving key), or any conjuncts on concat (append)
    reads."""
    if not conjuncts:
        return None
    # only predicate columns need stats
    groups = footer.group_stats(sorted({c[0] for c in conjuncts}))
    keep = [rg for rg, st in enumerate(groups) if file_can_match(st or None, conjuncts)]
    return keep if len(keep) < len(groups) else None


def merge_stats(acc: dict | None, more: dict) -> dict:
    """Fold chunk stats into an accumulator (streamed compaction writes
    stats per row-group chunk). Columns present in only one side keep the
    union — bounds stay valid because both sides cover disjoint rows of
    the same file; a column MISSING from a chunk that has rows would make
    bounds incomplete, so such columns are dropped entirely."""
    if acc is None:
        return {k: dict(v) for k, v in more.items()}
    out: dict[str, dict] = {}
    for name, a in acc.items():
        b = more.get(name)
        if b is None:
            if more:  # chunk had rows but no stats for this column → unsafe
                continue
            out[name] = a
            continue
        if a["f"] != b["f"]:
            continue
        m = {
            "f": a["f"],
            "nulls": a["nulls"] + b["nulls"],
            "rows": a["rows"] + b["rows"],
            "open": a["open"] or b["open"],
        }
        lo = [v for v in (a["min"], b["min"]) if v is not None]
        m["min"] = min(lo) if lo else None
        if a["max"] is None and a["min"] is not None or b["max"] is None and b["min"] is not None:
            # an unbounded (bump-failed) max stays unbounded
            m["max"], m["open"] = None, True
        else:
            hi = [v for v in (a["max"], b["max"]) if v is not None]
            m["max"] = max(hi) if hi else None
        out[name] = m
    return out


# ---------------------------------------------------------------------------
# pruning
# ---------------------------------------------------------------------------
def validate_predicate(conjuncts) -> None:
    for c in conjuncts:
        if len(c) not in (2, 3):
            raise ValueError(f"predicate conjunct must be (col, op[, value]): {c!r}")
        op = c[1]
        if op not in _OPS:
            raise ValueError(f"unsupported predicate op {op!r} (have {sorted(_OPS)})")
        if op in _COMPARISONS and len(c) != 3:
            raise ValueError(f"op {op!r} needs a value: {c!r}")
        if op == "in" and not isinstance(c[2], (list, tuple, set, frozenset)):
            # fail here, not as an opaque TypeError inside a merge task
            raise ValueError(f"op 'in' needs a list/tuple/set of values: {c!r}")


def file_can_match(stats: dict | None, conjuncts) -> bool:
    """Conservative test: could a file with these stats contain a row
    matching ALL conjuncts? Missing stats (file predates zone maps, or
    column untracked) → True."""
    if stats is None:
        return True
    for c in conjuncts:
        col, op = c[0], c[1]
        s = stats.get(col)
        if s is None:
            continue  # untracked column: cannot rule out
        if op == "is_null":
            if s["nulls"] == 0:
                return False
            continue
        if op == "not_null":
            if s["rows"] - s["nulls"] == 0:
                return False
            continue
        # comparison ops: SQL semantics — NULL never matches, so a file
        # with no non-null values cannot satisfy the conjunct
        if s["min"] is None and s["rows"] - s["nulls"] == 0:
            return False
        lo, hi, open_max = s["min"], s["max"], s["open"]
        if open_max:
            hi = None
        if op == "in":
            # SQL: NULL in the value list never matches anything extra
            vals = [v for v in c[2] if v is not None]
            if not vals:
                return False  # x IN (NULL) / x IN () matches no row
            cv = [_canon(v, s["f"]) for v in vals]
            if any(v is None for v in cv):
                continue  # un-normalizable literal: cannot prune
            if not any(_range_has(lo, hi, "==", v) for v in cv):
                return False
            continue
        cv = [_canon(c[2], s["f"])]
        if cv[0] is None:
            continue  # un-normalizable literal: cannot prune
        if not _range_has(lo, hi, "=" if op == "=" else op, cv[0]):
            return False
    return True


def _range_has(lo, hi, op: str, v) -> bool:
    """Could a value x with lo <= x <= hi satisfy ``x op v``? None bound =
    unbounded on that side."""
    if op in ("==", "="):
        return (lo is None or lo <= v) and (hi is None or v <= hi)
    if op == "!=":
        return not (lo is not None and hi is not None and lo == hi == v)
    if op == "<":
        return lo is None or lo < v
    if op == "<=":
        return lo is None or lo <= v
    if op == ">":
        return hi is None or hi > v
    if op == ">=":
        return hi is None or hi >= v
    raise AssertionError(op)


def partition_can_match(file_stats: dict, files: list[str], conjuncts) -> bool:
    """Partition-level skip test (safe under merge-on-read, module doc):
    True iff ANY live file could hold a matching row."""
    return any(file_can_match(file_stats.get(f), conjuncts) for f in files)


def split_key_conjuncts(conjuncts, key_cols) -> tuple[list, list]:
    """→ (key_conjuncts, value_conjuncts). Key conjuncts may prune
    individual files even under merge-on-read; value conjuncts may only
    prune whole partitions."""
    keys = set(key_cols)
    k = [c for c in conjuncts if c[0] in keys]
    return k, [c for c in conjuncts if c[0] not in keys]


# ---------------------------------------------------------------------------
# row-level evaluation (the residual filter after pruning)
# ---------------------------------------------------------------------------
def predicate_mask(t: pa.Table, conjuncts) -> pa.ChunkedArray | pa.Array:
    """Boolean mask over ``t`` for the conjunction (SQL three-valued
    semantics collapse to False: null comparisons do not match)."""
    mask = None
    for c in conjuncts:
        col, op = c[0], c[1]
        arr = t.column(col)
        if op == "is_null":
            m = pc.is_null(arr)
        elif op == "not_null":
            m = pc.is_valid(arr)
        else:
            v = c[2]
            if op == "in":
                # drop NULLs from the value list: SQL `x IN (1, NULL)`
                # matches x=1 and never the NULL rows, but pc.is_in
                # treats a null in the value_set as matching nulls
                vals = [x for x in v if x is not None]
                try:
                    vs = pa.array(vals, arr.type)
                except (pa.ArrowInvalid, pa.ArrowTypeError):
                    vs = pa.array(vals).cast(arr.type)  # e.g. ISO str → ts
                m = pc.is_in(arr, value_set=vs)
            else:
                fn = {"==": pc.equal, "=": pc.equal, "!=": pc.not_equal,
                      "<": pc.less, "<=": pc.less_equal,
                      ">": pc.greater, ">=": pc.greater_equal}[op]
                if not isinstance(v, pa.Scalar):
                    try:
                        v = pa.scalar(v, arr.type)
                    except (pa.ArrowInvalid, pa.ArrowTypeError):
                        v = pa.scalar(v).cast(arr.type)  # e.g. ISO str → ts
                m = fn(arr, v)
            m = pc.fill_null(m, False)
        mask = m if mask is None else pc.and_(mask, m)
    if mask is None:
        return pa.array([True] * t.num_rows)
    return mask


def filter_table(t: pa.Table, conjuncts) -> pa.Table:
    if not conjuncts:
        return t
    return t.filter(predicate_mask(t, conjuncts))


def zorder_permutation(t: pa.Table, cols: list[str]) -> "object":
    """Row permutation that Z-orders ``t`` on ``cols`` — the multi-column
    clustering key for zone-map pruning.

    Lexicographic sort gives tight file ranges on the FIRST column only; a
    range predicate on the second column still reads every file. Z-order
    interleaves the columns' bits so consecutive rows are close in EVERY
    clustered dimension at once — after a bounded-file split, each file's
    zone ranges are narrow on ALL the columns and a selective predicate on
    ANY of them (or a conjunction) skips files (Morton order, the layout
    Delta/Iceberg OPTIMIZE ZORDER uses).

    Values are RANK-normalized per call (``pc.rank``, null-safe and
    type-generic: ints, floats, timestamps, strings all work), so skewed
    distributions still spread across the curve; each column gets
    ``64 // len(cols)`` bits (capped at 32). Returns a numpy index array —
    apply with ``t.take(perm)`` (one wide gather, the engine's discipline).
    """
    import numpy as np

    k = len(cols)
    if k < 2:
        raise ValueError("zorder needs at least 2 columns (use a plain sort for 1)")
    if k > 8:
        raise ValueError("zorder supports at most 8 columns (64-bit curve)")
    n = t.num_rows
    bits = min(32, 64 // k)
    scale = (1 << bits) - 1
    z = np.zeros(n, dtype=np.uint64)
    if n == 0:
        return np.empty(0, dtype=np.int64)
    for i, c in enumerate(cols):
        r = pc.rank(
            t.column(c),
            sort_keys="ascending",
            null_placement="at_end",
            tiebreaker="first",  # unique ordinal ranks
        ).to_numpy(zero_copy_only=False)
        q = ((r - 1) * scale // max(n - 1, 1)).astype(np.uint64)
        for b in range(bits):
            z |= ((q >> np.uint64(b)) & np.uint64(1)) << np.uint64(b * k + i)
    return np.argsort(z, kind="stable")
