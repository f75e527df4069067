"""GROUPING SETS / ROLLUP / CUBE vs DuckDB: grouping ids, NULL-key
groups, NULL-valued aggregates, empty input, and partition invariance."""

import duckdb
import numpy as np
import pandas as pd
import pyarrow as pa
import pytest
import ray

from etl_framework_ray.stages.rollup import grouping_sets, rollup_sets

AGGS = {
    "n_rows": ("count", None),
    "n_vals": ("count_col", "x"),
    "sum_x": ("sum", "x"),
    "min_x": ("min", "x"),
    "max_x": ("max", "x"),
    "avg_x": ("avg", "x"),
    "sum_i": ("sum", "i"),
}

_AGG_SQL = """CAST(COUNT(*) AS BIGINT) AS n_rows, CAST(COUNT(x) AS BIGINT) AS n_vals,
       SUM(x) AS sum_x, MIN(x) AS min_x, MAX(x) AS max_x, AVG(x) AS avg_x,
       SUM(i) AS sum_i"""


def _frame(seed=11, n=4000):
    rng = np.random.default_rng(seed)
    a = pd.Series(rng.choice(["p", "q", "r", None], n), dtype=object)
    b = pd.Series(rng.choice(["u", "v", None], n), dtype=object)
    x = pd.Series(rng.normal(10, 3, n))
    x[rng.random(n) < 0.15] = np.nan
    i = pd.Series(rng.integers(-50, 50, n), dtype="int64")
    return pd.DataFrame({"a": a, "b": b, "x": x, "i": i})


def _norm(df: pd.DataFrame) -> pd.DataFrame:
    df = df.copy()
    for c in ("sum_x", "min_x", "max_x", "avg_x"):
        if c in df:
            df[c] = df[c].round(9)
    if "sum_i" in df:
        df["sum_i"] = df["sum_i"].astype("float64")  # nullable-int compare
    return (
        df.sort_values(["grouping_id", "a", "b"], na_position="first")
        .reset_index(drop=True)
        .astype({"grouping_id": "int64", "n_rows": "int64"})
    )


def _run(df, sets, parallelism=7):
    ds = ray.data.from_pandas(df).repartition(parallelism)
    return grouping_sets(ds, sets, AGGS).to_pandas()


def _oracle(df, sets_sql):
    con = duckdb.connect()
    con.register("t", df)
    return con.sql(
        f"""SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id, {_AGG_SQL}
            FROM t GROUP BY GROUPING SETS {sets_sql}"""
    ).df()


@pytest.mark.usefixtures("ray_session")
def test_rollup_matches_duckdb():
    df = _frame()
    got = _norm(_run(df, rollup_sets(["a", "b"])))
    exp = _norm(_oracle(df, "((a, b), (a), ())"))
    pd.testing.assert_frame_equal(got[exp.columns], exp)


@pytest.mark.usefixtures("ray_session")
def test_cube_and_custom_sets_match_duckdb():
    df = _frame(seed=5, n=2500)
    got = _norm(_run(df, [("a", "b"), ("a",), ("b",), ()]))  # CUBE(a, b)
    exp = _norm(_oracle(df, "((a, b), (a), (b), ())"))
    pd.testing.assert_frame_equal(got[exp.columns], exp)

    con = duckdb.connect()
    con.register("t", df)
    exp = con.sql(
        f"""SELECT b, CAST(GROUPING(b) AS BIGINT) AS grouping_id, {_AGG_SQL}
            FROM t GROUP BY GROUPING SETS ((b), ())"""
    ).df()
    got = _run(df, [("b",), ()])
    key = ["grouping_id", "b"]

    def norm1(d):
        d = d.copy()
        for c in ("sum_x", "min_x", "max_x", "avg_x"):
            d[c] = d[c].round(9)
        d["sum_i"] = d["sum_i"].astype("float64")
        return (
            d.sort_values(key, na_position="first")
            .reset_index(drop=True)
            .astype({"grouping_id": "int64", "n_rows": "int64"})
        )

    pd.testing.assert_frame_equal(norm1(got)[exp.columns], norm1(exp))


@pytest.mark.usefixtures("ray_session")
def test_partition_invariance():
    df = _frame(seed=3, n=1200)
    a = _norm(_run(df, rollup_sets(["a", "b"]), parallelism=1))
    b = _norm(_run(df, rollup_sets(["a", "b"]), parallelism=13))
    pd.testing.assert_frame_equal(a, b)


@pytest.mark.usefixtures("ray_session")
def test_empty_input_emits_only_zero_column_sets():
    schema = pa.schema(
        [("a", pa.string()), ("b", pa.string()), ("x", pa.float64()), ("i", pa.int64())]
    )
    ds = ray.data.from_arrow(schema.empty_table())
    out = grouping_sets(ds, rollup_sets(["a", "b"]), AGGS).to_pandas()
    # DuckDB: ROLLUP on empty input -> ONE row, the () set
    assert len(out) == 1
    r = out.iloc[0]
    assert r["grouping_id"] == 3 and r["n_rows"] == 0 and r["n_vals"] == 0
    assert pd.isna(r["sum_x"]) and pd.isna(r["avg_x"]) and pd.isna(r["sum_i"])

    out2 = grouping_sets(ds, [("a",), ("a", "b")], AGGS).to_pandas()
    assert len(out2) == 0


@pytest.mark.usefixtures("ray_session")
def test_helpers_and_validation():
    assert rollup_sets(["a", "b"]) == [("a", "b"), ("a",), ()]
    ds = ray.data.from_pandas(_frame(n=50))
    with pytest.raises(ValueError, match="duplicate"):
        grouping_sets(ds, [("a",), ("a",)], AGGS)
    with pytest.raises(ValueError, match="unknown fn"):
        grouping_sets(ds, [("a",)], {"z": ("median", "x")})
    with pytest.raises(ValueError, match="needs a column"):
        grouping_sets(ds, [("a",)], {"z": ("sum", None)})
    with pytest.raises(KeyError):
        grouping_sets(ds, [("nope",)], AGGS)


@pytest.mark.usefixtures("ray_session")
def test_variance_family_matches_duckdb():
    """var_samp / var_pop / stddev_samp / stddev_pop vs DuckDB, including
    the SQL gates: a single-row group (samp NULL, pop 0), a constant
    group (both 0, cancellation clipped), all-NULL values, and int input."""
    df = _frame(seed=7, n=3000)
    extra = pd.DataFrame(
        {
            "a": ["solo", "const", "const", "const"],
            "b": [None, "u", "u", "u"],
            "x": [3.5, 7.0, 7.0, 7.0],
            "i": [1, 2, 3, 4],
        }
    )
    df = pd.concat([df, extra], ignore_index=True)
    aggs = {
        "n_vals": ("count_col", "x"),
        "vs_x": ("var_samp", "x"),
        "vp_x": ("var_pop", "x"),
        "ss_x": ("stddev_samp", "x"),
        "sp_x": ("stddev_pop", "x"),
        "vs_i": ("var_samp", "i"),
    }
    ds = ray.data.from_pandas(df).repartition(7)
    got = grouping_sets(ds, rollup_sets(["a", "b"]), aggs).to_pandas()
    con = duckdb.connect()
    con.register("t", df)
    exp = con.sql(
        """SELECT a, b, CAST(GROUPING(a, b) AS BIGINT) AS grouping_id,
                  CAST(COUNT(x) AS BIGINT) AS n_vals,
                  var_samp(x) AS vs_x, var_pop(x) AS vp_x,
                  stddev_samp(x) AS ss_x, stddev_pop(x) AS sp_x,
                  var_samp(i) AS vs_i
           FROM t GROUP BY ROLLUP(a, b)"""
    ).df()

    def norm(d: pd.DataFrame) -> pd.DataFrame:
        d = d.copy()
        for c in ("vs_x", "vp_x", "ss_x", "sp_x", "vs_i"):
            d[c] = d[c].astype("float64").round(8)
        return (
            d.sort_values(["grouping_id", "a", "b"], na_position="first")
            .reset_index(drop=True)
            .astype({"grouping_id": "int64", "n_vals": "int64"})
        )

    g, e = norm(got), norm(exp)
    pd.testing.assert_frame_equal(g[e.columns], e)
    # spot-check the gates explicitly
    solo = g[(g["a"] == "solo") & (g["grouping_id"] == 0)].iloc[0]
    assert pd.isna(solo["vs_x"]) and solo["vp_x"] == 0.0
    const = g[(g["a"] == "const") & (g["grouping_id"] == 0)].iloc[0]
    assert const["vs_x"] == 0.0 and const["sp_x"] == 0.0
