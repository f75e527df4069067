"""Exact rank-select quantiles vs numpy ground truth: skewed data, heavy
ties, refinement path, boundary q values."""

import numpy as np
import pyarrow as pa
import pytest

from etl_framework_ray.stages.quantiles import rank_select_quantiles


def _check(v, qs, **kw):
    import ray.data

    ds = ray.data.from_arrow(pa.table({"x": pa.array(v, pa.float64())})).repartition(4)
    out = rank_select_quantiles(ds, "x", qs, **kw).to_pandas()
    sv = np.sort(v)
    for q, got in zip(out.q, out.v):
        assert got == sv[int(np.floor(q * (len(v) - 1)))], q


@pytest.mark.usefixtures("ray_session")
def test_quantiles_lognormal_exact():
    rng = np.random.default_rng(1)
    _check(rng.lognormal(3, 2, 20_000), (0.0, 0.25, 0.5, 0.9, 0.99, 1.0), collect_limit=200)


@pytest.mark.usefixtures("ray_session")
def test_quantiles_heavy_ties_refine():
    """A bucket of 10k identical values exceeds collect_limit and must
    refine down to a point bucket without losing exactness."""
    v = np.repeat([1.0, 2.0, 2.0, 9.0], 5_000)
    _check(v, (0.1, 0.5, 0.6, 0.9), collect_limit=100, max_refine=3)


@pytest.mark.usefixtures("ray_session")
def test_quantiles_empty_and_constant():
    import ray.data

    empty = ray.data.from_arrow(pa.table({"x": pa.array([], pa.float64())}))
    assert rank_select_quantiles(empty, "x").num_rows == 0
    const = ray.data.from_arrow(pa.table({"x": pa.array([7.0] * 100, pa.float64())}))
    all_null = ray.data.from_arrow(pa.table({"x": pa.array([None] * 3, pa.float64())}))
    assert rank_select_quantiles(all_null, "x").num_rows == 0
    # a zero-block dataset aggregates to None, not to a zero count
    assert rank_select_quantiles(const.limit(0), "x").num_rows == 0
    out = rank_select_quantiles(const, "x", (0.0, 0.5, 1.0)).to_pandas()
    assert (out.v == 7.0).all()


@pytest.mark.usefixtures("ray_session")
def test_quantiles_exclude_nulls():
    """n counts NON-NULL values (SQL aggregate semantics); all-null is empty."""
    import ray.data

    v = [None, 1.0, None, 2.0, 3.0, None, 4.0, 5.0]
    ds = ray.data.from_arrow(pa.table({"x": pa.array(v, pa.float64())})).repartition(3)
    out = rank_select_quantiles(ds, "x", (0.0, 0.5, 1.0)).to_pandas()
    assert list(out.v) == [1.0, 3.0, 5.0]  # ranks over the 5 non-null values
    allnull = ray.data.from_arrow(pa.table({"x": pa.array([None, None], pa.float64())}))
    assert rank_select_quantiles(allnull, "x").num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_grouped_quantiles_match_duckdb_with_refinement():
    """Per-group rank-select equals the SQL PARTITION BY oracle, including
    a group forced through the refinement path (tiny collect_limit) and a
    constant-valued group."""
    import duckdb
    import numpy as np
    import pandas as pd
    import ray.data

    from etl_framework_ray.stages.quantiles import grouped_rank_select_quantiles

    rng = np.random.default_rng(11)
    frames = []
    # skewed big group (forces refinement at collect_limit=50), a small
    # uniform group, and a constant group
    frames.append(pd.DataFrame({"g": "big", "x": rng.lognormal(0, 2, size=5000)}))
    frames.append(pd.DataFrame({"g": "small", "x": rng.uniform(0, 1, size=40)}))
    frames.append(pd.DataFrame({"g": "const", "x": np.full(25, 3.5)}))
    df = pd.concat(frames, ignore_index=True)
    ds = ray.data.from_pandas(df).repartition(6)

    out = (
        grouped_rank_select_quantiles(
            ds, "g", "x", (0.1, 0.5, 0.99), bins=64, collect_limit=50, max_refine=4
        )
        .to_pandas()
        .sort_values(["g", "q"])
        .reset_index(drop=True)
    )

    con = duckdb.connect()
    con.register("t", df)
    exp = con.execute("""
        WITH s AS (
            SELECT g, x AS v,
                   ROW_NUMBER() OVER (PARTITION BY g ORDER BY x) - 1 AS rn,
                   COUNT(*) OVER (PARTITION BY g) AS c
            FROM t
        )
        SELECT s.g, CAST(t.q AS DOUBLE) AS q, s.v
        FROM (VALUES (0.1), (0.5), (0.99)) t(q)
        JOIN s ON s.rn = CAST(FLOOR(t.q * (s.c - 1)) AS BIGINT)
        ORDER BY g, q
    """).df()
    pd.testing.assert_frame_equal(out, exp, check_dtype=False)
    assert (out[out.g == "const"].v == 3.5).all()


# ---------------------------------------------------------------------------
# approx_quantiles — the one-pass sketch tier
# ---------------------------------------------------------------------------


@pytest.mark.usefixtures("ray_session")
def test_approx_quantiles_rank_error_bound():
    """The one-pass sketch must land within its documented rank-error
    budget of the exact answer: (depth+1)/(2k) of N. At 200k values,
    16 blocks, fan-in 8 (depth 2), k=512 → ≤0.3% rank error; we assert a
    conservative 1% in VALUE space on a continuous distribution."""
    import ray.data

    from etl_framework_ray.stages.quantiles import approx_quantiles

    rng = np.random.default_rng(7)
    x = rng.lognormal(mean=3.0, sigma=1.0, size=200_000)
    t = pa.table({"x": pa.array(x, pa.float64())})
    ds = ray.data.from_arrow(t).repartition(16)
    got = approx_quantiles(ds, "x", (0.1, 0.5, 0.9, 0.99), k=512).to_pandas()
    xs = np.sort(x)
    for q, v in zip(got["q"], got["v"]):
        # translate: the returned value's true rank must sit within 1% of q
        true_rank = np.searchsorted(xs, v, side="left") / len(xs)
        assert abs(true_rank - q) <= 0.01, (q, v, true_rank)


@pytest.mark.usefixtures("ray_session")
def test_approx_quantiles_nulls_and_empty():
    import ray.data

    from etl_framework_ray.stages.quantiles import approx_quantiles

    t = pa.table({"x": pa.array([None, 1.0, None, 2.0, 3.0], pa.float64())})
    got = approx_quantiles(ray.data.from_arrow(t), "x", (0.0, 1.0)).to_pandas()
    assert list(got["v"]) == [1.0, 3.0]  # nulls excluded, exact at n<=k

    empty = pa.table({"x": pa.array([], pa.float64())})
    out = approx_quantiles(ray.data.from_arrow(empty), "x", (0.5,))
    assert out.num_rows == 0


@pytest.mark.usefixtures("ray_session")
def test_approx_quantiles_small_input_is_exact():
    """n ≤ k: the summary IS the sorted column, so the sketch equals the
    exact rank-select answer on every q."""
    import ray.data

    from etl_framework_ray.stages.quantiles import approx_quantiles

    rng = np.random.default_rng(11)
    x = rng.normal(size=400)
    ds = ray.data.from_arrow(pa.table({"x": pa.array(x, pa.float64())})).repartition(3)
    got = approx_quantiles(ds, "x", (0.25, 0.5, 0.75), k=512).to_pandas()
    xs = np.sort(x)
    for q, v in zip(got["q"], got["v"]):
        # summary weights are 1 → searchsorted(cum, q*N) picks ceil(q*N)-1
        assert v == xs[max(0, int(np.ceil(q * len(xs))) - 1)], (q, v)
