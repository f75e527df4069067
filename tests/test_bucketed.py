"""Bucketed table layout: write/read round trip, zero-shuffle co-bucketed
join equals the exchange join for every mode, manifest guards."""

import glob
import os

import numpy as np
import pandas as pd
import pytest
import ray

from etl_framework_ray.stages.bucketed import (
    bucketed_equi_join,
    read_manifest,
    write_bucketed,
)
from etl_framework_ray.stages.joins import equi_join


def _sides(seed=47, n_left=4000):
    rng = np.random.default_rng(seed)
    left = pd.DataFrame({
        "k": rng.integers(0, 300, n_left).astype("float64"),
        "lv": rng.normal(size=n_left),
    })
    left.loc[rng.random(n_left) < 0.03, "k"] = np.nan
    right = pd.DataFrame({
        "rk": np.arange(0, 250, dtype=np.int64).astype("float64"),
        "rv": rng.normal(size=250),
    })
    right = pd.concat([right, right.head(30)], ignore_index=True)  # dup keys
    return left, right


def _norm(df):
    cols = sorted(df.columns)
    return df[cols].sort_values(cols, na_position="first").reset_index(drop=True)


@pytest.mark.usefixtures("ray_session")
def test_roundtrip_and_manifest(tmp_path):
    left, _ = _sides()
    d = str(tmp_path / "t")
    r = write_bucketed(ray.data.from_pandas(left).repartition(7), d, "k", num_buckets=8)
    assert r == {"buckets": 8, "rows": len(left)}
    assert read_manifest(d)["key"] == "k"
    back = pd.concat(
        pd.read_parquet(f) for f in sorted(glob.glob(os.path.join(d, "bucket=*", "*.parquet")))
    )
    pd.testing.assert_frame_equal(_norm(back), _norm(left))


@pytest.mark.usefixtures("ray_session")
@pytest.mark.parametrize("how", ["inner", "left", "semi", "anti"])
def test_bucketed_join_equals_exchange_join(tmp_path, how):
    left, right = _sides()
    ld, rd = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(ray.data.from_pandas(left).repartition(5), ld, "k", num_buckets=6)
    write_bucketed(ray.data.from_pandas(right).repartition(3), rd, "rk", num_buckets=6)
    rc = [] if how in ("semi", "anti") else ["rv"]
    got = _norm(bucketed_equi_join(ld, rd, "k", "rk", rc, how=how).to_pandas())
    exp = _norm(
        equi_join(
            ray.data.from_pandas(left), ray.data.from_pandas(right),
            "k", "rk", rc, how=how,
        ).to_pandas()
    )
    pd.testing.assert_frame_equal(got, exp)


@pytest.mark.usefixtures("ray_session")
def test_guards(tmp_path):
    left, right = _sides(n_left=200)
    ld, rd = str(tmp_path / "l"), str(tmp_path / "r")
    write_bucketed(ray.data.from_pandas(left), ld, "k", num_buckets=4)
    write_bucketed(ray.data.from_pandas(right), rd, "rk", num_buckets=8)
    with pytest.raises(ValueError, match="bucket count mismatch"):
        bucketed_equi_join(ld, rd, "k", "rk", ["rv"])
    with pytest.raises(FileNotFoundError, match="not a bucketed table"):
        read_manifest(str(tmp_path / "nope"))
    write_bucketed(ray.data.from_pandas(right), rd, "rk", num_buckets=4)
    with pytest.raises(ValueError, match="bucketing keys"):
        bucketed_equi_join(ld, rd, "lv", "rk", ["rv"])
