"""Sessionization and tumbling-window aggregates over event streams,
against hand-computed goldens (gap boundaries, timestamp ties)."""

import datetime as dt

import numpy as np
import pytest


def _ev(eid, user, sec, value, etype="view"):
    base = dt.datetime(2024, 1, 1)
    return {"event_id": eid, "user_id": user,
            "ts": base + dt.timedelta(seconds=sec),
            "event_type": etype, "value": value}


def test_sessionize_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import sessionize
    rows = [
        _ev(0, 1, 0, 1.0),
        _ev(1, 1, 1800, 2.0),     # gap == 1800s → SAME session (strict >)
        _ev(2, 1, 3601, 4.0),     # gap 1801s → new session
        _ev(3, 2, 0, 8.0),        # other user, own sessions
        _ev(5, 2, 0, 16.0),       # tie on ts → ordered by event_id
        _ev(4, 2, 0, 32.0),
    ]
    ds = rd.from_items(rows, override_num_blocks=3)
    out = sessionize(ds, gap_seconds=1800).to_pandas() \
        .sort_values(["user_id", "session_id"]).reset_index(drop=True)
    assert out["user_id"].tolist() == [1, 1, 2]
    assert out["session_id"].tolist() == [0, 1, 0]
    assert out["n_events"].tolist() == [2, 1, 3]
    assert out["total_value"].tolist() == [3.0, 4.0, 56.0]
    base_us = int(dt.datetime(2024, 1, 1).timestamp()) * 1_000_000
    assert out["start_us"].tolist() == [base_us, base_us + 3601 * 10**6,
                                        base_us]
    assert out["end_us"].tolist() == [base_us + 1800 * 10**6,
                                      base_us + 3601 * 10**6, base_us]


def test_asof_join_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import asof_join
    clicks = rd.from_items([
        _ev(10, 1, 100, 0, "click"),   # after views 0,1 → latest is 1
        _ev(11, 1, 5, 0, "click"),     # exact-match ts with view 0 → view 0
        _ev(12, 2, 50, 0, "click"),    # user 2 has no views → null
    ], override_num_blocks=2)
    views = rd.from_items([
        _ev(0, 1, 5, 0, "view"),
        _ev(1, 1, 60, 0, "view"),
    ], override_num_blocks=1)
    out = asof_join(clicks, views, by_col="user_id", ts_col="ts",
                    right_cols={"event_id": "view_event"},
                    left_cols=["event_id"]).to_pandas() \
        .sort_values("event_id").reset_index(drop=True)
    assert out["event_id"].tolist() == [10, 11, 12]
    got = out["view_event"].tolist()
    assert got[0] == 1 and got[1] == 0 and pd_isna(got[2])


def pd_isna(x):
    import pandas as pd
    return pd.isna(x)


def test_windowed_agg_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import windowed_agg
    rows = [
        _ev(0, 1, 10, 1.5, "click"),
        _ev(1, 1, 3599, 2.5, "click"),     # same hour window
        _ev(2, 1, 3600, 4.0, "click"),     # next window boundary
        _ev(3, 2, 20, 8.0, "view"),
    ]
    ds = rd.from_items(rows, override_num_blocks=2)
    out = windowed_agg(ds, window_seconds=3600).to_pandas() \
        .sort_values(["event_type", "window_id"]).reset_index(drop=True)
    got = list(zip(out["event_type"], out["n_events"], out["total_value"]))
    assert got == [("click", 2, 4.0), ("click", 1, 4.0), ("view", 1, 8.0)]
    assert out["window_id"].iloc[1] == out["window_id"].iloc[0] + 1

def test_sliding_window_agg(ray_session):
    """Pane-optimized hopping windows equal a brute-force per-window scan,
    and window/hop divisibility is enforced."""
    import pandas as pd
    import pytest
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import sliding_window_agg
    rng = np.random.default_rng(5)
    rows = [_ev(i, 1, float(rng.integers(0, 20_000)),
                float(rng.integers(1, 9)),
                "click" if i % 3 else "view") for i in range(120)]
    ds = rd.from_items(rows, override_num_blocks=3)
    win, hop = 3600, 900
    out = sliding_window_agg(ds, window_seconds=win, hop_seconds=hop) \
        .to_pandas().sort_values(["event_type", "window_id"]) \
        .reset_index(drop=True)

    df = pd.DataFrame([{"event_type": r["event_type"],
                        "ts_us": int(r["ts"].replace(
                            tzinfo=dt.timezone.utc).timestamp() * 1e6),
                        "value": r["value"]} for r in rows])
    expect = []
    for key, g in df.groupby("event_type"):
        cells = g["ts_us"] // (hop * 1_000_000)
        for w in range(int(cells.min()) - 3, int(cells.max()) + 1):
            lo, hi = w * hop * 1e6, (w * hop + win) * 1e6
            m = g[(g["ts_us"] >= lo) & (g["ts_us"] < hi)]
            if len(m):
                expect.append((key, w, len(m), round(m["value"].sum(), 6)))
    expect.sort()
    got = list(zip(out["event_type"], out["window_id"],
                   out["n_events"], out["total_value"]))
    assert got == expect
    # every event appears in exactly window/hop = 4 windows
    assert out["n_events"].sum() == 4 * len(rows)
    with pytest.raises(ValueError):
        sliding_window_agg(ds, window_seconds=3600, hop_seconds=1000)


def test_sessionize_forced_skew(ray_session):
    """One hot user with 100x everyone else's events: output stays correct
    and the hot-user detector flags exactly that user."""
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import check_hot_users, sessionize
    rows = []
    eid = 0
    # hot user 7: 500 events 1s apart (one session), then a 1h gap + 3 more
    for i in range(500):
        rows.append({"user_id": 7, "ts": 1_000_000 + i, "event_id": eid,
                     "value": 1.0, "event_type": "x"})
        eid += 1
    for i in range(3):
        rows.append({"user_id": 7, "ts": 1_000_000 + 500 + 3600 + i,
                     "event_id": eid, "value": 1.0, "event_type": "x"})
        eid += 1
    for u in range(8, 13):                       # cold users: 5 events each
        for i in range(5):
            rows.append({"user_id": u, "ts": 2_000_000 + i, "event_id": eid,
                         "value": 0.5, "event_type": "x"})
            eid += 1
    df = pd.DataFrame(rows)
    df["ts"] = pd.to_datetime(df["ts"], unit="s")
    out = sessionize(rd.from_pandas(df), gap_seconds=1800,
                     hot_user_events=100).to_pandas()
    hot = out[out["user_id"] == 7].sort_values("session_id")
    assert list(hot["n_events"]) == [500, 3]
    assert (out[out["user_id"] != 7]["n_events"] == 5).all()
    # detector: exactly the hot user crosses the bound
    import numpy as np
    flagged = check_hot_users(np.array([7, 8]), np.array([503, 5]), 100)
    assert flagged == [(7, 503)]


def test_sessionize_chunked_matches_plain(ray_session):
    """Chunked (skew-proof) sessionize ≡ plain sessionize on randomized
    events, including sessions spanning chunk boundaries and a hot user."""
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import sessionize, sessionize_chunked
    rng = np.random.default_rng(11)
    rows = []
    eid = 0
    for user in range(1, 8):
        n = 400 if user == 3 else rng.integers(5, 40)   # user 3 is hot
        t = 0.0
        for _ in range(n):
            # mix of small gaps (same session) and >1800s jumps; some jumps
            # are huge so sessions cross the 3600s chunk boundary freely
            t += float(rng.choice([1, 60, 900, 1801, 7200, 90000]))
            rows.append(_ev(eid, user, t, float(rng.integers(1, 9))))
            eid += 1
    ds = rd.from_items(rows, override_num_blocks=8)
    cols = ["user_id", "session_id", "n_events", "start_us", "end_us",
            "total_value"]
    plain = sessionize(ds, gap_seconds=1800).to_pandas()[cols] \
        .sort_values(cols).reset_index(drop=True)
    # chunk = 3600s ≈ session scale → fragments merge across many chunks
    chunked = sessionize_chunked(ds, gap_seconds=1800,
                                 chunk_seconds=3600).to_pandas()[cols] \
        .sort_values(cols).reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, chunked)


def test_sessionize_chunked_boundary_merge(ray_session):
    """A session straddling a chunk boundary is ONE session with exact
    aggregates (the fragment-merge pass, not per-chunk truncation)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import sessionize_chunked
    rows = [_ev(0, 1, 3590, 1.0),    # chunk 0 (3600s chunks)
            _ev(1, 1, 3620, 2.0),    # chunk 1, gap 30s → same session
            _ev(2, 1, 7300, 4.0),    # chunk 2, gap 3680s > 1800 → split
            _ev(3, 1, 20000, 8.0)]   # far away → new session
    ds = rd.from_items(rows, override_num_blocks=2)
    out = sessionize_chunked(ds, gap_seconds=1800, chunk_seconds=3600) \
        .to_pandas().sort_values("session_id").reset_index(drop=True)
    assert out["session_id"].tolist() == [0, 1, 2]
    assert out["n_events"].tolist() == [2, 1, 1]
    assert out["total_value"].tolist() == [3.0, 4.0, 8.0]


def test_bucketed_range_join(ray_session):
    """Range join vs a brute-force pandas computation, intervals spanning
    multiple buckets, inclusive bounds, keyed and unkeyed."""
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.join import bucketed_range_join
    rng = np.random.default_rng(5)
    left = pd.DataFrame({
        "k": rng.integers(1, 5, 60),
        "lid": np.arange(60),
        "lo": rng.integers(0, 1000, 60).astype(np.int64),
    })
    left["hi"] = left["lo"] + rng.integers(0, 300, 60)
    right = pd.DataFrame({
        "k": rng.integers(1, 5, 80),
        "rid": np.arange(80),
        "p": rng.integers(0, 1300, 80).astype(np.int64),
    })
    exp = left.merge(right, on="k")
    exp = exp[(exp["lo"] <= exp["p"]) & (exp["p"] <= exp["hi"])]
    exp = exp[["k", "lid", "rid"]].sort_values(["k", "lid", "rid"]) \
        .reset_index(drop=True)
    lds = rd.from_arrow(__import__("pyarrow").Table.from_pandas(left))
    rds = rd.from_arrow(__import__("pyarrow").Table.from_pandas(right))
    got = bucketed_range_join(
        lds, rds, lo_col="lo", hi_col="hi", point_col="p", key="k",
        bucket_width=64).to_pandas()[["k", "lid", "rid"]] \
        .sort_values(["k", "lid", "rid"]).reset_index(drop=True)
    pd.testing.assert_frame_equal(exp.astype(got.dtypes), got)
    # unkeyed: cross-key containment
    exp2 = left.drop(columns="k").merge(right.drop(columns="k"), how="cross")
    exp2 = exp2[(exp2["lo"] <= exp2["p"]) & (exp2["p"] <= exp2["hi"])]
    exp2 = exp2[["lid", "rid"]].sort_values(["lid", "rid"]) \
        .reset_index(drop=True)
    got2 = bucketed_range_join(
        rd.from_arrow(__import__("pyarrow").Table.from_pandas(
            left.drop(columns="k"))),
        rd.from_arrow(__import__("pyarrow").Table.from_pandas(
            right.drop(columns="k"))),
        lo_col="lo", hi_col="hi", point_col="p", bucket_width=64) \
        .to_pandas()[["lid", "rid"]].sort_values(["lid", "rid"]) \
        .reset_index(drop=True)
    pd.testing.assert_frame_equal(exp2.astype(got2.dtypes), got2)
    # bounded-span guard
    import pytest as _pytest
    with _pytest.raises(Exception, match="max_span_buckets"):
        bucketed_range_join(lds, rds, lo_col="lo", hi_col="hi",
                            point_col="p", key="k", bucket_width=64,
                            max_span_buckets=2).to_pandas()


def test_new_ops_partition_invariance(ray_session, monkeypatch):
    """Output is independent of the coarse partition count (physical knob
    only) — the property that makes ``fold.coarse_parts`` safe to scale
    with the cluster."""
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops import fold
    from lucene_msmarco_ray.ops.events import sessionize_chunked
    rng = np.random.default_rng(7)
    rows = []
    for eid in range(300):
        rows.append(_ev(eid, int(rng.integers(1, 9)),
                        float(rng.integers(0, 200_000)),
                        float(rng.integers(1, 9))))
    ds = rd.from_items(rows, override_num_blocks=5)
    cols = ["user_id", "session_id", "n_events", "start_us", "end_us",
            "total_value"]
    outs = []
    for nparts in (3, 64):
        monkeypatch.setattr(fold, "coarse_parts", lambda n=nparts: n)
        outs.append(sessionize_chunked(ds, gap_seconds=1800,
                                       chunk_seconds=3600)
                    .to_pandas()[cols].sort_values(cols)
                    .reset_index(drop=True))
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_funnel_counts_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import funnel_counts
    rows = [
        # user 1 completes view→click within window
        _ev(0, 1, 0, 0, "view"), _ev(1, 1, 100, 0, "click"),
        # user 2: click BEFORE view → only step 1 counts
        _ev(2, 2, 50, 0, "click"), _ev(3, 2, 60, 0, "view"),
        # user 3: click too late (outside 1000s window)
        _ev(4, 3, 0, 0, "view"), _ev(5, 3, 2000, 0, "click"),
        # user 4: never views
        _ev(6, 4, 0, 0, "click"),
    ]
    out = funnel_counts(rd.from_items(rows, override_num_blocks=3),
                        ["view", "click"], within_seconds=1000) \
        .to_pandas().sort_values("step").reset_index(drop=True)
    assert out["event_type"].tolist() == ["view", "click"]
    assert out["n_users"].tolist() == [3, 1]     # views: users 1,2,3


def test_funnel_counts_empty_prior_step(ray_session):
    """Regression (round-4 snapshot commit): a partition with step-j
    events but ZERO completers of step j-1 made ``bound`` an empty
    Series, and the get_indexer gather indexed a size-0 array →
    IndexError.  Nobody views here, so every partition's step-1 bound
    is empty while step-2 ('click') events exist."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import funnel_counts
    rows = [_ev(i, i % 5, i * 10, 0, "click") for i in range(20)]
    out = funnel_counts(rd.from_items(rows, override_num_blocks=4),
                        ["view", "click"], within_seconds=1000) \
        .to_pandas().sort_values("step").reset_index(drop=True)
    assert out["event_type"].tolist() == ["view", "click"]
    assert out["n_users"].tolist() == [0, 0]

    # mixed case: one partitioned user does view→click, the rest only
    # click — partitions without any viewer must not crash and must not
    # count their clickers
    rows2 = rows + [_ev(100, 99, 0, 0, "view"), _ev(101, 99, 50, 0, "click")]
    out2 = funnel_counts(rd.from_items(rows2, override_num_blocks=4),
                         ["view", "click"], within_seconds=1000) \
        .to_pandas().sort_values("step").reset_index(drop=True)
    assert out2["n_users"].tolist() == [1, 1]


def test_cohort_retention_goldens(ray_session):
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import cohort_retention
    P = 1000   # 1000-second periods
    rows = [
        _ev(0, 1, 0, 0),      # user 1: periods 0, 1, 3
        _ev(1, 1, 1500, 0),
        _ev(2, 1, 3500, 0),
        _ev(3, 2, 1200, 0),   # user 2: period 1 only (cohort 1)
        _ev(4, 3, 100, 0),    # user 3: periods 0, 0 (dup) → offset 0 once
        _ev(5, 3, 200, 0),
    ]
    base_p = _ev(0, 0, 0, 0)["ts"].timestamp() * 1e6 // (P * 1e6)
    out = cohort_retention(rd.from_items(rows, override_num_blocks=2),
                           period_seconds=P).to_pandas() \
        .sort_values(["cohort", "offset"]).reset_index(drop=True)
    rel = out.assign(cohort=out["cohort"] - int(base_p))
    got = {(r.cohort, r.offset): r.n_users for r in rel.itertuples()}
    assert got == {(0, 0): 2, (0, 1): 1, (0, 3): 1, (1, 0): 1}


def test_cumulative_agg_chunked_matches_plain(ray_session):
    """Chunked (skew-proof) cumulative_agg ≡ plain cumulative_agg on
    randomized events: a hot user spanning many chunks, timestamp ties,
    and chunk boundaries mid-stream all reproduce the same running
    totals bit-for-bit."""
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import (cumulative_agg,
                                               cumulative_agg_chunked)
    rng = np.random.default_rng(17)
    rows = []
    eid = 0
    for user in range(1, 8):
        n = 500 if user == 3 else int(rng.integers(5, 40))   # user 3 hot
        t = 0.0
        for _ in range(n):
            t += float(rng.choice([0, 1, 60, 1801, 7200]))   # incl. ties
            rows.append(_ev(eid, user, t, float(rng.integers(1, 9)) / 4))
            eid += 1
    ds = rd.from_items(rows, override_num_blocks=8)
    cols = ["event_id", "user_id", "ts_us", "cum_events", "cum_value"]
    plain = cumulative_agg(ds).to_pandas()[cols] \
        .sort_values("event_id").reset_index(drop=True)
    # chunk = 1h → the hot user's stream splits into many chunks and the
    # exclusive-prefix offsets do real work
    chunked = cumulative_agg_chunked(ds, chunk_seconds=3600) \
        .to_pandas()[cols].sort_values("event_id").reset_index(drop=True)
    pd.testing.assert_frame_equal(plain, chunked)


def test_cumulative_agg_chunked_boundary_golden(ray_session):
    """Running totals carry exactly across a chunk boundary (the offset
    shift, not per-chunk restart)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import cumulative_agg_chunked
    rows = [_ev(0, 1, 3590, 1.25),    # chunk 0 (3600s chunks)
            _ev(1, 1, 3620, 2.0),     # chunk 1 → cum 2, 3.25
            _ev(2, 1, 7300, 4.0)]     # chunk 2 → cum 3, 7.25
    out = cumulative_agg_chunked(
        rd.from_items(rows, override_num_blocks=2), chunk_seconds=3600) \
        .to_pandas().sort_values("event_id").reset_index(drop=True)
    assert out["cum_events"].tolist() == [1, 2, 3]
    assert out["cum_value"].tolist() == [1.25, 3.25, 7.25]


def test_funnel_cohort_forced_skew_detection(ray_session):
    """funnel_counts and cohort_retention stay correct under a hot user
    and their detectors flag exactly that user (the enforced skew cap,
    mirroring sessionize's)."""
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import cohort_retention, funnel_counts
    rows = []
    eid = 0
    # hot user 7: 300 view events + the funnel steps; cold users do the
    # funnel only
    for i in range(300):
        rows.append(_ev(eid, 7, i, 1.0, "view")); eid += 1
    rows.append(_ev(eid, 7, 400, 1.0, "click")); eid += 1
    rows.append(_ev(eid, 7, 500, 1.0, "buy")); eid += 1
    for u in (8, 9):
        rows.append(_ev(eid, u, 0, 1.0, "view")); eid += 1
        rows.append(_ev(eid, u, 10, 1.0, "click")); eid += 1
    ds = rd.from_items(rows, override_num_blocks=4)

    out = funnel_counts(ds, ["view", "click", "buy"], within_seconds=86400,
                        hot_user_events=100).to_pandas() \
        .sort_values("step").reset_index(drop=True)
    assert out["n_users"].tolist() == [3, 3, 1]

    # non-step pruning: a funnel whose steps exclude 'view' must see only
    # the click/buy rows (same counts with the hot rows never shuffled)
    out2 = funnel_counts(ds, ["click", "buy"], within_seconds=86400) \
        .to_pandas().sort_values("step").reset_index(drop=True)
    assert out2["n_users"].tolist() == [3, 1]

    # cohort detector: degenerate 1-second periods → hot user has ~300
    # distinct periods and gets flagged; output still exact
    ch = cohort_retention(ds, period_seconds=100_000,
                          hot_user_periods=2).to_pandas()
    assert int(ch[ch["offset"] == 0]["n_users"].sum()) == 3


def test_time_deltas_vs_pandas_and_parallelism_invariance(ray_session):
    """Deltas equal a pandas lag() replay; output is identical at 1 block
    and 16 blocks; timestamp ties break by event_id."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import time_deltas
    rng = np.random.default_rng(42)
    n = 4000
    df = pd.DataFrame({
        "event_id": np.arange(n, dtype=np.int64),
        "user_id": rng.integers(0, 60, n),
        # coarse second resolution forces (user, ts) ties -> event_id order
        "ts": pd.to_datetime(rng.integers(0, 500, n), unit="s"),
    })
    want = df.sort_values(["user_id", "ts", "event_id"]).copy()
    want["ts_us"] = want["ts"].astype("int64") // 1000   # ns → µs
    lagged = want.groupby("user_id")["ts_us"].shift()
    want["delta_us"] = (want["ts_us"] - lagged).fillna(-1).astype(np.int64)
    want = want[["event_id", "user_id", "ts_us", "delta_us"]] \
        .sort_values("event_id").reset_index(drop=True)

    outs = []
    for nblocks in (1, 16):
        ds = rd.from_pandas(df).repartition(nblocks)
        out = time_deltas(ds).to_pandas().sort_values("event_id") \
            .reset_index(drop=True)
        outs.append(out)
        pd.testing.assert_frame_equal(out, want, check_dtype=False)
    pd.testing.assert_frame_equal(outs[0], outs[1])


def test_time_deltas_forced_skew_detection(ray_session, caplog):
    import logging

    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import check_hot_users, time_deltas
    rows = pd.DataFrame({
        "event_id": np.arange(300, dtype=np.int64),
        "user_id": np.where(np.arange(300) < 250, 5, 6),
        "ts": pd.to_datetime(np.arange(300), unit="s"),
    })
    out = time_deltas(rd.from_pandas(rows), hot_user_events=100).to_pandas()
    u5 = out[out["user_id"] == 5].sort_values("event_id")
    assert (u5["delta_us"].to_numpy()[1:] == 1_000_000).all()
    assert u5["delta_us"].iloc[0] == -1
    flagged = check_hot_users(np.array([5, 6]), np.array([250, 50]), 100)
    assert flagged == [(5, 250)]


def _ref_funnel(df, steps, win_s):
    """Driver-side greedy funnel reference: per user, step-1 completion =
    min ts; step j = min step-j ts in (t_{j-1}, t_{j-1} + win]."""
    import pandas as pd
    counts = []
    bound = {}
    for j, s in enumerate(steps):
        sub = df[df["event_type"] == s]
        nxt = {}
        for u, g in sub.groupby("user_id"):
            ts = g["ts"].astype("int64").to_numpy() // 1000  # ns→us
            if j == 0:
                nxt[u] = ts.min()
            elif u in bound:
                lo = bound[u]
                ok = ts[(ts > lo) & (ts <= lo + win_s * 1_000_000)]
                if ok.size:
                    nxt[u] = ok.min()
        bound = nxt
        counts.append(len(bound))
    return counts


def test_funnel_counts_forced_skew_parity(ray_session):
    """One user holds 60% of all events (every one of them a step event,
    so nothing prunes pre-exchange) across 8 partitions — the vectorized
    per-partition groupby-min resolution must match the driver-side
    greedy reference exactly. Measured at 4M events / one 2M-event user:
    the hot partition costs nothing extra (1.84 s vs 1.85 s balanced),
    which is why funnel has no chunked variant — the bound is heap, not
    compute (events.py docstring)."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import funnel_counts

    rng = np.random.default_rng(11)
    n, n_hot = 5000, 3000
    users = np.concatenate([np.zeros(n_hot, np.int64),
                            rng.integers(1, 200, n - n_hot)])
    secs = rng.integers(0, 50_000, n)
    etype = rng.choice(np.array(["view", "click", "purchase"], object), n,
                       p=[0.5, 0.3, 0.2])
    rows = [_ev(i, int(users[i]), int(secs[i]), 0, str(etype[i]))
            for i in range(n)]
    steps = ["view", "click", "purchase"]
    out = funnel_counts(rd.from_items(rows, override_num_blocks=8),
                        steps, within_seconds=3600) \
        .to_pandas().sort_values("step").reset_index(drop=True)
    ref = _ref_funnel(pd.DataFrame(rows), steps, 3600)
    assert out["n_users"].tolist() == ref


def test_cohort_retention_forced_skew_parity(ray_session):
    """Event-count skew must collapse in the map stage: a user with 80%
    of all events still ships one (user, period) pair per active period.
    Parity against a driver-side distinct-pairs reference."""
    import numpy as np
    import pandas as pd
    import ray.data as rd

    from lucene_msmarco_ray.ops.events import cohort_retention

    rng = np.random.default_rng(13)
    n, n_hot = 4000, 3200
    users = np.concatenate([np.full(n_hot, 7, np.int64),
                            rng.integers(10, 60, n - n_hot)])
    secs = rng.integers(0, 40 * 86_400, n)
    rows = [_ev(i, int(users[i]), int(secs[i]), 0) for i in range(n)]
    per = 7 * 86_400
    out = cohort_retention(rd.from_items(rows, override_num_blocks=8),
                           period_seconds=per) \
        .to_pandas().sort_values(["cohort", "offset"]) \
        .reset_index(drop=True)

    df = pd.DataFrame(rows)
    df["period"] = df["ts"].astype("int64") // 1000 // (per * 1_000_000)
    pairs = df[["user_id", "period"]].drop_duplicates()
    first = pairs.groupby("user_id")["period"].min().rename("cohort")
    j = pairs.join(first, on="user_id")
    j["offset"] = j["period"] - j["cohort"]
    ref = j.groupby(["cohort", "offset"]).size().rename("n_users") \
        .reset_index().sort_values(["cohort", "offset"]) \
        .reset_index(drop=True)
    assert out["cohort"].tolist() == ref["cohort"].tolist()
    assert out["offset"].tolist() == ref["offset"].tolist()
    assert out["n_users"].tolist() == ref["n_users"].tolist()
