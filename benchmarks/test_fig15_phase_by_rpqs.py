"""Fig. 15 -- the three-part split of Full vs RTC as #RPQs varies.

The paper's observation: Shared_Data is paid once per set, so its share
of the response time falls as the set grows -- strongly for FullSharing
(whose Shared_Data dominates), barely for RTCSharing (whose Shared_Data
is already tiny).  Shapes asserted:

* Shared_Data stays (nearly) flat in absolute terms as #RPQs grows for
  both sharing methods (it is computed once);
* RTC's Shared_Data stays below Full's at every set size.
"""

from bench_common import emit, record_rows
from repro.formatting import format_seconds, format_table


def _table(rows, title):
    headers = [
        "#RPQs",
        "Shared Full",
        "Shared RTC",
        "PreG⋈R+G Full",
        "PreG⋈R+G RTC",
        "Remainder Full",
        "Remainder RTC",
    ]
    body = []
    for row in rows:
        body.append(
            [
                row["num_rpqs"],
                format_seconds(row["shared_data_Full"]),
                format_seconds(row["shared_data_RTC"]),
                format_seconds(row["pre_join_Full"]),
                format_seconds(row["pre_join_RTC"]),
                format_seconds(row["remainder_Full"]),
                format_seconds(row["remainder_RTC"]),
            ]
        )
    return f"{title}\n" + format_table(headers, body)


def _assert_shapes(rows):
    for row in rows:
        assert row["shared_data_RTC"] < row["shared_data_Full"]
    # One-time cost: Shared_Data at 10 RPQs is far less than 10x the
    # 1-RPQ cost (allow 3x headroom for noise).
    first, last = rows[0], rows[-1]
    scale = last["num_rpqs"] / first["num_rpqs"]
    assert last["shared_data_Full"] < first["shared_data_Full"] * scale
    assert last["shared_data_RTC"] < max(first["shared_data_RTC"] * scale, 1e-3)


def test_fig15a_synthetic(benchmark, exp2_synthetic_rows):
    rows = benchmark.pedantic(
        lambda: exp2_synthetic_rows, rounds=1, iterations=1
    )
    record_rows("fig15a", rows)
    emit("fig15a", _table(rows, "Fig. 15(a): phase split vs #RPQs (RMAT_3)"))
    _assert_shapes(rows)


def test_fig15b_real(benchmark, exp2_real_rows):
    rows = benchmark.pedantic(lambda: exp2_real_rows, rounds=1, iterations=1)
    record_rows("fig15b", rows)
    emit("fig15b", _table(rows, "Fig. 15(b): phase split vs #RPQs (Advogato)"))
    _assert_shapes(rows)
