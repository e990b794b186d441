"""Fig. 14 -- response time as the number of RPQs per set varies.

Experiment 2 (paper): RMAT_3 and Advogato, set sizes {1,2,4,6,8,10}.
The amortisation story asserted:

* the No/RTC ratio does not shrink as sets grow (paper: 23.1x -> 25.4x
  synthetic, 6.76x -> 7.17x real): NoSharing re-pays the closure per RPQ;
* the Full/RTC ratio shrinks (paper: 24.4x -> 4.25x synthetic): Full's
  one-time closure cost amortises across more RPQs.
"""

from bench_common import emit, format_ratio, record_rows
from repro.formatting import format_seconds, format_table


def _table(rows, title):
    headers = ["#RPQs", "No", "Full", "RTC", "No/RTC", "Full/RTC"]
    body = []
    for row in rows:
        rtc = row["total_RTC"] or 1e-12
        body.append(
            [
                row["num_rpqs"],
                format_seconds(row["total_No"]),
                format_seconds(row["total_Full"]),
                format_seconds(row["total_RTC"]),
                format_ratio(row["total_No"] / rtc),
                format_ratio(row["total_Full"] / rtc),
            ]
        )
    return f"{title}\n" + format_table(headers, body)


def _assert_amortisation(rows):
    first, last = rows[0], rows[-1]
    first_full = first["total_Full"] / max(first["total_RTC"], 1e-12)
    last_full = last["total_Full"] / max(last["total_RTC"], 1e-12)
    # Full's advantage over RTC amortises away as sets grow.
    assert last_full < first_full
    # RTC keeps beating NoSharing across the sweep.
    assert last["total_No"] > last["total_RTC"]


def test_fig14a_synthetic(benchmark, exp2_synthetic_rows):
    rows = benchmark.pedantic(
        lambda: exp2_synthetic_rows, rounds=1, iterations=1
    )
    record_rows("fig14a", rows)
    emit("fig14a", _table(rows, "Fig. 14(a): #RPQs sweep on RMAT_3"))
    _assert_amortisation(rows)


def test_fig14b_real(benchmark, exp2_real_rows):
    rows = benchmark.pedantic(lambda: exp2_real_rows, rounds=1, iterations=1)
    record_rows("fig14b", rows)
    emit("fig14b", _table(rows, "Fig. 14(b): #RPQs sweep on Advogato"))
    _assert_amortisation(rows)
