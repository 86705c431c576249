"""What tests/compare_artifacts.py reports for runs whose CSVs differ."""

import numpy as np

from compare_artifacts import differences


def _run(csv: bytes) -> dict:
    return {"exit code": 0, "stdout": "", "stderr": "", "files": {"p_rr.csv": csv}}


def _csv(rows) -> bytes:
    return ("tau,p_rr_b,p_rr_f\n" + "".join(f"{t!r},{b!r},{f!r}\n" for t, b, f in rows)).encode()


def test_differing_csv_reports_each_columns_largest_move():
    rows = [(0.0, 1.0, 0.0), (0.5, 0.75, 0.25), (1.0, 0.5, 0.125)]
    up = np.nextafter(np.nextafter(np.nextafter(0.75, 1.0), 1.0), 1.0)  # three ulps up
    moved = [(0.0, 1.0, -5e-324), (0.5, float(up), 0.25), (1.0, 0.5, 0.125)]
    assert differences(_run(_csv(rows)), _run(_csv(rows))) == []
    # tau does not move; p_rr_b moves 3 ulps of 2**-53; p_rr_f moves one ulp
    # across zero, 0.0 to the negative subnormal, which is all of its size.
    assert differences(_run(_csv(rows)), _run(_csv(moved))) == [
        f"p_rr.csv differs: p_rr_b by {3 * 2**-53:.2g} ({3 * 2**-53 / float(up):.2g} relative, "
        "3 ulps), p_rr_f by 4.9e-324 (1 relative, 1 ulps)"]


def test_csv_of_another_layout_is_reported_as_such():
    rows = [(0.0, 1.0, 0.0), (0.5, 0.75, 0.25)]
    assert differences(_run(_csv(rows)), _run(_csv(rows[:1]))) == [
        "p_rr.csv differs: header or row count differs (2 -> 1 rows)"]
