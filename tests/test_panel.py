import numpy as np
import pytest

import disrates as d

INCEPTION_CSV = """period,age,exposure,events
1,30,100,3
1,31,120,5
2,30,110,4
2,31,115,2
"""

TERMINATION_CSV = """period,age,duration,duration_width,exposure,events
1,40,0.0,0.25,80,20
1,40,0.25,0.25,60,10
2,40,0.0,0.25,70,15
2,40,0.25,0.25,55,9
"""


def test_load_inception_panel():
    panel = d.load_panel(INCEPTION_CSV, "inception")
    assert panel.kind is d.StudyKind.INCEPTION
    assert panel.n == 2
    assert panel.num_cells == 2
    assert [c.age for c in panel.cells] == [30, 31]
    np.testing.assert_array_equal(panel.exposure, [[100, 110], [120, 115]])
    np.testing.assert_array_equal(panel.events, [[3, 4], [5, 2]])


def test_load_termination_panel():
    panel = d.load_panel(TERMINATION_CSV, "termination")
    assert panel.kind is d.StudyKind.TERMINATION
    assert panel.num_cells == 2
    assert panel.cells[0].duration == 0.0
    assert panel.cells[1].duration_width == 0.25
    np.testing.assert_array_equal(panel.events, [[20, 15], [10, 9]])


def test_round_trip_preserves_panel():
    for text, kind in ((INCEPTION_CSV, "inception"), (TERMINATION_CSV, "termination")):
        panel = d.load_panel(text, kind)
        again = d.load_panel(d.serialize_panel(panel), kind)
        assert panel == again


def test_missing_cell_period_is_zero_filled():
    csv_text = "period,age,exposure,events\n1,30,100,3\n2,30,90,1\n2,31,50,2\n"
    panel = d.load_panel(csv_text, "inception")
    # age 31 has no period-1 row: stored as zero exposure, zero events
    row = [c.age for c in panel.cells].index(31)
    assert panel.exposure[row, 0] == 0
    assert panel.events[row, 0] == 0


def test_bad_header_is_rejected_with_line():
    with pytest.raises(d.PanelFormatError, match="line 1"):
        d.load_panel("period,age,n,events\n1,30,10,1\n", "inception")


def test_fractional_count_rejected():
    with pytest.raises(d.PanelFormatError, match="fractional"):
        d.load_panel("period,age,exposure,events\n1,30,100.5,3\n2,30,1,0\n", "inception")


def test_scientific_notation_integer_accepted():
    panel = d.load_panel(
        "period,age,exposure,events\n1,30,1e4,3\n2,30,1e4,0\n", "inception"
    )
    assert panel.exposure[0, 0] == 10000


def test_events_exceeding_exposure_names_cell_and_period():
    bad = "period,age,exposure,events\n1,30,10,3\n2,30,5,7\n"
    with pytest.raises(d.PanelValidationError, match=r"cell a30, period 2"):
        d.load_panel(bad, "inception")


def test_duplicate_row_rejected():
    bad = "period,age,exposure,events\n1,30,10,3\n1,30,12,1\n2,30,5,1\n"
    with pytest.raises(d.PanelFormatError, match="duplicate"):
        d.load_panel(bad, "inception")


def test_nonconsecutive_periods_rejected():
    bad = "period,age,exposure,events\n1,30,10,3\n3,30,5,1\n"
    with pytest.raises(d.PanelFormatError, match="consecutive"):
        d.load_panel(bad, "inception")


def test_single_period_file_rejected():
    with pytest.raises(d.PanelValidationError, match="at least 2 periods"):
        d.load_panel("period,age,exposure,events\n1,30,10,3\n", "inception")


def test_negative_count_rejected():
    with pytest.raises(d.PanelFormatError, match="nonnegative"):
        d.load_panel("period,age,exposure,events\n1,30,-5,0\n2,30,5,0\n", "inception")


def test_mixed_kinds_rejected_in_constructor():
    cells = (
        d.Cell(d.StudyKind.INCEPTION, 30),
        d.Cell(d.StudyKind.TERMINATION, 30, 0.0, 0.5),
    )
    with pytest.raises(d.PanelValidationError, match="mixes"):
        d.CellPanel(cells, np.ones((2, 2), dtype=int), np.zeros((2, 2), dtype=int))


def test_constructor_allows_single_period():
    # In-memory panels may hold one period (the smoother handles n=1);
    # only study files are held to n >= 2.
    cell = (d.Cell(d.StudyKind.INCEPTION, 30),)
    panel = d.CellPanel(cell, np.array([[10]]), np.array([[2]]))
    assert panel.n == 1


def test_panel_arrays_are_immutable():
    panel = d.load_panel(INCEPTION_CSV, "inception")
    with pytest.raises(ValueError):
        panel.exposure[0, 0] = 7


def test_load_from_path(tmp_path):
    target = tmp_path / "panel.csv"
    target.write_text(INCEPTION_CSV, encoding="utf-8")
    assert d.load_panel(target, "inception") == d.load_panel(INCEPTION_CSV, "inception")


def test_cell_validation():
    with pytest.raises(ValueError):
        d.Cell(d.StudyKind.TERMINATION, 30)  # missing duration
    with pytest.raises(ValueError):
        d.Cell(d.StudyKind.INCEPTION, 30, duration=1.0)
    with pytest.raises(ValueError):
        d.Cell(d.StudyKind.TERMINATION, 30, -0.5, 0.25)
    assert d.Cell(d.StudyKind.TERMINATION, 30, 1.5, 0.5).label == "a30_d1.5"
