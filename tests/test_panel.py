import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

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


@st.composite
def panels(draw):
    """Panels of either kind: sorted cells, 2-6 periods, events <= exposure,
    and for termination cells any float duration and width (0.1, 1/3, ...)."""
    kind = draw(st.sampled_from(d.StudyKind))
    ages = st.integers(0, 120)
    if kind is d.StudyKind.INCEPTION:
        cell = st.builds(d.Cell, st.just(kind), ages)
    else:
        cell = st.builds(d.Cell, st.just(kind), ages,
                         st.floats(0.0, 50.0), st.floats(1e-6, 10.0))
    cells = sorted(draw(st.lists(cell, min_size=1, max_size=5, unique=True)))
    n = draw(st.integers(2, 6))
    exposure = draw(st.lists(st.integers(0, 10**6), min_size=len(cells) * n,
                             max_size=len(cells) * n))
    events = [draw(st.integers(0, e)) for e in exposure]
    shape = (len(cells), n)
    return d.CellPanel(cells, np.reshape(exposure, shape), np.reshape(events, shape))


@settings(deadline=None)
@given(panels())
def test_serialized_panels_load_back_and_serialize_the_same(panel):
    text = d.serialize_panel(panel)
    again = d.load_panel(text, panel.kind)
    assert again == panel
    assert d.serialize_panel(again) == text


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


@pytest.mark.parametrize("duration, width", [
    ("nan", "0.25"), ("inf", "0.25"), ("0.0", "nan"), ("0.0", "inf"),
])
def test_non_finite_duration_fields_are_rejected_with_line(duration, width):
    # NaN compares false with everything, so a bare `duration < 0` test let
    # it through, and two NaN-duration rows made two distinct cells.
    text = TERMINATION_CSV.replace("2,40,0.0,0.25", f"2,40,{duration},{width}")
    with pytest.raises(d.PanelFormatError, match="line 4: duration"):
        d.load_panel(text, "termination")


COUNT_FIELDS = {"period": 0, "age": 1, "exposure": 2, "events": 3}
NOT_INT64_COUNTS = ("inf", "-inf", "nan", "1e400", "1e19", "9223372036854775808",
                    "100000000000000000000000")


@pytest.mark.parametrize("value", NOT_INT64_COUNTS)
@pytest.mark.parametrize("column", COUNT_FIELDS)
def test_counts_that_are_not_int64_are_rejected_with_line(column, value):
    # int(float("inf")) and int(float("nan")) raise, and a count past 2**63 - 1
    # does not fit the int64 arrays: each must be a data error naming its field.
    row = ["2", "30", "110", "4"]
    row[COUNT_FIELDS[column]] = value
    text = INCEPTION_CSV.replace("2,30,110,4", ",".join(row))
    with pytest.raises(d.PanelFormatError, match=f"line 4: {column} "):
        d.load_panel(text, "inception")


def test_the_largest_int64_count_is_accepted():
    largest = str(np.iinfo(np.int64).max)
    panel = d.load_panel(INCEPTION_CSV.replace("2,30,110,4", f"2,30,{largest},4"),
                         "inception")
    assert panel.exposure[0, 1] == np.iinfo(np.int64).max


def test_a_far_period_gap_is_rejected_without_listing_the_range():
    # The check must not build the periods 1..n it expects: for n = 10**12
    # that list would take terabytes.
    text = INCEPTION_CSV.replace("2,30,110,4", f"{10**12},30,110,4")
    with pytest.raises(d.PanelFormatError, match="periods must be consecutive"):
        d.load_panel(text, "inception")
