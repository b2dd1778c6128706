import contextlib
import io
import json
import tempfile
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import disrates as d
from disrates.cli import main


def cell(age):
    return d.Cell(d.StudyKind.INCEPTION, age)


def tcell(age, dur):
    return d.Cell(d.StudyKind.TERMINATION, age, dur, 0.25)


def test_linear2_endpoints_and_interpolation():
    basis = d.linear2(25, 64)
    np.testing.assert_allclose(d.eval_design(basis, cell(25)), [1.0, 0.0])
    np.testing.assert_allclose(d.eval_design(basis, cell(64)), [0.0, 1.0])
    mid = d.eval_design(basis, cell(38))
    np.testing.assert_allclose(mid, [26 / 39, 13 / 39])
    assert mid.sum() == pytest.approx(1.0)


def test_piecewise3_partition_of_unity_and_continuity():
    basis = d.piecewise3(midpoint=40, age_lo=25, age_hi=64)
    for age in range(25, 65):
        phi = d.eval_design(basis, cell(age))
        assert phi.sum() == pytest.approx(1.0)
        assert (phi >= 0).all()
    np.testing.assert_allclose(d.eval_design(basis, cell(40)), [0.0, 1.0, 0.0])
    np.testing.assert_allclose(d.eval_design(basis, cell(25)), [1.0, 0.0, 0.0])
    np.testing.assert_allclose(d.eval_design(basis, cell(64)), [0.0, 0.0, 1.0])
    # hat 1 dies at the midpoint, hat 3 is born there
    before = d.eval_design(basis, cell(39))
    assert before[0] > 0 and before[2] == 0.0


def test_four_factor_tensor_layout():
    basis = d.four_factor(25, 64)
    assert basis.p == 4
    phi = d.eval_design(basis, tcell(25, 2.0))
    # age part (1, 0) x duration part (1, d), age index outer
    np.testing.assert_allclose(phi, [1.0, 2.0, 0.0, 0.0])
    phi = d.eval_design(basis, tcell(64, 0.5))
    np.testing.assert_allclose(phi, [0.0, 0.0, 1.0, 0.5])


def test_six_factor_duration_decay():
    basis = d.six_factor(25, 64)
    assert basis.p == 6
    phi = d.eval_design(basis, tcell(25, 1.0))
    np.testing.assert_allclose(
        phi, [1.0, np.exp(-1.0), np.exp(-2.0), 0.0, 0.0, 0.0]
    )


def test_tensor_basis_rejects_inception_cells():
    basis = d.four_factor(25, 64)
    with pytest.raises(ValueError, match="termination"):
        d.eval_design(basis, cell(30))


def test_age_basis_rejects_termination_cells():
    basis = d.linear2(25, 64)
    with pytest.raises(ValueError, match="inception"):
        d.eval_design(basis, tcell(30, 0.0))


def test_age_outside_range_rejected():
    basis = d.linear2(30, 40)
    with pytest.raises(ValueError, match="outside"):
        d.eval_design(basis, cell(41))


def test_builtin_lookup():
    basis = d.builtin("piecewise3", midpoint=35, age_lo=30, age_hi=40)
    assert basis.p == 3
    with pytest.raises(ValueError, match="unknown basis"):
        d.builtin("spline9000")


def test_custom_basis_roundtrip_csv():
    text = "age,phi_1,phi_2\n30,1.0,0.25\n31,0.5,0.5\n33,0.0,1.0\n"
    basis = d.load_custom_basis(io.StringIO(text), "inception")
    assert basis.p == 2
    np.testing.assert_allclose(d.eval_design(basis, cell(31)), [0.5, 0.5])
    # age 32 is inside the tabulated range but has no row
    with pytest.raises(ValueError, match="not in custom basis"):
        d.eval_design(basis, cell(32))


def test_custom_termination_table_keys_on_duration():
    text = (
        "age,duration,phi_1\n"
        "30,0.0,1.0\n"
        "30,0.5,2.0\n"
    )
    basis = d.load_custom_basis(io.StringIO(text), "termination")
    np.testing.assert_allclose(d.eval_design(basis, tcell(30, 0.5)), [2.0])
    with pytest.raises(ValueError, match="not in custom basis"):
        d.eval_design(basis, tcell(30, 0.25))


def test_design_matrix_and_rank():
    basis, cells = d.linear2(30, 37), [cell(a) for a in range(30, 38)]
    matrix = d.design_matrix(basis, cells)
    assert matrix.shape == (8, 2)
    assert d.check_rank(basis, cells)
    # a single age cannot identify two components
    assert not d.check_rank(basis, [cell(33)])
    # duplicated rows add no rank
    assert not d.check_rank(
        d.custom_basis([cell(30), cell(31)], [[1.0, 2.0], [2.0, 4.0]]),
        [cell(30), cell(31)],
    )


def test_custom_basis_rejects_nonfinite_and_duplicates():
    with pytest.raises(ValueError, match="finite"):
        d.custom_basis([cell(30)], [[np.inf]])
    with pytest.raises(ValueError, match="duplicate"):
        d.custom_basis([cell(30), cell(30)], [[1.0], [2.0]])


BAD_TABLES = {
    # case: (study kind, table text, what the message must name)
    "foreign-header": ("inception", "foo,bar\n30,1.0\n",
                       "line 1: expected header age,phi_1..phi_p"),
    "phi-gap": ("inception", "age,phi_1,phi_3\n30,1.0,2.0\n", "line 1"),
    "duration-in-inception": ("inception", "age,duration,phi_1\n30,0.0,1.0\n", "line 1"),
    "no-duration-in-termination": ("termination", "age,phi_1\n30,1.0\n",
                                   "line 1: expected header age,duration"),
    "no-phi": ("inception", "age\n30\n", "line 1"),
    "empty": ("inception", "", "line 1"),
    "text-phi": ("inception", "age,phi_1\n30,1.0\n31,x\n", "line 3: could not convert"),
    "fractional-age": ("inception", "age,phi_1\n30.5,1.0\n", "line 2"),
    "text-duration": ("termination", "age,duration,phi_1\n30,soon,1.0\n", "line 2"),
    "negative-duration": ("termination", "age,duration,phi_1\n30,-1.0,1.0\n",
                          "line 2: duration"),
    "nan-duration": ("termination", "age,duration,phi_1\n30,nan,1.0\n", "line 2: duration"),
    "inf-phi": ("inception", "age,phi_1\n30,1.0\n31,-inf\n", "line 3: basis values"),
    "short-row": ("inception", "age,phi_1,phi_2\n30,1.0,0.5\n31,0.5\n",
                  "line 3: expected 3 fields"),
    "long-row": ("inception", "age,phi_1\n30,1.0,2.0\n", "line 2: expected 2 fields"),
    "no-rows": ("inception", "age,phi_1\n\n", "no data rows"),
}


@pytest.mark.parametrize("kind,text,message", BAD_TABLES.values(), ids=BAD_TABLES)
def test_custom_basis_table_errors_name_the_line(kind, text, message):
    with pytest.raises(ValueError, match=message):
        d.load_custom_basis(io.StringIO(text), kind)


def test_custom_basis_header_tolerates_spaces_and_blank_rows():
    text = "age, phi_1 ,phi_2\n\n30,1.0,0.25\n, ,\n31,0.5,0.5\n"
    basis = d.load_custom_basis(io.StringIO(text), "inception")
    np.testing.assert_allclose(d.eval_design(basis, cell(30)), [1.0, 0.25])


@st.composite
def basis_tables(draw):
    """(kind, cells, design, rows) of a well-formed custom basis table: 1-6
    distinct cells, 1-4 components of any finite value; rows holds each data
    row's fields as the table writes them."""
    kind = draw(st.sampled_from(d.StudyKind))
    ages = st.integers(0, 120)
    if kind is d.StudyKind.INCEPTION:
        keys = draw(st.lists(ages, min_size=1, max_size=6, unique=True))
        cells = [d.Cell(kind, age) for age in keys]
        fields = [[str(age)] for age in keys]
    else:
        keys = draw(st.lists(st.tuples(ages, st.floats(0.0, 50.0)), min_size=1,
                             max_size=6, unique_by=lambda k: (k[0], round(k[1], 9))))
        cells = [d.Cell(kind, age, duration, 0.25) for age, duration in keys]
        fields = [[str(age), repr(duration)] for age, duration in keys]
    p = draw(st.integers(1, 4))
    values = st.floats(allow_nan=False, allow_infinity=False)
    design = np.array(draw(st.lists(values, min_size=len(cells) * p,
                                    max_size=len(cells) * p))).reshape(len(cells), p)
    rows = [key + [repr(v) for v in row] for key, row in zip(fields, design.tolist())]
    return kind, cells, design, rows


def table_text(kind, p, rows):
    keys = "age" if kind is d.StudyKind.INCEPTION else "age,duration"
    header = ",".join([keys] + [f"phi_{i}" for i in range(1, p + 1)])
    return "\n".join([header] + [",".join(row) for row in rows]) + "\n"


@settings(max_examples=50, deadline=None)
@given(basis_tables())
def test_custom_basis_tables_round_trip_to_the_same_design(table):
    kind, cells, design, rows = table
    basis = d.load_custom_basis(io.StringIO(table_text(kind, design.shape[1], rows)),
                                kind.value)
    assert basis.p == design.shape[1]
    np.testing.assert_array_equal(d.design_matrix(basis, cells), design)


@st.composite
def malformed_tables(draw):
    """A well-formed table with one data row spoiled: a field that is not a
    number, a non-finite value, or a field too many or too few.  Returns
    (kind, text, the 1-based line of the spoiled row)."""
    kind, _, design, rows = draw(basis_tables())
    line = draw(st.integers(0, len(rows) - 1))
    row = rows[line]
    column = draw(st.integers(0, len(row) - 1))
    fault = draw(st.sampled_from(["text", "non-finite", "width"]))
    if fault == "text":
        row[column] = draw(st.sampled_from(["x", "", " ", "1.0.0", "--1", "1e", "one"]))
    elif fault == "non-finite":
        row[column] = draw(st.sampled_from(["nan", "NaN", "inf", "-inf", "1e999"]))
    elif draw(st.booleans()):
        row.append(row[column])
    else:
        del row[column]
    return kind.value, table_text(kind, design.shape[1], rows), line + 2


# A two-period panel of each kind, for the CLI to load before the basis.
PANELS = {
    "inception": "period,age,exposure,events\n1,30,100,3\n2,30,110,4\n",
    "termination": ("period,age,duration,duration_width,exposure,events\n"
                    "1,40,0.0,0.25,80,20\n2,40,0.0,0.25,70,15\n"),
}


@settings(max_examples=30, deadline=None)
@given(malformed_tables())
def test_malformed_custom_basis_tables_raise_and_exit_2(table):
    kind, text, line = table
    with pytest.raises(ValueError, match=f"custom basis line {line}: "):
        d.load_custom_basis(io.StringIO(text), kind)
    with tempfile.TemporaryDirectory() as tmp:
        tmp = Path(tmp)
        (tmp / "basis.csv").write_text(text, encoding="utf-8")
        (tmp / "panel.csv").write_text(PANELS[kind], encoding="utf-8")
        config = {"study": kind, "seed": 1, "panel": str(tmp / "panel.csv"),
                  "basis": {"kind": "custom", "table": str(tmp / "basis.csv")}}
        (tmp / "config.json").write_text(json.dumps(config), encoding="utf-8")
        err = io.StringIO()
        with contextlib.redirect_stderr(err), contextlib.redirect_stdout(io.StringIO()):
            code = main(["baseline", "--config", str(tmp / "config.json"),
                         "--out", str(tmp / "out")])
    assert code == 2, err.getvalue()
    assert f"bad basis table: custom basis line {line}: " in err.getvalue()
