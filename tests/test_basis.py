import io

import numpy as np
import pytest

import disrates as d


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
