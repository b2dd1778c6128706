"""Shared builders for the test suite.

The small p=1 panel below is frozen (originally drawn from the generative
model at mu=0.05, sd=0.3, nu0=-2) so reference values computed against it
stay valid whatever happens to the sampler.
"""

import numpy as np

import disrates as d

_ACCEPTANCE_REPORTS = []


def pytest_runtest_logreport(report):
    if report.when == "call" and "::test_criterion_" in report.nodeid:
        _ACCEPTANCE_REPORTS.append(report)


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    """One PASS/FAIL line per acceptance criterion with its wall time,
    visible under capture."""
    if not _ACCEPTANCE_REPORTS:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for report in sorted(_ACCEPTANCE_REPORTS, key=lambda r: r.nodeid):
        parts = report.nodeid.split("::")[-1].split("_")
        number, label = parts[2], " ".join(parts[3:])
        status = "PASS" if report.passed else "FAIL"
        terminalreporter.write_line(
            f"criterion {number} ({label}): {status} in {report.duration:.1f} s"
        )


TOY_EVENTS = np.array([[11, 6, 8, 11], [11, 10, 2, 3], [5, 2, 5, 1]])
TOY_EXPOSURE = np.full((3, 4), 50)
TOY_PHI = np.array([[0.8], [1.0], [1.2]])


def toy_theta():
    return d.LatentParams(mu=[0.05], chol=[[0.3]], nu0=[-2.0])


def toy_cells():
    return tuple(d.Cell(d.StudyKind.INCEPTION, a) for a in (30, 40, 50))


def toy_basis():
    return d.custom_basis(toy_cells(), TOY_PHI)


def toy_panel():
    return d.CellPanel(toy_cells(), TOY_EXPOSURE, TOY_EVENTS)


def toy_grid(count=512, width=8.0):
    return d.make_grid(toy_theta(), 4, count, width=width)


def flat_panel(exposure, n, num_cells=3, events=0):
    """Panel with constant exposure and events; E=0 gives a data-free run."""
    cells = toy_cells()[:num_cells]
    return d.CellPanel(
        cells,
        np.full((num_cells, n), exposure),
        np.full((num_cells, n), events),
    )


def inception_setup(ages=range(30, 38)):
    """linear2 basis over an eight-age inception study."""
    cells = tuple(d.Cell(d.StudyKind.INCEPTION, a) for a in ages)
    basis = d.linear2(min(ages), max(ages))
    return basis, cells


def termination_setup(ages=(30, 40, 50), durations=(0.0, 0.5, 1.0, 2.0)):
    """four_factor tensor basis over an age x duration termination study."""
    cells = tuple(
        d.Cell(d.StudyKind.TERMINATION, a, du, 0.5)
        for a in ages
        for du in durations
    )
    basis = d.four_factor(min(ages), max(ages))
    return basis, cells


def random_theta(gen, p, scale=0.3):
    """Valid random parameters with a well-conditioned factor."""
    chol = np.tril(gen.standard_normal((p, p))) * scale
    diag = np.abs(np.diag(chol)) + 0.5 * scale
    chol[np.diag_indices(p)] = diag
    return d.LatentParams(
        mu=0.1 * gen.standard_normal(p),
        chol=chol,
        nu0=gen.standard_normal(p) - 2.0,
    )


def random_stats(gen, p, n):
    """Synthetic smoothed statistics with a comfortably PD moment matrix."""
    m = gen.standard_normal((p, 2 * p + 3))
    s_mat = m @ m.T * (n - 1) / (2 * p + 3)
    s_vec = gen.standard_normal(p) * (n - 1) * 0.2
    w = gen.standard_normal((p, 2 * p + 3))
    e_vec = gen.standard_normal(p)
    e_mat = w @ w.T / (2 * p + 3) + np.outer(e_vec, e_vec)
    return d.SmoothedStats(
        s_mat=s_mat, s_vec=s_vec, e_mat=e_mat, e_vec=e_vec,
        n=n, num_particles=0, num_backward=0,
    )
