"""Panel ingestion: exposure/event counts per cell and period.

Inception studies index cells by age; termination studies by age and
disability duration.  Both are carried by one Cell type so the model layers
downstream never branch on the study kind.
"""

import csv
import enum
import io
from dataclasses import dataclass

import numpy as np

from .errors import PanelFormatError, PanelValidationError

INCEPTION_COLUMNS = ("period", "age", "exposure", "events")
TERMINATION_COLUMNS = (
    "period",
    "age",
    "duration",
    "duration_width",
    "exposure",
    "events",
)


class StudyKind(str, enum.Enum):
    INCEPTION = "inception"
    TERMINATION = "termination"


@dataclass(frozen=True, order=True)
class Cell:
    """One observation cell: an age (inception) or an age-duration bucket.

    Termination cells carry the bucket start `duration` and its width
    `duration_width`; inception cells carry neither.
    """

    kind: StudyKind
    age: int
    duration: float | None = None
    duration_width: float | None = None

    def __post_init__(self):
        if self.kind is StudyKind.INCEPTION:
            if self.duration is not None or self.duration_width is not None:
                raise ValueError("inception cells must not carry a duration")
        else:
            if self.duration is None or self.duration_width is None:
                raise ValueError(
                    "termination cells require duration and duration_width"
                )
            if self.duration < 0:
                raise ValueError("duration must be nonnegative")
            if self.duration_width <= 0:
                raise ValueError("duration_width must be positive")

    @property
    def label(self):
        if self.kind is StudyKind.INCEPTION:
            return f"a{self.age}"
        return f"a{self.age}_d{self.duration:g}"


class CellPanel:
    """Immutable panel of exposures and event counts.

    `exposure` and `events` are integer arrays of shape (num_cells, n) with
    period t stored at column t-1.  Cell/period combinations absent from the
    source are stored as exposure 0 so their likelihood terms vanish.
    """

    def __init__(self, cells, exposure, events):
        cells = tuple(cells)
        if not cells:
            raise PanelValidationError("panel needs at least one cell")
        kinds = {c.kind for c in cells}
        if len(kinds) != 1:
            raise PanelValidationError("panel mixes inception and termination cells")
        if len(set(cells)) != len(cells):
            raise PanelValidationError("duplicate cells in panel")
        exposure = np.asarray(exposure)
        events = np.asarray(events)
        if exposure.shape != events.shape or exposure.ndim != 2:
            raise PanelValidationError("exposure/events must share shape (cells, n)")
        if exposure.shape[0] != len(cells):
            raise PanelValidationError("row count does not match cell count")
        if exposure.shape[1] < 1:
            raise PanelValidationError("panel needs at least 1 period")
        for name, arr in (("exposure", exposure), ("events", events)):
            if not np.issubdtype(arr.dtype, np.integer):
                raise PanelValidationError(f"{name} must be integer counts")
            if (arr < 0).any():
                raise PanelValidationError(f"{name} contains negative counts")
        bad = np.argwhere(events > exposure)
        if bad.size:
            c, t = bad[0]
            raise PanelValidationError(
                f"events exceed exposure for cell {cells[c].label}, period {t + 1}"
            )
        self._cells = cells
        self._exposure = exposure.astype(np.int64, copy=True)
        self._events = events.astype(np.int64, copy=True)
        self._exposure.setflags(write=False)
        self._events.setflags(write=False)

    @property
    def kind(self):
        return self._cells[0].kind

    @property
    def cells(self):
        return self._cells

    @property
    def exposure(self):
        return self._exposure

    @property
    def events(self):
        return self._events

    @property
    def n(self):
        """Number of periods."""
        return self._exposure.shape[1]

    @property
    def num_cells(self):
        return len(self._cells)

    def __eq__(self, other):
        if not isinstance(other, CellPanel):
            return NotImplemented
        return (
            self._cells == other._cells
            and np.array_equal(self._exposure, other._exposure)
            and np.array_equal(self._events, other._events)
        )


def _parse_count(text, column, line):
    """Parse a nonnegative integer count; reject fractional inputs."""
    text = text.strip()
    try:
        value = int(text)
    except ValueError:
        try:
            as_float = float(text)
        except ValueError:
            raise PanelFormatError(f"{column} {text!r} is not a number", line) from None
        if as_float != int(as_float):
            raise PanelFormatError(
                f"{column} {text!r} is fractional; counts must be integers", line
            ) from None
        value = int(as_float)
    if value < 0:
        raise PanelFormatError(f"{column} must be nonnegative, got {value}", line)
    return value


def load_panel(source, schema):
    """Load a CellPanel from CSV.

    `source` may be a path, text, bytes, or a file object.  `schema` selects
    the inception or termination column layout (see module constants).
    """
    schema = StudyKind(schema)
    text = read_text(source)
    reader = csv.reader(io.StringIO(text))
    try:
        header = next(reader)
    except StopIteration:
        raise PanelFormatError("empty input") from None
    header = tuple(h.strip() for h in header)
    expected = (
        INCEPTION_COLUMNS if schema is StudyKind.INCEPTION else TERMINATION_COLUMNS
    )
    if header != expected:
        raise PanelFormatError(
            f"expected header {','.join(expected)}, got {','.join(header)}", line=1
        )

    records = {}
    for line, row in enumerate(reader, start=2):
        if not row or all(not f.strip() for f in row):
            continue
        if len(row) != len(expected):
            raise PanelFormatError(
                f"expected {len(expected)} fields, got {len(row)}", line
            )
        period = _parse_count(row[0], "period", line)
        age = _parse_count(row[1], "age", line)
        if schema is StudyKind.INCEPTION:
            cell = Cell(StudyKind.INCEPTION, age)
            exposure_text, events_text = row[2], row[3]
        else:
            try:
                duration = float(row[2])
                width = float(row[3])
            except ValueError:
                raise PanelFormatError("duration fields must be numeric", line) from None
            try:
                cell = Cell(StudyKind.TERMINATION, age, duration, width)
            except ValueError as exc:
                raise PanelFormatError(str(exc), line) from None
            exposure_text, events_text = row[4], row[5]
        exposure = _parse_count(exposure_text, "exposure", line)
        events = _parse_count(events_text, "events", line)
        if events > exposure:
            raise PanelValidationError(
                f"line {line}: events {events} exceed exposure {exposure} "
                f"for cell {cell.label}, period {period}"
            )
        key = (cell, period)
        if key in records:
            raise PanelFormatError(
                f"duplicate row for cell {cell.label}, period {period}", line
            )
        records[key] = (exposure, events)

    if not records:
        raise PanelFormatError("no data rows")
    periods = sorted({p for _, p in records})
    n = max(periods)
    if periods[0] != 1 or periods != list(range(1, n + 1)):
        raise PanelFormatError(
            f"periods must be consecutive integers starting at 1, got {periods}"
        )
    if n < 2:
        raise PanelValidationError("a study panel needs at least 2 periods")
    cells = sorted({c for c, _ in records})
    index = {c: i for i, c in enumerate(cells)}
    exposure = np.zeros((len(cells), n), dtype=np.int64)
    events = np.zeros((len(cells), n), dtype=np.int64)
    for (cell, period), (e, d) in records.items():
        exposure[index[cell], period - 1] = e
        events[index[cell], period - 1] = d
    return CellPanel(cells, exposure, events)


def serialize_panel(panel):
    """Render a panel back to its CSV schema (cells sorted, periods 1..n)."""
    out = io.StringIO()
    writer = csv.writer(out, lineterminator="\n")
    if panel.kind is StudyKind.INCEPTION:
        writer.writerow(INCEPTION_COLUMNS)
        for t in range(panel.n):
            for i, cell in enumerate(panel.cells):
                writer.writerow(
                    [t + 1, cell.age, panel.exposure[i, t], panel.events[i, t]]
                )
    else:
        writer.writerow(TERMINATION_COLUMNS)
        for t in range(panel.n):
            for i, cell in enumerate(panel.cells):
                writer.writerow(
                    [
                        t + 1,
                        cell.age,
                        repr(float(cell.duration)),
                        repr(float(cell.duration_width)),
                        panel.exposure[i, t],
                        panel.events[i, t],
                    ]
                )
    return out.getvalue()


def read_text(source):
    """The text of `source`: a path, CSV text, bytes, or a file object."""
    if isinstance(source, bytes):
        return source.decode("utf-8")
    if hasattr(source, "read"):
        data = source.read()
        return data.decode("utf-8") if isinstance(data, bytes) else data
    source = str(source)
    # Strings with a newline are CSV content; anything else is a path.
    if "\n" in source:
        return source
    with open(source, "r", encoding="utf-8") as fh:
        return fh.read()
