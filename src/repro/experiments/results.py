"""Result containers and reporting for the experiment drivers."""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Dict, List

from repro.utils.tables import Table


@dataclass
class SeriesResult:
    """One plotted series of a figure: a name plus aligned x/y values."""

    name: str
    x: List[float] = field(default_factory=list)
    y: List[float] = field(default_factory=list)

    def add(self, x: float, y: float) -> None:
        """Append one point."""
        self.x.append(float(x))
        self.y.append(float(y))

    def as_rows(self) -> List[tuple]:
        """Rows of ``(series, x, y)`` for tabular output."""
        return [(self.name, xv, yv) for xv, yv in zip(self.x, self.y, strict=True)]


@dataclass
class ExperimentResult:
    """The data behind one figure of the paper.

    Attributes:
        experiment: experiment identifier (``figure1`` .. ``figure8``).
        title: human-readable description.
        x_label / y_label: axis labels matching the paper's figure.
        series: one :class:`SeriesResult` per plotted curve / bar.
        notes: free-form annotations (scale used, seeds, paper reference
            values) recorded alongside the data.
    """

    experiment: str
    title: str
    x_label: str
    y_label: str
    series: List[SeriesResult] = field(default_factory=list)
    notes: Dict[str, str] = field(default_factory=dict)

    def add_series(self, name: str) -> SeriesResult:
        """Create, register and return a new series."""
        series = SeriesResult(name=name)
        self.series.append(series)
        return series

    def get_series(self, name: str) -> SeriesResult:
        """Return the series with the given name."""
        for series in self.series:
            if series.name == name:
                return series
        raise KeyError("no series named %r in %s" % (name, self.experiment))

    def to_table(self) -> Table:
        """Render all series as one column-aligned table."""
        table = Table(
            [self.x_label, *[s.name for s in self.series]],
            title="%s — %s" % (self.experiment, self.title),
        )
        xs = sorted({x for s in self.series for x in s.x})
        for x in xs:
            row = [
                s.y[s.x.index(x)] if x in s.x else "-" for s in self.series
            ]
            table.add_row(x, *row)
        return table

    def render(self) -> str:
        """Table plus notes, ready to print."""
        lines = [self.to_table().render()]
        if self.notes:
            lines.append("")
            lines.extend(
                "note[%s]: %s" % (key, self.notes[key])
                for key in sorted(self.notes)
            )
        return "\n".join(lines)


__all__ = ["SeriesResult", "ExperimentResult"]
