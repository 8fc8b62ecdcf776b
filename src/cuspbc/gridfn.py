"""Tabulated radial functions: the exchange currency between the solver,
the cusp checkers, and the CLI."""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .errors import DomainError


@dataclass(frozen=True)
class RadialFunction:
    """Radial function sampled on a grid.

    meaning = "R" is the full radial function, meaning = "u" the reduced
    one with the r^ell root divided out (R = r^ell * u).
    """

    grid: np.ndarray
    values: np.ndarray
    ell: int = 0
    meaning: str = "R"

    def __post_init__(self):
        grid = np.asarray(self.grid, dtype=float)
        values = np.asarray(self.values)
        object.__setattr__(self, "grid", grid)
        object.__setattr__(self, "values", values)
        if grid.ndim != 1 or grid.shape != values.shape:
            raise DomainError("grid and values must be 1-d arrays of equal length")
        if not np.all(np.diff(grid) > 0):
            raise DomainError("grid must be strictly increasing")
        if not np.all(np.isfinite(values)):
            raise DomainError("values must be finite")
        if self.meaning not in ("R", "u"):
            raise DomainError("meaning must be 'R' or 'u'")
        if self.ell < 0:
            raise DomainError("ell must be non-negative")

    def as_full(self) -> "RadialFunction":
        """Return the R = r^ell * u view of this function."""
        if self.meaning == "R":
            return self
        return RadialFunction(self.grid, self.values * self.grid**self.ell,
                              self.ell, "R")

    def as_reduced(self) -> "RadialFunction":
        """Return the u = R / r^ell view (grid must exclude r = 0 for ell > 0)."""
        if self.meaning == "u":
            return self
        if self.ell > 0 and self.grid[0] <= 0.0:
            raise DomainError("cannot divide out r^ell at r = 0")
        return RadialFunction(self.grid, self.values / self.grid**self.ell,
                              self.ell, "u")

    def to_csv(self) -> str:
        """One "r,value,ell,meaning" row per node, floats as their repr."""
        return next(csv_texts([self]))


def _csv_column(a: np.ndarray) -> list[str]:
    """The repr of each float of a 1-d array."""
    return list(map(repr, a.tolist()))


def csv_template(lead, row: str) -> str:
    """A `%` template of one CSV line per cell of lead: the cell's text, then
    row, whose %r fields one flat tuple of floats fills, line by line (%r of
    a float is its repr).  lead and row's literal text must hold no `%`."""
    return row.join(lead) + row if lead else ""


def csv_texts(functions):
    """Yield the to_csv() text of each function in turn.  A grid that is
    the previous function's grid array is not formatted again, so the
    states of one solve, which share their grid, pay for it once, and share
    one template per (ell, meaning)."""
    grid = None
    for fn in functions:
        if fn.grid is not grid:
            grid, cells, templates = fn.grid, _csv_column(fn.grid), {}
        tail = f",{fn.ell},{fn.meaning}\n"
        if tail not in templates:
            templates[tail] = csv_template(cells, f",%r{tail}")
        values = fn.values.astype(float, casting="same_kind", copy=False)
        text = templates[tail] % tuple(values.tolist())
        yield "r,value,ell,meaning\n" + text
