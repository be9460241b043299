"""Validation of possibly incorrect knowledge (future-work extension).

Section 6 of the paper lists "allow incorrect inputs" as a future
extension: before incorrect labels are used to guide clustering they
should be validated against the assumed data model.  This module
implements a screening step based exactly on that model:

* A *labeled object* claimed for a class should be close to the other
  labeled objects of the same class along at least a few dimensions whose
  sample variance is well below the global variance.  Objects that share
  no such dimensions with their peers are flagged.
* A *labeled dimension* claimed for a class should show a column variance
  over the class's labeled objects that is clearly below the global
  column variance.  Dimensions that fail the variance-ratio test are
  flagged.

The validator never mutates the input knowledge; it returns a cleaned
copy plus a report of what it rejected so callers can decide whether to
trust the screen.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import List, Tuple

import numpy as np

from repro.core.objective import column_median
from repro.semisupervision.knowledge import Knowledge, LabeledDimensions, LabeledObjects
from repro.utils.validation import check_array_2d, check_fraction


@dataclass
class ValidationReport:
    """What the validator rejected and why."""

    rejected_objects: List[Tuple[int, int, str]] = field(default_factory=list)
    rejected_dimensions: List[Tuple[int, int, str]] = field(default_factory=list)

    def n_rejections(self) -> int:
        """Total number of rejected knowledge items."""
        return len(self.rejected_objects) + len(self.rejected_dimensions)


@dataclass
class KnowledgeValidator:
    """Screen labeled objects / dimensions against the data model.

    Parameters
    ----------
    variance_ratio:
        A labeled dimension is accepted when the variance of the class's
        labeled objects along it is below ``variance_ratio`` times the
        global column variance.  The default (0.5) matches the middle of
        the ``m`` range the paper recommends.
    min_supporting_dimensions:
        Minimum number of low-variance dimensions the peers must exhibit
        before an object is screened at all; with fewer dimensions there
        is not enough evidence to overrule the supplied label.
    max_mean_squared_z:
        A labeled object is rejected when its mean squared standardised
        deviation from the peers' median — measured over the peers'
        low-variance dimensions, standardised by the peers' local spread
        — exceeds this value.  The default (16, i.e. an RMS deviation of
        four local standard deviations) keeps genuine members while
        flagging objects drawn from other classes.
    """

    variance_ratio: float = 0.5
    min_supporting_dimensions: int = 1
    max_mean_squared_z: float = 16.0

    def __post_init__(self) -> None:
        self.variance_ratio = check_fraction(
            self.variance_ratio, name="variance_ratio", inclusive_low=False
        )
        if self.min_supporting_dimensions < 1:
            raise ValueError("min_supporting_dimensions must be at least 1")
        if self.max_mean_squared_z <= 0:
            raise ValueError("max_mean_squared_z must be positive")

    def validate(self, data, knowledge: Knowledge) -> Tuple[Knowledge, ValidationReport]:
        """Return a screened copy of ``knowledge`` and a rejection report."""
        data = check_array_2d(data, name="data")
        report = ValidationReport()
        global_variance = data.var(axis=0, ddof=1)
        global_std = np.sqrt(np.maximum(global_variance, np.finfo(float).tiny))

        kept_object_pairs: List[Tuple[int, int]] = []
        for label in knowledge.objects.classes():
            members = knowledge.objects.for_class(label)
            if members.size < 3:
                # Too few peers to judge; keep them all (screening needs context).
                kept_object_pairs.extend((int(obj), label) for obj in members)
                continue
            for obj in members:
                peers = members[members != obj]
                peer_block = data[peers]
                peer_variance = peer_block.var(axis=0, ddof=1)
                peer_std = np.sqrt(np.maximum(peer_variance, np.finfo(float).tiny))
                low_variance = peer_variance < self.variance_ratio * global_variance
                if np.count_nonzero(low_variance) < self.min_supporting_dimensions:
                    # Not enough evidence to overrule the supplied label.
                    kept_object_pairs.append((int(obj), label))
                    continue
                median = column_median(peer_block)
                deviation = np.abs(data[obj] - median)
                # Standardise by the peers' local spread (with a small floor so
                # an accidentally tiny peer variance cannot reject everything)
                # and judge the object by its mean squared deviation over the
                # peers' low-variance dimensions.
                scale = np.maximum(peer_std, 0.05 * global_std)
                z_scores = deviation / scale
                mean_squared_z = float(np.mean(z_scores[low_variance] ** 2))
                if mean_squared_z <= self.max_mean_squared_z:
                    kept_object_pairs.append((int(obj), label))
                else:
                    report.rejected_objects.append(
                        (int(obj), label, "far from class peers along the low-variance dimensions")
                    )

        kept_objects = LabeledObjects.from_pairs(kept_object_pairs)

        kept_dimension_pairs: List[Tuple[int, int]] = []
        for label in knowledge.dimensions.classes():
            dims = knowledge.dimensions.for_class(label)
            members = kept_objects.for_class(label)
            for dim in dims:
                if members.size < 2:
                    # Without labeled objects the model gives no handle to test
                    # the dimension, so it is kept as supplied.
                    kept_dimension_pairs.append((int(dim), label))
                    continue
                local_variance = data[members, dim].var(ddof=1)
                if local_variance <= self.variance_ratio * global_variance[dim]:
                    kept_dimension_pairs.append((int(dim), label))
                else:
                    report.rejected_dimensions.append(
                        (
                            int(dim),
                            label,
                            "labeled objects show no reduced variance along this dimension",
                        )
                    )

        cleaned = Knowledge(
            objects=kept_objects,
            dimensions=LabeledDimensions.from_pairs(kept_dimension_pairs),
        )
        return cleaned, report
