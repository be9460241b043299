"""Semi-supervision inputs: labeled objects and labeled dimensions.

The paper defines two kinds of domain knowledge (Section 3):

* a set ``Io`` of labeled objects — ``(object id, class label)`` pairs —
  each stating that the object belongs to the class, and
* a set ``Iv`` of labeled dimensions — ``(dimension id, class label)``
  pairs — each stating that the dimension is relevant to the class.

Neither set needs to cover all classes, and the same dimension may be
labeled for several classes.  :class:`Knowledge` bundles both sets; the
``sampling`` module draws knowledge from a ground-truth description
following the protocol of Section 5.3 (coverage ratio x input size).
"""

from repro.semisupervision.knowledge import Knowledge, LabeledDimensions, LabeledObjects
from repro.semisupervision.sampling import KnowledgeSampler, sample_knowledge

__all__ = [
    "Knowledge",
    "LabeledObjects",
    "LabeledDimensions",
    "KnowledgeSampler",
    "sample_knowledge",
]
