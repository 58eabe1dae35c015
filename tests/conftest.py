import os
import sys

import pytest

from levitanaka.graded import GradedLieAlgebra

sys.path.insert(0, os.path.dirname(__file__))


@pytest.fixture()
def degree_1_unfaithful(monkeypatch):
    """unfaithful_degrees also names degree 1 wherever an algebra has it.

    A prolongation then fails its transitivity check at degree 1, while
    validate only scans more triples and stays a certificate.
    """
    original = GradedLieAlgebra.unfaithful_degrees

    def unfaithful_degrees(self):
        found = original(self)
        return found | {1} if 1 in self.degrees else found

    monkeypatch.setattr(GradedLieAlgebra, "unfaithful_degrees", unfaithful_degrees)
