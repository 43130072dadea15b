"""A window pricing that reproduces the width cap window fusion had.

Window fusion takes the cheapest split under a pricing
(:data:`repro.compile.cost.Pricing`). :func:`window_cap` prices every
window of at most ``max_qubits`` qubits at 1 and a wider one of more than
one op at infinity, so the cheapest split is the fewest windows under the
cap. Ties going to the longest first window, that is exactly the
partition the greedy capped pass made before windows were priced
(``test_passes`` checks it against that pass). Tests, and corpora pinned
under the old partition, compile with it.
"""

import math


def window_cap(max_qubits):
    """The :data:`~repro.compile.cost.Pricing` of a ``max_qubits`` cap."""
    def pricing(m=0, itemsize=0):
        def cost(ops, width):
            return 1.0 if len(ops) == 1 or width <= max_qubits else math.inf
        return cost
    return pricing
