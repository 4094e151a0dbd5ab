"""NumPy optimization substrate (stands in for the paper's PyTorch usage).

The two training objectives of the paper — the FoRWaRD bilinear regression
loss (Equation (5)) and the skip-gram negative-sampling loss used by the
Node2Vec adaptation — are small closed-form expressions, so their gradients
are derived analytically and applied with the optimizers in this package.

Both trainers share one row-sparse kernel.  :func:`segment_sum` accumulates
per-sample gradients into the distinct rows they touch with one CSR
product, bit-identical to ``np.add.at``; the optimizers then update those
rows with plain fancy indexing, keeping their state allocated once per
parameter shape.
"""

from repro.optim.optimizers import SGD, Adam, Momentum, Optimizer, segment_sum
from repro.optim.schedules import ConstantSchedule, ExponentialDecay, LinearDecay, Schedule
from repro.optim.gradcheck import numerical_gradient

__all__ = [
    "Optimizer",
    "SGD",
    "Momentum",
    "Adam",
    "segment_sum",
    "Schedule",
    "ConstantSchedule",
    "LinearDecay",
    "ExponentialDecay",
    "numerical_gradient",
]
