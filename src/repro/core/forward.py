"""The FoRWaRD algorithm — static phase (Section V of the paper).

FoRWaRD embeds the facts of one relation ``R`` (the prediction relation in
the experiments).  For every walk target ``(s, A)`` — a walk scheme ``s`` of
length at most ``ℓ_max`` starting at ``R`` together with a non-foreign-key
attribute ``A`` of the scheme's destination relation — it learns a symmetric
matrix ``ψ(s, A)`` alongside the fact embeddings ``φ(f)`` such that::

    φ(f)ᵀ ψ(s, A) φ(f') ≈ KD(d_{s,f}[A], d_{s,f'}[A])

(Equation (3)).  Training minimises the squared error of Equation (5) with
stochastic gradient descent, using a single sampled destination value per
side as an unbiased estimate of the expected kernel distance.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Sequence

import numpy as np

from repro.core.base import TupleEmbedding
from repro.core.config import ForwardConfig
from repro.db.database import Database, Fact
from repro.engine import WalkEngine, sample_codes, sample_distinct_pairs
from repro.kernels.base import Kernel
from repro.kernels.registry import KernelRegistry, default_kernels
from repro.optim.optimizers import Adam, segment_sum
from repro.utils.rng import ensure_rng
from repro.walks.random_walks import AttributeDistribution
from repro.walks.schemes import WalkScheme, walk_targets


@dataclass(frozen=True)
class WalkTarget:
    """One pair ``(s, A)`` of ``T(R, ℓ_max)`` with its domain kernel."""

    index: int
    scheme: WalkScheme
    attribute: str
    kernel: Kernel

    def __str__(self) -> str:  # pragma: no cover - debugging aid
        return f"({self.scheme}).{self.attribute}"


@dataclass
class _TargetSamples:
    """Pre-drawn training samples for one walk target."""

    target_index: int
    left_rows: np.ndarray
    right_rows: np.ndarray
    kernel_values: np.ndarray

    def __len__(self) -> int:
        return len(self.kernel_values)


class ForwardModel:
    """A trained FoRWaRD embedding: ``φ``, ``ψ`` and the walk-target metadata.

    Besides the learned parameters, the model keeps the per-fact destination
    distributions computed on the training database.  The dynamic extension
    reuses them in the one-by-one setting, where the paper explicitly does
    not recompute walks starting at old tuples.
    """

    def __init__(
        self,
        relation: str,
        config: ForwardConfig,
        targets: Sequence[WalkTarget],
        fact_ids: Sequence[int],
        phi: np.ndarray,
        psi: np.ndarray,
        distributions: dict[tuple[int, int], AttributeDistribution | None],
        loss_history: Sequence[float] = (),
    ):
        self.relation = relation
        self.config = config
        self.targets = tuple(targets)
        self.fact_ids = tuple(fact_ids)
        self.fact_row = {fid: row for row, fid in enumerate(self.fact_ids)}
        self.phi = phi
        self.psi = psi
        self.distributions = distributions
        self.loss_history = list(loss_history)
        self._extended: dict[int, np.ndarray] = {}

    # ------------------------------------------------------------- lookups

    @property
    def dimension(self) -> int:
        return self.config.dimension

    def has_fact(self, fact: Fact | int) -> bool:
        key = fact.fact_id if isinstance(fact, Fact) else int(fact)
        return key in self.fact_row or key in self._extended

    def vector(self, fact: Fact | int) -> np.ndarray:
        key = fact.fact_id if isinstance(fact, Fact) else int(fact)
        if key in self.fact_row:
            return self.phi[self.fact_row[key]].copy()
        return self._extended[key].copy()

    def embedding(self) -> TupleEmbedding:
        """The tuple embedding ``γ`` (trained facts plus dynamic extensions)."""
        result = TupleEmbedding(self.dimension)
        for fact_id, row in self.fact_row.items():
            result.set(fact_id, self.phi[row])
        for fact_id, vector in self._extended.items():
            result.set(fact_id, vector)
        return result

    def distribution(self, fact_id: int, target_index: int) -> AttributeDistribution | None:
        """Cached training-time destination distribution for (fact, target)."""
        return self.distributions.get((fact_id, target_index))

    # ------------------------------------------------------------ extension

    def add_extended(self, fact: Fact | int, vector: np.ndarray) -> None:
        """Record the embedding of a newly inserted fact (dynamic phase)."""
        key = fact.fact_id if isinstance(fact, Fact) else int(fact)
        vector = np.asarray(vector, dtype=np.float64)
        if vector.shape != (self.dimension,):
            raise ValueError(f"expected dimension {self.dimension}, got {vector.shape}")
        if key in self.fact_row:
            raise ValueError(f"fact {key} already has a trained embedding")
        self._extended[key] = vector.copy()

    def discard_extended(self, fact: Fact | int) -> bool:
        """Drop a dynamically extended embedding (deleted or updated fact).

        Trained embeddings cannot be discarded — they are part of ``phi``
        and frozen by the stability guarantee.  Returns True when an
        extended vector was present.
        """
        key = fact.fact_id if isinstance(fact, Fact) else int(fact)
        return self._extended.pop(key, None) is not None

    @property
    def extended_fact_ids(self) -> tuple[int, ...]:
        return tuple(self._extended.keys())


class ForwardEmbedder:
    """Static-phase FoRWaRD trainer for one relation of a database.

    Destination distributions and training batches are computed by the
    compiled walk engine (:mod:`repro.engine`): all facts of the relation
    are propagated at once through sparse transition matrices, and the
    stochastic samples of Equation (5) are drawn in vectorised batches.
    Pass an existing ``engine`` to share compiled arrays (and their caches)
    across embedders and methods; one is compiled on demand otherwise.
    """

    def __init__(
        self,
        db: Database,
        relation: str,
        config: ForwardConfig | None = None,
        kernels: KernelRegistry | None = None,
        rng: int | np.random.Generator | None = None,
        engine: WalkEngine | None = None,
    ):
        self.db = db
        self.relation = relation
        self.config = config or ForwardConfig()
        self.kernels = kernels or default_kernels(db)
        self.rng = ensure_rng(rng)
        if engine is not None and engine.db is not db:
            raise ValueError("engine is compiled from a different database")
        self._engine = engine
        db.schema.relation(relation)

    @property
    def engine(self) -> WalkEngine:
        if self._engine is None:
            self._engine = WalkEngine(self.db)
        return self._engine

    # -------------------------------------------------------------- targets

    def build_targets(self) -> list[WalkTarget]:
        """Enumerate ``T(R, ℓ_max)`` and attach each target's domain kernel."""
        targets: list[WalkTarget] = []
        for scheme, attr in walk_targets(self.db.schema, self.relation, self.config.max_walk_length):
            kernel = self.kernels.get(scheme.end_relation, attr.name)
            targets.append(WalkTarget(len(targets), scheme, attr.name, kernel))
        return targets

    # ------------------------------------------------------------- sampling

    def _prepare_training(
        self, facts: Sequence[Fact], targets: Sequence[WalkTarget]
    ) -> tuple[dict[tuple[int, int], AttributeDistribution | None], list[_TargetSamples]]:
        """Compute all attribute distributions and draw the training set.

        For every target ``(s, A)`` the engine computes the distributions of
        ``d_{f,s}[A]`` for *all* facts at once as one sparse matrix; the
        stochastic samples of Section V-D — ``n_samples`` tuples
        ``(f, f', g[A], g'[A])`` with ``f ≠ f'`` both having an existing
        destination distribution — are then drawn in vectorised batches, with
        ``κ(g[A], g'[A])`` as the stochastic estimate of the expected kernel
        distance.
        """
        engine = self.engine
        engine.refresh()
        compiled_rel = engine.compiled.relations[self.relation]
        engine_rows = np.array(
            [compiled_rel.row_of[f.fact_id] for f in facts], dtype=np.int64
        )
        distributions: dict[tuple[int, int], AttributeDistribution | None] = {}
        samples: list[_TargetSamples] = []
        for target in targets:
            matrix, vocab = engine.attribute_matrix(target.scheme, target.attribute)
            matrix = matrix[engine_rows]  # align matrix rows with ``facts``/φ rows
            indptr, indices, data = matrix.indptr, matrix.indices, matrix.data
            for row, fact in enumerate(facts):
                lo, hi = indptr[row], indptr[row + 1]
                if lo == hi:
                    distributions[(fact.fact_id, target.index)] = None
                else:
                    distributions[(fact.fact_id, target.index)] = AttributeDistribution(
                        target.scheme,
                        target.attribute,
                        tuple(vocab[indices[lo:hi]]),
                        data[lo:hi].copy(),
                    )
            drawn = self._draw_target_samples(target, matrix, vocab)
            if drawn is not None:
                samples.append(drawn)
        return distributions, samples

    def _draw_target_samples(self, target: WalkTarget, matrix, vocab) -> _TargetSamples | None:
        """Vectorised draw of one target's ``(f, f', g[A], g'[A])`` samples."""
        valid_rows = np.nonzero(np.diff(matrix.indptr) > 0)[0]
        if valid_rows.size < 2:
            return None
        count = self.config.n_samples
        left, right = sample_distinct_pairs(valid_rows, count, self.rng)
        left_codes = sample_codes(matrix, left, self.rng)
        right_codes = sample_codes(matrix, right, self.rng)
        kernel_values = target.kernel.elementwise(vocab[left_codes], vocab[right_codes])
        return _TargetSamples(
            target.index,
            left.astype(np.int64),
            right.astype(np.int64),
            np.asarray(kernel_values, dtype=np.float64),
        )

    # ------------------------------------------------------------- training

    def fit(self) -> ForwardModel:
        """Run the static phase and return the trained :class:`ForwardModel`."""
        facts = list(self.db.facts(self.relation))
        if len(facts) < 2:
            raise ValueError(
                f"relation {self.relation!r} has {len(facts)} facts; "
                "FoRWaRD needs at least two facts to train"
            )
        targets = self.build_targets()
        if not targets:
            raise ValueError(
                f"no walk targets found for relation {self.relation!r}: every "
                "reachable attribute participates in a foreign key"
            )
        distributions, samples = self._prepare_training(facts, targets)
        if not samples:
            raise ValueError(
                f"no usable training samples for relation {self.relation!r}; "
                "check that walk targets have non-null destination values"
            )

        dim = self.config.dimension
        phi = self.rng.normal(0.0, 1.0 / np.sqrt(dim), size=(len(facts), dim))
        # ψ starts near the identity (RESCAL-style): the initial bilinear form
        # is then close to a plain inner product, which makes the regression
        # onto kernel values converge much faster than a zero-mean random ψ.
        psi = np.stack(
            [
                np.eye(dim)
                + _symmetrize(self.rng.normal(0.0, self.config.init_scale, size=(dim, dim)))
                for _ in targets
            ]
        )
        loss_history = self._train(phi, psi, samples)

        fact_ids = [f.fact_id for f in facts]
        return ForwardModel(
            self.relation,
            self.config,
            targets,
            fact_ids,
            phi,
            psi,
            distributions,
            loss_history,
        )

    def _train(
        self, phi: np.ndarray, psi: np.ndarray, samples: list[_TargetSamples]
    ) -> list[float]:
        optimizer = Adam(self.config.learning_rate)
        params = {"phi": phi, "psi": psi}
        batch_size = self.config.batch_size
        history: list[float] = []
        for _ in range(self.config.epochs):
            epoch_loss = 0.0
            num_batches = 0
            for target_samples in samples:
                order = self.rng.permutation(len(target_samples))
                for start in range(0, len(target_samples), batch_size):
                    batch = order[start : start + batch_size]
                    loss, grads, rows = self._batch_step(phi, psi, target_samples, batch)
                    optimizer.update(params, grads, rows)
                    epoch_loss += loss
                    num_batches += 1
            history.append(epoch_loss / max(num_batches, 1))
        return history

    @staticmethod
    def _batch_step(
        phi: np.ndarray,
        psi: np.ndarray,
        samples: _TargetSamples,
        batch: np.ndarray,
    ) -> tuple[float, dict[str, np.ndarray], dict[str, np.ndarray]]:
        """Loss and sparse gradients of Equation (5) for one mini-batch."""
        left = samples.left_rows[batch]
        right = samples.right_rows[batch]
        kappa = samples.kernel_values[batch]
        matrix = psi[samples.target_index]
        f_left = phi[left]
        f_right = phi[right]
        left_projected = f_left @ matrix
        scores = np.sum(left_projected * f_right, axis=1)
        errors = scores - kappa
        size = max(len(batch), 1)
        loss = float(0.5 * np.mean(errors**2))

        grad_left = errors[:, None] * (f_right @ matrix) / size
        grad_right = errors[:, None] * left_projected / size
        grad_matrix = (f_left * errors[:, None]).T @ f_right / size
        grad_matrix = _symmetrize(grad_matrix)

        unique_rows, grad_phi = segment_sum(
            np.concatenate([left, right]), np.concatenate([grad_left, grad_right])
        )

        grads = {"phi": grad_phi, "psi": grad_matrix[None]}
        rows = {"phi": unique_rows, "psi": np.array([samples.target_index])}
        return loss, grads, rows


def _symmetrize(matrix: np.ndarray) -> np.ndarray:
    return 0.5 * (matrix + matrix.T)
