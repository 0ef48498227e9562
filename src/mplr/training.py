"""Mini-batch Adam training, early stopping, and link-prediction evaluation.

Training groups the train split into multi-target queries, shuffles them each
epoch (seeded), and takes Adam steps on the mean batch loss. After every epoch
the validation MRR decides early stopping; the best-validation checkpoint is
returned. Evaluation follows the filtered protocol: one (h, q, ?) query per
test triplet with the queried edge excluded from propagation, the head removed
from the candidate list, and ties resolved by the mean rank among tied scores
(a hit at k requires that fractional rank to be <= k).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .kg import KnowledgeGraph, DatasetSplits, group_queries
from .operators import OperatorSet, build_operators
from .indicators import BifurcationRecord, FORWARD
from .model import (
    CORRECTED,
    ModelParams,
    attention_forward,
    loss_and_gradients,
    score_entities,
)

TIE_RULE = "mean-rank-among-ties"


class TrainingDivergedError(RuntimeError):
    pass


@dataclass
class TrainConfig:
    max_len: int = 2
    rank: int = 3
    embed_dim: int = 128
    hidden_dim: int = 128
    batch_size: int = 128
    learning_rate: float = 0.001
    max_epochs: int = 10
    patience: int = 3
    seed: int = 0
    normalize: str | None = "l2"
    epsilon_mode: str = CORRECTED
    beta1: float = 0.9
    beta2: float = 0.999
    adam_eps: float = 1e-8
    hit_ks: tuple[int, ...] = (1, 3, 10)

    def validate(self):
        if self.max_len < 1 or self.rank < 1:
            raise ValueError("max_len and rank must be >= 1")
        for name in ("embed_dim", "hidden_dim", "batch_size", "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be positive")
        if self.learning_rate <= 0:
            raise ValueError("learning_rate must be positive")
        return self


class AdamOptimizer:
    """Adam over a dict of named tensors; updates in place, deterministically."""

    def __init__(self, tensors, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        self.m = {k: np.zeros_like(v) for k, v in tensors.items()}
        self.v = {k: np.zeros_like(v) for k, v in tensors.items()}

    def step(self, tensors, grads):
        self.t += 1
        bc1 = 1.0 - self.beta1**self.t
        bc2 = 1.0 - self.beta2**self.t
        for k, g in grads.items():
            self.m[k] = self.beta1 * self.m[k] + (1 - self.beta1) * g
            self.v[k] = self.beta2 * self.v[k] + (1 - self.beta2) * g * g
            m_hat = self.m[k] / bc1
            v_hat = self.v[k] / bc2
            tensors[k] -= self.lr * m_hat / (np.sqrt(v_hat) + self.eps)


@dataclass
class EpochStats:
    epoch: int
    train_loss: float
    valid_mrr: float | None

    def as_line(self):
        mrr = "-" if self.valid_mrr is None else f"{self.valid_mrr:.4f}"
        return f"epoch={self.epoch} train_loss={self.train_loss:.4f} valid_mrr={mrr}"


def train(
    kg: KnowledgeGraph,
    splits: DatasetSplits,
    config: TrainConfig,
    *,
    ops: OperatorSet | None = None,
    log_fn=None,
):
    """Train on the grouped train split; returns (best params, epoch stats).

    Early stopping watches validation MRR with the configured patience; with an
    empty validation split the final parameters are returned instead.
    """
    config.validate()
    if not splits.train:
        raise ValueError("empty train split")
    ops = ops or build_operators(kg)
    queries = group_queries(splits.train)
    params = ModelParams(
        kg.num_predicates,
        rank=config.rank,
        max_len=config.max_len,
        embed_dim=config.embed_dim,
        hidden_dim=config.hidden_dim,
        seed=config.seed,
        normalize=config.normalize,
        epsilon_mode=config.epsilon_mode,
    )
    adam = AdamOptimizer(
        params.tensors,
        lr=config.learning_rate,
        beta1=config.beta1,
        beta2=config.beta2,
        eps=config.adam_eps,
    )
    rng = np.random.default_rng(config.seed)
    stats: list[EpochStats] = []
    best_params = params.copy()
    best_mrr = -np.inf
    best_loss = np.inf
    bad_epochs = 0
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(queries))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [queries[i] for i in order[start : start + config.batch_size]]
            loss, grads = loss_and_gradients(ops, params, batch)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch starting at {start} (loss={loss})"
                )
            scale = 1.0 / len(batch)
            for g in grads.values():
                g *= scale
            adam.step(params.tensors, grads)
            epoch_loss += loss
        epoch_loss /= len(queries)
        valid_mrr = None
        if splits.valid:
            valid_mrr = evaluate(
                kg, params, splits.valid, ks=config.hit_ks, ops=ops
            ).mrr
        row = EpochStats(epoch, epoch_loss, valid_mrr)
        stats.append(row)
        if log_fn:
            log_fn(row.as_line())
        if valid_mrr is not None:
            if valid_mrr > best_mrr:
                best_mrr = valid_mrr
                best_loss = epoch_loss
                best_params = params.copy()
                bad_epochs = 0
            else:
                # MRR ties with a better train loss refresh the checkpoint but
                # still count toward patience (improvement means better MRR)
                if valid_mrr == best_mrr and epoch_loss < best_loss:
                    best_loss = epoch_loss
                    best_params = params.copy()
                bad_epochs += 1
                if bad_epochs >= config.patience:
                    break
    if not splits.valid:
        best_params = params
    return best_params, stats


# ---------------------------------------------------------------------------
# evaluation

@dataclass
class PredicateEval:
    mrr: float
    hit_at: dict[int, float]
    num_queries: int


@dataclass
class EvalReport:
    mrr: float
    hit_at: dict[int, float]
    per_predicate: dict[str, PredicateEval] = field(default_factory=dict)
    num_queries: int = 0
    tie_rule: str = TIE_RULE

    def as_tsv(self) -> str:
        ks = sorted(self.hit_at)
        header = "predicate\tqueries\tmrr\t" + "\t".join(f"hit@{k}" for k in ks)
        lines = [f"# tie_rule = {self.tie_rule}", header]
        row = [
            "ALL",
            str(self.num_queries),
            repr(self.mrr),
            *[repr(self.hit_at[k]) for k in ks],
        ]
        lines.append("\t".join(row))
        for name, pe in self.per_predicate.items():
            lines.append(
                "\t".join(
                    [name, str(pe.num_queries), repr(pe.mrr)]
                    + [repr(pe.hit_at[k]) for k in ks]
                )
            )
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        ks = sorted(self.hit_at)
        width = max([len("ALL")] + [len(n) for n in self.per_predicate])
        lines = [f"tie rule: {self.tie_rule}"]
        header = f"{'':<{width}}  queries     MRR" + "".join(
            f"   Hit@{k:<3}" for k in ks
        )
        lines.append(header)

        def fmt(name, pe):
            return (
                f"{name:<{width}}  {pe.num_queries:>7}  {pe.mrr:6.3f}"
                + "".join(f"  {100 * pe.hit_at[k]:7.2f}%" for k in ks)
            )

        lines.append(fmt("ALL", PredicateEval(self.mrr, self.hit_at, self.num_queries)))
        for name, pe in self.per_predicate.items():
            lines.append(fmt(name, pe))
        return "\n".join(lines) + "\n"


def rank_among(scores: np.ndarray, answer: int, exclude: int | None = None) -> float:
    """Rank of `answer` in `scores` (descending), mean rank among exact ties.

    `exclude` drops one candidate (the query head) from the ranking; the
    answer itself is never dropped.
    """
    s = np.asarray(scores, dtype=np.float64)
    target = s[answer]
    mask = np.ones(len(s), dtype=bool)
    if exclude is not None and exclude != answer:
        mask[exclude] = False
    greater = int(np.count_nonzero(s[mask] > target))
    ties = int(np.count_nonzero(s[mask] == target))
    return greater + (ties + 1) / 2.0


def evaluate(
    kg: KnowledgeGraph,
    params: ModelParams,
    triples,
    ks=(1, 3, 10),
    *,
    ops: OperatorSet | None = None,
) -> EvalReport:
    """Filtered link-prediction metrics over (h, q, ?) queries, one per triple."""
    if not triples:
        raise ValueError("empty evaluation split")
    ops = ops or build_operators(kg)
    by_pred: dict[int, list[tuple[int, int]]] = {}
    for h, q, t in triples:
        by_pred.setdefault(q, []).append((h, t))
    rr_all, hits_all = [], {k: [] for k in ks}
    per_pred: dict[str, PredicateEval] = {}
    for q, pairs in by_pred.items():
        attn = attention_forward(params, q)
        heads = np.array([h for h, _ in pairs])
        tails = np.array([t for _, t in pairs])
        present = np.array(
            [1.0 if kg.has_triple(h, q, t) else 0.0 for h, t in pairs]
        )
        scores = score_entities(
            ops,
            attn,
            heads,
            excluded_edges=(q, tails, present),
            normalize=params.normalize,
        )
        # a NaN answer score ties with nothing and would rank 0.5
        if not np.isfinite(scores).all():
            raise ValueError(f"non-finite scores for predicate {kg.predicates[q]!r}")
        rr_q, hits_q = [], {k: [] for k in ks}
        for i in range(len(pairs)):
            rank = rank_among(scores[i], int(tails[i]), exclude=int(heads[i]))
            rr_q.append(1.0 / rank)
            for k in ks:
                hits_q[k].append(1.0 if rank <= k else 0.0)
        rr_all.extend(rr_q)
        for k in ks:
            hits_all[k].extend(hits_q[k])
        per_pred[kg.predicates[q]] = PredicateEval(
            mrr=float(np.mean(rr_q)),
            hit_at={k: float(np.mean(hits_q[k])) for k in ks},
            num_queries=len(pairs),
        )
    return EvalReport(
        mrr=float(np.mean(rr_all)),
        hit_at={k: float(np.mean(hits_all[k])) for k in ks},
        per_predicate=per_pred,
        num_queries=len(rr_all),
    )


def hit_upper_bound(record: BifurcationRecord, k: int) -> float:
    """Best attainable Hit@k given the head-side target-multiplicity profile.

    A head with d targets can place at most min(d, k) of them in the top k, so
    its triplets contribute at most min(d, k)/d. The multiplicity distribution
    comes from consecutive differences of the bifurcation curve; heads beyond
    the last lambda are treated as having exactly that many targets, which
    keeps the result an upper bound.
    """
    if record.direction != FORWARD:
        raise ValueError("hit upper bound needs a forward bifurcation record")
    lams = sorted(record.proportions)
    if not lams or lams != list(range(1, lams[-1] + 1)):
        raise ValueError("bifurcation curve must cover lambda = 1..max contiguously")
    if lams[-1] < k + 1:
        raise ValueError(f"curve must extend to lambda >= {k + 1}")
    props = [record.proportions[lam] for lam in lams]
    if any(b > a + 1e-12 for a, b in zip(props, props[1:])):
        raise ValueError("bifurcation proportions must be non-increasing in lambda")
    bound = 0.0
    for d in range(1, lams[-1]):
        p_d = props[d - 1] - props[d]
        bound += p_d * min(d, k) / d
    last = lams[-1]
    bound += props[-1] * min(last, k) / last
    return bound
