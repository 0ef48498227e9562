"""Mini-batch Adam training, early stopping, and link-prediction evaluation.

Training groups the train split into multi-target queries, shuffles them each
epoch (seeded), and takes Adam steps on the mean batch loss. After every epoch
the validation MRR decides early stopping; the best-validation checkpoint is
returned. Evaluation follows the filtered protocol: one (h, q, ?) query per
test triplet with the queried edge excluded from propagation, the head removed
from the candidate list, and ties resolved by the mean rank among tied scores
(a hit at k requires that fractional rank to be <= k). A head's other known
answers stay candidates, unlike in the filtered protocol of Bordes et al.
(2013) that Neural LP and DRUM report.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .kg import KnowledgeGraph, DatasetSplits, group_queries
from .operators import OperatorSet, build_operators
from .indicators import BifurcationRecord, FORWARD
from .model import (
    CORRECTED,
    ModelParams,
    _attention_forward,
    _lookup,
    loss_and_gradients,
    support_scores,
)
# not called here; bench/tracing.py hooks them under these names
from .model import attention_forward, score_entities  # noqa: F401

TIE_RULE = "mean-rank-among-ties"
EVAL_CHUNK = 128  # test queries scored at once, which bounds evaluation memory
ADAM_BLOCK = 16_384  # elements per in-place Adam block, sized to stay in cache


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

    def validate(self):
        """Refuse settings outside their ranges, in the CLI's message form;
        `ModelParams` refuses an unknown normalize or epsilon_mode."""
        for name in ("max_len", "rank", "embed_dim", "hidden_dim", "batch_size",
                     "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:  # nan compares false
            raise ValueError(
                f"learning_rate must be above 0 and finite, not {self.learning_rate}"
            )
        return self


class AdamOptimizer:
    """Adam over one parameter vector; updates it in place, deterministically.

    The moments m and v are vectors of the parameter vector's size. A step
    updates them and the parameters by in-place ufuncs ADAM_BLOCK elements
    at a time, through two scratch rows allocated here: a step allocates
    nothing the size of the vector, and a block's passes stay in cache. A
    vector or gradient of another shape than the moments is refused.
    """

    beta1, beta2, eps = 0.9, 0.999, 1e-8

    def __init__(self, vector, lr=0.001):
        self.lr, self.t = lr, 0
        self.m = np.zeros(vector.size)
        self.v = np.zeros(vector.size)
        self._scratch = np.empty((2, min(vector.size, ADAM_BLOCK)))

    def step(self, vector, grad):
        if not vector.shape == grad.shape == self.m.shape:
            raise ValueError(f"Adam steps vectors of shape {self.m.shape}, not "
                             f"{vector.shape} and {grad.shape}")
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for i in range(0, grad.size, ADAM_BLOCK):
            x, m, v, g = (f[i : i + ADAM_BLOCK] for f in (vector, self.m, self.v, grad))
            a, b = (s[: g.size] for s in self._scratch)
            # the allocating form's operation order, so the results equal
            # it bit for bit: m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g
            m *= b1
            m += np.multiply(g, 1 - b1, out=a)
            v *= b2
            np.multiply(g, 1 - b2, out=a)
            v += np.multiply(a, g, out=a)
            # x -= (lr (m / bc1)) / (sqrt(v / bc2) + eps)
            np.multiply(np.divide(m, bc1, out=a), lr, out=a)
            np.sqrt(np.divide(v, bc2, out=b), out=b)
            b += eps
            x -= np.divide(a, b, out=a)


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
        predicates=kg.predicates,
    )
    adam = AdamOptimizer(params.vector, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    stats: list[EpochStats] = []
    # without a validation split the final parameters are returned
    best_params = params.copy() if splits.valid else params
    best_mrr = -np.inf
    best_loss = np.inf
    bad_epochs = 0
    grad = np.empty_like(params.vector)  # every batch's gradient, filled in place
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(queries))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [queries[i] for i in order[start : start + config.batch_size]]
            loss, _ = loss_and_gradients(ops, params, batch, out=grad)
            if not np.isfinite(loss):
                raise TrainingDivergedError(
                    f"non-finite loss at epoch {epoch}, "
                    f"batch starting at {start} (loss={loss})"
                )
            grad *= 1.0 / len(batch)
            adam.step(params.vector, grad)
            epoch_loss += loss
        epoch_loss /= len(queries)
        valid_mrr = None
        if splits.valid:
            valid_mrr = evaluate(kg, params, splits.valid, ops=ops).mrr
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

    def _rows(self):
        """("ALL", the overall metrics), then each predicate's (name, metrics)."""
        overall = PredicateEval(self.mrr, self.hit_at, self.num_queries)
        return [("ALL", overall), *self.per_predicate.items()]

    def as_tsv(self) -> str:
        ks = sorted(self.hit_at)
        header = "predicate\tqueries\tmrr\t" + "\t".join(f"hit@{k}" for k in ks)
        lines = [f"# tie_rule = {TIE_RULE}", header]
        for name, pe in self._rows():
            lines.append("\t".join([name, str(pe.num_queries), repr(pe.mrr),
                                    *(repr(pe.hit_at[k]) for k in ks)]))
        return "\n".join(lines) + "\n"

    def as_text(self) -> str:
        ks = sorted(self.hit_at)
        width = max([len("ALL")] + [len(n) for n in self.per_predicate])
        lines = [f"tie rule: {TIE_RULE}"]
        header = f"{'':<{width}}  queries     MRR" + "".join(
            f"   Hit@{k:<3}" for k in ks
        )
        lines.append(header)

        def fmt(name, pe):
            return (
                f"{name:<{width}}  {pe.num_queries:>7}  {pe.mrr:6.3f}"
                + "".join(f"  {100 * pe.hit_at[k]:7.2f}%" for k in ks)
            )

        lines.extend(fmt(name, pe) for name, pe in self._rows())
        return "\n".join(lines) + "\n"


def rank_among(scores: np.ndarray, answer: int, exclude: int | None = None) -> float:
    """Rank of `answer` in `scores` (descending), mean rank among exact ties.

    `exclude` drops one candidate (the query head) from the ranking; the
    answer itself is never dropped. The single-row reference of `_ranks`.
    """
    s = np.asarray(scores, dtype=np.float64)
    target = s[answer]
    mask = np.ones(len(s), dtype=bool)
    if exclude is not None and exclude != answer:
        mask[exclude] = False
    greater = int(np.count_nonzero(s[mask] > target))
    ties = int(np.count_nonzero(s[mask] == target))
    return greater + (ties + 1) / 2.0


def _ranks(keys, scores, num_entities, heads, answers):
    """`rank_among` of every row of support scores, the head excluded.

    Row b owns the keys b * |E| + entity; every entity outside them scores 0,
    so those count as ties when the answer scores 0 and as greater when it
    scores below 0. The head is always on the support.
    """
    E, B = num_entities, len(heads)
    rows = np.arange(B)
    row = keys // E
    pos, found = _lookup(keys, rows * E + answers)
    target = np.where(found, scores[pos], 0.0)
    above = scores > target[row]
    tied = scores == target[row]
    head = np.searchsorted(keys, rows * E + heads)
    drop = heads != answers
    off = E - np.bincount(row, minlength=B)
    greater = np.bincount(row, above, B) - drop * above[head] + off * (target < 0)
    ties = np.bincount(row, tied, B) - drop * tied[head] + off * (target == 0)
    return greater + (ties + 1) / 2.0


def evaluate(
    kg: KnowledgeGraph,
    params: ModelParams,
    triples,
    ks=(1, 3, 10),
    *,
    ops: OperatorSet | None = None,
) -> EvalReport:
    """Filtered link-prediction metrics over (h, q, ?) queries, one per triple.

    One attention call covers every predicate; the queries are scored in
    chunks of EVAL_CHUNK on their supports, with the queried edge dropped
    from propagation, and ranked in closed form.
    """
    if not triples:
        raise ValueError("empty evaluation split")
    ops = ops or build_operators(kg)
    index: dict[int, int] = {}
    group = np.array([index.setdefault(q, len(index)) for _, q, _ in triples])
    order = np.argsort(group, kind="stable")  # per predicate, in split order
    group = group[order]
    h, q, t = np.asarray(triples, dtype=np.int64)[order].T
    ranks = np.empty(len(order))
    # non-finite parameters give inf and nan scores without warnings; the
    # finite check below reports them in one error
    with np.errstate(over="ignore", invalid="ignore"):
        weights = _attention_forward(params, list(index))
        for start in range(0, len(order), EVAL_CHUNK):
            c = slice(start, start + EVAL_CHUNK)
            keys, scores = support_scores(
                ops, weights, group[c], h[c], excluded=(q[c] + 1, t[c]),
                normalize=params.normalize,
            )
            # a NaN answer score ties with nothing and would rank 0.5
            bad = ~np.isfinite(scores)
            if bad.any():
                pred = q[c][keys[bad][0] // ops.num_entities]
                raise ValueError(f"non-finite scores for predicate {kg.predicates[pred]!r}")
            ranks[c] = _ranks(keys, scores, ops.num_entities, h[c], t[c])
    rr = 1.0 / ranks
    hits = {k: np.where(ranks <= k, 1.0, 0.0) for k in ks}
    bounds = np.searchsorted(group, np.arange(len(index) + 1))
    per_pred: dict[str, PredicateEval] = {}
    for g, pred in enumerate(index):
        part = slice(bounds[g], bounds[g + 1])
        n = int(part.stop - part.start)
        # np.mean's own pairwise sum and division, without its per-call overhead
        per_pred[kg.predicates[pred]] = PredicateEval(
            mrr=float(np.add.reduce(rr[part]) / n),
            hit_at={k: float(np.add.reduce(hits[k][part]) / n) for k in ks},
            num_queries=n,
        )
    return EvalReport(
        mrr=float(np.mean(rr)),
        hit_at={k: float(np.mean(hits[k])) for k in ks},
        per_predicate=per_pred,
        num_queries=len(rr),
    )


def hit_upper_bound(record: BifurcationRecord, k: int) -> float:
    """Best attainable Hit@k given the head-side target-multiplicity profile.

    A head with d targets can place at most min(d, k) of them in the top k, so
    its triplets contribute at most min(d, k)/d, when all d are ranked on one
    score vector. `evaluate` ranks each answer on its own vector, with that
    answer's edge dropped, so its Hit@k may pass this. The multiplicity
    distribution comes from consecutive differences of the bifurcation
    curve; heads beyond the last lambda are treated as having exactly that
    many targets, which keeps the result an upper bound.
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
