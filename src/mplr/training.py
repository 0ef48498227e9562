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

import math
from dataclasses import dataclass, field

import numpy as np

from .kg import KnowledgeGraph, DatasetSplits, group_queries
from .operators import OperatorSet, build_operators
from .indicators import BifurcationRecord, FORWARD
from .model import (
    CORRECTED,
    EPSILON_MODES,
    NORMALIZE_MODES,
    ModelParams,
    _attention_forward,
    _lookup,
    loss_and_gradients,
    packed,
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
        """Refuse settings outside their ranges, in the CLI's message form."""
        for name in ("max_len", "rank", "embed_dim", "hidden_dim", "batch_size",
                     "max_epochs", "patience"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be at least 1, not {getattr(self, name)}")
        if not 0 < self.learning_rate < math.inf:  # nan compares false
            raise ValueError(
                f"learning_rate must be above 0 and finite, not {self.learning_rate}"
            )
        if self.normalize not in NORMALIZE_MODES:
            raise ValueError(f"normalize must be one of {NORMALIZE_MODES}")
        if self.epsilon_mode not in EPSILON_MODES:
            raise ValueError(f"epsilon_mode must be one of {EPSILON_MODES}")
        return self


class AdamOptimizer:
    """Adam over a dict of named tensors; updates in place, deterministically.

    The moments and the tensors are updated by in-place ufuncs ADAM_BLOCK
    flat elements at a time, through two scratch buffers allocated here: a
    step allocates nothing the size of a tensor, and a block's passes stay
    in cache. The tensors and gradients must be C-contiguous, so that their
    flat views write through.
    """

    def __init__(self, tensors, lr=0.001, beta1=0.9, beta2=0.999, eps=1e-8):
        self.lr, self.beta1, self.beta2, self.eps = lr, beta1, beta2, eps
        self.t = 0
        shapes = {k: v.shape for k, v in tensors.items()}
        self.m = packed(shapes, zero=True)
        self.v = packed(shapes, zero=True)
        size = min(max((v.size for v in tensors.values()), default=0), ADAM_BLOCK)
        self._scratch = np.empty((2, size))

    def step(self, tensors, grads):
        self.t += 1
        b1, b2, lr, eps = self.beta1, self.beta2, self.lr, self.eps
        bc1 = 1.0 - b1**self.t
        bc2 = 1.0 - b2**self.t
        for k, g in grads.items():
            if not (tensors[k].flags.c_contiguous and g.flags.c_contiguous):
                raise ValueError(f"Adam steps C-contiguous arrays only; {k!r} is not")
            flat = [a.reshape(-1) for a in (tensors[k], self.m[k], self.v[k], g)]
            for start in range(0, g.size, ADAM_BLOCK):
                x, m, v, gi = (f[start : start + ADAM_BLOCK] for f in flat)
                a, b = (s[: gi.size] for s in self._scratch)
                # the allocating form's operation order, so the results equal
                # it bit for bit: m = b1 m + (1 - b1) g, v = b2 v + ((1 - b2) g) g
                m *= b1
                m += np.multiply(gi, 1 - b1, out=a)
                v *= b2
                np.multiply(gi, 1 - b2, out=a)
                v += np.multiply(a, gi, out=a)
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
    adam = AdamOptimizer(params.tensors, lr=config.learning_rate)
    rng = np.random.default_rng(config.seed)
    stats: list[EpochStats] = []
    # without a validation split the final parameters are returned
    best_params = params.copy() if splits.valid else params
    best_mrr = -np.inf
    best_loss = np.inf
    bad_epochs = 0
    grads = params.zero_grads()  # every batch's gradients, filled in place
    for epoch in range(1, config.max_epochs + 1):
        order = rng.permutation(len(queries))
        epoch_loss = 0.0
        for start in range(0, len(order), config.batch_size):
            batch = [queries[i] for i in order[start : start + config.batch_size]]
            loss, _ = loss_and_gradients(ops, params, batch, out=grads)
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
        n = part.stop - part.start
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
