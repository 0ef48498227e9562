"""One user session per workload, timed stage by stage from outside the package.

    python3 bench/run.py --workload family --seed 0 --seconds 40 --trace 0

The session generates its kinship dataset from --seed, writes the split files,
and then drives the package only through its public functions:

    setup       load_dataset, group_queries, build_operators
    indicators  saturation_report and bifurcation, as `mplr indicators` runs them
    training    train over a fixed set of batches (no validation scoring)
    evaluation  evaluate on the test split
    rules       extract_rules

Each stage repeats its unit of work until its share of --seconds is spent and
reports the median repetition; all but training are scaled by the machine's
speed during the run (bench/speed.py). Every stage is then checked against an
independent computation (bench/checks.py). The last line of standard output
is one JSON object: correct, attempted, failed and metrics. With --trace 1 the
program's functions are wrapped (bench/tracing.py) and the per-layer metrics
are reported instead of the end-to-end ones; spans go to bench/out/.
"""

from __future__ import annotations

import argparse
import itertools
import json
import math
import os
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

# One process drives the load; BLAS stays on one thread so the timings do not
# depend on how many cores happen to be free.
for _var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

ROOT = Path(__file__).resolve().parent.parent
OUT = ROOT / "bench" / "out"
CLANS = 250  # kinship clans of the session graph: about 3k entities, as Family
TRAIN_BATCH = 128
TOP_N = 5  # the CLI default, for saturation patterns and for rules
LAMBDA_MAX = 7
GRADIENT_BATCH = 16
EVAL_SAMPLE = 64
MIN_SETUP_REPS = 5

STAGES = ("setup", "indicators", "train", "eval", "rules")
# stages whose end-to-end timings are scaled to the machine's speed (speed.py);
# training is mostly numpy work that the host's phases move less than the
# reference, so scaling it would add the reference's noise (README.md)
SCALED = ("setup", "indicators", "eval", "rules")


@dataclass(frozen=True)
class Workload:
    groups: int  # per-clan-group copies of each relation
    max_len: int  # rule length of the reasoner and of the saturation scan
    batches: int  # training batches per repetition
    scan_relations: tuple | None  # relations scanned (None: all)
    scan_graph: dict | None  # None: scan the session graph; else write_dataset kwargs
    rule_relations: tuple | None  # relations whose rules are extracted (None: all)
    shares: tuple  # share of --seconds per stage, in STAGES order


WORKLOADS = {
    # the paper's headline shape: training dominates
    "family": Workload(
        groups=1, max_len=2, batches=4,
        scan_relations=None, scan_graph=None, rule_relations=None,
        shares=(0.08, 0.12, 0.45, 0.2, 0.15),
    ),
    # 192 predicates: per-predicate loops dominate. The scan, which computes
    # all |P|^2 chain products whatever it is asked for, runs on a
    # 96-predicate graph of the same density (16 clans per group): on the
    # session graph one scan takes about 15 s, so a run would hold a single
    # sample of it.
    "many-predicates": Workload(
        groups=16, max_len=2, batches=1,
        scan_relations=("wifeOf_g0", "husbandOf_g0", "fatherOf_g0", "sonOf_g0"),
        scan_graph=dict(num_clans=128, groups=8),
        rule_relations=tuple(f"{r}_g0" for r in (
            "fatherOf", "motherOf", "sonOf", "daughterOf",
            "husbandOf", "wifeOf", "brotherOf", "sisterOf")),
        shares=(0.05, 0.34, 0.37, 0.12, 0.12),
    ),
    # length-3 scan under the default exclusion: count_paths dominates. The
    # scan graph is one clan of fixed shape and genders, so every seed scans
    # the same 12 predicates and 4 wifeOf edges.
    "indicators-l3": Workload(
        groups=1, max_len=3, batches=2,
        scan_relations=("wifeOf",),
        scan_graph=dict(num_clans=1, children=(3, 3), grandchildren=(2, 2),
                        fixed_genders=True),
        rule_relations=None,
        shares=(0.05, 0.45, 0.22, 0.15, 0.13),
    ),
}

END_TO_END = {
    "setup_s": "s",
    "train_queries_per_s": "queries/s",
    "eval_queries_per_s": "queries/s",
    "indicators_s": "s",
    "rules_predicates_per_s": "predicates/s",
    "peak_rss_mb": "MB",
    "test_mrr": "ratio",
}

# per-layer metric -> (span or counter name, kind); kind is total, self or count
PER_LAYER = {
    "kg.load_dataset_s": ("kg.load_dataset", "total"),
    "kg.group_queries_s": ("kg.group_queries", "total"),
    "operators.build_s": ("operators.build", "total"),
    "operators.combine_calls": ("operators.combine_calls", "count"),
    "operators.combine_s": ("operators.combine", "total"),
    "operators.count_paths_calls": ("operators.count_paths_calls", "count"),
    "operators.count_paths_s": ("operators.count_paths", "total"),
    "model.loss_and_gradients_s": ("model.loss_and_gradients", "self"),
    "model.target_pairs": ("model.target_pairs", "count"),
    "model.predicate_groups": ("model.predicate_groups", "count"),
    "model.attention_forward_calls": ("model.attention_forward_calls", "count"),
    "model.attention_forward_s": ("model.attention_forward", "total"),
    "model.score_entities_s": ("model.score_entities", "self"),
    "model.extract_rules_s": ("model.extract_rules", "total"),
    "model.rule_sequences": ("model.rule_sequences", "count"),
    "training.train_self_s": ("training.train", "self"),
    "training.adam_steps": ("training.adam_step_calls", "count"),
    "training.adam_step_s": ("training.adam_step", "total"),
    "training.evaluate_self_s": ("training.evaluate", "self"),
    "training.rank_among_calls": ("training.rank_among_calls", "count"),
    "training.rank_among_s": ("training.rank_among", "total"),
    "indicators.saturation_report_self_s": ("indicators.saturation_report", "self"),
    "indicators.bifurcation_s": ("indicators.bifurcation", "total"),
}


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")
    return args


def import_program():
    """Put the checkout's src/ first on the path; fail if it is not there."""
    src = ROOT / "src"
    if not (src / "mplr" / "__init__.py").is_file():
        sys.exit(f"error: {src / 'mplr'} not found; run from a checkout of the repository")
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(ROOT / "bench"))


@dataclass
class Stage:
    name: str
    unit: object  # callable running one repetition
    ops: int  # operations one repetition attempts
    share: float  # share of the window
    min_reps: int
    times: list = field(default_factory=list)  # measured repetitions
    untraced: list = field(default_factory=list)  # trace mode: untraced ones
    windows: list = field(default_factory=list)  # trace mode: (spans, counts)
    failed: bool = False

    def estimate(self):
        return statistics.median(self.times + self.untraced)


class Session:
    """Runs the stages' repetitions interleaved across one window.

    The machine's speed drifts by several percent over seconds, so each
    stage's repetitions are spread over the whole window instead of being run
    back to back: the next repetition always goes to the stage furthest
    behind its share. A repetition starts only if its median fits in what is
    left of the window.
    """

    def __init__(self, w, seconds, tracer):
        from speed import Speed

        self.w, self.seconds, self.tracer = w, seconds, tracer
        self.speed = Speed()
        self.start = time.perf_counter()
        self.stages: list[Stage] = []
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def call(self, name, fn, *args, **kwargs):
        if self.tracer is not None and self.tracer.installed:
            return self.tracer.span(name, fn, *args, **kwargs)
        return fn(*args, **kwargs)

    def add(self, name, unit, ops, min_reps=1):
        """Register a stage and run its first repetition (two in trace mode).

        Returns the first repetition's result, or None if it raised; later
        repetitions repeat the same work and their results are dropped.
        """
        stage = Stage(name, unit, ops, self.w.shares[STAGES.index(name)], min_reps)
        self.stages.append(stage)
        result = self._rep(stage)
        if self.tracer is not None and result is not None:
            self._rep(stage)
        return result

    def fill(self):
        while True:
            left = self.seconds - (time.perf_counter() - self.start)
            live = [st for st in self.stages if not st.failed]
            due = [st for st in live if len(st.times) < st.min_reps]
            fits = [st for st in live if st.estimate() <= left]
            pick = due or fits
            if not pick:
                return
            stage = min(pick, key=lambda st: sum(st.times + st.untraced) / st.share)
            self._rep(stage)
            if self.tracer is not None and not stage.failed:
                self._rep(stage)

    def _rep(self, stage):
        # in trace mode untraced and traced repetitions alternate
        traced = self.tracer is not None and len(stage.untraced) > len(stage.times)
        self.speed.sample_if_due()
        if traced:
            self.tracer.install()
        self.attempted += stage.ops
        try:
            t0 = time.perf_counter()
            result = stage.unit()
            elapsed = time.perf_counter() - t0
        except Exception:  # a failed operation is counted and reported, not fatal
            traceback.print_exc()
            self.failed += stage.ops
            stage.failed = True
            return None
        finally:
            if traced:
                self.tracer.uninstall()
        if traced:
            stage.windows.append(self.tracer.take())
        (stage.untraced if self.tracer is not None and not traced else stage.times).append(elapsed)
        return result

    def check(self, label, problems):
        for p in problems:
            self.problems.append(f"{label}: {p}")
            print(f"CHECK FAILED {label}: {p}", file=sys.stderr)


def run(args):
    import_program()
    OUT.mkdir(parents=True, exist_ok=True)
    import checks
    from datagen import write_dataset
    from mplr import (
        DatasetSplits, TrainConfig, bifurcation, build_operators, evaluate,
        extract_rules, group_queries, load_dataset, saturation_report, train,
    )
    from mplr.indicators import BACKWARD, FORWARD

    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    w = WORKLOADS[args.workload]
    data = OUT / f"data-{args.workload}-{args.seed}"
    ds = write_dataset(data / "graph", args.seed, CLANS, groups=w.groups)
    scan_ds = None
    if w.scan_graph is not None:
        scan_ds = write_dataset(data / "scan", args.seed, **w.scan_graph)

    s = Session(w, args.seconds, tracer)

    # ---- setup
    def setup():
        kg, splits, _ = s.call("kg.load_dataset", load_dataset, *ds.paths())
        queries = s.call("kg.group_queries", group_queries, splits.train)
        ops = s.call("operators.build", build_operators, kg)
        scan = None
        if scan_ds is not None:
            scan = s.call("kg.load_dataset", load_dataset, *scan_ds.paths())
        return kg, splits, queries, ops, scan

    state = s.add("setup", setup, 0, min_reps=MIN_SETUP_REPS)
    if state is None:
        sys.exit("error: set-up failed")
    kg, splits, queries, ops, scan = state
    scan_kg = kg if scan is None else scan[0]

    def indices(graph, relations):
        if relations is None:
            return list(range(graph.num_predicates))
        return [graph.predicate_index[r] for r in relations]

    # ---- indicators
    scanned = indices(scan_kg, w.scan_relations)

    def indicators():
        records = s.call(
            "indicators.saturation_report", saturation_report, scan_kg,
            max_len=w.max_len, top_n=TOP_N, exclude_direct_edge=True,
            budget=None, predicates=scanned,
        )
        bif = [
            s.call("indicators.bifurcation", bifurcation, scan_kg, q, d, LAMBDA_MAX)
            for q in scanned for d in (FORWARD, BACKWARD)
        ]
        return records, bif

    ind = s.add("indicators", indicators, len(scanned))

    # ---- training over a fixed set of batches, from the same start each time
    keys = {(q.head, q.query) for q in queries[: w.batches * TRAIN_BATCH]}
    subset = [tr for tr in splits.train if (tr[0], tr[1]) in keys]
    train_splits = DatasetSplits(subset, [], [], splits.graph_source)
    config = TrainConfig(max_len=w.max_len, max_epochs=1, seed=args.seed,
                         batch_size=TRAIN_BATCH)

    def training():
        return s.call("training.train", train, kg, train_splits, config, ops=ops)

    trained = s.add("train", training, w.batches)

    # ---- evaluation and rules need the trained model
    report = rules = None
    rule_qs = indices(kg, w.rule_relations)
    if trained is not None:
        params = trained[0]

        def evaluation():
            return s.call("training.evaluate", evaluate, kg, params, splits.test, ops=ops)

        report = s.add("eval", evaluation, len(splits.test))

        # one extract_rules call per repetition, cycling through the predicates,
        # so the calls spread over the window; the first call per predicate is kept
        rules = {}
        cycle = itertools.cycle(rule_qs)

        def extraction():
            q = next(cycle)
            out = s.call("model.extract_rules", extract_rules, params, q, TOP_N)
            rules.setdefault(q, out)
            return out

        if s.add("rules", extraction, 1, min_reps=len(rule_qs)) is None:
            rules = None
    else:
        s.attempted += len(splits.test) + len(rule_qs)
        s.failed += len(splits.test) + len(rule_qs)
    s.fill()

    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0

    # ---- independent checks (after the peak-memory reading)
    s.check("setup", checks.check_setup(ds, kg, splits, queries, ops))
    if scan is not None:
        s.check("setup scan graph", checks.check_setup(
            scan_ds, scan_kg, scan[1], None, build_operators(scan_kg)))
    if ind is not None:
        s.check("saturation", checks.check_saturation(
            scan_kg, ind[0], scanned, w.max_len, TOP_N))
        s.check("bifurcation", checks.check_bifurcation(
            scan_ds or ds, scan_kg, ind[1], LAMBDA_MAX))
    if trained is not None:
        loss = trained[1][0].train_loss
        if not math.isfinite(loss):
            s.check("training", [f"epoch loss {loss} is not finite"])
        batch = group_queries(subset)[:GRADIENT_BATCH]
        s.check("training", checks.check_gradient(ops, params, batch, args.seed))
    if report is not None:
        s.check("evaluation", checks.check_evaluation(
            kg, ops, params, splits.test, report, EVAL_SAMPLE, args.seed))
    if rules is not None:
        for q, rs in rules.items():
            s.check("rules", checks.check_rules(params, q, rs))

    if s.problems:
        # a failed check fails the operations of every stage it covers
        s.failed = s.attempted

    if tracer is None:
        metrics = end_to_end_metrics(s, report, peak_rss_mb, len(keys), len(splits.test))
        print(f"speed factor {s.speed.factor():.4f} from {len(s.speed.times)} reference "
              f"timings, median {statistics.median(s.speed.times):.5f} s")
    else:
        metrics = per_layer_metrics(s)
        path = OUT / f"trace-{args.workload}-{args.seed}.json"
        tracer.dump(path)
        print(f"trace: {len(tracer.spans)} spans written to {path.relative_to(ROOT)}")
    for name, m in metrics.items():
        print(f"{name:40s} {m['value']!r:>24} {m['unit']}")
    for st in s.stages:
        if st.times:
            print(f"stage {st.name}: {len(st.times)} repetitions, raw seconds min "
                  f"{min(st.times):.4f} median {statistics.median(st.times):.4f} "
                  f"max {max(st.times):.4f}")
    result = {
        "correct": not s.problems,
        "attempted": s.attempted,
        "failed": s.failed,
        "metrics": metrics,
    }
    print(json.dumps(result))


def _median(values):
    return statistics.median(values) if values else None


def end_to_end_metrics(s, report, peak_rss_mb, num_train, num_test):
    # scaled stage medians are in reference seconds: what they would read at
    # the speed where the reference computation takes speed.REFERENCE_S
    factor = s.speed.factor()
    t = {
        st.name: _median(st.times) * (factor if st.name in SCALED else 1.0)
        for st in s.stages if st.times and not st.failed
    }

    def rate(work, seconds):
        return work / seconds if seconds else None

    values = {
        "setup_s": t.get("setup"),
        "train_queries_per_s": rate(num_train, t.get("train")),
        "eval_queries_per_s": rate(num_test, t.get("eval")),
        "indicators_s": t.get("indicators"),
        "rules_predicates_per_s": rate(1, t.get("rules")),
        "peak_rss_mb": peak_rss_mb,
        "test_mrr": report.mrr if report is not None else None,
    }
    return {k: {"value": values[k], "unit": END_TO_END[k]} for k in END_TO_END}


def per_layer_metrics(s):
    from tracing import layer_times

    values = dict.fromkeys(PER_LAYER, 0.0)
    for stage in s.stages:
        per_rep = []
        for spans, counts in stage.windows:
            total, own = layer_times(spans)
            per_rep.append({
                metric: counts.get(key, 0) if kind == "count"
                else (total if kind == "total" else own).get(key, 0.0)
                for metric, (key, kind) in PER_LAYER.items()
            })
        for metric in PER_LAYER:
            if per_rep:
                values[metric] += statistics.median(r[metric] for r in per_rep)
    out = {
        metric: {"value": values[metric], "unit": "count" if kind == "count" else "s"}
        for metric, (_, kind) in PER_LAYER.items()
    }
    traced = sum(_median(st.times) or 0.0 for st in s.stages)
    untraced = sum(_median(st.untraced) or 0.0 for st in s.stages)
    out["trace.overhead_ratio"] = {"value": traced / untraced - 1.0, "unit": "ratio"}
    return out


def main(argv=None):
    run(parse_args(argv))
    return 0


if __name__ == "__main__":
    sys.exit(main())
