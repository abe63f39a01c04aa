"""Command-line front end: score candidates, run searches, rank proxies.

Every artifact embeds the run configuration (a sorted-key JSON comment at the
top of CSVs, a config object in search summaries) and all randomness flows
from --seed through named child streams, so rerunning a command with the
same flags reproduces its outputs byte for byte. --jobs parallelizes
candidate scoring without affecting output bytes and is therefore the one
flag excluded from the embedded config.

Exit codes: 0 success, 1 runtime or data error, 2 usage error.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .arch import (
    Constraints,
    S0Depths,
    arch_id,
    descriptor_from_json,
    descriptor_in_space,
    descriptor_to_json,
    enumerate_s0,
    make_space,
    max_descriptor,
    parse_nb201,
)
from .data import load_cifar_batch, synth_batch, ScoreRow, write_report_csv, write_scores_csv
from .metrics import (
    FC_WEIGHT_GRADS,
    FC_WEIGHTS,
    KD_KINDS,
    MATRIX_L2,
    ProxyScore,
    ROW_L2,
    cost_proxy,
    diswot_score_from_bundles,
    kd_distance,
    nwot_score,
)
from .network import NetworkInstance
from .rankstats import MissingArchError, evaluate_proxy, format_report_table
from .rng import InitSpec, derive_seed, stream
from .search import EvoConfig, evolve, random_search

SPACE_CHOICES = ("s0", "nb201", "s2_cifar", "s2_imagenet")
PROXY_CHOICES = ("diswot", "nwot", "params", "flops") + KD_KINDS

# Child-seed tags: batch synthesis, weight init, rank subsampling.
_BATCH_TAG = 0x42415443
_INIT_TAG = 0x494E4954
_RANK_TAG = 0x52414E4B

_S0_TEACHERS = {"resnet56": (9, 9, 9), "resnet110": (18, 18, 18)}


def _resolve_seeds(args) -> list[int]:
    if args.seed:
        return args.seed
    env = os.environ.get("DISWOT_SEED")
    if env is not None:
        try:
            return [int(env)]
        except ValueError:
            raise ValueError(f"DISWOT_SEED must be an integer, got {env!r}") from None
    return [0]


def _build_space(args):
    constraints = Constraints(args.max_params, args.max_flops, args.max_depth)
    kwargs = {"constraints": constraints}
    if args.num_classes is not None:
        kwargs["num_classes"] = args.num_classes
    return make_space(args.space, **kwargs)


def _resolve_teacher(space, spec: str):
    if spec == "max":
        return max_descriptor(space)
    if space.kind == "s0":
        if spec.lower() in _S0_TEACHERS:
            return S0Depths(*_S0_TEACHERS[spec.lower()])
        core = spec[: -len("-template")] if spec.endswith("-template") else spec
        parts = core.replace("-", ",").split(",")
        if len(parts) == 3 and all(p.strip().isdigit() for p in parts):
            return S0Depths(*(int(p) for p in parts))
        raise ValueError(f"cannot parse teacher {spec!r}: want 'max', 'resnet56', 'resnet110', or 'd1,d2,d3[-template]'")
    if space.kind == "nb201":
        return parse_nb201(spec)
    raise ValueError(f"teacher must be 'max' for space {space.kind!r}")


def _parse_arch(space, s: str):
    text = s.strip()
    if text.startswith("{"):
        kind, desc = descriptor_from_json(json.loads(text))
    elif text.endswith(".json"):
        kind, desc = descriptor_from_json(json.loads(Path(text).read_text()))
    elif space.kind == "s0":
        parts = text.replace("-", ",").split(",")
        if len(parts) != 3 or not all(p.strip().isdigit() for p in parts):
            raise ValueError(f"cannot parse s0 architecture {s!r}: want 'd1-d2-d3'")
        return S0Depths(*(int(p) for p in parts))
    elif space.kind == "nb201":
        return parse_nb201(text)
    else:
        raise ValueError("s2 architectures must be given as JSON, inline or as a .json path")
    if kind != space.kind:
        raise ValueError(f"architecture belongs to space {kind!r}, not {space.kind!r}")
    return desc


def _resolve_archs(space, args, parser):
    if args.all_s0:
        if space.kind != "s0":
            parser.error("--all-s0 requires --space s0")
        if args.arch:
            parser.error("--all-s0 and --arch are mutually exclusive")
        return enumerate_s0()
    if not args.arch:
        parser.error("pass --arch at least once, or --all-s0")
    descs = [_parse_arch(space, a) for a in args.arch]
    for desc in descs:
        if not descriptor_in_space(desc, space):
            raise ValueError(f"architecture {arch_id(desc)} is not a member of space {space.kind!r}")
    return descs


def _make_batch(args, space, seed: int):
    batch_seed = derive_seed(seed, _BATCH_TAG)
    if args.data:
        batch = load_cifar_batch(args.data, args.batch_size, batch_seed, fmt=args.data_format)
        if batch.labels.max() >= space.num_classes:
            raise ValueError(
                f"data labels go up to {batch.labels.max()} but the space has"
                f" {space.num_classes} classes; set --num-classes"
            )
        return batch
    return synth_batch(
        args.batch_size, 3, space.input_hw, space.input_hw, space.num_classes, seed=batch_seed
    )


def _init_spec(args, seed: int) -> InitSpec:
    return InitSpec(args.init, args.gaussian_std, derive_seed(seed, _INIT_TAG))


def _needs_teacher(proxies) -> bool:
    return any(p == "diswot" or p in KD_KINDS for p in proxies)


def _make_scorer(args, space, seed: int, proxies, use_semantic: bool, use_relation: bool):
    """Return a function mapping a descriptor to {proxy: value} at this seed.

    The batch and the teacher forward are made once, here, and only when a
    requested proxy needs them. Each call builds the student once; nwot runs
    its own forward and the teacher-based proxies share one activation
    bundle.
    """
    needs_teacher = _needs_teacher(proxies)
    batch = _make_batch(args, space, seed) if needs_teacher or "nwot" in proxies else None
    init = _init_spec(args, seed)
    teacher_bundle = None
    if needs_teacher:
        teacher = NetworkInstance(_resolve_teacher(space, args.teacher), space, init)
        teacher_bundle = teacher.activations(batch.images, batch.labels)

    def scorer(desc) -> dict[str, float]:
        out = {}
        student = None
        bundle = None
        for proxy in proxies:
            if proxy in ("params", "flops"):
                out[proxy] = cost_proxy(proxy, desc, space).value
                continue
            if student is None:
                student = NetworkInstance(desc, space, init)
            if proxy == "nwot":
                out[proxy] = nwot_score(student, batch).value
                continue
            if bundle is None:
                bundle = student.activations(batch.images, batch.labels)
            if proxy == "diswot":
                out[proxy] = diswot_score_from_bundles(
                    teacher_bundle,
                    bundle,
                    use_semantic=use_semantic,
                    use_relation=use_relation,
                    weight_source=args.weight_source,
                    normalization=args.normalization,
                ).value
            else:
                out[proxy] = kd_distance(proxy, teacher_bundle, bundle, args.temperature).value
        return out

    return scorer


# ---------------------------------------------------------------------------
# score


def cmd_score(args, parser) -> int:
    space = _build_space(args)
    archs = _resolve_archs(space, args, parser)
    proxies = args.proxy or ["diswot"]
    if args.semantic_only and args.relation_only:
        parser.error("--semantic-only and --relation-only are mutually exclusive")
    seeds = _resolve_seeds(args)

    teacher_desc = _resolve_teacher(space, args.teacher) if _needs_teacher(proxies) else None

    by_seed: dict[int, list[dict[str, float]]] = {}
    for seed in seeds:
        scorer = _make_scorer(args, space, seed, proxies, not args.relation_only, not args.semantic_only)
        if args.jobs > 1:
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                by_seed[seed] = list(pool.map(scorer, archs))
        else:
            by_seed[seed] = [scorer(desc) for desc in archs]

    rows = [
        ScoreRow(arch_id(desc), proxy, by_seed[seed][index][proxy], True, seed)
        for index, desc in enumerate(archs)
        for proxy in proxies
        for seed in seeds
    ]
    config = {
        "command": "score",
        "space": space.kind,
        "num_classes": space.num_classes,
        "archs": [arch_id(d) for d in archs],
        "proxies": proxies,
        "teacher": arch_id(teacher_desc) if teacher_desc is not None else None,
        "batch_size": args.batch_size,
        "data": args.data,
        "data_format": args.data_format,
        "seeds": seeds,
        "init": args.init,
        "gaussian_std": args.gaussian_std,
        "temperature": args.temperature,
        "weight_source": args.weight_source,
        "normalization": args.normalization,
        "semantic_only": args.semantic_only,
        "relation_only": args.relation_only,
        "max_params": args.max_params,
        "max_flops": args.max_flops,
        "max_depth": args.max_depth,
    }
    write_scores_csv(args.out, rows, config)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args, parser) -> int:
    space = _build_space(args)
    seeds = _resolve_seeds(args)
    if len(seeds) != 1:
        parser.error("search takes a single --seed")
    seed = seeds[0]
    name = args.fitness
    sign = -1.0 if args.minimize else 1.0
    label = f"-{name}" if args.minimize else name
    scorer = _make_scorer(args, space, seed, [name], use_semantic=True, use_relation=True)

    def fitness(desc):
        return ProxyScore(label, sign * scorer(desc)[name], True)

    if args.strategy == "evo":
        try:
            cfg = EvoConfig(
                population_size=args.population,
                max_iterations=args.iters,
                sample_ratio=args.sample_ratio,
                topk=args.topk,
                master_seed=seed,
            )
        except ValueError as e:
            parser.error(str(e))
        state = evolve(space, fitness, cfg)
    else:
        if args.budget is None:
            parser.error("--strategy random needs --budget")
        if args.budget < 1:
            parser.error("--budget must be >= 1")
        state = random_search(space, fitness, args.budget, seed)

    out = Path(args.out)
    with open(out, "w") as f:
        for record in state.log:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    config = {
        "command": "search",
        "space": space.kind,
        "num_classes": space.num_classes,
        "strategy": args.strategy,
        "fitness": args.fitness,
        "minimize": args.minimize,
        "teacher": args.teacher,
        "batch_size": args.batch_size,
        "data": args.data,
        "data_format": args.data_format,
        "seed": seed,
        "init": args.init,
        "gaussian_std": args.gaussian_std,
        "temperature": args.temperature,
        "weight_source": args.weight_source,
        "normalization": args.normalization,
        "population": args.population,
        "iters": args.iters,
        "sample_ratio": args.sample_ratio,
        "topk": args.topk,
        "budget": args.budget,
        "max_params": args.max_params,
        "max_flops": args.max_flops,
        "max_depth": args.max_depth,
    }
    best_desc, best_score = state.best
    summary = {
        "config": config,
        "best_arch": arch_id(best_desc),
        "best_desc": descriptor_to_json(best_desc, space),
        "best_score": best_score.value,
        "fitness_name": best_score.proxy_name,
        "evaluations": state.evaluations,
        "iterations": len(state.history),
    }
    summary_path = Path(args.summary) if args.summary else out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"best {arch_id(best_desc)} score {best_score.value:.17g} after {state.evaluations} evaluations")
    print(f"wrote {out} and {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args, parser) -> int:
    seeds = _resolve_seeds(args)
    if len(seeds) != 1:
        parser.error("rank takes a single --seed")
    seed = seeds[0]
    rng = stream(derive_seed(seed, _RANK_TAG), 0)
    try:
        reports = evaluate_proxy(
            args.scores,
            args.accuracy,
            sample_size=args.sample,
            rng=rng,
            n_repeats=args.seeds,
        )
    except MissingArchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        config = {
            "command": "rank",
            "scores": [str(p) for p in args.scores],
            "accuracy": str(args.accuracy),
            "sample": args.sample,
            "seeds": args.seeds,
            "seed": seed,
        }
        write_report_csv(args.out, reports, config)
    print(format_report_table(reports))
    return 0


# ---------------------------------------------------------------------------
# parser


def _add_space_flags(p):
    p.add_argument("--space", choices=SPACE_CHOICES, default="s0")
    p.add_argument("--num-classes", type=int, default=None, help="override the space's class count")
    p.add_argument("--max-params", type=int, default=None)
    p.add_argument("--max-flops", type=int, default=None)
    p.add_argument("--max-depth", type=int, default=None, help="total block/cell count bound")


def _add_scoring_flags(p):
    p.add_argument("--teacher", default="max", help="'max', 'resnet56', 'resnet110', 'd1,d2,d3[-template]', or a cell string")
    p.add_argument("--batch-size", type=int, default=64)
    p.add_argument("--data", default=None, help="CIFAR binary file; omit for synthetic images")
    p.add_argument("--data-format", choices=("auto", "cifar10", "cifar100"), default="auto")
    p.add_argument("--seed", type=int, nargs="+", action="extend", default=None,
                   help="one or more seeds (env DISWOT_SEED as fallback, else 0)")
    p.add_argument("--init", choices=("kaiming", "gaussian"), default="kaiming")
    p.add_argument("--gaussian-std", type=float, default=0.1)
    p.add_argument("--temperature", type=float, default=1.0)
    p.add_argument("--weight-source", choices=(FC_WEIGHTS, FC_WEIGHT_GRADS), default=FC_WEIGHTS)
    p.add_argument("--normalization", choices=(ROW_L2, MATRIX_L2), default=ROW_L2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diswot",
        description="Training-free scoring, search, and ranking of student architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score architectures with training-free proxies")
    _add_space_flags(score)
    _add_scoring_flags(score)
    score.add_argument("--arch", action="append", help="architecture id or JSON (repeatable)")
    score.add_argument("--all-s0", action="store_true", help="score all 64 s0 candidates")
    score.add_argument("--proxy", action="append", choices=PROXY_CHOICES, help="repeatable; default diswot")
    score.add_argument("--semantic-only", action="store_true", help="diswot: drop the relation term")
    score.add_argument("--relation-only", action="store_true", help="diswot: drop the semantic term")
    score.add_argument("--jobs", type=int, default=1, help="parallel scoring threads (output is identical for any value)")
    score.add_argument("--out", required=True, help="scores CSV path")
    score.set_defaults(func=cmd_score)

    search = sub.add_parser("search", help="evolutionary or random architecture search")
    _add_space_flags(search)
    _add_scoring_flags(search)
    search.add_argument("--strategy", choices=("evo", "random"), default="evo")
    search.add_argument("--fitness", choices=PROXY_CHOICES, default="diswot")
    search.add_argument("--minimize", action="store_true", help="negate the fitness (e.g. smallest params)")
    search.add_argument("--population", type=int, default=20)
    search.add_argument("--iters", type=int, default=100)
    search.add_argument("--sample-ratio", type=float, default=0.5)
    search.add_argument("--topk", type=int, default=5)
    search.add_argument("--budget", type=int, default=None, help="evaluation count for --strategy random")
    search.add_argument("--out", required=True, help="JSONL run log path")
    search.add_argument("--summary", default=None, help="summary JSON path (default: <out>.summary.json)")
    search.set_defaults(func=cmd_search)

    rank = sub.add_parser("rank", help="correlate proxy scores against an accuracy table")
    rank.add_argument("--scores", nargs="+", required=True, help="score CSVs (one or more)")
    rank.add_argument("--accuracy", required=True, help="accuracy CSV (arch_id,accuracy)")
    rank.add_argument("--sample", type=int, default=None, help="architectures sampled per repetition")
    rank.add_argument("--seeds", type=int, default=None, help="number of sampling repetitions")
    rank.add_argument("--seed", type=int, action="append", default=None,
                      help="rng seed for subsampling (env DISWOT_SEED as fallback, else 0)")
    rank.add_argument("--out", default=None, help="report CSV path")
    rank.set_defaults(func=cmd_rank)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args, parser)
    except Exception as e:  # argparse SystemExit passes through untouched
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
