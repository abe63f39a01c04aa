"""Command-line front end: score candidates, run searches, rank proxies.

The parser is the one list of each command's flags and of the values they
accept. Every artifact embeds the run configuration (a sorted-key JSON comment
at the top of CSVs, a config object in search summaries), derived from the
parsed flags: every flag except --jobs, --out and --summary, which change no
output byte, with --all-s0 echoed as the archs it expands to. A flag given to a
run that does not read it (the other search strategy's, --gaussian-std without
--init gaussian, --data-format without --data) is a usage error. All randomness
flows from --seed through named child streams, so rerunning a command with the
same flags reproduces its outputs byte for byte.

Exit codes: 0 success, 1 runtime or data error, 2 usage error (every flag
value the parser or a cross-flag check rejects).
"""

from __future__ import annotations

import argparse
import json
import math
import os
import sys
from concurrent.futures import ThreadPoolExecutor
from pathlib import Path

from .arch import (
    SPACE_FACTORIES,
    Constraints,
    S0Depths,
    arch_id,
    block_count,
    descriptor_from_json,
    descriptor_in_space,
    descriptor_to_json,
    enumerate_s0,
    make_space,
    max_descriptor,
    min_descriptor,
    parse_nb201,
)
from .data import load_accuracy_csv, load_cifar_batch, synth_batch, ScoreRow, write_report_csv, write_scores_csv
from .metrics import BUNDLES, CODES, COST, DISWOT, FC_WEIGHT_GRADS, FC_WEIGHTS, MATRIX_L2, PROXIES, ROW_L2
from .metrics import ProxyOptions, proxy_value
from .network import NetworkInstance, PrefixCache, count_flops, count_params, satisfies_constraints, trie_order
from .rankstats import MIN_ROWS, MissingArchError, evaluate_proxy, format_report_table, report_rows
from .rng import InitSpec, derive_seed, stream
from .search import EvoConfig, evolve, random_search

# Child-seed tags: batch synthesis, weight init, rank subsampling.
_BATCH_TAG = 0x42415443
_INIT_TAG = 0x494E4954
_RANK_TAG = 0x52414E4B

_S0_TEACHERS = {"resnet56": (9, 9, 9), "resnet110": (18, 18, 18)}

# The prefix cache budget of an evo search: about 9 s0 networks' stage ends
# at batch 64 (14 MiB each). An s2_imagenet network at batch 64 needs 0.5 to
# 0.7 GiB on its own, so there the cache keeps one network, as score does.
_EVO_CACHE_BYTES = 128 * 2**20

# Evo's flags and defaults. They, random's --budget, --gaussian-std and
# --data-format are parsed only when given: see _default_read_flags.
_EVO_FLAGS = {"population": 20, "iters": 100, "sample_ratio": 0.5, "topk": 5}

# Parsed values that no artifact echoes: func is the command's handler and
# parser its subparser, which reports its usage errors; jobs, out and summary
# change no output byte; all_s0 is echoed as the archs it expands to.
_UNECHOED = frozenset({"func", "parser", "jobs", "out", "summary", "all_s0"})


def _config(args, **resolved) -> dict:
    """The run configuration an artifact embeds: every parsed flag, resolved values overriding raw ones."""
    return {k: v for k, v in vars(args).items() if k not in _UNECHOED} | resolved


def _resolve_seeds(given: list[int] | None) -> list[int]:
    if given:
        return given
    env = os.environ.get("DISWOT_SEED")
    if env is not None:
        try:
            return [int(env)]
        except ValueError:
            raise ValueError(f"DISWOT_SEED must be an integer, got {env!r}") from None
    return [0]


def _single_seed(args, parser) -> int:
    seeds = _resolve_seeds(args.seed)
    if len(seeds) != 1:
        parser.error(f"{args.command} takes a single --seed")
    return seeds[0]


def _build_space(args, constraints: Constraints = Constraints()):
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
        spec = spec.removesuffix("-template")
    return _parse_arch(space, spec)


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
        return enumerate_s0()
    descs = [_parse_arch(space, a) for a in args.archs]
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
    return InitSpec(args.init, vars(args).get("gaussian_std", InitSpec.gaussian_std), derive_seed(seed, _INIT_TAG))


def _default_read_flags(args, parser, defaults: dict, read: bool, needs: str) -> None:
    """Flags parsed only when given: a run that reads them gets the defaults of those left out; in a run
    that does not, giving one is a usage error that names what it needs."""
    if read:
        for dest, default in defaults.items():
            vars(args).setdefault(dest, default)
    elif stray := [f"--{dest.replace('_', '-')}" for dest in defaults if dest in vars(args)]:
        parser.error(f"{', '.join(stray)}: read only with {needs}")


def _make_scorer(args, space, seed: int, proxies, teacher, use_semantic: bool, use_relation: bool):
    """Return new_scorer at this seed; new_scorer(max_bytes) makes one scorer.

    teacher is the resolved teacher descriptor, or None when no requested
    proxy reads bundles. scorer(desc) maps a descriptor to {proxy: value},
    each from metrics.proxy_value given the inputs PROXIES names. Each scorer
    owns one PrefixCache over the batch with budget max_bytes (see
    PrefixCache), so a student resumes from the deepest stored stage end its
    plan shares: give each thread its own scorer. The relu_codes forward
    runs first, so a bundle forward after it is a full cache hit. The batch
    and the teacher forward are made once, here, and only when a requested
    proxy reads them.
    """
    reads = {PROXIES[p] for p in proxies}
    batch = _make_batch(args, space, seed) if reads - {COST} else None
    init = _init_spec(args, seed)
    teacher_bundle = None
    if teacher is not None:
        teacher_bundle = NetworkInstance(teacher, space, init).activations(batch.images, batch.labels)
    options = ProxyOptions(use_semantic, use_relation, args.weight_source, args.normalization, args.temperature)

    def new_scorer(max_bytes: int = 0):
        cache = None if batch is None else PrefixCache(batch.images, init, max_bytes)

        def scorer(desc) -> dict[str, float]:
            codes = units = bundle = None
            if batch is not None:
                student = NetworkInstance(desc, space, init)
                if CODES in reads:
                    codes, units = student.relu_codes(batch.images, cache=cache), student.relu_units
                if BUNDLES in reads:
                    bundle = student.activations(batch.images, batch.labels, cache=cache)
            return {p: proxy_value(p, desc, space, codes, units, teacher_bundle, bundle, options) for p in proxies}

        return scorer

    return new_scorer


# ---------------------------------------------------------------------------
# score


def cmd_score(args, parser) -> int:
    _default_read_flags(args, parser, {"gaussian_std": InitSpec.gaussian_std}, args.init == "gaussian", "--init gaussian")
    _default_read_flags(args, parser, {"data_format": "auto"}, bool(args.data), "--data")
    space = _build_space(args)
    archs = _resolve_archs(space, args, parser)
    proxies = args.proxies or [DISWOT]
    seeds = _resolve_seeds(args.seeds)

    teacher = _resolve_teacher(space, args.teacher) if any(PROXIES[p] == BUNDLES for p in proxies) else None

    # Scored in prefix-trie order, so each student resumes as deep as it can;
    # rows keep the input order.
    order = trie_order(archs, space)
    by_seed: dict[int, dict[int, dict[str, float]]] = {}  # seed -> input index -> values
    for seed in seeds:
        new_scorer = _make_scorer(args, space, seed, proxies, teacher, not args.relation_only, not args.semantic_only)

        def score_run(indices):
            scorer = new_scorer()
            return [scorer(archs[i]) for i in indices]

        if args.jobs > 1:
            # Each thread scores one contiguous run of the trie order with
            # its own scorer, so neighbours that share a prefix stay together.
            bounds = [len(order) * i // args.jobs for i in range(args.jobs + 1)]
            with ThreadPoolExecutor(max_workers=args.jobs) as pool:
                runs = [pool.submit(score_run, order[a:b]) for a, b in zip(bounds, bounds[1:])]
                outs = [out for run in runs for out in run.result()]
        else:
            outs = score_run(order)
        by_seed[seed] = dict(zip(order, outs))

    rows = [
        ScoreRow(arch_id(desc), proxy, by_seed[seed][index][proxy], True, seed)
        for index, desc in enumerate(archs)
        for proxy in proxies
        for seed in seeds
    ]
    config = _config(
        args,
        num_classes=space.num_classes,
        archs=[arch_id(d) for d in archs],
        proxies=proxies,
        teacher=arch_id(teacher) if teacher is not None else None,
        seeds=seeds,
    )
    write_scores_csv(args.out, rows, config)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args, parser) -> int:
    _default_read_flags(args, parser, _EVO_FLAGS, args.strategy == "evo", "--strategy evo")
    _default_read_flags(args, parser, {"budget": None}, args.strategy == "random", "--strategy random")
    _default_read_flags(args, parser, {"gaussian_std": InitSpec.gaussian_std}, args.init == "gaussian", "--init gaussian")
    _default_read_flags(args, parser, {"data_format": "auto"}, bool(args.data), "--data")
    space = _build_space(args, Constraints(args.max_params, args.max_flops, args.max_depth))
    smallest = min_descriptor(space)
    if not satisfies_constraints(smallest, space):
        parser.error(
            f"the constraints admit no member of space {space.kind!r}: its smallest, {arch_id(smallest)},"
            f" has {count_params(smallest, space)} params, {count_flops(smallest, space)} FLOPs"
            f" and {block_count(smallest, space)} blocks"
        )
    seed = _single_seed(args, parser)
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
    elif args.budget is None:
        parser.error("--strategy random needs --budget")
    name = args.fitness
    sign = -1.0 if args.minimize else 1.0
    label = f"-{name}" if args.minimize else name
    teacher = _resolve_teacher(space, args.teacher) if PROXIES[name] == BUNDLES else None
    new_scorer = _make_scorer(args, space, seed, [name], teacher, use_semantic=True, use_relation=True)
    # Random draws have no parents, so random search keeps the last network only.
    scorer = new_scorer(_EVO_CACHE_BYTES if args.strategy == "evo" else 0)
    # Weights depend only on the descriptor's plan and the init seed, so the
    # fitness is a pure function of the descriptor and a memo is exact.
    memo: dict[str, float] = {}

    def fitness(desc):
        key = arch_id(desc)
        if key not in memo:
            memo[key] = sign * scorer(desc)[name]
        return memo[key]

    if args.strategy == "evo":
        state = evolve(space, fitness, cfg)
    else:
        state = random_search(space, fitness, args.budget, seed)

    out = Path(args.out)
    with open(out, "w") as f:
        for record in state.log:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    config = _config(args, num_classes=space.num_classes, seed=seed,
                     teacher=arch_id(teacher) if teacher is not None else None)
    best_desc, best_score = state.best
    summary = {
        "config": config,
        "best_arch": arch_id(best_desc),
        "best_desc": descriptor_to_json(best_desc, space),
        "best_score": best_score,
        "fitness_name": label,
        "evaluations": state.evaluations,
        "iterations": len(state.log),
    }
    summary_path = Path(args.summary) if args.summary else out.with_suffix(".summary.json")
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"best {arch_id(best_desc)} score {best_score:.17g} after {state.evaluations} evaluations")
    print(f"wrote {out} and {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args, parser) -> int:
    seed = _single_seed(args, parser)
    rng = stream(derive_seed(seed, _RANK_TAG), 0)
    try:
        reports = evaluate_proxy(
            args.scores,
            load_accuracy_csv(args.accuracy),
            sample_size=args.sample,
            rng=rng,
            n_repeats=args.seeds,
        )
    except MissingArchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_report_csv(args.out, report_rows(reports), _config(args, seed=seed))
    print(format_report_table(reports))
    return 0


# ---------------------------------------------------------------------------
# parser


def _positive_float(text: str) -> float:
    try:
        value = float(text)
    except ValueError:
        value = math.nan
    if not 0 < value < math.inf:
        raise argparse.ArgumentTypeError(f"must be a positive finite number, got {text!r}")
    return value


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""

    def parse(text: str) -> int:
        try:
            value = int(text)
        except ValueError:
            value = low - 1
        if value < low:
            raise argparse.ArgumentTypeError(f"must be an integer >= {low}, got {text!r}")
        return value

    return parse


def _add_scoring_flags(p, seed_dest: str):
    """The space and scoring flags of score and search; seed_dest names the --seed list."""
    p.add_argument("--space", choices=tuple(SPACE_FACTORIES), default="s0")
    p.add_argument("--num-classes", type=_at_least(1), default=None, help="override the space's class count")
    p.add_argument("--teacher", default="max", help="'max', 'resnet56', 'resnet110', 'd1,d2,d3[-template]', a cell string, or JSON")
    p.add_argument("--batch-size", type=_at_least(2), default=64)
    p.add_argument("--data", default=None, help="CIFAR binary file; omit for synthetic images")
    p.add_argument("--data-format", choices=("auto", "cifar10", "cifar100"), default=argparse.SUPPRESS, help="with --data only; default auto")
    p.add_argument("--seed", dest=seed_dest, metavar="SEED", type=int, nargs="+", action="extend", default=None,
                   help="one or more seeds (env DISWOT_SEED as fallback, else 0)")
    p.add_argument("--init", choices=("kaiming", "gaussian"), default="kaiming")
    p.add_argument("--gaussian-std", type=_positive_float, default=argparse.SUPPRESS, help=f"with --init gaussian only; default {InitSpec.gaussian_std}")
    p.add_argument("--temperature", type=_positive_float, default=1.0)
    p.add_argument("--weight-source", choices=(FC_WEIGHTS, FC_WEIGHT_GRADS), default=FC_WEIGHTS)
    p.add_argument("--normalization", choices=(ROW_L2, MATRIX_L2), default=ROW_L2)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="diswot",
        description="Training-free scoring, search, and ranking of student architectures.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    score = sub.add_parser("score", help="score architectures with training-free proxies")
    _add_scoring_flags(score, "seeds")
    archs = score.add_mutually_exclusive_group(required=True)
    archs.add_argument("--arch", dest="archs", metavar="ARCH", action="append", help="architecture id or JSON (repeatable)")
    archs.add_argument("--all-s0", action="store_true", help="score all 64 s0 candidates")
    score.add_argument("--proxy", dest="proxies", action="append", choices=tuple(PROXIES), help="repeatable; default diswot")
    terms = score.add_mutually_exclusive_group()
    terms.add_argument("--semantic-only", action="store_true", help="diswot: drop the relation term")
    terms.add_argument("--relation-only", action="store_true", help="diswot: drop the semantic term")
    score.add_argument("--jobs", type=_at_least(1), default=1, help="parallel scoring threads (output is identical for any value)")
    score.add_argument("--out", required=True, help="scores CSV path")
    score.set_defaults(func=cmd_score, parser=score)

    search = sub.add_parser("search", help="evolutionary or random architecture search")
    _add_scoring_flags(search, "seed")
    search.add_argument("--max-params", type=int, default=None)
    search.add_argument("--max-flops", type=int, default=None)
    search.add_argument("--max-depth", type=int, default=None, help="total block/cell count bound")
    search.add_argument("--strategy", choices=("evo", "random"), default="evo")
    search.add_argument("--fitness", choices=tuple(PROXIES), default=DISWOT)
    search.add_argument("--minimize", action="store_true", help="negate the fitness (e.g. smallest params)")
    for dest, default in _EVO_FLAGS.items():
        search.add_argument(f"--{dest.replace('_', '-')}", type=type(default), default=argparse.SUPPRESS,
                            help=f"evo only; default {default}")
    search.add_argument("--budget", type=_at_least(1), default=argparse.SUPPRESS, help="random only; required there")
    search.add_argument("--out", required=True, help="JSONL run log path")
    search.add_argument("--summary", default=None, help="summary JSON path (default: <out>.summary.json)")
    search.set_defaults(func=cmd_search, parser=search)

    rank = sub.add_parser("rank", help="correlate proxy scores against an accuracy table")
    rank.add_argument("--scores", nargs="+", required=True, help="score CSVs (one or more)")
    rank.add_argument("--accuracy", required=True, help="accuracy CSV (arch_id,accuracy)")
    rank.add_argument("--sample", type=_at_least(MIN_ROWS), default=None,
                      help=f"architectures sampled per repetition (the statistics need {MIN_ROWS})")
    rank.add_argument("--seeds", type=_at_least(1), default=None, help="number of sampling repetitions")
    rank.add_argument("--seed", type=int, action="append", default=None,
                      help="rng seed for subsampling (env DISWOT_SEED as fallback, else 0)")
    rank.add_argument("--out", default=None, help="report CSV path")
    rank.set_defaults(func=cmd_rank, parser=rank)

    return parser


def main(argv=None) -> int:
    args, unknown = build_parser().parse_known_args(argv)
    if unknown:
        args.parser.error(f"unrecognized arguments: {' '.join(unknown)}")
    try:
        return args.func(args, args.parser)
    except Exception as e:  # argparse SystemExit passes through untouched
        print(f"error: {e}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
