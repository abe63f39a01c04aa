"""Command-line front end: score candidates, run searches, rank proxies.

The parser is the one list of each command's flags and of the values they
accept, and _CONDITIONAL the one table of the flags a run reads only under a
condition. A given flag the run does not read, a value given twice and a file
that two flags name are usage errors. Every artifact embeds the run
configuration (a sorted-key JSON comment at the top of CSVs, a config object
in search summaries): every flag the run read except --jobs, --out and
--summary, which change no output byte, with --all-s0 echoed as the archs it
expands to and --teacher as the resolved teacher's arch id. All randomness
flows from --seed through named child streams, so rerunning a command with
the same flags reproduces its outputs byte for byte.

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


# The flags that a run reads only under a condition, as rows (the condition as
# a usage error names it, whether a run with flags f and proxies p meets it,
# {dest: default}); a condition may test an earlier flag.
_CONDITIONAL = (
    ("by a proxy that reads a batch", lambda f, p: any(PROXIES[name] != COST for name in p),
     dict(batch_size=64, data=None, init=InitSpec.scheme)),
    ("with --data", lambda f, p: f.get("data") is not None, dict(data_format="auto")),
    ("with --init gaussian", lambda f, p: f.get("init") == "gaussian", dict(gaussian_std=InitSpec.gaussian_std)),
    ("by a proxy that reads a teacher", lambda f, p: any(PROXIES[name] == BUNDLES for name in p), dict(teacher="max")),
    ("by diswot", lambda f, p: DISWOT in p,
     dict(weight_source=ProxyOptions.weight_source, normalization=ProxyOptions.normalization, semantic_only=False, relation_only=False)),
    ("by kd_kl", lambda f, p: "kd_kl" in p, dict(temperature=ProxyOptions.temperature)),
    ("with --strategy evo", lambda f, p: f.get("strategy") == "evo", dict(population=20, iters=100, sample_ratio=0.5, topk=5)),
    ("with --strategy random", lambda f, p: f.get("strategy") == "random", dict(budget=None)),
    ("with --sample", lambda f, p: f.get("sample") is not None, dict(seed=None, seeds=None)),
)

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
            return [_seed(env)]
        except argparse.ArgumentTypeError as e:
            raise ValueError(f"DISWOT_SEED {e}") from None
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


def _read_flags(args, parser, proxies) -> None:
    """Fill in the defaults of the command's _CONDITIONAL flags (no parser default) a run reads; reject a given one it does not."""
    flags = vars(args)
    for needs, reads, defaults in _CONDITIONAL:
        defaults = {k: v for k, v in defaults.items() if parser.get_default(k) is argparse.SUPPRESS}
        if reads(flags, proxies):
            flags.update({k: v for k, v in defaults.items() if k not in flags})
        elif stray := [f"--{dest.replace('_', '-')}" for dest in defaults if dest in flags]:
            parser.error(f"{', '.join(stray)}: read only {needs}")


_FILE_FLAGS = frozenset({"--data", "--out", "--summary", "--scores", "--accuracy"})


def _each_once(parser, given: dict) -> None:
    """Exit 2 if a flag of given ({flag: values}) repeats a value, or two _FILE_FLAGS name one file by resolved path.

    A repeated value would write or count its rows twice; a file named twice would lose an input or an output.
    """
    seen = {}
    for flag, values in given.items():
        for value in (v for v in values if v is not None):
            key = Path(value).resolve() if flag in _FILE_FLAGS else (flag, value)
            if key in seen:
                parser.error(f"{flag} {value} is given more than once" if seen[key] == flag
                             else f"{seen[key]} and {flag} both name {value}")
            seen[key] = flag


def _resolve_teacher(space, args):
    """The teacher descriptor, or None in a run that reads no teacher; the echo holds its arch id."""
    if (spec := vars(args).get("teacher")) is None:
        return None
    if spec == "max":
        teacher = max_descriptor(space)
    elif space.kind == "s0" and spec.lower() in _S0_TEACHERS:
        teacher = S0Depths(*_S0_TEACHERS[spec.lower()])
    else:
        teacher = _parse_arch(space, spec.removesuffix("-template") if space.kind == "s0" else spec)
    args.teacher = arch_id(teacher)
    return teacher


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
    if args.data is not None:
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


def _make_scorer(args, space, seed: int, proxies, teacher):
    """Return new_scorer at this seed; new_scorer(max_bytes) makes one scorer.

    teacher is the resolved teacher descriptor, or None when no requested proxy
    reads bundles. scorer(desc) maps a descriptor to {proxy: value}, each from
    metrics.proxy_value given the inputs PROXIES names. Each scorer owns one
    PrefixCache over the batch with budget max_bytes (see PrefixCache), so a
    student resumes from the deepest stored stage end its plan shares: give
    each thread its own scorer. The relu_codes forward runs first, so a bundle
    forward after it is a full cache hit. The batch, the init, the teacher
    forward and ProxyOptions are made once, here, from the flags the run read.
    """
    reads = {PROXIES[p] for p in proxies}
    flags = vars(args)
    batch = init = teacher_bundle = None
    if reads - {COST}:
        batch = _make_batch(args, space, seed)
        init = InitSpec(args.init, flags.get("gaussian_std", InitSpec.gaussian_std), derive_seed(seed, _INIT_TAG))
    if teacher is not None:
        teacher_bundle = NetworkInstance(teacher, space, init).activations(batch.images, batch.labels)
    options = ProxyOptions(not flags.get("relation_only"), not flags.get("semantic_only"),
                           **{k: flags[k] for k in ("weight_source", "normalization", "temperature") if k in flags})

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
    proxies = args.proxies or [DISWOT]
    _read_flags(args, parser, proxies)
    seeds = _resolve_seeds(args.seeds)
    space = _build_space(args)
    archs = _resolve_archs(space, args, parser)
    _each_once(parser, {"--proxy": proxies, "--seed": seeds, "--arch": [arch_id(d) for d in archs],
                        "--data": [vars(args).get("data")], "--out": [args.out]})
    teacher = _resolve_teacher(space, args)

    # Scored in prefix-trie order, so each student resumes as deep as it can;
    # rows keep the input order.
    order = trie_order(archs, space)
    by_seed: dict[int, dict[int, dict[str, float]]] = {}  # seed -> input index -> values
    for seed in seeds:
        new_scorer = _make_scorer(args, space, seed, proxies, teacher)

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
    config = _config(args, num_classes=space.num_classes, archs=[arch_id(d) for d in archs], proxies=proxies, seeds=seeds)
    write_scores_csv(args.out, rows, config)
    print(f"wrote {len(rows)} rows to {args.out}")
    return 0


# ---------------------------------------------------------------------------
# search


def cmd_search(args, parser) -> int:
    _read_flags(args, parser, [args.fitness])
    out = Path(args.out)
    summary_path = Path(args.summary) if args.summary else out.with_suffix(".summary.json")
    _each_once(parser, {"--data": [vars(args).get("data")], "--out": [out], "--summary": [summary_path]})
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
    new_scorer = _make_scorer(args, space, seed, [name], _resolve_teacher(space, args))
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

    with open(out, "w") as f:
        for record in state.log:
            f.write(json.dumps(record, sort_keys=True) + "\n")

    config = _config(args, num_classes=space.num_classes, seed=seed)
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
    summary_path.write_text(json.dumps(summary, sort_keys=True, indent=2) + "\n")
    print(f"best {arch_id(best_desc)} score {best_score:.17g} after {state.evaluations} evaluations")
    print(f"wrote {out} and {summary_path}")
    return 0


# ---------------------------------------------------------------------------
# rank


def cmd_rank(args, parser) -> int:
    _read_flags(args, parser, ())
    # Only subsampling draws from the seed, so a run without --sample reads
    # neither --seed nor DISWOT_SEED, and its echo holds no seed.
    rng = None
    if args.sample is not None:
        args.seed = _single_seed(args, parser)
        rng = stream(derive_seed(args.seed, _RANK_TAG), 0)
    _each_once(parser, {"--scores": args.scores, "--accuracy": [args.accuracy], "--out": [args.out]})
    try:
        reports = evaluate_proxy(
            args.scores,
            load_accuracy_csv(args.accuracy),
            sample_size=args.sample,
            rng=rng,
            n_repeats=vars(args).get("seeds"),
        )
    except MissingArchError as e:
        print(f"error: {e}", file=sys.stderr)
        return 2
    if args.out:
        write_report_csv(args.out, report_rows(reports), _config(args))
    print(format_report_table(reports))
    return 0


# ---------------------------------------------------------------------------
# parser


def _checked(convert, valid, wants: str):
    """An argparse type: convert(text) if it succeeds and valid accepts it, else 'must be {wants}, got {text!r}'."""

    def parse(text: str):
        try:
            value = convert(text)
        except ValueError:
            value = None
        if value is None or not valid(value):
            raise argparse.ArgumentTypeError(f"must be {wants}, got {text!r}")
        return value

    return parse


_positive_float = _checked(float, lambda v: 0 < v < math.inf, "a positive finite number")
# An integer in [0, 2**64): rng.stream keys on 64 bits and rejects any other seed.
_seed = _checked(int, lambda v: 0 <= v < 1 << 64, "an integer in [0, 2**64)")


def _at_least(low: int):
    """An argparse type: an integer no smaller than low."""
    return _checked(int, lambda v: v >= low, f"an integer >= {low}")


def _add_conditional(p, flag: str, about: str = "", **kwargs) -> None:
    """Add a flag of _CONDITIONAL: no parser default, and help that names its condition and default."""
    dest = flag[2:].replace("-", "_")
    needs, default = next((needs, defaults[dest]) for needs, _, defaults in _CONDITIONAL if dest in defaults)
    read = f"read only {needs}" + ("" if default in (None, False) else f"; default {default}")
    p.add_argument(flag, default=argparse.SUPPRESS, help=f"{about}; {read}" if about else read, **kwargs)


def _add_scoring_flags(p, seed_dest: str):
    """The space and scoring flags of score and search; seed_dest names the --seed list."""
    p.add_argument("--space", choices=tuple(SPACE_FACTORIES), default="s0")
    p.add_argument("--num-classes", type=_at_least(1), default=None, help="override the space's class count")
    _add_conditional(p, "--teacher", "'max', 'resnet56', 'resnet110', 'd1,d2,d3[-template]', a cell string, or JSON")
    _add_conditional(p, "--batch-size", type=_at_least(2))
    _add_conditional(p, "--data", "CIFAR binary file; omit for synthetic images")
    _add_conditional(p, "--data-format", choices=("auto", "cifar10", "cifar100"))
    p.add_argument("--seed", dest=seed_dest, metavar="SEED", type=_seed, nargs="+", action="extend", default=None,
                   help="one or more seeds in [0, 2**64) (env DISWOT_SEED as fallback, else 0)")
    _add_conditional(p, "--init", choices=("kaiming", "gaussian"))
    _add_conditional(p, "--gaussian-std", type=_positive_float)
    _add_conditional(p, "--temperature", type=_positive_float)
    _add_conditional(p, "--weight-source", choices=(FC_WEIGHTS, FC_WEIGHT_GRADS))
    _add_conditional(p, "--normalization", choices=(ROW_L2, MATRIX_L2))


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
    _add_conditional(terms, "--semantic-only", "drop the relation term", action="store_true")
    _add_conditional(terms, "--relation-only", "drop the semantic term", action="store_true")
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
    for flag, kind in (("--population", int), ("--iters", int), ("--sample-ratio", float), ("--topk", int)):
        _add_conditional(search, flag, type=kind)
    _add_conditional(search, "--budget", "architectures drawn, required", type=_at_least(1))
    search.add_argument("--out", required=True, help="JSONL run log path")
    search.add_argument("--summary", default=None, help="summary JSON path (default: <out>.summary.json)")
    search.set_defaults(func=cmd_search, parser=search)

    rank = sub.add_parser("rank", help="correlate proxy scores against an accuracy table")
    rank.add_argument("--scores", nargs="+", required=True, help="score CSVs (one or more)")
    rank.add_argument("--accuracy", required=True, help="accuracy CSV (arch_id,accuracy)")
    rank.add_argument("--sample", type=_at_least(MIN_ROWS), default=None,
                      help=f"architectures per draw, fewer than any series holds (the statistics need {MIN_ROWS})")
    _add_conditional(rank, "--seeds", "number of draws, default one draw per series", type=_at_least(1))
    _add_conditional(rank, "--seed", "subsampling seed in [0, 2**64) (env DISWOT_SEED as fallback, else 0)",
                     type=_seed, action="append")
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
