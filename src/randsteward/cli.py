"""Command-line surface: gl, accept, prg expand, sampler bench, audit, demo adversary.

Structured JSON goes to stdout (or --output FILE); a one-line human summary
goes to stderr.  Every command that draws bits is bit-for-bit reproducible
given --seed-hex (audit only plans, so it takes none): single-run commands
read their tape straight from the hex string, and Monte-Carlo commands
derive trial i's tape from a SHA-256 counter stream keyed by (seed bytes, i).
Usage errors exit 2; runtime failures and a Goldreich-Levin abort exit 1.
gl, accept and audit run the main steward on the generator's default plan
(each level the cheaper of fresh bits and the small-bias extractor); only
prg expand picks a generator backend, and only demo adversary a steward
kind.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from concurrent.futures import ProcessPoolExecutor
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import adversary, circuits, fourier, prg, sampler, steward
from .randomness import (
    CounterSource,
    SystemSource,
    TapeSource,
    bits_to_hex,
    bits_to_int,
    hex_to_bits,
    int_to_bits,
)


def _rat(text: str) -> Fraction:
    try:
        return Fraction(text)
    except (ValueError, ZeroDivisionError) as exc:
        raise argparse.ArgumentTypeError(f"not a rational: {text!r}") from exc


def _unit_rat(text: str) -> Fraction:
    value = _rat(text)
    if not 0 <= value <= 1:
        raise argparse.ArgumentTypeError(f"not in [0, 1]: {text!r}")
    return value


def _count(text: str) -> int:
    value = int(text)
    if value < 0:
        raise argparse.ArgumentTypeError(f"negative count: {text!r}")
    return value


def _seed_hex(text: str) -> str:
    try:
        seed = bytes.fromhex(text)
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"not a hex string: {text!r}") from exc
    if not seed:
        raise argparse.ArgumentTypeError(f"empty seed: {text!r}")
    return text


def _jobs(text: str) -> int:
    value = int(text)
    if value < 1:
        raise argparse.ArgumentTypeError(f"need at least one job: {text!r}")
    return value


def _emit(doc: dict, output: str | None) -> None:
    text = json.dumps(doc, indent=2)
    if output:
        with open(output, "w") as fh:
            fh.write(text + "\n")
    else:
        print(text)


def _single_source(seed_hex: str | None):
    """A tape of every bit of the hex, which fails at the draw past its end; else OS."""
    if seed_hex is None:
        return SystemSource()
    return TapeSource(hex_to_bits(seed_hex))


def _master_key(seed_hex: str | None) -> bytes:
    return os.urandom(16) if seed_hex is None else bytes.fromhex(seed_hex)


def _run_trials(worker, args_list, jobs: int) -> list:
    jobs = min(jobs, os.cpu_count() or 1)
    if jobs > 1:
        with ProcessPoolExecutor(max_workers=jobs) as pool:
            return list(pool.map(worker, args_list, chunksize=8))
    return [worker(a) for a in args_list]


# ---------------------------------------------------------------- gl


def _cmd_gl(args) -> int:
    with open(args.truth_table) as fh:
        table = fourier.load_truth_table(fh.read())
    result = fourier.goldreich_levin(table, args.theta, args.delta, _single_source(args.seed_hex))
    doc = {
        "n": result.params.n,
        "theta": str(args.theta),
        "delta": str(args.delta),
        "aborted": result.aborted,
        "masks": result.masks,
        "strings": result.strings,
        "bits_used": result.bits_used,
        "audit": fourier.gl_audit_dict(result.params),
    }
    _emit(doc, args.output)
    if result.aborted:
        print("gl: aborted (survivor list overflow)", file=sys.stderr)
        return 1
    print(
        f"gl: {len(result.strings)} heavy prefixes, {result.bits_used} bits",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- accept


def _cmd_accept(args) -> int:
    source = _single_source(args.seed_hex)
    session = circuits.AcceptanceSession(args.n, args.k, args.epsilon, args.delta, source)
    rounds = []
    for line in sys.stdin:
        text = line.strip()
        if not text:
            continue
        estimate = session.estimate(text)
        record = {
            "round": len(rounds),
            "circuit": text,
            "estimate": str(estimate),
            "estimate_float": float(estimate),
        }
        rounds.append(record)
        print(json.dumps(record), flush=True)
        if len(rounds) == args.k:
            break
    doc = {
        "n": args.n,
        "k": args.k,
        "epsilon": str(args.epsilon),
        "delta": str(args.delta),
        "bits_used": session.bits_used,
        "sampler": session.plan.to_dict(),
        "rounds": rounds,
    }
    if args.output:
        _emit(doc, args.output)
    print(
        f"accept: {len(rounds)} rounds, {session.bits_used} bits", file=sys.stderr
    )
    return 0


# ---------------------------------------------------------------- prg expand


def _cmd_prg_expand(args) -> int:
    schedule = prg.build_schedule(args.n, args.k, args.sigma, args.gamma, backend=args.backend)
    seed = _single_source(args.seed_hex).draw(schedule.seed_len, phase="seed")
    output = int_to_bits(prg.expand(schedule, bits_to_int(seed)), schedule.output_len)
    doc = {
        "schedule": schedule.to_dict(),
        "seed_bits": seed,
        "seed_hex": bits_to_hex(seed),
        "output_bits": output,
        "blocks": [output[i * args.n : (i + 1) * args.n] for i in range(args.k)],
    }
    _emit(doc, args.output)
    print(
        f"prg expand: seed {schedule.seed_len} bits -> output {len(output)} bits",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- sampler bench


@dataclass
class _ThresholdOracle(sampler.Oracle):
    """x < threshold on n-bit points, whose cube total is the threshold itself."""

    n: int
    threshold: int

    def eval_ints(self, xs: np.ndarray) -> np.ndarray:
        return (xs < self.threshold).astype(np.uint8)

    def cube_total(self) -> int:
        return self.threshold


def _bench_trial(packed) -> str:
    master, index, n, epsilon, delta, threshold = packed
    plan = sampler.plan_sampler(n, epsilon, delta)
    seed = bits_to_int(CounterSource(master, index).draw(plan.seed_bits, phase="sampler"))
    estimate = sampler.run_sampler(plan, _ThresholdOracle(n, threshold), seed).estimate
    return str(estimate - Fraction(threshold, 1 << n))  # signed error


def _cmd_sampler_bench(args) -> int:
    plan = sampler.plan_sampler(args.n, args.epsilon, args.delta)
    threshold = int(args.mean * (1 << args.n))
    master = _master_key(args.seed_hex)
    packed = [
        (master, i, args.n, args.epsilon, args.delta, threshold)
        for i in range(args.trials)
    ]
    errors = [Fraction(e) for e in _run_trials(_bench_trial, packed, args.jobs)]
    failures = sum(1 for e in errors if abs(e) > args.epsilon)
    doc = {
        "plan": plan.to_dict(),
        "oracle_mean": str(Fraction(threshold, 1 << args.n)),
        "trials": args.trials,
        "master_hex": master.hex(),
        "max_abs_error": str(max((abs(e) for e in errors), default=Fraction(0))),
        "failures_beyond_epsilon": failures,
        "failure_rate": failures / args.trials if args.trials else 0.0,
    }
    _emit(doc, args.output)
    print(
        f"sampler bench: {args.trials} trials, {failures} failures, "
        f"{plan.seed_bits} bits/run",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- audit


def _cmd_audit(args) -> int:
    params = fourier.gl_params(args.n, args.theta, args.delta)
    doc = fourier.gl_audit_dict(params)
    _emit(doc, args.output)
    print(
        f"audit: steward seed {doc['steward_bits']} bits vs fresh {doc['fresh_bits']}",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- demo adversary


def _make_owner(name: str, epsilon: Fraction, n: int, d: int):
    if name == "constant":
        return adversary.constant_owner([0], d=d)
    if name == "boundary":
        return adversary.boundary_owner(epsilon, d=d)
    if name == "extracting":
        return adversary.extracting_owner(n, epsilon, d=d)
    raise ValueError(f"unknown owner {name!r}")


def _adversary_trial(packed) -> dict:
    master, index, config, owner_name = packed
    owner = _make_owner(owner_name, config.epsilon, config.n, config.d)
    mus: list = []

    def logging_owner(i, history):
        fn = owner(i, history)
        mus.append(fn.mu)
        return fn

    source = CounterSource(master, index)
    transcript = steward.run_steward(config, logging_owner, source)
    bound = config.error_bound
    worst = Fraction(0)
    for record, mu in zip(transcript.rounds, mus):
        err = max(abs(y - m) for y, m in zip(record.y, mu))
        worst = max(worst, err)
    return {
        "failed": worst > bound,
        "worst_error": str(worst),
        "bits_used": transcript.bits_used,
    }


def _cmd_demo_adversary(args) -> int:
    config = steward.StewardConfig(
        n=args.n, k=args.k, d=args.d, epsilon=args.epsilon, delta=args.delta,
        gamma=args.gamma, kind=args.steward,
    )
    master = _master_key(args.seed_hex)
    packed = [(master, i, config, args.owner) for i in range(args.trials)]
    results = _run_trials(_adversary_trial, packed, args.jobs)
    failures = sum(1 for r in results if r["failed"])
    doc = {
        "owner": args.owner,
        "steward": args.steward,
        "config": config.to_dict(),
        "error_bound": str(config.error_bound),
        "trials": args.trials,
        "master_hex": master.hex(),
        "failures": failures,
        "failure_rate": failures / args.trials if args.trials else 0.0,
        "bits_per_session": results[0]["bits_used"] if results else None,
        "worst_error": str(max((Fraction(r["worst_error"]) for r in results),
                              default=Fraction(0))),
    }
    _emit(doc, args.output)
    print(
        f"demo adversary: {args.owner} vs {args.steward}: "
        f"{failures}/{args.trials} failures",
        file=sys.stderr,
    )
    return 0


# ---------------------------------------------------------------- parser


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="randsteward",
        description="Randomness stewards: adaptive estimation on a shared seed.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p):
        p.add_argument("--seed-hex", type=_seed_hex,
                       help="hex tape / master key for reproducibility")
        p.add_argument("--output", help="write JSON here instead of stdout")

    p = sub.add_parser("gl", help="heavy Fourier coefficient search")
    p.add_argument("--truth-table", required=True, help="file: n=<int> line, then hex bits")
    p.add_argument("--theta", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    common(p)
    p.set_defaults(fn=_cmd_gl)

    p = sub.add_parser("accept", help="adaptive circuit acceptance estimation")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--epsilon", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    common(p)
    p.set_defaults(fn=_cmd_accept)

    p = sub.add_parser("prg", help="generator utilities")
    prg_sub = p.add_subparsers(dest="prg_command", required=True)
    q = prg_sub.add_parser("expand", help="expand a seed to k blocks of n bits")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--k", type=int, required=True)
    q.add_argument("--sigma", type=int, required=True)
    q.add_argument("--gamma", type=_rat, required=True)
    q.add_argument("--backend", default="auto", choices=prg.BACKENDS)
    common(q)
    q.set_defaults(fn=_cmd_prg_expand)

    p = sub.add_parser("sampler", help="sampler utilities")
    samp_sub = p.add_subparsers(dest="sampler_command", required=True)
    q = samp_sub.add_parser("bench", help="empirical error of the median sampler")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--epsilon", type=_rat, required=True)
    q.add_argument("--delta", type=_rat, required=True)
    q.add_argument("--mean", type=_unit_rat, default=Fraction(1, 2),
                   help="true mean of the benchmark oracle")
    q.add_argument("--trials", type=_count, default=100)
    q.add_argument("--jobs", type=_jobs, default=1)
    common(q)
    q.set_defaults(fn=_cmd_sampler_bench)

    p = sub.add_parser("audit", help="Goldreich-Levin randomness budget")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--theta", type=_rat, required=True)
    p.add_argument("--delta", type=_rat, required=True)
    p.add_argument("--output", help="write JSON here instead of stdout")
    p.set_defaults(fn=_cmd_audit)

    p = sub.add_parser("demo", help="demonstrations")
    demo_sub = p.add_subparsers(dest="demo_command", required=True)
    q = demo_sub.add_parser("adversary", help="owner-vs-steward failure rates")
    q.add_argument("--owner", default="extracting",
                   choices=("constant", "boundary", "extracting"))
    q.add_argument("--steward", default="naive-reuse", choices=steward.KINDS)
    q.add_argument("--n", type=int, default=8)
    q.add_argument("--k", type=int, default=2)
    q.add_argument("--d", type=int, default=1)
    q.add_argument("--epsilon", type=_rat, default=Fraction(1, 128))
    q.add_argument("--delta", type=_rat, default=Fraction(1, 128))
    q.add_argument("--gamma", type=_rat, default=Fraction(1, 16))
    q.add_argument("--trials", type=_count, default=200)
    q.add_argument("--jobs", type=_jobs, default=1)
    common(q)
    q.set_defaults(fn=_cmd_demo_adversary)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except (ValueError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
