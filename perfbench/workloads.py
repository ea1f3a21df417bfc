"""The benchmark's four closed-loop workloads, each with one client.

An adaptive owner must see each answer before it asks the next query, so
every workload issues its next op only after the previous one returned.  A
workload's inputs (owners, circuits, characters, and the `CounterSource`
master key) are derived from the seed alone; the library sees only those
inputs.  `op(i)` is the timed unit and returns a plain record; `miss`
compares a record against exact truth, outside the timed region.  Library
entry points that the layer trace hooks are called through their module
(`adversary.constant_owner`, `fourier.goldreich_levin`) so the hooks see them.
"""

from __future__ import annotations

import hashlib
import json
import random
from fractions import Fraction

import numpy as np

from randsteward import adversary, fourier
from randsteward.circuits import acceptance_session, exact_mean, parse_circuit
from randsteward.fourier import gl_audit_dict, gl_params, heavy_set_exact
from randsteward.prg import build_schedule
from randsteward.randomness import CounterSource
from randsteward.sampler import plan_sampler
from randsteward.steward import Session, StewardConfig
from reference import Vectorized, interpreted


def _master(name: str, seed: int) -> bytes:
    return f"perfbench/{name}/{seed}".encode()


def _rat(x: Fraction) -> str:
    return f"{x.numerator}/{x.denominator}"


class SessionWorkload:
    """One op is one `main` steward session of k rounds, opening included.

    Owners cycle constant / boundary / extracting by op index.  Every answer
    must lie within (3*d0 + 5)*epsilon of the mu its query committed to.
    """

    digest_ops = 64
    reference = staticmethod(interpreted)

    def __init__(self, name: str, seed: int, d: int, k: int):
        self.config = StewardConfig(
            n=8, k=k, d=d, epsilon=Fraction(1, 128), delta=Fraction(1, 128),
            gamma=Fraction(1, 16),
        )
        cfg = self.config
        self.planned_bits = build_schedule(cfg.n, cfg.k, cfg.sigma, cfg.gamma).seed_len
        self.naive_bits = cfg.n * cfg.k
        # a pool of constant-owner mu lists, so one run averages over many
        rng = random.Random(_master(name, seed))
        self.mu_pool = [
            [tuple(Fraction(rng.randrange(-128, 128), 128) for _ in range(d)) for _ in range(5)]
            for _ in range(64)
        ]
        self.master = _master(name, seed)

    def _owner(self, i: int):
        cfg = self.config
        which = i % 3
        if which == 0:
            return adversary.constant_owner(self.mu_pool[i // 3 % 64], d=cfg.d)
        if which == 1:
            return adversary.boundary_owner(cfg.epsilon, d=cfg.d)
        return adversary.extracting_owner(cfg.n, cfg.epsilon, d=cfg.d)

    def op(self, i: int):
        owner = self._owner(i)
        session = Session(self.config, CounterSource(self.master, i))
        answers, mus = [], []
        for r in range(self.config.k):
            query = owner(r, answers)
            answers.append(session.answer(query))
            mus.append(query.mu)
        return answers, mus, session.bits_used

    def session_bits(self, record) -> int:
        return record[2]

    def miss(self, record) -> bool:
        answers, mus, _ = record
        bound = self.config.error_bound
        return any(
            max(abs(a - m) for a, m in zip(y, mu)) > bound for y, mu in zip(answers, mus)
        )

    def outputs(self, record):
        answers, _, bits = record
        return [[_rat(v) for v in y] for y in answers], bits


class AcceptWorkload:
    """One op is one adaptive estimate in a criterion-12 acceptance session.

    Each circuit extends the previous one by &, ^ or |, chosen from the last
    estimate as in criterion 12; the variable order is a seeded permutation
    per session.  Opening a session is charged to its first estimate.
    """

    digest_ops = 32
    reference = staticmethod(interpreted)
    n, k = 10, 16
    epsilon, delta = Fraction(1, 20), Fraction(1, 10)

    def __init__(self, name: str, seed: int):
        self.master = _master(name, seed)
        # the recipe the circuits module documents: sampler at (eps/8, delta/2k),
        # its seed as the steward's block, d = 1, gamma = delta/2
        plan = plan_sampler(
            self.n, self.epsilon / 8, self.delta / (2 * self.k), mode="walk"
        )
        cfg = StewardConfig(
            n=plan.seed_bits, k=self.k, d=1, epsilon=self.epsilon / 8,
            delta=self.delta / (2 * self.k), gamma=self.delta / 2,
        )
        self.planned_bits = build_schedule(cfg.n, cfg.k, cfg.sigma, cfg.gamma).seed_len
        self.naive_bits = cfg.n * cfg.k
        self._session = None
        self._history = []
        self._order = []
        self._truth: dict[str, Fraction] = {}

    def _next_circuit(self) -> str:
        history = self._history
        i = len(history)
        if not history:
            return f"x{self._order[0]}"
        prev, est = history[-1]
        var = f"x{self._order[i % self.n]}"
        if est > Fraction(1, 2):
            return f"({prev}) & {var}"
        if est < Fraction(1, 4):
            return f"({prev}) | {var}"
        return f"({prev}) ^ {var}"

    def op(self, i: int):
        index, rnd = divmod(i, self.k)
        if rnd == 0:
            self._session = acceptance_session(
                self.n, self.k, self.epsilon, self.delta, CounterSource(self.master, index)
            )
            self._history = []
            self._order = random.Random(f"{self.master!r}/{index}").sample(
                range(self.n), self.n
            )
        text = self._next_circuit()
        estimate = self._session.estimate(text)
        self._history.append((text, estimate))
        return text, estimate, self._session.bits_used

    def session_bits(self, record) -> int:
        return record[2]

    def miss(self, record) -> bool:
        text, estimate, _ = record
        truth = self._truth.get(text)
        if truth is None:
            truth = self._truth[text] = exact_mean(parse_circuit(text, self.n), self.n)
        return abs(estimate - truth) > self.epsilon

    def outputs(self, record):
        text, estimate, bits = record
        return text, _rat(estimate), bits


class GlWorkload:
    """One op is one Goldreich-Levin search on a seeded +-1 character.

    n = 2, theta = 9/10, delta = 1/2 (the README's `gl` example): 2 levels of
    50 batches of 998,873 points.  The output must equal the exact heavy set.
    """

    digest_ops = 2
    n = 2
    theta, delta = Fraction(9, 10), Fraction(1, 2)

    def __init__(self, name: str, seed: int):
        self.master = _master(name, seed)
        self.params = gl_params(self.n, self.theta, self.delta)
        audit = gl_audit_dict(self.params)
        self.planned_bits = audit["steward_bits"]
        self.naive_bits = audit["fresh_bits"]
        self.planned_queries = sum(plan.queries for plan in self.params.plans)
        xs = np.arange(1 << self.n)
        self.tables = [
            1 - 2 * (np.bitwise_count(xs & mask) & 1).astype(np.int8)
            for mask in range(1 << self.n)
        ]
        self._expected: dict[int, list[str]] = {}
        self.reference = Vectorized()

    def _mask(self, i: int) -> int:
        return random.Random(f"{self.master!r}/{i}").randrange(1 << self.n)

    def op(self, i: int):
        mask = self._mask(i)
        result = fourier.goldreich_levin(
            self.tables[mask], self.theta, self.delta, CounterSource(self.master, i)
        )
        return mask, result.strings, result.aborted, result.bits_used

    def session_bits(self, record) -> int:
        return record[3]

    def miss(self, record) -> bool:
        mask, strings, aborted, _ = record
        expected = self._expected.get(mask)
        if expected is None:
            expected = self._expected[mask] = heavy_set_exact(self.tables[mask], self.theta)
        return aborted or strings != expected

    def outputs(self, record):
        return list(record)


WORKLOADS = {
    "session-small": lambda seed: SessionWorkload("session-small", seed, d=2, k=8),
    "session-wide": lambda seed: SessionWorkload("session-wide", seed, d=32, k=4),
    "accept-circuits": lambda seed: AcceptWorkload("accept-circuits", seed),
    "gl-search": lambda seed: GlWorkload("gl-search", seed),
}


class Outcome:
    """Correctness of one closed loop, fed each op's index and record.

    Records are not kept, so memory does not grow with the run's length.
    The digest covers the outputs of ops 0 .. `digest_ops` - 1, which every
    loop runs, so loops of one seed can be compared bit for bit: across runs,
    and between the untraced and the traced loop of one traced run.
    """

    def __init__(self, workload):
        self.workload = workload
        self.ops = self.failed = self.misses = 0
        self.bits: set[int] = set()
        self._sha = hashlib.sha256()
        self._digest_ok = True

    def add(self, i: int, record) -> None:
        wl = self.workload
        if i < wl.digest_ops:
            if record is None:
                self._digest_ok = False
            else:
                self._sha.update(json.dumps(wl.outputs(record), separators=(",", ":")).encode())
                self._sha.update(b"\n")
        self.ops += 1
        if record is None:
            self.failed += 1
            return
        self.misses += wl.miss(record)
        self.bits.add(wl.session_bits(record))

    @property
    def digest(self) -> str | None:
        return self._sha.hexdigest() if self._digest_ok else None

    @property
    def bits_ok(self) -> bool:
        return self.bits == {self.workload.planned_bits}

    @property
    def correct(self) -> bool:
        return self.ops > 0 and self.failed == 0 and self.misses == 0 and self.bits_ok
