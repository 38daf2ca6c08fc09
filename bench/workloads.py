"""The benchmark's three workloads.

Each workload builds its inputs from the seed, runs one round of
operations through an `invoke(name, argv)` callable that calls
`hallwalk.cli.main`, and checks a round's answers with `checks`.  A round
always holds the same operations: the seed only chooses their order (and,
for `certify`, the sample points of the program's own verification, whose
cost varies by about 2%).
"""

import contextlib
import gc
import hashlib
import io
import json
import random
import time
import traceback
from dataclasses import dataclass, field
from datetime import datetime
from itertools import product
from math import prod

import checks

EXIT_OK = 0
EXIT_BUDGET = 3


@dataclass
class Round:
    elapsed: float = 0.0  # program time of the round, in seconds
    attempted: int = 0
    refused: int = 0  # operations the program refused with exit code 3
    latencies: list = field(default_factory=list)  # seconds, successful operations only
    errors: list = field(default_factory=list)  # operations that failed otherwise
    digest: str = ""  # of every operation's output, timestamps removed, in a fixed order
    answers: list = field(default_factory=list)  # raw answers, kept only for the checks

    @property
    def failed(self):
        return self.refused + len(self.errors)


def digest(outputs):
    return hashlib.sha256("\n".join(outputs).encode()).hexdigest()


def call(invoke, name, argv):
    """(exit code, stdout, stderr, seconds) of one in-process CLI call.

    Garbage is collected first, untimed, so that every call starts from the
    same collector state, as a call in a fresh process would, whatever ran
    before it.
    """
    gc.collect()
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        start = time.perf_counter()
        try:
            code = invoke(name, argv)
        except Exception:  # a crash is reported as the operation's outcome
            code = None
            traceback.print_exc()
        seconds = time.perf_counter() - start
    return code, out.getvalue(), err.getvalue(), seconds


def _arg(s):
    return ",".join(map(str, s))


class Sweep:
    """`search` over every sequence with d = 4 and s_i <= 6, into a fresh store.

    `--random 1296` asks for the whole range, so `--seed` only sets the order
    in which the records are computed.  One operation is one record; its
    latency is the gap between its timestamp and the previous one.
    """

    D, SMAX = 4, 6

    def __init__(self, seed, outdir):
        self.seed = seed
        self.expected = list(product(range(1, self.SMAX + 1), repeat=self.D))
        self.store = outdir / f"sweep-{seed}.jsonl"

    def round(self, invoke, keep):
        self.store.unlink(missing_ok=True)
        argv = ["search", "--random", str(len(self.expected)), "--dmax", str(self.D),
                "--smax", str(self.SMAX), "--seed", str(self.seed), "--out", str(self.store)]
        began = time.time()
        code, stdout, stderr, seconds = call(invoke, "search", argv)
        text = ""
        if self.store.exists():
            text = self.store.read_text()
            self.store.unlink()
        records = [json.loads(line) for line in text.splitlines()]
        result = Round(elapsed=seconds, attempted=len(self.expected))
        if code != EXIT_OK:
            result.errors.append(f"search exited {code}: {stderr.strip()[-500:]}")
        stamps = sorted((datetime.fromisoformat(r["timestamp"]).timestamp(), "error" in r)
                        for r in records if "timestamp" in r)
        previous = began
        for stamp, refused in stamps:
            if refused:
                result.refused += 1
            else:
                result.latencies.append(stamp - previous)
            previous = stamp
        summary = json.loads(stdout) if code == EXIT_OK else {}
        summary.pop("out", None)
        bare = [{k: v for k, v in r.items() if k != "timestamp"} for r in records]
        result.digest = digest([json.dumps(summary, sort_keys=True)]
                               + sorted(json.dumps(r, sort_keys=True) for r in bare))
        if keep:
            result.answers = [text]
        return result

    def check(self, result):
        records = [json.loads(line) for line in result.answers[0].splitlines()]
        return checks.check_sweep_records(records, self.expected)


class CommandList:
    """A fixed list of CLI calls, run in a seed-chosen order each round."""

    def __init__(self, seed, ops):
        self.rng = random.Random(seed)
        self.ops = ops  # (name, argv, check, check arguments)

    def round(self, invoke, keep):
        result = Round(attempted=len(self.ops))
        outputs = [""] * len(self.ops)
        result.answers = [None] * len(self.ops)
        order = list(range(len(self.ops)))
        self.rng.shuffle(order)
        for n in order:
            name, argv, _, _ = self.ops[n]
            code, stdout, stderr, seconds = call(invoke, name, argv)
            result.elapsed += seconds
            outputs[n] = f"{code}\n{stdout}{stderr}"
            if code == EXIT_OK:
                result.latencies.append(seconds)
                if keep:
                    result.answers[n] = stdout
            elif code == EXIT_BUDGET:
                result.refused += 1
            else:
                result.errors.append(f"{' '.join(argv)} exited {code}: {stderr.strip()[-500:]}")
        result.digest = digest(outputs)
        return result

    def check(self, result):
        answers = [None if a is None else json.loads(a) for a in result.answers]
        problems = []
        for (_, _, check, extra), answer in zip(self.ops, answers):
            if answer is not None:
                problems += check(answer, answers, *extra)
        return problems


# --------------------------------------------------------------- crosscheck

# d = 5..7 and prod(s) from 720 to 262144; why each sequence is here:
CROSSCHECK_SEQUENCES = (
    (2, 3, 4, 5, 6),  # strictly increasing, reflexive (index 1); both routes run
    (2, 3, 4, 5, 6, 7),  # strictly increasing, reflexive; ehrhart refused (the budget fault)
    (7, 6, 5, 4, 3, 2),  # the same, reversed orientation
    (1, 2, 3, 4, 5, 6, 7),  # strictly increasing, index 2; the dilated confirmation dominates
    (7, 6, 5, 4, 3, 2, 1),  # the same, reversed orientation
    (1, 2, 4, 8, 16),  # strictly increasing, index 2; both routes run
    (2, 4, 8, 16, 32),  # strictly increasing, reflexive, prod(s) = 32768
    (2, 3, 5, 7, 11, 13),  # strictly increasing, Fano but not reflexive
    (3, 3, 4, 6, 8),  # constant then strict, reflexive; both routes run
    (8, 6, 4, 3, 3),  # the same, reversed orientation
    (3, 3, 5, 7, 9),  # constant then strict, Fano but not reflexive
    (8, 8, 8, 8, 8, 8),  # constant, prod(s) = 262144, the largest ascent enumeration
    (5, 5, 5, 5, 5, 5, 5),  # constant, d = 7
    (4, 4, 5, 5, 6),  # increment at most one, Fano but not reflexive; both routes run
    (6, 5, 5, 4, 4),  # the same, reversed orientation
    (2, 3, 3, 4, 5, 6),  # increment at most one, not Fano
    (3, 5, 2, 6, 4),  # general, reflexive with no class theorem; both routes run
    (5, 2, 7, 3, 6),  # general, two interior points; both routes run
    (6, 9, 4, 8, 5),  # general, d = 5
    (2, 5, 3, 7, 4, 6, 5),  # general, d = 7
)
# Gorenstein factors of index 1, 2 and 3 (their composites have index k + l)
GORENSTEIN_PAIRS = (((2, 3), (2,)), ((2, 3, 4), (3, 3, 4)), ((1, 2, 3), (2, 3)), ((3, 5, 2), (4, 2)))
IDP_PAIRS = (((2,), (2,)), ((2, 3), (3, 2)), ((1, 3), (2, 4)), ((2, 4), (3,)))


def _check_delta(answer, answers, s):
    return checks.check_delta(s, answer.get("delta", []))


def _check_ehrhart(answer, answers, s, delta_slot):
    ascent = answers[delta_slot]
    ascent_delta = ascent["delta"] if ascent else checks.delta_vector(s)
    return checks.check_ehrhart(s, answer, ascent_delta)


def _check_classify(answer, answers, s):
    return checks.check_classification(s, answer)


def _check_gorenstein(answer, answers, left, right):
    return checks.check_gorenstein_compose(left, right, answer)


def _check_idp(answer, answers, left, right):
    return checks.check_idp_compose(left, right, answer)


class Crosscheck(CommandList):
    """delta, ehrhart and classify on each sequence, plus free-sum compositions."""

    def __init__(self, seed, outdir):
        ops = []
        for s in CROSSCHECK_SEQUENCES:
            slot = len(ops)
            ops.append(("delta", ["delta", _arg(s)], _check_delta, (s,)))
            ops.append(("ehrhart", ["ehrhart", _arg(s)], _check_ehrhart, (s, slot)))
            ops.append(("classify", ["classify", _arg(s)], _check_classify, (s,)))
        for mode, pairs, check in (("gorenstein", GORENSTEIN_PAIRS, _check_gorenstein),
                                   ("idp", IDP_PAIRS, _check_idp)):
            for left, right in pairs:
                argv = ["compose", "--left", _arg(left), "--right", _arg(right), "--mode", mode]
                ops.append(("compose", argv, check, (left, right)))
        super().__init__(seed, ops)


# ------------------------------------------------------------------ certify

# Integer consecutive ratios, each in both directions (a palindrome once),
# at most 1024 cells; 17 operations, so the median falls on one of them.
# A reversed sequence is triangulated through the reversal map and costs
# the verifier more, so both directions are timed.
CERTIFY_SEQUENCES = (
    (1, 2, 4, 8, 16),
    (2, 4, 8, 16),
    (1, 3, 9, 27),
    (1, 4, 8, 32),
    (4, 8, 16),
    (1, 2, 2, 4, 8),
    (1, 1, 2, 4, 8),
    (2, 6, 12),
    (2, 2, 2, 2, 2),
)
CERTIFY_SAMPLES = 200


def _check_triangulation(answer, answers, s):
    return checks.check_triangulation(s, answer)


class Certify(CommandList):
    """`triangulate` with the program's sampled verification, both directions."""

    def __init__(self, seed, outdir):
        ops = []
        for forward in CERTIFY_SEQUENCES:
            for s in dict.fromkeys((forward, tuple(reversed(forward)))):
                argv = ["triangulate", _arg(s), "--verify-samples", str(CERTIFY_SAMPLES),
                        "--seed", str(seed)]
                ops.append(("triangulate", argv, _check_triangulation, (s,)))
        super().__init__(seed, ops)


WORKLOADS = {"sweep": Sweep, "crosscheck": Crosscheck, "certify": Certify}
