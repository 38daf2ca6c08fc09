"""Command line interface and the JSONL sweep store.

Exit codes: 0 success, 1 mathematical inconsistency or counterexample
witness, 2 usage error, 3 budget exceeded.  All errors are also emitted as
one JSON object on standard error.  The environment variable
HALLWALK_BUDGET overrides the default work budget.
"""

import argparse
import json
import os
import random
import sys
from datetime import datetime, timezone
from functools import cache
from itertools import chain, product
from math import prod
from pathlib import Path

from . import __version__
from .classify import classify
from .delta import delta_vector
from .ehrhart import ehrhart_data
from .errors import (
    BudgetExceededError,
    HallwalkError,
    InconsistentCountsError,
    MathematicalInconsistencyError,
    UsageError,
)
from .freesum import gorenstein_compose, idp_compose
from .idp import decompose, is_idp
from .polytope import DEFAULT_BUDGET, check_budget, parse_s
from .triangulate import chimney_triangulation, verify_triangulation

EXIT_OK = 0
EXIT_INCONSISTENT = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3


class _Parser(argparse.ArgumentParser):
    def error(self, message):
        raise UsageError(message)


def _budget() -> int:
    return int(os.environ.get("HALLWALK_BUDGET", DEFAULT_BUDGET))


def _emit(payload: dict) -> None:
    print(json.dumps(payload, sort_keys=True))


def _emit_error(kind: str, message: str) -> None:
    print(json.dumps({"error": kind, "message": message}, sort_keys=True), file=sys.stderr)


def _cmd_delta(args) -> int:
    s = parse_s(args.s)
    _emit({"s": list(s), "delta": list(delta_vector(s, budget=_budget()))})
    return EXIT_OK


def _cmd_ehrhart(args) -> int:
    s = parse_s(args.s)
    _emit(ehrhart_data(s, tmax=args.tmax, budget=_budget()))
    return EXIT_OK


def _cmd_classify(args) -> int:
    s = parse_s(args.s)
    _emit(classify(s, budget=_budget()))
    return EXIT_OK


def _idp_verdict(k_checked: int) -> dict:
    """The fields of an IDP check that returned; `is_idp` raises on a witness, so the verdict is always true."""
    return {"verdict": True, "k_checked": k_checked, "witness": None}


def _cmd_idp(args) -> int:
    s = parse_s(args.s)
    _emit({"s": list(s), **_idp_verdict(is_idp(s, k_max=args.idp_max_k, budget=_budget()))})
    return EXIT_OK


def _cmd_decompose(args) -> int:
    s = parse_s(args.s)
    point = tuple(int(v) for v in args.x.split(","))
    # a part costs about as much time as 6 of its coordinates (README, cost table)
    check_budget(args.k * (len(s) + 6), _budget(), f"writing a point of {args.k}*P^{s} as {args.k} parts")
    _emit({"s": s, "k": args.k, "target": point, "parts": decompose(s, args.k, point)})
    return EXIT_OK


def _cmd_triangulate(args) -> int:
    s = parse_s(args.s)
    # a cell of d + 1 vertices takes about as long as 1.5 (d + 1)^2 inversion sequences (README, cost table)
    check_budget(2 * (len(s) + 1) ** 2 * prod(s), _budget(), f"triangulating P^{s}")
    tri = chimney_triangulation(s)
    report = verify_triangulation(s, tri)
    _emit({**tri.to_json(), "verification": report.to_json()})
    return EXIT_OK if report.ok else EXIT_INCONSISTENT


def _cmd_compose(args) -> int:
    left = parse_s(args.left)
    right = parse_s(args.right)
    header = {"left": list(left), "right": list(right), "mode": args.mode}
    # both compositions raise if their theorem fails, so what they return is proved
    if args.mode == "gorenstein":
        composite, index = gorenstein_compose(left, right, budget=_budget())
        proved = {"predicted_index": index, "confirmed_index": index, "delta_product_ok": True}
    else:
        composite, k_checked = idp_compose(left, right, budget=_budget())
        proved = _idp_verdict(k_checked)
    _emit({**header, "composite": list(composite), **proved, "ok": True})
    return EXIT_OK


def search_record(s, budget=None, k_max=None, _levels=None) -> dict:
    """One sweep record: delta, classification, IDP verdict, witnesses.

    `_levels` is the IDP transfer's memo, shared by the records of one run.
    """
    record: dict = {"s": list(s), "version": __version__}
    try:
        dv = delta_vector(s, budget=budget)
        record["delta"] = list(dv)
        record["classification"] = classify(s, budget=budget, _delta=dv)
        record["k_checked"] = is_idp(s, k_max=k_max, budget=budget, _levels=_levels)
        record["idp_verdict"] = True  # `is_idp` raises on a witness
    except MathematicalInconsistencyError as exc:
        record["witness"] = {"kind": "theorem-oracle-disagreement", "detail": str(exc)}
    except BudgetExceededError as exc:
        record["error"] = "budget-exceeded"
        record["detail"] = str(exc)
    record["timestamp"] = datetime.now(timezone.utc).isoformat()
    return record


def _sweep_sequences(dmax: int, smax: int, count: int | None, seed: int | None):
    """The sequences a search visits, in order; bad ranges are refused here, before any store is opened."""
    if dmax < 1 or smax < 1:
        raise UsageError("--dmax and --smax must be >= 1")
    if count is None:
        return chain.from_iterable(product(range(1, smax + 1), repeat=d) for d in range(1, dmax + 1))
    if count < 1:
        raise UsageError("--random must be >= 1")
    if count > smax**dmax:
        raise UsageError(
            f"--random {count} asks for more distinct sequences than the {smax}^{dmax} available"
        )
    rng = random.Random(seed)
    if count == smax**dmax:
        # the whole range, so the seed only sets the order: one shuffle, no rejected draws
        everything = list(product(range(1, smax + 1), repeat=dmax))
        rng.shuffle(everything)
        return everything
    # smaller subsets keep these draws, so seeded runs and resumed stores do not change
    seen: dict[tuple, None] = {}
    while len(seen) < count:
        seen.setdefault(tuple(rng.randint(1, smax) for _ in range(dmax)))
    return list(seen)


def _is_whole_record(line: bytes) -> bool:
    if not line.endswith(b"\n"):
        return False
    try:
        json.loads(line)["s"]
    except (ValueError, KeyError, TypeError):
        return False
    return True


def _read_store(out: Path) -> tuple[dict[tuple, str], int]:
    """Records of an existing store by sequence, and how many of them are witnesses.

    A crash can tear the final line; it is cut from the file so that its
    record is computed again.  A malformed line anywhere else is an error.
    """
    data = out.read_bytes()
    lines = data.splitlines(keepends=True)
    if lines and not _is_whole_record(lines[-1]):
        data = data[: len(data) - len(lines[-1])]
        with out.open("r+b") as store:
            store.truncate(len(data))
    existing: dict[tuple, str] = {}
    is_witness: dict[tuple, bool] = {}
    for line in data.decode().splitlines():
        if line.strip():
            record = json.loads(line)
            s = tuple(record["s"])
            existing[s] = line
            is_witness[s] = "witness" in record
    return existing, sum(is_witness.values())


def _replace_store(out: Path, text: str) -> None:
    """Swap in the new store contents atomically, so a crash keeps the old or the new."""
    temp = out.with_name(out.name + ".tmp")
    with temp.open("w") as sink:
        sink.write(text)
        sink.flush()
        os.fsync(sink.fileno())
    os.replace(temp, out)


def _cmd_search(args) -> int:
    out = Path(args.out)
    sequences = _sweep_sequences(args.dmax, args.smax, args.random, args.seed)
    if args.idp_max_k is not None and args.idp_max_k < 2:
        # `is_idp` refuses it too, but only at the first record, after the store is opened
        raise UsageError(f"--idp-max-k must be >= 2, got {args.idp_max_k}")
    existing, witnesses = _read_store(out) if args.resume and out.exists() else ({}, 0)
    budget = _budget()
    levels: dict = {}  # the IDP transfer's levels, shared by this run's records only
    lines: dict[tuple, str] = dict(existing)
    new = 0
    with out.open("a") as sink:
        for s in sequences:
            if s in existing:
                continue
            record = search_record(s, budget=budget, k_max=args.idp_max_k, _levels=levels)
            line = json.dumps(record, sort_keys=True)
            sink.write(line + "\n")
            sink.flush()
            lines[s] = line
            new += 1
            witnesses += "witness" in record
    ordered = sorted(lines, key=lambda s: (len(s), s))
    _replace_store(out, "".join(lines[s] + "\n" for s in ordered))
    _emit(
        {
            "out": str(out),
            "records": len(lines),
            "new_records": new,
            "witnesses": witnesses,
        }
    )
    return EXIT_INCONSISTENT if witnesses else EXIT_OK


@cache
def _build_parser() -> _Parser:
    """The parser, built by the first `main` of a process; it holds only static configuration."""
    parser = _Parser(prog="hallwalk", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("delta", help="delta-vector via ascent enumeration")
    p.add_argument("s")
    p.set_defaults(func=_cmd_delta)

    p = sub.add_parser("ehrhart", help="dilate counts, polynomial, delta (oracle route)")
    p.add_argument("s")
    p.add_argument("--tmax", type=int, default=None)
    p.set_defaults(func=_cmd_ehrhart)

    p = sub.add_parser("classify", help="Fano/reflexive/Gorenstein classification")
    p.add_argument("s")
    p.set_defaults(func=_cmd_classify)

    p = sub.add_parser("idp", help="integer decomposition property check")
    p.add_argument("s")
    p.add_argument("--idp-max-k", type=int, default=None)
    p.set_defaults(func=_cmd_idp)

    p = sub.add_parser("decompose", help="split a point of k*P into its k layers")
    p.add_argument("s")
    p.add_argument("k", type=int)
    p.add_argument("x")
    p.set_defaults(func=_cmd_decompose)

    p = sub.add_parser("triangulate", help="unimodular chimney triangulation")
    p.add_argument("s")
    # the certificate is exact; these sampling options are still accepted for old callers
    p.add_argument("--verify-samples", type=int, default=100, help=argparse.SUPPRESS)
    p.add_argument("--seed", type=int, default=0, help=argparse.SUPPRESS)
    p.set_defaults(func=_cmd_triangulate)

    p = sub.add_parser("compose", help="free-sum composition of two sequences")
    p.add_argument("--left", required=True)
    p.add_argument("--right", required=True)
    p.add_argument("--mode", choices=("gorenstein", "idp"), required=True)
    p.set_defaults(func=_cmd_compose)

    p = sub.add_parser("search", help="sweep sequences into a JSONL evidence store")
    p.add_argument("--dmax", type=int, required=True)
    p.add_argument("--smax", type=int, required=True)
    p.add_argument("--random", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--out", required=True)
    p.add_argument("--resume", action="store_true")
    p.add_argument("--idp-max-k", type=int, default=None)
    p.set_defaults(func=_cmd_search)

    return parser


def main(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except UsageError as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        _emit_error("budget-exceeded", str(exc))
        return EXIT_BUDGET
    except (MathematicalInconsistencyError, InconsistentCountsError) as exc:
        _emit_error("mathematical-inconsistency", str(exc))
        return EXIT_INCONSISTENT
    except (HallwalkError, ValueError) as exc:
        _emit_error("usage", str(exc))
        return EXIT_USAGE
    except OSError as exc:
        _emit_error("io", str(exc))
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
