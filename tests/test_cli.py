import hashlib
import json
import multiprocessing
import os
import random
import re
import signal
import subprocess
import sys
import time
from itertools import product
from pathlib import Path

import pytest

import hallwalk
from hallwalk import DEFAULT_BUDGET
from hallwalk.cli import main, search_record
from hallwalk.errors import BudgetExceededError
from test_acceptance import ratio_sequences


def run(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def out_json(capsys, *argv):
    code, out, _ = run(capsys, *argv)
    assert code == 0, out
    return json.loads(out)


def strip_timestamps(path):
    lines = []
    for line in path.read_text().splitlines():
        record = json.loads(line)
        record.pop("timestamp", None)
        lines.append(json.dumps(record, sort_keys=True))
    return "\n".join(lines)


def test_delta_command(capsys):
    assert out_json(capsys, "delta", "2,3") == {"s": [2, 3], "delta": [1, 4, 1]}


def test_ehrhart_command(capsys):
    payload = out_json(capsys, "ehrhart", "2,3", "--tmax", "3")
    assert payload["counts"] == [1, 7, 19, 37]
    assert payload["polynomial"] == [[1, 1], [3, 1], [3, 1]]
    assert payload["delta"] == [1, 4, 1]


def test_classify_command(capsys):
    payload = out_json(capsys, "classify", "2,3,4")
    assert payload["fano_theorem"] is True
    assert payload["reflexive_theorem"] is True
    assert payload["gorenstein_index"] == 1
    assert payload["interior_point"] == [1, 2, 3]


def test_idp_command_non_monotone(capsys):
    payload = out_json(capsys, "idp", "7,3,5", "--idp-max-k", "3")
    assert payload["verdict"] is True
    assert payload["k_checked"] == 3


def test_idp_verdicts_keep_their_bytes(capsys):
    assert run(capsys, "idp", "2,3")[1] == '{"k_checked": 2, "s": [2, 3], "verdict": true, "witness": null}\n'
    assert run(capsys, "compose", "--left", "2,3", "--right", "2", "--mode", "idp")[1] == (
        '{"composite": [2, 3, 1, 2], "k_checked": 3, "left": [2, 3], "mode": "idp", "ok": true, '
        '"right": [2], "verdict": true, "witness": null}\n'
    )


def test_gorenstein_compositions_keep_their_bytes(capsys):
    assert run(capsys, "compose", "--left", "2,3", "--right", "2", "--mode", "gorenstein") == (
        0,
        '{"composite": [2, 3, 1, 2], "confirmed_index": 2, "delta_product_ok": true, "left": [2, 3], '
        '"mode": "gorenstein", "ok": true, "predicted_index": 2, "right": [2]}\n',
        "",
    )
    assert run(capsys, "compose", "--left", "1,1,1,1", "--right", "2", "--mode", "gorenstein") == (
        0,
        '{"composite": [1, 1, 1, 1, 1, 2], "confirmed_index": 6, "delta_product_ok": true, '
        '"left": [1, 1, 1, 1], "mode": "gorenstein", "ok": true, "predicted_index": 6, "right": [2]}\n',
        "",
    )


def test_decompose_keeps_its_bytes(capsys):
    assert run(capsys, "decompose", "2,1,2", "2", "1,1,3") == (
        0,
        '{"k": 2, "parts": [[0, 0, 1], [1, 1, 2]], "s": [2, 1, 2], "target": [1, 1, 3]}\n',
        "",
    )


def test_search_store_keeps_its_idp_fields(tmp_path, capsys):
    out = tmp_path / "store.jsonl"
    assert run(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(out))[0] == 0
    fields = [
        (json.loads(line)["s"], re.findall(r'"(?:idp_verdict|k_checked)": [^,]+', line))
        for line in out.read_text().splitlines()
    ]
    assert fields == [
        (s, ['"idp_verdict": true', '"k_checked": 2']) for s in ([1], [2], [1, 1], [1, 2], [2, 1], [2, 2])
    ]


def test_search_store_keeps_its_bytes(tmp_path, capsys):
    # every record of an exhaustive d <= 4, s_i <= 5 sweep, timestamps removed, and the summary
    out = tmp_path / "store.jsonl"
    code, stdout, _ = run(capsys, "search", "--dmax", "4", "--smax", "5", "--out", str(out))
    summary = json.loads(stdout)
    summary.pop("out")
    assert (code, summary) == (0, {"new_records": 780, "records": 780, "witnesses": 0})
    digest = hashlib.sha256(strip_timestamps(out).encode()).hexdigest()
    assert digest == "fac7c21b7bbe4375cafac59b3e1e62ca77b5f35a597f09dac66f40889059bdfe"


@pytest.mark.parametrize(
    "argvs, expected",
    [
        pytest.param(
            [["classify", ",".join(map(str, s))] for d in range(1, 5) for s in product(range(1, 5), repeat=d)],
            "ebce17351c301abf66708b0ce7eaac1382ec24e53ae4f0f907cb018c8760fa1d",
            id="classify-d4-s4",
        ),
        pytest.param(
            [
                ["ehrhart", ",".join(map(str, s)), "--tmax", str(d + 1)]
                for d in range(1, 4)
                for s in product(range(1, 4), repeat=d)
            ],
            "21c8156df4041a842619fc2bd6cab8a0c90f666aa088f282943dcfbed7a10478",
            id="ehrhart-d3-s3",
        ),
        pytest.param(
            [
                ["triangulate", ",".join(map(str, s))]
                for forward in ratio_sequences(4, 64)
                for s in dict.fromkeys((forward, forward[::-1]))
            ],
            "f1517bc325a3f930dbd59624b1c5bb16ed1725440fd210ed869d4a1d8be334e4",
            id="triangulate-d4-64",
        ),
    ],
)
def test_classify_and_ehrhart_keep_their_bytes(capsys, argvs, expected):
    # the stdout of every classify with d <= 4, s_i <= 4 (340 calls), of every
    # ehrhart --tmax d+1 with d <= 3, s_i <= 3 (39 calls), and of every triangulate
    # of an integer-ratio s with d <= 4, prod(s) <= 64, and of its reverse, which
    # is built reversed (688 calls), one after the other
    digest = hashlib.sha256()
    for argv in argvs:
        code, out, _ = run(capsys, *argv)
        assert code == 0, argv
        digest.update(out.encode())
    assert digest.hexdigest() == expected


def test_decompose_command(capsys):
    payload = out_json(capsys, "decompose", "1,2", "2", "1,3")
    assert payload["parts"] == [[0, 1], [1, 2]]
    payload = out_json(capsys, "decompose", "2,1,2", "2", "1,1,3")
    assert payload["parts"] == [[0, 0, 1], [1, 1, 2]]


def test_decompose_budget_charges_each_part(capsys, monkeypatch):
    # 3 parts of 2 coordinates, each part charged 6 steps more; time and memory grow linearly in k
    monkeypatch.setenv("HALLWALK_BUDGET", "24")
    assert out_json(capsys, "decompose", "1,2", "3", "1,3")["parts"] == [[0, 0], [0, 1], [1, 2]]
    monkeypatch.setenv("HALLWALK_BUDGET", "23")
    code, _, err = run(capsys, "decompose", "1,2", "3", "1,3")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"
    monkeypatch.delenv("HALLWALK_BUDGET")
    code, _, err = run_within(capsys, 1.0, "decompose", "1,2", "10000000", "0,0")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def test_decompose_refuses_a_budget_of_coordinates_quickly(capsys, monkeypatch):
    # 4,999,999 parts of 2 coordinates fit a budget of 10^7 coordinates, but at
    # about 7 us a part (1,000,000 parts took 7 s) that is over half a minute
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 1.0, "decompose", "1,2", "4999999", "0,0")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def test_triangulate_command(capsys):
    payload = out_json(capsys, "triangulate", "1,2", "--verify-samples", "60", "--seed", "4")
    assert payload["simplices"] == [[[0, 0], [1, 2], [0, 1]], [[0, 1], [1, 2], [0, 2]]]
    assert payload["verification"]["ok"] is True
    assert out_json(capsys, "triangulate", "1,2") == payload


def test_triangulate_budget_charges_each_cell(capsys, monkeypatch):
    # P^(2,4) has 2 * 4 = 8 cells of d + 1 = 3 vertices, each charged 2 * 3^2 = 18 steps
    monkeypatch.setenv("HALLWALK_BUDGET", "143")
    code, _, err = run(capsys, "triangulate", "2,4")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"
    monkeypatch.setenv("HALLWALK_BUDGET", "144")
    assert out_json(capsys, "triangulate", "2,4")["verification"]["ok"] is True


def test_triangulate_refuses_over_budget_quickly(capsys, monkeypatch):
    # 10^6 cells fit a budget of 10^7 cells, but at about 23 us a cell they take
    # over 20 s and most of a gigabyte
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 1.0, "triangulate", "10,100,1000")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def test_triangulate_help_hides_sampling_options(capsys):
    with pytest.raises(SystemExit):
        main(["triangulate", "--help"])
    help_text = capsys.readouterr().out
    assert "--verify-samples" not in help_text and "--seed" not in help_text


def test_compose_commands(capsys):
    payload = out_json(capsys, "compose", "--left", "2,3", "--right", "2", "--mode", "gorenstein")
    assert payload["composite"] == [2, 3, 1, 2]
    assert payload["predicted_index"] == 2
    assert payload["ok"] is True
    payload = out_json(capsys, "compose", "--left", "2", "--right", "2", "--mode", "idp")
    assert payload["composite"] == [2, 1, 2]
    assert payload["verdict"] is True


def test_compose_reports_a_failed_theorem_as_an_error(capsys, monkeypatch):
    # the composite (2, 3, 1, 2) alone gets index 3 instead of 1 + 1
    import hallwalk.freesum as freesum

    real = freesum.gorenstein_index
    monkeypatch.setattr(freesum, "gorenstein_index", lambda s, **kw: real(s, **kw) + (len(s) == 4))
    code, stdout, err = run(capsys, "compose", "--left", "2,3", "--right", "2", "--mode", "gorenstein")
    assert (code, stdout, json.loads(err)["error"]) == (1, "", "mathematical-inconsistency")


def test_delta_keeps_trailing_zeros(capsys):
    assert out_json(capsys, "delta", "2,1,2")["delta"] == [1, 2, 1, 0]


def test_usage_errors(capsys):
    code, _, err = run(capsys, "delta", "0,2")
    assert code == 2
    assert json.loads(err)["error"] == "usage"
    code, _, err = run(capsys, "nonsense")
    assert code == 2


def test_one_parser_serves_every_call_of_a_process(capsys, monkeypatch):
    # a parser that kept anything from a call would leak --idp-max-k 5 into the plain
    # `idp 2`, or the usage error's state into the calls after it
    import hallwalk.cli as cli

    calls = [("idp", "2", "--idp-max-k", "five"), ("idp", "2", "--idp-max-k", "5"), ("idp", "2")]
    assert cli._build_parser() is cli._build_parser()
    shared = [run(capsys, *argv) for argv in calls]
    monkeypatch.setattr(cli, "_build_parser", cli._build_parser.__wrapped__)
    fresh = [run(capsys, *argv) for argv in calls]
    assert shared == fresh
    assert [code for code, _, _ in shared] == [2, 0, 0]
    assert [json.loads(out)["k_checked"] for _, out, _ in shared[1:]] == [5, 2]


def test_inconsistency_exit_code(capsys, monkeypatch):
    # no real counterexample exists at desk scale; force the error path
    import hallwalk.cli as cli
    from hallwalk.errors import MathematicalInconsistencyError

    def boom(s, budget=None):
        raise MathematicalInconsistencyError("forced disagreement")

    monkeypatch.setattr(cli, "classify", boom)
    code, _, err = run(capsys, "classify", "2,3")
    assert code == 1
    assert json.loads(err)["error"] == "mathematical-inconsistency"


def test_budget_exit_code(capsys, monkeypatch):
    monkeypatch.setenv("HALLWALK_BUDGET", "10")
    code, _, err = run(capsys, "ehrhart", "4,4,4")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def run_within(capsys, seconds, *argv):
    """run() in a forked child, so a missing budget check fails after `seconds` instead of hanging.

    The child is stopped from outside: an exception raised from a signal
    handler can land in any frame, and pytest may then crash while
    formatting it instead of failing the one test.
    """
    context = multiprocessing.get_context("fork")
    receive, send = context.Pipe(duplex=False)
    child = context.Process(target=lambda: send.send(run(capsys, *argv)))
    child.start()
    send.close()
    with receive:
        child.join(seconds)
        if child.is_alive():
            child.terminate()
            child.join()
            pytest.fail(f"{argv[0]} ran for more than {seconds} s")
        assert child.exitcode == 0, f"{argv[0]} died with exit code {child.exitcode}"
        return receive.recv()


def test_delta_refuses_over_budget_quickly(capsys, monkeypatch):
    # 20^6 inversion sequences would take minutes
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 1.0, "delta", "20,20,20,20,20,20")
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def test_a_cost_too_long_to_print_is_still_a_refusal(capsys, monkeypatch):
    # 10^4400 inversion sequences: the cost has more digits than str(int) converts by default
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, out, err = run(capsys, "delta", ",".join(["10"] * 4400))
    assert (code, out) == (3, "")
    payload = json.loads(err)
    assert payload["error"] == "budget-exceeded"
    assert "more than 2^" in payload["message"]


def test_compose_refuses_over_budget_quickly(capsys, monkeypatch):
    # the composite's delta enumerates (2*3*4*5*6*7)^2 = 25,401,600 inversion sequences
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    side = "2,3,4,5,6,7"
    code, _, err = run_within(
        capsys, 1.0, "compose", "--left", side, "--right", side, "--mode", "gorenstein"
    )
    assert code == 3
    assert json.loads(err)["error"] == "budget-exceeded"


def test_idp_refuses_over_budget_before_it_allocates(capsys, monkeypatch):
    # below z_2 = 1 the transfer tests about 5 * 10^11 candidates y_1 over z_1 = 0..10^6;
    # a table of the 2,000,001 span lengths alone would take seconds to build
    monkeypatch.setenv("HALLWALK_BUDGET", "5000000")
    code, _, err = run_within(capsys, 1.0, "idp", "1000000,1")
    assert code == 3
    assert json.loads(err)["message"].startswith("the IDP transfer")


@pytest.mark.parametrize("s", ["1000000", "1,1000000"])
def test_idp_transfer_charges_the_width_of_its_masks(capsys, monkeypatch, s):
    # a test works on masks of up to 10^6 + 1 bits; charged one step each, the
    # 2,000,001 (d = 1) or 4,000,004 (d = 2) tests fit the default budget and run for minutes
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 1.0, "idp", s)
    assert code == 3
    assert json.loads(err)["message"].startswith("the IDP transfer")


@pytest.mark.parametrize("s", ["1,1000000", "1,10000"])
def test_idp_transfer_is_refused_near_its_budget(capsys, monkeypatch, s):
    # each state of z_2 adds its tests to the running total, so the refusal must
    # come at the first state past the budget, not after the whole level
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 1.0, "idp", s)
    assert code == 3
    message = json.loads(err)["message"]
    refusal = re.fullmatch(r"the IDP transfer .* takes (\d+) steps, over budget (\d+)", message)
    spent, budget = map(int, refusal.groups())
    assert budget == DEFAULT_BUDGET < spent < 2 * budget, message


def test_gorenstein_index_of_a_cheap_polytope_is_not_refused(capsys, monkeypatch):
    # the standard 8-simplex has 9 lattice points; confirming its index 9 by
    # the delta of its 9th dilate would enumerate 9^8 = 43,046,721 sequences
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, out, _ = run_within(capsys, 1.0, "classify", "1,1,1,1,1,1,1,1")
    assert code == 0
    assert json.loads(out)["gorenstein_index"] == 9
    side = "1,1,1,1"
    code, out, _ = run_within(
        capsys, 1.0, "compose", "--left", side, "--right", side, "--mode", "gorenstein"
    )
    assert code == 0
    payload = json.loads(out)
    assert (payload["confirmed_index"], payload["ok"]) == (10, True)


@pytest.mark.parametrize(
    "argv",
    [
        ("idp", "1000000"),
        ("idp", "1,1000000"),
        ("compose", "--left", "1000000", "--right", "1", "--mode", "idp"),
    ],
)
def test_point_listing_charges_its_count_first(capsys, monkeypatch, argv):
    # Counting is refused before its lists are allocated; at the default budget
    # an unguarded count of P^(10^9) would build a list of 10^9 cells first.
    monkeypatch.setenv("HALLWALK_BUDGET", "1000")
    code, _, err = run_within(capsys, 1.0, *argv)
    assert code == 3
    payload = json.loads(err)
    assert payload["error"] == "budget-exceeded"
    assert payload["message"].startswith("counting the points")


@pytest.mark.parametrize(
    "budget, argv, refusal",
    [
        (None, ("idp", "2", "--idp-max-k", "100000000"), "counting the points of 100000000*P"),
        ("100000", ("idp", "2", "--idp-max-k", "4000"), "the IDP transfer"),
        ("1000000", ("idp", "1,2", "--idp-max-k", "600"), "the IDP transfer"),
    ],
    ids=["largest-count", "d1-levels", "d2-levels"],
)
def test_idp_budget_covers_every_dilate_at_once(capsys, monkeypatch, budget, argv, refusal):
    # each dilate fits the budget alone; their sum, or the largest count, does not
    if budget is None:
        monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    else:
        monkeypatch.setenv("HALLWALK_BUDGET", budget)
    code, _, err = run_within(capsys, 1.0, *argv)
    assert code == 3
    assert json.loads(err)["message"].startswith(refusal)


@pytest.mark.parametrize("s, k", [((7,), 9), ((2, 3), 4), ((3, 1, 2), 3), ((2, 4, 3, 3), 3), ((1, 1, 1, 1), 5)])
def test_idp_charges_the_count_of_its_largest_dilate(s, k):
    # the prefix sums of `count(s, k)`: k*s_i + 1 cells per level, and per prefix array but the last
    cells = 2 * sum(k * v + 1 for v in s) - k * s[-1] - 1
    with pytest.raises(BudgetExceededError) as refused:
        hallwalk.is_idp(s, k_max=k, budget=cells - 1)
    assert str(refused.value) == f"counting the points of {k}*P^{s} takes {cells} steps, over budget {cells - 1}"
    try:
        assert hallwalk.is_idp(s, k_max=k, budget=cells) == k
    except BudgetExceededError as exc:
        assert str(exc).startswith("the IDP transfer"), exc


@pytest.mark.parametrize("s", ["8,7,6,5,4,3,2", "2,3,4,5,6,7,8"])
def test_idp_default_budget_admits_d_7(capsys, monkeypatch, s):
    # the walk over all targets made more tests than the budget at k = 6
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, out, _ = run_within(capsys, 1.0, "idp", s)
    assert code == 0
    assert json.loads(out)["k_checked"] == 6


def test_idp_default_budget_admits_a_cheap_sumset(capsys, monkeypatch):
    # a bounding box put this at 11,534,336 steps; its largest sumset has 796,068 sums
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, out, _ = run(capsys, "idp", "2,3,3,3,3,3")
    assert code == 0
    assert json.loads(out)["verdict"] is True


def test_ehrhart_refuses_a_negative_tmax(capsys):
    code, out, err = run(capsys, "ehrhart", "2,3", "--tmax", "-5")
    assert (code, out, json.loads(err)["error"]) == (2, "", "usage")
    # a tmax below d still gives the counts up to t = d
    assert out_json(capsys, "ehrhart", "2,3", "--tmax", "0")["counts"] == [1, 7, 19]


def test_ehrhart_refuses_a_budget_of_dilates_quickly(capsys, monkeypatch):
    # each of 10^8 dilates is cheap on its own, and together they would run for days
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    code, _, err = run_within(capsys, 3.0, "ehrhart", "2,3", "--tmax", "100000000")
    assert (code, json.loads(err)["error"]) == (3, "budget-exceeded")


def test_ehrhart_charges_every_dilate_up_front(capsys, monkeypatch):
    # the count of t*P^(2,3) fills 7t + 3 cells: 9,995,502 in all for t = 1..1689, 10,007,335 for t = 1..1690
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    assert len(out_json(capsys, "ehrhart", "2,3", "--tmax", "1689")["counts"]) == 1690
    code, out, err = run(capsys, "ehrhart", "2,3", "--tmax", "1690")
    assert (code, out) == (3, "")
    assert json.loads(err)["message"] == (
        "counting the points of t*P^(2, 3) for t = 1..1690 takes 10007335 steps, over budget 10000000"
    )


def test_ehrhart_default_budget_admits_a_cheap_count(capsys, monkeypatch):
    # a bounding box put the count of 5*P at 5001^5 steps; the prefix sums fill 9 * 5001 cells
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    payload = out_json(capsys, "ehrhart", "1000,1000,1000,1000,1000")
    assert sum(payload["delta"]) == 1000**5


def test_search_exhaustive_counts(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    payload = out_json(capsys, "search", "--dmax", "3", "--smax", "3", "--out", str(out))
    assert payload["records"] == 39  # 3 + 9 + 27
    assert payload["witnesses"] == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 39
    seqs = [tuple(json.loads(line)["s"]) for line in lines]
    assert seqs == sorted(seqs, key=lambda s: (len(s), s))


def test_search_resume_is_idempotent(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out_json(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(out))
    before = out.read_text()
    payload = out_json(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(out), "--resume")
    assert payload["new_records"] == 0
    assert out.read_text() == before


def test_search_resume_completes_partial_sweep(tmp_path, capsys):
    partial = tmp_path / "p.jsonl"
    full = tmp_path / "f.jsonl"
    out_json(capsys, "search", "--dmax", "1", "--smax", "2", "--out", str(partial))
    payload = out_json(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(partial), "--resume")
    assert payload["new_records"] == 4
    out_json(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(full))
    assert strip_timestamps(partial) == strip_timestamps(full)


def test_search_resume_recovers_from_a_torn_store(tmp_path, capsys):
    full = tmp_path / "full.jsonl"
    out_json(capsys, "search", "--dmax", "3", "--smax", "3", "--out", str(full))
    data = full.read_bytes()
    boundary = data.index(b"\n", len(data) // 2) + 1
    offsets = [0, 1, len(data) // 3, boundary - 1, boundary, boundary + 1, len(data) - 40, len(data) - 1]
    for offset in offsets:
        torn = tmp_path / f"torn-{offset}.jsonl"
        torn.write_bytes(data[:offset])
        payload = out_json(capsys, "search", "--dmax", "3", "--smax", "3", "--out", str(torn), "--resume")
        assert payload["records"] == 39, offset
        assert strip_timestamps(torn) == strip_timestamps(full), offset
    assert sorted(p.name for p in tmp_path.iterdir()) == sorted(
        ["full.jsonl"] + [f"torn-{offset}.jsonl" for offset in offsets]
    )


def test_search_resume_after_a_kill_matches_a_single_run(tmp_path, capsys):
    killed = tmp_path / "killed.jsonl"
    env = {**os.environ, "PYTHONPATH": str(Path(hallwalk.__file__).parents[1])}
    argv = ["search", "--dmax", "4", "--smax", "4", "--out"]
    child = subprocess.Popen([sys.executable, "-m", "hallwalk.cli", *argv, str(killed)], env=env,
                             stdout=subprocess.DEVNULL, stderr=subprocess.DEVNULL)
    try:
        while child.poll() is None and not (killed.exists() and b"\n" in killed.read_bytes()):
            time.sleep(0.001)
        child.send_signal(signal.SIGKILL)
    finally:
        child.wait(timeout=60)
    assert child.returncode == -signal.SIGKILL, "the sweep ended before it could be killed"
    assert 0 < len(killed.read_bytes().splitlines()) < 340
    out_json(capsys, *argv, str(killed), "--resume")
    full = tmp_path / "full.jsonl"
    out_json(capsys, *argv, str(full))
    assert strip_timestamps(killed) == strip_timestamps(full)


def test_a_fresh_search_keeps_no_bytes_of_an_old_store(tmp_path, capsys, monkeypatch):
    import hallwalk.cli as cli

    class Crash(Exception):
        pass

    def crash(out, text):
        raise Crash("the process died before the final rewrite")

    out = tmp_path / "r.jsonl"
    argv = ["search", "--dmax", "2", "--smax", "2", "--out", str(out)]
    out_json(capsys, *argv)
    old = out.read_bytes()
    out.write_bytes(old[: old.index(b"\n", len(old) // 2) - 5])  # an old store torn mid-line
    monkeypatch.setattr(cli, "_replace_store", crash)
    with pytest.raises(Crash):
        main(argv)
    # what the records wrote before the crash is all that is left, and it resumes
    assert [json.loads(line)["s"] for line in out.read_text().splitlines()] == [
        [1], [2], [1, 1], [1, 2], [2, 1], [2, 2]
    ]
    monkeypatch.undo()
    payload = out_json(capsys, *argv, "--resume")
    assert (payload["records"], payload["new_records"]) == (6, 0)


def test_search_resume_rejects_a_malformed_inner_line(tmp_path, capsys):
    out = tmp_path / "r.jsonl"
    out_json(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(out))
    lines = out.read_text().splitlines(keepends=True)
    lines[1] = lines[1][: len(lines[1]) // 2] + "\n"
    out.write_text("".join(lines))
    code, _, err = run(capsys, "search", "--dmax", "2", "--smax", "2", "--out", str(out), "--resume")
    assert code == 2
    assert json.loads(err)["error"] == "usage"


def test_search_counts_a_witness_it_writes_and_one_it_resumes(tmp_path, capsys, monkeypatch):
    import hallwalk.cli as cli
    from hallwalk.errors import MathematicalInconsistencyError

    classify = cli.classify

    def disagrees_on_2_1(s, budget=None, _delta=None):
        if tuple(s) == (2, 1):
            raise MathematicalInconsistencyError("forced disagreement")
        return classify(s, budget=budget, _delta=_delta)

    out = tmp_path / "r.jsonl"
    argv = ["search", "--dmax", "2", "--smax", "2", "--out", str(out)]
    monkeypatch.setattr(cli, "classify", disagrees_on_2_1)
    code, stdout, _ = run(capsys, *argv)
    assert (code, json.loads(stdout)["witnesses"]) == (1, 1)
    witnessed = [json.loads(line)["s"] for line in out.read_text().splitlines() if "witness" in json.loads(line)]
    assert witnessed == [[2, 1]]
    # the resumed run computes nothing, so only the stored record can carry the witness
    monkeypatch.setattr(cli, "classify", classify)
    code, stdout, _ = run(capsys, *argv, "--resume")
    assert code == 1
    assert json.loads(stdout) == {"out": str(out), "records": 6, "new_records": 0, "witnesses": 1}


@pytest.mark.parametrize(
    "ranges",
    [
        ("--dmax", "0", "--smax", "2"),
        ("--dmax", "2", "--smax", "0"),
        ("--dmax", "2", "--smax", "2", "--random", "-3"),
        ("--dmax", "2", "--smax", "2", "--random", "0"),
        ("--dmax", "2", "--smax", "2", "--random", "5"),
        ("--dmax", "2", "--smax", "2", "--idp-max-k", "1"),
    ],
)
def test_search_rejects_bad_ranges_before_it_opens_the_store(tmp_path, capsys, ranges):
    out = tmp_path / "r.jsonl"
    code, stdout, err = run(capsys, "search", *ranges, "--out", str(out))
    assert (code, stdout, json.loads(err)["error"]) == (2, "", "usage")
    assert list(tmp_path.iterdir()) == []


def test_search_random_mode_is_seeded(tmp_path, capsys):
    a = tmp_path / "a.jsonl"
    b = tmp_path / "b.jsonl"
    payload = out_json(
        capsys, "search", "--random", "50", "--dmax", "4", "--smax", "6", "--seed", "7", "--out", str(a)
    )
    assert payload["records"] == 50
    out_json(
        capsys, "search", "--random", "50", "--dmax", "4", "--smax", "6", "--seed", "7", "--out", str(b)
    )
    assert strip_timestamps(a) == strip_timestamps(b)
    for line in a.read_text().splitlines():
        assert len(json.loads(line)["s"]) == 4


def test_search_random_is_charged_before_it_draws(tmp_path):
    # 10^9 draws of 9 entries are refused at once; building them dies of memory, so the
    # child gets about 512 MB of address space and a failing run stops there
    out = tmp_path / "r.jsonl"
    limit = "import resource; resource.setrlimit(resource.RLIMIT_AS, (512 << 20, 512 << 20))"
    argv = ["search", "--random", "1000000000", "--dmax", "9", "--smax", "10", "--out", str(out)]
    child = subprocess.run(
        [sys.executable, "-c", f"{limit}; import sys; from hallwalk.cli import main; sys.exit(main({argv!r}))"],
        env={**os.environ, "PYTHONPATH": str(Path(hallwalk.__file__).parents[1])},
        capture_output=True, text=True, timeout=60,
    )
    assert (child.returncode, child.stdout) == (3, ""), child.stderr[-500:]
    assert json.loads(child.stderr)["error"] == "budget-exceeded"
    assert list(tmp_path.iterdir()) == []


def rejection_sampled(dmax, smax, count, seed):
    """The draws `search --random` makes below the size of the range: the oracle for its order."""
    rng = random.Random(seed)
    seen = []
    while len(seen) < count:
        s = tuple(rng.randint(1, smax) for _ in range(dmax))
        if s not in seen:
            seen.append(s)
    return seen


def test_search_random_subset_keeps_its_draws():
    from hallwalk.cli import _sweep_sequences

    assert list(_sweep_sequences(4, 6, 50, 7)) == rejection_sampled(4, 6, 50, 7)
    assert list(_sweep_sequences(2, 4, 15, 3)) == rejection_sampled(2, 4, 15, 3)
    whole = list(_sweep_sequences(2, 4, 16, 3))
    assert sorted(whole) == list(product(range(1, 5), repeat=2))


def test_search_random_full_range_stores_the_top_dimension(tmp_path, capsys):
    everything = tmp_path / "all.jsonl"
    shuffled = tmp_path / "random.jsonl"
    out_json(capsys, "search", "--dmax", "3", "--smax", "3", "--out", str(everything))
    payload = out_json(capsys, "search", "--random", "27", "--dmax", "3", "--smax", "3",
                       "--seed", "5", "--out", str(shuffled))
    assert payload["records"] == 27
    top = [line for line in strip_timestamps(everything).splitlines() if len(json.loads(line)["s"]) == 3]
    assert strip_timestamps(shuffled) == "\n".join(top)


@pytest.mark.parametrize("budget", [DEFAULT_BUDGET, 300])
def test_search_record_is_the_same_with_shared_levels(budget):
    seqs = [s for d in range(1, 5) for s in product(range(1, 5), repeat=d)]
    random.Random(2).shuffle(seqs)
    levels = {}
    refused = 0
    for s in seqs:
        plain = search_record(s, budget=budget)
        shared = search_record(s, budget=budget, _levels=levels)
        plain.pop("timestamp")
        shared.pop("timestamp")
        assert shared == plain, s
        refused += "IDP transfer" in plain.get("detail", "")
    assert len(levels) > 1
    assert refused > 10 if budget == 300 else refused == 0


def test_search_keeps_no_levels_between_runs(tmp_path, capsys, masks_calls):
    # a cache that outlived one run would save the second run's _masks calls
    counts = []
    for name in ("a.jsonl", "b.jsonl"):
        masks_calls.clear()
        out_json(capsys, "search", "--dmax", "4", "--smax", "3", "--out", str(tmp_path / name))
        counts.append(len(masks_calls))
    assert counts[0] == counts[1] > 0


def test_search_solves_each_transfer_state_once(tmp_path, capsys, masks_calls, monkeypatch):
    # the masks a state (z_{i+1}, mask) of level i hands down depend only on (s_i, s_{i+1}, k),
    # which its windows fix, and on the state itself
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    out_json(capsys, "search", "--dmax", "4", "--smax", "4", "--out", str(tmp_path / "store.jsonl"))
    states = {(tuple(map(tuple, windows)), z_up, reach_up) for windows, z_up, reach_up, _ in masks_calls}
    assert len(masks_calls) == len(states) > 0
    masks_calls.clear()
    for d in range(1, 5):
        for s in product(range(1, 5), repeat=d):
            hallwalk.is_idp(s)
    assert len(masks_calls) > 5 * len(states)


def test_search_record_fields():
    record = search_record((2, 3))
    assert record["delta"] == [1, 4, 1]
    assert record["idp_verdict"] is True
    assert record["classification"]["gorenstein_index"] == 1
    assert "timestamp" in record and "version" in record
    assert "witness" not in record


def test_search_record_computes_delta_once(delta_calls):
    # the Gorenstein index is read off the facets, so no dilate is enumerated
    for s in [(2, 3), (1, 2, 3, 4), (3, 1, 2)]:
        delta_calls.clear()
        search_record(s)
        assert delta_calls == [s]


def test_search_record_keeps_delta_when_classify_is_refused(monkeypatch):
    import hallwalk.cli as cli

    def refuse(s, budget=None, _delta=None):
        raise BudgetExceededError("forced refusal")

    monkeypatch.setattr(cli, "classify", refuse)
    record = search_record((1, 2, 3, 4, 5, 6, 7), budget=10_000)
    assert record["delta"] == [1, 120, 1191, 2416, 1191, 120, 1, 0]
    assert record["error"] == "budget-exceeded"
    assert "classification" not in record


def test_search_stores_a_refusal_whose_cost_is_too_long_to_print(tmp_path, capsys, monkeypatch):
    monkeypatch.delenv("HALLWALK_BUDGET", raising=False)
    out = tmp_path / "huge.jsonl"
    payload = out_json(capsys, "search", "--dmax", "10000", "--smax", "10", "--random", "1", "--seed", "0",
                       "--out", str(out))
    assert (payload["records"], payload["witnesses"]) == (1, 0)
    [record] = [json.loads(line) for line in out.read_text().splitlines()]
    assert len(record["s"]) == 10000
    assert record["error"] == "budget-exceeded"
    assert "more than 2^" in record["detail"]


def test_search_record_budget_is_per_sequence():
    record = search_record((9, 9, 9, 9, 9), budget=100)
    assert record["error"] == "budget-exceeded"
