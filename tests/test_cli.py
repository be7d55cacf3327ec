"""CLI commands, exit codes, report stability, fault injection."""

import json

import pytest

import util
import ringlab.classify
import ringlab.cli
import ringlab.sweep
from ringlab import __version__, ideal_generated
from ringlab.cli import EXIT_CAP, EXIT_DISAGREEMENT, EXIT_OK, EXIT_USAGE, main
from ringlab.sweep import SweepConfig, group_catalog, ring_catalog, run_sweep


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_classify_z3z3(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z3 x Z3", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdicts"]["weakly_nil_clean"]["value"] is False
    assert payload["verdicts"]["weakly_nil_neat"]["value"] is True


def test_classify_group_ring_notes_isomorphism(capsys):
    code, out, _ = run_cli(capsys, "classify", "GR(Z3, C2)", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["verdicts"]["weakly_nil_clean"]["value"] is False
    assert payload["verdicts"]["weakly_nil_neat"]["value"] is True
    assert payload["group_ring"]["theorem_condition"] == 4
    assert payload["group_ring"]["note"] == "isomorphic to Z3 x Z3"


def test_classify_z2_all_true(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z2", "--json")
    payload = json.loads(out)
    assert code == EXIT_OK
    assert all(v["value"] for v in payload["verdicts"].values())


def test_classify_text_output(capsys):
    code, out, _ = run_cli(capsys, "classify", "Z6")
    assert code == EXIT_OK
    assert "ring: Z6" in out
    assert "weakly_nil_clean" in out


def test_classify_above_cap_uses_criterion(capsys):
    # above --ideal-cap the criterion is still checked against the definitional deciders
    code, out, _ = run_cli(capsys, "--ideal-cap", "8", "classify", "Z12", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert "note" not in payload
    assert all(v["method"] == "both" for v in payload["verdicts"].values())


def test_classify_brute_above_cap_is_cap_error(capsys):
    # --ideal-cap no longer bounds the definitional deciders; the order cap does
    code, out, _ = run_cli(capsys, "--ideal-cap", "8", "classify", "Z12", "--json")
    assert code == EXIT_OK
    assert "note" not in json.loads(out)
    code, _, err = run_cli(capsys, "--order-cap", "8", "classify", "Z12")
    assert code == EXIT_CAP
    assert "cap" in err


def test_classify_method_flag_is_usage_error(capsys):
    code, _, err = run_cli(capsys, "classify", "Z6", "--method", "brute")
    assert code == EXIT_USAGE
    assert err.startswith("usage error: ")


def test_classify_out_of_memory_is_cap_error(capsys, monkeypatch):
    def exhausted(*args, **kwargs):
        raise MemoryError("Unable to allocate 16.0 GiB")

    monkeypatch.setattr(ringlab.cli, "evaluate_group_ring", exhausted)
    code, _, err = run_cli(capsys, "--order-cap", "100000", "classify", "GR(Z2, C16)")
    assert code == EXIT_CAP
    assert err.startswith("cap exceeded: out of memory") and "Traceback" not in err


# The complete classify output, text and --json, pinned byte for byte.
CLASSIFY_STDOUT = {
    ("Z9 x Z3",): """\
ring: Z9 x Z3  (order 27)
  nil_clean:         False [both]  witness: 2
  weakly_nil_clean:  False [both]  witness: 5
  nil_neat:          False [both]  witness: [0, 1, 2]
  weakly_nil_neat:   False [both]  witness: [0, 9, 18]
""",
    ("Z9 x Z3", "--json"): (
        '{"order": 27, "ring": "Z9 x Z3", "verdicts": {'
        '"nil_clean": {"method": "both", "value": false, "witness": 2}, '
        '"nil_neat": {"method": "both", "value": false, "witness": [0, 1, 2]}, '
        '"weakly_nil_clean": {"method": "both", "value": false, "witness": 5}, '
        '"weakly_nil_neat": {"method": "both", "value": false, "witness": [0, 9, 18]}}}\n'
    ),
    ("GR(Z3, C2)",): """\
ring: GR(Z3, C2)  (order 9)
  nil_clean:         False [both]  witness: 2
  weakly_nil_clean:  False [both]  witness: 3
  nil_neat:          False [both]  witness: [0, 4, 8]
  weakly_nil_neat:   True  [both]
  group-ring predicates: weakly_nil_neat=True (condition 4), weakly_nil_clean=False (condition None), \
nil_neat=False, nil_clean=False
  note: isomorphic to Z3 x Z3
""",
    ("GR(Z3, C2)", "--json"): (
        '{"group_ring": {"lemma_condition": null, "lemma_predicate": false, '
        '"nil_clean_predicate": false, "nil_neat_predicate": false, '
        '"note": "isomorphic to Z3 x Z3", "theorem_condition": 4, "theorem_predicate": true}, '
        '"order": 9, "ring": "GR(Z3, C2)", "verdicts": {'
        '"nil_clean": {"method": "both", "value": false, "witness": 2}, '
        '"nil_neat": {"method": "both", "value": false, "witness": [0, 4, 8]}, '
        '"weakly_nil_clean": {"method": "both", "value": false, "witness": 3}, '
        '"weakly_nil_neat": {"method": "both", "value": true, "witness": null}}}\n'
    ),
}


@pytest.mark.parametrize("args", list(CLASSIFY_STDOUT), ids=" ".join)
def test_classify_stdout_is_pinned(capsys, args):
    code, out, _ = run_cli(capsys, "classify", *args)
    assert code == EXIT_OK
    assert out == CLASSIFY_STDOUT[args]


# The complete radical --json output, pinned byte for byte.  J = N is the
# maximal ideal of the local ring Z9[C3], so one member list appears three times.
_Z9_C3_RADICAL = (
    "[0, 3, 6, 11, 14, 17, 19, 22, 25, 27, 30, 33, 38, 41, 44, 46, 49, 52, 54, 57, 60, 65, 68, "
    "71, 73, 76, 79, 83, 86, 89, 91, 94, 97, 99, 102, 105, 110, 113, 116, 118, 121, 124, 126, "
    "129, 132, 137, 140, 143, 145, 148, 151, 153, 156, 159, 163, 166, 169, 171, 174, 177, 182, "
    "185, 188, 190, 193, 196, 198, 201, 204, 209, 212, 215, 217, 220, 223, 225, 228, 231, 236, "
    "239, 242, 243, 246, 249, 254, 257, 260, 262, 265, 268, 270, 273, 276, 281, 284, 287, 289, "
    "292, 295, 297, 300, 303, 308, 311, 314, 316, 319, 322, 326, 329, 332, 334, 337, 340, 342, "
    "345, 348, 353, 356, 359, 361, 364, 367, 369, 372, 375, 380, 383, 386, 388, 391, 394, 396, "
    "399, 402, 406, 409, 412, 414, 417, 420, 425, 428, 431, 433, 436, 439, 441, 444, 447, 452, "
    "455, 458, 460, 463, 466, 468, 471, 474, 479, 482, 485, 486, 489, 492, 497, 500, 503, 505, "
    "508, 511, 513, 516, 519, 524, 527, 530, 532, 535, 538, 540, 543, 546, 551, 554, 557, 559, "
    "562, 565, 569, 572, 575, 577, 580, 583, 585, 588, 591, 596, 599, 602, 604, 607, 610, 612, "
    "615, 618, 623, 626, 629, 631, 634, 637, 639, 642, 645, 649, 652, 655, 657, 660, 663, 668, "
    "671, 674, 676, 679, 682, 684, 687, 690, 695, 698, 701, 703, 706, 709, 711, 714, 717, 722, "
    "725, 728]"
)
RADICAL_STDOUT = {
    "GR(Z9, C3)": (
        '{"jacobson": {"members": ' + _Z9_C3_RADICAL + ', "size": 243}, '
        '"karpilovsky": {"matches_jacobson": true, "members": ' + _Z9_C3_RADICAL + ', "size": 243}, '
        '"nilradical": {"members": ' + _Z9_C3_RADICAL + ', "size": 243}, "order": 729, "ring": "GR(Z9, C3)"}\n'
    ),
    "GR(Z2 x Z3, C4)": (
        '{"jacobson": {"members": [0, 21, 111, 126, 651, 666, 756, 777], "size": 8}, '
        '"karpilovsky": {"matches_jacobson": true, "members": [0, 21, 111, 126, 651, 666, 756, 777], "size": 8}, '
        '"nilradical": {"members": [0, 21, 111, 126, 651, 666, 756, 777], "size": 8}, '
        '"order": 1296, "ring": "GR(Z2 x Z3, C4)"}\n'
    ),
}


@pytest.mark.parametrize("expr", list(RADICAL_STDOUT))
def test_radical_json_stdout_is_pinned(capsys, expr):
    code, out, _ = run_cli(capsys, "radical", expr, "--json")
    assert code == EXIT_OK
    assert out == RADICAL_STDOUT[expr]


def test_ideal_cap_bounds_only_the_ideals_command(capsys):
    code, _, err = run_cli(capsys, "--ideal-cap", "8", "ideals", "Z12")
    assert code == EXIT_CAP
    assert "cap" in err


@pytest.mark.parametrize("expr, nil_clean, nil_neat", [("GR(Z2, C4)", True, True), ("GR(Z3, C2)", False, False)])
def test_classify_group_ring_prints_nil_predicates(capsys, expr, nil_clean, nil_neat):
    code, out, _ = run_cli(capsys, "classify", expr, "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    info = payload["group_ring"]
    assert (info["nil_clean_predicate"], info["nil_neat_predicate"]) == (nil_clean, nil_neat)
    assert payload["verdicts"]["nil_clean"]["value"] is nil_clean
    assert payload["verdicts"]["nil_neat"]["value"] is nil_neat
    code, out, _ = run_cli(capsys, "classify", expr)
    assert code == EXIT_OK
    assert f"nil_neat={nil_neat}, nil_clean={nil_clean}" in out


def test_classify_parse_error_is_usage(capsys):
    code, _, err = run_cli(capsys, "classify", "Z3 +")
    assert code == EXIT_USAGE
    assert "syntax error" in err


@pytest.mark.parametrize(
    "expr",
    ["GR(" * 330 + "Z2" + ", 1)" * 330, " x ".join(["Z2"] * 1500), "Z4" + "/(0)" * 1500],
    ids=["nested-group-rings", "long-product", "long-quotient-chain"],
)
def test_classify_too_deep_expression_is_usage_error(expr):
    done = util.run_python("-c", "from ringlab.cli import run; run()", "classify", expr, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("usage error: ") and "Traceback" not in done.stderr


@pytest.mark.parametrize("command", ["classify", "radical", "ideals"])
def test_generator_beyond_int64_is_an_error_not_a_traceback(command):
    done = util.run_python(
        "-c", "from ringlab.cli import run; run()", command, "Z4/(99999999999999999999)", timeout=60
    )
    assert done.returncode == EXIT_USAGE == 1
    assert done.stderr == "error: generator 99999999999999999999 is not an element index of Z4 (order 4)\n"


def test_radical_and_classify_name_a_quotient_alike(capsys):
    # (6, 4) and (2) generate the same ideal of Z12
    names = []
    for command in ("classify", "radical"):
        code, out, _ = run_cli(capsys, command, "Z12/(6,4)", "--json")
        assert code == EXIT_OK
        names.append(json.loads(out)["ring"])
    assert names == ["Z12/(2)", "Z12/(2)"]


def test_classify_disagreement_exits_3_without_traceback(capsys, monkeypatch):
    honest = ringlab.classify.is_nil_neat_criterion
    monkeypatch.setattr(ringlab.classify, "is_nil_neat_criterion", lambda ring: not honest(ring))
    code, out, err = run_cli(capsys, "classify", "Z4")
    assert code == EXIT_DISAGREEMENT
    assert out == ""
    assert err == "disagreement: nil_neat: definitional=True criterion=False on Z4\n"


def test_radical_z4(capsys):
    code, out, _ = run_cli(capsys, "radical", "Z4", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["nilradical"]["members"] == [0, 2]
    assert payload["jacobson"]["members"] == [0, 2]


def test_radical_z6(capsys):
    code, out, _ = run_cli(capsys, "radical", "Z6", "--json")
    payload = json.loads(out)
    assert payload["nilradical"]["members"] == [0]
    assert payload["jacobson"]["members"] == [0]


def test_radical_group_ring_agreement(capsys):
    code, out, _ = run_cli(capsys, "radical", "GR(Z3, C3)", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert payload["karpilovsky"]["size"] == 9
    assert payload["karpilovsky"]["matches_jacobson"] is True


def test_radical_text_output(capsys):
    code, out, err = run_cli(capsys, "radical", "GR(Z3, C3)")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "ring: GR(Z3, C3)  (order 27)\n"
        "  N(R): size 9  members [0, 5, 7, 11, 13, 15, 19, 21, 26]\n"
        "  J(R): size 9  members [0, 5, 7, 11, 13, 15, 19, 21, 26]\n"
        "  base-ring radical formula: size 9  agreement True\n"
    )
    code, out, err = run_cli(capsys, "radical", "Z4")
    assert (code, err) == (EXIT_OK, "")
    assert out == "ring: Z4  (order 4)\n  N(R): size 2  members [0, 2]\n  J(R): size 2  members [0, 2]\n"


def test_radical_formula_disagreement_exits_3(capsys, monkeypatch):
    monkeypatch.setattr(ringlab.cli, "karpilovsky_radical", lambda view: ideal_generated(view.ring, []))
    code, out, err = run_cli(capsys, "radical", "GR(Z3, C3)")
    assert (code, err) == (EXIT_DISAGREEMENT, "")
    assert out.splitlines()[-1] == "  base-ring radical formula: size 1  agreement False"
    code, out, err = run_cli(capsys, "radical", "GR(Z3, C3)", "--json")
    assert (code, err) == (EXIT_DISAGREEMENT, "")
    assert json.loads(out)["karpilovsky"] == {"size": 1, "members": [0], "matches_jacobson": False}


def test_ideals_text_output(capsys):
    code, out, err = run_cli(capsys, "ideals", "Z6")
    assert (code, err) == (EXIT_OK, "")
    assert out == (
        "ring: Z6  (order 6, 4 ideals)\n"
        "  size    1: [0]\n"
        "  size    2: [0, 3]\n"
        "  size    3: [0, 2, 4]\n"
        "  size    6: [0, 1, 2, 3, 4, 5]\n"
    )


@pytest.mark.parametrize("argv, message", [
    (("--order-cap", "abc", "classify", "Z2"), "argument --order-cap: invalid int value: 'abc'"),
    (("classify", "GR(Z2 C2)"), "syntax error at position 6: expected ',', found 'C'"),
    (("classify", "Z2 x"),
     "syntax error at position 4: expected a ring ('Z<n>', 'GR(...)' or '(...)'), found 'end of input'"),
    (("classify", "GR(Z2, C0)"), "syntax error at position 8: cyclic order must be >= 1"),
    (("verify-theorem", "--max-ring-order", "1"), "max_ring_order must be >= 2 (no rings in catalog)"),
    (("verify-theorem", "--max-groupring-order", "1"), "max_groupring_order must be >= 2"),
    (("verify-theorem", "--jobs", "0"), "jobs must be >= 1"),
], ids=["order-cap-not-an-int", "missing-comma", "missing-ring", "cyclic-order-0", "max-ring-order-1",
        "max-groupring-order-1", "jobs-0"])
def test_malformed_input_is_a_usage_error(capsys, argv, message):
    code, out, err = run_cli(capsys, *argv)
    assert (code, out, err) == (EXIT_USAGE, "", f"usage error: {message}\n")


def test_ideals_command(capsys):
    code, out, _ = run_cli(capsys, "ideals", "Z6", "--json")
    assert code == EXIT_OK
    payload = json.loads(out)
    assert [i["members"] for i in payload["ideals"]] == [[0], [0, 3], [0, 2, 4], [0, 1, 2, 3, 4, 5]]


def test_order_cap_exit_code(capsys):
    code, _, err = run_cli(capsys, "--order-cap", "100", "classify", "GR(Z9, C3)")
    assert code == EXIT_CAP
    assert "cap" in err


def test_group_ring_cap_is_checked_before_factoring():
    # factoring the order 10^18 + 3 by trial division would take hours
    done = util.run_python(
        "-c", "from ringlab.cli import run; run()",
        "classify", "GR(Z2, C1000000000000000003)",
        timeout=30,
    )
    assert done.returncode == EXIT_CAP
    assert "2^1000000000000000003" in done.stderr


def test_group_ring_cap_message_prints_a_power(capsys):
    for command in ("classify", "radical"):
        code, _, err = run_cli(capsys, command, "GR(Z2, C4096)")
        assert code == EXIT_CAP
        assert err.strip() == "cap exceeded: group ring order 2^4096 exceeds cap 4096"


def test_verify_theorem_small_run(tmp_path, capsys):
    out_path = tmp_path / "sweep.jsonl"
    code, out, _ = run_cli(
        capsys,
        "verify-theorem",
        "--max-ring-order", "4",
        "--max-product-order", "6",
        "--max-group-order", "3",
        "--max-groupring-order", "128",
        "--out", str(out_path),
        "--no-cache",
    )
    assert code == EXIT_OK
    lines = out_path.read_text().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    footer = json.loads(lines[-1])
    assert footer["summary"]["disagreements"] == 0
    assert all(r["agreement"] for r in records)
    orders = [r["order"] for r in records]
    assert orders == sorted(orders)
    assert "checked" in out


def test_verify_theorem_misconfiguration(capsys):
    code, _, err = run_cli(capsys, "verify-theorem", "--max-group-order", "0")
    assert code == EXIT_USAGE
    assert "max_group_order" in err


@pytest.mark.parametrize("argv", [
    ("--order-cap", "-5", "classify", "Z2"),
    ("--order-cap", "1", "classify", "Z2"),
    ("--ideal-cap", "-1", "ideals", "Z4"),
], ids=["order-cap=-5", "order-cap=1", "ideal-cap=-1"])
def test_cap_below_two_is_usage_error(capsys, argv):
    # no ring has order below 2, so such a cap is malformed, not exceeded
    code, out, err = run_cli(capsys, *argv)
    assert code == EXIT_USAGE and out == ""
    assert err.startswith(f"usage error: argument {argv[0]}: must be >= 2")


def test_verify_theorem_warm_cache_is_stable(tmp_path, capsys):
    cache_path = tmp_path / "cache.jsonl"
    args = (
        "verify-theorem",
        "--max-ring-order", "4",
        "--max-product-order", "4",
        "--max-group-order", "2",
        "--max-groupring-order", "64",
        "--cache", str(cache_path),
    )
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == EXIT_OK

    def normalize(text):
        records = [json.loads(line) for line in text.splitlines()]
        for record in records:
            record.pop("wall_ms", None)
        return records

    assert normalize(out1) == normalize(out2)
    assert cache_path.exists() and cache_path.read_text().strip()


def test_verify_theorem_skips_wrongly_shaped_cache_line(tmp_path, capsys):
    cache_path = tmp_path / "cache.jsonl"
    cache_path.write_text('{"key": "GR(Z2, 1)", "version": "%s", "value": [1, 2]}\n' % __version__)
    args = ("verify-theorem", "--max-ring-order", "2", "--max-product-order", "2",
            "--max-group-order", "1", "--cache", str(cache_path))
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        code, out, _ = run_cli(capsys, *args)
    assert code == EXIT_OK
    (record, _) = [json.loads(line) for line in out.splitlines()]
    assert (record["ring"], record["group"], record["wnn_definitional"]) == ("Z2", "1", True)


TINY_SWEEP = ("verify-theorem", "--max-ring-order", "2", "--max-product-order", "2",
              "--max-group-order", "1")


@pytest.mark.parametrize("value", [
    {"wnn": {"ok": True, "witness": ["x"]}, "wnc": {"ok": False, "witness": None}},
    {"wnn": {"ok": False, "witness": [True]}, "wnc": {"ok": True, "witness": None}},
    {"wnn": {"ok": False, "witness": None}, "wnc": {"ok": True, "witness": None}},
    {"wnn": {"ok": True, "witness": None}, "wnc": {"ok": True, "witness": 0}},
], ids=["witness-of-a-positive-verdict", "bool-member", "negative-wnn-without-witness",
        "positive-wnc-with-witness"])
def test_verify_theorem_skips_a_verdict_no_decider_returns(tmp_path, capsys, value):
    # each is a well-formed dict, but no decider pairs ok with a witness this way
    cache_path = tmp_path / "cache.jsonl"
    line = {"key": "GR(Z2, 1)", "version": __version__, "value": value}
    cache_path.write_text(json.dumps(line) + "\n")
    with pytest.warns(UserWarning, match="corrupt cache line 1"):
        code, out, err = run_cli(capsys, *TINY_SWEEP, "--max-groupring-order", "2", "--cache", str(cache_path))
    assert (code, err) == (EXIT_OK, "")
    (record, footer) = [json.loads(line) for line in out.splitlines()]
    assert (record["wnn_definitional"], record["wnn_witness"], record["wnc_definitional"]) == (True, None, True)
    assert footer["summary"]["disagreements"] == 0


@pytest.mark.parametrize("flag", ["--cache", "--out"])
def test_verify_theorem_os_error_is_usage_error(tmp_path, flag):
    # --cache names a directory; --out a file in a missing directory
    if flag == "--cache":
        args = ("--cache", str(tmp_path))
    else:
        args = ("--no-cache", "--out", str(tmp_path / "missing" / "out.jsonl"))
    done = util.run_python("-c", "from ringlab.cli import run; run()", *TINY_SWEEP, *args, timeout=60)
    assert done.returncode == EXIT_USAGE
    assert done.stderr.startswith("error: ") and "Traceback" not in done.stderr


def _refuse(what):
    def refused(*args, **kwargs):
        raise AssertionError(f"{what} must not be called")

    return refused


def test_verify_theorem_opens_out_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ringlab.cli, "run_sweep", _refuse("run_sweep"))
    out = tmp_path / "missing" / "out.jsonl"
    code, _, err = run_cli(capsys, *TINY_SWEEP, "--no-cache", "--out", str(out))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_theorem_opens_cache_before_the_sweep(tmp_path, capsys, monkeypatch):
    monkeypatch.setattr(ringlab.cli, "run_sweep", _refuse("run_sweep"))
    cache = tmp_path / "missing" / "c.jsonl"
    code, _, err = run_cli(capsys, *TINY_SWEEP, "--cache", str(cache))
    assert code == EXIT_USAGE
    assert err.startswith("error: ") and "Traceback" not in err


def test_verify_theorem_checks_pair_orders_before_building(capsys, monkeypatch):
    # GR(Z6, C4) has order 1296, above the order cap 1024
    monkeypatch.setattr(ringlab.sweep, "_evaluate_pair", _refuse("_evaluate_pair"))
    code, _, err = run_cli(
        capsys,
        "--order-cap", "1024",
        "verify-theorem",
        "--no-cache",
        "--max-ring-order", "6",
        "--max-product-order", "6",
        "--max-group-order", "4",
        "--max-groupring-order", "1300",
    )
    assert code == EXIT_CAP
    assert "1296" in err and "Traceback" not in err


def test_verify_theorem_drops_groups_too_large_for_any_pair():
    # |R| >= 2, so groups of order above log2(16) = 4 form no pair; the
    # catalog must not be built up to the requested 10^6
    small = ("--max-ring-order", "3", "--max-product-order", "3", "--max-groupring-order", "16")

    def records(max_group_order):
        done = util.run_python(
            "-c", "from ringlab.cli import run; run()", "verify-theorem", "--no-cache", *small,
            "--max-group-order", max_group_order, timeout=30,
        )
        assert done.returncode == EXIT_OK, done.stderr
        *lines, footer = done.stdout.splitlines()
        assert json.loads(footer)["config"]["max_group_order"] == int(max_group_order)
        return [{k: v for k, v in json.loads(line).items() if k != "wall_ms"} for line in lines]

    assert records("1000000") == records("4")


def _fake_pool(monkeypatch) -> list[int]:
    """Make the sweep record each requested worker count and raise,
    instead of forking workers.  The sweep imports the pool from
    ``concurrent.futures`` when it first needs one, so that is the name
    patched."""
    import concurrent.futures

    requested = []

    def pool(max_workers):
        requested.append(max_workers)
        raise RuntimeError("no process pool in tests")

    monkeypatch.setattr(concurrent.futures, "ProcessPoolExecutor", pool)
    return requested


def test_verify_theorem_rejects_more_jobs_than_cpus(capsys, monkeypatch):
    requested = _fake_pool(monkeypatch)
    jobs = str(ringlab.sweep.usable_cpus() + 1)
    code, _, err = run_cli(capsys, *TINY_SWEEP, "--no-cache", "--jobs", jobs)
    assert code == EXIT_USAGE and "jobs" in err
    assert requested == []


def test_jobs_are_capped_by_the_affinity_mask_not_the_host(monkeypatch):
    # a cpuset or taskset may leave this process fewer CPUs than the host has
    monkeypatch.setattr(ringlab.sweep.os, "cpu_count", lambda: 64)
    monkeypatch.setattr(ringlab.sweep.os, "sched_getaffinity", lambda pid: {0}, raising=False)
    requested = _fake_pool(monkeypatch)
    assert ringlab.sweep.usable_cpus() == 1
    with pytest.raises(ValueError, match="jobs must be <= 1"):
        run_sweep(SweepConfig(max_ring_order=3, max_product_order=3, max_group_order=1, jobs=2))
    assert requested == []


def test_usable_cpus_falls_back_to_the_host_count(monkeypatch):
    monkeypatch.delattr(ringlab.sweep.os, "sched_getaffinity", raising=False)
    monkeypatch.setattr(ringlab.sweep.os, "cpu_count", lambda: 3)
    assert ringlab.sweep.usable_cpus() == 3
    monkeypatch.setattr(ringlab.sweep.os, "cpu_count", lambda: None)
    assert ringlab.sweep.usable_cpus() == 1


def test_starting_ringlab_loads_no_process_pool():
    done = util.run_python("-c", (
        "import sys, ringlab, ringlab.sweep, ringlab.cli; "
        "print(sorted(m for m in ('multiprocessing', 'concurrent.futures.process') if m in sys.modules))"
    ), timeout=30)
    assert done.returncode == 0, done.stderr
    assert done.stdout.strip() == "[]"


def test_verify_theorem_defaults_are_the_sweep_config_defaults():
    import dataclasses

    args = ringlab.cli._build_parser().parse_args(["verify-theorem"])
    defaults = SweepConfig()
    for f in dataclasses.fields(SweepConfig):
        assert getattr(args, f.name) == getattr(defaults, f.name), f.name


def test_sweep_starts_no_more_workers_than_pairs(monkeypatch):
    monkeypatch.setattr(ringlab.sweep, "usable_cpus", lambda: 64)
    requested = _fake_pool(monkeypatch)
    config = SweepConfig(max_ring_order=3, max_product_order=3, max_group_order=1, jobs=64)
    with pytest.raises(RuntimeError, match="no process pool"):
        run_sweep(config)
    assert requested == [2]  # Z2 and Z3, each with the trivial group


def test_verify_theorem_fault_injection_exits_3(tmp_path, capsys, monkeypatch):
    from ringlab.classify import PredicateResult, weakly_nil_neat_group_ring_predicate

    def inverted(ring, group, **kwargs):
        honest = weakly_nil_neat_group_ring_predicate(ring, group, **kwargs)
        return PredicateResult(not honest.holds, honest.condition)

    monkeypatch.setattr(ringlab.classify, "weakly_nil_neat_group_ring_predicate", inverted)
    code, out, _ = run_cli(
        capsys,
        "verify-theorem",
        "--max-ring-order", "3",
        "--max-product-order", "4",
        "--max-group-order", "2",
        "--max-groupring-order", "16",
        "--no-cache",
    )
    assert code == EXIT_DISAGREEMENT


def test_sweep_catalogs():
    config = SweepConfig()
    rings = ring_catalog(config)
    labels = set()
    from ringlab.expr import canonical_label

    for expr in rings:
        labels.add(canonical_label(expr))
    assert {"Z2", "Z9", "Z2 x Z6", "Z3 x Z4"} <= labels
    assert "Z2 x Z7" not in labels  # 14 > product cap
    groups = group_catalog(4)
    assert [g.label for g in groups] == ["1", "C2", "C3", "C2 x C2", "C4"]


def test_ring_catalog_is_bounded_by_the_group_ring_order():
    # |RG| >= |R|, so a ring above the group-ring cap forms no pair and the
    # catalog must not be built up to the requested ring orders
    def catalog(max_order):
        return ring_catalog(SweepConfig(
            max_ring_order=max_order, max_product_order=max_order, max_groupring_order=16,
        ))

    assert catalog(100_000) == catalog(16)


def test_sweep_parallel_matches_serial(monkeypatch):
    monkeypatch.setattr(ringlab.sweep, "usable_cpus", lambda: 2)  # jobs=2 on any host
    serial = run_sweep(SweepConfig(max_ring_order=3, max_product_order=4, max_group_order=2, max_groupring_order=64))
    parallel = run_sweep(
        SweepConfig(max_ring_order=3, max_product_order=4, max_group_order=2, max_groupring_order=64, jobs=2)
    )

    def strip(records):
        return [{k: v for k, v in r.items() if k != "wall_ms"} for r in records]

    assert strip(serial.records) == strip(parallel.records)


def test_dead_worker_exits_2_naming_memory_without_traceback():
    # one of two workers SIGKILLs itself, as the kernel's OOM killer would;
    # the patched worker body reaches the pool's workers by fork
    code = (
        "import os, signal, sys\n"
        "import ringlab.sweep as sweep\n"
        "from ringlab.cli import main\n"
        "evaluate = sweep._evaluate_pair\n"
        "def dying(args):\n"
        "    if args[1] == (4,):\n"
        "        os.kill(os.getpid(), signal.SIGKILL)\n"
        "    return evaluate(args)\n"
        "sweep._evaluate_pair = dying\n"
        "sweep.usable_cpus = lambda: 2\n"
        "sys.exit(main(['verify-theorem', '--no-cache', '--jobs', '2', '--max-ring-order', '3',\n"
        "               '--max-product-order', '3', '--max-group-order', '4', '--max-groupring-order', '64']))\n"
    )
    done = util.run_python("-c", code, timeout=60)
    assert done.returncode == EXIT_CAP, done.stderr
    assert "Traceback" not in done.stderr
    lines = done.stderr.splitlines()
    assert len(lines) == 1 and "out of memory" in lines[0], done.stderr


def test_python_dash_m_ringlab_runs_the_cli():
    done = util.run_python("-m", "ringlab", "--version", timeout=30)
    assert done.returncode == EXIT_OK
    assert done.stdout.strip() == f"ringlab {__version__}"


def test_usage_error_for_unknown_command(capsys):
    code, _, err = run_cli(capsys, "frobnicate")
    assert code == EXIT_USAGE
