"""Registry parsing, the verification engine, reports, tables, and the CLI."""

import hashlib
import json
from fractions import Fraction
from importlib import resources

import pytest

from altprod import accel, cli
from altprod import exprlang as ex
from altprod import harness as hz
from altprod import numkernel as nk
from altprod.accel import METHODS
from altprod.numkernel import SpecError

EXPECTED_IDS = (
    "KT1",
    "KT2",
    "KT3",
    "KT4",
    "MELZAK",
    "HOLCOMBE",
    "GS53R",
    "GS55R",
    "ADAMCHIK_E_HALF",
    "D1",
    "DHALF",
    "DGAMMA_ONE",
    "DGAMMA_HALF",
    "CS_RATIO",
    "LERCH_CUBE",
    "LERCH_CATALAN",
)

REPORT_KEYS = {
    "id",
    "lhs",
    "rhs",
    "agreement_digits",
    "target_digits",
    "terms_used",
    "method",
    "elapsed_ms",
    "pass",
}


# ---------------------------------------------------------------------------
# registry parsing


def test_parse_registry_happy_path_and_defaults():
    text = (
        "# a comment\n"
        "id = A\n"
        'rhs = "pi"\n'
        "lhs = product KT1\n"
        "\n"
        "id = B\n"
        "lhs = lerch -1 1/2\n"
        "rhs = catalan/pi\n"
        "description = second record\n"
        "anchor = b-anchor\n"
        "method = WYNN\n"
    )
    records = hz.parse_registry(text)
    assert [r.id for r in records] == ["A", "B"]
    a, b = records
    assert a.method == "RICHARDSON" and a.description == "" and a.anchor == ""
    assert a.rhs == "pi"  # quotes stripped
    assert b.method == "WYNN" and b.anchor == "b-anchor"
    assert b.description == "second record"


def test_parse_registry_missing_required_key():
    with pytest.raises(SpecError, match="missing"):
        hz.parse_registry("id = A\nrhs = pi\n")
    with pytest.raises(SpecError, match="missing"):
        hz.parse_registry("lhs = product KT1\nrhs = pi\n")


def test_parse_registry_malformed_line():
    with pytest.raises(SpecError, match="line 2 is not 'key = value'"):
        hz.parse_registry("id = A\njust words\n")


def test_parse_registry_unknown_and_duplicate_keys():
    with pytest.raises(SpecError, match="unknown key 'color'"):
        hz.parse_registry("id = A\ncolor = red\n")
    with pytest.raises(SpecError, match="duplicate key 'id'"):
        hz.parse_registry("id = A\nid = B\n")


def test_parse_registry_error_messages_name_the_line():
    cases = [
        ("# c\nid = A\nlhs = x\nrhs = y\n\njust words\n",
         "registry line 6 is not 'key = value': 'just words'"),
        ("\n\nid = B\ncolor = red\n", "registry line 4: unknown key 'color'"),
        ("id = A\nlhs = x\nid = B\n", "registry line 3: duplicate key 'id'"),
        ('id = A\nrhs = "pi"\n', "registry record is missing lhs: {'id': 'A', 'rhs': 'pi'}"),
    ]
    for text, message in cases:
        with pytest.raises(SpecError) as info:
            hz.parse_registry(text)
        assert str(info.value) == message


def test_registry_rejects_duplicate_ids():
    text = "id = A\nlhs = product KT1\nrhs = pi\n\nid = A\nlhs = product KT2\nrhs = pi\n"
    with pytest.raises(SpecError, match="duplicate registry id 'A'"):
        hz.Registry(hz.parse_registry(text))


def test_registry_rejects_unparseable_rhs():
    text = "id = A\nlhs = product KT1\nrhs = pi*\n"
    with pytest.raises(SpecError, match="does not parse at byte 3"):
        hz.Registry(hz.parse_registry(text))


@pytest.mark.parametrize(
    "lhs, message",
    [
        ("", "empty lhs"),
        ("orbit KT1", "unknown lhs form 'orbit'"),
        ("product KT1 1/2 9", "optional parameter"),
        ("dfunc PRODUCT", "takes a route and a parameter"),
        ("dfunc NEWTON 1", "unknown dfunc route"),
        ("lerch -2", "takes s and u"),
        ("csratio 3/4", "takes no arguments"),
    ],
)
def test_registry_rejects_bad_lhs_forms(lhs, message):
    text = f"id = A\nlhs = {lhs}\nrhs = pi\n"
    with pytest.raises(SpecError, match=message):
        hz.Registry(hz.parse_registry(text))


def test_packaged_registry_file_parses_to_the_expected_ids():
    # the registry ships only as package data; it must be readable as such
    text = resources.files("altprod").joinpath("data/registry.txt").read_text()
    assert tuple(rec.id for rec in hz.parse_registry(text)) == EXPECTED_IDS


def test_default_registry_has_exactly_the_expected_ids_in_order():
    reg = hz.default_registry()
    assert reg.ids() == EXPECTED_IDS
    assert len(reg) == len(EXPECTED_IDS)


def test_default_registry_record_quality():
    reg = hz.default_registry()
    anchors = [rec.anchor for rec in reg]
    assert all(anchors) and len(set(anchors)) == len(anchors)
    assert all(rec.description for rec in reg)
    kinds = {rec.id: reg.lhs_form(rec.id)[0] for rec in reg}
    products = {
        "KT1", "KT2", "KT3", "KT4", "MELZAK", "HOLCOMBE",
        "GS53R", "GS55R", "ADAMCHIK_E_HALF", "D1", "DHALF",
    }
    assert {i for i, k in kinds.items() if k == "product"} == products
    assert kinds["DGAMMA_ONE"] == kinds["DGAMMA_HALF"] == "dfunc"
    assert kinds["CS_RATIO"] == "csratio"
    assert kinds["LERCH_CUBE"] == kinds["LERCH_CATALAN"] == "lerch"
    for rec in reg:
        if kinds[rec.id] == "product":
            assert rec.method in METHODS


def test_registry_get_unknown_id():
    with pytest.raises(SpecError, match="unknown identity id 'NOPE'"):
        hz.default_registry().get("NOPE")


def test_load_registry_from_path(tmp_path):
    path = tmp_path / "reg.txt"
    path.write_text('id = ONLY\nlhs = product HOLCOMBE\nrhs = "pi"\n')
    reg = hz.load_registry(str(path))
    assert reg.ids() == ("ONLY",)


# ---------------------------------------------------------------------------
# verification


def test_verify_single_pass_shape():
    report = hz.verify("KT3", 32)
    assert report.passed is True
    assert report.id == "KT3"
    assert report.agreement_digits >= 32
    assert 0 < report.terms_used <= hz.DEFAULT_MAX_TERMS
    assert report.method == "RICHARDSON"
    assert report.reason is None
    assert report.elapsed_ms >= 0
    assert report.lhs_value.startswith("1.08667416616077395")
    assert report.rhs_value.startswith("1.08667416616077395")
    d = report.to_json_dict()
    assert set(d.keys()) == REPORT_KEYS
    assert d["pass"] is True and d["lhs"] == report.lhs_value


def test_verify_rejects_unknown_id_and_bad_target():
    with pytest.raises(SpecError, match="unknown identity id"):
        hz.verify("NOPE")
    with pytest.raises(SpecError, match="target_digits"):
        hz.verify("KT1", 0)
    for max_terms in (0, 1, 2.5):
        with pytest.raises(SpecError, match="max_terms"):
            hz.verify("KT3", max_terms=max_terms)


def test_verify_refuses_overrides_on_a_non_product_record():
    for overrides in ({"method": "RAW"}, {"max_terms": 2}, {"method": "EULER", "max_terms": 64}):
        with pytest.raises(SpecError, match="product records only"):
            hz.verify("DGAMMA_ONE", 20, **overrides)


def test_cli_verify_override_on_a_non_product_record_exits_2(capsys):
    code, out, err = run_cli(
        ["verify", "DGAMMA_ONE", "--method", "raw", "--max-terms", "2", "--digits", "20"], capsys
    )
    assert code == 2 and out == ""
    assert "product records only" in err


@pytest.mark.parametrize("rec_id,route", [
    ("DGAMMA_ONE", "GAMMA_SERIES"),
    ("DGAMMA_HALF", "GAMMA_SERIES"),
    ("CS_RATIO", "BARNES_CLOSED"),
    ("LERCH_CUBE", "HURWITZ_SPLIT"),
    ("LERCH_CATALAN", "HURWITZ_SPLIT"),
])
def test_non_product_report_names_the_route_that_ran(rec_id, route):
    report = hz.verify(rec_id, 20)
    assert report.passed and report.method == route


def test_cli_verify_prints_the_route_of_a_dfunc_record(capsys):
    code, out, _ = run_cli(["verify", "DGAMMA_ONE", "--digits", "20"], capsys)
    assert code == 0 and "method=GAMMA_SERIES" in out and "EULER" not in out


def _constant_names(node):
    if isinstance(node, ex.ConstRef):
        return {node.name}
    children = [getattr(node, a) for a in ("operand", "left", "right") if hasattr(node, a)]
    children += getattr(node, "args", ())
    return set().union(*map(_constant_names, children))


def test_no_packaged_record_checks_barnes_closed_against_glaisher():
    # ln G's Hurwitz form leaves zeta'(-1) in D's BARNES_CLOSED route, and
    # zeta'(-1) is LN_GLAISHER's primary route: such a pair is not independent
    reg = hz.default_registry()
    assert "GLAISHER" in _constant_names(reg.rhs_tree("D1").root)
    for rec in reg:
        form = reg.lhs_form(rec.id)
        if form[0] == "dfunc" and form[1] == "BARNES_CLOSED":
            assert "GLAISHER" not in _constant_names(reg.rhs_tree(rec.id).root), rec.id


def test_verify_all_applies_overrides_to_product_records_only():
    base = hz.default_registry()
    reg = hz.Registry((base.get("KT3"), base.get("LERCH_CATALAN")))
    kt3, lerch = hz.verify_all(20, method="RAW", max_terms=2, registry=reg)
    assert kt3.method == "RAW" and kt3.terms_used == 2 and not kt3.passed
    assert lerch.method == "HURWITZ_SPLIT" and lerch.terms_used == 0 and lerch.passed


def test_verify_is_deterministic():
    first = hz.verify("KT4", 30)
    second = hz.verify("KT4", 30)
    assert first.lhs_value == second.lhs_value
    assert first.rhs_value == second.rhs_value
    assert first.agreement_digits == second.agreement_digits
    assert first.terms_used == second.terms_used


def test_verify_all_passes_and_preserves_order():
    reports = hz.verify_all(30)
    assert [r.id for r in reports] == list(EXPECTED_IDS)
    assert all(r.passed for r in reports)
    assert all(r.agreement_digits >= 30 for r in reports)
    for r in reports:
        kind = hz.default_registry().lhs_form(r.id)[0]
        if kind == "product":
            assert 0 < r.terms_used <= hz.DEFAULT_MAX_TERMS
        else:
            assert r.terms_used == 0


def test_verify_all_matches_individual_runs():
    batch = hz.verify_all(25)
    for report in batch:
        single = hz.verify(report.id, 25)
        a = report.to_json_dict()
        b = single.to_json_dict()
        a.pop("elapsed_ms")
        b.pop("elapsed_ms")
        assert a == b


def test_verify_all_sequential_worker_path():
    reports = hz.verify_all(20, workers=1)
    assert [r.id for r in reports] == list(EXPECTED_IDS)
    assert all(r.passed for r in reports)


def test_verify_all_empty_registry():
    assert hz.verify_all(30, registry=hz.Registry(())) == []


# SHA-256 prefixes of every report's JSON without elapsed_ms, sorted keys:
# the LHS and RHS strings, the agreement, the terms and the pass bit.  A
# change that moves any report bit at these targets fails here.
_REPORT_PINS = {
    ("KT1", 30): "da677d4619407e34",
    ("KT2", 30): "a49faca948e96f42",
    ("KT3", 30): "511e32db8e28e32d",
    ("KT4", 30): "9060e16175514a66",
    ("MELZAK", 30): "6f00580142446a42",
    ("HOLCOMBE", 30): "9dfad5fe13755b35",
    ("GS53R", 30): "7e568f740c0e589a",
    ("GS55R", 30): "d040f5c40a1ef0e6",
    ("ADAMCHIK_E_HALF", 30): "281f98bc207f44a9",
    ("D1", 30): "90abed2616530fee",
    ("DHALF", 30): "44c0c29afbb17d2e",
    ("DGAMMA_ONE", 30): "6b16f052ce69f290",
    ("DGAMMA_HALF", 30): "0535d7a4fe291ee3",
    ("CS_RATIO", 30): "e37aa67d18ca01c9",
    ("LERCH_CUBE", 30): "b4517586dcd7620d",
    ("LERCH_CATALAN", 30): "6ef544a464fb785d",
    ("KT1", 40): "78a0e60b1d9fa9cd",
    ("KT2", 40): "8cf79b7e14bbf4b1",
    ("KT3", 40): "027b7dc86d560177",
    ("KT4", 40): "e350fca5472013b0",
    ("MELZAK", 40): "ce37fccc648ea1a6",
    ("HOLCOMBE", 40): "e2b327734b98dd04",
    ("GS53R", 40): "acd6e3b4b0a31516",
    ("GS55R", 40): "b7978b37acc9d87f",
    ("ADAMCHIK_E_HALF", 40): "0e04a7d7a706f9b7",
    ("D1", 40): "cd4e1fb0f7e293eb",
    ("DHALF", 40): "87d9cbbecab39a75",
    ("DGAMMA_ONE", 40): "80231b2a5aeb3857",
    ("DGAMMA_HALF", 40): "25e507e7e93a5424",
    ("CS_RATIO", 40): "8f87ffc744bf7fb9",
    ("LERCH_CUBE", 40): "c66a2b9852fef4a5",
    ("LERCH_CATALAN", 40): "8f7f2628cdb1ed88",
    ("KT1", 100): "3ce3a9568ae61675",
    ("KT2", 100): "249f6a722d97d3ab",
    ("KT3", 100): "4659e989f28b846a",
    ("KT4", 100): "be81e2ade40a1911",
    ("MELZAK", 100): "a4397e4347fa7345",
    ("HOLCOMBE", 100): "f833db25f49c887b",
    ("GS53R", 100): "184e7f4c73318ac0",
    ("GS55R", 100): "b10d50509c4c3298",
    ("ADAMCHIK_E_HALF", 100): "c8486aa6e4a1b004",
    ("D1", 100): "d45dfab27d4a7a36",
    ("DHALF", 100): "c7e541d9e3950d51",
    ("DGAMMA_ONE", 100): "b8b20bc59aaae3ff",
    ("DGAMMA_HALF", 100): "06678715dd904eac",
    ("CS_RATIO", 100): "a7932b7b91e64ed1",
    ("LERCH_CUBE", 100): "0f90631f8659734b",
    ("LERCH_CATALAN", 100): "a953cdb7b5f25485",
}


def _report_digest(report) -> str:
    record = report.to_json_dict()
    del record["elapsed_ms"]
    return hashlib.sha256(json.dumps(record, sort_keys=True).encode()).hexdigest()[:16]


@pytest.mark.parametrize("digits", [30, 40, 100])
def test_verify_all_reports_match_their_pins(digits):
    got = {(r.id, digits): _report_digest(r) for r in hz.verify_all(digits, workers=1)}
    assert got == {key: pin for key, pin in _REPORT_PINS.items() if key[1] == digits}


def test_verify_raw_method_reports_honest_failure():
    report = hz.verify("MELZAK", 30, method="RAW", max_terms=4000)
    assert report.passed is False
    assert report.method == "RAW"
    assert report.terms_used == 4000
    assert "term cap" in report.reason
    # the best-effort value is on product scale, good to a few digits only
    assert report.lhs_value.startswith("4.26")
    assert 1 <= report.agreement_digits <= 8
    d = report.to_json_dict()
    assert set(d.keys()) == REPORT_KEYS | {"reason"}


def test_verify_raw_batch_fails_products_only():
    reports = hz.verify_all(30, method="RAW", max_terms=2000)
    reg = hz.default_registry()
    for r in reports:
        kind = reg.lhs_form(r.id)[0]
        if kind == "product":
            assert r.passed is False, r.id
            assert r.reason is not None
        else:
            # method override only applies to product records
            assert r.passed is True, r.id


def test_verify_unknown_method():
    with pytest.raises(SpecError, match="unknown method 'SHANKS'"):
        hz.verify("KT1", 20, method="SHANKS")


def test_reports_to_json_shapes():
    single = hz.verify("LERCH_CATALAN", 20)
    obj = json.loads(hz.reports_to_json(single))
    assert isinstance(obj, dict) and obj["id"] == "LERCH_CATALAN"
    batch = [single, hz.verify("LERCH_CUBE", 20)]
    arr = json.loads(hz.reports_to_json(batch))
    assert isinstance(arr, list) and [d["id"] for d in arr] == [
        "LERCH_CATALAN",
        "LERCH_CUBE",
    ]
    for d in arr:
        assert REPORT_KEYS.issubset(d.keys())


# ---------------------------------------------------------------------------
# convergence tables


def test_convergence_table_raw_digit_growth():
    p = nk.bits_for_digits(30)
    rows = hz.convergence_table("KT3", [1, 10, 100, 1000], p)
    assert [row.n for row in rows] == [1, 10, 100, 1000]
    digits = [row.digits for row in rows]
    assert digits == sorted(digits)
    # quadratic-decay tail: a couple of digits per factor of ten, honestly few
    assert digits[1] >= 3
    assert digits[2] >= 5
    assert 7 <= digits[3] <= 10
    # the n=1 partial is exactly 27/25; the evaluated row must agree with it
    # to far more digits than display truncation can obscure
    exact = nk.to_real(Fraction(27, 25), p)
    assert nk.agreement_digits(rows[0].partial, exact) >= 20


def test_convergence_table_preserves_requested_order():
    p = nk.bits_for_digits(20)
    rows = hz.convergence_table("KT3", [100, 1, 10], p)
    assert [row.n for row in rows] == [100, 1, 10]
    resorted = hz.convergence_table("KT3", [1, 10, 100], p)
    assert rows[0].partial.raw == resorted[2].partial.raw


def test_convergence_table_approaches_pi():
    p = nk.bits_for_digits(20)
    (row,) = hz.convergence_table("HOLCOMBE", [100], p)
    assert nk.truncated_decimal(row.partial, 3).startswith("3.1")
    assert row.digits >= 2


def test_convergence_table_input_validation():
    p = nk.bits_for_digits(20)
    with pytest.raises(SpecError, match="no product LHS"):
        hz.convergence_table("LERCH_CUBE", [10], p)
    with pytest.raises(SpecError, match="non-empty"):
        hz.convergence_table("KT3", [], p)
    with pytest.raises(SpecError, match="non-negative integer"):
        hz.convergence_table("KT3", [10, -1], p)
    with pytest.raises(SpecError, match="non-negative integer"):
        hz.convergence_table("KT3", [2.5], p)


# ---------------------------------------------------------------------------
# command-line interface


def run_cli(argv, capsys):
    code = cli.main(argv)
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_cli_list(capsys):
    code, out, err = run_cli(["list"], capsys)
    assert code == 0 and err == ""
    lines = out.strip().splitlines()
    assert len(lines) == len(EXPECTED_IDS)
    assert lines[0].split() == ["KT1", "linear-exponent-plus-quarter"]


def test_cli_eval_ok(capsys):
    code, out, err = run_cli(["eval", "pi*e/2", "--digits", "12"], capsys)
    assert code == 0
    assert out.strip() == "4.26986711133"


def test_cli_eval_default_digits(capsys):
    code, out, _ = run_cli(["eval", "pi"], capsys)
    assert code == 0
    assert out.strip() == "3.14159265358979323846264338327"


def test_cli_eval_parse_error(capsys):
    code, _, err = run_cli(["eval", "pi*"], capsys)
    assert code == 2
    assert "parse error at byte 3" in err


def test_cli_eval_numeric_errors(capsys):
    code, _, err = run_cli(["eval", "ln(1-1)"], capsys)
    assert code == 3 and "numeric error:" in err
    code, _, err = run_cli(["eval", "exp(10^9)"], capsys)
    assert code == 3 and "numeric error:" in err
    code, _, err = run_cli(["eval", "(1/10^9)^(10^9)"], capsys)
    assert code == 3 and "numeric error:" in err


def test_cli_verify_single_json(capsys):
    code, out, _ = run_cli(["verify", "KT3", "--digits", "35", "--json"], capsys)
    assert code == 0
    d = json.loads(out)
    assert set(d.keys()) == REPORT_KEYS
    assert d["pass"] is True and d["target_digits"] == 35


def test_cli_verify_unknown_id(capsys):
    code, _, err = run_cli(["verify", "NOPE"], capsys)
    assert code == 2
    assert "unknown identity id" in err


def test_cli_verify_failure_exit_code(capsys):
    code, out, _ = run_cli(
        ["verify", "MELZAK", "--method", "raw", "--max-terms", "2000"], capsys
    )
    assert code == 1
    assert "FAIL" in out and "reason:" in out


def test_cli_verify_failure_names_why_no_estimate_was_produced(capsys):
    # KT1's log partials are one-signed, so EULER's alternating adapter
    # refuses them in every round; the report must say so
    code, out, _ = run_cli(["verify", "KT1", "--method", "euler"], capsys)
    assert code == 1
    assert "reason:" in out and "not alternating" in out


def test_euler_stops_at_the_first_refusal_of_one_signed_differences(monkeypatch):
    # the refusal names an index below the first budget, which every larger
    # budget evaluates again, so one round decides it
    calls = []
    real = accel._as_alternating

    def counting(*args):
        calls.append(args)
        return real(*args)

    monkeypatch.setattr(accel, "_as_alternating", counting)
    report = hz.verify("KT1", 30, method="EULER")
    assert len(calls) == 1
    assert not report.passed
    assert report.reason == (
        "EULER produced no estimate: differences of partial sums are not "
        "alternating at index 1"
    )


def test_cli_verify_all_json(capsys):
    code, out, _ = run_cli(["verify", "all", "--digits", "20", "--json"], capsys)
    assert code == 0
    arr = json.loads(out)
    assert [d["id"] for d in arr] == list(EXPECTED_IDS)
    assert all(d["pass"] for d in arr)


def test_cli_table_json(capsys):
    code, out, _ = run_cli(
        ["table", "KT3", "--n", "1,10,100", "--digits", "20", "--json"], capsys
    )
    assert code == 0
    rows = json.loads(out)
    assert [row["n"] for row in rows] == [1, 10, 100]
    assert all(set(row.keys()) == {"n", "partial", "digits"} for row in rows)
    assert abs(float(rows[0]["partial"]) - 1.08) < 1e-9


def test_cli_table_text_and_errors(capsys):
    code, out, _ = run_cli(["table", "KT3", "--n", "10", "--digits", "15"], capsys)
    assert code == 0
    assert "digits" in out.splitlines()[0]
    code, _, err = run_cli(["table", "KT3", "--n", "1,x"], capsys)
    assert code == 2 and "comma-separated" in err
    code, _, err = run_cli(["table", "LERCH_CUBE", "--n", "10"], capsys)
    assert code == 2 and "no product LHS" in err


def test_cli_custom_registry(tmp_path, capsys):
    path = tmp_path / "reg.txt"
    path.write_text('id = ONLY\nlhs = product HOLCOMBE\nrhs = "pi"\n')
    code, out, _ = run_cli(["list", "--registry", str(path)], capsys)
    assert code == 0 and out.strip().split()[0] == "ONLY"
    code, out, _ = run_cli(
        ["verify", "ONLY", "--digits", "20", "--registry", str(path)], capsys
    )
    assert code == 0 and "ONLY: PASS" in out


@pytest.mark.parametrize(
    "lhs, token", [("product BD_D abc", "'abc'"), ("dfunc GAMMA_SERIES 1/0", "'1/0'")]
)
def test_cli_registry_with_unreadable_lhs_number(tmp_path, capsys, lhs, token):
    path = tmp_path / "reg.txt"
    path.write_text(f"id = BAD\nlhs = {lhs}\nrhs = 1\n")
    code, out, err = run_cli(["list", "--registry", str(path)], capsys)
    assert code == 2 and out == ""
    assert f"lhs '{lhs}': {token} is not a rational number" in err


def test_cli_verify_max_terms(capsys):
    for value in ("0", "1"):
        code, _, err = run_cli(["verify", "KT3", "--max-terms", value], capsys)
        assert code == 2 and "max_terms must be None or an integer >= 2" in err
    # the smallest cap is honoured, not replaced by the default
    code, out, _ = run_cli(["verify", "KT3", "--max-terms", "2"], capsys)
    assert code == 1 and "KT3: FAIL" in out and "terms=2 " in out
    assert "at term cap 2" in out


def test_cli_missing_registry_path(capsys):
    code, _, err = run_cli(["list", "--registry", "/no/such/file.txt"], capsys)
    assert code == 2
    assert "error:" in err


def test_cli_usage_errors(capsys):
    assert run_cli(["bogus"], capsys)[0] == 2
    assert run_cli([], capsys)[0] == 2
    assert run_cli(["verify", "KT1", "--method", "magic"], capsys)[0] == 2
