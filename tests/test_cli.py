import json

import pytest

from weilgroup.cli import main
from weilgroup.verify import verify_paper_lists


@pytest.fixture()
def run(capsys):
    def _run(*argv):
        code = main(argv)
        captured = capsys.readouterr()
        return code, captured.out, captured.err

    return _run


def test_horn_triples_count(run):
    code, out, _ = run("horn", "triples", "--n", "4", "--p", "1")
    assert code == 0
    assert out.strip().splitlines()[-1] == "total: 10"


def test_horn_triples_st(run):
    code, out, _ = run(
        "--json", "horn", "triples", "--n", "6", "--p", "1", "--st", "4,2"
    )
    assert code == 0
    assert [[[5], [1], [5]]] == [t for t in json.loads(out) if t[1] == [1]]


def test_classify_json_single_l(run):
    code, out, _ = run(
        "--json", "classify", "--q", "2", "--poly", "1,-1,2", "--l", "2"
    )
    assert code == 0
    assert json.loads(out) == [[1, 0]]


def test_classify_full(run):
    code, out, _ = run("--json", "classify", "--q", "2", "--poly", "1,0,3,2,6,0,8")
    assert code == 0
    payload = json.loads(out)
    assert payload["shape"] == "P2Q"
    assert payload["groups"] == {
        "2": [[1, 1, 0, 0, 0, 0]],
        "5": [[1, 0, 0, 0, 0, 0]],
    }
    # round-trip: parse(print(x)) == x
    assert json.loads(json.dumps(payload)) == payload


def test_classify_domain_error_exit_code(run):
    code, _out, err = run("classify", "--q", "2", "--poly", "1,-3,2")
    assert code == 1
    assert "RootModulus" in err
    code, out, err = run("classify", "--q", "2", "--poly", "1,-1,2", "--l", "4")
    assert (code, out, err) == (1, "", "error: NotPrime: l=4 is not prime\n")


def test_classify_sign_flag(run):
    """--sign is accepted exactly when it is the factored sign, on every
    route with a real part, and the groups then read b off that sign."""
    classes = [
        # (t^2+3t+9)^2 (t+3)^2, q2_realsq: b = v_2(1 + 3) = 2
        ("1,12,72,270,648,972,729", "plus", {"2": [[2, 2, 0, 0, 0, 0]], "13": [[1, 1, 0, 0, 0, 0]]}),
        # (t^4+9t^2+81) (t-3)^2, p_realsq: b = v_2(1 - 3) = 1
        ("1,-6,18,-54,162,-486,729", "minus",
         {"2": [[1, 1, 0, 0, 0, 0]], "7": [[1, 0, 0, 0, 0, 0]], "13": [[1, 0, 0, 0, 0, 0]]}),
        # (t+3)^6, scalar: b = v_2(1 + 3) = 2
        ("1,18,135,540,1215,1458,729", "plus", {"2": [[2, 2, 2, 2, 2, 2]]}),
        # (t-3)^6, scalar: b = v_2(1 - 3) = 1
        ("1,-18,135,-540,1215,-1458,729", "minus", {"2": [[1, 1, 1, 1, 1, 1]]}),
    ]
    for poly, sign, groups in classes:
        for given in ("plus", "minus"):
            code, out, err = run("--json", "classify", "--q", "9", "--poly", poly, "--sign", given)
            if given == sign:
                assert code == 0, (poly, given)
                assert json.loads(out)["groups"] == groups, poly
            else:
                assert code == 1, (poly, given)
                assert "sign" in err


def test_smith_check(run):
    code, out, _ = run("smith", "check", "--a", "1", "--b", "1", "--c", "2,0")
    assert code == 0
    assert out.strip() == "feasible"
    code, out, _ = run("smith", "check", "--a", "2", "--b", "0", "--c", "1,1")
    assert code == 0
    assert out.strip() == "infeasible"


def test_smith_enumerate(run):
    code, out, _ = run("--json", "smith", "enumerate", "--a", "1", "--b", "1")
    assert code == 0
    assert json.loads(out) == [[2, 0], [1, 1]]


def test_oracle_lr(run):
    code, out, _ = run(
        "oracle", "lr", "--mu", "2,1", "--nu", "2,1", "--lambda", "3,2,1"
    )
    assert code == 0
    assert out.strip() == "2"


def test_oracle_matrix(run):
    code, out, _ = run(
        "--json", "oracle", "matrix", "--a", "1", "--b", "1", "--l", "2"
    )
    assert code == 0
    assert json.loads(out) == [[2, 0], [1, 1]]
    code, out, _ = run("oracle", "matrix", "--a", "1", "--b", "1", "--l", "2")
    assert code == 0
    assert out == "2,0\n1,1\n"


def test_oracle_matrix_refuses_large_sweep(run):
    code, out, err = run(
        "oracle", "matrix", "--a", "100000", "--b", "100000", "--l", "3"
    )
    assert code == 1
    assert out == ""
    assert err == "error: sweep size l^100000 exceeds MAX_BLOCK_SWEEP=200000\n"


def test_oracle_operator(run):
    code, out, _ = run(
        "--json", "oracle", "operator", "--slopes", "1,2", "--l", "2",
        "--prec", "4"
    )
    assert code == 0
    assert json.loads(out) == [[3, 0], [2, 1]]


def test_usage_error_exits_two(capsys):
    with pytest.raises(SystemExit) as exc:
        main(["horn", "triples", "--n", "4"])
    assert exc.value.code == 2


def test_cli_writes_no_files(capsys, monkeypatch, tmp_path):
    monkeypatch.setenv("HOME", str(tmp_path))
    monkeypatch.chdir(tmp_path)
    assert main(["--json", "horn", "triples", "--n", "5", "--p", "2"]) == 0
    assert json.loads(capsys.readouterr().out)
    assert list(tmp_path.iterdir()) == []


def test_horn_reduce(run):
    code, out, _ = run("--json", "horn", "reduce", "--s", "1", "--t", "1")
    assert code == 0
    payload = json.loads(out)
    assert sorted(payload["kept"]) == ["a1 >= c2", "b1 >= c2"]
    assert "a1+b1 >= c1" in payload["removed_structural"]


def test_horn_reduce_rejects_empty_block(run):
    for s in ("0", "-2"):
        code, out, err = run("horn", "reduce", "--s", s, "--t", "3")
        assert code == 1
        assert out == ""
        assert err.strip() == "error: need s, t >= 1"


def test_horn_triples_rejects_empty_block(run):
    for st in ("0,3", "3,0"):
        code, out, err = run("horn", "triples", "--n", "3", "--p", "1", "--st", st)
        assert code == 1
        assert out == ""
        assert err.strip() == "error: need s, t >= 1"


def test_verify_paper_lists_subcommand(run):
    code, out, _ = run("--json", "verify", "paper-lists")
    assert code == 0
    payload = json.loads(out)
    assert payload["rows_checked"] == 101
    assert payload["scalar_prune_confirmed"] is True
    assert payload == json.loads(json.dumps(verify_paper_lists().to_json()))
