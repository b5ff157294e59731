import json

import pytest

from hypergraph_spectra import cli, repro, spectral
from hypergraph_spectra.cli import main, parse_family
from hypergraph_spectra.hypergraphs import (
    complete,
    complete_cylinder,
    from_edge_list,
    single_edge,
    tetra_minus_face,
    ultracube,
)
from hypergraph_spectra.spectral import verify_eigenpair


def run(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_parse_family_grammar():
    assert parse_family("complete:n=4,k=3") == complete(4, 3)
    assert parse_family("cylinder:parts=2,3") == complete_cylinder([2, 3])
    assert parse_family("ultracube:k=3,d=2") == ultracube(3, 2)
    assert parse_family("single-edge", default_k=4) == single_edge(4)
    assert parse_family("single-edge:k=2") == single_edge(2)
    assert parse_family("tetra-minus-face") == tetra_minus_face()


def test_parse_family_rejects_garbage():
    with pytest.raises(ValueError):
        parse_family("moebius:n=4")
    with pytest.raises(ValueError):
        parse_family("complete:n=4")  # k missing
    with pytest.raises(ValueError):
        parse_family("complete:n=4,k=3,spin=up")
    with pytest.raises(ValueError):
        parse_family("cylinder:2,3")
    with pytest.raises(ValueError, match="parameter n takes one value"):
        parse_family("complete:n=4,5,k=3")
    with pytest.raises(ValueError, match="parameter n given twice"):
        parse_family("complete:n=4,n=5,k=3")


def _replace_builders(monkeypatch, build):
    """Point every _FAMILIES row at build, keeping its parameters and
    count."""
    for name, (_, pnames, count) in list(cli._FAMILIES.items()):
        monkeypatch.setitem(cli._FAMILIES, name, (build, pnames, count))


def test_family_price_refuses_before_building(capsys, monkeypatch):
    # a count over the budget must not hide a builder's message
    for spec, message in (("complete:n=4,k=-1", "non-negative"),
                          ("complete:n=1000000,k=1", "at least 2"),
                          ("ultracube:k=3,d=0", "dimension"),
                          ("ultracube:k=-3,d=21", "at least 2"),
                          ("cylinder:parts=2,0", "not all positive"),
                          ("cylinder:parts=-40,40,40,40,-40",
                           "not all positive"),
                          ("cylinder:parts=1000000000", "two parts")):
        with pytest.raises(ValueError, match=message):
            parse_family(spec)
    # 40,40,40,40,40 has 1.0e8 edges, about 30 GB once built
    built = []
    _replace_builders(monkeypatch, lambda *a: built.append(a))
    spec = "cylinder:parts=40,40,40,40,40"
    for args in (("gen",), ("charpoly",), ("coeffs",), ("traces",),
                 ("lambda-max",), ("bounds",), ("color",), ("family",),
                 ("verify", "--value", "1", "--vector", "1")):
        code, out, err = run(capsys, *args, "--family", spec)
        assert code == 1 and out == "", args
        message, estimate = err.splitlines()
        assert message == ("error: family 'cylinder' has 102400000 edges, "
                           "which would take 117187 MiB (budget 1024 MiB)")
        estimate = json.loads(estimate)
        assert estimate["edges"] == 40 ** 5
        assert estimate["predicted_bytes"] > estimate["max_bytes"]
    assert built == []


def test_gen_round_trip(capsys, tmp_path):
    code, out, _ = run(capsys, "gen", "--family", "complete:n=4,k=3")
    assert code == 0
    assert from_edge_list(out) == complete(4, 3)

    code, out, _ = run(capsys, "gen", "--family", "ultracube:k=3,d=2")
    assert code == 0
    assert from_edge_list(out) == ultracube(3, 2)

    path = tmp_path / "h.hg"
    path.write_text(out)
    code, out2, _ = run(capsys, "gen", "--file", str(path))
    assert code == 0 and out2 == out


def test_charpoly_text(capsys):
    code, out, err = run(capsys, "charpoly", "--family", "single-edge", "--k", "3")
    assert code == 0
    assert out.strip() == "L^12 - 3*L^9 + 3*L^6 - L^3"
    assert "method=" in err


def test_charpoly_stderr_reports_bits(capsys):
    code, _, err = run(capsys, "charpoly", "--family", "single-edge", "--k", "3")
    assert code == 0
    timings = json.loads(err.split("timings=", 1)[1])
    # phi = L^12 - 3L^9 + 3L^6 - L^3; its 3- and 1-row blocks each need
    # one prime for their bounds, before a lift could settle, and a
    # held-out prime
    assert timings["phi_bits"] == 2
    assert timings["crt_mode"] == {"early": 0, "bound": 2}
    assert timings["bound_primes"] == timings["primes"] == 2
    assert timings["kernel_calls"] == 4
    assert timings["kernel_ops"] == 2 * 3 ** 3 + 2 * 1 ** 3
    code, _, err = run(capsys, "charpoly", "--family", "complete:n=5,k=3")
    assert code == 0
    timings = json.loads(err.split("timings=", 1)[1])
    # the 137-row block's 80 bits settle on six 25-bit primes; its bound
    # asks for ten
    assert timings["crt_mode"] == {"early": 1, "bound": 4}
    assert timings["bound_primes"] == 15
    assert timings["primes"] == 11


def test_charpoly_stderr_reports_cancelled_blocks(capsys, tmp_path):
    # two 3-edges through one vertex, passed as one edge-list file; two
    # disjoint 3-edges would be split into components, and the 15-row
    # matrix of a single 3-edge has no block to cancel
    path = tmp_path / "two-edges.hg"
    path.write_text("5 3\n1 2 3\n3 4 5\n")
    code, _, err = run(capsys, "charpoly", "--file", str(path))
    assert code == 0
    assert "method=modular size=210" in err
    timings = json.loads(err.split("timings=", 1)[1])
    assert timings["cancelled_blocks"] > 0
    assert timings["largest_block"] < 210
    assert timings["distinct_blocks"] < (timings["blocks"]
                                         - timings["cancelled_blocks"])


def test_charpoly_json_is_deterministic(capsys):
    # two runs print the same bytes
    args = ["charpoly", "--family", "tetra-minus-face", "--format", "json"]
    code1, out1, _ = run(capsys, *args)
    code2, out2, _ = run(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["degree"] == 32
    assert payload["coefficients"][0] == [32, "1"]


def test_coeffs_simplex_constant(capsys):
    code, out, _ = run(capsys, "coeffs", "--family", "complete:n=4,k=3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["coefficients"] == ["1", "0", "0", "-24", "-42"]
    assert payload["implied_simplex_constant"] == "21"
    code, out, _ = run(capsys, "coeffs", "--family", "complete:n=4,k=3")
    assert code == 0
    assert out.splitlines() == [
        "codegree 0: 1", "codegree 1: 0", "codegree 2: 0", "codegree 3: -24",
        "codegree 4: -42", "implied simplex constant: 21"]


def test_traces_text(capsys):
    code, out, _ = run(capsys, "traces", "--family", "single-edge", "--k", "3",
                       "--max-codegree", "3")
    assert code == 0
    lines = out.strip().splitlines()
    assert lines[0] == "Tr_0 = 12"
    assert lines[1] == "Tr_1 = 0"
    assert lines[3] == "Tr_3 = 9"
    code, out, _ = run(capsys, "traces", "--family", "single-edge", "--k", "3",
                       "--max-codegree", "3", "--format", "json")
    assert code == 0
    assert json.loads(out) == {"n": 3, "k": 3,
                               "traces": ["12", "0", "0", "9"]}


def test_spectrum_json(capsys):
    code, out, _ = run(capsys, "spectrum", "--family", "cylinder:parts=1,1,1",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload["values"]) == 4
    reals = sorted(re for re, im in payload["values"])
    assert any(abs(v - 1) < 1e-9 for v in reals)

    code, out, _ = run(capsys, "spectrum", "--family", "complete:n=4,k=3",
                       "--format", "json")
    payload = json.loads(out)
    assert any(abs(re - 3) < 1e-6 and abs(im) < 1e-9
               for re, im in payload["values"])

    code, out, _ = run(capsys, "spectrum", "--family", "cylinder:parts=1,1,1")
    assert code == 0
    lines = out.splitlines()
    assert len(lines) == 4
    assert lines[0] == "+0.000000000+0.000000000i  residual 0.00e+00  [0]"
    assert lines[1].startswith("+1.000000000-0.000000000i  residual ")
    assert lines[1].endswith("  [rot0 of (-1,-1,-1)^(2/3)]")


def test_spectrum_guard_refuses_a_cylinder_before_building_it(capsys,
                                                              monkeypatch):
    # [40]*5 has 1.0e8 edges and too many phase assignments; [1,700,700]
    # few enough assignments but 8.7e12 link products in its witness checks
    built = []
    monkeypatch.setattr(spectral, "complete_cylinder", built.append)
    _replace_builders(monkeypatch, lambda *a: built.append(a))
    for parts in ("40,40,40,40,40", "1,700,700"):
        code, out, err = run(capsys, "spectrum", "--family",
                             f"cylinder:parts={parts}")
        assert code == 1 and out == ""
        assert "exceed the guard" in err and '"predicted_ops"' in err
    assert built == []
    # bad parameters keep their messages
    for spec, message in (("cylinder:parts=2,0", "not all positive integers"),
                          ("cylinder:parts=2,x", "invalid literal"),
                          ("cylinder:parts=2,2,spin=up", "unused family"),
                          ("cylinder", "needs parts="),
                          ("moebius:n=3", "unknown family")):
        code, out, err = run(capsys, "spectrum", "--family", spec)
        assert code == 1 and message in err, spec
    assert built == []
    # other families are refused before anything is built: complete(30,5)
    # has 142506 edges, ultracube(3,9) 59049
    for spec in ("complete:n=30,k=5", "ultracube:k=3,d=9",
                 "tetra-minus-face"):
        code, out, err = run(capsys, "spectrum", "--family", spec)
        assert code == 1 and out == "", spec
        assert err == ("error: spectrum supports complete (k=3), cylinder, "
                       "and single-edge\n")
    assert built == []


def test_spectrum_builds_complete_once(capsys, monkeypatch):
    built = []

    def counted(n, k):
        built.append((n, k))
        return complete(n, k)

    monkeypatch.setattr(spectral, "complete", counted)
    _replace_builders(monkeypatch, counted)
    code, out, _ = run(capsys, "spectrum", "--family", "complete:n=5,k=3")
    assert code == 0 and built == [(5, 3)]
    assert [(line.split("  residual ")[0], line.split("  ")[-1])
            for line in out.splitlines()] == [
        ("+6.000000000+0.000000000i", "[C(4,2)]"),
        ("+1.000000000+0.000000000i", "[1]"),
        ("+0.000000000+0.000000000i", "[0]"),
        ("+0.000000000+3.000000000i", "[t=1, c=-1+1i]"),
        ("+0.000000000-3.000000000i", "[t=1, c=-1-1i]"),
        ("-0.607353218+0.000000000i", "[t=2, c=-3.54682]"),
        ("-1.696323391+1.435949864i", "[t=2, c=-0.726591+0.563821i]"),
        ("-1.696323391-1.435949864i", "[t=2, c=-0.726591-0.563821i]")]


def test_lambda_max_json(capsys):
    code, out, _ = run(capsys, "lambda-max", "--family", "complete:n=4,k=3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert abs(payload["value"] - 3) < 1e-8
    assert payload["converged"] is True
    assert payload["lower"] <= payload["value"] <= payload["upper"]
    code, out, _ = run(capsys, "lambda-max", "--family", "complete:n=4,k=3")
    assert code == 0
    assert out == "lambda_max = 3 in [3, 3] after 1 iterations\n"


def test_bounds_json(capsys):
    code, out, _ = run(capsys, "bounds", "--family", "tetra-minus-face",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["d"] == 2.25
    assert payload["d_exact"] == "9/4"
    assert payload["Delta"] == 3
    assert payload["pass"] is True
    code, out, _ = run(capsys, "bounds", "--family", "tetra-minus-face")
    assert code == 0
    assert out == "d = 9/4 <= lambda_max = 2.28942849 <= Delta = 3: PASS\n"


def test_color(capsys):
    code, out, _ = run(capsys, "color", "--family", "complete:n=4,k=3",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["count"] == 2
    assert sorted(payload["colors"]) == ["0", "1", "2", "3"]
    code, out, _ = run(capsys, "color", "--family", "complete:n=4,k=3")
    assert code == 0
    summary, colors = out.splitlines()
    assert summary == f"2 colors, degeneracy {payload['degeneracy']}"
    assert colors.split() == [str(payload["colors"][str(v)])
                              for v in range(4)]


def test_verify_exit_codes(capsys):
    ok = ["verify", "--family", "single-edge", "--k", "3",
          "--vector", "1,1,1"]
    code, out, _ = run(capsys, *ok, "--value", "1")
    assert code == 0 and "PASS" in out
    code, out, _ = run(capsys, *ok, "--value", "2")
    assert code == 2 and "FAIL" in out
    for value, code_want, passed in (("1", 0, True), ("2", 2, False)):
        code, out, _ = run(capsys, *ok, "--value", value, "--format", "json")
        payload = json.loads(out)
        assert code == code_want and payload["pass"] is passed
        assert payload["value"] == [float(value), 0.0]


def test_verify_complex_vector(capsys):
    code, out, _ = run(capsys, "verify", "--family", "single-edge", "--k", "3",
                       "--value", "1",
                       "--vector", "1,-0.5+0.8660254037844387j,"
                                   "-0.5-0.8660254037844387j")
    assert code == 0


def test_verify_checks_a_real_eigenpair_in_real_arithmetic(capsys):
    # on complete(5,4) this pair's residual in float64 and in complex128
    # differ in the last bit; the command must give the float64 one
    h = complete(5, 4)
    value, vector = 4.314, [1.691, 1.157, 1.32, 0.453, 1.986]
    real = verify_eigenpair(h, value, vector)
    assert real != verify_eigenpair(h, complex(value),
                                    [complex(v) for v in vector])
    code, out, _ = run(capsys, "verify", "--family", "complete:n=5,k=4",
                       "--value", str(value),
                       "--vector", ",".join(map(str, vector)),
                       "--format", "json")
    payload = json.loads(out)
    assert code == 2 and payload["residual"] == real
    assert payload["value"] == [value, 0.0]


def test_family_summary(capsys):
    code, out, _ = run(capsys, "family", "--family", "ultracube:k=3,d=2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["n"] == 9 and payload["num_edges"] == 6
    assert abs(payload["sporadic_value"] - 2 ** (1 / 3)) < 1e-12
    code, out, _ = run(capsys, "family", "--family", "ultracube:k=3,d=2")
    assert code == 0
    lines = out.splitlines()
    assert lines == sorted(lines) and len(lines) == len(payload)
    assert "n: 9" in lines and "num_edges: 6" in lines
    assert "connected: True" in lines


def test_usage_errors(capsys):
    assert run(capsys, "charpoly")[0] == 1            # no input
    assert run(capsys, "nonsense")[0] == 1            # unknown command
    assert run(capsys)[0] == 1                        # no command
    code, _, err = run(capsys, "charpoly", "--family", "moebius:n=3")
    assert code == 1 and "unknown family" in err
    code, _, err = run(capsys, "charpoly", "--family", "complete:n=4,k=3",
                       "--file", "x.hg")
    assert code == 1 and "not both" in err
    for command in ("spectrum", "family"):
        code, out, err = run(capsys, command, "--family", "single-edge:k=3",
                             "--file", "x.hg")
        assert code == 1 and out == ""
        assert "unrecognized arguments: --file" in err
        code, out, err = run(capsys, command)
        assert code == 1 and out == ""
        assert "arguments are required: --family" in err
    code, _, err = run(capsys, "lambda-max", "--family", "single-edge",
                       "--k", "3", "--tol", "0")
    assert code == 1 and "positive" in err


def test_nan_tolerance_is_an_input_error(capsys):
    for args in (("lambda-max", "--family", "complete:n=5,k=3"),
                 ("verify", "--family", "single-edge", "--k", "3",
                  "--value", "1", "--vector", "1,1,1")):
        code, out, err = run(capsys, *args, "--tol", "nan")
        assert code == 1 and out == "", args
        assert "tolerance must be positive" in err


def test_non_finite_eigenpair_is_an_input_error(capsys):
    # 1e200 is finite, but its square overflows a double
    for value, vector, why in (("nan", "nan,nan,nan,nan", "non-finite"),
                               ("3", "1,1,nan,1", "non-finite"),
                               ("3", "1,1,1e200,1", "overflows")):
        code, out, err = run(capsys, "verify", "--family", "complete:n=4,k=3",
                             "--value", value, "--vector", vector)
        assert code == 1 and out == "", vector
        assert why in err


def test_lambda_max_rejects_zero_iterations(capsys):
    code, out, err = run(capsys, "lambda-max", "--family", "complete:n=4,k=3",
                         "--max-iter", "0")
    assert code == 1 and out == "" and "max_iter" in err


def test_malformed_edge_list(capsys, tmp_path):
    path = tmp_path / "bad.hg"
    path.write_text("4 3\n1 2\n")
    code, _, err = run(capsys, "charpoly", "--file", str(path))
    assert code == 1
    assert "line 2" in err


def test_repro_single_claim(capsys):
    code, out, _ = run(capsys, "repro", "--only", "single-edge-charpoly-k2",
                       "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert len(payload) == 1
    assert payload[0]["claim"] == "single-edge-charpoly-k2"
    assert payload[0]["match"] is True
    code, out, _ = run(capsys, "repro", "--only", "single-edge-charpoly-k2")
    assert code == 0
    row, summary = out.splitlines()
    assert row.startswith("ok  single-edge-charpoly-k2  ")
    assert row.endswith("s  expected L^2 - 1 | computed L^2 - 1")
    assert summary == "1/1 claims match"


def test_repro_text_marks_a_mismatch(capsys, monkeypatch):
    rows = [repro.ClaimResult("a", "default", "", "1", "1", True, 0.5),
            repro.ClaimResult("long-id", "slow", "", "1", "2", False, 2.0)]
    monkeypatch.setattr(repro, "run_all", lambda include_slow: rows)
    code, out, _ = run(capsys, "repro")
    assert code == 2
    assert out.splitlines() == [
        "ok  a            0.50s  expected 1 | computed 1",
        "ERR long-id      2.00s  expected 1 | computed 2",
        "1/2 claims match"]


def test_repro_unknown_claim(capsys):
    code, _, err = run(capsys, "repro", "--only", "no-such-claim")
    assert code == 1 and "unknown claim" in err


def test_repro_has_one_gate_option(capsys):
    code, out, err = run(capsys, "repro", "--include-stretch")
    assert code == 1 and out == ""
    assert "unrecognized arguments: --include-stretch" in err


def test_negative_codegree_cap_is_an_input_error(capsys):
    for command, cap in (("traces", "-1"), ("coeffs", "-2")):
        code, out, err = run(capsys, command, "--family", "complete:n=4,k=3",
                             "--max-codegree", cap)
        assert code == 1 and out == "" and "codegree" in err


def test_charpoly_guard_prints_the_estimate(capsys):
    code, out, err = run(capsys, "charpoly", "--family", "complete:n=6,k=4")
    assert code == 1 and out == ""
    message, estimate = err.splitlines()
    assert message.startswith("error: ") and "kernel operations" in message
    estimate = json.loads(estimate)
    assert estimate["predicted_ops"] > estimate["max_kernel_ops"]
    assert estimate["largest_block"] > 0 and estimate["bound_primes"] > 0


def test_repro_checks_every_claim_id_before_running(capsys, monkeypatch):
    ran = []
    monkeypatch.setattr(repro, "charpoly", lambda *a, **kw: ran.append(a))
    code, out, err = run(capsys, "repro", "--only", "single-edge-charpoly-k2",
                         "--only", "no-such-claim")
    assert code == 1 and out == "" and "unknown claim" in err
    assert ran == []
