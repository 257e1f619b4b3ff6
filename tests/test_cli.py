import json

import numpy as np
import pytest

from epspline import InvalidInputError
from epspline.cli import (
    ExperimentConfig,
    main,
    parse_node_spec,
    run_experiment,
)
from epspline.nodes import equispaced

GREEDY_FILES = {
    "trace.csv", "selected.csv", "error.csv", "lebesgue.csv",
    "plot_selected.svg", "plot_error.svg", "plot_lebesgue.svg", "plot_trace.svg",
    "summary.json",
}


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


class TestParsing:
    def test_node_spec(self):
        spec = parse_node_spec("halton:42")
        assert spec.kind == "halton" and spec.count == 42

    def test_node_spec_bad(self):
        assert main(["lgreedy", "--nodes", "equispaced"]) == 1
        assert main(["lgreedy", "--nodes", "equispaced:x"]) == 1
        assert main(["lgreedy", "--nodes", "weird:10"]) == 1

    def test_config_file_flag_is_gone(self, tmp_path, capsys):
        # flags are the one way to configure a run; there is no config file
        cfgfile = tmp_path / "run.cfg"
        cfgfile.write_text("tau = 2.5\n")
        assert main(["lgreedy", "--config", str(cfgfile)]) == 1
        assert capsys.readouterr().err == \
            f"invalid input: unrecognized arguments: --config {cfgfile}\n"


class TestRunExperiment:
    def test_lgreedy_artifacts(self, tmp_path):
        out = tmp_path / "lg"
        cfg = ExperimentConfig(algorithm="lgreedy", nodes="equispaced:60",
                               tau=2.5, out=str(out))
        summary = run_experiment(cfg)
        assert summary["status"] == "ok"
        assert {p.name for p in out.iterdir()} == GREEDY_FILES
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,selected_x,criterion,kappa2,sparsity"
        # header + one row per insertion + terminal row
        assert len(trace) == 1 + (summary["n_selected"] - 4) + 1

    def test_fgreedy_summary_fields(self, tmp_path):
        out = tmp_path / "fg"
        cfg = ExperimentConfig(algorithm="fgreedy", fn="atan55",
                               nodes="equispaced:120", tau=1e-2, out=str(out))
        summary = run_experiment(cfg)
        for key in ("n_selected", "final_criterion", "lebesgue_constant",
                    "kappa2", "sparsity", "stop_reason", "wall_time_s"):
            assert key in summary
        assert summary["stop_reason"] == "tau"
        assert summary["final_criterion"] <= 1e-2

    def test_kernel_artifacts(self, tmp_path):
        out = tmp_path / "k"
        cfg = ExperimentConfig(algorithm="kernel", fn="xsq", nodes="equispaced:80",
                               no_stop=True, max_iter=20, out=str(out))
        summary = run_experiment(cfg)
        assert summary["n_selected"] == 20
        assert {p.name for p in out.iterdir()} == GREEDY_FILES

    def test_lebesgue_artifacts(self, tmp_path):
        out = tmp_path / "leb"
        cfg = ExperimentConfig(algorithm="lebesgue", nodes="chebyshev:8",
                               out=str(out))
        summary = run_experiment(cfg)
        assert {p.name for p in out.iterdir()} == {
            "selected.csv", "lebesgue.csv", "plot_selected.svg",
            "plot_lebesgue.svg", "summary.json",
        }
        assert summary["lebesgue_constant"] >= 1.0

    def test_nodes_artifacts(self, tmp_path):
        out = tmp_path / "n"
        cfg = ExperimentConfig(algorithm="nodes", nodes="halton:16", out=str(out))
        summary = run_experiment(cfg)
        assert summary["n_selected"] == 16
        assert {p.name for p in out.iterdir()} == {
            "selected.csv", "plot_selected.svg", "summary.json",
        }

    def test_inspace_target_fgreedy_stops_fast(self, tmp_path):
        out = tmp_path / "ins"
        cfg = ExperimentConfig(algorithm="fgreedy", fn="inspace", seed=3,
                               nodes="equispaced:50", tau=1e-3, out=str(out))
        summary = run_experiment(cfg)
        assert summary["status"] == "ok"

    def test_tabulated_target(self, tmp_path):
        xs = np.linspace(-1, 1, 40)
        # abscissas written in full or with 15 significant digits both match
        for digits in ("", ".15g"):
            table = tmp_path / f"data{digits}.csv"
            table.write_text("x,y\n" + "\n".join(f"{x:{digits}},{x * x}" for x in xs))
            out = tmp_path / f"tab{digits}"
            cfg = ExperimentConfig(algorithm="fgreedy", fn=f"tab:{table}",
                                   nodes="equispaced:40", tau=1e-4, out=str(out))
            summary = run_experiment(cfg)
            assert summary["status"] == "ok"

    def test_tabulated_mismatch_rejected(self, tmp_path):
        table = tmp_path / "data.csv"
        table.write_text("x,y\n0.0,0.0\n0.5,0.25\n")
        code = main(["fgreedy", "--fn", f"tab:{table}", "--nodes", "equispaced:40",
                     "--out", str(tmp_path / "bad")])
        assert code == 1

    @pytest.mark.parametrize("setting", [
        {"algorithm": "lebesgue", "grid": 2.5},
        {"algorithm": "fgreedy", "fn": "inspace", "seed": 1.5},
        {"algorithm": "lgreedy", "max_iter": 5.5},
    ], ids=["grid", "seed", "max_iter"])
    def test_non_integral_setting_rejected(self, tmp_path, setting):
        # a library caller is not behind argparse's int type
        name = next(k for k in setting if k not in ("algorithm", "fn"))
        cfg = ExperimentConfig(nodes="equispaced:20", out=str(tmp_path / "out"), **setting)
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algorithm", ["fgreedy", "lgreedy", "kernel", "lebesgue"])
    def test_spline_matrix_never_dense(self, tmp_path, forbid_dense, algorithm):
        cfg = ExperimentConfig(algorithm=algorithm, nodes="equispaced:40", max_iter=12,
                               out=str(tmp_path / algorithm))
        assert run_experiment(cfg)["status"] == "ok"

    def test_csv_determinism(self, tmp_path):
        texts = []
        for name in ("a", "b"):
            out = tmp_path / name
            cfg = ExperimentConfig(algorithm="lgreedy", nodes="halton:70",
                                   tau=2.5, out=str(out))
            run_experiment(cfg)
            texts.append({p.name: p.read_bytes() for p in out.iterdir()
                          if p.suffix in (".csv", ".svg")})
        assert texts[0] == texts[1]

    def test_csv_floats_have_17_significant_digits(self, tmp_path):
        out = tmp_path / "digits"
        cfg = ExperimentConfig(algorithm="lgreedy", nodes="equispaced:40",
                               tau=2.5, out=str(out))
        run_experiment(cfg)
        line = (out / "lebesgue.csv").read_text().splitlines()[5]
        mantissa = line.split(",")[1].split("e")[0].replace("-", "").replace(".", "")
        assert len(mantissa.rstrip("0")) <= 17
        third = (out / "trace.csv").read_text().splitlines()[1]
        value = third.split(",")[2]
        assert len(value.split("e")[0].replace("-", "").replace(".", "")
                   .rstrip("0")) >= 10  # full precision retained


class TestExitCodes:
    def test_invalid_input_is_one(self, tmp_path, capsys):
        assert main(["lgreedy", "--alpha", "-1"]) == 1
        assert main(["lgreedy", "--grid", "1"]) == 1
        assert main(["fgreedy", "--fn", "nope"]) == 1
        capsys.readouterr()
        # numpy's default_rng would raise its own ValueError for a negative seed
        assert main(["fgreedy", "--fn", "inspace", "--seed", "-1",
                     "--nodes", "equispaced:20", "--out", str(tmp_path / "seed")]) == 1
        assert capsys.readouterr().err == "invalid input: seed must be nonnegative, got -1\n"
        # every greedy starts from 4 nodes, so a smaller cap cannot hold
        assert main(["lgreedy", "--no-stop", "--max-iter", "3",
                     "--out", str(tmp_path / "cap")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: max_iter must be at least 4") \
            and err.count("\n") == 1
        # NaN would be written into summary.json, which is then not JSON
        assert main(["nodes", "--nodes", "equispaced:5", "--alpha", "nan",
                     "--out", str(tmp_path / "nan")]) == 1
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["reproduce-all", "--out", str(afile)]) == 1

    def test_numerical_failure_is_two(self, tmp_path):
        # alpha * longest interval above the overflow limit
        out = tmp_path / "fail"
        code = main(["lgreedy", "--nodes", "equispaced:4", "--alpha", "2000",
                     "--out", str(out)])
        assert code == 2
        summary = read_summary(out)
        assert summary["status"] == "FAILED"

    def test_overflowing_local_system_is_two(self, tmp_path, capsys):
        # alpha * h = 698.7: under the overflow limit, but the local systems
        # overflow; that is a numerical failure, not a traceback
        out = tmp_path / "overflow"
        code = main(["lgreedy", "--nodes", "equispaced:4", "--alpha", "1048",
                     "--out", str(out)])
        assert code == 2
        assert "numerical failure: iteration 0: local system for basis function 0" \
            in capsys.readouterr().err
        assert read_summary(out)["status"] == "FAILED"

    @pytest.mark.parametrize("case", ["tab_cell", "tab_missing", "tab_nan", "out_is_file"])
    def test_bad_input_file_is_one(self, tmp_path, case):
        table = tmp_path / "data.csv"
        table.write_text("x,y\n" + "\n".join(f"{x},{x}" for x in range(-4, 4))
                         + "\n4,four\n")
        # matching abscissas, one value not finite
        nantable = tmp_path / "nan.csv"
        nantable.write_text("x,y\n" + "\n".join(
            f"{x},{'nan' if i == 4 else x}" for i, x in enumerate(equispaced(9))))
        missing = str(tmp_path / "missing")
        extra = {
            "tab_cell": ["--fn", f"tab:{table}"],
            "tab_missing": ["--fn", f"tab:{missing}"],
            "tab_nan": ["--fn", f"tab:{nantable}"],
            "out_is_file": ["--out", str(table)],
        }[case]
        assert main(["fgreedy", "--nodes", "equispaced:9",
                     "--out", str(tmp_path / "bad"), *extra]) == 1

    def test_greedy_failure_writes_partial_trace(self, tmp_path, monkeypatch):
        import epspline.greedy as greedy_mod
        from epspline import SingularSystemError

        real_factorize = greedy_mod.factorize
        calls = {"n": 0}

        def flaky(matrix):
            calls["n"] += 1
            if calls["n"] > 3:
                raise SingularSystemError("synthetic failure")
            return real_factorize(matrix)

        monkeypatch.setattr(greedy_mod, "factorize", flaky)
        out = tmp_path / "partial"
        code = main(["lgreedy", "--nodes", "equispaced:40", "--no-stop",
                     "--max-iter", "30", "--out", str(out)])
        assert code == 2
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,selected_x,criterion,kappa2,sparsity"
        assert [row.split(",")[0] for row in trace[1:]] == ["0", "1", "2"]
        summary = read_summary(out)
        assert summary["status"] == "FAILED"
        assert summary["stop_reason"] == "error"

    @pytest.mark.parametrize("argv", [
        ["--nodes", "equispaced:8", "--grid", str(10 ** 20)],
        ["--nodes", f"equispaced:{10 ** 20}"],
        ["--nodes", f"chebyshev:{10 ** 20}"],
        ["--nodes", f"halton:{10 ** 20}"],
    ], ids=["grid", "equispaced", "chebyshev", "halton"])
    def test_size_past_numpy_limit_is_one(self, tmp_path, capsys, argv):
        # numpy refuses these sizes before allocating anything
        assert main(["lebesgue", *argv, "--out", str(tmp_path / "big")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: size too large") and err.count("\n") == 1

    def test_size_past_host_memory_is_one(self, tmp_path, capsys, monkeypatch):
        # the 745 GiB grid of --grid 1e11, refused by a stand-in for the
        # allocation so that no host ever tries to commit it
        real_linspace = np.linspace

        def linspace(start, stop, num, *args, **kwargs):
            if num > 10 ** 9:
                raise MemoryError(f"Unable to allocate {8 * num / 2 ** 30:.0f} GiB")
            return real_linspace(start, stop, num, *args, **kwargs)

        monkeypatch.setattr(np, "linspace", linspace)
        assert main(["lebesgue", "--nodes", "equispaced:8", "--grid", str(10 ** 11),
                     "--out", str(tmp_path / "big")]) == 1
        err = capsys.readouterr().err
        assert err == "invalid input: size too large: Unable to allocate 745 GiB\n"

    def test_success_is_zero(self, tmp_path):
        assert main(["nodes", "--nodes", "equispaced:5",
                     "--out", str(tmp_path / "ok")]) == 0
