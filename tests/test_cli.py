import contextlib
import io
import json
import sys
import tempfile
import warnings
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from epspline import InvalidInputError
from epspline.cli import (
    SUBCOMMANDS,
    ExperimentConfig,
    main,
    parse_node_spec,
    run_experiment,
)
from epspline.nodes import KINDS, equispaced, generate

GREEDY_FILES = {
    "trace.csv", "selected.csv", "error.csv", "lebesgue.csv",
    "plot_selected.svg", "plot_error.svg", "plot_lebesgue.svg", "plot_trace.svg",
    "summary.json",
}

# for each setting but out, a valid value other than the ExperimentConfig default
OTHER_VALUE = {"nodes": "halton:9", "fn": "xsq", "alpha": 3.0, "tau": 1.0,
               "max_iter": 9, "grid": 100}


def read_summary(out):
    return json.loads((out / "summary.json").read_text())


# data of the tab: files that a drawn command line can name, at the candidates x
# ("short" has one row only); a name not here is a file that does not exist
TAB_DATA = {
    "huge": lambda x: 1e308 * (-1.0) ** np.arange(len(x)),
    "big": lambda x: np.full(len(x), -1e308),
    "subnormal": lambda x: 5e-324 * np.arange(len(x)),
    "mixed": lambda x: np.where(np.arange(len(x)) % 3, 1e308, 5e-324),
    "short": lambda x: x[:1],
}
# each setting's pools: values that parse, extreme ones included, and values
# that every subcommand rejects. Counts are at most 150 but for one past
# numpy's limit, which numpy refuses before allocating anything
POOLS = {
    "nodes": ([f"{kind}:{count}" for kind in KINDS for count in (2, 3, 4, 5, 9, 40, 150)],
              ["equispaced", "halton:x", "grid:9", "chebyshev:-4", f"equispaced:{10 ** 20}"]),
    "fn": (["xsq", "atan55", "inspace"] + [f"tab:{name}" for name in TAB_DATA],
           ["nope", "tab:missing"]),
    "alpha": (["1e-300", "5e-324", "1e308", "1000", "2", "0.5"],
              ["0", "-1", "nan", "inf", "-inf", "x"]),
    "tau": (["0", "1e-300", "5e-324", "1e308", "3", "1e-3"], ["-1", "nan", "inf", "x"]),
    "max_iter": (["3", "4", "5", "20", "150", "151"], ["-1", "0", "2.5", "1e308"]),
    "grid": (["2", "3", "400", str(10 ** 20)], ["-1", "0", "1", "1e3"]),
}
# the kernel's dense saddle system grows with every node: it always has a cap, at most 20
KERNEL_MAX_ITER = (["3", "4", "5", "20"], ["-1", "0", "2.5"])


@st.composite
def command_lines(draw):
    """``(argv without --out, {setting: value})``: a subcommand with --nodes and some of
    the other settings it reads, one time in ten one it does not; one value in six is
    drawn from the rejected pool."""
    name = draw(st.sampled_from(sorted(SUBCOMMANDS)))
    reads = set(SUBCOMMANDS[name].reads) & set(POOLS)
    settings = {"nodes"} | draw(st.sets(st.sampled_from(sorted(reads))))
    unread = sorted(set(POOLS) - reads)
    if unread and draw(st.integers(0, 9)) == 9:
        settings.add(draw(st.sampled_from(unread)))
    if name == "kernel":
        settings.add("max_iter")
    flags = {}
    for setting in sorted(settings):
        pools = KERNEL_MAX_ITER if (name, setting) == ("kernel", "max_iter") else POOLS[setting]
        flags[setting] = draw(st.sampled_from(pools[draw(st.integers(0, 5)) == 5]))
    argv = [name] + [a for k, v in flags.items() for a in ("--" + k.replace("_", "-"), v)]
    return argv, flags


class TestParsing:
    def test_node_spec(self):
        spec = parse_node_spec("halton:42")
        assert spec.kind == "halton" and spec.count == 42

    def test_node_spec_bad(self):
        assert main(["lgreedy", "--nodes", "equispaced"]) == 1
        assert main(["lgreedy", "--nodes", "equispaced:x"]) == 1
        assert main(["lgreedy", "--nodes", "weird:10"]) == 1

    @pytest.mark.parametrize("argv", [
        ["nodes", "--alpha", "2"],
        ["lebesgue", "--tau", "3"],
        ["lgreedy", "--seed", "1"],
        ["lgreedy", "--tau", "3", "--no-stop"],
    ], ids=["nodes-alpha", "lebesgue-tau", "lgreedy-seed", "tau-and-no-stop"])
    def test_setting_not_read_is_rejected(self, tmp_path, capsys, argv):
        # a flag a subcommand would ignore, or the removed --no-stop, is not dropped silently
        out = tmp_path / "out"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1
        assert not out.exists()

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
                               max_iter=20, out=str(out))
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

    @pytest.mark.parametrize("algorithm, setting", [
        (algorithm, setting) for algorithm, sub in SUBCOMMANDS.items()
        for setting in OTHER_VALUE if setting not in sub.reads
    ])
    def test_setting_not_read_is_rejected(self, tmp_path, algorithm, setting):
        out = tmp_path / "out"
        cfg = ExperimentConfig(algorithm, out=str(out), **{setting: OTHER_VALUE[setting]})
        with pytest.raises(InvalidInputError, match=f"{algorithm} does not read {setting}"):
            run_experiment(cfg)
        assert not out.exists()

    @pytest.mark.parametrize("algorithm, tau, fn", [
        ("fgreedy", 1e-3, "atan55"), ("lgreedy", 3.0, "xsq"), ("kernel", None, "xsq"),
    ])
    def test_summary_records_resolved_tau_and_fn(self, tmp_path, capsys, algorithm, tau, fn):
        # a run with neither flag says which threshold and target it ran with
        out = tmp_path / algorithm
        assert main([algorithm, "--nodes", "equispaced:40", "--out", str(out)]) == 0
        config = read_summary(out)["config"]
        assert (config["tau"], config["fn"]) == (tau, fn)
        assert json.loads(capsys.readouterr().out)["config"] == config

    def test_tau_zero_runs_lgreedy_to_max_iter(self, tmp_path):
        # the Lebesgue function is positive at every candidate, so tau = 0 never stops it
        out = tmp_path / "lg0"
        assert main(["lgreedy", "--nodes", "equispaced:40", "--tau", "0",
                     "--max-iter", "12", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert (summary["n_selected"], summary["stop_reason"]) == (12, "max_iter")
        assert len((out / "selected.csv").read_text().splitlines()) == 1 + 12

    def test_tau_zero_stops_residual_greedy_at_zero_residual(self, tmp_path):
        # every residual of an all-zero target is exactly 0, which is at most tau = 0
        table = tmp_path / "zeros.csv"
        table.write_text("x,y\n" + "\n".join(f"{x},0.0" for x in equispaced(40)) + "\n")
        out = tmp_path / "zero"
        assert main(["fgreedy", "--nodes", "equispaced:40", "--fn", f"tab:{table}",
                     "--tau", "0", "--out", str(out)]) == 0
        summary = read_summary(out)
        assert (summary["n_selected"], summary["stop_reason"]) == (4, "tau")
        assert summary["final_criterion"] == 0.0
        trace = (out / "trace.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in trace[1:]] == ["0"]

    def test_inspace_target_fgreedy_stops_fast(self, tmp_path):
        out = tmp_path / "ins"
        cfg = ExperimentConfig(algorithm="fgreedy", fn="inspace",
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

    def test_tabulated_file_read_once(self, tmp_path, monkeypatch):
        import epspline.cli as cli_mod

        table = tmp_path / "data.csv"
        table.write_text("x,y\n" + "\n".join(f"{x},{x * x}" for x in np.linspace(-1, 1, 40)))
        reads = []
        read = cli_mod._read_tabulated
        monkeypatch.setattr(cli_mod, "_read_tabulated",
                            lambda path: reads.append(path) or read(path))
        cfg = ExperimentConfig(algorithm="fgreedy", fn=f"tab:{table}",
                               nodes="equispaced:40", tau=1e-4, out=str(tmp_path / "tab"))
        assert run_experiment(cfg)["status"] == "ok"
        assert reads == [str(table)]

    def test_tabulated_mismatch_rejected(self, tmp_path, capsys):
        # a table is matched to the candidates before the output directory is made
        tables = {"one-row": ["0.0,0.0"], "two-rows": ["0.0,0.0", "0.5,0.25"],
                  "moved": [f"{x + 1e-9},{x}" for x in np.linspace(-1, 1, 40)]}
        for name, rows in tables.items():
            table = tmp_path / f"{name}.csv"
            table.write_text("x,y\n" + "\n".join(rows) + "\n")
            out = tmp_path / f"bad-{name}"
            code = main(["fgreedy", "--fn", f"tab:{table}", "--nodes", "equispaced:40",
                         "--out", str(out)])
            assert code == 1
            err = capsys.readouterr().err
            assert err.startswith("invalid input: tabulated ") and err.count("\n") == 1
            assert not out.exists()

    @pytest.mark.parametrize("argv", [
        ["fgreedy", "--nodes", "equispaced:3"],
        ["lgreedy", "--nodes", "equispaced:3"],
        ["kernel", "--nodes", "equispaced:3"],
        ["lgreedy", "--max-iter", "500"],
        ["kernel", "--nodes", "equispaced:8", "--max-iter", "9"],
    ], ids=["fgreedy-3", "lgreedy-3", "kernel-3", "lgreedy-cap", "kernel-cap"])
    def test_candidate_count_rejected(self, tmp_path, capsys, argv):
        # the greedy loop's rule on the candidates (the initial 4, and at least
        # --max-iter of them) is checked before the output directory is made
        out = tmp_path / "bad"
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: ") and err.count("\n") == 1
        assert not out.exists()

    @pytest.mark.parametrize("setting", [
        {"algorithm": "lebesgue", "grid": 2.5},
        {"algorithm": "lgreedy", "max_iter": 5.5},
    ], ids=["grid", "max_iter"])
    def test_non_integral_setting_rejected(self, tmp_path, setting):
        # a library caller is not behind argparse's int type
        name = next(k for k in setting if k != "algorithm")
        cfg = ExperimentConfig(nodes="equispaced:20", out=str(tmp_path / "out"), **setting)
        with pytest.raises(InvalidInputError, match=f"{name} must be an integer"):
            run_experiment(cfg)
        assert not (tmp_path / "out").exists()

    @pytest.mark.parametrize("algorithm", ["fgreedy", "lgreedy", "kernel", "lebesgue"])
    def test_spline_matrix_never_dense(self, tmp_path, forbid_dense, algorithm):
        cap = {} if algorithm == "lebesgue" else {"max_iter": 12}
        cfg = ExperimentConfig(algorithm=algorithm, nodes="equispaced:40",
                               out=str(tmp_path / algorithm), **cap)
        assert run_experiment(cfg)["status"] == "ok"

    @pytest.mark.parametrize("algorithm", ["lebesgue", "fgreedy", "lgreedy", "kernel"])
    def test_final_spline_assembled_and_factored_once(self, tmp_path, monkeypatch, algorithm):
        # after selection one collocation matrix and one factorization serve the
        # summary, lebesgue.csv and λ-greedy's error fit; a scan selects nothing
        import epspline.cli as cli_mod
        from epspline.banded import BandedLU
        from epspline.interpolate import collocation_matrix

        counts = {"selected": algorithm == "lebesgue", "collocation_matrix": 0, "BandedLU": 0}

        def counted(name, real):
            def call(*args, **kwargs):
                if counts["selected"]:
                    counts[name] += 1
                return real(*args, **kwargs)
            return call

        def selecting(real):
            def call(*args, **kwargs):
                result = real(*args, **kwargs)
                counts["selected"] = True
                return result
            return call

        for name in ("f_greedy", "lambda_greedy", "kernel_f_greedy"):
            monkeypatch.setattr(cli_mod, name, selecting(getattr(cli_mod, name)))
        monkeypatch.setattr(BandedLU, "__init__", counted("BandedLU", BandedLU.__init__))
        for module in list(sys.modules.values()):
            if module.__name__.startswith("epspline") \
                    and getattr(module, "collocation_matrix", None) is collocation_matrix:
                monkeypatch.setattr(module, "collocation_matrix",
                                    counted("collocation_matrix", collocation_matrix))
        cap = {} if algorithm == "lebesgue" else {"max_iter": 12}
        cfg = ExperimentConfig(algorithm=algorithm, nodes="equispaced:40",
                               out=str(tmp_path / algorithm), **cap)
        assert run_experiment(cfg)["status"] == "ok"
        assert counts == {"selected": True, "collocation_matrix": 1, "BandedLU": 1}

    @pytest.mark.parametrize("algorithm, nodes", [
        ("fgreedy", "equispaced:120"), ("fgreedy", "halton:90"),
        ("lgreedy", "chebyshev:100"), ("lgreedy", "equispaced:60"),
    ])
    def test_summary_describes_last_traced_matrix(self, tmp_path, algorithm, nodes):
        # the final spline is rebuilt from the selected nodes, bit for bit the
        # last refit's; the kernel's trace holds its saddle matrix instead
        out = tmp_path / algorithm
        summary = run_experiment(ExperimentConfig(algorithm=algorithm, nodes=nodes,
                                                  out=str(out)))
        header, *rows = (out / "trace.csv").read_text().splitlines()
        last = dict(zip(header.split(","), rows[-1].split(",")))
        assert float(last["kappa2"]) == summary["kappa2"]
        assert float(last["sparsity"]) == summary["sparsity"]

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
        # every greedy starts from 4 nodes, so a smaller cap cannot hold
        assert main(["lgreedy", "--tau", "0", "--max-iter", "3",
                     "--out", str(tmp_path / "cap")]) == 1
        err = capsys.readouterr().err
        assert err.startswith("invalid input: max_iter must be at least 4") \
            and err.count("\n") == 1
        # NaN would be written into summary.json, which is then not JSON
        assert main(["lebesgue", "--nodes", "equispaced:5", "--alpha", "nan",
                     "--out", str(tmp_path / "nan")]) == 1
        afile = tmp_path / "afile"
        afile.write_text("")
        assert main(["reproduce-all", "--out", str(afile)]) == 1

    @settings(max_examples=150, deadline=None)
    @given(drawn=command_lines())
    def test_any_command_line_exits_zero_one_or_two(self, drawn):
        argv, flags = drawn
        with tempfile.TemporaryDirectory() as root:
            out = Path(root) / "out"
            fn = flags.get("fn", "")
            if fn.startswith("tab:") and fn[4:] in TAB_DATA:
                try:  # at the candidates, if the node spec gives any
                    x = generate(parse_node_spec(flags["nodes"]))
                except ValueError:
                    x = equispaced(9)
                y = TAB_DATA[fn[4:]](x)
                Path(root, fn[4:]).write_text("".join(f"{a!r},{b!r}\n" for a, b in zip(x, y)))
            argv = [v.replace("tab:", f"tab:{root}/") for v in argv] + ["--out", str(out)]
            err = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stderr(err), \
                    contextlib.redirect_stdout(io.StringIO()):
                warnings.simplefilter("error")
                code = main(argv)
            assert code in (0, 1, 2), argv
            if code:
                assert err.getvalue().count("\n") == 1 and err.getvalue().endswith("\n"), \
                    (argv, err.getvalue())
            if code == 1:  # a drawn line is rejected, if at all, before its output directory
                assert not out.exists(), argv

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

    def test_overflowing_data_is_two(self, tmp_path, capsys):
        # finite data alternating +-1e308 overflow the first interpolant: a
        # numerical failure, with no NaN criterion in the trace or the summary
        table = tmp_path / "huge.csv"
        table.write_text("".join(f"{float(x)!r},{(-1) ** i * 1e308!r}\n"
                                 for i, x in enumerate(equispaced(40))))
        out = tmp_path / "huge"
        assert main(["fgreedy", "--nodes", "equispaced:40", "--fn", f"tab:{table}",
                     "--max-iter", "10", "--out", str(out)]) == 2
        assert "numerical failure: iteration 0: interpolant not finite" \
            in capsys.readouterr().err
        assert "NaN" not in (out / "summary.json").read_text()
        summary = read_summary(out)
        assert summary["status"] == "FAILED" and summary["stop_reason"] == "error"
        assert (out / "trace.csv").read_text().splitlines() == [
            "iter,selected_x,criterion,kappa2,sparsity"]

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
        assert not (tmp_path / "bad").exists()

    @pytest.mark.parametrize("argv, blocked", [
        (["nodes", "--nodes", "equispaced:5"], "selected.csv"),
        (["lgreedy", "--nodes", "equispaced:40"], "summary.json"),
    ], ids=["nodes-selected", "lgreedy-summary"])
    def test_unwritable_output_file_is_one(self, tmp_path, capsys, argv, blocked):
        # a directory where the run writes one of its files
        out = tmp_path / "out"
        (out / blocked).mkdir(parents=True)
        assert main([*argv, "--out", str(out)]) == 1
        err = capsys.readouterr().err
        assert err.startswith(f"invalid input: cannot write {out / blocked}: ") \
            and err.count("\n") == 1

    def test_greedy_failure_writes_partial_trace(self, tmp_path, monkeypatch):
        import epspline.greedy as greedy_mod
        from epspline import SingularSystemError

        real_collocation = greedy_mod.collocation_matrix
        calls = {"n": 0}

        def flaky(basis):
            calls["n"] += 1
            if calls["n"] > 3:
                raise SingularSystemError("synthetic failure")
            return real_collocation(basis)

        monkeypatch.setattr(greedy_mod, "collocation_matrix", flaky)
        out = tmp_path / "partial"
        code = main(["lgreedy", "--nodes", "equispaced:40", "--tau", "0",
                     "--max-iter", "30", "--out", str(out)])
        assert code == 2
        trace = (out / "trace.csv").read_text().splitlines()
        assert trace[0] == "iter,selected_x,criterion,kappa2,sparsity"
        assert [row.split(",")[0] for row in trace[1:]] == ["0", "1", "2"]
        summary = read_summary(out)
        assert summary["status"] == "FAILED"
        assert summary["stop_reason"] == "error"

    def test_table_pivot_failure_writes_partial_trace(self, tmp_path, capsys, monkeypatch):
        # the pivot floor of test_greedy's table failure: the second node set fails
        monkeypatch.setattr("epspline.banded.PIVOT_RTOL", 0.3)
        out = tmp_path / "pivot"
        assert main(["lgreedy", "--nodes", "equispaced:40", "--out", str(out)]) == 2
        assert "Traceback" not in capsys.readouterr().err
        trace = (out / "trace.csv").read_text().splitlines()
        assert [row.split(",")[0] for row in trace[1:]] == ["0"]
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
        assert not (tmp_path / "big").exists()

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
        assert not (tmp_path / "big").exists()

    def test_success_is_zero(self, tmp_path):
        assert main(["nodes", "--nodes", "equispaced:5",
                     "--out", str(tmp_path / "ok")]) == 0
