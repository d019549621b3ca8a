import re
import statistics
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest
from hypothesis import given, strategies as st

from tabukit import benchmarks, cli, hydraulic
from tabukit.cli import (
    MULTI,
    OPTION_FIELDS,
    PROBLEM_OPTIONS,
    PROBLEMS,
    SINGLE,
    ExperimentSpec,
    ResultRow,
    build_spec,
    emit_csv,
    emit_table,
    main,
    read_config_file,
    run_experiment,
    summarize,
    _fmt,
)
from tabukit.core import denormalize

FAST = {"max_evals": 300}


def _mask_wall(csv_text: str) -> list[list[str]]:
    rows = [line.split(",") for line in csv_text.strip().split("\n")]
    for cells in rows:
        cells[4] = ""
    return rows


class TestSpecValidation:
    def test_unknown_problem(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="rosenbrock").validate()

    @pytest.mark.parametrize("problem", [["schwefel10"], {"schwefel10"}, None], ids=["list", "set", "None"])
    def test_problem_that_is_no_name_is_unknown(self, problem):
        # An unhashable one too: the ValueError, not the TypeError of `in PROBLEMS`.
        with pytest.raises(ValueError, match="^unknown problem: "):
            ExperimentSpec(problem=problem).validate()

    def test_bad_method_and_start(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="schwefel10", method="tripled").validate()
        with pytest.raises(ValueError):
            ExperimentSpec(problem="schwefel10", start="center").validate()

    def test_runs_positive(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="schwefel10", runs=0).validate()

    def test_unknown_override_and_option(self):
        with pytest.raises(ValueError):
            ExperimentSpec(problem="schwefel10", overrides={"stepsize": 0.1}).validate()
        with pytest.raises(ValueError):
            ExperimentSpec(problem="schwefel10", options={"verbose": True}).validate()

    @pytest.mark.parametrize("name", ["overrides", "options"])
    @pytest.mark.parametrize("value", [None, [("max_evals", 5)], "max_evals=5"], ids=["None", "pairs", "text"])
    def test_overrides_or_options_that_are_no_mapping_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be a mapping of setting names to values, got "):
            ExperimentSpec(problem="schwefel10", **{name: value}).validate()

    @pytest.mark.parametrize(
        "problem, key, value",
        [
            ("schwefel10", "pump_speed", 100.0),
            ("bump20", "starvation", "priority"),
            ("bump50", "pump_speed", 100.0),
            ("circuit", "bump_variant", "signed"),
        ],
    )
    def test_option_of_another_problem_rejected(self, problem, key, value):
        with pytest.raises(ValueError, match=f"option '{key}' does not apply to problem '{problem}'"):
            ExperimentSpec(problem=problem, options={key: value}).validate()

    @pytest.mark.parametrize(
        "problem, options",
        [("bump20", {"bump_variant": "signed"}), ("circuit", {"pump_speed": 100.0, "starvation": "priority"})],
    )
    def test_options_of_the_problem_accepted(self, problem, options):
        ExperimentSpec(problem=problem, options=options).validate()

    @pytest.mark.parametrize(
        "name, value",
        [("runs", 2.5), ("runs", "3"), ("runs", True), ("base_seed", 1.5), ("base_seed", None), ("base_seed", False)],
    )
    def test_non_integer_runs_or_seed_named(self, name, value):
        with pytest.raises(ValueError, match=f"^{name} must be an integer, got {value!r}$"):
            ExperimentSpec(problem="schwefel10", **{name: value}).validate()

    # A bad search setting is named before the problem is built too:
    # test_control.py's test_bad_value_rejected_before_any_evaluation.
    @pytest.mark.parametrize(
        "fields, message", [({"base_seed": -1}, "base_seed must be non-negative, got -1")], ids=["base_seed"]
    )
    def test_bad_field_named_before_the_problem_is_built(self, fields, message, monkeypatch):
        built = []
        monkeypatch.setitem(PROBLEMS, "schwefel10", lambda options: built.append(options))
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(ExperimentSpec(problem="schwefel10", **fields))
        assert built == []


class TestBuildSpec:
    #: Every search setting: (text, parsed value).
    SEARCH_SETTINGS = {
        "n_tabu": ("9", 9),
        "m_elite": ("4", 4),
        "k_pattern": ("1.5", 1.5),
        "step_initial": ("0.2", 0.2),
        "step_reduce_factor": ("0.25", 0.25),
        "step_min": ("0.01", 0.01),
        "intensify_after": ("3", 3),
        "diversify_after": ("6", 6),
        "reduce_after": ("9", 9),
        "match_tol": ("1e-9", 1e-9),
        "max_evals": ("500", 500),
    }

    def test_routes_keys_to_layers(self):
        spec, out = build_spec(
            {
                "problem": "bump20",
                "method": "multi",
                "runs": "3",
                "seed": "11",
                **{key: text for key, (text, _) in self.SEARCH_SETTINGS.items()},
                "bump_variant": "signed",
                "out": "res.csv",
            }
        )
        assert spec.problem == "bump20"
        assert spec.method == MULTI
        assert spec.runs == 3
        assert spec.base_seed == 11
        assert list(spec.overrides) == list(self.SEARCH_SETTINGS)
        for key, (_, value) in self.SEARCH_SETTINGS.items():
            assert type(spec.overrides[key]) is type(value), key
            assert spec.overrides[key] == value, key
        assert spec.options == {"bump_variant": "signed"}
        assert out == "res.csv"

    def test_defaults(self):
        spec, out = build_spec({"problem": "circuit"})
        assert spec.method == SINGLE
        assert spec.start == "fixed"
        assert spec.runs == 5
        assert spec.base_seed == 0
        assert out is None

    def test_requires_problem(self):
        with pytest.raises(ValueError):
            build_spec({"runs": "2"})

    def test_unknown_key(self):
        with pytest.raises(ValueError):
            build_spec({"problem": "schwefel10", "colour": "red"})

    def test_override_values_validated(self):
        with pytest.raises(ValueError):
            build_spec({"problem": "schwefel10", "step_reduce_factor": "1.5"})

    @pytest.mark.parametrize(
        "key, text, kind",
        [("max_evals", "1e5", "int"), ("step_min", "abc", "float"), ("runs", "two", "int"), ("pump_speed", "fast", "float")],
    )
    def test_unparsable_value_names_its_key(self, key, text, kind):
        with pytest.raises(ValueError, match=f"setting '{key}' expects {kind}, got '{text}'"):
            build_spec({"problem": "circuit", key: text})


class TestConfigFile:
    def test_parses_comments_and_spacing(self, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text(
            "# experiment setup\n"
            "problem = schwefel10\n"
            "\n"
            "runs=2   # two repeats\n"
            "  seed =  9\n"
        )
        settings = read_config_file(str(cfg))
        assert settings == {"problem": "schwefel10", "runs": "2", "seed": "9"}

    def test_line_without_equals_rejected(self, tmp_path):
        cfg = tmp_path / "bad.cfg"
        cfg.write_text("problem = schwefel10\njust words\n")
        with pytest.raises(ValueError, match="bad.cfg:2"):
            read_config_file(str(cfg))


class TestProblemRegistry:
    def test_bump_fixed_start_is_five(self):
        objective, start = PROBLEMS["bump20"]({})
        raw = denormalize(objective.space, start)
        assert np.allclose(raw, 5.0)

    def test_schwefel_and_circuit_have_no_fixed_start(self):
        assert PROBLEMS["schwefel10"]({})[1] is None
        assert PROBLEMS["circuit"]({})[1] is None

    def test_bad_bump_variant(self):
        with pytest.raises(ValueError, match="unknown bump variant: 'cubed'"):
            PROBLEMS["bump20"]({"bump_variant": "cubed"})

    def test_every_problem_lists_the_options_it_reads(self):
        assert PROBLEM_OPTIONS.keys() == PROBLEMS.keys()
        assert {key for keys in PROBLEM_OPTIONS.values() for key in keys} == OPTION_FIELDS.keys()

    def test_bad_starvation_policy(self):
        with pytest.raises(ValueError, match="unknown starvation policy: 'lifo'"):
            PROBLEMS["circuit"]({"starvation": "lifo"})

    @pytest.mark.parametrize(
        "problem, options, message",
        [
            ("circuit", {"pump_speed": "fast"}, "pump_speed must be a real number, got 'fast'"),
            ("circuit", {"pump_speed": None}, "pump_speed must be a real number, got None"),
            ("circuit", {"starvation": 3}, "unknown starvation policy: 3"),
            ("bump20", {"bump_variant": ["keane"]}, "unknown bump variant: ['keane']"),
        ],
    )
    def test_option_of_the_wrong_type_is_named(self, problem, options, message):
        # Options set through the Python API skip the command line's parsing.
        with pytest.raises(ValueError, match=f"^{re.escape(message)}$"):
            run_experiment(ExperimentSpec(problem=problem, runs=1, overrides=dict(FAST), options=options))

    def test_unset_options_take_the_factory_defaults(self, monkeypatch):
        # The builders pass only the options that are set, so the defaults
        # are stated once, on the factories and on CircuitTargets. Each
        # builder imports its factories when it runs, so they are patched
        # on the modules that define them.
        seen = []

        def record(module, name):
            real = getattr(module, name)

            def call(*args, **kwargs):
                seen.append((name, kwargs))
                return real(*args, **kwargs)

            monkeypatch.setattr(module, name, call)

        record(benchmarks, "make_bump")
        for name in ("make_circuit", "CircuitTargets"):
            record(hydraulic, name)
        PROBLEMS["bump20"]({})
        PROBLEMS["circuit"]({})
        assert seen == [("make_bump", {}), ("CircuitTargets", {}), ("make_circuit", {})]
        seen.clear()
        PROBLEMS["circuit"]({"pump_speed": 100.0, "starvation": "priority"})
        assert seen == [("CircuitTargets", {"pump_speed": 100.0}), ("make_circuit", {"policy": "priority"})]


class TestRunExperiment:
    def test_seeds_count_up_from_base(self):
        spec = ExperimentSpec(
            problem="schwefel10", runs=2, base_seed=7, overrides=dict(FAST)
        )
        rows, summary = run_experiment(spec)
        assert [r.run_index for r in rows] == [0, 1]
        assert [r.seed_used for r in rows] == [7, 8]

    def test_summary_recomputes(self):
        spec = ExperimentSpec(
            problem="schwefel10", runs=3, base_seed=0, overrides=dict(FAST)
        )
        rows, summary = run_experiment(spec)
        values = [r.best_value for r in rows]
        evals = [r.eval_count for r in rows]
        assert summary.mean_value == pytest.approx(sum(values) / 3, rel=1e-12)
        assert summary.mean_evals == pytest.approx(sum(evals) / 3, rel=1e-12)

    def test_deterministic_apart_from_wall_time(self, tmp_path):
        spec = ExperimentSpec(
            problem="schwefel10", runs=2, base_seed=3, overrides=dict(FAST)
        )
        paths = []
        for name in ("a.csv", "b.csv"):
            rows, summary = run_experiment(spec)
            path = tmp_path / name
            emit_csv(rows, summary, str(path))
            paths.append(path)
        first, second = (_mask_wall(p.read_text()) for p in paths)
        assert first == second

    def test_maximize_problem_reports_native_sign(self):
        spec = ExperimentSpec(problem="bump20", runs=1, overrides=dict(FAST))
        rows, _ = run_experiment(spec)
        assert rows[0].best_value > 0.0

    def test_random_start_ignores_fixed(self):
        spec = ExperimentSpec(
            problem="bump20", runs=1, start="random", overrides={"max_evals": 1}
        )
        rows, _ = run_experiment(spec)
        assert not np.allclose(rows[0].best_params, 5.0)

    def test_fixed_start_lands_on_it(self):
        spec = ExperimentSpec(problem="bump20", runs=1, overrides={"max_evals": 1})
        rows, _ = run_experiment(spec)
        assert np.allclose(rows[0].best_params, 5.0)

    def test_multi_method_runs(self):
        spec = ExperimentSpec(
            problem="schwefel10", method=MULTI, runs=1, overrides={"max_evals": 400}
        )
        rows, _ = run_experiment(spec)
        assert rows[0].eval_count <= 400 + 2 * 10
        assert np.all(np.abs(rows[0].best_params) <= 500.0)


class TestOutputFormats:
    @pytest.fixture()
    def sample(self):
        rows = [
            ResultRow(0, 3, 0.00566847, 1234, 56.789, np.array([0.1, 0.25])),
            ResultRow(1, 4, 0.0123456789, 987, 41.5, np.array([-0.5, 3.0])),
        ]
        return rows, summarize(rows)

    def test_fmt_six_significant_digits(self):
        assert _fmt(0.00566847) == "0.00566847"
        assert _fmt(-4189.828873) == "-4189.83"
        assert _fmt(120.0) == "120"

    def test_csv_layout(self, sample, tmp_path):
        rows, summary = sample
        path = tmp_path / "out.csv"
        emit_csv(rows, summary, str(path))
        lines = path.read_text().strip().split("\n")
        assert lines[0] == "run,seed,best_value,evals,wall_ms,param1,param2"
        assert len(lines) == 4
        first = lines[1].split(",")
        assert first[:4] == ["0", "3", "0.00566847", "1234"]
        assert first[5:] == ["0.1", "0.25"]
        last = lines[-1].split(",")
        assert last[0] == "AVERAGE"
        assert last[1] == ""
        assert last[2] == _fmt((0.00566847 + 0.0123456789) / 2)
        assert last[3] == _fmt((1234 + 987) / 2)
        assert last[4:] == ["", "", ""]

    def test_csv_refuses_empty(self, tmp_path):
        path = tmp_path / "never.csv"
        with pytest.raises(ValueError, match="^refusing to write an empty CSV$"):
            emit_csv([], None, str(path))
        assert not path.exists()
        with pytest.raises(ValueError, match="^no rows to render$"):
            emit_table([], None)
        with pytest.raises(ValueError, match="^no rows to summarize$"):
            summarize([])

    def test_table_matches_csv_cells(self, sample):
        rows, summary = sample
        text = emit_table(rows, summary)
        lines = text.split("\n")
        assert len(lines) == 4
        header = lines[0].split()
        assert header == ["run", "seed", "best_value", "evals", "wall_ms", "param1", "param2"]
        assert "0.00566847" in lines[1]
        assert lines[-1].lstrip().startswith("AVERAGE")

    def test_table_single_run(self):
        rows = [ResultRow(0, 0, 1.5, 10, 2.0, np.array([0.5]))]
        text = emit_table(rows, summarize(rows))
        assert len(text.split("\n")) == 3


#: Finite floats, -0.0 and subnormals included; bounded so that no sum
#: of 12 overflows.
FINITE = st.floats(min_value=-1e300, max_value=1e300) | st.sampled_from([-0.0, 5e-324, -5e-324, 2.2e-308])


@given(st.lists(st.tuples(FINITE, st.integers(0, 10**12)), min_size=1, max_size=12))
def test_summary_means_have_the_bits_of_statistics(pairs):
    # summarize does not import statistics; it repeats its operations.
    rows = [ResultRow(i, i, value, count, 0.0, np.zeros(1)) for i, (value, count) in enumerate(pairs)]
    values, counts = [value for value, _ in pairs], [count for _, count in pairs]
    summary = summarize(rows)
    assert summary.mean_value.hex() == statistics.fmean(values).hex()
    assert summary.mean_evals.hex() == statistics.fmean(counts).hex()


def exits_two(capsys, args, message="error:"):
    """``main(args)`` exits 2 and writes ``message`` to stderr."""
    assert main(args) == 2
    assert message in capsys.readouterr().err


class TestMain:
    def test_small_run_exits_zero(self, capsys, tmp_path):
        out = tmp_path / "res.csv"
        code = main(
            [
                "--problem",
                "schwefel10",
                "--runs",
                "1",
                "--set",
                "max_evals=300",
                "--out",
                str(out),
            ]
        )
        assert code == 0
        captured = capsys.readouterr()
        assert "AVERAGE" in captured.out
        assert f"wrote {out}" in captured.out
        assert out.read_text().startswith("run,seed,best_value,evals,wall_ms")

    def test_module_runs_as_a_script(self):
        # From the source directory, python -m imports tabukit from this tree.
        args = ["--problem", "schwefel10", "--runs", "1", "--set", "max_evals=200"]
        src = Path(cli.__file__).resolve().parents[1]
        done = subprocess.run([sys.executable, "-m", "tabukit.cli", *args], cwd=src, capture_output=True, text=True)
        assert done.returncode == 0, done.stderr
        assert any(line.startswith("AVERAGE ") for line in done.stdout.splitlines())

    def test_flags_beat_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = schwefel10\nruns = 3\nmax_evals = 300\n")
        code = main(["--config", str(cfg), "--runs", "1"])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert len(out_lines) == 3

    @pytest.mark.parametrize("bom", [b"", b"\xef\xbb\xbf"])
    def test_config_file_with_or_without_bom_runs(self, capsys, tmp_path, bom):
        # Editors that save UTF-8 with a byte-order mark put it before the first key.
        cfg = tmp_path / "exp.cfg"
        cfg.write_bytes(bom + b"problem = schwefel10\nruns = 1\nmax_evals = 300\n")
        assert read_config_file(str(cfg)) == {"problem": "schwefel10", "runs": "1", "max_evals": "300"}
        code = main(["--config", str(cfg)])
        captured = capsys.readouterr()
        assert code == 0, captured.err
        assert len(captured.out.strip().split("\n")) == 3

    def test_set_beats_config_file(self, capsys, tmp_path):
        cfg = tmp_path / "exp.cfg"
        cfg.write_text("problem = schwefel10\nruns = 3\nmax_evals = 300\n")
        code = main(["--config", str(cfg), "--set", "runs=1"])
        assert code == 0
        out_lines = capsys.readouterr().out.strip().split("\n")
        assert len(out_lines) == 3

    def test_unknown_setting_exits_two(self, capsys):
        exits_two(capsys, ["--problem", "schwefel10", "--set", "warp=9"])

    def test_non_finite_search_setting_exits_two(self, capsys):
        exits_two(capsys, ["--problem", "schwefel10", "--set", "k_pattern=inf"], "k_pattern")

    def test_removed_lockstep_setting_exits_two(self, capsys):
        args = ["--problem", "schwefel10", "--method", "multi", "--set", "lockstep=false"]
        exits_two(capsys, args, "unknown setting: 'lockstep'")

    @pytest.mark.parametrize("speed", ["0", "-5", "nan", "inf"])
    def test_bad_pump_speed_exits_two_naming_the_field(self, capsys, speed):
        args = ["--problem", "circuit", "--runs", "1", "--set", "max_evals=50", "--set", f"pump_speed={speed}"]
        exits_two(capsys, args, "error: pump_speed must be positive and finite")

    def test_option_of_another_problem_exits_two(self, capsys):
        args = ["--problem", "schwefel10", "--set", "pump_speed=100"]
        exits_two(capsys, args, "error: option 'pump_speed' does not apply to problem 'schwefel10'")

    def test_unparsable_set_value_exits_two_naming_the_key(self, capsys):
        args = ["--problem", "schwefel10", "--set", "max_evals=1e5"]
        exits_two(capsys, args, "error: setting 'max_evals' expects int, got '1e5'")

    def test_malformed_set_exits_two(self, capsys):
        exits_two(capsys, ["--problem", "schwefel10", "--set", "max_evals"], "error: --set expects KEY=VALUE, got 'max_evals'")

    def test_missing_problem_exits_two(self, capsys):
        exits_two(capsys, ["--runs", "1"])

    def test_missing_config_file_exits_two(self, capsys):
        exits_two(capsys, ["--config", "/no/such/file.cfg"])

    def test_unwritable_out_exits_two(self, capsys):
        exits_two(
            capsys,
            [
                "--problem",
                "schwefel10",
                "--runs",
                "1",
                "--set",
                "max_evals=300",
                "--out",
                "/no/such/dir/res.csv",
            ],
        )
