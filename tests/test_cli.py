"""Config parsing, CSV determinism, sweep grids, and verifier wiring."""

import concurrent.futures
import dataclasses
import hashlib
import importlib
import operator
import os
import re
import threading

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from test_golden import assert_golden, regenerate

from bcoslab import analysis, cli, problems
from bcoslab.cli import ConfigError, config_text, default_config, parse_config
from bcoslab.optim import ALGORITHMS, BIAS_CORRECTIONS, EPSILON_PLACEMENTS, OptimizerConfig
from bcoslab.schedules import KINDS, StepSchedule


def minimal_quadratic_config(**overrides):
    lines = [
        "problem.kind = quadratic",
        "problem.dim = 2",
        "problem.h = 1.0,2.0",
        "problem.sigma = 0.5",
        "problem.x_star = 0.0",
        "problem.x0 = 3.0",
        "optimizer.algorithm = conceptual_bcos",
        "optimizer.weight_decay_lambda = 0.3",
        "optimizer.decoupled = true",
        "schedule.kind = constant",
        "schedule.alpha = 0.1",
        "run.steps = 25",
        "run.n_seeds = 3",
        "run.base_seed = 7",
    ]
    for key, value in overrides.items():
        lines.append(f"{key} = {value}")
    return "\n".join(lines) + "\n"


def write_config(tmp_path, text, name="exp.cfg"):
    path = tmp_path / name
    path.write_text(text)
    return str(path)


FINITE_AT_LEAST_0 = st.floats(min_value=0.0, allow_infinity=False)
UNIT = st.floats(min_value=0.0, max_value=1.0, exclude_max=True)
OPTIMIZER_VALUES = st.fixed_dictionaries({
    "algorithm": st.sampled_from(sorted(ALGORITHMS)),
    "beta1": UNIT,
    "beta2": UNIT,
    "epsilon": FINITE_AT_LEAST_0,
    "epsilon_placement": st.sampled_from(EPSILON_PLACEMENTS),
    "weight_decay_lambda": FINITE_AT_LEAST_0,
    "decoupled": st.booleans(),
    "bias_correction": st.sampled_from(BIAS_CORRECTIONS),
    "conditional_full": st.booleans(),
}).map(lambda v: {**v, "conditional_full": v["conditional_full"] and v["algorithm"] == "bcos_c"})


@st.composite
def schedule_values(draw):
    warmup = draw(st.integers(0, 1000))
    return {
        "kind": draw(st.sampled_from(KINDS)),
        "alpha": draw(st.floats(min_value=0.0, exclude_min=True, allow_infinity=False)),
        "p": draw(st.floats(0.5, 1.0, exclude_min=True, exclude_max=True)),
        "warmup_steps": warmup,
        "total_steps": draw(st.integers(warmup + 1, 2000)),
        "alpha_min_ratio": draw(st.floats(0.0, 1.0)),
    }


class TestConfigFormat:
    def test_default_roundtrip(self):
        cfg = default_config()
        assert parse_config(config_text(cfg)) == cfg

    def test_nontrivial_roundtrip(self):
        cfg = {
            **default_config(),
            "problem.h": (1.0, 2.5),
            "schedule.alpha": 0.00125,
            "optimizer.decoupled": True,
            "sweep.param": "optimizer.beta2",
            "sweep.values": (0.8, 0.9),
        }
        assert parse_config(config_text(cfg)) == cfg

    @pytest.mark.parametrize("group, cls", [("optimizer", OptimizerConfig),
                                            ("schedule", StepSchedule)])
    def test_group_keys_are_their_dataclass_fields(self, group, cls):
        """The optimizer and schedule settings are declared once, as fields of
        their dataclasses: the key group names exactly those fields, and the
        CLI default of each field that has one is the dataclass default."""
        names = [key.partition(".")[2] for key in cli.KEY_TABLE if key.startswith(group + ".")]
        fields = dataclasses.fields(cls)
        assert sorted(names) == sorted(field.name for field in fields)
        defaults = default_config()
        for field in fields:
            if field.default is not dataclasses.MISSING:
                assert defaults[f"{group}.{field.name}"] == field.default, field.name

    @pytest.mark.parametrize("group, cls, build, strategy", [
        ("optimizer", OptimizerConfig, cli.build_optimizer, OPTIMIZER_VALUES),
        ("schedule", StepSchedule, cli.build_schedule, schedule_values()),
    ])
    @settings(max_examples=50, deadline=None)
    @given(data=st.data())
    def test_group_round_trip(self, group, cls, build, strategy, data):
        """Valid values of a key group, written as config text and read back,
        build the dataclass that those values make."""
        values = data.draw(strategy)
        cfg = {**default_config(),
               **{f"{group}.{name}": value for name, value in values.items()}}
        assert build(parse_config(config_text(cfg))) == cls(**values)

    def test_comments_and_blanks_ignored(self):
        cfg = parse_config("# a comment\n\nrun.steps = 5  # trailing\n")
        assert cfg["run.steps"] == 5

    def test_unknown_key_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run.stepz = 5\n")
        assert "run.stepz" in str(err.value)

    def test_bad_type_named(self):
        with pytest.raises(ConfigError) as err:
            parse_config("run.steps = many\n")
        assert "run.steps" in str(err.value)

    def test_missing_equals(self):
        with pytest.raises(ConfigError):
            parse_config("run.steps 5\n")

    def test_negative_base_seed_named(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            parse_config("run.base_seed = -1\n")
        assert err.value.key == "run.base_seed"
        path = write_config(tmp_path, minimal_quadratic_config(**{"run.base_seed": -1}))
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: config field 'run.base_seed'" in capsys.readouterr().err

    def test_negative_base_seed_rejected_in_sweep(self, tmp_path, capsys):
        text = minimal_quadratic_config(**{"sweep.param": "run.base_seed",
                                           "sweep.values": "1,-1"})
        path = write_config(tmp_path, text)
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "'run.base_seed'" in capsys.readouterr().err


    def test_negative_data_seed_named(self, tmp_path, capsys):
        with pytest.raises(ConfigError) as err:
            parse_config("problem.data_seed = -1\n")
        assert err.value.key == "problem.data_seed"
        text = "\n".join([
            "problem.kind = logistic",
            "problem.dim = 3",
            "problem.n_samples = 50",
            "problem.batch = 8",
            "problem.data_seed = -1",
            "optimizer.algorithm = sgd",
            "run.steps = 5",
            "run.n_seeds = 2",
        ]) + "\n"
        path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert "config error: config field 'problem.data_seed'" in capsys.readouterr().err


README = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "README.md")


def readme_section(title):
    """The lines of README.md under the heading ``### title``, up to the next
    heading."""
    with open(README, encoding="utf-8") as fh:
        lines = fh.read().splitlines()
    start = lines.index(f"### {title}") + 1
    end = next((i for i in range(start, len(lines)) if lines[i].startswith("#")), len(lines))
    return lines[start:end]


def with_first_row(report, **measured):
    """The log report with the measurements of its first grid row replaced."""
    rows = (dataclasses.replace(report.rows[0], **measured), *report.rows[1:])
    return dataclasses.replace(report, rows=rows)


# (check, report function, the report with that one check's input broken)
COUNTEREXAMPLE_FAULTS = [
    ("log_aiming_min_inner", "counterexample_log_aiming",
     lambda report: with_first_row(report, inner_product=-0.1)),
    ("log_concavity_max_second_derivative", "counterexample_log_aiming",
     lambda report: with_first_row(report, curvature_witness=1.0)),
    ("quadratic_aiming_value", "counterexample_quadratic_not_aiming",
     lambda quad: {**quad, "aiming_value": -0.25}),
    # the matrix stays certified PSD, but not with the eigenvalues {0, 5}
    ("quadratic_eigenvalues_dev", "counterexample_quadratic_not_aiming",
     lambda quad: {**quad, "eigenvalues": quad["eigenvalues"] + np.array([0.0, 1e-9])}),
    ("quadratic_psd", "counterexample_quadratic_not_aiming",
     lambda quad: {**quad, "psd_certified": False}),
]

SGD_NO_DECAY = {"optimizer.algorithm": "sgd", "optimizer.weight_decay_lambda": 0.0}
LANDS_ON_TARGET = {"problem.dim": 1, "problem.h": 1.0, "problem.sigma": 0.0,
                   "optimizer.weight_decay_lambda": 0.0, "schedule.alpha": 1.0}


class TestExitCodes:
    """0 success; 1 a failed check; 2 a config error; 3 a run that cannot
    finish: a divergence, or a numeric failure while computing."""

    @pytest.mark.parametrize(
        "command, overrides, code, message",
        [
            ("run", {}, 0, ""),
            ("run", {**SGD_NO_DECAY, "problem.sigma": 0.0, "schedule.alpha": 4.0}, 3,
             "run aborted: seed 0 diverged at t="),
            pytest.param(
                "run", {**SGD_NO_DECAY, "schedule.alpha": 1e308}, 3,
                "numeric error: sgd step produced non-finite parameters",
                marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
            ),
            pytest.param(
                "sweep", {**SGD_NO_DECAY, "sweep.param": "schedule.alpha",
                          "sweep.values": "0.1,1e308"}, 3,
                "numeric error: sgd step produced non-finite parameters",
                marks=pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning"),
            ),
            ("run", {"problem.x0": "nan"}, 2, "config error: config field 'problem.x0'"),
            ("run", {"optimizer.epsilon": "nan"}, 2,
             "config error: config field 'optimizer.epsilon': must be finite"),
            ("run", {**SGD_NO_DECAY, "schedule.alpha": "inf"}, 2,
             "config error: config field 'schedule.alpha': must be finite"),
            ("sweep", {"sweep.param": "schedule.alpha", "sweep.values": "0.1,nan"}, 2,
             "config error: config field 'sweep.values': must be finite"),
            # a noiseless seed lands on the target at t=3, where the direction is 0/0
            *[pytest.param(
                "run", {**LANDS_ON_TARGET, "problem.noise": noise}, 3,
                "numeric error: conceptual_bcos step produced non-finite parameters "
                "at seed 0, t=3",
                marks=pytest.mark.filterwarnings("ignore:invalid value:RuntimeWarning"),
            ) for noise in ("gaussian", "student_t")],
            ("run", {"run.n_seeds": 1}, 2,
             "config error: config field 'run.n_seeds': must be >= 2, got 1"),
            ("run --seeds 1", {}, 2,
             "config error: config field 'run.n_seeds': must be >= 2, got 1"),
            ("run", {"run.steps": -1}, 2,
             "config error: config field 'run.steps': must be >= 0, got -1"),
            ("run", {"problem.dim": 0}, 2,
             "config error: config field 'problem.dim': must be >= 1, got 0"),
            ("run", {"problem.h": -1.0}, 2,
             "config error: config field 'problem': curvatures h must be positive"),
            ("run", {"problem.noise": "cauchy"}, 2,
             "config error: config field 'problem': unknown noise kind 'cauchy'"),
            ("run", {"problem.kind": "logistic"}, 2,
             "config error: config field 'optimizer.algorithm': conceptual_bcos needs exact "
             "moments"),
            ("run", {"problem.n_samples": 0}, 2,
             "config error: config field 'problem.n_samples': must be >= 1, got 0"),
            ("run", {"problem.batch": 0}, 2,
             "config error: config field 'problem.batch': must be >= 1, got 0"),
            ("run", {"schedule.warmup_steps": -4}, 2,
             "config error: config field 'schedule.warmup_steps': must be >= 0, got -4"),
            ("run", {"schedule.total_steps": -1}, 2,
             "config error: config field 'schedule.total_steps': must be >= 0, got -1"),
            ("run", {"run.sigma_every": -3}, 2,
             "config error: config field 'run.sigma_every': must be >= 0, got -3"),
            # coupled decay applies no (1 - alpha*lambda) factor, so only the
            # decoupled run is bounded
            ("run", {"optimizer.decoupled": "false", "optimizer.weight_decay_lambda": 2.0,
                     "schedule.alpha": 1.0}, 0, ""),
            ("run", {"optimizer.decoupled": "true", "optimizer.weight_decay_lambda": 2.0,
                     "schedule.alpha": 1.0}, 2,
             "config error: config field 'schedule.alpha': peak alpha*lambda = 2.0 exceeds 1 "
             "with decoupled weight decay"),
            ("sweep", {"sweep.param": "run.steps", "sweep.values": "10.7,2.2"}, 2,
             "config error: config field 'sweep.values': 'run.steps' takes whole numbers, "
             "got 10.7"),
            # the practical steps refuse a decay factor of exactly 0; the
            # conceptual one takes it
            *[("run", {"optimizer.algorithm": alg, "optimizer.decoupled": "true",
                       "optimizer.weight_decay_lambda": lam, "schedule.kind": kind,
                       "schedule.alpha": alpha, "schedule.warmup_steps": 5,
                       "schedule.total_steps": 20}, 2,
               "config error: config field 'schedule.alpha': peak alpha*lambda = 1.0 reaches 1 "
               f"with decoupled weight decay; {alg} steps need alpha*lambda < 1")
              for alg, lam, kind, alpha in (("bcos_c", 1.0, "constant", 1.0),
                                            ("adam", 2.0, "warmup_linear", 0.5))],
            ("run", {"optimizer.decoupled": "true", "optimizer.weight_decay_lambda": 1.0,
                     "schedule.alpha": 1.0}, 0, ""),
            # verify reads no key of its own, so a verify.* key is unknown
            ("verify", {"verify.chung": "false"}, 2,
             "config error: config field 'verify.chung': unknown key"),
            # each sweep axis needs both its fields, and an error names the
            # field of its own axis
            ("sweep", {"sweep.param": "schedule.alpha"}, 2,
             "config error: config field 'sweep.values': sweep needs sweep.param and "
             "sweep.values"),
            ("sweep", {"sweep.param": "schedule.alpha", "sweep.values": "0.1",
                       "sweep.param2": "optimizer.beta1"}, 2,
             "config error: config field 'sweep.values2': sweep needs sweep.param2 and "
             "sweep.values2"),
            ("sweep", {"sweep.param": "schedule.alpha", "sweep.values": "0.1",
                       "sweep.values2": "0.5"}, 2,
             "config error: config field 'sweep.param2': sweep needs sweep.param2 and "
             "sweep.values2"),
            ("sweep", {"sweep.param": "schedule.alpha", "sweep.values": "0.1",
                       "sweep.param2": "optimizer.beta3", "sweep.values2": "0.5"}, 2,
             "config error: config field 'sweep.param2': unknown config key "
             "'optimizer.beta3'"),
            # two axes on one key would write the same results under each label
            ("sweep", {"sweep.param": "schedule.alpha", "sweep.values": "0.01,0.5",
                       "sweep.param2": "schedule.alpha", "sweep.values2": "0.2"}, 2,
             "config error: config field 'sweep.param2': must differ from sweep.param, "
             "both are 'schedule.alpha'"),
            ("run", {"optimizer.decoupled": "maybe"}, 2,
             "config error: config field 'optimizer.decoupled': expected a boolean, "
             "got 'maybe'"),
            ("run", {"problem.h": "1.0,2.0,3.0"}, 2,
             "config error: config field 'problem.h': expected 1 or 2 values, got 3"),
            ("run", {"problem.kind": "cubic"}, 2,
             "config error: config field 'problem.kind': unknown problem kind 'cubic'"),
            ("run", {"schedule.kind": "power", "schedule.p": 0.3}, 2,
             "config error: config field 'schedule': power schedule needs 1/2 < p < 1, "
             "got p=0.3"),
            ("sweep", {"sweep.param": "optimizer.decoupled", "sweep.values": "0.0,1.0"}, 2,
             "config error: config field 'sweep.param': 'optimizer.decoupled' is not a "
             "numeric scalar key"),
            ("run", {"optimizer.algorithm": "foo"}, 2,
             "config error: config field 'optimizer': unknown algorithm 'foo'"),
            ("run", {"optimizer.beta2": 1.0}, 2,
             "config error: config field 'optimizer': beta2 must lie in [0, 1), got 1.0"),
            ("run", {"optimizer.epsilon_placement": "middle"}, 2,
             "config error: config field 'optimizer': unknown epsilon_placement 'middle'"),
            ("run", {"optimizer.bias_correction": "none"}, 2,
             "config error: config field 'optimizer': unknown bias_correction 'none'"),
            ("run", {"schedule.kind": "cubic"}, 2,
             "config error: config field 'schedule': unknown schedule kind 'cubic'; "
             "expected one of ("),
            ("run", {"schedule.kind": "warmup_cosine"}, 2,
             "config error: config field 'schedule': total_steps must exceed warmup_steps"),
            ("run", {"schedule.kind": "warmup_linear", "schedule.total_steps": 10,
                     "schedule.alpha_min_ratio": 1.5}, 2,
             "config error: config field 'schedule': alpha_min_ratio must lie in [0, 1]"),
            ("run", {"problem.kind": "logistic", "problem.batch": 2000}, 2,
             "config error: config field 'problem': batch must lie in [1, n_samples]"),
        ],
    )
    def test_exit_code(self, tmp_path, capsys, command, overrides, code, message):
        path = write_config(tmp_path, minimal_quadratic_config(**overrides))
        argv = [*command.split(), "--config", path]
        if command != "verify":
            argv += ["--out", str(tmp_path / "out")]
        assert cli.main(argv) == code
        err = capsys.readouterr().err
        assert err.startswith(message) if message else err == ""
        assert code == 0 or not (tmp_path / "out").exists()

    @pytest.mark.parametrize("argv", [
        ["verify", "--seeds", "1"],
        ["verify", "--out", "D"],
        ["counterexamples", "--seeds", "3"],
    ])
    def test_flag_the_subcommand_does_not_read(self, tmp_path, monkeypatch, capsys, argv):
        """verify reads no seed count and writes nothing, and counterexamples
        reads no seed count: argparse refuses those flags with exit code 2."""
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exc:
            cli.main(argv)
        assert exc.value.code == 2
        assert f"unrecognized arguments: {' '.join(argv[1:])}" in capsys.readouterr().err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("command, text", [
        ("run", "override run.output_dir"),
        ("sweep", "override run.output_dir"),
        # counterexamples never reads run.output_dir
        ("counterexamples", "write counterexample_log.csv and its manifest here"),
    ])
    def test_out_help_says_what_the_flag_does(self, capsys, command, text):
        with pytest.raises(SystemExit) as exc:
            cli.main([command, "--help"])
        assert exc.value.code == 0
        help_text = " ".join(capsys.readouterr().out.split())
        assert f"--out OUT {text}" in help_text


class TestCmdRun:
    def test_row_count(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_quadratic_config())
        rc = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()
        assert lines[0] == "t,mean_dist_sq,se_dist_sq,alpha_t,aiming_min,sigma_t"
        assert len(lines) == 1 + 26  # header + T+1 rows

    def test_byte_identical_reruns(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        cli.main(["run", "--config", path, "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", path, "--out", str(tmp_path / "b")])
        for name in ("trajectory.csv", "manifest.txt"):
            assert (tmp_path / "a" / name).read_bytes() == (tmp_path / "b" / name).read_bytes()

    def test_manifest_tracks_output_changes(self, tmp_path):
        path1 = write_config(tmp_path, minimal_quadratic_config(), "one.cfg")
        path2 = write_config(
            tmp_path, minimal_quadratic_config(**{"run.base_seed": 8}), "two.cfg"
        )
        cli.main(["run", "--config", path1, "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", path2, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "manifest.txt").read_text()
        b = (tmp_path / "b" / "manifest.txt").read_text()
        assert a != b
        a_file = [ln for ln in a.splitlines() if ln.startswith("file trajectory")]
        b_file = [ln for ln in b.splitlines() if ln.startswith("file trajectory")]
        assert a_file != b_file

    def test_decoupled_decay_peak_validated(self, tmp_path, capsys):
        text = minimal_quadratic_config(**{
            "schedule.alpha": 4.0,
            "optimizer.weight_decay_lambda": 0.5,
        })
        path = write_config(tmp_path, text)
        rc = cli.main(["run", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2
        assert "schedule.alpha" in capsys.readouterr().err

    def test_seeds_flag_overrides(self, tmp_path):
        path = write_config(tmp_path, minimal_quadratic_config())
        cli.main(["run", "--config", path, "--seeds", "5", "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", path, "--seeds", "3", "--out", str(tmp_path / "b")])
        assert (
            (tmp_path / "a" / "trajectory.csv").read_bytes()
            != (tmp_path / "b" / "trajectory.csv").read_bytes()
        )

    def test_heavy_tailed_noise_run(self, tmp_path):
        """Student-t noise produces the same schema and stays
        deterministic."""
        text = minimal_quadratic_config(**{"problem.noise": "student_t"})
        path = write_config(tmp_path, text)
        cli.main(["run", "--config", path, "--out", str(tmp_path / "a")])
        cli.main(["run", "--config", path, "--out", str(tmp_path / "b")])
        a = (tmp_path / "a" / "trajectory.csv").read_bytes()
        assert a == (tmp_path / "b" / "trajectory.csv").read_bytes()
        assert a.splitlines()[0].decode().startswith("t,mean_dist_sq")

    def test_sigma_column_populated_on_request(self, tmp_path):
        text = minimal_quadratic_config(**{
            "optimizer.algorithm": "bcos_c",
            "run.sigma_every": 10,
            "run.steps": 30,
        })
        path = write_config(tmp_path, text)
        assert cli.main(["run", "--config", path, "--out", str(tmp_path / "out")]) == 0
        lines = (tmp_path / "out" / "trajectory.csv").read_text().splitlines()[1:]
        sigma = [ln.split(",")[-1] for ln in lines]
        assert sigma[10] != "nan" and sigma[20] != "nan"
        assert sigma[0] == "nan" and sigma[5] == "nan"
        assert float(sigma[10]) > 0.0

    def test_output_dir_env_override(self, tmp_path, monkeypatch):
        path = write_config(tmp_path, minimal_quadratic_config())
        monkeypatch.setenv("OUTPUT_DIR", str(tmp_path / "envout"))
        rc = cli.main(["run", "--config", path])
        assert rc == 0
        assert (tmp_path / "envout" / "trajectory.csv").exists()


def one_shot_csv(curve):
    """curve_csv as one join over every row: the reference for the join
    over pieces of rows."""
    floats = (curve.mean_dist_sq, curve.se_dist_sq, curve.alpha, curve.aiming_min, curve.sigma)
    columns = [map(str, curve.t.tolist())] + [map(repr, c.tolist()) for c in floats]
    rows = map(",".join, zip(*columns))
    return "\n".join(["t,mean_dist_sq,se_dist_sq,alpha_t,aiming_min,sigma_t", *rows]) + "\n"


class TestOutputPieces:
    @pytest.mark.parametrize("pieces, extra", [(0, 0), (0, 1), (1, -1), (1, 0), (1, 1)])
    def test_curve_csv_equals_the_one_shot_join(self, pieces, extra):
        """0 rows, 1 row, and one piece of rows less one, exactly and plus
        one, with NaN, inf and -0.0 among the values."""
        T1 = pieces * cli._CSV_ROWS + extra
        rng = np.random.default_rng(T1)
        cols = [rng.standard_normal(T1) for _ in range(5)]
        if T1:
            # the mean, alpha and aiming-min columns
            cols[0][0], cols[3][-1], cols[4][T1 // 2] = np.nan, np.inf, -0.0
        curve = analysis.MeanCurve(np.arange(T1), *cols, n_seeds=2,
                                   sigma=rng.standard_normal(T1))
        assert cli.curve_csv(curve) == one_shot_csv(curve)

    def test_manifest_hashes_the_file_written_in_slices(self, tmp_path):
        """A text of three slices and more, with two-, three- and four-byte
        characters across the slice boundaries: the manifest's sha256 and
        bytes are those of the file, which is the text's UTF-8."""
        n = cli._WRITE_SLICE
        text = "a" * (n - 1) + "é€" + "b" * (n - 2) + "𝜎" + "\n" * (n + 3)
        cli.write_outputs(str(tmp_path), default_config(), {"x.csv": text, "empty.csv": ""})
        data = (tmp_path / "x.csv").read_bytes()
        assert data == text.encode()
        manifest = (tmp_path / "manifest.txt").read_text().splitlines()
        assert manifest[2:] == [
            f"file empty.csv sha256={hashlib.sha256(b'').hexdigest()} bytes=0",
            f"file x.csv sha256={hashlib.sha256(data).hexdigest()} bytes={len(data)}",
        ]
        assert len(data) == len(text) + 1 + 2 + 3


class TestCmdSweep:
    def test_one_dimensional_grid(self, tmp_path):
        text = minimal_quadratic_config(**{
            "optimizer.algorithm": "adam",
            "sweep.param": "optimizer.beta2",
            "sweep.values": "0.8,0.9,0.95,0.975,0.99",
            "run.steps": 20,
            "run.n_seeds": 2,
        })
        path = write_config(tmp_path, text)
        rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 6  # header + 5 rows

    def test_two_dimensional_grid_row_major(self, tmp_path):
        text = minimal_quadratic_config(**{
            "optimizer.algorithm": "adam",
            "sweep.param": "optimizer.beta1",
            "sweep.values": "0.1,0.2,0.3",
            "sweep.param2": "optimizer.beta2",
            "sweep.values2": "0.5,0.6,0.7",
            "run.steps": 10,
            "run.n_seeds": 2,
        })
        path = write_config(tmp_path, text)
        cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")])
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()
        assert len(lines) == 10
        firsts = [float(ln.split(",")[0]) for ln in lines[1:]]
        seconds = [float(ln.split(",")[1]) for ln in lines[1:]]
        assert firsts == [0.1, 0.1, 0.1, 0.2, 0.2, 0.2, 0.3, 0.3, 0.3]
        assert seconds == [0.5, 0.6, 0.7] * 3

    def test_divergence_flag_flips_monotonically(self, tmp_path):
        """Plain gradient descent on a noiseless quadratic destabilizes once
        alpha crosses 2/h; the sweep must show a single stable->diverged
        transition."""
        text = minimal_quadratic_config(**{
            "problem.h": "1.0,1.0",
            "problem.sigma": "0.0",
            "optimizer.algorithm": "sgd",
            "optimizer.weight_decay_lambda": 0.0,
            "optimizer.decoupled": "false",
            "sweep.param": "schedule.alpha",
            "sweep.values": "0.5,1.0,1.5,2.5,3.0",
            "run.steps": 400,
            "run.n_seeds": 2,
        })
        path = write_config(tmp_path, text)
        rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 0
        lines = (tmp_path / "out" / "sweep.csv").read_text().splitlines()[1:]
        flags = [int(ln.split(",")[-1]) for ln in lines]
        assert flags == sorted(flags)
        assert flags[0] == 0 and flags[-1] == 1

    @pytest.mark.parametrize("overrides, message", [
        ({"sweep.param": "optimizer.beta1", "sweep.values": "0.5,0.6,1.5"},
         "config error: config field 'optimizer': beta1 must lie in [0, 1), got 1.5\n"),
        ({"sweep.param": "schedule.alpha", "sweep.values": "0.1,5.0"},
         "config error: config field 'schedule.alpha': peak alpha*lambda = 1.5 exceeds 1 "
         "with decoupled weight decay\n"),
    ])
    def test_every_point_checked_before_any_runs(self, tmp_path, capsys, monkeypatch,
                                                 overrides, message):
        """A config error at the last grid point exits 2 before the first
        point's ensemble runs."""
        calls = []
        monkeypatch.setattr(cli.analysis, "mean_trajectory",
                            lambda *args, **kwargs: calls.append(args))
        text = minimal_quadratic_config(**{"optimizer.algorithm": "bcos_c", "run.steps": 3000,
                                           "run.n_seeds": 50, **overrides})
        path = write_config(tmp_path, text)
        assert cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")]) == 2
        assert capsys.readouterr().err == message
        assert calls == []
        assert not (tmp_path / "out").exists()

    def test_empty_grid_rejected(self, tmp_path, capsys):
        path = write_config(tmp_path, minimal_quadratic_config())
        rc = cli.main(["sweep", "--config", path, "--out", str(tmp_path / "out")])
        assert rc == 2


class TestCmdVerify:
    def test_runs_the_whole_catalog_without_config(self, capsys):
        """verify takes no config: a header, the five sections in their order
        and exactly 17 check lines, all PASS."""
        rc = cli.main(["verify"])
        out = capsys.readouterr().out
        lines = out.splitlines()
        assert rc == 0
        assert lines[0] == "name,observed,bound,tolerance,status"
        assert [ln for ln in lines if ln.startswith("# ")] == [
            "# counterexample_log_aiming", "# counterexample_quadratic_not_aiming",
            "# chung_recursions", "# ratio_expansion", "# estimator_catalog",
        ]
        checks = [ln for ln in lines[1:] if not ln.startswith("# ")]
        assert len(checks) == 17
        assert all(ln.endswith(",PASS") for ln in checks)
        # the same run, byte for byte against the golden corpus
        assert_golden(regenerate.VERIFY, out)

    def test_negative_control_fails(self, monkeypatch, capsys):
        """A wrong closed form for the expected variances must flip the
        estimator catalog to FAIL and exit 1."""
        right = cli._gaussian_square_variance
        monkeypatch.setattr(cli, "_gaussian_square_variance",
                            lambda mu, sd: 2.0 * right(mu, sd))
        rc = cli.main(["verify"])
        assert rc == 1
        failed = [ln.split(",")[0] for ln in capsys.readouterr().out.splitlines()
                  if ln.endswith(",FAIL")]
        assert failed == ["ema_variance_dev_se", "adam_variance_dev_se",
                          "conditional_variance_dev_se"]


    def test_failure_on_the_worker_fails_verify(self, monkeypatch, capsys):
        """A decay chunk that raises on the worker thread exits 2 as it would
        on the main thread: nothing on stdout, the message on stderr and no
        thread left running."""
        chunk_of = analysis._decay_chunk
        raised = []

        def failing(chunk):
            if threading.current_thread() is threading.main_thread():
                return chunk_of(chunk)
            raised.append(chunk)
            raise analysis.AnalysisError("recursion scan failed")

        monkeypatch.setattr(analysis, "_decay_chunk", failing)
        threads = threading.active_count()
        rc = cli.main(["verify"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: recursion scan failed\n"
        assert threading.active_count() == threads
        assert raised

    def test_failing_ratio_check_fails_verify(self, monkeypatch, capsys):
        """The ratio expansion runs on the main thread; residuals that do not
        shrink flip both its lines to FAIL and exit 1."""
        threads = []

        def flat(dist, s, rng, Z, work):
            threads.append(threading.current_thread())
            return analysis.RatioExpansionRow(s, 0.0, 0.0, 1e-3)

        monkeypatch.setattr(analysis, "_ratio_row", flat)
        rc = cli.main(["verify"])
        assert rc == 1
        failed = [ln.split(",")[0] for ln in capsys.readouterr().out.splitlines()
                  if ln.endswith(",FAIL")]
        assert failed == ["residual_ratio_0.5_to_0.25", "residual_ratio_0.25_to_0.125"]
        assert threads == [threading.main_thread()] * 3

    def test_ratio_error_beside_the_worker_fails_verify(self, monkeypatch, capsys):
        """The ratio expansion runs alone, before any decay chunk: its error
        exits 2 with nothing on stdout, the message on stderr, no chunk
        started and no thread left running."""
        ran = []

        def failing():
            raise analysis.AnalysisError("ratio expansion failed")

        monkeypatch.setattr(analysis, "_decay_chunk", ran.append)
        monkeypatch.setattr(analysis, "verify_ratio_expansion", failing)
        threads = threading.active_count()
        rc = cli.main(["verify"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: ratio expansion failed\n"
        assert threading.active_count() == threads
        assert ran == []

    def test_catalog_error_cancels_the_chunks_not_started(self, monkeypatch, capsys):
        """An error in the estimator catalog, raised on the main thread once
        the worker has started a decay chunk, exits 2: the chunks not yet
        started are cancelled, so fewer than all 30 run, each on the worker,
        and no thread is left running."""
        chunk_of = analysis._decay_chunk
        started = threading.Event()
        ran = []

        def counted(chunk):
            ran.append(threading.current_thread())
            started.set()
            return chunk_of(chunk)

        def failing():
            assert started.wait(10)
            raise analysis.AnalysisError("estimator catalog failed")

        monkeypatch.setattr(analysis, "_decay_chunk", counted)
        monkeypatch.setattr(cli, "_estimator_fixture_checks", failing)
        threads = threading.active_count()
        rc = cli.main(["verify"])
        captured = capsys.readouterr()
        assert rc == 2
        assert captured.out == ""
        assert captured.err == "error: estimator catalog failed\n"
        assert threading.active_count() == threads
        assert 1 <= len(ran) < 30
        assert threading.main_thread() not in ran

    @pytest.mark.parametrize("stolen", [0, 30])
    def test_output_does_not_depend_on_which_thread_runs_a_chunk(self, monkeypatch, capsys,
                                                                 stolen):
        """verify prints verify.txt byte for byte when the main thread runs
        none of the 30 decay chunks (the catalog waits until the worker has
        run them all) and when it runs every one (the worker waits until the
        main thread has)."""
        chunk_of = analysis._decay_chunk
        ran = []
        all_ran = threading.Event()

        def counted(chunk):
            result = chunk_of(chunk)
            ran.append(threading.current_thread())
            if len(ran) == 30:
                all_ran.set()
            return result

        monkeypatch.setattr(analysis, "_decay_chunk", counted)
        if stolen == 0:
            catalog = cli._estimator_fixture_checks

            def after_the_worker():
                assert all_ran.wait(30)
                return catalog()

            monkeypatch.setattr(cli, "_estimator_fixture_checks", after_the_worker)
        else:
            class HeldPool(concurrent.futures.ThreadPoolExecutor):
                """A pool whose worker waits until every chunk has run."""

                def __init__(self, *args, **kwargs):
                    super().__init__(*args, **kwargs)
                    self.submit(all_ran.wait, 30)

            monkeypatch.setattr(concurrent.futures, "ThreadPoolExecutor", HeldPool)
        assert cli.main(["verify"]) == 0
        assert_golden(regenerate.VERIFY, capsys.readouterr().out)
        assert len(ran) == 30
        assert ran.count(threading.main_thread()) == stolen

    def test_failing_recursion_check_fails_verify(self, monkeypatch, capsys):
        """Wrong chunks of the recursion that starts at t = 4, whichever
        thread runs them, flip its one line to FAIL and exit 1."""
        chunk_of = analysis._decay_chunk

        def wrong(chunk):
            decay, s = chunk_of(chunk)
            # that recursion's chunks start at t = 4 + k * 1e6
            return decay, (2.0 * s if chunk[2] % 10**6 == 4 else s)

        monkeypatch.setattr(analysis, "_decay_chunk", wrong)
        rc = cli.main(["verify"])
        assert rc == 1
        failed = [ln.split(",")[0] for ln in capsys.readouterr().out.splitlines()
                  if ln.endswith(",FAIL")]
        assert failed == ["power_decay_a2_p0.75_q1.5_b1"]

    def test_caller_errstate_reaches_the_worker(self, monkeypatch):
        """The caller's np.errstate holds on the worker thread: an overflow
        in a decay chunk there raises out of cmd_verify."""
        chunk_of = analysis._decay_chunk

        def overflowing(chunk):
            if threading.current_thread() is not threading.main_thread():
                np.exp(np.array([1000.0]))
            return chunk_of(chunk)

        monkeypatch.setattr(analysis, "_decay_chunk", overflowing)
        with np.errstate(over="raise"), pytest.raises(FloatingPointError) as raised:
            cli.cmd_verify(default_config())
        assert raised.traceback[-1].name == "overflowing"

    def test_claim_table_cites_every_check(self):
        """README's claim table cites every check line of verify exactly once
        and no other name in its checks column, and every library entry
        point it lists resolves."""
        rows = [ln for ln in readme_section("Claims and their checks") if ln.startswith("| ")]
        cited = [name for row in rows for name in re.findall(r"`([^`]+)`", row.split("|")[3])]
        with open(os.path.join(regenerate.HERE, regenerate.VERIFY), encoding="utf-8") as fh:
            printed = [ln.split(",")[0] for ln in fh.read().splitlines()[1:]
                       if not ln.startswith("# ")]
        assert [name for name in cited if name not in printed] == []
        assert {name: cited.count(name) for name in printed} == dict.fromkeys(printed, 1)
        entry_points = [re.match(r"- `([^`]+)`", ln).group(1)
                        for ln in readme_section("Library entry points") if ln.startswith("- ")]
        assert entry_points
        for dotted in entry_points:
            package, module, attrs = dotted.split(".", 2)
            target = operator.attrgetter(attrs)(importlib.import_module(f"{package}.{module}"))
            assert callable(target), dotted


class TestCmdCounterexamples:
    @pytest.mark.parametrize("check, function, fault", COUNTEREXAMPLE_FAULTS,
                             ids=[check for check, _, _ in COUNTEREXAMPLE_FAULTS])
    def test_one_failed_check_fails_both_commands(self, monkeypatch, capsys, check,
                                                  function, fault):
        """verify and counterexamples share one verdict: with one
        counterexample check's input broken, verify prints that check as its
        only FAIL line, and counterexamples prints the same FAIL line and
        names it on stderr; both exit 1."""
        right = getattr(problems, function)
        monkeypatch.setattr(problems, function, lambda: fault(right()))
        assert cli.main(["verify"]) == 1
        failed = [ln for ln in capsys.readouterr().out.splitlines() if ln.endswith(",FAIL")]
        assert [ln.split(",")[0] for ln in failed] == [check]
        assert cli.main(["counterexamples"]) == 1
        captured = capsys.readouterr()
        assert [ln for ln in captured.out.splitlines() if ln.endswith(",FAIL")] == failed
        assert captured.err == f"check failed: {check}\n"

    def test_prints_the_check_lines_verify_prints(self, capsys):
        """Every check line of counterexamples is, byte for byte and in order,
        a line of verify.txt's two counterexample sections, and together they
        are all of those lines."""
        assert cli.main(["counterexamples"]) == 0
        printed = [ln for ln in capsys.readouterr().out.splitlines()
                   if ln.endswith((",PASS", ",FAIL"))]
        with open(os.path.join(regenerate.HERE, regenerate.VERIFY), encoding="utf-8") as fh:
            lines = fh.read().splitlines()
        end = lines.index("# chung_recursions")
        assert printed == [ln for ln in lines[1:end] if not ln.startswith("# ")]

    def test_csv_flags_follow_the_measurements(self, monkeypatch, tmp_path):
        """The CSV's aiming_ok and convex_ok columns are read from the row's
        measured values: a negative inner product writes aiming_ok = 0."""
        right = problems.counterexample_log_aiming
        monkeypatch.setattr(problems, "counterexample_log_aiming",
                            lambda: with_first_row(right(), inner_product=-0.1))
        assert cli.main(["counterexamples", "--out", str(tmp_path / "ce")]) == 1
        with open(tmp_path / "ce" / "counterexample_log.csv", encoding="utf-8") as fh:
            rows = fh.read().splitlines()
        assert rows[1] == "0.1,-0.1,-99.99999999999999,0,0"

    def test_prints_both_reports(self, capsys):
        rc = cli.main(["counterexamples"])
        out = capsys.readouterr().out
        assert rc == 0
        assert out.count("# counterexample:") == 2

    def test_writes_csv_when_out_given(self, tmp_path):
        rc = cli.main(["counterexamples", "--out", str(tmp_path / "ce")])
        assert rc == 0
        assert (tmp_path / "ce" / "counterexample_log.csv").exists()

    def test_output_dir_env_writes_what_out_writes(self, tmp_path, monkeypatch):
        """--out wins over OUTPUT_DIR; with OUTPUT_DIR alone set,
        counterexamples writes there the CSV and the manifest that --out
        writes, byte for byte."""
        flag, env = tmp_path / "flag", tmp_path / "env"
        monkeypatch.setenv("OUTPUT_DIR", str(env))
        assert cli.main(["counterexamples", "--out", str(flag)]) == 0
        assert not env.exists()
        assert cli.main(["counterexamples"]) == 0
        names = ["counterexample_log.csv", "manifest.txt"]
        assert sorted(os.listdir(flag)) == sorted(os.listdir(env)) == names
        assert all((env / name).read_bytes() == (flag / name).read_bytes() for name in names)
