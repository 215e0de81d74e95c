import datetime
import json
import os
import resource
import stat
import subprocess
import sys
import threading
import warnings

import numpy as np
import pytest

import lrdkit.cli as cli
from lrdkit import finance
from lrdkit.cli import main
from lrdkit.dfa import dfa_hurst
from lrdkit.finance import read_series_csv, series_csv_text


def run_cli(*argv):
    return subprocess.run(
        [sys.executable, "-m", "lrdkit", *argv],
        capture_output=True,
        text=True,
    )


def write_noise(path, hurst="0.7", length="600", seed="1"):
    result = run_cli(
        "synth",
        "--hurst", hurst,
        "--length", length,
        "--seed", seed,
        "--out", str(path),
    )
    assert result.returncode == 0, result.stderr
    return path


@pytest.fixture(scope="module")
def noise_csv(tmp_path_factory):
    return write_noise(tmp_path_factory.mktemp("data") / "noise.csv")


class TestOutputTargets:
    ARGS = ["synth", "--hurst", "0.6", "--length", "20", "--seed", "3"]

    @pytest.fixture
    def expected(self, capsys):
        assert main(self.ARGS) == 0
        return capsys.readouterr().out

    def test_symlink_is_written_through(self, tmp_path, expected):
        target = tmp_path / "real.csv"
        target.write_text("old\n")
        link = tmp_path / "link.csv"
        link.symlink_to(target)
        assert main([*self.ARGS, "--out", str(link)]) == 0
        assert link.is_symlink() and os.readlink(link) == str(target)
        assert target.read_text() == expected
        assert sorted(path.name for path in tmp_path.iterdir()) == ["link.csv", "real.csv"]

    def test_existing_file_keeps_its_mode(self, tmp_path, expected):
        target = tmp_path / "series.csv"
        target.write_text("old\n")
        target.chmod(0o640)
        assert main([*self.ARGS, "--out", str(target)]) == 0
        assert target.read_text() == expected
        assert stat.S_IMODE(target.stat().st_mode) == 0o640

    def test_fifo_is_written_directly(self, tmp_path, expected):
        fifo = tmp_path / "pipe"
        os.mkfifo(fifo)
        received = []
        reader = threading.Thread(target=lambda: received.append(fifo.read_text()), daemon=True)
        reader.start()
        assert main([*self.ARGS, "--out", str(fifo)]) == 0
        reader.join(timeout=10)
        assert received == [expected]
        assert stat.S_ISFIFO(fifo.stat().st_mode)

    @pytest.mark.parametrize("out", ["", "nodir" + os.sep])
    def test_directory_path_writes_nothing(self, noise_csv, tmp_path, monkeypatch, capsys, out):
        # "" resolves to the working directory; "nodir/" names a directory
        # that does not exist. Neither may become a file.
        monkeypatch.chdir(tmp_path)
        code = main([
            "lrdtest", str(noise_csv),
            "--surrogates", "100",
            "--fluctuation-out", "fl",
            "--out", out,
        ])
        assert code == 1
        assert capsys.readouterr().err == f"error: cannot write {out}: Is a directory\n"
        assert list(tmp_path.iterdir()) == []

    def test_dev_stdout_is_written_in_place(self, monkeypatch, capfd):
        assert main(self.ARGS) == 0
        expected = capfd.readouterr().out
        replace = os.replace

        def replace_outside_dev(source, target):
            # Renaming onto a /dev entry would replace it for every process.
            assert not str(target).startswith("/dev/"), target
            replace(source, target)

        monkeypatch.setattr(os, "replace", replace_outside_dev)
        # /dev/stdout resolves to pytest's capture file, which is written in
        # place; a file put in its stead would not be captured.
        assert main([*self.ARGS, "--out", "/dev/stdout"]) == 0
        assert capfd.readouterr().out == expected


class TestSynth:
    def test_output_shape_and_determinism(self, tmp_path):
        first = run_cli("synth", "--hurst", "0.6", "--length", "32", "--seed", "5")
        second = run_cli("synth", "--hurst", "0.6", "--length", "32", "--seed", "5")
        assert first.returncode == 0
        assert first.stdout == second.stdout
        lines = first.stdout.strip().split("\n")
        assert lines[0] == "date,value"
        assert len(lines) == 33
        assert lines[1].startswith("2004-01-01,")

    def test_start_date_and_label(self, tmp_path):
        target = tmp_path / "series.csv"
        result = run_cli(
            "synth",
            "--hurst", "0.6",
            "--length", "20",
            "--start-date", "2010-05-01",
            "--out", str(target),
        )
        assert result.returncode == 0
        series = read_series_csv(target, "trends")
        assert series.dates[0].isoformat() == "2010-05-01"
        assert len(series) == 20

    @pytest.mark.parametrize("sigma", ["1e308"])
    def test_overflowing_sigma_fails_cleanly(self, sigma):
        result = run_cli("synth", "--hurst", "0.6", "--length", "20", "--sigma", sigma)
        assert result.returncode == 1
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            f"error: need sigma > 0 and 2 * length * sigma^2 finite, got {float(sigma)}"
        ]

    @pytest.mark.parametrize("sigma", ["0", "-1", "nan", "inf"])
    def test_sigma_outside_zero_to_infinity_is_a_usage_error(self, capsys, sigma):
        with pytest.raises(SystemExit) as stop:
            main(["synth", "--hurst", "0.6", "--length", "20", "--sigma", sigma])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"argument --sigma: sigma must lie strictly inside (0, inf), got {sigma}"
        )

    @pytest.mark.parametrize("date", ["20040105", "2004-W01-1"])
    def test_start_date_must_be_year_month_day(self, date):
        result = run_cli("synth", "--hurst", "0.6", "--length", "20", "--start-date", date)
        assert result.returncode == 2
        assert "invalid ISO date" in result.stderr

    def test_label_option_is_gone(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("label = foo\n")
        argv = ("synth", "--hurst", "0.6", "--length", "20")
        assert run_cli(*argv, "--label", "foo").returncode == 2
        result = run_cli(*argv, "--config", str(config))
        assert result.returncode == 2
        assert "unknown key 'label'" in result.stderr

    def test_invalid_hurst_is_a_usage_error(self):
        result = run_cli("synth", "--hurst", "1.5", "--length", "32")
        assert result.returncode == 2
        assert result.stderr.splitlines()[-1].endswith(
            "argument --hurst: hurst exponent must lie strictly inside (0, 1), got 1.5"
        )

    def test_dates_past_the_last_date_are_a_usage_error(self):
        result = run_cli("synth", "--hurst", "0.7", "--length", "16", "--start-date", "9999-12-25")
        assert result.returncode == 2
        assert "usage error" in result.stderr
        assert "Traceback" not in result.stderr

    def test_dates_reach_the_last_date(self, capsys):
        assert main(["synth", "--hurst", "0.7", "--length", "16", "--start-date", "9999-12-16"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert len(lines) == 17
        assert lines[1].startswith("9999-12-16,") and lines[-1].startswith("9999-12-31,")

    def test_one_day_past_the_last_date_is_a_usage_error(self):
        result = run_cli("synth", "--hurst", "0.7", "--length", "16", "--start-date", "9999-12-17")
        assert result.returncode == 2
        assert result.stdout == ""
        assert result.stderr.splitlines() == [
            "usage error: 16 days from 9999-12-17 pass the last representable date"
        ]

    def test_length_below_16_is_a_usage_error(self):
        result = run_cli("synth", "--hurst", "0.7", "--length", "15")
        assert result.returncode == 2
        assert "length must be at least 16, got 15" in result.stderr

    def test_dates_start_at_the_first_date(self, capsys):
        assert main(["synth", "--hurst", "0.7", "--length", "16", "--start-date", "0001-01-01"]) == 0
        lines = capsys.readouterr().out.splitlines()
        assert lines[1].startswith("0001-01-01,") and lines[-1].startswith("0001-01-16,")


class TestLrdtest:
    def test_json_document(self, noise_csv):
        result = run_cli(
            "lrdtest", str(noise_csv), "--surrogates", "150", "--seed", "3"
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["schema_version"] == 1
        assert document["command"] == "lrdtest"
        assert document["seed"] == 3
        assert document["n_surrogates"] == 150
        assert document["block_size"] == 25
        (row,) = document["results"]
        assert row["label"] == "noise"
        assert row["n_obs"] == 600
        assert 1.0 / 151.0 <= row["rescaled_range_p"] <= 1.0
        assert 1.0 / 151.0 <= row["rescaled_variance_p"] <= 1.0
        assert row["bandwidth"] >= 0
        assert 0.0 < row["hurst_dfa"] < 1.5

    def test_runs_are_byte_identical(self, noise_csv):
        argv = ("lrdtest", str(noise_csv), "--surrogates", "150", "--seed", "3")
        first = run_cli(*argv)
        second = run_cli(*argv)
        assert first.stdout == second.stdout

    def test_csv_format(self, noise_csv):
        result = run_cli(
            "lrdtest", str(noise_csv),
            "--surrogates", "150",
            "--format", "csv",
        )
        assert result.returncode == 0
        lines = result.stdout.strip().split("\n")
        assert lines[0] == (
            "label,n_obs,rescaled_range_stat,rescaled_range_p,"
            "rescaled_variance_stat,rescaled_variance_p,bandwidth,hurst_dfa"
        )
        assert len(lines) == 2
        assert lines[1].startswith("noise,600,")

    def test_fluctuation_out(self, noise_csv, tmp_path):
        prefix = tmp_path / "fluct"
        result = run_cli(
            "lrdtest", str(noise_csv),
            "--surrogates", "150",
            "--fluctuation-out", str(prefix),
            "--out", str(tmp_path / "report.json"),
        )
        assert result.returncode == 0
        assert result.stdout == ""
        # Both files are renamed into place; no temp file is left.
        assert sorted(path.name for path in tmp_path.iterdir()) == ["fluct_noise.csv", "report.json"]
        assert json.loads((tmp_path / "report.json").read_text())["command"] == "lrdtest"
        side_file = tmp_path / "fluct_noise.csv"
        lines = side_file.read_text().strip().split("\n")
        assert lines[0] == "scale,fluctuation"
        scales = [int(line.split(",")[0]) for line in lines[1:]]
        assert scales[0] == 10
        assert len(scales) >= 5

    def test_detects_strong_persistence(self, tmp_path):
        data = write_noise(tmp_path / "persistent.csv", hurst="0.9", length="2500")
        result = run_cli(
            "lrdtest", str(data), "--surrogates", "200", "--seed", "0"
        )
        document = json.loads(result.stdout)
        (row,) = document["results"]
        assert row["rescaled_range_p"] < 0.05
        assert row["rescaled_variance_p"] < 0.05
        assert row["hurst_dfa"] == pytest.approx(0.9, abs=0.1)

    def test_overflowing_values_fail_cleanly(self, tmp_path):
        # The sum of 300 values of 1e308 overflows in data units; the series
        # is refused because it is constant, which its scaled copy is too.
        data = write_values(tmp_path / "huge.csv", [1e308] * 300)
        result = run_cli("lrdtest", data, "--surrogates", "100")
        assert result.returncode == 1
        assert "variance" in result.stderr
        assert "Traceback" not in result.stderr

    def test_alternating_overflowing_values_match_their_scaled_copy(self, tmp_path, capsys):
        # Alternating +-1e308 has a data-unit mean and variance past the
        # float range, but the bootstrap runs on the scaled series.
        values = np.array([1e308, -1e308] * 150)
        rows = []
        for name, copy in (("huge", values), ("scaled", np.ldexp(values, -1024))):
            with warnings.catch_warnings():
                warnings.simplefilter("error")
                code = main(["lrdtest", write_values(tmp_path / f"{name}.csv", copy), "--surrogates", "100"])
            assert code == 0
            (row,) = json.loads(capsys.readouterr().out)["results"]
            rows.append(row)
        huge, scaled = ({k: v for k, v in row.items() if k not in ("label", "hurst_dfa")} for row in rows)
        assert huge == scaled
        assert huge["bandwidth"] == 299

    def test_non_utf8_input_fails_cleanly(self, tmp_path):
        data = tmp_path / "latin1.csv"
        data.write_bytes(b"date,value\n2004-01-01,1\xff\n")
        result = run_cli("lrdtest", str(data))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [f"error: {data}: not UTF-8 text"]

    def test_one_surrogate_is_enough(self, noise_csv):
        result = run_cli("lrdtest", str(noise_csv), "--surrogates", "1")
        assert result.returncode == 0, result.stderr
        assert json.loads(result.stdout)["results"][0]["rescaled_range_p"] in (0.5, 1.0)

    def test_missing_input_file(self, tmp_path):
        result = run_cli("lrdtest", str(tmp_path / "absent.csv"))
        assert result.returncode == 1
        assert "error" in result.stderr

    @pytest.mark.parametrize("bad, message", [
        ("unreadable", "bad.csv:2: non-numeric value field 'oops'"),
        # A constant series whose sum overflows in data units.
        ("overflowing", "variance"),
    ])
    def test_failing_input_writes_nothing(self, noise_csv, tmp_path, bad, message):
        inputs = tmp_path / "in"
        inputs.mkdir()
        text = noise_csv.read_text()
        (inputs / "na.csv").write_text(text)
        (inputs / "nb.csv").write_text(text)
        if bad == "unreadable":
            (inputs / "bad.csv").write_text("date,value\n2004-01-01,oops\n")
        else:
            write_values(inputs / "bad.csv", [1e308] * 300)
        out = tmp_path / "out"
        out.mkdir()
        result = run_cli(
            "lrdtest", *(str(inputs / name) for name in ("na.csv", "nb.csv", "bad.csv")),
            "--surrogates", "100",
            "--fluctuation-out", str(out / "fl"),
            "--out", str(out / "o.json"),
        )
        assert result.returncode == 1
        assert message in result.stderr
        assert list(out.iterdir()) == []

    def test_failing_report_write_leaves_no_fluctuation_file(self, noise_csv, tmp_path):
        result = run_cli(
            "lrdtest", str(noise_csv),
            "--surrogates", "100",
            "--fluctuation-out", str(tmp_path / "fl"),
            "--out", str(tmp_path / "missing_dir" / "report.json"),
        )
        assert result.returncode == 1
        assert result.stderr.startswith(f"error: cannot write {tmp_path / 'missing_dir' / 'report.json'}: ")
        assert list(tmp_path.iterdir()) == []

    def test_failing_rename_leaves_no_temp_file(self, noise_csv, tmp_path, monkeypatch, capsys):
        replace = os.replace

        def refuse_report(source, target):
            if str(target).endswith("report.json"):
                raise PermissionError(13, "Permission denied", str(target))
            replace(source, target)

        monkeypatch.setattr(os, "replace", refuse_report)
        code = main([
            "lrdtest", str(noise_csv),
            "--surrogates", "100",
            "--fluctuation-out", str(tmp_path / "fl"),
            "--out", str(tmp_path / "report.json"),
        ])
        assert code == 1
        assert "Permission denied" in capsys.readouterr().err
        assert not [path for path in tmp_path.iterdir() if path.suffix == ".tmp"]

    def test_shared_label_with_fluctuation_out_writes_nothing(self, noise_csv, tmp_path):
        # Both inputs are labelled "x", so both would write fl_x.csv.
        for folder in ("a", "b"):
            (tmp_path / folder).mkdir()
            (tmp_path / folder / "x.csv").write_text(noise_csv.read_text())
        out = tmp_path / "out"
        out.mkdir()
        result = run_cli(
            "lrdtest", str(tmp_path / "a" / "x.csv"), str(tmp_path / "b" / "x.csv"),
            "--surrogates", "100",
            "--fluctuation-out", str(out / "fl"),
            "--out", str(out / "o.json"),
        )
        assert result.returncode == 1
        assert "'x'" in result.stderr
        assert "Traceback" not in result.stderr
        assert list(out.iterdir()) == []


def write_values(path, values):
    start = datetime.date(2010, 1, 1)
    path.write_text("date,value\n" + "".join(
        f"{start + datetime.timedelta(days=i)},{float(v)!r}\n" for i, v in enumerate(values)
    ))
    return str(path)


class TestLrdtestPanel:
    """lrdtest detrends the series of one length together, then fits and
    tests each series in turn."""

    def test_each_row_and_file_as_alone(self, tmp_path, capsys):
        rng = np.random.default_rng(24)
        paths = [
            write_values(tmp_path / f"s{n}-{i}.csv", rng.standard_normal(n).cumsum() * 0.1 + rng.standard_normal(n))
            for n in (130, 600, 2500, 5000, 10000) for i in range(2)
        ]
        common = ["--surrogates", "20", "--seed", "4"]
        assert main(["lrdtest", *paths, *common, "--out", str(tmp_path / "panel.json"),
                     "--fluctuation-out", str(tmp_path / "panel")]) == 0
        rows = json.loads((tmp_path / "panel.json").read_text())["results"]
        assert [row["label"] for row in rows] == [os.path.basename(p)[:-4] for p in paths]
        for path, row in zip(paths, rows):
            label = row["label"]
            assert main(["lrdtest", path, *common, "--out", str(tmp_path / "alone.json"),
                         "--fluctuation-out", str(tmp_path / "alone")]) == 0
            assert json.loads((tmp_path / "alone.json").read_text())["results"] == [row]
            text = (tmp_path / f"panel_{label}.csv").read_text()
            assert (tmp_path / f"alone_{label}.csv").read_text() == text
            hurst = dfa_hurst(read_series_csv(path, "trends"))
            assert row["hurst_dfa"] == hurst.h
            table = [line.split(",") for line in text.splitlines()[1:]]
            assert [int(s) for s, _ in table] == hurst.fluctuation.scales.tolist()
            assert [float(f) for _, f in table] == hurst.fluctuation.values.tolist()
        assert capsys.readouterr().err == ""

    def test_error_names_the_first_series_dfa_failure(self, tmp_path, capsys):
        # The short series passes its bootstrap at block size 5 and fails
        # DFA; the constant one would fail its bootstrap.
        short = write_values(tmp_path / "short.csv", np.random.default_rng(25).standard_normal(40))
        constant = write_values(tmp_path / "constant.csv", [2.0] * 400)
        assert main(["lrdtest", short, constant, "--block-size", "5", "--surrogates", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least 50 observations for min_scale 10, got 40\n"

    def test_constant_series_in_a_stack_fails_with_its_error(self, tmp_path, capsys):
        # The three series share a length, so one kernel evaluates them; the
        # constant one is refused before it and the run stops at its turn.
        rng = np.random.default_rng(27)
        paths = [
            write_values(tmp_path / "a.csv", rng.standard_normal(400)),
            write_values(tmp_path / "constant.csv", [2.0] * 400),
            write_values(tmp_path / "b.csv", rng.standard_normal(400)),
        ]
        out = tmp_path / "report.json"
        assert main(["lrdtest", *paths, "--surrogates", "20", "--out", str(out),
                     "--fluctuation-out", str(tmp_path / "fl")]) == 1
        assert capsys.readouterr().err == (
            "error: series variance is zero or not finite, or its long-run variance is not positive\n"
        )
        assert sorted(os.listdir(tmp_path)) == ["a.csv", "b.csv", "constant.csv"]

    def test_bad_value_under_a_shared_calendar_fails_as_alone(self, tmp_path, capsys):
        # The second file has the first one's dates, which the reader then
        # holds checked, and one malformed value; the row loop still names it.
        rng = np.random.default_rng(29)
        good = write_values(tmp_path / "good.csv", rng.standard_normal(300))
        bad = write_values(tmp_path / "bad.csv", rng.standard_normal(300))
        lines = (tmp_path / "bad.csv").read_text().splitlines(keepends=True)
        lines[101] = lines[101].split(",")[0] + ",1.2.3\n"
        (tmp_path / "bad.csv").write_text("".join(lines))
        finance._calendar.cache_clear()
        assert main(["lrdtest", bad, "--surrogates", "20"]) == 1
        alone = capsys.readouterr()
        assert alone.err == f"error: {bad}:102: non-numeric value field '1.2.3'\n"
        assert main(["lrdtest", good, bad, "--surrogates", "20"]) == 1
        assert finance._calendar.cache_info().hits >= 1
        assert capsys.readouterr() == alone

    def test_earlier_dfa_error_comes_first_in_a_stack(self, tmp_path, capsys):
        # Both series have 40 points: the first passes its bootstrap at block
        # size 5 and fails DFA, the second would fail its bootstrap.
        short = write_values(tmp_path / "short.csv", np.random.default_rng(28).standard_normal(40))
        constant = write_values(tmp_path / "constant.csv", [2.0] * 40)
        assert main(["lrdtest", short, constant, "--block-size", "5", "--surrogates", "20"]) == 1
        captured = capsys.readouterr()
        assert captured.out == ""
        assert captured.err == "error: need at least 50 observations for min_scale 10, got 40\n"

    def test_zero_fluctuation_warnings_in_series_order(self, tmp_path, capsys):
        # Steps between exact plateaus are linear inside every box that does
        # not straddle them; the run stops at the constant series' bootstrap,
        # so the last step is never fitted.
        noise = np.random.default_rng(26).standard_normal(600)
        paths = [
            write_values(tmp_path / "step400.csv", [0.0] * 200 + [1.0] * 200),
            write_values(tmp_path / "noise.csv", noise),
            write_values(tmp_path / "step600.csv", [0.0] * 300 + [1.0] * 300),
            write_values(tmp_path / "constant.csv", [2.0] * 400),
            write_values(tmp_path / "unreached.csv", [0.0] * 200 + [1.0] * 200),
        ]
        with warnings.catch_warnings(record=True) as caught:
            warnings.simplefilter("always")
            assert main(["lrdtest", *paths, "--surrogates", "20"]) == 1
        assert [str(w.message) for w in caught] == [
            "dropping zero-fluctuation scales: 10, 25, 50",
            "dropping zero-fluctuation scales: 10, 12, 15, 25, 50, 100",
        ]
        assert "variance" in capsys.readouterr().err


class TestXcorr:
    def test_overflowing_series_runs_without_runtime_warnings(self, tmp_path, capsys):
        # Alternating +-1e300 has a data-unit variance past the float range;
        # the coefficients are taken of the scaled series, as of any 2**j copy.
        values = np.array([1e300, -1e300] * 150)
        plain = write_values(tmp_path / "plain.csv", [i * 7 % 13 for i in range(300)])
        reports = []
        for name, copy in (("huge", values), ("scaled", np.ldexp(values, -996))):
            with warnings.catch_warnings():
                warnings.simplefilter("error", RuntimeWarning)
                code = main(["xcorr", write_values(tmp_path / f"{name}.csv", copy), plain, "--surrogates", "100"])
            assert code == 0
            out, err = capsys.readouterr()
            assert err == ""
            reports.append(json.loads(out)["results"])
        huge, scaled = reports
        for method, result in scaled.items():
            assert huge[method]["p_values"] == result["p_values"]
            assert huge[method]["summary"] == result["summary"]

    def test_json_document_both_methods(self, noise_csv, tmp_path):
        other = write_noise(tmp_path / "other.csv", seed="2")
        result = run_cli(
            "xcorr", str(noise_csv), str(other),
            "--surrogates", "100",
            "--seed", "4",
        )
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["command"] == "xcorr"
        assert document["inputs"] == {"x": "noise", "y": "other"}
        assert document["n_obs"] == 600
        assert document["sign"] in {"+", "-", "0"}
        assert set(document["results"]) == {"dcca", "dmca"}
        for method, report in document["results"].items():
            assert len(report["scales"]) == 25
            assert len(report["rho"]) == 25
            assert len(report["p_values"]) == 25
            assert len(report["rho_masked"]) == 25
            assert all(0.0 < p <= 1.0 for p in report["p_values"])
            summary = report["summary"]
            assert -1.0 <= summary["mean_rho"] <= 1.0
            assert isinstance(summary["significant"], bool)

    def test_identical_inputs_are_significant_positive(self, noise_csv):
        result = run_cli(
            "xcorr", str(noise_csv), str(noise_csv),
            "--method", "dcca",
            "--surrogates", "100",
        )
        document = json.loads(result.stdout)
        report = document["results"]["dcca"]
        assert np.allclose(report["rho"], 1.0, atol=1e-9)
        assert all(p == 1.0 / 101.0 for p in report["p_values"])
        assert report["summary"]["significant"] is True
        assert document["sign"] == "+"
        assert report["rho_masked"] == report["rho"]

    def test_identical_inputs_never_exceed_one(self, noise_csv):
        # Rounding used to carry several of these coefficients one ulp past 1.
        result = run_cli(
            "xcorr", str(noise_csv), str(noise_csv),
            "--surrogates", "100",
            "--format", "csv",
        )
        assert result.returncode == 0, result.stderr
        rows = [line.split(",") for line in result.stdout.splitlines()[1:]]
        assert {row[0] for row in rows} == {"dcca", "dmca"}
        for method, scale, rho, p_value, masked in rows:
            assert abs(float(rho)) <= 1.0, (method, scale, rho)
            assert abs(float(masked)) <= 1.0, (method, scale, masked)

    def test_custom_grid_single_method(self, noise_csv, tmp_path):
        other = write_noise(tmp_path / "other.csv", seed="8")
        result = run_cli(
            "xcorr", str(noise_csv), str(other),
            "--method", "dcca",
            "--grid", "10:60:10",
            "--surrogates", "100",
        )
        document = json.loads(result.stdout)
        assert document["results"]["dcca"]["scales"] == [10, 20, 30, 40, 50, 60]

    def test_fewer_than_100_surrogates_are_a_usage_error(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("surrogates = 99\n")
        via_flag = run_cli("xcorr", str(noise_csv), str(noise_csv), "--surrogates", "50")
        via_config = run_cli("xcorr", str(noise_csv), str(noise_csv), "--config", str(config))
        for result, count in ((via_flag, 50), (via_config, 99)):
            assert result.returncode == 2
            assert result.stderr.splitlines() == [
                f"usage error: xcorr needs at least 100 surrogates, got {count}"
            ]

    def test_level_outside_zero_to_one_is_a_usage_error(self, noise_csv, capsys):
        with pytest.raises(SystemExit) as stop:
            main(["xcorr", str(noise_csv), str(noise_csv), "--level", "1"])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            "argument --level: significance level must lie strictly inside (0, 1), got 1"
        )

    @pytest.mark.parametrize("via", ["flag", "config"])
    def test_huge_grid_fails_at_the_first_scale_too_large(self, noise_csv, tmp_path, via):
        # Built in full, this grid would need 745 GiB; under a 4 GiB address
        # space limit only a grid cut to the series length gets to the check.
        grid = "10:100000000000:1"
        config = tmp_path / "run.conf"
        config.write_text(f"grid = {grid}\n")
        option = ["--grid", grid] if via == "flag" else ["--config", str(config)]
        limit = (4 << 30, resource.getrlimit(resource.RLIMIT_AS)[1])
        result = subprocess.run(
            [sys.executable, "-m", "lrdkit", "xcorr", str(noise_csv), str(noise_csv),
             "--method", "dcca", "--surrogates", "100", *option],
            capture_output=True,
            text=True,
            preexec_fn=lambda: resource.setrlimit(resource.RLIMIT_AS, limit),
        )
        assert result.returncode == 1
        assert result.stderr == "error: scale must be an integer in [4, 300] for length 600, got 301\n"

    def test_grid_start_past_int64_fails_cleanly(self, noise_csv):
        start = 10**23
        result = run_cli(
            "xcorr", str(noise_csv), str(noise_csv), "--method", "dcca",
            "--grid", f"{start}:{start + 1}:1", "--surrogates", "100",
        )
        assert result.returncode == 1
        assert result.stderr == "error: scale grid holds an entry outside the 64-bit range\n"

    def test_grid_with_both_methods_rejected(self, noise_csv):
        result = run_cli(
            "xcorr", str(noise_csv), str(noise_csv),
            "--grid", "10:60:10",
            "--surrogates", "100",
        )
        assert result.returncode == 2
        assert "usage error" in result.stderr

    def test_csv_format(self, noise_csv):
        result = run_cli(
            "xcorr", str(noise_csv), str(noise_csv),
            "--method", "dcca",
            "--grid", "10:30:10",
            "--surrogates", "100",
            "--format", "csv",
        )
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "method,scale,rho,p_value,rho_masked"
        assert len(lines) == 4
        assert lines[1].startswith("dcca,10,")

    def test_short_pair_clips_default_grids(self, tmp_path):
        x = write_noise(tmp_path / "x.csv", length="300", seed="3")
        y = write_noise(tmp_path / "y.csv", length="300", seed="4")
        result = run_cli("xcorr", str(x), str(y), "--surrogates", "100")
        assert result.returncode == 0, result.stderr
        results = json.loads(result.stdout)["results"]
        assert results["dcca"]["scales"] == list(range(10, 151, 10))
        assert results["dmca"]["scales"] == list(range(11, 142, 10))

    def test_dates_align_by_intersection(self, tmp_path):
        long = write_noise(tmp_path / "long.csv", length="120", seed="3")
        short = write_noise(tmp_path / "short.csv", length="100", seed="4")
        result = run_cli(
            "xcorr", str(long), str(short),
            "--method", "dcca",
            "--grid", "10:40:10",
            "--surrogates", "100",
        )
        document = json.loads(result.stdout)
        assert document["n_obs"] == 100

    def test_disjoint_dates_fail(self, tmp_path):
        early = write_noise(tmp_path / "early.csv", length="50", seed="3")
        late = run_cli(
            "synth",
            "--hurst", "0.7",
            "--length", "50",
            "--seed", "4",
            "--start-date", "2010-01-01",
            "--out", str(tmp_path / "late.csv"),
        )
        assert late.returncode == 0
        result = run_cli(
            "xcorr", str(early), str(tmp_path / "late.csv"),
            "--method", "dcca",
            "--grid", "10:20:10",
            "--surrogates", "100",
        )
        assert result.returncode == 1
        assert "fewer than 2" in result.stderr


class TestWarningsAsErrors:
    """Under ``python -W error`` a library warning ends the run like an
    analysis error: exit 1, one stderr line, nothing written."""

    @pytest.mark.parametrize(
        "command, message",
        [
            ("lrdtest", "dropping zero-fluctuation scales: 10, 25, 50"),
            ("xcorr", "degenerate scales forced p = 1 at: 10, 20, 40, 50, 100, 200"),
        ],
        ids=["lrdtest", "xcorr"],
    )
    def test_library_warning_gives_one_error_line(self, tmp_path, command, message):
        step = write_values(tmp_path / "step.csv", [0.0] * 200 + [1.0] * 200)
        inputs = [step] if command == "lrdtest" else [step, step]
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdkit", command, *inputs,
             "--surrogates", "100", "--out", str(tmp_path / "report.json")],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stdout, result.stderr) == (1, "", f"error: {message}\n")
        assert [path.name for path in tmp_path.iterdir()] == ["step.csv"]


class TestVolatility:
    @pytest.fixture()
    def bars_csv(self, tmp_path):
        target = tmp_path / "prices.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,1200\n"
            "2021-01-05,105,106,99,100,900\n"
            "2021-01-06,100,108,97,103,1500\n"
        )
        return target

    def test_requires_out_prefix(self, bars_csv):
        result = run_cli("volatility", str(bars_csv))
        assert result.returncode == 2
        assert "usage error" in result.stderr

    def test_row_loop_writes_the_same_bytes(self, bars_csv, tmp_path, capsys):
        crlf = tmp_path / "crlf.csv"
        crlf.write_bytes(bars_csv.read_bytes().replace(b"\n", b"\r\n"))
        for source, prefix in ((bars_csv, "lf"), (crlf, "crlf")):
            assert main(["volatility", str(source), "--out", str(tmp_path / prefix)]) == 0
        for suffix in ("_log_variance.csv", "_log_volume.csv"):
            assert (tmp_path / f"lf{suffix}").read_bytes() == (tmp_path / f"crlf{suffix}").read_bytes()

    def test_outputs_write_the_readers_date_cells(self, bars_csv, tmp_path, monkeypatch):
        # The column reader keeps the date grid it checked on the dates, and
        # both outputs copy that grid instead of making their own.
        read, written = [], []
        monkeypatch.setattr(cli, "read_series_csv", lambda *a: read.append(read_series_csv(*a)) or read[-1])
        monkeypatch.setattr(cli, "series_csv_text", lambda s: written.append(s) or series_csv_text(s))
        assert main(["volatility", str(bars_csv), "--out", str(tmp_path / "v")]) == 0
        (bars,) = read
        assert bars.dates.cells.tobytes() == b"2021-01-04,2021-01-05,2021-01-06,"
        assert [s.label for s in written] == ["log(prices-variance)", "log(prices-volume)"]
        assert all(s.dates.cells is bars.dates.cells for s in written)
        for suffix in ("_log_variance.csv", "_log_volume.csv"):
            dates = [line.split(",")[0] for line in (tmp_path / f"v{suffix}").read_text().splitlines()]
            assert dates == ["date", "2021-01-04", "2021-01-05", "2021-01-06"]

    def test_bad_bar_names_its_row(self, tmp_path):
        target = tmp_path / "bad.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,1200\n"
            "2021-01-05,105,104,99,100,900\n"
        )
        result = run_cli("volatility", str(target), "--out", str(tmp_path / "v"))
        assert result.returncode == 1
        assert result.stderr.splitlines() == [
            f"error: {target}:3: 2021-01-05: bar violates low <= open, close <= high"
        ]
        assert sorted(path.name for path in tmp_path.iterdir()) == ["bad.csv"]

    @pytest.mark.parametrize("floor", ["0", "-1", "nan", "inf"])
    def test_floor_outside_zero_to_infinity_is_a_usage_error(self, bars_csv, tmp_path, capsys, floor):
        with pytest.raises(SystemExit) as stop:
            main(["volatility", str(bars_csv), "--floor", floor, "--out", str(tmp_path / "v")])
        assert stop.value.code == 2
        assert capsys.readouterr().err.splitlines()[-1].endswith(
            f"argument --floor: floor must lie strictly inside (0, inf), got {floor}"
        )
        assert sorted(path.name for path in tmp_path.iterdir()) == ["prices.csv"]

    def test_floor_does_not_carry_into_the_next_call(self, bars_csv, tmp_path, capsys):
        # main builds its parser once per process, so each call must still
        # start from the defaults.
        floors = []
        for option in (["--floor", "0.5"], []):
            assert main(["volatility", str(bars_csv), *option, "--out", str(tmp_path / "v")]) == 0
            floors.append(json.loads(capsys.readouterr().out)["floor"])
        assert floors[0] == {"log_variance": 0.5, "log_volume": 0.5}
        assert floors[1]["log_volume"] == 0.9
        assert floors[1]["log_variance"] < 0.5

    def test_writes_both_series(self, bars_csv, tmp_path):
        prefix = tmp_path / "djia"
        result = run_cli("volatility", str(bars_csv), "--out", str(prefix))
        assert result.returncode == 0, result.stderr
        document = json.loads(result.stdout)
        assert document["command"] == "volatility"
        assert document["n_bars"] == 3

        log_variance = read_series_csv(f"{prefix}_log_variance.csv", "trends")
        log_volume = read_series_csv(f"{prefix}_log_volume.csv", "trends")
        assert len(log_variance) == 3
        assert np.allclose(log_volume.values, np.log([1200.0, 900.0, 1500.0]))
        assert document["clamped"] == {"log_variance": [], "log_volume": []}

    def test_subnormal_volume_gives_finite_logs_under_warnings_as_errors(self, tmp_path):
        # The smallest volume times 1e-3 underflows to 0, so the default
        # floor must stay at the smallest subnormal instead.
        target = tmp_path / "tiny.csv"
        target.write_text(
            "date,open,high,low,close,volume\n"
            "2021-01-04,100,110,95,105,0\n"
            "2021-01-05,105,106,99,100,5e-324\n"
            "2021-01-06,100,108,97,103,1500\n"
        )
        prefix = tmp_path / "tiny"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdkit", "volatility", str(target), "--out", str(prefix)],
            capture_output=True,
            text=True,
        )
        assert result.returncode == 0, result.stderr
        assert result.stderr == ""
        document = json.loads(result.stdout)
        assert document["floor"]["log_volume"] == 5e-324
        assert document["clamped"]["log_volume"] == [0]
        log_volume = read_series_csv(f"{prefix}_log_volume.csv", "trends")
        assert log_volume.values.tolist() == [np.log(5e-324), np.log(5e-324), np.log(1500.0)]

    @pytest.mark.parametrize(
        "bar", ["1e200,1e200,1e-200,1e-200", "1e-300,1e300,1e-300,1e300"], ids=["underflow", "overflow"]
    )
    def test_price_ratio_outside_the_floats_gives_finite_rows_under_warnings_as_errors(self, tmp_path, bar):
        # Close over open underflows to 0 in the first bar; both ratios
        # overflow in the second. Each log ratio is then a log difference.
        target = tmp_path / "wide.csv"
        target.write_text(f"date,open,high,low,close,volume\n2021-01-04,{bar},1\n2021-01-05,100,110,95,105,2\n")
        prefix = tmp_path / "wide"
        result = subprocess.run(
            [sys.executable, "-W", "error", "-m", "lrdkit", "volatility", str(target), "--out", str(prefix)],
            capture_output=True,
            text=True,
        )
        assert (result.returncode, result.stderr) == (0, "")
        log_variance = read_series_csv(f"{prefix}_log_variance.csv", "trends")
        assert np.isfinite(log_variance.values).all() and len(log_variance) == 2


class TestChain:
    def test_chains_two_files(self, tmp_path):
        first = tmp_path / "a.csv"
        first.write_text(
            "date,value\n" + "".join(
                f"2020-01-{day:02d},10\n" for day in range(1, 11)
            )
        )
        second = tmp_path / "b.csv"
        second.write_text(
            "date,value\n" + "".join(
                f"2020-01-{day:02d},20\n" for day in range(6, 16)
            )
        )
        result = run_cli(
            "chain", str(first), str(second), "--overlap-days", "5"
        )
        assert result.returncode == 0, result.stderr
        lines = result.stdout.strip().split("\n")
        assert lines[0] == "date,value"
        assert len(lines) == 16
        values = {float(line.split(",")[1]) for line in lines[1:]}
        assert values == {10.0}
        assert lines[-1].startswith("2020-01-15,")


class TestByteOrderMark:
    # A UTF-8 byte order mark is not stripped: it stays part of the first
    # header name or config key, which then fails its check.
    @pytest.mark.parametrize("kind", ["csv header", "config key"])
    def test_is_refused(self, tmp_path, kind):
        bom = b"\xef\xbb\xbf"
        if kind == "csv header":
            path = tmp_path / "a.csv"
            path.write_bytes(bom + b"date,value\n2021-01-01,1\n2021-01-02,2\n")
            result = run_cli("chain", str(path))
            expected = 1, f"error: {path}:1: expected header 'date,value', got '\\ufeffdate,value'"
        else:
            path = tmp_path / "run.conf"
            path.write_bytes(bom + b"seed = 1\n")
            result = run_cli("synth", "--hurst", "0.6", "--length", "32", "--config", str(path))
            expected = 2, f"usage error: {path}:1: unknown key '\\ufeffseed'"
        assert (result.returncode, *result.stderr.splitlines()) == expected
        assert result.stdout == ""
        assert "Traceback" not in result.stderr


class TestConfigFile:
    def test_config_matches_flags(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text(
            "# defaults for the smoke run\n"
            "surrogates = 150\n"
            "seed = 3\n"
        )
        via_config = run_cli("lrdtest", str(noise_csv), "--config", str(config))
        via_flags = run_cli(
            "lrdtest", str(noise_csv), "--surrogates", "150", "--seed", "3"
        )
        assert via_config.returncode == 0, via_config.stderr
        assert via_config.stdout == via_flags.stdout

    def test_flags_override_config(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("surrogates = 150\nseed = 3\n")
        overridden = run_cli(
            "lrdtest", str(noise_csv), "--config", str(config), "--seed", "9"
        )
        document = json.loads(overridden.stdout)
        assert document["seed"] == 9
        assert document["n_surrogates"] == 150

    @pytest.mark.parametrize(
        "setting",
        [
            "surrogates = 0", "seed = -1", "level = 1.5", "grid = 10:5:1",
            "format = xml", "block_size = 0", "overlap_days = 0", "start_date = 2004-13-01",
            "sigma = wide", "sigma = 0", "sigma = nan", "floor = abc", "floor = -1",
        ],
    )
    def test_invalid_value_is_a_usage_error(self, noise_csv, tmp_path, setting):
        config = tmp_path / "run.conf"
        config.write_text(setting + "\n")
        key = setting.split()[0]
        synth = ["synth", "--hurst", "0.6", "--length", "32"]
        argv = {
            "block_size": ["lrdtest", str(noise_csv)],
            "overlap_days": ["chain", str(noise_csv)],
            "start_date": synth,
            "sigma": synth,
            "floor": ["volatility", str(noise_csv), "--out", str(tmp_path / "vol")],
        }.get(key, ["xcorr", str(noise_csv), str(noise_csv), "--method", "dcca"])
        result = run_cli(*argv, "--config", str(config))
        assert result.returncode == 2, result.stderr
        assert "usage error" in result.stderr
        assert f"config key {key!r}" in result.stderr
        assert "Traceback" not in result.stderr

    @pytest.mark.parametrize("command", ["lrdtest", "xcorr"])
    def test_surrogates_past_the_limit_are_a_usage_error(self, no_ensemble, noise_csv, tmp_path, capsys, command):
        config = tmp_path / "run.conf"
        config.write_text("surrogates = 1000001\n")
        inputs = [str(noise_csv)] * (1 if command == "lrdtest" else 2)
        for options in (["--surrogates", "1000001"], ["--config", str(config)]):
            assert main([command, *inputs, *options]) == 2
            out, err = capsys.readouterr()
            assert out == ""
            assert err.splitlines() == ["usage error: at most 1000000 surrogates, got 1000001"]

    def test_format_flag_and_config_agree(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("format = JSON\n")
        argv = ("lrdtest", str(noise_csv), "--surrogates", "100")
        via_flag = run_cli(*argv, "--format", "JSON")
        via_config = run_cli(*argv, "--config", str(config))
        assert via_flag.returncode == 0, via_flag.stderr
        assert via_flag.stdout == via_config.stdout

    def test_lrdtest_has_no_jobs(self, noise_csv, tmp_path):
        # Neither surrogate loop takes a worker count: lrdtest runs serially
        # and xcorr sizes its pool from the CPUs it may run on.
        config = tmp_path / "run.conf"
        config.write_text("jobs = 2\n")
        for argv in (["lrdtest", str(noise_csv)], ["xcorr", str(noise_csv), str(noise_csv)]):
            assert run_cli(*argv, "--jobs", "2").returncode == 2
            result = run_cli(*argv, "--config", str(config))
            assert result.returncode == 2
            assert "unknown key" in result.stderr

    def test_non_utf8_config_is_a_usage_error(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_bytes(b"seed = 1\xff\n")
        result = run_cli("lrdtest", str(noise_csv), "--config", str(config))
        assert result.returncode == 2
        assert "usage error: cannot read config file" in result.stderr
        assert "Traceback" not in result.stderr

    def test_unknown_key_rejected(self, noise_csv, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("block = 10\n")
        result = run_cli("lrdtest", str(noise_csv), "--config", str(config))
        assert result.returncode == 2
        assert "unknown key" in result.stderr


class TestNegativeSeed:
    @pytest.mark.parametrize("command", ["lrdtest", "xcorr", "synth"])
    def test_flag_is_a_usage_error(self, noise_csv, command):
        inputs = {"lrdtest": [str(noise_csv)], "xcorr": [str(noise_csv)] * 2,
                  "synth": ["--hurst", "0.6", "--length", "32"]}[command]
        result = run_cli(command, *inputs, "--seed", "-1")
        assert result.returncode == 2
        assert "seed" in result.stderr
        assert "Traceback" not in result.stderr

    def test_config_is_a_usage_error(self, tmp_path):
        config = tmp_path / "run.conf"
        config.write_text("seed = -3\n")
        result = run_cli("synth", "--hurst", "0.6", "--length", "32", "--config", str(config))
        assert result.returncode == 2
        assert "usage error" in result.stderr
        assert "Traceback" not in result.stderr
