from pathlib import Path

import pytest

from nclayer import cli, selftest
from nclayer.cli import main
from nclayer.simulator import CSV_HEADER
from nclayer.spt import build_table


def _assert_file_holds(path, table):
    """spt-build's file holds the table exactly: the four header lines, then
    every value in bin-major, enumeration order, then each bin's best row."""
    lines = path.read_text(encoding="ascii").splitlines()
    header = [f"B={table.budget}", f"L={table.layer_count}",
              f"P={table.packets_per_layer}", f"g={table.granularity}"]
    assert lines[:4] == header
    n_strategies, n_bins = table.values.shape
    body, best = lines[4 : 4 + n_strategies * n_bins], lines[4 + n_strategies * n_bins :]
    assert len(body) == n_strategies * n_bins and len(best) == n_bins
    for row, line in enumerate(body):
        b, s = divmod(row, n_strategies)
        p, *counts, value = line.split(",")
        assert (float(p), tuple(map(int, counts))) == (table.pdr_bins[b], table.strategies[s])
        assert float(value) == table.values[s, b]
    for b, line in enumerate(best):
        tag, p, *counts, value = line.split(",")
        i = int(table.best_index[b])
        assert (tag, float(p)) == ("best", table.pdr_bins[b])
        assert tuple(map(int, counts)) == table.strategies[i]
        assert float(value) == table.values[i, b]


def test_spt_build_writes_the_table_exactly(tmp_path, capsys):
    out = tmp_path / "table.txt"
    code = main([
        "spt-build", "--budget", "8", "--layers", "2", "--packets", "2",
        "--gran", "4", "--out", str(out),
    ])
    assert code == 0
    text = capsys.readouterr().out
    assert "3-strategy table" in text
    assert "p=1.00" in text
    table = build_table(budget=8, layer_count=2, packets_per_layer=2, granularity=4)
    assert table.strategies == [(0, 8), (4, 4), (8, 0)]
    _assert_file_holds(out, table)


def test_spt_build_writes_the_standard_table_exactly(tmp_path, default_table):
    out = tmp_path / "table.txt"
    assert main(["spt-build", "--out", str(out)]) == 0
    _assert_file_holds(out, default_table)


def test_spt_build_is_byte_reproducible(tmp_path):
    a, b = tmp_path / "a.txt", tmp_path / "b.txt"
    args = ["spt-build", "--budget", "8", "--layers", "2", "--packets", "2", "--gran", "4"]
    assert main(args + ["--out", str(a)]) == 0
    assert main(args + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


@pytest.mark.parametrize("where, message", [
    ("", "Is a directory"),
    ("nodir/t.txt", "No such file or directory"),
])
def test_spt_build_refuses_an_out_path_it_cannot_write_before_the_build(
    tmp_path, capsys, monkeypatch, where, message
):
    # a directory, or a file in a missing directory, would fail only once
    # the table was built and printed
    built = []
    monkeypatch.setattr(cli, "build_table", lambda **kwargs: built.append(kwargs))
    out = str(tmp_path / where)
    assert main(["spt-build", "--out", out]) == 1
    printed = capsys.readouterr()
    assert f"{message}: {out!r}" in printed.err and printed.out == ""
    assert built == [] and list(tmp_path.iterdir()) == []


def test_spt_build_rejects_bad_granularity(tmp_path, capsys):
    code = main([
        "spt-build", "--budget", "64", "--gran", "3",
        "--out", str(tmp_path / "t.txt"),
    ])
    assert code == 1
    assert "granularity" in capsys.readouterr().err


@pytest.mark.parametrize("packets", ["0", "-1"])
def test_spt_build_rejects_nonpositive_packets(tmp_path, capsys, packets):
    code = main(["spt-build", "--packets", packets, "--out", str(tmp_path / "t.txt")])
    assert code == 1
    assert "packets_per_layer" in capsys.readouterr().err
    assert not (tmp_path / "t.txt").exists()


@pytest.mark.parametrize("option", [["--method", "exact"], ["--seed", "1"]])
def test_spt_build_has_no_method_or_seed(tmp_path, option):
    # tables are exact and take no seed
    with pytest.raises(SystemExit) as excinfo:
        main(["spt-build", *option, "--out", str(tmp_path / "t.txt")])
    assert excinfo.value.code == 1


def test_simulate_lossless_summary(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main([
        "simulate", "--set", "run.gops=5", "--set", "coding.granularity=4",
        "--out", str(out),
    ])
    assert code == 0
    assert "audl: 4.000000" in capsys.readouterr().out
    assert out.read_text().count("\n") == 2


def test_simulate_prints_the_probes_on_air(capsys):
    # 5 GOPs, 100 probes each over 3 lossless links; the uncoded baseline
    # probes nothing
    args = ["simulate", "--set", "run.gops=5", "--set", "chain.links=1.0,1.0,1.0"]
    assert main(args) == 0
    assert "\nprobes: 1500\n" in capsys.readouterr().out
    assert main(args + ["--set", "coding.scheme=repeat"]) == 0
    assert "\nprobes: 0\n" in capsys.readouterr().out


def test_simulate_same_config_appends_identical_rows(tmp_path):
    out = tmp_path / "rows.csv"
    args = ["simulate", "--set", "run.gops=5", "--set", "chain.links=0.8",
            "--seed", "3", "--out", str(out)]
    assert main(args) == 0
    assert main(args) == 0
    lines = out.read_text().splitlines()
    assert len(lines) == 3
    assert lines[1] == lines[2]


@pytest.mark.parametrize(
    "held",
    ["time,value\n1,2", CSV_HEADER, "time,value\n"],
    ids=["other-rows", "unterminated-header", "other-header"],
)
def test_simulate_refuses_to_append_to_a_file_of_other_rows(tmp_path, capsys, held):
    # a row appended to another file, or glued onto an unterminated line,
    # would corrupt it, so the file is left as it was, and refused before
    # the run prints a summary of results it could not keep
    out = tmp_path / "rows.csv"
    out.write_text(held)
    assert main(["simulate", "--set", "run.gops=2", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert f"{out} is not a CSV of result rows" in printed.err
    assert "label:" not in printed.out
    assert out.read_text() == held


def test_simulate_refuses_a_directory_before_the_run(tmp_path, capsys):
    assert main(["simulate", "--set", "run.gops=2", "--out", str(tmp_path)]) == 1
    printed = capsys.readouterr()
    assert str(tmp_path) in printed.err and "label:" not in printed.out


def test_simulate_refuses_a_file_in_a_missing_directory_before_the_run(tmp_path, capsys):
    # the row could not be appended after the run, so the run is refused
    # before it prints anything, and no file or directory is made
    out = tmp_path / "nodir" / "x.csv"
    assert main(["simulate", "--set", "run.gops=2", "--out", str(out)]) == 1
    printed = capsys.readouterr()
    assert str(out) in printed.err and printed.out == ""
    assert list(tmp_path.iterdir()) == []


def test_simulate_link_override_drops_unnamed_relays(tmp_path, capsys):
    path = tmp_path / "c.txt"
    path.write_text("chain.links = 0.7, 0.7, 0.7\nrun.gops = 5\n")
    assert main(["simulate", "--config", str(path), "--set", "chain.links=0.7"]) == 0
    assert "hops: 1\n" in capsys.readouterr().out


def test_simulate_reads_config_file(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.gops = 4\nrun.label = filecase\n")
    assert main(["simulate", "--config", str(cfg)]) == 0
    assert "label: filecase" in capsys.readouterr().out


def test_simulate_unknown_config_key(tmp_path, capsys):
    cfg = tmp_path / "run.cfg"
    cfg.write_text("run.gops = 4\nrun.turbo = yes\n")
    assert main(["simulate", "--config", str(cfg)]) == 1
    assert "line 2" in capsys.readouterr().err


def test_simulate_refuses_a_negative_seed_under_its_key(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    assert main(["simulate", "--seed", "-1", "--out", str(out)]) == 1
    assert "run.seed: seed must be non-negative, got -1" in capsys.readouterr().err
    assert not out.exists()
    assert main(["sweep", "--seed", "-1", "--pdr-grid", "0.5"]) == 1
    assert "run.seed" in capsys.readouterr().err


def test_simulate_refuses_a_label_that_splits_the_row(tmp_path, capsys):
    out = tmp_path / "rows.csv"
    code = main(["simulate", "--set", "run.gops=2", "--set", "run.label=a,b", "--out", str(out)])
    assert code == 1
    assert "run.label: label must not hold a comma" in capsys.readouterr().err
    assert not out.exists()


def test_seed_flag_wins_over_a_seed_override(capsys):
    args = ["simulate", "--set", "run.gops=5", "--set", "chain.links=0.7"]
    assert main(args + ["--set", "run.seed=9", "--seed", "3"]) == 0
    flagged = capsys.readouterr().out
    assert main(args + ["--seed", "3"]) == 0
    assert capsys.readouterr().out == flagged


def test_sweep_stdout_and_file_agree(tmp_path, capsys):
    args = ["sweep", "--set", "run.gops=5", "--pdr-grid", "0.6,1.0",
            "--modes", "NC1,NoNC1", "--reps", "1"]
    assert main(args) == 0
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    out = tmp_path / "sweep.csv"
    assert main(args + ["--out", str(out)]) == 0
    assert out.read_text().strip().splitlines() == stdout_lines
    assert len(stdout_lines) == 1 + 4


def test_sweep_jobs_do_not_change_output(tmp_path):
    base = ["sweep", "--set", "run.gops=5", "--pdr-grid", "0.7",
            "--modes", "NC2-HBH,spt", "--reps", "2"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(base + ["--jobs", "1", "--out", str(a)]) == 0
    assert main(base + ["--jobs", "4", "--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()


def test_sweep_rejects_unknown_mode(tmp_path, capsys):
    # only -HBH takes a relay count: NC3-E2E9 would run a plain NC3-E2E
    # chain under its own label
    out = tmp_path / "sweep.csv"
    for mode in ("warp9", "NC3-E2E9"):
        assert main(["sweep", "--pdr-grid", "0.7", "--modes", mode, "--out", str(out)]) == 1
        assert f"unknown sweep mode {mode!r}" in capsys.readouterr().err
        assert not out.exists()


def test_sweep_refuses_an_out_path_it_cannot_write_before_any_run(tmp_path, capsys, monkeypatch):
    # a directory, or a file in a missing directory, would fail only once
    # every task had run; the sweep is refused before its first pass, which
    # runs a group of rows as run() runs one
    import nclayer.simulator as simulator

    calls = []
    step = simulator._run_rows

    def counted(*args, **kwargs):
        calls.append(1)
        return step(*args, **kwargs)

    monkeypatch.setattr(simulator, "_run_rows", counted)
    args = ["sweep", "--set", "run.gops=300", "--pdr-grid", "0.5,0.7,0.9",
            "--modes", "NC3-HBH,NoNC3", "--jobs", "2"]
    for out in (tmp_path, tmp_path / "nodir" / "x.csv"):
        assert main(args + ["--out", str(out)]) == 1
        printed = capsys.readouterr()
        assert str(out) in printed.err and printed.out == ""
    assert calls == [] and list(tmp_path.iterdir()) == []
    assert main(["sweep", "--set", "run.gops=5", "--pdr-grid", "0.7", "--modes", "NoNC1",
                 "--out", str(tmp_path / "x.csv")]) == 0
    assert calls == [1]


def test_simulate_refuses_a_heuristic_set_of_another_class_count(tmp_path, capsys):
    # every builtin threshold set allocates 4 classes; at 3 layers run()
    # would fail on the strategy shape, naming no key
    out = tmp_path / "rows.csv"
    args = ["simulate", "--set", "media.layers=3", "--set", "select.method=heuristic"]
    assert main(args + ["--out", str(out)]) == 1
    err = capsys.readouterr().err
    assert "media.layers: layer_count 3 differs from the 4 classes" in err
    assert not out.exists()


def test_sweep_rejects_bad_grid(capsys):
    assert main(["sweep", "--pdr-grid", "0.5,nope"]) == 1


@pytest.mark.parametrize("setting, key", [
    ("schedule.1=0,0,0.2", "pdr_schedule (schedule.<n>)"),
])
def test_sweep_refuses_a_base_its_rows_would_not_run_with(tmp_path, capsys, setting, key):
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--set", "run.gops=5", "--set", setting, "--pdr-grid", "0.9",
            "--modes", "NC3-E2E", "--out", str(out)]
    assert main(args) == 1
    assert key in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "key", ["chain.link_delays", "delay.table_build", "delay.table_charging"]
)
def test_deleted_run_options_are_unknown_keys(tmp_path, capsys, key):
    # every link charges delay.transmit per packet and the table build is
    # charged a fixed amount once per run, so a config that names any of
    # these options is refused rather than run without it
    path = tmp_path / "run.cfg"
    path.write_text(f"run.gops = 2\n{key} = 0.5\n")
    assert main(["simulate", "--config", str(path)]) == 1
    printed = capsys.readouterr()
    assert f"line 2: unknown key {key!r}" in printed.err and printed.out == ""
    out = tmp_path / "sweep.csv"
    args = ["sweep", "--set", "run.gops=5", "--set", f"{key}=0.5", "--pdr-grid", "0.9",
            "--modes", "NC3-E2E", "--out", str(out)]
    assert main(args) == 1
    printed = capsys.readouterr()
    assert f"override '{key}=0.5': unknown key {key!r}" in printed.err and printed.out == ""
    assert not out.exists()


def test_selftest_passes(capsys):
    assert main(["selftest"]) == 0
    out = capsys.readouterr().out
    assert "7/7 checks passed" in out
    assert "PASS payload-free-twin" in out
    assert "PASS stacked-decode" in out
    assert "PASS oracle-equivalence" in out


def test_selftest_fault_injection_fails(capsys, monkeypatch):
    # a corrupted product table must fail its named check and exit 2
    corrupted = selftest.MUL_TABLE.copy()
    corrupted[1, 1] ^= 0xFF
    monkeypatch.setattr(selftest, "MUL_TABLE", corrupted)
    assert main(["selftest"]) == 2
    out = capsys.readouterr().out
    assert "FAIL gf256-mul-table" in out


def test_selftest_has_no_fault_injection_flag(capsys):
    with pytest.raises(SystemExit) as excinfo:
        main(["selftest", "--inject-gf-fault"])
    assert excinfo.value.code == 1
    assert "unrecognized arguments: --inject-gf-fault" in capsys.readouterr().err


def test_usage_errors_exit_one():
    with pytest.raises(SystemExit) as excinfo:
        main(["no-such-command"])
    assert excinfo.value.code == 1
    with pytest.raises(SystemExit) as excinfo:
        main([])
    assert excinfo.value.code == 1


def test_readme_sweep_is_byte_identical_to_its_committed_csv(tmp_path):
    """The README's sweep (20 bins x NoNC2, NC2-E2E, NC2-HBH, spt at 500
    GOPs), rerun at --jobs 1, writes tests/data/readme-sweep.csv byte for
    byte, so any change that moves a seeded sweep figure shows here."""
    out = tmp_path / "sweep.csv"
    code = main([
        "sweep", "--pdr-grid", "bins", "--modes", "NoNC2,NC2-E2E,NC2-HBH,spt",
        "--set", "run.gops=500", "--jobs", "1", "--out", str(out),
    ])
    assert code == 0
    committed = Path(__file__).parent / "data" / "readme-sweep.csv"
    assert out.read_bytes() == committed.read_bytes()
