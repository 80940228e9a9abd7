import pytest

from nclayer.config import (
    KEY_REGISTRY,
    ConfigError,
    apply_overrides,
    load_config,
    parse_config_text,
)
from nclayer.simulator import ChainConfig

FULL_TEXT = """
# three hops, middle relay re-encodes
chain.links = 0.9, 0.8, 0.7
chain.relays = forward, nc
media.layers = 4
media.packets = 8
media.payload = 32
coding.budget = 64
coding.granularity = 4
coding.scheme = xor
select.method = heuristic
select.heuristic_set = 2
run.gops = 10          # inline comment
run.probes = 50
run.update_period = 2
run.seed = 123
run.verify_payloads = yes
run.label = demo
delay.transmit = 0.002
delay.forward = 0.01
delay.recode = 30
delay.table_charging = per-node
schedule.1 = 5, 0, 0.5
schedule.0 = 2, 2, 0.1
"""


def test_full_document_parses():
    kwargs = parse_config_text(FULL_TEXT)
    config = ChainConfig(**kwargs)
    assert config.link_pdrs == (0.9, 0.8, 0.7)
    assert config.relay_modes == ("forward", "nc")
    assert config.scheme == "xor"
    assert config.selection == "heuristic"
    assert config.heuristic_set == 2
    assert config.gop_count == 10
    assert config.verify_payloads is True
    assert config.label == "demo"
    assert config.table_charging == "per-node"
    # schedule entries come back sorted by their key suffix
    assert config.pdr_schedule == ((2, 2, 0.1), (5, 0, 0.5))


def test_every_registry_key_is_a_chainconfig_field():
    from dataclasses import fields

    names = {f.name for f in fields(ChainConfig)}
    for key, (field_name, _) in KEY_REGISTRY.items():
        assert field_name in names, key


def test_unknown_key_reports_line_number():
    with pytest.raises(ConfigError, match="line 3"):
        parse_config_text("run.gops = 5\n\nchain.pdrs = 0.5\n")


def test_bad_value_reports_line_number():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("run.gops = many\n")


def test_duplicate_key_rejected():
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("run.gops = 5\nrun.gops = 6\n")


def test_missing_equals_rejected():
    with pytest.raises(ConfigError, match="line 2"):
        parse_config_text("run.gops = 5\nrun.seed 4\n")


def test_schedule_entry_shape_checked():
    with pytest.raises(ConfigError, match="line 1"):
        parse_config_text("schedule.0 = 5, 0.5\n")
    with pytest.raises(ConfigError, match="duplicate"):
        parse_config_text("schedule.0 = 1,0,0.5\nschedule.0 = 2,0,0.5\n")


def test_defaults_when_empty():
    config = ChainConfig(**parse_config_text("# nothing but comments\n"))
    assert config.link_pdrs == (1.0,)
    assert config.gop_count == 100


def test_load_config_round_trip(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text(FULL_TEXT)
    config = load_config(path)
    assert config.seed == 123


def test_load_config_wraps_validation_errors(tmp_path):
    path = tmp_path / "run.cfg"
    # two links but no relay mode for the middle node
    path.write_text("chain.links = 0.9, 0.9\nchain.relays = nc, nc\n")
    with pytest.raises(ConfigError, match="relay"):
        load_config(path)


def test_load_config_rejects_bad_scheme(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("coding.scheme = xr\n")
    with pytest.raises(ConfigError, match="scheme"):
        load_config(path)
    # uncoded packets cannot be decoded and re-encoded at a relay
    path.write_text("chain.links = 0.9, 0.9\nchain.relays = nc\ncoding.scheme = repeat\n")
    with pytest.raises(ConfigError, match="re-encode"):
        load_config(path)
    with pytest.raises(ConfigError, match="scheme"):
        apply_overrides(ChainConfig(), ["coding.scheme=xr"])


def test_load_config_rejects_empty_media(tmp_path):
    # a zero size used to fail only at the first GOP's grid; unverified runs
    # build no payload, so the config itself has to refuse it
    path = tmp_path / "run.cfg"
    for key in ("media.payload", "media.layers", "media.packets"):
        path.write_text(f"{key} = 0\n")
        with pytest.raises(ConfigError, match="must be positive"):
            load_config(path)


def test_overrides_win():
    base = ChainConfig(gop_count=10, seed=1)
    updated = apply_overrides(base, ["run.gops=99", "run.seed=7"])
    assert updated.gop_count == 99
    assert updated.seed == 7
    assert base.gop_count == 10


def test_override_unknown_key_rejected():
    with pytest.raises(ConfigError, match="unknown key"):
        apply_overrides(ChainConfig(), ["coding.bugdet=64"])
    with pytest.raises(ConfigError, match="key=value"):
        apply_overrides(ChainConfig(), ["coding.budget"])


def test_override_appends_schedule():
    base = ChainConfig(pdr_schedule=((1, 0, 0.5),))
    updated = apply_overrides(base, ["schedule.0=3,0,0.9"])
    assert updated.pdr_schedule == ((1, 0, 0.5), (3, 0, 0.9))


def test_link_override_resizes_unnamed_relays(tmp_path):
    path = tmp_path / "run.cfg"
    path.write_text("chain.links = 0.7, 0.7, 0.7\n")
    config = apply_overrides(load_config(path), ["chain.links=0.7"])
    assert config.link_pdrs == (0.7,)
    assert config.relay_modes == ()
    # relay modes the file names must still match the links
    path.write_text("chain.links = 0.7, 0.7, 0.7\nchain.relays = nc, nc\n")
    with pytest.raises(ConfigError, match="relay"):
        apply_overrides(load_config(path), ["chain.links=0.7"])


def test_load_config_names_the_key_of_a_refused_value(tmp_path):
    path = tmp_path / "run.cfg"
    for text, key in (
        ("delay.forward = -3\n", "delay.forward"),
        ("delay.recode = -60\n", "delay.recode"),
        ("delay.transmit = -0.001\n", "delay.transmit"),
        ("coding.budget = -5\n", "coding.budget"),
        # every builtin threshold set spends 64 packets per GOP
        ("coding.budget = 32\nselect.method = heuristic\n", "coding.budget"),
        # the uncoded sender repeats all 32 source packets a whole number of times
        ("coding.budget = 40\ncoding.scheme = repeat\n", "coding.budget"),
        ("coding.granularity = 5\n", "coding.granularity"),
        ("coding.granularity = 0\n", "coding.granularity"),
    ):
        path.write_text(text)
        with pytest.raises(ConfigError, match=key):
            load_config(path)
    path.write_text("coding.budget = 32\ncoding.granularity = 4\n")
    assert load_config(path).budget == 32


def test_negative_seed_is_refused_under_its_key(tmp_path):
    # numpy refuses a negative seed only once run() seeds its streams, in a
    # message that names no key
    with pytest.raises(ValueError, match="^seed must be non-negative, got -1$"):
        ChainConfig(seed=-1)
    path = tmp_path / "run.cfg"
    path.write_text("run.seed = -1\n")
    with pytest.raises(ConfigError, match="^run.seed: seed must be non-negative"):
        load_config(path)
    with pytest.raises(ConfigError, match="^run.seed: "):
        apply_overrides(ChainConfig(), ["run.seed=-4"])
    assert ChainConfig(seed=0).seed == 0


def test_label_that_would_split_a_csv_row_is_refused():
    # the label is the first field of a result row, whose header names 8
    for label in ("a,b", "a\nb", "a\r", ","):
        with pytest.raises(ValueError, match="^label must not hold a comma or a line break"):
            ChainConfig(label=label)
    with pytest.raises(ConfigError, match="^run.label: "):
        apply_overrides(ChainConfig(), ["run.label=a,b"])
