from dataclasses import fields

import numpy as np
import pytest

from nclayer.config import (
    KEY_REGISTRY,
    ConfigError,
    _chain_config,
    apply_overrides,
    load_config,
    parse_config_text,
)
from nclayer.simulator import ChainConfig, run
from nclayer.spt import is_whole

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
    with pytest.raises(
        ConfigError, match=r"^line 3: duplicate schedule index 1, first set on line 1$"
    ):
        parse_config_text("schedule.1 = 0,0,0.5\nschedule.2 = 1,0,0.6\nschedule.1 = 3,0,0.7")


@pytest.mark.parametrize("text, want", [
    ("true", True), ("Yes", True), ("on", True), ("1", True),
    ("false", False), ("No", False), ("OFF", False), ("0", False),
])
def test_boolean_spellings(text, want):
    assert parse_config_text(f"run.verify_payloads = {text}\n") == {"verify_payloads": want}


def test_boolean_of_another_spelling_is_refused():
    with pytest.raises(ConfigError, match="^line 1: .*expected a boolean, got 'maybe'"):
        parse_config_text("run.verify_payloads = maybe\n")


def test_empty_number_list_is_refused():
    with pytest.raises(ConfigError, match="^line 1: .*expected at least one number"):
        parse_config_text("chain.links = ,\n")


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


@pytest.mark.parametrize(
    "name, value",
    [(f.name, 1.5) for f in fields(ChainConfig) if f.type == "int"]
    + [
        ("layer_count", 4.0),
        ("payload_size", np.float64(64)),
        ("budget", 64.0),
        ("gop_count", 10.5),
        ("seed", True),
        ("gop_count", np.bool_(True)),
        ("probe_count", "100"),
    ],
)
def test_count_that_is_not_a_whole_number_is_refused_under_its_key(name, value):
    # int() would truncate a float count (update_period=1.5 would probe
    # every 3rd GOP), and numpy would refuse others deep in run(), naming no
    # field; a bool is a flag, not a count. Every int field is a count
    with pytest.raises(ValueError, match=f"^{name} must be a whole number, got "):
        ChainConfig(**{name: value})
    (key,) = [key for key, (field, _) in KEY_REGISTRY.items() if field == name]
    with pytest.raises(ConfigError, match=f"^{key}: {name} must be a whole number"):
        _chain_config({name: value})


def test_counts_and_schedule_indices_take_numpy_integers():
    config = ChainConfig(
        link_pdrs=(0.6, 0.8), selection="heuristic", gop_count=np.int64(6),
        probe_count=np.uint8(20), update_period=np.int32(2), seed=np.uint32(3),
        pdr_schedule=((np.int64(2), np.int16(1), 0.4),),
    )
    assert config.pdr_schedule == ((2, 1, 0.4),)
    assert type(config.pdr_schedule[0][0]) is int
    plain = ChainConfig(
        link_pdrs=(0.6, 0.8), selection="heuristic", gop_count=6, probe_count=20,
        update_period=2, seed=3, pdr_schedule=((2, 1, 0.4),),
    )
    assert run(config) == run(plain)


@pytest.mark.parametrize("entry", [(1.5, 0, 0.3), (1, 0.9, 0.3), (True, 0, 0.3), (1, "0", 0.3)])
def test_schedule_index_that_is_not_a_whole_number_is_refused(entry):
    # int() would read (1.5, 0.9, 0.3) as GOP 1, link 0
    index = "gop" if not is_whole(entry[0]) else "link"
    with pytest.raises(ValueError, match=rf"^pdr_schedule\[0\] {index} must be a whole number, got "):
        ChainConfig(link_pdrs=(0.9, 0.9), pdr_schedule=(entry,))


def test_label_that_would_split_a_csv_row_is_refused():
    # the label is the first field of a result row, whose header names 8
    for label in ("a,b", "a\nb", "a\r", ","):
        with pytest.raises(ValueError, match="^label must not hold a comma or a line break"):
            ChainConfig(label=label)
    with pytest.raises(ConfigError, match="^run.label: "):
        apply_overrides(ChainConfig(), ["run.label=a,b"])


@pytest.mark.parametrize("pairs, key, rule", [
    (["chain.links=1.5"], "chain.links", r"link_pdrs must lie in \[0, 1\], got 1.5$"),
    (["chain.relays=bogus"], "chain.relays", "relay_modes must name 0 modes for 1 links, got 1$"),
    (["schedule.0=5,9,0.5"], "schedule.0", r"pdr_schedule\[0\] names link 9, chain has 1$"),
    (["schedule.4=5,0,0.5", "schedule.7=1,0,1.5"], "schedule.7", r"pdr_schedule\[1\] pdr must lie"),
    (["schedule.2=-5,0,0.5"], "schedule.2", r"pdr_schedule\[0\] gop must be non-negative"),
    (
        ["chain.links=0.9,0.9", "chain.relays=nc", "coding.scheme=repeat"],
        "coding.scheme",
        "scheme repeat sends uncoded packets, so no relay can re-encode them$",
    ),
    (["delay.recode=inf"], "delay.recode", "recode_delay must be finite and non-negative, got inf$"),
    (["select.method=heuristic", "select.heuristic_set=7"], "select.heuristic_set", "heuristic_set "),
], ids=["links", "relays", "schedule-link", "schedule-pdr", "schedule-gop", "scheme", "delay", "set"])
def test_every_config_refusal_starts_with_its_key(pairs, key, rule):
    # the CLI prints these: a message without its key leaves the user to
    # guess which setting it refuses
    with pytest.raises(ConfigError, match=f"^{key}: {rule}"):
        apply_overrides(ChainConfig(), pairs)


def test_a_schedule_refusal_names_the_key_that_set_the_entry(tmp_path):
    path = tmp_path / "run.cfg"
    # sorted by suffix, schedule.3 is the second entry
    path.write_text("chain.links = 0.9\nschedule.3 = 9, 2, 0.5\nschedule.1 = 2, 0, 0.4\n")
    with pytest.raises(ConfigError, match=r"^schedule.3: pdr_schedule\[1\] names link 2, chain has 1$"):
        load_config(path)
    # an override that shortens the chain refuses an entry of the file,
    # whose key the config no longer holds
    path.write_text("chain.links = 0.9, 0.9\nschedule.3 = 9, 1, 0.5\n")
    with pytest.raises(ConfigError, match=r"^schedule.<n>: pdr_schedule\[0\] names link 1"):
        apply_overrides(load_config(path), ["chain.links=0.9"])
