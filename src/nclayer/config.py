"""Plain-text run configuration.

One `key = value` pair per line, `#` starts a comment. Keys are dotted and
must come from the registry below; anything else is rejected with the line
number so typos surface instead of silently keeping a default.
"""

from __future__ import annotations

from dataclasses import fields
from typing import Callable, Iterable

from .nodes import MODE_FORWARD
from .simulator import ChainConfig


class ConfigError(ValueError):
    pass


def _parse_bool(text: str) -> bool:
    lowered = text.strip().lower()
    if lowered in ("true", "yes", "on", "1"):
        return True
    if lowered in ("false", "no", "off", "0"):
        return False
    raise ValueError(f"expected a boolean, got {text!r}")


def _parse_float_tuple(text: str) -> tuple[float, ...]:
    parts = [p.strip() for p in text.split(",") if p.strip()]
    if not parts:
        raise ValueError("expected at least one number")
    return tuple(float(p) for p in parts)


def _parse_str_tuple(text: str) -> tuple[str, ...]:
    return tuple(p.strip() for p in text.split(",") if p.strip())


def _parse_schedule_entry(text: str) -> tuple[int, int, float]:
    parts = [p.strip() for p in text.split(",")]
    if len(parts) != 3:
        raise ValueError(f"expected gop,link,pdr, got {text!r}")
    return (int(parts[0]), int(parts[1]), float(parts[2]))


# config key -> (ChainConfig field, converter)
KEY_REGISTRY: dict[str, tuple[str, Callable]] = {
    "chain.links": ("link_pdrs", _parse_float_tuple),
    "chain.relays": ("relay_modes", _parse_str_tuple),
    "media.layers": ("layer_count", int),
    "media.packets": ("packets_per_layer", int),
    "media.payload": ("payload_size", int),
    "coding.budget": ("budget", int),
    "coding.granularity": ("granularity", int),
    "coding.scheme": ("scheme", str),
    "select.method": ("selection", str),
    "select.heuristic_set": ("heuristic_set", int),
    "run.gops": ("gop_count", int),
    "run.probes": ("probe_count", int),
    "run.update_period": ("update_period", int),
    "run.seed": ("seed", int),
    "run.verify_payloads": ("verify_payloads", _parse_bool),
    "run.label": ("label", str),
    "delay.transmit": ("transmit_delay", float),
    "delay.forward": ("forward_delay", float),
    "delay.recode": ("recode_delay", float),
}

_SCHEDULE_PREFIX = "schedule."


def _parse_entries(
    entries: Iterable[tuple[str, str]], reject_duplicates: bool
) -> tuple[dict, tuple[str, ...]]:
    """ChainConfig keyword arguments from (where, "key = value") entries, with
    the schedule entries sorted by their key suffix as pdr_schedule, plus
    the key of each of those entries. Every error names the entry's
    `where`."""
    kwargs: dict = {}
    schedule: list[tuple[int, tuple[int, int, float], str]] = []
    # where each schedule index was first set
    schedule_where: dict[int, str] = {}
    for where, text in entries:
        key, equals, value = text.partition("=")
        if not equals:
            raise ConfigError(f"{where}: expected key=value, got {text!r}")
        key, value = key.strip(), value.strip()
        is_schedule = key.startswith(_SCHEDULE_PREFIX)
        if not is_schedule and key not in KEY_REGISTRY:
            raise ConfigError(f"{where}: unknown key {key!r}")
        if reject_duplicates and not is_schedule and KEY_REGISTRY[key][0] in kwargs:
            raise ConfigError(f"{where}: duplicate key {key!r}")
        try:
            if is_schedule:
                order = int(key[len(_SCHEDULE_PREFIX) :])
                schedule.append((order, _parse_schedule_entry(value), key))
            else:
                field_name, convert = KEY_REGISTRY[key]
                kwargs[field_name] = convert(value)
        except ValueError as exc:
            raise ConfigError(f"{where}: bad value for {key!r}: {exc}") from exc
        if is_schedule and reject_duplicates:
            if order in schedule_where:
                raise ConfigError(
                    f"{where}: duplicate schedule index {order}, "
                    f"first set on {schedule_where[order]}"
                )
            schedule_where[order] = where
    schedule.sort()
    if schedule:
        kwargs["pdr_schedule"] = tuple(entry for _, entry, _ in schedule)
    return kwargs, tuple(key for _, _, key in schedule)


def _chain_config(kwargs: dict, entry_keys: tuple[str, ...] = ()) -> ChainConfig:
    """The config of these arguments. A refusal that starts with a field's
    name is reported under that field's key, and one that starts with
    pdr_schedule[n] under entry_keys[n], the key that set entry n."""
    try:
        return ChainConfig(**kwargs)
    except ValueError as exc:
        message = str(exc)
        keys = [key for key, (name, _) in KEY_REGISTRY.items() if message.startswith(name + " ")]
        keys += [k for n, k in enumerate(entry_keys) if message.startswith(f"pdr_schedule[{n}] ")]
        raise ConfigError(f"{keys[0]}: {message}" if keys else message) from exc


def _parse_text(text: str) -> tuple[dict, tuple[str, ...]]:
    lines = (
        (f"line {lineno}", raw.split("#", 1)[0].strip())
        for lineno, raw in enumerate(text.splitlines(), start=1)
    )
    return _parse_entries(((w, t) for w, t in lines if t), reject_duplicates=True)


def parse_config_text(text: str) -> dict:
    """Returns ChainConfig keyword arguments. Raises ConfigError with the
    offending line number on unknown keys or malformed values."""
    return _parse_text(text)[0]


def load_config(path) -> ChainConfig:
    with open(path, "r", encoding="utf-8") as fh:
        text = fh.read()
    return _chain_config(*_parse_text(text))


def apply_overrides(config: ChainConfig, pairs: Iterable[str]) -> ChainConfig:
    """Applies command-line `key=value` overrides on top of a parsed config;
    a repeated key takes its last value and schedule entries append. Relay
    modes that are all forwarding, the default for a config that names
    none, follow an overridden link count."""
    kwargs, keys = _parse_entries(
        ((f"override {pair!r}", pair) for pair in pairs), reject_duplicates=False
    )
    kwargs["pdr_schedule"] = config.pdr_schedule + kwargs.get("pdr_schedule", ())
    current = {f.name: getattr(config, f.name) for f in fields(ChainConfig)}
    if set(config.relay_modes) <= {MODE_FORWARD}:
        current["relay_modes"] = ()
    current.update(kwargs)
    # the keys that set the config's own schedule entries are not kept
    return _chain_config(current, ("schedule.<n>",) * len(config.pdr_schedule) + keys)
