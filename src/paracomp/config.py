"""Run configuration: defaults, file parsing, validation.

A config file is plain ``key = value`` lines ('#' starts a comment).
Keys are the dataclass field names; command-line flags override file
values which override defaults.
"""

from __future__ import annotations

import dataclasses
from dataclasses import dataclass

from .corpus_io import _lines
from .evaluation import DEFAULT_BASELINE_SLOTS

MODES = (
    "pcs-i",
    "pcs-ii-a",
    "pcs-ii-b",
    "pcs-iii",
    "pcs-ii+iii",
    "lb",
    "conll17-k",
    "eval",
)


@dataclass
class Config:
    mode: str = "pcs-i"
    candidate_ratio: float = 0.5
    tree_support_factor: float = 0.05
    lemma_evidence_factor: float = 0.2
    lemma_decay: float = 0.5
    merge_threshold: float = 0.3
    context_window: int = 3
    bootstrap_rounds: int = 1
    hmm_states: int = 8
    hmm_iterations: int = 0
    unk_threshold: int = 2
    seed: int = 0
    baseline_slots: int = DEFAULT_BASELINE_SLOTS
    baseline_truth: bool = False
    shots: int = 1

    def validate(self) -> None:
        if self.mode not in MODES:
            raise ValueError(
                f"unknown mode {self.mode!r}; expected one of {', '.join(MODES)}"
            )
        if not 0.0 <= self.candidate_ratio < 1.0:
            raise ValueError(
                f"candidate_ratio must be in [0, 1), got {self.candidate_ratio}"
            )
        # Written as "not >= 0" so that NaN fails the check too.
        if not self.tree_support_factor >= 0:
            raise ValueError(
                f"tree_support_factor must be >= 0, got {self.tree_support_factor}"
            )
        if not self.lemma_evidence_factor >= 0:
            raise ValueError(
                f"lemma_evidence_factor must be >= 0, got {self.lemma_evidence_factor}"
            )
        if not 0.0 < self.lemma_decay <= 1.0:
            raise ValueError(
                f"lemma_decay must be in (0, 1], got {self.lemma_decay}"
            )
        if not 0.0 <= self.merge_threshold <= 1.0:
            raise ValueError(
                f"merge_threshold must be in [0, 1], got {self.merge_threshold}"
            )
        if self.context_window < 1 or self.context_window % 2 == 0:
            raise ValueError(
                f"context_window must be odd and >= 1, got {self.context_window}"
            )
        if self.bootstrap_rounds < 0:
            raise ValueError("bootstrap_rounds must be >= 0")
        if self.hmm_states < 1:
            raise ValueError("hmm_states must be >= 1")
        if self.hmm_iterations < 0:
            raise ValueError("hmm_iterations must be >= 0")
        if self.unk_threshold < 0:
            raise ValueError("unk_threshold must be >= 0")
        if self.seed < 0:
            raise ValueError("seed must be >= 0")
        if self.baseline_slots < 1:
            raise ValueError("baseline_slots must be >= 1")
        if self.shots < 1:
            raise ValueError("shots must be >= 1")


_FIELDS = {f.name: f for f in dataclasses.fields(Config)}


def _coerce(name: str, text: str):
    kind = _FIELDS[name].type
    text = text.strip()
    if kind == "bool":
        low = text.lower()
        if low in ("1", "true", "yes", "on"):
            return True
        if low in ("0", "false", "no", "off"):
            return False
        raise ValueError(f"cannot parse {text!r} as a boolean for {name}")
    if kind == "int":
        return int(text)
    if kind == "float":
        return float(text)
    return text


def parse_config_file(path: str) -> dict:
    """Read ``key = value`` lines, decoded as every input is, into typed values."""
    values = {}
    for lineno, raw in _lines(path):
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise ValueError(f"{path}: line {lineno}: expected 'key = value'")
        key, _, value = line.partition("=")
        key = key.strip()
        if key not in _FIELDS:
            raise ValueError(f"{path}: line {lineno}: unknown key {key!r}")
        try:
            values[key] = _coerce(key, value)
        except ValueError as exc:
            raise ValueError(f"{path}: line {lineno}: {exc}") from exc
    return values


def build_config(file_values: dict | None = None, overrides: dict | None = None) -> Config:
    """Defaults, then config file values, then explicit overrides."""
    config = Config()
    for values in (file_values or {}), (overrides or {}):
        for key, value in values.items():
            if key not in _FIELDS:
                raise ValueError(f"unknown config key {key!r}")
            setattr(config, key, value)
    config.validate()
    return config
